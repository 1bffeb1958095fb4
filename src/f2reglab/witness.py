"""Irregularity certificates for lower-bound instances.

For a nonzero subspace H, let i be the first block where some basis
vector of H is nonzero.  Every coset of H then has a constant prefix
(blocks 1..i-1), so the character gamma carrying xi_i(prefix) in block i
and zero elsewhere is well defined per coset.  A certificate for H
collects, per coset, the coefficient of the instance function at gamma
and shows that cosets with a nontrivial gamma (gamma outside H-perp)
and coefficient strictly above eps make up more than an eps fraction,
which rules out eps-regularity of H.

Instance tables carry exact integer numerators, so every comparison in
a certificate is exact rational arithmetic: a coefficient over a coset
of dimension d is (sum of signed counts) / (s * 2^d), and thresholds
arrive as fractions.  The numerators are read from the same exact coset
transform that the regularity report is built from; floating point
appears only in the spot checks against the defining mean.

`witness_scan` certifies one subspace.  The lower-bound walk certifies
runs of equal-dimension subspaces in stacks, each from the duals of its
subspaces and the table's one exact full transform (Poisson summation
over H-perp): that yields the same certificates, verdicts and checks for
every subspace of the stack at once, and any subspace that fails a check
is scanned again on its own, so reports and exceptions match the
one-at-a-time walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .fourier import (
    FunctionTable,
    RegularityReport,
    _buckets,
    _coset_transform,
    _count_spectrum,
    _dual_table,
    _pullback_reps,
    _regularity_report,
    _signed,
    _top_bits,
    as_fraction,
    check_subspace_regularity,
)
from .gf2 import (
    DEFAULT_DENSE_LIMIT,
    BlockStructure,
    DenseLimitError,
    F2Vector,
    Subspace,
    _echelon_bases,
    _echelon_stack,
    _span_stack,
    check_dense,
    reduce_array,
)
from .instance import Instance, XiFamily
from .rng import Stream


class ClaimViolationError(RuntimeError):
    """A verified inequality from the lower-bound argument failed."""


def minimal_active_block(h: Subspace, blocks: BlockStructure) -> tuple[int, F2Vector]:
    """First block i where H has a vector with nonzero block i.

    Returns (i, v) with v a basis element realizing it; by minimality
    every element of H vanishes on blocks before i.
    """
    if h.dim == 0:
        raise ValueError("the zero subspace has no active block")
    offsets = blocks.offsets
    for i in range(1, blocks.s + 1):
        mask = ((1 << blocks.dims[i - 1]) - 1) << offsets[i - 1]
        for row in h.basis:
            if row & mask:
                return i, F2Vector(h.n, row)
    raise AssertionError("nonzero subspace with all blocks zero")


def gamma_character(g: "F2Vector | int", i: int, xi: XiFamily) -> F2Vector:
    """Witness character of the coset of g for block i.

    Carries xi_i evaluated at the prefix of g in block i and is zero
    elsewhere; it depends only on blocks 1..i-1 of g and is never zero.
    """
    blocks = xi.blocks
    entry = xi.entry_for(i, g)
    return F2Vector(blocks.n, entry << blocks.offsets[i - 1])


def w_subspace(blocks: BlockStructure, i: int) -> Subspace:
    """Span of the standard basis vectors in blocks i+1..s."""
    lo = blocks.offsets[i]
    return Subspace(blocks.n, tuple(1 << j for j in range(lo, blocks.n)))


def bad_fraction(
    h: Subspace,
    i: int,
    xi: XiFamily,
    bound: "float | str | Fraction" = Fraction(3, 4),
) -> Fraction:
    """Fraction of points whose witness character is trivial for H.

    The bad set is a union of prefix classes, so the scan runs over the
    2^(D_{i-1}) prefixes.  Raises when the fraction exceeds the bound,
    which for sampled spanning families signals a defective xi family.
    """
    bound = as_fraction(bound)
    blocks = xi.blocks
    dual = h.orthogonal_complement()
    lo = blocks.offsets[i - 1]
    total = len(xi.families[i - 1])
    bad = sum(1 for p in range(total) if dual.contains(xi.entry(i, p) << lo))
    fraction = Fraction(bad, total)
    if fraction > bound:
        raise ClaimViolationError(
            f"bad fraction {fraction} exceeds {bound} for block {i} "
            f"(worst hyperplane incidence of the xi family is too high)"
        )
    return fraction


@dataclass(frozen=True, eq=False)
class WitnessCertificate:
    """Per-coset witness record certifying that H is not eps-regular.

    Coefficients are exact: coefficient of coset r is
    numerators[r] / denominator.  certified marks cosets whose gamma is
    nontrivial and whose coefficient strictly exceeds eps.
    """

    subspace: Subspace
    epsilon: Fraction
    block_index: int
    vector: F2Vector
    bad_fraction: Fraction
    reps: np.ndarray
    gammas: np.ndarray
    numerators: np.ndarray
    denominator: int
    certified: np.ndarray
    cross_checked: bool
    regularity_report: RegularityReport

    @property
    def total_cosets(self) -> int:
        return self.reps.shape[0]

    @property
    def certified_cosets(self) -> int:
        return int(self.certified.sum())

    @property
    def irregular_fraction(self) -> Fraction:
        return Fraction(self.certified_cosets, self.total_cosets)

    @property
    def ok(self) -> bool:
        return self.irregular_fraction > self.epsilon

    def coefficient(self, r: int) -> Fraction:
        return Fraction(int(self.numerators[r]), self.denominator)


def witness_scan(
    f: FunctionTable,
    h: Subspace,
    epsilon: "float | str | Fraction",
    xi: XiFamily,
    cross_check: bool = True,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
    _gamma_cache: dict | None = None,
) -> WitnessCertificate:
    """Build and validate the irregularity certificate of a nonzero H.

    Raises ClaimViolationError when the certified fraction fails to
    exceed eps (which would contradict the lower-bound construction for
    eps up to 1/(16 s)).  The numerator of each coset is the entry of
    its exact coset transform at the bucket of its gamma, and gamma is
    nontrivial exactly when that bucket is nonzero.  Every scan is
    cross-checked: it builds the regularity report from the same
    transform, requires every certified coset to be irregular there,
    raises when the report is regular, and spot-checks certified
    coefficients against the defining mean.  cross_check and
    _gamma_cache are accepted for callers that still pass them and are
    ignored.
    """
    if f.counts is None:
        raise ValueError("witness scans need exact count tables (instance functions)")
    eps = as_fraction(epsilon)
    blocks = xi.blocks
    i, v = minimal_active_block(h, blocks)
    prefix_mask = (1 << blocks.offsets[i - 1]) - 1
    assert all(row & prefix_mask == 0 for row in h.basis), "prefix not constant on cosets"
    reps = _pullback_reps(f, h, dense_limit)

    family = np.asarray(xi.families[i - 1], dtype=np.int64)
    gammas = family[reps & np.int64(prefix_mask)] << np.int64(blocks.offsets[i - 1])
    transform, denominator = _coset_transform(f, h.span_array(dense_limit), reps)
    buckets = _buckets(h.basis, gammas)
    numerators = _signed(transform[np.arange(reps.shape[0]), buckets], reps, gammas)
    nontrivial = buckets != 0
    # coefficient > eps  <=>  numerator > floor(eps * denominator), as integers
    above = numerators > eps.numerator * denominator // eps.denominator
    certified = nontrivial & above

    bad = Fraction(int((~nontrivial).sum()), reps.shape[0])

    report, irregular = _regularity_report(h, eps, reps, transform, denominator)
    cert = WitnessCertificate(
        subspace=h,
        epsilon=eps,
        block_index=i,
        vector=v,
        bad_fraction=bad,
        reps=reps,
        gammas=gammas,
        numerators=numerators,
        denominator=denominator,
        certified=certified,
        cross_checked=True,
        regularity_report=report,
    )
    if (certified & ~irregular).any():
        raise ClaimViolationError("certified coset not irregular in the regularity report")
    if report.is_regular and cert.ok:
        raise ClaimViolationError("certificate contradicts the regularity report")
    if not _spot_checks(
        f, np.array([h.basis]), reps[None], gammas[None], numerators[None],
        denominator, certified[None],
    )[0]:
        raise ClaimViolationError("defining mean and exact coefficient disagree")
    if not cert.ok:
        raise ClaimViolationError(
            f"witness fraction {cert.irregular_fraction} is not above {eps} "
            f"for subspace with basis {h.basis}"
        )
    return cert


def _spot_checks(
    f: FunctionTable,
    rows: np.ndarray,
    reps: np.ndarray,
    gammas: np.ndarray,
    numerators: np.ndarray,
    denominator: int,
    certified: np.ndarray,
) -> np.ndarray:
    """Which of B certificates pass their spot checks against the
    defining mean.

    rows is a (B, d) stack of echelon bases of the subspaces, and the
    other arrays are their (B, R) per-coset certificate entries.  Each
    subspace checks the certified rows r[::max(1, len(r) // 4)][:4]: the
    mean of f(x) (-1)^<x, gamma> over the coset must equal
    numerator / denominator to within 1e-9.
    """
    count = certified.sum(axis=1)
    offsets = np.arange(4) * np.maximum(1, count // 4)[:, None]
    take = offsets < count[:, None]
    sub, row = np.nonzero(certified)
    pick = ((np.cumsum(count) - count)[:, None] + offsets)[take]
    sub, row = sub[pick], row[pick]
    coset = _span_stack(rows[sub]) ^ reps[sub, row][:, None]
    signs = 1.0 - 2.0 * (np.bitwise_count(coset & gammas[sub, row][:, None]) & 1)
    value = (f.values[coset] * signs).mean(axis=1)
    wrong = np.abs(value - numerators[sub, row] / denominator) > 1e-9
    passed = np.ones(rows.shape[0], dtype=bool)
    passed[sub[wrong]] = False
    return passed


def _w_class_fractions(
    f: FunctionTable,
    h: Subspace,
    g: "F2Vector | int",
    i: int,
    xi: XiFamily,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> tuple[list[Fraction], Fraction]:
    """Exact gamma-coefficients over the cosets H+g+w, w in the tail
    span, plus the average (each distinct coset counted once)."""
    if f.counts is None:
        raise ValueError("exact coefficient scans need count tables")
    gamma = np.int64(gamma_character(g, i, xi).bits)
    bucket = int(_buckets(h.basis, np.array([gamma]))[0])
    if bucket == 0:
        raise ValueError("witness character is trivial on H (gamma in H-perp)")
    tail = w_subspace(xi.blocks, i)
    g_bits = g.bits if isinstance(g, F2Vector) else int(g)
    check_dense(tail.dim, dense_limit, "tail translates")
    reps = np.unique(reduce_array(tail.span_array(dense_limit) ^ np.int64(g_bits), h))
    transform, denominator = _coset_transform(f, h.span_array(dense_limit), reps)
    numerators = _signed(transform[:, bucket], reps, gamma)
    values = [Fraction(int(m), denominator) for m in numerators]
    average = Fraction(sum(values), len(values))
    return values, average


def w_average_coefficient(
    f: FunctionTable,
    h: Subspace,
    g: "F2Vector | int",
    i: int,
    xi: XiFamily,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> Fraction:
    """Average gamma-coefficient over the tail translates of H+g.

    For instance tables this is an exact rational; the construction
    makes it exactly 1/(2s) whenever gamma is nontrivial for H.
    """
    _, average = _w_class_fractions(f, h, g, i, xi, dense_limit)
    return average


def corollary_fraction(
    f: FunctionTable,
    h: Subspace,
    g: "F2Vector | int",
    i: int,
    xi: XiFamily,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> Fraction:
    """Fraction of tail translates whose gamma-coefficient exceeds 1/(4s).

    Asserts the averaging consequence: the fraction itself must exceed
    1/(4s).
    """
    values, _ = _w_class_fractions(f, h, g, i, xi, dense_limit)
    threshold = Fraction(1, 4 * f.denominator)
    fraction = Fraction(sum(1 for v in values if v > threshold), len(values))
    if not fraction > threshold:
        raise ClaimViolationError(
            f"fraction {fraction} of translates above {threshold} is not itself "
            f"above {threshold}"
        )
    return fraction


@dataclass(frozen=True, eq=False)
class LowerBoundReport:
    """Outcome of scanning a family of subspaces against an instance."""

    mode: str
    epsilon: Fraction
    s: int
    n: int
    seed: int | None
    checked: int
    certified: int
    zero_subspace_regular: bool
    failures: tuple
    regular_nonzero: tuple
    per_dim_checked: tuple

    @property
    def ok(self) -> bool:
        return (
            self.zero_subspace_regular
            and not self.failures
            and not self.regular_nonzero
            and self.certified == self.checked
        )

    def __bool__(self) -> bool:
        return self.ok


# Table entries per stack (64 subspaces at n = 11); larger stacks raised
# the walk's peak memory without making it faster.
_STACK_ENTRIES = 1 << 17


def _random_stack(n: int, dim: int, count: int, stream: Stream) -> np.ndarray:
    """The first `count` subspaces of exact dimension dim drawn from the
    stream, as (count, dim) echelon bases.

    Each attempt is dim successive draws of n bits (one stream word
    each), echelonized, and rejected when the rows are dependent; the
    kept subspaces are the first full-rank attempts in attempt order.
    Attempts are drawn a block at a time, sized to the exact acceptance
    rate plus a margin, so one block almost always suffices; drawing
    past the last kept attempt only advances this stream.
    """
    accept = float(np.prod(1.0 - np.exp2(np.arange(dim) - n)))
    mask = np.uint64((1 << n) - 1)
    kept = [np.zeros((0, dim), dtype=np.int64)]
    need = count
    while need > 0:
        attempts = int(need / accept * 1.05) + 16
        draws = (stream.u64_block(attempts * dim) & mask).astype(np.int64)
        basis, rank = _echelon_stack(draws.reshape(attempts, dim), n)
        kept.append(basis[rank == dim][:need])
        need -= len(kept[-1])
    return np.concatenate(kept)


def _perp_stack(basis: np.ndarray, pivots: np.ndarray, n: int) -> np.ndarray:
    """Complements of a (B, k) stack of reduced echelon bases whose row i
    has its pivot at pivots[:, i]: the rows e_j + sum over i of
    bit_j(basis_i) e_{pivots_i} for every non-pivot j, ascending, shape
    (B, n - k).

    Each such row is orthogonal to every basis row because the basis is
    reduced (basis_i has the bit pivots_i' exactly when i = i').  Given a
    top-pivot stack of duals D and their top bits, the rows are the
    lowest-pivot echelon basis of H = D-perp (row j has lowest bit j);
    given H's echelon basis and its lowest bits, they are H-perp in the
    top-pivot echelon form of `_echelon_stack(..., top=True)` (row j has
    top bit j).
    """
    count, k = basis.shape
    columns = np.arange(n, dtype=np.int64)
    full = np.broadcast_to(1 << columns, (count, n)).copy()
    keep = np.ones((count, n), dtype=bool)
    for i in range(k):
        full |= ((basis[:, i, None] >> columns) & 1) << pivots[:, i, None]
        keep &= columns != pivots[:, i, None]
    return full[keep].reshape(count, n - k)


def _walk(
    n: int, mode: str, random_per_dim: int, seed: int, max_codim: int
) -> Iterator[np.ndarray]:
    """The nonzero subspaces H of a lower-bound walk in order, as runs of
    one dimension given by their duals: (B, c) top-pivot echelon bases of
    H-perp, as `_certify_duals` takes them.  Exhaustive runs list every
    nonzero subspace in the order of `enumerate_all_subspaces`."""
    if mode == "structured":
        yield np.zeros((1, 0), dtype=np.int64)
        for codim in range(1, max_codim + 1):
            for duals in _echelon_bases(n, codim):
                yield _echelon_stack(duals, n, top=True)[0]
    if mode == "exhaustive":
        runs = (rows for dim in range(1, n + 1) for rows in _echelon_bases(n, dim))
    else:
        runs = (
            _random_stack(n, dim, random_per_dim, Stream(seed, f"lowerbound/dim{dim}"))
            for dim in range(1, n)
        )
    for rows in runs:
        yield _perp_stack(rows, _top_bits(rows & -rows), n)


def _stacks(runs: Iterable[np.ndarray], n: int) -> Iterator[np.ndarray]:
    """Each run cut, in order, into stacks whose tables (2^n entries per
    subspace) stay within _STACK_ENTRIES; above n = 17 every stack is a
    single subspace."""
    cap = max(1, _STACK_ENTRIES >> n)
    for duals in runs:
        for start in range(0, duals.shape[0], cap):
            yield duals[start : start + cap]


def _gammas(rows: np.ndarray, reps: np.ndarray, xi: XiFamily) -> np.ndarray:
    """Witness characters of the cosets reps (B, R) of B nonzero subspaces
    with echelon bases rows (B, d); the active block holds the lowest
    pivot, the low bit of the first row."""
    blocks = xi.blocks
    lowest = np.bitwise_count((rows[:, 0] & -rows[:, 0]) - 1)
    active = np.searchsorted(blocks.offsets, lowest, side="right")
    gammas = np.empty_like(reps)
    for i in np.unique(active).tolist():
        lo = blocks.offsets[i - 1]
        prefix = np.int64((1 << lo) - 1)
        sel = active == i
        assert not (rows[sel] & prefix).any(), "prefix not constant on cosets"
        family = np.asarray(xi.families[i - 1], dtype=np.int64)
        gammas[sel] = family[reps[sel] & prefix] << np.int64(lo)
    return gammas


def _certify_duals(
    f: FunctionTable,
    spectrum: np.ndarray,
    duals: np.ndarray,
    eps: Fraction,
    xi: XiFamily,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """witness_scan and the walk's checks on B nonzero subspaces H of
    codimension c, given by their duals, a (B, c) top-pivot echelon stack
    of bases of H-perp, from the count table's full transform
    (`_count_spectrum`).

    With t_1 < ... < t_c the duals' top bits, H's canonical coset
    representatives are the vectors carried by the t_i, its echelon
    basis is `_perp_stack` of the duals at the t_i, and `_dual_table`
    gives every coset's numerator at every nontrivial class.  H's pivots
    are the other bits, so the bucket k of gamma carries the bits of
    gamma's class rep at those pivots: k == 0 means gamma is trivial on
    H, and otherwise the rep is the table's class k - 1.  Coset reps live
    on the t_i and class reps off them, so the numerator at gamma is
    (-1)^<r, gamma> times the class rep's.

    Returns H's (B, n - c) echelon bases and, per subspace, the certified
    and the irregular coset counts and whether every check passed: the
    certificate is ok, certified cosets are irregular, the report is not
    regular (which also rules out a regular report beside an ok
    certificate), and the certificate passes `_spot_checks`.
    """
    n = f.n
    c = duals.shape[1]
    tops = _top_bits(duals)
    rows = _perp_stack(duals, tops, n)
    reps = _span_stack(1 << tops)
    gammas = _gammas(rows, reps, xi)
    table = _dual_table(spectrum, duals)
    buckets = _buckets(rows.T[:, :, None], gammas)
    # a trivial gamma (bucket 0) reads the last class; `certified` drops it
    numerators = np.take_along_axis(table, buckets[..., None] - 1, axis=2)[..., 0] >> c
    _signed(numerators, reps, gammas)
    worst = np.abs(table, out=table).max(axis=2) >> c

    denominator = f.denominator << (n - c)
    threshold = eps.numerator * denominator // eps.denominator
    certified = (buckets != 0) & (numerators > threshold)
    irregular = worst > threshold
    # a count of the 2^c cosets exceeds eps * 2^c iff it exceeds limit
    limit = eps.numerator * reps.shape[1] // eps.denominator
    certified_count = certified.sum(axis=1)
    irregular_count = irregular.sum(axis=1)
    passed = (
        (certified_count > limit)
        & (irregular_count > limit)
        & ~(certified & ~irregular).any(axis=1)
        & _spot_checks(f, rows, reps, gammas, numerators, denominator, certified)
    )
    return rows, certified_count, irregular_count, passed


def exhaustive_lowerbound_check(
    inst: Instance,
    epsilon: "float | str | Fraction",
    mode: str = "auto",
    random_per_dim: int = 10**4,
    seed: int = 0,
    strict: bool = True,
    max_enumerated_codim: int = 1,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> LowerBoundReport:
    """Verify that only the zero subspace is eps-regular for an instance.

    The zero subspace is checked once, before the walk; its cosets are
    single points, so it is always regular.  The walk then lists nonzero
    subspaces: exhaustive mode every one of them (n <= 4); structured
    mode the full space, every hyperplane (and optionally deeper
    enumerated codimensions), plus seeded random subspaces of every
    dimension; sampled mode only the random part.  Each must fail the
    regularity check and carry a valid witness certificate.  With
    strict=True any failure raises; otherwise failures and regular
    subspaces are collected in the report (informational large-eps runs).

    The walk certifies consecutive subspaces of one dimension in stacks
    of at most _STACK_ENTRIES table entries, every stack from its duals
    and the one full transform of the table that the call computes
    (`_certify_duals`).  A subspace that fails any check there is scanned
    again by `witness_scan`, in walk order, which raises or records the
    failure exactly as a one-at-a-time walk would.
    """
    if inst.table is None:
        raise ValueError("lower-bound scans need a dense instance table")
    eps = as_fraction(epsilon)
    f = inst.table
    n = inst.n
    if mode == "auto":
        mode = "exhaustive" if n <= 4 else "structured"
    if mode not in ("exhaustive", "structured", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive" and n > 4:
        raise DenseLimitError(f"subspace enumeration is limited to n <= 4, got {n}")
    if f.counts is None:
        raise ValueError("witness scans need exact count tables (instance functions)")
    check_dense(n, dense_limit, "pullback entries")

    zero_regular = check_subspace_regularity(f, Subspace.zero(n), eps, dense_limit).is_regular
    if strict and not zero_regular:
        raise ClaimViolationError("the zero subspace failed its regularity check")
    spectrum = _count_spectrum(f)

    certified = 0
    failures: list[dict] = []
    regular_nonzero: list[tuple[int, ...]] = []
    per_dim = [0] * (n + 1)
    per_dim[0] = int(mode == "exhaustive")  # only exhaustive mode enumerates {0}
    for duals in _stacks(_walk(n, mode, random_per_dim, seed, max_enumerated_codim), n):
        per_dim[n - duals.shape[1]] += len(duals)
        rows, _, _, passed = _certify_duals(f, spectrum, duals, eps, inst.xi)
        certified += int(passed.sum())
        for basis in rows[~passed].tolist():
            h = Subspace._from_echelon(n, tuple(basis))
            try:
                witness_scan(f, h, eps, xi=inst.xi, dense_limit=dense_limit)
                certified += 1
            except ClaimViolationError as exc:
                if strict:
                    raise
                if check_subspace_regularity(f, h, eps, dense_limit).is_regular:
                    regular_nonzero.append(tuple(h.basis))
                else:
                    failures.append(
                        {"basis": list(h.basis), "dim": h.dim, "reason": str(exc)}
                    )

    return LowerBoundReport(
        mode=mode,
        epsilon=eps,
        s=inst.s,
        n=n,
        seed=None if mode == "exhaustive" else seed,
        checked=sum(per_dim[1:]),
        certified=certified,
        zero_subspace_regular=zero_regular,
        failures=tuple(failures),
        regular_nonzero=tuple(regular_nonzero),
        per_dim_checked=tuple(per_dim),
    )
