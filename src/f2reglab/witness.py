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
arrive as fractions.  The numerators are read from the table's one
exact full transform by Poisson summation over H-perp
(`fourier._dual_table`) at the classes of the witness characters alone;
the full-class verdicts (`fourier._dual_worst`) read every class, only
where a verdict rests on them: `witness_scan`'s cross-check, and the
walk's subspaces whose certificate fails.  The tail-translate averages
read the same transform, at one witness character over the tail's
cosets (`fourier._coset_numerator`).  Floating point appears only in
the spot checks against the defining mean.

One certifier, `_certify_duals`, reads the certificates and checks of a
stack of equal-dimension subspaces given by their duals.  The
lower-bound walk runs it on stacks of consecutive subspaces and reports
a failing subspace from the stack's own verdicts and the worst
nontrivial class of each of its cosets (`_dual_worst` on the stack of
failing subspaces); `witness_scan` runs it on a stack of one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fourier import (
    FunctionTable,
    RegularityReport,
    _coset_numerator,
    _count_dtype,
    _count_spectrum,
    _dual_report,
    _dual_table,
    _dual_worst,
    _signed,
    _threshold,
    _top_bits,
    as_fraction,
)
from .gf2 import (
    BlockStructure,
    DenseLimitError,
    DimensionMismatchError,
    F2Vector,
    Subspace,
    _checked_bits,
    _echelon_bases,
    _echelon_stack,
    _span_stack,
    parity,
    reduce_array,
)
from .instance import Instance, XiFamily
from .rng import Stream


class ClaimViolationError(RuntimeError):
    """A verified inequality from the lower-bound argument failed."""


def minimal_active_block(h: Subspace, blocks: BlockStructure) -> tuple[int, F2Vector]:
    """First block i where H has a vector with nonzero block i.

    Returns (i, v) with v a basis element realizing it; by minimality
    every element of H vanishes on blocks before i.  The echelon basis
    puts the lowest pivot, the lowest set bit of any element of H, in
    its first row, so i is the block of that pivot and v is that row.
    """
    if h.dim == 0:
        raise ValueError("the zero subspace has no active block")
    v = h.basis[0]
    return bisect_right(blocks.offsets, (v & -v).bit_length() - 1), F2Vector(h.n, v)


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
    family = xi.family(i)
    dual = h.orthogonal_complement()
    lo = xi.blocks.offsets[i - 1]
    fraction = Fraction(sum(1 for e in family if dual.contains(e << lo)), len(family))
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
    _gamma_cache: dict | None = None,
) -> WitnessCertificate:
    """Build and validate the irregularity certificate of a nonzero H.

    Raises ClaimViolationError when the certified fraction fails to
    exceed eps (which would contradict the lower-bound construction for
    eps up to 1/(16 s)).  The certificate is `_certify_duals` on the
    one-subspace stack of H's duals, read from the count table's exact
    full transform (`_count_spectrum`), as in the lower-bound walk.
    Every scan is cross-checked: certified cosets must also be irregular
    in the `_dual_report` regularity report, and certified coefficients
    are spot-checked against the defining mean.  A subspace or xi family
    whose n is not the table's is refused first.  cross_check and
    _gamma_cache are accepted for callers that still pass them and are
    ignored.
    """
    if f.counts is None:
        raise ValueError("witness scans need exact count tables (instance functions)")
    i, v = minimal_active_block(h, xi.blocks)
    _check_sizes(f, h, xi)
    eps = as_fraction(epsilon)
    spectrum = _count_spectrum(f)
    duals = np.array([h._dual_rows()], np.int64)
    _, reps, gammas, numerators, certified, trivial, checks = (
        a[0] for a in _certify_duals(f, spectrum, duals, eps, xi)
    )
    report = _dual_report(h, eps, spectrum, f.denominator)
    irregular = np.zeros(reps.shape[0], dtype=bool)
    irregular[np.searchsorted(reps, report.witness_reps)] = True  # reps ascend
    first = not (certified & ~irregular).any()
    reason = _failure([first, *checks], int(certified.sum()), reps.shape[0], eps, h.basis)
    if reason:
        raise ClaimViolationError(reason)
    return WitnessCertificate(
        subspace=h,
        epsilon=eps,
        block_index=i,
        vector=v,
        bad_fraction=Fraction(int(trivial.sum()), reps.shape[0]),
        reps=reps,
        gammas=gammas,
        numerators=numerators.astype(_count_dtype(f.denominator, h.dim), copy=False),
        denominator=f.denominator << h.dim,
        certified=certified,
        cross_checked=True,
        regularity_report=report,
    )


def _failure(
    checks: Sequence[bool], certified: int, total: int, eps: Fraction, basis: tuple
) -> "str | None":
    """Message of the first of a certificate's three checks that fails,
    or None when all pass: its certified cosets are irregular in the
    full-class regularity report, and `_certify_duals`'s two checks."""
    if not checks[0]:
        return "certified coset not irregular in the regularity report"
    if not checks[1]:
        return "defining mean and exact coefficient disagree"
    if not checks[2]:
        return (
            f"witness fraction {Fraction(certified, total)} is not above {eps} "
            f"for subspace with basis {basis}"
        )
    return None


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

    The mean reads f.values at every point of the coset.  A certified
    gamma is nontrivial on H, so it pairs to 1 with a first basis row b_j;
    adding b_j to the other rows that do and moving it last gives a basis
    whose coset listing (`_span_stack` from the rep) has the sign
    (-1)^<rep, gamma> on its first half and the opposite on its second.
    """
    passed = np.ones(rows.shape[0], dtype=bool)
    count = certified.sum(axis=1)
    offsets = np.arange(4) * np.maximum(1, count // 4)[:, None]
    sub, row = np.nonzero(certified)
    if not sub.size:
        return passed
    pick = ((np.cumsum(count) - count)[:, None] + offsets)[offsets < count[:, None]]
    sub, row = sub[pick], row[pick]
    basis, rep, gamma = rows[sub], reps[sub, row], gammas[sub, row]
    pairs = np.bitwise_count(basis & gamma[:, None]) & 1
    j = pairs.argmax(axis=1)
    b_j = basis[np.arange(sub.size), j]
    basis ^= pairs * b_j[:, None]
    basis[np.arange(sub.size), j] = basis[:, -1]
    basis[:, -1] = b_j
    halves = f.values[_span_stack(basis, rep)].reshape(2, -1, sub.size).sum(axis=1)
    value = _signed((halves[0] - halves[1]) / (1 << rows.shape[1]), rep, gamma)
    wrong = np.abs(value - numerators[sub, row] / denominator) > 1e-9
    passed[sub[wrong]] = False
    return passed


def _check_sizes(f: FunctionTable, h: Subspace, xi: XiFamily) -> None:
    """Refuse a subspace or xi family that does not live in the table's F2^n."""
    for what, n in (("subspace", h.n), ("xi family", xi.blocks.n)):
        if n != f.n:
            raise DimensionMismatchError(f"table n={f.n} vs {what} n={n}")


def _w_class_fractions(
    f: FunctionTable,
    h: Subspace,
    g: "F2Vector | int",
    i: int,
    xi: XiFamily,
) -> list[Fraction]:
    """Exact gamma-coefficients over the distinct cosets H+g+w, w in the
    tail span, read at once from the table's full transform."""
    if f.counts is None:
        raise ValueError("exact coefficient scans need count tables")
    _check_sizes(f, h, xi)
    g_bits = _checked_bits(g, f.n, "translate")
    gamma = gamma_character(g_bits, i, xi).bits
    if not any(parity(row & gamma) for row in h.basis):
        raise ValueError("witness character is trivial on H (gamma in H-perp)")
    tail = w_subspace(xi.blocks, i)
    reps = np.unique(reduce_array(tail.span_array(f.n) ^ np.int64(g_bits), h))
    numerators = _coset_numerator(_count_spectrum(f), h, reps, gamma)
    return [Fraction(int(m), f.denominator << h.dim) for m in numerators]


def w_average_coefficient(
    f: FunctionTable,
    h: Subspace,
    g: "F2Vector | int",
    i: int,
    xi: XiFamily,
) -> Fraction:
    """Average gamma-coefficient over the tail translates of H+g.

    For instance tables this is an exact rational; the construction
    makes it exactly 1/(2s) whenever gamma is nontrivial for H.
    """
    values = _w_class_fractions(f, h, g, i, xi)
    return Fraction(sum(values), len(values))


def corollary_fraction(
    f: FunctionTable,
    h: Subspace,
    g: "F2Vector | int",
    i: int,
    xi: XiFamily,
) -> Fraction:
    """Fraction of tail translates whose gamma-coefficient exceeds 1/(4s).

    Asserts the averaging consequence: the fraction itself must exceed
    1/(4s).
    """
    values = _w_class_fractions(f, h, g, i, xi)
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
    # row i's bits land at its own pivot, so a sum over i is their OR
    moved = (((basis[:, :, None] >> columns) & 1) << pivots[:, :, None]).sum(axis=1)
    keep = (columns != pivots[:, :, None]).all(axis=1)
    return ((1 << columns) | moved)[keep].reshape(count, n - k)


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


def _gammas(
    rows: np.ndarray, reps: np.ndarray, xi: XiFamily
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Witness characters of the cosets reps (B, R) of B nonzero subspaces
    with echelon bases rows (B, d); the active block holds the lowest
    pivot, the low bit of the first row.

    Returns the gammas (B, R); each subspace's family, the xi family of
    its active block shifted into place and repeated to the stack's
    largest family size F, as (B, F) characters; and each coset's prefix
    (its bits below the active block) as an index into that family
    (B, R), so that gammas[b, r] is families[b, prefixes[b, r]].
    """
    blocks = xi.blocks
    lowest = np.bitwise_count((rows[:, 0] & -rows[:, 0]) - 1)
    active = np.searchsorted(blocks.offsets, lowest, side="right")
    lo = np.asarray(blocks.offsets)[active - 1]
    below = ((1 << lo) - 1)[:, None]
    if (rows & below).any():
        raise ValueError("prefix not constant on cosets")
    used = np.unique(active).tolist()
    width = 1 << int(lo.max())  # each used family's 2^lo entries, repeated
    shifted = np.array([
        np.resize(np.asarray(xi.families[i - 1], dtype=np.int64) << blocks.offsets[i - 1], width)
        for i in used
    ])
    families = shifted[np.searchsorted(used, active)]
    prefixes = reps & below
    return _take_rows(families, prefixes), families, prefixes


def _take_rows(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """np.take_along_axis(a, index, axis=1) for a C-contiguous 2-D a, as
    one flat take: numpy's fancy indexing by several index arrays is about
    three times slower on the walk's (B, 2^c) coset arrays."""
    return np.take(a, index + np.arange(0, a.size, a.shape[1])[:, None])


def _certify_duals(
    f: FunctionTable,
    spectrum: np.ndarray,
    duals: np.ndarray,
    eps: Fraction,
    xi: XiFamily,
) -> tuple[np.ndarray, ...]:
    """The certificates and checks of B nonzero subspaces H of
    codimension c, given by their duals, a (B, c) top-pivot echelon stack
    of bases of H-perp, from the count table's full transform
    (`_count_spectrum`).

    With t_1 < ... < t_c the duals' top bits, H's canonical coset
    representatives are the vectors carried by the t_i, and its echelon
    basis is `_perp_stack` of the duals at the t_i.  Every gamma is a
    member of its subspace's family (`_gammas`), so `_dual_table` reads
    only the classes of the family members: a character's class rep is
    the character with its t_i cleared by adding the dual row of top bit
    t_i (no other row has that bit), which is 0 exactly when gamma is
    trivial on H.  Each subspace reads its distinct reps, at most
    min(F, 2^(n - c)) of them (rows with fewer repeat their largest), so
    no table exceeds the 2^n entries per subspace of the full-class one.
    Coset reps live on the t_i and class reps off them, so the numerator
    at gamma is (-1)^<r, gamma> times the class rep's.

    Returns H's (B, n - c) echelon bases; per coset, (B, 2^c) arrays of
    the canonical reps (ascending), the gammas, the numerators, the
    certified mask and the trivial-gamma mask; and a (B, 2) array of the
    checks that follow `_failure`'s first in its order: the certificate
    passes `_spot_checks`, and the certified count exceeds eps * 2^c.
    Their passing proves H not eps-regular by itself: a certified coset's
    numerator at its nontrivial gamma is at most its largest nontrivial
    magnitude, so it is irregular, and more than eps * 2^c are certified.
    The first check, certified cosets irregular in the full-class verdict,
    is left to the callers (`_dual_worst`, `_dual_report`).
    """
    n = f.n
    c = duals.shape[1]
    tops = _top_bits(duals)
    rows = _perp_stack(duals, tops, n)
    reps = np.ascontiguousarray(_span_stack(1 << tops).T)
    gammas, families, prefixes = _gammas(rows, reps, xi)
    for dual, top in zip(duals.T[:, :, None], tops.T[:, :, None]):
        families ^= ((families >> top) & 1) * dual
    # each row's distinct class reps in ascending order, and the column of
    # each family member among them
    order = np.argsort(families, axis=1)
    ranked = np.take_along_axis(families, order, axis=1)
    rank = np.cumsum(np.diff(ranked, axis=1, prepend=ranked[:, :1]) != 0, axis=1)
    classes = np.repeat(ranked[:, -1:], rank.max() + 1, axis=1)
    np.put_along_axis(classes, rank, ranked, axis=1)
    column = np.empty_like(rank)
    np.put_along_axis(column, order, rank, axis=1)
    columns = _take_rows(column, prefixes)
    trivial = _take_rows(families == 0, prefixes)
    table = _dual_table(spectrum, duals, classes)
    # one flat take: coset j of subspace b is row j * B + b of the class-major table
    columns += classes.shape[1] * np.arange(len(duals))[:, None]
    columns += classes.shape[1] * len(duals) * np.arange(1 << c)
    numerators = np.take(table, columns) >> c
    _signed(numerators, reps, gammas)

    denominator = f.denominator << (n - c)
    certified = ~trivial & (numerators > _threshold(eps, denominator))
    checks = np.array([
        _spot_checks(f, rows, reps, gammas, numerators, denominator, certified),
        # a count of the 2^c cosets exceeds eps * 2^c iff it exceeds the floor
        certified.sum(axis=1) > _threshold(eps, reps.shape[1]),
    ]).T
    return rows, reps, gammas, numerators, certified, trivial, checks


def exhaustive_lowerbound_check(
    inst: Instance,
    epsilon: "float | str | Fraction",
    mode: str = "auto",
    random_per_dim: int = 10**4,
    seed: int = 0,
    strict: bool = True,
    max_enumerated_codim: int = 1,
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
    random_per_dim must not be negative, and in structured mode, the only
    one that reads it, max_enumerated_codim must lie in 0..n-1; both are
    checked before the table is transformed.

    The walk certifies consecutive subspaces of one dimension in stacks
    of at most _STACK_ENTRIES table entries from their duals and the one
    full transform of the table that the call computes (`_certify_duals`).
    A certificate that passes proves its subspace not eps-regular, so only
    a failing subspace gets a verdict from each coset's largest
    nontrivial magnitude (`_dual_worst`, with the lowest bits of H's
    echelon rows, off the duals' top bits, as units): it is regular
    exactly when at most eps * 2^c of its cosets are irregular.  It
    raises, or is recorded in walk order, with the message of its first
    failed check, as `witness_scan` would give.
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
    if mode == "structured" and not 0 <= max_enumerated_codim < n:  # codim n lists {0}
        raise ValueError(
            f"max_enumerated_codim {max_enumerated_codim} out of range 0..{n - 1} for n = {n}"
        )
    if random_per_dim < 0:
        raise ValueError(f"random_per_dim must be non-negative, got {random_per_dim}")
    if f.counts is None:
        raise ValueError("witness scans need exact count tables (instance functions)")

    spectrum = _count_spectrum(f)
    zero_regular = _dual_report(Subspace.zero(n), eps, spectrum, f.denominator).is_regular
    if strict and not zero_regular:
        raise ClaimViolationError("the zero subspace failed its regularity check")

    certified = 0
    failures: list[dict] = []
    regular_nonzero: list[tuple[int, ...]] = []
    per_dim = [0] * (n + 1)
    per_dim[0] = int(mode == "exhaustive")  # only exhaustive mode enumerates {0}
    for duals in _stacks(_walk(n, mode, random_per_dim, seed, max_enumerated_codim), n):
        c = duals.shape[1]
        per_dim[n - c] += len(duals)
        rows, _, _, _, certified_cosets, _, checks = _certify_duals(
            f, spectrum, duals, eps, inst.xi
        )
        passed = checks.all(axis=1)
        certified += int(passed.sum())
        failed = np.flatnonzero(~passed)
        if not failed.size:
            continue
        total = 1 << c
        best, _, _ = _dual_worst(spectrum, duals[failed], rows[failed] & -rows[failed])
        irregular = best >> c > _threshold(eps, f.denominator << (n - c))
        cosets = certified_cosets[failed]
        verdicts = np.column_stack([~(cosets & ~irregular).any(axis=1), checks[failed]])
        counts = cosets.sum(axis=1).tolist()
        # the report is regular when at most eps * 2^c cosets are irregular
        regular = (irregular.sum(axis=1) <= _threshold(eps, total)).tolist()
        for j, k in enumerate(failed.tolist()):
            basis = tuple(rows[k].tolist())
            reason = _failure(verdicts[j], counts[j], total, eps, basis)
            if strict:
                raise ClaimViolationError(reason)
            if regular[j]:
                regular_nonzero.append(basis)
            else:
                failures.append({"basis": list(basis), "dim": len(basis), "reason": reason})

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
