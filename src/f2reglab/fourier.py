"""Fourier spectra of bounded functions on F2^n and on its cosets.

The coefficient of f at a character eta over an affine subspace A is the
mean of f(x) * (-1)^<x, eta> over x in A.  Characters that vanish on the
direction subspace H are trivial on every coset (their coefficient is a
signed coset mean); the nontrivial spectrum of a coset is indexed by the
classes of F2^n modulo H-perp, and each class is represented canonically
by its member with all H-perp pivot coordinates zero.

Two private kernels compute coset coefficients:

* `_dual_table` reads every coset's numerator at chosen characters for
  a stack of subspaces from a count table's one full integer transform
  (`_count_spectrum`) by Poisson summation over H-perp: a gather and
  codim(H) butterfly stages.  Every verdict, certificate and per-coset
  lookup on a count table comes from it: one stacked kernel reads each
  coset's worst class (`_dual_worst`) for `check_subspace_regularity`,
  the decomposition rounds (`_dual_report`, its one-subspace case) and
  the walk's failing subspaces; `witness_scan` and the lower-bound walk
  certify from it; and `_coset_numerator` reads chosen cosets of one
  subspace at chosen characters, for rounded tables' deviation reports
  and `witness`'s tail-translate averages.
* `_coset_transform` pulls f back through the basis parameterization of
  H over the requested cosets and runs one batched size-2^dim transform:
  `restricted_spectrum` reads one coset of any table from it.  Float
  tables are scanned from the same pullback a block of cosets at a time
  (`_regularity_scan`): gathered class-major, (2^dim, R) for R cosets,
  when a block holds more than _LOW cosets, so every butterfly stage
  pairs whole contiguous rows of R entries, and row by row through
  `_coset_transform` when the cosets are larger.

Count tables transform their integer numerators, so their coefficients
are exact ratios and their regularity verdicts compare integers; float
tables transform their float values.  A count table built from its
counts alone holds only them (1 byte a point for uint8 counts): its
float64 values are built when something first reads them (`wht_full`,
the defining means, float-side rounding gathers, witness spot checks)
and then kept.  A coset restriction is regular at level eps when every
nontrivial class coefficient has absolute value at most eps; a subspace
is regular when at least a (1 - eps) fraction of its cosets are.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .gf2 import (
    AffineSubspace,
    DimensionMismatchError,
    F2Vector,
    Subspace,
    _span_of_rows,
    _span_stack,
    parity64,
)


def as_fraction(value: "float | int | str | Fraction") -> Fraction:
    """Exact rational view of a threshold.

    Strings like "1/48" parse exactly; floats convert to their exact
    binary value, which keeps comparisons deterministic.
    """
    return Fraction(value)


def _ratios(counts: np.ndarray, denominator: int) -> np.ndarray:
    """counts / denominator in float64: the values of a count table."""
    values = counts.astype(np.float64)
    values /= float(denominator)
    return values


class _Mirror:
    """The `values` field of a FunctionTable: the float entries it was
    given or, for a table given only counts, their `_ratios`, built on
    the first read, frozen and kept on the table.  The field's default,
    None, leaves the values to the counts."""

    def __get__(self, f: "FunctionTable | None", owner: type | None = None) -> "np.ndarray | None":
        if f is None:
            return None
        values = vars(f)["values"]
        if values is None:
            values = _ratios(f.counts, f.denominator)
            values.setflags(write=False)
            vars(f)["values"] = values
        return values

    def __set__(self, f: "FunctionTable", values: "np.ndarray | None") -> None:
        vars(f)["values"] = values


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Dense table of a bounded function f: F2^n -> [0, 1].

    values[k] is f at the point with integer encoding k.  When the
    function is a ratio of small integers, `counts` holds the exact
    numerators (values == counts / denominator), which the coset
    transform uses for exact coefficients, verdicts and certificates.
    A table given counts without values (`from_counts`, so every
    instance and rounded table) holds only them: its float64 `values`
    are built on their first read and then kept, and the count paths
    (verdicts, certificates, energies, decompositions, rounding
    lookups, `.f2fn` writes) never read them.  Arrays given already
    C-contiguous (values as float64) are kept, not copied, and made
    read-only: the caller's own array is frozen too.
    """

    n: int
    values: np.ndarray = _Mirror()
    counts: np.ndarray | None = None
    denominator: int | None = None

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        given = vars(self)["values"]
        if given is not None:
            values = np.ascontiguousarray(given, dtype=np.float64)
            if values.shape != (1 << self.n,):
                raise ValueError(f"table must have 2^{self.n} entries, got {values.shape}")
            # min and max propagate NaN, so a NaN fails both comparisons
            if not (values.min() >= 0.0 and values.max() <= 1.0):
                raise ValueError("table values must lie in [0, 1]")
            values.setflags(write=False)
            object.__setattr__(self, "values", values)
        if (self.counts is None) != (self.denominator is None):
            raise ValueError("counts and denominator must be given together")
        if self.counts is None:
            if given is None:
                raise ValueError("a table needs values or counts")
            return
        counts = np.ascontiguousarray(self.counts)
        if counts.shape != (1 << self.n,):
            raise ValueError("counts must match table length")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError(f"counts must have an integer dtype, got {counts.dtype}")
        den = self.denominator
        if isinstance(den, bool) or not isinstance(den, (int, np.integer)) or den < 1:
            raise ValueError(f"denominator must be an integer >= 1, got {den!r}")
        if counts.min() < 0 or counts.max() > den:
            raise ValueError(f"counts must lie in [0, denominator={den}]")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "denominator", int(den))

    @classmethod
    def from_counts(cls, n: int, counts: np.ndarray, denominator: int) -> "FunctionTable":
        return cls(n, counts=counts, denominator=denominator)

    def _float_blocks(self, step: int) -> Iterator[np.ndarray]:
        """The float entries in index order, step at a time: slices of
        `values` once given or built, else the `_ratios` of each block of
        counts, the same bytes without a full-size float array."""
        values = vars(self)["values"]
        for start in range(0, self.size, step):
            if values is None:
                yield _ratios(self.counts[start : start + step], self.denominator)
            else:
                yield values[start : start + step]

    @classmethod
    def constant(cls, n: int, value: float) -> "FunctionTable":
        return cls(n, np.full(1 << n, float(value)))

    @property
    def size(self) -> int:
        return 1 << self.n

    def mean(self) -> float:
        return float(self.values.mean())

    def is_binary(self) -> bool:
        return bool(np.all((self.values == 0.0) | (self.values == 1.0)))


@dataclass(frozen=True, eq=False)
class CosetSpectrum:
    """All class coefficients of a function restricted to one coset.

    class_reps are the canonical representatives of F2^n modulo H-perp
    in ascending encoding order (class_reps[0] == 0 is the trivial
    class, whose coefficient is the coset mean).
    """

    coset: AffineSubspace
    class_reps: np.ndarray
    coefficients: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.coefficients[0])


@dataclass(frozen=True, eq=False)
class RegularityReport:
    """Per-coset regularity scan of a subspace at level eps.

    Witness arrays hold, for each irregular coset, its canonical
    representative, the worst nontrivial class representative, and the
    signed coefficient there; regular_cosets + len = total_cosets.
    """

    subspace: Subspace
    epsilon: Fraction
    total_cosets: int
    regular_cosets: int
    witness_reps: np.ndarray
    witness_etas: np.ndarray
    witness_values: np.ndarray

    @property
    def irregular_cosets(self) -> int:
        return self.total_cosets - self.regular_cosets

    @property
    def is_regular(self) -> bool:
        """Exact verdict: regular cosets >= (1 - eps) * total."""
        return self.irregular_cosets <= self.epsilon * self.total_cosets

    @property
    def regular_fraction(self) -> Fraction:
        return Fraction(self.regular_cosets, self.total_cosets)

    @property
    def witnesses(self) -> list[tuple[F2Vector, F2Vector, float]]:
        n = self.subspace.n
        return [
            (F2Vector(n, int(r)), F2Vector(n, int(e)), float(v))
            for r, e, v in zip(self.witness_reps, self.witness_etas, self.witness_values)
        ]


# One cache block of the transform, counted in 8-byte entries (512 KiB):
# an array of narrower items takes proportionally more entries per block.
# Scans bound their blocks by the same count (`_block_rows`).
_CHUNK = 1 << 16
# numpy iterates short contiguous runs slowly: stages of stride below this
# run on a transposed copy of each block, and a float scan gathers its
# block class-major, one row entry per coset, only when it holds more
# cosets than this.
_LOW = 16


def _butterflies(a: np.ndarray, h: int, stop: int, width: int = 1) -> None:
    """Radix-2 stages of stride h, 2h, ... < stop, two per pass (radix 4).

    Entries are rows of `width` consecutive elements of a, and the stages
    pair rows h apart.  Within a pass the four rows x0..x3 at offsets 0,
    h, 2h and 3h become (x0 + x1) + (x2 + x3), (x0 - x1) + (x2 - x3),
    (x0 + x1) - (x2 + x3) and (x0 - x1) - (x2 - x3): the same two adds or
    subtracts per element, in the same order, as two radix-2 stages.  The
    reshape to (-1, 4, h, width) must be a view: a is C-contiguous, or a
    column slab whose leading axis is the only one split.
    """
    while 4 * h <= stop:
        q = a.reshape(-1, 4, h, width)
        x0, x1, x2, x3 = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
        s01, d01, s23, d23 = x0 + x1, x0 - x1, x2 + x3, x2 - x3
        np.add(s01, s23, x0)
        np.subtract(s01, s23, x2)
        np.add(d01, d23, x1)
        np.subtract(d01, d23, x3)
        h *= 4
    if 2 * h <= stop:
        q = a.reshape(-1, 2, h, width)
        x0, x1 = q[:, 0], q[:, 1]
        s01 = x0 + x1
        np.subtract(x0, x1, x1)
        x0[...] = s01


def _block(block: np.ndarray, length: int, buf: np.ndarray) -> None:
    """Every stage of a contiguous block of whole runs of the given length.

    Stages of stride below _LOW pair elements a few places apart, which
    numpy iterates slowly, so they run on a transposed copy in buf whose
    rows are contiguous; the later stages run in place.
    """
    low = min(length, _LOW)
    if low <= 4:
        _butterflies(block, 1, length)
        return
    runs = block.reshape(-1, low)
    t = buf[: runs.size].reshape(low, -1)
    np.copyto(t, runs.T)
    _butterflies(t, 1, low, t.shape[1])
    np.copyto(runs, t.T)
    _butterflies(block, low, length)


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized in-place Walsh-Hadamard transform along the last axis.

    The output is bit-identical to the textbook radix-2 butterfly (stages
    of stride 1, 2, 4, ... over the whole array): every element gets the
    same adds and subtracts in the same order, and only the schedule is
    blocked for the cache:

    * a block holds the bytes of _CHUNK 8-byte entries: chunk = _CHUNK *
      8 / itemsize elements, so the int32 count spectra take twice as
      many per block as float64 tables;
    * the array is cut into contiguous blocks of at most chunk elements
      made of whole runs of length min(size, chunk), and each block runs
      all its stages while it stays in the cache (`_block`); short
      transform axes with many rows get contiguous operands from the
      transpose, also in an array of a single block;
    * a transform axis longer than chunk then runs its remaining stages,
      which pair the blocks of one row, on column slabs of about chunk
      elements of the row viewed as (size / chunk, chunk).

    A Hadamard matmul would sum in another order and change float bits.
    """
    if not a.flags.c_contiguous:
        raise ValueError("in-place transform requires a C-contiguous array")
    size = a.shape[-1]
    if size < 2:
        return a
    chunk = _CHUNK * 8 // a.itemsize
    length = min(size, chunk)
    runs = a.reshape(-1, length)
    step = chunk // length
    buf = np.empty(min(a.size, chunk), dtype=a.dtype)
    for i in range(0, runs.shape[0], step):
        _block(runs[i : i + step], length, buf)
    if size > chunk:
        blocks = size // chunk
        width = max(1, chunk // blocks)
        for row in a.reshape(-1, blocks, chunk):
            for j in range(0, chunk, width):
                _butterflies(row[:, j : j + width], 1, blocks, width)
    return a


def wht_full(f: FunctionTable) -> np.ndarray:
    """Full spectrum: entry at index(eta) is E_x[f(x) * (-1)^<x, eta>].

    Runs in O(n 2^n) with the cache-blocked in-place transform `_fwht`.
    """
    out = f.values.copy()
    _fwht(out)
    out /= float(f.size)
    return out


def _check_table_coset(f: FunctionTable, a: AffineSubspace) -> None:
    if f.n != a.n:
        raise DimensionMismatchError(f"table n={f.n} vs coset n={a.n}")


def restricted_coefficient(f: FunctionTable, a: AffineSubspace, eta: F2Vector) -> float:
    """Coefficient of f at eta over the coset a, by the defining mean."""
    _check_table_coset(f, a)
    if eta.n != f.n:
        raise DimensionMismatchError(f"character n={eta.n} vs table n={f.n}")
    points = a.element_array(f.n)
    signs = 1.0 - 2.0 * parity64(points & np.int64(eta.bits))
    return float((f.values[points] * signs).mean())


def _class_maps(h: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """Canonical class representatives of F2^n mod H-perp, and the map
    from each representative to its transform bucket.

    The pairing is a bijection between classes and buckets.
    """
    return _cached_class_maps(h) if h.dim <= 12 else _build_class_maps(h)


def _build_class_maps(h: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """Build both maps in O(2^dim).

    The canonical representatives are the subset sums of the unit vectors
    at the free positions of H-perp, with entry k summing those selected
    by the bits of k.  The bucket map is linear (bit i of bucket(eta) is
    <basis_i, eta>), so bucket(etas[k]) is the same subset sum of the
    generators' buckets: the span of those buckets in the same counting
    order.  Only pullback transforms read these maps; count-table
    lookups, tail averages included, read `_coset_numerator`.
    """
    perp = h.orthogonal_complement()
    etas = perp.coset_representative_array(dense_limit=h.n)
    generators = [
        sum(((row >> p) & 1) << i for i, row in enumerate(h.basis))
        for p in perp.free_positions
    ]
    return etas, _span_of_rows(generators)


@lru_cache(maxsize=512)
def _cached_class_maps(h: Subspace) -> tuple[np.ndarray, np.ndarray]:
    etas, z = _build_class_maps(h)
    etas.setflags(write=False)
    z.setflags(write=False)
    return etas, z


def _coset_transform(
    f: FunctionTable, span: np.ndarray, reps: np.ndarray
) -> tuple[np.ndarray, int]:
    """Unnormalized transforms of f over the cosets reps[r] + H, where
    span lists H in basis-coefficient counting order (`span_array`).

    The coefficient over the coset of reps[r] at eta is
    (-1)^<reps[r], eta> * T[r, bucket(eta)] / den, where bit i of
    bucket(eta) is <basis_i, eta>.  Count tables transform their integer
    numerators, so T is exact and den = denominator * 2^dim; other
    tables transform their float values and den = 2^dim.
    """
    index = reps[:, None] ^ span
    dim = span.size.bit_length() - 1
    if f.counts is None:
        table, den = f.values[index], 1 << dim
    else:
        table = f.counts[index].astype(_count_dtype(f.denominator, dim))
        den = f.denominator << dim
    del index  # one row may have 2^n entries: free the index before the transform
    _fwht(table)
    return table, den


def _count_dtype(denominator: int, dim: int) -> type:
    """Narrowest exact integer type for transforms of 2^dim counts.

    Every entry of such a transform, and every partial sum its butterfly
    stages form, is a signed sum of at most 2^dim counts in
    [0, denominator] (FunctionTable validates that range), so its
    magnitude is at most denominator * 2^dim: int32 holds it when that
    is below 2^31.  The same bound covers a transform over any
    2^c entries of a full spectrum, which sums the counts of a coset.
    """
    bound = denominator << dim
    if bound < 1 << 31:
        return np.int32
    if bound < 1 << 63:
        return np.int64
    raise OverflowError(f"transform of 2^{dim} counts over {denominator} exceeds int64")


def _count_spectrum(f: FunctionTable) -> np.ndarray:
    """Exact integer transform of a count table's counts over all of F2^n."""
    return _fwht(f.counts.astype(_count_dtype(f.denominator, f.n)))


def _signed(values: np.ndarray, reps: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Multiply values by (-1)^<rep, eta> in place (reps and etas broadcast).

    A product with +-1 is exact and flips float signs as negation does.
    (numpy 2.4 computes `np.negative(..., where=)` wrongly in place on
    some strided views of 4-byte types, such as an int32 column.)
    """
    signs = 1 - 2 * (np.bitwise_count(reps & etas) & 1).astype(np.int8)
    return np.multiply(values, signs, out=values)


def _top_bits(rows: np.ndarray) -> np.ndarray:
    """Position of the highest set bit of each positive entry (below 2^53,
    where float64 holds it exactly)."""
    return (np.frexp(rows)[1] - 1).astype(np.int64)


def _dual_table(spectrum: np.ndarray, duals: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Numerators of every coset of B subspaces H at chosen characters,
    read from the full transform of a count table through their duals.

    duals is a (B, c) stack of bases of D = H-perp in top-pivot echelon
    form (`_echelon_stack(..., top=True)`): row i has the highest set bit
    t_i, ascending in i, and no other row has bit t_i.  classes (1, K)
    or (B, K) lists K characters for every subspace of the stack: any
    members of F2^n, trivial ones (0 and members of D) and several
    members of one class included.  For each character eta, gathering
    spectrum[eta ^ u] over u in span(D) and running one size-2^c
    transform gives 2^c times the numerator at eta of every coset at once
    (Poisson summation): entry j belongs to the coset whose
    representative carries the bits of j at t_1..t_c, which is H's j-th
    canonical representative.  The table is class-major, (2^c, B, K), so
    every butterfly stage pairs contiguous rows of B * K entries: [j, b, k]
    is 2^c times the numerator of coset j of subspace b at its k-th
    character.  The entries and every partial sum of the transform are
    at most denominator * 2^n in magnitude: exact in the spectrum's dtype.
    """
    table = spectrum[_span_stack(duals, classes)]
    # held through the butterflies, the (B, K) classes slowed the lower-bound
    # walk by about a third (heap reuse of its many stack-sized arrays)
    del classes
    _butterflies(table, 1, 1 << duals.shape[1], table.shape[1] * table.shape[2])
    return table


def _dual_worst(
    spectrum: np.ndarray, duals: np.ndarray, units: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each coset's worst nontrivial class for B subspaces H of
    codimension c, given by their duals as in `_dual_table`.

    units (B, n - c) holds, per subspace, ascending unit vectors whose
    subset sums in counting order are one rep of every class mod H-perp,
    ascending.  They are read in chunks of `_block_rows(c)` per subspace
    (a span of the low units XOR a subset of the high ones), skipping
    class 0; a later class wins only when strictly larger, so ties go to
    the smallest rep, as in the float scan.  Returns (B, 2^c) arrays: 2^c
    times the largest nontrivial magnitude, the signed entry there, and
    its class rep; all three are -1 when H = 0.
    """
    count, c = duals.shape
    bits = _block_rows(c).bit_length() - 1
    low, high = _span_stack(units[:, :bits]).T, _span_stack(units[:, bits:])
    state = None
    for k in range(high.shape[0]):
        if k:  # chunk k is the low span XOR high[k], formed in place (high[0] = 0)
            low ^= (high[k] ^ high[k - 1])[:, None]
        classes = low if k else low[:, 1:]
        if not classes.size:
            continue
        table = _dual_table(spectrum, duals, classes).reshape(-1, classes.shape[1])
        col = np.abs(table).argmax(axis=1)
        entry = np.take(table, col + np.arange(0, table.size, classes.shape[1]))
        rep = np.take(classes, (col.reshape(-1, count) + classes.shape[1] * np.arange(count)).ravel())
        chunk = (np.abs(entry), entry, rep)
        if state is None:  # the first chunk: no allocation for a state it would overwrite
            state = chunk
            continue
        better = chunk[0] > state[0]
        for old, new in zip(state, chunk):
            np.copyto(old, new, where=better)
    if state is None:  # H = 0 has no nontrivial class
        state = np.broadcast_to(-1, (3, (1 << c) * count))
    return tuple(a.reshape(1 << c, count).T for a in state)


def _coset_numerator(
    spectrum: np.ndarray, h: Subspace, reps: "int | np.ndarray", etas: "int | np.ndarray"
) -> "np.integer | np.ndarray":
    """Numerators of the cosets reps + H at the characters etas, read from
    a count table's full transform: one `_dual_table` on H's duals at the
    (1, K) classes etas, whose row for a coset carries its canonical
    representative's bits at H's free positions (the top bits of H's
    duals).  reps is one canonical representative, an int, or an int64
    array of them; etas is one character for every rep, or an int64
    array of K characters, one per rep."""
    etas = np.asarray(etas, dtype=np.int64)
    table = _dual_table(spectrum, np.array([h._dual_rows()], np.int64), etas.reshape(1, -1))
    j = sum((((reps >> p) & 1) << k for k, p in enumerate(h.free_positions)), reps & 0)
    return table[j, 0, np.arange(etas.size).reshape(etas.shape)] >> (h.n - h.dim)


def restricted_spectrum(f: FunctionTable, a: AffineSubspace) -> CosetSpectrum:
    """All class coefficients of f over the coset a at once.

    Pulls f back through the basis parameterization of the coset and
    runs one size-2^dim transform; count tables give the correctly
    rounded exact ratio.
    """
    _check_table_coset(f, a)
    h = a.subspace
    rep = np.int64(a.representative.bits)
    table, den = _coset_transform(f, h.span_array(f.n), rep[None])
    etas, z = _class_maps(h)
    values = table[0, z].astype(np.float64, copy=False)
    values /= den
    return CosetSpectrum(coset=a, class_reps=etas, coefficients=_signed(values, rep, etas))


def _check_table_subspace(f: FunctionTable, h: Subspace) -> None:
    """h must live in the table's F2^n."""
    if f.n != h.n:
        raise DimensionMismatchError(f"table n={f.n} vs subspace n={h.n}")


def _pullback_reps(f: FunctionTable, h: Subspace) -> np.ndarray:
    """Coset representatives of h, which must live in the table's F2^n;
    a full pullback then has the table's 2^n entries."""
    _check_table_subspace(f, h)
    return h.coset_representative_array(f.n)


def _threshold(eps: Fraction, den: int) -> int:
    """floor(eps * den), exact: an integer numerator over den exceeds eps
    exactly when it exceeds this bound."""
    return eps.numerator * den // eps.denominator


def _report(
    h: Subspace,
    eps: Fraction,
    reps: np.ndarray,
    irregular: np.ndarray,
    witness_etas: np.ndarray,
    witness_values: np.ndarray,
) -> RegularityReport:
    """The report of h at eps with the given irregular coset mask and
    the witnesses of the irregular cosets, in coset order."""
    total = reps.shape[0]
    return RegularityReport(
        subspace=h,
        epsilon=eps,
        total_cosets=total,
        regular_cosets=int(total - irregular.sum()),
        witness_reps=reps[irregular],
        witness_etas=witness_etas,
        witness_values=witness_values,
    )


def _block_rows(dim: int) -> int:
    """Cosets of 2^dim entries per block of a scan: at most _CHUNK
    entries, or one coset when a coset is larger.  Float scans gather
    the block class-major when it holds more than _LOW cosets."""
    return max(1, _CHUNK >> dim)


def _regularity_scan(
    f: FunctionTable, h: Subspace, eps: Fraction, reps: np.ndarray
) -> RegularityReport:
    """Regularity report of a float table on h at eps over the cosets
    reps[r] + H, a block of R cosets at a time (`_block_rows`); only
    per-coset results outlive a block.

    The block's transform t is class-major, (2^dim, R), with column r
    the coset of reps[r].  When R > _LOW it is gathered in that layout,
    the transpose of the pullback rows, and its butterflies pair whole
    contiguous rows of R entries: each column gets the same adds in the
    same order as a row transform, so the floats are unchanged.  With
    fewer cosets per block such rows are too short for numpy, and t is
    the transposed view of the row-major `_coset_transform`.  Each
    column's largest nontrivial magnitude, a reduction across the rows
    t[1:], is compared with eps * 2^dim, and only irregular columns are
    copied, in class order, to find their worst class: the first class
    whose magnitude equals that column maximum, so the largest
    magnitude with the smallest rep on ties.
    """
    irregular = np.zeros(reps.shape[0], dtype=bool)
    witness_etas, witness_values = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    span, step, z = h.span_array(f.n), _block_rows(h.dim), None
    den = 1 << h.dim
    # the zero subspace has no nontrivial class: every coset is regular
    for start in range(0, reps.shape[0] if h.dim else 0, step):
        block = reps[start : start + step]
        if step > _LOW:
            t = f.values[span[:, None] ^ block]
            _butterflies(t, 1, t.shape[0], t.shape[1])
        else:
            t = _coset_transform(f, span, block)[0].T
        # each column's largest nontrivial magnitude, without an abs copy
        largest = np.maximum(t[1:].max(axis=0), -t[1:].min(axis=0))
        bad = largest > float(eps) * den
        irregular[start : start + step] = bad
        cols = np.flatnonzero(bad)
        if cols.size:
            if z is None:
                etas, z = _class_maps(h)
            magnitudes = t[z[1:, None], cols]
            hits = np.abs(magnitudes, out=magnitudes) == largest[cols]
            worst = np.argmax(hits, axis=0) + 1
            witness_etas.append(etas[worst])
            witness_values.append(_signed(t[z[worst], cols] / den, block[cols], etas[worst]))
        del t  # before the next block is gathered
    return _report(
        h, eps, reps, irregular, np.concatenate(witness_etas), np.concatenate(witness_values)
    )


def _dual_report(
    h: Subspace, eps: Fraction, spectrum: np.ndarray, denominator: int
) -> RegularityReport:
    """Regularity report of a count table on h at eps from its full
    integer transform (`_count_spectrum`), for `check_subspace_regularity`
    and each decomposition round: `_dual_worst` on the one-subspace stack,
    over the canonical class reps (the subset sums of the unit vectors at
    the free positions of H-perp, as `_class_maps(h)` lists them).
    """
    c = h.n - h.dim
    duals = np.array([h._dual_rows()], np.int64)
    units = np.array([[1 << p for p in h.orthogonal_complement().free_positions]], np.int64)
    best, value, worst = (a[0] for a in _dual_worst(spectrum, duals, units))
    den = denominator << h.dim
    # H = 0 has no nontrivial class, so its cosets are regular at any eps
    irregular = (best >> c > _threshold(eps, den)) & (h.dim > 0)
    # the reps, 2^c entries, are built once the verdict's temporaries are freed
    reps = h.coset_representative_array(h.n)
    return _report(h, eps, reps, irregular, worst[irregular], (value[irregular] >> c) / den)


def check_subspace_regularity(
    f: FunctionTable, h: Subspace, epsilon: "float | str | Fraction"
) -> RegularityReport:
    """Scan every coset of h and report the regularity verdict at eps:
    exact, from the integer transform, on count tables (`_dual_report`),
    and from the pullback on float tables (`_regularity_scan`)."""
    eps = as_fraction(epsilon)
    if f.counts is None:
        return _regularity_scan(f, h, eps, _pullback_reps(f, h))
    _check_table_subspace(f, h)
    return _dual_report(h, eps, _count_spectrum(f), f.denominator)
