"""Exact linear algebra over F2 with int-bitset vectors.

Vectors of F2^n are Python ints used as bitsets: coordinate j (1-based)
is bit j-1, so coordinate 1 is the least significant bit and the bitset
itself is the canonical integer encoding of the vector.  Subspaces are
kept in reduced row echelon form with pivots at the lowest set bit of
each row, strictly increasing, and pivot columns cleared from all other
rows; this makes every Subspace representation canonical, so equality
of spans is equality of basis tuples.

Dense operations (materializing all 2^k cosets or points) refuse to run
above a configurable limit instead of attempting huge allocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np


DEFAULT_DENSE_LIMIT = 26


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class DenseLimitError(RuntimeError):
    """A dense enumeration would exceed the configured memory guard."""


def check_dense(k: int, dense_limit: int = DEFAULT_DENSE_LIMIT, what: str = "objects") -> None:
    """Refuse to materialize 2**k objects when k exceeds the guard."""
    if k > dense_limit:
        raise DenseLimitError(
            f"materializing 2^{k} {what} exceeds the dense limit 2^{dense_limit}"
        )


def parity(x: int) -> int:
    """Parity of the popcount of x (inner product helper)."""
    return x.bit_count() & 1


def parity64(a: np.ndarray) -> np.ndarray:
    """Elementwise popcount parity of a non-negative int64/uint64 array."""
    return (np.bitwise_count(a) & 1).astype(np.int64)


@dataclass(frozen=True)
class F2Vector:
    """An element of F2^n (also used for characters of F2^n)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"ambient dimension must be positive, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"encoding {self.bits} out of range for n={self.n}")

    @classmethod
    def from_string(cls, coords: str) -> "F2Vector":
        """Build from a coordinate string x1 x2 ... xn (left to right)."""
        bits = 0
        for j, c in enumerate(coords):
            if c not in "01":
                raise ValueError(f"coordinate string must be over 0/1, got {coords!r}")
            bits |= (c == "1") << j
        return cls(len(coords), bits)

    def __repr__(self) -> str:
        return f"F2Vector({self.n}, 0b{self.bits:0{self.n}b})"


def _as_bits(v: "F2Vector | int") -> int:
    return v.bits if isinstance(v, F2Vector) else int(v)


def _checked_bits(v: "F2Vector | int", n: int, what: str) -> int:
    """The encoding of v, after checking that it lives in a table's F2^n."""
    if isinstance(v, F2Vector):
        if v.n != n:
            raise DimensionMismatchError(f"{what} n={v.n} vs table n={n}")
        return v.bits
    bits = int(v)
    if not 0 <= bits < (1 << n):
        raise ValueError(f"{what} {bits} out of range for n={n}")
    return bits


def _complement(rows_by_pivot: "dict[int, int]", n: int) -> list[int]:
    """The complement of a reduced echelon basis of F2^n given by pivot,
    {p_i: r_i}: the rows e_j plus bit_j(r_i) e_{p_i} over every i, for
    each non-pivot j, ascending; `_perp_stack` is the stacked form and
    gives the argument and the echelon forms of the result."""
    return [
        (1 << j) | sum(((r >> j) & 1) << p for p, r in rows_by_pivot.items())
        for j in range(n)
        if j not in rows_by_pivot
    ]


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


def _echelon_rows(rows: Iterable[int], top: bool = False) -> tuple[int, ...]:
    """Reduced row echelon basis of the span, by ascending pivot: the
    pivot is the lowest set bit, or with top=True the highest."""
    pivot_rows: dict[int, int] = {}
    for row in rows:
        v = row
        for p, r in pivot_rows.items():
            if (v >> p) & 1:
                v ^= r
        if v == 0:
            continue
        p = (v.bit_length() if top else (v & -v).bit_length()) - 1
        for q, r in pivot_rows.items():
            if (r >> p) & 1:
                pivot_rows[q] = r ^ v
        pivot_rows[p] = v
    return tuple(pivot_rows[p] for p in sorted(pivot_rows))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of F2^n in canonical reduced row echelon form."""

    n: int
    basis: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"ambient dimension must be positive, got {self.n}")
        canonical = _echelon_rows(self.basis)
        if canonical != self.basis:
            raise ValueError("basis is not in canonical echelon form; use from_vectors")
        self._check_range()

    def _check_range(self) -> None:
        # rows are ordered by lowest set bit, not by value, so check each
        if not all(0 < row < 1 << self.n for row in self.basis):
            raise ValueError("basis row out of range for ambient dimension")

    @classmethod
    def _from_echelon(cls, n: int, basis: tuple[int, ...]) -> "Subspace":
        """Wrap a basis already in canonical echelon form without the
        re-echelonization of __post_init__ (the range checks stay)."""
        if n <= 0:
            raise ValueError(f"ambient dimension must be positive, got {n}")
        h = object.__new__(cls)
        object.__setattr__(h, "n", n)
        object.__setattr__(h, "basis", basis)
        h._check_range()
        return h

    @classmethod
    def from_vectors(cls, n: int, vectors: Iterable["F2Vector | int"]) -> "Subspace":
        rows = []
        for v in vectors:
            if isinstance(v, F2Vector) and v.n != n:
                raise DimensionMismatchError(f"vector n={v.n} in ambient n={n}")
            rows.append(_as_bits(v))
        return cls._from_echelon(n, _echelon_rows(rows))

    @classmethod
    def annihilator(cls, n: int, rows: Iterable[int]) -> "Subspace":
        """All x in F2^n with <x, r> = 0 for every one of the rows (vectors
        of F2^n as ints): the orthogonal complement of their span.

        The rows are reduced to the top-pivot echelon form of their span,
        whose `_complement` is the canonical basis.  Only the rows are
        echelonized, not the n - rank rows of the result.
        """
        duals = _echelon_rows(rows, top=True)
        return cls._from_echelon(n, tuple(_complement({d.bit_length() - 1: d for d in duals}, n)))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, ())

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls._from_echelon(n, tuple(1 << j for j in range(n)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def index(self) -> int:
        """Number of cosets, 2^(n - dim)."""
        return 1 << (self.n - self.dim)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple((r & -r).bit_length() - 1 for r in self.basis)

    @property
    def free_positions(self) -> tuple[int, ...]:
        piv = set(self.pivots)
        return tuple(j for j in range(self.n) if j not in piv)

    def _check_ambient(self, other: "Subspace | F2Vector") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"n mismatch: {self.n} vs {other.n}")

    def reduce(self, v: "F2Vector | int") -> int:
        """Canonical coset representative of v: all pivot coordinates zeroed."""
        if isinstance(v, F2Vector):
            self._check_ambient(v)
        x = _as_bits(v)
        for p, r in zip(self.pivots, self.basis):
            if (x >> p) & 1:
                x ^= r
        return x

    def contains(self, v: "F2Vector | int") -> bool:
        return self.reduce(v) == 0

    def orthogonal_complement(self) -> "Subspace":
        """All characters vanishing on this subspace."""
        return Subspace.annihilator(self.n, self.basis)

    def _dual_rows(self) -> list[int]:
        """The orthogonal complement's basis in top-pivot echelon form
        (`_complement` of the basis at its pivots)."""
        return _complement(dict(zip(self.pivots, self.basis)), self.n)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Exact intersection via duals: (H1^perp + H2^perp)^perp."""
        self._check_ambient(other)
        return Subspace.annihilator(self.n, self._dual_rows() + other._dual_rows())

    def coset_representative_array(
        self, dense_limit: int = DEFAULT_DENSE_LIMIT
    ) -> np.ndarray:
        """Canonical coset representatives as an ascending int64 array:
        the subset sums of the unit vectors at the free positions, entry k
        summing those selected by the bits of k.

        The returned array is read-only (it may be shared by a cache).
        """
        k = self.n - self.dim
        check_dense(k, dense_limit, "coset representatives")
        if self.n > 62:
            raise DenseLimitError("dense arrays require ambient dimension <= 62")
        if k <= 12:
            return _cached_scatter(self.free_positions)
        return _frozen_span([1 << p for p in self.free_positions])

    def span_array(self, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
        """All 2^dim elements, ordered by basis-coefficient counting.

        The returned array is read-only (it may be shared by a cache).
        """
        check_dense(self.dim, dense_limit, "subspace elements")
        if self.n > 62:
            raise DenseLimitError("dense arrays require ambient dimension <= 62")
        if self.dim <= 12:
            return _cached_span(self.basis)
        return _frozen_span(self.basis)

    def __repr__(self) -> str:
        return f"Subspace(n={self.n}, dim={self.dim}, basis={[bin(r) for r in self.basis]})"


@dataclass(frozen=True)
class AffineSubspace:
    """A coset H + g, with the representative canonicalized modulo H."""

    subspace: Subspace
    representative: F2Vector = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        rep = self.representative
        if rep is None:
            rep = F2Vector(self.subspace.n, 0)
        elif rep.n != self.subspace.n:
            raise DimensionMismatchError(f"n mismatch: {rep.n} vs {self.subspace.n}")
        canonical = F2Vector(self.subspace.n, self.subspace.reduce(rep))
        object.__setattr__(self, "representative", canonical)

    @property
    def n(self) -> int:
        return self.subspace.n

    @property
    def size(self) -> int:
        return 1 << self.subspace.dim

    def contains(self, v: "F2Vector | int") -> bool:
        return self.subspace.reduce(_as_bits(v) ^ self.representative.bits) == 0

    def element_array(self, dense_limit: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
        """All elements of the coset as int64 encodings."""
        return self.subspace.span_array(dense_limit) ^ np.int64(self.representative.bits)


@dataclass(frozen=True)
class BlockStructure:
    """A partition of the n coordinates into consecutive blocks."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims or any(d <= 0 for d in self.dims):
            raise ValueError(f"block dims must be positive, got {self.dims}")

    @property
    def s(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return sum(self.dims)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Prefix sums D_0 = 0, D_i = d_1 + ... + d_i, built once per
        instance (the block, prefix and witness lookups read them often)."""
        return (0, *accumulate(self.dims))

    def block(self, x: "F2Vector | int", i: int) -> int:
        """Bits of block i (1-based) of x, as a d_i-bit integer."""
        lo = self.offsets[i - 1]
        return (_as_bits(x) >> lo) & ((1 << self.dims[i - 1]) - 1)

    def prefix(self, x: "F2Vector | int", i: int) -> int:
        """Bits of blocks 1..i-1 of x (the D_{i-1}-bit prefix)."""
        return _as_bits(x) & ((1 << self.offsets[i - 1]) - 1)


# Rows per array of `_echelon_bases`.
_BASES_CHUNK = 1 << 16


def _echelon_bases(n: int, d: int) -> Iterator[np.ndarray]:
    """Every d-dimensional subspace of F2^n exactly once, as (K, d) int64
    stacks of echelon bases of about _BASES_CHUNK rows each.

    Enumerates echelon normal forms: for each pivot set in
    lexicographic order, the entries of the free cells to the right of
    each pivot, counted up with cell c at bit c of the count.  Counts
    grow like 2^(d(n-d)), so the caller is responsible for choosing
    feasible (n, d).
    """
    if not 0 <= d <= n:
        raise ValueError(f"dimension {d} out of range for n={n}")
    if n > 62:
        raise DenseLimitError("dense arrays require ambient dimension <= 62")
    parts: list[np.ndarray] = []
    size = 0
    for pivots in combinations(range(n), d):
        cells = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, n)
                 if j not in pivots]
        total = 1 << len(cells)
        for start in range(0, total, _BASES_CHUNK):
            masks = np.arange(start, min(total, start + _BASES_CHUNK), dtype=np.int64)
            rows = np.empty((masks.size, d), dtype=np.int64)
            rows[:] = [1 << p for p in pivots]
            for c, (i, j) in enumerate(cells):
                rows[:, i] |= ((masks >> c) & 1) << j
            parts.append(rows)
            size += masks.size
            if size >= _BASES_CHUNK:
                yield np.concatenate(parts)
                parts, size = [], 0
    if parts:
        yield np.concatenate(parts)


def subspaces_of_dim(n: int, d: int) -> Iterator[Subspace]:
    """Every d-dimensional subspace of F2^n exactly once, in the order of
    `_echelon_bases`."""
    for rows in _echelon_bases(n, d):
        for basis in rows.tolist():
            yield Subspace._from_echelon(n, tuple(basis))


def enumerate_all_subspaces(n: int) -> Iterator[Subspace]:
    """Every subspace of F2^n exactly once, via echelon normal forms.

    The count grows like 2^(n^2/4), so this refuses n > 4.
    """
    if n > 4:
        raise DenseLimitError(f"subspace enumeration is limited to n <= 4, got {n}")
    if n <= 0:
        raise ValueError(f"ambient dimension must be positive, got {n}")
    for d in range(n + 1):
        yield from subspaces_of_dim(n, d)


def _span_stack(rows: np.ndarray, start: "np.ndarray | int" = 0) -> np.ndarray:
    """start + span of each of a (B, d) stack of basis rows, filled in place
    in one (2^d, B, ...) array: [j, b] is start[b] XOR the subset XOR of
    the rows rows[b] selected by the bits of j, filled by doubling, one
    row at a time.  start is 0, a rep per subspace (B,) or K points per
    subspace (B, K), giving (2^d, B, K).  Every span array of the package
    is built here (`_frozen_span` is the one-row call)."""
    start = np.asarray(start)
    span = np.empty((1 << rows.shape[1], rows.shape[0]) + start.shape[1:], dtype=np.int64)
    span[0] = start
    k = 1
    for row in rows.T.reshape(rows.shape[::-1] + (1,) * (start.ndim - 1)):
        np.bitwise_xor(span[:k], row, out=span[k : 2 * k])
        k *= 2
    return span


def _echelon_stack(
    rows: np.ndarray, n: int, top: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced echelon bases of a (K, m) stack of row sets, and their ranks.

    Row k of the result lists the rank[k] basis rows of the span of
    rows[k] by ascending pivot, then zero rows.  The pivot is the lowest
    set bit, so the nonzero rows are exactly `_echelon_rows(rows[k])`;
    with top=True it is the highest set bit instead.  Eliminates one bit
    position at a time across the whole stack.
    """
    rows = np.array(rows, dtype=np.int64)
    pivot = np.full(rows.shape, n, dtype=np.int64)
    for b in range(n - 1, -1, -1) if top else range(n):
        hit = ((rows >> b) & 1).astype(bool)
        candidates = hit & (pivot == n)
        k = np.flatnonzero(candidates.any(axis=1))
        if k.size == 0:
            continue
        p = candidates[k].argmax(axis=1)
        chosen = rows[k, p]
        rows[k] ^= np.where(hit[k], chosen[:, None], 0)
        rows[k, p] = chosen
        pivot[k, p] = b
    order = np.argsort(pivot, axis=1, kind="stable")
    return np.take_along_axis(rows, order, axis=1), (pivot < n).sum(axis=1)


def _frozen_span(rows: "Sequence[int] | np.ndarray") -> np.ndarray:
    """The read-only span of one basis, in `_span_stack`'s order."""
    span = _span_stack(np.array([rows], dtype=np.int64)).reshape(-1)
    span.setflags(write=False)
    return span


_cached_span = lru_cache(maxsize=512)(_frozen_span)


@lru_cache(maxsize=512)
def _cached_scatter(positions: tuple[int, ...]) -> np.ndarray:
    return _frozen_span([1 << p for p in positions])


def reduce_array(x: np.ndarray, subspace: Subspace) -> np.ndarray:
    """Vectorized canonical-representative map over an int64 array."""
    x = x.astype(np.int64, copy=True)
    for p, r in zip(subspace.pivots, subspace.basis):
        mask = (x >> np.int64(p)) & np.int64(1)
        x ^= mask * np.int64(r)
    return x
