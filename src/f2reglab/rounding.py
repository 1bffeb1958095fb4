"""Randomized rounding of bounded tables to binary tables.

Rounding sets S(x) = 1 with probability f(x), independently per point,
from a counter-based stream keyed by (seed, x): the draw at x is a pure
hash, so the rounded table is reproducible, replayable pointwise, and
independent of evaluation order.  Hoeffding's inequality makes restricted
coefficients of S track those of f within tau on every coset of size at
least 4 n^2 / tau^2 except with probability 2 exp(-tau^2 |A| / 2) per
(coset, character) pair, which at the sizes scanned here is negligible.

Deviation reports read the coefficients of a rounded table exactly: one
full integer transform of its 0/1 counts serves every pair, each by a
Poisson-sum lookup of 2^codim entries and codim butterfly stages
(`fourier._coset_numerator`, one `_dual_table` entry).  A float source
table keeps the defining mean over the coset's gathered values, in the
same summation order as a one-array mean, so report bytes do not depend
on the path.  It is gathered per coset, not per pair: every character
on a coset reads the same gathered chunks of a few grid rows of 2^12
points, each row summed on its own, and since numpy sums a 2^d array
pairwise by halving, the row sums added by a halving tree are that same
sum.

Memory, beside the tables the caller holds: `round_to_binary` holds
only what it returns, the uint8 counts and their float64 values (9
bytes a point), since it draws _CHUNK_POINTS counters at a time and
compares each chunk straight into the counts.  `deviation_report` holds
one integer transform of the rounded counts (4 bytes a point below
n = 31) while it reads the lookups, then a few gathered chunks of about
_CHUNK_POINTS points and at most _SIGN_ENTRIES low-half signs per coset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import (
    FunctionTable,
    _coset_numerator,
    _count_spectrum,
)
from .gf2 import (
    AffineSubspace,
    DimensionMismatchError,
    F2Vector,
    Subspace,
    _cached_span,
    _checked_bits,
    _span_of_rows,
    parity64,
)
from .rng import Stream, keyed_uniforms

_ROUNDING_TAG = "rounding"
# Basis rows in the inner, contiguous factor of a gathered coset.
_SPLIT = 12
# Points gathered at once: whole grid rows, sized to stay in cache.
_CHUNK_POINTS = 1 << 15
# Low-half sign entries held at once for the characters of one coset.
_SIGN_ENTRIES = 1 << 18


def round_to_binary(f: FunctionTable, seed: int) -> FunctionTable:
    """Round each point to {0, 1} with expectation f(x), keyed by (seed, x).

    The draws are made _CHUNK_POINTS counters at a time, each chunk
    compared straight into the one uint8 counts array, so the only
    full-size arrays are the counts and the table's float values.
    """
    counts = np.empty(f.size, dtype=np.uint8)
    for start in range(0, f.size, _CHUNK_POINTS):
        stop = min(start + _CHUNK_POINTS, f.size)
        draws = keyed_uniforms(seed, _ROUNDING_TAG, np.arange(start, stop, dtype=np.uint64))
        np.less(draws, f.values[start:stop], out=counts[start:stop])
    return FunctionTable.from_counts(f.n, counts, 1)


def round_point(f: FunctionTable, seed: int, x: int) -> int:
    """Replay the rounding decision at a single point."""
    draw = keyed_uniforms(seed, _ROUNDING_TAG, np.array([x], dtype=np.uint64))[0]
    return int(draw < f.values[x])


@dataclass(frozen=True)
class PairRecord:
    """One scanned (coset, character) pair and its coefficient deviation."""

    basis: tuple[int, ...]
    representative: int
    eta: int
    size: int
    f_value: float
    s_value: float

    @property
    def deviation(self) -> float:
        return abs(self.s_value - self.f_value)


@dataclass(frozen=True, eq=False)
class RoundingReport:
    """Deviation scan of a rounded table against its source.

    Pairs below the size threshold 4 n^2 / tau^2 are skipped (counted in
    skipped_small); exceedances are indices of records whose deviation
    is above tau.  Exceedances are report content, not errors: the
    guarantee is probabilistic.
    """

    n: int
    tau: float
    seed: int | None
    threshold_size: float
    records: tuple[PairRecord, ...]
    skipped_small: int

    @property
    def max_deviation(self) -> float:
        return max((r.deviation for r in self.records), default=0.0)

    @property
    def exceedances(self) -> tuple[int, ...]:
        return tuple(k for k, r in enumerate(self.records) if r.deviation > self.tau)

    @property
    def union_bound_pairs_log2(self) -> int:
        """log2 of the crude count of (coset, character) pairs, n^2 + n."""
        return self.n * self.n + self.n

    @property
    def ok(self) -> bool:
        return not self.exceedances


def size_threshold(n: int, tau: float) -> float:
    """The smallest coset size a deviation scan keeps, 4 n^2 / tau^2;
    tau must be finite and positive."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    return 4.0 * n * n / (tau * tau)


def _signs(points: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Row k: the +-1 signs of the points under character etas[k]."""
    return 1.0 - 2.0 * parity64(points & etas[:, None])


def _gathered_coefficients(
    tables: "list[FunctionTable]", kept: "list[tuple[AffineSubspace, int]]"
) -> np.ndarray:
    """Defining means of the tables over the kept pairs, shape (pairs, tables).

    Pairs are grouped per coset, and each coset is gathered once for a
    batch of its characters.  A coset's points, in `element_array`
    order, form a grid: row i is the span of its first _SPLIT basis rows
    xored with entry i of the span of the rest (plus the
    representative), so a point's sign is its row's high-half sign times
    its column's low-half sign.  Rows are gathered _CHUNK_POINTS at a time; each character
    multiplies the chunk by its low-half signs and sums it per row; its
    row sums are multiplied by its high-half signs and added by a
    halving tree.  numpy sums a contiguous 2^d array pairwise, halving
    it down to 128-entry blocks, so each 2^_SPLIT-point row is one
    subtree of that sum and the tree over the rows is the rest of it.
    A +-1 factor commutes with a rounded sum up to the sign of a zero,
    which `initial=0.0` and the final `0.0 +` normalise as the one-array
    mean's zero start does: every coefficient has the bits of the
    defining mean.  A batch's low-half signs hold at most _SIGN_ENTRIES
    entries (64 characters of a coset of dim >= _SPLIT), so memory does
    not grow with the number of pairs on one coset.
    """
    groups: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for k, (coset, _) in enumerate(kept):
        key = (coset.subspace.basis, coset.representative.bits)
        groups.setdefault(key, []).append(k)
    out = np.empty((len(kept), len(tables)))
    for (basis, rep), members in groups.items():
        high = _span_of_rows(basis[_SPLIT:]) ^ np.int64(rep)
        low = _cached_span(basis[:_SPLIT])
        step = max(1, _CHUNK_POINTS // low.size)
        batch = max(1, _SIGN_ENTRIES // low.size)
        shared = np.empty((min(step, high.size), low.size)) if len(members) > 1 else None
        for b in range(0, len(members), batch):
            ks = members[b : b + batch]
            etas = np.array([kept[k][1] for k in ks], dtype=np.int64)
            low_signs = _signs(low, etas)
            sums = np.empty((len(ks), len(tables), high.size))
            for i in range(0, high.size, step):
                points = np.bitwise_xor.outer(high[i : i + step], low)
                for j, t in enumerate(tables):
                    # a fresh chunk: with out=, take's bounds-checking mode
                    # would gather into a copy of out and copy back
                    gathered = np.take(t.values, points)
                    # one character multiplies in place; more share a buffer
                    signed = gathered if len(ks) == 1 else shared[: len(gathered)]
                    for c, row_signs in enumerate(low_signs):
                        np.multiply(gathered, row_signs, out=signed)
                        np.add.reduce(signed, axis=1, initial=0.0, out=sums[c, j, i : i + step])
            sums *= _signs(high, etas)[:, None, :]
            while sums.shape[2] > 1:
                sums = sums[:, :, 0::2] + sums[:, :, 1::2]
            out[ks] = (0.0 + sums[:, :, 0]) / (high.size * low.size)
    return out


def deviation_report(
    f: FunctionTable,
    s: FunctionTable,
    tau: float,
    pairs: "list[tuple[AffineSubspace, F2Vector | int]]",
    seed: int | None = None,
) -> RoundingReport:
    """Compare restricted coefficients of f and s over explicit pairs.

    Each coefficient is the float mean of f(x) (-1)^<x, eta> over the
    coset, with the bits of the defining mean, along one of two paths:

    * a 0/1 count table (denominator 1, as `round_to_binary` returns)
      is transformed once, and each pair's integer numerator is read
      from that transform by Poisson summation (`_coset_numerator`:
      the coset's entry in `_dual_table` at the pair's character).
      The mean of 0/+-1 products is an exactly summed integer over the
      coset size, so numerator / size is the same float (and never
      -0.0, as the mean is not);
    * any other table is gathered per coset: the pairs that share a
      coset (the same subspace and canonical representative) share its
      gathers, a few 2^12-point grid rows at a time (about 2^15 points,
      so a chunk stays in cache).  Each character sums each row's
      signed values and adds the row sums by a halving tree: the same
      products, added in the same order as the pairwise sum of the
      one-array mean, so the same float (`_gathered_coefficients` gives
      the argument).

    Records come back in the order of the pairs kept.

    Pairs must live in F2^n with characters below 2^n, and tau must be
    finite and positive; every pair is checked before any work.
    """
    if f.n != s.n:
        raise DimensionMismatchError(f"table dimensions differ: {f.n} vs {s.n}")
    tau = float(tau)
    threshold = size_threshold(f.n, tau)
    kept: list[tuple[AffineSubspace, int]] = []
    skipped = 0
    for coset, eta in pairs:
        if coset.n != f.n:
            raise DimensionMismatchError(f"coset n={coset.n} vs table n={f.n}")
        eta_bits = _checked_bits(eta, f.n, "character")
        if coset.size < threshold:
            skipped += 1
            continue
        kept.append((coset, eta_bits))

    tables = (f, s)
    lookup = [j for j, t in enumerate(tables) if t.denominator == 1]
    gather = [j for j, t in enumerate(tables) if t.denominator != 1]
    values = np.empty((len(kept), 2))
    if kept:
        for j in lookup:
            spectrum = _count_spectrum(tables[j])
            values[:, j] = [
                _coset_numerator(spectrum, c.subspace, c.representative.bits, eta) / c.size
                for c, eta in kept
            ]
            del spectrum  # held through the gather, it raised peak RSS at n = 20 by 8 MB
        if gather:
            values[:, gather] = _gathered_coefficients([tables[j] for j in gather], kept)
    records = tuple(
        PairRecord(
            basis=coset.subspace.basis,
            representative=coset.representative.bits,
            eta=eta,
            size=coset.size,
            f_value=float(f_value),
            s_value=float(s_value),
        )
        for (coset, eta), (f_value, s_value) in zip(kept, values)
    )
    return RoundingReport(
        n=f.n,
        tau=tau,
        seed=seed,
        threshold_size=threshold,
        records=records,
        skipped_small=skipped,
    )


def sample_pairs(
    n: int,
    count: int,
    seed: int,
    max_codim: int,
) -> list[tuple[AffineSubspace, F2Vector]]:
    """Seeded random (coset, character) pairs with codimension <= max_codim.

    count and max_codim must not be negative, and max_codim must be at
    most n: no subspace of F2^n has a larger codimension, so its draws
    would be retried forever.  Each is checked before any draw.
    """
    if count < 0:
        raise ValueError(f"count of pairs must be >= 0, got {count}")
    if max_codim < 0:
        raise ValueError(f"max_codim must be >= 0, got {max_codim}")
    if max_codim > n:
        raise ValueError(
            f"max_codim {max_codim} exceeds n = {n}: "
            f"no subspace of F2^{n} has that codimension"
        )
    stream = Stream(seed, "rounding/pairs")
    pairs: list[tuple[AffineSubspace, F2Vector]] = []
    while len(pairs) < count:
        codim = stream.below(max_codim + 1)
        h = Subspace.annihilator(n, [stream.bits(n) for _ in range(codim)])
        if h.dim != n - codim:
            continue
        rep = F2Vector(n, stream.bits(n))
        eta = F2Vector(n, stream.bits(n))
        pairs.append((AffineSubspace(h, rep), eta))
    return pairs
