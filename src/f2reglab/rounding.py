"""Randomized rounding of bounded tables to binary tables.

Rounding sets S(x) = 1 with probability f(x), independently per point,
from a counter-based stream keyed by (seed, x): the draw at x is a pure
hash, so the rounded table is reproducible, replayable pointwise, and
independent of evaluation order.  Hoeffding's inequality makes restricted
coefficients of S track those of f within tau on every coset of size at
least 4 n^2 / tau^2 except with probability 2 exp(-tau^2 |A| / 2) per
(coset, character) pair, which at the sizes scanned here is negligible.

Deviation reports read the coefficients of a rounded table exactly: one
full integer transform of its 0/1 counts serves every pair, and the
pairs on one subspace read it through one `_dual_table` at their
characters (`fourier._coset_numerator`: a Poisson-sum gather of 2^codim
entries per character and codim butterfly stages).  A float source
table keeps the defining mean over the coset's gathered values, in
exactly the additions of a one-array mean, so report bytes do not
depend on the path.  numpy sums a contiguous 2^d array pairwise: it
halves it down to 128-entry blocks, and adds each block as 8 lanes of
stride-8 chains of 16 entries, combined by a 3-level tree.  Each coset
is gathered once for all its pairs, about 2^15 points at a time.  One
character sums whole grid rows of 2^12 points, each one subtree of that
sum.  Several characters share the additions: a character's sign
splits into a lane, a chain and a block sign, the lane and block signs
factor out of every chain, so each distinct chain pattern among the
characters (at most 16) is added once per chunk, and each character
only combines the chain sums under its lane and block signs.

Memory, beside the tables the caller holds: `round_to_binary` holds
only what it returns, the uint8 counts (1 byte a point; the table
builds its float64 values only if they are read), since it draws
_CHUNK_POINTS counters at a time and compares each chunk straight into
the counts.  `deviation_report` holds one integer transform of the
rounded counts (4 bytes a point below n = 31) while it reads the
lookups, each lookup table at most _CHUNK_POINTS entries (or one
character's 2^codim), then a few gathered chunks of about _CHUNK_POINTS
points and at most _SIGN_ENTRIES block signs for the characters of one
coset.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from .fourier import (
    FunctionTable,
    _butterflies,
    _check_n,
    _coset_numerator,
    _count_spectrum,
    _restriction,
    _signs,
)
from .gf2 import (
    AffineSubspace,
    DimensionMismatchError,
    F2Vector,
    Subspace,
    _cached_span,
    _checked_bits,
    _frozen_span,
    parity64,
)
from .rng import Stream, keyed_uniforms

_ROUNDING_TAG = "rounding"
# Basis rows in the inner, contiguous factor of a coset gathered for one
# character.
_SPLIT = 12
# Basis rows of numpy's summation block (128 entries) and of its
# accumulator lanes (8, each adding a stride-8 chain of 16 entries).
_BLOCK_ROWS = 7
_LANE_ROWS = 3
# Points gathered at once, sized to stay in cache; also the entries of
# one count-table lookup table.
_CHUNK_POINTS = 1 << 15
# Block sign entries held at once for the characters of one coset.
_SIGN_ENTRIES = 1 << 16


def round_to_binary(f: FunctionTable, seed: int) -> FunctionTable:
    """Round each point to {0, 1} with expectation f(x), keyed by (seed, x).

    The draws are made _CHUNK_POINTS counters at a time, each chunk
    compared straight into the one uint8 counts array, so the only
    full-size array is the counts.
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


def _halved(sums: np.ndarray) -> np.ndarray:
    """The halving tree over the last axis (a power of two): adjacent
    entries added level by level, the order of numpy's pairwise sum."""
    while sums.shape[-1] > 1:
        sums = sums[..., 0::2] + sums[..., 1::2]
    return sums[..., 0]


def _row_sums(
    tables: "list[FunctionTable]", basis: "tuple[int, ...]", rep: int, eta: np.int64
) -> np.ndarray:
    """Signed sums of the tables over one coset under one character,
    shape (tables,).

    The coset's points, in `element_array` order, form a grid: row i is
    the span of its first _SPLIT basis rows xored with entry i of the
    span of the rest (plus the representative), so a point's sign is its
    row's high-half sign times its column's low-half sign.  Rows are
    gathered _CHUNK_POINTS at a time, multiplied in place by the
    low-half signs and summed per row; the row sums take the high-half
    signs and are added by a halving tree.  Each 2^_SPLIT-point row is
    one subtree of numpy's pairwise sum, and the tree over the rows is
    the rest of it.
    """
    high = _frozen_span(basis[_SPLIT:]) ^ np.int64(rep)
    low = _cached_span(basis[:_SPLIT])
    low_signs = _signs(low, eta)
    step = max(1, _CHUNK_POINTS // low.size)
    sums = np.empty((len(tables), high.size))
    for i in range(0, high.size, step):
        points = np.bitwise_xor.outer(high[i : i + step], low)
        for j, t in enumerate(tables):
            # a fresh chunk: with out=, take's bounds-checking mode
            # would gather into a copy of out and copy back
            gathered = np.take(t.values, points)
            gathered *= low_signs
            np.add.reduce(gathered, axis=1, initial=0.0, out=sums[j, i : i + step])
    sums *= _signs(high, eta)
    return _halved(sums)


def _lane_sums(
    tables: "list[FunctionTable]", basis: "tuple[int, ...]", rep: int, etas: np.ndarray
) -> np.ndarray:
    """Signed sums of the tables over one coset under several characters,
    shape (characters, tables).

    numpy adds a contiguous float64 array of 2^d entries by halving it
    down to 128-entry blocks; in a block, each of 8 accumulators adds a
    stride-8 chain of 16 entries in order, and the 8 are combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)).  (Below 128
    entries each chain is shorter; below 8, every row is a chain row and
    the entries are added in order.)  So the
    coset index m = k + 8i + 128b splits the basis rows into lanes k
    (rows 0-2), chain positions i (rows 3-6) and blocks b (the rest), and
    a character's sign at m is the product of a lane, a chain and a
    block sign.  A +-1 factor commutes with every rounded addition up to
    the sign of a zero, and the caller's final `0.0 +` normalises that
    as the one-array mean's zero start does; so the lane and block signs
    factor out of each chain.  Blocks are gathered _CHUNK_POINTS at a
    time in (chain, lane, block) order, one grid index for every table.
    Each distinct chain pattern among the characters (their restriction
    to the chain rows, at most 16) adds or subtracts its chain once per
    chunk.  The 8 lane patterns then come from one size-8 transform
    (`_butterflies`), whose stages pair lanes as numpy's combine does.
    Each character reads its block sums, takes its block signs and adds
    them by halving trees, within the chunk and then over the chunks.

    Characters run in batches of at most _SIGN_ENTRIES block signs, each
    batch gathering the coset again, so memory does not grow with the
    number of characters on one coset.
    """
    dim = len(basis)
    lane_stop = _LANE_ROWS if dim >= _LANE_ROWS else 0
    chain_stop = min(dim, _BLOCK_ROWS)
    block_stop = max(chain_stop, min(dim, _CHUNK_POINTS.bit_length() - 1))
    chain = _cached_span(basis[lane_stop:chain_stop])
    inner = _cached_span(basis[chain_stop:block_stop])
    outer = _frozen_span(basis[block_stop:]) ^ np.int64(rep)
    # the chunk's points are grid ^ at: one array, moved in place
    grid = chain[:, None, None] ^ _cached_span(basis[:lane_stop])[:, None] ^ inner
    at = np.int64(0)
    lanes, blocks = grid.shape[1:]
    out = np.empty((etas.size, len(tables)))
    batch = max(1, _SIGN_ENTRIES // blocks)
    for b in range(0, etas.size, batch):
        ks = etas[b : b + batch]
        patterns, which = np.unique(
            _restriction(basis[lane_stop:chain_stop], ks), return_inverse=True
        )
        subtract = parity64(patterns[:, None] & np.arange(chain.size)).astype(bool)
        rows = which * lanes + _restriction(basis[:lane_stop], ks)
        block_signs = _signs(inner, ks[:, None])
        chains = np.empty((patterns.size, lanes, blocks))
        sums = np.empty((ks.size, len(tables), outer.size))
        for o, x in enumerate(outer):
            grid ^= at ^ x
            at = x
            for j, t in enumerate(tables):
                gathered = np.take(t.values, grid)
                for acc, minus in zip(chains, subtract):
                    np.copyto(acc, gathered[0])
                    for g, m in zip(gathered[1:], minus[1:]):
                        (np.subtract if m else np.add)(acc, g, out=acc)
                _butterflies(chains.reshape(-1, blocks), 1, lanes, blocks)
                signed = chains.reshape(-1, blocks)[rows]
                signed *= block_signs
                sums[:, j, o] = _halved(signed)
        sums *= _signs(outer, ks[:, None])[:, None, :]
        out[b : b + batch] = _halved(sums)
    return out


def _gathered_coefficients(
    tables: "list[FunctionTable]", kept: "list[tuple[AffineSubspace, int]]"
) -> np.ndarray:
    """Defining means of the tables over the kept pairs, shape (pairs, tables).

    Pairs are grouped per coset (the same subspace and canonical
    representative), and each group sums the coset's signed values in
    exactly the additions of numpy's pairwise sum: one character by
    grid rows (`_row_sums`), several by sharing each chain of additions
    (`_lane_sums`, whose many short calls per chunk take about twice
    the row path's time for one character).  The final `0.0 +`
    normalises the sign of a zero as the one-array mean's zero start
    does, so every coefficient has the bits of the defining mean.
    """
    out = np.empty((len(kept), len(tables)))
    cosets = [(c.subspace.basis, c.representative.bits) for c, _ in kept]
    for (basis, rep), members in _grouped(cosets).items():
        etas = np.array([kept[k][1] for k in members], dtype=np.int64)
        if len(members) == 1:
            sums = _row_sums(tables, basis, rep, etas[0])
        else:
            sums = _lane_sums(tables, basis, rep, etas)
        out[members] = (0.0 + sums) / (1 << len(basis))
    return out


def _grouped(keys: "list[Hashable]") -> "dict[Hashable, list[int]]":
    """Indices of equal keys, grouped in first-seen order."""
    groups: dict[Hashable, list[int]] = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return groups


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
      is transformed once, and the pairs on one subspace read their
      integer numerators from that transform by Poisson summation, in
      one `_coset_numerator` call at their K characters (the cosets'
      entries of one `_dual_table` with (1, K) classes).  The mean of
      0/+-1 products is an exactly summed integer over the coset size,
      so numerator / size is the same float (and never -0.0, as the
      mean is not);
    * any other table is gathered per coset: the pairs that share a
      coset (the same subspace and canonical representative) share its
      gathers, about 2^15 points at a time so a chunk stays in cache.
      Each character's signed values are added in the same order as
      the pairwise sum of the one-array mean, so they give the same
      float; several characters on one coset share each chain of
      additions (`_gathered_coefficients` gives the argument).

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
        _check_n(f, "coset", coset.n)
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
        by_subspace = _grouped([c.subspace.basis for c, _ in kept]).values()
        for j in lookup:
            spectrum = _count_spectrum(tables[j])
            for members in by_subspace:
                h = kept[members[0]][0].subspace
                step = max(1, _CHUNK_POINTS >> (h.n - h.dim))
                for b in range(0, len(members), step):
                    ks = members[b : b + step]
                    reps = np.array([kept[k][0].representative.bits for k in ks], dtype=np.int64)
                    etas = np.array([kept[k][1] for k in ks], dtype=np.int64)
                    values[ks, j] = _coset_numerator(spectrum, h, reps, etas) / (1 << h.dim)
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
