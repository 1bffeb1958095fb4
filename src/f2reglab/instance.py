"""Tower-type lower-bound instances.

The construction partitions the n coordinates into s blocks whose sizes
grow as an iterated exponential: d_1 = 1, d_j = 2^(D_{j-1}) for j <= 3,
and d_j = 2^(D_{j-1} - 3) for j >= 4, where D_i is the prefix sum.  The
j >= 4 case makes the index count 2^(D_{j-1}) equal exactly 8 * d_j, so
a random family of that size can be pseudo-random in the spanning sense
(no hyperplane holds more than 3/4 of it); for j <= 3 the index count
equals d_j and the family is the standard basis.

Each block i carries an indexed family xi_i of nonzero vectors in
F2^(d_i), one entry per prefix (blocks 1..i-1) value.  The instance
function counts, for each point x, how many blocks satisfy
<x^i, xi_i(prefix of x)> = 0, normalized by s, so the table is exactly
integer counts over s and stays pointwise evaluable far beyond dense
table sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fourier import FunctionTable, _fwht, as_fraction
from .gf2 import (
    DEFAULT_DENSE_LIMIT,
    BlockStructure,
    F2Vector,
    check_dense,
    parity,
)
from .rng import Stream

# Exponents above this are kept symbolic; 2^24-bit integers are the
# largest values worth materializing for exact arithmetic.
_MATERIALIZE_EXPONENT_BITS = 1 << 24


class TowerOverflowError(OverflowError):
    """A tower value too large even for the symbolic log2 form."""


class RetryLimitError(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


@dataclass(frozen=True)
class TowerValue:
    """Symbolic power of two, 2^log2, for values too large to hold."""

    log2: int

    def materialize(self, max_bits: int = _MATERIALIZE_EXPONENT_BITS) -> int:
        if self.log2 > max_bits:
            raise TowerOverflowError(f"2^{self.log2} exceeds the materialization cap")
        return 1 << self.log2

    def __ge__(self, other: "int | TowerValue") -> bool:
        if isinstance(other, TowerValue):
            return self.log2 >= other.log2
        if other <= 1:
            return True
        width = other.bit_length()
        if self.log2 >= width:
            return True
        return self.log2 == width - 1 and other == (1 << self.log2)

    def __repr__(self) -> str:
        return f"2^{self.log2}"


def tower_value(h: int) -> "int | TowerValue":
    """Iterated exponential: twr(0) = 1, twr(h) = 2^twr(h-1).

    Values are exact big integers up to h = 4, symbolic powers of two
    for h in {5, 6} (whose exponents are still exact integers), and
    refused beyond because even the exponent stops being materializable.
    """
    if h < 0:
        raise ValueError(f"tower height must be non-negative, got {h}")
    if h > 6:
        raise TowerOverflowError(f"twr({h}) exceeds the symbolic materialization cap")
    if h <= 4:
        value = 1
        for _ in range(h):
            value = 1 << value
        return value
    exponent = 65536 if h == 5 else (1 << 65536)
    return TowerValue(log2=exponent)


@dataclass(frozen=True)
class TowerParams:
    """Block layout of an instance with s blocks."""

    s: int
    dims: tuple

    @property
    def prefix_sums(self) -> tuple[int, ...]:
        """Exact prefix sums D_0..D_k up to the first symbolic dim."""
        out = [0]
        for d in self.dims:
            if isinstance(d, TowerValue):
                break
            out.append(out[-1] + d)
        return tuple(out)

    @property
    def n(self) -> int:
        sums = self.prefix_sums
        if len(sums) != self.s + 1:
            raise TowerOverflowError("total dimension is not exactly representable")
        return sums[self.s]

    @property
    def epsilon_max(self) -> Fraction:
        """Largest regularity level this many blocks is built for."""
        return Fraction(1, 16 * self.s)

    @property
    def blocks(self) -> BlockStructure:
        if any(isinstance(d, TowerValue) for d in self.dims):
            raise TowerOverflowError("block structure requires materialized dims")
        return BlockStructure(self.dims)

    def dense_possible(self, dense_limit: int = DEFAULT_DENSE_LIMIT) -> bool:
        sums = self.prefix_sums
        return len(sums) == self.s + 1 and sums[self.s] <= dense_limit

    def family_count(self, i: int) -> int:
        """Number of xi entries for block i: 2^(D_{i-1})."""
        sums = self.prefix_sums
        if i - 1 >= len(sums):
            raise TowerOverflowError(f"family count for block {i} is not materializable")
        return 1 << sums[i - 1]


def custom_params(dims: "tuple[int, ...] | list[int]") -> TowerParams:
    """Experimentation mode: arbitrary block sizes.

    Each block must have enough nonzero vectors for its index count,
    2^(D_{i-1}) <= 2^(d_i) - 1; the growth recurrence is not enforced.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"block dims must be positive, got {dims}")
    total = 0
    for i, d in enumerate(dims, start=1):
        if (1 << total) > (1 << d) - 1:
            raise ValueError(
                f"block {i} needs 2^{total} distinct nonzero vectors in F2^{d}"
            )
        total += d
    return TowerParams(s=len(dims), dims=dims)


def block_dims(s: int) -> TowerParams:
    """Block sizes for s blocks: 1, 2, 8, 256, 2^264, ...

    For j >= 4 the exponent drops by 3 so that 2^(D_{j-1}) = 8 * d_j
    exactly; dims too large to hold are returned symbolically.
    """
    if s < 1:
        raise ValueError(f"block count must be positive, got {s}")
    dims: list = [1]
    total: int | None = 1
    for j in range(2, s + 1):
        if total is None:
            raise TowerOverflowError(f"dims beyond block {j - 1} have symbolic exponents")
        exponent = total if j <= 3 else total - 3
        if exponent <= _MATERIALIZE_EXPONENT_BITS:
            d = 1 << exponent
            dims.append(d)
            total += d
        else:
            dims.append(TowerValue(log2=exponent))
            total = None
    return TowerParams(s=s, dims=tuple(dims))


@dataclass(frozen=True)
class SpanningCheck:
    """Verification result for an indexed family of nonzero vectors.

    incidence is the largest number of family members inside a single
    hyperplane (over all hyperplanes scanned); the family passes at
    threshold rho when incidence <= rho * count.
    """

    ok: bool
    count: int
    rho: Fraction
    incidence: int
    worst: F2Vector | None
    certified: bool
    samples: int | None = None


def verify_spanning_family(
    vectors: "list[F2Vector] | list[int]",
    rho: "float | str | Fraction",
    d: int | None = None,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> SpanningCheck:
    """Exhaustive hyperplane-incidence scan of an indexed family.

    Uses one exact integer size-2^d transform of the multiset frequency
    vector: the incidence of the hyperplane orthogonal to eta is
    (count + sum_j (-1)^<v_j, eta>) / 2.
    """
    rho = as_fraction(rho)
    bits = [v.bits if isinstance(v, F2Vector) else int(v) for v in vectors]
    if d is None:
        ambient = {v.n for v in vectors if isinstance(v, F2Vector)}
        if len(ambient) != 1:
            raise ValueError("pass an explicit dimension for plain-int families")
        d = ambient.pop()
    check_dense(d, dense_limit, "hyperplane scans")
    if any(not 0 < b < (1 << d) for b in bits):
        raise ValueError(f"family entries must be nonzero {d}-bit vectors")
    count = len(bits)
    freq = np.bincount(np.asarray(bits, dtype=np.int64), minlength=1 << d)
    _fwht(freq)
    incidences = (count + freq[1:]) // 2
    worst_idx = int(np.argmax(incidences)) + 1
    incidence = int(incidences[worst_idx - 1])
    return SpanningCheck(
        ok=incidence * rho.denominator <= rho.numerator * count,
        count=count,
        rho=rho,
        incidence=incidence,
        worst=F2Vector(d, worst_idx),
        certified=True,
    )


def _basis_check(count: int, d: int) -> SpanningCheck:
    """`verify_spanning_family` of the unit vectors e_1..e_count of F2^d
    at rho = 1, in closed form (count <= d).

    The hyperplane orthogonal to eta holds the units outside eta's
    support.  With count < d, an eta carried by the coordinates above
    count holds all of them, and the smallest such eta is 1 << count;
    with count == d every eta misses at least one, and eta = 1 misses
    exactly one.
    """
    incidence, worst = (count - 1, 1) if count == d else (count, 1 << count)
    return SpanningCheck(
        ok=True,
        count=count,
        rho=Fraction(1),
        incidence=incidence,
        worst=F2Vector(d, worst),
        certified=True,
    )


# The sampled check folds the family's bit columns by the method of four
# Russians (Arlazarov, Dinic, Kronrod & Faradzev 1970): one 16-entry
# lookup table per 4 eta coordinates, whose entry v is the XOR of the
# columns v selects (256 KiB at d = 256 and 2048 vectors).  Etas are drawn
# and folded _SAMPLE_CHUNK at a time, so memory is O(chunk + tables)
# whatever the sample count.
_SAMPLE_CHUNK = 1024


def _bit_columns(bits: list[int], d: int) -> np.ndarray:
    """(d, ceil(count/64)) uint64 bit columns: bit j of row b is
    coordinate b of the j-th vector.  Transposed 512 vectors at a time."""
    nbytes = -(-d // 8)
    columns = np.empty((d, -(-len(bits) // 64)), dtype=np.uint64)
    for w in range(0, columns.shape[1], 8):
        block = bits[64 * w : 64 * w + 512]
        raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in block), dtype=np.uint8)
        coords = np.zeros((d, -(-len(block) // 64) * 64), dtype=np.uint8)
        coords[:, : len(block)] = np.unpackbits(
            raw.reshape(len(block), nbytes), axis=1, count=d, bitorder="little"
        ).T
        packed = np.packbits(coords, axis=1, bitorder="little").view("<u8")
        columns[:, w : w + packed.shape[1]] = packed
    return columns


def _row_ints(rows: np.ndarray) -> list[int]:
    """Python ints of uint64 word rows, least significant word first."""
    width = rows.shape[1] * 8
    data = rows.astype("<u8").tobytes()
    return [int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width)]


def _nibble_tables(columns: np.ndarray) -> np.ndarray:
    """(2 ceil(d/8), 16, words) tables: entry v of table k is the XOR of
    the columns 4k + t over the set bits t of v (columns past d are 0)."""
    d, words = columns.shape
    padded = np.zeros((-(-d // 8) * 8, words), dtype=np.uint64)
    padded[:d] = columns
    grouped = padded.reshape(len(padded) // 4, 4, words)
    tables = np.zeros((len(grouped), 16, words), dtype=np.uint64)
    for t in range(4):
        tables[:, 1 << t : 2 << t] = tables[:, : 1 << t] ^ grouped[:, t : t + 1]
    return tables


def _outside_counts(tables: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Per eta row, the number of family vectors v with <v, eta> = 1.

    Byte k of an eta indexes the 256-entry XOR of nibble tables 2k (low
    nibble) and 2k + 1 (high nibble), built here one byte at a time, so
    each eta costs one gathered row per byte.
    """
    eta_bytes = np.ascontiguousarray(etas.astype("<u8").view(np.uint8).T)
    words = tables.shape[2]
    pair = np.empty((16, 16, words), dtype=np.uint64)
    byte_table = pair.reshape(256, words)
    fold = np.zeros((len(etas), words), dtype=np.uint64)
    for k in range(len(tables) // 2):
        np.bitwise_xor(tables[2 * k + 1][:, None], tables[2 * k][None, :], out=pair)
        fold ^= byte_table[eta_bytes[k]]
    return np.bitwise_count(fold).sum(axis=1, dtype=np.int64)


def verify_spanning_family_sampled(
    vectors: "list[F2Vector] | list[int]",
    rho: "float | str | Fraction",
    d: int,
    samples: int,
    seed: int,
) -> SpanningCheck:
    """Randomized hyperplane-incidence scan for dimensions too large to
    enumerate; the result is evidence, not a certificate.

    Draws `samples` nonzero etas from Stream(seed, "spanning/sampled"),
    in order, and counts the family vectors inside each hyperplane
    <x, eta> = 0.  incidence is the largest count and worst the first eta
    that reaches it.  The etas are drawn and folded in chunks of
    _SAMPLE_CHUNK rows (Stream.nonzero_bits_block), each fold a GF(2)
    matrix-vector product over the packed bit columns of the family, done
    by table lookups; the result equals one nonzero_bits draw and one
    column fold per sample.
    """
    rho = as_fraction(rho)
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if samples < 1:
        raise ValueError(f"a sampled check needs samples >= 1, got {samples}")
    bits = [v.bits if isinstance(v, F2Vector) else int(v) for v in vectors]
    if any(not 0 < b < (1 << d) for b in bits):
        raise ValueError(f"family entries must be nonzero {d}-bit vectors")
    count = len(bits)
    tables = _nibble_tables(_bit_columns(bits, d))
    stream = Stream(seed, "spanning/sampled")
    incidence, worst_row = -1, None
    for start in range(0, samples, _SAMPLE_CHUNK):
        etas = stream.nonzero_bits_block(d, min(_SAMPLE_CHUNK, samples - start))
        inside = count - _outside_counts(tables, etas)
        best = int(np.argmax(inside))
        if inside[best] > incidence:
            incidence, worst_row = int(inside[best]), etas[best : best + 1]
    return SpanningCheck(
        ok=incidence * rho.denominator <= rho.numerator * count,
        count=count,
        rho=rho,
        incidence=incidence,
        worst=F2Vector(d, _row_ints(worst_row)[0]),
        certified=False,
        samples=samples,
    )


def generate_spanning_family(
    d: int,
    count: int,
    rho: "float | str | Fraction",
    seed: int,
    max_retries: int = 100,
    sampled_samples: int = 10**6,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> tuple[list[F2Vector], SpanningCheck]:
    """Sample an indexed family of nonzero vectors passing the rho check,
    and return it with the check it passed.

    Draws count vectors uniformly from F2^d minus zero and verifies the
    hyperplane-incidence bound, retrying with a fresh substream until it
    passes.  Repeats are allowed: the family is indexed, not a set.  For
    d <= dense_limit the check is the exhaustive scan; above it, every
    attempt is checked against the one hyperplane sample seeded by seed
    (verify_spanning_family_sampled with samples=sampled_samples).
    """
    rho = as_fraction(rho)
    if count < d:
        raise ValueError(f"count {count} cannot span dimension {d}")
    if not Fraction(1, 2) < rho <= 1:
        raise ValueError(f"threshold must be in (1/2, 1], got {rho}")
    for attempt in range(max_retries):
        family = _row_ints(Stream(seed, f"spanning/{attempt}").nonzero_bits_block(d, count))
        if d <= dense_limit:
            check = verify_spanning_family(family, rho, d=d, dense_limit=dense_limit)
        else:
            check = verify_spanning_family_sampled(
                family, rho, d=d, samples=sampled_samples, seed=seed
            )
        if check.ok:
            return [F2Vector(d, v) for v in family], check
    raise RetryLimitError(
        f"no family of {count} vectors in F2^{d} passed rho={rho} "
        f"within {max_retries} attempts"
    )


@dataclass(frozen=True)
class XiFamily:
    """Per-block indexed families xi_i, one entry per prefix value.

    families[i-1][p] is the block-local encoding of xi_i at prefix
    encoding p; blocks 1..3 enumerate the standard basis (entry p is
    e_{p+1}), later blocks hold sampled spanning families.
    """

    blocks: BlockStructure
    families: tuple[tuple[int, ...], ...]
    seed: int
    checks: tuple[SpanningCheck, ...]

    @property
    def s(self) -> int:
        return self.blocks.s

    def entry(self, i: int, prefix: int) -> int:
        """Block-local encoding of xi_i at the given prefix encoding."""
        return self.families[i - 1][prefix]

    def entry_for(self, i: int, x: "F2Vector | int") -> int:
        """xi_i evaluated at the prefix of a full vector x."""
        return self.entry(i, self.blocks.prefix(x, i))


def build_xi(
    params: TowerParams,
    seed: int,
    max_retries: int = 100,
    sampled_samples: int = 10**6,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> XiFamily:
    """Construct all xi families for the given block layout.

    Blocks whose index count is at most the dimension get deterministic
    standard-basis prefixes (prefix p maps to e_{p+1}); wider blocks get
    sampled 3/4-spanning families.  On the canonical recurrence this
    means bases for blocks 1..3 and sampling from block 4 on, where the
    count is exactly 8 * d_i.  All 2^(D_{i-1}) entries must be
    materializable, which in practice means s <= 4.
    """
    blocks = params.blocks
    families: list[tuple[int, ...]] = []
    checks: list[SpanningCheck] = []
    for i in range(1, params.s + 1):
        d = blocks.dims[i - 1]
        count = params.family_count(i)
        check_dense(count.bit_length() - 1, dense_limit, f"xi entries for block {i}")
        if count <= d:
            family = tuple(1 << p for p in range(count))
            checks.append(_basis_check(count, d))
        else:
            vectors, check = generate_spanning_family(
                d,
                count,
                Fraction(3, 4),
                Stream(seed, f"xi/{i}").u64(),
                max_retries=max_retries,
                sampled_samples=sampled_samples,
                dense_limit=dense_limit,
            )
            family = tuple(v.bits for v in vectors)
            checks.append(check)
        families.append(family)
    return XiFamily(blocks=blocks, families=tuple(families), seed=seed, checks=tuple(checks))


def eval_count(xi: XiFamily, x: "F2Vector | int") -> int:
    """Number of blocks i with <x^i, xi_i(x)> = 0."""
    bits = x.bits if isinstance(x, F2Vector) else int(x)
    blocks = xi.blocks
    count = 0
    for i in range(1, blocks.s + 1):
        if parity(blocks.block(bits, i) & xi.entry_for(i, bits)) == 0:
            count += 1
    return count


def eval_pointwise(params: TowerParams, xi: XiFamily, x: "F2Vector | int") -> float:
    """Instance value at a single point, usable at any block count."""
    return eval_count(xi, x) / params.s


def _block_hits(blocks: BlockStructure, xi: XiFamily, i: int, points: np.ndarray) -> np.ndarray:
    """Whether <x^i, xi_i(prefix of x)> = 0, for each point x."""
    lo = blocks.offsets[i - 1]
    prefix = points & np.int64((1 << lo) - 1)
    family = np.asarray(xi.families[i - 1], dtype=np.int64)
    block_bits = (points >> np.int64(lo)) & np.int64((1 << blocks.dims[i - 1]) - 1)
    return (np.bitwise_count(block_bits & family[prefix]) & 1) == 0


def build_function_table(
    params: TowerParams,
    xi: XiFamily,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> FunctionTable:
    """Dense table of the instance function, with exact integer counts."""
    blocks = params.blocks
    n = blocks.n
    check_dense(n, dense_limit, "table entries")
    points = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros(1 << n, dtype=np.uint8)
    for i in range(1, params.s + 1):
        counts += _block_hits(blocks, xi, i, points).astype(np.uint8)
    return FunctionTable.from_counts(n, counts, params.s)


def term_indicator_table(
    params: TowerParams,
    xi: XiFamily,
    j: int,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> FunctionTable:
    """Characteristic table of the single-block term <x^j, xi_j(x)> = 0."""
    blocks = params.blocks
    n = blocks.n
    check_dense(n, dense_limit, "table entries")
    points = np.arange(1 << n, dtype=np.int64)
    hit = _block_hits(blocks, xi, j, points).astype(np.uint8)
    return FunctionTable.from_counts(n, hit, 1)


@dataclass(frozen=True, eq=False)
class Instance:
    """A generated lower-bound instance; the table exists only when the
    full domain fits under the dense limit."""

    params: TowerParams
    xi: XiFamily
    table: FunctionTable | None

    @classmethod
    def generate(
        cls,
        s: int,
        seed: int,
        dense_limit: int = DEFAULT_DENSE_LIMIT,
        max_retries: int = 100,
        sampled_samples: int = 10**6,
    ) -> "Instance":
        return cls.from_params(
            block_dims(s),
            seed,
            dense_limit=dense_limit,
            max_retries=max_retries,
            sampled_samples=sampled_samples,
        )

    @classmethod
    def from_params(
        cls,
        params: TowerParams,
        seed: int,
        dense_limit: int = DEFAULT_DENSE_LIMIT,
        max_retries: int = 100,
        sampled_samples: int = 10**6,
    ) -> "Instance":
        """Build from explicit params (the custom-dims experimentation path)."""
        xi = build_xi(
            params,
            seed,
            max_retries=max_retries,
            sampled_samples=sampled_samples,
            dense_limit=dense_limit,
        )
        table = None
        if params.dense_possible(dense_limit):
            table = build_function_table(params, xi, dense_limit)
        return cls(params=params, xi=xi, table=table)

    @property
    def s(self) -> int:
        return self.params.s

    @property
    def n(self) -> int:
        return self.params.blocks.n


_XI_ENTRY_CAP = 65536


def manifest(inst: Instance) -> dict:
    """JSON-ready description of an instance.

    xi entries are written per block as integer encodings; families
    above _XI_ENTRY_CAP entries in total are omitted (they regenerate
    from the seed).
    """
    params = inst.params
    dims = [d if isinstance(d, int) and d < 2**53 else str(d) for d in params.dims]
    total_entries = sum(len(f) for f in inst.xi.families)
    out = {
        "schema": "f2reglab/instance",
        "schema_version": 1,
        "s": params.s,
        "dims": dims,
        "n": params.blocks.n,
        "seed": inst.xi.seed,
        "epsilon_max": str(params.epsilon_max),
        "epsilon_max_float": float(params.epsilon_max),
        "dense": inst.table is not None,
    }
    if total_entries <= _XI_ENTRY_CAP:
        out["xi"] = {
            str(i + 1): [v if v < 2**53 else str(v) for v in family]
            for i, family in enumerate(inst.xi.families)
        }
    else:
        out["xi"] = None
        out["xi_omitted_entries"] = total_entries
    return out
