"""Spectra on the full space and on cosets, and regularity checks.

The canonical 3-bit table used throughout is the two-block instance
function, frozen here from a hand evaluation of the defining formula:
by integer index, (1, 1/2, 1/2, 1/2, 1, 0, 1/2, 0).  Its full spectrum,
also by hand, is (1/2, 1/4, 1/8, 1/8, 1/8, -1/8, 0, 0).
"""

import dataclasses
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from f2reglab import (
    AffineSubspace,
    F2Vector,
    FunctionTable,
    Instance,
    Subspace,
    check_subspace_regularity,
    deviation_report,
    energy,
    enumerate_all_subspaces,
    find_regular_subspace,
    restricted_coefficient,
    restricted_spectrum,
    round_to_binary,
    sample_pairs,
    wht_full,
)
from f2reglab import fourier
from f2reglab.gf2 import DimensionMismatchError, _echelon_stack, subspaces_of_dim
from f2reglab.reports import emit_report

S2_VALUES = [1.0, 0.5, 0.5, 0.5, 1.0, 0.0, 0.5, 0.0]
S2_SPECTRUM = [0.5, 0.25, 0.125, 0.125, 0.125, -0.125, 0.0, 0.0]


@pytest.fixture
def s2_table():
    return FunctionTable(3, np.array(S2_VALUES))


@pytest.fixture(scope="module")
def s3_table():
    return Instance.generate(3, seed=1).table


def naive_spectrum(f: FunctionTable) -> np.ndarray:
    """Independent oracle: the defining sum, O(4^n)."""
    size = f.size
    out = np.empty(size)
    for eta in range(size):
        total = 0.0
        for x in range(size):
            sign = -1.0 if bin(x & eta).count("1") % 2 else 1.0
            total += f.values[x] * sign
        out[eta] = total / size
    return out


def random_table(rng: random.Random, n: int) -> FunctionTable:
    return FunctionTable(n, np.array([rng.random() for _ in range(1 << n)]))


def parity_buckets(basis, etas):
    """Column of each character in a `_coset_transform` row, by the
    parity definition: bit i is <basis_i, eta>."""
    z = np.zeros(np.shape(etas), dtype=np.int64)
    for i, row in enumerate(basis):
        z |= (np.bitwise_count(etas & np.int64(row)) & 1).astype(np.int64) << i
    return z


class TestWhtFull:
    def test_constant_function(self):
        spec = wht_full(FunctionTable.constant(4, 0.375))
        assert spec[0] == pytest.approx(0.375, abs=1e-15)
        assert np.all(spec[1:] == 0.0)

    def test_point_indicator_flat_spectrum(self):
        values = np.zeros(4)
        values[0] = 1.0
        spec = wht_full(FunctionTable(2, values))
        assert np.allclose(spec, 0.25, atol=1e-15)

    def test_canonical_table_spectrum(self, s2_table):
        spec = wht_full(s2_table)
        assert spec.tolist() == S2_SPECTRUM
        assert spec[1] == 0.25  # coefficient at e1

    def test_matches_defining_sum_on_random_tables(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(1, 8)
            f = random_table(rng, n)
            assert np.max(np.abs(wht_full(f) - naive_spectrum(f))) < 1e-12

    def test_parseval_full_space(self):
        rng = random.Random(55)
        tables = [random_table(rng, rng.randint(1, 8)) for _ in range(20)]
        # n = 16 and 17 also take _fwht's cache-blocked path
        tables += [random_table(rng, 16), random_table(rng, 17)]
        for f in tables:
            spec = wht_full(f)
            assert np.square(spec).sum() == pytest.approx(
                float(np.square(f.values).mean()), abs=1e-12
            )

    def test_linearity_of_averages(self):
        rng = random.Random(81)
        for _ in range(10):
            n = rng.randint(1, 8)
            f, g = random_table(rng, n), random_table(rng, n)
            avg = FunctionTable(n, (f.values + g.values) / 2.0)
            assert np.max(
                np.abs(wht_full(avg) - (wht_full(f) + wht_full(g)) / 2.0)
            ) < 1e-12


def radix2_butterfly(a: np.ndarray) -> np.ndarray:
    """Oracle: the textbook in-place radix-2 butterfly, one stage at a time
    over the whole array, in the summation order `_fwht` must keep."""
    size = a.shape[-1]
    h = 1
    while h < size:
        b = a.reshape(a.shape[:-1] + (-1, 2, h))
        top = b[..., 0, :].copy()
        b[..., 0, :] = top + b[..., 1, :]
        b[..., 1, :] = top - b[..., 1, :]
        h *= 2
    return a


CHUNK = fourier._CHUNK
# the dispatch paths of _fwht: arrays of at most one block (1-D, and many
# rows of length 8); many rows of length <= 4 (no transpose) and of length
# 16 and 64 (transposed low stages), with a partial last block; the square
# n = 22 batch; a few rows longer than a block and a 1-D axis longer than a
# block (column slabs)
KERNEL_SHAPES = [
    (2,),
    (4,),
    (256,),
    (CHUNK // 8, 8),
    (2 * CHUNK, 2),
    (CHUNK + 3, 4),
    (3 * CHUNK // 16 + 5, 16),
    (CHUNK // 8 + 1, 64),
    (1 << 11, 1 << 11),
    (3, 4 * CHUNK),
    (16 * CHUNK,),
]
# int32 blocks hold the bytes of CHUNK 8-byte entries, 2 * CHUNK items:
# an axis of one block, and one of two blocks (column slabs)
INT32_SHAPES = KERNEL_SHAPES + [(2 * CHUNK,), (4 * CHUNK,)]


class TestFwhtKernel:
    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_float_bits_match_radix2(self, shape):
        x = np.random.default_rng(sum(shape)).random(shape)
        expected = radix2_butterfly(x.copy())
        got = fourier._fwht(x.copy())
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_int64_matches_radix2(self, shape):
        x = np.random.default_rng(sum(shape)).integers(-7, 8, size=shape)
        assert np.array_equal(fourier._fwht(x.copy()), radix2_butterfly(x.copy()))

    @pytest.mark.parametrize("shape", INT32_SHAPES)
    def test_int32_matches_radix2(self, shape):
        # the count spectra's dtype: entries stay below 8 * 2^20 < 2^31
        x = np.random.default_rng(sum(shape)).integers(-7, 8, size=shape, dtype=np.int32)
        got = fourier._fwht(x.copy())
        assert got.dtype == np.int32 and np.array_equal(got, radix2_butterfly(x.copy()))

    def test_non_contiguous_input_rejected(self):
        with pytest.raises(ValueError):
            fourier._fwht(np.zeros((4, 16))[:, ::2])
        with pytest.raises(ValueError):
            fourier._fwht(np.zeros((2 * CHUNK, 8)).T)


class TestClassMaps:
    @pytest.mark.parametrize("n", [5, 11, 16])
    def test_linear_buckets_equal_parity_definition(self, n):
        rng = random.Random(n)
        subspaces = [Subspace.full(n)]
        for dim in range(n + 1):
            for _ in range(3):
                while True:
                    h = Subspace.from_vectors(n, [rng.getrandbits(n) for _ in range(dim)])
                    if h.dim == dim:
                        break
                subspaces.append(h)
        for h in subspaces:
            etas, z = fourier._build_class_maps(h)
            expected = h.orthogonal_complement().coset_representative_array(dense_limit=n)
            assert np.array_equal(etas, expected)
            assert np.array_equal(z, parity_buckets(h.basis, etas))

    def test_cached_maps_are_read_only(self):
        h = Subspace.from_vectors(11, [793, 78, 1024])
        etas, z = fourier._cached_class_maps(h)
        assert not etas.flags.writeable and not z.flags.writeable
        with pytest.raises(ValueError):
            z[0] = 1


class TestRestrictedCoefficient:
    def test_trivial_character_gives_mean(self, s2_table):
        rng = random.Random(10)
        for _ in range(20):
            rows = [rng.getrandbits(3) for _ in range(rng.randint(0, 3))]
            coset = AffineSubspace(
                Subspace.from_vectors(3, rows), F2Vector(3, rng.getrandbits(3))
            )
            points = coset.element_array()
            mean = float(s2_table.values[points].mean())
            assert restricted_coefficient(s2_table, coset, F2Vector(3, 0)) == mean

    def test_canonical_values(self, s2_table):
        h = Subspace.from_vectors(3, [1])
        e1 = F2Vector(3, 1)
        coset0 = AffineSubspace(h, F2Vector(3, 0))  # {000, 100}
        assert restricted_coefficient(s2_table, coset0, e1) == 0.25
        coset2 = AffineSubspace(h, F2Vector(3, 2))  # {010, 110}
        assert restricted_coefficient(s2_table, coset2, e1) == 0.0

    def test_class_invariance_up_to_sign(self, s2_table):
        rng = random.Random(31)
        h = Subspace.from_vectors(3, [1])
        perp_elements = [v for v in range(8) if h.orthogonal_complement().contains(v)]
        for _ in range(30):
            coset = AffineSubspace(h, F2Vector(3, rng.getrandbits(3)))
            eta = rng.getrandbits(3)
            shift = rng.choice(perp_elements)
            a = restricted_coefficient(s2_table, coset, F2Vector(3, eta))
            b = restricted_coefficient(s2_table, coset, F2Vector(3, eta ^ shift))
            assert abs(a) == pytest.approx(abs(b), abs=1e-12)


class TestRestrictedSpectrum:
    def test_single_point_coset(self, s2_table):
        coset = AffineSubspace(Subspace.zero(3), F2Vector(3, 5))
        spec = restricted_spectrum(s2_table, coset)
        assert spec.class_reps.tolist() == [0]
        assert spec.coefficients[0] == s2_table.values[5]

    def test_full_space_matches_wht(self, s2_table):
        spec = restricted_spectrum(s2_table, AffineSubspace(Subspace.full(3)))
        assert spec.class_reps.tolist() == list(range(8))
        assert np.allclose(spec.coefficients, wht_full(s2_table), atol=1e-15)

    def test_canonical_coset_classes(self, s2_table):
        h = Subspace.from_vectors(3, [1])
        coset = AffineSubspace(h, F2Vector(3, 4))  # {001, 101}
        spec = restricted_spectrum(s2_table, coset)
        assert spec.class_reps.tolist() == [0, 1] and spec.coefficients.tolist() == [0.5, 0.5]

    def test_agrees_with_pointwise_coefficient_on_class_reps(self, s2_table):
        rng = random.Random(77)
        for _ in range(20):
            rows = [rng.getrandbits(3) for _ in range(rng.randint(0, 3))]
            coset = AffineSubspace(
                Subspace.from_vectors(3, rows), F2Vector(3, rng.getrandbits(3))
            )
            spec = restricted_spectrum(s2_table, coset)
            for eta, value in zip(spec.class_reps.tolist(), spec.coefficients.tolist()):
                direct = restricted_coefficient(s2_table, coset, F2Vector(3, eta))
                assert value == pytest.approx(direct, abs=1e-12)

    def test_parseval_per_coset(self):
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(1, 7)
            f = random_table(rng, n)
            rows = [rng.getrandbits(n) for _ in range(rng.randint(0, n))]
            coset = AffineSubspace(
                Subspace.from_vectors(n, rows), F2Vector(n, rng.getrandbits(n))
            )
            spec = restricted_spectrum(f, coset)
            points = coset.element_array()
            assert float(np.square(spec.coefficients).sum()) == pytest.approx(
                float(np.square(f.values[points]).mean()), abs=1e-12
            )


class TestCosetRegularity:
    """Per-coset verdicts and witnesses, as the subspace report gives them."""

    def test_constant_always_regular(self):
        # every nontrivial coefficient of a constant is exactly zero
        f = FunctionTable.constant(3, 0.7)
        report = check_subspace_regularity(f, Subspace.from_vectors(3, [1, 2]), 0.0)
        assert report.is_regular and report.regular_cosets == report.total_cosets == 2

    def test_full_space_irregular(self, s2_table):
        report = check_subspace_regularity(s2_table, Subspace.full(3), "1/32")
        assert not report.is_regular
        witnessed = zip(
            report.witness_reps.tolist(), report.witness_etas.tolist(), report.witness_values.tolist()
        )
        assert list(witnessed) == [(0, 1, 0.25)]

    def test_tie_break_smallest_encoding(self):
        # point indicator: all nontrivial coefficients tie at 1/4
        values = np.zeros(4)
        values[0] = 1.0
        report = check_subspace_regularity(FunctionTable(2, values), Subspace.full(2), 0.1)
        assert not report.is_regular
        assert report.witness_etas.tolist() == [1] and report.witness_values.tolist() == [0.25]

    def test_count_table_coefficient_at_eps_is_regular(self, s3_table):
        # over this coset the worst coefficients of the s = 3 instance are
        # exactly 1/6, which the float transform rounds above 1/6
        h = Subspace.from_vectors(11, [793, 78])
        spec = restricted_spectrum(s3_table, AffineSubspace(h, F2Vector(11, 16)))
        assert np.abs(spec.coefficients[1:]).max() == 1 / 6
        report = check_subspace_regularity(s3_table, h, "1/6")
        assert 16 in h.coset_representative_array() and 16 not in report.witness_reps


class TestSubspaceRegularity:
    def test_zero_subspace_vacuously_regular(self, s2_table):
        report = check_subspace_regularity(s2_table, Subspace.zero(3), 0.0)
        assert report.is_regular
        assert report.total_cosets == 8 and report.regular_cosets == 8

    def test_canonical_line_e1(self, s2_table):
        report = check_subspace_regularity(s2_table, Subspace.from_vectors(3, [1]), "1/32")
        assert not report.is_regular
        assert report.total_cosets == 4 and report.irregular_cosets == 3
        witnessed = {
            (int(r), int(e), float(v))
            for r, e, v in zip(report.witness_reps, report.witness_etas, report.witness_values)
        }
        assert witnessed == {(0, 1, 0.25), (4, 1, 0.5), (6, 1, 0.25)}

    def test_canonical_line_e3(self, s2_table):
        report = check_subspace_regularity(s2_table, Subspace.from_vectors(3, [4]), "1/32")
        assert not report.is_regular
        assert report.irregular_cosets == 2
        assert sorted(int(r) for r in report.witness_reps) == [1, 3]
        assert np.all(np.abs(report.witness_values) == 0.25)

    def test_constant_regular_everywhere(self):
        f = FunctionTable.constant(4, 0.25)
        for rows in ([1], [3, 12], [15]):
            report = check_subspace_regularity(f, Subspace.from_vectors(4, rows), 0.0)
            assert report.is_regular and report.irregular_cosets == 0

    def test_witness_invariants(self, s2_table):
        report = check_subspace_regularity(s2_table, Subspace.from_vectors(3, [1]), "1/32")
        assert report.regular_cosets + len(report.witness_reps) == report.total_cosets
        perp = report.subspace.orthogonal_complement()
        for eta, value in zip(report.witness_etas.tolist(), report.witness_values.tolist()):
            assert abs(value) > float(report.epsilon)
            assert not perp.contains(eta)

    def test_dimension_mismatch(self, s2_table, s3_table):
        for f in (s2_table, s3_table):
            with pytest.raises(DimensionMismatchError, match=f"table n={f.n} vs subspace n=4"):
                check_subspace_regularity(f, Subspace.full(4), "1/8")

    def test_verdict_boundaries_are_exact(self, s2_table, s3_table):
        # coset coefficients at e1 are (1/4, 1/2, 0, 1/4).  At eps = 1/4
        # exactly, both non-strict boundaries fire: the two 1/4-cosets
        # are regular (<=), and 1 irregular coset of 4 meets the allowed
        # fraction (1 <= 4 * 1/4).  Just below, all three flip.
        h = Subspace.from_vectors(3, [1])
        at_quarter = check_subspace_regularity(s2_table, h, "1/4")
        assert at_quarter.irregular_cosets == 1 and at_quarter.is_regular
        below = check_subspace_regularity(s2_table, h, "2499/10000")
        assert below.irregular_cosets == 3 and not below.is_regular
        # on the s = 3 instance, 80 of the 336 cosets whose worst
        # coefficient is above 1/6 in floating point sit exactly at 1/6
        report = check_subspace_regularity(
            s3_table, Subspace.from_vectors(11, [793, 78]), "1/6"
        )
        assert report.irregular_cosets == 256
        assert np.all(np.abs(report.witness_values) > 1 / 6)


class TestForcedDuals:
    """Lemma (forced duals): on a coset r + H the coefficient at w outside
    H-perp averages to f^(w) over the cosets and is at most 1/2 in
    magnitude, so if at most eps * 2^c cosets exceed eps, then
    |f^(w)| <= 3 eps / 2 - eps^2.  Every w above that bound therefore
    lies in H-perp for every eps-regular H: checked over every subspace
    of F2^4 on seeded random count tables with denominators 1-6."""

    def test_no_regular_subspace_misses_a_forced_character(self):
        rng = np.random.default_rng(33)
        subspaces = list(enumerate_all_subspaces(4))
        points = np.arange(16)
        hadamard = 1 - 2 * (np.bitwise_count(points[:, None] & points) & 1).astype(np.int64)
        checked = 0
        for _ in range(40):
            den = int(rng.integers(1, 7))
            counts = rng.integers(0, den + 1, size=16)
            f = FunctionTable.from_counts(4, counts, den)
            spectrum = hadamard @ counts  # 16 * den * f^(w), exactly
            for eps in map(Fraction, ["1/16", "1/8", "1/5", "1/4", "1/3"]):
                bound = (Fraction(3, 2) * eps - eps**2) * 16 * den
                forced = [w for w in range(1, 16) if abs(int(spectrum[w])) > bound]
                if not forced:  # w = 0 lies in every H-perp
                    continue
                for h in subspaces:
                    if check_subspace_regularity(f, h, eps).is_regular:
                        checked += 1
                        perp = h.orthogonal_complement()
                        assert all(perp.contains(w) for w in forced), (counts, den, eps, h)
        # regular triples with a nonzero forced character (79 at this seed)
        assert checked > 50, checked


def transform_numerators(f, h, reps, etas):
    """Signed `_coset_transform` numerators: entry [k, j] is the sum over
    the coset reps[k] + H of counts(x) (-1)^<x, etas[j]>."""
    table, _ = fourier._coset_transform(f, h.span_array(), reps)
    buckets = parity_buckets(h.basis, etas)
    return fourier._signed(table[:, buckets], reps[:, None], etas[None, :])


def dual_numerators(spectrum, h, etas):
    """`_dual_table` of h at the explicit characters etas: entry [k, j]
    is the numerator over h's k-th canonical coset at etas[j]."""
    duals = np.array([h._dual_rows()], np.int64)
    return fourier._dual_table(spectrum, duals, etas[None])[:, 0] >> duals.shape[1]


def random_subspace_of_codim(n, codim, rng):
    while True:
        dual = Subspace.from_vectors(n, [rng.getrandbits(n) for _ in range(codim)])
        if dual.dim == codim:
            return dual.orthogonal_complement()


class TestPoissonNumerators:
    """The Poisson-sum read of `_dual_table` at explicit characters, any
    member of F2^n (trivial ones and several members of one class
    included), equals the coset transform, exactly."""

    def assert_equal_on_every_coset(self, f, h, etas):
        spectrum = fourier._count_spectrum(f)
        reps = h.coset_representative_array()
        got = dual_numerators(spectrum, h, etas)
        assert got.dtype == spectrum.dtype
        assert np.array_equal(got, transform_numerators(f, h, reps, etas))

    def test_every_hyperplane_of_s2(self):
        f = Instance.generate(2, seed=1).table
        hyperplanes = list(subspaces_of_dim(3, 2))
        assert len(hyperplanes) == 7
        for h in hyperplanes:
            self.assert_equal_on_every_coset(f, h, np.arange(8))

    def test_sampled_low_codim_of_s3(self, s3_table):
        rng = random.Random(23)
        for codim in (2, 3, 4):
            for _ in range(6):
                h = random_subspace_of_codim(11, codim, rng)
                self.assert_equal_on_every_coset(s3_table, h, np.arange(1 << 11))

    def test_rounded_n14_table(self):
        f = round_to_binary(FunctionTable(14, np.random.default_rng(14).random(1 << 14)), 3)
        rng = random.Random(24)
        etas = np.concatenate([[0], np.random.default_rng(25).integers(1, 1 << 14, 511)])
        for codim in range(5):
            h = random_subspace_of_codim(14, codim, rng)
            self.assert_equal_on_every_coset(f, h, etas)

    def test_broadcasts_pairs(self, s3_table):
        # one (rep, eta) pair per coset, as deviation reports read them
        # (`_coset_numerator`); each rep is given off its canonical form
        h = random_subspace_of_codim(11, 3, random.Random(26))
        reps = h.coset_representative_array()
        etas = np.arange(reps.size, dtype=np.int64) * 37 % (1 << 11)
        spectrum = fourier._count_spectrum(s3_table)
        cosets = [AffineSubspace(h, F2Vector(11, int(r) ^ h.basis[k % h.dim]))
                  for k, r in enumerate(reps)]
        got = [fourier._coset_numerator(spectrum, a.subspace, a.representative.bits, int(e))
               for a, e in zip(cosets, etas)]
        full = transform_numerators(s3_table, h, reps, etas)
        assert np.array_equal(got, np.diagonal(full))

    @pytest.mark.parametrize("codim", [0, 1, 3, 11])
    def test_reads_chosen_cosets_at_once(self, s3_table, codim):
        # an array of canonical reps, in any order and with repeats, at one
        # character: the entries of one column of the coset transform
        h = random_subspace_of_codim(11, codim, random.Random(27 + codim))
        reps = h.coset_representative_array()
        chosen = np.random.default_rng(codim).choice(reps, size=2 * reps.size)
        spectrum = fourier._count_spectrum(s3_table)
        for eta in (0, 1, 1000, 2047):
            got = fourier._coset_numerator(spectrum, h, chosen, eta)
            full = transform_numerators(s3_table, h, chosen, np.array([eta]))
            assert got.shape == chosen.shape and np.array_equal(got, full[:, 0])


def top_duals(hs):
    """Top-pivot echelon stack of the duals of the given subspaces."""
    n = hs[0].n
    rows = np.array([h.orthogonal_complement().basis for h in hs], dtype=np.int64)
    return _echelon_stack(rows, n, top=True)[0]


class TestDualWorst:
    """The stacked full-class kernel (`_dual_worst`) on stacks of B >= 2
    subspaces of one codimension, at the default chunk size and in chunks
    of 16 entries: each coset's largest nontrivial magnitude, the signed
    value there and its class rep equal the copying oracle's witness on
    the whole-table pullback, at eps = -1, where every coset of a nonzero
    subspace is a witness.  The zero subspace has none and reads -1.  The
    walk's units, each echelon row's lowest bit, span other reps of the
    same classes and give the same magnitudes."""

    def assert_same(self, f, hs):
        spectrum = fourier._count_spectrum(f)
        duals = top_duals(hs)
        c = duals.shape[1]
        units = np.array([[1 << p for p in h.orthogonal_complement().free_positions]
                          for h in hs], dtype=np.int64)
        rows = np.array([h.basis for h in hs], dtype=np.int64)
        got = []
        for chunk in (fourier._CHUNK, 16):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(fourier, "_CHUNK", chunk)
                best, value, worst = fourier._dual_worst(spectrum, duals, units)
                walk_best, _, _ = fourier._dual_worst(spectrum, duals, rows & -rows)
            assert best.shape == value.shape == worst.shape == (len(hs), 1 << c)
            assert np.array_equal(walk_best, best)
            got.append((best, value, worst))
        for k, h in enumerate(hs):
            reps, table, den = whole_table(f, h)
            expected = copied_regularity_report(h, Fraction(-1), reps, table, den)
            for best, value, worst in got:
                if h.dim == 0:
                    assert expected.witness_reps.size == 0 and (best[k] == -1).all()
                    continue
                assert np.array_equal(expected.witness_reps, reps)
                assert not ((best[k] | value[k]) & ((1 << c) - 1)).any()
                assert np.array_equal((best[k] >> c) / den, np.abs(expected.witness_values))
                assert np.array_equal((value[k] >> c) / den, expected.witness_values)
                assert np.array_equal(worst[k], expected.witness_etas)

    def test_every_hyperplane_of_s2_and_s3(self, s3_table):
        for f in (Instance.generate(2, seed=1).table, s3_table):
            hyperplanes = [d.orthogonal_complement() for d in subspaces_of_dim(f.n, 1)]
            assert len(hyperplanes) == (1 << f.n) - 1
            self.assert_same(f, hyperplanes)

    def test_sampled_codim_2_and_3_of_s3(self, s3_table):
        rng = random.Random(31)
        for codim in (2, 3):
            self.assert_same(s3_table, [random_subspace_of_codim(11, codim, rng)
                                        for _ in range(25)])

    def test_rounded_table(self):
        f = round_to_binary(FunctionTable(12, np.random.default_rng(12).random(1 << 12)), 5)
        rng = random.Random(32)
        for codim in (1, 2, 4):
            self.assert_same(f, [random_subspace_of_codim(12, codim, rng) for _ in range(8)])

    def test_full_space(self, s3_table):
        # c = 0: one coset, whose worst class is read from the spectrum itself
        for f in (Instance.generate(2, seed=1).table, s3_table):
            self.assert_same(f, [Subspace.full(f.n)] * 2)

    def test_zero_subspace(self, s3_table):
        for f in (Instance.generate(2, seed=1).table, s3_table):
            self.assert_same(f, [Subspace.zero(f.n)] * 2)

    def test_tie_across_a_chunk_boundary(self):
        # the table of TestDualReport's tie: in chunks of 16 entries a
        # hyperplane's class of b falls in a later chunk than a's
        n, a, b = 8, 0b11, 0b10000001
        points = np.arange(1 << n, dtype=np.int64)
        signs = [1 - 2 * (np.bitwise_count(points & e) & 1) for e in (a, b)]
        f = FunctionTable.from_counts(n, 2 + signs[0] + signs[1], 4)
        units = [1 << j for j in range(n)]
        hs = [Subspace.from_vectors(n, units[:6] + units[7:]),
              Subspace.from_vectors(n, units[:5] + units[6:])]
        self.assert_same(f, hs)
        spectrum = fourier._count_spectrum(f)
        for h in hs:
            # every coset meets a and b at magnitude 1/4, and a wins
            tie = np.abs(dual_numerators(spectrum, h, np.array([a, b])))
            assert (tie == f.denominator << h.dim >> 2).all()
            report = fourier._dual_report(h, Fraction(1, 8), spectrum, f.denominator)
            assert report.witness_etas.tolist() == [a] * report.total_cosets


def assert_same_report(got, expected):
    """Two regularity reports agree field for field, dtypes included."""
    assert got.subspace == expected.subspace and got.epsilon == expected.epsilon
    assert (got.total_cosets, got.regular_cosets) == (expected.total_cosets,
                                                      expected.regular_cosets)
    for field in ("witness_reps", "witness_etas", "witness_values"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert emit_report(got) == emit_report(expected)


class TestDualReport:
    """The report of a count table read from its full transform
    (`_dual_report`, which `check_subspace_regularity` and each round of
    `find_regular_subspace` return) equals the copying oracle on the
    whole-table pullback field for field: verdict, witness cosets,
    characters with their tie-breaks, and values."""

    EPS = ("1/48", "1/16", "1/6")

    def assert_same(self, f, hs):
        spectrum = fourier._count_spectrum(f)
        for h in hs:
            reps, table, den = whole_table(f, h)
            for eps in self.EPS:
                got = fourier._dual_report(h, Fraction(eps), spectrum, f.denominator)
                expected = copied_regularity_report(h, Fraction(eps), reps, table, den)
                assert_same_report(got, expected)

    def test_every_hyperplane_of_s2_and_s3(self, s3_table):
        for f in (Instance.generate(2, seed=1).table, s3_table):
            hyperplanes = [d.orthogonal_complement() for d in subspaces_of_dim(f.n, 1)]
            assert len(hyperplanes) == (1 << f.n) - 1
            self.assert_same(f, hyperplanes)

    def test_random_subspaces_of_every_dimension(self, s3_table):
        rng = random.Random(41)
        for f in (Instance.generate(2, seed=1).table, s3_table):
            n = f.n
            hs = [Subspace.zero(n), Subspace.full(n)]
            for codim in range(n + 1):
                hs += [random_subspace_of_codim(n, codim, rng) for _ in range(4)]
            assert {h.dim for h in hs} == set(range(n + 1))
            self.assert_same(f, hs)

    def test_irregular_and_regular_cosets_both_occur(self, s3_table):
        spectrum = fourier._count_spectrum(s3_table)
        h = Subspace.from_vectors(11, [793, 78])
        report = fourier._dual_report(h, Fraction(1, 6), spectrum, s3_table.denominator)
        assert 0 < report.irregular_cosets < report.total_cosets
        assert_same_report(report, whole_table_report(s3_table, h, "1/6"))
        assert_same_report(check_subspace_regularity(s3_table, h, "1/6"), report)

    def test_zero_subspace_is_regular_at_any_eps(self, s3_table):
        # no coset of H = 0 has a nontrivial class, so even eps = -1, which
        # every magnitude exceeds, finds no irregular coset, as in the float scan
        floats = FunctionTable(s3_table.n, s3_table.values)
        for eps in ("-1", "0", "1/6"):
            got = check_subspace_regularity(s3_table, Subspace.zero(11), eps)
            assert got.irregular_cosets == 0
            assert_same_report(got, check_subspace_regularity(floats, Subspace.zero(11), eps))

    def test_classes_in_chunks_of_16(self, s3_table, small_chunk):
        # 2^11 classes of the full space come in 128 chunks, and a coset of
        # a codim-c subspace reads 16 >> c classes per chunk
        rng = random.Random(42)
        spectrum = fourier._count_spectrum(s3_table)
        hs = [Subspace.full(11)] + [random_subspace_of_codim(11, c, rng) for c in range(1, 12)]
        for h in hs:
            for eps in self.EPS:
                got = fourier._dual_report(h, Fraction(eps), spectrum, s3_table.denominator)
                assert_same_report(got, whole_table_report(s3_table, h, eps))

    def test_tie_across_a_chunk_boundary(self, small_chunk):
        # f = (2 + chi_a + chi_b) / 4: every coset meets both characters
        # at magnitude 1/4, in classes that fall in different chunks, and
        # the smaller class rep, in the earlier chunk, wins
        n, a, b = 8, 0b11, 0b10000001
        points = np.arange(1 << n, dtype=np.int64)
        signs = [1 - 2 * (np.bitwise_count(points & e) & 1) for e in (a, b)]
        f = FunctionTable.from_counts(n, 2 + signs[0] + signs[1], 4)
        spectrum = fourier._count_spectrum(f)
        units = [1 << j for j in range(n)]
        for h in (Subspace.full(n), Subspace.from_vectors(n, units[:6] + units[7:]),
                  Subspace.from_vectors(n, units[:2] + units[4:6] + units[7:])):
            got = fourier._dual_report(h, Fraction(1, 8), spectrum, f.denominator)
            assert got.irregular_cosets == got.total_cosets
            assert set(np.abs(got.witness_values).tolist()) == {0.25}
            assert set(got.witness_etas.tolist()) == {h.orthogonal_complement().reduce(a)}
            assert_same_report(got, whole_table_report(f, h, "1/8"))


def copied_regularity_report(h, eps, reps, table, den):
    """The float-table oracle: the report as built before the verdict read
    the transform in place, from a class-ordered copy of every row."""
    total = reps.shape[0]
    if h.dim == 0:
        irregular = np.zeros(total, dtype=bool)
        witness_etas, witness_values = np.empty(0, dtype=np.int64), np.empty(0)
    else:
        etas, z = fourier._class_maps(h)
        magnitudes = table[:, z[1:]]
        np.abs(magnitudes, out=magnitudes)
        worst = np.argmax(magnitudes, axis=1)
        worst_abs = magnitudes[np.arange(total), worst]
        if table.dtype.kind == "f":
            threshold = float(eps) * den
        else:
            threshold = eps.numerator * den // eps.denominator
        irregular = worst_abs > threshold
        rows, worst = np.flatnonzero(irregular), worst[irregular] + 1
        witness_etas = etas[worst]
        witness_values = fourier._signed(table[rows, z[worst]] / den, reps[rows], witness_etas)
    return fourier.RegularityReport(
        subspace=h,
        epsilon=eps,
        total_cosets=total,
        regular_cosets=int(total - irregular.sum()),
        witness_reps=reps[irregular],
        witness_etas=witness_etas,
        witness_values=witness_values,
    )


def whole_table(f, h):
    """The whole-table transform: every coset row of h gathered at once
    and run through the radix-2 oracle, with the reps and the scale."""
    reps = h.coset_representative_array()
    index = reps[:, None] ^ h.span_array()[None, :]
    if f.counts is None:
        table, den = f.values[index], 1 << h.dim
    else:
        table, den = f.counts[index].astype(np.int64), f.denominator << h.dim
    return reps, radix2_butterfly(table), den


def whole_table_report(f, h, eps):
    """`copied_regularity_report` over the whole-table transform."""
    reps, table, den = whole_table(f, h)
    return copied_regularity_report(h, Fraction(eps), reps, table, den)


@pytest.fixture
def small_chunk(monkeypatch):
    """Scan blocks and class chunks of 16 entries, so every scan of a
    larger table spans several of them."""
    monkeypatch.setattr(fourier, "_CHUNK", 16)


class TestFloatReportOracle:
    """`check_subspace_regularity` reads the verdict in place, a block of
    cosets at a time, and copies only the irregular cosets; its reports
    equal the copying oracle's on the whole-table transform exactly:
    at the default block size, where blocks of more than _LOW cosets
    (dims up to 11) are transformed class-major and larger cosets row by
    row; with blocks of 2^9 entries, where the class-major dims 1-4 run
    several blocks; and with blocks of 16 entries, where every block is
    row-major and rows longer than a block run one at a time."""

    def assert_same(self, f, h, eps):
        expected = whole_table_report(f, h, eps)
        got = check_subspace_regularity(f, h, eps)
        assert_same_report(got, expected)
        for chunk in (1 << 9, 16):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(fourier, "_CHUNK", chunk)
                assert_same_report(check_subspace_regularity(f, h, eps), expected)
        return got

    def test_every_dimension_of_an_n14_table(self):
        # a planted character at weight 0.15 keeps some cosets irregular
        # on both sides of the class-major crossover
        n, chi = 14, 0b10110011100101
        rng = np.random.default_rng(14)
        points = np.arange(1 << n, dtype=np.int64)
        even = (np.bitwise_count(points & chi) & 1) == 0
        f = FunctionTable(n, 0.1 + 0.35 * rng.random(1 << n) + 0.3 * even)
        layouts = set()
        for dim in range(n + 1):
            h = random_subspace_of_codim(n, n - dim, random.Random(dim))
            layouts.add(fourier._block_rows(dim) > fourier._LOW)
            for eps in ("1/64", "1/8"):
                self.assert_same(f, h, eps)
        assert layouts == {True, False}

    def test_equal_weight_characters_tie_at_the_smallest_rep(self):
        # independent characters with weights 1/2 or 1/4: every value and
        # coefficient is a dyadic rational, so the ties are exact
        n = 8
        points = np.arange(1 << n, dtype=np.int64)
        for etas in ([0b11, 0b101], [0b1100, 0b110000, 0b11000000, 0b11], [7, 56, 192, 129]):
            hits = [(np.bitwise_count(points & e) & 1) == 0 for e in etas]
            f = FunctionTable(n, np.mean(hits, axis=0))
            weight = 0.5 / len(etas)
            for h in (Subspace.full(n), Subspace.from_vectors(n, [1 << (n - 1)]),
                      Subspace.from_vectors(n, [1, 2, 4, 8, 16])):
                report = self.assert_same(f, h, "1/32")
                if h.dim == n:
                    # every character ties at weight; the smallest wins
                    assert report.witness_etas.tolist() == [min(etas)]
                    assert report.witness_values.tolist() == [weight]

    def test_constant_tables(self):
        for value in (0.0, 0.3, 1.0):
            f = FunctionTable.constant(6, value)
            for h in (Subspace.zero(6), Subspace.from_vectors(6, [5, 12]), Subspace.full(6)):
                report = self.assert_same(f, h, 0.0)
                assert report.is_regular and report.witness_etas.size == 0

    def test_random_tables_with_none_some_or_all_cosets_irregular(self):
        rng = random.Random(43)
        seen = set()
        for _ in range(12):
            n = rng.randint(4, 10)
            f = random_table(rng, n)
            for codim in range(n + 1):
                h = random_subspace_of_codim(n, codim, rng)
                for eps in ("1/1000", "1/16", "1/6", "2/5"):
                    report = self.assert_same(f, h, eps)
                    k = report.irregular_cosets
                    seen.add("none" if k == 0 else "all" if k == report.total_cosets
                             else "some")
        assert seen == {"none", "some", "all"}

    def test_count_tables_of_every_dimension(self, s3_table):
        rng = random.Random(44)
        rounded = round_to_binary(FunctionTable(9, np.random.default_rng(9).random(1 << 9)), 3)
        for f in (Instance.generate(2, seed=1).table, s3_table, rounded):
            for codim in range(f.n + 1):
                h = random_subspace_of_codim(f.n, codim, rng)
                for eps in ("1/48", "1/6"):
                    self.assert_same(f, h, eps)


def traced_peak(fn, *args) -> int:
    """Bytes a call allocates at its peak above the usage it starts from,
    as tracemalloc (which numpy reports its arrays to) sees them."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestScanMemory:
    """Scans of an n = 20 table work in blocks of at most _CHUNK entries
    (one row when a coset is larger): besides per-coset results they
    hold a few blocks, far below the 8 * 2^n bytes of the float table.
    A whole-table gather and transform would take about twice that."""

    N = 20
    TABLE = 8 << N

    @pytest.fixture(scope="class")
    def tables(self):
        n = self.N
        smooth = FunctionTable(n, 0.2 + 0.6 * np.random.default_rng(20).random(1 << n))
        points = np.arange(1 << n, dtype=np.int64)
        counts = np.zeros(1 << n, dtype=np.uint8)
        for weight, chi in zip((3, 2, 1), (0b1011, 0b110 << 8, (1 << (n - 1)) | 3)):
            counts += np.uint8(weight) * ((np.bitwise_count(points & chi) & 1) == 0)
        return smooth, FunctionTable.from_counts(n, counts, 6)

    def subspace(self, dim):
        return random_subspace_of_codim(self.N, self.N - dim, random.Random(dim))

    @pytest.mark.parametrize(
        "dim, fraction", [(4, 1 / 2), (7, 1 / 4), (10, 1 / 4), (17, 1 / 2)]
    )
    def test_check_subspace_regularity(self, tables, dim, fraction):
        # class-major blocks at dims 4, 7 and 10 (dim 4: 2^16 cosets, most
        # of them irregular, with their witnesses); dim 17: rows of 2^17
        # entries, one at a time, and the span of H
        h = self.subspace(dim)
        assert traced_peak(check_subspace_regularity, tables[0], h, "1/16") < fraction * self.TABLE

    def test_zero_subspace_check_of_a_count_table(self):
        # the count path checks n without building the 2^n coset reps
        # that its report builds once
        n = 18
        counts = np.random.default_rng(18).integers(0, 7, size=1 << n, dtype=np.uint8)
        f = FunctionTable.from_counts(n, counts, 6)
        reps = 8 << n
        assert traced_peak(check_subspace_regularity, f, Subspace.zero(n), "1/16") < 2 * reps

    def test_energy_of_a_count_table(self, tables):
        assert traced_peak(energy, tables[1], self.subspace(10)) < self.TABLE / 8

    def test_find_regular_subspace_on_a_count_table(self, tables):
        # the decomposition keeps the count spectrum (int32 here) for all
        # rounds; each round's scan reads it in chunks of classes
        spectrum = fourier._count_spectrum(tables[1]).nbytes
        peak = traced_peak(find_regular_subspace, tables[1], "1/10")
        assert peak < spectrum + self.TABLE / 4


class TestNarrowTransforms:
    """Count transforms run in int32 exactly when denominator << dim is
    below 2^31, and are exact on both sides of that bound."""

    def test_dtype_at_the_bound(self):
        assert fourier._count_dtype((1 << 20) - 1, 11) is np.int32
        assert fourier._count_dtype(1 << 20, 11) is np.int64
        assert fourier._count_dtype(1, 62) is np.int64
        with pytest.raises(OverflowError):
            fourier._count_dtype(2, 62)

    def test_signed_on_a_strided_int32_column(self):
        table = np.random.default_rng(5).integers(-9, 9, (128, 4)).astype(np.int32)
        reps, eta = np.arange(128, dtype=np.int64), np.int64(0b1011)
        odd = (np.bitwise_count(reps & eta) & 1).astype(bool)
        expected = np.where(odd, -table[:, 1], table[:, 1])
        assert np.array_equal(fourier._signed(table[:, 1], reps, eta), expected)
        assert np.array_equal(table[:, 1], expected)

    @pytest.mark.parametrize("den", [(1 << 20) - 1, 1 << 20])
    def test_full_counts_reach_the_bound_exactly(self, den):
        n = 11
        f = FunctionTable.from_counts(n, np.full(1 << n, den, dtype=np.int64), den)
        expected = np.int64(den) << n  # 2^31 - 2^11 and 2^31
        full = Subspace.full(n).span_array()
        table, scale = fourier._coset_transform(f, full, np.zeros(1, np.int64))
        assert scale == expected and table[0, 0] == expected
        assert table.dtype == fourier._count_dtype(den, n)
        spectrum = fourier._count_spectrum(f)
        assert spectrum[0] == expected and not spectrum[1:].any()

    @pytest.mark.parametrize("den", [(1 << 20) - 1, 1 << 20])
    def test_random_counts_match_int64(self, den):
        n = 11
        rng = np.random.default_rng(den)
        counts = np.where(rng.random(1 << n) < 0.9, den, rng.integers(0, den + 1, 1 << n))
        f = FunctionTable.from_counts(n, counts, den)
        spectrum = fourier._count_spectrum(f)
        reference = fourier._fwht(counts.astype(np.int64))
        assert np.array_equal(spectrum, reference)
        hs = [random_subspace_of_codim(n, codim, random.Random(codim)) for codim in range(n + 1)]
        for h in hs:
            reps = h.coset_representative_array()
            table, _ = fourier._coset_transform(f, h.span_array(), reps)
            index = reps[:, None] ^ h.span_array()[None, :]
            assert np.array_equal(table, fourier._fwht(counts[index].astype(np.int64)))
        classes = np.arange(1 << n, dtype=np.int64)[None]
        table = fourier._dual_table(spectrum, top_duals(hs[1:2]), classes)
        assert np.array_equal(table, fourier._dual_table(reference, top_duals(hs[1:2]), classes))


class TestCountValidation:
    VALUES = np.array([0.0, 0.5, 0.5, 1.0])

    @pytest.mark.parametrize("counts, den, match", [
        ([0, 7, -3, 2**40], 0, "denominator"),
        ([0, 1, 1, 2], 0, "denominator"),
        ([0, 1, 1, 2], -2, "denominator"),
        ([0, 1, 1, 2], 2.0, "denominator"),
        ([0, 1, 1, 2], True, "denominator"),
        ([0, 1, 1, 2], "2", "denominator"),
        ([0.0, 1.0, 1.0, 2.0], 2, "integer dtype"),
        ([True, False, False, True], 2, "integer dtype"),
        ([0, 1, -1, 2], 2, r"\[0, denominator"),
        ([0, 1, 1, 3], 2, r"\[0, denominator"),
        ([0, 7, -3, 2**40], 2, r"\[0, denominator"),
    ])
    def test_rejected(self, counts, den, match):
        with pytest.raises(ValueError, match=match):
            FunctionTable(2, self.VALUES, counts=np.array(counts), denominator=den)

    def test_accepted_and_normalized(self):
        f = FunctionTable(2, self.VALUES, counts=np.array([0, 1, 1, 2], np.uint8),
                          denominator=np.int64(2))
        assert type(f.denominator) is int and f.denominator == 2
        wide = FunctionTable(2, self.VALUES, counts=np.array([0, 150, 150, 300]), denominator=300)
        assert wide.counts.max() == 300


class TestValueValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, np.nextafter(1.0, 2.0)])
    @pytest.mark.parametrize("index", [0, 37, 63])
    def test_out_of_range_rejected(self, bad, index):
        values = np.full(64, 0.5)
        values[index] = bad
        with pytest.raises(ValueError, match=r"^table values must lie in \[0, 1\]$"):
            FunctionTable(6, values)

    def test_endpoints_and_negative_zero_accepted(self):
        values = np.array([0.0, -0.0, 1.0, 0.25])
        assert FunctionTable(2, values).values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("den", [1, 3, 6, 48, 255])
    def test_from_counts_round_trips_every_count(self, den):
        counts = np.zeros(256, dtype=np.uint8 if den < 256 else np.int64)
        counts[: den + 1] = np.arange(den + 1)
        f = FunctionTable.from_counts(8, counts, den)
        assert f.values.tolist() == [int(k) / den for k in counts]
        assert np.array_equal(np.rint(f.values * den), counts)
        assert f.counts.tobytes() == counts.tobytes() and f.denominator == den

    # Slack for traced Python objects: far below one 2^18-entry bool array
    # (256 KiB), so a full-size temporary of any dtype fails these.
    SLACK = 64 << 10

    def traced_peak(self, fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_validation_allocates_no_table(self):
        values = np.random.default_rng(8).random(1 << 18)
        _, peak = self.traced_peak(FunctionTable, 18, values)
        assert peak <= self.SLACK, peak

    def test_from_counts_holds_one_float_table(self):
        counts = np.random.default_rng(7).integers(0, 7, size=1 << 18, dtype=np.uint8)
        f, peak = self.traced_peak(FunctionTable.from_counts, 18, counts, 6)
        assert peak <= f.values.nbytes + self.SLACK, peak

    def test_given_arrays_are_frozen_not_copied(self):
        # the table owns what it is given: the caller's arrays become its
        # read-only storage
        counts = np.array([0, 1, 2, 3, 3, 2, 1, 0], dtype=np.uint8)
        values = counts / 3.0
        f = FunctionTable(3, values, counts=counts, denominator=3)
        assert np.shares_memory(f.values, values) and np.shares_memory(f.counts, counts)
        for a in (values, counts):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        g = FunctionTable(3, np.arange(16.0)[::2] / 16)  # strided: copied, then frozen
        assert g.values.flags.c_contiguous and not g.values.flags.writeable


def holds_values(f):
    """Whether a table holds float values, given or built from its counts."""
    return vars(f)["values"] is not None


class TestValuesOnFirstRead:
    """A table given only counts holds no float values until something
    reads them; then they are counts / denominator, built once."""

    def test_from_counts_allocates_no_float_table(self):
        # the values of an n = 20 table take 8 MiB
        n = 20
        counts = np.random.default_rng(31).integers(0, 7, size=1 << n, dtype=np.uint8)
        tracemalloc.start()
        try:
            f = FunctionTable.from_counts(n, counts, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak
        assert not holds_values(f)

    def test_count_paths_read_no_values(self):
        n = 12
        counts = np.random.default_rng(32).integers(0, 7, size=1 << n, dtype=np.uint8)
        f = FunctionTable.from_counts(n, counts, 6)
        for codim in (0, 5, n):
            h = random_subspace_of_codim(n, codim, random.Random(codim))
            check_subspace_regularity(f, h, "1/16")
            energy(f, h)
        find_regular_subspace(f, "1/10")
        g = FunctionTable(n, np.random.default_rng(33).random(1 << n))
        rounded = round_to_binary(g, 3)
        report = deviation_report(g, rounded, 4.0, sample_pairs(n, 50, 3, 4))
        assert report.records
        assert not holds_values(f) and not holds_values(rounded)

    @pytest.mark.parametrize("den", [1, 3, 6, 7, 255])
    def test_values_are_built_once_from_the_counts(self, den):
        counts = np.random.default_rng(den).integers(0, den + 1, size=1 << 10).astype(np.uint8)
        f = FunctionTable.from_counts(10, counts, den)
        expected = counts.astype(np.float64)
        expected /= float(den)
        values = f.values
        assert values.tobytes() == expected.tobytes()
        assert f.values is values and not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.5

    def test_given_values_are_kept(self):
        counts = np.array([0, 1, 2, 3], dtype=np.uint8)
        values = np.array([0.0, 0.25, 0.5, 0.75])  # not counts / 3
        f = FunctionTable(2, values, counts=counts, denominator=3)
        assert f.values is values
        g = dataclasses.replace(FunctionTable.from_counts(2, counts, 3), values=values)
        assert g.values is values and g.counts is counts

    def test_a_table_needs_values_or_counts(self):
        with pytest.raises(ValueError, match="values or counts"):
            FunctionTable(2)

    def test_mean_and_is_binary_read_the_counts(self):
        # the values of an n = 20 table take 8 MiB
        n = 20
        rounded = round_to_binary(FunctionTable(n, np.random.default_rng(34).random(1 << n)), 5)
        for call in (rounded.is_binary, rounded.mean):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20, (call, peak)
        assert rounded.is_binary() is True and not holds_values(rounded)

    @pytest.mark.parametrize("den", [1, 3, 6])
    def test_count_mean_is_the_exact_ratio(self, den):
        n = 20
        counts = np.random.default_rng(den).integers(0, den + 1, size=1 << n).astype(np.uint8)
        f = FunctionTable.from_counts(n, counts, den)
        assert f.mean() == float(Fraction(int(counts.sum()), den << n))
        assert f.is_binary() == (den == 1)
        assert FunctionTable.from_counts(n, counts // den * den, den).is_binary()
        assert not holds_values(f)

    def test_is_binary_on_float_tables(self):
        assert FunctionTable(2, np.array([0.0, 1.0, 1.0, 0.0])).is_binary() is True
        assert FunctionTable(2, np.array([0.0, 1.0, 0.5, 0.0])).is_binary() is False


class TestGuards:
    """Malformed tables, and cosets or characters outside the table's F2^n."""

    @pytest.mark.parametrize("kwargs, error", [
        ({"n": 0, "values": np.zeros(1)}, "^n must be positive, got 0$"),
        ({"n": 2, "values": np.zeros(3)}, r"^table must have 2\^2 entries, got \(3,\)$"),
        ({"n": 2, "values": np.zeros(4), "counts": np.zeros(4, np.uint8)},
         "^counts and denominator must be given together$"),
        ({"n": 2, "counts": np.zeros(3, np.uint8), "denominator": 1},
         "^counts must match table length$"),
    ])
    def test_malformed_tables(self, kwargs, error):
        with pytest.raises(ValueError, match=error):
            FunctionTable(**kwargs)

    def test_coset_outside_the_table(self, s2_table):
        coset = AffineSubspace(Subspace.zero(4))
        with pytest.raises(DimensionMismatchError, match="^table n=3 vs coset n=4$"):
            restricted_coefficient(s2_table, coset, F2Vector(4, 0))
        with pytest.raises(DimensionMismatchError, match="^table n=3 vs coset n=4$"):
            restricted_spectrum(s2_table, coset)

    def test_character_outside_the_table(self, s2_table):
        coset = AffineSubspace(Subspace.full(3))
        with pytest.raises(DimensionMismatchError, match="^character n=4 vs table n=3$"):
            restricted_coefficient(s2_table, coset, F2Vector(4, 1))
        for eta in (8, -1):
            with pytest.raises(ValueError, match=f"^character {eta} out of range for n=3$"):
                restricted_coefficient(s2_table, coset, eta)
        # an int character in range is the F2Vector's encoding
        assert restricted_coefficient(s2_table, coset, 5) == S2_SPECTRUM[5]
