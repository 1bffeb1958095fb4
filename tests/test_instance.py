"""Tower dims, spanning families, xi construction, instance tables."""

import random
from fractions import Fraction

import numpy as np
import pytest

from f2reglab import (
    DimensionMismatchError,
    F2Vector,
    Instance,
    RetryLimitError,
    TowerOverflowError,
    TowerParams,
    TowerValue,
    block_dims,
    build_xi,
    eval_pointwise,
    generate_spanning_family,
    term_indicator_table,
    tower_value,
    verify_spanning_family,
    verify_spanning_family_sampled,
)
from f2reglab import instance
from f2reglab.fourier import _count_spectrum
from f2reglab.instance import _SAMPLE_CHUNK, SpanningCheck, eval_count, manifest
from f2reglab.rng import Stream

S2_VALUES = [1.0, 0.5, 0.5, 0.5, 1.0, 0.0, 0.5, 0.0]


def sampled_check_loop(bits, rho, d, samples, seed):
    """Reference sampled check: one nonzero_bits draw and one fold of
    bigint columns per sample, the loop the table-driven kernel replaces."""
    rho = Fraction(rho)
    count = len(bits)
    columns = [0] * d
    for j, v in enumerate(bits):
        for b in range(d):
            if v >> b & 1:
                columns[b] |= 1 << j
    stream = Stream(seed, "spanning/sampled")
    worst, incidence = 0, -1
    for _ in range(samples):
        eta = stream.nonzero_bits(d)
        fold = 0
        for b in range(d):
            if eta >> b & 1:
                fold ^= columns[b]
        inside = count - fold.bit_count()
        if inside > incidence:
            incidence, worst = inside, eta
    return SpanningCheck(
        ok=incidence * rho.denominator <= rho.numerator * count,
        count=count,
        rho=rho,
        incidence=incidence,
        worst=F2Vector(d, worst),
        certified=False,
        samples=samples,
    )


class TestTowerValue:
    @pytest.mark.parametrize("h,expected", [(0, 1), (1, 2), (2, 4), (3, 16), (4, 65536)])
    def test_materialized(self, h, expected):
        assert tower_value(h) == expected

    def test_symbolic_levels(self):
        t5 = tower_value(5)
        assert isinstance(t5, TowerValue) and t5.log2 == 65536
        t6 = tower_value(6)
        assert t6.log2 == 1 << 65536

    def test_recursion_consistency(self):
        assert tower_value(5).log2 == tower_value(4)
        assert tower_value(6).log2 == tower_value(5).materialize()

    def test_overflow_policy(self):
        with pytest.raises(TowerOverflowError):
            tower_value(7)

    def test_comparisons(self):
        assert tower_value(5) >= 65536
        assert tower_value(5) >= (1 << 65536)
        assert not tower_value(5) >= (1 << 65536) + 1
        assert tower_value(6) >= tower_value(5)


class TestBlockDims:
    def test_minimal(self):
        params = block_dims(1)
        assert params.dims == (1,) and params.n == 1

    def test_three_blocks(self):
        params = block_dims(3)
        assert params.dims == (1, 2, 8)
        assert params.n == 11
        assert params.epsilon_max == Fraction(1, 48)

    def test_five_blocks_exact(self):
        params = block_dims(5)
        assert params.dims == (1, 2, 8, 256, 1 << 264)
        assert params.n == 267 + (1 << 264)

    def test_tail_blocks_are_eight_times_smaller_than_index_count(self):
        params = block_dims(5)
        sums = params.prefix_sums
        for i in (4, 5):
            assert 1 << sums[i - 1] == 8 * params.dims[i - 1]

    def test_dominates_tower_function(self):
        params = block_dims(5)
        for i, d in enumerate(params.dims, start=1):
            t = tower_value(i - 1)
            if isinstance(t, TowerValue):
                assert TowerValue(log2=d.bit_length() - 1) >= t
            else:
                assert d >= t

    def test_six_blocks_symbolic(self):
        params = block_dims(6)
        assert isinstance(params.dims[5], TowerValue)
        assert params.dims[5].log2 == 264 + (1 << 264)
        with pytest.raises(TowerOverflowError):
            params.n

    def test_seven_blocks_refused(self):
        with pytest.raises(TowerOverflowError):
            block_dims(7)

    def test_dense_possible(self):
        assert block_dims(3).dense_possible()
        assert not block_dims(4).dense_possible()


def brute_incidences(vectors, d):
    """Oracle: per-hyperplane member counts by direct inner products."""
    out = {}
    for eta in range(1, 1 << d):
        out[eta] = sum(
            1 for v in vectors if bin(v.bits & eta).count("1") % 2 == 0
        )
    return out


class TestVerifySpanningFamily:
    def test_basis_passes_at_rho_one(self):
        for d in (1, 2, 8):
            family = [F2Vector(d, 1 << j) for j in range(d)]
            check = verify_spanning_family(family, 1, d=d)
            assert check.ok and check.certified
            assert check.incidence == d - 1 if d > 1 else check.incidence == 0

    def test_single_nonzero_vector_dimension_one(self):
        family, check = generate_spanning_family(1, 1, 1, seed=0)
        assert family == [1]
        assert check.ok and check.certified

    def test_degenerate_repeats_fail(self):
        family = [F2Vector(4, 3)] * 32
        check = verify_spanning_family(family, "3/4", d=4)
        assert not check.ok and check.incidence == 32

    def test_incidence_matches_brute_force(self):
        rng = random.Random(5)
        for d in (2, 3, 5):
            family = [F2Vector(d, rng.randint(1, (1 << d) - 1)) for _ in range(4 * d)]
            check = verify_spanning_family(family, "3/4", d=d)
            oracle = brute_incidences(family, d)
            assert check.incidence == max(oracle.values())
            # worst hyperplane reaches the reported incidence
            assert oracle[check.worst.bits] == check.incidence

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            verify_spanning_family([F2Vector(3, 0)], 1, d=3)

    def test_entries_of_another_dimension_rejected(self):
        family = [F2Vector(3, 5), F2Vector(3, 6), F2Vector(3, 3)]
        with pytest.raises(DimensionMismatchError, match="d=8"):
            verify_spanning_family(family, 1, d=8)
        with pytest.raises(DimensionMismatchError, match="d=8"):
            verify_spanning_family_sampled([F2Vector(300, 5)], "3/4", d=8, samples=5, seed=0)

    def test_sampled_agrees_with_exact_on_small_d(self):
        rng = random.Random(9)
        family = [F2Vector(6, rng.randint(1, 63)) for _ in range(48)]
        exact = verify_spanning_family(family, "3/4", d=6)
        sampled = verify_spanning_family_sampled(family, "3/4", d=6, samples=4000, seed=1)
        assert not sampled.certified
        assert sampled.incidence <= exact.incidence
        # 4000 draws over 63 hyperplanes: the max is found
        assert sampled.incidence == exact.incidence


class TestSampledKernel:
    """The table-driven sampled check against the per-sample loop."""

    @pytest.mark.parametrize("d", [1, 2, 3, 63, 64, 65, 130, 256])
    def test_bit_identical_to_loop(self, d):
        rng = random.Random(d)
        # counts off multiples of 64, and a family of repeated vectors
        for count in (1, 5, 8 * d + 3, 131):
            family = [rng.randint(1, (1 << d) - 1) for _ in range(count)]
            family[count // 2 :] = family[: count - count // 2]
            # tiny d rejects many zero etas; 2 * chunk + 5 spans three chunks
            for samples in (1, 7, 2 * _SAMPLE_CHUNK + 5):
                for seed in (0, 11):
                    expected = sampled_check_loop(family, "3/4", d, samples, seed)
                    got = verify_spanning_family_sampled(family, "3/4", d, samples, seed)
                    assert got == expected, (count, samples, seed)

    def test_empty_family(self):
        got = verify_spanning_family_sampled([], "3/4", d=70, samples=9, seed=4)
        assert got == sampled_check_loop([], "3/4", 70, 9, 4)
        assert got.incidence == 0 and got.ok

    def test_samples_below_one_rejected(self):
        with pytest.raises(ValueError):
            verify_spanning_family_sampled([1, 2, 3], "3/4", d=2, samples=0, seed=0)

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ValueError):
            verify_spanning_family_sampled([], "3/4", d=0, samples=10, seed=0)

    def test_family_draw_matches_scalar_draws(self):
        family, _ = generate_spanning_family(
            40, 320, "3/4", seed=5, sampled_samples=300, dense_limit=20
        )
        stream = Stream(5, "spanning/0")
        assert family == [stream.nonzero_bits(40) for _ in range(320)]

    def test_s4_check_pinned(self):
        # recorded with the per-sample loop
        check = build_xi(block_dims(4), seed=3, sampled_samples=2000).checks[3]
        assert check.incidence == 1094
        assert check.worst.bits == 0x69EC3236FE798E472202997B65E8F902704E3AD6CE04B09C119B81664E91AF39

    def test_s4_check_is_the_accepting_check(self):
        # the recorded check equals a fresh one at the block seed
        xi = build_xi(block_dims(4), seed=3, sampled_samples=2000)
        fresh = verify_spanning_family_sampled(
            xi.families[3], "3/4", d=256, samples=2000, seed=Stream(3, "xi/4").u64()
        )
        assert xi.checks[3] == fresh

    def test_s4_family_checked_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return verify_spanning_family_sampled(*args, **kwargs)

        monkeypatch.setattr(instance, "verify_spanning_family_sampled", counting)
        build_xi(block_dims(4), seed=3, sampled_samples=2000)
        assert calls == [Stream(3, "xi/4").u64()]

    def test_retry_returns_later_attempt_and_its_check(self):
        def draw(attempt):
            stream = Stream(0, f"spanning/{attempt}")
            return [stream.nonzero_bits(40) for _ in range(320)]

        rho = Fraction(183, 320)
        assert not verify_spanning_family_sampled(draw(0), rho, d=40, samples=300, seed=0).ok
        family, check = generate_spanning_family(
            40, 320, rho, seed=0, sampled_samples=300, dense_limit=20
        )
        assert family == draw(1)
        assert check.ok
        assert check == verify_spanning_family_sampled(family, rho, d=40, samples=300, seed=0)


class TestGenerateSpanningFamily:
    def test_canonical_parameters_succeed(self):
        family, check = generate_spanning_family(8, 64, "3/4", seed=42)
        assert len(family) == 64
        assert check == verify_spanning_family(family, "3/4", d=8)
        assert check.ok and check.incidence <= 48

    def test_impossible_parameters_hit_retry_cap(self):
        # 8 vectors spanning F2^8 must be a basis, and a basis always has
        # a hyperplane holding d-1 = 7 > (3/4) * 8 of it
        with pytest.raises(RetryLimitError):
            generate_spanning_family(8, 8, "3/4", seed=0, max_retries=5)

    def test_count_below_dimension_rejected(self):
        with pytest.raises(ValueError):
            generate_spanning_family(8, 4, "3/4", seed=0)

    def test_rho_range(self):
        with pytest.raises(ValueError):
            generate_spanning_family(4, 32, "1/2", seed=0)


class TestBuildXi:
    def test_s2_canonical(self):
        xi = build_xi(block_dims(2), seed=1)
        assert xi.families[0] == (1,)
        assert xi.families[1] == (1, 2)

    def test_s3_third_block_is_basis(self):
        xi = build_xi(block_dims(3), seed=1)
        assert xi.families[2] == tuple(1 << p for p in range(8))
        assert all(c.ok for c in xi.checks)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_basis_checks_equal_the_exhaustive_scan(self, d):
        for count in range(d + 1):
            family = [1 << p for p in range(count)]
            expected = verify_spanning_family(family, Fraction(1), d=d)
            assert instance._basis_check(count, d) == expected

    def test_basis_branch_ignores_the_dense_limit(self):
        # a 30-dimensional block of 2 units: no 2^30 scan, no DenseLimitError
        xi = build_xi(TowerParams(2, (1, 30)), seed=0, dense_limit=40)
        assert xi.families == ((1,), (1, 2))
        assert xi.checks[1] == instance._basis_check(2, 30)
        assert xi.checks[1].incidence == 2 and xi.checks[1].worst == F2Vector(30, 4)

    def test_gamma_entries_never_zero(self):
        xi = build_xi(block_dims(3), seed=1)
        assert all(v != 0 for family in xi.families for v in family)

    def test_s4_sampled_family(self):
        xi = build_xi(block_dims(4), seed=3, sampled_samples=2000)
        assert len(xi.families[3]) == 2048 == 8 * 256
        assert all(0 < v < (1 << 256) for v in xi.families[3])
        check = xi.checks[3]
        assert check.ok and not check.certified and check.samples == 2000


class TestFunctionTable:
    def test_s2_canonical_values(self):
        inst = Instance.generate(2, seed=1)
        assert inst.table.values.tolist() == S2_VALUES
        assert inst.table.mean() == 0.5
        # every value is a multiple of 1/s
        assert np.all(inst.table.counts <= 2)
        assert inst.table.denominator == 2

    def test_hand_points(self):
        inst = Instance.generate(2, seed=1)
        f = inst.table.values
        assert f[0] == 1.0  # x = 000
        assert f[7] == 0.0  # x = 111
        assert f[F2Vector.from_string("110").bits] == 0.5

    def test_pointwise_agreement_full_domain(self):
        for s in (1, 2, 3):
            inst = Instance.generate(s, seed=4)
            for x in range(1 << inst.n):
                assert inst.table.values[x] == eval_pointwise(inst.params, inst.xi, x)

    def test_eval_at_zero_is_one(self):
        for s in (1, 2, 3):
            inst = Instance.generate(s, seed=0)
            assert eval_pointwise(inst.params, inst.xi, 0) == 1.0

    def test_s2_point_101(self):
        inst = Instance.generate(2, seed=1)
        x = F2Vector.from_string("101")
        assert eval_pointwise(inst.params, inst.xi, x) == 0.0

    def test_s4_pointwise_without_table(self):
        inst = Instance.generate(4, seed=3, sampled_samples=2000)
        assert inst.table is None
        assert inst.n == 267
        assert eval_pointwise(inst.params, inst.xi, 0) == 1.0
        assert eval_count(inst.xi, (1 << 267) - 1) <= 4

    def test_term_indicators_sum_to_counts(self):
        inst = Instance.generate(3, seed=2)
        total = np.zeros(1 << inst.n, dtype=np.int64)
        for j in range(1, 4):
            term = term_indicator_table(inst.params, inst.xi, j)
            assert term.is_binary()
            total += term.counts.astype(np.int64)
        assert np.array_equal(total, inst.table.counts.astype(np.int64))


def closed_form_spectrum(inst):
    """The instance's integer spectrum F(eta) = sum_x counts(x) (-1)^<x, eta>
    from its closed form, in plain Python: F(0) = s * 2^(n-1), and for
    eta != 0 whose highest nonzero block is i, F(eta) is 2^(n - D_{i-1} - 1)
    times the sum over prefixes p with xi_i(p) = eta^i of
    (-1)^<p, eta^{<i}>.  Each block term is hit on half of F2^n, and the
    terms of the other blocks cancel, since the families hold only
    nonzero vectors."""
    n, s, offsets = inst.n, inst.s, inst.xi.blocks.offsets
    out = [s << (n - 1)]
    for eta in range(1, 1 << n):
        i = max(k for k in range(1, s + 1) if eta >> offsets[k - 1])
        lo = offsets[i - 1]
        block, prefix = eta >> lo, eta & ((1 << lo) - 1)
        total = sum(
            1 - 2 * (bin(p & prefix).count("1") % 2)
            for p, entry in enumerate(inst.xi.families[i - 1])
            if entry == block
        )
        out.append(total << (n - lo - 1))
    return out


class TestClosedFormSpectrum:
    """`_count_spectrum`, which every count-table verdict and certificate
    reads, equals the closed form entry for entry."""

    @pytest.mark.parametrize("s, nonzero", [(2, 6), (3, 70)])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_count_spectrum_matches(self, s, nonzero, seed):
        inst = Instance.generate(s, seed=seed)
        expected = closed_form_spectrum(inst)
        assert _count_spectrum(inst.table).tolist() == expected
        assert sum(map(bool, expected)) == nonzero


class TestCustomDims:
    def test_small_blocks_use_basis_prefixes(self):
        from f2reglab import custom_params

        inst = Instance.generate(2, seed=1)
        custom = Instance.from_params(custom_params((1, 3)), seed=1)
        assert custom.n == 4
        assert custom.xi.families == ((1,), (1, 2))
        assert inst.xi.families[0] == custom.xi.families[0]

    def test_wide_block_sampled(self):
        from f2reglab import custom_params

        custom = Instance.from_params(custom_params((3, 4)), seed=5)
        assert len(custom.xi.families[1]) == 8
        assert custom.xi.checks[1].ok
        for x in range(1 << 7):
            assert custom.table.values[x] == eval_pointwise(custom.params, custom.xi, x)

    def test_capacity_constraint_enforced(self):
        from f2reglab import custom_params

        with pytest.raises(ValueError):
            custom_params((2, 2))  # 4 prefixes, only 3 nonzero vectors in F2^2

    def test_canonical_dims_unchanged(self):
        from f2reglab import custom_params

        a = Instance.generate(3, seed=2)
        b = Instance.from_params(custom_params((1, 2, 8)), seed=2)
        assert a.xi.families == b.xi.families


class TestManifest:
    def test_roundtrip_and_content(self):
        inst = Instance.generate(2, seed=9)
        data = manifest(inst)
        assert data["s"] == 2 and data["n"] == 3 and data["seed"] == 9
        assert data["dims"] == [1, 2]
        assert data["xi"] == {"1": [1], "2": [1, 2]}
        assert data["epsilon_max"] == "1/32"
        assert data["dense"] is True

    def test_regeneration_from_seed_matches(self):
        a = Instance.generate(3, seed=11)
        b = Instance.generate(3, seed=11)
        assert a.xi.families == b.xi.families
        assert np.array_equal(a.table.values, b.table.values)
