"""Randomized rounding: reproducibility, unbiasedness, deviations."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from f2reglab import (
    AffineSubspace,
    DimensionMismatchError,
    F2Vector,
    FunctionTable,
    Instance,
    Subspace,
    check_subspace_regularity,
    deviation_report,
    enumerate_all_subspaces,
    round_to_binary,
    sample_pairs,
    wht_full,
)
from f2reglab.gf2 import parity64
from f2reglab.rng import Stream, keyed_uniforms
from f2reglab import fourier, rounding
from f2reglab.rounding import _SIGN_ENTRIES, _SPLIT, round_point, size_threshold

# frozen: rounding the two-block instance table with this seed keeps
# every nonzero subspace irregular at half the instance's design level
SPOT_CHECK_SEED = 1
SPOT_CHECK_TABLE = [1, 0, 1, 0, 1, 0, 0, 0]


class TestRoundToBinary:
    def test_endpoints_forced(self):
        values = np.array([0.0, 1.0, 0.0, 1.0])
        for seed in (0, 1, 99):
            rounded = round_to_binary(FunctionTable(2, values), seed)
            assert rounded.values.tolist() == values.tolist()

    def test_binary_everywhere_and_counts(self):
        rng = random.Random(5)
        f = FunctionTable(8, np.array([rng.random() for _ in range(256)]))
        rounded = round_to_binary(f, 3)
        assert rounded.is_binary()
        assert rounded.denominator == 1
        assert np.array_equal(rounded.counts, rounded.values.astype(np.uint8))

    def test_deterministic_and_seed_sensitive(self):
        f = FunctionTable.constant(10, 0.5)
        a = round_to_binary(f, 7)
        b = round_to_binary(f, 7)
        c = round_to_binary(f, 8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_half_table_mean_concentrates(self):
        f = FunctionTable.constant(16, 0.5)
        rounded = round_to_binary(f, 7)
        assert abs(rounded.mean() - 0.5) < 0.02

    def test_pointwise_replay(self):
        rng = random.Random(6)
        f = FunctionTable(6, np.array([rng.random() for _ in range(64)]))
        rounded = round_to_binary(f, 11)
        for x in range(64):
            assert round_point(f, 11, x) == int(rounded.values[x])

    def test_per_point_unbiased(self):
        rng = random.Random(7)
        f = FunctionTable(4, np.array([rng.random() for _ in range(16)]))
        hits = np.zeros(16)
        for seed in range(1000):
            hits += round_to_binary(f, seed).values
        assert np.max(np.abs(hits / 1000 - f.values)) < 0.05

    @pytest.mark.parametrize("n", [3, 15, 16, 17])  # below, at, two and four chunks
    def test_chunks_equal_one_unchunked_draw(self, n):
        f = float_table(n, 40 + n)
        rounded = round_to_binary(f, 9)
        draws = keyed_uniforms(9, "rounding", np.arange(f.size, dtype=np.uint64))
        assert np.array_equal(rounded.counts, (draws < f.values).astype(np.uint8))
        for start in range(0, f.size, rounding._CHUNK_POINTS):
            for x in (start, min(start + rounding._CHUNK_POINTS, f.size) - 1):
                assert round_point(f, 9, x) == rounded.counts[x]

    def test_peak_memory_is_the_result(self):
        f = float_table(18, 41)
        tracemalloc.start()
        try:
            rounded = round_to_binary(f, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rounded.values.nbytes + rounded.counts.nbytes + (1 << 20), peak


class TestDeviationReport:
    def test_binary_input_identity(self):
        rng = random.Random(8)
        f = round_to_binary(
            FunctionTable(8, np.array([rng.random() for _ in range(256)])), 1
        )
        again = round_to_binary(f, 2)
        assert np.array_equal(f.values, again.values)
        pairs = [(AffineSubspace(Subspace.full(8)), F2Vector(8, eta)) for eta in range(16)]
        report = deviation_report(f, again, tau=0.5, pairs=pairs)
        assert report.max_deviation == 0.0 and report.ok

    def test_size_threshold_filters(self):
        f = FunctionTable.constant(6, 0.5)
        s = round_to_binary(f, 1)
        small = AffineSubspace(Subspace.from_vectors(6, [1]))  # size 2
        big = AffineSubspace(Subspace.full(6))  # size 64
        tau = 1.5  # threshold 4*36/2.25 = 64
        report = deviation_report(f, s, tau=tau, pairs=[(small, 1), (big, 1)])
        assert report.skipped_small == 1
        assert len(report.records) == 1 and report.records[0].size == 64
        assert size_threshold(6, tau) == 64.0

    def test_deviation_matches_direct_computation(self):
        rng = random.Random(9)
        f = FunctionTable(10, np.array([rng.random() for _ in range(1024)]))
        s = round_to_binary(f, 4)
        pairs = sample_pairs(10, 12, seed=21, max_codim=0)
        report = deviation_report(f, s, tau=1.9, pairs=pairs)
        from f2reglab import restricted_coefficient

        for rec, (coset, eta) in zip(report.records, pairs):
            expected = abs(
                restricted_coefficient(s, coset, eta)
                - restricted_coefficient(f, coset, eta)
            )
            assert rec.deviation == pytest.approx(expected, abs=1e-15)

    def test_full_space_scan_on_instance(self):
        inst = Instance.generate(3, seed=1)
        s = round_to_binary(inst.table, 5)
        # full space: size 2048 >= 4 * 121 / 0.25 = 1936
        assert 2048 >= size_threshold(11, 0.5)
        deviations = np.abs(wht_full(s) - wht_full(inst.table))
        assert float(deviations.max()) <= 0.5

    def test_sampled_pairs_deterministic(self):
        a = sample_pairs(12, 30, seed=2, max_codim=3)
        b = sample_pairs(12, 30, seed=2, max_codim=3)
        assert [(p[0], p[1].bits) for p in a] == [(p[0], p[1].bits) for p in b]
        assert all(p[0].size >= 1 << 9 for p in a)

    @pytest.mark.parametrize("n, max_codim", [(3, 3), (20, 4), (100, 6)])
    def test_sampled_pairs_equal_the_dual_span_oracle(self, n, max_codim):
        stream = Stream(5, "rounding/pairs")
        expected = []
        while len(expected) < 60:
            codim = stream.below(max_codim + 1)
            dual = Subspace.from_vectors(n, [stream.bits(n) for _ in range(codim)])
            if dual.dim != codim:
                continue
            h = dual.orthogonal_complement()
            rep, eta = F2Vector(n, stream.bits(n)), F2Vector(n, stream.bits(n))
            expected.append((AffineSubspace(h, rep), eta))
        assert sample_pairs(n, 60, 5, max_codim) == expected

    def test_sampled_codim_at_most_n(self):
        assert {p[0].subspace.dim for p in sample_pairs(3, 40, seed=1, max_codim=3)} == {0, 1, 2, 3}
        with pytest.raises(ValueError, match="exceeds n = 8"):
            sample_pairs(8, 20, seed=1, max_codim=9)

    def test_sampled_negative_arguments_refused(self):
        with pytest.raises(ValueError, match="count of pairs must be >= 0, got -5"):
            sample_pairs(8, -5, seed=1, max_codim=2)
        with pytest.raises(ValueError, match="max_codim must be >= 0, got -1"):
            sample_pairs(8, 20, seed=1, max_codim=-1)
        with pytest.raises(ValueError, match="max_codim"):
            sample_pairs(8, 0, seed=1, max_codim=-1)
        assert sample_pairs(8, 0, seed=1, max_codim=2) == []


def defining_mean_values(f, s, tau, pairs):
    """Oracle: the per-pair loop deviation_report replaced, with a fresh
    point array, float sign vector, product and mean per pair and table.
    Returns the (f_value, s_value) rows of the kept pairs."""
    threshold = size_threshold(f.n, tau)
    rows = []
    for coset, eta in pairs:
        if coset.size < threshold:
            continue
        eta_bits = eta.bits if isinstance(eta, F2Vector) else int(eta)
        points = coset.element_array()
        signs = 1.0 - 2.0 * parity64(points & np.int64(eta_bits))
        rows.append(
            (float((f.values[points] * signs).mean()), float((s.values[points] * signs).mean()))
        )
    return np.array(rows).reshape(-1, 2)


def assert_bit_equal_to_oracle(f, s, tau, pairs):
    report = deviation_report(f, s, tau=tau, pairs=pairs)
    got = np.array([(r.f_value, r.s_value) for r in report.records]).reshape(-1, 2)
    expected = defining_mean_values(f, s, tau, pairs)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    return report


def float_table(n, seed):
    return FunctionTable(n, np.random.default_rng(seed).random(1 << n))


def pairs_of_every_dim(n, seed):
    """One random (coset, character) pair of each dimension 0..n."""
    rng = random.Random(seed)
    pairs = []
    for dim in range(n + 1):
        while True:
            h = Subspace.from_vectors(n, [rng.getrandbits(n) for _ in range(dim)])
            if h.dim == dim:
                break
        rep, eta = F2Vector(n, rng.getrandbits(n)), rng.getrandbits(n)
        pairs.append((AffineSubspace(h, rep), eta))
    return pairs


class TestDeviationValuesBitEqual:
    """deviation_report against the defining-mean loop, bit for bit."""

    def test_float_f_binary_s(self):
        f = float_table(16, 1)
        pairs = sample_pairs(16, 40, seed=3, max_codim=4)
        report = assert_bit_equal_to_oracle(f, round_to_binary(f, 2), 1.9, pairs)
        assert len(report.records) == 40

    def test_binary_f_binary_s(self):
        g = float_table(14, 4)
        f, s = round_to_binary(g, 1), round_to_binary(g, 2)
        assert f.denominator == s.denominator == 1
        assert_bit_equal_to_oracle(f, s, 1.9, sample_pairs(14, 40, seed=5, max_codim=4))

    def test_count_tables_above_denominator_one_gather(self):
        inst = Instance.generate(3, seed=1).table  # denominator 3
        counts = np.random.default_rng(6).integers(0, 7, 1 << 11).astype(np.uint8)
        sixths = FunctionTable.from_counts(11, counts, 6)
        pairs = pairs_of_every_dim(11, 7)
        assert_bit_equal_to_oracle(inst, round_to_binary(inst, 8), 64.0, pairs)
        assert_bit_equal_to_oracle(sixths, round_to_binary(sixths, 9), 64.0, pairs)
        assert_bit_equal_to_oracle(sixths, inst, 64.0, pairs)

    def test_coset_dims_across_the_split(self):
        # tau = 64 makes the size threshold vacuous, so dims 0..14 are kept
        f, g = float_table(14, 10), float_table(14, 11)
        pairs = pairs_of_every_dim(14, 12)
        report = assert_bit_equal_to_oracle(f, round_to_binary(f, 13), 64.0, pairs)
        assert [r.size for r in report.records] == [1 << d for d in range(15)]
        assert_bit_equal_to_oracle(f, g, 64.0, pairs)
        assert_bit_equal_to_oracle(round_to_binary(g, 1), f, 64.0, pairs[::-1])

    def test_zero_table_under_negative_sign_is_positive_zero(self):
        # eta = e1 lies in H-perp of H = span{e2..e8}, and <e1, eta> = 1, so
        # every point of the coset e1 + H has sign -1 and product -0.0
        h = Subspace.from_vectors(8, [1 << j for j in range(1, 8)])
        pairs = [(AffineSubspace(h, F2Vector(8, 1)), 1)]
        zeros = FunctionTable.from_counts(8, np.zeros(256, dtype=np.uint8), 1)
        report = assert_bit_equal_to_oracle(FunctionTable.constant(8, 0.0), zeros, 64.0, pairs)
        record = report.records[0]
        assert record.f_value == record.s_value == 0.0
        assert not math.copysign(1.0, record.f_value) < 0
        assert not math.copysign(1.0, record.s_value) < 0

    def test_n18_coset_dims_across_chunks(self):
        # dims 12..18 give 1 to 64 grid rows: one partial chunk of the
        # 8-row chunks, one full chunk, and 2 to 8 chunks
        f, g = float_table(18, 20), float_table(18, 21)
        pairs = pairs_of_every_dim(18, 22)[12:]
        report = assert_bit_equal_to_oracle(f, round_to_binary(f, 23), 64.0, pairs)
        assert [r.size for r in report.records] == [1 << d for d in range(12, 19)]
        assert_bit_equal_to_oracle(f, g, 64.0, pairs)

    def test_float_and_sixths_gathered_in_one_call(self):
        counts = np.random.default_rng(24).integers(0, 7, 1 << 18).astype(np.uint8)
        sixths = FunctionTable.from_counts(18, counts, 6)
        pairs = pairs_of_every_dim(18, 25)[9:]
        assert_bit_equal_to_oracle(float_table(18, 26), sixths, 64.0, pairs)

    def test_more_characters_on_the_full_space_than_one_batch(self):
        # a batch holds _SIGN_ENTRIES block signs: one per 128-entry block
        # of a chunk, for each character of a coset of dim >= 15; eta = 0
        # comes first, the rest spill into a second batch of several
        # characters and a last batch of one
        batch = _SIGN_ENTRIES // (rounding._CHUNK_POINTS >> rounding._BLOCK_ROWS)
        rng = random.Random(31)
        etas = [0] + [rng.getrandbits(16) for _ in range(2 * batch)]
        full = AffineSubspace(Subspace.full(16))
        pairs = [(full, eta) for eta in etas]
        f, g = float_table(16, 32), float_table(16, 33)
        report = assert_bit_equal_to_oracle(f, g, 64.0, pairs)
        assert [r.eta for r in report.records] == etas
        assert_bit_equal_to_oracle(f, round_to_binary(g, 34), 64.0, pairs)

    def test_one_coset_through_several_representatives(self):
        # the same coset of a dim-14 subspace given by eight of its points,
        # interleaved with pairs on other cosets and other subspaces
        rng = random.Random(35)
        h = Subspace.from_vectors(16, [rng.getrandbits(16) for _ in range(14)])
        assert h.dim == 14
        points = AffineSubspace(h, F2Vector(16, 12345)).element_array()
        others = pairs_of_every_dim(16, 36)[10:]
        pairs = []
        for k, x in enumerate(rng.sample(points.tolist(), 8)):
            pairs.append((AffineSubspace(h, F2Vector(16, x)), rng.getrandbits(16)))
            pairs.append(others[k % len(others)])
        assert len({coset.representative for coset, _ in pairs[::2]}) == 1
        f, g = float_table(16, 37), float_table(16, 38)
        assert_bit_equal_to_oracle(f, g, 64.0, pairs)
        assert_bit_equal_to_oracle(f, round_to_binary(f, 39), 64.0, pairs)

    def test_duplicate_pairs(self):
        full = AffineSubspace(Subspace.full(16))
        others = pairs_of_every_dim(16, 40)[11:]
        pairs = [(full, 7), *others, (full, 7), (full, 0), others[2], (full, 0), others[2]]
        report = assert_bit_equal_to_oracle(float_table(16, 41), float_table(16, 42), 64.0, pairs)
        values = [(r.f_value, r.s_value) for r in report.records]
        assert values[0] == values[len(others) + 1]
        assert values[-4] == values[-2] and values[3] == values[-3] == values[-1]

    def test_two_float_tables_gathered_in_one_call(self, gathered_arrays):
        # each chunk's grid index gathers f and then g, for every
        # character of the coset
        f, g = float_table(16, 43), float_table(16, 44)
        full = AffineSubspace(Subspace.full(16))
        pairs = [(full, eta) for eta in (0, 1, 2, 3)] + pairs_of_every_dim(16, 45)[13:]
        assert_bit_equal_to_oracle(f, g, 64.0, pairs)
        assert [a is f.values for a in gathered_arrays] == [True, False] * (len(gathered_arrays) // 2)
        assert all(a is g.values for a in gathered_arrays[1::2])

    def test_records_come_back_in_input_order(self):
        full = AffineSubspace(Subspace.full(14))
        others = pairs_of_every_dim(14, 46)[12:]
        small = (AffineSubspace(Subspace.zero(14)), 3)  # below the threshold
        pairs = [(full, 9), others[0], small, (full, 4), others[1], (full, 9),
                 others[2], (full, 0)]
        f = float_table(14, 47)
        report = deviation_report(f, float_table(14, 48), 1.9, pairs)
        assert report.skipped_small == 1
        kept = [p for p in pairs if p is not small]
        assert [(r.basis, r.representative, r.eta) for r in report.records] == [
            (c.subspace.basis, c.representative.bits, eta) for c, eta in kept
        ]
        assert_bit_equal_to_oracle(f, round_to_binary(f, 49), 1.9, pairs)

    @pytest.mark.parametrize("levels, weights", [
        ([0.0, 0.5], [0.9, 0.1]),
        ([0.0, 0.25, 0.5, 1.0], [0.7, 0.1, 0.1, 0.1]),
        ([0.5], [1.0]),
    ])
    def test_zero_heavy_tables_cancel_exactly(self, levels, weights):
        # dyadic values make many row sums exact zeros of either sign
        rng = np.random.default_rng(27)
        f = FunctionTable(16, rng.choice(levels, size=1 << 16, p=weights))
        g = FunctionTable(16, rng.choice(levels, size=1 << 16, p=weights))
        pairs = pairs_of_every_dim(16, 28)
        pairs += [(coset, 0) for coset, _ in pairs]
        assert_bit_equal_to_oracle(f, g, 64.0, pairs)
        assert_bit_equal_to_oracle(f, round_to_binary(g, 29), 64.0, pairs)

    @pytest.mark.parametrize("levels, weights", [
        ([0.0, 0.5], [0.9, 0.1]),
        ([0.0, 0.25, 0.5, 1.0], [0.7, 0.1, 0.1, 0.1]),
    ])
    def test_zero_heavy_tables_under_several_characters(self, levels, weights):
        # the shared chains of several characters on one coset, on two float
        # tables gathered in one call, where many chains cancel to zeros
        rng = np.random.default_rng(54)
        f = FunctionTable(16, rng.choice(levels, size=1 << 16, p=weights))
        g = FunctionTable(16, rng.choice(levels, size=1 << 16, p=weights))
        chars = random.Random(55)
        pairs = [(coset, eta) for coset, _ in pairs_of_every_dim(16, 56)
                 for eta in (0, *(chars.getrandbits(16) for _ in range(4)))]
        assert_bit_equal_to_oracle(f, g, 64.0, pairs)

    def test_every_restriction_to_a_block_on_one_coset(self):
        # characters whose restrictions to basis rows 0-6 of a dim-16 coset
        # take all 128 values: every chain pattern (rows 3-6) and every
        # lane pattern (rows 0-2) of numpy's 128-entry blocks
        rng = random.Random(57)
        while True:
            h = Subspace.from_vectors(18, [rng.getrandbits(18) for _ in range(16)])
            if h.dim == 16:
                break
        coset = AffineSubspace(h, F2Vector(18, rng.getrandbits(18)))
        by_restriction = {}
        while len(by_restriction) < 128:
            eta = rng.getrandbits(18)
            key = sum(((r & eta).bit_count() & 1) << j for j, r in enumerate(h.basis[:7]))
            by_restriction.setdefault(key, eta)
        pairs = [(coset, by_restriction[key]) for key in range(128)]
        f = float_table(18, 58)
        assert_bit_equal_to_oracle(f, float_table(18, 59), 64.0, pairs)
        assert_bit_equal_to_oracle(f, round_to_binary(f, 60), 64.0, pairs)

    def test_several_characters_on_cosets_of_small_dims(self):
        # dims 0-9: below 8 entries numpy adds in order, below 128 its
        # chains are shorter than 16, and from dim 7 blocks are whole
        rng = random.Random(61)
        pairs = [(coset, eta) for coset, eta in pairs_of_every_dim(12, 62)[:10]
                 for eta in (eta, 0, eta, rng.getrandbits(12), rng.getrandbits(12))]
        f, g = float_table(12, 63), float_table(12, 64)
        report = assert_bit_equal_to_oracle(f, g, 64.0, pairs)
        assert [r.size for r in report.records[::5]] == [1 << d for d in range(10)]
        assert_bit_equal_to_oracle(f, round_to_binary(g, 65), 64.0, pairs)

    def test_n18_several_characters_across_chunks(self):
        # dims 13..18: a coset of 2^15 points is one whole chunk, larger
        # ones 2 to 8 chunks, each chunk a subtree of numpy's halving
        rng = random.Random(66)
        pairs = [(coset, eta) for coset, eta in pairs_of_every_dim(18, 67)[13:]
                 for eta in (eta, rng.getrandbits(18), rng.getrandbits(18))]
        f, g = float_table(18, 68), float_table(18, 69)
        report = assert_bit_equal_to_oracle(f, g, 64.0, pairs)
        assert [r.size for r in report.records[::3]] == [1 << d for d in range(13, 19)]
        assert_bit_equal_to_oracle(round_to_binary(g, 70), f, 64.0, pairs)

    def test_numpy_block_is_eight_chains(self):
        # pins what `_gathered_coefficients` relies on inside numpy's
        # 128-entry blocks: 8 accumulators, each adding a stride-8 chain in
        # order, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
        # and a plain sum in order below 8 entries; signed zeros included
        # (initial=-0.0 keeps the sum's own sign of a zero)
        def model(a):
            if len(a) > 128:
                return model(a[: len(a) // 2]) + model(a[len(a) // 2 :])
            if len(a) < 8:
                total = -0.0
                for x in a:
                    total += x
                return total
            r = a[:8]
            for i in range(8, len(a), 8):
                r = [acc + x for acc, x in zip(r, a[i : i + 8])]
            return ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))

        rng = np.random.default_rng(71)
        in_order_differs = 0
        for k in range(15):
            for kind in ("float", "zeros", "all zeros"):
                a = rng.random(1 << k) * 10.0 ** rng.integers(-8, 9, size=1 << k)
                a *= rng.choice([-1.0, 1.0], size=a.size)
                if kind != "float":
                    a[rng.random(a.size) < (0.9 if kind == "zeros" else 1.0)] = 0.0
                    a = np.copysign(a, rng.choice([-1.0, 1.0], size=a.size))
                got = np.float64(model(a.tolist()))
                expected = np.add.reduce(a, initial=-0.0)
                assert got.tobytes() == expected.tobytes(), (
                    f"numpy no longer adds a block as 8 stride-8 chains ({k=}, {kind}): "
                    "_gathered_coefficients would change report bits")
                assert (0.0 + got).tobytes() == np.add.reduce(a).tobytes(), (k, kind)
                in_order = -0.0
                for x in a.tolist():
                    in_order += x
                in_order_differs += in_order != got
        # the arrays tell the block order from a plain sum in order
        assert in_order_differs > 10, in_order_differs

    def test_row_tree_is_numpy_mean(self):
        # pins numpy's pairwise summation, which halves a contiguous 2^k
        # array into 128-entry blocks: per-row sums of 2^_SPLIT entries,
        # added by a halving tree from a zero start, are its mean bit for
        # bit, signed zeros included
        rng = np.random.default_rng(30)
        for k in range(21):
            for kind in ("float", "zeros", "mixed"):
                a = rng.random(1 << k) * rng.choice([-1.0, 1.0], size=1 << k)
                if kind == "zeros":
                    a = np.copysign(0.0, a)
                elif kind == "mixed":
                    a[rng.random(1 << k) < 0.5] = -0.0
                sums = np.add.reduce(a.reshape(-1, min(a.size, 1 << _SPLIT)), axis=1, initial=0.0)
                while sums.size > 1:
                    sums = sums[0::2] + sums[1::2]
                expected = np.float64(a.mean())
                assert ((0.0 + sums[0]) / a.size).tobytes() == expected.tobytes(), (k, kind)
                if k:
                    # the kernel on the same magnitudes, over the full space
                    # in counting order under a random character
                    t = FunctionTable(k, np.abs(a))
                    eta = int(rng.integers(0, 1 << k))
                    assert_bit_equal_to_oracle(t, t, 64.0, [(AffineSubspace(Subspace.full(k)), eta)])


@pytest.fixture
def gathered_arrays(monkeypatch):
    """The source array of every `np.take` made while the test runs."""
    seen = []
    take = np.take

    def recording_take(a, *args, **kwargs):
        seen.append(a)
        return take(a, *args, **kwargs)

    monkeypatch.setattr(rounding.np, "take", recording_take)
    return seen


class TestSharedCosetWork:
    def test_pairs_on_one_coset_gather_it_once(self, gathered_arrays):
        # 2^16 points are two 2^15-point chunks, each gathered once per
        # table however many characters read the coset
        f, g = float_table(16, 50), float_table(16, 51)
        full = AffineSubspace(Subspace.full(16))
        deviation_report(f, g, 64.0, [(full, 5)])
        assert len(gathered_arrays) == 4
        deviation_report(f, g, 64.0, [(full, eta) for eta in range(16)])
        assert len(gathered_arrays) == 8

    def test_count_lookups_read_one_table_per_subspace(self, monkeypatch):
        # K pairs on one subspace, over several of its cosets, read the
        # rounded table's transform through one `_dual_table` of K classes
        calls = []
        dual_table = fourier._dual_table

        def counting(spectrum, duals, classes):
            calls.append(classes.shape)
            return dual_table(spectrum, duals, classes)

        rng = random.Random(72)
        h = Subspace.from_vectors(14, [rng.getrandbits(14) for _ in range(11)])
        full = AffineSubspace(Subspace.full(14))
        reps = [F2Vector(14, rng.getrandbits(14)) for _ in range(3)]
        pairs = [(AffineSubspace(h, reps[k % 3]), rng.getrandbits(14)) for k in range(20)]
        pairs += [(full, rng.getrandbits(14)) for _ in range(30)]
        rng.shuffle(pairs)
        f = float_table(14, 73)
        s = round_to_binary(f, 74)
        monkeypatch.setattr(fourier, "_dual_table", counting)
        assert_bit_equal_to_oracle(f, s, 64.0, pairs)
        assert sorted(calls) == [(1, 20), (1, 30)]
        calls.clear()
        assert_bit_equal_to_oracle(s, round_to_binary(f, 75), 64.0, pairs)
        assert sorted(calls) == [(1, 20), (1, 20), (1, 30), (1, 30)]

    def test_memory_does_not_grow_with_characters_on_one_coset(self):
        # every character of F2^12 on the full space: holding all 4096
        # sign rows of 4096 entries at once would take 128 MiB
        f, g = float_table(12, 52), float_table(12, 53)
        full = AffineSubspace(Subspace.full(12))
        pairs = [(full, eta) for eta in range(1 << 12)]
        tracemalloc.start()
        try:
            report = deviation_report(f, g, 64.0, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.records) == 1 << 12
        assert peak < 16 << 20, peak

    def test_memory_n18_does_not_grow_with_characters(self):
        # 200 characters on a 2^18-point coset: a block sum per character
        # for the whole coset would hold 200 * 2048 floats a table (3.2 MiB)
        f, g = float_table(18, 76), float_table(18, 77)
        full = AffineSubspace(Subspace.full(18))
        rng = random.Random(78)
        pairs = [(full, rng.getrandbits(18)) for _ in range(200)]
        tracemalloc.start()
        try:
            report = deviation_report(f, g, 64.0, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.records) == 200
        assert peak < 4 << 20, peak


class TestDeviationReportGuards:
    def test_coset_of_another_dimension(self):
        f = float_table(12, 1)
        s = round_to_binary(f, 1)
        with pytest.raises(DimensionMismatchError, match="^table n=12 vs coset n=10$"):
            deviation_report(f, s, 0.5, [(AffineSubspace(Subspace.full(10)), 0)])
        with pytest.raises(DimensionMismatchError, match="^character n=10 vs table n=12$"):
            deviation_report(f, s, 0.5, [(AffineSubspace(Subspace.full(12)), F2Vector(10, 1))])

    def test_tables_of_two_sizes(self):
        with pytest.raises(DimensionMismatchError, match="^table dimensions differ: 12 vs 11$"):
            deviation_report(float_table(12, 1), float_table(11, 1), 0.5, [])

    @pytest.mark.parametrize("eta", [4099, 1 << 12, -1])
    def test_character_out_of_range(self, eta):
        f = float_table(12, 1)
        with pytest.raises(ValueError, match="out of range"):
            deviation_report(f, round_to_binary(f, 1), 0.5, [(AffineSubspace(Subspace.full(12)), eta)])

    def test_bad_pair_after_good_ones_still_raises(self):
        f = float_table(12, 1)
        good = (AffineSubspace(Subspace.full(12)), 3)
        small = (AffineSubspace(Subspace.zero(12)), 3)
        bad = (AffineSubspace(Subspace.zero(11)), 3)
        with pytest.raises(DimensionMismatchError):
            deviation_report(f, round_to_binary(f, 1), 0.5, [good, small, bad])

    @pytest.mark.parametrize("tau", [0, 0.0, -1, -0.5, math.nan, math.inf])
    def test_tau_must_be_finite_and_positive(self, tau):
        f = float_table(6, 1)
        with pytest.raises(ValueError, match="tau"):
            deviation_report(f, round_to_binary(f, 1), tau, [])


class TestRegularityPreservedSpotCheck:
    """Rounding the two-block instance at tau = eps/2 bookkeeping keeps
    the lower-bound structure in a structured scan (frozen seed; at this
    tiny n the size threshold is vacuous, so this is a sanity check of
    the phenomenon, not a reproduction of the argument)."""

    def test_frozen_rounding_table(self):
        inst = Instance.generate(2, seed=1)
        rounded = round_to_binary(inst.table, SPOT_CHECK_SEED)
        assert rounded.values.astype(int).tolist() == SPOT_CHECK_TABLE

    def test_rounded_table_still_has_no_regular_subspace(self):
        inst = Instance.generate(2, seed=1)
        rounded = round_to_binary(inst.table, SPOT_CHECK_SEED)
        eps_half = Fraction(1, 64)
        for h in enumerate_all_subspaces(3):
            report = check_subspace_regularity(rounded, h, eps_half)
            assert report.is_regular == (h.dim == 0)
