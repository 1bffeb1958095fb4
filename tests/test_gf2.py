"""GF(2) core: echelon forms, duals, cosets, enumeration."""

import random
from functools import reduce
from itertools import combinations
from operator import xor

import numpy as np
import pytest

from f2reglab import (
    AffineSubspace,
    BlockStructure,
    DenseLimitError,
    DimensionMismatchError,
    F2Vector,
    Subspace,
    enumerate_all_subspaces,
)
from f2reglab.gf2 import reduce_array, subspaces_of_dim


def brute_span(rows, n):
    """Independent oracle: the span as an explicit set, by subset XOR."""
    out = set()
    for k in range(1 << len(rows)):
        v = 0
        for j, r in enumerate(rows):
            if (k >> j) & 1:
                v ^= r
        out.add(v)
    return out


def vec(coords: str) -> F2Vector:
    return F2Vector.from_string(coords)


class TestF2Vector:
    def test_string_encoding_convention(self):
        # coordinate 1 is the least significant bit
        assert vec("110").bits == 3
        assert vec("011").bits == 6
        assert vec("101").bits == 5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Subspace.from_vectors(2, [vec("100")])

    def test_range_validation(self):
        with pytest.raises(ValueError):
            F2Vector(2, 4)


class TestGuards:
    """Malformed vectors, bases and block layouts, mixed ambient
    dimensions, and dense arrays above n = 62."""

    @pytest.mark.parametrize("build", [
        lambda: F2Vector(0, 0),
        lambda: Subspace(0, ()),
        lambda: Subspace._from_echelon(-1, ()),
        lambda: list(enumerate_all_subspaces(0)),
    ])
    def test_ambient_dimension_must_be_positive(self, build):
        with pytest.raises(ValueError, match="^ambient dimension must be positive, got -?[01]$"):
            build()

    def test_non_canonical_basis(self):
        with pytest.raises(ValueError, match="^basis is not in canonical echelon form"):
            Subspace(3, (2, 1))

    def test_coordinate_string(self):
        with pytest.raises(ValueError, match="^coordinate string must be over 0/1, got '012'$"):
            F2Vector.from_string("012")

    def test_ambient_dimensions_must_match(self):
        with pytest.raises(DimensionMismatchError, match="^n mismatch: 3 vs 4$"):
            Subspace.zero(3).reduce(F2Vector(4, 1))
        with pytest.raises(DimensionMismatchError, match="^n mismatch: 4 vs 3$"):
            AffineSubspace(Subspace.zero(3), F2Vector(4, 1))

    @pytest.mark.parametrize("build", [
        lambda: Subspace.zero(100).span_array(),
        lambda: Subspace.full(100).coset_representative_array(),
        lambda: next(subspaces_of_dim(63, 0)),
    ])
    def test_dense_arrays_need_n_at_most_62(self, build):
        with pytest.raises(DenseLimitError, match="^dense arrays require ambient dimension <= 62$"):
            build()

    @pytest.mark.parametrize("dims", [(), (1, 0, 2)])
    def test_block_dims_must_be_positive(self, dims):
        with pytest.raises(ValueError, match=r"^block dims must be positive, got \("):
            BlockStructure(dims)


class TestEchelonize:
    @pytest.mark.parametrize("rows", [(9, 2), (-1,), (2, -4), (8,)])
    def test_rows_out_of_range_rejected(self, rows):
        # echelon rows are ordered by lowest set bit, so 9 comes before 2
        with pytest.raises(ValueError, match="out of range"):
            Subspace.from_vectors(3, rows)
        with pytest.raises(ValueError, match="out of range"):
            Subspace(3, rows)

    def test_empty_span(self):
        sub = Subspace.from_vectors(3, [])
        assert sub.dim == 0 and sub.index == 8

    def test_rank_matches_brute_force(self):
        rows = [6, 5, 3]  # {011, 101, 110}
        sub = Subspace.from_vectors(3, rows)
        span = brute_span(rows, 3)
        assert sub.dim == 2
        assert len(span) == 1 << sub.dim
        assert {sub.reduce(v) == 0 for v in span} == {True}

    def test_standard_basis_full_space(self):
        sub = Subspace.from_vectors(5, [F2Vector(5, 1 << j) for j in range(5)])
        assert sub.dim == 5 and sub == Subspace.full(5)

    def test_idempotent_canonical(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 16)
            rows = [rng.getrandbits(n) for _ in range(rng.randint(0, n + 2))]
            sub = Subspace.from_vectors(n, rows)
            again = Subspace.from_vectors(n, sub.basis)
            assert again == sub
            # pivots ascend and pivot columns are clean
            for k, (p, r) in enumerate(zip(sub.pivots, sub.basis)):
                assert r & ((1 << p) - 1) == 0
                for other in sub.basis[:k] + sub.basis[k + 1 :]:
                    assert (other >> p) & 1 == 0

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Subspace.from_vectors(2, [F2Vector(2, 1), F2Vector(3, 1)])


class TestContains:
    def test_zero_subspace_contains_zero(self):
        assert Subspace.zero(3).contains(0)

    def test_small_span_membership_brute_force(self):
        sub = Subspace.from_vectors(3, [3])  # span{110}
        span = brute_span([3], 3)
        assert span == {0, 3}
        assert not sub.contains(vec("011"))
        for v in range(8):
            assert sub.contains(v) == (v in span)

    def test_full_space_contains_everything(self):
        full = Subspace.full(4)
        assert all(full.contains(v) for v in range(16))

    def test_repr_lists_the_echelon_basis(self):
        sub = Subspace.from_vectors(3, [3, 1])
        assert repr(sub) == "Subspace(n=3, dim=2, basis=['0b1', '0b10'])"


class TestOrthogonalComplement:
    def test_trivial_cases(self):
        assert Subspace.zero(3).orthogonal_complement() == Subspace.full(3)
        assert Subspace.full(3).orthogonal_complement() == Subspace.zero(3)

    def test_line_complement_brute_force(self):
        sub = Subspace.from_vectors(3, [3])  # span{110}
        perp = sub.orthogonal_complement()
        expected = {v for v in range(8) if bin(v & 3).count("1") % 2 == 0}
        assert {v for v in range(8) if perp.contains(v)} == expected
        assert perp == Subspace.from_vectors(3, [4, 3])  # span{001, 110}

    def test_double_dual_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            for sub in enumerate_all_subspaces(n):
                perp = sub.orthogonal_complement()
                assert sub.dim + perp.dim == n
                assert perp.orthogonal_complement() == sub

    def test_double_dual_random_n20(self):
        rng = random.Random(12345)
        n = 20
        for _ in range(1000):
            rows = [rng.getrandbits(n) for _ in range(rng.randint(0, n))]
            sub = Subspace.from_vectors(n, rows)
            perp = sub.orthogonal_complement()
            assert sub.dim + perp.dim == n
            assert perp.orthogonal_complement() == sub


class TestAnnihilator:
    def test_every_row_set_small(self):
        for n in (1, 2, 3, 4):
            for mask in range(1 << (1 << n)):
                rows = [v for v in range(1 << n) if (mask >> v) & 1]
                expected = Subspace.from_vectors(n, rows).orthogonal_complement()
                assert Subspace.annihilator(n, rows) == expected

    @pytest.mark.parametrize("n", [20, 100])
    def test_random_row_sets(self, n):
        rng = random.Random(n)
        for _ in range(300):
            rows = [rng.getrandbits(n) for _ in range(rng.choice([0, 1, 2, 4, n // 2, n + 1]))]
            h = Subspace.annihilator(n, rows)
            assert h == Subspace.from_vectors(n, rows).orthogonal_complement()
            # canonical as returned, with no re-echelonization
            assert Subspace(n, h.basis) == h


class TestIntersect:
    def test_with_full_space(self):
        sub = Subspace.from_vectors(3, [3, 4])
        assert sub.intersect(Subspace.full(3)) == sub

    def test_independent_lines(self):
        a = Subspace.from_vectors(3, [1])
        b = Subspace.from_vectors(3, [2])
        assert a.intersect(b).dim == 0

    def test_planes_meet_in_line_brute_force(self):
        a = Subspace.from_vectors(3, [1, 2])
        b = Subspace.from_vectors(3, [2, 4])
        meet = a.intersect(b)
        expected = brute_span([1, 2], 3) & brute_span([2, 4], 3)
        assert {v for v in range(8) if meet.contains(v)} == expected
        assert meet == Subspace.from_vectors(3, [2])

    def test_random_against_element_sets(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(2, 8)
            ra = [rng.getrandbits(n) for _ in range(rng.randint(0, n))]
            rb = [rng.getrandbits(n) for _ in range(rng.randint(0, n))]
            a, b = Subspace.from_vectors(n, ra), Subspace.from_vectors(n, rb)
            expected = brute_span(a.basis, n) & brute_span(b.basis, n)
            meet = a.intersect(b)
            assert {v for v in range(1 << n) if meet.contains(v)} == expected


class TestCosetRepresentatives:
    def test_full_space_single_coset(self):
        assert Subspace.full(3).coset_representative_array().tolist() == [0]

    def test_zero_subspace_all_points(self):
        reps = Subspace.zero(2).coset_representative_array()
        assert reps.tolist() == [0, 1, 2, 3]

    def test_line_in_f2_3_partition(self):
        sub = Subspace.from_vectors(3, [1])  # span{100}
        reps = sub.coset_representative_array().tolist()
        cosets = [frozenset((r ^ h) for h in (0, 1)) for r in reps]
        assert len(reps) == 4
        assert set().union(*cosets) == set(range(8))
        assert frozenset({0, 1}) in cosets and frozenset({2, 3}) in cosets

    def test_partition_exhaustive_n12(self):
        rng = random.Random(3)
        n = 12
        for dim in (0, 3, 6, 9, 12):
            rows = [rng.getrandbits(n) for _ in range(dim)]
            sub = Subspace.from_vectors(n, rows)
            reduced = reduce_array(np.arange(1 << n, dtype=np.int64), sub)
            reps = sub.coset_representative_array()
            values, counts = np.unique(reduced, return_counts=True)
            assert np.array_equal(values, reps)
            assert np.all(counts == 1 << sub.dim)

    def test_reduction_is_coset_invariant(self):
        rng = random.Random(4)
        n = 10
        rows = [rng.getrandbits(n) for _ in range(4)]
        sub = Subspace.from_vectors(n, rows)
        for _ in range(100):
            g = rng.getrandbits(n)
            h = rng.choice(list(brute_span(sub.basis, n)))
            assert sub.reduce(g) == sub.reduce(g ^ h)

    def test_memory_guard(self):
        with pytest.raises(DenseLimitError):
            Subspace.zero(30).coset_representative_array(dense_limit=26)

    def test_arrays_are_read_only_above_the_caches(self):
        assert not Subspace.zero(14).coset_representative_array().flags.writeable
        assert not Subspace.full(13).span_array().flags.writeable

    def test_reps_are_sorted_subset_sums_of_free_positions(self):
        # both the cached (at most 12 free positions) and the uncached path
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 16)
            free = sorted(rng.sample(range(n), rng.randint(0, n)))
            sub = Subspace.from_vectors(n, [1 << j for j in range(n) if j not in free])
            mask = sum(1 << p for p in free)
            points = np.arange(1 << n, dtype=np.int64)
            reps = sub.coset_representative_array()
            assert reps.dtype == np.int64
            assert np.array_equal(reps, points[(points & ~mask) == 0])


class TestEnumerateAllSubspaces:
    @staticmethod
    def gaussian_count(n):
        total = 0
        for d in range(n + 1):
            num = den = 1
            for i in range(d):
                num *= (1 << n) - (1 << i)
                den *= (1 << d) - (1 << i)
            total += num // den
        return total

    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 5), (3, 16), (4, 67)])
    def test_counts(self, n, expected):
        subs = list(enumerate_all_subspaces(n))
        assert len(subs) == expected
        assert expected == self.gaussian_count(n)
        assert len({s.basis for s in subs}) == expected

    def test_counts_by_dimension_n3(self):
        by_dim = {}
        for s in enumerate_all_subspaces(3):
            by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
        assert by_dim == {0: 1, 1: 7, 2: 7, 3: 1}

    def test_every_yield_is_canonical_and_distinct_as_set(self):
        seen = set()
        for s in enumerate_all_subspaces(3):
            elements = frozenset(brute_span(s.basis, 3))
            assert elements not in seen
            seen.add(elements)

    def test_refuses_large_n(self):
        with pytest.raises(DenseLimitError):
            list(enumerate_all_subspaces(5))

    def test_fixed_dimension_enumeration(self):
        from f2reglab.gf2 import subspaces_of_dim

        # Gaussian binomial [5 choose 2]_2
        subs = list(subspaces_of_dim(5, 2))
        assert len(subs) == 155
        assert len({s.basis for s in subs}) == 155
        assert all(s.dim == 2 for s in subs)
        with pytest.raises(ValueError):
            list(subspaces_of_dim(3, 4))

    def test_stacked_echelon_forms_and_spans(self):
        from f2reglab.gf2 import _echelon_rows, _echelon_stack, _span_stack

        def subset_xors(rows):
            """Entry j XORs the rows selected by the bits of j (brute force)."""
            return np.array([reduce(xor, (r for i, r in enumerate(rows) if j >> i & 1), 0)
                             for j in range(1 << len(rows))], dtype=np.int64)

        rng = random.Random(41)
        reverse = lambda x, n: int(format(x, f"0{n}b")[::-1], 2)  # noqa: E731
        for n, m in ((1, 1), (4, 3), (11, 2), (11, 10), (20, 6)):
            rows = np.array([[rng.getrandbits(n) >> rng.randrange(n) for _ in range(m)]
                             for _ in range(300)], dtype=np.int64)
            low, rank = _echelon_stack(rows, n)
            top, top_rank = _echelon_stack(rows, n, top=True)
            assert np.array_equal(rank, top_rank)
            for k, r in enumerate(rows.tolist()):
                basis = _echelon_rows(r)
                assert rank[k] == len(basis) and tuple(low[k, : rank[k]].tolist()) == basis
                assert not low[k, rank[k]:].any() and not top[k, rank[k]:].any()
                # the top form is the low form of the bit-reversed rows, reversed back
                flipped = sorted(reverse(v, n) for v in _echelon_rows(reverse(v, n) for v in r))
                assert top[k, : rank[k]].tolist() == flipped
            # one column per subspace: its span, or its translates by start
            start = np.array([rng.getrandbits(n) for _ in range(300)], dtype=np.int64)
            points = np.array([[rng.getrandbits(n) for _ in range(3)] for _ in range(300)])
            spans, cosets = _span_stack(low), _span_stack(low, start)
            translates = _span_stack(low, points)
            assert spans.shape == cosets.shape == (1 << m, 300)
            assert translates.shape == (1 << m, 300, 3)
            for k in range(300):
                span = subset_xors(low[k].tolist())
                assert np.array_equal(spans[:, k], span)
                assert np.array_equal(cosets[:, k], span ^ start[k])
                assert np.array_equal(translates[:, k], span[:, None] ^ points[k])
        # no subspaces, and subspaces of dimension 0
        assert _span_stack(np.zeros((0, 3), np.int64)).shape == (8, 0)
        assert _span_stack(np.zeros((0, 3), np.int64), np.zeros((0, 5), np.int64)).shape == (8, 0, 5)
        assert _span_stack(np.zeros((0, 0), np.int64), np.zeros(0, np.int64)).shape == (1, 0)
        points = _span_stack(np.zeros((2, 0), np.int64), np.array([5, 9]))
        assert points.tolist() == [[5, 9]]
        assert _span_stack(np.zeros((2, 0), np.int64)).tolist() == [[0, 0]]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_basis_arrays_follow_the_echelon_form_loop(self, n, monkeypatch):
        from f2reglab import gf2

        def echelon_forms(n, d):
            # one subspace at a time: pivot sets in lexicographic order,
            # then the free cells right of each pivot counted up
            for pivots in combinations(range(n), d):
                cells = [(i, j) for i, p in enumerate(pivots)
                         for j in range(p + 1, n) if j not in pivots]
                for mask in range(1 << len(cells)):
                    rows = [1 << p for p in pivots]
                    for c, (i, j) in enumerate(cells):
                        if (mask >> c) & 1:
                            rows[i] |= 1 << j
                    yield tuple(rows)

        monkeypatch.setattr(gf2, "_BASES_CHUNK", 64)  # several arrays per dimension
        for d in range(n + 1):
            arrays = list(gf2._echelon_bases(n, d))
            assert all(a.dtype == np.int64 and a.shape[1] == d for a in arrays)
            got = [tuple(row) for a in arrays for row in a.tolist()]
            assert got == list(echelon_forms(n, d))
            assert [h.basis for h in gf2.subspaces_of_dim(n, d)] == got


class TestAffineSubspace:
    def test_representative_canonicalized(self):
        sub = Subspace.from_vectors(3, [1])
        a = AffineSubspace(sub, F2Vector(3, 1))
        b = AffineSubspace(sub, F2Vector(3, 0))
        assert a == b and a.representative.bits == 0

    def test_equality_requires_same_coset(self):
        sub = Subspace.from_vectors(3, [1])
        assert AffineSubspace(sub, F2Vector(3, 2)) != AffineSubspace(sub, F2Vector(3, 4))

    def test_elements(self):
        sub = Subspace.from_vectors(3, [1])
        coset = AffineSubspace(sub, F2Vector(3, 7))
        assert sorted(int(x) for x in coset.element_array()) == [6, 7]
        assert coset.size == 2
        assert coset.contains(6) and not coset.contains(5)


class TestBlockStructure:
    def test_offsets_and_blocks(self):
        blocks = BlockStructure((1, 2))
        assert blocks.offsets == (0, 1, 3)
        assert blocks.n == 3 and blocks.s == 2
        x = vec("110").bits  # x1=1, x2=1, x3=0
        assert blocks.block(x, 1) == 1
        assert blocks.block(x, 2) == 1  # block-local (x2, x3) = (1, 0)
        assert blocks.prefix(x, 2) == 1

    def test_offsets_are_built_once(self):
        blocks = BlockStructure((3, 1, 4, 1, 5))
        assert blocks.offsets is blocks.offsets
        assert blocks.offsets == (0, 3, 4, 8, 9, 14) == tuple(np.cumsum((0, 3, 1, 4, 1, 5)))
        assert BlockStructure((3, 1, 4, 1, 5)) == blocks  # the cache is no field
