"""Witness certificates: active blocks, gamma characters, exact
coefficient identities, and whole-instance lower-bound scans."""

import dataclasses
import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from f2reglab import (
    AffineSubspace,
    ClaimViolationError,
    DenseLimitError,
    F2Vector,
    Instance,
    Subspace,
    bad_fraction,
    check_subspace_regularity,
    corollary_fraction,
    enumerate_all_subspaces,
    exhaustive_lowerbound_check,
    gamma_character,
    minimal_active_block,
    restricted_coefficient,
    term_indicator_table,
    w_average_coefficient,
    w_subspace,
    witness_scan,
)
from f2reglab import witness
from f2reglab.cli import main as cli_main
from f2reglab.fourier import _count_spectrum
from f2reglab.gf2 import _echelon_stack, subspaces_of_dim
from f2reglab.rng import Stream
from f2reglab.witness import (
    _STACK_ENTRIES,
    _certify_duals,
    _perp_stack,
    _random_stack,
    _stacks,
    _walk,
)


@pytest.fixture(scope="module")
def inst2():
    return Instance.generate(2, seed=1)


@pytest.fixture(scope="module")
def inst3():
    return Instance.generate(3, seed=1)


def _random_subspace(n, dim, stream):
    """One stream draw at a time: dim rows of n bits, echelonized, until
    they are independent (the oracle of `_random_stack`)."""
    while True:
        sub = Subspace.from_vectors(n, [stream.bits(n) for _ in range(dim)])
        if sub.dim == dim:
            return sub


def rows_of(subspaces):
    return np.array([h.basis for h in subspaces], dtype=np.int64)


def dual_rows(duals):
    """Top-pivot echelon stack of the given dual subspaces."""
    n = duals[0].n
    return _echelon_stack(rows_of(duals), n, top=True)[0]


def hyperplane_duals(n):
    """Every nonzero eta as a (2^n - 1, 1) stack, in `subspaces_of_dim` order."""
    return rows_of(subspaces_of_dim(n, 1))


def certify(f, hs, eps, xi):
    """`_certify_duals` on the subspaces hs of one dimension, through
    their duals from `orthogonal_complement`; checks the echelon bases it
    hands back and returns its per-subspace counts and verdicts."""
    rows, *got = _certify_duals(
        f, _count_spectrum(f), dual_rows([h.orthogonal_complement() for h in hs]),
        Fraction(eps), xi,
    )
    assert np.array_equal(rows, rows_of(hs))
    return got


def assert_stack_matches_scans(f, hs, eps, xi):
    """The oracle of `_certify_duals`: each subspace's irregular coset count
    from check_subspace_regularity, and its certified count and verdict
    from witness_scan, which raises exactly where the stack fails a check."""
    certified, irregular, passed = certify(f, hs, eps, xi)
    for k, h in enumerate(hs):
        report = check_subspace_regularity(f, h, eps)
        assert irregular[k] == report.irregular_cosets
        try:
            cert = witness_scan(f, h, eps, xi)
        except ClaimViolationError:
            assert not passed[k]
            continue
        assert certified[k] == cert.certified_cosets
        assert passed[k] and not report.is_regular


def random_nonzero_subspace(n, rng):
    while True:
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, n))]
        sub = Subspace.from_vectors(n, rows)
        if sub.dim > 0:
            return sub


def valid_translate(inst, h, i, rng):
    """A translate g whose gamma is nontrivial for h."""
    perp = h.orthogonal_complement()
    while True:
        g = rng.getrandbits(inst.n)
        if not perp.contains(gamma_character(g, i, inst.xi)):
            return g


class TestMinimalActiveBlock:
    def test_first_block(self, inst2):
        i, v = minimal_active_block(Subspace.from_vectors(3, [1]), inst2.params.blocks)
        assert (i, v.bits) == (1, 1)

    def test_second_block(self, inst2):
        i, v = minimal_active_block(Subspace.from_vectors(3, [4]), inst2.params.blocks)
        assert (i, v.bits) == (2, 4)

    def test_mixed_vector_hits_first_block(self, inst2):
        i, v = minimal_active_block(Subspace.from_vectors(3, [3]), inst2.params.blocks)
        assert (i, v.bits) == (1, 3)

    def test_zero_subspace_rejected(self, inst2):
        with pytest.raises(ValueError):
            minimal_active_block(Subspace.zero(3), inst2.params.blocks)

    def test_earlier_blocks_vanish(self, inst3):
        rng = random.Random(0)
        for _ in range(50):
            h = random_nonzero_subspace(11, rng)
            i, _ = minimal_active_block(h, inst3.params.blocks)
            mask = (1 << inst3.params.blocks.offsets[i - 1]) - 1
            assert all(row & mask == 0 for row in h.basis)


class TestGammaCharacter:
    def test_block_one_constant(self, inst2):
        for g in range(8):
            assert gamma_character(g, 1, inst2.xi).bits == 1

    def test_block_two_values(self, inst2):
        # prefix g1 = 0 -> e1 of block 2 -> global 010; g1 = 1 -> 001
        assert gamma_character(0, 2, inst2.xi).bits == F2Vector.from_string("010").bits
        assert gamma_character(1, 2, inst2.xi).bits == F2Vector.from_string("001").bits

    def test_constant_on_tail_translates(self, inst3):
        rng = random.Random(1)
        for i in (1, 2, 3):
            tail = w_subspace(inst3.params.blocks, i)
            for _ in range(20):
                g = rng.getrandbits(11)
                w = rng.choice(list(tail.span_array()))
                assert gamma_character(g, i, inst3.xi) == gamma_character(int(g ^ w), i, inst3.xi)

    def test_never_zero(self, inst3):
        rng = random.Random(2)
        for i in (1, 2, 3):
            for _ in range(20):
                assert gamma_character(rng.getrandbits(11), i, inst3.xi).bits != 0


class TestBadFraction:
    def test_canonical_s2_values(self, inst2):
        assert bad_fraction(Subspace.from_vectors(3, [1]), 1, inst2.xi) == 0
        assert bad_fraction(Subspace.from_vectors(3, [4]), 2, inst2.xi) == Fraction(1, 2)
        assert bad_fraction(Subspace.full(3), 1, inst2.xi) == 0

    def test_block_one_never_bad(self, inst3):
        rng = random.Random(3)
        for _ in range(20):
            h = random_nonzero_subspace(11, rng)
            i, _ = minimal_active_block(h, inst3.params.blocks)
            if i == 1:
                assert bad_fraction(h, i, inst3.xi) == 0

    def test_basis_block_weight_one_line_exceeds_bound(self, inst3):
        # a line generated by a single weight-1 vector in the 8-wide
        # basis block is orthogonal to 7 of the 8 basis entries, so its
        # bad fraction is 7/8 and the 3/4 assertion cannot hold there
        h = Subspace.from_vectors(11, [1 << 3])
        i, _ = minimal_active_block(h, inst3.params.blocks)
        assert i == 3
        with pytest.raises(ClaimViolationError):
            bad_fraction(h, i, inst3.xi)
        assert bad_fraction(h, i, inst3.xi, bound=Fraction(7, 8)) == Fraction(7, 8)

    def test_basis_block_weight_two_meets_bound_exactly(self, inst3):
        h = Subspace.from_vectors(11, [(1 << 3) | (1 << 4)])
        assert bad_fraction(h, 3, inst3.xi) == Fraction(3, 4)


class TestAverageCoefficient:
    def test_s2_canonical_quarter(self, inst2):
        h = Subspace.from_vectors(3, [1])
        avg = w_average_coefficient(inst2.table, h, 0, 1, inst2.xi)
        assert avg == Fraction(1, 4)

    def test_s2_second_block_translate(self, inst2):
        h = Subspace.from_vectors(3, [4])
        avg = w_average_coefficient(inst2.table, h, 1, 2, inst2.xi)
        assert avg == Fraction(1, 4)

    def test_trivial_gamma_rejected(self, inst2):
        # for H = span{e3}, the prefix-0 gamma is e2, which annihilates H
        h = Subspace.from_vectors(3, [4])
        with pytest.raises(ValueError):
            w_average_coefficient(inst2.table, h, 0, 2, inst2.xi)

    def test_exactly_one_over_2s_on_random_valid_pairs(self, inst3):
        rng = random.Random(100)
        expected = Fraction(1, 6)
        for _ in range(100):
            h = random_nonzero_subspace(11, rng)
            i, _ = minimal_active_block(h, inst3.params.blocks)
            g = valid_translate(inst3, h, i, rng)
            assert w_average_coefficient(inst3.table, h, g, i, inst3.xi) == expected


class TestCorollaryFraction:
    def test_s2_three_quarters(self, inst2):
        h = Subspace.from_vectors(3, [1])
        assert corollary_fraction(inst2.table, h, 0, 1, inst2.xi) == Fraction(3, 4)

    def test_s2_singleton_tail(self, inst2):
        h = Subspace.from_vectors(3, [4])
        assert corollary_fraction(inst2.table, h, 1, 2, inst2.xi) == 1

    def test_random_valid_pairs_exceed_threshold(self, inst3):
        rng = random.Random(200)
        threshold = Fraction(1, 12)
        for _ in range(50):
            h = random_nonzero_subspace(11, rng)
            i, _ = minimal_active_block(h, inst3.params.blocks)
            g = valid_translate(inst3, h, i, rng)
            assert corollary_fraction(inst3.table, h, g, i, inst3.xi) > threshold


class TestTermIdentities:
    """Exact per-block behavior of the indicator terms at gamma."""

    def test_blocks_before_active_are_silent(self, inst3):
        rng = random.Random(7)
        for _ in range(30):
            h = random_nonzero_subspace(11, rng)
            i, _ = minimal_active_block(h, inst3.params.blocks)
            if i == 1:
                continue
            g = valid_translate(inst3, h, i, rng)
            gamma = gamma_character(g, i, inst3.xi)
            coset = AffineSubspace(h, F2Vector(11, g))
            for j in range(1, i):
                term = term_indicator_table(inst3.params, inst3.xi, j)
                assert restricted_coefficient(term, coset, gamma) == 0.0

    def test_active_block_contributes_exactly_half(self, inst3):
        rng = random.Random(8)
        for _ in range(30):
            h = random_nonzero_subspace(11, rng)
            i, _ = minimal_active_block(h, inst3.params.blocks)
            g = valid_translate(inst3, h, i, rng)
            gamma = gamma_character(g, i, inst3.xi)
            term = term_indicator_table(inst3.params, inst3.xi, i)
            coset = AffineSubspace(h, F2Vector(11, g))
            assert restricted_coefficient(term, coset, gamma) == 0.5

    def test_later_blocks_average_to_zero(self, inst3):
        rng = random.Random(9)
        for _ in range(30):
            h = random_nonzero_subspace(11, rng)
            i, _ = minimal_active_block(h, inst3.params.blocks)
            if i == 3:
                continue
            g = valid_translate(inst3, h, i, rng)
            for j in range(i + 1, 4):
                term = term_indicator_table(inst3.params, inst3.xi, j)
                assert w_average_coefficient(term, h, g, i, inst3.xi) == 0

    def test_function_is_average_of_terms(self, inst3):
        rng = random.Random(10)
        for _ in range(30):
            h = random_nonzero_subspace(11, rng)
            i, _ = minimal_active_block(h, inst3.params.blocks)
            g = rng.getrandbits(11)
            gamma = gamma_character(g, i, inst3.xi)
            coset = AffineSubspace(h, F2Vector(11, g))
            total = sum(
                restricted_coefficient(
                    term_indicator_table(inst3.params, inst3.xi, j), coset, gamma
                )
                for j in range(1, 4)
            )
            direct = restricted_coefficient(inst3.table, coset, gamma)
            assert direct == pytest.approx(total / 3, abs=1e-9)


class TestWitnessScan:
    def test_canonical_line(self, inst2):
        cert = witness_scan(inst2.table, Subspace.from_vectors(3, [1]), "1/32", inst2.xi)
        assert cert.ok and cert.block_index == 1
        assert cert.irregular_fraction == Fraction(3, 4)
        assert cert.bad_fraction == 0
        coefs = sorted(cert.coefficient(r) for r in range(cert.total_cosets))
        assert coefs == [0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]

    def test_all_nonzero_subspaces_certified_s2(self, inst2):
        from f2reglab import enumerate_all_subspaces

        count = 0
        for h in enumerate_all_subspaces(3):
            if h.dim == 0:
                continue
            cert = witness_scan(inst2.table, h, "1/32", inst2.xi)
            assert cert.ok and cert.cross_checked
            count += 1
        assert count == 15

    def test_certified_cosets_have_nontrivial_gamma(self, inst3):
        rng = random.Random(11)
        for _ in range(10):
            h = random_nonzero_subspace(11, rng)
            cert = witness_scan(inst3.table, h, "1/48", inst3.xi)
            perp = h.orthogonal_complement()
            for r in np.flatnonzero(cert.certified)[:8]:
                assert not perp.contains(int(cert.gammas[r]))
                assert cert.coefficient(int(r)) > Fraction(1, 48)

    def test_failure_raises_at_large_eps(self, inst2):
        with pytest.raises(ClaimViolationError):
            witness_scan(inst2.table, Subspace.from_vectors(3, [1]), "3/4", inst2.xi)

    def test_needs_exact_counts(self, inst2):
        from f2reglab import FunctionTable

        plain = FunctionTable(3, inst2.table.values)
        with pytest.raises(ValueError):
            witness_scan(plain, Subspace.from_vectors(3, [1]), "1/32", inst2.xi)

    def test_float_eps_with_a_large_denominator(self, inst3):
        # Fraction(0.02) has denominator 2^58; scaling numerators by it
        # would overflow int64 and wrongly reject the certificate
        h = Subspace.from_vectors(11, [2 << k for k in range(10)])
        as_float = witness_scan(inst3.table, h, 0.02, inst3.xi)
        exact = witness_scan(inst3.table, h, "1/50", inst3.xi)
        assert as_float.ok and exact.ok
        assert np.array_equal(as_float.certified, exact.certified)
        assert np.array_equal(as_float.numerators, exact.numerators)


class TestLowerBoundCheck:
    def test_exhaustive_s2(self, inst2):
        report = exhaustive_lowerbound_check(inst2, Fraction(1, 32))
        assert report.ok and bool(report)
        assert report.mode == "exhaustive"
        assert report.checked == 15 and report.certified == 15
        assert report.zero_subspace_regular

    def test_large_eps_informational(self, inst2):
        report = exhaustive_lowerbound_check(inst2, Fraction(1, 2), strict=False)
        assert not report.ok
        assert report.zero_subspace_regular
        assert len(report.regular_nonzero) == 15 and not report.failures

    def test_structured_small_sample_s3(self, inst3):
        report = exhaustive_lowerbound_check(
            inst3, Fraction(1, 48), mode="structured", random_per_dim=20, seed=5
        )
        assert report.ok
        # full space + 2047 hyperplanes + 20 randoms per dimension 1..10
        assert report.checked == 1 + 2047 + 20 * 10
        assert report.per_dim_checked[10] == 2047 + 20

    def test_sampled_mode(self, inst3):
        report = exhaustive_lowerbound_check(
            inst3, Fraction(1, 48), mode="sampled", random_per_dim=10, seed=6
        )
        assert report.ok and report.checked == 100

    def test_structured_deeper_codim(self):
        from f2reglab import Instance, custom_params

        inst = Instance.from_params(custom_params((1, 3)), seed=1)
        report = exhaustive_lowerbound_check(
            inst, Fraction(1, 32), mode="structured", random_per_dim=3,
            seed=0, max_enumerated_codim=2,
        )
        # full space + 15 hyperplanes + 35 codim-2 + 3 randoms per dim 1..3
        assert report.ok and report.checked == 1 + 15 + 35 + 9

    def test_exhaustive_refused_then_structured_auto(self, inst2, inst3):
        assert exhaustive_lowerbound_check(inst2, "1/32", mode="auto").mode == "exhaustive"
        with pytest.raises(DenseLimitError, match="limited to n <= 4, got 11"):
            exhaustive_lowerbound_check(inst3, "1/48", mode="exhaustive")
        small = exhaustive_lowerbound_check(
            inst3, "1/48", mode="auto", random_per_dim=1, seed=1
        )
        assert small.mode == "structured"

    def test_float_eps_walk_matches_exact_rational(self, inst3):
        as_float, exact = (
            exhaustive_lowerbound_check(inst3, eps, mode="structured", random_per_dim=20, seed=0)
            for eps in (0.02, "1/50")
        )
        assert exact.certified == exact.checked > 2000
        for key in ("checked", "certified", "per_dim_checked", "failures", "regular_nonzero"):
            assert getattr(as_float, key) == getattr(exact, key)

    def test_random_subspace_sampler_exact_dim(self):
        stream = Stream(3, "test")
        for dim in (1, 4, 7):
            for _ in range(20):
                assert _random_subspace(11, dim, stream).dim == dim
            rows = _random_stack(11, dim, 20, stream)
            assert all(Subspace.from_vectors(11, r).dim == dim for r in rows.tolist())

    def test_strict_failure_raises(self, inst2):
        with pytest.raises(ClaimViolationError):
            exhaustive_lowerbound_check(inst2, Fraction(1, 2), strict=True)


class TestCrossCheckAgainstRegularityReport:
    def test_certificate_matches_report_verdicts(self, inst3):
        rng = random.Random(12)
        for _ in range(10):
            h = random_nonzero_subspace(11, rng)
            cert = witness_scan(inst3.table, h, "1/48", inst3.xi, cross_check=True)
            report = cert.regularity_report
            assert report is not None and not report.is_regular
            certified_reps = set(cert.reps[cert.certified].tolist())
            irregular_reps = set(report.witness_reps.tolist())
            assert certified_reps <= irregular_reps

    def test_report_consistency_standalone(self, inst3):
        h = Subspace.from_vectors(11, [1])
        cert = witness_scan(inst3.table, h, "1/48", inst3.xi)
        report = check_subspace_regularity(inst3.table, h, "1/48")
        assert report.irregular_cosets >= cert.certified_cosets


def per_subspace_walk(monkeypatch, inst, eps, **kwargs):
    """The lower-bound walk with every stack failed, so each subspace goes
    through the one-at-a-time witness_scan body: the oracle of the
    stacks.  Stacks hand back H = D-perp computed by
    `orthogonal_complement`, independently of `_certify_duals`."""
    def fail_duals(f, spectrum, duals, *args):
        perps = [Subspace.from_vectors(f.n, d.tolist()).orthogonal_complement() for d in duals]
        return rows_of(perps), None, None, np.zeros(len(duals), dtype=bool)

    with monkeypatch.context() as m:
        m.setattr(witness, "_certify_duals", fail_duals)
        return exhaustive_lowerbound_check(inst, eps, **kwargs)


def stacked_and_oracle(monkeypatch, inst, eps, **kwargs):
    stacked = exhaustive_lowerbound_check(inst, eps, **kwargs)
    return dataclasses.asdict(stacked), dataclasses.asdict(
        per_subspace_walk(monkeypatch, inst, eps, **kwargs)
    )


def old_walk(n, mode, random_per_dim, seed, max_codim):
    """The walk as a list of Subspace objects, built one at a time."""
    family = []
    if mode == "structured":
        family.append(Subspace.full(n))
        for codim in range(1, max_codim + 1):
            family += [d.orthogonal_complement() for d in subspaces_of_dim(n, codim)]
    for dim in range(1, n):
        stream = Stream(seed, f"lowerbound/dim{dim}")
        family += [_random_subspace(n, dim, stream) for _ in range(random_per_dim)]
    return family


def walk_subspaces(n, mode, random_per_dim, seed, max_codim):
    out = []
    for duals in _walk(n, mode, random_per_dim, seed, max_codim):
        assert np.array_equal(duals, _echelon_stack(duals, n, top=True)[0])
        out += [Subspace.from_vectors(n, row).orthogonal_complement() for row in duals.tolist()]
    return out


class TestArrayWalk:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_stacks_equal_the_one_draw_oracle(self, seed):
        for n in (3, 11):
            for dim in range(1, n):
                tag = f"lowerbound/dim{dim}"
                stream = Stream(seed, tag)
                expected = [_random_subspace(n, dim, stream) for _ in range(150)]
                got = _random_stack(n, dim, 150, Stream(seed, tag))
                assert got.dtype == np.int64 and got.shape == (150, dim)
                assert np.array_equal(got, rows_of(expected))
        assert _random_stack(11, 4, 0, Stream(seed)).shape == (0, 4)

    @pytest.mark.parametrize("mode, max_codim", [("structured", 1), ("structured", 3),
                                                 ("sampled", 1)])
    def test_walk_lists_the_subspaces_in_order(self, mode, max_codim):
        n = 6
        got = walk_subspaces(n, mode, 4, 3, max_codim)
        assert got == old_walk(n, mode, 4, 3, max_codim)

    def test_exhaustive_walk_lists_every_subspace(self):
        expected = [h for h in enumerate_all_subspaces(4) if h.dim]
        assert walk_subspaces(4, "exhaustive", 0, 0, 1) == expected

    @pytest.mark.parametrize("eps", ["1/48", "1/16", "1/6"])
    def test_dual_stacks_equal_witness_scan_on_every_hyperplane(self, inst2, inst3, eps):
        for inst in (inst2, inst3):
            n = inst.n
            cap = _STACK_ENTRIES >> n
            hyperplanes = [Subspace(n, (int(d),)).orthogonal_complement()
                           for d in hyperplane_duals(n)[:, 0]]
            for start in range(0, len(hyperplanes), cap):
                assert_stack_matches_scans(
                    inst.table, hyperplanes[start : start + cap], eps, inst.xi
                )

    @pytest.mark.parametrize("codim", [2, 3])
    def test_dual_stacks_equal_witness_scan_on_sampled_codims(self, inst3, codim):
        n = inst3.n
        rng = random.Random(codim)
        duals = []
        while len(duals) < 40:
            d = Subspace.from_vectors(n, [rng.getrandbits(n) for _ in range(codim)])
            if d.dim == codim:
                duals.append(d)
        perps = [d.orthogonal_complement() for d in duals]
        for eps in ("1/48", "1/6"):
            assert_stack_matches_scans(inst3.table, perps, eps, inst3.xi)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_perp_stack_is_the_orthogonal_complement_both_ways(self, seed):
        n = 11
        for dim in range(n + 1):
            rows = _random_stack(n, dim, 40, Stream(seed, f"perp/{dim}"))
            hs = [Subspace(n, tuple(r)) for r in rows.tolist()]
            perps = dual_rows([h.orthogonal_complement() for h in hs])
            # H's lowest bits give H-perp in top-pivot echelon form
            lowest = np.bitwise_count((rows & -rows) - 1)
            assert np.array_equal(_perp_stack(rows, lowest, n), perps)
            # and the duals' top bits give H back in lowest-pivot form
            tops = np.array([[r.bit_length() - 1 for r in p] for p in perps.tolist()],
                            dtype=np.int64).reshape(40, n - dim)
            assert np.array_equal(_perp_stack(perps, tops, n), rows)


class TestStackedWalk:
    def test_stacks_are_maximal_runs_within_the_cap(self):
        n = 11
        cap = _STACK_ENTRIES >> n
        stream = Stream(4, "stacks")
        runs = [_random_stack(n, d, size, stream)
                for d, size in ((8, 2 * cap + 2), (7, 5), (8, cap), (6, 1))]
        runs.insert(2, hyperplane_duals(n)[:cap + 3])
        stacks = list(_stacks(runs, n))
        assert [len(st) for st in stacks] == [cap, cap, 2, 5, cap, 3, cap, 1]
        assert [st.shape[1] for st in stacks] == [8, 8, 8, 7, 1, 1, 8, 6]
        flat = [row for st in stacks for row in st.tolist()]
        assert flat == [row for rows in runs for row in rows.tolist()]
        for st in stacks:
            assert len(st) << n <= _STACK_ENTRIES

    @pytest.mark.parametrize("eps", ["1/48", "1/16", "1/6"])
    def test_stack_matches_witness_scan_and_report(self, inst3, eps):
        n = inst3.n
        cap = _STACK_ENTRIES >> n
        stream = Stream(8, f"stack-oracle/{eps}")
        for dim in range(1, n + 1):
            size = cap if dim % 2 else 9  # full stacks and short ones
            stack = [_random_subspace(n, dim, stream) for _ in range(size)]
            assert_stack_matches_scans(inst3.table, stack, eps, inst3.xi)

    def test_spot_checks_use_the_strided_rows(self, inst3):
        # corrupt the defining mean on the last spot-checked coset only
        f = inst3.table
        h = Subspace.from_vectors(11, [0b10000000100, 0b01000100000, 0b00110000000])
        cert = witness_scan(f, h, "1/48", inst3.xi)
        rows = np.flatnonzero(cert.certified)
        picked = rows[:: max(1, rows.size // 4)][:4]
        assert rows.size > 8 and picked[-1] not in rows[:4]
        coset = AffineSubspace(h, F2Vector(11, int(cert.reps[picked[-1]]))).element_array()
        values = f.values.copy()
        values[coset] = 1.0 - values[coset]
        bad = dataclasses.replace(f, values=values)
        with pytest.raises(ClaimViolationError, match="defining mean"):
            witness_scan(bad, h, "1/48", inst3.xi)
        # bad keeps f's counts, so only the spot checks can see the change
        assert not certify(bad, [h], "1/48", inst3.xi)[2][0]
        assert certify(f, [h], "1/48", inst3.xi)[2][0]

        # the dual path: corrupt either coset of a hyperplane with two
        # certified cosets (its counts, and so the spectrum, stay as they were)
        eps = Fraction(1, 48)
        duals = hyperplane_duals(11)
        spectrum = _count_spectrum(f)
        rows, certified, _, passed = _certify_duals(f, spectrum, duals, eps, inst3.xi)
        assert passed.all()
        k = int(np.flatnonzero(certified == 2)[-1])
        h = Subspace.from_vectors(11, rows[k].tolist())
        for rep in (0, 1 << int(duals[k, 0]).bit_length() - 1):
            coset = AffineSubspace(h, F2Vector(11, rep)).element_array()
            values = f.values.copy()
            values[coset] = 1.0 - values[coset]
            bad = dataclasses.replace(f, values=values)
            with pytest.raises(ClaimViolationError, match="defining mean"):
                witness_scan(bad, h, eps, inst3.xi)
            assert not _certify_duals(bad, spectrum, duals[k : k + 1], eps, inst3.xi)[3][0]

    def test_s3_structured_walk_matches_oracle(self, inst3, monkeypatch):
        # 70 per dimension: one full stack and a short one for every dim
        stacked, oracle = stacked_and_oracle(
            monkeypatch, inst3, Fraction(1, 48), mode="structured",
            random_per_dim=70, seed=2,
        )
        assert stacked == oracle and stacked["certified"] == 1 + 2047 + 700

    def test_s2_exhaustive_matches_oracle(self, inst2, monkeypatch):
        stacked, oracle = stacked_and_oracle(monkeypatch, inst2, Fraction(1, 32))
        assert stacked == oracle and stacked["checked"] == 15

    def test_deeper_codim_matches_oracle(self, monkeypatch):
        from f2reglab import custom_params

        inst = Instance.from_params(custom_params((1, 3)), seed=1)
        stacked, oracle = stacked_and_oracle(
            monkeypatch, inst, Fraction(1, 32), mode="structured",
            random_per_dim=3, seed=0, max_enumerated_codim=2,
        )
        assert stacked == oracle and stacked["checked"] == 1 + 15 + 35 + 9

    def test_non_strict_regular_subspaces_in_walk_order(self, inst2, monkeypatch):
        stacked, oracle = stacked_and_oracle(
            monkeypatch, inst2, Fraction(1, 2), strict=False
        )
        assert stacked["regular_nonzero"] == oracle["regular_nonzero"]
        assert len(stacked["regular_nonzero"]) == 15 and stacked == oracle

    def test_strict_failures_raise_the_same_message(self, inst2, inst3, monkeypatch):
        values = inst3.table.values.copy()
        values[5] = 1.0 - values[5]
        corrupted = dataclasses.replace(
            inst3, table=dataclasses.replace(inst3.table, values=values)
        )
        for inst, eps in ((inst2, Fraction(1, 2)), (corrupted, Fraction(1, 48))):
            kwargs = dict(mode="structured", random_per_dim=2, seed=0)
            with pytest.raises(ClaimViolationError) as stacked:
                exhaustive_lowerbound_check(inst, eps, **kwargs)
            with pytest.raises(ClaimViolationError) as oracle:
                per_subspace_walk(monkeypatch, inst, eps, **kwargs)
            assert str(stacked.value) == str(oracle.value)

    def test_structured_report_bytes_pinned(self, capsys):
        code = cli_main([
            "verify-lowerbound", "--s", "3", "--mode", "structured",
            "--random-per-dim", "200", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "61db4a804372eccc3f6b8b645c3df849b8517259da5ebed063b8820b8d957778"
        )

    def test_exhaustive_non_strict_report_bytes_pinned(self, capsys):
        # the 15 regular nonzero subspaces in walk order, per_dim_checked[0] == 1
        code = cli_main(["verify-lowerbound", "--s", "2", "--eps", "1/2", "--no-strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ffc18a24f8c7fba162c366b10fdab34b5c5d68ddd708ae413ce68a9f2578a87c"
        )
