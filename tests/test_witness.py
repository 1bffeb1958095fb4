"""Witness certificates: active blocks, gamma characters, exact
coefficient identities, and whole-instance lower-bound scans."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from f2reglab import (
    AffineSubspace,
    ClaimViolationError,
    DenseLimitError,
    DimensionMismatchError,
    F2Vector,
    FunctionTable,
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
from f2reglab import fourier, witness
from f2reglab.cli import main as cli_main
from f2reglab.fourier import _count_spectrum
from f2reglab.gf2 import _echelon_stack, reduce_array, subspaces_of_dim
from f2reglab.reports import emit_report
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
    """`_certify_duals` and the full-class `_dual_worst` on the subspaces hs
    of one dimension, through their duals from `orthogonal_complement`;
    checks the echelon bases and the canonical coset reps it hands back
    and returns the rest: the gammas, numerators, certified and trivial
    masks, the irregular counts, and the three checks in `_failure` order
    (certified cosets irregular, then `_certify_duals`'s two)."""
    eps, spectrum = Fraction(eps), _count_spectrum(f)
    duals = dual_rows([h.orthogonal_complement() for h in hs])
    rows, reps, gammas, numerators, certified, trivial, checks = _certify_duals(
        f, spectrum, duals, eps, xi
    )
    assert np.array_equal(rows, rows_of(hs))
    assert np.array_equal(reps, [h.coset_representative_array() for h in hs])
    threshold = fourier._threshold(eps, f.denominator << hs[0].dim)
    best, _, _ = fourier._dual_worst(spectrum, duals, rows & -rows)
    irregular = best >> duals.shape[1] > threshold
    first = ~(certified & ~irregular).any(axis=1)
    return (gammas, numerators, certified, trivial, irregular.sum(axis=1),
            np.column_stack([first, checks]))


def parity_buckets(basis, etas):
    """Column of each character in a `_coset_transform` row, by the
    parity definition: bit i is <basis_i, eta>."""
    z = np.zeros(np.shape(etas), dtype=np.int64)
    for i, row in enumerate(basis):
        z |= (np.bitwise_count(etas & np.int64(row)) & 1).astype(np.int64) << i
    return z


def pullback_certificate(f, h, eps, xi):
    """The oracle of the certificates that `_certify_duals` and
    `witness_scan` read from the full transform, built from the pullback
    transform of every coset of h (`_coset_transform`): each coset's
    gamma (`gamma_character` of its prefix), numerator at gamma, and
    whether its largest nontrivial magnitude exceeds eps; and the
    certificate's three checks, with the spot checks read from the
    defining mean (`restricted_coefficient`).  Returns the reps, gammas
    and numerators, the certified, trivial and irregular masks, and the
    checks in `_certify_duals` order."""
    eps, n = Fraction(eps), f.n
    i, _ = minimal_active_block(h, xi.blocks)
    lo = xi.blocks.offsets[i - 1]
    prefixes = np.array([gamma_character(p, i, xi).bits for p in range(1 << lo)])
    reps = h.coset_representative_array()
    gammas = prefixes[reps & ((1 << lo) - 1)].astype(np.int64)
    table, den = fourier._coset_transform(f, h.span_array(), reps)
    buckets = parity_buckets(h.basis, gammas)
    numerators = fourier._signed(table[np.arange(reps.size), buckets], reps, gammas)
    bound = eps.numerator * den // eps.denominator
    trivial = buckets == 0
    certified = ~trivial & (numerators > bound)
    irregular = np.abs(table[:, 1:]).max(axis=1) > bound
    rows = np.flatnonzero(certified)
    spot = all(
        abs(restricted_coefficient(f, AffineSubspace(h, F2Vector(n, int(reps[r]))),
                                   F2Vector(n, int(gammas[r]))) - numerators[r] / den) <= 1e-9
        for r in rows[:: max(1, rows.size // 4)][:4]
    )
    limit = eps.numerator * reps.size // eps.denominator
    checks = [not (certified & ~irregular).any(), spot, certified.sum() > limit]
    return reps, gammas, numerators, certified, trivial, irregular, checks


def assert_stack_matches_scans(f, hs, eps, xi):
    """The oracle of `_certify_duals` and of witness_scan: each subspace's
    per-coset gammas, numerators (trivial gammas included), certified and
    trivial masks, its irregular coset count and its checks from the
    pullback certificate, and witness_scan raises exactly where a check
    fails and otherwise certifies the same cosets with the same
    numerators."""
    *stacked, irregular, checks = certify(f, hs, eps, xi)
    for k, h in enumerate(hs):
        _, *want, bad, verdicts = pullback_certificate(f, h, eps, xi)
        for got, expected in zip(stacked, want):
            assert np.array_equal(got[k], expected)
        assert irregular[k] == bad.sum() and checks[k].tolist() == verdicts
        _, numerators, expected, _ = want
        ok = all(verdicts)
        try:
            cert = witness_scan(f, h, eps, xi)
        except ClaimViolationError:
            assert not ok
            continue
        assert ok and cert.regularity_report.irregular_cosets == bad.sum()
        assert np.array_equal(cert.numerators, numerators)
        assert np.array_equal(cert.certified, expected)


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

    def test_stacked_gammas_refuse_a_prefix_that_varies_on_cosets(self, inst3):
        # the first row puts the active block at block 3 (offset 3), and
        # the second has bit 0 below it, so prefixes are not constant on
        # cosets; the check raises under python -O too
        reps = np.arange(4, dtype=np.int64)[None]
        good, family, prefixes = witness._gammas(np.array([[1 << 3, 1 << 4]]), reps, inst3.xi)
        assert np.array_equal(good, [[inst3.xi.entry(3, p) << 3 for p in range(4)]])
        assert np.array_equal(family, [[inst3.xi.entry(3, p) << 3 for p in range(8)]])
        assert np.array_equal(prefixes, reps)
        for rows in ([[1 << 3, 1]], [[1 << 3, 1 << 4], [1 << 5, 0b110]]):
            with pytest.raises(ValueError, match="prefix not constant on cosets"):
                witness._gammas(np.array(rows), np.zeros((len(rows), 4), np.int64), inst3.xi)


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


class TestBlockIndexGuard:
    """A block index outside 1..s is refused by name, not read from the
    wrong family (i = 0 would read block s) or failed with a bare
    IndexError."""

    @pytest.mark.parametrize("i", [0, 4, -1])
    def test_out_of_range_block_refused(self, inst3, i):
        h = Subspace.from_vectors(11, [8])
        calls = [
            lambda: bad_fraction(h, i, inst3.xi),
            lambda: gamma_character(5, i, inst3.xi),
            lambda: inst3.xi.entry(i, 0),
            lambda: inst3.xi.entry_for(i, 5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"block index i={i} out of range 1..s for s=3"):
                call()

    def test_edge_blocks_accepted(self, inst3):
        assert gamma_character(5, 1, inst3.xi) == F2Vector(11, 1)
        assert inst3.xi.entry(3, 7) == inst3.xi.families[2][7]


class TestTranslateGuard:
    """The translate g of the tail averages must live in the table's
    F2^n, as deviation reports check their characters."""

    @pytest.mark.parametrize("fn", [w_average_coefficient, corollary_fraction])
    def test_translate_outside_the_table_refused(self, inst3, fn):
        h = Subspace.from_vectors(11, [8])
        with pytest.raises(DimensionMismatchError, match="translate n=12 vs table n=11"):
            fn(inst3.table, h, F2Vector(12, 0), 3, inst3.xi)
        for g in (-8, 2048):
            with pytest.raises(ValueError, match=f"translate {g} out of range for n=11"):
                fn(inst3.table, h, g, 3, inst3.xi)

    def test_translates_in_range_accepted(self, inst3):
        h = Subspace.from_vectors(11, [8])
        for g in (0, F2Vector(11, 0), 2040):  # prefix 0: gamma = e4, not in H-perp
            assert w_average_coefficient(inst3.table, h, g, 3, inst3.xi) == Fraction(1, 6)


class TestSizeGuard:
    """A subspace or xi family whose n is not the table's is refused with
    DimensionMismatchError before the spectrum is computed."""

    @pytest.fixture
    def no_spectrum(self, monkeypatch):
        def refuse(f):
            raise AssertionError("spectrum computed")

        monkeypatch.setattr(witness, "_count_spectrum", refuse)

    @pytest.mark.parametrize("fn", [w_average_coefficient, corollary_fraction])
    @pytest.mark.parametrize("basis", [[4], [1]])
    def test_tail_average_on_a_smaller_subspace(self, inst3, fn, basis, no_spectrum):
        # span(e3) of F2^3 used to read "witness character is trivial on H",
        # and span(e1) of F2^3 an average of 1/6
        with pytest.raises(DimensionMismatchError, match="table n=11 vs subspace n=3"):
            fn(inst3.table, Subspace.from_vectors(3, basis), 0, 1, inst3.xi)

    @pytest.mark.parametrize("fn", [w_average_coefficient, corollary_fraction])
    def test_tail_average_on_a_larger_subspace(self, inst3, fn, no_spectrum):
        # used to index the table out of bounds (IndexError at 2048)
        h = Subspace.from_vectors(12, [1, 1 << 11])
        with pytest.raises(DimensionMismatchError, match="table n=11 vs subspace n=12"):
            fn(inst3.table, h, 0, 1, inst3.xi)

    @pytest.mark.parametrize("fn", [w_average_coefficient, corollary_fraction])
    def test_tail_average_with_another_xi_family(self, inst2, inst3, fn, no_spectrum):
        # the s = 2 family on span(e2) used to give 1/6 and 1
        h = Subspace.from_vectors(11, [2])
        with pytest.raises(DimensionMismatchError, match="table n=11 vs xi family n=3"):
            fn(inst3.table, h, 0, 2, inst2.xi)

    def test_witness_scan_with_another_xi_family(self, inst2, inst3, no_spectrum):
        # span(e2) used to get an ok certificate built from the s = 2 family
        with pytest.raises(DimensionMismatchError, match="table n=11 vs xi family n=3"):
            witness_scan(inst3.table, Subspace.from_vectors(11, [2]), "1/48", inst2.xi)

    def test_witness_scan_past_the_other_family_blocks(self, inst2, inst3, no_spectrum):
        # span(e6) lies past the s = 2 blocks: used to raise IndexError
        with pytest.raises(DimensionMismatchError, match="table n=11 vs xi family n=3"):
            witness_scan(inst3.table, Subspace.from_vectors(11, [32]), "1/48", inst2.xi)


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


class TestTailTranslatesReadTheSpectrum:
    """Each tail-translate coefficient is its coset's counts summed with
    signs (-1)^<x, gamma>, over denominator * 2^dim: on every hyperplane
    of s = 2 and s = 3 and on 20 seeded subspaces of s = 3, at a seeded
    translate whose gamma is nontrivial on H.  Every prefix whose gamma
    lies in H-perp is refused."""

    def assert_coset_sums(self, inst, h, rng):
        f, n, xi = inst.table, inst.n, inst.xi
        i, _ = minimal_active_block(h, xi.blocks)
        perp = h.orthogonal_complement()
        for p in range(1 << xi.blocks.offsets[i - 1]):
            if perp.contains(gamma_character(p, i, xi)):
                with pytest.raises(ValueError, match="trivial on H"):
                    w_average_coefficient(f, h, p, i, xi)
        g = valid_translate(inst, h, i, rng)
        gamma = gamma_character(g, i, xi).bits
        values = witness._w_class_fractions(f, h, g, i, xi)

        def syndrome(x):  # which coset of H: the parities with H-perp's basis
            return sum(
                ((np.bitwise_count(x & d) & 1).astype(np.int64) << k
                 for k, d in enumerate(perp.basis)),
                np.zeros_like(x),
            )

        lo = xi.blocks.offsets[i]
        tail = g ^ (np.arange(1 << (n - lo), dtype=np.int64) << lo)
        reps = syndrome(np.unique(reduce_array(tail, h)))
        assert sorted(reps.tolist()) == sorted(set(syndrome(tail).tolist()))
        points = np.arange(f.size, dtype=np.int64)
        signs = 1 - 2 * (np.bitwise_count(points & gamma) & 1).astype(np.int64)
        signed = f.counts.astype(np.int64) * signs
        cosets = syndrome(points)
        expected = [
            Fraction(int(signed[cosets == r].sum()), f.denominator << h.dim) for r in reps
        ]
        assert values == expected
        assert w_average_coefficient(f, h, g, i, xi) == Fraction(sum(expected), len(expected))

    def test_every_hyperplane_of_s2(self, inst2):
        rng = random.Random(30)
        for eta in range(1, 8):
            self.assert_coset_sums(inst2, Subspace.annihilator(3, [eta]), rng)

    def test_every_hyperplane_of_s3(self, inst3):
        rng = random.Random(31)
        for eta in range(1, 1 << 11):
            self.assert_coset_sums(inst3, Subspace.annihilator(11, [eta]), rng)

    def test_seeded_subspaces_of_s3(self, inst3):
        rng = random.Random(32)
        for _ in range(20):
            self.assert_coset_sums(inst3, random_nonzero_subspace(11, rng), rng)


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
        plain = FunctionTable(3, inst2.table.values)
        with pytest.raises(ValueError):
            witness_scan(plain, Subspace.from_vectors(3, [1]), "1/32", inst2.xi)

    @pytest.mark.parametrize("n", [10, 12])
    def test_subspace_of_another_n_refused_before_the_spectrum(self, inst3, monkeypatch, n):
        # the guards run in order: no counts, the zero subspace, then n
        def refuse(f):
            raise AssertionError("spectrum computed")

        monkeypatch.setattr(witness, "_count_spectrum", refuse)
        plain = FunctionTable(11, inst3.table.values)
        with pytest.raises(ValueError, match="exact count tables"):
            witness_scan(plain, Subspace.zero(n), "1/48", inst3.xi)
        with pytest.raises(ValueError, match="zero subspace"):
            witness_scan(inst3.table, Subspace.zero(n), "1/48", inst3.xi)
        for h in (Subspace.from_vectors(n, [1 << (n - 1)]), Subspace.full(n)):
            with pytest.raises(DimensionMismatchError, match=f"table n=11 vs subspace n={n}"):
                witness_scan(inst3.table, h, "1/48", inst3.xi)

    def test_blocks_of_16_entries_give_the_same_certificate(self, inst3, monkeypatch):
        # the scans' block and chunk size must not change a certificate or
        # its report.  Subspaces inside blocks 2 and 3 give cosets
        # different gammas.
        rng = random.Random(13)
        hs = [random_nonzero_subspace(11, rng) for _ in range(4)] + [Subspace.full(11)]
        for low, dims in ((1, (1, 2)), (3, (1, 2, 3, 5, 8))):
            hs += [Subspace.from_vectors(11, [rng.getrandbits(11 - low) << low
                                              for _ in range(d)]) for d in dims]
        expected = [witness_scan(inst3.table, h, "1/48", inst3.xi) for h in hs]
        monkeypatch.setattr(fourier, "_CHUNK", 16)
        for h, want in zip(hs, expected):
            got = witness_scan(inst3.table, h, "1/48", inst3.xi)
            for name in ("reps", "gammas", "numerators", "certified"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert emit_report(got) == emit_report(want)
            assert emit_report(got.regularity_report) == emit_report(want.regularity_report)

    def test_float_eps_with_a_large_denominator(self, inst3):
        # Fraction(0.02) has denominator 2^58; scaling numerators by it
        # would overflow int64 and wrongly reject the certificate
        h = Subspace.from_vectors(11, [2 << k for k in range(10)])
        as_float = witness_scan(inst3.table, h, 0.02, inst3.xi)
        exact = witness_scan(inst3.table, h, "1/50", inst3.xi)
        assert as_float.ok and exact.ok
        assert np.array_equal(as_float.certified, exact.certified)
        assert np.array_equal(as_float.numerators, exact.numerators)


def report_digest(report, sha):
    """Feed every field of a regularity report, dtypes included, to sha."""
    sha.update(emit_report(report).encode())
    for a in (report.witness_reps, report.witness_etas, report.witness_values):
        sha.update(str(a.dtype).encode() + a.tobytes())


def certificate_digest(cert, sha):
    """Feed a certificate, its full per-coset arrays and its report to sha."""
    sha.update(emit_report(cert).encode())
    for a in (cert.reps, cert.gammas, cert.numerators, cert.certified):
        sha.update(str(a.dtype).encode() + a.tobytes())
    report_digest(cert.regularity_report, sha)


STRUCTURED_S3_SHA = "61db4a804372eccc3f6b8b645c3df849b8517259da5ebed063b8820b8d957778"


class TestCountTablesReadTheSpectrum:
    """Count tables get every report and certificate from their full
    transform.  With the pullback scan and transform patched to raise, the
    checks and certificates of every nonzero subspace of s = 2 and of one
    subspace of each dimension of s = 3, and a structured walk, give the
    bytes pinned from the pullback path; a float table still reaches the
    pullback scan."""

    @pytest.fixture
    def no_pullback(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pullback ran")

        monkeypatch.setattr(fourier, "_regularity_scan", refuse)
        monkeypatch.setattr(fourier, "_coset_transform", refuse)

    def test_reports_and_certificates_pinned(self, inst2, inst3, no_pullback):
        stream = Stream(18, "one-per-dim")
        cases = [(inst2, "1/32", h) for h in enumerate_all_subspaces(3)]
        cases += [(inst3, "1/48", Subspace.zero(11))]
        cases += [(inst3, "1/48", _random_subspace(11, d, stream)) for d in range(1, 12)]
        sha = hashlib.sha256()
        for inst, eps, h in cases:
            report_digest(check_subspace_regularity(inst.table, h, eps), sha)
            if h.dim:
                certificate_digest(witness_scan(inst.table, h, eps, inst.xi), sha)
        assert sha.hexdigest() == (
            "16d71677367a0e9a7c80d117bf99e7352fe02aebaa973133ed2f69b204dd64d3"
        )

    def test_structured_walk_pinned(self, no_pullback, capsys):
        code = cli_main([
            "verify-lowerbound", "--s", "3", "--mode", "structured",
            "--random-per-dim", "200", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == STRUCTURED_S3_SHA

    def test_tail_averages_read_the_spectrum(self, inst3, no_pullback):
        rng = random.Random(28)
        for _ in range(10):
            h = random_nonzero_subspace(11, rng)
            i, _ = minimal_active_block(h, inst3.xi.blocks)
            g = valid_translate(inst3, h, i, rng)
            assert w_average_coefficient(inst3.table, h, g, i, inst3.xi) == Fraction(1, 6)
            assert corollary_fraction(inst3.table, h, g, i, inst3.xi) > Fraction(1, 12)

    def test_float_tables_reach_the_pullback(self, no_pullback):
        f = FunctionTable(11, np.random.default_rng(18).random(1 << 11))
        with pytest.raises(AssertionError, match="pullback ran"):
            check_subspace_regularity(f, Subspace.from_vectors(11, [1, 6]), "1/48")


class TestRegularityProfile:
    """The s = 2 profile over every subspace of F2^3: the least index of
    an eps-regular subspace of `Instance.generate(2, 0)` is 2^3 (only the
    zero subspace) up to eps = 1/6, and 1 (the full space) at 1/4."""

    @pytest.mark.parametrize("eps, index", [
        ("1/32", 8), ("1/16", 8), ("1/8", 8), ("1/6", 8), ("1/4", 1),
    ])
    def test_least_regular_index_of_s2(self, eps, index):
        f = Instance.generate(2, seed=0).table
        regular = [
            h.index for h in enumerate_all_subspaces(3)
            if check_subspace_regularity(f, h, eps).is_regular
        ]
        assert min(regular) == index


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

    @pytest.mark.parametrize("mode, kwargs, message", [
        ("structured", {"max_enumerated_codim": 3}, "max_enumerated_codim 3 out of range 0..2"),
        ("structured", {"max_enumerated_codim": 99}, "max_enumerated_codim 99 out of range 0..2"),
        ("structured", {"max_enumerated_codim": -3}, "max_enumerated_codim -3 out of range 0..2"),
        *[(mode, {"random_per_dim": -5}, "random_per_dim must be non-negative, got -5")
          for mode in ("structured", "sampled", "exhaustive")],
    ])
    def test_walk_bounds_refused_before_the_spectrum(
        self, inst2, monkeypatch, mode, kwargs, message
    ):
        # codim n would enumerate {0}, whose duals break the gamma lookup
        def refuse(f):
            raise AssertionError("spectrum computed")

        monkeypatch.setattr(witness, "_count_spectrum", refuse)
        with pytest.raises(ValueError, match=message):
            exhaustive_lowerbound_check(inst2, "1/32", mode=mode, **kwargs)

    @pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
    @pytest.mark.parametrize("max_codim", [-3, 3, 99])
    def test_max_codim_ignored_outside_structured_mode(self, inst2, mode, max_codim):
        # only the structured walk enumerates codimensions
        kwargs = {"mode": mode, "random_per_dim": 20}
        got = exhaustive_lowerbound_check(inst2, "1/32", max_enumerated_codim=max_codim, **kwargs)
        want = exhaustive_lowerbound_check(inst2, "1/32", **kwargs)
        assert emit_report(got) == emit_report(want)

    def test_s1_default_arguments_walk_exhaustively(self):
        # n = 1: auto picks the exhaustive walk, which ignores the default
        # max_enumerated_codim of 1 (out of range for structured mode)
        report = exhaustive_lowerbound_check(Instance.generate(1, seed=0), "1/16")
        assert report.ok and report.mode == "exhaustive" and report.per_dim_checked == (1, 1)

    def test_walk_bound_edges_accepted(self, inst2):
        # codim n - 1 lists the lines, so with the hyperplanes and the full
        # space the structured walk meets every nonzero subspace of F2^3
        report = exhaustive_lowerbound_check(
            inst2, "1/32", mode="structured", random_per_dim=0, max_enumerated_codim=2
        )
        assert report.ok and report.checked == 15 and report.per_dim_checked == (0, 7, 7, 1)
        report = exhaustive_lowerbound_check(
            inst2, "1/32", mode="structured", random_per_dim=0, max_enumerated_codim=0
        )
        assert report.ok and report.checked == 1


class TestCrossCheckAgainstRegularityReport:
    def test_certificate_matches_report_verdicts(self, inst3):
        rng = random.Random(12)
        for _ in range(10):
            h = random_nonzero_subspace(11, rng)
            cert = witness_scan(inst3.table, h, "1/48", inst3.xi)
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
    """The lower-bound walk with each stack certified one subspace at a
    time by `pullback_certificate`: the oracle of the stacks.  Each
    subspace is H = D-perp computed by `orthogonal_complement`,
    independently of `_certify_duals`; the irregular masks of failing
    subspaces come from the same oracle's own threshold in place of
    `_dual_worst` and the walk's threshold on its magnitudes."""
    def subspaces(duals):
        return [Subspace.from_vectors(inst.n, d.tolist()).orthogonal_complement() for d in duals]

    def oracle_duals(f, spectrum, duals, eps, xi):
        hs = subspaces(duals)
        reps, gammas, numerators, certified, trivial, _, checks = (
            np.array(a) for a in zip(*(pullback_certificate(f, h, eps, xi) for h in hs))
        )
        return rows_of(hs), reps, gammas, numerators, certified, trivial, checks[:, 1:]

    def oracle_worst(spectrum, duals, units):
        # magnitudes that fall on the oracle's side of any threshold the walk
        # computes, so a wrong walk threshold parts the two walks
        irregular = np.array([pullback_certificate(inst.table, h, eps, inst.xi)[5]
                              for h in subspaces(duals)])
        extreme = np.iinfo(np.int64)
        return np.where(irregular, extreme.max, extreme.min), None, None

    with monkeypatch.context() as m:
        m.setattr(witness, "_certify_duals", oracle_duals)
        m.setattr(witness, "_dual_worst", oracle_worst)
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
        assert certify(bad, [h], "1/48", inst3.xi)[-1][0].tolist() == [True, False, True]
        assert certify(f, [h], "1/48", inst3.xi)[-1][0].all()

        # the dual path: corrupt either coset of a hyperplane with two
        # certified cosets (its counts, and so the spectrum, stay as they were)
        eps = Fraction(1, 48)
        duals = hyperplane_duals(11)
        spectrum = _count_spectrum(f)
        rows, *_, certified, _, checks = _certify_duals(f, spectrum, duals, eps, inst3.xi)
        assert checks.all()
        k = int(np.flatnonzero(certified.sum(axis=1) == 2)[-1])
        h = Subspace.from_vectors(11, rows[k].tolist())
        for rep in (0, 1 << int(duals[k, 0]).bit_length() - 1):
            coset = AffineSubspace(h, F2Vector(11, rep)).element_array()
            values = f.values.copy()
            values[coset] = 1.0 - values[coset]
            bad = dataclasses.replace(f, values=values)
            with pytest.raises(ClaimViolationError, match="defining mean"):
                witness_scan(bad, h, eps, inst3.xi)
            checks = _certify_duals(bad, spectrum, duals[k : k + 1], eps, inst3.xi)[-1]
            assert checks.tolist() == [[False, True]]

    def test_spot_check_means_equal_restricted_coefficient(self, inst3):
        # the half-split mean of every picked coset equals the defining
        # mean within 1e-12: checks pass when numerator / denominator
        # sits 1e-9 - 1e-12 off it on either side, and fail at 1e-9 + 1e-12.
        # Gammas pair to 1 with several basis rows where the dim allows;
        # the first subspace of each stack certifies no coset
        f, n, rng = inst3.table, inst3.n, random.Random(19)
        stream = Stream(19, "spot-oracle")
        for dim in range(1, n + 1):
            hs = [_random_subspace(n, dim, stream) for _ in range(5)]
            reps = np.array([h.coset_representative_array() for h in hs])
            gammas = np.zeros_like(reps)
            certified = np.zeros(reps.shape, dtype=bool)
            means = np.zeros(reps.shape)
            for b, h in enumerate(hs[1:], 1):
                for r in rng.sample(range(reps.shape[1]), min(reps.shape[1], 9)):
                    while True:
                        gamma = rng.getrandbits(n)
                        pairs = sum((bin(gamma & row).count("1") & 1) for row in h.basis)
                        if pairs >= min(dim, 3):
                            break
                    certified[b, r], gammas[b, r] = True, gamma
                    coset = AffineSubspace(h, F2Vector(n, int(reps[b, r])))
                    means[b, r] = restricted_coefficient(f, coset, F2Vector(n, gamma))
            for delta, ok in ((1e-9 - 1e-12, True), (1e-9 + 1e-12, False)):
                for signed in (delta, -delta):
                    passed = witness._spot_checks(
                        f, rows_of(hs), reps, gammas, means + signed, 1, certified
                    )
                    assert passed.tolist() == [True] + [ok] * 4, (dim, signed)
        # a stack with no certified coset at all passes every subspace
        hs = [_random_subspace(n, 4, stream) for _ in range(3)]
        reps = np.array([h.coset_representative_array() for h in hs])
        none = np.zeros(reps.shape, dtype=bool)
        passed = witness._spot_checks(f, rows_of(hs), reps, reps, reps, 1, none)
        assert passed.tolist() == [True] * 3

    def test_walk_reads_full_class_tables_only_for_failing_subspaces(self, inst3, monkeypatch):
        # every stack reads its witness classes, in tables of at most 2^n
        # entries per subspace; the full-class kernel runs for failing
        # subspaces alone
        tables, worst = [], []

        def recording_table(spectrum, duals, classes):
            table = fourier._dual_table(spectrum, duals, classes)
            tables.append((len(duals), table.size))
            return table

        def recording_worst(spectrum, duals, units):
            worst.append(len(duals))
            return fourier._dual_worst(spectrum, duals, units)

        monkeypatch.setattr(witness, "_dual_table", recording_table)
        monkeypatch.setattr(witness, "_dual_worst", recording_worst)
        kwargs = dict(mode="structured", random_per_dim=200, seed=0)
        assert exhaustive_lowerbound_check(inst3, Fraction(1, 48), **kwargs).ok
        assert tables and not worst
        assert all(size <= count << inst3.n for count, size in tables)
        report = exhaustive_lowerbound_check(inst3, Fraction(1, 6), strict=False, **kwargs)
        failing = len(report.failures) + len(report.regular_nonzero)
        assert failing and sum(worst) == failing

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

    def test_non_strict_s3_verdicts_match_the_oracle(self, inst3, monkeypatch):
        # the walk of the pinned eps 1/6 report: regular and irregular
        # verdicts both occur among its failing subspaces
        stacked, oracle = stacked_and_oracle(
            monkeypatch, inst3, Fraction(1, 6), strict=False, random_per_dim=30, seed=0,
        )
        assert (len(stacked["regular_nonzero"]), len(stacked["failures"])) == (2100, 1)
        assert stacked == oracle

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

    def test_non_strict_spot_check_failures_match_the_oracle(self, inst3, monkeypatch):
        # the corrupted table of the strict test above, walked to the end
        values = inst3.table.values.copy()
        values[5] = 1.0 - values[5]
        corrupted = dataclasses.replace(
            inst3, table=dataclasses.replace(inst3.table, values=values)
        )
        stacked, oracle = stacked_and_oracle(
            monkeypatch, corrupted, Fraction(1, 48), mode="structured",
            random_per_dim=2, seed=0, strict=False,
        )
        assert stacked == oracle and stacked["certified"] == 14
        assert not stacked["regular_nonzero"] and len(stacked["failures"]) == 2054
        assert {f["reason"] for f in stacked["failures"]} == {
            "defining mean and exact coefficient disagree"
        }

    def test_structured_report_bytes_pinned(self, capsys):
        code = cli_main([
            "verify-lowerbound", "--s", "3", "--mode", "structured",
            "--random-per-dim", "200", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == STRUCTURED_S3_SHA

    def test_exhaustive_non_strict_report_bytes_pinned(self, capsys):
        # the 15 regular nonzero subspaces in walk order, per_dim_checked[0] == 1
        code = cli_main(["verify-lowerbound", "--s", "2", "--eps", "1/2", "--no-strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ffc18a24f8c7fba162c366b10fdab34b5c5d68ddd708ae413ce68a9f2578a87c"
        )

    @pytest.mark.parametrize("eps, regular, failures, digest", [
        # one failure: witness fraction 1/8 for the basis (609, 966, 1752)
        ("1/6", 2100, 1, "820bad8d0f4e12bc0a49fffbab51cb9f74737460ab60ba8e23cd4434e63d870e"),
        ("1/3", 2348, 0, "35471a0246696518922d778584a05720587ecd91b2a8fea93fb180b77734fa88"),
    ])
    def test_s3_non_strict_report_bytes_pinned(self, capsys, eps, regular, failures, digest):
        code = cli_main([
            "verify-lowerbound", "--s", "3", "--eps", eps, "--no-strict",
            "--random-per-dim", "30", "--seed", "0",
        ])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == 1 and report["checked"] == 2348
        assert (len(report["regular_nonzero"]), len(report["failures"])) == (regular, failures)
        assert hashlib.sha256(out.encode()).hexdigest() == digest
