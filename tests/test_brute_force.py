"""End-to-end cross-validation against definition-level brute force.

Everything here recomputes results straight from the definitions with
exact rational arithmetic and explicit set enumeration: no transforms,
no canonical representatives, no library internals.  Library outputs
must match these oracles exactly.
"""

import random
from fractions import Fraction

import pytest

import f2reglab as fl
from f2reglab.witness import w_subspace


def span_set(rows, n):
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


def cosets_of(rows, n):
    """Partition of F2^n into cosets of span(rows), as frozensets."""
    h = span_set(rows, n)
    seen = set()
    cosets = []
    for g in range(1 << n):
        coset = frozenset(g ^ x for x in h)
        if coset not in seen:
            seen.add(coset)
            cosets.append(coset)
    return cosets


def parity(x):
    return bin(x).count("1") % 2


def brute_coefficient(counts, denom, coset, eta):
    total = sum(counts[x] * (-1 if parity(x & eta) else 1) for x in coset)
    return Fraction(int(total), denom * len(coset))


def brute_is_regular_coset(counts, denom, coset, h_rows, n, eps):
    """Every character class outside the annihilator stays within eps.

    Scans all 2^n characters and skips those constant on the direction
    subspace (the trivial classes).
    """
    h = span_set(h_rows, n)
    for eta in range(1 << n):
        if all(parity(v & eta) == 0 for v in h):
            continue
        if abs(brute_coefficient(counts, denom, coset, eta)) > eps:
            return False
    return True


def brute_subspace_regular(counts, denom, h_rows, n, eps):
    cosets = cosets_of(h_rows, n)
    regular = sum(
        1 for c in cosets if brute_is_regular_coset(counts, denom, c, h_rows, n, eps)
    )
    return Fraction(len(cosets) - regular, len(cosets)) <= eps, regular, len(cosets)


@pytest.fixture(scope="module")
def inst2():
    return fl.Instance.generate(2, seed=1)


@pytest.fixture(scope="module")
def inst3():
    return fl.Instance.generate(3, seed=1)


class TestAgainstDefinitions:
    def test_every_subspace_regularity_verdict_s2(self, inst2):
        counts = inst2.table.counts.tolist()
        eps = Fraction(1, 32)
        for h in fl.enumerate_all_subspaces(3):
            verdict, regular, total = brute_subspace_regular(counts, 2, h.basis, 3, eps)
            report = fl.check_subspace_regularity(inst2.table, h, eps)
            assert report.is_regular == verdict
            assert (report.regular_cosets, report.total_cosets) == (regular, total)

    def test_every_coset_spectrum_value_s2(self, inst2):
        counts = inst2.table.counts.tolist()
        for h in fl.enumerate_all_subspaces(3):
            for coset_set in cosets_of(h.basis, 3):
                coset = fl.AffineSubspace(h, fl.F2Vector(3, min(coset_set)))
                spectrum = fl.restricted_spectrum(inst2.table, coset)
                for eta, value in zip(spectrum.class_reps.tolist(), spectrum.coefficients.tolist()):
                    expected = brute_coefficient(counts, 2, coset_set, eta)
                    assert value == pytest.approx(float(expected), abs=1e-12)

    def test_witness_certificates_against_definitions_s2(self, inst2, inst3):
        # every subspace of the s = 2 instance, and sampled subspaces of
        # dimension >= 8 of the s = 3 instance (at most 8 cosets each)
        rng = random.Random(99)
        sampled = []
        while len(sampled) < 4:
            rows = [rng.getrandbits(11) for _ in range(rng.randint(8, 11))]
            h = fl.Subspace.from_vectors(11, rows)
            if h.dim >= 8:
                sampled.append(h)
        cases = [(inst2, Fraction(1, 32), h) for h in fl.enumerate_all_subspaces(3)]
        cases += [(inst3, Fraction(1, 48), h) for h in sampled]
        for inst, eps, h in cases:
            if h.dim == 0:
                continue
            n, s = inst.n, inst.s
            counts = inst.table.counts.tolist()
            blocks = inst.params.blocks
            # the active block and gamma, from the definitions
            h_set = span_set(h.basis, n)
            i = next(
                j for j in range(1, s + 1)
                if any(v >> blocks.offsets[j - 1] & ((1 << blocks.dims[j - 1]) - 1)
                       for v in h_set)
            )
            cert = fl.witness_scan(inst.table, h, eps, inst.xi)
            assert cert.block_index == i
            certified = 0
            for coset_set in cosets_of(h.basis, n):
                g = min(coset_set)
                prefix = g & ((1 << blocks.offsets[i - 1]) - 1)
                gamma = inst.xi.entry(i, prefix) << blocks.offsets[i - 1]
                trivial = all(parity(v & gamma) == 0 for v in h_set)
                coefficient = brute_coefficient(counts, s, coset_set, gamma)
                (r,) = [k for k, rep in enumerate(cert.reps.tolist()) if rep in coset_set]
                assert int(cert.gammas[r]) == gamma
                assert cert.coefficient(r) == coefficient
                if not trivial and coefficient > eps:
                    certified += 1
            assert cert.certified_cosets == certified
            assert cert.irregular_fraction == Fraction(certified, 1 << (n - h.dim))

    def test_bad_fractions_against_definitions_s2(self, inst2):
        blocks = inst2.params.blocks
        for h in fl.enumerate_all_subspaces(3):
            if h.dim == 0:
                continue
            h_set = span_set(h.basis, 3)
            i = 1 if any(v & 1 for v in h_set) else 2
            bad = sum(
                1
                for g in range(8)
                if all(
                    parity(
                        v
                        & (
                            inst2.xi.entry(i, g & ((1 << blocks.offsets[i - 1]) - 1))
                            << blocks.offsets[i - 1]
                        )
                    )
                    == 0
                    for v in h_set
                )
            )
            expected = Fraction(bad, 8)
            if expected <= Fraction(3, 4):
                assert fl.bad_fraction(h, i, inst2.xi) == expected

    def test_random_subspaces_s3(self, inst3):
        rng = random.Random(77)
        counts = inst3.table.counts.tolist()
        eps = Fraction(1, 48)
        for _ in range(6):
            rows = [rng.getrandbits(11) for _ in range(rng.randint(8, 11))]
            h = fl.Subspace.from_vectors(11, rows)
            if h.dim == 0 or h.dim < 8:
                continue  # keep the brute-force coset count manageable
            verdict, regular, total = brute_subspace_regular(counts, 3, h.basis, 11, eps)
            report = fl.check_subspace_regularity(inst3.table, h, eps)
            assert report.is_regular == verdict
            assert report.regular_cosets == regular

    def test_tail_average_from_definitions_s3(self, inst3):
        rng = random.Random(88)
        counts = inst3.table.counts.tolist()
        blocks = inst3.params.blocks
        checked = 0
        while checked < 5:
            rows = [rng.getrandbits(11) for _ in range(rng.randint(9, 11))]
            h = fl.Subspace.from_vectors(11, rows)
            if h.dim == 0:
                continue
            i, _ = fl.minimal_active_block(h, blocks)
            g = rng.getrandbits(11)
            gamma = fl.gamma_character(g, i, inst3.xi)
            if h.orthogonal_complement().contains(gamma):
                continue
            h_set = span_set(h.basis, 11)
            tail = sorted(span_set(w_subspace(blocks, i).basis, 11))
            total = Fraction(0)
            for w in tail:
                coset = frozenset((g ^ w ^ v) for v in h_set)
                total += brute_coefficient(counts, 3, coset, gamma.bits)
            assert total / len(tail) == Fraction(1, 6)
            assert fl.w_average_coefficient(inst3.table, h, g, i, inst3.xi) == Fraction(1, 6)
            checked += 1
