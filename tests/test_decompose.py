"""Energy increment: energy values, refinement, full decomposition."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from f2reglab import (
    DimensionMismatchError,
    FunctionTable,
    Instance,
    Subspace,
    check_subspace_regularity,
    energy,
    find_regular_subspace,
)
from f2reglab import decompose, fourier

S2_VALUES = [1.0, 0.5, 0.5, 0.5, 1.0, 0.0, 0.5, 0.0]


def character_indicator(n: int, eta: int) -> FunctionTable:
    """Indicator of the halfspace where <x, eta> = 0."""
    points = np.arange(1 << n, dtype=np.int64)
    values = ((np.bitwise_count(points & np.int64(eta)) & 1) == 0).astype(np.float64)
    return FunctionTable(n, values)


def random_table(rng: random.Random, n: int) -> FunctionTable:
    return FunctionTable(n, np.array([rng.random() for _ in range(1 << n)]))


@pytest.fixture
def s2_table():
    return FunctionTable(3, np.array(S2_VALUES))


class TestEnergy:
    def test_full_space_gives_squared_mean(self, s2_table):
        assert energy(s2_table, Subspace.full(3)) == 0.25

    def test_zero_subspace_gives_mean_square(self, s2_table):
        assert energy(s2_table, Subspace.zero(3)) == pytest.approx(0.375, abs=1e-15)

    def test_canonical_line(self, s2_table):
        # coset means (3/4, 1/2, 1/2, 1/4) -> (9+4+4+1)/64
        assert energy(s2_table, Subspace.from_vectors(3, [1])) == 18 / 64

    def test_dimension_mismatch(self, s2_table):
        with pytest.raises(DimensionMismatchError, match="table n=3 vs subspace n=4"):
            energy(s2_table, Subspace.full(4))

    def test_monotone_under_refinement(self):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randint(2, 12)
            f = random_table(rng, n)
            rows = [rng.getrandbits(n) for _ in range(rng.randint(0, n))]
            h = Subspace.from_vectors(n, rows)
            finer = h.intersect(
                Subspace.from_vectors(n, [rng.getrandbits(n)]).orthogonal_complement()
            )
            assert energy(f, finer) >= energy(f, h) - 1e-12

    def test_bounded_by_mean_square(self):
        rng = random.Random(43)
        for _ in range(20):
            n = rng.randint(1, 8)
            f = random_table(rng, n)
            rows = [rng.getrandbits(n) for _ in range(rng.randint(0, n))]
            h = Subspace.from_vectors(n, rows)
            e = energy(f, h)
            assert f.mean() ** 2 - 1e-12 <= e <= float(np.square(f.values).mean()) + 1e-12


    @pytest.mark.parametrize("chunk", [fourier._CHUNK, 16])
    def test_blocks_of_cosets_equal_the_whole_table(self, monkeypatch, chunk):
        # every coset is reduced on its own, so blocks of several rows, or
        # of one row longer than a block, keep the float bits
        monkeypatch.setattr(fourier, "_CHUNK", chunk)
        rng = random.Random(44)
        for n in (5, 9, 12):
            f = random_table(rng, n)
            counts = FunctionTable.from_counts(
                n, np.array([rng.randint(0, 7) for _ in range(1 << n)]), 7
            )
            for dim in range(n + 1):
                h = Subspace.zero(n)
                while h.dim < dim:
                    h = Subspace.from_vectors(n, h.basis + (rng.getrandbits(n),))
                assert energy(f, h) == whole_table_energy(f, h)
                assert energy(counts, h) == float(brute_energy(counts, h))


def whole_table_energy(f: FunctionTable, h: Subspace) -> float:
    """The float energy with every coset gathered at once."""
    points = h.coset_representative_array()[:, None] ^ h.span_array()[None, :]
    return float(np.square(f.values[points].mean(axis=1)).mean())


def brute_energy(f: FunctionTable, h: Subspace) -> Fraction:
    """Exact energy of a count table by the definition: the mean over the
    cosets of the squared exact coset mean."""
    span = h.span_array().tolist()
    reps = h.coset_representative_array().tolist()
    counts = f.counts.tolist()
    means = [Fraction(sum(counts[r ^ x] for x in span), f.denominator * len(span))
             for r in reps]
    return sum(m * m for m in means) / len(reps)


def trace_subspaces(trace) -> list[Subspace]:
    """The subspace scanned in each round, rebuilt from the full space
    and the characters each round added."""
    h = Subspace.full(trace.final_subspace.n)
    out = []
    for rec in trace.iterations:
        out.append(h)
        added = Subspace.from_vectors(h.n, rec.added_characters)
        h = h.intersect(added.orthogonal_complement())
    assert h == trace.final_subspace
    return out


class TestExactCountEnergy:
    """On count tables energy is the correctly rounded exact value, equal
    to the Parseval sum over H-perp that the decomposition reads."""

    def test_brute_force_and_parseval_at_a_2_40_denominator(self):
        # (2^40 * 2^12)^2 = 2^104: the squares wrap in int64
        n, den = 12, 1 << 40
        # noise in [0, 1/2] plus two planted characters of weight 1/4
        points = np.arange(1 << n, dtype=np.int64)
        hits = sum(((np.bitwise_count(points & e) & 1) == 0).astype(np.int64)
                   for e in (0b101, 0b110000000))
        noise = np.random.default_rng(40).integers(0, den // 2 + 1, 1 << n)
        f = FunctionTable.from_counts(n, (den // 4) * hits + noise, den)
        spectrum = fourier._count_spectrum(f)
        py = random.Random(40)
        hs = [Subspace.full(n), Subspace.zero(n)] + [
            Subspace.from_vectors(n, [py.getrandbits(n) for _ in range(d)])
            for d in (1, 4, 8, 11)
        ]
        for h in hs:
            exact = brute_energy(f, h)
            assert decompose._parseval_energy(spectrum, h, den) == exact
            assert energy(f, h) == float(exact)
        trace = find_regular_subspace(f, 0.1)
        assert trace.succeeded and trace.final_report.is_regular
        assert [rec.added_characters for rec in trace.iterations] == [(0b110000000,), (0b101,)]
        for rec, h in zip(trace.iterations, trace_subspaces(trace)):
            assert rec.energy == float(brute_energy(f, h))
        assert trace.final_energy == float(brute_energy(f, trace.final_subspace))

    @pytest.mark.parametrize("s, seed", [(2, 0), (2, 1), (3, 0), (3, 1)])
    def test_trace_energies_bit_for_bit(self, s, seed):
        f = Instance.generate(s, seed=seed).table
        for eps in ("1/48", "1/16", "1/6"):
            trace = find_regular_subspace(f, eps)
            for rec, h in zip(trace.iterations, trace_subspaces(trace)):
                assert energy(f, h) == rec.energy
            assert energy(f, trace.final_subspace) == trace.final_energy

    def test_s3_energies_correctly_rounded(self):
        f = Instance.generate(3, seed=0).table
        trace = find_regular_subspace(f, "1/48")
        assert trace.iterations[0].energy == 0.25
        for rec, h in zip(trace.iterations[:4], trace_subspaces(trace)):
            assert rec.energy == float(brute_energy(f, h))

    def test_gain_guard_is_exact(self, monkeypatch):
        # energies k * step for the k-th subspace measured: a gain of
        # exactly eps^3 fails the check, and one 10^-30 above it passes
        f = Instance.generate(2, seed=1).table
        eps = Fraction(1, 32)
        for step, fails in ((eps**3, True), (eps**3 + Fraction(1, 10**30), False)):
            calls = iter(range(100))
            monkeypatch.setattr(decompose, "_parseval_energy",
                                lambda *_: next(calls) * step)
            if fails:
                with pytest.raises(decompose.DecompositionError):
                    find_regular_subspace(f, eps)
            else:
                assert find_regular_subspace(f, eps).succeeded

    def test_monotone_under_refinement(self):
        rng = random.Random(44)
        for _ in range(30):
            n = rng.randint(2, 10)
            den = rng.choice([1, 3, 6, 255, 1 << 20])
            counts = np.array([rng.randint(0, den) for _ in range(1 << n)])
            f = FunctionTable.from_counts(n, counts, den)
            rows = [rng.getrandbits(n) for _ in range(rng.randint(0, n))]
            h = Subspace.from_vectors(n, rows)
            finer = h.intersect(
                Subspace.from_vectors(n, [rng.getrandbits(n)]).orthogonal_complement()
            )
            assert energy(f, finer) >= energy(f, h)


class TestRefineStep:
    """The refinement rounds of find_regular_subspace."""

    def test_single_character_function(self):
        f = character_indicator(6, 5)
        trace = find_regular_subspace(f, 0.25)
        assert [rec.added_characters for rec in trace.iterations] == [(5,)]
        assert trace.final_subspace == Subspace.from_vectors(6, [5]).orthogonal_complement()

    def test_s2_table_from_full_space(self, s2_table):
        first = find_regular_subspace(s2_table, "1/32").iterations[0]
        assert first.dim == 3
        assert first.added_characters == (1,)  # worst coefficient 1/4 at e1
        assert first.energy_gain == 1 / 16

    def test_strict_shrinkage(self, s2_table):
        trace = find_regular_subspace(s2_table, "1/32")
        dims = [rec.dim for rec in trace.iterations] + [trace.final_subspace.dim]
        assert len(dims) > 2 and all(a > b for a, b in zip(dims, dims[1:]))
        assert check_subspace_regularity(s2_table, trace.final_subspace, "1/32").is_regular


class TestFindRegularSubspace:
    def test_constant_zero_iterations(self):
        trace = find_regular_subspace(FunctionTable.constant(6, 0.3), 0.1)
        assert trace.succeeded and len(trace.iterations) == 0
        assert trace.final_subspace == Subspace.full(6)

    def test_character_averages_absorbed(self):
        rng = random.Random(17)
        n = 12
        etas = rng.sample(range(1, 1 << n), 3)
        tables = [character_indicator(n, e) for e in etas]
        f = FunctionTable(n, np.mean([t.values for t in tables], axis=0))
        trace = find_regular_subspace(f, 0.1)
        assert trace.succeeded
        assert trace.final_subspace.index <= 8
        assert trace.final_report.is_regular
        span = Subspace.from_vectors(n, etas)
        assert all(trace.final_subspace.contains(r) for r in span.orthogonal_complement().basis)

    def test_s2_instance_reaches_zero_subspace(self, s2_table):
        trace = find_regular_subspace(s2_table, "1/32")
        assert trace.succeeded
        assert trace.final_subspace.dim == 0 and trace.final_subspace.index == 8

    def test_s3_instance_flagship(self):
        inst = Instance.generate(3, seed=1)
        eps = Fraction(1, 48)
        trace = find_regular_subspace(inst.table, eps)
        assert trace.succeeded
        assert trace.final_subspace.dim == 0
        assert trace.final_subspace.index == 2048
        assert len(trace.iterations) <= math.ceil(1 / eps**3)
        gain_floor = float(eps) ** 3
        energies = [rec.energy for rec in trace.iterations] + [trace.final_energy]
        for a, b in zip(energies, energies[1:]):
            assert b - a > gain_floor - 1e-12
        indices = [rec.index for rec in trace.iterations] + [trace.final_subspace.index]
        assert all(x < y for x, y in zip(indices, indices[1:]))

    def test_energy_gain_recorded(self, s2_table):
        trace = find_regular_subspace(s2_table, "1/32")
        for rec in trace.iterations:
            assert rec.energy_gain > float(Fraction(1, 32)) ** 3

    def test_single_witness_schedule(self, s2_table):
        trace = find_regular_subspace(s2_table, "1/32", single_witness=True)
        assert trace.succeeded and trace.schedule == "single-witness"
        assert all(len(rec.added_characters) == 1 for rec in trace.iterations)

    def test_index_guard_partial_trace(self):
        inst = Instance.generate(3, seed=1)
        trace = find_regular_subspace(inst.table, "1/48", max_index_log2=5)
        assert trace.status == "index-guard"
        assert not trace.succeeded
        assert trace.final_subspace.index <= 32

    def test_iteration_guard(self):
        inst = Instance.generate(3, seed=1)
        trace = find_regular_subspace(inst.table, "1/48", max_iterations=1)
        assert trace.status == "iteration-guard"
        assert len(trace.iterations) == 1

    def test_epsilon_range_enforced(self, s2_table):
        for bad in ("0", "1/2", "3/5"):
            with pytest.raises(ValueError):
                find_regular_subspace(s2_table, bad)

    def test_csv_shape(self, s2_table):
        trace = find_regular_subspace(s2_table, "1/32")
        lines = trace.csv().strip().splitlines()
        assert lines[0] == "iteration,index,energy"
        assert len(lines) == len(trace.iterations) + 2
        last = lines[-1].split(",")
        assert int(last[1]) == trace.final_subspace.index

    def test_soundness_final_report(self):
        rng = random.Random(23)
        for _ in range(5):
            f = random_table(rng, 6)
            trace = find_regular_subspace(f, 0.3)
            if trace.succeeded:
                assert check_subspace_regularity(f, trace.final_subspace, 0.3).is_regular
