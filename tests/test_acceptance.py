"""Acceptance suite: one test per exit criterion.

Each test prints a single pass/fail line (visible with pytest -s) and
asserts the criterion at its stated tolerance.  Criterion 4 is
implemented exactly as stated and is expected to fail on the two-basis
block boundary case; see the assertion message there for the analysis.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import f2reglab as fl
from f2reglab.cli import main as cli_main
from f2reglab.rng import Stream
from f2reglab.witness import _random_stack

EPS_S2 = Fraction(1, 32)
EPS_S3 = Fraction(1, 48)
STRUCTURED_SEED = 0
RANDOM_PER_DIM = 10**4


def line(num: int, ok: bool, title: str, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {tag}  {title}{detail}")
    return ok


@pytest.fixture(scope="module")
def inst2():
    return fl.Instance.generate(2, seed=1)


@pytest.fixture(scope="module")
def inst3():
    return fl.Instance.generate(3, seed=1)


def structured_family(n: int, seed: int, per_dim: int):
    """The criterion-2 test family: every hyperplane, then seeded random
    subspaces of every dimension 1..n-1 (same sampler and seed as the
    structured scan)."""
    for eta in range(1, 1 << n):
        yield fl.Subspace(n, (eta,)).orthogonal_complement()
    for dim in range(1, n):
        stream = Stream(seed, f"lowerbound/dim{dim}")
        for basis in _random_stack(n, dim, per_dim, stream).tolist():
            yield fl.Subspace(n, tuple(basis))


def test_criterion_1_exhaustive_lowerbound_s2(inst2):
    start = time.perf_counter()
    report = fl.exhaustive_lowerbound_check(inst2, EPS_S2, mode="exhaustive")
    certificates = []
    for h in fl.enumerate_all_subspaces(3):
        if h.dim == 0:
            continue
        cert = fl.witness_scan(inst2.table, h, EPS_S2, inst2.xi)
        certificates.append(cert)
        certified = cert.reps[cert.certified]
        rows = np.searchsorted(cert.reps, certified)
        assert all(cert.coefficient(int(r)) > EPS_S2 for r in rows)
    elapsed = time.perf_counter() - start
    ok = (
        report.ok
        and report.zero_subspace_regular
        and report.checked == 15
        and len(certificates) == 15
        and sum(report.per_dim_checked) == 16
        and elapsed < 1.0
    )
    assert line(1, ok, "exhaustive lower bound, s=2", f"  ({elapsed:.2f}s, 15/15 certified)")


def test_criterion_2_structured_lowerbound_s3(inst3):
    start = time.perf_counter()
    report = fl.exhaustive_lowerbound_check(
        inst3,
        EPS_S3,
        mode="structured",
        random_per_dim=RANDOM_PER_DIM,
        seed=STRUCTURED_SEED,
    )
    elapsed = time.perf_counter() - start
    expected_checked = 1 + 2047 + 10 * RANDOM_PER_DIM
    ok = (
        report.ok
        and report.checked == expected_checked
        and report.certified == expected_checked
        and not report.failures
        and elapsed < 300.0
    )
    assert line(
        2, ok, "structured lower bound, s=3",
        f"  ({elapsed:.1f}s, {report.certified}/{report.checked} certified)",
    )


def test_criterion_3_average_coefficient_identity(inst2, inst3):
    h = fl.Subspace.from_vectors(3, [1])
    hand = fl.w_average_coefficient(inst2.table, h, 0, 1, inst2.xi)
    ok = hand == Fraction(1, 4) and abs(float(hand) - 0.25) <= 1e-9

    rng = random.Random(3)
    checked = 0
    while checked < 100:
        rows = [rng.getrandbits(11) for _ in range(rng.randint(1, 11))]
        sub = fl.Subspace.from_vectors(11, rows)
        if sub.dim == 0:
            continue
        i, _ = fl.minimal_active_block(sub, inst3.params.blocks)
        g = rng.getrandbits(11)
        gamma = fl.gamma_character(g, i, inst3.xi)
        if sub.orthogonal_complement().contains(gamma):
            continue
        avg = fl.w_average_coefficient(inst3.table, sub, g, i, inst3.xi)
        ok = ok and avg == Fraction(1, 6) and abs(float(avg) - 1 / 6) <= 1e-9
        checked += 1
    assert line(3, ok, "tail-average coefficient equals 1/(2s)", f"  ({checked}+1 cases)")


def test_criterion_4_bad_set_bound(inst2, inst3):
    # exact two-block values
    ok = fl.bad_fraction(fl.Subspace.from_vectors(3, [1]), 1, inst2.xi) == 0
    h3 = fl.Subspace.from_vectors(3, [4])
    ok = ok and fl.bad_fraction(h3, 2, inst2.xi) == Fraction(1, 2)

    violations = []
    for h in fl.enumerate_all_subspaces(3):
        if h.dim == 0:
            continue
        i, _ = fl.minimal_active_block(h, inst2.params.blocks)
        try:
            fl.bad_fraction(h, i, inst2.xi)
        except fl.ClaimViolationError:
            violations.append((2, h.basis))

    for h in structured_family(11, STRUCTURED_SEED, RANDOM_PER_DIM):
        i, _ = fl.minimal_active_block(h, inst3.params.blocks)
        try:
            fl.bad_fraction(h, i, inst3.xi)
        except fl.ClaimViolationError:
            violations.append((3, h.basis))

    distinct = sorted(set(violations))
    ok = ok and not violations
    line(4, ok, "bad-set fraction at most 3/4 on all tested subspaces",
         f"  ({len(distinct)} distinct violating subspaces)")
    assert ok, (
        "the 3/4 bad-set bound is not attainable for the s=3 instance: the "
        "third block's family is a basis of F2^8 (the construction pins the "
        "family size to the dimension there, and any spanning family of size "
        "8 in F2^8 is a basis), so a hyperplane holds 7 of its 8 entries.  "
        "Subspaces generated by one vector supported on that block with a "
        "weight-1 block value therefore have bad fraction 7/8 > 3/4; the "
        f"sampled test family hits them: {distinct[:4]}..."
    )


def test_criterion_5_translate_fraction(inst2, inst3):
    h = fl.Subspace.from_vectors(3, [1])
    ok = fl.corollary_fraction(inst2.table, h, 0, 1, inst2.xi) == Fraction(3, 4)

    threshold2 = Fraction(1, 8)
    for g in range(8):
        for sub in fl.enumerate_all_subspaces(3):
            if sub.dim == 0:
                continue
            i, _ = fl.minimal_active_block(sub, inst2.params.blocks)
            gamma = fl.gamma_character(g, i, inst2.xi)
            if sub.orthogonal_complement().contains(gamma):
                continue
            ok = ok and fl.corollary_fraction(inst2.table, sub, g, i, inst2.xi) > threshold2

    rng = random.Random(5)
    threshold3 = Fraction(1, 12)
    checked = 0
    while checked < 200:
        rows = [rng.getrandbits(11) for _ in range(rng.randint(1, 11))]
        sub = fl.Subspace.from_vectors(11, rows)
        if sub.dim == 0:
            continue
        i, _ = fl.minimal_active_block(sub, inst3.params.blocks)
        g = rng.getrandbits(11)
        if sub.orthogonal_complement().contains(fl.gamma_character(g, i, inst3.xi)):
            continue
        ok = ok and fl.corollary_fraction(inst3.table, sub, g, i, inst3.xi) > threshold3
        checked += 1
    assert line(5, ok, "translate fraction above 1/(4s) in every tested case")


def test_criterion_6_spanning_families():
    ok = True
    details = []
    for d in range(4, 13):
        family, _ = fl.generate_spanning_family(d, 8 * d, Fraction(3, 4), seed=0)
        check = fl.verify_spanning_family(family, Fraction(3, 4), d=d)
        ok = ok and check.ok and check.certified and check.incidence <= 6 * d
        details.append(f"d={d}:{check.incidence}<={6 * d}")
    assert line(6, ok, "spanning families for d=4..12", "  (" + " ".join(details) + ")")


def test_criterion_7_transform_oracle():
    def defining_sum(f: fl.FunctionTable) -> np.ndarray:
        size = f.size
        out = np.empty(size)
        for eta in range(size):
            total = 0.0
            for x in range(size):
                sign = -1.0 if bin(x & eta).count("1") % 2 else 1.0
                total += f.values[x] * sign
            out[eta] = total / size
        return out

    rng = random.Random(7)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 8)
        f = fl.FunctionTable(n, np.array([rng.random() for _ in range(1 << n)]))
        spec = fl.wht_full(f)
        ok = ok and float(np.max(np.abs(spec - defining_sum(f)))) < 1e-12
        ok = ok and abs(
            float(np.square(spec).sum()) - float(np.square(f.values).mean())
        ) < 1e-12
        rows = [rng.getrandbits(n) for _ in range(rng.randint(0, n))]
        coset = fl.AffineSubspace(
            fl.Subspace.from_vectors(n, rows), fl.F2Vector(n, rng.getrandbits(n))
        )
        cs = fl.restricted_spectrum(f, coset)
        points = coset.element_array()
        ok = ok and abs(
            float(np.square(cs.coefficients).sum()) - float(np.square(f.values[points]).mean())
        ) < 1e-12
    assert line(7, ok, "transform matches the defining sum; Parseval holds")


def test_criterion_8_decomposition_soundness(inst3, tmp_path):
    # (a) constant input: zero iterations
    trace_a = fl.find_regular_subspace(fl.FunctionTable.constant(8, 0.6), 0.1)
    ok = trace_a.succeeded and len(trace_a.iterations) == 0

    # (b) averages of up to three character indicators at n=12
    rng = random.Random(8)
    n = 12
    for k in (1, 2, 3):
        etas = rng.sample(range(1, 1 << n), k)
        points = np.arange(1 << n, dtype=np.int64)
        stack = [
            ((np.bitwise_count(points & np.int64(e)) & 1) == 0).astype(np.float64)
            for e in etas
        ]
        f = fl.FunctionTable(n, np.mean(stack, axis=0))
        trace_b = fl.find_regular_subspace(f, 0.1)
        ok = ok and trace_b.succeeded and trace_b.final_subspace.index <= 8
        ok = ok and fl.check_subspace_regularity(f, trace_b.final_subspace, 0.1).is_regular

    # (c) the flagship: three-block instance ends exactly at the zero subspace
    trace_c = fl.find_regular_subspace(inst3.table, EPS_S3)
    guard = math.ceil(1 / EPS_S3**3)
    ok = ok and trace_c.succeeded
    ok = ok and trace_c.final_subspace.dim == 0
    ok = ok and trace_c.final_subspace.index == 2048
    ok = ok and len(trace_c.iterations) <= guard
    energies = [rec.energy for rec in trace_c.iterations] + [trace_c.final_energy]
    gain_floor = float(EPS_S3) ** 3
    ok = ok and all(b - a > gain_floor - 1e-12 for a, b in zip(energies, energies[1:]))

    # index growth versus the level, and the tower arithmetic itself
    csv_rows = ["s,epsilon,n,final_index,iterations"]
    final_indices = []
    for s in (1, 2, 3):
        inst = fl.Instance.generate(s, seed=1)
        eps = inst.params.epsilon_max
        trace = fl.find_regular_subspace(inst.table, eps)
        ok = ok and trace.succeeded and trace.final_subspace.dim == 0
        final_indices.append(trace.final_subspace.index)
        csv_rows.append(
            f"{s},{eps},{inst.n},{trace.final_subspace.index},{len(trace.iterations)}"
        )
    (tmp_path / "index_growth.csv").write_text("\n".join(csv_rows) + "\n")
    ok = ok and final_indices == [2, 8, 2048]

    ok = ok and fl.tower_value(0) == 1 and fl.tower_value(3) == 16
    ok = ok and fl.tower_value(5).log2 == 65536
    params5 = fl.block_dims(5)
    for i, d in enumerate(params5.dims, start=1):
        t = fl.tower_value(i - 1)
        ok = ok and (d >= t if isinstance(t, int) else fl.TowerValue(d.bit_length() - 1) >= t)
    for s in (1, 2, 3, 4, 5):
        # the final index of the full decomposition is 2^n >= twr(s)
        n_s = fl.block_dims(s).n
        t = fl.tower_value(s)
        ok = ok and (fl.TowerValue(n_s) >= t if isinstance(t, fl.TowerValue) else (1 << n_s) >= t)
    assert line(
        8, ok, "decomposition soundness and index growth",
        f"  (final indices {final_indices}, flagship rounds {len(trace_c.iterations)})",
    )


def test_criterion_9_rounding_deviations():
    n, tau = 20, 0.16
    stream = Stream(9, "acceptance/smooth")
    values = 0.2 + 0.6 * stream.uniform_block(1 << n)
    f = fl.FunctionTable(n, values)
    s = fl.round_to_binary(f, seed=9)
    pairs = fl.sample_pairs(n, 200, seed=9, max_codim=4)
    report = fl.deviation_report(f, s, tau, pairs, seed=9)
    ok = (
        report.skipped_small == 0
        and len(report.records) == 200
        and all(rec.size >= 1 << 16 for rec in report.records)
        and not report.exceedances
        and report.max_deviation <= tau
    )
    # already-binary input: rounding is the identity, deviations exactly zero
    rebinary = fl.round_to_binary(s, seed=123)
    ok = ok and np.array_equal(rebinary.values, s.values)
    identity = fl.deviation_report(s, rebinary, tau, pairs[:50], seed=9)
    ok = ok and identity.max_deviation == 0.0
    assert line(
        9, ok, "rounding deviations stay within tau",
        f"  (max {report.max_deviation:.4f} over 200 pairs of size >= 2^16)",
    )


def test_criterion_10_determinism(tmp_path, capsys, monkeypatch):
    """Byte-identical reports for identical seeds, independent of the
    thread-count environment.  The heavy structured scan is exercised at
    a reduced sample size; its full-size determinism follows from the
    same seeded streams."""
    table2 = tmp_path / "t2.f2fn"
    table3 = tmp_path / "t3.f2fn"
    runs = [
        ["gen", "--s", "2", "--seed", "1", "--out", str(table2)],
        ["gen", "--s", "3", "--seed", "1", "--out", str(table3)],
        ["verify-lowerbound", "--s", "2", "--eps", "1/32", "--mode", "exhaustive", "--seed", "1"],
        ["verify-lowerbound", "--s", "3", "--eps", "1/48", "--mode", "structured",
         "--random-per-dim", "50", "--seed", "0"],
        ["check", "--in", str(table3), "--basis", "1", "--eps", "1/48"],
        ["decompose", "--in", str(table3), "--eps", "1/48"],
        ["spanning", "--d", "8", "--seed", "42"],
        ["round", "--in", str(table3), "--tau", "0.5", "--seed", "5", "--pairs", "50"],
    ]
    ok = True
    for argv in runs:
        outputs = []
        for threads in ("1", "7"):
            monkeypatch.setenv("F2REGLAB_THREADS", threads)
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            ok = ok and code == 0
            stdout_bytes = captured.out.encode()
            if argv[0] == "gen":
                stdout_bytes += (tmp_path / argv[-1].rsplit("/", 1)[-1]).read_bytes()
            else:
                ok = ok and "schema" in json.loads(captured.out)
            outputs.append(stdout_bytes)
        ok = ok and outputs[0] == outputs[1]
    assert line(10, ok, "byte-identical reports across runs and thread counts")
