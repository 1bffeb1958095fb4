"""The four benchmark workloads and the tracer used by the traced replay.

Each workload builds its inputs from the run's seed with numpy's own
generator (so the library sees only generated inputs), runs one pass of
public f2reglab calls, checks the pass's outputs against independent
oracles, and can replay the same work as timed calls into each module's
public functions.  Spans are recorded by the benchmark around those
calls; nothing inside the package is wrapped or patched.

A replay may add "probe" calls: a public function that the untraced
pass only reaches inside another module (the regularity check inside
`witness_scan`, the keyed draws inside `round_to_binary`, the sampled
spanning check inside `Instance.generate`).  Probe spans are flagged, so
their time shows as the layer's time and can be told apart from the
tracing overhead.
"""

from __future__ import annotations

import dataclasses
import hashlib
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from f2reglab import (
    AffineSubspace,
    F2Vector,
    FunctionTable,
    Instance,
    Subspace,
    block_dims,
    check_subspace_regularity,
    deviation_report,
    emit_report,
    energy,
    eval_pointwise,
    exhaustive_lowerbound_check,
    find_regular_subspace,
    read_table,
    restricted_coefficient,
    round_to_binary,
    sample_pairs,
    verify_spanning_family_sampled,
    wht_full,
    witness_scan,
    write_table,
)
from f2reglab.gf2 import subspaces_of_dim
from f2reglab.instance import eval_count
from f2reglab.rng import Stream, keyed_uniforms
from f2reglab.rounding import round_point

# Floating-point slack for comparing a transform value with the same
# coefficient summed by the defining mean (different summation order).
_TOL = 1e-9


def sha(data: "bytes | str") -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _inputs_rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.blake2b(workload.encode(), digest_size=8).digest(), "little")
    return np.random.default_rng([seed, tag])


class Tracer:
    """In-memory spans: (name, start, end, parent index, probe flag)."""

    def __init__(self, workload_id: str) -> None:
        self.workload_id = workload_id
        self.spans: list = []
        self._stack: list[int] = []

    def _record(self, name: str, probe: bool, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, probe)

    def call(self, name: str, fn, *args, **kwargs):
        return self._record(name, False, fn, args, kwargs)

    def probe(self, name: str, fn, *args, **kwargs):
        return self._record(name, True, fn, args, kwargs)


class NullTracer:
    """Tracing off: calls go straight through and probes are skipped."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def probe(name, fn, *args, **kwargs):
        return None


NULL = NullTracer()


@dataclasses.dataclass
class PassResult:
    """What one pass produced.

    digests: sha256 of every output; keys starting with "report:",
    "table:" or "values:" are byte-exact outputs compared with the
    recorded goldens, "array:" keys only between passes of one run.
    items: subspaces scanned by the pass (for subspaces_per_s).
    counts: per-layer work counts read from the outputs.
    """

    digests: dict
    items: int
    counts: dict
    extras: dict


def golden_keys(digests: dict) -> dict:
    return {k: v for k, v in digests.items() if k.split(":", 1)[0] in ("report", "table", "values")}


class Workload:
    name = ""
    # input builds timed before each lap (more where a build is tiny)
    setup_reps = 1
    # end-to-end times scaled to the reference kernel's speed (see run.py)
    speed_scaled = True

    def setup(self, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def run(self, inp: dict, tr=NULL) -> PassResult:
        raise NotImplementedError

    def replay(self, inp: dict, tr: Tracer) -> PassResult:
        return self.run(inp, tr)

    def oracles(self, inp: dict, res: PassResult) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def cleanup(self, inp: dict) -> None:
        pass


class LowerboundS3(Workload):
    """Thousands of tiny 2^11-entry certificate scans: per-subspace Python
    overhead in witness, gf2 and small fourier batches, no large transform."""

    name = "lowerbound-s3"
    setup_reps = 25
    S = 3
    EPS = Fraction(1, 48)
    RANDOM_PER_DIM = 200

    def setup(self, seed, workdir):
        return {"inst": Instance.generate(self.S, seed), "seed": seed}

    def _result(self, report, text) -> PassResult:
        return PassResult(
            digests={"report:lowerbound": sha(text)},
            items=report.certified,
            counts={"reports.bytes": len(text.encode())},
            extras={"report": report},
        )

    def run(self, inp, tr=NULL):
        report = exhaustive_lowerbound_check(
            inp["inst"], self.EPS, mode="structured",
            random_per_dim=self.RANDOM_PER_DIM, seed=inp["seed"],
        )
        # the replay rebuilds this report from its own tallies
        inp.setdefault("reference", report)
        return self._result(report, emit_report(report))

    def _subspaces(self, n, seed, tr):
        """The structured family in the library's walk order: the full
        space, every hyperplane, then seeded random subspaces by dim."""
        yield tr.call("gf2.subspace", Subspace.full, n)
        hyperplane_duals = subspaces_of_dim(n, 1)
        while (dual := tr.call("gf2.subspace", next, hyperplane_duals, None)) is not None:
            yield tr.call("gf2.subspace", dual.orthogonal_complement)
        for dim in range(1, n):
            stream = Stream(seed, f"lowerbound/dim{dim}")
            for _ in range(self.RANDOM_PER_DIM):
                while True:
                    rows = tr.call("rng.bits", lambda: [stream.bits(n) for _ in range(dim)])
                    h = tr.call("gf2.subspace", Subspace.from_vectors, n, rows)
                    if h.dim == dim:
                        break
                yield h

    def replay(self, inp, tr):
        inst = inp["inst"]
        f, n = inst.table, inst.n
        # share gamma tables across scans as the library's walk does
        gamma_cache = {}
        per_dim = [0] * (n + 1)
        checked = certified = cosets = certified_cosets = 0
        for h in self._subspaces(n, inp["seed"], tr):
            per_dim[h.dim] += 1
            checked += 1
            check = tr.probe("fourier.check", check_subspace_regularity, f, h, self.EPS)
            cert = tr.call("witness.scan", witness_scan, f, h, self.EPS, xi=inst.xi,
                           cross_check=True, _gamma_cache=gamma_cache)
            certified += int(cert.ok and not check.is_regular)
            cosets += cert.total_cosets
            certified_cosets += cert.certified_cosets
        zero = tr.call("fourier.check", check_subspace_regularity, f, Subspace.zero(n), self.EPS)
        report = dataclasses.replace(
            inp["reference"],
            checked=checked,
            certified=certified,
            zero_subspace_regular=zero.is_regular,
            failures=(),
            regular_nonzero=(),
            per_dim_checked=tuple(per_dim),
        )
        res = self._result(report, tr.call("reports.emit", emit_report, report))
        res.counts.update({
            "witness.scan_calls": checked,
            "witness.cosets_scanned": cosets,
            "witness.cosets_certified": certified_cosets,
        })
        return res

    def oracles(self, inp, res):
        report = res.extras["report"]
        n = inp["inst"].n
        expected = 1 + ((1 << n) - 1) + (n - 1) * self.RANDOM_PER_DIM
        return [
            ("lowerbound.ok", bool(report.ok)),
            ("lowerbound.certified_eq_checked", report.certified == report.checked),
            ("lowerbound.family_size", report.checked == expected),
            ("lowerbound.zero_regular", bool(report.zero_subspace_regular)),
        ]


def _random_subspace(rng: np.random.Generator, n: int, dim: int) -> Subspace:
    while True:
        rows = [int(v) for v in rng.integers(1, 1 << n, size=dim)]
        h = Subspace.from_vectors(n, rows)
        if h.dim == dim:
            return h


def _bucket_character(h: Subspace, z: int) -> int:
    """A character whose pairing with basis row i is bit i of z (rows are
    in reduced echelon form, so the pivot unit vectors do this)."""
    eta = 0
    for i, p in enumerate(h.pivots):
        if (z >> i) & 1:
            eta |= 1 << p
    return eta


class SpectraN22(Workload):
    """A few huge memory-heavy transforms and gathers on two 32 MiB n = 22
    tables; gf2 and witness idle."""

    name = "spectra-n22"
    # Its passes are bound by memory traffic on 32 MiB arrays, which moves
    # far less than the interpreter-bound reference kernel when the box
    # slows: scaled, its spread across seeds doubled (0.107 to 0.215).
    speed_scaled = False
    N = 22
    DIMS = (4, 11, 18)
    EPS_CHECK = Fraction(1, 16)
    # above the 1/12 coefficient of the third planted character, so the
    # decomposition refines by the first two and stops at index 4
    EPS_DECOMPOSE = Fraction(1, 10)

    def setup(self, seed, workdir):
        n = self.N
        rng = _inputs_rng(seed, self.name)
        smooth = FunctionTable(n, 0.2 + 0.6 * rng.random(1 << n))
        while True:
            chis = [int(v) for v in rng.integers(1, 1 << n, size=3)]
            if Subspace.from_vectors(n, chis).dim == 3:
                break
        # weights 3:2:1 give the characters distinct coefficients (1/4, 1/6,
        # 1/12), so every seed refines in the same rounds
        points = np.arange(1 << n, dtype=np.int64)
        counts = np.zeros(1 << n, dtype=np.uint8)
        for weight, chi in zip((3, 2, 1), chis):
            hit = (np.bitwise_count(points & np.int64(chi)) & 1) == 0
            counts += np.uint8(weight) * hit.astype(np.uint8)
        planted = FunctionTable.from_counts(n, counts, 6)
        subspaces = {d: _random_subspace(rng, n, d) for d in self.DIMS}
        probes = [int(v) for v in rng.integers(0, 1 << 62, size=8)]
        return {"smooth": smooth, "planted": planted, "chis": chis,
                "subspaces": subspaces, "probes": probes}

    def run(self, inp, tr=NULL):
        smooth, planted = inp["smooth"], inp["planted"]
        spectrum = tr.call("fourier.wht_full", wht_full, smooth)
        checks = {
            d: tr.call("fourier.check", check_subspace_regularity, smooth, h, self.EPS_CHECK)
            for d, h in inp["subspaces"].items()
        }
        mid = inp["subspaces"][self.DIMS[1]]
        e = tr.call("decompose.energy", energy, planted, mid)
        trace = tr.call("decompose.find", find_regular_subspace, planted, self.EPS_DECOMPOSE)
        digests = {"array:wht": sha(spectrum.tobytes()), "array:energy": sha(repr(e))}
        report_bytes = 0
        for d, report in checks.items():
            text = tr.call("reports.emit", emit_report, report)
            digests[f"report:check-dim{d}"] = sha(text)
            report_bytes += len(text.encode())
        text = tr.call("reports.emit", emit_report, trace)
        digests["report:decomposition"] = sha(text)
        report_bytes += len(text.encode())
        rounds = len(trace.iterations)
        return PassResult(
            digests=digests,
            items=len(checks) + 1 + rounds + 1,
            counts={
                "decompose.rounds": rounds,
                "decompose.energy_calls": 1,
                "reports.bytes": report_bytes,
                "fourier.wht_sizes": [smooth.n],
            },
            extras={"spectrum": spectrum, "checks": checks, "energy": e, "trace": trace},
        )

    def oracles(self, inp, res):
        n = self.N
        full = Subspace.full(n)
        out = []
        # wht_full against the defining mean at sampled characters (the
        # planted table's spectrum serves the Parseval checks below)
        planted_spectrum = wht_full(inp["planted"])
        for key, table, spectrum in (("smooth", inp["smooth"], res.extras["spectrum"]),
                                     ("planted", inp["planted"], planted_spectrum)):
            etas = [0, inp["chis"][0]] + [p & ((1 << n) - 1) for p in inp["probes"][:2]]
            ok = all(
                abs(spectrum[eta] - restricted_coefficient(table, AffineSubspace(full),
                                                           F2Vector(n, eta))) <= _TOL
                for eta in etas
            )
            out.append((f"spectra.wht_{key}_vs_defining_mean", ok))
        # regularity checks against the defining mean on sampled cosets
        for d, report in res.extras["checks"].items():
            out.append((f"spectra.check-dim{d}", self._check_oracle(inp, d, report)))
        # energy by Parseval: sum of squared spectrum entries over H-perp
        mid = inp["subspaces"][self.DIMS[1]]
        perp = mid.orthogonal_complement().span_array()
        parseval = float(np.square(planted_spectrum[perp]).sum())
        out.append(("spectra.energy_parseval", abs(parseval - res.extras["energy"]) <= _TOL))
        # planted decomposition: refined by the two characters above eps
        trace = res.extras["trace"]
        above = Subspace.from_vectors(n, inp["chis"][:2])
        energies = [r.energy for r in trace.iterations] + [trace.final_energy]
        target = float(np.square(planted_spectrum[above.span_array()]).sum())
        out += [
            ("decompose.succeeded", trace.succeeded),
            ("decompose.final_index", trace.final_subspace.index == 4),
            ("decompose.final_subspace", trace.final_subspace == above.orthogonal_complement()),
            ("decompose.energy_increasing", all(a < b for a, b in zip(energies, energies[1:]))),
            ("decompose.final_energy_parseval", abs(trace.final_energy - target) <= _TOL),
        ]
        return out

    def _check_oracle(self, inp, d, report) -> bool:
        """Recompute class coefficients of sampled cosets by the defining
        mean and compare with the report's verdict and witness."""
        n = self.N
        smooth = inp["smooth"]
        h = inp["subspaces"][d]
        if report.total_cosets != 1 << (n - d):
            return False
        eps = float(self.EPS_CHECK)
        witness = {int(r): (int(e), float(v)) for r, e, v in
                   zip(report.witness_reps, report.witness_etas, report.witness_values)}
        reps = [int(r) for r in report.witness_reps[:2]] + [p >> 2 for p in inp["probes"][2:5]]
        buckets = range(1, 1 << d) if d <= 6 else [1 + p % ((1 << d) - 1) for p in inp["probes"]]
        for x in reps:
            coset = AffineSubspace(h, F2Vector(n, x & ((1 << n) - 1)))
            rep = coset.representative.bits
            worst = max(
                abs(restricted_coefficient(smooth, coset, F2Vector(n, _bucket_character(h, z))))
                for z in buckets
            )
            if rep not in witness:
                if worst > eps + _TOL:
                    return False
                continue
            eta, value = witness[rep]
            exact = restricted_coefficient(smooth, coset, F2Vector(n, eta))
            if abs(exact - value) > _TOL or abs(value) <= eps or worst > abs(value) + _TOL:
                return False
            if d <= 6 and abs(worst - abs(value)) > _TOL:
                return False
        return True


class RoundingN20(Workload):
    """The README round pipeline: keyed rng draws, per-pair coset gathers of
    2^16-2^20 points, .f2fn writes beside reads; no transform."""

    name = "rounding-n20"
    setup_reps = 3
    N = 20
    PAIRS = 200
    MAX_CODIM = 4
    TAU = 0.16
    # The README command's --seed.  Fixed, because the total size of the
    # sampled cosets, and with it a pass's work, varies by about 6%
    # between pair seeds; the run's seed varies the table.
    ROUND_SEED = 7

    def setup(self, seed, workdir):
        rng = _inputs_rng(seed, self.name)
        table = FunctionTable(self.N, rng.random(1 << self.N))
        workdir.mkdir(parents=True, exist_ok=True)
        in_path = workdir / "input.f2fn"
        write_table(in_path, table)
        return {"table": table, "in": in_path, "out": workdir / "rounded.f2fn",
                "seed": self.ROUND_SEED,
                "points": [int(v) for v in rng.integers(0, 1 << self.N, size=256)]}

    def run(self, inp, tr=NULL):
        seed = inp["seed"]
        table = tr.call("tableio.read", read_table, inp["in"])
        rounded = tr.call("rounding.round", round_to_binary, table, seed)
        tr.probe("rng.keyed_uniforms", lambda: keyed_uniforms(
            seed, "rounding", np.arange(table.size, dtype=np.uint64)))
        tr.call("tableio.write", write_table, inp["out"], rounded)
        back = tr.call("tableio.read", read_table, inp["out"])
        pairs = tr.call("rounding.sample_pairs", sample_pairs, table.n, self.PAIRS, seed,
                        self.MAX_CODIM)
        report = tr.call("rounding.deviation", deviation_report, table, rounded, self.TAU,
                         pairs, seed=seed)
        text = tr.call("reports.emit", emit_report, report)
        file_bytes = inp["in"].stat().st_size + 2 * inp["out"].stat().st_size
        return PassResult(
            digests={"table:rounded": sha(rounded.values.tobytes()),
                     "array:read_back": sha(back.values.tobytes()),
                     "report:rounding": sha(text)},
            items=len(report.records),
            counts={"rounding.pairs": len(report.records),
                    "rounding.skipped_small": report.skipped_small,
                    "tableio.bytes": file_bytes,
                    "reports.bytes": len(text.encode())},
            extras={"read": table, "rounded": rounded, "back": back,
                    "pairs": pairs, "report": report},
        )

    def oracles(self, inp, res):
        table, rounded, back = res.extras["read"], res.extras["rounded"], res.extras["back"]
        report = res.extras["report"]
        bits = lambda a: a.view(np.uint64)
        records = report.records[:: max(1, len(report.records) // 4)][:4]
        coefficient_ok = all(
            abs(restricted_coefficient(table, AffineSubspace(
                Subspace(table.n, r.basis), F2Vector(table.n, r.representative)),
                F2Vector(table.n, r.eta)) - r.f_value) <= _TOL
            for r in records
        )
        return [
            ("tableio.input_roundtrip", np.array_equal(bits(table.values), bits(inp["table"].values))),
            ("tableio.rounded_roundtrip", np.array_equal(bits(back.values), bits(rounded.values))),
            ("rounding.binary", rounded.is_binary()),
            ("rounding.round_point_replay", all(
                rounded.values[x] == round_point(table, inp["seed"], x) for x in inp["points"])),
            ("rounding.pair_count", len(report.records) + report.skipped_small == len(res.extras["pairs"])),
            ("rounding.deviation_vs_defining_mean", coefficient_ok),
        ]

    def cleanup(self, inp):
        for key in ("in", "out"):
            inp[key].unlink(missing_ok=True)


class SpanningS4(Workload):
    """The README eval --s 4 --samples 10000 command: bigint-heavy instance
    generation with the sampled 3/4-spanning check in F2^256, pointwise
    eval at n = 267."""

    name = "spanning-s4"
    setup_reps = 25
    S = 4
    SAMPLES = 10_000
    SEEDS_PER_PASS = 2
    POINTS = 64

    def setup(self, seed, workdir):
        rng = _inputs_rng(seed, self.name)
        n = block_dims(self.S).n
        mask = (1 << n) - 1
        return {
            "seeds": [int(v) for v in rng.integers(0, 1 << 31, size=self.SEEDS_PER_PASS)],
            "points": [int.from_bytes(rng.bytes(34), "little") & mask for _ in range(self.POINTS)],
            "probe_seed": int(rng.integers(0, 1 << 62)),
        }

    def run(self, inp, tr=NULL):
        digests, instances, values, samples, report_bytes = {}, [], [], 0, 0
        for k, seed in enumerate(inp["seeds"]):
            inst = tr.call("instance.generate", Instance.generate, self.S, seed,
                           sampled_samples=self.SAMPLES)
            family = inst.xi.families[self.S - 1]
            tr.probe("instance.spanning_check", verify_spanning_family_sampled, family,
                     Fraction(3, 4), d=inst.params.dims[self.S - 1], samples=self.SAMPLES,
                     seed=inp["probe_seed"])
            vals = tr.call("instance.eval",
                           lambda: [eval_pointwise(inst.params, inst.xi, x) for x in inp["points"]])
            text = tr.call("reports.emit", emit_report, inst)
            digests[f"report:instance-{k}"] = sha(text)
            digests[f"values:eval-{k}"] = sha(repr(vals))
            report_bytes += len(text.encode())
            samples += sum(c.samples or 0 for c in inst.xi.checks)
            instances.append(inst)
            values.append(vals)
        return PassResult(
            digests=digests,
            items=samples,
            counts={"instance.spanning_samples": samples,
                    "instance.eval_points": len(values) * self.POINTS,
                    "reports.bytes": report_bytes},
            extras={"instances": instances, "values": values},
        )

    def oracles(self, inp, res):
        out = []
        for k, (inst, vals) in enumerate(zip(res.extras["instances"], res.extras["values"])):
            check = inst.xi.checks[self.S - 1]
            family = inst.xi.families[self.S - 1]
            d = inst.params.dims[self.S - 1]
            probe = verify_spanning_family_sampled(family, Fraction(3, 4), d=d,
                                                   samples=256, seed=inp["probe_seed"])
            out += [
                (f"instance-{k}.n", inst.n == 267 and inst.table is None),
                (f"instance-{k}.family", len(family) == 2048 and all(0 < v < (1 << d) for v in family)),
                (f"instance-{k}.spanning_check", check.ok and not check.certified
                 and check.samples == self.SAMPLES and 4 * check.incidence <= 3 * check.count),
                (f"instance-{k}.spanning_probe", probe.ok),
                (f"instance-{k}.eval_vs_count", all(
                    v == Fraction(eval_count(inst.xi, x), self.S)
                    for v, x in zip(vals, inp["points"]))),
            ]
        return out


WORKLOADS = {w.name: w for w in (LowerboundS3(), SpectraN22(), RoundingN20(), SpanningS4())}
