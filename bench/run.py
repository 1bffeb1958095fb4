"""f2reglab benchmark: one command for every workload and metric.

    python3 bench/run.py --workload lowerbound-s3 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --compare bench/baseline.json

With --trace 0 a run times untraced passes and prints the end-to-end
metrics; with --trace 1 it alternates untraced passes with a traced
replay of the same work and prints the per-layer metrics.  Every run
checks its outputs (oracles, pass-to-pass digests, the recorded golden
digests at the seeds in golden.json) and prints, as its last stdout
line, one JSON object with keys correct, attempted, failed and metrics.
The package is imported from ../src relative to this file, never from
an installed copy; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# One process generates all load: keep any BLAS/OpenMP pool single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "subspaces_per_s": "1/s", "ok_ratio": "ratio"}
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

# The shared box's speed shifts by up to 1.5x for minutes at a time, which
# no run length averages out.  A fixed kernel of interpreter and numpy
# work, independent of f2reglab, is timed in REF_CHUNKS chunks before
# every pass, and the end-to-end times of a workload with speed_scaled
# are scaled by REF_S / (the run's median chunk time): seconds at the
# speed at which a chunk takes REF_S (the recording box's median).  The
# unscaled medians are printed too.
REF_S = 0.0075
REF_CHUNKS = 10


def _import_package():
    if not (SRC / "f2reglab" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no f2reglab package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import f2reglab
    if Path(f2reglab.__file__).resolve().parent != SRC / "f2reglab":
        sys.stderr.write(f"bench: imported f2reglab from {f2reglab.__file__}, not {SRC}\n")
        raise SystemExit(2)


def reference_times() -> list[float]:
    import numpy as np
    values = np.random.default_rng(0).random(1 << 18)
    times = []
    for _ in range(REF_CHUNKS):
        start = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i
        np.sort(values)
        times.append(time.perf_counter() - start)
    return times


def scaled(stats: dict, factor: float) -> dict:
    out = dict(stats, median=stats["median"] * factor)
    if out["tail_value"] is not None:
        out["tail_value"] *= factor
    return out


def summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile of the ladder
    that has at least ten samples beyond it (None when none has)."""
    ordered = sorted(samples)
    count = len(ordered)
    out = {"median": statistics.median(ordered) if ordered else 0.0, "samples": count,
           "tail_pct": None, "tail_value": None}
    for pct in TAIL_LADDER:
        if (1 - pct / 100) * count >= 10:
            out["tail_pct"] = pct
            out["tail_value"] = ordered[min(count - 1, int(pct / 100 * count))]
            break
    return out


class Tally:
    """Operations attempted and failed; a failure is an exception or a
    failed correctness check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"check failed: {name}")

    def guarded(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            self.messages.append(f"{name} raised:\n{traceback.format_exc()}")
            return None


def cache_counts() -> dict:
    """(hits, misses) of the package's lru caches."""
    from f2reglab import fourier, gf2
    out = {}
    for key, cached in (("gf2.span", gf2._cached_span),
                        ("gf2.scatter", gf2._cached_scatter),
                        ("fourier.class_map", fourier._cached_class_maps)):
        info = cached.cache_info()
        out[key] = (info.hits, info.misses)
    return out


def layer_metrics(spans, counts: dict, caches: dict, walls: tuple[float, float]) -> dict:
    """Per-layer metrics of one traced replay, by name -> (value, unit)."""
    times = defaultdict(list)
    probe_checks = probe_s = 0.0
    for name, start, end, _parent, probe in spans:
        times[name].append(end - start)
        if probe:
            probe_s += end - start
            if name == "fourier.check":
                probe_checks += end - start

    def busy(name):
        return float(sum(times[name]))

    def ratio(a, b):
        return a / b if b else 0.0

    gf2_times = [t for name, ts in times.items() if name.startswith("gf2.") for t in ts]
    wht_sizes = counts.get("fourier.wht_sizes", [])
    m = {
        "gf2.calls": (len(gf2_times), "count"),
        "gf2.busy_s": (float(sum(gf2_times)), "s"),
        "fourier.check_calls": (len(times["fourier.check"]), "count"),
        "fourier.check_busy_s": (busy("fourier.check"), "s"),
        "fourier.check_p50_ms": (1e3 * statistics.median(times["fourier.check"])
                                 if times["fourier.check"] else 0.0, "ms"),
        "fourier.wht_full_s": (busy("fourier.wht_full"), "s"),
        "fourier.entries_transformed": (sum(1 << n for n in wht_sizes), "count"),
        "fourier.computed_bytes": (sum(16 * n * (1 << n) for n in wht_sizes), "bytes"),
        "witness.scan_calls": (len(times["witness.scan"]), "count"),
        "witness.busy_s": (busy("witness.scan"), "s"),
        "witness.self_s": (busy("witness.scan") - probe_checks, "s"),
        "witness.cosets_scanned": (counts.get("witness.cosets_scanned", 0), "count"),
        "witness.cosets_certified": (counts.get("witness.cosets_certified", 0), "count"),
        "witness.certified_ratio": (ratio(counts.get("witness.cosets_certified", 0),
                                          counts.get("witness.cosets_scanned", 0)), "ratio"),
        "decompose.find_s": (busy("decompose.find"), "s"),
        "decompose.rounds": (counts.get("decompose.rounds", 0), "count"),
        "decompose.energy_s": (busy("decompose.energy"), "s"),
        "decompose.energy_calls": (len(times["decompose.energy"]), "count"),
        "instance.generate_s": (busy("instance.generate"), "s"),
        "instance.spanning_check_s": (busy("instance.spanning_check"), "s"),
        "instance.spanning_samples": (counts.get("instance.spanning_samples", 0), "count"),
        "instance.eval_points_per_s": (ratio(counts.get("instance.eval_points", 0),
                                             busy("instance.eval")), "1/s"),
        "rounding.round_s": (busy("rounding.round"), "s"),
        "rounding.deviation_s": (busy("rounding.deviation"), "s"),
        "rounding.pairs": (counts.get("rounding.pairs", 0), "count"),
        "rounding.skipped_small": (counts.get("rounding.skipped_small", 0), "count"),
        "rng.keyed_uniforms_s": (busy("rng.keyed_uniforms"), "s"),
        "tableio.read_s": (busy("tableio.read"), "s"),
        "tableio.write_s": (busy("tableio.write"), "s"),
        "tableio.bytes": (counts.get("tableio.bytes", 0), "bytes"),
        "reports.emit_s": (busy("reports.emit"), "s"),
        "reports.bytes": (counts.get("reports.bytes", 0), "bytes"),
        "trace.overhead_ratio": (ratio(walls[1], walls[0]), "ratio"),
        "trace.probe_s": (probe_s, "s"),
        "trace.spans": (len(spans), "count"),
    }
    for key, (hits, misses) in caches.items():
        m[f"{key}_cache_hits"] = (hits, "count")
        m[f"{key}_cache_misses"] = (misses, "count")
        m[f"{key}_cache_hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    return m


def run_workload(args) -> dict:
    from workloads import WORKLOADS, Tracer, golden_keys

    wl = WORKLOADS[args.workload]
    tally = Tally()
    workdir = OUT / f"work-{wl.name}-{os.getpid()}"
    setup_times, inp = [], None

    def set_up():
        """Build the inputs afresh, timing each of setup_reps builds.  It
        runs before every lap, so set-up is sampled across the whole run
        like the passes are; the same seed gives equal inputs each time."""
        nonlocal inp
        for _ in range(wl.setup_reps):
            if inp is not None:
                wl.cleanup(inp)
                inp = None
            start = time.perf_counter()
            inp = wl.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - start)

    try:
        set_up()
        # Warm-up: fills the lru caches and gives the reference outputs.
        warm = tally.guarded("warm-up pass", wl.run, inp)
        reference = warm.digests if warm else {}

        walls, rates, laps, layer_samples, records = [], [], [], defaultdict(list), []
        ref_times = []
        units = {}
        deadline = time.perf_counter() + args.seconds
        # stop when the next lap would more likely end after the deadline
        while not laps or time.perf_counter() + statistics.median(laps) / 2 < deadline:
            lap_start = time.perf_counter()
            # drop the last lap's outputs, so peak memory is that of one pass
            res = rep = None
            set_up()
            ref_times += reference_times()
            gc.collect()
            before = cache_counts()
            start = time.perf_counter()
            res = tally.guarded("pass", wl.run, inp)
            wall = time.perf_counter() - start
            after = cache_counts()
            walls.append(wall)
            if res is None:
                laps.append(time.perf_counter() - lap_start)
                continue
            tally.check("pass digests equal warm-up", res.digests == reference)
            rates.append(res.items / wall)
            if not args.trace:
                laps.append(time.perf_counter() - lap_start)
                continue
            tracer = Tracer(f"{wl.name}/seed{args.seed}/replay{len(records)}")
            gc.collect()
            start = time.perf_counter()
            rep = tally.guarded("traced replay", wl.replay, inp, tracer)
            traced_wall = time.perf_counter() - start
            laps.append(time.perf_counter() - lap_start)
            if rep is None:
                continue
            tally.check("replay digests equal untraced", rep.digests == reference)
            caches = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
            counts = {**res.counts, **rep.counts}
            for name, (value, unit) in layer_metrics(tracer.spans, counts, caches,
                                                     (wall, traced_wall)).items():
                layer_samples[name].append(value)
                units[name] = unit
            records.append(tracer)

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if warm is not None:
            for name, ok in tally.guarded("oracles", wl.oracles, inp, warm) or []:
                tally.check(name, ok)
            golden = json.loads(GOLDEN.read_text()).get(wl.name, {}) if GOLDEN.is_file() else {}
            expected = golden.get(str(args.seed))
            if expected is not None:
                tally.check("golden digests", golden_keys(reference) == expected)
    finally:
        if inp is not None:
            wl.cleanup(inp)
        if workdir.is_dir() and not any(workdir.iterdir()):
            workdir.rmdir()

    raw = {"wall_s": dict(summary(walls), unit="s"),
           "setup_s": dict(summary(setup_times), unit="s"),
           "subspaces_per_s": dict(summary(rates), unit="1/s"),
           "reference_chunk_s": dict(summary(ref_times), unit="s")}
    if args.trace:
        metrics = {name: dict(summary(values), unit=units[name])
                   for name, values in layer_samples.items()}
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"spans-{wl.name}.jsonl", "w") as fh:
            for tracer in records:
                for name, start, end, parent, probe in tracer.spans:
                    fh.write(json.dumps({"workload": tracer.workload_id, "name": name,
                                         "start": start, "end": end, "parent": parent,
                                         "probe": probe}) + "\n")
    else:
        ok_ratio = (tally.attempted - tally.failed) / tally.attempted
        scale = REF_S / raw["reference_chunk_s"]["median"] if wl.speed_scaled else 1.0
        metrics = {
            "wall_s": scaled(raw["wall_s"], scale),
            "setup_s": scaled(raw["setup_s"], scale),
            "peak_rss_mb": summary([peak_rss_mb]),
            "subspaces_per_s": scaled(raw["subspaces_per_s"], 1 / scale),
            "ok_ratio": summary([ok_ratio]),
        }
        for name, unit in E2E_UNITS.items():
            metrics[name]["unit"] = unit
    for message in tally.messages:
        sys.stderr.write(f"bench: {wl.name}: {message}\n")
    return {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": len(walls), "correct": tally.failed == 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "failed_ratio": tally.failed / tally.attempted, "metrics": metrics,
            "unscaled": raw}


def machine() -> dict:
    import numpy
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "l3_cache": l3, "machine": platform.machine()}


def print_record(record: dict, stored: dict | None) -> None:
    print(f"# {record['workload']}  seed={record['seed']} trace={record['trace']} "
          f"passes={record['passes']} attempted={record['attempted']} "
          f"failed={record['failed']} failed_ratio={record['failed_ratio']:.6g}")
    for name, m in [*record["metrics"].items(),
                    *((f"unscaled.{k}", v) for k, v in record["unscaled"].items())]:
        tail = (f"p{m['tail_pct']:g}={m['tail_value']:.6g}" if m["tail_pct"] is not None
                else "tail=-")
        line = (f"{record['workload']:14s} {name:38s} {m['median']:>14.6g} {m['unit']:6s} "
                f"n={m['samples']:<5d} {tail}")
        old = (stored or {}).get("metrics", {}).get(name)
        if old is not None:
            line += f"  vs stored {old['median']:.6g}"
            if old["median"]:
                line += f"  ratio {m['median'] / old['median']:.4f}"
        print(line)


def stored_record(path: str | None, workload: str, trace: int) -> dict | None:
    if path is None:
        return None
    for record in json.loads(Path(path).read_text())["runs"]:
        if record["workload"] == workload and record["trace"] == trace:
            return record
    return None


def save_record(path: str, record: dict) -> None:
    target = Path(path)
    data = json.loads(target.read_text()) if target.is_file() else {"runs": []}
    data["machine"] = machine()
    data["runs"] = [r for r in data["runs"]
                    if (r["workload"], r["trace"]) != (record["workload"], record["trace"])]
    data["runs"].append(record)
    data["runs"].sort(key=lambda r: (r["workload"], r["trace"]))
    target.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def result_metrics(record: dict) -> dict:
    return {name: {"value": m["median"], "unit": m["unit"]}
            for name, m in record["metrics"].items()}


def record_golden(args) -> None:
    from workloads import WORKLOADS, golden_keys
    wl = WORKLOADS[args.workload]
    inp = wl.setup(args.seed, OUT / f"work-{wl.name}-{os.getpid()}")
    try:
        digests = golden_keys(wl.run(inp).digests)
    finally:
        wl.cleanup(inp)
    data = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    data.setdefault(wl.name, {})[str(args.seed)] = digests
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded golden digests for {wl.name} seed {args.seed}")


def run_all(args) -> int:
    """Each workload in its own process, one after another, so peak
    memory is per workload and only one process generates load."""
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        for flag in ("save", "compare"):
            if getattr(args, flag):
                cmd += [f"--{flag}", getattr(args, flag)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            # a run whose checks failed still prints its result line
            result = json.loads(lines[-1])
        except ValueError:
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="lowerbound-s3, spectra-n22, rounding-n20, spanning-s4 or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="merge this run's full record into a JSON file")
    parser.add_argument("--compare", help="print ratios against a file written by --save")
    parser.add_argument("--record-golden", action="store_true",
                        help="record this seed's output digests in golden.json and exit")
    args = parser.parse_args(argv)

    _import_package()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.record_golden:
        record_golden(args)
        return 0
    record = run_workload(args)
    print_record(record, stored_record(args.compare, record["workload"], record["trace"]))
    if args.save:
        save_record(args.save, record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": result_metrics(record)}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
