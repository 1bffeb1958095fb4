"""Smoke test of the benchmark's correctness gate (bench/run.py)."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_spanning_s4_gate_is_correct():
    # a one-second run still checks the golden manifest and eval digests
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "spanning-s4", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
