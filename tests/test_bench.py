"""Smoke tests of the benchmark's correctness gate (bench/run.py)."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def gate(workload, trace="0"):
    # a one-second run still checks the workload's oracles and golden digests
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_spanning_s4_gate_is_correct():
    gate("spanning-s4")


def test_lowerbound_s3_gate_is_correct():
    gate("lowerbound-s3")


def test_lowerbound_s3_traced_gate_is_correct():
    # only the traced replay scans each subspace with witness_scan's
    # cross-check, and its digests must equal the untraced pass's
    gate("lowerbound-s3", trace="1")


def test_rounding_n20_gate_is_correct():
    gate("rounding-n20")


def test_spectra_n22_gate_is_correct():
    gate("spectra-n22")
