"""JSON emission for all report records.

Every record renders to a dict with a "schema" tag and a version;
rationals appear twice, as an exact string ("1/6") and as a float
mirror.  Keys are sorted at serialization time, so byte-identical
inputs give byte-identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .decompose import DecompositionTrace
from .fourier import RegularityReport
from .instance import Instance, SpanningCheck, manifest
from .rounding import RoundingReport
from .witness import LowerBoundReport, WitnessCertificate

SCHEMA_VERSION = 1
# Most records a report lists; longer lists are marked truncated.
_DEFAULT_LIST_CAP = 4096


def _frac(out: dict, key: str, value: Fraction) -> None:
    out[key] = str(value)
    out[f"{key}_float"] = float(value)


def regularity_report_dict(r: RegularityReport) -> dict:
    out: dict[str, Any] = {
        "schema": "f2reglab/regularity-report",
        "schema_version": SCHEMA_VERSION,
        "n": r.subspace.n,
        "subspace_basis": list(r.subspace.basis),
        "dim": r.subspace.dim,
        "index": r.subspace.index,
        "total_cosets": r.total_cosets,
        "regular_cosets": r.regular_cosets,
        "irregular_cosets": r.irregular_cosets,
        "regular": r.is_regular,
    }
    _frac(out, "epsilon", r.epsilon)
    _frac(out, "regular_fraction", r.regular_fraction)
    shown = slice(_DEFAULT_LIST_CAP)
    witnesses = [
        {"coset": int(rep), "eta": int(eta), "value": float(val)}
        for rep, eta, val in zip(
            r.witness_reps[shown], r.witness_etas[shown], r.witness_values[shown]
        )
    ]
    out["witnesses"] = witnesses
    out["witnesses_truncated"] = bool(r.witness_reps.shape[0] > _DEFAULT_LIST_CAP)
    return out


def witness_certificate_dict(c: WitnessCertificate) -> dict:
    gammas = {int(g) for g in c.gammas}
    out: dict[str, Any] = {
        "schema": "f2reglab/witness-certificate",
        "schema_version": SCHEMA_VERSION,
        "n": c.subspace.n,
        "subspace_basis": list(c.subspace.basis),
        "dim": c.subspace.dim,
        "block_index": c.block_index,
        "vector": c.vector.bits,
        "gamma": gammas.pop() if len(gammas) == 1 else None,
        "denominator": c.denominator,
        "total_cosets": c.total_cosets,
        "certified_cosets": c.certified_cosets,
        "cross_checked": c.cross_checked,
        "ok": c.ok,
    }
    _frac(out, "epsilon", c.epsilon)
    _frac(out, "bad_fraction", c.bad_fraction)
    _frac(out, "irregular_fraction", c.irregular_fraction)
    cap = min(c.total_cosets, _DEFAULT_LIST_CAP)
    out["cosets"] = [int(x) for x in c.reps[:cap]]
    out["gammas"] = [int(x) for x in c.gammas[:cap]]
    out["coefficients"] = [
        str(Fraction(int(m), c.denominator)) for m in c.numerators[:cap]
    ]
    out["coefficient_floats"] = [
        float(Fraction(int(m), c.denominator)) for m in c.numerators[:cap]
    ]
    out["certified"] = [bool(b) for b in c.certified[:cap]]
    out["records_truncated"] = bool(c.total_cosets > cap)
    return out


def decomposition_trace_dict(t: DecompositionTrace) -> dict:
    out: dict[str, Any] = {
        "schema": "f2reglab/decomposition-trace",
        "schema_version": SCHEMA_VERSION,
        "schedule": t.schedule,
        "status": t.status,
        "iterations": [
            {
                "iteration": rec.iteration,
                "dim": rec.dim,
                "index": rec.index,
                "energy": rec.energy,
                "irregular_cosets": rec.irregular_cosets,
                "added_characters": list(rec.added_characters),
                "energy_gain": rec.energy_gain,
            }
            for rec in t.iterations
        ],
        "final_dim": t.final_subspace.dim,
        "final_index": t.final_subspace.index,
        "final_basis": list(t.final_subspace.basis),
        "final_energy": t.final_energy,
        "final_regular": t.final_report.is_regular,
        "succeeded": t.succeeded,
    }
    _frac(out, "epsilon", t.epsilon)
    return out


def rounding_report_dict(r: RoundingReport) -> dict:
    out: dict[str, Any] = {
        "schema": "f2reglab/rounding-report",
        "schema_version": SCHEMA_VERSION,
        "n": r.n,
        "tau": r.tau,
        "seed": r.seed,
        "threshold_size": r.threshold_size,
        "skipped_small": r.skipped_small,
        "tested_pairs": len(r.records),
        "max_deviation": r.max_deviation,
        "exceedances": list(r.exceedances),
        "union_bound_pairs_log2": r.union_bound_pairs_log2,
        "ok": r.ok,
        "records": [
            {
                "basis": list(rec.basis),
                "representative": rec.representative,
                "eta": rec.eta,
                "size": rec.size,
                "f_value": rec.f_value,
                "s_value": rec.s_value,
                "deviation": rec.deviation,
            }
            for rec in r.records[:_DEFAULT_LIST_CAP]
        ],
        "records_truncated": bool(len(r.records) > _DEFAULT_LIST_CAP),
    }
    return out


def lowerbound_report_dict(r: LowerBoundReport) -> dict:
    out: dict[str, Any] = {
        "schema": "f2reglab/lowerbound-report",
        "schema_version": SCHEMA_VERSION,
        "mode": r.mode,
        "s": r.s,
        "n": r.n,
        "seed": r.seed,
        "checked": r.checked,
        "certified": r.certified,
        "zero_subspace_regular": r.zero_subspace_regular,
        "failures": [dict(x) for x in r.failures],
        "regular_nonzero": [list(b) for b in r.regular_nonzero],
        "per_dim_checked": list(r.per_dim_checked),
        "ok": r.ok,
    }
    _frac(out, "epsilon", r.epsilon)
    return out


def spanning_check_dict(c: SpanningCheck) -> dict:
    out: dict[str, Any] = {
        "schema": "f2reglab/spanning-check",
        "schema_version": SCHEMA_VERSION,
        "ok": c.ok,
        "count": c.count,
        "incidence": c.incidence,
        "worst": c.worst.bits if c.worst is not None else None,
        "certified": c.certified,
        "samples": c.samples,
    }
    _frac(out, "rho", c.rho)
    return out


_DISPATCH = [
    (RegularityReport, regularity_report_dict),
    (WitnessCertificate, witness_certificate_dict),
    (DecompositionTrace, decomposition_trace_dict),
    (RoundingReport, rounding_report_dict),
    (LowerBoundReport, lowerbound_report_dict),
    (SpanningCheck, spanning_check_dict),
    (Instance, manifest),
]


def report_dict(record: Any) -> dict:
    if isinstance(record, dict):
        return record
    for cls, builder in _DISPATCH:
        if isinstance(record, cls):
            return builder(record)
    raise TypeError(f"no report schema for {type(record).__name__}")


def emit_report(record: Any) -> str:
    """Serialize any report record to stable JSON text."""
    return json.dumps(report_dict(record), sort_keys=True, indent=2) + "\n"
