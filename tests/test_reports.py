"""Report emission: schemas, rational mirrors, stability."""

import json
from fractions import Fraction

import pytest

import f2reglab as fl
from f2reglab.reports import emit_report, report_dict


@pytest.fixture(scope="module")
def inst2():
    return fl.Instance.generate(2, seed=1)


def test_regularity_report_schema(inst2):
    report = fl.check_subspace_regularity(inst2.table, fl.Subspace.from_vectors(3, [1]), "1/32")
    data = json.loads(emit_report(report))
    assert data["schema"] == "f2reglab/regularity-report"
    assert data["epsilon"] == "1/32" and data["epsilon_float"] == 0.03125
    assert data["regular"] is False
    assert {w["eta"] for w in data["witnesses"]} == {1}
    assert data["witnesses_truncated"] is False


def test_witness_certificate_schema(inst2):
    cert = fl.witness_scan(inst2.table, fl.Subspace.from_vectors(3, [1]), "1/32", inst2.xi)
    data = json.loads(emit_report(cert))
    assert data["schema"] == "f2reglab/witness-certificate"
    assert data["gamma"] == 1  # constant witness character e1
    assert data["coefficients"] == ["1/4", "0", "1/2", "1/4"]
    assert data["coefficient_floats"] == [0.25, 0.0, 0.5, 0.25]
    assert data["bad_fraction"] == "0"
    assert data["irregular_fraction"] == "3/4"
    assert data["ok"] is True


def test_decomposition_trace_schema(inst2):
    trace = fl.find_regular_subspace(inst2.table, "1/32")
    data = json.loads(emit_report(trace))
    assert data["schema"] == "f2reglab/decomposition-trace"
    assert data["final_index"] == 8 and data["succeeded"] is True
    assert [row["iteration"] for row in data["iterations"]] == list(
        range(len(data["iterations"]))
    )


def test_lowerbound_report_schema(inst2):
    report = fl.exhaustive_lowerbound_check(inst2, Fraction(1, 32))
    data = json.loads(emit_report(report))
    assert data["schema"] == "f2reglab/lowerbound-report"
    assert data["ok"] is True and data["certified"] == 15


def test_rounding_report_schema():
    f = fl.FunctionTable.constant(10, 0.5)
    rounded = fl.round_to_binary(f, 1)
    # full space holds 1024 >= 4 * 100 / 0.81 points
    pairs = [(fl.AffineSubspace(fl.Subspace.full(10)), fl.F2Vector(10, 1))]
    report = fl.deviation_report(f, rounded, 0.9, pairs, seed=1)
    data = json.loads(emit_report(report))
    assert data["schema"] == "f2reglab/rounding-report"
    assert data["union_bound_pairs_log2"] == 110
    assert len(data["records"]) == 1 and data["skipped_small"] == 0


def test_spanning_check_schema():
    check = fl.verify_spanning_family([fl.F2Vector(4, 1 << j) for j in range(4)], 1, d=4)
    data = json.loads(emit_report(check))
    assert data["schema"] == "f2reglab/spanning-check"
    assert data["rho"] == "1" and data["certified"] is True


def test_instance_manifest_dispatch(inst2):
    data = report_dict(inst2)
    assert data["schema"] == "f2reglab/instance"


def test_stable_bytes(inst2):
    report = fl.check_subspace_regularity(inst2.table, fl.Subspace.from_vectors(3, [1]), "1/32")
    assert emit_report(report) == emit_report(report)


def test_unknown_record_rejected():
    with pytest.raises(TypeError):
        emit_report(object())
