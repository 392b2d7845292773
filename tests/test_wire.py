"""The wire schema of every command's report, and the one output encoder.

``jsonio.enc_value`` writes a record as the object of its fields, so a
record's field names are wire names: renaming a field would change the
JSON.  The tables below pin the keys every command writes, and every
report must be strict JSON (no ``NaN`` or ``Infinity`` token).
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pfaffrep import LinearForm, ProjPoint, TransformRecord
from pfaffrep import jsonio as io
from pfaffrep.cli import COMMANDS, _exit_code_for, dispatch, main, parse_problem
from conftest import related_doc

RECORD = {"kind", "lambda", "mu", "v", "u", "rho", "k_value", "conint_data",
          "gamma_before", "gamma_after"}

# command -> the keys of its outputs
OUTPUT_KEYS = {
    "pf": {"pfaffian"},
    "pf-minor": {"minor"},
    "adjoint": {"adjoint"},
    "kernel": {"kernel"},
    "canon": {"report"},
    "canon2": {"pencil", "det_q"},
    "gauge": {"pencil"},
    "structure": {"report"},
    "tangent": {"line"},
    "line": {"line", "is_zero"},
    "classify-pair": {"classification"},
    "k-const": {"k"},
    "partners": {"points"},
    "type1": {"pencil", "record"},
    "type2": {"pencil", "record"},
    "conint": {"pencil", "record"},
    "bundle-check": {"report"},
    "bridge": {"records", "pencil", "converged", "off_pattern_norm", "history"},
    "polar-cubic": {"coeffs"},
    "aronhold": {"pfaffian"},
    "scorza": {"scorza", "scale_vs_expected"},
    "integrate-polar": {"quartic"},
    "triangle": {"triangle"},
    "factor-lines": {"lines"},
    "related": {"relation"},
    "identify-theta": {"identification"},
    "bitangent": {"line"},
    "verify-replay": {"step_residuals"},
}

# (command, output key) -> the keys of the object under it, or of each entry of a list
OBJECT_KEYS = {
    ("kernel", "kernel"): {"point", "vectors", "residual"},
    ("canon", "report"): {"roots", "basis_change", "pencil", "residual"},
    ("structure", "report"): {"is_decomposable_form", "is_symmetric_blocks",
                              "free_parameter_count"},
    ("classify-pair", "classification"): {"kind", "kappa", "special_vectors"},
    ("type1", "record"): RECORD,
    ("type2", "record"): RECORD,
    ("conint", "record"): RECORD,
    ("bundle-check", "report"): {"identity_residual", "zero_patterns", "transport_angle",
                                 "parameter_independence"},
    ("bridge", "records"): RECORD,
    ("polar-cubic", "coeffs"): {"w000", "w111", "w222", "w012", "w001", "w002", "w011",
                                "w022", "w112", "w122"},
    ("triangle", "triangle"): {"lines", "vertices", "residual"},
    ("related", "relation"): {"related", "residuals"},
    ("identify-theta", "identification"): {"index", "evidence"},
}

CONINT_DATA = {"points", "vectors", "rhos", "Gamma"}
EVIDENCE_ROW = {"point", "vertices", "residuals"}


def test_every_command_is_pinned():
    assert set(OUTPUT_KEYS) == set(COMMANDS)


@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_report_is_strict_json_with_the_pinned_keys(kind, problems):
    report = dispatch(parse_problem(problems[kind]))
    assert _exit_code_for(report) == 0, report["residuals"]
    outputs = json.loads(json.dumps(report, allow_nan=False))["outputs"]
    assert set(outputs) == OUTPUT_KEYS[kind]
    for (command, key), fields in OBJECT_KEYS.items():
        if command == kind:
            objects = outputs[key] if isinstance(outputs[key], list) else [outputs[key]]
            assert objects and all(set(obj) == fields for obj in objects), key
    if kind == "conint":
        assert set(outputs["record"]["conint_data"]) == CONINT_DATA
    if kind == "identify-theta":
        assert all(set(row) == EVIDENCE_ROW for row in outputs["identification"]["evidence"])


def _run_main(argv, doc, monkeypatch, capsys):
    data = json.dumps(doc).encode()
    monkeypatch.setattr("sys.stdin", SimpleNamespace(buffer=SimpleNamespace(read=lambda: data)))
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_related_reports_a_related_pair(theta_lambda, theta_vertex, relation_policy,
                                        monkeypatch, capsys):
    doc = related_doc(theta_lambda, theta_vertex, relation_policy)
    code, report = _run_main(["related", "-", "--format", "json"], doc, monkeypatch, capsys)
    assert code == 0
    assert report["outputs"]["relation"]["related"] is True
    assert report["residuals"]["pairing_residual"]["ok"] is True


def test_related_reports_an_unrelated_pair_without_a_residual(theta_lambda, relation_policy,
                                                              monkeypatch, capsys):
    doc = related_doc(theta_lambda, theta_lambda, relation_policy)
    code, report = _run_main(["related", "-", "--format", "json"], doc, monkeypatch, capsys)
    assert code == 0
    assert report["outputs"]["relation"]["related"] is False
    assert report["residuals"] == {}


def test_batch_with_a_related_problem_keeps_every_report(problems, monkeypatch, capsys):
    batch = [problems["pf"], problems["related"], problems["pf"]]
    code, reports = _run_main(["batch", "-", "--format", "json"], batch, monkeypatch, capsys)
    assert code == 0
    assert [r["command"] for r in reports] == ["pf", "related", "pf"]
    assert all("error" not in r for r in reports)


def test_enc_value_rules():
    scalars = io.enc_value([np.float64(0.5), np.int64(3), np.True_, np.complex128(1 - 2j)])
    assert scalars == [0.5, 3, True, [1.0, -2.0]]
    assert [type(x) for x in scalars[:3]] == [float, int, bool]
    assert io.enc_value([math.inf, -math.inf, math.nan, np.float64("nan")]) == [None] * 4
    assert io.enc_value({0: 1, 2: None}) == {"0": 1, "2": None}
    assert math.copysign(1.0, io.enc_value(-0.0)) == -1.0
    assert io.enc_value(LinearForm(1, 2j, -0.5)) == [[1.0, 0.0], [0.0, 2.0], [-0.5, 0.0]]
    rec = TransformRecord(kind="II", lam=ProjPoint(1, 0, 0), mu=None, v=np.ones(2),
                          u=None, rho=0.5 + 0j, k_value=None, conint_data=None,
                          gamma_before=np.zeros((2, 2)), gamma_after=np.zeros((2, 2)))
    out = io.enc_value(rec)
    assert set(out) == RECORD
    assert out["lambda"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    assert np.array_equal(io.dec_record(out).lam.coords, rec.lam.coords)
    with pytest.raises(TypeError, match="object"):
        io.enc_value(object())


def _bundle_check(problems, **payload) -> dict:
    doc = problems["bundle-check"]
    return {**doc, "payload": {**doc["payload"], **payload}}


def test_bundle_check_reports_curve_residuals_only_with_curve_samples(problems):
    curve = {"transport_angle", "parameter_independence"}
    report = dispatch(parse_problem(_bundle_check(problems)))
    assert curve <= set(report["residuals"])
    report = dispatch(parse_problem(_bundle_check(problems, curve_samples=[])))
    assert "intertwining_identity" in report["residuals"]
    assert curve.isdisjoint(report["residuals"])
    assert _exit_code_for(report) == 0
    # nothing was measured, so the report says so rather than reading 0.0
    wire = json.loads(json.dumps(report["outputs"]["report"]))
    assert {name: wire[name] for name in curve} == dict.fromkeys(curve)


def test_bundle_check_without_samples_is_a_violated_precondition(problems, monkeypatch,
                                                                 capsys):
    doc = _bundle_check(problems, samples=[], curve_samples=[])
    data = json.dumps(doc).encode()
    monkeypatch.setattr("sys.stdin", SimpleNamespace(buffer=SimpleNamespace(read=lambda: data)))
    assert main(["bundle-check", "-"]) == 4
    out = capsys.readouterr()
    assert not out.out
    assert out.err == "pfaffrep: precondition violated: need at least one sample point\n"
