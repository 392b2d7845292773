import json
import subprocess
import sys

import numpy as np
import pytest

from pfaffrep import (SchemaError, SkewSymmetryViolation, kernel_at,
                      sample_curve_points, type1, type2)
from pfaffrep import jsonio as io
from pfaffrep.cli import COMMANDS, dispatch, parse_problem
from conftest import random_pencil


def run_cli(args, payload):
    proc = subprocess.run([sys.executable, "-m", "pfaffrep.cli", *args],
                          input=json.dumps(payload), capture_output=True, text=True)
    return proc


@pytest.fixture
def pencil_doc(rng):
    P = random_pencil(rng, 4)
    return P, io.enc_pencil(P)


def test_pencil_round_trip(pencil_doc):
    P, doc = pencil_doc
    Q = io.dec_pencil(doc)
    assert np.allclose(Q.A0, P.A0) and np.allclose(Q.A1, P.A1) and np.allclose(Q.A2, P.A2)


def test_poly_round_trip(rng):
    P = random_pencil(rng, 6)
    pf = P.pfaffian()
    assert io.dec_poly(io.enc_poly(pf)) == pf


def test_poly_terms_graded_lex_order(rng):
    pf = random_pencil(rng, 6).pfaffian()
    exps = [tuple(t["exp"]) for t in io.enc_poly(pf)["terms"]]
    assert exps == sorted(exps, reverse=True)


def test_record_round_trip(rng):
    P = random_pencil(rng, 4)
    pt = sample_curve_points(P.pfaffian(), 1, seed=5)[0].pt
    v = kernel_at(P, pt).v1
    _, rec = type2(P, pt, v, 0.3 - 0.2j)
    rec2 = io.dec_record(io.enc_record(rec))
    assert rec2.kind == "II"
    assert rec2.rho == pytest.approx(0.3 - 0.2j)
    assert np.allclose(rec2.gamma_after, rec.gamma_after)


def test_dec_pencil_rejects_non_skew(pencil_doc):
    _, doc = pencil_doc
    bad = json.loads(json.dumps(doc))
    bad["A1"][0][1] = [bad["A1"][0][1][0] + 1.0, bad["A1"][0][1][1]]
    with pytest.raises(SkewSymmetryViolation) as exc:
        io.dec_pencil(bad)
    assert "A1" in str(exc.value)


def test_dec_complex_shape_errors():
    with pytest.raises(SchemaError):
        io.dec_complex([1.0])
    with pytest.raises(SchemaError):
        io.dec_linear_form([[1, 0], [2, 0]])


def test_parse_problem_validation(pencil_doc):
    _, doc = pencil_doc
    ok = parse_problem({"kind": "pf", "payload": {"pencil": doc}})
    assert ok["kind"] == "pf" and ok["seed"] == 0
    with pytest.raises(SchemaError):
        parse_problem({"kind": "nope", "payload": {}})
    with pytest.raises(SchemaError):
        parse_problem({"kind": "pf"})
    with pytest.raises(SchemaError):
        parse_problem({"kind": "pf", "payload": {}, "seed": -1})
    with pytest.raises(SchemaError):
        parse_problem({"kind": "pf", "payload": {}, "tolerances": {"bogus": 1}})


def test_all_registry_kinds_are_wired():
    expected = {"pf", "pf-minor", "adjoint", "kernel", "canon", "canon2", "gauge",
                "structure", "tangent", "line", "classify-pair", "k-const", "partners",
                "type1", "type2", "conint", "bundle-check", "bridge", "polar-cubic",
                "aronhold", "scorza", "integrate-polar", "triangle", "factor-lines",
                "related", "identify-theta", "bitangent", "verify-replay"}
    assert set(COMMANDS) == expected


def test_dispatch_type2_reports_pf_invariance(rng, pencil_doc):
    P, doc = pencil_doc
    pt = sample_curve_points(P.pfaffian(), 1, seed=2)[0].pt
    v = kernel_at(P, pt).v1
    problem = parse_problem({"kind": "type2", "payload": {
        "pencil": doc, "lambda": io.enc_point(pt), "v": io.enc_vector(v),
        "rho": [0.5, -0.25]}})
    report = dispatch(problem)
    assert report["residuals"]["pf_invariance"]["ok"]


def test_cli_json_determinism(pencil_doc):
    _, doc = pencil_doc
    payload = {"kind": "pf", "payload": {"pencil": doc}, "seed": 0}
    a = run_cli(["pf", "-", "--format", "json"], payload)
    b = run_cli(["pf", "-", "--format", "json"], payload)
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_cli_exit_codes(pencil_doc):
    _, doc = pencil_doc
    # schema: unknown kind
    p = run_cli(["run", "-"], {"kind": "bogus", "payload": {}})
    assert p.returncode == 2
    # precondition: kernel at an off-curve point raises RankDeficiency (numerical)
    p = run_cli(["kernel", "-"], {"kind": "kernel", "payload": {
        "pencil": doc, "point": [[1, 0], [0.37, 0], [0.91, 0]]}})
    assert p.returncode == 3
    # precondition family: same point twice
    pt = [[1, 0], [0.1, 0], [0.2, 0]]
    p = run_cli(["classify-pair", "-"], {"kind": "classify-pair", "payload": {
        "pencil": doc, "lambda": pt, "mu": pt}})
    assert p.returncode == 4
    # usage: missing file, unknown command, bad --format value, no command at all
    for args in (["pf", "/no/such/file"], ["bogus", "-"], ["pf", "-", "--format", "xml"], []):
        proc = subprocess.run([sys.executable, "-m", "pfaffrep.cli", *args],
                              input="{}", capture_output=True, text=True)
        assert proc.returncode == 1, args
        assert proc.stderr.startswith("pfaffrep: ") and not proc.stdout, args
    proc = subprocess.run([sys.executable, "-m", "pfaffrep.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and "verify-replay" in proc.stdout
    # options may stand before the command and between the positionals
    for args in (["--format", "json", "--seed", "3", "pf", "-"],
                 ["pf", "--format", "json", "-", "--seed", "3"]):
        p = run_cli(args, {"kind": "pf", "payload": {"pencil": doc}})
        assert p.returncode == 0, args
        assert json.loads(p.stdout)["seed"] == 3


def test_cli_kind_mismatch(pencil_doc):
    _, doc = pencil_doc
    p = run_cli(["kernel", "-"], {"kind": "pf", "payload": {"pencil": doc}})
    assert p.returncode == 2
    assert "does not match" in p.stderr


def test_cli_scorza_with_expected(quartic_example, scorza_printed):
    payload = {"kind": "scorza", "payload": {
        "quartic": io.enc_poly(quartic_example),
        "expected": io.enc_poly(scorza_printed)}}
    p = run_cli(["scorza", "-", "--format", "json"], payload)
    assert p.returncode == 0
    rep = json.loads(p.stdout)
    assert rep["residuals"]["match_up_to_scale"]["ok"]
    scale = complex(*rep["outputs"]["scale_vs_expected"])
    assert scale == pytest.approx(81 / 107 ** (1 / 3), rel=1e-6)


def test_cli_verify_replay_round_trip(rng):
    P = random_pencil(rng, 4)
    pts = sample_curve_points(P.pfaffian(), 2, seed=11)
    from pfaffrep import classify_pair
    pc = classify_pair(P, pts[0].pt, pts[1].pt)
    P1, rec1 = type1(P, pts[0].pt, pts[1].pt, pc.basis_lambda.v1, pc.basis_mu.v1)
    _, rec2 = type1(P1, pts[0].pt, pts[1].pt, pc.basis_mu.v1, pc.basis_lambda.v1)
    payload = {"kind": "verify-replay", "payload": {
        "pencil": io.enc_pencil(P),
        "records": [io.enc_record(rec1), io.enc_record(rec2)]}}
    p = run_cli(["verify-replay", "-", "--format", "json"], payload)
    assert p.returncode == 0
    rep = json.loads(p.stdout)
    assert rep["residuals"]["pf_invariance"]["ok"]


def test_cli_batch_order_and_seeds(pencil_doc):
    _, doc = pencil_doc
    problems = [{"kind": "pf", "payload": {"pencil": doc}, "seed": 7},
                {"kind": "structure", "payload": {"pencil": doc}},
                {"kind": "pf", "payload": {"pencil": doc}, "seed": 9}]
    d = 2
    ps = [0.4, -1.1]
    A1 = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    A2 = np.block([[np.zeros((d, d)), -np.diag(ps)], [np.diag(ps), np.zeros((d, d))]])
    A0 = np.zeros((4, 4))
    from pfaffrep import SkewPencil
    problems[1]["payload"]["pencil"] = io.enc_pencil(SkewPencil(A0, A1, A2))
    p = run_cli(["batch", "-", "--format", "json"], problems)
    assert p.returncode == 0
    reports = json.loads(p.stdout)
    assert [r["command"] for r in reports] == ["pf", "structure", "pf"]
    assert reports[0]["seed"] == 7 and reports[2]["seed"] == 9


def test_cli_batch_isolates_failures(pencil_doc):
    _, doc = pencil_doc
    good = [{"kind": "pf", "payload": {"pencil": doc}, "seed": 7},
            {"kind": "pf", "payload": {"pencil": doc}, "seed": 9}]
    alone = [json.loads(run_cli(["run", "-", "--format", "json"], g).stdout) for g in good]
    # structure needs a second-canonical pencil: a precondition violation, exit 4
    bad = {"kind": "structure", "payload": {"pencil": doc}, "seed": 8}
    p = run_cli(["batch", "-", "--format", "json"], [good[0], bad, good[1]])
    assert p.returncode == 4
    reports = json.loads(p.stdout)
    assert [reports[0], reports[2]] == alone
    assert reports[1] == {"command": "structure", "seed": 8, "error": {
        "type": "NotInCanonicalForm", "message": reports[1]["error"]["message"],
        "exit_code": 4}}
    # an envelope schema error takes its slot too; the text report shows it
    p = run_cli(["batch", "-"], [good[0], {"kind": "bogus", "payload": {}}])
    assert p.returncode == 2
    assert "command: pf  (seed 7" in p.stdout
    assert "command: bogus  (seed 0)\n  error SchemaError (exit 2): unknown kind" in p.stdout


def test_cli_tol_override(pencil_doc):
    _, doc = pencil_doc
    payload = {"kind": "pf", "payload": {"pencil": doc}}
    p = run_cli(["pf", "-", "--tol", "1e-9,1e-8,1e-6", "--format", "json"], payload)
    assert p.returncode == 0
    p = run_cli(["pf", "-", "--tol", "bad"], payload)
    assert p.returncode == 2


def test_cli_text_mode_mentions_residuals(pencil_doc, rng):
    P, doc = pencil_doc
    pt = sample_curve_points(P.pfaffian(), 1, seed=2)[0].pt
    v = kernel_at(P, pt).v1
    payload = {"kind": "type2", "payload": {
        "pencil": doc, "lambda": io.enc_point(pt), "v": io.enc_vector(v),
        "rho": [0.5, -0.25]}}
    p = run_cli(["type2", "-"], payload)
    assert p.returncode == 0
    assert "pf_invariance" in p.stdout and "[ok]" in p.stdout


def test_cli_env_tolerance_profile(pencil_doc):
    import os
    _, doc = pencil_doc
    payload = {"kind": "pf", "payload": {"pencil": doc}}
    env = dict(os.environ, PFAFFREP_TOL="1e-10,1e-9,1e-7")
    proc = subprocess.run([sys.executable, "-m", "pfaffrep.cli", "pf", "-"],
                          input=json.dumps(payload), capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0
    env_bad = dict(os.environ, PFAFFREP_TOL="nonsense")
    proc = subprocess.run([sys.executable, "-m", "pfaffrep.cli", "pf", "-"],
                          input=json.dumps(payload), capture_output=True, text=True,
                          env=env_bad)
    assert proc.returncode == 2
