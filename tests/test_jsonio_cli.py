import json
import os
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
    rec2 = io.dec_record(io.enc_value(rec))
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
    # JSON booleans are Python ints, but no number
    for pair in ([True, False], [1.0, True], [False, 0.0]):
        with pytest.raises(SchemaError, match=r"\(at \$\)"):
            io.dec_complex(pair)
    with pytest.raises(SchemaError, match=r"\$\[1\]"):
        io.dec_vector([[1.0, 0.0], [True, 0.0]])


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
    # JSON true is a Python int; it is no seed and no tolerance
    with pytest.raises(SchemaError, match=r"\$\.seed"):
        parse_problem({"kind": "pf", "payload": {}, "seed": True})
    for value in (True, None, [1e-5]):
        with pytest.raises(SchemaError, match=r"\$\.tolerances\.match_tol"):
            parse_problem({"kind": "pf", "payload": {}, "tolerances": {"match_tol": value}})


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
        "records": [io.enc_value(rec1), io.enc_value(rec2)]}}
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
    assert "command: null  (seed 0)\n  error SchemaError (exit 2): unknown kind" in p.stdout
    # payload, decoder and skew paths name the problem's index, as envelope paths do
    skewless = json.loads(json.dumps(doc))
    skewless["A1"][0][1] = [skewless["A1"][0][1][0] + 1.0, 0.0]
    p = run_cli(["batch", "-", "--format", "json"],
                [{"kind": "pf", "payload": {}}, {"kind": "bogus"},
                 {"kind": "pf", "payload": {"pencil": {**doc, "d": "x"}}},
                 {"kind": "pf", "payload": {"pencil": skewless}}])
    assert p.returncode == 2
    messages = [r["error"]["message"] for r in json.loads(p.stdout)]
    assert [m[m.rindex("(at "):] for m in messages] == [
        "(at $[0].payload.pencil)", "(at $[1].kind)", "(at $[2].payload.pencil.d)",
        "(at $[3].payload.pencil)"]
    assert messages[3].startswith("A1[0,1] deviates from skew-symmetry by ")


def test_cli_unhashable_kind_is_a_schema_error(pencil_doc):
    _, doc = pencil_doc
    good = [{"kind": "pf", "payload": {"pencil": doc}, "seed": s} for s in (7, 9)]
    alone = [json.loads(run_cli(["run", "-", "--format", "json"], g).stdout) for g in good]
    for kind in (["pf"], {"k": 1}):
        p = run_cli(["run", "-"], {"kind": kind, "payload": {}})
        assert p.returncode == 2 and not p.stdout
        assert p.stderr.startswith("pfaffrep: schema error: unknown kind ")
        assert p.stderr.rstrip().endswith("(at $.kind)")
        p = run_cli(["batch", "-", "--format", "json"],
                    [good[0], {"kind": kind, "payload": {}}, good[1]])
        assert p.returncode == 2
        reports = json.loads(p.stdout)
        assert [reports[0], reports[2]] == alone
        assert reports[1]["command"] is None and reports[1]["seed"] == 0
        assert reports[1]["error"]["message"].endswith("(at $[1].kind)")


def test_cli_non_object_problem_is_a_schema_error():
    for doc in ([], "kind"):
        p = run_cli(["pf", "-"], doc)
        assert p.returncode == 2 and not p.stdout
        assert p.stderr == "pfaffrep: schema error: problem must be a JSON object (at $)\n"


def test_cli_batch_error_entries_report_only_valid_kinds_and_seeds():
    problems = [{"kind": "pf", "payload": {}, "seed": True},
                {"kind": "bogus", "payload": {}, "seed": -3},
                {"kind": "pf", "payload": {}, "seed": 4}]
    p = run_cli(["batch", "-", "--format", "json"], problems)
    assert p.returncode == 2
    assert [(r["command"], r["seed"]) for r in json.loads(p.stdout)] == [
        ("pf", None), (None, None), ("pf", 4)]
    p = run_cli(["batch", "-"], problems)
    assert p.returncode == 2
    assert [line for line in p.stdout.splitlines() if line.startswith("command:")] == [
        "command: pf  (seed null)", "command: null  (seed null)", "command: pf  (seed 4)"]
    # a --seed override is validated as a problem's seed is
    p = run_cli(["batch", "-", "--seed", "-3"], problems)
    assert p.returncode == 1 and not p.stdout
    assert p.stderr == "pfaffrep: error: argument --seed: expected a nonnegative integer\n"


def test_cli_reads_utf8_problems_whatever_the_locale(pencil_doc, tmp_path):
    _, doc = pencil_doc
    problem = {"kind": "pf", "payload": {"pencil": doc, "note": "courbe plane, é"}}
    data = json.dumps(problem, ensure_ascii=False).encode("utf-8")
    path = tmp_path / "problem.json"
    path.write_bytes(data)
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    expected = run_cli(["pf", "-", "--format", "json"], problem).stdout
    for args, stdin in ((["pf", str(path)], b""), (["pf", "-"], data)):
        proc = subprocess.run([sys.executable, "-m", "pfaffrep.cli", *args, "--format", "json"],
                              input=stdin, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode("ascii") == expected


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


def _replay_payload(rng):
    """A pencil and two type-I records that replay on it."""
    P = random_pencil(rng, 4)
    pts = sample_curve_points(P.pfaffian(), 2, seed=11)
    from pfaffrep import classify_pair
    pc = classify_pair(P, pts[0].pt, pts[1].pt)
    P1, rec1 = type1(P, pts[0].pt, pts[1].pt, pc.basis_lambda.v1, pc.basis_mu.v1)
    _, rec2 = type1(P1, pts[0].pt, pts[1].pt, pc.basis_mu.v1, pc.basis_lambda.v1)
    return {"kind": "verify-replay", "payload": {
        "pencil": io.enc_pencil(P), "records": [io.enc_value(rec1), io.enc_value(rec2)]}}


def _output_line(stdout: str, key: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith(f"  {key}: "))


def test_cli_text_mode_shows_two_reals_as_a_list(rng):
    p = run_cli(["verify-replay", "-"], _replay_payload(rng))
    assert p.returncode == 0, p.stderr
    line = _output_line(p.stdout, "step_residuals")
    assert line.startswith("  step_residuals: [") and line.endswith("]")
    assert len(line.split(",")) == 2 and "i" not in line.split(":", 1)[1]

    from pfaffrep import DetRep, decomposable_from
    D = np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    P = decomposable_from(DetRep(C, np.eye(4), -D))
    pt = sample_curve_points(P.pfaffian(), 1, seed=5)[0].pt
    kb = kernel_at(P, pt)
    planted, _ = type2(P, pt, kb.v1 + 0.4 * kb.v2, 0.8 - 0.45j)
    p = run_cli(["bridge", "-", "--format", "json"],
                {"payload": {"pencil": io.enc_pencil(planted), "budget": 1}})
    history = json.loads(p.stdout)["outputs"]["history"]
    assert len(history) == 2 and all(isinstance(h, float) for h in history)
    p = run_cli(["bridge", "-"], {"payload": {"pencil": io.enc_pencil(planted), "budget": 1}})
    assert _output_line(p.stdout, "history") == f"  history: [{history[0]}, {history[1]}]"
    # complex pairs still read as complex numbers
    p = run_cli(["type2", "-"], {"payload": {"pencil": io.enc_pencil(P),
                                             "lambda": io.enc_point(pt),
                                             "v": io.enc_vector(kb.v1), "rho": [0.5, 0.0]}})
    assert "lambda: [1+0i, " in _output_line(p.stdout, "record")


def test_cli_json_reports_are_compact_and_sorted(pencil_doc):
    _, doc = pencil_doc
    problems = [{"kind": "pf", "payload": {"pencil": doc}},
                {"kind": "canon", "payload": {"pencil": doc}, "seed": 3}]
    for args, payload in ((["pf", "-", "--format", "json"], problems[0]),
                          (["batch", "-", "--format", "json"], problems)):
        p = run_cli(args, payload)
        assert p.returncode == 0, p.stderr
        assert p.stdout == json.dumps(json.loads(p.stdout), sort_keys=True) + "\n"


_HUGE = 10 ** 400  # a JSON integer beyond double range


def test_cli_integers_beyond_double_range_are_schema_errors(pencil_doc):
    _, doc = pencil_doc
    bad = json.loads(json.dumps(doc))
    bad["A0"][0][1] = [_HUGE, 0]
    p = run_cli(["pf", "-"], {"payload": {"pencil": bad}})
    assert p.returncode == 2 and not p.stdout
    assert p.stderr == ("pfaffrep: schema error: number out of double range "
                        "(at $.payload.pencil.A0[0][1])\n")
    p = run_cli(["pf", "-"], {"payload": {"pencil": doc}, "tolerances": {"match_tol": _HUGE}})
    assert p.returncode == 2 and not p.stdout
    assert p.stderr == ("pfaffrep: schema error: number out of double range "
                        "(at $.tolerances.match_tol)\n")

    good = {"kind": "pf", "payload": {"pencil": doc}}
    p = run_cli(["batch", "-", "--format", "json"],
                [good, {"kind": "pf", "payload": {"pencil": bad}},
                 {**good, "tolerances": {"zero_tol": -_HUGE}}, good])
    assert p.returncode == 2
    reports = json.loads(p.stdout)
    assert reports[0] == reports[3] and "outputs" in reports[0]
    assert [r["error"]["message"] for r in reports[1:3]] == [
        "number out of double range (at $[1].payload.pencil.A0[0][1])",
        "number out of double range (at $[2].tolerances.zero_tol)"]


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


# -- malformed payloads -----------------------------------------------------------

_PT = [[1.0, 0.0], [0.5, 0.0], [0.25, 0.0]]
_VEC = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
_ONE = [[[1.0, 0.0]]]
_RECORD = {"kind": "II", "gamma_before": _ONE, "gamma_after": _ONE}
_QUARTIC = {"degree": 4, "terms": [{"exp": [4, 0, 0], "coeff": [1.0, 0.0]}]}
_REP = {"M0": _ONE, "M1": _ONE, "M2": _ONE}

# A value that decodes, for each payload field name; a problem made of
# these need not make sense, since a malformed field fails before any
# handler runs.
FIELD_VALUES = {
    "point": _PT, "lambda": _PT, "mu": _PT, "v": _VEC, "u": _VEC, "b_i": _VEC, "b_j": _VEC,
    "t1": [0.5, 0.0], "t2": [0.5, 0.0], "rho": [0.5, 0.0], "i": 0, "j": 1,
    "blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
    "points": [_PT], "vectors": [_VEC], "rhos": [[0.5, 0.0]], "record": _RECORD,
    "samples": [_PT], "records": [_RECORD], "quartic": _QUARTIC,
    "cubic": {"degree": 3, "terms": [{"exp": [3, 0, 0], "coeff": [1.0, 0.0]}]},
    "coeffs": {name: [1.0, 0.0] for name in ("w000", "w111", "w222", "w012", "w001",
                                             "w002", "w011", "w022", "w112", "w122")},
    "rep": _REP, "candidates": [_REP],
}

# The required payload fields of every command.
REQUIRED = {
    "pf": "pencil", "pf-minor": "pencil i j", "adjoint": "pencil point",
    "kernel": "pencil point", "canon": "pencil", "canon2": "pencil",
    "gauge": "pencil blocks", "structure": "pencil", "tangent": "pencil point",
    "line": "pencil lambda mu v u", "classify-pair": "pencil lambda mu",
    "k-const": "pencil lambda mu v u t1 t2", "partners": "pencil lambda v u",
    "type1": "pencil lambda mu v u", "type2": "pencil lambda v rho",
    "conint": "pencil points vectors rhos", "bundle-check": "pencil record samples",
    "bridge": "pencil", "polar-cubic": "quartic", "aronhold": "coeffs", "scorza": "quartic",
    "integrate-polar": "coeffs", "triangle": "quartic point", "factor-lines": "cubic",
    "related": "rep lambda mu", "identify-theta": "candidates",
    "bitangent": "rep b_i b_j", "verify-replay": "pencil records",
}


def _payload(kind, pencil):
    """A payload with every required field of ``kind`` present and decodable."""
    values = {**FIELD_VALUES, "pencil": pencil}
    payload = {name: values[name] for name in REQUIRED[kind].split()}
    if kind == "identify-theta":
        payload["quartic"] = _QUARTIC
    return payload


def _assert_schema_error(text, kind, payload):
    """Running the problem raises a SchemaError whose message contains ``text``."""
    with pytest.raises(SchemaError) as exc:
        dispatch(parse_problem({"kind": kind, "payload": payload}))
    assert text in str(exc.value)


@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_missing_or_mistyped_field_is_a_schema_error(kind, pencil_doc):
    full = _payload(kind, pencil_doc[1])
    for name in REQUIRED[kind].split():
        rest = {k: v for k, v in full.items() if k != name}
        _assert_schema_error(f"$.payload.{name}", kind, rest)
        wrong = [0] if name in ("i", "j") else 5
        _assert_schema_error(f"$.payload.{name}", kind, {**rest, name: wrong})


def test_identify_theta_needs_quartic_or_coeffs(pencil_doc):
    payload = _payload("identify-theta", pencil_doc[1])
    del payload["quartic"]
    _assert_schema_error("need either 'quartic' or 'coeffs'", "identify-theta", payload)


def test_integer_fields_and_minor_indices(pencil_doc):
    pf_minor = _payload("pf-minor", pencil_doc[1])
    for i, j in ((4, 1), (0, 4), (True, 1), (2.0, 1)):
        bad = "$.payload.i" if i != 0 else "$.payload.j"
        _assert_schema_error(bad, "pf-minor", {**pf_minor, "i": i, "j": j})
    _assert_schema_error("minor indices must differ", "pf-minor", {**pf_minor, "i": 1, "j": 1})
    bridge = _payload("bridge", pencil_doc[1])
    for budget in (2.7, -1, "3", None):
        _assert_schema_error("$.payload.budget", "bridge", {**bridge, "budget": budget})


def test_adjoint_is_taken_at_the_payload_coordinates(pencil_doc):
    """The adjoint is homogeneous of degree d - 1 = 1, so the command answers for
    the coordinates as sent; three zeros or a wrong length name the point."""
    P, pen = pencil_doc
    x = np.array([0.5, 1.0 - 2.0j, 0.25j])
    adj = [io.dec_matrix(dispatch(parse_problem({"kind": "adjoint", "payload": {
        "pencil": pen, "point": io.enc_vector(s * x)}}))["outputs"]["adjoint"])
        for s in (1.0, 3.0)]
    assert np.allclose(adj[1], 3.0 * adj[0], rtol=1e-12, atol=0)
    for point in ([[0.0, 0.0]] * 3, [[1.0, 0.0]] * 2, [[1.0, 0.0], [float("nan"), 0.0], [0.0, 0.0]]):
        _assert_schema_error("$.payload.point", "adjoint", {"pencil": pen, "point": point})


def test_decoders_raise_schema_errors_with_paths(pencil_doc):
    doc = pencil_doc[1]
    cases = [(io.dec_pencil, {**doc, "d": "x"}, "$.d"),
             (io.dec_pencil, {**doc, "d": [2]}, "$.d"),
             (io.dec_pencil, {**doc, "d": 3}, "declared d=3"),
             (io.dec_poly, {"degree": 4, "terms": 5}, "$.terms"),
             (io.dec_poly, {"degree": [4], "terms": []}, "$.degree"),
             (io.dec_poly, {"degree": 4.0, "terms": []}, "$.degree"),
             (io.dec_record, {"kind": "II", "gamma_after": _ONE}, "missing gamma_before"),
             (io.dec_record, {"kind": "II", "gamma_before": _ONE}, "missing gamma_after"),
             (io.dec_record, {**_RECORD, "kind": "CONINT", "conint_data": 5}, "$.conint_data"),
             (io.dec_record, {**_RECORD, "kind": "CONINT", "conint_data": {}},
              "missing Gamma (at $.conint_data.Gamma)"),
             (io.dec_record, {**_RECORD, "kind": "CONINT",
                              "conint_data": {"Gamma": _ONE, "points": 5}},
              "$.conint_data.points"),
             (io.dec_poly, {"degree": 2, "terms": [{"exp": [True, 1, 0], "coeff": [1.0, 0.0]}]},
              "exp must be three nonnegative integers (at $.terms[0])"),
             (io.dec_poly, {"degree": 2, "terms": [{"exp": [1, 1, 0], "coeff": [True, 0.0]}]},
              "$.terms[0]"),
             (io.dec_cubic_coeffs, {**FIELD_VALUES["coeffs"], "w012": [True, False]},
              "$.w012"),
             (io.dec_matrix, [[[0.0, 0.0], [False, 1.0]]], "$[0][1]")]
    for dec, obj, expected in cases:
        with pytest.raises(SchemaError) as exc:
            dec(obj)
        assert expected in str(exc.value), (obj, str(exc.value))


def test_skew_violation_names_the_entry(pencil_doc):
    bad = json.loads(json.dumps(pencil_doc[1]))
    bad["A2"][1][3] = [bad["A2"][1][3][0] + 1.0, bad["A2"][1][3][1]]
    with pytest.raises(SkewSymmetryViolation) as exc:
        io.dec_pencil(bad, "$.payload.pencil")
    assert str(exc.value).startswith("A2[1,3] deviates from skew-symmetry by ")
    assert str(exc.value).endswith("(at $.payload.pencil)")


PROBES = [
    ("gauge", {"blocks": 5}, "$.payload.blocks"),
    ("conint", {"points": 5}, "$.payload.points"),
    ("pf-minor", {"i": [0]}, "$.payload.i"),
    ("pf-minor", {"i": -1}, "$.payload.i"),
    ("bridge", {"budget": [1]}, "$.payload.budget"),
    ("polar-cubic", {"quartic": {"degree": 4, "terms": 5}}, "$.payload.quartic.terms"),
    ("polar-cubic", {"quartic": {"degree": [4], "terms": []}}, "$.payload.quartic.degree"),
    ("verify-replay", {"records": [{"kind": "II", "gamma_after": _ONE}]},
     "$.payload.records[0]"),
    ("pf", {"pencil": {"d": [2]}}, "$.payload.pencil.d"),
    ("type2", {"rho": [True, False]}, "$.payload.rho"),
    ("polar-cubic", {"quartic": {"degree": 4, "terms": [{"exp": [True, 3, 0],
                                                         "coeff": [1.0, 0.0]}]}},
     "$.payload.quartic.terms[0]"),
]


@pytest.mark.parametrize("kind,edit,path", PROBES)
def test_cli_malformed_payload_exits_2(kind, edit, path, pencil_doc):
    # an edit to the pencil is merged into a valid one
    payload = {**_payload(kind, pencil_doc[1]), **edit}
    if "pencil" in edit:
        payload["pencil"] = {**pencil_doc[1], **edit["pencil"]}
    p = run_cli(["run", "-"], {"kind": kind, "payload": payload})
    assert p.returncode == 2, p.stderr
    assert p.stderr.startswith("pfaffrep: schema error: ") and path in p.stderr
    assert not p.stdout


# M1 = [[0, 1], [0, 0]] deviates from symmetry by 1, at a scale of 1
_ASYMMETRIC_REP = {"M0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                   "M1": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                   "M2": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}


@pytest.mark.parametrize("kind,edit,path", [
    ("related", {"rep": _ASYMMETRIC_REP}, "$.payload.rep"),
    ("identify-theta", {"candidates": [_REP, _ASYMMETRIC_REP]}, "$.payload.candidates[1]"),
])
def test_cli_asymmetric_representation_exits_2(kind, edit, path, pencil_doc):
    payload = {**_payload(kind, pencil_doc[1]), **edit}
    p = run_cli(["run", "-"], {"kind": kind, "payload": payload})
    assert p.returncode == 2, p.stderr
    assert p.stderr.startswith("pfaffrep: schema error: M1 is not symmetric (deviation 1)")
    assert p.stderr.rstrip().endswith(f"(at {path})")
    assert not p.stdout


def test_cli_batch_keeps_good_reports_around_a_malformed_payload(pencil_doc):
    _, doc = pencil_doc
    good = [{"kind": "pf", "payload": {"pencil": doc}, "seed": 7},
            {"kind": "canon", "payload": {"pencil": doc}, "seed": 9}]
    bad = {"kind": "gauge", "payload": {**_payload("gauge", doc), "blocks": 5}}
    p = run_cli(["batch", "-", "--format", "json"], [good[0], bad, good[1]])
    assert p.returncode == 2
    reports = json.loads(p.stdout)
    for g, rep in zip(good, (reports[0], reports[2])):
        alone = {k: v for k, v in dispatch(parse_problem(g)).items() if not k.startswith("_")}
        assert rep == json.loads(json.dumps(alone))
    assert reports[1]["error"]["type"] == "SchemaError"
    assert reports[1]["error"]["message"].endswith("(at $[1].payload.blocks)")


def test_dispatch_looks_up_decoders_and_layers_at_call_time(monkeypatch, rng):
    import pfaffrep.jsonio
    import pfaffrep.transforms
    from pfaffrep import classify_pair
    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    P = random_pencil(rng, 4)
    pts = sample_curve_points(P.pfaffian(), 2, seed=11)
    pc = classify_pair(P, pts[0].pt, pts[1].pt)
    counting(pfaffrep.jsonio, "dec_pencil")
    counting(pfaffrep.transforms, "type1")
    report = dispatch(parse_problem({"kind": "type1", "payload": {
        "pencil": io.enc_pencil(P), "lambda": io.enc_point(pts[0].pt),
        "mu": io.enc_point(pts[1].pt), "v": io.enc_vector(pc.basis_lambda.v1),
        "u": io.enc_vector(pc.basis_mu.v1)}}))
    assert report["residuals"]["pf_invariance"]["ok"]
    assert calls == ["dec_pencil", "type1"]
