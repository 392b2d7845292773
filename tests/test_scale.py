"""Scale covariance: no answer depends on the overall scale of the pencil or
of the curve, and the dense polynomial operations agree with evaluation.

The two group actions on a pencil are covariant too.  A change of
coordinates ``g`` in GL3 gives the pencil ``P(g x)``, whose stack is ``g^t``
applied to ``P``'s: its pfaffian is ``F(g x)`` and its kernel at ``p`` is
``P``'s kernel at ``g p``.  Under a congruence ``X A X^t`` the pfaffian
scales by ``det X``, kernels map by ``X^-t`` and a pair's kind stays."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfaffrep import (DetRep, HomPoly, PreconditionError, ProjPoint, SchemaError,
                      SingularTransform, SkewPencil, SkewSymmetryViolation, SymDetRep,
                      classify_pair, congruence, curve_point, decomposable_from, kernel_at,
                      partner_points, pfaffian_adjoint_at, pfaffian_minor, pfaffian_numeric,
                      polar_triangle,
                      sample_curve_points, to_canonical, type2, verify_replay)
from pfaffrep import jsonio as io
from pfaffrep.cli import _exit_code_for, dispatch, parse_problem
from conftest import random_pencil, random_skew


def _scaled(P, c):
    return SkewPencil(c * P.A0, c * P.A1, c * P.A2)


def _rel_dev(p, q):
    """Largest coefficient of ``p - q`` relative to the largest of ``q``."""
    return float(np.max(np.abs(p.c - q.c)) / np.max(np.abs(q.c)))


def _cnormal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 4), log_c=st.floats(-6, 6))
def test_answers_are_scale_covariant(seed, d, log_c):
    rng = np.random.default_rng(seed)
    c = 10.0 ** log_c
    P = random_pencil(rng, 2 * d)
    Q = _scaled(P, c)
    assert _rel_dev(Q.pfaffian(), P.pfaffian().scaled(c ** d)) <= 1e-12
    i, j = (int(k) for k in rng.choice(2 * d, size=2, replace=False))
    assert _rel_dev(pfaffian_minor(Q, i, j), pfaffian_minor(P, i, j).scaled(c ** (d - 1))) <= 1e-12
    assert to_canonical(Q).residual <= 1e-6
    lam, mu = (cp.pt for cp in sample_curve_points(P.pfaffian(), 2, seed=seed % 997))
    assert classify_pair(Q, lam, mu).kind == classify_pair(P, lam, mu).kind


def _value_and_bound(p, x):
    """``p(x)`` summed over ``p.terms``, and the same sum of moduli."""
    parts = [v * x[0] ** a * x[1] ** b * x[2] ** e for (a, b, e), v in p.terms.items()]
    return sum(parts), sum(abs(t) for t in parts)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), dp=st.integers(0, 5), dq=st.integers(0, 5))
def test_dense_operations_match_point_evaluation(seed, dp, dq):
    rng = np.random.default_rng(seed)
    # entries off the triangle i + j <= d are ignored
    p = HomPoly.from_array(_cnormal(rng, (dp + 1, dp + 1)))
    q = HomPoly.from_array(_cnormal(rng, (dq + 1, dq + 1)))
    assert len(p.terms) == (dp + 1) * (dp + 2) // 2
    x, base, direction = (_cnormal(rng, 3) for _ in range(3))
    (px, pb), (qx, qb) = _value_and_bound(p, x), _value_and_bound(q, x)
    pq, pq_bound = _value_and_bound(p * q, x)
    assert abs(pq - px * qx) <= 1e-12 * pb * qb
    assert abs(p(x) - px) <= 1e-12 * pb
    line = p.restrict_line(base, direction)
    for t in (0.3, -1.2 + 0.5j, 2.0):
        value, bound = _value_and_bound(p, base + t * direction)
        assert abs(np.polyval(line[::-1], t) - value) <= 1e-11 * bound
        value, bound = _value_and_bound(p, np.array([0, t, 1]))
        on_x0 = p.restrict_line([0, 0, 1], [0, 1, 0])
        assert abs(np.polyval(on_x0[::-1], t) - value) <= 1e-12 * max(bound, 1)


def _projector(vectors):
    """Orthogonal projector onto the column span of ``vectors``."""
    q, _ = np.linalg.qr(vectors)
    return q @ q.conj().T


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 4))
def test_plane_change_substitutes_into_the_pfaffian_and_kernels(seed, d):
    rng = np.random.default_rng(seed)
    P = random_pencil(rng, 2 * d)
    g = _cnormal(rng, (3, 3))
    Q = SkewPencil(*np.tensordot(g, P.coeffs, axes=(0, 0)))
    F, G = P.pfaffian(), Q.pfaffian()
    for _ in range(4):
        x = _cnormal(rng, 3)
        (gx_val, gx_bound), (x_val, x_bound) = _value_and_bound(F, g @ x), _value_and_bound(G, x)
        assert abs(x_val - gx_val) <= 1e-12 * max(gx_bound, x_bound)
    p = sample_curve_points(G, 1, seed=seed % 997)[0].pt
    here = kernel_at(Q, p).vectors
    there = kernel_at(P, ProjPoint(*(g @ p.coords))).vectors
    assert np.max(np.abs(_projector(here) - _projector(there))) <= 1e-10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 4))
def test_congruence_scales_the_pfaffian_and_moves_kernels(seed, d):
    rng = np.random.default_rng(seed)
    P = random_pencil(rng, 2 * d)
    X = _cnormal(rng, (2 * d, 2 * d))
    Q = congruence(P, X)
    expected = P.pfaffian().scaled(np.linalg.det(X))
    dev = np.max(np.abs(Q.pfaffian().c - expected.c)) / np.max(np.abs(expected.c))
    assert dev <= 1e-11
    lam, mu = (cp.pt for cp in sample_curve_points(P.pfaffian(), 2, seed=seed % 997))
    moved = np.linalg.solve(X.T, kernel_at(P, lam).vectors)
    assert np.max(np.abs(_projector(moved) - _projector(kernel_at(Q, lam).vectors))) <= 1e-10
    assert classify_pair(Q, lam, mu).kind == classify_pair(P, lam, mu).kind


def _run(kind, **payload) -> dict:
    """The outputs of one CLI problem, which must exit 0."""
    report = dispatch(parse_problem({"kind": kind, "payload": payload}))
    assert _exit_code_for(report) == 0, (kind, report["residuals"])
    return report["outputs"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(0, 2), u=st.floats(-6, 6))
def test_commands_survive_a_diagonal_change_of_coordinates(seed, k, u):
    """``x = D y`` with ``D = diag(c)``, ``c_k = 10^u`` and the other two 1, sends
    ``A_k`` to ``c_k A_k`` and a point ``p`` to ``D^-1 p``; no answer may depend
    on it beyond that: ``partners`` must find the planted ``mu`` at ``D^-1 mu``.
    ``structure`` needs ``A1`` in its canonical shape, so it is checked off axis 1."""
    rng = np.random.default_rng(seed)
    c = np.ones(3)
    c[k] = 10.0 ** u
    P = random_pencil(rng, 8)
    Q = SkewPencil(*(c[:, None, None] * P.coeffs))
    pen = io.enc_pencil(Q)
    F = P.pfaffian()
    i, j = np.indices(F.c.shape)  # F.c[i, j] multiplies x0^(4-i-j) x1^i x2^j
    expected = HomPoly.from_array(F.c * c[0] ** np.maximum(4 - i - j, 0) * c[1] ** i * c[2] ** j)
    # the report leaves out terms at or below zero_tol = 1e-9 of the largest
    assert _rel_dev(io.dec_poly(_run("pf", pencil=pen)["pfaffian"]), expected) <= 1e-9
    lam, mu = (cp.pt for cp in sample_curve_points(F, 2, seed=seed % 997))
    kernel = _run("kernel", pencil=pen, point=io.enc_vector(lam.coords / c))["kernel"]["vectors"]
    there = kernel_at(P, lam).vectors
    assert np.max(np.abs(_projector(io.dec_matrix(kernel).T) - _projector(there))) <= 1e-8
    v, u = there[:, 0], kernel_at(P, mu).v1
    points = _run("partners", pencil=pen, v=io.enc_vector(v), u=io.enc_vector(u),
                  **{"lambda": io.enc_vector(lam.coords / c)})["points"]
    assert [ProjPoint(*(c * io.dec_point(q).coords)).close_to(mu) for q in points] == [True]
    roots = io.dec_vector(_run("canon", pencil=pen)["report"]["roots"])
    assert np.allclose(roots, c[2] / c[1] * np.array(to_canonical(P).roots),
                       rtol=1e-6, atol=1e-6 * np.max(np.abs(roots)))
    off = _cnormal(rng, 3)
    adj = io.dec_matrix(_run("adjoint", pencil=pen, point=io.enc_vector(off / c))["adjoint"])
    want = pfaffian_adjoint_at(P, off)
    assert np.max(np.abs(adj - want)) <= 1e-8 * np.max(np.abs(want))
    if k == 1:
        return
    Z, I, D = np.zeros((4, 4)), np.eye(4), np.diag(_cnormal(rng, 4))
    C, G = _cnormal(rng, (4, 4)), random_skew(rng, 8)
    for A0, decomposable in ((np.block([[Z, C], [-C.T, Z]]), True), (G, False)):
        R = SkewPencil(c[0] * A0, np.block([[Z, I], [-I, Z]]), c[2] * np.block([[Z, -D], [D, Z]]))
        report = _run("structure", pencil=io.enc_pencil(R))["report"]
        assert report["is_decomposable_form"] is decomposable


def test_zero_is_decided_relative_to_the_largest_coefficient():
    p = HomPoly(2, {(2, 0, 0): 1e-12, (0, 2, 0): 1e-25})
    assert p.terms == {(2, 0, 0): 1e-12}
    assert not HomPoly(2, {(1, 1, 0): 1e-300}).is_zero()
    assert HomPoly.zero(2).is_zero() and (p - p).is_zero()


@pytest.fixture(scope="module")
def planted():
    """A d = 4 pencil, two of its curve points with a kernel vector at each,
    and a point off the curve."""
    rng = np.random.default_rng(2024)
    P = random_pencil(rng, 8)
    lam, mu = (cp.pt for cp in sample_curve_points(P.pfaffian(), 2, seed=5))
    off = ProjPoint(*_cnormal(rng, 3))
    return P, lam, mu, kernel_at(P, lam).v1, kernel_at(P, mu).v1, off


@pytest.mark.parametrize("scale", [1e-4, 1e4])
def test_commands_exit_zero_at_extreme_scales(planted, scale):
    P, lam, mu, v, u, off = planted
    pen = io.enc_pencil(_scaled(P, scale))
    payloads = {"pf": {"pencil": pen},
                "pf-minor": {"pencil": pen, "i": 1, "j": 6},
                "adjoint": {"pencil": pen, "point": io.enc_point(off)},
                "canon": {"pencil": pen},
                "partners": {"pencil": pen, "lambda": io.enc_point(lam),
                             "v": io.enc_vector(v), "u": io.enc_vector(u)}}
    reports = {kind: dispatch(parse_problem({"kind": kind, "payload": payload}))
               for kind, payload in payloads.items()}
    for kind, report in reports.items():
        assert _exit_code_for(report) == 0, (kind, report["residuals"])
    pf = io.dec_poly(reports["pf"]["outputs"]["pfaffian"])
    assert _rel_dev(pf, P.pfaffian().scaled(scale ** 4)) <= 1e-12
    minor = io.dec_poly(reports["pf-minor"]["outputs"]["minor"])
    assert _rel_dev(minor, pfaffian_minor(P, 1, 6).scaled(scale ** 3)) <= 1e-12
    points = [io.dec_point(p) for p in reports["partners"]["outputs"]["points"]]
    expected = [cp.pt for cp in partner_points(P, lam, v, u)]
    assert len(points) == len(expected) > 0
    assert all(any(p.close_to(q) for q in expected) for p in points)


def test_polar_triangle_ignores_the_scale_of_the_quartic(quartic_example, theta_lambda):
    tri = polar_triangle(quartic_example, theta_lambda)
    tiny = polar_triangle(quartic_example.scaled(1e-12), theta_lambda)
    assert tiny.residual <= 1e-6
    for v in tri.vertices:
        assert any(np.allclose(v.coords, w.coords, atol=1e-8) for w in tiny.vertices)


def test_congruence_decides_singularity_relative_to_scale(rng):
    P = random_pencil(rng, 8)
    # det = 1e-24, yet perfectly conditioned
    out = congruence(P, 1e-3 * np.eye(8))
    assert np.allclose(out.A0, 1e-6 * P.A0)
    X = np.eye(8)
    X[7] = X[6]
    with pytest.raises(SingularTransform):
        congruence(P, 1e6 * X)


def test_curve_residual_is_relative(rng):
    F = random_pencil(rng, 6).pfaffian()
    pt = sample_curve_points(F, 1, seed=4)[0].pt
    for c in (1e-8, 1.0, 1e8):
        assert curve_point(F.scaled(c), pt).curve_residual <= 1e-12


def test_projective_point_pivots_relative_to_its_largest_coordinate():
    assert np.allclose(ProjPoint(1e-10, 2e-10, 0).coords, [1, 2, 0])
    assert np.allclose(io.dec_point([[1e-10, 0.0], [2e-10, 0.0], [0.0, 0.0]]).coords, [1, 2, 0])
    with pytest.raises(ValueError):
        ProjPoint(0, 0, 0)


def test_decoded_polynomial_degree_is_bounded():
    with pytest.raises(SchemaError, match=r"\$\.degree"):
        io.dec_poly({"degree": io.MAX_POLY_DEGREE + 1, "terms": []})


def test_canonical_form_far_outside_the_unit_scale(rng):
    P = random_pencil(rng, 8)
    roots = to_canonical(P).roots
    for c in (1e-12, 1e12):
        rep = to_canonical(_scaled(P, c))
        assert rep.residual <= 1e-6 and np.allclose(rep.roots, roots)


def test_affine_chart_is_decided_relative_to_the_point():
    # pivoted on x1, the point reads (1e-4, 1, 1e8): x0 is 1e-12 of its size
    with pytest.raises(PreconditionError):
        ProjPoint(1e-12, 1e-8, 1).affine()
    assert ProjPoint(1e-6, 1, 1).affine() == (pytest.approx(1e6), pytest.approx(1e6))


def _line_report(P, lam, mu, v, u):
    payload = {"pencil": io.enc_pencil(P), "lambda": io.enc_point(lam),
               "mu": io.enc_point(mu), "v": io.enc_vector(v), "u": io.enc_vector(u)}
    return dispatch(parse_problem({"kind": "line", "payload": payload}))


@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
def test_line_command_decides_zero_relative_to_the_pencil(scale):
    P = _scaled(random_pencil(np.random.default_rng(7), 8), scale)
    lam, mu = (cp.pt for cp in sample_curve_points(P.pfaffian(), 2, seed=1))
    report = _line_report(P, lam, mu, kernel_at(P, lam).v1, kernel_at(P, mu).v1)
    assert report["outputs"]["is_zero"] is False
    assert set(report["residuals"]) == {"vanishing_at_lambda", "vanishing_at_mu"}
    assert _exit_code_for(report) == 0


@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
def test_line_command_finds_the_zero_form_at_any_scale(scale):
    # same-block kernel vectors of a decomposable pencil pair to the zero form,
    # also after a congruence X A X^t, which carries a kernel vector v to X^-t v
    rng = np.random.default_rng(11)
    M = DetRep(*(scale * _cnormal(rng, (3, 3)) for _ in range(3)))
    X = _cnormal(rng, (6, 6))
    P = congruence(decomposable_from(M), X)
    lam, mu = (cp.pt for cp in sample_curve_points(P.pfaffian(), 2, seed=3))
    v, u = (np.linalg.solve(X.T, np.concatenate([np.linalg.svd(M(pt).T)[2][-1].conj(),
                                                 np.zeros(3)]))
            for pt in (lam, mu))
    report = _line_report(P, lam, mu, v, u)
    assert report["outputs"]["is_zero"] is True
    assert report["residuals"] == {}


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_skew_and_symmetry_checks_are_relative_to_the_scale(scale):
    rng = np.random.default_rng(13)
    N = [scale * rng.standard_normal((4, 4)) for _ in range(3)]
    skew = [m - m.T for m in N]
    sym = [m + m.T for m in N]
    # a deviation far below zero_tol times the largest entry passes
    E = np.zeros((4, 4))
    E[0, 1] = 1e-3 * 1e-9 * scale
    SkewPencil(skew[0] + E, skew[1], skew[2])
    pfaffian_numeric(skew[0] + E)
    SymDetRep(sym[0] + E, sym[1], sym[2])
    with pytest.raises(SkewSymmetryViolation):
        SkewPencil(*N)
    with pytest.raises(SkewSymmetryViolation):
        pfaffian_numeric(N[0])
    with pytest.raises(ValueError, match="not symmetric"):
        SymDetRep(*N)


def test_replay_start_check_is_relative_to_the_pencil(rng):
    P, Q = (_scaled(random_pencil(rng, 6), 1e-8) for _ in range(2))
    pt = sample_curve_points(Q.pfaffian(), 1, seed=3)[0].pt
    _, rec = type2(Q, pt, kernel_at(Q, pt).v1, 0.5)
    assert max(verify_replay(Q, [rec])) <= 1e-7
    # a record taken from another pencil of the same (small) scale
    with pytest.raises(PreconditionError, match="does not start at this pencil"):
        verify_replay(P, [rec])
    proc = subprocess.run(
        [sys.executable, "-m", "pfaffrep.cli", "verify-replay", "-"], capture_output=True,
        text=True, input=json.dumps({"kind": "verify-replay", "payload": {
            "pencil": io.enc_pencil(P), "records": [io.enc_value(rec)]}}))
    assert proc.returncode == 4, proc.stdout


def _load_sweep(monkeypatch):
    """``tools/scale_sweep.py`` as a module; the path entries it adds are undone."""
    import importlib.util
    from pathlib import Path
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds bench/ and src/
    path = Path(__file__).resolve().parent.parent / "tools" / "scale_sweep.py"
    spec = importlib.util.spec_from_file_location("scale_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_the_scale_sweep_reads_no_failure(monkeypatch, capsys):
    """``tools/scale_sweep.py``, run in-process on seed 1 through ``cli.dispatch``,
    ``_failure``, ``_exit_code_for`` and ``_public``, fails no problem, and its
    per-coordinate sweep, the cli-small bridges included, fails none but by the
    refusals it names."""
    sweep = _load_sweep(monkeypatch)
    assert sweep.main(["--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "wide sweep, seeds [1]: 0 of 144 failed, 0 silent" in out
    assert "scale_probe, seeds [1]: 0 of 21 failed" in out
    assert "per-coordinate sweep, seeds [1]: 318 ok, 0 failed, 0 silent, 54 refused" in out
    assert "refused: bridge on axis 1 (exit 4): 40" in out


def test_the_scale_sweep_exits_1_on_a_failure_it_does_not_name(monkeypatch, capsys):
    """A failure or a silent failure makes ``tools/scale_sweep.py`` exit 1; a refusal
    the per-coordinate sweep names (``canon2`` on axis 1, exit 4) does not."""
    sweep = _load_sweep(monkeypatch)
    item = sweep.sweep(1)[0][2]
    monkeypatch.setattr(sweep.pr, "scale_probe", lambda seed: [])
    monkeypatch.setattr(sweep, "sweep", lambda seed: [])
    monkeypatch.setattr(sweep, "axis_sweep", lambda seed, cli: [("canon2", 1, 2, item)])
    monkeypatch.setattr(sweep, "run", lambda cli, errors, item: ("failed", "exit 4 (refused)"))
    assert sweep.main(["--seeds", "1"]) == 0
    for status in ("failed", "silent"):
        monkeypatch.setattr(sweep, "run", lambda cli, errors, item: (status, "exit 3 (x)"))
        assert sweep.main(["--seeds", "1"]) == 1
    monkeypatch.setattr(sweep, "axis_sweep", lambda seed, cli: [])
    monkeypatch.setattr(sweep, "sweep", lambda seed: [("canon", 0, item)])
    assert sweep.main(["--seeds", "1"]) == 1


def test_the_scale_sweep_fails_a_bridge_that_stops_converging(monkeypatch):
    """A cli-small bridge that converges at ``c = 1`` and not at ``c`` is a failure
    of the per-coordinate sweep, though its report passes the checker (exit 3)."""
    import pfaffrep.cli as cli
    from pfaffrep import errors
    sweep = _load_sweep(monkeypatch)
    item = next(it for kind, axis, e, it in sweep.axis_sweep(1, cli)
                if kind == "bridge" and axis == 0 and it["expect"]["converged"])
    assert sweep.run(cli, errors, item) == ("ok", "")
    pay = {**item["doc"]["payload"], "budget": 0}
    stalled = {**item, "doc": {**item["doc"], "payload": pay}}
    assert sweep.run(cli, errors, stalled) == ("failed", "exit 3 (residuals ['off_pattern_norm'])")
