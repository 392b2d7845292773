"""Independent checks of pfaffrep reports, with numpy only.

A problem passes when the program exited with the code the README's
table gives for it, printed a parseable report, every residual it
declares is ok, and the checks below hold.  The one expected nonzero
outcome is a bridge that did not converge: exit 3, a failing
``off_pattern_norm`` and a passing ``pf_invariance``.

The checks never call the program.  They compare determinants, which
``numpy.linalg.det`` computes independently of the symbolic pfaffian:
``Pf(x)^2 = det A(x)``, ``det(X A X^t) = det(X)^2 det A`` and, for every
transform, ``det A_new(x) = det A_old(x)`` at seeded points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

import problems as pr

# A relative deviation above this fails the independent check.
CHECK_TOL = 1e-6
# Floor for the deviation, so a perfect check reads as 16 digits.
_DEV_FLOOR = 1e-16

_RNG = np.random.default_rng(20091)
CHECK_POINTS = [np.array([1.0, *(_RNG.standard_normal(2) + 1j * _RNG.standard_normal(2))])
                for _ in range(3)]


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    devs: list = field(default_factory=list)
    converged: bool | None = None
    steps: int | None = None
    label: str | None = None  # the reported pair kind, for classify-pair


def at(A, x) -> np.ndarray:
    return x[0] * A[0] + x[1] * A[1] + x[2] * A[2]


def rel(a, b) -> float:
    return float(abs(a - b) / max(abs(b), 1e-300))


def det_invariance(A_old, A_new) -> float:
    return max(rel(np.linalg.det(at(A_new, x)), np.linalg.det(at(A_old, x)))
               for x in CHECK_POINTS)


def mat_dev(X, Y) -> float:
    return float(np.max(np.abs(X - Y)) / max(float(np.max(np.abs(Y))), 1e-300))


def proportional(vals, ref) -> float:
    """Deviation of ``vals`` from a constant multiple of ``ref``."""
    vals, ref = np.asarray(vals, dtype=complex), np.asarray(ref, dtype=complex)
    k = int(np.argmax(np.abs(ref)))
    c = vals[k] / ref[k]
    return float(np.max(np.abs(vals - c * ref)) / max(float(np.max(np.abs(vals))), 1e-300))


def expected_exit(doc: dict, outcome: Outcome) -> int:
    """0, or 3 for a bridge that did not converge (an outcome, not a failure)."""
    return 3 if doc["kind"] == "bridge" and outcome.converged is False else 0


def _linear_values(form, xs) -> list:
    c = pr.dec_v(form)
    return [complex(c @ x) for x in xs]


def independent(doc: dict, expect: dict, out: dict) -> list[float]:
    """Relative deviations found by the independent checks for one report."""
    kind, pay = doc["kind"], doc["payload"]
    A = pr.dec_pencil(pay["pencil"]) if "pencil" in pay else None
    if kind == "pf":
        pf = pr.dec_poly(out["pfaffian"])
        return [max(rel(pr.poly_eval(pf, x) ** 2, np.linalg.det(at(A, x))) for x in CHECK_POINTS)]
    if kind == "pf-minor":
        keep = [k for k in range(A[0].shape[0]) if k not in (pay["i"], pay["j"])]
        m = pr.dec_poly(out["minor"])
        return [max(rel(pr.poly_eval(m, x) ** 2, np.linalg.det(at(A, x)[np.ix_(keep, keep)]))
                    for x in CHECK_POINTS)]
    if kind == "adjoint":
        M = at(A, pr.dec_v(pay["point"]))
        adj = pr.dec_m(out["adjoint"])
        prod = adj @ M
        c = np.trace(prod) / len(prod)
        return [mat_dev(prod, c * np.eye(len(prod))), rel(c * c, np.linalg.det(M))]
    if kind in ("kernel", "tangent"):
        x = pr.dec_v(pay["point"])
        M = at(A, x)
        if kind == "tangent":
            ell = pr.dec_v(out["line"])
            return [abs(ell @ x) / (np.linalg.norm(ell) * np.linalg.norm(x))]
        V = np.array([pr.dec_v(v) for v in out["kernel"]["vectors"]]).T
        sv = np.linalg.svd(V, compute_uv=False)
        return [float(np.linalg.norm(M @ V, 2) / (np.linalg.norm(M, 2) * sv[0])),
                float(1.0 - sv[-1] / sv[0])]
    if kind == "canon":
        rep = out["report"]
        B = pr.dec_m(rep["basis_change"])
        C = pr.dec_pencil(rep["pencil"])
        d = len(B) // 2
        J = np.array([[0, 1], [-1, 0]])
        A2 = np.zeros_like(B)
        for i, p in enumerate(pr.dec_v(rep["roots"])):
            A2[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = -p * J
        dB = np.linalg.det(B)
        return [max(mat_dev(B @ A[k] @ B.T, C[k]) for k in range(3)),
                mat_dev(C[1], np.kron(np.eye(d), J)), mat_dev(C[2], A2),
                max(rel(np.linalg.det(at(C, x)), dB * dB * np.linalg.det(at(A, x)))
                    for x in CHECK_POINTS)]
    if kind == "canon2":
        C = pr.dec_pencil(out["pencil"])
        d = len(C[0]) // 2
        Q = np.zeros((2 * d, 2 * d))
        for i in range(d):
            Q[i, 2 * i], Q[i, 2 * i + 1], Q[d + i, 2 * i + 1] = 1.0, -1.0, 1.0
        dq = np.linalg.det(Q)
        return [max(mat_dev(Q @ A[k] @ Q.T, C[k]) for k in range(3)),
                rel(out["det_q"], dq),
                max(rel(np.linalg.det(at(C, x)), dq * dq * np.linalg.det(at(A, x)))
                    for x in CHECK_POINTS)]
    if kind == "structure":
        d = A[0].shape[0] // 2
        rep = out["report"]
        ok = (rep["is_decomposable_form"] == expect["decomposable"]
              and not rep["is_symmetric_blocks"]
              and rep["free_parameter_count"] == 3 * d * (d - 3) // 2)
        return [0.0 if ok else 1.0]
    if kind == "classify-pair":
        # generic planted points form an admissible pair
        return [0.0 if out["classification"]["kind"] == "admissible" else 1.0]
    if kind == "k-const":
        return [rel(pr.dec_c(out["k"]), pr.dec_c(expect["k"]))]
    if kind == "partners":
        u = pr.dec_v(pay["u"])
        devs = [0.0]
        for p in out["points"]:
            M = at(A, pr.dec_v(p))
            sv = np.linalg.svd(M, compute_uv=False)
            devs += [float(sv[-2] / sv[0]),
                     float(np.linalg.norm(M @ u) / (sv[0] * np.linalg.norm(u)))]
        return devs
    if kind in ("type1", "type2", "conint", "bridge"):
        C = pr.dec_pencil(out["pencil"])
        devs = [mat_dev(C[1], A[1]), mat_dev(C[2], A[2]), det_invariance(A, C)]
        if kind == "bridge":
            # the reported off-pattern norm, recomputed from the reported pencil
            d = len(C[0]) // 2
            off = np.hypot(np.linalg.norm(C[0][:d, :d]), np.linalg.norm(C[0][d:, d:]))
            devs.append(rel(off, out["off_pattern_norm"]) if off > 0 else
                        float(out["off_pattern_norm"] != 0))
        return devs
    if kind == "verify-replay":
        # the replayed steps preserve det A(x) by construction, so every
        # reported step deviation must be small
        steps = out["step_residuals"]
        return [float(max(steps)) if len(steps) == len(pay["records"]) else 1.0]
    if kind == "bundle-check":
        return []
    if kind == "polar-cubic":
        want = pr.polar_coeffs(pr.dec_poly(pay["quartic"]))
        got = np.array([pr.dec_v(out["coeffs"][n]) for n in pr.CUBIC_MONOMIALS])
        ref = np.array([pr.dec_v(want[n]) for n in pr.CUBIC_MONOMIALS])
        return [mat_dev(got, ref)]
    if kind == "aronhold":
        if expect.get("three_cubes"):
            return [abs(pr.dec_c(out["pfaffian"])) / expect["coeff_scale"] ** 4]
        if expect.get("scorza"):
            got, want = pr.dec_poly(out["pfaffian"]), pr.dec_poly(expect["scorza"])
            exps = sorted(set(got) | set(want))
            return [proportional([got.get(e, 0) for e in exps], [want.get(e, 0) for e in exps])]
        return []
    if kind == "integrate-polar":
        got, want = pr.dec_poly(out["quartic"]), pr.dec_poly(expect["quartic"])
        exps = sorted(set(got) | set(want))
        return [mat_dev(np.array([got.get(e, 0) for e in exps]),
                        np.array([want.get(e, 0) for e in exps]))]
    if kind == "triangle":
        F = pr.dec_poly(pay["quartic"])
        pole = pr.dec_v(pay["point"])
        grads = [pr.partial(F, k) for k in range(3)]
        polar = [sum(pole[k] * pr.poly_eval(grads[k], x) for k in range(3)) for x in CHECK_POINTS]
        cubes = np.sum([np.array(_linear_values(g, CHECK_POINTS)) ** 3
                        for g in out["triangle"]["lines"]], axis=0)
        return [proportional(cubes, polar)]
    if kind == "factor-lines":
        cubic = pr.dec_poly(pay["cubic"])
        prod = np.prod([np.array(_linear_values(g, CHECK_POINTS)) for g in out["lines"]], axis=0)
        return [proportional(prod, [pr.poly_eval(cubic, x) for x in CHECK_POINTS])]
    if kind == "identify-theta":
        return [0.0 if out["identification"]["index"] == expect["index"] else 1.0]
    if kind == "bitangent":
        return [proportional(pr.dec_v(out["line"]), pr.dec_v(expect["line"]))]
    return []


def check_report(doc: dict, expect: dict, report: dict) -> Outcome:
    kind = doc["kind"]
    try:
        out = report["outputs"]
        converged = out["converged"] if kind == "bridge" else None
        bad = [name for name, r in report["residuals"].items()
               if not r["ok"] and not (kind == "bridge" and name == "off_pattern_norm"
                                       and not converged)]
        devs = [max(float(x), _DEV_FLOOR) for x in independent(doc, expect, out)]
        steps = len(out["records"]) if kind == "bridge" else None
        label = out["classification"]["kind"] if kind == "classify-pair" else None
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return Outcome(False, f"{kind}: malformed report ({type(exc).__name__}: {exc})")
    worst = max(devs, default=0.0)
    reason = ""
    if bad:
        reason = f"{kind}: residuals {bad} not ok"
    elif worst > CHECK_TOL:
        reason = f"{kind}: independent check off by {worst:.3g}"
    return Outcome(not reason, reason, devs, converged, steps, label)


def check(item: dict, exit_code: int, stdout: str) -> Outcome:
    """Check one problem run as its own CLI process."""
    doc = item["doc"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return Outcome(False, f"{doc['kind']}: exit {exit_code}, no parseable report")
    res = check_report(doc, item["expect"], report)
    want = expected_exit(doc, res)
    if exit_code != want:
        res.ok = False
        res.reason = res.reason or f"{doc['kind']}: exit {exit_code}, expected {want}"
    return res


def _residual_fails(report) -> bool:
    try:
        return any(not r["ok"] for r in report["residuals"].values())
    except (KeyError, TypeError, AttributeError):
        return True


def check_batch(items: list, exit_code: int, stdout: str) -> list[Outcome]:
    """Check a ``batch`` run; a batch that printed no report loses every problem."""
    try:
        reports = json.loads(stdout)
        if not isinstance(reports, list) or len(reports) != len(items):
            raise ValueError("report count")
    except ValueError:
        return [Outcome(False, f"batch: exit {exit_code}, no parseable report") for _ in items]
    outs = [check_report(it["doc"], it["expect"], r) for it, r in zip(items, reports)]
    # the batch exits 3 when any residual fails; those problems fail already
    want = 3 if any(_residual_fails(r) for r in reports) else 0
    if exit_code != want:
        for o in outs:
            o.ok = False
            o.reason = o.reason or f"batch: exit {exit_code}, expected {want}"
    return outs
