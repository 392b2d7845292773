"""Command-line front end.

One command per library operation, plus ``run`` (kind taken from the
file) and ``batch``; every command reads a JSON problem document (file
argument or stdin), dispatches to the library, and emits either a
human-readable report or a deterministic JSON run report.  A handler
returns library values and ``dispatch`` encodes them once, with
``jsonio.enc_value``, so a record's fields are its keys in the report.
Commands that transform a pencil always append a pfaffian-invariance
residual.
``batch`` runs a JSON array of problems in input order; a problem that
fails gets an error entry in its slot instead of a report.

``COMMANDS`` maps each kind to its handler and its payload fields, which
``jsonio.dec_fields`` decodes into the handler's arguments, so a missing
or wrong-typed field is a :class:`SchemaError` at ``$.payload.<name>``
before any handler runs.

Only numpy and the core modules are imported here; each handler imports
the library functions it calls, so a process loads only what its
command uses.  Run as a process (``python -m pfaffrep.cli`` or the
``pfaffrep`` script, which both run this module as ``__main__``), the
module keeps the garbage collector off its start-up heap: paused while it
imports, frozen before the problem runs and again before the interpreter
finalizes.  Such a process also asks OpenBLAS for one thread, since its
small pencils never reach OpenBLAS's threading thresholds, unless the
caller set ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS``.  Imported as a library, the module leaves the
caller's collector and environment alone.

Exit codes: 0 all residuals within their declared tolerances, 1 usage,
2 schema, 3 numerical failure, 4 violated precondition.  A batch exits
with the highest code of its problems.
"""

from __future__ import annotations

import gc
import os

if __name__ == "__main__":
    # A CLI process: no collector passes while numpy and the core modules
    # load, and no idle OpenBLAS workers, which are started when numpy loads.
    gc.disable()
    if os.environ.keys().isdisjoint(
            ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import sys
import time

try:  # CPython's builtin sha256, as random.py does for sha512: hashlib loads OpenSSL
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # up to 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import jsonio as io
from .errors import NumericalError, PfaffrepError, PreconditionError, SchemaError
from .pencil import kernel_at, pfaffian_adjoint_at, pfaffian_minor
from .poly import equal_up_to_scale, relative_deviation
from .tolerances import BUNDLE_TOL, DEFAULT_POLICY, PF_TOL, TRANSPORT_ANGLE_TOL, TolerancePolicy

_EXIT_USAGE, _EXIT_SCHEMA, _EXIT_NUMERICAL, _EXIT_PRECONDITION = 1, 2, 3, 4


def _residual(value: float, tol: float) -> dict:
    value = float(value)
    return {"value": value, "tolerance": tol, "ok": bool(value <= tol)}


def _pf_invariance(P_before, P_after) -> dict:
    return _residual(relative_deviation(P_before.pfaffian(), P_after.pfaffian()), PF_TOL)


def _pf_scaling(P, out, det, policy) -> dict:
    """The residual of ``Pf(out) = det * Pf(P)``, relative to ``|det|``."""
    scale = equal_up_to_scale(P.pfaffian(), out.pfaffian(), policy)
    dev = abs(scale - det) / max(abs(det), 1e-300) if scale is not None else float("inf")
    return _residual(dev, policy.match_tol)


def _vanishing(ell, pt, policy) -> dict:
    """The residual of ``ell(pt) = 0``, relative to the largest coefficient of ``ell``."""
    return _residual(abs(ell(pt)) / max(float(np.max(np.abs(ell.coeffs))), 1e-300),
                     policy.match_tol)


def _transformed(P, out, rec=None) -> tuple[dict, dict]:
    """Outputs and residuals of a command that maps pencil ``P`` to ``out``."""
    outputs = {"pencil": out} if rec is None else {"pencil": out, "record": rec}
    return outputs, {"pf_invariance": _pf_invariance(P, out)}


# -- handlers -------------------------------------------------------------------
# Each handler: (policy, seed, *decoded payload fields) -> (outputs, residuals).
# Outputs are library values, a record or a dict of them; ``dispatch``
# encodes them with ``jsonio.enc_value``, so a record's fields are its keys.

def _h_pf(policy, seed, P):
    return {"pfaffian": P.pfaffian()}, {}


def _h_pf_minor(policy, seed, P, i, j):
    for name, k in (("i", i), ("j", j)):
        if k >= P.dim:
            raise SchemaError(f"index {k} out of range for dimension {P.dim}", "$.payload." + name)
    if i == j:
        raise SchemaError("minor indices must differ", "$.payload.j")
    return {"minor": pfaffian_minor(P, i, j)}, {}


def _h_adjoint(policy, seed, P, pt):
    adj = pfaffian_adjoint_at(P, pt)
    A = P(pt)
    dev = np.max(np.abs(adj @ A - P.pfaffian()(pt) * np.eye(P.dim)))
    scale = max(np.max(np.abs(adj)) * np.max(np.abs(A)), 1e-300)
    return ({"adjoint": adj},
            {"adjoint_identity": _residual(dev / scale, policy.match_tol)})


def _h_kernel(policy, seed, P, pt):
    kb = kernel_at(P, pt, policy)
    kernel = {"point": kb.point, "vectors": kb.vectors.T, "residual": kb.residual}
    return {"kernel": kernel}, {"kernel_residual": _residual(kb.residual, policy.rank_tol)}


def _h_canon(policy, seed, P):
    from .canonical import to_canonical
    rep = to_canonical(P, policy)
    return ({"report": rep},
            {"block_residual": _residual(rep.residual, policy.match_tol),
             "pf_scaling": _pf_scaling(P, rep.pencil, np.linalg.det(rep.basis_change), policy)})


def _h_canon2(policy, seed, P):
    from .canonical import second_canonical_transform, to_second_canonical
    out = to_second_canonical(P, policy)
    detq = float(np.linalg.det(second_canonical_transform(P.half_deg)).real)
    return {"pencil": out, "det_q": detq}, {"pf_scaling": _pf_scaling(P, out, detq, policy)}


def _h_gauge(policy, seed, P, blocks):
    from .canonical import gauge_action
    return _transformed(P, gauge_action(P, blocks, policy))


def _h_structure(policy, seed, P):
    from .canonical import structure_report
    return {"report": structure_report(P, policy)}, {}


def _h_tangent(policy, seed, P, pt):
    from .incidence import tangent_line
    ell = tangent_line(P, pt, policy)
    return {"line": ell}, {"vanishing_at_point": _vanishing(ell, pt, policy)}


def _h_line(policy, seed, P, lam, mu, v, u):
    from .incidence import line_through
    ell = line_through(P, lam, v, mu, u, policy)
    # a genuine u^t A(x) v has coefficients of the size |A| |u| |v|
    is_zero = ell.is_zero(P.scale() * np.linalg.norm(u) * np.linalg.norm(v), policy)
    residuals = {} if is_zero else {"vanishing_at_lambda": _vanishing(ell, lam, policy),
                                    "vanishing_at_mu": _vanishing(ell, mu, policy)}
    return {"line": ell, "is_zero": is_zero}, residuals


def _h_classify_pair(policy, seed, P, lam, mu):
    from .incidence import classify_pair
    pc = classify_pair(P, lam, mu, policy=policy)
    return {"classification": {"kind": pc.kind, "kappa": pc.kappa,
                               "special_vectors": pc.special_vectors}}, {}


def _h_k_const(policy, seed, P, lam, mu, v, u, t1, t2):
    from .incidence import k_constant
    K = k_constant(P, lam, v, mu, u, t1, t2, policy)
    K2 = k_constant(P, lam, v, mu, u, policy=policy, check_kernels=False)
    return ({"k": K},
            {"parameter_independence": _residual(abs(K - K2) / (1 + abs(K)), policy.rank_tol)})


def _h_partners(policy, seed, P, lam, v, u):
    from .incidence import partner_points
    pts = partner_points(P, lam, v, u, policy)
    worst = max((p.curve_residual for p in pts), default=0.0)
    return ({"points": [p.pt for p in pts]},
            {"curve_residual": _residual(worst, policy.match_tol)})


def _h_type1(policy, seed, P, lam, mu, v, u):
    from .transforms import type1
    return _transformed(P, *type1(P, lam, mu, v, u, policy=policy))


def _h_type2(policy, seed, P, lam, v, rho):
    from .transforms import type2
    return _transformed(P, *type2(P, lam, v, rho, policy=policy))


def _h_conint(policy, seed, P, pts, vecs, rhos):
    from .transforms import conint
    return _transformed(P, *conint(P, pts, vecs, rhos, policy=policy))


def _h_bundle_check(policy, seed, P, rec, samples, curve_samples):
    from .transforms import bundle_maps_check
    rep = bundle_maps_check(P, rec, samples, curve_samples, seed=seed, policy=policy)
    residuals = {"intertwining_identity": _residual(rep.identity_residual, BUNDLE_TOL),
                 "transport_angle": _residual(rep.transport_angle, TRANSPORT_ANGLE_TOL),
                 "parameter_independence": _residual(rep.parameter_independence, BUNDLE_TOL)}
    for name, val in rep.zero_patterns.items():
        residuals[f"zero[{name}]"] = _residual(val, BUNDLE_TOL)
    return {"report": rep}, residuals


def _h_bridge(policy, seed, P, budget):
    from .bridge import bridge_to_decomposable, stopping_target
    res = bridge_to_decomposable(P, budget=budget, seed=seed, policy=policy)
    target = stopping_target(P, policy)
    return res, {"off_pattern_norm": _residual(res.off_pattern_norm, target),
                 "pf_invariance": _pf_invariance(P, res.pencil)}


def _h_polar_cubic(policy, seed, F):
    from .quartic import polar_cubic
    return {"coeffs": polar_cubic(F)}, {}


def _h_aronhold(policy, seed, w):
    from .quartic import aronhold_invariant
    return {"pfaffian": aronhold_invariant(w)}, {}


def _h_scorza(policy, seed, F, expected):
    from .quartic import scorza_map
    S = scorza_map(F)
    outputs = {"scorza": S}
    residuals = {}
    if expected is not None:
        scale = equal_up_to_scale(S, expected, policy)
        if scale is not None:
            outputs["scale_vs_expected"] = scale
        residuals["match_up_to_scale"] = _residual(relative_deviation(expected, S, scale),
                                                   policy.match_tol)
    return outputs, residuals


def _h_integrate_polar(policy, seed, w):
    from .quartic import integrate_polar, polar_cubic
    F = integrate_polar(w, policy)
    back = polar_cubic(F)
    dev = float(np.max(np.abs(back.flatten() - w.flatten())))
    scale = max(float(np.max(np.abs(w.flatten()))), 1e-300)
    return ({"quartic": F},
            {"round_trip": _residual(dev / scale, policy.match_tol)})


def _h_triangle(policy, seed, F, pt):
    from .quartic import polar_triangle
    tri = polar_triangle(F, pt, seed=seed, policy=policy)
    return ({"triangle": tri},
            {"three_cube_residual": _residual(tri.residual, policy.match_tol)})


def _h_factor_lines(policy, seed, cubic):
    from .quartic import factor_three_lines
    lines = factor_three_lines(cubic, seed=seed, policy=policy)
    prod = lines[0].as_poly() * lines[1].as_poly() * lines[2].as_poly()
    dev = relative_deviation(cubic, prod, equal_up_to_scale(prod, cubic, policy))
    return ({"lines": lines},
            {"product_residual": _residual(dev, policy.match_tol)})


def _h_related(policy, seed, M, lam, mu):
    from .quartic import scorza_related
    rel = scorza_related(M, lam, mu, policy)
    # an unrelated pair has no pairing to hold to a tolerance, as a zero line has none
    residuals = {}
    if rel.related:
        residuals["pairing_residual"] = _residual(max(rel.residuals), policy.match_tol)
    return {"relation": rel}, residuals


def _h_identify_theta(policy, seed, quartic, coeffs, cands, samples):
    from .quartic import identify_theta
    source = quartic if quartic is not None else coeffs
    if source is None:
        raise SchemaError("need either 'quartic' or 'coeffs'", "$.payload")
    ident = identify_theta(source, cands, samples=samples, seed=seed, policy=policy)
    return {"identification": ident}, {}


def _h_bitangent(policy, seed, M, b_i, b_j):
    from .quartic import bitangent_from_octad
    ell = bitangent_from_octad(M, b_i, b_j, seed=seed, policy=policy)
    return {"line": ell}, {}


def _h_verify_replay(policy, seed, P, recs):
    from .transforms import verify_replay
    devs = verify_replay(P, recs, policy)
    return ({"step_residuals": devs},
            {"pf_invariance": _residual(max(devs, default=0.0), PF_TOL)})


# kind -> (handler, payload fields)
COMMANDS = {
    "pf": (_h_pf, "pencil"),
    "pf-minor": (_h_pf_minor, "pencil i:int j:int"),
    "adjoint": (_h_adjoint, "pencil point"),
    "kernel": (_h_kernel, "pencil point"),
    "canon": (_h_canon, "pencil"),
    "canon2": (_h_canon2, "pencil"),
    "gauge": (_h_gauge, "pencil blocks:matrix[]"),
    "structure": (_h_structure, "pencil"),
    "tangent": (_h_tangent, "pencil point"),
    "line": (_h_line, "pencil lambda:point mu:point v:vector u:vector"),
    "classify-pair": (_h_classify_pair, "pencil lambda:point mu:point"),
    "k-const": (_h_k_const,
                "pencil lambda:point mu:point v:vector u:vector t1:complex t2:complex"),
    "partners": (_h_partners, "pencil lambda:point v:vector u:vector"),
    "type1": (_h_type1, "pencil lambda:point mu:point v:vector u:vector"),
    "type2": (_h_type2, "pencil lambda:point v:vector rho:complex"),
    "conint": (_h_conint, "pencil points:point[] vectors:vector[] rhos:complex[]"),
    "bundle-check": (_h_bundle_check,
                     "pencil record samples:point[] curve_samples:point[]=[]"),
    "bridge": (_h_bridge, "pencil budget:int=50"),
    "polar-cubic": (_h_polar_cubic, "quartic:poly"),
    "aronhold": (_h_aronhold, "coeffs:cubic_coeffs"),
    "scorza": (_h_scorza, "quartic:poly expected:poly=null"),
    "integrate-polar": (_h_integrate_polar, "coeffs:cubic_coeffs"),
    "triangle": (_h_triangle, "quartic:poly point"),
    "factor-lines": (_h_factor_lines, "cubic:poly"),
    "related": (_h_related, "rep:detrep lambda:point mu:point"),
    "identify-theta": (_h_identify_theta, "quartic:poly=null coeffs:cubic_coeffs=null "
                                          "candidates:detrep[] samples:int=3"),
    "bitangent": (_h_bitangent, "rep:detrep b_i:vector b_j:vector"),
    "verify-replay": (_h_verify_replay, "pencil records:record[]"),
}


# -- problem files and dispatch ---------------------------------------------------

def _valid_kind(doc: dict) -> str | None:
    """The document's ``kind`` if it names a command."""
    kind = doc.get("kind")
    return kind if isinstance(kind, str) and kind in COMMANDS else None


def _valid_seed(doc: dict) -> int | None:
    """The document's ``seed``, 0 when absent, if it is a nonnegative integer."""
    seed = doc.get("seed", 0)
    return seed if io._is_int(seed) and seed >= 0 else None


def parse_problem(doc) -> dict:
    """Validate the envelope of a problem document."""
    if not isinstance(doc, dict):
        raise SchemaError("problem must be a JSON object", "$")
    kind = _valid_kind(doc)
    if kind is None:
        raise SchemaError(f"unknown kind {doc.get('kind')!r}; "
                          f"valid kinds: {', '.join(sorted(COMMANDS))}", "$.kind")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("payload must be a JSON object", "$.payload")
    tol = doc.get("tolerances", {})
    if not isinstance(tol, dict) or not set(tol) <= {"zero_tol", "rank_tol", "match_tol"}:
        raise SchemaError("tolerances may override zero_tol, rank_tol, match_tol",
                          "$.tolerances")
    for name, value in tol.items():
        if not io._is_number(value):
            raise SchemaError("expected a number", f"$.tolerances.{name}")
    seed = _valid_seed(doc)
    if seed is None:
        raise SchemaError("seed must be a nonnegative integer", "$.seed")
    return {"kind": kind, "payload": payload, "tolerances": tol, "seed": seed}


def _policy_from(tol_dict: dict, base: TolerancePolicy) -> TolerancePolicy:
    kw = {"zero_tol": base.zero_tol, "rank_tol": base.rank_tol, "match_tol": base.match_tol}
    for name, value in tol_dict.items():
        try:
            kw[name] = float(value)
        except OverflowError:
            raise SchemaError("number out of double range", f"$.tolerances.{name}") from None
    try:
        return TolerancePolicy(**kw)
    except ValueError as exc:
        raise SchemaError(str(exc), "$.tolerances")


def dispatch(problem: dict, base_policy: TolerancePolicy = DEFAULT_POLICY) -> dict:
    """Run one validated problem and assemble its run report."""
    policy = _policy_from(problem["tolerances"], base_policy)
    digest = sha256(json.dumps(problem["payload"], sort_keys=True).encode()).hexdigest()[:16]
    handler, fields = COMMANDS[problem["kind"]]
    start = time.perf_counter()
    outputs, residuals = handler(policy, problem["seed"],
                                 *io.dec_fields(fields, problem["payload"], "$.payload", policy))
    outputs = io.enc_value(outputs)
    elapsed = time.perf_counter() - start
    return {"command": problem["kind"], "inputs_digest": digest,
            "seed": problem["seed"], "outputs": outputs, "residuals": residuals,
            "_wall_time_s": elapsed}


# outputs that are lists of reals, so a two-entry one is not a [re, im] pair
_REAL_LISTS = ("history", "step_residuals")


def _render_text(report: dict) -> str:
    if "error" in report:
        err = report["error"]
        command, seed = ("null" if v is None else v for v in (report["command"], report["seed"]))
        return (f"command: {command}  (seed {seed})\n"
                f"  error {err['type']} (exit {err['exit_code']}): {err['message']}")
    lines = [f"command: {report['command']}  (seed {report['seed']}, "
             f"inputs {report['inputs_digest']}, {report['_wall_time_s']:.3f}s)"]
    for name, r in report["residuals"].items():
        flag = "ok" if r["ok"] else "FAIL"
        lines.append(f"  residual {name}: {r['value']:.3e} <= {r['tolerance']:.1e} [{flag}]")
    def brief(val, depth=0, real=False):
        if (not real and isinstance(val, list) and len(val) == 2
                and all(isinstance(x, float) for x in val)):
            return f"{val[0]:.6g}{val[1]:+.6g}i"
        if isinstance(val, list):
            inner = ", ".join(brief(v, depth + 1, real) for v in val[:6])
            return "[" + inner + (", ..." if len(val) > 6 else "") + "]"
        if isinstance(val, dict):
            if depth >= 2:
                return "{...}"
            return "{" + ", ".join(f"{k}: {brief(v, depth + 1)}" for k, v in val.items()) + "}"
        return str(val)
    for key, val in report["outputs"].items():
        lines.append(f"  {key}: {brief(val, real=key in _REAL_LISTS)}")
    return "\n".join(lines)


def _public(report: dict) -> dict:
    """The report without its ``_``-prefixed entries, which stay out of JSON."""
    return {k: v for k, v in report.items() if not k.startswith("_")}


# error family -> exit code and message label, most specific first
_FAILURES = ((SchemaError, _EXIT_SCHEMA, "schema error"),
             (NumericalError, _EXIT_NUMERICAL, "numerical error"),
             (PreconditionError, _EXIT_PRECONDITION, "precondition violated"),
             (PfaffrepError, _EXIT_NUMERICAL, "error"),
             (ValueError, _EXIT_SCHEMA, "invalid input"))


def _failure(exc: Exception) -> tuple[int, str]:
    return next((code, label) for cls, code, label in _FAILURES if isinstance(exc, cls))


def _exit_code_for(report: dict) -> int:
    if "error" in report:
        return report["error"]["exit_code"]
    bad = [r for r in report["residuals"].values() if not r["ok"]]
    return _EXIT_NUMERICAL if bad else 0


def _run_batch_problem(doc, index: int, seed: int | None,
                       base_policy: TolerancePolicy) -> dict:
    """One batch problem: its run report, or an error entry if it fails.

    A schema error's path is moved under ``$[index]``, the problem's place
    in the batch.  An error entry reports the problem's kind and seed only
    where they are valid, and ``None`` where they are not.
    """
    try:
        problem = parse_problem(doc)
        if seed is not None:
            problem["seed"] = seed
        return dispatch(problem, base_policy)
    except (PfaffrepError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            exc = exc.under(f"$[{index}]")
        raw = doc if isinstance(doc, dict) else {}
        return {"command": _valid_kind(raw),
                "seed": _valid_seed(raw) if seed is None else seed,
                "error": {"type": type(exc).__name__, "message": str(exc),
                          "exit_code": _failure(exc)[0]}}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    commands = [*sorted(COMMANDS), "run", "batch"]
    parser = _Parser(
        prog="pfaffrep", description="pfaffian representations of plane curves",
        epilog=f"commands: {', '.join(commands)}.  'run' takes the kind from the "
               "problem file; 'batch' runs a JSON array of problems in input order.")
    parser.add_argument("command", choices=commands, metavar="command",
                        help="the operation to run (listed below)")
    parser.add_argument("problem", nargs="?", default="-",
                        help="problem JSON file ('-' or omitted: stdin)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--tol", default=os.environ.get("PFAFFREP_TOL"),
                        help="zero,rank,match tolerance overrides (comma separated)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the problem seed")
    return parser


def _load_json(path: str):
    # bytes, not text: JSON is UTF-8 whatever the locale's encoding (RFC 8259)
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        print(f"pfaffrep: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(_EXIT_USAGE)
    try:
        return json.loads(data)
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise SchemaError(f"invalid JSON: {exc}", "$")


def _base_policy(tol_arg: str | None) -> TolerancePolicy:
    if not tol_arg:
        return DEFAULT_POLICY
    parts = tol_arg.split(",")
    if len(parts) != 3:
        raise SchemaError("--tol needs three comma-separated values (zero,rank,match)")
    try:
        return TolerancePolicy(*(float(p) for p in parts))
    except ValueError as exc:
        raise SchemaError(f"bad --tol: {exc}")


def main(argv=None) -> int:
    parser = _build_parser()
    # intermixed: options may stand before, between or after the positionals
    args = parser.parse_intermixed_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("argument --seed: expected a nonnegative integer")
    try:
        base_policy = _base_policy(args.tol)
        doc = _load_json(args.problem)
        if args.command == "batch":
            if not isinstance(doc, list):
                raise SchemaError("batch input must be a JSON array", "$")
            reports = [_run_batch_problem(p, i, None if args.seed is None else args.seed + i,
                                          base_policy)
                       for i, p in enumerate(doc)]
            if args.format == "json":
                print(json.dumps([_public(r) for r in reports], sort_keys=True))
            else:
                print("\n".join(_render_text(r) for r in reports))
            return max((_exit_code_for(r) for r in reports), default=0)

        if args.command != "run" and isinstance(doc, dict):
            if "kind" in doc and doc["kind"] != args.command:
                raise SchemaError(
                    f"file kind {doc['kind']!r} does not match subcommand {args.command!r}",
                    "$.kind")
            doc = {**doc, "kind": args.command}
        problem = parse_problem(doc)
        if args.seed is not None:
            problem["seed"] = args.seed
        report = dispatch(problem, base_policy)
        print(json.dumps(_public(report), sort_keys=True) if args.format == "json"
              else _render_text(report))
        return _exit_code_for(report)
    except (PfaffrepError, ValueError) as exc:
        code, label = _failure(exc)
        print(f"pfaffrep: {label}: {exc}", file=sys.stderr)
        return code


def process_main() -> int:
    """The process entry of ``python -m pfaffrep.cli`` and the ``pfaffrep`` script.

    The objects loaded so far are moved to the collector's permanent
    generation and the collector runs for the problem, so a long batch
    still frees its cyclic garbage.  After ``main`` they are frozen again:
    the collections of interpreter finalization then skip the start-up heap,
    while stdout is still flushed and atexit handlers still run.  Only a
    process should call this; ``main`` leaves the caller's collector alone.
    """
    gc.freeze()
    gc.enable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(process_main())
