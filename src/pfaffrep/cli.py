"""Command-line front end: ``pfaffrep <command> [problem.json]``.

One command per library operation, plus ``run`` (kind taken from the file)
and ``batch`` (a JSON array of problems, run in input order).  A single
problem runs through the batch's runner, which checks the envelope and
applies ``--seed``; a batch keeps a failure as an error entry in the
problem's slot, and a single command prints it to stderr.  ``--tol`` and a
problem's ``tolerances`` override the policy by one rule.

Each command is one row of ``COMMANDS``: its payload fields, decoded by
``jsonio.dec_fields`` before anything runs; its library call, looked up by
module and name when it runs, so a process imports only the layers its
command uses; its output keys; and its residuals, each a value the result
carries, held to a tolerance, or an identity the CLI checks itself.  A
residual that would check nothing is left out (README, "Command line").
Run as a process, the module keeps the garbage collector off its start-up
heap and OpenBLAS to one thread (README, "Start-up"); imported, it leaves
both alone.

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
from functools import reduce
from importlib import import_module

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
from .poly import equal_up_to_scale, relative_deviation
from .tolerances import BUNDLE_TOL, DEFAULT_POLICY, PF_TOL, TRANSPORT_ANGLE_TOL, TolerancePolicy

_EXIT_USAGE, _EXIT_SCHEMA, _EXIT_NUMERICAL, _EXIT_PRECONDITION = 1, 2, 3, 4
_TOLERANCES = ("zero_tol", "rank_tol", "match_tol")


def _residual(value: float, tol: float) -> dict:
    value = float(value)
    return {"value": value, "tolerance": tol, "ok": bool(value <= tol)}


def _call(spec: str, a: dict):
    """Call ``module.function arg...``, a package module's function looked up
    now, or a function of this module, with the named arguments of ``a``."""
    target, *names = spec.split()
    module, dot, name = target.partition(".")
    fn = (reduce(getattr, name.split("."), import_module("pfaffrep." + module)) if dot
          else globals()[target])
    return fn(*(a[n] for n in names))


def _carried(a: dict, result, name: str, attr: str, tol, guard: str = "") -> dict:
    """Residual ``name``: the result's ``attr`` (of each entry of a list; ``""``
    is the result) held to ``tol`` (a number, a policy field or a call); a
    list by its largest entry, a dict as one ``name[key]`` per entry.  A false
    ``guard``, an argument or an attribute of the result, leaves it out."""
    def read(attr):
        if attr in a or not attr:
            return a.get(attr, result)
        return ([getattr(r, attr) for r in result] if isinstance(result, list)
                else getattr(result, attr))
    if guard and not read(guard):
        return {}
    if not isinstance(tol, float):
        tol = _call(tol, a) if " " in tol else getattr(a["policy"], tol)
    value = read(attr)
    if isinstance(value, dict):
        return {f"{name}[{key}]": _residual(v, tol) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        value = max(value, default=0.0)
    return {name: _residual(value, tol)}


# -- the identities the CLI checks itself: (arguments, outputs) -> residuals,
# adding any output they derive

def _pf_invariance(a, out) -> dict:
    return {"pf_invariance": _residual(
        relative_deviation(a["pencil"].pfaffian(), out["pencil"].pfaffian()), PF_TOL)}


def _pf_scaling(a, out) -> dict:
    """``Pf(out) = det Q * Pf(P)`` for the basis change ``Q``, relative to
    ``|det Q|``; ``canon`` reports ``Q``, ``canon2`` adds its fixed one's determinant."""
    P, policy = a["pencil"], a["policy"]
    if "report" in out:
        pencil, det = out["report"].pencil, np.linalg.det(out["report"].basis_change)
    else:
        from .canonical import second_canonical_transform
        pencil = out["pencil"]
        det = out["det_q"] = float(np.linalg.det(second_canonical_transform(P.half_deg)).real)
    scale = equal_up_to_scale(P.pfaffian(), pencil.pfaffian(), policy)
    dev = abs(scale - det) / max(abs(det), 1e-300) if scale is not None else float("inf")
    return {"pf_scaling": _residual(dev, policy.match_tol)}


def _vanishing(a, out) -> dict:
    """``ell(pt) = 0`` at the line's points, relative to its largest coefficient;
    ``line`` adds whether its form is zero, and a zero form gets no residual."""
    ell, policy, points = out["line"], a["policy"], ["point"]
    if "u" in a:  # a genuine u^t A(x) v has coefficients of the size |A| |u| |v|
        size = a["pencil"].scale() * np.linalg.norm(a["u"]) * np.linalg.norm(a["v"])
        out["is_zero"] = ell.is_zero(size, policy)
        points = [] if out["is_zero"] else ["lambda", "mu"]
    scale = max(float(np.max(np.abs(ell.coeffs))), 1e-300)
    return {f"vanishing_at_{n}": _residual(abs(ell(a[n])) / scale, policy.match_tol)
            for n in points}


def _adjoint_identity(a, out) -> dict:
    P, pt, adj = a["pencil"], a["point"], out["adjoint"]
    A = P(pt)
    dev = np.max(np.abs(adj @ A - P.pfaffian()(pt) * np.eye(P.dim)))
    scale = max(np.max(np.abs(adj)) * np.max(np.abs(A)), 1e-300)
    return {"adjoint_identity": _residual(dev / scale, a["policy"].match_tol)}


def _k_independence(a, out) -> dict:
    """K at the payload's direction against K at the least-squares one."""
    from .incidence import k_constant
    K, policy = out["k"], a["policy"]
    K2 = k_constant(a["pencil"], a["lambda"], a["v"], a["mu"], a["u"], policy=policy,
                    check_kernels=False)
    return {"parameter_independence": _residual(abs(K - K2) / (1 + abs(K)), policy.rank_tol)}


def _round_trip(a, out) -> dict:
    from .quartic import polar_cubic
    w = a["coeffs"].flatten()
    dev = float(np.max(np.abs(polar_cubic(out["quartic"]).flatten() - w)))
    return {"round_trip": _residual(dev / max(float(np.max(np.abs(w))), 1e-300),
                                    a["policy"].match_tol)}


def _line_product(a, out) -> dict:
    cubic, (l1, l2, l3), policy = a["cubic"], out["lines"], a["policy"]
    prod = l1.as_poly() * l2.as_poly() * l3.as_poly()
    dev = relative_deviation(cubic, prod, equal_up_to_scale(prod, cubic, policy))
    return {"product_residual": _residual(dev, policy.match_tol)}


def _scorza_match(a, out) -> dict:
    """The covariant against the payload's ``expected`` quartic, up to scale."""
    S, expected, policy = out["scorza"], a["expected"], a["policy"]
    if expected is None:
        return {}
    scale = equal_up_to_scale(S, expected, policy)
    if scale is not None:
        out["scale_vs_expected"] = scale
    return {"match_up_to_scale": _residual(relative_deviation(expected, S, scale),
                                           policy.match_tol)}


# -- the two calls whose payload needs a check the field kinds cannot make

def _pf_minor(P, i, j):
    for name, k in (("i", i), ("j", j)):
        if k >= P.dim:
            raise SchemaError(f"index {k} out of range for dimension {P.dim}", "$.payload." + name)
    if i == j:
        raise SchemaError("minor indices must differ", "$.payload.j")
    from .pencil import pfaffian_minor
    return pfaffian_minor(P, i, j)


def _identify_theta(quartic, coeffs, candidates, samples, policy):
    if quartic is None and coeffs is None:
        raise SchemaError("need either 'quartic' or 'coeffs'", "$.payload")
    from .quartic import identify_theta
    return identify_theta(coeffs if quartic is None else quartic, candidates, samples, policy)


# kind -> (payload fields, call, output keys, residuals).  The call's arguments
# are payload fields, ``policy`` and, for the bridge alone, ``seed``.  One
# output key takes the result, several the items of a tuple or the fields of
# a record, and a function of the result builds other outputs.  A residual is
# an identity above, or ``_carried``'s (name, value, tolerance[, guard]).
COMMANDS = {
    "pf": ("pencil", "pencil.SkewPencil.pfaffian pencil", "pfaffian", []),
    "pf-minor": ("pencil i:int j:int", "_pf_minor pencil i j", "minor", []),
    "adjoint": ("pencil point", "pencil.pfaffian_adjoint_at pencil point", "adjoint",
                [_adjoint_identity]),
    "kernel": ("pencil point", "pencil.kernel_at pencil point policy",
               lambda kb: {"kernel": {"point": kb.point, "vectors": kb.vectors.T,
                                      "residual": kb.residual}},
               [("kernel_residual", "residual", "rank_tol")]),
    "canon": ("pencil", "canonical.to_canonical pencil policy", "report",
              [("block_residual", "residual", "match_tol"), _pf_scaling]),
    "canon2": ("pencil", "canonical.to_second_canonical pencil policy", "pencil", [_pf_scaling]),
    "gauge": ("pencil blocks:matrix[]", "canonical.gauge_action pencil blocks policy", "pencil",
              [_pf_invariance]),
    "structure": ("pencil", "canonical.structure_report pencil policy", "report", []),
    "tangent": ("pencil point", "incidence.tangent_line pencil point policy", "line",
                [_vanishing]),
    "line": ("pencil lambda:point mu:point v:vector u:vector",
             "incidence.line_through pencil lambda v mu u policy", "line", [_vanishing]),
    "classify-pair": ("pencil lambda:point mu:point",
                      "incidence.classify_pair pencil lambda mu policy",
                      lambda pc: {"classification": {"kind": pc.kind, "kappa": pc.kappa,
                                                     "special_vectors": pc.special_vectors}},
                      []),
    "k-const": ("pencil lambda:point mu:point v:vector u:vector t1:complex t2:complex",
                "incidence.k_constant pencil lambda v mu u t1 t2 policy", "k",
                [_k_independence]),
    "partners": ("pencil lambda:point v:vector u:vector",
                 "incidence.partner_points pencil lambda v u policy",
                 lambda pts: {"points": [p.pt for p in pts]},
                 [("curve_residual", "curve_residual", "match_tol")]),
    "type1": ("pencil lambda:point mu:point v:vector u:vector",
              "transforms.type1 pencil lambda mu v u policy", "pencil record", [_pf_invariance]),
    "type2": ("pencil lambda:point v:vector rho:complex",
              "transforms.type2 pencil lambda v rho policy", "pencil record", [_pf_invariance]),
    "conint": ("pencil points:point[] vectors:vector[] rhos:complex[]",
               "transforms.conint pencil points vectors rhos policy", "pencil record",
               [_pf_invariance]),
    "bundle-check": (
        "pencil record samples:point[] curve_samples:point[]=[]",
        "transforms.bundle_maps_check pencil record samples curve_samples policy", "report",
        [("intertwining_identity", "identity_residual", BUNDLE_TOL),
         ("transport_angle", "transport_angle", TRANSPORT_ANGLE_TOL, "curve_samples"),
         ("parameter_independence", "parameter_independence", BUNDLE_TOL, "curve_samples"),
         ("zero", "zero_patterns", BUNDLE_TOL)]),
    "bridge": ("pencil budget:int=50", "bridge.bridge_to_decomposable pencil budget seed policy",
               "records pencil off_pattern_norm converged history",
               [("off_pattern_norm", "off_pattern_norm",
                 "canonical.negligible_norm pencil policy"), _pf_invariance]),
    "polar-cubic": ("quartic:poly", "quartic.polar_cubic quartic", "coeffs", []),
    "aronhold": ("coeffs:cubic_coeffs", "quartic.aronhold_invariant coeffs", "pfaffian", []),
    "scorza": ("quartic:poly expected:poly=null", "quartic.scorza_map quartic", "scorza",
               [_scorza_match]),
    "integrate-polar": ("coeffs:cubic_coeffs", "quartic.integrate_polar coeffs policy",
                        "quartic", [_round_trip]),
    "triangle": ("quartic:poly point", "quartic.polar_triangle quartic point policy",
                 "triangle", [("three_cube_residual", "residual", "match_tol")]),
    "factor-lines": ("cubic:poly", "quartic.factor_three_lines cubic policy", "lines",
                     [_line_product]),
    "related": ("rep:detrep lambda:point mu:point", "quartic.scorza_related rep lambda mu policy",
                "relation", [("pairing_residual", "residuals", "match_tol", "related")]),
    "identify-theta": (
        "quartic:poly=null coeffs:cubic_coeffs=null candidates:detrep[] samples:int=3",
        "_identify_theta quartic coeffs candidates samples policy", "identification", []),
    "bitangent": ("rep:detrep b_i:vector b_j:vector",
                  "quartic.bitangent_from_octad rep b_i b_j policy", "line", []),
    "verify-replay": ("pencil records:record[]", "transforms.verify_replay pencil records policy",
                      "step_residuals", [("pf_invariance", "", PF_TOL)]),
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
    if not isinstance(tol, dict) or not set(tol) <= set(_TOLERANCES):
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
    """``base`` with the tolerances named in ``tol_dict`` overridden: the one
    rule of a problem's ``tolerances`` and of ``--tol``."""
    kw = {name: getattr(base, name) for name in _TOLERANCES}
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
    fields, call, keys, checks = COMMANDS[problem["kind"]]
    start = time.perf_counter()
    names = [word.partition("=")[0].partition(":")[0] for word in fields.split()]
    a = dict(zip(names, io.dec_fields(fields, problem["payload"], "$.payload", policy)),
             policy=policy, seed=problem["seed"])
    result = _call(call, a)
    if callable(keys):
        outputs = keys(result)
    elif " " not in keys:
        outputs = {keys: result}
    else:
        outputs = (dict(zip(keys.split(), result)) if isinstance(result, tuple)
                   else {key: getattr(result, key) for key in keys.split()})
    residuals = {}
    for check in checks:
        residuals.update(check(a, outputs) if callable(check) else _carried(a, result, *check))
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


def _run_problem(doc, index: int | None, seed: int | None, base_policy: TolerancePolicy) -> dict:
    """The run report of a batch's ``index``-th problem, or its error entry,
    or of a single problem (``index`` None), whose failure is raised.

    A batch problem's schema error path is moved under ``$[index]``, its
    place in the batch.  An error entry reports the problem's kind and seed
    only where they are valid, and ``None`` where they are not.
    """
    try:
        problem = parse_problem(doc)
        if seed is not None:
            problem["seed"] = seed
        return dispatch(problem, base_policy)
    except (PfaffrepError, ValueError) as exc:
        if index is None:
            raise
        if isinstance(exc, SchemaError):
            exc = exc.under(f"$[{index}]")
        raw = doc if isinstance(doc, dict) else {}
        return {"command": _valid_kind(raw), "seed": _valid_seed(raw) if seed is None else seed,
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
        return _policy_from(dict(zip(_TOLERANCES, parts)), DEFAULT_POLICY)
    except (SchemaError, ValueError) as exc:
        raise SchemaError(f"bad --tol: {getattr(exc, 'message', exc)}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    # intermixed: options may stand before, between or after the positionals
    args = parser.parse_intermixed_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("argument --seed: expected a nonnegative integer")
    batch = args.command == "batch"
    try:
        base_policy = _base_policy(args.tol)
        docs = _load_json(args.problem)
        if batch and not isinstance(docs, list):
            raise SchemaError("batch input must be a JSON array", "$")
        if not batch:
            if args.command != "run" and isinstance(docs, dict):
                if "kind" in docs and docs["kind"] != args.command:
                    raise SchemaError(f"file kind {docs['kind']!r} does not match "
                                      f"subcommand {args.command!r}", "$.kind")
                docs = {**docs, "kind": args.command}
            docs = [docs]
        reports = [_run_problem(doc, i if batch else None,
                                None if args.seed is None else args.seed + i, base_policy)
                   for i, doc in enumerate(docs)]
    except (PfaffrepError, ValueError) as exc:
        code, label = _failure(exc)
        print(f"pfaffrep: {label}: {exc}", file=sys.stderr)
        return code
    if args.format == "json":
        public = [_public(r) for r in reports]
        print(json.dumps(public if batch else public[0], sort_keys=True))
    else:
        print("\n".join(_render_text(r) for r in reports))
    return max(_exit_code_for(r) for r in reports) if reports else 0


def process_main() -> int:
    """The process entry: the start-up heap stays frozen, the collector runs
    for the problem, and finalization skips the heap again (README, "Start-up")."""
    gc.freeze()
    gc.enable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(process_main())
