"""The wide scale sweep: every non-bridge pencil command at d = 4 over scales
1e-4 ... 1e4, and the per-coordinate sweep, run in-process and checked by the
benchmark's checker.

    python3 tools/scale_sweep.py --seeds 1 2 3 [--root PATH]

``--root`` is the checkout whose ``src/`` is imported (default: this one);
the problems and the checks always come from this checkout's ``bench/``,
which is read and not changed.  Problem ``(seed, command k, scale 10^e)``
is ``bench/problems.py``'s ``build_pencil_problem(command, 4, 10^e, rng)``
with ``rng = default_rng((seed, <scale-probe tag>, k))``, so one seed and
command give the same pencil at every scale, as in ``scale_probe``.  Each
report goes through ``bench/checker.py``'s ``check`` with the exit code the
CLI would give.  A failure is silent when the exit code is 0 and the
checker rejects the report, or when a ``partners`` report lists no point:
every problem plants a partner, which the checker does not ask for.  The
bench's 21-problem ``scale_probe`` is counted as well.

The per-coordinate sweep applies ``x = D y`` with ``D = diag(c)``, one axis
at a time and ``c = 10^±2, ±4, ±6``, to the scale-1 problem of each seed and
command: ``A_k`` becomes ``c_k A_k``, every point ``p`` becomes ``D^-1 p``,
kernel vectors stay, and ``k-const``'s expected ``K`` is recomputed.  The
commands that carry transform records (``verify-replay``, ``bundle-check``)
are left out, since their stored constant parts would need each step redone.
The per-coordinate sweep also runs ``bridge`` on each seed's cli-small
bridge problems (``bench/problems.py``'s ``problem("cli-small", seed, i)``
for the bridge slots), at ``c = 10^±9, ±12`` as well; a bridge that
converges at ``c = 1`` and not at ``c`` counts as a failure.  The refusals
the mathematics asks for are counted by name and not as failures:
``canon2``, ``structure`` and ``bridge`` on axis 1, where ``A1 = c J`` is
not the canonical shape (exit 4), and a command refusing two points that
``c0 = 1e-6`` brings within the match tolerance of each other once
normalized (``SamePoint``, as ``type1`` and ``conint`` do).

Prints one line per failure, a markdown table of the failures per command
(the scales, and how each failed) and the totals of both sweeps.  Exits 1
when any sweep or ``scale_probe`` has a failure, silent or not, other than
the refusals named above; 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checker  # noqa: E402
import numpy as np  # noqa: E402
import problems as pr  # noqa: E402

KINDS = tuple(k for k in pr.PENCIL_KINDS if k != "bridge")
LOG10_SCALES = tuple(range(-4, 5))
DEGREE = 4
AXIS_KINDS = tuple(k for k in KINDS if k not in ("verify-replay", "bundle-check")) + ("bridge",)
BRIDGE_SLOTS = tuple(i for i, (slot, _) in enumerate(pr.CLI_SMALL_SLOTS)
                     if slot.startswith("bridge"))  # "bridge" and "bridge-random"
AXIS_LOG10 = (-6, -4, -2, 2, 4, 6)
BRIDGE_LOG10 = (-12, -9) + AXIS_LOG10 + (9, 12)
POINT_FIELDS = ("point", "lambda", "mu")


def sweep(seed: int) -> list[tuple[str, int, dict]]:
    """The ``(command, log10 scale, item)`` problems of one seed."""
    out = []
    for k, kind in enumerate(KINDS):
        for e in LOG10_SCALES:
            rng = np.random.default_rng((seed, pr._TAGS["scale-probe"], k))
            out.append((kind, e, pr.build_pencil_problem(kind, DEGREE, 10.0 ** e, rng)))
    return out


def rescaled(item: dict, c) -> dict:
    """``item`` under ``x = D y``, ``D = diag(c)``: ``A_k -> c_k A_k``, ``p -> D^-1 p``."""
    pay = dict(item["doc"]["payload"])
    A = [ck * Ak for ck, Ak in zip(c, pr.dec_pencil(pay["pencil"]))]
    pay["pencil"] = pr.enc_pencil(A)
    for name in POINT_FIELDS:
        if name in pay:
            pay[name] = pr.enc_v(pr.dec_v(pay[name]) / c)
    if "points" in pay:
        pay["points"] = [pr.enc_v(pr.dec_v(p) / c) for p in pay["points"]]
    expect = dict(item["expect"])
    if "k" in expect:
        lam, mu, v, u = (pr.dec_v(pay[n]) for n in ("lambda", "mu", "v", "u"))
        expect["k"] = pr.enc_c(pr.k_value(A, lam, v, mu, u, pr.dec_c(pay["t1"]),
                                          pr.dec_c(pay["t2"])))
    return {"doc": {**item["doc"], "payload": pay}, "expect": expect}


def axis_sweep(seed: int, cli) -> list[tuple[str, int, int, dict]]:
    """The ``(command, axis, log10 c, item)`` problems of one seed; a bridge's
    item expects ``converged`` when it converges at ``c = 1``."""
    bases = []
    for k, kind in enumerate(KINDS):
        if kind in AXIS_KINDS:
            rng = np.random.default_rng((seed, pr._TAGS["scale-probe"], k))
            bases.append((kind, pr.build_pencil_problem(kind, DEGREE, 1.0, rng)))
    for i in BRIDGE_SLOTS:
        base = pr.problem("cli-small", seed, i)
        report = cli.dispatch(cli.parse_problem(base["doc"]))
        bases.append(("bridge", {**base, "expect": {
            **base["expect"], "converged": report["outputs"]["converged"]}}))
    out = []
    for kind, base in bases:
        for axis in range(3):
            for e in BRIDGE_LOG10 if kind == "bridge" else AXIS_LOG10:
                c = np.ones(3)
                c[axis] = 10.0 ** e
                out.append((kind, axis, e, rescaled(base, c)))
    return out


def refusal(kind: str, axis: int, e: int, how: str) -> str | None:
    """The name of the refusal ``how`` is, if the mathematics asks for it there."""
    if kind in ("canon2", "structure", "bridge") and axis == 1 and how.startswith("exit 4 "):
        return f"{kind} on axis 1 (exit 4)"
    if (axis, e) == (0, -6) and "(SamePoint:" in how:
        return f"{kind} SamePoint at c0 = 1e-6"
    return None


def run(cli, errors, item: dict) -> tuple[str, str]:
    """One problem: ``("ok" | "silent" | "failed", how)``."""
    try:
        report = cli.dispatch(cli.parse_problem(item["doc"]))
    except (errors.PfaffrepError, ValueError) as exc:
        code = cli._failure(exc)[0]
        return "failed", f"exit {code} ({type(exc).__name__}: {exc})"
    except Exception as exc:  # a crash is a failure too, not the end of the sweep
        return "failed", f"crash ({type(exc).__name__}: {exc})"
    code = cli._exit_code_for(report)
    outcome = checker.check(item, code, json.dumps(cli._public(report), sort_keys=True))
    lost = (item["doc"]["kind"] == "partners" and not report["outputs"]["points"]
            or item["expect"].get("converged") and not report["outputs"]["converged"])
    if outcome.ok and not lost:
        return "ok", ""
    if code == 0:
        return "silent", f"exit 0, {'no partner point' if outcome.ok else outcome.reason}"
    bad = [n for n, r in report["residuals"].items() if not r["ok"]]
    return "failed", f"exit {code} (residuals {bad})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src/ is imported")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    cli = importlib.import_module("pfaffrep.cli")
    errors = importlib.import_module("pfaffrep.errors")

    total = silent = 0
    failed: dict[str, list] = defaultdict(list)
    for seed in args.seeds:
        for kind, e, item in sweep(seed):
            total += 1
            status, how = run(cli, errors, item)
            if status != "ok":
                silent += status == "silent"
                failed[kind].append((e, status, how))
                print(f"seed {seed} {kind} 1e{e:+d}: {status}: {how}"[:200])
    print()
    print("| command | failures | at scales | how |")
    print("|---|---|---|---|")
    for kind in KINDS:
        if failed[kind]:
            scales = ", ".join(f"1e{e}" for e in sorted({e for e, _, _ in failed[kind]}))
            hows = sorted({"exit 0, rejected by the checker" if s == "silent"
                           else h.split(" (")[0] for _, s, h in failed[kind]})
            print(f"| `{kind}` | {len(failed[kind])} | {scales} | {'; '.join(hows)} |")
    n_failed = sum(len(v) for v in failed.values())
    print(f"\nwide sweep, seeds {args.seeds}: {n_failed} of {total} failed, "
          f"{silent} silent")
    probe = [sum(run(cli, errors, item)[0] != "ok" for item in pr.scale_probe(seed))
             for seed in args.seeds]
    print(f"scale_probe, seeds {args.seeds}: " + ", ".join(
        f"{n} of {len(pr.SCALE_PROBE_KINDS) * len(pr.SCALE_PROBE_LOG10)} failed"
        for n in probe))

    counts, refused = Counter(), Counter()
    axis_failed: dict[str, list] = defaultdict(list)
    for seed in args.seeds:
        for kind, axis, e, item in axis_sweep(seed, cli):
            status, how = run(cli, errors, item)
            name = refusal(kind, axis, e, how) if status == "failed" else None
            if name:
                refused[name] += 1
                continue
            counts[status] += 1
            if status != "ok":
                axis_failed[kind].append((axis, status))
                print(f"seed {seed} {kind} axis {axis} 1e{e:+d}: {status}: {how}"[:200])
    print()
    print("| command | failed | silent | on axes |")
    print("|---|---|---|---|")
    for kind in AXIS_KINDS:
        if axis_failed[kind]:
            axes = ", ".join(str(a) for a in sorted({a for a, _ in axis_failed[kind]}))
            n_silent = sum(s == "silent" for _, s in axis_failed[kind])
            print(f"| `{kind}` | {len(axis_failed[kind]) - n_silent} | {n_silent} | {axes} |")
    print(f"\nper-coordinate sweep, seeds {args.seeds}: {counts['ok']} ok, "
          f"{counts['failed']} failed, {counts['silent']} silent, "
          f"{sum(refused.values())} refused by name")
    for name, n in sorted(refused.items()):
        print(f"  refused: {name}: {n}")
    return int(bool(n_failed or any(probe) or counts["failed"] or counts["silent"]))


if __name__ == "__main__":
    raise SystemExit(main())
