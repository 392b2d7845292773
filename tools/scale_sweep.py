"""The wide scale sweep: every non-bridge pencil command at d = 4 over scales
1e-4 ... 1e4, run in-process and checked by the benchmark's checker.

    python3 tools/scale_sweep.py --seeds 1 2 3 [--root PATH]

``--root`` is the checkout whose ``src/`` is imported (default: this one);
the problems and the checks always come from this checkout's ``bench/``,
which is read and not changed.  Problem ``(seed, command k, scale 10^e)``
is ``bench/problems.py``'s ``build_pencil_problem(command, 4, 10^e, rng)``
with ``rng = default_rng((seed, <scale-probe tag>, k))``, so one seed and
command give the same pencil at every scale, as in ``scale_probe``.  Each
report goes through ``bench/checker.py``'s ``check`` with the exit code the
CLI would give.  A failure is silent when the exit code is 0 and the
checker rejects the report.  The bench's 21-problem ``scale_probe`` is
counted as well.

Prints one line per failure, a markdown table of the failures per command
(the scales, and how each failed) and the totals.  Exits 0 either way.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checker  # noqa: E402
import numpy as np  # noqa: E402
import problems as pr  # noqa: E402

KINDS = tuple(k for k in pr.PENCIL_KINDS if k != "bridge")
LOG10_SCALES = tuple(range(-4, 5))
DEGREE = 4


def sweep(seed: int) -> list[tuple[str, int, dict]]:
    """The ``(command, log10 scale, item)`` problems of one seed."""
    out = []
    for k, kind in enumerate(KINDS):
        for e in LOG10_SCALES:
            rng = np.random.default_rng((seed, pr._TAGS["scale-probe"], k))
            out.append((kind, e, pr.build_pencil_problem(kind, DEGREE, 10.0 ** e, rng)))
    return out


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
    if outcome.ok:
        return "ok", ""
    if code == 0:
        return "silent", f"exit 0, {outcome.reason}"
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
