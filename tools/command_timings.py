"""Alternating in-process timings of single commands against the degree, for two
revisions.

    python3 tools/command_timings.py --parent HEAD~1 --change HEAD

It times the commands ``KINDS`` at the degrees ``DEGREES``.  Problem
``(kind k, degree d)`` is ``bench/problems.py``'s
``build_pencil_problem(kind, d, 1.0, default_rng((d, k)))``, built once from
this checkout and given to both sides.  Each revision's committed files are
exported with ``git archive`` (as ``tools/bench_pairs.py`` does).  Each round
runs the parent, then the change, each in a fresh Python process with one
OpenBLAS thread that imports its own tree's ``pfaffrep``: it runs every
problem once untimed, then ``REPS`` times through ``pfaffrep.cli.dispatch``
(which decodes the pencil afresh each time, so nothing is cached across
runs), and reports the median wall time of each; there are ``ROUNDS``
rounds.

Prints, per command and degree, the median over rounds of each side's time,
their ratio, and in how many rounds the change was the faster.  Exits 1 when
a problem fails on either side.  Needs ``git`` on the path.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import ROOT, export  # noqa: E402

KINDS = ("canon", "type2", "conint", "verify-replay")
DEGREES = (8, 12, 16)
ROUNDS = 7
REPS = 5


def run_side(tree: Path, problems: Path) -> None:
    """Print ``{"kind d": median seconds}`` for ``tree``'s program, one JSON line."""
    import time
    sys.path.insert(0, str(tree / "src"))
    from pfaffrep.cli import dispatch, parse_problem
    times = {}
    for key, doc in json.loads(problems.read_text()).items():
        report = dispatch(parse_problem(doc))
        if not all(r["ok"] for r in report["residuals"].values()):
            raise SystemExit(f"command_timings: {key} fails a residual in {tree}")
        samples = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            dispatch(parse_problem(doc))
            samples.append(time.perf_counter() - t0)
        times[key] = statistics.median(samples)
    print(json.dumps(times))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="revision of the parent side")
    ap.add_argument("--change", help="revision of the change side")
    ap.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--problems", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.side is not None:
        run_side(args.side, args.problems)
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    sys.path.insert(0, str(ROOT / "bench"))
    import numpy as np
    import problems as pr
    docs = {f"{kind} {d}": pr.build_pencil_problem(kind, d, 1.0, np.random.default_rng((d, k)))
            ["doc"] for k, kind in enumerate(KINDS) for d in DEGREES}
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory(prefix="command_timings-") as tmp:
        path = Path(tmp) / "problems.json"
        path.write_text(json.dumps(docs))
        trees = {}
        for side in ("parent", "change"):
            trees[side] = Path(tmp) / side
            print(f"{side}: {getattr(args, side)} = {export(getattr(args, side), trees[side])}")
        runs = {"parent": [], "change": []}
        for _ in range(ROUNDS):
            for side, tree in trees.items():
                proc = subprocess.run([sys.executable, __file__, "--side", str(tree),
                                       "--problems", str(path)],
                                      cwd=tree, env=env, capture_output=True, text=True)
                if proc.returncode:
                    print(proc.stderr.strip().splitlines()[-1], file=sys.stderr)
                    return 1
                runs[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print(f"{'command':14s} {'d':>3s} {'parent ms':>10s} {'change ms':>10s} {'ratio':>6s} "
          f"{'change faster':>13s}")
    for key in docs:
        p, c = ([r[key] for r in runs[side]] for side in ("parent", "change"))
        faster = sum(ci < pi for pi, ci in zip(p, c))
        mp, mc = statistics.median(p), statistics.median(c)
        kind, d = key.split()
        print(f"{kind:14s} {d:>3s} {1e3 * mp:10.2f} {1e3 * mc:10.2f} {mc / mp:6.2f} "
              f"{faster:>6d} of {len(p)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
