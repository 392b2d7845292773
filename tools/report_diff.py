"""Byte comparison of the in-process reports of two revisions.

    python3 tools/report_diff.py --parent HEAD~1 --change HEAD \\
        --seeds 1 2 3 4 5 --cycles 2 [--workload cli-small --workload batch-highdeg]
    python3 tools/report_diff.py --parent HEAD~1 --change HEAD \\
        --seeds 5 6 7 --cycles 1 --workload bridge-corpus

The first compares the two gated workloads (the default).  The second
compares ``bridge-corpus``, whose 1-, 2- and 3-step plants and random
constant parts at d = 3 and 4 exercise the bridge far more than the 4
bridges in a cli-small cycle.

Each revision's committed files are exported with ``git archive`` (as
``tools/bench_pairs.py`` does) into its own directory.  Each side then runs
in its own Python process, from its own tree: ``bench/tracer.py``'s
``load_program`` imports that tree's ``pfaffrep``, every problem of
``--cycles`` whole cycles of each workload and seed goes through
``run_inprocess``, and ``bench/checker.py``'s ``check`` judges the report.
Neither file is changed.

Prints, per workload and command, how many reports are byte-identical, how
many differ and how many of those differ only in the values of their
residuals, each side's checker failures, and the first lines that differ in
the first few differing reports.  The greedy bridge is chaotic
in the last bits of its steps, so it also prints per side how many bridge
problems converged and their total step count.  Exits 0 when every report
is identical and neither side fails a check, 1 otherwise.  Standard
library only on this side; needs ``git`` on the path.
"""

from __future__ import annotations

import argparse
import difflib
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import export  # noqa: E402

WORKLOADS = ("cli-small", "batch-highdeg")
SHOWN_DIFFS = 3


def run_side(tree: Path, workloads: list[str], seeds: list[int], cycles: int,
             out: Path) -> None:
    """Run and check every problem with ``tree``'s program; one JSON line each."""
    sys.path.insert(0, str(tree / "bench"))
    import checker
    import problems as pr
    import tracer

    pkg, modules = tracer.load_program(tree)
    if not Path(pkg.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"report_diff: imported {pkg.__file__}, not the tree {tree}")
    with open(out, "w") as fh:
        for workload in workloads:
            cycle = len(pr.WORKLOADS[workload])
            for seed in seeds:
                for index in range(cycles * cycle):
                    item = pr.problem(workload, seed, index)
                    code, text = tracer.run_inprocess(modules, item["doc"])
                    outcome = checker.check(item, code, text)
                    fh.write(json.dumps({"workload": workload, "seed": seed, "index": index,
                                         "kind": item["doc"]["kind"], "code": code,
                                         "report": text, "ok": outcome.ok,
                                         "reason": outcome.reason}) + "\n")


def load(path: Path) -> dict:
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    return {(r["workload"], r["seed"], r["index"]): r for r in rows}


def without_residual_values(row: dict) -> tuple:
    """The exit code and the report with each residual's ``value`` left out."""
    doc = json.loads(row["report"]) if row["report"] else None
    for residual in (doc or {}).get("residuals", {}).values():
        del residual["value"]
    return row["code"], doc


def bridge_outcome(rows: dict) -> tuple[int, int, int]:
    """Bridge problems, how many converged and their total step count."""
    n = converged = steps = 0
    for row in rows.values():
        if row["kind"] != "bridge":
            continue
        n += 1
        outputs = json.loads(row["report"])["outputs"] if row["report"] else {}
        converged += bool(outputs.get("converged"))
        steps += len(outputs.get("records", ()))
    return n, converged, steps


def compare(sides: dict[str, dict]) -> int:
    """Print the per-command table and the first differences; the exit status."""
    parent, change = sides["parent"], sides["change"]
    if parent.keys() != change.keys():
        raise SystemExit("report_diff: the two sides ran different problems")
    same, differ, values_only = Counter(), Counter(), Counter()
    failed = {s: Counter() for s in sides}
    shown = 0
    for key, p in parent.items():
        c = change[key]
        cmd = (key[0], p["kind"])
        if (p["code"], p["report"]) == (c["code"], c["report"]):
            same[cmd] += 1
        else:
            differ[cmd] += 1
            values_only[cmd] += without_residual_values(p) == without_residual_values(c)
            if shown < SHOWN_DIFFS:
                shown += 1
                print(f"--- {key[0]} seed {key[1]} problem {key[2]} ({p['kind']}): "
                      f"exit {p['code']} -> {c['code']}")
                lines = difflib.unified_diff(p["report"].splitlines(), c["report"].splitlines(),
                                             "parent", "change", n=1, lineterm="")
                for line in list(lines)[:12]:
                    print("    " + line)
        for s, row in (("parent", p), ("change", c)):
            if not row["ok"]:
                failed[s][cmd] += 1
                print(f"checker failure, {s}: {key[0]} seed {key[1]} problem {key[2]}: "
                      f"{row['reason']}")
    print(f"{'workload':14s} {'command':16s} {'identical':>9s} {'differ':>6s} "
          f"{'residual values only':>20s} {'failed parent':>13s} {'failed change':>13s}")
    for cmd in sorted(set(same) | set(differ)):
        print(f"{cmd[0]:14s} {cmd[1]:16s} {same[cmd]:9d} {differ[cmd]:6d} "
              f"{values_only[cmd]:20d} {failed['parent'][cmd]:13d} {failed['change'][cmd]:13d}")
    for s, rows in sides.items():
        n, converged, steps = bridge_outcome(rows)
        if n:
            print(f"bridge, {s}: {converged} of {n} converged, {steps} steps in all")
    total, n_same = len(parent), sum(same.values())
    n_failed = {s: sum(f.values()) for s, f in failed.items()}
    print(f"{n_same} of {total} reports identical, {total - n_same} differ, "
          f"{sum(values_only.values())} of them only in residual values; "
          f"checker failures: parent {n_failed['parent']}, change {n_failed['change']}")
    return 0 if n_same == total and not any(n_failed.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="revision of the parent side")
    ap.add_argument("--change", help="revision of the change side")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--cycles", type=int, default=2)
    ap.add_argument("--workload", action="append",
                    help=f"a workload of bench/problems.py; repeat for several "
                         f"(default: {', '.join(WORKLOADS)})")
    ap.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    if args.cycles < 1:
        ap.error("--cycles must be at least 1")
    if args.side is not None:
        run_side(args.side, workloads, args.seeds, args.cycles, args.out)
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    with tempfile.TemporaryDirectory(prefix="report_diff-") as tmp:
        sides = {}
        for side in ("parent", "change"):
            tree, out = Path(tmp) / side, Path(tmp) / f"{side}.jsonl"
            commit = export(getattr(args, side), tree)
            print(f"{side}: {getattr(args, side)} = {commit}", flush=True)
            cmd = [sys.executable, __file__, "--side", str(tree), "--out", str(out),
                   "--cycles", str(args.cycles), "--seeds", *map(str, args.seeds)]
            for w in workloads:
                cmd += ["--workload", w]
            subprocess.run(cmd, cwd=tree, check=True)
            sides[side] = load(out)
    return compare(sides)


if __name__ == "__main__":
    raise SystemExit(main())
