"""Alternating parent/change pairs of the benchmark, summarized in one file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload batch-highdeg --pairs 10 --seconds 45 --seed 811 --number 7

Each revision's committed files are exported (``git archive``) into its
own directory under a temporary directory, so both sides run exactly what
a fresh checkout of that revision holds, whatever the working tree
contains.  Pair ``i`` runs ``bench/run.py --trace 0`` with seed
``seed + i`` once on each side; the parent runs first in even pairs and
the change first in odd ones, so a drift of the machine's speed favours
neither.  Runs are strictly one at a time.

The result, ``BENCH_<number>.json`` in the current directory, holds every
run's metrics; per workload and metric the median and quartiles of each
side, the pairs each side won (ties count for neither), the relative
change of the medians and whether it stays within the bound of
``BENCHMARK.json``; the revisions, the settings and the environment.
``claim_rule_met`` is true when the change won at least nine tenths of
the pairs and its median beats the parent's by more than the parent's
quartile spread.  Standard library only; needs ``git`` on the path.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Extract the committed tree of ``rev`` into ``dest``; returns its commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run in ``tree``: its last-line result,
    the environment line it printed and its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: run failed in {tree} (exit {proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("environment "):]) for line in lines
                if line.startswith("environment ")), None)
    return {"result": result, "environment": env, "run_wall_s": wall}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per-metric sides, pair wins and the claim and bound checks."""
    out = {}
    pairs = sorted({r["pair"] for r in runs})
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        side = {s: {r["pair"]: r["metrics"][name] for r in runs if r["side"] == s}
                for s in ("parent", "change")}
        wins = {"change": 0, "parent": 0, "ties": 0}
        for p in pairs:
            a, b = side["parent"][p], side["change"][p]
            if a == b:
                wins["ties"] += 1
            elif (b < a) == lower:
                wins["change"] += 1
            else:
                wins["parent"] += 1
        stats = {s: {**quartiles(list(v.values())), "values": [v[p] for p in pairs]}
                 for s, v in side.items()}
        pm, cm = stats["parent"]["median"], stats["change"]["median"]
        gain = (pm - cm) if lower else (cm - pm)  # positive: the change is better
        worse_frac = -gain / abs(pm) if pm else 0.0
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m.get("bound"),
                     **stats, "wins": wins,
                     "relative_change": (cm - pm) / abs(pm) if pm else None,
                     "within_bound": m.get("bound") is None or worse_frac <= m["bound"],
                     "claim_rule_met": (wins["change"] >= 0.9 * len(pairs)
                                        and gain > stats["parent"]["q3"]
                                        - stats["parent"]["q1"])}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision of the parent side")
    ap.add_argument("--change", required=True, help="revision of the change side")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of bench/run.py; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    out_path = Path.cwd() / f"BENCH_{args.number}.json"
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {s: Path(tmp) / s for s in ("parent", "change")}
        commits = {s: export(getattr(args, s), trees[s]) for s in trees}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads, bench_env = {}, None
        for workload in args.workload:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for s in order:
                    r = run_once(trees[s], workload, seed, args.seconds)
                    bench_env = bench_env or r["environment"]
                    res = r["result"]
                    runs.append({"pair": i, "side": s, "seed": seed, "first": s == order[0],
                                 "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                                 "attempted": res["attempted"], "failed": res["failed"],
                                 "run_wall_s": r["run_wall_s"]})
                    print(f"{workload} pair {i} seed {seed} {s}: " + ", ".join(
                        f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items())
                        + f", failed {res['failed']}/{res['attempted']}", flush=True)
            workloads[workload] = {"runs": runs, "metrics": summarize(runs, spec)}
    result = {
        "parent": {"rev": args.parent, "commit": commits["parent"]},
        "change": {"rev": args.change, "commit": commits["change"]},
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "first_seed": args.seed,
                     "order": "parent first in even pairs, change first in odd pairs",
                     "quartiles": "statistics.quantiles(n=4, method='inclusive')"},
        "environment": {"started_utc": started,
                        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                        "platform": platform.platform(), "machine": platform.machine(),
                        "python": platform.python_version(), "cpu_count": os.cpu_count(),
                        "affinity": len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else None,
                        "loadavg_at_end": os.getloadavg() if hasattr(os, "getloadavg") else None,
                        "bench": bench_env},
        "workloads": workloads,
    }
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    for workload, w in workloads.items():
        for name, m in w["metrics"].items():
            print(f"{workload:14s} {name:18s} parent {m['parent']['median']:.4g} "
                  f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]  change "
                  f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}, "
                  f"{m['change']['q3']:.4g}]  wins {m['wins']['change']}/"
                  f"{sum(m['wins'].values())}  within bound {m['within_bound']}  "
                  f"claim rule {m['claim_rule_met']}")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
