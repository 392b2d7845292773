"""pfaffrep benchmark: seeded workloads driven through the real CLI.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` runs the workload as a closed loop with one client: a
single generator process spawns one ``pfaffrep`` CLI process at a time,
feeds it a problem (or a batch of problems) on stdin, checks the report
and only then spawns the next.  ``--trace 1`` replays the same problems
in-process through ``pfaffrep.cli.dispatch`` with timing wrappers and
reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric by name and unit, with sample counts, the
environment and the metrics this format has no room for.  The full
result, and the spans of a traced run, are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checker
import problems as pr
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "problems_per_s": "1/s",
    "cpu_s_per_problem": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}

# Fresh interpreters started per run to time ``import pfaffrep.cli``.
SETUP_SAMPLES = 15


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env


def spawn(args: list[str], data: bytes, env: dict) -> dict:
    """Run one child to completion; wall time from spawn to exit and its rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=env)
    try:
        # the CLI reads all of stdin before it writes, so this order cannot block
        try:
            proc.stdin.write(data)
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the child exited early; its exit code tells why
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        for f in (proc.stdout, proc.stderr):
            f.close()
    return {"wall": time.perf_counter() - t0, "code": proc.returncode,
            "out": out.decode(), "err": err.decode(),
            "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss}


def measure_setup(env: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        r = spawn(["-c", "import pfaffrep.cli"], b"", env)
        if r["code"] != 0:
            raise SystemExit(f"bench: cannot import pfaffrep.cli: {r['err'].strip()}")
        samples.append(r["wall"])
    return samples


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest sample with at least ten samples beyond it, and its percentile.

    With fewer than eleven samples no such sample exists; the median is
    reported instead, at the 50th percentile.
    """
    s = sorted(samples)
    if len(s) < 11:
        return statistics.median(s), 50.0
    i = len(s) - 11
    return s[i], 100.0 * i / (len(s) - 1)


def accuracy_digits(outcomes) -> float:
    devs = [d for o in outcomes for d in o.devs]
    return -math.log10(max(devs)) if devs else 0.0


def cli_units(workload: str, seed: int):
    """Endless stream of (items, CLI args) in the workload's cycle order."""
    i = 0
    while True:
        if workload == "batch-highdeg":
            items = [pr.problem(workload, seed, i + k) for k in range(pr.BATCH_SIZE)]
            i += pr.BATCH_SIZE
            yield items, ["batch", "-", "--format", "json"]
        else:
            item = pr.problem(workload, seed, i)
            i += 1
            yield [item], [item["doc"]["kind"], "-", "--format", "json"]


def run_cli_workload(workload: str, seed: int, seconds: float, env: dict):
    latencies, cpu, rss, outcomes = [], 0.0, 0, []
    start = time.perf_counter()
    for items, args in cli_units(workload, seed):
        docs = [it["doc"] for it in items]
        data = json.dumps(docs if args[0] == "batch" else docs[0]).encode()
        r = spawn(["-m", "pfaffrep.cli", *args], data, env)
        latencies.append(r["wall"])
        cpu += r["cpu"]
        rss = max(rss, r["rss_kb"])
        if args[0] == "batch":
            outcomes += checker.check_batch(items, r["code"], r["out"])
        else:
            outcomes.append(checker.check(items[0], r["code"], r["out"]))
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    return latencies, cpu, rss, outcomes, wall


def environment() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, ValueError):
        pass
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return {"git_revision": rev, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "blas_threads": threads or "library default (all available cores)"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(pr.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pfaffrep" / "cli.py").is_file():
        print(f"bench: no pfaffrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    setup = measure_setup(env)
    metrics, info = {}, {"environment": environment(), "workload": args.workload,
                         "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                         "setup_samples_s": setup}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcomes, layer, rounds = tracer.traced_run(
            ROOT, args.workload, args.seed, args.seconds, OUT_DIR / f"{stem}.spans.jsonl")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in tracer.PER_LAYER.items()}
        info.update(rounds=rounds, problems_per_round=len(pr.WORKLOADS[args.workload]))
    else:
        lat, cpu, rss, outcomes, wall = run_cli_workload(args.workload, args.seed, args.seconds, env)
        passed = sum(o.ok for o in outcomes)
        tail_s, tail_pct = tail(lat)
        values = {"setup_s": statistics.median(setup),
                  "latency_p50_s": statistics.median(lat),
                  "latency_tail_s": tail_s,
                  "problems_per_s": passed / wall,
                  "cpu_s_per_problem": cpu / len(outcomes),
                  "peak_rss_mb": rss / 1024.0,
                  "accuracy_digits": accuracy_digits(outcomes)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        bridges = [o for o in outcomes if o.converged is not None]
        info.update(invocations=len(lat), latency_tail_percentile=tail_pct,
                    wall_s=wall, latencies_s=lat,
                    failed_frac=sum(not o.ok for o in outcomes) / len(outcomes),
                    bridge_converged_frac=(sum(o.converged for o in bridges) / len(bridges)
                                           if bridges else None))
    failures = [o.reason for o in outcomes if not o.ok]
    result = {"correct": not failures, "attempted": len(outcomes),
              "failed": len(failures), "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({**result, "info": info, "failures": failures}, indent=1))
    samples = {"setup_s": len(setup)}
    if not args.trace:
        samples.update(latency_p50_s=info["invocations"], latency_tail_s=info["invocations"])
    for name, m in metrics.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name:42s} {m['value']:.6g} {m['unit']}{note}")
    if not args.trace:
        print(f"{'latency_tail_s percentile':42s} p{info['latency_tail_percentile']:.0f}")
        print(f"{'failed_frac':42s} {info['failed_frac']:.6g} ratio  "
              f"({len(failures)} of {len(outcomes)})")
        bcf = info["bridge_converged_frac"]
        print(f"{'bridge_converged_frac':42s} "
              f"{'n/a (no bridge problems)' if bcf is None else f'{bcf:.6g} ratio'}")
    for reason in failures[:10]:
        print(f"failed: {reason}")
    print("environment " + json.dumps(info["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
