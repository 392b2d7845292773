"""Smoke test of the benchmark harness: ``python3 -m pytest bench/tests``.

Each workload, including ``bridge-corpus`` which ``BENCHMARK.json`` does
not gate, runs at its smallest size (one CLI unit, or one round in the
traced run), and the printed metric names and units must match
``BENCHMARK.json``.  The checker must reject a report with one perturbed
pfaffian coefficient.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import problems as pr  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(pr.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    lines = run_bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines[:-1]), m["name"]


def test_checker_rejects_perturbed_pfaffian():
    item = pr.problem("cli-small", 0, 0)
    assert item["doc"]["kind"] == "pf"
    _, modules = tracer.load_program(ROOT)
    code, text = tracer.run_inprocess(modules, item["doc"])
    assert checker.check(item, code, text).ok
    report = json.loads(text)
    bad = copy.deepcopy(report)
    coeff = bad["outputs"]["pfaffian"]["terms"][0]["coeff"]
    coeff[0] = coeff[0] * (1 + 1e-4) + 1e-4
    outcome = checker.check(item, code, json.dumps(bad))
    assert not outcome.ok
    assert "independent check" in outcome.reason
