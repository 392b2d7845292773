"""In-process replay of a workload's problems, with and without timing wrappers.

The traced run imports ``pfaffrep`` from the checkout, replays whole
rounds of the workload's problem cycle through ``pfaffrep.cli.dispatch``
once untraced and once traced, and turns the spans into per-layer
metrics.  The wrappers live here: the program itself is not changed.

A span is recorded around every public function of the layer modules,
at every name it is bound to (the defining module, each importing
module and the package), and around ``SkewPencil.pfaffian``,
``DetRep.det_poly`` and ``HomPoly.restrict_line``.  ``HomPoly``
multiplication and addition are only counted: they run thousands of
times inside one pfaffian, so their time stays in the pfaffian's self
time.  Each span stores its name, start, end, parent and problem id.
Counts and times are reported per round of the cycle.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import checker
import problems as pr

LAYERS = ("cli", "jsonio", "poly", "pencil", "canonical", "incidence", "transforms",
          "bridge", "quartic")

# name -> unit; every traced run reports each of these.
PER_LAYER = {
    "pencil.pfaffian.calls": "count/round",
    "pencil.pfaffian.computed": "count/round",
    "pencil.pfaffian.s": "s/round",
    **{f"pencil.pfaffian.p50_s.d{d}": "s" for d in range(2, 8)},
    "pencil.pfaffian.self_frac": "ratio",
    "poly.HomPoly.mul.calls": "count/round",
    "poly.HomPoly.add.calls": "count/round",
    "pencil.pfaffian_numeric.s": "s/round",
    "pencil.pfaffian_minor.s": "s/round",
    "pencil.pfaffian_adjoint_at.s": "s/round",
    "pencil.DetRep.det_poly.s": "s/round",
    "cli.dispatch.self_s": "s/round",
    "cli.dispatch.calls": "count/round",
    "cli.report_bytes": "bytes/round",
    "jsonio.decode.s": "s/round",
    "jsonio.encode.s": "s/round",
    "jsonio.decode.calls": "count/round",
    "canonical.to_canonical.self_s": "s/round",
    "canonical.to_second_canonical.s": "s/round",
    "canonical.structure_report.s": "s/round",
    "poly.roots_on_line.s": "s/round",
    "poly.equal_up_to_scale.s": "s/round",
    "pencil.kernel_at.calls": "count/round",
    "pencil.kernel_at.s": "s/round",
    "pencil.kernel_at.rank_fail": "count/round",
    "incidence.sample_curve_points.calls": "count/round",
    "incidence.sample_curve_points.s": "s/round",
    "poly.HomPoly.restrict_line.s": "s/round",
    "transforms.type2.calls": "count/round",
    "transforms.type2.s": "s/round",
    "bridge.bridge_to_decomposable.s": "s/round",
    "bridge.steps": "count",
    "bridge.step_s": "s",
    "bridge.kernel_calls_per_step": "count",
    "bridge.converged_frac": "ratio",
    "bridge.stopped_budget_frac": "ratio",
    "bridge.stopped_stalled_frac": "ratio",
    "incidence.classify_pair.s": "s/round",
    "incidence.classify_pair.admissible_frac": "ratio",
    "incidence.k_constant.calls": "count/round",
    "incidence.partner_points.s": "s/round",
    "transforms.type1.s": "s/round",
    "transforms.conint.s": "s/round",
    "transforms.verify_replay.s": "s/round",
    "transforms.bundle_maps_check.s": "s/round",
    "quartic.scorza_map.s": "s/round",
    "quartic.polar_triangle.s": "s/round",
    "quartic.factor_three_lines.s": "s/round",
    "quartic.identify_theta.s": "s/round",
    "quartic.bitangent_from_octad.s": "s/round",
    "scale_probe.failed_frac": "ratio",
    "pair_probe.failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def metric_key(span_name: str) -> str:
    """Span name -> the metric stem its time is summed under."""
    if span_name.startswith("jsonio.dec_"):
        return "jsonio.decode"
    if span_name.startswith("jsonio.enc_"):
        return "jsonio.encode"
    return span_name


class Tracer:
    """Spans in flat arrays: name id, start and end (ns), parent index, problem id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.t0 = array("q")
        self.t1 = array("q")
        self.parent = array("l")
        self.problem_of = array("l")
        self.failed: Counter = Counter()
        self.pf_info: dict[int, tuple[bool, int]] = {}  # span -> (computed, d)
        self.counts: Counter = Counter()
        self.problem = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.t0.append(0)
        self.t1.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.problem_of.append(self.problem)
        self._stack.append(idx)
        return idx

    def spanned(self, name: str, fn):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            self.t0[idx] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.failed[(name, type(exc).__name__)] += 1
                raise
            finally:
                self.t1[idx] = clock()
                self._stack.pop()
        wrapper.__wrapped__ = fn
        return wrapper

    def pfaffian_spanned(self, fn):
        inner = self.spanned("pencil.pfaffian", fn)

        def pfaffian(pencil):
            self.pf_info[len(self.name)] = (pencil._pf is None, pencil.half_deg)
            return inner(pencil)
        return pfaffian

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, pkg, modules: dict) -> None:
        namespaces = [pkg, *modules.values()]
        for layer, mod in modules.items():
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self.spanned(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            self._set(ns, attr, wrapped)
        pencil, poly = modules["pencil"], modules["poly"]
        self._set(pencil.SkewPencil, "pfaffian", self.pfaffian_spanned(pencil.SkewPencil.pfaffian))
        self._set(pencil.DetRep, "det_poly",
                  self.spanned("pencil.DetRep.det_poly", pencil.DetRep.det_poly))
        self._set(poly.HomPoly, "restrict_line",
                  self.spanned("poly.HomPoly.restrict_line", poly.HomPoly.restrict_line))
        mul = self.counted("poly.HomPoly.mul", poly.HomPoly.__mul__)
        self._set(poly.HomPoly, "__mul__", mul)
        self._set(poly.HomPoly, "__rmul__", mul)
        self._set(poly.HomPoly, "__add__", self.counted("poly.HomPoly.add", poly.HomPoly.__add__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.name)):
                fh.write(json.dumps([i, self.name[i], self.t0[i], self.t1[i],
                                     self.parent[i], self.problem_of[i]]) + "\n")


def load_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    pkg = importlib.import_module("pfaffrep")
    modules = {name: importlib.import_module(f"pfaffrep.{name}") for name in LAYERS}
    return pkg, modules


def run_inprocess(modules: dict, doc: dict) -> tuple[int, str]:
    """One problem through ``parse_problem`` and ``dispatch``, with the CLI's
    exit-code mapping; returns the exit code and the JSON report text."""
    cli, errors = modules["cli"], sys.modules["pfaffrep.errors"]
    try:
        report = cli.dispatch(cli.parse_problem(doc))
    except errors.SchemaError:
        return 2, ""
    except errors.NumericalError:
        return 3, ""
    except errors.PreconditionError:
        return 4, ""
    except errors.PfaffrepError:
        return 3, ""
    except ValueError:
        return 2, ""
    clean = {k: v for k, v in report.items() if not k.startswith("_")}
    code = 3 if any(not r["ok"] for r in report["residuals"].values()) else 0
    return code, json.dumps(clean, sort_keys=True, indent=2)


def _pass(modules, items, tracer=None):
    """Run every item; returns per-problem seconds, outcomes and report bytes."""
    times, outcomes, nbytes = [], [], 0
    for pid, item in enumerate(items):
        if tracer is not None:
            tracer.problem = pid
        t0 = time.perf_counter()
        code, text = run_inprocess(modules, item["doc"])
        times.append(time.perf_counter() - t0)
        nbytes += len(text)
        outcomes.append(checker.check(item, code, text))
    return times, outcomes, nbytes


def span_metrics(tr: Tracer, rounds: int) -> tuple[dict, int, float]:
    """Per-round span metrics, kernel_at calls under bridge spans, and the
    pfaffian's total self time."""
    n = len(tr.name)
    key = [metric_key(tr.names[tr.name[i]]) for i in range(n)]
    dur = [(tr.t1[i] - tr.t0[i]) * 1e-9 for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tr.parent[i] >= 0:
            child[tr.parent[i]] += dur[i]
    incl, self_s, calls = Counter(), Counter(), Counter()
    in_bridge_kernel = 0
    for i in range(n):
        k = key[i]
        calls[k] += 1
        self_s[k] += dur[i] - child[i]
        p, nested, under_bridge = tr.parent[i], False, False
        while p >= 0:
            nested = nested or key[p] == k
            under_bridge = under_bridge or key[p] == "bridge.bridge_to_decomposable"
            p = tr.parent[p]
        if not nested:
            incl[k] += dur[i]
        if k == "pencil.kernel_at" and under_bridge:
            in_bridge_kernel += 1
    per_d: dict[int, list] = {}
    computed = 0
    for i, (was_computed, d) in tr.pf_info.items():
        if was_computed:
            computed += 1
            per_d.setdefault(d, []).append(dur[i])
    m = {}
    for name in PER_LAYER:
        stem, _, stat = name.rpartition(".")
        if stat == "s":
            m[name] = incl[stem] / rounds
        elif stat == "self_s":
            m[name] = self_s[stem] / rounds
        elif stat == "calls":
            m[name] = (tr.counts[stem] if stem.startswith("poly.HomPoly") else calls[stem]) / rounds
    m["pencil.pfaffian.computed"] = computed / rounds
    for d in range(2, 8):
        m[f"pencil.pfaffian.p50_s.d{d}"] = statistics.median(per_d[d]) if d in per_d else 0.0
    m["pencil.kernel_at.rank_fail"] = tr.failed[("pencil.kernel_at", "RankDeficiency")] / rounds
    return m, in_bridge_kernel, self_s["pencil.pfaffian"]


def bridge_metrics(items, outcomes, bridge_s: float, kernel_calls: int) -> dict:
    runs = [(it, o) for it, o in zip(items, outcomes) if it["doc"]["kind"] == "bridge"
            and o.steps is not None]
    n = max(len(runs), 1)
    steps = sum(o.steps for _, o in runs)
    stopped_budget = sum(1 for it, o in runs if not o.converged
                         and o.steps == it["doc"]["payload"]["budget"])
    stalled = sum(1 for _, o in runs if not o.converged) - stopped_budget
    return {"bridge.steps": steps / n,
            "bridge.step_s": bridge_s / steps if steps else 0.0,
            "bridge.kernel_calls_per_step": kernel_calls / steps if steps else 0.0,
            "bridge.converged_frac": sum(1 for _, o in runs if o.converged) / n,
            "bridge.stopped_budget_frac": stopped_budget / n,
            "bridge.stopped_stalled_frac": stalled / n}


def probe_failed_frac(modules, items) -> float:
    _, outcomes, _ = _pass(modules, items)
    return sum(not o.ok for o in outcomes) / len(items)


def traced_run(root: Path, workload: str, seed: int, seconds: float, spans_path: Path):
    """Untraced then traced in-process passes over the same whole rounds.

    Returns the outcomes of the traced pass, the per-layer metrics and the
    number of rounds.
    """
    pkg, modules = load_program(root)
    cycle = len(pr.WORKLOADS[workload])
    items, times = [], []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds / 2:
        batch = [pr.problem(workload, seed, rounds * cycle + k) for k in range(cycle)]
        t, _, _ = _pass(modules, batch)
        items += batch
        times += t
        rounds += 1
    tr = Tracer()
    tr.install(pkg, modules)
    try:
        traced_times, outcomes, nbytes = _pass(modules, items, tr)
    finally:
        tr.uninstall()
    m, bridge_kernel_calls, pfaffian_self_s = span_metrics(tr, rounds)
    m.update(bridge_metrics(items, outcomes, m["bridge.bridge_to_decomposable.s"] * rounds,
                            bridge_kernel_calls))
    labels = [o.label for o in outcomes if o.label]
    m["incidence.classify_pair.admissible_frac"] = (
        labels.count("admissible") / len(labels) if labels else 0.0)
    m["pencil.pfaffian.self_frac"] = pfaffian_self_s / sum(traced_times)
    m["cli.report_bytes"] = nbytes / rounds
    m["trace.overhead_frac"] = sum(traced_times) / sum(times) - 1.0
    m["scale_probe.failed_frac"] = probe_failed_frac(modules, pr.scale_probe(seed))
    m["pair_probe.failed_frac"] = probe_failed_frac(modules, pr.pair_probe(seed))
    tr.write(spans_path)
    return outcomes, m, rounds
