"""Span tracer for the traced benchmark run.

Wrappers are installed at the names the package looks functions up under
(``etmhe.harness.solve_nlp``, ``etmhe.mhe.rollout``, ...) and removed
again, so untraced passes run the package unmodified. The model's f and h
are wrapped by rebuilding the model with ``dataclasses.replace`` whenever
``cli.parse_config`` returns a config. Spans are kept in flat arrays in
memory and written once, at the end, by ``write``.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import statistics
from array import array
from time import perf_counter

import numpy as np


def _rows(x) -> int:
    """Number of state rows in a possibly batched (..., n) argument."""
    return int(np.prod(np.shape(x)[:-1], dtype=np.int64))


# (module, attribute, span name, count taken from (args, result)).
# A name is wrapped in every module that looks it up, so each call is
# traced exactly once whoever the caller is.
WRAPS = [
    ("etmhe.cli", "main", "cli.main", None),
    ("etmhe.cli", "parse_config", "cli.parse_config", None),
    ("etmhe.cli", "run_alpha_sweep", "harness.run_alpha_sweep", None),
    ("etmhe.harness", "run_closed_loop", "harness.run_closed_loop", None),
    ("etmhe.harness", "verify_proposition1", "harness.verify_proposition1", None),
    ("etmhe.harness", "check_rges", "harness.check_rges", None),
    ("etmhe.harness", "solve_nlp", "mhe.solve_nlp", lambda a, r: r.iterations),
    ("etmhe.harness", "assemble_event_solution", "mhe.assemble_event_solution", None),
    ("etmhe.harness", "open_loop_predict", "mhe.open_loop_predict", None),
    ("etmhe.mhe", "open_loop_predict", "mhe.open_loop_predict", None),
    ("etmhe.mhe", "rollout", "mhe.rollout", lambda a, r: _rows(a[1])),
    ("etmhe.harness", "evaluate_trigger", "trigger.evaluate_trigger",
     lambda a, r: int(r)),
    ("etmhe.harness", "compute_d", "trigger.compute_d", None),
    ("etmhe.harness", "advance", "trigger.advance", None),
    ("etmhe.harness", "rges_bound", "certificate.rges_bound", None),
    ("etmhe.mhe", "min_horizon", "certificate.min_horizon", None),
    ("etmhe.certificate", "min_horizon", "certificate.min_horizon", None),
]


class Tracer:
    """Nested spans (name, start, end, parent span, run id) in flat arrays."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("H")
        self.n = array("q")          # per-span count: rows, iterations, fired
        self.run_ids = []
        self._stack = [-1]
        self._saved = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_run(self, run_id: str) -> int:
        self.run_ids.append(run_id)
        return len(self.run_ids) - 1

    def wrap(self, name, fn, count=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.run.append(len(self.run_ids) - 1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.n.append(0)
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if count is not None:
                self.n[sid] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) under a span called name."""
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        for module, attr, name, count in WRAPS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            if attr == "parse_config":
                setattr(mod, attr, self.wrap(name, self._model_wrapping(original)))
            else:
                setattr(mod, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _model_wrapping(self, parse_config):
        def parse_traced(path):
            cfg = parse_config(path)
            model = dataclasses.replace(
                cfg.model,
                f=self.wrap("model.f", cfg.model.f, lambda a, r: _rows(a[0])),
                h=self.wrap("model.h", cfg.model.h))
            return dataclasses.replace(cfg, model=model)
        return parse_traced

    def summarize(self, run: int) -> tuple:
        """Per-name totals over one run (calls, self seconds, inclusive
        durations, summed counts) and the number of model.f calls made
        inside a trigger evaluation."""
        f_id = self._name_ids.get("model.f")
        trig_id = self._name_ids.get("trigger.evaluate_trigger")
        totals = {name: {"calls": 0, "self_s": 0.0, "incl": [], "n": 0}
                  for name in self.names}
        sids = [i for i in range(len(self.start)) if self.run[i] == run]
        child_s = {}
        for sid in reversed(sids):   # children come after their parent
            dur = self.end[sid] - self.start[sid]
            entry = totals[self.names[self.name[sid]]]
            entry["calls"] += 1
            entry["incl"].append(dur)
            entry["n"] += self.n[sid]
            entry["self_s"] += dur - child_s.pop(sid, 0.0)
            parent = self.parent[sid]
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + dur
        under_trig = {}
        f_under_trig = 0
        for sid in sids:
            inside = under_trig.get(self.parent[sid], False)
            under_trig[sid] = inside or self.name[sid] == trig_id
            f_under_trig += inside and self.name[sid] == f_id
        return totals, f_under_trig

    def write(self, path) -> None:
        """All spans, one row each, in one uncompressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), run_ids=np.array(self.run_ids),
                     name=np.frombuffer(self.name, np.uint16),
                     start=np.frombuffer(self.start, np.float64),
                     end=np.frombuffer(self.end, np.float64),
                     parent=np.frombuffer(self.parent, np.int64),
                     run=np.frombuffer(self.run, np.uint16),
                     n=np.frombuffer(self.n, np.int64))


# Counts that must repeat exactly on identical inputs.
EXACT = ("model.f.calls", "model.f.rows", "mhe.lm_iters", "mhe.rollout.calls",
         "trigger.evaluate_trigger.f_calls", "certificate.rges_bound.calls")

PER_LAYER_UNITS = {
    "model.f.calls": "count", "model.f.rows": "count",
    "model.f.us_per_call": "us", "model.f.self_s": "s", "model.h.self_s": "s",
    "mhe.solve_nlp.calls": "count", "mhe.solve_nlp.self_s": "s",
    "mhe.solve_nlp.ms_p50": "ms", "mhe.solve_nlp.ms_p90": "ms",
    "mhe.lm_iters": "count", "mhe.rollout.calls": "count",
    "mhe.rollout.rows": "count", "mhe.rollout.self_s": "s",
    "mhe.rollouts_per_iter": "ratio",
    "mhe.assemble_event_solution.self_s": "s", "mhe.open_loop_predict.self_s": "s",
    "trigger.evaluate_trigger.calls": "count", "trigger.evaluate_trigger.self_s": "s",
    "trigger.evaluate_trigger.us_per_call": "us",
    "trigger.evaluate_trigger.f_calls": "count", "trigger.fire_frac": "frac",
    "trigger.compute_d.self_s": "s", "trigger.advance.self_s": "s",
    "certificate.rges_bound.calls": "count", "certificate.rges_bound.self_s": "s",
    "certificate.min_horizon.self_s": "s",
    "harness.run_closed_loop.self_s": "s", "harness.run_alpha_sweep.self_s": "s",
    "harness.verify_proposition1.self_s": "s", "harness.check_rges.self_s": "s",
    "cli.parse_config.self_s": "s", "cli.main.self_s": "s",
    "cli.sweep_csv.bytes": "bytes", "trace.overhead_frac": "frac",
}


def layer_metrics(summary: dict, f_under_trigger: int) -> dict:
    """Per-layer metrics of one traced pass; a layer the pass never called
    reads 0."""
    empty = {"calls": 0, "self_s": 0.0, "incl": [], "n": 0}

    def get(name):
        return summary.get(name, empty)

    f, solve, roll, trig = (get("model.f"), get("mhe.solve_nlp"), get("mhe.rollout"),
                            get("trigger.evaluate_trigger"))
    out = {
        "model.f.calls": f["calls"],
        "model.f.rows": f["n"],
        "model.f.us_per_call": 1e6 * f["self_s"] / max(f["calls"], 1),
        "mhe.solve_nlp.calls": solve["calls"],
        "mhe.lm_iters": solve["n"],
        "mhe.rollout.calls": roll["calls"],
        "mhe.rollout.rows": roll["n"],
        "mhe.rollouts_per_iter": roll["calls"] / max(solve["n"], 1),
        "trigger.evaluate_trigger.calls": trig["calls"],
        "trigger.evaluate_trigger.us_per_call": 1e6 * sum(trig["incl"]) / max(trig["calls"], 1),
        "trigger.evaluate_trigger.f_calls": f_under_trigger,
        "trigger.fire_frac": trig["n"] / max(trig["calls"], 1),
        "certificate.rges_bound.calls": get("certificate.rges_bound")["calls"],
        "mhe.solve_nlp.ms_p50": 1e3 * _quantile(solve["incl"], 0.5),
        "mhe.solve_nlp.ms_p90": 1e3 * _quantile(solve["incl"], 0.9),
    }
    for metric in PER_LAYER_UNITS:
        if metric.endswith(".self_s") and metric not in out:
            out[metric] = get(metric[:-len(".self_s")])["self_s"]
    return out


def _quantile(values, q) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over the traced passes; counts stay integers."""
    def median(values):
        if all(isinstance(v, int) for v in values):
            return statistics.median_low(values)
        return statistics.median(values)
    return {k: median([p[k] for p in per_pass]) for k in per_pass[0]}
