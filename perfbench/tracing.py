"""Timing wrappers for the traced run: spans with parent links, and counters.

Each wrapped public function records one span (name, parent, start, end,
round) per call. A wrapper replaces the function in every menf namespace
that bound it by name (``menf.cli.simulate`` as well as
``menf.sim.simulate``, ``menf.tuning.solve_are_stabilizing`` as well as
``menf.riccati.solve_are_stabilizing``) and in keyword defaults that hold it
(``tune_scalar(gm_builder=assemble_global)``). Spans stay in memory until
the run ends. A span's self time is its duration minus its direct
children's; a layer metric sums the self times of its spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
import types
from pathlib import Path

MODULES = ("menf", "menf.cli", "menf.sim", "menf.tuning", "menf.riccati", "menf.model",
           "menf.scenario_io", "menf.verify", "menf.filters")

# (home module, function, span name)
TARGETS = (
    ("menf.sim", "simulate", "sim.simulate"),
    ("menf.sim", "realize_disturbances", "sim.realize"),
    ("menf.riccati", "solve_are_stabilizing", "riccati.are"),
    ("menf.tuning", "tune_scalar", "tuning.tune"),
    ("menf.tuning", "node_feasible", "tuning.node_feasible"),
    ("menf.model", "build_network", "model.build"),
    ("menf.model", "assemble_global", "model.assemble"),
    ("menf.scenario_io", "parse_document", "scenario_io.parse"),
    ("menf.verify", "check_hinf", "verify.check_hinf"),
    ("menf.cli", "main", "cli"),
)

# per-layer metric -> span names whose self times it sums
SELF_TIMES = {
    "sim.simulate_s": ("sim.simulate",),
    "sim.realize_s": ("sim.realize",),
    "riccati.are_s": ("riccati.are",),
    "tuning.tune_s": ("tuning.tune", "tuning.node_feasible"),
    "model.build_s": ("model.build", "model.assemble"),
    "scenario_io.parse_s": ("scenario_io.parse",),
    "verify.check_hinf_s": ("verify.check_hinf",),
    "cli.export_s": ("cli.simulate", "cli.reproduce-chua"),
    "cli.reload_s": ("cli.verify",),
}
CALL_COUNTS = {
    "riccati.are_solves": "riccati.are",
    "tuning.node_feasible_calls": "tuning.node_feasible",
}
SETUP = -1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, round, steps, nodes]
        self._stack: list[int] = []
        self.round = SETUP

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label, steps, nodes = name, 0, 0
            if name == "cli":
                argv = args[0] if args else kwargs.get("argv")
                label = "cli." + (argv[0] if argv else "?")
            elif name == "sim.simulate":
                scenario = args[0] if args else kwargs["scenario"]
                steps, nodes = scenario.steps, scenario.network.N
            idx = len(spans)
            spans.append([label, stack[-1] if stack else None, time.perf_counter(), None,
                          self.round, steps, nodes])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        functions = [obj for mod in modules for obj in vars(mod).values()
                     if isinstance(obj, types.FunctionType)]
        for home, attr, name in TARGETS:
            orig = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(orig, name)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapper)
            for fn in functions:
                for key, value in (fn.__kwdefaults__ or {}).items():
                    if value is orig:
                        fn.__kwdefaults__[key] = wrapper

    def self_times(self) -> list[float]:
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[3] - s[2]
        return own

    def layer_metrics(self, round_seconds: list[float], output_bytes: list[int]) -> dict:
        """Per-layer figures of one set-up plus a median round.

        Each metric is its set-up share plus the median over rounds of its
        per-round value, so a value reads as "set-up and one typical round".
        """
        own = self.self_times()
        rounds = len(round_seconds)

        def total(names, values) -> float:
            sums = [0.0] * (rounds + 1)  # index 0 holds the set-up
            for s, v in zip(self.spans, values):
                if s[0] in names:
                    sums[s[4] + 1] += v
            return sums[0] + statistics.median(sums[1:])

        ones = [1] * len(own)
        metrics = {metric: (total(names, own), "s") for metric, names in SELF_TIMES.items()}
        for metric, name in CALL_COUNTS.items():
            metrics[metric] = (total((name,), ones), "count")
        simulate = ("sim.simulate",)
        metrics["sim.steps"] = (total(simulate, [s[5] for s in self.spans]), "count")
        node_steps = total(simulate, [s[5] * s[6] for s in self.spans])
        sim_s = metrics["sim.simulate_s"][0]
        metrics["sim.node_step_us"] = (1e6 * sim_s / node_steps if node_steps else 0.0, "us")
        metrics["cli.output_mb"] = (statistics.median(output_bytes) / 1e6, "MB")
        metrics["trace.run_s"] = (statistics.median(round_seconds), "s")
        return metrics

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "parent", "start", "end", "round", "steps", "nodes"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
