"""In-memory span tracing of hopfdual's public functions, applied from outside.

`Tracer.install` replaces each traced function with a wrapper in every
hopfdual module (and the package namespace) that holds a reference to it,
so that names imported elsewhere -- `analysis.simulate`, `cli.estimate_cycle`
-- are traced as well. A call made while another traced call is running
becomes that call's child span; a span's self time is its duration minus
the time covered by its children. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

from hopfdual import analysis, bifurcation, cli, config, dde, hopf, model, numdiff

ROOT_SPAN = "bench.unit"


def _steps(counts, args, kwargs, traj):
    counts["dde.simulate.steps"] += len(traj.values) - 1


def _file_bytes(key, path_arg):
    def hook(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[path_arg])
    return hook


def _estimate(counts, args, kwargs, est):
    counts["analysis.estimate_cycle.samples"] += len(args[0].values)
    counts["analysis.regime." + est.regime.value] += 1


def _sweep_rows(counts, args, kwargs, rows):
    counts["analysis.sweep.rows"] += len(rows)
    counts["analysis.sweep.rows_failed"] += sum(row.status != "ok" for row in rows)


def _exit_code(counts, args, kwargs, code):
    counts["cli.main.nonzero_exits"] += code != 0


# (span name, owner object, attribute, result hook). The span name is the
# defining module plus the function name; `hopf.sample` is the method
# CyclePrediction.sample.
TARGETS = (
    ("model.find_equilibrium", model, "find_equilibrium", None),
    ("model.taylor_coefficients", model, "taylor_coefficients", None),
    ("model.numeric_taylor_oracle", model, "numeric_taylor_oracle", None),
    ("numdiff.derivative", numdiff, "derivative", None),
    ("numdiff.mixed_partial", numdiff, "mixed_partial", None),
    ("bifurcation.linear_analysis", bifurcation, "linear_analysis", None),
    ("bifurcation.rightmost_root", bifurcation, "rightmost_root", None),
    ("hopf.hopf_expansion", hopf, "hopf_expansion", None),
    ("hopf.classify", hopf, "classify", None),
    ("hopf.predicted_cycle", hopf, "predicted_cycle", None),
    ("hopf.sample", hopf.CyclePrediction, "sample", None),
    ("dde.simulate", dde, "simulate", _steps),
    ("dde.write_trajectory_csv", dde, "write_trajectory_csv",
     _file_bytes("dde.write_trajectory_csv.bytes", 1)),
    ("dde.read_trajectory_csv", dde, "read_trajectory_csv",
     _file_bytes("dde.read_trajectory_csv.bytes", 0)),
    ("analysis.sweep", analysis, "sweep", _sweep_rows),
    ("analysis.estimate_cycle", analysis, "estimate_cycle", _estimate),
    ("analysis.compare_prediction", analysis, "compare_prediction", None),
    ("cli.main", cli, "main", _exit_code),
    ("cli.verify_coefficients", cli, "verify_coefficients", None),
    ("config.load_config", config, "load_config", None),
)


class Tracer:
    """Records spans (name, start, end, parent) and exact counts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, hook=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Swap every reference to a target function for its traced wrapper."""
        modules = [m for key, m in sys.modules.items()
                   if key == "hopfdual" or key.startswith("hopfdual.")]
        for name, owner, attr, hook in TARGETS:
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, hook)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._patches.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches.clear()

    def mark(self) -> tuple[int, dict]:
        """Position to summarise from: span index and a copy of the counts."""
        return len(self.names), dict(self.counts)

    def summary(self, since: tuple[int, dict]) -> dict:
        """Per-name calls, busy (inclusive) and self seconds, plus count
        deltas, for the spans recorded after `since`."""
        first, counts_before = since
        child = defaultdict(float)
        for i in range(first, len(self.names)):
            p = self.parents[i]
            if p >= first:
                child[p] += self.ends[i] - self.starts[i]
        per_name: dict[str, list[float]] = {}
        for i in range(first, len(self.names)):
            dur = self.ends[i] - self.starts[i]
            acc = per_name.setdefault(self.names[i], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child[i]
        counts = {k: v - counts_before.get(k, 0.0) for k, v in self.counts.items()}
        return {"spans": per_name, "counts": counts}

    def write(self, path) -> None:
        """Dump every span as columns (names interned) to a JSON file."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": table,
                "name": [index[n] for n in self.names],
                "start": self.starts,
                "end": self.ends,
                "parent": self.parents,
            }, fh)


# Exact counts the result hooks above collect.
COUNTS = (
    "dde.simulate.steps", "dde.write_trajectory_csv.bytes", "dde.read_trajectory_csv.bytes",
    "analysis.sweep.rows", "analysis.sweep.rows_failed", "analysis.estimate_cycle.samples",
    "analysis.regime.limit_cycle", "analysis.regime.equilibrium",
    "analysis.regime.undetermined", "cli.main.nonzero_exits",
)


def layer_metrics(summary: dict, demand_evals: int) -> dict:
    """Per-layer metrics of one traced unit: calls, busy and self seconds of
    every traced function, the exact counts, and rates derived from them."""
    spans, counts = summary["spans"], summary["counts"]
    out: dict[str, float] = {}
    for name in [target[0] for target in TARGETS] + [ROOT_SPAN]:
        calls, busy, self_s = spans.get(name, (0, 0.0, 0.0))
        out.update({f"{name}.calls": calls, f"{name}.busy_s": busy, f"{name}.self_s": self_s})
    out.update({key: counts.get(key, 0) for key in COUNTS})
    out["numdiff.demand_evals"] = demand_evals

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    root_busy = out[f"{ROOT_SPAN}.busy_s"]
    out.update({
        "dde.simulate.ns_per_step": ratio(
            out["dde.simulate.busy_s"], out["dde.simulate.steps"], 1e9),
        "dde.write_trajectory_csv.mb_per_s": ratio(
            out["dde.write_trajectory_csv.bytes"] / 1e6, out["dde.write_trajectory_csv.busy_s"]),
        "dde.read_trajectory_csv.mb_per_s": ratio(
            out["dde.read_trajectory_csv.bytes"] / 1e6, out["dde.read_trajectory_csv.busy_s"]),
        "analysis.estimate_cycle.ms_per_1e5_samples": ratio(
            out["analysis.estimate_cycle.busy_s"], out["analysis.estimate_cycle.samples"], 1e8),
        # Share of the traced unit spent inside hopfdual's layers: the layer
        # self times sum to this share of the unit's wall time.
        "trace.layer_self_frac": ratio(root_busy - out[f"{ROOT_SPAN}.self_s"], root_busy),
    })
    return out
