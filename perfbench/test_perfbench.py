"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Small-size units of every workload must pass their checks, a perturbed
output must raise the failed fraction, tracing must not change outputs, and
every metric named in BENCHMARK.json must be one the benchmark produces.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Per-layer metrics that run.py adds from the set-up probes, the reference
# loop and the untraced units rather than from a traced unit.
RUN_LEVEL = {"setup.import_s", "setup.inputs_s", "trace.wall_s", "trace.overhead_frac",
             "bench.wall_s", "bench.ref_loop_s"}


def small(name, workdir):
    wl = workloads.WORKLOADS[name]
    return wl, wl.make_inputs(7, small=True, workdir=workdir)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_unit_passes_its_checks(name, tmp_path):
    wl, inputs = small(name, tmp_path)
    out = wl.run(inputs)
    gate = workloads.Gate(wl, inputs, wl.record(inputs, out))
    gate.add(out)
    gate.add(wl.run(inputs))
    assert gate.reasons == []
    assert gate.attempted == 2 * wl.items(inputs)
    assert gate.failed_frac == 0.0


def _perturbed(name, output):
    """The output with one item broken in a way its check must catch."""
    if name == "onset_sweep":
        return [dataclasses.replace(output[0], status="TooShort")] + output[1:]
    if name == "trajectory_io":
        return {**output, "simulate": [(3, output["simulate"][0][1])] + output["simulate"][1:]}
    broken = {**output[0].values, "root_hi": -1e-3}
    return [dataclasses.replace(output[0], values=broken)] + output[1:]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_output_raises_failed_frac(name, tmp_path):
    wl, inputs = small(name, tmp_path)
    out = wl.run(inputs)
    gate = workloads.Gate(wl, inputs, None)
    gate.add(_perturbed(name, out))
    assert 0.0 < gate.failed_frac < 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_recorded_values_compare_to_round_off(name, tmp_path):
    wl, inputs = small(name, tmp_path)
    out = wl.run(inputs)
    ref = wl.record(inputs, out)

    def scaled(factor):
        def walk(node):
            if isinstance(node, dict):
                return {k: walk(v) for k, v in node.items()}
            if isinstance(node, list):
                return [walk(v) for v in node]
            if isinstance(node, float) and not isinstance(node, bool):
                return node * factor
            return node
        return walk(ref)

    def failed(recorded):
        gate = workloads.Gate(wl, inputs, recorded)
        gate.add(out)
        return gate.failed

    assert failed(scaled(1.0 + 1e-12)) == 0
    assert failed(scaled(1.0 + 1e-5)) > 0


def test_output_change_between_units_fails_every_item(tmp_path):
    wl, inputs = small("onset_sweep", tmp_path)
    out = wl.run(inputs)
    gate = workloads.Gate(wl, inputs, None)
    gate.add(out)
    moved = [dataclasses.replace(out[0], amp_meas=out[0].amp_meas * (1 + 1e-15))] + out[1:]
    gate.add(moved)
    assert gate.failed == wl.items(inputs)
    assert "differ" in gate.reasons[-1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_alone_and_accounts_for_the_unit(name, tmp_path):
    wl, inputs = small(name, tmp_path)
    plain = wl.fingerprint(inputs, wl.run(inputs))
    tracer = tracing.Tracer()
    mark = tracer.mark()
    tracer.install()
    try:
        out = tracer.wrap(tracing.ROOT_SPAN, wl.run)(inputs)
    finally:
        tracer.uninstall()
    assert wl.fingerprint(inputs, out) == plain
    metrics = tracing.layer_metrics(tracer.summary(mark), 0)
    assert metrics["trace.layer_self_frac"] > 0.9
    assert metrics[f"{tracing.ROOT_SPAN}.calls"] == 1
    # every wrapper was removed again
    assert workloads.analysis.simulate is workloads.dde.simulate
    assert not hasattr(workloads.dde.simulate, "__wrapped__")
    if name == "closed_form_grid":
        assert metrics["dde.simulate.calls"] == 0
    else:
        assert metrics["dde.simulate.steps"] > 0


def test_declared_metrics_are_named_and_produced(tmp_path):
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names), names
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    produced = set(tracing.layer_metrics({"spans": {}, "counts": {}}, 0)) | RUN_LEVEL
    assert {m["name"] for m in SPEC["per_layer"]} <= produced


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "onset_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
