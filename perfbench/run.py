"""hopfdual benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads and metrics are declared in
BENCHMARK.json next to this directory; perfbench/README.md maps each layer
metric to the end-to-end metric and workload it should move.

The process pins itself to the CPU it starts on. Set-up is measured by
fresh interpreters that import hopfdual and build the workload's inputs,
spread over the run. The run repeats the workload's unit, one at a time on
one thread, until the next unit would overrun S seconds (at least one unit),
and checks every unit's outputs. Next to every unit and set-up probe it
times a fixed reference loop that uses no hopfdual code, and reports times
scaled to the loop's nominal speed (see REF_NOMINAL_S): norm_wall_s is the
median over units of the unit time over the mean of the two loop times
around it, setup_s the median over probes of the probe time over the loop
time after it. The detail line keeps every unit and loop time, with
quartiles and count of both the raw and the scaled unit times. With
--trace 1 it alternates untraced and traced units and reports the
per-layer metrics from the traced ones; end-to-end times only ever come
from untraced units.

The last line of standard output is the result object; the line before it
holds the detail (quartiles, run count, failures, environment record).
Exit status 2 means the program or the benchmark definition is missing.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy can be imported; set-up
# probes inherit the setting.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 9

# On a shared host the same unit can take up to twice as long from one
# minute to the next. CPU time moves with wall time, so the slowdown is in
# the cores (other tenants' load), not in scheduling, and no statistic over
# one run's units removes it. A fixed loop timed next to every unit slows
# down with it: a unit's time over the loop's time is the unit's cost in
# host-speed-independent terms. REF_NOMINAL_S, about the loop's time on the
# host where the benchmark was defined (2-vCPU Intel Xeon, Python 3.11.7,
# numpy 2.4.6) at its fastest, turns that ratio back into seconds.
REF_NOMINAL_S = 0.11
MAX_FAILURES_SHOWN = 5

# Set-up probe: a fresh interpreter imports hopfdual, then builds the inputs.
PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import hopfdual
t1 = time.perf_counter()
import workloads
workloads.WORKLOADS[{name!r}].make_inputs({seed!r}, workdir={workdir!r})
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "inputs_s": t2 - t1}}))
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def reference_loop() -> float:
    """About 0.1 s of fixed work in the three styles the workloads run, using
    no hopfdual code: a scalar float recurrence (the integrator), formatting
    and parsing floats as text (the CSV files) and small numpy calls (the
    closed forms)."""
    x, v = 0.3, 0.0
    for _ in range(240000):
        a = -x / (1.0 + x * x) - 0.1 * v
        v += 0.01 * a
        x += 0.01 * v
    total = x
    for i in range(24000):
        total += float(("%.17g,%.17g" % (i * 0.37, i / 3.0)).split(",")[1])
    arr = np.arange(64.0)
    for _ in range(9000):
        total += float(arr @ arr + np.sum(arr * 1.5))
    return total


def time_reference_loop() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def median_and_quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class SetupProbes:
    """Fresh interpreters that import hopfdual and build the workload's inputs.

    The probes are spread over the run rather than bunched before it. Each
    is followed by the reference loop, and setup_s is the median of the probe
    times scaled to the loop's nominal speed, as for the units.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        self.code = PROBE.format(src=str(SRC), here=str(HERE), name=name, seed=seed,
                                 workdir=str(workdir))
        self.walls: list[float] = []
        self.norm_walls: list[float] = []
        self.imports: list[float] = []
        self.inputs: list[float] = []

    def run(self) -> tuple[float, dict]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.code], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        return wall, json.loads(proc.stdout.strip().splitlines()[-1])

    def take(self) -> None:
        wall, probe = self.run()
        self.norm_walls.append(REF_NOMINAL_S * wall / time_reference_loop())
        self.walls.append(wall)
        self.imports.append(probe["import_s"])
        self.inputs.append(probe["inputs_s"])

    def medians(self) -> dict:
        return {"setup_s": statistics.median(self.norm_walls),
                "setup_raw_s": statistics.median(self.walls),
                "setup.import_s": statistics.median(self.imports),
                "setup.inputs_s": statistics.median(self.inputs)}


def pin_to_current_cpu() -> int | None:
    """Keep this process, and the set-up probes it starts, on the CPU it runs
    on now. The two vCPUs of the host this benchmark was defined on change
    speed independently of each other; a process that migrates between them
    makes the reference loop and the unit next to it run at different
    speeds."""
    try:
        with open("/proc/self/stat", encoding="utf-8") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        return None
    return cpu


def environment(np_version: str, pinned_cpu: int | None) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, cwd=ROOT)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hopfdual").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np_version,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "pinned_cpu": pinned_cpu,
        "clock": "time.perf_counter",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "hopfdual" / "__init__.py").is_file():
        fail(f"hopfdual sources not found under {SRC}")
    if not bench_file.is_file():
        fail(f"{bench_file} not found")
    spec = json.loads(bench_file.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from tracing import ROOT_SPAN, Tracer, layer_metrics

    wl = workloads.WORKLOADS[args.workload]
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    pinned_cpu = pin_to_current_cpu()
    try:
        probes = SetupProbes(args.workload, args.seed, workdir)
        probes.run()  # warms byte-code and the file cache; not counted
        inputs = wl.make_inputs(args.seed, workdir=workdir)
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        ref = reference.get(args.workload, {}).get(str(args.seed))
        evals = getattr(inputs, "evals", [0])
        tracer = Tracer()
        gate = workloads.Gate(wl, inputs, ref)

        def run_unit(traced: bool) -> float:
            if traced:
                tracer.install()
                fn = tracer.wrap(ROOT_SPAN, wl.run)
            else:
                fn = wl.run
            t0 = time.perf_counter()
            try:
                output = fn(inputs)
            except Exception as exc:  # a failing unit is counted, not fatal
                wall = time.perf_counter() - t0
                gate.add(error=f"unit raised {type(exc).__name__}: {exc}")
                return wall
            finally:
                if traced:
                    tracer.uninstall()
            wall = time.perf_counter() - t0
            gate.add(output)
            return wall

        reference_loop()  # warm-up, not counted
        plain_walls, traced_walls, layer_rows = [], [], []
        ref_walls, round_walls = [], []
        next_probe = time.perf_counter()
        deadline = next_probe + args.seconds
        while True:
            if len(probes.walls) < SETUP_REPEATS and time.perf_counter() >= next_probe:
                probes.take()
                next_probe += args.seconds / SETUP_REPEATS
            t_round = time.perf_counter()
            ref_walls.append(time_reference_loop())
            plain_walls.append(run_unit(False))
            if args.trace:
                mark, evals0 = tracer.mark(), evals[0]
                traced_walls.append(run_unit(True))
                layer_rows.append(layer_metrics(tracer.summary(mark), evals[0] - evals0))
            round_walls.append(time.perf_counter() - t_round)
            if time.perf_counter() + statistics.median(round_walls) > deadline:
                break
        ref_walls.append(time_reference_loop())
        while len(probes.walls) < SETUP_REPEATS:
            probes.take()
        setup = probes.medians()

        wall = median_and_quartiles(plain_walls)
        norm_walls = [REF_NOMINAL_S * unit / ((before + after) / 2)
                      for unit, before, after in zip(plain_walls, ref_walls, ref_walls[1:])]
        norm_wall = median_and_quartiles(norm_walls)
        if args.trace:
            # Layer metrics of the median traced unit, so that its layer self
            # times add up to trace.wall_s. Each traced unit ran right after an
            # untraced one; the median of the pairs' ratios is the overhead.
            order = sorted(range(len(traced_walls)), key=traced_walls.__getitem__)
            mid = order[(len(order) - 1) // 2]
            metrics = dict(layer_rows[mid])
            metrics["setup.import_s"] = setup["setup.import_s"]
            metrics["setup.inputs_s"] = setup["setup.inputs_s"]
            metrics["trace.wall_s"] = traced_walls[mid]
            metrics["bench.wall_s"] = wall["median"]
            metrics["bench.ref_loop_s"] = statistics.median(ref_walls)
            metrics["trace.overhead_frac"] = statistics.median(
                t / p for p, t in zip(plain_walls, traced_walls)) - 1.0
            SPANS_DIR.mkdir(exist_ok=True)
            tracer.write(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics = {
                "setup_s": setup["setup_s"],
                "norm_wall_s": norm_wall["median"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    missing = set(units) - set(metrics)
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")
    attempted, failed, failed_frac = gate.attempted, gate.failed, gate.failed_frac
    for name in units:
        print(f"{args.workload:<17} {name:<45} {metrics[name]:>14.6g} {units[name]}")
    print(f"{args.workload:<17} {'failed_frac':<45} {failed_frac:>14.6g} "
          f"ratio ({failed}/{attempted})")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "norm_wall_s": norm_wall, "wall_s": wall, "unit_walls": plain_walls,
        "ref_loop_walls": ref_walls, "setup_raw_s": setup["setup_raw_s"],
        "traced_units": len(traced_walls),
        "failed_frac": failed_frac, "failures": gate.reasons[:MAX_FAILURES_SHOWN],
        "reference_checked": ref is not None,
        "environment": environment(np.__version__, pinned_cpu),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
