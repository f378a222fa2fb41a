"""The three benchmark workloads: inputs from a seed, one timed unit, checks.

Each workload exposes

    make_inputs(seed, small=False, workdir=None) -> inputs
    items(inputs)              -> number of items one unit attempts
    run(inputs)                -> output of one unit (this is what is timed)
    check(inputs, output, ref) -> list of (ok, reason), one per item
    fingerprint(inputs, output) -> bytes that must repeat exactly run to run
    record(inputs, output)     -> the values stored in reference.json

`small` cuts the onset sweep to 4 delays and the grid to 60 configurations
for the benchmark's own tests; trajectory_io has one size. `ref` is the entry
of reference.json recorded for this seed at full size, or None. Recorded values are compared to round-off, not byte for byte, so
that a change which only reorders floating-point work still passes:
EXACT_RTOL for closed forms and Newton roots, NUMERIC_RTOL for anything
that went through the integrator or finite differences.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hopfdual import analysis, bifurcation, cli, dde, hopf, model
from hopfdual.demand import NumericWrapper, PowerLaw, Reciprocal
from hopfdual.errors import HopfDualError

EXACT_RTOL = 1e-9
NUMERIC_RTOL = 1e-7

# README reference setup: k = 0.01, c = 50, x(p) = 1/p, so p* = 0.02 and
# tau0 = pi.
REFERENCE_MODEL = model.ModelConfig(k=0.01, c=50.0, tau=0.0, demand=Reciprocal(w=1.0))
P_STAR = 0.02
TAU0 = math.pi


def _close(a, b, rtol, atol=0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _mismatches(got: dict, want: dict, rtol: float, atol: float = 0.0) -> list[str]:
    bad = []
    for key, expected in want.items():
        value = got.get(key)
        if isinstance(expected, str) or isinstance(value, str):
            if value != expected:
                bad.append(f"{key} {value!r} != recorded {expected!r}")
        elif not _close(value, expected, rtol, atol):
            bad.append(f"{key} {value!r} != recorded {expected!r}")
    return bad


# --------------------------------------------------------------------------
# onset_sweep: analysis.sweep over 20 delays just above the onset


@dataclass(frozen=True)
class SweepInputs:
    taus: tuple[float, ...]
    t_end: float
    step: float


class OnsetSweep:
    name = "onset_sweep"
    T_END = 500.0
    STEP = 0.02
    DELAYS = 20

    @staticmethod
    def make_inputs(seed: int, small: bool = False, workdir=None) -> SweepInputs:
        rng = random.Random(seed)
        n = 4 if small else OnsetSweep.DELAYS
        taus = sorted(round(rng.uniform(3.15, 3.5), 4) for _ in range(n))
        return SweepInputs(tuple(taus), OnsetSweep.T_END, OnsetSweep.STEP)

    @staticmethod
    def items(inputs: SweepInputs) -> int:
        return len(inputs.taus)

    @staticmethod
    def run(inputs: SweepInputs):
        return analysis.sweep(REFERENCE_MODEL, inputs.taus, t_end=inputs.t_end, step=inputs.step)

    @staticmethod
    def _row(row) -> dict:
        return {"tau": row.tau, "regime": row.regime, "amp_meas": row.amp_meas,
                "period_meas": row.period_meas, "mean_meas": row.mean_meas,
                "amp_pred": row.amp_pred, "period_pred": row.period_pred}

    @staticmethod
    def check(inputs: SweepInputs, rows, ref) -> list[tuple[bool, str]]:
        out = []
        for i, row in enumerate(rows):
            why = []
            if row.status != "ok":
                why.append(f"status {row.status}")
            elif row.tau > TAU0 and row.regime != "limit_cycle":
                why.append(f"regime {row.regime} above tau0")
            if ref is not None:
                why += _mismatches(OnsetSweep._row(row), ref["rows"][i], NUMERIC_RTOL)
            out.append((not why, f"tau={row.tau}: " + "; ".join(why)))
        if len(rows) != len(inputs.taus):
            out += [(False, "sweep returned too few rows")] * (len(inputs.taus) - len(rows))
        return out

    @staticmethod
    def fingerprint(inputs, rows) -> bytes:
        return repr(rows).encode()

    @staticmethod
    def record(inputs, rows) -> dict:
        return {"rows": [OnsetSweep._row(r) for r in rows]}


# --------------------------------------------------------------------------
# trajectory_io: the README "Regenerating the reference data" commands


@dataclass(frozen=True)
class TrajectoryInputs:
    taus: tuple[float, ...]
    t_ends: tuple[float, ...]
    csvs: tuple[str, ...]
    simulate_argv: tuple[tuple[str, ...], ...]
    predict_argv: tuple[str, ...]
    predict_out: str


class TrajectoryIO:
    name = "trajectory_io"
    STEP = 0.01
    # The README runs t_end 2000/5000/5000. The delay near 3.0 gets 1500, the
    # least with which every jittered delay settles to equilibrium; the two
    # cycles get a tenth. A unit then takes about 1.5 s, so a run holds
    # twenty, and CSV write and read still outweigh the integrator.
    T_ENDS = (1500.0, 500.0, 500.0)

    @staticmethod
    def make_inputs(seed: int, small: bool = False, workdir=None) -> TrajectoryInputs:
        rng = random.Random(seed)
        taus = tuple(round(base + rng.uniform(-0.03, 0.03), 4) for base in (3.0, 3.2, 3.4))
        t_ends = TrajectoryIO.T_ENDS
        workdir = Path(workdir)
        # Relative paths keep the .meta.json sidecars identical across checkouts.
        rel = os.path.relpath(workdir)
        csvs = tuple(os.path.join(rel, f"ts_{i}.csv") for i in range(3))
        sims = tuple(
            ("simulate", "--tau", repr(tau), "--t-end", repr(t_end),
             "--step", repr(TrajectoryIO.STEP), "--history-p0", "0.025",
             "--out", csv, "--json")
            for tau, t_end, csv in zip(taus, t_ends, csvs)
        )
        pred_out = os.path.join(rel, "pred.json")
        predict = ("predict", "--tau", repr(taus[1]), "--json", "--out", pred_out)
        return TrajectoryInputs(taus, t_ends, csvs, sims, predict, pred_out)

    @staticmethod
    def items(inputs: TrajectoryInputs) -> int:
        return len(inputs.simulate_argv) + 1 + len(inputs.csvs)

    @staticmethod
    def _main(argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    @staticmethod
    def run(inputs: TrajectoryInputs) -> dict:
        sims = [TrajectoryIO._main(argv) for argv in inputs.simulate_argv]
        pred = TrajectoryIO._main(inputs.predict_argv)
        reads = [dde.read_trajectory_csv(path) for path in inputs.csvs]
        return {"simulate": sims, "predict": pred, "reads": reads}

    @staticmethod
    def _sim_values(report: dict) -> dict:
        est = report.get("estimate", {})
        return {"samples": report.get("samples"), "regime": est.get("regime"),
                "amplitude": est.get("amplitude"), "period": est.get("period"),
                "mean": est.get("mean"), "transient_end": est.get("transient_end")}

    @staticmethod
    def _pred_values(report: dict) -> dict:
        pred = report.get("prediction", {})
        return {key: pred.get(key) for key in ("epsilon", "period", "mean_offset", "floquet_exponent")}

    @staticmethod
    def _read_values(t: np.ndarray, p: np.ndarray) -> dict:
        n = len(p)
        picks = {f"p[{i}]": float(p[i]) for i in (0, n // 4, n // 2, 3 * n // 4, n - 1)}
        return {"rows": n, "t_last": float(t[-1]), "p_mean": math.fsum(p) / n, **picks}

    @staticmethod
    def _parse(code: int, text: str, what: str, why: list[str]) -> dict:
        if code != 0:
            why.append(f"{what} exited {code}: {text.strip()[:200]}")
            return {}
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            why.append(f"{what} printed no JSON report ({exc})")
            return {}

    @staticmethod
    def check(inputs: TrajectoryInputs, output: dict, ref) -> list[tuple[bool, str]]:
        out = []
        reports = []
        for i, (code, text) in enumerate(output["simulate"]):
            why: list[str] = []
            report = TrajectoryIO._parse(code, text, f"simulate tau={inputs.taus[i]}", why)
            reports.append(report)
            if report:
                got = TrajectoryIO._sim_values(report)
                expected_regime = "limit_cycle" if inputs.taus[i] > TAU0 else "equilibrium"
                if got["regime"] != expected_regime:
                    why.append(f"regime {got['regime']}, expected {expected_regime}")
                if got["samples"] != round(inputs.t_ends[i] / TrajectoryIO.STEP) + 1:
                    why.append(f"samples {got['samples']}")
                if ref is not None:
                    # An equilibrium's amplitude is round-off noise around p*.
                    why += _mismatches(got, ref["simulate"][i], NUMERIC_RTOL, atol=1e-9 * P_STAR)
            out.append((not why, f"simulate tau={inputs.taus[i]}: " + "; ".join(why)))

        why = []
        code, text = output["predict"]
        report = TrajectoryIO._parse(code, text, "predict", why)
        if report:
            with open(inputs.predict_out, encoding="utf-8") as fh:
                if fh.read() != text:
                    why.append("predict --out differs from the printed report")
            if ref is not None:
                why += _mismatches(TrajectoryIO._pred_values(report), ref["predict"], EXACT_RTOL)
        out.append((not why, "predict: " + "; ".join(why)))

        for i, (t, p) in enumerate(output["reads"]):
            why = []
            samples = reports[i].get("samples") if reports[i] else None
            if len(p) != samples:
                why.append(f"read {len(p)} rows, simulate reported {samples}")
            if not (np.all(np.isfinite(p)) and np.all(p > 0)):
                why.append("non-positive or non-finite price read back")
            if not _close(float(t[-1]), inputs.t_ends[i], EXACT_RTOL):
                why.append(f"last time {t[-1]!r}")
            if ref is not None and len(p):
                why += _mismatches(TrajectoryIO._read_values(t, p), ref["reads"][i], NUMERIC_RTOL)
            out.append((not why, f"read {inputs.csvs[i]}: " + "; ".join(why)))
        return out

    @staticmethod
    def fingerprint(inputs: TrajectoryInputs, output: dict) -> bytes:
        digest = hashlib.sha256()
        files = list(inputs.csvs) + [inputs.predict_out]
        for path in files + [f + ".meta.json" for f in files]:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digest.update(fh.read())
            else:
                digest.update(b"missing " + path.encode())
        for code, text in output["simulate"] + [output["predict"]]:
            digest.update(f"{code}\n{text}".encode())
        return digest.digest()

    @staticmethod
    def record(inputs, output) -> dict:
        return {
            "simulate": [TrajectoryIO._sim_values(json.loads(text)) for _, text in output["simulate"]],
            "predict": TrajectoryIO._pred_values(json.loads(output["predict"][1])),
            "reads": [TrajectoryIO._read_values(t, p) for t, p in output["reads"]],
        }


# --------------------------------------------------------------------------
# closed_form_grid: the analysis chain over seed-drawn model configurations


@dataclass
class DemandEvals:
    """Power-law demand handed to NumericWrapper; counts calls in counter[0]."""

    w: float
    alpha: float
    counter: list

    def __call__(self, p: float) -> float:
        self.counter[0] += 1
        return (self.w / p) ** (1.0 / self.alpha)


@dataclass(frozen=True)
class GridCase:
    kind: str
    model: model.ModelConfig
    tau_factor: float


@dataclass(frozen=True)
class GridInputs:
    cases: tuple[GridCase, ...]
    evals: list


@dataclass(frozen=True)
class GridResult:
    residual: float
    c: float
    statuses: tuple[str, ...]
    values: dict


class ClosedFormGrid:
    name = "closed_form_grid"
    CONFIGS = 2000
    SAMPLES = 201
    # Every RECORD_EVERY-th configuration is stored in reference.json.
    RECORD_EVERY = 200

    @staticmethod
    def make_inputs(seed: int, small: bool = False, workdir=None) -> GridInputs:
        rng = random.Random(seed)
        evals = [0]
        cases = []
        for _ in range(60 if small else ClosedFormGrid.CONFIGS):
            kind = rng.choice(("reciprocal", "powerlaw", "numeric"))
            k = 10 ** rng.uniform(-3, -1)
            c = 10 ** rng.uniform(0, 2)
            w = 10 ** rng.uniform(-1, 1)
            alpha = rng.uniform(0.5, 3.0)
            if kind == "reciprocal":
                demand = Reciprocal(w=w)
            elif kind == "powerlaw":
                demand = PowerLaw(w=w, alpha=alpha)
            else:
                demand = NumericWrapper(func=DemandEvals(w, alpha, evals), label="numeric-powerlaw")
            cfg = model.ModelConfig(k=k, c=c, tau=0.0, demand=demand)
            cases.append(GridCase(kind, cfg, 1.0 + rng.uniform(0.005, 0.1)))
        return GridInputs(tuple(cases), evals)

    @staticmethod
    def items(inputs: GridInputs) -> int:
        return len(inputs.cases)

    @staticmethod
    def run(inputs: GridInputs) -> list:
        out = []
        for case in inputs.cases:
            try:
                m = case.model
                eq = model.find_equilibrium(m)
                co = model.taylor_coefficients(m, eq)
                lin = bifurcation.linear_analysis(co)
                exp = hopf.hopf_expansion(co, lin)
                cls = hopf.classify(exp)
                pred = hopf.predicted_cycle(exp, case.tau_factor * lin.tau0)
                wave = pred.sample(np.linspace(0.0, pred.period, ClosedFormGrid.SAMPLES))
                lo = bifurcation.rightmost_root(co, 0.97 * lin.tau0)
                hi = bifurcation.rightmost_root(co, 1.03 * lin.tau0)
                rows = cli.verify_coefficients(m)
            except HopfDualError as exc:
                out.append(exc)
                continue
            values = {
                "p_star": eq.p_star, "tau0": lin.tau0, "tau2": exp.tau2,
                "omega2": exp.omega2, "eta2": exp.eta2, "direction": cls.direction.value,
                "amplitude": pred.amplitude, "period": pred.period,
                "wave_mean": float(wave.mean()), "root_lo": lo.re, "root_hi": hi.re,
                "oracle_b2": rows[1]["oracle"], "oracle_b9": rows[8]["oracle"],
            }
            out.append(GridResult(eq.residual, m.c, tuple(r["status"] for r in rows), values))
        return out

    @staticmethod
    def check(inputs: GridInputs, results: list, ref) -> list[tuple[bool, str]]:
        recorded = {} if ref is None else {int(k): v for k, v in ref["configs"].items()}
        out = []
        for i, (case, res) in enumerate(zip(inputs.cases, results)):
            if isinstance(res, Exception):
                out.append((False, f"config {i}: {type(res).__name__}: {res}"))
                continue
            why = []
            if not res.residual <= 1e-12 * res.c:
                why.append(f"equilibrium residual {res.residual!r}")
            lo, hi = res.values["root_lo"], res.values["root_hi"]
            if not lo < 0.0 < hi:
                why.append(f"rightmost root {lo!r} -> {hi!r} does not cross tau0")
            if "mismatch" in res.statuses:
                why.append(f"verify statuses {res.statuses}")
            for key, want in recorded.get(i, {}).items():
                numeric = case.kind == "numeric" or key.startswith("oracle")
                rtol = NUMERIC_RTOL if numeric else EXACT_RTOL
                why += _mismatches({key: res.values[key]}, {key: want}, rtol)
            out.append((not why, f"config {i} ({case.kind}): " + "; ".join(why)))
        return out

    @staticmethod
    def fingerprint(inputs, results) -> bytes:
        return repr(results).encode()

    @staticmethod
    def record(inputs, results) -> dict:
        return {"configs": {str(i): results[i].values
                            for i in range(0, len(results), ClosedFormGrid.RECORD_EVERY)}}


WORKLOADS = {w.name: w for w in (OnsetSweep, TrajectoryIO, ClosedFormGrid)}


class Gate:
    """Correctness gate over the units of one run: items attempted and failed.

    An item fails when its unit raised, when its check fails, or -- for
    every item of the unit -- when the unit's output bytes differ from the
    first unit's.
    """

    def __init__(self, workload, inputs, ref):
        self.workload, self.inputs, self.ref = workload, inputs, ref
        self.items = workload.items(inputs)
        self.first: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, output=None, error: str | None = None) -> None:
        self.attempted += self.items
        if error is not None:
            self.failed += self.items
            self.reasons.append(error)
            return
        bad = [why for ok, why in self.workload.check(self.inputs, output, self.ref) if not ok]
        fp = self.workload.fingerprint(self.inputs, output)
        if self.first is None:
            self.first = fp
        if fp != self.first:
            bad.append("outputs differ from the first unit's bytes")
            self.failed += self.items
        else:
            self.failed += len(bad)
        self.reasons += bad

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted
