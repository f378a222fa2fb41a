"""Command-line interface.

Five subcommands:

    analyze   equilibrium, coefficients, linear analysis, expansion, class
    simulate  integrate one trajectory and measure the attractor
    sweep     bifurcation diagram rows over a list of delays
    predict   expansion-based cycle prediction at one delay
    verify    closed-form coefficients against the Cauchy-integral oracle

Exit codes: 0 on success, 2 for configuration and usage errors (a file
that cannot be read or written included), 3 for numerical failures. On a
nonzero exit a single-line JSON object {"error": {"type": ..., "message":
...}} is written to stderr; a report part that could not be computed holds
the same object.

A JSON report holds the library's result dataclasses as they are, and
`_clean` turns each into an object keyed by its field names, so a new
field reaches the report without further code.

All JSON output is serialized with sorted keys and fixed indentation, and
no report contains timestamps, so reruns are byte-identical. Every file
written by a command gets a `<name>.meta.json` sidecar recording the
command line, the resolved configuration, and the package version.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .analysis import HISTORY_FACTOR, compare_prediction, estimate_cycle, sweep, write_sweep_csv
from .bifurcation import is_locally_stable
from .config import SETTINGS, RunConfig, load_config, parse_bool
from .dde import default_step, simulate, write_csv_columns, write_trajectory_csv
from .errors import (
    DegenerateBifurcation,
    HopfDualError,
    NumericalError,
    ValidationError,
)
from .hopf import analyze, classify, predicted_cycle
from .model import (
    Equilibrium,
    ModelConfig,
    find_equilibrium,
    numeric_taylor_oracle,
    taylor_coefficients,
)

# Oracle-vs-closed-form comparison thresholds used by `verify`.
_MATCH_RTOL = 1e-5
_CONVENTION_RATIOS = {"b4": 2.0, "b8": 3.0}
_CONVENTION_ATOL = 1e-3
_ZERO_RTOL = 1e-8

# A value below this fraction of its scale is round-off: its digits change
# with the host's libm and numpy's SIMD code (np.exp differs by an ulp
# between them), so the text reports print the bound in its place. --json
# output and the CSVs keep the value.
_ROUNDOFF = 1e-10

# `[output] waveform` samples the predicted cycle over this many periods,
# 200 samples a period.
WAVEFORM_PERIODS = 5


def _clean(obj):
    """JSON-safe copy: dataclasses to dicts of their fields, enums to values,
    NaN/inf to None."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _clean(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, enum.Enum):
        return obj.value
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_clean(obj), sort_keys=True, indent=2) + "\n"


def _error(exc: HopfDualError) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _part(report: dict, lines: list[str], key: str, what: str, compute, *args):
    """Store compute(*args) under key in the report and return it. A part
    that raises HopfDualError gets _error(exc) there instead, the text
    line "<what> unavailable: <exc>", and None as the return value."""
    try:
        value = compute(*args)
    except HopfDualError as exc:
        report[key] = _error(exc)
        lines.append(f"{what} unavailable: {exc}")
        return None
    report[key] = value
    return value


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_sidecar(path: str, command: str, argv: list[str], cfg: RunConfig) -> None:
    meta = {
        "command": command,
        "argv": list(argv),
        "config": cfg.to_sections(),
        "version": __version__,
    }
    _write_text(str(path) + ".meta.json", _dump_json(meta))


def _g(x) -> str:
    if x is None:
        return "-"
    return "%.10g" % x


def _g_above_roundoff(x, scale: float = 1.0) -> str:
    """_g(x), or "<" and the bound where x is round-off at this scale."""
    if x is not None and abs(x) < _ROUNDOFF * abs(scale):
        return "<" + _g(_ROUNDOFF * abs(scale))
    return _g(x)


def _print(report: dict, text_lines: list[str], cfg: RunConfig) -> None:
    """Print the report as JSON or as text lines."""
    if cfg.json:
        sys.stdout.write(_dump_json(report))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _emit(report: dict, text_lines: list[str], cfg: RunConfig,
          command: str, argv: list[str]) -> None:
    """Write the report to --out with its sidecar, then print it."""
    if cfg.out:
        _write_text(cfg.out, _dump_json(report))
        _write_sidecar(cfg.out, command, argv, cfg)
    _print(report, text_lines, cfg)


def cmd_analyze(cfg: RunConfig, argv: list[str]) -> int:
    chain = analyze(cfg.build_model())
    eq, lin, exp = chain.equilibrium, chain.linear, chain.expansion
    # the adjoint harmonics behind eta2 exist for the paper's expansion only
    q1 = chain.paper.q1_harmonics
    report: dict = {
        "config": cfg.to_sections(),
        "equilibrium": eq,
        "coefficients": chain.coefficients,
        "linear": lin,
        "expansion": exp,
    }
    lines = [
        f"equilibrium: p_star = {_g(eq.p_star)} (residual = {_g(eq.residual)})",
        "coefficients: " + " ".join(
            f"{name} = {_g(value)}"
            for name, value in chain.coefficients.as_dict().items()
        ),
        f"linear: omega0 = {_g(lin.omega0)}, tau0 = {_g(lin.tau0)}, "
        f"transversality = {_g(lin.transversality)}",
        "critical delays: " + ", ".join(_g(t) for t in lin.tau_c),
        f"expansion: omega2 = {_g(exp.omega2)}, tau2 = {_g(exp.tau2)}, "
        f"eta2 = {_g(exp.eta2)}",
        f"u1 harmonics: C1 = {_g(exp.u1_harmonics.c1)}, D1 = {_g(exp.u1_harmonics.d1)}, "
        f"E1 = {_g(exp.u1_harmonics.e1)}",
        f"q1 harmonics: A = {_g(q1.a)}, B = {_g(q1.b)}, C = {_g(q1.c)}, "
        f"D = {_g(q1.d)}, E = {_g(q1.e)}",
    ]
    try:
        verdicts = classify(exp)
        report["classification"] = verdicts
        lines.append(
            f"classification: {verdicts.direction.value} bifurcation, "
            f"{verdicts.cycle_stability.value} cycle, "
            f"period {verdicts.period_trend.value} with delay"
        )
    except DegenerateBifurcation as exc:
        report["classification"] = {"degenerate": exc.quantity}
        lines.append(f"classification: degenerate ({exc.quantity} vanishes)")
    if cfg.tau is not None:
        verdict = is_locally_stable(lin, cfg.tau)
        report["stability"] = {"tau": cfg.tau, "verdict": verdict.value}
        lines.append(f"stability at tau = {_g(cfg.tau)}: {verdict.value}")
        if exp.has_cycle_at(cfg.tau):
            pred = _part(report, lines, "prediction", "prediction",
                         predicted_cycle, exp, cfg.tau)
            if pred is not None:
                lines.append(
                    f"predicted cycle: epsilon = {_g(pred.epsilon)}, "
                    f"period = {_g(pred.period)}, mean offset = {_g(pred.mean_offset)}"
                )
                if pred.warning:
                    lines.append(f"warning: {pred.warning}")
    _emit(report, lines, cfg, "analyze", argv)
    return 0


def cmd_simulate(cfg: RunConfig, argv: list[str]) -> int:
    if cfg.tau is None:
        raise ValidationError("simulate requires a delay (--tau or [simulation] tau)")
    model = cfg.build_model()
    chain = analyze(model)
    p_star = chain.equilibrium.p_star
    step = cfg.step if cfg.step is not None else default_step(cfg.tau, chain.linear.omega0)
    p0 = cfg.history_p0 if cfg.history_p0 is not None else HISTORY_FACTOR * p_star
    traj = simulate(model, p0, cfg.t_end, step)
    report: dict = {
        "config": cfg.to_sections(),
        "tau": cfg.tau,
        "step": step,
        "history_p0": p0,
        "p_star": p_star,
        "samples": len(traj.values),
        "t_end": traj.t_end,
    }
    lines = [
        f"simulated to t = {_g(traj.t_end)} with step {_g(step)} "
        f"({len(traj.values)} samples, history p0 = {_g(p0)})",
    ]
    est = _part(report, lines, "estimate", "cycle measurement",
                estimate_cycle, traj, p_star)
    if est is not None:
        lines.append(
            f"regime: {est.regime.value}; "
            f"amplitude = {_g_above_roundoff(est.amplitude, est.mean)}, "
            f"period = {_g(est.period)}, "
            f"mean = {_g(est.mean)} (transient cut at t = {_g(est.transient_end)})"
        )
        if chain.expansion.has_cycle_at(cfg.tau):
            pred = _part(report, lines, "prediction", "prediction",
                         predicted_cycle, chain.expansion, cfg.tau)
            if pred is not None:
                errs = _part(report, lines, "prediction_errors", "prediction errors",
                             compare_prediction, est, pred)
                if errs is not None:
                    lines.append(
                        f"prediction errors: amplitude {_g(errs.amplitude)}, "
                        f"period {_g(errs.period)}, mean offset {_g(errs.mean_offset)}"
                    )
    if cfg.out:
        write_trajectory_csv(traj, cfg.out)
        _write_sidecar(cfg.out, "simulate", argv, cfg)
        lines.append(f"trajectory written to {cfg.out}")
        report["csv"] = cfg.out
    _print(report, lines, cfg)
    return 0


def cmd_sweep(cfg: RunConfig, argv: list[str]) -> int:
    if not cfg.tau_list:
        raise ValidationError("sweep requires --tau-list or [simulation] tau_list")
    if not cfg.out:
        raise ValidationError("sweep requires --out for the diagram CSV")
    rows = sweep(
        cfg.build_model(),
        cfg.tau_list,
        t_end=cfg.t_end,
        step=cfg.step,
        history_p0=cfg.history_p0,
    )
    write_sweep_csv(rows, cfg.out)
    _write_sidecar(cfg.out, "sweep", argv, cfg)
    report = {
        "config": cfg.to_sections(),
        "csv": cfg.out,
        "rows": rows,
    }
    lines = []
    for row in rows:
        amplitude = _g_above_roundoff(row.amp_meas, row.mean_meas)
        lines.append(
            f"tau = {_g(row.tau)}: {row.regime or '-'}, amplitude = {amplitude}, "
            f"period = {_g(row.period_meas)}, status = {row.status}"
        )
    lines.append(f"diagram written to {cfg.out} ({len(rows)} rows)")
    _print(report, lines, cfg)
    return 0


def cmd_predict(cfg: RunConfig, argv: list[str]) -> int:
    if cfg.tau is None:
        raise ValidationError("predict requires a delay (--tau or [simulation] tau)")
    chain = analyze(cfg.build_model())
    pred = predicted_cycle(chain.expansion, cfg.tau)
    report: dict = {
        "config": cfg.to_sections(),
        "prediction": pred,
    }
    lines = [
        f"tau = {_g(pred.tau)} (onset tau0 = {_g(chain.linear.tau0)})",
        f"epsilon = {_g(pred.epsilon)}",
        f"amplitude = {_g(pred.amplitude)}",
        f"omega = {_g(pred.omega)}, period = {_g(pred.period)}",
        f"mean offset = {_g(pred.mean_offset)}",
        f"floquet exponent = {_g(pred.floquet_exponent)}",
    ]
    if pred.warning:
        lines.append(f"warning: {pred.warning}")
    if cfg.waveform:
        t = np.linspace(0.0, WAVEFORM_PERIODS * pred.period, WAVEFORM_PERIODS * 200 + 1)
        write_csv_columns(cfg.waveform, "t,p_pred", t, pred.sample(t))
        _write_sidecar(cfg.waveform, "predict", argv, cfg)
        report["waveform"] = cfg.waveform
        lines.append(f"waveform written to {cfg.waveform} ({WAVEFORM_PERIODS} periods)")
    _emit(report, lines, cfg, "predict", argv)
    return 0


def verify_coefficients(model: ModelConfig) -> list[dict]:
    """Per-coefficient comparison rows for any model (library entry point)."""
    return _coefficient_rows(model, find_equilibrium(model))


def _coefficient_rows(model: ModelConfig, eq: Equilibrium) -> list[dict]:
    closed_map = taylor_coefficients(model, eq).as_dict()
    oracle_map = numeric_taylor_oracle(model, eq).as_dict()
    scale = max(1.0, max(abs(v) for v in closed_map.values()))
    rows = []
    for name, cf in closed_map.items():
        ov = oracle_map[name]
        if cf == 0.0:
            ratio = rel_diff = None
            status = "match" if abs(ov) <= _ZERO_RTOL * scale else "mismatch"
        else:
            ratio = ov / cf
            rel_diff = abs(ov - cf) / abs(cf)
            if rel_diff <= _MATCH_RTOL:
                status = "match"
            elif name in _CONVENTION_RATIOS and abs(ratio - _CONVENTION_RATIOS[name]) <= _CONVENTION_ATOL:
                status = "paper-convention"
            else:
                status = "mismatch"
        rows.append({"name": name, "closed_form": cf, "oracle": ov,
                     "ratio": ratio, "rel_diff": rel_diff, "status": status})
    return rows


def cmd_verify(cfg: RunConfig, argv: list[str]) -> int:
    model = cfg.build_model()
    eq = find_equilibrium(model)
    rows = _coefficient_rows(model, eq)
    ok = all(row["status"] != "mismatch" for row in rows)
    report = {
        "config": cfg.to_sections(),
        "p_star": eq.p_star,
        "coefficients": rows,
        "ok": ok,
    }
    header = f"{'name':<5} {'closed_form':>16} {'oracle':>16} {'ratio':>10} {'rel_diff':>10} status"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['name']:<5} {_g(row['closed_form']):>16} {_g(row['oracle']):>16} "
            f"{_g(row['ratio']):>10} {_g_above_roundoff(row['rel_diff']):>10} "
            f"{row['status']}"
        )
    conventions = [r["name"] for r in rows if r["status"] == "paper-convention"]
    if conventions:
        lines.append(
            "note: " + ", ".join(conventions) + " use the halved/thirded canonical "
            "convention; their oracle ratios are reported above"
        )
    lines.append("verify: OK" if ok else "verify: MISMATCH")
    _emit(report, lines, cfg, "verify", argv)
    if not ok:
        bad = ", ".join(r["name"] for r in rows if r["status"] == "mismatch")
        raise NumericalError(f"coefficient oracle mismatch: {bad}")
    return 0


# command -> (function, help text)
_COMMANDS = {
    "analyze": (cmd_analyze, "equilibrium, coefficients, linear analysis, expansion"),
    "simulate": (cmd_simulate, "integrate one trajectory and measure the attractor"),
    "sweep": (cmd_sweep, "bifurcation-diagram rows over a list of delays"),
    "predict": (cmd_predict, "expansion-based cycle prediction at one delay"),
    "verify": (cmd_verify, "closed-form coefficients against the numeric oracle"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they exit 2 with the one-line
    JSON error like any other bad input."""

    def error(self, message: str):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hopfdual",
        description="Delay-feedback price model: analysis, prediction, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        # Flags not given stay out of the namespace: it holds the overrides.
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", metavar="FILE", help="configuration file")
        for keys in SETTINGS.values():
            for key, setting in keys.items():
                if setting.help is None:
                    continue
                flag = "--" + key.replace("_", "-")
                if setting.parse is parse_bool:
                    kind = {"action": "store_true"}
                else:
                    kind = {"type": functools.partial(setting.read, where=flag),
                            "metavar": setting.metavar}
                p.add_argument(flag, dest=key, help=setting.help, **kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        overrides = vars(_build_parser().parse_args(argv))
        command = overrides.pop("command")
        cfg = load_config(overrides.pop("config", None), overrides)
        return _COMMANDS[command][0](cfg, argv)
    except OSError as exc:
        # config reads raise ValidationError, so this is an output file
        error: HopfDualError = ValidationError(f"cannot write output: {exc}")
    except HopfDualError as exc:
        error = exc
    sys.stderr.write(json.dumps(_error(error), sort_keys=True) + "\n")
    return 2 if isinstance(error, ValidationError) else 3


if __name__ == "__main__":
    sys.exit(main())
