"""Command-line interface: reports, files, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hopfdual
from conftest import logistic_model
from hopfdual import (
    BifurcationClass,
    CycleEstimate,
    CyclePrediction,
    DiagramRow,
    Equilibrium,
    HopfExpansion,
    LinearAnalysis,
    ModelConfig,
    NumericWrapper,
    PowerLaw,
    PredictionErrors,
    Q1Harmonics,
    TaylorCoefficients,
    U1Harmonics,
    predicted_cycle,
    read_trajectory_csv,
)
from hopfdual import cli, hopf
from hopfdual.cli import main, verify_coefficients
from hopfdual.config import write_config_file

TAU0 = math.pi


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _run_json(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == 0, err
    return json.loads(out)


def test_analyze_json_reference(capsys):
    report = _run_json(capsys, ["analyze", "--json"])
    assert set(report) == {
        "config", "equilibrium", "coefficients", "linear", "expansion",
        "classification",
    }
    assert report["equilibrium"]["p_star"] == pytest.approx(0.02, abs=1e-12)
    assert report["coefficients"]["b2"] == pytest.approx(-0.5, rel=1e-12)
    lin = report["linear"]
    assert lin["omega0"] == pytest.approx(0.5, rel=1e-12)
    assert lin["tau0"] == pytest.approx(TAU0, rel=1e-12)
    assert lin["tau_c"] == pytest.approx([TAU0, 5 * TAU0, 9 * TAU0], rel=1e-12)
    assert lin["transversality"] == pytest.approx(0.25 / (1 + math.pi**2 / 4), rel=1e-12)
    exp = report["expansion"]
    assert exp["omega2"] == pytest.approx(-937.5, abs=0.05)
    assert exp["tau2"] == pytest.approx(7140.5, abs=0.05)
    assert exp["eta2"] == pytest.approx(-3125.0, abs=0.5)
    assert exp["u1_harmonics"] == pytest.approx({"c1": 7.5, "d1": -10.0, "e1": 25.0})
    assert exp["q1_harmonics"] == pytest.approx(
        {"a": 50.0, "b": -20.0, "c": -19.0, "d": -30.0, "e": 10.0}
    )
    assert report["classification"] == {
        "direction": "supercritical",
        "cycle_stability": "stable",
        "period_trend": "increasing",
    }


def test_analyze_text_output(capsys):
    rc, out, _ = _run(capsys, ["analyze"])
    assert rc == 0
    assert "p_star = 0.02" in out
    assert "omega0 = 0.5" in out
    assert "supercritical" in out


def test_analyze_reports_a_degenerate_classification(capsys, monkeypatch):
    # the CLI's own demands give a nonzero tau2; the logistic curve's vanishes
    monkeypatch.setattr(cli, "analyze", lambda model: hopf.analyze(logistic_model()))
    rc, out, _ = _run(capsys, ["analyze"])
    assert rc == 0
    assert "classification: degenerate (tau2 vanishes)" in out.splitlines()
    report = _run_json(capsys, ["analyze", "--json"])
    assert report["classification"] == {"degenerate": "tau2"}


def test_python_m_hopfdual_prints_what_main_prints(capsys, tmp_path):
    src = str(Path(hopfdual.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "hopfdual", "analyze", "--json"],
                          capture_output=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert main(["analyze", "--json"]) == 0
    assert proc.stdout.decode("utf-8") == capsys.readouterr().out


def test_analyze_with_tau(capsys):
    report = _run_json(capsys, ["analyze", "--tau", "3.2", "--json"])
    assert report["stability"] == {"tau": 3.2, "verdict": "unstable"}
    assert report["prediction"]["period"] == pytest.approx(12.762, rel=1e-4)
    below = _run_json(capsys, ["analyze", "--tau", "3.0", "--json"])
    assert below["stability"]["verdict"] == "stable"
    assert "prediction" not in below


def test_analyze_out_file_matches_json_stdout(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    argv = ["analyze", "--json", "--out", str(out_path)]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    assert out_path.read_text(encoding="utf-8") == out
    meta = json.loads((tmp_path / "report.json.meta.json").read_text(encoding="utf-8"))
    assert set(meta) == {"argv", "command", "config", "version"}
    assert meta["command"] == "analyze"
    assert meta["argv"] == argv


def test_unit_capacity_model(capsys, tmp_path):
    cfg = tmp_path / "unit.ini"
    cfg.write_text("[model]\nk = 1.0\nc = 1.0\nw = 1.0\n", encoding="utf-8")
    report = _run_json(capsys, ["analyze", "--config", str(cfg), "--json"])
    assert report["equilibrium"]["p_star"] == pytest.approx(1.0, abs=1e-12)
    assert report["linear"]["b2"] == pytest.approx(-1.0, rel=1e-12)
    assert report["linear"]["tau0"] == pytest.approx(math.pi / 2, rel=1e-12)


def test_simulate_writes_csv_and_sidecar(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    report = _run_json(capsys, [
        "simulate", "--tau", "3.0", "--t-end", "1200", "--step", "0.02",
        "--out", str(out_path), "--json",
    ])
    assert report["estimate"]["regime"] == "equilibrium"
    assert report["csv"] == str(out_path)
    assert report["samples"] == 60001
    t, p = read_trajectory_csv(out_path)
    assert len(t) == 60001
    assert t[0] == 0.0 and t[-1] == pytest.approx(1200.0, rel=1e-12)
    assert abs(p[-1] - 0.02) < 2e-5
    meta = json.loads((tmp_path / "traj.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["command"] == "simulate"
    assert meta["config"]["simulation"]["tau"] == 3.0


def test_simulate_constant_history_stays_put(capsys, tmp_path):
    out_path = tmp_path / "flat.csv"
    report = _run_json(capsys, [
        "simulate", "--tau", "3.2", "--t-end", "50", "--step", "0.02",
        "--history-p0", "0.02", "--out", str(out_path), "--json",
    ])
    assert report["history_p0"] == 0.02
    _, p = read_trajectory_csv(out_path)
    assert float(np.max(np.abs(p - 0.02))) < 1e-10


def test_simulate_regime_mismatch_keeps_prediction(capsys):
    # Just above the onset, a history at p* stays at equilibrium: the
    # prediction exists, only its comparison with the measurement fails.
    argv = ["simulate", "--tau", "3.1416", "--history-p0", "0.02",
            "--t-end", "200", "--step", "0.02"]
    report = _run_json(capsys, argv + ["--json"])
    assert report["estimate"]["regime"] == "equilibrium"
    pred = report["prediction"]
    assert "error" not in pred
    assert pred["tau"] == 3.1416
    assert pred["tau0"] == pytest.approx(TAU0, rel=1e-12)
    assert report["prediction_errors"] == {"error": {
        "type": "RegimeMismatch",
        "message": "estimate regime is equilibrium, not limit_cycle",
    }}
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    assert ("prediction errors unavailable: estimate regime is equilibrium, "
            "not limit_cycle\n") in out


def test_simulate_text_says_when_prediction_fails(capsys):
    # Far above the onset the expansion's frequency turns negative. The run
    # is long enough for 5 cycles (period 298.85) at steps 0.1 to 0.01.
    argv = ["simulate", "--tau", "10", "--t-end", "4000", "--step", "0.1"]
    report = _run_json(capsys, argv + ["--json"])
    assert report["estimate"]["regime"] == "limit_cycle"
    assert report["prediction"]["error"]["type"] == "ExpansionInvalid"
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    assert f"prediction unavailable: {report['prediction']['error']['message']}\n" in out


def _one_error_line(err: str) -> dict:
    assert err.endswith("\n") and err.count("\n") == 1, err
    payload = json.loads(err)
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"type", "message"}
    return payload["error"]


def test_diverging_simulation_writes_one_stderr_line(capsys):
    # The run overflows inside a block; numpy must not warn about it. Finer
    # steps put the overflow at t = 152.4.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _run(capsys, ["simulate", "--tau", "100", "--t-end", "4000",
                                     "--step", "0.5"])
    assert rc == 3 and out == ""
    assert _one_error_line(err) == {
        "type": "NumericalError", "message": "price became non-finite at t = 152.5",
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--tau", "abc"],
         "bad value for --tau: could not convert string to float: 'abc'"),
        (["analyze", "--bogus"], "unrecognized arguments: --bogus"),
    ],
)
def test_usage_errors_are_one_json_line(capsys, argv, message):
    rc, out, err = _run(capsys, argv)
    assert rc == 2 and out == ""
    assert _one_error_line(err) == {"type": "ValidationError", "message": message}


_NOT_A_NUMBER = st.sampled_from(["", "abc", "1..0", "0x10", "--", "1,2"])
_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NOT_NONNEGATIVE = st.floats(max_value=-5e-324) | _NONFINITE
_NOT_POSITIVE = st.floats(max_value=0.0) | _NONFINITE
_BAD_POSITIVE = _NOT_A_NUMBER | _NOT_POSITIVE.map(repr)
_BAD_TAU_LIST = st.sampled_from(["", ",", "3.0,abc"]) | st.builds(
    lambda good, bad, at: ", ".join(map(repr, good[:at] + [bad] + good[at:])),
    st.lists(st.floats(0.0, 10.0), max_size=3), _NOT_NONNEGATIVE, st.integers(0, 3),
)

# (section, key) -> invalid text, and whether a command-line flag sets the key
_INVALID = {
    ("model", "demand"): (st.text("abcdefghijklmnopqrstuvwxyz", max_size=12).filter(
        lambda s: s not in ("reciprocal", "powerlaw")), False),
    ("model", "w"): (_BAD_POSITIVE, False),
    ("model", "alpha"): (_BAD_POSITIVE, False),
    ("model", "k"): (_BAD_POSITIVE, False),
    ("model", "c"): (_BAD_POSITIVE, False),
    ("simulation", "tau"): (_NOT_A_NUMBER | _NOT_NONNEGATIVE.map(repr), True),
    ("simulation", "tau_list"): (_BAD_TAU_LIST, True),
    ("simulation", "step"): (_BAD_POSITIVE, True),
    ("simulation", "t_end"): (_BAD_POSITIVE, True),
    ("simulation", "history_p0"): (_BAD_POSITIVE, True),
    ("output", "json"): (st.sampled_from(["", "maybe", "2", "yess"]), True),
}


@st.composite
def _bad_setting(draw):
    section, key = draw(st.sampled_from(sorted(_INVALID)))
    values, has_flag = _INVALID[section, key]
    as_flag = has_flag and draw(st.booleans())
    return section, key, draw(values), as_flag


@given(bad=_bad_setting(), command=st.sampled_from(
    [["analyze"], ["predict", "--tau", "3.2"], ["verify"]]))
# argparse hands `--tau=--` on as [] without calling the flag's parser
@example(bad=("simulation", "tau", "--", True), command=["analyze"])
def test_invalid_setting_exits_with_one_error_line(bad, command):
    section, key, raw, as_flag = bad
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(command)
        if as_flag:
            argv.append(f"--{key.replace('_', '-')}={raw}")
        else:
            path = Path(tmp) / "bad.ini"
            path.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
            if key == "tau":
                argv = argv[:1]  # the file's delay, not the flag's
            argv += ["--config", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = main(argv)
    assert rc == 2, argv
    assert out.getvalue() == ""
    _one_error_line(err.getvalue())


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_report_keys_are_dataclass_field_names(capsys, tmp_path):
    analyze = _run_json(capsys, ["analyze", "--tau", "3.2", "--json"])
    simulate = _run_json(capsys, [
        "simulate", "--tau", "3.2", "--t-end", "600", "--step", "0.02", "--json",
    ])
    swept = _run_json(capsys, [
        "sweep", "--tau-list", "3.0,3.2", "--t-end", "600", "--step", "0.02",
        "--out", str(tmp_path / "d.csv"), "--json",
    ])
    assert simulate["estimate"]["regime"] == "limit_cycle"
    objects = [
        (analyze["equilibrium"], Equilibrium),
        (analyze["coefficients"], TaylorCoefficients),
        (analyze["linear"], LinearAnalysis),
        (analyze["expansion"], HopfExpansion),
        (analyze["expansion"]["u1_harmonics"], U1Harmonics),
        (analyze["expansion"]["q1_harmonics"], Q1Harmonics),
        (analyze["classification"], BifurcationClass),
        (analyze["prediction"], CyclePrediction),
        (simulate["prediction"], CyclePrediction),
        (simulate["prediction"]["u1_harmonics"], U1Harmonics),
        (simulate["estimate"], CycleEstimate),
        (simulate["prediction_errors"], PredictionErrors),
    ]
    objects += [(row, DiagramRow) for row in swept["rows"]]
    assert len(swept["rows"]) == 2
    for obj, cls in objects:
        assert set(obj) == _field_names(cls), cls.__name__


def test_simulate_zero_delay_exits_2(capsys):
    rc, out, err = _run(capsys, ["simulate", "--tau", "0"])
    assert rc == 2
    assert out == ""
    assert _one_error_line(err)["type"] == "ValidationError"


def test_simulate_requires_tau(capsys):
    rc, _, err = _run(capsys, ["simulate"])
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "ValidationError"


@pytest.mark.parametrize(
    "argv",
    [
        ["--tau", "3.2", "--t-end", "1e30"],
        ["--tau", "1e-300", "--t-end", "1"],
    ],
)
def test_simulate_too_many_nodes_exits_2(capsys, argv):
    rc, _, err = _run(capsys, ["simulate", *argv])
    assert rc == 2
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"]["type"] == "ValidationError"
    assert "bytes of memory" in payload["error"]["message"]


def test_simulate_overflowing_lag_exits_2(capsys):
    rc, out, err = _run(capsys, ["simulate", "--tau", "1e308", "--t-end", "1"])
    assert rc == 2
    assert out == ""
    payload = _one_error_line(err)
    assert payload["type"] == "ValidationError"
    assert payload["message"] == "tau/step = inf must be finite"


def test_predict_json_reference(capsys):
    report = _run_json(capsys, ["predict", "--tau", "3.2", "--json"])
    pred = report["prediction"]
    assert pred["tau"] == 3.2
    assert pred["tau0"] == pytest.approx(TAU0, rel=1e-12)
    assert pred["epsilon"] == pytest.approx(2.860e-3, rel=1e-3)
    assert pred["period"] == pytest.approx(12.762, rel=1e-4)
    assert pred["mean_offset"] == pytest.approx(2.045e-4, rel=1e-3)
    assert pred["floquet_exponent"] < 0.0
    assert pred["warning"] is None


def test_predict_below_onset_exits_3(capsys):
    rc, _, err = _run(capsys, ["predict", "--tau", "3.0"])
    assert rc == 3
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"]["type"] == "WrongSide"
    assert "tau0" in payload["error"]["message"]


def test_predict_waveform_file(capsys, tmp_path, expansion):
    wave = tmp_path / "wave.csv"
    cfg = tmp_path / "wave.ini"
    cfg.write_text(
        "[simulation]\ntau = 3.2\n\n[output]\nwaveform = %s\n" % wave,
        encoding="utf-8",
    )
    report = _run_json(capsys, ["predict", "--config", str(cfg), "--json"])
    assert report["waveform"] == str(wave)
    lines = wave.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,p_pred"
    assert len(lines) == 5 * 200 + 2  # header + samples
    last_t, last_p = (float(v) for v in lines[-1].split(","))
    assert last_t == pytest.approx(5 * report["prediction"]["period"], rel=1e-12)
    # at a whole number of periods sin vanishes and cos(2s) = 1, so the
    # second-order harmonics leave p* + eps^2*(D1 + E1)
    assert last_p == pytest.approx(
        report["prediction"]["p_star"]
        + report["prediction"]["epsilon"] ** 2 * (-10.0 + 25.0),
        rel=1e-6,
    )
    assert (tmp_path / "wave.csv.meta.json").exists()
    # The bytes of the one-row-at-a-time writer this file used to come from.
    pred = predicted_cycle(expansion, 3.2)
    t = np.linspace(0.0, 5 * pred.period, 5 * 200 + 1)
    rows = ("%.17g,%.17g" % (ti, pi) for ti, pi in zip(t, pred.sample(t)))
    assert wave.read_bytes() == ("\n".join(["t,p_pred", *rows]) + "\n").encode()


def test_stdout_is_deterministic(capsys):
    _, out1, _ = _run(capsys, ["predict", "--tau", "3.2", "--json"])
    _, out2, _ = _run(capsys, ["predict", "--tau", "3.2", "--json"])
    assert out1 == out2
    _, out3, _ = _run(capsys, ["analyze", "--json"])
    _, out4, _ = _run(capsys, ["analyze", "--json"])
    assert out3 == out4


def test_sweep_cli_writes_deterministic_csv(capsys, tmp_path):
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    argv = ["sweep", "--tau-list", "3.2", "--t-end", "600", "--step", "0.02", "--json"]
    report = _run_json(capsys, argv + ["--out", str(out1)])
    assert len(report["rows"]) == 1
    assert report["rows"][0]["tau"] == 3.2
    rc, _, _ = _run(capsys, argv + ["--out", str(out2)])
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("tau,regime,")


def test_sweep_requires_out_and_tau_list(capsys, tmp_path):
    rc, _, err = _run(capsys, ["sweep", "--tau-list", "3.2"])
    assert rc == 2 and "ValidationError" in err
    rc, _, err = _run(capsys, ["sweep", "--out", str(tmp_path / "d.csv")])
    assert rc == 2 and "ValidationError" in err


def test_sweep_text_marks_failed_row_regime(capsys, tmp_path):
    # a failed row has no regime; the text line says "-" as for the other
    # missing values, while the CSV keeps its empty cell
    out = tmp_path / "d.csv"
    rc, text, _ = _run(capsys, [
        "sweep", "--tau-list", "0,3.2", "--t-end", "200", "--out", str(out),
    ])
    assert rc == 0
    lines = text.splitlines()
    assert "tau = 0: -, amplitude = -, period = -, status = ValidationError" in lines
    assert "tau = 3.2: -, amplitude = -, period = -, status = TooShort" in lines
    assert out.read_text(encoding="utf-8").splitlines()[2].startswith("3.2000000000000002,,")


def test_config_round_trip(capsys, tmp_path):
    f1, f2 = tmp_path / "a.ini", tmp_path / "b.ini"
    f1.write_text(
        "[model]\ndemand = reciprocal\nw = 1.0\nk = 0.01\nc = 50.0\n\n"
        "[simulation]\ntau = 3.2\nt_end = 400.0\nstep = 0.02\n\n"
        "[output]\njson = true\n",
        encoding="utf-8",
    )
    rc, out1, _ = _run(capsys, ["analyze", "--config", str(f1)])
    assert rc == 0
    report = json.loads(out1)
    write_config_file(report["config"], str(f2))
    rc, out2, _ = _run(capsys, ["analyze", "--config", str(f2)])
    assert rc == 0
    assert out2 == out1


def test_config_file_errors(capsys, tmp_path):
    cases = {
        "unknown_key.ini": "[model]\nkk = 1\n",
        "unknown_section.ini": "[models]\nk = 1\n",
        "analysis_section.ini": "[analysis]\ntransient_fraction = 0.5\n",
        "periods.ini": "[output]\nperiods = 5\n",
        "duplicate.ini": "[model]\nk = 1\nk = 2\n",
        "orphan.ini": "k = 1\n",
        "no_equals.ini": "[model]\nk 1\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        rc, _, err = _run(capsys, ["analyze", "--config", str(path)])
        assert rc == 2, name
        payload = json.loads(err)
        assert payload["error"]["type"] == "ValidationError", name
        assert name in payload["error"]["message"], name
    rc, _, err = _run(capsys, ["analyze", "--config", str(tmp_path / "absent.ini")])
    assert rc == 2
    assert "not found" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--out", "missing-dir/x.json"], "cannot write output"),
        (["sweep", "--tau-list", "3.2", "--t-end", "300", "--step", "0.02",
          "--out", "missing-dir/d.csv"], "cannot write output"),
        (["analyze", "--config", "a-directory"], "cannot read config file a-directory"),
        (["analyze", "--config", "not-utf8.ini"], "cannot read config file not-utf8.ini"),
    ],
    ids=["analyze-out", "sweep-out", "config-directory", "config-not-utf8"],
)
def test_file_errors_exit_2_with_one_error_line(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "not-utf8.ini").write_bytes(b"\xff")
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    error = _one_error_line(err)
    assert error["type"] == "ValidationError"
    assert error["message"].startswith(message)
    assert argv[-1] in error["message"]


def test_config_seed_dir_fallback(capsys, tmp_path, monkeypatch):
    seed = tmp_path / "seeds"
    seed.mkdir()
    (seed / "model.ini").write_text("[simulation]\ntau = 3.2\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HOPFDUAL_SEED_DIR", raising=False)
    rc, _, _ = _run(capsys, ["analyze", "--config", "model.ini"])
    assert rc == 2
    monkeypatch.setenv("HOPFDUAL_SEED_DIR", str(seed))
    report = _run_json(capsys, ["analyze", "--config", "model.ini", "--json"])
    assert report["config"]["simulation"]["tau"] == 3.2


def test_flags_override_config_file(capsys, tmp_path):
    cfg = tmp_path / "base.ini"
    cfg.write_text("[simulation]\ntau = 3.0\n", encoding="utf-8")
    report = _run_json(
        capsys, ["analyze", "--config", str(cfg), "--tau", "3.2", "--json"]
    )
    assert report["config"]["simulation"]["tau"] == 3.2
    assert report["stability"]["verdict"] == "unstable"


def _shown(action) -> str:
    """A flag as --help shows it: the flag and the name of its value."""
    if action.nargs == 0:
        return action.option_strings[0]
    return f"{action.option_strings[0]} {action.metavar or action.dest.upper()}"


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_command_offers_the_config_flag_and_seven_setting_flags(command):
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    flags = [_shown(a) for a in commands.choices[command]._actions if a.dest != "help"]
    assert flags == [
        "--config FILE", "--tau TAU", "--tau-list T1,T2,...", "--step STEP",
        "--t-end T_END", "--history-p0 HISTORY_P0", "--out FILE", "--json",
    ]


def test_bad_tau_list_value(capsys):
    rc, _, err = _run(capsys, ["sweep", "--tau-list", "3.0,oops"])
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_verify_json_reference(capsys):
    report = _run_json(capsys, ["verify", "--json"])
    assert report["ok"] is True
    assert report["p_star"] == pytest.approx(0.02, abs=1e-12)
    status = {row["name"]: row["status"] for row in report["coefficients"]}
    assert status["b2"] == "match"
    assert status["b5"] == "match"
    assert status["b9"] == "match"
    assert status["b4"] == "paper-convention"
    assert status["b8"] == "paper-convention"
    for name in ("b1", "b3", "b6", "b7"):
        assert status[name] == "match"
    ratios = {row["name"]: row["ratio"] for row in report["coefficients"]}
    assert ratios["b4"] == pytest.approx(2.0, abs=1e-3)
    assert ratios["b8"] == pytest.approx(3.0, abs=1e-3)


def test_verify_solves_the_equilibrium_once(capsys, monkeypatch):
    solve, calls = cli.find_equilibrium, []

    def counted(model):
        calls.append(model)
        return solve(model)

    monkeypatch.setattr(cli, "find_equilibrium", counted)
    rc, _, _ = _run(capsys, ["verify"])
    assert rc == 0 and len(calls) == 1


def test_verify_text_table(capsys):
    rc, out, _ = _run(capsys, ["verify"])
    assert rc == 0
    assert "verify: OK" in out
    assert "paper-convention" in out
    assert out.count("\n") >= 11  # header + nine rows + note + verdict


def test_text_reports_print_roundoff_as_a_bound(capsys, tmp_path):
    # Digits at round-off change with the host's libm and numpy's SIMD
    # code, so the text prints the bound; --json and the CSV keep them.
    report = _run_json(capsys, ["verify", "--json"])
    _, out, _ = _run(capsys, ["verify"])
    for row, line in zip(report["coefficients"], out.splitlines()[1:]):
        rel_diff = row["rel_diff"]
        if rel_diff is not None and rel_diff < 1e-10:
            assert line.split()[4] == "<1e-10", line
    assert sum("<1e-10" in line for line in out.splitlines()) == 3  # b2, b5, b9
    csv = tmp_path / "d.csv"
    argv = ["sweep", "--tau-list", "2.0", "--t-end", "1000", "--step", "0.02", "--out", str(csv)]
    _, out, _ = _run(capsys, argv)
    assert out.splitlines()[0] == "tau = 2: equilibrium, amplitude = <2e-12, period = -, status = ok"
    row = csv.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert 0.0 < float(row[2]) < 2e-12 and len(row[2]) > 15
    # a value at or above the bound prints as it is
    assert cli._g_above_roundoff(2e-12, 0.02) == "2e-12"
    assert cli._g_above_roundoff(1.9999e-12, 0.02) == "<2e-12"
    assert cli._g_above_roundoff(None, None) == "-"


def test_verify_powerlaw_config(capsys, tmp_path):
    cfg = tmp_path / "pl.ini"
    cfg.write_text("[model]\ndemand = powerlaw\nalpha = 2.0\n", encoding="utf-8")
    report = _run_json(capsys, ["verify", "--config", str(cfg), "--json"])
    assert report["ok"] is True


def test_verify_library_entry_on_linear_demand():
    # straight-line demand: every curvature coefficient is exactly zero,
    # so the oracle must agree with the zero closed forms
    model = ModelConfig(
        k=0.01, c=50.0, tau=0.0,
        demand=NumericWrapper(
            func=lambda p: 100.0 - 2500.0 * p, domain_lo=0.0, domain_hi=0.04
        ),
    )
    rows = verify_coefficients(model)
    status = {row["name"]: row["status"] for row in rows}
    assert status["b4"] == "paper-convention"
    for name in ("b5", "b8", "b9"):
        assert status[name] == "match"
        closed = next(r for r in rows if r["name"] == name)["closed_form"]
        assert closed == 0.0
    assert all(row["status"] != "mismatch" for row in rows)


@pytest.mark.parametrize("alpha", [0.01, 0.03, 0.05, 0.1, 0.5, 3.0])
def test_verify_steep_power_law_demand(alpha):
    # x ~ p^-100 at alpha = 0.01: the oracle's circle must shrink with the
    # steepness, or aliasing gives b2 and b4 the wrong sign
    def curve(p):
        return (1.0 / p) ** (1.0 / alpha)

    for demand in (PowerLaw(w=1.0, alpha=alpha), NumericWrapper(func=curve, label="steep")):
        rows = verify_coefficients(ModelConfig(k=0.01, c=50.0, tau=0.0, demand=demand))
        assert [r["name"] for r in rows if r["status"] == "mismatch"] == [], demand.name


def test_verify_steep_power_law_config_exits_0(capsys, tmp_path):
    cfg = tmp_path / "steep.ini"
    cfg.write_text("[model]\ndemand = powerlaw\nalpha = 0.05\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = _run_json(capsys, ["verify", "--config", str(cfg), "--json"])
    assert report["ok"] is True


def test_demand_overflow_exits_3_with_one_error_line(capsys, tmp_path):
    # (1000 / p)^200 at the solver's first probe p = 1 is past the float range
    cfg = tmp_path / "overflow.ini"
    cfg.write_text("[model]\ndemand = powerlaw\nw = 1000\nalpha = 0.005\n", encoding="utf-8")
    rc, out, err = _run(capsys, ["analyze", "--config", str(cfg)])
    assert rc == 3 and out == ""
    assert _one_error_line(err) == {
        "type": "NumericalError",
        "message": "demand powerlaw(w=1000, alpha=0.005) overflows at price 1.0",
    }



@pytest.mark.parametrize("k", ["1e103", "1e-110"])
def test_b2_cube_out_of_range_exits_3_and_verify_still_holds(capsys, tmp_path, k):
    # b2 = -k*c*p* = -5e104 or -5e-109: b2**3 overflows or underflows to zero
    cfg = tmp_path / "k.ini"
    cfg.write_text(f"[model]\nk = {k}\n", encoding="utf-8")
    for argv in (["analyze"], ["predict", "--tau", "3.2"],
                 ["sweep", "--tau-list", "3.2", "--t-end", "20",
                  "--out", str(tmp_path / "d.csv")]):
        rc, out, err = _run(capsys, argv + ["--config", str(cfg)])
        assert rc == 3 and out == "", argv
        error = _one_error_line(err)
        assert error["type"] == "NumericalError" and "b2 = " in error["message"], argv
    # verify reports no expansion, so it checks these models too
    report = _run_json(capsys, ["verify", "--config", str(cfg), "--json"])
    assert report["ok"] is True


# Branches of the report rules that no other test reaches: a report part
# that cannot be computed, a prediction far from the onset, a missing
# delay and a coefficient mismatch, each in text and in JSON form.


def test_analyze_far_above_onset_reports_prediction_unavailable(capsys):
    message = ("predicted frequency -9.59 <= 0 at tau = 80; "
               "the expansion cannot reach this delay")
    report = _run_json(capsys, ["analyze", "--tau", "80", "--json"])
    assert report["prediction"] == {"error": {"type": "ExpansionInvalid", "message": message}}
    rc, out, err = _run(capsys, ["analyze", "--tau", "80"])
    assert rc == 0 and err == ""
    assert out.endswith(f"prediction unavailable: {message}\n")


@pytest.mark.parametrize("command", ["predict", "analyze"])
def test_prediction_far_from_onset_warns(capsys, tmp_path, command):
    # c = 1 moves the onset to 50 pi; tau = 160 gives epsilon^2 = 0.0204
    cfg = tmp_path / "c1.ini"
    cfg.write_text("[model]\nc = 1\n", encoding="utf-8")
    argv = [command, "--tau", "160", "--config", str(cfg)]
    warning = "epsilon^2 = 0.0204 exceeds 0.01; "
    report = _run_json(capsys, argv + ["--json"])
    assert report["prediction"]["warning"].startswith(warning)
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    assert f"\nwarning: {warning}" in out


def test_simulate_too_short_reports_measurement_unavailable(capsys):
    argv = ["simulate", "--tau", "3.2", "--t-end", "40", "--step", "0.02"]
    message = "only 0 complete cycles past the transient; need 5"
    report = _run_json(capsys, argv + ["--json"])
    assert report["estimate"] == {"error": {"type": "TooShort", "message": message}}
    assert "prediction" not in report and "prediction_errors" not in report
    rc, out, err = _run(capsys, argv)
    assert rc == 0 and err == ""
    assert out.endswith(f"cycle measurement unavailable: {message}\n")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_predict_requires_tau(capsys, flags):
    rc, out, err = _run(capsys, ["predict", *flags])
    assert rc == 2 and out == ""
    assert _one_error_line(err) == {
        "type": "ValidationError",
        "message": "predict requires a delay (--tau or [simulation] tau)",
    }


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_verify_mismatch_exits_3(capsys, monkeypatch, flags):
    oracle = cli.numeric_taylor_oracle

    def off_b9(model, eq):
        coeffs = oracle(model, eq)
        return dataclasses.replace(coeffs, b9=1.5 * coeffs.b9)

    monkeypatch.setattr(cli, "numeric_taylor_oracle", off_b9)
    rc, out, err = _run(capsys, ["verify", *flags])
    assert rc == 3
    assert _one_error_line(err) == {
        "type": "NumericalError", "message": "coefficient oracle mismatch: b9",
    }
    if flags:
        report = json.loads(out)
        assert report["ok"] is False
        status = {row["name"]: row["status"] for row in report["coefficients"]}
        assert [name for name, s in status.items() if s == "mismatch"] == ["b9"]
    else:
        assert out.endswith("verify: MISMATCH\n")
        assert out.splitlines()[9].startswith("b9 ") and out.splitlines()[9].endswith(" mismatch")
