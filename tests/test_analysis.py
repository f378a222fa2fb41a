"""Cycle measurement, prediction comparison, and delay sweeps."""

import math
import re

import numpy as np
import pytest

from conftest import exact_cycle_model, logistic_model, reference_model, subcritical_model
from hopfdual import analysis
from hopfdual import (
    SWEEP_HEADER,
    CycleEstimate,
    CyclePrediction,
    DiagramRow,
    ModelConfig,
    NumericWrapper,
    Regime,
    RegimeMismatch,
    TooShort,
    Trajectory,
    U1Harmonics,
    ValidationError,
    analyze,
    compare_prediction,
    estimate_cycle,
    predicted_cycle,
    simulate,
    sweep,
    write_sweep_csv,
)

P_STAR = 0.02


def _sinusoid(a, period, offset, n_periods=24, samples_per_period=400, chirp=0.0, growth=0.0):
    """Synthetic trajectory p* + offset + a*exp(growth*t)*sin(phase) with
    exact derivatives."""
    h = period / samples_per_period
    n = n_periods * samples_per_period
    t = h * np.arange(n + 1)
    phase = 2.0 * math.pi * (t / period) * (1.0 + chirp * t)
    dphase = 2.0 * math.pi * (1.0 / period + 2.0 * chirp * t / period)
    envelope = a * np.exp(growth * t)
    values = P_STAR + offset + envelope * np.sin(phase)
    derivs = envelope * (np.cos(phase) * dphase + growth * np.sin(phase))
    return Trajectory(step=h, values=values, derivs=derivs)


@pytest.mark.parametrize("a", [0.003, 0.02])
@pytest.mark.parametrize("period", [12.76, 40.0])
@pytest.mark.parametrize("offset", [0.0, 0.004])
def test_estimator_calibration_on_synthetic_cycles(a, period, offset):
    traj = _sinusoid(a, period, offset)
    est = estimate_cycle(traj, P_STAR)
    assert est.regime is Regime.LIMIT_CYCLE
    assert est.amplitude == pytest.approx(a, rel=5e-3)
    assert est.period == pytest.approx(period, rel=5e-3)
    assert abs(est.mean - (P_STAR + offset)) <= 1e-12 + 1e-3 * a


def test_below_onset_settles_to_equilibrium(run_tau30):
    est = estimate_cycle(run_tau30, P_STAR)
    assert est.regime is Regime.EQUILIBRIUM
    assert est.amplitude < 2e-5
    assert est.mean == pytest.approx(P_STAR, rel=1e-4)
    assert est.period is None


def test_above_onset_measures_a_cycle(run_tau32):
    est = estimate_cycle(run_tau32, P_STAR)
    assert est.regime is Regime.LIMIT_CYCLE
    assert est.period == pytest.approx(12.762, rel=0.05)
    assert est.amplitude > 0.0
    assert est.mean > P_STAR
    assert 0.0 < est.transient_end < run_tau32.t_end


def test_constant_trajectory_is_equilibrium():
    n = 2000
    traj = Trajectory(
        step=0.05,
        values=np.full(n, P_STAR), derivs=np.zeros(n),
    )
    est = estimate_cycle(traj, P_STAR)
    assert est.regime is Regime.EQUILIBRIUM
    assert est.amplitude == 0.0
    assert est.mean == P_STAR


def test_too_few_cycles_raises():
    traj = _sinusoid(0.003, 40.0, 0.0, n_periods=6)
    # the default window keeps ~3 periods, below the 5-cycle minimum
    with pytest.raises(TooShort):
        estimate_cycle(traj, P_STAR)


def test_drifting_period_is_undetermined():
    traj = _sinusoid(0.003, 12.0, 0.0, n_periods=160, samples_per_period=240,
                     chirp=2e-4)
    est = estimate_cycle(traj, P_STAR)
    assert est.regime is Regime.UNDETERMINED
    assert est.period is None
    assert est.amplitude > 0.0


def reference_estimate_cycle(traj, p_star):
    """Reference: `estimate_cycle` as it read before it copied the values
    into one contiguous array, with the excursion from |w - p*| and every
    pass on `traj.values` as given. The returned CycleEstimate, and a
    TooShort's message, must be equal, not close."""
    v = traj.values
    h = traj.step
    span = h * (len(v) - 1)
    t_heur = analysis._transient_heuristic(v, h)
    transient_end = max(t_heur, analysis.TRANSIENT_FRACTION * span)
    transient_end = min(transient_end, 0.9 * span)
    i0 = int(math.ceil(transient_end / h - 1e-12))
    w = v[i0:]
    wt = h * np.arange(i0, len(v))
    transient_end = float(wt[0])

    excursion = float(np.max(np.abs(w - p_star)))
    if excursion < analysis.EQUILIBRIUM_THRESHOLD * p_star:
        return CycleEstimate(excursion, None, float(w.mean()), Regime.EQUILIBRIUM,
                             transient_end)

    mean0 = float(w.mean())
    m = w - mean0
    ci = np.nonzero((m[:-1] < 0) & (m[1:] >= 0))[0]
    if len(ci) < analysis.MIN_CYCLES + 1:
        raise TooShort(
            f"only {max(len(ci) - 1, 0)} complete cycles past the transient; "
            f"need {analysis.MIN_CYCLES}"
        )
    frac = m[ci] / (m[ci] - m[ci + 1])
    tc = wt[ci] + frac * h
    periods = np.diff(tc)
    period = float(periods.mean())
    if float(periods.std() / period) >= analysis.PERIOD_DISPERSION:
        return CycleEstimate((float(w.max()) - float(w.min())) / 2.0, None, mean0,
                             Regime.UNDETERMINED, transient_end)

    amps = []
    starts = ci.tolist()
    for base, end in zip(starts, starts[1:]):
        cycle = w[base:end + 2]
        peak = analysis._refine_extremum(w, base + int(cycle.argmax()))
        trough = analysis._refine_extremum(w, base + int(cycle.argmin()))
        amps.append((peak - trough) / 2.0)
    amplitude = float(np.mean(amps))

    c0, cn = float(tc[0]), float(tc[-1])
    i1 = int(np.searchsorted(wt, c0, side="right"))
    i2 = int(np.searchsorted(wt, cn, side="left")) - 1
    inner = w[i1 : i2 + 1]
    integral = h * (float(inner.sum()) - (float(inner[0]) + float(inner[-1])) / 2.0)
    integral += (wt[i1] - c0) * (mean0 + float(w[i1])) / 2.0
    integral += (cn - wt[i2]) * (float(w[i2]) + mean0) / 2.0
    return CycleEstimate(amplitude, period, float(integral / (cn - c0)),
                         Regime.LIMIT_CYCLE, transient_end)


def _interleaved(traj):
    """traj with its values and derivatives as the strided columns of one
    (n, 2) array, the layout `simulate` returns."""
    rows = np.column_stack((traj.values, traj.derivs))
    return Trajectory(step=traj.step, values=rows[:, 0], derivs=rows[:, 1])


def _contiguous(traj):
    return Trajectory(step=traj.step, values=np.ascontiguousarray(traj.values),
                      derivs=np.ascontiguousarray(traj.derivs))


def _outcome(estimate, traj, p_star):
    """The estimate, or a TooShort's message."""
    try:
        return estimate(traj, p_star)
    except TooShort as exc:
        return f"TooShort: {exc}"


def _crossings_on_samples(on_mean):
    """A steady cycle at step 1/16 whose upward crossings fall on every
    240th sample. Those samples are set to the window's mean, so a crossing
    ends exactly on a sample (frac = 1), or to the float just below it, so
    a crossing starts at a sample and its frac of about 4e-14 does not move
    its time off the sample's: either way c0 and cn are sample times."""
    traj = _sinusoid(0.003, 15.0, 0.0, n_periods=40, samples_per_period=240)
    v = traj.values
    i0 = round(estimate_cycle(traj, P_STAR).transient_end / traj.step)
    # setting the samples moves the mean by round-off at most: iterate to
    # the fixed point
    for _ in range(5):
        mean = v[i0:].mean()
        v[::240] = mean if on_mean else np.nextafter(mean, 0.0)
    assert v[i0:].mean() == mean
    return _interleaved(traj)


@pytest.mark.parametrize("case", ["below_onset", "above_onset", "sweep_grid", "too_short",
                                  "chirp", "settled_below", "step_0.013", "step_tau_over_100",
                                  "trajectory_io_long_run", "crossing_ends_on_a_sample",
                                  "crossing_starts_on_a_sample", "window_at_the_cap"])
def test_estimate_cycle_equals_the_reference(case, run_tau30, run_tau32):
    p0 = analysis.HISTORY_FACTOR * P_STAR
    make, regime = {
        "below_onset": (lambda: run_tau30, Regime.EQUILIBRIUM),
        "above_onset": (lambda: run_tau32, Regime.LIMIT_CYCLE),
        "sweep_grid": (lambda: simulate(reference_model(3.3), p0, 500.0, 0.02),
                       Regime.LIMIT_CYCLE),
        # steps that binary floating point cannot hold, so the sample times
        # h * i are rounded products
        "step_0.013": (lambda: simulate(reference_model(3.3), p0, 500.0, 0.013),
                       Regime.LIMIT_CYCLE),
        "step_tau_over_100": (lambda: simulate(reference_model(3.2345), p0, 500.0,
                                               3.2345 / 100),
                              Regime.LIMIT_CYCLE),
        # trajectory_io's longest run: 150001 nodes
        "trajectory_io_long_run": (lambda: simulate(reference_model(3.2), p0, 1500.0, 0.01),
                                   Regime.LIMIT_CYCLE),
        "crossing_ends_on_a_sample": (lambda: _crossings_on_samples(True), Regime.LIMIT_CYCLE),
        "crossing_starts_on_a_sample": (lambda: _crossings_on_samples(False),
                                        Regime.LIMIT_CYCLE),
        # growing maxima push the drift heuristic past the 90 % cap
        "window_at_the_cap": (lambda: _interleaved(_sinusoid(1e-4, 12.76, 0.0, n_periods=160,
                                                             samples_per_period=240,
                                                             growth=2e-3)),
                              Regime.LIMIT_CYCLE),
        "too_short": (lambda: simulate(reference_model(3.2), p0, 200.0, 0.02), None),
        "chirp": (lambda: _interleaved(_sinusoid(0.003, 12.0, 0.0, n_periods=160,
                                                 samples_per_period=240, chirp=2e-4)),
                  Regime.UNDETERMINED),
        # its excursion is p* - min, where max - p* is negative
        "settled_below": (lambda: _interleaved(Trajectory(0.05, np.full(2000, P_STAR - 1e-6),
                                                          np.zeros(2000))),
                          Regime.EQUILIBRIUM),
    }[case]
    traj = make()
    # the strided column `simulate` returns, then a contiguous copy of it
    assert traj.values.strides != (8,)
    for run in (traj, _contiguous(traj)):
        got = _outcome(estimate_cycle, run, P_STAR)
        assert got == _outcome(reference_estimate_cycle, run, P_STAR)
        if regime is None:
            assert got.startswith("TooShort: only ")
        else:
            assert got.regime is regime


def exact_cycle_amplitude(tau, k, c, w, beta, nodes=200):
    """Amplitude w sinh(A) of exact_cycle_model's cycle of period 4 tau.

    In y = ln(p/w), (u, v) = (y(t), y(t - tau)) on the cycle solves
    u' = -g(v), v' = g(u) with g(y) = k c tanh(beta y/2), which conserves
    G(u) + G(v), G(y) = (2 k c/beta) ln cosh(beta y/2). The quarter period
    from (A, 0) to (0, A) is the integral over [0, pi/2] of
    A cos(theta)/g(u(theta)), v = A sin(theta), by Gauss-Legendre
    quadrature; bisection on A makes it tau. The differences of G are
    taken in product forms, without cancellation near theta = pi/2.
    """
    x, weights = np.polynomial.legendre.leggauss(nodes)
    theta = np.pi / 4.0 * (x + 1.0)
    weights = np.pi / 4.0 * weights

    def quarter(A):
        a, b = beta * A / 2.0, beta * A * np.sin(theta) / 2.0
        a_minus_b = beta * A * np.sin(np.pi / 4.0 - theta / 2.0) ** 2
        # z = ln cosh(a) - ln cosh(b) = (beta/(2 k c)) (G(A) - G(v))
        z = np.log1p(2.0 * np.sinh((a + b) / 2.0) * np.sinh(a_minus_b / 2.0) / np.cosh(b))
        u = 2.0 / beta * np.arcsinh(np.sqrt(np.expm1(2.0 * z)))  # G(u) = G(A) - G(v)
        return float(weights @ (A * np.cos(theta) / (k * c * np.tanh(beta * u / 2.0))))

    lo, hi = 0.0, 1.0
    while quarter(hi) < tau:
        lo, hi = hi, 2.0 * hi
    while lo < (lo + hi) / 2.0 < hi:
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if quarter(mid) < tau else (lo, mid)
    return w * math.sinh(lo)


@pytest.mark.parametrize("ratio", [1.3, 1.6])
def test_simulation_measures_the_exact_cycle(ratio):
    # An oracle that shares no code with simulate or estimate_cycle. Bounds:
    # over tau/tau0 = 1.25, 1.3, ..., 1.65 the relative differences were at
    # most 2.4e-8 (amplitude, at 1.55) and 1.2e-13 (period, at 1.25), the
    # same with numpy's AVX-512 code off; at 1.3 and 1.6, 7.0e-9 and 2.1e-8
    # (amplitude), 1.4e-15 and 5.6e-16 (period). The bounds are about 4 and
    # 9 times the largest.
    k, c, w, beta = 0.4, 1.0, 1.0, 2.0
    tau = ratio * math.pi / (k * c * beta)
    traj = simulate(exact_cycle_model(tau, k, c, w, beta), 1.25 * w, 150.0 * tau, tau / 100.0)
    est = estimate_cycle(traj, w)
    assert est.regime is Regime.LIMIT_CYCLE
    assert est.amplitude == pytest.approx(exact_cycle_amplitude(tau, k, c, w, beta), rel=1e-7)
    assert est.period == pytest.approx(4.0 * tau, rel=1e-12)


def _first_sample_at(t, t_min, h):
    """Whether t is the first sample time at or after t_min (up to round-off)."""
    return t - h < t_min <= t + 1e-9 * h


def test_window_starts_at_the_floor_and_stops_at_the_cap():
    # A steady cycle settles at once, so the window starts at the
    # TRANSIENT_FRACTION floor; maxima that still grow at the end of the
    # run push the drift heuristic past the 90 % cap.
    for a, growth, start in ((0.003, 0.0, analysis.TRANSIENT_FRACTION), (1e-4, 2e-3, 0.9)):
        traj = _sinusoid(a, 12.76, 0.0, n_periods=160, samples_per_period=240, growth=growth)
        h = traj.step
        est = estimate_cycle(traj, P_STAR)
        assert est.regime is Regime.LIMIT_CYCLE
        assert _first_sample_at(est.transient_end, start * h * (len(traj.values) - 1), h)


def test_refine_extremum_keeps_edge_samples_and_flat_vertices():
    # The first and last sample lack a neighbor, and a flat vertex has no
    # curvature to divide by: each is returned as it is.
    w = np.array([3.0, 1.0, 2.0, 2.0, 2.0, 5.0])
    assert analysis._refine_extremum(w, 0) == 3.0
    assert analysis._refine_extremum(w, 5) == 5.0
    assert analysis._refine_extremum(w, 3) == 2.0
    # (x - 1/4)^2 at x = -1, 0, 1: the vertex between the samples
    assert analysis._refine_extremum(np.array([1.5625, 0.0625, 0.5625]), 1) == 0.0


def test_transient_heuristic_cuts_nothing_before_a_flat_tail():
    # Two maxima, then a flat trailing quarter leaves no amplitude to
    # measure their drift against.
    v = np.array([0.0, 1.0, 0.0, 1.0, 0.0] + [0.5] * 20)
    assert analysis._transient_heuristic(v, 0.1) == 0.0


def _reference_prediction():
    return CyclePrediction(
        tau=3.2, tau0=math.pi, epsilon=2.86e-3, amplitude=2.86e-3, omega=0.49233,
        period=12.762, mean_offset=2.045e-4, floquet_exponent=-0.0256,
        p_star=P_STAR, u1_harmonics=U1Harmonics(7.5, -10.0, 25.0),
    )


def test_compare_prediction_arithmetic():
    pred = _reference_prediction()
    est = CycleEstimate(
        amplitude=3.0e-3, period=12.7, mean=P_STAR + 2.5e-4,
        regime=Regime.LIMIT_CYCLE, transient_end=100.0,
    )
    errs = compare_prediction(est, pred)
    assert errs.amplitude == pytest.approx(abs(3.0e-3 - 2.86e-3) / 2.86e-3)
    assert errs.period == pytest.approx(abs(12.7 - 12.762) / 12.762)
    assert errs.mean_offset == pytest.approx(abs(2.5e-4 - 2.045e-4) / 2.045e-4)


def test_compare_prediction_against_a_zero_mean_offset():
    # linear demand 2 - p has b5 = 0, so the normal form predicts no mean
    # shift, and a relative error against it is undefined
    model = ModelConfig(k=0.5, c=1.0, tau=0.0,
                        demand=NumericWrapper(func=lambda p: 2.0 - p, domain_hi=2.0))
    chain = analyze(model)
    pred = predicted_cycle(chain.normal_form, chain.linear.tau0 + 0.05)
    assert pred.mean_offset == 0.0
    est = CycleEstimate(
        amplitude=1.1 * pred.amplitude, period=1.01 * pred.period, mean=pred.p_star + 1e-4,
        regime=Regime.LIMIT_CYCLE, transient_end=0.0,
    )
    errs = compare_prediction(est, pred)
    assert errs.mean_offset is None
    assert errs.amplitude == pytest.approx(0.1, rel=1e-12)
    assert errs.period == pytest.approx(0.01, rel=1e-12)


def test_compare_prediction_regime_mismatch():
    pred = _reference_prediction()
    est = CycleEstimate(
        amplitude=1e-6, period=None, mean=P_STAR,
        regime=Regime.EQUILIBRIUM, transient_end=100.0,
    )
    with pytest.raises(RegimeMismatch):
        compare_prediction(est, pred)


def test_sweep_three_point():
    model = reference_model(0.0)  # tau comes from the sweep values
    rows = sweep(model, [3.4, 3.0, 3.2], t_end=3000.0, step=0.02)
    assert [r.tau for r in rows] == [3.0, 3.2, 3.4]

    below, at32, at34 = rows
    assert below.regime == "equilibrium"
    assert below.amp_pred is None and below.period_pred is None
    assert below.status == "ok"

    for row in (at32, at34):
        assert row.regime == "limit_cycle"
        assert row.status == "ok"
        assert row.mean_meas > P_STAR
        assert row.amp_pred > 0.0
        assert row.amp_err is not None and row.period_err is not None
    assert at34.period_meas > at32.period_meas
    assert at34.period_pred > at32.period_pred


def _onset_sweep(model):
    """Rows at 0.98 and 1.02 tau0, t_end = 400 tau0, step = tau0/100."""
    tau0 = analyze(model).linear.tau0
    return sweep(model, [0.98 * tau0, 1.02 * tau0], t_end=400.0 * tau0, step=tau0 / 100.0)


def test_sweep_predicts_below_the_onset_when_subcritical():
    # the paper's tau2 < 0 here: the cycle is predicted below tau0 only
    below, above = _onset_sweep(subcritical_model())
    # below's regime is not asserted: a decaying oscillation that has not
    # settled at t_end still reads as a limit cycle
    assert below.status == "ok"
    assert below.amp_pred == pytest.approx(0.1774, rel=1e-3)
    assert below.period_pred is not None and below.mean_offset_pred is not None
    assert above.status == "ok"
    assert above.regime == "limit_cycle"
    assert (above.amp_pred, above.period_pred, above.mean_offset_pred) == (None, None, None)


def test_sweep_reports_a_vanishing_tau2_above_the_onset():
    below, above = _onset_sweep(logistic_model())
    assert (below.regime, below.status) == ("equilibrium", "ok")
    assert below.amp_pred is None
    # the prediction fails after the measurement: the row keeps the
    # measurement and has no prediction and no errors
    assert above.status == "DegenerateBifurcation"
    assert above.regime == "limit_cycle"
    assert None not in (above.amp_meas, above.period_meas, above.mean_meas)
    assert (above.amp_pred, above.period_pred, above.mean_offset_pred) == (None, None, None)
    assert (above.amp_err, above.period_err, above.mean_offset_err) == (None, None, None)


def test_sweep_keeps_going_past_failed_rows():
    model = reference_model(0.0)
    rows = sweep(model, [3.2], t_end=200.0, step=0.02)
    # the measurement fails: the row holds its delay and status only
    assert rows == [DiagramRow(3.2, status="TooShort")]


def test_sweep_reports_an_overflowing_lag_in_its_row():
    # tau/step overflows at 1e308: that row names ValidationError, and the
    # row before it still runs
    model = reference_model(0.0)
    rows = sweep(model, [1e308, 3.0], t_end=1500.0, step=0.02)
    assert [row.tau for row in rows] == [3.0, 1e308]
    assert rows[0].status == "ok" and rows[0].regime == "equilibrium"
    assert rows[1].status == "ValidationError"
    assert rows[1].regime == "" and rows[1].amp_meas is None


def test_sweep_validation(monkeypatch):
    # every bad argument is refused before any delay is integrated
    def no_simulation(*args):
        raise AssertionError("sweep integrated before validating its arguments")

    monkeypatch.setattr(analysis, "simulate", no_simulation)
    model = reference_model(0.0)
    with pytest.raises(ValidationError):
        sweep(model, [], t_end=1000.0)
    with pytest.raises(ValidationError):
        sweep(model, [3.0, -1.0], t_end=1000.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match=repr(bad)):
            sweep(model, [bad, 3.0], t_end=100.0)
    # a delay that is not a real number, text included, is named; a bare
    # number is not a list of delays
    for bad in ("x", None, "3.2", 1j):
        with pytest.raises(ValidationError, match=re.escape(f"got {bad!r}")):
            sweep(model, [3.0, bad], t_end=100.0)
    with pytest.raises(ValidationError, match="got 3.2"):
        sweep(model, 3.2, t_end=100.0)
    with pytest.raises(ValidationError, match="history price"):
        sweep(model, [3.2, 3.3], t_end=500.0, step=0.02, history_p0=-1.0)


def test_sweep_csv_layout(tmp_path):
    model = reference_model(0.0)
    rows = sweep(model, [3.0, 3.2], t_end=1500.0, step=0.02)
    path = tmp_path / "diagram.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == len(SWEEP_HEADER.split(","))
    assert float(first[0]) == 3.0
    assert first[1] == "equilibrium"
    assert first[5] == ""  # no prediction below the onset
    assert first[-1] == ""
    # mean_offset_err is the optional trailing column, after status
    columns = SWEEP_HEADER.split(",")
    assert columns[-2:] == ["status", "mean_offset_err"]
    second = lines[2].split(",")
    assert second[-2] == "ok"
    assert float(second[-1]) == rows[1].mean_offset_err
    data = np.genfromtxt(path, delimiter=",", skip_header=1, usecols=(0,))
    np.testing.assert_allclose(data, [3.0, 3.2], rtol=0, atol=0)


def test_sweep_csv_bytes_for_every_row_kind(tmp_path):
    # The header and cell format are pinned independently of DiagramRow:
    # numbers in %.17g, None as an empty cell, strings as they are.
    empty = dict(amp_meas=None, period_meas=None, mean_meas=None, amp_pred=None,
                 period_pred=None, mean_offset_pred=None, amp_err=None, period_err=None)
    rows = [
        DiagramRow(tau=0.1, regime="", status="ValidationError", **empty),
        DiagramRow(tau=3.0, regime="equilibrium", status="ok",
                   **{**empty, "amp_meas": 1e-6, "mean_meas": 0.02}),
        DiagramRow(tau=3.2, regime="limit_cycle", amp_meas=0.1 + 0.2, period_meas=12.8,
                   mean_meas=0.02, amp_pred=2.86e-3, period_pred=12.762,
                   mean_offset_pred=2.045e-4, amp_err=2.0, period_err=1 / 3,
                   status="ok", mean_offset_err=0.5),
    ]
    path = tmp_path / "rows.csv"
    write_sweep_csv(rows, path)
    assert path.read_text(encoding="utf-8") == (
        "tau,regime,amp_meas,period_meas,mean_meas,amp_pred,period_pred,"
        "mean_offset_pred,amp_err,period_err,status,mean_offset_err\n"
        "0.10000000000000001,,,,,,,,,,ValidationError,\n"
        "3,equilibrium,9.9999999999999995e-07,,0.02,,,,,,ok,\n"
        "3.2000000000000002,limit_cycle,0.30000000000000004,12.800000000000001,0.02,"
        "0.0028600000000000001,12.762,0.00020450000000000001,2,0.33333333333333331,"
        "ok,0.5\n"
    )
