"""Measuring trajectories and sweeping the delay.

estimate_cycle reduces a long trajectory to amplitude/period/mean after
discarding the transient; sweep runs one simulation per delay value and
pairs each measurement with the second-order prediction so measured and
predicted columns sit side by side in the output.

estimate_cycle reads the values from one contiguous copy of simulate's
strided view (every 16 bytes of the node array), which its passes read
faster, copy included. It builds no time axis, as sample j of the window
is at h * (i0 + j), and finds the upward crossings in one boolean pass,
w >= mean: for finite floats w - mean < 0 exactly when w < mean. So each
result is the float that a time axis and a centred copy w - mean give.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dde import Trajectory, check_history_price, default_step, simulate
from .errors import HopfDualError, RegimeMismatch, TooShort, ValidationError
from .hopf import CyclePrediction, analyze, predicted_cycle
from .model import ModelConfig, check_delay

# Post-transient excursion below this fraction of p* counts as equilibrium:
# an order below the smallest cycle amplitude of interest, orders above
# integrator noise.
EQUILIBRIUM_THRESHOLD = 1e-3

# Successive-maxima drift below this fraction of the trailing amplitude
# marks the transient as finished.
DRIFT_TOLERANCE = 0.01

# A limit-cycle verdict needs at least this many complete cycles whose
# period spread (std/mean) stays below the dispersion bound.
MIN_CYCLES = 5
PERIOD_DISPERSION = 0.02

# The measurement window never starts before this fraction of the run,
# whatever the drift heuristic says.
TRANSIENT_FRACTION = 0.5

# Without an explicit history_p0 the constant history starts this factor
# above p*.
HISTORY_FACTOR = 1.25


class Regime(Enum):
    EQUILIBRIUM = "equilibrium"
    LIMIT_CYCLE = "limit_cycle"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class CycleEstimate:
    """Measured steady-state characteristics of a trajectory.

    Attributes
    ----------
    amplitude : float
        Half the mean peak-to-trough over complete cycles (LimitCycle);
        the residual excursion |p - p*| for Equilibrium; rough half
        peak-to-trough for Undetermined.
    period : float or None
        Mean upward-crossing spacing; None unless regime is LimitCycle.
    mean : float
        Time average over the measurement window (an integer number of
        cycles for LimitCycle).
    regime : Regime
    transient_end : float
        Start of the measurement window.
    """

    amplitude: float
    period: float | None
    mean: float
    regime: Regime
    transient_end: float


@dataclass(frozen=True)
class PredictionErrors:
    """Relative errors |measured - predicted| / |predicted|; None where the
    prediction is zero, against which a relative error is undefined."""

    amplitude: float | None
    period: float | None
    mean_offset: float | None


@dataclass(frozen=True)
class DiagramRow:
    """One delay value of a sweep: measurement, prediction, errors, status.

    The fields, in this order, are the columns of the sweep CSV. A row
    with only its delay has no regime, no numbers and status "ok".
    """

    tau: float
    regime: str = ""
    amp_meas: float | None = None
    period_meas: float | None = None
    mean_meas: float | None = None
    amp_pred: float | None = None
    period_pred: float | None = None
    mean_offset_pred: float | None = None
    amp_err: float | None = None
    period_err: float | None = None
    status: str = "ok"
    mean_offset_err: float | None = None


def _refine_extremum(w: np.ndarray, idx: int) -> float:
    """Parabolic vertex through the sample and its neighbors."""
    if idx <= 0 or idx >= len(w) - 1:
        return float(w[idx])
    y0, y1, y2 = w[idx - 1:idx + 2].tolist()
    curv = y0 - 2.0 * y1 + y2
    if abs(curv) < 1e-300:
        return y1
    return y1 - (y2 - y0) ** 2 / (8.0 * curv)


def _transient_heuristic(v: np.ndarray, h: float) -> float:
    """Earliest time after which successive maxima drift below tolerance.

    Drift is measured against the half peak-to-trough of the trailing
    quarter of the run, scanning maxima from the last backwards.
    """
    interior = v[1:-1]
    max_idx = np.nonzero((interior >= v[:-2]) & (interior > v[2:]))[0] + 1
    if len(max_idx) < 2:
        return 0.0
    tail = v[3 * len(v) // 4:]
    amp_scale = (float(tail.max()) - float(tail.min())) / 2.0
    if amp_scale <= 0.0:
        return 0.0
    drifts = np.abs(np.diff(v[max_idx]))
    bad = np.nonzero(drifts > DRIFT_TOLERANCE * amp_scale)[0]
    first_settled = bad[-1] + 1 if len(bad) else 0
    return h * float(max_idx[first_settled])


def estimate_cycle(traj: Trajectory, p_star: float) -> CycleEstimate:
    """Measure amplitude, period, and mean past the transient.

    The measurement window starts at the later of the maxima-drift
    heuristic and TRANSIENT_FRACTION of the run (capped at 90% so a window
    always remains). Period comes from linearly interpolated upward
    crossings of p - mean; amplitude from per-cycle extrema with parabolic
    refinement; mean from the time average over an integer cycle count.

    Raises
    ------
    TooShort
        If the window is not at equilibrium yet holds fewer than 5
        complete cycles.
    """
    # one contiguous copy of a strided column (module docstring)
    v = np.ascontiguousarray(traj.values)
    h = traj.step
    span = h * (len(v) - 1)
    t_heur = _transient_heuristic(v, h)
    transient_end = max(t_heur, TRANSIENT_FRACTION * span)
    transient_end = min(transient_end, 0.9 * span)
    i0 = int(math.ceil(transient_end / h - 1e-12))
    w = v[i0:]
    transient_end = float(h * i0)

    # max |w - p*| from the window's extremes: float subtraction is monotone,
    # so this is the same float.
    hi, lo = float(w.max()), float(w.min())
    excursion = max(hi - p_star, p_star - lo)
    mean0 = float(w.mean())
    if excursion < EQUILIBRIUM_THRESHOLD * p_star:
        return CycleEstimate(
            amplitude=excursion,
            period=None,
            mean=mean0,
            regime=Regime.EQUILIBRIUM,
            transient_end=transient_end,
        )

    up = w >= mean0
    ci = np.nonzero(up[1:] > up[:-1])[0]
    if len(ci) < MIN_CYCLES + 1:
        raise TooShort(
            f"only {max(len(ci) - 1, 0)} complete cycles past the transient; "
            f"need {MIN_CYCLES}"
        )
    below, above = w[ci] - mean0, w[ci + 1] - mean0
    frac = below / (below - above)
    tc = h * (ci + i0) + frac * h
    periods = tc[1:] - tc[:-1]
    # periods.mean() and periods.std() as numpy computes them (the same sums
    # in the same order, so the same floats) without their Python-level calls
    period = float(periods.sum()) / len(periods)
    dev = periods - period
    dispersion = math.sqrt(float((dev * dev).sum()) / len(periods)) / period
    if dispersion >= PERIOD_DISPERSION:
        return CycleEstimate(
            amplitude=(hi - lo) / 2.0,
            period=None,
            mean=mean0,
            regime=Regime.UNDETERMINED,
            transient_end=transient_end,
        )

    amps = []
    starts = ci.tolist()
    for base, end in zip(starts, starts[1:]):
        cycle = w[base:end + 2]
        peak = _refine_extremum(w, base + int(cycle.argmax()))
        trough = _refine_extremum(w, base + int(cycle.argmin()))
        amps.append((peak - trough) / 2.0)
    amplitude = float(np.add.reduce(amps)) / len(amps)  # np.mean(amps), likewise

    # time average over the integer cycle span [c0, cn]; the interpolated
    # price at each crossing equals mean0. i1 is the first sample after c0,
    # i2 the last before cn: a crossing from sample j is in [t_j, t_j+2), and
    # rounding may put it on either side of t_j+1.
    c0, cn = float(tc[0]), float(tc[-1])
    a, b = starts[0], starts[-1]
    i1 = a + 1 + (c0 >= h * (i0 + a + 1))
    i2 = b - 1 + (cn > h * (i0 + b)) + (cn > h * (i0 + b + 1))
    inner = w[i1 : i2 + 1]
    integral = h * (float(inner.sum()) - (float(inner[0]) + float(inner[-1])) / 2.0)
    integral += (h * (i0 + i1) - c0) * (mean0 + float(w[i1])) / 2.0
    integral += (cn - h * (i0 + i2)) * (float(w[i2]) + mean0) / 2.0
    mean_cycle = float(integral / (cn - c0))

    return CycleEstimate(
        amplitude=amplitude,
        period=period,
        mean=mean_cycle,
        regime=Regime.LIMIT_CYCLE,
        transient_end=transient_end,
    )


def _relative_error(measured: float, predicted: float) -> float | None:
    return None if predicted == 0.0 else abs(measured - predicted) / abs(predicted)


def compare_prediction(est: CycleEstimate, pred: CyclePrediction) -> PredictionErrors:
    """Relative errors of a measurement against a prediction.

    Raises
    ------
    RegimeMismatch
        If the estimate is not a limit cycle.
    """
    if est.regime is not Regime.LIMIT_CYCLE:
        raise RegimeMismatch(f"estimate regime is {est.regime.value}, not limit_cycle")
    return PredictionErrors(
        amplitude=_relative_error(est.amplitude, pred.amplitude),
        period=_relative_error(est.period, pred.period),
        mean_offset=_relative_error(est.mean - pred.p_star, pred.mean_offset),
    )


def _real_delay(t) -> float:
    """t as a float; ValidationError naming t unless it is a real number.
    Text is refused too, although float() would parse some of it."""
    if not isinstance(t, (str, bytes)):
        try:
            return float(t)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"delay tau must be a real number, got {t!r}")


def sweep(
    config: ModelConfig,
    tau_values,
    t_end: float,
    step: float | None = None,
    history_p0: float | None = None,
) -> list[DiagramRow]:
    """Simulate each delay and pair measurements with predictions.

    Rows are ordered by tau. A row whose simulation or measurement fails
    carries the failure's class name in its status instead of aborting the
    sweep. Predictions appear only on the side of tau0 where the expansion
    has a cycle (Chain.expansion.has_cycle_at).

    Raises ValidationError before integrating anything if tau_values is
    not an iterable of delays, is empty or holds a delay that is not a real
    number (text counts as none) or is negative, nan or infinite, or if
    history_p0 is not a positive price.
    """
    try:
        values = list(tau_values)
    except TypeError:
        raise ValidationError(
            f"tau_values must be an iterable of delays, got {tau_values!r}"
        ) from None
    if not values:
        raise ValidationError("tau_values must be nonempty")
    taus = [_real_delay(t) for t in values]
    for t in taus:
        check_delay(t)
    chain = analyze(config)
    p_star, lin = chain.equilibrium.p_star, chain.linear
    p0 = HISTORY_FACTOR * p_star if history_p0 is None else history_p0
    check_history_price(p0)

    rows: list[DiagramRow] = []
    empty = (None, None, None)
    for tau in sorted(taus):
        # A failure keeps what the row got so far and names itself in status;
        # the row is built once, when it is complete or has failed.
        regime, meas, pred, errs, status = "", empty, empty, empty, "ok"
        try:
            cfg = dataclasses.replace(config, tau=tau)
            h = default_step(tau, lin.omega0) if step is None else step
            traj = simulate(cfg, p0, t_end, h)
            est = estimate_cycle(traj, p_star)
            regime, meas = est.regime.value, (est.amplitude, est.period, est.mean)
            if chain.expansion.has_cycle_at(tau):
                cycle = predicted_cycle(chain.expansion, tau)
                pred = (cycle.amplitude, cycle.period, cycle.mean_offset)
                if est.regime is Regime.LIMIT_CYCLE:
                    e = compare_prediction(est, cycle)
                    errs = (e.amplitude, e.period, e.mean_offset)
        except HopfDualError as exc:
            status = type(exc).__name__
        rows.append(DiagramRow(tau, regime, *meas, *pred, *errs[:2], status=status,
                               mean_offset_err=errs[2]))
    return rows


SWEEP_HEADER = ",".join(f.name for f in dataclasses.fields(DiagramRow))


def _csv_cell(value: float | str | None) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else "%.17g" % value


def write_sweep_csv(rows: list[DiagramRow], path) -> None:
    """Serialize sweep rows, one column per DiagramRow field in field order,
    numbers with 17 significant digits and missing values empty."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in dataclasses.astuple(row)) + "\n")
