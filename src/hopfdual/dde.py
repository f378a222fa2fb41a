"""Direct integration of the delay differential equation.

Method of steps with an exponential step: the delayed price p(t - tau) at
the start, middle and end of each step is read by cubic Hermite
interpolation between the already-computed (value, derivative) nodes, or is
the start price p0 for t - tau <= 0: the history on [-tau, 0] is constant.

Once the delayed price is known the equation is scalar and linear in p:
p' = a(t) p with a = k (x(p(t - tau)) - c), whose exact step is
p_{n+1} = p_n exp(integral of a over the step) (the first Magnus term is
the whole solution of a scalar linear equation). With the rates r = x - c
at t_n, t_n + h/2 and t_n + h (r0, r1, r2; h the step), Simpson's rule
gives that integral, and each step is a growth factor
R_n = exp(h k (r0 + 4 r1 + r2)/6), of fourth order like RK4, whose growth
factor is only the degree-4 polynomial of this exponential. As R_n > 0, a
price can lose positivity only by underflow to 0.0. With
lag = tau/step >= 10, the delayed prices of the next m = ceil(lag) - 2
steps (at least 8) all lie between nodes that are already computed.
`simulate` advances one such block at a time: it evaluates the block's
2m + 1 delayed prices at once (the end of a step is the start of the
next), calls the demand once on them, takes every Simpson sum as one
matrix product of the steps' rate windows with h k (1, 4, 1)/6, and the
nodes as a running product of the factors. The node values and slopes
(x - c) p = d/k are the (value, slope) rows of one array whose leading
rows of zeros stand for the history. All even points of the half-step
grid lie at one fraction of a step past their left node and all odd
points at another, so one matrix product of a strided view of the rows
with a (6, 2) matrix of Hermite weights gives a block's 2m + 1 delayed
prices; p0 then replaces those in the history. The slopes' weights carry
h k, and the slope column is multiplied by k once, in place, when the run
is done. A full block thus makes six numpy calls here (Hermite product,
x - c, Simpson product, exp, running product, slopes) and one call of the
demand's `rates`. The block length follows from tau/step; it is not a
setting.

The node derivative stored for Hermite interpolation is the exact
right-hand side at the node, a(t_n) p_n, which makes the interpolant C^1
and keeps the delayed lookups fourth-order accurate away from the breaking
points that propagate from t = 0 at multiples of tau.

`write_csv_columns` writes trajectories and waveforms as the rows that
`"%.17g,%.17g\\n" %` makes, CSV_CHUNK_ROWS at a time. A chunk whose values
are all 0.0 or in [1e-4, 1e17), which %.17g prints in fixed notation, gets
its digits from exact integer arithmetic on whole arrays (`_csvrows`); any
other chunk is formatted by `%`.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .errors import (
    DomainViolation,
    NumericalError,
    PositivityLoss,
    ValidationError,
)
from .model import ModelConfig


def _hermite_weights(th):
    """Cubic Hermite basis (h00, h10, h01, h11) at fraction th of a step.

    The interpolant at node j + th is h00 v[j] + h10 h d[j] + h01 v[j+1]
    + h11 h d[j+1] for node values v, node derivatives d and step h.
    """
    h00 = 2 * th**3 - 3 * th**2 + 1
    h10 = th**3 - 2 * th**2 + th
    h01 = -2 * th**3 + 3 * th**2
    h11 = th**3 - th**2
    return h00, h10, h01, h11


def _check_step(step: float) -> None:
    """Raise ValidationError unless step is positive and finite."""
    if step <= 0:
        raise ValidationError(f"step must be positive, got {step!r}")
    if not math.isfinite(step):
        raise ValidationError(f"step must be finite, got {step!r}")


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid solution samples with node derivatives, the first at t = 0
    (the constant history before it is leading rows of `simulate`'s node array).

    Attributes
    ----------
    step : float
        Uniform grid spacing.
    values : numpy.ndarray
        Price at each node.
    derivs : numpy.ndarray
        Right-hand side at each node (same length): the slopes of the
        cubic Hermite interpolation that reads the delayed price.
    """

    step: float
    values: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        _check_step(self.step)
        if len(self.values) < 2 or len(self.values) != len(self.derivs):
            raise ValidationError("trajectory needs >= 2 nodes with matching derivatives")

    @property
    def t_end(self) -> float:
        return self.step * (len(self.values) - 1)

    @property
    def t(self) -> np.ndarray:
        # A float arange scaled in place: 8 bytes a node, where an int
        # arange and its product would peak at 16.
        t = np.arange(len(self.values), dtype=float)
        t *= self.step
        return t


def default_step(tau: float, omega0: float) -> float:
    """Default integration step: min(tau/100, one two-hundredth of the
    linear period 2*pi/omega0)."""
    period = 2 * math.pi / omega0
    return min(tau / 100.0, period / 200.0)


def _check_node(p: float, t: float) -> None:
    if not math.isfinite(p):
        raise NumericalError(f"price became non-finite at t = {t:.6g}")
    if p <= 0.0:
        raise PositivityLoss(t)


def check_history_price(p0: float) -> None:
    """Raise ValidationError unless p0 is a positive, finite price."""
    if not 0.0 < p0 < math.inf:
        raise ValidationError(f"history price must be positive and finite, got {p0!r}")


def _memory_bytes() -> int:
    """Physical memory of this machine, or numpy's largest array size in
    bytes where the operating system does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


def simulate(
    config: ModelConfig,
    p0: float,
    t_end: float,
    step: float,
) -> Trajectory:
    """Integrate the model from the constant history p0 to t_end.

    Parameters
    ----------
    config : ModelConfig
        Model parameters; config.tau is the delay, which must be positive.
    p0 : float
        Price on all of [-tau, 0], and the first node; must be positive
        and finite.
    t_end : float
        Final time; must be finite and at least 10 steps long.
    step : float
        Uniform step size; must be finite and satisfy step <= tau/10.

    Returns
    -------
    Trajectory
        Nodes at t = 0, step, ..., n step with n = round(t_end/step).

    Raises
    ------
    ValidationError
        If p0 is not a positive, finite price (checked first), if the
        delay, step or t_end is invalid, if the t_end/step + 1 nodes
        would take more bytes than the machine's physical memory, if
        tau/step overflows to inf, or if the demand returns no real array
        of the delayed prices' shape.
    PositivityLoss
        If a computed node price underflows to 0.0 (time reported): each
        step multiplies the price by a factor exp(...) > 0, so this is the
        only way it leaves the positive prices.
    NumericalError
        If any computed node price is non-finite (time reported).
    DomainViolation
        If a delayed price leaves the demand's domain.
    """
    check_history_price(p0)
    tau = config.tau
    if not tau > 0:
        raise ValidationError(f"simulate needs a positive delay tau, got {tau!r}")
    _check_step(step)
    if step > tau / 10.0:
        raise ValidationError(f"step {step!r} exceeds tau/10 = {tau / 10.0!r}")
    if not math.isfinite(t_end):
        raise ValidationError(f"t_end must be finite, got {t_end!r}")
    if t_end < 10 * step:
        raise ValidationError(f"t_end {t_end!r} shorter than 10 steps")
    steps = t_end / step
    # The node values and derivatives take 16 bytes a node: refuse a run
    # whose trajectory cannot fit in memory before allocating any of it.
    memory = _memory_bytes()
    if not 16.0 * (steps + 1.0) <= memory:
        raise ValidationError(
            f"t_end/step = {steps:.4g} steps need {16.0 * (steps + 1.0):.4g} bytes "
            f"for the trajectory, more than this machine's {memory} bytes of memory"
        )
    # A finite lag of any size runs: a point left of node -n is history.
    lag = tau / step
    if not math.isfinite(lag):
        raise ValidationError(f"tau/step = {lag:.4g} must be finite")
    n = int(round(steps))
    h = step

    k, c, demand = config.k, config.c, config.demand
    # In units of h, step i reads the delayed price at i - lag (r0),
    # i + 1/2 - lag (r1) and i + 1 - lag (r2, which is r0 of step i + 1).
    # For steps s .. s+b-1 these are the 2b + 1 points s + q/2 - lag of a
    # half-step grid. An even point s + j - lag lies at the fraction
    # frac(-lag) past node s + j + le, le = floor(-lag); an odd point
    # s + j + 1/2 - lag at a second fixed fraction past node
    # s + j + le + shift, with shift = 0 or 1 for the whole run.
    # The end of the block's last step reads up to node s + b + le + 1, so
    # blocks of ceil(lag) - 2 steps (at least 8, as step <= tau/10) read
    # only nodes computed before the block. No block is longer than the run.
    le = math.floor(-lag)
    block = min(-2 - le, n)
    shift = math.floor(0.5 - lag) - le
    # weights[:, 0] and weights[:, 1] take an even and an odd point from the
    # six entries v_j, s_j, v_{j+1}, s_{j+1}, v_{j+2}, s_{j+2} (node values v,
    # slopes s = d/k for derivatives d), so the slope weights carry h k.
    weights = np.zeros((6, 2))
    weights[:4, 0] = _hermite_weights(-lag - le)
    weights[2 * shift:2 * shift + 4, 1] = _hermite_weights(0.5 - lag - (le + shift))
    weights[1::2] *= h * k
    # pad history rows: enough for the furthest point back, but at most n
    # (a point left of node -n is in the history at every step), rounded up
    # to 512 so that a sweep's runs allocate one size, as malloc maps and
    # faults in fresh pages for a block larger than any it has freed before.
    pad = -(max(le, -n) // 512) * 512

    # Node values and slopes are the (value, slope) rows of one
    # (pad + n + 1, 2) array whose first pad rows, zeros, stand for the
    # history. Row j of the read-only view stencils[i] holds the six floats
    # of rows i + j .. i + j + 2, so stencils[pad + s + le] @ weights gives,
    # in row j, block s's even and odd point j: raveled, the block's 2b + 1
    # delayed prices in order. It reads nodes up to s + le + block + 2 <= s,
    # computed before the block. p0 then replaces the history's points: the
    # first 2 (-s - le) - shift of them.
    node_rows = np.zeros((pad + n + 1, 2))
    values, slopes = node_rows[pad:].T
    values[0] = p0
    stencils = np.lib.stride_tricks.as_strided(
        node_rows, (pad + n - 1 - block, block + 1, 6), (16, 16, 8), writeable=False
    )
    history = -2 * le - shift
    pairs = np.empty((block + 1, 2))
    delayed = pairs.ravel()
    rate = np.empty(2 * block + 1)
    growth = np.empty(block + 1)
    # Row i of this read-only view of the float64 rates holds step i's r0, r1, r2:
    # sliding_window_view(rate, 3)[::2] without its first call's 0.25 MB (numpy 2.4).
    windows = np.lib.stride_tricks.as_strided(rate, (block, 3), (16, 8), writeable=False)
    simpson = h * k * np.array([1.0, 4.0, 1.0]) / 6.0

    def views(b):
        """Views for b steps: the delayed prices, the rates at all 2b + 1 points
        and at the nodes, the steps' windows, the growth buffer (first node,
        then factors), the factors."""
        r = rate[:2 * b + 1]
        return delayed[:2 * b + 1], r, r[::2], windows[:b], growth[:b + 1], growth[1:b + 1]

    # A full block uses these; only a shorter one slices again.
    full = views(block)
    # The loop's functions as locals, and `out` passed positionally (the
    # third argument of matmul and of a ufunc; accumulate takes axis and
    # dtype first, so it keeps the keyword): on a block's few hundred
    # floats, a lookup or a keyword is a measurable part of a call.
    matmul, subtract, exp, multiply = np.matmul, np.subtract, np.exp, np.multiply
    accumulate = np.multiply.accumulate
    demand_rates = demand.rates
    # block s's stencil row pad + s + le, before it is clamped at row 0
    first = pad + le
    s = 0
    # Overflow to inf or nan in a block is reported by the node check below.
    with np.errstate(over="ignore", invalid="ignore"):
        while s < n:
            b = n - s
            if b > block:
                b = block
            # Where lag > n a stencil would start before row 0; all of such
            # a block's points are history, so it reads from row 0.
            row = first + s
            if row < 0:
                row = 0
            matmul(stencils[row], weights, pairs)
            if 2 * s < history:
                delayed[:history - 2 * s] = p0
            points, r, r_nodes, triples, grow, factors = full if b == block else views(b)
            try:
                x = demand_rates(points)
            except DomainViolation:
                # Fail where one step at a time would: advance only the steps
                # before the first one that reads a point outside the domain;
                # the next block then starts at that step and raises.
                outside = int(np.argmin((demand.lo < points) & (points < demand.hi)))
                b = (outside - 1) // 2
                if b <= 0:
                    raise
                points, r, r_nodes, triples, grow, factors = views(b)
                x = demand_rates(points)
            try:
                subtract(x, c, r)
            except (TypeError, ValueError) as exc:  # another shape, or complex
                raise numdiff.array_contract_error(exc) from exc
            # growth = exp(h k (r0 + 4 r1 + r2)/6), Simpson's rule on the rates
            matmul(triples, simpson, factors)
            exp(factors, factors)
            nodes = values[s:s + b + 1]
            grow[0] = nodes[0]
            accumulate(grow, out=nodes)
            # Every factor is in [0, inf] (0 and inf where exp under- or
            # overflows) or nan, so a running product from a node in (0, inf)
            # that leaves (0, inf) stays out of it: 0, inf or nan times such
            # a factor is 0, inf or nan. Its last node is then out of it too.
            if not 0.0 < nodes[b] < math.inf:
                tail = nodes[1:]
                i = int(np.argmin(np.isfinite(tail) & (tail > 0.0)))
                _check_node(float(tail[i]), (s + i + 1) * h)
            # Node s + b gets its slope here too: the last block thus fills
            # slopes[n], and the next block recomputes the same value.
            multiply(r_nodes, nodes, slopes[s:s + b + 1])
            s += b

    # The slope column becomes the derivative column in place: a second
    # array of n + 1 floats would raise the run's peak memory.
    slopes *= k
    return Trajectory(step=h, values=values, derivs=slopes)


# Rows formatted per write: the writer's memory is bounded by one chunk's
# text, floats and work arrays, whatever the length of the columns.
CSV_CHUNK_ROWS = 2048


def write_csv_columns(path, header: str, first: np.ndarray, second: np.ndarray) -> None:
    """Write two float columns under `header` as comma-separated rows with
    17 significant digits, which reproduce every double exactly.

    The bytes are those of `"%.17g,%.17g\\n" % (a, b)` for each row, "\\n"
    line ends on every platform. A chunk of rows whose values are all 0.0
    or between 1e-4 and 1e17 is formatted with integer arithmetic on whole
    arrays (`_csvrows.RowFormatter`); any other chunk row by row with `%`.

    Raises ValidationError, before the file is opened, when the columns
    differ in length.
    """
    n = len(first)
    if len(second) != n:
        raise ValidationError(f"{path}: columns of {n} and {len(second)} rows")
    from ._csvrows import RowFormatter  # compiled on the first write, not at import

    formatter = RowFormatter(min(n, CSV_CHUNK_ROWS))
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for i in range(0, n, CSV_CHUNK_ROWS):
            fh.write(formatter.rows(first[i:i + CSV_CHUNK_ROWS], second[i:i + CSV_CHUNK_ROWS]))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as `t,p` rows, 17 significant digits."""
    write_csv_columns(path, "t,p", traj.t, traj.values)


def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a `t,p` CSV back into time and price arrays.

    Raises ValidationError naming the file when it has no data rows, a
    field that is not a number, or a row that does not hold two fields.
    """
    try:
        with warnings.catch_warnings():
            # An empty file is rejected below; numpy's warning would repeat it.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: not a two-column numeric CSV: {exc}") from None
    if data.shape[0] == 0:
        raise ValidationError(f"{path}: no data rows after the header")
    if data.shape[1] != 2:
        raise ValidationError(f"{path}: expected 2 columns, got {data.shape[1]}")
    return data[:, 0], data[:, 1]
