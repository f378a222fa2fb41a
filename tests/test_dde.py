"""Integrator behavior: accuracy, failure modes, persistence."""

import dataclasses
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import C, K, reference_model
from hopfdual import dde
from hopfdual import (
    DomainViolation,
    ModelConfig,
    NumericalError,
    NumericWrapper,
    PositivityLoss,
    PowerLaw,
    Reciprocal,
    Regime,
    Trajectory,
    ValidationError,
    default_step,
    estimate_cycle,
    read_trajectory_csv,
    rhs,
    simulate,
    write_trajectory_csv,
)


def scalar_simulate(config, p0, t_end, step):
    """Reference: the method-of-steps exponential step one step at a time
    from the constant history p0,
    p_{i+1} = p_i exp(h (a0 + 4 a1 + a2)/6) with a = k (x(p(t - tau)) - c)
    at the start, middle and end of the step (tau > 0 only). Returns the
    node values and derivatives; raises the errors `simulate` raises."""
    h, tau = step, config.tau
    n = int(round(t_end / step))
    k, c, x = config.k, config.c, config.demand.x

    def a(p_delayed):
        return k * (x(p_delayed) - c)

    def check(p, t):
        if not math.isfinite(p):
            raise NumericalError(f"price became non-finite at t = {t:.6g}")
        if p <= 0.0:
            raise PositivityLoss(t)

    values = [p0]
    derivs = []
    lag = tau / h

    def lookup(pos):
        if pos <= 0.0:
            return p0
        j = int(pos)
        th = pos - j
        if th == 0.0:
            return values[j]
        h00 = 2 * th**3 - 3 * th**2 + 1
        h10 = th**3 - 2 * th**2 + th
        h01 = -2 * th**3 + 3 * th**2
        h11 = th**3 - th**2
        return (
            h00 * values[j] + h10 * h * derivs[j]
            + h01 * values[j + 1] + h11 * h * derivs[j + 1]
        )

    for i in range(n):
        p = values[i]
        a0 = a(lookup(i - lag))
        derivs.append(a0 * p)
        a1 = a(lookup(i + 0.5 - lag))
        a2 = a(lookup(i + 1.0 - lag))
        p_next = p * math.exp(h * (a0 + 4 * a1 + a2) / 6.0)
        check(p_next, (i + 1) * h)
        values.append(p_next)
    derivs.append(a(lookup(n - lag)) * values[n])
    return np.array(values), np.array(derivs)


ORACLE_CASES = {
    # tau/h = 160 exactly: every delayed stage-1 time falls on a node
    "integer-lag": (reference_model(2.0), 0.025, 300.0, 0.0125),
    # the other cases have tau/h off the integers (here 106.67), except
    # h = tau/10 and h = 0.01 at tau = 3.2, where tau/h is 10 and 320 to
    # within rounding
    "non-integer-lag": (reference_model(3.2), 0.025, 300.0, 0.03),
    "minimum-lag": (reference_model(3.2), 0.025, 300.0, 0.32),
    # tau/h = 246.15, starting below p* where the history reads 0.012
    "below-equilibrium": (reference_model(3.2), 0.012, 300.0, 0.013),
    # tau/h = 320 over a run of 100 steps: shorter than one block, so every
    # delayed point lies in the history
    "shorter-than-block": (reference_model(3.2), 0.025, 1.0, 0.01),
    "powerlaw": (
        ModelConfig(k=0.1, c=5.0, tau=3.0, demand=PowerLaw(w=1.0, alpha=2.0)),
        0.05, 300.0, 0.017,
    ),
    "numeric-wrapper": (
        dataclasses.replace(
            reference_model(3.3),
            demand=NumericWrapper(func=lambda p: 1.0 / p, domain_lo=0.0),
        ),
        0.025, 300.0, 0.021,
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_block_integrator_matches_scalar_loop(case):
    # the block form reorders the arithmetic of the step, so agreement is
    # to round-off accumulated over the run, not bit for bit
    config, p0, t_end, step = ORACLE_CASES[case]
    traj = simulate(config, p0, t_end, step)
    values, derivs = scalar_simulate(config, p0, t_end, step)
    assert np.ptp(values) > 1e-4  # the case exercises real dynamics
    np.testing.assert_allclose(traj.values, values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(
        traj.derivs, derivs, rtol=1e-12, atol=1e-12 * np.max(np.abs(derivs))
    )


@settings(max_examples=30, deadline=None)
@given(
    whole=st.integers(10, 59),
    fraction=st.floats(0.01, 0.99),
    n=st.integers(10, 250),
    p0=st.floats(0.01, 0.04),
)
# p0 = p*: every derivative is round-off of the exact zero x(p*) - c
@example(whole=16, fraction=0.928240750962663, n=49, p0=0.02)
# the odd points' left node moves between the even point's and the next one
# as the fraction crosses 0.5, and lies on a node at 0.0 and 0.5
@example(whole=23, fraction=0.0, n=200, p0=0.03)
@example(whole=23, fraction=0.5, n=200, p0=0.03)
@example(whole=23, fraction=0.5 - 1e-9, n=200, p0=0.03)
@example(whole=23, fraction=0.5 + 1e-9, n=200, p0=0.03)
def test_block_integrator_matches_scalar_loop_at_any_lag(whole, fraction, n, p0):
    # tau/h off the integers, and runs from under one block to a few blocks,
    # so that blocks start at every offset from the end of the history
    tau = 3.2
    step = tau / (whole + fraction)
    config = reference_model(tau)
    traj = simulate(config, p0, n * step, step)
    values, derivs = scalar_simulate(config, p0, n * step, step)
    assert len(traj.values) == n + 1
    np.testing.assert_allclose(traj.values, values, rtol=1e-12, atol=0)
    # x - c cancels to a few ulps of c near the equilibrium, so a derivative
    # k (x - c) p carries an absolute round-off of about eps k c p
    cancellation = 4 * np.finfo(float).eps * config.k * config.c * np.max(values)
    np.testing.assert_allclose(
        traj.derivs, derivs, rtol=1e-12,
        atol=max(1e-12 * np.max(np.abs(derivs)), cancellation),
    )


def test_equilibrium_is_preserved():
    model = reference_model(3.2)
    traj = simulate(model, 0.02, t_end=1000.0, step=0.01)
    assert float(np.max(np.abs(traj.values - 0.02))) < 1e-10


def test_step_halving_agreement(run_tau32):
    model = reference_model(3.2)
    fine = simulate(model, 0.025, t_end=5000.0, step=0.005)
    diff = np.max(np.abs(run_tau32.values - fine.values[::2]))
    assert float(diff) < 1e-6


def test_amplitude_converges_far_from_onset():
    # At tau = 10 (about 3.2 tau0) the price swings over 57 orders of
    # magnitude. Halving the step from 0.02 moves the measured amplitude by
    # 1.6e-7 relative and the period by 1.8e-8 (RK4 moved them by 2.6e-2
    # and 1.7e-4). The bounds leave a factor of about 6.
    runs = [
        estimate_cycle(simulate(reference_model(10.0), 0.025, 4000.0, h), 0.02)
        for h in (0.02, 0.01)
    ]
    coarse, fine = runs
    assert coarse.regime is fine.regime is Regime.LIMIT_CYCLE
    assert fine.amplitude > 1e57
    assert coarse.amplitude == pytest.approx(fine.amplitude, rel=1e-6)
    assert coarse.period == pytest.approx(fine.period, rel=1e-7)


def test_nodes_satisfy_the_equation():
    # past the first few delay intervals the stored node derivative must
    # equal the right-hand side evaluated with the delayed price, which
    # here is the node tau/step = 320 steps back (to within rounding)
    model = reference_model(3.2)
    traj = simulate(model, 0.025, t_end=200.0, step=0.01)
    assert model.tau / traj.step == pytest.approx(320, rel=0, abs=1e-9)
    lag = round(model.tau / traj.step)
    for i in range(10 * lag, len(traj.values) - 1, 997):
        expect = rhs(model, float(traj.values[i]), float(traj.values[i - lag]))
        assert traj.derivs[i] == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("config, p0, t_end, step", [
    *(ORACLE_CASES[case] for case in
      ("integer-lag", "non-integer-lag", "shorter-than-block", "powerlaw")),
    # tau/step = 2e18: the history columns stay below the run's 20 nodes
    (reference_model(1e17), 0.025, 1.0, 0.05),
], ids=["integer-lag", "non-integer-lag", "shorter-than-block", "powerlaw",
        "delay-beyond-the-run"])
def test_history_is_exact(config, p0, t_end, step):
    # every node before t = tau reads its delayed price in the history,
    # which is p0 itself there, bit for bit, not an interpolant between
    # the columns that stand for the history in the node array
    traj = simulate(config, p0, t_end, step)
    early = traj.t < config.tau
    assert np.count_nonzero(early) > 10
    rate = config.demand.rates(np.array([p0]))[0] - config.c
    assert np.array_equal(traj.derivs[early], rate * traj.values[early] * config.k)


def test_prices_stay_positive_above_onset():
    tau = 3.456  # about 1.1 * tau0
    model = reference_model(tau)
    for p0 in (0.01, 0.04):
        traj = simulate(model, p0, t_end=800.0, step=0.02)
        assert float(np.min(traj.values)) > 0.0


def test_zero_delay_is_rejected():
    # the method of steps needs a delay; the delay is checked before the
    # step, t_end and memory checks, which these arguments would also fail
    model = reference_model(0.0)
    p0 = 0.025
    for t_end, step in ((200.0, 0.05), (200.0, 0.0), (0.01, 0.05), (1e30, 0.01)):
        with pytest.raises(ValidationError, match="positive delay tau, got 0.0"):
            simulate(model, p0, t_end=t_end, step=step)


def test_default_step_rule():
    assert default_step(3.2, 0.5) == pytest.approx(
        min(3.2 / 100.0, (2 * math.pi / 0.5) / 200.0), rel=1e-15
    )
    assert default_step(50.0, 0.5) == pytest.approx(
        (2 * math.pi / 0.5) / 200.0, rel=1e-15
    )


@pytest.mark.parametrize("step, n", [(0.03, 1000), (0.03, 105), (0.03, 106), (0.0137, 3000)])
def test_simulate_calls_the_demand_once_per_block(step, n):
    # tau/step is 106.67 and 233.58, so blocks of ceil(tau/step) - 2 steps:
    # a change that shortens the blocks or calls the demand per step fails
    calls = []

    def reciprocal(p):
        calls.append(np.shape(p))
        return 1.0 / p

    tau = 3.2
    config = dataclasses.replace(
        reference_model(tau), demand=NumericWrapper(func=reciprocal, domain_lo=0.0)
    )
    simulate(config, 0.025, n * step, step)
    block = math.ceil(tau / step) - 2
    assert len(calls) == math.ceil(n / block)
    assert calls[0] == (2 * min(block, n) + 1,)


@pytest.mark.parametrize("p0", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_simulate_refuses_a_bad_history_price(p0):
    # checked before anything else, so a nan does not reach the demand
    # and fail later on "price nan"
    with pytest.raises(ValidationError,
                       match=rf"^history price must be positive and finite, got {p0!r}$"):
        simulate(reference_model(3.2), p0, 10.0, 0.02)


def test_simulate_validation():
    model = reference_model(3.2)
    p0 = 0.02
    with pytest.raises(ValidationError):
        simulate(model, p0, t_end=100.0, step=0.0)
    with pytest.raises(ValidationError):
        simulate(model, p0, t_end=100.0, step=0.5)  # > tau/10
    with pytest.raises(ValidationError):
        simulate(model, p0, t_end=0.05, step=0.01)  # < 10 steps
    # a non-finite step or t_end is named, not reported as "nan steps need
    # nan bytes" by the memory check
    for t_end, step, name in [(math.nan, 0.01, "t_end"), (math.inf, 0.01, "t_end"),
                              (100.0, math.nan, "step"), (100.0, math.inf, "step")]:
        with pytest.raises(ValidationError, match=rf"^{name} must be finite, got (nan|inf)$"):
            simulate(model, p0, t_end=t_end, step=step)


@pytest.mark.parametrize(
    "tau, t_end, step",
    [
        (3.2, 1e30, 0.01),  # 1e32 nodes, beyond numpy's largest array
        (1e-300, 1.0, 1e-302),  # 1e302 nodes
        (3.2, 1e300, 1e-300),  # t_end/step overflows to inf
        (3.2, math.nan, 0.01),  # named as non-finite before the memory check
    ],
)
def test_simulate_rejects_nodes_beyond_memory(tau, t_end, step):
    match = "bytes of memory" if math.isfinite(t_end) else r"^t_end must be finite, got nan$"
    with pytest.raises(ValidationError, match=match):
        simulate(reference_model(tau), 0.02, t_end=t_end, step=step)


@pytest.mark.parametrize("tau", [1e308])
def test_simulate_refuses_a_lag_beyond_the_node_indices(tau):
    # tau/step overflows to inf at 1e308, on which the block length's
    # math.floor would raise
    with pytest.raises(ValidationError, match=r"^tau/step = inf must be finite$"):
        simulate(reference_model(tau), 0.02, t_end=1.0, step=0.05)


@pytest.mark.parametrize("tau", [1e300, 1e20])
def test_simulate_runs_a_lag_beyond_the_node_indices_as_history(tau):
    # tau/step is finite but beyond the int64 node indices: every delayed
    # price is the history's p0, so each slope is the history's, bit for
    # bit, and the price grows as p0 exp(k (x(p0) - c) t)
    model = reference_model(tau)
    p0 = 0.025
    traj = simulate(model, p0, t_end=1.0, step=0.05)
    rate = model.demand.rates(np.array([p0]))[0] - model.c
    assert np.array_equal(traj.derivs, rate * traj.values * model.k)
    np.testing.assert_allclose(traj.values, p0 * np.exp(model.k * rate * traj.t), rtol=1e-13)


def test_memory_falls_back_to_the_largest_array_size(monkeypatch):
    def no_sysconf(name):
        raise OSError("not reported")

    monkeypatch.setattr(dde.os, "sysconf", no_sysconf)
    assert dde._memory_bytes() == sys.maxsize
    assert len(simulate(reference_model(3.2), 0.02, t_end=2.0, step=0.02).values) == 101


def test_simulate_memory_bound_is_exact(monkeypatch):
    # Pretend the machine holds exactly the 101 nodes of 100 steps.
    monkeypatch.setattr(dde, "_memory_bytes", lambda: 16 * 101)
    model = reference_model(3.2)
    p0 = 0.02
    assert len(simulate(model, p0, t_end=2.0, step=0.02).values) == 101
    with pytest.raises(ValidationError, match="bytes of memory"):
        simulate(model, p0, t_end=2.02, step=0.02)


def test_node_array_has_one_size_across_a_sweep_near_the_onset():
    # the history rows are rounded up, so a sweep's runs allocate one size:
    # an array whose length followed the delay would have malloc fault in
    # fresh pages on every run, and raise the sweep's peak memory
    sizes = set()
    for tau in np.linspace(3.15, 3.5, 36):
        traj = simulate(reference_model(float(tau)), 0.025, 500.0, 0.02)
        assert traj.values.base is traj.derivs.base
        sizes.add(traj.values.base.nbytes)
    assert len(sizes) == 1


# Far from equilibrium a delayed price of 1e3 against p* = 0.02 gives the
# rate h k (x - c) = -5000 over a whole step: its growth factor underflows
# to 0.0, the one way an exponential step loses positivity.
def _underflow_model():
    return ModelConfig(k=100.0, c=C, tau=10.0, demand=Reciprocal(w=1.0))


def test_positivity_loss_reports_time():
    with pytest.raises(PositivityLoss) as excinfo:
        simulate(_underflow_model(), 1e3, t_end=10.0, step=1.0)
    assert excinfo.value.time == 1.0
    assert "positive" in str(excinfo.value).lower()


def test_positivity_loss_mid_block_reports_node_time():
    # lag = 10 steps, so steps 0-7 form the first block; a constant demand
    # c - 207 shrinks the price by exp(-207) a step, so from 1e3 node t = 4
    # underflows to 0.0 while the nodes after it in the same block are
    # computed too
    demand = NumericWrapper(func=lambda p: 0.0 * p + (C - 207.0))
    model = ModelConfig(k=1.0, c=C, tau=10.0, demand=demand)
    for run in (simulate, scalar_simulate):
        with pytest.raises(PositivityLoss) as excinfo:
            run(model, 1e3, 10.0, 1.0)
        assert excinfo.value.time == 4.0


def test_positivity_loss_before_the_product_turns_nan_reports_node_time():
    # the price grows by e a step from 1 until the delayed price leaves 1.5
    # (step 10 reads t = 0.5): then the rate -1000 underflows node t = 11 to
    # 0.0, and delayed prices above 100 give the rate +1000, whose factor
    # overflows to inf, so the block's last node 16 is 0 inf = nan; yet the
    # run fails at node 11 with PositivityLoss, not with a non-finite price
    c = 50.0
    demand = NumericWrapper(
        func=lambda p: np.where(p < 1.5, c + 1.0, np.where(p < 100.0, c - 1000.0, c + 1000.0))
    )
    model = ModelConfig(k=1.0, c=c, tau=10.0, demand=demand)
    for run in (simulate, scalar_simulate):
        with pytest.raises(PositivityLoss) as excinfo:
            run(model, 1.0, 20.0, 1.0)
        assert excinfo.value.time == 11.0


def test_domain_violation_matches_scalar_loop():
    # the cycle at tau = 3.3 grows past the wrapper's upper domain bound;
    # both integrators must fail with the same error, not integrate on, and
    # name the same first delayed price outside the domain. That price falls
    # inside a full block that is not the last, so `simulate` first advances
    # the steps before it, on views sliced to that shorter block, and then
    # fails at the step that reads it.
    model = dataclasses.replace(
        reference_model(3.3),
        demand=NumericWrapper(func=lambda p: 1.0 / p, domain_lo=0.0, domain_hi=0.0245),
    )
    prices = []
    for run in (simulate, scalar_simulate):
        with pytest.raises(DomainViolation, match=r"^price \S+ outside") as excinfo:
            run(model, 0.021, 2000.0, 0.02)
        prices.append(float(str(excinfo.value).split()[1]))
    assert prices[0] > 0.0245
    assert prices[0] == pytest.approx(prices[1], rel=1e-12, abs=0.0)


def test_numeric_wrapper_errors_in_simulate():
    # simulate calls the wrapped callable on arrays of delayed prices
    p0 = 0.025
    scalar_only = NumericWrapper(func=lambda p: 1.0 / float(p), label="scalar only")
    with pytest.raises(ValidationError, match="accepts complex numpy arrays"):
        simulate(dataclasses.replace(reference_model(3.2), demand=scalar_only), p0, 10.0, 0.02)
    # exp(30/p) overflows at the history price: inf on the array instead of
    # OverflowError, and still one NumericalError with no numpy warning
    steep = NumericWrapper(func=lambda p: np.exp(30.0 / p), label="steep")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite"):
            simulate(dataclasses.replace(reference_model(3.2), demand=steep), p0, 10.0, 0.02)


@pytest.mark.parametrize("func, numpy_error", [
    (lambda p: np.array([50.0, 50.0]), ValueError),
    (lambda p: 1 / p + 0j, TypeError),
], ids=["wrong_shape", "complex"])
def test_demand_result_that_breaks_the_array_contract_in_simulate(func, numpy_error):
    # the wrapped callable runs on the block's delayed prices: a result of
    # another shape, or complex values on real prices, breaks the array
    # contract and is reported as such, not as numpy's broadcast or cast error
    config = dataclasses.replace(reference_model(3.2), demand=NumericWrapper(func=func))
    with pytest.raises(ValidationError, match="accepts complex numpy arrays") as excinfo:
        simulate(config, 0.025, 10.0, 0.02)
    assert isinstance(excinfo.value.__cause__, numpy_error)


# Steps of the shorter and the longer run; blocks are ceil(tau/step) - 2
# steps long: 105 at step 0.03, 318 at 0.01, 8 at 0.32 and 163 at 0.02.
@pytest.mark.parametrize("tau, step, t_short, t_long", [
    (3.2, 0.03, 10.0, 40.0),  # 333 of 1333: three blocks and 18 steps
    (3.2, 0.03, 3.0, 40.0),  # 100: shorter than one block
    (3.2, 0.03, 3.15, 40.0),  # 105: one block
    (3.2, 0.03, 3.18, 3.21),  # 106 of 107: one block and one step
    (3.2, 0.01, 2.0, 30.0),  # 200 of 3000: shorter than one block
    (3.2, 0.32, 3.2, 96.0),  # tau/step = 10: 10 of 300, one block and 2 steps
    (3.2, 0.32, 35.2, 96.0),  # 110 of 300: 13 blocks and 6 steps
    (3.3, 0.02, 100.0, 500.0),  # 5000 of 25000, above the onset
])
def test_a_longer_run_extends_a_shorter_one_bit_for_bit(tau, step, t_short, t_long):
    # the nodes up to T do not depend on how far past T the run goes, nor
    # on where its blocks end; this holds the views of a short last block
    # (and blocks as long as a short run) to those of a full block
    model = reference_model(tau)
    short = simulate(model, 0.025, t_short, step)
    long = simulate(model, 0.025, t_long, step)
    m = len(short.values)
    assert len(long.values) > m
    assert np.array_equal(short.values, long.values[:m])
    assert np.array_equal(short.derivs, long.derivs[:m])


def _demand(family, w, alpha):
    if family == "reciprocal":
        return Reciprocal(w=w)
    if family == "powerlaw":
        return PowerLaw(w=w, alpha=alpha)
    exponent = 1.0 / alpha
    return NumericWrapper(func=lambda p: (w / p) ** exponent, domain_lo=0.0)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["reciprocal", "powerlaw", "numeric"]),
    price_scale=st.integers(-3, 3).map(lambda e: 2.0**e),
    time_scale=st.integers(-3, 3).map(lambda e: 2.0**e),
    tau=st.floats(1.0, 6.0),
    lag=st.floats(10.0, 60.0),
    n=st.integers(10, 400),
    alpha=st.floats(0.5, 3.0),
    kick=st.floats(0.8, 1.5),
)
# the base run raises DomainViolation: price -118.41026836095858
@example(family="powerlaw", price_scale=4.0, time_scale=2.0, tau=5.0, lag=10.0, n=81,
         alpha=0.5, kick=1.25)
def test_nodes_scale_exactly_with_price_and_time(
    family, price_scale, time_scale, tau, lag, n, alpha, kick
):
    # q = P p and s = T t turn the model into itself with k/T, w P and
    # delay T tau; with powers of two every rounding scales exactly, so the
    # nodes are P times the original ones and the derivatives P/T times.
    # A run that fails (far past the onset at a coarse step the delayed
    # price can leave the domain) fails the same way, scaled.
    P, T = price_scale, time_scale
    w = 1.0 if family == "reciprocal" else 1.3
    p_star = w / C ** (1.0 if family == "reciprocal" else alpha)
    step = tau / lag

    def run(k, w, tau, history_p0, step):
        config = ModelConfig(k=k, c=C, tau=tau, demand=_demand(family, w, alpha))
        try:
            return simulate(config, history_p0, n * step, step)
        except NumericalError as exc:
            return exc

    base = run(K, w, tau, kick * p_star, step)
    scaled = run(K / T, P * w, T * tau, P * kick * p_star, T * step)
    if isinstance(base, Trajectory):
        assert np.array_equal(scaled.values, P * base.values)
        assert np.array_equal(scaled.derivs, P / T * base.derivs)
    elif isinstance(base, PositivityLoss):
        assert type(scaled) is PositivityLoss and scaled.time == T * base.time
    else:
        assert type(scaled) is DomainViolation and type(base) is DomainViolation
        assert _domain_price(scaled) == P * _domain_price(base)


def _domain_price(exc: DomainViolation) -> float:
    return float(re.match(r"price (\S+) outside", str(exc)).group(1))


def test_positivity_loss_carries_time_attribute():
    err = PositivityLoss(12.5)
    assert err.time == 12.5
    assert "12.5" in str(err)


def test_trajectory_roundtrip_exact(tmp_path):
    # 17 significant digits reproduce every double exactly
    model = reference_model(3.2)
    traj = simulate(model, 0.025, t_end=50.0, step=0.05)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    t, p = read_trajectory_csv(path)
    np.testing.assert_array_equal(t, traj.t)
    np.testing.assert_array_equal(p, traj.values)


def rowwise_trajectory_csv(traj, path):
    """The one-row-per-write trajectory writer that `write_trajectory_csv`
    replaced, kept as the byte-for-byte reference."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,p\n")
        for i, v in enumerate(traj.values):
            fh.write("%.17g,%.17g\n" % (traj.step * i, v))


def cubic_trajectory(n):
    return Trajectory(step=0.013, values=np.linspace(0.5, 3.0, n) ** 3, derivs=np.zeros(n))


# Node counts on either side of the CSV writer's chunk boundaries.
CHUNK_EDGES = [dde.CSV_CHUNK_ROWS - 1, dde.CSV_CHUNK_ROWS, dde.CSV_CHUNK_ROWS + 1,
               2 * dde.CSV_CHUNK_ROWS + 1]


@pytest.mark.parametrize("make", [
    lambda: simulate(reference_model(3.2), 0.025, t_end=50.0, step=0.05),
    lambda: cubic_trajectory(1001),
    lambda: Trajectory(step=0.1, values=np.array([0.02, 1 / 3]), derivs=np.zeros(2)),
    *(lambda n=n: cubic_trajectory(n) for n in CHUNK_EDGES),
], ids=["simulated", "non_round_step", "two_nodes",
        "chunk_minus_1", "chunk", "chunk_plus_1", "two_chunks_plus_1"])
def test_trajectory_csv_matches_rowwise_writer(tmp_path, make):
    traj = make()
    write_trajectory_csv(traj, tmp_path / "new.csv")
    rowwise_trajectory_csv(traj, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# Values that %.17g prints in fixed notation, which the writer formats with
# integer arithmetic; a chunk with any other value goes through `%`.
FIXED_FLOATS = st.floats(min_value=1e-4, max_value=1e17, exclude_max=True)
ANY_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


def _columns(values):
    rows = st.lists(st.tuples(values, values), min_size=1, max_size=40)
    return rows.map(lambda rows: tuple(np.array(column, dtype=float) for column in zip(*rows)))


def _node_times(step, n=150001):
    """The t column of an n-node trajectory."""
    return Trajectory(step=step, values=np.ones(n), derivs=np.zeros(n)).t


_POWERS = [10.0**k for k in range(-4, 17)]
_NEAR_POWERS = np.array([v for p in _POWERS for v in (np.nextafter(p, 0), p, np.nextafter(p, np.inf))
                         if v >= 1e-4])


@settings(deadline=None)
@given(columns=st.one_of(_columns(st.just(0.0) | FIXED_FLOATS), _columns(ANY_FLOATS)))
@example(columns=(np.array([0.0, 0.0]), np.array([1.0, -0.0])))
@example(columns=(np.array([0.0]), np.array([1.0])))
@example(columns=(np.array([1e-4]), np.array([0.5])))
@example(columns=(np.array([np.nextafter(1e-4, 0)]), np.array([0.5])))
@example(columns=(_NEAR_POWERS, _NEAR_POWERS[::-1].copy()))
@example(columns=(np.array([np.nextafter(1e17, 0)]), np.array([1e17])))
@example(columns=(np.array([np.nextafter(1e17, 0)]), np.array([1.0])))
@example(columns=(np.array([2**50 + 0.25, 2**50 + 0.75]), np.array([2**50 + 0.75, 2**50 + 0.25])))
@example(columns=(np.array([2.0**53 + 2, 5e-324]), np.array([1.7e308, 2.0**53 + 2])))
@example(columns=(np.array([2.0**53 + 2]), np.array([2.0**53 + 2])))
@example(columns=(np.array([0.5, 1e-5, 2.0, np.inf]), np.array([np.nan, 3.0, -1.0, 1e20])))
@example(columns=(_node_times(0.01), _node_times(0.01)))
@example(columns=(_node_times(0.013), _node_times(0.013)))
@example(columns=(_node_times(0.032345), _node_times(0.032345)))
@example(columns=(_node_times(1 / 3), _node_times(1 / 3)))
def test_csv_writer_matches_percent_format(tmp_path_factory, columns):
    first, second = columns
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    dde.write_csv_columns(path, "a,b", first, second)
    expected = "a,b\n" + "".join("%.17g,%.17g\n" % row for row in zip(first.tolist(), second.tolist()))
    assert path.read_bytes() == expected.encode("ascii")


# Traced peak above the trajectory handed in, measured at 0.58 MB for
# 4 chunks of 2048 rows and 1.17 MB for 40 (a whole-file `%` writer: 1.06
# and 10.5 MB at these lengths; Python 3.11, numpy 2.4). What grows with
# length is the t column, 8 bytes a node; the chunk's work block and text
# take the rest.
WRITER_PEAK_BOUND = 8e6


@pytest.mark.parametrize("chunks", [4, 40])
def test_trajectory_csv_writer_memory_is_bounded(tmp_path, chunks):
    traj = cubic_trajectory(chunks * dde.CSV_CHUNK_ROWS)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_trajectory_csv(traj, tmp_path / "traj.csv")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < WRITER_PEAK_BOUND


def test_trajectory_times_are_step_times_node_index():
    traj = cubic_trajectory(1001)
    assert np.array_equal(traj.t, 0.013 * np.arange(1001))
    assert traj.t.dtype == np.float64


def test_csv_writer_refuses_mismatched_columns_before_opening(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValidationError, match="columns of 3 and 4 rows"):
        dde.write_csv_columns(path, "t,p", np.zeros(3), np.ones(4))
    assert not path.exists()


@pytest.mark.parametrize("text, why", [
    ("t,p\n", "no data rows"),
    ("t,p\n0,abc\n", "not a two-column numeric CSV"),
    ("t,p\n0,1\n0.1,2,3\n", "not a two-column numeric CSV"),
    ("t,p\n0,1,2\n", "expected 2 columns, got 3"),
], ids=["header_only", "non_numeric", "ragged_row", "three_columns"])
def test_read_trajectory_csv_rejects_malformed_file(tmp_path, text, why):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=why) as err:
        read_trajectory_csv(path)
    assert str(path) in str(err.value)


def test_trajectory_validation():
    ok = np.array([1.0, 2.0])
    for step in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="^step must be"):
            Trajectory(step=step, values=ok, derivs=ok)
    with pytest.raises(ValidationError):
        Trajectory(step=1.0, values=np.array([1.0]), derivs=np.array([0.0]))
    with pytest.raises(ValidationError):
        Trajectory(step=1.0, values=ok, derivs=np.array([0.0]))


def test_dense_output_matches_nodes():
    # at either end of a step the Hermite basis picks out that node's value
    # exactly, which a delay of a whole number of steps relies on
    assert dde._hermite_weights(0.0) == (1.0, 0.0, 0.0, 0.0)
    assert dde._hermite_weights(1.0) == (0.0, 0.0, 1.0, 0.0)


@given(
    coeffs=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
    step=st.floats(1e-3, 1.0),
    n=st.integers(2, 50),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
)
@example(coeffs=[0.0, 0.0, 0.0, 2.225073858507e-311], step=0.5, n=2, fractions=[0.5])
def test_dense_output_reproduces_cubics(coeffs, step, n, fractions):
    # Cubic Hermite interpolation is exact on cubics: nodes sampling
    # q and q' give back q between the nodes, up to round-off.
    q = np.polynomial.Polynomial(coeffs)
    dq = q.deriv()
    pos = np.array(fractions) * (n - 1)
    j = np.minimum(pos.astype(int), n - 2)
    h00, h10, h01, h11 = dde._hermite_weights(pos - j)
    t0, t1 = step * j, step * (j + 1)
    dense = h00 * q(t0) + h10 * step * dq(t0) + h01 * q(t1) + h11 * step * dq(t1)
    t = step * pos
    reach = max(1.0, step * (n - 1))
    # round-off is relative to the cubic's size, but below the normal range
    # floats keep no relative precision: there the size counts as the
    # smallest normal float, or the tolerance underflows below one ulp
    scale = max(sum(abs(a) * reach**i for i, a in enumerate(coeffs)), np.finfo(float).tiny)
    np.testing.assert_allclose(dense, q(t), rtol=0, atol=1e-13 * scale)
