"""Demand families: values, derivatives, domains, and construction."""

import dataclasses
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfdual import (
    DemandFunction,
    DomainViolation,
    ModelConfig,
    NumericalError,
    NumericWrapper,
    PowerLaw,
    Reciprocal,
    ValidationError,
    analyze,
    find_equilibrium,
    make_demand,
    simulate,
)
from hopfdual.numdiff import circle, derivative


def test_reciprocal_values_and_derivatives():
    d = Reciprocal(w=2.0)
    p = 0.4
    assert d.x(p) == pytest.approx(5.0, rel=1e-15)
    d1, d2, d3 = d.derivatives(p)
    assert d1 == pytest.approx(-12.5, rel=1e-15)
    assert d2 == pytest.approx(62.5, rel=1e-15)
    assert d3 == pytest.approx(-6.0 * 2.0 / 0.4**4, rel=1e-15)


def test_powerlaw_alpha_one_equals_reciprocal():
    pl = PowerLaw(w=1.7, alpha=1.0)
    rec = Reciprocal(w=1.7)
    for p in (0.2, 1.0, 3.5):
        assert pl.x(p) == pytest.approx(rec.x(p), rel=1e-14)
        assert pl.derivatives(p) == pytest.approx(rec.derivatives(p), rel=1e-14)


def test_powerlaw_derivatives_match_finite_differences():
    d = PowerLaw(w=1.3, alpha=2.5)
    for p in (0.3, 1.1):
        jet = derivative(*circle(d.x_complex, p, 0.0))
        for order, (approx, exact) in enumerate(zip(jet, d.derivatives(p)), start=1):
            assert approx == pytest.approx(exact, rel=1e-6), (p, order)


def test_powerlaw_is_decreasing_and_positive():
    d = PowerLaw(w=1.0, alpha=0.5)
    for p in (0.01, 0.1, 1.0, 10.0):
        assert d.x(p) > 0.0
        assert d.derivatives(p)[0] < 0.0


def test_numeric_wrapper_matches_analytic_reciprocal():
    rec = Reciprocal(w=1.0)
    wrap = NumericWrapper(func=lambda p: 1.0 / p, domain_lo=0.0, label="wrapped")
    p = 0.02
    assert wrap.x(p) == rec.x(p)
    for got, exact, rel in zip(wrap.derivatives(p), rec.derivatives(p), (1e-9, 1e-8, 1e-6)):
        assert got == pytest.approx(exact, rel=rel)
    assert wrap.name == "wrapped"


@pytest.mark.parametrize("domain_hi, hi", [(math.inf, None), (0.04, 0.04)])
def test_numeric_wrapper_derivatives_are_the_accepted_circle_jet(domain_hi, hi):
    """derivatives(p) is the numdiff.derivative jet of the circle
    numdiff.circle accepts, bit for bit; this curve keeps the default
    radius, and an infinite upper bound acts as no bound."""

    def func(p):
        return (2.0 / p) ** 0.7

    wrap = NumericWrapper(func=func, domain_lo=0.0, domain_hi=domain_hi)
    p = 0.021
    r, samples = circle(func, p, 0.0, hi)
    assert r == 0.25 * min(p, domain_hi - p)
    assert wrap.derivatives(p) == derivative(r, samples)


def test_numeric_wrapper_calls_the_demand_once_per_circle():
    # x ~ p^-30 at 0.04: the radius halves twice from a quarter of p, one
    # demand call per circle, and the jet reads the samples of the last one
    prices = []

    def func(p):
        prices.append(p)
        return (2.0 / p) ** 30

    p = 0.04
    d1, d2, d3 = NumericWrapper(func=func).derivatives(p)
    radii = [abs(z[0] - p) / p for z in prices]
    assert radii == pytest.approx([0.25, 0.125, 0.0625], rel=1e-12)
    x = (2.0 / p) ** 30
    assert d1 == pytest.approx(-30.0 * x / p, rel=1e-10)
    assert d3 == pytest.approx(-30.0 * 31.0 * 32.0 * x / p**3, rel=1e-10)


def test_numeric_wrapper_refuses_negative_prices():
    for lo in (-0.354, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="positive prices"):
            NumericWrapper(func=lambda p: 1.0 / p, domain_lo=lo, domain_hi=1.0)


def test_overflowing_demand_raises_numerical_error():
    with pytest.raises(NumericalError, match=r"overflows at price 1\.0"):
        PowerLaw(w=1000.0, alpha=0.005).x(1.0)
    wrap = NumericWrapper(func=lambda p: math.exp(1000.0 / p), label="exp")
    with pytest.raises(NumericalError, match=r"^demand exp overflows at price 0\.5$"):
        wrap.x(0.5)


@pytest.mark.parametrize("name", ["reciprocal", "powerlaw", "numeric"])
def test_x_complex_continues_x(name):
    d = RATE_CURVES[name]
    p = np.array([0.3, 0.9, 1.2])
    assert np.allclose(d.x_complex(p + 0j), d.rates(p), rtol=1e-15, atol=0.0)
    z = np.array([0.5 + 0.1j, 1.1 - 0.2j])
    assert np.allclose(d.x_complex(z.conj()), d.x_complex(z).conj(), rtol=1e-15, atol=0.0)


def test_numeric_wrapper_needs_a_complex_array_callable():
    wrap = NumericWrapper(func=lambda p: math.exp(-p), label="scalar only")
    assert wrap.x(1.0) == math.exp(-1.0)
    with pytest.raises(ValidationError, match="accepts complex numpy arrays"):
        wrap.derivatives(1.0)
    # rates, which simulate calls, names the same contract
    with pytest.raises(ValidationError, match="accepts complex numpy arrays"):
        wrap.rates(np.array([1.0, 2.0]))


def test_domain_violations():
    with pytest.raises(DomainViolation):
        Reciprocal(w=1.0).x(0.0)
    with pytest.raises(DomainViolation):
        PowerLaw(w=1.0, alpha=2.0).x(-1.0)
    bounded = NumericWrapper(
        func=lambda p: 100.0 - 2500.0 * p, domain_lo=0.0, domain_hi=0.04
    )
    with pytest.raises(DomainViolation):
        bounded.x(0.05)
    assert bounded.x(0.02) == pytest.approx(50.0)


@dataclass(frozen=True)
class InverseSquare(DemandFunction):
    """x(p) = p^-2 on (0, inf), written as a family needs to be: x_complex
    and derivatives only."""

    def x_complex(self, z):
        return z**-2.0

    def derivatives(self, p):
        return -2.0 * p**-3.0, 6.0 * p**-4.0, -24.0 * p**-5.0


def test_family_needs_only_x_complex_and_derivatives():
    demand = InverseSquare()
    assert demand.x(0.5) == 4.0
    with pytest.raises(DomainViolation, match=r"^price -1\.0 outside demand domain \(0\.0, inf\)$"):
        demand.x(-1.0)
    with pytest.raises(DomainViolation, match=r"^price 0\.0 outside"):
        demand.rates(np.array([1.0, 0.0]))
    # Python's float pow raises OverflowError past the float range
    with pytest.raises(NumericalError, match=r"^demand demand overflows at price 1e-200$"):
        demand.x(1e-200)
    # k and c give p* = 0.02 and b2 = -0.5; PowerLaw(1, 0.5) is the same curve
    model = ModelConfig(k=1e-4, c=2500.0, tau=0.0, demand=demand)
    same = dataclasses.replace(model, demand=PowerLaw(w=1.0, alpha=0.5))
    assert find_equilibrium(model).p_star == pytest.approx(0.02, rel=1e-12)
    chain, reference = analyze(model), analyze(same)
    assert chain.linear.tau0 == pytest.approx(math.pi, rel=1e-12)
    assert chain.normal_form.tau2 == pytest.approx(reference.normal_form.tau2, rel=1e-9)
    traj, ref = (simulate(dataclasses.replace(m, tau=3.2), 0.025, 200.0, 0.02)
                 for m in (model, same))
    np.testing.assert_allclose(traj.values, ref.values, rtol=1e-12, atol=0)


def test_constructor_validation():
    with pytest.raises(ValidationError):
        Reciprocal(w=0.0)
    with pytest.raises(ValidationError):
        PowerLaw(w=1.0, alpha=-2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            Reciprocal(w=bad)
        with pytest.raises(ValidationError):
            PowerLaw(w=bad, alpha=2.0)
        with pytest.raises(ValidationError):
            PowerLaw(w=1.0, alpha=bad)
    with pytest.raises(ValidationError):
        NumericWrapper(func=None)
    with pytest.raises(ValidationError):
        NumericWrapper(func=lambda p: p, domain_lo=1.0, domain_hi=1.0)


def test_make_demand():
    assert make_demand("reciprocal", w=2.0).x(1.0) == pytest.approx(2.0)
    d = make_demand("powerlaw", w=1.0, alpha=2.0)
    assert d.x(4.0e-4) == pytest.approx(50.0, rel=1e-12)
    with pytest.raises(ValidationError):
        make_demand("powerlaw")
    with pytest.raises(ValidationError):
        make_demand("loglog")


def test_domain_metadata():
    d = Reciprocal(w=1.0)
    assert d.lo == 0.0
    assert math.isinf(d.hi)


RATE_CURVES = {
    "reciprocal": Reciprocal(w=1.3),
    "powerlaw": PowerLaw(w=1.3, alpha=2.5),
    "numeric": NumericWrapper(func=lambda p: 3.0 - p * p, domain_lo=0.0, domain_hi=1.5),
}
# numpy's vectorised pow may round differently from Python's in the last
# bit, so the power law is compared to within two units of double rounding
RATE_RTOL = {"reciprocal": 0.0, "powerlaw": 2 * np.finfo(float).eps, "numeric": 0.0}


def _prices(name):
    hi = 1.5 if name == "numeric" else 1e6
    inside = st.floats(1e-6, hi, exclude_max=True)
    return st.lists(inside, min_size=1, max_size=40)


def _outside(name):
    outside = st.sampled_from([0.0, -1.0, math.nan, -math.inf, math.inf])
    return st.one_of(outside, st.sampled_from([1.5, 7.0])) if name == "numeric" else outside


@pytest.mark.parametrize("name", sorted(RATE_CURVES))
def test_rates_match_scalar_x(name):
    demand = RATE_CURVES[name]

    @given(_prices(name))
    def check(prices):
        expected = np.array([demand.x(v) for v in prices])
        np.testing.assert_allclose(
            demand.rates(np.array(prices)), expected, rtol=RATE_RTOL[name], atol=0
        )
        grid = np.array(prices * 2).reshape(2, -1)  # any shape is kept
        assert demand.rates(grid).shape == grid.shape

    check()


@pytest.mark.parametrize("name", sorted(RATE_CURVES))
def test_rates_reject_any_price_outside_domain(name):
    demand = RATE_CURVES[name]

    @given(_prices(name), _outside(name), st.integers(0, 40))
    def check(prices, bad, at):
        prices.insert(at % (len(prices) + 1), bad)
        with pytest.raises(DomainViolation):
            demand.rates(np.array(prices))

    check()


@pytest.mark.parametrize("name", sorted(RATE_CURVES))
def test_rates_name_the_first_price_outside_domain(name):
    demand = RATE_CURVES[name]
    placed = st.tuples(_outside(name), st.integers(0, 40))

    @given(_prices(name), st.lists(placed, min_size=2, max_size=4))
    def check(prices, bads):
        # several bad prices, so the message must name the first of them
        for bad, at in bads:
            prices.insert(at % (len(prices) + 1), bad)
        first = next(v for v in prices if not demand.lo < v < demand.hi)
        with pytest.raises(DomainViolation, match=re.escape(f"price {first!r} outside")):
            demand.rates(np.array(prices))

    check()


# In-domain prices of every curve with the minimum, 0.2, at flat index 5,
# in the second row.
GRID = np.array([[0.9, 0.8, 0.7, 1.0], [1.1, 0.2, 1.2, 0.6], [0.5, 1.3, 0.4, 0.3]])


@pytest.mark.parametrize("name", sorted(RATE_CURVES))
@pytest.mark.parametrize("bads, first", [
    # nan before the minimum; read by columns, the 0.0 at (1, 0) would come first
    ({(0, 2): math.nan, (1, 0): 0.0}, math.nan),
    # nan after the minimum; read by columns, the nan at (2, 1) would come first
    ({(2, 1): math.nan, (1, 3): 0.0}, 0.0),
    # nan alone, at a flat index past the rows
    ({(2, 3): math.nan}, math.nan),
], ids=["nan-before-minimum", "nan-after-minimum", "nan-alone"])
def test_rates_name_the_first_price_outside_domain_in_flat_order(name, bads, first):
    # the domain check reads the extremes by flat index; a row index would
    # take rows of the grid, not prices
    prices = GRID.copy()
    for at, bad in bads.items():
        prices[at] = bad
    with pytest.raises(DomainViolation, match=re.escape(f"price {first!r} outside")):
        RATE_CURVES[name].rates(prices)


@pytest.mark.parametrize("name", sorted(RATE_CURVES))
def test_rates_of_no_prices_is_empty(name):
    out = RATE_CURVES[name].rates(np.array([]))
    assert out.shape == (0,) and out.dtype == float
