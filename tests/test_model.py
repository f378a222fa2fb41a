"""Equilibrium solving, canonical coefficients, and the numeric oracle."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import C, K, reference_model
from hopfdual import numdiff
from hopfdual import (
    DomainViolation,
    ModelConfig,
    NoBracket,
    NumericWrapper,
    PowerLaw,
    Reciprocal,
    ValidationError,
    find_equilibrium,
    numeric_taylor_oracle,
    rhs,
    taylor_coefficients,
)


def test_model_config_validation():
    demand = Reciprocal(w=1.0)
    with pytest.raises(ValidationError):
        ModelConfig(k=0.0, c=C, tau=1.0, demand=demand)
    with pytest.raises(ValidationError):
        ModelConfig(k=K, c=-1.0, tau=1.0, demand=demand)
    with pytest.raises(ValidationError):
        ModelConfig(k=K, c=C, tau=-0.1, demand=demand)
    assert ModelConfig(k=K, c=C, tau=0.0, demand=demand).tau == 0.0


def test_equilibrium_reference(eq):
    assert eq.p_star == pytest.approx(0.02, abs=1e-12)
    assert abs(eq.residual) <= 1e-12 * C


def test_equilibrium_unit_capacity():
    m = ModelConfig(k=0.03, c=1.0, tau=1.0, demand=Reciprocal(w=1.0))
    assert find_equilibrium(m).p_star == pytest.approx(1.0, rel=1e-12)


def test_equilibrium_powerlaw():
    m = ModelConfig(k=K, c=C, tau=1.0, demand=PowerLaw(w=1.0, alpha=2.0))
    assert find_equilibrium(m).p_star == pytest.approx(4.0e-4, rel=1e-12)


def test_equilibrium_independent_of_gain_and_delay():
    base = find_equilibrium(reference_model(3.2))
    other = find_equilibrium(
        ModelConfig(k=5.0, c=C, tau=0.0, demand=Reciprocal(w=1.0))
    )
    assert other.p_star == pytest.approx(base.p_star, rel=1e-14)


def test_no_bracket_when_capacity_unreachable():
    bounded = NumericWrapper(
        func=lambda p: 2.0 / (1.0 + p), domain_lo=0.0, label="bounded"
    )
    m = ModelConfig(k=K, c=C, tau=1.0, demand=bounded)
    with pytest.raises(NoBracket):
        find_equilibrium(m)


# Each walk heads for a domain edge it cannot cross (x - c keeps its sign up
# to the edge) until the midpoint rounds onto the edge; the walk then stops
# itself instead of evaluating x there.
@pytest.mark.parametrize(
    "func, lo, hi, c, edge",
    [
        (lambda p: 2.0 - p, 0.0, 1.0, 0.5, 1.0),  # walking up
        (lambda p: 1.0 - p, 0.5, 4.0, 5.0, 0.5),  # walking down
    ],
)
def test_bracket_walk_never_probes_a_domain_edge(func, lo, hi, c, edge):
    demand = NumericWrapper(func=func, domain_lo=lo, domain_hi=hi, label="edge")
    m = ModelConfig(k=K, c=c, tau=1.0, demand=demand)
    with pytest.raises(
        DomainViolation, match=f"^bracket expansion reached demand domain edge {edge!r}$"
    ):
        find_equilibrium(m)


# On a domain an ulp or two wide the start point 0.5 (lo + hi) rounds onto
# an edge (lo, then hi); past 1e308 doubling lo overflows. The solver refuses
# these itself, before it evaluates x anywhere.
@pytest.mark.parametrize("lo, hi", [
    (1.0, math.nextafter(1.0, 2.0)),
    (math.nextafter(3.0, 4.0), math.nextafter(math.nextafter(3.0, 4.0), 4.0)),
    (1e308, math.inf),
])
def test_start_point_never_lands_on_a_domain_edge(lo, hi):
    probes = []

    def func(p):
        probes.append(p)
        return 2.0 - p

    demand = NumericWrapper(func=func, domain_lo=lo, domain_hi=hi, label="edge")
    m = ModelConfig(k=K, c=1.0, tau=1.0, demand=demand)
    with pytest.raises(
        DomainViolation, match=re.escape(f"demand domain ({lo!r}, {hi!r}) holds no start price")
    ):
        find_equilibrium(m)
    assert probes == []


def _power(w, alpha):
    return lambda p: (w / p) ** (1.0 / alpha)


# k, c and w over the ranges of the closed_form_grid benchmark; alpha from
# its range [0.5, 3] down to steep demand, x ~ p^-100 at alpha = 0.01. The
# example starts from the bracket [1, 2] with x - c about 3.4e15 at 1 and
# -1 at 2, so the first secant steps move p by a single ulp
@given(
    k=st.floats(-3.0, -1.0).map(lambda e: 10.0**e),
    c=st.floats(0.0, 2.0).map(lambda e: 10.0**e),
    w=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
    alpha=st.floats(-2.0, math.log10(3.0)).map(lambda e: 10.0**e),
)
@example(k=0.01, c=1.0, w=1.43, alpha=0.01)
def test_equilibrium_is_the_root_to_round_off(k, c, w, alpha):
    cases = (
        (Reciprocal(w=w), w / c),
        (PowerLaw(w=w, alpha=alpha), w / c**alpha),
        (NumericWrapper(func=_power(w, alpha), label="wrapped"), w / c**alpha),
    )
    for demand, exact in cases:
        eq = find_equilibrium(ModelConfig(k=k, c=c, tau=1.0, demand=demand))
        assert abs(eq.p_star - exact) <= 1e-14 * exact, (demand.name, eq.p_star, exact)
        assert eq.residual <= 1e-12 * c


class _CurveOnly(NumericWrapper):
    """A wrapped demand curve that refuses to be differentiated."""

    def derivatives(self, p):
        raise AssertionError(f"derivatives of the demand requested at p = {p!r}")


def test_equilibrium_needs_only_the_demand_curve():
    demand = _CurveOnly(func=_power(2.0, 1.5), label="curve only")
    eq = find_equilibrium(ModelConfig(k=K, c=C, tau=1.0, demand=demand))
    assert abs(eq.p_star - 2.0 / C**1.5) <= 1e-14 * eq.p_star


def test_rhs_hand_values(model):
    assert rhs(model, 0.02, 0.02) == pytest.approx(0.0, abs=1e-15)
    assert rhs(model, 0.02, 0.01) == pytest.approx(0.01, rel=1e-12)
    assert rhs(model, 0.04, 0.04) == pytest.approx(-0.01, rel=1e-12)


def test_reference_coefficients(coeffs):
    assert coeffs.p_star == pytest.approx(0.02, abs=1e-12)
    assert coeffs.b2 == pytest.approx(-0.5, rel=1e-12)
    assert coeffs.b4 == pytest.approx(-12.5, rel=1e-12)
    assert coeffs.b5 == pytest.approx(25.0, rel=1e-12)
    assert coeffs.b8 == pytest.approx(1250.0 / 3.0, rel=1e-12)
    assert coeffs.b9 == pytest.approx(-1250.0, rel=1e-12)
    assert (coeffs.b1, coeffs.b3, coeffs.b6, coeffs.b7) == (0.0, 0.0, 0.0, 0.0)


def test_coefficients_double_with_gain():
    for demand in (Reciprocal(w=1.0), PowerLaw(w=1.0, alpha=2.0)):
        m1 = ModelConfig(k=K, c=C, tau=1.0, demand=demand)
        m2 = dataclasses.replace(m1, k=2.0 * K)
        eq1, eq2 = find_equilibrium(m1), find_equilibrium(m2)
        assert eq2.p_star == pytest.approx(eq1.p_star, rel=1e-12)
        c1 = taylor_coefficients(m1, eq1).as_dict()
        c2 = taylor_coefficients(m2, eq2).as_dict()
        for name, value in c1.items():
            assert c2[name] == pytest.approx(2.0 * value, rel=1e-12), name


def test_oracle_across_families():
    families = (
        Reciprocal(w=1.0),
        PowerLaw(w=1.0, alpha=2.0),
        NumericWrapper(func=lambda p: 1.0 / p, domain_lo=0.0, label="wrapped"),
    )
    for demand in families:
        m = ModelConfig(k=K, c=C, tau=1.0, demand=demand)
        e = find_equilibrium(m)
        closed = taylor_coefficients(m, e)
        oracle = numeric_taylor_oracle(m, e)
        assert oracle.b2 == pytest.approx(closed.b2, rel=1e-6), demand.name
        assert oracle.b5 == pytest.approx(closed.b5, rel=1e-5), demand.name
        assert oracle.b9 == pytest.approx(closed.b9, rel=1e-5), demand.name
        # the direct monomial coefficients carry the full multinomial
        # weight, so the uv and uv^2 entries are 2x and 3x the canonical b4, b8
        assert oracle.b4 == pytest.approx(2.0 * closed.b4, rel=1e-3), demand.name
        assert oracle.b8 == pytest.approx(3.0 * closed.b8, rel=1e-3), demand.name
        scale = max(abs(closed.b2), abs(closed.b4), abs(closed.b5),
                    abs(closed.b8), abs(closed.b9), 1.0)
        for name in ("b1", "b3", "b6", "b7"):
            assert abs(getattr(oracle, name)) <= 1e-8 * scale, (demand.name, name)


def test_oracle_samples_the_radius_probes_and_one_torus(monkeypatch):
    # x ~ p^-30: the radius halves twice from a quarter of p*, one demand
    # call per circle, and F is then called once, on one 8 x 32 torus,
    # whose v circle is the last circle: F reads its samples and does not
    # call the demand again
    prices, torus = [], []

    def func(p):
        prices.append(p)
        return (2.0 / p) ** 30

    mixed_partial = numdiff.mixed_partial

    def counted(F, su, sv):
        def counted_F(u, v):
            torus.append(np.broadcast(u, v).shape)
            return F(u, v)

        return mixed_partial(counted_F, su, sv)

    monkeypatch.setattr(numdiff, "mixed_partial", counted)
    m = ModelConfig(k=K, c=C, tau=1.0, demand=NumericWrapper(func=func, label="steep"))
    eq = find_equilibrium(m)
    prices.clear()
    oracle = numeric_taylor_oracle(m, eq)
    assert torus == [(8, 32)]
    radii = [abs(p[0] - eq.p_star) / eq.p_star for p in prices]
    assert radii == pytest.approx([0.25, 0.125, 0.0625], rel=1e-12)
    closed = taylor_coefficients(m, eq)
    assert oracle.b2 == pytest.approx(closed.b2, rel=1e-10)
    assert oracle.b9 == pytest.approx(closed.b9, rel=1e-10)


def test_oracle_calls_a_smooth_demand_once():
    # exp(-p) passes the first circle, whose samples serve the torus too
    calls = []

    def func(p):
        calls.append(p)
        return np.exp(-p)

    m = ModelConfig(k=1.0, c=0.95, tau=1.0, demand=NumericWrapper(func=func))
    eq = find_equilibrium(m)
    calls.clear()
    numeric_taylor_oracle(m, eq)
    assert len(calls) == 1


def test_oracle_preserves_p_star(model, eq):
    oracle = numeric_taylor_oracle(model, eq)
    assert oracle.p_star == eq.p_star


def test_equilibrium_residual_definition(model, eq):
    assert eq.residual == pytest.approx(
        abs(model.demand.x(eq.p_star) - model.c), abs=1e-15
    )
    assert eq.residual >= 0.0

