"""The dual congestion-control model and its local expansion.

The link price p(t) obeys

    dp/dt = k * p(t) * (x(p(t - tau)) - c)

with gain k, capacity c, round-trip delay tau, and demand curve x. The
equilibrium p* solves x(p*) = c; find_equilibrium gets it to round-off from
x alone, without its derivatives. Writing u = p - p* and expanding the right
side in the current and delayed deviations (u, v) gives

    du/dt = b1*u + b2*v + b3*u^2 + b4*u*v + b5*v^2
            + b6*u^3 + b7*u^2*v + b8*u*v^2 + b9*v^3 + ...

The canonical coefficients used by every downstream module are the closed
forms

    b2 = k*p*x'(p*),  b4 = k*x'(p*)/2,  b5 = k*p*x''(p*)/2,
    b8 = k*x''(p*)/6, b9 = k*p*x'''(p*)/6,  b1 = b3 = b6 = b7 = 0.

A direct Taylor expansion of F(u, v) = k*(u+p*)*(x(v+p*) - c) yields a uv
coefficient of k*x' (twice the canonical b4) and a uv^2 coefficient of
k*x''/2 (three times the canonical b8). numeric_taylor_oracle computes those
direct monomial coefficients from Cauchy integrals; the verify report
surfaces the two conventions side by side. The paper's expansion
(hopf.hopf_expansion) is written in the canonical forms; the corrected one
(hopf.normal_form) uses the raw 2*b4 and 3*b8.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .demand import DemandFunction
from .errors import DomainViolation, NoBracket, NumericalError, ValidationError


def check_delay(tau: float) -> None:
    """Raise ValidationError unless tau is a nonnegative finite delay."""
    if not 0 <= tau < math.inf:
        raise ValidationError(f"delay tau must be nonnegative and finite, got {tau!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Gain, capacity, delay, and demand curve: everything the model needs.

    Attributes
    ----------
    k : float
        Price adaptation gain, 1/(price * time unit). Must be positive.
    c : float
        Link capacity, packets per time unit. Must be positive.
    tau : float
        Round-trip delay, time units. Must be nonnegative.
    demand : DemandFunction
        Strictly decreasing rate-demand curve.
    """

    k: float
    c: float
    tau: float
    demand: DemandFunction

    def __post_init__(self):
        if not (isinstance(self.k, (int, float)) and math.isfinite(self.k) and self.k > 0):
            raise ValidationError(f"gain k must be positive and finite, got {self.k!r}")
        if not (isinstance(self.c, (int, float)) and math.isfinite(self.c) and self.c > 0):
            raise ValidationError(f"capacity c must be positive and finite, got {self.c!r}")
        if not (isinstance(self.tau, (int, float)) and math.isfinite(self.tau) and self.tau >= 0):
            raise ValidationError(f"delay tau must be nonnegative and finite, got {self.tau!r}")
        if not isinstance(self.demand, DemandFunction):
            raise ValidationError(f"demand must be a DemandFunction, got {type(self.demand)!r}")


@dataclass(frozen=True)
class Equilibrium:
    """Fixed point of the model.

    Attributes
    ----------
    p_star : float
        Price at which demand meets capacity, x(p*) = c.
    residual : float
        |x(p*) - c| actually achieved by the solver.
    """

    p_star: float
    residual: float


@dataclass(frozen=True)
class TaylorCoefficients:
    """Canonical expansion coefficients b1..b9 about p_star.

    b1, b3, b6, b7 are identically zero (the right side is linear in the
    undelayed deviation and vanishes at equilibrium) and stored explicitly.
    """

    b1: float
    b2: float
    b3: float
    b4: float
    b5: float
    b6: float
    b7: float
    b8: float
    b9: float
    p_star: float

    def as_dict(self) -> dict[str, float]:
        return {f"b{i}": getattr(self, f"b{i}") for i in range(1, 10)}


def rhs(config: ModelConfig, p: float, p_delayed: float) -> float:
    """Instantaneous price velocity k*p*(x(p_delayed) - c)."""
    return config.k * p * (config.demand.x(p_delayed) - config.c)


def _check_demand_value(demand: DemandFunction, p: float, v) -> None:
    """Raise unless v, x at price p, is a real number other than nan: a
    numbers.Real, numpy's scalars included, or a real 0-d array, which
    np.where and np.asarray return for one price."""
    if not isinstance(v, numbers.Real) and not (
        isinstance(v, np.ndarray) and v.shape == () and v.dtype.kind in "biuf"
    ):
        raise ValidationError(f"demand {demand.name} at price {p!r} is {v!r}, not a real number")
    if v != v:
        raise NumericalError(f"demand {demand.name} is nan at price {p!r}")


def find_equilibrium(config: ModelConfig) -> Equilibrium:
    """Solve x(p*) = c by bracket expansion plus Illinois regula falsi.

    The bracket grows geometrically from p = 1, or from a point inside the
    demand domain when 1 lies outside it (doubling upward or halving
    downward, at most 60 times) until x(p) - c changes sign. A step that
    would reach a domain edge goes halfway to it instead, and the walk stops
    with DomainViolation once that midpoint rounds onto either end. So does
    a start point that rounds onto an edge, on a domain an ulp or two wide;
    x is never evaluated at the edge. Regula falsi then shrinks the bracket, with
    the Illinois rule (Dowell and Jarratt, BIT 11, 1971) halving the stale
    end's value whenever the same end survives twice, and bisection whenever
    the secant point would not fall strictly inside. It stops when x(p) = c exactly or when the
    bracket is 4 ulp wide, so p* (the probe with the smallest |x(p) - c|)
    is the root to round-off. A short step does not stop it: regula falsi
    creeps by a few ulp while the far end's |x(p) - c| dwarfs the near
    end's, however far the root still is. Only x is evaluated, never its
    derivatives. Monotone demand makes the root unique.

    Returns
    -------
    Equilibrium
        With residual |x(p*) - c| <= 1e-12 * c.

    Raises
    ------
    NoBracket
        If 60 doublings find no sign change.
    DomainViolation
        If the start point or the bracket walk reaches a demand domain edge.
    ValidationError
        If x at a probe is not a real number (None, complex, an array).
    NumericalError
        If x at a probe is nan or overflows.
    """
    demand = config.demand
    lo_dom, hi_dom = demand.lo, demand.hi
    x, c = demand.x_complex, config.c

    def g(p: float) -> float:
        # Every probe lies strictly inside (lo, hi) by construction, so x is
        # evaluated unchecked; demand.x's overflow rule still applies.
        try:
            v = x(p)
        except OverflowError:
            raise demand.overflow_error(p) from None
        if type(v) is not float or v != v:
            _check_demand_value(demand, p, v)
        return v - c

    p0 = 1.0
    if not (lo_dom < p0 < hi_dom):
        p0 = 0.5 * (lo_dom + hi_dom) if math.isfinite(hi_dom) else max(lo_dom * 2, 1e-8)
        if not lo_dom < p0 < hi_dom:
            raise DomainViolation(
                f"demand domain ({lo_dom!r}, {hi_dom!r}) holds no start price inside it"
            )
    g0 = g(p0)
    if g0 == 0.0:
        return Equilibrium(p_star=p0, residual=0.0)

    # x decreasing: g > 0 means the root lies above p0, so the far end
    # doubles toward hi (s = +1); g < 0 means below, so it halves toward lo
    # (s = -1). Multiplying by s mirrors every comparison exactly.
    s, factor, edge = (1.0, 2.0, hi_dom) if g0 > 0 else (-1.0, 0.5, lo_dom)
    near, gn = p0, g0
    for _ in range(60):
        far = near * factor
        if s * far >= s * edge:
            far = 0.5 * (near + edge)
            # the midpoint can round onto either end: stop before probing the edge
            if not s * near < s * far < s * edge:
                raise DomainViolation(
                    f"bracket expansion reached demand domain edge {edge!r}"
                )
        gf = g(far)
        if s * gf <= 0:
            break
        near, gn = far, gf
    else:
        raise NoBracket(
            f"no sign change of x(p) - c within 60 doublings from p = {p0!r}"
        )
    (a, ga), (b, gb) = ((near, gn), (far, gf)) if s > 0 else ((far, gf), (near, gn))

    # invariant here: a < b with g(a) >= 0 >= g(b). fa and fb are the values
    # the secant uses: g at the ends, except that an end kept for a second
    # step in a row has its value halved. moved is +1 when the last step
    # replaced a, -1 when it replaced b.
    p, gp = (a, ga) if abs(ga) < abs(gb) else (b, gb)
    fa, fb, moved = ga, gb, 0
    for _ in range(200):
        if gp == 0.0:
            break
        cand = b - fb * (b - a) / (fb - fa)
        if not a < cand < b:
            cand = 0.5 * (a + b)
        gc = g(cand)
        if abs(gc) <= abs(gp):
            p, gp = cand, gc
        if gc > 0:
            a, fa = cand, gc
            if moved > 0:
                fb *= 0.5
            moved = 1
        else:
            b, fb = cand, gc
            if moved < 0:
                fa *= 0.5
            moved = -1
        if b - a <= 4 * math.ulp(max(abs(a), abs(b))):
            break
    return Equilibrium(p_star=p, residual=abs(gp))


def taylor_coefficients(config: ModelConfig, eq: Equilibrium) -> TaylorCoefficients:
    """Canonical closed-form coefficients at the equilibrium."""
    p = eq.p_star
    k = config.k
    d1, d2, d3 = config.demand.derivatives(p)
    return TaylorCoefficients(
        b1=0.0,
        b2=k * p * d1,
        b3=0.0,
        b4=0.5 * k * d1,
        b5=0.5 * k * p * d2,
        b6=0.0,
        b7=0.0,
        b8=k * d2 / 6.0,
        b9=k * p * d3 / 6.0,
        p_star=p,
    )


def numeric_taylor_oracle(config: ModelConfig, eq: Equilibrium) -> TaylorCoefficients:
    """Direct Taylor monomial coefficients of F(u, v) from Cauchy integrals.

    F(u, v) = k*(u + p*)*(x(v + p*) - c); the returned b_i are the exact
    coefficients of u^i v^j in its expansion at the origin (b4 is the uv
    coefficient, b8 the uv^2 coefficient, etc.). F is evaluated on one
    torus (numdiff.mixed_partial) whose two radii are the one that
    numdiff.circle picks from the demand curve around p*, from the demand
    samples on that circle: one call of demand.x_complex. All nine b_i are
    entries of the torus's table. Reporting-only: the verify command
    compares these against the canonical closed forms.
    """
    p_star = eq.p_star
    k = config.k
    c = config.c
    demand = config.demand

    # the u circle never touches the demand curve but shares its radius
    s, x = numdiff.circle(demand.x_complex, p_star, demand.lo, demand.hi)

    def F(u, v):
        # the torus's v circle is the circle's points p* + s w^k, in their
        # order, so the demand's samples there stand for x(v + p*)
        return k * (u + p_star) * (x - c)

    t = numdiff.mixed_partial(F, s, s).tolist()
    return TaylorCoefficients(
        b1=t[1][0], b2=t[0][1], b3=t[2][0], b4=t[1][1], b5=t[0][2],
        b6=t[3][0], b7=t[2][1], b8=t[1][2], b9=t[0][3], p_star=p_star,
    )
