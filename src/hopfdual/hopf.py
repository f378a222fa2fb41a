"""Second-order expansion of the bifurcating cycle and its stability.

Rescaling time as s = omega*t and expanding the deviation u, the frequency
omega, and the delay tau in an amplitude parameter eps (keeping every order
2pi-periodic) gives

    u(s)   = eps*sin(s) + eps^2*u1(s) + ...,
    u1(s)  = C1*sin(2s) + D1*cos(2s) + E1,
    omega  = omega0 + eps^2*omega2 + ...,
    tau    = tau0 + eps^2*tau2 + ...,

so a delay tau on the bifurcating side corresponds to the amplitude
eps = sqrt((tau - tau0)/tau2). The first-order corrections vanish
(omega1 = tau1 = 0). Perturbations Z = exp(eta*s)*q(s) around the cycle
give the growth exponent eta = eps^2*eta2 + ... with

    q(s) = sin(s) + eps*q1(s) + ...,
    q1(s) = A + B*cos(s) + C*sin(s) + D*cos(2s) + E*sin(2s).

Sign rules: tau2 > 0 means the cycle exists above tau0 (supercritical)
and tau2 < 0 below it (subcritical), which HopfExpansion.has_cycle_at
decides for every caller; eta2 < 0 means the cycle is orbitally stable;
omega2 < 0 means the period grows with the delay.

Two evaluations of these coefficients live here side by side:

- hopf_expansion is the paper's closed form, kept verbatim. It is written
  in the halved b4 and thirded b8 of TaylorCoefficients and leaves out the
  cubic coefficients b8 and b9, so its omega2, tau2 and harmonics are not
  those of the expansion above (reference setup: tau2 = 7140.5).
- normal_form is the corrected expansion: the order-eps^2 and order-eps^3
  solvability conditions of

      u' = b2*v + B4*u*v + b5*v^2 + B8*u*v^2 + b9*v^3,   v = u(t - tau),

  in the raw monomial coefficients B4 = 2*b4 = k*x' and B8 = 3*b8 = k*x''/2.
  With S = 3*B4^2 + 7*B4*b5 - 15*b2*b9 + 22*b5^2 they read

      omega2 = S/(20*b2),
      tau2   = (2*B4^2 + 18*B4*b5 - 10*B8*b2 + 8*b5^2 - pi*S)/(40*b2^3),
      C1 = -(B4 + 2*b5)/(10*b2),  D1 = (b5 - 2*B4)/(10*b2),  E1 = -b5/(2*b2).

  For reciprocal demand the substitution w = p*/p - 1 turns the model into
  Wright's equation w' = -k*c*w(t - tau)*(1 + w), and tau2 equals the
  classical (3*pi - 2)/(40*k*c*p*^2) (Hassard, Kazarinoff and Wan, Theory
  and Applications of Hopf Bifurcation, 1981); reference setup:
  tau2 = 928.097. Its growth exponent is the Hopf cycle's
  -2*alpha'(tau0)*(tau - tau0) per unit time (same reference), with
  alpha'(tau0) = LinearAnalysis.transversality; in units of s that is
  eta2 = -2*alpha'(tau0)*tau2/omega0 (reference setup: -267.66).

analyze builds the whole chain for a model (equilibrium, coefficients,
linear analysis, both expansions); its Chain.expansion names the one the
tool predicts and classifies with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .bifurcation import LinearAnalysis, linear_analysis
from .errors import (
    DegenerateBifurcation,
    ExpansionInvalid,
    NonNegativeB2,
    NumericalError,
    WrongSide,
)
from .model import (
    Equilibrium,
    ModelConfig,
    TaylorCoefficients,
    check_delay,
    find_equilibrium,
    taylor_coefficients,
)


@dataclass(frozen=True)
class U1Harmonics:
    """Coefficients of u1(s) = C1*sin(2s) + D1*cos(2s) + E1.

    The free first-harmonic constants (phase and amplitude redundancy) are
    fixed to zero, so the canonical waveform has no eps^2 correction at the
    fundamental frequency.
    """

    c1: float
    d1: float
    e1: float


@dataclass(frozen=True)
class Q1Harmonics:
    """Coefficients of q1(s) = A + B*cos(s) + C*sin(s) + D*cos(2s) + E*sin(2s),
    normalized by q1(0) = 0 and q1'(0) = 1."""

    a: float
    b: float
    c: float
    d: float
    e: float


@dataclass(frozen=True)
class HopfExpansion:
    """All expansion coefficients needed to predict and classify the cycle,
    from hopf_expansion (the paper's) or normal_form (the corrected one).

    q1_harmonics are the adjoint harmonics behind the paper's eta2; they
    are None for normal_form, whose eta2 = -2*transversality*tau2/omega0
    needs none. degenerate lists the names of second-order quantities that
    vanish relative to their natural scale (so sign verdicts would be
    meaningless).
    """

    omega0: float
    tau0: float
    omega2: float
    tau2: float
    eta2: float
    u1_harmonics: U1Harmonics
    q1_harmonics: Q1Harmonics | None
    p_star: float
    degenerate: tuple[str, ...] = ()

    def has_cycle_at(self, tau: float) -> bool:
        """Whether the expansion has a cycle at delay tau: below tau0 when
        tau2 < 0 (subcritical), above it otherwise. A vanishing tau2 counts
        as above, where predicted_cycle raises DegenerateBifurcation."""
        below = self.tau2 < 0 and "tau2" not in self.degenerate
        return bool(tau < self.tau0 if below else tau > self.tau0)


class Direction(Enum):
    SUPERCRITICAL = "supercritical"
    SUBCRITICAL = "subcritical"


class CycleStability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"


class PeriodTrend(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


@dataclass(frozen=True)
class BifurcationClass:
    direction: Direction
    cycle_stability: CycleStability
    period_trend: PeriodTrend


@dataclass(frozen=True)
class CyclePrediction:
    """Cycle characteristics predicted at a given delay.

    Attributes
    ----------
    tau : float
        Delay the prediction is for.
    tau0 : float
        Onset delay of the expansion the prediction comes from.
    epsilon : float
        Amplitude parameter sqrt((tau - tau0)/tau2).
    amplitude : float
        Leading-order half peak-to-trough, equal to epsilon; the eps^2
        harmonics perturb the true excursion at second order.
    omega, period : float
        Angular frequency omega0 + omega2*eps^2 and period 2*pi/omega.
    mean_offset : float
        DC shift of the cycle mean above p_star, eps^2*E1.
    floquet_exponent : float
        Growth exponent eps^2*eta2 of perturbations of the cycle per unit
        of s = omega*t (times omega0: per unit time); negative: stable cycle.
    p_star : float
        Equilibrium the cycle surrounds.
    warning : str or None
        Set when eps^2 > 0.01, where the local expansion loses reliability.
    """

    tau: float
    tau0: float
    epsilon: float
    amplitude: float
    omega: float
    period: float
    mean_offset: float
    floquet_exponent: float
    p_star: float
    u1_harmonics: U1Harmonics
    warning: str | None = None

    def sample(self, t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Predicted waveform p(t) = p* + eps*sin(wt) + eps^2*u1(wt)."""
        s = self.omega * np.asarray(t, dtype=float)
        h = self.u1_harmonics
        u1 = h.c1 * np.sin(2 * s) + h.d1 * np.cos(2 * s) + h.e1
        out = self.p_star + self.epsilon * np.sin(s) + self.epsilon**2 * u1
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def _vanishing(*checks: tuple[str, float, float]) -> tuple[str, ...]:
    """Names of (name, value, scale) quantities below 1e-12 of their scale."""
    return tuple(name for name, value, scale in checks
                 if abs(value) <= 1e-12 * max(1.0, scale))


def _b2_cubed(b2: float) -> float:
    """b2**3, the denominator of both tau2; NonNegativeB2 if b2 >= 0 and
    NumericalError if the cube overflows or underflows to zero."""
    if b2 >= 0:
        raise NonNegativeB2(f"b2 = {b2!r} must be negative")
    try:
        cube = b2**3
    except OverflowError:
        cube = -math.inf
    if not -math.inf < cube < 0.0:
        raise NumericalError(f"b2 = {b2!r}: b2**3 is outside the floating-point range")
    return cube


def hopf_expansion(coeffs: TaylorCoefficients, analysis: LinearAnalysis) -> HopfExpansion:
    """Evaluate the paper's closed-form expansion coefficients verbatim.

    normal_form gives the corrected omega2, tau2 and harmonics.

    Raises
    ------
    NonNegativeB2, NumericalError
        As _b2_cubed.
    """
    b2, b4, b5 = coeffs.b2, coeffs.b4, coeffs.b5
    b2_cubed = _b2_cubed(b2)
    pi = math.pi
    e1 = -b5 / (2 * b2)
    c1 = -(b4 + 2 * b5) / (10 * b2)
    d1 = (-2 * b4 + b5) / (10 * b2)
    omega2 = (b4 + 2 * b5) * b5 / (2 * b2)
    tau2 = ((2 - pi) * b4 * b5 - 2 * pi * b5 * b5) / (4 * b2_cubed)
    eta2 = 5 * b4 * b5 / (2 * b2 * b2)
    qb = (4 * b4 + 4 * b5) / (5 * b2)
    q1 = Q1Harmonics(
        a=-b5 / b2,
        b=qb,
        c=1.0 + qb,
        d=(b5 - 4 * b4) / (5 * b2),
        e=-(2 * b4 + 2 * b5) / (5 * b2),
    )
    return HopfExpansion(
        omega0=analysis.omega0,
        tau0=analysis.tau0,
        omega2=omega2,
        tau2=tau2,
        eta2=eta2,
        u1_harmonics=U1Harmonics(c1=c1, d1=d1, e1=e1),
        q1_harmonics=q1,
        p_star=coeffs.p_star,
        degenerate=_vanishing(
            ("omega2", omega2, (abs(b4) + 2 * abs(b5)) * abs(b5) / (2 * abs(b2))),
            ("tau2", tau2,
             ((pi - 2) * abs(b4 * b5) + 2 * pi * b5 * b5) / (4 * abs(b2_cubed))),
            ("eta2", eta2, 5 * abs(b4 * b5) / (2 * b2 * b2)),
        ),
    )


def normal_form(coeffs: TaylorCoefficients, analysis: LinearAnalysis) -> HopfExpansion:
    """Corrected second-order expansion from the raw monomial coefficients.

    See the module docstring for the closed forms. Only b2, b4, b5, b8 and
    b9 enter: b1, b3, b6 and b7 vanish for this model. eta2 vanishes
    exactly when tau2 does, so degenerate names omega2 and tau2 only.

    Raises
    ------
    NonNegativeB2, NumericalError
        As _b2_cubed.
    """
    b2, b5, b9 = coeffs.b2, coeffs.b5, coeffs.b9
    b2_cubed = _b2_cubed(b2)
    B4 = 2.0 * coeffs.b4
    B8 = 3.0 * coeffs.b8
    pi = math.pi
    terms_s = (3 * B4 * B4, 7 * B4 * b5, -15 * b2 * b9, 22 * b5 * b5)
    s = sum(terms_s)
    terms_tau2 = (2 * B4 * B4, 18 * B4 * b5, -10 * B8 * b2, 8 * b5 * b5)
    omega2 = s / (20 * b2)
    tau2 = (sum(terms_tau2) - pi * s) / (40 * b2_cubed)
    scale_s = sum(abs(t) for t in terms_s)
    return HopfExpansion(
        omega0=analysis.omega0,
        tau0=analysis.tau0,
        omega2=omega2,
        tau2=tau2,
        eta2=-2 * analysis.transversality * tau2 / analysis.omega0,
        u1_harmonics=U1Harmonics(
            c1=-(B4 + 2 * b5) / (10 * b2),
            d1=(b5 - 2 * B4) / (10 * b2),
            e1=-b5 / (2 * b2),
        ),
        q1_harmonics=None,
        p_star=coeffs.p_star,
        degenerate=_vanishing(
            ("omega2", omega2, scale_s / (20 * abs(b2))),
            ("tau2", tau2,
             (sum(abs(t) for t in terms_tau2) + pi * scale_s) / (40 * abs(b2_cubed))),
        ),
    )


def classify(exp: HopfExpansion) -> BifurcationClass:
    """Sign verdicts for direction, cycle stability, and period trend.

    Raises
    ------
    DegenerateBifurcation
        If any classifying quantity vanishes (flagged at construction or
        exactly zero), naming that quantity.
    """
    for name, value in (("tau2", exp.tau2), ("eta2", exp.eta2), ("omega2", exp.omega2)):
        if name in exp.degenerate or value == 0.0:
            raise DegenerateBifurcation(name)
    return BifurcationClass(
        direction=Direction.SUPERCRITICAL if exp.tau2 > 0 else Direction.SUBCRITICAL,
        cycle_stability=CycleStability.STABLE if exp.eta2 < 0 else CycleStability.UNSTABLE,
        period_trend=PeriodTrend.INCREASING if exp.omega2 < 0 else PeriodTrend.DECREASING,
    )


def predicted_cycle(exp: HopfExpansion, tau: float) -> CyclePrediction:
    """Predict the cycle at delay tau from a second-order expansion, the
    paper's or the corrected one.

    Raises
    ------
    DegenerateBifurcation
        If tau2 vanishes, so no delay-to-amplitude map exists.
    WrongSide
        If (tau - tau0)/tau2 < 0: no cycle on that side of the onset.
    ExpansionInvalid
        If the predicted frequency is nonpositive (tau absurdly far out).
    """
    check_delay(tau)
    if "tau2" in exp.degenerate or exp.tau2 == 0.0:
        raise DegenerateBifurcation("tau2")
    eps2 = (tau - exp.tau0) / exp.tau2
    if eps2 < 0:
        raise WrongSide(
            f"tau = {tau:.6g} is on the non-bifurcating side of tau0 = {exp.tau0:.6g}"
        )
    eps = math.sqrt(eps2)
    omega = exp.omega0 + exp.omega2 * eps2
    if omega <= 0:
        raise ExpansionInvalid(
            f"predicted frequency {omega:.3g} <= 0 at tau = {tau:.6g}; "
            "the expansion cannot reach this delay"
        )
    warning = None
    if eps2 > 0.01:
        warning = (
            f"epsilon^2 = {eps2:.3g} exceeds 0.01; the expansion is local and "
            "this far from onset its predictions degrade"
        )
    return CyclePrediction(
        tau=tau,
        tau0=exp.tau0,
        epsilon=eps,
        amplitude=eps,
        omega=omega,
        period=2 * math.pi / omega,
        mean_offset=eps2 * exp.u1_harmonics.e1,
        floquet_exponent=eps2 * exp.eta2,
        p_star=exp.p_star,
        u1_harmonics=exp.u1_harmonics,
        warning=warning,
    )


@dataclass(frozen=True)
class Chain:
    """One model's analysis, from equilibrium to both expansions.

    paper is the paper's verbatim expansion and normal_form the corrected
    one; expansion is the one predictions, classification and the cycle
    side (its has_cycle_at) use.
    """

    equilibrium: Equilibrium
    coefficients: TaylorCoefficients
    linear: LinearAnalysis
    paper: HopfExpansion
    normal_form: HopfExpansion

    @property
    def expansion(self) -> HopfExpansion:
        return self.paper


def analyze(model: ModelConfig) -> Chain:
    """Equilibrium, Taylor coefficients, linear analysis and both
    expansions of a model."""
    eq = find_equilibrium(model)
    coeffs = taylor_coefficients(model, eq)
    lin = linear_analysis(coeffs)
    return Chain(eq, coeffs, lin, hopf_expansion(coeffs, lin), normal_form(coeffs, lin))
