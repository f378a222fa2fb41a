"""Linear stability of the equilibrium.

Linearizing the model about p* gives du/dt = b2 * u(t - tau) with b2 < 0,
whose characteristic equation is the quasi-polynomial

    lambda - b2 * exp(-lambda * tau) = 0.

A conjugate pair crosses the imaginary axis at omega0 = -b2 when the delay
reaches tau0 = -pi/(2*b2); further crossings occur along the critical-delay
family tau_c(n) = -(2n+1)*pi/(2*b2) for even n. The crossing speed
Re(d lambda/d tau) at tau0 is b2^2/(1 + pi^2/4) > 0, so the pair crosses
transversally and a genuine oscillatory instability is born there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import NoConvergence, NonNegativeB2, SingularJacobian, ValidationError
from .model import TaylorCoefficients, check_delay


# linear_analysis reports this many critical delays: the onset tau0 and
# the next two crossings of the family.
N_CRITICAL = 3
# -(2n+1)*pi for n = 0, 2, 4, ...: over 2*b2, the critical delays tau_c(n)
_CRITICAL_NUMERATORS = tuple(-(2 * n + 1) * math.pi for n in range(0, 2 * N_CRITICAL, 2))


class StabilityVerdict(Enum):
    STABLE = "stable"
    CRITICAL = "critical"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class LinearAnalysis:
    """Closed-form linear-stability summary.

    Attributes
    ----------
    b2 : float
        Linear delayed-feedback coefficient (negative).
    omega0 : float
        Frequency of the critical root pair, -b2.
    tau0 : float
        First critical delay, -pi/(2*b2).
    tau_c : tuple of float
        The first three critical delays -(2n+1)*pi/(2*b2), n = 0, 2, 4,
        in increasing order; tau_c[0] == tau0.
    transversality : float
        Re(d lambda/d tau) at tau0, always positive.
    """

    b2: float
    omega0: float
    tau0: float
    tau_c: tuple[float, ...]
    transversality: float


@dataclass(frozen=True)
class ComplexRoot:
    """A characteristic root alpha + i*omega with its equation residual."""

    re: float
    im: float
    residual: float


def linear_analysis(coeffs: TaylorCoefficients) -> LinearAnalysis:
    """Evaluate the closed-form crossing speed and the first three
    (N_CRITICAL) critical delays.

    Raises
    ------
    NonNegativeB2
        If coeffs.b2 >= 0 (demand not strictly decreasing at p*).
    """
    b2 = coeffs.b2
    if b2 >= 0:
        raise NonNegativeB2(f"b2 = {b2!r} must be negative for a decreasing demand")
    omega0 = -b2
    twice_b2 = 2 * b2
    tau_c = tuple([numerator / twice_b2 for numerator in _CRITICAL_NUMERATORS])
    return LinearAnalysis(
        b2=b2,
        omega0=omega0,
        tau0=tau_c[0],
        tau_c=tau_c,
        transversality=b2 * b2 / (1.0 + math.pi**2 / 4.0),
    )


def is_locally_stable(analysis: LinearAnalysis, tau: float) -> StabilityVerdict:
    """Sign verdict for the equilibrium at delay tau.

    The boundary gets a relative tolerance band of 1e-9*tau0 and its own
    verdict so callers never mistake the borderline case for a side.
    """
    check_delay(tau)
    tol = 1e-9 * analysis.tau0
    if abs(tau - analysis.tau0) <= tol:
        return StabilityVerdict.CRITICAL
    if tau < analysis.tau0:
        return StabilityVerdict.STABLE
    return StabilityVerdict.UNSTABLE


def characteristic_root(
    coeffs: TaylorCoefficients, tau: float, guess: complex
) -> ComplexRoot:
    """Newton's method on g(lambda) = lambda - b2*exp(-lambda*tau).

    Raises
    ------
    NoConvergence
        If 100 iterations fail to bring |g| below 1e-12.
    SingularJacobian
        If |g'| falls below 1e-14 at an iterate.
    """
    check_delay(tau)
    if not (math.isfinite(guess.real) and math.isfinite(guess.imag)):
        raise ValidationError(f"guess must be finite, got {guess!r}")
    b2 = coeffs.b2
    lam = complex(guess)
    for _ in range(100):
        z = -lam * tau
        if z.real > 700.0:
            # exp would overflow: the iterate has run off to re(lam) << 0
            raise NoConvergence(
                f"characteristic root iteration diverged from {guess!r}"
            )
        e = cmath.exp(z)
        g = lam - b2 * e
        if abs(g) <= 1e-12:
            return ComplexRoot(re=lam.real, im=lam.imag, residual=abs(g))
        gp = 1.0 + b2 * tau * e
        if abs(gp) < 1e-14:
            raise SingularJacobian(f"|g'({lam!r})| < 1e-14")
        lam = lam - g / gp
    raise NoConvergence(f"characteristic root iteration stalled at {lam!r}")


def _principal_lambert_w(z: float) -> complex | None:
    """W0(z) for real z < 0, by Halley's iteration on w exp(w) = z.

    The result certifies the rightmost characteristic root W0(b2 tau)/tau,
    so it is None wherever it could be wrong or ill-conditioned: for z not
    finite or z >= 0, when Halley's iteration does not settle within 50
    steps, when it lands off the principal branch (for -1/e <= z < 0, W0
    is real and > -1; below -1/e, 0 < Im W0 < pi), and when |1 + w| < 0.1,
    that is within about 2e-3 of the double root at z = -1/e. There a
    Newton root's error grows like 1/|1 + w|, since g'(lambda) = 1 + w.
    """
    if not (math.isfinite(z) and z < 0.0):
        return None
    # Starts (Corless et al. 1996): the branch-point series around -1/e,
    # the Taylor series at 0 and the logarithmic asymptotics for large |z|.
    # A complex z makes cmath take the principal square root and logarithm,
    # whose imaginary parts are >= 0 on the negative real axis.
    zc = complex(z, 0.0)
    if z > -0.25:
        w = zc - zc * zc
    elif z > -0.7:
        p = cmath.sqrt(2.0 * (math.e * zc + 1.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    else:
        log_z = cmath.log(zc)
        log_log_z = cmath.log(log_z)
        w = log_z - log_log_z + log_log_z / log_z
    try:
        for _ in range(50):
            ew = cmath.exp(w)
            f = w * ew - z
            wp1 = w + 1.0
            dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
            w -= dw
            if abs(dw) <= 1e-14 * abs(w):
                break
        else:
            return None
    except (OverflowError, ZeroDivisionError):
        return None
    if z >= -1.0 / math.e:
        on_branch = w.imag == 0.0 and w.real > -1.0
    else:
        # W0 and W-1 are complex conjugates there; either solves w e^w = z
        w = complex(w.real, abs(w.imag))
        on_branch = 0.0 < w.imag < math.pi
    if not on_branch or abs(1.0 + w) < 0.1:
        return None
    return w


def rightmost_root(coeffs: TaylorCoefficients, tau: float) -> ComplexRoot:
    """Largest-real-part characteristic root, found by Newton from a fixed
    grid of starts and certified by the principal branch of Lambert W.

    lambda = b2 exp(-lambda tau) holds exactly for lambda = W_k(b2 tau)/tau
    on each branch k of Lambert W, and for real b2 and tau > 0 the principal
    branch gives the rightmost root (Shinozaki and Mori, Automatica 42,
    2006). That target W0(b2 tau)/tau, with im >= 0, is computed first.
    The starts (real parts -2|b2|, 0 and |b2|, each at frequencies 0,
    pi/(2 tau), pi/tau and 2 pi/tau) then run in order. Roots are
    deduplicated within 1e-8, conjugates are canonicalized to im >= 0, and
    the search stops at the first new root within 1e-8 of the target:
    later starts could only add roots that the deduplication drops or that
    lie further left, so that root is the one the whole grid returns. The
    value returned is Newton's root, not W0's.

    The target is withheld, and the whole grid runs and returns the root
    with the largest real part, when it cannot certify: b2 tau not finite
    or >= 0, Halley's iteration for W0 not settling or leaving the
    principal branch, b2 tau within about 2e-3 of -1/e (the double root,
    where Newton's copies of the root may lie more than 1e-8 apart), or
    roots so large that round-off in Newton's residual alone spreads its
    copies that far.

    The three real-axis starts (frequency 0) run only when the target is
    withheld or real. A certified complex target means -b2 tau > 1/e, where
    the equation has no real root; Newton's iterates from a real start stay
    real, so those starts could only fail.
    """
    if not 0 < tau < math.inf:
        raise ValidationError(f"rightmost_root needs a positive finite delay tau, got {tau!r}")
    b2 = coeffs.b2
    w0 = _principal_lambert_w(b2 * tau)
    target = None if w0 is None else w0 / tau
    # Newton accepts an iterate once the computed |g| <= 1e-12, and g is
    # rounded by about 2.2e-16 |lambda| (2 + |w|). With |1 + w| >= 0.1 every
    # accepted copy of the rightmost root then lies within 2.2e-9 of it, so
    # all copies deduplicate into the first, while |lambda| (2 + |w|) <= 1e6.
    if target is not None and abs(target) * (2.0 + abs(w0)) > 1e6:
        target = None
    alphas = (-2.0 * abs(b2), 0.0, abs(b2))
    omegas = (math.pi / (2 * tau), math.pi / tau, 2 * math.pi / tau)
    if target is None or target.imag == 0.0:
        omegas = (0.0,) + omegas
    found: list[ComplexRoot] = []
    for a in alphas:
        for w in omegas:
            try:
                root = characteristic_root(coeffs, tau, complex(a, w))
            except (NoConvergence, SingularJacobian):
                continue
            if root.im < 0:
                root = ComplexRoot(re=root.re, im=-root.im, residual=root.residual)
            if all(
                math.hypot(root.re - r.re, root.im - r.im) >= 1e-8 for r in found
            ):
                found.append(root)
                if target is not None and math.hypot(
                    root.re - target.real, root.im - target.imag
                ) < 1e-8:
                    return root
    if not found:
        raise NoConvergence("every start of the rightmost-root grid failed")
    return max(found, key=lambda r: r.re)
