"""Rate-demand curves x(p): price in, sending rate out.

A family implements two methods on an open price domain: `x_complex`,
the curve at one price or on a numpy array of prices, real or complex
(the analytic continuation that numdiff's Cauchy integrals sample); and
`derivatives`, the tuple (x'(p), x''(p), x'''(p)) at one price, which
only model.taylor_coefficients asks for. The base class checks prices
against the domain and builds the rest on x_complex: `x`, the curve at
one price, and `rates`, the curve over an array of prices (the
integrator's). Demand must be positive and strictly decreasing wherever
it is evaluated; the analysis modules rely on x'(p*) < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numdiff
from .errors import DomainViolation, NumericalError, ValidationError


@dataclass(frozen=True)
class DemandFunction:
    """Base demand curve. Subclasses implement x_complex and derivatives.

    Attributes
    ----------
    name : str
        Human-readable family name used in reports.
    lo, hi : float
        Open domain bounds (lo, hi) for the price argument.
    """

    name: str = field(init=False, default="demand")
    lo: float = field(init=False, default=0.0)
    hi: float = field(init=False, default=math.inf)

    def _check(self, p: float) -> None:
        if not (self.lo < p < self.hi):
            raise DomainViolation(
                f"price {p!r} outside demand domain ({self.lo!r}, {self.hi!r})"
            )

    def _check_array(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        # The extremes read by index: argmin and argmax cost about a third of
        # min and max reductions on a block's few hundred prices, and `item`
        # takes their flat index and returns a Python float, cheaper to read
        # and compare than `flat`'s numpy scalar. Both return the flat index
        # of the first nan, so a nan price fails the test and takes the mask
        # path, which names the first price outside.
        if p.size and not (p.item(p.argmin()) > self.lo and p.item(p.argmax()) < self.hi):
            inside = (self.lo < p) & (p < self.hi)
            self._check(float(p[~inside][0]))
        return p

    def x(self, p: float) -> float:
        """x at one price, checked against the domain."""
        self._check(p)
        try:
            return self.x_complex(p)
        except OverflowError:
            raise NumericalError(f"demand {self.name} overflows at price {p!r}") from None

    def rates(self, p) -> np.ndarray:
        """x at every price of an array, same shape; the whole array is
        checked against the domain before any evaluation."""
        p = self._check_array(p)
        try:
            return self.x_complex(p)
        except (TypeError, ValueError) as exc:
            raise numdiff.array_contract_error(exc) from exc

    def x_complex(self, z):
        """x at z, one price or a numpy array of them, real or complex, not
        checked against the domain; on complex points, the curve's analytic
        continuation, which numdiff samples on circles around a price."""
        raise NotImplementedError

    def derivatives(self, p: float) -> tuple[float, float, float]:
        """(x'(p), x''(p), x'''(p))."""
        raise NotImplementedError


@dataclass(frozen=True)
class Reciprocal(DemandFunction):
    """x(p) = w / p on (0, inf); w is the source's weight."""

    w: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.w < math.inf:
            raise ValidationError(f"reciprocal weight must be positive and finite, got {self.w!r}")
        object.__setattr__(self, "name", f"reciprocal(w={self.w:g})")

    def x_complex(self, z):
        return self.w / z

    def derivatives(self, p: float) -> tuple[float, float, float]:
        self._check(p)
        return -self.w / p**2, 2.0 * self.w / p**3, -6.0 * self.w / p**4


@dataclass(frozen=True)
class PowerLaw(DemandFunction):
    """x(p) = (w / p)^(1/alpha) on (0, inf): weighted alpha-fair demand."""

    w: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.w < math.inf:
            raise ValidationError(f"power-law weight must be positive and finite, got {self.w!r}")
        if not 0.0 < self.alpha < math.inf:
            raise ValidationError(
                f"power-law alpha must be positive and finite, got {self.alpha!r}"
            )
        object.__setattr__(self, "name", f"powerlaw(w={self.w:g}, alpha={self.alpha:g})")

    def x_complex(self, z):
        return (self.w / z) ** (1.0 / self.alpha)

    def derivatives(self, p: float) -> tuple[float, float, float]:
        b = 1.0 / self.alpha
        x = self.x(p)
        return -b * x / p, b * (b + 1.0) * x / p**2, -b * (b + 1.0) * (b + 2.0) * x / p**3


@dataclass(frozen=True)
class NumericWrapper(DemandFunction):
    """Wraps a demand callable on an explicit open domain of positive prices.

    Contract: `func` maps a float price to a float, a real numpy array of
    prices to the array of its values, and a complex one to the array of
    its analytic continuation: `simulate` calls it on arrays of delayed
    prices (`rates`), and `derivatives` and the coefficient oracle take
    Taylor coefficients from Cauchy integrals on circles around a price
    (numdiff). A callable written with numpy operations (`1 / p`,
    `np.exp(-p)`) does all three; one that accepts floats only
    (`math.exp`) raises ValidationError on arrays. It must be analytic on
    the disk around the price whose radius is a quarter of the room to the
    nearer domain bound. `derivatives` probes circles around the price
    until one passes (numdiff.circle, the one sampler of a circle, one
    call of `func` per circle) and takes all three derivatives from the
    samples on the circle it accepted (numdiff.derivative, which does not
    call `func` again); they feed only model.taylor_coefficients. The
    equilibrium solver evaluates x alone.
    """

    func: Callable[[float], float]
    domain_lo: float = 0.0
    domain_hi: float = math.inf
    label: str = "numeric"

    def __post_init__(self):
        if self.func is None:
            raise ValidationError("NumericWrapper requires a demand callable")
        if not self.domain_lo >= 0.0:
            raise ValidationError(
                f"demand domain must hold positive prices, got domain_lo {self.domain_lo!r}"
            )
        if not self.domain_lo < self.domain_hi:
            raise ValidationError(
                f"empty demand domain ({self.domain_lo!r}, {self.domain_hi!r})"
            )
        object.__setattr__(self, "name", self.label)
        object.__setattr__(self, "lo", self.domain_lo)
        object.__setattr__(self, "hi", self.domain_hi)

    def x_complex(self, z):
        return self.func(z)

    def derivatives(self, p: float) -> tuple[float, float, float]:
        return numdiff.derivative(*numdiff.circle(self.func, p, self.lo, self.hi))


FAMILIES = {"reciprocal", "powerlaw"}


def make_demand(family: str, w: float = 1.0, alpha: float | None = None) -> DemandFunction:
    """Build a demand function from config-file values.

    Only the closed-form families are reachable from text configuration;
    NumericWrapper needs a Python callable and is library-only.
    """
    if family == "reciprocal":
        return Reciprocal(w=w)
    if family == "powerlaw":
        if alpha is None:
            raise ValidationError("powerlaw demand requires alpha")
        return PowerLaw(w=w, alpha=alpha)
    raise ValidationError(
        f"unknown demand family {family!r}; expected one of {sorted(FAMILIES)}"
    )
