"""Taylor coefficients from Cauchy's integral formula.

For f analytic on a disk of radius r around x, the order-n Taylor
coefficient times r^n is the mean of f(x + r w^k) w^(-nk) over the N-th
roots of unity w^k, up to an aliasing error of order (r/R)^N, R the
distance from x to the nearest singularity of f (Lyness and Moler, SIAM J.
Numer. Anal. 4, 1967). One array call of f at N = 32 points on the circle
and one product with fixed twiddle rows give the orders 0 to 3 to a few eps
of |f| on the circle; there is no step sequence to extrapolate. Two
variables use a torus of 8 x 32 points in the same way.

The radius trades aliasing against round-off, which grows like |f| / r^n.
`circle` picks it once per expansion point, in the spirit of Bornemann
(Found. Comput. Math. 11, 2011): a quarter of the room to the nearer domain
bound, halved until |f| varies by at most a factor 100 on the circle. It
returns that radius together with f's samples on the circle it accepted,
and it is the one sampler of a circle: the only function that picks a
radius or checks the domain. `derivative` is arithmetic on those samples
and never calls f; `mixed_partial` takes its radii as given.

Contract: f accepts a complex numpy array and returns an array of its
shape (or a scalar); a callable that accepts only floats raises
ValidationError. The functions are pure: `derivative` returns every order
that one circle's samples hold, a call of `mixed_partial` samples f once
and returns every order that its torus holds, and nothing is kept between
calls. A value is the real part of its sum, and a sum below the round-off
of the sums gives exactly 0.0, as a polynomial of degree below the order
does.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainViolation, NumericalError, ValidationError

_N = 32  # points on a circle, and on the v circle of the torus
_M = 8  # points on the u circle of the torus
_SPREAD = 100.0  # largest max|f| / min|f| that radius accepts on a circle
_HALVINGS = 30
_FLOOR = 8 * np.finfo(float).eps  # round-off of a sum, relative to the sum of |sums|
_ORDERS = np.arange(4.0)  # the orders 0 to 3 in each variable of the torus


# The N-th roots of unity w^k, the M-th ones as a column, and the twiddle
# rows w^(-jk) / n: row j of a product with n samples on the n-th roots
# sums up order j. Built in Python floats; no numpy loop runs at import.
_W = [complex(math.cos(2 * math.pi * k / _N), math.sin(2 * math.pi * k / _N)) for k in range(_N)]
_CIRCLE = np.array(_W)
_U_CIRCLE = _CIRCLE[:: _N // _M, None]
_TWIDDLE = np.array([[_W[-j * k % _N] / _N for k in range(_N)] for j in range(4)])
_U_TWIDDLE = np.array([[_W[-j * k * (_N // _M) % _N] / _M for k in range(_M)] for j in range(4)])


def array_contract_error(exc: Exception) -> ValidationError:
    """The error for a function that refused a numpy array with exc."""
    return ValidationError(
        "Cauchy integrals and array rates need a function that accepts complex numpy "
        f"arrays, real ones too, and returns an array of their shape: "
        f"{type(exc).__name__}: {exc}"
    )


def _values(f: Callable, shape: tuple, *points: np.ndarray) -> np.ndarray:
    """f at complex points, as a complex array of the points' broadcast shape."""
    try:
        values = np.asarray(f(*points), dtype=complex)
        return values if values.shape == shape else np.broadcast_to(values, shape)
    except (TypeError, ValueError) as exc:
        raise array_contract_error(exc) from exc


def _real_parts(sums: np.ndarray) -> np.ndarray:
    """Real parts of trapezoid sums, each 0.0 where it is below the
    round-off of the sums, a few eps of the sum of their moduli."""
    scale = np.absolute(sums).sum()
    if not scale < math.inf:
        raise NumericalError("function value not finite on the Cauchy circle")
    return np.where(np.absolute(sums.real) <= _FLOOR * scale, 0.0, sums.real)


def _reach(x: float, lo: float | None, hi: float | None) -> float:
    """Largest radius around x: a quarter of the room to the nearer bound."""
    room = min(math.inf if lo is None else x - lo, math.inf if hi is None else hi - x)
    if not room > 0:
        raise DomainViolation(f"evaluation point {x!r} outside domain ({lo!r}, {hi!r})")
    return 0.25 * room


def circle(
    f: Callable, x: float, lo: float | None = None, hi: float | None = None
) -> tuple[float, np.ndarray]:
    """Radius r of a circle for derivatives of f at x, and f's samples on
    it, at the points x + r w^k.

    Starts at a quarter of the scale of x, at most a quarter of the room to
    the nearer of the open domain bounds lo and hi, and halves it until
    max|f| <= 100 min|f| on the circle, one array call of f per try.
    Raises DomainViolation when x is not inside (lo, hi), and
    NumericalError when 30 halvings do not get there.
    """
    r = min(0.25 * max(abs(x), 1e-3), _reach(x, lo, hi))
    for _ in range(_HALVINGS):
        # numpy warnings off: overflow on a wide circle only shrinks it
        with np.errstate(all="ignore"):
            samples = _values(f, _CIRCLE.shape, x + r * _CIRCLE)
            size = np.absolute(samples)
            # nan and inf fail the test, so the circle shrinks past them too
            if size.max() <= _SPREAD * size.min() < math.inf:
                return r, samples
        r *= 0.5
    raise NumericalError(
        f"|f| varies by more than a factor {_SPREAD:g} on every circle around {x!r}"
    )


def derivative(r: float, samples: np.ndarray) -> tuple[float, float, float]:
    """(f'(x), f''(x), f'''(x)) from f's samples on the circle of radius r
    around x, as `circle` returns them; f is not called.

    f must be analytic on the disk of radius r around x (see the module
    docstring).
    """
    # numpy warnings off: a sum that is not finite raises NumericalError
    with np.errstate(all="ignore"):
        c = _real_parts(_TWIDDLE @ samples).tolist()
    return c[1] / r, 2 * c[2] / r**2, 6 * c[3] / r**3


def mixed_partial(f: Callable, su: float, sv: float) -> np.ndarray:
    """Taylor coefficients of f(u, v) at (0, 0): entry (i, j) of the 4 x 4
    table is the coefficient of u^i v^j, from one call of f on the torus of
    radii su and sv.

    f is called with a complex (8, 1) array of u and a (32,) array of v and
    returns their (8, 32) broadcast. Callers must pick su and sv small
    enough that f is analytic on the polydisk they span.
    """
    with np.errstate(all="ignore"):
        sums = _U_TWIDDLE @ _values(f, (_M, _N), su * _U_CIRCLE, sv * _CIRCLE) @ _TWIDDLE.T
        return _real_parts(sums) / np.multiply.outer(su**_ORDERS, sv**_ORDERS)
