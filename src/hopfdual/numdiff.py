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
`radius` picks it once per expansion point, in the spirit of Bornemann
(Found. Comput. Math. 11, 2011): a quarter of the room to the nearer domain
bound, halved until |f| varies by at most a factor 100 on the circle.
`derivative` and `mixed_partial` take the radius as given.

Contract: f is a pure function that accepts a complex numpy array and
returns an array of its shape (or a scalar); a callable that accepts only
floats raises ValidationError. The sums of the last circle or torus are
kept, so the orders at one point, asked for one after another with the
same f and radius, sample f once. A value is the real part of its sum, and
a sum below the round-off of the sums gives exactly 0.0, as a polynomial of
degree below the order does.
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


# The N-th roots of unity w^k, the M-th ones as a column, and the twiddle
# rows w^(-jk) / n: row j of a product with n samples on the n-th roots
# sums up order j. Built in Python floats; no numpy loop runs at import.
_W = [complex(math.cos(2 * math.pi * k / _N), math.sin(2 * math.pi * k / _N)) for k in range(_N)]
_CIRCLE = np.array(_W)
_U_CIRCLE = _CIRCLE[:: _N // _M, None]
_TWIDDLE = np.array([[_W[-j * k % _N] / _N for k in range(_N)] for j in range(4)])
_U_TWIDDLE = np.array([[_W[-j * k * (_N // _M) % _N] / _M for k in range(_M)] for j in range(3)])

# f, where it was last sampled, and the sums taken there
_last: tuple = (None, None, None)


def _values(f: Callable, shape: tuple, *points: np.ndarray) -> np.ndarray:
    """f at complex points, as a complex array of the points' broadcast shape."""
    try:
        values = np.asarray(f(*points), dtype=complex)
        return values if values.shape == shape else np.broadcast_to(values, shape)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            "Cauchy-integral derivatives need a function that accepts complex numpy "
            f"arrays and returns an array of their shape: {type(exc).__name__}: {exc}"
        ) from exc


def _sums(f: Callable, where: tuple) -> list:
    """Trapezoid sums of f on the circle where = (x, r), a list by order, or
    on the torus where = (su, sv, "torus"), a list of rows by u order."""
    global _last
    last = _last
    if f is last[0] and where == last[1]:
        return last[2]
    # numpy warnings off: a sum that is not finite raises NumericalError
    with np.errstate(all="ignore"):
        if len(where) == 2:
            x, r = where
            sums = _TWIDDLE @ _values(f, _CIRCLE.shape, x + r * _CIRCLE)
        else:
            su, sv, _ = where
            sums = _U_TWIDDLE @ _values(f, (_M, _N), su * _U_CIRCLE, sv * _CIRCLE) @ _TWIDDLE.T
    sums = sums.tolist()
    _last = (f, where, sums)
    return sums


def _real_or_zero(wanted: complex, sums: list) -> float:
    """Real part of one sum, or 0.0 when it is below the round-off of the
    sums, a few eps of the sum of their moduli."""
    scale = sum(map(abs, sums))
    if not scale < math.inf:
        raise NumericalError("function value not finite on the Cauchy circle")
    return 0.0 if abs(wanted.real) <= _FLOOR * scale else wanted.real


def _reach(x: float, lo: float | None, hi: float | None) -> float:
    """Largest radius around x: a quarter of the room to the nearer bound."""
    room = min(math.inf if lo is None else x - lo, math.inf if hi is None else hi - x)
    if not room > 0:
        raise DomainViolation(f"evaluation point {x!r} outside domain ({lo!r}, {hi!r})")
    return 0.25 * room


def radius(f: Callable, x: float, lo: float | None = None, hi: float | None = None) -> float:
    """Circle radius for derivatives of f at x.

    Starts at `derivative`'s default (a quarter of the scale of x, at most a
    quarter of the room to the nearer bound) and halves it until
    max|f| <= 100 min|f| on the circle, one array call of f per try; the
    derivatives at the radius found reuse the last call. Raises
    NumericalError when 30 halvings do not get there.
    """
    global _last
    r = min(0.25 * max(abs(x), 1e-3), _reach(x, lo, hi))
    for _ in range(_HALVINGS):
        # numpy warnings off: overflow on a wide circle only shrinks it
        with np.errstate(all="ignore"):
            values = _values(f, _CIRCLE.shape, x + r * _CIRCLE)
            size = np.absolute(values)
            # nan and inf fail the test, so the circle shrinks past them too
            if size.max() <= _SPREAD * size.min() < math.inf:
                _last = (f, (x, r), (_TWIDDLE @ values).tolist())
                return r
        r *= 0.5
    raise NumericalError(
        f"|f| varies by more than a factor {_SPREAD:g} on every circle around {x!r}"
    )


def derivative(
    f: Callable,
    x: float,
    order: int = 1,
    h0: float | None = None,
    lo: float | None = None,
    hi: float | None = None,
) -> float:
    """Derivative of f at x of order 1, 2, or 3.

    Parameters
    ----------
    f : callable
        Analytic near x; takes a complex array (see the module docstring).
    x : float
        Evaluation point.
    order : int
        Derivative order, 1 to 3.
    h0 : float, optional
        Circle radius; defaults to a quarter of the scale of x. `radius`
        picks one for steep functions.
    lo, hi : float, optional
        Open domain bounds; the radius is cut to a quarter of the room to
        the nearer one.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2, or 3, got {order}")
    r = min(0.25 * max(abs(x), 1e-3) if h0 is None else h0, _reach(x, lo, hi))
    sums = _sums(f, (x, r))
    return math.factorial(order) * _real_or_zero(sums[order], sums) / r**order


def mixed_partial(
    f: Callable,
    order_u: int,
    order_v: int,
    su: float,
    sv: float,
) -> float:
    """Mixed partial of f(u, v) at (0, 0), orders (1,1), (2,1), or (1,2).

    Parameters
    ----------
    f : callable
        Analytic near the origin; called with a complex (8, 1) array of u
        and a (32,) array of v, it returns their (8, 32) broadcast.
    order_u, order_v : int
        Differentiation orders in u and v.
    su, sv : float
        Radii of the u and v circles. Callers must pick them small enough
        that f is analytic on the polydisk they span.
    """
    if (order_u, order_v) not in ((1, 1), (1, 2), (2, 1)):
        raise ValueError(f"unsupported mixed orders ({order_u}, {order_v})")
    rows = _sums(f, (su, sv, "torus"))
    value = _real_or_zero(rows[order_u][order_v], [s for row in rows for s in row])
    return math.factorial(order_u) * math.factorial(order_v) * value / (su**order_u * sv**order_v)
