"""Adaptive finite-difference differentiation.

Ridders' method: evaluate a symmetric difference stencil at a geometrically
shrinking sequence of steps and extrapolate the step to zero with a Neville
tableau, tracking an error estimate and stopping when shrinking the step
stops helping. Gives close to full double precision for smooth functions
without requiring a tuned step size, which fixed-step central differences
cannot do for second and third derivatives.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainViolation

# Step contraction per tableau column and growth threshold that stops the
# ramp once roundoff takes over (Ridders' classic constants).
_CON = 1.4
_NTAB = 12
_SAFE = 2.0


def ridders(sample: Callable[[float], float], h0: float) -> tuple[float, float]:
    """Extrapolate a finite-difference sample to zero step size.

    Parameters
    ----------
    sample : callable
        Maps a step h > 0 to the stencil estimate at that step.
    h0 : float
        Initial (largest) step; should be a sizable fraction of the scale
        over which the function varies, not a tiny step.

    Returns
    -------
    (value, error) : tuple of float
        Best extrapolated value and its error estimate.
    """
    # Neville tableau kept as two columns: column i (extrapolation orders
    # 0..i at the i-th step) needs only column i - 1, so no 12x12 table.
    con2 = _CON * _CON
    hh = h0
    prev = [sample(hh)]
    best = prev[0]
    err = math.inf
    for _ in range(1, _NTAB):
        hh /= _CON
        lower = sample(hh)
        col = [lower]
        fac = con2
        for left in prev:
            # lower and left: the previous order at this step and at the last one
            cur = (lower * fac - left) / (fac - 1.0)
            fac *= con2
            d1 = abs(cur - lower)
            d2 = abs(cur - left)
            errt = d2 if d2 > d1 else d1  # what max(d1, d2) returns, NaN included
            if errt <= err:
                err = errt
                best = cur
            col.append(cur)
            lower = cur
        if abs(cur - prev[-1]) >= _SAFE * err:
            break
        prev = col
    return best, err


def derivative(
    f: Callable[[float], float],
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
        Scalar function, smooth near x.
    x : float
        Evaluation point.
    order : int
        Derivative order, 1 to 3.
    h0 : float, optional
        Initial step; defaults to a quarter of the scale of x.
    lo, hi : float, optional
        Open domain bounds; the probe points are kept strictly inside.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2, or 3, got {order}")
    if h0 is None:
        h0 = 0.25 * max(abs(x), 1e-3)
    # widest probe is x +/- 2h for order 3, x +/- h otherwise
    reach = 2.0 if order == 3 else 1.0
    room = math.inf
    if lo is not None:
        room = min(room, x - lo)
    if hi is not None:
        room = min(room, hi - x)
    if room <= 0:
        raise DomainViolation(f"evaluation point {x!r} outside domain ({lo!r}, {hi!r})")
    if math.isfinite(room):
        h0 = min(h0, 0.45 * room / reach)

    if order == 1:
        def sample(h: float) -> float:
            return (f(x + h) - f(x - h)) / (2.0 * h)
    elif order == 2:
        fx = f(x)

        def sample(h: float) -> float:
            return (f(x + h) - 2.0 * fx + f(x - h)) / (h * h)
    else:
        def sample(h: float) -> float:
            return (f(x + 2 * h) - 2.0 * f(x + h) + 2.0 * f(x - h) - f(x - 2 * h)) / (
                2.0 * h * h * h
            )

    value, _ = ridders(sample, h0)
    return value


def mixed_partial(
    f: Callable[[float, float], float],
    order_u: int,
    order_v: int,
    su: float,
    sv: float,
) -> float:
    """Mixed partial of f(u, v) at (0, 0), orders (1,1), (2,1), or (1,2).

    Parameters
    ----------
    f : callable
        Bivariate function, smooth near the origin.
    order_u, order_v : int
        Differentiation orders in u and v.
    su, sv : float
        Initial probe offsets per axis; shrunk together by the extrapolation.
        Callers must pick them small enough that (+/-su, +/-sv) is inside the
        domain of f.
    """
    if (order_u, order_v) == (1, 1):
        def sample(h: float) -> float:
            hu, hv = su * h, sv * h
            return (f(hu, hv) - f(hu, -hv) - f(-hu, hv) + f(-hu, -hv)) / (4 * hu * hv)
    elif (order_u, order_v) == (1, 2):
        def sample(h: float) -> float:
            hu, hv = su * h, sv * h
            return (
                f(hu, hv) + f(hu, -hv) - 2 * f(hu, 0.0)
                - f(-hu, hv) - f(-hu, -hv) + 2 * f(-hu, 0.0)
            ) / (2 * hu * hv * hv)
    elif (order_u, order_v) == (2, 1):
        def sample(h: float) -> float:
            hu, hv = su * h, sv * h
            return (
                f(hu, hv) + f(-hu, hv) - 2 * f(0.0, hv)
                - f(hu, -hv) - f(-hu, -hv) + 2 * f(0.0, -hv)
            ) / (2 * hu * hu * hv)
    else:
        raise ValueError(f"unsupported mixed orders ({order_u}, {order_v})")

    value, _ = ridders(sample, 1.0)
    return value
