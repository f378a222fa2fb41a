"""Cauchy-integral jets: closed forms, the full FFT table of the same
samples, exact zeros, the radius guard, non-finite samples, one sampling
per circle and the errors."""

import math
import warnings

import numpy as np
import pytest

from hopfdual.errors import DomainViolation, NumericalError, ValidationError
from hopfdual.numdiff import circle, derivative, mixed_partial

# The 32 points of a Cauchy circle are x + r w^k for the 32nd roots of unity w^k.
ROOTS = np.exp(2j * np.pi * np.arange(32) / 32)


def _on_circle(f, x, r):
    """(r, f's samples on the circle of radius r around x), for a radius
    that `circle` does not pick; numpy warnings off, as in `circle`."""
    with np.errstate(all="ignore"):
        return r, np.asarray(f(x + r * ROOTS), dtype=complex)


def _power(a):
    """(2/p)^a and its derivatives of orders 1 to 3 at p."""
    def f(p):
        return (2.0 / p) ** a

    def exact(p, n):
        return f(p) * [-a / p, a * (a + 1) / p**2, -a * (a + 1) * (a + 2) / p**3][n - 1]

    return f, exact


CLOSED_FORMS = {
    # name: (f, exact n-th derivative at x, radius); exp is entire, so a
    # radius of 1 suits it better than the default quarter of x
    "exp": (np.exp, lambda x, n: math.exp(x), 1.0),
    "reciprocal": (
        lambda p: 1.0 / p, lambda x, n: (-1) ** n * math.factorial(n) / x ** (n + 1), None
    ),
    "powerlaw": (*_power(0.4), None),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_derivatives_match_closed_forms(name):
    f, exact, r = CLOSED_FORMS[name]
    for x in (0.02, 0.3, 1.0, 2.5, 40.0):
        jet = derivative(*(_on_circle(f, x, r) if r else circle(f, x)))
        for order, got in enumerate(jet, start=1):
            want = exact(x, order)
            assert abs(got - want) <= 1e-13 * abs(want), (x, order)


def _recorded(f):
    """f, and the list of (points, values) of its calls."""
    calls = []

    def wrapped(*points):
        values = f(*points)
        calls.append((points, np.broadcast_to(values, np.broadcast(*points).shape)))
        return values

    return wrapped, calls


def _full_tableau(values, scale):
    """Every Taylor coefficient the samples on a circle (or torus) hold,
    from a full FFT of them: entry n is the order-n coefficient times r^n;
    with the round-off bound of one entry, times scale."""
    table = np.fft.fftn(values) / values.size
    return table, 8 * np.finfo(float).eps * np.abs(table).sum() * scale


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("bounds", [(None, None), (0.0, None), (None, 1.3), (0.0, 1.3)])
def test_derivative_orders_match_full_tableau(order, bounds):
    # one twiddle row against the full coefficient table of the same 32
    # samples, and both against the closed form; an upper bound at 1.3 cuts
    # the radius from 0.225 to 0.1, which raises the round-off of order 3,
    # a few eps of |f| / (|f'''| r^3 / 6), to 1e-13
    f, exact = _power(0.7)
    f, calls = _recorded(f)
    r, samples = circle(f, 0.9, *bounds)
    assert r == (0.225 if bounds[1] is None else 0.1)
    got = derivative(r, samples)[order - 1]
    # the first circle passes, and the jet samples nothing more
    assert len(calls) == 1
    (points,), values = calls[0]
    assert abs(points[0] - (0.9 + r)) < 1e-15
    assert (samples == values).all()
    scale = math.factorial(order) / r**order
    table, roundoff = _full_tableau(values, scale)
    assert abs(got - scale * table[order].real) <= roundoff
    assert abs(got - exact(0.9, order)) <= 1e-12 * abs(exact(0.9, order))


def _mixed_exact(i, j, a=0.3, b=-0.7):
    """d^i/du^i d^j/dv^j of exp(a u + b v) / (1 + u + v/2) at the origin (Leibniz)."""
    return sum(
        math.comb(i, p) * math.comb(j, q) * a ** (i - p) * b ** (j - q)
        * (-1) ** (p + q) * math.factorial(p + q) * 0.5**q
        for p in range(i + 1) for q in range(j + 1)
    )


@pytest.mark.parametrize("orders", [(1, 1), (2, 1), (1, 2)])
def test_mixed_partial_orders_match_full_tableau(orders):
    def f(u, v):
        return np.exp(0.3 * u - 0.7 * v) / (1.0 + u + 0.5 * v)

    f, calls = _recorded(f)
    # the u circle has 8 points, so its radius stays small for a curved u
    su, sv = 0.02, 0.1
    coefficients = mixed_partial(f, su, sv)
    assert coefficients.shape == (4, 4)
    assert len(calls) == 1
    (u, v), values = calls[0]
    assert values.shape == (8, 32)
    assert abs(u[2, 0] - su * 1j) < 1e-17 and abs(v[8] - sv * 1j) < 1e-17
    # entry (i, j) of the torus's table is the coefficient of u^i v^j times su^i sv^j
    i, j = orders
    scale = math.factorial(i) * math.factorial(j) / (su**i * sv**j)
    got = math.factorial(i) * math.factorial(j) * coefficients[i, j]
    table, roundoff = _full_tableau(values, scale)
    assert abs(got - scale * table[i, j].real) <= roundoff
    assert abs(got - _mixed_exact(*orders)) <= 1e-12 * abs(_mixed_exact(*orders))


def test_mixed_partial_of_a_function_linear_in_u():
    # the model's F is linear in u, where 8 points on the u circle are exact
    def f(u, v):
        return (u + 0.7) * (np.exp(-v) - 0.4)

    coefficients = mixed_partial(f, 0.25, 0.25)
    assert coefficients[1, 1] == pytest.approx(-1.0, rel=1e-14)  # u v
    assert coefficients[1, 2] == pytest.approx(0.5, rel=1e-14)  # u v^2
    assert coefficients[1, 3] == pytest.approx(-1.0 / 6.0, rel=1e-14)  # u v^3
    assert coefficients[0, 1] == pytest.approx(-0.7, rel=1e-14)  # v
    # every power of u above the first, exactly
    assert (coefficients[2:] == 0.0).all()


@pytest.mark.parametrize("x", [0.02, 0.7, 30.0])
def test_polynomials_below_the_order_give_exact_zeros(x):
    line = lambda p: 100.0 - 2500.0 * p  # noqa: E731
    parabola = lambda p: 3.0 - p * p  # noqa: E731
    r = 0.25 * x
    d1, d2, d3 = derivative(*_on_circle(line, x, r))
    assert (d2, d3) == (0.0, 0.0)
    assert d1 == pytest.approx(-2500.0, rel=1e-13)
    d1, d2, d3 = derivative(*_on_circle(parabola, x, r))
    assert d3 == 0.0
    assert derivative(*_on_circle(lambda p: 7.5 + 0.0 * p, x, r)) == (0.0, 0.0, 0.0)
    # the orders that are not zero stay, to their round-off of about eps |f| / r^n
    assert d2 == pytest.approx(-2.0, rel=1e-9)
    assert d1 == pytest.approx(-2.0 * x, rel=1e-9)

    def bilinear(u, v):
        return (u + x) * (2.0 - 3.0 * v)

    coefficients = mixed_partial(bilinear, 0.1, 0.1)
    assert coefficients[1, 2] == 0.0
    assert coefficients[2, 1] == 0.0
    assert coefficients[1, 1] == pytest.approx(-3.0, rel=1e-14)


def test_radius_guard_shrinks_the_circle_for_steep_functions():
    b = 100.0
    f, exact = _power(b)
    r, samples = circle(f, 1.0)
    # a quarter of 1, halved four times: max|f| / min|f| on the circle is
    # ((1 + r)/(1 - r))^100, about 520 at r = 1/32 and 23 at r = 1/64
    assert r == 0.25 / 16
    jet, wide = derivative(r, samples), derivative(*_on_circle(f, 1.0, 0.25))
    for order in (1, 2, 3):
        want = exact(1.0, order)
        assert abs(jet[order - 1] - want) <= 1e-13 * abs(want)
        # on the widest circle radius tries, aliasing swamps the result
        assert abs(wide[order - 1] - want) > abs(want)
    # a gentle function keeps the default radius, cut to a quarter of the room
    assert circle(lambda p: 1.0 / p, 0.9)[0] == 0.225
    assert circle(lambda p: 1.0 / p, 0.9, lo=0.0, hi=1.3)[0] == 0.1


def test_radius_shrinks_past_overflow_without_numpy_warnings():
    def f(p):
        return np.exp(200.0 / p)  # overflows on the default circle around 1

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, samples = circle(f, 1.0)
        assert r < 0.25
        assert derivative(r, samples)[0] == pytest.approx(-200.0 * math.exp(200.0), rel=1e-12)
        with pytest.raises(NumericalError, match="factor 100"):
            circle(lambda p: np.exp(2000.0 / p), 1.0)
        with pytest.raises(NumericalError, match="not finite"):
            derivative(*_on_circle(lambda p: np.exp(2000.0 / p), 1.0, 0.25))
        with pytest.raises(NumericalError, match="not finite"):
            mixed_partial(lambda u, v: np.full(np.broadcast(u, v).shape, np.nan), 0.1, 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_samples_shrink_the_circle_or_raise(bad):
    # samples finite on wide circles and bad below a radius, or the reverse
    def narrow_bad(p):
        return np.where(np.abs(p - 1.0) < 0.1, bad, 1.0 / p)

    def wide_bad(p):
        return np.where(np.abs(p - 1.0) > 0.1, bad, 1.0 / p)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, samples = circle(narrow_bad, 1.0)
        assert r == 0.25
        assert derivative(r, samples)[1] == pytest.approx(2.0, rel=1e-13)
        with pytest.raises(NumericalError, match="not finite"):
            derivative(*_on_circle(narrow_bad, 1.0, 0.05))
        # bad on wide circles only: the guard halves past them
        r, samples = circle(wide_bad, 1.0)
        assert r == 0.0625
        assert derivative(r, samples)[2] == pytest.approx(-6.0, rel=1e-13)
        with pytest.raises(NumericalError, match="not finite"):
            derivative(*_on_circle(wide_bad, 1.0, 0.25))
        # bad from the widest circle to the narrowest
        with pytest.raises(NumericalError, match="factor 100"):
            circle(lambda p: np.full(p.shape, bad), 1.0)
        with pytest.raises(NumericalError, match="not finite"):
            mixed_partial(lambda u, v: np.full(np.broadcast(u, v).shape, bad), 0.1, 0.1)


def test_circle_stops_at_the_first_passing_radius_or_after_30_halvings():
    # the radius guard stops at the first circle that passes and gives up
    # after a full run of 30 halvings
    def radii(f):
        f, calls = _recorded(f)
        try:
            circle(f, 1.0)
        except NumericalError:
            pass
        return [abs(points[0] - 1.0) for (points,), _ in calls]

    assert radii(lambda p: 1.0 / p) == [0.25]
    assert radii(_power(100.0)[0]) == [0.25 / 2**k for k in range(5)]
    full = radii(lambda p: np.exp(2000.0 / p))
    assert full == pytest.approx([0.25 / 2**k for k in range(30)], rel=1e-12)


def test_orders_at_one_point_sample_once():
    # one call of f on the accepted circle gives all three orders, and the
    # jet does not call f; nothing is kept between calls, so circle again
    # samples again and gives the same jet
    calls = []

    def f(p):
        calls.append(p.shape)
        return 1.0 / p

    r, samples = circle(f, 0.5)
    assert calls == [(32,)]
    jet = derivative(r, samples)
    assert calls == [(32,)]
    assert derivative(*circle(f, 0.5)) == jet == derivative(*circle(lambda p: 1.0 / p, 0.5))
    assert calls == [(32,)] * 2

    def g(u, v):
        calls.append(np.broadcast(u, v).shape)
        return (u + 1.0) / (2.0 + v)

    table = mixed_partial(g, 0.1, 0.2)
    assert calls[2:] == [(8, 32)]
    assert (mixed_partial(g, 0.1, 0.2) == table).all()
    assert calls[2:] == [(8, 32)] * 2


def test_unsupported_orders_raise():
    # the jets have fixed orders: no order is asked for, so none can be
    # unsupported, and an order passed as before is refused
    r, samples = _on_circle(np.sin, 0.3, 0.1)
    assert len(derivative(r, samples)) == 3
    assert mixed_partial(lambda u, v: u * v, 0.1, 0.1).shape == (4, 4)
    with pytest.raises(TypeError):
        derivative(r, samples, 4)
    with pytest.raises(TypeError):
        mixed_partial(lambda u, v: u * v, 2, 2, 0.1, 0.1)


@pytest.mark.parametrize("x, lo, hi", [(0.0, 0.0, None), (-1.0, 0.0, 2.0), (2.0, None, 2.0),
                                       (math.nan, 0.0, None)])
def test_points_outside_the_domain_raise(x, lo, hi):
    # circle is the one place that checks the domain; it raises before any
    # call of f
    calls = []

    def f(p):
        calls.append(p)
        return 1.0 / p

    with pytest.raises(DomainViolation, match="outside domain"):
        circle(f, x, lo, hi)
    assert calls == []


def test_scalar_only_callable_names_the_complex_array_contract():
    # circle and mixed_partial are the two places that call f
    with pytest.raises(ValidationError, match="accepts complex numpy arrays"):
        circle(lambda p: math.exp(-p), 1.0)
    with pytest.raises(ValidationError, match="accepts complex numpy arrays"):
        circle(lambda p: float(p), 1.0)
    with pytest.raises(ValidationError, match="accepts complex numpy arrays"):
        mixed_partial(lambda u, v: math.exp(u) * v, 0.1, 0.1)
