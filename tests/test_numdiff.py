"""Ridders extrapolation and the derivative stencils built on it.

`ridders` keeps two columns of the Neville tableau; `full_tableau_ridders`
below is the textbook version that fills the whole 12x12 table. Both must
return the same (value, error) pair bit for bit, so every case here compares
`repr`s, which tell -0.0, nan and inf apart.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfdual import numdiff
from hopfdual.numdiff import derivative, mixed_partial, ridders


def full_tableau_ridders(sample, h0):
    """Ridders' method over the full tableau, as numdiff implemented it first."""
    con, ntab, safe = 1.4, 12, 2.0
    con2 = con * con
    tableau = [[0.0] * ntab for _ in range(ntab)]
    hh = h0
    tableau[0][0] = sample(hh)
    best = tableau[0][0]
    err = math.inf
    for i in range(1, ntab):
        hh /= con
        tableau[0][i] = sample(hh)
        fac = con2
        for j in range(1, i + 1):
            tableau[j][i] = (tableau[j - 1][i] * fac - tableau[j - 1][i - 1]) / (fac - 1.0)
            fac *= con2
            errt = max(
                abs(tableau[j][i] - tableau[j - 1][i]),
                abs(tableau[j][i] - tableau[j - 1][i - 1]),
            )
            if errt <= err:
                err = errt
                best = tableau[j][i]
        if abs(tableau[i][i] - tableau[i - 1][i - 1]) >= safe * err:
            break
    return best, err


def _counted(sample):
    steps = []

    def wrapped(h):
        steps.append(h)
        return sample(h)

    return wrapped, steps


def _assert_same(sample, h0):
    """Both implementations agree bit for bit and probe the same steps."""
    mine, my_steps = _counted(sample)
    ref, ref_steps = _counted(sample)
    assert repr(ridders(mine, h0)) == repr(full_tableau_ridders(ref, h0))
    assert my_steps == ref_steps
    return len(my_steps)


SMOOTH = {
    "sinh": (lambda h: math.sinh(h) / h, 0.5),
    "cosh_second": (lambda h: (math.exp(h) - 2.0 + math.exp(-h)) / (h * h), 0.5),
    "even_poly": (lambda h: 1.0 + h * h, 1.0),
    "cos": (math.cos, 2.0),
    "sqrt": (lambda h: math.sqrt(1.0 + h), 1.0),
    "log1p": (lambda h: math.log1p(h) / h, 0.9),
    "kink": (abs, 1.0),
    "constant": (lambda h: 3.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(SMOOTH))
def test_ridders_matches_full_tableau(name):
    sample, h0 = SMOOTH[name]
    _assert_same(sample, h0)


def test_ridders_safe_stop_and_full_run():
    # the _SAFE rule stops once the diagonal grows against the error ...
    assert _assert_same(lambda h: 1.0 + h * h + 1e-9 * math.sin(1e3 / h), 1.0) < 12
    assert _assert_same(SMOOTH["cos"][0], 2.0) < 12
    # ... and a sample that keeps improving uses all twelve steps
    assert _assert_same(SMOOTH["sinh"][0], 0.5) == 12


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)
def test_ridders_non_finite_small_steps(bad):
    # finite for large steps, non-finite once h falls below the cut; with the
    # cut at 0.9 only the first step is finite, so the first error estimate
    # meets an infinite err (where max(nan, inf) returning nan matters)
    for cut in (0.1, 0.9):
        _assert_same(lambda h: math.sin(h) / h if h > cut else bad, 1.0)
    # non-finite from the first step on
    _assert_same(lambda h: bad, 1.0)


@given(
    c0=st.floats(-1e3, 1e3),
    c2=st.floats(-1e3, 1e3),
    rate=st.floats(0.01, 20.0),
    h0=st.floats(1e-3, 3.0),
)
def test_ridders_matches_full_tableau_property(c0, c2, rate, h0):
    _assert_same(lambda h: c0 + c2 * math.expm1(rate * h * h), h0)


@pytest.fixture
def checked_ridders(monkeypatch):
    """Route numdiff's own calls through both implementations and compare."""
    calls = []

    def both(sample, h0):
        got = ridders(sample, h0)
        assert repr(got) == repr(full_tableau_ridders(sample, h0))
        calls.append(got)
        return got

    monkeypatch.setattr(numdiff, "ridders", both)
    return calls


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("bounds", [(None, None), (0.0, None), (None, 1.3), (0.0, 1.3)])
def test_derivative_orders_match_full_tableau(checked_ridders, order, bounds):
    lo, hi = bounds
    value = derivative(lambda p: (2.0 / p) ** 0.7, 0.9, order, lo=lo, hi=hi)
    assert len(checked_ridders) == 1
    assert repr(value) == repr(checked_ridders[0][0])


@pytest.mark.parametrize("orders", [(1, 1), (2, 1), (1, 2)])
def test_mixed_partial_orders_match_full_tableau(checked_ridders, orders):
    def f(u, v):
        return math.exp(0.3 * u - 0.7 * v) / (1.0 + u + 0.5 * v)

    value = mixed_partial(f, *orders, 0.05, 0.08)
    assert len(checked_ridders) == 1
    assert repr(value) == repr(checked_ridders[0][0])


def test_unsupported_orders_raise():
    with pytest.raises(ValueError, match="order must be 1, 2, or 3"):
        derivative(math.sin, 0.3, order=4)
    with pytest.raises(ValueError, match=r"unsupported mixed orders \(2, 2\)"):
        mixed_partial(lambda u, v: u * v, 2, 2, 0.1, 0.1)
