"""Linear stability: critical delays, verdicts, and characteristic roots."""

import cmath
import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hopfdual import (
    ComplexRoot,
    ModelConfig,
    NoConvergence,
    NonNegativeB2,
    Reciprocal,
    SingularJacobian,
    StabilityVerdict,
    TaylorCoefficients,
    ValidationError,
    characteristic_root,
    find_equilibrium,
    is_locally_stable,
    linear_analysis,
    predicted_cycle,
    rightmost_root,
    sweep,
    taylor_coefficients,
)
from hopfdual import bifurcation
from hopfdual.bifurcation import _principal_lambert_w


def _coeffs_with_b2(b2: float) -> TaylorCoefficients:
    return TaylorCoefficients(
        b1=0.0, b2=b2, b3=0.0, b4=-1.0, b5=1.0,
        b6=0.0, b7=0.0, b8=0.0, b9=0.0, p_star=1.0,
    )


def test_reference_linear_values(linear):
    assert linear.b2 == pytest.approx(-0.5, rel=1e-12)
    assert linear.omega0 == pytest.approx(0.5, rel=1e-12)
    assert linear.tau0 == pytest.approx(math.pi, rel=1e-12)
    assert linear.transversality == pytest.approx(
        0.25 / (1.0 + math.pi**2 / 4.0), rel=1e-12
    )


def test_critical_delay_family(coeffs):
    lin = linear_analysis(coeffs)
    assert len(lin.tau_c) == 3
    assert lin.tau_c[0] == pytest.approx(math.pi, rel=1e-12)
    assert lin.tau_c[1] == pytest.approx(5.0 * math.pi, rel=1e-12)
    assert lin.tau_c[2] == pytest.approx(9.0 * math.pi, rel=1e-12)
    assert lin.tau_c[0] == pytest.approx(lin.tau0, rel=1e-15)


def test_gain_scaling_invariants():
    # omega0*tau0 = pi/2 regardless of the feedback gain
    for scale in (0.1, 1.0, 7.0):
        lin = linear_analysis(_coeffs_with_b2(-0.5 * scale))
        assert lin.omega0 == pytest.approx(0.5 * scale, rel=1e-12)
        assert lin.b2 * lin.tau0 == pytest.approx(-math.pi / 2.0, rel=1e-12)
        assert lin.transversality > 0.0


def test_nonnegative_b2_rejected():
    with pytest.raises(NonNegativeB2):
        linear_analysis(_coeffs_with_b2(0.0))
    with pytest.raises(NonNegativeB2):
        linear_analysis(_coeffs_with_b2(0.25))


def test_stability_verdicts(linear):
    assert is_locally_stable(linear, 3.0) is StabilityVerdict.STABLE
    assert is_locally_stable(linear, 0.0) is StabilityVerdict.STABLE
    assert is_locally_stable(linear, math.pi) is StabilityVerdict.CRITICAL
    assert is_locally_stable(linear, 3.2) is StabilityVerdict.UNSTABLE
    with pytest.raises(ValidationError):
        is_locally_stable(linear, -0.1)


def test_characteristic_root_no_delay(coeffs):
    root = characteristic_root(coeffs, 0.0, complex(-0.4, 0.0))
    assert root.re == pytest.approx(-0.5, abs=1e-12)
    assert root.im == pytest.approx(0.0, abs=1e-12)
    assert root.residual <= 1e-12


def test_characteristic_root_at_onset(coeffs):
    root = characteristic_root(coeffs, math.pi, complex(0.1, 0.4))
    assert abs(complex(root.re, root.im) - complex(0.0, 0.5)) < 1e-9
    assert root.residual <= 1e-12


def test_characteristic_root_satisfies_equation(coeffs):
    root = characteristic_root(coeffs, 3.3, complex(0.05, 0.45))
    lam = complex(root.re, root.im)
    g = lam - coeffs.b2 * cmath.exp(-lam * 3.3)
    assert abs(g) <= 1e-12


def test_rightmost_root_sign_bracket(coeffs, linear):
    below = rightmost_root(coeffs, 3.0)
    onset = rightmost_root(coeffs, linear.tau0)
    above = rightmost_root(coeffs, 3.4)
    assert below.re < 0.0
    assert abs(onset.re) < 1e-9
    assert onset.im == pytest.approx(0.5, abs=1e-9)
    assert above.re > 0.0
    for root in (below, onset, above):
        assert root.residual <= 1e-10


def test_rightmost_root_requires_positive_tau(coeffs):
    with pytest.raises(ValidationError):
        rightmost_root(coeffs, 0.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda coeffs, linear, expansion, tau: is_locally_stable(linear, tau),
        lambda coeffs, linear, expansion, tau: characteristic_root(coeffs, tau, 0.5j),
        lambda coeffs, linear, expansion, tau: rightmost_root(coeffs, tau),
        lambda coeffs, linear, expansion, tau: predicted_cycle(expansion, tau),
        # the whole list is refused before anything is integrated
        lambda coeffs, linear, expansion, tau: sweep(
            ModelConfig(k=0.01, c=50.0, tau=0.0, demand=Reciprocal(w=1.0)),
            [3.0, tau], t_end=100.0,
        ),
    ],
    ids=["is_locally_stable", "characteristic_root", "rightmost_root", "predicted_cycle",
         "sweep"],
)
def test_delay_must_be_finite_and_nonnegative(coeffs, linear, expansion, call, tau):
    with pytest.raises(ValidationError, match="delay tau"):
        call(coeffs, linear, expansion, tau)


def grid_rightmost_root(coeffs, tau):
    """rightmost_root as it was before it dropped the real-axis starts: all
    twelve starts of the grid, whatever b2 and tau."""
    if tau <= 0:
        raise ValidationError(f"rightmost_root needs tau > 0, got {tau!r}")
    b2 = coeffs.b2
    alphas = (-2.0 * abs(b2), 0.0, abs(b2))
    omegas = (0.0, math.pi / (2 * tau), math.pi / tau, 2 * math.pi / tau)
    found = []
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
    if not found:
        raise NoConvergence("every start of the rightmost-root grid failed")
    return max(found, key=lambda r: r.re)


def _outcome(find, coeffs, tau):
    """The root's repr (exact to the bit, -0.0 included) or the exception class."""
    try:
        return repr(find(coeffs, tau))
    except Exception as exc:
        return type(exc)


_GAIN_AT_TANGENCY = math.exp(-1.0)


# The first gain strategy stays at or below 1/e, where real roots exist and
# the real-axis starts must still run.
@given(
    b2=st.floats(-1e2, -1e-4),
    gain=st.one_of(st.floats(1e-2, _GAIN_AT_TANGENCY), st.floats(1e-2, 1e2)),
)
@example(b2=-0.5, gain=0.2)
@example(b2=-0.5, gain=_GAIN_AT_TANGENCY)
@example(b2=-0.5, gain=0.97 * math.pi / 2)
@example(b2=-0.5, gain=1.03 * math.pi / 2)
@example(b2=-1e-4, gain=0.3679)
@example(b2=-1e2, gain=1e2)
@example(b2=-0.5, gain=(1.0 - 1e-3) * _GAIN_AT_TANGENCY)
@example(b2=-0.5, gain=(1.0 + 1e-3) * _GAIN_AT_TANGENCY)
@example(b2=-0.5, gain=(1.0 - 1e-9) * _GAIN_AT_TANGENCY)
@example(b2=-0.5, gain=(1.0 + 1e-9) * _GAIN_AT_TANGENCY)
# roots of size 1e7, where Newton's copies of one root lie an ulp, more
# than 1e-8, apart: the first copy is not always the rightmost
@example(b2=-3226810.791466987, gain=0.36555204937256836)
def test_rightmost_root_equals_full_grid(b2, gain):
    coeffs = _coeffs_with_b2(b2)
    tau = gain / -b2
    assert _outcome(rightmost_root, coeffs, tau) == _outcome(
        grid_rightmost_root, coeffs, tau
    )


@pytest.mark.parametrize(
    "b2, tau, raised",
    [
        (-1e200, 1.0, NoConvergence),  # every start of the grid fails
        (-1e300, 1e-300, NoConvergence),
        (math.nan, 1.0, ValidationError),  # non-finite starts
        (-0.5, 0.0, ValidationError),
        (-0.5, -1.0, ValidationError),
    ],
)
def test_rightmost_root_raises_like_full_grid(b2, tau, raised):
    coeffs = _coeffs_with_b2(b2)
    assert _outcome(rightmost_root, coeffs, tau) is raised
    assert _outcome(grid_rightmost_root, coeffs, tau) is raised


@given(b2=st.floats(-1e2, -1e-4), gain=st.floats(0.38, 1e2))
@example(b2=-1.0, gain=1.0)  # the start x = 0 is the minimum of g: g'(0) = 0
def test_real_starts_never_converge_above_tangency(b2, gain):
    # On the real axis g(x) = x + |b2| exp(-x tau) >= (1 + ln(-b2 tau))/tau,
    # which is positive for -b2*tau > 1/e: Newton from a real start stays real
    # and cannot reach |g| <= 1e-12. It runs out of iterations, or stops on
    # a vanishing g' where it lands on the minimum.
    coeffs = _coeffs_with_b2(b2)
    tau = gain / -b2
    for a in (-2.0 * abs(b2), 0.0, abs(b2)):
        with pytest.raises((NoConvergence, SingularJacobian)):
            characteristic_root(coeffs, tau, complex(a, 0.0))


@pytest.mark.parametrize("factor", [0.97, 1.03])
def test_real_starts_run_out_of_iterations_near_onset(factor):
    # rightmost_root is called at 0.97 and 1.03 tau0 to bracket the onset
    coeffs = _coeffs_with_b2(-0.5)
    tau = factor * linear_analysis(coeffs).tau0
    for a in (-1.0, 0.0, 0.5):
        with pytest.raises(NoConvergence):
            characteristic_root(coeffs, tau, complex(a, 0.0))


@pytest.mark.parametrize("b2", [-1e-4, -0.5, -3.7, -1e2])
def test_real_start_finds_rightmost_root_below_tangency(b2):
    coeffs = _coeffs_with_b2(b2)
    tau = 0.2 / -b2
    root = characteristic_root(coeffs, tau, complex(-2.0 * abs(b2), 0.0))
    assert root.im == 0.0
    assert repr(root) == repr(rightmost_root(coeffs, tau))


def test_lambert_w_known_values(linear):
    # W0(-pi/2) = i pi/2: at tau0 the rightmost root is i omega0
    w = _principal_lambert_w(linear.b2 * linear.tau0)
    assert w == pytest.approx(0.5j * math.pi, abs=1e-15)
    assert w / linear.tau0 == pytest.approx(1j * linear.omega0, abs=1e-15)
    assert _principal_lambert_w(-math.log(2.0) / 2.0) == pytest.approx(
        -math.log(2.0), rel=1e-15
    )
    assert _principal_lambert_w(-1.0) == pytest.approx(
        complex(-0.31813150520476413, 1.3372357014306895), rel=1e-15
    )


_EPS = sys.float_info.epsilon


@given(z=st.floats(-1e3, -1e-3))
@example(z=-1e3)
@example(z=-1e-3)
@example(z=-_GAIN_AT_TANGENCY - 2e-3)
@example(z=-_GAIN_AT_TANGENCY + 2e-3)
def test_lambert_w_residual_and_branch(z):
    if abs(z + _GAIN_AT_TANGENCY) < 2e-3:
        return  # withheld near the double root, see the next test
    w = _principal_lambert_w(z)
    assert w is not None
    assert abs(w * cmath.exp(w) - z) <= 8 * _EPS * abs(z)
    if z >= -_GAIN_AT_TANGENCY:
        assert w.imag == 0.0 and w.real > -1.0
    else:
        assert 0.0 < w.imag < math.pi


@pytest.mark.parametrize(
    "offset", [0.0, 1e-16, -1e-16, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3]
)
def test_lambert_w_withheld_near_double_root(offset):
    assert _principal_lambert_w(-_GAIN_AT_TANGENCY + offset) is None


@given(z=st.floats(-1e300, -1e-300))
@example(z=-sys.float_info.max)
@example(z=-5e-324)
@example(z=-1e300)
@example(z=-1e-300)
def test_lambert_w_never_raises(z):
    w = _principal_lambert_w(z)
    assert w is None or isinstance(w, complex)


@pytest.mark.parametrize("z", [0.0, -0.0, 1.0, math.inf, -math.inf, math.nan])
def test_lambert_w_withheld_off_negative_axis(z):
    assert _principal_lambert_w(z) is None


def _count_newton_runs(monkeypatch):
    calls = []
    newton = bifurcation.characteristic_root

    def counting(*args):
        calls.append(args)
        return newton(*args)

    monkeypatch.setattr(bifurcation, "characteristic_root", counting)
    return calls


@pytest.mark.parametrize("factor", [0.97, 1.03])
def test_rightmost_root_stops_at_first_start_near_onset(
    monkeypatch, coeffs, linear, factor
):
    tau = factor * linear.tau0
    full = grid_rightmost_root(coeffs, tau)
    calls = _count_newton_runs(monkeypatch)
    assert repr(rightmost_root(coeffs, tau)) == repr(full)
    assert len(calls) == 1


def test_rightmost_root_runs_every_start_at_tangency(monkeypatch):
    coeffs = _coeffs_with_b2(-0.5)
    calls = _count_newton_runs(monkeypatch)
    rightmost_root(coeffs, _GAIN_AT_TANGENCY / 0.5)
    assert len(calls) == 12


def test_rightmost_root_runs_real_starts_when_target_is_withheld(monkeypatch):
    # just above the tangency no real root exists, but W0 is withheld there
    # (|1 + w| < 0.1), so no certified complex target skips the real starts
    coeffs = _coeffs_with_b2(-0.5)
    tau = (1.0 + 1e-3) * _GAIN_AT_TANGENCY / 0.5
    assert _principal_lambert_w(-0.5 * tau) is None
    calls = _count_newton_runs(monkeypatch)
    root = rightmost_root(coeffs, tau)
    assert len(calls) == 12
    assert root.im > 0.0


def test_linear_analysis_from_full_pipeline():
    m = ModelConfig(k=0.02, c=10.0, tau=1.0, demand=Reciprocal(w=1.0))
    e = find_equilibrium(m)
    lin = linear_analysis(taylor_coefficients(m, e))
    # b2 = k * p_star * x'(p_star) = -k*c for reciprocal demand
    assert lin.b2 == pytest.approx(-0.2, rel=1e-12)
    assert lin.tau0 == pytest.approx(math.pi / 0.4, rel=1e-12)
