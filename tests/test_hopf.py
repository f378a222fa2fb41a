"""Second-order expansion: coefficients, classification, cycle prediction."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import logistic_model, reference_model, square_root_model, subcritical_model
from hopfdual import (
    Chain,
    CycleStability,
    DegenerateBifurcation,
    Direction,
    ExpansionInvalid,
    HopfExpansion,
    ModelConfig,
    NonNegativeB2,
    NumericalError,
    NumericWrapper,
    PeriodTrend,
    PowerLaw,
    Q1Harmonics,
    Reciprocal,
    TaylorCoefficients,
    U1Harmonics,
    ValidationError,
    WrongSide,
    analyze,
    classify,
    estimate_cycle,
    find_equilibrium,
    hopf_expansion,
    linear_analysis,
    normal_form,
    predicted_cycle,
    simulate,
    taylor_coefficients,
)


def _make_coeffs(b2, b4, b5, b8=0.0, b9=0.0, p_star=1.0):
    return TaylorCoefficients(
        b1=0.0, b2=b2, b3=0.0, b4=b4, b5=b5,
        b6=0.0, b7=0.0, b8=b8, b9=b9, p_star=p_star,
    )


def _expand(b2, b4, b5, **kw):
    coeffs = _make_coeffs(b2, b4, b5, **kw)
    return linear_analysis(coeffs), hopf_expansion(coeffs, linear_analysis(coeffs))


def test_reference_expansion_values(expansion):
    assert expansion.omega0 == pytest.approx(0.5, rel=1e-12)
    assert expansion.tau0 == pytest.approx(math.pi, rel=1e-12)
    assert expansion.omega2 == pytest.approx(-937.5, abs=0.05)
    assert expansion.tau2 == pytest.approx(7140.5, abs=0.05)
    assert expansion.eta2 == pytest.approx(-3125.0, abs=0.5)
    assert expansion.degenerate == ()
    assert expansion.p_star == pytest.approx(0.02, abs=1e-12)


def test_reference_first_correction_harmonics(expansion):
    u1 = expansion.u1_harmonics
    assert u1.c1 == pytest.approx(7.5, rel=1e-12)
    assert u1.d1 == pytest.approx(-10.0, rel=1e-12)
    assert u1.e1 == pytest.approx(25.0, rel=1e-12)


def test_reference_adjoint_harmonics(expansion):
    q1 = expansion.q1_harmonics
    assert q1.a == pytest.approx(50.0, rel=1e-12)
    assert q1.b == pytest.approx(-20.0, rel=1e-12)
    assert q1.c == pytest.approx(-19.0, rel=1e-12)
    assert q1.d == pytest.approx(-30.0, rel=1e-12)
    assert q1.e == pytest.approx(10.0, rel=1e-12)
    # normalization q1(0) = 0 and q1'(0) = 1
    assert q1.a + q1.b + q1.d == pytest.approx(0.0, abs=1e-12)
    assert q1.c + 2.0 * q1.e == pytest.approx(1.0, rel=1e-12)


def test_classification_reference(expansion):
    verdicts = classify(expansion)
    assert verdicts.direction is Direction.SUPERCRITICAL
    assert verdicts.cycle_stability is CycleStability.STABLE
    assert verdicts.period_trend is PeriodTrend.INCREASING


def test_classification_sign_table():
    exp = HopfExpansion(
        omega0=1.0, tau0=1.0,
        omega2=1.0, tau2=-1.0, eta2=1.0,
        u1_harmonics=U1Harmonics(0.0, 0.0, 0.0),
        q1_harmonics=Q1Harmonics(0.0, 0.0, 0.0, 0.0, 0.0),
        p_star=1.0,
    )
    verdicts = classify(exp)
    assert verdicts.direction is Direction.SUBCRITICAL
    assert verdicts.cycle_stability is CycleStability.UNSTABLE
    assert verdicts.period_trend is PeriodTrend.DECREASING


def test_degenerate_when_b4_vanishes():
    _, exp = _expand(-0.5, 0.0, 25.0)
    assert "eta2" in exp.degenerate
    with pytest.raises(DegenerateBifurcation) as excinfo:
        classify(exp)
    assert excinfo.value.quantity == "eta2"


def test_degenerate_when_b5_vanishes():
    _, exp = _expand(-0.5, -12.5, 0.0)
    for name in ("omega2", "tau2", "eta2"):
        assert name in exp.degenerate
    with pytest.raises(DegenerateBifurcation):
        predicted_cycle(exp, 3.2)


def test_solvability_identities_on_random_sets():
    # two exact internal identities of the closed forms:
    #   omega2 = -(b4 + 2*b5) * E1
    #   b2*(omega2*tau0 + omega0*tau2) = b4*E1
    rng = np.random.default_rng(20260814)
    checked = 0
    for _ in range(100):
        b2 = -(10.0 ** rng.uniform(-2.0, 2.0))
        b4 = rng.uniform(-50.0, 50.0)
        b5 = rng.uniform(-50.0, 50.0)
        lin, exp = _expand(b2, b4, b5)
        e1 = exp.u1_harmonics.e1
        lhs1, rhs1 = exp.omega2, -(b4 + 2.0 * b5) * e1
        assert lhs1 == pytest.approx(rhs1, rel=1e-12, abs=1e-12)
        lhs2 = b2 * (exp.omega2 * lin.tau0 + lin.omega0 * exp.tau2)
        rhs2 = b4 * e1
        scale = max(1.0, abs(b2 * exp.omega2 * lin.tau0),
                    abs(b2 * lin.omega0 * exp.tau2))
        assert abs(lhs2 - rhs2) <= 1e-12 * scale
        checked += 1
    assert checked == 100


def test_predicted_cycle_reference_numbers(expansion):
    pred = predicted_cycle(expansion, 3.2)
    assert pred.epsilon == pytest.approx(2.860e-3, rel=1e-3)
    assert pred.amplitude == pred.epsilon
    assert pred.omega == pytest.approx(0.49233, rel=1e-4)
    assert pred.period == pytest.approx(12.762, rel=1e-4)
    assert pred.mean_offset == pytest.approx(2.045e-4, rel=1e-3)
    assert pred.floquet_exponent == pytest.approx(
        pred.epsilon**2 * expansion.eta2, rel=1e-12
    )
    assert pred.floquet_exponent < 0.0
    assert pred.warning is None


def test_predicted_period_grows_with_delay(expansion):
    p32 = predicted_cycle(expansion, 3.2)
    p34 = predicted_cycle(expansion, 3.4)
    assert p34.period == pytest.approx(13.481, rel=1e-4)
    assert p34.period > p32.period


def test_predicted_cycle_at_onset(expansion):
    pred = predicted_cycle(expansion, expansion.tau0)
    assert pred.epsilon == 0.0
    assert pred.amplitude == 0.0
    assert pred.period == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert pred.mean_offset == 0.0


def test_predicted_cycle_wrong_side(expansion):
    with pytest.raises(WrongSide):
        predicted_cycle(expansion, 3.0)
    with pytest.raises(ValidationError):
        predicted_cycle(expansion, -1.0)


# expansion, then (tau, has_cycle_at(tau)) with "tau0" for the onset itself
_SIDES = {
    "reference paper": (lambda: analyze(reference_model(3.2)).paper,
                        [(3.0, False), ("tau0", False), (3.2, True)]),
    "subcritical paper": (lambda: analyze(subcritical_model()).paper,
                          [(31.59, True), ("tau0", False), (32.88, False)]),
    "subcritical normal form": (lambda: analyze(subcritical_model()).normal_form,
                                [(31.59, False), ("tau0", False), (32.88, True)]),
    "degenerate tau2": (lambda: analyze(logistic_model()).paper,
                        [(1.54, False), ("tau0", False), (1.60, True)]),
}


@pytest.mark.parametrize("name", sorted(_SIDES))
def test_has_cycle_at_follows_the_sign_of_tau2(name):
    build, cases = _SIDES[name]
    exp = build()
    for tau, expected in cases:
        tau = exp.tau0 if tau == "tau0" else tau
        assert exp.has_cycle_at(tau) is expected, tau
        if expected and "tau2" not in exp.degenerate:
            assert predicted_cycle(exp, tau).tau == tau


def test_predicted_cycle_expansion_invalid_far_out(expansion):
    # far enough that omega0 + omega2*eps^2 <= 0
    tau = expansion.tau0 + 6.0e-4 * expansion.tau2
    with pytest.raises(ExpansionInvalid):
        predicted_cycle(expansion, tau)


def test_prediction_warning_when_far_from_onset():
    # subcritical set with a small omega2 so the warning zone is reachable
    lin, exp = _expand(-0.5, -12.5, 0.1)
    assert exp.tau2 < 0.0
    tau = exp.tau0 + 0.02 * exp.tau2
    pred = predicted_cycle(exp, tau)
    assert pred.warning is not None
    with pytest.raises(WrongSide):
        predicted_cycle(exp, exp.tau0 + 0.1)


def test_waveform_mean_matches_offset(expansion):
    pred = predicted_cycle(expansion, 3.2)
    t = np.linspace(0.0, pred.period, 100001)
    w = pred.sample(t)
    mean = np.trapezoid(w, t) / pred.period
    assert mean == pytest.approx(pred.p_star + pred.mean_offset, abs=1e-10)
    assert float(np.max(w) - np.min(w)) / 2.0 == pytest.approx(
        pred.epsilon, rel=0.05
    )


def test_waveform_scalar_matches_array(expansion):
    pred = predicted_cycle(expansion, 3.2)
    ts = (0.0, 1.7, 5.3)
    arr = pred.sample(np.array(ts))
    for i, t in enumerate(ts):
        assert pred.sample(t) == pytest.approx(float(arr[i]), rel=1e-15)


def reference_sample(pred, t):
    """Reference: `CyclePrediction.sample` as it read before it summed in
    place, the waveform formula as written. sample must return the same
    type, and equal values, not close ones."""
    s = pred.omega * np.asarray(t, dtype=float)
    h = pred.u1_harmonics
    u1 = h.c1 * np.sin(2 * s) + h.d1 * np.cos(2 * s) + h.e1
    out = pred.p_star + pred.epsilon * np.sin(s) + pred.epsilon**2 * u1
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def _same_sample(got, want):
    assert type(got) is type(want)
    if isinstance(want, float):
        assert repr(got) == repr(want)
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


_finite = st.floats(-1e3, 1e3)


@given(
    omega=st.floats(1e-3, 1e3), epsilon=st.floats(0.0, 10.0), p_star=st.floats(1e-6, 1e6),
    c1=_finite, d1=_finite, e1=_finite,
    t=st.lists(st.floats(-1e4, 1e4), max_size=50),
)
def test_sample_equals_the_reference(expansion, omega, epsilon, p_star, c1, d1, e1, t):
    pred = dataclasses.replace(
        predicted_cycle(expansion, 3.2), omega=omega, epsilon=epsilon, p_star=p_star,
        u1_harmonics=U1Harmonics(c1=c1, d1=d1, e1=e1),
    )
    first = t[0] if t else 0.5
    for ts in (t, np.array(t), np.array(t).reshape(-1, 1), first, int(first),
               np.float64(first), np.array(first)):
        _same_sample(pred.sample(ts), reference_sample(pred, ts))
    assert type(pred.sample(first)) is float and type(pred.sample(np.array(first))) is float


def test_sample_equals_the_reference_on_the_predicted_waveforms(expansion, normal_form):
    # the grid that predict's waveform file and the benchmark sample
    for exp in (expansion, normal_form):
        pred = predicted_cycle(exp, 3.2)
        for t in (np.linspace(0.0, 5 * pred.period, 1001), np.linspace(0.0, pred.period, 201)):
            _same_sample(pred.sample(t), reference_sample(pred, t))


def test_onset_amplitude_scaling(expansion):
    # epsilon shrinks like sqrt(tau - tau0): each decade in delay excess
    # shrinks the amplitude by sqrt(10)
    # (tau0 + 1e-8) - tau0 carries ~2e-8 relative rounding, so rel=1e-6
    eps = [
        predicted_cycle(expansion, expansion.tau0 + 10.0**-m).epsilon
        for m in range(3, 9)
    ]
    for a, b in zip(eps, eps[1:]):
        assert a / b == pytest.approx(math.sqrt(10.0), rel=1e-6)


# -- corrected normal form ------------------------------------------------
#
# With y = ln(p/p*)/alpha, demand x = (w/p)^(1/alpha) turns the model into
# y' = (k*c/alpha)*(exp(-y(t - tau)) - 1), and z = exp(-y) - 1 into Wright's
# equation z' = -(k*c/alpha)*z(t - tau)*(1 + z). Its classical Hopf
# amplitude (Hassard, Kazarinoff and Wan 1981) is
# A^2 = 40*(k*c*tau/alpha - pi/2)/(3*pi - 2), and the price deviation has
# leading amplitude eps = alpha*A*p*, so tau2 = (3*pi - 2)/(40*alpha*k*c*p*^2).
# Reciprocal demand is alpha = 1.

@pytest.mark.parametrize("demand, alpha", [
    (Reciprocal(w=1.0), 1.0),
    (PowerLaw(w=1.0, alpha=0.5), 0.5),
    (PowerLaw(w=1.0, alpha=2.0), 2.0),
    (PowerLaw(w=1.0, alpha=3.0), 3.0),
])
def test_normal_form_matches_wright_closed_form(demand, alpha):
    k, c = 0.01, 50.0
    model = ModelConfig(k=k, c=c, tau=0.0, demand=demand)
    eq = find_equilibrium(model)
    coeffs = taylor_coefficients(model, eq)
    nf = normal_form(coeffs, linear_analysis(coeffs))
    wright = (3.0 * math.pi - 2.0) / (40.0 * alpha * k * c * eq.p_star**2)
    assert nf.tau2 == pytest.approx(wright, rel=1e-12)
    assert nf.tau0 == pytest.approx(math.pi * alpha / (2.0 * k * c), rel=1e-12)
    # the frequency shift in Wright's scaled time and amplitude is -1/20 for
    # every alpha, as the reduction requires
    omega_scaled = (nf.omega2 * nf.tau0 + nf.omega0 * nf.tau2) * (alpha * eq.p_star) ** 2
    assert omega_scaled == pytest.approx(-0.05, rel=1e-12)
    assert nf.degenerate == ()


def projection_normal_form(coeffs, omega0, tau0):
    """Reference: (tau2, omega2, C1, D1, E1) by the projection method
    (Kuznetsov, Elements of Applied Bifurcation Theory, section 3.5, for
    ODEs; Bosschaert, Janssens and Kuznetsov, SIAM J. Appl. Dyn. Syst. 19,
    2020, for DDEs), from the raw coefficients of normal_form's docstring
    and the characteristic function alone. A function is the pair of its
    values at 0 and -tau0; no formula is shared with normal_form."""
    b2, b5, b9 = coeffs.b2, coeffs.b5, coeffs.b9
    B4, B8 = 2.0 * coeffs.b4, 3.0 * coeffs.b8

    def delta(lam):
        return lam - b2 * cmath.exp(-lam * tau0)

    def bilinear(x, y):
        return B4 * (x[0] * y[1] + y[0] * x[1]) + 2.0 * b5 * x[1] * y[1]

    def trilinear(x, y, z):
        return (2.0 * B8 * (x[0] * y[1] * z[1] + y[0] * x[1] * z[1] + z[0] * x[1] * y[1])
                + 6.0 * b9 * x[1] * y[1] * z[1])

    iw = 1j * omega0
    phi = (1.0, cmath.exp(-iw * tau0))
    phi_bar = (1.0, phi[1].conjugate())
    h20 = bilinear(phi, phi) / delta(2.0 * iw)
    h11 = bilinear(phi, phi_bar) / delta(0.0)
    d_delta = 1.0 + b2 * tau0 * cmath.exp(-iw * tau0)  # Delta'(i omega0)
    c1 = (trilinear(phi, phi, phi_bar) + bilinear(phi_bar, (h20, h20 * phi[1] ** 2))
          + 2.0 * bilinear(phi, (h11, h11))) / (2.0 * d_delta)
    d_lambda = -b2 * iw * phi[1] / d_delta  # lambda'(tau0)
    tau2 = -c1.real / (4.0 * d_lambda.real)
    omega2 = d_lambda.imag * tau2 + c1.imag / 4.0
    return tau2, omega2, h20.imag / 4.0, -h20.real / 4.0, h11.real / 4.0


# Over 3000 seeded configurations of the ranges below, the largest relative
# difference from normal_form was 1.8e-14 in tau2, 9.0e-15 in omega2 and
# 2.1e-15 in the harmonics: round-off. The bound is about fifty times that.
PROJECTION_RTOL = 1e-12


@given(
    family=st.sampled_from(["reciprocal", "powerlaw", "wrapped"]),
    k=st.floats(-3.0, -1.0).map(lambda e: 10.0**e),
    c=st.floats(0.0, 2.0).map(lambda e: 10.0**e),
    w=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
    alpha=st.floats(-2.0, math.log10(3.0)).map(lambda e: 10.0**e),
)
@example(family="reciprocal", k=0.01, c=50.0, w=1.0, alpha=1.0)
def test_normal_form_equals_the_projection_method(family, k, c, w, alpha):
    demand = {
        "reciprocal": Reciprocal(w=w),
        "powerlaw": PowerLaw(w=w, alpha=alpha),
        "wrapped": NumericWrapper(func=lambda p: (w / p) ** (1.0 / alpha)),
    }[family]
    chain = analyze(ModelConfig(k=k, c=c, tau=1.0, demand=demand))
    nf, lin = chain.normal_form, chain.linear
    got = projection_normal_form(chain.coefficients, lin.omega0, lin.tau0)
    want = (nf.tau2, nf.omega2, *dataclasses.astuple(nf.u1_harmonics))
    for name, a, b in zip(("tau2", "omega2", "c1", "d1", "e1"), got, want):
        assert abs(a - b) <= PROJECTION_RTOL * abs(b), (name, a, b)


def test_paper_tau2_is_outside_the_projection_bound(chain):
    # reference setup: the projection gives 928.097, the paper 7140.5
    tau2 = projection_normal_form(chain.coefficients, chain.linear.omega0, chain.linear.tau0)[0]
    assert tau2 == pytest.approx(928.0972451, rel=1e-9)
    assert abs(chain.paper.tau2 - tau2) > PROJECTION_RTOL * abs(tau2)


# Two curves that do not reduce to Wright's equation, both with p* = 1,
# omega0 = 0.5 and tau0 = pi: (demand, c, k, normal-form tau2).
_OFF_WRIGHT = {
    "exp": (NumericWrapper(func=lambda p: np.exp(-p), label="exp(-p)"),
            1.0 / math.e, math.e / 2.0, 0.3927),
    "cubic": (NumericWrapper(func=lambda p: 1.0 / (p + p**3), label="1/(p + p^3)"),
              0.5, 0.5, 1.3262),
}


@pytest.mark.parametrize("family", sorted(_OFF_WRIGHT))
@pytest.mark.parametrize("delta", [0.005, 0.01, 0.02])
def test_normal_form_predicts_cycles_off_wright(family, delta):
    # Simulated at tau = tau0 + delta (step 0.01, t_end 16000, history
    # 1.25 p*; a history of 1.01 p* leaves the delta = 0.005 runs short of
    # convergence), the cycle measures against normal_form as follows:
    # - amplitude ratio 1.0021, 1.0039, 1.0077 (exp) and 1.0029, 1.0053,
    #   1.0106 (cubic). Ratio - 1 is a higher-order term, 0.39-0.57 times
    #   delta, so the bound 0.75 delta also checks that the ratio tends to 1.
    #   The paper's tau2 (0.6427 and 4.552) puts the ratio near 1.28 and 1.86.
    # - period error 2.1e-6 to 4.1e-5 relative, 0.08-0.10 times delta^2;
    #   bound 0.15 delta^2.
    # - mean-offset error 1.4e-3 to 5.4e-3 relative; bound 1e-2.
    demand, c, k, tau2 = _OFF_WRIGHT[family]
    model = ModelConfig(k=k, c=c, tau=0.0, demand=demand)
    chain = analyze(model)
    p_star, nf = chain.equilibrium.p_star, chain.normal_form
    assert p_star == pytest.approx(1.0, rel=1e-12)
    assert nf.tau0 == pytest.approx(math.pi, rel=1e-12)
    assert nf.tau2 == pytest.approx(tau2, rel=1e-4)
    tau = nf.tau0 + delta
    traj = simulate(dataclasses.replace(model, tau=tau), 1.25 * p_star, 16000.0, 0.01)
    est = estimate_cycle(traj, p_star)
    pred = predicted_cycle(nf, tau)
    assert abs(est.amplitude / pred.amplitude - 1.0) <= 0.75 * delta
    assert abs(est.period / pred.period - 1.0) <= 0.15 * delta**2
    assert abs((est.mean - p_star) / pred.mean_offset - 1.0) <= 1e-2
    assert est.amplitude / predicted_cycle(chain.paper, tau).amplitude > 1.25


def test_normal_form_reference_values(normal_form, expansion):
    assert normal_form.omega0 == expansion.omega0
    assert normal_form.tau0 == expansion.tau0
    assert normal_form.omega2 == pytest.approx(-187.5, rel=1e-12)
    assert normal_form.tau2 == pytest.approx(928.097245, rel=1e-9)
    u1 = normal_form.u1_harmonics
    assert u1.c1 == pytest.approx(5.0, rel=1e-12)
    assert u1.d1 == pytest.approx(-15.0, rel=1e-12)
    assert u1.e1 == pytest.approx(25.0, rel=1e-12)
    assert normal_form.p_star == expansion.p_star
    # -2*alpha'(tau0)*tau2/omega0 with alpha'(tau0) = b2^2/(1 + pi^2/4),
    # b2 = -1/2, omega0 = 1/2 and tau2 = (3*pi - 2)/0.008
    eta2 = -(3.0 * math.pi - 2.0) / (0.008 * (1.0 + math.pi**2 / 4.0))
    assert normal_form.eta2 == pytest.approx(eta2, rel=1e-9)
    assert normal_form.eta2 == pytest.approx(-267.66, abs=0.005)


def test_normal_form_without_cubic_terms():
    # b8 = b9 = 0 isolates the quadratic terms; B4 = 2*b4 is the raw uv
    # coefficient, so b4 = -0.5 and b5 = 1 give B4 = -1 and S = 3 - 7 + 22
    lin, _ = _expand(-1.0, -0.5, 1.0)
    nf = normal_form(_make_coeffs(-1.0, -0.5, 1.0), lin)
    assert nf.omega2 == pytest.approx(-18.0 / 20.0, rel=1e-12)
    assert nf.tau2 == pytest.approx((8.0 + 18.0 * math.pi) / 40.0, rel=1e-12)
    assert (nf.u1_harmonics.c1, nf.u1_harmonics.d1, nf.u1_harmonics.e1) == pytest.approx(
        (0.1, -0.3, 0.5), rel=1e-12
    )


def test_normal_form_rejects_nonnegative_b2():
    lin, _ = _expand(-0.5, -12.5, 25.0)
    with pytest.raises(NonNegativeB2):
        normal_form(_make_coeffs(0.5, -12.5, 25.0), lin)


def test_normal_form_degenerate_tau2():
    # the set above with B8 = 3*b8 chosen so that -10*B8*b2 cancels the
    # tau2 numerator -8 - 18*pi
    lin, _ = _expand(-1.0, -0.5, 1.0)
    nf = normal_form(_make_coeffs(-1.0, -0.5, 1.0, b8=(8.0 + 18.0 * math.pi) / 30.0), lin)
    assert nf.degenerate == ("tau2",)
    with pytest.raises(DegenerateBifurcation):
        predicted_cycle(nf, lin.tau0 + 0.1)
    with pytest.raises(DegenerateBifurcation) as excinfo:
        classify(nf)
    assert excinfo.value.quantity == "tau2"


def test_predicted_cycle_from_normal_form(normal_form, linear):
    pred = predicted_cycle(normal_form, 3.2)
    assert pred.epsilon == pytest.approx(7.933e-3, rel=1e-3)
    assert pred.amplitude == pred.epsilon
    assert pred.period == pytest.approx(12.8701, rel=1e-5)
    assert pred.mean_offset == pytest.approx(1.5733e-3, rel=1e-4)
    # per unit s = omega*t; times omega0 it is the Hopf cycle exponent
    assert pred.floquet_exponent == pytest.approx(-0.0168447, rel=1e-5)
    assert pred.floquet_exponent * normal_form.omega0 == pytest.approx(
        -2.0 * linear.transversality * (3.2 - linear.tau0), rel=1e-12
    )
    assert pred.u1_harmonics == normal_form.u1_harmonics
    assert pred.warning is None


def test_chain_equals_the_separate_calls(model, chain):
    eq = find_equilibrium(model)
    coeffs = taylor_coefficients(model, eq)
    lin = linear_analysis(coeffs)
    assert chain == Chain(eq, coeffs, lin, hopf_expansion(coeffs, lin), normal_form(coeffs, lin))


@pytest.mark.parametrize("tau", [3.1416, 3.16, 3.2, 3.3, 3.5])
def test_normal_form_exponent_is_the_hopf_cycle_exponent(normal_form, linear, tau):
    pred = predicted_cycle(normal_form, tau)
    assert pred.floquet_exponent * normal_form.omega0 == pytest.approx(
        -2.0 * linear.transversality * (tau - linear.tau0), rel=1e-12
    )


def test_classify_normal_form(normal_form):
    verdicts = classify(normal_form)
    assert verdicts.direction is Direction.SUPERCRITICAL
    assert verdicts.cycle_stability is CycleStability.STABLE
    assert verdicts.period_trend is PeriodTrend.INCREASING


def test_square_root_demand_is_subcritical_under_the_normal_form():
    # the normal form puts an unstable cycle below the onset, where
    # simulation finds one; the paper's tau2 > 0 puts it above
    chain = analyze(square_root_model(0.2))
    assert chain.equilibrium.p_star == pytest.approx(0.96, rel=1e-12)
    assert chain.linear.tau0 == pytest.approx(0.6544984695, rel=1e-9)
    nf = chain.normal_form
    assert nf.tau2 == pytest.approx(-12.44899, rel=1e-6)
    assert nf.eta2 == pytest.approx(17.2334, rel=1e-5)
    verdicts = classify(nf)
    assert verdicts.direction is Direction.SUBCRITICAL
    assert verdicts.cycle_stability is CycleStability.UNSTABLE
    assert chain.paper.tau2 == pytest.approx(25.953, rel=1e-4)
    assert classify(chain.paper).direction is Direction.SUPERCRITICAL


def test_square_root_demand_has_a_degenerate_hopf_point():
    # the normal form's tau2 changes sign near c = 0.505 and is round-off
    # here, so it is flagged and classify refuses; the paper's is not
    chain = analyze(square_root_model(0.5052122127638702))
    nf = chain.normal_form
    assert nf.degenerate == ("tau2",)
    assert abs(nf.tau2) < 1e-13
    with pytest.raises(DegenerateBifurcation) as excinfo:
        classify(nf)
    assert excinfo.value.quantity == "tau2"
    assert chain.paper.degenerate == ()
    assert chain.paper.tau2 == pytest.approx(2.299, rel=1e-3)


@pytest.mark.parametrize("b2", [-5e104, -5e-109])
def test_expansions_refuse_b2_whose_cube_leaves_the_float_range(b2):
    # b2**3 overflows (OverflowError) or underflows to 0 (ZeroDivisionError)
    coeffs = _make_coeffs(b2, -12.5, 25.0)
    lin = linear_analysis(coeffs)
    for expand in (hopf_expansion, normal_form):
        with pytest.raises(NumericalError, match="b2"):
            expand(coeffs, lin)
