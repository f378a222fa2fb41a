"""Shared fixtures for the reference setup k = 0.01, c = 50, x(p) = 1/p.

The three trajectory fixtures are the workhorse simulations reused across
module and acceptance tests; they are session-scoped because each takes
hundreds of thousands of integrator steps.
"""

import numpy as np
import pytest

from hopfdual import (
    ModelConfig,
    NumericWrapper,
    Reciprocal,
    analyze,
    simulate,
)

K = 0.01
C = 50.0


def reference_model(tau: float) -> ModelConfig:
    """The reference setup at a given delay."""
    return ModelConfig(k=K, c=C, tau=tau, demand=Reciprocal(w=1.0))


def subcritical_model(tau: float = 1.0) -> ModelConfig:
    """x(p) = exp(-p), k = 1, c = 0.95: p* = 0.051293, tau0 = 32.2356, and
    the paper's tau2 = -20.487 (subcritical; the normal form's is +1381.67)."""
    return ModelConfig(k=1.0, c=0.95, tau=tau,
                       demand=NumericWrapper(func=lambda p: np.exp(-p)))


def square_root_model(c: float) -> ModelConfig:
    """x(p) = sqrt(1 - p) on (0, 1), k = 1: p* = 1 - c**2. The normal form's
    tau2 is negative at c = 0.2 (subcritical, where the paper's is positive)
    and vanishes at c = 0.5052122127638702."""
    return ModelConfig(k=1.0, c=c, tau=1.0,
                       demand=NumericWrapper(lambda p: np.sqrt(1 - p), 0, 1))


def logistic_model(tau: float = 1.0) -> ModelConfig:
    """x(p) = 1/(1 + exp(4 (p - 1))), k = 1, c = 0.5: p* = 1 is the curve's
    inflection point, so x''(p*) = 0 and the paper's tau2 vanishes (flagged
    degenerate); tau0 = pi/2."""
    demand = NumericWrapper(func=lambda p: 1.0 / (1.0 + np.exp(4.0 * (p - 1.0))))
    return ModelConfig(k=1.0, c=0.5, tau=tau, demand=demand)


@pytest.fixture(scope="session")
def model():
    return reference_model(3.2)


@pytest.fixture(scope="session")
def chain(model):
    return analyze(model)


@pytest.fixture(scope="session")
def eq(chain):
    return chain.equilibrium


@pytest.fixture(scope="session")
def coeffs(chain):
    return chain.coefficients


@pytest.fixture(scope="session")
def linear(chain):
    return chain.linear


@pytest.fixture(scope="session")
def expansion(chain):
    """The paper's expansion, verbatim."""
    return chain.paper


@pytest.fixture(scope="session")
def normal_form(chain):
    """The corrected expansion, with the cubic coefficients b8 and b9."""
    return chain.normal_form


@pytest.fixture(scope="session")
def run_tau30():
    """Below onset: decays to equilibrium."""
    return simulate(reference_model(3.0), 0.025, 2000.0, 0.01)


@pytest.fixture(scope="session")
def run_tau32():
    """Just above onset: settles onto the small limit cycle."""
    return simulate(reference_model(3.2), 0.025, 5000.0, 0.01)


@pytest.fixture(scope="session")
def run_tau34():
    """Farther above onset: larger, slower cycle."""
    return simulate(reference_model(3.4), 0.025, 5000.0, 0.01)
