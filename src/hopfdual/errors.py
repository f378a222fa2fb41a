"""Exception hierarchy.

Two branches matter to callers: ValidationError (bad configuration or
violated precondition, CLI exit code 2) and NumericalError (a solver or
measurement failed on valid input, CLI exit code 3).
"""

from __future__ import annotations


class HopfDualError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(HopfDualError):
    """Invalid configuration value or violated operation precondition."""


class NumericalError(HopfDualError):
    """A numerical procedure failed on otherwise valid input."""


class NoBracket(NumericalError):
    """Equilibrium bracket expansion found no sign change."""


class DomainViolation(NumericalError):
    """A demand-function evaluation left its declared domain."""


class NonNegativeB2(NumericalError):
    """Linear coefficient b2 >= 0: demand is not strictly decreasing at p*."""


class NoConvergence(NumericalError):
    """Iteration budget exhausted before reaching tolerance."""


class SingularJacobian(NumericalError):
    """Newton derivative too small to divide by."""


class PositivityLoss(NumericalError):
    """Simulated price reached zero or below.

    `dde.simulate` multiplies the price by a positive factor each step, so
    there it means that the price underflowed to 0.0.

    Attributes
    ----------
    time : float
        Simulation time at which positivity was lost.
    """

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"price became nonpositive at t = {time:.6g}")


class TooShort(NumericalError):
    """Trajectory has too few post-transient cycles to measure."""


class RegimeMismatch(NumericalError):
    """Cycle comparison requested for a non-cycle estimate."""


class WrongSide(NumericalError):
    """Requested delay is on the wrong side of the bifurcation point."""


class ExpansionInvalid(NumericalError):
    """Delay so far past onset that the expansion breaks down entirely."""


class DegenerateBifurcation(NumericalError):
    """A classifying quantity vanishes, so its sign verdict is undefined.

    Attributes
    ----------
    quantity : str
        Name of the vanishing quantity ("tau2", "eta2", or "omega2").
    """

    def __init__(self, quantity: str):
        self.quantity = quantity
        super().__init__(f"{quantity} vanishes; sign-based classification undefined")
