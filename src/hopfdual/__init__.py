"""Delay-feedback price dynamics: analysis, prediction, and simulation.

The model is a scalar delay differential equation

    dp/dt = k * p(t) * (x(p(t - tau)) - c)

for a price p steered by delayed demand feedback x against capacity c.
The package finds the equilibrium, expands the dynamics to third order,
locates the oscillation onset in the delay, predicts the emerging cycle
(amplitude, period, mean shift, stability) from closed-form expansion
coefficients, and checks those predictions against direct simulation.
"""

from .analysis import (
    SWEEP_HEADER,
    CycleEstimate,
    DiagramRow,
    PredictionErrors,
    Regime,
    compare_prediction,
    estimate_cycle,
    sweep,
    write_sweep_csv,
)
from .bifurcation import (
    ComplexRoot,
    LinearAnalysis,
    StabilityVerdict,
    characteristic_root,
    is_locally_stable,
    linear_analysis,
    rightmost_root,
)
from .demand import (
    DemandFunction,
    NumericWrapper,
    PowerLaw,
    Reciprocal,
    make_demand,
)
from .dde import (
    Trajectory,
    default_step,
    read_trajectory_csv,
    simulate,
    write_trajectory_csv,
)
from .errors import (
    DegenerateBifurcation,
    DomainViolation,
    ExpansionInvalid,
    HopfDualError,
    NoBracket,
    NoConvergence,
    NonNegativeB2,
    NumericalError,
    PositivityLoss,
    RegimeMismatch,
    SingularJacobian,
    TooShort,
    ValidationError,
    WrongSide,
)
from .hopf import (
    BifurcationClass,
    Chain,
    CyclePrediction,
    CycleStability,
    Direction,
    HopfExpansion,
    PeriodTrend,
    Q1Harmonics,
    U1Harmonics,
    analyze,
    classify,
    hopf_expansion,
    normal_form,
    predicted_cycle,
)
from .model import (
    Equilibrium,
    ModelConfig,
    TaylorCoefficients,
    find_equilibrium,
    numeric_taylor_oracle,
    rhs,
    taylor_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "BifurcationClass",
    "Chain",
    "ComplexRoot",
    "CycleEstimate",
    "CyclePrediction",
    "CycleStability",
    "DegenerateBifurcation",
    "DemandFunction",
    "DiagramRow",
    "Direction",
    "DomainViolation",
    "Equilibrium",
    "ExpansionInvalid",
    "HopfDualError",
    "HopfExpansion",
    "LinearAnalysis",
    "ModelConfig",
    "NoBracket",
    "NoConvergence",
    "NonNegativeB2",
    "NumericWrapper",
    "NumericalError",
    "PeriodTrend",
    "PositivityLoss",
    "PowerLaw",
    "PredictionErrors",
    "Q1Harmonics",
    "Reciprocal",
    "Regime",
    "RegimeMismatch",
    "SWEEP_HEADER",
    "SingularJacobian",
    "StabilityVerdict",
    "TaylorCoefficients",
    "TooShort",
    "Trajectory",
    "U1Harmonics",
    "ValidationError",
    "WrongSide",
    "analyze",
    "characteristic_root",
    "classify",
    "compare_prediction",
    "default_step",
    "estimate_cycle",
    "find_equilibrium",
    "hopf_expansion",
    "is_locally_stable",
    "linear_analysis",
    "make_demand",
    "normal_form",
    "numeric_taylor_oracle",
    "predicted_cycle",
    "read_trajectory_csv",
    "rhs",
    "rightmost_root",
    "simulate",
    "sweep",
    "taylor_coefficients",
    "write_sweep_csv",
    "write_trajectory_csv",
]
