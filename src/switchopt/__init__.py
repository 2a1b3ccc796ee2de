"""Switch-point optimization for bang-bang and singular optimal control.

The control problem is reduced to a finite-dimensional minimization over
the switching times of the control structure (plus the initial costate
when the singular feedback needs it, and the horizon when terminal time is
free).  Objective derivatives come from one forward state sweep and the
reverse pass of its steps (the discrete adjoint) per evaluation.
"""

from .exceptions import (
    SwitchOptError, StepLimitExceeded, StepUnderflow, NonFiniteState,
    MissingCostate, InvalidSwitchOrder,
    InfeasiblePolytope, MaxItersExceeded, LineSearchFailure,
    SecantDivergence, NoStructure,
)
from .odeint import IntegratorSettings, PiecewiseOde, DenseTrajectory, \
    integrate_piecewise
from .problem import ControlPhase, ProblemDef, SwitchConfig, validate_config
from .gradients import GradientBundle, TrajectoryRecord, evaluate_gradient, \
    forward_sweep, backward_sweep, dense_trajectory, feasibility_margins, \
    gradcheck, free_time_gradient_check
from .optimizer import OptimizeSettings, SolveReport, minimize, \
    project_ordered, secant_switch, derivative_profile
from .warmstart import DiscreteControlProblem, StructureEstimate, tv_prox, \
    solve_tv_euler, detect_structure
from .benchmarks import build_problem, PROBLEM_NAMES

__version__ = "0.1.0"

__all__ = [
    "SwitchOptError", "StepLimitExceeded", "StepUnderflow", "NonFiniteState",
    "MissingCostate", "InvalidSwitchOrder",
    "InfeasiblePolytope", "MaxItersExceeded", "LineSearchFailure",
    "SecantDivergence", "NoStructure",
    "IntegratorSettings", "PiecewiseOde", "DenseTrajectory",
    "integrate_piecewise",
    "ControlPhase", "ProblemDef", "SwitchConfig", "validate_config",
    "GradientBundle", "TrajectoryRecord", "evaluate_gradient",
    "forward_sweep", "backward_sweep", "dense_trajectory",
    "feasibility_margins", "gradcheck", "free_time_gradient_check",
    "OptimizeSettings", "SolveReport", "minimize", "project_ordered",
    "secant_switch", "derivative_profile",
    "DiscreteControlProblem", "StructureEstimate", "tv_prox",
    "solve_tv_euler", "detect_structure",
    "build_problem", "PROBLEM_NAMES",
]
