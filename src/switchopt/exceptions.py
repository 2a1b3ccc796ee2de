"""Exception hierarchy shared by all switchopt modules."""


class SwitchOptError(Exception):
    """Base class for all errors raised by this package."""


# --- integration ---

class StepLimitExceeded(SwitchOptError):
    """The integrator hit its accepted/rejected step budget."""


class StepUnderflow(SwitchOptError):
    """Error control demanded a step below h_min (stiffness or blow-up)."""


class NonFiniteState(SwitchOptError):
    """NaN or Inf appeared in the state during integration."""


# --- problem model ---

class MissingCostate(SwitchOptError):
    """A costate-feedback control law was invoked without a costate."""


class InvalidSwitchOrder(SwitchOptError):
    """Switch points violate 0 < s_1 < ... < s_k < T with the minimum gap,
    or a p0 does not fit the problem."""


# --- optimizer ---

class InfeasiblePolytope(SwitchOptError):
    """The horizon is too short to hold k switch points with the gap."""


class MaxItersExceeded(SwitchOptError):
    """Iteration budget exhausted before reaching the stationarity tolerance."""


class LineSearchFailure(SwitchOptError):
    """Backtracking found no decrease down to negligible step sizes."""


class SecantDivergence(SwitchOptError):
    """Secant iteration left the horizon, stalled, or found a non-minimizing root."""


# --- warm start ---

class NoStructure(SwitchOptError):
    """The regularized control exposes no usable switch structure."""
