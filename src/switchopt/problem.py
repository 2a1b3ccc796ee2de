"""Multi-phase control problem abstraction.

A problem is the dynamics f(x, u), a terminal objective C(x(T)), and an
ordered list of phases.  Each phase carries a control law: a constant
vector, a state feedback u = law(t, x), or a state-costate feedback
u = law(t, x, p) (Case 2).  Phase j is active on (s_j, s_{j+1}) once a
switch configuration fixes the s_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import InvalidSwitchOrder, MissingCostate, NonFiniteDerivative

__all__ = [
    "ControlPhase",
    "ProblemDef",
    "SwitchConfig",
    "phase_law", "phase_law_jacobian", "phase_feasibility",
    "phase_control",
    "phase_dynamics",
    "phase_jacobian",
    "control_feasibility",
    "generalized_hamiltonian",
    "numeric_case2_derivs",
    "case2_gradients",
    "validate_config",
]

DEFAULT_FD_STEP = 1e-6


@dataclass(frozen=True)
class ControlPhase:
    """One piece of the piecewise control law.

    law_kind is "constant", "state" (u = law(t, x)), or "state_costate"
    (u = law(t, x, p)).  lower/upper map t to the control box bounds.
    law_x, when given, is the m-by-n Jacobian of the law with respect to x
    (same call signature as law); without it a central finite difference
    is used wherever the Jacobian of the closed-loop dynamics is needed.
    """

    index: int
    law_kind: str
    law: Callable
    lower: Callable[[float], np.ndarray]
    upper: Callable[[float], np.ndarray]
    law_x: Optional[Callable] = None

    def __post_init__(self):
        if self.law_kind not in ("constant", "state", "state_costate"):
            raise ValueError(f"unknown law_kind {self.law_kind!r}")


@dataclass(frozen=True)
class ProblemDef:
    """Immutable definition of a multi-phase control problem."""

    name: str
    n: int
    m: int
    x0: np.ndarray
    T: float
    free_time: bool
    case: int
    phases: tuple
    f: Callable          # (x, u) -> xdot (n,)
    f_x: Callable        # (x, u) -> (n, n)
    f_u: Callable        # (x, u) -> (n, m)
    C: Callable          # x_T -> scalar
    grad_C: Callable     # x_T -> (n,) row
    case2_derivs: Optional[Callable] = None  # (j,t,x,p,y1,y2) -> (gx, gp)
    reference: object = None
    eps_gap: float = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.case not in (1, 2):
            raise ValueError("case must be 1 or 2")
        if self.eps_gap is None:
            object.__setattr__(self, "eps_gap", 1e-6 * self.T)

    @property
    def k(self) -> int:
        """Number of switch points."""
        return len(self.phases) - 1


@dataclass
class SwitchConfig:
    """Decision vector: ordered switch points, optional p0, optional T."""

    s: np.ndarray
    p0: Optional[np.ndarray] = None
    T: Optional[float] = None

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        if self.p0 is not None:
            self.p0 = np.asarray(self.p0, dtype=float)

    def copy(self) -> "SwitchConfig":
        return SwitchConfig(
            s=self.s.copy(),
            p0=None if self.p0 is None else self.p0.copy(),
            T=self.T)


def validate_config(prob: ProblemDef, cfg: SwitchConfig):
    """Check ordering 0 < s_1 < ... < s_k < T with the configured gap."""
    T = cfg.T if cfg.T is not None else prob.T
    if cfg.s.size != prob.k:
        raise InvalidSwitchOrder(
            f"{prob.name}: expected {prob.k} switch points, got {cfg.s.size}")
    pts = np.concatenate(([0.0], cfg.s, [T]))
    if np.any(np.diff(pts) < prob.eps_gap):
        raise InvalidSwitchOrder(
            f"{prob.name}: switch points {cfg.s} violate the ordering "
            f"0 < s_1 < ... < s_k < {T} with gap {prob.eps_gap:g}")
    if prob.case == 2 and cfg.p0 is None:
        raise MissingCostate(f"{prob.name}: Case-2 problem requires p0")
    if cfg.p0 is not None and cfg.p0.size != prob.n:
        raise InvalidSwitchOrder(
            f"{prob.name}: p0 has dimension {cfg.p0.size}, expected {prob.n}")


def _vector(v):
    u = np.asarray(v, dtype=float)
    return u if u.ndim else u.reshape(1)


def _central_differences(g, v, h_fd):
    """Central differences [dg/dv_i], step h_fd * max(1, |v_i|)."""
    cols = []
    for i in range(v.size):
        h = h_fd * max(1.0, abs(v[i]))
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        cols.append((g(vp) - g(vm)) / (2 * h))
    return cols


def phase_law(prob, j):
    """Phase j's control law as u(t, x, p=None), a 1-d float array."""
    law, kind = prob.phases[j].law, prob.phases[j].law_kind
    if kind == "constant":
        return lambda t, x, p=None: _vector(law(t))
    if kind == "state":
        return lambda t, x, p=None: _vector(law(t, x))

    def control(t, x, p=None):
        if p is None:
            raise MissingCostate(
                f"{prob.name}: phase {j} law needs the costate")
        return _vector(law(t, x, p))
    return control


def phase_law_jacobian(prob, j, h_fd=DEFAULT_FD_STEP):
    """Phase j's closed-loop state Jacobian as J(t, x, u, p=None), u the
    control there: f_x + f_u @ (d law / d x), with the phase's law_x when
    given, else a central finite difference of the law."""
    ph, f_x, f_u = prob.phases[j], prob.f_x, prob.f_u
    if ph.law_kind == "constant":
        return lambda t, x, u, p=None: np.asarray(f_x(x, u), dtype=float)
    law_x = ph.law_x
    if law_x is None:
        control = phase_law(prob, j)
        law_x = lambda t, x, p: np.column_stack(_central_differences(
            lambda xq: control(t, xq, p), x, h_fd))
    elif ph.law_kind == "state":
        law_x = lambda t, x, p, state_law_x=law_x: state_law_x(t, x)

    def jacobian(t, x, u, p=None):
        return (np.asarray(f_x(x, u), dtype=float)
                + np.asarray(f_u(x, u), dtype=float)
                @ np.atleast_2d(law_x(t, x, p)))
    return jacobian


def phase_feasibility(prob, j):
    """Phase j's control-box margin as m(t, x, p=None)."""
    ph, control = prob.phases[j], phase_law(prob, j)

    def margin(t, x, p=None):
        u = control(t, x, p)
        return np.minimum(u - _vector(ph.lower(t)), _vector(ph.upper(t)) - u)
    return margin


def phase_control(prob, j, t, x, p=None):
    """Control produced by phase j's law at (t, x[, p])."""
    return phase_law(prob, j)(t, x, p)


def phase_dynamics(prob, j, t, x, p=None):
    """Closed-loop dynamics f(x, phi_j(...)) for phase j."""
    return prob.f(x, phase_control(prob, j, t, x, p))


def phase_jacobian(prob, j, t, x, p=None, h_fd=DEFAULT_FD_STEP):
    """Total state Jacobian of the closed-loop dynamics of phase j."""
    return phase_law_jacobian(prob, j, h_fd)(
        t, x, phase_control(prob, j, t, x, p), p)


def control_feasibility(prob, j, t, x, p=None):
    """Componentwise margin min(u - alpha, beta - u); negative = violated."""
    return phase_feasibility(prob, j)(t, x, p)


def generalized_hamiltonian(prob, j, t, x, p, y1, y2):
    """Scalar H_j = y1 . f_j(x,p,t) - p . f_jx(x,p,t) . y2^T (Case 2)."""
    u = phase_control(prob, j, t, x, p)
    fx = np.asarray(prob.f_x(x, u), dtype=float)
    return float(y1 @ prob.f(x, u) - p @ (fx @ y2))


def numeric_case2_derivs(prob, j, t, x, p, y, h_fd=DEFAULT_FD_STEP):
    """Central-difference gradients of the generalized Hamiltonian.

    y = (y1, y2).  Returns (grad_x H_j, grad_p H_j) as length-n rows.
    Fallback for problems that do not supply analytic case2_derivs.
    """
    y1, y2 = y
    gx = np.array(_central_differences(
        lambda xq: generalized_hamiltonian(prob, j, t, xq, p, y1, y2), x, h_fd))
    gp = np.array(_central_differences(
        lambda pq: generalized_hamiltonian(prob, j, t, x, pq, y1, y2), p, h_fd))
    if not (np.all(np.isfinite(gx)) and np.all(np.isfinite(gp))):
        raise NonFiniteDerivative(
            f"{prob.name}: non-finite Hamiltonian gradient in phase {j} at t={t}")
    return gx, gp


def case2_gradients(prob, j, t, x, p, y1, y2):
    """Gradients of the generalized Hamiltonian, analytic when provided."""
    if prob.case2_derivs is not None:
        return prob.case2_derivs(j, t, x, p, y1, y2)
    return numeric_case2_derivs(prob, j, t, x, p, (y1, y2))
