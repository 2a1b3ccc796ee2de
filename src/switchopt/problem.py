"""Multi-phase control problem abstraction.

A problem is the dynamics f(x, u), a terminal objective C(x(T)), and an
ordered list of phases.  Each phase carries a control law: a constant
vector, a state feedback u = law(t, x), or a state-costate feedback
u = law(t, x, p) (Case 2).  Phase j is active on (s_j, s_{j+1}) once a
switch configuration fixes the s_j.  The sweeps integrate z = x (Case 1)
or z = (x, p) (Case 2); each phase gives its flow F(t, z) and the
Jacobian dF/dz of that flow, at many points per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import InvalidSwitchOrder, MissingCostate

__all__ = [
    "ControlPhase",
    "ProblemDef",
    "SwitchConfig",
    "horizon",
    "phase_law", "phase_law_jacobian", "phase_feasibility",
    "phase_flow", "phase_jacobian", "lane_law",
    "validate_config",
]

FD_STEP = 1e-6  # relative step of the central difference, read at call time


@dataclass(frozen=True)
class ControlPhase:
    """One piece of the piecewise control law.

    law_kind is "constant", "state" (u = law(t, x)), or "state_costate"
    (u = law(t, x, p)).  lower/upper map t to the control box bounds.
    law_x(t, x), read only for a state law, is its m-by-n Jacobian in x.
    A phase without analytic derivatives (a state law without law_x, a
    Case-2 problem without case2_derivs) takes a central difference of
    F: 2 dim(z) flow calls per point of its Jacobian.
    """

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
    """Immutable definition of a multi-phase control problem.

    The model callbacks (f, f_x, f_u, C, grad_C, every law and law_x,
    case2_derivs) take one point or B points at once: t of shape (B,), x
    and p of shape (n, B), u of shape (m, B), returning arrays whose
    trailing axis is that lane axis.  So each phase's Jacobian at all the
    stage points of a sweep costs one call.
    """

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
    # (j, t, x, p) -> (2n, 2n), phase j's flow Jacobian dF/d(x, p), with
    # the lane axis last on lanes
    case2_derivs: Optional[Callable] = None
    reference: object = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.case not in (1, 2):
            raise ValueError("case must be 1 or 2")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"{self.name}: horizon T must be finite and "
                             f"> 0, got {self.T}")

    @property
    def k(self) -> int:
        """Number of switch points."""
        return len(self.phases) - 1

    @property
    def eps_gap(self) -> float:
        """Smallest spacing of 0, s_1, ..., s_k, T that validate_config
        accepts."""
        return 1e-6 * self.T


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


def horizon(prob: ProblemDef, cfg: SwitchConfig) -> float:
    """cfg's T on a free-time problem, else prob.T, which cfg may not set."""
    if cfg.T is not None and not prob.free_time:
        raise InvalidSwitchOrder(f"{prob.name}: the horizon is fixed at "
                                 f"{prob.T:g}; the configuration sets T")
    return float(prob.T if cfg.T is None else cfg.T)


def validate_config(prob: ProblemDef, cfg: SwitchConfig):
    """Check the horizon, that s, T and p0 are finite, the ordering 0 < s_1
    < ... < s_k < T with the configured gap, and that cfg has a p0, of the
    state's size, exactly in Case 2."""
    T = horizon(prob, cfg)
    if cfg.s.size != prob.k:
        raise InvalidSwitchOrder(
            f"{prob.name}: expected {prob.k} switch points, got {cfg.s.size}")
    if not (np.isfinite(cfg.s).all() and math.isfinite(T) and (
            cfg.p0 is None or np.isfinite(cfg.p0).all())):
        raise InvalidSwitchOrder(
            f"{prob.name}: non-finite configuration s = {cfg.s}, T = {T}"
            + ("" if cfg.p0 is None else f", p0 = {cfg.p0}"))
    pts = np.concatenate(([0.0], cfg.s, [T]))
    if np.any(np.diff(pts) < prob.eps_gap):
        raise InvalidSwitchOrder(
            f"{prob.name}: switch points {cfg.s} violate the ordering "
            f"0 < s_1 < ... < s_k < {T} with gap {prob.eps_gap:g}")
    if prob.case == 2 and cfg.p0 is None:
        raise MissingCostate(f"{prob.name}: Case-2 problem requires p0")
    np0 = prob.n if prob.case == 2 else 0
    if cfg.p0 is not None and cfg.p0.size != np0:
        raise InvalidSwitchOrder(f"{prob.name}: p0 has size {cfg.p0.size}, "
                                 f"Case {prob.case} takes {np0}")


def _vector(v):
    u = np.asarray(v, dtype=float)
    return u if u.ndim else u.reshape(1)


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


def lane_law(prob, j):
    """Phase j's control law on B lanes as u(t, x, p=None) of shape (m,
    B), for t of shape (B,) and x and p of shape (n, B); a constant law is
    broadcast."""
    m, law = prob.m, phase_law(prob, j)

    def control(t, x, p=None):
        u = np.empty((m, t.size))
        u[:] = np.reshape(law(t, x, p), (m, -1))
        return u
    return control


def phase_law_jacobian(prob, j):
    """Phase j's closed-loop state Jacobian J(t, x, u) at control u: f_x,
    plus f_u law_x(t, x) for a state law.  On lanes x, u and J carry the
    trailing lane axis."""
    ph, f_x, f_u = prob.phases[j], prob.f_x, prob.f_u
    if ph.law_kind == "constant":
        return lambda t, x, u: np.asarray(f_x(x, u), dtype=float)
    return lambda t, x, u: (np.asarray(f_x(x, u), dtype=float)
                            + np.einsum("im...,mj...->ij...", f_u(x, u),
                                        np.atleast_2d(ph.law_x(t, x))))


def phase_feasibility(prob, j):
    """Phase j's control-box margin as m(t, x, p=None): (m,) at a point,
    (m, B) on B lanes."""
    ph, m = prob.phases[j], prob.m
    point, lanes = phase_law(prob, j), lane_law(prob, j)

    def margin(t, x, p=None):
        if np.ndim(x) == 2:
            u = lanes(t, x, p)
            return np.minimum(u - np.reshape(ph.lower(t), (m, -1)),
                              np.reshape(ph.upper(t), (m, -1)) - u)
        u = point(t, x, p)
        return np.minimum(u - _vector(ph.lower(t)), _vector(ph.upper(t)) - u)
    return margin


def phase_flow(prob, j):
    """Phase j's flow F(t, z) of the sweep state: z = x and F = f in Case 1,
    z = (x, p) and F = (f, -p f_x) in Case 2.  It takes one point, or B
    lanes: t of shape (B,) and z of shape (d, B)."""
    n, f, f_x = prob.n, prob.f, prob.f_x
    point, lanes = phase_law(prob, j), lane_law(prob, j)
    if prob.case == 1:
        return lambda t, z: f(z, (lanes if z.ndim == 2 else point)(t, z))

    def flow(t, z):
        x, p = z[:n], z[n:]
        u = (lanes if z.ndim == 2 else point)(t, x, p)
        dp = -np.einsum("i...,ij...->j...", p, f_x(x, u))
        return np.concatenate((f(x, u), dp))
    return flow


def phase_jacobian(prob, j):
    """Phase j's flow Jacobian at M points: J(t, z) of shape (d, d, M) for
    t of shape (M,) and z of shape (d, M), J[..., i] = dF/dz(t_i, z_i).

    It comes from the closed-loop Jacobian (Case 1) or case2_derivs
    (Case 2) in one call.  A phase without them takes a central difference
    of F, column by column and point by point: 2 dim(z) flow calls per
    point.  A result of another shape than (d, d, M) raises ValueError.
    """
    n, derivs, ph = prob.n, prob.case2_derivs, prob.phases[j]
    if prob.case == 1 and (ph.law_x is not None or ph.law_kind == "constant"):
        jacobian, control = phase_law_jacobian(prob, j), lane_law(prob, j)
        batched = lambda t, z: jacobian(t, z, control(t, z))
    elif prob.case == 2 and derivs is not None:
        batched = lambda t, z: derivs(j, t, z[:n], z[n:])
    else:
        flow = phase_flow(prob, j)

        def batched(t, z):
            d = z.shape[0]
            J = np.empty((d, d, t.size))
            for m in range(t.size):
                for i in range(d):
                    h = FD_STEP * max(1.0, abs(z[i, m]))
                    zp, zm = z[:, m].copy(), z[:, m].copy()
                    zp[i] += h
                    zm[i] -= h
                    J[:, i, m] = (flow(t[m], zp) - flow(t[m], zm)) / (2 * h)
            return J

    def checked(t, z):
        J, want = batched(t, z), z.shape[:1] * 2 + t.shape
        if np.shape(J) != want:
            raise ValueError(f"{prob.name}: phase {j}'s flow Jacobian has "
                             f"shape {np.shape(J)}, not {want}: the model "
                             "callbacks must keep the lane axis last")
        return J
    return checked
