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
    "phase_law", "phase_feasibility",
    "phase_flow", "phase_jacobian", "lane_shaped",
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
    F: its Jacobian at M points is one flow call on 2 dim(z) M lanes.
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

    The model callbacks (f, f_x, f_u, C, grad_C, every law, law_x, lower
    and upper, case2_derivs) take one point or B points at once: t of
    shape (B,), x and p of shape (n, B), u of shape (m, B), returning
    arrays whose trailing axis is that lane axis; a law or a bound may
    return one value for all lanes.  So each phase's Jacobian at all the
    stage points of a sweep costs one call.  The callbacks always receive
    arrays; the built-in problems compute a point on Python floats inside
    their callbacks, with the same body on the arrays as the fallback (see
    ``benchmarks``).
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
    C: Callable          # x_T -> scalar, (B,) on lanes
    grad_C: Callable     # x_T -> (n,) row, (n, B) on lanes unless constant
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
    def p0_size(self) -> int:
        """Size of a configuration's p0: n in Case 2, 0 (no p0) in Case 1."""
        return self.n if self.case == 2 else 0

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
    if prob.p0_size and cfg.p0 is None:
        raise MissingCostate(f"{prob.name}: Case-2 problem requires p0")
    if cfg.p0 is not None and cfg.p0.size != prob.p0_size:
        raise InvalidSwitchOrder(f"{prob.name}: p0 has size {cfg.p0.size}, "
                                 f"Case {prob.case} takes {prob.p0_size}")


def _shaped(v, t, m):
    """v, the value of a law or a bound, as floats of shape (m,) at a point
    or (m, B) on the B lanes of t (B,); a constant is broadcast."""
    if isinstance(t, np.ndarray):
        u = np.empty((m, t.size))
        u[:] = np.reshape(v, (m, -1))
        return u
    u = np.asarray(v, dtype=float)
    return u if u.ndim else u.reshape(1)


def phase_law(prob, j):
    """Phase j's control law as u(t, x, p=None): (m,) at a point, (m, B) on
    B lanes, t of shape (B,) and x and p of shape (n, B)."""
    law, kind, m = prob.phases[j].law, prob.phases[j].law_kind, prob.m
    if kind == "constant":
        return lambda t, x, p=None: _shaped(law(t), t, m)
    if kind == "state":
        return lambda t, x, p=None: _shaped(law(t, x), t, m)

    def control(t, x, p=None):
        if p is None:
            raise MissingCostate(
                f"{prob.name}: phase {j} law needs the costate")
        return _shaped(law(t, x, p), t, m)
    return control


def phase_feasibility(prob, j):
    """Phase j's control-box margin as m(t, x, p=None): (m,) at a point,
    (m, B) on B lanes."""
    ph, m, law = prob.phases[j], prob.m, phase_law(prob, j)

    def margin(t, x, p=None):
        u = law(t, x, p)
        return np.minimum(u - _shaped(ph.lower(t), t, m),
                          _shaped(ph.upper(t), t, m) - u)
    return margin


def phase_flow(prob, j):
    """Phase j's flow F(t, z) of the sweep state: z = x and F = f in Case 1,
    z = (x, p) and F = (f, -p f_x) in Case 2.  It takes one point, or B
    lanes: t of shape (B,) and z of shape (d, B).

    The callbacks receive arrays either way.  At a Case-2 point with a
    C-ordered f_x, -p f_x is summed on Python floats: each column in order
    from +0.0, as ``np.einsum`` sums it there, so its bits and its signed
    zeros are einsum's (``test_case2_point_flow_is_einsums``), and F is one
    array of f's values and those sums.  Lanes, and an f_x of another
    layout, whose einsum may sum in another order, keep einsum.
    """
    n, f, f_x, m = prob.n, prob.f, prob.f_x, prob.m
    kind, raw, law = prob.phases[j].law_kind, prob.phases[j].law, \
        phase_law(prob, j)
    if prob.case == 1:
        # the law called straight through _shaped, one frame less per call
        if kind == "constant":
            return lambda t, z: f(z, _shaped(raw(t), t, m))
        if kind == "state":
            return lambda t, z: f(z, _shaped(raw(t, z), t, m))
        return lambda t, z: f(z, law(t, z))   # refuses p = None by name

    def flow(t, z):
        x, p = z[:n], z[n:]
        u = law(t, x, p)
        fx = f_x(x, u)
        if z.ndim == 1 and isinstance(fx, np.ndarray) \
                and fx.flags.c_contiguous:
            costate, dp = p.tolist(), []
            for column in zip(*fx.tolist()):
                total = 0.0
                for a, b in zip(costate, column):
                    total += a * b
                dp.append(-total)
            return np.array([*np.asarray(f(x, u)).tolist(), *dp])
        dp = -np.einsum("i...,ij...->j...", p, fx)
        return np.concatenate((f(x, u), dp))
    return flow


def phase_jacobian(prob, j):
    """Phase j's flow Jacobian at M points: J(t, z) of shape (d, d, M) for
    t of shape (M,) and z of shape (d, M), J[..., i] = dF/dz(t_i, z_i).

    It comes from the closed loop's f_x + f_u law_x (Case 1, f_x alone
    under a constant law) or case2_derivs (Case 2) in one call.  A phase
    without them takes a central difference of F with step FD_STEP max(1,
    |z_i|) in each z_i: one flow call on 2 d M lanes, which refuses a flow
    without the lane axis by name.  A result of another shape than (d, d,
    M) raises ValueError.
    """
    n, derivs, ph = prob.n, prob.case2_derivs, prob.phases[j]
    if prob.case == 1 and (ph.law_x is not None or ph.law_kind == "constant"):
        law, f_x, f_u = phase_law(prob, j), prob.f_x, prob.f_u

        def batched(t, z):
            u = law(t, z)
            J = np.asarray(f_x(z, u), dtype=float)
            return J if ph.law_kind == "constant" else J + np.einsum(
                "im...,mj...->ij...", f_u(z, u), np.atleast_2d(ph.law_x(t, z)))
    elif prob.case == 2 and derivs is not None:
        batched = lambda t, z: derivs(j, t, z[:n], z[n:])
    else:
        flow = phase_flow(prob, j)

        def batched(t, z):
            # lane (sign, i, m) is point m with z_i moved by +h or -h
            d = len(z)
            h = FD_STEP * np.maximum(1.0, np.abs(z))
            step = np.eye(d)[:, :, None] * h
            lanes = (z[:, None, None]
                     + np.stack((step, -step), axis=1)).reshape(d, -1)
            try:
                F = flow(np.tile(t, 2 * d), lanes)
            except ValueError as exc:   # e.g. np.array([1.0, u[0]]) on lanes
                raise ValueError(f"{prob.name}: phase {j}'s flow fails on "
                                 f"lanes ({exc}): {_LANE_AXIS}") from exc
            F = lane_shaped(prob, f"phase {j}'s flow", F, lanes.shape)
            F = F.reshape(d, 2, d, -1)
            return (F[:, 0] - F[:, 1]) / (2 * h)

    return lambda t, z: lane_shaped(prob, f"phase {j}'s flow Jacobian",
                                    batched(t, z), z.shape[:1] * 2 + t.shape)


_LANE_AXIS = "the model callbacks must keep the lane axis last"


def lane_shaped(prob, what, J, want):
    """J, or a ValueError naming prob and what if J's shape is not want."""
    if np.shape(J) != want:
        raise ValueError(f"{prob.name}: {what} has shape {np.shape(J)}, not "
                         f"{want}: {_LANE_AXIS}")
    return J
