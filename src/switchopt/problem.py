"""Multi-phase control problem abstraction.

A problem is the dynamics f(x, u), a terminal objective C(x(T)), and an
ordered list of phases.  Each phase carries a control law: a constant
vector, a state feedback u = law(t, x), or a state-costate feedback
u = law(t, x, p) (Case 2).  Phase j is active on (s_j, s_{j+1}) once a
switch configuration fixes the s_j.  The sweeps integrate z = x (Case 1)
or z = (x, p) (Case 2); each phase gives its flow F(t, z) and the
Jacobian dF/dz of that flow, at many points per call.

``on_floats`` makes a callback with the array contract from a body written
once for a point's Python floats and for arrays.  Float64 arithmetic on
Python floats rounds as NumPy's does, bit for bit, so a point's flow runs
such bodies on lists from end to end and gives the bits of the arrays.
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
    "validate_config", "on_floats",
]

FD_STEP = 1e-6  # relative step of the central difference, read at call time
# the arguments a law takes by its kind: (t), (t, x) or (t, x, p)
_LAW_ARGS = {"constant": 1, "state": 2, "state_costate": 3}


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
        if self.law_kind not in _LAW_ARGS:
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
    arrays; ``on_floats`` callbacks also give ``phase_flow`` and
    ``phase_law``'s point a body to run on a point's floats.  The x and p
    a sweep gives f and the laws may be read-only views of the stage
    points it records: a callback must neither keep them nor write into
    them.
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


# what float arithmetic raises where NumPy's returns inf or NaN: a division
# by zero, an overflowing ``**`` or ``math`` call, a ``math`` domain error
_FLOAT_FAILS = (ArithmeticError, ValueError)


def on_floats(body):
    """A callback f(x, u), f_x(x, u) or a law (t), (t, x) or (t, x, p) from
    body, which returns a list of floats (nested for f_x) on lists and of
    arrays on arrays: ``np.array(body(...))`` of the arrays it is given.  It
    carries body as ``float_body`` for ``phase_flow``'s point flow and the
    warm start's rollout, which run it on floats (see the module docstring)."""
    def call(*args):
        return np.array(body(*args))
    call.float_body = body
    return call


def _float_body(cb):
    """cb's body on floats when cb is an ``on_floats`` callback itself; a
    function wrapping one, even by ``functools.wraps``, which copies the
    attribute, is called as it is."""
    return None if hasattr(cb, "__wrapped__") else getattr(
        cb, "float_body", None)


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
    B lanes, t of shape (B,) and x and p of shape (n, B).

    ``law.point(t, x, p)`` is u at one point given as a float t and lists x
    and p, as the report's samples give it: the law's ``float_body`` on
    the arguments its kind takes, with the callback's bits (see the module
    docstring), or, where the law has no body or the body's float
    arithmetic raises, u(np.float64(t), np.array(x), np.array(p)).
    """
    law, m = prob.phases[j].law, prob.m
    takes, body = _LAW_ARGS[prob.phases[j].law_kind], _float_body(law)

    def control(t, x, p=None):
        if p is None and takes == 3:
            raise MissingCostate(
                f"{prob.name}: phase {j} law needs the costate")
        return _shaped(law(*(t, x, p)[:takes]), t, m)

    def point(t, x, p):   # calls law, not control: no cycle for the GC
        if body is not None:
            try:
                return body(*(t, x, p)[:takes])
            except _FLOAT_FAILS:
                pass
        t = np.float64(t)
        return _shaped(law(*(t, np.array(x), np.array(p))[:takes]), t, m)
    control.point = point
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

    ``flow.point(t, z)`` is F at a point as a list, which a sweep stores.
    When law, f and (Case 2) f_x all carry a ``float_body``, it is their
    bodies' chain on the list ``z.tolist()``, with the callbacks' bits (see
    the module docstring), -p f_x summed over each column in order from
    +0.0 as ``np.einsum`` sums it at a point (its bits and signed zeros:
    ``test_case2_point_flow_is_einsums``), and F at a point is ``np.array``
    of it.  The point is one of three closures, chosen by law kind when
    the flow is built: Case 2, a Case-1 state law or a constant one, which
    calls its law with the arguments it takes.  Lanes, a point where a
    body's float arithmetic raises, and a flow without those bodies, whose
    point is the ``tolist`` of F, take the callbacks on arrays.
    """
    n, f, f_x, case2 = prob.n, prob.f, prob.f_x, prob.case == 2
    kind, law = prob.phases[j].law_kind, phase_law(prob, j)
    state, costate = kind != "constant", kind == "state_costate"
    if case2:
        def arrays(t, z):
            x, p = z[:n], z[n:]
            u = law(t, x, p)
            dp = -np.einsum("i...,ij...->j...", p, f_x(x, u))
            return np.concatenate((f(x, u), dp))
    else:
        arrays = lambda t, z: f(z, law(t, z))   # refuses p = None by name
    law_b, f_b, fx_b = map(_float_body, (prob.phases[j].law, f, f_x))
    if law_b is None or f_b is None or (fx_b is None if case2 else costate):
        arrays.point = lambda t, z: arrays(t, z).tolist()
        return arrays

    if case2:
        def point(t, z):
            try:
                zl = z.tolist()
                x, p = zl[:n], zl[n:]
                u = law_b(t, x, p) if costate else law_b(t, x) if state \
                    else law_b(t)
                dp = []
                for column in zip(*fx_b(x, u)):
                    total = 0.0
                    for a, b in zip(p, column):
                        total += a * b
                    dp.append(-total)
                return f_b(x, u) + dp
            except _FLOAT_FAILS:
                return arrays(t, z)
    elif state:
        def point(t, z):
            try:
                x = z.tolist()
                return f_b(x, law_b(t, x))
            except _FLOAT_FAILS:
                return arrays(t, z)
    else:
        def point(t, z):
            try:
                return f_b(z.tolist(), law_b(t))
            except _FLOAT_FAILS:
                return arrays(t, z)
    flow = lambda t, z: np.array(point(t, z)) if z.ndim == 1 else arrays(t, z)
    flow.point = point
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
