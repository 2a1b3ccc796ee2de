"""Adaptive Dormand-Prince (4,5) integration of piecewise-smooth ODE systems.

The right-hand side may change discontinuously at a known, ordered list of
breakpoints.  Integration is hard-restarted at every breakpoint: no accepted
step straddles a segment boundary and the step-size controller is reset, so
fifth-order accuracy is retained on each smooth piece.  Backward integration
is implemented by time reflection, giving a single forward code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .exceptions import NonFiniteState, StepLimitExceeded, StepUnderflow

__all__ = [
    "IntegratorSettings",
    "PiecewiseOde",
    "DenseTrajectory",
    "integrate_piecewise",
    "integrate_with_quadrature",
]

# Dormand-Prince 5(4) tableau (7 stages, FSAL).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: coefficients of the embedded error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_ALPHA = 0.7 / 5  # PI controller: proportional exponent
_BETA = 0.4 / 5   # PI controller: integral exponent
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_H_INIT = 1e-3    # first trial step of every segment
_H_MIN = 1e-14    # below this step size a segment gives up


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances and step budget for the adaptive integrator."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-8
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class PiecewiseOde:
    """ODE whose right-hand side is selected by the active segment.

    ``segments`` is the ordered breakpoint list; segment j spans
    [segments[j], segments[j+1]] and ``rhs(j, t, x)`` is only evaluated
    with t inside that closed interval.

    ``segments`` of shape (nseg+1, B) describes B lanes for
    ``lanes.integrate_lanes``: column b holds lane b's breakpoints, and
    ``rhs`` takes t of shape (B,) and states of shape (dim, B).
    """

    dim: int
    segments: Sequence[float]
    rhs: Callable[[int, float, np.ndarray], np.ndarray]

    def __post_init__(self):
        seg = np.asarray(self.segments, dtype=float)
        if seg.ndim not in (1, 2) or len(seg) < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.diff(seg, axis=0) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "segments", seg)


@dataclass
class DenseTrajectory:
    """Integration output: samples plus segment-boundary states.

    ``step_times`` holds the times of the accepted-step nodes, segment
    starts included; the samples are a Hermite re-interpolation of those
    nodes at the requested times, intended for reports and plots.
    ``steps`` counts the step attempts (accepted, rejected and non-finite)
    charged against ``IntegratorSettings.max_steps``.

    ``nodes`` holds the nodes in the order integrated, each (t, y, K, h):
    K is the (7, dim) stage array and h the length of the accepted step
    that ends at the node, so that K[6] = rhs(j, t, y).  A segment's first
    node has h = 0 and K = rhs(j, t, y)[None].  For a backward integration
    t is reflected time.
    """

    sample_times: np.ndarray
    sample_states: np.ndarray
    breakpoint_states: list[np.ndarray]
    steps: int = 0
    step_times: np.ndarray = field(repr=False, default=None)
    nodes: list = field(repr=False, default=None)


def _integrate_segment(rhs, j, t0, t1, y0, settings, nodes, budget):
    """Integrate dy/dt = rhs(j, t, y) over [t0, t1], appending accepted nodes.

    Returns (y_end, steps_used).  ``nodes`` receives the (t, y, K, h) of
    each accepted step (see ``DenseTrajectory``), and (t0, y0, rhs(j, t0,
    y0)[None], 0.0) first.  No RHS call warns about overflow
    or division: an attempt with a non-finite stage or state, tested once
    after all six stages, halves the step, down to ``NonFiniteState`` at
    _H_MIN, and a non-finite first call raises it.
    """
    t, y = t0, np.array(y0, dtype=float)
    h = min(_H_INIT, t1 - t0)
    err_prev = 1.0
    steps = 0
    k = np.empty((7, y.size))
    k_cols = [k[:i].T for i in range(7)]
    abs_y = np.abs(y)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = rhs(j, t, y)
        if not np.isfinite(k1).all():
            raise NonFiniteState(f"non-finite derivative at t={t}")
        nodes.append((t, y, k1.copy()[None], 0.0))

        while t < t1:
            if steps >= budget:
                raise StepLimitExceeded(f"exceeded {settings.max_steps} steps")
            clipped = h >= t1 - t
            h_try = t1 - t if clipped else h

            k[0] = k1
            for i in range(1, 7):
                k[i] = rhs(j, t + _C[i] * h_try,
                           y + h_try * (k_cols[i] @ _A[i]))
            y_new = y + h_try * (_B5 @ k)

            steps += 1
            if not (np.isfinite(k[1:]).all() and np.isfinite(y_new).all()):
                h = 0.5 * h_try
                if h < _H_MIN:
                    raise NonFiniteState(f"non-finite state near t={t}")
                continue

            abs_new = np.abs(y_new)
            w = (h_try * (_E @ k) / (settings.abs_tol + settings.rel_tol
                                     * np.maximum(abs_y, abs_new)))
            err = math.sqrt(float(np.add.reduce(w * w)) / w.size)
            if err <= 1.0:
                t = t1 if clipped else t + h_try
                y, abs_y = y_new, abs_new
                K = k.copy()  # the next attempt overwrites k
                k1 = K[6]     # FSAL
                nodes.append((t, y, K, h_try))
                fac = _FAC_MAX if err == 0.0 else _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA
                err_prev = max(err, 1e-10)
                h = h_try * min(_FAC_MAX, max(_FAC_MIN, fac))
            else:
                fac = max(_FAC_MIN, _SAFETY * err ** (-_ALPHA))
                h = h_try * min(1.0, fac)
                if h < _H_MIN:
                    raise StepUnderflow(
                        f"step size {h:.3e} below h_min at t={t}; "
                        "the problem may be stiff or blowing up"
                    )
    return y, steps


def _hermite_resample(nodes, sample_times):
    """Cubic Hermite interpolation of nodes (t, y, K, ...) at given times,
    with dy/dt = K[-1] at each node.

    ``np.float_power`` is the C ``pow`` of a float64 scalar ``** 2``; an
    array ``** 2`` multiplies instead, which can differ in the last bit.
    """
    times = np.array([n[0] for n in nodes])
    states = np.array([n[1] for n in nodes])
    derivs = np.array([n[2][-1] for n in nodes])
    idx = np.searchsorted(times, sample_times, side="right") - 1
    idx = np.clip(idx, 0, times.size - 2)
    h = times[idx + 1] - times[idx]
    dup = h <= 0  # duplicated node at a restart
    s = (sample_times - times[idx]) / np.where(dup, 1.0, h)
    h00 = (1 + 2 * s) * np.float_power(1 - s, 2)
    h10 = s * np.float_power(1 - s, 2)
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    out = (h00[:, None] * states[idx] + h01[:, None] * states[idx + 1]
           + h[:, None] * (h10[:, None] * derivs[idx]
                           + h11[:, None] * derivs[idx + 1]))
    out[dup] = states[idx[dup] + 1]
    return times, out


def _reflect(ode: PiecewiseOde) -> PiecewiseOde:
    a, b = ode.segments[0], ode.segments[-1]
    mirrored = (a + b) - ode.segments[::-1]
    nseg = len(ode.segments) - 1

    def rhs(j, t, x):
        return -ode.rhs(nseg - 1 - j, (a + b) - t, x)

    return PiecewiseOde(dim=ode.dim, segments=mirrored, rhs=rhs)


def integrate_piecewise(ode, x_start, direction="forward", settings=None,
                        sample_times=None):
    """Integrate a piecewise ODE across all segments with hard restarts.

    ``direction`` is "forward" (from segments[0]) or "backward" (from
    segments[-1], realized by time reflection).  The returned trajectory is
    always expressed in original time: the states are resampled at
    ``sample_times`` (default: the two ends of the interval), in the order
    given, and breakpoint_states[i] is the state at ode.segments[i].
    """
    settings = settings or IntegratorSettings()
    x_start = np.asarray(x_start, dtype=float)
    if x_start.size != ode.dim:
        raise ValueError(f"x_start has dimension {x_start.size}, expected {ode.dim}")
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")

    work = _reflect(ode) if direction == "backward" else ode
    nodes: list[tuple] = []
    bp_states = [x_start.copy()]
    y = x_start
    budget = settings.max_steps
    used = 0
    for j in range(len(work.segments) - 1):
        y, steps = _integrate_segment(
            work.rhs, j, work.segments[j], work.segments[j + 1], y, settings,
            nodes, budget - used)
        used += steps
        bp_states.append(y.copy())

    a, b = ode.segments[0], ode.segments[-1]
    samp_t = np.asarray([a, b] if sample_times is None else sample_times,
                        dtype=float)
    backward = direction == "backward"
    times, samp_x = _hermite_resample(
        nodes, (a + b) - samp_t if backward else samp_t)
    if backward:
        times = ((a + b) - times)[::-1]
        bp_states = bp_states[::-1]

    return DenseTrajectory(
        sample_times=samp_t, sample_states=samp_x,
        breakpoint_states=bp_states, steps=used, step_times=times,
        nodes=nodes)


def integrate_with_quadrature(ode, x_start, integrand, direction="forward",
                              settings=None, sample_times=None):
    """Integrate the ODE while accumulating a scalar quadrature state.

    Returns (trajectory, value) where value = integral of integrand(j, t, x)
    over the full interval (with respect to increasing t, regardless of the
    traversal direction).  The quadrature is one more component of the
    state and enters the error test like the others.  The gradient sweeps
    do not use it; the tests integrate the paper's dC/dT quadrature with
    it as an oracle.
    """
    def rhs(j, t, z):
        dx = ode.rhs(j, t, z[:-1])
        return np.append(dx, integrand(j, t, z[:-1]))

    aug = PiecewiseOde(dim=ode.dim + 1, segments=ode.segments, rhs=rhs)
    z0 = np.append(np.asarray(x_start, dtype=float), 0.0)
    traj = integrate_piecewise(aug, z0, direction, settings, sample_times)

    if direction == "backward":
        # reflection negates the quadrature rate; start value sits at t = b
        quad = traj.breakpoint_states[-1][-1] - traj.breakpoint_states[0][-1]
    else:
        quad = traj.breakpoint_states[-1][-1]

    traj.sample_states = traj.sample_states[:, :-1]
    traj.breakpoint_states = [s[:-1] for s in traj.breakpoint_states]
    return traj, float(quad)
