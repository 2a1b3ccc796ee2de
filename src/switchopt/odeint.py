"""The Dormand-Prince (4,5) method on piecewise-smooth ODE systems.

The right-hand side may change discontinuously at a known, ordered list of
breakpoints.  Integration is hard-restarted at every breakpoint: no accepted
step straddles a segment boundary and the step-size controller is reset, so
fifth-order accuracy is retained on each smooth piece.

The module holds the whole method, and no other reads its tableau: the
scalar loop, the lockstep loop of B lanes, and the fold of accepted steps
into the transition matrices of the reverse pass.  Both loops record a
segment's accepted steps as arrays (t, h, y, K), the step axis first.
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
    "integrate_lanes",
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
_Q = 4            # order of the embedded solution b5 - e behind the estimate
_STAGES = len(_C)
# the stages that enter y_{n+1}; the last one, FSAL, enters only the error
_WEIGHTED = int(np.flatnonzero(_B5)[-1]) + 1
# _A_ROWS[i, l] = a_li, the weight of stage i in stage l > i
_A_ROWS = np.zeros((_WEIGHTED, _WEIGHTED))
for _l in range(1, _WEIGHTED):
    _A_ROWS[:_l, _l] = _A[_l]

_SAFETY = 0.9
_ALPHA = 0.7 / (_Q + 1)  # PI controller: proportional exponent
_BETA = 0.4 / (_Q + 1)   # PI controller: integral exponent
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_H_INIT = 1e-3    # first trial step of every segment
_H_MIN = 1e-14    # below this step size a segment gives up
_FOLD_BLOCK = 256  # steps per fold: bounds its arrays on many lanes


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
    ``integrate_lanes``: column b holds lane b's breakpoints, and
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

    ``step_times`` holds the times of the nodes, each accepted step's
    start and each segment's end; the samples are a Hermite
    re-interpolation of those nodes at the requested times, intended for
    reports and plots.  ``steps`` counts the step attempts (accepted,
    rejected and non-finite) charged against ``IntegratorSettings.max_steps``.

    ``records[j]`` holds segment j's N accepted steps as arrays (t, h, y,
    K) of shapes (N,), (N,), (N, dim), (N, stages, dim): step n starts at
    (t[n], y[n]) with length h[n], K[n, 0] = rhs(j, t[n], y[n]), and
    K[n, -1] is the derivative at its end (FSAL).
    """

    sample_times: np.ndarray
    sample_states: np.ndarray
    breakpoint_states: list[np.ndarray]
    steps: int = 0
    step_times: np.ndarray = field(repr=False, default=None)
    records: list = field(repr=False, default=None)


def _integrate_segment(rhs, j, t0, t1, y0, settings, budget):
    """Integrate dy/dt = rhs(j, t, y) over [t0, t1].

    Returns (y_end, steps_used, record), the record of its N accepted
    steps as ``DenseTrajectory`` holds it.  No RHS call warns about overflow
    or division: an attempt with a non-finite stage or state, tested once
    after all its stages, halves the step, down to ``NonFiniteState`` at
    _H_MIN, and a non-finite first call raises it.
    """
    t, y = t0, np.array(y0, dtype=float)
    h = min(_H_INIT, t1 - t0)
    err_prev = 1.0
    steps = 0
    record = []
    k = np.empty((_STAGES, y.size))
    k_cols = [k[:i].T for i in range(_STAGES)]
    abs_y = np.abs(y)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = rhs(j, t, y)
        if not np.isfinite(k1).all():
            raise NonFiniteState(f"non-finite derivative at t={t}")

        while t < t1:
            if steps >= budget:
                raise StepLimitExceeded(f"exceeded {settings.max_steps} steps")
            clipped = h >= t1 - t
            h_try = t1 - t if clipped else h

            k[0] = k1
            for i in range(1, _STAGES):
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
                K = k.copy()  # the next attempt overwrites k
                record.append((t, h_try, y, K))
                t = t1 if clipped else t + h_try
                y, abs_y = y_new, abs_new
                k1 = K[-1]    # FSAL
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
    return y, steps, tuple(np.array(a) for a in zip(*record))


def _segment_nodes(record, t_end, y_end):
    """(times, states, derivatives) of the nodes of a scalar segment
    record: each step's start, then the end (t_end, y_end) with FSAL."""
    t, _, y, K = record
    return (np.append(t, t_end), np.vstack((y, y_end)),
            np.vstack((K[:, 0], K[-1, -1])))


def _hermite_resample(times, states, derivs, sample_times):
    """Cubic Hermite interpolation at ``sample_times`` of the nodes at
    ``times`` (sorted, a restart's node duplicated) with the given states
    and derivatives.

    ``np.float_power`` is the C ``pow`` of a float64 scalar ``** 2``; an
    array ``** 2`` multiplies instead, which can differ in the last bit.
    """
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
    return out


def _integrate_segments(segment_loop, rhs, segments, y, settings):
    """Run ``segment_loop`` over each segment in turn under one
    ``max_steps`` budget.  Returns (breakpoint_states, steps, records)."""
    bp_states, records, used = [y], [], 0
    for j in range(len(segments) - 1):
        y, steps, record = segment_loop(
            rhs, j, segments[j], segments[j + 1], y, settings,
            settings.max_steps - used)
        used = used + steps
        bp_states.append(y)
        records.append(record)
    return bp_states, used, records


def integrate_piecewise(ode, x_start, *, settings=None, sample_times=None):
    """Integrate a piecewise ODE forward across all segments with hard
    restarts.

    The states are resampled at ``sample_times`` (default: the two ends of
    the interval), in the order given, and breakpoint_states[i] is the
    state at ode.segments[i].
    """
    settings = settings or IntegratorSettings()
    x_start = np.asarray(x_start, dtype=float)
    if x_start.size != ode.dim:
        raise ValueError(f"x_start has dimension {x_start.size}, expected {ode.dim}")

    bp_states, used, records = _integrate_segments(
        _integrate_segment, ode.rhs, ode.segments, x_start.copy(), settings)

    samp_t = np.asarray([ode.segments[0], ode.segments[-1]]
                        if sample_times is None else sample_times, dtype=float)
    times, states, derivs = (np.concatenate(a) for a in zip(*map(
        _segment_nodes, records, ode.segments[1:], bp_states[1:])))
    return DenseTrajectory(
        sample_times=samp_t,
        sample_states=_hermite_resample(times, states, derivs, samp_t),
        breakpoint_states=bp_states, steps=used, step_times=times,
        records=records)


def integrate_with_quadrature(ode, x_start, integrand, *, settings=None,
                              sample_times=None):
    """Integrate the ODE while accumulating a scalar quadrature state.

    Returns (trajectory, value) where value = integral of integrand(j, t, x)
    over the full interval.  The quadrature is one more component of the
    state and enters the error test like the others.  The gradient sweeps
    do not use it; the tests integrate the paper's dC/dT quadrature with
    it as an oracle.
    """
    def rhs(j, t, z):
        dx = ode.rhs(j, t, z[:-1])
        return np.append(dx, integrand(j, t, z[:-1]))

    aug = PiecewiseOde(dim=ode.dim + 1, segments=ode.segments, rhs=rhs)
    z0 = np.append(np.asarray(x_start, dtype=float), 0.0)
    traj = integrate_piecewise(aug, z0, settings=settings,
                               sample_times=sample_times)
    quad = traj.breakpoint_states[-1][-1]
    traj.sample_states = traj.sample_states[:, :-1]
    traj.breakpoint_states = [s[:-1] for s in traj.breakpoint_states]
    return traj, float(quad)


def _lane_error(kind, failing, message):
    """``kind`` for the lowest failing lane, its message from message(b)."""
    b = int(np.argmax(failing))
    return kind(f"lane {b}: {message(b)}")


def _integrate_lane_segment(rhs, j, t0, t1, y0, settings, budget):
    """``_integrate_segment`` for B lanes in lockstep.

    t0, t1 and budget have shape (B,) and y0 shape (dim, B).  Every lane
    applies the scalar rules with its own t, h, error history and budget.
    The stages are held lane-major, (B, stages, dim), so that each lane's
    tableau products are the scalar loop's own BLAS calls: given the same
    RHS values, a lane repeats its scalar integration bit for bit, which
    keeps step counts equal where the error estimate is rounding noise.
    A lane that has reached t1 is frozen, trying steps of length 0, until
    all have.
    The first failure raises, naming its lane.  Returns (y_end,
    steps_used, record): the steps per lane, and the scalar loop's record
    with a lane axis after the step axis, over the I attempts in which
    some lane accepted a step: t and h (I, B), y (I, B, dim), K (I, B,
    stages, dim).  A lane that accepted none there has h = 0 and K = 0,
    so that its step folds to the identity even if it went non-finite.
    """
    def f(t, y):
        return rhs(j, t, y.T).T

    t, y = t0, np.array(y0.T, dtype=float)
    h = np.minimum(_H_INIT, t1 - t0)
    err_prev = np.ones(t.shape)
    steps = np.zeros(t.shape, dtype=int)
    record = []
    k = np.empty((t.size, _STAGES, y.shape[1]))
    k_cols = [k[:, :i].transpose(0, 2, 1) for i in range(_STAGES)]
    active = t < t1

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = f(t, y)
        bad = ~np.isfinite(k1).all(axis=1)
        if bad.any():
            raise _lane_error(NonFiniteState, bad,
                              lambda b: f"non-finite derivative at t={t[b]}")

        while active.any():
            over = active & (steps >= budget)
            if over.any():
                raise _lane_error(StepLimitExceeded, over, lambda b:
                                  f"exceeded {settings.max_steps} steps")
            clipped = h >= t1 - t
            h_try = np.where(active, np.where(clipped, t1 - t, h), 0.0)
            h_col = h_try[:, None]

            k[:, 0] = k1
            for i in range(1, _STAGES):
                k[:, i] = f(t + _C[i] * h_try, y + h_col * (k_cols[i] @ _A[i]))
            y_new = y + h_col * (_B5 @ k)
            failed = active & ~(np.isfinite(k[:, 1:]).all(axis=(1, 2))
                                & np.isfinite(y_new).all(axis=1))
            steps += active

            w = (h_col * (_E @ k) / (settings.abs_tol + settings.rel_tol
                                     * np.maximum(np.abs(y), np.abs(y_new))))
            err = np.sqrt(np.add.reduce(w * w, axis=1) / w.shape[1])
            tested = active & ~failed
            accept = tested & (err <= 1.0)
            reject = tested & ~accept
            # float_power is the C pow of the scalar loop's float ** float
            shrink = _SAFETY * np.float_power(err, -_ALPHA)
            fac = np.where(err == 0.0, _FAC_MAX,
                           shrink * np.float_power(err_prev, _BETA))
            h = np.where(accept, h_try * np.minimum(
                _FAC_MAX, np.maximum(_FAC_MIN, fac)), h)
            h = np.where(reject, h_try * np.minimum(
                1.0, np.maximum(_FAC_MIN, shrink)), h)
            h = np.where(failed, 0.5 * h_try, h)
            if accept.any():
                record.append((t, np.where(accept, h_try, 0.0), y,
                               np.where(accept[:, None, None], k, 0.0)))

            t = np.where(accept, np.where(clipped, t1, t + h_try), t)
            y = np.where(accept[:, None], y_new, y)
            k1 = np.where(accept[:, None], k[:, -1], k1)   # FSAL
            err_prev = np.where(accept, np.maximum(err, 1e-10), err_prev)

            dead = (failed | reject) & (h < _H_MIN)
            if dead.any():
                b = int(np.argmax(dead))
                if failed[b]:
                    raise _lane_error(NonFiniteState, dead, lambda b:
                                      f"non-finite state near t={t[b]}")
                raise _lane_error(StepUnderflow, dead, lambda b: (
                    f"step size {h[b]:.3e} below h_min at t={t[b]}; "
                    "the problem may be stiff or blowing up"))
            active = t < t1
    return y.T, steps, tuple(np.array(a) for a in zip(*record))


def integrate_lanes(ode, y_start, settings=None):
    """Integrate the B lanes of ``ode`` forward in lockstep, segment by
    segment.

    ``ode.segments`` has shape (nseg+1, B) and ``y_start`` shape (dim, B).
    All lanes work on the same segment j, so every RHS call evaluates
    segment j's law for all of them, and the interpreter's cost per call
    is paid once per B lanes; within it each lane steps exactly as
    ``integrate_piecewise`` would, under its own ``max_steps`` budget.
    Returns (breakpoint_states, steps, records): breakpoint_states[i] is
    the (dim, B) state at ode.segments[i], steps the (B,) step attempts of
    each lane, and records[j] segment j's accepted steps as
    ``_integrate_lane_segment`` records them, (I, B) steps.
    """
    settings = settings or IntegratorSettings()
    y = np.array(y_start, dtype=float)
    if ode.segments.ndim != 2:
        raise ValueError("lanes need segments of shape (nseg+1, B)")
    if y.shape != (ode.dim, ode.segments.shape[1]):
        raise ValueError(f"y_start has shape {y.shape}, expected "
                         f"{(ode.dim, ode.segments.shape[1])}")
    return _integrate_segments(_integrate_lane_segment, ode.rhs,
                               ode.segments, y, settings)


def _fold_steps(jacobian, T, tau, h, y, K):
    """D = G - I, h.shape + (d, d), for the transition matrices G =
    dz_{n+1}/dz_n of the steps of a record (tau, h, y, K) of any leading
    shape, of dz/dtau = T F(tau T, z), T broadcast against h.  The stage
    points are rebuilt from the first _WEIGHTED - 1 stages by the forward
    loops' own tableau products, _FOLD_BLOCK steps at a time, and
    jacobian(t, Y) gives dF/dz at their flat times t (M,) and points Y
    (M, d) as (M, d, d).

    Walking the stages back, P_i = b_i I + sum_{l>i} a_li Theta_l and
    Theta_i = h T P_i J_i; then D = sum_i Theta_i.  So the reverse pass's
    Lam_i = lam_{n+1} P_i and theta_i = lam_{n+1} Theta_i, and
    lam_n = lam_{n+1} + lam_{n+1} D.  D is kept apart from I so that its
    O(h) entries are not rounded against 1.  The stages past _WEIGHTED
    have weight 0 in z_{n+1}.
    """
    shape, d, S = h.shape, y.shape[-1], _WEIGHTED
    T = np.broadcast_to(T, shape).reshape(-1)
    tau, h = tau.reshape(-1), h.reshape(-1)
    y, K = y.reshape(-1, d), K.reshape((-1,) + K.shape[-2:])
    D, eye = np.empty((h.size, d, d)), np.eye(d)
    for a in range(0, h.size, _FOLD_BLOCK):
        at = slice(a, a + _FOLD_BLOCK)
        hb, N = h[at], h[at].size
        Y = np.empty((N, S, d))
        Y[:, 0] = y[at]
        for i in range(1, S):
            Y[:, i] = y[at] + hb[:, None] * (
                K[at, :i].transpose(0, 2, 1) @ _A[i])
        t = ((tau[at] + np.array(_C[:S])[:, None] * hb) * T[at]).T
        hTJ = (hb * T[at])[:, None, None, None] * jacobian(
            t.reshape(-1), Y.reshape(-1, d)).reshape(N, S, d, d)
        theta = np.zeros((S, N * d * d))
        for i in range(S - 1, -1, -1):
            P = (_A_ROWS[i] @ theta).reshape(N, d, d) + _B5[i] * eye
            theta[i] = (P @ hTJ[:, i]).reshape(-1)
        D[at] = theta.sum(axis=0).reshape(N, d, d)
    return D.reshape(shape + (d, d))
