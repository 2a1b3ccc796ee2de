"""Lockstep lanes: B fixed-time Case-1 configurations swept as one.

The lanes of a forward sweep are integrated by one masked,
segment-synchronous DOPRI5 loop.  Each lane keeps its own t, h, error
history, step budget and breakpoints, and applies exactly the rules of the
scalar loop in ``odeint``, so it takes the steps of the scalar sweep of its
configuration.  All lanes work on the same segment, so every RHS call
evaluates one phase's law for all of them, and the interpreter's cost per
call is paid once per B lanes.  The loop records the stages of each
iteration in which a lane accepts, and the backward sweep is the reverse
pass of those iterations, the discrete adjoint that
``gradients.backward_sweep`` runs for one configuration: each iteration
folds into one transition matrix per lane by the same ``gradients._fold``.
Arrays carry the lane axis last: states (n, B), times (B,).  The model
callbacks must accept that layout, which a problem declares with
``ProblemDef.lanes``; every built-in problem does.

``optimizer.derivative_profile`` imports this module on first use, so that
importing the package does not compile it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import NonFiniteState, StepLimitExceeded, StepUnderflow
from .gradients import GradientBundle, _fold, _resolved, _switch_jumps
from .odeint import _A, _ALPHA, _B5, _BETA, _C, _E, _FAC_MAX, _FAC_MIN, \
    _H_INIT, _H_MIN, _SAFETY, IntegratorSettings, PiecewiseOde
from .problem import horizon, lane_law, validate_config

__all__ = [
    "integrate_lanes",
    "lane_flow",
    "LaneRecord",
    "forward_lanes",
    "backward_lanes",
    "evaluate_lanes",
]


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _lane_error(kind, failing, message):
    """``kind`` for the lowest failing lane, its message from message(b)."""
    b = int(np.argmax(failing))
    return kind(f"lane {b}: {message(b)}")


def _integrate_lane_segment(rhs, j, t0, t1, y0, settings, budget):
    """``_integrate_segment`` for B lanes in lockstep.

    t0, t1 and budget have shape (B,) and y0 shape (dim, B).  Every lane
    applies the scalar rules with its own t, h, error history and budget.
    The stages are held lane-major, (B, 7, dim), so that each lane's
    tableau products are the scalar loop's own BLAS calls: given the same
    RHS values, a lane repeats its scalar integration bit for bit, which
    keeps step counts equal where the error estimate is rounding noise.
    A lane that has reached t1 is frozen, trying steps of length 0, until
    all have.
    The first failure raises, naming its lane.  Returns (y_end,
    steps_used, record): the steps per lane, and (t, h, y, K) of each
    attempt in which some lane accepted a step.  t (B,) and the lane-major
    y (B, dim) are where it started, h (B,) the step lengths and K (B, 5,
    dim) stages 0-4, the ones a reverse pass reads.  A lane that accepted
    none has h = 0 and K = 0, so that its step folds to the identity even
    when its attempt went non-finite.
    """
    def f(t, y):
        return rhs(j, t, y.T).T

    t, y = t0, np.array(y0.T, dtype=float)
    h = np.minimum(_H_INIT, t1 - t0)
    err_prev = np.ones(t.shape)
    steps = np.zeros(t.shape, dtype=int)
    record = []
    k = np.empty((t.size, 7, y.shape[1]))
    k_cols = [k[:, :i].transpose(0, 2, 1) for i in range(7)]
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
            for i in range(1, 7):
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
                               np.where(accept[:, None, None], k[:, :5], 0.0)))

            t = np.where(accept, np.where(clipped, t1, t + h_try), t)
            y = np.where(accept[:, None], y_new, y)
            k1 = np.where(accept[:, None], k[:, 6], k1)
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
    return y.T, steps, record


def integrate_lanes(ode, y_start, settings=None):
    """Integrate the B lanes of ``ode`` forward in lockstep, segment by
    segment.

    ``ode.segments`` has shape (nseg+1, B) and ``y_start`` shape (dim, B).
    All lanes work on the same segment j, so every RHS call evaluates
    segment j's law for all of them; within it each lane steps exactly as
    ``integrate_piecewise`` would, under its own ``max_steps`` budget.
    Returns (breakpoint_states, steps, records): breakpoint_states[i] is
    the (dim, B) state at ode.segments[i], steps the (B,) step attempts of
    each lane, and records[j] segment j's accepted steps as
    ``_integrate_lane_segment`` records them.
    """
    settings = settings or IntegratorSettings()
    y = np.array(y_start, dtype=float)
    if ode.segments.ndim != 2:
        raise ValueError("lanes need segments of shape (nseg+1, B)")
    if y.shape != (ode.dim, ode.segments.shape[1]):
        raise ValueError(f"y_start has shape {y.shape}, expected "
                         f"{(ode.dim, ode.segments.shape[1])}")

    bp_states, records = [y], []
    used = np.zeros(y.shape[1], dtype=int)
    for j in range(len(ode.segments) - 1):
        y, steps, record = _integrate_lane_segment(
            ode.rhs, j, ode.segments[j], ode.segments[j + 1], y, settings,
            settings.max_steps - used)
        used += steps
        bp_states.append(y)
        records.append(record)
    return bp_states, used, records


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

def _require_lanes(prob):
    """Raise ValueError unless the lane sweeps can take ``prob``: callbacks
    that take lanes, Case 1, and an analytic law_x for every state law."""
    if not prob.lanes:
        raise ValueError(f"{prob.name}: lane sweeps need callbacks that take "
                         "lanes, and the problem does not declare lanes")
    if prob.case != 1:
        raise ValueError(f"{prob.name}: lane sweeps take Case-1 problems")
    for j, ph in enumerate(prob.phases):
        if ph.law_kind == "state" and ph.law_x is None:
            raise ValueError(f"{prob.name}: lane sweeps need phase {j}'s "
                             "law_x")


def lane_flow(prob, j):
    """``phase_flow`` of a Case-1 problem on B lanes: F(t, x) of shape
    (n, B).  The model callbacks must take x of shape (n, B)."""
    f, control = prob.f, lane_law(prob, j)
    return lambda t, x: f(x, control(t, x))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class LaneRecord:
    """B sweeps run in lockstep; every array ends in the lane axis."""

    checkpoints: np.ndarray           # (k+2, n, B): x or lam at 0, s_1.., T
    sigma: np.ndarray                 # (k+2, B): switch points in tau units
    T: np.ndarray                     # (B,)
    steps: np.ndarray                 # (B,) integrator step attempts, or
    #                                   the reverse steps of a backward sweep
    objective: Optional[np.ndarray] = None   # (B,), forward sweeps only
    # forward sweeps: per phase, the (tau, h, x, K) of each lockstep
    # iteration in which a lane accepted a step (see _integrate_lane_segment)
    iterations: Optional[list] = None


def forward_lanes(prob, cfgs, settings=None):
    """``forward_sweep`` of the Case-1 configurations ``cfgs`` as the lanes
    of one lockstep integration, without dense samples.  The problem and
    every configuration are checked before any lane is integrated."""
    _require_lanes(prob)
    for cfg in cfgs:
        validate_config(prob, cfg)
    T = np.array([horizon(prob, cfg) for cfg in cfgs])
    sigma = np.column_stack([np.concatenate(([0.0], cfg.s / t, [1.0]))
                             for cfg, t in zip(cfgs, T)])
    flows = _resolved(lane_flow, prob)

    def rhs(j, tau, x):
        return T * flows[j](tau * T, x)

    ode = PiecewiseOde(dim=prob.n, segments=sigma, rhs=rhs)
    states, steps, iterations = integrate_lanes(
        ode, np.repeat(prob.x0[:, None], T.size, axis=1), settings)
    ckpt = np.array(states)
    return LaneRecord(checkpoints=ckpt, sigma=sigma, T=T, steps=steps,
                      objective=np.asarray(prob.C(ckpt[-1]), dtype=float),
                      iterations=iterations)


def backward_lanes(prob, fwd):
    """``backward_sweep`` of the lanes of ``fwd``: the reverse pass of its
    recorded lockstep iterations, each folded by ``gradients._fold`` from
    its recorded stages with one Jacobian call, and no flow or law call; a
    lane whose h is 0 keeps its lam.  It keeps lam at the checkpoints only:
    a fixed-time profile reads only the Hamiltonian jumps."""
    n, B = prob.n, fwd.T.size
    lam = np.array(np.broadcast_to(
        np.reshape(prob.grad_C(fwd.checkpoints[-1]), (n, -1)),
        (n, B)).T)                        # lane-major (B, n) from here on
    costates = [None] * (prob.k + 2)
    costates[-1] = lam.T
    steps = np.zeros(B, dtype=int)
    for j in range(prob.k, -1, -1):
        for tau, h, y, K in reversed(fwd.iterations[j]):
            D = _fold(prob, np.full(B, j), fwd.T, tau, h, y, K)
            lam = lam + (lam[:, None] @ D)[:, 0]
            steps += h > 0.0
        costates[j] = lam.T
    return LaneRecord(checkpoints=np.array(costates), sigma=fwd.sigma,
                      T=fwd.T, steps=steps)


def _lane_dot(a, b):
    """a . b per lane of two (n, B) arrays, by the scalar ``a @ b``'s call."""
    return np.matmul(a.T[:, None, :], b.T[:, :, None])[:, 0, 0]


def evaluate_lanes(prob, cfgs, settings=None):
    """``evaluate_gradient`` of the Case-1 configurations ``cfgs`` from one
    lockstep forward and one lockstep backward sweep.  The bundle's
    objective has shape (B,), d_s shape (k, B), d_p0 and d_T are None, and
    fwd and bwd are the two LaneRecords."""
    fwd = forward_lanes(prob, cfgs, settings)
    bwd = backward_lanes(prob, fwd)
    d_s = _switch_jumps(_resolved(lane_flow, prob), fwd, bwd.checkpoints,
                        _lane_dot)
    return GradientBundle(objective=fwd.objective, d_s=d_s, d_p0=None,
                          d_T=None, fwd=fwd, bwd=bwd)
