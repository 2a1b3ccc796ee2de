"""Objective value and exact derivatives from one forward and one backward sweep.

The derivative of the terminal objective with respect to a switch point is
the jump of the (generalized) Hamiltonian across that switch point, computed
from the costate obtained in a single backward integration.  The derivative
with respect to the initial costate (Case 2) is the second half of the
generalized costate at t = 0, and the derivative with respect to the
terminal time is the integral of the Hamiltonian over the unit-interval
rescaling of time.

All integrations here run on tau in [0, 1] with the horizon T as a dynamics
parameter, for fixed- and free-time problems alike, so the same code path
produces every derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .odeint import IntegratorSettings, PiecewiseOde, integrate_piecewise, \
    integrate_with_quadrature  # noqa: F401 (patched here by perfbench)
from .problem import case2_gradients, generalized_hamiltonian, \
    phase_dynamics, phase_feasibility, phase_law, phase_law_jacobian, \
    validate_config

__all__ = [
    "GeneralizedPoint",
    "TrajectoryRecord",
    "BackwardRecord",
    "GradientBundle",
    "forward_sweep",
    "backward_sweep",
    "evaluate_gradient",
    "free_time_gradient_check",
]

DEFAULT_SAMPLES = 201


@dataclass
class GeneralizedPoint:
    """State/costate values at one switch point of the backward sweep.

    In Case 1 the costate plays the role of y1 and y2 is identically zero.
    """

    x: np.ndarray
    p: Optional[np.ndarray]
    y1: np.ndarray
    y2: np.ndarray


@dataclass
class TrajectoryRecord:
    """Forward-sweep output: dense samples plus switch-point checkpoints."""

    times: np.ndarray                 # physical time at dense samples
    states: np.ndarray                # (n_samples, n)
    costates: Optional[np.ndarray]    # (n_samples, n), Case 2 only
    checkpoint_states: np.ndarray     # (k+2, n) at 0, s_1..s_k, T
    checkpoint_costates: Optional[np.ndarray]
    objective: float
    sigma: np.ndarray                 # switch points in tau units, incl. 0 and 1
    T: float
    steps: int                        # integrator step attempts of the sweep


@dataclass
class BackwardRecord:
    """Backward-sweep output: generalized-costate checkpoints and quadrature."""

    checkpoints: list                 # GeneralizedPoint at 0, s_1..s_k, T
    hamiltonian_integral: float       # integral of H over tau in [0, 1]


@dataclass
class GradientBundle:
    """Objective value and its exact derivatives at one configuration."""

    objective: float
    d_s: np.ndarray
    d_p0: Optional[np.ndarray]
    d_T: Optional[float]
    feasibility_margins: np.ndarray   # worst margin per phase
    hamiltonian_jumps: list           # (left, right) Hamiltonian pairs per s_j


def _horizon(prob, cfg):
    return float(cfg.T) if cfg.T is not None else float(prob.T)


def _tau_breakpoints(prob, cfg):
    T = _horizon(prob, cfg)
    return np.concatenate(([0.0], cfg.s / T, [1.0])), T


def forward_sweep(prob, cfg, settings=None, sample_count=DEFAULT_SAMPLES):
    """Integrate the (generalized) state forward and evaluate the objective."""
    settings = settings or IntegratorSettings()
    validate_config(prob, cfg)
    sigma, T = _tau_breakpoints(prob, cfg)
    n, f, f_x = prob.n, prob.f, prob.f_x
    laws = _resolved(phase_law, prob)

    if prob.case == 1:
        def rhs(j, tau, x):
            return T * f(x, laws[j](tau * T, x))
        z0 = prob.x0
    else:
        def rhs(j, tau, z):
            x, p = z[:n], z[n:]
            u = laws[j](tau * T, x, p)
            dx = f(x, u)
            dp = -p @ np.asarray(f_x(x, u), dtype=float)
            return T * np.concatenate((dx, dp))
        z0 = np.concatenate((prob.x0, cfg.p0))

    ode = PiecewiseOde(dim=z0.size, segments=sigma, rhs=rhs)
    traj = integrate_piecewise(ode, z0, "forward", settings, sample_count)
    ckpt = np.array(traj.breakpoint_states)
    return TrajectoryRecord(
        times=traj.sample_times * T,
        states=traj.sample_states[:, :n],
        costates=traj.sample_states[:, n:] if prob.case == 2 else None,
        checkpoint_states=ckpt[:, :n],
        checkpoint_costates=ckpt[:, n:] if prob.case == 2 else None,
        objective=float(prob.C(ckpt[-1, :n])),
        sigma=sigma,
        T=T,
        steps=traj.steps)


def _resolved(make, prob):
    """One closure per phase, e.g. ``_resolved(phase_law, prob)``."""
    return [make(prob, j) for j in range(prob.k + 1)]


def _case1_costate_rhs(prob, T, laws, jacobians, quadrature):
    """RHS of (x, p) on tau, segment j running laws[j] and jacobians[j];
    with ``quadrature``, plus H = p . f from the same model values."""
    n, f = prob.n, prob.f

    def rhs(j, tau, z):
        t = tau * T
        x, p = z[:n], z[n:2 * n]
        u = laws[j](t, x)
        dx = f(x, u)
        dz = T * np.concatenate((dx, -p @ jacobians[j](t, x, u)))
        return np.concatenate((dz, (p @ dx,))) if quadrature else dz
    return rhs


def _case2_costate_rhs(prob, T, law, gradients):
    """RHS of (x, p, y1, y2, integral of H) on tau for one Case-2 phase."""
    n, f, f_x = prob.n, prob.f, prob.f_x

    def rhs(_j, tau, z):
        t = tau * T
        x, p, y1, y2 = z[:n], z[n:2 * n], z[2 * n:3 * n], z[3 * n:4 * n]
        u = law(t, x, p)
        dx = f(x, u)
        fx = np.asarray(f_x(x, u), dtype=float)
        gx, gp = gradients(t, x, p, y1, y2)
        H = float(y1 @ dx - p @ (fx @ y2))
        return np.concatenate((T * np.concatenate((dx, -p @ fx, -gx, -gp)),
                               (H,)))
    return rhs


def backward_sweep(prob, cfg, fwd, settings=None):
    """Integrate the (generalized) costate backward with checkpoint resets.

    The state (and Case-2 costate) needed along the backward pass is
    re-integrated jointly and reset to the forward checkpoint at each switch
    point, which bounds backward drift per phase.  The Hamiltonian
    quadrature used for the terminal-time derivative rides along as a last
    state component that starts at 0 at the end of each phase.
    """
    settings = settings or IntegratorSettings()
    n = prob.n
    sigma, T = fwd.sigma, fwd.T
    k = prob.k
    grad_T = np.asarray(prob.grad_C(fwd.checkpoint_states[-1]), dtype=float)
    laws = _resolved(phase_law, prob)

    if prob.case == 1:
        y = grad_T.copy()                       # costate p, carried backward
        jacobians = _resolved(phase_law_jacobian, prob)
    else:
        y = np.concatenate((grad_T, np.zeros(n)))  # (y1, y2)
        gradients = [partial(case2_gradients, prob, j) for j in range(k + 1)]

    points = [None] * (k + 2)
    points[k + 1] = _point_from(prob, fwd, k + 1, y)
    quad = 0.0
    for j in range(k, -1, -1):
        # reset the state (and Case-2 costate) to the forward checkpoint
        if prob.case == 1:
            z_end = np.concatenate((fwd.checkpoint_states[j + 1], y, [0.0]))
            # the one-segment ODE below calls its segment 0
            rhs = _case1_costate_rhs(prob, T, laws[j:j + 1],
                                     jacobians[j:j + 1], True)
        else:
            z_end = np.concatenate((fwd.checkpoint_states[j + 1],
                                    fwd.checkpoint_costates[j + 1], y, [0.0]))
            rhs = _case2_costate_rhs(prob, T, laws[j], gradients[j])
        ode = PiecewiseOde(dim=z_end.size, segments=sigma[j:j + 2], rhs=rhs)
        z0 = integrate_piecewise(ode, z_end, "backward",
                                 settings).breakpoint_states[0]
        # backward integration reflects time, so the component holds minus
        # the integral of H over the phase
        quad -= float(z0[-1])
        y = z0[n:-1] if prob.case == 1 else z0[2 * n:-1]
        points[j] = _point_from(prob, fwd, j, y)
    return BackwardRecord(checkpoints=points, hamiltonian_integral=quad)


def _point_from(prob, fwd, idx, y):
    n = prob.n
    x = fwd.checkpoint_states[idx]
    if prob.case == 1:
        return GeneralizedPoint(x=x.copy(), p=None, y1=y.copy(), y2=np.zeros(n))
    return GeneralizedPoint(x=x.copy(), p=fwd.checkpoint_costates[idx].copy(),
                            y1=y[:n].copy(), y2=y[n:].copy())


def _phase_hamiltonian(prob, j, t, pt):
    if prob.case == 1:
        return float(pt.y1 @ phase_dynamics(prob, j, t, pt.x))
    return generalized_hamiltonian(prob, j, t, pt.x, pt.p, pt.y1, pt.y2)


def _worst_margins(prob, fwd):
    """Worst feasibility margin of each phase along the dense samples."""
    tau = fwd.times / fwd.T
    seg = np.clip(np.searchsorted(fwd.sigma, tau, side="right") - 1,
                  0, prob.k)
    worst = np.full(prob.k + 1, np.inf)
    margins = _resolved(phase_feasibility, prob)
    for i, t in enumerate(fwd.times):
        j = seg[i]
        p = fwd.costates[i] if fwd.costates is not None else None
        mrg = margins[j](t, fwd.states[i], p)
        worst[j] = min(worst[j], float(np.min(mrg)))
    return worst


def evaluate_gradient(prob, cfg, settings=None, sample_count=DEFAULT_SAMPLES,
                      with_d_T=None, fwd=None):
    """Objective plus exact gradient w.r.t. switch points, p0, and T.

    ``fwd`` is the forward record of ``cfg`` when it is already computed;
    then only the backward sweep runs, and ``sample_count`` is unused.
    """
    settings = settings or IntegratorSettings()
    if fwd is None:
        fwd = forward_sweep(prob, cfg, settings, sample_count)
    bwd = backward_sweep(prob, cfg, fwd, settings)
    T = fwd.T

    jumps = []
    d_s = np.empty(prob.k)
    for j in range(1, prob.k + 1):
        t = fwd.sigma[j] * T
        left = _phase_hamiltonian(prob, j - 1, t, bwd.checkpoints[j])
        right = _phase_hamiltonian(prob, j, t, bwd.checkpoints[j])
        jumps.append((left, right))
        d_s[j - 1] = left - right

    if with_d_T is None:
        with_d_T = prob.free_time
    return GradientBundle(
        objective=fwd.objective,
        d_s=d_s,
        d_p0=bwd.checkpoints[0].y2.copy() if prob.case == 2 else None,
        d_T=bwd.hamiltonian_integral if with_d_T else None,
        feasibility_margins=_worst_margins(prob, fwd),
        hamiltonian_jumps=jumps)


def free_time_gradient_check(prob, cfg, settings=None, delta=None):
    """Compare the Hamiltonian-quadrature dC/dT with a central difference.

    The difference perturbs T while holding the tau-positions of the switch
    points fixed (physical switch points scale with T), matching the
    unit-interval reformulation in which dC/dT is derived.
    """
    settings = settings or IntegratorSettings()
    T = _horizon(prob, cfg)
    delta = delta if delta is not None else 1e-6 * max(1.0, abs(T))
    bundle = evaluate_gradient(prob, cfg, settings, with_d_T=True)
    sigma = cfg.s / T

    vals = []
    for Tq in (T + delta, T - delta):
        cq = cfg.copy()
        cq.T = Tq
        cq.s = sigma * Tq
        vals.append(forward_sweep(prob, cq, settings, sample_count=2).objective)
    return bundle.d_T, (vals[0] - vals[1]) / (2 * delta)


def dense_trajectory(prob, cfg, settings=None, sample_count=DEFAULT_SAMPLES,
                     fwd=None):
    """Aligned dense samples of (t, x, u, p) for reporting.

    For Case 1 the costate comes from a joint backward integration of
    (x, p) over all phases; states are taken from the forward pass, which
    is the accurate direction for them.  For Case 2 the forward pass
    already carries the costate.  ``fwd`` is the forward record of ``cfg``
    when it is already computed; then ``sample_count`` is unused.
    """
    settings = settings or IntegratorSettings()
    if fwd is None:
        fwd = forward_sweep(prob, cfg, settings, sample_count)
    n, T, sigma = prob.n, fwd.T, fwd.sigma
    laws = _resolved(phase_law, prob)

    if prob.case == 2:
        costates = fwd.costates
    else:
        rhs = _case1_costate_rhs(prob, T, laws,
                                 _resolved(phase_law_jacobian, prob), False)
        ode = PiecewiseOde(dim=2 * n, segments=sigma, rhs=rhs)
        z_end = np.concatenate((fwd.checkpoint_states[-1],
                                prob.grad_C(fwd.checkpoint_states[-1])))
        back = integrate_piecewise(ode, z_end, "backward", settings,
                                   fwd.times.size)
        costates = back.sample_states[:, n:]

    tau = fwd.times / T
    seg = np.clip(np.searchsorted(sigma, tau, side="right") - 1, 0, prob.k)
    controls = np.empty((fwd.times.size, prob.m))
    for i, t in enumerate(fwd.times):
        p = costates[i] if prob.case == 2 else None
        controls[i] = laws[seg[i]](t, fwd.states[i], p)
    return fwd.times, fwd.states, controls, costates
