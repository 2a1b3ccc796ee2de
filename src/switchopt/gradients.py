"""Objective value and exact derivatives from one forward sweep and its
reverse pass.

The forward sweep integrates the sweep state z: the state x in Case 1, the
state and costate (x, p) in Case 2, each phase j with its flow F_j (see
``problem.phase_flow``).  The backward sweep is the discrete adjoint of the
forward sweep's accepted steps, phase by phase from the last, for one sweep
or B lanes.  ``odeint``, which alone knows the method, folds each step into
its d-by-d transition matrix G_n = dz_{n+1}/dz_n; this module supplies the
stage Jacobians, dF/dz of the phase at the stage points of up to
``odeint._FOLD_BLOCK`` steps per ``problem.phase_jacobian`` call.  The
reverse pass is then one vector-matrix product per step, lam_n = lam_{n+1}
G_n, from lam(T) = (grad C, 0), and gives at every node z_n of the forward
mesh lam_n = dC(z_N)/dz_n of the computed solution.  That one adjoint gives
every derivative:

- dC/ds_j = lam . (F_{j-1} - F_j) at s_j, the jump of the Hamiltonian lam . F;
- dC/dp0 is the p-block of lam(0) (Case 2);
- dC/dT = lam(1) . F_k(T, z(T)) + sum_j sigma_j dC/ds_j, the terminal
  Hamiltonian plus the chain rule through s_j = sigma_j T.  It holds when a
  phase flow depends on t explicitly, and costs one flow evaluation.

All integrations here run on tau in [0, 1] with the horizon T as a dynamics
parameter, for fixed- and free-time problems alike, so the same code path
produces every derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .odeint import PiecewiseOde, _fold_steps, _node_before, \
    _segment_nodes, _stage_points, _step, integrate_piecewise, sample_states
# read only by perfbench's tracer, which patches it here
from .odeint import integrate_with_quadrature  # noqa: F401
from .problem import horizon, phase_feasibility, phase_flow, \
    phase_jacobian, phase_law, validate_config

__all__ = [
    "TrajectoryRecord",
    "BackwardRecord",
    "GradientBundle",
    "forward_sweep",
    "backward_sweep",
    "evaluate_gradient",
    "feasibility_margins",
    "gradcheck",
    "free_time_gradient_check",
]

DEFAULT_SAMPLES = 201


@dataclass
class TrajectoryRecord:
    """Forward-sweep output: switch-point checkpoints and accepted steps,
    with report samples of z taken when first read."""

    times: np.ndarray                 # physical time at the report samples
    phase: np.ndarray                 # phase index of each sample
    checkpoint_states: np.ndarray     # (k+2, n) at 0, s_1..s_k, T
    checkpoints: np.ndarray           # (k+2, dim z): z at the same points
    objective: float
    sigma: np.ndarray                 # switch points in tau units, incl. 0 and 1
    T: float
    steps: int                        # integrator step attempts of the sweep
    # per phase, the accepted steps (tau, h, z, K): odeint.DenseTrajectory
    records: list = field(repr=False)
    # the sweep's rhs(j, tau, z), at a point or on lanes
    rhs: Callable = field(repr=False)

    @cached_property
    def _samples(self):
        """z at the samples by ``odeint.sample_states``: one step of the
        method from the node before each, computed on first use, so that a
        gradient evaluation pays for none."""
        return sample_states(self.rhs, self.sigma, self.records,
                             self.checkpoints, self.times / self.T)

    @property
    def states(self):
        """x at the samples, (n_samples, n)."""
        return self._samples[:, :self.checkpoint_states.shape[1]]

    @property
    def costates(self):
        """p at the samples, (n_samples, n), in Case 2; else None."""
        n = self.checkpoint_states.shape[1]
        return self._samples[:, n:] if self.checkpoints.shape[1] > n \
            else None


@dataclass
class BackwardRecord:
    """Backward-sweep output: the adjoint lam of z on the forward mesh."""

    costates: list                    # lam at 0, s_1..s_k, T
    nodal: np.ndarray                 # lam at each node of _phase_nodes
    steps: int                        # reverse steps: the forward's accepted ones


@dataclass
class GradientBundle:
    """Objective value and its exact derivatives at one configuration."""

    objective: float
    d_s: np.ndarray
    d_p0: Optional[np.ndarray]
    d_T: Optional[float]
    # the sweeps the bundle comes from, for reuse; not part of any output
    fwd: TrajectoryRecord = field(repr=False)
    bwd: BackwardRecord = field(repr=False)


def _resolved(make, prob):
    """One closure per phase, e.g. ``_resolved(phase_law, prob)``."""
    return [make(prob, j) for j in range(prob.k + 1)]


def forward_sweep(prob, cfg, settings=None, sample_count=DEFAULT_SAMPLES):
    """Integrate the sweep state z forward and evaluate the objective."""
    validate_config(prob, cfg)
    T = horizon(prob, cfg)
    sigma = np.concatenate(([0.0], cfg.s / T, [1.0]))
    n, flows = prob.n, _resolved(phase_flow, prob)
    z0 = prob.x0 if cfg.p0 is None else np.concatenate((prob.x0, cfg.p0))

    def rhs(j, tau, z):
        return T * flows[j](tau * T, z)

    ode = PiecewiseOde(dim=z0.size, segments=sigma, rhs=rhs)
    traj = integrate_piecewise(ode, z0, settings=settings)
    ckpt = np.array(traj.breakpoint_states)
    times = np.linspace(0.0, 1.0, max(2, sample_count)) * T
    # a sample at a switch point belongs to the phase that starts there
    phase = np.searchsorted(sigma, times / T, side="right") - 1
    return TrajectoryRecord(
        times=times,
        phase=np.clip(phase, 0, prob.k),
        checkpoint_states=ckpt[:, :n],
        checkpoints=ckpt,
        objective=float(prob.C(ckpt[-1, :n])),
        sigma=sigma,
        T=T,
        steps=traj.steps,
        records=traj.records,
        rhs=rhs)


def _phase_nodes(fwd):
    """(tau, z) of the nodes of each phase of the forward record ``fwd``:
    its steps' starts, then its end."""
    return [_segment_nodes(record, fwd.sigma[j + 1], fwd.checkpoints[j + 1])
            for j, record in enumerate(fwd.records)]


def _fold(prob, j, T, record):
    """``odeint._fold_steps`` of phase j's steps (tau, h, z, K) with the
    phase's stage Jacobians."""
    jacobian = phase_jacobian(prob, j)
    return _fold_steps(lambda t, Y: jacobian(t, Y.T).transpose(2, 0, 1),
                       T, *record)


def _reverse_pass(prob, j, T, record, lam):
    """lam before each step of phase j's record (tau, h, z, K), steps (N,)
    or (I, B) on B lanes, from lam (d,) or (B, d) at the phase's end:
    lam_n = lam_{n+1} (I + D_n), D_n from ``odeint._fold_steps``."""
    D = _fold(prob, j, T, record)
    chain = np.empty(D.shape[:-1])
    for n in range(len(D) - 1, -1, -1):
        lam = lam + (lam[..., None, :] @ D[n])[..., 0, :]
        chain[n] = lam
    return chain


def backward_sweep(prob, fwd):
    """lam_n = dC(z_N)/dz_n at every node of the forward record ``fwd``.

    The reverse pass of the accepted steps, phase by phase from the last,
    lam_n = lam_{n+1} G_n with G_n = dz_{n+1}/dz_n of step n: no tolerance
    and no error test, and lam passes a switch point unchanged.
    """
    d = fwd.checkpoints.shape[1]
    lam = np.concatenate((prob.grad_C(fwd.checkpoint_states[-1]),
                          np.zeros(d - prob.n)))
    costates, nodal = [lam], []
    for j in range(prob.k, -1, -1):
        chain = _reverse_pass(prob, j, fwd.T, fwd.records[j], lam)
        nodal[:0] = [chain, lam[None]]
        lam = chain[0]
        costates.insert(0, lam)
    nodal = np.concatenate(nodal)
    return BackwardRecord(costates=costates, nodal=nodal,
                          steps=len(nodal) - (prob.k + 1))


def feasibility_margins(prob, fwd):
    """Worst control-box margin of each phase of the forward record ``fwd``
    at the stage points of its accepted steps, which include each step's
    start, and at the phase's end: one margin call per phase, on lanes."""
    n, worst = prob.n, np.empty(prob.k + 1)
    for j, record in enumerate(fwd.records):
        tau, Y = _stage_points(*record)
        tau = np.append(tau, fwd.sigma[j + 1])
        z = np.vstack((Y.reshape(-1, Y.shape[-1]), fwd.checkpoints[j + 1])).T
        m = phase_feasibility(prob, j)(tau * fwd.T, z[:n],
                                       z[n:] if len(z) > n else None)
        worst[j] = float(np.min(m))
    return worst


def _switch_jumps(flows, fwd, costates, dot):
    """dC/ds_j = lam . (F_{j-1} - F_j), the Hamiltonian's jump at each s_j
    of the record ``fwd``, by dot(lam, v): (k,), or (k, B) on B lanes."""
    k, d_s = len(flows) - 1, []
    for j in range(1, k + 1):
        t, z = fwd.sigma[j] * fwd.T, fwd.checkpoints[j]
        # the flows' difference first: the terms both phases share cancel
        # exactly, not after rounding in two dot products
        d_s.append(dot(costates[j], flows[j - 1](t, z) - flows[j](t, z)))
    return np.reshape(d_s, (k,) + np.shape(fwd.T))


def evaluate_gradient(prob, cfg, settings=None, with_d_T=None, fwd=None):
    """Objective plus exact gradient w.r.t. switch points, p0, and T.

    ``fwd`` is the forward record of ``cfg`` when it is already computed;
    then only the backward sweep runs.
    """
    if fwd is None:
        fwd = forward_sweep(prob, cfg, settings)
    bwd = backward_sweep(prob, fwd)

    flows = _resolved(phase_flow, prob)
    d_s = _switch_jumps(flows, fwd, bwd.costates, np.matmul)

    if with_d_T is None:
        with_d_T = prob.free_time
    d_T = None
    if with_d_T:
        # dC/dT at fixed s from the terminal Hamiltonian, plus the chain
        # rule through s = sigma T
        lam, z = bwd.costates[-1], fwd.checkpoints[-1]
        d_T = float(lam @ flows[prob.k](fwd.T, z)) \
            + float(fwd.sigma[1:-1] @ d_s)
    lam0 = bwd.costates[0]
    return GradientBundle(
        objective=fwd.objective,
        d_s=d_s,
        d_p0=lam0[prob.n:].copy() if lam0.size > prob.n else None,
        d_T=d_T,
        fwd=fwd, bwd=bwd)


def _central_difference(prob, settings, bumped, delta):
    """(C(bumped(delta)) - C(bumped(-delta))) / (2 delta), each objective
    from a forward sweep."""
    f_hi, f_lo = (forward_sweep(prob, bumped(d), settings).objective
                  for d in (delta, -delta))
    return (f_hi - f_lo) / (2 * delta)


def _fd_d_T(prob, cfg, settings, delta=None):
    """Central difference in T, step 1e-6 max(1, |T|) by default, holding
    sigma = s / T fixed as the unit-interval reformulation of dC/dT does."""
    T = horizon(prob, cfg)
    delta = delta if delta is not None else 1e-6 * max(1.0, abs(T))
    sigma = cfg.s / T

    def bumped(d):
        cq = cfg.copy()
        cq.T = T + d
        cq.s = sigma * cq.T
        return cq
    return _central_difference(prob, settings, bumped, delta)


def free_time_gradient_check(prob, cfg, settings=None, delta=None):
    """(dC/dT from the terminal Hamiltonian and the switch-point jumps,
    its central difference)."""
    return (evaluate_gradient(prob, cfg, settings, with_d_T=True).d_T,
            _fd_d_T(prob, cfg, settings, delta))


def gradcheck(prob, cfg, settings=None):
    """Rows (label, analytic, central difference) from one evaluation: d_s1..,
    d_p01.. when cfg has a p0, and d_T on free-time problems.  The steps are
    1e-6 in s and p0 and 1e-6 max(1, |T|) in T."""
    bundle = evaluate_gradient(prob, cfg, settings)
    rows = []
    for name in ("s", "p0"):
        derivs = getattr(bundle, "d_" + name)
        for i in range(0 if derivs is None else derivs.size):
            def bumped(d, name=name, i=i):
                cq = cfg.copy()
                getattr(cq, name)[i] += d
                return cq
            rows.append((f"d_{name}{i + 1}", derivs[i], _central_difference(
                prob, settings, bumped, 1e-6)))
    if prob.free_time:
        rows.append(("d_T", bundle.d_T, _fd_d_T(prob, cfg, settings)))
    return rows


def _lam_at_samples(prob, fwd, bwd):
    """lam of z = x at the samples of the Case-1 forward record ``fwd``,
    from the nodal lam of its backward sweep ``bwd``: at a node its lam,
    else lam_{n+1} (I + D), the reverse pass of one step of the method from
    the sample to the next node n + 1."""
    tau, x = fwd.times / fwd.T, fwd.states
    lam, first = np.empty(x.shape), 0
    for j, (times, _) in enumerate(_phase_nodes(fwd)):
        nodal = bwd.nodal[first:first + times.size]
        first += times.size
        at = np.flatnonzero(fwd.phase == j)
        n, off = _node_before(times, tau[at])
        lam[at] = nodal[n]
        if off.any():
            a, after = at[off], nodal[n[off] + 1]
            h = times[n[off] + 1] - tau[a]
            _, K = _step(lambda t, y: fwd.rhs(j, t, y.T).T, tau[a], h, x[a])
            D = _fold(prob, j, fwd.T, (tau[a], h, x[a], K))
            lam[a] = after + (after[:, None, :] @ D)[:, 0, :]
    return lam


def dense_trajectory(prob, cfg, settings=None, sample_count=DEFAULT_SAMPLES,
                     bundle=None):
    """Aligned dense samples of (t, x, u, p) for reporting.

    Each sample of x (and of p in Case 2, where the forward sweep carries
    it) is one step of the method from the forward mesh's node before it.
    In Case 1 p is the adjoint lam of z = x from the backward sweep whose
    Hamiltonian jumps give the gradient, carried from the node after each
    sample back to it by the reverse pass of one step.
    ``bundle`` is the gradient of ``cfg`` when it is already computed;
    then no sweep runs and ``sample_count`` is unused.
    """
    if bundle is not None:
        fwd, bwd = bundle.fwd, bundle.bwd
    else:
        fwd = forward_sweep(prob, cfg, settings, sample_count)
        bwd = None if fwd.costates is not None \
            else backward_sweep(prob, fwd)
    costates = fwd.costates if fwd.costates is not None \
        else _lam_at_samples(prob, fwd, bwd)
    laws = _resolved(phase_law, prob)
    controls = np.empty((fwd.times.size, prob.m))
    for i, t in enumerate(fwd.times):
        controls[i] = laws[fwd.phase[i]](t, fwd.states[i], costates[i])
    return fwd.times, fwd.states, controls, costates
