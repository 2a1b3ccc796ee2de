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
from typing import Optional

import numpy as np

from .odeint import PiecewiseOde, _fold_steps, _hermite_resample, \
    _segment_nodes, integrate_piecewise, \
    integrate_with_quadrature  # noqa: F401 (read only by perfbench's tracer)
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
    """Forward-sweep output: dense samples plus switch-point checkpoints."""

    times: np.ndarray                 # physical time at dense samples
    phase: np.ndarray                 # phase index of each dense sample
    states: np.ndarray                # (n_samples, n)
    costates: Optional[np.ndarray]    # (n_samples, n), Case 2 only
    checkpoint_states: np.ndarray     # (k+2, n) at 0, s_1..s_k, T
    checkpoints: np.ndarray           # (k+2, dim z): z at the same points
    objective: float
    sigma: np.ndarray                 # switch points in tau units, incl. 0 and 1
    T: float
    steps: int                        # integrator step attempts of the sweep
    # per phase, the accepted steps (tau, h, z, K): odeint.DenseTrajectory
    records: list = field(repr=False)


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
    traj = integrate_piecewise(
        ode, z0, settings=settings,
        sample_times=np.linspace(0.0, 1.0, max(2, sample_count)))
    ckpt = np.array(traj.breakpoint_states)
    times = traj.sample_times * T
    # a sample at a switch point belongs to the phase that starts there
    phase = np.searchsorted(sigma, times / T, side="right") - 1
    return TrajectoryRecord(
        times=times,
        phase=np.clip(phase, 0, prob.k),
        states=traj.sample_states[:, :n],
        costates=traj.sample_states[:, n:] if z0.size > n else None,
        checkpoint_states=ckpt[:, :n],
        checkpoints=ckpt,
        objective=float(prob.C(ckpt[-1, :n])),
        sigma=sigma,
        T=T,
        steps=traj.steps,
        records=traj.records)


def _phase_nodes(fwd):
    """(tau, z) of the nodes of each phase of the forward record ``fwd``:
    its steps' starts, then its end."""
    return [_segment_nodes(record, fwd.sigma[j + 1], fwd.checkpoints[j + 1])
            [:2] for j, record in enumerate(fwd.records)]


def _reverse_pass(prob, j, T, record, lam):
    """lam before each step of phase j's record (tau, h, z, K), steps (N,)
    or (I, B) on B lanes, from lam (d,) or (B, d) at the phase's end:
    lam_n = lam_{n+1} (I + D_n), D_n from ``odeint._fold_steps``."""
    jacobian = phase_jacobian(prob, j)
    D = _fold_steps(lambda t, Y: jacobian(t, Y.T).transpose(2, 0, 1),
                    T, *record)
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
    at its accepted-step nodes, the phase's two checkpoints included."""
    n, worst = prob.n, np.full(prob.k + 1, np.inf)
    margins = _resolved(phase_feasibility, prob)
    for j, nodes in enumerate(_phase_nodes(fwd)):
        for tau, z in zip(*nodes):
            m = margins[j](tau * fwd.T, z[:n], z[n:] if z.size > n else None)
            worst[j] = min(worst[j], float(np.min(m)))
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
    from a forward sweep without dense samples."""
    f_hi, f_lo = (forward_sweep(prob, bumped(d), settings,
                                sample_count=2).objective
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


def _costate_samples(prob, fwd, bwd):
    """lam of z at the dense samples of ``fwd``: cubic Hermite interpolation
    of the nodal lam of ``bwd``, with dlam/dtau = -T lam . dF/dz at each
    node from one ``phase_jacobian`` call per phase.

    Between the nodes its error is O(h^4) of the forward step, not O(tol).
    Interpolated so on catalyst2's forward mesh at tol 1e-11, whose steps
    reach 0.06, lam is 2.1e-8 off a whole-horizon (z, lam) integration
    where the nodal lam is within 9.4e-10.  The forward state samples are
    the same kind of interpolant.
    """
    T, nodes = fwd.T, _phase_nodes(fwd)
    J = np.concatenate([phase_jacobian(prob, j)(tau * T, z.T).transpose(
        2, 0, 1) for j, (tau, z) in enumerate(nodes)])
    dlam = -T * np.einsum("mi,mij->mj", bwd.nodal, J)
    tau = np.concatenate([tau for tau, _ in nodes])
    return _hermite_resample(tau, bwd.nodal, dlam, fwd.times / T)


def dense_trajectory(prob, cfg, settings=None, sample_count=DEFAULT_SAMPLES,
                     bundle=None):
    """Aligned dense samples of (t, x, u, p) for reporting.

    In Case 2 the forward sweep carries the costate p.  In Case 1 p is the
    adjoint lam of z = x from the backward sweep whose Hamiltonian jumps
    give the gradient, interpolated between the forward mesh's nodes.
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
        else _costate_samples(prob, fwd, bwd)
    laws = _resolved(phase_law, prob)
    controls = np.empty((fwd.times.size, prob.m))
    for i, t in enumerate(fwd.times):
        controls[i] = laws[fwd.phase[i]](t, fwd.states[i], costates[i])
    return fwd.times, fwd.states, controls, costates
