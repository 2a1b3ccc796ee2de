"""Objective value and exact derivatives from one forward sweep and its
reverse pass.

The forward sweep integrates the sweep state z: the state x in Case 1, the
state and costate (x, p) in Case 2, each phase j with its flow F_j (see
``problem.phase_flow``).  The backward sweep is the discrete adjoint of the
forward sweep's accepted steps, for one sweep or B lanes.  ``odeint``,
which alone knows the method and the records, folds every step of the
sweep in one call into its d-by-d transition matrix G_n = dz_{n+1}/dz_n;
this module supplies each phase's stage Jacobian, dF/dz at the stage points
of a block of one phase's steps per ``problem.phase_jacobian`` call.  lam
passes a switch point unchanged, so the reverse pass is one chain of
vector-matrix products over the steps of all phases, lam_n = lam_{n+1} G_n,
from lam(T) = (grad C, 0), and gives at every node z_n of the forward mesh
lam_n = dC(z_N)/dz_n of the computed solution.  That one adjoint gives
every derivative:

- dC/ds_j = lam . (F_{j-1} - F_j) at s_j, the jump of the Hamiltonian lam . F;
- dC/dp0 is the p-block of lam(0) (Case 2);
- dC/dT = lam(1) . F_k(T, z(T)) + sum_j sigma_j dC/ds_j, the terminal
  Hamiltonian plus the chain rule through s_j = sigma_j T.  It holds when a
  phase flow depends on t explicitly, and costs one flow evaluation.

All integrations here run on tau in [0, 1] with the horizon T as a dynamics
parameter, for fixed- and free-time problems alike, so the same code path
produces every derivative.

A list of B configurations is swept as the lanes of one lockstep
``odeint.integrate_piecewise``, each lane taking its own scalar sweep's
steps, into the same records with the lane axis last (see ``ProblemDef``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .odeint import PiecewiseOde, _fold_steps, _node_before, _node_chain, \
    _stage_points, _step, integrate_piecewise, sample_states
# read only by perfbench's tracer, which patches it here
from .odeint import integrate_with_quadrature  # noqa: F401
from .problem import _FLOAT_FAILS, _LAW_ARGS, SwitchConfig, _float_body, \
    horizon, lane_shaped, phase_feasibility, phase_flow, phase_jacobian, \
    phase_law, validate_config

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
    """Forward-sweep output: switch-point checkpoints, accepted steps and
    the number of report samples that ``dense_trajectory`` takes.  On B
    lanes each array gains a trailing lane axis, and there are no samples;
    the state x is ``checkpoints[:, :n]``."""

    sample_count: Optional[int]       # report samples, >= 2; None on lanes
    checkpoints: np.ndarray           # (k+2, dim z): z at 0, s_1..s_k, T
    objective: float
    sigma: np.ndarray                 # switch points in tau units, incl. 0 and 1
    T: float
    steps: int                        # integrator step attempts of the sweep
    # per phase, the accepted steps (tau, h, z, K): odeint.DenseTrajectory,
    # on lanes with a lane axis after the step axis
    records: list = field(repr=False)
    # the sweep's rhs(j, tau, z), at a point or on lanes: dz/dtau = T rhs
    rhs: Callable = field(repr=False)


@dataclass
class BackwardRecord:
    """Backward-sweep output: the adjoint lam of z on the forward mesh."""

    costates: list                    # lam at 0, s_1..s_k, T: (d,) or (d, B)
    # the reverse chain: lam at each step's start of all phases, then at T;
    # on lanes at each iteration's start, (iterations + 1, d, B)
    lam: np.ndarray
    steps: int                        # reverse steps: the forward's accepted ones


@dataclass
class GradientBundle:
    """Objective value and its exact derivatives at one configuration, or
    on B lanes with a trailing lane axis."""

    objective: float
    d_s: np.ndarray
    d_p0: Optional[np.ndarray]
    d_T: Optional[float]
    # the sweeps the bundle comes from, for reuse; not part of any output
    fwd: TrajectoryRecord = field(repr=False)
    bwd: BackwardRecord = field(repr=False)


def _one_configuration(fwd, what):
    """Refuse ``what`` of the forward record of a list of configurations."""
    if fwd.sample_count is None:
        raise ValueError(f"{what}: a list record carries no report samples")


def _resolved(make, prob):
    """One closure per phase, e.g. ``_resolved(phase_law, prob)``."""
    return [make(prob, j) for j in range(prob.k + 1)]


def forward_sweep(prob, cfg, settings=None, sample_count=DEFAULT_SAMPLES):
    """Integrate the sweep state z forward and evaluate the objective.

    ``cfg`` is one SwitchConfig, whose record keeps ``sample_count`` (an
    integer, not a bool; at least 2) for ``dense_trajectory``, or a
    non-empty list of them swept as lanes, without samples; each is checked
    before any lane is integrated.
    """
    lanes, starts = not isinstance(cfg, SwitchConfig), []
    if lanes and not cfg:
        raise ValueError(f"{prob.name}: the list of configurations is empty")
    if not lanes and isinstance(sample_count, bool):
        raise TypeError(f"sample_count must be an integer, got {sample_count}")
    count = None if lanes else max(2, operator.index(sample_count))
    for c in cfg if lanes else [cfg]:
        validate_config(prob, c)
        t = horizon(prob, c)
        starts.append((t, np.concatenate(([0.0], c.s / t, [1.0])), prob.x0
                       if c.p0 is None else np.concatenate((prob.x0, c.p0))))
    # T, sigma and z0 of one configuration, or stacked along a lane axis
    T, sigma, z0 = (np.stack(v, axis=-1) if lanes else v[0]
                    for v in zip(*starts))
    n, flows = prob.n, _resolved(phase_flow, prob)
    points = flows if lanes else [F.point for F in flows]
    rhs = lambda j, tau, z: flows[j](tau * T, z)   # samples call it on lanes
    traj = integrate_piecewise(PiecewiseOde(
        len(z0), sigma, lambda j, tau, z: points[j](tau * T, z), scale=T),
        z0, settings=settings)
    ckpt = np.array(traj.breakpoint_states)
    objective = lane_shaped(prob, "C", np.asarray(
        prob.C(ckpt[-1, :n]), dtype=float), ckpt.shape[2:])
    return TrajectoryRecord(
        sample_count=count, checkpoints=ckpt,
        objective=objective if lanes else float(objective),
        sigma=sigma, T=T, steps=traj.steps, records=traj.records, rhs=rhs)


def _fold(prob, T, records):
    """``odeint._fold_steps`` of one record (tau, h, z, K) per phase, with
    the phases' stage Jacobians."""
    jacobians = _resolved(phase_jacobian, prob)
    return _fold_steps(lambda j, t, Y: jacobians[j](t, Y.T).transpose(
        2, 0, 1), T, records)


def backward_sweep(prob, fwd):
    """lam_n = dC(z_N)/dz_n at every node of the forward record ``fwd``.

    The reverse pass of the accepted steps of all phases in one chain from
    lam(T) = (grad C, 0), lam_n = lam_{n+1} (I + D_n) with D_n = G_n - I
    from one ``_fold`` of the sweep: no tolerance and no error test, and
    lam passes a switch point unchanged, so the chain runs straight across
    it.  On lanes a lane whose h is 0 keeps its lam, and a constant grad C
    of shape (n,) serves every lane.
    """
    x_T = fwd.checkpoints[-1, :prob.n]
    grad = np.asarray(prob.grad_C(x_T), dtype=float)
    D = _fold(prob, fwd.T, fwd.records)
    # lane-major from here on: lam (d,), or (B, d) on lanes
    lam = np.zeros((len(D) + 1,) + fwd.checkpoints[-1].T.shape)
    want = x_T.shape if grad.ndim > 1 else x_T.shape[:1]
    lam[-1, ..., :prob.n] = lane_shaped(prob, "grad_C", grad, want).T
    for n in range(len(D) - 1, -1, -1):
        lam[n] = lam[n + 1] + (lam[n + 1, ..., None, :] @ D[n])[..., 0, :]
    # the chain's rows at each phase's first node, and at the end
    h = [record[1] for record in fwd.records]
    firsts = np.cumsum([0] + [len(v) for v in h])
    return BackwardRecord(costates=[lam[n].T for n in firsts],
                          lam=lam.swapaxes(1, -1),
                          steps=np.count_nonzero(np.concatenate(h), axis=0))


def feasibility_margins(prob, fwd):
    """Worst control-box margin of each phase of the forward record ``fwd``
    at the stage points of its accepted steps, which include each step's
    start, and at the phase's end: one margin call per phase, on lanes."""
    _one_configuration(fwd, "feasibility_margins")
    n, worst = prob.n, np.empty(prob.k + 1)
    for j, record in enumerate(fwd.records):
        tau, Y = _stage_points(*record)
        tau = np.append(tau, fwd.sigma[j + 1])
        z = np.vstack((Y.reshape(-1, Y.shape[-1]), fwd.checkpoints[j + 1])).T
        m = phase_feasibility(prob, j)(tau * fwd.T, z[:n],
                                       z[n:] if len(z) > n else None)
        worst[j] = float(np.min(m))
    return worst


def _lane_dot(a, b):
    """a . b of two (d,) arrays, or per lane of two (d, B) arrays, each by
    the call of the one-configuration ``a @ b``."""
    return np.matmul(a.T[..., None, :], b.T[..., :, None])[..., 0, 0]


def evaluate_gradient(prob, cfg, settings=None, with_d_T=None, fwd=None):
    """Objective plus exact gradient w.r.t. switch points, p0, and T.

    ``cfg`` is one SwitchConfig, or a list of B swept as lanes (see
    ``forward_sweep``): then the objective has shape (B,), d_s (k, B), d_p0
    (n, B) and d_T (B,).  ``fwd`` is the forward record of ``cfg`` when it
    is already computed; then only the backward sweep runs.
    """
    if fwd is None:
        fwd = forward_sweep(prob, cfg, settings)
    bwd = backward_sweep(prob, fwd)
    # the sweep's own flows, T F_j = rhs(j, tau, z), as F_j of the products
    # sigma_j T and 1.0 T.  dC/ds_j = lam . (F_{j-1} - F_j) at s_j, the
    # flows' difference first: the terms both phases share cancel exactly,
    # not after rounding in two dot products
    rhs, lam, sigma = fwd.rhs, bwd.costates, fwd.sigma
    d_s = np.reshape([_lane_dot(lam[j], rhs(j - 1, sigma[j], z)
                                - rhs(j, sigma[j], z))
                      for j, z in enumerate(fwd.checkpoints[1:-1], 1)],
                     (prob.k,) + np.shape(fwd.T))

    if with_d_T is None:
        with_d_T = prob.free_time
    d_T = None
    if with_d_T:
        # dC/dT at fixed s from the terminal Hamiltonian, plus the chain
        # rule through s = sigma T
        d_T = _lane_dot(lam[-1], rhs(prob.k, 1.0, fwd.checkpoints[-1])) \
            + _lane_dot(fwd.sigma[1:-1], d_s)
        d_T = d_T if np.ndim(d_T) else float(d_T)
    lam0 = bwd.costates[0]
    return GradientBundle(
        objective=fwd.objective,
        d_s=d_s,
        d_p0=lam0[prob.n:].copy() if len(lam0) > prob.n else None,
        d_T=d_T,
        fwd=fwd, bwd=bwd)


def _difference(prob, cfg, settings, name, i=0, delta=None):
    """(C(+delta) - C(-delta)) / (2 delta) for a bump of cfg.s[i] or
    cfg.p0[i] (``name`` "s" or "p0"), or of T holding s / T fixed as the
    unit-interval reformulation of dC/dT does (``name`` "T"); each side is
    one forward sweep.  The step is 1e-6 by default, 1e-6 max(1, |T|) in T;
    after the configuration, a step that is not finite and positive is
    refused before any sweep."""
    validate_config(prob, cfg)
    T = horizon(prob, cfg)
    if delta is None:
        delta = 1e-6 * max(1.0, abs(T)) if name == "T" else 1e-6
    if not 0.0 < delta < np.inf:
        raise ValueError(f"{prob.name}: the central-difference step in "
                         f"{name} is {delta!r}; it must be finite and > 0")
    objectives = []
    for d in (delta, -delta):
        cq = cfg.copy()
        if name == "T":
            cq.T, cq.s = T + d, cfg.s / T * (T + d)
        else:
            getattr(cq, name)[i] += d
        objectives.append(forward_sweep(prob, cq, settings).objective)
    return (objectives[0] - objectives[1]) / (2 * delta)


def free_time_gradient_check(prob, cfg, settings=None, delta=None):
    """(dC/dT from the terminal Hamiltonian and the switch-point jumps,
    its central difference with s / T fixed, step ``delta``, by default
    1e-6 max(1, |T|)).  A step that is not finite and positive raises
    ValueError before any sweep."""
    fd = _difference(prob, cfg, settings, "T", delta=delta)
    return evaluate_gradient(prob, cfg, settings, with_d_T=True).d_T, fd


def gradcheck(prob, cfg, settings=None):
    """Rows (label, analytic, central difference) from one evaluation: d_s1..,
    d_p01.. when cfg has a p0, and d_T on free-time problems.  The steps are
    1e-6 in s and p0 and 1e-6 max(1, |T|) in T, with s / T held fixed."""
    bundle = evaluate_gradient(prob, cfg, settings)
    d_p0 = () if bundle.d_p0 is None else bundle.d_p0
    rows = [(f"d_s{i + 1}", d, "s", i) for i, d in enumerate(bundle.d_s)]
    rows += [(f"d_p0{i + 1}", d, "p0", i) for i, d in enumerate(d_p0)]
    if prob.free_time:
        rows.append(("d_T", bundle.d_T, "T", 0))
    return [(label, d, _difference(prob, cfg, settings, name, i))
            for label, d, name, i in rows]


def _lam_at_samples(prob, fwd, bwd, tau, phase, x):
    """lam of z = x at the samples x, at tau in ``phase``, of the Case-1
    forward record ``fwd``, from the reverse chain of its backward sweep
    ``bwd``: at a node its lam, else lam_{n+1} (I + D), the reverse pass of
    one step of the method from the sample to the next node n + 1, the
    steps of all phases (none where a phase has no sample past a node) in
    one ``_fold``, on the nodes of ``odeint._node_chain``."""
    nodes, _ = _node_chain(fwd.records, 1.0, fwd.checkpoints[-1])
    n, off = _node_before(nodes, tau)
    lam, records = bwd.lam[n], []
    for j in range(prob.k + 1):
        a = np.flatnonzero(off & (phase == j))
        h = nodes[n[a] + 1] - tau[a]
        records.append((tau[a], h, x[a], _step(
            fwd.rhs, j, tau[a], h, x[a], fwd.T)[1] if a.size else x[a, None]))
    after, D = bwd.lam[n[off] + 1], _fold(prob, fwd.T, records)
    lam[off] = after + (after[:, None, :] @ D)[:, 0, :]
    return lam


def dense_trajectory(prob, bundle):
    """Aligned dense samples of (t, x, u, p) for reporting, at ``sample_count``
    even times in [0, T] of the forward record of the gradient ``bundle``:
    no sweep runs.  A sample at s_j belongs to the phase that starts there.

    Each sample of the sweep state z (x, and p in Case 2) is one step of
    the method from the forward mesh's node before it (``sample_states``).
    In Case 1 p is the adjoint lam of z = x from the backward sweep whose
    Hamiltonian jumps give the gradient, carried from the node after each
    sample back to it by the reverse pass of one step.  Each sample's
    control is its phase law's ``float_body`` on the sample's floats, with
    the callback's bits (see the ``problem`` module docstring), or the
    callback where the law has no body or the body's float arithmetic
    raises.
    """
    fwd, n = bundle.fwd, prob.n
    _one_configuration(fwd, "dense_trajectory")
    times = np.linspace(0.0, 1.0, fwd.sample_count) * fwd.T
    tau = times / fwd.T
    phase = np.clip(np.searchsorted(fwd.sigma, tau, side="right") - 1, 0,
                    prob.k)
    z = sample_states(fwd.rhs, fwd.sigma, fwd.records, fwd.checkpoints, tau,
                      fwd.T)
    x = z[:, :n]
    p = z[:, n:] if z.shape[1] > n \
        else _lam_at_samples(prob, fwd, bundle.bwd, tau, phase, x)
    laws, controls = _resolved(phase_law, prob), np.empty((times.size, prob.m))
    bodies = [(_float_body(ph.law), _LAW_ARGS[ph.law_kind])
              for ph in prob.phases]
    rows = zip(phase.tolist(), times.tolist(), x.tolist(), p.tolist())
    for i, (j, *args) in enumerate(rows):
        body, k = bodies[j]
        try:   # (t), (t, x) or (t, x, p) by the law's kind
            controls[i] = body(*args[:k]) if body else laws[j](
                times[i], x[i], p[i])
        except _FLOAT_FAILS:
            controls[i] = laws[j](times[i], x[i], p[i])
    return times, x, controls, p
