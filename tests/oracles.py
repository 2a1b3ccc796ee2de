"""Backward integrations for the test oracles, by time reflection,
gradient bundles with a chosen number of report samples, the reverse pass
that rebuilt the stage points from recorded increments, and the report's
samples taken in two walks over the forward mesh.

The library integrates forward only.  The oracles integrate an ODE back
from the end of its interval: on t' = a + b - t the reflected system runs
forward through the same integration loop, and the results are mapped back
to original time here.
"""

import math

import numpy as np

from switchopt import odeint
from switchopt.gradients import DEFAULT_SAMPLES, BackwardRecord, \
    evaluate_gradient, forward_sweep
from switchopt.odeint import PiecewiseOde, integrate_piecewise, \
    integrate_with_quadrature, sample_states
from switchopt.problem import _FLOAT_FAILS, _LAW_ARGS, _float_body, \
    lane_shaped, phase_jacobian, phase_law


def sampled_bundle(prob, cfg, settings=None, sample_count=DEFAULT_SAMPLES,
                   **kwargs):
    """``evaluate_gradient`` of cfg whose forward record carries
    ``sample_count`` report samples, for ``dense_trajectory``."""
    return evaluate_gradient(prob, cfg, settings, fwd=forward_sweep(
        prob, cfg, settings, sample_count), **kwargs)


def reflect(ode):
    """``ode`` on the reflected time t' = a + b - t of its interval [a, b]:
    segment j of the result is segment nseg - 1 - j of ``ode``, with the
    sign of the right-hand side flipped."""
    a, b = ode.segments[0], ode.segments[-1]
    nseg = len(ode.segments) - 1

    def rhs(j, t, x):
        return -ode.rhs(nseg - 1 - j, (a + b) - t, x)

    return PiecewiseOde(dim=ode.dim, segments=(a + b) - ode.segments[::-1],
                        rhs=rhs)


def integrate_backward(ode, x_end, *, settings=None):
    """``integrate_piecewise`` from x_end at ode.segments[-1] back to
    ode.segments[0].  The step_times and breakpoint_states are in original
    time and order; the records stay in reflected time."""
    a, b = ode.segments[0], ode.segments[-1]
    traj = integrate_piecewise(reflect(ode), x_end, settings=settings)
    traj.step_times = ((a + b) - traj.step_times)[::-1]
    traj.breakpoint_states = traj.breakpoint_states[::-1]
    return traj


def sample_backward(ode, traj, sample_times):
    """The states at ``sample_times``, in original time, of the
    ``integrate_backward`` result ``traj`` of ``ode``: ``sample_states`` on
    its reflected records."""
    a, b = ode.segments[0], ode.segments[-1]
    run = reflect(ode)
    return sample_states(run.rhs, run.segments, traj.records,
                         traj.breakpoint_states[::-1],
                         (a + b) - np.asarray(sample_times, dtype=float))


def quadrature_backward(ode, x_end, integrand, *, settings=None):
    """The integral of integrand(j, t, x) over ode's interval, with respect
    to increasing t, while x is integrated back from x_end at
    ode.segments[-1]."""
    a, b = ode.segments[0], ode.segments[-1]
    nseg = len(ode.segments) - 1
    _, quad = integrate_with_quadrature(
        reflect(ode), x_end,
        lambda j, t, x: -integrand(nseg - 1 - j, (a + b) - t, x),
        settings=settings)
    return -quad


# ---------------------------------------------------------------------------
# the reverse pass as it was before records held stage points: a record
# held each step's increments K, the fold rebuilt the stage points from
# them, and the chain took one batched product per step (reference)
# ---------------------------------------------------------------------------

def increments(rhs, j, record, scale):
    """The stage increments K = h scale k of stages 0 .. _RECORDED - 1 of
    segment j's record (t, h, y, P), which the loop took, recomputed from
    the RHS at the recorded points with the loop's products: stage 0's
    value is the segment's first or the FSAL value of the step before,
    whose point the loop took from that step's Z.  On lanes a lane of h = 0
    has K = 0, and its FSAL value is kept."""
    t, h, y, P = record
    S, W, (C, A1) = odeint._STAGES, odeint._WEIGHTED, (odeint._C, odeint._A1)
    K = np.zeros(P.shape)
    with np.errstate(all="ignore"):
        if h.ndim == 1:
            def f(t, z):
                return np.asarray(rhs(j, t, z), dtype=float)
            Z = np.empty((S + 1, y.shape[-1]))
            k = f(t[0], y[0])
            for n in range(len(t)):
                hs = h[n] * scale
                Z[0], Z[1] = y[n], k * hs
                for i in range(1, W):
                    Z[i + 1] = f(t[n] + C[i] * h[n], P[n, i - 1]) * hs
                K[n] = Z[1:W]
                k = f(t[n] + C[W] * h[n], Z[:W + 1].T.dot(A1[W]))
            return K
        Z = np.empty((h.shape[1], S + 1, y.shape[-1]))
        scale = np.broadcast_to(scale, h.shape[1:])[:, None]
        k = rhs(j, t[0], y[0].T).T
        for n in range(len(t)):
            took, hs = h[n] > 0.0, h[n][:, None] * scale
            Z[:, 0], Z[:, 1] = y[n], k * hs
            for i in range(1, W):
                point = np.ascontiguousarray(P[n, :, i - 1])
                Z[:, i + 1] = rhs(j, t[n] + C[i] * h[n], point.T).T * hs
            K[n, took] = Z[took, 1:W]
            point = Z[:, :W + 1].transpose(0, 2, 1) @ A1[W]
            k = np.where(took[:, None], rhs(j, t[n] + C[W] * h[n],
                                            point.T).T, k)
    return K


def rebuilt_stage_points(tau, h, y, K):
    """(times, points) of the _WEIGHTED stages of steps (tau, h, y, K), the
    points rebuilt from the increments by the loops' tableau products."""
    Z = np.concatenate((y[:, None], K[:, :odeint._RECORDED]), axis=1)
    Y = np.stack([y] + [Z[:, :i + 1].transpose(0, 2, 1) @ odeint._A1[i]
                        for i in range(1, odeint._WEIGHTED)], 1)
    return tau[:, None] + np.array(odeint._C[:odeint._WEIGHTED]) \
        * h[:, None], Y


def rebuilt_fold(jacobian, T, records):
    """``odeint._fold_steps`` of records (t, h, y, K), its stage loop
    taking new temporaries at every stage."""
    d, S, folds = records[0][2].shape[-1], odeint._WEIGHTED, []
    eye = np.eye(d)
    for j in range(len(records) - 1, -1, -1):
        shape = records[j][1].shape
        M, Ts = math.prod(shape), np.broadcast_to(T, shape).reshape(-1)
        tau, h, y, K = (v.reshape((M,) + v.shape[len(shape):])
                        for v in records[j])
        D = np.empty((M, d, d))
        for a in range(0, M, odeint._FOLD_BLOCK):
            at = slice(a, a + odeint._FOLD_BLOCK)
            hb, N = h[at], h[at].size
            t, Y = rebuilt_stage_points(tau[at], hb, y[at], K[at])
            hTJ = (hb * Ts[at])[:, None, None, None] * jacobian(
                j, (t * Ts[at, None]).reshape(-1),
                Y.reshape(-1, d)).reshape(N, S, d, d)
            theta = np.zeros((S, N * d * d))
            for i in range(S - 1, -1, -1):
                P = (odeint._A_ROWS[i] @ theta).reshape(N, d, d) \
                    + odeint._B[i] * eye
                theta[i] = (P @ hTJ[:, i]).reshape(-1)
            D[at] = theta.sum(axis=0).reshape(N, d, d)
        folds.insert(0, D.reshape(shape + (d, d)))
    return np.concatenate(folds)


def rebuilt_transitions(prob, fwd):
    """D = G - I of every step of the forward record ``fwd`` by
    ``rebuilt_fold`` of its records with their increments."""
    jacobians = [phase_jacobian(prob, j) for j in range(prob.k + 1)]
    records = [record[:3] + (increments(fwd.rhs, j, record, fwd.T),)
               for j, record in enumerate(fwd.records)]
    return rebuilt_fold(lambda j, t, Y: jacobians[j](t, Y.T).transpose(
        2, 0, 1), fwd.T, records)


def rebuilt_backward_sweep(prob, fwd):
    """``gradients.backward_sweep`` on ``rebuilt_transitions``, the chain
    one batched product per step."""
    x_T = fwd.checkpoints[-1, :prob.n]
    grad = np.asarray(prob.grad_C(x_T), dtype=float)
    D = rebuilt_transitions(prob, fwd)
    lam = np.zeros((len(D) + 1,) + fwd.checkpoints[-1].T.shape)
    want = x_T.shape if grad.ndim > 1 else x_T.shape[:1]
    lam[-1, ..., :prob.n] = lane_shaped(prob, "grad_C", grad, want).T
    for n in range(len(D) - 1, -1, -1):
        lam[n] = lam[n + 1] + (lam[n + 1, ..., None, :] @ D[n])[..., 0, :]
    h = [record[1] for record in fwd.records]
    firsts = np.cumsum([0] + [len(v) for v in h])
    return BackwardRecord(costates=[lam[n].T for n in firsts],
                          lam=lam.swapaxes(1, -1),
                          steps=np.count_nonzero(np.concatenate(h), axis=0))


# ---------------------------------------------------------------------------
# the report's samples as they were before ``sample_states`` returned the
# Case-1 costates and each law gave its control at a point: a second walk
# over the node chain for lam, and the float-body rule written out per
# sample (reference)
# ---------------------------------------------------------------------------

def walked_lam_at_samples(prob, fwd, bwd, tau, phase, x):
    """lam of z = x at the samples x, at tau in ``phase``, of the Case-1
    forward record ``fwd``, from the reverse chain of its backward sweep
    ``bwd``: at a node its lam, else lam_{n+1} (I + D), the reverse pass of
    one step of the method from the sample to the next node n + 1, the
    steps of all phases (none where a phase has no sample past a node) in
    one fold, on the nodes of ``odeint._node_chain``."""
    nodes, _ = odeint._node_chain(fwd.records, 1.0, fwd.checkpoints[-1])
    n = np.searchsorted(nodes, tau, side="right") - 1
    off = tau != nodes[n]
    lam, records = bwd.lam[n], []
    for j in range(prob.k + 1):
        a = np.flatnonzero(off & (phase == j))
        h = nodes[n[a] + 1] - tau[a]
        records.append((tau[a], h, x[a], odeint._step(
            fwd.rhs, j, tau[a], h, x[a], fwd.T)[1] if a.size else x[a, None]))
    jacobians = [phase_jacobian(prob, j) for j in range(prob.k + 1)]
    after = bwd.lam[n[off] + 1]
    D = odeint._fold_steps(lambda j, t, Y: jacobians[j](t, Y.T).transpose(
        2, 0, 1), fwd.T, records)
    lam[off] = after + (after[:, None, :] @ D)[:, 0, :]
    return lam


def walked_dense_trajectory(prob, bundle):
    """``gradients.dense_trajectory`` in two walks: ``sample_states`` for
    z, ``walked_lam_at_samples`` for the Case-1 p, and per sample its
    phase law's float body, or the callback on the sample's NumPy scalar
    and rows where the law has no body or the body raises."""
    fwd, n = bundle.fwd, prob.n
    times = np.linspace(0.0, 1.0, fwd.sample_count) * fwd.T
    tau = times / fwd.T
    phase = np.clip(np.searchsorted(fwd.sigma, tau, side="right") - 1, 0,
                    prob.k)
    z = sample_states(fwd.rhs, fwd.sigma, fwd.records, fwd.checkpoints, tau,
                      fwd.T)
    x = z[:, :n]
    p = z[:, n:] if z.shape[1] > n \
        else walked_lam_at_samples(prob, fwd, bundle.bwd, tau, phase, x)
    laws = [phase_law(prob, j) for j in range(prob.k + 1)]
    controls = np.empty((times.size, prob.m))
    bodies = [(_float_body(ph.law), _LAW_ARGS[ph.law_kind])
              for ph in prob.phases]
    rows = zip(phase.tolist(), times.tolist(), x.tolist(), p.tolist())
    for i, (j, *args) in enumerate(rows):
        body, k = bodies[j]
        try:
            controls[i] = body(*args[:k]) if body else laws[j](
                times[i], x[i], p[i])
        except _FLOAT_FAILS:
            controls[i] = laws[j](times[i], x[i], p[i])
    return times, x, controls, p
