"""Lockstep lanes: B fixed-time Case-1 configurations swept as one.

The forward sweep integrates the lanes with ``odeint.integrate_lanes``, in
which each lane takes the steps of the scalar sweep of its configuration,
and records each phase's accepted steps as the scalar sweep does, with a
lane axis after the step axis.  The backward sweep is the scalar sweep's
reverse pass, ``gradients._reverse_pass`` phase by phase.  Arrays carry
the lane axis last: states (n, B), times (B,), the layout every model
callback takes (see ``ProblemDef``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gradients import GradientBundle, _resolved, _reverse_pass, _switch_jumps
from .odeint import PiecewiseOde, integrate_lanes
from .problem import horizon, phase_flow, validate_config

__all__ = [
    "LaneRecord",
    "forward_lanes",
    "backward_lanes",
    "evaluate_lanes",
]


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

def _require_lanes(prob):
    """Raise ValueError unless the lane sweeps can take ``prob``: Case 1,
    and an analytic law_x for every state law."""
    if prob.case != 1:
        raise ValueError(f"{prob.name}: lane sweeps take Case-1 problems")
    for j, ph in enumerate(prob.phases):
        if ph.law_kind == "state" and ph.law_x is None:
            raise ValueError(f"{prob.name}: lane sweeps need phase {j}'s "
                             "law_x")


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
    # forward sweeps: per phase, the (I, B) accepted steps (tau, h, x, K)
    records: Optional[list] = None


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
    flows = _resolved(phase_flow, prob)

    def rhs(j, tau, x):
        return T * flows[j](tau * T, x)

    ode = PiecewiseOde(dim=prob.n, segments=sigma, rhs=rhs)
    states, steps, records = integrate_lanes(
        ode, np.repeat(prob.x0[:, None], T.size, axis=1), settings)
    ckpt = np.array(states)
    return LaneRecord(checkpoints=ckpt, sigma=sigma, T=T, steps=steps,
                      objective=np.asarray(prob.C(ckpt[-1]), dtype=float),
                      records=records)


def backward_lanes(prob, fwd):
    """``backward_sweep`` of the lanes of ``fwd``: the reverse pass of its
    recorded steps by ``gradients._reverse_pass``, phase by phase, with
    no flow or law call outside the stage Jacobians; a lane whose h is 0
    keeps its lam.  It keeps lam at the checkpoints only: a fixed-time
    profile reads only the Hamiltonian jumps."""
    n, B = prob.n, fwd.T.size
    lam = np.array(np.broadcast_to(
        np.reshape(prob.grad_C(fwd.checkpoints[-1]), (n, -1)),
        (n, B)).T)                        # lane-major (B, n) from here on
    costates, steps = [lam.T], 0
    for j in range(prob.k, -1, -1):
        lam = _reverse_pass(prob, j, fwd.T, fwd.records[j], lam)[0]
        steps = steps + np.count_nonzero(fwd.records[j][1], axis=0)
        costates.insert(0, lam.T)
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
    d_s = _switch_jumps(_resolved(phase_flow, prob), fwd, bwd.checkpoints,
                        _lane_dot)
    return GradientBundle(objective=fwd.objective, d_s=d_s, d_p0=None,
                          d_T=None, fwd=fwd, bwd=bwd)
