"""Backward integrations for the test oracles, by time reflection, and
gradient bundles with a chosen number of report samples.

The library integrates forward only.  The oracles integrate an ODE back
from the end of its interval: on t' = a + b - t the reflected system runs
forward through the same integration loop, and the results are mapped back
to original time here.
"""

import numpy as np

from switchopt.gradients import DEFAULT_SAMPLES, evaluate_gradient, \
    forward_sweep
from switchopt.odeint import PiecewiseOde, integrate_piecewise, \
    integrate_with_quadrature, sample_states


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
