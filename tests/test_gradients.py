import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from switchopt.benchmarks import (
    CATALYST_U_SINGULAR, PROBLEM_NAMES, build_catalyst, build_problem,
    catalyst_switch_times, GODDARD_REFERENCE, JACOBSON_S1,
)
from switchopt import gradients
from switchopt.exceptions import NonFiniteState
from switchopt.gradients import (
    backward_sweep, dense_trajectory, evaluate_gradient, feasibility_margins,
    forward_sweep, free_time_gradient_check, gradcheck,
)
from switchopt import odeint
from switchopt.odeint import _A, _B, _C, IntegratorSettings, PiecewiseOde, \
    integrate_piecewise
from switchopt.optimizer import minimize
from switchopt.problem import ControlPhase, ProblemDef, SwitchConfig, \
    _float_body, on_floats, phase_feasibility, phase_flow, phase_jacobian, \
    phase_law

from oracles import integrate_backward, quadrature_backward, \
    rebuilt_backward_sweep, rebuilt_transitions, sample_backward, \
    sampled_bundle, walked_dense_trajectory

TIGHT = IntegratorSettings(rel_tol=1e-11, abs_tol=1e-11)

CATALYST_C = {1.0: -0.048055685860877,
              4.0: -0.191814356325161,
              12.0: -0.477712020050041}


@pytest.mark.parametrize("T", [1.0, 4.0, 12.0])
def test_catalyst_objective_at_analytic_switches(T):
    prob = build_problem("catalyst1", T=T)
    cfg = SwitchConfig(s=catalyst_switch_times(T))
    fwd = forward_sweep(prob, cfg, TIGHT)
    assert fwd.objective == pytest.approx(CATALYST_C[T], abs=1e-10)


@pytest.mark.parametrize("T", [1.0, 4.0, 12.0])
def test_catalyst_stationary_at_analytic_switches(T):
    prob = build_problem("catalyst1", T=T)
    bundle = evaluate_gradient(
        prob, SwitchConfig(s=catalyst_switch_times(T)), TIGHT)
    np.testing.assert_allclose(bundle.d_s, 0.0, atol=1e-8)


def test_jacobson_stationary_at_root():
    prob = build_problem("jacobson")
    bundle = evaluate_gradient(prob, SwitchConfig(s=np.array([JACOBSON_S1])),
                               TIGHT)
    assert abs(bundle.d_s[0]) < 1e-8


def test_bressan_stationary_at_third():
    prob = build_problem("bressan", T=10.0)
    bundle = evaluate_gradient(prob, SwitchConfig(s=np.array([10.0 / 3.0])),
                               TIGHT)
    assert abs(bundle.d_s[0]) < 1e-9


def test_terminal_costate_matches_objective_gradient():
    prob = build_problem("catalyst1", T=1.0)
    cfg = SwitchConfig(s=np.array([0.15, 0.7]))
    times, xs, _, ps = dense_trajectory(prob, evaluate_gradient(prob, cfg,
                                                                TIGHT))
    np.testing.assert_allclose(ps[-1], prob.grad_C(xs[-1]), atol=1e-9)


def test_bressan_second_costate_linear():
    # p2' = 1 with p2(T) = 0, so p2(t) = t - T along the whole trajectory
    prob = build_problem("bressan", T=10.0)
    cfg = SwitchConfig(s=np.array([3.1]))
    times, _, _, ps = dense_trajectory(prob, sampled_bundle(prob, cfg, TIGHT,
                                                            101))
    np.testing.assert_allclose(ps[:, 1], times - 10.0, atol=1e-8)


def _fd_ds(prob, cfg, j, delta=1e-6):
    hi, lo = cfg.copy(), cfg.copy()
    hi.s = cfg.s.copy()
    lo.s = cfg.s.copy()
    hi.s[j] += delta
    lo.s[j] -= delta
    return (forward_sweep(prob, hi, TIGHT).objective
            - forward_sweep(prob, lo, TIGHT).objective) / (2 * delta)


def test_switch_derivative_matches_fd_catalyst():
    prob = build_problem("catalyst1", T=1.0)
    cfg = SwitchConfig(s=np.array([0.2, 0.6]))
    bundle = evaluate_gradient(prob, cfg, TIGHT)
    for j in range(2):
        assert bundle.d_s[j] == pytest.approx(_fd_ds(prob, cfg, j), rel=1e-6,
                                              abs=1e-9)


def test_switch_derivative_matches_fd_jacobson():
    prob = build_problem("jacobson")
    cfg = SwitchConfig(s=np.array([1.3]))
    bundle = evaluate_gradient(prob, cfg, TIGHT)
    assert bundle.d_s[0] == pytest.approx(_fd_ds(prob, cfg, 0), rel=1e-7)


def test_switch_derivative_converges_with_rejected_steps():
    # the long horizon makes the integrator reject steps; each retry must
    # restart from f(t, y), not from the rejected attempt's last stage
    prob = build_problem("catalyst1", T=12.0)
    cfg = SwitchConfig(s=np.array([0.1, 11.7]))
    loose = evaluate_gradient(prob, cfg,
                              IntegratorSettings(rel_tol=1e-10, abs_tol=1e-10))
    tight = evaluate_gradient(prob, cfg,
                              IntegratorSettings(rel_tol=1e-13, abs_tol=1e-13))
    assert abs(loose.d_s[0] - tight.d_s[0]) <= 5e-11


def test_case2_derivatives_match_fd():
    prob = build_problem("catalyst2", T=1.0)
    cfg = SwitchConfig(s=np.array([0.1, 0.7]), p0=np.array([0.9, 0.8]))
    bundle = evaluate_gradient(prob, cfg, TIGHT)
    delta = 1e-6
    for j in range(2):
        assert bundle.d_s[j] == pytest.approx(_fd_ds(prob, cfg, j), rel=1e-5,
                                              abs=1e-8)
    for i in range(2):
        hi, lo = cfg.copy(), cfg.copy()
        hi.p0 = cfg.p0.copy()
        lo.p0 = cfg.p0.copy()
        hi.p0[i] += delta
        lo.p0[i] -= delta
        fd = (forward_sweep(prob, hi, TIGHT).objective
              - forward_sweep(prob, lo, TIGHT).objective) / (2 * delta)
        assert bundle.d_p0[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_case2_reduces_to_case1_for_state_feedback():
    # with a p-independent singular law the generalized costate block
    # driving d_p0 must vanish and d_s must agree with the Case-1 sweep
    case1 = build_problem("catalyst1", T=1.0)
    case2 = build_catalyst(case=2, constant_singular=True)
    cfg1 = SwitchConfig(s=np.array([0.14, 0.72]))
    cfg2 = SwitchConfig(s=np.array([0.14, 0.72]), p0=np.array([1.0, 0.9]))
    b1 = evaluate_gradient(case1, cfg1, TIGHT)
    b2 = evaluate_gradient(case2, cfg2, TIGHT)
    assert np.max(np.abs(b2.d_p0)) < 1e-7
    np.testing.assert_allclose(b2.d_s, b1.d_s, atol=1e-8)


def test_zero_length_phase_continuity():
    # collapsing the singular arc: objective approaches the two-phase value
    prob = build_problem("catalyst1", T=1.0)
    s_mid = 0.4
    gap = prob.eps_gap
    collapsed = forward_sweep(
        prob, SwitchConfig(s=np.array([s_mid, s_mid + 2 * gap])), TIGHT).objective
    slightly = forward_sweep(
        prob, SwitchConfig(s=np.array([s_mid, s_mid + 50 * gap])),
        TIGHT).objective
    assert collapsed == pytest.approx(slightly, abs=1e-4)


def test_free_time_derivative_matches_fd():
    prob = build_problem("goddard")
    cfg = SwitchConfig(s=np.array([13.0, 21.0]), T=42.0)
    analytic, fd = free_time_gradient_check(prob, cfg, TIGHT)
    assert analytic == pytest.approx(fd, rel=1e-5)


def test_free_time_derivative_with_time_dependent_law():
    # phase 0 thrust 193 (1 - 0.01 t): lam . F misses the explicit-t term
    # of dC/dT, the terminal Hamiltonian does not
    prob = build_problem("goddard")
    thrust = dataclasses.replace(
        prob.phases[0], law=lambda t: np.array([193.0 * (1.0 - 0.01 * t)]))
    prob = dataclasses.replace(prob, phases=(thrust, *prob.phases[1:]))
    cfg = SwitchConfig(s=np.array([13.0, 21.0]), T=42.0)
    analytic, fd = free_time_gradient_check(prob, cfg, TIGHT)
    assert analytic == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_d_T_matches_hamiltonian_quadrature(name):
    # the paper's dC/dT: the integral of lam . F over tau in [0, 1], each
    # phase integrated back from the sweeps' checkpoints
    cfg = {"catalyst1": SwitchConfig(s=np.array([0.15, 0.7])),
           "catalyst2": CATALYST2_CFG,
           "jacobson": SwitchConfig(s=np.array([1.2])),
           "bressan": SwitchConfig(s=np.array([3.0])),
           "goddard": GODDARD_CFG}[name]
    prob = build_problem(name)
    bundle = evaluate_gradient(prob, cfg, TIGHT, with_d_T=True)
    fwd, d, T = bundle.fwd, bundle.fwd.checkpoints.shape[1], bundle.fwd.T
    quad = 0.0
    for j in range(prob.k + 1):
        flow = phase_flow(prob, j)
        ode = PiecewiseOde(dim=2 * d, segments=fwd.sigma[j:j + 2],
                           rhs=_adjoint_rhs(prob, j, T, d))
        quad += quadrature_backward(
            ode, np.concatenate((fwd.checkpoints[j + 1],
                                 bundle.bwd.costates[j + 1])),
            lambda j_, tau, w: w[d:] @ flow(tau * T, w[:d]), settings=TIGHT)
    assert bundle.d_T == pytest.approx(quad, rel=1e-9)


def test_bressan_hamiltonian_integral():
    # H = p.f is constant along an autonomous extremal; at s1 = T/3 the
    # trajectory gives H = -x2(T) = -50/3, confirmed by Simpson quadrature
    # over the dense costate samples
    prob = build_problem("bressan", T=10.0)
    cfg = SwitchConfig(s=np.array([10.0 / 3.0]))
    bundle = sampled_bundle(prob, cfg, TIGHT, 2001, with_d_T=True)
    assert bundle.d_T == pytest.approx(-50.0 / 3.0, abs=1e-7)

    times, xs, _, ps = dense_trajectory(prob, bundle)
    seg = (times > 10.0 / 3.0).astype(int)
    H = np.array([ps[i] @ phase_flow(prob, seg[i])(times[i], xs[i])
                  for i in range(times.size)])
    h = times[1] - times[0]
    simpson = h / 3 * (H[0] + H[-1] + 4 * H[1:-1:2].sum() + 2 * H[2:-2:2].sum())
    assert bundle.d_T == pytest.approx(simpson / 10.0, abs=1e-5)


def test_non_finite_law_raises_under_warnings_as_errors():
    # p0 = 0 makes catalyst2's singular law 0 / 0 at the first switch
    prob = build_problem("catalyst2")
    cfg = SwitchConfig(s=np.array([0.1, 0.7]), p0=np.zeros(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteState):
            evaluate_gradient(prob, cfg)


def test_hamiltonian_jump_equals_ds():
    # dC/ds_j = lam . F_{j-1} - lam . F_j at s_j, from the sweeps' records
    prob = build_problem("catalyst1", T=1.0)
    bundle = evaluate_gradient(prob, SwitchConfig(s=np.array([0.2, 0.6])),
                               TIGHT)
    fwd = bundle.fwd
    for j in range(1, prob.k + 1):
        t, z = fwd.sigma[j] * fwd.T, fwd.checkpoints[j]
        lam = bundle.bwd.costates[j]
        jump = (lam @ phase_flow(prob, j - 1)(t, z)
                - lam @ phase_flow(prob, j)(t, z))
        assert bundle.d_s[j - 1] == pytest.approx(jump, rel=1e-12)


def test_feasibility_margins_reported():
    prob = build_problem("catalyst1", T=1.0)
    bundle = evaluate_gradient(prob, SwitchConfig(s=np.array([0.15, 0.7])),
                               TIGHT)
    margins = feasibility_margins(prob, bundle.fwd)
    assert margins.shape == (3,)
    # bang phases sit exactly on their bound, the singular phase is interior
    assert margins[0] == pytest.approx(0.0, abs=1e-12)
    assert margins[1] > 0.2


def test_phase_between_dense_samples_has_finite_margin():
    # the singular phase [0.1011, 0.1031] holds none of the 201 samples;
    # its checkpoints give it the singular control's margin
    prob = build_problem("catalyst1", T=1.0)
    bundle = evaluate_gradient(
        prob, SwitchConfig(s=np.array([0.1011, 0.1031])), TIGHT)
    times = dense_trajectory(prob, bundle)[0]
    assert not np.any((times >= 0.1011) & (times < 0.1031))
    u = CATALYST_U_SINGULAR
    np.testing.assert_allclose(feasibility_margins(prob, bundle.fwd),
                               [0.0, min(u, 1.0 - u), 0.0], atol=1e-9)


def test_goddard_backward_steps_track_forward_at_optimum():
    # the backward sweep is the reverse pass of the forward sweep's
    # accepted steps: at a free-time optimum it takes exactly those
    prob = build_problem("goddard")
    cfg = SwitchConfig(s=np.array(GODDARD_REFERENCE.s_star),
                       T=GODDARD_REFERENCE.T_star)
    fwd = forward_sweep(prob, cfg, TIGHT)
    bwd = evaluate_gradient(prob, cfg, TIGHT, fwd=fwd).bwd
    assert bwd.steps == sum(h.size for _, h, _, _ in fwd.records)
    assert bwd.steps <= 1.1 * fwd.steps


# ---------------------------------------------------------------------------
# the reverse pass against independent references
# ---------------------------------------------------------------------------

def _adjoint_rhs(prob, j, T, d):
    """RHS of (z, lam) on tau for phase j, z of size d: the adjoint ODE of
    the sweep state, at a point or on lanes (tau (M,), w (2 d, M)), the
    layout in which the integrator takes samples."""
    flow, jacobian = phase_flow(prob, j), phase_jacobian(prob, j)

    def rhs(_, tau, w):
        z, lam = w[:d], w[d:]
        J = jacobian(np.reshape(tau * T, -1), z.reshape(d, -1))
        dlam = -np.einsum("i...,ij...->j...", lam, J.reshape(
            (d, d) + np.shape(tau)))
        return T * np.concatenate((flow(tau * T, z), dlam))
    return rhs


def _adaptive_backward(prob, fwd, settings):
    """lam at 0, s_1, .., T from an adaptive integration of (z, lam)
    backward, phase by phase, with z reset to the forward checkpoint at
    each switch point: the backward sweep before the reverse pass."""
    T, d = fwd.T, fwd.checkpoints.shape[1]
    lam = np.concatenate((prob.grad_C(fwd.checkpoints[-1, :prob.n]),
                          np.zeros(d - prob.n)))
    costates = [lam]
    for j in range(prob.k, -1, -1):
        ode = PiecewiseOde(dim=2 * d, segments=fwd.sigma[j:j + 2],
                           rhs=_adjoint_rhs(prob, j, T, d))
        back = integrate_backward(
            ode, np.concatenate((fwd.checkpoints[j + 1], lam)),
            settings=settings)
        lam = back.breakpoint_states[0][d:]
        costates.insert(0, lam)
    return costates


def _replayed_objective(prob, fwd, j0, n0, z):
    """C at T of the forward record's accepted steps replayed from z at the
    start of step n0 of phase j0: the same step lengths, stage times and
    tableau, with no error test."""
    T = fwd.T
    for j, (taus, hs, _, _) in enumerate(fwd.records[j0:], j0):
        flow = phase_flow(prob, j)
        for t0, h in zip(taus[n0 if j == j0 else 0:],
                         hs[n0 if j == j0 else 0:]):
            k = np.zeros((odeint._STAGES, z.size))
            for i in range(odeint._WEIGHTED):
                k[i] = T * flow((t0 + _C[i] * h) * T,
                                z + h * (_A[i] @ k[:i]))
            z = z + h * (_B @ k)
    return prob.C(z[:prob.n])


# one off-optimum configuration per problem, and the tolerance of its sweep
FROZEN_CASES = {
    "catalyst1": SwitchConfig(s=np.array([0.15, 0.7])),
    "catalyst2": SwitchConfig(s=np.array([0.14, 0.72]),
                              p0=np.array([0.87, 0.83])),
    "jacobson": SwitchConfig(s=np.array([1.3])),
    "bressan": SwitchConfig(s=np.array([3.1])),
    "goddard": SwitchConfig(s=np.array([13.9, 21.7]), T=43.1),
}


@pytest.mark.parametrize("name", list(FROZEN_CASES))
def test_reverse_pass_is_the_frozen_mesh_derivative(name):
    # lam_n = dC(z_N)/dz_n of the computed solution on its own mesh: a
    # central difference of C over z_n, with the forward's step sequence
    # replayed, at each phase's first node (the first node and each
    # switch) and at a step start inside each phase
    prob = build_problem(name)
    bundle = evaluate_gradient(prob, FROZEN_CASES[name])
    fwd, chain = bundle.fwd, bundle.bwd.lam
    first = 0                             # the phase's first row of chain
    for j, (_, hs, zs, _) in enumerate(fwd.records):
        for n in sorted({0, hs.size // 2}):
            z = zs[n]
            fd = np.empty(z.size)
            for i in range(z.size):
                dz = np.zeros(z.size)
                dz[i] = 1e-5 * max(1.0, abs(z[i]))
                fd[i] = (_replayed_objective(prob, fwd, j, n, z + dz)
                         - _replayed_objective(prob, fwd, j, n, z - dz)) \
                    / (2 * dz[i])
            assert np.max(np.abs(fd - chain[first + n])) \
                <= 1e-7 * np.max(np.abs(fd))
        first += hs.size


@pytest.mark.parametrize("name", list(FROZEN_CASES))
def test_reverse_pass_matches_adaptive_adjoint_integration(name):
    # at tol 1e-11 both give lam at every checkpoint to O(tol)
    prob = build_problem(name)
    bundle = evaluate_gradient(prob, FROZEN_CASES[name], TIGHT)
    ref = _adaptive_backward(prob, bundle.fwd, TIGHT)
    for got, want in zip(bundle.bwd.costates, ref):
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("name", list(FROZEN_CASES))
def test_one_integration_and_six_adjoint_rows_per_step(monkeypatch, name):
    # the reverse pass integrates nothing, and takes the stage Jacobians
    # of every accepted forward step at the _WEIGHTED stages that enter
    # its end, the FSAL stage excluded, from one phase_jacobian call per
    # phase, the phases in any order
    prob = build_problem(name)
    accepted, calls = [], []

    def integrate(ode, *args, **kwargs):
        traj = integrate_piecewise(ode, *args, **kwargs)
        accepted.append(traj.step_times.size - (len(ode.segments) - 1))
        return traj

    def jacobian(prob, j):
        batched = phase_jacobian(prob, j)

        def counted(t, z):
            calls.append((j, t.size))
            return batched(t, z)
        return counted

    monkeypatch.setattr(gradients, "integrate_piecewise", integrate)
    monkeypatch.setattr(gradients, "phase_jacobian", jacobian)
    bundle = evaluate_gradient(prob, FROZEN_CASES[name], TIGHT,
                               with_d_T=True)
    assert len(accepted) == 1
    assert bundle.bwd.steps == accepted[0]
    assert sorted(j for j, _ in calls) == list(range(prob.k + 1))
    assert sum(size for _, size in calls) == odeint._WEIGHTED * accepted[0]


def _bump_problem(c, w):
    """x1' = 1, x2' = u with the state feedback u = 1 / (1 + ((x1 - c) /
    w)^2) in a box [0, 0.5] on phase 0, and u = 0 after s_1: u leaves its
    box only for |t - c| < w."""
    lower, upper = (lambda t: np.zeros(1)), (lambda t: np.full(1, 0.5))
    return ProblemDef(
        name="bump", n=2, m=1, x0=np.zeros(2), T=1.0, free_time=False,
        case=1,
        phases=(ControlPhase("state", lambda t, x: np.array(
                    [1.0 / (1.0 + ((x[0] - c) / w) ** 2)]), lower, upper),
                ControlPhase("constant", lambda t: np.zeros(1), lower,
                             upper)),
        f=lambda x, u: np.array([1.0, u[0]]),
        f_x=lambda x, u: np.zeros((2, 2)),
        f_u=lambda x, u: np.array([[0.0], [1.0]]),
        C=lambda x: x[1], grad_C=lambda x: np.array([0.0, 1.0]))


def test_margin_sees_a_violation_between_dense_samples():
    # the dense samples lie 0.005 apart, at 0.5 and 0.505, where u is 0.025;
    # the accepted steps resolve the peak u = 1 between them
    prob = _bump_problem(c=0.5025, w=4e-4)
    fwd = forward_sweep(prob, SwitchConfig(s=np.array([0.9])))
    times = np.linspace(0.0, 1.0, fwd.sample_count) * fwd.T
    assert np.all(np.abs(times - 0.5025) > 6 * 4e-4)
    margins = feasibility_margins(prob, fwd)
    assert margins[0] < -0.4
    assert margins[1] == 0.0


def test_margin_sees_a_violation_between_nodes():
    # u leaves its box [0, 0.5] only for |t - 0.4| < 0.05 and enters no
    # state, so the steps grow geometrically from the first, and phase 0
    # has no node there (its nodes 0.266 and 0.516 are the nearest); stage
    # points of the step across it do
    prob = dataclasses.replace(_bump_problem(c=0.4, w=0.05),
                               f=lambda x, u: np.array([1.0, 0.0]))
    fwd = forward_sweep(prob, SwitchConfig(s=np.array([0.9])))
    margin = phase_feasibility(prob, 0)
    tau, z = odeint._node_chain(fwd.records[:1], fwd.sigma[1],
                                fwd.checkpoints[1])
    assert min(np.min(margin(t, x)) for t, x in zip(tau * fwd.T, z)) >= 0.0
    assert feasibility_margins(prob, fwd)[0] < -0.05


def test_one_point_jacobian_is_refused_by_name():
    # the bump toy's f_x returns one (2, 2) matrix whatever the number of
    # points: the backward sweep's Jacobian call on its constant phase
    # names the problem, the phase and the lane-axis contract
    prob = _bump_problem(c=0.5, w=0.1)
    with pytest.raises(ValueError, match=r"bump: phase 1's flow Jacobian "
                       r"has shape \(2, 2\), not \(2, 2, \d+\): .* lane "
                       r"axis last"):
        evaluate_gradient(prob, SwitchConfig(s=np.array([0.9])))


def test_one_point_flow_is_refused_by_the_fallback_jacobian():
    # the bump toy's state law has no law_x, so its Jacobian is a central
    # difference of the flow on lanes; an f that sums over the lanes works
    # one point at a time in the forward sweep and is refused there,
    # naming the problem and the phase
    prob = dataclasses.replace(
        _bump_problem(c=0.5, w=0.1),
        f=lambda x, u: np.array([1.0, np.sum(u)]),
        f_x=lambda x, u: np.zeros((2, 2) + np.shape(x)[1:]))
    with pytest.raises(ValueError, match=r"bump: phase 0's flow has shape "
                       r"\(2,\), not \(2, \d+\): .* lane axis last"):
        evaluate_gradient(prob, SwitchConfig(s=np.array([0.9])))


def test_lane_free_flow_part_is_refused_by_the_fallback_jacobian():
    # the bump toy's f builds np.array([1.0, u[0]]), whose first component
    # has no lane axis: fine at a point, so the forward sweep runs, but on
    # the fallback Jacobian's lanes NumPy's own inhomogeneous-shape error,
    # which the refusal names with the problem, the phase and the contract
    prob = dataclasses.replace(
        _bump_problem(c=0.5, w=0.1),
        f_x=lambda x, u: np.zeros((2, 2) + np.shape(x)[1:]))
    with pytest.raises(ValueError, match=r"bump: phase 0's flow fails on "
                       r"lanes \(.*inhomogeneous.*\): .* lane axis last"):
        evaluate_gradient(prob, SwitchConfig(s=np.array([0.9])))


# The sweeps resolve each phase once into closures; the finite-difference
# law Jacobian and the numeric Case-2 Hamiltonian gradients are their
# fallback paths when a problem gives no analytic derivative.
GODDARD_CFG = SwitchConfig(s=np.array([13.9, 21.7]), T=43.1)
CATALYST2_CFG = SwitchConfig(s=np.array([0.14, 0.72]),
                             p0=np.array([0.87, 0.83]))


def _assert_bundles_close(got_prob, got, want_prob, want, rtol):
    assert got.objective == pytest.approx(want.objective, rel=rtol)
    np.testing.assert_allclose(got.d_s, want.d_s, rtol=rtol)
    if want.d_p0 is not None:
        np.testing.assert_allclose(got.d_p0, want.d_p0, rtol=rtol)
    if want.d_T is not None:
        assert got.d_T == pytest.approx(want.d_T, rel=rtol)
    np.testing.assert_allclose(feasibility_margins(got_prob, got.fwd),
                               feasibility_margins(want_prob, want.fwd),
                               rtol=rtol)


def test_fd_law_jacobian_sweep_matches_analytic():
    prob = build_problem("goddard")
    stripped = dataclasses.replace(prob, phases=tuple(
        dataclasses.replace(ph, law_x=None) for ph in prob.phases))
    assert any(ph.law_x is not None for ph in prob.phases)
    want = evaluate_gradient(prob, GODDARD_CFG, TIGHT)
    got = evaluate_gradient(stripped, GODDARD_CFG, TIGHT)
    assert np.min(np.abs(want.d_s)) > 1e-4 and abs(want.d_T) > 1e-4
    _assert_bundles_close(stripped, got, prob, want, 1e-6)


def test_numeric_case2_derivs_sweep_matches_analytic():
    prob = build_problem("catalyst2")
    numeric = dataclasses.replace(prob, case2_derivs=None)
    want = evaluate_gradient(prob, CATALYST2_CFG, TIGHT)
    got = evaluate_gradient(numeric, CATALYST2_CFG, TIGHT)
    assert np.min(np.abs(want.d_s)) > 1e-4
    assert np.min(np.abs(want.d_p0)) > 1e-4
    _assert_bundles_close(numeric, got, prob, want, 1e-6)


def _float_law(ph):
    """The same law returning a Python float instead of a 1-vector."""
    law = ph.law
    if ph.law_kind == "constant":
        return lambda t: float(law(t)[0])
    if ph.law_kind == "state":
        return lambda t, x: float(law(t, x)[0])
    return lambda t, x, p: float(law(t, x, p)[0])


@pytest.mark.parametrize("name, cfg", [("goddard", GODDARD_CFG),
                                       ("catalyst2", CATALYST2_CFG)])
def test_scalar_float_law_integrates(name, cfg):
    # a law that returns a float serves one point at a time: the forward
    # sweep, which calls the laws so, integrates it to the very bits
    prob = build_problem(name)
    floats = dataclasses.replace(prob, phases=tuple(
        dataclasses.replace(ph, law=_float_law(ph)) for ph in prob.phases))
    want = forward_sweep(prob, cfg, TIGHT)
    got = forward_sweep(floats, cfg, TIGHT)
    assert got.objective == want.objective
    assert np.array_equal(got.checkpoints, want.checkpoints)


@pytest.mark.parametrize("name, cfg", [("goddard", GODDARD_CFG),
                                       ("catalyst2", CATALYST2_CFG)])
def test_dense_trajectory_from_bundle_integrates_nothing(monkeypatch, name,
                                                         cfg):
    prob = build_problem(name)
    bundle = evaluate_gradient(prob, cfg, TIGHT)
    # from a sweep of its own, the same trajectory bit for bit
    want = dense_trajectory(prob, evaluate_gradient(prob, cfg, TIGHT))

    def forbidden(*args, **kwargs):
        raise AssertionError("dense_trajectory integrated again")

    for fn in ("integrate_piecewise", "forward_sweep", "backward_sweep"):
        monkeypatch.setattr(gradients, fn, forbidden)
    got = dense_trajectory(prob, bundle)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    if prob.case == 1:
        # the reported costate is the lam whose jumps gave d_s
        assert np.array_equal(got[3][[0, -1]],
                              np.array(bundle.bwd.costates)[[0, -1]])


def _whole_horizon_costate(prob, fwd, settings, tau):
    """lam of z at the times ``tau`` from one backward integration of
    (z, lam) over all phases, with no reset of z at the switch points.

    This is how the Case-1 reported costate used to be computed, kept as an
    independent reference for the backward sweep's lam.
    """
    T, d = fwd.T, fwd.checkpoints.shape[1]
    phases = [_adjoint_rhs(prob, j, T, d) for j in range(prob.k + 1)]

    lam_end = np.concatenate((prob.grad_C(fwd.checkpoints[-1, :prob.n]),
                              np.zeros(d - prob.n)))
    ode = PiecewiseOde(dim=2 * d, segments=fwd.sigma,
                       rhs=lambda j, tau, w: phases[j](j, tau, w))
    back = integrate_backward(
        ode, np.concatenate((fwd.checkpoints[-1], lam_end)), settings=settings)
    return sample_backward(ode, back, tau)[:, d:]


# at T = 1 the dense samples are 0.005 apart: none falls in the middle phase
EMPTY_MIDDLE_CFG = SwitchConfig(s=np.array([0.1011, 0.1031]))


@pytest.mark.parametrize("name, T, cfg", [
    ("catalyst1", None, SwitchConfig(s=np.array([0.15, 0.7]))),
    ("catalyst1", None, EMPTY_MIDDLE_CFG),
    ("catalyst2", None, CATALYST2_CFG),
    ("jacobson", None, SwitchConfig(s=np.array([1.3]))),
    ("bressan", 10.0, SwitchConfig(s=np.array([3.1]))),
    ("goddard", None, GODDARD_CFG),
], ids=["catalyst1", "catalyst1-empty-phase", "catalyst2", "jacobson",
        "bressan", "goddard"])
def test_sampled_costate_matches_whole_horizon_integration(name, T, cfg):
    prob = build_problem(name, T=T)
    bundle = evaluate_gradient(prob, cfg, TIGHT)
    fwd = bundle.fwd
    times, _, _, got = dense_trajectory(prob, bundle)
    phase = np.searchsorted(fwd.sigma[1:-1] * fwd.T, times, side="right")
    empty = np.bincount(phase, minlength=prob.k + 1) == 0
    assert empty.tolist() == ([False, True, False] if cfg is EMPTY_MIDDLE_CFG
                              else [False] * (prob.k + 1))
    # lam at the nodes of the forward mesh, where the backward sweep gives it
    ref = _whole_horizon_costate(prob, fwd, TIGHT, np.append(
        np.concatenate([tau for tau, _, _, _ in fwd.records]), 1.0))
    assert np.max(np.abs(bundle.bwd.lam - ref)) <= 1e-8 * np.max(np.abs(ref))
    if prob.case == 1:
        # the reported costate, carried from the next node to each sample
        # by the reverse pass of one step
        ref = _whole_horizon_costate(prob, fwd, TIGHT, times / fwd.T)
        assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


# one off-optimum configuration per problem
CONFIGS = {
    "catalyst1": (None, SwitchConfig(s=np.array([0.15, 0.7]))),
    "catalyst2": (None, CATALYST2_CFG),
    "jacobson": (None, SwitchConfig(s=np.array([1.3]))),
    "bressan": (10.0, SwitchConfig(s=np.array([3.1]))),
    "goddard": (None, GODDARD_CFG),
}


@pytest.mark.parametrize("tol", [1e-8, 1e-11])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_stage_points_are_where_the_scalar_loop_called_the_rhs(name, tol):
    # the fold and the margins read each accepted step's stage points from
    # the record, its start and the points it recorded, by
    # odeint._stage_points; they are the points at which the scalar loop
    # evaluated them, bit for bit: stages 1 .. _WEIGHTED - 1 in the step's
    # attempt, stage 0 in the FSAL call of the step before or the
    # segment's first call.  The segment's second call, the starting
    # step's probe, is the one RHS point that is no stage.  The sweep's ODE
    # is dz/dtau = T rhs: with scale T the integration repeats the sweep's
    # records
    T, cfg = CONFIGS[name]
    settings = IntegratorSettings(rel_tol=tol, abs_tol=tol)
    fwd = forward_sweep(build_problem(name, T=T), cfg, settings)
    calls = [[] for _ in fwd.records]

    def rhs(j, tau, z):
        calls[j].append((tau, z.copy()))
        return fwd.rhs(j, tau, z)

    traj = integrate_piecewise(PiecewiseOde(len(fwd.checkpoints[0]),
                                            fwd.sigma, rhs, scale=fwd.T),
                               fwd.checkpoints[0], settings=settings)
    for got, want in zip(traj.records, fwd.records):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    per, W = odeint._STAGES - 1, odeint._WEIGHTED
    for j, record in enumerate(traj.records):
        tau, Y = odeint._stage_points(*record)
        times = np.array([c[0] for c in calls[j]])
        points = np.array([c[1] for c in calls[j]])
        # the segment's first call, the probe, then stages 1 .. _STAGES - 1
        # per attempt
        start = times[0], points[0]
        times, points = times[2:].reshape(-1, per), \
            points[2:].reshape(-1, per, points.shape[1])
        for n in range(len(tau)):
            a, = np.flatnonzero((times[:, 0] == tau[n, 1])
                                & (points[:, 0] == Y[n, 1]).all(axis=1))
            assert start[0] == tau[n, 0] and np.array_equal(start[1], Y[n, 0])
            assert np.array_equal(times[a, :W - 1], tau[n, 1:])
            assert np.array_equal(points[a, :W - 1], Y[n, 1:])
            start = times[a, -1], points[a, -1]


def _callback_controls(prob, bundle):
    """The report samples' controls by one phase-law callback call per
    sample, on NumPy's scalars and rows (reference)."""
    times, xs, _, ps = dense_trajectory(prob, bundle)
    fwd = bundle.fwd
    phase = np.clip(np.searchsorted(fwd.sigma, times / fwd.T, side="right")
                    - 1, 0, prob.k)
    laws = [phase_law(prob, j) for j in range(prob.k + 1)]
    us = np.empty((times.size, prob.m))
    for i, t in enumerate(times):
        us[i] = laws[phase[i]](t, xs[i], ps[i])
    return us


@pytest.mark.parametrize("tol", [1e-8, 1e-11])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_report_controls_are_the_callbacks_bits(name, tol):
    # the controls trajectory.csv writes come from the laws' float bodies
    # on each sample's floats, with the bits of the callbacks on arrays
    T, cfg = CONFIGS[name]
    prob = build_problem(name, T=T)
    bundle = evaluate_gradient(prob, cfg, IntegratorSettings(rel_tol=tol,
                                                             abs_tol=tol))
    got = dense_trajectory(prob, bundle)[2]
    assert got.tobytes() == _callback_controls(prob, bundle).tobytes()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_report_controls_take_the_callback_where_a_body_cannot(name):
    # phase 0's law has no float body, and the other phases' bodies raise
    # on floats past mid-horizon: those samples call the callback, the
    # others the body, and every control keeps the callback's bits
    T, cfg = CONFIGS[name]
    prob = build_problem(name, T=T)
    bundle = evaluate_gradient(prob, cfg)
    on_floats_at = []

    def raising(law):
        body = _float_body(law)

        def part(t, *args):
            if type(t) is float:
                on_floats_at.append(t)
                if t > 0.5 * bundle.fwd.T:
                    raise ZeroDivisionError("past mid-horizon")
            return body(t, *args)
        return on_floats(part)

    phases = [dataclasses.replace(ph, law=raising(ph.law))
              for ph in prob.phases]
    law0 = prob.phases[0].law
    phases[0] = dataclasses.replace(phases[0], law=lambda *a: law0(*a))
    changed = dataclasses.replace(prob, phases=tuple(phases))
    got = dense_trajectory(changed, bundle)[2]
    assert got.tobytes() == _callback_controls(prob, bundle).tobytes()
    assert on_floats_at and any(t > 0.5 * bundle.fwd.T for t in on_floats_at)


def _near_optimum(name, moves):
    """name's built-in and its reference optimum, catalyst2's with the p0
    of CATALYST2_CFG, with s, p0 and T each moved as ``_moved`` moves
    them."""
    prob = build_problem(name)
    ref = prob.reference
    return prob, _moved(SwitchConfig(
        s=ref.s_star, p0=CATALYST2_CFG.p0 if prob.case == 2 else None,
        T=ref.T_star), moves)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["catalyst1", "catalyst2", "jacobson", "bressan",
                             "goddard"]),
       moves=st.lists(st.floats(-1e-2, 1e-2), min_size=4, max_size=4),
       sample_count=st.integers(2, 301),
       tol=st.sampled_from([1e-8, 1e-11]))
@example(name="catalyst1", moves=[0.0] * 4, sample_count=2, tol=1e-8)
@example(name="goddard", moves=[0.0] * 4, sample_count=301, tol=1e-11)
def test_report_samples_keep_the_two_walks_bytes(name, moves, sample_count,
                                                tol):
    # one walk, the Case-1 costates from sample_states and each control
    # from its law's point, gives times, x, u and p byte-equal to the two
    # walks it replaced (tests/oracles.py), near each optimum.  With 2
    # samples, at 0 and T, no phase has a sample off the nodes
    prob, cfg = _near_optimum(name, moves)
    bundle = sampled_bundle(prob, cfg, IntegratorSettings(
        rel_tol=tol, abs_tol=tol), sample_count)
    got = dense_trajectory(prob, bundle)
    want = walked_dense_trajectory(prob, bundle)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cfg", [
    SwitchConfig(s=np.array([0.1, 0.7]), p0=np.array([0.9, 0.8])),
    SwitchConfig(s=catalyst_switch_times(1.0), p0=np.array([0.8736, 0.8259])),
], ids=["readme-start", "optimum"])
def test_catalyst2_sweep_starts_each_phase_at_its_estimate(cfg):
    # each phase starts at the Hairer-Wanner estimate rather than climbing
    # from a fixed first step: a catalyst2 forward sweep at tol 1e-11 takes
    # at most 16 attempts (13 measured; 26 and 29 from a fixed 1e-3)
    assert forward_sweep(build_problem("catalyst2"), cfg, TIGHT).steps <= 16


# forward-sweep attempts at tol 1e-11 at CONFIGS, measured before the loops
# held stage increments h T k in place of the stages T k
ATTEMPTS_TIGHT = {"catalyst1": 17, "catalyst2": 15, "jacobson": 25,
                  "bressan": 23, "goddard": 33}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_tight_sweep_attempts_stay_put(name):
    # a reformulation of the sweep that inflates its mesh fails here: on
    # physical time, where the Hairer-Wanner start is not the one on tau,
    # jacobson, bressan and goddard take 4, 8 and 11 attempts more
    T, cfg = CONFIGS[name]
    steps = forward_sweep(build_problem(name, T=T), cfg, TIGHT).steps
    assert steps <= ATTEMPTS_TIGHT[name] + 1


@pytest.mark.parametrize("name", list(CONFIGS))
def test_gradient_evaluates_no_control_bound(name):
    # the control-box margins are a separate call on the forward record
    T, cfg = CONFIGS[name]
    calls = []

    def counted(bound):
        def wrapper(t):
            calls.append(t)
            return bound(t)
        return wrapper

    prob = build_problem(name, T=T)
    prob = dataclasses.replace(prob, phases=tuple(
        dataclasses.replace(ph, lower=counted(ph.lower),
                            upper=counted(ph.upper))
        for ph in prob.phases))
    bundle = evaluate_gradient(prob, cfg, TIGHT)
    assert calls == []
    assert np.all(np.isfinite(feasibility_margins(prob, bundle.fwd)))
    assert calls


@pytest.mark.parametrize("name, cfg", [
    ("catalyst1", SwitchConfig(s=np.array([0.1, 0.7]))),
    ("goddard", SwitchConfig(s=np.array([13.0, 21.0]), T=42.0)),
])
def test_solve_reports_margin_of_final_sweep(name, cfg):
    prob = build_problem(name)
    report = minimize(prob, cfg)
    want = float(np.min(feasibility_margins(prob, report.final_bundle.fwd)))
    assert report.worst_margin == want


@pytest.mark.parametrize("name", ["catalyst2", "goddard"])
def test_gradcheck_evaluates_gradient_once(monkeypatch, name):
    T, cfg = CONFIGS[name]
    prob = build_problem(name, T=T)
    bundles = []

    def recorded(*args, **kwargs):
        bundles.append(evaluate_gradient(*args, **kwargs))
        return bundles[-1]

    monkeypatch.setattr(gradients, "evaluate_gradient", recorded)
    rows = gradcheck(prob, cfg, TIGHT)
    assert len(bundles) == 1
    b = bundles[0]
    want = [("d_s1", b.d_s[0]), ("d_s2", b.d_s[1])]
    if cfg.p0 is not None:
        want += [("d_p01", b.d_p0[0]), ("d_p02", b.d_p0[1])]
    if prob.free_time:
        want.append(("d_T", b.d_T))
    assert [row[:2] for row in rows] == want
    for _, a, fd in rows:
        assert a == pytest.approx(fd, rel=1e-5, abs=1e-8)
    if prob.free_time:
        assert rows[-1][1:] == free_time_gradient_check(prob, cfg, TIGHT)


# CI's `switchopt gradcheck` configurations, at each problem's own horizon
GRADCHECK_CONFIGS = {
    "goddard": SwitchConfig(s=np.array([13.0, 21.0]), T=42.0),
    "catalyst2": SwitchConfig(s=np.array([0.1, 0.7]), p0=np.array([0.9, 0.8])),
    "catalyst1": SwitchConfig(s=np.array([0.1, 0.7])),
    "jacobson": SwitchConfig(s=np.array([1.4])),
    "bressan": SwitchConfig(s=np.array([3.0])),
}


def _scalar_difference(prob, bump, delta):
    """(C(bump(delta)) - C(bump(-delta))) / (2 delta), each C from one
    scalar forward sweep."""
    hi, lo = (forward_sweep(prob, bump(d), TIGHT).objective
              for d in (delta, -delta))
    return (hi - lo) / (2 * delta)


def _bumped(cfg, name, i, d):
    c = cfg.copy()
    getattr(c, name)[i] += d
    return c


def _bumped_T(cfg, d):
    # s / T held fixed, as the unit-interval reformulation of dC/dT does
    return SwitchConfig(s=cfg.s / cfg.T * (cfg.T + d), p0=cfg.p0,
                        T=cfg.T + d)


@pytest.mark.parametrize("name", list(GRADCHECK_CONFIGS))
def test_difference_columns_are_the_scalar_oracle(name):
    # each gradcheck difference, and perfbench's free_time_gradient_check
    # call, bit for bit against the scalar oracle above: steps 1e-6 in s
    # and p0, 1e-6 max(1, |T|) in T
    prob, cfg = build_problem(name), GRADCHECK_CONFIGS[name]
    want = [_scalar_difference(prob, lambda d, i=i: _bumped(cfg, "s", i, d),
                               1e-6) for i in range(prob.k)]
    if cfg.p0 is not None:
        want += [_scalar_difference(
            prob, lambda d, i=i: _bumped(cfg, "p0", i, d), 1e-6)
            for i in range(cfg.p0.size)]
    if prob.free_time:
        want.append(_scalar_difference(
            prob, lambda d: _bumped_T(cfg, d), 1e-6 * max(1.0, cfg.T)))
    assert [fd for _, _, fd in gradcheck(prob, cfg, TIGHT)] == want
    if prob.free_time:
        assert free_time_gradient_check(prob, cfg, TIGHT, delta=1e-6)[1] \
            == _scalar_difference(prob, lambda d: _bumped_T(cfg, d), 1e-6)


@pytest.mark.parametrize("delta", [0.0, -1e-6, np.nan, np.inf])
def test_bad_difference_step_is_refused_before_any_sweep(monkeypatch, delta):
    prob = build_problem("goddard")
    swept = []
    for sweep in ("forward_sweep", "evaluate_gradient"):
        monkeypatch.setattr(gradients, sweep,
                            lambda *a, sweep=sweep, **k: swept.append(sweep))
    with pytest.raises(ValueError, match=r"goddard: the central-difference "
                       r"step in T is .*; it must be finite and > 0"):
        free_time_gradient_check(prob, GRADCHECK_CONFIGS["goddard"], TIGHT,
                                 delta=delta)
    assert swept == []


# ---------------------------------------------------------------------------
# lockstep lanes against evaluate_gradient, point by point
# ---------------------------------------------------------------------------

def _assert_lanes_match_scalar(prob, cfgs, settings, stride=1,
                               relative=False, exact=False,
                               to_objective=False):
    """evaluate_gradient over the list cfgs against evaluate_gradient at
    every stride-th one: the same step attempts forward, the forward's
    accepted steps backward, and objective, d_s, d_p0 and d_T to 1e-12,
    times max(1, |value|) when ``relative`` and max(1, |C|, |value|) when
    ``to_objective``; when ``exact``, also the very objective and
    checkpoints."""
    lanes = evaluate_gradient(prob, cfgs, settings)
    B = len(cfgs)
    assert lanes.objective.shape == (B,)
    assert lanes.d_s.shape == (prob.k, B)
    assert lanes.fwd.checkpoints.shape[::2] == (prob.k + 2, B)
    for b in range(0, B, stride):
        bundle = evaluate_gradient(prob, cfgs[b], settings)
        if exact:
            assert lanes.objective[b] == bundle.objective
            assert np.array_equal(lanes.fwd.checkpoints[..., b],
                                  bundle.fwd.checkpoints)
        pairs = [(lanes.objective[b], bundle.objective),
                 *zip(lanes.d_s[:, b], bundle.d_s)]
        for name in ("d_p0", "d_T"):
            want = getattr(bundle, name)
            got = getattr(lanes, name)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.shape(got) == np.shape(want) + (B,)
                pairs += zip(np.reshape(got[..., b], -1), np.reshape(want, -1))
        floor = max(1.0, abs(bundle.objective)) if to_objective else 1.0
        for got, want in pairs:
            scale = max(floor, abs(want)) if relative or to_objective \
                else 1.0
            assert abs(got - want) <= 1e-12 * scale
        assert lanes.fwd.steps[b] == bundle.fwd.steps
        assert lanes.bwd.steps[b] == bundle.bwd.steps


# a grid value v as a configuration near the README start: catalyst2's p0
# and goddard's horizon move with v
GRID_CONFIGS = {
    "jacobson": lambda v: SwitchConfig(s=np.array([v])),
    "bressan": lambda v: SwitchConfig(s=np.array([v])),
    "catalyst1": lambda v: SwitchConfig(s=np.array([0.1 * v, 0.7])),
    "catalyst2": lambda v: SwitchConfig(s=np.array([0.1 * v, 0.7]),
                                        p0=np.array([0.9 * v, 0.8])),
    "goddard": lambda v: SwitchConfig(s=np.array([13.0 * v, 21.0]),
                                      T=42.0 / v),
}


@pytest.mark.parametrize("tol", [None, 1e-11], ids=["default", "tol1e-11"])
@pytest.mark.parametrize("name, grid, stride", [
    ("jacobson", np.linspace(1.38, 1.48, 200), 13),   # the README profile
    ("bressan", np.linspace(3.0, 3.7, 15), 1),
    # 64 lanes: a phase's recorded steps span several 256-step fold blocks
    ("jacobson", np.linspace(1.2, 1.6, 64), 5),
    ("bressan", np.linspace(3.0, 3.7, 64), 3),
    ("catalyst2", np.linspace(0.99, 1.01, 16), 1),
    ("goddard", np.linspace(0.99, 1.01, 16), 1),
    ("catalyst1", np.linspace(0.99, 1.01, 16), 1),
])
def test_lanes_match_scalar_sweeps(name, grid, stride, tol):
    # a lane repeats its scalar sweep's forward integration bit for bit,
    # except on goddard, whose lanes take exp by np.exp and a point by
    # math.exp: there the lanes agree to 1e-12 relative
    settings = IntegratorSettings() if tol is None \
        else IntegratorSettings(rel_tol=tol, abs_tol=tol)
    _assert_lanes_match_scalar(
        build_problem(name), [GRID_CONFIGS[name](v) for v in grid],
        settings, stride, relative=name == "goddard",
        exact=name != "goddard")


# the centres of the problems drawn near a configuration: the README
# starts, and goddard's optimum.  catalyst2's singular-feedback pole and
# goddard's burn-out leave no region at large in which every draw
# integrates
DRAWN_CENTRES = {
    "catalyst2": [SwitchConfig(s=np.array([0.1, 0.7]),
                               p0=np.array([0.9, 0.8]))],
    "goddard": [SwitchConfig(s=np.array([13.0, 21.0]), T=42.0),
                SwitchConfig(s=GODDARD_REFERENCE.s_star,
                             T=GODDARD_REFERENCE.T_star)],
}


def _size(cfg):
    """The number of values of cfg: s, p0 and T."""
    return cfg.s.size + (0 if cfg.p0 is None else cfg.p0.size) \
        + (cfg.T is not None)


def _moved(cfg, moves):
    """cfg with s, then p0, then T each scaled by 1 + its move."""
    moves, out = 1.0 + np.asarray(moves), cfg.copy()
    out.s = out.s * moves[:out.s.size]
    if out.p0 is not None:
        out.p0 = out.p0 * moves[out.s.size:out.s.size + out.p0.size]
    if out.T is not None:
        out.T = out.T * moves[-1]
    return out


def _drawn_grid(name):
    """(name, 1-8 configurations that validate_config accepts): switch
    points anywhere, or within 1 % relative of a centre of
    DRAWN_CENTRES, with its p0 and T."""
    prob = build_problem(name)
    if name in DRAWN_CENTRES:
        point = st.sampled_from(DRAWN_CENTRES[name]).flatmap(
            lambda c: st.lists(st.floats(-1e-2, 1e-2), min_size=_size(c),
                               max_size=_size(c)).map(
                lambda m: _moved(c, m)))
    else:
        gap = prob.eps_gap
        point = st.lists(st.floats(gap, prob.T - gap), min_size=prob.k,
                         max_size=prob.k).map(sorted).filter(
            lambda s: np.min(np.diff([0.0, *s, prob.T])) >= gap).map(
            lambda s: SwitchConfig(s=np.array(s)))
    return st.tuples(st.just(name), st.lists(point, min_size=1, max_size=8))


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(["jacobson", "bressan", "catalyst1", "catalyst2",
                             "goddard"]).flatmap(_drawn_grid))
@example(case=("jacobson", [SwitchConfig(s=np.array([0.189453125]))]))
def test_lanes_match_scalar_sweeps_on_drawn_grids(case):
    # the configurations as the lanes of one sweep, each against its own
    # scalar sweep at the default tolerance.  Except on catalyst1 and
    # goddard a lane repeats its scalar sweep's forward integration bit
    # for bit; d_s is relative, because far from the optimum jacobson's C
    # and d_s reach 1e3-1e4, and the lanes fold their steps in other
    # blocks than the scalar pass.  Near its optimum goddard's d_s and d_T
    # are O(1) differences of Hamiltonian terms far larger than its C of
    # -1.85e4, rounded apart by np.exp against math.exp, so they are taken
    # relative to C
    name, grid = case
    _assert_lanes_match_scalar(
        build_problem(name), grid, IntegratorSettings(), relative=True,
        exact=name not in ("catalyst1", "goddard"),
        to_objective=name == "goddard")


def _band_problem(log):
    """x1' = u1, x2' = u2, x3' = x1^2 on [0, 1], Case 1.  Phase 0 holds u =
    (2 cos 2t + 1, 1).  Phase 1 holds u2 = 0 and u1 = 2 cos 2t, which keeps
    x1 - x2 = sin 2t, at a stage point within 3e-5 of that and NaN
    elsewhere, so that oversized trial steps go non-finite and halve.
    ``log`` receives (t, NaN lanes) of each phase-1 law call."""
    def band(t, x):
        off = np.abs(x[0] - x[1] - np.sin(2.0 * t)) > 3e-5
        u1 = np.where(off, np.nan, 2.0 * np.cos(2.0 * t))
        log.append((t, off))
        return np.array([u1, 0.0 * u1])

    def f_x(x, u):
        J = np.zeros((3, 3) + np.shape(x[0]))
        J[2, 0] = 2.0 * x[0]
        return J

    def f_u(x, u):
        J = np.zeros((3, 2) + np.shape(x[0]))
        J[0, 0] = J[1, 1] = 1.0
        return J

    box = (lambda t: np.full(2, -5.0)), (lambda t: np.full(2, 5.0))
    return ProblemDef(
        name="band", n=3, m=2, x0=np.zeros(3), T=1.0, free_time=False,
        case=1,
        phases=(ControlPhase("constant", lambda t: np.array(
                    [2.0 * np.cos(2.0 * t) + 1.0, 1.0 + 0.0 * t]), *box),
                ControlPhase("state", band, *box,
                             law_x=lambda t, x: np.zeros((2,) + x.shape))),
        f=lambda x, u: np.array([u[0], u[1], x[0] ** 2]),
        f_x=f_x, f_u=f_u, C=lambda x: x[0] + x[1] + x[2],
        grad_C=lambda x: np.ones(3))


def test_lanes_fold_no_stage_of_an_attempt_that_failed():
    # a lane whose attempt goes non-finite while another lane accepts
    # records h = 0 and its node state, finite, at every stage, not the
    # failed attempt's points: its step folds to the identity, where
    # 0 * NaN would make its lam NaN
    log = []
    prob = _band_problem(log)
    cfgs = [SwitchConfig(s=np.array([s])) for s in np.linspace(0.3, 0.6, 6)]
    lanes = evaluate_gradient(prob, cfgs)
    # the forward's phase-1 law calls (the Jacobian's take _WEIGHTED B
    # points): one at the segment start, the starting step's probe, then
    # _STAGES - 1 per attempt
    calls = [c for c in log if np.size(c[0]) == len(cfgs)]
    per = odeint._STAGES - 1
    attempts = [calls[i:i + per] for i in range(2, len(calls), per)]
    assert np.isfinite(lanes.d_s).all()
    for b, cfg in enumerate(cfgs):
        assert abs(lanes.d_s[0, b] - evaluate_gradient(prob, cfg).d_s[0]) \
            <= 1e-12

    # each recorded phase-1 iteration's attempt, found by the stage-1 times
    # of its accepting lanes (T = 1, so tau is t)
    failed_beside_an_accept = 0
    for j, (taus, hs, ys, Ps) in enumerate(lanes.fwd.records):
        for tau, h, y, P in zip(taus, hs, ys, Ps):
            idle = h == 0.0
            assert np.isfinite(P[idle]).all()
            assert (P[idle] == y[idle, None]).all()
            if j == 1:
                stages = next(a for a in attempts if np.array_equal(
                    a[0][0][~idle], (tau + _C[1] * h)[~idle]))
                failed_beside_an_accept += any(
                    off[idle].any() for _, off in stages[:4])
    assert failed_beside_an_accept > 0


def _same_bytes(got, want):
    return (got is None) == (want is None) and (got is None or (
        np.shape(got) == np.shape(want)
        and np.asarray(got).tobytes() == np.asarray(want).tobytes()))


def _assert_reverse_pass_is_the_rebuilt_one(prob, cfg, settings=None):
    """D, lam, the costates, the objective and d_s, d_p0 and d_T of one
    evaluation byte-equal to those of the reverse pass that rebuilt each
    step's stage points from its recorded increments (tests/oracles.py)."""
    got = evaluate_gradient(prob, cfg, settings, with_d_T=True)
    fwd = got.fwd
    assert _same_bytes(odeint._fold_steps(gradients._stage_jacobian(prob),
                                          fwd.T, fwd.records),
                       rebuilt_transitions(prob, fwd))
    with mock.patch.object(gradients, "backward_sweep",
                           rebuilt_backward_sweep):
        want = evaluate_gradient(prob, cfg, settings, with_d_T=True, fwd=fwd)
    for name in ("objective", "d_s", "d_p0", "d_T"):
        assert _same_bytes(getattr(got, name), getattr(want, name)), name
    assert _same_bytes(got.bwd.lam, want.bwd.lam)
    assert all(_same_bytes(a, b)
               for a, b in zip(got.bwd.costates, want.bwd.costates))
    return fwd


def _driven_problem(n, seed, omega):
    """x' = A x + b u + sin(x) / 10 on [0, 2], n states, Case 1, C = |x|^2
    / 2, with a random A and a random unit b.  u = cos(omega t), then the
    state law u = -tanh(x_1), then u = -1: omega sets the first phase's
    step count, about 380-460 at omega = 300 and tol 1e-11."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) / np.sqrt(n) - np.eye(n)
    b, x0 = rng.normal(size=n), rng.normal(size=n)
    b /= np.linalg.norm(b)

    def lanes(v, x):   # v with x's lane axes after its own
        return v.reshape(v.shape + (1,) * (np.ndim(x) - 1))

    def f_x(x, u):
        J = np.broadcast_to(lanes(A, x), (n, n) + np.shape(x)[1:]).copy()
        J[range(n), range(n)] += 0.1 * np.cos(x)
        return J

    def law_x(t, x):
        J = np.zeros((1,) + np.shape(x))
        J[0, 0] = np.tanh(x[0]) ** 2 - 1.0
        return J

    box = (lambda t: np.full(1, -5.0)), (lambda t: np.full(1, 5.0))
    return ProblemDef(
        name="driven", n=n, m=1, x0=x0, T=2.0, free_time=False, case=1,
        phases=(ControlPhase("constant",
                             lambda t: np.array([np.cos(omega * t)]), *box),
                ControlPhase("state", lambda t, x: np.array(
                    [-np.tanh(x[0])]), *box, law_x=law_x),
                ControlPhase("constant",
                             lambda t: np.array([-1.0 + 0.0 * t]), *box)),
        f=lambda x, u: np.tensordot(A, x, 1) + np.multiply.outer(b, u[0])
        + 0.1 * np.sin(x),
        f_x=f_x, f_u=lambda x, u: np.broadcast_to(
            lanes(b[:, None], x), (n, 1) + np.shape(x)[1:]),
        C=lambda x: 0.5 * np.sum(x ** 2, axis=0), grad_C=lambda x: x)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2 ** 16),
       lanes=st.booleans(), long=st.booleans())
@example(n=9, seed=0, lanes=True, long=True)
@example(n=1, seed=1, lanes=False, long=True)
def test_reverse_pass_keeps_the_rebuilt_bytes(n, seed, lanes, long):
    # the fold reads the stage points the forward loop recorded where it
    # rebuilt them from the increments, its stage loop works in place, and
    # the chain takes one product per step without the lane axis: D, lam
    # and every derivative keep their bytes, on a point and on lanes.  A
    # long first phase folds in more than one block
    prob = _driven_problem(n, seed, 300.0 if long else 3.0)
    cfg = SwitchConfig(s=np.array([0.9, 1.4]))
    fwd = _assert_reverse_pass_is_the_rebuilt_one(
        prob, _three_lanes(cfg) if lanes else cfg, TIGHT)
    if long:
        assert len(fwd.records[0][1]) > odeint._FOLD_BLOCK


@pytest.mark.parametrize("lanes", [False, True], ids=["scalar", "lanes"])
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_reverse_pass_keeps_the_rebuilt_bytes_on_the_built_ins(name, lanes):
    T, cfg = CONFIGS[name]
    _assert_reverse_pass_is_the_rebuilt_one(
        build_problem(name, T=T), _three_lanes(cfg) if lanes else cfg, TIGHT)


def test_reverse_pass_keeps_the_rebuilt_bytes_beside_a_failed_lane():
    # lanes whose attempts go non-finite beside lanes that accept (see
    # test_lanes_fold_no_stage_of_an_attempt_that_failed)
    cfgs = [SwitchConfig(s=np.array([s])) for s in np.linspace(0.3, 0.6, 6)]
    _assert_reverse_pass_is_the_rebuilt_one(_band_problem([]), cfgs)


@pytest.mark.parametrize("B", [1, 200])
@pytest.mark.parametrize("name", ["jacobson", "bressan", "catalyst1"])
def test_lanes_reverse_pass_folds_each_phase_in_bounded_blocks(monkeypatch,
                                                              name, B):
    # the lanes' counterpart of test_one_integration_and_six_adjoint_rows_
    # per_step: the reverse pass reads the stages the forward loop
    # recorded, so it calls f and the laws only inside the Jacobian.  It
    # folds each phase's record whole: at B = 1 one Jacobian call per
    # phase, and at B = 200 calls of at most _WEIGHTED * _FOLD_BLOCK stage
    # points, which together cover the _WEIGHTED stage points of every
    # recorded step once
    prob = build_problem(name)
    grid = np.linspace(0.28, 0.34, B)
    cfgs = [SwitchConfig(s=np.array([s * prob.T])) for s in grid] \
        if prob.k == 1 else \
        [SwitchConfig(s=np.array([a, 0.72])) for a in 0.1 + grid - 0.28]
    fwd = forward_sweep(prob, cfgs)
    want = backward_sweep(prob, fwd)
    calls, inside = [], []

    def jacobian(prob, j):
        batched = phase_jacobian(prob, j)

        def counted(t, z):
            calls.append((j, t.size))
            inside.append(j)
            try:
                return batched(t, z)
            finally:
                inside.pop()
        return counted

    def guarded(callback):
        def call(*args):
            assert inside, "a flow or law call outside the Jacobian"
            return callback(*args)
        return call

    guarded_prob = dataclasses.replace(
        prob, f=guarded(prob.f), phases=tuple(
            dataclasses.replace(ph, law=guarded(ph.law))
            for ph in prob.phases))
    monkeypatch.setattr(gradients, "phase_jacobian", jacobian)
    got = backward_sweep(guarded_prob, fwd)
    phases = [j for j, _ in calls]
    if B == 1:
        assert sorted(phases) == list(range(prob.k + 1))
    else:
        assert sorted(set(phases)) == list(range(prob.k + 1))
        assert max(size for _, size in calls) \
            <= odeint._WEIGHTED * odeint._FOLD_BLOCK
    for j, (_, h, _, _) in enumerate(fwd.records):
        assert sum(size for i, size in calls if i == j) \
            == odeint._WEIGHTED * h.size
    assert np.array_equal(got.costates, want.costates)
    assert np.array_equal(got.lam, want.lam)
    assert np.array_equal(got.steps, want.steps)


def _three_lanes(cfg):
    """cfg with its switch points scaled by 0.99, 1 and 1.01, as lanes."""
    return [SwitchConfig(s=cfg.s * v, p0=cfg.p0, T=cfg.T)
            for v in (0.99, 1.0, 1.01)]


@pytest.mark.parametrize("lanes", [False, True], ids=["scalar", "lanes"])
@pytest.mark.parametrize("name", ["catalyst1", "bressan", "goddard"])
def test_no_fold_block_crosses_a_switch(monkeypatch, name, lanes):
    # with blocks of 4 steps a phase may span several, none of which
    # takes a step of another phase: the Jacobian calls run from the last
    # phase to the first, and phase j's calls hold, in turn, the stage
    # points of its steps, each once, in [sigma_j T, sigma_{j+1} T].  lam
    # is the default blocks' bit for bit on catalyst1, whose d^2 = 4 leaves
    # the fold's dgemv no tail, and within 1e-14 max|lam| where d = 3
    T, cfg = CONFIGS[name]
    prob = build_problem(name, T=T)
    fwd = forward_sweep(prob, _three_lanes(cfg) if lanes else cfg, TIGHT)
    want = backward_sweep(prob, fwd)
    calls = []

    def jacobian(prob, j):
        batched = phase_jacobian(prob, j)

        def logged(t, z):
            calls.append((j, t))
            return batched(t, z)
        return logged

    monkeypatch.setattr(gradients, "phase_jacobian", jacobian)
    monkeypatch.setattr(odeint, "_FOLD_BLOCK", 4)
    got = backward_sweep(prob, fwd)
    phases = [j for j, _ in calls]
    assert phases == sorted(phases, reverse=True)
    assert len(phases) > prob.k + 1
    S, d = odeint._WEIGHTED, fwd.checkpoints.shape[1]
    for j, (tau, h, y, P) in enumerate(fwd.records):
        scale = np.broadcast_to(fwd.T, h.shape).reshape(-1)
        t, _ = odeint._stage_points(tau.reshape(-1), h.reshape(-1),
                                    y.reshape(-1, d),
                                    P.reshape((h.size,) + P.shape[-2:]))
        t = t * scale[:, None]
        mine = [tj for i, tj in calls if i == j]
        assert len(mine) == -(-h.size // 4)
        assert max(tj.size for tj in mine) <= 4 * S
        assert np.array_equal(np.concatenate(mine), t.reshape(-1))
        lo, hi = (np.broadcast_to(fwd.sigma[i], h.shape).reshape(-1) * scale
                  for i in (j, j + 1))
        # a clipped step's stage at c = 1 may round past its end
        slack = 4 * np.spacing(hi)[:, None]
        assert np.all((t >= lo[:, None] - slack) & (t <= hi[:, None] + slack))
    if name == "catalyst1":
        assert np.array_equal(got.lam, want.lam)
    else:
        assert np.max(np.abs(got.lam - want.lam)) \
            <= 1e-14 * np.max(np.abs(want.lam))
    assert np.array_equal(got.steps, want.steps)


@pytest.mark.parametrize("name", ["jacobson", "catalyst1"])
def test_samples_only_at_nodes_fold_no_step(monkeypatch, name):
    # two samples, at 0 and T, are both nodes of the forward mesh: the
    # Case-1 costate there is the backward sweep's lam, and no phase has a
    # sample off the nodes to fold, so no Jacobian is called
    T, cfg = CONFIGS[name]
    prob = build_problem(name, T=T)
    bundle = sampled_bundle(prob, cfg, sample_count=2)
    bwd = bundle.bwd
    calls = []

    def jacobian(prob, j):
        batched = phase_jacobian(prob, j)

        def counted(t, z):
            calls.append(j)
            return batched(t, z)
        return counted

    monkeypatch.setattr(gradients, "phase_jacobian", jacobian)
    times, _, _, p = dense_trajectory(prob, bundle)
    assert times.size == 2
    assert np.array_equal(p[0], bwd.costates[0])
    assert np.array_equal(p[-1], bwd.costates[-1])
    assert calls == []


@pytest.mark.parametrize("lanes", [False, True], ids=["scalar", "lanes"])
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_backward_record_layout(name, lanes):
    # lam is the reverse chain, each node of the forward mesh once: each
    # phase's N_j step starts (iterations I_j on lanes), then T, sum_j N_j
    # + 1 rows.  The row that ends phase j - 1 is the row that starts phase
    # j, costates[j], and the costates are rows of the chain, not copies
    T, cfg = CONFIGS[name]
    prob = build_problem(name, T=T)
    fwd = forward_sweep(prob, _three_lanes(cfg) if lanes else cfg)
    bwd = backward_sweep(prob, fwd)
    sizes = [len(h) for _, h, _, _ in fwd.records]
    assert len(bwd.lam) == sum(sizes) + 1
    assert len(bwd.costates) == prob.k + 2
    starts = np.cumsum([0] + sizes)
    assert starts[-1] == len(bwd.lam) - 1
    for j in range(prob.k + 2):
        assert np.array_equal(bwd.lam[starts[j]], bwd.costates[j])
        assert np.shares_memory(bwd.lam, bwd.costates[j])


def test_lanes_refuse_a_problem_without_lanes(monkeypatch, tmp_path):
    # the bump toy's f drops the lane axis: its lane sweep raises
    # ValueError, and the profile command exits 3
    from switchopt import cli
    from switchopt.optimizer import derivative_profile

    prob = _bump_problem(c=0.5, w=0.1)
    with pytest.raises(ValueError):
        derivative_profile(prob, [0.3, 0.6])
    monkeypatch.setattr(cli, "build_problem", lambda name, T=None: prob)
    assert cli.main(["profile", "--problem", "bump", "--grid", "0.2,0.8,4",
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("name", ["catalyst2", "jacobson"])
def test_lanes_match_scalar_on_case2_and_without_law_x(name):
    # a Case-2 problem, and a state-feedback phase without law_x, whose
    # flow Jacobian is a central difference of F, point by point
    prob = build_problem(name)
    if name == "jacobson":
        prob = dataclasses.replace(prob, phases=tuple(
            dataclasses.replace(ph, law_x=None) for ph in prob.phases))
    cfgs = [GRID_CONFIGS[name](v) for v in (
        np.linspace(1.38, 1.48, 5) if name == "jacobson"
        else np.linspace(0.99, 1.01, 5))]
    _assert_lanes_match_scalar(prob, cfgs, IntegratorSettings(), exact=True)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_one_configuration_and_a_list_take_their_own_loops(monkeypatch,
                                                          name):
    # the argument's type alone selects the loop: one SwitchConfig never
    # reaches the lockstep loop, and a list never the scalar one
    def forbidden(*args, **kwargs):
        raise AssertionError("the other loop ran")

    T, cfg = CONFIGS[name]
    prob = build_problem(name, T=T)
    with monkeypatch.context() as m:
        m.setattr(odeint, "_integrate_lane_segment", forbidden)
        one = evaluate_gradient(prob, cfg)
    with monkeypatch.context() as m:
        m.setattr(odeint, "_integrate_segment", forbidden)
        lanes = evaluate_gradient(prob, [cfg, cfg])
    assert np.shape(one.objective) == ()
    assert lanes.objective.shape == (2,)


@pytest.mark.parametrize("name", ["jacobson", "catalyst2"])
def test_list_record_refuses_samples_and_margins_by_name(name):
    T, cfg = CONFIGS[name]
    prob = build_problem(name, T=T)
    bundle = evaluate_gradient(prob, [cfg, cfg])
    for read in (lambda: dense_trajectory(prob, bundle),
                 lambda: feasibility_margins(prob, bundle.fwd)):
        with pytest.raises(ValueError,
                           match="a list record carries no report samples"):
            read()


def _no_integration(monkeypatch):
    """Make any forward integration of ``gradients`` fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep was integrated")
    monkeypatch.setattr(gradients, "integrate_piecewise", forbidden)


def test_empty_configuration_list_is_refused_before_any_sweep(monkeypatch):
    prob = build_problem("jacobson")
    _no_integration(monkeypatch)
    for sweep in (forward_sweep, evaluate_gradient):
        with pytest.raises(ValueError, match="jacobson: the list of "
                           "configurations is empty"):
            sweep(prob, [])


def test_non_integer_sample_count_is_refused_at_the_sweep(monkeypatch):
    # before the integration, not later in dense_trajectory
    T, cfg = CONFIGS["jacobson"]
    prob = build_problem("jacobson", T=T)
    _no_integration(monkeypatch)
    for count, message in ((2.5, "'float' object cannot be interpreted as "
                                 "an integer"),
                           (True, "sample_count must be an integer, got "
                                  "True")):
        with pytest.raises(TypeError, match=message):
            forward_sweep(prob, cfg, sample_count=count)


@pytest.mark.parametrize("name", ["catalyst1", "goddard"])
def test_forward_record_carries_no_sample_array(name):
    # the sweep keeps the count of the report samples; dense_trajectory
    # takes their times and phases
    T, cfg = CONFIGS[name]
    prob = build_problem(name, T=T)
    fwd = forward_sweep(prob, cfg)
    arrays = [f.name for f in dataclasses.fields(fwd)
              if isinstance(getattr(fwd, f.name), np.ndarray)]
    assert sorted(arrays) == ["checkpoints", "sigma"]
    assert fwd.sample_count == gradients.DEFAULT_SAMPLES
    assert forward_sweep(prob, [cfg, cfg]).sample_count is None
    fwd = forward_sweep(prob, cfg, sample_count=np.int64(1))
    assert fwd.sample_count == 2


@pytest.mark.parametrize("lanes", [False, True], ids=["scalar", "lanes"])
@pytest.mark.parametrize("name", ["catalyst2", "goddard"])
def test_one_evaluation_builds_each_phase_flow_once(monkeypatch, name,
                                                    lanes):
    # the Hamiltonian jumps and d_T take the forward record's own flows
    T, cfg = CONFIGS[name]
    prob = build_problem(name, T=T)
    built = []

    def flow(prob, j):
        built.append(j)
        return phase_flow(prob, j)

    monkeypatch.setattr(gradients, "phase_flow", flow)
    evaluate_gradient(prob, [cfg, cfg] if lanes else cfg, with_d_T=True)
    assert sorted(built) == list(range(prob.k + 1))
