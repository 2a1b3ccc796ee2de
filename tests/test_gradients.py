import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from switchopt.benchmarks import (
    PROBLEM_NAMES, build_catalyst, build_problem, catalyst_singular_value,
    catalyst_switch_times, CatalystParams, GODDARD_REFERENCE, JACOBSON_S1,
)
from switchopt import gradients
from switchopt.exceptions import NonFiniteState
from switchopt.gradients import (
    dense_trajectory, evaluate_gradient, feasibility_margins, forward_sweep,
    free_time_gradient_check, gradcheck,
)
from switchopt.lanes import backward_lanes, evaluate_lanes, forward_lanes
from switchopt import odeint
from switchopt.odeint import _A, _B, _C, IntegratorSettings, PiecewiseOde, \
    integrate_piecewise
from switchopt.optimizer import minimize
from switchopt.problem import ControlPhase, ProblemDef, SwitchConfig, \
    phase_feasibility, phase_flow, phase_jacobian

from oracles import integrate_backward, quadrature_backward

TIGHT = IntegratorSettings(rel_tol=1e-11, abs_tol=1e-11)

CATALYST_C = {1.0: -0.048055685860877,
              4.0: -0.191814356325161,
              12.0: -0.477712020050041}


@pytest.mark.parametrize("T", [1.0, 4.0, 12.0])
def test_catalyst_objective_at_analytic_switches(T):
    prob = build_problem("catalyst1", T=T)
    cfg = SwitchConfig(s=catalyst_switch_times(CatalystParams(T=T)))
    fwd = forward_sweep(prob, cfg, TIGHT)
    assert fwd.objective == pytest.approx(CATALYST_C[T], abs=1e-10)


@pytest.mark.parametrize("T", [1.0, 4.0, 12.0])
def test_catalyst_stationary_at_analytic_switches(T):
    prob = build_problem("catalyst1", T=T)
    bundle = evaluate_gradient(prob,
                               SwitchConfig(s=catalyst_switch_times(CatalystParams(T=T))),
                               TIGHT)
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
    times, xs, _, ps = dense_trajectory(prob, cfg, TIGHT)
    np.testing.assert_allclose(ps[-1], prob.grad_C(xs[-1]), atol=1e-9)


def test_bressan_second_costate_linear():
    # p2' = 1 with p2(T) = 0, so p2(t) = t - T along the whole trajectory
    prob = build_problem("bressan", T=10.0)
    cfg = SwitchConfig(s=np.array([3.1]))
    times, _, _, ps = dense_trajectory(prob, cfg, TIGHT, sample_count=101)
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
    case2 = build_catalyst(CatalystParams(case=2), constant_singular=True)
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
    bundle = evaluate_gradient(prob, cfg, TIGHT, with_d_T=True)
    assert bundle.d_T == pytest.approx(-50.0 / 3.0, abs=1e-7)

    times, xs, _, ps = dense_trajectory(prob, cfg, TIGHT, sample_count=2001)
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
    assert not np.any(bundle.fwd.phase == 1)
    u = catalyst_singular_value(CatalystParams())
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
    lam = np.concatenate((prob.grad_C(fwd.checkpoint_states[-1]),
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
    fwd, nodal = bundle.fwd, bundle.bwd.nodal
    first = 0                             # the phase's first row of nodal
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
            assert np.max(np.abs(fd - nodal[first + n])) \
                <= 1e-7 * np.max(np.abs(fd))
        first += hs.size + 1


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
    assert np.all(np.abs(fwd.times - 0.5025) > 6 * 4e-4)
    margins = feasibility_margins(prob, fwd)
    assert margins[0] < -0.4
    assert margins[1] == 0.0


def test_margin_sees_a_violation_between_nodes():
    # u leaves its box [0, 0.5] only for |t - 0.5| < 0.05 and enters no
    # state, so the steps grow geometrically from the first, and phase 0
    # has no node there; stage points of the step across it do
    prob = dataclasses.replace(_bump_problem(c=0.5, w=0.05),
                               f=lambda x, u: np.array([1.0, 0.0]))
    fwd = forward_sweep(prob, SwitchConfig(s=np.array([0.9])))
    margin = phase_feasibility(prob, 0)
    tau, z = gradients._phase_nodes(fwd)[0]
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


def test_dense_trajectory_reuses_forward_record():
    prob = build_problem("goddard")
    bundle = evaluate_gradient(prob, GODDARD_CFG, TIGHT)
    reused = dense_trajectory(prob, GODDARD_CFG, TIGHT, bundle=bundle)
    for got, want in zip(reused, dense_trajectory(prob, GODDARD_CFG, TIGHT)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name, cfg", [("goddard", GODDARD_CFG),
                                       ("catalyst2", CATALYST2_CFG)])
def test_dense_trajectory_from_bundle_integrates_nothing(monkeypatch, name,
                                                         cfg):
    prob = build_problem(name)
    bundle = evaluate_gradient(prob, cfg, TIGHT)
    want = dense_trajectory(prob, cfg, TIGHT)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense_trajectory integrated again")

    for fn in ("integrate_piecewise", "forward_sweep", "backward_sweep"):
        monkeypatch.setattr(gradients, fn, forbidden)
    got = dense_trajectory(prob, cfg, TIGHT, bundle=bundle)
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

    lam_end = np.concatenate((prob.grad_C(fwd.checkpoint_states[-1]),
                              np.zeros(d - prob.n)))
    back = integrate_backward(
        PiecewiseOde(dim=2 * d, segments=fwd.sigma,
                     rhs=lambda j, tau, w: phases[j](j, tau, w)),
        np.concatenate((fwd.checkpoints[-1], lam_end)), settings=settings,
        sample_times=tau)
    return back.sample_states[:, d:]


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
    empty = np.bincount(fwd.phase, minlength=prob.k + 1) == 0
    assert empty.tolist() == ([False, True, False] if cfg is EMPTY_MIDDLE_CFG
                              else [False] * (prob.k + 1))
    # lam at the nodes of the forward mesh, where the backward sweep gives it
    ref = _whole_horizon_costate(prob, fwd, TIGHT, np.concatenate(
        [tau for tau, _ in gradients._phase_nodes(fwd)]))
    assert np.max(np.abs(bundle.bwd.nodal - ref)) <= 1e-8 * np.max(np.abs(ref))
    if prob.case == 1:
        # the reported costate, carried from the next node to each sample
        # by the reverse pass of one step
        ref = _whole_horizon_costate(prob, fwd, TIGHT, fwd.times / fwd.T)
        got = dense_trajectory(prob, cfg, TIGHT, bundle=bundle)[3]
        assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


# one off-optimum configuration per problem
CONFIGS = {
    "catalyst1": (None, SwitchConfig(s=np.array([0.15, 0.7]))),
    "catalyst2": (None, CATALYST2_CFG),
    "jacobson": (None, SwitchConfig(s=np.array([1.3]))),
    "bressan": (10.0, SwitchConfig(s=np.array([3.1]))),
    "goddard": (None, GODDARD_CFG),
}


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


# ---------------------------------------------------------------------------
# lockstep lanes against evaluate_gradient, point by point
# ---------------------------------------------------------------------------

def _assert_lanes_match_scalar(prob, cfgs, settings, stride=1,
                               relative=False, exact=False):
    """evaluate_lanes over cfgs against evaluate_gradient at every stride-th
    one: the same step attempts forward, the forward's accepted steps
    backward, and objective and d_s to 1e-12, times max(1, |value|) when
    ``relative``; when ``exact``, also the very objective and checkpoints."""
    lanes = evaluate_lanes(prob, cfgs, settings)
    assert lanes.d_s.shape == (prob.k, len(cfgs))
    for b in range(0, len(cfgs), stride):
        bundle = evaluate_gradient(prob, cfgs[b], settings)
        if exact:
            assert lanes.objective[b] == bundle.objective
            assert np.array_equal(lanes.fwd.checkpoints[..., b],
                                  bundle.fwd.checkpoints)
        for got, want in [(lanes.objective[b], bundle.objective),
                          *zip(lanes.d_s[:, b], bundle.d_s)]:
            scale = max(1.0, abs(want)) if relative else 1.0
            assert abs(got - want) <= 1e-12 * scale
        assert lanes.fwd.steps[b] == bundle.fwd.steps
        assert lanes.bwd.steps[b] == bundle.bwd.steps


@pytest.mark.parametrize("tol", [None, 1e-11], ids=["default", "tol1e-11"])
@pytest.mark.parametrize("name, grid, stride", [
    ("jacobson", np.linspace(1.38, 1.48, 200), 13),   # the README profile
    ("bressan", np.linspace(3.0, 3.7, 15), 1),
    # 64 lanes: a phase's recorded steps span several 256-step fold blocks
    ("jacobson", np.linspace(1.2, 1.6, 64), 5),
    ("bressan", np.linspace(3.0, 3.7, 64), 3),
])
def test_lanes_match_scalar_sweeps(name, grid, stride, tol):
    # a lane repeats its scalar sweep's forward integration bit for bit
    settings = IntegratorSettings() if tol is None \
        else IntegratorSettings(rel_tol=tol, abs_tol=tol)
    _assert_lanes_match_scalar(
        build_problem(name), [SwitchConfig(s=np.array([s])) for s in grid],
        settings, stride, exact=True)


def _drawn_grid(name):
    """(name, 1-8 switch-point lists that validate_config accepts)."""
    prob = build_problem(name)
    gap = prob.eps_gap
    point = st.lists(st.floats(gap, prob.T - gap), min_size=prob.k,
                     max_size=prob.k).map(sorted).filter(
        lambda s: np.min(np.diff([0.0, *s, prob.T])) >= gap)
    return st.tuples(st.just(name), st.lists(point, min_size=1, max_size=8))


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(["jacobson", "bressan", "catalyst1"]).flatmap(
    _drawn_grid))
@example(case=("jacobson", [[0.189453125]]))
def test_lanes_match_scalar_sweeps_on_drawn_grids(case):
    # the configurations as the lanes of one sweep, each against its own
    # scalar sweep at the default tolerance.  On jacobson and bressan a
    # lane repeats its scalar sweep's forward integration bit for bit; d_s
    # is relative, because far from the optimum jacobson's C and d_s reach
    # 1e3-1e4, and the lanes fold their steps in other blocks than the
    # scalar pass
    name, grid = case
    _assert_lanes_match_scalar(
        build_problem(name), [SwitchConfig(s=np.array(s)) for s in grid],
        IntegratorSettings(), relative=True, exact=name != "catalyst1")


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
    # records h = 0 and zero stages: its step folds to the identity, where
    # 0 * NaN would make its lam NaN
    log = []
    prob = _band_problem(log)
    cfgs = [SwitchConfig(s=np.array([s])) for s in np.linspace(0.3, 0.6, 6)]
    lanes = evaluate_lanes(prob, cfgs)
    # the forward's phase-1 law calls (the Jacobian's take _WEIGHTED B
    # points): one at the segment start, then _STAGES - 1 per attempt
    calls = [c for c in log if np.size(c[0]) == len(cfgs)]
    per = odeint._STAGES - 1
    attempts = [calls[i:i + per] for i in range(1, len(calls), per)]
    assert np.isfinite(lanes.d_s).all()
    for b, cfg in enumerate(cfgs):
        assert abs(lanes.d_s[0, b] - evaluate_gradient(prob, cfg).d_s[0]) \
            <= 1e-12

    # each recorded phase-1 iteration's attempt, found by the stage-1 times
    # of its accepting lanes (T = 1, so tau is t)
    failed_beside_an_accept = 0
    for j, (taus, hs, _, Ks) in enumerate(lanes.fwd.records):
        for tau, h, K in zip(taus, hs, Ks):
            idle = h == 0.0
            assert not K[idle].any()
            if j == 1:
                stages = next(a for a in attempts if np.array_equal(
                    a[0][0][~idle], (tau + _C[1] * h)[~idle]))
                failed_beside_an_accept += any(
                    off[idle].any() for _, off in stages[:4])
    assert failed_beside_an_accept > 0


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
    fwd = forward_lanes(prob, cfgs)
    want = backward_lanes(prob, fwd)
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
    got = backward_lanes(guarded_prob, fwd)
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
    assert np.array_equal(got.checkpoints, want.checkpoints)
    assert np.array_equal(got.steps, want.steps)


def test_lanes_refuse_a_problem_without_lanes(monkeypatch, tmp_path):
    # the bump toy's state law has no law_x; every lane entry point
    # refuses it by name before it integrates anything, and the profile
    # command exits 3
    from switchopt import cli, lanes
    from switchopt.optimizer import derivative_profile

    def forbidden(*args, **kwargs):
        raise AssertionError("a lane sweep ran")

    monkeypatch.setattr(lanes, "integrate_lanes", forbidden)
    prob = _bump_problem(c=0.5, w=0.1)
    cfgs = [SwitchConfig(s=np.array([s])) for s in (0.3, 0.6)]
    for run in (lanes.forward_lanes, lanes.evaluate_lanes):
        with pytest.raises(ValueError, match="bump: lane sweeps need"):
            run(prob, cfgs)
    with pytest.raises(ValueError, match="bump: lane sweeps need"):
        derivative_profile(prob, [0.3, 0.6])
    monkeypatch.setattr(cli, "build_problem", lambda name, T=None: prob)
    assert cli.main(["profile", "--problem", "bump", "--grid", "0.2,0.8,4",
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("name", ["catalyst2", "jacobson"])
def test_lanes_refuse_problems_they_cannot_batch(name):
    # a Case-2 problem, and a state-feedback phase without law_x
    prob = build_problem(name)
    if name == "jacobson":
        prob = dataclasses.replace(prob, phases=tuple(
            dataclasses.replace(ph, law_x=None) for ph in prob.phases))
        cfg = SwitchConfig(s=np.array([1.4]))
    else:
        cfg = SwitchConfig(s=np.array([0.1, 0.7]), p0=np.ones(2))
    with pytest.raises(ValueError, match="lane sweeps"):
        evaluate_lanes(prob, [cfg])
