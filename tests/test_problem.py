import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchopt.benchmarks import PROBLEM_NAMES, build_problem
from switchopt.exceptions import InvalidSwitchOrder, MissingCostate
from switchopt import benchmarks, gradients, odeint, problem
from switchopt.gradients import evaluate_gradient, forward_sweep
from switchopt.odeint import sample_states
from switchopt.optimizer import minimize
from switchopt.problem import (
    ControlPhase, ProblemDef, SwitchConfig, on_floats,
    phase_feasibility, phase_flow, phase_jacobian, phase_law, validate_config,
)


def _jacobian(prob, j, t, z):
    """The flow Jacobian dF/dz of phase j at one point (t, z)."""
    return phase_jacobian(prob, j)(np.array([t]), z[:, None])[:, :, 0]


def _row(prob, j, t, z, lam):
    """The adjoint row lam . dF/dz of phase j at one point (t, z)."""
    return lam @ _jacobian(prob, j, t, z)


@pytest.fixture
def catalyst():
    return build_problem("catalyst1", T=1.0)


@pytest.fixture
def catalyst2():
    return build_problem("catalyst2", T=1.0)


def test_validate_rejects_misordered(catalyst):
    with pytest.raises(InvalidSwitchOrder):
        validate_config(catalyst, SwitchConfig(s=np.array([0.7, 0.1])))


def test_validate_rejects_out_of_range(catalyst):
    with pytest.raises(InvalidSwitchOrder):
        validate_config(catalyst, SwitchConfig(s=np.array([0.1, 1.5])))


def test_validate_requires_costate(catalyst2):
    with pytest.raises(MissingCostate):
        validate_config(catalyst2, SwitchConfig(s=np.array([0.1, 0.7])))


def test_validate_rejects_costate_on_case1(catalyst):
    # a Case-1 sweep state is x alone: it has no place for a p0
    with pytest.raises(InvalidSwitchOrder, match="Case 1 takes 0"):
        validate_config(catalyst, SwitchConfig(s=np.array([0.1, 0.7]),
                                               p0=np.array([5.0, 5.0])))


@pytest.mark.parametrize("run", [
    minimize, evaluate_gradient,
    lambda prob, cfg: evaluate_gradient(prob, [cfg]),
], ids=["minimize", "evaluate_gradient", "evaluate_gradient_list"])
def test_fixed_time_configuration_cannot_set_T(run):
    # bressan's horizon is 10; minimize used to project onto (0, 3) but
    # sweep at T = 10, and report s = 2.99999 as converged
    prob = build_problem("bressan")
    with pytest.raises(InvalidSwitchOrder, match="horizon is fixed at 10"):
        run(prob, SwitchConfig(s=np.array([2.0]), T=3.0))


def test_catalyst_full_mixing_dynamics(catalyst):
    # u=1 phase from a=1, b=0: da = -k1*a = -1, db = +k1*a = +1
    dx = phase_flow(catalyst, 0)(0.0, np.array([1.0, 0.0]))
    np.testing.assert_allclose(dx, [-1.0, 1.0], rtol=1e-14)


def test_catalyst_no_mixing_dynamics(catalyst):
    # u=0 phase: da = 0, db = -k3*b
    dx = phase_flow(catalyst, 2)(0.9, np.array([0.3, 0.4]))
    np.testing.assert_allclose(dx, [0.0, -0.4], rtol=1e-14)


def test_bressan_first_phase():
    prob = build_problem("bressan", T=10.0)
    dx = phase_flow(prob, 1)(4.0, np.array([2.0, 0.0, 0.0]))
    assert dx[0] == pytest.approx(0.5)   # singular phase: x1' = u = 1/2


def test_jacobson_dynamics():
    prob = build_problem("jacobson")
    dx = phase_flow(prob, 0)(0.0, np.array([0.0, 0.3, 0.0]))
    np.testing.assert_allclose(dx[:2], [0.3, -1.0], rtol=1e-14)
    # augmented state integrates the running cost
    assert dx[2] == pytest.approx(0.5 * 0.3 ** 2)


def test_feasibility_margin_interior(catalyst):
    # singular value 0.2271... sits 0.2271 above 0 and 0.7729 below 1
    m = phase_feasibility(catalyst, 1)(0.5, np.array([0.7, 0.2]))
    assert m == pytest.approx(0.227142082708498, abs=1e-12)


def test_feasibility_margin_at_bound(catalyst):
    assert phase_feasibility(catalyst, 0)(0.0, np.array([1.0, 0.0])) == 0.0


def test_phase_jacobian_matches_fd(catalyst):
    x = np.array([0.6, 0.25])
    J = _jacobian(catalyst, 1, 0.4, x)
    h = 1e-6
    for i in range(2):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        col = (phase_flow(catalyst, 1)(0.4, xp)
               - phase_flow(catalyst, 1)(0.4, xm)) / (2 * h)
        np.testing.assert_allclose(J[:, i], col, atol=1e-7)


def test_fd_jacobian_halving_quadratic(monkeypatch):
    # central differences: quartering the error when the step is halved.
    # goddard's singular thrust law is nonlinear in x; a linear law, as
    # jacobson's, differences exactly to rounding
    prob = build_problem("goddard")
    _, points = _phase_points("goddard", 1)
    t, z = points[len(points) // 2]
    lam = np.array([-1.0, 0.3, 2.0e3])
    exact = _row(prob, 1, t, z, lam)   # analytic law_x path
    stripped = dataclasses.replace(prob, phases=tuple(
        dataclasses.replace(ph, law_x=None) for ph in prob.phases))

    errs = []
    for h in (2e-3, 1e-3):
        monkeypatch.setattr(problem, "FD_STEP", h)
        errs.append(np.max(np.abs(_row(stripped, 1, t, z, lam) - exact)))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_generalized_hamiltonian_zero_at_zero_costate(catalyst2):
    # the generalized Hamiltonian is lam . F for the sweep state z = (x, p)
    z = np.array([0.8, 0.15, 1.1, 0.9])
    lam = np.zeros(4)
    g = _row(catalyst2, 1, 0.3, z, lam)
    assert float(lam @ phase_flow(catalyst2, 1)(0.3, z)) == 0.0
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_case2_analytic_matches_fd(catalyst2):
    # analytic case2_derivs against the central-difference fallback
    numeric = dataclasses.replace(catalyst2, case2_derivs=None)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(0.1, 0.9, size=2)
        p = rng.uniform(0.5, 1.5, size=2)
        y1 = rng.normal(size=2)
        y2 = rng.normal(size=2)
        z, lam = np.concatenate((x, p)), np.concatenate((y1, y2))
        g = _row(catalyst2, 1, 0.4, z, lam)
        fd = _row(numeric, 1, 0.4, z, lam)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-6)


# one off-optimum configuration per problem; its forward sweep supplies the
# (t, z) points at which each phase's adjoint is checked
SWEEP_CFGS = {
    "catalyst1": SwitchConfig(s=np.array([0.15, 0.7])),
    "catalyst2": SwitchConfig(s=np.array([0.14, 0.72]),
                              p0=np.array([0.87, 0.83])),
    "jacobson": SwitchConfig(s=np.array([1.3])),
    "bressan": SwitchConfig(s=np.array([3.1])),
    "goddard": SwitchConfig(s=np.array([13.9, 21.7]), T=43.1),
}


@functools.lru_cache(maxsize=None)
def _phase_points(name, j):
    """(problem, [(t, z)]) at the forward-sweep samples of phase j."""
    prob = build_problem(name)
    fwd = forward_sweep(prob, SWEEP_CFGS[name])
    times = np.linspace(0.0, 1.0, fwd.sample_count) * fwd.T
    seg = np.clip(np.searchsorted(fwd.sigma, times / fwd.T,
                                  side="right") - 1, 0, prob.k)
    zs = sample_states(fwd.rhs, fwd.sigma, fwd.records, fwd.checkpoints,
                       times / fwd.T, fwd.T)
    return prob, [(times[i], zs[i]) for i in np.flatnonzero(seg == j)]


@pytest.mark.parametrize("name, j", [
    (name, j) for name in PROBLEM_NAMES
    for j in range(build_problem(name).k + 1)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_phase_adjoint_matches_central_differences(name, j, data):
    # lam . dF/dz from the phase's analytic derivatives (law_x, the
    # closed-loop Jacobian or case2_derivs) against central differences of
    # lam . F over z
    prob, points = _phase_points(name, j)
    t, z = data.draw(st.sampled_from(points))
    lam = np.array(data.draw(st.lists(st.floats(-10.0, 10.0),
                                      min_size=z.size, max_size=z.size)))
    flow = phase_flow(prob, j)
    g = _row(prob, j, t, z, lam)
    fd = np.empty(z.size)
    for i in range(z.size):
        h = 1e-6 * max(1.0, abs(z[i]))
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        fd[i] = (lam @ flow(t, zp) - lam @ flow(t, zm)) / (2 * h)
    scale = max(1.0, np.max(np.abs(fd)))
    assert np.max(np.abs(g - fd)) <= 1e-5 * scale


def test_case2_sympy_oracle(catalyst2):
    # symbolic gradients of H = y1.f(x,phi) - p.f_x(x,phi).y2 for the
    # p-dependent singular feedback
    sympy = pytest.importorskip("sympy")
    a, b, p1, p2 = sympy.symbols("a b p1 p2", positive=True)
    y11, y12, y21, y22 = sympy.symbols("y11 y12 y21 y22")
    k1, k2, k3 = 1, 10, 1
    gam = k2 - k3 - k1
    num = -k3 * (k1 * a * p2 + k2 * b * p1)
    den = (p1 * (k2 * b * gam - 2 * k1 * k2 * a)
           + p2 * (k1 * a * gam + 2 * k1 * k2 * b))
    u = num / den
    f1 = u * (k2 * b - k1 * a)
    f2 = u * (k1 * a - k2 * b) - (1 - u) * k3 * b
    fx = sympy.Matrix([[sympy.diff(f1, a), sympy.diff(f1, b)],
                       [sympy.diff(f2, a), sympy.diff(f2, b)]])
    # f_x here is the partial in x at frozen u, so substitute after freezing
    uu = sympy.Symbol("uu")
    f1f = uu * (k2 * b - k1 * a)
    f2f = uu * (k1 * a - k2 * b) - (1 - uu) * k3 * b
    fxf = sympy.Matrix([[sympy.diff(f1f, a), sympy.diff(f1f, b)],
                        [sympy.diff(f2f, a), sympy.diff(f2f, b)]])
    H = (y11 * f1 + y12 * f2
         - (sympy.Matrix([[p1, p2]]) @ fxf.subs(uu, u)
            @ sympy.Matrix([y21, y22]))[0, 0])
    syms = dict(zip((a, b, p1, p2, y11, y12, y21, y22),
                    (0.7, 0.2, 1.05, 0.92, 0.3, -0.4, 0.22, 0.11)))
    gx_o = [float(sympy.diff(H, v).subs(syms)) for v in (a, b)]
    gp_o = [float(sympy.diff(H, v).subs(syms)) for v in (p1, p2)]

    g = _row(catalyst2, 1, 0.5, np.array([0.7, 0.2, 1.05, 0.92]),
             np.array([0.3, -0.4, 0.22, 0.11]))
    gx, gp = g[:2], g[2:]
    np.testing.assert_allclose(gx, gx_o, rtol=1e-10)
    np.testing.assert_allclose(gp, gp_o, rtol=1e-10)


def test_phase_control_constant_vs_state(catalyst):
    u0 = phase_law(catalyst, 0)(0.1, np.array([0.9, 0.1]))
    assert u0[0] == 1.0
    u2 = phase_law(catalyst, 2)(0.9, np.array([0.9, 0.1]))
    assert u2[0] == 0.0


def test_eps_gap_default(catalyst):
    assert catalyst.eps_gap == pytest.approx(1e-6 * catalyst.T)


# ---------------------------------------------------------------------------
# non-finite configurations
# ---------------------------------------------------------------------------

def _no_sweep(*args, **kwargs):
    raise AssertionError("a sweep ran on a non-finite configuration")


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(PROBLEM_NAMES), data=st.data())
def test_non_finite_configuration_raises_before_any_sweep(name, data):
    prob = build_problem(name)
    cfg = SwitchConfig(s=np.linspace(0.0, prob.T, prob.k + 2)[1:-1],
                       p0=np.ones(prob.n) if prob.case == 2 else None,
                       T=prob.T if prob.free_time else None)
    fields = ["s"] + (["p0"] if cfg.p0 is not None else []) \
        + (["T"] if cfg.T is not None else [])
    field = data.draw(st.sampled_from(fields))
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if field == "T":
        cfg.T = bad
    else:
        vec = getattr(cfg, field)
        vec[data.draw(st.integers(0, vec.size - 1))] = bad
    with pytest.raises(InvalidSwitchOrder, match="non-finite"):
        validate_config(prob, cfg)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(gradients, "integrate_piecewise", _no_sweep)
        with pytest.raises(InvalidSwitchOrder):
            forward_sweep(prob, cfg)
        if prob.k == 1:
            # the lane sweep checks every lane before it integrates any
            good = SwitchConfig(s=np.array([0.3 * prob.T]))
            with pytest.raises(InvalidSwitchOrder):
                forward_sweep(prob, [good, cfg, good])


# ---------------------------------------------------------------------------
# lane callbacks
# ---------------------------------------------------------------------------

# states and controls inside each model's domain: goddard divides by v
# and m
LANE_BOXES = {
    "catalyst1": ([0.0, 0.0], [1.0, 1.0], 0.0, 1.0),
    "jacobson": ([-2.0] * 3, [2.0] * 3, -1.0, 1.0),
    "bressan": ([-2.0] * 3, [2.0] * 3, -1.0, 1.0),
    "goddard": ([0.0, 100.0, 1.0], [2.0e4, 800.0, 3.0], 0.0, 193.0),
}


def _without(prob, derivs):
    """prob without its analytic ``derivs``: "law_x" or "case2_derivs"."""
    if derivs == "law_x":
        return dataclasses.replace(prob, phases=tuple(
            dataclasses.replace(ph, law_x=None) for ph in prob.phases))
    return dataclasses.replace(prob, **{derivs: None}) if derivs else prob


# the problems whose Jacobians take the central-difference fallback
FALLBACKS = [("jacobson", "law_x"), ("goddard", "law_x"),
             ("catalyst2", "case2_derivs")]


@pytest.mark.parametrize("name, derivs", [
    *[pytest.param(name, None, id=name) for name in LANE_BOXES],
    *[pytest.param(name, derivs, id=f"{name}-{derivs}=None")
      for name, derivs in FALLBACKS]])
def test_lane_callbacks_match_scalar_calls(name, derivs):
    # x of shape (n, B) gives the scalar results of each column, with the
    # lane axis last: the Jacobians bit for bit, f to rounding, as a
    # float64 scalar's ** 2 is C pow and an array's multiplies.  goddard's
    # exp is math.exp on a float and np.exp on lanes, so its Jacobians
    # agree to rounding too.  The laws and margins take one closure per
    # phase at a point and on lanes, and a phase without analytic
    # derivatives differences its flow on the lanes of every point at once
    prob = _without(build_problem(name), derivs)
    lo, hi, u_lo, u_hi = LANE_BOXES["catalyst1" if name == "catalyst2"
                                    else name]
    rng = np.random.default_rng(3)
    x = rng.uniform(lo, hi, (5, prob.n)).T
    t = rng.uniform(0.0, prob.T, 5)
    u = rng.uniform(u_lo, u_hi, (prob.m, 5))
    # Case 2 sweeps z = (x, p)
    p = rng.uniform(0.5, 1.5, (5, prob.n)).T if prob.p0_size else None
    z = x if p is None else np.vstack((x, p))
    exact = name != "goddard"
    for fn in (prob.f, prob.f_x, prob.f_u):
        out = fn(x, u)
        assert out.shape[-1] == 5
        for b in range(5):
            np.testing.assert_allclose(out[..., b], fn(x[:, b], u[:, b]),
                                       rtol=1e-15, atol=1e-15)
            if exact and fn is not prob.f:
                assert np.array_equal(out[..., b], fn(x[:, b], u[:, b]))
    for j in range(prob.k + 1):
        u_j = phase_law(prob, j)(t, x, p)
        m_j = phase_feasibility(prob, j)(t, x, p)
        F = phase_flow(prob, j)(t, z)
        J = phase_jacobian(prob, j)(t, z)
        assert u_j.shape == m_j.shape == (prob.m, 5)
        for b in range(5):
            p_b = None if p is None else p[:, b]
            J_point = phase_jacobian(prob, j)(t[b:b + 1], z[:, b:b + 1])
            np.testing.assert_allclose(u_j[:, b],
                                       phase_law(prob, j)(t[b], x[:, b], p_b),
                                       rtol=1e-15)
            np.testing.assert_allclose(
                m_j[:, b], phase_feasibility(prob, j)(t[b], x[:, b], p_b),
                rtol=1e-15)
            np.testing.assert_allclose(F[:, b],
                                       phase_flow(prob, j)(t[b], z[:, b]),
                                       rtol=1e-15, atol=1e-15)
            if exact:
                assert np.array_equal(J[..., b], J_point[..., 0])
            else:
                np.testing.assert_allclose(J[..., b], J_point[..., 0],
                                           rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("name, derivs", FALLBACKS)
def test_fallback_jacobian_is_one_flow_call(name, derivs):
    # the central difference moves each z_i of each of the M points by +-h:
    # one call of f on 2 d M lanes
    prob = _without(build_problem(name), derivs)
    calls = []

    def f(x, u):
        calls.append(np.shape(x))
        return prob.f(x, u)

    _, points = _phase_points(name, 1)
    t = np.array([pt[0] for pt in points[:4]])
    z = np.array([pt[1] for pt in points[:4]]).T
    d = len(z)
    J = phase_jacobian(dataclasses.replace(prob, f=f), 1)(t, z)
    assert J.shape == (d, d, 4)
    assert calls == [(prob.n, 2 * d * 4)]


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_terminal_callbacks_match_scalar_calls(name):
    # C and grad_C on x_T of shape (n, B) give the one-point results
    # column by column: C of shape (B,), grad_C of shape (n, B), or (n,)
    # when it is constant, which the backward sweep broadcasts
    prob = build_problem(name)
    lo, hi = LANE_BOXES["catalyst1" if name == "catalyst2" else name][:2]
    x = np.random.default_rng(5).uniform(lo, hi, (5, prob.n)).T
    C, grad = prob.C(x), np.asarray(prob.grad_C(x))
    assert C.shape == (5,)
    assert grad.shape in ((prob.n, 5), (prob.n,))
    grad = np.broadcast_to(np.reshape(grad, (prob.n, -1)), x.shape)
    for b in range(5):
        assert C[b] == prob.C(x[:, b])
        assert np.array_equal(grad[:, b], prob.grad_C(x[:, b]))


def test_terminal_callbacks_without_the_lane_axis_are_refused_by_name():
    # a C that sums over the lanes, and a grad_C that flattens them, work
    # on one configuration and are refused on lanes, naming the callback
    prob = build_problem("bressan")
    cfgs = [SwitchConfig(s=np.array([3.0])), SwitchConfig(s=np.array([3.2]))]
    summed = dataclasses.replace(prob, C=lambda x: np.sum(x[2]))
    flat = dataclasses.replace(prob, grad_C=lambda x: np.ravel(
        [0.0 * x[0], 0.0 * x[0], 1.0 + 0.0 * x[0]]))
    for bad in (summed, flat):
        assert evaluate_gradient(bad, cfgs[0]).d_s \
            == evaluate_gradient(prob, cfgs[0]).d_s
    with pytest.raises(ValueError, match=r"bressan: C has shape \(\), not "
                       r"\(2,\): .* lane axis last"):
        evaluate_gradient(summed, cfgs)
    with pytest.raises(ValueError, match=r"bressan: grad_C has shape "
                       r"\(6,\), not \(3,\)"):
        evaluate_gradient(flat, cfgs)


@pytest.mark.parametrize("name, j", [
    (name, j) for name in PROBLEM_NAMES
    for j in range(build_problem(name).k + 1)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_phase_jacobian_matches_per_point(name, j, data):
    # one call over M points of the phase against M one-point calls,
    # lane by lane; the points are forward-sweep samples of the phase,
    # each moved by up to 1e-3 relative
    prob, points = _phase_points(name, j)
    picks = data.draw(st.lists(st.sampled_from(points), min_size=1,
                               max_size=8))
    moves = data.draw(st.lists(st.floats(-1e-3, 1e-3), min_size=len(picks),
                               max_size=len(picks)))
    t = np.array([p[0] for p in picks])
    z = np.array([p[1] * (1.0 + m) for p, m in zip(picks, moves)]).T
    jacobian = phase_jacobian(prob, j)
    J = jacobian(t, z)
    want = np.concatenate([jacobian(t[b:b + 1], z[:, b:b + 1])
                           for b in range(t.size)], axis=-1)
    assert J.shape == want.shape == (z.shape[0], z.shape[0], t.size)
    for b in range(t.size):
        scale = max(1.0, np.max(np.abs(want[..., b])))
        assert np.max(np.abs(J[..., b] - want[..., b])) <= 1e-14 * scale


def _einsum_flow(f, f_x, law, n, t, z):
    """(f, -p f_x) at one point by ``np.concatenate`` and ``np.einsum``."""
    x, p = z[:n], z[n:]
    u = law(t, x, p)
    dp = -np.einsum("i...,ij...->j...", p, f_x(x, u))
    return np.concatenate((f(x, u), dp))


_entries = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), fortran=st.booleans(), fused=st.booleans(),
       data=st.data())
def test_case2_point_flow_is_einsums(n, fortran, fused, data):
    # a Case-2 point with float bodies sums -p f_x on floats; its bits and
    # signed zeros are einsum's on the C-ordered f_x the callback returns.
    # Callbacks without float bodies take einsum, in C order or not
    def draw(size):
        return np.array(data.draw(st.lists(_entries, min_size=size,
                                           max_size=size)))
    fx, fval, z = draw(n * n).reshape(n, n), draw(n), draw(2 * n)
    if fortran:
        fx = np.asfortranarray(fx)
    bound = lambda t: np.array([1.0])
    f, f_x, law = lambda x, u: fval, lambda x, u: fx, bound
    if fused:
        f, f_x = on_floats(lambda x, u: fval.tolist()), \
            on_floats(lambda x, u: fx.tolist())
        law = on_floats(lambda t: [1.0])
    prob = ProblemDef(
        name="synthetic", n=n, m=1, x0=np.zeros(n), T=1.0, free_time=False,
        case=2, phases=(ControlPhase("constant", law, bound, bound),),
        f=f, f_x=f_x, f_u=None, C=lambda x: x[0], grad_C=None)
    want = _einsum_flow(prob.f, prob.f_x, lambda t, x, p: bound(t), n,
                        0.5, z)
    got = phase_flow(prob, 0)(0.5, z)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cfg", [
    SwitchConfig(s=np.array([0.1, 0.7]), p0=np.array([0.9, 0.8])),
    SwitchConfig(s=np.array([0.14, 0.72]), p0=np.array([0.87, 0.83]))])
def test_catalyst2_point_flow_is_einsums_at_its_stage_points(catalyst2, cfg):
    # at every stage point of the forward sweeps from the README start and
    # near the optimum, each phase's flow is the einsum flow of ``np.array``
    # of the model bodies on the arrays, bit for bit
    fwd = forward_sweep(catalyst2, cfg)
    n = catalyst2.n
    f, f_x = (lambda x, u, body=cb.float_body: np.array(body(x, u))
              for cb in (catalyst2.f, catalyst2.f_x))
    for j, record in enumerate(fwd.records):
        ph = catalyst2.phases[j]
        body = ph.law.float_body
        law = (lambda t, x, p: np.array(body(t, x, p))) \
            if ph.law_kind == "state_costate" else \
            (lambda t, x, p: np.array(body(t)))
        flow = phase_flow(catalyst2, j)
        taus, Y = odeint._stage_points(*record)
        for t, z in zip((taus * fwd.T).ravel().tolist(), Y.reshape(-1, 2 * n)):
            want = _einsum_flow(f, f_x, law, n, t, z)
            assert flow(t, z).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the fused point flow
# ---------------------------------------------------------------------------

def _counted(prob, wrap=lambda fn: lambda counting: counting):
    """prob with each model callback and law behind a plain counting
    function, as ``perfbench/tracing.py`` wraps them (``wrap`` may add
    ``functools.wraps``), and the counter of calls by callback name."""
    counts = {}

    def cb(key, fn):
        @wrap(fn)
        def counting(*args):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args)
        return counting
    phases = tuple(dataclasses.replace(ph, law=cb("law", ph.law))
                   for ph in prob.phases)
    return dataclasses.replace(prob, phases=phases, f=cb("f", prob.f),
                               f_x=cb("f_x", prob.f_x)), counts


def _flow_outcome(flow, t, z):
    """flow(t, z) with NaN made NaN of one sign bit, or the type of the
    exception it raises.  A NaN's sign is not reproducible: after a few
    calls Python specialises its float operations, which can then carry
    the other operand's NaN."""
    with np.errstate(all="ignore"):   # as in a sweep
        try:
            F = flow(t, z)
        except Exception as exc:   # compared by type
            return type(exc)
    assert F.dtype == np.float64
    return np.where(np.isnan(F), np.nan, F)


def _assert_fused_flow_is_the_array_path(name, j, t, z):
    """The point flow of phase j is, by tobytes, the flow of the same
    problem behind counting wrappers, which takes the array path (the
    callbacks on arrays), or raises what that flow raises; the counter
    sees each of its callback calls."""
    prob = build_problem(name)
    counted, counts = _counted(prob)
    z = np.array(z, dtype=float)
    got = _flow_outcome(phase_flow(prob, j), t, z)
    want = _flow_outcome(phase_flow(counted, j), t, z)
    if isinstance(want, type):
        assert got is want
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert counts == dict(law=1, f=1, **({"f_x": 1} if prob.case == 2
                                            else {}))


_PHASES = [(name, j) for name in PROBLEM_NAMES
           for j in range(build_problem(name).k + 1)]


@pytest.mark.parametrize("name, j", _PHASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fused_point_flow_is_the_array_path(name, j, data):
    values = st.one_of(st.floats(-1e3, 1e3), st.floats(),
                       st.sampled_from([0.0, -0.0, 1e-200, 1e200]))
    prob = build_problem(name)
    d = prob.n * prob.case   # z = x, or (x, p) in Case 2
    z = data.draw(st.lists(values, min_size=d, max_size=d))
    _assert_fused_flow_is_the_array_path(
        name, j, data.draw(st.floats(0.0, 50.0)), z)


@pytest.mark.parametrize("name, j, z", [
    ("goddard", 1, [1000.0, 0.0, 2.5]),          # the law's c / v, v = 0
    ("goddard", 1, [1000.0, -0.0, 2.5]),
    ("goddard", 0, [1000.0, 300.0, 0.0]),        # f's (u - drag) / m, m = 0
    ("goddard", 1, [1000.0, 300.0, 0.0]),
    ("goddard", 2, [1000.0, 300.0, -0.0]),
    ("goddard", 1, [-1e8, 300.0, 2.5]),          # exp overflows to inf
    ("goddard", 0, [-1e8, 300.0, 2.5]),          # on either path
    ("catalyst2", 1, [1.0, 0.0, 2.0, 5.0]),      # den = 0, num = -5
    ("catalyst2", 1, [0.0, 0.0, 1.0, 1.0]),      # 0 / 0
])
def test_fused_point_flow_at_points_where_a_float_body_raises(name, j, z):
    _assert_fused_flow_is_the_array_path(name, j, 0.5, z)


def test_a_decorated_callback_runs_its_body_once_per_call():
    # where float arithmetic would raise, the callback does not retry: it
    # runs its body once, on the arrays it is given
    calls = []

    @on_floats
    def f(x, u):
        calls.append(type(x))
        return [1.0 / x[0]]
    with np.errstate(divide="ignore"):
        got = f(np.array([0.0]), np.array([1.0]))
    assert calls == [np.ndarray] and got.tolist() == [np.inf]


def test_goddard_point_flow_where_the_law_raises_calls_a_body_at_most_twice():
    # at v = 0 the singular law's c / v raises on floats; the point flow
    # then takes the callbacks on arrays, which run each body once more
    prob, counts = build_problem("goddard"), {}

    def counted(key, cb):
        def body(*args):
            counts[key] = counts.get(key, 0) + 1
            return cb.float_body(*args)
        return on_floats(body)
    counted_prob = dataclasses.replace(prob, f=counted("f", prob.f), phases=(
        prob.phases[0], dataclasses.replace(
            prob.phases[1], law=counted("law", prob.phases[1].law)),
        prob.phases[2]))
    z = np.array([1000.0, 0.0, 2.5])
    with np.errstate(all="ignore"):
        got = phase_flow(counted_prob, 1).point(0.5, z)
        want = phase_flow(prob, 1)(np.array([0.5]), z[:, None])[:, 0]
    assert counts == {"law": 2, "f": 1}
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("wrap", [lambda fn: lambda counting: counting,
                                  functools.wraps],
                         ids=["plain", "functools.wraps"])
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_wrapped_callbacks_take_the_array_path(name, wrap):
    # a wrapper hides the float bodies, even one that copies their
    # attribute: every flow call of a whole forward sweep calls each
    # wrapped callback once, and the sweep is the same bits
    prob = build_problem(name)
    counted, counts = _counted(prob, wrap)
    cfg = SWEEP_CFGS[name]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        def spy(prob, j):
            flow = phase_flow(prob, j)
            counted_flow = lambda t, z: calls.append(1) or flow(t, z)
            counted_flow.point = \
                lambda t, z: calls.append(1) or flow.point(t, z)
            return counted_flow
        mp.setattr(gradients, "phase_flow", spy)
        got = forward_sweep(counted, cfg)
    want = forward_sweep(prob, cfg)
    assert got.objective == want.objective
    assert got.checkpoints.tobytes() == want.checkpoints.tobytes()
    _assert_same_records(got, want)
    assert counts["f"] == counts["law"] == len(calls) > 0
    assert counts.get("f_x", 0) == (len(calls) if prob.case == 2 else 0)


def _assert_same_records(got, want):
    """The forward records (tau, h, z, P) of every phase, by tobytes."""
    assert got.steps == want.steps and len(got.records) == len(want.records)
    for rg, rw in zip(got.records, want.records):
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
                   for a, b in zip(rg, rw))


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_a_sweep_on_the_flows_lists_is_the_sweep_on_arrays(name):
    # one configuration steps on each flow's ``point`` list; a spy whose
    # point returns the flow's array sends the same problem's sweep through
    # the array values, and every record, checkpoint and count is the same
    # bits
    prob, cfg = build_problem(name), SWEEP_CFGS[name]
    assert all(hasattr(phase_flow(prob, j), "point")
               for j in range(prob.k + 1))

    def spy(prob, j, flow=phase_flow):
        F = flow(prob, j)
        array_flow = lambda t, z: F(t, z)
        array_flow.point = array_flow
        return array_flow
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradients, "phase_flow", spy)
        got = forward_sweep(prob, cfg)
    want = forward_sweep(prob, cfg)
    assert got.objective == want.objective
    assert got.checkpoints.tobytes() == want.checkpoints.tobytes()
    _assert_same_records(got, want)


def test_a_callback_that_writes_into_its_state_raises_in_a_sweep():
    # f without a float body runs on the arrays it is given, at a point the
    # sweep's read-only view of a stage point: a write into it raises, where
    # it would change the points the reverse pass reads
    prob = build_problem("jacobson")

    def f(x, u):
        x *= 1.0
        return prob.f(x, u)
    with pytest.raises(ValueError, match="read-only"):
        forward_sweep(dataclasses.replace(prob, f=f), SWEEP_CFGS["jacobson"])


@pytest.mark.parametrize("j", [0, 1, 2])
def test_goddard_point_flow_where_exp_overflows_is_the_lanes(j):
    # h = -1e8 makes exp(-h / h0) overflow: the point flow and its array
    # fallback give the lanes' inf, with no warning, and NaN where the
    # lanes' is NaN (compared as NaN: its sign bit is not reproducible)
    prob = build_problem("goddard")
    z, u = np.array([-1e8, 300.0, 2.5]), np.array([benchmarks.U_MAX])
    with np.errstate(all="ignore"):
        lane = phase_flow(prob, j)(np.array([0.5]), z[:, None])[:, 0]
        lane_f = prob.f(z[:, None], u[:, None])[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = phase_flow(prob, j)(0.5, z)
        fallback = np.array(prob.f.float_body(z, u))   # NumPy's scalars
    assert np.isinf(lane).any()
    for got, want in ((point, lane), (fallback, lane_f)):
        assert np.array_equal(got, want, equal_nan=True)
        assert np.where(np.isnan(got), 0.0, got).tobytes() == \
            np.where(np.isnan(want), 0.0, want).tobytes()
