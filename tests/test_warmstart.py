import dataclasses
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from switchopt import warmstart
from switchopt.benchmarks import build_problem
from switchopt.exceptions import NoStructure
from switchopt.problem import ControlPhase, ProblemDef, on_floats
from switchopt.warmstart import (
    DiscreteControlProblem, detect_structure, solve_tv_euler, tv_prox,
)


# ---------------------------------------------------------------------------
# reference loops: the TV layer as first written, with NumPy scalar indexing
# in the prox, a rollout per gradient and a two-pass adjoint.  The optimized
# code must reproduce them bit for bit.
# ---------------------------------------------------------------------------

def _tv_prox_ref(signal, weight):
    y = np.asarray(signal, dtype=float)
    n = y.size
    if n == 0 or weight == 0:
        return y.copy()
    lam = float(weight)
    x = np.empty(n)
    k = k0 = km = kp = 0
    vmin = y[0] - lam
    vmax = y[0] + lam
    umin = lam
    umax = -lam
    while True:
        if k == n - 1:
            if umin < 0:
                x[k0:km + 1] = vmin
                k = k0 = km = km + 1
                vmin = y[k]
                umin = lam
                umax = y[k] + lam - vmax
                continue
            if umax > 0:
                x[k0:kp + 1] = vmax
                k = k0 = kp = kp + 1
                vmax = y[k]
                umax = -lam
                umin = y[k] - lam - vmin
                continue
            x[k0:n] = vmin + umin / (k - k0 + 1)
            return x
        umin += y[k + 1] - vmin
        if umin < -lam:
            x[k0:km + 1] = vmin
            k = k0 = km = kp = km + 1
            vmin = y[k]
            vmax = y[k] + 2 * lam
            umin = lam
            umax = -lam
            continue
        umax += y[k + 1] - vmax
        if umax > lam:
            x[k0:kp + 1] = vmax
            k = k0 = km = kp = kp + 1
            vmin = y[k] - 2 * lam
            vmax = y[k]
            umin = lam
            umax = -lam
            continue
        k += 1
        if umin >= lam:
            km = k
            vmin += (umin - lam) / (k - k0 + 1)
            umin = lam
        if umax <= -lam:
            kp = k
            vmax += (umax + lam) / (k - k0 + 1)
            umax = -lam


def _rollout_ref(prob, u, h):
    N = u.shape[1]
    xs = np.empty((N + 1, prob.n))
    xs[0] = prob.x0
    for j in range(N):
        xs[j + 1] = xs[j] + h * prob.f(xs[j], u[:, j])
    return xs


def _adjoint_ref(prob, xs, u, h):
    N = u.shape[1]
    ps = np.empty((N, prob.n))
    ps[N - 1] = prob.grad_C(xs[N])
    for j in range(N - 1, 0, -1):
        ps[j - 1] = ps[j] @ (np.eye(prob.n) + h * prob.f_x(xs[j], u[:, j]))
    grad = np.empty_like(u)
    for j in range(N):
        grad[:, j] = h * (ps[j] @ prob.f_u(xs[j], u[:, j]))
    return ps, grad


def _solve_tv_euler_ref(prob, N, rho_tv, max_iters=2000):
    """(u, objective, iterations, p0_estimate) of the reference loop: the
    nonmonotone Barzilai-Borwein proximal gradient with a fresh rollout
    for every gradient."""
    T = float(prob.T)
    h = T / N
    mids = (np.arange(N) + 0.5) * h
    lower = np.stack([prob.phases[0].lower(t) for t in mids], axis=1)
    upper = np.stack([prob.phases[0].upper(t) for t in mids], axis=1)
    tv = warmstart._tv_value

    def gradient(uq):
        return _adjoint_ref(prob, _rollout_ref(prob, uq, h), uq, h)[1]

    def F(uq):
        return float(prob.C(_rollout_ref(prob, uq, h)[-1])) + tv(uq, rho_tv)

    u = 0.5 * (lower + upper)
    g = gradient(u)
    du = 1e-4 * np.maximum(1.0, np.abs(u))
    L_hat = max(np.linalg.norm(gradient(u + du) - g) / np.linalg.norm(du),
                1e-12)
    step = 1.0 / L_hat

    history = [F(u)]
    flat = 0
    it = 0
    for it in range(1, max_iters + 1):
        while True:
            v = u - step * g
            u_new = np.empty_like(u)
            for i in range(u.shape[0]):
                u_new[i] = _tv_prox_ref(v[i], step * rho_tv)
            u_new = np.clip(u_new, lower, upper)
            d = u_new - u
            obj_new = F(u_new)
            if obj_new <= max(history[-5:]) - 1e-4 / (2 * step) * np.sum(d * d) \
                    or np.max(np.abs(d)) < 1e-15:
                break
            step *= 0.5
        rel = abs(history[-1] - obj_new) / max(1.0, abs(history[-1]))
        flat = flat + 1 if rel <= 1e-8 else 0
        history.append(obj_new)
        u, g_old, g = u_new, g, gradient(u_new)
        dy = np.sum(d * (g - g_old))
        step = (float(np.clip(np.sum(d * d) / dy, 1e-3 / L_hat, 1e3 / L_hat))
                if dy > 0 else 1e3 / L_hat)
        if flat == 3:
            break
    ps, _ = _adjoint_ref(prob, _rollout_ref(prob, u, h), u, h)
    return u, history[-1], it, ps[0]


# ---------------------------------------------------------------------------
# tv_prox
# ---------------------------------------------------------------------------

def test_prox_constant_signal_fixed():
    y = np.full(8, 1.7)
    for w in (0.0, 0.1, 10.0):
        np.testing.assert_allclose(tv_prox(y, w), y, atol=1e-14)


def test_prox_huge_weight_gives_mean():
    rng = np.random.default_rng(5)
    y = rng.normal(size=9)
    z = tv_prox(y, weight=9 * (y.max() - y.min()))
    np.testing.assert_allclose(z, np.mean(y), atol=1e-12)


def test_prox_zero_weight_identity():
    y = np.array([3.0, -1.0, 2.0])
    np.testing.assert_allclose(tv_prox(y, 0.0), y)


def _prox_oracle(y, lam):
    """Enumerate difference-sign patterns and verify dual feasibility.

    For a candidate z, with partial sums w_i = sum_{j<=i}(y_j - z_j), z is
    the prox iff |w_i| <= lam everywhere, w_i = -lam*sign(z_{i+1}-z_i) at
    jumps, and the full sum vanishes.
    """
    n = y.size
    for pat in product((-1, 0, 1), repeat=n - 1):
        blocks = [[0]]
        for i, p in enumerate(pat):
            if p == 0:
                blocks[-1].append(i + 1)
            else:
                blocks.append([i + 1])
        z = np.empty(n)
        for blk in blocks:
            s_l = pat[blk[0] - 1] if blk[0] > 0 else 0
            s_r = pat[blk[-1]] if blk[-1] < n - 1 else 0
            z[blk] = np.mean(y[blk]) + lam * (s_r - s_l) / len(blk)
        w = np.cumsum(y - z)
        if abs(w[-1]) > 1e-9 or np.any(np.abs(w[:-1]) > lam + 1e-9):
            continue
        ok = True
        for i in range(n - 1):
            dz = z[i + 1] - z[i]
            if abs(dz) > 1e-12 and abs(w[i] + lam * np.sign(dz)) > 1e-9:
                ok = False
                break
        if ok:
            return z
    raise AssertionError("oracle found no optimal pattern")


def test_prox_matches_sign_pattern_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        y = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        lam = float(rng.uniform(0.01, 1.5))
        np.testing.assert_allclose(tv_prox(y, lam), _prox_oracle(y, lam),
                                   atol=1e-8)


def test_prox_nonexpansive():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        a = rng.normal(size=n) * 2
        b = rng.normal(size=n) * 2
        lam = float(rng.uniform(0.0, 2.0))
        da = tv_prox(a, lam) - tv_prox(b, lam)
        assert np.linalg.norm(da) <= np.linalg.norm(a - b) + 1e-10


@settings(max_examples=300, deadline=None)
@given(y=arrays(np.float64, st.integers(0, 40),
                elements=st.floats(-1e3, 1e3)),
       weight=st.floats(0.0, 1e2))
def test_prox_matches_reference_loop_exactly(y, weight):
    assert tv_prox(y, weight).tobytes() == _tv_prox_ref(y, weight).tobytes()


@pytest.mark.parametrize("signal,weight", [
    (np.zeros((2, 3)), 0.1),
    (np.float64(1.0), 0.1),
    (np.zeros(3), float("nan")),
    (np.zeros(3), float("inf")),
    (np.zeros(3), -1.0),
])
def test_prox_rejects_bad_arguments(signal, weight):
    with pytest.raises(ValueError):
        tv_prox(signal, weight)


# ---------------------------------------------------------------------------
# TV-regularized Euler solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,N", [("catalyst1", 100), ("catalyst2", 150)])
def test_solve_matches_reference_loop_exactly(name, N):
    prob = build_problem(name)
    u, obj, it, p0 = _solve_tv_euler_ref(prob, N, 1e-3)
    dcp = solve_tv_euler(prob, N=N, rho_tv=1e-3)
    assert dcp.u.tobytes() == u.tobytes()
    assert dcp.objective == obj
    assert dcp.iterations == it
    assert dcp.p0_estimate.tobytes() == p0.tobytes()


def test_one_rollout_per_trial(monkeypatch):
    # two rollouts before the loop (start point and curvature probe), then
    # one per prox pass, whether the pass is accepted or backtracked
    calls = {"f": 0, "prox": 0}
    prob = build_problem("catalyst1")
    f, prox = prob.f, warmstart.tv_prox

    def counted_f(x, u):
        calls["f"] += 1
        return f(x, u)

    def counted_prox(signal, weight):
        calls["prox"] += 1
        return prox(signal, weight)

    monkeypatch.setattr(warmstart, "tv_prox", counted_prox)
    N = 100
    dcp = solve_tv_euler(dataclasses.replace(prob, f=counted_f), N=N,
                         rho_tv=1e-3)
    passes = calls["prox"] // prob.m
    assert dcp.passes == passes
    assert passes > dcp.iterations       # the run includes backtracks
    assert calls["f"] == N * (2 + passes)


@pytest.mark.parametrize("N", [50, 100, 250])
@pytest.mark.parametrize("name", ["catalyst1", "catalyst2", "jacobson",
                                  "bressan", "goddard"])
def test_float_rollout_is_the_reference_loop(name, N):
    # a built-in f has a float body, so the rollout steps on lists of
    # floats, and an f without one steps on arrays; either's rows are the
    # array loop's bits at the box's midpoint, at each bound and at random
    # controls in the box
    prob = build_problem(name)
    undecorated = dataclasses.replace(prob, f=lambda x, v: prob.f(x, v))
    lower, upper = _box(prob, N)
    rng = np.random.default_rng(N)
    h = prob.T / N
    for u in (0.5 * (lower + upper), lower, upper,
              lower + rng.random(lower.shape) * (upper - lower)):
        want = _rollout_ref(prob, u, h)
        for p in (prob, undecorated):
            got = warmstart._rollout(p, u, h)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_float_rollout_reruns_on_arrays_where_a_float_step_raises():
    # the float body refuses the points from x_0 = 0.5 on, as an
    # overflowing float operation would: the rollout takes each of those
    # steps on arrays and gives the array loop's rows
    raised = []

    def body(x, u):
        if isinstance(x, list) and x[0] >= 0.5:
            raised.append(x[0])
            raise OverflowError
        return [1.0 + 0.0 * x[1], u[0] * x[0] - x[1]]

    box = lambda t: np.array([0.0])
    prob = ProblemDef(
        name="toy", n=2, m=1, x0=np.array([0.0, 1.0]), T=1.0,
        free_time=False, case=1,
        phases=(ControlPhase("constant", lambda t: [0.0], box, box),),
        f=on_floats(body), f_x=None, f_u=None, C=lambda x: x[1],
        grad_C=None)
    u = np.linspace(-1.0, 2.0, 40)[None]
    got = warmstart._rollout(prob, u, 1.0 / 40)
    assert raised and got.tobytes() == _rollout_ref(prob, u, 1.0 / 40).tobytes()


def test_float_rollout_steps_on_arrays_only_where_a_float_step_raises():
    # the float body refuses the points with 0.2625 < x_0 < 0.5125, where
    # x_0 is about j / 40 at step j, so steps 11 to 20 of 40: each of those
    # steps, and no other, calls f on arrays, and the rows are the array
    # loop's
    raised, on_arrays = [], []

    def body(x, u):
        if not isinstance(x, list):
            on_arrays.append(float(x[0]))
        elif 0.2625 < x[0] < 0.5125:
            raised.append(x[0])
            raise ZeroDivisionError
        return [1.0 + 0.0 * x[1], u[0] * x[0] - x[1]]

    box = lambda t: np.array([0.0])
    prob = ProblemDef(
        name="toy", n=2, m=1, x0=np.array([0.0, 1.0]), T=1.0,
        free_time=False, case=1,
        phases=(ControlPhase("constant", lambda t: [0.0], box, box),),
        f=on_floats(body), f_x=None, f_u=None, C=lambda x: x[1],
        grad_C=None)
    u = np.linspace(-1.0, 2.0, 40)[None]
    got = warmstart._rollout(prob, u, 1.0 / 40)
    assert len(raised) == 10 and on_arrays == raised
    assert got.tobytes() == _rollout_ref(prob, u, 1.0 / 40).tobytes()


# prox passes per warm start at N = 100, rho_tv = 1e-3; the monotone step
# that grew 1.2x per iteration took 102 (catalyst1, catalyst2), 2,273
# (jacobson), 755 (bressan) and 206 (goddard).  The BB step takes 40, 40,
# 592, 291 and 99.
@pytest.mark.parametrize("name,bound", [
    ("catalyst1", 60), ("catalyst2", 60), ("jacobson", 900),
    ("bressan", 450), ("goddard", 150)])
def test_prox_passes_fall_below_the_monotone_step(name, bound):
    dcp = solve_tv_euler(build_problem(name), N=100, rho_tv=1e-3)
    assert dcp.converged
    assert dcp.iterations <= dcp.passes <= bound


# the five warm starts of the benchmark's warmstart workload, at the ends
# and the middle of its rho_tv range
@pytest.mark.parametrize("rho_tv", [0.9e-3, 1e-3, 1.1e-3])
@pytest.mark.parametrize("name,N", [
    ("catalyst1", 100), ("catalyst1", 150), ("catalyst1", 200),
    ("catalyst2", 150), ("catalyst2", 250)])
def test_warm_start_finds_the_two_switch_structure(name, N, rho_tv):
    est = detect_structure(solve_tv_euler(build_problem(name), N=N,
                                          rho_tv=rho_tv))
    assert est.switch_times.size == 2
    assert est.phase_kinds == ("bang-high", "singular", "bang-low")


def _reference_kinds(prob):
    """A constant law at a bound of its box is bang, any other singular."""
    kinds = []
    for ph in prob.phases:
        u = ph.law(0.0) if ph.law_kind == "constant" else np.nan
        kinds.append("bang-low" if np.all(u == ph.lower(0.0)) else
                     "bang-high" if np.all(u == ph.upper(0.0)) else
                     "singular")
    return tuple(kinds)


# the bound runs at rho_tv = 1e-3 give each problem's reference structure;
# goddard's singular arc decays smoothly to 0, so no single mesh edge
# carries its second switch
@pytest.mark.parametrize("name,N", [
    ("catalyst1", 100), ("catalyst1", 400), ("catalyst2", 250),
    ("jacobson", 100), ("bressan", 100), ("goddard", 100), ("goddard", 250)])
def test_warm_start_finds_the_reference_structure(name, N):
    prob = build_problem(name)
    est = detect_structure(solve_tv_euler(prob, N=N, rho_tv=1e-3))
    assert est.switch_times.size == prob.k
    assert est.phase_kinds == _reference_kinds(prob)
    assert np.all(np.abs(est.switch_times - prob.reference.s_star)
                  <= 0.05 * prob.T)


def _box(prob, N):
    """The control box of prob's first phase at the N mesh midpoints."""
    mids = (np.arange(N) + 0.5) * (prob.T / N)
    ph = prob.phases[0]
    return (np.stack([ph.lower(t) for t in mids], axis=1),
            np.stack([ph.upper(t) for t in mids], axis=1))


@pytest.mark.parametrize("name", ["catalyst1", "catalyst2", "jacobson",
                                  "bressan", "goddard"])
def test_adjoint_gradient_matches_central_differences(name):
    prob = build_problem(name)
    N = 40
    h = prob.T / N
    lower, upper = _box(prob, N)
    u = np.random.default_rng(3).uniform(lower, upper)

    def cost(uq):
        return prob.C(warmstart._rollout(prob, uq, h)[-1])

    _, grad = warmstart._adjoint(prob, warmstart._rollout(prob, u, h), u, h)
    for j in (0, N // 2, N - 1):
        for i in range(prob.m):
            eps = 1e-6 * (upper[i, j] - lower[i, j])
            e = np.zeros_like(u)
            e[i, j] = eps
            fd = (cost(u + e) - cost(u - e)) / (2 * eps)
            # measured gaps: below 2e-10 on catalyst (gradients about 2e-3),
            # 1e-9 on jacobson and bressan (up to 10), 4e-8 on goddard (20-50)
            assert abs(grad[i, j] - fd) <= 1e-9 + 1e-6 * abs(fd), (i, j)


# goddard's lane exp is np.exp, its one-point exp math.exp; a horizon of 20
# keeps the mass positive at full thrust
_ADJOINT_PROBLEMS = {name: build_problem(name, T=20.0 if name == "goddard"
                                         else None)
                     for name in ("catalyst1", "catalyst2", "jacobson",
                                  "bressan", "goddard")}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_ADJOINT_PROBLEMS)), data=st.data())
def test_batched_adjoint_matches_per_point_loop(name, data):
    prob = _ADJOINT_PROBLEMS[name]
    N = data.draw(st.integers(2, 300), label="N")
    lower, upper = _box(prob, N)
    frac = data.draw(arrays(np.float64, (prob.m, N),
                            elements=st.floats(0.0, 1.0)), label="frac")
    u = np.clip(lower + frac * (upper - lower), lower, upper)
    h = prob.T / N
    xs = _rollout_ref(prob, u, h)
    ps, grad = warmstart._adjoint(prob, xs, u, h)
    ps_ref, grad_ref = _adjoint_ref(prob, xs, u, h)
    if name == "goddard":
        for got, want in ((ps, ps_ref), (grad, grad_ref)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    else:
        assert ps.tobytes() == ps_ref.tobytes()
        assert grad.tobytes() == grad_ref.tobytes()


def test_one_point_jacobian_is_refused_before_the_first_iteration(
        monkeypatch):
    # a constant f_u gives one (2, 1) matrix whatever the number of points
    def prox(signal, weight):
        raise AssertionError("a TV iteration ran")
    monkeypatch.setattr(warmstart, "tv_prox", prox)
    prob = dataclasses.replace(build_problem("catalyst1"),
                               f_u=lambda x, u: np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match=r"catalyst1: f_u has shape "
                       r"\(2, 1\), not \(2, 1, 100\): .* lane axis last"):
        solve_tv_euler(prob, N=100, rho_tv=1e-3)


@pytest.fixture(scope="module")
def catalyst_dcp():
    prob = build_problem("catalyst1", T=1.0)
    return solve_tv_euler(prob, N=100, rho_tv=1e-3)


def test_solve_converges(catalyst_dcp):
    assert catalyst_dcp.converged
    assert np.all(catalyst_dcp.u >= catalyst_dcp.lower - 1e-12)
    assert np.all(catalyst_dcp.u <= catalyst_dcp.upper + 1e-12)


def test_solve_improves_on_midpoint_start(catalyst_dcp):
    prob = build_problem("catalyst1", T=1.0)
    # the iteration starts at the box midpoint; it must not end worse
    h = 1.0 / 100
    x = prob.x0.copy()
    for j in range(100):
        x = x + h * prob.f(x, np.array([0.5]))
    start = prob.C(x) + 1e-3 * 0.0
    assert catalyst_dcp.objective <= start + 1e-12


def test_huge_rho_flattens_control():
    prob = build_problem("catalyst1", T=1.0)
    dcp = solve_tv_euler(prob, N=100, rho_tv=1.0)
    assert np.sum(np.abs(np.diff(dcp.u, axis=1))) < 1e-8


def test_rho_sweep_tv_monotone():
    prob = build_problem("catalyst1", T=1.0)
    tvs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rho in (1e-5, 1e-4, 1e-3, 1e-2):
            dcp = solve_tv_euler(prob, N=100, rho_tv=rho)
            tvs.append(np.sum(np.abs(np.diff(dcp.u, axis=1))))
    assert all(a >= b - 1e-9 for a, b in zip(tvs, tvs[1:]))


@pytest.mark.parametrize("N,rho_tv", [
    (0, 1e-3), (1, 1e-3), (2.5, 1e-3), (100.0, 1e-3), (True, 1e-3),
    (100, float("nan")), (100, float("inf")), (100, -1.0)])
def test_solve_rejects_bad_arguments_before_work(N, rho_tv):
    def f(x, u):
        raise AssertionError("the model ran")
    prob = dataclasses.replace(build_problem("catalyst1"), f=f)
    with pytest.raises(ValueError):
        solve_tv_euler(prob, N=N, rho_tv=rho_tv)


def test_max_iters_warns_not_raises():
    prob = build_problem("catalyst1", T=1.0)
    with pytest.warns(UserWarning):
        dcp = solve_tv_euler(prob, N=100, rho_tv=1e-3, max_iters=2)
    assert not dcp.converged


# ---------------------------------------------------------------------------
# structure detection
# ---------------------------------------------------------------------------

def test_detect_catalyst_structure(catalyst_dcp):
    est = detect_structure(catalyst_dcp)
    assert est.switch_times.size == 2
    assert abs(est.switch_times[0] - 0.136299034594555) < 0.02
    assert abs(est.switch_times[1] - 0.725230107591655) < 0.02
    assert est.phase_kinds == ("bang-high", "singular", "bang-low")


def test_detect_p0_estimate_near_case2_optimum(catalyst_dcp):
    # converged Case-2 optimum is the oracle (p0* roughly (1.011, 0.956))
    est = detect_structure(catalyst_dcp)
    assert np.max(np.abs(est.p0_estimate - [1.0109, 0.9557])) < 0.2


def test_detect_nothing_without_regularization():
    prob = build_problem("catalyst1", T=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dcp = solve_tv_euler(prob, N=100, rho_tv=0.0)
    with pytest.raises(NoStructure):
        detect_structure(dcp)


def _synthetic_dcp(u_values, edges, N=50, lo=0.0, hi=1.0):
    prob = build_problem("catalyst1", T=1.0)
    h = 1.0 / N
    u = np.empty((1, N))
    bounds_lo = np.full((1, N), lo)
    bounds_hi = np.full((1, N), hi)
    idx = 0
    for val, end in zip(u_values, edges + [N]):
        u[0, idx:end] = val
        idx = end
    return DiscreteControlProblem(
        prob=prob, N=N, h=h, rho_tv=1e-3, u=u,
        lower=bounds_lo, upper=bounds_hi, objective=0.0, iterations=1,
        passes=1, converged=True, p0_estimate=np.zeros(2))


def test_detect_exact_synthetic_jumps():
    dcp = _synthetic_dcp([1.0, 0.4, 0.0], edges=[10, 35])
    est = detect_structure(dcp)
    np.testing.assert_allclose(est.switch_times, [10 / 50, 35 / 50],
                               atol=1e-12)
    assert est.phase_kinds == ("bang-high", "singular", "bang-low")


def test_detect_merges_smeared_jump():
    # a jump smeared over two mesh edges still yields one switch
    dcp = _synthetic_dcp([1.0, 0.5, 0.0], edges=[20, 21])
    est = detect_structure(dcp)
    assert est.switch_times.size == 1
    assert abs(est.switch_times[0] - 20.5 / 50) < 1.0 / 50


def test_detect_merges_runs_around_a_dropped_short_run():
    # a two-interval singular run inside a bang-high run is dropped, and
    # the bang-high runs on either side of it merge into one phase
    dcp = _synthetic_dcp([1.0, 0.5, 1.0, 0.0], edges=[20, 22, 35])
    est = detect_structure(dcp)
    np.testing.assert_allclose(est.switch_times, [35 / 50], atol=1e-12)
    assert est.phase_kinds == ("bang-high", "bang-low")


def test_detect_smooth_ramp_to_a_bound():
    # bang-high, a cosine ramp down to the lower bound over 20 intervals,
    # then bang-low: no mesh edge changes the control by a tenth of its range
    ramp = 0.5 * (1 + np.cos(np.pi * np.arange(1, 21) / 21))
    dcp = _synthetic_dcp([1.0, *ramp, 0.0], edges=list(range(15, 36)))
    est = detect_structure(dcp)
    np.testing.assert_allclose(est.switch_times, [15 / 50, 35 / 50],
                               atol=1e-12)
    assert est.phase_kinds == ("bang-high", "singular", "bang-low")


def test_detect_too_many_jumps():
    vals = [1.0, 0.0] * 5
    dcp = _synthetic_dcp(vals, edges=list(range(5, 50, 5)))
    with pytest.raises(NoStructure):
        detect_structure(dcp)


@pytest.mark.parametrize("jumps", [6, 7])
def test_detect_jump_count_limit(jumps):
    # up to 6 jumps are a structure; 7 are an oscillation
    vals = [1.0, 0.0] * 4
    dcp = _synthetic_dcp(vals[:jumps + 1], edges=list(range(5, 5 * jumps + 1, 5)))
    if jumps <= 6:
        assert detect_structure(dcp).switch_times.size == jumps
    else:
        with pytest.raises(NoStructure, match="7 jumps"):
            detect_structure(dcp)


def test_structure_estimate_validation():
    from switchopt.warmstart import StructureEstimate
    with pytest.raises(ValueError):
        StructureEstimate(switch_times=np.array([0.5, 0.4]),
                          phase_kinds=("bang-high", "singular", "bang-low"),
                          p0_estimate=np.zeros(2))


def test_mesh_size_must_be_an_integer():
    # N = 2.5 on catalyst1 at T = 1 took h = 0.4 over 3 intervals, an Euler
    # rollout to t = 1.2; as for IntegratorSettings.max_steps, a NumPy
    # integer is one, a float or a bool is not
    prob = build_problem("catalyst1", T=1.0)
    dcp = solve_tv_euler(prob, N=np.int64(20))
    assert dcp.u.shape == (1, 20)
    with pytest.raises(ValueError, match="need an integer N >= 2"):
        dataclasses.replace(dcp, N=2.5)
