import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchopt import odeint

from switchopt.exceptions import NonFiniteState, StepLimitExceeded, \
    StepUnderflow, SwitchOptError
from switchopt.odeint import (
    IntegratorSettings, PiecewiseOde, integrate_lanes, integrate_piecewise,
    integrate_with_quadrature,
)

from oracles import integrate_backward, quadrature_backward, reflect

# the library integrates forward; the oracles reflect time to go back
INTEGRATE = {"forward": integrate_piecewise, "backward": integrate_backward}


def _tight(**kw):
    return IntegratorSettings(rel_tol=1e-10, abs_tol=1e-10, **kw)


# ---------------------------------------------------------------------------
# the tableau
# ---------------------------------------------------------------------------

def _grow(tree):
    """Each rooted tree made by hanging one more leaf under a vertex of
    ``tree``; a tree is the sorted tuple of its children's subtrees."""
    yield tuple(sorted(tree + ((),)))
    for i, child in enumerate(tree):
        for grown in _grow(child):
            yield tuple(sorted(tree[:i] + (grown,) + tree[i + 1:]))


def _order_residuals(b, A, order):
    """|b . Phi(t) - 1/gamma(t)| over the rooted trees t with ``order``
    vertices: the Runge-Kutta order conditions of that order."""
    trees = {()}
    for _ in range(order - 1):
        trees = {grown for tree in trees for grown in _grow(tree)}

    def weights(tree):            # (Phi(tree), gamma(tree), vertices)
        phi, gamma, size = np.ones(len(b)), 1, 1
        for child in tree:
            w, g, s = weights(child)
            phi, gamma, size = phi * (A @ w), gamma * g, size + s
        return phi, gamma * size, size

    return [abs(b @ phi - 1 / gamma) for phi, gamma, _ in map(weights, trees)]


def test_tableau_order_conditions():
    tab = odeint._DOP853
    S = len(tab.c)
    A = np.zeros((S, S))
    for i, row in enumerate(tab.a):
        A[i, :i] = row
    c, b = np.array(tab.c), tab.b
    np.testing.assert_allclose(A.sum(axis=1), c, rtol=0, atol=1e-15)
    assert abs(b.sum() - 1.0) <= 1e-15
    # 1 + 1 + 2 + 4 + 9 + 20 + 48 + 115 = 200 conditions up to order 8
    # for b, which misses order 9
    residuals = [_order_residuals(b, A, q) for q in range(1, 9)]
    assert [len(r) for r in residuals] == [1, 1, 2, 4, 9, 20, 48, 115]
    assert max(map(max, residuals)) <= 1e-15
    assert max(_order_residuals(b, A, 9)) == pytest.approx(2.68e-5, rel=0.01)
    # the embedded solutions b - e5 and b - e3 have orders 5 and 3
    for e, order, miss in ((tab.e5, 5, 4.53e-4), (tab.e3, 3, 2.52e-2)):
        for q in range(1, order + 1):
            assert max(_order_residuals(b - e, A, q)) <= 1e-14
        assert max(_order_residuals(b - e, A, order + 1)) \
            == pytest.approx(miss, rel=0.01)
    # the combined estimate err5^2 / sqrt(err5^2 + 0.01 err3^2) is O(h^8):
    # order q = 7, behind the PI exponents
    assert tab.q == 7
    assert odeint._ALPHA == 0.7 / 8 and odeint._BETA == 0.4 / 8
    # FSAL: the last stage is y_{n+1}'s derivative, weighted 0 in y_{n+1}
    assert tab.fsal
    np.testing.assert_array_equal(A[-1, :-1], b[:-1])
    assert c[-1] == 1.0 and b[-1] == 0.0
    assert (len(tab.e5), len(tab.e3)) == (S, S)
    assert (odeint._STAGES, odeint._WEIGHTED, odeint._RECORDED) \
        == (13, 12, 11)


def test_step_converges_at_order_eight():
    # one step of the method, on lanes, from y(0) = 1 of y' = y cos t,
    # whose solution is exp(sin t): halving h cuts the error at t = 2 by
    # at least 2^7.5
    def f(t, y):
        return y * np.cos(t)[:, None]

    errs = []
    for n in (8, 16):
        t, y = np.zeros(1), np.ones((1, 1))
        h = np.full(1, 2.0 / n)
        for _ in range(n):
            y, K = odeint._step(f, t, h, y)
            t = t + h
        assert K.shape == (1, odeint._WEIGHTED, 1)
        errs.append(abs(y[0, 0] - np.exp(np.sin(2.0))))
    assert errs[1] > 1e-13
    assert errs[0] / errs[1] >= 2 ** 7.5


def test_exponential_decay():
    ode = PiecewiseOde(dim=1, segments=np.array([0.0, 2.0]),
                       rhs=lambda j, t, x: -x)
    traj = integrate_piecewise(ode, np.array([1.0]), settings=_tight())
    assert traj.breakpoint_states[-1][0] == pytest.approx(np.exp(-2.0),
                                                          abs=1e-9)


def test_constant_rhs_exact():
    ode = PiecewiseOde(dim=2, segments=np.array([0.0, 1.0, 3.0]),
                       rhs=lambda j, t, x: np.array([1.0, -2.0]))
    traj = integrate_piecewise(ode, np.zeros(2), settings=_tight())
    np.testing.assert_allclose(traj.breakpoint_states[-1], [3.0, -6.0],
                               rtol=1e-12)


def _rk4(f, t0, t1, x0, n):
    h = (t1 - t0) / n
    x = np.asarray(x0, dtype=float).copy()
    t = t0
    for _ in range(n):
        k1 = f(t, x)
        k2 = f(t + h / 2, x + h / 2 * k1)
        k3 = f(t + h / 2, x + h / 2 * k2)
        k4 = f(t + h, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return x


def test_matches_fixed_step_rk4_oracle():
    # reaction kinetics with a control switch: u=1 then u=0.227 then u=0
    k1, k2, k3 = 1.0, 10.0, 1.0
    s = [0.0, 0.1363, 0.7252, 1.0]
    us = [1.0, 0.227142082708498, 0.0]

    def f_u(u):
        def f(t, x):
            a, b = x
            return np.array([u * (k2 * b - k1 * a),
                             u * (k1 * a - k2 * b) - (1 - u) * k3 * b])
        return f

    x = np.array([1.0, 0.0])
    for j in range(3):
        x = _rk4(f_u(us[j]), s[j], s[j + 1], x, 100_000)

    ode = PiecewiseOde(dim=2, segments=np.array(s),
                       rhs=lambda j, t, z: f_u(us[j])(t, z))
    traj = integrate_piecewise(ode, np.array([1.0, 0.0]), settings=_tight())
    np.testing.assert_allclose(traj.breakpoint_states[-1], x, atol=1e-7)


def test_quadrature_polynomial():
    ode = PiecewiseOde(dim=1, segments=np.array([0.0, 1.0]),
                       rhs=lambda j, t, x: np.zeros(1))
    _, q = integrate_with_quadrature(ode, np.zeros(1),
                                     lambda j, t, x: 3 * t * t,
                                     settings=_tight())
    assert q == pytest.approx(1.0, abs=1e-9)


def test_quadrature_backward_matches_forward():
    ode = PiecewiseOde(dim=1, segments=np.array([0.0, 0.5, 2.0]),
                       rhs=lambda j, t, x: np.array([np.cos(t)]))
    integrand = lambda j, t, x: float(x[0])
    fw, qf = integrate_with_quadrature(ode, np.zeros(1), integrand,
                                       settings=_tight())
    end = fw.breakpoint_states[-1]
    qb = quadrature_backward(ode, end, integrand, settings=_tight())
    # integral of sin(t) over [0,2]
    assert qf == pytest.approx(1 - np.cos(2.0), abs=1e-8)
    assert qb == pytest.approx(qf, abs=1e-8)


def _simpson(f, a, b, n=20001):
    t = np.linspace(a, b, n)
    y = np.array([f(v) for v in t])
    h = (b - a) / (n - 1)
    return h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-2:2].sum())


def test_quadrature_simpson_oracle():
    # quadrature of a state-dependent integrand against composite Simpson
    ode = PiecewiseOde(dim=1, segments=np.array([0.0, 3.0]),
                       rhs=lambda j, t, x: np.array([-0.7 * x[0]]))
    integrand = lambda j, t, x: float(x[0] ** 2 + np.sin(t))
    _, q = integrate_with_quadrature(ode, np.array([2.0]), integrand,
                                     settings=_tight())
    oracle = _simpson(lambda t: (2 * np.exp(-0.7 * t)) ** 2 + np.sin(t),
                      0.0, 3.0)
    assert q == pytest.approx(oracle, abs=1e-7)


def test_tolerance_tightening_reduces_error():
    ode = PiecewiseOde(dim=1, segments=np.array([0.0, 5.0]),
                       rhs=lambda j, t, x: np.array([x[0] * np.cos(t)]))
    exact = np.exp(np.sin(5.0))
    errs = []
    for tol in (1e-4, 1e-6, 1e-8, 1e-10):
        st = IntegratorSettings(rel_tol=tol, abs_tol=tol)
        traj = integrate_piecewise(ode, np.ones(1), settings=st)
        errs.append(abs(traj.breakpoint_states[-1][0] - exact))
    assert errs[0] > errs[2] > errs[3]
    assert errs[3] < 1e-9


def test_backward_round_trip():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3)) * 0.5
    ode = PiecewiseOde(dim=3, segments=np.array([0.0, 0.4, 1.0]),
                       rhs=lambda j, t, x: A @ x)
    x0 = rng.normal(size=3)
    fw = integrate_piecewise(ode, x0, settings=_tight())
    bw = integrate_backward(ode, fw.breakpoint_states[-1], settings=_tight())
    np.testing.assert_allclose(bw.breakpoint_states[0], x0, atol=1e-8)


def test_direction_is_no_argument():
    # the integrators run forward only, and take their settings by
    # keyword: a positional direction fails at the call
    ode = PiecewiseOde(dim=1, segments=np.array([0.0, 1.0]),
                       rhs=lambda j, t, x: -x)
    with pytest.raises(TypeError):
        integrate_piecewise(ode, np.ones(1), "backward")
    with pytest.raises(TypeError):
        integrate_with_quadrature(ode, np.ones(1), lambda j, t, x: 1.0,
                                  "backward")


def test_no_step_straddles_breakpoint():
    # rhs discontinuous at the breakpoint: accuracy requires a hard restart
    ode = PiecewiseOde(
        dim=1, segments=np.array([0.0, 1.0 / 3.0, 1.0]),
        rhs=lambda j, t, x: np.array([1.0 if j == 0 else -2.0]))
    traj = integrate_piecewise(ode, np.zeros(1), settings=_tight())
    exact = 1.0 / 3.0 - 2.0 * (1.0 - 1.0 / 3.0)
    assert traj.breakpoint_states[-1][0] == pytest.approx(exact, abs=1e-12)
    # the raw step mesh must contain the breakpoint exactly
    assert np.any(traj.step_times == 1.0 / 3.0)


def test_dense_samples_interpolate():
    ode = PiecewiseOde(dim=1, segments=np.array([0.0, 2.0]),
                       rhs=lambda j, t, x: np.array([np.exp(t) - x[0]]))
    traj = integrate_piecewise(ode, np.array([0.5]), settings=_tight(),
                               sample_times=np.linspace(0.0, 2.0, 101))
    exact = lambda t: np.sinh(t) + 0.5 * np.exp(-t)
    err = np.abs(traj.sample_states[:, 0] - exact(traj.sample_times))
    assert err.max() < 1e-7


def test_blowup_raises():
    # x' = x^2 blows up at t = 1 / x0.  From x0 = 10 the steps close in on
    # the pole until they fall below h_min.  From 1e100 the pole lies
    # nearer than h_min, so every trial's stages overflow and halve it
    ode = PiecewiseOde(dim=1, segments=np.array([0.0, 2.0]),
                       rhs=lambda j, t, x: x * x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # overflowing stages are not warned
        with pytest.raises(StepUnderflow):
            integrate_piecewise(ode, np.array([10.0]))
        with pytest.raises(NonFiniteState):
            integrate_piecewise(ode, np.array([1e100]))


@pytest.mark.parametrize("loop", ["scalar", "lanes"])
def test_non_finite_first_derivative_raises_without_warning(loop):
    # 0 / 0 in the first RHS call of a segment: the error, not a warning
    rhs = lambda j, t, x: x / x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState):
            if loop == "scalar":
                integrate_piecewise(PiecewiseOde(1, [0.0, 1.0], rhs),
                                    np.zeros(1))
            else:
                integrate_lanes(PiecewiseOde(1, [[0.0, 0.0], [1.0, 1.0]], rhs),
                                np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# one finiteness test per step attempt
# ---------------------------------------------------------------------------

def _per_stage_segment(rhs, j, t0, t1, y0, settings, budget):
    """The segment loop that tests each stage for finiteness and stops an
    attempt at the first non-finite one (reference)."""
    S = odeint._STAGES
    t, y = t0, np.array(y0, dtype=float)
    h = min(odeint._H_INIT, t1 - t0)
    err_prev = 1.0
    steps = 0
    record = []
    k = np.empty((S, y.size))
    k_cols = [k[:i].T for i in range(S)]
    abs_y = np.abs(y)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = rhs(j, t, y)
        if not np.isfinite(k1).all():
            raise NonFiniteState(f"non-finite derivative at t={t}")

        while t < t1:
            if steps >= budget:
                raise StepLimitExceeded(f"exceeded {settings.max_steps} steps")
            clipped = h >= t1 - t
            h_try = t1 - t if clipped else h

            k[0] = k1
            failed = False
            for i in range(1, S):
                k[i] = rhs(j, t + odeint._C[i] * h_try,
                           y + h_try * (k_cols[i] @ odeint._A[i]))
                if not np.isfinite(k[i]).all():
                    failed = True
                    break
            if not failed:
                y_new = y + h_try * (odeint._B @ k)
                failed = not np.isfinite(y_new).all()

            steps += 1
            if failed:
                h = 0.5 * h_try
                if h < odeint._H_MIN:
                    raise NonFiniteState(f"non-finite state near t={t}")
                continue

            abs_new = np.abs(y_new)
            err = float(odeint._error_norm(
                h_try, k, settings.abs_tol
                + settings.rel_tol * np.maximum(abs_y, abs_new)))
            if err <= 1.0:
                K = k.copy()
                record.append((t, h_try, y, K[:odeint._RECORDED]))
                t = t1 if clipped else t + h_try
                y, abs_y = y_new, abs_new
                k1 = K[S - 1]
                fac = odeint._FAC_MAX if err == 0.0 else (
                    odeint._SAFETY * err ** (-odeint._ALPHA)
                    * err_prev ** odeint._BETA)
                err_prev = max(err, 1e-10)
                h = h_try * min(odeint._FAC_MAX, max(odeint._FAC_MIN, fac))
            else:
                fac = max(odeint._FAC_MIN, odeint._SAFETY * err ** (-odeint._ALPHA))
                h = h_try * min(1.0, fac)
                if h < odeint._H_MIN:
                    raise StepUnderflow(f"step size {h:.3e} below h_min")
    return y, steps, tuple(np.array(a) for a in zip(*record))


def _outcome(ode, y_start, direction, settings):
    """(breakpoint states, step_times, steps) of the integration in
    ``direction``, or the type of the exception it raises."""
    try:
        traj = INTEGRATE[direction](ode, y_start, settings=settings)
    except SwitchOptError as exc:
        return type(exc)
    return np.array(traj.breakpoint_states), traj.step_times, traj.steps


def test_non_finite_seventh_stage_halves_the_step():
    # a non-finite last stage (the FSAL derivative at t + h, weight 0 in
    # y_new, the _STAGES-th call of the first attempt) fails the attempt
    # and halves the step; it does not reach the error test, whose
    # rejection would cut the step to 0.2 h
    S, calls = odeint._STAGES, []

    def rhs(j, t, y):
        calls.append(t)
        return np.full(1, np.nan) if len(calls) == S else -y

    ode = PiecewiseOde(dim=1, segments=np.array([0.0, 0.01]), rhs=rhs)
    traj = integrate_piecewise(ode, np.ones(1), settings=_tight())
    assert calls[S - 1] == odeint._H_INIT
    assert traj.step_times[1] == 0.5 * odeint._H_INIT
    assert traj.steps == traj.step_times.size  # one attempt more than steps
    calls.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odeint, "_integrate_segment", _per_stage_segment)
        ref = _outcome(ode, np.ones(1), "forward", _tight())
    calls.clear()
    got = _outcome(ode, np.ones(1), "forward", _tight())
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def _toy(kind, rate, band):
    """(rhs, start state at t) of a toy whose trial stages fail.  "band":
    y1 = sin(rate t) exactly, and a stage farther than ``band`` from it is
    NaN.  "overflow": y2 is driven by exp(deviation / band), which
    overflows to inf far from the solution.  "wall": y1 = t, and the RHS
    is NaN beyond y1 = 1e5 band rate, which the solution may run into."""
    def rhs(j, t, y):
        if kind == "wall":
            return np.where(y[0] > 1e5 * band * rate, np.nan,
                            np.array([1.0, -(j + 1) * y[1]]))
        dev = np.abs(y[0] - np.sin(rate * t))
        y2 = (j + 1) * (y[0] - y[1] if kind == "band"
                        else np.exp(dev / band) - 1.0 - y[1])
        return np.where(kind == "band" and dev > band, np.nan,
                        np.array([rate * np.cos(rate * t), y2]))
    if kind == "wall":
        return rhs, lambda t: np.array([t, 1.0])
    return rhs, lambda t: np.array([np.sin(rate * t), 0.5])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["band", "overflow", "wall"]),
       rate=st.floats(0.3, 8.0),
       band=st.integers(-8, -4).map(lambda e: 10.0 ** e),
       ends=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3,
                     unique=True),
       direction=st.sampled_from(["forward", "backward"]),
       tol=st.sampled_from([1e-6, 1e-9, 1e-11]))
def test_one_test_per_attempt_matches_per_stage_loop(kind, rate, band, ends,
                                                     direction, tol):
    # the once-per-attempt test fails the attempts the per-stage test
    # fails, so the steps, nodes and states are the same bits, or both
    # raise the same exception
    rhs, start = _toy(kind, rate, band)
    seg = np.concatenate(([0.0], np.cumsum(sorted(ends))))
    ode = PiecewiseOde(dim=2, segments=seg, rhs=rhs)
    y_start = start(seg[0] if direction == "forward" else seg[-1])
    settings = IntegratorSettings(rel_tol=tol, abs_tol=tol, max_steps=1000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odeint, "_integrate_segment", _per_stage_segment)
        ref = _outcome(ode, y_start, direction, settings)
    got = _outcome(ode, y_start, direction, settings)
    if isinstance(ref, type):
        assert got is ref
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_step_budget_enforced():
    st = IntegratorSettings(rel_tol=1e-12, abs_tol=1e-12, max_steps=5)
    ode = PiecewiseOde(dim=1, segments=np.array([0.0, 10.0]),
                       rhs=lambda j, t, x: np.array([np.cos(10 * t)]))
    with pytest.raises(StepLimitExceeded):
        integrate_piecewise(ode, np.zeros(1), settings=st)


def test_settings_validation():
    for tol in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            IntegratorSettings(rel_tol=tol)
        with pytest.raises(ValueError):
            IntegratorSettings(abs_tol=tol)
    with pytest.raises(ValueError):
        IntegratorSettings(max_steps=0)


def _piecewise_oscillator():
    def rhs(j, t, x):
        w = (1.0, 3.0, 0.5)[j]
        return np.array([x[1], -w * x[0] + 0.1 * np.sin(t) * x[1]])
    return PiecewiseOde(dim=2, segments=np.array([0.0, 1.0, 1.5, 2.0]),
                        rhs=rhs)


def _scalar_step(rhs, j, t, y, h):
    """One step of the tableau from (t, y) over h by the scalar loop's
    products (reference)."""
    k = np.empty((odeint._WEIGHTED, y.size))
    k[0] = rhs(j, t, y)
    for i in range(1, odeint._WEIGHTED):
        k[i] = rhs(j, t + odeint._C[i] * h, y + h * (k[:i].T @ odeint._A[i]))
    return y + h * (odeint._B[:odeint._WEIGHTED] @ k)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_samples_are_one_step_from_the_node_before(direction):
    # samples 2**-10 apart land on both breakpoints; each sample is the
    # state of the last node at or before it (in the integration's own
    # time), advanced by one step to it, or that node's state when it
    # lies on it, and the samples come back in the order asked for, in
    # original time
    ode = _piecewise_oscillator()
    want_t = np.linspace(0.0, 2.0, 2049)
    traj = INTEGRATE[direction](ode, np.array([1.0, 0.0]), settings=_tight(),
                                sample_times=want_t)
    assert np.array_equal(traj.sample_times, want_t)
    run = ode if direction == "forward" else reflect(ode)
    t_run = want_t if direction == "forward" else 2.0 - want_t
    seg, on_node = run.segments, 0
    for m, tq in enumerate(t_run):
        j = min(int(np.searchsorted(seg, tq, side="right")) - 1, 2)
        t, _, y, _ = traj.records[j]
        nodes = np.append(t, seg[j + 1])
        states = np.vstack((y, traj.breakpoint_states[j + 1]
                            if direction == "forward" else
                            traj.breakpoint_states[::-1][j + 1]))
        n = int(np.searchsorted(nodes, tq, side="right")) - 1
        if nodes[n] == tq:
            on_node += 1
            want = states[n]
        else:
            want = _scalar_step(run.rhs, j, nodes[n], states[n], tq - nodes[n])
        np.testing.assert_allclose(traj.sample_states[m], want, rtol=1e-14,
                                   atol=1e-15)
    assert on_node >= 4   # both ends and both breakpoints


def test_samples_at_nodes_and_outside_the_interval():
    # a sample at a node takes its state with no RHS call; a sample time
    # outside the interval is refused
    calls = []

    def rhs(j, t, x):
        calls.append(np.shape(t))
        return -x

    ode = PiecewiseOde(dim=1, segments=np.array([0.0, 0.5, 1.0]), rhs=rhs)
    traj = integrate_piecewise(ode, np.ones(1), settings=_tight())
    n_calls = len(calls)
    again = odeint.sample_states(rhs, ode.segments, traj.records,
                                 traj.breakpoint_states, traj.step_times)
    assert len(calls) == n_calls
    assert np.array_equal(again, np.vstack(
        [np.vstack((r[2], x)) for r, x in zip(traj.records,
                                               traj.breakpoint_states[1:])]))
    mid = odeint.sample_states(rhs, ode.segments, traj.records,
                               traj.breakpoint_states, [0.25, 0.75])
    assert calls[n_calls:] == [(1,)] * 2 * odeint._WEIGHTED
    np.testing.assert_allclose(mid[:, 0], np.exp(-np.array([0.25, 0.75])),
                               rtol=1e-12)
    for bad in ([-0.1], [1.0 + 1e-12], [np.nan]):
        with pytest.raises(ValueError):
            odeint.sample_states(rhs, ode.segments, traj.records,
                                 traj.breakpoint_states, bad)


# ---------------------------------------------------------------------------
# lockstep lanes against the scalar integrator, lane by lane
# ---------------------------------------------------------------------------

def _banded_ode(segments):
    """y1 = sin(2t) exactly, and a stage that strays from it by more than
    1e-5 lands where the law is undefined (NaN), so that oversized trial
    steps fail and halve; on segment 1, y2 relaxes at rate 2000 toward
    y1^2, which makes the error test reject steps."""
    def rhs(j, t, y):
        slow = y[0] - y[1]
        dy = np.array([2.0 * np.cos(2.0 * t),
                       slow if j == 0 else 2000.0 * (y[0] * y[0] - y[1])])
        return np.where(np.abs(y[0] - np.sin(2.0 * t)) > 1e-5, np.nan, dy)
    return PiecewiseOde(dim=2, segments=segments, rhs=rhs)


def test_lanes_take_the_scalar_steps():
    lanes = 7
    seg = np.vstack([np.zeros(lanes), np.linspace(0.3, 0.5, lanes),
                     np.linspace(0.6, 0.9, lanes)])
    ode = _banded_ode(seg)
    y_start = np.vstack([np.zeros(lanes), np.linspace(-1, 1, lanes)])
    st = IntegratorSettings(rel_tol=1e-9, abs_tol=1e-9)
    states, steps, _ = integrate_lanes(ode, y_start, st)

    repeated = 0
    for b in range(lanes):
        lane = dataclasses.replace(ode, segments=seg[:, b])
        traj = integrate_piecewise(lane, y_start[:, b], settings=st)
        assert steps[b] == traj.steps
        for i, x in enumerate(traj.breakpoint_states):
            np.testing.assert_allclose(states[i][:, b], x, rtol=0, atol=1e-12)
        repeated += traj.steps - (traj.step_times.size - 2)
    # both the non-finite halving and the error test's rejection ran
    assert repeated > 2 * lanes


def _lanes_and_scalar(rhs, seg, y_start, settings):
    """The lanes' exception and, per lane, the scalar integration's (None
    when it succeeds)."""
    ode = PiecewiseOde(dim=y_start.shape[0], segments=seg, rhs=rhs)
    scalar = []
    for b in range(seg.shape[1]):
        try:
            integrate_piecewise(dataclasses.replace(ode, segments=seg[:, b]),
                                y_start[:, b], settings=settings)
            scalar.append(None)
        except SwitchOptError as exc:
            scalar.append(type(exc))
    with pytest.raises(SwitchOptError) as info:
        integrate_lanes(ode, y_start, settings=settings)
    return info.value, scalar


@pytest.mark.parametrize("kind", [NonFiniteState, StepUnderflow,
                                  StepLimitExceeded])
def test_failing_lane_raises_its_scalar_exception(kind):
    lanes = 4
    seg = np.vstack([np.zeros(lanes), np.full(lanes, 0.5), np.ones(lanes)])
    settings = IntegratorSettings()
    if kind is NonFiniteState:
        # dy/dt = y^2 blows up at t = 1 / y0, inside the interval for lane
        # 2, and the law is undefined (NaN) past y = 1e3
        rhs = lambda j, t, y: np.where(y > 1e3, np.nan, y * y)
        y_start = np.array([[0.2, 0.5, 4.0, 0.1]])
    elif kind is StepUnderflow:
        # an amplitude-y2 law that no step size resolves, in lane 1 only
        rhs = lambda j, t, y: np.array([y[1] * 1e12 * np.sin(1e15 * t),
                                        0.0 * y[1]])
        y_start = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    else:
        # the fastest oscillation needs the most steps
        rhs = lambda j, t, y: np.cos(y[1] * t) + 0.0 * y
        y_start = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 5.0, 60.0, 2.0]])
        settings = IntegratorSettings(max_steps=40)
    exc, scalar = _lanes_and_scalar(rhs, seg, y_start, settings)
    b = int(str(exc).split(":")[0].removeprefix("lane "))
    assert type(exc) is kind and scalar[b] is kind
    assert scalar.count(None) == lanes - 1


def test_lanes_need_lane_states():
    ode = PiecewiseOde(dim=1, segments=np.zeros((2, 3)) + [[0.0], [1.0]],
                       rhs=lambda j, t, y: -y)
    with pytest.raises(ValueError):
        integrate_lanes(ode, np.ones(3))
    with pytest.raises(ValueError):
        PiecewiseOde(dim=1, segments=np.array([[0.0, 1.0], [1.0, 1.0]]),
                     rhs=lambda j, t, y: -y)
