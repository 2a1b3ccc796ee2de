import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from switchopt import odeint

from switchopt.exceptions import NonFiniteState, StepLimitExceeded, \
    StepUnderflow, SwitchOptError
from switchopt.odeint import (
    IntegratorSettings, PiecewiseOde, integrate_piecewise,
    integrate_with_quadrature,
)

from oracles import integrate_backward, quadrature_backward, reflect, \
    sample_backward

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
    S = len(odeint._C)
    A = np.zeros((S, S))
    for i, row in enumerate(odeint._A):
        A[i, :i] = row
    c, b = np.array(odeint._C), odeint._B
    np.testing.assert_allclose(A.sum(axis=1), c, rtol=0, atol=1e-15)
    assert abs(b.sum() - 1.0) <= 1e-15
    # 1 + 1 + 2 + 4 + 9 + 20 + 48 + 115 = 200 conditions up to order 8
    # for b, which misses order 9
    residuals = [_order_residuals(b, A, q) for q in range(1, 9)]
    assert [len(r) for r in residuals] == [1, 1, 2, 4, 9, 20, 48, 115]
    assert max(map(max, residuals)) <= 1e-15
    assert max(_order_residuals(b, A, 9)) == pytest.approx(2.68e-5, rel=0.01)
    # the embedded solutions b - e5 and b - e3 have orders 5 and 3
    for e, order, miss in ((odeint._E5, 5, 4.53e-4),
                           (odeint._E3, 3, 2.52e-2)):
        for q in range(1, order + 1):
            assert max(_order_residuals(b - e, A, q)) <= 1e-14
        assert max(_order_residuals(b - e, A, order + 1)) \
            == pytest.approx(miss, rel=0.01)
    # the combined estimate err5^2 / sqrt(err5^2 + 0.01 err3^2) is O(h^8):
    # order q = 7, behind the PI exponents
    assert odeint._Q == 7
    assert odeint._ALPHA == 0.7 / 8 and odeint._BETA == 0.4 / 8
    # FSAL: the last stage is y_{n+1}'s derivative, weighted 0 in y_{n+1}
    np.testing.assert_array_equal(A[-1, :-1], b[:-1])
    assert c[-1] == 1.0 and b[-1] == 0.0
    assert (len(odeint._E5), len(odeint._E3)) == (S, S)
    assert (odeint._STAGES, odeint._WEIGHTED, odeint._RECORDED) \
        == (13, 12, 11)


def test_step_converges_at_order_eight():
    # one step of the method, on lanes, from y(0) = 1 of y' = y cos t,
    # whose solution is exp(sin t): halving h cuts the error at t = 2 by
    # at least 2^7.5
    def f(j, t, y):
        return y * np.cos(t)

    errs = []
    for n in (8, 16):
        t, y = np.zeros(1), np.ones((1, 1))
        h = np.full(1, 2.0 / n)
        for _ in range(n):
            y, P = odeint._step(f, 0, t, h, y, 1.0)
            t = t + h
        assert P.shape == (1, odeint._RECORDED, 1)
        errs.append(abs(y[0, 0] - np.exp(np.sin(2.0))))
    assert errs[1] > 1e-13
    assert errs[0] / errs[1] >= 2 ** 7.5


@settings(max_examples=100, deadline=None)
@given(data=st.data(), lanes=st.integers(1, 6), dim=st.integers(1, 12))
def test_error_norm_of_a_point_is_its_lane(data, lanes, dim):
    # stage increments of magnitude 1e-300 .. 1e10 and either sign, exact
    # zeros, and lanes of zero increments only, whose den is 0; a point
    # below dim _IN_ORDER takes the float path, with its weights an array
    # or, as the scalar loop passes them, a list
    shape = (lanes, odeint._STAGES, dim)
    dk = 10.0 ** data.draw(arrays(float, shape, elements=st.floats(-300, 10)))
    dk[data.draw(arrays(bool, shape))] *= -1.0
    dk[data.draw(arrays(bool, shape))] = 0.0
    zero = data.draw(arrays(bool, lanes))
    dk[zero] = 0.0
    weights = 10.0 ** data.draw(arrays(float, (lanes, dim),
                                       elements=st.floats(-12, 4)))
    on_lanes = odeint._error_norm(dk, weights)
    for b in range(lanes):
        for w in (weights[b], weights[b].tolist()):
            point = odeint._error_norm(dk[b], w)
            assert np.float64(point).tobytes() == on_lanes[b].tobytes()
    assert np.all(on_lanes[zero] == 0.0)


def test_error_norm_of_increments_carries_the_step():
    # the norm of the increments h k is |h| times the norm of the stages k,
    # as the estimates are linear in them: no separate factor |h|
    rng = np.random.default_rng(3)
    k, weights = rng.normal(size=(odeint._STAGES, 3)), np.full(3, 1e-6)
    for h in (1e-3, -0.25, 2.0):
        assert odeint._error_norm(h * k, weights) == pytest.approx(
            abs(h) * odeint._error_norm(k, weights), rel=1e-14)


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
    traj = integrate_piecewise(ode, np.array([0.5]), settings=_tight())
    t = np.linspace(0.0, 2.0, 101)
    states = odeint.sample_states(ode.rhs, ode.segments, traj.records,
                                  traj.breakpoint_states, t)
    exact = lambda t: np.sinh(t) + 0.5 * np.exp(-t)
    err = np.abs(states[:, 0] - exact(t))
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
                integrate_piecewise(
                    PiecewiseOde(1, [[0.0, 0.0], [1.0, 1.0]], rhs),
                    np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# the starting step
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(data=st.data(), lanes=st.integers(1, 6), dim=st.integers(1, 12),
       tol=st.sampled_from([1e-6, 1e-8, 1e-11]))
def test_start_step_of_a_point_is_its_lane(data, lanes, dim, tol):
    # states and derivatives of magnitude 1e-12 .. 1e12 and either sign,
    # exact zeros, probes with non-finite entries, and spans from 1e-16 on;
    # the lane arrays are column-major, as the lockstep loop's RHS values
    # are transposed views, and the point's start is its lane's, bit for bit
    def draw(shape, lo=-12, hi=12):
        x = 10.0 ** data.draw(arrays(float, shape, elements=st.floats(lo, hi)))
        x[data.draw(arrays(bool, shape))] *= -1.0
        x[data.draw(arrays(bool, shape))] = 0.0
        return np.asfortranarray(x)

    y, f0, f1 = draw((lanes, dim)), draw((lanes, dim)), draw((lanes, dim))
    f1[data.draw(arrays(bool, (lanes, dim)))] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    span = 10.0 ** data.draw(arrays(float, lanes, elements=st.floats(-16, 2)))
    tolerances = IntegratorSettings(rel_tol=tol, abs_tol=tol)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        on_lanes = odeint._start_step(lambda h0: f1, y, f0, span, tolerances)
        for b in range(lanes):
            point = odeint._start_step(lambda h0: f1[b], y[b], f0[b],
                                       span[b], tolerances)
            assert np.float64(point).tobytes() == on_lanes[b].tobytes()
    assert np.all(on_lanes >= odeint._H_MIN)


EXTREMES = [0.0, 5e-324, 1e-160, 1.0, 1e160, 1e200, 1e308, np.inf, np.nan]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), lanes=st.integers(1, 8), dim=st.integers(1, 3),
       tol=st.sampled_from([1e-6, 1e-11]))
def test_start_step_of_an_extreme_point_is_its_lane(data, lanes, dim, tol):
    # states, derivatives and probes of either sign among subnormal, huge,
    # infinite and NaN values, whose sums of squares underflow, overflow
    # or are NaN and give h0 = 0 or NaN: the float path takes NumPy's
    # quotients and NaN-propagating minimum and maximum, raises nothing,
    # and gives the lane's start bit for bit
    def draw(shape):
        x = data.draw(arrays(float, shape, elements=st.sampled_from(EXTREMES)))
        x[data.draw(arrays(bool, shape))] *= -1.0
        return np.asfortranarray(x)

    y, f0, f1 = draw((lanes, dim)), draw((lanes, dim)), draw((lanes, dim))
    span = data.draw(arrays(float, lanes,
                            elements=st.sampled_from([1e-16, 1.0, 1e300])))
    tolerances = IntegratorSettings(rel_tol=tol, abs_tol=tol)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        on_lanes = odeint._start_step(lambda h0: f1, y, f0, span, tolerances)
        for b in range(lanes):
            point = odeint._start_step(lambda h0: f1[b], y[b], f0[b],
                                       span[b], tolerances)
            assert np.float64(point).tobytes() == on_lanes[b].tobytes()


def _first_steps(value, loop):
    """The first accepted step of y' = -y from 1 over [0, 0.1] at tol 1e-10
    when the probe, RHS call 2, returns ``value`` (in lane 1 of 2 on
    lanes), and the end state."""
    settings = _tight(max_steps=60)
    if loop == "scalar":
        ode = PiecewiseOde(1, [0.0, 0.1], _nan_at_call(2, None, value)[0])
        y_start = np.ones(1)
    else:
        ode = PiecewiseOde(1, [[0.0, 0.0], [0.1, 0.1]],
                           _nan_at_call(2, 1, value)[0])
        y_start = np.ones((1, 2))
    traj = integrate_piecewise(ode, y_start, settings=settings)
    return traj.records[0][1][0], traj.breakpoint_states[-1]


@pytest.mark.parametrize("loop", ["scalar", "lanes"])
def test_non_finite_probe_keeps_the_first_guess(loop):
    # a NaN probe gives no second derivative: the start is h0, 0.01 |y| /
    # |y'| = 0.01 here, in place of the estimate, and the lane without it
    # keeps its own estimate
    estimate = float(odeint._start_step(lambda h0: -(1.0 - h0) * np.ones(1),
                                        np.ones(1), -np.ones(1), 0.1,
                                        _tight()))
    assert estimate != 0.01
    h, end = _first_steps(np.nan, loop)
    assert np.array_equal(h, 0.01 if loop == "scalar" else [estimate, 0.01])
    np.testing.assert_allclose(end, np.exp(-0.1), rtol=1e-9)


@pytest.mark.parametrize("loop", ["scalar", "lanes"])
def test_start_below_h_min_is_raised_to_it(loop):
    # a probe of 1e300 overflows the second derivative, so the estimate is
    # 0; a step of 0 would be accepted with err = 0 and stay 0 until the
    # budget ran out.  The start is _H_MIN, from which the step grows
    h, end = _first_steps(1e300, loop)
    assert np.array_equal(h, odeint._H_MIN if loop == "scalar" else
                          [h[0], odeint._H_MIN])
    assert loop == "scalar" or h[0] > 1e-3
    np.testing.assert_allclose(end, np.exp(-0.1), rtol=1e-9)


# ---------------------------------------------------------------------------
# one finiteness test per step attempt
# ---------------------------------------------------------------------------

def _per_stage_segment(rhs, j, t0, t1, y0, settings, budget, scale, work):
    """The segment loop that tests each stage for finiteness and stops an
    attempt at the first non-finite one (reference).  It holds a step as
    the library does, Z = [y; dk_0; ..] with the stage increments dk_i = h
    scale k_i, and takes the same products on it, in a buffer of its own:
    it ignores the library's ``work``.  It stores each stage's row at once,
    Z[i + 1] = k (h scale), from ``np.asarray`` of the RHS value, and the
    first value as an array of floats, as the library takes it, and records
    the points of stages 1 .. _RECORDED."""
    S = odeint._STAGES
    # Python floats, as the library's: NumPy's float64 scalar would make
    # the increments of a float32 value float64
    t, t1, scale = float(t0), float(t1), float(scale)
    y = np.array(y0, dtype=float)
    err_prev = 1.0
    steps = 0
    record = []
    Z = np.empty((S + 1, y.size))
    P = np.empty((odeint._RECORDED, y.size))
    abs_y = np.abs(y)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = np.asarray(rhs(j, t, y), dtype=float)
        if not np.isfinite(k1).all():
            raise NonFiniteState(f"non-finite derivative at t={t}")
        # the library's starting step, from the same probe call
        h = float(odeint._start_step(
            lambda h0: scale * np.asarray(rhs(j, t + float(h0),
                                              y + float(h0) * (scale * k1))),
            y, scale * k1, t1 - t0, settings))

        while t < t1:
            if steps >= budget:
                raise StepLimitExceeded(f"exceeded {settings.max_steps} steps")
            clipped = h >= t1 - t
            h_try = t1 - t if clipped else h

            Z[0], Z[1] = y, k1 * (h_try * scale)
            failed = False
            for i in range(1, S):
                point = Z[:i + 1].T @ odeint._A1[i]
                if i <= odeint._RECORDED:
                    P[i - 1] = point
                k = np.asarray(rhs(j, t + odeint._C[i] * h_try, point))
                Z[i + 1] = k * (h_try * scale)
                if not np.isfinite(Z[i + 1]).all():
                    failed = True
                    break
            if not failed:
                y_new = odeint._B1 @ Z
                failed = not np.isfinite(y_new).all()

            steps += 1
            if failed:
                h = 0.5 * h_try
                if h < odeint._H_MIN:
                    raise NonFiniteState(f"non-finite state near t={t}")
                continue

            abs_new = np.abs(y_new)
            err = float(odeint._error_norm(
                Z[1:], settings.abs_tol
                + settings.rel_tol * np.maximum(abs_y, abs_new)))
            if err <= 1.0:
                record.append((t, h_try, y, P.copy()))
                t = t1 if clipped else t + h_try
                y, abs_y = y_new, abs_new
                k1 = k
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


# the stages of weight 0 in y_new: FSAL, the derivative at t + h, and the
# ones that enter only later stages
ZERO_WEIGHT = [int(i) for i in np.flatnonzero(odeint._B == 0)]


def _nan_at_call(call=None, lane=None, value=np.nan):
    """(rhs, calls): -y, but NaN (or ``value``) at RHS call number ``call``
    (1 the first; None for none), in lane ``lane`` only on lanes; ``calls``
    logs each call's t."""
    calls = []

    def rhs(j, t, y):
        calls.append(t)
        if len(calls) != call:
            return -y
        return np.full(np.shape(y), value) if lane is None else \
            np.where(np.arange(y.shape[1]) == lane, value, -y)
    return rhs, calls


@pytest.mark.parametrize("loop", ["scalar", "lanes"])
@pytest.mark.parametrize("stage", ZERO_WEIGHT)
def test_non_finite_zero_weight_stage_halves_the_step(stage, loop):
    # a non-finite stage of weight 0 in y_new, in the first attempt, fails
    # that attempt by y_new alone (0 * NaN is NaN) and halves the step; it
    # does not reach the error test, whose rejection would cut the step to
    # 0.2 h.  The outcome is the reference loop's, which tests each stage;
    # on lanes, lane 1 of 2 takes the NaN, and each lane's is its own.
    # Call 1 is the segment's first derivative and call 2 the starting
    # step's probe, so stage i of the first attempt is call i + 2; that
    # attempt's step is the estimate, short of the segment's length
    settings = _tight()
    call = stage + 2
    h_first = float(odeint._start_step(lambda h0: -(1.0 - h0) * np.ones(1),
                                       np.ones(1), -np.ones(1), 0.1,
                                       settings))
    assert h_first < 0.1

    def reference(call):
        rhs, _ = _nan_at_call(call)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(odeint, "_integrate_segment", _per_stage_segment)
            return _outcome(PiecewiseOde(1, [0.0, 0.1], rhs), np.ones(1),
                            "forward", settings)

    if loop == "scalar":
        rhs, calls = _nan_at_call(call)
        got = [_outcome(PiecewiseOde(1, [0.0, 0.1], rhs), np.ones(1),
                        "forward", settings)]
        refs = [reference(call)]
    else:
        refs = [reference(None), reference(call)]
        rhs, calls = _nan_at_call(call, lane=1)
        seg = np.array([[0.0, 0.0], [0.1, 0.1]])
        traj = integrate_piecewise(PiecewiseOde(1, seg, rhs), np.ones((1, 2)),
                                   settings=settings)
        t, h = traj.records[0][:2]
        got = [(np.array(traj.breakpoint_states)[:, :, b],
                np.append(t[h[:, b] > 0, b], 0.1), traj.steps[b])
               for b in (0, 1)]
    assert np.all(calls[call - 1] == odeint._C[stage] * h_first)
    _, step_times, steps = got[-1]
    assert step_times[1] == 0.5 * h_first
    assert steps == step_times.size  # one attempt more than steps
    for g, ref in zip(got, refs):
        assert all(np.array_equal(a, b) for a, b in zip(g, ref))


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


@pytest.mark.parametrize("budget", [np.nan, np.inf, 2.5, 10.0, True, "10"])
def test_step_budget_must_be_an_integer(budget):
    # steps >= nan is never true, so a NaN budget would be no budget, and
    # minimize's trial budget min(max_steps, 2 steps) would be NaN too
    with pytest.raises(ValueError, match="max_steps must be an integer"):
        IntegratorSettings(max_steps=budget)
    assert IntegratorSettings(max_steps=np.int64(5)).max_steps == 5


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
    traj = INTEGRATE[direction](ode, np.array([1.0, 0.0]), settings=_tight())
    samples = odeint.sample_states(
        ode.rhs, ode.segments, traj.records, traj.breakpoint_states, want_t) \
        if direction == "forward" else sample_backward(ode, traj, want_t)
    assert samples.shape == (want_t.size, 2)
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
        np.testing.assert_allclose(samples[m], want, rtol=1e-14,
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


def _oscillator_jacobian(j, t, Y):
    """dF/dz of ``_piecewise_oscillator``'s segment j at t (M,) and Y (M,
    2), as ``_fold_steps`` takes it: (M, 2, 2)."""
    J = np.zeros((len(t), 2, 2))
    J[:, 0, 1] = 1.0
    J[:, 1, 0] = -(1.0, 3.0, 0.5)[j]
    J[:, 1, 1] = 0.1 * np.sin(t)
    return J


def test_a_list_rhs_gives_the_samples_of_an_array():
    # sample_states takes an RHS value as the lockstep loop does: a list of
    # dim lane arrays gives the bytes of the same value as one array, the
    # states and, with the reverse chain, lam at the samples
    ode = _piecewise_oscillator()

    def as_list(j, t, x):
        return list(ode.rhs(j, t, x))

    traj = integrate_piecewise(ode, np.array([1.0, 0.0]), settings=_tight())
    nodes = traj.step_times.size
    lam = np.cos(np.arange(2 * nodes, dtype=float)).reshape(nodes, 2)
    want_t = np.linspace(0.0, 2.0, 37)
    for adjoint in (None, (lam, _oscillator_jacobian)):
        got, want = (odeint.sample_states(
            rhs, ode.segments, traj.records, traj.breakpoint_states, want_t,
            adjoint=adjoint) for rhs in (as_list, ode.rhs))
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("value, shape", [
    (lambda y: -y[:1], r"\(1, 3\)"),                # one row, would broadcast
    (lambda y: -np.vstack((y, y[:1])), r"\(3, 3\)"),   # dim + 1 rows
], ids=["one", "dim+1"])
def test_a_mis_sized_rhs_value_is_refused_at_the_samples(value, shape):
    # a value that is not (dim, M) at a segment's M samples is refused by
    # name, as the lockstep loop refuses it; segment 0's values are right
    ode = _piecewise_oscillator()
    traj = integrate_piecewise(ode, np.array([1.0, 0.0]), settings=_tight())

    def rhs(j, t, x):
        return ode.rhs(j, t, x) if j == 0 else value(ode.rhs(j, t, x))

    with pytest.raises(ValueError, match=r"segment 1: RHS shape " + shape +
                                         r", state \(2, 3\)"):
        odeint.sample_states(rhs, ode.segments, traj.records,
                             traj.breakpoint_states, [0.3, 1.1, 1.2, 1.3])


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
    run = integrate_piecewise(ode, y_start, settings=st)
    states, steps = run.breakpoint_states, run.steps

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


def _rotation_decay(a, w):
    """rhs of y' = (a_j I + w_j J) y on segment j, J the rotation by pi/2,
    elementwise, so that a lane's values are its point's bits."""
    def rhs(j, t, y):
        return np.array([a[j] * y[0] - w[j] * y[1], w[j] * y[0] + a[j] * y[1]])
    return rhs


@settings(max_examples=40, deadline=None)
@given(data=st.data(), nseg=st.integers(1, 3), lanes=st.integers(1, 4),
       tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
def test_scale_on_lanes_is_the_scalar_scale(data, nseg, lanes, tol):
    # dy/dtau = s (a_j I + w_j J) y on random breakpoints per lane, with a
    # decay a_j in [-1, 0], a turn rate w_j in [0, 2] and a scale s in
    # [0.1, 50] per lane: each lane repeats its scalar integration bit for
    # bit, and every breakpoint state is the closed form exp(a s d) R(w s d)
    # to tol (1 + s (tau - tau_0)), the decay keeping the errors from growing
    def draw(lo, hi, shape):
        return data.draw(arrays(float, shape, elements=st.floats(lo, hi)))

    a, w = draw(-1.0, 0.0, nseg), draw(0.0, 2.0, nseg)
    seg = np.cumsum(np.vstack((draw(-1.0, 1.0, (1, lanes)),
                               draw(0.05, 1.0, (nseg, lanes)))), axis=0)
    scale, y_start = draw(0.1, 50.0, lanes), draw(-1.0, 1.0, (2, lanes))
    rhs = _rotation_decay(a, w)
    st_ = IntegratorSettings(rel_tol=tol, abs_tol=tol)
    run = integrate_piecewise(PiecewiseOde(2, seg, rhs, scale=scale),
                              y_start, settings=st_)
    for b in range(lanes):
        one = integrate_piecewise(PiecewiseOde(2, seg[:, b], rhs,
                                               scale=scale[b]),
                                  y_start[:, b], settings=st_)
        assert one.steps == run.steps[b]
        y = y_start[:, b]
        for j, state in enumerate(one.breakpoint_states):
            assert state.tobytes() == run.breakpoint_states[j][:, b].tobytes()
            if j:
                d = scale[b] * (seg[j, b] - seg[j - 1, b])
                c, s = np.cos(w[j - 1] * d), np.sin(w[j - 1] * d)
                y = np.exp(a[j - 1] * d) * np.array([c * y[0] - s * y[1],
                                                     s * y[0] + c * y[1]])
                span = scale[b] * (seg[j, b] - seg[0, b])
                assert np.max(np.abs(state - y)) <= tol * (1.0 + span)


def _decoupled(a, c, g):
    """rhs of y_i' = a_ji y_i + c_ji t - g_ji y_i^3 on segment j, each
    component apart and elementwise, so that a lane's values are its
    point's bits."""
    def rhs(j, t, y):
        t, y = np.asarray(t)[..., None], y.T
        return (a[j] * y + c[j] * t - g[j] * (y * y * y)).T
    return rhs


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 12), nseg=st.integers(1, 3),
       lanes=st.integers(1, 3), tol=st.sampled_from([1e-6, 1e-8, 1e-11]))
def test_decoupled_lane_repeats_the_scalar_loop(data, dim, nseg, lanes, tol):
    # the scalar loop's norms on Python floats (dim < _IN_ORDER) or NumPy
    # (from _IN_ORDER on) against the lockstep loop's: each lane's steps,
    # breakpoint states and records (t, h, y, P) are its scalar
    # integration's bits, the lane's accepted steps being those of h > 0
    def draw(lo, hi, shape):
        return data.draw(arrays(float, shape, elements=st.floats(lo, hi)))

    rhs = _decoupled(draw(-2.0, 1.0, (nseg, dim)), draw(-1.0, 1.0, (nseg, dim)),
                     draw(0.0, 1.0, (nseg, dim)))
    seg = np.cumsum(np.vstack((draw(-1.0, 1.0, (1, lanes)),
                               draw(0.05, 1.0, (nseg, lanes)))), axis=0)
    scale, y_start = draw(0.1, 10.0, lanes), draw(-1.0, 1.0, (dim, lanes))
    st_ = IntegratorSettings(rel_tol=tol, abs_tol=tol)
    run = integrate_piecewise(PiecewiseOde(dim, seg, rhs, scale=scale),
                              y_start, settings=st_)
    for b in range(lanes):
        one = integrate_piecewise(PiecewiseOde(dim, seg[:, b], rhs,
                                               scale=scale[b]),
                                  y_start[:, b], settings=st_)
        assert one.steps == run.steps[b]
        for x, on_lanes in zip(one.breakpoint_states, run.breakpoint_states):
            assert x.tobytes() == on_lanes[:, b].tobytes()
        for record, on_lanes in zip(one.records, run.records):
            took = on_lanes[1][:, b] > 0.0
            for x, lane in zip(record, on_lanes):
                assert x.tobytes() == lane[took, b].tobytes()


def test_a_list_rhs_on_lanes_repeats_each_lane():
    # an RHS that returns a list, of floats at a point and of per-lane
    # arrays on lanes: every value the lockstep loop takes, the first,
    # the probe and each stage's, becomes one array, and each lane repeats
    # its point integration bit for bit
    def rhs(j, t, y):
        return [-y[0] + (j + 1) * y[1], -y[1] * t]

    seg = np.array([[0.0, 0.5], [0.7, 1.0], [2.0, 1.6]])
    y_start = np.array([[1.0, 2.0], [0.5, -1.0]])
    run = integrate_piecewise(PiecewiseOde(2, seg, rhs), y_start)
    for b in range(2):
        one = integrate_piecewise(PiecewiseOde(2, seg[:, b], rhs),
                                  y_start[:, b])
        assert one.steps == run.steps[b]
        for x, on_lanes in zip(one.breakpoint_states, run.breakpoint_states):
            assert x.tobytes() == on_lanes[:, b].tobytes()
        for record, on_lanes in zip(one.records, run.records):
            took = on_lanes[1][:, b] > 0.0
            for x, lane in zip(record, on_lanes):
                assert x.tobytes() == lane[took, b].tobytes()


def _float_edge(kind):
    """(dim, breakpoints, rhs, max_steps) of an ODE whose floats part from
    NumPy's unless the scalar loop's float path copies NumPy.  "overflow":
    y' = 1e200 from 1, whose starting step's sum of squares of f0 overflows,
    so h0 = 0 and d2 = 0 / 0, which NumPy takes for NaN and the start for
    _H_MIN.  "nan": y2' = -sqrt(y2), which reaches 0 at t = 2, so that
    attempts whose state has a NaN component fail (max(a, NaN) is a, and
    np.maximum NaN) until NonFiniteState.  "long": 9 components, whose sums
    take NumPy's order of 8 partial sums."""
    if kind == "overflow":
        return 1, [0.0, 1e-190], lambda j, t, y: np.full(np.shape(y), 1e200), 50
    if kind == "nan":
        return 3, [0.0, 1.0, 2.5], lambda j, t, y: np.stack(
            (-y[0], -np.sqrt(y[1]), 0.5 * y[2])), 2000
    rate = np.arange(1.0, 10.0)
    return 9, [0.0, 0.5, 1.0], lambda j, t, y: -(rate * y.T).T, 2000


@pytest.mark.parametrize("tol", [1e-8, 1e-11])
@pytest.mark.parametrize("kind", ["overflow", "nan", "long"])
def test_float_edges_give_the_lanes_outcome(kind, tol):
    # the scalar loop and one lane of two give the same steps and states,
    # or raise the same SwitchOptError; a ZeroDivisionError, OverflowError
    # or ValueError of the float path would escape _outcome and fail here
    dim, seg, rhs, max_steps = _float_edge(kind)
    settings = IntegratorSettings(rel_tol=tol, abs_tol=tol,
                                  max_steps=max_steps)
    scalar = _outcome(PiecewiseOde(dim, seg, rhs), np.ones(dim), "forward",
                      settings)
    lanes = _outcome(PiecewiseOde(dim, np.repeat(np.array(seg)[:, None], 2, 1),
                                  rhs), np.ones((dim, 2)), "forward", settings)
    if isinstance(scalar, type):
        assert lanes is scalar
    else:
        assert np.array_equal(lanes[0][..., 1], scalar[0])
        assert np.array_equal(lanes[1][:, 1], scalar[1])
        assert lanes[2][1] == scalar[2]
    if kind == "overflow":
        # one step over the whole segment, from the start _H_MIN
        assert scalar[2] == 1
        np.testing.assert_allclose(scalar[0][-1], [1.0 + 1e10], rtol=1e-14)
    if kind == "nan":
        assert scalar is NonFiniteState


@pytest.mark.parametrize("kind", [float, np.float64, np.array])
def test_breakpoints_and_scale_are_refused_on_either_path(kind):
    # 1-D breakpoints with a float scale are checked on Python floats, and
    # with a 0-d array scale, or as 2-D lanes, by NumPy: each refuses the
    # same inputs, infinite ones too, with no RuntimeWarning
    rhs = lambda j, t, y: -y
    for bad in ([0.0, np.nan], [np.nan, 1.0], [0.0, 0.0], [1.0, 0.0],
                [0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [np.inf, np.inf],
                [-np.inf, -np.inf]):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseOde(1, bad, rhs, scale=kind(2.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseOde(1, np.array(bad)[:, None], rhs, scale=kind(2.0))
    for bad in (0.0, -0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="scale"):
            PiecewiseOde(1, [0.0, 1.0], rhs, scale=kind(bad))
    for good in ([0.0, 1.0], [-np.inf, 0.0], [0.0, 0.5, np.inf]):
        ode = PiecewiseOde(1, good, rhs, scale=kind(2.0))
        assert ode.segments.tolist() == good


def test_scale_is_one_float_or_one_per_lane():
    # the scale multiplies each step's increments; it must be finite and
    # positive, and one per lane only on lanes
    rhs = lambda j, t, y: -y
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="scale"):
            PiecewiseOde(1, [0.0, 1.0], rhs, scale=bad)
    with pytest.raises(ValueError, match="scale"):
        PiecewiseOde(1, [0.0, 1.0], rhs, scale=np.ones(2))
    with pytest.raises(ValueError, match="scale"):
        PiecewiseOde(1, [[0.0, 0.0], [1.0, 1.0]], rhs, scale=np.ones(3))
    lanes = PiecewiseOde(1, [[0.0, 0.0], [1.0, 1.0]], rhs, scale=2.0)
    end = integrate_piecewise(lanes, np.ones((1, 2)),
                              settings=_tight()).breakpoint_states[-1]
    np.testing.assert_allclose(end, np.exp(-2.0), rtol=1e-9)


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
        integrate_piecewise(ode, y_start, settings=settings)
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
        integrate_piecewise(ode, np.ones(3))
    with pytest.raises(ValueError):
        PiecewiseOde(dim=1, segments=np.array([[0.0, 1.0], [1.0, 1.0]]),
                     rhs=lambda j, t, y: -y)


def test_lane_step_times_have_a_node_per_lockstep_iteration():
    # perfbench's tracer counts accepted steps as len(step_times) less the
    # segments; on lanes a node is one lockstep iteration, whichever lanes
    # accepted in it.  dy/dt = 1 has a zero error estimate, so every
    # attempt is accepted, and a segment's iterations are its RHS calls
    # less its first and the starting step's probe, over the calls per
    # attempt
    calls = []

    def rhs(j, t, y):
        calls.append(j)
        return np.ones_like(y)

    seg = np.array([[0.0, 0.0, 0.0], [0.3, 1.0, 4.0], [0.5, 3.0, 5.0]])
    traj = integrate_piecewise(PiecewiseOde(1, seg, rhs), np.zeros((1, 3)))
    iterations = [(calls.count(j) - 2) // (odeint._STAGES - 1)
                  for j in range(2)]
    assert len(traj.step_times) == sum(i + 1 for i in iterations)
    assert traj.step_times.shape == (len(traj.step_times), 3)
    for j, record in enumerate(traj.records):
        accepted = np.count_nonzero(record[1], axis=0)
        # the lanes take different steps, and the longest sets the count
        assert len(set(accepted)) > 1 and accepted.max() == iterations[j]
    assert np.array_equal(traj.steps, sum(
        np.count_nonzero(r[1], axis=0) for r in traj.records))


# ---------------------------------------------------------------------------
# the RHS value at a point: a list or a 1-D array
# ---------------------------------------------------------------------------

def _pendulum(as_list):
    """A damped pendulum whose segments change the damping, its RHS value
    a list of floats or a 1-D array of the same floats."""
    def rhs(j, t, y):
        a, b = y.tolist()
        F = [b, -math.sin(a) - 0.1 * (j + 1) * b + math.cos(3.0 * t)]
        return F if as_list else np.array(F)
    return PiecewiseOde(2, [0.0, 0.7, 2.0, 3.5], rhs)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-11])
def test_a_list_rhs_value_gives_the_records_of_an_array(tol):
    # the scalar loop reads both values through the same code, and each
    # stage's increments are the bits of NumPy's product
    settings = IntegratorSettings(rel_tol=tol, abs_tol=tol)
    got, want = (integrate_piecewise(_pendulum(as_list), np.array([1.0, 0.0]),
                                     settings=settings)
                 for as_list in (True, False))
    assert got.steps == want.steps
    for a, b in zip(got.breakpoint_states, want.breakpoint_states):
        assert a.tobytes() == b.tobytes()
    for rg, rw in zip(got.records, want.records):
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                   for a, b in zip(rg, rw))


@pytest.mark.parametrize("value", [
    lambda y: -y[0],                 # NumPy's scalar, which would broadcast
    lambda y: -float(y[0]),          # a float
    lambda y: [-float(y[0])],        # a list of one float
    lambda y: -y[:2],                # too few components
    lambda y: -np.append(y, 1.0),    # too many
])
def test_a_mis_sized_rhs_value_is_refused_on_a_point(value):
    ode = PiecewiseOde(3, [0.0, 1.0], lambda j, t, y: value(y))
    with pytest.raises(ValueError, match=r"RHS shape \(.*\), state \(3,\)"):
        integrate_piecewise(ode, np.ones(3))


def _mis_sized_after(calls, value):
    """An RHS that gives -y for its first ``calls`` calls, then value(y)."""
    made = []

    def rhs(j, t, y):
        made.append(t)
        return -y if len(made) <= calls else value(y)
    return rhs


# the value turns mis-sized at call 2, the starting step's probe, or at
# call 4, the first attempt's second stage.  Checked there, a value of one
# component no longer broadcasts into the stage's row, one of dim + 1
# components writes into no other row, and one of dim nested rows, which
# has the state's length, is refused by its shape when its store fails
@pytest.mark.parametrize("calls", [1, 3], ids=["probe", "stage"])
@pytest.mark.parametrize("value, shape", [
    (lambda y: [-float(y[0])], r"\(1,\)"),         # one value, a list
    (lambda y: -y[:1], r"\(1,\)"),                 # one value, an array
    (lambda y: (-y).tolist() + [1.0], r"\(4,\)"),   # dim + 1 values, a list
    (lambda y: -np.append(y, 1.0), r"\(4,\)"),     # dim + 1 values, an array
    (lambda y: -y[:, None], r"\(3, 1\)"),          # dim nested rows
], ids=["one-list", "one-array", "dim+1-list", "dim+1-array", "nested-rows"])
def test_a_value_mis_sized_after_the_first_is_refused_on_a_point(calls,
                                                                  value,
                                                                  shape):
    ode = PiecewiseOde(3, [0.0, 1.0], _mis_sized_after(calls, value))
    with pytest.raises(ValueError, match=r"segment 0: RHS shape " + shape +
                                         r", state \(3,\)"):
        integrate_piecewise(ode, np.ones(3))


@pytest.mark.parametrize("calls", [1, 3], ids=["probe", "stage"])
@pytest.mark.parametrize("value", [
    lambda y: -y[:1],                # one component, which would broadcast
    lambda y: -np.vstack((y, y[:1])),   # dim + 1 components
], ids=["one", "dim+1"])
def test_a_value_mis_sized_after_the_first_is_refused_on_lanes(calls, value):
    ode = PiecewiseOde(3, np.array([[0.0] * 4, [1.0] * 4]),
                       _mis_sized_after(calls, value))
    with pytest.raises(ValueError, match=r"segment 0: RHS shape \([14], 4\), "
                                         r"state \(3, 4\)"):
        integrate_piecewise(ode, np.ones((3, 4)))


def test_an_rhs_that_writes_into_a_stage_point_raises():
    # the scalar loop gives rhs a read-only view of each stage point it
    # records, so a write into it raises where it would change the points
    # the reverse pass reads
    def rhs(j, t, y):
        y *= 1.0
        return -y
    with pytest.raises(ValueError, match="read-only"):
        integrate_piecewise(PiecewiseOde(2, [0.0, 1.0], rhs), np.ones(2))


def test_an_rhs_that_returns_its_state_keeps_the_bits_of_a_copy():
    # dy/dt = y is the RHS's own argument, the view of a stage point, up to
    # t = 1, and a stiffer decay after it, whose steps reject attempts.  The
    # FSAL value that starts the next attempt is a copy of that view, not
    # the row a rejected attempt overwrites
    def rhs(copy):
        return lambda j, t, y: (y.copy() if copy else y) if t < 1.0 \
            else -20.0 * y
    got, want = (integrate_piecewise(PiecewiseOde(2, [0.0, 3.0], rhs(copy)),
                                     np.array([1.0, -2.0]))
                 for copy in (False, True))
    assert got.steps == want.steps > len(got.records[0][1])
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(got.records[0], want.records[0]))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 9),
       kind=st.sampled_from(["list", "float64", "float32", "int"]),
       scale=st.floats(0.25, 4.0), tol=st.sampled_from([1e-6, 1e-9]))
def test_the_component_store_keeps_the_row_stores_bits(data, dim, kind,
                                                       scale, tol):
    # the scalar loop stores each stage's increments v h s one component
    # at a time through a flat view of Z; the reference stores the row
    # Z[i + 1] = k (h s) at once.  Both multiply float32 values in float32
    # (NumPy's scalars and arrays alike), ints as floats, and dims 1 to 9
    # take both sides of _IN_ORDER; the records, breakpoint states and
    # steps are the same bits, or both loops raise the same exception
    A = data.draw(arrays(np.float64, (2, dim, dim),
                         elements=st.floats(-2.0, 2.0)))
    c = data.draw(arrays(np.int64, (2, dim), elements=st.integers(-3, 3)))
    y0 = data.draw(arrays(np.float64, dim, elements=st.floats(-1.0, 1.0)))

    def rhs(j, t, y):
        if kind == "int":
            return c[j].tolist()
        k = A[j] @ y + c[j] * math.cos(t)
        return k.tolist() if kind == "list" else k.astype(kind)

    ode = PiecewiseOde(dim, [0.0, 0.6, 1.0], rhs, scale=scale)
    tols = IntegratorSettings(rel_tol=tol, abs_tol=tol, max_steps=5000)

    def outcome():
        try:
            traj = integrate_piecewise(ode, y0, settings=tols)
        except SwitchOptError as exc:
            return type(exc)
        return traj.steps, [(a.dtype, a.tobytes()) for a in
                            traj.breakpoint_states + [
                                v for record in traj.records for v in record]]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odeint, "_integrate_segment", _per_stage_segment)
        want = outcome()
    assert outcome() == want


@pytest.mark.parametrize("value", [
    lambda y: -y[0],                 # one value per lane
    lambda y: -y[:2],                # too few components
    lambda y: -y.T,                  # lane axis first
    lambda y: 1.0,                   # one float for all
])
def test_a_mis_sized_rhs_value_is_refused_on_lanes(value):
    ode = PiecewiseOde(3, np.array([[0.0] * 4, [1.0] * 4]),
                       lambda j, t, y: value(y))
    with pytest.raises(ValueError, match=r"RHS shape \(.*\), state \(3, 4\)"):
        integrate_piecewise(ode, np.ones((3, 4)))
