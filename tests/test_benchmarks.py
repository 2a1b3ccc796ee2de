import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchopt.benchmarks import (
    CATALYST_U_SINGULAR, GODDARD_REFERENCE, JACOBSON_S1, build_catalyst,
    build_problem, catalyst_switch_times, jacobson_root_residual,
)
from switchopt.gradients import dense_trajectory, forward_sweep
from switchopt.odeint import IntegratorSettings
from switchopt.problem import SwitchConfig, phase_law

from oracles import sampled_bundle

TIGHT = IntegratorSettings(rel_tol=1e-11, abs_tol=1e-11)


# ---------------------------------------------------------------------------
# analytic constants
# ---------------------------------------------------------------------------

def test_catalyst_singular_value():
    assert CATALYST_U_SINGULAR == pytest.approx(
        0.227142082708498, abs=1e-14)


def test_catalyst_switch_formulas():
    s = catalyst_switch_times(1.0)
    assert s[0] == pytest.approx(0.136299034594555, abs=1e-14)
    assert s[1] == pytest.approx(1.0 - 0.274769892408345, abs=1e-14)
    s12 = catalyst_switch_times(12.0)
    assert s12[0] == pytest.approx(s[0], abs=1e-14)     # entry is T-free
    assert s12[1] == pytest.approx(12.0 - 0.274769892408345, abs=1e-14)


@pytest.mark.parametrize("name", ["catalyst1", "catalyst2"])
def test_catalyst_reference_only_where_its_switch_times_are_in_order(name):
    # the closed form is bang, singular, bang: s1 < s2 needs T above
    # s1 + log(1 + a) / k3 = 0.41107
    s1, s2_at_0 = catalyst_switch_times(0.0)
    shortest = s1 - s2_at_0
    assert shortest == pytest.approx(0.41107, abs=1e-5)
    for T in (0.3, shortest - 1e-9):
        assert build_problem(name, T=T).reference is None
    for T in (shortest + 1e-9, 0.42, 1.0, 4.0, 12.0):
        ref = build_problem(name, T=T).reference
        np.testing.assert_array_equal(ref.s_star, catalyst_switch_times(T))
        assert 0 < ref.s_star[0] < ref.s_star[1] < T
    assert build_problem(name, T=0.42).reference.C_star is None
    assert build_problem(name, T=4.0).reference.C_star == -0.191814356325161


def test_jacobson_root_equation():
    assert abs(jacobson_root_residual(JACOBSON_S1)) < 1e-14
    # 1 - s^2/2 = e^{2s-10} (-1 + 2s - s^2/2)
    s = JACOBSON_S1
    lhs = 1 - s * s / 2
    rhs = math.exp(2 * s - 10) * (-1 + 2 * s - s * s / 2)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_goddard_reference_values():
    r = GODDARD_REFERENCE
    np.testing.assert_allclose(r.s_star,
                               [13.75532627577406, 21.98890645593362])
    assert r.T_star == pytest.approx(42.88910958027504)


def test_registry():
    for name in ("catalyst1", "catalyst2", "jacobson", "bressan", "goddard"):
        prob = build_problem(name)
        assert prob.k == len(prob.phases) - 1
    with pytest.raises(ValueError):
        build_problem("nosuch")


# ---------------------------------------------------------------------------
# regression baselines (values frozen from a rel_tol=1e-12 integration)
# ---------------------------------------------------------------------------

def test_jacobson_objective_baseline():
    prob = build_problem("jacobson")
    fwd = forward_sweep(prob, SwitchConfig(s=np.array([JACOBSON_S1])), TIGHT)
    assert fwd.objective == pytest.approx(0.37699193028795946, abs=1e-9)


def test_bressan_objective_is_minus_500_ninths():
    prob = build_problem("bressan", T=10.0)
    fwd = forward_sweep(prob, SwitchConfig(s=np.array([10.0 / 3.0])), TIGHT)
    assert fwd.objective == pytest.approx(-500.0 / 9.0, abs=1e-8)


def test_goddard_objective_baseline():
    prob = build_problem("goddard")
    cfg = SwitchConfig(s=np.array(GODDARD_REFERENCE.s_star),
                       T=GODDARD_REFERENCE.T_star)
    fwd = forward_sweep(prob, cfg, TIGHT)
    assert fwd.objective == pytest.approx(-18549.622800667294, abs=1e-4)
    # terminal constraint nearly met and the rocket coasts to apex
    xT = fwd.checkpoints[-1, :prob.n]
    assert abs(xT[2] - 1.0) < 1e-6
    assert abs(xT[1]) < 1e-3


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_goddard_mass_monotone():
    prob = build_problem("goddard")
    cfg = SwitchConfig(s=np.array([13.0, 21.0]), T=42.0)
    _, xs, _, _ = dense_trajectory(prob, sampled_bundle(prob, cfg, TIGHT, 400))
    m = xs[:, 2]
    assert np.all(np.diff(m) <= 1e-12)


def test_goddard_singular_thrust_feasible_at_reference():
    prob = build_problem("goddard")
    cfg = SwitchConfig(s=np.array(GODDARD_REFERENCE.s_star),
                       T=GODDARD_REFERENCE.T_star)
    times, xs, us, _ = dense_trajectory(prob,
                                        sampled_bundle(prob, cfg, TIGHT, 600))
    on_arc = (times > cfg.s[0]) & (times < cfg.s[1])
    assert np.all(us[on_arc, 0] > 0.0)
    assert np.all(us[on_arc, 0] < prob.phases[0].upper(0.0)[0])


def test_goddard_singular_law_gradient():
    # analytic law_x of the singular thrust against central differences
    prob = build_problem("goddard")
    law = prob.phases[1].law
    law_x = prob.phases[1].law_x
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = np.array([rng.uniform(5e3, 2e4), rng.uniform(300.0, 900.0),
                      rng.uniform(1.1, 2.5)])
        J = law_x(0.0, x)
        for i in range(3):
            h = 1e-6 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (law(0.0, xp)[0] - law(0.0, xm)[0]) / (2 * h)
            assert J[0, i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_catalyst_case2_feedback_matches_constant_on_arc():
    # along the converged Case-2 extremal the p-dependent law must produce
    # the constant singular value of the state-only formulation
    prob = build_problem("catalyst2", T=1.0)
    s_star = catalyst_switch_times(1.0)
    cfg = SwitchConfig(s=s_star, p0=np.array([1.0109, 0.9557]))
    times, xs, us, ps = dense_trajectory(prob,
                                         sampled_bundle(prob, cfg, TIGHT, 400))
    on_arc = (times > s_star[0] + 0.02) & (times < s_star[1] - 0.02)
    u_sing = CATALYST_U_SINGULAR
    assert np.max(np.abs(us[on_arc, 0] - u_sing)) < 1e-3


def test_constant_singular_variant():
    prob = build_catalyst(case=2, constant_singular=True)
    assert prob.case == 2
    u = phase_law(prob, 1)(0.5, np.array([0.7, 0.2]), np.array([1.0, 1.0]))
    assert u[0] == pytest.approx(CATALYST_U_SINGULAR)


def test_mayer_augmentation_starts_at_zero():
    for name in ("jacobson", "bressan"):
        prob = build_problem(name)
        assert prob.x0[-1] == 0.0
        assert prob.grad_C(np.array([1.0, 2.0, 3.0]))[-1] == 1.0


# ---------------------------------------------------------------------------
# a point on Python floats
# ---------------------------------------------------------------------------

def _float_callbacks():
    """(label, callback, arguments) of every built-in callback with a float
    body, which a point's flow runs on floats: "xu" for (x, u), "t", "tx"
    and "txp" for a law.  catalyst1's f and f_x are catalyst2's (see
    below)."""
    out = []
    for name in ("catalyst1", "catalyst2", "jacobson", "bressan", "goddard"):
        prob = build_problem(name)
        for cb in () if name == "catalyst1" else ("f", "f_x"):
            if hasattr(getattr(prob, cb), "float_body"):
                out.append((f"{name} {cb}", getattr(prob, cb), "xu"))
        for j, ph in enumerate(prob.phases):
            if hasattr(ph.law, "float_body"):
                out.append((f"{name} law {j}", ph.law, {
                    "constant": "t", "state": "tx",
                    "state_costate": "txp"}[ph.law_kind]))
    return out


FLOAT_CALLBACKS = {label: (cb, args) for label, cb, args in _float_callbacks()}


def test_the_float_path_covers_each_per_point_callback():
    # every law, the constant ones included, and each f and catalyst's f_x
    assert set(FLOAT_CALLBACKS) == {
        "catalyst1 law 0", "catalyst1 law 1", "catalyst1 law 2",
        "catalyst2 f", "catalyst2 f_x", "catalyst2 law 0", "catalyst2 law 1",
        "catalyst2 law 2", "jacobson f", "jacobson law 0", "jacobson law 1",
        "bressan f", "bressan law 0", "bressan law 1", "goddard f",
        "goddard law 0", "goddard law 1", "goddard law 2"}
    # catalyst1 takes catalyst2's f and f_x
    catalyst1 = build_problem("catalyst1")
    for name in ("f", "f_x"):
        body = getattr(catalyst1, name).float_body
        assert body.__code__ is \
            FLOAT_CALLBACKS[f"catalyst2 {name}"][0].float_body.__code__


def _outcome(call, args, x, v):
    """call's value at (x, v), v being u or p, with NumPy's warnings off
    as in a sweep, or the type of the exception it raises."""
    with np.errstate(all="ignore"):
        try:
            return call(x, v) if args == "xu" else call(0.5) \
                if args == "t" else call(0.5, x) if args == "tx" \
                else call(0.5, x, v)
        except Exception as exc:   # compared by type below
            return type(exc)


def _assert_float_path_is_the_arrays(label, x, v):
    """The callback at the point (x, v) is ``np.array`` of its body on the
    arrays by tobytes, or raises what that body raises; its body on the
    lists of floats gives the same bits unless it raises what the point
    flow catches before it calls the callbacks on arrays."""
    call, args = FLOAT_CALLBACKS[label]
    body = lambda *a: np.array(call.float_body(*a))
    x, v = np.array(x, dtype=float), np.array(v, dtype=float)
    want = _outcome(body, args, x, v)
    got = _outcome(call, args, x, v)
    on_floats = _outcome(body, args, x.tolist(), v.tolist())
    if isinstance(want, type):
        assert got is want
    else:
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if isinstance(on_floats, type):
        assert issubclass(on_floats, (ArithmeticError, ValueError))
    else:
        assert on_floats.dtype == np.float64
        assert on_floats.tobytes() == got.tobytes()


def _width(label):
    """(n, size of the second argument) of the callback ``label``."""
    n = 2 if label.startswith("catalyst") else 3
    return n, n if label.endswith("law 1") and n == 2 else 1


values = st.one_of(st.floats(-1e3, 1e3), st.floats(),
                   st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1e200]))


@settings(max_examples=300, deadline=None)
@given(label=st.sampled_from(sorted(FLOAT_CALLBACKS)), data=st.data())
def test_a_point_on_floats_is_the_body_on_arrays(label, data):
    n, k = _width(label)
    x = data.draw(st.lists(values, min_size=n, max_size=n))
    v = data.draw(st.lists(values, min_size=k, max_size=k))
    _assert_float_path_is_the_arrays(label, x, v)


@pytest.mark.parametrize("label, x, v", [
    ("goddard law 1", [1000.0, 0.0, 2.5], [0.0]),       # kap = c / 0
    ("goddard law 1", [1000.0, -0.0, 2.5], [0.0]),
    ("goddard law 1", [1000.0, 1e-200, 2.5], [0.0]),    # kap ** 2 overflows
    ("goddard law 1", [-1e8, 300.0, 2.5], [0.0]),       # math.exp overflows
    ("goddard f", [1000.0, 300.0, 0.0], [100.0]),       # (u - drag) / 0
    ("goddard f", [1000.0, 300.0, -0.0], [0.0]),
    ("goddard f", [-1e8, 300.0, 2.5], [100.0]),
    ("goddard f", [1000.0, 1e200, 2.5], [100.0]),       # drag overflows
    ("catalyst2 law 1", [1.0, 0.0], [2.0, 5.0]),        # den = 0, num = -5
    ("catalyst2 law 1", [0.0, 0.0], [1.0, 1.0]),        # 0 / 0
    ("catalyst2 law 1", [np.nan, 0.5], [1.0, 1.0]),
    ("catalyst2 law 1", [np.inf, 0.5], [1.0, -np.inf]),
    ("catalyst2 f", [np.inf, -np.inf], [0.0]),
    ("catalyst2 f_x", [0.5, 0.5], [np.nan]),
    ("jacobson f", [1e200, -1e200, 0.0], [np.inf]),
    ("jacobson law 1", [np.nan, 0.0, 0.0], [0.0]),
    ("bressan f", [np.inf, np.nan, 1.0], [-0.0]),
])
def test_a_point_on_floats_at_the_edges(label, x, v):
    # each edge point gives the array body's bits, or the exception type it
    # raises: never a ZeroDivisionError or OverflowError of its own
    _assert_float_path_is_the_arrays(label, x, v)
