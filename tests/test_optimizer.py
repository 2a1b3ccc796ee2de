import dataclasses
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import switchopt.gradients as gradients
import switchopt.optimizer as optimizer
from switchopt.benchmarks import (
    build_problem, catalyst_switch_times, GODDARD_REFERENCE,
    JACOBSON_S1,
)
from switchopt.exceptions import InfeasiblePolytope, InvalidSwitchOrder, \
    LineSearchFailure, MaxItersExceeded, NonFiniteState, SecantDivergence, \
    StepLimitExceeded, StepUnderflow
from switchopt.gradients import evaluate_gradient, forward_sweep
from switchopt import odeint
from switchopt.odeint import IntegratorSettings
from switchopt.optimizer import (
    OptimizeSettings, _Vars, derivative_profile, minimize, project_ordered,
    secant_switch,
)
from switchopt.problem import SwitchConfig, validate_config

TIGHT = IntegratorSettings(rel_tol=1e-11, abs_tol=1e-11)


# ---------------------------------------------------------------------------
# chain projection
# ---------------------------------------------------------------------------

def test_projection_simple_swap():
    out = project_ordered(np.array([0.5, 0.4]), T=1.0, eps_gap=0.0)
    np.testing.assert_allclose(out, [0.45, 0.45], atol=1e-12)


def test_projection_identity_when_feasible():
    v = np.array([0.1, 0.3, 0.8])
    np.testing.assert_allclose(project_ordered(v, 1.0, 1e-6), v, atol=1e-12)


def test_projection_clips_to_horizon():
    out = project_ordered(np.array([1.5]), T=1.0, eps_gap=0.01)
    assert out[0] == pytest.approx(0.99)


def test_projection_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 7)) * 2
        once = project_ordered(v, 1.0, 1e-3)
        twice = project_ordered(once, 1.0, 1e-3)
        np.testing.assert_allclose(once, twice, atol=1e-12)


def test_projection_infeasible_horizon():
    with pytest.raises(InfeasiblePolytope):
        project_ordered(np.zeros(5), T=1e-6, eps_gap=1e-3)


def _qp_oracle(v, T, eps):
    """Brute-force projection by active-set enumeration.

    Constraints in a.x >= b form: s_1 >= eps, s_{j+1} - s_j >= eps,
    -s_k >= -(T - eps).
    """
    k = v.size
    A = []
    b = []
    row = np.zeros(k)
    row[0] = 1.0
    A.append(row.copy())
    b.append(eps)
    for j in range(k - 1):
        row = np.zeros(k)
        row[j] = -1.0
        row[j + 1] = 1.0
        A.append(row)
        b.append(eps)
    row = np.zeros(k)
    row[k - 1] = -1.0
    A.append(row)
    b.append(-(T - eps))
    A = np.array(A)
    b = np.array(b)
    m = len(b)

    best = None
    for r in range(m + 1):
        for active in combinations(range(m), r):
            Aa = A[list(active)]
            ba = b[list(active)]
            if r:
                G = Aa @ Aa.T
                try:
                    lam = np.linalg.solve(G, ba - Aa @ v)
                except np.linalg.LinAlgError:
                    continue
                x = v + Aa.T @ lam
                if np.any(lam < -1e-10):
                    continue
            else:
                x = v.copy()
            if np.all(A @ x >= b - 1e-10):
                d = np.sum((x - v) ** 2)
                if best is None or d < best[0] - 1e-14:
                    best = (d, x)
    return best[1]


def test_projection_matches_qp_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        T = float(rng.uniform(0.5, 3.0))
        eps = float(rng.choice([0.0, 1e-4, 0.02]))
        v = rng.normal(size=k) * T
        ours = project_ordered(v, T, eps)
        oracle = _qp_oracle(v, T, eps)
        np.testing.assert_allclose(ours, oracle, atol=1e-10)


_COORD = st.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["catalyst1", "catalyst2", "jacobson"]),
       T=st.floats(1e-4, 1e3), data=st.data())
def test_fixed_time_projection_passes_validate_config(name, T, data):
    # jacobson's horizon is fixed
    prob = build_problem(name, T=None if name == "jacobson" else T)
    # the starting configuration's p0 sets the packing's p0 block
    p0 = np.zeros(prob.n) if prob.case == 2 else None
    var = _Vars(prob, SwitchConfig(s=np.zeros(prob.k), p0=p0))
    z = np.array(data.draw(st.lists(_COORD, min_size=prob.k + var.np0,
                                    max_size=prob.k + var.np0)))
    validate_config(prob, var.unpack(var.project(z)))


@settings(max_examples=300, deadline=None)
@given(T0=st.floats(1.0, 200.0), T=st.floats(-10.0, 1e3),
       sigma=st.lists(st.floats(-2.0, 3.0), min_size=2, max_size=2))
def test_free_time_projection_passes_validate_config(T0, T, sigma):
    # eps_gap is fixed by the problem's horizon; the projection must keep
    # it for every horizon it projects to, not only the starting one
    prob = build_problem("goddard")
    var = _Vars(prob, SwitchConfig(s=np.zeros(2), T=T0))
    cfg = var.unpack(var.project(np.array([*sigma, T])))
    validate_config(prob, cfg)


def test_free_time_projection_below_start_horizon():
    # T = 30 < T0 = 42 used to leave a physical gap of eps_gap * 30/42
    prob = build_problem("goddard")
    var = _Vars(prob, SwitchConfig(s=np.array([13.0, 21.0]), T=42.0))
    validate_config(prob, var.unpack(var.project(np.array([0.5, 0.5, 30.0]))))


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------

def test_minimize_catalyst_case1():
    prob = build_problem("catalyst1", T=1.0)
    rep = minimize(prob, SwitchConfig(s=np.array([0.1, 0.7])),
                   OptimizeSettings(stat_tol=1e-9), TIGHT)
    s_star = catalyst_switch_times(1.0)
    assert rep.converged
    np.testing.assert_allclose(rep.final_cfg.s, s_star, atol=1e-6)
    assert rep.objective == pytest.approx(-0.048055685860877, abs=1e-8)


def test_minimize_descends():
    prob = build_problem("catalyst1", T=1.0)
    cfg0 = SwitchConfig(s=np.array([0.3, 0.5]))
    start = forward_sweep(prob, cfg0, TIGHT).objective
    rep = minimize(prob, cfg0, OptimizeSettings(stat_tol=1e-8), TIGHT)
    assert rep.objective < start
    assert rep.stationarity <= 1e-8


def test_minimize_final_config_feasible():
    prob = build_problem("catalyst1", T=1.0)
    rep = minimize(prob, SwitchConfig(s=np.array([0.45, 0.5])),
                   OptimizeSettings(stat_tol=1e-8), TIGHT)
    validate_config(prob, rep.final_cfg)


def test_minimize_case2():
    prob = build_problem("catalyst2", T=1.0)
    rep = minimize(prob,
                   SwitchConfig(s=np.array([0.1, 0.7]),
                                p0=np.array([0.9, 0.8])),
                   OptimizeSettings(stat_tol=1e-9, max_iters=500), TIGHT)
    s_star = catalyst_switch_times(1.0)
    np.testing.assert_allclose(rep.final_cfg.s, s_star, atol=1e-6)


def test_minimize_reports_reference_errors():
    prob = build_problem("catalyst1", T=1.0)
    rep = minimize(prob, SwitchConfig(s=np.array([0.1, 0.7])),
                   OptimizeSettings(stat_tol=1e-9), TIGHT)
    assert rep.reference_errors is not None
    assert rep.reference_errors["s1"] < 1e-6


def _catalyst2_readme_start():
    # the README start at the default tolerance: three early line-search
    # trials run into the singular feedback's pole
    return (build_problem("catalyst2", T=1.0),
            SwitchConfig(s=np.array([0.1, 0.7]), p0=np.array([0.9, 0.8])))


def _recording(monkeypatch, module, name, log):
    """Replace module.name by a wrapper appending (args, outcome) to log."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        try:
            out = original(*args, **kwargs)
        except Exception as exc:
            log.append((args, exc))
            raise
        log.append((args, out))
        return out
    monkeypatch.setattr(module, name, wrapper)


def test_minimize_sweeps_once_per_trial_backward_only_when_accepted(
        monkeypatch):
    forward, backward = [], []
    _recording(monkeypatch, optimizer, "forward_sweep", forward)
    _recording(monkeypatch, gradients, "forward_sweep", forward)
    _recording(monkeypatch, gradients, "backward_sweep", backward)
    rep = minimize(*_catalyst2_readme_start())
    assert rep.converged
    assert len(forward) == rep.objective_evals
    assert len(backward) == rep.gradient_evals
    # the start plus one accepted trial per iteration but the last
    assert rep.gradient_evals == rep.iterations
    assert rep.objective_evals > rep.gradient_evals


def test_trial_over_step_budget_is_backed_off(monkeypatch):
    log = []
    _recording(monkeypatch, optimizer, "forward_sweep", log)
    rep = minimize(*_catalyst2_readme_start())
    np.testing.assert_allclose(rep.final_cfg.s,
                               catalyst_switch_times(1.0),
                               atol=1e-6)
    assert log[0][0][2].max_steps == IntegratorSettings().max_steps
    over, swept = 0, set()
    for args, out in log:
        if isinstance(out, StepLimitExceeded):
            # the budget is a multiple of the steps of an earlier iterate
            over += 1
            assert args[2].max_steps in {
                optimizer._TRIAL_STEP_FACTOR * n for n in swept}
        elif not isinstance(out, Exception):
            swept.add(out.steps)
    assert over, "no trial ran over its step budget"


def _counted_sweeps(monkeypatch, prob):
    """(prob with a counted f, log): minimize's forward sweeps append
    (record or exception, step budget, f calls) to the log."""
    calls, log = [0], []
    f = prob.f

    def counted(x, u):
        calls[0] += 1
        return f(x, u)

    original = optimizer.forward_sweep

    def sweep(*args):
        before = calls[0]
        try:
            out = original(*args)
        except optimizer._TRIAL_FAILURES as exc:
            log.append((exc, args[2].max_steps, calls[0] - before))
            raise
        log.append((out, args[2].max_steps, calls[0] - before))
        return out

    monkeypatch.setattr(optimizer, "forward_sweep", sweep)
    return dataclasses.replace(prob, f=counted), log


def test_trial_into_the_singular_pole_fails_within_its_budget(monkeypatch):
    # the catalyst2 README start's early trials run into the singular
    # feedback's pole; each stops within its step budget, _TRIAL_STEP_
    # FACTOR times the steps of an iterate, so it costs at most that many
    # attempts of _STAGES - 1 flow calls, plus each segment's first call
    # and its starting step's probe
    prob, cfg = _catalyst2_readme_start()
    prob, log = _counted_sweeps(monkeypatch, prob)
    rep = minimize(prob, cfg)
    assert rep.converged
    failed = [(budget, n) for out, budget, n in log
              if isinstance(out, Exception)]
    steps = [out.steps for out, _, _ in log if not isinstance(out, Exception)]
    assert failed
    for budget, n in failed:
        assert budget <= optimizer._TRIAL_STEP_FACTOR * max(steps)
        assert n <= 2 * (prob.k + 1) + (odeint._STAGES - 1) * budget


def test_trials_into_the_singular_pole_fail_fast(monkeypatch):
    # at --ode-tol 1e-10, the README catalyst2 solve's failed trials make
    # at most 2,000 flow calls in all (4,254 under a budget of ten times
    # an iterate's steps), and the solve keeps its 15 iterations
    prob, cfg = _catalyst2_readme_start()
    prob, log = _counted_sweeps(monkeypatch, prob)
    rep = minimize(prob, cfg, ode_settings=IntegratorSettings(
        rel_tol=1e-10, abs_tol=1e-10))
    assert rep.converged and rep.iterations == 15
    failed = [n for out, _, n in log if isinstance(out, Exception)]
    assert failed and sum(failed) <= 2000


def _first_trial_raises(monkeypatch, failure):
    """Make the forward sweep of minimize's first trial raise ``failure``."""
    original = optimizer.forward_sweep
    calls = []

    def sweep(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise failure("injected")
        return original(*args, **kwargs)
    monkeypatch.setattr(optimizer, "forward_sweep", sweep)
    return calls


@pytest.mark.parametrize("failure", [StepLimitExceeded, StepUnderflow,
                                     NonFiniteState])
def test_integration_failure_of_a_trial_is_backed_off(monkeypatch, failure):
    calls = _first_trial_raises(monkeypatch, failure)
    rep = minimize(build_problem("catalyst1", T=1.0),
                   SwitchConfig(s=np.array([0.1, 0.7])))
    assert rep.converged
    assert rep.objective_evals == len(calls)


def test_an_unintegrable_start_says_so(monkeypatch):
    # catalyst2 with p2 / p1 > 1 fails its first sweep at tol 1e-10: the
    # sweep's own exception escapes, its message naming the start
    log = []
    _recording(monkeypatch, optimizer, "forward_sweep", log)
    with pytest.raises(StepUnderflow) as info:
        minimize(build_problem("catalyst2"),
                 SwitchConfig(s=np.array([0.1, 0.7]), p0=np.array([0.9, 1.0])),
                 ode_settings=IntegratorSettings(rel_tol=1e-10, abs_tol=1e-10))
    assert len(log) == 1 and log[0][1] is info.value
    message = str(info.value)
    assert message.startswith("catalyst2: the start (s = 0.1,0.7; p0 = "
                              "0.9,1) is not integrable: step size ")
    assert message.endswith("the problem may be stiff or blowing up")


@pytest.mark.parametrize("failure", [StepLimitExceeded, StepUnderflow,
                                     NonFiniteState])
def test_an_unintegrable_free_time_start_names_its_horizon(monkeypatch,
                                                           failure):
    raised = failure("injected")

    def sweep(*args, **kwargs):
        raise raised
    monkeypatch.setattr(optimizer, "forward_sweep", sweep)
    with pytest.raises(failure) as info:
        minimize(build_problem("goddard"),
                 SwitchConfig(s=np.array([13.0, 21.0]), T=42.0))
    assert info.value is raised
    assert str(info.value) == \
        "goddard: the start (s = 13,21; T = 42) is not integrable: injected"


def test_configuration_error_of_a_trial_propagates(monkeypatch):
    _first_trial_raises(monkeypatch, InvalidSwitchOrder)
    with pytest.raises(InvalidSwitchOrder):
        minimize(build_problem("catalyst1", T=1.0),
                 SwitchConfig(s=np.array([0.1, 0.7])))


def _goddard_starts():
    """The README goddard start and six moved by 1e-4 relative."""
    rng = np.random.default_rng(5)
    readme = np.array([13.0, 21.0, 42.0])
    return [readme] + [readme * (1 + 1e-4 * rng.uniform(-1, 1, 3))
                       for _ in range(6)]


@pytest.mark.parametrize("start", _goddard_starts(),
                         ids=[f"start{i}" for i in range(7)])
def test_goddard_starts_end_near_reference(start):
    # near the optimum Armijo asks for less decrease than C resolves; the
    # solve finishes with Newton steps on the lane Hessian instead of
    # raising LineSearchFailure, and at tol 1e-10 they converge
    for ode_settings in (None, IntegratorSettings(rel_tol=1e-10,
                                                  abs_tol=1e-10)):
        rep = minimize(build_problem("goddard"),
                       SwitchConfig(s=start[:2], T=start[2]),
                       ode_settings=ode_settings)
        np.testing.assert_allclose(rep.final_cfg.s, GODDARD_REFERENCE.s_star,
                                   atol=1e-5)
        assert rep.final_cfg.T == pytest.approx(GODDARD_REFERENCE.T_star,
                                                abs=1e-5)
    assert rep.converged, rep.message


def test_failed_lane_hessian_stops_the_newton_finish_at_its_floor(
        monkeypatch):
    # a lane Hessian whose sweep fails gives no Newton step: the solve stops
    # at the projected gradient it reached and says so, raising nothing
    original = optimizer.evaluate_gradient

    def failing(prob, cfg, *args, **kwargs):
        if isinstance(cfg, list):
            raise StepLimitExceeded("injected")
        return original(prob, cfg, *args, **kwargs)
    monkeypatch.setattr(optimizer, "evaluate_gradient", failing)
    rep = minimize(build_problem("goddard"),
                   SwitchConfig(s=np.array([13.0, 21.0]), T=42.0))
    assert not rep.converged and rep.stationarity > 1e-8
    assert rep.message == (f"projected gradient floor {rep.stationarity:.3e}:"
                           " the Newton step from it gave inf")


def test_goddard_backtracks_by_interpolation():
    # a trial that fails Armijo backtracks to the minimizer of the
    # quadratic model: the benchmark's goddard solve takes 44 forward
    # sweeps, against 101 when every backtrack halves
    rep = minimize(build_problem("goddard"),
                   SwitchConfig(s=np.array([13.0, 21.0]), T=42.0),
                   ode_settings=IntegratorSettings(rel_tol=1e-10,
                                                   abs_tol=1e-10))
    assert rep.objective_evals <= 60
    np.testing.assert_allclose(rep.final_cfg.s, GODDARD_REFERENCE.s_star,
                               atol=1e-5)


def test_sign_flipped_gradient_still_fails_the_line_search(monkeypatch):
    # the stall rule reads the last accepted decrease; with none there is
    # no stall to report, so a broken gradient cannot pass for one
    original = optimizer.evaluate_gradient

    def flipped(*args, **kwargs):
        bundle = original(*args, **kwargs)
        bundle.d_s, bundle.d_T = -bundle.d_s, -bundle.d_T
        return bundle
    monkeypatch.setattr(optimizer, "evaluate_gradient", flipped)
    start = _goddard_starts()[0]
    with pytest.raises(LineSearchFailure, match="at iteration 1 "):
        minimize(build_problem("goddard"),
                 SwitchConfig(s=start[:2], T=start[2]))


# ---------------------------------------------------------------------------
# secant
# ---------------------------------------------------------------------------

def test_secant_jacobson():
    prob = build_problem("jacobson")
    s, iters = secant_switch(prob, (1.41, 1.42),
                             OptimizeSettings(stat_tol=1e-8), TIGHT)
    assert abs(s - JACOBSON_S1) <= 1e-8
    assert iters <= 10


def test_secant_bressan():
    prob = build_problem("bressan", T=10.0)
    s, _ = secant_switch(prob, (3.0, 4.0),
                         OptimizeSettings(stat_tol=1e-10), TIGHT)
    assert abs(s - 10.0 / 3.0) <= 1e-10


def test_secant_escapes_domain():
    # nearly equal residuals at the bracket make the secant update explode
    prob = build_problem("jacobson")
    with pytest.raises(SecantDivergence):
        secant_switch(prob, (4.70, 4.71),
                      OptimizeSettings(stat_tol=1e-8, max_iters=4), TIGHT)


def test_secant_refuses_a_root_of_negative_slope():
    # with C negated, bressan's stationary point s = T/3 is a maximum: the
    # secant finds the root of dC/ds1, whose slope there is negative
    prob = build_problem("bressan", T=10.0)
    flipped = dataclasses.replace(
        prob, C=lambda x: -prob.C(x),
        grad_C=lambda x: -np.asarray(prob.grad_C(x), dtype=float))
    with pytest.raises(SecantDivergence, match="negative derivative slope"):
        secant_switch(flipped, (3.0, 4.0),
                      OptimizeSettings(stat_tol=1e-10), TIGHT)


def test_secant_budget():
    prob = build_problem("bressan", T=10.0)
    with pytest.raises(SecantDivergence):
        secant_switch(prob, (3.0, 4.0),
                      OptimizeSettings(stat_tol=1e-14, max_iters=1), TIGHT)


@pytest.mark.parametrize("bracket", [(3.0, 3.0), (3.0, 3.0 + 5e-14),
                                     (3.0 + 5e-14, 3.0)])
def test_secant_degenerate_bracket_raises_before_any_sweep(monkeypatch,
                                                           bracket):
    def forbidden(*args, **kwargs):
        raise AssertionError("swept a degenerate bracket")

    monkeypatch.setattr(optimizer, "evaluate_gradient", forbidden)
    prob = build_problem("bressan", T=10.0)
    with pytest.raises(ValueError, match="1e-14"):
        secant_switch(prob, bracket)


@pytest.mark.parametrize("bracket, end", [((3.0, 11.0), 11.0),
                                          ((3.0, np.inf), np.inf),
                                          ((11.0, 3.0), 11.0)])
def test_secant_bracket_out_of_range_raises_before_any_sweep(monkeypatch,
                                                             bracket, end):
    # each end is checked as a configuration before the first evaluation,
    # with the message that the evaluation at the refused end raises
    with pytest.raises(InvalidSwitchOrder) as evaluated:
        evaluate_gradient(build_problem("bressan", T=10.0),
                          SwitchConfig(s=np.array([end])))
    swept = []
    monkeypatch.setattr(optimizer, "evaluate_gradient",
                        lambda *args, **kwargs: swept.append(args))
    with pytest.raises(InvalidSwitchOrder) as refused:
        secant_switch(build_problem("bressan", T=10.0), bracket)
    assert swept == []
    assert str(refused.value) == str(evaluated.value)


def test_secant_requires_single_switch():
    prob = build_problem("catalyst1", T=1.0)
    with pytest.raises(ValueError):
        secant_switch(prob, (0.1, 0.2))


# ---------------------------------------------------------------------------
# derivative profiles
# ---------------------------------------------------------------------------

def _sign_changes(rows):
    g = rows[:, 1]
    return int(np.sum(g[:-1] * g[1:] < 0))


def test_profile_jacobson_single_crossing():
    # the derivative vanishes only at the optimum in this window; a finite
    # difference of the objective confirms the derivative stays positive
    # beyond it (see the decisions ledger on the second-root claim)
    prob = build_problem("jacobson")
    rows = derivative_profile(prob, np.linspace(1.38, 1.48, 21),
                              ode_settings=TIGHT)
    assert _sign_changes(rows) == 1
    i = np.argmax(rows[:-1, 1] * rows[1:, 1] < 0)
    assert rows[i, 0] <= JACOBSON_S1 <= rows[i + 1, 0]


def test_profile_bressan_crossing_at_third():
    prob = build_problem("bressan", T=10.0)
    rows = derivative_profile(prob, np.linspace(3.0, 3.7, 15),
                              ode_settings=TIGHT)
    assert _sign_changes(rows) == 1
    i = np.argmax(rows[:-1, 1] * rows[1:, 1] < 0)
    assert rows[i, 0] <= 10.0 / 3.0 <= rows[i + 1, 0]


def test_profile_single_point():
    prob = build_problem("bressan", T=10.0)
    rows = derivative_profile(prob, [3.3], ode_settings=TIGHT)
    assert rows.shape == (1, 2)


def test_profile_is_the_pointwise_gradient():
    prob = build_problem("bressan", T=10.0)
    grid = np.linspace(3.0, 3.7, 4)
    rows = derivative_profile(prob, grid)
    assert np.array_equal(rows[:, 0], grid)
    for (s, d), want in zip(rows, grid):
        bundle = evaluate_gradient(prob, SwitchConfig(s=np.array([want])))
        assert abs(d - bundle.d_s[0]) <= 1e-12


def test_profile_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="at least one"):
        derivative_profile(build_problem("jacobson"), [])


def test_profile_step_budget_raises_like_the_scalar_sweep():
    prob = build_problem("jacobson")
    tiny = IntegratorSettings(max_steps=10)
    with pytest.raises(StepLimitExceeded):
        evaluate_gradient(prob, SwitchConfig(s=np.array([1.4])), tiny)
    with pytest.raises(StepLimitExceeded):
        derivative_profile(prob, np.linspace(1.38, 1.48, 5), tiny)


def test_profile_failing_point_raises_its_scalar_exception():
    # forward sweeps take 17 steps at s = 0.5 down to 6 at s = 4.5 (11 at
    # s = 3, 9 at s = 3.5), so a budget of 10 fails some grid points and
    # not others; the lane the error names fails alone too
    prob = build_problem("jacobson")
    grid = np.linspace(0.5, 4.5, 9)
    budget = IntegratorSettings(max_steps=10)
    with pytest.raises(StepLimitExceeded) as info:
        derivative_profile(prob, grid, budget)
    b = int(str(info.value).split(":")[0].removeprefix("lane "))
    with pytest.raises(StepLimitExceeded):
        evaluate_gradient(prob, SwitchConfig(s=grid[b:b + 1]), budget)
    evaluate_gradient(prob, SwitchConfig(s=grid[-1:]), budget)


def test_settings_validation():
    with pytest.raises(ValueError):
        OptimizeSettings(max_iters=0)
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            OptimizeSettings(stat_tol=tol)


def test_minimize_raises_when_its_iteration_budget_runs_out():
    # one accepted step from catalyst1's README start is not stationary
    prob = build_problem("catalyst1", T=1.0)
    with pytest.raises(MaxItersExceeded,
                       match=r"catalyst1: 1 iterations, projected gradient"):
        minimize(prob, SwitchConfig(s=np.array([0.1, 0.7])),
                 OptimizeSettings(max_iters=1))


@pytest.mark.parametrize("iters", [np.nan, np.inf, 2.5, 10.0, True])
def test_iteration_budget_must_be_an_integer(iters):
    # refused at construction, not by a TypeError from inside minimize
    with pytest.raises(ValueError, match="max_iters an integer"):
        OptimizeSettings(max_iters=iters)
    assert OptimizeSettings(max_iters=np.int64(5)).max_iters == 5
