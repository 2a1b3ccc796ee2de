"""Acceptance gate: the eleven headline criteria, one printed verdict each.

Each test prints `criterion N: PASS|FAIL  <summary>` before asserting, so a
plain pytest run shows the full scorecard.
"""

import time
import warnings

import numpy as np
import pytest

from switchopt.benchmarks import (
    CATALYST_U_SINGULAR, GODDARD_REFERENCE, JACOBSON_S1, build_catalyst,
    build_problem, catalyst_switch_times,
)
from switchopt.exceptions import NoStructure
from switchopt.gradients import (
    dense_trajectory, evaluate_gradient, forward_sweep,
    free_time_gradient_check,
)
from switchopt.odeint import IntegratorSettings
from switchopt.optimizer import (
    OptimizeSettings, minimize, project_ordered, secant_switch,
)
from switchopt.problem import SwitchConfig
from switchopt.warmstart import detect_structure, solve_tv_euler, tv_prox

from oracles import sampled_bundle

TIGHT = IntegratorSettings(rel_tol=1e-11, abs_tol=1e-11)

CATALYST_C = {1.0: -0.048055685860877,
              4.0: -0.191814356325161,
              12.0: -0.477712020050041}


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


# 1 -------------------------------------------------------------------------

def test_criterion_1_catalyst_case1():
    guesses = {1.0: [0.1, 0.7], 4.0: [0.1, 3.7], 12.0: [0.1, 11.7]}
    ode = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-10)
    worst_s, worst_c, worst_t = 0.0, 0.0, 0.0
    for T, g in guesses.items():
        prob = build_problem("catalyst1", T=T)
        t0 = time.time()
        rep = minimize(prob, SwitchConfig(s=np.array(g)),
                       OptimizeSettings(stat_tol=1e-8, max_iters=500), ode)
        worst_t = max(worst_t, time.time() - t0)
        s_star = catalyst_switch_times(T)
        worst_s = max(worst_s, float(np.max(np.abs(rep.final_cfg.s - s_star))))
        worst_c = max(worst_c, abs(rep.objective - CATALYST_C[T]))
    ok = worst_s <= 1e-6 and worst_c <= 1e-8 and worst_t <= 10.0
    _verdict(1, ok, f"T in (1,4,12): max |s-s*| {worst_s:.2e} (<=1e-6), "
                    f"max |C-C*| {worst_c:.2e} (<=1e-8), "
                    f"slowest case {worst_t:.1f}s (<=10s)")


# 2 -------------------------------------------------------------------------

def test_criterion_2_catalyst_case2():
    prob = build_problem("catalyst2", T=1.0)
    rep = minimize(prob,
                   SwitchConfig(s=np.array([0.1, 0.7]),
                                p0=np.array([0.9, 0.8])),
                   OptimizeSettings(stat_tol=1e-9, max_iters=500), TIGHT)
    s_star = catalyst_switch_times(1.0)
    s_err = float(np.max(np.abs(rep.final_cfg.s - s_star)))
    c_err = abs(rep.objective - CATALYST_C[1.0])

    # the p-dependent feedback evaluated along the converged singular arc
    times, xs, us, _ = dense_trajectory(
        prob, sampled_bundle(prob, rep.final_cfg, TIGHT, 400))
    s = rep.final_cfg.s
    on_arc = (times > s[0] + 1e-3) & (times < s[1] - 1e-3)
    u_err = float(np.max(np.abs(
        us[on_arc, 0] - CATALYST_U_SINGULAR)))
    ok = s_err <= 1e-6 and c_err <= 1e-8 and u_err <= 1e-4
    _verdict(2, ok, f"|s-s*| {s_err:.2e} (<=1e-6), |C-C*| {c_err:.2e} "
                    f"(<=1e-8), singular-law error {u_err:.2e} (<=1e-4)")


# 3 -------------------------------------------------------------------------

def test_criterion_3_jacobson_secant():
    prob = build_problem("jacobson")
    s, iters = secant_switch(prob, (1.41, 1.42),
                             OptimizeSettings(stat_tol=1e-9), TIGHT)
    err = abs(s - 1.41376408763006)
    ok = err <= 1e-8 and iters <= 10
    _verdict(3, ok, f"|s1 - root| {err:.2e} (<=1e-8) in {iters} "
                    "iterations (<=10)")


# 4 -------------------------------------------------------------------------

def test_criterion_4_bressan_secant():
    prob = build_problem("bressan", T=10.0)
    s, iters = secant_switch(prob, (3.0, 4.0),
                             OptimizeSettings(stat_tol=1e-12), TIGHT)
    err = abs(s - 10.0 / 3.0)
    ok = err <= 1e-10
    _verdict(4, ok, f"|s1 - 10/3| {err:.2e} (<=1e-10) in {iters} iterations")


# 5 -------------------------------------------------------------------------

def test_criterion_5_goddard():
    prob = build_problem("goddard")
    rep = minimize(prob, SwitchConfig(s=np.array([13.0, 21.0]), T=42.0),
                   OptimizeSettings(stat_tol=1e-6, max_iters=500), TIGHT)
    ref = GODDARD_REFERENCE
    errs = np.array([abs(rep.final_cfg.s[0] - ref.s_star[0]),
                     abs(rep.final_cfg.s[1] - ref.s_star[1]),
                     abs(rep.final_cfg.T - ref.T_star)])
    fwd = forward_sweep(prob, rep.final_cfg, TIGHT)
    m_err = abs(fwd.checkpoints[-1, 2] - 1.0)
    ok = np.all(errs <= 1e-5) and m_err <= 1e-5
    _verdict(5, ok, f"(s1,s2,T) errors {errs[0]:.2e}/{errs[1]:.2e}/"
                    f"{errs[2]:.2e} (<=1e-5), |m(T)-1| {m_err:.2e} (<=1e-5)")


# 6 -------------------------------------------------------------------------

def _fd_config(prob, cfg, mutate, delta=1e-6):
    hi, lo = cfg.copy(), cfg.copy()
    mutate(hi, +delta)
    mutate(lo, -delta)
    return (forward_sweep(prob, hi, TIGHT).objective
            - forward_sweep(prob, lo, TIGHT).objective) / (2 * delta)


def _agrees(analytic, fd):
    return abs(analytic - fd) <= max(1e-5 * abs(fd), 1e-8)


def test_criterion_6_gradient_oracle_suite():
    rng = np.random.default_rng(123)
    configs = {
        "catalyst1": lambda: SwitchConfig(
            s=np.sort(catalyst_switch_times(1.0)
                      + rng.uniform(-0.03, 0.03, 2))),
        "catalyst2": lambda: SwitchConfig(
            s=np.sort(catalyst_switch_times(1.0)
                      + rng.uniform(-0.03, 0.03, 2)),
            p0=np.array([1.0, 0.95]) + rng.uniform(-0.1, 0.1, 2)),
        "jacobson": lambda: SwitchConfig(
            s=np.array([JACOBSON_S1 + rng.uniform(-0.05, 0.05)])),
        "bressan": lambda: SwitchConfig(
            s=np.array([10.0 / 3.0 + rng.uniform(-0.3, 0.3)])),
        "goddard": lambda: SwitchConfig(
            s=np.sort(GODDARD_REFERENCE.s_star + rng.uniform(-0.3, 0.3, 2)),
            T=GODDARD_REFERENCE.T_star + rng.uniform(-0.3, 0.3)),
    }
    worst = 0.0
    failures = []
    for name, make in configs.items():
        prob = build_problem(name)
        for trial in range(5):
            cfg = make()
            bundle = evaluate_gradient(prob, cfg, TIGHT,
                                       with_d_T=prob.free_time)
            for j in range(prob.k):
                def bump(c, d, j=j):
                    c.s = c.s.copy()
                    c.s[j] += d
                fd = _fd_config(prob, cfg, bump)
                if not _agrees(bundle.d_s[j], fd):
                    failures.append(f"{name} d_s{j + 1}")
                worst = max(worst, abs(bundle.d_s[j] - fd)
                            / max(abs(fd), 1e-3))
            if prob.case == 2:
                for i in range(prob.n):
                    def bump(c, d, i=i):
                        c.p0 = c.p0.copy()
                        c.p0[i] += d
                    fd = _fd_config(prob, cfg, bump)
                    if not _agrees(bundle.d_p0[i], fd):
                        failures.append(f"{name} d_p0{i + 1}")
            if prob.free_time:
                analytic, fd = free_time_gradient_check(prob, cfg, TIGHT,
                                                        delta=1e-6)
                if not _agrees(analytic, fd):
                    failures.append(f"{name} d_T")
    ok = not failures
    _verdict(6, ok, "5 random configs x 5 problems, FD delta 1e-6, "
                    "tol 1e-5 rel / 1e-8 abs"
                    + ("" if ok else f"; mismatches: {sorted(set(failures))}"))


# 7 -------------------------------------------------------------------------

def test_criterion_7_case_reduction():
    case1 = build_problem("catalyst1", T=1.0)
    case2 = build_catalyst(case=2, constant_singular=True)
    s = np.array([0.14, 0.72])
    b1 = evaluate_gradient(case1, SwitchConfig(s=s), TIGHT)
    b2 = evaluate_gradient(case2, SwitchConfig(s=s, p0=np.array([1.0, 0.9])),
                           TIGHT)
    y2_norm = float(np.max(np.abs(b2.d_p0)))
    ds_gap = float(np.max(np.abs(b2.d_s - b1.d_s)))
    ok = y2_norm <= 1e-7 and ds_gap <= 1e-8
    _verdict(7, ok, f"||y2(0)|| {y2_norm:.2e} (<=1e-7), "
                    f"Case-1/Case-2 d_s gap {ds_gap:.2e} (<=1e-8)")


# 8 -------------------------------------------------------------------------

def test_criterion_8_free_time_identity():
    prob = build_problem("goddard")
    beta = 2.31774080357308e4
    rep = minimize(prob, SwitchConfig(s=np.array([13.0, 21.0]), T=42.0),
                   OptimizeSettings(stat_tol=1e-6, max_iters=500), TIGHT)
    at_opt = evaluate_gradient(prob, rep.final_cfg, TIGHT, with_d_T=True)
    normalized = abs(at_opt.d_T) / beta

    rel_errs = []
    for T in (40.0, 45.0):
        cfg = SwitchConfig(s=np.array([13.0, 21.0]) * T / 42.0, T=T)
        analytic, fd = free_time_gradient_check(prob, cfg, TIGHT)
        rel_errs.append(abs(analytic - fd) / abs(fd))
    ok = normalized <= 1e-4 and max(rel_errs) <= 1e-5
    _verdict(8, ok, f"|d_T|/|beta| at optimum {normalized:.2e} "
                    f"(<=1e-4); FD agreement at T=40,45: "
                    f"{rel_errs[0]:.2e}, {rel_errs[1]:.2e} (<=1e-5)")


# 9 -------------------------------------------------------------------------

def test_criterion_9_warm_start():
    prob = build_problem("catalyst1", T=1.0)
    dcp = solve_tv_euler(prob, N=100, rho_tv=1e-3)
    est = detect_structure(dcp)
    errs = np.abs(est.switch_times
                  - catalyst_switch_times(1.0))
    kinds_ok = est.phase_kinds == ("bang-high", "singular", "bang-low")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dcp0 = solve_tv_euler(prob, N=100, rho_tv=0.0)
    try:
        detect_structure(dcp0)
        no_structure = False
    except NoStructure:
        no_structure = True

    ok = (est.switch_times.size == 2 and np.all(errs <= 0.02)
          and kinds_ok and no_structure)
    _verdict(9, ok, f"2 switches, errors {errs[0]:.3f}/{errs[1]:.3f} "
                    f"(<=0.02), kinds {est.phase_kinds}, "
                    f"rho=0 NoStructure={no_structure}")


# 10 ------------------------------------------------------------------------

def test_criterion_10_tv_prox_oracle():
    from test_warmstart import _prox_oracle
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        y = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        lam = float(rng.uniform(0.01, 1.5))
        worst = max(worst, float(np.max(np.abs(tv_prox(y, lam)
                                               - _prox_oracle(y, lam)))))
    expansive = 0
    for _ in range(200):
        n = int(rng.integers(2, 25))
        a, b = rng.normal(size=n), rng.normal(size=n)
        lam = float(rng.uniform(0.0, 2.0))
        if (np.linalg.norm(tv_prox(a, lam) - tv_prox(b, lam))
                > np.linalg.norm(a - b) + 1e-10):
            expansive += 1
    ok = worst <= 1e-8 and expansive == 0
    _verdict(10, ok, f"200 oracle signals, max gap {worst:.2e} (<=1e-8); "
                     f"{expansive} nonexpansiveness violations")


# 11 ------------------------------------------------------------------------

def test_criterion_11_projection_oracle():
    from test_optimizer import _qp_oracle
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 7))
        T = float(rng.uniform(0.5, 3.0))
        eps = float(rng.choice([0.0, 1e-4, 0.02]))
        v = rng.normal(size=k) * T
        worst = max(worst, float(np.max(np.abs(
            project_ordered(v, T, eps) - _qp_oracle(v, T, eps)))))
    ok = worst <= 1e-10
    _verdict(11, ok, f"100 random instances, max gap {worst:.2e} (<=1e-10)")
