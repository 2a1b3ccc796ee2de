"""The three workloads: solve, gradients and warmstart.

A workload builds one round of operations from a seeded random generator.
Each operation calls switchopt only through its public functions or the
``switchopt solve`` entry point, checks the outputs with ``checks``, and
returns the wall time of the program calls it made, grouped by the metric
they feed.  An operation that raises or fails a check counts as failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import checks


class CheckFailed(Exception):
    """The program's output disagrees with an independent computation."""


def _require(errors):
    if errors:
        raise CheckFailed("; ".join(errors))


@dataclass
class Op:
    """One operation of a round.

    ``run(ctx)`` returns {detail metric: seconds} for its program calls.
    ``known_fault`` names the program fault that makes this operation fail
    every time; such operations are counted but kept out of every time
    metric.
    """

    name: str
    run: Callable
    known_fault: Optional[str] = None
    in_process: bool = True


@dataclass
class Context:
    """What an operation needs: the loaded modules and built problems."""

    mods: object
    probs: dict
    root_dir: str         # checkout root, the working directory of children
    src_dir: str          # the package sources under test
    out_dir: str          # where CLI solves write their files
    tight: object = None  # IntegratorSettings of acceptance criterion 6
    clock: Callable = perf_counter   # times the program calls
    bytes_written: int = 0


# ---------------------------------------------------------------------------
# solve: the built-in problems through `switchopt solve`
# ---------------------------------------------------------------------------

ODE_TOL = "1e-10"

# (label, problem, horizon, arguments, detail metric).  The starting points
# are the documented ones and do not depend on the seed: moving goddard's
# start by 1e-4 relative turns its solve into a LineSearchFailure on about
# half of the draws, so perturbed starts would make failures seed-dependent.
SOLVES = (
    ("catalyst1_T1", "catalyst1", 1.0,
     ["--T", "1", "--s0", "0.1,0.7"], "catalyst_solve_s"),
    ("catalyst1_T4", "catalyst1", 4.0,
     ["--T", "4", "--s0", "0.1,3.7"], "catalyst_solve_s"),
    ("catalyst1_T12", "catalyst1", 12.0,
     ["--T", "12", "--s0", "0.1,11.7"], "catalyst_solve_s"),
    ("catalyst2_T1", "catalyst2", 1.0,
     ["--T", "1", "--s0", "0.1,0.7", "--p0", "0.9,0.8"], "catalyst_solve_s"),
    ("goddard", "goddard", None,
     ["--s0", "13,21", "--T", "42"], "goddard_solve_s"),
    ("jacobson", "jacobson", 5.0,
     ["--secant", "--bracket", "1.41,1.42"], "secant_solve_s"),
    ("bressan", "bressan", 10.0,
     ["--T", "10", "--secant", "--bracket", "3.0,4.0"], "secant_solve_s"),
)
SOLVE_REPEATS = 2

# The README command at the default --ode-tol 1e-8.  A line-search trial
# sends the singular costate-feedback sweep toward the 1,000,000-step
# budget, so it is stopped after a fixed wall-clock limit.
README_CATALYST2 = ["solve", "--problem", "catalyst2", "--s0", "0.1,0.7",
                    "--p0", "0.9,0.8"]
README_LIMIT_S = 30.0


def read_solve(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    path = os.path.join(out_dir, "trajectory.csv")
    return report, checks.read_trajectory(path), (
        os.path.getsize(path)
        + os.path.getsize(os.path.join(out_dir, "report.json")))


def _solve_op(label, problem, T, argv, metric):
    def run(ctx):
        out = os.path.join(ctx.out_dir, label)
        os.makedirs(out, exist_ok=True)
        t0 = ctx.clock()
        code = ctx.mods.cli.main(["solve", "--problem", problem, *argv,
                                  "--ode-tol", ODE_TOL, "--out", out])
        dt = ctx.clock() - t0
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        report, traj, size = read_solve(out)
        _require(checks.check_solve(problem, T, report, traj))
        ctx.bytes_written += size
        return {"solve_s": dt, metric: dt}
    return Op(label, run)


def _readme_catalyst2(ctx):
    out = os.path.join(ctx.out_dir, "readme_catalyst2")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=ctx.src_dir)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "switchopt.cli", *README_CATALYST2,
             "--out", out], env=env, cwd=ctx.root_dir,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=README_LIMIT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"no result within {README_LIMIT_S:g} s") from None
    if proc.returncode != 0:
        raise CheckFailed(f"exit code {proc.returncode}")
    report, _, _ = read_solve(out)
    # default tolerances, so a looser bound than the 1e-6 of the solves
    s_star = checks.catalyst_switch_times(1.0)
    _require([f"s{i + 1} {got!r} vs {want!r}"
              for i, (got, want) in enumerate(zip(report["s"], s_star))
              if abs(got - want) > 1e-4])
    return {}


def solve_round(ctx, rng):
    ops = []
    for _ in range(SOLVE_REPEATS):
        for i in rng.permutation(len(SOLVES)):
            ops.append(_solve_op(*SOLVES[i]))
    ops.append(Op("readme_catalyst2", _readme_catalyst2,
                  known_fault="catalyst2 README command exceeds "
                              f"{README_LIMIT_S:g} s at --ode-tol 1e-8",
                  in_process=False))
    return ops


def solve_setup(mods):
    return {label: mods.benchmarks.build_problem(problem, T=T)
            for label, problem, T, _, _ in SOLVES}


# ---------------------------------------------------------------------------
# gradients: one evaluation at a time, checked by finite differences
# ---------------------------------------------------------------------------

CONFIGS_PER_PROBLEM = 20
FD_STEP = 1e-5          # relative step of the five-point stencil
FD_DELTA_T = 1e-6       # free_time_gradient_check step, as in criterion 6
PROFILE_POINTS = 200
# an optimal initial costate of catalyst2 (any positive multiple is one too)
CATALYST2_P0 = np.array([0.8735957855681101, 0.8259222796864807])


def _offset(rng, amplitude, size=None):
    """Offsets of magnitude in [amplitude/3, amplitude] and random sign.

    Configurations stay off the optimum, where derivatives vanish and the
    absolute tolerance of the finite-difference check would be all that
    is left to compare.
    """
    mag = rng.uniform(amplitude / 3, amplitude, size)
    return mag * rng.choice((-1.0, 1.0), size)


def _config(mods, name, rng):
    SwitchConfig = mods.problem.SwitchConfig
    if name == "catalyst1":
        return SwitchConfig(s=np.array(checks.catalyst_switch_times(1.0))
                            + _offset(rng, 0.03, 2))
    if name == "catalyst2":
        # With s offsets up to 0.03 the costate-feedback law can come near
        # a pole on the singular arc, where dC/dp0 at tolerance 1e-11 is
        # off by up to a third of the criterion-6 tolerance.
        s = np.array(checks.catalyst_switch_times(1.0)) + _offset(rng, 0.02, 2)
        # the singular feedback tolerates little change of p2/p1
        scale = rng.uniform(0.9, 1.1)
        p0 = CATALYST2_P0 * scale * np.array([1.0, 1.0 + _offset(rng, 0.005)])
        return SwitchConfig(s=s, p0=p0)
    if name == "jacobson":
        return SwitchConfig(s=np.array([checks.JACOBSON_ROOT
                                        + _offset(rng, 0.05)]))
    if name == "bressan":
        return SwitchConfig(s=np.array([10.0 / 3.0 + _offset(rng, 0.3)]))
    if name == "goddard":
        return SwitchConfig(
            s=np.array(checks.GODDARD_S_STAR) + _offset(rng, 0.3, 2),
            T=checks.GODDARD_T_STAR + _offset(rng, 0.3))
    raise ValueError(name)


def _bumped(cfg, attr, j, d):
    c = cfg.copy()
    v = getattr(c, attr).copy()
    v[j] += d
    setattr(c, attr, v)
    return c


def _gradient_op(name, cfg):
    def run(ctx):
        g, prob = ctx.mods.gradients, ctx.probs[name]
        tight = ctx.tight
        t0 = ctx.clock()
        bundle = g.evaluate_gradient(prob, cfg, tight,
                                     with_d_T=prob.free_time)
        t_eval = ctx.clock() - t0

        pairs = []
        t0 = ctx.clock()
        comps = [("s", j, bundle.d_s[j]) for j in range(prob.k)]
        if cfg.p0 is not None:
            comps += [("p0", j, bundle.d_p0[j]) for j in range(prob.n)]
        for attr, j, analytic in comps:
            x = getattr(cfg, attr)[j]
            fd = checks.central_difference(
                lambda d: g.forward_sweep(prob, _bumped(cfg, attr, j, d),
                                          tight, sample_count=2).objective,
                FD_STEP * max(1.0, abs(x)))
            pairs.append((f"{name} dC/d{attr}{j + 1}", analytic, fd))
        if prob.free_time:
            _, fd = g.free_time_gradient_check(prob, cfg, tight,
                                               delta=FD_DELTA_T)
            pairs.append((f"{name} dC/dT", bundle.d_T, fd))
        t_fd = ctx.clock() - t0
        _require(checks.check_derivatives(pairs))
        return {"grad_eval_s": t_eval, "fd_check_s": t_fd}
    return Op(f"gradient_{name}", run)


def _profile_op(lo, hi):
    def run(ctx):
        grid = np.linspace(lo, hi, PROFILE_POINTS)
        t0 = ctx.clock()
        rows = ctx.mods.optimizer.derivative_profile(ctx.probs["jacobson"],
                                                     grid)
        dt = ctx.clock() - t0
        _require(checks.check_profile(rows, checks.JACOBSON_ROOT))
        return {"profile_s": dt}
    return Op("profile_jacobson", run)


GRADIENT_PROBLEMS = ("catalyst1", "catalyst2", "jacobson", "bressan",
                     "goddard")


def gradients_round(ctx, rng):
    ops = [_gradient_op(name, _config(ctx.mods, name, rng))
           for _ in range(CONFIGS_PER_PROBLEM) for name in GRADIENT_PROBLEMS]
    shift = rng.uniform(-0.005, 0.005)
    ops.append(_profile_op(1.38 + shift, 1.48 + shift))
    return ops


def gradients_setup(mods):
    return {name: mods.benchmarks.build_problem(name)
            for name in GRADIENT_PROBLEMS}


# ---------------------------------------------------------------------------
# warmstart: TV-regularized structure detection over mesh sizes
# ---------------------------------------------------------------------------

# (problem, N); detection finds both switches for every rho_tv drawn below
WARMSTARTS = (("catalyst1", 100), ("catalyst1", 150), ("catalyst1", 200),
              ("catalyst2", 150), ("catalyst2", 250))
RHO_TV = 1e-3
# At N=400 the singular -> bang-low jump of about 0.22 spreads over several
# mesh edges, each below the per-edge jump_tol of 0.1 of the control range,
# so detect_structure reports one switch.
FAULT_WARMSTART = ("catalyst1", 400)


def _warmstart_op(name, N, rho):
    def run(ctx):
        ws, prob = ctx.mods.warmstart, ctx.probs[name]
        t0 = ctx.clock()
        dcp = ws.solve_tv_euler(prob, N=N, rho_tv=rho)
        est = ws.detect_structure(dcp)
        dt = ctx.clock() - t0
        _require(checks.check_structure(list(est.switch_times),
                                        est.phase_kinds, prob.T))
        return {"warmstart_s": dt}
    return Op(f"warmstart_{name}_N{N}", run)


def warmstart_round(ctx, rng):
    ops = [_warmstart_op(name, N, RHO_TV * rng.uniform(0.9, 1.1))
           for name, N in (WARMSTARTS[i]
                           for i in rng.permutation(len(WARMSTARTS)))]
    name, N = FAULT_WARMSTART
    op = _warmstart_op(name, N, RHO_TV)
    op.known_fault = ("detect_structure finds one switch of catalyst1 "
                      f"at N={N}")
    ops.append(op)
    return ops


def warmstart_setup(mods):
    return {name: mods.benchmarks.build_problem(name)
            for name in ("catalyst1", "catalyst2")}


WORKLOADS = {
    "solve": (solve_setup, solve_round),
    "gradients": (gradients_setup, gradients_round),
    "warmstart": (warmstart_setup, warmstart_round),
}
