"""Self-test of the benchmark's checkers: perturbed results must fail.

    python3 perfbench/selftest.py

Each case takes a real switchopt output, confirms that the checker passes
it, then perturbs it (switch points moved by 1e-3, a derivative with the
wrong sign, a missing switch, ...) and confirms that the checker reports a
failure.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import numpy as np

import run
import checks
from workloads import FD_STEP, read_solve


def _solve(mods, out, problem, *argv):
    code = mods.cli.main(["solve", "--problem", problem, *argv,
                          "--ode-tol", "1e-10", "--out", out])
    if code != 0:
        raise RuntimeError(f"{problem} solve exited {code}")
    report, traj, _ = read_solve(out)
    return report, traj


def _moved(report, i, d):
    r = copy.deepcopy(report)
    r["s"][i] += d
    return r


def cases(mods, out):
    """Yield (name, passes unperturbed, fails perturbed) per case."""
    rep, traj = _solve(mods, os.path.join(out, "c1"), "catalyst1",
                       "--T", "1", "--s0", "0.1,0.7")
    good = checks.check_solve("catalyst1", 1.0, rep, traj)
    yield ("catalyst1 s1 moved by 1e-3", good,
           checks.check_solve("catalyst1", 1.0, _moved(rep, 0, 1e-3), traj))
    yield ("catalyst1 s2 moved by -1e-3", good,
           checks.check_solve("catalyst1", 1.0, _moved(rep, 1, -1e-3), traj))
    t, xs, us, ps = traj
    yield ("catalyst1 control above its bound", good,
           checks.check_solve("catalyst1", 1.0, rep,
                              (t, xs, us + 1e-6 * (us > 0.5), ps)))
    bent = ps.copy()
    bent[len(t) // 2:, 0] *= 1.001
    yield ("catalyst1 costate bent halfway", good,
           checks.check_solve("catalyst1", 1.0, rep, (t, xs, us, bent)))

    for problem, argv in (("jacobson", ("--secant", "--bracket",
                                        "1.41,1.42")),
                          ("bressan", ("--T", "10", "--secant", "--bracket",
                                       "3.0,4.0"))):
        rep, traj = _solve(mods, os.path.join(out, problem), problem, *argv)
        T = 5.0 if problem == "jacobson" else 10.0
        yield (f"{problem} s1 moved by 1e-3",
               checks.check_solve(problem, T, rep, traj),
               checks.check_solve(problem, T, _moved(rep, 0, 1e-3), traj))

    rep, traj = _solve(mods, os.path.join(out, "goddard"), "goddard",
                       "--s0", "13,21", "--T", "42")
    good = checks.check_solve("goddard", None, rep, traj)
    moved = copy.deepcopy(rep)
    moved["T"] += 1e-3
    yield ("goddard T moved by 1e-3", good,
           checks.check_solve("goddard", None, moved, traj))
    t, xs, us, ps = traj
    light = xs.copy()
    light[-1, 2] -= 1e-4
    yield ("goddard final mass 1e-4 under 1", good,
           checks.check_solve("goddard", None, rep, (t, light, us, ps)))

    prob = mods.benchmarks.build_problem("catalyst1")
    tight = mods.odeint.IntegratorSettings(rel_tol=1e-11, abs_tol=1e-11)
    cfg = mods.problem.SwitchConfig(s=np.array([0.15, 0.70]))
    bundle = mods.gradients.evaluate_gradient(prob, cfg, tight)
    pairs = []
    for j in range(2):
        def objective(d, j=j):
            c = cfg.copy()
            c.s = c.s.copy()
            c.s[j] += d
            return mods.gradients.forward_sweep(prob, c, tight).objective
        pairs.append((f"dC/ds{j + 1}", bundle.d_s[j],
                      checks.central_difference(objective, FD_STEP)))
    flipped = [(label, -a, fd) for label, a, fd in pairs]
    yield ("derivative with the wrong sign", checks.check_derivatives(pairs),
           checks.check_derivatives(flipped[:1] + pairs[1:]))
    scaled = [(label, a * (1 + 1e-4), fd) for label, a, fd in pairs]
    yield ("derivative off by 1e-4 relative",
           checks.check_derivatives(pairs), checks.check_derivatives(scaled))

    jac = mods.benchmarks.build_problem("jacobson")
    rows = mods.optimizer.derivative_profile(jac, np.linspace(1.38, 1.48, 40))
    good = checks.check_profile(rows, checks.JACOBSON_ROOT)
    flat = rows.copy()
    flat[:, 1] = np.abs(flat[:, 1])
    yield ("profile without a sign change", good,
           checks.check_profile(flat, checks.JACOBSON_ROOT))
    yield ("profile grid moved by 1e-2", good,
           checks.check_profile(rows + np.array([1e-2, 0.0]),
                                checks.JACOBSON_ROOT))

    dcp = mods.warmstart.solve_tv_euler(prob, N=100, rho_tv=1e-3)
    est = mods.warmstart.detect_structure(dcp)
    times, kinds = list(est.switch_times), est.phase_kinds
    good = checks.check_structure(times, kinds, 1.0)
    yield ("warm start with a missing switch", good,
           checks.check_structure(times[:1], kinds[:2], 1.0))
    yield ("warm start switch moved by 0.03", good,
           checks.check_structure([times[0] + 0.03, times[1]], kinds, 1.0))
    yield ("warm start with a wrong phase kind", good,
           checks.check_structure(times, ("bang-high", "bang-low",
                                          "bang-low"), 1.0))


def main():
    mods = run.load_program()
    out = os.path.join(run.HERE, ".out", f"selftest-{os.getpid()}")
    bad = 0
    try:
        for name, unperturbed, perturbed in cases(mods, out):
            ok = not unperturbed and bool(perturbed)
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}"
                  + ("" if ok else f": unperturbed {unperturbed}, "
                     f"perturbed {perturbed}"))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(f"{bad} checker self-test(s) failed" if bad
          else "all checker self-tests passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
