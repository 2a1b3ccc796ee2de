"""Command-line front end: solve, warmstart, gradcheck, and profile.

Exit codes: 0 success, 1 check failure, 2 solver failure, 3 configuration
error.  Output files go to --out (or $SPA_OUT_DIR, or the working
directory): report.json and trajectory.csv from solve, structure.json and
u_profile.csv from warmstart, derivative_profile.csv from profile.  CSV
files carry a header row, `t` (or `s`) first, values at 17 significant
digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .benchmarks import build_problem
from .exceptions import SwitchOptError, InvalidSwitchOrder, MissingCostate, \
    InfeasiblePolytope, NoStructure
from .gradients import dense_trajectory, evaluate_gradient, gradcheck
from .odeint import IntegratorSettings
from .optimizer import OptimizeSettings, SolveReport, derivative_profile, \
    minimize, secant_switch
from .problem import SwitchConfig, validate_config
from .warmstart import detect_structure, solve_tv_euler

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 3

_GRADCHECK_RTOL = 1e-5
_GRADCHECK_ATOL = 1e-8


def _write_csv(path, header, rows):
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows.tolist():
            fh.write(fmt % tuple(row))


def _out_dir(args):
    out = args.out or os.environ.get("SPA_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_list(text):
    return None if text is None else np.array(
        [float(v) for v in text.split(",")])


def _bracket(text):
    """The ends (lo, hi) of ``--bracket lo,hi``."""
    try:
        lo, hi = _parse_list(text)
    except ValueError:
        raise InvalidSwitchOrder(f"--bracket lo,hi takes two values, got "
                                 f"{text!r}") from None
    return lo, hi


def _grid(text):
    """The points of ``--grid lo,hi,n``: n >= 1 points from lo to hi."""
    usage = f"--grid takes lo,hi,n with n >= 1, got {text!r}"
    parts = [] if text is None else text.split(",")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except (IndexError, ValueError):
        raise InvalidSwitchOrder(usage) from None
    if len(parts) != 3 or n < 1:
        raise InvalidSwitchOrder(usage)
    return np.linspace(lo, hi, n)


def _ode_settings(args):
    tol = args.ode_tol
    return IntegratorSettings(rel_tol=tol, abs_tol=tol)


def _config(prob, s, p0, alternatives=""):
    """The validated configuration (s, p0) at the problem's horizon;
    ``alternatives`` names the command's other ways to give s."""
    if s is None:
        raise InvalidSwitchOrder("--s0 is required" + alternatives)
    cfg = SwitchConfig(s=s, p0=p0, T=prob.T if prob.free_time else None)
    validate_config(prob, cfg)
    return cfg


def _one_start(args):
    """Refuse a solve given two starts: --s0 (with --p0), --secant (with
    --bracket) or --warmstart."""
    given = [o for o in ("s0", "p0", "secant", "warmstart")
             if getattr(args, o) not in (None, False)]
    starts = [o for o in given if o != "p0" or "s0" not in given]
    if len(starts) > 1:
        raise InvalidSwitchOrder(f"--{starts[0]} and --{starts[1]} are two "
                                 "starts; a solve takes exactly one")
    if args.secant != (args.bracket is not None):
        raise InvalidSwitchOrder("--secant and --bracket lo,hi go together")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args):
    _one_start(args)
    out = _out_dir(args)
    prob = build_problem(args.problem, T=args.T)
    ode = _ode_settings(args)
    opt = OptimizeSettings(stat_tol=args.opt_tol)

    if args.secant:
        s_root, iters = secant_switch(prob, _bracket(args.bracket), opt, ode)
        cfg = SwitchConfig(s=np.array([s_root]))
        bundle = evaluate_gradient(prob, cfg, ode)
        stationarity = float(abs(bundle.d_s[0]))
        report = SolveReport.at(
            prob, cfg, bundle, iterations=iters, objective_evals=iters,
            gradient_evals=iters, converged=stationarity <= opt.stat_tol,
            stationarity=stationarity, message="secant")
    else:
        if args.warmstart:
            dcp = solve_tv_euler(prob, N=args.N, rho_tv=args.rho_tv)
            est = detect_structure(dcp)
            if est.switch_times.size != prob.k:
                raise NoStructure(
                    f"warm start proposed {est.switch_times.size} switches "
                    f"but {prob.name} has {prob.k}")
            cfg0 = _config(prob, est.switch_times,
                           est.p0_estimate if prob.p0_size else None)
        else:
            cfg0 = _config(prob, _parse_list(args.s0), _parse_list(args.p0),
                           " (or use --secant/--warmstart)")
        report = minimize(prob, cfg0, opt, ode)

    with open(out / "report.json", "w") as fh:
        json.dump({"problem": prob.name, **report.to_dict()}, fh, indent=2)
        fh.write("\n")

    times, xs, us, ps = dense_trajectory(prob, report.final_bundle)
    header = (["t"] + [f"x{i + 1}" for i in range(prob.n)]
              + [f"u{i + 1}" for i in range(prob.m)]
              + [f"p{i + 1}" for i in range(prob.n)])
    _write_csv(out / "trajectory.csv", header,
               np.column_stack([times, xs, us, ps]))

    errs = report.reference_errors
    print(f"{prob.name}: C = {report.objective:.12g} in "
          f"{report.iterations} iterations"
          + (f", max reference error {max(errs.values()):.3g}" if errs else ""))
    return EXIT_OK


def cmd_warmstart(args):
    out = _out_dir(args)
    prob = build_problem(args.problem, T=args.T)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dcp = solve_tv_euler(prob, N=args.N, rho_tv=args.rho_tv)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    est = detect_structure(dcp)

    with open(out / "structure.json", "w") as fh:
        json.dump({
            "problem": prob.name,
            "N": dcp.N,
            "rho_tv": dcp.rho_tv,
            "converged": dcp.converged,
            "iterations": dcp.iterations,
            "passes": dcp.passes,
            "switch_times": [float(v) for v in est.switch_times],
            "phase_kinds": list(est.phase_kinds),
            "p0_estimate": [float(v) for v in est.p0_estimate],
        }, fh, indent=2)
        fh.write("\n")

    mids = (np.arange(dcp.N) + 0.5) * dcp.h
    header = ["t"] + [f"u{i + 1}" for i in range(prob.m)]
    _write_csv(out / "u_profile.csv", header,
               np.column_stack([mids, dcp.u.T]))
    print(f"{prob.name}: {est.switch_times.size} switches at "
          + ", ".join(f"{v:.6g}" for v in est.switch_times)
          + f"; kinds {est.phase_kinds}")
    return EXIT_OK


def cmd_gradcheck(args):
    prob = build_problem(args.problem, T=args.T)
    ode = _ode_settings(args)
    cfg = _config(prob, _parse_list(args.s0), _parse_list(args.p0))
    rows = gradcheck(prob, cfg, ode)

    ok = True
    print(f"{'derivative':>8} {'analytic':>24} {'finite diff':>24} {'rel err':>12}")
    for name, a, fd in rows:
        err = abs(a - fd) / max(abs(fd), _GRADCHECK_ATOL / _GRADCHECK_RTOL)
        good = err <= _GRADCHECK_RTOL
        ok = ok and good
        print(f"{name:>8} {a:24.16e} {fd:24.16e} {err:12.3e}"
              + ("" if good else "  MISMATCH"))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_profile(args):
    out = _out_dir(args)
    prob = build_problem(args.problem, T=args.T)
    ode = _ode_settings(args)
    rows = derivative_profile(prob, _grid(args.grid), ode_settings=ode)
    _write_csv(out / "derivative_profile.csv", ["s", "dC_ds1"], rows)

    g = rows[:, 1]
    crossings = [float(0.5 * (rows[i, 0] + rows[i + 1, 0]))
                 for i in range(len(g) - 1) if g[i] * g[i + 1] < 0]
    print(f"{prob.name}: {len(crossings)} sign changes"
          + (" near " + ", ".join(f"{c:.6g}" for c in crossings)
             if crossings else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp, *tols):
    """The options every subcommand takes, and the tolerances ``tols``
    ("ode", "opt") that it reads."""
    sp.add_argument("--problem", required=True,
                    help="catalyst1 | catalyst2 | jacobson | bressan | goddard")
    sp.add_argument("--T", type=float, default=None, help="horizon override")
    for tol in tols:
        sp.add_argument(f"--{tol}-tol", type=float, default=1e-8)
    sp.add_argument("--out", default=None, help="output directory "
                    "(default $SPA_OUT_DIR or cwd)")


@functools.cache
def build_parser():
    """The ``switchopt`` parser, built on the first call and shared after:
    parsing leaves it unchanged, and a sweep of CLI solves in one process
    builds it once."""
    ap = argparse.ArgumentParser(
        prog="switchopt",
        description="Switch-point optimal control solver")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="optimize switch points")
    sp.set_defaults(run=cmd_solve)
    _add_common(sp, "ode", "opt")
    sp.add_argument("--s0", default=None, help="comma list of switch times")
    sp.add_argument("--p0", default=None, help="comma list, initial costate")
    sp.add_argument("--secant", action="store_true",
                    help="secant iteration (single-switch problems)")
    sp.add_argument("--bracket", default=None, help="lo,hi for --secant")
    sp.add_argument("--warmstart", action="store_true",
                    help="seed s0/p0 from the TV warm start")
    sp.add_argument("--N", type=int, default=100)
    sp.add_argument("--rho-tv", type=float, default=1e-3)

    sp = sub.add_parser("warmstart", help="TV-regularized structure detection")
    sp.set_defaults(run=cmd_warmstart)
    _add_common(sp)
    sp.add_argument("--N", type=int, default=100)
    sp.add_argument("--rho-tv", type=float, default=1e-3)

    sp = sub.add_parser("gradcheck", help="analytic vs finite-difference")
    sp.set_defaults(run=cmd_gradcheck)
    _add_common(sp, "ode")
    sp.add_argument("--s0", default=None)
    sp.add_argument("--p0", default=None)

    sp = sub.add_parser("profile", help="dC/ds1 over a grid (k=1 problems)")
    sp.set_defaults(run=cmd_profile)
    _add_common(sp, "ode")
    sp.add_argument("--grid", default=None, help="lo,hi,npoints")
    return ap


_LISTS = ("--s0", "--p0", "--bracket", "--grid")


def _joined(argv):
    """argv with each list option and a value that starts with a minus sign
    and a digit joined, ``--p0 -1,2`` as ``--p0=-1,2``: argparse takes
    "-1,2" alone for an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _LISTS and re.match(r"-\d", arg):
            arg = out.pop() + "=" + arg
        out.append(arg)
    return out


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(_joined(sys.argv[1:] if argv is None
                                     else argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0

    try:
        names = args.problem.split(",")
        if args.command == "solve" and len(names) > 1:
            # a sweep, one problem after another, each in its own
            # output subdirectory
            base = _out_dir(args)
            return max([args.run(argparse.Namespace(**{
                **vars(args), "problem": name, "out": str(base / name)}))
                for name in names])
        return args.run(args)
    except (InvalidSwitchOrder, MissingCostate, InfeasiblePolytope,
            KeyError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SwitchOptError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
