"""A seeded robustness sweep of ``switchopt solve`` over moved README starts.

Usage, from the root of a source checkout:

    python3 tools/robustness.py

Each start runs the CLI's ``main`` in this process, as ``switchopt solve
--problem P --s0 .. [--p0 ..] [--T ..] --ode-tol TOL``, with its output
in a temporary directory:

- the README start of each built-in (catalyst1 s0 = 0.1,0.7; catalyst2
  also p0 = 0.9,0.8; jacobson s0 = 1.4; bressan s0 = 3.0; goddard s0 =
  13,21 and T = 42), every component moved by a relative uniform draw in
  [-size, size], ten draws per size 0.05 and 0.3 from ``default_rng(0)``
  per problem and size, each at ``--ode-tol`` 1e-8, 1e-10, 1e-12 and
  1e-13, the switch points of a start sorted;
- twenty goddard starts moved by 1e-4 N(0, 1), ``default_rng(0)``, at
  1e-13.

It prints one JSON line per (problem, size, tol): the count of each
outcome (``converged``; ``floor``, a solve that exits 0 with ``converged``
false; the name of the exception of a failed solve, or ``configuration``
for exit code 3), the longest wall time and the worst reference error of
the solves that exit 0.  Then one JSON line per solve that did not
converge, with its command.

It exits 1, after the faults on one JSON line each, unless every solve
ended within 1 s, every failure is a ``SwitchOptError`` of the solver's
kind with exit code 2, and every solve that exits 0 is within 1e-4 of its
reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from switchopt import cli, exceptions  # noqa: E402

# (problem, its README start: option -> values)
STARTS = (
    ("catalyst1", {"--s0": (0.1, 0.7)}),
    ("catalyst2", {"--s0": (0.1, 0.7), "--p0": (0.9, 0.8)}),
    ("jacobson", {"--s0": (1.4,)}),
    ("bressan", {"--s0": (3.0,)}),
    ("goddard", {"--s0": (13.0, 21.0), "--T": (42.0,)}),
)
SIZES = (0.05, 0.3)
DRAWS = 10
TOLS = (1e-8, 1e-10, 1e-12, 1e-13)
# the goddard starts near the README's that a tol of 1e-13 fails on
NEAR, NEAR_SIZE, NEAR_TOL = 20, 1e-4, 1e-13
MAX_WALL_S = 1.0
MAX_REFERENCE_ERROR = 1e-4


def _moved(start, factors):
    """The options of ``start`` with its components, in order, times
    ``factors``, the switch points sorted: a move may swap them."""
    values = np.concatenate([start[k] for k in start]) * factors
    out, at = [], 0
    for option, v in start.items():
        moved = values[at:at + len(v)]
        out.append(f"{option}=" + ",".join(repr(float(x)) for x in (
            np.sort(moved) if option == "--s0" else moved)))
        at += len(v)
    return out


def _solve(name, options, tol, out):
    """(outcome, wall s, max reference error or None, exit code, argv) of
    one CLI solve."""
    argv = ["solve", "--problem", name, *options, "--ode-tol", repr(tol),
            "--out", out]
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    if code != cli.EXIT_OK:
        text = err.getvalue()
        outcome = text.split(":")[1].strip() if text.startswith(
            "solver failure:") else "configuration"
        return outcome, wall, None, code, argv
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    errs = report["reference_errors"]
    return ("converged" if report["converged"] else "floor"), wall, \
        max(errs.values()) if errs else None, code, argv


def _groups():
    """(problem, size label, tol, [options]) of every group of starts."""
    for name, start in STARTS:
        dim = sum(len(v) for v in start.values())
        for size in SIZES:
            moves = np.random.default_rng(0).uniform(-size, size,
                                                     (DRAWS, dim))
            starts = [_moved(start, 1.0 + m) for m in moves]
            for tol in TOLS:
                yield name, size, tol, starts
    name, start = STARTS[-1]
    moves = NEAR_SIZE * np.random.default_rng(0).standard_normal((NEAR, 3))
    yield name, f"{NEAR_SIZE:g} normal", NEAR_TOL, \
        [_moved(start, 1.0 + m) for m in moves]


def _fault(outcome, wall, error, code):
    """Why a solve breaks the sweep's asserts, or None."""
    if wall > MAX_WALL_S:
        return f"took {wall:.3f} s"
    if code == cli.EXIT_OK:
        if error is not None and error > MAX_REFERENCE_ERROR:
            return f"reference error {error:.3g}"
        return None
    kind = getattr(exceptions, outcome, None)
    if code != cli.EXIT_SOLVER or not (isinstance(kind, type) and issubclass(
            kind, exceptions.SwitchOptError)):
        return f"exit code {code} with {outcome}"
    return None


def main():
    faults, unconverged = [], []
    with tempfile.TemporaryDirectory() as out:
        for name, size, tol, starts in _groups():
            counts, longest, worst = {}, 0.0, None
            for options in starts:
                outcome, wall, error, code, cmd = _solve(name, options, tol,
                                                         out)
                counts[outcome] = counts.get(outcome, 0) + 1
                longest = max(longest, wall)
                if error is not None:
                    worst = error if worst is None else max(worst, error)
                if outcome != "converged":
                    unconverged.append({"outcome": outcome, "exit": code,
                                        "command": cmd[:-2]})
                fault = _fault(outcome, wall, error, code)
                if fault:
                    faults.append({"fault": fault, "command": cmd[:-2]})
            print(json.dumps({
                "problem": name, "size": size, "tol": tol,
                "outcomes": dict(sorted(counts.items())),
                "longest_s": round(longest, 4),
                "worst_reference_error": worst}), flush=True)
    for line in unconverged + faults:
        print(json.dumps(line))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
