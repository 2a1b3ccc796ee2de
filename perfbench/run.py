"""Benchmark of switchopt: time to solution, per-evaluation cost, warm start.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload solve|gradients|warmstart \\
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout, never from an
installed copy.  A run repeats whole rounds of the workload's operations,
one at a time, until ``--seconds`` have passed.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` every in-process operation runs once plainly and once
with per-layer tracing, and the JSON object holds the per-layer metrics
and the tracing overhead.  The line before it, ``detail: {...}``, breaks
the workload's time down by problem group; failed operations are named on
standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MAX_RUN_S = 150.0         # start no round that could end past this
MODULES = ("cli", "odeint", "gradients", "optimizer", "warmstart",
           "benchmarks", "problem")
# workload -> (detail metrics summed into work_s, the detail metric that is
# an operation's latency, passes over the workload's problems per round)
WORK = {"solve": (("solve_s",), "solve_s", workloads.SOLVE_REPEATS),
        "gradients": (("grad_eval_s", "fd_check_s", "profile_s"),
                      "grad_eval_s", 1),
        "warmstart": (("warmstart_s",), "warmstart_s", 1)}

# Machine-speed calibration.  On a shared host this process runs at one of
# two speeds about 2x apart, switching every 0.1 to 1 s, and the share of
# time spent at the slow one drifts by tens of percent over minutes.  A
# fixed kernel of small-array NumPy and interpreter work, the kind of work
# an ODE right-hand side does, is timed CAL_SAMPLES times between
# operations and every CAL_INTERVAL_S during them.  Each operation's time,
# less the time spent in the kernel, is multiplied by CAL_REF_S over the
# mean kernel time around and during it, so reported times are seconds at
# the speed at which the kernel takes CAL_REF_S, about the mean speed of
# the 2-core reference machine.
CAL_ITERS = 300
CAL_SAMPLES = 8
CAL_INTERVAL_S = 0.05
CAL_REF_S = 0.0012


class ProgramMissing(Exception):
    """The checkout holds no switchopt sources to benchmark."""


def load_program():
    """Import switchopt afresh from src/ and return its modules."""
    if not os.path.isfile(os.path.join(SRC, "switchopt", "__init__.py")):
        raise ProgramMissing(f"no switchopt package under {SRC}")
    for name in [m for m in sys.modules
                 if m == "switchopt" or m.startswith("switchopt.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("switchopt")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"switchopt imported from {pkg.__file__}")
    return SimpleNamespace(pkg=pkg, **{
        name: importlib.import_module("switchopt." + name)
        for name in MODULES})


def kernel():
    """Wall time of one run of the calibration kernel."""
    y = np.array([1.0, 0.5])
    a = np.array([[0.1, 0.2], [0.3, 0.4]])
    t0 = perf_counter()
    for _ in range(CAL_ITERS):
        y = y + 1e-3 * (a @ y) - 1e-3 * y
    return perf_counter() - t0


def calibrate():
    return [kernel() for _ in range(CAL_SAMPLES)]


class SpeedProbe:
    """Times the kernel every CAL_INTERVAL_S while an operation runs.

    The samples come from a SIGALRM handler, which Python runs in the main
    thread between bytecodes.  ``clock()`` is perf_counter less the time
    spent in the handler, so operations time their program calls with it.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def clock(self):
        return perf_counter() - self.spent

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(kernel())
        self.spent += perf_counter() - t0

    def timed(self, fn, before):
        """Run fn() while sampling; return (result, kernel samples after it,
        speed scale, seconds by clock())."""
        self.samples = []
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            t0 = self.clock()
            result = fn()
            wall = self.clock() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        after = calibrate()
        scale = CAL_REF_S / statistics.fmean(before + self.samples + after)
        return result, after, scale, wall


def timed_setup(setup, probe):
    """Import plus problem construction, repeated; the median is setup_s."""
    times = []
    cal = calibrate()
    for _ in range(SETUP_REPEATS):
        def build():
            mods = load_program()
            return mods, setup(mods)
        (mods, probs), cal, scale, wall = probe.timed(build, cal)
        times.append(wall * scale)
    return mods, probs, statistics.median(times)


def run_op(op, ctx):
    """Run one operation; return its detail times, or None if it failed."""
    try:
        return op.run(ctx)
    except Exception as exc:  # a failed operation is counted, not fatal
        print(f"failed: {op.name}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return None


def summarize(workload, records, rounds):
    """Per-pass detail times and the end-to-end times of a run.

    ``records`` holds (operation name, {detail metric: scaled seconds}) of
    every timed operation.  Each operation name is one kind of operation;
    a kind's time is the median over its records, counted as often per
    pass as the kind occurs per pass.
    """
    keys, latency_key, passes = WORK[workload]
    if not records:       # every operation failed; nothing was timed
        return {}, {"work_s": (0.0, "s"), "op_p50_ms": (0.0, "ms"),
                    "slowest_op_s": (0.0, "s")}
    kinds = {}
    for name, parts in records:
        kinds.setdefault(name, []).append(parts)

    def per_pass(key_set):
        return sum(len(v) / (rounds * passes) * statistics.median(
            sum(p.get(k, 0.0) for k in key_set) for p in v)
            for v in kinds.values())

    detail = {"work_s": per_pass(keys)}
    for key in sorted({k for _, parts in records for k in parts}):
        detail[key] = per_pass((key,))
    lat = [parts[latency_key] for _, parts in records
           if latency_key in parts]
    slowest = max(statistics.median(sum(p.get(k, 0.0) for k in keys)
                                    for p in v) for v in kinds.values())
    p50 = 1e3 * statistics.median(lat) if lat else 0.0
    if workload == "gradients" and lat:
        detail["grad_eval_p50_ms"] = p50
        detail["grad_eval_p90_ms"] = 1e3 * float(np.percentile(lat, 90))
        detail["grad_eval_calls"] = len(lat)
    return detail, {"work_s": (detail["work_s"], "s"),
                    "op_p50_ms": (p50, "ms"),
                    "slowest_op_s": (slowest, "s")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup, make_round = workloads.WORKLOADS[args.workload]
    probe = SpeedProbe()
    try:
        mods, probs, setup_s = timed_setup(setup, probe)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, ".out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    tight = mods.odeint.IntegratorSettings(rel_tol=1e-11, abs_tol=1e-11)
    ctx = workloads.Context(mods=mods, probs=probs, root_dir=ROOT,
                            src_dir=SRC, out_dir=out_dir, tight=tight,
                            clock=probe.clock)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        traced_ctx = workloads.Context(
            mods=mods, probs={k: tracer.wrap_problem(p)
                              for k, p in probs.items()},
            root_dir=ROOT, src_dir=SRC, out_dir=out_dir, tight=tight)

    rng = np.random.default_rng(args.seed)
    attempted = failed = rounds = 0
    unexpected = []
    records = []
    overhead = plain_total = 0.0
    start = perf_counter()
    try:
        cal = calibrate()
        while True:
            t_round = perf_counter()
            for op in make_round(ctx, rng):
                attempted += 1
                if op.in_process:
                    parts, cal, scale, wall = probe.timed(
                        lambda: run_op(op, ctx), cal)
                else:
                    parts = run_op(op, ctx)
                    cal = calibrate()
                ok = parts is not None
                if tracer is not None and op.in_process \
                        and op.known_fault is None:
                    tracer.install(mods)
                    t0 = perf_counter()
                    try:
                        ok = run_op(op, traced_ctx) is not None and ok
                    finally:
                        tracer.uninstall()
                    overhead += perf_counter() - t0 - wall
                    plain_total += wall
                    cal = calibrate()
                if not ok:
                    failed += 1
                    if op.known_fault is None:
                        unexpected.append(op.name)
                elif op.known_fault is None:
                    records.append(
                        (op.name, {k: v * scale for k, v in parts.items()}))
            rounds += 1
            elapsed = perf_counter() - start
            if elapsed >= args.seconds \
                    or elapsed + (perf_counter() - t_round) > MAX_RUN_S:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    detail, times = summarize(args.workload, records, rounds)
    print("detail: " + json.dumps({"workload": args.workload,
                                   "rounds": rounds, **detail}))
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            **times,
        }
    else:
        n = rounds * WORK[args.workload][2]
        metrics = tracer.metrics(n)
        metrics["cli.bytes_written"] = (ctx.bytes_written / n, "bytes")
        metrics["trace.overhead_s"] = (overhead / n, "s")
        metrics["trace.overhead_pct"] = (
            100.0 * overhead / plain_total if plain_total else 0.0, "%")

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
