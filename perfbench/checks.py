"""Checks of switchopt outputs against computations made apart from the program.

Nothing here imports switchopt.  Closed forms, published values and model
equations are written out again, so that a fault in the package cannot also
move the value it is checked against.  Every checker returns a list of
problem descriptions; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Published optimal objectives of the catalyst-mixing problem with rates
# (k1, k2, k3) = (1, 10, 1), by horizon T.
CATALYST_C_STAR = {1.0: -0.048055685860877,
                   4.0: -0.191814356325161,
                   12.0: -0.477712020050041}

# Published optimum of the Goddard rocket with the terminal-mass penalty.
GODDARD_S_STAR = (13.75532627577406, 21.98890645593362)
GODDARD_T_STAR = 42.88910958027504
GODDARD = dict(u_max=193.0, g=32.174, sigma=5.4915e-5, c=1580.9425,
               h0=23800.0)

CONTROL_BOUNDS = {"catalyst1": (0.0, 1.0), "catalyst2": (0.0, 1.0),
                  "jacobson": (-1.0, 1.0), "bressan": (-1.0, 1.0),
                  "goddard": (0.0, GODDARD["u_max"])}

# Acceptance criterion 6: analytic and finite-difference derivatives agree
# within 1e-5 relative or 1e-8 absolute.
FD_RTOL = 1e-5
FD_ATOL = 1e-8


def catalyst_switch_times(T, k1=1.0, k2=10.0, k3=1.0):
    """Closed-form switch times of the catalyst problem.

    The bang-high arc ends where the singular state ratio is reached:
    s1 = ln((1 + a + b) / a) / (k2 (1 + b)) with a = sqrt(k3/k2), b = k1/k2.
    The final bang-low arc lasts ln(1 + a) / k3, so s2 = T - ln(1 + a) / k3.
    """
    a = math.sqrt(k3 / k2)
    b = k1 / k2
    return (math.log((1 + a + b) / a) / (k2 * (1 + b)),
            T - math.log(1 + a) / k3)


def jacobson_residual(s):
    """Switch-time equation of the Jacobson problem; zero at the optimum."""
    return 1 - s * s / 2 - math.exp(2 * s - 10) * (-1 + 2 * s - s * s / 2)


def bisect(fn, lo, hi, tol=1e-15):
    """Root of fn on [lo, hi] by bisection; fn(lo) and fn(hi) differ in sign."""
    f_lo = fn(lo)
    if f_lo * fn(hi) > 0:
        raise ValueError("bisection bracket does not change sign")
    while hi - lo > tol * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0:
            return mid
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


JACOBSON_ROOT = bisect(jacobson_residual, 1.3, 1.5)


def dynamics(problem, x, u):
    """Right-hand side f(x, u) of each built-in problem, written out again."""
    if problem in ("catalyst1", "catalyst2"):
        a, b = x
        r = a - 10.0 * b
        return np.array([-u * r, u * r - (1 - u) * b])
    if problem == "jacobson":
        return np.array([x[1], u, 0.5 * (x[0] ** 2 + x[1] ** 2)])
    if problem == "bressan":
        return np.array([u, -x[0], x[0] ** 2 - x[1]])
    if problem == "goddard":
        h, v, m = x
        drag = GODDARD["sigma"] * v * v * math.exp(-h / GODDARD["h0"])
        return np.array([v, (u - drag) / m - GODDARD["g"],
                         -u / GODDARD["c"]])
    raise ValueError(f"no dynamics for {problem!r}")


def read_trajectory(path):
    """trajectory.csv as (t, x, u, p) arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], np.array(rows[1:], dtype=float)
    xs = [i for i, h in enumerate(header) if h.startswith("x")]
    us = [i for i, h in enumerate(header) if h.startswith("u")]
    ps = [i for i, h in enumerate(header) if h.startswith("p")]
    return data[:, 0], data[:, xs], data[:, us], data[:, ps]


def hamiltonian(problem, xs, us, ps):
    """H = p . f(x, u) at every trajectory sample."""
    return np.array([p @ dynamics(problem, x, u[0])
                     for x, u, p in zip(xs, us, ps)])


def _close(name, got, want, tol):
    err = abs(got - want)
    return [] if err <= tol else [f"{name}: {got!r} vs {want!r}, "
                                  f"error {err:.3g} > {tol:g}"]


def check_solve(problem, T, report, trajectory):
    """Check a CLI solve: report.json contents plus trajectory.csv rows.

    ``report`` is the parsed report.json, ``trajectory`` the (t, x, u, p)
    arrays of trajectory.csv.
    """
    errs = []
    s = report["s"]
    t, xs, us, ps = trajectory
    lo, hi = CONTROL_BOUNDS[problem]
    slack = 1e-9 * (hi - lo)
    if np.any(us < lo - slack) or np.any(us > hi + slack):
        errs.append(f"control leaves [{lo}, {hi}]: range "
                    f"[{us.min():.6g}, {us.max():.6g}]")
    if problem in ("catalyst1", "catalyst2"):
        for name, got, want in zip(("s1", "s2"), s,
                                   catalyst_switch_times(T)):
            errs += _close(name, got, want, 1e-6)
        errs += _close("C", report["objective"], CATALYST_C_STAR[T], 1e-8)
        if problem == "catalyst1":
            # H is constant along an optimal autonomous trajectory
            H = hamiltonian(problem, xs, us, ps)
            if np.ptp(H) > 1e-7:
                errs.append(f"Hamiltonian spread {np.ptp(H):.3g} > 1e-07")
    elif problem == "jacobson":
        errs += _close("s1", s[0], JACOBSON_ROOT, 1e-8)
    elif problem == "bressan":
        errs += _close("s1", s[0], T / 3.0, 1e-10)
    elif problem == "goddard":
        for name, got, want in zip(("s1", "s2"), s, GODDARD_S_STAR):
            errs += _close(name, got, want, 1e-5)
        errs += _close("T", report["T"], GODDARD_T_STAR, 1e-5)
        errs += _close("m(T)", xs[-1, 2], 1.0, 1e-5)
        # free terminal time: H vanishes along the optimal trajectory
        H = hamiltonian(problem, xs, us, ps)
        if np.max(np.abs(H)) > 1e-3:
            errs.append(f"max |H| {np.max(np.abs(H)):.3g} > 1e-03")
    else:
        raise ValueError(f"no solve check for {problem!r}")
    return errs


def agrees(analytic, fd):
    """Acceptance-criterion-6 agreement of an analytic and an FD derivative."""
    return abs(analytic - fd) <= max(FD_RTOL * abs(fd), FD_ATOL)


def central_difference(objective, h):
    """Fourth-order central difference of objective(delta) at delta = 0.

    The five-point stencil keeps the truncation error at O(h^4) while h is
    large enough that the integrator's tolerance does not swamp the
    difference quotient.
    """
    return (-objective(2 * h) + 8 * objective(h)
            - 8 * objective(-h) + objective(-2 * h)) / (12 * h)


def check_derivatives(pairs):
    """pairs: iterable of (label, analytic, finite difference)."""
    return [f"{label}: analytic {a:.12g} vs finite difference {fd:.12g}"
            for label, a, fd in pairs if not agrees(a, fd)]


def check_profile(rows, root):
    """A dC/ds1 table must change sign once, between grid points around root."""
    s, g = rows[:, 0], rows[:, 1]
    flips = [i for i in range(len(g) - 1) if g[i] * g[i + 1] < 0]
    if len(flips) != 1:
        return [f"{len(flips)} sign changes in the derivative profile, "
                "expected 1"]
    i = flips[0]
    if not s[i] <= root <= s[i + 1]:
        return [f"sign change in [{s[i]:.9g}, {s[i + 1]:.9g}] does not "
                f"bracket the root {root:.12g}"]
    return []


WARMSTART_KINDS = ("bang-high", "singular", "bang-low")


def check_structure(switch_times, kinds, T):
    """A TV warm start of the catalyst problem must find its two switches."""
    want = catalyst_switch_times(T)
    if len(switch_times) != 2:
        return [f"{len(switch_times)} switches found, expected 2"]
    errs = [f"switch {i + 1} at {got:.6g}, closed form {w:.6g}"
            for i, (got, w) in enumerate(zip(switch_times, want))
            if abs(got - w) > 0.02]
    if tuple(kinds) != WARMSTART_KINDS:
        errs.append(f"phase kinds {tuple(kinds)}, expected {WARMSTART_KINDS}")
    return errs
