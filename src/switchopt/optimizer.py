"""Finite-dimensional minimization over switch points, p0, and T.

The switch points live on the chain polytope {eps <= s_1, s_j + eps <=
s_{j+1}, s_k + eps <= T}, whose Euclidean projection reduces to bounded
isotonic regression (pool-adjacent-violators then clipping).  A projected
limited-memory quasi-Newton iteration with Armijo backtracking along the
projected arc drives the switch points (plus the initial costate and, for
free-time problems, the horizon) to stationarity.  Single-switch problems
can instead use a secant iteration on the switch-point derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .exceptions import InfeasiblePolytope, LineSearchFailure, \
    MaxItersExceeded, NonFiniteState, SecantDivergence, StepLimitExceeded, \
    StepUnderflow
from .gradients import GradientBundle, evaluate_gradient, \
    feasibility_margins, forward_sweep
from .lanes import evaluate_lanes
from .odeint import IntegratorSettings
from .problem import SwitchConfig, horizon

__all__ = [
    "OptimizeSettings",
    "SolveReport",
    "project_ordered",
    "minimize",
    "secant_switch",
    "derivative_profile",
]

# A line-search trial's forward sweep may use at most this many times the
# integrator steps of the current iterate's forward sweep.  A trial that
# runs into a stiff or singular region then fails fast and is backed off.
_TRIAL_STEP_FACTOR = 10

# Backtracking factor after a trial that fails to integrate, and the bounds
# of the interpolated factor after one that fails Armijo.
_LS_SHRINK = 0.5
_LS_MIN_SHRINK = 0.1
_ARMIJO_C1 = 1e-4    # sufficient-decrease constant of the Armijo test
_MEMORY = 10         # L-BFGS correction pairs kept

# Failures that make a trial point non-integrable.  Anything else (a bad
# configuration, say) is a fault and propagates.
_TRIAL_FAILURES = (StepLimitExceeded, StepUnderflow, NonFiniteState)


@dataclass(frozen=True)
class OptimizeSettings:
    """Knobs for minimize/secant_switch."""

    stat_tol: float = 1e-8
    max_iters: int = 300

    def __post_init__(self):
        if not 0 < self.stat_tol < math.inf or self.max_iters < 1:
            raise ValueError("stat_tol must be finite and positive, and "
                             "max_iters >= 1")


@dataclass
class SolveReport:
    """Outcome of one solve: final configuration plus diagnostics."""

    final_cfg: SwitchConfig
    objective: float
    iterations: int
    objective_evals: int              # forward sweeps, failed trials included
    gradient_evals: int               # backward sweeps
    converged: bool
    stationarity: float
    worst_margin: float
    reference_errors: Optional[dict] = None
    message: str = ""
    # gradient of final_cfg and its sweeps, for reuse; not part of to_dict
    final_bundle: Optional[GradientBundle] = field(default=None, repr=False)

    def to_dict(self) -> dict:
        cfg = self.final_cfg
        return {
            "s": [float(v) for v in cfg.s],
            "p0": None if cfg.p0 is None else [float(v) for v in cfg.p0],
            "T": None if cfg.T is None else float(cfg.T),
            "objective": float(self.objective),
            "iterations": int(self.iterations),
            "objective_evals": int(self.objective_evals),
            "gradient_evals": int(self.gradient_evals),
            "converged": bool(self.converged),
            "stationarity": float(self.stationarity),
            "worst_margin": float(self.worst_margin),
            "reference_errors": self.reference_errors,
            "message": self.message,
        }


# ---------------------------------------------------------------------------
# chain-polytope projection
# ---------------------------------------------------------------------------

def _pav_nondecreasing(y):
    """Isotonic (nondecreasing, unit-weight) regression via PAV."""
    vals = []
    counts = []
    for v in y:
        vals.append(float(v))
        counts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            v2, c2 = vals.pop(), counts.pop()
            v1, c1 = vals.pop(), counts.pop()
            vals.append((v1 * c1 + v2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    out = np.empty(len(y))
    i = 0
    for v, c in zip(vals, counts):
        out[i:i + c] = v
        i += c
    return out


def project_ordered(v, T, eps_gap):
    """Euclidean projection onto {eps <= s_1, s_j + eps <= s_{j+1} <= T - eps}.

    Shifting coordinate j by j*eps turns the gapped chain into a bounded
    monotone cone, where the projection is isotonic regression clipped to
    the box.  Idempotent by construction.
    """
    v = np.asarray(v, dtype=float)
    k = v.size
    upper = T - (k + 1) * eps_gap
    if upper < 0:
        raise InfeasiblePolytope(
            f"horizon {T} cannot hold {k} switch points with gap {eps_gap}")
    shift = eps_gap * np.arange(1, k + 1)
    w = np.clip(_pav_nondecreasing(v - shift), 0.0, upper)
    return w + shift


# ---------------------------------------------------------------------------
# projected L-BFGS
# ---------------------------------------------------------------------------

class _Vars:
    """Packing of the decision vector and its feasibility projection.

    Fixed-time:  z = [s, p0?].  Free-time: z = [sigma, p0?, T] where sigma
    are the switch points in tau = t/T units, matching the rescaling under
    which dC/dT is derived (the physical switch points scale with T).
    """

    def __init__(self, prob, cfg0):
        self.free_time = prob.free_time
        self.k = prob.k
        self.np0 = 0 if cfg0.p0 is None else cfg0.p0.size
        self.T0 = horizon(prob, cfg0)
        self.eps_gap = prob.eps_gap

    def pack(self, cfg):
        T = float(cfg.T) if cfg.T is not None else self.T0
        s = cfg.s / T if self.free_time else cfg.s
        parts = [s]
        if self.np0:
            parts.append(cfg.p0)
        if self.free_time:
            parts.append([T])
        return np.concatenate(parts)

    def unpack(self, z):
        k, np0 = self.k, self.np0
        T = float(z[-1]) if self.free_time else self.T0
        s = z[:k] * T if self.free_time else z[:k].copy()
        p0 = z[k:k + np0].copy() if np0 else None
        return SwitchConfig(s=s, p0=p0, T=T if self.free_time else None)

    def project(self, z):
        out = z.copy()
        if self.free_time:
            # one gap more than the chain needs, so that the chain in tau
            # units stays nonempty after rounding
            T = max(float(z[-1]), (self.k + 2) * self.eps_gap)
            out[-1] = T
            out[:self.k] = project_ordered(z[:self.k], 1.0, self._gap(T) / T)
        else:
            out[:self.k] = project_ordered(z[:self.k], self.T0,
                                           self._gap(self.T0))
        return out

    def _gap(self, T):
        """The switch gap, plus a few ulps of T so that it survives the
        rounding of s = sigma * T and of the differences validate_config
        takes."""
        return self.eps_gap + 8 * np.spacing(T)

    def gradient(self, bundle, T):
        parts = [bundle.d_s * T if self.free_time else bundle.d_s]
        if self.np0:
            parts.append(bundle.d_p0)
        if self.free_time:
            parts.append([bundle.d_T])
        return np.concatenate(parts)


def _two_loop(g, pairs, gamma, base):
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    q *= gamma * base
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def minimize(prob, cfg0, settings=None, ode_settings=None):
    """Projected L-BFGS minimization of the objective over (s, p0, T).

    Gradients come from the forward/backward sweep; feasibility of the
    switch ordering is maintained by chain projection at every trial point.
    A line-search trial runs only the forward sweep, with a step budget of
    _TRIAL_STEP_FACTOR times the current iterate's; the Armijo test needs
    nothing more, so the backward sweep runs only at accepted points.  A
    trial that integrates but fails Armijo backtracks to the minimizer of
    the quadratic through f, the predicted decrease and the trial's f,
    safeguarded to [_LS_MIN_SHRINK, _LS_SHRINK]; a failed trial halves.
    Converges when the projected-gradient infinity norm drops below
    stat_tol.  A line search that fails from a steepest-descent direction
    reports "stalled" when the projected gradient is within 100 stat_tol
    or the last accepted step lowered C by no more than rel_tol |C|, the
    objective's resolution; otherwise it raises LineSearchFailure.
    """
    settings = settings or OptimizeSettings()
    ode_settings = ode_settings or IntegratorSettings()
    var = _Vars(prob, cfg0)

    z = var.project(var.pack(cfg0))
    n_forward = n_backward = 0

    def objective_at(zq, max_steps):
        nonlocal n_forward
        n_forward += 1
        return forward_sweep(prob, var.unpack(zq),
                             replace(ode_settings, max_steps=max_steps))

    def gradient_at(zq, fwd):
        nonlocal n_backward
        n_backward += 1
        return evaluate_gradient(prob, var.unpack(zq), ode_settings, fwd=fwd)

    fwd = objective_at(z, ode_settings.max_steps)
    bundle = gradient_at(z, fwd)
    g = var.gradient(bundle, var.unpack(z).T or var.T0)
    # diagonal pre-scaling: cap the first trial step at ~1% of the variable
    # scale per coordinate, so badly conditioned objectives (large penalty
    # weights) cannot fling the iterate out of the integrable region
    scale = np.maximum(np.abs(z), 1.0)
    base = np.minimum(1.0 / np.maximum(np.abs(g), 1.0),
                      0.01 * scale / np.maximum(np.abs(g), 1e-12))

    pairs = []
    gamma = 1.0
    converged = False
    it = 0
    message = ""
    last_drop = np.inf  # decrease of C at the last accepted step
    for it in range(1, settings.max_iters + 1):
        pg = np.max(np.abs(z - var.project(z - g)))
        if pg <= settings.stat_tol:
            converged = True
            break

        d = _two_loop(-g, pairs, gamma, base)
        if d @ g >= 0:
            pairs.clear()
            d = -g * base

        alpha, accepted = 1.0, False
        budget = min(ode_settings.max_steps, _TRIAL_STEP_FACTOR * fwd.steps)
        for _ in range(60):
            z_new = var.project(z + alpha * d)
            step = z_new - z
            # a trial within a few ulps of z is z itself: its objective
            # differs from f only by integration noise
            if np.all(np.abs(step) <= np.maximum(
                    1e-16, 4 * np.spacing(np.abs(z)))):
                break
            pred = g @ step
            shrink = _LS_SHRINK
            try:
                fwd_new = objective_at(z_new, budget)
                if fwd_new.objective \
                        <= fwd.objective + _ARMIJO_C1 * min(pred, 0.0):
                    bundle_new = gradient_at(z_new, fwd_new)
                    accepted = True
                    break
                curv = fwd_new.objective - fwd.objective - pred
                if np.isfinite(curv) and curv > 0:
                    shrink = min(_LS_SHRINK,
                                 max(_LS_MIN_SHRINK, -pred / (2.0 * curv)))
            except _TRIAL_FAILURES:
                pass  # trial point not integrable; back off
            alpha *= shrink
        if not accepted:
            if pairs:
                pairs.clear()
                continue
            resolution = ode_settings.rel_tol * abs(fwd.objective)
            if pg <= 100.0 * settings.stat_tol or last_drop <= resolution:
                # no decrease possible at the integration accuracy
                # floor; the iterate is stationary to working precision
                message = (f"line search stalled at projected gradient "
                           f"{pg:.3e}; the last step lowered C by "
                           f"{last_drop:.3e}, resolution {resolution:.3e}")
                break
            raise LineSearchFailure(
                f"{prob.name}: no decrease at iteration {it} "
                f"(projected gradient {pg:.3e})")

        g_new = var.gradient(bundle_new, var.unpack(z_new).T or var.T0)
        sk, yk = z_new - z, g_new - g
        sy = sk @ yk
        if sy > 1e-12 * np.linalg.norm(sk) * np.linalg.norm(yk):
            pairs.append((sk, yk, 1.0 / sy))
            if len(pairs) > _MEMORY:
                pairs.pop(0)
            gamma = sy / (yk @ (yk * base))
        last_drop = fwd.objective - fwd_new.objective
        z, g, fwd, bundle = z_new, g_new, fwd_new, bundle_new
    else:
        raise MaxItersExceeded(
            f"{prob.name}: {settings.max_iters} iterations, "
            f"projected gradient {pg:.3e} > {settings.stat_tol:.3e}")

    cfg = var.unpack(z)
    pg = float(np.max(np.abs(z - var.project(z - g))))
    return SolveReport(
        final_cfg=cfg,
        objective=fwd.objective,
        iterations=it,
        objective_evals=n_forward,
        gradient_evals=n_backward,
        converged=converged,
        stationarity=pg,
        worst_margin=float(np.min(feasibility_margins(prob, bundle.fwd))),
        reference_errors=reference_errors(prob, cfg, fwd.objective),
        message=message, final_bundle=bundle)


def reference_errors(prob, cfg, objective) -> Optional[dict]:
    """Absolute errors against the problem's reference solution, if any."""
    ref = prob.reference
    if ref is None:
        return None
    out = {}
    for i, s_star in enumerate(ref.s_star):
        out[f"s{i + 1}"] = abs(float(cfg.s[i] - s_star))
    if ref.C_star is not None:
        out["C"] = abs(float(objective - ref.C_star))
    if ref.T_star is not None and cfg.T is not None:
        out["T"] = abs(float(cfg.T - ref.T_star))
    return out


# ---------------------------------------------------------------------------
# secant iteration for single-switch problems
# ---------------------------------------------------------------------------

def secant_switch(prob, bracket, settings=None, ode_settings=None):
    """Secant iteration on s -> dC/ds_1 for a single-switch problem.

    Terminates when |dC/ds_1| <= stat_tol or the update falls below
    1e-14 * T.  Raises ValueError if the bracket's ends are that close
    already, and SecantDivergence if an iterate leaves (0, T), the budget
    runs out, or the found stationary point has negative derivative slope
    (a local maximum of the objective, not a minimum).
    """
    if prob.k != 1:
        raise ValueError("secant_switch requires a single-switch problem")
    settings = settings or OptimizeSettings()
    T = float(prob.T)

    def g(s):
        cfg = SwitchConfig(s=np.array([s]))
        return evaluate_gradient(prob, cfg, ode_settings).d_s[0]

    s_prev, s_cur = float(bracket[0]), float(bracket[1])
    if abs(s_cur - s_prev) <= 1e-14 * T:
        raise ValueError(f"secant bracket ends {s_prev!r}, {s_cur!r} are "
                         "not more than 1e-14 * T apart")
    g_prev, g_cur = g(s_prev), g(s_cur)
    for it in range(2, settings.max_iters + 2):
        if abs(g_cur) <= settings.stat_tol or abs(s_cur - s_prev) <= 1e-14 * T:
            slope = (g_cur - g_prev) / (s_cur - s_prev) \
                if s_cur != s_prev else 1.0
            if slope < 0:
                raise SecantDivergence(
                    f"{prob.name}: stationary point at s={s_cur:.12g} has "
                    "negative derivative slope (local maximum, not a minimum)")
            return s_cur, it
        denom = g_cur - g_prev
        if denom == 0:
            raise SecantDivergence(f"{prob.name}: flat secant at s={s_cur:.6g}")
        s_next = s_cur - g_cur * (s_cur - s_prev) / denom
        if not (prob.eps_gap <= s_next <= T - prob.eps_gap):
            raise SecantDivergence(
                f"{prob.name}: iterate {s_next:.6g} left (0, {T})")
        s_prev, g_prev = s_cur, g_cur
        s_cur = s_next
        g_cur = g(s_cur)
    raise SecantDivergence(
        f"{prob.name}: no convergence in {settings.max_iters} iterations")


def derivative_profile(prob, s_grid, ode_settings=None):
    """Table of (s, dC/ds_1) over a grid, for single-switch problems.

    The grid points are the lanes of one lockstep forward and backward
    sweep (``evaluate_lanes``); lane b takes the steps of
    ``evaluate_gradient`` at s_grid[b].  A failing point raises, its
    message naming the lane.
    """
    if prob.k != 1:
        raise ValueError("derivative_profile requires a single-switch problem")
    s = np.array(s_grid, dtype=float).reshape(-1)
    if s.size == 0:
        raise ValueError("derivative_profile needs at least one grid point")
    bundle = evaluate_lanes(prob, [SwitchConfig(s=v[None]) for v in s],
                            ode_settings)
    return np.column_stack((s, bundle.d_s[0]))
