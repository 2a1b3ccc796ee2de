"""Warm starting from a total-variation-regularized Euler discretization.

Discretize the control on a uniform mesh, add a TV penalty that promotes
piecewise-constant controls, and solve the resulting problem by proximal
gradient with nonmonotone Barzilai-Borwein steps: the smooth part's
gradient comes from a discrete adjoint recursion, the TV part's proximal
map is computed exactly by the taut-string method, and box bounds are
enforced by clipping.  The converged profile is then split into runs at
the lower bound, at the upper bound and between them, which propose
switch times, a phase pattern, and an initial-costate estimate for the
main solver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import NoStructure
from .problem import _FLOAT_FAILS, ProblemDef, _float_body, lane_shaped

__all__ = [
    "DiscreteControlProblem",
    "StructureEstimate",
    "tv_prox",
    "solve_tv_euler",
    "detect_structure",
]


def _check_mesh(N, rho_tv):
    if type(N) is bool or not isinstance(N, (int, np.integer)) or N < 2:
        raise ValueError(f"need an integer N >= 2 mesh intervals, got N={N}")
    if not (math.isfinite(rho_tv) and rho_tv >= 0):
        raise ValueError(f"rho_tv must be finite and >= 0, got {rho_tv}")


@dataclass
class DiscreteControlProblem:
    """Converged (or best-effort) discrete control on a uniform mesh.

    u has shape (m, N): one value per control channel per mesh interval.
    lower/upper are the per-node box bounds at the interval midpoints used
    by the clipping step.
    """

    prob: ProblemDef
    N: int
    h: float
    rho_tv: float
    u: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    objective: float
    iterations: int
    passes: int             # prox passes: iterations plus backtracks
    converged: bool
    p0_estimate: np.ndarray

    def __post_init__(self):
        _check_mesh(self.N, self.rho_tv)


@dataclass
class StructureEstimate:
    """Proposed switch structure recovered from a discrete control."""

    switch_times: np.ndarray
    phase_kinds: tuple              # entries: bang-low | bang-high | singular
    p0_estimate: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.switch_times, dtype=float)
        if s.size and np.any(np.diff(s) <= 0):
            raise ValueError("switch_times must be strictly increasing")
        if len(self.phase_kinds) != s.size + 1:
            raise ValueError("need one phase kind per segment")


# ---------------------------------------------------------------------------
# exact 1-D total-variation proximal map (taut string / Condat)
# ---------------------------------------------------------------------------

def tv_prox(signal, weight):
    """Exact minimizer of 1/2 ||z - signal||^2 + weight * sum |z_{j+1}-z_j|.

    Condat's direct non-iterative algorithm; O(N) in practice.  The loop
    runs on Python floats, which is the same float64 arithmetic as on NumPy
    scalars at a fraction of the interpreter cost per operation.
    """
    y = np.asarray(signal, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {y.shape}")
    if not (math.isfinite(weight) and weight >= 0):
        raise ValueError(f"weight must be finite and >= 0, got {weight}")
    n = y.size
    if n == 0 or weight == 0:
        return y.copy()
    lam = float(weight)
    x = np.empty(n)
    y = y.tolist()
    k = k0 = km = kp = 0
    vmin = y[0] - lam
    vmax = y[0] + lam
    umin = lam
    umax = -lam
    while True:
        if k == n - 1:
            if umin < 0:
                x[k0:km + 1] = vmin
                k = k0 = km = km + 1
                vmin = y[k]
                umin = lam
                umax = y[k] + lam - vmax
                continue
            if umax > 0:
                x[k0:kp + 1] = vmax
                k = k0 = kp = kp + 1
                vmax = y[k]
                umax = -lam
                umin = y[k] - lam - vmin
                continue
            x[k0:n] = vmin + umin / (k - k0 + 1)
            return x
        umin += y[k + 1] - vmin
        if umin < -lam:
            x[k0:km + 1] = vmin
            k = k0 = km = kp = km + 1
            vmin = y[k]
            vmax = y[k] + 2 * lam
            umin = lam
            umax = -lam
            continue
        umax += y[k + 1] - vmax
        if umax > lam:
            x[k0:kp + 1] = vmax
            k = k0 = km = kp = kp + 1
            vmin = y[k] - 2 * lam
            vmax = y[k]
            umin = lam
            umax = -lam
            continue
        k += 1
        if umin >= lam:
            km = k
            vmin += (umin - lam) / (k - k0 + 1)
            umin = lam
        if umax <= -lam:
            kp = k
            vmax += (umax + lam) / (k - k0 + 1)
            umax = -lam


# ---------------------------------------------------------------------------
# proximal gradient on the Euler discretization
# ---------------------------------------------------------------------------

def _rollout(prob, u, h):
    """Forward Euler states x_0..x_N for control matrix u (m, N), on lists
    of floats: each step runs prob.f's ``float_body`` (see
    ``problem.on_floats``) on them, or prob.f on arrays where f has no body
    or the body's float arithmetic raises at that step, with NumPy's bits
    either way."""
    def arrays(x, uj):
        return prob.f(np.array(x), np.array(uj)).tolist()

    body, x, rows = _float_body(prob.f) or arrays, prob.x0.tolist(), []
    for uj in u.T.tolist():
        rows.append(x)
        try:
            x = [a + h * b for a, b in zip(x, body(x, uj))]
        except _FLOAT_FAILS:
            if body is arrays:
                raise
            x = [a + h * b for a, b in zip(x, arrays(x, uj))]
    return np.array(rows + [x])


def _adjoint(prob, xs, u, h):
    """Discrete costates p_0..p_{N-1} and the gradient of C wrt each u_j.

    One lane call each of f_x and f_u on the N mesh points, then the
    backward pass p_{j-1} = p_j G_j, G_j = I + h f_x(x_j, u_j), and the
    stacked product dC/du_j = h p_j f_u(x_j, u_j).  Both stacks are
    C-contiguous, mesh axis first, so each product rounds as on one point.
    """
    n, (m, N), x = prob.n, u.shape, xs[:-1].T
    F_x = lane_shaped(prob, "f_x", prob.f_x(x, u), (n, n, N))
    F_u = lane_shaped(prob, "f_u", prob.f_u(x, u), (n, m, N))
    G = np.ascontiguousarray(np.moveaxis(np.eye(n)[..., None] + h * F_x, 2, 0))
    F_u = np.ascontiguousarray(np.moveaxis(F_u, 2, 0))
    ps = np.empty((N, n))
    ps[N - 1] = prob.grad_C(xs[N])
    for j in range(N - 1, 0, -1):
        ps[j - 1] = ps[j] @ G[j]
    return ps, h * np.matmul(ps[:, None, :], F_u)[:, 0, :].T


def _tv_value(u, rho):
    return rho * float(np.sum(np.abs(np.diff(u, axis=1))))


def solve_tv_euler(prob, N=100, rho_tv=1e-3, max_iters=2000):
    """Proximal-gradient solve of the TV-penalized Euler discretization.

    Minimizes F = C(x_N) + rho_tv * sum_j |u_{j+1} - u_j| over box-bounded
    mesh controls; a pass applies tv_prox per channel to u - step * g and
    clips.  Nonmonotone Barzilai-Borwein steps as in SpaRSA (Wright, Nowak
    & Figueiredo, IEEE TSP 57 (2009) 2479-2493): step = d.d / d.y for the
    last move d and its gradient change y, within [1e-3, 1e3] / L_hat of a
    curvature probe.  A trial is accepted when F is 1e-4 |d|^2 / (2 step)
    below the largest of the last 5 accepted F, else the step halves.  The
    solve stops after three consecutive iterations that change F by at most
    1e-8 relative; running out of iterations warns and returns the last
    iterate.  N must be at least 2 and rho_tv finite and nonnegative.

    Each trial point is rolled out once: the accepted trial's states feed
    the next gradient and, at the end, the costate estimate.
    """
    _check_mesh(N, rho_tv)
    h = float(prob.T) / N
    mids = (np.arange(N) + 0.5) * h
    lower = np.stack([prob.phases[0].lower(t) for t in mids], axis=1)
    upper = np.stack([prob.phases[0].upper(t) for t in mids], axis=1)

    def objective(uq):
        xq = _rollout(prob, uq, h)
        return float(prob.C(xq[-1])) + _tv_value(uq, rho_tv), xq

    u = 0.5 * (lower + upper)
    obj, xs = objective(u)
    ps, g = _adjoint(prob, xs, u, h)

    # crude curvature probe for the step bounds
    du = 1e-4 * np.maximum(1.0, np.abs(u))
    _, g2 = _adjoint(prob, _rollout(prob, u + du, h), u + du, h)
    L_hat = max(np.linalg.norm(g2 - g) / np.linalg.norm(du), 1e-12)
    step, lo, hi = 1.0 / L_hat, 1e-3 / L_hat, 1e3 / L_hat

    recent = [obj]          # the last 5 accepted F, for the GLL test
    it = passes = flat = 0
    for it in range(1, max_iters + 1):
        while True:
            passes += 1
            u_new = np.clip([tv_prox(v, step * rho_tv) for v in u - step * g],
                            lower, upper)
            d = u_new - u
            dd = np.sum(d * d)
            obj_new, xs_new = objective(u_new)
            if obj_new <= max(recent) - 1e-4 / (2 * step) * dd \
                    or np.max(np.abs(d)) < 1e-15:
                break
            step *= 0.5
        rel = abs(obj - obj_new) / max(1.0, abs(obj))
        flat = flat + 1 if rel <= 1e-8 else 0
        u, obj = u_new, obj_new
        recent = recent[-4:] + [obj]
        g_old, (ps, g) = g, _adjoint(prob, xs_new, u, h)
        dy = np.sum(d * (g - g_old))
        step = min(max(dd / dy, lo), hi) if dy > 0 else hi
        if flat == 3:
            break
    if flat < 3:
        warnings.warn(f"{prob.name}: TV warm start hit {max_iters} "
                      "iterations without settling; returning last iterate")

    return DiscreteControlProblem(
        prob=prob, N=N, h=h, rho_tv=rho_tv, u=u, lower=lower, upper=upper,
        objective=obj, iterations=it, passes=passes, converged=flat == 3,
        p0_estimate=ps[0])


# ---------------------------------------------------------------------------
# structure detection
# ---------------------------------------------------------------------------

# _AT_BOUND is a fraction of each channel's range.  Interior runs shorter
# than _MIN_RUN intervals are jumps smeared by the mesh; more than _K_MAX
# switches means the control oscillates rather than switches.
_AT_BOUND = 1e-6
_MIN_RUN = 3
_K_MAX = 6
_KINDS = ("singular", "bang-low", "bang-high")


def detect_structure(dcp):
    """Split a converged discrete control into bound runs.

    Each mesh interval is labelled bang-low or bang-high when every channel
    sits within _AT_BOUND of its range from that bound, else singular.
    Singular runs shorter than _MIN_RUN intervals are dropped, and
    neighbouring runs of one label merge.  Each run is a phase of that
    kind, and each switch lies midway between two consecutive runs.
    Raises NoStructure when there is no switch or more than _K_MAX.
    """
    u, lo, hi, N = dcp.u, dcp.lower, dcp.upper, dcp.N
    tol = _AT_BOUND * np.max(hi - lo, axis=1, keepdims=True)
    label = np.where(np.all(u - lo <= tol, axis=0), 1,
                     np.where(np.all(hi - u <= tol, axis=0), 2, 0))
    cuts = [0, *(np.flatnonzero(np.diff(label)) + 1), N]
    runs = []                                       # [label, start, end]
    for a, b in zip(cuts[:-1], cuts[1:]):
        if label[a] == 0 and b - a < _MIN_RUN:
            continue
        if runs and runs[-1][0] == label[a]:
            runs[-1][2] = b
        else:
            runs.append([label[a], a, b])

    k = len(runs) - 1
    if k < 1:
        raise NoStructure(
            f"no switch between bound runs in the {N}-interval control")
    if k > _K_MAX:
        raise NoStructure(
            f"{k} jumps between bound runs, more than {_K_MAX}; "
            "the control is likely oscillatory (try a larger rho_tv)")

    return StructureEstimate(
        switch_times=np.array([0.5 * (r[2] + q[1]) * dcp.h
                               for r, q in zip(runs[:-1], runs[1:])]),
        phase_kinds=tuple(_KINDS[r[0]] for r in runs),
        p0_estimate=dcp.p0_estimate.copy())
