"""Benchmark control problems: catalyst mixing, Jacobson, Bressan, Goddard.

Each builder returns an immutable ProblemDef with analytic dynamics
Jacobians, phase control laws, and a ReferenceSolution carrying the known
switch points (and objective / terminal time where available).  Integral
objectives are reformulated to terminal form by augmenting a state whose
dynamics is the integrand.  The problems carry the paper's constants; only
the horizon T varies.

The callbacks receive arrays, as ``ProblemDef`` says.  Those that a
forward sweep calls at every RHS evaluation (each model's f, catalyst's
f_x, and every law) are ``problem.on_floats`` bodies that return lists: a
point's flow runs them on Python floats from end to end, with the bits of
the arrays (see the ``problem`` module docstring).  Where a point's float
arithmetic raises (a division by zero, or an overflowing ``**``), the flow
takes the callbacks on the arrays.  A point on floats warns of no
overflow, where NumPy's scalars would outside ``np.errstate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import ControlPhase, ProblemDef, on_floats

__all__ = [
    "CATALYST_U_SINGULAR",
    "ReferenceSolution",
    "build_catalyst",
    "build_jacobson",
    "build_bressan",
    "build_goddard",
    "build_problem",
    "catalyst_switch_times",
    "jacobson_root_residual",
    "PROBLEM_NAMES",
]

PROBLEM_NAMES = ("catalyst1", "catalyst2", "jacobson", "bressan", "goddard")


@dataclass(frozen=True)
class ReferenceSolution:
    """Known solution data used for reporting absolute errors."""

    s_star: np.ndarray
    T_star: Optional[float] = None
    C_star: Optional[float] = None


# Every problem's callbacks also take B lanes of states, x of shape (n, B)
# and u of shape (m, B), and then return arrays whose trailing axis is the
# lane axis, as ``ProblemDef`` requires.

def _lane_zeros(shape, x):
    """Zeros of ``shape``, with x's lane axis appended when it has one."""
    return np.zeros(shape + x.shape[1:])


def _exp(v):
    """exp of a float by ``math.exp``, the cheap call on the one-point
    path of the forward sweep (a Python float, or NumPy's float64 scalar
    of a point), inf where that overflows, and of lanes by ``np.exp``."""
    try:
        return math.exp(v) if isinstance(v, float) else np.exp(v)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# catalyst mixing
# ---------------------------------------------------------------------------

# the rate constants of the paper's catalyst mixing problem
K1, K2, K3 = 1.0, 10.0, 1.0
_A, _B = math.sqrt(K3 / K2), K1 / K2

# constant singular control a(1+a)/(b+(1+a)^2), a=sqrt(k3/k2), b=k1/k2
CATALYST_U_SINGULAR = _A * (1 + _A) / (_B + (1 + _A) ** 2)

# optimal objective values by horizon T
_CATALYST_OBJECTIVES = {1.0: -0.048055685860877,
                        4.0: -0.191814356325161,
                        12.0: -0.477712020050041}


def catalyst_switch_times(T: float) -> np.ndarray:
    """Closed-form switch times of the bang-singular-bang solution on
    [0, T]; they are in order, 0 < s1 < s2 < T, only for T > 0.41107."""
    s1 = math.log((1 + _A + _B) / _A) / (K2 * (1 + _B))
    s2 = T - math.log(1 + _A) / K3
    return np.array([s1, s2])


def _catalyst_core():
    k1, k2, k3 = K1, K2, K3

    def f(x, u):
        a, b = x
        r = k1 * a - k2 * b
        return [-u[0] * r, u[0] * r - (1 - u[0]) * k3 * b]

    def f_x(x, u):
        return [[-u[0] * k1, u[0] * k2],
                [u[0] * k1, -u[0] * k2 - (1 - u[0]) * k3]]

    def f_u(x, u):
        a, b = x
        r = k1 * a - k2 * b
        return np.array([[-r], [r + k3 * b]])

    return on_floats(f), on_floats(f_x), f_u


def _catalyst_singular_feedback():
    """Costate-feedback singular law from the vanishing second derivative of
    the switching function, plus its x- and p-gradients."""
    k1, k2, k3 = K1, K2, K3
    gam = k2 - k3 - k1

    def parts(x, p):
        a, b = x
        p1, p2 = p
        num = -k3 * (k1 * a * p2 + k2 * b * p1)
        den = (p1 * (k2 * b * gam - 2 * k1 * k2 * a)
               + p2 * (k1 * a * gam + 2 * k1 * k2 * b))
        return num, den

    def law(t, x, p):
        num, den = parts(x, p)
        return [num / den]

    def grads(x, p):
        a, b = x
        p1, p2 = p
        num, den = parts(x, p)
        dnum_x = np.array([-k3 * k1 * p2, -k3 * k2 * p1])
        dnum_p = np.array([-k3 * k2 * b, -k3 * k1 * a])
        dden_x = np.array([-2 * k1 * k2 * p1 + k1 * gam * p2,
                           k2 * gam * p1 + 2 * k1 * k2 * p2])
        dden_p = np.array([k2 * b * gam - 2 * k1 * k2 * a,
                           k1 * a * gam + 2 * k1 * k2 * b])
        du_x = (dnum_x * den - num * dden_x) / den ** 2
        du_p = (dnum_p * den - num * dden_p) / den ** 2
        return du_x, du_p

    return on_floats(law), grads


def _catalyst_case2_derivs(prob_phases, f_x, f_u, sing_grads):
    """Analytic Jacobian of the Case-2 flow F = (f, -p f_x) in z = (x, p)
    for every phase.  f_x is linear in the scalar control u with slope M
    and does not depend on x, so with u = u(x, p) on the singular arc it is
    [[f_x + f_u du_x, f_u du_p], [-(pM)^T du_x, -f_x^T - (pM)^T du_p]],
    and a constant-control phase drops the du terms."""
    # derivative of the state Jacobian with respect to the scalar control
    M = np.array([[-K1, K2], [K1, -K2 + K3]])

    def derivs(j, t, x, p):
        ph = prob_phases[j]
        feedback = ph.law_kind == "state_costate"
        u = np.broadcast_to(ph.law(t, x, p) if feedback else ph.law(t),
                            (1,) + np.shape(t))
        fx = f_x(x, u)
        J = _lane_zeros((4, 4), x)
        J[:2, :2] = fx
        J[2:, 2:] = -np.swapaxes(fx, 0, 1)
        if feedback:
            du_x, du_p = sing_grads(x, p)
            fu, pM = f_u(x, u)[:, 0], M.T @ p
            J[:2, :2] += fu[:, None] * du_x[None]
            J[:2, 2:] = fu[:, None] * du_p[None]
            J[2:, :2] = -pM[:, None] * du_x[None]
            J[2:, 2:] -= pM[:, None] * du_p[None]
        return J

    return derivs


def build_catalyst(T: float = 1.0, case: int = 1,
                   constant_singular: bool = False) -> ProblemDef:
    """Catalyst mixing problem on [0, T] (bang-high, singular, bang-low).

    Case 1 uses the known constant singular control; Case 2 computes the
    singular control from the state-costate feedback law.  Setting
    ``constant_singular`` keeps the constant law in a Case-2 problem (the
    p-independent reduction used for consistency checks).  The reference
    is the closed form, given only where its switch times are in order.
    """
    f, f_x, f_u = _catalyst_core()
    lo = lambda t: np.array([0.0])
    hi = lambda t: np.array([1.0])

    case2 = case == 2
    if case2 and not constant_singular:
        sing_law, sing_grads = _catalyst_singular_feedback()
        singular = ControlPhase("state_costate", sing_law, lo, hi)
    else:
        singular = ControlPhase(
            "constant", on_floats(lambda t: [CATALYST_U_SINGULAR]), lo, hi)
        sing_grads = None

    phases = (
        ControlPhase("constant", on_floats(lambda t: [1.0]), lo, hi),
        singular,
        ControlPhase("constant", on_floats(lambda t: [0.0]), lo, hi),
    )
    case2_derivs = None
    if case2:
        case2_derivs = _catalyst_case2_derivs(phases, f_x, f_u, sing_grads)

    s_star = catalyst_switch_times(T)
    reference = (ReferenceSolution(s_star, C_star=_CATALYST_OBJECTIVES.get(T))
                 if 0 < s_star[0] < s_star[1] < T else None)

    return ProblemDef(
        name=f"catalyst{case}", n=2, m=1,
        x0=np.array([1.0, 0.0]), T=T, free_time=False,
        case=case, phases=phases, f=f, f_x=f_x, f_u=f_u,
        C=lambda x: x[0] + x[1] - 1.0,
        grad_C=lambda x: np.array([1.0, 1.0]),
        case2_derivs=case2_derivs, reference=reference)


# ---------------------------------------------------------------------------
# Jacobson-Gershwin-Lele
# ---------------------------------------------------------------------------

JACOBSON_S1 = 1.41376408763006415924


def jacobson_root_residual(s: float) -> float:
    """Residual of the switch-time equation; zero at the optimal s_1."""
    return 1 - s ** 2 / 2 - math.exp(2 * s - 10) * (-1 + 2 * s - s ** 2 / 2)


def build_jacobson() -> ProblemDef:
    """Double integrator with quadratic running cost on [0, 5] (bang, singular).

    The running cost is absorbed into a third state, so the objective is the
    terminal value of that state.
    """
    @on_floats
    def f(x, u):
        return [x[1], u[0], 0.5 * (x[0] * x[0] + x[1] * x[1])]

    def f_x(x, u):
        J = _lane_zeros((3, 3), x)
        J[0, 1] = 1.0
        J[2, 0], J[2, 1] = x[0], x[1]
        return J

    def f_u(x, u):
        J = _lane_zeros((3, 1), x)
        J[1, 0] = 1.0
        return J

    def law_x(t, x):
        J = _lane_zeros((1, 3), x)
        J[0, 0] = 1.0
        return J

    lo = lambda t: np.array([-1.0])
    hi = lambda t: np.array([1.0])
    phases = (
        ControlPhase("constant", on_floats(lambda t: [-1.0]), lo, hi),
        ControlPhase("state", on_floats(lambda t, x: [x[0]]), lo, hi,
                     law_x=law_x),
    )
    return ProblemDef(
        name="jacobson", n=3, m=1, x0=np.array([0.0, 1.0, 0.0]),
        T=5.0, free_time=False, case=1, phases=phases,
        f=f, f_x=f_x, f_u=f_u,
        C=lambda x: x[2], grad_C=lambda x: np.array([0.0, 0.0, 1.0]),
        reference=ReferenceSolution(s_star=np.array([JACOBSON_S1])))


# ---------------------------------------------------------------------------
# Bressan
# ---------------------------------------------------------------------------

def build_bressan(T: float = 10.0) -> ProblemDef:
    """Bressan's problem on [0, T]: bang u=-1 then singular u=1/2; s_1 = T/3."""
    @on_floats
    def f(x, u):
        return [u[0], -x[0], x[0] * x[0] - x[1]]

    def f_x(x, u):
        J = _lane_zeros((3, 3), x)
        J[1, 0] = J[2, 1] = -1.0
        J[2, 0] = 2 * x[0]
        return J

    def f_u(x, u):
        J = _lane_zeros((3, 1), x)
        J[0, 0] = 1.0
        return J

    lo = lambda t: np.array([-1.0])
    hi = lambda t: np.array([1.0])
    phases = (
        ControlPhase("constant", on_floats(lambda t: [-1.0]), lo, hi),
        ControlPhase("constant", on_floats(lambda t: [0.5]), lo, hi),
    )
    return ProblemDef(
        name="bressan", n=3, m=1, x0=np.zeros(3),
        T=T, free_time=False, case=1, phases=phases,
        f=f, f_x=f_x, f_u=f_u,
        C=lambda x: x[2], grad_C=lambda x: np.array([0.0, 0.0, 1.0]),
        reference=ReferenceSolution(s_star=np.array([T / 3.0])))


# ---------------------------------------------------------------------------
# Goddard rocket (free terminal time, penalized terminal mass)
# ---------------------------------------------------------------------------

# thrust bound, gravity, drag factor, exhaust speed, density scale height,
# and the weights beta, rho of the terminal-mass penalty
U_MAX, GRAVITY, SIGMA = 193.0, 32.174, 5.4915e-5
EXHAUST, H0 = 1580.9425, 23800.0
BETA, RHO = -2.31774080357308e4, 1e5

GODDARD_REFERENCE = ReferenceSolution(
    s_star=np.array([13.75532627577406, 21.98890645593362]),
    T_star=42.88910958027504)


def build_goddard(T: float = 42.0) -> ProblemDef:
    """Goddard rocket: full thrust, singular thrust, coast; free terminal time.

    The m >= 1 state constraint is replaced by the penalty
    beta (m(T)-1) + rho/2 (m(T)-1)^2 added to -h(T).  The drag factor uses
    exp(-h/h0) in both the dynamics and the singular thrust law, and gravity
    enters as the weight m*g (vdot = (u - drag)/m - g), which is the only
    form consistent with the m*g terms of the singular thrust law.
    """
    u_max, g, sig, c, h0 = U_MAX, GRAVITY, SIGMA, EXHAUST, H0

    @on_floats
    def f(x, u):
        h, v, m = x
        drag = sig * v * v * _exp(-h / h0)
        return [v, (u[0] - drag) / m - g, -u[0] / c]

    def f_x(x, u):
        h, v, m = x
        E = _exp(-h / h0)
        drag = sig * v * v * E
        J = _lane_zeros((3, 3), x)
        J[0, 1] = 1.0
        J[1] = drag / (m * h0), -2 * sig * v * E / m, -(u[0] - drag) / m ** 2
        return J

    def f_u(x, u):
        J = _lane_zeros((3, 1), x)
        J[1, 0], J[2, 0] = 1.0 / x[2], -1.0 / c
        return J

    @on_floats
    def u_sing(t, x):
        h, v, m = x
        E = _exp(-h / h0)
        kap = c / v
        A = 1 + 4 * kap + 2 * kap ** 2
        B = (c ** 2 / (h0 * g)) * (1 + v / c) - 1 - 2 * kap
        return [sig * v * v * E + m * g + (m * g / A) * B]

    def u_sing_x(t, x):
        h, v, m = x
        E = _exp(-h / h0)
        kap = c / v
        dkap = -c / v ** 2
        A = 1 + 4 * kap + 2 * kap ** 2
        B = (c ** 2 / (h0 * g)) * (1 + v / c) - 1 - 2 * kap
        dA = (4 + 4 * kap) * dkap
        dB = c / (h0 * g) - 2 * dkap
        du_h = -sig * v * v * E / h0
        du_v = 2 * sig * v * E + m * g * (dB * A - B * dA) / A ** 2
        du_m = g * (1 + B / A)
        return np.array([[du_h, du_v, du_m]])

    lo = lambda t: np.array([0.0])
    hi = lambda t: np.array([u_max])
    phases = (
        ControlPhase("constant", on_floats(lambda t: [u_max]), lo, hi),
        ControlPhase("state", u_sing, lo, hi, law_x=u_sing_x),
        ControlPhase("constant", on_floats(lambda t: [0.0]), lo, hi),
    )

    def C(x):
        dm = x[2] - 1.0
        return -x[0] + BETA * dm + 0.5 * RHO * dm * dm

    def grad_C(x):
        g = _lane_zeros((3,), x)
        g[0], g[2] = -1.0, BETA + RHO * (x[2] - 1.0)
        return g

    return ProblemDef(
        name="goddard", n=3, m=1, x0=np.array([0.0, 0.0, 3.0]),
        T=T, free_time=True, case=1, phases=phases,
        f=f, f_x=f_x, f_u=f_u, C=C, grad_C=grad_C,
        reference=GODDARD_REFERENCE)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def build_problem(name: str, T: Optional[float] = None) -> ProblemDef:
    """Build a benchmark by CLI name: catalyst1, catalyst2, jacobson,
    bressan, goddard."""
    if name in ("catalyst1", "catalyst2"):
        return build_catalyst(T if T is not None else 1.0, case=int(name[-1]))
    if name == "jacobson":
        if T not in (None, 5.0):
            raise ValueError(f"jacobson's horizon is fixed at 5, got T={T}")
        return build_jacobson()
    if name == "bressan":
        return build_bressan(T if T is not None else 10.0)
    if name == "goddard":
        return build_goddard(T if T is not None else 42.0)
    raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
