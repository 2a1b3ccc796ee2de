"""Prince & Dormand's 8th-order method, DOP853, on piecewise-smooth ODE
systems.

The right-hand side may change discontinuously at a known, ordered list of
breakpoints.  Integration is hard-restarted at every breakpoint: no accepted
step straddles a segment boundary and the step-size controller is reset, so
eighth-order accuracy is retained on each smooth piece.

The module holds the whole method, one ``Tableau`` record, and no other
reads it: the scalar loop, the lockstep loop of B lanes, the samples,
each one step of the method from the node before it, and the fold of
accepted steps into the transition matrices of the reverse pass.  Both
loops record a segment's accepted steps as arrays (t, h, y, K), the step
axis first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .exceptions import NonFiniteState, StepLimitExceeded, StepUnderflow

__all__ = [
    "IntegratorSettings",
    "PiecewiseOde",
    "DenseTrajectory",
    "integrate_piecewise",
    "integrate_lanes",
    "sample_states",
]


@dataclass(frozen=True)
class Tableau:
    """An explicit Runge-Kutta method with two embedded error estimates.

    Stage i of a step of length h from (t, y) is k_i = f(t + c_i h, y +
    h sum_{l<i} a_il k_l), row i of ``a`` holding a_i0 .. a_i,i-1, and the
    step ends at y + h sum_i b_i k_i.  ``e5`` and ``e3`` weight the stages
    into the error estimates of orders 5 and 3 that ``_error_norm``
    combines.  With ``fsal`` the last stage is the derivative at the step's
    end, weighted 0 in it, and serves as the next step's first.  ``q`` is
    the order of the combined estimate, which sets the controller's
    exponents.
    """

    c: tuple
    a: tuple
    b: np.ndarray
    e5: np.ndarray
    e3: np.ndarray
    fsal: bool
    q: int


# Prince & Dormand's RK8(7)13M in Hairer's DOP853 form, with its 5th/3rd-
# order error estimator: Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, 2nd ed., Springer 1993, section II.10; Prince &
# Dormand, J. Comput. Appl. Math. 7 (1981) 67-75.  12 stages plus FSAL.
_B_DOP853 = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2)
_DOP853 = Tableau(
    c=(0.0, 0.526001519587677318785587544488e-01,
       0.789002279381515978178381316732e-01,
       0.118350341907227396726757197510, 0.281649658092772603273242802490,
       0.333333333333333333333333333333, 0.25,
       0.307692307692307692307692307692, 0.651282051282051282051282051282,
       0.6, 0.857142857142857142857142857142, 1.0, 1.0),
    a=(
        (),
        (5.26001519587677318785587544488e-2,),
        (1.97250569845378994544595329183e-2,
         5.91751709536136983633785987549e-2),
        (2.95875854768068491816892993775e-2, 0.0,
         8.87627564304205475450678981324e-2),
        (2.41365134159266685502369798665e-1, 0.0,
         -8.84549479328286085344864962717e-1,
         9.24834003261792003115737966543e-1),
        (3.7037037037037037037037037037e-2, 0.0, 0.0,
         1.70828608729473871279604482173e-1,
         1.25467687566822425016691814123e-1),
        (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
         6.02165389804559606850219397283e-2, -1.7578125e-2),
        (3.70920001185047927108779319836e-2, 0.0, 0.0,
         1.70383925712239993810214054705e-1,
         1.07262030446373284651809199168e-1,
         -1.53194377486244017527936158236e-2,
         8.27378916381402288758473766002e-3),
        (6.24110958716075717114429577812e-1, 0.0, 0.0,
         -3.36089262944694129406857109825,
         -8.68219346841726006818189891453e-1,
         2.75920996994467083049415600797e1,
         2.01540675504778934086186788979e1,
         -4.34898841810699588477366255144e1),
        (4.77662536438264365890433908527e-1, 0.0, 0.0,
         -2.48811461997166764192642586468,
         -5.90290826836842996371446475743e-1,
         2.12300514481811942347288949897e1,
         1.52792336328824235832596922938e1,
         -3.32882109689848629194453265587e1,
         -2.03312017085086261358222928593e-2),
        (-9.3714243008598732571704021658e-1, 0.0, 0.0,
         5.18637242884406370830023853209, 1.09143734899672957818500254654,
         -8.14978701074692612513997267357,
         -1.85200656599969598641566180701e1,
         2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
         -3.0467644718982195003823669022),
        (2.27331014751653820792359768449, 0.0, 0.0,
         -1.05344954667372501984066689879e1,
         -2.00087205822486249909675718444,
         -1.79589318631187989172765950534e1,
         2.79488845294199600508499808837e1,
         -2.85899827713502369474065508674,
         -8.87285693353062954433549289258,
         1.23605671757943030647266201528e1,
         6.43392746015763530355970484046e-1),
        _B_DOP853,                       # FSAL: the stage at the step's end
    ),
    b=np.array(_B_DOP853 + (0.0,)),
    e5=np.array((
        0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
        -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
        0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
        0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
        -0.2235530786388629525884427845e-1, 0.0)),
    # b less the 3rd-order weights bhh at stages 0, 8 and 11
    e3=np.array(_B_DOP853 + (0.0,)) - np.array((
        0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.733846688281611857341361741547, 0.0, 0.0,
        0.220588235294117647058823529412e-1, 0.0)),
    fsal=True,
    q=7,
)

_C, _B = _DOP853.c, _DOP853.b
_A = [np.array(row) for row in _DOP853.a]
_STAGES = len(_C)
# the stages that enter y_{n+1}; the last one, FSAL, enters only the error
_WEIGHTED = int(np.flatnonzero(_B)[-1]) + 1
# the stages a record keeps: they rebuild the points of the weighted ones
_RECORDED = _WEIGHTED - 1
# _A_ROWS[i, l] = a_li, the weight of stage i in stage l > i
_A_ROWS = np.zeros((_WEIGHTED, _WEIGHTED))
for _l in range(1, _WEIGHTED):
    _A_ROWS[:_l, _l] = _A[_l]

_SAFETY = 0.9
_ALPHA = 0.7 / (_DOP853.q + 1)  # PI controller: proportional exponent
_BETA = 0.4 / (_DOP853.q + 1)   # PI controller: integral exponent
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_H_INIT = 1e-3    # first trial step of every segment
_H_MIN = 1e-14    # below this step size a segment gives up
_FOLD_BLOCK = 256  # steps per fold: bounds its arrays on many lanes


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances and step budget for the adaptive integrator."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-8
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class PiecewiseOde:
    """ODE whose right-hand side is selected by the active segment.

    ``segments`` is the ordered breakpoint list; segment j spans
    [segments[j], segments[j+1]] and ``rhs(j, t, x)`` is only evaluated
    with t inside that closed interval.

    ``segments`` of shape (nseg+1, B) describes B lanes for
    ``integrate_lanes``: column b holds lane b's breakpoints, and
    ``rhs`` takes t of shape (B,) and states of shape (dim, B).
    """

    dim: int
    segments: Sequence[float]
    rhs: Callable[[int, float, np.ndarray], np.ndarray]

    def __post_init__(self):
        seg = np.asarray(self.segments, dtype=float)
        if seg.ndim not in (1, 2) or len(seg) < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.diff(seg, axis=0) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "segments", seg)


@dataclass
class DenseTrajectory:
    """Integration output: samples plus segment-boundary states.

    ``step_times`` holds the times of the nodes, each accepted step's
    start and each segment's end; the samples at ``sample_times`` are taken
    by ``sample_states``.  ``steps`` counts the step attempts (accepted,
    rejected and non-finite) charged against ``IntegratorSettings.max_steps``.

    ``records[j]`` holds segment j's N accepted steps as arrays (t, h, y,
    K) of shapes (N,), (N,), (N, dim), (N, _RECORDED, dim): step n starts
    at (t[n], y[n]) with length h[n], and K[n] holds its first _RECORDED
    stages, K[n, 0] = rhs(j, t[n], y[n]), which rebuild the points of all
    the stages that enter y_{n+1}.
    """

    sample_times: np.ndarray
    sample_states: np.ndarray
    breakpoint_states: list[np.ndarray]
    steps: int = 0
    step_times: np.ndarray = field(repr=False, default=None)
    records: list = field(repr=False, default=None)


def _error_norm(h, k, scale):
    """The error norm of steps of length h with stages k, (stages, dim), or
    on B lanes h (B,) and k (B, stages, dim), for the error weights
    ``scale`` of the states' shape: |h| err5^2 / sqrt(dim (err5^2 + 0.01
    err3^2)), err5 and err3 the squared weighted 2-norms of the 5th- and
    3rd-order estimates (Hairer, Norsett & Wanner, section II.10).  Both
    loops call it, so that a lane's norm is its scalar loop's.
    """
    err5 = np.add.reduce(np.square((_DOP853.e5 @ k) / scale), axis=-1)
    err3 = np.add.reduce(np.square((_DOP853.e3 @ k) / scale), axis=-1)
    den = err5 + 0.01 * err3
    return np.abs(h) * err5 / np.sqrt(np.where(den > 0.0, den, 1.0)
                                      * scale.shape[-1])


def _integrate_segment(rhs, j, t0, t1, y0, settings, budget):
    """Integrate dy/dt = rhs(j, t, y) over [t0, t1].

    Returns (y_end, steps_used, record), the record of its N accepted
    steps as ``DenseTrajectory`` holds it.  No RHS call warns about overflow
    or division: an attempt with a non-finite stage or state, tested once
    after all its stages, halves the step, down to ``NonFiniteState`` at
    _H_MIN, and a non-finite first call raises it.
    """
    t, y = t0, np.array(y0, dtype=float)
    h = min(_H_INIT, t1 - t0)
    err_prev = 1.0
    steps = 0
    record = []
    k = np.empty((_STAGES, y.size))
    k_cols = [k[:i].T for i in range(_STAGES)]
    abs_y = np.abs(y)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = rhs(j, t, y)
        if not np.isfinite(k1).all():
            raise NonFiniteState(f"non-finite derivative at t={t}")

        while t < t1:
            if steps >= budget:
                raise StepLimitExceeded(f"exceeded {settings.max_steps} steps")
            clipped = h >= t1 - t
            h_try = t1 - t if clipped else h

            k[0] = k1
            for i in range(1, _STAGES):
                k[i] = rhs(j, t + _C[i] * h_try,
                           y + h_try * (k_cols[i] @ _A[i]))
            y_new = y + h_try * (_B @ k)

            steps += 1
            if not (np.isfinite(k[1:]).all() and np.isfinite(y_new).all()):
                h = 0.5 * h_try
                if h < _H_MIN:
                    raise NonFiniteState(f"non-finite state near t={t}")
                continue

            abs_new = np.abs(y_new)
            err = float(_error_norm(h_try, k, settings.abs_tol
                                    + settings.rel_tol
                                    * np.maximum(abs_y, abs_new)))
            if err <= 1.0:
                K = k.copy()  # the next attempt overwrites k
                record.append((t, h_try, y, K[:_RECORDED]))
                t = t1 if clipped else t + h_try
                y, abs_y = y_new, abs_new
                k1 = K[-1]    # FSAL
                fac = _FAC_MAX if err == 0.0 else _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA
                err_prev = max(err, 1e-10)
                h = h_try * min(_FAC_MAX, max(_FAC_MIN, fac))
            else:
                fac = max(_FAC_MIN, _SAFETY * err ** (-_ALPHA))
                h = h_try * min(1.0, fac)
                if h < _H_MIN:
                    raise StepUnderflow(
                        f"step size {h:.3e} below h_min at t={t}; "
                        "the problem may be stiff or blowing up"
                    )
    return y, steps, tuple(np.array(a) for a in zip(*record))


def _segment_nodes(record, t_end, y_end):
    """(times, states) of the nodes of a scalar segment record: each
    step's start, then the end (t_end, y_end)."""
    t, _, y, _ = record
    return np.append(t, t_end), np.vstack((y, y_end))


def _node_before(times, sample_times):
    """(n, off): the index of the last of the sorted node ``times`` at or
    before each sample time, and whether the sample lies past it."""
    n = np.searchsorted(times, sample_times, side="right") - 1
    return n, sample_times != times[n]


def _stage_point(y, h, k, i):
    """y + h sum_{l<i} a_il k_l, the point of stage i of steps from y over
    h, lane-major: y (M, dim), h (M,), k (M, >= i, dim)."""
    return y + h[:, None] * (k[:, :i].transpose(0, 2, 1) @ _A[i])


def _step(f, t, h, y):
    """One step of the method from (t, y) over h at M points at once,
    lane-major: t and h (M,), y (M, dim), and f maps t (M,) and states (M,
    dim) to (M, dim).  Returns the end state and the _WEIGHTED stages that
    enter it, (M, _WEIGHTED, dim); the FSAL stage is not evaluated."""
    k = np.empty(y.shape[:1] + (_WEIGHTED,) + y.shape[1:])
    k[:, 0] = f(t, y)
    for i in range(1, _WEIGHTED):
        k[:, i] = f(t + _C[i] * h, _stage_point(y, h, k, i))
    return y + h[:, None] * (_B[:_WEIGHTED] @ k), k


def sample_states(rhs, segments, records, breakpoint_states, sample_times):
    """The states at ``sample_times``, in the order given, of the
    integration with these segment records and breakpoint states.

    A sample takes the state of the last node at or before it, advanced
    by one step of the method to the sample, so it has the accuracy of the
    steps and there is no interpolant.  A sample at a node is that node's
    state; one at a breakpoint belongs to the segment that starts there.
    Each segment's samples are one batch: ``rhs(j, t, y)`` is called on
    lanes, t of shape (M,) and y of shape (dim, M).
    """
    sample_times = np.asarray(sample_times, dtype=float)
    if not np.all((sample_times >= segments[0])
                  & (sample_times <= segments[-1])):
        raise ValueError(f"sample times must lie in [{segments[0]}, "
                         f"{segments[-1]}]")
    seg = np.minimum(np.searchsorted(segments, sample_times, side="right")
                     - 1, len(records) - 1)
    out = np.empty((sample_times.size, np.size(breakpoint_states[0])))
    for j, record in enumerate(records):
        at = np.flatnonzero(seg == j)
        times, states = _segment_nodes(record, segments[j + 1],
                                       breakpoint_states[j + 1])
        n, off = _node_before(times, sample_times[at])
        out[at] = states[n]
        if off.any():
            a, n = at[off], n[off]
            out[a] = _step(lambda t, y: rhs(j, t, y.T).T, times[n],
                           sample_times[a] - times[n], states[n])[0]
    return out


def _integrate_segments(segment_loop, rhs, segments, y, settings):
    """Run ``segment_loop`` over each segment in turn under one
    ``max_steps`` budget.  Returns (breakpoint_states, steps, records)."""
    bp_states, records, used = [y], [], 0
    for j in range(len(segments) - 1):
        y, steps, record = segment_loop(
            rhs, j, segments[j], segments[j + 1], y, settings,
            settings.max_steps - used)
        used = used + steps
        bp_states.append(y)
        records.append(record)
    return bp_states, used, records


def integrate_piecewise(ode, x_start, *, settings=None, sample_times=None):
    """Integrate a piecewise ODE forward across all segments with hard
    restarts.

    The states are sampled at ``sample_times`` (default: the two ends of
    the interval) by ``sample_states``, which calls ``ode.rhs`` on lanes
    for samples between nodes, and breakpoint_states[i] is the state at
    ode.segments[i].
    """
    settings = settings or IntegratorSettings()
    x_start = np.asarray(x_start, dtype=float)
    if x_start.size != ode.dim:
        raise ValueError(f"x_start has dimension {x_start.size}, expected {ode.dim}")

    bp_states, used, records = _integrate_segments(
        _integrate_segment, ode.rhs, ode.segments, x_start.copy(), settings)

    samp_t = np.asarray([ode.segments[0], ode.segments[-1]]
                        if sample_times is None else sample_times, dtype=float)
    times = np.concatenate([_segment_nodes(*a)[0] for a in zip(
        records, ode.segments[1:], bp_states[1:])])
    return DenseTrajectory(
        sample_times=samp_t,
        sample_states=np.array([bp_states[0], bp_states[-1]])
        if sample_times is None else sample_states(
            ode.rhs, ode.segments, records, bp_states, samp_t),
        breakpoint_states=bp_states, steps=used, step_times=times,
        records=records)


def integrate_with_quadrature(ode, x_start, integrand, *, settings=None,
                              sample_times=None):
    """Integrate the ODE while accumulating a scalar quadrature state.

    Returns (trajectory, value) where value = integral of integrand(j, t, x)
    over the full interval.  The quadrature is one more component of the
    state and enters the error test like the others.  The gradient sweeps
    do not use it; the tests integrate the paper's dC/dT quadrature with
    it as an oracle.
    """
    def rhs(j, t, z):
        dx = ode.rhs(j, t, z[:-1])
        return np.concatenate((dx, np.reshape(integrand(j, t, z[:-1]),
                                              (1,) + np.shape(t))))

    aug = PiecewiseOde(dim=ode.dim + 1, segments=ode.segments, rhs=rhs)
    z0 = np.append(np.asarray(x_start, dtype=float), 0.0)
    traj = integrate_piecewise(aug, z0, settings=settings,
                               sample_times=sample_times)
    quad = traj.breakpoint_states[-1][-1]
    traj.sample_states = traj.sample_states[:, :-1]
    traj.breakpoint_states = [s[:-1] for s in traj.breakpoint_states]
    return traj, float(quad)


def _lane_error(kind, failing, message):
    """``kind`` for the lowest failing lane, its message from message(b)."""
    b = int(np.argmax(failing))
    return kind(f"lane {b}: {message(b)}")


def _integrate_lane_segment(rhs, j, t0, t1, y0, settings, budget):
    """``_integrate_segment`` for B lanes in lockstep.

    t0, t1 and budget have shape (B,) and y0 shape (dim, B).  Every lane
    applies the scalar rules with its own t, h, error history and budget.
    The stages are held lane-major, (B, stages, dim), so that each lane's
    tableau products are the scalar loop's own BLAS calls and its error
    norm the scalar loop's formula: given the same RHS values, a lane
    repeats its scalar integration bit for bit, which keeps step counts
    equal where the error estimate is rounding noise.  A lane that has
    reached t1 is frozen, trying steps of length 0, until all have.
    The first failure raises, naming its lane.  Returns (y_end,
    steps_used, record): the steps per lane, and the scalar loop's record
    with a lane axis after the step axis, over the I attempts in which
    some lane accepted a step: t and h (I, B), y (I, B, dim), K (I, B,
    _RECORDED, dim).  A lane that accepted none there has h = 0 and K = 0,
    so that its step folds to the identity even if it went non-finite.
    """
    def f(t, y):
        return rhs(j, t, y.T).T

    t, y = t0, np.array(y0.T, dtype=float)
    h = np.minimum(_H_INIT, t1 - t0)
    err_prev = np.ones(t.shape)
    steps = np.zeros(t.shape, dtype=int)
    record = []
    k = np.empty((t.size, _STAGES, y.shape[1]))
    active = t < t1

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = f(t, y)
        bad = ~np.isfinite(k1).all(axis=1)
        if bad.any():
            raise _lane_error(NonFiniteState, bad,
                              lambda b: f"non-finite derivative at t={t[b]}")

        while active.any():
            over = active & (steps >= budget)
            if over.any():
                raise _lane_error(StepLimitExceeded, over, lambda b:
                                  f"exceeded {settings.max_steps} steps")
            clipped = h >= t1 - t
            h_try = np.where(active, np.where(clipped, t1 - t, h), 0.0)

            k[:, 0] = k1
            for i in range(1, _STAGES):
                k[:, i] = f(t + _C[i] * h_try, _stage_point(y, h_try, k, i))
            y_new = y + h_try[:, None] * (_B @ k)
            failed = active & ~(np.isfinite(k[:, 1:]).all(axis=(1, 2))
                                & np.isfinite(y_new).all(axis=1))
            steps += active

            err = _error_norm(h_try, k, settings.abs_tol + settings.rel_tol
                              * np.maximum(np.abs(y), np.abs(y_new)))
            tested = active & ~failed
            accept = tested & (err <= 1.0)
            reject = tested & ~accept
            # float_power is the C pow of the scalar loop's float ** float
            shrink = _SAFETY * np.float_power(err, -_ALPHA)
            fac = np.where(err == 0.0, _FAC_MAX,
                           shrink * np.float_power(err_prev, _BETA))
            h = np.where(accept, h_try * np.minimum(
                _FAC_MAX, np.maximum(_FAC_MIN, fac)), h)
            h = np.where(reject, h_try * np.minimum(
                1.0, np.maximum(_FAC_MIN, shrink)), h)
            h = np.where(failed, 0.5 * h_try, h)
            if accept.any():
                record.append((t, np.where(accept, h_try, 0.0), y,
                               np.where(accept[:, None, None],
                                        k[:, :_RECORDED], 0.0)))

            t = np.where(accept, np.where(clipped, t1, t + h_try), t)
            y = np.where(accept[:, None], y_new, y)
            k1 = np.where(accept[:, None], k[:, -1], k1)   # FSAL
            err_prev = np.where(accept, np.maximum(err, 1e-10), err_prev)

            dead = (failed | reject) & (h < _H_MIN)
            if dead.any():
                b = int(np.argmax(dead))
                if failed[b]:
                    raise _lane_error(NonFiniteState, dead, lambda b:
                                      f"non-finite state near t={t[b]}")
                raise _lane_error(StepUnderflow, dead, lambda b: (
                    f"step size {h[b]:.3e} below h_min at t={t[b]}; "
                    "the problem may be stiff or blowing up"))
            active = t < t1
    return y.T, steps, tuple(np.array(a) for a in zip(*record))


def integrate_lanes(ode, y_start, settings=None):
    """Integrate the B lanes of ``ode`` forward in lockstep, segment by
    segment.

    ``ode.segments`` has shape (nseg+1, B) and ``y_start`` shape (dim, B).
    All lanes work on the same segment j, so every RHS call evaluates
    segment j's law for all of them, and the interpreter's cost per call
    is paid once per B lanes; within it each lane steps exactly as
    ``integrate_piecewise`` would, under its own ``max_steps`` budget.
    Returns (breakpoint_states, steps, records): breakpoint_states[i] is
    the (dim, B) state at ode.segments[i], steps the (B,) step attempts of
    each lane, and records[j] segment j's accepted steps as
    ``_integrate_lane_segment`` records them, (I, B) steps.
    """
    settings = settings or IntegratorSettings()
    y = np.array(y_start, dtype=float)
    if ode.segments.ndim != 2:
        raise ValueError("lanes need segments of shape (nseg+1, B)")
    if y.shape != (ode.dim, ode.segments.shape[1]):
        raise ValueError(f"y_start has shape {y.shape}, expected "
                         f"{(ode.dim, ode.segments.shape[1])}")
    return _integrate_segments(_integrate_lane_segment, ode.rhs,
                               ode.segments, y, settings)


def _stage_points(tau, h, y, K):
    """(times, points) of the _WEIGHTED stages of steps (tau, h, y, K),
    the step axis first, (N,), (N,), (N, d) and (N, >= _RECORDED, d), by
    the loops' own tableau products: shapes (N, _WEIGHTED) and (N,
    _WEIGHTED, d).  Stage 0's point is the step's start."""
    Y = np.empty(y.shape[:1] + (_WEIGHTED,) + y.shape[1:])
    Y[:, 0] = y
    for i in range(1, _WEIGHTED):
        Y[:, i] = _stage_point(y, h, K, i)
    return tau[:, None] + np.array(_C[:_WEIGHTED]) * h[:, None], Y


def _fold_steps(jacobian, T, tau, h, y, K):
    """D = G - I, h.shape + (d, d), for the transition matrices G =
    dz_{n+1}/dz_n of the steps of a record (tau, h, y, K) of any leading
    shape, of dz/dtau = T F(tau T, z), T broadcast against h.  The stage
    points are rebuilt by ``_stage_points``, _FOLD_BLOCK steps at a time,
    and jacobian(t, Y) gives dF/dz at their flat times t (M,) and points Y
    (M, d) as (M, d, d).

    Walking the stages back, P_i = b_i I + sum_{l>i} a_li Theta_l and
    Theta_i = h T P_i J_i; then D = sum_i Theta_i.  So the reverse pass's
    Lam_i = lam_{n+1} P_i and theta_i = lam_{n+1} Theta_i, and
    lam_n = lam_{n+1} + lam_{n+1} D.  D is kept apart from I so that its
    O(h) entries are not rounded against 1.  The stages past _WEIGHTED
    have weight 0 in z_{n+1}.  The recursion holds for any explicit
    Runge-Kutta method (Hager, Numer. Math. 87 (2000) 247-282).
    """
    shape, d, S = h.shape, y.shape[-1], _WEIGHTED
    T = np.broadcast_to(T, shape).reshape(-1)
    tau, h = tau.reshape(-1), h.reshape(-1)
    y, K = y.reshape(-1, d), K.reshape((-1,) + K.shape[-2:])
    D, eye = np.empty((h.size, d, d)), np.eye(d)
    for a in range(0, h.size, _FOLD_BLOCK):
        at = slice(a, a + _FOLD_BLOCK)
        hb, N = h[at], h[at].size
        t, Y = _stage_points(tau[at], hb, y[at], K[at])
        hTJ = (hb * T[at])[:, None, None, None] * jacobian(
            (t * T[at, None]).reshape(-1), Y.reshape(-1, d)).reshape(
                N, S, d, d)
        theta = np.zeros((S, N * d * d))
        for i in range(S - 1, -1, -1):
            P = (_A_ROWS[i] @ theta).reshape(N, d, d) + _B[i] * eye
            theta[i] = (P @ hTJ[:, i]).reshape(-1)
        D[at] = theta.sum(axis=0).reshape(N, d, d)
    return D.reshape(shape + (d, d))
