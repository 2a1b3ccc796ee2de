"""Prince & Dormand's 8th-order method, DOP853, on piecewise-smooth ODE
systems.

The right-hand side may change discontinuously at a known, ordered list of
breakpoints.  Integration is hard-restarted at every breakpoint: no accepted
step straddles a segment boundary and the step-size controller is reset, so
eighth-order accuracy is retained on each smooth piece.  Each segment's
first trial step is Hairer & Wanner's estimate from its first RHS value and
one probe call, so that its attempts do not climb to the step the error
test takes from a fixed small start.

The module holds the whole method, whose coefficients no other module
reads: the scalar loop, the lockstep loop of B lanes, ``sample_states``,
each sample one step of the method from the node before it, and the fold
of accepted steps into the transition matrices of the reverse pass.
``integrate_piecewise`` runs the loop that the breakpoints' shape picks.
Both loops hold a step as Z = [y; h s k_0; ..], whose products give each
stage point, the new state and the error estimates, record a segment's
accepted steps as arrays (t, h, y, K), the step axis first, test each
attempt's new state once and share one starting step and one error norm,
which a point of dim < _IN_ORDER takes on Python floats, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .exceptions import NonFiniteState, StepLimitExceeded, StepUnderflow

__all__ = [
    "IntegratorSettings",
    "PiecewiseOde",
    "DenseTrajectory",
    "integrate_piecewise",
    "sample_states",
]


# Prince & Dormand's RK8(7)13M in Hairer's DOP853 form, with its 5th/3rd-
# order error estimator: Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, 2nd ed., Springer 1993, section II.10; Prince &
# Dormand, J. Comput. Appl. Math. 7 (1981) 67-75.  12 stages plus FSAL.
#
# Stage i of a step of length h from (t, y) is k_i = f(t + c_i h, y +
# h sum_{l<i} a_il k_l), _A[i] holding a_i0 .. a_i,i-1, and the step ends
# at y + h sum_i b_i k_i.  The last stage, whose row of _A is b, is the
# derivative at the step's end, weighted 0 in it, and serves as the next
# step's first (FSAL).  _E5 and _E3 weight the stages into the error
# estimates of orders 5 and 3 that ``_error_norm`` combines into one of
# order _Q, which sets the controller's exponents.
_C = (0.0, 0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510, 0.281649658092772603273242802490,
      0.333333333333333333333333333333, 0.25,
      0.307692307692307692307692307692, 0.651282051282051282051282051282,
      0.6, 0.857142857142857142857142857142, 1.0, 1.0)
_B = np.array((
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2, 0.0))
_A = [np.array(row) for row in (
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
    _B[:-1],                     # FSAL: the stage at the step's end
)]
_E5 = np.array((
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0))
# b less the 3rd-order weights bhh at stages 0, 8 and 11
_E3 = _B - np.array((
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0,
    0.220588235294117647058823529412e-1, 0.0))
_Q = 7  # order of the combined error estimate
_STAGES = len(_C)
# the stages that enter y_{n+1}; the last one, FSAL, enters only the error
_WEIGHTED = int(np.flatnonzero(_B)[-1]) + 1
# the stages a record keeps: they rebuild the points of the weighted ones
_RECORDED = _WEIGHTED - 1
# the weights on Z of the stage points, the new state and the error estimates
_A1 = [np.append(1.0, row) for row in _A]
_B1 = np.append(1.0, _B)
_ERR = np.vstack((_E5, _E3))
# _A_ROWS[i, l] = a_li, the weight of stage i in stage l > i
_A_ROWS = np.zeros((_WEIGHTED, _WEIGHTED))
for _l in range(1, _WEIGHTED):
    _A_ROWS[:_l, _l] = _A[_l]

_SAFETY = 0.9
_ALPHA = 0.7 / (_Q + 1)  # PI controller: proportional exponent
_BETA = 0.4 / (_Q + 1)   # PI controller: integral exponent
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_H_MIN = 1e-14    # below this step size a segment gives up
_FOLD_BLOCK = 256  # steps per fold: bounds its arrays on many lanes
# np.add.reduce adds fewer terms than this in order, and more in 8 partial
# sums; a point of fewer components takes its norms on Python floats
_IN_ORDER = 8


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances and step budget for the adaptive integrator."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-8
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if type(self.max_steps) is bool or not isinstance(
                self.max_steps, (int, np.integer)) or self.max_steps < 1:
            raise ValueError("max_steps must be an integer >= 1")


@dataclass(frozen=True)
class PiecewiseOde:
    """dx/dt = scale rhs(j, t, x), the RHS selected by the active segment.

    ``segments`` is the ordered breakpoint list; segment j spans
    [segments[j], segments[j+1]] and ``rhs(j, t, x)`` is only evaluated
    with t inside that closed interval.  The positive ``scale`` enters the
    steps' stage increments, not each RHS value.

    ``segments`` of shape (nseg+1, B) describes B lanes, stepped in
    lockstep: column b holds lane b's breakpoints, ``scale`` is a float or
    (B,), and ``rhs`` takes t of shape (B,) and states of shape (dim, B),
    as in ``gradients.forward_sweep`` of a list of configurations.
    """

    dim: int
    segments: Sequence[float]
    rhs: Callable[[int, float, np.ndarray], np.ndarray]
    scale: float | np.ndarray = 1.0

    def __post_init__(self):
        seg, scale = np.asarray(self.segments, dtype=float), self.scale
        if seg.ndim not in (1, 2) or len(seg) < 2:
            raise ValueError("need at least two breakpoints")
        if seg.ndim == 1 and isinstance(scale, float):
            # one integration: the same tests on Python floats, where a
            # comparison with NaN is false as it is in NumPy
            pts = seg.tolist()
            increasing = all(a < b for a, b in zip(pts, pts[1:]))
            scale_ok = 0.0 < scale < math.inf
        else:
            increasing = np.all(np.diff(seg, axis=0) > 0)
            scale_ok = np.shape(scale) in ((), seg.shape[1:]) and np.all(
                np.isfinite(scale) & np.greater(scale, 0))
        if not increasing:
            raise ValueError("breakpoints must be strictly increasing")
        if not scale_ok:
            raise ValueError("scale must be finite, positive and per lane")
        object.__setattr__(self, "segments", seg)


@dataclass
class DenseTrajectory:
    """Integration output: segment-boundary states and accepted steps.

    ``step_times`` holds the times of the nodes, each accepted step's
    start and each segment's end, taken from the records and ``segments``,
    the breakpoints, when first read (and settable, as any attribute);
    ``sample_states`` takes states between them from the records.
    ``steps`` counts the step attempts (accepted, rejected and non-finite)
    charged against ``IntegratorSettings.max_steps``.

    ``records[j]`` holds segment j's N accepted steps as arrays (t, h, y,
    K) of shapes (N,), (N,), (N, dim), (N, _RECORDED, dim): step n starts
    at (t[n], y[n]) with length h[n], and K[n] holds the increments of its
    first _RECORDED stages, K[n, 0] = h[n] scale rhs(j, t[n], y[n]), which
    rebuild the points of all the stages that enter y_{n+1}.

    On B lanes the states are (dim, B), ``steps`` (B,), ``step_times``
    (nodes, B) and ``records[j]`` the lockstep loop's record, t and h (I,
    B), y (I, B, dim), K (I, B, _RECORDED, dim), over segment j's I
    iterations in which some lane accepted a step.
    """

    breakpoint_states: list[np.ndarray]
    steps: int | np.ndarray = 0
    records: list = field(repr=False, default=None)
    segments: np.ndarray = field(repr=False, default=None)

    @cached_property
    def step_times(self):
        """The node times, each record's t and then its segment's end."""
        return np.concatenate([v for record, end in zip(
            self.records, self.segments[1:]) for v in (record[0], end[None])])


def _error_norm(dk, weights):
    """The error norm of steps with stage increments dk = h s k, (stages,
    dim), or on B lanes (B, stages, dim), for error weights of the states'
    shape: err5^2 / sqrt(dim (err5^2 + 0.01 err3^2)), err5 and err3 the
    squared weighted 2-norms of the 5th- and 3rd-order estimates (E5; E3)
    dk, which carry the factor |h| (Hairer, Norsett & Wanner, II.10).
    Both loops call it, so that a lane's norm is its scalar loop's; den +
    (den == 0) is den, or 1 at den = 0.

    A point of dim < _IN_ORDER, its weights a list or an array, takes
    the rest after the product (E5; E3) dk on Python floats, adding the
    squares in order as ``np.add.reduce`` does, bit-equal to its lane
    (``test_error_norm_of_a_point_is_its_lane``).  Its divisors are
    positive or NaN, so they raise nothing.
    """
    if dk.ndim == 2 and dk.shape[1] < _IN_ORDER:
        err5 = err3 = 0.0
        for e5, e3, w in zip(*(_ERR @ dk).tolist(), weights):
            e5, e3 = e5 / w, e3 / w
            err5 += e5 * e5
            err3 += e3 * e3
        den = err5 + 0.01 * err3
        return err5 / math.sqrt((den if den != 0.0 else 1.0) * len(weights))
    weights = np.asarray(weights)
    err = np.square((_ERR @ dk) / weights[..., None, :])
    err5, err3 = np.add.reduce(err, axis=-1).T
    den = err5 + 0.01 * err3
    return err5 / np.sqrt((den + (den == 0.0)) * weights.shape[-1])


def _sum_sq(xs):
    """The sum of squares of the floats xs, added in order: not ``sum``,
    which compensates float sums from Python 3.12 on."""
    total = 0.0
    for x in xs:
        total += x * x
    return total


def _start_step(probe, y, f0, span, settings):
    """The first trial step of a segment from y with derivative f0, on a
    point, y (dim,), or on B lanes, y (B, dim), where span is the segment's
    length: Hairer & Wanner's estimate (Solving ODEs I, section II.4, as
    DOP853's HINIT computes it).  With sums of squares of y and f0 weighted
    by abs_tol + rel_tol |y|, h0 = 0.01 sqrt(sum y^2 / sum f0^2), or 1e-6
    where either sum is below 1e-10, and at most span; probe(h0) is the
    RHS at the Euler step over h0, which gives a second derivative d2, and
    h1 = (0.01 / max(d2, sqrt(sum f0^2)))^(1 / (_Q + 1)).  The step is
    min(100 h0, h1, span).  A non-finite probe keeps h0, for the attempts
    to halve, and a step below _H_MIN, or 0 or NaN from an overflowing
    sum, is raised to _H_MIN.  Both loops call it, so that a lane's start
    is its scalar loop's.

    A point of dim < _IN_ORDER takes it on Python floats, with sums in
    NumPy's order and ``**`` for ``np.float_power`` (both the C pow).
    ``min`` and ``max`` keep a NaN first argument, as NumPy's keep any, so
    that argument comes first: span is never NaN, and sqrt(dnf) only where
    d2 is.  A quotient by h0 = 0 is NumPy's, not ``ZeroDivisionError``.
    ``test_start_step_of_a_point_is_its_lane`` and its extreme-value twin
    check it against the lanes bit for bit.
    """
    if y.ndim == 1 and y.size < _IN_ORDER:
        tols = [settings.abs_tol + settings.rel_tol * abs(v)
                for v in y.tolist()]
        f0 = f0.tolist()
        dnf = _sum_sq(f / s for f, s in zip(f0, tols))
        dny = _sum_sq(v / s for v, s in zip(y.tolist(), tols))
        h0 = min(1e-6 if dnf <= 1e-10 or dny <= 1e-10
                 else 0.01 * math.sqrt(dny / dnf), span)
        f1 = probe(h0).tolist()
        d2 = math.sqrt(_sum_sq((a - b) / s for a, b, s in zip(f1, f0, tols)))
        d2 = d2 / h0 if h0 != 0.0 else math.inf if d2 > 0.0 else math.nan
        d12 = max(d2, math.sqrt(dnf))
        h1 = max(1e-6, 1e-3 * h0) if d12 <= 1e-15 \
            else (0.01 / d12) ** (1.0 / (_Q + 1))
        h = min(min(h1, 100.0 * h0), span) \
            if all(map(math.isfinite, f1)) else h0
        return h if h >= _H_MIN else _H_MIN

    def sum_sq(x):  # C order: a lane's sum takes its point's order of terms
        return np.add.reduce(np.square(x, order="C"), axis=-1)

    scale = settings.abs_tol + settings.rel_tol * np.abs(y)
    dnf, dny = sum_sq(f0 / scale), sum_sq(y / scale)
    h0 = np.minimum(np.where((dnf <= 1e-10) | (dny <= 1e-10), 1e-6,
                             0.01 * np.sqrt(dny / dnf)), span)
    f1 = probe(h0)
    d2 = np.sqrt(sum_sq((f1 - f0) / scale)) / h0
    d12 = np.maximum(d2, np.sqrt(dnf))
    h1 = np.where(d12 <= 1e-15, np.maximum(1e-6, 1e-3 * h0),
                  np.float_power(0.01 / d12, 1.0 / (_Q + 1)))
    h = np.where(np.isfinite(f1).all(axis=-1),
                 np.minimum(np.minimum(100.0 * h0, h1), span), h0)
    return np.where(h >= _H_MIN, h, _H_MIN)


def _stage_views(dim):
    """(Z, stages): the buffer Z = [y; h s k_0; ..] of a scalar step, and
    for each stage i >= 1 its (c_i, Z[:i + 1].T, [1; a_i], Z[i + 1]), the
    views whose product is its point and where its increment goes.  One
    integration builds them once for all its segments; a buffer of its
    own, so that integrations in other threads, or nested in an RHS, share
    none."""
    Z = np.empty((_STAGES + 1, dim))
    return Z, [(_C[i], Z[:i + 1].T, _A1[i], Z[i + 1])
               for i in range(1, _STAGES)]


def _integrate_segment(rhs, j, t0, t1, y0, settings, budget, scale, work):
    """Integrate dy/dt = scale rhs(j, t, y) over [t0, t1], in the buffer
    and stage views ``work`` of ``_stage_views``.

    Returns (y_end, steps_used, record), the record of its N accepted
    steps as ``DenseTrajectory`` holds it.  The first attempt's step is
    ``_start_step``'s, from the first RHS call and one probe call, which
    is no attempt and no stage of one.  No RHS call warns about overflow
    or division: an attempt with a non-finite new state, tested once after
    all its stages, halves the step, down to ``NonFiniteState`` at _H_MIN,
    and a non-finite first call raises it.  Every stage enters that state:
    0 inf and 0 NaN are NaN in ``_B1.dot(Z)``, whose bits are ``@``'s.

    Besides the stage products it works on Python floats, which round as
    float64 does: its clock, and one ``tolist`` of each new state for the
    finiteness test and then the error weights.  A lane repeats it bit
    for bit (``test_decoupled_lane_repeats_the_scalar_loop``).
    """
    t, t1, scale = float(t0), float(t1), float(scale)
    y = np.array(y0, dtype=float)
    err_prev = 1.0
    steps = 0
    t_rec, h_rec, y_rec, K_rec = [], [], [], []
    Z, stages = work
    abs_y = np.abs(y).tolist()
    abs_tol, rel_tol = settings.abs_tol, settings.rel_tol

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = rhs(j, t, y)
        if not all(map(math.isfinite, k1.tolist())):
            raise NonFiniteState(f"non-finite derivative at t={t}")
        sf = scale * k1
        h = float(_start_step(lambda h0: scale * rhs(j, t + h0, y + h0 * sf),
                              y, sf, t1 - t, settings))

        while t < t1:
            if steps >= budget:
                raise StepLimitExceeded(f"exceeded {settings.max_steps} steps")
            clipped = h >= t1 - t
            h_try = t1 - t if clipped else h

            hs, Z[0] = h_try * scale, y
            np.multiply(k1, hs, Z[1])
            for c, columns, a, dk in stages:
                fsal = rhs(j, t + c * h_try, columns.dot(a))
                np.multiply(fsal, hs, dk)
            y_new = _B1.dot(Z)

            steps += 1
            new = y_new.tolist()
            if not all(map(math.isfinite, new)):
                h = 0.5 * h_try
                if h < _H_MIN:
                    raise NonFiniteState(f"non-finite state near t={t}")
                continue

            # y and y_new are finite here, so max is np.maximum
            abs_new = [abs(v) for v in new]
            err = float(_error_norm(Z[1:], [
                abs_tol + rel_tol * max(a, b) for a, b in zip(abs_y, abs_new)]))
            if err <= 1.0:
                t_rec.append(t)
                h_rec.append(h_try)
                y_rec.append(y)
                K_rec.append(Z[1:_RECORDED + 1].copy())
                t = t1 if clipped else t + h_try
                y, abs_y, k1 = y_new, abs_new, fsal   # FSAL
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
    return y, steps, tuple(map(np.array, (t_rec, h_rec, y_rec, K_rec)))


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


def _stage_point(Z, i):
    """y + sum_{l<i} a_il dk_l, the point of stage i of steps Z = [y; dk_0;
    ..], lane-major (M, > i, dim), by the loops' product."""
    return Z[:, :i + 1].transpose(0, 2, 1) @ _A1[i]


def _step(rhs, j, t, h, y, scale):
    """One step of dy/dt = scale rhs(j, t, y) from (t, y) over h at M points
    at once: t and h (M,), y (M, dim), and rhs takes t (M,) and states (dim,
    M).  Returns the end state and the increments of the _WEIGHTED stages
    that enter it, (M, _WEIGHTED, dim); the FSAL stage is not evaluated."""
    Z = np.empty(y.shape[:1] + (_WEIGHTED + 1,) + y.shape[1:])
    Z[:, 0], hs = y, (h * scale)[:, None]
    np.multiply(rhs(j, t, y.T).T, hs, Z[:, 1])
    for i, c in enumerate(_C[1:_WEIGHTED], 1):
        np.multiply(rhs(j, t + c * h, _stage_point(Z, i).T).T, hs, Z[:, i + 1])
    return _B1[:_WEIGHTED + 1] @ Z, Z[:, 1:]


def sample_states(rhs, segments, records, breakpoint_states, sample_times,
                  scale=1.0):
    """The states at ``sample_times``, in the order given, of dy/dt = scale
    rhs(j, t, y) integrated with these records and breakpoint states.

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
            out[a] = _step(rhs, j, times[n], sample_times[a] - times[n],
                           states[n], scale)[0]
    return out


def integrate_piecewise(ode, x_start, *, settings=None):
    """Integrate a piecewise ODE forward across all segments with hard
    restarts under one ``max_steps`` budget; breakpoint_states[i] is the
    state at ode.segments[i].  Breakpoints of shape (nseg+1,) run the
    scalar loop on a (dim,) start, and of shape (nseg+1, B) the lockstep
    loop on a (dim, B) start: each RHS call serves all B lanes, and each
    lane steps as its scalar integration would, under its own budget.
    """
    settings = settings or IntegratorSettings()
    segments, y = ode.segments, np.array(x_start, dtype=float)
    if y.shape != (ode.dim,) + segments.shape[1:]:
        raise ValueError(f"x_start has shape {y.shape}, expected "
                         f"{(ode.dim,) + segments.shape[1:]}")
    if segments.ndim == 1:
        loop, work = _integrate_segment, _stage_views(ode.dim)
    else:
        loop = _integrate_lane_segment
        work = np.empty((segments.shape[1], _STAGES + 1, ode.dim))

    bp_states, records, used = [y], [], 0
    for j in range(len(segments) - 1):
        y, steps, record = loop(ode.rhs, j, *segments[j:j + 2], y, settings,
                                settings.max_steps - used, ode.scale, work)
        used = used + steps
        bp_states.append(y)
        records.append(record)
    return DenseTrajectory(breakpoint_states=bp_states, steps=used,
                           records=records, segments=segments)


def integrate_with_quadrature(ode, x_start, integrand, *, settings=None):
    """Integrate the ODE while accumulating a scalar quadrature state.

    Returns (trajectory, value) where value = integral of ode.scale
    integrand(j, t, x) over the full interval.  The quadrature is one more
    component of the state and enters the error test like the others.  The
    gradient sweeps do not use it; the tests integrate the paper's dC/dT
    quadrature with it as an oracle.
    """
    def rhs(j, t, z):
        dx = ode.rhs(j, t, z[:-1])
        return np.concatenate((dx, np.reshape(integrand(j, t, z[:-1]),
                                              (1,) + np.shape(t))))

    aug = replace(ode, dim=ode.dim + 1, rhs=rhs)
    z0 = np.append(np.asarray(x_start, dtype=float), 0.0)
    traj = integrate_piecewise(aug, z0, settings=settings)
    quad = traj.breakpoint_states[-1][-1]
    traj.breakpoint_states = [s[:-1] for s in traj.breakpoint_states]
    return traj, float(quad)


def _lane_error(kind, failing, message):
    """``kind`` for the lowest failing lane, its message from message(b)."""
    b = int(np.argmax(failing))
    return kind(f"lane {b}: {message(b)}")


def _integrate_lane_segment(rhs, j, t0, t1, y0, settings, budget, scale, Z):
    """``_integrate_segment`` for B lanes in lockstep.

    t0, t1, budget and scale have shape (B,) and y0 shape (dim, B).  Every
    lane applies the scalar rules with its own t, h, error history and
    budget.  The integration's step buffer Z is lane-major, (B, 1 +
    stages, dim), so that a lane's products are the scalar loop's BLAS
    calls: given the same RHS values, a lane repeats its scalar
    integration bit for bit, which keeps step counts equal where the error
    estimate is rounding noise.  A lane that has
    reached t1 is frozen, trying steps of length 0, until all have.
    The first failure raises, naming its lane.  Returns (y_end,
    steps_used, record): the steps per lane, and the record of
    ``DenseTrajectory`` on lanes, over the I attempts in which some lane
    accepted a step.  A lane that accepted none there has h = 0 and K = 0,
    so that its step folds to the identity even if it went non-finite.
    """
    def f(t, y):
        return rhs(j, t, y.T).T

    t, y = t0, np.array(y0.T, dtype=float)
    err_prev = np.ones(t.shape)
    steps = np.zeros(t.shape, dtype=int)
    record = []
    scale = np.broadcast_to(scale, t.shape)[:, None]
    active = t < t1

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = f(t, y)
        bad = ~np.isfinite(k1).all(axis=1)
        if bad.any():
            raise _lane_error(NonFiniteState, bad,
                              lambda b: f"non-finite derivative at t={t[b]}")
        sf = scale * k1
        h = _start_step(lambda h0: scale * f(t + h0, y + h0[:, None] * sf),
                        y, sf, t1 - t0, settings)

        while active.any():
            over = active & (steps >= budget)
            if over.any():
                raise _lane_error(StepLimitExceeded, over, lambda b:
                                  f"exceeded {settings.max_steps} steps")
            clipped = h >= t1 - t
            h_try = np.where(active, np.where(clipped, t1 - t, h), 0.0)

            hs, Z[:, 0] = h_try[:, None] * scale, y
            np.multiply(k1, hs, out=Z[:, 1])
            for i in range(1, _STAGES):
                fsal = f(t + _C[i] * h_try, _stage_point(Z, i))
                np.multiply(fsal, hs, out=Z[:, i + 1])
            y_new = _B1 @ Z
            failed = active & ~np.isfinite(y_new).all(axis=1)
            steps += active

            err = _error_norm(Z[:, 1:], settings.abs_tol + settings.rel_tol
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
                                        Z[:, 1:_RECORDED + 1], 0.0)))

            t = np.where(accept, np.where(clipped, t1, t + h_try), t)
            y = np.where(accept[:, None], y_new, y)
            k1 = np.where(accept[:, None], fsal, k1)   # FSAL
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


def _stage_points(tau, h, y, K):
    """(times, points) of the _WEIGHTED stages of steps (tau, h, y, K),
    the step axis first, (N,), (N,), (N, d) and (N, >= _RECORDED, d), by
    the loops' own tableau products: shapes (N, _WEIGHTED) and (N,
    _WEIGHTED, d).  Stage 0's point is the step's start."""
    Z = np.concatenate((y[:, None], K[:, :_RECORDED]), axis=1)
    Y = np.stack([y] + [_stage_point(Z, i) for i in range(1, _WEIGHTED)], 1)
    return tau[:, None] + np.array(_C[:_WEIGHTED]) * h[:, None], Y


def _fold_steps(jacobian, T, records):
    """D = G - I for the transition matrices G = dz_{n+1}/dz_n of the steps
    of a sweep's segment records (t, h, y, K), of N steps or of (I, B) on B
    lanes, of dz/dt = T F_j(t T, z), T broadcast against h: the segments'
    steps in turn, (steps,) + lanes + (d, d).  The stage points are rebuilt
    by ``_stage_points`` in blocks of at most _FOLD_BLOCK steps of one
    segment, from the last segment to the first, and jacobian(j, t, Y)
    gives segment j's dF/dz at their flat times t (M,) and points Y (M, d)
    as (M, d, d).  ``_A_ROWS[i] @ theta`` rounds by the block's size, so
    blocks that never cross a breakpoint keep each segment's bits.

    Walking the stages back, P_i = b_i I + sum_{l>i} a_li Theta_l and
    Theta_i = h T P_i J_i; then D = sum_i Theta_i.  So the reverse pass's
    Lam_i = lam_{n+1} P_i and theta_i = lam_{n+1} Theta_i, and
    lam_n = lam_{n+1} + lam_{n+1} D.  D is kept apart from I so that its
    O(h) entries are not rounded against 1.  The stages past _WEIGHTED
    have weight 0 in z_{n+1}.  The recursion holds for any explicit
    Runge-Kutta method (Hager, Numer. Math. 87 (2000) 247-282).
    """
    d, S, folds = records[0][2].shape[-1], _WEIGHTED, []
    eye = np.eye(d)
    for j in range(len(records) - 1, -1, -1):
        shape = records[j][1].shape
        M, Ts = math.prod(shape), np.broadcast_to(T, shape).reshape(-1)
        tau, h, y, K = (v.reshape((M,) + v.shape[len(shape):])
                        for v in records[j])
        D = np.empty((M, d, d))
        for a in range(0, M, _FOLD_BLOCK):
            at = slice(a, a + _FOLD_BLOCK)
            hb, N = h[at], h[at].size
            t, Y = _stage_points(tau[at], hb, y[at], K[at])
            hTJ = (hb * Ts[at])[:, None, None, None] * jacobian(
                j, (t * Ts[at, None]).reshape(-1),
                Y.reshape(-1, d)).reshape(N, S, d, d)
            theta = np.zeros((S, N * d * d))
            for i in range(S - 1, -1, -1):
                P = (_A_ROWS[i] @ theta).reshape(N, d, d) + _B[i] * eye
                theta[i] = (P @ hTJ[:, i]).reshape(-1)
            D[at] = theta.sum(axis=0).reshape(N, d, d)
        folds.insert(0, D.reshape(shape + (d, d)))
    return np.concatenate(folds)
