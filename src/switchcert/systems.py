"""Switched systems and trajectory integration.

A switched system pairs a finite family of vector fields with a closed
covering of the state space: region gamma is {x : b_gamma(x) <= 0} for a
continuous signed boundary function b_gamma, so closedness is structural
and membership margins are available for compliance checking and event
location (b == -1 encodes the whole space).

Integration is piecewise: switch times are mandatory mesh points, and
each constancy interval is one mode run (:func:`_run_mode`), a step loop
fed by one of two step sources.  A mode whose field is a
:class:`LinearField`, declared by its matrix A, follows its exact flow
x(t0 + s) = e^{A s} x(t0) by propagator steps x_(k+1) = e^{A h} x_k,
one e^{A h} per run and one for its last, shorter step
(:func:`_linear_steps`), and calls no field.  h keeps ||A|| h at most
1/2 and the planned chord at 0.95 max_dx, so no exponential needs
scaling and squaring: each propagator is one polynomial over the field's
Taylor stack (:attr:`LinearField.taylor`), within eps / 3 of e^{A h}.
Every other mode is stepped by switchcert's own adaptive DOP853, the
Dormand-Prince 8(5,3) pair with its 7th-order dense output (Hairer,
Norsett & Wanner, *Solving ODEs I*, II.4-II.6; :func:`_dop853_steps`),
whose tableau, steps and samples equal ``scipy.integrate.DOP853``'s to
the bit.  The first DOP853 interval of a prescribed signal and every
interval of a feedback run select an initial step; each later DOP853
interval of a prescribed signal starts from the step size the last
DOP853 run proposed, across any linear runs between, at most its own
length, which is scipy's ``first_step``.

The mode run treats every step's end alike, whichever source made it:
it counts the step, applies the state guards and, under state-feedback
switching, locates a region crossing by the Illinois variant of regula
falsi on the active boundary (:func:`_locate_crossing`) over the step's
interpolant, DOP853's dense output (three field calls) or the
propagator step's Taylor polynomial.  The same interpolant
subdivides a step until consecutive samples differ by at most
``max_dx``, and is built only for a step that is split or crossed.  It
returns a list of Python floats, and a chord is measured by
``math.dist``, or by np.linalg.norm's value within 1e-9 of max_dx, so
sampling makes no numpy call per sample.

:func:`advance_starts` steps many starts of one mode over one window
together, so that every row takes the steps :func:`integrate` would
take for it alone: the propagator steps of a linear mode as one
elementwise pass over the stack, any other mode as rows of one DOP853.
That batch shares the step loop's rules, one initial step selection
(:func:`_starting_steps`) and one finiteness test of an attempt's
stages, and keeps its own stage sums and controller (:func:`_control_rows`),
whole-array passes with each power a libm ``pow`` per row.  Both kinds
of mode share one row guard (:func:`_guard_rows`), the mode run's state
guards on every row.  It samples accepted steps only and has no
interpolant.  Each trajectory of :func:`integrate` and
:func:`integrate_feedback` builds its stage array once and shares it
among its constancy intervals.

Scenario functions are row-wise: a vector field, covering boundary,
Lyapunov value or gradient, or output takes one state (n,) or a stack
(k, n) of states and returns the per-row results, each equal to the
per-point call's to the last bit.  :func:`evaluate_rows` is the one way
the batched callers (the probe's advance, the sampled checks and the
trajectory export) check them; it compares the first and last rows with
per-point calls and raises :class:`TypeError` for a function written
for one state only.  The probe's advance makes that check once for each
stack shape it meets, not at every stage.  The integrator's right-hand
side, crossing location and feedback rules call them per point.

Solution blow-up surfaces as :class:`FiniteEscapeError` with an escape
time estimate; step-size collapse as :class:`StiffnessError`; feedback
rules that switch more than ``max_switches`` times as
:class:`ChatteringError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from typing import Callable, Mapping, Sequence

import numpy as np

from .reports import (CheckReport, distinct, reduce_via_constructor, require_ranges, verdict,
                      write_rows)
from .signals import ModeSet, SwitchingSignal

VectorField = Callable[[np.ndarray], np.ndarray]
BoundaryFn = Callable[[np.ndarray], float]


class FiniteEscapeError(RuntimeError):
    """Solution norm exceeded the blow-up bound in finite time."""

    def __init__(self, escape_time: float, state: np.ndarray, bound: float):
        super().__init__(
            f"|x| > {bound:g} at t ~ {escape_time:.6g}; finite escape suspected"
        )
        self.escape_time = escape_time
        self.state = state


class StiffnessError(RuntimeError):
    """The adaptive stepper failed (step size underflow or invalid values)."""


class ChatteringError(RuntimeError):
    """A feedback rule produced more switches than ``max_switches``."""

    def __init__(self, n_switches: int, time: float):
        super().__init__(f"{n_switches} switches by t = {time:.6g}; rule appears to chatter")
        self.n_switches = n_switches
        self.time = time


def _whole_space(x: np.ndarray) -> float:
    """Boundary function of a region that is the whole space."""
    return -1.0


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bits, any NaN matching any NaN."""
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


def evaluate_rows(fn: Callable, x: np.ndarray, *args) -> np.ndarray:
    """``fn(x, *args)`` for a row-wise scenario function, at one state or a stack.

    At one state (n,) this is the per-point call.  At a stack (k, n), k >= 1,
    ``fn`` is called once on the whole stack; a constant result (such as
    ``_whole_space``'s -1.0) is broadcast to every row, and the result is
    a C-contiguous (k, ...) array.  Its first and last rows must equal
    per-point calls bit for bit (NaN matching NaN), so a function written
    for one state only (``np.array([-x[1], x[0]])``, say) raises
    TypeError naming it instead of returning wrong numbers.  The check
    costs two per-point calls; :func:`advance_starts` makes it once for
    each stack shape it meets and then calls ``fn`` directly.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.asarray(fn(x, *args), dtype=float)

    def not_rowwise(why: str) -> TypeError:
        name = f"{getattr(fn, '__module__', None)}.{getattr(fn, '__qualname__', repr(fn))}"
        return TypeError(f"{name} is not row-wise: on a {x.shape} stack of states {why}")

    first = np.asarray(fn(x[0], *args), dtype=float)
    try:
        out = np.ascontiguousarray(np.broadcast_to(np.asarray(fn(x, *args), dtype=float),
                                                   (len(x),) + first.shape))
    except (TypeError, ValueError, IndexError) as exc:
        raise not_rowwise(f"it raised {type(exc).__name__}: {exc}") from exc
    if not (_same_bits(out[0], first)
            and _same_bits(out[-1], np.asarray(fn(x[-1], *args), dtype=float))):
        raise not_rowwise("its rows differ from per-point calls")
    return out


def evaluate_by_mode(evaluate: Callable[[int, np.ndarray], np.ndarray], states: np.ndarray,
                     modes: np.ndarray) -> np.ndarray:
    """``evaluate(gamma, rows)`` on the rows of each mode, one call per mode,
    returned in row order; ``evaluate`` gives one value per row."""
    out = np.empty(len(modes))
    for gamma in distinct(modes):
        sel = modes == gamma
        out[sel] = evaluate(gamma, states[sel])
    return out


@dataclass(frozen=True)
class Covering:
    """Closed covering given by per-mode signed boundary functions."""

    boundaries: Mapping[int, BoundaryFn]

    def margin(self, gamma: int, x: np.ndarray) -> np.ndarray:
        """Signed membership margin, row-wise; <= 0 means x lies in region gamma."""
        return evaluate_rows(self.boundaries[gamma], x)

    def contains(self, gamma: int, x: np.ndarray) -> bool:
        return bool(self.margin(gamma, x) <= 0.0)

    def check_union(self, points: np.ndarray) -> CheckReport:
        """Sampled check that the regions cover the whole space.

        A point's margin is its least margin over the regions, and
        ``worst`` the largest of these; a NaN margin wins both, so it fails
        the check with the first such point as witness.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        margins = np.array([self.margin(g, pts) for g in self.boundaries])
        least = margins[np.argmin(margins, axis=0), np.arange(len(pts))]  # a NaN wins argmin
        return verdict("covering-union", least, 0.0, lambda i: np.array(pts[i]),
                       {"n_points": len(pts)})

    @staticmethod
    def trivial(modes: ModeSet) -> "Covering":
        return Covering({g: _whole_space for g in modes.labels})


def _rows_times(rows: Sequence[Sequence[float]], x: Sequence) -> list:
    """Per row, the sum of a_j * x_j over the row's nonzero entries a_j, taken
    left to right (0.0 * x_0 for a zero row).  The components x_j are floats,
    or arrays of one shape, so a stack of states gets each state's bits."""
    out = []
    for row in rows:
        acc = None
        for a, v in zip(row, x):
            if a:
                acc = a * v if acc is None else acc + a * v
        out.append(0.0 * x[0] if acc is None else acc)
    return out


@dataclass(frozen=True)
class LinearField:
    """The vector field x -> A x of a mode declared by its matrix A.

    ``matrix`` holds A's rows, stored as tuples of floats.  A call is
    row-wise, and each component sums a_ij * x_j over the row's nonzero
    entries from left to right, never through BLAS, so it equals the same
    sum written out by hand (``np.array([-x[1], x[0]])``) to the bit.  A
    mode whose field is a LinearField is integrated along its exact flow
    e^{A s} (see :func:`_linear_steps`), not by DOP853.
    """

    matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(float(a) for a in row) for row in self.matrix)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be a nonempty square matrix")
        if not all(math.isfinite(a) for row in rows for a in row):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "matrix", rows)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.array(_rows_times(self.matrix, x.T)).T

    @cached_property
    def norm(self) -> float:
        """An upper bound on the spectral norm ||A||_2 that takes no SVD:
        the least of the Frobenius norm and sqrt(||A||_1 ||A||_inf)."""
        a = np.abs(np.array(self.matrix))
        return min(math.sqrt(float(np.vecdot(a.ravel(), a.ravel()))),
                   math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max())))

    @cached_property
    def taylor(self) -> tuple[float, np.ndarray]:
        """The Taylor stack of the exact flow: a power of two nu and the
        (q + 1, n, n) array of B^k / k!, B = A / nu, k = 0..q, so that
        e^{A h} = sum_k (nu h)^k B^k / k! (:func:`_propagator`).  The degree
        q is :func:`_taylor_degree` of _LINEAR_CAP, the largest ||A|| h a
        step takes, whatever the norm: a small-norm field's h is long.
        nu is the least power of two above ||A||: the scaling is exact,
        and it keeps the stack and the powers (nu h)^k <= 1 finite at any
        norm.  A zero matrix has the stack (I,)."""
        n = len(self.matrix)
        if not self.norm:
            return 1.0, np.eye(n)[None]
        nu = math.ldexp(1.0, math.frexp(self.norm)[1])
        b = np.array(self.matrix) / nu
        stack = [np.eye(n)]
        for k in range(1, _taylor_degree(_LINEAR_CAP) + 1):
            stack.append(b @ stack[-1] / k)
        return nu, np.array(stack)


@dataclass(frozen=True)
class SwitchedSystem:
    """Finite family of vector fields sharing a state space and covering."""

    dimension: int
    fields: Mapping[int, VectorField]
    modes: ModeSet
    covering: Covering

    def __post_init__(self) -> None:
        if set(self.fields) != set(self.modes.labels):
            raise ValueError("vector fields must be keyed exactly by the mode labels")
        if set(self.covering.boundaries) != set(self.modes.labels):
            raise ValueError("covering must be keyed exactly by the mode labels")

    def field(self, gamma: int) -> VectorField:
        return self.fields[gamma]

    def rhs(self, x: np.ndarray, gamma: int) -> np.ndarray:
        """Field of mode gamma, row-wise (see :func:`evaluate_rows`)."""
        return evaluate_rows(self.fields[gamma], x)


@dataclass(frozen=True)
class FeedbackRule:
    """Total state-to-mode map with per-mode signed exit boundaries.

    ``boundaries[gamma]`` must be <= 0 exactly on the closure of the set
    where the rule selects gamma; its sign change along a trajectory is
    what the event locator's secant tracks, while the rule's output
    decides which end of the bracket each trial replaces.
    """

    mode_of: Callable[[np.ndarray], int]
    boundaries: Mapping[int, BoundaryFn]

    def __call__(self, x: np.ndarray) -> int:
        return int(self.mode_of(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class IntegratorOptions:
    """Stepper tolerances, sampling resolution and failure thresholds;
    ``max_dx = inf`` samples the accepted steps only."""

    rtol: float = 1e-9
    atol: float = 1e-12
    max_dx: float = 0.05
    bound: float = 1e9
    event_tol: float = 1e-10
    max_switches: int = 100_000

    def __post_init__(self) -> None:
        require_ranges(self, positive=("rtol", "atol", "event_tol", "max_dx", "bound"),
                       nonnegative=("max_switches",))


@dataclass
class IntegratorStats:
    """Accumulated step counts and a conservative local-error budget.

    ``error_bound_sum`` adds, per accepted DOP853 step, the tolerance
    scale atol + rtol*|x| that the controller enforced; actual local
    error is below it, so the sum bounds the accumulated tolerance
    budget.  A propagator step of a linear mode's exact flow adds its
    rounding bound 4 (n + 1) eps ||e^{A h}||_inf max|x| instead, counts in
    ``n_steps`` and calls no field, so ``n_rhs`` counts DOP853's calls
    only."""

    n_steps: int = 0
    n_rhs: int = 0
    n_events: int = 0
    error_bound_sum: float = 0.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution paired with the switching signal it realized."""

    times: np.ndarray
    states: np.ndarray
    signal: SwitchingSignal
    stats: IntegratorStats

    __reduce__ = reduce_via_constructor

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.size:
            raise ValueError("times must be (N,), states (N, n)")
        if times[0] != 0.0 or not np.all(np.diff(times) > 0):
            raise ValueError("sample times must start at 0 and strictly increase")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def horizon(self) -> float:
        return self.signal.horizon

    @property
    def dimension(self) -> int:
        return int(self.states.shape[1])

    @cached_property
    def sample_modes(self) -> np.ndarray:
        return self.signal.values_at(self.times)

    @cached_property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    def state_at_sample(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.times, t))
        if idx >= self.times.size or self.times[idx] != t:
            raise KeyError(f"t={t} is not a sample time")
        return self.states[idx]


# -- DOP853 -----------------------------------------------------------------

# The Dormand-Prince 8(5,3) tableau with its dense-output extension, to the
# last bit as scipy's DOP853 holds it.  Stages 0..11 make a step; stage 12
# is the field at the step's end, and its row of _A holds the weights _B
# of the step's solution; stages 13..15 are built for the interpolant only,
# whose coefficients beyond the cubic Hermite part are h * _D . K.
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
               0.7777777777777778])
_A = np.zeros((16, 16))  # row s holds stage s's weights on stages 0..s-1
for _s, _row in enumerate([
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0.0, 0.08876275643042054],
        [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
        [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
         20.154067550477894, -43.48988418106996],
        [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
        [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
         -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
        [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
         27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
         0.6433927460157636],
        [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
         -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
         0.04471061572777259],
        [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
         -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
         -0.008298],
        [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
         -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
         -0.00034046500868740456, 0.1413124436746325],
        [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
         4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
         2.9475147891527724, -9.15095847217987],
], start=1):
    _A[_s, :_s] = _row
_E3 = np.array([-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
                -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
                0.02265179219836082, 0.0])
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
                1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
                -0.022355307863886294, 0.0])
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])
del _s, _row
_N_STAGES = 12
_B = _A[_N_STAGES, :_N_STAGES]
_STAGES = tuple((s, _A[s, :s]) for s in range(1, _N_STAGES))
_EXTRA_STAGES = tuple((s, float(_C[s]), _A[s, :s]) for s in range(_N_STAGES + 1, len(_C)))
_EXPONENT = 1 / 8  # 1 / (error estimator order + 1)
_RTOL_FLOOR = 100 * 2.0 ** -52  # 100 eps: a smaller rtol is raised to this
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _norm(z: np.ndarray) -> float:
    """np.linalg.norm of a vector, to the last bit: the root of its dot product."""
    return math.sqrt(np.dot(z, z))


def row_norms(z: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, to the last bit (unlike ``norm(axis=1)``)."""
    return np.sqrt(np.vecdot(z, z))


def _rms(z: np.ndarray) -> np.ndarray:
    """The RMS norm of a vector, or of each row of a stack."""
    return row_norms(z) / z.shape[-1] ** 0.5


def _control(h_abs: float, e5: float, e3: float, n: int, rejected: bool) -> tuple[float, bool]:
    """Error norm of an attempt of size h_abs, and the step-size controller.

    ``e5`` and ``e3`` are the norms of the 5th- and 3rd-order error
    estimates over the tolerance scale.  Powers are Python float powers,
    libm ``pow`` as in scipy's scalar arithmetic: ``e ** 2`` is not always
    ``e * e``.  Returns the next step size and whether the attempt is
    accepted; once an attempt of a step was rejected, the size may not grow.
    """
    n5, n3 = e5 ** 2, e3 ** 2
    denom = math.sqrt((n5 + 0.01 * n3) * n)
    if n5 == 0 and n3 == 0:
        error_norm = 0.0
    else:  # denom is 0 only when n5 is and 0.01 * n3 underflows: scipy's 0 / 0 is NaN
        error_norm = h_abs * n5 / denom if denom else math.nan
    if error_norm < 1:
        factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -_EXPONENT)
        return h_abs * (min(1, factor) if rejected else factor), True
    return h_abs * max(0.2, 0.9 * error_norm ** -_EXPONENT), False


# On a stack of rows, the step selection and the controller take every power
# as libm ``pow`` per element, as Python's float power does and numpy's array
# power does not; a Python min or max against a constant that drops a NaN is
# np.fmin or np.fmax, and one that keeps it np.minimum or np.maximum.


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """libm ``pow`` of each element, as a Python float power takes it."""
    return np.array(list(map(math.pow, base.tolist(), repeat(exponent))), dtype=float)


def _starting_steps(field: Callable[[np.ndarray, np.ndarray], np.ndarray], y: np.ndarray,
                    fy: np.ndarray, interval: float, rtol: float, atol: float) -> np.ndarray:
    """The initial step of each row of the stack y (k, n), whose field values
    are fy, as scipy's DOP853 selects it, to the bit (Hairer, Norsett &
    Wanner, II.4): over the tolerance scale, d0 and d1 are the RMS norms of
    y and fy, the trial step h0 is 1e-6 if either is below 1e-5, else
    0.01 d0 / d1, at most ``interval``, and d2 is the RMS norm of
    ``field(h0, y + h0 fy) - fy`` over h0.  Python's max(d1, d2) keeps d1
    unless d2 is larger, and its min(a, b, c) takes a later one only if
    smaller."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), interval)
    # h0 is 0 only where d1 overflowed: d2 is then inf or NaN, and the step 0
    d2 = _rms((field(h0, y + h0[:, None] * fy) - fy) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, np.fmax(1e-6, h0 * 1e-3),
                  _pow(np.where(flat, 1.0, 0.01 / np.where(d2 > d1, d2, d1)), _EXPONENT))
    return np.minimum(np.where(h1 < 100 * h0, h1, 100 * h0), interval)


def _control_rows(h_abs: np.ndarray, e5: np.ndarray, e3: np.ndarray, n: int,
                  rejected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_control` of each row: the next step sizes and the accepted mask."""
    n5, n3 = _pow(e5, 2.0), _pow(e3, 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        error_norm = np.where((n5 == 0) & (n3 == 0), 0.0,
                              h_abs * n5 / np.sqrt((n5 + 0.01 * n3) * n))
    zero = error_norm == 0  # pow(0, -1/8) is a domain error: these rows take factor 10
    shrink = 0.9 * _pow(np.where(zero, 1.0, error_norm), -_EXPONENT)
    factor = np.where(zero, 10.0, np.fmin(10.0, shrink))
    accepted = error_norm < 1
    grown = h_abs * np.where(rejected, np.fmin(1.0, factor), factor)
    return np.where(accepted, grown, h_abs * np.fmax(0.2, shrink)), accepted


def _dense_output(context: tuple, t_old: float, x_old: list, t_new: float, x_new: list):
    """The interpolant of the DOP853 step from (t_old, x_old) to (t_new, x_new).

    ``context`` is the run's field ``rhs(t, y)`` and the trajectory's
    :func:`_workspace`, whose K holds the step's stages; the three extra
    ones are added here, at three more field calls, each stage sum one
    np.dot over ``views[s]``, the prebuilt view K[:s].T.  The interpolant
    returns a list: per component, a Horner sum in powers of x and 1 - x,
    x = (t - t_old) / h, in Python floats in scipy's order, which is
    elementwise and so equal to the bit.
    """
    rhs, (K, views) = context
    y_old, y_new, h = np.array(x_old), np.array(x_new), t_new - t_old
    for s, c, a in _EXTRA_STAGES:
        K[s] = rhs(t_old + c * h, y_old + np.dot(views[s], a) * h)
    f_old, delta_y = K[0], y_new - y_old
    F = np.empty((7, len(y_old)))
    F[0], F[1], F[2] = delta_y, h * f_old - delta_y, 2 * delta_y - h * (K[_N_STAGES] + f_old)
    F[3:] = h * np.dot(_D, K)
    return partial(_interpolant, list(zip(*F[::-1].tolist(), y_old.tolist())), t_old, h)


def _interpolant(rows: list, t_old: float, h: float, t: float) -> list:
    """Per row (c0, ..., c6, b): (((0.0 + c0) x + c1) z ... + c6) x + b, scipy's sum from zeros."""
    x = (t - t_old) / h
    z = 1 - x
    return [((((((((0.0 + c0) * x + c1) * z + c2) * x + c3) * z + c4) * x + c5) * z + c6) * x) + b
            for c0, c1, c2, c3, c4, c5, c6, b in rows]


# -- integration core -----------------------------------------------------


def _emit(ts: list, xs: list, t: float, x) -> None:
    if not ts or t > ts[-1]:
        ts.append(t)
        xs.append(x)


_SUBDIVISION_BUDGET = 4096  # per accepted step; guards runaway motion
_CHORD_BAND = 1e-9  # chords this close to max_dx, relatively, are decided by _norm


def _chord_band(max_dx: float) -> tuple[float, float]:
    """The chord lengths below and above which ``math.dist`` alone decides a
    chord against max_dx; between them ``_norm`` decides (see :func:`_subdivide`)."""
    if 1e-140 <= max_dx <= 1e140 or max_dx == math.inf:
        return max_dx * (1 - _CHORD_BAND), max_dx * (1 + _CHORD_BAND)
    return 0.0, math.inf


def _subdivide(make_dense, t0, x0, t1, x1, max_dx, ts, xs) -> None:
    """Append samples on (t0, t1] so consecutive states differ <= max_dx.

    ``make_dense`` builds the step's interpolant; it is called once, at
    the first split, and not at all for a step that needs none.  x0, x1
    and the samples appended are lists.
    A chord is measured by ``math.dist``, and by ``_norm`` of the array
    difference within ``_CHORD_BAND`` of max_dx, or always for a max_dx
    outside [1e-140, 1e140] but inf: elsewhere the two agree to a few ulp,
    so every decision (a NaN chord splits) is ``_norm``'s.  Splitting is
    budgeted per step: a step whose displacement exceeds the budget times
    max_dx (escaping solutions, or a wildly small max_dx) is emitted at
    budget resolution rather than ground to dust.
    """
    below, above = _chord_band(max_dx)
    budget = _SUBDIVISION_BUDGET
    dense = None
    stack = [(t0, x0, t1, x1)]
    while stack:
        ta, xa, tb, xb = stack.pop()
        if ((d := math.dist(xa, xb)) < below
                or (d <= above and _norm(np.array(xb) - np.array(xa)) <= max_dx)
                or tb - ta < 1e-13 * max(1.0, tb) or budget <= 0):
            _emit(ts, xs, tb, xb)
            continue
        budget -= 1
        if dense is None:
            dense = make_dense()
        tm = 0.5 * (ta + tb)
        xm = dense(tm)
        stack.append((tm, xm, tb, xb))
        stack.append((ta, xa, tm, xm))


def _start(system: SwitchedSystem, x0: Sequence[float]):
    """Validated start state, fresh stats, and sample lists holding (0, x0)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dimension,) or not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be a finite vector of length {system.dimension}")
    return x0, IntegratorStats(), [0.0], [x0.copy()]


def _workspace(n: int) -> tuple[np.ndarray, list]:
    """The stage array K of a trajectory of dimension n, stage s in row s, and
    the prebuilt views K[:s].T that its stage sums read."""
    K = np.empty((len(_C), n))
    return K, [K[:s].T for s in range(len(_C) + 1)]


# A solve turns an overflowing norm, step or field value, or a field that
# divides by zero, into a rejected attempt or a StiffnessError, so numpy's
# overflow, invalid and divide warnings are off while it runs: a failed
# run's one-line message is its only output.  integrate, integrate_feedback
# and advance_starts enter it once per call, not once per mode run.
_SOLVE_ERRSTATE = dict(over="ignore", invalid="ignore", divide="ignore")
_NON_FINITE_FIELD = "vector field returned non-finite values at t ~ {:.6g}"


def _run_mode(system: SwitchedSystem, gamma: int, t0: float, x0: np.ndarray, t_end: float,
              opts: IntegratorOptions, stats: IntegratorStats, ts: list, xs: list,
              workspace: tuple[np.ndarray, list], rule: FeedbackRule | None = None,
              first_step: float | None = None):
    """Advance mode gamma from (t0, x0) to t_end > t0, sampling as we go.

    The steps are a :class:`LinearField` mode's propagator steps
    (:func:`_linear_steps`), or any other mode's accepted DOP853 steps
    (:func:`_dop853_steps`) from ``first_step`` (at most t_end - t0, as
    scipy's) or, when it is None, from the initial step selection; they
    share the trajectory's ``workspace`` (:func:`_workspace`).  Each step's
    end, whatever its source, counts in ``stats`` with the field calls and
    error-budget term the source gave, meets the state guards (a
    non-finite state raises :class:`StiffnessError`, a norm over
    ``opts.bound`` :class:`FiniteEscapeError`), and with a feedback
    ``rule`` ends the run, at the crossing located inside the step, if the
    rule assigns it to another mode.  The step's interpolant (its DOP853
    field calls checked and counted by ``rhs``) is built only for a
    crossing or a split.  The caller runs the solve under
    ``np.errstate(**_SOLVE_ERRSTATE)``.  Returns (t, x, stopped_at_crossing,
    h), h being the step size DOP853 proposed last, or None after a linear
    run.
    """
    f = system.field(gamma)
    if isinstance(f, LinearField):
        steps = _linear_steps(f, t0, x0, t_end, opts.max_dx)
        interpolant, context = _taylor_flow, f
    else:
        def rhs(t, y):
            """The field at y, checked per call."""
            stats.n_rhs += 1
            out = np.asarray(f(y), dtype=float)
            if not all(map(math.isfinite, out.tolist())):
                raise StiffnessError(_NON_FINITE_FIELD.format(t))
            return out

        steps = _dop853_steps(f, rhs, t0, x0, t_end, opts, workspace, first_step)
        interpolant, context = _dense_output, (rhs, workspace)
    below = _chord_band(opts.max_dx)[0]
    escape = opts.bound / (len(x0) + 1)  # max|x| up to this keeps |x| within the bound
    t, x = t0, x0.tolist()
    crossed = False
    for t_new, x_new, error, mx, calls, h in steps:
        stats.n_steps += 1
        stats.n_rhs += calls
        stats.error_bound_sum += error
        if not all(map(math.isfinite, x_new)):
            raise StiffnessError(f"non-finite state at t ~ {t_new:.6g}")
        if mx > escape and _norm(np.array(x_new)) > opts.bound:
            raise FiniteEscapeError(t_new, np.array(x_new), opts.bound)
        dense = None  # built before the source resumes: DOP853's reads the shared stages
        if rule is not None and rule(x_new) != gamma:
            dense = interpolant(context, t, x, t_new, x_new)
            t_new, at = _locate_crossing(dense, rule, gamma, t, x, t_new, opts.event_tol)
            x_new, crossed = at.tolist(), True
        if math.dist(x, x_new) < below:
            _emit(ts, xs, t_new, x_new)
        else:  # a crossed step has its interpolant; any other still ends at (t_new, x_new)
            _subdivide(lambda: dense or interpolant(context, t, x, t_new, x_new), t, x, t_new,
                       x_new, opts.max_dx, ts, xs)
        t, x = t_new, x_new
        if crossed:
            break
    return t, np.array(x), crossed, h


def _dop853_steps(f: VectorField, rhs, t: float, y: np.ndarray, t_end: float,
                  opts: IntegratorOptions, workspace: tuple[np.ndarray, list],
                  h_abs: float | None):
    """The accepted steps of one adaptive DOP853 solve from (t, y) to t_end.

    Per accepted step it yields the step's end time, its end state as a
    list, the tolerance scale atol + rtol max|x| the controller enforced
    there, that max|x|, the field calls of the step's attempts and the
    step size the controller proposes next.  The start state's field value
    is ``rhs(t, y)``, and when ``h_abs`` is None :func:`_starting_steps`
    selects the initial step of this one row, at one more call.  Each
    attempt calls ``f`` unchecked for its twelve stages (eleven and the
    step's end) and checks them once, as :func:`_advance_dop853` does: a
    non-finite stage raises :class:`StiffnessError` at t + c_s h of the
    first one.  The stages are held in ``workspace``'s K, which the step's
    interpolant reads, so the consumer builds that before it resumes the
    source.
    """
    n = len(y)
    rtol, atol = max(opts.rtol, _RTOL_FLOOR), opts.atol
    fy = rhs(t, y)
    if h_abs is None:  # a step of 0 fails the step-size guard below
        h_abs = float(_starting_steps(lambda h0, z: rhs(t + float(h0[0]), z[0]), y[None],
                                      fy[None], t_end - t, rtol, atol)[0])
    K, views = workspace
    while t < t_end:
        # one step: attempts from h_abs down until one is accepted
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected, calls = False, 0
        while True:
            if h_abs < min_step:
                raise StiffnessError(f"stepper failed at t ~ {t:.6g}: {_TOO_SMALL_STEP}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            K[0] = fy
            for s, a in _STAGES:
                K[s] = f(y + np.dot(views[s], a) * h)
            y_new = y + h * np.dot(views[_N_STAGES], _B)
            K[_N_STAGES] = f_new = f(y_new)
            calls += _N_STAGES
            errors = views[_N_STAGES + 1]
            if not np.isfinite(errors).all():
                s = int(np.flatnonzero(~np.isfinite(errors).all(axis=0))[0])
                raise StiffnessError(_NON_FINITE_FIELD.format(t + _C[s] * h))
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            h_abs, accepted = _control(abs(h), _norm(np.dot(errors, _E5) / scale),
                                       _norm(np.dot(errors, _E3) / scale), n, rejected)
            if accepted:
                break
            rejected = True
        x_new = y_new.tolist()
        mx = max(map(abs, x_new))
        yield t_new, x_new, opts.atol + opts.rtol * mx, mx, calls, h_abs
        t, y, fy = t_new, y_new, f_new


# -- exact flows of linear modes --------------------------------------------

_EPS = 2.0 ** -52
_LINEAR_CAP = 0.5  # ||A|| h of a propagator step at most this, so event brackets stay short
_CHORD_MARGIN = 0.95  # a planned chord is at most this share of max_dx


def _taylor_degree(bound: float) -> int:
    """The least degree q whose Taylor remainder term bound^(q+1) / (q+1)! is
    at most eps / 4; for bound <= 1/2 the whole remainder is below eps / 3."""
    q, term = 0, 1.0
    while term * bound / (q + 1) > _EPS / 4:
        q += 1
        term *= bound / q
    return q


def _propagator(field: LinearField, h: float) -> tuple[list, float]:
    """The rows of e^{A h}, for ||A|| h <= 1/2, and the rounding allowance of
    one step by it per unit of max|x|: 4 (n + 1) eps ||e^{A h}||_inf.

    e^{A h} is the Taylor sum over the field's stack (:attr:`LinearField.taylor`),
    one np.dot of the powers of nu h with it; its remainder is below eps / 3
    of the norm, as every step of a run keeps ||A|| h within the cap."""
    nu, stack = field.taylor
    powers = (nu * h) ** np.arange(len(stack), dtype=float)
    rows = np.dot(powers, stack.reshape(len(stack), -1)).reshape(stack.shape[1:]).tolist()
    return rows, 4 * (len(rows) + 1) * _EPS * max(sum(map(abs, row)) for row in rows)


def _linear_step(norm: float, radius: float, max_dx: float) -> float:
    """The propagator step h of a run from a state of norm ``radius``.

    ||A|| h is capped at 1/2 and shortened so that the chord bound
    ||A|| h radius is _CHORD_MARGIN max_dx.  A run that would need more
    than the subdivision budget of such steps per capped step takes capped
    steps, which :func:`_subdivide` splits at budget resolution.
    """
    if norm == 0.0:
        return math.inf
    chords = _LINEAR_CAP * radius / (_CHORD_MARGIN * max_dx)  # per capped step
    return _LINEAR_CAP / norm / (chords if 1.0 < chords <= _SUBDIVISION_BUDGET else 1.0)


def _propagator_steps(field: LinearField, h: float, t: float, t_end: float):
    """The propagator steps of a run from t to t_end: per step, its end time
    and :func:`_propagator`, one e^{A h} for every step but the last, which
    takes e^{A (t_end - t_k)}.  A step that does not advance t raises
    :class:`StiffnessError`."""
    full = None
    while t < t_end:
        if t_end - t > h:
            full = full or _propagator(field, h)
            t_new, step = t + h, full
        else:
            t_new, step = t_end, _propagator(field, t_end - t)
        if not t_new > t:
            raise StiffnessError(f"stepper failed at t ~ {t:.6g}: {_TOO_SMALL_STEP}")
        yield t_new, step
        t = t_new


def _linear_steps(field: LinearField, t: float, x0: np.ndarray, t_end: float, max_dx: float):
    """The propagator steps of a linear mode from (t, x0) to t_end.

    Each step is x_(k+1) = E x_k in Python floats (:func:`_rows_times`),
    with one E = e^{A h} whose h is planned once from |x0|
    (:func:`_linear_step`) and a last one to t_end
    (:func:`_propagator_steps`).  Yields per step as :func:`_dop853_steps`
    does: its end time and state, its rounding allowance times max|x_k|
    as the error-budget term, max|x_(k+1)|, no field call and no step size.
    """
    x = x0.tolist()
    mx = max(map(abs, x))
    h = _linear_step(field.norm, math.hypot(*x), max_dx)
    for t_new, (rows, roundoff) in _propagator_steps(field, h, t, t_end):
        x_new = _rows_times(rows, x)
        error, mx = roundoff * mx, max(map(abs, x_new))
        yield t_new, x_new, error, mx, 0, None
        x = x_new


def _taylor_flow(field: LinearField, t_old: float, x: list, t_new: float, x_new: list):
    """The exact flow from (t_old, x) over the propagator step that ends at
    t_new: the Taylor polynomial of e^{A s} x in nu s, s = t - t_old, to the
    degree whose remainder is below eps, as a function of t that returns a
    list.  Its coefficients B^k x / k! are one matmul of the field's Taylor
    stack with x."""
    nu, stack = field.taylor
    coefs = np.dot(stack[:_taylor_degree(field.norm * (t_new - t_old)) + 1], x)
    return partial(_horner, list(zip(*coefs[::-1].tolist())), t_old, nu)


def _horner(rows: list, t_old: float, nu: float, t: float) -> list:
    """Per row (c_q, ..., c_0): ((0.0 s + c_q) s + c_(q-1)) ... s + c_0, s = nu (t - t_old)."""
    s = (t - t_old) * nu
    out = []
    for row in rows:
        v = 0.0
        for c in row:
            v = v * s + c
        out.append(v)
    return out


def _guard_rows(rows: np.ndarray, t, y: np.ndarray, accepted, bound: float, out: list,
                errors: dict) -> np.ndarray:
    """The state guards of :func:`_run_mode` on the rows y of a batch, each at
    its step's end t (one time, or one per row).  Among the ``accepted``
    rows, one whose state is not finite records a :class:`StiffnessError`
    in ``errors`` and one whose norm passed ``bound`` its
    :class:`FiniteEscapeError` in ``out``, under its start index ``rows[r]``.
    Returns the mask of the accepted rows kept."""
    t = np.broadcast_to(t, len(y))
    finite = np.isfinite(y).all(axis=1)
    escaped = finite & (row_norms(y) > bound)
    for r in np.flatnonzero(accepted & ~finite).tolist():
        errors[int(rows[r])] = StiffnessError(f"non-finite state at t ~ {float(t[r]):.6g}")
    for r in np.flatnonzero(accepted & escaped).tolist():
        out[int(rows[r])] = FiniteEscapeError(float(t[r]), np.array(y[r]), bound)
    return accepted & finite & ~escaped


def _advance_linear(field: LinearField, y: np.ndarray, t_end: float, opts: IntegratorOptions):
    """The rows y of :func:`advance_starts` along a linear mode's exact flow:
    the steps of :func:`_linear_steps` with max_dx = inf, each one pass of
    :func:`_rows_times` over the stack's columns, so every row gets the
    bits of its own run.  Returns as :func:`_advance_dop853` does."""
    rows = np.arange(len(y))  # start index of each row still running
    out: list = [None] * len(y)
    kept_rows, kept_states = [rows], [y]
    errors: dict[int, StiffnessError] = {}
    h = _linear_step(field.norm, 0.0, math.inf)
    for t_new, (prop, _) in _propagator_steps(field, h, 0.0, t_end):
        y = np.stack(_rows_times(prop, y.T), axis=1)
        kept = _guard_rows(rows, t_new, y, True, opts.bound, out, errors)
        rows, y = rows[kept], y[kept]
        kept_rows.append(rows)
        kept_states.append(y)
        if not rows.size:
            break
    return kept_rows, kept_states, out, errors


@np.errstate(**_SOLVE_ERRSTATE)
def integrate(
    system: SwitchedSystem,
    x0: Sequence[float],
    signal: SwitchingSignal,
    opts: IntegratorOptions = IntegratorOptions(),
) -> Trajectory:
    """Integrate under a prescribed switching signal.

    Every switch time is an exact mesh point (each constancy interval is
    one solve that ends there), so downstream checks can read states at
    switch times without interpolation.  Only the first interval selects
    an initial step; each later one starts from the step size the
    controller proposed at the end of the one before, at most its own
    length, so a switch costs one field call for the new mode's start.
    A linear mode's run carries no step size: the DOP853 interval after it
    starts from the step the last DOP853 run proposed, at most its own
    length, and only an interval that no DOP853 run precedes selects one.
    """
    x, stats, ts, xs = _start(system, x0)
    work = _workspace(system.dimension)
    h = None  # the step size the last DOP853 run proposed
    for ta, tb, gamma in signal.segments():
        if tb > ta:
            _, x, _, proposed = _run_mode(system, gamma, ta, x, tb, opts, stats, ts, xs, work,
                                          first_step=None if h is None else min(h, tb - ta))
            h = h if proposed is None else proposed
    _emit(ts, xs, signal.horizon, x)
    return Trajectory(np.array(ts), np.array(xs), signal, stats)


@np.errstate(**_SOLVE_ERRSTATE)
def advance_starts(system: SwitchedSystem, gamma: int, starts: np.ndarray, t_end: float,
                   opts: IntegratorOptions) -> list:
    """Advance every start under mode gamma over [0, t_end], all starts at once.

    Each row takes exactly the steps that :func:`integrate` takes for that
    start alone under the constant signal with ``max_dx = inf``.  A
    :class:`LinearField` mode takes the propagator steps of
    :func:`_linear_steps` on every row, each step one elementwise pass over
    the stack (:func:`_advance_linear`).  Any other mode steps the rows as
    one DOP853 (:func:`_advance_dop853`).  Returns, per start in order,
    its states at t = 0 and after every accepted step as a (k, n) array,
    or the :class:`FiniteEscapeError` of a start whose norm passed
    ``opts.bound``.  A :class:`StiffnessError` is raised after the batch:
    that of the first start which met one, as a loop over starts would.
    """
    if opts.max_dx != math.inf:
        raise ValueError("advance_starts samples accepted steps only; it needs max_dx = inf")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    y = np.array(starts, dtype=float)
    if y.ndim != 2 or y.shape[1] != system.dimension or not np.all(np.isfinite(y)):
        raise ValueError(f"starts must be finite rows of length {system.dimension}")
    f = system.field(gamma)
    advance = _advance_linear if isinstance(f, LinearField) else _advance_dop853
    kept_rows, kept_states, out, errors = advance(f, y, t_end, opts)
    if errors:
        raise errors[min(errors)]
    sample_rows = np.concatenate(kept_rows)
    samples = np.concatenate(kept_states)[np.argsort(sample_rows, kind="stable")]
    ends = np.cumsum(np.bincount(sample_rows, minlength=len(y))).tolist()
    return [samples[a:b] if run is None else run
            for run, a, b in zip(out, [0, *ends[:-1]], ends)]


def _advance_dop853(f: VectorField, y: np.ndarray, t_end: float, opts: IntegratorOptions):
    """The rows y of :func:`advance_starts` as rows of one DOP853.

    The same tableau, initial step selection (:func:`_starting_steps`) and
    controller as :func:`_run_mode`, with each stage sum one matmul per
    row, so no row's values reach another's, and the controller taken on
    all rows at once (:func:`_control_rows`).  The field is called once per
    stage on the stack of running rows, so it must be row-wise;
    :func:`evaluate_rows` checks it once for each stack shape the advance
    meets.  An attempt's stages, like each of the initial step's two field
    values, take one finiteness test, as in :func:`_dop853_steps`; only
    when it fails are the rows scanned, and a row with a non-finite stage
    records the StiffnessError of its first one and leaves before the
    controller runs.  Accepted states are recorded once per attempt.
    Returns the sample batches' start indices and states, the escapes per
    start, and the StiffnessError of each start that met one.
    """
    n_rows, n = y.shape
    S = _N_STAGES
    rtol, atol = max(opts.rtol, _RTOL_FLOOR), opts.atol
    rows = np.arange(n_rows)  # start index of each row still running
    out: list = [None] * n_rows
    kept_rows, kept_states = [rows], [y]  # the samples, one batch per accepted attempt
    errors: dict[int, StiffnessError] = {}
    checked: set = set()  # stack shapes on which evaluate_rows has checked f

    def field(F: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """F[r] = f(Y[r]) for every row r, in one call on the stack."""
        if Y.shape in checked:
            F[...] = f(Y)
        else:
            F[...] = evaluate_rows(f, Y)
            checked.add(Y.shape)
        return F

    def drop_non_finite(K: np.ndarray, c: np.ndarray, h: np.ndarray) -> None:
        """Each live row whose stages K[r] (taken at t + c h) are not all finite
        records the StiffnessError of its first non-finite one and leaves."""
        if not np.isfinite(K).all():
            bad = ~np.isfinite(K).all(axis=2)
            for r in np.flatnonzero(live & bad.any(axis=1)).tolist():
                errors[int(rows[r])] = StiffnessError(
                    _NON_FINITE_FIELD.format(t[r] + c[np.argmax(bad[r])] * h[r]))
                live[r] = False

    def trial(h0: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The field at the initial step selection's trial states, at t + h0."""
        F = field(np.empty_like(Y), Y)
        drop_non_finite(F[:, None], np.ones(1), h0)
        return F

    live = np.ones(n_rows, dtype=bool)
    t = np.zeros(n_rows)
    fy = field(np.empty_like(y), y)
    drop_non_finite(fy[:, None], np.zeros(1), t)
    h_abs = _starting_steps(trial, y, fy, t_end, rtol, atol)
    fresh = np.ones(n_rows, dtype=bool)  # a row whose next attempt starts a new step
    rejected = np.zeros(n_rows, dtype=bool)

    while True:
        if not live.all():
            rows, t, y, fy, h_abs, fresh, rejected = (
                a[live] for a in (rows, t, y, fy, h_abs, fresh, rejected))
            live = np.ones(rows.size, dtype=bool)
        if not rows.size:
            break
        # one attempt per row, at its own t and step size
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(fresh & (h_abs < min_step), min_step, h_abs)
        rejected &= ~fresh
        for r in np.flatnonzero(h_abs < min_step).tolist():
            errors[int(rows[r])] = StiffnessError(
                f"stepper failed at t ~ {float(t[r]):.6g}: {_TOO_SMALL_STEP}")
            live[r] = False
        t_new = np.where(t + h_abs - t_end > 0, t_end, t + h_abs)
        h = t_new - t
        # the stages, with stage s in K[:, s]
        K = np.empty((rows.size, S + 1, n))
        KT = K.transpose(0, 2, 1)
        K[:, 0] = fy
        for s in range(1, S):
            field(K[:, s], y + np.matmul(KT[:, :, :s], _A[s, :s]) * h[:, None])
        y_new = y + h[:, None] * np.matmul(KT[:, :, :S], _B)
        f_new = field(K[:, S], y_new)
        drop_non_finite(K, _C, h)
        # the error norm and the controller, on the live rows
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        e5 = row_norms(np.matmul(KT, _E5) / scale)
        e3 = row_norms(np.matmul(KT, _E3) / scale)
        accepted = np.zeros(rows.size, dtype=bool)
        h_abs = np.abs(h)
        h_abs[live], accepted[live] = _control_rows(h_abs[live], e5[live], e3[live], n,
                                                    rejected[live])
        rejected |= live & ~accepted
        # an accepted row moves to the step's end and meets integrate's state guards
        t = np.where(accepted, t_new, t)
        y = np.where(accepted[:, None], y_new, y)
        fy = np.where(accepted[:, None], f_new, fy)
        fresh = accepted
        kept = _guard_rows(rows, t, y, accepted, opts.bound, out, errors)
        kept_rows.append(rows[kept])
        kept_states.append(y[kept])
        live &= ~accepted | (kept & (t < t_end))
    return kept_rows, kept_states, out, errors


def _locate_crossing(dense, rule: FeedbackRule, gamma: int, t_lo: float, x_lo: Sequence[float],
                     t_hi: float, event_tol: float) -> tuple[float, np.ndarray]:
    """Locate the active-region boundary's crossing inside one accepted step.

    Precondition: rule(x_lo) == gamma != rule(dense(t_hi)), x_lo being the
    step's start state, dense(t_lo).  The bracket [lo, hi] keeps that
    property and shrinks by the Illinois variant of regula falsi (Dowell &
    Jarratt, BIT 1971), as Shampine & Thompson locate ODE events: each
    trial time is the secant root of the boundary b = ``rule.boundaries
    [gamma]`` at the two ends, and when the same end is kept twice in a
    row its value is halved.  When the two values do not strictly bracket
    zero (one is NaN or infinite, or b keeps its sign where the rule
    flips) or the root rounds onto an end, the trial is the midpoint.
    Each trial is classified by ``rule(x) != gamma``, not by b's sign.
    Returns hi and its state, once the window is at most event_tol and
    |b(x_hi)| at most event_tol / 2 (1 + |x_hi|), or the window is within
    4e-16 of hi, or after 200 trials.  ``dense`` may return lists or arrays.
    """
    b = rule.boundaries[gamma]
    lo, hi = t_lo, t_hi
    x_hi = np.asarray(dense(hi), dtype=float)
    f_lo = float(b(np.asarray(x_lo, dtype=float)))
    f_hi = b_hi = float(b(x_hi))  # b_hi is b(x_hi); f_hi, like f_lo, may be halved
    last = 0  # +1 if the last trial replaced hi, -1 if it replaced lo
    for _ in range(200):
        if (hi - lo <= 4e-16 * max(1.0, abs(hi)) or hi - lo <= event_tol
                and abs(b_hi) <= 0.5 * event_tol * (1.0 + _norm(x_hi))):
            break
        t = (hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo
             else math.nan)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        x = np.asarray(dense(t), dtype=float)
        f = float(b(x))
        if rule(x) != gamma:
            hi, x_hi, f_hi, b_hi = t, x, f, f
            if last > 0:
                f_lo *= 0.5
            last = 1
        else:
            lo, f_lo = t, f
            if last < 0:
                f_hi *= 0.5
            last = -1
    return hi, x_hi


@np.errstate(**_SOLVE_ERRSTATE)
def integrate_feedback(
    system: SwitchedSystem,
    x0: Sequence[float],
    rule: FeedbackRule,
    horizon: float,
    opts: IntegratorOptions = IntegratorOptions(),
) -> Trajectory:
    """Integrate under state-feedback switching and emit the realized signal.

    The active mode runs until the rule's output changes across an
    accepted step, a DOP853 step or a linear mode's propagator step; the
    crossing is then located by the Illinois variant of regula falsi on
    the active region's boundary function (:func:`_locate_crossing`), over
    the step's interpolant or Taylor flow.  Crossings that
    do not change the rule output are not switches.  Each mode's run
    selects its own initial step, or plans its propagator.
    """
    x0, stats, ts, xs = _start(system, x0)
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    gamma = rule(x0)
    switch_times: list[float] = []
    mode_seq: list[int] = [gamma]
    t, x = 0.0, x0
    work = _workspace(system.dimension)

    while t < horizon:
        t, x, crossed, _ = _run_mode(system, gamma, t, x, horizon, opts, stats, ts, xs, work,
                                     rule)
        if not crossed:
            break
        new_gamma = rule(x)
        if new_gamma == gamma:
            continue  # grazing contact, not a switch
        stats.n_events += 1
        if stats.n_events > opts.max_switches:
            raise ChatteringError(stats.n_events, t)
        switch_times.append(t)
        mode_seq.append(new_gamma)
        gamma = new_gamma

    _emit(ts, xs, horizon, x)
    signal = SwitchingSignal(np.array(switch_times), np.array(mode_seq), horizon)
    return Trajectory(np.array(ts), np.array(xs), signal, stats)


# -- structural checks ------------------------------------------------------


def modes_containing_origin(covering: Covering, modes: ModeSet, dimension: int) -> tuple[int, ...]:
    """Labels whose covering region contains the origin."""
    zero = np.zeros(dimension)
    return tuple(g for g in modes.labels if covering.contains(g, zero))


_EQUILIBRIUM_TOL = 1e-9  # largest |f(0)| accepted as vanishing


def check_equilibrium(system: SwitchedSystem) -> CheckReport:
    """Verify that every field whose region contains 0 vanishes there.

    The witness of a failure is the dict of modes whose residual is not
    within tolerance; with no mode at the origin ``worst`` reads 0.
    """
    zero = np.zeros(system.dimension)
    gamma_star = modes_containing_origin(system.covering, system.modes, system.dimension)
    residuals = {g: float(np.linalg.norm(system.rhs(zero, g))) for g in gamma_star}
    return verdict("equilibrium-at-origin", [*residuals.values(), 0.0], _EQUILIBRIUM_TOL,
                   lambda i: {g: r for g, r in residuals.items() if not r <= _EQUILIBRIUM_TOL},
                   {"modes_containing_origin": gamma_star, "residuals": residuals})


def check_covering_compliance(
    traj: Trajectory, covering: Covering, tol: float = 1e-6
) -> CheckReport:
    """Check b_{sigma(t)}(x(t)) <= tol at every sample.

    ``worst`` is the largest margin; ``details["violations"]`` lists the
    first 100 violating samples as (t, mode, margin), the first of them
    being the witness.  A NaN margin is a violation.
    """
    modes = traj.sample_modes
    margins = evaluate_by_mode(covering.margin, traj.states, modes)
    bad = np.flatnonzero(~(margins <= tol))
    violations = tuple(
        (float(traj.times[i]), int(modes[i]), float(margins[i])) for i in bad[:100]
    )
    return CheckReport(
        "covering-compliance", bad.size == 0,
        worst=float(np.max(margins)) if margins.size else -math.inf,
        witness=violations[0] if violations else None,
        details={"violations": violations, "n_checked": int(margins.size)},
    )


# -- export -----------------------------------------------------------------


def write_trajectory_csv(traj: Trajectory, path, V=None) -> None:
    """CSV with header ``t,x1,...,xn,sigma[,V]``, one row per sample.

    Floats are written as ``%.17g``, the text of
    :func:`~switchcert.reports.fmt17`, one ``%`` format per row.
    """
    n = traj.dimension
    header = ["t", *(f"x{i + 1}" for i in range(n)), "sigma"]
    cells = ["%.17g"] * (n + 1) + ["%d"]
    modes = traj.sample_modes
    columns = [traj.times.tolist(), *traj.states.T.tolist(), modes.tolist()]
    if V is not None:
        header.append("V")
        cells.append("%.17g")
        values = evaluate_by_mode(lambda g, x: evaluate_rows(V.value, x, g), traj.states, modes)
        columns.append(values.tolist())
    write_rows(path, header, cells, columns)


__all__ = [
    "ChatteringError",
    "Covering",
    "FeedbackRule",
    "FiniteEscapeError",
    "IntegratorOptions",
    "IntegratorStats",
    "LinearField",
    "StiffnessError",
    "SwitchedSystem",
    "Trajectory",
    "advance_starts",
    "check_covering_compliance",
    "check_equilibrium",
    "evaluate_by_mode",
    "evaluate_rows",
    "integrate",
    "integrate_feedback",
    "modes_containing_origin",
    "write_trajectory_csv",
]
