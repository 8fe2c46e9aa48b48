"""Switched systems and trajectory integration.

A switched system pairs a finite family of vector fields with a closed
covering of the state space: region gamma is {x : b_gamma(x) <= 0} for a
continuous signed boundary function b_gamma, so closedness is structural
and membership margins are available for compliance checking and event
location (b == -1 encodes the whole space).

Integration is piecewise: switch times are mandatory mesh points, each
constancy interval is integrated with an adaptive embedded Runge-Kutta
stepper (scipy's DOP853), and accepted steps are subdivided
through the dense interpolant until consecutive samples differ by at
most ``max_dx``.  State-feedback switching locates region crossings by
bisection on the active boundary function over the step interpolant.
The interpolant costs extra field evaluations, so a step builds it only
when it is split or a crossing is located in it.

Solution blow-up surfaces as :class:`FiniteEscapeError` with an escape
time estimate; step-size collapse as :class:`StiffnessError`; feedback
rules that switch more than ``max_switches`` times as
:class:`ChatteringError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.integrate import DOP853

from .reports import CheckReport, fmt17, reduce_via_constructor, require_ranges
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


@dataclass(frozen=True)
class Covering:
    """Closed covering given by per-mode signed boundary functions."""

    boundaries: Mapping[int, BoundaryFn]

    def margin(self, gamma: int, x: np.ndarray) -> float:
        """Signed membership margin; <= 0 means x lies in region gamma."""
        return float(self.boundaries[gamma](np.asarray(x, dtype=float)))

    def contains(self, gamma: int, x: np.ndarray) -> bool:
        return self.margin(gamma, x) <= 0.0

    def check_union(self, points: np.ndarray) -> CheckReport:
        """Sampled check that the regions cover the whole space."""
        worst = -math.inf
        witness = None
        for x in np.atleast_2d(points):
            m = min(self.margin(g, x) for g in self.boundaries)
            if m > worst:
                worst, witness = m, np.array(x)
        return CheckReport(
            "covering-union", worst <= 0.0, worst=worst,
            witness=None if worst <= 0.0 else witness,
            details={"n_points": int(np.atleast_2d(points).shape[0])},
        )

    @staticmethod
    def trivial(modes: ModeSet) -> "Covering":
        return Covering({g: _whole_space for g in modes.labels})


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
        return np.asarray(self.fields[gamma](x), dtype=float)


@dataclass(frozen=True)
class FeedbackRule:
    """Total state-to-mode map with per-mode signed exit boundaries.

    ``boundaries[gamma]`` must be <= 0 exactly on the closure of the set
    where the rule selects gamma; its sign change along a trajectory is
    what the event bisection tracks.
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

    ``error_bound_sum`` adds, per accepted step, the tolerance scale
    atol + rtol*|x| that the controller enforced; actual local error is
    below it, so the sum bounds the accumulated tolerance budget."""

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

    def index_at(self, t: float) -> int:
        """Index of the first sample at or after t."""
        return int(np.searchsorted(self.times, t, side="left"))

    def state_at_sample(self, t: float) -> np.ndarray:
        idx = self.index_at(t)
        if idx >= self.times.size or self.times[idx] != t:
            raise KeyError(f"t={t} is not a sample time")
        return self.states[idx]


# -- integration core -----------------------------------------------------


def _emit(ts: list, xs: list, t: float, x: np.ndarray) -> None:
    if ts and t <= ts[-1]:
        return
    ts.append(t)
    xs.append(np.array(x, dtype=float))


_SUBDIVISION_BUDGET = 4096  # per accepted step; guards runaway motion


def _subdivide(make_dense, t0, x0, t1, x1, max_dx, ts, xs) -> None:
    """Append samples on (t0, t1] so consecutive states differ <= max_dx.

    ``make_dense`` builds the step's interpolant; it is called once, at
    the first split, and not at all for a step that needs none.
    Splitting is budgeted per step: a step whose displacement exceeds
    the budget times max_dx (escaping solutions, or a wildly small
    max_dx) is emitted at budget resolution rather than ground to dust.
    """
    budget = _SUBDIVISION_BUDGET
    dense = None
    stack = [(t0, x0, t1, x1)]
    while stack:
        ta, xa, tb, xb = stack.pop()
        if (
            float(np.linalg.norm(xb - xa)) <= max_dx
            or tb - ta < 1e-13 * max(1.0, tb)
            or budget <= 0
        ):
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


def _check_bounds(t: float, x: np.ndarray, opts: IntegratorOptions) -> None:
    if not np.all(np.isfinite(x)):
        raise StiffnessError(f"non-finite state at t ~ {t:.6g}")
    if float(np.linalg.norm(x)) > opts.bound:
        raise FiniteEscapeError(t, np.array(x), opts.bound)


def _run_mode(system: SwitchedSystem, gamma: int, t0: float, x0: np.ndarray, t_end: float,
              opts: IntegratorOptions, stats: IntegratorStats, ts: list, xs: list,
              rule: FeedbackRule | None = None):
    """Advance mode gamma from (t0, x0) to t_end, sampling as we go.

    With a feedback ``rule``, the run stops at the first accepted step
    whose end the rule assigns to another mode, at the crossing located
    inside that step.  Returns (t, x, stopped_at_crossing).
    """
    f = system.field(gamma)

    def rhs(t, y):
        out = np.asarray(f(y), dtype=float)
        if not np.all(np.isfinite(out)):
            # raised from the field itself so that the solver's constructor,
            # which evaluates it at the start state, is covered too
            raise StiffnessError(f"vector field returned non-finite values at t ~ {t:.6g}")
        return out

    solver = DOP853(rhs, t0, np.asarray(x0, dtype=float), t_end,
                    rtol=opts.rtol, atol=opts.atol)
    t_prev, x_prev = t0, np.asarray(x0, dtype=float)
    crossed = False
    while solver.status == "running" and not crossed:
        message = solver.step()
        if solver.status == "failed":
            raise StiffnessError(f"stepper failed at t ~ {solver.t:.6g}: {message}")
        stats.n_steps += 1
        stats.error_bound_sum += opts.atol + opts.rtol * float(np.linalg.norm(solver.y, np.inf))
        _check_bounds(solver.t, solver.y, opts)
        t_new, x_new, make_dense = solver.t, solver.y, solver.dense_output
        if rule is not None and rule(x_new) != gamma:
            dense = solver.dense_output()
            t_new, x_new = _locate_crossing(dense, rule, gamma, t_prev, t_new, opts.event_tol)
            make_dense, crossed = (lambda: dense), True
        _subdivide(make_dense, t_prev, x_prev, t_new, x_new, opts.max_dx, ts, xs)
        t_prev, x_prev = t_new, x_new
    stats.n_rhs += solver.nfev
    return t_prev, x_prev, crossed


def integrate(
    system: SwitchedSystem,
    x0: Sequence[float],
    signal: SwitchingSignal,
    opts: IntegratorOptions = IntegratorOptions(),
) -> Trajectory:
    """Integrate under a prescribed switching signal.

    Every switch time is an exact mesh point (the stepper restarts
    there), so downstream checks can read states at switch times without
    interpolation.
    """
    x, stats, ts, xs = _start(system, x0)
    for ta, tb, gamma in signal.segments():
        if tb > ta:
            _, x, _ = _run_mode(system, gamma, ta, x, tb, opts, stats, ts, xs)
    _emit(ts, xs, signal.horizon, x)
    return Trajectory(np.array(ts), np.array(xs), signal, stats)


def _locate_crossing(dense, rule: FeedbackRule, gamma: int, t_lo: float, t_hi: float,
                     event_tol: float) -> tuple[float, np.ndarray]:
    """Bisect the active-region boundary over one accepted step.

    Precondition: rule(dense(t_lo)) == gamma != rule(dense(t_hi)).
    Returns the earliest bracketed time at which the rule output changes,
    refined until the boundary value is small relative to event_tol.
    """
    b = rule.boundaries[gamma]
    lo, hi = t_lo, t_hi
    x_hi = dense(hi)
    for _ in range(200):
        window_ok = hi - lo <= event_tol
        value_ok = abs(float(b(x_hi))) <= 0.5 * event_tol * (1.0 + float(np.linalg.norm(x_hi)))
        if (window_ok and value_ok) or hi - lo <= 4e-16 * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if rule(dense(mid)) != gamma:
            hi = mid
            x_hi = dense(hi)
        else:
            lo = mid
    return hi, np.asarray(x_hi, dtype=float)


def integrate_feedback(
    system: SwitchedSystem,
    x0: Sequence[float],
    rule: FeedbackRule,
    horizon: float,
    opts: IntegratorOptions = IntegratorOptions(),
) -> Trajectory:
    """Integrate under state-feedback switching and emit the realized signal.

    The active mode runs until the rule's output changes across an
    accepted step; the crossing is then located by bisection on the
    active region's boundary function.  Crossings that do not change the
    rule output are not switches.
    """
    x0, stats, ts, xs = _start(system, x0)
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    gamma = rule(x0)
    switch_times: list[float] = []
    mode_seq: list[int] = [gamma]
    t, x = 0.0, x0

    while t < horizon:
        t, x, crossed = _run_mode(system, gamma, t, x, horizon, opts, stats, ts, xs, rule)
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
    """Verify that every field whose region contains 0 vanishes there."""
    zero = np.zeros(system.dimension)
    gamma_star = modes_containing_origin(system.covering, system.modes, system.dimension)
    residuals = {g: float(np.linalg.norm(system.rhs(zero, g))) for g in gamma_star}
    violators = {g: r for g, r in residuals.items() if r > _EQUILIBRIUM_TOL}
    worst = max(residuals.values()) if residuals else 0.0
    return CheckReport(
        "equilibrium-at-origin", not violators, worst=worst,
        witness=violators or None,
        details={"modes_containing_origin": gamma_star, "residuals": residuals},
    )


def check_covering_compliance(
    traj: Trajectory, covering: Covering, tol: float = 1e-6
) -> CheckReport:
    """Check b_{sigma(t)}(x(t)) <= tol at every sample.

    ``worst`` is the largest margin; ``details["violations"]`` lists the
    first 100 violating samples as (t, mode, margin), the first of them
    being the witness.
    """
    modes = traj.sample_modes
    margins = np.array([
        covering.margin(int(g), x) for g, x in zip(modes, traj.states)
    ])
    bad = np.nonzero(margins > tol)[0]
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
    """CSV with header ``t,x1,...,xn,sigma[,V]``, one row per sample."""
    n = traj.dimension
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) + ",sigma"
    if V is not None:
        header += ",V"
    modes = traj.sample_modes
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k in range(traj.times.size):
            row = [fmt17(traj.times[k])]
            row += [fmt17(v) for v in traj.states[k]]
            row.append(str(int(modes[k])))
            if V is not None:
                row.append(fmt17(V.value(traj.states[k], int(modes[k]))))
            fh.write(",".join(row) + "\n")


__all__ = [
    "ChatteringError",
    "Covering",
    "FeedbackRule",
    "FiniteEscapeError",
    "IntegratorOptions",
    "IntegratorStats",
    "StiffnessError",
    "SwitchedSystem",
    "Trajectory",
    "check_covering_compliance",
    "check_equilibrium",
    "integrate",
    "integrate_feedback",
    "modes_containing_origin",
    "write_trajectory_csv",
]
