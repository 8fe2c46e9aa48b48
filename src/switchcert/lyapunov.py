"""Sampled verification of multiple-Lyapunov-function conditions.

The conditions verified here quantify over all states, which is only
semi-decidable; every check in this module therefore evaluates on a
declared finite sample region and reports the worst case found.  A
passing report is falsification-style evidence, never a proof, and the
report objects say how many points they looked at.

Class-K sandwich bounds and the strict-decrease rate are emitted as
empirical radius-indexed tables (the measured min/max of V per radius
shell, and the measured worst Lie derivative per shell) rather than
fitted closed forms; :func:`fit_power_law` turns a table into a power
envelope when a closed form is wanted downstream.

The distinguishability probe tests output distinguishability only;
norm-observability is a strictly stronger property and has no checker
here.  It steps all starts of a mode together through
:func:`~switchcert.systems.advance_starts`, with the same steps and
peaks as one integration per start, and a probe whose starts all
escaped fails rather than passing on no evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .reports import CheckReport, fmt17
from .systems import (
    FiniteEscapeError,
    IntegratorOptions,
    SwitchedSystem,
    Trajectory,
    advance_starts,
    integrate,  # noqa: F401 -- unused, but perfbench's tracer wraps switchcert.lyapunov.integrate
    modes_containing_origin,
)


def finite_difference_gradient(
    value: Callable[[np.ndarray, int], float], x: np.ndarray, gamma: int
) -> np.ndarray:
    """Central differences with state-scaled step h = 1e-6 * (1 + |x|)."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (value(x + e, gamma) - value(x - e, gamma)) / (2.0 * h)
    return grad


@dataclass(frozen=True)
class LyapunovCandidate:
    """Candidate function V(x, gamma) with gradient access.

    When no gradient is supplied, central finite differences with a
    state-scaled step are used.
    """

    value: Callable[[np.ndarray, int], float]
    gradient: Callable[[np.ndarray, int], np.ndarray] | None = None

    def grad(self, x: np.ndarray, gamma: int) -> np.ndarray:
        if self.gradient is not None:
            return np.asarray(self.gradient(np.asarray(x, dtype=float), gamma), dtype=float)
        return finite_difference_gradient(self.value, x, gamma)


@dataclass(frozen=True)
class OutputFamily:
    """Per-mode continuous nonnegative output functions."""

    functions: Mapping[int, Callable[[np.ndarray], float]]

    def __call__(self, gamma: int, x: np.ndarray) -> float:
        return float(self.functions[gamma](np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class SampleRegion:
    """Deterministic annulus sample: radius shells plus scattered points.

    Shell points sit exactly on each radius of a geometric grid; in the
    plane the directions are evenly spaced angles (starting on the
    positive x1 axis so coordinate axes are hit), in higher dimension
    seeded random unit vectors.  Scattered points fill the annulus
    uniformly in radius.  Everything is a pure function of the seed.
    """

    r_min: float
    r_max: float
    n_radii: int = 20
    n_directions: int = 16
    n_random: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError(f"need 0 < r_min < r_max, got {self.r_min}, {self.r_max}")

    def radii(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.n_radii)

    def directions(self, dim: int) -> np.ndarray:
        if dim == 2:
            angles = np.linspace(0.0, 2.0 * np.pi, self.n_directions, endpoint=False)
            dirs = np.column_stack([np.cos(angles), np.sin(angles)])
            dirs[np.abs(dirs) < 1e-15] = 0.0  # land exactly on the axes
            return dirs
        rng = np.random.default_rng(self.seed)
        raw = rng.standard_normal((self.n_directions, dim))
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)

    def shell_points(self, dim: int) -> list[tuple[float, np.ndarray]]:
        dirs = self.directions(dim)
        return [(float(r), r * dirs) for r in self.radii()]

    def random_points(self, dim: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed + 1)
        r = rng.uniform(self.r_min, self.r_max, self.n_random)
        raw = rng.standard_normal((self.n_random, dim))
        return raw / np.linalg.norm(raw, axis=1, keepdims=True) * r[:, None]

    def all_points(self, dim: int) -> np.ndarray:
        shells = np.vstack([pts for _, pts in self.shell_points(dim)])
        return np.vstack([shells, self.random_points(dim)])


def fit_power_law(radii: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """Least-squares power fit values ~ c * r**p of a radius-indexed table.

    Returns (c, p, max relative residual).  All values must be strictly
    positive; intended for turning empirical envelope tables into closed
    forms when a downstream consumer needs one.
    """
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.size != v.size or r.size < 2:
        raise ValueError("need two same-length arrays with at least 2 entries")
    if not (np.all(r > 0.0) and np.all(v > 0.0)):
        raise ValueError("power fit requires strictly positive radii and values")
    design = np.column_stack([np.ones(r.size), np.log(r)])
    (log_c, p), *_ = np.linalg.lstsq(design, np.log(v), rcond=None)
    c = float(np.exp(log_c))
    residual = float(np.max(np.abs(c * r ** p / v - 1.0)))
    return c, float(p), residual


# -- pointwise checks -------------------------------------------------------


def lie_derivative(
    V: LyapunovCandidate, system: SwitchedSystem, x: np.ndarray, gamma: int
) -> float:
    """Directional derivative of V(., gamma) along the field of mode gamma."""
    x = np.asarray(x, dtype=float)
    return float(np.dot(V.grad(x, gamma), system.rhs(x, gamma)))


_GRADIENT_REL_TOL = 1e-4  # supplied vs central-difference gradient
_DECREASE_MARGIN = 1e-12  # roundoff allowance for the Lie derivative of a weak candidate


def check_gradient_consistency(
    V: LyapunovCandidate, system: SwitchedSystem, region: SampleRegion
) -> CheckReport:
    """Compare a supplied gradient against central differences."""
    if V.gradient is None:
        return CheckReport("gradient-consistency", True,
                           details={"note": "no supplied gradient; finite differences in use"})
    worst = 0.0
    witness = None
    pts = region.all_points(system.dimension)
    for gamma in system.modes.labels:
        for x in pts:
            g_sup = V.grad(x, gamma)
            g_fd = finite_difference_gradient(V.value, x, gamma)
            err = float(np.linalg.norm(g_sup - g_fd) / max(1.0, np.linalg.norm(g_sup)))
            if err > worst:
                worst, witness = err, (np.array(x), gamma)
    return CheckReport("gradient-consistency", worst <= _GRADIENT_REL_TOL, worst=worst,
                       witness=None if worst <= _GRADIENT_REL_TOL else witness,
                       details={"n_points": len(pts) * system.modes.size})


def check_decrease_on_covering(
    V: LyapunovCandidate, system: SwitchedSystem, region: SampleRegion
) -> CheckReport:
    """Lie derivative <= the roundoff margin at every sampled point of every region."""
    worst = -math.inf
    witness = None
    n_checked = 0
    pts = region.all_points(system.dimension)
    for gamma in system.modes.labels:
        for x in pts:
            if not system.covering.contains(gamma, x):
                continue
            n_checked += 1
            ld = lie_derivative(V, system, x, gamma)
            if ld > worst:
                worst, witness = ld, (np.array(x), gamma)
    return CheckReport("decrease-on-covering", worst <= _DECREASE_MARGIN, worst=worst,
                       witness=None if worst <= _DECREASE_MARGIN else witness,
                       details={"n_checked": n_checked, "margin": _DECREASE_MARGIN})


# -- radius-indexed envelope checks ------------------------------------------


@dataclass(frozen=True)
class EnvelopeReport:
    """Empirical class-K sandwich for V: per-radius min/max over the
    covering-admissible shell points, plus monotone regularizations
    (lower: running min from the right; upper: running max from the left)."""

    passed: bool
    radii: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    lower_regularized: np.ndarray
    upper_regularized: np.ndarray
    origin_values: Mapping[int, float]
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.passed

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("r,m,M\n")
            for r, m, M in zip(self.radii, self.lower, self.upper):
                fh.write(f"{fmt17(r)},{fmt17(m)},{fmt17(M)}\n")


def check_class_k_bounds(
    V: LyapunovCandidate, system: SwitchedSystem, region: SampleRegion
) -> EnvelopeReport:
    """Empirical check of the class-K sandwich on V.

    Passes iff the per-radius minimum stays strictly positive and
    V(0, gamma) = 0 for every mode whose region contains the origin.
    """
    lower, upper = [], []
    radii = region.radii()
    for r, pts in region.shell_points(system.dimension):
        vals = [
            V.value(x, gamma)
            for gamma in system.modes.labels
            for x in pts
            if system.covering.contains(gamma, x)
        ]
        lower.append(min(vals) if vals else math.nan)
        upper.append(max(vals) if vals else math.nan)
    lower = np.array(lower)
    upper = np.array(upper)
    origin = {
        g: float(V.value(np.zeros(system.dimension), g))
        for g in modes_containing_origin(system.covering, system.modes, system.dimension)
    }
    reasons = []
    if np.any(np.isnan(lower)):
        reasons.append("some radius shell has no covering-admissible sample")
    elif not np.all(lower > 0.0):
        r_bad = float(radii[int(np.argmin(lower))])
        reasons.append(f"lower envelope not strictly positive (min at r={r_bad:g})")
    if any(abs(v) > 1e-12 for v in origin.values()):
        reasons.append("V does not vanish at the origin for some admissible mode")
    return EnvelopeReport(
        passed=not reasons,
        radii=radii,
        lower=lower,
        upper=upper,
        lower_regularized=np.minimum.accumulate(lower[::-1])[::-1],
        upper_regularized=np.maximum.accumulate(upper),
        origin_values=origin,
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class StrictDecreaseReport:
    """Per-radius worst Lie derivative and the implied decrease rate."""

    passed: bool
    radii: np.ndarray
    worst: np.ndarray          # max Lie derivative on each shell
    rate: np.ndarray           # -worst, the empirical decrease-rate table

    def __bool__(self) -> bool:
        return self.passed

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("r,alpha3\n")
            for r, a in zip(self.radii, self.rate):
                fh.write(f"{fmt17(r)},{fmt17(a)}\n")


def check_strict_decrease(
    V: LyapunovCandidate, system: SwitchedSystem, region: SampleRegion
) -> StrictDecreaseReport:
    """Strict negativity of the Lie derivative on every radius shell."""
    worst = []
    for r, pts in region.shell_points(system.dimension):
        w = -math.inf
        for gamma in system.modes.labels:
            for x in pts:
                if not system.covering.contains(gamma, x):
                    continue
                w = max(w, lie_derivative(V, system, x, gamma))
        worst.append(w)
    worst = np.array(worst)
    return StrictDecreaseReport(
        passed=bool(np.all(worst < 0.0)),
        radii=region.radii(),
        worst=worst,
        rate=-worst,
    )


# -- along-trajectory checks --------------------------------------------------


def check_return_monotonicity(
    V: LyapunovCandidate, traj: Trajectory, tol: float = 1e-9
) -> CheckReport:
    """Two related monotonicity checks along one trajectory, as one report.

    ``details["across_switches"]`` compares, for every ordered pair of
    switch times with equal modes, the value at the later switch against
    the value at the end of the earlier same-mode interval.
    ``details["across_samples"]`` is the stronger all-sample-pairs check:
    V may never rise (beyond tol) between same-mode samples.  The second
    implies the first.  ``worst`` is the larger rise of the two, and the
    witness that of the sub-check which found it.
    """
    sig = traj.signal
    edge_times = np.concatenate([[0.0], sig.switch_times])

    # (a) switch-pair check, running minimum of interval-end values per mode
    worst_a, witness_a = -math.inf, None
    end_min: dict[int, float] = {}
    for i in range(edge_times.size):
        gamma = int(sig.modes[i])
        if gamma in end_min:
            v_start = V.value(traj.state_at_sample(float(edge_times[i])), gamma)
            rise = v_start - end_min[gamma]
            if rise > worst_a:
                worst_a, witness_a = rise, (float(edge_times[i]), gamma)
        if i + 1 < edge_times.size:  # interval i ends at the next switch
            t_end = float(edge_times[i + 1])
            v_end = V.value(traj.state_at_sample(t_end), gamma)
            end_min[gamma] = min(end_min.get(gamma, math.inf), v_end)
    if worst_a == -math.inf:
        worst_a = 0.0
    rep_a = CheckReport("return-decrease-across-switches", worst_a <= tol,
                        worst=worst_a, witness=None if worst_a <= tol else witness_a,
                        details={"n_switches": sig.n_switches, "tol": tol})

    # (b) all same-mode sample pairs, running minimum per mode
    worst_b, witness_b = -math.inf, None
    run_min: dict[int, tuple[float, float]] = {}  # mode -> (min V, its time)
    modes = traj.sample_modes
    for k in range(traj.times.size):
        gamma = int(modes[k])
        v = float(V.value(traj.states[k], gamma))
        t = float(traj.times[k])
        if gamma in run_min:
            v_min, t_min = run_min[gamma]
            rise = v - v_min
            if rise > worst_b:
                worst_b, witness_b = rise, (t_min, t, gamma)
            if v < v_min:
                run_min[gamma] = (v, t)
        else:
            run_min[gamma] = (v, t)
    if worst_b == -math.inf:
        worst_b = 0.0
    rep_b = CheckReport("same-mode-sample-monotonicity", worst_b <= tol,
                        worst=worst_b, witness=None if worst_b <= tol else witness_b,
                        details={"n_samples": int(traj.times.size), "tol": tol})
    top = rep_a if worst_a >= worst_b else rep_b
    return CheckReport("return-monotonicity", rep_a.passed and rep_b.passed, worst=top.worst,
                       witness=top.witness,
                       details={"across_switches": rep_a, "across_samples": rep_b})


# -- distinguishability probe --------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    """Falsification probe for zero small-time distinguishability.

    For each start away from the origin the mode is integrated over a
    short window and the largest output at the accepted steps recorded;
    the probe passes when at least one start was integrated and none
    keeps its output below the threshold.  Evidence only: a pass cannot
    certify the property.
    """

    passed: bool
    min_peak: float
    threshold: float
    witness: np.ndarray | None
    n_probed: int
    skipped: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


def distinguishability_probe(
    system: SwitchedSystem,
    W: OutputFamily,
    gamma: int,
    delta: float,
    region: SampleRegion,
    threshold: float | None = None,
    opts: IntegratorOptions | None = None,
) -> ProbeReport:
    """Probe whether mode gamma can hide at zero output away from 0.

    All starts are stepped together by :func:`~switchcert.systems.advance_starts`,
    which takes for each start exactly the steps a per-start
    :func:`~switchcert.systems.integrate` under the constant signal would;
    ``opts`` must therefore sample accepted steps only (``max_dx = inf``).
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if threshold is None:
        threshold = 1e-8 * region.r_min ** 2
    if opts is None:
        opts = IntegratorOptions(max_dx=math.inf)
    min_peak, witness = math.inf, None
    skipped = []
    starts = region.all_points(system.dimension)
    for x0, states in zip(starts, advance_starts(system, gamma, starts, delta, opts)):
        if isinstance(states, FiniteEscapeError):
            skipped.append(f"start {np.array2string(x0)} escaped at t~{states.escape_time:.3g}")
            continue
        peak = max(W(gamma, x) for x in states)
        if peak < min_peak:
            min_peak, witness = peak, np.array(x0)
    n_probed = len(starts) - len(skipped)
    passed = n_probed > 0 and min_peak >= threshold
    return ProbeReport(
        passed=passed,
        min_peak=min_peak,
        threshold=threshold,
        witness=None if passed else witness,
        n_probed=n_probed,
        skipped=tuple(skipped),
    )


__all__ = [
    "EnvelopeReport",
    "LyapunovCandidate",
    "OutputFamily",
    "ProbeReport",
    "SampleRegion",
    "StrictDecreaseReport",
    "check_class_k_bounds",
    "check_decrease_on_covering",
    "check_gradient_consistency",
    "check_return_monotonicity",
    "check_strict_decrease",
    "distinguishability_probe",
    "finite_difference_gradient",
    "fit_power_law",
    "lie_derivative",
]
