"""Sampled verification of multiple-Lyapunov-function conditions.

The conditions verified here quantify over all states, which is only
semi-decidable; every check in this module therefore evaluates on a
declared finite sample region and reports the worst case found.  A
passing report is falsification-style evidence, never a proof, and the
report objects say how many points they looked at.

Class-K sandwich bounds and the strict-decrease rate are emitted as
empirical radius-indexed tables (the measured min/max of V per radius
shell, and the measured worst Lie derivative per shell) rather than
fitted closed forms.

The distinguishability probe tests output distinguishability only;
norm-observability is a strictly stronger property and has no checker
here.  It steps all starts of a mode together through
:func:`~switchcert.systems.advance_starts`, with the same steps and
peaks as one integration per start, and a probe whose starts all
escaped fails rather than passing on no evidence.

V, its gradient and the outputs W are row-wise scenario functions (see
:func:`~switchcert.systems.evaluate_rows`): every check here evaluates
them, and the fields and covering boundaries, once per mode on the whole
sample, with the same values as a loop over points.  Each check that
reduces one value per sample to a verdict does so through
:func:`~switchcert.reports.verdict`: it keeps the first worst sample in
scan order, and a NaN is worse than any number, so it fails the check
with the first NaN sample as witness.  The probe's per-start peaks and
the per-shell tables keep that rule per group, in one reduction over
(group, value) rows (:func:`_group_extremes`).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .reports import CheckReport, distinct, verdict, write_rows
from .systems import (
    IntegratorOptions,
    SwitchedSystem,
    Trajectory,
    advance_starts,
    evaluate_by_mode,
    evaluate_rows,
    integrate,  # noqa: F401 -- unused, but perfbench's tracer wraps switchcert.lyapunov.integrate
    modes_containing_origin,
    row_norms,
)


def finite_difference_gradient(
    value: Callable[[np.ndarray, int], float], x: np.ndarray, gamma: int
) -> np.ndarray:
    """Central differences with state-scaled step h = 1e-6 * (1 + |x|).

    Row-wise: at a stack (k, n) of states ``value`` is called on the
    whole stack, twice per coordinate.
    """
    x = np.ascontiguousarray(x, dtype=float)
    h = 1e-6 * (1.0 + row_norms(x))
    grad = np.empty_like(x)
    for i in range(x.shape[-1]):
        e = np.zeros_like(x)
        e[..., i] = h
        grad[..., i] = (evaluate_rows(value, x + e, gamma)
                        - evaluate_rows(value, x - e, gamma)) / (2.0 * h)
    return grad


@dataclass(frozen=True)
class LyapunovCandidate:
    """Candidate function V(x, gamma) with gradient access.

    ``value`` and ``gradient`` are row-wise (see
    :func:`~switchcert.systems.evaluate_rows`).  When no gradient is
    supplied, central finite differences with a state-scaled step are
    used.
    """

    value: Callable[[np.ndarray, int], float]
    gradient: Callable[[np.ndarray, int], np.ndarray] | None = None

    def grad(self, x: np.ndarray, gamma: int) -> np.ndarray:
        if self.gradient is not None:
            return evaluate_rows(self.gradient, x, gamma)
        return finite_difference_gradient(self.value, x, gamma)


@dataclass(frozen=True)
class OutputFamily:
    """Per-mode continuous nonnegative output functions, each row-wise."""

    functions: Mapping[int, Callable[[np.ndarray], float]]

    def __call__(self, gamma: int, x: np.ndarray) -> float | np.ndarray:
        """W_gamma at one state (a float) or at each row of a stack."""
        out = evaluate_rows(self.functions[gamma], x)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SampleRegion:
    """Deterministic annulus sample: radius shells plus scattered points.

    Shell points sit exactly on each radius of a geometric grid; in the
    plane the directions are evenly spaced angles (starting on the
    positive x1 axis so coordinate axes are hit), in higher dimension
    seeded random unit vectors.  Scattered points fill the annulus
    uniformly in radius: their radii r_min + (r_max - r_min) U come
    first, then their directions.  A random direction is a normalized
    vector of Box-Muller normals sqrt(-2 log(1 - U)) cos(2 pi U'), one
    pair of uniforms per coordinate.  Every U is drawn by
    ``random.Random(s).random()``, the one draw Python keeps
    reproducible for a seed across versions, with s = ``seed`` for the
    shell directions and ``seed + 1`` for the scattered points.
    Everything is a pure function of the seed.
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
        if operator.index(self.seed) < 0:  # Random(-s) would repeat Random(s)
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def radii(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.n_radii)

    def directions(self, dim: int) -> np.ndarray:
        if dim == 2:
            angles = np.linspace(0.0, 2.0 * np.pi, self.n_directions, endpoint=False)
            dirs = np.column_stack([np.cos(angles), np.sin(angles)])
            dirs[np.abs(dirs) < 1e-15] = 0.0  # land exactly on the axes
            return dirs
        return _unit_rows(random.Random(operator.index(self.seed)), self.n_directions, dim)

    def shell_points(self, dim: int) -> list[tuple[float, np.ndarray]]:
        dirs = self.directions(dim)
        return [(float(r), r * dirs) for r in self.radii()]

    def random_points(self, dim: int) -> np.ndarray:
        rng = random.Random(operator.index(self.seed) + 1)
        span = self.r_max - self.r_min
        r = np.array([self.r_min + span * rng.random() for _ in range(self.n_random)])
        return _unit_rows(rng, self.n_random, dim) * r[:, None]

    @lru_cache(maxsize=16)
    def all_points(self, dim: int) -> np.ndarray:
        """The shell points, shell by shell, then the scattered points: one
        read-only array per region and dimension, drawn at the first call."""
        shells = np.vstack([pts for _, pts in self.shell_points(dim)])
        points = np.vstack([shells, self.random_points(dim)])
        points.flags.writeable = False
        return points


def _unit_rows(rng: random.Random, rows: int, dim: int) -> np.ndarray:
    """``rows`` seeded unit vectors in R^dim, row by row and coordinate by
    coordinate: each a normalized vector of Box-Muller normals."""
    raw = np.array([math.sqrt(-2.0 * math.log(1.0 - rng.random()))
                    * math.cos(2.0 * math.pi * rng.random())
                    for _ in range(rows * dim)]).reshape(rows, dim)
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


# -- pointwise checks -------------------------------------------------------


def lie_derivative(
    V: LyapunovCandidate, system: SwitchedSystem, x: np.ndarray, gamma: int
) -> float | np.ndarray:
    """Directional derivative of V(., gamma) along the field of mode gamma,
    at one state (a float) or at each row of a stack."""
    x = np.asarray(x, dtype=float)
    ld = np.vecdot(V.grad(x, gamma), system.rhs(x, gamma))
    return float(ld) if x.ndim == 1 else ld


_GRADIENT_REL_TOL = 1e-4  # supplied vs central-difference gradient
_DECREASE_MARGIN = 1e-12  # roundoff allowance for the Lie derivative of a weak candidate


def _admissible(system: SwitchedSystem, pts: np.ndarray) -> dict[int, np.ndarray]:
    """Per mode, the indices of the points that lie in its covering region."""
    return {g: np.flatnonzero(system.covering.margin(g, pts) <= 0.0)
            for g in system.modes.labels}


def check_gradient_consistency(
    V: LyapunovCandidate, system: SwitchedSystem, region: SampleRegion
) -> CheckReport:
    """Compare a supplied gradient against central differences."""
    if V.gradient is None:
        return CheckReport("gradient-consistency", True,
                           details={"note": "no supplied gradient; finite differences in use"})
    pts = region.all_points(system.dimension)
    labels = system.modes.labels
    errors = []
    for gamma in labels:
        g_sup = V.grad(pts, gamma)
        g_fd = finite_difference_gradient(V.value, pts, gamma)
        errors.append(row_norms(g_sup - g_fd) / np.maximum(1.0, row_norms(g_sup)))
    errors = np.concatenate(errors)
    return verdict("gradient-consistency", errors, _GRADIENT_REL_TOL,
                   lambda i: (np.array(pts[i % len(pts)]), labels[i // len(pts)]),
                   {"n_points": errors.size})


def check_decrease_on_covering(
    V: LyapunovCandidate, system: SwitchedSystem, region: SampleRegion
) -> CheckReport:
    """Lie derivative <= the roundoff margin at every sampled point of every region.

    With no admissible point ``worst`` reads -inf.
    """
    pts = region.all_points(system.dimension)
    lie, where = [], []
    for gamma, inside in _admissible(system, pts).items():
        if inside.size:
            lie.append(lie_derivative(V, system, pts[inside], gamma))
            where += [(i, gamma) for i in inside.tolist()]
    return verdict("decrease-on-covering", np.concatenate([*lie, [-math.inf]]), _DECREASE_MARGIN,
                   lambda k: (np.array(pts[where[k][0]]), where[k][1]),
                   {"n_checked": len(where), "margin": _DECREASE_MARGIN})


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
        write_rows(path, ["r", "m", "M"], ["%.17g"] * 3,
                   [self.radii.tolist(), self.lower.tolist(), self.upper.tolist()])


def _shell_values(system: SwitchedSystem, region: SampleRegion,
                  values: Callable[[np.ndarray, int], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``values(points, gamma)`` at the covering-admissible shell points, in
    the order of a loop over modes, then points, as rows: each value's
    shell index, and the values."""
    per_shell = region.n_directions
    pts = region.all_points(system.dimension)[:region.n_radii * per_shell]
    shells, out = [], []
    for gamma, inside in _admissible(system, pts).items():
        shells.append(inside // per_shell)
        out.append(values(pts[inside], gamma) if inside.size else np.empty(0))
    return np.concatenate(shells), np.concatenate(out)


def _group_extremes(groups: np.ndarray, values: np.ndarray, n: int, largest: bool) -> np.ndarray:
    """Per group 0..n-1, the first largest (or least) of its ``values`` in
    their order, as a scan with a strict comparison keeps it, except that
    the first NaN wins; NaN for a group with no value."""
    order = np.argsort(groups, kind="stable")
    groups = groups[order]
    counts = np.bincount(groups, minlength=n)
    table = np.full((n, max(1, counts.max(initial=0))), -math.inf if largest else math.inf)
    table[groups, np.arange(groups.size) - (np.cumsum(counts) - counts)[groups]] = values[order]
    pick = np.argmax if largest else np.argmin  # both return the first NaN, else the first extremum
    return np.where(counts > 0, table[np.arange(n), pick(table, axis=1)], math.nan)


def check_class_k_bounds(
    V: LyapunovCandidate, system: SwitchedSystem, region: SampleRegion
) -> EnvelopeReport:
    """Empirical check of the class-K sandwich on V.

    Passes iff the per-radius minimum stays strictly positive and
    V(0, gamma) = 0 for every mode whose region contains the origin.
    """
    radii = region.radii()
    shells, values = _shell_values(system, region, lambda x, g: evaluate_rows(V.value, x, g))
    lower = _group_extremes(shells, values, radii.size, largest=False)
    upper = _group_extremes(shells, values, radii.size, largest=True)
    origin = {
        g: float(V.value(np.zeros(system.dimension), g))
        for g in modes_containing_origin(system.covering, system.modes, system.dimension)
    }
    reasons = []
    if not np.bincount(shells, minlength=radii.size).all():
        reasons.append("some radius shell has no covering-admissible sample")
    elif np.any(np.isnan(lower)):
        r_bad = float(radii[int(np.argmax(np.isnan(lower)))])
        reasons.append(f"V is NaN at a sampled point (first at r={r_bad:g})")
    elif not np.all(lower > 0.0):
        r_bad = float(radii[int(np.argmin(lower))])
        reasons.append(f"lower envelope not strictly positive (min at r={r_bad:g})")
    if not all(abs(v) <= 1e-12 for v in origin.values()):
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
        write_rows(path, ["r", "alpha3"], ["%.17g"] * 2, [self.radii.tolist(), self.rate.tolist()])


def check_strict_decrease(
    V: LyapunovCandidate, system: SwitchedSystem, region: SampleRegion
) -> StrictDecreaseReport:
    """Strict negativity of the Lie derivative on every radius shell.

    A shell's worst value is NaN when the Lie derivative is NaN at one of
    its points, and -inf when none of its points is admissible.
    """
    radii = region.radii()
    shells, lie = _shell_values(system, region, lambda x, g: lie_derivative(V, system, x, g))
    worst = np.where(np.bincount(shells, minlength=radii.size) > 0,
                     _group_extremes(shells, lie, radii.size, largest=True), -math.inf)
    return StrictDecreaseReport(
        passed=bool(np.all(worst < 0.0)),
        radii=radii,
        worst=worst,
        rate=-worst,
    )


# -- along-trajectory checks --------------------------------------------------


def _rises(starts: np.ndarray, ends: np.ndarray, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per entry k, ``starts[k]`` minus the least ``ends[j]`` over the earlier
    entries j of the same mode (-inf for a mode's first entry), and that
    j: the first one to reach the least value, as a running minimum with
    a strict comparison finds it.  A NaN end makes every later rise of
    its mode NaN."""
    rise = np.full(starts.size, -math.inf)
    low_at = np.zeros(starts.size, dtype=np.int64)
    for gamma in distinct(modes):
        idx = np.flatnonzero(modes == gamma)
        low = np.minimum.accumulate(ends[idx])
        rise[idx[1:]] = starts[idx[1:]] - low[:-1]
        new_low = np.concatenate(([True], ends[idx[1:]] < low[:-1]))
        first_at = np.maximum.accumulate(np.where(new_low, np.arange(idx.size), 0))
        low_at[idx[1:]] = idx[first_at[:-1]]
    return rise, low_at


def _paired(rise: np.ndarray) -> np.ndarray:
    """``rise``, or a single 0 when no entry has a same-mode predecessor (all -inf)."""
    return np.zeros(1) if np.max(rise) == -math.inf else rise


def check_return_monotonicity(V: LyapunovCandidate, traj: Trajectory, tol: float) -> CheckReport:
    """Two related monotonicity checks along one trajectory, as one report.

    ``details["across_switches"]`` compares, for every ordered pair of
    switch times with equal modes, the value at the later switch against
    the value at the end of the earlier same-mode interval.
    ``details["across_samples"]`` is the stronger all-sample-pairs check:
    V may never rise (beyond tol) between same-mode samples.  The second
    implies the first.  :func:`verdict` over the two decides: ``worst`` is
    the larger rise, and the witness that of the sub-check which found it.
    """
    sig = traj.signal

    def values(states: np.ndarray, modes: np.ndarray) -> np.ndarray:
        return evaluate_by_mode(lambda g, x: evaluate_rows(V.value, x, g), states, modes)

    # (a) switch-pair check: the value at each switch against the least
    # value at the end of an earlier interval of the same mode
    edge_times = np.concatenate([[0.0], sig.switch_times])
    edges = np.array([traj.state_at_sample(float(t)) for t in edge_times])
    ends = np.append(values(edges[1:], sig.modes[:-1]), math.inf)  # interval i ends at switch i+1
    rise_a, _ = _rises(values(edges, sig.modes), ends, sig.modes)
    rep_a = verdict("return-decrease-across-switches", _paired(rise_a), tol,
                    lambda i: (float(edge_times[i]), int(sig.modes[i])),
                    {"n_switches": sig.n_switches, "tol": tol})

    # (b) all same-mode sample pairs, running minimum per mode
    modes = traj.sample_modes
    v = values(traj.states, modes)
    rise_b, low_at = _rises(v, v, modes)
    rep_b = verdict("same-mode-sample-monotonicity", _paired(rise_b), tol,
                    lambda k: (float(traj.times[low_at[k]]), float(traj.times[k]), int(modes[k])),
                    {"n_samples": int(traj.times.size), "tol": tol})
    subs = (rep_a, rep_b)
    return verdict("return-monotonicity", [rep.worst for rep in subs], tol,
                   lambda i: subs[i].witness, {"across_switches": rep_a, "across_samples": rep_b})


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
    opts: IntegratorOptions = IntegratorOptions(),
) -> ProbeReport:
    """Probe whether mode gamma can hide at zero output away from 0.

    All starts are stepped together by :func:`~switchcert.systems.advance_starts`,
    which takes for each start exactly the steps a per-start
    :func:`~switchcert.systems.integrate` under the constant signal would
    and samples its accepted steps.  :func:`verdict` over the negated
    per-start peaks decides, so the least peak (the first NaN, if any)
    is ``min_peak``; with no start probed it is inf and the probe fails.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if threshold is None:
        threshold = 1e-8 * region.r_min ** 2
    starts = region.all_points(system.dimension)
    index, states, escapes = advance_starts(system, gamma, starts, delta, opts)
    probed = [k for k in range(len(starts)) if k not in escapes]
    peaks = np.empty(0)
    if probed:  # W needs at least one state
        peaks = _group_extremes(index, W(gamma, states), len(starts), largest=True)[probed]
    rep = verdict("distinguishability", np.append(-peaks, -math.inf), -threshold,
                  lambda i: np.array(starts[probed[i]]), {})
    return ProbeReport(
        passed=rep.passed and len(probed) > 0,
        min_peak=-rep.worst,
        threshold=threshold,
        witness=rep.witness,
        n_probed=len(probed),
        skipped=tuple(f"start {np.array2string(starts[k])} escaped at t~{e.escape_time:.3g}"
                      for k, e in sorted(escapes.items())),
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
    "lie_derivative",
]
