"""Scenario descriptions and the built-in benchmark systems.

A scenario bundles everything a certification run needs: the switched
system, the candidate Lyapunov function, optional output functions, the
switching-signal source, an initial-condition grid, the horizon, and
all tolerances.  Three scenarios ship with the package:

``example1``
    Planar pair of a stable focus and a rotation, switched by the state
    feedback "mode 1 on the open left half-plane, mode 2 on the closed
    right half-plane", with the matching half-plane covering and
    V(x, gamma) = |x|^2.  The rotation conserves V, the focus strictly
    dissipates it off the axis, and the feedback loop is expected to be
    globally uniformly asymptotically stable.

``example2``
    Planar pair of a damped rotation and a saturating radial pull, run
    under randomly generated average-dwell-time signals with the trivial
    covering, V(x, gamma) = |x|^2 / 2, and per-mode outputs whose Lie
    identities grad V . f_gamma = -W_gamma hold exactly.

``two_centers``
    Negative control: example1 with the focus replaced by a second copy
    of the rotation.  Every orbit is a circle, so the weak-Lyapunov
    hypotheses still hold while every convergence conclusion fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .lyapunov import LyapunovCandidate, OutputFamily, SampleRegion
from .reports import require_ranges
from .signals import AdtClass, ModeSet
from .systems import Covering, FeedbackRule, IntegratorOptions, SwitchedSystem


# -- vector field library -----------------------------------------------------


def spiral_focus(x: np.ndarray) -> np.ndarray:
    """Stable focus running counterclockwise (eigenvalues -1 +- i*sqrt(3))."""
    return np.array([-2.0 * x[0] - 2.0 * x[1], 2.0 * x[0]])


def rotation(x: np.ndarray) -> np.ndarray:
    """Unit-speed counterclockwise rotation; conserves |x|."""
    return np.array([-x[1], x[0]])


def damped_rotation(x: np.ndarray) -> np.ndarray:
    """Counterclockwise spiral with eigenvalues (-1 +- i*sqrt(3))/2."""
    return np.array([-x[0] - x[1], x[0]])


def saturating_pull(x: np.ndarray) -> np.ndarray:
    """Radial pull -x / (1 + |x|^4); decays slowly far from the origin."""
    r2 = float(x[0] * x[0] + x[1] * x[1])
    return -x / (1.0 + r2 * r2)


def half_plane_covering() -> Covering:
    """chi_1 = {x1 <= 0}, chi_2 = {x1 >= 0}."""
    return Covering({1: lambda x: float(x[0]), 2: lambda x: float(-x[0])})


def half_plane_rule() -> FeedbackRule:
    """Mode 1 strictly left of the x2 axis, mode 2 on and right of it."""
    return FeedbackRule(mode_of=lambda x: 1 if x[0] < 0.0 else 2,
                        boundaries=half_plane_covering().boundaries)


def squared_norm_candidate() -> LyapunovCandidate:
    return LyapunovCandidate(
        value=lambda x, g: float(np.dot(x, x)),
        gradient=lambda x, g: 2.0 * np.asarray(x, dtype=float),
    )


def half_squared_norm_candidate() -> LyapunovCandidate:
    return LyapunovCandidate(
        value=lambda x, g: 0.5 * float(np.dot(x, x)),
        gradient=lambda x, g: np.asarray(x, dtype=float),
    )


def example2_outputs() -> OutputFamily:
    def w2(x: np.ndarray) -> float:
        r2 = float(np.dot(x, x))
        return r2 / (1.0 + r2 * r2)

    return OutputFamily({1: lambda x: float(x[0]) ** 2, 2: w2})


# -- signal sources -----------------------------------------------------------


@dataclass(frozen=True)
class FeedbackSource:
    """One trajectory per initial condition, switching by state feedback."""

    rule: FeedbackRule

    def describe(self) -> str:
        return "feedback"


@dataclass(frozen=True)
class GeneratedSource:
    """One trajectory per seed under pseudo-random ADT signals."""

    adt: AdtClass
    seeds: tuple[int, ...]

    def describe(self) -> str:
        return (
            f"generated(tau_d={self.adt.tau_d:g}, n0={self.adt.n0}, "
            f"seeds={len(self.seeds)})"
        )


@dataclass(frozen=True)
class FileSource:
    """One trajectory per signal file."""

    paths: tuple[str, ...]

    def describe(self) -> str:
        return f"files({len(self.paths)})"


SignalSource = FeedbackSource | GeneratedSource | FileSource


# -- scenario ------------------------------------------------------------------


@dataclass(frozen=True)
class CheckSettings:
    """Tolerances and window parameters for the certification checks.

    The fields an INI ``[tolerances]`` section can set are range-checked
    here, so files and scenarios built in Python share one check.
    """

    equilibrium_tol: float = 1e-9
    compliance_tol: float = 1e-6
    decrease_margin: float = 1e-12
    monotonicity_tol: float = 1e-7
    gradient_rel_tol: float = 1e-4
    cluster_tol: float = 1e-2
    tail_fraction: float = 0.5
    lasalle_tol: float = 1e-2
    attraction_radius: float | None = None  # None: slightly above the largest |x0|
    attraction_eps: float = 0.1
    probe_delta: float = 0.1
    probe_threshold: float | None = None
    kl_floor: float = 1e-9
    n_radius_bins: int = 20
    bin_slack: float = 3.0

    def __post_init__(self) -> None:
        require_ranges(self, positive=("cluster_tol", "attraction_eps", "attraction_radius",
                                       "probe_delta"),
                       nonnegative=("compliance_tol", "lasalle_tol", "monotonicity_tol"))
        if not 0.0 < self.tail_fraction < 1.0:
            raise ValueError(f"tail_fraction must be in (0, 1), got {self.tail_fraction!r}")


@dataclass(frozen=True)
class Scenario:
    name: str
    system: SwitchedSystem
    V: LyapunovCandidate
    W: OutputFamily | None
    source: SignalSource
    initial_states: np.ndarray
    horizon: float
    integrator: IntegratorOptions = IntegratorOptions()
    checks: CheckSettings = CheckSettings()
    region: SampleRegion = SampleRegion(0.1, 3.0)

    def __post_init__(self) -> None:
        ics = np.atleast_2d(np.asarray(self.initial_states, dtype=float))
        if ics.shape[0] == 0 or ics.shape[1] != self.system.dimension:
            raise ValueError("initial_states must be a nonempty (k, n) grid")
        ics.setflags(write=False)
        object.__setattr__(self, "initial_states", ics)
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")


def polar_grid(radii, n_angles: int, phase: float = math.pi / 8.0) -> np.ndarray:
    """Planar grid of |radii| x n_angles points, angles offset by ``phase``
    so that no point starts exactly on a coordinate axis (for the default
    phase this holds up to 8 angles per radius)."""
    pts = []
    for r in np.atleast_1d(radii):
        for k in range(n_angles):
            a = phase + 2.0 * math.pi * k / n_angles
            pts.append([r * math.cos(a), r * math.sin(a)])
    return np.array(pts)


def _example1(**overrides) -> Scenario:
    modes = ModeSet(2)
    system = SwitchedSystem(
        dimension=2,
        fields={1: spiral_focus, 2: rotation},
        modes=modes,
        covering=half_plane_covering(),
    )
    base = Scenario(
        name="example1",
        system=system,
        V=squared_norm_candidate(),
        W=None,
        source=FeedbackSource(half_plane_rule()),
        initial_states=polar_grid(np.geomspace(0.25, 2.0, 4), 4),
        horizon=60.0,
        region=SampleRegion(0.1, 3.0),
    )
    return replace(base, **overrides) if overrides else base


def _example2(**overrides) -> Scenario:
    modes = ModeSet(2)
    system = SwitchedSystem(
        dimension=2,
        fields={1: damped_rotation, 2: saturating_pull},
        modes=modes,
        covering=Covering.trivial(modes),
    )
    base = Scenario(
        name="example2",
        system=system,
        V=half_squared_norm_candidate(),
        W=example2_outputs(),
        source=GeneratedSource(AdtClass(0.5, 2), seeds=tuple(range(32))),
        initial_states=polar_grid([2.0, 3.0], 4),
        horizon=100.0,
        checks=CheckSettings(attraction_eps=0.5, lasalle_tol=2e-2),
        region=SampleRegion(0.1, 3.0),
    )
    return replace(base, **overrides) if overrides else base


def _two_centers(**overrides) -> Scenario:
    modes = ModeSet(2)
    system = SwitchedSystem(
        dimension=2,
        fields={1: rotation, 2: rotation},
        modes=modes,
        covering=half_plane_covering(),
    )
    base = Scenario(
        name="two_centers",
        system=system,
        V=squared_norm_candidate(),
        W=None,
        source=FeedbackSource(half_plane_rule()),
        initial_states=polar_grid([0.5, 1.0], 4),
        horizon=60.0,
        region=SampleRegion(0.1, 3.0),
    )
    return replace(base, **overrides) if overrides else base


_BUILTINS: dict[str, Callable[..., Scenario]] = {
    "example1": _example1,
    "example2": _example2,
    "two_centers": _two_centers,
}


def register_scenario(name: str, builder: Callable[..., Scenario]) -> None:
    """Register a plug-in scenario builder under a new id."""
    if name in _BUILTINS:
        raise ValueError(f"scenario id {name!r} already registered")
    _BUILTINS[name] = builder


def builtin_scenario(name: str, **overrides) -> Scenario:
    """Instantiate a registered scenario, optionally overriding fields."""
    try:
        builder = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; known: {sorted(_BUILTINS)}")
    return builder(**overrides)


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


__all__ = [
    "CheckSettings",
    "FeedbackSource",
    "FileSource",
    "GeneratedSource",
    "Scenario",
    "builtin_scenario",
    "damped_rotation",
    "example2_outputs",
    "half_plane_covering",
    "half_plane_rule",
    "half_squared_norm_candidate",
    "polar_grid",
    "register_scenario",
    "rotation",
    "saturating_pull",
    "scenario_names",
    "spiral_focus",
    "squared_norm_candidate",
]
