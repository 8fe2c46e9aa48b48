"""Scenario descriptions and the built-in benchmark systems.

A scenario bundles everything a certification run needs: the switched
system, the candidate Lyapunov function, optional output functions, the
switching-signal source, an initial-condition grid, the horizon, and
all tolerances.  Every function a scenario holds is a module-level
function, never a lambda or closure, so scenarios pickle.  Every
function but the feedback rule's ``mode_of`` is row-wise: it takes one
state (n,) or a stack (k, n) of states and returns the per-row results,
each equal to the per-point call's to the last bit (see
:func:`~switchcert.systems.evaluate_rows`, which rejects a function
written for one state only).  The linear fields ``spiral_focus``,
``rotation`` and ``damped_rotation`` are
:class:`~switchcert.systems.LinearField` instances, declared by their
matrices, so the integrators take their exact flows; the damped rotation's
row sum (-1.0 a) + (-1.0 b) equals the hand-written -a - b to the bit.  The
other built-ins index the components of
``xt = x.T`` (``xt[0]``, ``xt[1]``) and stack results back with
``np.array([...]).T``, which adds about 0.2 us to a single-state call;
indexing ``x[..., 0]``, or unpacking ``a, b = x.T`` (which iterates the
array), costs several times that.  Sums of squares use ``np.vecdot``,
which equals a per-point ``np.dot`` bit for bit.  Three scenarios ship
with the package, as rows of one table:

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
from functools import partial
from typing import Callable

import numpy as np

from .lyapunov import LyapunovCandidate, OutputFamily, SampleRegion
from .reports import reduce_via_constructor, require_ranges
from .signals import AdtClass, ModeSet, SwitchingSignal
from .systems import Covering, FeedbackRule, IntegratorOptions, LinearField, SwitchedSystem


# -- vector field library -----------------------------------------------------


# stable focus running counterclockwise (eigenvalues -1 +- i*sqrt(3))
spiral_focus = LinearField(((-2.0, -2.0), (2.0, 0.0)))
# unit-speed counterclockwise rotation; conserves |x|
rotation = LinearField(((0.0, -1.0), (1.0, 0.0)))


# counterclockwise spiral with eigenvalues (-1 +- i*sqrt(3))/2
damped_rotation = LinearField(((-1.0, -1.0), (1.0, 0.0)))


def saturating_pull(x: np.ndarray) -> np.ndarray:
    """Radial pull -x / (1 + |x|^4); decays slowly far from the origin."""
    xt = x.T
    a, b = xt[0], xt[1]
    r2 = a * a + b * b
    return (-xt / (1.0 + r2 * r2)).T


def _left_margin(x: np.ndarray) -> float:
    return x.T[0]


def _right_margin(x: np.ndarray) -> float:
    return -x.T[0]


def _half_plane_mode(x: np.ndarray) -> int:
    return 1 if x[0] < 0.0 else 2


def half_plane_covering() -> Covering:
    """chi_1 = {x1 <= 0}, chi_2 = {x1 >= 0}."""
    return Covering({1: _left_margin, 2: _right_margin})


def half_plane_rule() -> FeedbackRule:
    """Mode 1 strictly left of the x2 axis, mode 2 on and right of it."""
    return FeedbackRule(mode_of=_half_plane_mode, boundaries=half_plane_covering().boundaries)


def _squared_norm(x: np.ndarray, gamma: int) -> float:
    return np.vecdot(x, x)


def _squared_norm_gradient(x: np.ndarray, gamma: int) -> np.ndarray:
    return 2.0 * np.asarray(x, dtype=float)


def _half_squared_norm(x: np.ndarray, gamma: int) -> float:
    return 0.5 * np.vecdot(x, x)


def _half_squared_norm_gradient(x: np.ndarray, gamma: int) -> np.ndarray:
    return np.asarray(x, dtype=float)


def squared_norm_candidate() -> LyapunovCandidate:
    return LyapunovCandidate(value=_squared_norm, gradient=_squared_norm_gradient)


def half_squared_norm_candidate() -> LyapunovCandidate:
    return LyapunovCandidate(value=_half_squared_norm, gradient=_half_squared_norm_gradient)


def _w1(x: np.ndarray) -> float:
    # squared per element as a Python float power (libm pow), which numpy's
    # x ** 2 (that is, x * x) differs from in the last bit of a few values
    a = np.asarray(x.T[0])
    return np.array([v ** 2 for v in a.ravel().tolist()]).reshape(a.shape)


def _w2(x: np.ndarray) -> float:
    r2 = np.vecdot(x, x)
    return r2 / (1.0 + r2 * r2)


def example2_outputs() -> OutputFamily:
    return OutputFamily({1: _w1, 2: _w2})


# -- signal sources -----------------------------------------------------------


@dataclass(frozen=True)
class FeedbackSource:
    """One trajectory per initial condition, switching by state feedback."""

    rule: FeedbackRule

    def describe(self) -> str:
        return "feedback"


@dataclass(frozen=True)
class GeneratedSource:
    """One trajectory per seed under pseudo-random ADT signals: ``count``
    signals, the i-th drawn with seed ``seed + i``."""

    adt: AdtClass
    count: int
    seed: int = 0

    def __post_init__(self) -> None:
        require_ranges(self, positive=("count",), nonnegative=("seed",))

    @property
    def seeds(self) -> range:
        return range(self.seed, self.seed + self.count)

    def describe(self) -> str:
        return f"generated(tau_d={self.adt.tau_d:g}, n0={self.adt.n0}, seeds={self.count})"


@dataclass(frozen=True)
class FileSource:
    """One trajectory per signal, as read from signal files; the
    :class:`Scenario` holding it checks each signal's horizon and modes."""

    signals: tuple[SwitchingSignal, ...]

    def __post_init__(self) -> None:
        if not self.signals:
            raise ValueError("signals must be nonempty")

    def describe(self) -> str:
        return f"files({len(self.signals)})"


SignalSource = FeedbackSource | GeneratedSource | FileSource


# -- scenario ------------------------------------------------------------------


@dataclass(frozen=True)
class CheckSettings:
    """Tolerances and window parameters for the certification checks.

    Every field is an INI ``[tolerances]`` key and is range-checked
    here, so files and scenarios built in Python share one check.
    """

    compliance_tol: float = 1e-6
    monotonicity_tol: float = 1e-7
    cluster_tol: float = 1e-2
    tail_fraction: float = 0.5
    lasalle_tol: float = 1e-2
    attraction_radius: float | None = None  # None: slightly above the largest |x0|
    attraction_eps: float = 0.1
    probe_delta: float = 0.1

    def __post_init__(self) -> None:
        require_ranges(self, positive=("cluster_tol", "attraction_eps", "attraction_radius",
                                       "probe_delta"),
                       nonnegative=("compliance_tol", "lasalle_tol", "monotonicity_tol"),
                       finite=("probe_delta",))
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

    __reduce__ = reduce_via_constructor

    def __post_init__(self) -> None:
        ics = np.atleast_2d(np.asarray(self.initial_states, dtype=float))
        if ics.shape[0] == 0 or ics.shape[1] != self.system.dimension:
            raise ValueError("initial_states must be a nonempty (k, n) grid")
        if not np.all(np.isfinite(ics)):
            raise ValueError("initial_states must be finite")
        ics.setflags(write=False)
        object.__setattr__(self, "initial_states", ics)
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        # the i-th file signal's faults start "signals[i]:", which the INI loader
        # turns into the i-th signal file of its paths line
        for i, sig in enumerate(self.source.signals if isinstance(self.source, FileSource) else ()):
            if sig.horizon != self.horizon:
                raise ValueError(f"signals[{i}]: horizon {sig.horizon} differs from the "
                                 f"scenario's {self.horizon}")
            if foreign := [g for g in sig.modes.tolist() if g not in self.system.modes]:
                raise ValueError(f"signals[{i}]: mode {foreign[0]} is not one of the system's "
                                 f"modes 1..{self.system.modes.size}")


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


_MODES = ModeSet(2)
_HALF_PLANE_FEEDBACK = dict(covering=half_plane_covering(), V=squared_norm_candidate(), W=None,
                            source=FeedbackSource(half_plane_rule()), horizon=60.0)

# What differs between the built-ins, all planar with two modes: the
# fields of modes 1 and 2, the covering, and the other Scenario fields.
_BUILTIN_TABLE = {
    "example1": dict(_HALF_PLANE_FEEDBACK, fields=(spiral_focus, rotation),
                     initial_states=polar_grid(np.geomspace(0.25, 2.0, 4), 4)),
    "example2": dict(fields=(damped_rotation, saturating_pull), covering=Covering.trivial(_MODES),
                     V=half_squared_norm_candidate(), W=example2_outputs(),
                     source=GeneratedSource(AdtClass(0.5, 2), count=32),
                     initial_states=polar_grid([2.0, 3.0], 4), horizon=100.0,
                     checks=CheckSettings(attraction_eps=0.5, lasalle_tol=2e-2)),
    "two_centers": dict(_HALF_PLANE_FEEDBACK, fields=(rotation, rotation),
                        initial_states=polar_grid([0.5, 1.0], 4)),
}


def _planar_builtin(name: str, fields, covering: Covering, **rest) -> Scenario:
    system = SwitchedSystem(2, dict(zip(_MODES.labels, fields)), _MODES, covering)
    return Scenario(name=name, system=system, **rest)


_BUILTINS: dict[str, Callable[[], Scenario]] = {
    name: partial(_planar_builtin, name, **row) for name, row in _BUILTIN_TABLE.items()
}


def register_scenario(name: str, builder: Callable[[], Scenario]) -> None:
    """Register a plug-in scenario builder, called with no arguments, under a new id.

    The scenario's functions must be row-wise, as the built-ins are (see
    the module docstring); the checks reject one that is not with a
    TypeError naming it.
    """
    if name in _BUILTINS:
        raise ValueError(f"scenario id {name!r} already registered")
    _BUILTINS[name] = builder


def builtin_scenario(name: str, **overrides) -> Scenario:
    """Instantiate a registered scenario, optionally overriding fields."""
    try:
        builder = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; known: {sorted(_BUILTINS)}")
    scenario = builder()
    return replace(scenario, **overrides) if overrides else scenario


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
