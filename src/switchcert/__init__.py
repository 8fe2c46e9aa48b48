"""switchcert: simulation and numerical certification of switched
nonlinear systems under average dwell-time switching.

The package is organized by concern:

- :mod:`switchcert.signals` -- switching signals, dwell-time classes,
  the integral signal metric, subsequence extraction;
- :mod:`switchcert.systems` -- vector-field families, coverings,
  piecewise and state-feedback integration;
- :mod:`switchcert.lyapunov` -- sampled multiple-Lyapunov checks and
  the distinguishability probe;
- :mod:`switchcert.invariance` -- omega-limit estimators and the
  LaSalle-style convergence certificate;
- :mod:`switchcert.stability` -- stability envelopes, attraction times,
  and the aggregate certification verdict;
- :mod:`switchcert.scenarios` -- built-in benchmark scenarios;
- :mod:`switchcert.cli` -- the ``switchcert`` command.
"""

from .signals import (
    AdtClass,
    ExtractionFailure,
    ModeSet,
    SwitchingSignal,
    extract_convergent_subsequence,
    generate_adt,
    signal_distance,
    validate_adt,
)
from .systems import (
    ChatteringError,
    Covering,
    FeedbackRule,
    FiniteEscapeError,
    IntegratorOptions,
    StiffnessError,
    SwitchedSystem,
    Trajectory,
    integrate,
    integrate_feedback,
)
from .lyapunov import LyapunovCandidate, OutputFamily, SampleRegion, lie_derivative
from .invariance import omega_limit, omega_sharp, project_states
from .stability import fit_kl_envelope, fit_uniform_envelope, guas_report
from .scenarios import Scenario, builtin_scenario

__version__ = "0.1.0"

__all__ = [
    "AdtClass",
    "ChatteringError",
    "Covering",
    "ExtractionFailure",
    "FeedbackRule",
    "FiniteEscapeError",
    "IntegratorOptions",
    "LyapunovCandidate",
    "ModeSet",
    "OutputFamily",
    "SampleRegion",
    "Scenario",
    "StiffnessError",
    "SwitchedSystem",
    "SwitchingSignal",
    "Trajectory",
    "builtin_scenario",
    "extract_convergent_subsequence",
    "fit_kl_envelope",
    "fit_uniform_envelope",
    "generate_adt",
    "guas_report",
    "integrate",
    "integrate_feedback",
    "lie_derivative",
    "omega_limit",
    "omega_sharp",
    "project_states",
    "signal_distance",
    "validate_adt",
]
