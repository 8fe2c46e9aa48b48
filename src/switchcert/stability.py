"""Empirical stability classification over trajectory batches.

A batch is the tuple of trajectories that ``simulate_batch`` runs for
one scenario; a batch-level check reads its horizon as the longest
horizon among the trajectories.

Uniform stability is probed by an overshoot table: restart the clock at
21 grid times spanning the first half of the horizon, bin the restart
radius, and record the largest subsequent norm per bin.  Asymptotic
decay is probed by fitting the exponential envelope
|x(t)| <= C |x(0)| exp(-lam t) in log space and then shifting C up until
every sample is covered, so the fitted envelope is sound on the batch by
construction; a failed fit (lam <= ln(2)/horizon) falls back to a
nonparametric decay table before non-decay is declared.

``guas_report`` composes every hypothesis check (equilibrium, covering,
weak-Lyapunov conditions, dwell-time regularity of the realized
signals, distinguishability probes) and every conclusion check (both
envelopes, uniform attraction time, convergence to the origin) into one
verdict, and keeps the class-K and overshoot tables it built so that
they are written from the same computation.  The verdict is evidential:
it reports what a finite batch showed, never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .invariance import lasalle_certify
from .lyapunov import (
    EnvelopeReport,
    check_class_k_bounds,
    check_decrease_on_covering,
    check_gradient_consistency,
    check_return_monotonicity,
    distinguishability_probe,
)
from .reports import CheckReport, fmt17, verdict, write_rows
from .scenarios import FeedbackSource, FileSource, GeneratedSource, Scenario
from .signals import generate_adt, validate_adt
from .systems import (
    Trajectory,
    check_covering_compliance,
    check_equilibrium,
    integrate,
    integrate_feedback,
    modes_containing_origin,
)


def simulate_batch(scenario: Scenario) -> tuple[Trajectory, ...]:
    """Run every trajectory a scenario's signal source prescribes.

    A feedback source yields one trajectory per initial condition; a
    file source one per signal and a generated source one per seed, each
    cycling through the initial-condition grid.
    """
    sys_, opts, src = scenario.system, scenario.integrator, scenario.source
    ics = scenario.initial_states
    if isinstance(src, FeedbackSource):
        return tuple(integrate_feedback(sys_, x0, src.rule, scenario.horizon, opts) for x0 in ics)
    signals = src.signals if isinstance(src, FileSource) else (
        generate_adt(seed, src.adt, sys_.modes, scenario.horizon) for seed in src.seeds)
    return tuple(integrate(sys_, ics[i % len(ics)], sig, opts) for i, sig in enumerate(signals))


def _restarts(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The restarts behind the overshoot table and the attraction check.

    For each of 21 grid times spanning the first half of the horizon: the
    time, |x| at the first sample at or after it, and the largest |x| from
    that sample on.
    """
    t0 = np.linspace(0.0, traj.horizon / 2.0, 21)
    k = np.searchsorted(traj.times, t0)
    suffix = np.maximum.accumulate(traj.norms[::-1])[::-1]
    return t0, traj.norms[k], suffix[k]


# -- uniform (overshoot) envelope ------------------------------------------------


@dataclass(frozen=True, eq=False)
class UniformEnvelope:
    """Overshoot table alpha(r) = worst sup_{t >= t0} |x(t)| per restart-radius bin."""

    passed: bool
    bin_edges: np.ndarray
    alpha: np.ndarray              # nan where the bin is empty
    alpha_regularized: np.ndarray
    zero_radius_sup: float
    margin: float
    n_pairs: int

    def __bool__(self) -> bool:
        return self.passed

    def to_csv(self, path) -> None:
        """Header ``r,alpha``, one row per populated bin: its upper edge and alpha."""
        full = np.flatnonzero(~np.isnan(self.alpha))
        write_rows(path, ["r", "alpha"], ["%.17g"] * 2,
                   [self.bin_edges[full + 1].tolist(), self.alpha[full].tolist()])


_OVERSHOOT_BINS = 20  # geometric restart-radius bins
_BIN_SLACK = 3.0  # allowed overshoot per unit of the smallest bin's upper edge


def fit_uniform_envelope(batch: tuple[Trajectory, ...]) -> UniformEnvelope:
    """Tabulate worst-case overshoot against restart radius.

    Passes iff the smallest populated bin's overshoot is at most
    ``_BIN_SLACK`` times that bin's upper edge (the sampled rendering of
    "alpha(r) -> 0 as r -> 0") and restarts at radius zero stay at zero.
    """
    if not all(np.all(np.isfinite(traj.norms)) for traj in batch):
        raise ValueError("batch contains an unbounded trajectory")
    _, r, sup = (np.concatenate(column) for column in zip(*map(_restarts, batch)))
    zero = r <= 1e-12
    zero_sup = float(sup[zero].max(initial=0.0))
    r, sup = r[~zero], sup[~zero]
    if r.size:
        lo, hi = float(r.min()), float(r.max())
        if hi <= lo:
            hi = lo * (1.0 + 1e-9)
        edges = np.geomspace(lo, hi, _OVERSHOOT_BINS + 1)
        edges[0] *= 1.0 - 1e-12
        which = np.clip(np.searchsorted(edges, r, side="left") - 1, 0, _OVERSHOOT_BINS - 1)
        alpha = np.full(_OVERSHOOT_BINS, math.nan)
        np.fmax.at(alpha, which, sup)
        filled = np.where(np.isnan(alpha), -math.inf, alpha)
        alpha_reg = np.maximum.accumulate(filled)
        alpha_reg[np.isinf(alpha_reg)] = math.nan
        first = int(np.nonzero(~np.isnan(alpha))[0][0])
        margin = _BIN_SLACK * float(edges[first + 1]) - float(alpha[first])
        passed = margin >= 0.0 and zero_sup <= 1e-9
    else:
        edges = np.array([0.0, 0.0])
        alpha = np.array([])
        alpha_reg = np.array([])
        margin = math.inf
        passed = zero_sup <= 1e-9
    return UniformEnvelope(
        passed=passed,
        bin_edges=edges,
        alpha=alpha,
        alpha_regularized=alpha_reg,
        zero_radius_sup=zero_sup,
        margin=margin,
        n_pairs=int(r.size),
    )


# -- exponential (KL) envelope ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class KLEnvelope:
    """Fitted decay envelope |x(t)| <= C |x(0)| exp(-lam t).

    ``worst_slack`` is the smallest pointwise log-space slack after the
    covering shift (nonnegative whenever the fit succeeded).  When the
    least-squares rate comes out nonpositive, ``table_decay`` holds the
    nonparametric fallback: the late-window worst norm ratio.
    """

    passed: bool
    C: float
    lam: float
    worst_slack: float
    degenerate: bool
    table_decay: float | None
    n_samples: int

    def __bool__(self) -> bool:
        return self.passed


_KL_FLOOR = 1e-9  # norms at or below it are the origin to the KL fit


def fit_kl_envelope(batch: tuple[Trajectory, ...]) -> KLEnvelope:
    """Least-squares exponential envelope over every batch sample.

    Samples below ``_KL_FLOOR`` (and trajectories starting there) are
    excluded from the fit; a batch with nothing above the floor is
    degenerate and trivially covered.  After fitting, C is raised until
    the envelope dominates every sample, so slack is nonnegative by
    construction.

    The fit only counts as success when the rate is significantly
    positive: above ln(2)/horizon (the envelope must halve over the
    run).  On a norm-conserving batch the raw least-squares rate is
    integrator noise of either sign, so a plain ``lam > 0`` test would be
    a coin flip; the floor makes non-decay deterministic.  An
    insignificant rate falls back to the nonparametric late-window decay
    table, which passes when every norm in the last tenth of the horizon
    is at most 0.05 times its start norm, before non-decay is declared.
    """
    ts, ys = [], []
    for traj in batch:
        r0 = float(traj.norms[0])
        if r0 <= _KL_FLOOR:
            continue
        keep = traj.norms > _KL_FLOOR
        ts.append(traj.times[keep])
        ys.append(np.log(traj.norms[keep] / r0))
    if not ts:
        return KLEnvelope(passed=True, C=1.0, lam=math.inf, worst_slack=math.inf,
                          degenerate=True, table_decay=None, n_samples=0)
    t = np.concatenate(ts)
    y = np.concatenate(ys)
    design = np.column_stack([np.ones_like(t), -t])
    (log_c, lam), *_ = np.linalg.lstsq(design, y, rcond=None)
    lam = float(lam)
    if lam <= math.log(2.0) / max(traj.horizon for traj in batch):
        # fallback: nonparametric late-window decay ratio
        ratios = []
        for traj in batch:
            r0 = float(traj.norms[0])
            if r0 <= _KL_FLOOR:
                continue
            late = traj.times >= 0.9 * traj.horizon
            ratios.append(float(traj.norms[late].max() / r0))
        table_decay = max(ratios)
        return KLEnvelope(passed=table_decay <= 0.05, C=math.nan, lam=lam, worst_slack=math.nan,
                          degenerate=False, table_decay=table_decay,
                          n_samples=int(t.size))
    shift = float(np.max(y + lam * t))
    log_c = max(float(log_c), shift, 0.0)
    slack = log_c - shift  # >= 0 by construction of the shift
    return KLEnvelope(passed=True, C=float(math.exp(log_c)), lam=lam,
                      worst_slack=slack, degenerate=False, table_decay=None,
                      n_samples=int(t.size))


# -- uniform attraction time -------------------------------------------------------


def check_uniform_attraction(batch: tuple[Trajectory, ...], radius: float,
                             eps: float) -> CheckReport:
    """Measure a batch-uniform settling time into the eps ball.

    For every trajectory and restart time with |x(t0)| < radius, find
    when the suffix norm drops below eps for good.  ``worst`` is T_hat,
    the smallest of 201 grid times spanning the horizon that dominates
    all such delays, or +inf when some restart never settles within the
    horizon; the witness is then (restart time, trajectory index).
    ``details["n_restarts"]`` counts the restarts that qualified.
    """
    needed = 0.0
    details = {"radius": radius, "eps": eps, "n_restarts": 0}
    for k, traj in enumerate(batch):
        t0, r0, _ = _restarts(traj)
        t0 = t0[~(r0 >= radius)]
        if not t0.size:
            continue
        settled = np.flatnonzero(np.maximum.accumulate(traj.norms[::-1])[::-1] < eps)
        if not settled.size:
            details["n_restarts"] += 1
            return CheckReport("uniform-attraction", False, worst=math.inf,
                               witness=(float(t0[0]), k), details=details)
        details["n_restarts"] += t0.size
        needed = max(needed, float(traj.times[settled[0]] - t0[0]))
    grid = np.linspace(0.0, max(traj.horizon for traj in batch), 201)
    feasible = grid[grid >= needed]
    return CheckReport("uniform-attraction", feasible.size > 0,
                       worst=float(feasible.min()) if feasible.size else math.inf,
                       details=details)


# -- aggregate verdict ---------------------------------------------------------------


@dataclass(frozen=True)
class ReportEntry:
    section: str  # "hypothesis" | "conclusion"
    name: str
    passed: bool
    summary: str
    data: Mapping[str, object]


@dataclass(frozen=True, eq=False)
class AggregateReport:
    """Composed certification verdict for one scenario.

    ``hypotheses_ok`` states that every sampled hypothesis check passed;
    ``guas_observed`` that every convergence conclusion was observed on
    the batch.  Both are statements about the declared batch and sample
    regions only.  ``classk`` and ``uniform`` are the class-K sandwich
    and overshoot tables behind two of the entries.
    """

    scenario: str
    batch_size: int
    signal_source: str
    entries: tuple[ReportEntry, ...]
    hypotheses_ok: bool
    guas_observed: bool
    classk: EnvelopeReport
    uniform: UniformEnvelope

    def to_text(self) -> str:
        lines = [
            f"certification report: scenario={self.scenario}",
            f"batch: {self.batch_size} trajectories, signals={self.signal_source}",
            "",
            "hypothesis checks (sampled evidence, not proof):",
        ]
        for e in self.entries:
            if e.section == "hypothesis":
                lines.append(f"  [{'pass' if e.passed else 'FAIL'}] {e.name}: {e.summary}")
        lines.append("conclusion checks:")
        for e in self.entries:
            if e.section == "conclusion":
                lines.append(f"  [{'pass' if e.passed else 'FAIL'}] {e.name}: {e.summary}")
        lines.append("")
        lines.append(f"hypotheses established on samples: {'yes' if self.hypotheses_ok else 'no'}")
        lines.append(f"GUAS observed on batch: {'yes' if self.guas_observed else 'no'}")
        if self.hypotheses_ok and not self.guas_observed:
            lines.append(
                "note: hypothesis checks passed but convergence was not observed; "
                "the candidate attracting set is not established as maximal "
                "weakly-invariant (nontrivial invariant sets likely exist)."
            )
        return "\n".join(lines) + "\n"

    def to_records(self) -> list[str]:
        rec = [
            f"scenario={self.scenario}",
            f"batch_size={self.batch_size}",
            f"signal_source={self.signal_source}",
            f"hypotheses_ok={int(self.hypotheses_ok)}",
            f"guas_observed={int(self.guas_observed)}",
        ]
        for e in self.entries:
            key = f"{e.section}.{e.name}"
            rec.append(f"{key}.passed={int(e.passed)}")
            for k, v in e.data.items():
                if isinstance(v, float):
                    v = fmt17(v)
                rec.append(f"{key}.{k}={v}")
        return rec


def _fold(check, batch: tuple[Trajectory, ...], tol: float) -> CheckReport:
    """:func:`verdict` over the worsts of ``check(traj, tol)`` on every trajectory;
    a failing fold's witness is (trajectory index, that report's witness)."""
    reports = [check(traj, tol) for traj in batch]
    return verdict("batch", [-math.inf, *(rep.worst for rep in reports)], tol,
                   lambda i: (i - 1, reports[i - 1].witness), {})


def _entry(section: str, name: str, passed: bool, summary: str, **data) -> ReportEntry:
    return ReportEntry(section, name, bool(passed), summary, data)


def _feedback_adt_entries(batch: tuple[Trajectory, ...]) -> list[ReportEntry]:
    """Dwell-time regularity of realized feedback signals.

    tau_d is taken as half the smallest measured inter-switch gap per
    signal (chatter bound 1), and the measured gaps must agree within
    10% across the batch.
    """
    # each signal lies in class(gap / 2, 1) of its own min gap (k + 1 switches span at
    # least k * gap, within the bound 1 + k * gap / (gap / 2) = 1 + 2k), so the spread
    # of the gaps alone decides; a gap is inf below 2 switches
    gaps = [gap for traj in batch if not math.isinf(gap := traj.signal.min_switch_gap())]
    if not gaps:
        return [_entry("hypothesis", "adt-regularity", True,
                       "no realized signal switched twice; dwell-time vacuous",
                       n_signals=len(batch))]
    spread = max(gaps) / min(gaps) - 1.0
    return [_entry(
        "hypothesis", "adt-regularity", spread <= 0.10,
        f"min gap {min(gaps):.6g}, max {max(gaps):.6g}, spread {100 * spread:.2f}%",
        min_gap=min(gaps), max_gap=max(gaps), spread=spread,
        tau_d=min(gaps) / 2.0, n0=1,
    )]


def guas_report(scenario: Scenario, batch: tuple[Trajectory, ...] | None = None) -> AggregateReport:
    """Compose all hypothesis and conclusion checks into one verdict.

    The tolerances a scenario's ``checks`` do not hold are fixed in the
    checks themselves.
    """
    if batch is None:
        batch = simulate_batch(scenario)
    sys_, V, checks = scenario.system, scenario.V, scenario.checks
    region = scenario.region
    entries: list[ReportEntry] = []

    eq = check_equilibrium(sys_)
    entries.append(_entry("hypothesis", "equilibrium", eq.passed,
                          f"worst |f(0)| = {eq.worst:.3g}", worst=eq.worst))

    union = sys_.covering.check_union(region.all_points(sys_.dimension))
    entries.append(_entry("hypothesis", "covering-union", union.passed,
                          f"worst membership margin {union.worst:.3g}", worst=union.worst))

    compliance = _fold(lambda traj, tol: check_covering_compliance(traj, sys_.covering, tol),
                       batch, checks.compliance_tol)
    entries.append(_entry("hypothesis", "covering-compliance", compliance.passed,
                          f"worst boundary margin {compliance.worst:.3g} over batch",
                          worst=compliance.worst, tol=checks.compliance_tol))

    classk = check_class_k_bounds(V, sys_, region)
    entries.append(_entry("hypothesis", "class-k-bounds", classk.passed,
                          "; ".join(classk.reasons) if classk.reasons
                          else f"lower envelope min {float(np.nanmin(classk.lower)):.3g}",
                          lower_min=float(np.nanmin(classk.lower))))

    dec = check_decrease_on_covering(V, sys_, region)
    entries.append(_entry("hypothesis", "decrease-on-covering", dec.passed,
                          f"worst Lie derivative {dec.worst:.3g}",
                          worst=dec.worst, margin=dec.details["margin"]))

    grad = check_gradient_consistency(V, sys_, region)
    entries.append(_entry("hypothesis", "gradient-consistency", grad.passed,
                          f"worst relative error {grad.worst if grad.worst is not None else 0.0:.3g}",
                          worst=grad.worst if grad.worst is not None else 0.0))

    mono = _fold(lambda traj, tol: check_return_monotonicity(V, traj, tol), batch,
                 checks.monotonicity_tol)
    entries.append(_entry("hypothesis", "return-monotonicity", mono.passed,
                          f"worst same-mode rise {mono.worst:.3g}",
                          worst=mono.worst, tol=checks.monotonicity_tol))

    if isinstance(scenario.source, FeedbackSource):
        entries.extend(_feedback_adt_entries(batch))
    elif isinstance(scenario.source, GeneratedSource):
        adt = scenario.source.adt
        ok = all(validate_adt(t.signal, adt) for t in batch)
        entries.append(_entry("hypothesis", "adt-regularity", ok,
                              f"all signals in class(tau_d={adt.tau_d:g}, n0={adt.n0})",
                              tau_d=adt.tau_d, n0=adt.n0))

    if scenario.W is not None:
        for gamma in sys_.modes.labels:
            probe = distinguishability_probe(sys_, scenario.W, gamma, checks.probe_delta, region,
                                             opts=scenario.integrator)
            entries.append(_entry(
                "hypothesis", f"distinguishability-mode{gamma}", probe.passed,
                f"min output peak {probe.min_peak:.3g} over {probe.n_probed} starts "
                f"(threshold {probe.threshold:.3g})",
                min_peak=probe.min_peak, threshold=probe.threshold,
            ))

    uniform = fit_uniform_envelope(batch)
    entries.append(_entry("conclusion", "uniform-envelope", uniform.passed,
                          f"overshoot margin {uniform.margin:.3g} at smallest bin",
                          margin=uniform.margin))

    kl = fit_kl_envelope(batch)
    if kl.degenerate:
        summary = "degenerate batch (all samples at the origin)"
    elif kl.table_decay is None:
        summary = f"C={kl.C:.4g}, lambda={kl.lam:.4g}, slack {kl.worst_slack:.3g}"
    else:
        summary = f"exponential fit failed (lambda={kl.lam:.3g}); late decay ratio {kl.table_decay:.3g}"
    entries.append(_entry("conclusion", "kl-envelope", kl.passed, summary,
                          lam=kl.lam, C=kl.C if not math.isnan(kl.C) else 0.0))

    radius = checks.attraction_radius
    if radius is None:
        radius = 1.01 * float(np.linalg.norm(scenario.initial_states, axis=1).max())
    attraction = check_uniform_attraction(batch, radius, checks.attraction_eps)
    entries.append(_entry("conclusion", "uniform-attraction", attraction.passed,
                          f"T_hat={attraction.worst:.4g} for radius {radius:g}, "
                          f"eps {checks.attraction_eps:g}",
                          T_hat=attraction.worst, radius=radius,
                          eps=checks.attraction_eps))

    origin = np.zeros((1, sys_.dimension))
    lasalle = _fold(lambda traj, tol: lasalle_certify(traj, origin, tol, checks.tail_fraction),
                    batch, checks.lasalle_tol)
    gamma_star = modes_containing_origin(sys_.covering, sys_.modes, sys_.dimension)
    entries.append(_entry("conclusion", "lasalle-origin", lasalle.passed,
                          f"worst tail distance to origin {lasalle.worst:.3g} "
                          f"(candidate {{0}} x {set(gamma_star)})",
                          sup_distance=lasalle.worst, tol=checks.lasalle_tol))

    hypotheses_ok = all(e.passed for e in entries if e.section == "hypothesis")
    guas_observed = all(e.passed for e in entries if e.section == "conclusion")
    return AggregateReport(
        scenario=scenario.name,
        batch_size=len(batch),
        signal_source=scenario.source.describe(),
        entries=tuple(entries),
        hypotheses_ok=hypotheses_ok,
        guas_observed=guas_observed,
        classk=classk,
        uniform=uniform,
    )


__all__ = [
    "AggregateReport",
    "KLEnvelope",
    "ReportEntry",
    "UniformEnvelope",
    "check_uniform_attraction",
    "fit_kl_envelope",
    "fit_uniform_envelope",
    "guas_report",
    "simulate_batch",
]
