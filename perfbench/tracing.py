"""Spans and counters recorded around switchcert's layer calls.

The tracer replaces layer functions in the namespaces that call them
(``switchcert.cli``, ``switchcert.stability`` and, for the probe's
integrations, ``switchcert.lyapunov``), so the program's own files are
untouched.  A span is ``(id, parent id, name, start ns, end ns)``; spans
stay in memory until the run ends.  Counters are read off the values the
layers return, never estimated.

The duplicate class-K table and uniform envelope that ``cmd_run`` computes
after ``guas_report`` are left unwrapped on purpose: they show up in
``cli.run.self_s``.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import Counter, defaultdict


def _trajectory(layer: str):
    def harvest(counts: Counter, traj, args) -> None:
        counts[f"{layer}.steps"] += traj.stats.n_steps
        counts[f"{layer}.rhs"] += traj.stats.n_rhs
        counts[f"{layer}.events"] += traj.stats.n_events
        counts[f"{layer}.samples"] += traj.times.size
    return harvest


def _signal(counts: Counter, signal, args) -> None:
    counts["signals.generate_adt.calls"] += 1
    counts["signals.generate_adt.switches"] += signal.n_switches


def _file_bytes(layer: str):
    def harvest(counts: Counter, result, args) -> None:
        counts[f"{layer}.bytes"] += os.path.getsize(args[-1])
    return harvest


def _omega(counts: Counter, est, args) -> None:
    tail, clusters = int(est.counts.sum()), int(est.points.shape[0])
    counts["invariance.omega_limit.tail_points"] += tail
    counts["invariance.omega_limit.clusters"] += clusters
    counts["invariance.omega_limit.pair_bound"] += tail * clusters


def _probe(counts: Counter, report, args) -> None:
    counts["lyapunov.distinguishability_probe.n_probed"] += report.n_probed


def _probe_integrate(counts: Counter, traj, args) -> None:
    counts["lyapunov.probe.integrate_calls"] += 1


# (namespace the call is made from, attribute, span name, counter harvest)
WRAPS = [
    ("switchcert.cli", "simulate_batch", "stability.simulate_batch", None),
    ("switchcert.cli", "guas_report", "stability.guas_report", None),
    ("switchcert.cli", "omega_limit", "invariance.omega_limit", _omega),
    ("switchcert.cli", "omega_sharp", "invariance.omega_sharp", None),
    ("switchcert.cli", "write_trajectory_csv", "systems.write_trajectory_csv",
     _file_bytes("systems.write_trajectory_csv")),
    ("switchcert.cli", "save_signal", "signals.save_signal", _file_bytes("signals.save_signal")),
    ("switchcert.cli", "check_strict_decrease", "lyapunov.check_strict_decrease", None),
    ("switchcert.stability", "integrate", "systems.integrate", _trajectory("systems.integrate")),
    ("switchcert.stability", "integrate_feedback", "systems.integrate_feedback",
     _trajectory("systems.integrate_feedback")),
    ("switchcert.stability", "generate_adt", "signals.generate_adt", _signal),
    ("switchcert.stability", "validate_adt", "signals.validate_adt", None),
    ("switchcert.stability", "check_equilibrium", "systems.check_equilibrium", None),
    ("switchcert.stability", "check_covering_compliance", "systems.check_covering_compliance", None),
    ("switchcert.stability", "check_class_k_bounds", "lyapunov.check_class_k_bounds", None),
    ("switchcert.stability", "check_decrease_on_covering", "lyapunov.check_decrease_on_covering", None),
    ("switchcert.stability", "check_gradient_consistency", "lyapunov.check_gradient_consistency", None),
    ("switchcert.stability", "check_return_monotonicity", "lyapunov.check_return_monotonicity", None),
    ("switchcert.stability", "distinguishability_probe", "lyapunov.distinguishability_probe", _probe),
    ("switchcert.stability", "lasalle_certify", "invariance.lasalle_certify", None),
    ("switchcert.stability", "fit_uniform_envelope", "stability.fit_uniform_envelope", None),
    ("switchcert.stability", "fit_kl_envelope", "stability.fit_kl_envelope", None),
    ("switchcert.stability", "check_uniform_attraction", "stability.check_uniform_attraction", None),
    ("switchcert.lyapunov", "integrate", "lyapunov.probe.integrate", _probe_integrate),
]

SAMPLED_CHECKS = ("lyapunov.check_class_k_bounds", "lyapunov.check_strict_decrease",
                  "lyapunov.check_decrease_on_covering", "lyapunov.check_gradient_consistency")
ENVELOPES = ("stability.fit_uniform_envelope", "stability.fit_kl_envelope",
             "stability.check_uniform_attraction")

# per-layer metric -> (span names, "total" or "self"): median over traced jobs
TIMES = {
    "signals.generate_adt.s": (("signals.generate_adt",), "total"),
    "signals.validate_adt.s": (("signals.validate_adt",), "total"),
    "signals.save_signal.s": (("signals.save_signal",), "total"),
    "systems.integrate.s": (("systems.integrate",), "total"),
    "systems.integrate_feedback.s": (("systems.integrate_feedback",), "total"),
    "systems.write_trajectory_csv.s": (("systems.write_trajectory_csv",), "total"),
    "lyapunov.distinguishability_probe.s": (("lyapunov.distinguishability_probe",), "total"),
    "lyapunov.sampled_checks.s": (SAMPLED_CHECKS, "total"),
    "lyapunov.check_return_monotonicity.s": (("lyapunov.check_return_monotonicity",), "total"),
    "invariance.omega_limit.s": (("invariance.omega_limit",), "total"),
    "invariance.omega_sharp.s": (("invariance.omega_sharp",), "total"),
    "invariance.lasalle_certify.s": (("invariance.lasalle_certify",), "total"),
    "stability.simulate_batch.self_s": (("stability.simulate_batch",), "self"),
    "stability.guas_report.self_s": (("stability.guas_report",), "self"),
    "stability.envelopes.s": (ENVELOPES, "total"),
    "cli.run.self_s": (("cli.run",), "self"),
}

# per-layer counters: summed over one traced run of each input in the pool
COUNTS = [
    "signals.generate_adt.calls", "signals.generate_adt.switches", "signals.save_signal.bytes",
    "systems.integrate.steps", "systems.integrate.rhs", "systems.integrate.samples",
    "systems.integrate_feedback.steps", "systems.integrate_feedback.rhs",
    "systems.integrate_feedback.events", "systems.integrate_feedback.samples",
    "systems.write_trajectory_csv.bytes", "lyapunov.distinguishability_probe.n_probed",
    "lyapunov.probe.integrate_calls",
    "invariance.omega_limit.tail_points", "invariance.omega_limit.clusters",
    "invariance.omega_limit.pair_bound",
]

# metrics derived from measured ones rather than read off a single layer
COMPUTED = {"systems.integrate.ns_per_rhs", "systems.integrate_feedback.ns_per_step",
            "systems.steps_per_rhs", "invariance.omega_limit.pair_bound", "trace.overhead_s"}


class Tracer:
    """Installs span-recording wrappers and keeps spans and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, harvest in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, harvest))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, name, 0, 0))  # reserves the id in start order
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans[sid] = (sid, parent, name, start, time.perf_counter_ns())
            self._stack.pop()

    def _wrap(self, fn, name: str, harvest):
        def traced(*args, **kwargs):
            result = self.call(name, lambda: fn(*args, **kwargs))
            if harvest is not None:
                harvest(self.counts, result, args)
            return result
        return traced

    def take_counts(self) -> dict[str, int]:
        counts, self.counts = dict(self.counts), Counter()
        return counts

    def per_root(self) -> dict[int, dict[str, dict[str, float]]]:
        """Seconds per span name, total and self, for each root span's tree."""
        child_ns: Counter = Counter()
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        root_of: dict[int, int] = {}
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: {"total": Counter(), "self": Counter()})
        for sid, parent, name, start, end in self.spans:
            root = root_of[sid] = sid if parent is None else root_of[parent]
            out[root]["total"][name] += (end - start) / 1e9
            out[root]["self"][name] += (end - start - child_ns[sid]) / 1e9
        return out


def layer_metrics(tracer: Tracer, traced: list[tuple[int, float, dict[str, int]]],
                  untraced_walls: list[float], pool_counts: list[dict[str, int]]) -> dict[str, float]:
    """Per-layer metrics.

    ``traced`` holds ``(root span id, wall s, counters)`` per traced job;
    times and per-unit costs are medians over those jobs.  ``pool_counts``
    holds one traced job's counters per pool input; counters are summed
    over it, so they do not depend on how many jobs fit in the run.
    """
    trees = tracer.per_root()

    def median_over_jobs(fn) -> float:
        values = [v for v in (fn(trees[root], counts) for root, _, counts in traced) if v is not None]
        return statistics.median(values) if values else 0.0

    def ns_per(layer: str, unit: str):
        def fn(tree, counts):
            n = counts.get(f"{layer}.{unit}", 0)
            return tree["total"][layer] * 1e9 / n if n else None
        return fn

    metrics = {metric: median_over_jobs(lambda tree, _c, names=names, kind=kind:
                                        sum(tree[kind][n] for n in names))
               for metric, (names, kind) in TIMES.items()}
    totals: Counter = Counter()
    for counts in pool_counts:
        totals.update(counts)
    metrics.update({name: float(totals[name]) for name in COUNTS})
    metrics["systems.integrate.ns_per_rhs"] = median_over_jobs(ns_per("systems.integrate", "rhs"))
    metrics["systems.integrate_feedback.ns_per_step"] = median_over_jobs(
        ns_per("systems.integrate_feedback", "steps"))
    steps = totals["systems.integrate.steps"] + totals["systems.integrate_feedback.steps"]
    rhs = totals["systems.integrate.rhs"] + totals["systems.integrate_feedback.rhs"]
    metrics["systems.steps_per_rhs"] = steps / rhs if rhs else 0.0
    metrics["trace.overhead_s"] = (statistics.median(wall for _, wall, _ in traced)
                                   - statistics.median(untraced_walls))
    return metrics
