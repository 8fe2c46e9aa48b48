"""Switching signals as data.

A switching signal is a piecewise-constant, right-continuous map from
[0, horizon] into a finite mode set {1, ..., m}.  This module provides
construction and evaluation, the next-switch operators, average
dwell-time (ADT) validation and generation, an integral metric on
signals, convergent-subsequence extraction at finite sample size, and a
plain-text serialization format.

Times live on the extended half-line [0, +inf]; ``math.inf`` marks
exhausted switch indexes (a signal with N switches has its (N+1)-th
switch "at infinity").  Python floats already order and saturate
correctly on this one-point compactification, so no wrapper type is
used.

The ADT counting condition "every open interval (a, b) contains at most
n0 + (b - a)/tau_d switches" is checked only on intervals whose
endpoints approach switch times from outside.  For a piecewise-constant
count this is exhaustive: shrinking an interval towards the extreme
switch times it contains never decreases the count and never increases
the length, so a violation on an arbitrary interval implies one on a
switch-pair interval.  The pairs are screened in one suffix-maximum pass
over the switches, and only rows near the bound are tested pair by pair.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .reports import CheckReport, distinct, fmt17, median, read_utf8, reduce_via_constructor

INFINITY = math.inf


class ExtractionFailure(RuntimeError):
    """No convergent subsequence of the required length was found.

    A finite-sample effect, not a structural error: the input families
    are too spread out at the requested tolerance.  Carries diagnostics
    about where the selection collapsed.
    """

    def __init__(self, message: str, *, achieved: int, required: int, stage: str):
        super().__init__(message)
        self.achieved = achieved
        self.required = required
        self.stage = stage


@dataclass(frozen=True)
class ModeSet:
    """The finite label set {1, ..., size} with the discrete metric."""

    size: int

    def __post_init__(self) -> None:
        if not (isinstance(self.size, int) and self.size >= 1):
            raise ValueError(f"mode set size must be a positive integer, got {self.size!r}")

    @property
    def labels(self) -> range:
        return range(1, self.size + 1)

    def __contains__(self, gamma: int) -> bool:
        return 1 <= gamma <= self.size


@dataclass(frozen=True)
class AdtClass:
    """Average dwell-time class: at most ``n0 + length/tau_d`` switches
    in any open interval of that length."""

    tau_d: float
    n0: int

    def __post_init__(self) -> None:
        if not self.tau_d > 0:
            raise ValueError(f"tau_d must be positive, got {self.tau_d}")
        if not (isinstance(self.n0, int) and self.n0 >= 1):
            raise ValueError(f"n0 must be a positive integer, got {self.n0!r}")

    def bound(self, length: float) -> float:
        return self.n0 + length / self.tau_d


@dataclass(frozen=True, eq=False)
class SwitchingSignal:
    """Piecewise-constant right-continuous signal with explicit switches.

    ``switch_times`` holds the strictly increasing discontinuities
    t_1 < ... < t_N inside (0, horizon]; ``modes`` holds the N+1 active
    modes, ``modes[i]`` being the value on [t_i, t_{i+1}) with t_0 = 0.
    Consecutive modes must differ.  Instances are immutable and safe to
    share between tasks.
    """

    switch_times: np.ndarray
    modes: np.ndarray
    horizon: float

    __reduce__ = reduce_via_constructor

    def __post_init__(self) -> None:
        times = np.asarray(self.switch_times, dtype=float).reshape(-1)
        modes = np.asarray(self.modes, dtype=np.int64).reshape(-1)
        horizon = float(self.horizon)
        if not math.isfinite(horizon) or horizon < 0:
            raise ValueError(f"horizon must be finite and nonnegative, got {horizon}")
        if modes.size != times.size + 1:
            raise ValueError(
                f"need one more mode than switch times: {modes.size} modes, {times.size} switches"
            )
        if times.size:
            if not np.all(np.isfinite(times)):
                raise ValueError("switch times must be finite")
            if times[0] <= 0.0 or times[-1] > horizon:
                raise ValueError("switch times must lie in (0, horizon]")
            if not np.all(np.diff(times) > 0.0):
                raise ValueError("switch times must be strictly increasing")
        if np.any(modes[1:] == modes[:-1]):
            raise ValueError("consecutive modes must differ")
        times.setflags(write=False)
        modes.setflags(write=False)
        object.__setattr__(self, "switch_times", times)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "horizon", horizon)

    # -- evaluation ----------------------------------------------------

    @property
    def n_switches(self) -> int:
        return int(self.switch_times.size)

    def value_at(self, t: float) -> int:
        """Active mode at time t (right-continuous)."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        idx = int(np.searchsorted(self.switch_times, t, side="right"))
        return int(self.modes[idx])

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value_at` (no domain check, clamps via last mode)."""
        idx = np.searchsorted(self.switch_times, ts, side="right")
        return self.modes[idx]

    def segments(self) -> list[tuple[float, float, int]]:
        """Constancy intervals as (start, end, mode) covering [0, horizon]."""
        edges = np.concatenate([[0.0], self.switch_times, [self.horizon]])
        return [
            (float(edges[i]), float(edges[i + 1]), int(self.modes[i]))
            for i in range(self.modes.size)
            if edges[i + 1] > edges[i] or self.modes.size == 1
        ]

    def nth_switch_after(self, n: int, t: float) -> float:
        """The n-th switch time strictly greater than t (+inf if exhausted).

        n = 0 returns t itself.  t may be +inf, in which case every
        positive n maps to +inf.
        """
        if not (isinstance(n, int) and n >= 0):
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        if n == 0:
            return float(t)
        if math.isinf(t):
            return INFINITY
        if t < 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        idx = int(np.searchsorted(self.switch_times, t, side="right")) + n - 1
        if idx >= self.switch_times.size:
            return INFINITY
        return float(self.switch_times[idx])

    def gaps_to_next_switch(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized distance to the next switch strictly after each t."""
        idx = np.searchsorted(self.switch_times, ts, side="right")
        padded = np.concatenate([self.switch_times, [INFINITY]])
        return padded[idx] - np.asarray(ts, dtype=float)

    def min_switch_gap(self) -> float:
        """Smallest gap between consecutive switch times (+inf if < 2 switches)."""
        if self.n_switches < 2:
            return INFINITY
        return float(np.min(np.diff(self.switch_times)))

    def shift(self, s: float) -> "SwitchingSignal":
        """The time translate t -> value_at(t + s) on [0, horizon - s]."""
        if not 0.0 <= s <= self.horizon:
            raise ValueError(f"shift {s} outside [0, {self.horizon}]")
        keep = self.switch_times > s
        lead = self.values_at(np.array([s]))[0]
        return SwitchingSignal(
            self.switch_times[keep] - s,
            np.concatenate([[lead], self.modes[1:][keep]]),
            self.horizon - s,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SwitchingSignal):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and np.array_equal(self.switch_times, other.switch_times)
            and np.array_equal(self.modes, other.modes)
        )

    __hash__ = None  # type: ignore[assignment]

    @staticmethod
    def constant(mode: int, horizon: float) -> "SwitchingSignal":
        return SwitchingSignal(np.empty(0), np.array([mode]), horizon)


# -- average dwell-time validation --------------------------------------


def _row_violation(times: np.ndarray, adt: AdtClass, i: int) -> tuple[int, int] | None:
    """The first pair (i, j) whose enclosing interval violates the ADT
    bound, or None.  Pairs with j - i < n0 can never violate.

    Equality with the bound is valid; the relative guard keeps exact
    boundary cases (count == bound in real arithmetic) from flipping on
    the rounding of (t_j - t_i) / tau_d.
    """
    j0 = i + adt.n0
    bounds = adt.n0 + (times[j0:] - times[i]) / adt.tau_d
    bad = np.flatnonzero(np.arange(adt.n0 + 1, adt.n0 + 1 + bounds.size) > bounds * (1.0 + 1e-12))
    return (i, j0 + int(bad[0])) if bad.size else None


def _adt_violation(times: np.ndarray, adt: AdtClass, start: int = 0) -> tuple[int, int] | None:
    """First switch-index pair (i, j) with i >= start, in order, whose
    enclosing interval violates the ADT bound (see :func:`_row_violation`),
    or None.

    The row i = start is tested first (``generate_adt``'s repair resumes
    where it found the last violation, and usually finds the next one
    there).  The other rows are screened in one pass: with
    a_k = k - t_k / tau_d, the window i..j holds j - i + 1 switches, more
    than n0 + (t_j - t_i) / tau_d iff a_j - a_i > n0 - 1, so row i can
    violate only if the largest a_j with j >= i + n0 passes a_i by more
    than n0 - 1.  The screen admits rows within a guard band of that
    threshold, scaled by the sizes of k and t_k / tau_d (which cancel in
    a_k, so its rounding is theirs), and every admitted row is decided by
    the exact test of :func:`_row_violation`, in order.
    """
    n = times.size
    if n - start <= adt.n0:
        return None
    if (pair := _row_violation(times, adt, start)) is not None:
        return pair
    q = times[start:] / adt.tau_d
    a = np.arange(q.size) - q  # a_k with k counted from start
    reach = np.maximum.accumulate(a[::-1])[::-1]  # reach[m] = max(a[m:])
    # two a_k and their difference round within a few ulp of the largest k
    # and |t_k| / tau_d, which sit at the ends: times increase
    band = 64 * 2.0 ** -52 * (q.size + max(abs(q[0]), abs(q[-1])))
    rise = reach[1 + adt.n0:] - a[1:q.size - adt.n0]  # rows start + 1, ...
    for i in (start + 1 + np.flatnonzero(rise > adt.n0 - 1 - band)).tolist():
        if (pair := _row_violation(times, adt, i)) is not None:
            return pair
    return None


def validate_adt(signal: SwitchingSignal, adt: AdtClass) -> CheckReport:
    """Check that every open interval respects the ADT counting bound.

    Only intervals pinched onto switch-time pairs need checking (see the
    module docstring).  A failing report's witness is a tuple (a, b,
    count, bound) with count > bound: the violating pair widened by a
    small epsilon, so that the open interval itself violates the bound
    strictly.
    """
    pair = _adt_violation(signal.switch_times, adt)
    if pair is None:
        return CheckReport("adt-class", True)
    i, j = pair
    ti, tj = float(signal.switch_times[i]), float(signal.switch_times[j])
    count = j - i + 1
    margin = count - adt.bound(tj - ti)
    eps = min(1e-3, margin * adt.tau_d / 4.0)
    a, b = max(ti - eps, 0.0), tj + eps
    return CheckReport("adt-class", False, witness=(a, b, count, adt.bound(b - a)))


def generate_adt(
    seed: int,
    adt: AdtClass,
    modes: ModeSet,
    horizon: float,
) -> SwitchingSignal:
    """Draw a pseudo-random signal guaranteed to satisfy ``adt``.

    Every draw is a uniform U = ``random.Random(seed).random()``, the one
    draw Python keeps reproducible for a seed across versions.
    Inter-switch gaps are exponential with mean tau_d, -tau_d log(1 - U);
    any counting violations are then repaired by deleting the middle
    switch of the first violating window until none remain, which
    terminates because each deletion removes one switch.  After the
    deletion inside the pair (i, j) the scan resumes at i: a deletion
    never raises the count of any interval, and every window starting
    before i was valid.  The modes are then ``options[int(U *
    len(options))]``, the first over all labels and each later one over
    the labels other than the previous mode.  Deterministic for a fixed
    seed >= 0.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    seed = operator.index(seed)
    if seed < 0:  # Random(-s) would repeat Random(s)
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = random.Random(seed)
    gaps: list[float] = []
    total = 0.0
    while total <= horizon:
        g = -adt.tau_d * math.log(1.0 - rng.random())
        total += g
        gaps.append(g)
    times = np.cumsum(gaps)[:-1]  # last draw overshot the horizon
    times = times[times <= horizon]
    if times.size and modes.size < 2:
        raise ValueError("mode set must contain at least 2 modes to place switches")
    start = 0
    while (pair := _adt_violation(times, adt, start)) is not None:
        start, j = pair
        d = (start + j) // 2
        times = np.concatenate((times[:d], times[d + 1:]))
    labels = list(modes.labels)
    seq = [labels[int(rng.random() * len(labels))]]
    for _ in range(times.size):
        options = [g for g in labels if g != seq[-1]]
        seq.append(options[int(rng.random() * len(options))])
    return SwitchingSignal(times, np.array(seq), horizon)


# -- integral metric -----------------------------------------------------


def signal_distance(u: SwitchingSignal, v: SwitchingSignal, n_terms: int) -> float:
    """Weighted integral distance sum_{n=1}^{n_terms} 2^-n int_0^n rho(u, v).

    rho is the discrete metric on modes, so each integral is the total
    length on which the signals disagree; it is accumulated exactly from
    the merged piecewise-constant structure, with no quadrature.  Both
    signals are extended past their horizons by their final modes.  The
    truncation error relative to the infinite series is at most
    :func:`distance_tail_bound`.
    """
    if not (isinstance(n_terms, int) and n_terms >= 1):
        raise ValueError(f"n_terms must be a positive integer, got {n_terms!r}")
    end = float(n_terms)
    cuts = np.array(distinct(np.concatenate([
        [0.0, end],
        u.switch_times[u.switch_times < end],
        v.switch_times[v.switch_times < end],
        np.arange(1.0, end),
    ])))
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    differ = u.values_at(mids) != v.values_at(mids)
    seg_lengths = np.where(differ, np.diff(cuts), 0.0)
    # mismatch accumulated up to each integer endpoint 1..n_terms
    cum = np.concatenate([[0.0], np.cumsum(seg_lengths)])
    idx = np.searchsorted(cuts, np.arange(1.0, end + 0.5))
    mismatch_at = cum[idx]
    weights = np.ldexp(1.0, -np.arange(1, n_terms + 1))
    return float(np.dot(weights, mismatch_at))


def distance_tail_bound(n_terms: int) -> float:
    """Exact value of sum_{n > n_terms} 2^-n * n."""
    if not (isinstance(n_terms, int) and n_terms >= 1):
        raise ValueError(f"n_terms must be a positive integer, got {n_terms!r}")
    return float(np.ldexp(n_terms + 2, -n_terms))


# -- convergent subsequence extraction -----------------------------------


def _compactify(t: np.ndarray) -> np.ndarray:
    """Order-preserving homeomorphism [0, inf] -> [0, 1], t -> t/(1+t)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):  # inf / inf, which np.where replaces by 1
        return np.where(np.isinf(t), 1.0, t / (1.0 + t))


def _sequence_limit(values: Sequence[float]) -> float:
    """Estimate the limit of a convergent scalar sequence.

    Uses Wynn's rho algorithm, which is exact for sequences that are
    rational functions of the index (in particular constants and
    c1 + c2/(k + c3) tails).  Estimates from even rho columns are
    accepted while they stay within a widened hull of the data; the
    fallback is the last observed value.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("empty sequence")
    span = float(np.ptp(x))
    if span == 0.0 or x.size < 3:
        return float(x[-1])
    lo, hi = float(x.min()) - 100.0 * span, float(x.max()) + 100.0 * span
    prev2 = np.zeros(x.size + 1)
    prev1 = x.copy()
    best = float(x[-1])
    k = 0
    while prev1.size >= 2:
        k += 1
        denom = np.diff(prev1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cur = prev2[1 : prev1.size] + k / denom
        if not np.all(np.isfinite(cur)):
            break
        if k % 2 == 0 and cur.size:
            cand = float(cur[-1])
            if lo <= cand <= hi:
                best = cand
            else:
                break
        prev2, prev1 = prev1, cur
    return best


def _largest_window(phi: np.ndarray, tol: float) -> np.ndarray:
    """Indices (into phi) of the largest set with diameter <= tol.

    Sorted sliding window; ties resolved towards the smallest values.
    """
    order = np.argsort(phi, kind="stable")
    vals = phi[order]
    best_size, best_lo = 0, 0
    left = 0
    for right in range(vals.size):
        while vals[right] - vals[left] > tol:
            left += 1
        if right - left + 1 > best_size:
            best_size, best_lo = right - left + 1, left
    return np.sort(order[best_lo : best_lo + best_size])


def extract_convergent_subsequence(
    signals: Sequence[SwitchingSignal],
    adt: AdtClass,
    tol: float,
) -> tuple[list[int], SwitchingSignal]:
    """Select a subsequence whose per-index switch data is Cauchy within
    tol, and build its limit signal.

    Per switch index, times are clustered on the compactified half-line
    (exhausted indexes sit at +inf) and modes by exact match, keeping the
    majority cluster each time.  The limit's switch times come from a
    convergence-accelerated estimate over the selected subsequence;
    coincident limit times collapse to a single switch carrying the last
    mode of the coincidence group, and repeated modes are merged.  The
    limit signal is validated against ``adt``.

    Raises :class:`ExtractionFailure` if fewer than ceil(sqrt(len))
    signals survive the selection, or if the constructed limit fails ADT
    validation (both finite-sample effects).
    """
    if len(signals) < 2:
        raise ValueError("need at least 2 signals")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    horizon = signals[0].horizon
    if any(s.horizon != horizon for s in signals):
        raise ValueError("signals must share one horizon")
    for idx, s in enumerate(signals):
        if not validate_adt(s, adt):
            raise ValueError(f"signal {idx} does not satisfy the given ADT class")

    count = len(signals)
    required = math.ceil(math.sqrt(count))
    max_idx = max(s.n_switches for s in signals)
    times = np.full((count, max_idx + 1), INFINITY)
    mode_tab = np.empty((count, max_idx + 1), dtype=np.int64)
    for k, s in enumerate(signals):
        times[k, 1 : s.n_switches + 1] = s.switch_times
        mode_tab[k, : s.n_switches + 1] = s.modes
        mode_tab[k, s.n_switches + 1 :] = s.modes[-1]  # extend by the final mode

    selected = np.arange(count)
    for i in range(max_idx + 1):
        col = mode_tab[selected, i]
        inv = np.searchsorted(distinct(col), col)  # each mode's index among the distinct modes
        sizes = np.bincount(inv)
        selected = selected[inv == int(np.argmax(sizes))]
        if selected.size < required:
            raise ExtractionFailure(
                f"mode clustering at index {i} left {selected.size} < {required} signals",
                achieved=int(selected.size), required=required, stage=f"mode[{i}]",
            )
        if i >= 1:
            window = _largest_window(_compactify(times[selected, i]), tol)
            selected = selected[window]
            if selected.size < required:
                raise ExtractionFailure(
                    f"time clustering at index {i} left {selected.size} < {required} signals",
                    achieved=int(selected.size), required=required, stage=f"time[{i}]",
                )

    limit_times = np.empty(max_idx + 1)
    limit_times[0] = 0.0
    for i in range(1, max_idx + 1):
        col = times[selected, i]
        if math.isinf(median(col.tolist())):
            limit_times[i] = INFINITY
        else:
            limit_times[i] = _sequence_limit(col[np.isfinite(col)])
    np.maximum.accumulate(limit_times, out=limit_times)  # monotone repair
    limit_modes = mode_tab[selected[0]]  # identical across the selection

    # collapse coincidence groups: a group keeps its last index's mode
    out_times: list[float] = []
    out_modes: list[int] = [int(limit_modes[0])]

    def coincide(a: float, b: float) -> bool:
        return abs(float(_compactify(np.array(b))) - float(_compactify(np.array(a)))) <= 1e-9

    i = 0
    while i + 1 <= max_idx:
        j = i + 1
        t = float(limit_times[j])
        if math.isinf(t):
            break
        while j + 1 <= max_idx and math.isfinite(limit_times[j + 1]) and coincide(t, limit_times[j + 1]):
            j += 1
        mode = int(limit_modes[j])
        t = min(float(limit_times[j]), horizon)
        if t <= 0.0:
            out_modes[-1] = mode
        elif mode != out_modes[-1]:
            out_times.append(t)
            out_modes.append(mode)
        i = j

    limit = SwitchingSignal(np.array(out_times), np.array(out_modes), horizon)
    if not validate_adt(limit, adt):
        raise ExtractionFailure(
            "constructed limit signal fails ADT validation",
            achieved=int(selected.size), required=required, stage="limit",
        )
    return [int(k) for k in selected], limit


# -- serialization --------------------------------------------------------


def save_signal(signal: SwitchingSignal, modes: ModeSet, path) -> None:
    """Write the plain-text record: header ``modes=<m> horizon=<T>``,
    then one ``t_i gamma_i`` line per segment starting with t_0 = 0."""
    lines = [f"modes={modes.size} horizon={fmt17(signal.horizon)}"]
    edges = np.concatenate([[0.0], signal.switch_times])
    for t, g in zip(edges, signal.modes):
        lines.append(f"{fmt17(t)} {int(g)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class SignalFormatError(ValueError):
    """Malformed signal file."""


def load_signal(path) -> tuple[SwitchingSignal, ModeSet]:
    text = read_utf8(path, SignalFormatError)
    numbered = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1)]
    lines = [(n, ln) for n, ln in numbered if ln and not ln.startswith("#")]
    if not lines:
        raise SignalFormatError(f"{path}: empty signal file")
    (head_no, head), *body = lines
    try:
        fields = dict(item.split("=", 1) for item in head.split())
        modes = ModeSet(int(fields["modes"]))
        horizon = float(fields["horizon"])
    except (ValueError, KeyError) as exc:
        raise SignalFormatError(f"{path}:{head_no}: bad header {head!r}") from exc
    times, mode_vals = [], []
    for lineno, ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise SignalFormatError(f"{path}:{lineno}: expected 't gamma', got {ln!r}")
        try:
            times.append(float(parts[0]))
            mode_vals.append(int(parts[1]))
        except ValueError as exc:
            raise SignalFormatError(f"{path}:{lineno}: bad segment line {ln!r}") from exc
    if not times or times[0] != 0.0:
        raise SignalFormatError(f"{path}: first segment must start at t=0")
    if any(g not in modes for g in mode_vals):
        raise SignalFormatError(f"{path}: mode label outside 1..{modes.size}")
    try:
        sig = SwitchingSignal(np.array(times[1:]), np.array(mode_vals), horizon)
    except ValueError as exc:
        raise SignalFormatError(f"{path}: {exc}") from exc
    return sig, modes


__all__ = [
    "INFINITY",
    "AdtClass",
    "ExtractionFailure",
    "ModeSet",
    "SignalFormatError",
    "SwitchingSignal",
    "distance_tail_bound",
    "extract_convergent_subsequence",
    "generate_adt",
    "load_signal",
    "save_signal",
    "signal_distance",
    "validate_adt",
]
