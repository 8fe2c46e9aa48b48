"""Finite-horizon estimation of limit sets and convergence certificates.

Omega-limit sets are limit objects; at finite horizon they are estimated
by clustering the samples of a declared tail window.  The extended
estimator additionally keeps the active mode and the distance to the
next switch, retaining only samples whose dwell residual exceeds a
floor, and reports a per-cluster dwell estimate (+inf when the tail has
no further switches).  All estimators are pure functions of the
trajectory and their parameters, and every pass/fail claim is qualified
by the window and tolerance that produced it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .reports import CheckReport, distinct, median, verdict, write_rows
from .systems import Trajectory, evaluate_by_mode, evaluate_rows


_DISTANCE_BLOCK = 1 << 16  # state-distance entries per block of omega_sharp's member test
_PAIR_BLOCK = 1 << 13  # distance entries per block of the clustering's seed and merge tests

# Relative band around tol in which a vectorised distance is not trusted:
# there the decision is made by the scalar test itself.  Vectorised and
# scalar norms differ by a few ulps, far inside this band.
_TIE_SLACK = 1e-9


def _distances(xs: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Entry (r, c) is ``np.linalg.norm(block - xs[r], axis=1)[c]``, to the last bit.

    Below 8 coordinates numpy's row reduction adds the squares in column
    order, so the root of a sum taken coordinate by coordinate equals it;
    from 8 on it sums pairwise, and the norm itself is taken.
    """
    if block.shape[1] >= 8:
        return np.linalg.norm(block[None, :, :] - xs[:, None, :], axis=2)
    sq = (block[:, 0] - xs[:, 0, None]) ** 2
    for a in range(1, block.shape[1]):
        sq += (block[:, a] - xs[:, a, None]) ** 2
    return np.sqrt(sq, out=sq)


def _within(xs: np.ndarray, block: np.ndarray, tol: float) -> np.ndarray:
    """Mask whose entry (r, c) is ``np.linalg.norm(block[c] - xs[r]) <= tol``.

    A row-wise distance (:func:`_distances`) decides the pairs outside a
    narrow band around tol; the pairs inside it are decided by that
    scalar test, so every decision equals it bit for bit.  Negating a
    difference changes no bit of its norm, so the decision is symmetric.
    """
    dist = _distances(xs, block)
    mask = dist < tol * (1.0 - _TIE_SLACK)
    band = dist <= tol * (1.0 + _TIE_SLACK)
    band ^= mask
    for r, c in map(divmod, np.flatnonzero(band).tolist(), itertools.repeat(len(block))):
        mask[r, c] = np.linalg.norm(block[c] - xs[r]) <= tol
    return mask


def _greedy_clusters(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy metric clustering in input order.

    Each point joins the first existing cluster whose seed lies within
    tol, otherwise seeds a new cluster (ties in seeding are broken by
    input order, i.e. earliest sample time).  Representatives are member
    centroids; clusters whose centroids end up within tol of each other
    are merged until all representatives are pairwise more than tol
    apart.  Returns (representatives, member counts).

    The seeds are swept rather than the points.  Seeds are created in
    point order, so the next seed is always the first point no earlier
    seed reached, and it takes every later point within tol that is still
    unassigned: exactly the points that would pick it as their first seed
    within tol.  The seeds are swept in blocks: one distance call gives
    the neighbours of the next few unassigned points (the candidates)
    among all unassigned points, and a Python sweep in point order makes
    each candidate no earlier candidate took a seed of its later
    unassigned neighbours.  Blocks start at one candidate and double, up
    to ``_PAIR_BLOCK`` distance entries, so a tail that collapses into
    one cluster costs one distance row.  A centroid is the running sum of
    its members in point order over the count, in Python floats.

    Merging takes the lexicographically first pair (i, j), i < j, of
    representatives within tol and moves j into i by the count-weighted
    centroid, until no pair is left.  The within-tol adjacency of the
    initial centroids is built once, in blocks of rows, and a row
    pointer i walks it without rescanning: rows before i have no
    partner, and a merge into i changes only i, so the next pair is
    (a, i) for the first row a < i that the new centroid reaches (merged
    the same way, the pointer moving to a), else the first partner right
    of i.  Rows keep their order; a merged-away row is marked dead, and
    only the centroid a merge moved is measured again, with one
    vectorised call against all rows.

    Work is O(blocks) vectorised distance calls to seed and
    O(blocks + merges) to merge, plus Python work linear in the number
    of within-tol pairs; every temporary holds at most ``_PAIR_BLOCK``
    distances.  Distances decided near tol use the scalar test (see
    ``_within``), so the output is the same, bit for bit, as a
    point-by-point loop with a full rescan after every merge.
    """
    taken = bytearray(len(points))  # 1 once a point has its cluster
    is_taken = np.frombuffer(taken, dtype=bool)  # the same bytes, for numpy
    centroids: list[list[float]] = []
    counts: list[int] = []
    free = np.arange(len(points))
    rows = 1
    while free.size:
        seeds = free[:max(1, min(rows, _PAIR_BLOCK // free.size))]
        near = _within(points[seeds], points[free], tol)
        # the candidates' neighbours and their coordinates, row after row,
        # each row in point order
        neighbours = free[np.flatnonzero(near) % free.size]
        coords = points[neighbours].tolist()
        neighbours = neighbours.tolist()
        end = 0
        for seed, n_near in zip(seeds.tolist(), near.sum(axis=1).tolist()):
            start, end = end, end + n_near
            if taken[seed]:
                continue
            members = [q for q in range(start, end) if not taken[neighbours[q]]]
            for q in members:
                taken[neighbours[q]] = 1
            centroids.append([reduce(operator.add, column) / len(members)
                              for column in zip(*[coords[q] for q in members])])
            counts.append(len(members))
        free = free[~is_taken[free]]
        rows *= 2
    reps = np.array(centroids)
    k = len(counts)
    partners: list[set[int]] = [set() for _ in range(k)]
    step = max(1, _PAIR_BLOCK // max(k, 1))
    for lo in range(0, k - 1, step):  # rows lo.. against the rows after lo
        flat = np.flatnonzero(_within(reps[lo:lo + step], reps[lo + 1:], tol)).tolist()
        for a, b in map(divmod, flat, itertools.repeat(k - lo - 1)):
            a, b = a + lo, b + lo + 1
            if a < b:
                partners[a].add(b)
                partners[b].add(a)
    alive = [True] * k
    i = 0
    while i < k:
        later = [b for b in partners[i] if b > i]
        if not later:
            i += 1
            continue
        j = min(later)
        while True:
            total = counts[i] + counts[j]
            reps[i] = (reps[i] * counts[i] + reps[j] * counts[j]) / total
            counts[i] = total
            alive[j] = False
            for b in partners[j] | partners[i]:
                partners[b] -= {i, j}
            partners[j] = set()
            partners[i] = {b for b in np.flatnonzero(_within(reps[i:i + 1], reps, tol)).tolist()
                           if alive[b] and b != i}
            for b in partners[i]:
                partners[b].add(i)
            earlier = [a for a in partners[i] if a < i]
            if not earlier:
                break
            i, j = min(earlier), i
    keep = [a for a in range(k) if alive[a]]
    return reps[keep], np.array([counts[a] for a in keep])


@dataclass(frozen=True, eq=False)
class OmegaEstimate:
    """Point-cloud estimate of the omega-limit set of a trajectory."""

    points: np.ndarray
    tail_window: tuple[float, float]
    cluster_tol: float
    counts: np.ndarray

    def to_csv(self, path) -> None:
        """Header ``xi_1,...,xi_n``, one ``%.17g`` row per point."""
        write_rows(path, [f"xi_{i + 1}" for i in range(self.points.shape[1])],
                    ["%.17g"] * self.points.shape[1], self.points.T.tolist())


@dataclass(frozen=True, eq=False)
class OmegaSharpEstimate:
    """State-mode limit pairs with estimated dwell residuals.

    Each row (state, mode, dwell) is backed by at least ``min_hits``
    tail samples of that mode within ``cluster_tol`` of the state whose
    distance to the next switch was at least ``r_min``; ``dwell`` is the
    median such distance (+inf when the cluster sits past the final
    switch).
    """

    states: np.ndarray
    modes: np.ndarray
    dwells: np.ndarray
    tail_window: tuple[float, float]
    cluster_tol: float
    r_min: float
    min_hits: int
    counts: np.ndarray
    diagnostics: str = ""

    @property
    def pairs(self) -> list[tuple[np.ndarray, int, float]]:
        return [
            (self.states[i], int(self.modes[i]), float(self.dwells[i]))
            for i in range(self.modes.size)
        ]

    @property
    def empty(self) -> bool:
        return self.modes.size == 0

    def to_csv(self, path) -> None:
        """Header ``xi_1,...,xi_n,gamma,r_hat``, one row per pair; an
        infinite dwell (always +inf) is written ``inf``."""
        dim = self.states.shape[1]
        write_rows(path, [*(f"xi_{i + 1}" for i in range(dim)), "gamma", "r_hat"],
                    ["%.17g"] * dim + ["%d", "%.17g"],
                    [*self.states.T.tolist(), self.modes.tolist(), self.dwells.tolist()])


def _tail_indices(traj: Trajectory, tail_fraction: float) -> tuple[np.ndarray, float]:
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError(f"tail_fraction must be in (0, 1), got {tail_fraction}")
    t_start = traj.horizon * (1.0 - tail_fraction)
    idx = np.nonzero(traj.times >= t_start)[0]
    if idx.size == 0:
        raise ValueError("tail window contains no samples")
    return idx, t_start


def omega_limit(traj: Trajectory, tail_fraction: float, cluster_tol: float) -> OmegaEstimate:
    """Cluster the tail samples of a bounded trajectory."""
    if not cluster_tol > 0:
        raise ValueError(f"cluster_tol must be positive, got {cluster_tol}")
    idx, t_start = _tail_indices(traj, tail_fraction)
    if not np.all(np.isfinite(traj.states[idx])):
        raise ValueError("trajectory tail contains non-finite states")
    reps, counts = _greedy_clusters(traj.states[idx], cluster_tol)
    return OmegaEstimate(reps, (t_start, traj.horizon), cluster_tol, counts)


def omega_sharp(
    traj: Trajectory,
    tail_fraction: float,
    cluster_tol: float,
    r_min: float | None = None,
    min_hits: int = 1,
) -> OmegaSharpEstimate:
    """Estimate the extended limit set of (trajectory, realized signal).

    Tail samples are first filtered by the dwell residual (distance to
    the next switch), then clustered per mode.  ``r_min`` defaults to
    half the smallest inter-switch gap of the realized signal (0 when
    the signal has fewer than two switches).

    The members behind each kept cluster are the mode's samples within
    ``cluster_tol`` of its representative (or, if the centroid drifted
    away from all of them, the nearest one), found for a block of
    representatives at once.  The dwell is the median of their gaps,
    ``np.median``'s bits (:func:`~switchcert.reports.median`).
    """
    if not cluster_tol > 0:
        raise ValueError(f"cluster_tol must be positive, got {cluster_tol}")
    idx, t_start = _tail_indices(traj, tail_fraction)
    window = (t_start, traj.horizon)
    if r_min is None:
        gap = traj.signal.min_switch_gap()
        r_min = 0.0 if math.isinf(gap) else gap / 2.0
    gaps = traj.signal.gaps_to_next_switch(traj.times[idx])
    # an infinite dwell (past the final switch) satisfies any finite floor;
    # r_min = inf demands what no finite-horizon sample can show
    keep = gaps >= r_min if math.isfinite(r_min) else np.zeros(gaps.size, dtype=bool)
    if not np.any(keep):
        return OmegaSharpEstimate(
            np.empty((0, traj.dimension)), np.empty(0, dtype=np.int64), np.empty(0),
            window, cluster_tol, r_min, min_hits, np.empty(0, dtype=np.int64),
            diagnostics=(
                f"no tail sample has dwell residual >= {r_min:g}; "
                f"{idx.size} tail samples inspected"
            ),
        )
    idx = idx[keep]
    gaps = gaps[keep]
    modes = traj.sample_modes[idx]
    states_out, modes_out, counts_out, dwells_out = [], [], [], []
    for gamma in distinct(modes):
        sel = modes == gamma
        pts = traj.states[idx[sel]]
        reps, counts = _greedy_clusters(pts, cluster_tol)
        mode_gaps = gaps[sel]
        kept = np.flatnonzero(counts >= min_hits)
        states_out.append(reps[kept])
        modes_out.append(np.full(kept.size, gamma, dtype=np.int64))
        counts_out.append(counts[kept])
        block = max(1, _DISTANCE_BLOCK // len(pts))
        for lo in range(0, kept.size, block):
            rows = kept[lo:lo + block]
            dist = _distances(reps[rows], pts)  # np.linalg.norm(pts - rep, axis=1) per row
            near = dist <= cluster_tol
            member_gaps = mode_gaps[np.flatnonzero(near) % len(pts)].tolist()  # row after row
            end = 0
            for r, n_members in enumerate(near.sum(axis=1).tolist()):
                start, end = end, end + n_members
                # a centroid that drifted from all its members takes the nearest one
                dwells_out.append(median(member_gaps[start:end]) if n_members
                                  else float(mode_gaps[np.argmin(dist[r])]))
    return OmegaSharpEstimate(
        np.concatenate(states_out), np.concatenate(modes_out), np.array(dwells_out, dtype=float),
        window, cluster_tol, r_min, min_hits, np.concatenate(counts_out),
    )


def project_states(est: OmegaSharpEstimate) -> np.ndarray:
    """State components of the pairs, deduplicated at the estimate's own
    cluster tolerance."""
    if est.empty:
        return np.empty((0, est.states.shape[1] if est.states.ndim == 2 else 0))
    reps, _ = _greedy_clusters(est.states, est.cluster_tol)
    return reps


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two finite point clouds."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    if a.size == 0 or b.size == 0:
        return math.inf if a.size != b.size else 0.0
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def check_same_mode_constancy(traj: Trajectory, V, tol: float) -> CheckReport:
    """Largest spread of V over same-mode samples of one trajectory.

    Zero spread (up to tol) is what membership in the equal-value
    trajectory family demands; a strictly dissipative arc produces a
    positive residual with the extremal sample times as witness.  A NaN
    value of V makes its mode's spread NaN, which fails the check.  V is
    evaluated row-wise, once per mode (:func:`~switchcert.systems.evaluate_by_mode`).
    """
    modes = traj.sample_modes
    values = evaluate_by_mode(lambda g, x: evaluate_rows(V.value, x, g), traj.states, modes)
    spreads, witnesses = [], []
    for gamma in distinct(modes):
        sel = np.flatnonzero(modes == gamma)
        vals = values[sel]
        spreads.append(vals.max() - vals.min())  # NaN if any value is
        witnesses.append((float(traj.times[sel[np.argmax(vals)]]),
                          float(traj.times[sel[np.argmin(vals)]]), gamma))
    return verdict("same-mode-value-constancy", spreads, tol, witnesses.__getitem__,
                   {"tol": tol})


def lasalle_certify(
    traj: Trajectory,
    candidate_states: np.ndarray,
    tol: float,
    tail_fraction: float,
) -> CheckReport:
    """Certify convergence of a trajectory to a candidate state set.

    Passes iff every tail sample lies within tol of the candidate set;
    ``worst`` is the largest tail distance to it, and a failing report's
    witness the time and state of the farthest tail sample.  The candidate
    is user-supplied: computing a maximal weakly-invariant set is out of
    reach numerically, so this certifies a guess, it does not find one.
    """
    candidate = np.atleast_2d(np.asarray(candidate_states, dtype=float))
    if candidate.size == 0:
        raise ValueError("candidate set must be nonempty")
    idx, t_start = _tail_indices(traj, tail_fraction)
    tail = traj.states[idx]
    distances = np.linalg.norm(tail[:, None, :] - candidate[None, :, :], axis=2).min(axis=1)
    return verdict("lasalle", distances, tol,
                   lambda i: (float(traj.times[idx[i]]), np.array(tail[i])),
                   {"tol": tol, "tail_window": (t_start, traj.horizon)})


__all__ = [
    "OmegaEstimate",
    "OmegaSharpEstimate",
    "check_same_mode_constancy",
    "hausdorff_distance",
    "lasalle_certify",
    "omega_limit",
    "omega_sharp",
    "project_states",
]
