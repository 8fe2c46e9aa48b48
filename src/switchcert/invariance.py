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

import math
from dataclasses import dataclass

import numpy as np

from .reports import CheckReport, fmt17
from .systems import Trajectory


# Relative band around tol in which a vectorised distance is not trusted:
# there the decision is made by the scalar test itself.  Row-wise and
# scalar norms differ by a few ulps, far inside this band.
_TIE_SLACK = 1e-9


def _within(x: np.ndarray, block: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the rows b of ``block`` with ``np.linalg.norm(b - x) <= tol``.

    A row-wise norm decides the rows outside a narrow band around tol;
    the rows inside it are decided by that scalar test, so every decision
    equals it bit for bit.
    """
    diff = block - x
    dist = np.linalg.norm(diff, axis=1)
    mask = dist < tol * (1.0 - _TIE_SLACK)
    for k in np.flatnonzero(~mask & (dist <= tol * (1.0 + _TIE_SLACK))):
        mask[k] = np.linalg.norm(diff[k]) <= tol
    return mask


def _greedy_clusters(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy metric clustering in input order.

    Each point joins the first existing cluster whose seed lies within
    tol, otherwise seeds a new cluster (ties in seeding are broken by
    input order, i.e. earliest sample time).  Representatives are member
    centroids; clusters whose centroids end up within tol of each other
    are merged until all representatives are pairwise more than tol
    apart.  Returns (representatives, member counts).

    The seeds are swept one at a time rather than the points.  Seeds are
    created in point order, so the next seed is always the first point no
    earlier seed reached, and every earlier point already has its
    cluster; one vectorised test then takes all later unassigned points
    within tol of the new seed, which is exactly the set that would pick
    it as their first seed within tol.  Member sums are accumulated left
    to right (``np.cumsum``), the order of a running ``+=``.

    Merging takes the lexicographically first pair (i, j), i < j, of
    representatives within tol and moves j into i by the count-weighted
    centroid, until no pair is left.  A row pointer i finds the same
    pairs without rescanning: rows before i have no partner, and a merge
    into i changes only i, so the next pair is (a, i) for the first row
    a < i that the new centroid reaches (merged the same way, the
    pointer moving to a), else the first partner right of i.

    Work is O(k) vectorised distance calls in the seed phase and
    O(k + merges) in the merge phase, for k clusters, each O(N d) or
    O(k d); memory is O(N d).  Distances decided near tol use the scalar
    test (see ``_within``), so the output is the same, bit for bit, as a
    point-by-point loop with a full rescan after every merge.
    """
    unassigned = np.arange(len(points))
    centroids: list[np.ndarray] = []
    counts: list[int] = []
    while unassigned.size:
        rest = unassigned[1:]
        near = _within(points[unassigned[0]], points[rest], tol)
        members = np.concatenate((unassigned[:1], rest[near]))
        centroids.append(np.cumsum(points[members], axis=0)[-1] / members.size)
        counts.append(int(members.size))
        unassigned = rest[~near]
    reps = np.array(centroids)
    i = 0
    while i < len(counts):
        partners = np.flatnonzero(_within(reps[i], reps[i + 1:], tol))
        if partners.size == 0:
            i += 1
            continue
        j = i + 1 + int(partners[0])
        while True:
            total = counts[i] + counts[j]
            reps[i] = (reps[i] * counts[i] + reps[j] * counts[j]) / total
            counts[i] = total
            reps = np.delete(reps, j, axis=0)
            del counts[j]
            earlier = np.flatnonzero(_within(reps[i], reps[:i], tol))
            if earlier.size == 0:
                break
            i, j = int(earlier[0]), i
    return reps, np.array(counts)


@dataclass(frozen=True, eq=False)
class OmegaEstimate:
    """Point-cloud estimate of the omega-limit set of a trajectory."""

    points: np.ndarray
    tail_window: tuple[float, float]
    cluster_tol: float
    counts: np.ndarray

    def to_csv(self, path) -> None:
        dim = self.points.shape[1]
        with open(path, "w") as fh:
            fh.write(",".join(f"xi_{i + 1}" for i in range(dim)) + "\n")
            for p in self.points:
                fh.write(",".join(fmt17(v) for v in p) + "\n")


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
        dim = self.states.shape[1] if self.states.size else 0
        with open(path, "w") as fh:
            fh.write(",".join(f"xi_{i + 1}" for i in range(dim)) + ",gamma,r_hat\n")
            for i in range(self.modes.size):
                row = [fmt17(v) for v in self.states[i]]
                row.append(str(int(self.modes[i])))
                row.append("inf" if math.isinf(self.dwells[i]) else fmt17(self.dwells[i]))
                fh.write(",".join(row) + "\n")


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
    states_out, modes_out, dwells_out, counts_out = [], [], [], []
    for gamma in np.unique(modes):
        sel = modes == gamma
        reps, counts = _greedy_clusters(traj.states[idx[sel]], cluster_tol)
        mode_gaps = gaps[sel]
        pts = traj.states[idx[sel]]
        for rep, cnt in zip(reps, counts):
            if cnt < min_hits:
                continue
            members = np.linalg.norm(pts - rep, axis=1) <= cluster_tol
            if not np.any(members):  # centroid drifted; fall back to nearest member
                members = np.array([np.argmin(np.linalg.norm(pts - rep, axis=1))])
            states_out.append(rep)
            modes_out.append(int(gamma))
            dwells_out.append(float(np.median(mode_gaps[members])))
            counts_out.append(int(cnt))
    return OmegaSharpEstimate(
        np.array(states_out) if states_out else np.empty((0, traj.dimension)),
        np.array(modes_out, dtype=np.int64),
        np.array(dwells_out),
        window, cluster_tol, r_min, min_hits,
        np.array(counts_out, dtype=np.int64),
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
    positive residual with the extremal sample times as witness.
    """
    modes = traj.sample_modes
    worst = 0.0
    witness = None
    for gamma in np.unique(modes):
        sel = np.nonzero(modes == gamma)[0]
        vals = np.array([V.value(traj.states[k], int(gamma)) for k in sel])
        spread = float(vals.max() - vals.min())
        if spread > worst:
            worst = spread
            witness = (float(traj.times[sel[int(np.argmax(vals))]]),
                       float(traj.times[sel[int(np.argmin(vals))]]),
                       int(gamma))
    return CheckReport("same-mode-value-constancy", worst <= tol, worst=worst,
                       witness=None if worst <= tol else witness,
                       details={"tol": tol})


@dataclass(frozen=True, eq=False)
class LasalleReport:
    """Tail attraction to a candidate attracting set."""

    passed: bool
    sup_distance: float
    tol: float
    tail_window: tuple[float, float]
    times: np.ndarray
    distances: np.ndarray

    def __bool__(self) -> bool:
        return self.passed

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,dist\n")
            for t, d in zip(self.times, self.distances):
                fh.write(f"{fmt17(t)},{fmt17(d)}\n")


def lasalle_certify(
    traj: Trajectory,
    candidate_states: np.ndarray,
    tol: float,
    tail_fraction: float,
) -> LasalleReport:
    """Certify convergence of a trajectory to a candidate state set.

    Passes iff every tail sample lies within tol of the candidate set;
    the full distance-to-set series is retained for export.  The
    candidate is user-supplied: computing a maximal weakly-invariant set
    is out of reach numerically, so this certifies a guess, it does not
    find one.
    """
    candidate = np.atleast_2d(np.asarray(candidate_states, dtype=float))
    if candidate.size == 0:
        raise ValueError("candidate set must be nonempty")
    d = np.linalg.norm(traj.states[:, None, :] - candidate[None, :, :], axis=2).min(axis=1)
    idx, t_start = _tail_indices(traj, tail_fraction)
    sup = float(d[idx].max())
    return LasalleReport(
        passed=sup <= tol,
        sup_distance=sup,
        tol=tol,
        tail_window=(t_start, traj.horizon),
        times=traj.times,
        distances=d,
    )


__all__ = [
    "LasalleReport",
    "OmegaEstimate",
    "OmegaSharpEstimate",
    "check_same_mode_constancy",
    "hausdorff_distance",
    "lasalle_certify",
    "omega_limit",
    "omega_sharp",
    "project_states",
]
