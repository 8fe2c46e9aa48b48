import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchcert import invariance, systems
from switchcert.invariance import (
    OmegaEstimate,
    OmegaSharpEstimate,
    _greedy_clusters,
    check_same_mode_constancy,
    hausdorff_distance,
    lasalle_certify,
    omega_limit,
    omega_sharp,
    project_states,
)
from switchcert.lyapunov import LyapunovCandidate
from switchcert.reports import fmt17, median, verdict
from switchcert.signals import INFINITY, SwitchingSignal
from switchcert.systems import IntegratorOptions, IntegratorStats, Trajectory, integrate

TOL = 1e-2


# -- clustering oracle ---------------------------------------------------------


def _reference_greedy_clusters(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy metric clustering in input order.

    Each point joins the first existing cluster whose seed lies within
    tol, otherwise seeds a new cluster (ties in seeding are broken by
    input order, i.e. earliest sample time).  Representatives are member
    centroids; clusters whose centroids end up within tol of each other
    are merged until all representatives are pairwise more than tol
    apart.  Returns (representatives, member counts).
    """
    seeds: list[np.ndarray] = []
    sums: list[np.ndarray] = []
    counts: list[int] = []
    for x in points:
        for i, s in enumerate(seeds):
            if np.linalg.norm(x - s) <= tol:
                sums[i] += x
                counts[i] += 1
                break
        else:
            seeds.append(np.array(x))
            sums.append(np.array(x))
            counts.append(1)
    reps = [s / c for s, c in zip(sums, counts)]
    merged = True
    while merged:
        merged = False
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if np.linalg.norm(reps[i] - reps[j]) <= tol:
                    total = counts[i] + counts[j]
                    reps[i] = (reps[i] * counts[i] + reps[j] * counts[j]) / total
                    counts[i] = total
                    del reps[j], counts[j]
                    merged = True
                    break
            if merged:
                break
    return np.array(reps), np.array(counts)


@st.composite
def clouds(draw):
    """Point clouds at the scale of tol: random, with duplicates, on a
    lattice of spacing exactly tol (every neighbour pair a boundary tie),
    or in dense blobs."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 300))
    tol = draw(st.sampled_from([1e-2, 0.1, 0.25, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "duplicates", "lattice", "blobs"]))
    if kind == "lattice":
        side = math.ceil(n ** (1.0 / dim))
        grid = np.array(list(itertools.product(range(side), repeat=dim)), dtype=float)
        points = tol * rng.permutation(grid)[:n]
    elif kind == "blobs":  # dense blobs make merges pull centroids back
        centers = rng.uniform(-10 * tol, 10 * tol, (draw(st.integers(1, 8)), dim))
        sigma = tol * draw(st.floats(0.3, 2.0))
        points = centers[rng.integers(0, len(centers), n)] + rng.normal(0.0, sigma, (n, dim))
    else:
        spread = tol * draw(st.floats(0.2, 3.0)) * n ** (1.0 / dim)
        points = rng.uniform(-spread, spread, (n, dim))
        if kind == "duplicates":
            points = points[rng.integers(0, max(1, n // 4), n)]
    offset = draw(st.sampled_from([0.0, 1.0, -37.5]))
    return points + offset, tol


def _assert_matches_reference(points, tol):
    reps, counts = _greedy_clusters(points, tol)
    want_reps, want_counts = _reference_greedy_clusters(points, tol)
    assert np.array_equal(reps, want_reps)
    assert np.array_equal(counts, want_counts)
    assert reps.dtype == want_reps.dtype and counts.dtype == want_counts.dtype
    assert counts.sum() == len(points)
    # postcondition: representatives pairwise more than tol apart, pairs
    # near tol decided by the scalar norm
    d = np.linalg.norm(reps[:, None, :] - reps[None, :, :], axis=2)
    for a, b in zip(*np.nonzero(np.triu(d <= tol * (1 + 1e-9), 1))):
        assert np.linalg.norm(reps[a] - reps[b]) > tol


@settings(max_examples=60, deadline=None)
@given(clouds())
def test_greedy_clusters_matches_reference(cloud):
    _assert_matches_reference(*cloud)


def test_greedy_clusters_single_and_repeated_point():
    _assert_matches_reference(np.array([[0.3, -1.2]]), TOL)
    _assert_matches_reference(np.full((50, 3), 2.5), TOL)


def test_greedy_clusters_ties_follow_scalar_norm():
    # a row-wise norm can differ from the scalar one in the last bit; with
    # tol set to either value, the scalar norm must decide
    rng = np.random.default_rng(3)
    steps = rng.normal(size=(2000, 2))
    rows = np.linalg.norm(steps, axis=1)
    odd = [k for k in range(len(steps)) if np.linalg.norm(steps[k]) != rows[k]]
    for k in odd[:20]:
        points = np.array([[0.0, 0.0], steps[k]])
        for tol in (rows[k], np.linalg.norm(steps[k])):
            _assert_matches_reference(points, tol)


def test_greedy_clusters_merge_reaches_back():
    # seeds 2 and 3 merge, and their centroid (-1.1, -1/3) lands within
    # tol of representative 0, which must then absorb it in its own place
    points = np.array([[-0.2, 0.1], [3.0, 3.0], [-1.0, -0.9], [-1.2, 0.3], [0.2, 1.1],
                       [-1.1, -0.4]])
    _assert_matches_reference(points, 1.0)
    assert _greedy_clusters(points, 1.0)[1].tolist() == [4, 1, 1]


def test_greedy_clusters_matches_reference_on_circle(center_orbit):
    _assert_matches_reference(center_orbit.states[center_orbit.times >= 50.0], TOL)


# _PAIR_BLOCK away from the default: one candidate seed and one merge row
# per distance call, and small odd blocks
_BLOCKINGS = [1, 5, 333]


@pytest.mark.parametrize("pair_block", _BLOCKINGS)
@settings(max_examples=25, deadline=None)
@given(clouds())
def test_greedy_clusters_matches_reference_blocked(pair_block, cloud):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariance, "_PAIR_BLOCK", pair_block)
        _assert_matches_reference(*cloud)


@pytest.mark.parametrize("pair_block", _BLOCKINGS)
def test_greedy_clusters_matches_reference_on_circle_blocked(monkeypatch, pair_block,
                                                             center_orbit):
    monkeypatch.setattr(invariance, "_PAIR_BLOCK", pair_block)
    _assert_matches_reference(center_orbit.states[center_orbit.times >= 50.0], TOL)
    _assert_matches_reference(np.full((200, 2), 0.5), TOL)


def _count_work(monkeypatch):
    """Rows of each distance call."""
    rows = []
    within = invariance._within
    monkeypatch.setattr(invariance, "_within",
                        lambda xs, block, tol: rows.append(len(xs)) or within(xs, block, tol))
    return rows


def test_collapsed_tail_costs_one_distance_row(monkeypatch):
    # 3,000 samples within tol of the first: one seed row takes them all,
    # and one cluster leaves nothing to merge
    points = 0.25 + np.random.default_rng(5).uniform(-3e-3, 3e-3, (3000, 2))
    rows = _count_work(monkeypatch)
    reps, counts = _greedy_clusters(points, TOL)
    assert counts.tolist() == [3000]
    assert rows == [1]
    _assert_matches_reference(points, TOL)


def test_circular_tail_costs_blocks_and_merges(monkeypatch):
    # three laps over 100 sites of the unit circle, 2 sin(pi / 100) = 0.063
    # apart, at radii 1, 1 + 1.2 tol and 1 + 0.6 tol: lap 1 seeds 100
    # clusters, each taking its site's lap-3 point too (0.6 tol away); lap 2
    # (1.2 tol out) seeds 100 more; then each site's two centroids,
    # 1 + 0.3 tol and 1 + 1.2 tol, lie 0.9 tol apart and merge
    site = 2.0 * np.pi * np.arange(100) / 100.0
    direction = np.stack([np.cos(site), np.sin(site)], axis=1)
    tail = np.concatenate([r * direction for r in (1.0, 1.0 + 1.2 * TOL, 1.0 + 0.6 * TOL)])
    rows = _count_work(monkeypatch)
    reps, counts = _greedy_clusters(tail, TOL)
    assert counts.tolist() == [3] * 100
    # seeding: block b offers min(2^b, 8192 // free) candidates of the free
    # points; a lap-1 seed takes two points and a lap-2 seed one, so the
    # free counts run 300, 298, 294, 286, 270, 238, 174, and the last two
    # blocks are capped: 8192 // 174 = 47 candidates (37 lap-1, 10 lap-2),
    # then the 90 lap-2 points left
    seed_rows = [1, 2, 4, 8, 16, 32, invariance._PAIR_BLOCK // 174, 90]
    # merging: the 200 centroids' adjacency in blocks of 8192 // 200 = 40
    # rows, then one call per merge
    assert rows == seed_rows + [invariance._PAIR_BLOCK // 200] * 5 + [1] * 100
    _assert_matches_reference(tail, TOL)


# -- omega limit --------------------------------------------------------------


def test_omega_limit_converging_trajectory(ex1_batch):
    traj = ex1_batch.trajectories[0]
    est = omega_limit(traj, 0.5, TOL)
    assert est.points.shape[0] == 1
    assert np.linalg.norm(est.points[0]) <= TOL


def test_omega_limit_circle_coverage(center_orbit):
    est = omega_limit(center_orbit, 0.5, TOL)
    radii = np.linalg.norm(est.points, axis=1)
    assert np.all(np.abs(radii - 1.0) <= TOL)
    angles = np.sort(np.arctan2(est.points[:, 1], est.points[:, 0]))
    arc_gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
    assert arc_gaps.max() <= 2.0 * TOL  # unit radius: arc length = angle


def test_omega_limit_equilibrium(zero_trajectory):
    est = omega_limit(zero_trajectory, 0.5, TOL)
    assert est.points.shape[0] == 1
    assert np.all(est.points[0] == 0.0)


def test_omega_limit_parameter_validation(zero_trajectory):
    with pytest.raises(ValueError):
        omega_limit(zero_trajectory, 0.0, TOL)
    with pytest.raises(ValueError):
        omega_limit(zero_trajectory, 1.0, TOL)
    with pytest.raises(ValueError):
        omega_limit(zero_trajectory, 0.5, 0.0)


def test_omega_limit_representatives_separated(center_orbit):
    est = omega_limit(center_orbit, 0.5, TOL)
    d = np.linalg.norm(est.points[:, None, :] - est.points[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() > TOL


def test_omega_limit_deterministic(center_orbit):
    a = omega_limit(center_orbit, 0.5, TOL)
    b = omega_limit(center_orbit, 0.5, TOL)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.counts, b.counts)


# -- omega sharp ---------------------------------------------------------------


def test_omega_sharp_finitely_many_switches(ex1_scenario):
    # after the last switch the signal is constant: every pair carries the
    # final mode and an infinite dwell estimate
    signal = SwitchingSignal(np.array([1.0, 2.0]), np.array([1, 2, 1]), 40.0)
    traj = integrate(ex1_scenario.system, [0.5, 0.0], signal,
                     IntegratorOptions(max_dx=0.01))
    est = omega_sharp(traj, 0.5, TOL, r_min=0.0)
    assert not est.empty
    assert np.all(est.modes == 1)  # the final mode
    assert np.all(np.isinf(est.dwells))
    omega = omega_limit(traj, 0.5, TOL)
    assert hausdorff_distance(omega.points, est.states) <= 2.0 * TOL


def test_omega_sharp_feedback_pairs(ex1_batch):
    traj = ex1_batch.trajectories[0]
    est = omega_sharp(traj, 0.5, TOL)
    assert set(est.modes.tolist()) == {1, 2}
    assert np.all(np.linalg.norm(est.states, axis=1) <= TOL)
    assert np.all(est.dwells > 0.0)


def test_omega_sharp_equilibrium_recurring_modes(zero_trajectory):
    est = omega_sharp(zero_trajectory, 0.5, TOL, r_min=0.0)
    pairs = {(int(m), tuple(s)) for s, m, _ in
             [(est.states[i], est.modes[i], est.dwells[i]) for i in range(est.modes.size)]}
    assert pairs == {(1, (0.0, 0.0)), (2, (0.0, 0.0))}


def test_omega_sharp_huge_finite_floor_keeps_terminal_segment(ex1_batch):
    # samples past the final switch have infinite dwell: they satisfy any
    # finite floor, so only the terminal mode survives
    traj = ex1_batch.trajectories[0]
    est = omega_sharp(traj, 0.5, TOL, r_min=1e6)
    assert not est.empty
    assert np.all(np.isinf(est.dwells))


def test_omega_sharp_empty_when_filter_unsatisfiable(ex1_batch):
    traj = ex1_batch.trajectories[0]
    est = omega_sharp(traj, 0.5, TOL, r_min=math.inf)
    assert est.empty
    assert "dwell residual" in est.diagnostics


def test_omega_sharp_min_hits_drops_sparse_clusters(ex1_batch):
    traj = ex1_batch.trajectories[0]
    full = omega_sharp(traj, 0.5, TOL, min_hits=1)
    heavy = omega_sharp(traj, 0.5, TOL, min_hits=10 ** 9)
    assert heavy.modes.size <= full.modes.size


def test_omega_sharp_csv(tmp_path, ex1_batch):
    est = omega_sharp(ex1_batch.trajectories[0], 0.5, TOL)
    path = tmp_path / "sharp.csv"
    est.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "xi_1,xi_2,gamma,r_hat"
    assert len(lines) == est.modes.size + 1


def test_omega_sharp_csv_empty_keeps_state_columns(tmp_path, ex1_batch):
    est = omega_sharp(ex1_batch.trajectories[0], 0.5, TOL, r_min=math.inf)
    assert est.empty
    est.to_csv(tmp_path / "sharp.csv")
    assert (tmp_path / "sharp.csv").read_text() == "xi_1,xi_2,gamma,r_hat\n"


def _reference_csv(est) -> str:
    """The estimates' CSV text, formatted cell by cell."""
    if isinstance(est, OmegaEstimate):
        lines = [",".join(f"xi_{i + 1}" for i in range(est.points.shape[1]))]
        lines += [",".join(fmt17(v) for v in p) for p in est.points]
    else:
        lines = [",".join(f"xi_{i + 1}" for i in range(est.states.shape[1])) + ",gamma,r_hat"]
        for i in range(est.modes.size):
            row = [fmt17(v) for v in est.states[i]]
            row.append(str(int(est.modes[i])))
            row.append("inf" if math.isinf(est.dwells[i]) else fmt17(est.dwells[i]))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_estimate_csv_matches_cell_by_cell_writer(tmp_path, ex1_batch, two_centers_batch,
                                                   center_orbit):
    odd = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -1e-300], [0.1, 1 / 3]])
    estimates = [
        omega_limit(center_orbit, 0.5, TOL),
        omega_limit(two_centers_batch.trajectories[0], 0.5, TOL),
        OmegaEstimate(odd, (0.0, 1.0), TOL, np.array([1, 2, 3])),
        omega_sharp(ex1_batch.trajectories[0], 0.5, TOL),
        omega_sharp(two_centers_batch.trajectories[0], 0.5, TOL),
        OmegaSharpEstimate(odd, np.array([1, 2, 3]), np.array([math.inf, 0.30000000000000004, 2.0]),
                           (0.0, 1.0), TOL, 0.0, 1, np.array([1, 2, 3])),
    ]
    for est in estimates:
        est.to_csv(tmp_path / "est.csv")
        assert (tmp_path / "est.csv").read_text() == _reference_csv(est)


# -- projection ------------------------------------------------------------------


def _reference_omega_sharp(traj, tail_fraction, cluster_tol, r_min=None, min_hits=1):
    """omega_sharp's (states, modes, dwells, counts) with one member norm per representative."""
    idx = np.nonzero(traj.times >= traj.horizon * (1.0 - tail_fraction))[0]
    if r_min is None:
        gap = traj.signal.min_switch_gap()
        r_min = 0.0 if math.isinf(gap) else gap / 2.0
    gaps = traj.signal.gaps_to_next_switch(traj.times[idx])
    keep = gaps >= r_min
    idx, gaps = idx[keep], gaps[keep]
    modes = traj.sample_modes[idx]
    states_out, modes_out, dwells_out, counts_out = [], [], [], []
    for gamma in np.unique(modes):
        sel = modes == gamma
        reps, counts = invariance._greedy_clusters(traj.states[idx[sel]], cluster_tol)
        mode_gaps = gaps[sel]
        pts = traj.states[idx[sel]]
        for rep, cnt in zip(reps, counts):
            if cnt < min_hits:
                continue
            members = np.linalg.norm(pts - rep, axis=1) <= cluster_tol
            if not np.any(members):
                members = np.array([np.argmin(np.linalg.norm(pts - rep, axis=1))])
            states_out.append(rep)
            modes_out.append(int(gamma))
            dwells_out.append(float(np.median(mode_gaps[members])))
            counts_out.append(int(cnt))
    return (np.array(states_out).reshape(-1, traj.dimension), np.array(modes_out, dtype=np.int64),
            np.array(dwells_out), np.array(counts_out, dtype=np.int64))


def _assert_omega_sharp_matches_reference(traj, tol, min_hits=1):
    est = omega_sharp(traj, 0.5, tol, min_hits=min_hits)
    want = _reference_omega_sharp(traj, 0.5, tol, min_hits=min_hits)
    for got, expected in zip((est.states, est.modes, est.dwells, est.counts), want):
        assert np.array_equal(got.reshape(expected.shape), expected)


@pytest.mark.parametrize("block", [invariance._DISTANCE_BLOCK, 1, 700])
def test_omega_sharp_matches_per_representative_loop(monkeypatch, block, ex1_batch,
                                                     two_centers_batch, zero_trajectory):
    monkeypatch.setattr(invariance, "_DISTANCE_BLOCK", block)  # 1: one representative per block
    trajs = list(two_centers_batch.trajectories[:4]) + list(ex1_batch.trajectories[:2])
    for traj in trajs + [zero_trajectory]:
        for tol, min_hits in ((TOL, 1), (1e-3, 1), (0.1, 3)):
            _assert_omega_sharp_matches_reference(traj, tol, min_hits)


@st.composite
def cloud_trajectories(draw):
    """A drawn cloud as the samples of a trajectory at times 0, 1/4, 1/2, ...
    under drawn switches: on that grid (tied gaps) or off it, with or
    without a last segment past the final switch (infinite gaps)."""
    points, tol = draw(clouds())
    times = 0.25 * np.arange(len(points))
    horizon = times[-1]  # so the last sample is in every tail
    switches = np.unique(np.concatenate([
        draw(st.lists(st.sampled_from(times[1:].tolist() or [horizon]), max_size=40)),
        draw(st.lists(st.floats(0.01, max(horizon, 0.01)), max_size=5)),
    ]))
    switches = switches[(switches > 0) & (switches <= horizon)]
    if draw(st.booleans()) and switches.size:  # no switch in the last tenth
        switches = switches[switches < 0.9 * horizon]
    modes = [draw(st.sampled_from([1, 2, 3]))]
    for _ in switches:
        modes.append(draw(st.sampled_from([g for g in (1, 2, 3) if g != modes[-1]])))
    signal = SwitchingSignal(switches, np.array(modes), horizon)
    traj = Trajectory(times, points, signal, IntegratorStats())
    return traj, tol, draw(st.integers(1, 3)), draw(st.sampled_from([None, 0.0]))


@settings(max_examples=80, deadline=None)
@given(cloud_trajectories())
def test_omega_sharp_matches_reference_on_drawn_trajectories(case):
    traj, tol, min_hits, r_min = case
    est = omega_sharp(traj, 0.5, tol, r_min=r_min, min_hits=min_hits)
    want = _reference_omega_sharp(traj, 0.5, tol, r_min=r_min, min_hits=min_hits)
    for got, expected in zip((est.states, est.modes, est.dwells, est.counts), want):
        assert np.array_equal(got.reshape(expected.shape), expected)


def test_sorted_median_is_numpy_median():
    rng = np.random.default_rng(9)
    for n in range(1, 12):
        for values in (rng.exponential(size=n), rng.integers(0, 3, n) * 0.25,
                       np.append(rng.exponential(size=n - 1), math.inf),
                       np.full(n, math.inf), np.full(n, 1.7e308)):
            with np.errstate(over="ignore"):  # the mean of two 1.7e308 overflows in both
                assert median(values.tolist()[::-1]) == np.median(values)


@pytest.mark.parametrize("n", range(1, 10))
def test_distances_are_row_norms_to_the_bit(n):
    # below 8 columns a sum taken coordinate by coordinate; from 8 on the norm itself
    rng = np.random.default_rng(100 + n)
    rows = rng.normal(size=(300, n)) * 10.0 ** rng.uniform(-200, 150, size=(300, 1))
    specials = [np.full(n, 5e-324), np.full(n, 1e-310), np.full(n, 1e200), np.full(n, 1.7e308),
                np.full(n, math.inf), np.full(n, -math.inf), np.full(n, math.nan),
                np.zeros(n), -np.zeros(n)]
    for k, v in enumerate(specials):  # whole special rows, and one special coordinate
        rows[k] = v
        rows[len(specials) + k, k % n] = v[0]
    xs, block = rows[::7], rows
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.stack([np.linalg.norm(block - x, axis=1) for x in xs])
        got = invariance._distances(xs, block)
    nan = np.isnan(want)
    assert got.shape == want.shape and np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_omega_sharp_drifted_centroid_takes_nearest_member(monkeypatch, two_centers_batch):
    # a representative that no sample lies within tol of takes its nearest sample's dwell
    def with_stray(points, tol):
        reps, counts = _greedy_clusters(points, tol)
        return np.vstack([reps, points[:1] + 5.0 * tol]), np.append(counts, 1)

    monkeypatch.setattr(invariance, "_greedy_clusters", with_stray)
    _assert_omega_sharp_matches_reference(two_centers_batch.trajectories[0], TOL)


def test_project_states_dedupes():
    est = OmegaSharpEstimate(
        states=np.array([[0.0, 0.0], [0.001, 0.0]]),
        modes=np.array([1, 2]),
        dwells=np.array([1.0, INFINITY]),
        tail_window=(0.0, 1.0),
        cluster_tol=TOL,
        r_min=0.0,
        min_hits=1,
        counts=np.array([3, 4]),
    )
    proj = project_states(est)
    assert proj.shape == (1, 2)
    assert np.linalg.norm(proj[0]) <= TOL


def test_project_states_empty():
    est = OmegaSharpEstimate(
        states=np.empty((0, 2)), modes=np.empty(0, dtype=np.int64),
        dwells=np.empty(0), tail_window=(0.0, 1.0), cluster_tol=TOL,
        r_min=0.0, min_hits=1, counts=np.empty(0, dtype=np.int64),
    )
    assert project_states(est).shape[0] == 0


def test_projection_identity_across_estimators(ex1_batch, center_orbit, zero_trajectory):
    suite = list(ex1_batch.trajectories[:6]) + [center_orbit, zero_trajectory]
    for traj in suite:
        omega = omega_limit(traj, 0.5, TOL)
        sharp = omega_sharp(traj, 0.5, TOL, r_min=0.0)
        proj = project_states(sharp)
        assert hausdorff_distance(omega.points, proj) <= 2.0 * TOL


def test_monotone_attraction_to_estimate(ex1_batch, center_orbit):
    for traj in (ex1_batch.trajectories[0], center_orbit):
        est = omega_limit(traj, 0.5, TOL)
        tail = traj.times >= traj.horizon * 0.5
        d = np.linalg.norm(
            traj.states[tail][:, None, :] - est.points[None, :, :], axis=2
        ).min(axis=1)
        assert d.max() <= 2.0 * TOL


# -- same-mode value constancy ------------------------------------------------------


def test_constancy_equilibrium(zero_trajectory, ex1_scenario):
    rep = check_same_mode_constancy(zero_trajectory, ex1_scenario.V, tol=0.0)
    assert rep.passed and rep.worst == 0.0


def test_constancy_conserving_arc(center_orbit, ex1_scenario):
    rep = check_same_mode_constancy(center_orbit, ex1_scenario.V, tol=1e-6)
    assert rep.passed


def _square_nan_left(x, gamma):
    """x.x, NaN where x1 < 0."""
    return np.where(x[..., 0] < 0.0, math.nan, np.sum(x * x, axis=-1))


def test_constancy_fails_on_nan_value(center_orbit):
    rep = check_same_mode_constancy(center_orbit, LyapunovCandidate(_square_nan_left), tol=1e-6)
    assert not rep.passed and math.isnan(rep.worst)
    first_nan = float(center_orbit.times[np.argmax(center_orbit.states[:, 0] < 0.0)])
    assert rep.witness == (first_nan, first_nan, 2)


def _reference_constancy(traj, V, tol):
    """check_same_mode_constancy as a loop of per-point calls of V."""
    modes = traj.sample_modes
    spreads, witnesses = [], []
    for gamma in sorted(set(modes.tolist())):
        sel = np.flatnonzero(modes == gamma)
        vals = np.array([V.value(traj.states[k], gamma) for k in sel])
        spreads.append(vals.max() - vals.min())
        witnesses.append((float(traj.times[sel[np.argmax(vals)]]),
                          float(traj.times[sel[np.argmin(vals)]]), gamma))
    return verdict("same-mode-value-constancy", spreads, tol, witnesses.__getitem__, {"tol": tol})


@pytest.mark.parametrize("batch, scenario", [("ex1_batch", "ex1_scenario"),
                                             ("two_centers_batch", "two_centers_scenario")])
def test_constancy_matches_the_per_point_loop(request, batch, scenario):
    V = request.getfixturevalue(scenario).V
    for traj in request.getfixturevalue(batch).trajectories:
        for candidate in (V, LyapunovCandidate(_square_nan_left)):
            for tol in (1e-6, 1e3):
                got = check_same_mode_constancy(traj, candidate, tol)
                want = _reference_constancy(traj, candidate, tol)
                assert (got.name, got.passed, got.witness, got.details) == (
                    want.name, want.passed, want.witness, want.details)
                assert systems._same_bits(np.array([got.worst]), np.array([want.worst]))


def _per_point_square(x, gamma):
    return float(np.dot(x, x))


def test_constancy_rejects_a_per_point_value(center_orbit):
    with pytest.raises(TypeError, match="_per_point_square is not row-wise"):
        check_same_mode_constancy(center_orbit, LyapunovCandidate(_per_point_square), 1e-6)


def test_constancy_fails_on_dissipative_trajectory(ex1_batch, ex1_scenario):
    traj = ex1_batch.trajectories[0]
    rep = check_same_mode_constancy(traj, ex1_scenario.V, tol=1e-6)
    assert not rep.passed
    # V drops from |x0|^2 to ~0 across the dissipative arcs
    assert rep.worst == pytest.approx(float(traj.norms[0]) ** 2, rel=0.01)


def test_weak_invariance_residual_shadow(ex1_scenario, ex1_batch):
    # each limit pair, replayed under its own mode for its dwell estimate,
    # either keeps V constant (conserving mode) or sits at the origin
    traj = ex1_batch.trajectories[0]
    est = omega_sharp(traj, 0.5, TOL)
    for state, mode, dwell in est.pairs:
        if np.linalg.norm(state) <= TOL:
            continue
        span = min(dwell, 1.0)
        replay = integrate(ex1_scenario.system, state,
                           SwitchingSignal.constant(mode, span))
        rep = check_same_mode_constancy(replay, ex1_scenario.V, tol=1e-6)
        assert rep.passed


# -- LaSalle certificate ---------------------------------------------------------------


def test_lasalle_pass_on_converging(ex1_batch):
    rep = lasalle_certify(ex1_batch.trajectories[0], np.zeros((1, 2)), TOL, 0.5)
    assert rep.passed
    assert rep.worst <= TOL


def test_lasalle_fail_on_circle(center_orbit):
    rep = lasalle_certify(center_orbit, np.zeros((1, 2)), TOL, 0.5)
    assert not rep.passed
    assert rep.worst == pytest.approx(1.0, abs=1e-3)


def test_lasalle_witness_is_the_farthest_tail_sample(two_centers_batch):
    candidate = np.array([[0.0, 0.0], [0.5, -0.5]])
    for traj in two_centers_batch.trajectories:
        rep = lasalle_certify(traj, candidate, TOL, 0.5)
        assert not rep.passed
        t, x = rep.witness
        assert t >= traj.horizon * 0.5 and np.array_equal(x, traj.state_at_sample(t))
        distance = np.linalg.norm(x[None, None, :] - candidate[None, :, :], axis=2).min()
        assert float(distance) == rep.worst


def test_lasalle_equilibrium(zero_trajectory):
    rep = lasalle_certify(zero_trajectory, np.zeros((1, 2)), TOL, 0.5)
    assert rep.passed and rep.worst == 0.0


def test_lasalle_empty_candidate(zero_trajectory):
    with pytest.raises(ValueError):
        lasalle_certify(zero_trajectory, np.empty((0, 2)), TOL, 0.5)


def test_hausdorff_basics():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.1]])
    assert hausdorff_distance(a, a) == 0.0
    assert hausdorff_distance(a, b) == pytest.approx(np.hypot(1.0, 0.1))
    assert hausdorff_distance(np.empty((0, 2)), np.empty((0, 2))) == 0.0
    assert math.isinf(hausdorff_distance(a, np.empty((0, 2))))
