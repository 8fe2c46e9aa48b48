import math
import random

import numpy as np
import pytest

from switchcert.lyapunov import (
    LyapunovCandidate,
    OutputFamily,
    ProbeReport,
    SampleRegion,
    check_class_k_bounds,
    check_decrease_on_covering,
    check_gradient_consistency,
    check_return_monotonicity,
    check_strict_decrease,
    distinguishability_probe,
    finite_difference_gradient,
    lie_derivative,
)
from switchcert.scenarios import (
    builtin_scenario,
    example2_outputs,
    rotation,
    squared_norm_candidate,
)
from switchcert.signals import ModeSet, SwitchingSignal
from switchcert.systems import (
    Covering,
    FiniteEscapeError,
    IntegratorOptions,
    SwitchedSystem,
    Trajectory,
    advance_starts,
    integrate,
)


REGION = SampleRegion(0.1, 3.0, n_radii=10, n_directions=8, n_random=64, seed=3)


def reverse_trajectory(traj: Trajectory) -> Trajectory:
    """Play a trajectory backwards in time (samples and signal flipped)."""
    horizon = traj.horizon
    times = horizon - traj.times[::-1]
    states = traj.states[::-1]
    sig = traj.signal
    switch_times = (horizon - sig.switch_times)[::-1]
    modes = sig.modes[::-1]
    keep = switch_times > 0.0
    rev_sig = SwitchingSignal(switch_times[keep], np.concatenate([[modes[0]], modes[1:][keep]]),
                              horizon)
    times = np.maximum.accumulate(times)  # guards reversed rounding at the ends
    return Trajectory(times, states, rev_sig, traj.stats)


# -- Lie derivative ------------------------------------------------------------


def test_lie_derivative_rotation_conserves(ex1_scenario):
    V, sys_ = ex1_scenario.V, ex1_scenario.system
    for x in ([1.0, 0.2], [-0.7, 1.5], [0.0, 2.0]):
        assert abs(lie_derivative(V, sys_, np.array(x), 2)) <= 1e-12


def test_lie_derivative_focus_symbolic(ex1_scenario):
    # grad V . f_1 expands to -4 x1^2 for V = |x|^2
    V, sys_ = ex1_scenario.V, ex1_scenario.system
    rng = np.random.default_rng(0)
    for x in rng.normal(size=(50, 2)) * 2.0:
        assert lie_derivative(V, sys_, x, 1) == pytest.approx(-4.0 * x[0] ** 2, abs=1e-10)


def test_lie_derivative_matches_output_identity(ex2_scenario):
    V, sys_, W = ex2_scenario.V, ex2_scenario.system, ex2_scenario.W
    rng = np.random.default_rng(1)
    for x in rng.normal(size=(200, 2)) * 2.0:
        assert abs(lie_derivative(V, sys_, x, 1) + W(1, x)) <= 1e-10
        assert abs(lie_derivative(V, sys_, x, 2) + W(2, x)) <= 1e-10


def test_finite_difference_fallback(ex1_scenario):
    bare = LyapunovCandidate(value=lambda x, g: float(np.dot(x, x)))
    x = np.array([0.8, -0.4])
    ld = lie_derivative(bare, ex1_scenario.system, x, 1)
    assert ld == pytest.approx(-4.0 * x[0] ** 2, rel=1e-6)


def test_gradient_consistency_builtin(ex1_scenario, ex2_scenario):
    for scn in (ex1_scenario, ex2_scenario):
        rep = check_gradient_consistency(scn.V, scn.system, REGION)
        assert rep.passed


# -- decrease on covering ----------------------------------------------------------


def test_decrease_on_covering_pass(ex1_scenario):
    rep = check_decrease_on_covering(ex1_scenario.V, ex1_scenario.system, REGION)
    assert rep.passed


def test_decrease_with_trivial_covering(ex1_scenario):
    m = ModeSet(2)
    sys_ = SwitchedSystem(2, dict(ex1_scenario.system.fields), m, Covering.trivial(m))
    rep = check_decrease_on_covering(ex1_scenario.V, sys_, REGION)
    assert rep.passed  # mode 1 gives -4 x1^2 <= 0 everywhere, mode 2 gives 0


def test_decrease_fails_with_flipped_field(ex1_scenario):
    m = ModeSet(2)
    flipped = SwitchedSystem(
        2,
        {1: lambda x: -ex1_scenario.system.fields[1](x), 2: rotation},
        m,
        ex1_scenario.system.covering,
    )
    rep = check_decrease_on_covering(ex1_scenario.V, flipped, REGION)
    assert not rep.passed
    assert rep.worst > 0.0 and rep.witness is not None


# -- class-K sandwich ----------------------------------------------------------------


def test_class_k_radial_candidate(ex1_scenario):
    rep = check_class_k_bounds(ex1_scenario.V, ex1_scenario.system, REGION)
    assert rep.passed
    assert np.allclose(rep.lower, rep.radii ** 2, rtol=1e-12)
    assert np.allclose(rep.upper, rep.radii ** 2, rtol=1e-12)


def test_class_k_offset_fails(ex1_scenario):
    V = LyapunovCandidate(value=lambda x, g: np.vecdot(x, x) + 1.0)
    rep = check_class_k_bounds(V, ex1_scenario.system, REGION)
    assert not rep.passed
    assert any("origin" in r for r in rep.reasons)


def test_class_k_degenerate_direction_fails(ex1_scenario):
    m = ModeSet(2)
    sys_ = SwitchedSystem(2, dict(ex1_scenario.system.fields), m, Covering.trivial(m))
    V = LyapunovCandidate(value=lambda x, g: x.T[0] * x.T[0])
    rep = check_class_k_bounds(V, sys_, REGION)
    assert not rep.passed  # vanishes on the x2 axis, which the shells hit
    assert any("positive" in r for r in rep.reasons)


def _unit_disk(x):
    return np.vecdot(x, x) - 1.0


def test_class_k_fails_when_a_shell_has_no_admissible_sample():
    # the one mode's region is the unit disk: the shells past r = 1 hold no admissible point
    m = ModeSet(1)
    sys_ = SwitchedSystem(2, {1: rotation}, m, Covering({1: _unit_disk}))
    region = SampleRegion(0.1, 3.0)
    rep = check_class_k_bounds(squared_norm_candidate(), sys_, region)
    assert not rep.passed
    assert rep.reasons == ("some radius shell has no covering-admissible sample",)
    outside = rep.radii > 1.0
    assert 0 < outside.sum() < outside.size
    assert np.all(np.isnan(rep.lower[outside])) and np.all(np.isnan(rep.upper[outside]))
    assert np.all(rep.lower[~outside] > 0.0)
    strict = check_strict_decrease(squared_norm_candidate(), sys_, region)
    assert np.all(strict.worst[outside] == -math.inf)


def test_class_k_regularizations_monotone(ex1_scenario):
    rep = check_class_k_bounds(ex1_scenario.V, ex1_scenario.system, REGION)
    assert np.all(np.diff(rep.lower_regularized) >= 0.0)
    assert np.all(np.diff(rep.upper_regularized) >= 0.0)
    assert np.all(rep.lower_regularized <= rep.lower + 1e-15)
    assert np.all(rep.upper_regularized >= rep.upper - 1e-15)


def test_class_k_csv(tmp_path, ex1_scenario):
    rep = check_class_k_bounds(ex1_scenario.V, ex1_scenario.system, REGION)
    path = tmp_path / "classk.csv"
    rep.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,m,M"
    assert len(lines) == rep.radii.size + 1


# -- strict decrease ---------------------------------------------------------------


def test_strict_decrease_fails_on_conserving_mode(ex1_scenario):
    rep = check_strict_decrease(ex1_scenario.V, ex1_scenario.system, REGION)
    assert not rep.passed  # the rotation keeps V constant on every shell


def test_strict_decrease_fails_on_axis(ex2_scenario):
    rep = check_strict_decrease(ex2_scenario.V, ex2_scenario.system, REGION)
    assert not rep.passed  # mode 1 rate vanishes on the x2 axis


def test_strict_decrease_single_contraction():
    m = ModeSet(1)
    sys_ = SwitchedSystem(2, {1: lambda x: -x}, m, Covering.trivial(m))
    V = LyapunovCandidate(value=lambda x, g: float(np.dot(x, x)),
                          gradient=lambda x, g: 2.0 * x)
    rep = check_strict_decrease(V, sys_, REGION)
    assert rep.passed
    assert np.allclose(rep.rate, 2.0 * rep.radii ** 2, rtol=1e-12)


# -- along-trajectory monotonicity ----------------------------------------------------


def test_return_monotonicity_feedback(ex1_scenario, ex1_batch):
    for traj in ex1_batch[:6]:
        rep = check_return_monotonicity(ex1_scenario.V, traj, tol=1e-7)
        assert rep.passed


def test_return_monotonicity_constant_value(ex1_scenario, center_orbit):
    rep = check_return_monotonicity(ex1_scenario.V, center_orbit, tol=1e-7)
    assert rep.passed  # V constant along the rotation: equality case


def test_return_monotonicity_reversed_fails(ex1_scenario, ex1_batch):
    reversed_traj = reverse_trajectory(ex1_batch[0])
    rep = check_return_monotonicity(ex1_scenario.V, reversed_traj, tol=1e-7)
    assert not rep.details["across_samples"].passed
    assert rep.details["across_samples"].witness is not None


def test_sample_check_dominates_switch_check(ex1_scenario, ex1_batch):
    # the all-samples check is the stronger one: its worst rise bounds the
    # switch-pair worst rise up to the value drop over one sampling sliver
    for traj in ex1_batch[:4]:
        rep = check_return_monotonicity(ex1_scenario.V, traj, tol=1e-7)
        if rep.details["across_samples"].passed:
            assert (rep.details["across_switches"].worst
                    <= rep.details["across_samples"].worst + 1e-6)


# -- distinguishability probe -----------------------------------------------------------


def test_probe_damped_rotation_mode(ex2_scenario):
    small = SampleRegion(0.1, 3.0, n_radii=5, n_directions=8, n_random=32, seed=5)
    rep = distinguishability_probe(ex2_scenario.system, ex2_scenario.W, 1, 0.1, small,
                                   threshold=1e-6)
    assert rep.passed
    assert rep.min_peak >= 1e-6


def test_probe_axis_start_produces_output(ex2_scenario):
    # x' = -x1 - x2 pushes x1 away from zero immediately: W1 peaks near (delta)^2
    traj = integrate(ex2_scenario.system, [0.0, 1.0], SwitchingSignal.constant(1, 0.1),
                     IntegratorOptions(max_dx=0.001))
    peak = max(ex2_scenario.W(1, x) for x in traj.states)
    assert peak > 0.5 * 0.1 ** 2  # series: x1(t) = -t + O(t^2)
    assert peak == pytest.approx(0.1 ** 2, rel=0.2)


def test_probe_zero_output_fails(ex2_scenario):
    small = SampleRegion(0.1, 1.0, n_radii=3, n_directions=4, n_random=8, seed=6)
    dead = OutputFamily({1: lambda x: 0.0, 2: lambda x: 0.0})
    rep = distinguishability_probe(ex2_scenario.system, dead, 1, 0.1, small, threshold=1e-12)
    assert not rep.passed
    assert rep.min_peak == 0.0


def test_probe_requires_positive_delta(ex2_scenario):
    with pytest.raises(ValueError):
        distinguishability_probe(ex2_scenario.system, ex2_scenario.W, 1, 0.0, REGION)


def _cubic_escape_case():
    """x' = x |x|^2 from 6 starts with 5 <= |x0| <= 10 escapes |x| > 50 at once."""
    m = ModeSet(1)
    sys_ = SwitchedSystem(2, {1: lambda x: (x.T * np.vecdot(x, x)).T}, m, Covering.trivial(m))
    region = SampleRegion(5.0, 10.0, n_radii=2, n_directions=2, n_random=2, seed=0)
    return sys_, region, IntegratorOptions(bound=50.0, max_dx=math.inf)


def test_probe_skips_escaping_starts():
    sys_, region, opts = _cubic_escape_case()
    W = OutputFamily({1: lambda x: np.vecdot(x, x)})
    rep = distinguishability_probe(sys_, W, 1, 5.0, region, threshold=1e-9, opts=opts)
    assert rep.skipped  # cubic growth escapes the tight bound


def test_probe_with_every_start_escaped_fails():
    sys_, region, opts = _cubic_escape_case()
    silent = OutputFamily({1: lambda x: 0.0})
    rep = distinguishability_probe(sys_, silent, 1, 5.0, region, threshold=1e-9, opts=opts)
    assert rep.n_probed == 0 and len(rep.skipped) == 6
    assert not rep.passed and rep.min_peak == math.inf and rep.witness is None


def test_probe_ignores_max_dx(ex2_scenario):
    # the probe samples accepted steps only, so the sampling resolution does not reach it
    for W in (ex2_scenario.W, OutputFamily({1: lambda x: 0.0, 2: lambda x: 0.0})):
        for gamma in (1, 2):
            fine, coarse = (distinguishability_probe(ex2_scenario.system, W, gamma, 0.5, REGION,
                                                     opts=IntegratorOptions(max_dx=max_dx))
                            for max_dx in (0.05, math.inf))
            assert (fine.passed, fine.min_peak, fine.threshold, fine.n_probed, fine.skipped) == (
                coarse.passed, coarse.min_peak, coarse.threshold, coarse.n_probed, coarse.skipped)
            assert (fine.witness is None) == (coarse.witness is None)
            assert fine.witness is None or np.array_equal(fine.witness, coarse.witness)


_first_coordinate_squared = example2_outputs().functions[1]  # x1 ** 2, row-wise


_ACCEPTED_STEPS = IntegratorOptions(max_dx=math.inf)  # integrate samples accepted steps only


def _reference_probe(system, W, gamma, delta, region, threshold=None, opts=_ACCEPTED_STEPS):
    """The probe as one ``integrate`` per start; returns its report and the
    per-start sampled states (None for a skipped start)."""
    if threshold is None:
        threshold = 1e-8 * region.r_min ** 2
    min_peak, witness = math.inf, None
    skipped, runs = [], []
    starts = region.all_points(system.dimension)
    constant = SwitchingSignal.constant(gamma, delta)
    for x0 in starts:
        try:
            traj = integrate(system, x0, constant, opts)
        except FiniteEscapeError as exc:
            skipped.append(f"start {np.array2string(x0)} escaped at t~{exc.escape_time:.3g}")
            runs.append(None)
            continue
        runs.append(traj.states)
        peak = max(W(gamma, x) for x in traj.states)
        if peak < min_peak:
            min_peak, witness = peak, np.array(x0)
    n_probed = len(starts) - len(skipped)
    passed = n_probed > 0 and min_peak >= threshold
    report = ProbeReport(passed, min_peak, threshold, None if passed else witness, n_probed,
                         tuple(skipped))
    return report, runs


def _assert_probe_matches_reference(system, W, gamma, delta, region, threshold=None,
                                    opts=_ACCEPTED_STEPS):
    want, want_runs = _reference_probe(system, W, gamma, delta, region, threshold, opts)
    got = distinguishability_probe(system, W, gamma, delta, region, threshold, opts)
    index, states, escapes = advance_starts(system, gamma, region.all_points(system.dimension),
                                            delta, opts)
    assert sorted(escapes) == [k for k, r in enumerate(want_runs) if r is None]
    assert all(isinstance(e, FiniteEscapeError) for e in escapes.values())
    assert np.array_equal(index, np.sort(index))  # grouped by start
    got_runs = [states[index == k] for k in range(len(want_runs)) if k not in escapes]
    want_runs = [r for r in want_runs if r is not None]
    assert all(np.array_equal(a, b) for a, b in zip(got_runs, want_runs))
    peaks = [[max(W(gamma, x) for x in r) for r in runs] for runs in (got_runs, want_runs)]
    assert np.array_equal(*peaks)
    assert (got.passed, got.min_peak, got.threshold, got.n_probed, got.skipped) == (
        want.passed, want.min_peak, want.threshold, want.n_probed, want.skipped)
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert np.array_equal(got.witness, want.witness)


ACCEPTANCE_5_REGION = SampleRegion(0.1, 3.0, n_radii=20, n_directions=16, n_random=680, seed=11)


@pytest.mark.parametrize("delta", [0.1, 1.0])
@pytest.mark.parametrize("region", [SampleRegion(0.1, 3.0), ACCEPTANCE_5_REGION],
                         ids=["default", "acceptance5"])
@pytest.mark.parametrize("name", ["example1", "example2", "two_centers"])
def test_probe_matches_per_start_integrate(name, region, delta):
    scenario = builtin_scenario(name)
    modes = scenario.system.modes.labels
    W = scenario.W or OutputFamily({g: _first_coordinate_squared for g in modes})
    for gamma in modes:
        _assert_probe_matches_reference(scenario.system, W, gamma, delta, region)


def test_probe_matches_per_start_integrate_long_window(ex2_scenario):
    # dozens of steps per start: a step size off in its last bit (say a
    # squared norm taken as x*x rather than scipy's pow) shows in later states
    _assert_probe_matches_reference(ex2_scenario.system, ex2_scenario.W, 2, 7.3,
                                    SampleRegion(0.1, 3.0))


def test_probe_matches_per_start_integrate_escaping_cubic():
    sys_, region, opts = _cubic_escape_case()
    for W in (OutputFamily({1: lambda x: 0.0}), OutputFamily({1: _first_coordinate_squared})):
        _assert_probe_matches_reference(sys_, W, 1, 5.0, region, 1e-9, opts)
    # a window short enough that part of the starts stay inside the bound
    _assert_probe_matches_reference(sys_, OutputFamily({1: _first_coordinate_squared}), 1,
                                    0.01, region, 1e-9, opts)


# -- batched region and trajectory checks against per-point loops -------------------------


def _reference_fd_gradient(value, x, gamma):
    x = np.asarray(x, dtype=float)
    h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (value(x + e, gamma) - value(x - e, gamma)) / (2.0 * h)
    return grad


def _reference_grad(V, x, gamma):
    if V.gradient is not None:
        return np.asarray(V.gradient(x, gamma), dtype=float)
    return _reference_fd_gradient(V.value, x, gamma)


def _reference_lie(V, system, x, gamma):
    return float(np.dot(_reference_grad(V, x, gamma), np.asarray(system.fields[gamma](x))))


def _inside(system, gamma, x):
    return float(system.covering.boundaries[gamma](x)) <= 0.0


def _reference_gradient_consistency(V, system, region):
    """(worst, witness, n_points) of check_gradient_consistency, one point at a time."""
    worst, witness = 0.0, None
    pts = region.all_points(system.dimension)
    for gamma in system.modes.labels:
        for x in pts:
            g_sup = _reference_grad(V, x, gamma)
            g_fd = _reference_fd_gradient(V.value, x, gamma)
            err = float(np.linalg.norm(g_sup - g_fd) / max(1.0, np.linalg.norm(g_sup)))
            if err > worst:
                worst, witness = err, (np.array(x), gamma)
    return worst, witness, len(pts) * system.modes.size


def _reference_decrease_on_covering(V, system, region):
    """(worst, witness, n_checked) of check_decrease_on_covering, one point at a time."""
    worst, witness, n_checked = -math.inf, None, 0
    for gamma in system.modes.labels:
        for x in region.all_points(system.dimension):
            if _inside(system, gamma, x):
                n_checked += 1
                ld = _reference_lie(V, system, x, gamma)
                if ld > worst:
                    worst, witness = ld, (np.array(x), gamma)
    return worst, witness, n_checked


def _reference_shell_tables(V, system, region):
    """Per shell: min and max of V, and the largest Lie derivative, one point at a time."""
    lower, upper, lie = [], [], []
    for _, pts in region.shell_points(system.dimension):
        pairs = [(gamma, x) for gamma in system.modes.labels for x in pts
                 if _inside(system, gamma, x)]
        vals = [float(V.value(x, gamma)) for gamma, x in pairs]
        lower.append(min(vals) if vals else math.nan)
        upper.append(max(vals) if vals else math.nan)
        w = -math.inf
        for gamma, x in pairs:
            w = max(w, _reference_lie(V, system, x, gamma))
        lie.append(w)
    return np.array(lower), np.array(upper), np.array(lie)


def _reference_return_monotonicity(V, traj, tol):
    """(worst, witness) of both sub-checks of check_return_monotonicity, sample by sample."""
    sig = traj.signal
    edge_times = np.concatenate([[0.0], sig.switch_times])
    worst_a, witness_a = -math.inf, None
    end_min = {}
    for i in range(edge_times.size):
        gamma = int(sig.modes[i])
        if gamma in end_min:
            rise = float(V.value(traj.state_at_sample(float(edge_times[i])), gamma)) - end_min[gamma]
            if rise > worst_a:
                worst_a, witness_a = rise, (float(edge_times[i]), gamma)
        if i + 1 < edge_times.size:
            v_end = float(V.value(traj.state_at_sample(float(edge_times[i + 1])), gamma))
            end_min[gamma] = min(end_min.get(gamma, math.inf), v_end)
    worst_b, witness_b = -math.inf, None
    run_min = {}
    for k in range(traj.times.size):
        gamma = int(traj.sample_modes[k])
        v, t = float(V.value(traj.states[k], gamma)), float(traj.times[k])
        if gamma in run_min:
            v_min, t_min = run_min[gamma]
            if v - v_min > worst_b:
                worst_b, witness_b = v - v_min, (t_min, t, gamma)
            if v < v_min:
                run_min[gamma] = (v, t)
        else:
            run_min[gamma] = (v, t)
    worst_a, worst_b = (0.0 if w == -math.inf else w for w in (worst_a, worst_b))
    return ((worst_a, None if worst_a <= tol else witness_a),
            (worst_b, None if worst_b <= tol else witness_b))


def _three_d_field(x):
    a, b, c = x.T
    return np.array([-a + 0.5 * b * c, -b - 0.5 * a * c, 0.1 * a - c]).T


def _below_slab(x):
    return x.T[2] - 0.5


def _above_slab(x):
    return -0.5 - x.T[2]


def _region_check_cases():
    ex1 = builtin_scenario("example1")
    m = ModeSet(2)
    flipped = SwitchedSystem(2, {1: lambda x: -ex1.system.fields[1](x), 2: rotation}, m,
                             ex1.system.covering)
    bare = LyapunovCandidate(value=ex1.V.value)  # finite differences
    slabs = SwitchedSystem(3, {1: _three_d_field, 2: lambda x: -_three_d_field(x)}, m,
                           Covering({1: _below_slab, 2: _above_slab}))
    cases = [(builtin_scenario(name).V, builtin_scenario(name).system)
             for name in ("example1", "example2", "two_centers")]
    return cases + [(ex1.V, flipped), (bare, ex1.system), (ex1.V, slabs), (bare, slabs)]


def _assert_same_witness(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


@pytest.mark.parametrize("region", [REGION, SampleRegion(0.1, 3.0),
                                    SampleRegion(0.2, 2.0, n_radii=6, n_directions=5, seed=7)],
                         ids=["small", "default", "odd"])
def test_region_checks_match_per_point_reference(region):
    cases = _region_check_cases()
    for V, system in cases:
        rep = check_gradient_consistency(V, system, region)
        if V.gradient is not None:
            worst, witness, n_points = _reference_gradient_consistency(V, system, region)
            assert (rep.worst, rep.details["n_points"]) == (worst, n_points)
            _assert_same_witness(rep.witness, None if rep.passed else witness)
        rep = check_decrease_on_covering(V, system, region)
        worst, witness, n_checked = _reference_decrease_on_covering(V, system, region)
        assert (rep.worst, rep.details["n_checked"]) == (worst, n_checked)
        _assert_same_witness(rep.witness, None if rep.passed else witness)
        lower, upper, lie = _reference_shell_tables(V, system, region)
        classk = check_class_k_bounds(V, system, region)
        assert np.array_equal(classk.lower, lower, equal_nan=True)
        assert np.array_equal(classk.upper, upper, equal_nan=True)
        assert np.array_equal(check_strict_decrease(V, system, region).worst, lie)
    # the flipped focus is the failing case, with a witness
    assert not check_decrease_on_covering(*cases[3], region).passed


def test_return_monotonicity_matches_per_sample_reference(ex1_batch, ex2_batch,
                                                          two_centers_batch, center_orbit):
    ex1, ex2 = builtin_scenario("example1"), builtin_scenario("example2")
    cases = [(ex1.V, t) for t in ex1_batch[:6]]
    cases += [(ex2.V, t) for t in ex2_batch[:3]]
    cases += [(ex1.V, t) for t in two_centers_batch[:3]]
    cases += [(ex1.V, center_orbit), (ex1.V, reverse_trajectory(ex1_batch[0])),
              (ex2.V, reverse_trajectory(ex2_batch[0]))]
    failing = 0
    for V, traj in cases:
        for tol in (1e-7, 0.0):
            rep = check_return_monotonicity(V, traj, tol)
            want = _reference_return_monotonicity(V, traj, tol)
            for key, (worst, witness) in zip(("across_switches", "across_samples"), want):
                sub = rep.details[key]
                assert (sub.worst, sub.witness, sub.passed) == (worst, witness, worst <= tol)
            failing += not rep.passed
    assert failing > 0


# -- NaN fails the sampled checks --------------------------------------------------------------


def _nan_left_field(x):
    """x' = -x, but NaN on x1 <= 0.5."""
    return np.where((x.T[0] <= 0.5)[..., None], np.nan, -x)


def _nan_left_gradient(x, gamma):
    return np.where((x.T[0] <= 0.5)[..., None], np.nan, 2.0 * x)


def _nan_case():
    m = ModeSet(1)
    system = SwitchedSystem(2, {1: _nan_left_field}, m, Covering.trivial(m))
    return system, LyapunovCandidate(squared_norm_candidate().value, _nan_left_gradient)


def test_nan_fails_gradient_and_decrease_checks_with_first_nan_witness():
    system, V = _nan_case()
    pts = REGION.all_points(2)
    first_nan = pts[int(np.argmax(pts[:, 0] <= 0.5))]
    for check in (check_gradient_consistency, check_decrease_on_covering):
        rep = check(V, system, REGION)
        assert not rep.passed and math.isnan(rep.worst)
        assert np.array_equal(rep.witness[0], first_nan) and rep.witness[1] == 1


def test_nan_fails_strict_decrease_on_every_shell():
    system, V = _nan_case()
    rep = check_strict_decrease(V, system, REGION)
    assert not rep.passed  # every shell has points with x1 <= 0.5
    assert np.all(np.isnan(rep.worst))


def _nan_left_value(x, gamma):
    return np.where(x.T[0] < 0.0, np.nan, np.vecdot(x, x))


def _norm_value(x, gamma):
    """x.x / sqrt(x.x) = |x|, read as 0/0, NaN, at the origin."""
    with np.errstate(invalid="ignore"):
        return np.vecdot(x, x) / np.sqrt(np.vecdot(x, x))


def test_nan_at_origin_fails_class_k(ex1_scenario):
    classk = check_class_k_bounds(LyapunovCandidate(_norm_value), ex1_scenario.system, REGION)
    assert not classk.passed
    assert any("does not vanish at the origin" in r for r in classk.reasons)


def test_nan_fails_class_k_and_monotonicity(ex1_scenario, center_orbit):
    V = LyapunovCandidate(_nan_left_value)
    classk = check_class_k_bounds(V, ex1_scenario.system, REGION)
    assert not classk.passed and any("NaN" in r for r in classk.reasons)
    rep = check_return_monotonicity(V, center_orbit, tol=1e-7)
    first = int(np.argmax(center_orbit.states[:, 0] < 0.0))
    assert not rep.passed and math.isnan(rep.worst)
    assert rep.witness[1:] == (float(center_orbit.times[first]), 2)


def _nan_left_output(x):
    return np.where(x.T[0] <= 0.5, np.nan, 1.0)


def test_nan_output_fails_the_probe(ex2_scenario):
    small = SampleRegion(0.1, 1.0, n_radii=3, n_directions=4, n_random=8, seed=6)
    rep = distinguishability_probe(ex2_scenario.system, OutputFamily({1: _nan_left_output}),
                                   1, 0.1, small, threshold=1e-12)
    assert not rep.passed and math.isnan(rep.min_peak)
    assert np.array_equal(rep.witness, small.all_points(2)[0])  # (0.1, 0) reads NaN at once


# -- per-point functions are rejected -------------------------------------------------------------


def _per_point_rotation(x):
    return np.array([-x[1], x[0]])


def test_per_point_field_raises_type_error_in_batched_callers():
    m = ModeSet(1)
    system = SwitchedSystem(2, {1: _per_point_rotation}, m, Covering.trivial(m))
    W = OutputFamily({1: _first_coordinate_squared})
    with pytest.raises(TypeError, match="_per_point_rotation is not row-wise"):
        distinguishability_probe(system, W, 1, 0.1, REGION)
    with pytest.raises(TypeError, match="_per_point_rotation is not row-wise"):
        check_decrease_on_covering(squared_norm_candidate(), system, REGION)
    # one state at a time it is a valid field
    assert abs(lie_derivative(squared_norm_candidate(), system, np.array([0.3, 0.4]), 1)) < 1e-15


def test_finite_difference_gradient_rowwise_matches_per_point():
    V = builtin_scenario("example2").V
    pts = SampleRegion(0.1, 3.0).all_points(2)
    for value in (V.value, _nan_left_value):
        got = finite_difference_gradient(value, pts, 1)
        want = np.array([_reference_fd_gradient(value, x, 1) for x in pts])
        assert np.array_equal(got, want, equal_nan=True)


# -- sample region determinism ------------------------------------------------------------


def test_sample_region_deterministic():
    a = SampleRegion(0.1, 2.0, seed=9)
    b = SampleRegion(0.1, 2.0, seed=9)
    assert np.array_equal(a.all_points(2), b.all_points(2))
    assert np.array_equal(a.all_points(3), b.all_points(3))


def test_sample_region_streams_are_pinned():
    # every draw is random.Random(s).random(), a stream Python keeps for a seed
    # across versions: s = seed for the shell directions above the plane and
    # seed + 1 for the scattered points, radii first, then Box-Muller
    # directions.  A drift in either stream or formula moves these values
    region = SampleRegion(0.1, 3.0)
    first = region.all_points(2)[320]  # after 20 shells of 16 directions
    assert first.tolist() == [0.40713231805012784, 0.2720414958987241]
    assert math.hypot(*first) == 0.1 + 2.9 * random.Random(1).random()
    assert region.all_points(3)[320].tolist() == [
        0.4017007011147684, 0.2684121470832806, 0.0797167856460159]
    assert region.all_points(3)[0].tolist() == [
        0.009677529750574045, -0.0058745147538086994, -0.09935711093995256]


def test_sample_region_hits_axes_in_plane():
    region = SampleRegion(0.5, 1.0, n_radii=2, n_directions=4, n_random=0)
    pts = region.all_points(2)
    assert any(abs(p[0]) < 1e-12 for p in pts)  # (0, r) present


def test_sample_region_validation():
    with pytest.raises(ValueError):
        SampleRegion(0.0, 1.0)
    with pytest.raises(ValueError):
        SampleRegion(2.0, 1.0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        SampleRegion(0.1, 1.0, seed=-1)  # Random(-s) is Random(s)


def test_finite_difference_accuracy():
    value = lambda x, g: float(np.sin(x[0]) * x[1])
    x = np.array([0.3, 1.7])
    grad = finite_difference_gradient(value, x, 1)
    exact = np.array([math.cos(0.3) * 1.7, math.sin(0.3)])
    assert np.allclose(grad, exact, rtol=1e-7)


def test_sample_region_draws_its_points_once():
    """all_points is drawn once per region and dimension, read-only, with the
    bits of a fresh draw: the shells radius by radius, then the scattered points."""
    region = SampleRegion(0.25, 2.0, n_radii=6, n_directions=5, n_random=40, seed=11)
    for dim in (2, 3):
        points = region.all_points(dim)
        assert region.all_points(dim) is points and not points.flags.writeable
        shells = np.vstack([pts for _, pts in region.shell_points(dim)])
        fresh = np.vstack([shells, region.random_points(dim)])
        assert points.shape == (6 * 5 + 40, dim) and points.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError):
        region.all_points(2)[0, 0] = 1.0
