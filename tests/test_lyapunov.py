import math

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
from switchcert.scenarios import builtin_scenario, rotation
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
    V = LyapunovCandidate(value=lambda x, g: float(np.dot(x, x)) + 1.0)
    rep = check_class_k_bounds(V, ex1_scenario.system, REGION)
    assert not rep.passed
    assert any("origin" in r for r in rep.reasons)


def test_class_k_degenerate_direction_fails(ex1_scenario):
    m = ModeSet(2)
    sys_ = SwitchedSystem(2, dict(ex1_scenario.system.fields), m, Covering.trivial(m))
    V = LyapunovCandidate(value=lambda x, g: float(x[0] ** 2))
    rep = check_class_k_bounds(V, sys_, REGION)
    assert not rep.passed  # vanishes on the x2 axis, which the shells hit
    assert any("positive" in r for r in rep.reasons)


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
    for traj in ex1_batch.trajectories[:6]:
        rep = check_return_monotonicity(ex1_scenario.V, traj, tol=1e-7)
        assert rep.passed


def test_return_monotonicity_constant_value(ex1_scenario, center_orbit):
    rep = check_return_monotonicity(ex1_scenario.V, center_orbit, tol=1e-7)
    assert rep.passed  # V constant along the rotation: equality case


def test_return_monotonicity_reversed_fails(ex1_scenario, ex1_batch):
    reversed_traj = reverse_trajectory(ex1_batch.trajectories[0])
    rep = check_return_monotonicity(ex1_scenario.V, reversed_traj, tol=1e-7)
    assert not rep.details["across_samples"].passed
    assert rep.details["across_samples"].witness is not None


def test_sample_check_dominates_switch_check(ex1_scenario, ex1_batch):
    # the all-samples check is the stronger one: its worst rise bounds the
    # switch-pair worst rise up to the value drop over one sampling sliver
    for traj in ex1_batch.trajectories[:4]:
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
    sys_ = SwitchedSystem(2, {1: lambda x: x * np.dot(x, x)}, m, Covering.trivial(m))
    region = SampleRegion(5.0, 10.0, n_radii=2, n_directions=2, n_random=2, seed=0)
    return sys_, region, IntegratorOptions(bound=50.0, max_dx=math.inf)


def test_probe_skips_escaping_starts():
    sys_, region, opts = _cubic_escape_case()
    W = OutputFamily({1: lambda x: float(np.dot(x, x))})
    rep = distinguishability_probe(sys_, W, 1, 5.0, region, threshold=1e-9, opts=opts)
    assert rep.skipped  # cubic growth escapes the tight bound


def test_probe_with_every_start_escaped_fails():
    sys_, region, opts = _cubic_escape_case()
    silent = OutputFamily({1: lambda x: 0.0})
    rep = distinguishability_probe(sys_, silent, 1, 5.0, region, threshold=1e-9, opts=opts)
    assert rep.n_probed == 0 and len(rep.skipped) == 6
    assert not rep.passed and rep.min_peak == math.inf and rep.witness is None


def test_probe_rejects_finite_max_dx(ex2_scenario):
    with pytest.raises(ValueError, match="max_dx"):
        distinguishability_probe(ex2_scenario.system, ex2_scenario.W, 1, 0.1, REGION,
                                 opts=IntegratorOptions(max_dx=0.05))


def _first_coordinate_squared(x: np.ndarray) -> float:
    return float(x[0]) ** 2


def _reference_probe(system, W, gamma, delta, region, threshold=None, opts=None):
    """The probe as one ``integrate`` per start; returns its report and the
    per-start sampled states (None for a skipped start)."""
    if threshold is None:
        threshold = 1e-8 * region.r_min ** 2
    if opts is None:
        opts = IntegratorOptions(max_dx=math.inf)
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
                                    opts=None):
    want, want_runs = _reference_probe(system, W, gamma, delta, region, threshold, opts)
    got = distinguishability_probe(system, W, gamma, delta, region, threshold, opts)
    got_runs = advance_starts(system, gamma, region.all_points(system.dimension), delta,
                              opts or IntegratorOptions(max_dx=math.inf))
    got_runs = [None if isinstance(r, FiniteEscapeError) else r for r in got_runs]
    assert [r is None for r in got_runs] == [r is None for r in want_runs]
    got_runs = [r for r in got_runs if r is not None]
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


# -- sample region determinism ------------------------------------------------------------


def test_sample_region_deterministic():
    a = SampleRegion(0.1, 2.0, seed=9)
    b = SampleRegion(0.1, 2.0, seed=9)
    assert np.array_equal(a.all_points(2), b.all_points(2))
    assert np.array_equal(a.all_points(3), b.all_points(3))


def test_sample_region_hits_axes_in_plane():
    region = SampleRegion(0.5, 1.0, n_radii=2, n_directions=4, n_random=0)
    pts = region.all_points(2)
    assert any(abs(p[0]) < 1e-12 for p in pts)  # (0, r) present


def test_sample_region_validation():
    with pytest.raises(ValueError):
        SampleRegion(0.0, 1.0)
    with pytest.raises(ValueError):
        SampleRegion(2.0, 1.0)


def test_finite_difference_accuracy():
    value = lambda x, g: float(np.sin(x[0]) * x[1])
    x = np.array([0.3, 1.7])
    grad = finite_difference_gradient(value, x, 1)
    exact = np.array([math.cos(0.3) * 1.7, math.sin(0.3)])
    assert np.allclose(grad, exact, rtol=1e-7)


def test_fit_power_law_recovers_square(ex1_scenario):
    from switchcert.lyapunov import fit_power_law

    rep = check_class_k_bounds(ex1_scenario.V, ex1_scenario.system, REGION)
    c, p, residual = fit_power_law(rep.radii, rep.lower)
    assert c == pytest.approx(1.0, rel=1e-10)
    assert p == pytest.approx(2.0, abs=1e-10)
    assert residual <= 1e-10
    with pytest.raises(ValueError):
        fit_power_law(rep.radii, np.zeros_like(rep.radii))
