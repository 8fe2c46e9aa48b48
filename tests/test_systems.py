import math

import numpy as np
import pytest
from scipy.linalg import expm

from switchcert.scenarios import (
    builtin_scenario,
    half_plane_covering,
    half_plane_rule,
    rotation,
    saturating_pull,
)
from switchcert.signals import AdtClass, ModeSet, SwitchingSignal, validate_adt
from switchcert.systems import (
    ChatteringError,
    Covering,
    FeedbackRule,
    FiniteEscapeError,
    IntegratorOptions,
    StiffnessError,
    SwitchedSystem,
    check_covering_compliance,
    check_equilibrium,
    integrate,
    integrate_feedback,
    modes_containing_origin,
    write_trajectory_csv,
)

QUARTER = math.pi / 2.0


def single_mode_system(f, dim=2):
    m = ModeSet(1)
    return SwitchedSystem(dim, {1: f}, m, Covering.trivial(m))


# -- structural ----------------------------------------------------------------


def test_system_requires_matching_keys():
    m = ModeSet(2)
    with pytest.raises(ValueError):
        SwitchedSystem(2, {1: rotation}, m, Covering.trivial(m))
    with pytest.raises(ValueError):
        SwitchedSystem(2, {1: rotation, 2: rotation}, m, Covering({1: lambda x: -1.0}))


def test_covering_membership_and_union():
    cov = half_plane_covering()
    assert cov.contains(1, np.array([-1.0, 0.0]))
    assert not cov.contains(1, np.array([1.0, 0.0]))
    assert cov.contains(2, np.array([0.0, 5.0]))
    pts = np.array([[1.0, 1.0], [-2.0, 0.3], [0.0, 0.0]])
    assert cov.check_union(pts).passed
    holey = Covering({1: lambda x: x[0] + 1.0, 2: lambda x: 1.0 - x[0]})  # |x0| >= 1 only
    assert holey.check_union(np.array([[-2.0, 0.0], [3.0, 0.0]])).passed
    rep = holey.check_union(np.array([[-2.0, 0.0], [0.0, 0.0]]))
    assert not rep.passed and rep.worst == pytest.approx(1.0)


def test_modes_containing_origin():
    m = ModeSet(2)
    assert modes_containing_origin(half_plane_covering(), m, 2) == (1, 2)
    assert modes_containing_origin(Covering.trivial(m), m, 2) == (1, 2)
    cov = Covering({1: lambda x: x[0] + 1.0, 2: lambda x: -1.0})  # chi_1 = {x0 <= -1}
    assert modes_containing_origin(cov, m, 2) == (2,)


def test_check_equilibrium_builtin_and_shifted():
    for name in ("example1", "example2"):
        assert check_equilibrium(builtin_scenario(name).system).passed
    m = ModeSet(1)
    shifted = SwitchedSystem(
        2, {1: lambda x: rotation(x) + np.array([1.0, 0.0])}, m, Covering.trivial(m)
    )
    rep = check_equilibrium(shifted)
    assert not rep.passed
    assert rep.worst == pytest.approx(1.0)


# -- prescribed-signal integration ------------------------------------------------


def test_quarter_turn_rotation():
    sys_ = builtin_scenario("example1").system
    traj = integrate(sys_, [1.0, 0.0], SwitchingSignal.constant(2, QUARTER))
    assert np.linalg.norm(traj.states[-1] - np.array([0.0, 1.0])) <= 1e-6


def test_equilibrium_stays_put():
    sys_ = builtin_scenario("example1").system
    signal = SwitchingSignal(np.array([1.0, 2.0]), np.array([1, 2, 1]), 5.0)
    traj = integrate(sys_, [0.0, 0.0], signal)
    assert np.all(traj.states == 0.0)


def test_saturating_pull_strictly_decreasing():
    traj = integrate(single_mode_system(saturating_pull), [3.0, 4.0],
                     SwitchingSignal.constant(1, 20.0))
    norms = traj.norms
    assert np.all(np.diff(norms) < 0.0)


def test_integrate_input_validation():
    sys_ = builtin_scenario("example1").system
    sigc = SwitchingSignal.constant(1, 1.0)
    with pytest.raises(ValueError):
        integrate(sys_, [1.0], sigc)  # wrong dimension
    with pytest.raises(ValueError):
        integrate(sys_, [math.nan, 0.0], sigc)


def test_switch_times_are_mesh_points():
    sys_ = builtin_scenario("example1").system
    signal = SwitchingSignal(np.array([0.7, 1.9, 3.3]), np.array([1, 2, 1, 2]), 5.0)
    traj = integrate(sys_, [1.0, 0.0], signal)
    for t in signal.switch_times:
        traj.state_at_sample(float(t))  # raises KeyError when absent


def test_sample_density_respects_max_dx():
    sys_ = builtin_scenario("example1").system
    opts = IntegratorOptions(max_dx=0.05)
    traj = integrate(sys_, [1.0, 0.5],
                     SwitchingSignal(np.array([1.0, 3.0]), np.array([1, 2, 1]), 5.0), opts)
    steps = np.linalg.norm(np.diff(traj.states, axis=0), axis=1)
    assert steps.max() <= 0.05 + 1e-12


def test_blow_up_reports_escape_time():
    sys_ = single_mode_system(lambda x: x ** 2, dim=1)
    opts = IntegratorOptions(max_dx=math.inf)
    with pytest.raises(FiniteEscapeError) as err:
        integrate(sys_, [1.0], SwitchingSignal.constant(1, 2.0), opts)
    assert 0.9 <= err.value.escape_time <= 1.01  # dx/dt = x^2 from 1 escapes at t = 1


def test_stiffness_error_on_nonfinite_field():
    sys_ = single_mode_system(
        lambda x: np.array([1.0, np.sqrt(1.0 - x[0])]) if x[0] <= 1.0
        else np.array([1.0, math.nan])
    )
    with pytest.raises(StiffnessError):
        integrate(sys_, [0.0, 0.0], SwitchingSignal.constant(1, 5.0))


def test_integration_consistency_with_error_budget():
    sys_ = builtin_scenario("example1").system
    signal = SwitchingSignal(np.array([1.0, 3.0]), np.array([1, 2, 1]), 5.0)
    coarse = integrate(sys_, [1.0, 0.5], signal, IntegratorOptions(rtol=1e-9, atol=1e-12))
    fine = integrate(sys_, [1.0, 0.5], signal, IntegratorOptions(rtol=5e-10, atol=5e-13))
    diff = np.linalg.norm(coarse.states[-1] - fine.states[-1])
    assert diff < 10.0 * coarse.stats.error_bound_sum


def test_single_mode_reversal():
    forward = single_mode_system(rotation)
    backward = single_mode_system(lambda x: -rotation(x))
    opts = IntegratorOptions(rtol=1e-12, atol=1e-13)
    out = integrate(forward, [1.0, 0.0], SwitchingSignal.constant(1, QUARTER), opts)
    back = integrate(backward, out.states[-1], SwitchingSignal.constant(1, QUARTER), opts)
    assert np.linalg.norm(back.states[-1] - np.array([1.0, 0.0])) <= 100.0 * opts.atol


def test_unsplit_steps_skip_the_interpolant():
    sys_ = builtin_scenario("example1").system
    signal = SwitchingSignal(np.array([1.0, 3.0]), np.array([1, 2, 1]), 5.0)
    coarse = integrate(sys_, [1.0, 0.5], signal, IntegratorOptions(max_dx=math.inf))
    fine = integrate(sys_, [1.0, 0.5], signal, IntegratorOptions(max_dx=0.01))
    # subdivision only adds samples: the accepted steps are the same
    idx = np.searchsorted(fine.times, coarse.times)
    assert np.array_equal(fine.times[idx], coarse.times)
    assert np.array_equal(fine.states[idx], coarse.states)
    assert coarse.stats.n_steps == fine.stats.n_steps
    # and the interpolant's extra field evaluations are paid only by split steps
    assert coarse.stats.n_rhs < fine.stats.n_rhs


# -- feedback integration -----------------------------------------------------------


def test_feedback_first_switch_quarter_turn():
    sys_ = builtin_scenario("example1").system
    traj = integrate_feedback(sys_, [1.0, 0.0], half_plane_rule(), 10.0)
    t1 = traj.signal.switch_times[0]
    assert abs(t1 - QUARTER) <= 1e-8
    assert np.linalg.norm(traj.state_at_sample(float(t1)) - np.array([0.0, 1.0])) <= 1e-6
    assert list(traj.signal.modes[:2]) == [2, 1]


def test_feedback_equilibrium_never_switches():
    sys_ = builtin_scenario("example1").system
    traj = integrate_feedback(sys_, [0.0, 0.0], half_plane_rule(), 10.0)
    assert traj.signal.n_switches == 0
    assert np.all(traj.states == 0.0)


def test_feedback_realized_signal_has_dwell_time(ex1_batch):
    for traj in ex1_batch.trajectories:
        gap = traj.signal.min_switch_gap()
        assert gap > 0.0
        assert validate_adt(traj.signal, AdtClass(gap / 2.0, 1)).passed
        # the measured gap itself is a dwell time (boundary equality valid)
        assert validate_adt(traj.signal, AdtClass(gap, 1)).passed


def test_feedback_event_boundary_accuracy(ex1_batch):
    rule = half_plane_rule()
    opts = IntegratorOptions()
    for traj in ex1_batch.trajectories[:4]:
        signal = traj.signal
        for i, t in enumerate(signal.switch_times):
            x = traj.state_at_sample(float(t))
            new_mode = int(signal.modes[i + 1])
            b = rule.boundaries[new_mode](x)
            assert abs(b) <= opts.event_tol * (1.0 + np.linalg.norm(x))


def test_feedback_gap_stability_on_annulus():
    sys_ = builtin_scenario("example1").system
    rule = half_plane_rule()
    gaps = []
    for r in (0.1, 0.5, 2.0):
        for angle in (0.3, 2.0, 4.0):
            x0 = [r * math.cos(angle), r * math.sin(angle)]
            traj = integrate_feedback(sys_, x0, rule, 30.0)
            gaps.append(traj.signal.min_switch_gap())
    assert min(gaps) > 0.0
    assert max(gaps) / min(gaps) <= 1.10


def test_feedback_chattering_guard():
    m = ModeSet(2)
    sliding = SwitchedSystem(
        1,
        {1: lambda x: np.array([1.0]), 2: lambda x: np.array([-1.0])},
        m,
        Covering.trivial(m),
    )
    rule = FeedbackRule(
        mode_of=lambda x: 1 if x[0] < 0.0 else 2,
        boundaries={1: lambda x: float(x[0]), 2: lambda x: float(-x[0])},
    )
    opts = IntegratorOptions(max_switches=50)
    with pytest.raises(ChatteringError):
        integrate_feedback(sliding, [-0.5, ], rule, 10.0, opts)


# Every mode of example1 and two_centers is linear, so the exact solution
# along a realized signal is a product of matrix exponentials.
_FOCUS = np.array([[-2.0, -2.0], [2.0, 0.0]])
_ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
_MATRICES = {"example1": {1: _FOCUS, 2: _ROTATION}, "two_centers": {1: _ROTATION, 2: _ROTATION}}


@pytest.mark.parametrize("name, batch_fixture", [("example1", "ex1_batch"),
                                                 ("two_centers", "two_centers_batch")])
def test_feedback_batch_matches_closed_form_flow(request, name, batch_fixture):
    system = builtin_scenario(name).system
    matrices = _MATRICES[name]
    probe = np.array([0.3, -1.7])
    for gamma, a in matrices.items():
        assert np.array_equal(system.rhs(probe, gamma), a @ probe)
    for traj in request.getfixturevalue(batch_fixture).trajectories:
        x = traj.states[0]
        for start, end, gamma in traj.signal.segments():
            x = expm(matrices[gamma] * (end - start)) @ x
        assert np.linalg.norm(x - traj.states[-1]) <= traj.stats.error_bound_sum


def test_two_centers_half_turn_dwells(two_centers_scenario, two_centers_batch):
    """Both regions are half-planes and both fields unit-speed rotations,
    so every interior dwell is exactly pi.  Each located switch lies at
    most event_tol past its crossing; the flow's phase error over one
    dwell is at most that dwell's share of the error budget over |x0|
    (a rotation takes like steps all along its circle)."""
    event_tol = two_centers_scenario.integrator.event_tol
    for traj in two_centers_batch.trajectories:
        dwells = np.diff(traj.signal.switch_times)
        assert dwells.size > 10
        share = traj.stats.error_bound_sum * math.pi / traj.horizon
        bound = event_tol + share / float(np.linalg.norm(traj.states[0]))
        assert np.max(np.abs(dwells - math.pi)) <= bound


# -- compliance -----------------------------------------------------------------------


def test_compliance_example_trajectory(ex1_batch):
    cov = half_plane_covering()
    for traj in ex1_batch.trajectories:
        assert check_covering_compliance(traj, cov, tol=1e-6).passed


def test_compliance_trivial_covering(ex1_batch):
    cov = Covering.trivial(ModeSet(2))
    rep = check_covering_compliance(ex1_batch.trajectories[0], cov, tol=0.0)
    assert rep.passed and rep.worst == -1.0


def test_compliance_swapped_modes_violates():
    sys_ = builtin_scenario("example1").system
    traj = integrate(sys_, [1.0, 0.0], SwitchingSignal.constant(1, 1.0))
    # mode 1 active while the state sits in the open right half-plane
    rep = check_covering_compliance(traj, half_plane_covering(), tol=1e-6)
    assert not rep.passed
    t, mode, margin = rep.details["violations"][0]
    assert mode == 1 and margin > 0.0


# -- trajectory export ------------------------------------------------------------------


def test_trajectory_csv_roundtrip(tmp_path, ex1_scenario):
    traj = integrate(ex1_scenario.system, [1.0, 0.0], SwitchingSignal.constant(2, 1.0))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, V=ex1_scenario.V)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,sigma,V"
    assert len(lines) == traj.times.size + 1
    cells = lines[-1].split(",")
    assert float(cells[0]) == traj.times[-1]
    assert float(cells[1]) == traj.states[-1, 0]
    assert int(cells[3]) == 2
    assert float(cells[4]) == pytest.approx(np.dot(traj.states[-1], traj.states[-1]), rel=1e-15)


def test_feedback_integration_deterministic(ex1_scenario):
    rule = half_plane_rule()
    a = integrate_feedback(ex1_scenario.system, [1.3, -0.4], rule, 20.0)
    b = integrate_feedback(ex1_scenario.system, [1.3, -0.4], rule, 20.0)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert a.signal == b.signal
