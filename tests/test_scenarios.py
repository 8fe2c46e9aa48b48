import pickle

import numpy as np
import pytest

from switchcert.scenarios import (
    builtin_scenario,
    polar_grid,
    register_scenario,
    scenario_names,
)
from dataclasses import replace


def test_builtin_names():
    assert scenario_names() == ("example1", "example2", "two_centers")


def test_unknown_scenario():
    with pytest.raises(ValueError):
        builtin_scenario("nope")


def test_register_rejects_duplicates():
    with pytest.raises(ValueError):
        register_scenario("example1", lambda: None)


def test_polar_grid_shape_and_annulus():
    grid = polar_grid([0.25, 2.0], 8)
    assert grid.shape == (16, 2)
    radii = np.linalg.norm(grid, axis=1)
    assert radii.min() == pytest.approx(0.25)
    assert radii.max() == pytest.approx(2.0)
    assert np.all(np.abs(grid) > 1e-12)  # phase offset keeps points off the axes


def test_example1_grid_matches_contract(ex1_scenario):
    radii = np.linalg.norm(ex1_scenario.initial_states, axis=1)
    assert ex1_scenario.initial_states.shape == (16, 2)
    assert radii.min() >= 0.25 - 1e-12 and radii.max() <= 2.0 + 1e-12


def test_scenario_validation(ex1_scenario):
    with pytest.raises(ValueError):
        replace(ex1_scenario, horizon=0.0)
    with pytest.raises(ValueError):
        replace(ex1_scenario, initial_states=np.empty((0, 2)))
    with pytest.raises(ValueError):
        replace(ex1_scenario, initial_states=np.ones((4, 3)))


def test_builtin_overrides():
    scn = builtin_scenario("example1", horizon=10.0)
    assert scn.horizon == 10.0


def test_example2_identities_at_origin(ex2_scenario):
    zero = np.zeros(2)
    for gamma in (1, 2):
        assert np.all(ex2_scenario.system.rhs(zero, gamma) == 0.0)
        assert ex2_scenario.W(gamma, zero) == 0.0
        assert ex2_scenario.V.value(zero, gamma) == 0.0


def _round_trip_ini(tmp_path, name, text):
    from switchcert.cli import load_scenario_file

    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    return load_scenario_file(str(path))[0]


def test_scenarios_pickle_and_simulate_alike(tmp_path):
    from switchcert.signals import ModeSet, SwitchingSignal, save_signal
    from switchcert.stability import simulate_batch

    save_signal(SwitchingSignal(np.array([1.5, 3.0]), np.array([2, 1, 2]), 5.0),
                ModeSet(2), tmp_path / "sig.txt")
    scenarios = [builtin_scenario(name, horizon=5.0) for name in scenario_names()] + [
        _round_trip_ini(tmp_path, "feedback", "[scenario]\nsystem = example1\nhorizon = 5\n"
                        "[initial_conditions]\nradii = 0.5 2\nangles = 3\n"
                        "[signal]\nsource = feedback\n"),
        _round_trip_ini(tmp_path, "generate", "[scenario]\nsystem = example2\nhorizon = 5\n"
                        "seed = 4\n[signal]\nsource = generate\ntau_d = 0.7\nn0 = 2\ncount = 3\n"),
        _round_trip_ini(tmp_path, "file", "[scenario]\nsystem = two_centers\nhorizon = 5\n"
                        "[signal]\nsource = file\npaths = sig.txt\n"),
    ]
    for scenario in scenarios:
        copy = pickle.loads(pickle.dumps(scenario))
        assert not copy.initial_states.flags.writeable
        expected, got = simulate_batch(scenario), simulate_batch(copy)
        assert len(got) == len(expected) > 0, scenario.name
        for a, b in zip(expected.trajectories, got.trajectories):
            assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
            assert a.signal == b.signal
            traj = pickle.loads(pickle.dumps(b))
            assert np.array_equal(traj.states, b.states) and traj.signal == b.signal
            for array in (traj.times, traj.states, traj.signal.switch_times, traj.signal.modes):
                assert not array.flags.writeable
