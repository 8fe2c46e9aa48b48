from dataclasses import replace

import numpy as np
import pytest

from switchcert.scenarios import builtin_scenario
from switchcert.signals import SwitchingSignal
from switchcert.stability import simulate_batch
from switchcert.systems import IntegratorOptions, LinearField, SwitchedSystem, integrate


# Plain-function twins of the built-in linear fields: the same matrices,
# written as the Python functions the built-ins were before they were
# declared as LinearField, so a twin system steps DOP853 where the
# built-in takes the exact flow.


def spiral_focus_function(x):
    xt = x.T
    a, b = xt[0], xt[1]
    return np.array([-2.0 * a - 2.0 * b, 2.0 * a]).T


def rotation_function(x):
    xt = x.T
    return np.array([-xt[1], xt[0]]).T


_TWINS = {((-2.0, -2.0), (2.0, 0.0)): spiral_focus_function,
          ((0.0, -1.0), (1.0, 0.0)): rotation_function}


def twin_system(system):
    """``system`` with every built-in LinearField replaced by its twin."""
    fields = {g: _TWINS[f.matrix] if isinstance(f, LinearField) else f
              for g, f in system.fields.items()}
    return SwitchedSystem(system.dimension, fields, system.modes, system.covering)


def twin_scenario(name):
    scenario = builtin_scenario(name)
    return replace(scenario, system=twin_system(scenario.system))


@pytest.fixture(scope="session")
def ex1_scenario():
    return builtin_scenario("example1")


@pytest.fixture(scope="session")
def ex1_batch(ex1_scenario):
    return simulate_batch(ex1_scenario)


@pytest.fixture(scope="session")
def ex2_scenario():
    return builtin_scenario("example2")


@pytest.fixture(scope="session")
def ex2_batch(ex2_scenario):
    return simulate_batch(ex2_scenario)


@pytest.fixture(scope="session")
def two_centers_scenario():
    return builtin_scenario("two_centers")


@pytest.fixture(scope="session")
def two_centers_batch(two_centers_scenario):
    return simulate_batch(two_centers_scenario)


@pytest.fixture(scope="session")
def two_centers_twin_batch():
    """two_centers' batch with DOP853 stepping the twin rotations."""
    return simulate_batch(twin_scenario("two_centers"))


@pytest.fixture(scope="session")
def center_orbit(ex1_scenario):
    """Rotation-only trajectory on the unit circle, densely sampled."""
    opts = IntegratorOptions(max_dx=0.01)
    return integrate(ex1_scenario.system, [1.0, 0.0],
                     SwitchingSignal.constant(2, 60.0), opts)


@pytest.fixture(scope="session")
def zero_trajectory(ex1_scenario):
    """Equilibrium trajectory under a periodic two-mode signal."""
    times = np.arange(1.0, 20.0)
    modes = np.array([1 + (i % 2) for i in range(times.size + 1)])
    signal = SwitchingSignal(times, modes, 20.0)
    return integrate(ex1_scenario.system, [0.0, 0.0], signal)
