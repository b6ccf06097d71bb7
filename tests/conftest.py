"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.core.equilibrium import EquilibriumParameters
from repro.experiments.scenarios import smoke_scale
from repro.names import Algorithm
from repro.sim.config import SimulationConfig


#: A heterogeneous capacity vector mirroring the default simulation
#: population (two fast, six medium, eight slow, four very slow users).
EXAMPLE_CAPACITIES = [6.0] * 2 + [3.0] * 6 + [1.0] * 8 + [0.5] * 4


def object_smoke_scale(algorithm: Algorithm = Algorithm.TCHAIN,
                       seed: int = 0) -> SimulationConfig:
    """``smoke_scale`` pinned to the object engine.

    The presets run on ``vector``; tests of the simulator's own
    behaviour (faults, churn, lingering, invariants) use this so they
    keep checking the reference engine, which the parity suites then
    compare the array engines against."""
    return smoke_scale(algorithm, seed=seed).with_backend("object")


@pytest.fixture
def capacities():
    return list(EXAMPLE_CAPACITIES)


@pytest.fixture
def eq_params(capacities):
    return EquilibriumParameters(capacities)


@pytest.fixture
def smoke_config():
    return smoke_scale(Algorithm.TCHAIN, seed=1)
