"""Fault tolerance — graceful degradation as transfer loss rises.

Runs every incentive mechanism at smoke scale across transfer-loss
rates 0%..30% and checks that the simulator degrades *gracefully*:

* a faultless run and a ``loss_rate=0`` run produce identical metrics
  (fault injection is free when disabled);
* mean completion time never improves as the loss rate rises;
* the observed loss rate tracks the configured one;
* every swarm still completes the download at 30% loss.

``python examples/fault_tolerance_sweep.py`` prints the
degradation-vs-loss-rate table.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.experiments.scenarios import smoke_scale
from repro.names import EXTENDED_ALGORITHMS, Algorithm
from repro.sim import FaultConfig, SimulationConfig, run_simulation
from repro.sim.metrics import SimulationMetrics

LOSS_RATES = (0.0, 0.1, 0.2, 0.3)
SEED = 404


def _config(algorithm: Algorithm, rate: float) -> SimulationConfig:
    base = smoke_scale(algorithm, seed=SEED)
    return base.with_faults(FaultConfig(transfer_loss_rate=rate))


def _degradation_sweep() -> Dict[Algorithm, Dict[float, SimulationMetrics]]:
    return {
        algorithm: {
            rate: run_simulation(_config(algorithm, rate)).metrics
            for rate in LOSS_RATES
        }
        for algorithm in EXTENDED_ALGORITHMS
    }


@pytest.fixture(scope="module")
def degradation() -> Dict[Algorithm, Dict[float, SimulationMetrics]]:
    return _degradation_sweep()


def check_zero_loss_identical(degradation) -> None:
    for algorithm in EXTENDED_ALGORITHMS:
        faultless = run_simulation(smoke_scale(algorithm, seed=SEED)).metrics
        assert degradation[algorithm][0.0] == faultless, algorithm


def check_monotone_degradation(degradation) -> None:
    for algorithm, runs in degradation.items():
        if algorithm is Algorithm.RECIPROCITY:
            # Never bootstraps at smoke scale even without faults
            # (mean completion time is inf at every loss rate), so
            # degradation shows up in lost transfers instead.
            lost = [runs[r].faults.transfers_lost for r in LOSS_RATES]
            assert lost == sorted(lost) and lost[-1] > 0, lost
            continue
        times = [runs[r].mean_completion_time() for r in LOSS_RATES]
        # Weak monotonicity with a small tolerance: losing transfers
        # can only slow a swarm down, never speed it up.
        for lo, hi in zip(times, times[1:]):
            assert hi >= lo * 0.98, (algorithm, times)
        assert times[-1] > times[0], (algorithm, times)


def check_observed_loss_tracks_configured(degradation) -> None:
    for algorithm, runs in degradation.items():
        for rate in LOSS_RATES:
            observed = runs[rate].observed_loss_rate()
            assert abs(observed - rate) < 0.06, (algorithm, rate, observed)


def check_still_completes(degradation) -> None:
    for algorithm, runs in degradation.items():
        if algorithm is Algorithm.RECIPROCITY:
            continue  # never completes at smoke scale, faults or not
        assert runs[0.3].completion_fraction() == 1.0, algorithm


def test_zero_loss_identical_to_faultless(degradation):
    check_zero_loss_identical(degradation)


def test_completion_time_degrades_monotonically(degradation):
    check_monotone_degradation(degradation)


def test_observed_loss_rate_tracks_configured(degradation):
    check_observed_loss_tracks_configured(degradation)


def test_swarm_completes_at_thirty_percent_loss(degradation):
    check_still_completes(degradation)
