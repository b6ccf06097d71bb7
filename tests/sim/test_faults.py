"""Tests for the fault-injection subsystem."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenarios import with_freeriders
from repro.names import Algorithm
from repro.sim import FaultConfig, FaultModel, run_simulation
from repro.sim.metrics import FaultCounters, degradation_rows
from tests.conftest import object_smoke_scale


def _run(algorithm=Algorithm.BITTORRENT, seed=7, faults=None, **overrides):
    config = object_smoke_scale(algorithm, seed=seed)
    if overrides:
        config = replace(config, **overrides)
    if faults is not None:
        config = config.with_faults(faults)
    return run_simulation(config)


class TestFaultConfig:
    def test_defaults_disabled(self):
        config = FaultConfig()
        assert not config.enabled

    @pytest.mark.parametrize("field", ["transfer_loss_rate", "crash_hazard",
                                       "seeder_outage_rate"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rates_must_lie_in_unit_interval(self, field, value):
        with pytest.raises(ConfigurationError):
            FaultConfig(**{field: value})

    @pytest.mark.parametrize("field", ["transfer_loss_rate",
                                       "seeder_outage_rate"])
    def test_loss_and_outage_rates_legal_at_one(self, field):
        """Stress runs legitimately pin these to exactly 1.0: every
        transfer lost, a seeder that fails every round."""
        assert getattr(FaultConfig(**{field: 1.0}), field) == 1.0

    def test_crash_hazard_rejects_one(self):
        """hazard=1.0 would wipe every downloader on round one — only
        ever a configuration mistake, so it stays excluded."""
        with pytest.raises(ConfigurationError):
            FaultConfig(crash_hazard=1.0)

    def test_outage_duration_positive(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(seeder_outage_duration=0)

    def test_report_delay_nonnegative(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(report_delay_rounds=-1)

    def test_obligation_expiry_positive_or_none(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(obligation_expiry_rounds=0)
        assert FaultConfig(obligation_expiry_rounds=1).enabled
        assert not FaultConfig(obligation_expiry_rounds=None).enabled

    @pytest.mark.parametrize("kwargs", [
        {"transfer_loss_rate": 0.1},
        {"crash_hazard": 0.01},
        {"seeder_outage_rate": 0.05},
        {"report_delay_rounds": 3},
        {"obligation_expiry_rounds": 10},
    ])
    def test_any_active_process_enables(self, kwargs):
        assert FaultConfig(**kwargs).enabled

    def test_with_loss_rate(self):
        config = FaultConfig(crash_hazard=0.01).with_loss_rate(0.2)
        assert config.transfer_loss_rate == 0.2
        assert config.crash_hazard == 0.01


class TestFaultModel:
    def test_zero_rates_draw_no_randomness(self):
        rng = random.Random(1)
        before = rng.getstate()
        model = FaultModel(FaultConfig(), rng)
        assert not model.transfer_lost()
        assert not model.peer_crashes()
        assert not model.seeder_fails()
        assert rng.getstate() == before

    def test_nonzero_rate_draws(self):
        rng = random.Random(1)
        before = rng.getstate()
        model = FaultModel(FaultConfig(transfer_loss_rate=0.5), rng)
        model.transfer_lost()
        assert rng.getstate() != before

    def test_loss_frequency_matches_rate(self):
        model = FaultModel(FaultConfig(transfer_loss_rate=0.3),
                           random.Random(42))
        losses = sum(model.transfer_lost() for _ in range(10_000))
        assert 0.27 < losses / 10_000 < 0.33


class TestZeroFaultDeterminism:
    """Enabling the fault layer at zero rates must not move a single bit."""

    @pytest.mark.parametrize("algorithm", [Algorithm.BITTORRENT,
                                           Algorithm.TCHAIN,
                                           Algorithm.REPUTATION])
    def test_metrics_identical_to_faultless(self, algorithm):
        baseline = _run(algorithm).metrics
        explicit = _run(algorithm, faults=FaultConfig()).metrics
        assert explicit == baseline

    def test_zero_counters_on_faultless_run(self):
        metrics = _run().metrics
        assert metrics.faults.transfers_lost == 0
        assert metrics.faults.peer_crashes == 0
        assert metrics.faults.seeder_outages == 0
        assert metrics.observed_loss_rate() == 0.0


class TestTransferLoss:
    def test_faulty_run_deterministic_per_seed(self):
        faults = FaultConfig(transfer_loss_rate=0.2, crash_hazard=0.005)
        assert _run(faults=faults).metrics == _run(faults=faults).metrics

    def test_observed_loss_tracks_configured(self):
        metrics = _run(faults=FaultConfig(transfer_loss_rate=0.2)).metrics
        assert metrics.faults.transfers_lost > 0
        assert 0.14 < metrics.observed_loss_rate() < 0.27

    def test_losses_slow_the_swarm(self):
        clean = _run().metrics.mean_completion_time()
        lossy = _run(faults=FaultConfig(transfer_loss_rate=0.3)).metrics
        assert lossy.mean_completion_time() > clean
        assert lossy.completion_fraction() == 1.0  # degraded, not broken

    def test_conservation_holds_under_loss(self):
        metrics = _run(faults=FaultConfig(transfer_loss_rate=0.2)).metrics
        assert metrics.total_uploaded == metrics.total_received_raw

    def test_lost_then_recovered_counted_as_retry(self):
        metrics = _run(faults=FaultConfig(transfer_loss_rate=0.2)).metrics
        # Everyone finished, so every lost piece was eventually re-sent.
        assert metrics.faults.transfers_retried > 0
        assert (metrics.faults.transfers_retried
                <= metrics.faults.transfers_lost)

    def test_lost_transfers_traced(self):
        result = _run(faults=FaultConfig(transfer_loss_rate=0.2),
                      record_transfers=True)
        lost = [t for t in result.metrics.transfers if t.lost]
        delivered = [t for t in result.metrics.transfers if not t.lost]
        assert lost and delivered
        assert len(lost) == result.metrics.faults.transfers_lost


class TestCrashes:
    def test_crashed_peers_leave_permanently(self):
        faults = FaultConfig(crash_hazard=0.01)
        metrics = _run(faults=faults, seed=11).metrics
        assert metrics.faults.peer_crashes > 0
        # A crashed peer never completes.
        assert metrics.completion_fraction() < 1.0

    def test_tchain_survives_crashes(self):
        faults = FaultConfig(crash_hazard=0.01)
        metrics = _run(Algorithm.TCHAIN, faults=faults, seed=11).metrics
        assert metrics.faults.peer_crashes > 0
        assert metrics.total_uploaded == metrics.total_received_raw


class TestSeederOutages:
    def test_outages_recorded_with_downtime(self):
        faults = FaultConfig(seeder_outage_rate=0.1,
                             seeder_outage_duration=3)
        metrics = _run(faults=faults, seed=5).metrics
        assert metrics.faults.seeder_outages > 0
        assert (metrics.faults.seeder_downtime_rounds
                >= metrics.faults.seeder_outages * 2)

    def test_swarm_completes_despite_outages(self):
        faults = FaultConfig(seeder_outage_rate=0.1)
        metrics = _run(faults=faults, seed=5).metrics
        assert metrics.completion_fraction() == 1.0


class TestDelayedReports:
    def test_delayed_reports_counted(self):
        faults = FaultConfig(report_delay_rounds=3)
        metrics = _run(Algorithm.REPUTATION, faults=faults).metrics
        assert metrics.faults.delayed_reports > 0

    def test_reputation_still_functions_with_stale_board(self):
        faults = FaultConfig(report_delay_rounds=5)
        metrics = _run(Algorithm.REPUTATION, faults=faults).metrics
        assert metrics.completion_fraction() == 1.0


class TestObligationExpiry:
    def test_lost_keys_expire_instead_of_leaking(self):
        faults = FaultConfig(transfer_loss_rate=0.25,
                             obligation_expiry_rounds=8)
        metrics = _run(Algorithm.TCHAIN, faults=faults, seed=9).metrics
        assert metrics.faults.obligations_expired > 0

    def test_expiry_alone_is_harmless(self):
        # With a reliable network every key arrives promptly, so the
        # timeout never fires and the run matches the baseline.
        baseline = _run(Algorithm.TCHAIN).metrics
        expiring = _run(Algorithm.TCHAIN,
                        faults=FaultConfig(obligation_expiry_rounds=50))
        assert expiring.metrics.faults.obligations_expired == 0
        assert (expiring.metrics.mean_completion_time()
                == baseline.mean_completion_time())


class TestDegradationRows:
    def test_rows_relative_to_zero_baseline(self):
        runs = {
            rate: _run(faults=FaultConfig(transfer_loss_rate=rate)).metrics
            for rate in (0.0, 0.2)
        }
        rows = degradation_rows(runs)
        assert [r["loss_rate"] for r in rows] == [0.0, 0.2]
        assert rows[0]["slowdown"] == 1.0
        assert rows[1]["slowdown"] > 1.0
        assert rows[1]["transfers_lost"] > 0


class _StubMetrics:
    """Just enough surface for ``degradation_rows``: the headline
    accessors plus an all-zero fault block."""

    def __init__(self, mean_time):
        self._mean_time = mean_time
        self.faults = FaultCounters()

    def mean_completion_time(self):
        return self._mean_time

    def observed_loss_rate(self):
        return 0.0

    def completion_fraction(self):
        return 1.0

    def final_fairness(self):
        return None


class TestDegradationRowsEdgeCases:
    """Regressions for the exact-0.0 baseline lookup, the truthiness
    baseline test, and the zero-time baseline division."""

    def test_float_residue_rate_still_found_as_baseline(self):
        # A sweep that computed its rates arithmetically can carry a
        # tiny residue instead of an exact 0.0; the old `runs.get(0.0)`
        # missed it and every slowdown came out NaN.
        runs = {5e-17: _StubMetrics(10.0), 0.2: _StubMetrics(25.0)}
        rows = degradation_rows(runs)
        assert rows[0]["slowdown"] == 1.0
        assert rows[1]["slowdown"] == 2.5

    def test_negative_zero_rate_is_baseline(self):
        runs = {-0.0: _StubMetrics(8.0), 0.1: _StubMetrics(16.0)}
        assert [r["slowdown"] for r in degradation_rows(runs)] == [1.0, 2.0]

    def test_zero_baseline_time_yields_one_and_inf(self):
        # base_time == 0.0 is falsy: the old guard treated a legitimate
        # all-instant baseline as "no baseline" and emitted NaN.
        runs = {0.0: _StubMetrics(0.0), 0.3: _StubMetrics(4.0)}
        rows = degradation_rows(runs)
        assert rows[0]["slowdown"] == 1.0
        assert rows[1]["slowdown"] == math.inf

    def test_no_baseline_rate_gives_nan(self):
        runs = {0.1: _StubMetrics(10.0), 0.2: _StubMetrics(20.0)}
        assert all(math.isnan(r["slowdown"])
                   for r in degradation_rows(runs))

    def test_nan_mean_time_gives_nan_row(self):
        runs = {0.0: _StubMetrics(10.0), 0.4: _StubMetrics(math.nan)}
        rows = degradation_rows(runs)
        assert rows[0]["slowdown"] == 1.0
        assert math.isnan(rows[1]["slowdown"])


class TestFaultsUnderAttack:
    def test_crashes_during_freeriding_attack(self):
        config = with_freeriders(
            object_smoke_scale(Algorithm.TCHAIN, seed=13), fraction=0.2)
        config = config.with_faults(FaultConfig(crash_hazard=0.01,
                                                transfer_loss_rate=0.1))
        metrics = run_simulation(config).metrics
        assert metrics.faults.peer_crashes > 0
        assert metrics.total_uploaded == metrics.total_received_raw
