"""Tests for multi-seeder swarms, churn, and transfer tracing."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.names import Algorithm
from repro.sim import run_simulation
from tests.conftest import object_smoke_scale


class TestMultiSeeder:
    def test_reciprocity_throughput_scales_with_seeders(self):
        """Reciprocity's only channel is the seeders (Table II: n_S/N),
        so doubling them roughly doubles dissemination."""
        base = object_smoke_scale(Algorithm.RECIPROCITY, seed=9)
        one = run_simulation(replace(base, n_seeders=1)).metrics
        four = run_simulation(replace(base, n_seeders=4)).metrics
        # Per-round distribution rate scales near-linearly with n_S.
        rate_one = sum(p.downloaded for p in one.peers) / one.rounds_run
        rate_four = sum(p.downloaded for p in four.peers) / four.rounds_run
        assert rate_four > 2.5 * rate_one
        # At smoke scale one seeder cannot finish anyone within the
        # cap, four can finish everyone.
        assert one.completion_fraction() < four.completion_fraction()
        assert four.time_to_bootstrap_fraction(0.9) <= (
            one.time_to_bootstrap_fraction(0.9))

    def test_extra_seeders_never_slow_completion(self):
        base = object_smoke_scale(Algorithm.BITTORRENT, seed=9)
        one = run_simulation(replace(base, n_seeders=1)).metrics
        three = run_simulation(replace(base, n_seeders=3)).metrics
        assert (three.mean_completion_time()
                <= one.mean_completion_time() * 1.15)

    def test_conservation_with_many_seeders(self):
        result = run_simulation(replace(
            object_smoke_scale(Algorithm.TCHAIN, seed=9), n_seeders=3))
        assert result.conservation_holds()


class TestChurn:
    def test_aborters_never_complete(self):
        config = replace(object_smoke_scale(Algorithm.ALTRUISM, seed=10),
                         abort_rate=0.02)
        metrics = run_simulation(config).metrics
        aborted = [p for p in metrics.peers if p.completion_time is None]
        assert aborted  # churn actually happened
        assert metrics.completion_fraction() < 1.0

    def test_zero_churn_everybody_finishes(self):
        config = replace(object_smoke_scale(Algorithm.ALTRUISM, seed=10),
                         abort_rate=0.0)
        metrics = run_simulation(config).metrics
        assert metrics.completion_fraction() == pytest.approx(1.0)

    def test_invariants_survive_churn(self):
        config = replace(object_smoke_scale(Algorithm.TCHAIN, seed=10),
                         abort_rate=0.03)
        result = run_simulation(config)
        assert result.conservation_holds()
        for peer in result.metrics.peers:
            assert peer.downloaded <= config.n_pieces

    def test_seeders_immune_to_churn(self):
        config = replace(object_smoke_scale(Algorithm.ALTRUISM, seed=10),
                         abort_rate=0.5, max_rounds=60)
        metrics = run_simulation(config).metrics
        # Massive churn: the run still progresses because the seeder
        # stays; every sample was collected without error.
        assert metrics.samples


class TestTransferTraces:
    @pytest.fixture(scope="class")
    def traced(self):
        config = replace(object_smoke_scale(Algorithm.TCHAIN, seed=11),
                         record_transfers=True)
        return run_simulation(config)

    def test_traces_match_upload_totals(self, traced):
        assert len(traced.metrics.transfers) == traced.metrics.total_uploaded

    def test_trace_kinds(self, traced):
        kinds = {t.kind for t in traced.metrics.transfers}
        assert kinds <= {"plain", "seed", "forward"}
        assert "seed" in kinds  # T-Chain's opportunistic uploads

    def test_no_self_transfers(self, traced):
        assert all(t.uploader_id != t.target_id
                   for t in traced.metrics.transfers)

    def test_times_nondecreasing(self, traced):
        times = [t.time for t in traced.metrics.transfers]
        assert times == sorted(times)

    def test_freeriders_absent_as_uploaders(self):
        config = replace(object_smoke_scale(Algorithm.ALTRUISM, seed=11),
                         record_transfers=True, freerider_fraction=0.3)
        result = run_simulation(config)
        freerider_lineages = {p.peer_id for p in result.metrics.peers
                              if p.is_freerider}
        for record in result.metrics.transfers:
            assert record.uploader_id not in freerider_lineages

    def test_off_by_default(self):
        result = run_simulation(
            object_smoke_scale(Algorithm.ALTRUISM, seed=11))
        assert result.metrics.transfers == []
