"""System-level invariants that must hold for every algorithm and run."""

from __future__ import annotations


import pytest

from repro.experiments.scenarios import with_freeriders
from repro.names import ALL_ALGORITHMS, Algorithm
from repro.sim import run_simulation
from repro.sim.runner import Simulation
from tests.conftest import object_smoke_scale



@pytest.fixture(scope="module", params=[a.value for a in ALL_ALGORITHMS])
def result(request):
    """One completed smoke-scale run per algorithm (module-cached)."""
    config = object_smoke_scale(Algorithm.parse(request.param), seed=17)
    return run_simulation(config)


class TestConservation:
    def test_eq1_every_piece_sent_is_received(self, result):
        assert result.conservation_holds()
        assert result.metrics.total_uploaded == (
            result.metrics.total_received_raw)

    def test_downloads_bounded_by_file_size(self, result):
        for peer in result.metrics.peers:
            assert peer.downloaded <= result.config.n_pieces

    def test_uploads_bounded_by_capacity(self, result):
        """No peer exceeds capacity * residence-time (plus burst slack)."""
        rounds = result.metrics.rounds_run
        for peer in result.metrics.peers:
            limit = peer.capacity * rounds + max(2 * peer.capacity, 1) + 1
            assert peer.uploaded <= limit

    def test_freeriders_upload_nothing(self):
        config = with_freeriders(
            object_smoke_scale(Algorithm.ALTRUISM, seed=3), fraction=0.25)
        metrics = run_simulation(config).metrics
        for peer in metrics.peers:
            if peer.is_freerider:
                assert peer.uploaded == 0


class TestLifecycle:
    def test_everyone_arrives(self, result):
        assert len(result.metrics.peers) == result.config.n_users

    def test_completion_implies_bootstrap(self, result):
        for peer in result.metrics.peers:
            if peer.completion_time is not None:
                assert peer.bootstrap_time is not None
                assert peer.bootstrap_time <= peer.completion_time

    def test_completion_after_arrival(self, result):
        for peer in result.metrics.peers:
            if peer.completion_time is not None:
                assert peer.completion_time >= peer.arrival_time

    def test_completed_users_downloaded_everything(self, result):
        for peer in result.metrics.peers:
            if peer.completion_time is not None and not peer.is_freerider:
                assert peer.downloaded >= result.config.n_pieces * 0.99

    def test_samples_cover_run(self, result):
        samples = result.metrics.samples
        assert samples
        times = [s.time for s in samples]
        assert times == sorted(times)
        assert samples[-1].arrived == result.config.n_users


class TestMonotoneSeries:
    def test_bootstrap_fraction_nondecreasing(self, result):
        fractions = [s.bootstrapped_fraction for s in result.metrics.samples]
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_completed_nondecreasing(self, result):
        completed = [s.completed for s in result.metrics.samples]
        assert all(a <= b for a, b in zip(completed, completed[1:]))

    def test_uploads_nondecreasing(self, result):
        uploads = [s.total_uploaded for s in result.metrics.samples]
        assert all(a <= b for a, b in zip(uploads, uploads[1:]))


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        config = object_smoke_scale(Algorithm.BITTORRENT, seed=23)
        a = run_simulation(config).metrics
        b = run_simulation(config).metrics
        assert a.total_uploaded == b.total_uploaded
        assert a.completion_times() == b.completion_times()
        assert [s.bootstrapped for s in a.samples] == [
            s.bootstrapped for s in b.samples]

    def test_different_seeds_differ(self):
        base = object_smoke_scale(Algorithm.BITTORRENT, seed=23)
        a = run_simulation(base).metrics
        b = run_simulation(base.with_seed(24)).metrics
        assert a.completion_times() != b.completion_times()

    def test_runner_reusable_config(self):
        """Running twice from the same config object must not share
        state between Simulation instances."""
        config = object_smoke_scale(Algorithm.TCHAIN, seed=5)
        sim1 = Simulation(config)
        r1 = sim1.run()
        sim2 = Simulation(config)
        r2 = sim2.run()
        assert r1.metrics.total_uploaded == r2.metrics.total_uploaded


class TestTermination:
    def test_stops_when_compliant_done(self):
        config = object_smoke_scale(Algorithm.ALTRUISM, seed=2)
        metrics = run_simulation(config).metrics
        assert metrics.completion_fraction() == pytest.approx(1.0)
        assert metrics.rounds_run < config.max_rounds

    def test_reciprocity_hits_round_cap(self):
        """Reciprocity stalls: only the seeder's random spray moves
        data, so the swarm cannot finish within the round cap. (At
        smoke scale the seeder may luck a handful of users through;
        at paper scale nobody completes at all, cf. Fig. 4a.)"""
        config = object_smoke_scale(Algorithm.RECIPROCITY, seed=2)
        metrics = run_simulation(config).metrics
        assert metrics.rounds_run == config.max_rounds
        assert metrics.completion_fraction() < 0.2
        assert metrics.peer_uploaded == 0  # users never upload
