"""Tests for seed lingering and structured view topologies."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenarios import smoke_scale
from repro.names import Algorithm
from repro.sim import SimulationConfig, run_simulation
from repro.sim.runner import Simulation
from tests.conftest import object_smoke_scale


class TestSeedLingering:
    def test_lingering_speeds_the_tail(self):
        """Completed users that keep seeding (gamma < 1) shorten the
        remaining users' downloads — the fluid model's seed effect."""
        base = object_smoke_scale(Algorithm.BITTORRENT, seed=14)
        immediate = run_simulation(base).metrics
        lingering = run_simulation(
            replace(base, seed_linger_rate=0.2)).metrics
        assert (lingering.mean_completion_time()
                < immediate.mean_completion_time())

    def test_lingerers_upload_after_completion(self):
        base = replace(object_smoke_scale(Algorithm.ALTRUISM, seed=15),
                       seed_linger_rate=0.1)
        metrics = run_simulation(base).metrics
        over_uploaders = [p for p in metrics.peers
                          if p.uploaded > p.downloaded * 1.5]
        assert over_uploaders  # someone kept giving after finishing

    def test_run_still_terminates(self):
        base = replace(object_smoke_scale(Algorithm.ALTRUISM, seed=15),
                       seed_linger_rate=0.05)
        metrics = run_simulation(base).metrics
        assert metrics.completion_fraction() == pytest.approx(1.0)
        assert metrics.rounds_run < base.max_rounds

    def test_conservation_holds(self):
        base = replace(object_smoke_scale(Algorithm.TCHAIN, seed=15),
                       seed_linger_rate=0.3)
        assert run_simulation(base).conservation_holds()

    def test_rate_validated(self):
        with pytest.raises(ConfigurationError):
            replace(smoke_scale(Algorithm.ALTRUISM), seed_linger_rate=0.0)
        with pytest.raises(ConfigurationError):
            replace(smoke_scale(Algorithm.ALTRUISM), seed_linger_rate=1.5)


class TestViewTopologies:
    @pytest.mark.parametrize("topology", ["ring", "smallworld"])
    def test_swarm_completes(self, topology):
        config = replace(object_smoke_scale(Algorithm.BITTORRENT, seed=14),
                         view_topology=topology)
        metrics = run_simulation(config).metrics
        assert metrics.completion_fraction() == pytest.approx(1.0)

    def test_ring_views_bounded_by_degree(self):
        config = replace(
            SimulationConfig(Algorithm.ALTRUISM, n_users=30, n_pieces=8,
                             neighbor_count=4, flash_crowd_duration=0.0,
                             seed=3),
            view_topology="ring")
        sim = Simulation(config)
        sim.engine.run_until(0.0)  # arrivals only
        for peer in sim.swarm.active_non_seeders():
            user_neighbors = [pid for pid in sim.swarm.neighbors(peer.peer_id)
                              if pid not in sim.swarm.seeder_ids]
            # Ring lattice degree 4 (the seeder is extra: large view).
            assert len(user_neighbors) == 4

    def test_smallworld_differs_from_ring(self):
        def views(topology):
            config = replace(
                SimulationConfig(Algorithm.ALTRUISM, n_users=40, n_pieces=8,
                                 neighbor_count=6, flash_crowd_duration=0.0,
                                 seed=3),
                view_topology=topology)
            sim = Simulation(config)
            sim.engine.run_until(0.0)
            return {p.peer_id: tuple(sim.swarm.neighbors(p.peer_id))
                    for p in sim.swarm.active_non_seeders()}

        assert views("ring") != views("smallworld")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(smoke_scale(Algorithm.ALTRUISM), view_topology="torus")

    def test_orderings_survive_ring_topology(self):
        """Robustness: altruism still beats BitTorrent on a ring."""
        def mean_time(algorithm):
            config = replace(object_smoke_scale(algorithm, seed=16),
                             view_topology="ring")
            return run_simulation(config).metrics.mean_completion_time()

        assert mean_time(Algorithm.ALTRUISM) < mean_time(Algorithm.BITTORRENT)
