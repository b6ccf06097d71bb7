"""Edge-case tests for the runner's transfer primitives and population.

These exercise the guard rails directly (through the same entry points
strategies use) rather than via full runs.
"""

from __future__ import annotations


from repro.names import Algorithm
from repro.sim.config import CapacityClass, SimulationConfig
from repro.sim.runner import Simulation
from tests.algorithms.conftest import build_sim, give_piece, users_of


class TestTransferGuards:
    def setup_method(self):
        self.sim = build_sim(Algorithm.ALTRUISM, n_users=6, seed=30)
        self.users = users_of(self.sim)
        self.uploader = max(self.users, key=lambda p: p.capacity)
        for piece in range(4):
            give_piece(self.sim, self.uploader, piece)
        self.sim.round_index += 1
        self.uploader.budget.new_round()

    def target(self):
        return next(p for p in self.users if p is not self.uploader)

    def test_requires_budget(self):
        broke = next(p for p in self.users if p is not self.uploader)
        # No new_round() called: zero credit.
        assert not self.sim.transfer_plain(broke, self.uploader.peer_id)

    def test_rejects_unknown_target(self):
        assert not self.sim.transfer_plain(self.uploader, 9999)

    def test_rejects_seeder_target(self):
        seeder_id = self.sim._seeder.peer_id
        assert not self.sim.transfer_plain(self.uploader, seeder_id)

    def test_rejects_self_target(self):
        assert not self.sim.transfer_plain(self.uploader,
                                           self.uploader.peer_id)

    def test_rejects_complete_target(self):
        done = self.target()
        for piece in range(self.sim.config.n_pieces):
            give_piece(self.sim, done, piece)
        assert not self.sim.transfer_plain(self.uploader, done.peer_id)

    def test_rejects_pinned_piece_not_held(self):
        target = self.target()
        assert not self.sim.transfer_plain(self.uploader, target.peer_id,
                                           piece_id=7)  # uploader lacks 7

    def test_rejects_pinned_piece_not_needed(self):
        target = self.target()
        give_piece(self.sim, target, 0)
        assert not self.sim.transfer_plain(self.uploader, target.peer_id,
                                           piece_id=0)

    def test_pinned_piece_delivered(self):
        target = self.target()
        assert self.sim.transfer_plain(self.uploader, target.peer_id,
                                       piece_id=2)
        assert 2 in target.pieces

    def test_budget_consumed_only_on_success(self):
        before = self.uploader.budget.available()
        assert not self.sim.transfer_plain(self.uploader, 9999)
        assert self.uploader.budget.available() == before
        target = self.target()
        assert self.sim.transfer_plain(self.uploader, target.peer_id)
        assert self.uploader.budget.available() == before - 1


class TestPopulationConstruction:
    def test_capacity_fractions_exact(self):
        config = SimulationConfig(
            Algorithm.ALTRUISM, n_users=100,
            capacity_classes=(CapacityClass(0.25, 4.0),
                              CapacityClass(0.75, 1.0)),
            seed=3)
        sim = Simulation(config)
        capacities = sorted(p.capacity for p in sim._all_peers)
        assert capacities.count(1.0) == 75
        assert capacities.count(4.0) == 25

    def test_rounding_remainder_distributed(self):
        config = SimulationConfig(
            Algorithm.ALTRUISM, n_users=10,
            capacity_classes=(CapacityClass(1 / 3, 3.0),
                              CapacityClass(1 / 3, 2.0),
                              CapacityClass(1 / 3, 1.0)),
            seed=3)
        sim = Simulation(config)
        assert len(sim._all_peers) == 10

    def test_freerider_count_exact(self):
        config = SimulationConfig(Algorithm.ALTRUISM, n_users=50,
                                  freerider_fraction=0.22, seed=3)
        sim = Simulation(config)
        assert sum(p.is_freerider for p in sim._all_peers) == 11

    def test_sample_interval_thins_series(self):
        from repro.sim import run_simulation
        from dataclasses import replace
        from tests.conftest import object_smoke_scale

        base = object_smoke_scale(Algorithm.ALTRUISM, seed=4)
        dense = run_simulation(base).metrics
        sparse = run_simulation(replace(base, sample_interval=5)).metrics
        assert 0 < len(sparse.samples) <= len(dense.samples) // 4 + 1


class TestDepartureEffects:
    def test_departed_pieces_leave_availability(self):
        sim = build_sim(Algorithm.ALTRUISM, n_users=4, seed=31)
        peer = users_of(sim)[0]
        for piece in range(sim.config.n_pieces):
            give_piece(sim, peer, piece)
        count_before = sim.swarm.availability.count(0)
        sim._process_departures()
        assert peer.departed
        assert sim.swarm.availability.count(0) == count_before - 1

    def test_completion_time_stamped_once(self):
        sim = build_sim(Algorithm.ALTRUISM, n_users=4, seed=31)
        peer = users_of(sim)[0]
        for piece in range(sim.config.n_pieces):
            give_piece(sim, peer, piece)
        sim._on_piece_gained(peer)
        stamped = peer.completion_time
        sim._process_departures()
        assert peer.completion_time == stamped
