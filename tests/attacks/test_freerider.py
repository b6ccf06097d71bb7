"""Tests for free-rider behaviour and the targeted attacks."""

from __future__ import annotations

import pytest

from repro.names import Algorithm
from repro.sim.config import AttackConfig
from tests.algorithms.conftest import (
    build_sim,
    give_piece,
    run_strategy_round,
    users_of,
)


def freeriders(sim):
    return [p for p in users_of(sim) if p.is_freerider]


def compliant(sim):
    return [p for p in users_of(sim) if not p.is_freerider]


class TestSimpleFreeRiding:
    def test_freerider_never_uploads(self):
        sim = build_sim(Algorithm.ALTRUISM, n_users=10, seed=1,
                        freerider_fraction=0.3)
        rider = freeriders(sim)[0]
        for piece in range(6):
            give_piece(sim, rider, piece)
        for _ in range(5):
            run_strategy_round(sim, rider)
        assert rider.total_uploaded == 0

    def test_population_split(self):
        sim = build_sim(Algorithm.ALTRUISM, n_users=10, seed=1,
                        freerider_fraction=0.3)
        assert len(freeriders(sim)) == 3
        assert len(compliant(sim)) == 7


class TestFalsePraise:
    def test_colluders_inflate_each_other(self):
        attack = AttackConfig(false_praise=True, fake_praise_amount=4.0)
        sim = build_sim(Algorithm.REPUTATION, n_users=10, seed=2,
                        freerider_fraction=0.3, attack=attack)
        riders = freeriders(sim)
        for rider in riders:
            run_strategy_round(sim, rider)
        total_fake = sim.swarm.reputation.fake_reported
        assert total_fake == pytest.approx(4.0 * len(riders))
        # All praise landed on coalition members, none on compliant users.
        praised = [p for p in users_of(sim)
                   if sim.swarm.reputation.score(p.peer_id) > 0]
        assert praised
        assert all(p.is_freerider for p in praised)

    def test_no_praise_without_flag(self):
        sim = build_sim(Algorithm.REPUTATION, n_users=10, seed=2,
                        freerider_fraction=0.3)
        for rider in freeriders(sim):
            run_strategy_round(sim, rider)
        assert sim.swarm.reputation.fake_reported == 0.0


class TestCollusion:
    def test_coalition_wired(self):
        attack = AttackConfig(collusion=True)
        sim = build_sim(Algorithm.TCHAIN, n_users=10, seed=3,
                        freerider_fraction=0.3, attack=attack)
        riders = freeriders(sim)
        ids = {p.peer_id for p in riders}
        for rider in riders:
            assert rider.colluders == ids - {rider.peer_id}

    def test_colluding_designation_releases_key(self):
        """S seeds freerider R; the designated third party is R's
        colluder P, who falsely confirms -> R gets the piece free."""
        attack = AttackConfig(collusion=True)
        sim = build_sim(Algorithm.TCHAIN, n_users=4, seed=4,
                        freerider_fraction=0.5, attack=attack)
        rider = freeriders(sim)[0]
        uploader = max(compliant(sim), key=lambda p: p.capacity)
        give_piece(sim, uploader, 0)
        # Make every non-colluder ineligible as designated target so the
        # choice must land on the rider's colluder.
        for peer in users_of(sim):
            if peer is not rider and not peer.is_freerider and peer is not uploader:
                give_piece(sim, peer, 0)
        sim.round_index += 1
        uploader.budget.new_round()
        assert sim.tchain_seed(uploader, rider.peer_id)
        assert rider.usable_piece_count == 1  # unlocked without work
        assert rider.total_uploaded == 0

    def test_without_collusion_piece_stays_locked(self):
        sim = build_sim(Algorithm.TCHAIN, n_users=4, seed=4,
                        freerider_fraction=0.5)
        rider = freeriders(sim)[0]
        uploader = max(compliant(sim), key=lambda p: p.capacity)
        give_piece(sim, uploader, 0)
        for peer in users_of(sim):
            if peer is not rider and not peer.is_freerider and peer is not uploader:
                give_piece(sim, peer, 0)
        sim.round_index += 1
        uploader.budget.new_round()
        assert sim.tchain_seed(uploader, rider.peer_id)
        assert rider.usable_piece_count == 0
        assert rider.pending


class TestWhitewashing:
    def test_identity_reset_on_interval(self):
        attack = AttackConfig(whitewash_interval=3)
        sim = build_sim(Algorithm.FAIRTORRENT, n_users=10, seed=5,
                        freerider_fraction=0.2, attack=attack)
        rider = freeriders(sim)[0]
        original = rider.peer_id
        sim.round_index = 3
        sim._process_whitewashing()
        assert rider.peer_id != original
        assert rider.lineage_id == original or rider.lineage_id != rider.peer_id

    def test_no_reset_off_interval(self):
        attack = AttackConfig(whitewash_interval=3)
        sim = build_sim(Algorithm.FAIRTORRENT, n_users=10, seed=5,
                        freerider_fraction=0.2, attack=attack)
        rider = freeriders(sim)[0]
        original = rider.peer_id
        sim.round_index = 2
        sim._process_whitewashing()
        assert rider.peer_id == original

    def test_compliant_users_never_whitewash(self):
        attack = AttackConfig(whitewash_interval=1)
        sim = build_sim(Algorithm.FAIRTORRENT, n_users=10, seed=5,
                        freerider_fraction=0.2, attack=attack)
        ids = {p.peer_id for p in compliant(sim)}
        sim.round_index = 1
        sim._process_whitewashing()
        assert {p.peer_id for p in compliant(sim)} == ids


class TestLargeView:
    def test_freeriders_connected_to_everyone(self):
        attack = AttackConfig(large_view=True)
        sim = build_sim(Algorithm.ALTRUISM, n_users=12, seed=6,
                        freerider_fraction=0.25, attack=attack)
        for rider in freeriders(sim):
            # Connected to all other users and the seeder.
            assert len(sim.swarm.neighbors(rider.peer_id)) == 12

    def test_without_flag_views_bounded(self):
        sim = build_sim(Algorithm.ALTRUISM, n_users=12, seed=6,
                        freerider_fraction=0.25)
        # neighbor_count is n_users here, so instead check the flag.
        assert all(not p.large_view for p in freeriders(sim))


class TestCrashesDuringAttack:
    """Fault injection composes with the attack machinery: crashing
    colluders must not leave dangling coalition references."""

    def test_colluder_crash_keeps_coalition_consistent(self):
        from repro.experiments.scenarios import with_freeriders
        from repro.sim import FaultConfig, run_simulation
        from tests.conftest import object_smoke_scale

        config = with_freeriders(
            object_smoke_scale(Algorithm.TCHAIN, seed=13), fraction=0.25,
            attack=AttackConfig(collusion=True))
        config = config.with_faults(FaultConfig(crash_hazard=0.02))
        metrics = run_simulation(config).metrics
        assert metrics.faults.peer_crashes > 0
        assert metrics.total_uploaded == metrics.total_received_raw

    def test_whitewashing_with_crashes(self):
        from repro.experiments.scenarios import with_freeriders
        from repro.sim import FaultConfig, run_simulation
        from tests.conftest import object_smoke_scale

        config = with_freeriders(
            object_smoke_scale(Algorithm.FAIRTORRENT, seed=13), fraction=0.2,
            attack=AttackConfig(whitewash_interval=10))
        config = config.with_faults(FaultConfig(crash_hazard=0.015,
                                                transfer_loss_rate=0.1))
        metrics = run_simulation(config).metrics
        assert metrics.faults.peer_crashes > 0
        assert metrics.faults.transfers_lost > 0
        assert metrics.total_uploaded == metrics.total_received_raw
