"""Behavioural tests for the PropShare extension strategy."""

from __future__ import annotations

import pytest

from repro.core import equilibrium as eq
from repro.names import ALL_ALGORITHMS, Algorithm, EXTENDED_ALGORITHMS
from repro.sim.config import StrategyParameters
from tests.algorithms.conftest import (
    build_sim,
    give_piece,
    run_strategy_round,
    users_of,
)


class TestEnumPlacement:
    def test_not_one_of_the_papers_six(self):
        assert Algorithm.PROPSHARE not in ALL_ALGORITHMS

    def test_in_extended_set(self):
        assert Algorithm.PROPSHARE in EXTENDED_ALGORITHMS
        assert set(ALL_ALGORITHMS).issubset(EXTENDED_ALGORITHMS)

    def test_parse(self):
        assert Algorithm.parse("PropShare") is Algorithm.PROPSHARE


class TestEquilibriumRow:
    def test_interpolates_capacity_and_altruism(self):
        params = eq.EquilibriumParameters([4.0, 2.0, 1.0, 1.0], alpha_bt=0.0)
        d = eq.download_utilization(Algorithm.PROPSHARE, params)
        assert list(d) == [4.0, 2.0, 1.0, 1.0]  # pure proportional return

    def test_alpha_one_is_altruism(self):
        params = eq.EquilibriumParameters([4.0, 2.0, 1.0, 1.0], alpha_bt=1.0)
        assert list(eq.download_utilization(Algorithm.PROPSHARE, params)) == (
            list(eq.altruism_download_utilization(params)))

    def test_fair_at_alpha_zero(self):
        params = eq.EquilibriumParameters([4.0, 2.0, 1.0, 1.0], alpha_bt=0.0)
        result = eq.equilibrium(Algorithm.PROPSHARE, params)
        assert result.fairness == pytest.approx(0.0, abs=1e-12)


class TestStrategy:
    def test_allocates_proportionally_to_contributions(self):
        sim = build_sim(Algorithm.PROPSHARE, n_users=8, seed=21,
                        params=StrategyParameters(alpha_bt=0.0))
        uploader, big, small = users_of(sim)[:3]
        for piece in range(8):
            give_piece(sim, uploader, piece)
        uploader.record_receipt(big.peer_id, pieces=9)
        uploader.record_receipt(small.peer_id, pieces=1)
        uploader.end_round()
        for _ in range(12):
            run_strategy_round(sim, uploader)
        served_big = uploader.uploaded_to.get(big.peer_id, 0)
        served_small = uploader.uploaded_to.get(small.peer_id, 0)
        assert served_big > served_small

    def test_reciprocal_slots_never_reach_newcomers(self):
        sim = build_sim(Algorithm.PROPSHARE,
                        params=StrategyParameters(alpha_bt=0.0))
        uploader = users_of(sim)[0]
        for piece in range(4):
            give_piece(sim, uploader, piece)
        run_strategy_round(sim, uploader)
        assert uploader.total_uploaded == 0

    def test_optimistic_share_bootstraps(self):
        sim = build_sim(Algorithm.PROPSHARE, seed=22,
                        params=StrategyParameters(alpha_bt=1.0))
        uploader = max(users_of(sim), key=lambda p: p.capacity)
        for piece in range(4):
            give_piece(sim, uploader, piece)
        run_strategy_round(sim, uploader)
        assert uploader.total_uploaded >= 1

    def test_falls_back_to_alltime_contributors(self):
        sim = build_sim(Algorithm.PROPSHARE, n_users=8, seed=23,
                        params=StrategyParameters(alpha_bt=0.0))
        uploader, friend = users_of(sim)[:2]
        for piece in range(8):
            give_piece(sim, uploader, piece)
        uploader.record_receipt(friend.peer_id, pieces=2)
        uploader.end_round()
        uploader.end_round()  # quiet last round
        run_strategy_round(sim, uploader)
        assert uploader.uploaded_to.get(friend.peer_id, 0) >= 1


class TestSimulationProfile:
    def test_behaves_like_a_fair_hybrid(self):
        from repro.sim import run_simulation
        from tests.conftest import object_smoke_scale

        metrics = run_simulation(object_smoke_scale(Algorithm.PROPSHARE,
                                                    seed=31)).metrics
        assert metrics.completion_fraction() > 0.95
        assert metrics.final_fairness() == pytest.approx(1.0, abs=0.12)

    def test_exposure_capped_by_optimistic_share(self):
        from repro.experiments.scenarios import with_freeriders
        from repro.sim import run_simulation
        from tests.conftest import object_smoke_scale

        config = with_freeriders(
            object_smoke_scale(Algorithm.PROPSHARE, seed=31), fraction=0.2)
        metrics = run_simulation(config).metrics
        # Far below altruism's ~0.2; in BitTorrent's band.
        assert metrics.susceptibility() < 0.15
