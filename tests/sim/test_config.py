"""Tests for simulation configuration objects."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.names import Algorithm
from repro.sim.config import (
    AttackConfig,
    CapacityClass,
    SimulationConfig,
    StrategyParameters,
    targeted_attack_for,
)


class TestCapacityClass:
    def test_valid(self):
        cls = CapacityClass(0.5, 2.0)
        assert cls.fraction == 0.5

    def test_rejects_zero_fraction(self):
        with pytest.raises(ConfigurationError):
            CapacityClass(0.0, 2.0)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ConfigurationError):
            CapacityClass(0.5, -1.0)


class TestAttackConfig:
    def test_defaults_benign(self):
        attack = AttackConfig()
        assert not attack.collusion
        assert attack.whitewash_interval is None
        assert not attack.false_praise
        assert not attack.large_view

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            AttackConfig(whitewash_interval=0)

    def test_rejects_negative_praise(self):
        with pytest.raises(ConfigurationError):
            AttackConfig(fake_praise_amount=-1.0)

    def test_with_large_view(self):
        attack = AttackConfig(collusion=True).with_large_view()
        assert attack.large_view and attack.collusion


class TestTargetedAttacks:
    def test_tchain_gets_collusion(self):
        attack = targeted_attack_for(Algorithm.TCHAIN)
        assert attack.collusion
        assert attack.whitewash_interval is None

    def test_fairtorrent_gets_whitewashing(self):
        attack = targeted_attack_for(Algorithm.FAIRTORRENT)
        assert attack.whitewash_interval is not None
        assert not attack.collusion

    def test_reputation_gets_simple_freeriding(self):
        """Fig. 5's setup: simple free-riding for the reputation system
        (false praise is a separate ablation)."""
        attack = targeted_attack_for(Algorithm.REPUTATION)
        assert not attack.false_praise
        assert not attack.collusion

    @pytest.mark.parametrize("algorithm", [Algorithm.ALTRUISM,
                                           Algorithm.BITTORRENT,
                                           Algorithm.RECIPROCITY])
    def test_others_simple(self, algorithm):
        attack = targeted_attack_for(algorithm)
        assert not attack.collusion
        assert attack.whitewash_interval is None

    def test_large_view_flag_passes_through(self):
        assert targeted_attack_for(Algorithm.TCHAIN, large_view=True).large_view


class TestStrategyParameters:
    def test_defaults_match_paper(self):
        params = StrategyParameters()
        assert params.alpha_bt == pytest.approx(0.2)
        assert params.n_bt == 4

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            StrategyParameters(alpha_bt=1.5)
        with pytest.raises(ConfigurationError):
            StrategyParameters(n_bt=0)
        with pytest.raises(ConfigurationError):
            StrategyParameters(tchain_max_pending=0)


class TestSimulationConfig:
    def test_freerider_counts(self):
        config = SimulationConfig(Algorithm.TCHAIN, n_users=100,
                                  freerider_fraction=0.2)
        assert config.n_freeriders == 20
        assert config.n_compliant == 80

    def test_parses_string_algorithm(self):
        config = SimulationConfig("T-Chain")
        assert config.algorithm is Algorithm.TCHAIN

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(Algorithm.TCHAIN, capacity_classes=(
                CapacityClass(0.5, 1.0),))

    def test_rejects_full_freerider_population(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(Algorithm.TCHAIN, freerider_fraction=1.0)

    def test_rejects_tiny_swarm(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(Algorithm.TCHAIN, n_users=1)

    def test_with_algorithm_preserves_rest(self):
        config = SimulationConfig(Algorithm.TCHAIN, n_users=50, seed=3)
        other = config.with_algorithm(Algorithm.ALTRUISM)
        assert other.algorithm is Algorithm.ALTRUISM
        assert other.n_users == 50
        assert other.seed == 3

    def test_with_attack(self):
        config = SimulationConfig(Algorithm.TCHAIN)
        attacked = config.with_attack(AttackConfig(collusion=True),
                                      freerider_fraction=0.25)
        assert attacked.attack.collusion
        assert attacked.freerider_fraction == 0.25

    def test_with_seed(self):
        assert SimulationConfig(Algorithm.TCHAIN).with_seed(9).seed == 9

    @pytest.mark.parametrize("backend", ["vector", "vector-fast"])
    def test_with_obs_profile_alone_runs_on_array_engines(self, backend):
        config = SimulationConfig(Algorithm.TCHAIN).with_backend(
            backend).with_obs(profile=True)
        assert config.obs.profile
        assert not config.obs.trace
        assert config.obs.sample_every == 0

    def test_with_obs_keeps_fields_it_is_not_given(self):
        traced = SimulationConfig(Algorithm.TCHAIN).with_obs(
            trace=True, sample_every=5)
        profiled = traced.with_obs(profile=True)
        assert (profiled.obs.trace, profiled.obs.sample_every,
                profiled.obs.profile) == (True, 5, True)


class TestCrossFieldValidation:
    def test_zero_capacity_seeder_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            SimulationConfig(Algorithm.TCHAIN, seeder_capacity=0.0)
        message = str(excinfo.value)
        assert "seeder_capacity" in message
        assert "allow_unseeded" in message  # names the opt-out

    def test_zero_capacity_seeder_allowed_with_opt_out(self):
        config = SimulationConfig(Algorithm.TCHAIN, seeder_capacity=0.0,
                                  allow_unseeded=True)
        assert config.seeder_capacity == 0.0

    def test_sample_interval_beyond_run_rejected(self):
        with pytest.raises(ConfigurationError, match="sample_interval"):
            SimulationConfig(Algorithm.TCHAIN, max_rounds=50,
                             sample_interval=60)

    def test_flash_crowd_longer_than_run_rejected(self):
        with pytest.raises(ConfigurationError, match="flash_crowd_duration"):
            SimulationConfig(Algorithm.TCHAIN, max_rounds=5,
                             flash_crowd_duration=10.0)

    def test_flash_duration_irrelevant_for_poisson(self):
        config = SimulationConfig(Algorithm.TCHAIN, max_rounds=5,
                                  flash_crowd_duration=10.0,
                                  arrival_process="poisson")
        assert config.max_rounds == 5


class TestConfigRoundTrip:
    def test_to_dict_from_dict_is_identity(self):
        config = SimulationConfig(
            Algorithm.TCHAIN, n_users=50, n_pieces=16, seed=11,
            freerider_fraction=0.2,
            attack=targeted_attack_for(Algorithm.TCHAIN),
        ).with_guards("cheap", check_interval=30)
        rebuilt = SimulationConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_to_dict_is_json_safe(self):
        import json

        config = SimulationConfig(Algorithm.REPUTATION, n_users=40)
        payload = json.dumps(config.to_dict())
        rebuilt = SimulationConfig.from_dict(json.loads(payload))
        assert rebuilt == config

    def test_with_guards_returns_new_config(self):
        config = SimulationConfig(Algorithm.TCHAIN)
        guarded = config.with_guards("full")
        assert config.guards.mode == "off"
        assert guarded.guards.mode == "full"
        assert guarded.algorithm is config.algorithm
