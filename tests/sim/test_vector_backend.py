"""Backend selection, fallback, and vector/object digest parity.

The pinned-digest and fuzz parity checks live in
``tests/integration``; this file covers the plumbing around the
vector backend — config validation and serialisation, the
``run_simulation`` dispatch with its object-engine fallback, and
parity on the specific feature axes (arrival process, topology,
piece policy, whitewashing, lingering seeds, swarm-wide views) that
the equivalence config does not vary.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest

from repro.errors import BackendFallbackError, ConfigurationError
from repro.names import EXTENDED_ALGORITHMS, Algorithm
from repro.sim import (AttackConfig, FaultConfig, SimulationConfig,
                       VectorSimulation, targeted_attack_for,
                       vector_unsupported_reason)
from repro.sim.metrics import metrics_digest
from repro.sim.runner import run_simulation


#: All five fault axes firing at once.
ALL_FAULTS = FaultConfig(
    transfer_loss_rate=0.15, crash_hazard=0.005,
    seeder_outage_rate=0.2, seeder_outage_duration=3,
    report_delay_rounds=2, obligation_expiry_rounds=6)


def small_config(**overrides) -> SimulationConfig:
    defaults = dict(
        algorithm=Algorithm.TCHAIN,
        n_users=30,
        n_pieces=16,
        max_rounds=80,
        neighbor_count=8,
        seed=5,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConfigPlumbing:
    def test_default_backend_is_object(self):
        assert small_config().backend == "object"

    def test_with_backend_returns_variant(self):
        config = small_config()
        vector = config.with_backend("vector")
        assert vector.backend == "vector"
        assert config.backend == "object"
        assert vector.with_backend("object") == config

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(backend="gpu")

    def test_repr_excludes_backend(self):
        """Sweep fingerprints and cache keys are ``repr(config)``; the
        backend is an execution detail with identical results, so it
        must not change a config's identity."""
        config = small_config()
        assert repr(config) == repr(config.with_backend("vector"))
        assert "backend" not in repr(config)

    def test_to_dict_roundtrip_preserves_backend(self):
        config = small_config().with_backend("vector")
        rebuilt = SimulationConfig.from_dict(config.to_dict())
        assert rebuilt.backend == "vector"
        assert rebuilt == config


class TestDispatchAndFallback:
    def test_vector_backend_runs_vector_engine(self):
        config = small_config().with_backend("vector")
        assert vector_unsupported_reason(config) is None
        result = run_simulation(config)
        assert result.metrics.rounds_run > 0

    @pytest.mark.parametrize("unsupported, fragment", [
        (dict(record_transfers=True), "per-transfer"),
    ])
    def test_unsupported_config_warns_and_falls_back(self, unsupported,
                                                     fragment):
        config = replace(small_config(), **unsupported)
        assert fragment in vector_unsupported_reason(config)
        with pytest.warns(RuntimeWarning, match="falling back"):
            fallback = run_simulation(config.with_backend("vector"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reference = run_simulation(config)
        assert (metrics_digest(fallback.metrics)
                == metrics_digest(reference.metrics))
        assert fallback.metrics.backend_downgraded == (
            vector_unsupported_reason(config))

    @pytest.mark.parametrize("faults", [
        FaultConfig(crash_hazard=0.05),
        FaultConfig(report_delay_rounds=2),
        FaultConfig(obligation_expiry_rounds=5),
    ])
    def test_all_fault_axes_supported_on_vector(self, faults):
        """PR 9: no fault axis forces the object-engine fallback."""
        config = small_config(faults=faults)
        assert vector_unsupported_reason(config) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_simulation(config.with_backend("vector"))
        assert result.metrics.backend_downgraded is None

    def test_guarded_config_reports_reason(self):
        config = small_config().with_guards("cheap")
        assert "guards" in vector_unsupported_reason(config)

    def test_obs_config_reports_reason(self):
        config = small_config().with_obs(trace=True)
        assert "observability" in vector_unsupported_reason(config)

    def test_object_backend_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_simulation(small_config())


class TestBackendFallbackPolicy:
    """The explicit backend_fallback policy on unsupported configs."""

    def _unsupported(self, **extra):
        return small_config(record_transfers=True, **extra).with_backend(
            "vector")

    def test_default_policy_is_warn(self):
        assert small_config().backend_fallback == "warn"

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(backend_fallback="loud")

    def test_repr_excludes_policy(self):
        config = small_config()
        assert repr(config) == repr(config.with_backend_fallback("silent"))

    def test_error_policy_raises(self):
        config = self._unsupported().with_backend_fallback("error")
        with pytest.raises(BackendFallbackError, match="per-transfer"):
            run_simulation(config)

    def test_silent_policy_falls_back_quietly(self):
        config = self._unsupported().with_backend_fallback("silent")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_simulation(config)
        assert result.metrics.backend_downgraded is not None

    def test_warn_policy_warns_and_records_reason(self):
        config = self._unsupported().with_backend_fallback("warn")
        with pytest.warns(RuntimeWarning, match="falling back"):
            result = run_simulation(config)
        assert "per-transfer" in result.metrics.backend_downgraded

    def test_error_policy_is_inert_on_supported_configs(self):
        config = small_config(
            faults=FaultConfig(crash_hazard=0.02)).with_backend(
            "vector").with_backend_fallback("error")
        result = run_simulation(config)
        assert result.metrics.backend_downgraded is None

    def test_to_dict_roundtrip_preserves_policy(self):
        config = small_config().with_backend_fallback("error")
        rebuilt = SimulationConfig.from_dict(config.to_dict())
        assert rebuilt.backend_fallback == "error"


def large_view_config(algorithm: Algorithm,
                      faults: FaultConfig = FaultConfig()) -> SimulationConfig:
    """Large-view free-riders (Figure 6's exploit): their views, and
    the seeders', span the whole 120-user swarm."""
    return SimulationConfig(
        algorithm=algorithm,
        n_users=120,
        n_pieces=24,
        max_rounds=200,
        freerider_fraction=0.2,
        attack=targeted_attack_for(algorithm, large_view=True),
        neighbor_count=12,
        seed=5,
        faults=faults,
    )


def _parity(config: SimulationConfig) -> None:
    object_digest = metrics_digest(run_simulation(config).metrics)
    vector_digest = metrics_digest(
        VectorSimulation(config.with_backend("vector")).run().metrics)
    assert object_digest == vector_digest


class TestFeatureAxisParity:
    """One digest-parity case per config axis the integration suite's
    equivalence config holds fixed."""

    def test_poisson_arrivals(self):
        _parity(small_config(arrival_process="poisson", arrival_rate=4.0))

    @pytest.mark.parametrize("topology", ["ring", "smallworld"])
    def test_view_topologies(self, topology):
        _parity(small_config(view_topology=topology))

    def test_random_piece_selection(self):
        _parity(small_config(piece_selection="random"))

    def test_whitewashing_freeriders(self):
        _parity(small_config(
            freerider_fraction=0.3,
            attack=replace(targeted_attack_for(Algorithm.TCHAIN),
                           whitewash_interval=15)))

    def test_lingering_seeds(self):
        _parity(small_config(seed_linger_rate=0.5))

    @pytest.mark.parametrize("algorithm", EXTENDED_ALGORITHMS,
                             ids=[a.value for a in EXTENDED_ALGORITHMS])
    def test_lingering_seeds_per_mechanism(self, algorithm):
        _parity(small_config(algorithm=algorithm, seed_linger_rate=0.2))

    def test_sparse_sampling(self):
        _parity(small_config(sample_interval=5))

    def test_transfer_loss_faults(self):
        _parity(small_config(faults=FaultConfig(transfer_loss_rate=0.3)))

    def test_seeder_outage_faults(self):
        _parity(small_config(faults=FaultConfig(seeder_outage_rate=0.5,
                                                seeder_outage_duration=3)))

    def test_combined_faults(self):
        _parity(small_config(faults=FaultConfig(transfer_loss_rate=0.2,
                                                seeder_outage_rate=0.3)))

    def test_crash_faults(self):
        _parity(small_config(faults=FaultConfig(crash_hazard=0.01)))

    def test_delayed_report_faults(self):
        _parity(small_config(faults=FaultConfig(report_delay_rounds=3)))

    def test_obligation_expiry_faults(self):
        _parity(small_config(faults=FaultConfig(transfer_loss_rate=0.2,
                                                obligation_expiry_rounds=4)))

    def test_all_fault_axes_combined(self):
        _parity(small_config(faults=ALL_FAULTS))

    @pytest.mark.parametrize("faults", [FaultConfig(), ALL_FAULTS],
                             ids=["clean", "all-faults"])
    @pytest.mark.parametrize("algorithm", EXTENDED_ALGORITHMS,
                             ids=[a.value for a in EXTENDED_ALGORITHMS])
    def test_large_view_attack(self, algorithm, faults):
        _parity(large_view_config(algorithm, faults))

    @pytest.mark.parametrize("faults", [FaultConfig(), ALL_FAULTS],
                             ids=["clean", "all-faults"])
    def test_tchain_swarm_wide_compliant_views(self, faults):
        """Designation, forwarding and seeding eligibility over views
        of ~100 members: these run on compliant T-Chain peers' views,
        which large-view free-riders (who never upload) do not grow
        that far."""
        _parity(replace(large_view_config(Algorithm.TCHAIN, faults),
                        neighbor_count=100))

    @pytest.mark.parametrize("algorithm", EXTENDED_ALGORITHMS,
                             ids=[a.value for a in EXTENDED_ALGORITHMS])
    def test_whitewash_during_arrivals(self, algorithm):
        """Whitewashing every other round while the flash crowd is
        still arriving: a new identity joins the membership order
        before users with smaller ids that are still to arrive, so a
        view drawn over an id-ordered candidate list, instead of one
        in membership order, diverges from the object engine."""
        _parity(SimulationConfig(
            algorithm=algorithm, n_users=60, n_pieces=16, max_rounds=200,
            freerider_fraction=0.2,
            attack=AttackConfig(whitewash_interval=2),
            neighbor_count=10, flash_crowd_duration=30.0, seed=3))

    def test_crashes_under_whitewashing_and_delay(self):
        """Delayed reports must survive identity resets: the lineage
        queue credits the *current* id, and crashed lineages drop."""
        _parity(small_config(
            freerider_fraction=0.3,
            attack=replace(targeted_attack_for(Algorithm.TCHAIN),
                           whitewash_interval=15),
            faults=FaultConfig(crash_hazard=0.01, report_delay_rounds=4)))

    def test_propshare_algorithm(self):
        _parity(small_config(algorithm=Algorithm.PROPSHARE,
                             freerider_fraction=0.2,
                             attack=targeted_attack_for(Algorithm.PROPSHARE)))
