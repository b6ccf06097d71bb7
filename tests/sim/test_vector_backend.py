"""Backend selection, the instrumentation refusal, and vector/object
digest parity.

The pinned-digest and fuzz parity checks live in
``tests/integration``; this file covers the plumbing around the
vector backend — config validation and serialisation, the
``run_simulation`` dispatch and the refusal of object-only
instrumentation on the array engines, and parity on the specific feature axes (arrival process, topology,
piece policy, whitewashing, lingering seeds, swarm-wide views) that
the equivalence config does not vary.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.names import EXTENDED_ALGORITHMS, Algorithm
from repro.sim import (AttackConfig, FaultConfig, GuardConfig, ObsConfig,
                       SimulationConfig, VectorSimulation,
                       targeted_attack_for)
from repro.sim import runner
from repro.sim.metrics import metrics_digest
from repro.sim.runner import run_simulation


#: All five fault axes firing at once.
ALL_FAULTS = FaultConfig(
    transfer_loss_rate=0.15, crash_hazard=0.005,
    seeder_outage_rate=0.2, seeder_outage_duration=3,
    report_delay_rounds=2, obligation_expiry_rounds=6)

#: The instrumentation only the object engine runs, as config
#: overrides keyed by the field name a refusal must report.
INSTRUMENTATION = {
    "guards": dict(guards=GuardConfig(mode="cheap")),
    "obs": dict(obs=ObsConfig(trace=True)),
    "record_transfers": dict(record_transfers=True),
}


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
    """``run_simulation`` dispatch, and the config rule that replaced
    the object-engine fallback: instrumentation on an array backend is
    refused when the config is built, never run on another engine."""

    def test_vector_backend_runs_vector_engine(self):
        config = small_config().with_backend("vector")
        result = run_simulation(config)
        assert result.metrics.rounds_run > 0

    @pytest.mark.parametrize("backend", ["vector", "vector-fast"])
    @pytest.mark.parametrize("field_name", sorted(INSTRUMENTATION))
    def test_instrumented_config_refused(self, field_name, backend):
        instrumentation = INSTRUMENTATION[field_name]
        with pytest.raises(ConfigurationError, match=field_name) as info:
            small_config(backend=backend, **instrumentation)
        assert "backend='object'" in str(info.value)
        instrumented = small_config(**instrumentation)
        with pytest.raises(ConfigurationError, match=field_name):
            instrumented.with_backend(backend)

    @pytest.mark.parametrize("faults", [
        FaultConfig(crash_hazard=0.05),
        FaultConfig(report_delay_rounds=2),
        FaultConfig(obligation_expiry_rounds=5),
    ])
    def test_all_fault_axes_supported_on_vector(self, faults):
        """No fault axis needs the object engine."""
        config = small_config(faults=faults)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_simulation(config.with_backend("vector"))
        assert result.metrics.rounds_run > 0

    @pytest.mark.parametrize("backend", ["vector", "vector-fast"])
    def test_array_backends_never_build_the_object_engine(self, backend,
                                                          monkeypatch):
        def refuse(self, config):
            raise AssertionError("object engine built for backend="
                                 f"{config.backend!r}")

        monkeypatch.setattr(runner.Simulation, "__init__", refuse)
        config = small_config(faults=ALL_FAULTS, backend=backend)
        result = run_simulation(config)
        assert result.metrics.rounds_run > 0
        assert result.metrics.digest_lineage == config.digest_lineage

    def test_guarded_config_reports_reason(self):
        for backend in ("vector", "vector-fast"):
            with pytest.raises(ConfigurationError, match="guards"):
                small_config(backend=backend).with_guards("cheap")

    def test_obs_config_reports_reason(self):
        for backend in ("vector", "vector-fast"):
            with pytest.raises(ConfigurationError, match="obs"):
                small_config(backend=backend).with_obs(trace=True)

    def test_object_backend_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_simulation(small_config())


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
    object_metrics = run_simulation(config).metrics
    vector_metrics = VectorSimulation(
        config.with_backend("vector")).run().metrics
    assert metrics_digest(object_metrics) == metrics_digest(vector_metrics)
    assert (object_metrics.termination, object_metrics.n_stuck) == \
        (vector_metrics.termination, vector_metrics.n_stuck)


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
