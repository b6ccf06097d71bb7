"""Tests for the fluid/event-driven hybrid engine (repro.sim.hybrid).

The two satellite properties from the scaling work are pinned here:
conservation of the population across subswarms plus the fluid
reservoir at *every* coupling round, and determinism of ``hybrid-v1``
digests across ``--jobs`` counts (inline vs. executor-pool paths).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.names import Algorithm
from repro.obs.samplers import SeriesStore
from repro.sim import SimulationConfig, run_simulation
from repro.sim.hybrid import (
    SHARD_ID_STRIDE,
    HybridMetrics,
    hybrid_digest,
    reference_config,
    run_hybrid_simulation,
    shard_config,
    shard_plan,
    shard_seed,
)
from repro.sim.metrics import metrics_digest
from repro.experiments.replicates import (_config_fingerprint,
                                          run_resilient_sweep)


def hybrid_config(**overrides) -> SimulationConfig:
    base = dict(n_users=60, n_pieces=24, neighbor_count=20, max_rounds=250,
                flash_crowd_duration=5.0, seed=3, backend="vector-fast")
    population = overrides.pop("population", 1200)
    n_subswarms = overrides.pop("n_subswarms", 4)
    coupling_interval = overrides.pop("coupling_interval", 10)
    base.update(overrides)
    return SimulationConfig(Algorithm.TCHAIN, **base).with_population(
        population, n_subswarms=n_subswarms,
        coupling_interval=coupling_interval)


@pytest.fixture(scope="module")
def hybrid_metrics() -> HybridMetrics:
    return run_simulation(hybrid_config()).metrics


class TestConfigPlumbing:
    def test_population_must_cover_sampled_mass(self):
        with pytest.raises(ConfigurationError, match="shard weights"):
            hybrid_config(population=100)

    def test_rejects_poisson_arrivals(self):
        with pytest.raises(ConfigurationError, match="flash"):
            SimulationConfig(Algorithm.TCHAIN, n_users=60,
                             arrival_process="poisson",
                             population=1200)

    def test_rejects_record_transfers(self):
        with pytest.raises(ConfigurationError, match="record_transfers"):
            hybrid_config(record_transfers=True)

    @pytest.mark.parametrize("backend", ["object", "vector-fast"])
    def test_rejects_obs(self, backend):
        """Shard obs payloads were silently dropped; now the config
        that asks for them is refused, on any shard engine."""
        plain = SimulationConfig(Algorithm.ALTRUISM, n_users=50,
                                 n_pieces=8, backend=backend).with_obs(
            trace=False, sample_every=0, profile=True)
        with pytest.raises(ConfigurationError, match="obs"):
            plain.with_population(200, n_subswarms=2)

    def test_lineage_property(self):
        assert hybrid_config().digest_lineage == "hybrid-v1"
        plain = hybrid_config().with_population(None)
        assert plain.population is None
        assert plain.digest_lineage == "fast-v1"

    def test_fingerprint_carries_hybrid_tag(self):
        config = hybrid_config()
        fp = _config_fingerprint(config)
        assert "<hybrid population=1200 n_subswarms=4" in fp
        assert "<digest_lineage=hybrid-v1>" in fp
        # Shard backends are not interchangeable inside a hybrid
        # journal, so the backend is part of the identity.
        assert fp != _config_fingerprint(config.with_backend("object"))
        assert fp != _config_fingerprint(
            config.with_population(2400, n_subswarms=4))


class TestShardPlan:
    def test_weight_and_seeds(self):
        plan = shard_plan(hybrid_config())
        assert plan.population == 1200
        assert plan.subswarm_size == 60
        assert plan.weight == pytest.approx(5.0)
        assert len(set(plan.shard_seeds)) == plan.n_subswarms
        assert plan.shard_seeds == tuple(shard_seed(3, i) for i in range(4))

    def test_shard_seed_is_hash_derived(self):
        # Neighbouring base seeds must not alias each other's shards.
        assert shard_seed(0, 1) != shard_seed(1, 0)

    def test_shard_config_is_the_template(self):
        config = hybrid_config()
        shard = shard_config(config, 2)
        assert shard.population is None
        assert shard.seed == shard_seed(3, 2)
        assert shard.n_users == config.n_users
        assert shard.seeder_capacity == config.seeder_capacity
        assert shard.backend == config.backend

    def test_shard_index_bounds(self):
        with pytest.raises(ConfigurationError):
            shard_config(hybrid_config(), 4)

    def test_reference_preserves_per_capita_seeding(self):
        config = hybrid_config()
        ref = reference_config(config)
        assert ref.population is None
        assert ref.n_users == 1200
        per_capita = (config.n_seeders * config.seeder_capacity
                      / config.n_users)
        assert (ref.n_seeders * ref.seeder_capacity / ref.n_users
                == pytest.approx(per_capita))
        # Seeder *count* scales, not one seeder's capacity: topology
        # parity (a single 20x seeder bottlenecks on its view).
        assert ref.n_seeders == config.n_seeders * 20

    def test_plain_config_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_plan(SimulationConfig(Algorithm.TCHAIN))


class TestHybridRun:
    def test_dispatch_and_lineage(self, hybrid_metrics):
        assert isinstance(hybrid_metrics, HybridMetrics)
        assert hybrid_metrics.digest_lineage == "hybrid-v1"
        assert hybrid_metrics.population == 1200
        assert hybrid_metrics.shard_weight == pytest.approx(5.0)
        assert len(hybrid_metrics.shard_digests) == 4

    def test_conservation_at_every_coupling_round(self, hybrid_metrics):
        # The satellite property: unarrived + present + departed == P
        # at every boundary, and the ledger covers the whole run.
        assert hybrid_metrics.coupling, "no coupling rows recorded"
        assert hybrid_metrics.conservation_errors() == []
        for row in hybrid_metrics.coupling:
            total = row.unarrived + row.active + row.departed
            assert total == pytest.approx(hybrid_metrics.population)
            assert 0.0 <= row.effectiveness <= 1.0
            assert row.seeds >= 0.0
            assert row.residual >= 0.0
        times = [row.time for row in hybrid_metrics.coupling]
        assert times == sorted(times)
        assert times[-1] == hybrid_metrics.rounds_run

    def test_arrivals_complete_after_flash(self, hybrid_metrics):
        config = hybrid_config()
        for row in hybrid_metrics.coupling:
            if row.time >= config.flash_crowd_duration:
                assert row.unarrived == pytest.approx(0.0)
                assert row.arrived == pytest.approx(1200.0)

    def test_population_scale_samples(self, hybrid_metrics):
        for sample in hybrid_metrics.samples:
            assert sample.population == 1200
        final = hybrid_metrics.samples[-1]
        assert final.completed == pytest.approx(
            hybrid_metrics.population_completed(), rel=0.01)

    def test_peers_pooled_with_disjoint_ids(self, hybrid_metrics):
        ids = [p.peer_id for p in hybrid_metrics.peers]
        assert len(ids) == len(set(ids))
        shards = {p.peer_id // SHARD_ID_STRIDE for p in hybrid_metrics.peers}
        assert shards == {0, 1, 2, 3}

    def test_scalar_ratios_are_scale_invariant(self, hybrid_metrics):
        assert 0.0 < hybrid_metrics.completion_fraction() <= 1.0
        assert hybrid_metrics.mean_completion_time() > 0
        assert hybrid_metrics.final_fairness() is not None

    def test_obs_payload_has_coupling_gauges(self, hybrid_metrics):
        store = SeriesStore.from_compact(hybrid_metrics.obs["series"])
        names = store.names()
        for gauge in ("pop_active", "pop_unarrived", "fluid_downloaders",
                      "fluid_residual", "coupling_effectiveness"):
            assert gauge in names
        assert len(store) == len(hybrid_metrics.coupling)

    def test_fluid_residual_bounded(self, hybrid_metrics):
        # Soft cross-check: the mean-field trajectory tracks the event
        # aggregate to within a transient fraction of the population.
        assert 0.0 <= hybrid_metrics.fluid_residual < 0.5

    def test_requires_hybrid_config(self):
        with pytest.raises(ConfigurationError):
            run_hybrid_simulation(SimulationConfig(Algorithm.TCHAIN))


class TestDeterminism:
    def test_digest_identical_across_jobs(self):
        config = hybrid_config()
        inline = run_hybrid_simulation(config).metrics
        pooled = run_hybrid_simulation(config, jobs=2,
                                       start_method="fork").metrics
        assert hybrid_digest(inline) == hybrid_digest(pooled)
        assert metrics_digest(inline) == metrics_digest(pooled)
        assert inline.shard_digests == pooled.shard_digests

    def test_digest_varies_with_seed_and_plan(self):
        base = run_hybrid_simulation(hybrid_config()).metrics
        other_seed = run_hybrid_simulation(hybrid_config(seed=4)).metrics
        assert hybrid_digest(base) != hybrid_digest(other_seed)
        wider = run_hybrid_simulation(
            hybrid_config(population=2400)).metrics
        assert hybrid_digest(base) != hybrid_digest(wider)


class TestSweepIntegration:
    def test_journal_and_outcomes_carry_hybrid_lineage(self, tmp_path):
        config = hybrid_config()
        journal = tmp_path / "journal.jsonl"
        sweep = run_resilient_sweep(config, seeds=[1, 2], jobs=2,
                                    journal_path=str(journal),
                                    start_method="fork")
        assert all(o.ok for o in sweep.outcomes)
        assert {o.digest_lineage for o in sweep.outcomes} == {"hybrid-v1"}
        rows = [json.loads(line) for line in journal.read_text().splitlines()]
        header = rows[0]
        assert header["kind"] == "header"
        assert "<hybrid population=1200" in header["config"]
        done = [r for r in rows if r.get("kind") == "replicate"]
        assert done and all(
            r.get("digest_lineage") == "hybrid-v1" for r in done)

    def test_sweep_digest_deterministic_across_jobs(self, tmp_path):
        config = hybrid_config()
        one = run_resilient_sweep(config, seeds=[5, 6], jobs=1,
                                  start_method="fork")
        two = run_resilient_sweep(config, seeds=[5, 6], jobs=2,
                                  start_method="fork")
        assert one.canonical_digest() == two.canonical_digest()
