"""Tests for the crash-safe resilient sweep runner.

The fake tasks live at module level so they pickle into the worker
processes under either start method (a ``spawn`` worker imports this
module afresh); the extractors run in the parent and may be lambdas.
Worker crashes and timeouts are checked under every start method the
platform offers.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time

import pytest

from repro.experiments.replicates import (
    ReplicateOutcome,
    journal_digest,
    run_replicates,
    run_resilient_sweep,
)
from repro.experiments.scenarios import smoke_scale
from repro.names import Algorithm

SEEDS = (1, 2, 3)

#: Start methods this platform offers, the portable one last.
START_METHODS = tuple(m for m in ("fork", "spawn")
                      if m in multiprocessing.get_all_start_methods())

# Extractors for the fake tasks below, whose "metrics" are plain floats.
VALUE = {"value": lambda m: m}


def _config():
    return smoke_scale(Algorithm.ALTRUISM)


# ---------------------------------------------------------------------
# Picklable fake replicate tasks
# ---------------------------------------------------------------------

def task_identity(config, seed):
    """Succeeds immediately; the metric is the seed itself."""
    return float(seed)


def task_crash_small_seeds(config, seed):
    """Crashes on the original seeds; succeeds once reseeded."""
    if seed < 1000:
        raise RuntimeError(f"boom at seed {seed}")
    return float(seed)


def task_always_crash(config, seed):
    raise RuntimeError("always boom")


def task_hang_on_seed_two(config, seed):
    if seed == 2:
        time.sleep(60.0)
    return float(seed)


def task_kill_worker_on_small_seeds(config, seed):
    """First attempt kills the worker process outright (as a segfault
    or OOM would); retries arrive with a large derived seed and pass."""
    if seed < 1_000_000:
        os._exit(9)
    return float(seed % 9973)


class TestHappyPath:
    def test_matches_run_replicates(self):
        config = _config()
        reference = run_replicates(config, SEEDS)
        sweep = run_resilient_sweep(config, SEEDS)
        assert set(sweep.metrics) == set(reference.metrics)
        for name in reference.metrics:
            assert sweep[name].values == reference[name].values
            assert sweep[name].mean == reference[name].mean
        assert sweep.n_failed == 0
        assert sweep.resumed == 0
        assert all(o.ok and o.attempts == 1 for o in sweep.outcomes)

    def test_custom_task_and_extractors(self):
        sweep = run_resilient_sweep(_config(), SEEDS, VALUE,
                                    task=task_identity)
        assert sweep["value"].values == (1.0, 2.0, 3.0)

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            run_resilient_sweep(_config(), ())

    def test_requires_positive_attempts(self):
        with pytest.raises(ValueError):
            run_resilient_sweep(_config(), SEEDS, max_attempts=0)


class TestRetryAndFailure:
    def test_crash_then_reseed_succeeds(self):
        sweep = run_resilient_sweep(_config(), SEEDS, VALUE,
                                    task=task_crash_small_seeds,
                                    max_attempts=2)
        assert sweep.n_failed == 0
        for outcome in sweep.outcomes:
            assert outcome.attempts == 2
            assert outcome.used_seed != outcome.seed  # reseeded
            assert outcome.values["value"] == float(outcome.used_seed)

    def test_reseed_is_deterministic(self):
        first = run_resilient_sweep(_config(), SEEDS, VALUE,
                                    task=task_crash_small_seeds,
                                    max_attempts=2)
        second = run_resilient_sweep(_config(), SEEDS, VALUE,
                                     task=task_crash_small_seeds,
                                     max_attempts=2)
        assert ([o.used_seed for o in first.outcomes]
                == [o.used_seed for o in second.outcomes])

    def test_persistent_crash_recorded_failed_not_fatal(self):
        sweep = run_resilient_sweep(_config(), SEEDS, VALUE,
                                    task=task_always_crash,
                                    max_attempts=2)
        assert sweep.n_failed == len(SEEDS)
        for outcome in sweep.outcomes:
            assert outcome.status == "failed"
            assert outcome.attempts == 2
            assert "always boom" in outcome.error
            assert outcome.values == {"value": None}
        summary = sweep["value"]
        assert math.isnan(summary.mean)
        assert summary.n_missing == len(SEEDS)

    @pytest.mark.slow
    def test_timeout_kills_and_records(self):
        sweep = run_resilient_sweep(_config(), (1, 2), VALUE,
                                    task=task_hang_on_seed_two,
                                    timeout=2.0, max_attempts=1)
        by_seed = {o.seed: o for o in sweep.outcomes}
        assert by_seed[1].ok
        assert by_seed[2].status == "failed"
        assert "timeout" in by_seed[2].error


class TestRetryReseedPinned:
    """A retried sweep's digests, pinned at their measured values.

    Every replicate crashes on its requested seed and succeeds on the
    re-seeded second attempt, so these digests fix the retry-seed
    derivation (``_derive_seed``/``_used_seed``) and the journal format
    of retried replicates. Like ``PINNED_DIGESTS``, re-pin only with a
    recorded justification.
    """

    CANONICAL = ("6c7049700c2c48802955ff0e91f918a3"
                 "d1474e9de5eb97814c89e0ec8181c899")
    JOURNAL = ("81cf7f69f8bd953a6b1e74aea274a216"
               "59aa60581f53fe965bbb2aa64c9ac3c9")

    def test_retried_sweep_digests_pinned(self, tmp_path):
        path = str(tmp_path / "retried.jsonl")
        sweep = run_resilient_sweep(_config(), SEEDS, VALUE,
                                    task=task_crash_small_seeds,
                                    max_attempts=2, journal_path=path)
        assert sweep.canonical_digest() == self.CANONICAL
        assert journal_digest(path) == self.JOURNAL
        assert all(o.attempts == 2 for o in sweep.outcomes)


class TestJournal:
    def test_journal_written_and_resumed(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        first = run_resilient_sweep(_config(), SEEDS, VALUE,
                                    task=task_identity, journal_path=path)
        assert first.resumed == 0
        second = run_resilient_sweep(_config(), SEEDS, VALUE,
                                     task=task_identity, journal_path=path)
        assert second.resumed == len(SEEDS)
        assert second["value"].values == first["value"].values
        assert second["value"].mean == first["value"].mean

    def test_kill_and_resume_identical_aggregates(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        reference = run_resilient_sweep(_config(), SEEDS, VALUE,
                                        task=task_identity)
        run_resilient_sweep(_config(), SEEDS, VALUE,
                            task=task_identity, journal_path=path)
        # Simulate a kill after the first replicate: truncate the
        # journal to its header plus one completed record.
        with open(path) as handle:
            lines = handle.read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:2]) + "\n")
        resumed = run_resilient_sweep(_config(), SEEDS, VALUE,
                                      task=task_identity, journal_path=path)
        assert resumed.resumed == 1
        assert resumed["value"].values == reference["value"].values
        assert resumed["value"].mean == reference["value"].mean

    def test_torn_trailing_write_ignored(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_resilient_sweep(_config(), SEEDS, VALUE,
                            task=task_identity, journal_path=path)
        with open(path, "a") as handle:
            handle.write('{"kind": "replicate", "seed": 99, "va')  # torn
        resumed = run_resilient_sweep(_config(), SEEDS, VALUE,
                                      task=task_identity, journal_path=path)
        assert resumed.resumed == len(SEEDS)

    def test_config_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_resilient_sweep(_config(), SEEDS, VALUE,
                            task=task_identity, journal_path=path)
        other = smoke_scale(Algorithm.TCHAIN)
        with pytest.raises(ValueError, match="different configuration"):
            run_resilient_sweep(other, SEEDS, VALUE,
                                task=task_identity, journal_path=path)

    def test_metric_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_resilient_sweep(_config(), SEEDS, VALUE,
                            task=task_identity, journal_path=path)
        with pytest.raises(ValueError, match="different metrics"):
            run_resilient_sweep(_config(), SEEDS,
                                {"other": lambda m: m},
                                task=task_identity, journal_path=path)

    def test_failures_journaled_too(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_resilient_sweep(_config(), (1,), VALUE,
                            task=task_always_crash, max_attempts=1,
                            journal_path=path)
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        replicate = [r for r in records if r["kind"] == "replicate"][0]
        assert replicate["status"] == "failed"
        # The failure is checkpointed: resuming does not retry it.
        resumed = run_resilient_sweep(_config(), (1,), VALUE,
                                      task=task_always_crash, max_attempts=1,
                                      journal_path=path)
        assert resumed.resumed == 1
        assert resumed.outcomes[0].status == "failed"


class TestParallelDeterminism:
    """The jobs-count must be invisible in everything deterministic."""

    def test_digests_identical_jobs1_vs_jobs4(self, tmp_path):
        path1 = str(tmp_path / "jobs1.jsonl")
        path4 = str(tmp_path / "jobs4.jsonl")
        serial = run_resilient_sweep(_config(), SEEDS, VALUE,
                                     task=task_identity, jobs=1,
                                     journal_path=path1)
        fanned = run_resilient_sweep(_config(), SEEDS, VALUE,
                                     task=task_identity, jobs=4,
                                     journal_path=path4)
        assert serial.canonical_digest() == fanned.canonical_digest()
        assert journal_digest(path1) == journal_digest(path4)
        assert serial["value"].values == fanned["value"].values
        # Telemetry legitimately differs (worker ids, timings) but the
        # journals' deterministic bytes do not.
        assert serial.telemetry["jobs"] == 1
        assert fanned.telemetry["jobs"] in (3, 4)  # capped at task count

    def test_digests_identical_with_retries(self, tmp_path):
        path1 = str(tmp_path / "jobs1.jsonl")
        path3 = str(tmp_path / "jobs3.jsonl")
        serial = run_resilient_sweep(_config(), SEEDS, VALUE,
                                     task=task_crash_small_seeds,
                                     max_attempts=2, jobs=1,
                                     journal_path=path1)
        fanned = run_resilient_sweep(_config(), SEEDS, VALUE,
                                     task=task_crash_small_seeds,
                                     max_attempts=2, jobs=3,
                                     journal_path=path3)
        assert serial.canonical_digest() == fanned.canonical_digest()
        assert journal_digest(path1) == journal_digest(path3)
        # The reseed depends on (config, seed, attempt) only, never on
        # scheduling, so both sweeps used the same derived seeds.
        assert ([o.used_seed for o in serial.outcomes]
                == [o.used_seed for o in fanned.outcomes])

    def test_interrupted_parallel_sweep_resumes_identically(self, tmp_path):
        reference_path = str(tmp_path / "reference.jsonl")
        reference = run_resilient_sweep(_config(), SEEDS, VALUE,
                                        task=task_identity, jobs=1,
                                        journal_path=reference_path)
        path = str(tmp_path / "interrupted.jsonl")
        run_resilient_sweep(_config(), SEEDS, VALUE,
                            task=task_identity, jobs=4, journal_path=path)
        # Simulate a kill mid-sweep: keep the header plus the first
        # completed replicate, losing everything after it.
        with open(path) as handle:
            lines = handle.read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:2]) + "\n")
        resumed = run_resilient_sweep(_config(), SEEDS, VALUE,
                                      task=task_identity, jobs=4,
                                      journal_path=path)
        assert resumed.resumed == 1
        assert resumed.canonical_digest() == reference.canonical_digest()
        assert journal_digest(path) == journal_digest(reference_path)

    def test_worker_crash_retried_and_reseeded(self):
        for start_method in START_METHODS:
            sweep = run_resilient_sweep(
                _config(), SEEDS, VALUE,
                task=task_kill_worker_on_small_seeds, max_attempts=2,
                jobs=2, start_method=start_method)
            assert sweep.n_failed == 0
            for outcome in sweep.outcomes:
                assert outcome.attempts == 2
                assert outcome.used_seed != outcome.seed
                assert (outcome.values["value"]
                        == float(outcome.used_seed % 9973))
            assert sweep.telemetry["worker_crashes"] >= 3
            assert sweep.telemetry["start_method"] == start_method

    def test_timeout_does_not_stall_siblings(self):
        for start_method in START_METHODS:
            start = time.perf_counter()
            sweep = run_resilient_sweep(_config(), (1, 2, 3), VALUE,
                                        task=task_hang_on_seed_two,
                                        timeout=2.0, max_attempts=1, jobs=2,
                                        start_method=start_method)
            elapsed = time.perf_counter() - start
            by_seed = {o.seed: o for o in sweep.outcomes}
            assert by_seed[1].ok and by_seed[3].ok
            assert by_seed[2].status == "failed"
            assert "timeout" in by_seed[2].error
            # The hung replicate slept 60s; the sweep did not.
            assert elapsed < 30.0
            assert sweep.telemetry["timeouts"] == 1

    def test_digests_identical_spawn_vs_default(self, tmp_path):
        # The start method decides how workers start, never what a
        # replicate computes: real simulations, same digests.
        default_path = str(tmp_path / "default.jsonl")
        spawn_path = str(tmp_path / "spawn.jsonl")
        default = run_resilient_sweep(_config(), (1, 2), jobs=2,
                                      journal_path=default_path)
        spawned = run_resilient_sweep(_config(), (1, 2), jobs=2,
                                      journal_path=spawn_path,
                                      start_method="spawn")
        assert spawned.telemetry["start_method"] == "spawn"
        assert default.n_failed == spawned.n_failed == 0
        assert default.canonical_digest() == spawned.canonical_digest()
        assert journal_digest(default_path) == journal_digest(spawn_path)


class TestTelemetry:
    def test_outcomes_and_journal_carry_telemetry(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        sweep = run_resilient_sweep(_config(), SEEDS, VALUE,
                                    task=task_identity, journal_path=path)
        for outcome in sweep.outcomes:
            assert outcome.telemetry is not None
            assert {"worker", "wall_s", "queue_wait_s"} <= set(
                outcome.telemetry)
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        replicates = [r for r in records if r["kind"] == "replicate"]
        assert all("telemetry" in r for r in replicates)
        summaries = [r for r in records if r["kind"] == "summary"]
        assert len(summaries) == 1
        engine = summaries[0]["telemetry"]
        assert {"jobs", "wall_s", "utilization",
                "workers_spawned", "start_method"} <= set(engine)

    def test_sweep_result_exposes_engine_summary(self):
        sweep = run_resilient_sweep(_config(), (1, 2), VALUE,
                                    task=task_identity, jobs=2)
        assert sweep.telemetry["tasks_ok"] == 2
        assert sweep.telemetry["workers_spawned"] == 2
        assert 0.0 <= sweep.telemetry["utilization"] <= 1.0

    def test_resumed_outcomes_keep_journal_telemetry(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_resilient_sweep(_config(), SEEDS, VALUE,
                            task=task_identity, journal_path=path)
        resumed = run_resilient_sweep(_config(), SEEDS, VALUE,
                                      task=task_identity, journal_path=path)
        assert resumed.resumed == len(SEEDS)
        assert all(o.telemetry is not None for o in resumed.outcomes)


class TestOutcome:
    def test_ok_property(self):
        ok = ReplicateOutcome(1, 1, 1, "ok", None, {"v": 1.0})
        bad = ReplicateOutcome(1, 1, 3, "failed", "boom", {"v": None})
        assert ok.ok and not bad.ok

    def test_to_rows_includes_missing_count(self):
        sweep = run_resilient_sweep(_config(), (1, 2), VALUE,
                                    task=task_always_crash, max_attempts=1)
        rows = sweep.to_rows()
        assert rows[0]["n_missing"] == 2
        assert rows[0]["n"] == 2

    def test_lineage_defaults_to_parity_and_round_trips(self, tmp_path):
        outcome = ReplicateOutcome(1, 1, 1, "ok", None, {"v": 1.0})
        assert outcome.digest_lineage == "parity-v1"
        assert outcome.canonical_dict()["digest_lineage"] == "parity-v1"
        # Old journals predate the field: loading them must default to
        # the parity lineage, not crash or mislabel.
        path = str(tmp_path / "sweep.jsonl")
        sweep = run_resilient_sweep(_config(), (1,), VALUE,
                                    task=task_identity, journal_path=path)
        with open(path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        stripped = []
        for record in records:
            record.pop("digest_lineage", None)
            stripped.append(json.dumps(record))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(stripped) + "\n")
        resumed = run_resilient_sweep(_config(), (1,), VALUE,
                                      task=task_identity,
                                      journal_path=path)
        assert resumed.resumed == 1
        assert resumed.outcomes[0].digest_lineage == "parity-v1"
        assert sweep.outcomes[0].digest_lineage == "parity-v1"


class TestDegradedRuns:
    """Watchdog-degraded replicates flow through the sweep machinery."""

    @staticmethod
    def _starved_config(tmp_path):
        from repro.sim import FaultConfig

        config = smoke_scale(Algorithm.RECIPROCITY).with_faults(FaultConfig(
            seeder_outage_rate=0.95, seeder_outage_duration=500))
        return config.with_backend("object").with_guards(
            "cheap", watchdog_window=8, bundle_dir=str(tmp_path))

    def test_degraded_replicates_surface_in_outcomes(self, tmp_path):
        result = run_resilient_sweep(self._starved_config(tmp_path),
                                     seeds=(0, 1), jobs=1)
        assert result.n_failed == 0
        assert result.n_degraded == 2
        for outcome in result.outcomes:
            assert outcome.ok and outcome.degraded
            assert outcome.bundle_path is not None
            assert os.path.exists(outcome.bundle_path)

    def test_degraded_flag_journals_and_resumes(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        config = self._starved_config(tmp_path)
        first = run_resilient_sweep(config, seeds=(0, 1), jobs=1,
                                    journal_path=str(journal))
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        records = [r for r in records if "seed" in r]  # skip the header
        assert len(records) == 2
        assert all(r["degraded"] for r in records)
        assert all(r.get("bundle_path") for r in records)

        resumed = run_resilient_sweep(config, seeds=(0, 1), jobs=1,
                                      journal_path=str(journal))
        assert resumed.resumed == 2
        assert resumed.n_degraded == 2
        assert journal_digest(str(journal)) == journal_digest(str(journal))
        assert [o.bundle_path for o in resumed.outcomes] == \
            [o.bundle_path for o in first.outcomes]


class TestObsTelemetryChannel:
    """Per-worker observability payloads (repro.obs) ride home on the
    telemetry channel: journaled, digest-excluded, values untouched."""

    def _obs_config(self):
        return _config().with_backend("object").with_obs(
            trace=True, sample_every=5, profile=True)

    def test_series_survive_worker_pipes(self, tmp_path):
        from repro.obs import SeriesStore
        path = str(tmp_path / "sweep.jsonl")
        sweep = run_resilient_sweep(self._obs_config(), (0, 1), jobs=2,
                                    journal_path=path)
        for outcome in sweep.outcomes:
            payload = outcome.telemetry["obs"]
            assert set(payload) == {"series", "profile", "trace"}
            store = SeriesStore.from_compact(payload["series"])
            assert len(store) > 0
            assert "active_peers" in store.names()
            assert payload["trace"]["retained"] > 0
            assert "engine.round" in payload["profile"]
        # The journal carries the payload too (inside telemetry).
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        replicates = [r for r in records if r.get("kind") == "replicate"]
        assert all("obs" in r["telemetry"] for r in replicates)

    def test_instrumentation_leaves_sweep_values_unchanged(self):
        plain = run_resilient_sweep(_config(), (0, 1), jobs=1)
        traced = run_resilient_sweep(self._obs_config(), (0, 1), jobs=1)
        assert [o.values for o in traced.outcomes] == \
            [o.values for o in plain.outcomes]

    def test_obs_sweep_digest_independent_of_jobs(self):
        config = self._obs_config()
        serial = run_resilient_sweep(config, (0, 1, 2), jobs=1)
        parallel = run_resilient_sweep(config, (0, 1, 2), jobs=3)
        assert serial.canonical_digest() == parallel.canonical_digest()


class TestResultCache:
    """The content-addressed result cache (``cache_dir=``): warm and
    partially warm re-runs are digest-identical to a cold run."""

    SEEDS = (0, 1, 2, 3, 4, 5)

    def _sweep(self, seeds=SEEDS, extractors=VALUE, **over):
        return run_resilient_sweep(_config(), seeds, extractors,
                                   task=task_identity, jobs=2,
                                   timeout=60.0, **over)

    def test_warm_cache_rerun_is_digest_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = self._sweep(cache_dir=cache_dir,
                           journal_path=str(tmp_path / "cold.jsonl"))
        warm = self._sweep(cache_dir=cache_dir,
                           journal_path=str(tmp_path / "warm.jsonl"))
        assert warm.canonical_digest() == cold.canonical_digest()
        assert warm.cached == len(self.SEEDS)
        assert warm.telemetry["cache"]["hits"] == len(self.SEEDS)
        assert (journal_digest(str(tmp_path / "warm.jsonl"))
                == journal_digest(str(tmp_path / "cold.jsonl")))

    def test_partial_cache_interleaves_in_canonical_order(self, tmp_path):
        """Cache hits at seeds 0/2/4 interleave with computed 1/3/5 —
        the journal must still come out in canonical seed order."""
        cache_dir = str(tmp_path / "cache")
        self._sweep(seeds=(0, 2, 4), cache_dir=cache_dir)
        full_cold = self._sweep(journal_path=str(tmp_path / "cold.jsonl"))
        mixed = self._sweep(cache_dir=cache_dir,
                            journal_path=str(tmp_path / "mixed.jsonl"))
        assert mixed.cached == 3
        assert mixed.canonical_digest() == full_cold.canonical_digest()
        assert (journal_digest(str(tmp_path / "mixed.jsonl"))
                == journal_digest(str(tmp_path / "cold.jsonl")))

    def test_entry_from_other_extractors_is_a_miss_and_restored(
            self, tmp_path):
        """An intact entry cached under a different metric set is a
        plain miss (not a hit, not corruption): recomputed, re-stored."""
        cache_dir = str(tmp_path / "cache")
        seeds = (1, 2, 3)
        self._sweep(seeds=seeds, cache_dir=cache_dir)
        double = {"double": lambda m: 2.0 * m}
        other = self._sweep(seeds=seeds, extractors=double,
                            cache_dir=cache_dir)
        assert other.cached == 0
        assert other.telemetry["cache"] == {
            "hits": 0, "misses": 3, "stores": 3, "corrupt": 0}
        assert other["double"].values == (2.0, 4.0, 6.0)
        warm = self._sweep(seeds=seeds, extractors=double,
                           cache_dir=cache_dir)
        assert warm.cached == 3
        assert warm.telemetry["cache"]["hits"] == 3
        assert warm.canonical_digest() == other.canonical_digest()
