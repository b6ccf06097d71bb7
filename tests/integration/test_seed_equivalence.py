"""Seed-pinned metrics-digest equivalence for all six mechanisms.

The hot-path rewrite (bitmask piece sets, bucketed availability,
incrementally maintained neighbor/needy caches) must be *invisible*:
for a fixed seed, the metrics of a run — every sample, every peer
summary, every fault counter — must be byte-identical to the eager
pre-rewrite implementation. These digests were captured from the
pre-rewrite code with exactly one behavioural fix applied: the
rarest-first tie-break enumerates candidates in ascending piece order
(the old code drew from ``set`` iteration order, which varies across
Python builds, so its seeds did not reproduce across versions).

Because the digest covers float reprs, and float repr is portable,
the same constants must hold on every supported Python version — a
3.10 run and a 3.12 run of this test assert the same hashes, which is
the cross-version determinism guarantee in executable form. If a
change legitimately moves these numbers, justify it and re-pin.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import figures
from repro.experiments.scenarios import (default_scale, paper_scale,
                                         smoke_scale)
from repro.names import ALL_ALGORITHMS, EXTENDED_ALGORITHMS, Algorithm
from repro.sim.config import (AttackConfig, SimulationConfig,
                              targeted_attack_for)
from repro.sim.faults import FaultConfig
from repro.sim.metrics import metrics_digest
from repro.sim.runner import build_engine, run_simulation
from tests.sim.test_vector_backend import ALL_FAULTS, large_view_config

#: Captured from the pre-rewrite implementation (sorted tie-break
#: applied) under the config below; the current code must match.
PINNED_DIGESTS = {
    Algorithm.RECIPROCITY:
        "e77cb8033cdf7e1552249aae6c17e2bd45e1caf9a1ed50ee982b911950cefc5e",
    Algorithm.TCHAIN:
        "b95f078fe88090b353f7776933a422a474b50fd58b81ac185f29c19000603da4",
    Algorithm.BITTORRENT:
        "3d3c4c185cbbb444dee4a293c6baa590b5474adcb9e62f6caac2c252ad80734f",
    Algorithm.FAIRTORRENT:
        "ee2864578942d123cf61eb83f1c8a85ad77a774ace6c79b40dd6ab13f7b28ace",
    Algorithm.REPUTATION:
        "3ccb6f8d6f0f97a1420991307493aeead0f063b0975de28beaf5db9a4c630b4c",
    Algorithm.ALTRUISM:
        "bcfc8959df9684c708ae52ae852399ce92dc59b427b16b0ceaea858c425e788d",
}


#: ``fast-v1`` lineage pins: the ``vector-fast`` engine has no draw
#: parity with the object engine, so its own digests are pinned here
#: to catch any engine change that moves its outcomes. The
#: reciprocity run was captured before the array engines' dormant
#: turns landed. The other four were re-pinned when the fast engine
#: stopped keeping needy pools across turns: a pool that held stale
#: entries spent sampler draws on rejecting them, and the exact
#: per-turn pool does not, so every later draw moves (its seeder
#: rebuilds a pool on a changed view either way, so the whitewashing
#: reciprocity run draws the same). Keyed by the runs in
#: ``fast_pin_config``.
FAST_PINNED_DIGESTS = {
    "reciprocity-whitewash":
        "e024129e12016384b830963656c0a548db46880b77c1c91e5f184212c8308b1f",
    "tchain-stall":
        "68ff99fe1fb5f482829846a7591ff736f6ca541a9839649dc5c3c1ccfabd0cf5",
    "altruism-all-faults":
        "c95d9f2a632b57a16b54bbac2a759a7594044421bbfadf91f0746bb93144cdc5",
    "tchain-large-view-faults":
        "fa0e5e30dd203b5681308230a26f9399f5940f2fec5bfac5f847a4ae76d4f5e4",
    "tchain-random-pieces":
        "4dd28e7b22d8231cde372801aefce128fd954fd0093f9d84aef12ec4ca016783",
}

#: Pinned fast runs that are meant to include an idle tail to the cap.
FAST_PINS_TO_CAP = ("reciprocity-whitewash", "tchain-stall")


def equivalence_config(algorithm: Algorithm) -> SimulationConfig:
    """Free-riders plus each mechanism's targeted attack, so the run
    exercises whitewashing, collusion, and the reputation board — the
    paths most sensitive to iteration order and cache staleness."""
    return SimulationConfig(
        algorithm=algorithm,
        n_users=40,
        n_pieces=32,
        max_rounds=300,
        freerider_fraction=0.2,
        attack=targeted_attack_for(algorithm),
        neighbor_count=12,
        seed=7,
    )


class TestSeedPinnedDigests:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS,
                             ids=[a.value for a in ALL_ALGORITHMS])
    def test_metrics_digest_matches_pre_rewrite_reference(self, algorithm):
        metrics = run_simulation(equivalence_config(algorithm)).metrics
        assert metrics_digest(metrics) == PINNED_DIGESTS[algorithm]

    def test_repeat_run_reproduces_digest(self):
        config = equivalence_config(Algorithm.RECIPROCITY)
        first = metrics_digest(run_simulation(config).metrics)
        second = metrics_digest(run_simulation(config).metrics)
        assert first == second == PINNED_DIGESTS[Algorithm.RECIPROCITY]


class TestVectorBackendParity:
    """The struct-of-arrays backend is an alternative *engine*, not an
    alternative *model*: for every supported configuration it must
    reproduce the object engine's metrics byte-for-byte.  Pinning the
    vector backend against the same pre-rewrite digests makes the two
    engines mutually checking oracles."""

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS,
                             ids=[a.value for a in ALL_ALGORITHMS])
    def test_vector_backend_matches_pinned_digest(self, algorithm):
        config = equivalence_config(algorithm)
        metrics = run_simulation(config.with_backend("vector")).metrics
        assert metrics_digest(metrics) == PINNED_DIGESTS[algorithm]
        assert_same_ending(run_simulation(config).metrics, metrics)

    def test_propshare_backends_agree(self):
        # Propshare has no pinned digest (it is the seventh, extension
        # algorithm), so compare the two engines against each other.
        config = equivalence_config(Algorithm.PROPSHARE)
        object_metrics = run_simulation(config).metrics
        vector_metrics = run_simulation(config.with_backend("vector")).metrics
        assert metrics_digest(object_metrics) == metrics_digest(vector_metrics)
        assert_same_ending(object_metrics, vector_metrics)


def assert_same_ending(object_metrics, vector_metrics) -> None:
    """Termination and stuck peers lie outside the digest, so parity
    compares them on their own."""
    assert (object_metrics.termination, object_metrics.n_stuck) == \
        (vector_metrics.termination, vector_metrics.n_stuck)


def tchain_endgame_config(seed: int) -> SimulationConfig:
    """ROADMAP item 1's T-Chain end-game at 1000 users and 64 pieces."""
    return SimulationConfig(
        algorithm=Algorithm.TCHAIN, n_users=1000, n_pieces=64,
        neighbor_count=40, seeder_capacity=32, flash_crowd_duration=10,
        max_rounds=600, seed=seed)


class TestTerminationPins:
    """How the T-Chain end-game runs end, pinned per engine.

    Seeds 0 and 3 deadlock: stuck peers each hold the other's piece
    encrypted, with nobody else in view who could take a forward, so
    they run to the cap with nothing left that can happen. Seed 1
    completes.
    """

    ENDINGS = {0: ("stalled", 2), 1: ("complete", 0), 3: ("stalled", 4)}

    @pytest.mark.parametrize("backend", ["vector", "object"])
    @pytest.mark.parametrize("seed", sorted(ENDINGS))
    def test_tchain_endgame(self, seed, backend):
        config = tchain_endgame_config(seed).with_backend(backend)
        metrics = run_simulation(config).metrics
        assert (metrics.termination, metrics.n_stuck) == self.ENDINGS[seed]

    def test_fast_tchain_stall_pin(self):
        metrics = run_simulation(fast_pin_config("tchain-stall")).metrics
        assert (metrics.termination, metrics.n_stuck) == ("stalled", 2)


class TestFigureBackendParity:
    """The scenario presets name ``backend="vector"``, so Figures 4-6
    run on the array engine; each figure's per-mechanism digests must
    still be the object engine's."""

    @pytest.mark.parametrize("preset", [paper_scale, default_scale,
                                        smoke_scale],
                             ids=lambda preset: preset.__name__)
    def test_presets_run_on_vector(self, preset):
        assert preset().backend == "vector"

    @pytest.mark.parametrize("name", ["figure4", "figure5", "figure6"])
    def test_figure_matches_object_engine(self, name):
        self._check(getattr(figures, name), smoke_scale(seed=5))

    @pytest.mark.slow
    def test_figure6_matches_object_engine_at_paper_scale(self):
        """1000 users, 512 pieces, and large-view free-riders whose
        views span the swarm; minutes (select with ``-m slow``)."""
        self._check(figures.figure6, paper_scale(seed=1))

    @staticmethod
    def _check(runner, base):
        on_vector = runner(base).results
        on_object = runner(replace(base, backend="object")).results
        assert list(on_vector) == list(on_object) == list(ALL_ALGORITHMS)
        for algorithm, result in on_vector.items():
            assert result.config.backend == "vector"
            assert result.metrics.digest_lineage == "parity-v1"
            assert (metrics_digest(result.metrics)
                    == metrics_digest(on_object[algorithm].metrics)), \
                algorithm.value
            assert_same_ending(on_object[algorithm].metrics, result.metrics)


#: One entry per fault axis (individually), plus all five at once.
#: Rates are high enough that every axis demonstrably fires at this
#: scale (crashes, dropped reports, expired obligations all nonzero
#: for at least some mechanisms) without collapsing the swarm.
FAULT_AXES = {
    "loss": FaultConfig(transfer_loss_rate=0.15),
    "crashes": FaultConfig(crash_hazard=0.004),
    "outages": FaultConfig(seeder_outage_rate=0.2,
                           seeder_outage_duration=4),
    "delayed-reports": FaultConfig(report_delay_rounds=3),
    "expiry": FaultConfig(transfer_loss_rate=0.15,
                          obligation_expiry_rounds=6),
    "combined": FaultConfig(transfer_loss_rate=0.1, crash_hazard=0.003,
                            seeder_outage_rate=0.1,
                            seeder_outage_duration=3,
                            report_delay_rounds=2,
                            obligation_expiry_rounds=8),
}


def faulted_config(algorithm: Algorithm, faults: FaultConfig,
                   ) -> SimulationConfig:
    """A lighter sibling of ``equivalence_config`` (faulted runs go
    through extra per-round phases, and this matrix is 7 mechanisms
    by 6 axes by 2 engines)."""
    return SimulationConfig(
        algorithm=algorithm,
        n_users=40,
        n_pieces=24,
        max_rounds=160,
        freerider_fraction=0.2,
        attack=targeted_attack_for(algorithm),
        neighbor_count=12,
        seed=7,
        faults=faults,
    )


class TestFaultAxisParity:
    """PR 9 tentpole contract: every fault axis — individually and all
    combined — runs on ``backend="vector"`` with metrics (including
    the fault counters the digest covers) byte-identical to the object
    engine, across all seven mechanisms."""

    @pytest.mark.parametrize("axis", list(FAULT_AXES),
                             ids=list(FAULT_AXES))
    @pytest.mark.parametrize("algorithm", EXTENDED_ALGORITHMS,
                             ids=[a.value for a in EXTENDED_ALGORITHMS])
    def test_object_and_vector_agree_under_faults(self, algorithm, axis):
        config = faulted_config(algorithm, FAULT_AXES[axis])
        object_result = run_simulation(config)
        vector_result = run_simulation(config.with_backend("vector"))
        assert (metrics_digest(object_result.metrics)
                == metrics_digest(vector_result.metrics))
        assert (object_result.metrics.faults
                == vector_result.metrics.faults)
        assert_same_ending(object_result.metrics, vector_result.metrics)


class TestGuardsPreserveDigests:
    """Guards are observation-only: the pinned digests must survive
    running every check every round (the strictest mode there is)."""

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS,
                             ids=[a.value for a in ALL_ALGORITHMS])
    def test_full_guards_keep_pinned_digest(self, algorithm, tmp_path):
        config = equivalence_config(algorithm).with_guards(
            "full", bundle_dir=str(tmp_path))
        metrics = run_simulation(config).metrics
        assert metrics_digest(metrics) == PINNED_DIGESTS[algorithm]


#: The one obs setting the array engines accept.
PROFILE_ONLY = dict(trace=False, sample_every=0, profile=True)


class TestObsPreservesDigests:
    """The observability layer is observation-only on every engine.
    On the object engine, tracing at full sampling, every-round gauge
    sampling, and span profiling all on at once must leave every
    pinned digest byte-identical; on the array engines, which accept
    span profiling only, profiling must leave the parity-v1 and
    fast-v1 pins byte-identical."""

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS,
                             ids=[a.value for a in ALL_ALGORITHMS])
    def test_full_instrumentation_keeps_pinned_digest(self, algorithm):
        config = equivalence_config(algorithm).with_obs(
            trace=True, sample_every=1, profile=True)
        metrics = run_simulation(config).metrics
        # The payload rode along, but outside the digest.
        assert metrics.obs is not None
        assert set(metrics.obs) == {"series", "profile", "trace"}
        assert f"strategy.{algorithm.value}" in metrics.obs["profile"]
        assert metrics_digest(metrics) == PINNED_DIGESTS[algorithm]

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS,
                             ids=[a.value for a in ALL_ALGORITHMS])
    def test_profiling_keeps_vector_pinned_digest(self, algorithm):
        config = equivalence_config(algorithm).with_backend(
            "vector").with_obs(**PROFILE_ONLY)
        metrics = run_simulation(config).metrics
        assert metrics.digest_lineage == "parity-v1"
        assert set(metrics.obs) == {"profile"}
        assert {"engine.round", f"kernel.{algorithm.value}",
                "kernel.spray"} <= set(metrics.obs["profile"])
        assert metrics_digest(metrics) == PINNED_DIGESTS[algorithm]

    @pytest.mark.parametrize("name", list(FAST_PINNED_DIGESTS))
    def test_profiling_keeps_fast_pinned_digest(self, name):
        config = fast_pin_config(name).with_obs(**PROFILE_ONLY)
        metrics = run_simulation(config).metrics
        assert metrics.digest_lineage == "fast-v1"
        assert {"engine.round", f"kernel.{config.algorithm.value}"} <= \
            set(metrics.obs["profile"])
        assert metrics_digest(metrics) == FAST_PINNED_DIGESTS[name]

    def test_obs_and_full_guards_together_keep_digest(self, tmp_path):
        config = equivalence_config(Algorithm.TCHAIN).with_guards(
            "full", bundle_dir=str(tmp_path)
        ).with_obs(trace=True, sample_every=1, profile=True)
        metrics = run_simulation(config).metrics
        assert "guards.after_round" in metrics.obs["profile"]
        assert metrics_digest(metrics) == PINNED_DIGESTS[Algorithm.TCHAIN]


def fast_pin_config(name: str) -> SimulationConfig:
    """The ``vector-fast`` runs behind ``FAST_PINNED_DIGESTS``."""
    if name == "reciprocity-whitewash":
        # Free-riders whitewashing every 30 rounds; reciprocity leaves
        # peers unfinished, so the run goes to its round cap.
        config = replace(equivalence_config(Algorithm.RECIPROCITY),
                         attack=AttackConfig(whitewash_interval=30))
    elif name == "tchain-stall":
        # The T-Chain end-game stall at 200 users: this seed leaves
        # peers 153 and 162 each holding a piece encrypted and owed to
        # the other, with only each other and the seeder in view, so
        # no key is released before the cap.
        config = SimulationConfig(
            algorithm=Algorithm.TCHAIN, n_users=200, n_pieces=64,
            neighbor_count=40, seeder_capacity=32,
            flash_crowd_duration=10, max_rounds=600, seed=6)
    elif name == "tchain-large-view-faults":
        # Large-view colluders under all five fault axes: designated
        # and forward targets, unlocks, orphan drops and expiry on the
        # shared send paths, seeders spraying over swarm-wide views.
        config = large_view_config(Algorithm.TCHAIN, ALL_FAULTS)
    elif name == "tchain-random-pieces":
        config = SimulationConfig(
            algorithm=Algorithm.TCHAIN, n_users=60, n_pieces=24,
            neighbor_count=12, max_rounds=200, piece_selection="random",
            seed=3)
    else:
        config = faulted_config(Algorithm.ALTRUISM, FAULT_AXES["combined"])
    return config.with_backend("vector-fast")


class TestFastLineagePinnedDigests:
    @pytest.mark.parametrize("name", list(FAST_PINNED_DIGESTS))
    def test_vector_fast_matches_pinned_digest(self, name):
        config = fast_pin_config(name)
        metrics = run_simulation(config).metrics
        assert metrics.digest_lineage == "fast-v1"
        assert metrics_digest(metrics) == FAST_PINNED_DIGESTS[name]
        if name in FAST_PINS_TO_CAP:
            assert metrics.rounds_run == config.max_rounds

    @pytest.mark.parametrize("name", list(FAST_PINNED_DIGESTS))
    def test_only_freerider_slots_hold_a_stream(self, name):
        """The fast kernels draw from the engine's shared sampler; only
        the free-rider kernel reads a slot's own stream. Streams are
        seeded by name, so creating only those moves no draw."""
        sim = build_engine(fast_pin_config(name))
        assert [s for s in range(sim.n_slots)
                if (sim.srng[s] is not None) != sim.free[s]] == []
        assert metrics_digest(sim.run().metrics) == FAST_PINNED_DIGESTS[name]
