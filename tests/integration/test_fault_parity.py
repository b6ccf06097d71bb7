"""Cross-backend differential fault fuzzer (PR 9 tentpole guard).

Three layers of defence around the vector engines' fault injection:

* **Randomized digest parity** — a seeded generator draws arbitrary
  ``FaultConfig``s (any subset of the five axes, rates across their
  whole legal ranges including the 1.0 stress corner) paired with
  varied swarm shapes, and asserts the object and vector engines
  produce byte-identical metrics digests *and* identical fault-counter
  structs. ``FAULT_FUZZ_CASES`` shrinks the case count for CI smoke.
* **Property harness** — a Hypothesis strategy over the same space,
  so failures shrink to a minimal fault/config combination
  (``FAULT_FUZZ_EXAMPLES`` controls the budget).
* **Distributional parity under faults** — the fast lineage has no
  digest contract, so a fixed all-axes ``FaultConfig`` is run over a
  seed panel on both the object and vector-fast engines and compared
  with the same KS/CI machinery the fault-free distributional suite
  uses, plus a CI-overlap check on the crash counts themselves (the
  one axis whose *sampling algorithm* differs: per-member Bernoulli
  coins vs batched geometric gaps). ``FAULT_DIST_SEEDS`` shrinks the
  panel.

The random seeds and panels are fixed, so every check is
deterministic: a failure means an engine drifted, not bad luck.
"""

from __future__ import annotations

import os
import random
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.validation import (
    confidence_interval,
    distributional_equivalence,
    intervals_overlap,
)
from repro.names import Algorithm
from repro.sim.config import SimulationConfig, targeted_attack_for
from repro.sim.faults import FaultConfig
from repro.sim.metrics import degradation_rows, metrics_digest
from repro.sim.runner import run_simulation

#: Randomized digest-parity cases (override for CI smoke).
N_FUZZ_CASES = max(1, int(os.environ.get("FAULT_FUZZ_CASES", "20")))
#: Hypothesis examples for the property harness.
N_FUZZ_EXAMPLES = max(1, int(os.environ.get("FAULT_FUZZ_EXAMPLES", "15")))
#: Seed-panel width for the fast-lineage distributional checks.
N_DIST_SEEDS = max(2, int(os.environ.get("FAULT_DIST_SEEDS", "30")))

_FUZZ_ALGORITHMS = (Algorithm.TCHAIN, Algorithm.REPUTATION,
                    Algorithm.BITTORRENT, Algorithm.FAIRTORRENT,
                    Algorithm.PROPSHARE)


def _random_fault_config(rng: random.Random) -> FaultConfig:
    """An arbitrary fault layer: each axis independently on or off,
    rates spanning the full legal range (loss and outage include the
    1.0 stress corner; the crash hazard stays small enough that some
    swarm usually survives, which is where parity bugs hide)."""
    return FaultConfig(
        transfer_loss_rate=(rng.choice([rng.uniform(0.0, 0.6), 1.0])
                            if rng.random() < 0.7 else 0.0),
        crash_hazard=(rng.uniform(0.0005, 0.02)
                      if rng.random() < 0.6 else 0.0),
        seeder_outage_rate=(rng.choice([rng.uniform(0.05, 0.6), 1.0])
                            if rng.random() < 0.5 else 0.0),
        seeder_outage_duration=rng.randint(1, 8),
        report_delay_rounds=(rng.randint(1, 6)
                             if rng.random() < 0.6 else 0),
        obligation_expiry_rounds=(rng.randint(1, 12)
                                  if rng.random() < 0.5 else None),
    )


def _random_config(rng: random.Random) -> SimulationConfig:
    algorithm = rng.choice(_FUZZ_ALGORITHMS)
    freeriders = rng.choice([0.0, 0.2, 0.3])
    return SimulationConfig(
        algorithm=algorithm,
        n_users=rng.randint(16, 48),
        n_pieces=rng.choice([8, 16, 24]),
        max_rounds=rng.randint(60, 180),
        freerider_fraction=freeriders,
        attack=targeted_attack_for(algorithm),
        neighbor_count=rng.randint(6, 14),
        arrival_process=rng.choice(["flash", "poisson"]),
        seed=rng.randint(0, 2**31),
        faults=_random_fault_config(rng),
        abort_rate=rng.choice([0.0, 0.0, 0.01]),
    )


def _assert_backends_agree(config: SimulationConfig) -> None:
    object_result = run_simulation(config.with_backend("object"))
    vector_result = run_simulation(config.with_backend("vector"))
    assert (object_result.metrics.faults
            == vector_result.metrics.faults), config
    assert (metrics_digest(object_result.metrics)
            == metrics_digest(vector_result.metrics)), config
    assert (object_result.metrics.termination,
            object_result.metrics.n_stuck) == \
        (vector_result.metrics.termination,
         vector_result.metrics.n_stuck), config


class TestRandomizedDigestParity:
    """Seeded random sweep over the (config, faults) product space."""

    @pytest.mark.parametrize("case", range(N_FUZZ_CASES))
    def test_object_and_vector_digests_agree(self, case):
        rng = random.Random(0xFA017 + case)
        _assert_backends_agree(_random_config(rng))

    def test_stress_corner_all_transfers_lost(self):
        """loss=1.0 — the corner the validation widening legalised:
        every send consumes budget and delivers nothing."""
        config = SimulationConfig(
            algorithm=Algorithm.TCHAIN, n_users=24, n_pieces=12,
            max_rounds=60, neighbor_count=8, seed=3,
            faults=FaultConfig(transfer_loss_rate=1.0,
                               obligation_expiry_rounds=4))
        _assert_backends_agree(config)
        result = run_simulation(config)
        assert result.metrics.completion_fraction() == 0.0
        assert result.metrics.faults.transfers_lost > 0

    def test_stress_corner_seeders_always_failing(self):
        """outage=1.0: seeders re-fail on every would-be recovery, so
        the swarm never receives a piece and no transfer is attempted."""
        config = SimulationConfig(
            algorithm=Algorithm.TCHAIN, n_users=24, n_pieces=12,
            max_rounds=60, neighbor_count=8, seed=3,
            faults=FaultConfig(seeder_outage_rate=1.0,
                               seeder_outage_duration=2))
        _assert_backends_agree(config)
        result = run_simulation(config)
        assert result.metrics.completion_fraction() == 0.0
        assert result.metrics.faults.seeder_outages > 0
        assert result.metrics.total_uploaded == 0


@st.composite
def faulted_configs(draw) -> SimulationConfig:
    algorithm = draw(st.sampled_from(_FUZZ_ALGORITHMS))
    faults = FaultConfig(
        transfer_loss_rate=draw(st.sampled_from([0.0, 0.1, 0.4, 1.0])),
        crash_hazard=draw(st.sampled_from([0.0, 0.002, 0.01])),
        seeder_outage_rate=draw(st.sampled_from([0.0, 0.2, 1.0])),
        seeder_outage_duration=draw(st.integers(min_value=1, max_value=6)),
        report_delay_rounds=draw(st.integers(min_value=0, max_value=5)),
        obligation_expiry_rounds=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=10))),
    )
    return SimulationConfig(
        algorithm=algorithm,
        n_users=draw(st.integers(min_value=12, max_value=36)),
        n_pieces=draw(st.sampled_from([8, 16])),
        max_rounds=draw(st.integers(min_value=40, max_value=120)),
        freerider_fraction=draw(st.sampled_from([0.0, 0.25])),
        attack=targeted_attack_for(algorithm),
        neighbor_count=draw(st.integers(min_value=5, max_value=12)),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        faults=faults,
    )


@settings(max_examples=N_FUZZ_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=faulted_configs())
def test_fault_parity_property(config):
    """Any legal fault layer on any small config: digests must agree."""
    _assert_backends_agree(config)


class TestDegradationRowParity:
    """degradation_rows — the consumer the ROADMAP wanted vectorized —
    must be identical whether its per-rate runs came from the object
    or the vector engine, including under the other fault axes."""

    LOSS_GRID = (0.0, 0.1, 0.25, 0.5)

    def _rows(self, backend: str) -> List[dict]:
        base = SimulationConfig(
            algorithm=Algorithm.TCHAIN, n_users=30, n_pieces=16,
            max_rounds=100, neighbor_count=8, seed=11, backend=backend,
            faults=FaultConfig(crash_hazard=0.003, report_delay_rounds=2,
                               obligation_expiry_rounds=8))
        runs = {}
        for rate in self.LOSS_GRID:
            config = base.with_faults(base.faults.with_loss_rate(rate))
            runs[rate] = run_simulation(config).metrics
        return degradation_rows(runs)

    def test_rows_identical_across_parity_backends(self):
        assert self._rows("object") == self._rows("vector")


#: Fixed all-axes fault layer for the fast-lineage checks: hot enough
#: that every counter moves at panel scale, mild enough that most of
#: the swarm still completes (completion times need survivors).
_DIST_FAULTS = FaultConfig(transfer_loss_rate=0.1, crash_hazard=0.004,
                           seeder_outage_rate=0.1,
                           seeder_outage_duration=3,
                           report_delay_rounds=2,
                           obligation_expiry_rounds=8)


def _fault_panel(backend: str) -> dict:
    completion: List[float] = []
    fairness: List[float] = []
    crashes: List[float] = []
    for seed in range(1, N_DIST_SEEDS + 1):
        config = SimulationConfig(
            algorithm=Algorithm.TCHAIN, n_users=32, n_pieces=16,
            max_rounds=120, neighbor_count=10, seed=seed,
            backend=backend, faults=_DIST_FAULTS)
        metrics = run_simulation(config).metrics
        completion.extend(metrics.completion_times())
        ff = metrics.final_fairness()
        if ff is not None:
            fairness.append(ff)
        crashes.append(float(metrics.faults.peer_crashes))
    return {"completion": completion, "fairness": fairness,
            "crashes": crashes}


_FAULT_PANELS: dict = {}


def fault_panel(backend: str) -> dict:
    if backend not in _FAULT_PANELS:
        _FAULT_PANELS[backend] = _fault_panel(backend)
    return _FAULT_PANELS[backend]


class TestFastLineageFaultedDistributions:
    """Object vs vector-fast under the all-axes fault layer."""

    def test_completion_times_equivalent_under_faults(self):
        obj = fault_panel("object")["completion"]
        fast = fault_panel("vector-fast")["completion"]
        verdict = distributional_equivalence(obj, fast, alpha=0.01)
        assert verdict["ks_pass"], (
            f"faulted completion-time KS rejected equivalence "
            f"(D={verdict['d']:.4f}, p={verdict['p']:.4g})")
        assert verdict["ci_overlap"], (
            f"faulted completion-time CIs disjoint "
            f"({verdict['ci_a']} vs {verdict['ci_b']})")

    def test_fairness_cis_overlap_under_faults(self):
        ci_obj = confidence_interval(fault_panel("object")["fairness"])
        ci_fast = confidence_interval(
            fault_panel("vector-fast")["fairness"])
        assert intervals_overlap(ci_obj, ci_fast), (ci_obj, ci_fast)

    def test_crash_counts_statistically_equivalent(self):
        """The fast engine samples crashes by geometric gaps instead of
        per-member coins; the per-run crash totals must still come from
        the same Binomial family — CIs overlap across the panel."""
        obj = fault_panel("object")["crashes"]
        fast = fault_panel("vector-fast")["crashes"]
        ci_obj = confidence_interval(obj)
        ci_fast = confidence_interval(fast)
        assert intervals_overlap(ci_obj, ci_fast), (ci_obj, ci_fast)
        assert sum(fast) > 0, "crash axis never fired on the fast engine"

    def test_fault_counters_move_on_both_engines(self):
        """Every axis of an all-axes layer actually fires — a parity
        suite comparing zeros to zeros would prove nothing. Loss and
        expiry run hotter than the distributional layer so expired
        obligations are plentiful at this scale."""
        hot = FaultConfig(transfer_loss_rate=0.25, crash_hazard=0.004,
                          seeder_outage_rate=0.1, seeder_outage_duration=3,
                          report_delay_rounds=2, obligation_expiry_rounds=4)
        for backend in ("object", "vector-fast"):
            totals = [0, 0, 0, 0, 0]
            for seed in (1, 2, 3, 4, 5):
                config = SimulationConfig(
                    algorithm=Algorithm.TCHAIN, n_users=32, n_pieces=16,
                    max_rounds=120, neighbor_count=10, seed=seed,
                    backend=backend, faults=hot)
                f = run_simulation(config).metrics.faults
                totals[0] += f.transfers_lost
                totals[1] += f.peer_crashes
                totals[2] += f.seeder_outages
                totals[3] += f.delayed_reports
                totals[4] += f.obligations_expired
            assert all(t > 0 for t in totals), (backend, totals)
