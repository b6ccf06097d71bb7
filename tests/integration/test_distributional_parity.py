"""Distributional parity: the fast lineage vs. the object oracle.

``backend="vector-fast"`` trades draw-for-draw parity for speed: its
runs are *statistically* equivalent to the object engine's, not
byte-identical. This suite is the contract that makes that trade
safe. For every mechanism it runs both engines across a seed panel
(default 30 seeds; override with ``DIST_PARITY_SEEDS`` for a quick
smoke) and asserts, via :mod:`repro.experiments.validation`:

* the pooled per-peer completion-time distributions are KS-
  indistinguishable (``p > 0.01``) with overlapping 95% CIs;
* the per-seed final-fairness means have overlapping 95% CIs;
* the paper-anchored orderings from EXPERIMENTS.md survive on the
  fast lineage — reciprocity's bootstrap collapse (E9), altruism's
  fastest clean downloads, and T-Chain's near-1 fairness (E12);
* every fast run is tagged ``digest_lineage="fast-v1"`` — in its
  metrics, in sweep journal records, and in result-cache entries —
  and the sweep fingerprint separates the lineages so a fast sweep
  can never consume (or poison) a parity-lineage cache or journal.

The seed panel is fixed, so the statistical checks are deterministic:
they were verified to pass at the pinned alpha before being committed,
and a regression here means the fast engine's dynamics drifted, not
that the dice came up wrong.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.replicates import (
    _config_fingerprint,
    run_resilient_sweep,
)
from repro.experiments.validation import (
    confidence_interval,
    distributional_equivalence,
    intervals_overlap,
)
from repro.names import EXTENDED_ALGORITHMS, Algorithm
from repro.sim.config import SimulationConfig
from repro.sim.runner import run_simulation

#: Seeds per (algorithm, backend) cell. The acceptance bar is >= 30;
#: CI smoke jobs may shrink it via the environment (validated to pass
#: down to 10 — below that the CI-overlap checks get too tight).
N_SEEDS = max(2, int(os.environ.get("DIST_PARITY_SEEDS", "30")))
SEEDS = tuple(range(1, N_SEEDS + 1))

ALGORITHMS = EXTENDED_ALGORITHMS


def parity_config(algorithm: Algorithm, seed: int,
                  backend: str = "object") -> SimulationConfig:
    """Small flash-crowd swarm: big enough for stable statistics,
    small enough that 7 algorithms x 2 engines x 30 seeds stays in
    single-digit seconds."""
    return SimulationConfig(algorithm=algorithm, n_users=32, n_pieces=16,
                            max_rounds=120, neighbor_count=10,
                            backend=backend, seed=seed)


#: (algorithm, backend) -> {"completion": [...], "fairness": [...],
#: "mean_completion": [...]} — populated lazily, shared across tests.
_PANEL: Dict[tuple, Dict[str, List[float]]] = {}


def panel(algorithm: Algorithm, backend: str) -> Dict[str, List[float]]:
    key = (algorithm, backend)
    if key not in _PANEL:
        expected = "fast-v1" if backend == "vector-fast" else "parity-v1"
        completion: List[float] = []
        fairness: List[float] = []
        mean_completion: List[float] = []
        for seed in SEEDS:
            metrics = run_simulation(
                parity_config(algorithm, seed, backend)).metrics
            assert metrics.digest_lineage == expected
            completion.extend(metrics.completion_times())
            ff = metrics.final_fairness()
            if ff is not None:
                fairness.append(ff)
            mc = metrics.mean_completion_time()
            if math.isfinite(mc):
                mean_completion.append(mc)
        _PANEL[key] = {"completion": completion, "fairness": fairness,
                       "mean_completion": mean_completion}
    return _PANEL[key]


@pytest.mark.parametrize("algorithm", ALGORITHMS,
                         ids=[a.value for a in ALGORITHMS])
def test_completion_times_distributionally_equivalent(algorithm):
    """Pooled per-peer completion times: KS p > 0.01 and CI overlap."""
    obj = panel(algorithm, "object")["completion"]
    fast = panel(algorithm, "vector-fast")["completion"]
    verdict = distributional_equivalence(obj, fast, alpha=0.01)
    assert verdict["ks_pass"], (
        f"{algorithm.value}: completion-time KS rejected equivalence "
        f"(D={verdict['d']:.4f}, p={verdict['p']:.4g})")
    assert verdict["ci_overlap"], (
        f"{algorithm.value}: completion-time CIs disjoint "
        f"({verdict['ci_a']} vs {verdict['ci_b']})")


@pytest.mark.parametrize("algorithm", ALGORITHMS,
                         ids=[a.value for a in ALGORITHMS])
def test_final_fairness_cis_overlap(algorithm):
    """Per-seed mean ``u_i/d_i``: the engines' 95% CIs must meet."""
    obj = panel(algorithm, "object")["fairness"]
    fast = panel(algorithm, "vector-fast")["fairness"]
    ci_obj = confidence_interval(obj)
    ci_fast = confidence_interval(fast)
    assert intervals_overlap(ci_obj, ci_fast), (
        f"{algorithm.value}: fairness CIs disjoint "
        f"({ci_obj} vs {ci_fast})")


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else math.inf


def test_fast_lineage_preserves_paper_orderings():
    """EXPERIMENTS.md's qualitative results hold on the fast lineage.

    Three orderings with wide empirical margins at this scale:

    * E9: pure reciprocity deadlocks — whoever completes at all does
      so an order of magnitude later than under any other mechanism;
    * altruism yields the fastest clean-run downloads (E7/E11);
    * E12: T-Chain's final ``u/d`` sits closest to 1 of all
      mechanisms.
    """
    mean_mc = {a: _mean(panel(a, "vector-fast")["mean_completion"])
               for a in ALGORITHMS}
    others = [a for a in ALGORITHMS if a is not Algorithm.RECIPROCITY]
    assert all(mean_mc[Algorithm.RECIPROCITY] > 3 * mean_mc[a]
               for a in others), mean_mc
    assert all(mean_mc[Algorithm.ALTRUISM] < mean_mc[a]
               for a in ALGORITHMS if a is not Algorithm.ALTRUISM), mean_mc

    unfairness = {a: abs(_mean(panel(a, "vector-fast")["fairness"]) - 1.0)
                  for a in ALGORITHMS if a is not Algorithm.RECIPROCITY}
    tchain = unfairness.pop(Algorithm.TCHAIN)
    assert all(tchain < u for u in unfairness.values()), (tchain, unfairness)


class TestLineageTagging:
    def test_metrics_tag_per_backend(self):
        for backend, expected in (("object", "parity-v1"),
                                  ("vector", "parity-v1"),
                                  ("vector-fast", "fast-v1")):
            config = parity_config(Algorithm.TCHAIN, 5, backend)
            metrics = run_simulation(config).metrics
            assert metrics.digest_lineage == expected, backend

    def test_fingerprint_separates_lineages(self):
        """The sweep identity includes the lineage, so fast results
        can never be journaled or cached under a parity identity —
        even though ``repr(config)`` deliberately excludes the backend
        (byte-parity backends *should* share identities)."""
        base = parity_config(Algorithm.TCHAIN, 5)
        fast = parity_config(Algorithm.TCHAIN, 5, "vector-fast")
        vec = parity_config(Algorithm.TCHAIN, 5, "vector")
        assert _config_fingerprint(base) == _config_fingerprint(vec)
        assert _config_fingerprint(fast) != _config_fingerprint(base)
        assert "fast-v1" in _config_fingerprint(fast)

    def test_journal_and_cache_records_carry_lineage(self, tmp_path):
        config = parity_config(Algorithm.FAIRTORRENT, 0, "vector-fast")
        journal = str(tmp_path / "sweep.jsonl")
        cache_dir = str(tmp_path / "cache")
        result = run_resilient_sweep(config, seeds=[1, 2], jobs=1,
                                     journal_path=journal,
                                     cache_dir=cache_dir,
                                     start_method="fork")
        assert result.n_failed == 0
        for outcome in result.outcomes:
            assert outcome.digest_lineage == "fast-v1"
            assert outcome.canonical_dict()["digest_lineage"] == "fast-v1"

        with open(journal, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        replicates = [r for r in records if r["kind"] == "replicate"]
        assert len(replicates) == 2
        assert all(r["digest_lineage"] == "fast-v1" for r in replicates)

        cache = ResultCache(cache_dir)
        fingerprint = _config_fingerprint(config)
        for seed in (1, 2):
            entry = cache.get(fingerprint, seed)
            assert entry is not None
            assert entry["digest_lineage"] == "fast-v1"

        # A parity-lineage sweep of the same config must *miss* this
        # cache entirely: different fingerprint, different identity.
        parity = parity_config(Algorithm.FAIRTORRENT, 0, "vector")
        assert ResultCache(cache_dir).get(
            _config_fingerprint(parity), 1) is None

    def test_parity_backends_journal_parity_lineage(self, tmp_path):
        config = parity_config(Algorithm.FAIRTORRENT, 0, "vector")
        journal = str(tmp_path / "sweep.jsonl")
        result = run_resilient_sweep(config, seeds=[1], jobs=1,
                                     journal_path=journal,
                                     start_method="fork")
        assert result.n_failed == 0
        assert result.outcomes[0].digest_lineage == "parity-v1"
        with open(journal, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        replicate = next(r for r in records if r["kind"] == "replicate")
        assert replicate["digest_lineage"] == "parity-v1"
