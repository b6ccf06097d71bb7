"""Extension checks: PropShare and Poisson arrivals.

Beyond the paper's six mechanisms and flash-crowd workload:

* **PropShare** [5] (cited in Corollary 2's proof) — BitTorrent with
  contribution-proportional reciprocity. Expected: efficiency and
  exposure comparable to BitTorrent, fairness at least as good.
* **Poisson arrivals** — the orderings of Figure 4 are not an artifact
  of the flash crowd: with a steady arrival stream, altruism is still
  the fastest and the fair hybrids still converge to u/d ~ 1.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.scenarios import run_all_algorithms, smoke_scale
from repro.names import Algorithm
from repro.sim import run_simulation, targeted_attack_for
from repro.utils import format_table

SEED = 41


def test_propshare_vs_bittorrent():
    """PropShare matches BitTorrent's profile with equal-or-better
    fairness (proportional repayment) at the same optimistic exposure."""
    metrics = {}
    for algorithm in (Algorithm.BITTORRENT, Algorithm.PROPSHARE):
        config = smoke_scale(algorithm, seed=SEED).with_attack(
            targeted_attack_for(algorithm), freerider_fraction=0.2)
        metrics[algorithm] = run_simulation(config).metrics
    print()
    print(format_table(
        ["Algorithm", "mean T", "fairness", "boot T", "susceptibility"],
        [[a.display_name, m.mean_completion_time(), m.final_fairness(),
          m.mean_bootstrap_time(), m.susceptibility()]
         for a, m in metrics.items()],
        title="PropShare vs BitTorrent (20% free-riders)",
        float_format=".3g"))

    bt = metrics[Algorithm.BITTORRENT]
    ps = metrics[Algorithm.PROPSHARE]
    assert ps.completion_fraction() > 0.95
    # Comparable efficiency (within 40% either way at smoke scale).
    assert 0.6 < ps.mean_completion_time() / bt.mean_completion_time() < 1.4
    # Exposure capped by the same optimistic share.
    assert ps.susceptibility() < bt.susceptibility() + 0.05
    # Fairness no worse than BitTorrent's.
    assert abs(ps.final_fairness() - 1.0) < abs(
        bt.final_fairness() - 1.0) + 0.05


def test_poisson_arrivals_preserve_orderings():
    """Figure 4's headline orderings survive a non-flash workload."""
    base = replace(smoke_scale(seed=SEED), arrival_process="poisson",
                   arrival_rate=5.0)
    results = run_all_algorithms(base, algorithms=[
        Algorithm.ALTRUISM, Algorithm.TCHAIN, Algorithm.BITTORRENT,
        Algorithm.RECIPROCITY])
    print()
    print(format_table(
        ["Algorithm", "mean T", "done", "fairness"],
        [[a.display_name, r.metrics.mean_completion_time(),
          r.metrics.completion_fraction(), r.metrics.final_fairness()]
         for a, r in results.items()],
        title="Poisson arrivals (rate 5/s)", float_format=".3g"))

    assert (results[Algorithm.ALTRUISM].metrics.mean_completion_time()
            < results[Algorithm.TCHAIN].metrics.mean_completion_time())
    assert results[Algorithm.RECIPROCITY].metrics.completion_fraction() < 0.2
    for algorithm in (Algorithm.ALTRUISM, Algorithm.TCHAIN,
                      Algorithm.BITTORRENT):
        assert results[algorithm].metrics.completion_fraction() > 0.95
        assert results[algorithm].metrics.final_fairness() == pytest.approx(
            1.0, abs=0.15)
