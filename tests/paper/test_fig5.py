"""E10-E12 — Figure 5: 20% free-riders with targeted attacks.

Runs the sweep with each mechanism facing its most effective attack
(simple free-riding; plus collusion for T-Chain, whitewashing for
FairTorrent) and checks the paper's Figure 5 claims, averaged over
three seeds:

* 5a (susceptibility): altruism > FairTorrent > BitTorrent >
  reputation > T-Chain ~ reciprocity ~ 0;
* 5b (efficiency): every susceptible mechanism slows down relative to
  Figure 4; T-Chain degrades the least among the hybrids;
* 5c (fairness): T-Chain and BitTorrent stay the most fair;
  FairTorrent's fairness is visibly hurt.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import pytest

from repro.experiments.figures import AlgorithmSeries, FigureResult
from repro.names import Algorithm
from tests.paper.conftest import mean_stat


def check_fig5a_susceptibility(figs: Sequence[FigureResult]) -> None:
    susc = {a: mean_stat(figs, a, "susceptibility") for a in figs[0].series}
    assert susc[Algorithm.RECIPROCITY] == 0.0
    assert susc[Algorithm.TCHAIN] < 0.04
    assert susc[Algorithm.ALTRUISM] > susc[Algorithm.FAIRTORRENT]
    assert susc[Algorithm.FAIRTORRENT] > susc[Algorithm.BITTORRENT]
    assert susc[Algorithm.BITTORRENT] > susc[Algorithm.REPUTATION]
    assert susc[Algorithm.REPUTATION] > susc[Algorithm.TCHAIN]


def check_fig5b_efficiency(clean: Sequence[FigureResult],
                           figs: Sequence[FigureResult]) -> None:
    def slowdown(algorithm: Algorithm) -> float:
        return (mean_stat(figs, algorithm, "mean_completion_time")
                / mean_stat(clean, algorithm, "mean_completion_time"))

    for algorithm in (Algorithm.ALTRUISM, Algorithm.FAIRTORRENT,
                      Algorithm.BITTORRENT):
        assert slowdown(algorithm) > 1.0, algorithm

    # T-Chain, nearly immune to free-riding, degrades least.
    assert slowdown(Algorithm.TCHAIN) < slowdown(Algorithm.FAIRTORRENT)
    assert slowdown(Algorithm.TCHAIN) < slowdown(Algorithm.BITTORRENT) + 0.02


def check_fig5c_fairness(figs: Sequence[FigureResult]) -> None:
    def deviation(algorithm: Algorithm) -> float:
        return abs(mean_stat(figs, algorithm, "final_fairness") - 1.0)

    assert deviation(Algorithm.TCHAIN) < deviation(Algorithm.FAIRTORRENT)
    assert deviation(Algorithm.TCHAIN) < deviation(Algorithm.ALTRUISM)
    assert deviation(Algorithm.BITTORRENT) < deviation(Algorithm.ALTRUISM)


def test_fig5a_susceptibility(figure_sweeps):
    check_fig5a_susceptibility(figure_sweeps["fig5"])


def test_fig5b_efficiency_degrades(figure_sweeps):
    check_fig5b_efficiency(figure_sweeps["fig4"], figure_sweeps["fig5"])


def test_fig5c_fairness(figure_sweeps):
    check_fig5c_fairness(figure_sweeps["fig5"])


#: Per-seed Figure 5a susceptibilities in the paper's order.
PAPER_ORDER = {
    Algorithm.ALTRUISM: (0.52, 0.48, 0.50),
    Algorithm.FAIRTORRENT: (0.31, 0.27, 0.29),
    Algorithm.BITTORRENT: (0.14, 0.16, 0.15),
    Algorithm.REPUTATION: (0.07, 0.09, 0.08),
    Algorithm.TCHAIN: (0.01, 0.02, 0.01),
    Algorithm.RECIPROCITY: (0.0, 0.0, 0.0),
}


def _figures(susceptibility: Dict[Algorithm, Tuple[float, ...]],
             ) -> List[FigureResult]:
    """One synthetic Figure 5 per seed; only susceptibility varies."""
    return [
        FigureResult("figure5", {
            algorithm: AlgorithmSeries(
                algorithm=algorithm, completion_cdf=[], fairness_series=[],
                bootstrap_series=[], mean_completion_time=1.0,
                median_completion_time=1.0, completion_fraction=1.0,
                final_fairness=1.0, mean_bootstrap_time=1.0,
                susceptibility=values[seed])
            for algorithm, values in susceptibility.items()})
        for seed in range(3)]


def test_fig5a_check_rejects_a_swapped_order():
    """Swapping BitTorrent and FairTorrent must fail the Figure 5a check
    that the unswapped series pass; no simulation runs."""
    check_fig5a_susceptibility(_figures(PAPER_ORDER))
    swapped = dict(PAPER_ORDER)
    swapped[Algorithm.BITTORRENT] = PAPER_ORDER[Algorithm.FAIRTORRENT]
    swapped[Algorithm.FAIRTORRENT] = PAPER_ORDER[Algorithm.BITTORRENT]
    with pytest.raises(AssertionError):
        check_fig5a_susceptibility(_figures(swapped))
