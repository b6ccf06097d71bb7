"""E13-E15 — Figure 6: free-riders add the large-view exploit.

Runs Figure 5's sweep with free-riders additionally connecting to
every peer and checks the paper's Figure 6 claims, averaged over three
seeds:

* 6a (susceptibility): BitTorrent's and the reputation system's leak
  roughly doubles; T-Chain stays below a few percent; mechanisms
  already at their intake ceiling (altruism — free-riders simply
  finish sooner) cannot double, which EXPERIMENTS.md records;
* 6b/6c: T-Chain is now visibly more efficient *and* more fair than
  BitTorrent.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.figures import FigureResult
from repro.names import Algorithm
from tests.paper.conftest import mean_stat


def check_fig6a_amplification(base: Sequence[FigureResult],
                              figs: Sequence[FigureResult]) -> None:
    # BitTorrent's optimistic-unchoke leak scales directly with the
    # attackers' share of neighbor views: a clear multiple.
    before = mean_stat(base, Algorithm.BITTORRENT, "susceptibility")
    after = mean_stat(figs, Algorithm.BITTORRENT, "susceptibility")
    assert after > 1.4 * before, (Algorithm.BITTORRENT, before, after)
    # The reputation system's leak is dominated by its long completion
    # tail (free-riders are most of the remaining needy users there,
    # view size regardless), so the amplification is noisier: assert a
    # clear increase rather than a strict doubling.
    before = mean_stat(base, Algorithm.REPUTATION, "susceptibility")
    after = mean_stat(figs, Algorithm.REPUTATION, "susceptibility")
    assert after > 1.2 * before, (Algorithm.REPUTATION, before, after)


def check_fig6a_tchain(base: Sequence[FigureResult],
                       figs: Sequence[FigureResult]) -> None:
    assert mean_stat(figs, Algorithm.TCHAIN, "susceptibility") < 0.04
    assert mean_stat(figs, Algorithm.RECIPROCITY, "susceptibility") == 0.0
    # Large view never *reduces* what attackers get.
    for algorithm in figs[0].series:
        assert mean_stat(figs, algorithm, "susceptibility") >= (
            mean_stat(base, algorithm, "susceptibility") - 0.02), algorithm


def check_fig6bc_tchain_beats_bittorrent(figs: Sequence[FigureResult],
                                         ) -> None:
    assert mean_stat(figs, Algorithm.TCHAIN, "mean_completion_time") < (
        mean_stat(figs, Algorithm.BITTORRENT, "mean_completion_time"))
    assert abs(mean_stat(figs, Algorithm.TCHAIN, "final_fairness") - 1.0) < (
        abs(mean_stat(figs, Algorithm.BITTORRENT, "final_fairness") - 1.0))


def test_fig6a_susceptibility_amplified(figure_sweeps):
    check_fig6a_amplification(figure_sweeps["fig5"], figure_sweeps["fig6"])


def test_fig6a_tchain_still_tiny(figure_sweeps):
    check_fig6a_tchain(figure_sweeps["fig5"], figure_sweeps["fig6"])


def test_fig6bc_tchain_beats_bittorrent(figure_sweeps):
    check_fig6bc_tchain_beats_bittorrent(figure_sweeps["fig6"])
