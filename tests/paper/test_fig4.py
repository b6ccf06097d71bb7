"""E7-E9 — Figure 4: simulation sweep with all users compliant.

Runs the six-mechanism sweep at the default 200-user scale and checks
the paper's Figure 4 claims (averaged over three seeds so one unlucky
draw cannot flip an ordering):

* 4a (efficiency): altruism fastest; reciprocity stalls; the three
  hybrids finish within a comparable band;
* 4b (fairness): T-Chain, FairTorrent and BitTorrent stabilise near
  u/d = 1;
* 4c (bootstrapping): altruism ~ FairTorrent ~ T-Chain, then
  BitTorrent, then reputation, then reciprocity.
"""

from __future__ import annotations

import math
from typing import Sequence

import pytest

from repro.experiments.figures import FigureResult
from repro.names import Algorithm
from tests.paper.conftest import mean_stat


def check_fig4a_efficiency(figs: Sequence[FigureResult]) -> None:
    times = {a: mean_stat(figs, a, "mean_completion_time")
             for a in figs[0].series}
    finite = {a: t for a, t in times.items() if math.isfinite(t)}
    assert min(finite, key=finite.get) is Algorithm.ALTRUISM
    assert mean_stat(figs, Algorithm.RECIPROCITY,
                     "completion_fraction") < 0.05

    hybrids = [times[Algorithm.TCHAIN], times[Algorithm.BITTORRENT],
               times[Algorithm.FAIRTORRENT]]
    assert max(hybrids) / min(hybrids) < 1.5  # comparable band

    for algorithm in figs[0].series:
        if algorithm is not Algorithm.RECIPROCITY:
            assert mean_stat(figs, algorithm,
                             "completion_fraction") > 0.97, algorithm


def check_fig4b_fairness(figs: Sequence[FigureResult]) -> None:
    for algorithm in (Algorithm.TCHAIN, Algorithm.FAIRTORRENT,
                      Algorithm.BITTORRENT):
        fairness = mean_stat(figs, algorithm, "final_fairness")
        assert fairness == pytest.approx(1.0, abs=0.08), algorithm


def check_fig4c_bootstrapping(figs: Sequence[FigureResult]) -> None:
    boot = {a: mean_stat(figs, a, "mean_bootstrap_time")
            for a in figs[0].series}
    for fast in (Algorithm.ALTRUISM, Algorithm.FAIRTORRENT,
                 Algorithm.TCHAIN):
        assert boot[fast] < boot[Algorithm.BITTORRENT], fast
    assert boot[Algorithm.BITTORRENT] < boot[Algorithm.REPUTATION]
    assert boot[Algorithm.REPUTATION] < boot[Algorithm.RECIPROCITY]


def test_fig4a_efficiency(figure_sweeps):
    check_fig4a_efficiency(figure_sweeps["fig4"])


def test_fig4b_fairness(figure_sweeps):
    check_fig4b_fairness(figure_sweeps["fig4"])


def test_fig4c_bootstrapping(figure_sweeps):
    check_fig4c_bootstrapping(figure_sweeps["fig4"])
