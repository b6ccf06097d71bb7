"""E1/E2 — Table I and Figure 2: idealized equilibrium (Corollary 1).

Regenerates the equilibrium download rates of all six mechanisms for a
1000-user heterogeneous population and checks Corollary 1's claims:
only T-Chain and FairTorrent reach optimal fairness, altruism is the
most efficient, BitTorrent/reputation beat the perfectly fair hybrids,
and reciprocity transfers nothing.
"""

from __future__ import annotations

import math

import pytest

from repro.core import metrics
from repro.core.equilibrium import EquilibriumParameters, table1
from repro.core.tradeoff import (
    figure2_efficiency_ranking,
    figure2_fairness_ranking,
)
from repro.experiments.tables import table1_text
from repro.names import Algorithm

#: Paper-scale population: 1000 users in the default four capacity
#: classes (10% at 6, 30% at 3, 40% at 1, 20% at 0.5 pieces/round).
CAPACITIES = [6.0] * 100 + [3.0] * 300 + [1.0] * 400 + [0.5] * 200


@pytest.fixture(scope="module")
def params():
    # seeder_rate = 0: Corollary 1 compares peer-to-peer utilisation;
    # a seeder share u_S/N would shift every d_i equally off u_i.
    return EquilibriumParameters(CAPACITIES)


def test_table1_regeneration(params):
    results = table1(params)

    print()
    print(table1_text(params))

    # Corollary 1, checked on the regenerated rows.
    assert results[Algorithm.TCHAIN].fairness == pytest.approx(0.0, abs=1e-9)
    assert results[Algorithm.FAIRTORRENT].fairness == pytest.approx(
        0.0, abs=1e-9)
    assert results[Algorithm.ALTRUISM].fairness > 0.1
    assert results[Algorithm.RECIPROCITY].upload_rates.sum() == 0.0

    efficiencies = {a: r.efficiency for a, r in results.items()}
    assert min(efficiencies, key=efficiencies.get) is Algorithm.ALTRUISM
    assert efficiencies[Algorithm.RECIPROCITY] == math.inf
    for fast in (Algorithm.BITTORRENT, Algorithm.REPUTATION):
        for slow in (Algorithm.TCHAIN, Algorithm.FAIRTORRENT):
            assert efficiencies[fast] < efficiencies[slow]

    # Lemma 1: nobody beats the equal-rate optimum.
    optimum = metrics.optimal_efficiency(CAPACITIES)
    for result in results.values():
        assert result.efficiency >= optimum - 1e-9


def test_figure2_rankings(params):
    efficiency = figure2_efficiency_ranking(params)
    fairness = figure2_fairness_ranking(params)
    print()
    print("Figure 2 efficiency:", " > ".join(a.value for a in efficiency))
    print("Figure 2 fairness:  ", " > ".join(a.value for a in fairness))

    assert efficiency[0] is Algorithm.ALTRUISM
    assert efficiency[-1] is Algorithm.RECIPROCITY
    assert set(fairness[:2]) == {Algorithm.TCHAIN, Algorithm.FAIRTORRENT}
    assert fairness[-2] is Algorithm.ALTRUISM  # least fair defined
    assert fairness[-1] is Algorithm.RECIPROCITY  # undefined -> last
