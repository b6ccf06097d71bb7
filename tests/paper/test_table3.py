"""E6 — Table III: resources available for free-riding.

Regenerates the exploitable-resource and collusion-probability columns
for a 1000-user population and asserts the paper's entries: zero
exposure for reciprocity and T-Chain, the alpha shares for BitTorrent
and reputation, the (1 - omega) share for FairTorrent, everything for
altruism, collusion probability 1 for reputation, and T-Chain's
vanishing m(m-1)/N(N-1) collusion term.
"""

from __future__ import annotations

import pytest

from repro.core import freeriding as fr
from repro.experiments.tables import table3_text
from repro.names import Algorithm

CAPACITIES = [6.0] * 100 + [3.0] * 300 + [1.0] * 400 + [0.5] * 200


@pytest.fixture(scope="module")
def params():
    return fr.FreeRidingParameters(
        CAPACITIES, alpha_bt=0.2, alpha_r=0.1, omega=0.75, pi_ir=0.05,
        n_colluders=200)


def test_table3_regeneration(params):
    table = fr.table3(params)

    print()
    print(table3_text(params))

    total = params.total_capacity
    assert table[Algorithm.RECIPROCITY]["exploitable"] == 0.0
    assert table[Algorithm.TCHAIN]["exploitable"] == 0.0
    assert table[Algorithm.BITTORRENT]["exploitable"] == pytest.approx(
        0.2 * total)
    assert table[Algorithm.REPUTATION]["exploitable"] == pytest.approx(
        0.1 * total)
    assert table[Algorithm.FAIRTORRENT]["exploitable"] == pytest.approx(
        0.25 * total)
    assert table[Algorithm.ALTRUISM]["exploitable"] == pytest.approx(total)

    assert table[Algorithm.REPUTATION]["collusion"] == 1.0
    assert table[Algorithm.ALTRUISM]["collusion"] is None
    tchain_collusion = table[Algorithm.TCHAIN]["collusion"]
    assert 0.0 < tchain_collusion < 0.01  # << 1, as the paper notes


def test_susceptibility_ranking(params):
    ranking = fr.susceptibility_ranking(params)
    print()
    print("Table III ranking (safest first):",
          " > ".join(a.value for a in ranking))
    assert ranking[0] is Algorithm.RECIPROCITY
    assert ranking[1] is Algorithm.TCHAIN
    assert ranking[-1] is Algorithm.ALTRUISM
