"""E3 — Figure 3 / Proposition 2 / Corollary 2: piece availability.

Regenerates the exchange-feasibility probabilities under a
mixed-progress swarm (uniform piece counts, the post-flash-crowd
regime) at the paper's file scale (512 pieces) and checks:

* the Figure 3 efficiency ordering
  altruism > T-Chain > FairTorrent > BitTorrent > reciprocity;
* Corollary 2's limits: pi_A bounds pi_TC, and pi_TC approaches pi_A
  as the swarm grows;
* Eq. 8's threshold behaviour for pi_TC vs pi_BT.
"""

from __future__ import annotations

import pytest

from repro.core import piece_availability as pa
from repro.core.tradeoff import (
    figure3_efficiency_ranking,
    mean_exchange_probability,
)
from repro.names import Algorithm
from repro.utils import format_table

M = 512
N_USERS = 1000


@pytest.fixture(scope="module")
def distribution():
    # Uniform over 64 evenly spaced piece counts: mixed progress while
    # keeping the probability sweep tractable at M = 512.
    import numpy as np
    p = np.zeros(M + 1)
    support = np.linspace(0, M, 64, dtype=int)
    p[support] = 1.0 / len(support)
    return pa.PieceCountDistribution(M, p)


def test_figure3_ranking(distribution):
    ranking = figure3_efficiency_ranking(distribution, N_USERS)

    probabilities = {
        a: mean_exchange_probability(a, distribution, N_USERS)
        for a in ranking if a is not Algorithm.FAIRTORRENT
    }
    print()
    print(format_table(
        ["Algorithm", "mean pi(j, i)"],
        [[a.display_name, probabilities.get(a)] for a in ranking],
        title="Figure 3 - exchange feasibility (uniform piece counts)",
        float_format=".4f"))

    assert ranking == [Algorithm.ALTRUISM, Algorithm.TCHAIN,
                       Algorithm.FAIRTORRENT, Algorithm.BITTORRENT,
                       Algorithm.RECIPROCITY]


def test_corollary2_limits(distribution):
    alt = mean_exchange_probability(Algorithm.ALTRUISM, distribution, 20)
    tc_small = mean_exchange_probability(Algorithm.TCHAIN, distribution, 20)
    tc_large = mean_exchange_probability(Algorithm.TCHAIN, distribution,
                                         N_USERS)
    print(f"\npi_A = {alt:.4f}; pi_TC(N=20) = {tc_small:.4f}; "
          f"pi_TC(N={N_USERS}) = {tc_large:.4f}")
    assert alt >= tc_small - 1e-12
    assert tc_small <= tc_large <= alt + 1e-12
    assert tc_large == pytest.approx(alt, rel=0.02)  # Cor. 2 limit


def test_eq8_threshold():
    """pi_TC >= pi_BT exactly below the Eq. 8 alpha bound."""
    dist = pa.PieceCountDistribution.uniform(64)
    m_i, m_j, n = 6, 40, 200
    bound = pa.tchain_dominates_bittorrent_alpha_bound(m_j, dist, n)
    tc = pa.pi_tchain(m_i, m_j, 64, dist, n)
    assert tc >= pa.pi_bittorrent(m_i, m_j, 64, min(bound, 1.0) * 0.99) - 1e-12
