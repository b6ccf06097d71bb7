"""E4/E5 — Table II and Proposition 4: flash-crowd bootstrapping.

Regenerates Table II's bootstrap-probability column at the paper's
exact example parameters (asserting the printed percentages), the
Proposition 4 speed ordering, and Lemma 3's expected bootstrap times
for a 500-user flash crowd.
"""

from __future__ import annotations

import pytest

from repro.core import bootstrapping as boot
from repro.experiments.tables import table2_text
from repro.names import Algorithm
from repro.utils import format_table


@pytest.fixture(scope="module")
def params():
    return boot.BootstrapParameters(
        n_users=1000, n_seeder=1, pieces_per_slot=5, bootstrapped=500,
        pi_dr=0.5, n_bt=4, omega=0.75, n_ft=500)


def test_table2_regeneration(params):
    probabilities = boot.table2(params)

    print()
    print(table2_text(params))

    expected = {
        Algorithm.RECIPROCITY: 0.1,
        Algorithm.TCHAIN: 71.4,
        Algorithm.BITTORRENT: 39.6,
        Algorithm.FAIRTORRENT: 71.4,
        Algorithm.REPUTATION: 22.2,
        Algorithm.ALTRUISM: 91.8,
    }
    for algorithm, percent in expected.items():
        assert 100.0 * probabilities[algorithm] == pytest.approx(
            percent, abs=0.15), algorithm


def test_proposition4_ordering(params):
    order = boot.proposition4_ordering(params)
    print()
    print("Prop. 4 ordering:", " > ".join(a.value for a in order))
    assert order[0] is Algorithm.ALTRUISM
    assert order[-1] is Algorithm.RECIPROCITY
    assert order.index(Algorithm.TCHAIN) < order.index(Algorithm.BITTORRENT)
    assert order.index(Algorithm.FAIRTORRENT) < order.index(
        Algorithm.BITTORRENT)
    assert order.index(Algorithm.BITTORRENT) < order.index(
        Algorithm.REPUTATION)


def test_lemma3_expected_times(params):
    """E[T_B(P)] for a 500-newcomer crowd, per algorithm."""
    times = {}
    for algorithm, p in boot.table2(params).items():
        times[algorithm] = boot.expected_bootstrap_time(
            p, newcomers=500, max_slots=200_000)
    print()
    print(format_table(
        ["Algorithm", "E[T_B(500)] (slots)"],
        [[a.display_name, t] for a, t in times.items()],
        title="Lemma 3 expected flash-crowd bootstrap times",
        float_format=".1f"))

    # Faster bootstrap probability => smaller expected time.
    assert times[Algorithm.ALTRUISM] < times[Algorithm.BITTORRENT]
    assert times[Algorithm.BITTORRENT] < times[Algorithm.REPUTATION]
    assert times[Algorithm.REPUTATION] < times[Algorithm.RECIPROCITY]
    # Reciprocity: seeder-only at 0.1%/slot; the slowest by far.
    assert times[Algorithm.RECIPROCITY] > 1000.0
