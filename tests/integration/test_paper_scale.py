"""Paper-scale runs (1000 users, 512 pieces) — opt-in, minutes each.

Select with ``pytest -m slow``. These confirm the Section V-A
configuration is faithfully runnable end to end and that the headline
claims hold at the paper's own scale, not just the scaled-down
defaults; EXPERIMENTS.md records reference numbers from one such run.
They run on the object engine, the reference the presets' ``vector``
engine is checked against.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import paper_scale
from repro.names import Algorithm
from repro.sim import run_simulation

pytestmark = pytest.mark.slow


class TestPaperScale:
    def test_altruism_completes_fleet(self):
        result = run_simulation(
            paper_scale(Algorithm.ALTRUISM, seed=1).with_backend("object"))
        metrics = result.metrics
        assert result.conservation_holds()
        assert metrics.completion_fraction() > 0.99
        # Within the paper's ~600 s plotting window.
        assert metrics.mean_completion_time() < 600.0
        assert metrics.final_fairness() == pytest.approx(1.0, abs=0.1)

    def test_tchain_fair_and_complete(self):
        result = run_simulation(
            paper_scale(Algorithm.TCHAIN, seed=1).with_backend("object"))
        metrics = result.metrics
        assert metrics.completion_fraction() > 0.99
        assert metrics.final_fairness() == pytest.approx(1.0, abs=0.05)
        assert metrics.mean_bootstrap_time() < 5.0

    def test_reciprocity_never_completes_anyone(self):
        """At the paper's scale the seeder cannot finish a single user
        within the cap — Figure 4a's flat zero line, exactly."""
        config = paper_scale(Algorithm.RECIPROCITY, seed=1).with_backend(
            "object")
        metrics = run_simulation(config).metrics
        assert metrics.completion_fraction() == 0.0
        assert metrics.peer_uploaded == 0
