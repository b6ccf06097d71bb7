"""Tests for the full reproduction report."""

from __future__ import annotations

from repro.experiments.report import full_report
from repro.experiments.scenarios import smoke_scale
from repro.names import ALL_ALGORITHMS


class TestFullReport:
    def test_tables_only(self):
        text = full_report(include_figures=False)
        assert "Table I" in text
        assert "Table II" in text
        assert "Table III" in text
        assert "Figure 2" in text
        assert "Figure 3" in text
        assert "Figure 4" not in text

    def test_all_algorithms_mentioned(self):
        text = full_report(include_figures=False)
        for algorithm in ALL_ALGORITHMS:
            assert algorithm.display_name in text

    def test_with_figures_smoke(self):
        text = full_report(smoke_scale(seed=4), include_figures=True)
        for name in ("Figure 4", "Figure 5", "Figure 6"):
            assert name in text
        # Reciprocity cannot finish at smoke scale, once per figure.
        assert ("engine: vector (parity-v1), 18 runs: 15 complete, 3 cap\n"
                in text)
