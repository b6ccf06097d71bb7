"""Full reproduction report: every table and figure in one pass.

:func:`full_report` regenerates Tables I-III, the Figure 2/3 rankings,
and Figures 4-6 and renders them as one text document — the artifact a
reader compares against the paper. Used by ``examples/`` and by
``EXPERIMENTS.md``'s regeneration instructions.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments import figures, tables
from repro.sim.config import SimulationConfig

__all__ = ["full_report"]


def _bootstrap_trajectory_chart() -> str:
    """Mean-field Figure 4c: the Table II dynamics drawn as curves."""
    from repro.core import bootstrapping as boot
    from repro.names import ALL_ALGORITHMS
    from repro.utils import ascii_chart

    params = boot.BootstrapParameters(n_users=1000, pi_dr=0.2, omega=0.3)
    series = {}
    for algorithm in ALL_ALGORITHMS:
        rows = boot.bootstrap_trajectory(algorithm, params, n_slots=40)
        series[algorithm.display_name] = [(r["slot"], r["fraction"])
                                          for r in rows]
    return ascii_chart(
        series, width=60, height=12,
        title="Mean-field bootstrap curves (Table II dynamics, N = 1000)")


def full_report(base: Optional[SimulationConfig] = None,
                include_figures: bool = True) -> str:
    """Render the complete paper-reproduction report as text."""
    sections: List[str] = [
        "Reproduction report: 'A Performance Analysis of Incentive "
        "Mechanisms for Cooperative Computing' (ICDCS 2016)",
        "",
        tables.table1_text(),
        "",
        tables.table2_text(),
        "",
        tables.table3_text(),
        "",
    ]

    rankings2 = tables.figure2_rankings()
    sections.append("Figure 2 - idealized rankings (best first):")
    sections.append("  efficiency: " + " > ".join(
        a.display_name for a in rankings2["efficiency"]))
    sections.append("  fairness:   " + " > ".join(
        a.display_name for a in rankings2["fairness"]))
    sections.append("")

    rankings3 = tables.figure3_rankings()
    sections.append("Figure 3 - piece-availability efficiency ranking:")
    sections.append("  " + " > ".join(
        a.display_name for a in rankings3["ranking"]))
    sections.append("")

    sections.append(_bootstrap_trajectory_chart())
    sections.append("")

    if include_figures:
        figs = (figures.figure4(base), figures.figure5(base),
                figures.figure6(base))
        sections.append(figures.engine_line(
            r for fig in figs for r in fig.results.values()))
        sections.append("")
        for fig in figs:
            sections.append(fig.to_text())
            sections.append("")

    return "\n".join(sections)
