"""Regenerate the paper's experimental figures (Figures 4-6).

Each ``figureN`` function runs the corresponding simulation sweep and
returns a :class:`FigureResult` holding, per algorithm, the series the
paper plots plus scalar summaries; ``to_text`` renders the summary
table printed by ``python -m repro figure4/5/6``.

* Figure 4 — all users compliant: (a) completion-time distribution,
  (b) fairness over time, (c) bootstrapped users over time.
* Figure 5 — 20% free-riders with targeted attacks: (a) susceptibility,
  (b) efficiency, (c) fairness.
* Figure 6 — Figure 5's attacks plus the large-view exploit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.experiments.scenarios import (
    PAPER_FREERIDER_FRACTION,
    default_scale,
    run_all_algorithms,
)
from repro.names import ALL_ALGORITHMS, Algorithm
from repro.sim.config import SimulationConfig
from repro.sim.metrics import TERMINATIONS
from repro.sim.runner import SimulationResult
from repro.utils import ascii_chart, format_table

__all__ = ["AlgorithmSeries", "FigureResult", "engine_line", "figure4",
           "figure5", "figure6"]


@dataclass(frozen=True)
class AlgorithmSeries:
    """One algorithm's measurements for one figure."""

    algorithm: Algorithm
    completion_cdf: List[Dict[str, float]]
    fairness_series: List[Dict[str, float]]
    bootstrap_series: List[Dict[str, float]]
    mean_completion_time: float
    median_completion_time: float
    completion_fraction: float
    final_fairness: Optional[float]
    mean_bootstrap_time: float
    susceptibility: float


@dataclass(frozen=True)
class FigureResult:
    """All series for one figure, keyed by algorithm."""

    name: str
    series: Dict[Algorithm, AlgorithmSeries]
    results: Dict[Algorithm, SimulationResult] = field(repr=False,
                                                       default_factory=dict)

    def to_text(self) -> str:
        headers = ["Algorithm", "mean T", "median T", "done", "fairness",
                   "mean boot T", "susceptibility"]
        rows = []
        for algorithm in ALL_ALGORITHMS:
            if algorithm not in self.series:
                continue
            s = self.series[algorithm]
            rows.append([
                algorithm.display_name,
                s.mean_completion_time,
                s.median_completion_time,
                s.completion_fraction,
                s.final_fairness,
                s.mean_bootstrap_time,
                s.susceptibility,
            ])
        return format_table(headers, rows, title=self.name,
                            float_format=".3g")

    def to_charts(self, width: int = 64, height: int = 14) -> str:
        """The figure's three panels as monospace charts.

        Panel (a): completion-time CDF; (b) fairness (mean u/d) over
        time; (c) bootstrapped fraction over time. Mechanisms with no
        data for a panel (e.g. reciprocity's empty CDF) are omitted
        from that panel.
        """
        panels = []
        cdf = {a.display_name: [(p["time"], p["fraction"])
                                for p in s.completion_cdf]
               for a, s in self.series.items() if s.completion_cdf}
        if cdf:
            panels.append(ascii_chart(
                cdf, width=width, height=height,
                title=f"{self.name} (a): completion-time CDF"))
        fairness = {a.display_name: [(p["time"], p["fairness"])
                                     for p in s.fairness_series]
                    for a, s in self.series.items() if s.fairness_series}
        if fairness:
            panels.append(ascii_chart(
                fairness, width=width, height=height, y_max=2.0,
                title=f"{self.name} (b): fairness mean(u/d) over time"))
        bootstrap = {a.display_name: [(p["time"], p["fraction"])
                                      for p in s.bootstrap_series]
                     for a, s in self.series.items() if s.bootstrap_series}
        if bootstrap:
            panels.append(ascii_chart(
                bootstrap, width=width, height=height,
                title=f"{self.name} (c): bootstrapped fraction over time"))
        return "\n\n".join(panels)


def engine_line(results: Iterable[SimulationResult]) -> str:
    """Name the engine that produced ``results`` in one line.

    E.g. ``engine: vector (parity-v1), 18 runs: 17 complete, 1 stalled``:
    the configured backend and digest lineage of the runs (comma-joined
    if they differ), how many runs there were, and how they ended.
    """
    results = list(results)
    engines = sorted({f"{r.config.backend} ({r.metrics.digest_lineage})"
                      for r in results})
    ended = Counter(r.metrics.termination for r in results)
    counts = ", ".join(f"{ended[t]} {t}" for t in TERMINATIONS if ended[t])
    return f"engine: {', '.join(engines)}, {len(results)} runs: {counts}"


def _series_for(result: SimulationResult) -> AlgorithmSeries:
    m = result.metrics
    return AlgorithmSeries(
        algorithm=result.algorithm,
        completion_cdf=m.completion_cdf(),
        fairness_series=m.fairness_series("ud"),
        bootstrap_series=m.bootstrap_series(),
        mean_completion_time=m.mean_completion_time(),
        median_completion_time=m.median_completion_time(),
        completion_fraction=m.completion_fraction(),
        final_fairness=m.final_fairness(),
        mean_bootstrap_time=m.mean_bootstrap_time(),
        susceptibility=m.susceptibility(),
    )


def _figure(name: str, base: SimulationConfig,
            algorithms: Optional[Iterable[Algorithm]],
            freerider_fraction: float, large_view: bool,
            processes: int = 1) -> FigureResult:
    results = run_all_algorithms(base, algorithms,
                                 freerider_fraction=freerider_fraction,
                                 large_view=large_view,
                                 processes=processes)
    series = {a: _series_for(r) for a, r in results.items()}
    return FigureResult(name=name, series=series, results=results)


def figure4(base: Optional[SimulationConfig] = None,
            algorithms: Optional[Iterable[Algorithm]] = None,
            processes: int = 1) -> FigureResult:
    """Figure 4: performance with all users compliant."""
    return _figure("Figure 4 - no free-riding", base or default_scale(),
                   algorithms, freerider_fraction=0.0, large_view=False,
                   processes=processes)


def figure5(base: Optional[SimulationConfig] = None,
            algorithms: Optional[Iterable[Algorithm]] = None,
            freerider_fraction: float = PAPER_FREERIDER_FRACTION,
            processes: int = 1) -> FigureResult:
    """Figure 5: 20% free-riders using each algorithm's worst attack."""
    return _figure("Figure 5 - 20% free-riders, targeted attacks",
                   base or default_scale(), algorithms,
                   freerider_fraction=freerider_fraction, large_view=False,
                   processes=processes)


def figure6(base: Optional[SimulationConfig] = None,
            algorithms: Optional[Iterable[Algorithm]] = None,
            freerider_fraction: float = PAPER_FREERIDER_FRACTION,
            processes: int = 1) -> FigureResult:
    """Figure 6: Figure 5 plus the large-view exploit."""
    return _figure("Figure 6 - free-riders with large-view exploit",
                   base or default_scale(), algorithms,
                   freerider_fraction=freerider_fraction, large_view=True,
                   processes=processes)
