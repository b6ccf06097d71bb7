"""Shared fixtures for the paper-claim tests.

Each module in this package checks one of the paper's tables or
figures against its qualitative shape (run pytest with ``-s`` to see
the regenerated rows). ``python -m repro report`` prints the same
tables and figures in full.

Figure assertions average over :data:`FIGURE_SEEDS` (one simulation
sweep per seed, cached for the whole session) so a single unlucky seed
cannot flip an ordering.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import pytest

from repro.experiments.figures import FigureResult
from repro.names import Algorithm

#: Seeds used for the averaged figure assertions.
FIGURE_SEEDS = (101, 202, 303)


def mean_stat(figs: Sequence[FigureResult], algorithm: Algorithm,
              attr: str) -> float:
    """Average one scalar series attribute across seeds."""
    values = [getattr(fig.series[algorithm], attr) for fig in figs]
    if any(v is None for v in values):
        raise AssertionError(f"{algorithm}: {attr} missing in some run")
    if any(math.isinf(v) for v in values):
        return math.inf
    return sum(values) / len(values)


def _sweep_cache() -> Dict[str, List[FigureResult]]:
    from concurrent.futures import ProcessPoolExecutor

    from repro.experiments.figures import figure4, figure5, figure6
    from repro.experiments.scenarios import default_scale

    runners = (("fig4", figure4), ("fig5", figure5), ("fig6", figure6))
    # The 9 (figure, seed) sweeps are independent: fan them out.
    with ProcessPoolExecutor(max_workers=4) as pool:
        futures = {
            (name, seed): pool.submit(runner, default_scale(seed=seed))
            for name, runner in runners for seed in FIGURE_SEEDS
        }
        cache: Dict[str, List[FigureResult]] = {name: [] for name, _ in runners}
        for name, _ in runners:
            for seed in FIGURE_SEEDS:
                cache[name].append(futures[(name, seed)].result())
    return cache


@pytest.fixture(scope="session")
def figure_sweeps() -> Dict[str, List[FigureResult]]:
    """All three figure sweeps at every assertion seed (built once)."""
    return _sweep_cache()
