"""Export simulation results to JSON/CSV for external analysis.

The experiment harness renders text tables; this module provides the
machine-readable companions: one row per peer, one row per time-series
sample, or a compact scalar summary — all plain built-in types so
``json.dump`` works directly and CSV writers need no adapters.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Dict, List

from repro.sim.metrics import SimulationMetrics
from repro.sim.runner import SimulationResult

__all__ = [
    "summary_dict",
    "peers_table",
    "samples_table",
    "result_to_json",
    "rows_to_csv",
]


def _finite(value: float) -> Any:
    """JSON-safe scalar: inf/nan become None."""
    if value is None or (isinstance(value, float)
                         and not math.isfinite(value)):
        return None
    return value


def summary_dict(result: SimulationResult) -> Dict[str, Any]:
    """Scalar summary of one run (config + headline metrics)."""
    config = result.config
    metrics = result.metrics
    return {
        "algorithm": config.algorithm.value,
        "n_users": config.n_users,
        "n_pieces": config.n_pieces,
        "seed": config.seed,
        "freerider_fraction": config.freerider_fraction,
        "arrival_process": config.arrival_process,
        "rounds_run": metrics.rounds_run,
        "termination": metrics.termination,
        "n_stuck": metrics.n_stuck,
        "mean_completion_time": _finite(metrics.mean_completion_time()),
        "median_completion_time": _finite(metrics.median_completion_time()),
        "completion_fraction": metrics.completion_fraction(),
        "final_fairness": _finite(metrics.final_fairness()),
        "mean_bootstrap_time": _finite(metrics.mean_bootstrap_time()),
        "susceptibility": metrics.susceptibility(),
        "total_uploaded": metrics.total_uploaded,
        "peer_uploaded": metrics.peer_uploaded,
        "digest_lineage": metrics.digest_lineage,
    }


def peers_table(metrics: SimulationMetrics) -> List[Dict[str, Any]]:
    """One row per peer: the per-user data behind Figures 4-6."""
    return [{
        "peer_id": p.peer_id,
        "lineage_id": p.lineage_id,
        "capacity": p.capacity,
        "is_freerider": p.is_freerider,
        "arrival_time": p.arrival_time,
        "bootstrap_time": _finite(p.bootstrap_time),
        "completion_time": _finite(p.completion_time),
        "download_duration": _finite(p.download_duration),
        "uploaded": p.uploaded,
        "downloaded": p.downloaded,
    } for p in metrics.peers]


def samples_table(metrics: SimulationMetrics) -> List[Dict[str, Any]]:
    """One row per sampled round: the time series behind Figures 4-6."""
    return [{
        "time": s.time,
        "active_peers": s.active_peers,
        "arrived": s.arrived,
        "bootstrapped": s.bootstrapped,
        "bootstrapped_fraction": s.bootstrapped_fraction,
        "completed": s.completed,
        "fairness_ud": _finite(s.fairness_ud),
        "fairness_du": _finite(s.fairness_du),
        "total_uploaded": s.total_uploaded,
        "susceptibility": s.susceptibility,
    } for s in metrics.samples]


def result_to_json(result: SimulationResult, include_series: bool = True,
                   indent: int = 2) -> str:
    """Serialise one run: summary, optional tables, ``metrics.obs``."""
    payload: Dict[str, Any] = {"summary": summary_dict(result)}
    if include_series:
        payload["peers"] = peers_table(result.metrics)
        payload["samples"] = samples_table(result.metrics)
    if result.metrics.obs is not None:
        payload["obs"] = result.metrics.obs
    return json.dumps(payload, indent=indent)


def rows_to_csv(rows: List[Dict[str, Any]]) -> str:
    """Render a list of uniform dicts as CSV text."""
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()
