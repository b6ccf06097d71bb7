"""Streaming observability: event tracing, samplers, profiling.

``repro.obs`` is the simulator's flight recorder. Three instruments,
all off by default and all observation-only (a run with them enabled
is byte-identical, digest-wise, to the same seed without):

* :class:`~repro.obs.tracer.EventTracer` — a bounded ring buffer of
  structured :class:`~repro.obs.tracer.TraceEvent` records (piece
  transfers, choke decisions, reputation movements, bootstraps,
  completions, injected faults) with deterministic per-category
  1-in-N sampling;
* :class:`~repro.obs.samplers.SeriesStore` — per-round gauges
  (progress percentiles, availability entropy, queue depth, ...) in a
  compact columnar store with CSV/JSONL export and an ASCII sparkline
  dashboard;
* :class:`~repro.obs.spans.SpanTracer` — aggregate wall-clock spans
  wrapped around one engine instance from outside, on every engine.

Exporters (:mod:`repro.obs.exporters`) render traces as Chrome
``trace_event`` JSON (loads in Perfetto) or JSONL. The full catalogue
and schema live in docs/OBSERVABILITY.md; the wiring into the
simulation is :class:`~repro.obs.runtime.ObsRuntime`.
"""

from repro.obs.config import ObsConfig, TRACE_CATEGORIES
from repro.obs.exporters import (sweep_series_to_chrome_trace,
                                 to_chrome_trace, to_jsonl)
from repro.obs.runtime import ObsRuntime
from repro.obs.samplers import SeriesStore, entropy, percentile
from repro.obs.spans import SpanTracer
from repro.obs.tracer import EventTracer, TraceEvent

__all__ = [
    "ObsConfig",
    "TRACE_CATEGORIES",
    "EventTracer",
    "TraceEvent",
    "SeriesStore",
    "SpanTracer",
    "ObsRuntime",
    "percentile",
    "entropy",
    "sweep_series_to_chrome_trace",
    "to_chrome_trace",
    "to_jsonl",
]
