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

from repro._lazy import lazy_namespace

#: Every package-level name and where it lives; each is imported on
#: first access (see :mod:`repro._lazy`).
_EXPORTS = {
    "ObsConfig": "repro.obs.config:ObsConfig",
    "TRACE_CATEGORIES": "repro.obs.config:TRACE_CATEGORIES",
    "EventTracer": "repro.obs.tracer:EventTracer",
    "TraceEvent": "repro.obs.tracer:TraceEvent",
    "SeriesStore": "repro.obs.samplers:SeriesStore",
    "SpanTracer": "repro.obs.spans:SpanTracer",
    "ObsRuntime": "repro.obs.runtime:ObsRuntime",
    "percentile": "repro.obs.samplers:percentile",
    "entropy": "repro.obs.samplers:entropy",
    "sweep_series_to_chrome_trace": "repro.obs.exporters:sweep_series_to_chrome_trace",
    "to_chrome_trace": "repro.obs.exporters:to_chrome_trace",
    "to_jsonl": "repro.obs.exporters:to_jsonl",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
