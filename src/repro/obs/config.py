"""Configuration of the streaming observability layer.

:class:`ObsConfig` is carried inside
:class:`~repro.sim.config.SimulationConfig` (field ``obs``) and fully
describes what a run records about itself: whether the bounded
event tracer is on (and how it samples each category), how often the
per-round time-series samplers fire, and whether the wall-clock span
tracer is active. Everything defaults to *off* — the paper's bare
simulator records nothing about itself and pays nothing.

Like :class:`~repro.sim.guards.GuardConfig`, the whole subsystem is
**observation-only**: enabling any of it consumes no randomness and
mutates nothing the simulation reads, so a traced run is byte-identical
(same metrics digest) to the same seed untraced. Event sampling is
*counter-based* (keep one event in every N per category), never
random, precisely so that contract can hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError

__all__ = ["ObsConfig", "TRACE_CATEGORIES"]

#: Event categories the tracer understands, with what each records.
#: ``transfer`` — every piece send (plain/seed/forward, incl. lost);
#: ``choke`` — per-round unchoke/optimistic-unchoke decisions;
#: ``reputation`` — reputation-board credits (immediate and delayed);
#: ``bootstrap`` — a peer obtaining its first (possibly encrypted) piece;
#: ``completion`` — a peer finishing its download;
#: ``fault`` — injected faults and their fallout (losses, crashes,
#: outages, expiries, dropped reports).
TRACE_CATEGORIES: Tuple[str, ...] = (
    "transfer", "choke", "reputation", "bootstrap", "completion", "fault")

#: Default ring capacity: ~64k events is a few MB and covers the full
#: event stream of a smoke-scale run, or the tail of a paper-scale one.
DEFAULT_TRACE_BUFFER = 65536


@dataclass(frozen=True)
class ObsConfig:
    """Tunables of the observability subsystem (all off by default).

    Attributes
    ----------
    trace:
        Enable the bounded ring-buffer event tracer
        (:class:`~repro.obs.tracer.EventTracer`).
    trace_buffer:
        Ring capacity in events; the oldest events are evicted once
        the buffer is full (the eviction count is reported, never
        silent).
    trace_sample_rates:
        Per-category deterministic sampling as ``((category, N), ...)``
        pairs: keep one event in every ``N`` offered for that category
        (``N = 1``, the default for unlisted categories, keeps all).
        Counter-based, so a fixed seed traces the same events on every
        run at every buffer size.
    sample_every:
        Rounds between time-series sampler rows
        (:mod:`repro.obs.samplers`); ``0`` disables the samplers.
    profile:
        Enable the wall-clock span tracer
        (:class:`~repro.obs.spans.SpanTracer`) around the engine's round
        phases, kernels or strategies, and guard passes. The only obs
        setting the array engines accept.
    """

    trace: bool = False
    trace_buffer: int = DEFAULT_TRACE_BUFFER
    trace_sample_rates: Tuple[Tuple[str, int], ...] = ()
    sample_every: int = 0
    profile: bool = False

    def __post_init__(self) -> None:
        if self.trace_buffer < 1:
            raise ConfigurationError("obs.trace_buffer must be >= 1")
        if self.sample_every < 0:
            raise ConfigurationError(
                "obs.sample_every must be >= 0 (0 disables sampling)")
        rates = tuple(sorted(tuple(pair) for pair in self.trace_sample_rates))
        for category, rate in rates:
            if category not in TRACE_CATEGORIES:
                raise ConfigurationError(
                    f"obs.trace_sample_rates names unknown category "
                    f"{category!r} (known: {', '.join(TRACE_CATEGORIES)})")
            if not isinstance(rate, int) or rate < 1:
                raise ConfigurationError(
                    f"obs sampling rate for {category!r} must be an int "
                    f">= 1, got {rate!r}")
        object.__setattr__(self, "trace_sample_rates", rates)

    @property
    def enabled(self) -> bool:
        """Whether any observability instrumentation is active."""
        return self.trace or self.profile or self.sample_every > 0

    def rate_for(self, category: str) -> int:
        """Keep-one-in-N sampling rate for ``category`` (default 1)."""
        for name, rate in self.trace_sample_rates:
            if name == category:
                return rate
        return 1
