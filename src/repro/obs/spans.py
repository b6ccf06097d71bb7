"""Wall-clock spans wrapped around one engine instance from outside.

:class:`SpanTracer` replaces the round phases and the kernels (array
engines) or strategies (object engine) of *one* simulation object with
wrappers that time each call; :meth:`SpanTracer.restore` takes them off
again, and no other simulation in the process is touched. Each span
name keeps ``[calls, total, self]`` seconds, where self time excludes
wrapped children. Timings are telemetry only and never enter metric
digests (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.utils.tables import format_table

__all__ = ["PHASE_SPANS", "SpanTracer"]

#: Round-phase methods every engine has, with their span names.
PHASE_SPANS = {
    "_on_round": "engine.round",
    "_on_arrival": "engine.arrival",
    "_flush_due_reports": "phase.reports",
    "_process_seeder_outages": "phase.outages",
    "_process_departures": "phase.departures",
    "_process_churn": "phase.churn",
    "_process_crashes": "phase.crashes",
    "_expire_obligations": "phase.expiry",
    "_process_whitewashing": "phase.whitewash",
    "_sample": "metrics.sample",
}


class SpanTracer:
    """Span stack, per-name aggregates, and per-instance wrappers."""

    def __init__(self) -> None:
        #: Open frames: [name, seconds spent in wrapped children].
        self._stack: List[list] = []
        #: name -> [calls, total seconds, self seconds].
        self.totals: Dict[str, List[float]] = {}
        #: One callable per installed wrapper that takes it off again.
        self._undo: List[Callable[[], None]] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` timed as one call of span ``name``."""
        stack = self._stack
        totals = self.totals

        def timed(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                agg = totals.get(name)
                if agg is None:
                    agg = totals[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]

        return timed

    def patch(self, obj: Any, attr: str, name: str) -> None:
        """Shadow the method ``obj.attr`` with a timed instance attribute."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), name))
        self._undo.append(lambda: delattr(obj, attr))

    def attach(self, sim: Any) -> None:
        """Wrap ``sim``'s round phases, then its per-slot ``kern`` table
        (array engines: ``kernel.<mech>``, ``kernel.spray`` for seeders,
        ``kernel.freerider``, one per slot role even where two roles
        share a kernel) or its strategies (object engine:
        ``strategy.<mech>``/``seeder``/``freerider``, plus
        ``guards.after_round`` when guards are on)."""
        for method, name in PHASE_SPANS.items():
            self.patch(sim, method, name)
        mech = sim.config.algorithm.value
        kern = getattr(sim, "kern", None)
        if kern is not None:
            original = list(kern)
            self._undo.append(lambda: kern.__setitem__(slice(None), original))
            timed: Dict[str, Callable] = {}
            for s, fn in enumerate(original):
                role = ("spray" if sim.seeder[s] else
                        "freerider" if sim.free[s] else mech)
                if role not in timed:
                    timed[role] = self.wrap(fn, f"kernel.{role}")
                kern[s] = timed[role]
            return
        for strategy in sim._strategies.values():
            role = ("seeder"
                    if isinstance(strategy, sim._seeder_strategy_cls) else
                    "freerider"
                    if isinstance(strategy, sim._freerider_strategy_cls)
                    else mech)
            self.patch(strategy, "on_round", f"strategy.{role}")
        if sim._guards is not None:
            self.patch(sim._guards, "after_round", "guards.after_round")

    def restore(self) -> None:
        """Take every wrapper off again (idempotent)."""
        while self._undo:
            self._undo.pop()()

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """``{name: {count, total, self, mean}}``, sorted by name."""
        return {name: {"count": calls, "total": total, "self": own,
                       "mean": total / calls}
                for name, (calls, total, own) in sorted(self.totals.items())}

    def table(self, title: Optional[str] = "Self-profile (wall clock)",
              ) -> str:
        """Aligned table of the spans, ranked by self time; ``share_%``
        is each span's share of all self time."""
        spans = self.as_dict()
        grand = sum(span["self"] for span in spans.values()) or 1.0
        rows = [[name, span["count"], span["total"] * 1e3,
                 span["self"] * 1e3, span["mean"] * 1e6,
                 100.0 * span["self"] / grand]
                for name, span in sorted(spans.items(),
                                         key=lambda item: -item[1]["self"])]
        return format_table(
            ["span", "count", "total_ms", "self_ms", "mean_us", "share_%"],
            rows, title=title, float_format=".4g")
