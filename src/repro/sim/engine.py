"""Discrete-event simulation engine.

A minimal but complete event engine in the style used by network
simulators: a priority queue of timestamped events, a monotonically
advancing clock, and support for one-shot and periodic events. The
swarm simulator schedules peer arrivals, departures, identity resets,
and the per-round transfer tick as events on this engine.

Events with equal timestamps fire in scheduling order (FIFO), which
keeps runs deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import SimulationError

__all__ = ["Event", "EventEngine", "PeriodicHandle"]

EventCallback = Callable[["EventEngine"], None]


@dataclass(order=True)
class Event:
    """A scheduled callback; ordering is (time, sequence number)."""

    time: float
    sequence: int
    callback: EventCallback = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    #: Engine hook: called exactly once when a still-queued event is
    #: cancelled, so the engine's live-event counter stays O(1).
    _on_cancel: Optional[Callable[[], None]] = field(
        compare=False, default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()
            self._on_cancel = None


class PeriodicHandle:
    """Cancellation handle for a :meth:`EventEngine.schedule_every` chain.

    Unlike cancelling a single :class:`Event` (which would only skip
    one firing while the chain reschedules itself), ``cancel()`` here
    stops the whole periodic chain: the pending occurrence is removed
    from the queue and no further ones are scheduled.
    """

    __slots__ = ("name", "_current", "_cancelled")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._current: Optional[Event] = None
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Stop the periodic chain permanently (idempotent)."""
        self._cancelled = True
        if self._current is not None:
            self._current.cancel()
            self._current = None


class EventEngine:
    """Heap-based discrete event loop.

    Typical use::

        engine = EventEngine()
        engine.schedule_at(0.0, lambda e: ..., name="arrival")
        engine.schedule_every(1.0, tick, name="round")
        engine.run_until(600.0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Event] = []
        self._counter = itertools.count()
        self._running = False
        self._live = 0  # queued, non-cancelled events (kept O(1))
        self.events_fired = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of queued (non-cancelled) events — O(1).

        Maintained as a live counter (incremented on schedule,
        decremented on fire or cancel) rather than a heap scan: this is
        called from hot invariant checks.
        """
        return self._live

    def _release(self) -> None:
        self._live -= 1

    def schedule_at(self, time: float, callback: EventCallback,
                    name: str = "") -> Event:
        """Schedule ``callback`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before now ({self._now})")
        event = Event(time=float(time), sequence=next(self._counter),
                      callback=callback, name=name, _on_cancel=self._release)
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def schedule_in(self, delay: float, callback: EventCallback,
                    name: str = "") -> Event:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback, name=name)

    def schedule_every(self, interval: float, callback: EventCallback,
                       name: str = "", start_delay: Optional[float] = None,
                       ) -> PeriodicHandle:
        """Schedule a periodic event.

        ``callback`` fires every ``interval`` starting after
        ``start_delay`` (default: one interval from now). The returned
        :class:`PeriodicHandle`'s ``cancel()`` stops the *whole* chain —
        the queued occurrence is dropped and nothing is rescheduled.
        (:meth:`stop`, or raising from the callback, still halts the
        run as before.)
        """
        if interval <= 0:
            raise SimulationError("interval must be positive")
        first = interval if start_delay is None else start_delay
        handle = PeriodicHandle(name=name)

        def fire(engine: "EventEngine") -> None:
            if handle.cancelled:
                return
            callback(engine)
            if not handle.cancelled:
                handle._current = engine.schedule_in(interval, fire, name=name)

        handle._current = self.schedule_in(first, fire, name=name)
        return handle

    def step(self) -> bool:
        """Fire the next event; return False if the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue  # _live already decremented at cancel time
            if event.time < self._now:
                raise SimulationError("event queue corrupted: time went backwards")
            self._live -= 1
            event._on_cancel = None  # fired: a late cancel is a no-op
            self._now = event.time
            self.events_fired += 1
            event.callback(self)
            return True
        return False

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> None:
        """Run events with ``time <= end_time``.

        When the loop exhausts the queue (or the horizon) the clock is
        fast-forwarded to ``end_time`` — simulated time passed with
        nothing scheduled in it. When the run is halted early via
        :meth:`stop`, the clock stays at the last fired event: the
        simulation *ended* there, and advancing past it would let an
        early-terminating run report a finish time it never reached.

        ``max_events`` guards against runaway periodic chains.
        """
        self._running = True
        fired = 0
        stopped = True
        try:
            while self._running and self._queue:
                nxt = self._peek()
                if nxt is None or nxt.time > end_time:
                    break
                self.step()
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} before {end_time}")
            stopped = not self._running
        finally:
            self._running = False
        if not stopped and self._now < end_time:
            self._now = float(end_time)

    def run(self, max_events: int = 1_000_000) -> None:
        """Run until the queue drains (bounded by ``max_events``)."""
        self._running = True
        fired = 0
        try:
            while self._running and self.step():
                fired += 1
                if fired >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the current :meth:`run`/:meth:`run_until` after this event."""
        self._running = False

    def upcoming(self, limit: int = 16) -> List[tuple]:
        """The next ``limit`` queued events as ``(time, name)`` pairs.

        Read-only forensics view (crash bundles embed it); cancelled
        events are skipped and the heap is left untouched.
        """
        live = [e for e in self._queue if not e.cancelled]
        return [(e.time, e.name)
                for e in heapq.nsmallest(limit, live)]

    def _peek(self) -> Optional[Event]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None
