"""Timing wrappers installed from outside the simulator.

The benchmark never edits ``src/``: a traced pass replaces public entry
points (engine constructors and ``run`` methods, kernel table entries,
strategy ``on_round`` methods, send primitives, the metrics collector,
the executor's ``run_tasks`` and the fluid integrator) with wrappers
that time each call, then puts the originals back.

Every wrapped call updates a per-name aggregate (calls, total seconds,
self seconds). A layer's self time is its duration minus the time its
wrapped children took. Coarse calls (builds, runs, sweeps, pools,
figures, hybrid runs) are also kept as spans ``(id, name, start, end,
parent_id)`` in memory and written out when the run ends; per-call
leaves (kernels, strategies, sends) are kept only as aggregates, since
a flash crowd makes millions of them.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["Tracer", "NullTracer", "capture_run_tasks", "install_layers"]

Name = Union[str, Callable[..., str]]


class Tracer:
    """Span stack, per-name aggregates and the patches that feed them."""

    def __init__(self) -> None:
        #: Open frames: [name, child seconds, kept span id or None].
        self._stack: List[list] = []
        #: name -> [calls, total seconds, self seconds].
        self.totals: Dict[str, List[float]] = {}
        #: Kept spans: (id, name, start, end, parent id).
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> list:
        frame = [name, 0.0, len(self.spans) if keep else None]
        if keep:
            self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        agg = self.totals.get(frame[0])
        if agg is None:
            agg = self.totals[frame[0]] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[1]
        if frame[2] is not None:
            parent = next((f[2] for f in reversed(stack) if f[2] is not None),
                          None)
            self.spans[frame[2]] = (frame[2], frame[0], start, end, parent)

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A kept span around a call the benchmark itself makes."""
        frame = self._enter(name, keep=True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, perf_counter())

    def wrap(self, fn: Callable, name: Name, keep: bool = False) -> Callable:
        """``fn`` timed under ``name`` (a string or ``args -> str``)."""
        enter, exit_ = self._enter, self._exit
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            frame = enter(fixed or name(*args), keep)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame, start, perf_counter())

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: Name,
              keep: bool = False) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict)."""
        is_item = isinstance(owner, dict)
        if is_item:
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]  # never an inherited method
        else:
            original = getattr(owner, attr)
        wrapped = self.wrap(original, name, keep)
        if is_item:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, is_item))

    def restore(self) -> None:
        for owner, attr, original, is_item in reversed(self._patches):
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- queries ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def sum_where(self, pred: Callable[[str], bool], index: int) -> float:
        """Sum of aggregate field ``index`` (0 calls, 1 total seconds,
        2 self seconds) over the names ``pred`` accepts."""
        return sum(agg[index] for key, agg in self.totals.items() if pred(key))

    def child_total_s(self, parent_prefix: str, child: str) -> float:
        """Seconds in kept ``child`` spans whose parent starts with
        ``parent_prefix``."""
        names = {s[0]: s[1] for s in self.spans}
        return sum(s[3] - s[2] for s in self.spans
                   if s[1] == child and s[4] is not None
                   and names[s[4]].startswith(parent_prefix))

    def span_records(self) -> List[Dict[str, Any]]:
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4]} for s in self.spans]


class NullTracer:
    """The untraced pass: regions cost nothing and nothing is patched."""

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        yield

    def restore(self) -> None:
        pass


def _rebind(original: Any, replacement: Any) -> List[Tuple[Any, str]]:
    """Point every loaded ``repro`` module attribute bound to
    ``original`` at ``replacement``; returns what was rebound."""
    bound = []
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound.append((module, attr))
    return bound


@contextmanager
def capture_run_tasks(reports: List[Tuple[Any, Any]]) -> Iterator[None]:
    """Record every ``ExecutionReport`` the executor returns, with the
    specs it ran, in both traced and untraced passes.

    The sweep and hybrid layers call ``run_tasks`` and keep only the
    task values they need; the report carries the per-task telemetry
    and the returned metrics the output checks read. Modules that bound
    the name at import time are rebound as well.
    """
    from repro.experiments import executor

    original = executor.run_tasks

    def run_tasks(specs, *args, **kwargs):
        report = original(specs, *args, **kwargs)
        reports.append((tuple(specs), report))
        return report

    bound = _rebind(original, run_tasks)
    try:
        yield
    finally:
        for module, attr in bound:
            setattr(module, attr, original)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.algorithms import STRATEGY_CLASSES, SeederStrategy
    from repro.algorithms import vector_kernels
    from repro.attacks import FreeRiderStrategy
    from repro.core import fluid
    from repro.experiments import executor
    from repro.sim.metrics import MetricsCollector
    from repro.sim.runner import Simulation
    from repro.sim.vector import VectorFastSimulation, VectorSimulation

    def mech_of(sim, *_):
        return sim.config.algorithm.value

    # Array engines. The fast engine's constructor calls the parity
    # one; summing self time over both names counts the build once.
    tracer.patch(VectorSimulation, "__init__", "vector.build", keep=True)
    tracer.patch(VectorFastSimulation, "__init__", "vector.build.fast",
                 keep=True)
    tracer.patch(VectorSimulation, "run",
                 lambda sim: f"vector.run.{mech_of(sim)}", keep=True)
    # Engines read the kernel tables at construction, so wrapping the
    # entries (and the module-level seeder kernels) reaches every slot.
    for table in (vector_kernels.KERNELS, vector_kernels.FAST_KERNELS):
        for algorithm in list(table):
            tracer.patch(table, algorithm, f"kernel.{algorithm.value}")
    for attr in ("run_spray", "run_spray_fast"):
        tracer.patch(vector_kernels, attr, "kernel.spray")

    # Object engine, strategies and attacks.
    tracer.patch(Simulation, "__init__", "object.build", keep=True)
    tracer.patch(Simulation, "run",
                 lambda sim: f"object.run.{mech_of(sim)}", keep=True)
    for algorithm, cls in STRATEGY_CLASSES.items():
        tracer.patch(cls, "on_round", f"strategy.{algorithm.value}")
    tracer.patch(SeederStrategy, "on_round", "strategy.seeder")
    tracer.patch(FreeRiderStrategy, "on_round", "strategy.freerider")
    for method in ("transfer_plain", "tchain_seed", "tchain_seed_random",
                   "tchain_fulfill"):
        tracer.patch(Simulation, method, f"send.{method}")

    # Metrics collector, fluid integrator, executor pools.
    tracer.patch(MetricsCollector, "sample", "metrics.sample")
    tracer.patch(MetricsCollector, "finalize", "metrics.finalize")
    tracer.patch(fluid, "simulate_fluid_schedule", "fluid", keep=True)
    current = executor.run_tasks
    wrapped = tracer.wrap(current, "executor.run_tasks", keep=True)
    for module, attr in _rebind(current, wrapped):
        tracer._patches.append((module, attr, current, False))
