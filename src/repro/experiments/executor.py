"""Persistent multi-worker execution engine for experiment fan-out.

Replicated sweeps and algorithm fan-outs used to pay a full worker
process per task attempt — a throwaway ``ProcessPoolExecutor`` whose
start-up cost dwarfs a scaled-down simulation run. This module keeps a
pool of N *warm* workers alive for the duration of a task batch and
feeds them work over per-worker duplex pipes, preserving the
crash-isolation semantics the sweep runner is built on:

* a worker that segfaults, ``os._exit``\\ s, or is OOM-killed takes down
  only its current attempt — the parent reaps it, respawns a
  replacement, and the attempt re-enters the queue (bounded by the
  task's ``max_attempts``);
* a per-task wall-clock ``timeout`` is enforced from the parent without
  serializing the batch: only the offending worker is killed while its
  siblings keep running. The clock starts when the worker reports the
  task unpickled, so a ``spawn`` worker's boot and imports never count
  against it;
* :data:`DEFAULT_CRASH_STORM_LIMIT` workers in a row that each die
  before finishing a task trip a circuit breaker
  (:class:`RespawnStormError`) instead of respawning forever;
* every kill path reaps via ``terminate()`` → ``join(grace)`` →
  ``kill()`` → ``join()``, so a worker caught mid-spawn cannot escape
  shutdown (the leak the old per-replicate pool had under
  ``KeyboardInterrupt``).

**Start method.** ``start_method=None`` resolves through
:func:`resolve_start_method`: ``"fork"`` where ``multiprocessing``
offers it and the platform is not macOS (where forking a process that
has loaded system frameworks is unsafe), ``"spawn"`` everywhere else.
A forked worker begins as a copy of the parent, which has already
imported numpy and the simulator; a ``spawn`` worker starts a fresh
interpreter and imports all of it again. On a 2-CPU Linux host
(Python 3.11) a two-task pool starts and stops in about 0.01 s under
``fork`` and 0.8 s of wall time (1.4 s of CPU) under ``spawn``.

The rule is this module's own and does not defer to
``multiprocessing``'s default, which is ``forkserver`` on Linux from
Python 3.14. A forkserver is not used on purpose: workers must stay
direct children of the caller, reaped before :func:`run_tasks`
returns, because ``RUSAGE_CHILDREN`` (and any CPU or peak-RSS
accounting built on it) only counts reaped direct children. For the
same reason no pool outlives a call. An explicit ``"spawn"`` or
``"fork"`` is always honoured.

Two consequences of ``fork`` are worth knowing:

* A forked worker inherits the parent's module state, monkeypatches
  included. Tasks must not rely on a fresh interpreter; the
  simulator's tasks derive all randomness from their arguments.
* On Python 3.12 and later, ``os.fork()`` emits a
  ``DeprecationWarning`` when the parent has other OS threads (numpy's
  OpenBLAS thread pool counts). The engine does not silence it; pass
  ``start_method="spawn"`` where the warning matters.

Fork hygiene: every parent-side pipe end is registered with
``multiprocessing.util.register_after_fork`` to be closed in forked
children. Without that a forked worker would hold the parent's end of
its own pipe (and of its older siblings' pipes), never see EOF when
the parent dies, and outlive it. Under ``spawn`` the registry is empty
in the child and the hook does nothing.

Results are delivered two ways, both in *submission order* regardless
of completion order: the returned ``ExecutionReport.results`` list, and
an optional ``on_result`` callback invoked in the parent as the longest
contiguous prefix of finished tasks grows. The callback is the
single-writer append path for checkpoint journals — concurrent
finishers can never interleave partial lines, and the journal's record
order is independent of ``jobs``.

Everything sent across a pipe must pickle: ``TaskSpec.fn`` must be a
module-level callable and its arguments plain data. ``TaskSpec.args``
may instead be a *parent-side* callable ``attempt -> tuple`` (lambdas
fine) so retries can change arguments (retry-with-reseed). Workers are
daemonic: they die with the parent and must not spawn processes of
their own — do not nest engines.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time
import traceback as _traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _connection_wait
from multiprocessing.util import register_after_fork
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

__all__ = ["TaskSpec", "TaskTelemetry", "TaskResult", "PoolStats",
           "ExecutionReport", "RespawnStormError", "run_tasks",
           "default_jobs", "usable_cpus", "resolve_start_method",
           "DEFAULT_CRASH_STORM_LIMIT"]

#: Consecutive worker deaths — each before completing a single task —
#: that trip the pool's circuit breaker. A systematic child failure
#: (import error, bad interpreter, missing shared lib) kills every
#: fresh worker instantly; without the breaker the engine would respawn
#: forever, burning attempts on every queued task.
DEFAULT_CRASH_STORM_LIMIT = 5


class RespawnStormError(RuntimeError):
    """Every fresh worker died immediately: the pool cannot make progress.

    Raised by :func:`run_tasks` when :data:`DEFAULT_CRASH_STORM_LIMIT`
    consecutive workers exited before completing any task.
    ``last_exitcode`` and ``last_error`` carry what is known about the
    final death (the child's own traceback, when one made it back over
    the pipe).
    """

    def __init__(self, message: str, *, deaths: int,
                 last_exitcode: Optional[int] = None,
                 last_error: Optional[str] = None) -> None:
        super().__init__(message)
        self.deaths = deaths
        self.last_exitcode = last_exitcode
        self.last_error = last_error

#: Seconds a reaped worker is given to ``join()`` before ``kill()``.
_JOIN_GRACE_S = 2.0

#: Idle poll ceiling (seconds) while waiting for completions.
_POLL_CEILING_S = 0.25


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, as narrowed by
    ``taskset`` or a cpuset, where the platform has one; otherwise the
    installed count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def default_jobs() -> int:
    """Default worker count: all usable cores but one, at least one."""
    return max(1, usable_cpus() - 1)


def resolve_start_method(start_method: Optional[str] = None) -> str:
    """The multiprocessing start method :func:`run_tasks` will use.

    An explicit ``start_method`` is returned unchanged. ``None`` means
    ``"fork"`` where it is offered and the platform is not macOS, and
    ``"spawn"`` otherwise (see the module docstring for why not
    ``forkserver``).
    """
    if start_method is not None:
        return start_method
    if "fork" in get_all_start_methods() and sys.platform != "darwin":
        return "fork"
    return "spawn"


@dataclass(frozen=True)
class TaskSpec:
    """One unit of work for the engine.

    ``fn(*args)`` runs in a worker; ``args`` is either a tuple or a
    parent-side callable ``attempt -> tuple`` (attempts count from 1)
    so retries can vary their arguments. A task is retried on any
    failure — raised exception, worker death, timeout — until it has
    consumed ``max_attempts`` attempts.
    """

    key: Any
    fn: Callable[..., Any]
    args: Union[tuple, Callable[[int], tuple]] = ()
    max_attempts: int = 1

    def args_for(self, attempt: int) -> tuple:
        if callable(self.args):
            return tuple(self.args(attempt))
        return tuple(self.args)


@dataclass(frozen=True)
class TaskTelemetry:
    """Where and how expensively a task's final attempt ran.

    ``wall_s`` is execution time measured inside the worker (timeouts
    and crashes fall back to the parent-observed interval);
    ``queue_wait_s`` is how long the final attempt sat runnable before
    a worker picked it up. ``result_bytes`` is the pickled size of the
    returned value as measured in the worker — the cost of shipping
    the result (metrics plus any observability payload riding on it)
    back over the pipe; ``None`` for failed attempts (a value that does
    not pickle fails its attempt).

    ``attempts`` counts every try the task consumed, and ``last_error``
    keeps the most recent failure reason — together they make a
    retried-then-succeeded task distinguishable from a clean first-try
    success in journals and dashboards.
    """

    worker: Optional[int]
    wall_s: float
    queue_wait_s: float
    result_bytes: Optional[int] = None
    attempts: int = 1
    last_error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {"worker": self.worker,
                "wall_s": self.wall_s,
                "queue_wait_s": self.queue_wait_s,
                "result_bytes": self.result_bytes,
                "attempts": self.attempts,
                "last_error": self.last_error}


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task after all its attempts."""

    key: Any
    status: str  # "ok" | "failed"
    value: Any
    error: Optional[str]
    attempts: int
    telemetry: TaskTelemetry

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class PoolStats:
    """End-of-batch engine telemetry."""

    jobs: int = 0
    #: Resolved multiprocessing start method the workers were started
    #: with (``"fork"`` or ``"spawn"``).
    start_method: str = ""
    wall_s: float = 0.0
    busy_s: float = 0.0
    tasks_ok: int = 0
    tasks_failed: int = 0
    retries: int = 0
    workers_spawned: int = 0
    worker_crashes: int = 0
    timeouts: int = 0
    tasks_per_worker: Dict[int, int] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Fraction of worker-seconds spent executing tasks."""
        capacity = self.jobs * self.wall_s
        return self.busy_s / capacity if capacity > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "start_method": self.start_method,
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "tasks_ok": self.tasks_ok,
            "tasks_failed": self.tasks_failed,
            "retries": self.retries,
            "workers_spawned": self.workers_spawned,
            "worker_crashes": self.worker_crashes,
            "timeouts": self.timeouts,
            "tasks_per_worker": dict(self.tasks_per_worker),
        }


@dataclass(frozen=True)
class ExecutionReport:
    """Results (in submission order) plus engine telemetry."""

    results: Tuple[TaskResult, ...]
    stats: PoolStats


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

def _worker_main(conn) -> None:
    """Worker loop: receive ``(fn, args)``, report ``("started",)``,
    run, send the outcome back.

    SIGINT is ignored — a Ctrl-C in the parent's terminal reaches the
    whole process group, and shutdown must stay under the parent's
    control (stop sentinel, else terminate/kill).
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        except BaseException as exc:
            # The payload failed to *unpickle* (e.g. its module import
            # raises in the child). Connection.recv consumed the whole
            # message before unpickling, so the pipe is still in sync:
            # report the failure instead of dying and keep serving.
            try:
                conn.send(("error",
                           f"task deserialization failed: "
                           f"{type(exc).__name__}: {exc}", 0.0))
                continue
            except Exception:
                break
        if message is None:  # stop sentinel
            break
        fn, args = message
        try:
            conn.send(("started",))
        except Exception:
            break
        start = time.perf_counter()
        blob = None
        try:
            value = fn(*args)
            elapsed = time.perf_counter() - start
            # Pickled once, here: the length is the result's size, and
            # the bytes follow the "ok" header as a message of their own.
            blob = pickle.dumps(value)
            payload = ("ok", len(blob), elapsed)
        except BaseException as exc:  # noqa: BLE001 - isolation boundary
            # Ship the full child traceback: when the parent surfaces
            # this failure (or trips the respawn circuit breaker) the
            # operator should not have to re-run the task to see it.
            payload = ("error",
                       f"{type(exc).__name__}: {exc}\n"
                       f"{_traceback.format_exc()}",
                       time.perf_counter() - start)
        try:
            conn.send(payload)
            if blob is not None:
                conn.send_bytes(blob)
        except Exception:  # broken pipe: the parent went away
            break
    try:
        conn.close()
    except Exception:  # pragma: no cover
        pass


# ----------------------------------------------------------------------
# Parent-side engine
# ----------------------------------------------------------------------

@dataclass
class _Running:
    """The attempt a worker is currently executing."""

    index: int
    attempt: int
    enqueued_at: float
    dispatched_at: float
    #: When the worker reported the task unpickled; the timeout runs
    #: from here.
    started_at: Optional[float] = None


class _Worker:
    def __init__(self, wid: int, proc, conn):
        self.wid = wid
        self.proc = proc
        self.conn = conn
        self.current: Optional[_Running] = None
        self.tasks_done = 0


class _Engine:
    def __init__(self, specs: Sequence[TaskSpec], jobs: int,
                 timeout: Optional[float],
                 on_result: Optional[Callable[[TaskResult], None]],
                 start_method: str):
        self.specs = list(specs)
        self.jobs = jobs
        self.timeout = timeout
        #: Consecutive deaths of workers that never completed a task.
        #: Reset by any delivered result; deliberate kills (timeouts,
        #: shutdown) never touch it.
        self.cold_deaths = 0
        self.on_result = on_result
        self.ctx = get_context(start_method)
        self.stats = PoolStats(jobs=jobs, start_method=start_method)
        self.clock = time.perf_counter
        now = self.clock()
        self.results: List[Optional[TaskResult]] = [None] * len(self.specs)
        self.pending = deque((i, 1, now) for i in range(len(self.specs)))
        self.last_error: Dict[int, str] = {}
        self.workers: Dict[int, _Worker] = {}
        self.n_done = 0
        self.emit_cursor = 0
        self.next_wid = 0

    # -- worker lifecycle ------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        wid = self.next_wid
        self.next_wid += 1
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        # Close this end in every child forked from now on, this
        # worker's own included: a forked worker holding it would never
        # see EOF on its pipe when the parent dies.
        register_after_fork(parent_conn, Connection.close)
        proc = self.ctx.Process(target=_worker_main, args=(child_conn,),
                                name=f"repro-worker-{wid}", daemon=True)
        proc.start()
        child_conn.close()  # our copy; EOF detection needs it closed here
        worker = _Worker(wid, proc, parent_conn)
        self.workers[wid] = worker
        self.stats.workers_spawned += 1
        self.stats.tasks_per_worker.setdefault(wid, 0)
        return worker

    def _reap(self, worker: _Worker, *, graceful: bool) -> None:
        """Stop a worker for good: sentinel or terminate, then
        ``join(grace)``, then ``kill()`` — nothing escapes."""
        self._stop(worker, graceful=graceful)
        self._join(worker)

    def _reap_all(self, *, graceful: bool) -> None:
        """:meth:`_reap` every worker, stopping them all before joining
        any, so their shutdowns overlap."""
        workers = list(self.workers.values())
        for worker in workers:
            self._stop(worker, graceful=graceful)
        for worker in workers:
            self._join(worker)

    def _stop(self, worker: _Worker, *, graceful: bool) -> None:
        if graceful:
            try:
                worker.conn.send(None)
            except Exception:
                pass
        else:
            try:
                worker.proc.terminate()
            except Exception:  # pragma: no cover
                pass

    def _join(self, worker: _Worker) -> None:
        # Forgotten only once joined: an interrupt before that leaves
        # the worker for the caller's terminate-and-reap path.
        worker.proc.join(_JOIN_GRACE_S)
        if worker.proc.is_alive():
            try:
                worker.proc.kill()
            except Exception:  # pragma: no cover
                pass
            worker.proc.join(_JOIN_GRACE_S)
        try:
            worker.conn.close()
        except Exception:  # pragma: no cover
            pass
        self.workers.pop(worker.wid, None)

    # -- task flow -------------------------------------------------------

    def _dispatch_idle(self) -> None:
        for worker in list(self.workers.values()):
            if not self.pending:
                return
            if worker.current is not None:
                continue
            index, attempt, enqueued_at = self.pending.popleft()
            spec = self.specs[index]
            now = self.clock()
            try:
                payload = (spec.fn, spec.args_for(attempt))
                worker.conn.send(payload)
            except Exception as exc:  # unpicklable task, dead pipe, ...
                self._attempt_failed(
                    index, attempt, worker.wid,
                    f"could not dispatch task: {type(exc).__name__}: {exc}",
                    wall_s=0.0, queue_wait_s=now - enqueued_at)
                continue
            worker.current = _Running(index, attempt, enqueued_at, now)

    def _attempt_failed(self, index: int, attempt: int,
                        wid: Optional[int], error: str,
                        wall_s: float, queue_wait_s: float) -> None:
        self.last_error[index] = error
        spec = self.specs[index]
        if attempt < spec.max_attempts:
            self.stats.retries += 1
            self.pending.append((index, attempt + 1, self.clock()))
            return
        telemetry = TaskTelemetry(worker=wid, wall_s=wall_s,
                                  queue_wait_s=queue_wait_s,
                                  attempts=attempt, last_error=error)
        self._finalize(index, TaskResult(
            key=spec.key, status="failed", value=None, error=error,
            attempts=attempt, telemetry=telemetry))

    def _finalize(self, index: int, result: TaskResult) -> None:
        self.results[index] = result
        self.n_done += 1
        if result.ok:
            self.stats.tasks_ok += 1
        else:
            self.stats.tasks_failed += 1
        if self.on_result is not None:
            while (self.emit_cursor < len(self.results)
                   and self.results[self.emit_cursor] is not None):
                self.on_result(self.results[self.emit_cursor])
                self.emit_cursor += 1

    def _handle_message(self, worker: _Worker, message: tuple) -> None:
        running = worker.current
        if message[0] == "started":
            if running is not None:
                running.started_at = self.clock()
            return
        worker.current = None
        worker.tasks_done += 1
        self.cold_deaths = 0  # a worker is completing tasks: pool is healthy
        self.stats.tasks_per_worker[worker.wid] = worker.tasks_done
        # ("ok", result bytes, wall_s, value) or ("error", text, wall_s)
        status, payload, wall_s = message[:3]
        self.stats.busy_s += wall_s
        if running is None:  # pragma: no cover - protocol violation
            return
        queue_wait = running.dispatched_at - running.enqueued_at
        if status == "ok":
            spec = self.specs[running.index]
            self._finalize(running.index, TaskResult(
                key=spec.key, status="ok", value=message[3], error=None,
                attempts=running.attempt,
                telemetry=TaskTelemetry(
                    worker=worker.wid, wall_s=wall_s,
                    queue_wait_s=queue_wait, result_bytes=payload,
                    attempts=running.attempt,
                    last_error=self.last_error.get(running.index))))
        else:
            self._attempt_failed(running.index, running.attempt,
                                 worker.wid, payload,
                                 wall_s=wall_s, queue_wait_s=queue_wait)

    def _maybe_respawn(self) -> None:
        """Keep enough workers alive for the work that remains.

        Enough means: one per queued/running task, capped at ``jobs``,
        and never zero while tasks are unfinished (a retry can be
        queued at any moment by a sibling's failure).
        """
        unfinished = len(self.specs) - self.n_done
        if unfinished <= 0:
            return
        running = sum(1 for w in self.workers.values()
                      if w.current is not None)
        target = min(self.jobs, max(len(self.pending) + running, 1))
        while len(self.workers) < target:
            self._spawn_worker()

    def _handle_worker_death(self, worker: _Worker) -> None:
        running = worker.current
        worker.current = None
        died_cold = worker.tasks_done == 0
        self._reap(worker, graceful=False)
        self.stats.worker_crashes += 1
        exitcode = worker.proc.exitcode
        if running is not None:
            now = self.clock()
            self._attempt_failed(
                running.index, running.attempt, worker.wid,
                f"worker process died (exit code {exitcode})",
                wall_s=now - running.dispatched_at,
                queue_wait_s=running.dispatched_at - running.enqueued_at)
        if died_cold:
            self.cold_deaths += 1
            if self.cold_deaths >= DEFAULT_CRASH_STORM_LIMIT:
                last_error = (self.last_error.get(running.index)
                              if running is not None else None)
                raise RespawnStormError(
                    f"respawn storm: {self.cold_deaths} consecutive workers "
                    f"died before completing any task (last exit code "
                    f"{exitcode}) — a systematic child failure, e.g. an "
                    f"import error in the worker; last task error: "
                    f"{last_error}",
                    deaths=self.cold_deaths, last_exitcode=exitcode,
                    last_error=last_error)
        else:
            self.cold_deaths = 0
        self._maybe_respawn()

    def _enforce_deadlines(self) -> None:
        if self.timeout is None:
            return
        now = self.clock()
        for worker in list(self.workers.values()):
            running = worker.current
            if running is None or running.started_at is None:
                continue
            if now - running.started_at <= self.timeout:
                continue
            worker.current = None
            self._reap(worker, graceful=False)
            self.stats.timeouts += 1
            self._attempt_failed(
                running.index, running.attempt, worker.wid,
                f"timeout after {self.timeout}s",
                wall_s=now - running.started_at,
                queue_wait_s=running.dispatched_at - running.enqueued_at)
            self._maybe_respawn()

    def _poll_interval(self) -> Optional[float]:
        now = self.clock()
        wakeups = [now + _POLL_CEILING_S]
        if self.timeout is not None:
            wakeups.extend(w.current.started_at + self.timeout
                           for w in self.workers.values()
                           if w.current is not None
                           and w.current.started_at is not None)
        return max(0.0, min(wakeups) - now)

    # -- main loop -------------------------------------------------------

    def run(self) -> ExecutionReport:
        start = self.clock()
        try:
            for _ in range(min(self.jobs, max(1, len(self.specs)))):
                self._spawn_worker()
            while self.n_done < len(self.specs):
                self._dispatch_idle()
                conn_to_worker = {w.conn: w for w in self.workers.values()
                                  if w.current is not None}
                if conn_to_worker:
                    ready = _connection_wait(list(conn_to_worker),
                                             self._poll_interval())
                    for conn in ready:
                        worker = conn_to_worker[conn]
                        if worker.wid not in self.workers:
                            continue  # already reaped this iteration
                        try:
                            message = worker.conn.recv()
                            if message[0] == "ok":  # the value follows
                                message += (worker.conn.recv(),)
                        except (EOFError, OSError):
                            self._handle_worker_death(worker)
                            continue
                        self._handle_message(worker, message)
                self._enforce_deadlines()
            self._reap_all(graceful=True)
        except BaseException:
            self._reap_all(graceful=False)
            raise
        finally:
            self.stats.wall_s = self.clock() - start
        results = tuple(r for r in self.results)
        return ExecutionReport(results=results, stats=self.stats)


def run_tasks(specs: Sequence[TaskSpec],
              *,
              jobs: Optional[int] = None,
              timeout: Optional[float] = None,
              on_result: Optional[Callable[[TaskResult], None]] = None,
              start_method: Optional[str] = None,
              ) -> ExecutionReport:
    """Run ``specs`` on a persistent pool of ``jobs`` warm workers.

    Results come back in **submission order** (and ``on_result`` fires
    in submission order as the finished prefix grows), so downstream
    aggregation and journaling are independent of completion order —
    the backbone of the sweep determinism contract.

    ``jobs`` defaults to :func:`default_jobs` (usable cores minus
    one); ``timeout`` is per-attempt wall clock in seconds (``None``
    for no limit). A failed attempt is re-queued at once until its
    task has used ``max_attempts``.

    ``start_method`` picks the multiprocessing context. ``None``
    resolves through :func:`resolve_start_method`: ``"fork"`` where it
    is offered and the platform is not macOS, ``"spawn"`` otherwise.
    Forked workers start in milliseconds because they inherit the
    parent's imports, and with them its module state; parent-side pipe
    ends are closed in each forked child so workers still exit when the
    parent dies. On Python 3.12 and later, forking a parent with other
    OS threads emits a ``DeprecationWarning``; pass ``"spawn"`` to avoid
    it. Either way every worker is a direct child of the caller and is
    reaped before this function returns.

    A circuit breaker (:class:`RespawnStormError`) trips after
    :data:`DEFAULT_CRASH_STORM_LIMIT` *consecutive* workers died without
    completing a single task — the signature of a systematic child
    failure (import error, missing shared library) that respawning can
    never fix. Deliberate kills (per-task timeouts) do not count.
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be > 0 (or None)")
    for spec in specs:
        if spec.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
    start_method = resolve_start_method(start_method)
    if not specs:
        return ExecutionReport(results=(), stats=PoolStats(
            jobs=0, start_method=start_method))
    engine = _Engine(specs, jobs=min(jobs, len(specs)), timeout=timeout,
                     on_result=on_result, start_method=start_method)
    return engine.run()
