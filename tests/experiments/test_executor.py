"""Tests for the persistent worker-pool execution engine.

Task functions live at module level so they pickle into workers under
either start method (a ``spawn`` worker imports this module afresh);
per-attempt argument factories run in the parent and may be lambdas.
Contracts whose implementation differs between ``fork`` and ``spawn``
(worker start, death, kill, shutdown) are checked under both, in a loop
over :data:`START_METHODS`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.experiments import executor
from repro.experiments.executor import (
    DEFAULT_CRASH_STORM_LIMIT,
    RespawnStormError,
    TaskSpec,
    default_jobs,
    resolve_start_method,
    run_tasks,
)

#: Start methods this platform offers, the portable one last.
START_METHODS = tuple(m for m in ("fork", "spawn")
                      if m in multiprocessing.get_all_start_methods())


# ---------------------------------------------------------------------
# Picklable worker tasks
# ---------------------------------------------------------------------

def square(x):
    return x * x


def exit_if_small(x):
    """Simulates a segfault/OOM: kills the worker process outright."""
    if x < 1000:
        os._exit(3)
    return x


def sleep_if_two(x):
    if x == 2:
        time.sleep(30.0)
    return float(x)


def boom(x):
    raise ValueError(f"bad {x}")


def unpicklable(x):
    return lambda: x


#: Set by a test after import; a forked worker sees the parent's value,
#: a spawned one re-imports this module and sees ``None``.
PARENT_MARK = None


def read_parent_mark(_):
    return PARENT_MARK


class TestBasics:
    def test_results_in_submission_order(self):
        for start_method in START_METHODS:
            specs = [TaskSpec(key=i, fn=square, args=(i,))
                     for i in range(6)]
            report = run_tasks(specs, jobs=2, start_method=start_method)
            assert report.stats.start_method == start_method
            assert [r.key for r in report.results] == list(range(6))
            assert ([r.value for r in report.results]
                    == [i * i for i in range(6)])
            assert all(r.ok and r.attempts == 1 for r in report.results)

    def test_on_result_fires_in_submission_order(self):
        seen = []
        specs = [TaskSpec(key=i, fn=square, args=(i,)) for i in range(8)]
        run_tasks(specs, jobs=3, on_result=lambda r: seen.append(r.key))
        assert seen == list(range(8))

    def test_empty_specs(self):
        report = run_tasks([], jobs=4)
        assert report.results == ()
        assert report.stats.workers_spawned == 0

    def test_workers_are_persistent(self):
        # Six tasks on two workers: no per-task process spawn.
        specs = [TaskSpec(key=i, fn=square, args=(i,)) for i in range(6)]
        report = run_tasks(specs, jobs=2)
        assert report.stats.workers_spawned == 2

    def test_no_leaked_children(self):
        for start_method in START_METHODS:
            specs = [TaskSpec(key=i, fn=square, args=(i,)) for i in range(3)]
            run_tasks(specs, jobs=2, start_method=start_method)
            assert multiprocessing.active_children() == [], start_method

    def test_validation(self):
        spec = TaskSpec(key=1, fn=square, args=(1,))
        with pytest.raises(ValueError):
            run_tasks([spec], jobs=0)
        for timeout in (0, -1.0):
            with pytest.raises(ValueError):
                run_tasks([spec], timeout=timeout)
        with pytest.raises(ValueError):
            run_tasks([TaskSpec(key=1, fn=square, args=(1,),
                                max_attempts=0)])

    def test_default_jobs_at_least_one(self):
        assert default_jobs() >= 1

    def test_default_jobs_counts_usable_cpus(self, monkeypatch):
        # The affinity mask, not the installed count, bounds the pool.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert default_jobs() == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5},
                            raising=False)
        assert default_jobs() == 1
        # No affinity API: fall back to the installed count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert default_jobs() == 63


class TestStartMethod:
    def test_platform_rule(self, monkeypatch):
        monkeypatch.setattr(executor, "get_all_start_methods",
                            lambda: ["fork", "spawn", "forkserver"])
        monkeypatch.setattr(sys, "platform", "linux")
        assert resolve_start_method() == "fork"
        monkeypatch.setattr(sys, "platform", "darwin")
        assert resolve_start_method() == "spawn"
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(executor, "get_all_start_methods",
                            lambda: ["spawn"])
        assert resolve_start_method() == "spawn"

    def test_empty_batch_reports_resolved_method(self):
        report = run_tasks([], start_method="spawn")
        assert report.stats.as_dict()["start_method"] == "spawn"

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="fork is the default on Linux only")
    def test_default_is_fork_on_linux(self, monkeypatch):
        # Only a forked worker can see a value the parent set after
        # import; a spawned one re-imports this module.
        monkeypatch.setattr(sys.modules[__name__], "PARENT_MARK",
                            "set-after-import")
        report = run_tasks([TaskSpec(key=0, fn=read_parent_mark, args=(0,))],
                           jobs=1)
        assert report.results[0].value == "set-after-import"
        assert report.stats.start_method == "fork"
        assert report.stats.as_dict()["start_method"] == "fork"


#: Runs a batch of short sleeps on two workers and prints the worker
#: pids once the first task is done, so the test can kill this parent
#: mid-batch. ``time.sleep`` pickles by reference under either method.
_ORPHAN_SCRIPT = textwrap.dedent("""
    import multiprocessing, sys, time
    from repro.experiments.executor import TaskSpec, run_tasks

    def report(result):
        pids = [p.pid for p in multiprocessing.active_children()]
        print(" ".join(map(str, pids)), flush=True)

    if __name__ == "__main__":
        run_tasks([TaskSpec(key=i, fn=time.sleep, args=(0.2,))
                   for i in range(200)],
                  jobs=2, start_method=sys.argv[1], on_result=report)
""")


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (an orphan that
    has exited but whose new parent has not reaped it yet)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs /proc to inspect orphaned workers")
class TestOrphanedWorkers:
    def test_workers_never_outlive_a_killed_parent(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        for start_method in START_METHODS:
            parent = subprocess.Popen(
                [sys.executable, "-c", _ORPHAN_SCRIPT, start_method],
                stdout=subprocess.PIPE, text=True, env=env)
            try:
                ready, _, _ = select.select([parent.stdout], [], [], 60.0)
                line = parent.stdout.readline() if ready else ""
                pids = [int(p) for p in line.split()]
            finally:
                parent.send_signal(signal.SIGKILL)
                parent.wait()
                parent.stdout.close()
            assert len(pids) == 2, (start_method, pids)
            deadline = time.monotonic() + 10.0
            while (time.monotonic() < deadline
                   and any(_running(pid) for pid in pids)):
                time.sleep(0.05)
            survivors = [pid for pid in pids if _running(pid)]
            for pid in survivors:  # do not leak them past the test
                os.kill(pid, signal.SIGKILL)
            assert survivors == [], (
                f"{start_method} workers outlived their killed parent")


class TestFailureIsolation:
    def test_exception_recorded_not_raised(self):
        report = run_tasks([TaskSpec(key=1, fn=boom, args=(1,))], jobs=1)
        result = report.results[0]
        assert result.status == "failed"
        assert "ValueError: bad 1" in result.error
        assert result.value is None
        # The worker survived the exception: no crash recorded.
        assert report.stats.worker_crashes == 0

    def test_worker_death_retried_with_fresh_args(self):
        # First attempt os._exit()s the worker; the per-attempt args
        # factory hands the retry a value that succeeds.
        for start_method in START_METHODS:
            specs = [TaskSpec(key=i, fn=exit_if_small,
                              args=(lambda a, i=i: (i if a == 1
                                                    else i + 1000,)),
                              max_attempts=2)
                     for i in range(3)]
            report = run_tasks(specs, jobs=2, start_method=start_method)
            assert [r.status for r in report.results] == ["ok"] * 3
            assert [r.attempts for r in report.results] == [2, 2, 2]
            assert [r.value for r in report.results] == [1000, 1001, 1002]
            assert report.stats.worker_crashes == 3
            assert report.stats.retries == 3

    def test_worker_death_exhausts_attempts(self):
        report = run_tasks([TaskSpec(key=0, fn=exit_if_small, args=(0,),
                                     max_attempts=2)], jobs=1)
        result = report.results[0]
        assert result.status == "failed"
        assert "worker process died" in result.error
        assert result.attempts == 2
        assert report.stats.worker_crashes == 2

    def test_sibling_survives_neighbor_crash(self):
        specs = [TaskSpec(key=0, fn=exit_if_small, args=(0,)),
                 TaskSpec(key=1, fn=square, args=(7,))]
        report = run_tasks(specs, jobs=2)
        assert report.results[0].status == "failed"
        assert report.results[1].ok
        assert report.results[1].value == 49

    def test_timeout_kills_only_offender(self):
        for start_method in START_METHODS:
            specs = [TaskSpec(key=i, fn=sleep_if_two, args=(i,))
                     for i in (1, 2, 3)]
            start = time.perf_counter()
            report = run_tasks(specs, jobs=2, timeout=2.0,
                               start_method=start_method)
            elapsed = time.perf_counter() - start
            by_key = {r.key: r for r in report.results}
            assert by_key[1].ok and by_key[3].ok
            assert by_key[2].status == "failed"
            assert "timeout after 2.0s" in by_key[2].error
            assert report.stats.timeouts == 1
            # The hung task slept 30s; siblings were not serialized
            # behind it.
            assert elapsed < 20.0

    def test_timeout_excludes_worker_boot(self):
        # A spawned worker takes longer than this timeout to import
        # the simulator; its instant tasks must still finish.
        for start_method in START_METHODS:
            specs = [TaskSpec(key=i, fn=square, args=(i,)) for i in (1, 2)]
            report = run_tasks(specs, jobs=2, timeout=0.3,
                               start_method=start_method)
            assert [r.status for r in report.results] == ["ok", "ok"], \
                [r.error for r in report.results]
            assert report.stats.timeouts == 0


class TestTelemetry:
    def test_stats_accounting(self):
        specs = [TaskSpec(key=i, fn=square, args=(i,)) for i in range(4)]
        report = run_tasks(specs, jobs=2)
        stats = report.stats
        assert stats.tasks_ok == 4
        assert stats.tasks_failed == 0
        assert stats.wall_s > 0
        assert stats.busy_s >= 0
        assert 0.0 <= stats.utilization <= 1.0
        assert sum(stats.tasks_per_worker.values()) == 4
        as_dict = stats.as_dict()
        assert as_dict["jobs"] == 2
        assert as_dict["utilization"] == stats.utilization

    def test_task_telemetry_fields(self):
        report = run_tasks([TaskSpec(key=1, fn=square, args=(3,))], jobs=1)
        telemetry = report.results[0].telemetry
        assert telemetry.worker == 0
        assert telemetry.wall_s >= 0
        assert telemetry.queue_wait_s >= 0
        assert telemetry.attempts == 1
        assert telemetry.last_error is None
        assert set(telemetry.as_dict()) == {"worker", "wall_s",
                                            "queue_wait_s", "result_bytes",
                                            "attempts", "last_error"}

    def test_telemetry_records_attempts_and_last_error(self):
        # A retried-then-succeeded task must be distinguishable in
        # journals/dashboards: the ok-message telemetry carries the
        # attempt count and the reason the earlier attempt failed.
        spec = TaskSpec(key=0, fn=exit_if_small,
                        args=(lambda a: (1 if a == 1 else 1001,)),
                        max_attempts=2)
        report = run_tasks([spec], jobs=1)
        result = report.results[0]
        assert result.ok
        assert result.telemetry.attempts == 2
        assert "worker process died" in result.telemetry.last_error

    def test_failed_telemetry_carries_final_error(self):
        spec = TaskSpec(key=0, fn=boom, args=(5,), max_attempts=2)
        report = run_tasks([spec], jobs=1)
        result = report.results[0]
        assert not result.ok
        assert result.telemetry.attempts == 2
        assert "bad 5" in result.telemetry.last_error

    def test_result_bytes_sized_in_worker(self):
        # The result pipe now reports the pickled payload size — the
        # cost of shipping metrics (and any obs payload riding on them)
        # home. Failed tasks have no result to size.
        report = run_tasks([TaskSpec(key=1, fn=square, args=(3,)),
                            TaskSpec(key=2, fn=boom, args=(2,))], jobs=1)
        ok, failed = report.results
        assert ok.telemetry.result_bytes is not None
        assert ok.telemetry.result_bytes > 0
        assert failed.telemetry.result_bytes is None

    def test_result_bytes_is_the_shipped_pickle(self):
        value = {"peers": list(range(100))}
        report = run_tasks([TaskSpec(key=1, fn=dict, args=(value,))], jobs=1)
        assert report.results[0].value == value
        assert report.results[0].telemetry.result_bytes == len(
            pickle.dumps(value))

    def test_unpicklable_result_fails_attempt_and_worker_serves_on(self):
        report = run_tasks([TaskSpec(key=1, fn=unpicklable, args=(3,)),
                            TaskSpec(key=2, fn=square, args=(4,))], jobs=1)
        failed, ok = report.results
        assert not failed.ok and "pickle" in failed.error.lower()
        assert ok.value == 16
        assert report.stats.workers_spawned == 1


def exit_always(x):
    """Simulates a systematic child failure (e.g. a broken import)."""
    os._exit(7)


#: Cold worker deaths in a row that trip the breaker.
LIMIT = DEFAULT_CRASH_STORM_LIMIT


def crash_until(n):
    """Per-attempt args for :func:`exit_if_small`: the first ``n``
    attempts kill their worker, the next one succeeds."""
    return lambda a: (0 if a <= n else 1000,)


class TestRespawnStormBreaker:
    def test_storm_trips_breaker(self):
        # Every spawned worker dies before completing a single task;
        # without the breaker this would respawn until attempts ran out.
        for start_method in START_METHODS:
            specs = [TaskSpec(key=i, fn=exit_always, args=(i,),
                              max_attempts=2 * LIMIT)
                     for i in range(4)]
            with pytest.raises(RespawnStormError) as excinfo:
                run_tasks(specs, jobs=1, start_method=start_method)
            exc = excinfo.value
            assert exc.deaths == LIMIT
            assert f"{LIMIT} consecutive workers" in str(exc)
            assert exc.last_exitcode == 7

    def test_intermittent_crashes_do_not_trip(self):
        # LIMIT crashes interleaved with completed tasks: every success
        # (and every warm-worker death) resets the breaker, so isolated
        # crashes never read as a storm.
        specs = []
        for i in range(LIMIT):
            specs.append(TaskSpec(
                key=(i, "crash"), fn=exit_if_small,
                args=(lambda a, i=i: (i if a == 1 else i + 1000,)),
                max_attempts=2))
            specs.append(TaskSpec(key=(i, "ok"), fn=square, args=(i,)))
        report = run_tasks(specs, jobs=1)
        assert all(r.ok for r in report.results)
        assert report.stats.worker_crashes == LIMIT

    def test_boundary_one_fewer_than_limit_does_not_trip(self):
        # Exactly limit-1 consecutive cold deaths followed by a success:
        # the breaker must stay closed — it trips at the limit, not
        # before it.
        spec = TaskSpec(key=0, fn=exit_if_small, args=crash_until(LIMIT - 1),
                        max_attempts=LIMIT)
        report = run_tasks([spec], jobs=1)
        result = report.results[0]
        assert result.ok
        assert result.attempts == LIMIT
        assert report.stats.worker_crashes == LIMIT - 1

    def test_boundary_exactly_limit_trips(self):
        # The same workload with one more crash: the limit-th
        # consecutive cold death must raise.
        spec = TaskSpec(key=0, fn=exit_if_small, args=crash_until(LIMIT),
                        max_attempts=LIMIT + 1)
        with pytest.raises(RespawnStormError) as excinfo:
            run_tasks([spec], jobs=1)
        assert excinfo.value.deaths == LIMIT
        assert excinfo.value.last_exitcode == 3

    def test_timeout_kill_interleaved_with_crash_on_same_slot(self):
        # jobs=1: a deliberate timeout kill is followed by limit-1
        # genuine crashes on successive incarnations of the same worker
        # slot. Only the crashes are cold deaths — if the timeout kill
        # counted too, the breaker would trip here.
        specs = [TaskSpec(key="hang", fn=sleep_if_two,
                          args=(lambda a: (2 if a == 1 else 1,)),
                          max_attempts=2)]
        specs += [TaskSpec(key=("crash", i), fn=exit_if_small,
                           args=crash_until(1), max_attempts=2)
                  for i in range(LIMIT - 1)]
        report = run_tasks(specs, jobs=1, timeout=1.0)
        assert all(r.ok and r.attempts == 2 for r in report.results)
        assert report.stats.timeouts == 1
        assert report.stats.worker_crashes == LIMIT - 1
        hang, crash = report.results[0], report.results[1]
        assert "timeout after 1.0s" in hang.telemetry.last_error
        assert "worker process died" in crash.telemetry.last_error
