"""Per-layer metrics of one traced pass.

Names follow the simulator's modules. Counts are exact; times are
summed host seconds; a ``self`` time excludes the wrapped calls made
inside it. Work done inside executor workers (sweep replicates, hybrid
shards) is counted from what the workers return: the executor's
``ExecutionReport`` telemetry and the metrics each task sends back.
Layers a workload does not run report zero.

Which end-to-end metric each layer should move, on which workload:

* ``vector.*``/``kernel.*`` (array engines) - ``wall_s``/``cpu_s`` on
  flash-crowd, and on hybrid-1m through its shards; no change on figures.
* ``object.*``/``strategy.*`` (object engine, strategies, attacks) -
  ``wall_s`` on figures only.
* ``metrics.*`` (collector) - ``wall_s`` on flash-crowd and figures.
* ``figures.aggregate_s`` - ``wall_s`` on figures.
* ``executor.*`` - ``wall_s``, ``cpu_s``, ``peak_rss_mb`` on fault-sweep
  (spawn and imbalance bound) and hybrid-1m (pickle bound).
* ``sweep.*``/``cache.*``/``journal.*`` - ``wall_s`` on fault-sweep.
* ``faults.*`` - counts only; ``wall_s`` on fault-sweep.
* ``hybrid.*``/``fluid.*`` - ``wall_s``, ``peak_rss_mb`` on hybrid-1m.
* ``runs*``/``rounds.total`` (termination) - ``wall_s`` on flash-crowd
  (reciprocity idles to the cap) and hybrid-1m (T-Chain's stall).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.names import Algorithm

__all__ = ["PER_LAYER", "PARALLEL_METRICS", "layer_metrics"]

MECHS = tuple(a.value for a in Algorithm)

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("vector.build_s", "s", "lower"),
    ("vector.run_s", "s", "lower"),
    *[(f"vector.run_s.{m}", "s", "lower") for m in MECHS],
    ("vector.rounds", "count", "lower"),
    ("vector.transfers", "count", "higher"),
    ("vector.us_per_transfer", "us", "lower"),
    *[(f"kernel.{m}.{k}", u, "lower") for m in MECHS
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("kernel.spray.calls", "count", "lower"),
    ("kernel.spray.self_s", "s", "lower"),
    ("vector.outside_kernels_s", "s", "lower"),
    ("object.build_s", "s", "lower"),
    ("object.run_s", "s", "lower"),
    ("object.rounds", "count", "lower"),
    ("object.transfers", "count", "higher"),
    ("object.us_per_transfer", "us", "lower"),
    *[(f"strategy.{m}.{k}", u, "lower")
      for m in MECHS + ("freerider", "seeder")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("object.send.calls", "count", "lower"),
    ("object.send.s", "s", "lower"),
    ("metrics.sample.calls", "count", "lower"),
    ("metrics.sample.s", "s", "lower"),
    ("metrics.finalize.s", "s", "lower"),
    ("figures.aggregate_s", "s", "lower"),
    ("executor.pools", "count", "lower"),
    ("executor.workers_spawned", "count", "lower"),
    ("executor.tasks", "count", "lower"),
    ("executor.busy_s", "s", "lower"),
    ("executor.pool_wall_s", "s", "lower"),
    ("executor.utilization", "ratio", "higher"),
    ("executor.idle_worker_s", "s", "lower"),
    ("executor.queue_wait_s", "s", "lower"),
    ("executor.result_bytes", "B", "lower"),
    ("executor.retries", "count", "lower"),
    ("executor.tasks_failed", "count", "lower"),
    ("sweep.calls", "count", "lower"),
    ("sweep.cold_s", "s", "lower"),
    ("sweep.warm_s", "s", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("journal.records", "count", "lower"),
    ("journal.bytes", "B", "lower"),
    ("faults.transfers_lost", "count", "lower"),
    ("faults.transfers_retried", "count", "lower"),
    ("faults.peer_crashes", "count", "lower"),
    ("faults.seeder_outages", "count", "lower"),
    ("faults.obligations_expired", "count", "lower"),
    ("faults.reports_delayed", "count", "lower"),
    ("faults.reports_dropped", "count", "lower"),
    ("hybrid.shards", "count", "lower"),
    ("hybrid.shards_s", "s", "lower"),
    ("hybrid.aggregate_s", "s", "lower"),
    ("fluid.calls", "count", "lower"),
    ("fluid.s", "s", "lower"),
    *[(f"hybrid.rounds.{m}", "count", "lower") for m in MECHS],
    ("hybrid.conservation_errors", "count", "lower"),
    ("runs", "count", "lower"),
    ("runs.complete", "count", "higher"),
    ("runs.at_cap", "count", "lower"),
    ("rounds.total", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("ops_failed_frac", "ratio", "lower"),
]

#: Executor timings that only mean something when every worker had a
#: CPU of its own; reported as not measured otherwise.
PARALLEL_METRICS = ("executor.busy_s", "executor.pool_wall_s",
                    "executor.utilization", "executor.idle_worker_s",
                    "executor.queue_wait_s")

#: FaultCounters field behind each ``faults.*`` metric.
FAULT_FIELDS = {
    "faults.transfers_lost": "transfers_lost",
    "faults.transfers_retried": "transfers_retried",
    "faults.peer_crashes": "peer_crashes",
    "faults.seeder_outages": "seeder_outages",
    "faults.obligations_expired": "obligations_expired",
    "faults.reports_delayed": "delayed_reports",
    "faults.reports_dropped": "reports_dropped",
}


def _engine_counts(m: Dict[str, float], prefix: str, runs: Sequence,
                   run_s: float) -> None:
    transfers = sum(x.total_uploaded for _, x in runs)
    m[f"{prefix}.rounds"] = sum(x.rounds_run for _, x in runs)
    m[f"{prefix}.transfers"] = transfers
    m[f"{prefix}.us_per_transfer"] = (1e6 * run_s / transfers
                                      if transfers else 0.0)


def _executor(m: Dict[str, float], reports: Sequence) -> None:
    stats = [report.stats for _, report in reports]
    tasks = [task for _, report in reports for task in report.results]
    busy = sum(s.busy_s for s in stats)
    capacity = sum(s.jobs * s.wall_s for s in stats)
    m["executor.pools"] = sum(1 for s in stats if s.jobs > 0)
    m["executor.workers_spawned"] = sum(s.workers_spawned for s in stats)
    m["executor.tasks"] = len(tasks)
    m["executor.busy_s"] = busy
    m["executor.pool_wall_s"] = sum(s.wall_s for s in stats)
    m["executor.utilization"] = busy / capacity if capacity else 0.0
    m["executor.idle_worker_s"] = capacity - busy
    m["executor.queue_wait_s"] = sum(t.telemetry.queue_wait_s for t in tasks)
    m["executor.result_bytes"] = sum(t.telemetry.result_bytes or 0
                                     for t in tasks)
    m["executor.retries"] = sum(s.retries for s in stats)
    m["executor.tasks_failed"] = sum(s.tasks_failed for s in stats)


def layer_metrics(tracer, out, reports) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s`` and
    ``ops_failed_frac``, which need the whole run."""
    t = tracer
    m: Dict[str, float] = {}

    inproc = [(c, x) for where, c, x in out.runs if where == "inproc"]
    vector_runs = [(c, x) for c, x in inproc if c.backend != "object"]
    object_runs = [(c, x) for c, x in inproc if c.backend == "object"]

    # Array engines and their kernels.
    m["vector.build_s"] = t.self_s("vector.build") + t.self_s(
        "vector.build.fast")
    per_mech = {mech: t.total_s(f"vector.run.{mech}") for mech in MECHS}
    vector_run_s = sum(per_mech.values())
    m["vector.run_s"] = vector_run_s
    for mech, seconds in per_mech.items():
        m[f"vector.run_s.{mech}"] = seconds
    _engine_counts(m, "vector", vector_runs, vector_run_s)
    for mech in MECHS + ("spray",):
        m[f"kernel.{mech}.calls"] = t.calls(f"kernel.{mech}")
        m[f"kernel.{mech}.self_s"] = t.self_s(f"kernel.{mech}")
    m["vector.outside_kernels_s"] = vector_run_s - t.sum_where(
        lambda name: name.startswith("kernel."), 1)

    # Object engine, strategies, attacks and the send primitives.
    m["object.build_s"] = t.total_s("object.build")
    object_run_s = t.sum_where(lambda name: name.startswith("object.run."), 1)
    m["object.run_s"] = object_run_s
    _engine_counts(m, "object", object_runs, object_run_s)
    for who in MECHS + ("freerider", "seeder"):
        m[f"strategy.{who}.calls"] = t.calls(f"strategy.{who}")
        m[f"strategy.{who}.self_s"] = t.self_s(f"strategy.{who}")
    def is_send(name: str) -> bool:
        return name.startswith("send.")

    m["object.send.calls"] = int(t.sum_where(is_send, 0))
    # Sends nest (tchain_fulfill may call transfer_plain): summing self
    # times counts each second once.
    m["object.send.s"] = t.sum_where(is_send, 2)

    m["metrics.sample.calls"] = t.calls("metrics.sample")
    m["metrics.sample.s"] = t.total_s("metrics.sample")
    m["metrics.finalize.s"] = t.total_s("metrics.finalize")
    m["figures.aggregate_s"] = t.sum_where(
        lambda name: name.startswith("figure."), 2)

    _executor(m, reports)

    m["sweep.calls"] = t.calls("sweep.cold") + t.calls("sweep.warm")
    m["sweep.cold_s"] = t.total_s("sweep.cold")
    m["sweep.warm_s"] = t.total_s("sweep.warm")
    m["sweep.self_s"] = t.self_s("sweep.cold") + t.self_s("sweep.warm")
    for name in ("cache.hits", "cache.misses", "cache.hit_ratio",
                 "journal.records", "journal.bytes"):
        m[name] = out.layer.get(name, 0)

    for name, attr in FAULT_FIELDS.items():
        m[name] = sum(getattr(x.faults, attr) for _, _, x in out.runs)

    shards_s = t.child_total_s("hybrid.", "executor.run_tasks")
    m["hybrid.shards"] = out.layer.get("hybrid.shards", 0)
    m["hybrid.shards_s"] = shards_s
    m["hybrid.aggregate_s"] = t.sum_where(
        lambda name: name.startswith("hybrid."), 1) - shards_s
    m["fluid.calls"] = t.calls("fluid")
    m["fluid.s"] = t.total_s("fluid")
    for mech in MECHS:
        m[f"hybrid.rounds.{mech}"] = out.layer.get(f"hybrid.rounds.{mech}", 0)
    m["hybrid.conservation_errors"] = out.layer.get(
        "hybrid.conservation_errors", 0)

    at_cap = sum(1 for _, c, x in out.runs if x.rounds_run >= c.max_rounds)
    m["runs"] = len(out.runs)
    m["runs.complete"] = len(out.runs) - at_cap
    m["runs.at_cap"] = at_cap
    m["rounds.total"] = sum(x.rounds_run for _, _, x in out.runs)
    return m
