"""Replicated runs: means, deviations, confidence intervals — and a
crash-safe sweep runner.

A single seed is an anecdote. This module runs a configuration across
several seeds and aggregates the headline metrics — what a careful
reproduction (and the seed-averaged paper-claim tests) should quote.

Two runners are provided:

* :func:`run_replicates` — the original in-process loop: fast, simple,
  but one hung or crashed replicate loses the whole sweep.
* :func:`run_resilient_sweep` — production-scale sweeps on the
  persistent worker-pool engine (:mod:`repro.experiments.executor`):
  ``jobs`` warm workers execute replicates concurrently with crash
  isolation (a segfault or OOM kills one worker, not the sweep),
  per-replicate wall-clock timeouts that stall nobody else, bounded
  retry-with-reseed, and a JSON checkpoint journal that lets an
  interrupted sweep resume from its completed replicates.

The resilient sweep is **order-independent deterministic**: every
replicate's effective seed depends only on ``(config fingerprint,
requested seed, attempt)``, never on which worker ran it or in what
order replicates finished, and journal records are flushed by a single
writer in canonical seed order. Aggregates and journal contents are
therefore digest-identical across ``jobs=1``, ``jobs=8``, an
interrupted-then-resumed run, and a warm re-run served from the
content-addressed result cache (``cache_dir=...``, see
:mod:`repro.experiments.cache`) (:meth:`SweepResult.canonical_digest`,
:func:`journal_digest`). Telemetry — per-replicate wall time, queue
wait, worker id, any :mod:`repro.obs` payload the replicate sampled
(compacted series, profile aggregates, trace counts), and the
end-of-sweep utilization summary — rides along in dedicated fields
that the digests deliberately exclude.

Confidence intervals use the normal approximation
``mean ± z * std / sqrt(n)``; with the typical 3-10 replicates this is
a pragmatic error bar, not a exact small-sample interval — callers
needing exactness can take the raw ``values`` and do their own
statistics (scipy's t-distribution, bootstrap, ...).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.experiments.cache import ResultCache
from repro.experiments.executor import TaskResult, TaskSpec, run_tasks
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SimulationMetrics
from repro.sim.runner import run_simulation

__all__ = ["MetricSummary", "ReplicateResult", "run_replicates",
           "ReplicateOutcome", "SweepResult", "run_resilient_sweep",
           "journal_digest", "HEADLINE_METRICS"]

#: Metric name -> extractor used by :func:`run_replicates`.
HEADLINE_METRICS: Dict[str, Callable[[SimulationMetrics], Optional[float]]] = {
    "mean_completion_time": lambda m: m.mean_completion_time(),
    "completion_fraction": lambda m: m.completion_fraction(),
    "final_fairness": lambda m: m.final_fairness(),
    "mean_bootstrap_time": lambda m: m.mean_bootstrap_time(),
    "susceptibility": lambda m: m.susceptibility(),
}

#: Two-sided z value for a 95% normal interval.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class MetricSummary:
    """Aggregate of one metric across replicates.

    ``n_missing`` counts replicate values that were ``None`` or
    non-finite (a metric with no data — e.g. nobody completed — or a
    replicate that failed outright); the mean/std/CI are computed over
    the finite values only, and are ``nan`` when there are none.
    """

    name: str
    values: tuple
    mean: float
    std: float
    ci_low: float
    ci_high: float
    n_missing: int = 0

    @property
    def n(self) -> int:
        return len(self.values)


def _summarise(name: str, values: Sequence[Optional[float]]) -> MetricSummary:
    finite = [v for v in values if v is not None and math.isfinite(v)]
    n_missing = len(values) - len(finite)
    if not finite:
        # No usable data at all: report nan, not a misleading "infinite
        # mean" — report tables render nan as missing, inf as a value.
        nan = float("nan")
        return MetricSummary(name, tuple(values), nan, nan, nan, nan,
                             n_missing=n_missing)
    mean = sum(finite) / len(finite)
    if len(finite) > 1:
        var = sum((v - mean) ** 2 for v in finite) / (len(finite) - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    half = _Z95 * std / math.sqrt(len(finite))
    return MetricSummary(name, tuple(values), mean, std,
                         mean - half, mean + half, n_missing=n_missing)


@dataclass(frozen=True)
class ReplicateResult:
    """All replicate summaries for one configuration."""

    config: SimulationConfig
    seeds: tuple
    metrics: Dict[str, MetricSummary]

    def __getitem__(self, name: str) -> MetricSummary:
        return self.metrics[name]

    def to_rows(self) -> List[Dict[str, float]]:
        """Table-friendly rows: one per metric."""
        return [{
            "metric": s.name,
            "mean": s.mean,
            "std": s.std,
            "ci_low": s.ci_low,
            "ci_high": s.ci_high,
            "n": s.n,
            "n_missing": s.n_missing,
        } for s in self.metrics.values()]


def run_replicates(config: SimulationConfig,
                   seeds: Iterable[int],
                   extractors: Optional[Dict[str, Callable]] = None,
                   ) -> ReplicateResult:
    """Run ``config`` once per seed and aggregate the metrics.

    ``extractors`` defaults to :data:`HEADLINE_METRICS`; pass your own
    mapping to aggregate anything a :class:`SimulationMetrics` exposes.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    chosen = extractors or HEADLINE_METRICS
    collected: Dict[str, List[Optional[float]]] = {
        name: [] for name in chosen}
    for seed in seeds:
        metrics = run_simulation(config.with_seed(seed)).metrics
        for name, extract in chosen.items():
            collected[name].append(extract(metrics))
    summaries = {name: _summarise(name, values)
                 for name, values in collected.items()}
    return ReplicateResult(config=config, seeds=seeds, metrics=summaries)


# ----------------------------------------------------------------------
# Crash-safe sweep runner
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicateOutcome:
    """What happened to one replicate of a resilient sweep.

    ``seed`` is the requested seed; ``used_seed`` the one that actually
    produced the result (they differ when a crash/timeout forced a
    retry-with-reseed). ``values`` holds the extracted metrics, all
    ``None`` when the replicate exhausted its attempts and was recorded
    as failed. ``telemetry`` (worker id, wall time, queue wait) is
    observational and excluded from determinism digests.

    ``termination`` and ``n_stuck`` say how the replicate's run ended
    (:attr:`repro.sim.metrics.SimulationMetrics.termination`; ``None``
    for a failed replicate or a task that returns no metrics); they
    are deterministic, journaled and part of the canonical digest.
    ``bundle_path`` links to the crash-forensics bundle the guards
    wrote (violation or exception); it is machine-local, so — like
    telemetry — it is journaled but digest-excluded.

    ``digest_lineage`` records which determinism contract produced the
    values (``"parity-v1"`` for the draw-exact object/vector engines,
    ``"fast-v1"`` for the batched-sampling backend — see
    :attr:`repro.sim.metrics.SimulationMetrics.digest_lineage`). It is
    deterministic, journaled, and part of the canonical digest:
    fast-lineage results can never silently stand in for parity ones.
    """

    seed: int
    used_seed: int
    attempts: int
    status: str  # "ok" | "failed"
    error: Optional[str]
    values: Dict[str, Optional[float]]
    telemetry: Optional[Dict[str, Any]] = None
    termination: Optional[str] = None
    n_stuck: Optional[int] = None
    bundle_path: Optional[str] = None
    digest_lineage: str = "parity-v1"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def canonical_dict(self) -> Dict[str, Any]:
        """The deterministic portion of this outcome (no telemetry,
        no machine-local bundle path)."""
        return {
            "seed": self.seed,
            "used_seed": self.used_seed,
            "attempts": self.attempts,
            "status": self.status,
            "error": self.error,
            "values": dict(self.values),
            "termination": self.termination,
            "n_stuck": self.n_stuck,
            "digest_lineage": self.digest_lineage,
        }


@dataclass(frozen=True)
class SweepResult:
    """Aggregates plus per-replicate outcomes of a resilient sweep.

    ``telemetry`` is the engine's end-of-sweep summary (worker count,
    utilization, crashes, timeouts, retries, ...); it describes *how*
    the sweep ran and is excluded from :meth:`canonical_digest`.
    """

    config: SimulationConfig
    seeds: tuple
    outcomes: Tuple[ReplicateOutcome, ...]
    metrics: Dict[str, MetricSummary]
    resumed: int  # replicates restored from the checkpoint journal
    cached: int = 0  # replicates fetched from the result cache
    telemetry: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, name: str) -> MetricSummary:
        return self.metrics[name]

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def to_rows(self) -> List[Dict[str, float]]:
        return [{
            "metric": s.name,
            "mean": s.mean,
            "std": s.std,
            "ci_low": s.ci_low,
            "ci_high": s.ci_high,
            "n": s.n,
            "n_missing": s.n_missing,
        } for s in self.metrics.values()]

    def canonical_digest(self) -> str:
        """SHA-256 over everything deterministic in this sweep.

        Identical for ``jobs=1`` vs ``jobs=N`` and for interrupted-
        then-resumed vs uninterrupted runs of the same configuration;
        telemetry (timings, worker ids, utilization) is excluded.
        """
        payload = {
            "config": _config_fingerprint(self.config),
            "seeds": list(self.seeds),
            "outcomes": [o.canonical_dict() for o in self.outcomes],
            "metrics": {name: {
                "values": list(s.values),
                "mean": s.mean,
                "std": s.std,
                "ci_low": s.ci_low,
                "ci_high": s.ci_high,
                "n_missing": s.n_missing,
            } for name, s in self.metrics.items()},
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _replicate_task(config: SimulationConfig, seed: int) -> SimulationMetrics:
    """Default worker task: one full simulation run (module-level so it
    pickles into the worker process)."""
    return run_simulation(config.with_seed(seed)).metrics


def _derive_seed(fingerprint: str, seed: int, attempt: int) -> int:
    """Deterministic retry seed for attempt >= 2.

    Derived from ``(config fingerprint, requested seed, attempt)``
    only — independent of worker assignment, completion order, and
    resume boundaries, so a retried replicate lands on the same
    effective seed no matter how the sweep is scheduled. Attempt 1
    always uses the requested seed itself (see :func:`_used_seed`).
    """
    digest = hashlib.sha256(
        f"{fingerprint}|{seed}|{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _used_seed(fingerprint: str, seed: int, attempt: int) -> int:
    return seed if attempt <= 1 else _derive_seed(fingerprint, seed, attempt)


def _config_fingerprint(config: SimulationConfig) -> str:
    """Stable identity of a configuration for journal validation.

    ``repr(config)`` deliberately excludes the backend (object and
    vector are digest-identical, so they share journals and cache
    entries), but the fast lineage is *not* interchangeable with the
    parity one — its replicates draw from a different RNG contract.
    Non-parity lineages are therefore marked into the fingerprint, so
    a fast sweep can never resume from (or be served cached results
    of) a parity sweep, and vice versa.

    Hybrid runs (``config.population`` set) additionally append their
    shard plan *and* the subswarm backend: population, subswarm count,
    and coupling interval all change the physics, and unlike plain
    runs the two shard backends are not interchangeable inside one
    hybrid journal (a parity-backend hybrid and a fast-backend hybrid
    produce different hybrid-v1 digests).
    """
    base = repr(config)
    lineage = config.digest_lineage
    if config.population is not None:
        return (f"{base}<digest_lineage={lineage}>"
                f"<hybrid population={config.population} "
                f"n_subswarms={config.n_subswarms} "
                f"coupling_interval={config.coupling_interval} "
                f"backend={config.backend}>")
    if lineage != "parity-v1":
        return f"{base}<digest_lineage={lineage}>"
    return base


def _journal_append(path: str, record: Dict[str, Any]) -> None:
    """Append one JSON line and force it to disk (crash safety).

    Only ever called from the sweep's parent process, in canonical
    seed order (the engine emits completions as an in-order prefix) —
    the single-writer path that keeps journal bytes independent of
    worker count and completion order.
    """
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def _journal_load(path: str, fingerprint: str,
                  metric_names: Sequence[str],
                  ) -> Dict[int, ReplicateOutcome]:
    """Read completed replicates back from a checkpoint journal.

    Truncated trailing lines (the sweep died mid-write) are ignored;
    a journal written for a different configuration or metric set is
    rejected rather than silently producing mixed aggregates.
    """
    if not os.path.exists(path):
        return {}
    completed: Dict[int, ReplicateOutcome] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from a killed sweep
            if record.get("kind") == "header":
                if record.get("config") != fingerprint:
                    raise ValueError(
                        f"checkpoint journal {path!r} was written for a "
                        "different configuration; delete it or use a "
                        "fresh path")
                if set(record.get("metrics", [])) != set(metric_names):
                    raise ValueError(
                        f"checkpoint journal {path!r} aggregates different "
                        "metrics; delete it or use a fresh path")
                continue
            if record.get("kind") != "replicate":
                continue  # summary/telemetry records are observational
            if "termination" not in record:
                continue  # written before runs said how they ended: re-run
            values = {name: record["values"].get(name)
                      for name in metric_names}
            completed[int(record["seed"])] = ReplicateOutcome(
                seed=int(record["seed"]),
                used_seed=int(record["used_seed"]),
                attempts=int(record["attempts"]),
                status=record["status"],
                error=record.get("error"),
                values=values,
                telemetry=record.get("telemetry"),
                termination=record["termination"],
                n_stuck=record.get("n_stuck"),
                bundle_path=record.get("bundle_path"),
                # Journals written before lineages existed are all
                # parity runs — the fast backend postdates the field.
                digest_lineage=record.get("digest_lineage", "parity-v1"),
            )
    return completed


def journal_digest(path: str) -> str:
    """SHA-256 over a journal's deterministic content.

    Covers the header and every parseable replicate record with the
    ``telemetry`` key removed; summary records, torn trailing lines,
    and unknown kinds are skipped. Two sweeps of the same configuration
    produce the same digest regardless of ``jobs`` and regardless of
    interrupt/resume boundaries.
    """
    canonical: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            kind = record.get("kind")
            if kind not in ("header", "replicate"):
                continue
            record.pop("telemetry", None)
            # Bundle paths are machine-local (absolute paths under the
            # configured bundle dir): journaled for forensics, but not
            # part of the sweep's deterministic identity.
            record.pop("bundle_path", None)
            canonical.append(json.dumps(record, sort_keys=True))
    blob = "\n".join(canonical)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_resilient_sweep(config: SimulationConfig,
                        seeds: Iterable[int],
                        extractors: Optional[Dict[str, Callable]] = None,
                        *,
                        journal_path: Optional[str] = None,
                        timeout: Optional[float] = None,
                        max_attempts: int = 3,
                        task: Callable[..., Any] = _replicate_task,
                        jobs: Optional[int] = None,
                        start_method: Optional[str] = None,
                        cache_dir: Optional[str] = None,
                        cache_strict: bool = False,
                        ) -> SweepResult:
    """Crash-safe replicated sweep on a persistent worker pool.

    ``jobs`` warm workers (default: usable cores minus one) pull
    replicates from a shared queue — no per-replicate process spawn. A
    replicate that crashes its worker or exceeds ``timeout`` seconds of
    wall clock is retried at once — up to ``max_attempts`` total tries,
    each with a deterministically reseeded configuration — and recorded
    as failed (not fatal to the sweep) if every attempt dies; only the
    affected worker is killed and respawned, its siblings keep running.

    Completed replicates are appended to ``journal_path`` (JSON lines,
    fsynced, single writer, canonical seed order), so re-running the
    same call after an interruption resumes from where the sweep died
    and yields aggregates — and journal bytes — identical to an
    uninterrupted run at any ``jobs``.

    **Result cache.** Pass ``cache_dir`` to persist completed ``ok``
    outcomes in a :class:`repro.experiments.cache.ResultCache`,
    content-addressed by ``(config fingerprint, seed)``, and fetch them
    on overlapping re-runs: cache hits are journaled in canonical order
    exactly like recomputed replicates, so a warm-cache sweep is
    digest-identical to a cold one. An entry cached under different
    extractors is a miss and is recomputed and re-stored. Corrupt
    entries count as misses unless ``cache_strict`` (then
    ``CacheCorruptionError``).

    ``task(config, seed)`` must be picklable (module-level); it
    defaults to running the simulation and returning its metrics.
    ``extractors`` run in the parent process on the task's return
    value, so they may be lambdas. ``start_method`` selects the
    multiprocessing context; ``None`` lets the executor choose
    (``"fork"`` where it is safe, else ``"spawn"``; see
    :func:`repro.experiments.executor.resolve_start_method`). It
    changes how fast workers start, never what a replicate computes:
    digests, journals and cache entries are the same under either.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    chosen = extractors or HEADLINE_METRICS
    metric_names = list(chosen)
    fingerprint = _config_fingerprint(config)

    completed: Dict[int, ReplicateOutcome] = {}
    if journal_path is not None:
        completed = _journal_load(journal_path, fingerprint, metric_names)
        if not os.path.exists(journal_path):
            _journal_append(journal_path, {
                "kind": "header", "config": fingerprint,
                "metrics": metric_names})
    resumed = sum(1 for seed in seeds if seed in completed)

    cache = (ResultCache(cache_dir, strict=cache_strict)
             if cache_dir is not None else None)

    outcome_by_seed: Dict[int, ReplicateOutcome] = dict(completed)
    journaled = set(completed)

    cached_hits = 0
    if cache is not None:
        for seed in seeds:
            if seed in outcome_by_seed:
                continue
            record = cache.get(fingerprint, seed)
            if record is None:
                continue
            outcome = _outcome_from_cached(record, metric_names)
            if outcome is None:
                # Readable entry, but cached under different extractors
                # (or malformed payload): a plain miss, not corruption.
                cache.stats.hits -= 1
                cache.stats.misses += 1
                continue
            outcome_by_seed[seed] = outcome
            cached_hits += 1

    todo = [seed for seed in seeds if seed not in outcome_by_seed]

    emit_cursor = 0

    def _drain() -> None:
        """Journal the contiguous finished prefix, in canonical seed
        order, regardless of whether each outcome came from the
        journal (skip), the cache, or a just-finished task — the
        single-writer path that keeps warm-cache journal bytes
        identical to a cold run's."""
        nonlocal emit_cursor
        while (emit_cursor < len(seeds)
               and seeds[emit_cursor] in outcome_by_seed):
            seed = seeds[emit_cursor]
            emit_cursor += 1
            if seed in journaled:
                continue
            journaled.add(seed)
            if journal_path is None:
                continue
            outcome = outcome_by_seed[seed]
            record = {"kind": "replicate", **outcome.canonical_dict()}
            record["telemetry"] = outcome.telemetry
            if outcome.bundle_path is not None:
                record["bundle_path"] = outcome.bundle_path
            _journal_append(journal_path, record)

    _drain()  # flush any cache-hit prefix before computing

    def _args_for(seed: int) -> Callable[[int], tuple]:
        return lambda attempt: (config, _used_seed(fingerprint, seed,
                                                   attempt))

    def _on_result(result: TaskResult) -> None:
        outcome = _outcome_from_result(result, fingerprint, chosen,
                                       metric_names, max_attempts,
                                       lineage=config.digest_lineage)
        outcome_by_seed[outcome.seed] = outcome
        if cache is not None and outcome.ok:
            cache.put(fingerprint, outcome.seed, outcome.canonical_dict())
        _drain()

    specs = [TaskSpec(key=seed, fn=task, args=_args_for(seed),
                      max_attempts=max_attempts)
             for seed in todo]
    report = run_tasks(specs, jobs=jobs, timeout=timeout,
                       on_result=_on_result, start_method=start_method)
    sweep_telemetry = report.stats.as_dict()
    if cache is not None:
        sweep_telemetry["cache"] = cache.stats.as_dict()
    if journal_path is not None:
        _journal_append(journal_path, {"kind": "summary",
                                       "telemetry": sweep_telemetry})

    outcomes = [outcome_by_seed[seed] for seed in seeds]
    summaries = {
        name: _summarise(name, [o.values.get(name) for o in outcomes])
        for name in metric_names}
    return SweepResult(config=config, seeds=seeds,
                       outcomes=tuple(outcomes), metrics=summaries,
                       resumed=resumed, cached=cached_hits,
                       telemetry=sweep_telemetry)


def _outcome_from_cached(record: Any, metric_names: Sequence[str],
                         ) -> Optional[ReplicateOutcome]:
    """Rebuild a replicate outcome from a cached canonical dict.

    Returns ``None`` when the entry — though intact — does not match
    this sweep's metric set or shape (cached by a sweep with different
    extractors): callers treat that as a plain miss.
    """
    if not isinstance(record, dict) or record.get("status") != "ok":
        return None
    values = record.get("values")
    if not isinstance(values, dict) or set(values) != set(metric_names):
        return None
    try:
        return ReplicateOutcome(
            seed=int(record["seed"]),
            used_seed=int(record["used_seed"]),
            attempts=int(record["attempts"]),
            status="ok",
            error=record.get("error"),
            values={name: values.get(name) for name in metric_names},
            telemetry={"cache": "hit"},
            termination=record.get("termination"),
            n_stuck=record.get("n_stuck"),
            digest_lineage=record.get("digest_lineage", "parity-v1"))
    except (KeyError, TypeError, ValueError):
        return None


def _outcome_from_result(result: TaskResult, fingerprint: str,
                         extractors: Dict[str, Callable],
                         metric_names: Sequence[str],
                         max_attempts: int,
                         lineage: str = "parity-v1") -> ReplicateOutcome:
    """Turn an engine task result into a journaled replicate outcome."""
    seed = result.key
    telemetry = result.telemetry.as_dict()
    if result.ok:
        # Observability payloads (compacted series, profile aggregates,
        # trace counts — see repro.obs) ride home on ``metrics.obs``;
        # lift them into the outcome's telemetry so sweeps journal them
        # without perturbing any determinism digest (journal_digest and
        # canonical_digest both exclude telemetry).
        obs_payload = getattr(result.value, "obs", None)
        if obs_payload is not None:
            telemetry["obs"] = obs_payload
        values = {name: extract(result.value)
                  for name, extract in extractors.items()}
        return ReplicateOutcome(
            seed=seed,
            used_seed=_used_seed(fingerprint, seed, result.attempts),
            attempts=result.attempts, status="ok", error=None,
            values=values, telemetry=telemetry,
            termination=getattr(result.value, "termination", None),
            n_stuck=getattr(result.value, "n_stuck", None),
            digest_lineage=getattr(result.value, "digest_lineage",
                                   "parity-v1"))
    error = (f"{result.error} "
             f"(attempt {result.attempts}/{max_attempts})")
    # Guard failures embed their forensics bundle in the message
    # (exceptions cross the worker pipe as strings); lift it out so
    # the journal links straight to the bundle.
    match = re.search(r"\[bundle: ([^\]]+)\]", result.error or "")
    return ReplicateOutcome(
        seed=seed, used_seed=seed, attempts=result.attempts,
        status="failed", error=error,
        values={name: None for name in metric_names},
        telemetry=telemetry,
        bundle_path=match.group(1) if match else None,
        digest_lineage=lineage)
