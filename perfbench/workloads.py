"""The four benchmark workloads: inputs, timed work and output checks.

Each workload is built from the ``--seed`` alone (the constructor is
the set-up the ``setup_s`` metric times), runs its timed work in
``run`` and checks the outputs in ``check``, outside the timed region.
One *operation* is one simulation run, sweep replicate or hybrid run;
``check`` returns one :class:`Op` per operation, the outputs digests in
canonical order, and the engine runs the layer metrics count.

Why these four (each stresses a different layer):

* ``flash-crowd`` - the paper's 1000-user flash crowd on ``vector-fast``
  for all seven mechanisms, in-process: the array kernels do the work;
  no executor, no faults. Reciprocity idles to ``max_rounds``.
* ``figures`` - ``figure4``/``5``/``6`` at ``default_scale(seed)`` on the
  object engine, as ``python -m repro figureN`` runs them: strategies and
  attacks do the work; no array kernels, no executor.
* ``fault-sweep`` - a degradation sweep over every mechanism with all
  five fault axes on ``backend="vector"``, cold and then warm from the
  result cache: many short executor tasks, the journal and the cache.
* ``hybrid-1m`` - 1,000,000 peers as 16 x 1000 ``vector-fast``
  subswarms: few long executor tasks, large result pickles, the fluid
  aggregation, and T-Chain's end-game stall to the 600-round cap.
"""

from __future__ import annotations

import hashlib
import os
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments import figures
from repro.experiments.replicates import run_resilient_sweep
from repro.experiments.scenarios import default_scale, paper_scale, smoke_scale
from repro.names import ALL_ALGORITHMS, EXTENDED_ALGORITHMS, Algorithm
from repro.sim.config import SimulationConfig
from repro.sim.faults import FaultConfig
from repro.sim.hybrid import hybrid_digest, run_hybrid_simulation, shard_config
from repro.sim.metrics import SimulationMetrics, metrics_digest
from repro.sim.runner import run_simulation

__all__ = ["JOBS", "Op", "PassOutput", "WORKLOADS", "make_workload", "tally"]

#: Worker processes for the parallel workloads: the reference host has
#: two cores. Fixed, so the work is the same on every host; a host with
#: fewer usable CPUs reports the parallel metrics as not measured.
JOBS = 2

#: Piece count of the flash crowd. The paper uses 512; 16 keeps one
#: seven-mechanism pass near 9 s on the reference host while every
#: mechanism still runs its whole flash crowd (reciprocity still idles
#: its 2000 rounds).
FLASH_PIECES = 16

#: The all-axes fault scenario of the degradation sweep, with the loss
#: rate varied over ``SWEEP_LOSS_RATES``.
SWEEP_FAULTS = dict(crash_hazard=0.002, seeder_outage_rate=0.05,
                    seeder_outage_duration=3, report_delay_rounds=2,
                    obligation_expiry_rounds=12)
SWEEP_LOSS_RATES = (0.1, 0.3)
SWEEP_SEEDS = 2

HYBRID_ALGORITHMS = (Algorithm.TCHAIN, Algorithm.ALTRUISM)
#: Pieces per hybrid subswarm (16 rather than 64 keeps the two hybrid
#: runs near 13 s; T-Chain still stalls to its 600-round cap).
HYBRID_PIECES = 16

@dataclass(frozen=True)
class Op:
    """One operation and why it failed (``None`` when it passed)."""

    label: str
    error: Optional[str] = None


@dataclass
class PassOutput:
    """What ``check`` makes of one pass."""

    ops: List[Op] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    #: Every engine run of the pass: (where, config, metrics), where is
    #: ``"inproc"`` or ``"worker"``.
    runs: List[Tuple[str, SimulationConfig, SimulationMetrics]] = \
        field(default_factory=list)
    #: Layer values only the workload can see (sweep, cache, journal,
    #: hybrid ledger).
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.error is not None)

    def outputs_digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def tally(outputs: Sequence[PassOutput]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, reasons) over the passes of one run.

    Every pass repeats the same inputs, so a pass whose outputs digest
    differs from the first pass's fails all of its operations.
    """
    attempted = failed = 0
    errors: List[str] = []
    first = outputs[0].outputs_digest()
    for out in outputs:
        attempted += len(out.ops)
        errors.extend(f"{op.label}: {op.error}" for op in out.ops
                      if op.error is not None)
        if out.outputs_digest() == first:
            failed += out.failed
        else:
            failed += len(out.ops)
            errors.append(f"pass digest {out.outputs_digest()} differs "
                          f"from the first pass's {first}")
    return attempted, failed, errors


def _attempt(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the exception it raised (printed)."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # an operation that raises is a failed op
        traceback.print_exc()
        return exc


def _run_errors(config: SimulationConfig,
                metrics: SimulationMetrics) -> Optional[str]:
    """Output checks every engine run must pass."""
    if metrics.total_uploaded != metrics.total_received_raw:
        return (f"conservation broken: uploaded {metrics.total_uploaded} "
                f"!= received {metrics.total_received_raw}")
    expected = config.digest_lineage
    if metrics.digest_lineage != expected:
        return (f"{config.backend} run stamped {metrics.digest_lineage!r}, "
                f"expected {expected!r}")
    return None


def _check_results(out: PassOutput, label: str,
                   pairs: Sequence[Tuple[SimulationConfig, Any]]) -> None:
    """Checks for in-process runs (results or exceptions)."""
    for config, result in pairs:
        op = f"{label}/{config.algorithm.value}"
        if isinstance(result, Exception):
            out.ops.append(Op(op, f"raised {result!r}"))
            out.digests.append(f"{op}:raised")
            continue
        out.runs.append(("inproc", config, result.metrics))
        out.ops.append(Op(op, _run_errors(config, result.metrics)))
        out.digests.append(f"{op}:{metrics_digest(result.metrics)}")


class FlashCrowd:
    name = "flash-crowd"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        if tiny:
            base = replace(smoke_scale(seed=seed), n_pieces=8, max_rounds=150)
        else:
            base = replace(paper_scale(seed=seed), n_pieces=FLASH_PIECES)
        base = replace(base, backend="vector-fast")
        self.configs = [base.with_algorithm(a) for a in EXTENDED_ALGORITHMS]

    def run(self, tracer, reports, workdir):
        return [_attempt(run_simulation, c) for c in self.configs]

    def check(self, raw) -> PassOutput:
        out = PassOutput()
        _check_results(out, "flash", list(zip(self.configs, raw)))
        return out


class Figures:
    name = "figures"

    FIGURES = ("figure4", "figure5", "figure6")

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.base = (smoke_scale if tiny else default_scale)(seed=seed)

    def run(self, tracer, reports, workdir):
        raw = []
        for name in self.FIGURES:
            with tracer.region(f"figure.{name}"):
                raw.append(_attempt(getattr(figures, name), self.base,
                                    processes=1))
        return raw

    def check(self, raw) -> PassOutput:
        out = PassOutput()
        for name, result in zip(self.FIGURES, raw):
            if isinstance(result, Exception):
                # The figure's runs are the operations; without the
                # result, count every mechanism it would have run.
                out.ops.extend(Op(f"{name}/{a.value}", f"raised {result!r}")
                               for a in ALL_ALGORITHMS)
                out.digests.append(f"{name}:raised")
                continue
            _check_results(out, name, [(r.config, r)
                                       for r in result.results.values()])
        return out


class FaultSweep:
    name = "fault-sweep"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        algorithms = EXTENDED_ALGORITHMS[:2] if tiny else EXTENDED_ALGORITHMS
        rates = SWEEP_LOSS_RATES[:1] if tiny else SWEEP_LOSS_RATES
        scale = smoke_scale if tiny else default_scale
        self.seeds = tuple(seed * 100 + i for i in range(SWEEP_SEEDS))
        self.configs = [
            replace(scale(a, seed=seed), backend="vector",
                    faults=FaultConfig(transfer_loss_rate=rate,
                                       **SWEEP_FAULTS))
            for a in algorithms for rate in rates]

    def _sweeps(self, tracer, reports, workdir, phase):
        done = []
        for i, config in enumerate(self.configs):
            first = len(reports)
            with tracer.region(f"sweep.{phase}"):
                result = _attempt(
                    run_resilient_sweep, config, self.seeds, jobs=JOBS,
                    journal_path=os.path.join(workdir, f"{phase}-{i}.jsonl"),
                    cache_dir=os.path.join(workdir, "cache"))
            done.append((result, reports[first:len(reports)]))
        return done

    def run(self, tracer, reports, workdir):
        cold = self._sweeps(tracer, reports, workdir, "cold")
        warm = self._sweeps(tracer, reports, workdir, "warm")
        return cold, warm, workdir

    def check(self, raw) -> PassOutput:
        cold, warm, workdir = raw
        out = PassOutput()
        for config, (result, sweep_reports), (again, _) in zip(
                self.configs, cold, warm):
            label = (f"sweep/{config.algorithm.value}"
                     f"/loss={config.faults.transfer_loss_rate}")
            self._check_cold(out, label, result, sweep_reports)
            if isinstance(result, Exception):
                warm_error = "cold sweep raised"
            elif isinstance(again, Exception):
                warm_error = f"warm rerun raised {again!r}"
            elif again.canonical_digest() != result.canonical_digest():
                warm_error = "warm rerun digest differs from the cold pass"
            else:
                warm_error = None
            out.ops.extend(Op(f"{label}/warm/{s}", warm_error)
                           for s in self.seeds)
        cold_hits, cold_misses = _cache_counts(r for r, _ in cold)
        warm_hits, warm_misses = _cache_counts(r for r, _ in warm)
        out.layer["cache.hits"] = cold_hits + warm_hits
        out.layer["cache.misses"] = cold_misses + warm_misses
        warm_lookups = warm_hits + warm_misses
        out.layer["cache.hit_ratio"] = (warm_hits / warm_lookups
                                        if warm_lookups else 0.0)
        records = size = 0
        for entry in os.scandir(workdir):
            if entry.name.endswith(".jsonl"):
                size += entry.stat().st_size
                with open(entry.path, "rb") as fh:
                    records += sum(1 for _ in fh)
        out.layer["journal.records"] = records
        out.layer["journal.bytes"] = size
        return out

    def _check_cold(self, out: PassOutput, label: str, result,
                    sweep_reports) -> None:
        if isinstance(result, Exception):
            out.ops.extend(Op(f"{label}/{s}", f"raised {result!r}")
                           for s in self.seeds)
            out.digests.append(f"{label}:raised")
            return
        errors = {o.seed: None if o.ok else f"replicate failed: {o.error}"
                  for o in result.outcomes}
        for specs, report in sweep_reports:
            for spec, task in zip(specs, report.results):
                if not task.ok:
                    continue
                run_config, used_seed = spec.args_for(task.attempts)
                run_config = run_config.with_seed(used_seed)
                out.runs.append(("worker", run_config, task.value))
                errors[task.key] = (errors[task.key]
                                    or _run_errors(run_config, task.value))
                out.digests.append(
                    f"{label}/{task.key}:{metrics_digest(task.value)}")
        out.ops.extend(Op(f"{label}/{s}", errors[s]) for s in self.seeds)
        out.digests.append(f"{label}:{result.canonical_digest()}")


def _cache_counts(sweeps) -> Tuple[int, int]:
    """(hits, misses) of the result cache over ``sweeps``."""
    hits = misses = 0
    for sweep in sweeps:
        if not isinstance(sweep, Exception):
            stats = sweep.telemetry.get("cache", {})
            hits += stats.get("hits", 0)
            misses += stats.get("misses", 0)
    return hits, misses


class Hybrid1M:
    name = "hybrid-1m"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        users, shards, pieces, rounds = ((60, 4, 8, 150) if tiny
                                         else (1000, 16, HYBRID_PIECES, 600))
        population = 10 * users * shards if tiny else 1_000_000
        # Per-capita seed bandwidth of the hybrid validation suite:
        # 8 pieces/round per 250 users.
        self.configs = [
            SimulationConfig(
                a, n_users=users, n_pieces=pieces, neighbor_count=40,
                max_rounds=rounds, flash_crowd_duration=10.0,
                seeder_capacity=8.0 * users / 250.0, seed=seed,
                backend="vector-fast",
            ).with_population(population, n_subswarms=shards,
                              coupling_interval=25)
            for a in HYBRID_ALGORITHMS]

    def run(self, tracer, reports, workdir):
        raw = []
        for config in self.configs:
            first = len(reports)
            with tracer.region(f"hybrid.{config.algorithm.value}"):
                result = _attempt(run_hybrid_simulation, config, jobs=JOBS,
                                  start_method="spawn")
            raw.append((result, reports[first:len(reports)]))
        return raw

    def check(self, raw) -> PassOutput:
        out = PassOutput(layer={"hybrid.conservation_errors": 0,
                                "hybrid.shards": 0})
        for config, (result, shard_reports) in zip(self.configs, raw):
            label = f"hybrid/{config.algorithm.value}"
            if isinstance(result, Exception):
                out.ops.append(Op(label, f"raised {result!r}"))
                out.digests.append(f"{label}:raised")
                continue
            metrics = result.metrics
            errors = metrics.conservation_errors()
            out.layer["hybrid.conservation_errors"] += len(errors)
            error = "; ".join(errors[:3]) or _run_errors(config, metrics)
            for specs, report in shard_reports:
                for spec, task in zip(specs, report.results):
                    if not task.ok:
                        error = error or f"shard failed: {task.error}"
                        continue
                    shard = shard_config(*spec.args_for(task.attempts))
                    out.runs.append(("worker", shard, task.value))
                    error = error or _run_errors(shard, task.value)
            out.layer[f"hybrid.rounds.{config.algorithm.value}"] = \
                metrics.rounds_run
            out.layer["hybrid.shards"] += metrics.n_subswarms
            out.ops.append(Op(label, error))
            out.digests.append(f"{label}:{hybrid_digest(metrics)}")
        return out


WORKLOADS = {cls.name: cls for cls in (FlashCrowd, Figures, FaultSweep,
                                       Hybrid1M)}


def make_workload(name: str, seed: int, tiny: bool = False):
    """The named workload with its inputs generated from ``seed``."""
    return WORKLOADS[name](seed, tiny)
