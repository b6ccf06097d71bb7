"""Sweep-engine benchmark: persistent worker pool vs. throwaway pools.

Times the same replicated sweep three ways:

* ``legacy`` — the pre-engine architecture: one fresh single-worker
  ``spawn``-context process pool per replicate, torn down after each
  result (what ``run_resilient_sweep`` did before the persistent
  engine). Every replicate pays a full interpreter start plus package
  import.
* ``engine_jobs1`` — the persistent engine serialized to one worker:
  the pool is warmed once, so the worker start cost is paid once per
  sweep instead of once per replicate. The engine uses its default
  start method (``fork`` on Linux, ``spawn`` on macOS and Windows),
  recorded per mode as ``start_method``; ``legacy`` always spawns.
* ``engine_jobsN`` — the engine fanned out over N workers (default 4).
  On multi-core hosts this adds true parallelism on top. When the host
  has fewer usable CPUs than N, the workers time-share cores, so the
  fanned-out speedup is reported as not measured (``null`` plus a
  ``not_measured`` reason); its wall time is still recorded.

The sweep aggregates are digest-checked across the two engine modes
(``digests_match`` in the output) — the jobs count must be invisible
in everything deterministic.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep.py           # full scale
    PYTHONPATH=src python benchmarks/bench_sweep.py --quick   # CI smoke

Not a pytest benchmark on purpose: CI runs it as a plain script (quick
mode) and archives ``BENCH_sweep.json``, so the file can never rot.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import multiprocessing
import platform
import sys
import time

from repro.experiments.executor import usable_cpus
from repro.experiments.replicates import _replicate_task, run_resilient_sweep
from repro.experiments.scenarios import default_scale, smoke_scale
from repro.names import Algorithm

__all__ = ["run_bench", "main"]


def _time_legacy(config, seeds) -> float:
    """The old architecture: a throwaway one-worker pool per replicate."""
    context = multiprocessing.get_context("spawn")
    start = time.perf_counter()
    for seed in seeds:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=1, mp_context=context) as pool:
            pool.submit(_replicate_task, config, seed).result()
    return time.perf_counter() - start


def _time_engine(config, seeds, jobs: int):
    start = time.perf_counter()
    sweep = run_resilient_sweep(config, seeds, jobs=jobs)
    return time.perf_counter() - start, sweep


def run_bench(scale: str, replicates: int, jobs: int, seed: int) -> dict:
    builder = smoke_scale if scale == "smoke" else default_scale
    # Pinned to the object engine so the per-replicate work, and with it
    # the recorded engine-vs-legacy speedup, stays comparable across
    # changes to the presets' engine.
    config = builder(Algorithm.TCHAIN, seed=seed).with_backend("object")
    seeds = tuple(range(seed, seed + replicates))

    result = {
        "benchmark": "sweep_execution_engine",
        "scale": scale,
        "replicates": replicates,
        "jobs": jobs,
        "seed": seed,
        "cpu_count": usable_cpus(),
        "python": platform.python_version(),
        "modes": {},
    }

    legacy_s = _time_legacy(config, seeds)
    result["modes"]["legacy"] = {
        "seconds": legacy_s,
        "seconds_per_replicate": legacy_s / replicates,
        "description": "fresh spawn-context pool per replicate",
        "start_method": "spawn",
    }
    print(f"{'legacy':14s} {legacy_s:8.3f}s "
          f"({legacy_s / replicates:.3f}s/replicate)", flush=True)

    serial_s, serial = _time_engine(config, seeds, jobs=1)
    result["modes"]["engine_jobs1"] = {
        "seconds": serial_s,
        "seconds_per_replicate": serial_s / replicates,
        "utilization": serial.telemetry.get("utilization"),
        "start_method": serial.telemetry.get("start_method"),
    }
    print(f"{'engine_jobs1':14s} {serial_s:8.3f}s "
          f"({serial_s / replicates:.3f}s/replicate)", flush=True)

    fanned_s, fanned = _time_engine(config, seeds, jobs=jobs)
    result["modes"][f"engine_jobs{jobs}"] = {
        "seconds": fanned_s,
        "seconds_per_replicate": fanned_s / replicates,
        "utilization": fanned.telemetry.get("utilization"),
        "start_method": fanned.telemetry.get("start_method"),
    }
    print(f"{f'engine_jobs{jobs}':14s} {fanned_s:8.3f}s "
          f"({fanned_s / replicates:.3f}s/replicate)", flush=True)

    result["digests_match"] = (
        serial.canonical_digest() == fanned.canonical_digest())
    fanned_key = f"engine_jobs{jobs}_vs_legacy"
    cpus = result["cpu_count"]
    result["speedup"] = {
        "engine_jobs1_vs_legacy": legacy_s / serial_s,
        fanned_key: legacy_s / fanned_s if cpus >= jobs else None,
    }
    if cpus < jobs:
        result["not_measured"] = {
            fanned_key: f"{cpus} usable CPU(s) < --jobs {jobs}"}
    best = max(v for v in result["speedup"].values() if v is not None)
    print(f"{'speedup':14s} {best:7.2f}x vs legacy "
          f"(digests match: {result['digests_match']})")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale (smoke config, 8 replicates)")
    parser.add_argument("--scale", choices=("smoke", "default"),
                        default="default")
    parser.add_argument("--replicates", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for the fanned-out engine mode")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--output", type=str, default="BENCH_sweep.json")
    args = parser.parse_args(argv)

    if args.quick:
        args.scale, args.replicates = "smoke", 8

    result = run_bench(args.scale, args.replicates, args.jobs, args.seed)
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
