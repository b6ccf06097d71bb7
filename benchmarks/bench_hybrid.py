"""Hybrid-engine benchmark: population-scale flash crowds.

Times :func:`repro.sim.hybrid.run_hybrid_simulation` at 100k and 1M
populations — the regime the per-peer engines cannot reach — and
derives *peers per second of simulated wall clock* (population over
elapsed seconds). For context it also times one *full* event-driven
run per backend at the subswarm scale, recorded as wall seconds beside
the rounds that run lasted. Wall time is not divided by rounds: run
length depends on the seed (a T-Chain end-game stall idles to the
round cap), so a per-peer-round quotient would compare different
amounts of work.

The committed ``BENCH_hybrid.json`` at the repo root is this script's
output on the reference box and is the acceptance evidence for the
"1M peers in under 10 minutes" criterion (docs/SCALING.md walks
through the same run).

Usage::

    PYTHONPATH=src python benchmarks/bench_hybrid.py            # 100k + 1M
    PYTHONPATH=src python benchmarks/bench_hybrid.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_hybrid.py --out BENCH_hybrid.json

Not a pytest benchmark on purpose, like ``bench_hotpath.py``: CI runs
the quick mode as a plain script and archives the JSON artifact.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict, Optional

from repro.experiments.executor import default_jobs
from repro.names import Algorithm
from repro.sim.config import SimulationConfig
from repro.sim.hybrid import run_hybrid_simulation, shard_plan
from repro.sim.runner import run_simulation

__all__ = ["hybrid_bench_config", "time_hybrid", "run_bench", "main"]

#: Mechanisms timed at each scale: the headline mechanism (T-Chain)
#: plus the cheapest (altruism) to bracket the cost range.
BENCH_ALGORITHMS = (Algorithm.TCHAIN, Algorithm.ALTRUISM)

#: (label, population, subswarms, subswarm size).
SCALES = (
    ("100k", 100_000, 8, 1_000),
    ("1M", 1_000_000, 16, 1_000),
)
QUICK_SCALES = (
    ("10k", 10_000, 4, 500),
)


def hybrid_bench_config(algorithm: Algorithm, population: int,
                        n_subswarms: int, subswarm_size: int,
                        seed: int = 0,
                        backend: str = "vector-fast") -> SimulationConfig:
    """Paper-shaped flash crowd at hybrid scale.

    Per-capita infrastructure seed bandwidth is held at the validation
    suite's ``8 / 250`` pieces/round/user so the benchmarked system is
    the one the shape contract covers (docs/SCALING.md).
    """
    return SimulationConfig(
        algorithm, n_users=subswarm_size, n_pieces=64, neighbor_count=40,
        max_rounds=600, flash_crowd_duration=10.0,
        seeder_capacity=8.0 * (subswarm_size / 250.0), seed=seed,
        backend=backend,
    ).with_population(population, n_subswarms=n_subswarms,
                      coupling_interval=25)


def time_hybrid(config: SimulationConfig, jobs: Optional[int],
                ) -> Dict[str, float]:
    """Run one hybrid simulation and report throughput."""
    start = time.perf_counter()
    result = run_hybrid_simulation(config, jobs=jobs,
                                   start_method="spawn")
    elapsed = time.perf_counter() - start
    metrics = result.metrics
    return {
        "seconds": elapsed,
        "rounds": metrics.rounds_run,
        "population_peers_per_second": (config.population / elapsed
                                        if elapsed > 0 else float("inf")),
        "sampled_peers": metrics.n_subswarms * metrics.subswarm_size,
        "completion_fraction": metrics.completion_fraction(),
        "fluid_residual": metrics.fluid_residual,
    }


def _time_full_runs(subswarm_size: int,
                    seed: int) -> Dict[str, Dict[str, float]]:
    """Wall time of one full run at shard scale, per backend."""
    out: Dict[str, Dict[str, float]] = {}
    for backend in ("object", "vector-fast"):
        config = SimulationConfig(
            Algorithm.TCHAIN, n_users=subswarm_size, n_pieces=64,
            neighbor_count=40, max_rounds=600, flash_crowd_duration=10.0,
            seeder_capacity=8.0 * (subswarm_size / 250.0), seed=seed,
            backend=backend)
        start = time.perf_counter()
        metrics = run_simulation(config).metrics
        elapsed = time.perf_counter() - start
        out[backend] = {
            "measured_users": subswarm_size,
            "measured_seconds": elapsed,
            "rounds_run": metrics.rounds_run,
        }
        print(f"  full {backend:12s} {subswarm_size} users: "
              f"{elapsed:.2f}s, {metrics.rounds_run} rounds", flush=True)
    return out


def run_bench(scales, seed: int, jobs: Optional[int]) -> dict:
    # Resolve once so the recorded worker count is the one actually
    # used; on a single-core box this degrades to the inline path.
    jobs = jobs if jobs is not None else default_jobs()
    result = {
        "benchmark": "hybrid_flash_crowd",
        "python": platform.python_version(),
        "jobs": jobs,
        "seed": seed,
        "scales": {},
    }
    for label, population, n_subswarms, subswarm_size in scales:
        plan = shard_plan(hybrid_bench_config(
            Algorithm.TCHAIN, population, n_subswarms, subswarm_size,
            seed=seed))
        entry = {
            "population": population,
            "n_subswarms": n_subswarms,
            "subswarm_size": subswarm_size,
            "shard_weight": plan.weight,
            "algorithms": {},
        }
        print(f"{label}: population {population:,} as {n_subswarms} x "
              f"{subswarm_size} (weight {plan.weight:g})", flush=True)
        for algorithm in BENCH_ALGORITHMS:
            timing = time_hybrid(
                hybrid_bench_config(algorithm, population, n_subswarms,
                                    subswarm_size, seed=seed), jobs)
            entry["algorithms"][algorithm.value] = timing
            print(f"  {algorithm.value:12s} {timing['seconds']:8.2f}s "
                  f"({timing['population_peers_per_second']:,.0f} "
                  "peers/s)", flush=True)
        result["scales"][label] = entry
    smallest = min(s[3] for s in scales)
    result["full_runs"] = _time_full_runs(smallest, seed)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: one 10k-population scale")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="subswarm workers (default: cores minus one)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSON result here")
    args = parser.parse_args(argv)
    scales = QUICK_SCALES if args.quick else SCALES
    result = run_bench(scales, seed=args.seed, jobs=args.jobs)
    payload = json.dumps(result, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
