#!/usr/bin/env python3
"""A million-peer flash crowd, compared across all seven mechanisms.

The scenario the paper could never run: one million peers flash-crowd
onto a 64-piece file in ten seconds, once per incentive mechanism
(the paper's six plus PropShare). Each run uses the fluid/event-driven
hybrid engine (`repro.sim.hybrid`, docs/SCALING.md): 16 sampled
event-driven subswarms of 1000 peers on the vector-fast backend,
coupled at round boundaries through a Qiu-Srikant fluid aggregate and
scaled back up by shard weight — so each mechanism's population run
takes seconds, where a full per-peer swarm of a million could not
even be held in memory.

The output table is Figure 4 read at population scale: altruism
completes fastest, the fair hybrids (T-Chain, FairTorrent) trade a
little speed for fairness ~1, reciprocity strands the entire million.
Population counts come from the hybrid's conservation ledger; ratio
statistics (fairness, completion fraction) come straight from the
pooled sample, where shard weights cancel.

Run:  PYTHONPATH=src python examples/million_peer_flash_crowd.py
Smaller/faster:  POPULATION=100000 SUBSWARMS=8 python examples/...
"""

import os

from repro.names import EXTENDED_ALGORITHMS, Algorithm
from repro.sim import SimulationConfig
from repro.sim.hybrid import run_hybrid_simulation, shard_plan

POPULATION = int(os.environ.get("POPULATION", "1000000"))
SUBSWARMS = int(os.environ.get("SUBSWARMS", "16"))
SUBSWARM_SIZE = 1000


def population_config(algorithm: Algorithm) -> SimulationConfig:
    """The 1M-peer flash crowd, described by its per-subswarm sample.

    Per-capita infrastructure seed bandwidth matches the validated
    geometry (8 pieces/round per 250 users, docs/SCALING.md), so
    these runs sit inside the shape-contract envelope.
    """
    return SimulationConfig(
        algorithm,
        n_users=SUBSWARM_SIZE,
        n_pieces=64,
        neighbor_count=40,
        max_rounds=600,
        flash_crowd_duration=10.0,
        seeder_capacity=8.0 * (SUBSWARM_SIZE / 250.0),
        seed=42,
        backend="vector-fast",
    ).with_population(POPULATION, n_subswarms=SUBSWARMS,
                      coupling_interval=25)


def main() -> None:
    plan = shard_plan(population_config(Algorithm.TCHAIN))
    print(f"Flash crowd of {plan.population:,} peers, simulated as "
          f"{plan.n_subswarms} subswarms x {plan.subswarm_size} peers "
          f"(each sampled peer represents {plan.weight:g})\n")
    header = (f"{'Mechanism':<14} {'completed':>12} {'frac':>7} "
              f"{'mean t':>8} {'fairness':>9} {'residual':>9}")
    print(header)
    print("-" * len(header))
    for algorithm in EXTENDED_ALGORITHMS:
        metrics = run_hybrid_simulation(
            population_config(algorithm)).metrics
        mean_t = metrics.mean_completion_time()
        fairness = metrics.final_fairness()
        print(f"{algorithm.display_name:<14} "
              f"{metrics.population_completed():>12,.0f} "
              f"{metrics.completion_fraction():>7.1%} "
              f"{mean_t:>8.1f} "
              f"{fairness if fairness is not None else float('nan'):>9.3f} "
              f"{metrics.fluid_residual:>9.3f}")
    print("\ncompleted/frac: population-level completions (ledger-"
          "scaled) and the scale-invariant pooled fraction; mean t: "
          "seconds of simulated time; residual: worst fluid-vs-event "
          "deviation as a population fraction (docs/SCALING.md).")


if __name__ == "__main__":
    main()
