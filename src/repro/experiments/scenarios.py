"""Canonical experiment scenarios (Section V-A and scaled variants).

The paper's setup: one seeder, 1000 users arriving in a 10-second
flash crowd, a 128 MB file, departure on completion. With 256 KB
pieces that is 512 pieces; we expose that as :func:`paper_scale`, and
two scaled-down variants that preserve the swarm dynamics (the same
flash-crowd/seeder/capacity shape) while running in seconds:

* :func:`default_scale` — 200 users, 64 pieces; the workhorse used by
  the paper-claim tests (each run takes well under a second).
* :func:`smoke_scale` — 60 users, 24 pieces; used by integration
  tests.

All scenario builders return a :class:`SimulationConfig` for one
algorithm; experiments sweep algorithms with ``config.with_algorithm``.

Every preset runs on :data:`PRESET_BACKEND` (``"vector"``), the
struct-of-arrays engine that replays the object engine's draws and
produces the same ``metrics_digest`` (the parity-v1 lineage), so
Figures 4-6 and the report come out byte-identical, only faster.
``SimulationConfig`` itself still defaults to ``"object"``.

The array engines do not run guards, event tracing, gauge sampling
or ``record_transfers``, so ``SimulationConfig`` refuses any of them
with a ``ConfigurationError`` unless ``backend="object"``. To
instrument a preset that way, switch its engine first:
``default_scale(algo).with_backend("object").with_guards("cheap")``.
Span profiling alone (``obs.profile``) runs on every engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.names import ALL_ALGORITHMS, Algorithm
from repro.sim.config import (
    AttackConfig,
    SimulationConfig,
    targeted_attack_for,
)
from repro.sim.runner import (SimulationResult, import_engines,
                              run_simulation)

__all__ = [
    "PRESET_BACKEND",
    "paper_scale",
    "default_scale",
    "smoke_scale",
    "with_freeriders",
    "run_all_algorithms",
]

#: Engine every preset runs on (see the module docstring).
PRESET_BACKEND = "vector"

#: Free-rider share used in Figures 5 and 6.
PAPER_FREERIDER_FRACTION = 0.2


def paper_scale(algorithm: Algorithm = Algorithm.TCHAIN,
                seed: int = 0) -> SimulationConfig:
    """The full Section V-A configuration: 1000 users, 512 pieces."""
    return SimulationConfig(
        algorithm=algorithm,
        n_users=1000,
        n_pieces=512,
        seeder_capacity=8.0,
        flash_crowd_duration=10.0,
        neighbor_count=50,
        max_rounds=2000,
        seed=seed,
        backend=PRESET_BACKEND,
    )


def default_scale(algorithm: Algorithm = Algorithm.TCHAIN,
                  seed: int = 0) -> SimulationConfig:
    """Scaled-down default: 200 users, 64 pieces, same dynamics."""
    return SimulationConfig(
        algorithm=algorithm,
        n_users=200,
        n_pieces=64,
        seeder_capacity=4.0,
        flash_crowd_duration=10.0,
        neighbor_count=40,
        max_rounds=500,
        seed=seed,
        backend=PRESET_BACKEND,
    )


def smoke_scale(algorithm: Algorithm = Algorithm.TCHAIN,
                seed: int = 0) -> SimulationConfig:
    """Tiny configuration for fast integration tests."""
    return SimulationConfig(
        algorithm=algorithm,
        n_users=60,
        n_pieces=24,
        seeder_capacity=3.0,
        flash_crowd_duration=5.0,
        neighbor_count=20,
        max_rounds=250,
        seed=seed,
        backend=PRESET_BACKEND,
    )


def with_freeriders(config: SimulationConfig,
                    fraction: float = PAPER_FREERIDER_FRACTION,
                    large_view: bool = False,
                    attack: Optional[AttackConfig] = None) -> SimulationConfig:
    """Add the Section V-B2 free-rider population to a scenario.

    By default the most effective targeted attack for the scenario's
    algorithm is used (simple free-riding, plus collusion for T-Chain
    and whitewashing for FairTorrent); pass ``attack`` to override.
    """
    chosen = attack if attack is not None else targeted_attack_for(
        config.algorithm, large_view=large_view)
    if attack is not None and large_view:
        chosen = chosen.with_large_view()
    return config.with_attack(chosen, freerider_fraction=fraction)


def run_all_algorithms(base: SimulationConfig,
                       algorithms: Optional[Iterable[Algorithm]] = None,
                       freerider_fraction: float = 0.0,
                       large_view: bool = False,
                       processes: int = 1,
                       telemetry: Optional[Dict] = None,
                       ) -> Dict[Algorithm, SimulationResult]:
    """Run one scenario under every algorithm (attacks re-targeted).

    This is the sweep behind each of Figures 4-6: identical swarm,
    identical seeds, only the incentive mechanism (and, if free-riders
    are present, the matching targeted attack) changes.

    ``processes > 1`` fans the independent runs out over the persistent
    worker-pool engine (:mod:`repro.experiments.executor`) — results
    are identical to the serial sweep (each run is fully determined by
    its config), a crashed worker is respawned and its run retried
    once, and passing a dict as ``telemetry`` fills it with the
    engine's utilization summary.
    """
    selected = tuple(Algorithm.parse(a) for a in (algorithms or ALL_ALGORITHMS))
    configs: Dict[Algorithm, SimulationConfig] = {}
    for algorithm in selected:
        config = base.with_algorithm(algorithm)
        if freerider_fraction > 0:
            config = with_freeriders(config, freerider_fraction,
                                     large_view=large_view)
        configs[algorithm] = config
    if processes <= 1 or len(configs) <= 1:
        return {a: run_simulation(c) for a, c in configs.items()}

    from repro.experiments.executor import TaskSpec, run_tasks

    specs = [TaskSpec(key=algorithm, fn=run_simulation, args=(config,),
                      max_attempts=2)
             for algorithm, config in configs.items()]
    import_engines()  # before the workers fork, not in each of them
    report = run_tasks(specs, jobs=min(processes, len(configs)))
    if telemetry is not None:
        telemetry.update(report.stats.as_dict())
    failed = [r for r in report.results if not r.ok]
    if failed:
        details = "; ".join(f"{r.key.value}: {r.error}" for r in failed)
        raise RuntimeError(f"algorithm sweep failed: {details}")
    return {r.key: r.value for r in report.results}
