"""Event-driven P2P swarm simulator (Section V's experimental substrate).

This subpackage replaces the paper's closed-source TBeT-derived
simulator with an equivalent one: a discrete-event engine drives
one-second transfer rounds over a swarm of peers with heterogeneous
upload capacities; per-peer strategies (the six incentive mechanisms)
decide where each piece goes; metrics collectors sample exactly the
quantities plotted in Figures 4-6.

Quick start::

    from repro.names import Algorithm
    from repro.sim import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig(Algorithm.TCHAIN, seed=1))
    print(result.metrics.mean_completion_time())
"""

from repro.sim.arrivals import flash_crowd_arrivals, poisson_arrivals  # noqa: F401
from repro.sim.config import (  # noqa: F401
    AttackConfig,
    CapacityClass,
    ObsConfig,
    SimulationConfig,
    StrategyParameters,
    targeted_attack_for,
)
from repro.sim.engine import EventEngine  # noqa: F401
from repro.sim.faults import FaultConfig, FaultModel  # noqa: F401
from repro.sim.guards import GuardConfig, InvariantViolation  # noqa: F401
from repro.sim.hybrid import (  # noqa: F401
    CouplingRow,
    HybridMetrics,
    ShardPlan,
    hybrid_digest,
    reference_config,
    run_hybrid_simulation,
    shard_plan,
)
from repro.sim.metrics import SimulationMetrics, degradation_rows  # noqa: F401
from repro.sim.runner import Simulation, SimulationResult, run_simulation  # noqa: F401
from repro.sim.vector import (  # noqa: F401
    VectorFastSimulation,
    VectorSimulation,
)

__all__ = [
    "AttackConfig",
    "CapacityClass",
    "CouplingRow",
    "EventEngine",
    "FaultConfig",
    "FaultModel",
    "GuardConfig",
    "HybridMetrics",
    "InvariantViolation",
    "ObsConfig",
    "ShardPlan",
    "Simulation",
    "SimulationConfig",
    "SimulationMetrics",
    "SimulationResult",
    "StrategyParameters",
    "VectorFastSimulation",
    "VectorSimulation",
    "degradation_rows",
    "flash_crowd_arrivals",
    "hybrid_digest",
    "poisson_arrivals",
    "reference_config",
    "run_hybrid_simulation",
    "run_simulation",
    "shard_plan",
    "targeted_attack_for",
]
