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

from repro._lazy import lazy_namespace

#: Every package-level name and where it lives; each is imported on
#: first access (see :mod:`repro._lazy`).
_EXPORTS = {
    "AttackConfig": "repro.sim.config:AttackConfig",
    "CapacityClass": "repro.sim.config:CapacityClass",
    "CouplingRow": "repro.sim.hybrid:CouplingRow",
    "EventEngine": "repro.sim.engine:EventEngine",
    "FaultConfig": "repro.sim.faults:FaultConfig",
    "FaultModel": "repro.sim.faults:FaultModel",
    "GuardConfig": "repro.sim.guards:GuardConfig",
    "HybridMetrics": "repro.sim.hybrid:HybridMetrics",
    "InvariantViolation": "repro.sim.guards:InvariantViolation",
    "ObsConfig": "repro.sim.config:ObsConfig",
    "ShardPlan": "repro.sim.hybrid:ShardPlan",
    "Simulation": "repro.sim.runner:Simulation",
    "SimulationConfig": "repro.sim.config:SimulationConfig",
    "SimulationMetrics": "repro.sim.metrics:SimulationMetrics",
    "SimulationResult": "repro.sim.runner:SimulationResult",
    "StrategyParameters": "repro.sim.config:StrategyParameters",
    "VectorFastSimulation": "repro.sim.vector:VectorFastSimulation",
    "VectorSimulation": "repro.sim.vector:VectorSimulation",
    "degradation_rows": "repro.sim.metrics:degradation_rows",
    "flash_crowd_arrivals": "repro.sim.arrivals:flash_crowd_arrivals",
    "hybrid_digest": "repro.sim.hybrid:hybrid_digest",
    "poisson_arrivals": "repro.sim.arrivals:poisson_arrivals",
    "reference_config": "repro.sim.hybrid:reference_config",
    "run_hybrid_simulation": "repro.sim.hybrid:run_hybrid_simulation",
    "run_simulation": "repro.sim.runner:run_simulation",
    "shard_plan": "repro.sim.hybrid:shard_plan",
    "targeted_attack_for": "repro.sim.config:targeted_attack_for",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
