"""Ablation studies over the design choices DESIGN.md calls out.

The paper's analysis makes several parameters load-bearing; each sweep
here varies one of them in the *simulator* and measures the effect the
analytical model predicts:

* ``alpha_bt`` — Table III says BitTorrent's exploitable bandwidth is
  exactly its optimistic share; Table II says the same share is its
  only bootstrap channel. Sweeping it trades exposure for
  bootstrapping speed.
* ``alpha_r`` — the reputation system's altruism reserve plays the
  identical double role.
* ``freerider_fraction`` — susceptibility and efficiency degradation
  as the attacker population grows (Fig. 5's 20% is one point).
* ``seeder_capacity`` — reciprocity's only dissemination channel;
  everyone else's warm-up accelerant.
* ``whitewash_interval`` — how often FairTorrent free-riders must shed
  their accumulated deficits to keep eating (Section IV-C).
* ``tchain_patience`` — how long T-Chain uploaders tolerate unmet
  obligations before blacklisting; the enforcement knob behind its
  near-zero susceptibility.

Every sweep returns a list of plain-dict rows (one per parameter
value) so tests and notebooks can consume them directly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional

from repro.names import Algorithm
from repro.sim.config import AttackConfig, SimulationConfig
from repro.sim.runner import run_simulation

__all__ = [
    "piece_selection_sweep",
    "alpha_bt_sweep",
    "alpha_r_sweep",
    "freerider_fraction_sweep",
    "seeder_capacity_sweep",
    "whitewash_interval_sweep",
    "tchain_patience_sweep",
]


def _measure(config: SimulationConfig) -> Dict[str, float]:
    metrics = run_simulation(config).metrics
    return {
        "mean_completion_time": metrics.mean_completion_time(),
        "completion_fraction": metrics.completion_fraction(),
        "final_fairness": metrics.final_fairness(),
        "mean_bootstrap_time": metrics.mean_bootstrap_time(),
        "susceptibility": metrics.susceptibility(),
    }


def alpha_bt_sweep(base: SimulationConfig,
                   values: Iterable[float],
                   freerider_fraction: float = 0.2) -> List[Dict[str, float]]:
    """BitTorrent: optimistic-unchoke share vs. exposure and bootstrap."""
    rows = []
    for alpha in values:
        config = replace(
            base.with_algorithm(Algorithm.BITTORRENT),
            freerider_fraction=freerider_fraction,
            strategy_params=replace(base.strategy_params, alpha_bt=alpha))
        rows.append({"alpha_bt": float(alpha), **_measure(config)})
    return rows


def alpha_r_sweep(base: SimulationConfig,
                  values: Iterable[float],
                  freerider_fraction: float = 0.2) -> List[Dict[str, float]]:
    """Reputation: altruism reserve vs. exposure and bootstrap."""
    rows = []
    for alpha in values:
        config = replace(
            base.with_algorithm(Algorithm.REPUTATION),
            freerider_fraction=freerider_fraction,
            strategy_params=replace(base.strategy_params, alpha_r=alpha))
        rows.append({"alpha_r": float(alpha), **_measure(config)})
    return rows


def freerider_fraction_sweep(base: SimulationConfig,
                             algorithm: Algorithm,
                             fractions: Iterable[float],
                             ) -> List[Dict[str, float]]:
    """Susceptibility / efficiency as the attacker share grows."""
    from repro.sim.config import targeted_attack_for

    rows = []
    for fraction in fractions:
        config = base.with_algorithm(algorithm).with_attack(
            targeted_attack_for(algorithm), freerider_fraction=fraction)
        rows.append({"freerider_fraction": float(fraction),
                     **_measure(config)})
    return rows


def seeder_capacity_sweep(base: SimulationConfig,
                          algorithm: Algorithm,
                          capacities: Iterable[float],
                          ) -> List[Dict[str, float]]:
    """Completion and bootstrap speed vs. the seeder's bandwidth."""
    rows = []
    for capacity in capacities:
        config = replace(base.with_algorithm(algorithm),
                         seeder_capacity=float(capacity))
        rows.append({"seeder_capacity": float(capacity), **_measure(config)})
    return rows


def whitewash_interval_sweep(base: SimulationConfig,
                             intervals: Iterable[Optional[int]],
                             freerider_fraction: float = 0.2,
                             ) -> List[Dict[str, float]]:
    """FairTorrent: how fast identity resets re-open the deficit door.

    ``None`` means no whitewashing (simple free-riding only).
    """
    rows = []
    for interval in intervals:
        config = base.with_algorithm(Algorithm.FAIRTORRENT).with_attack(
            AttackConfig(whitewash_interval=interval),
            freerider_fraction=freerider_fraction)
        rows.append({
            "whitewash_interval": (float("inf") if interval is None
                                   else float(interval)),
            **_measure(config),
        })
    return rows


def tchain_patience_sweep(base: SimulationConfig,
                          patience_values: Iterable[int],
                          freerider_fraction: float = 0.2,
                          ) -> List[Dict[str, float]]:
    """T-Chain: obligation patience vs. what free-riders can extract."""
    rows = []
    for patience in patience_values:
        config = replace(
            base.with_algorithm(Algorithm.TCHAIN).with_attack(
                AttackConfig(collusion=True),
                freerider_fraction=freerider_fraction),
            strategy_params=replace(base.strategy_params,
                                    tchain_obligation_patience=patience))
        rows.append({"patience": int(patience), **_measure(config)})
    return rows


def piece_selection_sweep(base: SimulationConfig,
                          algorithm: Algorithm,
                          policies: Iterable[str] = ("rarest", "random"),
                          ) -> List[Dict[str, object]]:
    """Local-rarest-first vs. uniform piece selection (ref [27]).

    The effect is mechanism-dependent: T-Chain leans on piece-set
    diversity (its indirect reciprocity needs users at different
    progress levels), while BitTorrent's optimistic channel cares
    less — so this sweep reports rather than asserts a direction.
    """
    rows: List[Dict[str, object]] = []
    for policy in policies:
        config = replace(base.with_algorithm(algorithm),
                         piece_selection=policy)
        rows.append({"piece_selection": policy, **_measure(config)})
    return rows
