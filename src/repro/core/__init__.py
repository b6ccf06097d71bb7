"""Analytical models from the paper (Sections III-IV).

This subpackage is the paper's primary contribution: closed-form models
of fairness, efficiency, bootstrapping, and free-riding susceptibility
for six incentive mechanisms, plus the design-space classification.

Modules
-------
:mod:`repro.core.metrics`
    Efficiency (Eq. 2), fairness (Eq. 3), Lemma 1's optimum.
:mod:`repro.core.equilibrium`
    Table I equilibrium rates and Corollary 1 rankings.
:mod:`repro.core.piece_availability`
    Exchange feasibility under imperfect piece availability
    (Eqs. 4-8, Proposition 2, Corollary 2).
:mod:`repro.core.reputation_model`
    Proposition 3: reputation-driven fairness/efficiency.
:mod:`repro.core.bootstrapping`
    Lemma 3, Table II, Proposition 4.
:mod:`repro.core.freeriding`
    Table III: exploitable resources and collusion.
:mod:`repro.core.classification`
    Figure 1's taxonomy and qualitative expectations.
:mod:`repro.core.tradeoff`
    Fairness-efficiency frontier and the Figure 2/3 rankings.
:mod:`repro.core.fluid`
    Qiu-Srikant fluid swarm model — the substrate behind the paper's
    BitTorrent-efficiency arguments (refs [10], [27]).
"""

from repro._lazy import lazy_namespace

#: Every package-level name and where it lives; each is imported on
#: first access (see :mod:`repro._lazy`).
_EXPORTS = {
    "bootstrapping": "repro.core.bootstrapping",
    "classification": "repro.core.classification",
    "equilibrium": "repro.core.equilibrium",
    "fluid": "repro.core.fluid",
    "freeriding": "repro.core.freeriding",
    "metrics": "repro.core.metrics",
    "piece_availability": "repro.core.piece_availability",
    "reputation_model": "repro.core.reputation_model",
    "tradeoff": "repro.core.tradeoff",
    "BootstrapParameters": "repro.core.bootstrapping:BootstrapParameters",
    "bootstrap_probability": "repro.core.bootstrapping:bootstrap_probability",
    "expected_bootstrap_time": "repro.core.bootstrapping:expected_bootstrap_time",
    "table2": "repro.core.bootstrapping:table2",
    "EquilibriumParameters": "repro.core.equilibrium:EquilibriumParameters",
    "EquilibriumResult": "repro.core.equilibrium:EquilibriumResult",
    "equilibrium_for": "repro.core.equilibrium:equilibrium",
    "table1": "repro.core.equilibrium:table1",
    "FreeRidingParameters": "repro.core.freeriding:FreeRidingParameters",
    "table3": "repro.core.freeriding:table3",
    "efficiency": "repro.core.metrics:efficiency",
    "fairness": "repro.core.metrics:fairness",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
