"""Regenerate the paper's analytical tables (Tables I-III, Figs. 2-3).

Each function returns structured rows *and* can render the same table
as text via :func:`repro.utils.format_table`, so ``python -m repro
tables`` prints exactly what the paper reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core import equilibrium as eq
from repro.core import bootstrapping as boot
from repro.core import freeriding as fr
from repro.core import piece_availability as pa
from repro.core import tradeoff
from repro.names import ALL_ALGORITHMS, Algorithm
from repro.utils import format_table

__all__ = [
    "table1_rows",
    "table1_text",
    "table2_rows",
    "table2_text",
    "table3_rows",
    "table3_text",
    "figure2_rankings",
    "figure3_rankings",
]

#: Capacity vector used for illustrative analytic tables: the default
#: simulation population's class capacities at a 20-user scale.
EXAMPLE_CAPACITIES = (
    [6.0] * 2 + [3.0] * 6 + [1.0] * 8 + [0.5] * 4
)


def table1_rows(params: Optional[eq.EquilibriumParameters] = None,
                ) -> List[Dict[str, object]]:
    """Table I: per-algorithm equilibrium download utilisation.

    Each row reports the algorithm, the mean upload and download
    utilisation, and the resulting fairness and efficiency metrics.
    """
    params = params or eq.EquilibriumParameters(EXAMPLE_CAPACITIES)
    results = eq.table1(params)
    rows: List[Dict[str, object]] = []
    for algorithm in ALL_ALGORITHMS:
        result = results[algorithm]
        utilisation = eq.download_utilization(algorithm, params)
        rows.append({
            "algorithm": algorithm.display_name,
            "mean_upload": float(np.mean(result.upload_rates)),
            "mean_download_utilisation": float(np.mean(utilisation)),
            "fairness_F": result.fairness,
            "efficiency_E": result.efficiency,
        })
    return rows


def table1_text(params: Optional[eq.EquilibriumParameters] = None) -> str:
    rows = table1_rows(params)
    return format_table(
        ["Algorithm", "mean u_i", "mean (d_i - u_S/N)", "F (Eq. 3)",
         "E (Eq. 2)"],
        [[r["algorithm"], r["mean_upload"], r["mean_download_utilisation"],
          r["fairness_F"], r["efficiency_E"]] for r in rows],
        title="Table I - equilibrium rates (perfect piece availability)",
    )


def table2_rows(params: Optional[boot.BootstrapParameters] = None,
                ) -> List[Dict[str, object]]:
    """Table II: bootstrap probabilities (paper's example column)."""
    params = params or boot.BootstrapParameters(n_users=1000)
    probabilities = boot.table2(params)
    return [{
        "algorithm": algorithm.display_name,
        "probability": probabilities[algorithm],
        "percent": 100.0 * probabilities[algorithm],
    } for algorithm in ALL_ALGORITHMS]


def table2_text(params: Optional[boot.BootstrapParameters] = None) -> str:
    rows = table2_rows(params)
    return format_table(
        ["Algorithm", "P(bootstrap)", "%"],
        [[r["algorithm"], r["probability"], r["percent"]] for r in rows],
        title=("Table II - bootstrap probabilities "
               "(N=1000, n_S=1, K=5, z=500, pi_DR=0.5, n_BT=4, "
               "omega=0.75, n_FT=500)"),
        float_format=".3f",
    )


def table3_rows(params: Optional[fr.FreeRidingParameters] = None,
                ) -> List[Dict[str, object]]:
    """Table III: exploitable resources and collusion probability."""
    params = params or fr.FreeRidingParameters(
        EXAMPLE_CAPACITIES, n_colluders=4)
    table = fr.table3(params)
    total = params.total_capacity
    rows: List[Dict[str, object]] = []
    for algorithm in ALL_ALGORITHMS:
        entry = table[algorithm]
        exploitable = entry["exploitable"]
        rows.append({
            "algorithm": algorithm.display_name,
            "exploitable": exploitable,
            "exploitable_fraction": exploitable / total if total else 0.0,
            "collusion": entry["collusion"],
        })
    return rows


def table3_text(params: Optional[fr.FreeRidingParameters] = None) -> str:
    rows = table3_rows(params)
    return format_table(
        ["Algorithm", "Exploitable", "Fraction of sum U", "P(collusion)"],
        [[r["algorithm"], r["exploitable"], r["exploitable_fraction"],
          "n/a" if r["collusion"] is None else r["collusion"]]
         for r in rows],
        title="Table III - resources available for free-riding",
        float_format=".3f",
    )


def figure2_rankings(params: Optional[eq.EquilibriumParameters] = None,
                     ) -> Dict[str, List[Algorithm]]:
    """Figure 2: idealized fairness and efficiency orderings."""
    params = params or eq.EquilibriumParameters(EXAMPLE_CAPACITIES)
    return {
        "efficiency": tradeoff.figure2_efficiency_ranking(params),
        "fairness": tradeoff.figure2_fairness_ranking(params),
    }


def figure3_rankings(M: int = 64, n_users: int = 200,
                     distribution: Optional[pa.PieceCountDistribution] = None,
                     alpha_bt: float = 0.2) -> Dict[str, object]:
    """Figure 3: efficiency ordering under piece availability.

    Evaluated, by default, at a uniform piece-count distribution —
    a swarm whose users' progress varies widely, as after a flash
    crowd. That heterogeneity is what powers T-Chain's indirect
    reciprocity: pairs where one user holds many pieces and the other
    few are exactly the ``q(j,l)(1 - q(l,j))`` term of Eq. 6. (With a
    concentrated distribution, e.g. Binomial(M, 0.5), that term
    vanishes and BitTorrent's optimistic unchoking wins instead —
    which is Eq. 8's condition read in the other direction.)
    """
    distribution = distribution or pa.PieceCountDistribution.uniform(M)
    ranking = tradeoff.figure3_efficiency_ranking(distribution, n_users,
                                                  alpha_bt)
    probabilities = {
        algorithm: tradeoff.mean_exchange_probability(
            algorithm, distribution, n_users, alpha_bt)
        for algorithm in ranking
    }
    return {"ranking": ranking, "probabilities": probabilities}
