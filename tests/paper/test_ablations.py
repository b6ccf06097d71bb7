"""Ablation checks over the design parameters DESIGN.md calls out.

These go beyond the paper's figures: each sweep varies one design knob
in the simulator and checks that the *direction* of the effect matches
what the analytical model (Tables II-III) predicts.
"""

from __future__ import annotations

from repro.experiments import ablations
from repro.experiments.scenarios import smoke_scale
from repro.names import Algorithm
from repro.utils import format_table

BASE = smoke_scale(seed=6)


def _print(rows, key):
    print()
    print(format_table(
        [key, "susceptibility", "mean boot T", "mean T", "fairness"],
        [[r[key], r["susceptibility"], r["mean_bootstrap_time"],
          r["mean_completion_time"], r["final_fairness"]] for r in rows],
        float_format=".3g"))


def test_alpha_bt_tradeoff():
    """Table II/III in the simulator: BitTorrent's optimistic share
    buys bootstrap speed and sells exposure, monotonically."""
    rows = ablations.alpha_bt_sweep(BASE, [0.05, 0.2, 0.5])
    _print(rows, "alpha_bt")
    susceptibilities = [r["susceptibility"] for r in rows]
    bootstrap_times = [r["mean_bootstrap_time"] for r in rows]
    assert susceptibilities == sorted(susceptibilities)
    assert bootstrap_times == sorted(bootstrap_times, reverse=True)


def test_alpha_r_tradeoff():
    """The reputation system's altruism reserve plays the same double
    role: more reserve, faster bootstrap, more leakage."""
    rows = ablations.alpha_r_sweep(BASE, [0.05, 0.2, 0.5])
    _print(rows, "alpha_r")
    susceptibilities = [r["susceptibility"] for r in rows]
    bootstrap_times = [r["mean_bootstrap_time"] for r in rows]
    assert susceptibilities == sorted(susceptibilities)
    assert bootstrap_times == sorted(bootstrap_times, reverse=True)


def test_freerider_fraction_scaling():
    """Altruism's leak scales with the attacker population; T-Chain's
    stays pinned near zero."""
    altruism = ablations.freerider_fraction_sweep(
        BASE, Algorithm.ALTRUISM, [0.1, 0.2, 0.3])
    tchain = ablations.freerider_fraction_sweep(
        BASE, Algorithm.TCHAIN, [0.1, 0.2, 0.3])
    _print(altruism, "freerider_fraction")
    _print(tchain, "freerider_fraction")
    alt_susc = [r["susceptibility"] for r in altruism]
    assert alt_susc == sorted(alt_susc)
    assert alt_susc[-1] > 0.2
    assert all(r["susceptibility"] < 0.06 for r in tchain)


def test_seeder_capacity_accelerates_reciprocity_only_channel():
    """Reciprocity's throughput is exactly the seeder's bandwidth."""
    rows = ablations.seeder_capacity_sweep(BASE, Algorithm.RECIPROCITY,
                                           [1.0, 4.0, 16.0])
    _print(rows, "seeder_capacity")
    fractions = [r["completion_fraction"] for r in rows]
    boots = [r["mean_bootstrap_time"] for r in rows]
    assert fractions == sorted(fractions)
    assert boots == sorted(boots, reverse=True)


def test_whitewashing_never_helps_the_defender():
    """Identity resets can only maintain or increase what FairTorrent
    free-riders extract (at small scale the completion ceiling masks
    most of the effect; the direction must still never invert)."""
    rows = ablations.whitewash_interval_sweep(BASE, [10, 40, None])
    _print(rows, "whitewash_interval")
    with_frequent = rows[0]["susceptibility"]
    without = rows[-1]["susceptibility"]
    assert with_frequent >= without - 0.02


def test_tchain_patience_insensitive():
    """T-Chain's defence is the key escrow itself, not blacklist
    tuning: susceptibility stays near zero across patience settings."""
    rows = ablations.tchain_patience_sweep(BASE, [1, 3, 8])
    _print(rows, "patience")
    assert all(r["susceptibility"] < 0.05 for r in rows)
    assert all(r["completion_fraction"] > 0.95 for r in rows)
