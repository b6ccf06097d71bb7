"""Cross-layer validation: Section IV's model vs. Section V's sim.

The paper's central methodological claim is that its analytical models
*predict* the simulator's outcomes. This module makes the claim
checkable in one shot: it measures each mechanism's empirical
bootstrap probability from a simulation sweep and compares the
ordering against Table II's predictions, requiring strong pairwise
agreement.
"""

from __future__ import annotations

from repro.experiments.scenarios import default_scale
from repro.experiments.validation import (
    bootstrap_model_vs_simulation,
    ranking_agreement,
)
from repro.names import Algorithm
from repro.utils import format_table


def test_bootstrap_model_predicts_simulation():
    rows = bootstrap_model_vs_simulation(default_scale(seed=19))

    print()
    print(format_table(
        ["Algorithm", "measured p_B", "Table II p_B"],
        [[r["algorithm"].display_name, r["measured_p_b"],
          r["predicted_p_b"]] for r in rows],
        title="Bootstrap probability: simulator vs. analytical model",
        float_format=".3f"))

    measured = {r["algorithm"]: r["measured_p_b"] for r in rows}
    predicted = {r["algorithm"]: r["predicted_p_b"] for r in rows}

    agreement = ranking_agreement(
        [measured[r["algorithm"]] for r in rows],
        [predicted[r["algorithm"]] for r in rows])
    print(f"pairwise ranking agreement: {agreement:.2f}")
    assert agreement >= 0.7

    # The hard orderings must hold exactly in both layers.
    for scores in (measured, predicted):
        assert scores[Algorithm.RECIPROCITY] == min(scores.values())
        assert scores[Algorithm.ALTRUISM] > scores[Algorithm.BITTORRENT]
        assert scores[Algorithm.BITTORRENT] > scores[Algorithm.RECIPROCITY]
        assert scores[Algorithm.REPUTATION] < scores[Algorithm.TCHAIN]


def test_reputation_collusion_realises_prop3():
    """Proposition 3 + Table III's collusion row, in the simulator.

    False praise skews the reputation vector away from capacity
    (colluders hold reputation they never earned), which Prop. 3
    predicts costs the system fairness — and Table III's collusion
    probability of 1 predicts the coalition can redirect the
    reputation-weighted bandwidth to itself. Compare against simple
    free-riding at the same population.
    """
    from repro.experiments.scenarios import default_scale, with_freeriders
    from repro.sim import AttackConfig, run_simulation

    results = {}
    for label, attack in (
            ("simple", AttackConfig()),
            ("false_praise", AttackConfig(false_praise=True,
                                          fake_praise_amount=3.0))):
        metrics = []
        for seed in (19, 23):
            config = with_freeriders(
                default_scale(Algorithm.REPUTATION, seed=seed),
                fraction=0.2, attack=attack)
            metrics.append(run_simulation(config).metrics)
        results[label] = metrics

    def mean(label, fn):
        values = [fn(m) for m in results[label]]
        return sum(values) / len(values)

    simple_susc = mean("simple", lambda m: m.susceptibility())
    praised_susc = mean("false_praise", lambda m: m.susceptibility())
    simple_dev = abs(mean("simple", lambda m: m.final_fairness()) - 1.0)
    praised_dev = abs(mean("false_praise",
                           lambda m: m.final_fairness()) - 1.0)
    print(f"\nsimple FR:    susceptibility {simple_susc:.3f}, "
          f"|fairness - 1| {simple_dev:.3f}")
    print(f"false praise: susceptibility {praised_susc:.3f}, "
          f"|fairness - 1| {praised_dev:.3f}")

    # Collusion multiplies what the coalition extracts...
    assert praised_susc > 2.0 * simple_susc
    # ...and the skewed reputation vector costs compliant fairness.
    assert praised_dev > simple_dev + 0.05


def test_fairtorrent_deficit_bound():
    """Sherman et al.'s O(log N) pairwise-deficit bound [7], measured.

    Section IV-C caps a FairTorrent free-rider's per-victim take with
    this bound; here we trace a default-scale run and verify the worst
    pairwise imbalance any two users ever reach stays within a small
    multiple of log N — and strictly below altruism's, whose gifting
    has no deficit discipline at all.
    """
    import math
    from dataclasses import replace

    from repro.experiments.scenarios import default_scale
    from repro.experiments.trace_analysis import worst_pairwise_deficit
    from repro.sim import run_simulation

    worst = {}
    for algorithm in (Algorithm.FAIRTORRENT, Algorithm.ALTRUISM):
        config = replace(default_scale(algorithm, seed=19),
                         record_transfers=True, backend="object")
        result = run_simulation(config)
        worst[algorithm] = worst_pairwise_deficit(
            result.metrics.transfers,
            exclude=set(range(config.n_seeders)))
    bound = 3.5 * math.log(200)
    print(f"\nworst pairwise deficit: FairTorrent "
          f"{worst[Algorithm.FAIRTORRENT]}, altruism "
          f"{worst[Algorithm.ALTRUISM]}; 3.5 log N = {bound:.1f}")
    assert worst[Algorithm.FAIRTORRENT] <= bound
    assert worst[Algorithm.FAIRTORRENT] < worst[Algorithm.ALTRUISM]


def test_table1_rate_shapes_in_simulation():
    """Table I's download-rate shapes, measured as per-class durations.

    Proposition 1 predicts: altruism equalises download rates across
    capacity classes (everyone waits the same); T-Chain and FairTorrent
    return each user its own capacity (durations inverse in U_i); and
    BitTorrent sits between them — its capacity-group mixing plus the
    alpha_BT altruistic share flatten the spread relative to the
    perfectly reciprocal hybrids.
    """
    from collections import defaultdict

    from repro.experiments.scenarios import default_scale
    from repro.sim import run_simulation

    durations = {}
    for algorithm in (Algorithm.ALTRUISM, Algorithm.TCHAIN,
                      Algorithm.FAIRTORRENT, Algorithm.BITTORRENT):
        by_class = defaultdict(list)
        for seed in (33, 34):
            metrics = run_simulation(
                default_scale(algorithm, seed=seed)).metrics
            for peer in metrics.peers:
                if peer.download_duration is not None:
                    by_class[peer.capacity].append(peer.download_duration)
        durations[algorithm] = {
            capacity: sum(values) / len(values)
            for capacity, values in by_class.items()}

    print()
    print(format_table(
        ["Algorithm"] + [f"class U={c}" for c in (6.0, 3.0, 1.0, 0.5)],
        [[a.display_name] + [durations[a][c] for c in (6.0, 3.0, 1.0, 0.5)]
         for a in durations],
        title="Mean completion duration by capacity class (Table I shapes)",
        float_format=".3g"))

    def spread(algorithm):
        values = durations[algorithm]
        return values[0.5] / values[6.0]

    # Altruism: equal rates -> every class waits about the same.
    assert spread(Algorithm.ALTRUISM) < 1.35
    # Perfect-return hybrids: duration strongly inverse in capacity.
    for algorithm in (Algorithm.TCHAIN, Algorithm.FAIRTORRENT):
        classes = durations[algorithm]
        assert classes[6.0] < classes[3.0] < classes[1.0] < classes[0.5]
        assert spread(algorithm) > 3.0
    # BitTorrent: mixing flattens the spread below T-Chain's.
    assert 1.5 < spread(Algorithm.BITTORRENT) < spread(Algorithm.TCHAIN)
