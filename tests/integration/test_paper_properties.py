"""The paper's qualitative experimental claims, at test scale.

These are the Section V findings that DESIGN.md commits to reproduce
in *shape*. Each test runs the relevant sweep at a reduced scale
(120 users, 32 pieces) with a fixed seed; ``tests/paper/`` re-checks
the same claims at the default 200-user scale, averaged over three
seeds.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.scenarios import run_all_algorithms
from repro.names import Algorithm
from repro.sim import SimulationConfig


def scenario(seed: int = 29) -> SimulationConfig:
    return SimulationConfig(
        algorithm=Algorithm.TCHAIN, n_users=120, n_pieces=32,
        seeder_capacity=3.0, flash_crowd_duration=10.0,
        neighbor_count=30, max_rounds=400, seed=seed)


@pytest.fixture(scope="module")
def compliant_runs():
    """Figure 4: all users compliant."""
    return run_all_algorithms(scenario())


@pytest.fixture(scope="module")
def freeriding_runs():
    """Figure 5: 20% free-riders, targeted attacks."""
    return run_all_algorithms(scenario(), freerider_fraction=0.2)


@pytest.fixture(scope="module")
def largeview_runs():
    """Figure 6: Figure 5 plus the large-view exploit."""
    return run_all_algorithms(scenario(), freerider_fraction=0.2,
                              large_view=True)


class TestFigure4Efficiency:
    def test_altruism_fastest(self, compliant_runs):
        times = {a: r.metrics.mean_completion_time()
                 for a, r in compliant_runs.items()}
        finite = {a: t for a, t in times.items() if math.isfinite(t)}
        assert min(finite, key=finite.get) is Algorithm.ALTRUISM

    def test_reciprocity_never_completes_meaningfully(self, compliant_runs):
        metrics = compliant_runs[Algorithm.RECIPROCITY].metrics
        assert metrics.completion_fraction() < 0.2
        assert metrics.peer_uploaded == 0

    def test_hybrids_comparable(self, compliant_runs):
        """T-Chain, BitTorrent, FairTorrent within ~50% of each other."""
        times = [compliant_runs[a].metrics.mean_completion_time()
                 for a in (Algorithm.TCHAIN, Algorithm.BITTORRENT,
                           Algorithm.FAIRTORRENT)]
        assert max(times) / min(times) < 1.6

    def test_everyone_else_completes(self, compliant_runs):
        for algorithm, run in compliant_runs.items():
            if algorithm is Algorithm.RECIPROCITY:
                continue
            assert run.metrics.completion_fraction() > 0.95, algorithm


class TestFigure4Fairness:
    def test_fair_hybrids_approach_one(self, compliant_runs):
        """Fig. 4b: T-Chain/FairTorrent/BitTorrent stabilise near 1."""
        for algorithm in (Algorithm.TCHAIN, Algorithm.FAIRTORRENT,
                          Algorithm.BITTORRENT):
            fairness = compliant_runs[algorithm].metrics.final_fairness()
            assert fairness == pytest.approx(1.0, abs=0.1), algorithm

    def test_altruism_least_fair_in_flight(self, compliant_runs):
        """Mid-run d/u dispersion: altruism exceeds the fair hybrids."""
        def midrun(algorithm):
            m = compliant_runs[algorithm].metrics
            value = m.mean_fairness_between(10, 0.8 * m.rounds_run, "du")
            return abs(value - 1.0) if value is not None else 0.0

        assert midrun(Algorithm.ALTRUISM) > midrun(Algorithm.TCHAIN)


class TestFigure4Bootstrapping:
    def test_paper_ordering(self, compliant_runs):
        boot = {a: r.metrics.mean_bootstrap_time()
                for a, r in compliant_runs.items()}
        fast = (Algorithm.ALTRUISM, Algorithm.FAIRTORRENT, Algorithm.TCHAIN)
        # The three fast bootstrappers beat BitTorrent, which beats
        # reputation; reciprocity is slowest (Fig. 4c / Prop. 4).
        for algorithm in fast:
            assert boot[algorithm] < boot[Algorithm.BITTORRENT], algorithm
        assert boot[Algorithm.BITTORRENT] < boot[Algorithm.REPUTATION]
        assert boot[Algorithm.REPUTATION] < boot[Algorithm.RECIPROCITY]


class TestFigure5FreeRiding:
    def test_susceptibility_ordering(self, freeriding_runs):
        """Fig. 5a: altruism > FairTorrent > BitTorrent > reputation >
        T-Chain ~ reciprocity ~ 0."""
        susc = {a: r.metrics.susceptibility()
                for a, r in freeriding_runs.items()}
        assert susc[Algorithm.RECIPROCITY] == 0.0
        assert susc[Algorithm.TCHAIN] < 0.05
        assert susc[Algorithm.ALTRUISM] > susc[Algorithm.FAIRTORRENT]
        assert susc[Algorithm.FAIRTORRENT] > susc[Algorithm.BITTORRENT]
        assert susc[Algorithm.BITTORRENT] > susc[Algorithm.TCHAIN]
        assert susc[Algorithm.REPUTATION] > susc[Algorithm.TCHAIN]

    def test_freeriding_slows_susceptible_algorithms(
            self, compliant_runs, freeriding_runs):
        """Fig. 5b vs 4a: efficiency degrades once free-riders eat
        bandwidth."""
        for algorithm in (Algorithm.ALTRUISM, Algorithm.FAIRTORRENT):
            clean = compliant_runs[algorithm].metrics.mean_completion_time()
            dirty = freeriding_runs[algorithm].metrics.mean_completion_time()
            assert dirty > clean

    def test_tchain_least_affected_hybrid(self, compliant_runs,
                                          freeriding_runs):
        def slowdown(algorithm):
            clean = compliant_runs[algorithm].metrics.mean_completion_time()
            dirty = freeriding_runs[algorithm].metrics.mean_completion_time()
            return dirty / clean

        assert slowdown(Algorithm.TCHAIN) <= slowdown(
            Algorithm.FAIRTORRENT) + 0.05

    def test_tchain_most_fair_under_attack(self, freeriding_runs):
        """Fig. 5c: T-Chain (and BitTorrent) stay the most fair."""
        def deviation(algorithm):
            return abs(freeriding_runs[algorithm].metrics.final_fairness()
                       - 1.0)

        assert deviation(Algorithm.TCHAIN) < deviation(Algorithm.ALTRUISM)
        assert deviation(Algorithm.TCHAIN) < deviation(Algorithm.FAIRTORRENT)


class TestFigure6LargeView:
    def test_bittorrent_and_reputation_roughly_double(
            self, freeriding_runs, largeview_runs):
        """Fig. 6a: the large-view exploit ~doubles what BitTorrent and
        the reputation system leak. At this reduced scale (views cover
        a quarter of the swarm already) the amplification is partial,
        so the test asserts a clear increase; the 200-user check in
        ``tests/paper/test_fig6.py`` asserts 1.4x for BitTorrent."""
        for algorithm in (Algorithm.BITTORRENT, Algorithm.REPUTATION):
            base = freeriding_runs[algorithm].metrics.susceptibility()
            boosted = largeview_runs[algorithm].metrics.susceptibility()
            assert boosted > 1.2 * base, algorithm

    def test_tchain_still_near_zero(self, largeview_runs):
        assert largeview_runs[Algorithm.TCHAIN].metrics.susceptibility() < 0.06

    def test_tchain_beats_bittorrent_on_both_axes(self, largeview_runs):
        """Fig. 6b/6c: T-Chain visibly more efficient and fair than
        BitTorrent once the large-view exploit is active."""
        tchain = largeview_runs[Algorithm.TCHAIN].metrics
        bittorrent = largeview_runs[Algorithm.BITTORRENT].metrics
        assert tchain.mean_completion_time() < (
            bittorrent.mean_completion_time())
        assert abs(tchain.final_fairness() - 1.0) < abs(
            bittorrent.final_fairness() - 1.0)

    def test_reciprocity_immune(self, largeview_runs):
        assert largeview_runs[Algorithm.RECIPROCITY].metrics.susceptibility() == 0.0
