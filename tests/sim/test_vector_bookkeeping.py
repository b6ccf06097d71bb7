"""Per-event bookkeeping on the array engines against whole-swarm scans.

Both array engines keep the large-view member ids, the completed
members (in membership order) and the fairness sample's ratio lists up
to date where members join, leave or transfer, instead of rescanning
the swarm every arrival or round (docs/SIMULATOR.md, "Per-event
bookkeeping"). The ``vector`` engine is digest-checked against the
object engine elsewhere; the ``vector-fast`` lineage has no such
oracle, so these tests recompute the state the old way, from scratch,
at every sample and require exact equality.
"""

from __future__ import annotations

from operator import truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.names import EXTENDED_ALGORITHMS, Algorithm
from repro.sim import (AttackConfig, FaultConfig, SimulationConfig,
                       VectorFastSimulation, VectorSimulation)
from repro.sim.metrics import metrics_digest
from repro.sim.runner import run_simulation

ENGINES = {"vector": VectorSimulation, "vector-fast": VectorFastSimulation}


def churny_config(algorithm) -> SimulationConfig:
    """Churn, crashes, lingering seeds and whitewashing large-view
    free-riders: every way a member joins, leaves or changes id."""
    return SimulationConfig(
        algorithm=algorithm, n_users=80, n_pieces=16, max_rounds=150,
        freerider_fraction=0.25,
        attack=AttackConfig(whitewash_interval=3, large_view=True),
        abort_rate=0.01, seed_linger_rate=0.5,
        faults=FaultConfig(crash_hazard=0.005),
        neighbor_count=8, flash_crowd_duration=20.0, seed=7)


def scanned_sample(sim):
    """(active users, fairness U/D, fairness D/U) by the whole-swarm
    scan the engines used before the bookkeeping."""
    seeder, free, up, down = sim.seeder, sim.free, sim.up, sim.down
    users = [s for s in map(sim.members.__getitem__, sim.active)
             if not seeder[s]]
    compliant = ([s for s in users if not free[s]] if sim._coalition
                 else users)
    ud_ratios = [up[s] / down[s] for s in compliant if down[s] > 0]
    du_ratios = [down[s] / up[s] for s in compliant if up[s] > 0]
    return (len(users),
            sum(ud_ratios) / len(ud_ratios) if ud_ratios else None,
            sum(du_ratios) / len(du_ratios) if du_ratios else None)


def assert_bookkeeping_matches_scan(sim) -> None:
    members = sim.members
    assert sim._largev_ids == {q for q, s in members.items()
                               if sim.largev[s]}
    assert sim._complete == {s for s in members.values()
                             if sim.cnt[s] == sim.n_pieces
                             and not sim.seeder[s]}
    slots = list(members.values())
    assert sorted(slots, key=sim._joined.__getitem__) == slots


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("algorithm", EXTENDED_ALGORITHMS,
                         ids=[a.value for a in EXTENDED_ALGORITHMS])
def test_every_sample_equals_a_full_scan(engine, algorithm):
    sim = ENGINES[engine](churny_config(algorithm))
    samples = sim.collector.metrics.samples
    incremental_sample = sim._sample

    def checked_sample():
        expected = scanned_sample(sim)
        incremental_sample()
        got = samples[-1]
        assert (got.active_peers, got.fairness_ud, got.fairness_du) == \
            expected
        assert_bookkeeping_matches_scan(sim)

    sim._sample = checked_sample
    metrics = sim.run().metrics
    assert len(metrics.samples) == metrics.rounds_run
    # The config must exercise what the bookkeeping tracks.
    assert metrics.faults.peer_crashes > 0
    assert sim._next_id > sim.n_slots  # someone whitewashed
    assert any(s.fairness_ud is not None for s in metrics.samples)
    # Reciprocity's compliant peers never upload: no D/U ratio exists.
    assert any(s.fairness_du is not None for s in metrics.samples) == (
        algorithm is not Algorithm.RECIPROCITY)


@pytest.mark.parametrize("algorithm", EXTENDED_ALGORITHMS,
                         ids=[a.value for a in EXTENDED_ALGORITHMS])
def test_vector_matches_object_engine(algorithm):
    """Lingering whitewashed free-riders draw their linger coins in
    membership order, which is not slot order: departures must follow
    the join stamps for the parity lineage to keep the object
    engine's digest."""
    config = churny_config(algorithm)
    vector = VectorSimulation(config).run().metrics
    reference = run_simulation(config).metrics
    assert metrics_digest(vector) == metrics_digest(reference)
    assert (vector.termination, vector.n_stuck) == \
        (reference.termination, reference.n_stuck)


ratios = st.one_of(
    st.builds(truediv, st.integers(0, 10**6), st.integers(1, 10**6)),
    st.floats(min_value=0.0, max_value=1e12))


@given(st.lists(st.one_of(st.none(), ratios), max_size=60))
@settings(max_examples=200)
def test_zero_placeholders_leave_the_sum_bit_identical(entries):
    """The fairness lists hold 0.0 where a peer has no ratio; summing
    them must give the very float summing only the real ratios does."""
    real = [x for x in entries if x is not None]
    padded = [0.0 if x is None else x for x in entries]
    # float(): an empty list sums to the int 0.
    assert float(sum(padded)).hex() == float(sum(real)).hex()
