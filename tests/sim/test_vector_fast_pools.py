"""The ``vector-fast`` needy pools against a recomputed needy set.

Each turn, the fast engine builds the uploader's pool of needy
view-member slots and repairs it by swap-pop as targets are served
(docs/SIMULATOR.md, "vector-fast"). Its kernels draw from the pool
without re-testing interest, so the pool must hold exactly the needy
slots at every draw. The fast lineage has no digest oracle, so these
tests recompute the needy set from the view at the start of every
turn and after every send, and require the pool to equal it as a
multiset.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.names import Algorithm
from repro.sim import (AttackConfig, FaultConfig, SimulationConfig,
                       VectorFastSimulation)

#: The mechanisms whose fast kernels draw straight from the pool
#: (T-Chain's encrypted seeds leave it a superset and test per draw;
#: reciprocity's kernel uses no pool).
POOL_ALGORITHMS = (Algorithm.ALTRUISM, Algorithm.BITTORRENT,
                   Algorithm.FAIRTORRENT, Algorithm.PROPSHARE,
                   Algorithm.REPUTATION)


def churny_config(algorithm) -> SimulationConfig:
    """Churn, crashes, transfer loss, obligation expiry and
    whitewashing free-riders: every way a view or a held set changes
    between or during turns."""
    return SimulationConfig(
        algorithm=algorithm, n_users=80, n_pieces=16, max_rounds=150,
        freerider_fraction=0.25,
        attack=AttackConfig(whitewash_interval=3),
        abort_rate=0.01, seed_linger_rate=0.5,
        faults=FaultConfig(crash_hazard=0.005, transfer_loss_rate=0.1,
                           obligation_expiry_rounds=6),
        neighbor_count=8, flash_crowd_duration=20.0, seed=7,
        backend="vector-fast")


def needy_slots(sim, u: int) -> Counter:
    uw = sim.usable[u]
    return Counter(t for t in sim._view(sim.ids[u])[1]
                   if sim.held[t] & uw != uw)


@pytest.mark.parametrize("algorithm", POOL_ALGORITHMS,
                         ids=[a.value for a in POOL_ALGORITHMS])
def test_pool_is_exact_after_every_send(algorithm):
    sim = VectorFastSimulation(churny_config(algorithm))
    checks = Counter()

    def check(turn, where: str) -> None:
        assert Counter(turn.needy) == needy_slots(sim, turn.uslot), where
        checks[where] += 1

    begin_turn, ensure_needy, plain_send = (
        sim.begin_turn, sim.ensure_needy, sim._plain_send)

    def checked_begin_turn(u):
        turn = begin_turn(u)
        check(turn, "begin_turn")
        return turn

    def checked_ensure_needy(turn):
        needy = ensure_needy(turn)
        check(turn, "ensure_needy")
        return needy

    def checked_plain_send(u, target_id, j=None):
        sent = plain_send(u, target_id, j)
        turn = sim._turn
        if turn is not None and turn.uslot == u and turn.needy is not None:
            check(turn, "send")
        return sent

    sim.begin_turn = checked_begin_turn
    sim.ensure_needy = checked_ensure_needy
    sim._plain_send = checked_plain_send
    metrics = sim.run().metrics
    assert checks["send"] > 100
    assert checks["begin_turn"] + checks["ensure_needy"] > 100
    faults = metrics.faults
    assert faults.peer_crashes > 0 and faults.transfers_lost > 0
