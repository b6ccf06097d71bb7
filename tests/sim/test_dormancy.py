"""Dormant turns on the array engines.

A kernel that returns ``True`` puts its peer to sleep: the round loop
skips the peer's budget accrual and kernel call until a wake event (a
piece or key arriving, a view change) and then catches the skipped
credit up exactly. Sleeping must be invisible in every outcome, and
it must actually happen — otherwise the seeder-only reciprocity flash
crowd pays for a thousand idle turns every round.

Pure reciprocity never trades between users (Lemma 3), so on its own
it cannot show a missed wake: a sleeper that should have woken had
nothing to do anyway. The mixed runs below therefore switch every
third user to the altruistic spray kernel; those users upload first,
become creditors, and get repaid, so reciprocity peers really do sleep
through turns that later turn out to matter.
"""

from __future__ import annotations

import pytest

from repro.algorithms import vector_kernels
from repro.names import Algorithm
from repro.sim import (FaultConfig, SimulationConfig, VectorFastSimulation,
                       VectorSimulation)
from repro.sim.bandwidth import UploadBudget
from repro.sim.config import AttackConfig, CapacityClass
from repro.sim.metrics import metrics_digest
from repro.sim.runner import run_simulation

BACKENDS = ["vector", "vector-fast"]
ENGINES = {"vector": VectorSimulation, "vector-fast": VectorFastSimulation}


def wake_config() -> SimulationConfig:
    """Reciprocity with every wake source firing: whitewash rebuilds,
    crashes, lost and retried transfers and seeder outages on top of
    arrivals and departures. Report delay is switched on too, though
    under pure reciprocity no peer ever uploads, so no report is ever
    queued."""
    return SimulationConfig(
        algorithm=Algorithm.RECIPROCITY,
        n_users=60,
        n_pieces=16,
        max_rounds=240,
        freerider_fraction=0.2,
        attack=AttackConfig(whitewash_interval=9),
        neighbor_count=10,
        seed=11,
        faults=FaultConfig(transfer_loss_rate=0.2, crash_hazard=0.003,
                           seeder_outage_rate=0.1,
                           seeder_outage_duration=3,
                           report_delay_rounds=2),
        backend="vector",
    )


def mixed_run(config: SimulationConfig) -> str:
    """Digest of ``config`` with every third user on the spray kernel."""
    sim = ENGINES[config.backend](config)
    spray = sim.kern[0]  # slot 0 is a seeder
    sprayers = [s for s in range(config.n_seeders, sim.n_slots, 3)
                if not sim.free[s]]
    for s in sprayers:
        sim.kern[s] = spray
    digest = metrics_digest(sim.run().metrics)
    # Reciprocity peers really repaid someone.
    assert any(sim.up[s] for s in range(config.n_seeders, sim.n_slots)
               if s not in sprayers and not sim.free[s])
    return digest


def _never_sleep(monkeypatch) -> None:
    """Route both kernel tables' reciprocity entry through a wrapper
    that discards the dormancy verdict: the every-turn behaviour."""
    for table in (vector_kernels.KERNELS, vector_kernels.FAST_KERNELS):
        kernel = table[Algorithm.RECIPROCITY]
        monkeypatch.setitem(table, Algorithm.RECIPROCITY,
                            lambda sim, s, rng, k=kernel: k(sim, s, rng)
                            and None)


class TestDormancyIsInvisible:
    def test_vector_matches_object_across_wake_events(self, monkeypatch):
        woken = []
        wake = VectorSimulation._wake

        def spy(sim, s):
            if sim._slept[s] > 0:
                woken.append(s)
            wake(sim, s)

        monkeypatch.setattr(VectorSimulation, "_wake", spy)
        config = wake_config()
        vector = run_simulation(config).metrics
        reference = run_simulation(config.with_backend("object")).metrics
        assert metrics_digest(vector) == metrics_digest(reference)
        assert vector.faults == reference.faults
        faults = vector.faults
        assert faults.transfers_lost and faults.transfers_retried
        assert faults.peer_crashes and faults.seeder_outages
        # Peers did sleep, and were woken again mid-run.
        assert woken

    @pytest.mark.parametrize("faults", [FaultConfig(), FaultConfig(
        transfer_loss_rate=0.2, crash_hazard=0.003, seeder_outage_rate=0.1,
        seeder_outage_duration=3, report_delay_rounds=2)],
        ids=["clean", "faulted"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trading_reciprocity_same_as_never_sleeping(
            self, backend, faults, monkeypatch):
        # Fractional and whole capacities, so sleepers wake with
        # different amounts of banked credit.
        config = SimulationConfig(
            algorithm=Algorithm.RECIPROCITY, n_users=60, n_pieces=24,
            max_rounds=200, neighbor_count=8, seeder_capacity=2.0,
            freerider_fraction=0.1,
            attack=AttackConfig(whitewash_interval=7),
            capacity_classes=(CapacityClass(0.4, 1.0 / 3.0),
                              CapacityClass(0.3, 0.5),
                              CapacityClass(0.3, 2.0)),
            seed=5, faults=faults,
        ).with_backend(backend)
        dormant = mixed_run(config)
        _never_sleep(monkeypatch)
        assert mixed_run(config) == dormant


class TestWakeEvents:
    """Each wake source, on both engines, directly."""

    @staticmethod
    def _populated(backend: str, algorithm=Algorithm.RECIPROCITY,
                   arrived: int = 12):
        sim = ENGINES[backend](SimulationConfig(
            algorithm=algorithm, n_users=12, n_pieces=8,
            neighbor_count=3, seed=2).with_backend(backend))
        for index in range(arrived):
            sim._on_arrival(index)
        sim.round_index = sim.now = 1
        return sim

    @staticmethod
    def _sleep(sim, s: int, since: int = 4) -> None:
        # What the round loop does when slot ``s``'s kernel returns True.
        sim._slept[s] = since
        sim._any_slept = True

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_receiving_a_piece_wakes(self, backend):
        sim = self._populated(backend)
        t = sim.n_slots - 1
        self._sleep(sim, t)
        sim.budgets[0].accrue(1)
        assert sim._plain_send(0, sim.ids[t])
        assert sim._slept[t] == -4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_encrypted_delivery_and_unlock_wake(self, backend):
        sim = self._populated(backend, Algorithm.TCHAIN)
        t = sim.n_slots - 1
        self._sleep(sim, t)
        sim.budgets[0].accrue(1)
        assert sim._deliver_encrypted(0, t, 3, True)
        assert sim._slept[t] == -4
        self._sleep(sim, t, since=6)
        sim._unlock(t, 3)
        assert sim._slept[t] == -6

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_view_changes_wake(self, backend):
        sim = self._populated(backend, arrived=11)
        slots = list(sim.members.values())
        for s in slots:
            self._sleep(sim, s)
        sim._on_arrival(11)  # a newcomer's view edges wake both ends
        a = sim.n_slots - 1
        view = {sim.members[pid] for pid in sim.vset[sim.ids[a]]}
        assert view and set(slots) - view
        assert all(sim._slept[s] == (-4 if s in view else 4)
                   for s in slots)
        b = sim.n_slots - 2
        idb = sim.ids[b]
        neighbors = [sim.members[pid] for pid in sim.vset[idb]]
        for s in [b] + neighbors:
            self._sleep(sim, s)
        sim._disconnect_all(idb)
        assert sim._slept[b] == -4
        assert all(sim._slept[s] == -4 for s in neighbors)

    @pytest.mark.parametrize("capacity", [1.0 / 3.0, 3.0])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_woken_turn_catches_up_skipped_credit(self, backend, capacity):
        sim = self._populated(backend)
        s = sim.n_slots - 1
        sim.budgets[s] = UploadBudget(capacity)
        turns = []

        def probe(sim_, slot, rng):
            budget = sim_.budgets[slot]
            turns.append((sim_.round_index, budget.credits))
            if len(turns) == 1:
                if budget.available():
                    budget.consume(budget.available())
                return True  # sleep after spending everything
            return None

        for t in range(sim.n_slots):
            sim.kern[t] = lambda *args: None
        sim.kern[s] = probe
        for _ in range(6):
            sim._on_round()
        assert len(turns) == 1
        assert sim._any_slept  # arms the view-change wakes
        sim._wake(s)
        sim._on_round()
        (first, _), (woken, credits) = turns
        reference = UploadBudget(capacity)
        reference.new_round()
        if reference.available():
            reference.consume(reference.available())
        for _ in range(woken - first):
            reference.new_round()
        assert credits == reference.credits

    def test_waking_twice_keeps_the_catch_up(self):
        sim = self._populated("vector")
        sim._slept[5] = 3
        sim._wake(5)
        sim._wake(5)
        assert sim._slept[5] == -3
        sim._slept[6] = 0
        sim._wake(6)
        assert sim._slept[6] == 0


class TestDormancyHappens:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seeder_only_reciprocity_skips_idle_turns(self, backend,
                                                      monkeypatch):
        # Direct reciprocity cannot bootstrap anyone (Lemma 3), so every
        # piece comes from the seeder and almost every turn is idle.
        calls = []
        table = (vector_kernels.FAST_KERNELS if backend == "vector-fast"
                 else vector_kernels.KERNELS)
        kernel = table[Algorithm.RECIPROCITY]

        def counted(sim, s, rng):
            calls.append(s)
            return kernel(sim, s, rng)

        monkeypatch.setitem(table, Algorithm.RECIPROCITY, counted)
        config = SimulationConfig(
            algorithm=Algorithm.RECIPROCITY, n_users=200, n_pieces=16,
            neighbor_count=20, max_rounds=300, seed=1,
        ).with_backend(backend)
        metrics = run_simulation(config).metrics
        assert metrics.samples[-1].peer_uploaded == 0
        peer_rounds = sum(sample.active_peers for sample in metrics.samples)
        assert config.sample_interval == 1 and peer_rounds > 0
        assert len(calls) < 0.1 * peer_rounds
