"""How a run ended: the exact end-of-run verdict every engine reports.

``SimulationMetrics.termination`` is ``complete`` (the engine's own
finish test held), ``stalled`` (no send can happen and nothing
scheduled can change that) or ``cap`` (anything else that hit the
round cap). The rule itself is :func:`repro.sim.metrics.run_termination`;
the engines supply only their edge scans, so the engine-level cases
here run on the object engine and both array engines and must agree.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.scenarios import paper_scale
from repro.names import Algorithm
from repro.sim import AttackConfig, FaultConfig, SimulationConfig
from repro.sim.metrics import run_termination
from repro.sim.runner import run_simulation

#: One stuck compliant peer, with no pending pieces.
STUCK = (False, False, False, False)


def _verdict(config=None, finished=False, arrivals_left=False,
             reports_queued=False, members=(STUCK,), send=False):
    calls = []

    def send_possible():
        calls.append(1)
        return send

    verdict = run_termination(config or SimulationConfig(Algorithm.TCHAIN),
                              finished, arrivals_left, reports_queued,
                              iter(members), send_possible)
    return verdict, len(calls)


class TestRule:
    def test_nothing_can_happen_is_stalled(self):
        assert _verdict() == (("stalled", 1), 1)

    def test_finished_is_complete_without_a_scan(self):
        done = (False, False, True, False)
        assert _verdict(finished=True, members=(done,)) == \
            (("complete", 0), 0)

    def test_a_possible_send_is_cap(self):
        assert _verdict(send=True) == (("cap", 1), 1)

    def test_n_stuck_counts_only_incomplete_compliant_users(self):
        members = [(True, False, True, False),    # seeder
                   (False, True, False, True),    # free-rider
                   STUCK, STUCK]
        assert _verdict(members=members)[0] == ("stalled", 2)

    @pytest.mark.parametrize("case", [
        dict(arrivals_left=True),
        dict(reports_queued=True),
        dict(members=(STUCK, (False, False, False, True)),
             config=SimulationConfig(Algorithm.TCHAIN, faults=FaultConfig(
                 obligation_expiry_rounds=5))),
        dict(members=(STUCK, (False, True, False, False)),
             config=SimulationConfig(Algorithm.TCHAIN, attack=AttackConfig(
                 whitewash_interval=10))),
        dict(config=SimulationConfig(Algorithm.TCHAIN, abort_rate=0.01)),
        dict(config=SimulationConfig(Algorithm.TCHAIN, faults=FaultConfig(
            crash_hazard=0.01))),
        dict(members=(STUCK, (False, False, True, False))),
    ], ids=["arrival", "delayed-report", "expiry", "whitewash", "churn",
            "crash", "lingering-seed"])
    def test_a_scheduled_change_is_cap_without_a_scan(self, case):
        (termination, _), scans = _verdict(**case)
        assert termination == "cap"
        assert scans == 0

    @pytest.mark.parametrize("case", [
        dict(config=SimulationConfig(Algorithm.TCHAIN, faults=FaultConfig(
            obligation_expiry_rounds=5))),
        dict(config=SimulationConfig(Algorithm.TCHAIN, attack=AttackConfig(
            whitewash_interval=10))),
    ], ids=["expiry-but-nothing-pending", "whitewash-but-no-freerider"])
    def test_a_hazard_with_nothing_to_act_on_still_stalls(self, case):
        assert _verdict(**case)[0] == ("stalled", 1)


BACKENDS = ("object", "vector", "vector-fast")


class TestEngines:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_slow_but_alive_swarm_is_not_stalled(self, backend):
        config = SimulationConfig(
            algorithm=Algorithm.BITTORRENT, n_users=20, n_pieces=8, seed=7,
            flash_crowd_duration=4.0, neighbor_count=8, max_rounds=40,
            backend=backend)
        metrics = run_simulation(config).metrics
        assert metrics.termination == "complete"
        assert metrics.n_stuck == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_cap_mid_download_is_cap(self, backend):
        config = SimulationConfig(Algorithm.BITTORRENT, n_users=100,
                                  n_pieces=32, max_rounds=30,
                                  backend=backend)
        metrics = run_simulation(config).metrics
        assert metrics.termination == "cap"
        assert metrics.rounds_run == 30
        assert metrics.n_stuck > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_offline_seeder_that_comes_back_is_cap(self, backend):
        # A near-permanent seeder outage starves the flash crowd for the
        # whole run, but the seeder would return: not a stall.
        config = SimulationConfig(
            Algorithm.RECIPROCITY, n_users=30, n_pieces=16, max_rounds=80,
            backend=backend, faults=FaultConfig(
                seeder_outage_rate=0.95, seeder_outage_duration=500))
        metrics = run_simulation(config).metrics
        assert metrics.termination == "cap"
        assert metrics.n_stuck == 30

    @pytest.mark.parametrize("backend", ("vector", "vector-fast"))
    def test_finish_on_the_capped_round_is_complete(self, backend):
        # Reciprocity's paper-scale flash crowd at 16 pieces finishes on
        # exactly its 2000-round cap.
        config = replace(paper_scale(seed=1), n_pieces=16, backend=backend,
                         algorithm=Algorithm.RECIPROCITY)
        metrics = run_simulation(config).metrics
        assert metrics.rounds_run == config.max_rounds
        assert metrics.termination == "complete"
