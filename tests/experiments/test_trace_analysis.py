"""Tests for trace-based deficit analysis (the [7] bound, measured)."""

from __future__ import annotations

import math
from dataclasses import replace


from repro.experiments import trace_analysis as ta
from repro.experiments.scenarios import smoke_scale
from repro.names import Algorithm
from repro.sim import run_simulation
from repro.sim.metrics import TransferRecord


def record(uploader, target, t=0.0, piece=0):
    return TransferRecord(time=t, uploader_id=uploader, target_id=target,
                          piece_id=piece, kind="plain", usable=True)


class TestPairwiseAccounting:
    def test_upload_counts(self):
        transfers = [record(1, 2), record(1, 2), record(2, 1)]
        counts = ta.pairwise_upload_counts(transfers)
        assert counts == {(1, 2): 2, (2, 1): 1}

    def test_exclusion(self):
        transfers = [record(0, 2), record(2, 3)]
        counts = ta.pairwise_upload_counts(transfers, exclude={0})
        assert counts == {(2, 3): 1}

    def test_deficits_keyed_by_creditor(self):
        transfers = [record(1, 2)] * 3 + [record(2, 1)]
        deficits = ta.pairwise_deficits(transfers)
        assert deficits == {(1, 2): 2}

    def test_balanced_pair_zero(self):
        transfers = [record(1, 2), record(2, 1)]
        deficits = ta.pairwise_deficits(transfers)
        assert list(deficits.values()) == [0]

    def test_trajectory_monotone(self):
        transfers = ([record(1, 2, t=1.0)] * 2 + [record(2, 1, t=2.0)]
                     + [record(1, 2, t=3.0)] * 4)
        trajectory = ta.max_deficit_trajectory(transfers)
        values = [r["max_deficit"] for r in trajectory]
        assert values == sorted(values)
        assert ta.worst_pairwise_deficit(transfers) == 5

    def test_empty_trace(self):
        assert ta.worst_pairwise_deficit([]) == 0
        assert ta.max_deficit_trajectory([]) == []


class TestFairTorrentDeficitBound:
    """Measure Sherman et al.'s O(log N) claim in the simulator."""

    def run_traced(self, algorithm, seed=21):
        config = replace(smoke_scale(algorithm, seed=seed),
                         record_transfers=True, backend="object")
        result = run_simulation(config)
        seeders = set(range(config.n_seeders))
        return ta.worst_pairwise_deficit(result.metrics.transfers,
                                         exclude=seeders), config

    def test_fairtorrent_bounded_by_log_n(self):
        worst, config = self.run_traced(Algorithm.FAIRTORRENT)
        assert worst <= 3.5 * math.log(config.n_users)

    def test_fairtorrent_tighter_than_altruism(self):
        """The deficit discipline is FairTorrent's whole design: its
        worst pairwise imbalance stays below random gifting's."""
        ft, _ = self.run_traced(Algorithm.FAIRTORRENT)
        alt, _ = self.run_traced(Algorithm.ALTRUISM)
        assert ft < alt
