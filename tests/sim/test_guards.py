"""Tests for the runtime guard subsystem.

Covers the invariant registry (via targeted state corruption),
crash-forensics bundles, and the bundle replay tool. Corruptions are injected through scheduled
events so the guards observe them exactly as they would a genuine bug.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.errors import (ConfigurationError, InvariantViolationError,
                          SimulationError)
from repro.guards import BUNDLE_VERSION, load_bundle, replay
from repro.names import Algorithm
from repro.sim import GuardConfig, SimulationConfig, run_simulation
from repro.sim.metrics import metrics_digest
from repro.sim.guards import GUARD_CATALOGUE
from repro.sim.runner import Simulation


def _config(tmp_path, algorithm=Algorithm.BITTORRENT, mode="full",
            seed=7, **overrides):
    config = SimulationConfig(
        algorithm=algorithm, n_users=20, n_pieces=8, seed=seed,
        flash_crowd_duration=4.0, neighbor_count=8, max_rounds=40)
    return config.with_guards(mode, bundle_dir=str(tmp_path), **overrides)


def _inject(sim, time, corrupt) -> None:
    """Apply ``corrupt(sim)`` mid-run via a scheduled event."""
    sim.engine.schedule_at(time, lambda _engine: corrupt(sim),
                           name="inject-corruption")


def _mint_piece(sim) -> None:
    """Give some incomplete peer a usable piece it never downloaded."""
    for peer in sim._all_peers:
        missing = [i for i in range(sim.config.n_pieces)
                   if i not in peer.pieces and i not in peer.pending]
        if missing:
            peer.add_usable_piece(missing[0])
            return
    raise AssertionError("no incomplete peer to corrupt")


class TestGuardConfig:
    def test_defaults_off(self):
        config = GuardConfig()
        assert config.mode == "off"
        assert not config.enabled

    @pytest.mark.parametrize("kwargs", [
        {"mode": "paranoid"},
        {"check_interval": 0},
        {"check_interval": -1},
        {"mode": "OFF"},
        {"mode": None},
        {"recent_transfers": -1},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ConfigurationError):
            GuardConfig(mode=kwargs.pop("mode", "cheap"), **kwargs)

    def test_with_guards_helper(self, tmp_path):
        config = _config(tmp_path, mode="cheap", check_interval=17)
        assert config.guards.mode == "cheap"
        assert config.guards.check_interval == 17
        assert config.guards.bundle_dir == str(tmp_path)

    def test_catalogue_covers_both_tiers(self):
        tiers = {tier for tier, _ in GUARD_CATALOGUE.values()}
        assert tiers == {"cheap", "full"}
        assert "piece-conservation" in GUARD_CATALOGUE


class TestCleanRuns:
    @pytest.mark.parametrize("mode", ["cheap", "full"])
    def test_guarded_run_is_clean(self, tmp_path, mode):
        run_simulation(_config(tmp_path, mode=mode))
        assert list(tmp_path.iterdir()) == []  # no bundles written

    def test_guards_do_not_change_the_digest(self, tmp_path):
        bare = run_simulation(_config(tmp_path, mode="off"))
        guarded = run_simulation(_config(tmp_path, mode="full"))
        assert metrics_digest(bare.metrics) == metrics_digest(guarded.metrics)


class TestCorruptionDetection:
    def test_minted_piece_trips_conservation(self, tmp_path):
        sim = Simulation(_config(tmp_path))
        _inject(sim, 5.5, _mint_piece)
        with pytest.raises(InvariantViolationError) as excinfo:
            sim.run()
        exc = excinfo.value
        codes = {v.code for v in exc.violations}
        assert "piece-conservation" in codes
        assert exc.bundle_path is not None
        assert f"[bundle: {exc.bundle_path}]" in str(exc)

    def test_ledger_skew_trips_balance(self, tmp_path):
        def skew(sim):
            sim._all_peers[0].uploaded_to[999] += 5

        sim = Simulation(_config(tmp_path))
        _inject(sim, 5.5, skew)
        with pytest.raises(InvariantViolationError) as excinfo:
            sim.run()
        assert {v.code for v in excinfo.value.violations} == {"ledger-balance"}

    def test_nan_reputation_trips_bounds(self, tmp_path):
        def poison(sim):
            board = sim.swarm.reputation
            board._scores[next(iter(sim.swarm.peers))] = float("nan")

        sim = Simulation(_config(tmp_path, algorithm=Algorithm.REPUTATION))
        _inject(sim, 5.5, poison)
        with pytest.raises(InvariantViolationError) as excinfo:
            sim.run()
        codes = {v.code for v in excinfo.value.violations}
        assert codes == {"reputation-bounds"}

    def test_stale_pending_mask_trips_tchain(self, tmp_path):
        def stale(sim):
            # Set a mask bit with no backing pending entry — the exact
            # footprint of a cache-update bug in the pending machinery.
            # The least-advanced peer stays in the swarm long enough for
            # the end-of-round sweep to see the corruption.
            peer = min(sim._all_peers, key=lambda p: len(p.pieces))
            for i in range(sim.config.n_pieces):
                if not peer.pending_mask & (1 << i):
                    peer.pending_mask |= 1 << i
                    return

        sim = Simulation(_config(tmp_path, algorithm=Algorithm.TCHAIN))
        _inject(sim, 5.5, stale)
        with pytest.raises(InvariantViolationError) as excinfo:
            sim.run()
        codes = {v.code for v in excinfo.value.violations}
        assert "tchain-consistency" in codes

    def test_negative_fault_counter_trips_metrics(self, tmp_path):
        def negate(sim):
            faults = sim.collector.faults
            setattr(faults, next(iter(vars(faults))), -3)

        sim = Simulation(_config(tmp_path, mode="cheap"))
        _inject(sim, 5.5, negate)
        with pytest.raises(InvariantViolationError) as excinfo:
            sim.run()
        assert {v.code for v in excinfo.value.violations} == {"metrics-sanity"}


class TestBundles:
    def test_violation_bundle_contents(self, tmp_path):
        sim = Simulation(_config(tmp_path))
        _inject(sim, 5.5, _mint_piece)
        with pytest.raises(InvariantViolationError) as excinfo:
            sim.run()
        payload = load_bundle(excinfo.value.bundle_path)
        assert payload["bundle_version"] == BUNDLE_VERSION
        assert payload["kind"] == "violation"
        assert payload["algorithm"] == Algorithm.BITTORRENT.value
        assert payload["seed"] == 7
        assert payload["config"]["n_users"] == 20
        assert payload["violations"]
        assert payload["violations"][0]["code"] in GUARD_CATALOGUE
        assert payload["peers"], "per-peer summaries missing"
        assert "engine" in payload and "queue_tail" in payload["engine"]
        assert isinstance(payload["recent_transfers"], list)

    def test_bundle_write_is_atomic(self, tmp_path):
        sim = Simulation(_config(tmp_path))
        _inject(sim, 5.5, _mint_piece)
        with pytest.raises(InvariantViolationError):
            sim.run()
        names = [p.name for p in tmp_path.iterdir()]
        assert all(not name.endswith(".tmp") for name in names)
        assert all(name.startswith("bundle-violation-") for name in names)

    def test_bundle_version_is_checked(self, tmp_path):
        path = tmp_path / "bundle-bogus.json"
        path.write_text(json.dumps({"bundle_version": 999, "kind": "x"}))
        with pytest.raises(ValueError, match="bundle_version"):
            load_bundle(str(path))

    def test_unhandled_crash_writes_exception_bundle(self, tmp_path):
        def jump_clock(sim):
            sim.engine._now = 1e9  # next pop sees time running backwards

        sim = Simulation(_config(tmp_path, mode="cheap"))
        _inject(sim, 4.5, jump_clock)
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        exc = excinfo.value
        assert exc.bundle_path is not None
        assert f"[bundle: {exc.bundle_path}]" in str(exc)
        payload = load_bundle(exc.bundle_path)
        assert payload["kind"] == "exception"
        assert payload["error"]["type"] == "SimulationError"
        assert "traceback" in payload["error"]


class TestReplay:
    def test_violation_bundle_replays_to_same_failure(self, tmp_path):
        sim = Simulation(_config(tmp_path))
        _inject(sim, 5.5, _mint_piece)
        with pytest.raises(InvariantViolationError) as excinfo:
            sim.run()

        result = replay(excinfo.value.bundle_path,
                        setup=lambda sim: _inject(sim, 5.5, _mint_piece),
                        bundle_dir=str(tmp_path))
        assert result.outcome == "violation"
        assert result.reproduced
        assert "piece-conservation" in result.codes

    def test_fixed_bug_reports_clean(self, tmp_path):
        sim = Simulation(_config(tmp_path))
        _inject(sim, 5.5, _mint_piece)
        with pytest.raises(InvariantViolationError) as excinfo:
            sim.run()
        # Replay WITHOUT re-applying the corruption: the "bug" is gone,
        # so the replay must come back clean (and say so).
        result = replay(excinfo.value.bundle_path, bundle_dir=str(tmp_path))
        assert result.outcome == "clean"
        assert not result.reproduced

    def test_replay_caps_rounds_near_failure(self, tmp_path):
        sim = Simulation(_config(tmp_path))
        _inject(sim, 5.5, _mint_piece)
        with pytest.raises(InvariantViolationError) as excinfo:
            sim.run()
        result = replay(excinfo.value.bundle_path, bundle_dir=str(tmp_path))
        # The clean replay stops a couple of rounds past the recorded
        # failure instead of running the full original schedule.
        assert result.round_index is not None
        assert result.round_index <= load_bundle(
            excinfo.value.bundle_path)["round_index"] + 2
