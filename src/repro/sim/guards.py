"""Runtime invariant guards, progress watchdog, and crash forensics.

A silent conservation bug — pieces minted from nowhere, ledgers that
stop summing to zero, a reputation score drifting to NaN — surfaces
today only as a wrong Figure 4-6 number. This module watches a
*running* :class:`repro.sim.runner.Simulation` for exactly that class
of corruption, in the spirit of the accounting audits argued for by
Nielson et al. (arXiv:1108.2716) and Nasrulin et al. (arXiv:2308.07148):

* an :class:`InvariantViolation` registry of read-only checks — piece
  conservation, pairwise-ledger balance, reputation bounds, engine
  clock monotonicity, T-Chain obligation consistency, and NaN/negative
  guards on the metric accumulators;
* a progress watchdog that detects livelocked swarms (no piece
  completed across ``watchdog_window`` rounds while downloaders
  remain) and either raises :class:`repro.errors.SimulationStalled`
  or gracefully finalizes the run with metrics flagged ``degraded``;
* a crash-bundle writer (:mod:`repro.guards.bundle`) invoked on any
  violation, stall, or unhandled runner exception, so failures come
  with self-contained forensics instead of a stack trace alone.

Guards are **observation-only**: they consume no randomness and
mutate nothing the simulation reads, so a run with guards enabled is
byte-identical (same metrics digest) to the same seed with guards off.
The seed-pinned equivalence tests hold the code to that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import (ConfigurationError, InvariantViolationError,
                          SimulationStalled)
from repro.obs.tracer import EventTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.runner import Simulation

__all__ = ["GuardConfig", "InvariantViolation", "GuardRuntime",
           "GUARD_CATALOGUE"]

#: code -> (tier, one-line description). ``cheap`` checks are O(1) per
#: round (heavier ones amortised over ``check_interval``); ``full``
#: checks run every round and add the expensive recomputations.
GUARD_CATALOGUE: Dict[str, Tuple[str, str]] = {
    "clock-monotonic": (
        "cheap", "the engine clock never moves backwards or goes non-finite"),
    "metrics-sanity": (
        "cheap", "metric accumulators are non-negative, finite, and "
                 "monotone non-decreasing"),
    "piece-conservation": (
        "cheap", "every usable piece a non-seeder holds traces to a "
                 "completed transfer (len(pieces) == total_downloaded; "
                 "global sends == global receipts, Eq. 1)"),
    "ledger-balance": (
        "cheap", "pairwise upload/receipt ledgers sum to zero across the "
                 "swarm (FairTorrent deficits are a zero-sum game)"),
    "reputation-bounds": (
        "cheap", "reputation scores are finite, non-negative, and their "
                 "sum never exceeds genuine peer uploads plus fake reports"),
    "tchain-consistency": (
        "cheap", "pending masks/maps/oldest-round caches agree and never "
                 "overlap the usable piece set"),
    "availability-consistency": (
        "full", "the rarest-first availability counts equal a fresh "
                "recount over active peers' piece sets"),
    "transfer-consistency": (
        "full", "an uploader only sends pieces it actually holds "
                "(usable, or pending for T-Chain forwards)"),
}

#: Stall/violation/exception bundles smaller than this ring are
#: cheap enough to keep always; see ``GuardConfig.recent_transfers``.
_DEFAULT_RING = 64


@dataclass(frozen=True)
class GuardConfig:
    """Tunables of the invariant-guard subsystem (``off`` by default).

    Attributes
    ----------
    mode:
        ``"off"`` — no guards at all (the paper's bare simulator);
        ``"cheap"`` — O(1) checks and the watchdog every round, swarm
        scans every ``check_interval`` rounds (<5% wall-time budget);
        ``"full"`` — every check every round, plus per-transfer
        on-event checks and the availability recount.
    check_interval:
        Rounds between swarm-wide scans in ``cheap`` mode.
    watchdog_window:
        Rounds without a single completed (usable) piece gain — while
        incomplete compliant downloaders remain — before the run is
        declared stalled. Arrivals also count as progress so a slow
        Poisson trickle is not misread as a livelock.
    watchdog_action:
        ``"degrade"`` finalizes the run early with partial metrics
        flagged ``degraded=True`` (sweeps get a diagnosable result);
        ``"raise"`` raises :class:`repro.errors.SimulationStalled`.
    bundle_dir:
        Directory for crash-forensics bundles (created on demand).
        ``None`` uses ``crash-bundles`` under the working directory.
    recent_transfers:
        Size of the rolling transfer log embedded in bundles.
    """

    mode: str = "off"
    check_interval: int = 50
    watchdog_window: int = 60
    watchdog_action: str = "degrade"
    bundle_dir: Optional[str] = None
    recent_transfers: int = _DEFAULT_RING

    def __post_init__(self) -> None:
        if self.mode not in ("off", "cheap", "full"):
            raise ConfigurationError(
                f"guards.mode must be 'off', 'cheap', or 'full', "
                f"got {self.mode!r}")
        if self.check_interval < 1:
            raise ConfigurationError("guards.check_interval must be >= 1")
        if self.watchdog_window < 1:
            raise ConfigurationError(
                f"guards.watchdog_window must be >= 1 rounds, got "
                f"{self.watchdog_window} (a window of zero or less would "
                "flag every run as stalled)")
        if self.watchdog_action not in ("degrade", "raise"):
            raise ConfigurationError(
                "guards.watchdog_action must be 'degrade' or 'raise'")
        if self.recent_transfers < 0:
            raise ConfigurationError("guards.recent_transfers must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.mode != "off"


@dataclass(frozen=True)
class InvariantViolation:
    """One failed invariant check, with enough evidence to debug it.

    ``code`` is a stable identifier from :data:`GUARD_CATALOGUE`;
    ``peers`` the peer ids implicated (empty for global checks);
    ``evidence`` the observed-vs-expected values the check compared.
    """

    code: str
    message: str
    time: float
    round_index: int
    peers: Tuple[int, ...] = ()
    evidence: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "time": self.time,
            "round_index": self.round_index,
            "peers": list(self.peers),
            "evidence": dict(self.evidence),
        }


def _finite(value: Optional[float]) -> bool:
    return value is None or (isinstance(value, (int, float))
                             and math.isfinite(value))


class GuardRuntime:
    """Per-run guard state: scheduled checks, watchdog, bundle hooks.

    One instance is owned by a :class:`~repro.sim.runner.Simulation`
    whose config enables guards. Every method is read-only with
    respect to simulation state and consumes no randomness — the
    determinism contract depends on it.
    """

    def __init__(self, config: GuardConfig) -> None:
        self.config = config
        self._full = config.mode == "full"
        #: Round index of the last observed progress (usable piece
        #: gain or arrival); the watchdog measures silence from here.
        self._progress_round = 0
        self._prev_now = 0.0
        #: Previous values of the monotone metric accumulators.
        self._prev_counters: Tuple[int, int, int] = (0, 0, 0)
        #: Rolling transfer log for forensics bundles: a private
        #: :class:`repro.obs.tracer.EventTracer` ring (transfer
        #: category only, unsampled) instead of a bespoke deque — one
        #: ring-buffer implementation serves both guards and obs.
        self._transfer_ring = EventTracer(
            capacity=config.recent_transfers or 1,
            categories=("transfer",))
        #: Degrade-mode stall outcome, stamped onto metrics at the end.
        self._stall_info: Optional[Dict[str, Any]] = None
        self._bundle_path: Optional[str] = None

    # ------------------------------------------------------------------
    # Hooks called by the runner
    # ------------------------------------------------------------------
    def note_progress(self, round_index: int) -> None:
        """A usable piece landed (or a peer arrived): reset the watchdog."""
        self._progress_round = round_index

    @property
    def recent_transfers(self) -> List[Dict[str, Any]]:
        """The rolling transfer log as bundle-ready dicts, oldest first."""
        out: List[Dict[str, Any]] = []
        for event in self._transfer_ring.events():
            record: Dict[str, Any] = {"time": event.time,
                                      "round": event.round_index}
            record.update(event.fields)
            out.append(record)
        return out

    def note_transfer(self, sim: "Simulation", uploader, target, piece: int,
                      kind: str, usable: bool, lost: bool) -> None:
        """Record a transfer in the forensics ring; verify it in full mode."""
        self._transfer_ring.offer(
            sim.engine.now, sim.round_index, "transfer",
            "lost" if lost else kind, {
                "uploader": uploader.peer_id,
                "target": target.peer_id,
                "piece": piece,
                "kind": kind,
                "usable": usable,
                "lost": lost,
            })
        if not self._full:
            return
        # The uploader must hold what it sends: usable pieces for plain
        # and seed transfers, held-or-pending for T-Chain forwards (a
        # forward re-ships a still-encrypted piece).
        held = uploader.pieces.mask
        if kind == "forward":
            held |= uploader.pending_mask
        if not held >> piece & 1:
            self._fail(sim, [InvariantViolation(
                code="transfer-consistency",
                message=(f"peer {uploader.peer_id} sent piece {piece} "
                         f"({kind}) it does not hold"),
                time=sim.engine.now, round_index=sim.round_index,
                peers=(uploader.peer_id, target.peer_id),
                evidence={"piece": piece, "kind": kind,
                          "holds_usable": bool(uploader.pieces.mask
                                               >> piece & 1),
                          "holds_pending": bool(uploader.pending_mask
                                                >> piece & 1)})])

    def after_round(self, sim: "Simulation") -> None:
        """End-of-round sweep: run scheduled checks, then the watchdog."""
        violations: List[InvariantViolation] = []
        violations += self._check_clock(sim)
        violations += self._check_metrics(sim)
        if self._full or sim.round_index % self.config.check_interval == 0:
            violations += self._check_conservation(sim)
            violations += self._check_ledgers(sim)
            violations += self._check_reputation(sim)
            violations += self._check_tchain(sim)
        if self._full:
            violations += self._check_availability(sim)
        if violations:
            self._fail(sim, violations)
        if not sim._finished:
            self._watchdog(sim)

    def on_unhandled_exception(self, sim: "Simulation",
                               exc: BaseException) -> Optional[str]:
        """Dump an ``exception`` bundle for a crash the runner didn't
        anticipate; returns the bundle path (None if writing failed)."""
        try:
            path = self._write_bundle(sim, "exception", error=exc)
        except Exception:  # forensics must never mask the real failure
            return None
        self._bundle_path = path
        return path

    def stamp_metrics(self, metrics) -> None:
        """Transfer degrade-mode outcome onto the finished metrics.

        ``degraded``/``stall``/``bundle_path`` live outside the digest
        fields on purpose: they describe *how the run ended*, not the
        measured physics, and stamping them keeps seed-pinned digests
        byte-identical.
        """
        if self._stall_info is not None:
            metrics.degraded = True
            metrics.stall = dict(self._stall_info)
            metrics.bundle_path = self._bundle_path

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def _watchdog(self, sim: "Simulation") -> None:
        window = self.config.watchdog_window
        silent = sim.round_index - self._progress_round
        if silent < window:
            return
        downloaders = [p.peer_id for p in sim.swarm.peers.values()
                       if not p.is_seeder and not p.is_freerider
                       and not p.complete]
        if not downloaders:
            # Nobody compliant is waiting for data (e.g. only
            # free-riders remain): silence is not a stall.
            self._progress_round = sim.round_index
            return
        stall = {
            "round_index": sim.round_index,
            "time": sim.engine.now,
            "last_progress_round": self._progress_round,
            "window": window,
            "downloaders": downloaders[:32],
            "n_downloaders": len(downloaders),
        }
        try:
            path = self._write_bundle(sim, "stall", stall=stall)
        except Exception:
            path = None
        message = (f"no piece completed for {silent} rounds (window "
                   f"{window}) while {len(downloaders)} downloaders remain")
        if self.config.watchdog_action == "raise":
            raise SimulationStalled(message, stall=stall, bundle_path=path)
        # Graceful degrade: end the run now with partial metrics.
        self._stall_info = stall
        self._bundle_path = path
        sim.finalize_degraded()

    # ------------------------------------------------------------------
    # Checks (all read-only)
    # ------------------------------------------------------------------
    def _check_clock(self, sim: "Simulation") -> List[InvariantViolation]:
        now = sim.engine.now
        out: List[InvariantViolation] = []
        if not math.isfinite(now) or now < self._prev_now:
            out.append(InvariantViolation(
                code="clock-monotonic",
                message=f"engine clock moved from {self._prev_now} to {now}",
                time=now, round_index=sim.round_index,
                evidence={"previous": self._prev_now, "now": now}))
        else:
            self._prev_now = now
        return out

    def _check_metrics(self, sim: "Simulation") -> List[InvariantViolation]:
        collector = sim.collector
        counters = (collector.total_uploaded_so_far,
                    collector.peer_uploaded_so_far,
                    collector.freerider_received_so_far)
        out: List[InvariantViolation] = []
        names = ("total_uploaded", "peer_uploaded", "freerider_received")
        for name, prev, cur in zip(names, self._prev_counters, counters):
            if cur < 0 or cur < prev:
                out.append(InvariantViolation(
                    code="metrics-sanity",
                    message=(f"metric accumulator {name} went from {prev} "
                             f"to {cur}"),
                    time=sim.engine.now, round_index=sim.round_index,
                    evidence={"counter": name, "previous": prev,
                              "current": cur}))
        if not out:
            self._prev_counters = counters
        samples = collector.metrics.samples
        if samples:
            last = samples[-1]
            for name in ("fairness_ud", "fairness_du"):
                if not _finite(getattr(last, name)):
                    out.append(InvariantViolation(
                        code="metrics-sanity",
                        message=f"sample field {name} is non-finite",
                        time=sim.engine.now, round_index=sim.round_index,
                        evidence={"field": name,
                                  "value": repr(getattr(last, name))}))
        fault_fields = vars(collector.faults)
        for name, value in fault_fields.items():
            if value < 0:
                out.append(InvariantViolation(
                    code="metrics-sanity",
                    message=f"fault counter {name} is negative ({value})",
                    time=sim.engine.now, round_index=sim.round_index,
                    evidence={"counter": name, "value": value}))
        return out

    def _check_conservation(self, sim: "Simulation",
                            ) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        for peer in sim._all_peers:
            if len(peer.pieces) != peer.total_downloaded:
                out.append(InvariantViolation(
                    code="piece-conservation",
                    message=(f"peer {peer.peer_id} holds {len(peer.pieces)} "
                             f"usable pieces but downloaded "
                             f"{peer.total_downloaded}"),
                    time=sim.engine.now, round_index=sim.round_index,
                    peers=(peer.peer_id,),
                    evidence={"pieces_held": len(peer.pieces),
                              "total_downloaded": peer.total_downloaded}))
        sent = sim.total_uploaded()
        received = sim.total_received_raw()
        if sent != received:
            out.append(InvariantViolation(
                code="piece-conservation",
                message=(f"Eq. 1 broken: {sent} pieces sent vs {received} "
                         "received"),
                time=sim.engine.now, round_index=sim.round_index,
                evidence={"total_uploaded": sent,
                          "total_received_raw": received}))
        return out

    def _check_ledgers(self, sim: "Simulation") -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        uploaded = 0
        received = 0
        # Every peer that ever existed, departed and seeders included:
        # pairwise symmetry breaks under whitewashing (partners' ledgers
        # keep dead ids), but the *global* sums must still balance.
        for peer in sim._all_peers + sim._seeders:
            peer_uploaded = sum(peer.uploaded_to.values())
            uploaded += peer_uploaded
            received += sum(peer.received_from.values())
            if peer_uploaded != peer.total_uploaded:
                out.append(InvariantViolation(
                    code="ledger-balance",
                    message=(f"peer {peer.peer_id} pairwise uploads sum to "
                             f"{peer_uploaded} but total_uploaded is "
                             f"{peer.total_uploaded}"),
                    time=sim.engine.now, round_index=sim.round_index,
                    peers=(peer.peer_id,),
                    evidence={"ledger_sum": peer_uploaded,
                              "total_uploaded": peer.total_uploaded}))
        if uploaded != received:
            out.append(InvariantViolation(
                code="ledger-balance",
                message=(f"swarm-wide ledgers do not balance: "
                         f"{uploaded} uploaded vs {received} received"),
                time=sim.engine.now, round_index=sim.round_index,
                evidence={"uploaded_sum": uploaded,
                          "received_sum": received}))
        return out

    def _check_reputation(self, sim: "Simulation",
                          ) -> List[InvariantViolation]:
        board = sim.swarm.reputation
        scores = board.snapshot()
        out: List[InvariantViolation] = []
        total = 0.0
        for peer_id, score in scores.items():
            if not math.isfinite(score) or score < 0:
                out.append(InvariantViolation(
                    code="reputation-bounds",
                    message=(f"reputation score of peer {peer_id} is "
                             f"{score!r}"),
                    time=sim.engine.now, round_index=sim.round_index,
                    peers=(peer_id,),
                    evidence={"score": repr(score)}))
                continue
            total += score
        # Every genuine report corresponds to one non-seeder upload;
        # whitewashing only *forgets* scores and delayed reports only
        # defer them, so the board can never exceed this ceiling.
        ceiling = (sim.collector.peer_uploaded_so_far
                   + board.fake_reported + 1e-9)
        if not out and total > ceiling:
            out.append(InvariantViolation(
                code="reputation-bounds",
                message=(f"reputation scores sum to {total}, exceeding "
                         f"genuine uploads + fake reports ({ceiling})"),
                time=sim.engine.now, round_index=sim.round_index,
                evidence={"score_sum": total,
                          "peer_uploaded": sim.collector.peer_uploaded_so_far,
                          "fake_reported": board.fake_reported}))
        return out

    def _check_tchain(self, sim: "Simulation") -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        for peer in sim.swarm.peers.values():
            mask = 0
            oldest = None
            for piece_id, entry in peer.pending.items():
                mask |= 1 << piece_id
                created = entry.obligation.created_round
                if oldest is None or created < oldest:
                    oldest = created
            if mask != peer.pending_mask or oldest != peer.oldest_pending_round:
                out.append(InvariantViolation(
                    code="tchain-consistency",
                    message=(f"peer {peer.peer_id} pending caches are "
                             "inconsistent with its pending map"),
                    time=sim.engine.now, round_index=sim.round_index,
                    peers=(peer.peer_id,),
                    evidence={"pending_mask": peer.pending_mask,
                              "recomputed_mask": mask,
                              "oldest_pending_round":
                                  peer.oldest_pending_round,
                              "recomputed_oldest": oldest}))
            overlap = peer.pieces.mask & peer.pending_mask
            if overlap:
                out.append(InvariantViolation(
                    code="tchain-consistency",
                    message=(f"peer {peer.peer_id} holds pieces that are "
                             "simultaneously usable and pending"),
                    time=sim.engine.now, round_index=sim.round_index,
                    peers=(peer.peer_id,),
                    evidence={"overlap_mask": overlap}))
        return out

    def _check_availability(self, sim: "Simulation",
                            ) -> List[InvariantViolation]:
        swarm = sim.swarm
        n = swarm.n_pieces
        expected = [0] * n
        for peer in swarm.peers.values():
            mask = peer.pieces.mask
            while mask:
                low = mask & -mask
                expected[low.bit_length() - 1] += 1
                mask ^= low
        mismatches = [piece for piece in range(n)
                      if swarm.availability.count(piece) != expected[piece]]
        if not mismatches:
            return []
        return [InvariantViolation(
            code="availability-consistency",
            message=(f"availability counts diverge from peer piece sets "
                     f"for pieces {mismatches[:8]}"),
            time=sim.engine.now, round_index=sim.round_index,
            evidence={"pieces": mismatches[:32],
                      "observed": [swarm.availability.count(p)
                                   for p in mismatches[:32]],
                      "expected": [expected[p] for p in mismatches[:32]]})]

    # ------------------------------------------------------------------
    # Failure path
    # ------------------------------------------------------------------
    def _fail(self, sim: "Simulation",
              violations: List[InvariantViolation]) -> None:
        try:
            path = self._write_bundle(sim, "violation", violations=violations)
        except Exception:
            path = None
        first = violations[0]
        summary = first.message
        if len(violations) > 1:
            summary += f" (+{len(violations) - 1} more violations)"
        raise InvariantViolationError(
            f"[{first.code}] {summary}", violations=tuple(violations),
            bundle_path=path)

    def _write_bundle(self, sim: "Simulation", kind: str,
                      violations: Optional[List[InvariantViolation]] = None,
                      stall: Optional[Dict[str, Any]] = None,
                      error: Optional[BaseException] = None) -> str:
        from repro.guards.bundle import write_bundle
        return write_bundle(sim, kind, guards=self, violations=violations,
                            stall=stall, error=error)
