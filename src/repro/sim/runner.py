"""The simulation runner: wires engine, swarm, strategies and metrics.

One :class:`Simulation` reproduces the experimental setup of
Section V-A: a single seeder, a flash crowd of users arriving within
the first ``flash_crowd_duration`` seconds, heterogeneous upload
capacities, immediate departure on completion, and (optionally) a
free-riding population running the targeted attacks of Section V-B2.

Time advances in one-second rounds scheduled on the discrete-event
engine (arrivals and the round tick are events). Within a round every
active peer's strategy spends its upload budget through guarded
transfer primitives defined here, which keep ledgers, piece
availability, reputation reports, metrics, and T-Chain key state
consistent.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import InvariantViolationError
from repro.names import Algorithm
from repro.obs.runtime import ObsRuntime
from repro.sim.arrivals import flash_crowd_arrivals, poisson_arrivals
from repro.sim.config import SimulationConfig
from repro.sim.guards import GuardRuntime
from repro.sim.context import StrategyContext
from repro.sim.engine import EventEngine
from repro.sim.faults import FaultModel
from repro.sim.metrics import (MetricsCollector, PeerSummary,
                               SimulationMetrics, TransferRecord,
                               run_termination)
from repro.sim.peer import Obligation, Peer, PendingPiece
from repro.sim.pieces import bits_to_list, rarest_first
from repro.sim.rng import RandomStreams
from repro.sim.swarm import Swarm

__all__ = ["Simulation", "SimulationResult", "build_engine",
           "run_simulation"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one run: the config that produced it plus metrics."""

    config: SimulationConfig
    metrics: SimulationMetrics

    @property
    def algorithm(self) -> Algorithm:
        return self.config.algorithm

    def conservation_holds(self) -> bool:
        """Eq. 1 as a ledger identity: every sent piece was received."""
        return self.metrics.total_uploaded == self.metrics.total_received_raw


class Simulation:
    """One configured run of the cooperative-computing simulator."""

    def __init__(self, config: SimulationConfig) -> None:
        # Imported here, not at module scope: the strategy package
        # depends on repro.sim.config, so a module-level import would
        # be circular through the repro.sim package init.
        from repro.algorithms import SeederStrategy, create_strategy
        from repro.attacks import FreeRiderStrategy
        self._seeder_strategy_cls = SeederStrategy
        self._freerider_strategy_cls = FreeRiderStrategy
        self._create_strategy = create_strategy
        self.config = config
        self.streams = RandomStreams(config.seed)
        self.engine = EventEngine()
        self.swarm = Swarm(config.n_pieces, config.neighbor_count,
                           self.streams.stream("views"))
        self.collector = MetricsCollector()
        self.round_index = 0
        self._piece_rng = self.streams.stream("pieces")
        self._order_rng = self.streams.stream("order")
        self._tchain_rng = self.streams.stream("tchain")
        self._strategies: Dict[int, object] = {}  # keyed by lineage id
        self._all_peers: List[Peer] = []  # non-seeder peers, creation order
        self._coalition: List[Peer] = []
        self._arrived = 0
        self._seeder: Optional[Peer] = None
        self._churn_rng = self.streams.stream("churn")
        self._linger_rng = self.streams.stream("linger")
        self._finished = False
        #: Fault injection: draws from its own substream, so enabling
        #: faults never perturbs any other stochastic subsystem.
        self.faults = FaultModel(config.faults, self.streams.stream("faults"))
        #: Reputation reports in flight: (due_round, lineage_id, amount).
        #: Queued by *lineage*, not peer id: a whitewashing uploader
        #: changes peer ids while the report is in flight, and the
        #: credit must land on whoever that lineage is *now* — or be
        #: dropped if it departed (see :meth:`_flush_due_reports`).
        self._delayed_reports: Deque[Tuple[int, int, float]] = deque()
        #: Lineage id -> the (single, possibly re-identified) peer.
        self._peers_by_lineage: Dict[int, Peer] = {}
        #: (receiver lineage, piece) pairs whose delivery was lost —
        #: cleared (and counted as a retry) when a later send lands.
        self._lost_deliveries: Set[Tuple[int, int]] = set()
        #: Invariant guards and crash forensics. Observation-only:
        #: consumes no randomness and mutates nothing the simulation
        #: reads, so guarded runs are digest-identical to unguarded.
        self._guards: Optional[GuardRuntime] = (
            GuardRuntime(config.guards) if config.guards.enabled else None)
        #: Streaming observability (:mod:`repro.obs`): tracer, samplers
        #: and spans. Observation-only, exactly like the guards.
        self._obs: Optional[ObsRuntime] = (
            ObsRuntime(config.obs) if config.obs.enabled else None)
        self._install_topology()
        self._build_population()
        if self._obs is not None:
            self._obs.attach(self)

    @property
    def obs(self) -> Optional[ObsRuntime]:
        """The run's observability runtime (None when disabled)."""
        return self._obs

    # ------------------------------------------------------------------
    # Population construction
    # ------------------------------------------------------------------
    def _install_topology(self) -> None:
        """Precompute structured neighbor views (ring / small world).

        User ids are allocated deterministically after the seeders, so
        the adjacency can be built before any arrival. The seeders keep
        their tracker-maintained global view; whitewashed identities
        (ids outside the map) fall back to random sampling.
        """
        topology = self.config.view_topology
        if topology == "random":
            return
        import networkx as nx

        n = self.config.n_users
        k = max(2, min(self.config.neighbor_count, n - 1))
        if k % 2:
            k -= 1  # watts_strogatz needs an even degree
        rewire = 0.0 if topology == "ring" else 0.1
        graph = nx.watts_strogatz_graph(
            n, k, rewire, seed=self.streams.stream("topology").randint(
                0, 2**31 - 1))
        first_user_id = self.config.n_seeders
        views = {
            first_user_id + node: {first_user_id + other
                                   for other in graph.neighbors(node)}
            for node in graph.nodes
        }
        self.swarm.set_static_views(views)

    def _capacity_assignments(self) -> List[float]:
        """Per-user capacities honouring the class fractions exactly."""
        cfg = self.config
        counts = [int(cls.fraction * cfg.n_users) for cls in cfg.capacity_classes]
        # Distribute rounding remainder to the largest classes first.
        shortfall = cfg.n_users - sum(counts)
        order = sorted(range(len(counts)),
                       key=lambda i: -cfg.capacity_classes[i].fraction)
        for i in range(shortfall):
            counts[order[i % len(order)]] += 1
        capacities: List[float] = []
        for cls, count in zip(cfg.capacity_classes, counts):
            capacities.extend([cls.capacity] * count)
        self.streams.stream("capacity").shuffle(capacities)
        return capacities

    def _build_population(self) -> None:
        cfg = self.config
        # Seeders first: present from time zero. The tracker keeps
        # every user connected to the seeders, so no user can be
        # starved by a view full of departed peers.
        self._seeders: List[Peer] = []
        for index in range(cfg.n_seeders):
            seeder_id = self.swarm.allocate_id()
            seeder = Peer(seeder_id, cfg.seeder_capacity, cfg.n_pieces,
                          arrival_time=0.0, is_seeder=True)
            seeder.large_view = True
            self.swarm.add_peer(seeder)
            self._strategies[seeder.lineage_id] = self._seeder_strategy_cls(
                cfg.strategy_params, self.streams.stream(f"seeder:{index}"))
            self._seeders.append(seeder)
        self._seeder = self._seeders[0]

        capacities = self._capacity_assignments()
        if cfg.arrival_process == "poisson":
            arrivals = poisson_arrivals(cfg.n_users, cfg.arrival_rate,
                                        self.streams.stream("arrivals"))
        else:
            arrivals = flash_crowd_arrivals(cfg.n_users,
                                            cfg.flash_crowd_duration,
                                            self.streams.stream("arrivals"))
        role_rng = self.streams.stream("roles")
        freerider_indices = set(
            role_rng.sample(range(cfg.n_users), cfg.n_freeriders))

        for index in range(cfg.n_users):
            peer_id = self.swarm.allocate_id()
            peer = Peer(peer_id, capacities[index], cfg.n_pieces,
                        arrival_time=arrivals[index],
                        is_freerider=index in freerider_indices)
            if peer.is_freerider:
                peer.large_view = cfg.attack.large_view
                peer.whitewash_interval = cfg.attack.whitewash_interval
                self._coalition.append(peer)
            self._all_peers.append(peer)
            self._peers_by_lineage[peer.lineage_id] = peer
            strategy = self._make_strategy(peer)
            self._strategies[peer.lineage_id] = strategy
            self.engine.schedule_at(
                arrivals[index],
                lambda _e, p=peer: self._on_arrival(p),
                name=f"arrival:{peer_id}")

        self._sync_coalition()
        self._round_handle = self.engine.schedule_every(
            1.0, lambda _e: self._on_round(), name="round")

    def _make_strategy(self, peer: Peer):
        rng = self.streams.stream(f"strategy:{peer.lineage_id}")
        if peer.is_freerider:
            return self._freerider_strategy_cls(
                self.config.strategy_params, rng, attack=self.config.attack)
        return self._create_strategy(self.config.algorithm,
                                     self.config.strategy_params, rng)

    def _sync_coalition(self) -> None:
        """Refresh colluder id sets (ids change under whitewashing).

        Departed or crashed colluders are dropped: a coalition member
        that failed mid-attack can no longer issue false confirmations,
        and keeping its dead id in the sets would only mask that.
        """
        if not (self.config.attack.collusion or self.config.attack.false_praise):
            return
        ids = {p.peer_id for p in self._coalition if not p.departed}
        for peer in self._coalition:
            peer.colluders = ids - {peer.peer_id}

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, peer: Peer) -> None:
        self.swarm.add_peer(peer)
        self._arrived += 1

    def _on_round(self) -> None:
        if self._finished:
            return
        self.round_index += 1
        self._flush_due_reports()
        self._process_seeder_outages()
        active = [self.swarm.peers[pid] for pid in self.swarm.active_ids]
        self._order_rng.shuffle(active)
        for peer in active:
            if peer.peer_id not in self.swarm.peers:
                continue  # departed earlier this round
            if peer.offline_until > self.round_index:
                continue  # transient outage: no credit, no sends
            peer.budget.new_round()
            strategy = self._strategies[peer.lineage_id]
            strategy.on_round(StrategyContext(self, peer, strategy.rng))
        for peer in list(self.swarm.peers.values()):
            peer.end_round()
        self._process_departures()
        self._process_churn()
        self._process_crashes()
        self._expire_obligations()
        self._process_whitewashing()
        if self.round_index % self.config.sample_interval == 0:
            self._sample()
        if self._all_departed() or self.round_index >= self.config.max_rounds:
            self._finished = True
            self._round_handle.cancel()
            self.engine.stop()
        if self._guards is not None:
            self._guards.after_round(self)
        if self._obs is not None:
            self._obs.after_round(self)

    def _all_departed(self) -> bool:
        """All compliant users arrived and finished (or churned out).

        Free-riders are excluded: the swarm's useful lifetime ends when
        the content has reached every legitimate user, and metrics —
        notably susceptibility — are measured over that window.
        Lingering seeds do not extend the run.
        """
        if self._arrived < self.config.n_users:
            return False
        return all(p.completion_time is not None or p.departed
                   for p in self._all_peers if not p.is_freerider)

    def _process_departures(self) -> None:
        """Completed users exit — immediately (Section V-A), or after
        a geometric lingering period when ``seed_linger_rate`` is set
        (the fluid model's seed departure rate gamma)."""
        linger = self.config.seed_linger_rate
        for peer in list(self.swarm.peers.values()):
            if peer.is_seeder or not peer.complete:
                continue
            if peer.completion_time is None:
                peer.completion_time = self.engine.now
            if linger is not None and self._linger_rng.random() >= linger:
                continue  # stays one more round as a lingering seed
            peer.departed = True
            self.swarm.remove_peer(peer.peer_id)
            self._drop_orphaned_obligations(peer.peer_id)

    def _process_churn(self) -> None:
        """Early departures: incomplete users abort with ``abort_rate``.

        The fluid model's theta, realised per round. Aborting users
        leave without a completion time; their pieces leave with them
        and any keys they held are lost.
        """
        rate = self.config.abort_rate
        if rate <= 0.0:
            return
        for peer in list(self.swarm.peers.values()):
            if peer.is_seeder or peer.complete:
                continue
            if self._churn_rng.random() < rate:
                peer.departed = True
                self.swarm.remove_peer(peer.peer_id)
                self._drop_orphaned_obligations(peer.peer_id)

    def _drop_orphaned_obligations(self, departed_id: int) -> None:
        """Keys held by a departed uploader are lost: drop those pieces.

        The encrypted data is useless without the key, and the pending
        entry would otherwise block re-downloading the piece from
        someone else.
        """
        for peer in self.swarm.peers.values():
            orphaned = [piece_id for piece_id, entry in peer.pending.items()
                        if entry.obligation.uploader_id == departed_id]
            for piece_id in orphaned:
                peer.drop_pending_piece(piece_id)
            if orphaned:
                self.swarm.note_state_changed()
                self.collector.record_orphaned_obligations(len(orphaned))
                if self._obs is not None:
                    self._obs.note_fault(self, "obligations_orphaned",
                                         peer=peer.peer_id,
                                         uploader=departed_id,
                                         count=len(orphaned))

    # ------------------------------------------------------------------
    # Fault processing (all no-ops under the default zero-fault config)
    # ------------------------------------------------------------------
    def _process_crashes(self) -> None:
        """Permanent mid-download failures at the configured hazard.

        Unlike ``abort_rate`` churn (a modelling knob of the fluid
        analysis) crashes are injected faults: counted in the fault
        tallies, and — because a crashed colluder can no longer confirm
        anything — they shrink any active attack coalition.
        """
        if self.config.faults.crash_hazard <= 0.0:
            return
        coalition_hit = False
        for peer in list(self.swarm.peers.values()):
            if peer.is_seeder or peer.complete:
                continue
            if self.faults.peer_crashes():
                peer.departed = True
                self.swarm.remove_peer(peer.peer_id)
                self._drop_orphaned_obligations(peer.peer_id)
                self.collector.record_crash()
                if self._obs is not None:
                    self._obs.note_fault(self, "crash", peer=peer.peer_id,
                                         freerider=peer.is_freerider)
                coalition_hit = coalition_hit or peer.is_freerider
        if coalition_hit:
            self._sync_coalition()

    def _process_seeder_outages(self) -> None:
        """Transient seeder failures: offline for a fixed spell.

        An offline seeder keeps its pieces and its swarm registration
        (views are untouched) but earns no budget and sends nothing
        until it recovers.
        """
        if self.config.faults.seeder_outage_rate <= 0.0:
            return
        duration = self.config.faults.seeder_outage_duration
        for seeder in self._seeders:
            if seeder.offline_until > self.round_index:
                self.collector.record_seeder_downtime()
                continue
            if self.faults.seeder_fails():
                seeder.offline_until = self.round_index + duration
                self.collector.record_seeder_outage()
                self.collector.record_seeder_downtime()
                if self._obs is not None:
                    self._obs.note_fault(self, "seeder_outage",
                                         seeder=seeder.peer_id,
                                         until=seeder.offline_until)

    def _expire_obligations(self) -> None:
        """Key timeout: drop pending pieces whose key never arrived.

        Under transfer loss or crashes a reciprocation (or its
        confirmation) can vanish in flight, leaving the encrypted piece
        pending forever — blocking a re-download and leaking state.
        Entries older than ``obligation_expiry_rounds`` are discarded;
        the receiver may then fetch the piece again from anyone.
        """
        expiry = self.config.faults.obligation_expiry_rounds
        if expiry is None:
            return
        horizon = self.round_index - expiry
        for peer in self.swarm.peers.values():
            stale = [piece_id for piece_id, entry in peer.pending.items()
                     if entry.obligation.created_round <= horizon]
            for piece_id in stale:
                peer.drop_pending_piece(piece_id)
            if stale:
                self.swarm.note_state_changed()
                self.collector.record_expired_obligations(len(stale))
                if self._obs is not None:
                    self._obs.note_fault(self, "obligations_expired",
                                         peer=peer.peer_id,
                                         count=len(stale))

    def _flush_due_reports(self) -> None:
        """Deliver delayed reputation reports that have come due.

        Reports are queued by lineage and resolved to the lineage's
        *current* peer id here: crediting the id captured at send time
        would resurrect a whitewashed identity's score (which
        ``Swarm.reset_identity`` just forgot) while the live identity
        silently lost the credit it earned. Reports whose lineage has
        departed (or crashed) are discarded and counted as a fault —
        there is no live identity left to credit.
        """
        reports = self._delayed_reports
        while reports and reports[0][0] <= self.round_index:
            _due, lineage_id, amount = reports.popleft()
            uploader = self._peers_by_lineage.get(lineage_id)
            if uploader is None or uploader.departed:
                self.collector.record_dropped_report()
                if self._obs is not None:
                    self._obs.note_fault(self, "report_dropped",
                                         lineage=lineage_id, amount=amount)
                continue
            self.swarm.reputation.report(uploader.peer_id, amount)
            if self._obs is not None:
                self._obs.note_reputation(self, "delivered",
                                          uploader.peer_id, amount)

    def _report_upload(self, uploader: Peer) -> None:
        """Report a genuine upload, immediately or after the fault delay."""
        if uploader.is_seeder:
            return
        delay = self.config.faults.report_delay_rounds
        if delay <= 0:
            self.swarm.reputation.report(uploader.peer_id, 1.0)
            if self._obs is not None:
                self._obs.note_reputation(self, "report", uploader.peer_id,
                                          1.0)
        else:
            self._delayed_reports.append(
                (self.round_index + delay, uploader.lineage_id, 1.0))
            self.collector.record_delayed_report()
            if self._obs is not None:
                self._obs.note_reputation(self, "queued", uploader.peer_id,
                                          1.0, due=self.round_index + delay)

    def _process_whitewashing(self) -> None:
        interval = self.config.attack.whitewash_interval
        if interval is None:
            return
        reset_any = False
        for peer in list(self.swarm.peers.values()):
            if (peer.is_freerider and peer.whitewash_interval
                    and self.round_index % peer.whitewash_interval == 0):
                self.swarm.reset_identity(peer)
                reset_any = True
        if reset_any:
            self._sync_coalition()

    # ------------------------------------------------------------------
    # Transfer primitives (called through StrategyContext)
    # ------------------------------------------------------------------
    def _valid_target(self, uploader: Peer, target_id: int) -> Optional[Peer]:
        if not uploader.budget.can_send():
            return None
        target = self.swarm.peers.get(target_id)
        if target is None or target.is_seeder or target.complete:
            return None
        if target.peer_id == uploader.peer_id:
            return None
        return target

    def _record_trace(self, uploader: Peer, target: Peer, piece: int,
                      kind: str, usable: bool, lost: bool = False) -> None:
        if self._guards is not None:
            self._guards.note_transfer(self, uploader, target, piece, kind,
                                       usable, lost)
        if self._obs is not None:
            self._obs.note_transfer(self, uploader, target, piece, kind,
                                    usable, lost)
        if self.config.record_transfers:
            self.collector.metrics.transfers.append(TransferRecord(
                time=self.engine.now, uploader_id=uploader.peer_id,
                target_id=target.peer_id, piece_id=piece, kind=kind,
                usable=usable, lost=lost))

    def _transfer_lost(self, uploader: Peer, target: Peer, piece: int,
                       kind: str) -> bool:
        """Fault hook: was this send dropped in flight?

        A lost transfer has already consumed the uploader's budget (the
        bandwidth was spent); nothing is delivered, no ledgers move,
        and no reputation is earned. The (receiver, piece) pair is
        remembered so a later successful delivery counts as a retry.
        """
        if not self.faults.transfer_lost():
            return False
        self.collector.record_lost_transfer()
        self._lost_deliveries.add((target.lineage_id, piece))
        if self._obs is not None:
            self._obs.note_fault(self, "transfer_lost",
                                 uploader=uploader.peer_id,
                                 target=target.peer_id, piece=piece,
                                 kind=kind)
        self._record_trace(uploader, target, piece, kind, usable=False,
                          lost=True)
        return True

    def _note_delivery(self, target: Peer, piece: int) -> None:
        """Count a delivery that recovers a previously lost send."""
        key = (target.lineage_id, piece)
        if key in self._lost_deliveries:
            self._lost_deliveries.discard(key)
            self.collector.record_retried_transfer()

    def _choose_piece(self, uploader: Peer, target: Peer) -> Optional[int]:
        """Pick which needed piece to send, per the configured policy.

        Candidates are handled as a bitmask end to end; both policies
        enumerate them in ascending piece order, so piece selection is
        reproducible across Python versions for a fixed seed.
        """
        candidate_mask = target.needed_mask_from(uploader)
        if not candidate_mask:
            return None
        if self.config.piece_selection == "random":
            return self._piece_rng.choice(bits_to_list(candidate_mask))
        return rarest_first(candidate_mask, self.swarm.availability,
                            self._piece_rng)

    def transfer_plain(self, uploader: Peer, target_id: int,
                       piece_id: Optional[int] = None) -> bool:
        """Send one immediately usable piece; True on success."""
        target = self._valid_target(uploader, target_id)
        if target is None:
            return False
        if piece_id is None:
            piece = self._choose_piece(uploader, target)
        else:
            piece = piece_id if (piece_id in uploader.pieces
                                 and target.needs_piece(piece_id)) else None
        if piece is None:
            return False
        uploader.budget.consume()
        if self._transfer_lost(uploader, target, piece, "plain"):
            return False
        uploader.record_upload(target.peer_id)
        self._report_upload(uploader)
        target.record_receipt(uploader.peer_id, usable=True)
        target.add_usable_piece(piece)
        self.swarm.on_piece_gained(target, piece)
        self._note_delivery(target, piece)
        self.collector.record_transfer(target.is_freerider, usable=True,
                                       from_seeder=uploader.is_seeder)
        self._record_trace(uploader, target, piece, "plain", usable=True)
        self._on_piece_gained(target)
        return True

    def _on_piece_gained(self, peer: Peer) -> None:
        if peer.bootstrap_time is None and len(peer.pieces) >= 1:
            peer.bootstrap_time = self.engine.now
            if self._obs is not None:
                self._obs.note_bootstrap(self, peer, encrypted=False)
        if peer.complete and peer.completion_time is None:
            peer.completion_time = self.engine.now
            if self._obs is not None:
                self._obs.note_completion(self, peer)

    # ------------------------------------------------------------------
    # T-Chain mechanics
    # ------------------------------------------------------------------
    def tchain_blacklisted(self, target: Peer) -> bool:
        """Refuse service to peers sitting on unmet obligations.

        A peer is blacklisted while it has an obligation older than
        the configured patience, or already holds the maximum number
        of outstanding encrypted pieces.
        """
        params = self.config.strategy_params
        if len(target.pending) >= params.tchain_max_pending:
            return True
        oldest = target.oldest_pending_round
        return (oldest is not None
                and oldest <= self.round_index - params.tchain_obligation_patience)

    def tchain_seed(self, uploader: Peer, target_id: int) -> bool:
        """Opportunistically seed one encrypted piece to ``target_id``.

        Returns False if no eligible piece was sent *or* the send was
        lost in flight (fault injection) — budget is consumed either
        way in the latter case.
        """
        target = self._valid_target(uploader, target_id)
        if target is None or self.tchain_blacklisted(target):
            return False
        piece = self._choose_piece(uploader, target)
        if piece is None:
            return False
        return self._tchain_deliver(uploader, target, piece)

    def tchain_seed_random(self, uploader: Peer, rng: random.Random) -> bool:
        """Seed a random eligible needy neighbor; try until one works."""
        # Inlined blacklist check: this scans every needy neighbor, so
        # the per-candidate call overhead dominates at swarm scale.
        params = self.config.strategy_params
        max_pending = params.tchain_max_pending
        horizon = self.round_index - params.tchain_obligation_patience
        peers = self.swarm.peers
        candidates = []
        for pid in self.swarm.needy_neighbors(uploader):
            target = peers[pid]
            if len(target.pending) >= max_pending:
                continue
            oldest = target.oldest_pending_round
            if oldest is not None and oldest <= horizon:
                continue
            candidates.append(pid)
        rng.shuffle(candidates)
        for target_id in candidates:
            if self.tchain_seed(uploader, target_id):
                return True
        return False

    def _choose_designated(self, uploader: Peer, target: Peer,
                           piece: int) -> Optional[int]:
        """Pick a third user who needs ``piece`` for indirect reciprocity."""
        # Seeders hold every piece, so the needs check (inlined: this
        # scans the whole neighbor view) excludes them on its own.
        peers = self.swarm.peers
        target_id = target.peer_id
        options = [pid for pid in self.swarm.neighbors(uploader.peer_id)
                   if pid != target_id
                   and (other := peers.get(pid)) is not None
                   and not (other.pieces.mask | other.pending_mask)
                   >> piece & 1]
        if not options:
            return None
        return self._tchain_rng.choice(options)

    def _tchain_deliver(self, uploader: Peer, target: Peer,
                        piece: int) -> bool:
        """Deliver an encrypted piece and attach its obligation.

        If direct repayment is currently possible (the uploader needs
        one of the target's usable pieces) the obligation is direct;
        otherwise a designated third user is chosen for indirect
        reciprocity. The collusion attack strikes exactly here: a
        free-riding receiver whose designated third party is a fellow
        colluder gets the key released on a false confirmation.
        Returns False (budget spent, no obligation created) when fault
        injection drops the send.
        """
        uploader.budget.consume()
        if self._transfer_lost(uploader, target, piece, "seed"):
            return False
        uploader.record_upload(target.peer_id)
        self._report_upload(uploader)
        target.record_receipt(uploader.peer_id, usable=False)
        self._note_delivery(target, piece)
        designated: Optional[int] = None
        if not uploader.needed_pieces_from(target):
            designated = self._choose_designated(uploader, target, piece)
        self.collector.record_transfer(target.is_freerider, usable=False,
                                       from_seeder=uploader.is_seeder)
        self._record_trace(uploader, target, piece, "seed", usable=False)
        colluding = (self.config.attack.collusion
                     and target.is_freerider
                     and designated is not None
                     and designated in target.colluders)
        if colluding:
            # The designated colluder falsely reports receipt; the
            # uploader releases the key without any reciprocation.
            target.add_usable_piece(piece)
            self.swarm.on_piece_gained(target, piece)
            target.mark_usable()
            self.collector.record_unlock(for_freerider=True)
            self._on_piece_gained(target)
        else:
            target.add_pending_piece(
                piece, Obligation(uploader.peer_id, piece, designated,
                                  self.round_index))
            self.swarm.on_pending_added(target)
            if target.bootstrap_time is None:
                # Receiving the (encrypted) piece bootstraps the
                # newcomer: it can immediately participate by
                # forwarding it (indirect reciprocity).
                target.bootstrap_time = self.engine.now
                if self._obs is not None:
                    self._obs.note_bootstrap(self, target, encrypted=True)
        return True

    def tchain_fulfill(self, receiver: Peer, pending: PendingPiece) -> bool:
        """Reciprocate for one pending piece, unlocking it on success.

        Order of attempts: (1) direct repayment to the uploader,
        (2) forward the encrypted piece to the designated third user
        (or any needy user if the designation went stale),
        (3) contribute any other usable piece to any needy neighbor.
        """
        if pending.piece_id not in receiver.pending:
            return False
        if not receiver.budget.can_send():
            return False
        obligation = pending.obligation
        uploader = self.swarm.peers.get(obligation.uploader_id)
        if uploader is None:
            # Key holder left: the encrypted data is worthless.
            receiver.drop_pending_piece(pending.piece_id)
            self.swarm.note_state_changed()
            return False

        # (1) Direct reciprocity.
        if not uploader.complete and uploader.needed_pieces_from(receiver):
            if self.transfer_plain(receiver, uploader.peer_id):
                self._unlock(receiver, pending)
                return True
            if not receiver.budget.can_send():
                # The repayment was attempted but lost in flight and
                # spent the last of this round's budget: try again
                # next round rather than over-spending.
                return False

        # (2) Forward the received piece (indirect reciprocity).
        forward_target = self._forward_target(receiver, obligation,
                                              pending.piece_id)
        if forward_target is not None:
            target = self.swarm.peers[forward_target]
            # Temporarily release the pending entry so the forward does
            # not collide with the receiver's own bookkeeping.
            return self._forward_encrypted(receiver, target, pending)

        # (3) Generalised indirect reciprocity: contribute any other
        # piece — still *encrypted*, so the new receiver incurs its own
        # obligation and free-riders gain nothing usable from it.
        if len(receiver.pieces) > 0:
            candidates = [pid for pid in self.swarm.needy_neighbors(receiver)
                          if pid != obligation.uploader_id]
            self._tchain_rng.shuffle(candidates)
            for pid in candidates:
                if self.tchain_seed(receiver, pid):
                    self._unlock(receiver, pending)
                    return True
        return False

    def _forward_target(self, receiver: Peer, obligation: Obligation,
                        piece: int) -> Optional[int]:
        designated = obligation.designated_target
        if (designated is not None and designated in self.swarm.peers
                and self.swarm.peers[designated].needs_piece(piece)
                and not self.tchain_blacklisted(self.swarm.peers[designated])):
            return designated
        # Inlined needs + blacklist checks (full neighbor-view scan);
        # seeders need nothing, so the needs check excludes them.
        params = self.config.strategy_params
        max_pending = params.tchain_max_pending
        horizon = self.round_index - params.tchain_obligation_patience
        peers = self.swarm.peers
        options = []
        for pid in self.swarm.neighbors(receiver.peer_id):
            if pid == obligation.uploader_id:
                continue
            other = peers[pid]
            if (other.pieces.mask | other.pending_mask) >> piece & 1:
                continue
            if len(other.pending) >= max_pending:
                continue
            oldest = other.oldest_pending_round
            if oldest is not None and oldest <= horizon:
                continue
            options.append(pid)
        if not options:
            return None
        return self._tchain_rng.choice(options)

    def _forward_encrypted(self, receiver: Peer, target: Peer,
                           pending: PendingPiece) -> bool:
        """Forward a still-encrypted piece to fulfil an obligation.

        Returns False when the forward is lost in flight: the budget is
        spent but the obligation stays unmet and the key stays locked.
        """
        piece = pending.piece_id
        receiver.budget.consume()
        if self._transfer_lost(receiver, target, piece, "forward"):
            return False
        receiver.record_upload(target.peer_id)
        self._report_upload(receiver)
        target.record_receipt(receiver.peer_id, usable=False)
        self._note_delivery(target, piece)
        designated: Optional[int] = None
        if not receiver.needed_pieces_from(target):
            designated = self._choose_designated(receiver, target, piece)
        self.collector.record_transfer(target.is_freerider, usable=False,
                                       from_seeder=False)
        self._record_trace(receiver, target, piece, "forward", usable=False)
        colluding = (self.config.attack.collusion
                     and target.is_freerider
                     and designated is not None
                     and designated in target.colluders)
        if colluding:
            target.add_usable_piece(piece)
            self.swarm.on_piece_gained(target, piece)
            target.mark_usable()
            self.collector.record_unlock(for_freerider=True)
            self._on_piece_gained(target)
        else:
            target.add_pending_piece(
                piece, Obligation(receiver.peer_id, piece, designated,
                                  self.round_index))
            self.swarm.on_pending_added(target)
            if target.bootstrap_time is None:
                target.bootstrap_time = self.engine.now
                if self._obs is not None:
                    self._obs.note_bootstrap(self, target, encrypted=True)
        # The forward is the reciprocation: unlock the receiver's copy.
        self._unlock(receiver, pending)
        return True

    def _unlock(self, receiver: Peer, pending: PendingPiece) -> None:
        """Release the key: the pending piece becomes usable."""
        receiver.unlock_piece(pending.piece_id)
        self.swarm.on_piece_gained(receiver, pending.piece_id)
        receiver.mark_usable()
        self.collector.record_unlock(for_freerider=receiver.is_freerider)
        self._on_piece_gained(receiver)

    # ------------------------------------------------------------------
    # Sampling and results
    # ------------------------------------------------------------------
    def _sample(self) -> None:
        ud_ratios: List[float] = []
        du_ratios: List[float] = []
        for peer in self.swarm.active_non_seeders():
            if peer.is_freerider:
                continue
            if peer.total_downloaded > 0:
                ud_ratios.append(peer.total_uploaded / peer.total_downloaded)
            if peer.total_uploaded > 0:
                du_ratios.append(peer.total_downloaded / peer.total_uploaded)
        fairness_ud = sum(ud_ratios) / len(ud_ratios) if ud_ratios else None
        fairness_du = sum(du_ratios) / len(du_ratios) if du_ratios else None
        bootstrapped = sum(1 for p in self._all_peers
                           if p.bootstrap_time is not None)
        completed = sum(1 for p in self._all_peers
                        if p.completion_time is not None)
        self.collector.sample(
            time=self.engine.now,
            active_peers=len(self.swarm.active_non_seeders()),
            arrived=self._arrived,
            population=self.config.n_users,
            bootstrapped=bootstrapped,
            completed=completed,
            fairness_ud=fairness_ud,
            fairness_du=fairness_du,
        )

    def _summaries(self) -> List[PeerSummary]:
        return [PeerSummary(
            peer_id=p.peer_id,
            lineage_id=p.lineage_id,
            capacity=p.capacity,
            is_freerider=p.is_freerider,
            arrival_time=p.arrival_time,
            bootstrap_time=p.bootstrap_time,
            completion_time=p.completion_time,
            uploaded=p.total_uploaded,
            downloaded=p.total_downloaded,
        ) for p in self._all_peers]

    def total_received_raw(self) -> int:
        """Pieces received across all peers (for Eq. 1 conservation)."""
        return sum(p.total_received_raw for p in self._all_peers)

    def total_uploaded(self) -> int:
        uploads = sum(p.total_uploaded for p in self._all_peers)
        return uploads + sum(s.total_uploaded for s in self._seeders)

    def _send_possible(self) -> bool:
        """Could any member still send anything (see run_termination)?"""
        peers = self.swarm.peers
        for sender in peers.values():
            if sender.is_freerider:
                continue
            have = sender.pieces.mask | sender.pending_mask
            for pid in self.swarm.neighbors(sender.peer_id):
                target = peers[pid]
                if (not target.is_seeder and not target.complete
                        and have & ~(target.pieces.mask
                                     | target.pending_mask)):
                    return True
        return False

    def run(self) -> SimulationResult:
        """Execute the run to completion and return its results."""
        # +2 rounds of slack so the final sample lands before the cap.
        try:
            self.engine.run_until(self.config.max_rounds + 2,
                                  max_events=50_000_000)
        except InvariantViolationError:
            raise  # guards already wrote their bundle
        except Exception as exc:
            if self._guards is not None:
                path = self._guards.on_unhandled_exception(self, exc)
                if path is not None:
                    # Embed the bundle path in the message (args, not
                    # add_note: py3.10) so it survives the str()
                    # serialisation sweep workers apply to errors.
                    exc.bundle_path = path
                    if exc.args and isinstance(exc.args[0], str):
                        exc.args = (f"{exc.args[0]} [bundle: {path}]",
                                    *exc.args[1:])
                    else:
                        exc.args = (*exc.args, f"[bundle: {path}]")
            raise
        metrics = self.collector.finalize(self._summaries(), self.round_index,
                                          self.total_received_raw())
        metrics.termination, metrics.n_stuck = run_termination(
            self.config, self._all_departed(),
            self._arrived < self.config.n_users, bool(self._delayed_reports),
            ((p.is_seeder, p.is_freerider, p.complete, bool(p.pending))
             for p in self.swarm.peers.values()),
            self._send_possible)
        if self._obs is not None:
            metrics.obs = self._obs.finalize()
        return SimulationResult(config=self.config, metrics=metrics)


def import_engines() -> None:
    """Import every module an engine imports on first use: the strategy
    and attack packages, and the array engines with their kernels.

    Callers that fork workers call this first, so each worker inherits
    these modules instead of importing them during its first task.
    """
    import repro.algorithms.vector_kernels  # noqa: F401 - and sim.vector
    import repro.attacks  # noqa: F401


def build_engine(config: SimulationConfig):
    """The engine ``config.backend`` names, built but not yet run:
    this object engine, the digest-identical struct-of-arrays
    :class:`repro.sim.vector.VectorSimulation` (``"vector"``), or its
    distributionally equivalent, ``fast-v1``-stamped subclass
    :class:`repro.sim.vector.VectorFastSimulation` (``"vector-fast"``).
    """
    if config.backend in ("vector", "vector-fast"):
        from repro.sim.vector import VectorFastSimulation, VectorSimulation

        engine = (VectorFastSimulation if config.backend == "vector-fast"
                  else VectorSimulation)
        return engine(config)
    return Simulation(config)


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Build (:func:`build_engine`) and run one simulation.

    Configs with ``population`` set dispatch to the fluid/event-driven
    hybrid engine (:func:`repro.sim.hybrid.run_hybrid_simulation`,
    docs/SCALING.md): subswarms run sequentially in-process here —
    pass ``jobs`` to that function directly (or use the CLI's
    ``--jobs``) for executor fan-out.
    """
    if config.population is not None:
        from repro.sim.hybrid import run_hybrid_simulation

        return run_hybrid_simulation(config)
    return build_engine(config).run()
