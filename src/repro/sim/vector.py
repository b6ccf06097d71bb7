"""Struct-of-arrays fast path for the round loop (the ``vector`` backend).

:class:`VectorSimulation` executes the same simulation as
:class:`repro.sim.runner.Simulation` but stores swarm state in
contiguous arrays indexed by *slot* (one slot per lineage: seeders
first, then users in creation order) instead of one Python object per
peer:

* piece state as integer bitmasks (usable, and usable-or-pending),
  so "does this neighbor need anything I have" is one bigint test;
* pairwise ledgers (uploaded-to / received-from / FairTorrent
  deficits) as per-slot dicts or slot-by-slot matrices, maintained
  only for the algorithms that read them — plus an
  incrementally-maintained creditor set for reciprocity;
* reputations, budgets, totals, times and attack flags as flat
  per-slot arrays;
* T-Chain pending obligations as per-slot dicts with a per-slot
  oldest-round column for the blacklist and expiry tests, and an
  uploader-to-slots reverse index for orphan drops;
* the large-view member ids, the completed members and the fairness
  sample's ratio lists, updated at the events that change them so
  arrivals, departures and samples never rescan the swarm (see
  docs/SIMULATOR.md, "Per-event bookkeeping").

Each uploader turn computes its needy-neighbor pool *once* with one
pass over its sorted view, and repairs it in place after every send
(only the send's target can change state during the uploader's own
turn). The per-algorithm decision rules live in
:mod:`repro.algorithms.vector_kernels`.

Determinism contract
--------------------
The object engine is the oracle. For every supported configuration the
vector backend consumes the *same named random streams in the same
order* and produces a byte-identical metrics digest
(:func:`repro.sim.metrics.metrics_digest`) — enforced per algorithm by
``tests/integration/test_seed_equivalence.py`` and property-tested by
the fuzz suite. To keep that guarantee the event engine is bypassed
rather than re-implemented: rounds fire at exactly ``t = 1.0, 2.0,
...`` with arrivals delivered in index order before the round whose
time they do not exceed, which is precisely the order the event queue
produces (arrival events are scheduled first and carry earlier
sequence numbers). Hot paths inline ``random.Random``'s
``_randbelow``/``shuffle`` (see :func:`_randbelow` / :func:`_shuffle`)
so index draws stay bit-identical to ``rng.choice``/``rng.shuffle``
while exposing the drawn index for O(1) pool repair.

Fault injection
---------------
All five fault axes run natively with draw-exact parity: the loss
coin is flipped on the shared "faults" stream at exactly the points
the object engine flips it (after the budget consume of every send
primitive); seeder outages are processed at the top of each round in
seeder-slot order; crash coins are drawn per incomplete member —
member-insertion order, after churn — with the same array teardown
churn uses plus the fault tally and coalition shrink; delayed
reputation reports are queued by lineage id and flushed (or dropped
and counted) at the top of the next due round; and obligation expiry
scans the pending-piece dicts behind a per-slot oldest-round
short-circuit. Sweeps with ``degradation_rows`` over any fault axis
therefore run vectorized.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.names import Algorithm
from repro.sim.arrivals import flash_crowd_arrivals, poisson_arrivals
from repro.sim.bandwidth import UploadBudget
from repro.sim.config import SimulationConfig
from repro.sim.faults import FaultModel
from repro.sim.metrics import MetricsCollector, PeerSummary, run_termination
from repro.sim.pieces import AvailabilityMap, bits_to_list, iter_bits
from repro.sim.rng import RandomStreams

__all__ = ["VectorSimulation", "VectorFastSimulation"]

#: Sentinel for "no pending obligation" in the oldest-round columns;
#: must compare greater than every reachable blacklist horizon.
_NO_PENDING = 1 << 62


def _randbelow(getrandbits, n: int) -> int:
    """``random.Random._randbelow_with_getrandbits``, inlined.

    Bit-identical draw sequence to ``rng.randrange(n)`` /
    ``rng.choice(seq)`` (which is ``seq[_randbelow(len(seq))]``), with
    the index exposed so callers can repair list pools in place.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle(x: list, getrandbits) -> None:
    """``random.Random.shuffle``, inlined (draw-identical)."""
    for i in range(len(x) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


class _Turn:
    """Per-uploader-turn cache of the needy-neighbor pool.

    ``needy`` is the ascending list of view-member ids that need at
    least one of the uploader's usable pieces (slots, in no fixed
    order, on the fast lineage) — or ``None`` until
    first use for kernels that may finish a turn without it
    (BitTorrent's tit-for-tat slots). During one uploader's turn only
    its *targets* change state, so after each successful send the
    engine pops the single affected entry (by drawn index when known,
    by bisection otherwise) instead of recomputing the pool.
    """

    __slots__ = ("uslot", "needy")

    def __init__(self, uslot: int, needy: Optional[List[int]]) -> None:
        self.uslot = uslot
        self.needy = needy


class VectorSimulation:
    """One configured run on the struct-of-arrays backend."""

    #: Determinism contract stamped onto the metrics (see
    #: ``SimulationMetrics.digest_lineage``); the fast engine overrides.
    digest_lineage = "parity-v1"

    def __init__(self, config: SimulationConfig) -> None:
        from repro.algorithms.vector_kernels import (
            DEFICIT_ALGORITHMS, RECEIVED_ALGORITHMS, RECEIPT_ALGORITHMS)

        kernels, run_spray, run_freerider = self._select_kernels()
        self.config = config
        algorithm = config.algorithm
        self.n_pieces = config.n_pieces
        self._full_mask = (1 << config.n_pieces) - 1
        self.neighbor_count = config.neighbor_count
        self.max_rounds = config.max_rounds
        self.sample_interval = config.sample_interval
        self.attack = config.attack
        self.params = config.strategy_params
        self._collusion = config.attack.collusion
        self._piece_random = config.piece_selection == "random"
        self._max_pending = config.strategy_params.tchain_max_pending
        self._patience = config.strategy_params.tchain_obligation_patience
        self._is_tchain = algorithm is Algorithm.TCHAIN
        #: Ledgers are only maintained for algorithms that read them;
        #: everything else skips the per-send dict updates.
        self._need_rcv = algorithm in RECEIVED_ALGORITHMS
        self._is_rec = algorithm is Algorithm.RECIPROCITY
        self._need_dev = algorithm in DEFICIT_ALGORITHMS
        self._track_rcv = algorithm in RECEIPT_ALGORITHMS
        #: BitTorrent/PropShare read their all-time received ledger as
        #: a slot matrix (vectorized fallback scans); Reciprocity keeps
        #: dicts plus the incremental creditor sets instead.
        self._use_rmat = self._need_rcv and not self._is_rec

        self.streams = RandomStreams(config.seed)
        self._views_rng = self.streams.stream("views")
        self._piece_rng = self.streams.stream("pieces")
        self._piece_grb = self._piece_rng.getrandbits
        self._order_rng = self.streams.stream("order")
        self._tchain_rng = self.streams.stream("tchain")
        self._tchain_grb = self._tchain_rng.getrandbits
        self._churn_rng = self.streams.stream("churn")
        self._linger_rng = self.streams.stream("linger")
        #: Fault injection: same substream as the object engine, drawn
        #: at the same points (see the module docstring), so faulted
        #: runs stay digest-identical across backends.
        self.faults = FaultModel(config.faults, self.streams.stream("faults"))
        self._loss_on = config.faults.transfer_loss_rate > 0.0
        self._outage_on = config.faults.seeder_outage_rate > 0.0
        self._crash_on = config.faults.crash_hazard > 0.0
        self._delay_rounds = config.faults.report_delay_rounds
        self._delay_on = self._delay_rounds > 0
        #: Delayed reputation reports: (due round, uploader lineage,
        #: amount), appended in report order so the due rounds are
        #: monotone — a deque pop from the left flushes them.
        self._delayed_reports: Deque[Tuple[int, int, float]] = deque()
        self._expiry = config.faults.obligation_expiry_rounds
        #: (receiver lineage, piece) pairs whose delivery was lost —
        #: cleared (and counted as a retry) when a later send lands.
        self._lost: Set[Tuple[int, int]] = set()

        self.collector = MetricsCollector()
        self.availability = AvailabilityMap(config.n_pieces)
        self._avail_add = self.availability.add_piece
        self._rarest = self.availability.rarest_subset
        self.round_index = 0
        self.now = 0.0
        self._finished = False
        self._arrived = 0
        self.nboot = 0
        self.ncomp = 0
        self.unfinished = config.n_compliant
        self.fake_reported = 0.0
        # Transfer counters accumulated locally and flushed to the
        # collector before every sample (see _flush_counters).
        self._c_tot = 0
        self._c_peer = 0
        self._c_fr = 0

        n_seeders = config.n_seeders
        self._n_seeders = n_seeders
        n_slots = n_seeders + config.n_users
        self.n_slots = n_slots

        # ---- per-slot state (parallel arrays) -----------------------
        self.usable: List[int] = [0] * n_slots      # usable-piece bitmask
        self.held: List[int] = [0] * n_slots        # usable | pending
        self.cnt: List[int] = [0] * n_slots         # usable-piece count
        self.caps: List[float] = [0.0] * n_slots
        self.seeder: List[bool] = [False] * n_slots
        self.free: List[bool] = [False] * n_slots
        self.largev: List[bool] = [False] * n_slots
        self.wwint: List[Optional[int]] = [None] * n_slots
        self.arrival: List[float] = [0.0] * n_slots
        self.boot: List[Optional[float]] = [None] * n_slots
        self.comp: List[Optional[float]] = [None] * n_slots
        self.departed_f: List[bool] = [False] * n_slots
        self.done: List[bool] = [False] * n_slots
        #: Transient-outage horizon (only seeders ever set it; the
        #: object engine checks every peer, so keep the full array).
        self.offline_until: List[int] = [0] * n_slots
        self.up: List[int] = [0] * n_slots          # total_uploaded
        self.down: List[int] = [0] * n_slots        # total_downloaded
        self.raw: List[int] = [0] * n_slots         # total_received_raw
        self.budgets: List[UploadBudget] = [None] * n_slots  # type: ignore
        self.colluders: List[Set[int]] = [set() for _ in range(n_slots)]
        self.ids: List[int] = [0] * n_slots         # current peer id
        self.lineage: List[int] = [0] * n_slots
        self.srng: List[random.Random] = [None] * n_slots  # type: ignore
        self.kern: List[object] = [None] * n_slots
        #: Dormancy (see ``_on_round``): 0 while a peer takes its turns;
        #: the round of its last turn, ``r``, once its kernel reported
        #: that only a wake event can give it work; ``-r`` once woken,
        #: until its next turn catches up the credit it skipped.
        self._slept: List[int] = [0] * n_slots
        #: False until some peer first sleeps: until then no view
        #: change has anyone to wake, which keeps the per-edge wake off
        #: the arrival path of mechanisms that never sleep.
        self._any_slept = False

        # Pairwise ledgers, algorithm-gated (see class docstring).
        mk = n_slots
        self.rcv_d: List[Dict[int, int]] = (
            [{} for _ in range(mk)]
            if self._need_rcv and not self._use_rmat else [])
        #: All-time received ledger as a slot matrix (same whitewash
        #: semantics as ``D`` below: column zeroed, row kept). The
        #: backing store is an ``array.array`` with the numpy matrix as
        #: a shared-memory view: per-send increments go through the
        #: array (cheaper than numpy scalar indexing) while kernel
        #: gathers stay vectorized.
        self._Rf = (array("i", bytes(4 * mk * mk))
                    if self._use_rmat else None)
        self.R = (np.frombuffer(self._Rf, dtype=np.int32).reshape(mk, mk)
                  if self._use_rmat else None)
        self.upl_d: List[Dict[int, int]] = (
            [{} for _ in range(mk)] if self._is_rec else [])
        self.cred: List[Set[int]] = (
            [set() for _ in range(mk)] if self._is_rec else [])
        #: FairTorrent pairwise deficit (sent minus received), as a
        #: slot-by-slot matrix so a turn's min-deficit scan is one
        #: numpy gather instead of a dict walk. Slot-keying matches
        #: the object engine's id-keyed ledgers because a peer's own
        #: ledger survives whitewashing while *others'* balances
        #: toward its old identity are orphaned — ``_reset_identity``
        #: zeroes the whitewashed column to reproduce that.
        self._Df = (array("i", bytes(4 * mk * mk))
                    if self._need_dev else None)
        self.D = (np.frombuffer(self._Df, dtype=np.int32).reshape(mk, mk)
                  if self._need_dev else None)

        # T-Chain pending obligations: piece -> (uploader_id,
        # designated_target, created_round), with each slot's oldest
        # created round for the blacklist and expiry tests.
        self.pend: List[Dict[int, Tuple[int, Optional[int], int]]] = (
            [{} for _ in range(n_slots)])
        self.poldest: List[int] = [_NO_PENDING] * n_slots
        self._pend_nonempty = 0
        #: Reverse pending index for ``_drop_orphaned``: uploader id ->
        #: the slots it has ever delivered an encrypted piece to. A
        #: superset (never decremented — resolved entries just go
        #: stale), popped wholesale when the uploader departs.
        self._pend_by_up: Dict[int, Set[int]] = {}

        # Tit-for-tat receipt windows (bittorrent / propshare only).
        self.last_rcv: List[Dict[int, int]] = [{} for _ in range(n_slots)]
        self.this_rcv: List[Dict[int, int]] = [{} for _ in range(n_slots)]
        self._rcv_dirty: Set[int] = set()
        self._rcv_last_nonempty: Set[int] = set()

        # ---- identity space -----------------------------------------
        self._next_id = 0
        self._id_cap = max(64, n_slots)
        self.slot_np = np.full(self._id_cap, -1, dtype=np.int64)
        self.rep: List[float] = []                  # reputation by peer id

        # ---- membership and views (keyed by current peer id) --------
        self.members: Dict[int, int] = {}           # id -> slot, insertion order
        self.active: List[int] = []                 # sorted active ids
        self.vset: Dict[int, Set[int]] = {}
        self.varr: Dict[int, Tuple[List[int], List[int]]] = {}
        self._static_views: Dict[int, Set[int]] = {}
        self._turn: Optional[_Turn] = None
        self._coalition: List[int] = []             # coalition slots

        # ---- per-event bookkeeping (docs/SIMULATOR.md) --------------
        # Kept up to date where members join, leave or change, so no
        # round phase has to rescan the whole swarm.
        #: Ids of large-view members (seeders, large-view attackers):
        #: every newcomer joins their views.
        self._largev_ids: Set[int] = set()
        #: Member-insertion sequence number per slot (re-stamped by a
        #: whitewash, which re-inserts the slot under a new id), so
        #: sorting slots by it gives ``members`` order.
        self._joined: List[int] = [0] * n_slots
        self._join_seq = 0
        #: Completed member slots, added where ``comp`` is first set;
        #: they leave through ``_process_departures``.
        self._complete: Set[int] = set()
        #: Fairness sample over compliant members (neither seeder nor
        #: free-rider): their ids ascending, with parallel up/down and
        #: down/up ratios holding 0.0 where the denominator is 0, the
        #: number of real entries in each, and per slot whether it is
        #: listed and which of its ratios are counted. Slots whose
        #: ``up``/``down`` moved since the last sample are dirty.
        self._fair_ids: List[int] = []
        self._fair_ud: List[float] = []
        self._fair_du: List[float] = []
        self._fair_nud = 0
        self._fair_ndu = 0
        self._fair_in: List[bool] = [False] * n_slots
        self._fair_hasd: List[bool] = [False] * n_slots
        self._fair_hasu: List[bool] = [False] * n_slots
        self._fair_dirty: Set[int] = set()

        self._install_topology()

        # ---- population (mirrors Simulation._build_population) ------
        for index in range(n_seeders):
            s = index
            pid = self._allocate_id(s)
            self.ids[s] = pid
            self.lineage[s] = pid
            self.caps[s] = config.seeder_capacity
            self.seeder[s] = True
            self.largev[s] = True
            self.usable[s] = self._full_mask
            self.held[s] = self._full_mask
            self.cnt[s] = config.n_pieces
            self.budgets[s] = UploadBudget(config.seeder_capacity)
            self.srng[s] = self.streams.stream(f"seeder:{index}")
            self.kern[s] = run_spray
            self._add_member(s)

        capacities = self._capacity_assignments()
        if config.arrival_process == "poisson":
            arrivals = poisson_arrivals(config.n_users, config.arrival_rate,
                                        self.streams.stream("arrivals"))
        else:
            arrivals = flash_crowd_arrivals(config.n_users,
                                            config.flash_crowd_duration,
                                            self.streams.stream("arrivals"))
        self._arrivals = arrivals
        role_rng = self.streams.stream("roles")
        freerider_indices = set(
            role_rng.sample(range(config.n_users), config.n_freeriders))

        kernel = kernels[algorithm]
        for index in range(config.n_users):
            s = n_seeders + index
            pid = self._allocate_id(s)
            self.ids[s] = pid
            self.lineage[s] = pid
            self.caps[s] = capacities[index]
            self.arrival[s] = arrivals[index]
            self.budgets[s] = UploadBudget(capacities[index])
            self.srng[s] = self.streams.stream(f"strategy:{pid}")
            if index in freerider_indices:
                self.free[s] = True
                self.largev[s] = config.attack.large_view
                self.wwint[s] = config.attack.whitewash_interval
                self._coalition.append(s)
                self.kern[s] = run_freerider
            else:
                self.kern[s] = kernel
        self._sync_coalition()
        #: Lineage id -> slot: lineages are assigned once per slot and
        #: never reassigned, so this map is immutable after population.
        #: Delayed reports resolve through it exactly like the object
        #: engine's ``_peers_by_lineage`` (whitewashed peers keep their
        #: slot, so reports land on the *current* identity).
        self._lineage_slot = {self.lineage[s]: s for s in range(n_slots)}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _select_kernels(self):
        """(kernel table, seeder kernel, freerider kernel) for this
        engine; the fast lineage overrides this with its batched
        variants."""
        from repro.algorithms.vector_kernels import (
            KERNELS, run_freerider, run_spray)
        return KERNELS, run_spray, run_freerider

    def _install_topology(self) -> None:
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
        self._static_views = {
            first_user_id + node: {first_user_id + other
                                   for other in graph.neighbors(node)}
            for node in graph.nodes
        }

    def _capacity_assignments(self) -> List[float]:
        cfg = self.config
        counts = [int(cls.fraction * cfg.n_users)
                  for cls in cfg.capacity_classes]
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

    def _allocate_id(self, slot: int) -> int:
        pid = self._next_id
        self._next_id += 1
        self.rep.append(0.0)
        if pid >= self._id_cap:
            self._grow_id_space()
        self.slot_np[pid] = slot
        return pid

    def _grow_id_space(self) -> None:
        new_cap = self._id_cap * 2
        grown = np.full(new_cap, -1, dtype=np.int64)
        grown[:self._id_cap] = self.slot_np
        self.slot_np = grown
        self._id_cap = new_cap

    # ------------------------------------------------------------------
    # Views and membership (mirrors Swarm)
    # ------------------------------------------------------------------
    def _add_member(self, s: int) -> None:
        pid = self.ids[s]
        self.members[pid] = s
        insort(self.active, pid)
        self._stamp_join(s)
        if not (self.seeder[s] or self.free[s]):
            self._fair_join(s)
        for piece in iter_bits(self.usable[s]):
            self.availability.add_piece(piece)
        self._build_view(s)

    def _stamp_join(self, s: int) -> None:
        self._join_seq += 1
        self._joined[s] = self._join_seq

    def _build_view(self, s: int) -> None:
        """Connect newcomer ``s`` (the last key of ``members``) to its
        chosen view and to every large-view member, and register it
        as one if it has a large view itself."""
        pid = self.ids[s]
        members = self.members
        others = list(members)
        others.pop()  # ``pid`` itself, inserted just before this call
        if self.largev[s]:
            chosen = others
        elif pid in self._static_views:
            wanted = self._static_views[pid]
            chosen = [q for q in others if q in wanted]
        else:
            k = min(self.neighbor_count, len(others))
            chosen = self._views_rng.sample(others, k) if k else []
        # Existing large-view members connect to every newcomer too.
        new = set(chosen)
        new |= self._largev_ids
        if self.largev[s]:
            self._largev_ids.add(pid)
        if not new:
            return
        # ``pid`` is a fresh id, so every edge is new on both ends:
        # both views change, and both ends wake.
        vset = self.vset
        varr = self.varr
        vset[pid] = new
        for q in new:
            vq = vset.get(q)
            if vq is None:
                vset[q] = {pid}
            else:
                vq.add(pid)
            varr.pop(q, None)
        if self._any_slept:
            self._wake(s)
            for q in new:
                self._wake(members[q])

    def _wake(self, s: int) -> None:
        """End slot ``s``'s dormancy: its next turn runs its kernel."""
        z = self._slept[s]
        if z > 0:
            self._slept[s] = -z

    def _disconnect_all(self, pid: int) -> None:
        neighbors = self.vset.pop(pid, set())
        for nb in neighbors:
            self.vset[nb].discard(pid)
            self.varr.pop(nb, None)
        self.varr.pop(pid, None)
        if self._any_slept:
            for nb in neighbors:
                self._wake(self.members[nb])
            # ``pid`` has already left ``members`` (departure or
            # whitewash); its slot mapping outlives the id.
            self._wake(int(self.slot_np[pid]))

    def _view(self, pid: int) -> Tuple[List[int], List[int]]:
        """Sorted view-member ids and their slots, as parallel lists.

        Lazily rebuilt after view changes (every connect/disconnect
        drops the cached pair).
        """
        hit = self.varr.get(pid)
        if hit is None:
            vs = self.vset.get(pid)
            if not vs:
                hit = ([], [])
            else:
                # Every view member is a current member.
                vids = sorted(vs)
                hit = (vids, list(map(self.members.__getitem__, vids)))
            self.varr[pid] = hit
        return hit

    def _remove_member(self, pid: int) -> None:
        s = self.members.pop(pid)
        self.active.pop(bisect_left(self.active, pid))
        self._largev_ids.discard(pid)
        self._complete.discard(s)
        if self._fair_in[s]:
            self._fair_leave(s)
        for piece in iter_bits(self.usable[s]):
            self.availability.remove_piece(piece)
        self._disconnect_all(pid)

    def _reset_identity(self, s: int) -> None:
        """Whitewash: fresh id, same slot (mirrors Swarm.reset_identity)."""
        old = self.ids[s]
        del self.members[old]
        self.active.pop(bisect_left(self.active, old))
        self._largev_ids.discard(old)
        self._disconnect_all(old)
        self.rep[old] = 0.0
        if self.D is not None:
            # Others' balances pointed at the discarded identity; the
            # whitewasher's own ledger (row ``s``) survives, exactly
            # as id-keyed dicts would orphan the old column entries.
            self.D[:, s] = 0
        if self.R is not None:
            self.R[:, s] = 0
        new = self._allocate_id(s)
        self.ids[s] = new
        self.members[new] = s
        insort(self.active, new)
        # Only free-riders whitewash, and they are not in the fairness
        # sample, so only the join stamp moves with the id.
        self._stamp_join(s)
        self._build_view(s)

    def _sync_coalition(self) -> None:
        if not (self.attack.collusion or self.attack.false_praise):
            return
        ids = {self.ids[s] for s in self._coalition if not self.departed_f[s]}
        for s in self._coalition:
            self.colluders[s] = ids - {self.ids[s]}

    # ------------------------------------------------------------------
    # Needy queries
    # ------------------------------------------------------------------
    def _needy_list(self, u: int) -> List[int]:
        """Ascending needy view-member ids for uploader ``u``."""
        vids, vslots = self._view(self.ids[u])
        uw = self.usable[u]
        held = self.held
        # Interest test without the bigint invert: the target lacks
        # one of u's usable pieces iff held & usable != usable.
        return [p for p, t in zip(vids, vslots) if held[t] & uw != uw]

    #: The per-turn pool kernels draw from (the fast lineage overrides
    #: this with a pool of slots).
    _pool = _needy_list

    def begin_turn(self, u: int) -> _Turn:
        """Compute the uploader's needy pool once for this turn."""
        turn = _Turn(u, self._pool(u))
        self._turn = turn
        return turn

    def begin_turn_lazy(self, u: int) -> _Turn:
        """A turn whose needy pool is built on first use."""
        turn = _Turn(u, None)
        self._turn = turn
        return turn

    def ensure_needy(self, turn: _Turn) -> List[int]:
        needy = self._pool(turn.uslot)
        turn.needy = needy
        return needy

    # ------------------------------------------------------------------
    # Transfer primitives (mirror runner.transfer_plain and friends)
    # ------------------------------------------------------------------
    def _pick(self, n: int) -> int:
        """Piece-choice index draw in ``[0, n)``: ``rng.choice``'s draw
        on the "pieces" stream (the fast lineage overrides this)."""
        return _randbelow(self._piece_grb, n)

    def _choose_piece(self, candidate_mask: int) -> Optional[int]:
        """``rarest_first`` / random policy over ``candidate_mask``.

        A random pick always draws (``rng.choice`` does, even over one
        candidate); a unique rarest piece draws nothing.
        """
        if not candidate_mask:
            return None
        if self._piece_random:
            lst = bits_to_list(candidate_mask)
            return lst[self._pick(len(lst))]
        tie = self._rarest(candidate_mask)
        if not tie:
            return None
        if tie & (tie - 1) == 0:  # single bit: unique rarest piece
            return tie.bit_length() - 1
        lst = bits_to_list(tie)
        return lst[self._pick(len(lst))]

    def _add_usable(self, s: int, piece: int) -> None:
        bit = 1 << piece
        self.usable[s] |= bit
        self.held[s] |= bit
        self.cnt[s] += 1
        self._avail_add(piece)

    def _mark_done(self, s: int) -> None:
        if not self.done[s]:
            self.done[s] = True
            if not self.free[s] and not self.seeder[s]:
                self.unfinished -= 1

    def _piece_gained(self, s: int) -> None:
        if self.boot[s] is None and self.cnt[s] >= 1:
            self.boot[s] = self.now
            self.nboot += 1
        if self.cnt[s] == self.n_pieces and self.comp[s] is None:
            self.comp[s] = self.now
            self.ncomp += 1
            self._complete.add(s)
            self._mark_done(s)

    def _plain_send(self, u: int, target_id: int,
                    j: Optional[int] = None) -> bool:
        """Send one usable piece; mirrors ``Simulation.transfer_plain``.

        ``j``, when given, is the target's index in the current turn's
        needy pool (the caller drew it), making pool repair O(1).

        Callers always gate on ``budget.can_send()`` immediately
        before calling (the object strategies do the same), so the
        budget check is not repeated here.
        """
        ts = self.members.get(target_id)
        if ts is None or self.seeder[ts] or self.cnt[ts] == self.n_pieces:
            return False
        uid = self.ids[u]
        if target_id == uid:
            return False
        cand = self.usable[u] & ~self.held[ts]
        piece = self._choose_piece(cand)
        if piece is None:
            return False
        # budget.consume(), inlined: the caller's can_send() gate
        # already established one whole credit.
        b = self.budgets[u]
        b._credits_num -= b._den
        b.total_consumed += 1
        # Fault hook (runner._transfer_lost): the budget is spent but
        # nothing is delivered, no ledgers move, no reputation earned.
        if self._loss_on and self.faults.transfer_lost():
            self.collector.record_lost_transfer()
            self._lost.add((self.lineage[ts], piece))
            return False
        self._wake(ts)
        self.up[u] += 1
        from_seeder = self.seeder[u]
        if not from_seeder:
            self._fair_dirty.add(u)
            # _report_upload, inlined: delayed reports queue by the
            # uploader's lineage and land (or drop) at flush time.
            if self._delay_on:
                self._delayed_reports.append(
                    (self.round_index + self._delay_rounds,
                     self.lineage[u], 1.0))
                self.collector.record_delayed_report()
            else:
                self.rep[uid] += 1.0
        if self._use_rmat:
            self._Rf[ts * self.n_slots + u] += 1
        elif self._need_rcv:
            d = self.rcv_d[ts]
            nv = d.get(uid, 0) + 1
            d[uid] = nv
            if self._is_rec:
                if nv > self.upl_d[ts].get(uid, 0):
                    self.cred[ts].add(uid)
                du = self.upl_d[u]
                nu = du.get(target_id, 0) + 1
                du[target_id] = nu
                if nu >= self.rcv_d[u].get(target_id, 0):
                    self.cred[u].discard(target_id)
        if self._need_dev:
            # FairTorrent deficit = sent - received, both directions.
            ns = self.n_slots
            df = self._Df
            df[u * ns + ts] += 1
            df[ts * ns + u] -= 1
        if self._track_rcv:
            d = self.this_rcv[ts]
            d[uid] = d.get(uid, 0) + 1
            self._rcv_dirty.add(ts)
        self.raw[ts] += 1
        self.down[ts] += 1
        self._fair_dirty.add(ts)
        # _add_usable, inlined.
        bit = 1 << piece
        self.usable[ts] |= bit
        self.held[ts] |= bit
        cnt = self.cnt[ts] + 1
        self.cnt[ts] = cnt
        self._avail_add(piece)
        # _note_delivery: a landing send recovers a previous loss.
        if self._lost:
            key = (self.lineage[ts], piece)
            if key in self._lost:
                self._lost.discard(key)
                self.collector.record_retried_transfer()
        # record_transfer, batched (flushed before every sample).
        self._c_tot += 1
        if not from_seeder:
            self._c_peer += 1
            if self.free[ts]:
                self._c_fr += 1
        # _piece_gained, inlined.
        if self.boot[ts] is None:
            self.boot[ts] = self.now
            self.nboot += 1
        if cnt == self.n_pieces and self.comp[ts] is None:
            self.comp[ts] = self.now
            self.ncomp += 1
            self._complete.add(ts)
            self._mark_done(ts)
        # Repair the turn's needy pool: only the target changed state.
        # Post-send interest is the pre-send candidate mask minus the
        # piece just delivered, so the target leaves iff it was the
        # last candidate.
        turn = self._turn
        if turn is not None and turn.uslot == u:
            needy = turn.needy
            if needy is not None and cand == bit:
                self._leave_pool(u, needy, j, target_id, ts)
        return True

    def _leave_pool(self, u: int, needy: List[int], j: Optional[int],
                    target_id: int, ts: int) -> None:
        """Remove served target ``target_id`` (slot ``ts``) from
        uploader ``u``'s needy pool, at index ``j`` when the caller
        drew it. Parity pools are ascending id lists, so the pop keeps
        their order (the fast lineage overrides this)."""
        if j is None:
            j = bisect_left(needy, target_id)
            if j == len(needy) or needy[j] != target_id:
                return
        needy.pop(j)

    # ------------------------------------------------------------------
    # T-Chain mechanics (mirror the runner's tchain_* family)
    # ------------------------------------------------------------------
    def _blacklisted(self, ts: int) -> bool:
        if len(self.pend[ts]) >= self._max_pending:
            return True
        return self.poldest[ts] <= self.round_index - self._patience

    def _add_pending(self, ts: int, piece: int, uploader_id: int,
                     designated: Optional[int]) -> None:
        pd = self.pend[ts]
        if not pd:
            self._pend_nonempty += 1
        created = self.round_index
        pd[piece] = (uploader_id, designated, created)
        self.held[ts] |= 1 << piece
        ups = self._pend_by_up.get(uploader_id)
        if ups is None:
            self._pend_by_up[uploader_id] = {ts}
        else:
            ups.add(ts)
        if created < self.poldest[ts]:
            self.poldest[ts] = created

    def _pop_pending(self, s: int, piece: int) -> Tuple[int, Optional[int], int]:
        pd = self.pend[s]
        entry = pd.pop(piece)
        if not pd:
            self._pend_nonempty -= 1
        if entry[2] == self.poldest[s]:
            self.poldest[s] = min((e[2] for e in pd.values()),
                                  default=_NO_PENDING)
        return entry

    def _drop_pending(self, s: int, piece: int) -> None:
        self._pop_pending(s, piece)
        self.held[s] &= ~(1 << piece)

    def _unlock(self, s: int, piece: int) -> None:
        """Key released: pending piece becomes usable (runner._unlock)."""
        self._pop_pending(s, piece)
        self._wake(s)
        # The held bit stays set; only usable gains.
        self.usable[s] |= 1 << piece
        self.cnt[s] += 1
        self._avail_add(piece)
        self.down[s] += 1
        self._fair_dirty.add(s)
        if self.free[s]:
            self._c_fr += 1  # record_unlock, batched
        self._piece_gained(s)

    def _shuffled_candidates(self, candidates: List[int]) -> Iterable[int]:
        """``candidates`` in uniform-random order.

        The parity engine must shuffle eagerly (the object strategy
        draws the full shuffle whether or not the loop consumes it);
        the fast lineage overrides this with a lazy partial
        Fisher-Yates that only draws indices actually consumed.
        """
        _shuffle(candidates, self._tchain_grb)
        return candidates

    def _choose_designated(self, u: int, target_id: int,
                           piece: int) -> Optional[int]:
        vids, vslots = self._view(self.ids[u])
        held = self.held
        options = [p for p, t in zip(vids, vslots)
                   if not (held[t] >> piece) & 1 and p != target_id]
        if not options:
            return None
        return options[_randbelow(self._tchain_grb, len(options))]

    def _deliver_encrypted(self, u: int, ts: int, piece: int,
                           from_seeder: bool) -> bool:
        """Shared body of runner._tchain_deliver / _forward_encrypted.

        Every caller gates on ``can_send()`` first, so the budget
        consume is inlined unchecked like ``_plain_send``'s. Returns
        False when fault injection drops the send (budget spent, no
        obligation created) — exactly the object engine's contract.
        """
        b = self.budgets[u]
        b._credits_num -= b._den
        b.total_consumed += 1
        if self._loss_on and self.faults.transfer_lost():
            self.collector.record_lost_transfer()
            self._lost.add((self.lineage[ts], piece))
            return False
        self._wake(ts)
        uid = self.ids[u]
        self.up[u] += 1
        if not from_seeder:
            self._fair_dirty.add(u)
            if self._delay_on:
                self._delayed_reports.append(
                    (self.round_index + self._delay_rounds,
                     self.lineage[u], 1.0))
                self.collector.record_delayed_report()
            else:
                self.rep[uid] += 1.0
        self.raw[ts] += 1
        if self._lost:
            key = (self.lineage[ts], piece)
            if key in self._lost:
                self._lost.discard(key)
                self.collector.record_retried_transfer()
        designated: Optional[int] = None
        if not (self.usable[ts] & ~self.held[u]):
            # The sender needs nothing the target has: designate a
            # third user for indirect reciprocity.
            designated = self._choose_designated(u, self.ids[ts], piece)
        # record_transfer(usable=False), batched.
        self._c_tot += 1
        if not from_seeder:
            self._c_peer += 1
        colluding = (self._collusion and self.free[ts]
                     and designated is not None
                     and designated in self.colluders[ts])
        if colluding:
            self._add_usable(ts, piece)
            self.down[ts] += 1
            self._fair_dirty.add(ts)
            self._c_fr += 1  # record_unlock(for_freerider=True), batched
            self._piece_gained(ts)
        else:
            self._add_pending(ts, piece, uid, designated)
            if self.boot[ts] is None:
                self.boot[ts] = self.now
                self.nboot += 1
        return True

    def tchain_seed(self, u: int, target_id: int) -> bool:
        budget = self.budgets[u]
        if not budget.can_send():
            return False
        ts = self.members.get(target_id)
        if ts is None or self.seeder[ts] or self.cnt[ts] == self.n_pieces:
            return False
        if target_id == self.ids[u]:
            return False
        if self._blacklisted(ts):
            return False
        piece = self._choose_piece(self.usable[u] & ~self.held[ts])
        if piece is None:
            return False
        return self._deliver_encrypted(u, ts, piece,
                                       from_seeder=self.seeder[u])

    def tchain_elig(self, u: int) -> List[int]:
        """Seeding-phase candidates: needy, non-blacklisted view members.

        Identical to the discovery inside ``runner.tchain_seed_random``;
        the parity T-Chain kernel computes it once per turn and repairs the
        single seeded target after each successful seed (a seed mutates
        no other peer's eligibility).
        """
        vids, vslots = self._view(self.ids[u])
        uw = self.usable[u]
        held = self.held
        pend = self.pend
        maxp = self._max_pending
        horizon = self.round_index - self._patience
        poldest = self.poldest
        return [p for p, t in zip(vids, vslots)
                if held[t] & uw != uw and len(pend[t]) < maxp
                and poldest[t] > horizon]

    def _forward_target(self, u: int, uploader_id: int,
                        designated: Optional[int],
                        piece: int) -> Optional[int]:
        if designated is not None:
            ds = self.members.get(designated)
            if (ds is not None and not (self.held[ds] >> piece) & 1
                    and not self._blacklisted(ds)):
                return designated
        vids, vslots = self._view(self.ids[u])
        held = self.held
        pend = self.pend
        maxp = self._max_pending
        horizon = self.round_index - self._patience
        poldest = self.poldest
        options = [p for p, t in zip(vids, vslots)
                   if not (held[t] >> piece) & 1
                   and len(pend[t]) < maxp and poldest[t] > horizon
                   and p != uploader_id]
        if not options:
            return None
        return options[_randbelow(self._tchain_grb, len(options))]

    def tchain_fulfill(self, u: int, piece: int) -> bool:
        """Reciprocate for one pending piece (runner.tchain_fulfill)."""
        entry = self.pend[u].get(piece)
        if entry is None:
            return False
        budget = self.budgets[u]
        if not budget.can_send():
            return False
        uploader_id, designated, _created = entry
        us = self.members.get(uploader_id)
        if us is None:
            # Key holder left: the encrypted data is worthless.
            self._drop_pending(u, piece)
            return False

        # (1) Direct reciprocity.
        if (self.cnt[us] < self.n_pieces
                and self.usable[u] & ~self.held[us]):
            if self._plain_send(u, uploader_id):
                self._unlock(u, piece)
                return True
            if not budget.can_send():
                return False

        # (2) Forward the received piece (indirect reciprocity). A lost
        # forward spends the budget but leaves the key locked, and —
        # like runner.tchain_fulfill — does *not* fall through to (3).
        forward_id = self._forward_target(u, uploader_id, designated, piece)
        if forward_id is not None:
            if self._deliver_encrypted(u, self.members[forward_id], piece,
                                       from_seeder=False):
                self._unlock(u, piece)
                return True
            return False

        # (3) Generalised indirect reciprocity: any other piece,
        # still encrypted, to any needy non-uploader neighbor.
        if self.cnt[u] > 0:
            candidates = [pid for pid in self._needy_list(u)
                          if pid != uploader_id]
            for pid in self._shuffled_candidates(candidates):
                if self.tchain_seed(u, pid):
                    self._unlock(u, piece)
                    return True
        return False

    # ------------------------------------------------------------------
    # Round phases (mirror Simulation._on_round)
    # ------------------------------------------------------------------
    def _on_arrival(self, index: int) -> None:
        self._add_member(self._n_seeders + index)
        self._arrived += 1

    def _shuffle_active(self, active: List[int]) -> List[int]:
        """Per-round turn order (draw-identical to the object engine);
        the fast lineage overrides this with a batched permutation."""
        _shuffle(active, self._order_rng.getrandbits)
        return active

    def _on_round(self) -> None:
        """One round: round-start faults, every active peer's turn in
        shuffled order, then the end-of-round phases.

        A kernel that returns ``True`` has done nothing this turn and
        cannot do anything until a *wake event* (a piece arriving, a
        key unlocking, or a view change; see ``_wake``). Its peer then
        sleeps: later turns skip the budget accrual and the kernel call
        until it is woken, and its next turn accrues every skipped
        round at once (``UploadBudget.accrue``, exact). Seeders never
        sleep (their kernel never returns ``True``), so seeder outages
        need no catch-up. The turn order is still drawn over every
        active peer, so no random stream moves.
        """
        self.round_index += 1
        if self._delayed_reports:
            self._flush_due_reports()
        self._process_seeder_outages()
        active = self._shuffle_active(list(self.active))
        members = self.members
        budgets = self.budgets
        kern = self.kern
        srng = self.srng
        slept = self._slept
        check_off = self._outage_on
        offline_until = self.offline_until
        r = self.round_index
        # Nobody leaves during the turns (departures, churn, crashes and
        # whitewashing all run after them), so every id maps to a slot.
        for s in map(members.__getitem__, active):
            if check_off and offline_until[s] > r:
                continue  # transient outage: no credit, no sends
            z = slept[s]
            if z:
                if z > 0:
                    continue  # dormant until woken
                slept[s] = 0
                budgets[s].accrue(r + z)  # woken: z is -(last turn)
            else:
                budgets[s].accrue(1)
            if kern[s](self, s, srng[s]):
                slept[s] = r
                self._any_slept = True
            self._turn = None
        if self._track_rcv:
            self._roll_receipts()
        self._process_departures()
        self._process_churn()
        self._process_crashes()
        self._expire_obligations()
        self._process_whitewashing()
        if self.round_index % self.sample_interval == 0:
            self._sample()
        if self._all_done() or self.round_index >= self.max_rounds:
            self._finished = True

    def _process_seeder_outages(self) -> None:
        """Transient seeder failures (runner._process_seeder_outages):
        offline seeders keep pieces and views but earn no budget."""
        if not self._outage_on:
            return
        duration = self.config.faults.seeder_outage_duration
        r = self.round_index
        offline_until = self.offline_until
        collector = self.collector
        for s in range(self._n_seeders):
            if offline_until[s] > r:
                collector.record_seeder_downtime()
                continue
            if self.faults.seeder_fails():
                offline_until[s] = r + duration
                collector.record_seeder_outage()
                collector.record_seeder_downtime()

    def _roll_receipts(self) -> None:
        """Mirror of ``peer.end_round()`` over every active peer."""
        dirty = self._rcv_dirty
        for s in self._rcv_last_nonempty - dirty:
            self.last_rcv[s] = {}
        for s in dirty:
            self.last_rcv[s] = self.this_rcv[s]
            self.this_rcv[s] = {}
        self._rcv_last_nonempty = dirty
        self._rcv_dirty = set()

    def _drop_orphaned(self, departed_id: int) -> None:
        """Keys held by a departed uploader are lost: drop those pieces.

        The reverse index narrows the scan to the slots the uploader
        ever delivered to; stale entries (resolved or departed
        targets) fall out via the membership and pending checks. The
        drops are per slot and the orphan tally is a sum, so this
        matches the object engine's all-peers scan.
        """
        slots = self._pend_by_up.pop(departed_id, None)
        if slots is None or self._pend_nonempty == 0:
            return
        members = self.members
        ids = self.ids
        for s in slots:
            if members.get(ids[s]) != s:
                continue
            pd = self.pend[s]
            if not pd:
                continue
            orphaned = [piece for piece, e in pd.items()
                        if e[0] == departed_id]
            for piece in orphaned:
                self._drop_pending(s, piece)
            if orphaned:
                self.collector.record_orphaned_obligations(len(orphaned))

    def _process_departures(self) -> None:
        # Completed members in membership order: a departure changes no
        # other member's piece count, so the set taken up front is the
        # one testing each member inside the loop would select.
        complete = self._complete
        if not complete:
            return
        linger = self.config.seed_linger_rate
        ids = self.ids
        for s in sorted(complete, key=self._joined.__getitem__):
            if linger is not None and self._linger_rng.random() >= linger:
                continue  # stays one more round as a lingering seed
            pid = ids[s]
            self.departed_f[s] = True
            self._remove_member(pid)
            self._drop_orphaned(pid)

    def _process_churn(self) -> None:
        rate = self.config.abort_rate
        if rate <= 0.0:
            return
        for pid in list(self.members):
            s = self.members[pid]
            if self.seeder[s] or self.cnt[s] == self.n_pieces:
                continue
            if self._churn_rng.random() < rate:
                self.departed_f[s] = True
                self._mark_done(s)
                self._remove_member(pid)
                self._drop_orphaned(pid)

    def _process_crashes(self) -> None:
        """Permanent mid-download failures (runner._process_crashes).

        Crash coins are flipped on the faults stream per incomplete
        member in insertion order — the same order the object engine
        walks ``swarm.peers`` — with the churn teardown plus the fault
        tally; crashed colluders shrink the coalition. The fast
        lineage overrides this with batched geometric sampling.
        """
        if not self._crash_on:
            return
        coalition_hit = False
        members = self.members
        for pid in list(members):
            s = members[pid]
            if self.seeder[s] or self.cnt[s] == self.n_pieces:
                continue
            if self.faults.peer_crashes():
                self.departed_f[s] = True
                self._mark_done(s)
                self._remove_member(pid)
                self._drop_orphaned(pid)
                self.collector.record_crash()
                coalition_hit = coalition_hit or self.free[s]
        if coalition_hit:
            self._sync_coalition()

    def _expire_obligations(self) -> None:
        """Key timeout (runner._expire_obligations): drop pending
        pieces older than the expiry horizon. The per-slot oldest
        pending round short-circuits slots with nothing stale, so the
        scan only touches dicts that actually expire something."""
        expiry = self._expiry
        if expiry is None or self._pend_nonempty == 0:
            return
        horizon = self.round_index - expiry
        poldest = self.poldest
        members = self.members
        for pid in list(members):
            s = members[pid]
            if poldest[s] > horizon:
                continue
            pd = self.pend[s]
            stale = [piece for piece, e in pd.items() if e[2] <= horizon]
            for piece in stale:
                self._drop_pending(s, piece)
            if stale:
                self.collector.record_expired_obligations(len(stale))

    def _flush_due_reports(self) -> None:
        """Deliver delayed reputation reports that have come due.

        Mirrors ``runner._flush_due_reports``: reports resolve through
        the lineage to the *current* peer id (so whitewashed lineages
        credit the live identity), and reports whose lineage departed
        or crashed are discarded and counted."""
        reports = self._delayed_reports
        r = self.round_index
        lineage_slot = self._lineage_slot
        departed_f = self.departed_f
        while reports and reports[0][0] <= r:
            _due, lineage_id, amount = reports.popleft()
            s = lineage_slot[lineage_id]
            if departed_f[s]:
                self.collector.record_dropped_report()
                continue
            self.rep[self.ids[s]] += amount

    def _process_whitewashing(self) -> None:
        interval = self.attack.whitewash_interval
        if interval is None:
            return
        reset_any = False
        r = self.round_index
        for pid in list(self.members):
            s = self.members[pid]
            if self.free[s] and self.wwint[s] and r % self.wwint[s] == 0:
                self._reset_identity(s)
                reset_any = True
        if reset_any:
            self._sync_coalition()

    def _all_done(self) -> bool:
        return self._arrived >= self.config.n_users and self.unfinished == 0

    def _flush_counters(self) -> None:
        if self._c_tot or self._c_fr:
            self.collector.add_transfer_counts(self._c_tot, self._c_peer,
                                               self._c_fr)
            self._c_tot = self._c_peer = self._c_fr = 0

    def _fair_join(self, s: int) -> None:
        """List compliant slot ``s`` with placeholder ratios; it is
        marked dirty so the next sample fills in its real ones."""
        pid = self.ids[s]
        i = bisect_left(self._fair_ids, pid)
        self._fair_ids.insert(i, pid)
        self._fair_ud.insert(i, 0.0)
        self._fair_du.insert(i, 0.0)
        self._fair_in[s] = True
        self._fair_dirty.add(s)

    def _fair_leave(self, s: int) -> None:
        i = bisect_left(self._fair_ids, self.ids[s])
        del self._fair_ids[i], self._fair_ud[i], self._fair_du[i]
        self._fair_nud -= self._fair_hasd[s]
        self._fair_ndu -= self._fair_hasu[s]
        self._fair_in[s] = False

    def _refresh_fairness(self) -> None:
        """Recompute the ratios of the dirty slots still listed.

        ``up`` and ``down`` only grow, so a ratio once counted stays
        counted and a placeholder only ever turns into a real ratio.
        """
        fair_in = self._fair_in
        fids = self._fair_ids
        fud = self._fair_ud
        fdu = self._fair_du
        hasd = self._fair_hasd
        hasu = self._fair_hasu
        ids = self.ids
        up = self.up
        down = self.down
        for s in self._fair_dirty:
            if not fair_in[s]:
                continue
            i = bisect_left(fids, ids[s])
            u = up[s]
            d = down[s]
            if d:
                fud[i] = u / d
                if not hasd[s]:
                    hasd[s] = True
                    self._fair_nud += 1
            if u:
                fdu[i] = d / u
                if not hasu[s]:
                    hasu[s] = True
                    self._fair_ndu += 1
        self._fair_dirty.clear()

    def _sample(self) -> None:
        self._flush_counters()
        if self._fair_dirty:
            self._refresh_fairness()
        # The ratio lists are in id order with 0.0 where a peer has no
        # ratio; adding +0.0 leaves every partial sum (and the
        # compensation term of 3.12's ``sum``) unchanged, so these are
        # bit-identical to summing only the real ratios.
        nud = self._fair_nud
        ndu = self._fair_ndu
        self.collector.sample(
            time=self.now,
            # Seeders never leave, so the rest of ``active`` are users.
            active_peers=len(self.active) - self._n_seeders,
            arrived=self._arrived,
            population=self.config.n_users,
            bootstrapped=self.nboot,
            completed=self.ncomp,
            fairness_ud=sum(self._fair_ud) / nud if nud else None,
            fairness_du=sum(self._fair_du) / ndu if ndu else None,
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _summaries(self) -> List[PeerSummary]:
        return [PeerSummary(
            peer_id=self.ids[s],
            lineage_id=self.lineage[s],
            capacity=self.caps[s],
            is_freerider=self.free[s],
            arrival_time=self.arrival[s],
            bootstrap_time=self.boot[s],
            completion_time=self.comp[s],
            uploaded=self.up[s],
            downloaded=self.down[s],
        ) for s in range(self._n_seeders, self.n_slots)]

    def run(self):
        """Execute the run to completion; returns a SimulationResult."""
        import gc

        from repro.sim.runner import SimulationResult

        arrivals = self._arrivals
        n_arrivals = len(arrivals)
        i = 0
        # The round loop allocates heavily (pools, tie lists, pending
        # tuples) but keeps almost nothing cyclic; generational GC
        # passes are pure overhead here, so pause collection for the
        # loop when it was on.
        resume_gc = gc.isenabled()
        if resume_gc:
            gc.disable()
        try:
            while not self._finished:
                t = float(self.round_index + 1)
                while i < n_arrivals and arrivals[i] <= t:
                    self._on_arrival(i)
                    i += 1
                self.now = t
                self._on_round()
        finally:
            if resume_gc:
                gc.enable()
        self._flush_counters()
        raw = sum(self.raw[s] for s in range(self._n_seeders, self.n_slots))
        metrics = self.collector.finalize(self._summaries(),
                                          self.round_index, raw)
        metrics.digest_lineage = self.digest_lineage
        n = self.n_pieces
        metrics.termination, metrics.n_stuck = run_termination(
            self.config, self._all_done(),
            self._arrived < self.config.n_users, bool(self._delayed_reports),
            ((self.seeder[s], self.free[s], self.cnt[s] == n,
              bool(self.pend[s])) for s in self.members.values()),
            self._send_possible)
        return SimulationResult(config=self.config, metrics=metrics)

    def _send_possible(self) -> bool:
        """Could any member still send anything (see run_termination)?"""
        members = self.members
        held = self.held
        seeder = self.seeder
        cnt = self.cnt
        n = self.n_pieces
        for pid, s in members.items():
            if self.free[s]:
                continue
            have = held[s]
            for t in map(members.__getitem__, self.vset.get(pid, ())):
                if not seeder[t] and cnt[t] != n and have & ~held[t]:
                    return True
        return False


#: Draws refilled per batch by :class:`_FastSampler`. Big enough to
#: amortize the Generator call, small enough that an average run still
#: consumes most of its final buffer.
_FS_BUF = 4096


class _FastSampler:
    """Buffered uniform draws from a PCG64 ``numpy.random.Generator``.

    The fast lineage's replacement for per-draw Mersenne calls: 64-bit
    integers and unit doubles are generated ``_FS_BUF`` at a time and
    handed out from plain Python lists, so the per-draw cost is a list
    index instead of a ``random.Random`` method call. ``randbelow``
    maps a 64-bit word onto ``[0, n)`` by modulo; the bias is
    ``n / 2**64`` — under 1e-13 for any reachable pool size, far below
    what any distributional test can resolve (and explicitly outside
    the parity-v1 contract: this sampler only ever runs under the
    ``fast-v1`` digest lineage).

    The stream is seeded from ``sha256(f"{seed}:fast-v1")`` so it is
    decoupled from every named Mersenne stream — population setup
    (arrivals, capacities, roles, views, topology) stays on the
    Mersenne streams and therefore identical per seed across all three
    backends; only in-round decision draws come from here.
    """

    __slots__ = ("_gen", "_ints", "_ipos", "_flts", "_fpos")

    def __init__(self, seed: int) -> None:
        derived = int.from_bytes(
            hashlib.sha256(f"{seed}:fast-v1".encode()).digest()[:8], "big")
        self._gen = np.random.Generator(np.random.PCG64(derived))
        self._ints: List[int] = []
        self._ipos = 0
        self._flts: List[float] = []
        self._fpos = 0

    def randbelow(self, n: int) -> int:
        """Uniform index in ``[0, n)`` (modulo map, see class doc)."""
        pos = self._ipos
        ints = self._ints
        if pos == len(ints):
            ints = self._ints = self._gen.integers(
                0, 1 << 64, size=_FS_BUF, dtype=np.uint64).tolist()
            pos = 0
        self._ipos = pos + 1
        return ints[pos] % n

    def random(self) -> float:
        """Uniform double in ``[0, 1)``."""
        pos = self._fpos
        flts = self._flts
        if pos == len(flts):
            flts = self._flts = self._gen.random(_FS_BUF).tolist()
            pos = 0
        self._fpos = pos + 1
        return flts[pos]

    def shuffle(self, x: list) -> None:
        """Permute ``x`` in place via one batched ``permutation`` call."""
        if len(x) > 1:
            x[:] = [x[i] for i in self._gen.permutation(len(x)).tolist()]


class VectorFastSimulation(VectorSimulation):
    """The ``vector-fast`` backend: batched sampling, fast-v1 lineage.

    Same struct-of-arrays state, round phases, transfer primitives and
    fault injection as :class:`VectorSimulation` — the overrides below
    swap only *where randomness comes from* and *how much of it is
    drawn*:

    * in-round decision draws (piece picks via ``_pick``, candidate
      choices, optimism coins, turn-order shuffles) come from one
      buffered PCG64 stream (:class:`_FastSampler`) instead of
      replaying the object engine's Mersenne streams draw-for-draw,
      and a pick among one option draws nothing;
    * each turn's needy pool is the parity engine's exact set, held as
      slots in no fixed order, so a served target leaves by swap-pop
      (``_leave_pool``);
    * kernels use the batched variants in
      :mod:`repro.algorithms.vector_kernels` (``FAST_KERNELS``), which
      drop draw-parity bookkeeping: T-Chain seeds via a lazy partial
      Fisher-Yates instead of a full shuffle per send, designated and
      forward targets are rejection-sampled from the view, FairTorrent
      swap-pops its tie picks, Reputation keeps one weight vector per
      turn instead of one per send.

    Results are *distributionally* equivalent to the object engine
    (enforced by ``tests/integration/test_distributional_parity.py``)
    but not digest-identical; metrics are stamped
    ``digest_lineage="fast-v1"`` so they can never be mistaken for
    parity results. Population setup still runs on the named Mersenne
    streams, so a given seed produces the same peers, capacities,
    roles, arrival times and topology on every backend. Low-frequency
    draws (churn, lingering, whitewash views, loss/outage fault coins)
    also stay on their Mersenne streams — they are off the hot path
    and keeping them shared narrows the behavioural diff to the
    decision kernels. Per-round crash hazards are the exception: a
    per-member Bernoulli walk is O(members) every round, so this class
    replaces it with batched geometric gap sampling on the fast stream
    (O(crashes) draws; same Binomial crash pattern, enforced
    distributionally by the fault-parity suite).
    """

    digest_lineage = "fast-v1"

    def __init__(self, config: SimulationConfig) -> None:
        self._fs = _FastSampler(config.seed)
        super().__init__(config)

    def _select_kernels(self):
        from repro.algorithms.vector_kernels import (
            FAST_KERNELS, run_freerider, run_spray_fast)
        return FAST_KERNELS, run_spray_fast, run_freerider

    def _shuffle_active(self, active: List[int]) -> List[int]:
        self._fs.shuffle(active)
        return active

    def _pick(self, n: int) -> int:
        return self._fs.randbelow(n) if n > 1 else 0

    def _process_crashes(self) -> None:
        # Geometric gap sampling over the candidate list: the skip to
        # the next crash is Geometric(hazard), so a round costs
        # O(crashes) draws instead of O(members) coins while the
        # per-candidate crash probability stays exactly ``hazard``.
        if not self._crash_on:
            return
        members = self.members
        seeder = self.seeder
        cnt = self.cnt
        npieces = self.n_pieces
        candidates = [pid for pid, s in members.items()
                      if not seeder[s] and cnt[s] != npieces]
        n = len(candidates)
        if n == 0:
            return
        hazard = self.config.faults.crash_hazard
        log_skip = math.log1p(-hazard)
        rnd = self._fs.random
        coalition_hit = False
        i = 0
        while True:
            u = 1.0 - rnd()
            i += int(math.log(u) / log_skip)
            if i >= n:
                break
            pid = candidates[i]
            s = members[pid]
            self.departed_f[s] = True
            self._mark_done(s)
            self._remove_member(pid)
            self._drop_orphaned(pid)
            self.collector.record_crash()
            coalition_hit = coalition_hit or self.free[s]
            i += 1
        if coalition_hit:
            self._sync_coalition()

    def _choose_designated(self, u: int, target_id: int,
                           piece: int) -> Optional[int]:
        # Rejection sampling: drawing uniformly from the whole view
        # and retrying on invalid candidates is exactly uniform over
        # the valid subset, without materialising it. A bounded probe
        # budget guards the low-acceptance tail (late game, when most
        # of the view already holds the piece); the fallback scan is
        # the parity engine's exact enumeration.
        vids, vslots = self._view(self.ids[u])
        n = len(vids)
        if n == 0:
            return None
        rb = self._fs.randbelow
        held = self.held
        for _ in range(8):
            j = rb(n) if n > 1 else 0
            p = vids[j]
            if not (held[vslots[j]] >> piece) & 1 and p != target_id:
                return p
        options = [p for p, t in zip(vids, vslots)
                   if not (held[t] >> piece) & 1 and p != target_id]
        m = len(options)
        if m == 0:
            return None
        return options[rb(m) if m > 1 else 0]

    def _forward_target(self, u: int, uploader_id: int,
                        designated: Optional[int],
                        piece: int) -> Optional[int]:
        if designated is not None:
            ds = self.members.get(designated)
            if (ds is not None and not (self.held[ds] >> piece) & 1
                    and not self._blacklisted(ds)):
                return designated
        vids, vslots = self._view(self.ids[u])
        n = len(vids)
        if n == 0:
            return None
        rb = self._fs.randbelow
        held = self.held
        pend = self.pend
        maxp = self._max_pending
        horizon = self.round_index - self._patience
        poldest = self.poldest
        for _ in range(8):
            j = rb(n) if n > 1 else 0
            p = vids[j]
            t = vslots[j]
            if (not (held[t] >> piece) & 1 and len(pend[t]) < maxp
                    and poldest[t] > horizon and p != uploader_id):
                return p
        options = [p for p, t in zip(vids, vslots)
                   if not (held[t] >> piece) & 1
                   and len(pend[t]) < maxp and poldest[t] > horizon
                   and p != uploader_id]
        m = len(options)
        if m == 0:
            return None
        return options[rb(m) if m > 1 else 0]

    def _shuffled_candidates(self, candidates: List[int]) -> Iterable[int]:
        # Lazy partial Fisher-Yates: each consumed element costs one
        # buffered draw; abandoning the iteration early (the common
        # case — the first willing candidate accepts) draws nothing
        # for the rest of the pool.
        rb = self._fs.randbelow
        n = len(candidates)
        while n:
            j = rb(n) if n > 1 else 0
            n -= 1
            candidates[j], candidates[n] = candidates[n], candidates[j]
            yield candidates[n]

    # ------------------------------------------------------------------
    # Needy pools
    # ------------------------------------------------------------------
    # Each turn starts from the exact pool, like the parity engine's,
    # but as view-member *slots* (the kernels index the per-slot arrays
    # directly). Kernels draw from it by index or by weight, never by
    # position, so a served target leaves by swap-pop.
    def _pool(self, u: int) -> List[int]:
        """Slots of the view members that need one of ``u``'s usable
        pieces."""
        uw = self.usable[u]
        held = self.held
        return [t for t in self._view(self.ids[u])[1] if held[t] & uw != uw]

    def _leave_pool(self, u: int, needy: List[int], j: Optional[int],
                    target_id: int, ts: int) -> None:
        if j is None:
            j = needy.index(ts)
        needy[j] = needy[-1]
        needy.pop()
