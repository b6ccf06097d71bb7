"""Batched per-round decision kernels for the vector backend.

Each kernel re-expresses one strategy's ``on_round`` over the
struct-of-arrays state of
:class:`repro.sim.vector.VectorSimulation`: candidate discovery is a
masked array query done once per turn (then repaired in place after
each send), while the *decision* sequence — every ``random()`` draw,
every ``choice``, every ``shuffle``, in order — matches the object
strategy exactly. That draw-for-draw equivalence is what makes the
two backends produce byte-identical metrics digests (see
``tests/integration/test_seed_equivalence.py``); comments below flag
each place where a strategy's control flow forces (or forbids) an RNG
draw. Uniform picks use the engine's inlined ``_randbelow`` (the same
draw sequence as ``rng.choice``) so the drawn index can repair the
pool without a search.

Kernels are fault-agnostic: transfer loss, seeder outages, crashes,
delayed reports, and obligation expiry all happen in the engine's
round phases and send paths, never here. The one interaction worth
naming is delayed reports — kernels read ``sim.rep`` directly, and
under ``report_delay_rounds`` that board is *stale by design* (both
engines flush queued reports at the same round boundary, so staleness
is part of the shared draw sequence, not a divergence).

A kernel is called as ``kernel(sim, s, rng)`` with the simulation, the
acting peer's slot, and that peer's private strategy stream. It
returns ``True`` only to put the peer to sleep: the turn did nothing
and nothing but a wake event (a piece arriving, a key unlocking, a
view change) can change that, so the engine skips the peer's turns
until one happens and then catches up its credit exactly (see
``VectorSimulation._on_round``). Only :func:`run_reciprocity` does so;
every other kernel returns ``None``, meaning "call me next round".

Kernels for ledger-based strategies read the per-slot pairwise ledgers
(``sim.rcv_d`` / ``sim.upl_d`` dicts, ``sim.D`` deficit matrix);
:data:`RECEIVED_ALGORITHMS` / :data:`DEFICIT_ALGORITHMS` /
:data:`RECEIPT_ALGORITHMS` tell the engine which ledgers a run needs
so the others are never maintained.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional

import numpy as np

from repro.names import Algorithm
from repro.sim.rng import weighted_choice
# No cycle: vector.py defers its kernel import into __init__.
from repro.sim.vector import _shuffle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.vector import VectorSimulation

__all__ = ["KERNELS", "FAST_KERNELS", "DEFICIT_ALGORITHMS",
           "RECEIVED_ALGORITHMS", "RECEIPT_ALGORITHMS", "run_spray",
           "run_reciprocity", "run_fairtorrent", "run_bittorrent",
           "run_propshare", "run_reputation", "run_tchain",
           "run_freerider", "run_spray_fast", "run_fairtorrent_fast",
           "run_bittorrent_fast", "run_propshare_fast",
           "run_reputation_fast", "run_tchain_fast"]

#: Algorithms whose kernels read the all-time received-from ledger.
RECEIVED_ALGORITHMS: FrozenSet[Algorithm] = frozenset({
    Algorithm.RECIPROCITY, Algorithm.BITTORRENT, Algorithm.PROPSHARE,
})

#: Algorithms that need the pairwise sent-minus-received deficit.
DEFICIT_ALGORITHMS: FrozenSet[Algorithm] = frozenset({
    Algorithm.FAIRTORRENT,
})

#: Algorithms that additionally need the last-round receipt window
#: (``peer.received_last_round`` in the object engine).
RECEIPT_ALGORITHMS: FrozenSet[Algorithm] = frozenset({
    Algorithm.BITTORRENT, Algorithm.PROPSHARE,
})


def run_spray(sim: "VectorSimulation", s: int, rng: random.Random) -> None:
    """Seeder / Altruism: full capacity to uniformly random needy peers."""
    budget = sim.budgets[s]
    if sim.cnt[s] == 0 or not budget.can_send():
        # With nothing to offer the needy pool is empty, so the object
        # strategy bails on its first ``_send_random`` without drawing.
        return
    needy = sim.begin_turn(s).needy
    grb = rng.getrandbits
    while budget.can_send():
        n = len(needy)
        if n == 0:
            return
        # rng.choice(pool), inlined to keep the drawn index.
        k = n.bit_length()
        j = grb(k)
        while j >= n:
            j = grb(k)
        if not sim._plain_send(s, needy[j], j):
            return


def run_reciprocity(sim: "VectorSimulation", s: int,
                    rng: random.Random) -> bool:
    """Pure direct reciprocity: repay the largest creditor. No RNG.

    The engine maintains ``sim.cred[s]`` — counterparties whose
    received-from exceeds uploaded-to — incrementally on every send,
    so a turn only scans that (small) set for view membership and
    interest instead of running the full needy-pool query. The
    strategy draws no randomness, so skipping discovery entirely on
    creditor-less turns is draw-equivalent.

    Returns ``True`` (dormant) when the turn ends for lack of pieces,
    creditors, view, or a needy in-view creditor: each of those can
    only change when this peer receives a piece (which also adds
    creditors) or its view changes — both wake events. Creditors'
    needs only shrink in between: ``held`` grows, and only T-Chain
    ever drops a held piece. An exhausted budget or a failed send
    returns ``False``.
    """
    if sim.cnt[s] == 0:
        return True
    budget = sim.budgets[s]
    if not budget.can_send():
        return False
    cred = sim.cred[s]
    if not cred:
        return True
    vs = sim.vset.get(sim.ids[s])
    if not vs:
        return True
    members = sim.members
    rcv = sim.rcv_d[s]
    held = sim.held
    usable_s = sim.usable[s]
    while budget.can_send():
        # max by (received, -pid) over creditors that are in view,
        # active, and needy — the object strategy's exact key.
        best_pid = -1
        best_r = -1
        for pid in cred:
            if pid in vs and held[members[pid]] & usable_s != usable_s:
                r = rcv[pid]
                if r > best_r or (r == best_r and pid < best_pid):
                    best_r = r
                    best_pid = pid
        if best_pid < 0:
            return True
        if not sim._plain_send(s, best_pid):
            return False
    return False


def run_fairtorrent(sim: "VectorSimulation", s: int,
                    rng: random.Random) -> None:
    """Serve the neighbor we owe the most (lowest deficit).

    One numpy gather over the needy pool finds the minimum deficit
    and its (ascending) tie list. Each send bumps only its target's
    deficit — the target leaves the minimum level either way — so the
    tie list shrinks by exactly the served peer and remains the
    object strategy's tie list until it drains; only then can the
    minimum move (it never decreases mid-turn), which a rescan of the
    repaired pool picks up.
    """
    budget = sim.budgets[s]
    if sim.cnt[s] == 0 or not budget.can_send():
        return
    turn = sim.begin_turn(s)
    drow = sim.D[s]
    slot_np = sim.slot_np
    grb = rng.getrandbits
    while True:
        needy = turn.needy
        if not needy:
            return
        arr = np.array(needy, dtype=np.int64)
        d = drow[slot_np[arr]]
        ties = arr[d == d.min()].tolist()
        while ties:
            n = len(ties)
            if n == 1:
                j = 0
                tid = ties[0]
            else:
                # Tie at the minimum: uniform pick, one draw —
                # identical to ``rng.choice`` over the object
                # strategy's tie list (same membership, same order).
                k = n.bit_length()
                j = grb(k)
                while j >= n:
                    j = grb(k)
                tid = ties[j]
            if not sim._plain_send(s, tid):
                return
            ties.pop(j)
            if not budget.can_send():
                return


def run_bittorrent(sim: "VectorSimulation", s: int,
                   rng: random.Random) -> None:
    """Tit-for-tat toward last round's top contributors, plus optimism."""
    budget = sim.budgets[s]
    b0 = budget.available()
    if b0 == 0:
        return
    alpha = sim.params.alpha_bt
    random_ = rng.random
    if sim.cnt[s] == 0:
        # Empty-handed round: every slot draws its optimism coin; a
        # hit fails ``_send_random`` (empty pool) and returns, a miss
        # idles through the empty unchoke set. The strategy's budget
        # never decreases, so its mid-loop budget check cannot trip.
        for _ in range(b0):
            if random_() < alpha:
                return
        return
    # The needy pool is built lazily: tit-for-tat slots only probe
    # their (at most n_bt) unchoked targets directly.
    turn = sim.begin_turn_lazy(s)
    members = sim.members
    held = sim.held
    usable_s = sim.usable[s]
    lr = sim.last_rcv[s]
    unchoked: list = []
    if lr:
        # Last round's contributors that are still in view and needy,
        # ascending — the same list as filtering the full needy pool
        # by receipt, built from the (much smaller) receipt window.
        vs = sim.vset.get(sim.ids[s]) or ()
        cand = []
        for pid in sorted(lr):
            if (lr[pid] > 0 and pid in vs
                    and held[members[pid]] & usable_s != usable_s):
                cand.append(pid)
        cand.sort(key=lambda pid: (-lr[pid], pid))
        unchoked = cand[:sim.params.n_bt]
    grb = rng.getrandbits
    for _ in range(b0):
        if not budget.can_send():
            return
        if random_() < alpha:
            # Optimistic unchoke: anyone needy, newcomers included.
            needy = turn.needy
            if needy is None:
                needy = sim.ensure_needy(turn)
            n = len(needy)
            if n == 0:
                return
            k = n.bit_length()
            j = grb(k)
            while j >= n:
                j = grb(k)
            if not sim._plain_send(s, needy[j], j):
                return
            continue
        # Tit-for-tat: round-robin the unchoke set, pruning targets we
        # can no longer serve, rotating the served one to the back.
        # Each attempt is budget-gated like the object engine's
        # ``_valid_target``: a *lost* send consumes the credit, after
        # which the remaining probes must fail without drawing.
        sent_index = None
        for idx, target in enumerate(unchoked):
            if (target in members and budget.can_send()
                    and sim._plain_send(s, target)):
                sent_index = idx
                break
        if sent_index is not None:
            unchoked = unchoked[sent_index + 1:] + [unchoked[sent_index]]
            continue
        # Fall back to a random all-time contributor (result ignored;
        # an empty pool draws nothing). The choice is drawn even when
        # a lost tit-for-tat probe just spent the budget — the object
        # strategy's ``_send_random`` draws before its send fails.
        needy = turn.needy
        if needy is None:
            needy = sim.ensure_needy(turn)
        if needy:
            arr = np.array(needy, dtype=np.int64)
            past = arr[sim.R[s, sim.slot_np[arr]] > 0].tolist()
            if past:
                n = len(past)
                k = n.bit_length()
                j = grb(k)
                while j >= n:
                    j = grb(k)
                if budget.can_send():
                    sim._plain_send(s, past[j])


def run_propshare(sim: "VectorSimulation", s: int,
                  rng: random.Random) -> None:
    """Contribution-proportional reciprocity plus optimism."""
    budget = sim.budgets[s]
    b0 = budget.available()
    if b0 == 0:
        return
    alpha = sim.params.alpha_bt
    random_ = rng.random
    if sim.cnt[s] == 0:
        # Same empty-handed draw pattern as BitTorrent: an optimism
        # hit returns (empty pool), a miss finds no contributor
        # weights and idles the slot.
        for _ in range(b0):
            if random_() < alpha:
                return
        return
    needy = sim.begin_turn(s).needy
    grb = rng.getrandbits
    for _ in range(b0):
        if not budget.can_send():
            return
        if random_() < alpha:
            n = len(needy)
            if n == 0:
                return
            k = n.bit_length()
            j = grb(k)
            while j >= n:
                j = grb(k)
            if not sim._plain_send(s, needy[j], j):
                return
            continue
        lr = sim.last_rcv[s]
        weights: Dict[int, int] = {}
        if lr:
            for pid, amt in lr.items():
                if amt > 0:
                    i = bisect_left(needy, pid)
                    if i < len(needy) and needy[i] == pid:
                        weights[pid] = amt
        if not weights and needy:
            # Quiet last round: weight by all-time contributions.
            arr = np.array(needy, dtype=np.int64)
            amts = sim.R[s, sim.slot_np[arr]]
            for pid, amt in zip(arr.tolist(), amts.tolist()):
                if amt > 0:
                    weights[pid] = amt
        if not weights:
            continue  # reciprocal slot idles
        targets = sorted(weights)
        target = weighted_choice(rng, targets,
                                 [float(weights[t]) for t in targets])
        sim._plain_send(s, target)


def run_reputation(sim: "VectorSimulation", s: int,
                   rng: random.Random) -> None:
    """Reputation-weighted uploads plus an altruism fraction."""
    budget = sim.budgets[s]
    attempts = budget.available()
    if attempts == 0 or sim.cnt[s] == 0:
        # No pieces: the object strategy returns on its first empty
        # candidate list, before any draw.
        return
    needy = sim.begin_turn(s).needy
    alpha = sim.params.alpha_r
    rep = sim.rep
    grb = rng.getrandbits
    for _ in range(attempts):
        if not budget.can_send():
            return
        n = len(needy)
        if n == 0:
            return
        if rng.random() < alpha:
            k = n.bit_length()
            j = grb(k)
            while j >= n:
                j = grb(k)
            if not sim._plain_send(s, needy[j], j):
                return
        else:
            weights = [rep[pid] for pid in needy]
            total = 0.0
            for w in weights:
                total += w
            if total <= 0:
                continue  # reserved share unusable: all zero-rep
            target = weighted_choice(rng, needy, weights)
            if not sim._plain_send(s, target):
                return


def run_tchain(sim: "VectorSimulation", s: int, rng: random.Random) -> None:
    """Fulfil pending obligations, then seed encrypted pieces."""
    budget = sim.budgets[s]
    pend = sim.pend[s]
    if pend:
        # Oldest obligations first, piece id as tiebreak — the same
        # order ``ctx.pending_obligations()`` yields. Snapshot before
        # fulfilling: fulfilment mutates the dict.
        for piece, _entry in sorted(pend.items(),
                                    key=lambda kv: (kv[1][2], kv[0])):
            if not budget.can_send():
                return
            sim.tchain_fulfill(s, piece)
    if not budget.can_send():
        return
    # Seeding-phase candidates, computed once: a successful seed can
    # only change the *seeded target's* eligibility (its pending set
    # and possibly — under collusion — its piece set), so the list is
    # repaired per send instead of re-queried per send.
    elig = sim.tchain_elig(s)
    grb = rng.getrandbits
    members = sim.members
    held = sim.held
    usable_s = sim.usable[s]
    while budget.can_send():
        candidates = elig.copy()
        _shuffle(candidates, grb)
        for tid in candidates:
            if sim.tchain_seed(s, tid):
                ts = members.get(tid)
                if (ts is None or held[ts] & usable_s == usable_s
                        or sim._blacklisted(ts)):
                    i = bisect_left(elig, tid)
                    if i < len(elig) and elig[i] == tid:
                        elig.pop(i)
                break
        else:
            return  # no candidate accepted a seed


def run_freerider(sim: "VectorSimulation", s: int,
                  rng: random.Random) -> None:
    """Free-rider: never uploads; optionally false-praises a colluder."""
    attack = sim.attack
    if not attack.false_praise:
        return
    members = sim.members
    colluders = [pid for pid in sorted(sim.colluders[s]) if pid in members]
    if not colluders:
        return
    beneficiary = rng.choice(colluders)
    sim.rep[beneficiary] += attack.fake_praise_amount
    sim.fake_reported += attack.fake_praise_amount


KERNELS: Dict[Algorithm, Callable] = {
    Algorithm.RECIPROCITY: run_reciprocity,
    Algorithm.ALTRUISM: run_spray,
    Algorithm.REPUTATION: run_reputation,
    Algorithm.BITTORRENT: run_bittorrent,
    Algorithm.FAIRTORRENT: run_fairtorrent,
    Algorithm.TCHAIN: run_tchain,
    Algorithm.PROPSHARE: run_propshare,
}


# ----------------------------------------------------------------------
# Fast-lineage kernels (the ``vector-fast`` backend)
# ----------------------------------------------------------------------
# Same decision *policies* as the kernels above, freed from the
# draw-for-draw parity contract: uniform picks come from the engine's
# buffered PCG64 sampler (``sim._fs``), and bookkeeping the object
# strategies force purely for draw alignment (full shuffles, per-send
# view rescans, recomputed weight vectors) is batched or made lazy.
# Each turn's needy pool is exact and holds slots; sends repair it by
# swap-pop, so a draw from it needs no interest test. These run only
# under ``digest_lineage="fast-v1"``; their distributional
# equivalence to the object engine is enforced by
# ``tests/integration/test_distributional_parity.py``.


def _weighted_pick(x: float, pool: List[int], weights: List[float]) -> int:
    """Index into ``pool`` for cumulative-weight position ``x``.

    Same scan as :func:`repro.sim.rng.weighted_choice`, with the unit
    draw supplied by the caller (pre-scaled by the weight total) and
    the *last positive weight* as the float-rounding fall-through.
    """
    acc = 0.0
    for i, w in enumerate(weights):
        if w > 0.0:
            acc += w
            if x < acc:
                return i
    for i in range(len(weights) - 1, -1, -1):
        if weights[i] > 0.0:
            return i
    return 0


def run_spray_fast(sim: "VectorSimulation", s: int,
                   rng: random.Random) -> None:
    """Seeder / Altruism spray, drawing targets from the fast sampler.

    The fast engine's needy pool holds *slots*, and each send repairs
    it, so every drawn target is needy.
    """
    budget = sim.budgets[s]
    if sim.cnt[s] == 0 or not budget.can_send():
        return
    needy = sim.begin_turn(s).needy
    ids = sim.ids
    den = budget._den
    rb = sim._fs.randbelow
    send = sim._plain_send
    while needy:
        n = len(needy)
        j = rb(n) if n > 1 else 0
        if not send(s, ids[needy[j]], j):
            return
        if budget._credits_num < den:
            return


def run_fairtorrent_fast(sim: "VectorSimulation", s: int,
                         rng: random.Random) -> None:
    """FairTorrent min-deficit serving on the fast sampler.

    Same gather-and-drain structure as the parity kernel (bucketing
    the whole pool by level up front costs more than the occasional
    re-gather: drains are rare because a turn's budget is small). The
    tie pick is drawn from the buffered sampler with a swap-pop
    instead of the parity kernel's order-preserving ``pop(j)``.
    """
    budget = sim.budgets[s]
    if sim.cnt[s] == 0 or not budget.can_send():
        return
    needy = sim.begin_turn(s).needy
    ids = sim.ids
    drow = sim.D[s]
    den = budget._den
    rb = sim._fs.randbelow
    send = sim._plain_send
    while needy:
        arr = np.array(needy, dtype=np.int64)
        d = drow[arr]
        ties = arr[d == d.min()].tolist()
        while ties:
            n = len(ties)
            j = rb(n) if n > 1 else 0
            t = ties[j]
            ties[j] = ties[-1]
            ties.pop()
            if not send(s, ids[t]):
                return
            if budget._credits_num < den:
                return


def run_bittorrent_fast(sim: "VectorSimulation", s: int,
                        rng: random.Random) -> None:
    """Tit-for-tat plus optimism, coins and picks from the fast sampler."""
    budget = sim.budgets[s]
    b0 = budget.available()
    if b0 == 0:
        return
    alpha = sim.params.alpha_bt
    fs = sim._fs
    if sim.cnt[s] == 0:
        # Empty-handed: nothing can be sent whichever way the coins
        # land, so skip the per-slot coin flips entirely (the draws
        # exist only for parity replay).
        return
    turn = sim.begin_turn_lazy(s)
    members = sim.members
    held = sim.held
    usable_s = sim.usable[s]
    lr = sim.last_rcv[s]
    unchoked: list = []
    if lr:
        vs = sim.vset.get(sim.ids[s]) or ()
        cand = []
        # No pre-sort needed: the (-amount, pid) key is a total order,
        # so the final sort is insertion-order independent.
        for pid, amt in lr.items():
            if (amt > 0 and pid in vs
                    and held[members[pid]] & usable_s != usable_s):
                cand.append(pid)
        cand.sort(key=lambda pid: (-lr[pid], pid))
        unchoked = cand[:sim.params.n_bt]
    rb = fs.randbelow
    send = sim._plain_send
    ids = sim.ids
    den = budget._den
    left = b0
    past: list = None  # per-turn contributor cache for the fallback
    while left > 0:
        left -= 1
        if budget._credits_num < den:
            return
        if fs.random() < alpha:
            needy = turn.needy
            if needy is None:
                needy = sim.ensure_needy(turn)
            n = len(needy)
            if n == 0:
                return
            j = rb(n) if n > 1 else 0
            if not send(s, ids[needy[j]], j):
                return
            continue
        sent_index = None
        # Budget is known >= den here (checked at the top of the
        # iteration; failed sends consume nothing), so membership is
        # the only gate before the send attempt.
        for idx, target in enumerate(unchoked):
            if target in members and send(s, target):
                sent_index = idx
                break
        if sent_index is not None:
            unchoked = unchoked[sent_index + 1:] + [unchoked[sent_index]]
            continue
        # Fallback: a random all-time contributor among the needy.
        # The contributor set is fixed within the turn (the uploader
        # receives nothing during its own slots), so it is built once.
        # Sends repair the needy pool but not this copy, so each draw
        # is revalidated — rejection keeps the pick uniform over the
        # still-interesting contributors.
        if past is None:
            needy = turn.needy
            if needy is None:
                needy = sim.ensure_needy(turn)
            base = s * sim.n_slots
            Rf = sim._Rf
            past = [t for t in needy if Rf[base + t] > 0]
        while past:
            n = len(past)
            j = rb(n) if n > 1 else 0
            t = past[j]
            if held[t] & usable_s != usable_s:
                send(s, ids[t])
                break
            past[j] = past[n - 1]
            past.pop()


def run_propshare_fast(sim: "VectorSimulation", s: int,
                       rng: random.Random) -> None:
    """Contribution-proportional reciprocity on the fast sampler."""
    budget = sim.budgets[s]
    b0 = budget.available()
    if b0 == 0:
        return
    alpha = sim.params.alpha_bt
    fs = sim._fs
    if sim.cnt[s] == 0:
        return  # nothing to send; skip the parity-only coin flips
    needy = sim.begin_turn(s).needy
    members = sim.members
    ids = sim.ids
    held = sim.held
    uw = sim.usable[s]
    vs = sim.vset.get(sim.ids[s]) or ()
    den = budget._den
    rb = fs.randbelow
    send = sim._plain_send
    left = b0
    while left > 0:
        left -= 1
        if budget._credits_num < den:
            return
        if fs.random() < alpha:
            n = len(needy)
            if n == 0:
                return
            j = rb(n) if n > 1 else 0
            if not send(s, ids[needy[j]], j):
                return
            continue
        # Reciprocal slot: weight by last-round (then all-time)
        # contribution. Last-round candidates are interest-tested
        # directly, which is the parity kernel's membership check
        # against its needy pool without an id lookup.
        lr = sim.last_rcv[s]
        weights: Dict[int, int] = {}
        if lr:
            for pid, amt in lr.items():
                if amt > 0 and pid in vs:
                    ts = members.get(pid)
                    if ts is not None and held[ts] & uw != uw:
                        weights[pid] = amt
        if not weights and needy:
            arr = np.array(needy, dtype=np.int64)
            amts = sim.R[s, arr]
            for t, amt in zip(arr.tolist(), amts.tolist()):
                if amt > 0:
                    weights[ids[t]] = amt
        if not weights:
            continue  # reciprocal slot idles
        targets = sorted(weights)
        wlist = [float(weights[t]) for t in targets]
        total = 0.0
        for w in wlist:
            total += w
        send(s, targets[_weighted_pick(fs.random() * total, targets, wlist)])


def run_reputation_fast(sim: "VectorSimulation", s: int,
                        rng: random.Random) -> None:
    """Reputation-weighted uploads with a turn-cached weight vector.

    Targets' reputations cannot change during the uploader's own turn
    (only the uploader earns reputation from its sends), so the weight
    vector is computed once per turn and follows the pool's swap-pops
    — the parity kernel rebuilds it on every reciprocal send.
    """
    budget = sim.budgets[s]
    attempts = budget.available()
    if attempts == 0 or sim.cnt[s] == 0:
        return
    needy = sim.begin_turn(s).needy
    ids = sim.ids
    alpha = sim.params.alpha_r
    rep = sim.rep
    fs = sim._fs
    den = budget._den
    rb = fs.randbelow
    send = sim._plain_send
    weights: Optional[List[float]] = None
    total = 0.0
    left = attempts
    while left > 0:
        left -= 1
        if budget._credits_num < den:
            return
        coin = fs.random()
        n = len(needy)
        if n == 0:
            return
        if coin < alpha:
            i = rb(n) if n > 1 else 0
        else:
            if weights is None:
                weights = [rep[ids[t]] for t in needy]
                for w in weights:
                    total += w
            if total <= 0:
                continue  # reserved share unusable: all zero-rep
            i = _weighted_pick(fs.random() * total, needy, weights)
        if not send(s, ids[needy[i]], i):
            return
        if weights is not None and len(needy) != n:
            # The served target left the pool (swap-pop): drop its
            # weight to stay aligned.
            total -= weights[i]
            weights[i] = weights[-1]
            weights.pop()


def run_tchain_fast(sim: "VectorSimulation", s: int,
                    rng: random.Random) -> None:
    """T-Chain with lazy candidate draws in the seeding phase.

    The parity kernel rescans the view for eligibility (interest and
    no blacklist) and fully shuffles the result before *every* send.
    Here the turn's needy pool replaces the scan, a partial
    Fisher-Yates over a copy replaces the full shuffle (one draw per
    candidate actually probed), and interest and blacklisting are
    tested per probe: encrypted seeds do not repair the pool, so it
    is a superset of the eligible members. The eligible members occupy
    uniformly random relative positions in a uniform permutation of
    the superset, so the accepted-target distribution is exactly the
    parity kernel's.
    """
    budget = sim.budgets[s]
    pend = sim.pend[s]
    if pend:
        for piece, _entry in sorted(pend.items(),
                                    key=lambda kv: (kv[1][2], kv[0])):
            if not budget.can_send():
                return
            sim.tchain_fulfill(s, piece)
    if not budget.can_send():
        return
    needy = sim.begin_turn(s).needy
    rb = sim._fs.randbelow
    ids = sim.ids
    held = sim.held
    uw = sim.usable[s]
    den = budget._den
    seed = sim.tchain_seed
    while budget._credits_num >= den:
        cand = needy.copy()
        m = len(cand)
        accepted = False
        while m:
            j = rb(m) if m > 1 else 0
            t = cand[j]
            m -= 1
            cand[j] = cand[m]
            if held[t] & uw != uw and seed(s, ids[t]):
                accepted = True
                break
        if not accepted:
            return


FAST_KERNELS: Dict[Algorithm, Callable] = {
    Algorithm.RECIPROCITY: run_reciprocity,  # draws no randomness
    Algorithm.ALTRUISM: run_spray_fast,
    Algorithm.REPUTATION: run_reputation_fast,
    Algorithm.BITTORRENT: run_bittorrent_fast,
    Algorithm.FAIRTORRENT: run_fairtorrent_fast,
    Algorithm.TCHAIN: run_tchain_fast,
    Algorithm.PROPSHARE: run_propshare_fast,
}
