"""Piece bookkeeping: bitfields, availability, rarest-first selection.

The file being distributed is divided into ``M`` discrete pieces
(Section III). Each peer tracks the set of pieces it holds; the swarm
tracks per-piece availability so uploaders can pick the locally rarest
piece a receiver still needs — the selection policy the paper assumes
("users are equally likely to have a given piece, e.g., as achieved in
local-rarest-first piece selection").

Hot-path representation
-----------------------
A :class:`PieceSet` is an integer bitmask (bit ``i`` set = piece ``i``
held), so the swarm-wide queries — "which of your pieces do I need",
"do I need anything from you", "which pieces can I provide you" —
collapse to two or three machine-word operations on ``M``-bit ints
instead of per-call Python set algebra. Bit iteration is always in
ascending piece order, which doubles as the determinism guarantee the
equivalence tests rely on: unlike ``set`` iteration order, it is
identical on every Python version.

:class:`AvailabilityMap` keeps, besides the per-piece replica counts,
a *count-bucketed* index: one bitmask per distinct replica count. The
rarest needed piece is then found by intersecting the candidate mask
with the ascending count buckets until one hits, rather than scoring
every candidate piece individually.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Dict, Iterable, Iterator, List, Optional, Set, Union

from repro.errors import ConfigurationError, SimulationError

__all__ = ["PieceSet", "AvailabilityMap", "rarest_first",
           "iter_bits", "bits_to_list"]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit indices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_to_list(mask: int) -> List[int]:
    """The set-bit indices of ``mask`` as an ascending list.

    ``list(iter_bits(...))`` on purpose: the C-level list construction
    from the generator measures faster than both an inline bit-walk
    and a byte-table walk for the sparse masks the simulator sees.
    """
    return list(iter_bits(mask))


class PieceSet:
    """The set of pieces a peer holds, out of ``M`` total.

    Backed by a single integer bitmask with bounds checking and the
    handful of swarm-specific queries (missing pieces, providable
    pieces for a partner, completion). Iteration yields piece ids in
    ascending order.
    """

    __slots__ = ("_m", "mask", "_count")

    def __init__(self, n_pieces: int, have: Optional[Iterable[int]] = None) -> None:
        if n_pieces < 1:
            raise ConfigurationError("n_pieces must be positive")
        self._m = n_pieces
        #: The raw bitmask (bit ``i`` set = piece ``i`` held). A plain
        #: attribute, not a property: hot paths read it millions of
        #: times per run. Treat as read-only; mutate via :meth:`add`.
        self.mask = 0
        self._count = 0
        if have is not None:
            for piece in have:
                self.add(piece)

    @classmethod
    def full(cls, n_pieces: int) -> "PieceSet":
        """A complete piece set (e.g. the seeder's)."""
        ps = cls(n_pieces)
        ps.mask = (1 << n_pieces) - 1
        ps._count = n_pieces
        return ps

    @property
    def n_pieces(self) -> int:
        return self._m

    def __len__(self) -> int:
        return self._count

    def __contains__(self, piece: int) -> bool:
        return 0 <= piece < self._m and (self.mask >> piece) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def _check(self, piece: int) -> None:
        if not 0 <= piece < self._m:
            raise SimulationError(
                f"piece index {piece} outside [0, {self._m})")

    def add(self, piece: int) -> bool:
        """Add a piece; returns True if it was new."""
        self._check(piece)
        bit = 1 << piece
        if self.mask & bit:
            return False
        self.mask |= bit
        self._count += 1
        return True

    def has(self, piece: int) -> bool:
        self._check(piece)
        return (self.mask >> piece) & 1 == 1

    @property
    def complete(self) -> bool:
        return self._count == self._m

    def missing_mask(self) -> int:
        """Bitmask of pieces this peer still needs."""
        return ~self.mask & ((1 << self._m) - 1)

    def missing(self) -> Set[int]:
        """Pieces this peer still needs."""
        return set(iter_bits(self.missing_mask()))

    def providable_mask(self, other: "PieceSet") -> int:
        """Bitmask of pieces we hold that ``other`` lacks."""
        if other._m != self._m:
            raise SimulationError("piece sets belong to different files")
        return self.mask & ~other.mask

    def providable_to(self, other: "PieceSet") -> Set[int]:
        """Pieces we hold that ``other`` lacks."""
        return set(iter_bits(self.providable_mask(other)))

    def needs_from(self, other: "PieceSet") -> bool:
        """True if ``other`` holds at least one piece we lack."""
        return other.providable_mask(self) != 0

    def copy(self) -> "PieceSet":
        ps = PieceSet(self._m)
        ps.mask = self.mask
        ps._count = self._count
        return ps

    @property
    def raw(self) -> Set[int]:
        """The held piece ids as a plain set.

        Retained for API compatibility with the pre-bitmask
        representation; now a fresh copy, so mutating it never
        corrupts the peer. Hot paths should use :attr:`mask`.
        """
        return set(iter_bits(self.mask))


class AvailabilityMap:
    """Per-piece replica counts across the swarm, bucketed by count.

    Maintained incrementally by the swarm as pieces propagate and
    peers come and go; consulted by :func:`rarest_first`. Alongside
    the flat per-piece counts it maintains ``_buckets``: for each
    distinct replica count, the bitmask of pieces currently at that
    count, plus a sorted list of the non-empty counts. Rarest-first
    then probes buckets in ascending count order instead of scanning
    every candidate.
    """

    __slots__ = ("_counts", "_buckets", "_levels")

    def __init__(self, n_pieces: int) -> None:
        if n_pieces < 1:
            raise ConfigurationError("n_pieces must be positive")
        self._counts = [0] * n_pieces
        #: replica count -> bitmask of pieces with exactly that count.
        self._buckets: Dict[int, int] = {0: (1 << n_pieces) - 1}
        #: Sorted non-empty bucket counts (ascending).
        self._levels: List[int] = [0]

    @property
    def n_pieces(self) -> int:
        return len(self._counts)

    def count(self, piece: int) -> int:
        return self._counts[piece]

    def _move(self, piece: int, old: int, new: int) -> None:
        """Move ``piece``'s bit from bucket ``old`` to bucket ``new``."""
        bit = 1 << piece
        remaining = self._buckets[old] & ~bit
        if remaining:
            self._buckets[old] = remaining
        else:
            del self._buckets[old]
            self._levels.pop(bisect_left(self._levels, old))
        if new in self._buckets:
            self._buckets[new] |= bit
        else:
            self._buckets[new] = bit
            insort(self._levels, new)

    def add_piece(self, piece: int) -> None:
        old = self._counts[piece]
        self._counts[piece] = old + 1
        self._move(piece, old, old + 1)

    def remove_piece(self, piece: int) -> None:
        old = self._counts[piece]
        if old <= 0:
            raise SimulationError("availability went negative")
        self._counts[piece] = old - 1
        self._move(piece, old, old - 1)

    def add_peer(self, pieces: PieceSet) -> None:
        """Register every piece of an arriving peer."""
        for piece in pieces:
            self.add_piece(piece)

    def remove_peer(self, pieces: PieceSet) -> None:
        """Unregister a departing peer's pieces."""
        for piece in pieces:
            self.remove_piece(piece)

    def rarest_subset(self, candidate_mask: int) -> int:
        """Bitmask of the minimum-count pieces within ``candidate_mask``.

        Probes the count buckets in ascending order and returns the
        first non-empty intersection — the full rarest tie set — or 0
        when ``candidate_mask`` is empty.
        """
        if not candidate_mask:
            return 0
        for level in self._levels:
            hit = self._buckets[level] & candidate_mask
            if hit:
                return hit
        return 0


def rarest_first(candidates: Union[int, Iterable[int]],
                 availability: AvailabilityMap,
                 rng: random.Random) -> Optional[int]:
    """Pick the rarest piece among ``candidates``; random tie-break.

    ``candidates`` is either a bitmask (the hot-path form) or any
    iterable of piece ids. Ties are enumerated in ascending piece
    order before drawing, so a fixed seed reproduces the same pick on
    every Python version (``set`` iteration order, which the previous
    implementation inherited, is not portable). Returns ``None`` when
    there are no candidates; consumes exactly one draw when there is a
    tie and none otherwise, mirroring the original implementation.
    """
    if isinstance(candidates, int):
        mask = candidates
    else:
        mask = 0
        for piece in candidates:
            mask |= 1 << piece
    tie = availability.rarest_subset(mask)
    if not tie:
        return None
    if tie & (tie - 1) == 0:  # single bit: unique rarest piece
        return tie.bit_length() - 1
    return rng.choice(bits_to_list(tie))
