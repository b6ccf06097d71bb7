"""Upload-bandwidth accounting.

Capacities are expressed in *pieces per round*. Fractional capacities
are supported through a credit accumulator: each round a peer earns
``capacity`` credits and may send ``floor(credits)`` pieces, carrying
the remainder forward — so a peer with capacity 0.5 sends one piece
every other round, matching the fluid-rate analysis on average.

Credits are stored as exact integers scaled by the capacity's binary
denominator (``float.as_integer_ratio``), not as accumulated floats.
The previous float accumulator compared against ``credits + 1e-9``,
which *minted* a piece one round early for any capacity whose float
representation rounds down (e.g. ``1/3``: three rounds of accrual sum
to ``0.9999999999999999``, and the epsilon pushed that over 1). Exact
arithmetic sends exactly ``floor(k * capacity)`` pieces after ``k``
uncapped rounds of the stored capacity. Capacities with power-of-two
denominators (0.5, 1.0, 2.5, ...) are unaffected — their float accrual
was already exact — so seeded runs using the default capacity classes
reproduce byte-identically.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError, SimulationError

__all__ = ["UploadBudget"]


class UploadBudget:
    """Per-peer upload credit accumulator.

    Usage per round::

        budget.new_round()           # earn `capacity` credits
        while budget.can_send():
            ...
            budget.consume()         # one piece sent
    """

    __slots__ = ("capacity", "_num", "_den", "_cap_num", "_credits_num",
                 "total_consumed")

    def __init__(self, capacity: float) -> None:
        if capacity < 0 or not math.isfinite(capacity):
            raise ConfigurationError(
                f"capacity must be finite and non-negative, got {capacity}")
        self.capacity = float(capacity)
        #: Exact rational form of the capacity: ``_num / _den`` with a
        #: power-of-two denominator. All credit arithmetic happens on
        #: numerators over this fixed denominator, so it is exact.
        self._num, self._den = self.capacity.as_integer_ratio()
        # Cap accrual at two rounds' worth so an idle peer (nobody
        # needs its pieces) cannot bank unbounded burst capacity.
        # ``max(2.0 * capacity, 1.0)`` over the common denominator:
        # doubling a float is exact, and 1.0 == _den / _den.
        self._cap_num = max(2 * self._num, self._den) if self._num > 0 else 0
        self._credits_num = 0
        self.total_consumed = 0

    @property
    def credits(self) -> float:
        return self._credits_num / self._den

    def new_round(self) -> int:
        """Accrue one round of capacity; return whole pieces available."""
        return self.accrue(1)

    def accrue(self, rounds: int) -> int:
        """Accrue ``rounds`` rounds of capacity at once; return whole
        pieces available.

        Capped accrual is monotone and credits never exceed the cap, so
        ``min(cap, credits + rounds * capacity)`` equals ``rounds``
        successive :meth:`new_round` calls with nothing spent between
        them — the array engines use it to catch up a peer that skipped
        its idle turns.
        """
        num = self._credits_num + rounds * self._num
        self._credits_num = num if num < self._cap_num else self._cap_num
        return self._credits_num // self._den

    def available(self) -> int:
        """Whole pieces sendable right now."""
        return self._credits_num // self._den

    def can_send(self) -> bool:
        return self._credits_num >= self._den

    def consume(self, pieces: int = 1) -> None:
        """Spend credit for ``pieces`` sent this round."""
        if pieces < 1:
            raise SimulationError("must consume at least one piece")
        if self.available() < pieces:
            raise SimulationError(
                f"insufficient upload credit: have {self.credits:.3f}, "
                f"need {pieces}")
        self._credits_num -= pieces * self._den
        self.total_consumed += pieces
