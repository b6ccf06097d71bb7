"""Tests for upload-budget credit accounting."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.sim.bandwidth import UploadBudget


class TestBasics:
    def test_integer_capacity(self):
        budget = UploadBudget(3.0)
        assert budget.new_round() == 3
        budget.consume(3)
        assert not budget.can_send()

    def test_fractional_capacity_accumulates(self):
        """Capacity 0.5 sends one piece every other round."""
        budget = UploadBudget(0.5)
        sent = 0
        for _ in range(10):
            budget.new_round()
            while budget.can_send():
                budget.consume()
                sent += 1
        assert sent == 5

    def test_zero_capacity_never_sends(self):
        budget = UploadBudget(0.0)
        for _ in range(5):
            budget.new_round()
        assert not budget.can_send()
        assert budget.available() == 0

    def test_overdraft_rejected(self):
        budget = UploadBudget(1.0)
        budget.new_round()
        budget.consume()
        with pytest.raises(SimulationError):
            budget.consume()

    def test_consume_zero_rejected(self):
        budget = UploadBudget(2.0)
        budget.new_round()
        with pytest.raises(SimulationError):
            budget.consume(0)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ConfigurationError):
            UploadBudget(-1.0)

    def test_rejects_infinite_capacity(self):
        with pytest.raises(ConfigurationError):
            UploadBudget(float("inf"))

    def test_total_consumed_tracked(self):
        budget = UploadBudget(2.0)
        budget.new_round()
        budget.consume(2)
        budget.new_round()
        budget.consume(1)
        assert budget.total_consumed == 3


class TestBurstCap:
    def test_idle_rounds_do_not_bank_unbounded_credit(self):
        """An idle peer cannot save up a giant burst (cap: 2 rounds)."""
        budget = UploadBudget(3.0)
        for _ in range(100):
            budget.new_round()
        assert budget.available() <= 6

    def test_small_capacity_can_still_reach_one(self):
        budget = UploadBudget(0.1)
        for _ in range(20):
            budget.new_round()
        assert budget.available() >= 1

    @given(st.floats(min_value=0.05, max_value=10.0), st.integers(1, 60))
    @settings(max_examples=40)
    def test_long_run_rate_bounded_by_capacity(self, capacity, rounds):
        """Consumed pieces never exceed capacity * rounds + burst cap."""
        budget = UploadBudget(capacity)
        for _ in range(rounds):
            budget.new_round()
            while budget.can_send():
                budget.consume()
        assert budget.total_consumed <= capacity * rounds + max(
            2.0 * capacity, 1.0)


class TestExactAccrual:
    """The integer-scaled accumulator versus an exact ``Fraction``
    oracle — the regression class for the old float+epsilon accrual,
    which minted a piece early for capacities like 1/3."""

    def test_one_third_capacity_does_not_mint_early(self):
        # float(1/3) < 1/3 exactly, so three rounds of accrual sum to
        # just under 1.0; the old `credits + 1e-9 >= 1` check minted a
        # piece at round 3 anyway.  Exact arithmetic sends the first
        # piece at round 4, where the burst cap (max(2c, 1) = 1) clamps
        # credits to exactly 1 and the spend resets them to 0 — so the
        # whole cycle repeats with period 4.
        budget = UploadBudget(1.0 / 3.0)
        sends = []
        for round_no in range(1, 13):
            budget.new_round()
            while budget.can_send():
                budget.consume()
                sends.append(round_no)
        assert sends == [4, 8, 12]

    @given(st.floats(min_value=0.01, max_value=8.0), st.integers(1, 80))
    @settings(max_examples=60)
    def test_matches_fraction_oracle(self, capacity, rounds):
        """Greedy draining matches a from-scratch Fraction simulation
        of the same contract (accrue, cap at max(2c, 1), floor)."""
        budget = UploadBudget(capacity)
        exact_capacity = Fraction(*float(capacity).as_integer_ratio())
        cap = max(2 * exact_capacity, Fraction(1))
        credits = Fraction(0)
        consumed = 0
        for _ in range(rounds):
            new_round_avail = budget.new_round()
            credits = min(credits + exact_capacity, cap)
            assert new_round_avail == credits // 1
            assert budget.available() == credits // 1
            while budget.can_send():
                budget.consume()
                credits -= 1
                consumed += 1
            assert credits < 1
            assert not budget.can_send()
        assert budget.total_consumed == consumed



class TestAccrueCatchUp:
    """``accrue(k)`` is the array engines' catch-up for a peer that
    skipped its idle turns: it must leave exactly the credit of ``k``
    successive ``new_round()`` calls."""

    @given(st.sampled_from([0.0, 0.5, 1.0 / 3.0, 1.0, 6.0, 8.0]),
           st.lists(st.tuples(st.integers(1, 4), st.integers(0, 20)),
                    max_size=6),
           st.integers(1, 50))
    @settings(max_examples=120)
    def test_equals_repeated_new_round(self, capacity, history, idle):
        stepped = UploadBudget(capacity)
        caught_up = UploadBudget(capacity)
        # Busy rounds first, each spending up to ``spend`` pieces, so
        # the idle stretch starts from arbitrary credits.
        for rounds, spend in history:
            for budget in (stepped, caught_up):
                for _ in range(rounds):
                    budget.new_round()
                    for _ in range(min(spend, budget.available())):
                        budget.consume()
        assert stepped.credits == caught_up.credits
        for _ in range(idle):
            expected = stepped.new_round()
        assert caught_up.accrue(idle) == expected
        assert caught_up.credits == stepped.credits
        assert caught_up.total_consumed == stepped.total_consumed

    def test_new_round_is_accrue_one(self):
        budget = UploadBudget(0.5)
        assert budget.new_round() == 0
        assert budget.accrue(1) == 1
        assert budget.accrue(10) == 1  # capped at max(2c, 1) = 1
