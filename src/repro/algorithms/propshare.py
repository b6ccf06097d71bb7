"""PropShare: proportional-share reciprocity (extension, [5]).

PropShare (Levin et al., "BitTorrent is an auction") replaces
BitTorrent's equal-split tit-for-tat with a *proportional* allocation:
each round, the `1 - alpha` reciprocal share of upload bandwidth is
divided among last round's contributors in proportion to how much each
contributed, which is the auction-theoretic best response and is known
to resist strategic under-reporting better than rank-based unchoking.
The `alpha` share remains optimistic (random needy neighbors,
newcomers included).

The paper cites PropShare in Corollary 2's proof (its exchange
feasibility matches BitTorrent's: the reciprocal share still needs
mutual interest, the optimistic share only one-sided interest). It is
not one of the six analysed mechanisms, so this repository ships it as
an extension for ablation studies — see
``tests/paper/test_extensions.py``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.algorithms.base import Strategy
from repro.names import Algorithm
from repro.sim.context import StrategyContext
from repro.sim.rng import weighted_choice

__all__ = ["PropShareStrategy"]


class PropShareStrategy(Strategy):
    """Contribution-proportional reciprocity plus optimism."""

    algorithm = Algorithm.PROPSHARE

    def _contributors(self, ctx: StrategyContext,
                      last_round_only: bool) -> Dict[int, int]:
        me = ctx.peer
        ledger = me.received_last_round if last_round_only else me.received_from
        needy = set(ctx.needy_neighbors())
        return {pid: amount
                for pid, amount in ledger.items()
                if amount > 0 and pid in needy}

    def on_round(self, ctx: StrategyContext) -> None:
        # One attempt per available piece; reciprocal slots with no
        # contributor to serve are wasted, never given to newcomers
        # (same discipline as our BitTorrent strategy).
        for _ in range(ctx.budget()):
            if ctx.budget() == 0:
                return
            if self.rng.random() < self.params.alpha_bt:
                if not self._send_random(ctx):
                    return
                continue
            weights = self._contributors(ctx, last_round_only=True)
            if not weights:
                # Quiet last round: weight by all-time contributions.
                weights = self._contributors(ctx, last_round_only=False)
            if not weights:
                continue  # reciprocal slot idles
            targets: List[int] = sorted(weights)
            target = weighted_choice(self.rng, targets,
                                     [float(weights[t]) for t in targets])
            ctx.send_piece(target)
