"""Per-run observability state: the hooks the engines actually call.

One :class:`ObsRuntime` is owned by a simulation whose config enables
any observability (mirroring how
:class:`~repro.sim.guards.GuardRuntime` is owned). It bundles the
three instruments — :class:`~repro.obs.tracer.EventTracer`,
:class:`~repro.obs.samplers.SeriesStore`,
:class:`~repro.obs.spans.SpanTracer` — behind cheap ``note_*`` hooks,
runs the per-round gauge sampling, and at the end of the run compacts
everything into a telemetry payload (:meth:`finalize`) that the engine
stamps onto ``metrics.obs``: journaled by sweeps, but excluded from
metric digests.

The span tracer is installed on any engine from outside
(:meth:`attach`) and taken off again by :meth:`finalize`.

Every method here is **observation-only**: no randomness is consumed
and nothing the simulation reads is mutated. The gauges are computed
through read-only swarm queries (notably
``needy_neighbors(..., require_providable=False)``, the un-memoised
variant, so not even an internal cache is touched).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.obs.config import ObsConfig
from repro.obs.samplers import SeriesStore, entropy, percentile
from repro.obs.spans import SpanTracer
from repro.obs.tracer import EventTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.peer import Peer
    from repro.sim.runner import Simulation

__all__ = ["ObsRuntime"]


class ObsRuntime:
    """Event tracer + samplers + span tracer for one simulation run."""

    def __init__(self, config: ObsConfig) -> None:
        self.config = config
        self.tracer: Optional[EventTracer] = (
            EventTracer(config.trace_buffer,
                        dict(config.trace_sample_rates))
            if config.trace else None)
        self.spans: Optional[SpanTracer] = (
            SpanTracer() if config.profile else None)
        self.series: Optional[SeriesStore] = (
            SeriesStore() if config.sample_every > 0 else None)

    def attach(self, sim: Any) -> None:
        """Install the span wrappers on a fully built engine."""
        if self.spans is not None:
            self.spans.attach(sim)
            self.spans.patch(self, "_sample", "obs.sample")

    # ------------------------------------------------------------------
    # Event hooks (called from the runner's transfer/report primitives)
    # ------------------------------------------------------------------
    def note_transfer(self, sim: "Simulation", uploader: "Peer",
                      target: "Peer", piece: int, kind: str,
                      usable: bool, lost: bool) -> None:
        """One piece send: plain/seed/forward, delivered or lost."""
        if self.tracer is None:
            return
        self.tracer.offer(sim.engine.now, sim.round_index, "transfer",
                          "lost" if lost else kind, {
                              "uploader": uploader.peer_id,
                              "target": target.peer_id,
                              "piece": piece,
                              "kind": kind,
                              "usable": usable,
                          })

    def note_decision(self, sim: "Simulation", peer: "Peer", name: str,
                      target_id: Optional[int] = None,
                      **fields: object) -> None:
        """A strategy's choke/unchoke-style decision (category ``choke``)."""
        if self.tracer is None:
            return
        payload: Dict[str, object] = {"peer": peer.peer_id}
        if target_id is not None:
            payload["target"] = target_id
        payload.update(fields)
        self.tracer.offer(sim.engine.now, sim.round_index, "choke", name,
                          payload)

    def note_reputation(self, sim: "Simulation", name: str, peer_id: int,
                        amount: float, **fields: object) -> None:
        """A reputation-board movement: reported, queued, delivered, lost."""
        if self.tracer is None:
            return
        payload: Dict[str, object] = {"peer": peer_id, "amount": amount}
        payload.update(fields)
        self.tracer.offer(sim.engine.now, sim.round_index, "reputation",
                          name, payload)

    def note_bootstrap(self, sim: "Simulation", peer: "Peer",
                       encrypted: bool) -> None:
        """A peer obtained its first piece (possibly still encrypted)."""
        if self.tracer is None:
            return
        self.tracer.offer(sim.engine.now, sim.round_index, "bootstrap",
                          "encrypted" if encrypted else "usable", {
                              "peer": peer.peer_id,
                              "freerider": peer.is_freerider,
                              "wait": sim.engine.now - peer.arrival_time,
                          })

    def note_completion(self, sim: "Simulation", peer: "Peer") -> None:
        """A peer finished its download."""
        if self.tracer is None:
            return
        self.tracer.offer(sim.engine.now, sim.round_index, "completion",
                          "complete", {
                              "peer": peer.peer_id,
                              "freerider": peer.is_freerider,
                              "elapsed": sim.engine.now - peer.arrival_time,
                          })

    def note_fault(self, sim: "Simulation", name: str,
                   **fields: object) -> None:
        """An injected fault or its fallout (crash, outage, expiry...)."""
        if self.tracer is None:
            return
        self.tracer.offer(sim.engine.now, sim.round_index, "fault", name,
                          dict(fields))

    # ------------------------------------------------------------------
    # Per-round sampling
    # ------------------------------------------------------------------
    def after_round(self, sim: "Simulation") -> None:
        """Sample the gauge catalogue if this round is due."""
        if self.series is None:
            return
        every = self.config.sample_every
        if every <= 0 or sim.round_index % every != 0:
            return
        self._sample(sim)

    def _sample(self, sim: "Simulation") -> None:
        swarm = sim.swarm
        n_pieces = float(sim.config.n_pieces)
        progress = []
        needy_total = 0
        neighbor_total = 0
        freeriders = 0
        active = swarm.active_non_seeders()
        for peer in active:
            if peer.is_freerider:
                freeriders += 1
            else:
                progress.append(len(peer.pieces) / n_pieces)
            # The un-memoised variant: read-only by construction.
            needy_total += len(
                swarm.needy_neighbors(peer, require_providable=False))
            neighbor_total += len(swarm.neighbors(peer.peer_id))
        n_active = len(active)
        counts = swarm.availability_counts()
        collector = sim.collector
        row: Dict[str, float] = {
            "progress_p25": percentile(progress, 25),
            "progress_p50": percentile(progress, 50),
            "progress_p90": percentile(progress, 90),
            "active_peers": float(n_active),
            "active_freeriders": float(freeriders),
            "needy_neighbors_mean": (needy_total / n_active
                                     if n_active else 0.0),
            "neighbors_mean": (neighbor_total / n_active
                               if n_active else 0.0),
            "availability_entropy": entropy(counts),
            "freerider_intake": float(collector.freerider_received_so_far),
            "engine_queue_depth": float(sim.engine.pending),
        }
        if self.tracer is not None:
            row["trace_retained"] = float(len(self.tracer))
            row["trace_evicted"] = float(self.tracer.dropped)
        guard = (self.spans.totals.get("guards.after_round")
                 if self.spans is not None else None)
        if guard is not None:
            row["guard_round_ms_mean"] = guard[1] / guard[0] * 1e3
        self.series.append(sim.round_index, row)

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def finalize(self) -> Dict[str, object]:
        """Compact telemetry payload for ``metrics.obs``.

        Deliberately excludes the raw trace events: only counts travel
        across sweep worker pipes. Exporting events is an in-process
        affair (``python -m repro trace``, ``run --trace-out``). Takes
        the span wrappers off the engine and the cycle they form.
        """
        payload: Dict[str, object] = {}
        if self.series is not None:
            payload["series"] = self.series.to_compact()
        if self.spans is not None:
            self.spans.restore()
            payload["profile"] = self.spans.as_dict()
        if self.tracer is not None:
            payload["trace"] = self.tracer.summary()
        return payload
