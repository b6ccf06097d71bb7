"""Measurement: per-round samples and end-of-run summaries.

The collector samples, once per round, exactly the quantities plotted
in the paper's Figures 4-6:

* **efficiency** — download completion times (Figs. 4a/5b/6b);
* **fairness** — the experimental statistic ``mean(u_i / d_i)`` over
  compliant users that downloaded something (Figs. 4b/5c/6c);
* **bootstrapping** — fraction of arrived users holding at least one
  usable piece (Fig. 4c);
* **susceptibility** — fraction of all uploaded bandwidth received
  (usably) by free-riders (Figs. 5a/6a).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping,
                    Optional, Tuple)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.config import SimulationConfig

__all__ = ["RoundSample", "PeerSummary", "TransferRecord", "FaultCounters",
           "MetricsCollector", "SimulationMetrics", "TERMINATIONS",
           "degradation_rows", "metrics_digest", "run_termination"]

#: How a run ended (``SimulationMetrics.termination``), best first.
TERMINATIONS = ("complete", "cap", "stalled")


@dataclass(frozen=True)
class TransferRecord:
    """One piece transfer (recorded when ``record_transfers`` is on).

    ``kind`` is one of ``"plain"`` (immediately usable piece),
    ``"seed"`` (T-Chain encrypted opportunistic upload), or
    ``"forward"`` (T-Chain indirect-reciprocity forward of a still
    encrypted piece).
    """

    time: float
    uploader_id: int
    target_id: int
    piece_id: int
    kind: str
    usable: bool
    #: True when fault injection dropped the transfer in flight (the
    #: uploader's budget was consumed but nothing was delivered).
    lost: bool = False


@dataclass
class FaultCounters:
    """Per-run tallies of injected faults and their fallout.

    ``transfers_lost`` counts sends dropped in flight (budget consumed,
    nothing delivered); ``transfers_retried`` counts later successful
    deliveries of a (receiver, piece) pair that had previously been
    lost — the recovery side of the loss process. ``obligations_expired``
    are pending T-Chain pieces dropped by the key timeout;
    ``obligations_orphaned`` are pending pieces dropped because the
    key-holding uploader departed or crashed. ``reports_dropped``
    counts delayed reputation reports discarded at flush time because
    the uploading lineage had departed (or crashed) before the report
    came due — there was no live identity left to credit. All stay
    zero in a fault-free run except ``obligations_orphaned``, which
    churn (``abort_rate``) can also produce.
    """

    transfers_lost: int = 0
    transfers_retried: int = 0
    obligations_expired: int = 0
    obligations_orphaned: int = 0
    peer_crashes: int = 0
    seeder_outages: int = 0
    seeder_downtime_rounds: int = 0
    delayed_reports: int = 0
    reports_dropped: int = 0


def _pickled_by_fields(cls):
    """Pickle a frozen slotted record as ``cls(*field_values)``.

    The default for ``frozen=True, slots=True`` walks ``fields()`` per
    record both ways; this is cheaper than that, and than an unslotted
    record, which matters for the hybrid's per-shard result pickles.
    """
    values = attrgetter(*(f.name for f in fields(cls)))
    cls.__reduce__ = lambda self: (cls, values(self))
    return cls


@_pickled_by_fields
@dataclass(frozen=True, slots=True)
class RoundSample:
    """One row of the per-round time series.

    Two fairness readings are taken over active compliant users:
    ``fairness_ud`` is the mean of ``u_i / d_i`` (the statistic named
    in Section V) and ``fairness_du`` the mean of ``d_i / u_i``
    (matching the per-user definition ``f_i = d_i / u_i`` of Eq. 3;
    this is the direction that exposes altruism's and reputation's
    unfairness, since equalised download rates make the ``u/d`` mean
    sit near 1 by construction).
    """

    time: float
    active_peers: int
    arrived: int
    population: int
    bootstrapped: int
    completed: int
    fairness_ud: Optional[float]
    fairness_du: Optional[float]
    total_uploaded: int
    peer_uploaded: int
    freerider_received: int

    @property
    def fairness(self) -> Optional[float]:
        """Headline fairness: the paper's ``mean(u_i / d_i)``."""
        return self.fairness_ud

    @property
    def bootstrapped_fraction(self) -> float:
        """Fraction of the *whole population* holding >= 1 piece."""
        return self.bootstrapped / self.population if self.population else 0.0

    @property
    def completed_fraction(self) -> float:
        return self.completed / self.population if self.population else 0.0

    @property
    def susceptibility(self) -> float:
        """Share of *user* upload bandwidth received by free-riders.

        Seeder uploads are excluded on both sides: susceptibility
        measures what free-riders extract from other users' incentive
        mechanisms, and under pure reciprocity (where users upload
        nothing) it must be zero, not the seeder's random spray.
        """
        if self.peer_uploaded == 0:
            return 0.0
        return self.freerider_received / self.peer_uploaded


@_pickled_by_fields
@dataclass(frozen=True, slots=True)
class PeerSummary:
    """End-of-run record for one (possibly departed) peer."""

    peer_id: int
    lineage_id: int
    capacity: float
    is_freerider: bool
    arrival_time: float
    bootstrap_time: Optional[float]
    completion_time: Optional[float]
    uploaded: int
    downloaded: int

    @property
    def download_duration(self) -> Optional[float]:
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    @property
    def fairness_ratio(self) -> Optional[float]:
        """``u_i / d_i`` — the paper's experimental per-user statistic."""
        if self.downloaded == 0:
            return None if self.uploaded else 1.0
        return self.uploaded / self.downloaded


@dataclass
class SimulationMetrics:
    """Everything measured in one run."""

    samples: List[RoundSample] = field(default_factory=list)
    peers: List[PeerSummary] = field(default_factory=list)
    transfers: List[TransferRecord] = field(default_factory=list)
    total_uploaded: int = 0
    peer_uploaded: int = 0
    total_received_raw: int = 0
    freerider_received: int = 0
    rounds_run: int = 0
    faults: FaultCounters = field(default_factory=FaultCounters)
    #: How the run ended (:func:`run_termination`): ``"complete"``,
    #: ``"cap"`` or ``"stalled"``, and ``n_stuck``, the incomplete
    #: compliant peers still in the swarm at the end. They describe
    #: *how the run ended*, not the measured physics, so they stay out
    #: of :func:`metrics_digest`.
    termination: str = "complete"
    n_stuck: int = 0
    #: Observability payload (:meth:`repro.obs.runtime.ObsRuntime.finalize`):
    #: compacted per-round series, aggregated profile spans, and trace
    #: accounting. Telemetry about *watching* the run, not the run
    #: itself — excluded from :func:`metrics_digest` like the
    #: termination fields above, and journaled digest-free by sweeps.
    obs: Optional[Dict[str, object]] = None
    #: Which determinism contract produced these numbers. ``parity-v1``
    #: engines (object, vector) are byte-identical to each other;
    #: ``fast-v1`` (vector-fast) draws from its own PCG64 stream and is
    #: only *distributionally* equivalent. Provenance, not physics —
    #: excluded from :func:`metrics_digest` (a digest already only
    #: means anything within one lineage), but journaled and cached so
    #: fast-lineage results can never masquerade as parity results.
    digest_lineage: str = "parity-v1"

    # ------------------------------------------------------------------
    # Efficiency
    # ------------------------------------------------------------------
    def completion_times(self, include_freeriders: bool = False) -> List[float]:
        """Download durations of users that finished, sorted ascending."""
        times = [p.download_duration for p in self.peers
                 if p.download_duration is not None
                 and (include_freeriders or not p.is_freerider)]
        return sorted(times)

    def mean_completion_time(self) -> float:
        """Mean compliant download time; ``inf`` if nobody finished."""
        times = self.completion_times()
        return sum(times) / len(times) if times else math.inf

    def median_completion_time(self) -> float:
        times = self.completion_times()
        if not times:
            return math.inf
        mid = len(times) // 2
        if len(times) % 2:
            return times[mid]
        return 0.5 * (times[mid - 1] + times[mid])

    def completion_fraction(self, include_freeriders: bool = False) -> float:
        pop = [p for p in self.peers
               if include_freeriders or not p.is_freerider]
        if not pop:
            return 0.0
        done = sum(1 for p in pop if p.completion_time is not None)
        return done / len(pop)

    def completion_cdf(self) -> List[Dict[str, float]]:
        """CDF points (time, fraction complete) for Figure 4a-style plots."""
        times = self.completion_times()
        pop = sum(1 for p in self.peers if not p.is_freerider)
        if not pop:
            return []
        return [{"time": t, "fraction": (i + 1) / pop}
                for i, t in enumerate(times)]

    # ------------------------------------------------------------------
    # Fairness
    # ------------------------------------------------------------------
    def final_fairness(self) -> Optional[float]:
        """Mean ``u_i / d_i`` over compliant users at end of run."""
        ratios = [p.fairness_ratio for p in self.peers
                  if not p.is_freerider and p.fairness_ratio is not None]
        return sum(ratios) / len(ratios) if ratios else None

    def final_fairness_du(self) -> Optional[float]:
        """Mean ``d_i / u_i`` over compliant uploaders at end of run."""
        ratios = [p.downloaded / p.uploaded for p in self.peers
                  if not p.is_freerider and p.uploaded > 0]
        return sum(ratios) / len(ratios) if ratios else None

    def final_fairness_F(self) -> Optional[float]:
        """Eq. 3's statistic on the run: mean ``|log(d_i/u_i)|``.

        Computed over compliant users with both totals positive —
        0 means perfectly fair, matching the analytical layer
        (:func:`repro.core.metrics.fairness`).
        """
        values = [abs(math.log(p.downloaded / p.uploaded))
                  for p in self.peers
                  if not p.is_freerider and p.uploaded > 0
                  and p.downloaded > 0]
        return sum(values) / len(values) if values else None

    def fairness_series(self, kind: str = "ud") -> List[Dict[str, float]]:
        """Per-round fairness; ``kind`` selects ``"ud"`` or ``"du"``."""
        if kind not in ("ud", "du"):
            raise ValueError("kind must be 'ud' or 'du'")
        attr = "fairness_ud" if kind == "ud" else "fairness_du"
        return [{"time": s.time, "fairness": getattr(s, attr)}
                for s in self.samples if getattr(s, attr) is not None]

    def mean_fairness_between(self, t_start: float, t_end: float,
                              kind: str = "du") -> Optional[float]:
        """Average of the fairness series over a time window."""
        values = [r["fairness"] for r in self.fairness_series(kind)
                  if t_start <= r["time"] <= t_end]
        return sum(values) / len(values) if values else None

    # ------------------------------------------------------------------
    # Bootstrapping
    # ------------------------------------------------------------------
    def bootstrap_series(self) -> List[Dict[str, float]]:
        return [{"time": s.time, "fraction": s.bootstrapped_fraction}
                for s in self.samples]

    def time_to_bootstrap_fraction(self, fraction: float) -> float:
        """First sample time when >= ``fraction`` of users had a piece."""
        for s in self.samples:
            if s.bootstrapped_fraction >= fraction:
                return s.time
        return math.inf

    def mean_bootstrap_time(self) -> float:
        """Mean time-to-first-piece over users that ever bootstrapped."""
        times = [p.bootstrap_time - p.arrival_time for p in self.peers
                 if p.bootstrap_time is not None]
        return sum(times) / len(times) if times else math.inf

    def bootstrapped_fraction_final(self) -> float:
        if not self.peers:
            return 0.0
        done = sum(1 for p in self.peers if p.bootstrap_time is not None)
        return done / len(self.peers)

    # ------------------------------------------------------------------
    # Free-riding
    # ------------------------------------------------------------------
    def susceptibility(self) -> float:
        """Fraction of user-uploaded bandwidth usably received by
        free-riders (seeder uploads excluded; see RoundSample)."""
        if self.peer_uploaded == 0:
            return 0.0
        return self.freerider_received / self.peer_uploaded

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def observed_loss_rate(self) -> float:
        """Fraction of attempted transfers that were lost in flight."""
        attempted = self.total_uploaded + self.faults.transfers_lost
        if attempted == 0:
            return 0.0
        return self.faults.transfers_lost / attempted


class MetricsCollector:
    """Accumulates transfer counts and per-round samples during a run."""

    def __init__(self) -> None:
        self.metrics = SimulationMetrics()
        self._freerider_received = 0
        self._total_uploaded = 0
        self._peer_uploaded = 0
        self.faults = FaultCounters()

    # Read-only mid-run views, used by the invariant guards (the
    # accumulators themselves stay private: only the runner writes).
    @property
    def total_uploaded_so_far(self) -> int:
        return self._total_uploaded

    @property
    def peer_uploaded_so_far(self) -> int:
        return self._peer_uploaded

    @property
    def freerider_received_so_far(self) -> int:
        return self._freerider_received

    # Called by the runner on every executed transfer.
    def record_transfer(self, to_freerider: bool, usable: bool,
                        from_seeder: bool = False) -> None:
        self._total_uploaded += 1
        if not from_seeder:
            self._peer_uploaded += 1
            if to_freerider and usable:
                self._freerider_received += 1

    def record_unlock(self, for_freerider: bool) -> None:
        """A previously encrypted piece became usable."""
        if for_freerider:
            self._freerider_received += 1

    def add_transfer_counts(self, total: int, peer: int,
                            freerider: int) -> None:
        """Fold in transfer counters accumulated outside the collector.

        The vector backend batches its per-send bookkeeping in local
        integers and flushes here before every sample and at finalize,
        which keeps the sampled counter snapshots identical to calling
        :meth:`record_transfer` / :meth:`record_unlock` per event.
        """
        self._total_uploaded += total
        self._peer_uploaded += peer
        self._freerider_received += freerider

    # ------------------------------------------------------------------
    # Fault events (called by the runner's fault-injection hooks)
    # ------------------------------------------------------------------
    def record_lost_transfer(self) -> None:
        """A send was dropped in flight; budget spent, nothing arrived."""
        self.faults.transfers_lost += 1

    def record_retried_transfer(self) -> None:
        """A previously lost (receiver, piece) delivery finally landed."""
        self.faults.transfers_retried += 1

    def record_expired_obligations(self, count: int = 1) -> None:
        self.faults.obligations_expired += count

    def record_orphaned_obligations(self, count: int = 1) -> None:
        self.faults.obligations_orphaned += count

    def record_crash(self) -> None:
        self.faults.peer_crashes += 1

    def record_seeder_outage(self) -> None:
        self.faults.seeder_outages += 1

    def record_seeder_downtime(self, rounds: int = 1) -> None:
        self.faults.seeder_downtime_rounds += rounds

    def record_delayed_report(self) -> None:
        self.faults.delayed_reports += 1

    def record_dropped_report(self) -> None:
        """A delayed report's lineage departed before it came due."""
        self.faults.reports_dropped += 1

    def sample(self, time: float, active_peers: int, arrived: int,
               population: int, bootstrapped: int, completed: int,
               fairness_ud: Optional[float],
               fairness_du: Optional[float]) -> None:
        self.metrics.samples.append(RoundSample(
            time=time,
            active_peers=active_peers,
            arrived=arrived,
            population=population,
            bootstrapped=bootstrapped,
            completed=completed,
            fairness_ud=fairness_ud,
            fairness_du=fairness_du,
            total_uploaded=self._total_uploaded,
            peer_uploaded=self._peer_uploaded,
            freerider_received=self._freerider_received,
        ))

    def finalize(self, peers: List[PeerSummary], rounds_run: int,
                 total_received_raw: int = 0) -> SimulationMetrics:
        self.metrics.peers = peers
        self.metrics.total_uploaded = self._total_uploaded
        self.metrics.peer_uploaded = self._peer_uploaded
        self.metrics.total_received_raw = total_received_raw
        self.metrics.freerider_received = self._freerider_received
        self.metrics.rounds_run = rounds_run
        self.metrics.faults = self.faults
        return self.metrics


def run_termination(config: "SimulationConfig", finished: bool,
                    arrivals_left: bool, reports_queued: bool,
                    members: Iterable[Tuple[bool, bool, bool, bool]],
                    send_possible: Callable[[], bool]) -> Tuple[str, int]:
    """The exact end-of-run verdict: ``(termination, n_stuck)``.

    ``finished`` is the engine's own finish test (every compliant user
    arrived and completed or left); it makes the run ``"complete"``,
    even when it held on the capped round itself. ``members`` yields
    ``(is_seeder, is_freerider, complete, has_pending)`` for every
    peer still in the swarm; ``n_stuck`` counts the incomplete
    compliant ones.

    An unfinished run is ``"stalled"`` when nothing more can happen:

    1. no send is possible: ``send_possible()`` is the engine's scan
       over view edges from every non-free-rider member (seeders,
       offline ones too) to every incomplete non-seeder neighbour,
       for a piece the sender holds usable or pending that the
       receiver holds neither way (T-Chain forwards encrypted pieces);
    2. nothing scheduled can change that: no arrival is left, no
       delayed reputation report is queued, no key expiry can drop a
       pending piece, no free-rider is left to whitewash, no churn or
       crash hazard can remove a stuck peer (and the keys it holds),
       and no lingering seed is left to depart (dropping the keys it
       holds).

    Any other unfinished run is ``"cap"``: the round cap cut it off
    while something could still happen. The scan runs only when every
    scheduled change is ruled out, once per run.
    """
    n_stuck = 0
    pending = freeriders = lingering = False
    for seeder, freerider, complete, has_pending in members:
        if seeder:
            continue
        pending = pending or has_pending
        if freerider:
            freeriders = True
        elif not complete:
            n_stuck += 1
        lingering = lingering or complete
    if finished:
        return "complete", n_stuck
    faults = config.faults
    if (arrivals_left or reports_queued
            or (pending and faults.obligation_expiry_rounds is not None)
            or (freeriders and config.attack.whitewash_interval is not None)
            or (n_stuck and (config.abort_rate > 0.0
                             or faults.crash_hazard > 0.0))
            or lingering or send_possible()):
        return "cap", n_stuck
    return "stalled", n_stuck


def metrics_digest(metrics: SimulationMetrics) -> str:
    """A stable SHA-256 fingerprint of one run's complete measurements.

    Covers every per-round sample, every peer summary, the aggregate
    totals, and the fault counters — if any of them changes by one ULP
    the digest changes. Used by the seed-pinned equivalence tests to
    assert that hot-path data-structure rewrites leave simulation
    results byte-identical, and that a fixed seed reproduces the same
    run across Python versions (``repr`` of floats is exact for
    doubles, so the serialisation is portable).
    """
    h = hashlib.sha256()
    for s in metrics.samples:
        h.update(repr((s.time, s.active_peers, s.arrived, s.population,
                       s.bootstrapped, s.completed, s.fairness_ud,
                       s.fairness_du, s.total_uploaded, s.peer_uploaded,
                       s.freerider_received)).encode())
    for p in metrics.peers:
        h.update(repr((p.peer_id, p.lineage_id, p.capacity, p.is_freerider,
                       p.arrival_time, p.bootstrap_time, p.completion_time,
                       p.uploaded, p.downloaded)).encode())
    f = metrics.faults
    h.update(repr((metrics.total_uploaded, metrics.peer_uploaded,
                   metrics.total_received_raw, metrics.freerider_received,
                   metrics.rounds_run, f.transfers_lost, f.transfers_retried,
                   f.obligations_expired, f.obligations_orphaned,
                   f.peer_crashes, f.seeder_outages, f.seeder_downtime_rounds,
                   f.delayed_reports, f.reports_dropped)).encode())
    return h.hexdigest()


def degradation_rows(runs: Mapping[float, SimulationMetrics],
                     ) -> List[Dict[str, float]]:
    """Degradation-vs-loss-rate summary for one algorithm.

    ``runs`` maps a configured transfer-loss rate to the metrics of the
    run executed at that rate (the smallest rate within 1e-12 of zero,
    if present, is the baseline — sweep configs sometimes carry a tiny
    float residue instead of an exact 0.0).  Returns one row per rate,
    sorted ascending, with the headline quantities and the slowdown
    relative to the zero-loss baseline (``nan`` when no baseline or no
    completions to compare; ``inf`` when the baseline completed in zero
    time and the lossy run did not).
    """
    baseline = None
    for rate in sorted(runs):
        if abs(rate) <= 1e-12:
            baseline = runs[rate]
            break
    base_time = (baseline.mean_completion_time()
                 if baseline is not None else math.nan)
    rows: List[Dict[str, float]] = []
    for rate in sorted(runs):
        m = runs[rate]
        mean_time = m.mean_completion_time()
        if not (math.isfinite(base_time) and math.isfinite(mean_time)):
            slowdown = math.nan
        elif base_time == 0.0:
            # An all-instant baseline: identical behaviour is no
            # degradation (1.0); any nonzero completion time is an
            # unbounded slowdown rather than a division crash.
            slowdown = 1.0 if mean_time == 0.0 else math.inf
        else:
            slowdown = mean_time / base_time
        fairness = m.final_fairness()
        rows.append({
            "loss_rate": rate,
            "observed_loss_rate": m.observed_loss_rate(),
            "mean_completion_time": mean_time,
            "completion_fraction": m.completion_fraction(),
            "final_fairness": math.nan if fairness is None else fairness,
            "slowdown": slowdown,
            "transfers_lost": float(m.faults.transfers_lost),
            "transfers_retried": float(m.faults.transfers_retried),
            "obligations_expired": float(m.faults.obligations_expired),
        })
    return rows
