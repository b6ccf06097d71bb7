"""Fluid/event-driven hybrid engine for population-scale flash crowds.

Every existing backend instantiates one peer (object or array slot)
per user, which caps a single box at ~10k peers. This module reaches
the paper's "millions of users" regime by *sampling*: a population of
``P`` users is represented by ``K`` independent event-driven subswarms
of ``m = config.n_users`` peers each — every shard a completely normal
:class:`~repro.sim.config.SimulationConfig` run on any backend — and
the unsampled remainder lives in the Qiu-Srikant fluid aggregate
(:mod:`repro.core.fluid`). Shard results are scaled back up by the
shard weight ``w = P / (K * m)`` into population-level metrics.

Coupling happens at round boundaries every ``config.coupling_interval``
rounds. In the event -> fluid direction each boundary folds measured
subswarm aggregates into the fluid integration: swarm effectiveness
(the fraction of arrived users holding at least one piece, a direct
proxy for the probability that a random encounter can transfer a
usable piece), the lingering-seeder share, and the credit/fairness
distribution. In the fluid -> event direction the coupling is the
shared boundary conditions fixed up front: the non-stationary
flash-crowd arrival rate ``lambda(t)`` and the per-capita
infrastructure seed bandwidth, identical for the fluid reservoir and
every shard. A conservation ledger (one :class:`CouplingRow` per
boundary) accounts for the entire population at every coupling round
— unarrived + present + departed must equal ``P`` exactly — and the
soft residual against the independently integrated fluid trajectory
is reported in :attr:`HybridMetrics.fluid_residual`.

Scaling contract (docs/SCALING.md has the full derivation): the
template config describes one shard *verbatim* — shards differ only
in their derived RNG seed — and the population-scale system is
defined as the one whose per-capita infrastructure seed bandwidth
matches the template's (``n_seeders * seeder_capacity / n_users``).
Validating a hybrid against a full event-driven run of ``P`` users
therefore requires scaling the reference's ``seeder_capacity`` by
``P / m`` (see :func:`reference_config`).

Determinism: shard seeds are derived by hashing ``(config.seed,
shard_index)``, shards are aggregated in index order, and
:func:`run_tasks` returns results in submission order — so the
``hybrid-v1`` digest is identical for any ``jobs`` count, any start
method, and the inline sequential path used inside daemonic sweep
workers (which cannot fork children of their own).
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import fluid as fluid_model
from repro.errors import ConfigurationError, SimulationError
from repro.sim.config import SimulationConfig
from repro.sim.metrics import (TERMINATIONS, FaultCounters, PeerSummary,
                               RoundSample, SimulationMetrics,
                               metrics_digest)

__all__ = [
    "CouplingRow",
    "HybridMetrics",
    "HybridShardError",
    "ShardPlan",
    "SHARD_ID_STRIDE",
    "hybrid_digest",
    "reference_config",
    "run_hybrid_simulation",
    "shard_config",
    "shard_plan",
    "shard_seed",
]

#: Peer/lineage ids of shard ``i`` are offset by ``i * SHARD_ID_STRIDE``
#: when pooled into :attr:`HybridMetrics.peers`, keeping identities
#: disjoint across subswarms. Bounds the per-shard id space (peers plus
#: whitewashed lineages) — far above any event-driven shard size.
SHARD_ID_STRIDE = 10_000_000


class HybridShardError(SimulationError):
    """A subswarm failed inside a pooled hybrid run.

    Raised when the executor reports a shard task that died (crash,
    timeout, or an exception the worker serialized to a string). The
    message names the shard index and carries the worker-side error.
    """


@dataclass(frozen=True)
class ShardPlan:
    """How a hybrid run decomposes its population.

    ``weight`` is the number of population users each sampled peer
    stands for; the config layer guarantees ``weight >= 1``. When
    ``K * m == population`` (``weight == 1``) the hybrid degenerates
    to *full sampling*: every user is simulated and the fluid layer is
    pure cross-check — the mode the validation suite runs in.
    """

    population: int
    n_subswarms: int
    subswarm_size: int
    weight: float
    coupling_interval: int
    shard_seeds: Tuple[int, ...]

    @property
    def sampled_users(self) -> int:
        return self.n_subswarms * self.subswarm_size


@dataclass(frozen=True)
class CouplingRow:
    """The conservation ledger at one coupling boundary.

    All masses are in population users (shard sums scaled by the shard
    weight). The hard identity ``unarrived + active + departed ==
    population`` holds exactly (see
    :meth:`HybridMetrics.conservation_errors`); ``residual`` is the
    *soft* deviation of the event-driven present mass from the
    independently integrated fluid trajectory, normalised by the
    population.
    """

    time: float
    #: Cumulative scaled arrivals across subswarms.
    arrived: float
    #: Scaled peers currently present (downloaders + lingering seeds).
    active: float
    #: Scaled lingering-seed share of ``active`` (completed users that
    #: have not departed yet; 0 under the paper's depart-on-completion).
    seeds: float
    #: Scaled peers that left (completed-and-departed plus churned).
    departed: float
    #: Cumulative scaled completions.
    completed: float
    #: Cumulative scaled users holding >= 1 piece.
    bootstrapped: float
    #: Population mass still in the fluid arrival reservoir.
    unarrived: float
    #: Measured swarm effectiveness fed back into the fluid layer
    #: (eta-hat: bootstrapped / arrived, the exchange-probability proxy).
    effectiveness: float
    #: Weighted mean ``u/d`` fairness across subswarms (None before any
    #: compliant user is active).
    fairness_ud: Optional[float]
    #: Fluid trajectory at this boundary, for the residual cross-check.
    fluid_downloaders: float
    fluid_seeds: float
    #: ``|active - (fluid_downloaders + fluid_seeds)| / population``.
    residual: float


@dataclass
class HybridMetrics(SimulationMetrics):
    """Population-level metrics assembled from scaled subswarm runs.

    The base-class surface keeps its meaning with one deliberate split
    in scale: *per-peer* data (``peers``) and the scalar totals are
    the raw pooled sample — every ratio statistic computed from them
    (completion fraction, fairness, susceptibility, mean times) is
    scale-invariant, so the sample estimates the population directly —
    while the *time series* (``samples``) and the coupling ledger are
    scaled up by the shard weight to population level, which is what
    population-scale plots and the conservation identity need.
    ``termination`` is the worst shard verdict (``stalled`` over
    ``cap`` over ``complete``) and ``n_stuck`` the shards' sum.
    """

    population: int = 0
    n_subswarms: int = 0
    subswarm_size: int = 0
    shard_weight: float = 1.0
    coupling_interval: int = 0
    #: One row per coupling boundary — the fluid<->event ledger.
    coupling: List[CouplingRow] = field(default_factory=list)
    #: ``metrics_digest`` of each subswarm, in shard order.
    shard_digests: List[str] = field(default_factory=list)
    #: Deciles (p10..p90) of per-peer credit (pieces uploaded) across
    #: the pooled sample — the credit-distribution side of the
    #: coupling exchange, reported at end of run.
    credit_deciles: List[float] = field(default_factory=list)
    #: Max over boundaries of the fluid cross-check residual.
    fluid_residual: float = 0.0
    digest_lineage: str = "hybrid-v1"

    def population_completed(self) -> float:
        """Estimated number of population users that finished."""
        return self.completion_fraction(include_freeriders=True) * self.population

    def conservation_errors(self, tolerance: float = 1e-6) -> List[str]:
        """Violations of the hard population-conservation identity.

        At every coupling boundary each of the ``population`` users
        must be in exactly one of: unarrived (fluid reservoir),
        present in a subswarm (downloader or lingering seed), or
        departed. Returns human-readable descriptions of any boundary
        where the scaled masses do not add back up to the population
        (empty list = ledger balances).
        """
        errors: List[str] = []
        for row in self.coupling:
            total = row.unarrived + row.active + row.departed
            if abs(total - self.population) > tolerance * max(self.population, 1):
                errors.append(
                    f"t={row.time}: unarrived({row.unarrived:.3f}) + "
                    f"active({row.active:.3f}) + departed({row.departed:.3f})"
                    f" = {total:.3f} != population({self.population})")
            if not row.arrived - 1e-9 <= self.population + 1e-9:
                errors.append(f"t={row.time}: arrived exceeds population")
        return errors


def shard_seed(base_seed: int, index: int) -> int:
    """Deterministic RNG seed for shard ``index`` of a hybrid run.

    Hash-derived (not ``base_seed + index``) so neighbouring hybrid
    base seeds can never alias each other's shard streams — the same
    trick :mod:`repro.experiments.replicates` uses for retry seeds.
    """
    digest = hashlib.sha256(
        f"hybrid-v1|{base_seed}|shard={index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def shard_plan(config: SimulationConfig) -> ShardPlan:
    """The shard decomposition a hybrid run of ``config`` will use."""
    if config.population is None:
        raise ConfigurationError(
            "shard_plan needs a hybrid config (population set); use "
            "SimulationConfig.with_population")
    k = config.n_subswarms
    m = config.n_users
    return ShardPlan(
        population=config.population,
        n_subswarms=k,
        subswarm_size=m,
        weight=config.population / (k * m),
        coupling_interval=config.coupling_interval,
        shard_seeds=tuple(shard_seed(config.seed, i) for i in range(k)),
    )


def shard_config(config: SimulationConfig, index: int) -> SimulationConfig:
    """The plain (non-hybrid) config subswarm ``index`` runs.

    Exactly the template with ``population`` cleared and the derived
    shard seed — a shard is a *normal* run on whatever backend the
    template names. Nothing else is rescaled: the template already
    describes one shard, and the population system is defined as its
    per-capita scale-up (module docstring, docs/SCALING.md).
    """
    if config.population is None:
        raise ConfigurationError("shard_config needs a hybrid config")
    if not 0 <= index < config.n_subswarms:
        raise ConfigurationError(
            f"shard index {index} out of range [0, {config.n_subswarms})")
    return replace(config, population=None,
                   seed=shard_seed(config.seed, index))


def reference_config(config: SimulationConfig) -> SimulationConfig:
    """The full event-driven run a hybrid of ``config`` approximates.

    All ``population`` users in one swarm, with the *seeder count*
    scaled by ``population / n_users`` so both per-capita seed
    bandwidth and the seeding topology match the shards' (a single
    seeder with K-fold capacity is not equivalent: its bounded
    neighbor view would bottleneck piece injection). When the scale is
    not an integer the rounded count keeps exact total bandwidth via a
    capacity adjustment. Used by the validation suite and the CI
    hybrid smoke.
    """
    if config.population is None:
        raise ConfigurationError("reference_config needs a hybrid config")
    scale = config.population / config.n_users
    total_bw = config.n_seeders * config.seeder_capacity * scale
    n_seeders = max(1, round(config.n_seeders * scale))
    return replace(
        config, population=None, n_users=config.population,
        n_seeders=n_seeders, seeder_capacity=total_bw / n_seeders,
    )


def _shard_task(config: SimulationConfig, index: int) -> SimulationMetrics:
    """Executor task: run one subswarm and return its metrics.

    Module-level so it pickles into pool workers under either start
    method (forked workers inherit it, spawned ones import it).
    """
    from repro.sim.runner import run_simulation

    return run_simulation(shard_config(config, index)).metrics


def _run_shards(config: SimulationConfig, plan: ShardPlan, *,
                jobs: Optional[int], timeout: Optional[float],
                start_method: Optional[str]) -> List[SimulationMetrics]:
    """Run all subswarms, inline or on the sweep executor pool.

    ``jobs=None`` or ``1`` runs shards sequentially in-process — the
    cheap default for library callers and the *only* legal path inside
    a daemonic worker (sweep workers cannot have children), which is
    detected and forced. Results are always in shard-index order, so
    both paths aggregate identically.
    """
    if jobs is not None and jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    daemonic = multiprocessing.current_process().daemon
    if daemonic or jobs is None or jobs == 1:
        return [_shard_task(config, i) for i in range(plan.n_subswarms)]

    from repro.experiments.executor import TaskSpec, run_tasks
    from repro.sim.runner import import_engines

    specs = [TaskSpec(key=f"shard-{i}", fn=_shard_task, args=(config, i))
             for i in range(plan.n_subswarms)]
    import_engines()  # before the workers fork, not in each of them
    report = run_tasks(specs, jobs=min(jobs, plan.n_subswarms),
                       timeout=timeout, start_method=start_method)
    metrics: List[SimulationMetrics] = []
    for index, result in enumerate(report.results):
        if not result.ok:
            raise HybridShardError(
                f"subswarm {index} failed after {result.attempts} "
                f"attempt(s): {result.error}")
        metrics.append(result.value)
    return metrics


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def _sample_at(samples: Sequence[RoundSample], time: float,
               ) -> Optional[RoundSample]:
    """Latest sample with ``sample.time <= time`` (None before the
    first). Shards that finished early keep contributing their final
    state — a drained swarm stays drained."""
    chosen = None
    for sample in samples:
        if sample.time > time:
            break
        chosen = sample
    return chosen


def _mean_capacity(config: SimulationConfig) -> float:
    return sum(c.fraction * c.capacity for c in config.capacity_classes)


def _fluid_parameters(config: SimulationConfig, plan: ShardPlan,
                      ) -> Tuple[fluid_model.FluidParameters, float]:
    """Map the event-driven config onto fluid coefficients.

    Returns ``(params, seed_floor)``. Rates are files/round: a peer of
    mean compliant capacity uploads ``mean_cap / n_pieces`` files per
    round. Free-riders contribute demand but no supply, so the
    per-peer upload rate is discounted by the compliant fraction. The
    download cap is left unbounded — event-driven peers are
    receiver-unconstrained; the binding constraints (seeder bandwidth,
    piece availability) enter through ``seed_floor`` and the measured
    effectiveness feedback.
    """
    mu = (_mean_capacity(config) * (1.0 - config.freerider_fraction)
          / config.n_pieces)
    if mu <= 0:  # all-zero capacities: fluid layer has nothing to say
        mu = 1e-9
    gamma = (float("inf") if config.seed_linger_rate is None
             else config.seed_linger_rate)
    params = fluid_model.FluidParameters(
        arrival_rate=0.0,
        upload_rate=mu,
        effectiveness=1.0,
        seed_departure_rate=gamma,
        abort_rate=config.abort_rate,
    )
    # Infrastructure seeders in peer-equivalents: total population-scale
    # seed bandwidth (per-capita template bandwidth times P) over the
    # mean peer's bandwidth.
    per_capita_seed_bw = (config.n_seeders * config.seeder_capacity
                          / config.n_users)
    mean_cap = _mean_capacity(config)
    seed_floor = (per_capita_seed_bw * plan.population / mean_cap
                  if mean_cap > 0 else 0.0)
    return params, seed_floor


def _fluid_trajectory(config: SimulationConfig, plan: ShardPlan,
                      boundaries: Sequence[float],
                      effectiveness: Sequence[float],
                      horizon: int) -> Dict[float, Tuple[float, float]]:
    """Integrate the fluid aggregate over the run with coupling feedback.

    The arrival schedule is the population flash crowd; the
    effectiveness schedule is the piecewise-constant eta-hat measured
    from the subswarms at each boundary (the event -> fluid coupling).
    Returns ``{boundary_time: (downloaders, seeds)}``.
    """
    params, seed_floor = _fluid_parameters(config, plan)
    duration = config.flash_crowd_duration
    if duration > 0:
        arrival = fluid_model.flash_crowd_rate(plan.population, duration)
        x0 = 0.0
    else:
        arrival = 0.0
        x0 = float(plan.population)
    eta = fluid_model.stepwise(list(boundaries), list(effectiveness))
    dt = 0.05
    states = fluid_model.simulate_fluid_schedule(
        params, t_end=float(max(horizon, 1)), dt=dt, x0=x0, y0=0.0,
        arrival_rate=arrival, effectiveness=eta, seed_floor=seed_floor)
    out: Dict[float, Tuple[float, float]] = {}
    for t in boundaries:
        index = min(len(states) - 1, int(round(t / dt)))
        state = states[index]
        out[t] = (state.downloaders, state.seeds)
    return out


def _weighted_mean(values: Sequence[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return sum(present) / len(present)


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def _pool_peers(shards: Sequence[SimulationMetrics]) -> List[PeerSummary]:
    pooled: List[PeerSummary] = []
    for index, shard in enumerate(shards):
        offset = index * SHARD_ID_STRIDE
        for peer in shard.peers:
            if peer.peer_id >= SHARD_ID_STRIDE or peer.lineage_id >= SHARD_ID_STRIDE:
                raise SimulationError(
                    "shard peer id exceeds SHARD_ID_STRIDE; raise the "
                    "stride before pooling")
            # Built directly: ``dataclasses.replace`` re-reads the
            # field list on every call.
            pooled.append(PeerSummary(
                peer_id=peer.peer_id + offset,
                lineage_id=peer.lineage_id + offset,
                capacity=peer.capacity, is_freerider=peer.is_freerider,
                arrival_time=peer.arrival_time,
                bootstrap_time=peer.bootstrap_time,
                completion_time=peer.completion_time,
                uploaded=peer.uploaded, downloaded=peer.downloaded))
    return pooled


def _build_ledger(plan: ShardPlan, shards: Sequence[SimulationMetrics],
                  config: SimulationConfig,
                  ) -> Tuple[List[CouplingRow], List[RoundSample], int]:
    """The coupling pass: boundaries, scaled masses, fluid residual.

    Returns ``(rows, population_samples, horizon)``.
    """
    w = plan.weight
    horizon = max(shard.rounds_run for shard in shards)
    ci = plan.coupling_interval
    boundaries: List[float] = [float(t) for t in range(0, horizon + 1, ci)]
    if boundaries[-1] != float(horizon):
        boundaries.append(float(horizon))

    per_boundary: List[Dict[str, object]] = []
    for t in boundaries:
        arrived = active = completed = boot = 0.0
        uploaded = peer_up = fr_recv = 0.0
        fairness_ud: List[Optional[float]] = []
        fairness_du: List[Optional[float]] = []
        for shard in shards:
            sample = _sample_at(shard.samples, t)
            if sample is None:
                fairness_ud.append(None)
                fairness_du.append(None)
                continue
            arrived += sample.arrived
            active += sample.active_peers
            completed += sample.completed
            boot += sample.bootstrapped
            uploaded += sample.total_uploaded
            peer_up += sample.peer_uploaded
            fr_recv += sample.freerider_received
            fairness_ud.append(sample.fairness_ud)
            fairness_du.append(sample.fairness_du)
        eta_hat = min(1.0, boot / arrived) if arrived > 0 else 0.0
        per_boundary.append({
            "t": t, "arrived": arrived, "active": active,
            "completed": completed, "boot": boot, "uploaded": uploaded,
            "peer_up": peer_up, "fr_recv": fr_recv, "eta": eta_hat,
            "f_ud": _weighted_mean(fairness_ud),
            "f_du": _weighted_mean(fairness_du),
        })

    # Effectiveness feedback: the value integrated over [t_j, t_{j+1})
    # is the measurement taken at the interval's *end* — a zero-lag
    # retrospective fit. Feeding the start-of-interval value instead
    # would hold the fluid at eta ~ 0 for the whole first interval
    # (nobody has bootstrapped at t=0) and inflate the residual with
    # pure phase lag rather than genuine model disagreement.
    etas = [row["eta"] for row in per_boundary]
    fluid_at = _fluid_trajectory(
        config, plan, boundaries, etas[1:] + etas[-1:], horizon)

    rows: List[CouplingRow] = []
    pop_samples: List[RoundSample] = []
    for row in per_boundary:
        t = row["t"]
        arrived_s = w * row["arrived"]
        active_s = w * row["active"]
        completed_s = w * row["completed"]
        boot_s = w * row["boot"]
        departed_s = arrived_s - active_s
        # Lingering seeds: present peers beyond the still-downloading
        # mass. Exact with faultless physics; a lower bound once
        # crashes also remove downloaders.
        seeds_s = max(0.0, active_s - max(0.0, arrived_s - completed_s))
        unarrived = plan.population - arrived_s
        fx, fy = fluid_at[t]
        residual = abs(active_s - (fx + fy)) / plan.population
        rows.append(CouplingRow(
            time=t, arrived=arrived_s, active=active_s, seeds=seeds_s,
            departed=departed_s, completed=completed_s,
            bootstrapped=boot_s, unarrived=unarrived,
            effectiveness=row["eta"], fairness_ud=row["f_ud"],
            fluid_downloaders=fx, fluid_seeds=fy, residual=residual))
        pop_samples.append(RoundSample(
            time=t,
            active_peers=int(round(active_s)),
            arrived=int(round(arrived_s)),
            population=plan.population,
            bootstrapped=int(round(boot_s)),
            completed=int(round(completed_s)),
            fairness_ud=row["f_ud"],
            fairness_du=row["f_du"],
            total_uploaded=int(round(w * row["uploaded"])),
            peer_uploaded=int(round(w * row["peer_up"])),
            freerider_received=int(round(w * row["fr_recv"])),
        ))
    return rows, pop_samples, horizon


def _sum_faults(shards: Sequence[SimulationMetrics]) -> FaultCounters:
    totals = FaultCounters()
    for shard in shards:
        for f in fields(FaultCounters):
            setattr(totals, f.name,
                    getattr(totals, f.name) + getattr(shard.faults, f.name))
    return totals


def hybrid_digest(metrics: HybridMetrics) -> str:
    """Canonical digest of a hybrid run — the ``hybrid-v1`` identity.

    Covers the shard plan, every subswarm's own ``metrics_digest``,
    and the full coupling ledger; like :func:`metrics_digest` it
    excludes provenance (obs payloads). Identical across ``--jobs``
    counts by construction.
    """
    h = hashlib.sha256()
    h.update(f"hybrid-v1|P={metrics.population}|K={metrics.n_subswarms}"
             f"|m={metrics.subswarm_size}|w={metrics.shard_weight!r}"
             f"|ci={metrics.coupling_interval}".encode())
    for digest in metrics.shard_digests:
        h.update(digest.encode())
    for row in metrics.coupling:
        h.update(repr((row.time, row.arrived, row.active, row.seeds,
                       row.departed, row.completed, row.bootstrapped,
                       row.unarrived, row.effectiveness, row.fairness_ud,
                       row.residual)).encode())
    h.update(repr(tuple(metrics.credit_deciles)).encode())
    return h.hexdigest()


def _aggregate(config: SimulationConfig, plan: ShardPlan,
               shards: Sequence[SimulationMetrics]) -> HybridMetrics:
    rows, pop_samples, horizon = _build_ledger(plan, shards, config)
    peers = _pool_peers(shards)
    credits = sorted(float(p.uploaded) for p in peers)
    deciles = [_quantile(credits, q / 10.0) for q in range(1, 10)]

    metrics = HybridMetrics(
        samples=pop_samples,
        peers=peers,
        total_uploaded=sum(s.total_uploaded for s in shards),
        peer_uploaded=sum(s.peer_uploaded for s in shards),
        total_received_raw=sum(s.total_received_raw for s in shards),
        freerider_received=sum(s.freerider_received for s in shards),
        rounds_run=horizon,
        faults=_sum_faults(shards),
        termination=max((s.termination for s in shards),
                        key=TERMINATIONS.index),
        n_stuck=sum(s.n_stuck for s in shards),
        population=plan.population,
        n_subswarms=plan.n_subswarms,
        subswarm_size=plan.subswarm_size,
        shard_weight=plan.weight,
        coupling_interval=plan.coupling_interval,
        coupling=rows,
        shard_digests=[metrics_digest(s) for s in shards],
        credit_deciles=deciles,
        fluid_residual=max((r.residual for r in rows), default=0.0),
    )
    from repro.obs.samplers import hybrid_coupling_store

    metrics.obs = {"series": hybrid_coupling_store(rows).to_compact()}
    errors = metrics.conservation_errors()
    if errors:
        raise SimulationError(
            "hybrid conservation ledger does not balance: "
            + "; ".join(errors[:3]))
    return metrics


def run_hybrid_simulation(config: SimulationConfig, *,
                          jobs: Optional[int] = None,
                          timeout: Optional[float] = None,
                          start_method: Optional[str] = None):
    """Run ``config`` as a population-scale fluid/event-driven hybrid.

    Requires ``config.population``; :func:`repro.sim.runner.
    run_simulation` dispatches here automatically for such configs.
    ``jobs`` > 1 fans subswarms out on the sweep executor
    (:func:`repro.experiments.executor.run_tasks`); the default runs
    them inline, which is what nested contexts (sweep workers are
    daemonic) require and what small validation runs want anyway.
    ``start_method`` is passed to the executor; ``None`` lets it
    choose (``"fork"`` where it is safe, else ``"spawn"``).
    Returns a :class:`repro.sim.runner.SimulationResult` whose
    ``metrics`` is a :class:`HybridMetrics`.
    """
    if config.population is None:
        raise ConfigurationError(
            "run_hybrid_simulation needs config.population; use "
            "SimulationConfig.with_population or plain run_simulation")
    plan = shard_plan(config)
    shards = _run_shards(config, plan, jobs=jobs, timeout=timeout,
                         start_method=start_method)
    metrics = _aggregate(config, plan, shards)

    from repro.sim.runner import SimulationResult

    return SimulationResult(config=config, metrics=metrics)
