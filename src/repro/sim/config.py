"""Simulation configuration objects.

:class:`SimulationConfig` fully describes one run: swarm size, file
size, upload-capacity distribution, the incentive mechanism under
test, the free-rider population and its attack plan, and termination
settings. Configurations are plain frozen dataclasses so experiments
can derive variants with :func:`dataclasses.replace`.

Units: capacities are in *pieces per round*; one round is one
simulated second (the paper's plots are in seconds).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.names import Algorithm
from repro.obs.config import ObsConfig
from repro.sim.faults import FaultConfig
from repro.sim.guards import GuardConfig

__all__ = [
    "CapacityClass",
    "AttackConfig",
    "FaultConfig",
    "GuardConfig",
    "ObsConfig",
    "StrategyParameters",
    "SimulationConfig",
    "DEFAULT_CAPACITY_CLASSES",
    "targeted_attack_for",
]


@dataclass(frozen=True)
class CapacityClass:
    """A group of users sharing one upload capacity.

    ``fraction`` of the swarm gets ``capacity`` pieces/round. Mirrors
    the heterogeneous-capacity populations of BitTorrent measurement
    studies (a few fast peers, many slow ones).
    """

    fraction: float
    capacity: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError("fraction must lie in (0, 1]")
        if self.capacity < 0:
            raise ConfigurationError("capacity must be non-negative")


#: Default heterogeneous population: 10% fast, 30% medium, 40% slow,
#: 20% very slow — total mean capacity 2.1 pieces/round.
DEFAULT_CAPACITY_CLASSES: Tuple[CapacityClass, ...] = (
    CapacityClass(0.10, 6.0),
    CapacityClass(0.30, 3.0),
    CapacityClass(0.40, 1.0),
    CapacityClass(0.20, 0.5),
)


@dataclass(frozen=True)
class AttackConfig:
    """Which free-riding attacks are active (Section IV-C, V-B2).

    All free-riders always use *simple* free-riding (upload nothing
    while requesting pieces). The remaining flags layer the targeted
    attacks on top:

    * ``collusion`` — T-Chain: colluders falsely confirm indirect
      reciprocations for each other, extracting decryption keys.
    * ``whitewash_interval`` — FairTorrent: free-riders reset their
      identity every this-many rounds, clearing accumulated deficits.
    * ``false_praise`` — reputation: colluders inject fake upload
      reports to inflate each other's global reputation.
    * ``large_view`` — all algorithms: free-riders connect to every
      peer instead of a bounded neighbor view, multiplying their
      exposure to altruistic/optimistic uploads.
    """

    collusion: bool = False
    whitewash_interval: Optional[int] = None
    false_praise: bool = False
    large_view: bool = False
    fake_praise_amount: float = 5.0

    def __post_init__(self) -> None:
        if self.whitewash_interval is not None and self.whitewash_interval < 1:
            raise ConfigurationError("whitewash_interval must be >= 1")
        if self.fake_praise_amount < 0:
            raise ConfigurationError("fake_praise_amount must be non-negative")

    def with_large_view(self) -> "AttackConfig":
        return replace(self, large_view=True)


def targeted_attack_for(algorithm: Algorithm,
                        large_view: bool = False) -> AttackConfig:
    """The most effective attack per algorithm (Section V-B2).

    Simple non-collusive free-riding everywhere, plus collusion for
    T-Chain and whitewashing for FairTorrent.
    """
    algorithm = Algorithm.parse(algorithm)
    return AttackConfig(
        collusion=(algorithm is Algorithm.TCHAIN),
        whitewash_interval=30 if algorithm is Algorithm.FAIRTORRENT else None,
        # The paper's Fig. 5 uses *simple* free-riding against the
        # reputation system; the false-praise collusion of Section IV-C
        # is available separately as an ablation (AttackConfig).
        false_praise=False,
        large_view=large_view,
    )


@dataclass(frozen=True)
class StrategyParameters:
    """Tunables of the six exchange algorithms.

    Attributes
    ----------
    alpha_bt:
        BitTorrent's optimistic-unchoke probability (paper: 0.2).
    n_bt:
        BitTorrent's number of reciprocal unchoke slots.
    alpha_r:
        Reputation algorithm's altruism (bootstrapping) probability.
    tchain_obligation_patience:
        Rounds an uploader waits for reciprocation before treating the
        receiver as non-compliant and refusing further service.
    tchain_max_pending:
        Refuse new encrypted uploads to a peer with this many unmet
        obligations toward us (T-Chain's leverage against free-riders).
    """

    alpha_bt: float = 0.2
    n_bt: int = 4
    alpha_r: float = 0.1
    tchain_obligation_patience: int = 2
    tchain_max_pending: int = 3

    def __post_init__(self) -> None:
        for name in ("alpha_bt", "alpha_r"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        if self.n_bt < 1:
            raise ConfigurationError("n_bt must be >= 1")
        if self.tchain_obligation_patience < 1:
            raise ConfigurationError("tchain_obligation_patience must be >= 1")
        if self.tchain_max_pending < 1:
            raise ConfigurationError("tchain_max_pending must be >= 1")


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run (Section V-A setup)."""

    algorithm: Algorithm
    n_users: int = 200
    n_pieces: int = 64
    capacity_classes: Sequence[CapacityClass] = DEFAULT_CAPACITY_CLASSES
    seeder_capacity: float = 4.0
    #: Number of seeders ``n_S`` (Table II); each gets the full
    #: ``seeder_capacity``, so total seed bandwidth is ``n_S * u_S``.
    n_seeders: int = 1
    flash_crowd_duration: float = 10.0
    #: "flash" reproduces Section V-A's flash crowd; "poisson" is a
    #: robustness extension with users arriving at ``arrival_rate``/s.
    arrival_process: str = "flash"
    arrival_rate: float = 20.0
    freerider_fraction: float = 0.0
    attack: AttackConfig = field(default_factory=AttackConfig)
    #: Fault-injection layer (transfer loss, crashes, seeder outages,
    #: delayed reports). The default is fully reliable — the paper's
    #: model — and leaves the simulation bit-for-bit unchanged.
    faults: FaultConfig = field(default_factory=FaultConfig)
    strategy_params: StrategyParameters = field(default_factory=StrategyParameters)
    #: Per-round probability that an incomplete user aborts and leaves
    #: (churn; the fluid model's theta). The paper's experiments use 0.
    abort_rate: float = 0.0
    #: Seed lingering: after completing, a user stays and uploads as a
    #: seed, leaving each round with this probability (the fluid
    #: model's gamma). ``None`` reproduces the paper: depart at once.
    seed_linger_rate: Optional[float] = None
    #: Neighbor-view topology: "random" (the default bounded random
    #: views), "ring" (a regular ring lattice), or "smallworld"
    #: (Watts-Strogatz rewiring of the ring) — robustness extensions.
    view_topology: str = "random"
    #: Piece-selection policy: "rarest" is local-rarest-first (the
    #: paper's assumption); "random" picks uniformly among needed
    #: pieces — the classic availability ablation of ref [27].
    piece_selection: str = "rarest"
    #: Record every transfer in ``SimulationMetrics.transfers`` — useful
    #: for per-transfer invariant checks; off by default (memory).
    record_transfers: bool = False
    #: Runtime invariant guards and crash forensics
    #: (:mod:`repro.sim.guards`). Off by default: guards are
    #: observation-only, but the paper's bare simulator stays the
    #: baseline.
    guards: GuardConfig = field(default_factory=GuardConfig)
    #: Streaming observability: event tracer, per-round samplers, span
    #: tracer (:mod:`repro.obs`). Off by default and observation-only
    #: like guards — an instrumented run is digest-identical to a bare
    #: one.
    obs: ObsConfig = field(default_factory=ObsConfig)
    #: Opt-out for the zero-seed-bandwidth sanity check: a swarm whose
    #: only seeders have zero capacity can never distribute anything,
    #: which is almost always a configuration mistake — except in unit
    #: tests that inject pieces by hand.
    allow_unseeded: bool = False
    neighbor_count: int = 40
    max_rounds: int = 600
    seed: int = 0
    sample_interval: int = 1
    #: Round-loop implementation: "object" is the per-peer-object
    #: oracle engine; "vector" is the struct-of-arrays numpy fast path
    #: (:mod:`repro.sim.vector`) that replays the object engine's
    #: draws for byte-identical metrics digests; "vector-fast" is the
    #: batched-sampling engine that draws from its own PCG64 stream
    #: and promises *distributional* equivalence only (digest lineage
    #: ``fast-v1``). The backend is excluded from ``repr`` — sweep
    #: fingerprints, result-cache keys and journals are backend-neutral
    #: for the byte-parity engines, and :func:`digest_lineage` is what
    #: keys the fast lineage apart (see
    #: ``repro.experiments.replicates._config_fingerprint``). Guards,
    #: event tracing, gauge sampling and ``record_transfers`` hook the
    #: object engine's internals, so a config that turns one of them on
    #: must use ``"object"``; any other backend is refused at
    #: construction. Span profiling (``obs.profile``) runs everywhere.
    backend: str = field(repr=False, default="object")
    #: Fluid/event-driven hybrid mode (:mod:`repro.sim.hybrid`,
    #: docs/SCALING.md). ``None`` (default) runs the configured swarm
    #: directly. A positive integer requests a *population* of that
    #: many users simulated as ``n_subswarms`` sampled event-driven
    #: subswarms of ``n_users`` peers each, coupled through the fluid
    #: aggregate and scaled back up by shard weight
    #: (``population / (n_subswarms * n_users)``). Excluded from
    #: ``repr`` so plain-run fingerprints stay byte-stable; hybrid
    #: identity is carried by ``digest_lineage == "hybrid-v1"`` plus
    #: the explicit hybrid tag ``_config_fingerprint`` appends.
    population: Optional[int] = field(repr=False, default=None)
    #: Number of sampled subswarms (K) in hybrid mode; ignored when
    #: ``population`` is None.
    n_subswarms: int = field(repr=False, default=8)
    #: Rounds between fluid<->event-driven exchanges in hybrid mode:
    #: the granularity at which subswarm aggregates (piece
    #: availability, seeder share, credit distribution) are folded
    #: into the fluid reservoir and the conservation ledger is
    #: checked. Ignored when ``population`` is None.
    coupling_interval: int = field(repr=False, default=25)

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", Algorithm.parse(self.algorithm))
        if self.n_users < 2:
            raise ConfigurationError("n_users must be at least 2")
        if self.n_pieces < 1:
            raise ConfigurationError("n_pieces must be at least 1")
        classes = tuple(self.capacity_classes)
        if not classes:
            raise ConfigurationError("capacity_classes must be non-empty")
        total_fraction = sum(c.fraction for c in classes)
        if abs(total_fraction - 1.0) > 1e-9:
            raise ConfigurationError(
                f"capacity class fractions must sum to 1, got {total_fraction}")
        object.__setattr__(self, "capacity_classes", classes)
        if self.seeder_capacity < 0:
            raise ConfigurationError("seeder_capacity must be non-negative")
        if self.n_seeders < 1:
            raise ConfigurationError("n_seeders must be at least 1")
        if not 0.0 <= self.abort_rate < 1.0:
            raise ConfigurationError("abort_rate must lie in [0, 1)")
        if self.seed_linger_rate is not None and not (
                0.0 < self.seed_linger_rate <= 1.0):
            raise ConfigurationError(
                "seed_linger_rate must lie in (0, 1] or be None")
        if self.view_topology not in ("random", "ring", "smallworld"):
            raise ConfigurationError(
                "view_topology must be 'random', 'ring', or 'smallworld'")
        if self.flash_crowd_duration < 0:
            raise ConfigurationError("flash_crowd_duration must be non-negative")
        if self.arrival_process not in ("flash", "poisson"):
            raise ConfigurationError(
                "arrival_process must be 'flash' or 'poisson'")
        if self.piece_selection not in ("rarest", "random"):
            raise ConfigurationError(
                "piece_selection must be 'rarest' or 'random'")
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if not 0.0 <= self.freerider_fraction < 1.0:
            raise ConfigurationError("freerider_fraction must lie in [0, 1)")
        if self.neighbor_count < 1:
            raise ConfigurationError("neighbor_count must be >= 1")
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        if self.sample_interval < 1:
            raise ConfigurationError("sample_interval must be >= 1")
        if self.backend not in ("object", "vector", "vector-fast"):
            raise ConfigurationError(
                "backend must be 'object', 'vector', or 'vector-fast'")
        if self.backend != "object":
            for name, on in (("guards", self.guards.enabled),
                             ("obs.trace", self.obs.trace),
                             ("obs.sample_every", self.obs.sample_every),
                             ("record_transfers", self.record_transfers)):
                if on:
                    raise ConfigurationError(
                        f"{name} is on, and only the object engine "
                        f"implements it; use backend='object' (not "
                        f"'{self.backend}')")
        if self.n_subswarms < 1:
            raise ConfigurationError("n_subswarms must be >= 1")
        if self.coupling_interval < 1:
            raise ConfigurationError("coupling_interval must be >= 1")
        if self.population is not None:
            if self.population < self.n_subswarms * self.n_users:
                raise ConfigurationError(
                    f"population={self.population} is smaller than the "
                    f"sampled mass ({self.n_subswarms} subswarms x "
                    f"{self.n_users} users): shard weights would fall "
                    "below 1. Lower n_subswarms or n_users, or raise "
                    "the population")
            if self.arrival_process != "flash":
                raise ConfigurationError(
                    "hybrid mode models the flash-crowd workload; "
                    "arrival_process must be 'flash' when population "
                    "is set")
            if self.record_transfers:
                raise ConfigurationError(
                    "record_transfers is unsupported in hybrid mode "
                    "(per-transfer logs do not survive shard scaling)")
            if self.obs.enabled:
                raise ConfigurationError(
                    "obs is unsupported in hybrid mode (shard payloads "
                    "are not aggregated)")
        # Cross-field checks: combinations that are individually legal
        # but can only produce a meaningless (or never-ending) run.
        if (self.seeder_capacity == 0.0 and not self.allow_unseeded):
            raise ConfigurationError(
                f"seeder_capacity=0 with {self.n_users} downloaders: the "
                "seeders can never emit a piece, so no user can complete. "
                "Raise seeder_capacity, or set allow_unseeded=True if the "
                "swarm is seeded by other means (e.g. a test injecting "
                "pieces directly)")
        if self.sample_interval > self.max_rounds:
            raise ConfigurationError(
                f"sample_interval={self.sample_interval} exceeds "
                f"max_rounds={self.max_rounds}: no sample would ever be "
                "taken. Lower sample_interval or raise max_rounds")
        if (self.arrival_process == "flash"
                and self.flash_crowd_duration > self.max_rounds):
            raise ConfigurationError(
                f"flash_crowd_duration={self.flash_crowd_duration} exceeds "
                f"max_rounds={self.max_rounds}: part of the flash crowd "
                "would never arrive before the run is cut off")

    @property
    def digest_lineage(self) -> str:
        """Which determinism contract this config's backend promises.

        ``"parity-v1"`` — byte-identical metrics digests across the
        object and vector engines (the original contract). ``"fast-v1"``
        — the batched-sampling engine: same seeded determinism, but
        digests are only comparable to other fast-v1 runs; against
        parity-v1 the guarantee is distributional (KS/CI-overlap, see
        ``tests/integration/test_distributional_parity.py``).
        ``"hybrid-v1"`` — population-scale fluid/event-driven hybrid
        runs (``population`` set): deterministic for a given config
        and seed across any ``--jobs`` count, but only comparable to
        other hybrid-v1 runs of the same shard plan; against full
        event-driven runs the guarantee is the EXPERIMENTS.md shape
        contract (``tests/integration/test_hybrid_parity.py``).
        """
        if self.population is not None:
            return "hybrid-v1"
        return "fast-v1" if self.backend == "vector-fast" else "parity-v1"

    @property
    def n_freeriders(self) -> int:
        return int(round(self.n_users * self.freerider_fraction))

    @property
    def n_compliant(self) -> int:
        return self.n_users - self.n_freeriders

    def with_algorithm(self, algorithm: Algorithm) -> "SimulationConfig":
        """Variant testing a different mechanism (same everything else)."""
        return replace(self, algorithm=Algorithm.parse(algorithm))

    def with_attack(self, attack: AttackConfig,
                    freerider_fraction: Optional[float] = None,
                    ) -> "SimulationConfig":
        """Variant with free-riders running ``attack``."""
        fraction = (self.freerider_fraction if freerider_fraction is None
                    else freerider_fraction)
        return replace(self, attack=attack, freerider_fraction=fraction)

    def with_seed(self, seed: int) -> "SimulationConfig":
        return replace(self, seed=seed)

    def with_faults(self, faults: FaultConfig) -> "SimulationConfig":
        """Variant running under the given fault-injection layer."""
        return replace(self, faults=faults)

    def with_backend(self, backend: str) -> "SimulationConfig":
        """Variant executed by the given round-loop backend."""
        return replace(self, backend=backend)

    def with_population(self, population: Optional[int],
                        n_subswarms: Optional[int] = None,
                        coupling_interval: Optional[int] = None,
                        ) -> "SimulationConfig":
        """Variant run as a fluid/event-driven hybrid at ``population``
        scale (``None`` switches back to a plain run). ``n_users``
        becomes the per-subswarm sample size; see docs/SCALING.md."""
        overrides: Dict[str, Any] = {"population": population}
        if n_subswarms is not None:
            overrides["n_subswarms"] = n_subswarms
        if coupling_interval is not None:
            overrides["coupling_interval"] = coupling_interval
        return replace(self, **overrides)

    def with_guards(self, mode: str = "cheap",
                    **overrides: Any) -> "SimulationConfig":
        """Variant with invariant guards enabled at ``mode``.

        Keyword overrides are applied to the current
        :class:`~repro.sim.guards.GuardConfig`, e.g.
        ``cfg.with_guards("full", check_interval=10)``.
        """
        return replace(self, guards=replace(self.guards, mode=mode,
                                            **overrides))

    def with_obs(self, **fields: Any) -> "SimulationConfig":
        """Variant with the given :class:`~repro.obs.config.ObsConfig`
        fields set and every other one kept, e.g.
        ``cfg.with_obs(profile=True)`` (spans only, which every engine
        runs) or ``cfg.with_obs(trace=True, sample_every=1)``.
        """
        return replace(self, obs=replace(self.obs, **fields))

    # ------------------------------------------------------------------
    # Serialisation (crash bundles / replay)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        data = asdict(self)
        data["algorithm"] = self.algorithm.value
        data["capacity_classes"] = [asdict(c) for c in self.capacity_classes]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Rebuild a config from :meth:`to_dict` output (e.g. a crash
        bundle). Unknown keys are rejected so a stale bundle fails
        loudly instead of silently dropping fields."""
        payload = dict(data)
        payload["capacity_classes"] = tuple(
            CapacityClass(**c) for c in payload.get("capacity_classes", ()))
        for key, factory in (("attack", AttackConfig),
                             ("faults", FaultConfig),
                             ("strategy_params", StrategyParameters),
                             ("guards", GuardConfig),
                             ("obs", ObsConfig)):
            value = payload.get(key)
            if isinstance(value, Mapping):
                payload[key] = factory(**value)
        return cls(**payload)
