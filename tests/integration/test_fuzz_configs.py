"""Property-based fuzzing: invariants hold for arbitrary configurations.

Hypothesis generates random (small) swarm configurations — algorithm,
population, file size, capacities, free-rider share, attack flags,
arrival process — and asserts the invariants that must survive any of
them: conservation, bounded downloads, free-rider abstinence, monotone
series, an honest end-of-run verdict, and determinism of the run under
its seed.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.names import EXTENDED_ALGORITHMS
from repro.sim import AttackConfig, CapacityClass, SimulationConfig
from repro.sim.metrics import metrics_digest
from repro.sim.runner import run_simulation


@st.composite
def sim_configs(draw):
    algorithm = draw(st.sampled_from(EXTENDED_ALGORITHMS))
    n_users = draw(st.integers(10, 40))
    n_pieces = draw(st.integers(4, 20))
    freerider_fraction = draw(st.sampled_from([0.0, 0.2, 0.4]))
    attack = AttackConfig(
        collusion=draw(st.booleans()),
        whitewash_interval=draw(st.sampled_from([None, 10])),
        false_praise=draw(st.booleans()),
        large_view=draw(st.booleans()),
    )
    fast_fraction = draw(st.floats(min_value=0.1, max_value=0.9))
    classes = (
        CapacityClass(fast_fraction, draw(st.sampled_from([2.0, 4.0]))),
        CapacityClass(1.0 - fast_fraction,
                      draw(st.sampled_from([0.5, 1.0]))),
    )
    arrival = draw(st.sampled_from(["flash", "poisson"]))
    return SimulationConfig(
        algorithm=algorithm,
        n_users=n_users,
        n_pieces=n_pieces,
        capacity_classes=classes,
        seeder_capacity=draw(st.sampled_from([0.5, 2.0])),
        flash_crowd_duration=draw(st.sampled_from([0.0, 5.0])),
        arrival_process=arrival,
        arrival_rate=5.0,
        freerider_fraction=freerider_fraction,
        attack=attack,
        neighbor_count=draw(st.integers(3, 20)),
        max_rounds=120,
        seed=draw(st.integers(0, 10_000)),
    )


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sim_configs())
def test_invariants_for_arbitrary_configs(config):
    result = run_simulation(config)
    metrics = result.metrics

    # Eq. 1 as a ledger identity.
    assert result.conservation_holds()

    # Per-peer sanity.
    assert len(metrics.peers) == config.n_users
    for peer in metrics.peers:
        assert 0 <= peer.downloaded <= config.n_pieces
        assert peer.uploaded >= 0
        if peer.is_freerider:
            assert peer.uploaded == 0
        if peer.completion_time is not None:
            assert peer.bootstrap_time is not None
            assert peer.arrival_time <= peer.completion_time

    # Series sanity.
    boot_fractions = [s.bootstrapped_fraction for s in metrics.samples]
    assert all(0.0 <= f <= 1.0 for f in boot_fractions)
    assert boot_fractions == sorted(boot_fractions)
    assert 0.0 <= metrics.susceptibility() <= 1.0

    # Susceptibility requires free-riders.
    if config.n_freeriders == 0:
        assert metrics.susceptibility() == 0.0

    # Every run says how it ended, and the verdict matches who is left.
    assert metrics.termination in ("complete", "cap", "stalled")
    if metrics.termination == "complete":
        assert metrics.n_stuck == 0
    if metrics.termination == "stalled":
        assert metrics.n_stuck > 0


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sim_configs())
def test_determinism_for_arbitrary_configs(config):
    first = run_simulation(config).metrics
    second = run_simulation(config).metrics
    assert first.total_uploaded == second.total_uploaded
    assert first.completion_times() == second.completion_times()
    assert first.susceptibility() == second.susceptibility()

_BACKEND_EXAMPLES = int(os.environ.get("BACKEND_FUZZ_EXAMPLES", "15"))


@settings(max_examples=_BACKEND_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sim_configs())
def test_vector_backend_digest_parity_for_arbitrary_configs(config):
    """The struct-of-arrays backend must be byte-identical to the
    object engine for every configuration it supports — arbitrary
    algorithm, attack mix, capacities, and arrival process."""
    object_metrics = run_simulation(config).metrics
    vector_metrics = run_simulation(config.with_backend("vector")).metrics
    assert metrics_digest(object_metrics) == metrics_digest(vector_metrics)
    # The verdict is outside the digest, so it is compared on its own.
    assert (object_metrics.termination, object_metrics.n_stuck) == \
        (vector_metrics.termination, vector_metrics.n_stuck)


# Guard fuzz: arbitrary configurations must produce ZERO invariant
# violations under full guards, and guards must never perturb the
# physics (identical digests with and without them). CI's quick mode
# shrinks the example budget via GUARD_FUZZ_EXAMPLES.
_GUARD_EXAMPLES = int(os.environ.get("GUARD_FUZZ_EXAMPLES", "15"))


@settings(max_examples=_GUARD_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sim_configs())
def test_guards_full_zero_violations_and_digest_stable(config):
    bare = run_simulation(config).metrics
    guarded = run_simulation(config.with_guards("full")).metrics  # raises
    assert metrics_digest(bare) == metrics_digest(guarded)
    assert guarded.termination == bare.termination
