#!/usr/bin/env python3
"""Watch a flash crowd from the inside with the observability layer.

Runs a 150-peer flash crowd (20% free-riders) under T-Chain with every
instrument in :mod:`repro.obs` switched on — event tracing, per-round
gauge sampling, span profiling — and narrates the run from what they
recorded:

* **availability entropy** dipping as the piece-poor crowd floods in,
  then climbing as rarest-first spreads piece variety;
* **bootstrap waits** stretching while the crowd outruns the seeder;
* **free-rider intake** pinned near zero as T-Chain's indirect
  reciprocity locks the free-riders out;
* the **self-profile**: where the simulator's own wall-clock went,
  ranked by each span's self time (round loop, each strategy kind,
  each round phase, metric and gauge sampling).

Because the layer is observation-only, this instrumented run produces
the byte-identical metrics digest of the same seed uninstrumented
(docs/OBSERVABILITY.md explains the contract). The script finishes by
writing a Chrome trace you can open in https://ui.perfetto.dev.

Run:  PYTHONPATH=src python examples/trace_flash_crowd.py
"""

from repro.names import Algorithm
from repro.obs import to_chrome_trace
from repro.sim import Simulation, SimulationConfig

TRACE_PATH = "flash_crowd_trace.json"


def main() -> None:
    config = SimulationConfig(
        algorithm=Algorithm.TCHAIN,
        n_users=150,
        n_pieces=48,
        freerider_fraction=0.2,
        flash_crowd_duration=8.0,
        seed=7,
    ).with_obs(
        trace=True,
        # Transfers are the hot category; 1-in-8 sampling keeps the
        # ring representative without drowning out rare events.
        trace_sample_rates=(("transfer", 8),),
        sample_every=2,
        profile=True,
    )
    print(f"Running {config.algorithm.display_name}: {config.n_users} "
          f"users ({config.n_freeriders} free-riders), "
          f"{config.n_pieces} pieces, fully instrumented ...\n")
    sim = Simulation(config)
    result = sim.run()
    obs = sim.obs
    assert obs is not None and obs.series is not None

    # --- The swarm's shape over time, straight from the gauge store.
    print("Gauge dashboard (one sparkline per sampled series):")
    print(obs.series.dashboard(names=[
        "availability_entropy", "progress_p50", "active_peers",
        "active_freeriders", "freerider_intake"]))

    entropy_col = [v for v in obs.series.column("availability_entropy")
                   if v == v]
    print(f"\navailability entropy: dips to {min(entropy_col):.2f} bits "
          f"as the piece-poor crowd floods in, then rarest-first lifts "
          f"it to {max(entropy_col):.2f} bits")

    # --- What the event ring caught.
    assert obs.tracer is not None
    boots = obs.tracer.events("bootstrap")
    waits = [event.fields["wait"] for event in boots]
    if waits:
        print(f"bootstraps traced: {len(boots)}; first-piece wait "
              f"{min(waits):.1f}s best, {max(waits):.1f}s worst "
              f"(the crowd outruns the seeder)")
    summary = obs.tracer.summary()
    print(f"trace ring: {summary['retained']} events retained, "
          f"{summary['evicted']} evicted "
          f"(transfers sampled 1-in-{config.obs.rate_for('transfer')})")

    # --- Outcome + the self-profile.
    m = result.metrics
    print(f"\ncompliant completions: {m.completion_fraction():.0%}; "
          f"final fairness {m.final_fairness():.3f}")
    assert obs.spans is not None
    print()
    print(obs.spans.table())

    # --- Export for Perfetto.
    with open(TRACE_PATH, "w", encoding="utf-8") as handle:
        handle.write(to_chrome_trace(obs.tracer.events(), obs.series,
                                     label="flash crowd (T-Chain)"))
    print(f"\nwrote {TRACE_PATH} — open it in https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
