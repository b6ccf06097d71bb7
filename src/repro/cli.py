"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``
    Print Tables I-III and the Figure 2/3 rankings (analytical; fast).
``figure4`` / ``figure5`` / ``figure6``
    Run the corresponding simulation sweep and print its summary table,
    headed by an ``engine:`` line naming the backend and digest lineage
    of the runs (the scenario presets run on ``vector``).
``run``
    Run a single simulation and print (or export) its metrics, headed
    by how the run ended: ``termination`` is ``complete``, ``cap``
    (the round cap cut it off while something could still happen) or
    ``stalled`` (nothing more could happen), with ``n_stuck`` the
    incomplete compliant peers left in the swarm.
    ``--loss-rate``/``--crash-hazard``/... inject faults.
    ``--guards {cheap,full}`` enables runtime invariant checks; guard
    failures exit 3 (with a crash-bundle path on stderr).
``sweep``
    Crash-safe replicated sweep on a persistent worker pool
    (``--jobs``): crash isolation, per-replicate timeouts, bounded
    retry with reseeding, a resumable checkpoint journal, and
    sweep telemetry; each replicate line says how its run ended.
    ``--cache-dir`` fetches/persists finished
    replicates in a content-addressed result cache (``--cache-strict``
    makes a corrupt entry fatal). ``--sample-every N`` ships each
    replicate's gauge series home through the telemetry channel;
    ``--trace-out`` renders them as one Chrome trace (one Perfetto
    process per seed).
``trace``
    Run one fully-instrumented simulation (tracer + samplers +
    spans all on) and print its self-profile table, sparkline
    dashboard, and trace-ring statistics; ``--trace-out`` writes the
    Chrome ``trace_event`` JSON, loadable in Perfetto.
``report``
    The full reproduction report: all tables plus all three sweeps,
    whose tables follow the same ``engine:`` line.

``run``/``sweep``/``trace`` share the observability flags (``--trace``,
``--sample-every``, ``--profile``, ``--sample-rate CAT=N``,
``--trace-out``); observability is strictly observation-only, so
enabling any of it never changes a run's metrics (see
docs/OBSERVABILITY.md).

Examples
--------
::

    python -m repro tables
    python -m repro run --algorithm tchain --users 200 --pieces 64
    python -m repro run --algorithm altruism --freeriders 0.2 --json out.json
    python -m repro run --algorithm bittorrent --loss-rate 0.2
    python -m repro run --algorithm tchain --guards full --bundle-dir ./bundles
    python -m repro run --algorithm tchain --trace --trace-out run.trace.json
    python -m repro sweep --algorithm tchain --replicates 5 \
        --journal sweep.jsonl --timeout 120 --jobs 4
    python -m repro sweep --algorithm tchain --sample-every 5 \
        --trace-out sweep.trace.json
    python -m repro sweep --algorithm tchain --replicates 20 \
        --cache-dir ./sweep-cache
    python -m repro trace --algorithm bittorrent --freeriders 0.2
    python -m repro figure5 --scale smoke --seed 7
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.errors import (ConfigurationError, InvariantViolationError,
                          SimulationError)
from repro.experiments import figures, report, scenarios
from repro.experiments.cache import CacheCorruptionError
from repro.experiments.export import result_to_json, summary_dict
from repro.experiments.replicates import run_resilient_sweep
from repro.names import EXTENDED_ALGORITHMS, Algorithm
from repro.obs import (SeriesStore, sweep_series_to_chrome_trace,
                       to_chrome_trace, to_jsonl)
from repro.sim import (FaultConfig, Simulation, SimulationConfig,
                       targeted_attack_for)
from repro.sim.runner import build_engine

__all__ = ["main", "build_parser"]

_SCALES = {
    "paper": scenarios.paper_scale,
    "default": scenarios.default_scale,
    "smoke": scenarios.smoke_scale,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Performance Analysis of Incentive "
                    "Mechanisms for Cooperative Computing' (ICDCS 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I-III and Fig. 2/3 rankings")

    for name in ("figure4", "figure5", "figure6"):
        fig = sub.add_parser(name, help=f"run the {name} simulation sweep")
        fig.add_argument("--scale", choices=sorted(_SCALES), default="default")
        fig.add_argument("--seed", type=int, default=0)
        fig.add_argument("--plot", action="store_true",
                         help="render the figure panels as text charts")
        fig.add_argument("--processes", type=int, default=1,
                         help="parallel worker processes for the sweep")

    rep = sub.add_parser("report", help="full reproduction report")
    rep.add_argument("--scale", choices=sorted(_SCALES), default="default")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--no-figures", action="store_true",
                     help="analytical tables only")

    run = sub.add_parser("run", help="run one simulation")
    run.add_argument("--algorithm", required=True,
                     choices=[a.value for a in EXTENDED_ALGORITHMS])
    run.add_argument("--users", type=int, default=200)
    run.add_argument("--pieces", type=int, default=64)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--freeriders", type=float, default=0.0,
                     help="free-rider fraction (targeted attacks applied)")
    run.add_argument("--large-view", action="store_true",
                     help="free-riders use the large-view exploit")
    run.add_argument("--arrivals", choices=["flash", "poisson"],
                     default="flash")
    run.add_argument("--max-rounds", type=int, default=600)
    run.add_argument("--backend", choices=["object", "vector", "vector-fast"],
                     default="object",
                     help="round-loop engine; 'vector' is the batched "
                          "struct-of-arrays fast path with byte-identical "
                          "metrics, 'vector-fast' its batched-sampling "
                          "fast-v1 lineage (distributionally equivalent, "
                          "not draw-exact); --guards and the observability "
                          "flags need 'object'")
    hybrid = run.add_argument_group(
        "population-scale hybrid (repro.sim.hybrid, docs/SCALING.md)")
    hybrid.add_argument("--population", type=int, default=None,
                        help="simulate this many users as a fluid/"
                             "event-driven hybrid: --users becomes the "
                             "per-subswarm sample size and results are "
                             "scaled up by shard weight (hybrid-v1 "
                             "lineage)")
    hybrid.add_argument("--subswarms", type=int, default=None, metavar="K",
                        help="number of sampled event-driven subswarms "
                             "(default 8; requires --population)")
    hybrid.add_argument("--coupling-interval", type=int, default=None,
                        metavar="ROUNDS",
                        help="rounds between fluid<->event couplings "
                             "(default 25; requires --population)")
    hybrid.add_argument("--jobs", type=int, default=None,
                        help="worker processes for concurrent subswarms "
                             "(default: run them sequentially in-process; "
                             "results are identical for any value)")
    run.add_argument("--json", metavar="PATH",
                     help="write full result JSON to PATH ('-' for stdout)")
    _add_fault_arguments(run)
    _add_guard_arguments(run)
    _add_obs_arguments(
        run, trace_out_help="write the traced events and sampled series "
                            "as Chrome trace_event JSON (open in Perfetto); "
                            "implies --trace")

    sweep = sub.add_parser(
        "sweep", help="crash-safe replicated sweep with checkpoint/resume")
    sweep.add_argument("--algorithm", required=True,
                       choices=[a.value for a in EXTENDED_ALGORITHMS])
    sweep.add_argument("--scale", choices=sorted(_SCALES), default="default")
    sweep.add_argument("--replicates", type=int, default=5,
                       help="number of seeds (0..N-1 offset by --seed)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="first replicate seed")
    sweep.add_argument("--freeriders", type=float, default=0.0,
                       help="free-rider fraction (targeted attacks applied)")
    sweep.add_argument("--backend",
                       choices=["object", "vector", "vector-fast"],
                       default="object",
                       help="round-loop engine used by every replicate; "
                            "'vector' is digest-identical to 'object', "
                            "'vector-fast' trades draw-parity for speed "
                            "(fast-v1 lineage, separate journal/cache "
                            "identity); --guards and the observability "
                            "flags need 'object'")
    sweep.add_argument("--journal", metavar="PATH",
                       help="checkpoint journal (JSON lines); rerunning "
                            "with the same path resumes the sweep")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="wall-clock seconds allowed per replicate")
    sweep.add_argument("--max-attempts", type=int, default=3,
                       help="tries per replicate before recording a failure")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="persistent worker processes (default: "
                            "usable CPU count minus one); results are "
                            "identical for any value")
    sweep_hybrid = sweep.add_argument_group(
        "population-scale hybrid (repro.sim.hybrid, docs/SCALING.md)")
    sweep_hybrid.add_argument("--population", type=int, default=None,
                              help="run every replicate as a fluid/"
                                   "event-driven hybrid at this "
                                   "population (the scale's n_users "
                                   "becomes the subswarm size; hybrid-v1 "
                                   "lineage keys the journal/cache)")
    sweep_hybrid.add_argument("--subswarms", type=int, default=None,
                              metavar="K",
                              help="sampled subswarms per replicate "
                                   "(default 8; requires --population)")
    sweep_hybrid.add_argument("--coupling-interval", type=int, default=None,
                              metavar="ROUNDS",
                              help="rounds between fluid<->event couplings "
                                   "(default 25; requires --population)")
    cache = sweep.add_argument_group("result cache")
    cache.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="content-addressed result cache: finished "
                            "replicates are persisted and fetched on "
                            "overlapping re-runs (digest-identical)")
    cache.add_argument("--cache-strict", action="store_true",
                       help="treat a corrupt cache entry as fatal "
                            "(exit 6) instead of a cache miss; needs "
                            "--cache-dir")
    _add_fault_arguments(sweep)
    _add_guard_arguments(sweep)
    _add_obs_arguments(
        sweep, trace_out_help="render every replicate's sampled series "
                              "(shipped home via the telemetry channel; "
                              "needs --sample-every) as one Chrome trace, "
                              "one Perfetto process per seed")

    trace = sub.add_parser(
        "trace", help="run one fully-instrumented simulation and print "
                      "its self-profile, dashboard, and trace statistics")
    trace.add_argument("--algorithm", default=Algorithm.TCHAIN.value,
                       choices=[a.value for a in EXTENDED_ALGORITHMS])
    trace.add_argument("--users", type=int, default=60)
    trace.add_argument("--pieces", type=int, default=32)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--freeriders", type=float, default=0.0,
                       help="free-rider fraction (targeted attacks applied)")
    trace.add_argument("--max-rounds", type=int, default=200)
    trace.add_argument("--sample-every", type=int, default=1, metavar="N",
                       help="sample the gauge catalogue every N rounds")
    trace.add_argument("--sample-rate", action="append", default=None,
                       metavar="CAT=N",
                       help="keep 1 in N traced events of category CAT "
                            "(repeatable; categories: transfer, choke, "
                            "reputation, bootstrap, completion, fault)")
    trace.add_argument("--buffer", type=int, default=None, metavar="EVENTS",
                       help="trace ring-buffer capacity (default 65536)")
    trace.add_argument("--trace-out", metavar="PATH",
                       help="write Chrome trace_event JSON to PATH "
                            "(open in Perfetto)")
    trace.add_argument("--jsonl-out", metavar="PATH",
                       help="write traced events as JSON lines to PATH")
    return parser


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fault injection")
    group.add_argument("--loss-rate", type=float, default=0.0,
                       help="probability each transfer is lost in flight")
    group.add_argument("--crash-hazard", type=float, default=0.0,
                       help="per-round crash probability per active user")
    group.add_argument("--seeder-outage-rate", type=float, default=0.0,
                       help="per-round transient-outage probability "
                            "per seeder")
    group.add_argument("--seeder-outage-duration", type=int, default=None,
                       help="rounds each seeder outage lasts (default 5)")
    group.add_argument("--report-delay", type=int, default=0,
                       help="rounds reputation reports are delayed")
    group.add_argument("--obligation-expiry", type=int, default=None,
                       help="rounds before a pending encrypted piece "
                            "whose key never arrived is dropped")


def _add_guard_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("runtime guards")
    group.add_argument("--guards", choices=["off", "cheap", "full"],
                       default="off",
                       help="invariant checking: 'cheap' samples the "
                            "heavy checks, 'full' runs every check "
                            "every round")
    group.add_argument("--bundle-dir", metavar="DIR", default=None,
                       help="directory for crash-forensics bundles "
                            "(default ./crash-bundles)")


def _apply_guards(config: SimulationConfig,
                  args: argparse.Namespace) -> SimulationConfig:
    if args.guards == "off":
        return config
    overrides = {}
    if args.bundle_dir is not None:
        overrides["bundle_dir"] = args.bundle_dir
    return config.with_guards(args.guards, **overrides)


def _add_obs_arguments(parser: argparse.ArgumentParser,
                       trace_out_help: str) -> None:
    group = parser.add_argument_group("observability (observation-only: "
                                      "never changes metrics)")
    group.add_argument("--trace", action="store_true",
                       help="record events (transfers, choke decisions, "
                            "reputation movements, bootstraps, completions, "
                            "faults) in a bounded ring buffer")
    group.add_argument("--sample-every", type=int, default=0, metavar="N",
                       help="sample the per-round gauge catalogue every "
                            "N rounds (0 disables)")
    group.add_argument("--profile", action="store_true",
                       help="time round phases, kernels or strategies and "
                            "guard passes (the one obs flag every backend "
                            "accepts)")
    group.add_argument("--sample-rate", action="append", default=None,
                       metavar="CAT=N",
                       help="keep 1 in N traced events of category CAT "
                            "(repeatable); implies --trace")
    group.add_argument("--trace-out", metavar="PATH", help=trace_out_help)


def _parse_sample_rates(items) -> tuple:
    rates = []
    for item in items or ():
        category, sep, value = item.partition("=")
        try:
            rate = int(value)
        except ValueError:
            rate = -1
        if not sep or rate < 1:
            raise ConfigurationError(
                f"--sample-rate expects CATEGORY=N with N >= 1, "
                f"got {item!r}")
        rates.append((category.strip(), rate))
    return tuple(rates)


def _apply_obs(config: SimulationConfig,
               args: argparse.Namespace) -> SimulationConfig:
    """Enable the observability layer when any of its flags were used.

    May raise :class:`ConfigurationError` (unknown category, bad rate);
    :func:`main` translates that into exit code 2.
    """
    rates = _parse_sample_rates(args.sample_rate)
    trace = bool(args.trace or args.trace_out or rates)
    if not (trace or args.profile or args.sample_every > 0):
        return config
    overrides = {"trace_sample_rates": rates} if rates else {}
    return config.with_obs(trace=trace, sample_every=args.sample_every,
                           profile=args.profile, **overrides)


def _export_run_trace(sim: Simulation, path: Optional[str],
                      label: str, prefix: str) -> None:
    """Write a run's Chrome trace (events + series) to ``path``."""
    if not path:
        return
    obs = sim.obs
    events = (obs.tracer.events()
              if obs is not None and obs.tracer is not None else [])
    series = obs.series if obs is not None else None
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_chrome_trace(events, series, label=label))
    print(f"{prefix}: wrote Chrome trace to {path} "
          "(open in https://ui.perfetto.dev)")


def _fault_config(args: argparse.Namespace) -> FaultConfig:
    kwargs = {}
    if args.seeder_outage_duration is not None:
        kwargs["seeder_outage_duration"] = args.seeder_outage_duration
    return FaultConfig(
        transfer_loss_rate=args.loss_rate,
        crash_hazard=args.crash_hazard,
        seeder_outage_rate=args.seeder_outage_rate,
        report_delay_rounds=args.report_delay,
        obligation_expiry_rounds=args.obligation_expiry,
        **kwargs,
    )


def _print_summary(result) -> None:
    for key, value in summary_dict(result).items():
        print(f"  {key:24s} {value}")


def _cmd_run(args: argparse.Namespace) -> int:
    algorithm = Algorithm.parse(args.algorithm)
    config = SimulationConfig(
        algorithm=algorithm,
        n_users=args.users,
        n_pieces=args.pieces,
        seed=args.seed,
        freerider_fraction=args.freeriders,
        attack=targeted_attack_for(algorithm, large_view=args.large_view),
        arrival_process=args.arrivals,
        max_rounds=args.max_rounds,
        backend=args.backend,
    )
    faults = _fault_config(args)
    if faults.enabled:
        config = config.with_faults(faults)
    config = _apply_guards(config, args)
    config = _apply_obs(config, args)
    for flag, value in (("--subswarms", args.subswarms),
                        ("--coupling-interval", args.coupling_interval),
                        ("--jobs", args.jobs)):
        if value is not None and args.population is None:
            print(f"run: {flag} requires --population", file=sys.stderr)
            return 2
    if args.population is not None:
        config = config.with_population(
            args.population, n_subswarms=args.subswarms,
            coupling_interval=args.coupling_interval)
    sim = None
    try:
        if config.population is not None:
            from repro.sim.hybrid import run_hybrid_simulation
            result = run_hybrid_simulation(config, jobs=args.jobs)
        else:
            # Hold the engine so the observability runtime is still
            # reachable for export afterwards.
            sim = build_engine(config)
            result = sim.run()
    except InvariantViolationError as exc:
        print(f"run: invariant violation: {exc}", file=sys.stderr)
        if exc.bundle_path:
            print(f"run: crash bundle written to {exc.bundle_path}",
                  file=sys.stderr)
        return 3
    except SimulationError as exc:
        # Hybrid-engine failures: a subswarm died in its worker, or the
        # population-conservation ledger refused to balance.
        print(f"run: {exc}", file=sys.stderr)
        return 3
    if args.json:
        payload = result_to_json(result)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload)
            print(f"wrote {args.json}")
    else:
        if config.population is not None:
            metrics = result.metrics
            print(f"{algorithm.display_name}: population "
                  f"{metrics.population} as {metrics.n_subswarms} subswarms "
                  f"x {metrics.subswarm_size} users (shard weight "
                  f"{metrics.shard_weight:g}), seed {args.seed}")
        else:
            print(f"{algorithm.display_name}: {args.users} users, "
                  f"{args.pieces} pieces, seed {args.seed}")
        _print_summary(result)
        if config.population is not None:
            metrics = result.metrics
            print(f"  {'population_completed':24s} "
                  f"{metrics.population_completed():.0f}")
            print(f"  {'fluid_residual':24s} {metrics.fluid_residual:.4f}")
        elif sim.obs is not None and sim.obs.spans is not None:
            print()
            print(sim.obs.spans.table())
    if sim is not None:
        _export_run_trace(sim, args.trace_out,
                          label=f"repro run {algorithm.value}", prefix="run")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    algorithm = Algorithm.parse(args.algorithm)
    config = _SCALES[args.scale](algorithm, seed=args.seed)
    config = replace(
        config,
        freerider_fraction=args.freeriders,
        attack=targeted_attack_for(algorithm),
    )
    config = config.with_backend(args.backend)
    faults = _fault_config(args)
    if faults.enabled:
        config = config.with_faults(faults)
    config = _apply_guards(config, args)
    config = _apply_obs(config, args)
    for flag, value in (("--subswarms", args.subswarms),
                        ("--coupling-interval", args.coupling_interval)):
        if value is not None and args.population is None:
            print(f"sweep: {flag} requires --population", file=sys.stderr)
            return 2
    if args.population is not None:
        config = config.with_population(
            args.population, n_subswarms=args.subswarms,
            coupling_interval=args.coupling_interval)
    for problem, bad in (
            ("--replicates must be >= 1", args.replicates < 1),
            ("--jobs must be >= 1", args.jobs is not None and args.jobs < 1),
            ("--max-attempts must be >= 1", args.max_attempts < 1),
            ("--timeout must be > 0",
             args.timeout is not None and args.timeout <= 0)):
        if bad:
            print(f"sweep: {problem}", file=sys.stderr)
            return 2
    if args.trace_out and args.sample_every <= 0:
        print("sweep: --trace-out needs --sample-every N (raw trace "
              "events never cross worker pipes; only sampled series do)",
              file=sys.stderr)
        return 2
    if args.cache_strict and args.cache_dir is None:
        print("sweep: --cache-strict needs --cache-dir DIR",
              file=sys.stderr)
        return 2
    seeds = tuple(range(args.seed, args.seed + args.replicates))
    try:
        result = run_resilient_sweep(
            config, seeds,
            journal_path=args.journal,
            timeout=args.timeout,
            max_attempts=args.max_attempts,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            cache_strict=args.cache_strict,
        )
    except CacheCorruptionError as exc:
        print(f"sweep: result cache corrupt: {exc}", file=sys.stderr)
        print("sweep: delete the entry (or the cache directory) to "
              "recompute, or drop --cache-strict to treat corruption "
              "as a miss", file=sys.stderr)
        return 6
    print(f"{algorithm.display_name}: {len(seeds)} replicates "
          f"({result.resumed} resumed, {result.cached} cached, "
          f"{result.n_failed} failed)")
    for outcome in result.outcomes:
        status = outcome.status
        if outcome.termination is not None:
            status += f" ({outcome.termination}, {outcome.n_stuck} stuck)"
        if outcome.attempts > 1:
            status += f" after {outcome.attempts} attempts"
        timing = ""
        if outcome.telemetry:
            timing = (f"  [worker {outcome.telemetry.get('worker')}, "
                      f"{outcome.telemetry.get('wall_s', 0.0):.2f}s run, "
                      f"{outcome.telemetry.get('queue_wait_s', 0.0):.2f}s "
                      "queued]")
        print(f"  seed {outcome.seed:5d}  {status}{timing}")
        if outcome.bundle_path:
            print(f"             bundle: {outcome.bundle_path}")
    if args.trace_out:
        series_by_seed = {}
        for outcome in result.outcomes:
            compact = ((outcome.telemetry or {}).get("obs") or {}
                       ).get("series")
            if compact:
                series_by_seed[outcome.seed] = SeriesStore.from_compact(
                    compact)
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(sweep_series_to_chrome_trace(
                series_by_seed,
                label=f"repro sweep {algorithm.value}"))
        print(f"sweep: wrote Chrome trace ({len(series_by_seed)} "
              f"replicate series) to {args.trace_out}")
    engine = result.telemetry
    if engine:
        print(f"engine: {engine.get('jobs', 0)} workers "
              f"({engine.get('start_method', '?')}), "
              f"{engine.get('wall_s', 0.0):.2f}s wall, "
              f"{100.0 * engine.get('utilization', 0.0):.0f}% utilized, "
              f"{engine.get('worker_crashes', 0)} crashes, "
              f"{engine.get('timeouts', 0)} timeouts")
        cache_stats = engine.get("cache")
        if cache_stats:
            print(f"cache: {cache_stats.get('hits', 0)} hits, "
                  f"{cache_stats.get('misses', 0)} misses, "
                  f"{cache_stats.get('stores', 0)} stores, "
                  f"{cache_stats.get('corrupt', 0)} corrupt")
    print()
    header = f"{'metric':28s} {'mean':>12s} {'std':>10s} {'n':>3s} {'miss':>4s}"
    print(header)
    for summary in result.metrics.values():
        print(f"{summary.name:28s} {summary.mean:12.4f} "
              f"{summary.std:10.4f} {summary.n:3d} {summary.n_missing:4d}")
    if result.n_failed:
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    algorithm = Algorithm.parse(args.algorithm)
    overrides = {}
    if args.buffer is not None:
        overrides["trace_buffer"] = args.buffer
    rates = _parse_sample_rates(args.sample_rate)
    if rates:
        overrides["trace_sample_rates"] = rates
    config = SimulationConfig(
        algorithm=algorithm,
        n_users=args.users,
        n_pieces=args.pieces,
        seed=args.seed,
        freerider_fraction=args.freeriders,
        attack=targeted_attack_for(algorithm),
        max_rounds=args.max_rounds,
    ).with_obs(trace=True, sample_every=args.sample_every,
               profile=True, **overrides)
    sim = Simulation(config)
    try:
        sim.run()
    except InvariantViolationError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 3
    obs = sim.obs
    print(f"{algorithm.display_name}: {args.users} users, "
          f"{args.pieces} pieces, seed {args.seed} — fully instrumented")
    print()
    print(obs.spans.table())
    if obs.series is not None and obs.series.names():
        print()
        print(obs.series.dashboard())
    summary = obs.tracer.summary()
    print()
    print(f"trace ring: {summary['retained']} retained, "
          f"{summary['evicted']} evicted "
          f"(capacity {summary['capacity']})")
    for category, counts in sorted(summary["counts"].items()):
        print(f"  {category:12s} seen {counts['seen']:7d}   "
              f"kept {counts['kept']:7d}   "
              f"sampled out {counts['sampled_out']:7d}")
    if args.trace_out:
        _export_run_trace(sim, args.trace_out,
                          label=f"repro trace {algorithm.value}",
                          prefix="trace")
    if args.jsonl_out:
        with open(args.jsonl_out, "w", encoding="utf-8") as handle:
            handle.write(to_jsonl(obs.tracer.events()))
        print(f"trace: wrote event JSONL to {args.jsonl_out}")
    return 0


def _cmd_tables(_args: argparse.Namespace) -> int:
    print(report.full_report(include_figures=False))
    return 0


def _cmd_figure(args: argparse.Namespace, which: str) -> int:
    base = _SCALES[args.scale](seed=args.seed)
    runner = getattr(figures, which)
    result = runner(base, processes=args.processes)
    print(figures.engine_line(result.results.values()))
    print(result.to_text())
    if args.plot:
        print()
        print(result.to_charts())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    base = _SCALES[args.scale](seed=args.seed)
    print(report.full_report(base, include_figures=not args.no_figures))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "tables":
            return _cmd_tables(args)
        if args.command in ("figure4", "figure5", "figure6"):
            return _cmd_figure(args, args.command)
        if args.command == "report":
            return _cmd_report(args)
    except ConfigurationError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
