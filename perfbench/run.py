"""One benchmark for the simulator: four workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flash-crowd --seed 1 \
        --seconds 30 --trace 0

Workloads: ``flash-crowd``, ``figures``, ``fault-sweep``, ``hybrid-1m``
(see ``perfbench/workloads.py`` for what each runs and why). The inputs
are generated from ``--seed`` alone. Each run is a closed loop of
*passes*: one pass is the workload's whole unit of work, and a new pass
starts only while it is expected to end within ``--seconds`` (at least
one pass always runs). Every pass's outputs are checked outside the
timed region and must reproduce the first pass's outputs digest.

``--trace 0`` reports the end-to-end metrics, medians over the passes:

* ``wall_s`` - host seconds of one pass;
* ``cpu_s`` - user + system CPU seconds of this process and its reaped
  worker processes over that pass;
* ``peak_rss_mb`` - peak resident set of this process or any worker;
* ``setup_s`` - median over separate probe processes of the time from
  process launch until the workload is ready to run (imports and input
  generation).

Beside them the run prints ``speed_probe_s``, the median time of a
fixed pure-Python loop (no simulator code) timed before and between
the passes. It is a host fact, not a metric: the reference host, a
shared 2-vCPU VM, has run the same passes up to 1.7 times faster at one
hour than at another, so compare runs made close together (alternate
the two sides of a comparison) and read the probe when they were not.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``perfbench/layers.py`` (medians over traced
passes), ``trace.overhead_s`` (traced minus untraced ``wall_s``) and
``ops_failed_frac``; the kept spans are written to
``.perfbench_out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, the host facts and the
outputs digest. Exits non-zero without a result when the checkout has
no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Probe processes timed for ``setup_s``.
SETUP_PROBES = 3

#: Loop length of the host-speed probe (0.2-0.45 s on the reference host).
PROBE_ITERATIONS = 1_000_000

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def _use_checkout() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: {SRC} holds no repro package to "
                         "benchmark")
    sys.path[:0] = [ROOT, SRC]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("flash-crowd", "figures", "fault-sweep",
                                 "hybrid-1m"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the smoke tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe_setup(args) -> float:
    """Seconds from launching a fresh interpreter until it has imported
    the simulator and generated the workload's inputs."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", args.scale]
    launched = time.time()
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.split()[-1]) - launched


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Pass:
    """One timed pass of the workload and its checked outputs."""

    def __init__(self, workload, traced: bool, tmp: str) -> None:
        from perfbench.layers import layer_metrics
        from perfbench.tracing import (NullTracer, Tracer, capture_run_tasks,
                                       install_layers)

        self.traced = traced
        tracer = Tracer() if traced else NullTracer()
        reports = []
        workdir = tempfile.mkdtemp(dir=tmp)
        gc.collect()
        try:
            with capture_run_tasks(reports):
                if traced:
                    install_layers(tracer)
                try:
                    cpu0 = _cpu_seconds()
                    start = time.perf_counter()
                    raw = workload.run(tracer, reports, workdir)
                    self.wall_s = time.perf_counter() - start
                    self.cpu_s = _cpu_seconds() - cpu0
                finally:
                    tracer.restore()
            self.out = workload.check(raw)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.layers = (layer_metrics(tracer, self.out, reports)
                       if traced else {})
        self.spans = tracer.span_records() if traced else []
        # Later passes must not pay for memory this one still holds.
        self.out.runs.clear()


def _host_facts(args, jobs: int) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    usable = len(os.sched_getaffinity(0))
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu_count": os.cpu_count(),
            "usable_cpus": usable, "jobs": jobs, "seed": args.seed,
            "workload": args.workload, "scale": args.scale,
            "parallel_measured": usable >= jobs}


def _speed_probe() -> float:
    """Seconds for a fixed pure-Python loop that runs no simulator code:
    how fast this host executes interpreted code right now."""
    start = time.perf_counter()
    table, ring, acc = {}, [0] * 1024, 0
    for i in range(PROBE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        ring[key] = i ^ acc
        acc += i % 7
        if key == 1023:
            ring.sort()
    return time.perf_counter() - start


def _run_passes(workload, args, tmp: str):
    """Closed loop of passes for ``--seconds`` (see module docstring);
    returns the passes and the host-speed probes taken around them."""
    passes = []
    probes = [_speed_probe() for _ in range(3)]
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(Pass(workload, traced, tmp))
        probes.append(_speed_probe())
        kinds = {p.traced for p in passes}
        if kinds != ({False, True} if args.trace else {False}):
            continue
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > args.seconds:
            return passes, probes


def _stop_resource_tracker() -> None:
    """Spawned pools start multiprocessing's resource tracker; stop it
    and wait for it so the benchmark leaves no process behind."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    # The simulator and the benchmark's own modules are imported only
    # once src/ is on the path. Spawn-started workers re-import this
    # file, so its top level stays standard-library only.
    _use_checkout()
    from perfbench.layers import PARALLEL_METRICS, PER_LAYER
    from perfbench.workloads import JOBS, make_workload, tally

    tiny = args.scale == "tiny"
    if args.setup_probe:
        import numpy  # noqa: F401  (part of the set-up being timed)

        make_workload(args.workload, args.seed, tiny)
        print(repr(time.time()))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    # Keep every temporary file (pools, journals, caches) in the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = tmp
    try:
        setups = [_probe_setup(args) for _ in range(SETUP_PROBES)]
        # Before the passes: a process forked later would report this
        # process's grown RSS as its own peak.
        host = _host_facts(args, JOBS)
        workload = make_workload(args.workload, args.seed, tiny)
        passes, probes = _run_passes(workload, args, tmp)
    finally:
        _stop_resource_tracker()
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed, errors = tally([p.out for p in passes])
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    wall_s = statistics.median(p.wall_s for p in untraced)
    end_to_end = {
        "wall_s": wall_s,
        "cpu_s": statistics.median(p.cpu_s for p in untraced),
        "peak_rss_mb": max(_peak_rss_mb(resource.RUSAGE_SELF),
                           _peak_rss_mb(resource.RUSAGE_CHILDREN)),
        "setup_s": statistics.median(setups),
    }
    units = dict(END_TO_END)
    layer_units = {name: unit for name, unit, _ in PER_LAYER}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced + {len(traced)} traced")
    print("host " + json.dumps(host, sort_keys=True))
    print(f"  speed_probe_s    {statistics.median(probes):.6f} s (host "
          f"speed, not a metric: median of {len(probes)} probes)")
    for name, value in end_to_end.items():
        print(f"  {name:<16} {value:.6f} {units[name]}")
    print(f"    (peak RSS: this process "
          f"{_peak_rss_mb(resource.RUSAGE_SELF):.1f} MB, largest worker "
          f"{_peak_rss_mb(resource.RUSAGE_CHILDREN):.1f} MB)")
    frac = failed / attempted
    print(f"  {'ops_failed_frac':<16} {frac:.6f} ratio "
          f"({failed} of {attempted} operations failed)")
    print(f"  outputs_digest   {passes[0].out.outputs_digest()}")

    if args.trace:
        layers = {name: statistics.median(p.layers[name] for p in traced)
                  for name in traced[0].layers}
        layers["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - wall_s)
        layers["ops_failed_frac"] = frac
        if not host["parallel_measured"]:
            print(f"  not measured ({host['usable_cpus']} usable CPUs < "
                  f"{JOBS} jobs): {', '.join(PARALLEL_METRICS)}")
            for name in PARALLEL_METRICS:
                del layers[name]
        for name, unit, _ in PER_LAYER:
            if name in layers:
                value = layers[name]
                shown = (f"{value:.0f}" if unit in ("count", "B")
                         else f"{value:.6f}")
                print(f"  {name:<32} {shown} {unit}")
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}-"
                               f"{args.seed}.json"), "w") as fh:
            json.dump({"host": host, "passes": [
                {"wall_s": p.wall_s, "layers": p.layers, "spans": p.spans}
                for p in traced]}, fh)
        metrics = {name: {"value": value, "unit": layer_units[name]}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in end_to_end.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
