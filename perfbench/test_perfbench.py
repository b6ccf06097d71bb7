"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

The smoke runs use ``--scale tiny`` inputs so all four workloads finish
in seconds; the corruption tests feed deliberately broken outputs to
the workloads' checks and assert they are counted as failed operations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import run as bench

bench._use_checkout()

from perfbench.layers import PARALLEL_METRICS  # noqa: E402
from perfbench.tracing import NullTracer, capture_run_tasks  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    JOBS, Op, PassOutput, make_workload, tally)

WORKLOADS = ("flash-crowd", "figures", "fault-sweep", "hybrid-1m")

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(cwd, *args, timeout=300):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _tiny(workload, trace, seed=3):
    done = _bench(bench.ROOT, "--workload", workload, "--seed", str(seed),
                  "--seconds", "0", "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines
                  if line.strip().startswith("outputs_digest"))
    return json.loads(lines[-1]), digest


def test_benchmark_json_declares_every_workload_and_metric():
    from perfbench.layers import PER_LAYER

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_exactly_the_declared_metrics(workload):
    untraced, digest = _tiny(workload, trace=0)
    traced, traced_digest = _tiny(workload, trace=1)
    for result in (untraced, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in untraced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if len(os.sched_getaffinity(0)) < JOBS:
        for name in PARALLEL_METRICS:
            del expected[name]
    assert {name: m["unit"] for name, m in traced["metrics"].items()} \
        == expected
    # Tracing observes only: the same seed reproduces the same outputs.
    assert traced_digest == digest


def test_checkout_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(os.path.join(bench.ROOT, "perfbench"),
                    tmp_path / "perfbench")
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench(tmp_path, "--workload", "figures", "--seed", "1",
                  "--seconds", "1", "--trace", "0", timeout=120)
    assert done.returncode != 0
    assert not any(line.startswith("{")
                   for line in done.stdout.splitlines())


def _run_tiny(name, tmp_path):
    workload = make_workload(name, seed=5, tiny=True)
    reports = []
    with capture_run_tasks(reports):
        raw = workload.run(NullTracer(), reports, str(tmp_path))
    return workload, raw


def test_broken_conservation_and_lineage_count_as_failed_ops(tmp_path):
    workload, raw = _run_tiny("flash-crowd", tmp_path)
    assert workload.check(raw).failed == 0
    raw[0].metrics.total_received_raw += 1
    raw[1].metrics.digest_lineage = "parity-v1"
    out = workload.check(raw)
    attempted, failed, errors = tally([out])
    assert (attempted, failed) == (len(workload.configs), 2)
    assert any("conservation" in e for e in errors)
    assert any("stamped 'parity-v1'" in e for e in errors)


def test_changed_digest_between_passes_fails_the_later_pass():
    first = PassOutput(ops=[Op("a"), Op("b")], digests=["x"])
    same = PassOutput(ops=[Op("a"), Op("b")], digests=["x"])
    changed = PassOutput(ops=[Op("a"), Op("b")], digests=["y"])
    assert tally([first, same])[:2] == (4, 0)
    assert tally([first, changed, same])[:2] == (6, 2)


def test_warm_rerun_with_another_digest_fails_its_replicates(tmp_path):
    workload, (cold, warm, workdir) = _run_tiny("fault-sweep", tmp_path)
    assert workload.check((cold, warm, workdir)).failed == 0
    swapped = list(reversed(warm))  # each warm rerun now answers the other
    out = workload.check((cold, swapped, workdir))
    n_warm = len(workload.configs) * len(workload.seeds)
    assert out.failed == n_warm
    assert all("warm rerun digest" in op.error
               for op in out.ops if op.error is not None)


def test_unbalanced_hybrid_ledger_fails_the_hybrid_run(tmp_path):
    workload, raw = _run_tiny("hybrid-1m", tmp_path)
    assert workload.check(raw).failed == 0
    metrics = raw[0][0].metrics
    metrics.coupling[0] = replace(metrics.coupling[0],
                                  unarrived=metrics.coupling[0].unarrived + 5)
    out = workload.check(raw)
    assert out.failed == 1
    assert out.layer["hybrid.conservation_errors"] >= 1
