"""Shape of ``BENCH_trajectory.jsonl``, the repo's measured perf history.

Each line is one measurement of one workload at one commit. Rows from
``perfbench`` must name a workload of ``BENCHMARK.json`` and carry only
that file's end-to-end metric names; rows ported from earlier timing
scripts have no outputs digest.
"""

from __future__ import annotations

import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_trajectory.jsonl"
KEYS = {"commit", "date", "harness", "workload", "seed", "host", "metrics",
        "outputs_digest"}


def _rows():
    lines = TRAJECTORY.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


def test_every_row_has_the_schema():
    rows = _rows()
    assert rows
    for row in rows:
        assert set(row) == KEYS, row
        assert set(row["host"]) == {"python", "cpus"}, row
        assert row["metrics"], row
        assert all(isinstance(value, (int, float))
                   for value in row["metrics"].values()), row


def test_perfbench_rows_match_the_benchmark_declaration():
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    workloads = {workload["name"] for workload in declared["workloads"]}
    end_to_end = {metric["name"] for metric in declared["end_to_end"]}
    perfbench = [row for row in _rows() if row["harness"] == "perfbench"]
    assert perfbench
    for row in perfbench:
        assert row["workload"] in workloads, row
        assert set(row["metrics"]) <= end_to_end, row
        assert isinstance(row["outputs_digest"], str), row


def test_rows_from_other_harnesses_have_no_digest():
    for row in _rows():
        if row["harness"] != "perfbench":
            assert row["outputs_digest"] is None, row
