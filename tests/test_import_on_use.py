"""Packages import on use, and forked workers import nothing per task.

``repro.sim``, ``repro.core``, ``repro.experiments`` and ``repro.obs``
resolve their package-level names on first access (``repro._lazy``),
so loading one module does not load the repository. The sweep and
hybrid layers import every engine before forking, so workers inherit
the modules instead of each importing them during its first task.
Each check runs in a fresh interpreter: the test process itself has
imported everything long before.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

LAZY_PACKAGES = ("repro.sim", "repro.core", "repro.experiments",
                 "repro.obs")


def _run(script: str) -> str:
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_engine_and_executor_load_no_report_layer():
    loaded = json.loads(_run(
        "import json, sys\n"
        "import repro.sim.hybrid, repro.experiments.executor\n"
        "print(json.dumps(sorted(sys.modules)))\n"))
    unwanted = {"repro.experiments.figures", "repro.experiments.report",
                "repro.experiments.tables", "repro.core.equilibrium"}
    assert not unwanted & set(loaded)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        assert value is not None
        assert name in dir(module)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


_SWEEP_SCRIPT = """
import json, sys
from repro.experiments import replicates
from repro.names import Algorithm
from repro.sim.config import SimulationConfig

def task(config, seed):
    before = set(sys.modules)
    metrics = replicates._replicate_task(config, seed)
    new = sorted(m for m in set(sys.modules) - before
                 if m.startswith("repro"))
    print("NEW " + json.dumps([config.backend, new]), flush=True)
    return metrics

for backend in ("object", "vector", "vector-fast"):
    config = SimulationConfig(Algorithm.TCHAIN, n_users=20, n_pieces=8,
                              max_rounds=60, freerider_fraction=0.2,
                              backend=backend)
    result = replicates.run_resilient_sweep(
        config, [1, 2], task=task, jobs=1, start_method="fork")
    assert all(o.ok for o in result.outcomes), result.outcomes
"""


@pytest.mark.skipif(sys.platform == "darwin" or not hasattr(os, "fork"),
                    reason="fork start method only")
def test_forked_sweep_workers_import_nothing_per_task():
    lines = [json.loads(line[4:]) for line in _run(_SWEEP_SCRIPT).splitlines()
             if line.startswith("NEW ")]
    assert [backend for backend, _ in lines] == [
        "object", "object", "vector", "vector", "vector-fast", "vector-fast"]
    assert [new for _, new in lines if new] == []
