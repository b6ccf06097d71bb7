"""Span aggregation, nesting and self time, per-instance wrapping on
every engine, and table rendering."""

from __future__ import annotations

import pytest

from repro.algorithms import vector_kernels
from repro.names import Algorithm
from repro.obs.spans import PHASE_SPANS, SpanTracer
from repro.sim.config import SimulationConfig
from repro.sim.metrics import metrics_digest
from repro.sim.runner import build_engine

PHASES = set(PHASE_SPANS)


def _clock(monkeypatch, ticks):
    """Make the tracer's clock return ``ticks`` in order."""
    values = iter(ticks)
    monkeypatch.setattr("repro.obs.spans.perf_counter",
                        lambda: next(values))


class TestAggregationMath:
    def test_count_total_self_mean(self, monkeypatch):
        tracer = SpanTracer()
        leaf = tracer.wrap(lambda: None, "engine.round")
        _clock(monkeypatch, [0.0, 0.2, 1.0, 1.5, 2.0, 2.3])
        for _ in range(3):
            leaf()
        span = tracer.as_dict()["engine.round"]
        assert span["count"] == 3
        assert span["total"] == pytest.approx(1.0)
        assert span["self"] == pytest.approx(1.0)
        assert span["mean"] == pytest.approx(1.0 / 3.0)

    def test_single_sample(self, monkeypatch):
        tracer = SpanTracer()
        _clock(monkeypatch, [0.0, 0.125])
        tracer.wrap(lambda: None, "x")()
        span = tracer.as_dict()["x"]
        assert span["total"] == span["self"] == span["mean"] == 0.125

    def test_spans_sorted_by_name(self):
        tracer = SpanTracer()
        tracer.wrap(lambda: None, "b")()
        tracer.wrap(lambda: None, "a")()
        assert list(tracer.as_dict()) == ["a", "b"]

    def test_wrap_measures_positive_time_and_returns(self):
        tracer = SpanTracer()
        assert tracer.wrap(lambda n: sum(range(n)), "block")(1000) == 499500
        span = tracer.as_dict()["block"]
        assert span["count"] == 1
        assert span["total"] >= 0.0

    def test_exception_still_closes_the_span(self):
        tracer = SpanTracer()

        def fail():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            tracer.wrap(fail, "failing")()
        assert tracer.as_dict()["failing"]["count"] == 1
        tracer.wrap(lambda: None, "after")()
        assert tracer.as_dict()["after"]["count"] == 1


class TestNesting:
    def test_self_time_excludes_wrapped_children(self, monkeypatch):
        tracer = SpanTracer()
        inner = tracer.wrap(lambda: None, "kernel")
        outer = tracer.wrap(lambda: (inner(), inner()), "engine.round")
        # outer [0, 10]; inner [1, 3] and [4, 7]: 5 s in children.
        _clock(monkeypatch, [0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
        outer()
        spans = tracer.as_dict()
        assert spans["engine.round"]["total"] == pytest.approx(10.0)
        assert spans["engine.round"]["self"] == pytest.approx(5.0)
        assert spans["kernel"]["count"] == 2
        assert spans["kernel"]["self"] == pytest.approx(5.0)

    def test_only_the_direct_parent_loses_child_time(self, monkeypatch):
        tracer = SpanTracer()
        leaf = tracer.wrap(lambda: None, "leaf")
        mid = tracer.wrap(lambda: leaf(), "mid")
        top = tracer.wrap(lambda: mid(), "top")
        # top [0, 8], mid [1, 6], leaf [2, 4].
        _clock(monkeypatch, [0.0, 1.0, 2.0, 4.0, 6.0, 8.0])
        top()
        spans = tracer.as_dict()
        assert spans["top"]["self"] == pytest.approx(3.0)
        assert spans["mid"]["self"] == pytest.approx(3.0)
        assert spans["leaf"]["self"] == pytest.approx(2.0)
        assert sum(s["self"] for s in spans.values()) == \
            pytest.approx(spans["top"]["total"])


class TestAttach:
    class Engine:
        def __init__(self):
            self.calls = []

        def _on_round(self):
            self.calls.append("round")

    def test_patch_shadows_one_instance_and_restore_removes_it(self):
        tracer = SpanTracer()
        observed, bare = self.Engine(), self.Engine()
        tracer.patch(observed, "_on_round", "engine.round")
        observed._on_round()
        bare._on_round()
        assert "_on_round" in vars(observed)
        assert "_on_round" not in vars(bare)
        assert tracer.as_dict()["engine.round"]["count"] == 1
        tracer.restore()
        assert "_on_round" not in vars(observed)
        observed._on_round()
        assert observed.calls == ["round", "round"]
        assert tracer.as_dict()["engine.round"]["count"] == 1


class TestPerInstance:
    """An observed and an unobserved engine in one process: only the
    observed one is wrapped, and only until its run ends."""

    CONFIG = SimulationConfig(Algorithm.TCHAIN, n_users=30, n_pieces=8,
                              max_rounds=80, freerider_fraction=0.2,
                              neighbor_count=8, seed=2)

    def _pair(self, backend):
        config = self.CONFIG.with_backend(backend)
        observed = build_engine(config.with_obs(
            trace=False, sample_every=0, profile=True))
        return observed, build_engine(config)

    @pytest.mark.parametrize("backend", ["vector", "vector-fast"])
    def test_array_engine(self, backend):
        fast = backend == "vector-fast"
        table = (vector_kernels.FAST_KERNELS if fast
                 else vector_kernels.KERNELS)
        spray = (vector_kernels.run_spray_fast if fast
                 else vector_kernels.run_spray)
        module_kernels = {table[Algorithm.TCHAIN], spray,
                          vector_kernels.run_freerider}
        observed, bare = self._pair(backend)
        assert not PHASES & vars(bare).keys()
        assert set(bare.kern) == module_kernels
        assert PHASES <= vars(observed).keys()
        assert not set(observed.kern) & module_kernels
        # The bare run goes first, while the observed twin is wrapped.
        bare_metrics = bare.run().metrics
        observed_metrics = observed.run().metrics
        assert bare.obs is None and bare_metrics.obs is None
        assert "kernel.tchain" in observed_metrics.obs["profile"]
        assert not PHASES & vars(observed).keys()
        assert set(observed.kern) == module_kernels
        assert metrics_digest(bare_metrics) == \
            metrics_digest(observed_metrics)

    def test_object_engine(self):
        observed, bare = self._pair("object")
        assert not PHASES & vars(bare).keys()
        assert not any("on_round" in vars(strategy)
                       for strategy in bare._strategies.values())
        assert all("on_round" in vars(strategy)
                   for strategy in observed._strategies.values())
        bare_metrics = bare.run().metrics
        observed_metrics = observed.run().metrics
        assert {"strategy.tchain", "strategy.seeder",
                "strategy.freerider"} <= set(observed_metrics.obs["profile"])
        assert not PHASES & vars(observed).keys()
        assert not any("on_round" in vars(strategy)
                       for strategy in observed._strategies.values())
        assert metrics_digest(bare_metrics) == \
            metrics_digest(observed_metrics)


class TestTable:
    def test_table_orders_by_self_descending(self, monkeypatch):
        tracer = SpanTracer()
        small = tracer.wrap(lambda: None, "small")
        big = tracer.wrap(lambda: small(), "big")
        # big [0, 10] holds small [1, 9]: big's total is larger, but
        # small has more self time (8 s against 2 s).
        _clock(monkeypatch, [0.0, 1.0, 9.0, 10.0])
        big()
        lines = tracer.table().splitlines()
        assert any("self_ms" in line for line in lines)
        body = [line for line in lines if line.startswith(("big", "small"))]
        assert body[0].startswith("small")

    def test_table_shares_sum_to_100(self, monkeypatch):
        tracer = SpanTracer()
        inner = tracer.wrap(lambda: None, "inner")
        outer = tracer.wrap(lambda: inner(), "outer")
        # outer [0, 4] holds inner [1, 4]: self times 1 s and 3 s.
        _clock(monkeypatch, [0.0, 1.0, 4.0, 4.0])
        outer()
        shares = [float(line.split()[-1])
                  for line in tracer.table().splitlines()
                  if line.startswith(("inner", "outer"))]
        assert shares == [pytest.approx(75.0), pytest.approx(25.0)]
        assert sum(shares) == pytest.approx(100.0)
