"""Tests for repro.obs (tracing, metrics, logging, trace summaries)."""

import json
import logging

import numpy as np
import pytest

from repro.bench.netgen import canonical_net
from repro.exec import analyze_nets
from repro.obs import (
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    Tracer,
    current_tracer,
    disable_tracing,
    format_summary,
    metrics,
    read_trace,
    set_tracer,
    span,
    summarize_records,
    trace_total_time,
    verbosity_level,
    write_trace,
)
from repro.obs.trace import _NULL_SPAN
from repro.sim.nonlinear import ConvergenceError, _reference_solve


@pytest.fixture()
def tracer():
    """A fresh enabled tracer installed globally, restored afterwards."""
    previous = current_tracer()
    tracer = set_tracer(Tracer(enabled=True))
    yield tracer
    set_tracer(previous)


class TestTracer:
    def test_nesting_and_parenting(self, tracer):
        with span("outer", label="a") as outer:
            with span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with span("inner2"):
                pass
        records = tracer.records()
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["inner2"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["attrs"] == {"label": "a"}
        # Children finish first, so they precede their parent.
        assert [r["name"] for r in records] == \
            ["inner", "inner2", "outer"]
        assert all(r["dur"] >= 0 for r in records)

    def test_set_attrs_mid_span(self, tracer):
        with span("work") as sp:
            sp.set(iterations=3)
        (record,) = tracer.records()
        assert record["attrs"]["iterations"] == 3

    def test_exception_marks_span(self, tracer):
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        (record,) = tracer.records()
        assert record["attrs"]["error"] == "ValueError"

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        cm = tracer.span("anything", x=1)
        assert cm is _NULL_SPAN
        with cm as sp:
            sp.set(y=2)  # must not raise
        assert tracer.records() == []

    def test_global_default_is_disabled(self):
        disable_tracing()
        assert not current_tracer().enabled
        with span("ignored"):
            pass
        assert current_tracer().records() == []

    def test_jsonl_roundtrip(self, tracer, tmp_path):
        with span("parent", net="n0"):
            with span("child"):
                pass
        path = tmp_path / "trace.jsonl"
        count = tracer.export_jsonl(path)
        assert count == 2
        loaded = read_trace(path)
        assert loaded == tracer.records()
        # One JSON object per line.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["name"] for line in lines)

    def test_drain_clears_buffer(self, tracer):
        with span("one"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.records() == []

    def test_absorb_reparents_and_reids(self, tracer):
        worker = Tracer(enabled=True)
        with worker.span("net.analyze", net="w0"):
            with worker.span("net.alignment"):
                pass
        shipped = worker.drain()

        with span("exec.analyze_nets") as root:
            tracer.absorb(shipped)
        records = tracer.records()
        by_name = {r["name"]: r for r in records}
        assert by_name["net.analyze"]["parent"] == root.span_id
        assert by_name["net.alignment"]["parent"] == \
            by_name["net.analyze"]["id"]
        assert len({r["id"] for r in records}) == len(records)


class TestHistogram:
    def test_bucket_edges_inclusive(self):
        h = Histogram(bounds=(1, 2, 5))
        for value in (0, 1):        # <= 1 -> bucket 0
            h.observe(value)
        h.observe(2)                # == bound -> bucket 1
        h.observe(3)                # (2, 5] -> bucket 2
        h.observe(5)                # == last bound -> bucket 2
        h.observe(6)                # overflow bucket
        assert h.counts == [2, 1, 2, 1]
        assert h.count == 6
        assert h.total == pytest.approx(17.0)

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram(bounds=(3, 1))
        with pytest.raises(ValueError, match="sorted"):
            Histogram(bounds=())

    def test_quantile(self):
        h = Histogram(bounds=(1, 2, 5))
        for _ in range(9):
            h.observe(1)
        h.observe(4)
        assert h.quantile(0.5) == 1
        assert h.quantile(0.95) == 5
        assert Histogram(bounds=(1,)).quantile(0.5) == 0.0

    def test_merge_requires_same_bounds(self):
        h = Histogram(bounds=(1, 2))
        with pytest.raises(ValueError, match="bounds"):
            h.merge({"bounds": [1, 3], "counts": [0, 0, 0],
                     "count": 0, "total": 0.0})

    def test_quantile_extremes(self):
        """q=0 and q=1 land on the first/last occupied bucket."""
        h = Histogram(bounds=(1, 2, 5))
        h.observe(2)
        h.observe(2)
        h.observe(4)
        assert h.quantile(0.0) == 2
        assert h.quantile(1.0) == 5

    def test_quantile_all_overflow(self):
        """Past-the-end observations report the last finite bound."""
        h = Histogram(bounds=(1, 2, 5))
        h.observe(100)
        h.observe(200)
        assert h.quantile(0.5) == 5
        assert h.quantile(1.0) == 5

    def test_quantile_single_bucket(self):
        h = Histogram(bounds=(5,))
        h.observe(3)
        assert h.quantile(0.0) == 5
        assert h.quantile(0.5) == 5
        assert h.quantile(1.0) == 5


class TestTimerMerge:
    def test_merge_empty_payload_is_noop(self):
        """A zero-count payload must not clobber min/max."""
        t = Timer()
        t.observe(2.0)
        empty = Timer().to_dict()
        assert empty["count"] == 0
        t.merge(empty)
        assert t.count == 1
        assert t.min == 2.0
        assert t.max == 2.0
        assert t.total == pytest.approx(2.0)

    def test_merge_empty_into_empty(self):
        t = Timer()
        t.merge(Timer().to_dict())
        assert t.count == 0
        assert t.to_dict()["min"] == 0.0  # serialized min is finite

    def test_merge_zero_count_with_stale_extrema(self):
        """Even a malformed zero-count payload carrying extrema is
        ignored: count gates the merge."""
        t = Timer()
        t.observe(5.0)
        t.merge({"count": 0, "total": 99.0, "min": 0.001, "max": 99.0})
        assert t.total == pytest.approx(5.0)
        assert t.min == 5.0
        assert t.max == 5.0


class TestGauge:
    def test_set_tracks_peak(self):
        g = Gauge()
        g.set(10.0)
        g.set(4.0)
        assert g.value == 4.0
        assert g.max == 10.0

    def test_merge_keeps_maximum(self):
        """Peak-merge: a jobs=N manifest reports the max over workers."""
        g = Gauge()
        g.set(100.0)
        g.merge({"value": 250.0, "max": 300.0})
        assert g.max == 300.0
        g.merge({"value": 5.0, "max": 7.0})
        assert g.max == 300.0

    def test_registry_snapshot_roundtrip(self):
        reg = MetricsRegistry()
        reg.gauge("rss").set(42.0)
        other = MetricsRegistry()
        other.merge_snapshot(reg.snapshot())
        assert other.gauge("rss").max == 42.0


class TestSpanImbalance:
    def test_out_of_order_exit_counts_imbalance(self, tracer):
        metrics().reset()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        # Exit the outer span while the inner one is still open.
        outer.__exit__(None, None, None)
        snap = metrics().snapshot()
        assert snap["counters"]["obs.span.imbalance"] == 1
        # The stack self-heals: the inner span still exits cleanly.
        inner.__exit__(None, None, None)
        assert metrics().snapshot()["counters"][
            "obs.span.imbalance"] == 1
        assert len(tracer.records()) == 2
        metrics().reset()

    def test_balanced_spans_do_not_count(self, tracer):
        metrics().reset()
        with span("a"):
            with span("b"):
                pass
        # Instrument identity survives reset, so the counter may exist
        # from an earlier test — it just must not have moved.
        assert metrics().snapshot()["counters"].get(
            "obs.span.imbalance", 0) == 0


class TestRegistry:
    def test_instrument_identity_survives_reset(self):
        reg = MetricsRegistry()
        counter = reg.counter("x")
        counter.inc(5)
        reg.reset()
        assert counter.value == 0
        assert reg.counter("x") is counter

    def test_snapshot_merge_roundtrip(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        a.timer("t").observe(0.5)
        a.histogram("h", bounds=(1, 2)).observe(1)
        b.counter("c").inc(1)
        b.merge_snapshot(a.snapshot())
        snap = b.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["timers"]["t"]["count"] == 1
        assert snap["timers"]["t"]["total"] == pytest.approx(0.5)
        assert snap["histograms"]["h"]["counts"] == [1, 0, 0]

    def test_timer_min_max(self):
        t = Timer()
        t.observe(0.2)
        t.observe(0.1)
        assert t.count == 2
        assert t.min == pytest.approx(0.1)
        assert t.max == pytest.approx(0.2)
        assert t.mean == pytest.approx(0.15)
        empty = Timer().to_dict()
        assert empty["min"] == 0.0

    def test_drain_resets(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        payload = reg.drain()
        assert payload["counters"]["n"] == 1
        assert reg.counter("n").value == 0


class TestNewtonTelemetry:
    def test_nonconvergence_message_and_counter(self):
        before = metrics().counter("newton.nonconverged").value
        # F(x) = x + [1e9, 1]: the root lies 1e9 V away, so the update,
        # clamped to 0.5 V per iteration, never shrinks below tolerance
        # and the solve must give up with the residual still ~1e9.
        with pytest.raises(ConvergenceError) as excinfo:
            _reference_solve(np.eye(2), np.array([-1e9, -1.0]), [],
                             np.zeros(2), "test")
        message = str(excinfo.value)
        assert "worst residual" in message
        assert "1.000e+09" in message
        assert "node index 0" in message
        assert metrics().counter("newton.nonconverged").value == \
            before + 1

    def test_iterations_recorded(self):
        hist = metrics().histogram("newton.iterations")
        before = hist.count
        _reference_solve(np.eye(1), np.array([0.25]), [], np.zeros(1),
                         "test")
        assert hist.count == before + 1


class TestPipelineTelemetry:
    @pytest.fixture(scope="class")
    def population(self):
        return [
            canonical_net(n_aggressors=1, name="obs0"),
            canonical_net(n_aggressors=1, coupling_ratio=0.7,
                          name="obs1"),
        ]

    def test_parallel_metrics_equal_serial(self, analyzer, population):
        """A jobs=2 run merges worker metrics into the parent registry
        with exactly the counts of the equivalent serial run."""
        # Warm everything first so both timed runs are characterization
        # free and therefore do identical numeric work.
        analyze_nets(population, jobs=1, analyzer=analyzer,
                     alignment="table")

        metrics().reset()
        analyze_nets(population, jobs=1, analyzer=analyzer,
                     alignment="table")
        serial = metrics().snapshot()

        metrics().reset()
        analyze_nets(population, jobs=2, analyzer=analyzer,
                     alignment="table")
        parallel = metrics().snapshot()

        assert serial["histograms"]["newton.iterations"] == \
            parallel["histograms"]["newton.iterations"]
        for name in ("analysis.nets", "alignment.probes",
                     "alignment.composites", "alignment.table_lookups"):
            assert serial["counters"][name] == \
                parallel["counters"][name], name
        assert parallel["counters"]["analysis.nets"] == 2

    def test_parallel_trace_in_input_order(self, analyzer, population,
                                           tracer):
        result = analyze_nets(population, jobs=2, analyzer=analyzer,
                              alignment="table")
        records = tracer.records()
        net_spans = [r for r in records if r["name"] == "net.analyze"]
        assert [r["attrs"]["net"] for r in net_spans] == \
            ["obs0", "obs1"]
        (exec_span,) = [r for r in records
                        if r["name"] == "exec.analyze_nets"]
        assert all(r["parent"] == exec_span["id"] for r in net_spans)
        # Every net's per-stage children made it across the process
        # boundary.
        for net_span in net_spans:
            child_names = {r["name"] for r in records
                           if r["parent"] == net_span["id"]}
            assert {"net.superposition", "net.receiver_eval",
                    "net.thevenin_reference"} <= child_names
        # The traced exec stage accounts for the measured wall time.
        assert exec_span["dur"] == \
            pytest.approx(result.stats.wall_time, rel=0.10)

    def test_failures_by_type(self, analyzer):
        broken = canonical_net(n_aggressors=1, name="broken-obs")
        broken.aggressors.clear()
        result = analyze_nets([broken], jobs=1, analyzer=analyzer,
                              alignment="table")
        assert result.stats.failures_by_type == {"ValueError": 1}
        (failure,) = result.failures
        assert failure.error_type == "ValueError"

    def test_timeout_counted_by_type(self, analyzer):
        net = canonical_net(n_aggressors=1, name="slow-obs")
        result = analyze_nets([net], jobs=1, analyzer=analyzer,
                              timeout=0.001, alignment="table")
        assert result.stats.failures_by_type == {"NetTimeout": 1}


class TestSummary:
    RECORDS = [
        {"id": 2, "parent": 1, "name": "child", "start": 0.0,
         "dur": 0.3, "attrs": {}},
        {"id": 3, "parent": 1, "name": "child", "start": 0.4,
         "dur": 0.1, "attrs": {}},
        {"id": 1, "parent": None, "name": "root", "start": 0.0,
         "dur": 1.0, "attrs": {}},
    ]

    def test_self_vs_total(self):
        by_name = {s.name: s for s in summarize_records(self.RECORDS)}
        assert by_name["root"].total == pytest.approx(1.0)
        assert by_name["root"].self_time == pytest.approx(0.6)
        assert by_name["child"].count == 2
        assert by_name["child"].self_time == pytest.approx(0.4)
        assert by_name["child"].p50 == pytest.approx(0.3)

    def test_total_traced_time_is_roots_only(self):
        assert trace_total_time(self.RECORDS) == pytest.approx(1.0)

    def test_format_contains_documented_columns(self):
        text = format_summary(self.RECORDS)
        for column in ("stage", "count", "total s", "self s",
                       "p50 ms", "p95 ms"):
            assert column in text
        assert "total traced time" in text


class TestLogging:
    def test_verbosity_mapping(self):
        assert verbosity_level() == logging.INFO
        assert verbosity_level(verbose=1) == logging.DEBUG
        assert verbosity_level(quiet=1) == logging.WARNING
        assert verbosity_level(quiet=2) == logging.ERROR

    def test_write_read_trace_empty_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, TestSummary.RECORDS)
        path.write_text(path.read_text() + "\n\n")
        assert read_trace(path) == TestSummary.RECORDS
