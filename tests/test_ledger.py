"""Tests for the run-ledger layer: atomic writes, resource sampling,
progress heartbeats, run manifests and Chrome trace export."""

import io
import json

import pytest

from repro.obs import (
    Heartbeat,
    MANIFEST_SCHEMA,
    ProgressTracker,
    RunManifest,
    Tracer,
    atomic_write_json,
    atomic_write_text,
    format_manifest,
    git_revision,
    host_info,
    load_manifest,
    metrics,
    peak_rss_bytes,
    resource_summary,
    to_chrome_trace,
    write_chrome_trace,
    write_trace,
)
from repro.obs.progress import MIN_STRAGGLER_SAMPLES, STRAGGLER_FACTOR
from repro.obs.resources import ResourceSampler, reset_sampler


@pytest.fixture()
def clean_registry():
    metrics().reset()
    reset_sampler()
    yield metrics()
    metrics().reset()
    reset_sampler()


# ----------------------------------------------------------------------
# Atomic writes (satellite: tmp + os.replace everywhere)
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_text_roundtrip(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"a": [1, 2]})
        assert json.loads(path.read_text()) == {"a": [1, 2]}

    def test_failure_preserves_existing(self, tmp_path, monkeypatch):
        import repro.obs.ioutil as ioutil_module

        path = tmp_path / "out.json"
        atomic_write_json(path, {"generation": 1})
        original = path.read_text()

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(ioutil_module.os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_json(path, {"generation": 2})
        monkeypatch.undo()
        assert path.read_text() == original
        assert list(tmp_path.glob("*.tmp")) == []

    def test_write_trace_is_atomic(self, tmp_path, monkeypatch):
        """A crashed trace export must not truncate a previous trace."""
        import repro.obs.ioutil as ioutil_module

        tracer = Tracer(enabled=True)
        with tracer.span("only"):
            pass
        records = tracer.records()
        path = tmp_path / "trace.jsonl"
        write_trace(path, records)
        original = path.read_text()

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(ioutil_module.os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            write_trace(path, records + records)
        monkeypatch.undo()
        assert path.read_text() == original
        assert list(tmp_path.glob("*.tmp")) == []


# ----------------------------------------------------------------------
# Resource accounting
# ----------------------------------------------------------------------
class TestResources:
    def test_peak_rss_positive(self):
        assert peak_rss_bytes() > 0

    def test_sampler_instruments(self, clean_registry):
        sampler = ResourceSampler()
        sampler.sample()  # primes the CPU baseline
        sum(i * i for i in range(100_000))
        sampler.sample()
        snap = clean_registry.snapshot()
        assert snap["gauges"]["resource.peak_rss_bytes"]["max"] > 0
        # One CPU delta (the priming call observes none), two overheads.
        assert snap["timers"]["resource.cpu.user"]["count"] == 1
        assert snap["timers"]["resource.cpu.user"]["total"] >= 0.0
        assert snap["timers"]["obs.overhead"]["count"] == 2

    def test_summary_folds_snapshot(self, clean_registry):
        sampler = ResourceSampler()
        sampler.sample()
        sampler.sample()
        summary = resource_summary(clean_registry.snapshot())
        assert summary["peak_rss_bytes"] > 0
        assert summary["samples"] == 2
        assert summary["sampling_overhead_s"] >= 0.0

    def test_summary_empty_snapshot_is_zeros(self):
        summary = resource_summary({})
        assert summary == {"peak_rss_bytes": 0, "cpu_user_s": 0.0,
                           "cpu_system_s": 0.0, "samples": 0,
                           "sampling_overhead_s": 0.0}


# ----------------------------------------------------------------------
# Progress tracking
# ----------------------------------------------------------------------
def beat(name="net0", seconds=0.1, failed=False):
    return Heartbeat(net=name, seconds=seconds, rss_bytes=1 << 20,
                     pid=1234, failed=failed)


class TestProgress:
    def test_counts_and_snapshot(self):
        tracker = ProgressTracker(3)
        tracker.record(beat("net0"))
        tracker.record(beat("net1", failed=True))
        snap = tracker.snapshot()
        assert snap["nets"] == 2
        assert snap["total"] == 3
        assert snap["failed"] == 1
        assert snap["p50_s"] == pytest.approx(0.1)

    def test_straggler_flagged_after_min_samples(self):
        tracker = ProgressTracker(10)
        for i in range(MIN_STRAGGLER_SAMPLES):
            tracker.record(beat(f"net{i}", seconds=0.1))
        tracker.record(beat("slowpoke",
                            seconds=0.1 * STRAGGLER_FACTOR * 2))
        assert tracker.stragglers == ["slowpoke"]

    def test_no_straggler_verdict_on_few_samples(self):
        tracker = ProgressTracker(10)
        tracker.record(beat("net0", seconds=0.1))
        tracker.record(beat("huge", seconds=100.0))
        assert tracker.stragglers == []

    def test_render_line_contents(self):
        tracker = ProgressTracker(100)
        for i in range(6):
            tracker.record(beat(f"net{i}", seconds=0.01))
        line = tracker.render_line()
        assert "[  6/100]" in line
        assert "nets/s" in line
        assert "eta" in line
        assert "p95" in line

    def test_stream_rendering_and_finish(self):
        stream = io.StringIO()
        tracker = ProgressTracker(2, stream=stream, min_interval=0.0)
        tracker.record(beat("net0"))
        tracker.record(beat("net1"))
        tracker.finish()
        text = stream.getvalue()
        assert "\r" in text
        assert "[2/2]" in text
        assert text.endswith("\n")

    def test_silent_without_stream(self):
        tracker = ProgressTracker(1)
        tracker.record(beat())
        tracker.finish()  # must not raise

    def test_heartbeat_to_dict(self):
        hb = beat("n", seconds=0.5, failed=True)
        assert hb.to_dict() == {"net": "n", "seconds": 0.5,
                                "rss_bytes": 1 << 20, "pid": 1234,
                                "failed": True, "tier": 2}


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
class _FakeFailure:
    def __init__(self, net_name, error_type):
        self.net_name = net_name
        self.error_type = error_type


class TestManifest:
    def test_git_and_host_shapes(self):
        git = git_revision()
        assert set(git) == {"revision", "dirty"}
        host = host_info()
        assert host["cpu_count"] >= 1
        assert "python" in host["versions"]

    def test_git_degrades_outside_checkout(self, tmp_path):
        git = git_revision(cwd=tmp_path)
        assert git == {"revision": None, "dirty": None}

    def test_stage_accumulates(self, clean_registry):
        manifest = RunManifest("screen")
        manifest.add_stage("analysis", 1.0)
        manifest.add_stage("analysis", 0.5)
        with manifest.stage("functional-screen"):
            pass
        assert manifest.stages["analysis"] == pytest.approx(1.5)
        assert manifest.stages["functional-screen"] >= 0.0

    def test_finalize_payload(self, clean_registry):
        manifest = RunManifest("screen", config={"seed": 3})
        manifest.add_stage("analysis", 2.0)
        payload = manifest.finalize(
            failures=[_FakeFailure("net1", "Timeout"),
                      _FakeFailure("net4", "Timeout")],
            degraded={"total": 1, "stages": ["alignment"]},
            progress={"nets": 5, "total": 5})
        assert payload["schema"] == MANIFEST_SCHEMA
        assert payload["command"] == "screen"
        assert payload["config"] == {"seed": 3}
        assert payload["wall_time_s"] > 0.0
        assert payload["resources"]["peak_rss_bytes"] > 0
        assert payload["failures"] == {"total": 2,
                                       "by_type": {"Timeout": 2},
                                       "nets": ["net1", "net4"]}
        assert payload["degraded"]["stages"] == ["alignment"]
        assert payload["progress"]["nets"] == 5
        assert payload["telemetry_overhead"]["fraction"] < 0.5
        assert "counters" in payload["metrics"]

    def test_write_load_roundtrip(self, tmp_path, clean_registry):
        path = tmp_path / "run.json"
        RunManifest("bench").write(path, extra={"speedup": {"x": 2.0}})
        loaded = load_manifest(path)
        assert loaded["schema"] == MANIFEST_SCHEMA
        assert loaded["speedup"] == {"x": 2.0}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="not a run manifest"):
            load_manifest(path)

    def test_format_manifest_renders(self, clean_registry):
        manifest = RunManifest("screen", config={"count": 8})
        manifest.add_stage("analysis", 1.25)
        payload = manifest.finalize(
            failures=[_FakeFailure("net2", "WorkerCrash")])
        text = format_manifest(payload)
        assert "run: screen" in text
        assert "analysis" in text
        assert "peak RSS" in text
        assert "WorkerCrash x1" in text


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def rec(id, name, start, dur, parent=None, **attrs):
    return {"id": id, "parent": parent, "name": name,
            "start": start, "dur": dur, "attrs": attrs}


class TestChromeTrace:
    def test_serial_nesting_single_track(self):
        records = [rec(2, "child", 1.0, 2.0, parent=1),
                   rec(1, "root", 0.0, 10.0)]
        payload = to_chrome_trace(records)
        events = {e["name"]: e for e in payload["traceEvents"]
                  if e["ph"] == "X"}
        assert events["root"]["tid"] == events["child"]["tid"]
        assert events["root"]["ts"] == 0.0
        assert events["child"]["ts"] == pytest.approx(1e6)
        assert events["child"]["dur"] == pytest.approx(2e6)
        # Child strictly inside the parent on the shared track.
        assert events["child"]["ts"] >= events["root"]["ts"]
        assert events["child"]["ts"] + events["child"]["dur"] <= \
            events["root"]["ts"] + events["root"]["dur"]

    def test_overlapping_siblings_get_new_track(self):
        """jobs=N subtrees overlap in time and need separate lanes."""
        records = [rec(1, "root", 0.0, 10.0),
                   rec(2, "a", 1.0, 4.0, parent=1),
                   rec(3, "b", 2.0, 4.0, parent=1)]
        payload = to_chrome_trace(records)
        events = {e["name"]: e for e in payload["traceEvents"]
                  if e["ph"] == "X"}
        assert events["a"]["tid"] == events["root"]["tid"]
        assert events["b"]["tid"] != events["root"]["tid"]

    def test_child_clamped_into_parent(self):
        """Worker clock skew cannot break the nesting invariant."""
        records = [rec(1, "root", 0.0, 1.0),
                   rec(2, "skewed", 0.5, 5.0, parent=1)]
        payload = to_chrome_trace(records)
        events = {e["name"]: e for e in payload["traceEvents"]
                  if e["ph"] == "X"}
        child_end = events["skewed"]["ts"] + events["skewed"]["dur"]
        root_end = events["root"]["ts"] + events["root"]["dur"]
        assert child_end <= root_end

    def test_event_shape_and_metadata(self):
        records = [rec(1, "root", 100.0, 1.0, net="n0")]
        payload = to_chrome_trace(records)
        assert payload["displayTimeUnit"] == "ms"
        (event,) = [e for e in payload["traceEvents"]
                    if e["ph"] == "X"]
        assert event["ts"] == 0.0  # rebased to the earliest span
        assert event["cat"] == "repro"
        assert event["args"] == {"net": "n0"}
        names = {e["name"] for e in payload["traceEvents"]
                 if e["ph"] == "M"}
        assert "process_name" in names
        assert "thread_name" in names

    def test_write_chrome_trace_valid_json(self, tmp_path):
        path = tmp_path / "chrome.json"
        count = write_chrome_trace(
            path, [rec(1, "root", 0.0, 1.0),
                   rec(2, "child", 0.1, 0.5, parent=1)])
        assert count == 2
        payload = json.loads(path.read_text())
        assert all(e["dur"] >= 0 for e in payload["traceEvents"]
                   if e["ph"] == "X")
