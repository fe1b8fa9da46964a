"""Tests for repro.cli."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.obs import disable_tracing, metrics, read_trace

DECK = """
Rv1 v_root v1 400
Rv2 v1 v_rcv 400
Cv1 v1 0 20f
Cv2 v_rcv 0 10f
Ra1 a_root a1 300
Ra2 a1 a_far 300
Ca1 a1 0 15f
Ca2 a_far 0 10f
Cc1 v1 a1 25f COUPLING
Cc2 v_rcv a_far 15f COUPLING
"""


@pytest.fixture()
def deck_path(tmp_path):
    path = tmp_path / "net.sp"
    path.write_text(DECK)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_engineering_values(self):
        args = build_parser().parse_args(
            ["analyze", "x.sp", "--victim-root", "a",
             "--victim-receiver", "b", "--aggressor", "g:r:f",
             "--receiver-load", "25f", "--victim-slew", "150p"])
        assert args.receiver_load == pytest.approx(25e-15)
        assert args.victim_slew == pytest.approx(150e-12)

    def test_bad_value_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "x.sp", "--victim-root", "a",
                 "--victim-receiver", "b", "--aggressor", "g:r:f",
                 "--receiver-load", "wat"])


class TestAnalyze:
    def test_basic_run(self, deck_path, capsys):
        code = main([
            "analyze", str(deck_path),
            "--victim-root", "v_root", "--victim-receiver", "v_rcv",
            "--aggressor", "agg0:a_root:a_far:INV_X4:120p",
            "--alignment", "input-objective", "--no-rtr",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "extra delay output" in out
        assert "composite pulse" in out

    def test_plot_and_functional(self, deck_path, capsys):
        code = main([
            "analyze", str(deck_path),
            "--victim-root", "v_root", "--victim-receiver", "v_rcv",
            "--aggressor", "agg0:a_root:a_far",
            "--alignment", "input-objective", "--no-rtr",
            "--plot", "--functional",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "functional noise" in out
        assert "noiseless" in out  # the ASCII chart legend

    def test_bad_aggressor_spec(self, deck_path):
        with pytest.raises(SystemExit, match="aggressor"):
            main(["analyze", str(deck_path),
                  "--victim-root", "v_root",
                  "--victim-receiver", "v_rcv",
                  "--aggressor", "only_a_name"])

    def test_chardb_roundtrip(self, deck_path, tmp_path, capsys):
        db = tmp_path / "db.json"
        code = main([
            "analyze", str(deck_path),
            "--victim-root", "v_root", "--victim-receiver", "v_rcv",
            "--aggressor", "agg0:a_root:a_far",
            "--alignment", "input-objective", "--no-rtr",
            "--save-chardb", str(db),
        ])
        assert code == 0
        payload = json.loads(db.read_text())
        assert payload["thevenin_tables"]
        # Reload into a second run.
        code = main([
            "analyze", str(deck_path),
            "--victim-root", "v_root", "--victim-receiver", "v_rcv",
            "--aggressor", "agg0:a_root:a_far",
            "--alignment", "input-objective", "--no-rtr",
            "--chardb", str(db),
        ])
        assert code == 0
        assert "loaded characterization" in capsys.readouterr().out


class TestCharacterize:
    def test_thevenin_only(self, tmp_path, capsys):
        db = tmp_path / "char.json"
        code = main(["characterize", "--cells", "INV_X1",
                     "--slews", "200p", "--out", str(db),
                     "--skip-alignment"])
        out = capsys.readouterr().out
        assert code == 0
        assert "saved" in out
        payload = json.loads(db.read_text())
        assert len(payload["thevenin_tables"]) == 2  # rising + falling
        assert payload["alignment_tables"] == []


    def test_characterize_then_analyze(self, deck_path, tmp_path,
                                       capsys):
        """Full CLI round-trip: build a database with ``characterize``,
        then consume it via ``analyze --chardb``."""
        db = tmp_path / "db.json"
        code = main(["characterize", "--cells", "INV_X1,INV_X4",
                     "--slews", "200p,120p", "--out", str(db),
                     "--skip-alignment"])
        assert code == 0
        payload = json.loads(db.read_text())
        # 2 cells x 2 slews x 2 directions.
        assert len(payload["thevenin_tables"]) == 8

        code = main([
            "analyze", str(deck_path),
            "--victim-root", "v_root", "--victim-receiver", "v_rcv",
            "--aggressor", "agg0:a_root:a_far:INV_X4:120p",
            "--alignment", "input-objective", "--no-rtr",
            "--chardb", str(db),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert f"loaded characterization from {db}" in out
        assert "extra delay output" in out


class TestScreen:
    def test_screen_runs(self, capsys):
        code = main(["screen", "--seed", "3", "--count", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Rtr/Rth" in out
        assert "net0" in out
        assert "# 1 nets, 0 failed" in out

    def test_screen_parallel(self, capsys):
        code = main(["screen", "--seed", "3", "--count", "2",
                     "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "net0" in out
        assert "net1" in out
        assert "# 2 nets, 0 failed" in out
        assert "jobs=2" in out
        assert "misses" in out

    def test_resume_requires_checkpoint(self, capsys):
        code = main(["screen", "--count", "1", "--resume"])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--timeout", "0"), ("--timeout", "-1"),
        ("--rss-budget-mb", "0"), ("--rss-budget-mb", "-1"),
        ("--retries", "-1"), ("--max-failures", "-1"),
        ("--jobs", "0")])
    def test_pool_knobs_validated_at_parse_time(self, flag, value,
                                                capsys):
        """A bad pool knob is a usage error (exit 2), not a traceback,
        an unbounded run or a silently disabled budget."""
        with pytest.raises(SystemExit) as exc:
            main(["screen", "--count", "1", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert flag in err

    def test_screen_checkpoint_and_inject(self, tmp_path, capsys):
        """--inject labels injected failures; --checkpoint records
        every net; --resume answers from the checkpoint."""
        from repro.resilience import clear_faults, load_checkpoint

        plan = tmp_path / "plan.json"
        plan.write_text('[{"point": "analysis.net", "match": "net0",'
                        ' "action": "convergence"}]')
        ckpt = tmp_path / "run.jsonl"
        try:
            code = main(["screen", "--seed", "3", "--count", "2",
                         "--inject", str(plan),
                         "--checkpoint", str(ckpt)])
        finally:
            clear_faults()
        out = capsys.readouterr().out
        assert code == 1
        assert "ConvergenceError x1" in out
        assert len(load_checkpoint(ckpt)) == 2

        code = main(["screen", "--seed", "3", "--count", "2",
                     "--checkpoint", str(ckpt), "--resume"])
        out = capsys.readouterr().out
        assert code == 1
        assert "2 resumed from checkpoint" in out


class TestTieredScreening:
    """``screen --noise-threshold``: the tiered triage front end."""

    def test_audit_rate_requires_threshold(self, capsys):
        code = main(["screen", "--count", "1",
                     "--prune-audit-rate", "0.5"])
        assert code == 2
        assert "--noise-threshold" in capsys.readouterr().out

    def test_audit_rate_range_validated(self, capsys):
        code = main(["screen", "--count", "1",
                     "--noise-threshold", "0.5",
                     "--prune-audit-rate", "1.5"])
        assert code == 2
        assert "[0, 1]" in capsys.readouterr().out

    def test_all_pruned_run_skips_tier2(self, tmp_path, capsys):
        """An unreachable threshold prunes every net at tier 0: no
        table rows, no characterization of the pruned nets, and the
        manifest records the per-tier split."""
        from repro.obs import load_manifest

        manifest_file = tmp_path / "run.json"
        metrics().reset()
        code = main(["screen", "--preset", "screening", "--seed", "3",
                     "--count", "4", "--noise-threshold", "100",
                     "--manifest", str(manifest_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "# screening: threshold 100.000 V" in out
        assert "4 pruned (100.0%), 0 escalated" in out
        assert "net0" not in out  # pruned nets render no table row

        payload = load_manifest(manifest_file)
        sc = payload["screening"]
        assert sc["pruned"] == 4
        assert sc["by_tier"]["0"] == 4
        assert sc["escalated"] == 0
        assert payload["config"]["noise_threshold"] == 100.0
        assert payload["config"]["tier_policy"] == "auto"
        assert "triage" in payload["stages"]

    def test_full_policy_analyzes_all(self, capsys):
        code = main(["screen", "--seed", "3", "--count", "1",
                     "--noise-threshold", "100",
                     "--tier-policy", "full"])
        out = capsys.readouterr().out
        assert code == 0
        assert "net0" in out  # escalated by policy, so a row renders
        assert "1 escalated" in out

    def test_clean_prune_audit(self, capsys):
        code = main(["screen", "--preset", "screening", "--seed", "3",
                     "--count", "2", "--noise-threshold", "100",
                     "--prune-audit-rate", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# prune audit: 2/2 pruned net(s) re-run at tier 2, " \
            "0 unsound" in out


class TestObservability:
    SUMMARY_COLUMNS = ("stage", "count", "total s", "self s",
                       "p50 ms", "p95 ms")

    def test_bare_invocation_prints_help_exit_2(self, capsys):
        assert main([]) == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err
        assert captured.out == ""

    def test_screen_trace_metrics_and_summarize(self, tmp_path,
                                                capsys):
        """End-to-end: ``screen --trace/--manifest`` writes artifacts
        that ``trace summarize`` and plain JSON tooling can consume; the
        manifest's ``"metrics"`` block is the metrics registry."""
        from repro.obs import load_manifest
        trace_file = tmp_path / "run.jsonl"
        manifest_file = tmp_path / "run.json"
        # The registry is process-global and cumulative; zero it so the
        # written metrics describe this run alone.
        metrics().reset()
        try:
            code = main(["screen", "--seed", "3", "--count", "1",
                         "--trace", str(trace_file),
                         "--manifest", str(manifest_file)])
        finally:
            disable_tracing()
        out = capsys.readouterr().out
        assert code == 0
        assert f"spans to {trace_file}" in out
        assert f"manifest to {manifest_file}" in out

        records = read_trace(trace_file)
        names = {r["name"] for r in records}
        assert {"net.analyze", "net.superposition", "net.alignment",
                "net.receiver_eval", "exec.analyze_nets"} <= names
        net_spans = [r for r in records if r["name"] == "net.analyze"]
        assert [r["attrs"]["net"] for r in net_spans] == ["net0"]

        payload = load_manifest(manifest_file)["metrics"]
        assert payload["counters"]["analysis.nets"] == 1
        assert payload["histograms"]["newton.iterations"]["count"] > 0

        code = main(["trace", "summarize", str(trace_file)])
        out = capsys.readouterr().out
        assert code == 0
        for column in self.SUMMARY_COLUMNS:
            assert column in out
        assert "net.analyze" in out
        assert "total traced time" in out

    def test_trace_summarize_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 1
        captured = capsys.readouterr()
        assert "no spans" in captured.out

    def test_quiet_suppresses_program_output(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        trace_file.write_text(json.dumps(
            {"id": 1, "parent": None, "name": "net.analyze",
             "start": 0.0, "dur": 0.5, "attrs": {}}) + "\n")
        assert main(["-q", "trace", "summarize",
                     str(trace_file)]) == 0
        assert capsys.readouterr().out == ""

    def test_verbose_flag_parses(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        trace_file.write_text(json.dumps(
            {"id": 1, "parent": None, "name": "net.analyze",
             "start": 0.0, "dur": 0.5, "attrs": {}}) + "\n")
        assert main(["-v", "trace", "summarize",
                     str(trace_file)]) == 0
        assert "net.analyze" in capsys.readouterr().out


class TestRunLedger:
    """``--manifest``/``--progress``, ``report`` and ``trace export``."""

    def test_screen_manifest_and_progress(self, tmp_path, capsys):
        from repro.obs import load_manifest

        manifest_file = tmp_path / "run.json"
        metrics().reset()
        code = main(["screen", "--seed", "3", "--count", "2",
                     "--manifest", str(manifest_file), "--progress"])
        captured = capsys.readouterr()
        assert code == 0
        assert f"manifest to {manifest_file}" in captured.out
        # The live progress line renders on stderr and terminates.
        assert "[2/2]" in captured.err
        assert "nets/s" in captured.err

        payload = load_manifest(manifest_file)
        assert payload["schema"] == "repro.obs.manifest/v1"
        assert payload["command"] == "screen"
        assert payload["config"]["seed"] == 3
        assert payload["git"]["revision"]  # tests run in a checkout
        assert payload["host"]["cpu_count"] >= 1
        assert payload["resources"]["peak_rss_bytes"] > 0
        for stage in ("characterization", "analysis",
                      "functional-screen"):
            assert payload["stages"][stage] >= 0.0
        assert payload["progress"]["nets"] == 2
        assert payload["progress"]["total"] == 2
        # The acceptance budget: telemetry costs under 1% of the wall.
        assert payload["telemetry_overhead"]["fraction"] < 0.01
        assert payload["failures"]["total"] == 0

        # `repro report` renders the ledger back.
        code = main(["report", str(manifest_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "run: screen" in out
        assert "git:" in out
        assert "peak RSS" in out
        assert "telemetry overhead" in out

    def test_manifest_counters_parity_serial_vs_parallel(self,
                                                         tmp_path,
                                                         capsys):
        """jobs=1 and jobs=2 manifests report identical counter
        totals — the worker drain/absorb path loses nothing."""
        from repro.obs import load_manifest

        serial_file = tmp_path / "serial.json"
        parallel_file = tmp_path / "parallel.json"
        metrics().reset()
        assert main(["screen", "--seed", "3", "--count", "2",
                     "--manifest", str(serial_file)]) == 0
        metrics().reset()
        assert main(["screen", "--seed", "3", "--count", "2",
                     "--jobs", "2",
                     "--manifest", str(parallel_file)]) == 0
        capsys.readouterr()
        serial = load_manifest(serial_file)["metrics"]["counters"]
        parallel = load_manifest(parallel_file)["metrics"]["counters"]

        # Solver-cache hit/miss counters track per-process LRU state,
        # which legitimately differs between one warm parent and two
        # cold workers, and the pool path registers still-zero crash
        # counters the serial path never touches; every counter that
        # recorded analysis *work* must agree exactly.
        def work(counters):
            return {name: value for name, value in counters.items()
                    if value and "_cache." not in name}

        assert work(serial) == work(parallel)
        assert serial["analysis.nets"] == 2

    def test_report_rejects_foreign_json(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "not/a-manifest"}))
        assert main(["report", str(path)]) == 1
        assert "not a run manifest" in capsys.readouterr().out

    def test_trace_export_chrome(self, tmp_path, capsys):
        trace_file = tmp_path / "run.jsonl"
        chrome_file = tmp_path / "chrome.json"
        metrics().reset()
        try:
            assert main(["screen", "--seed", "3", "--count", "1",
                         "--trace", str(trace_file)]) == 0
        finally:
            disable_tracing()
        assert main(["trace", "export", str(trace_file),
                     "--chrome", str(chrome_file)]) == 0
        assert "ui.perfetto.dev" in capsys.readouterr().out

        payload = json.loads(chrome_file.read_text())
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert events
        for event in events:
            assert event["pid"] == 1
            assert event["tid"] >= 1
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        # Same-track events nest properly (parent encloses child).
        by_tid = {}
        for event in events:
            by_tid.setdefault(event["tid"], []).append(event)
        for tid_events in by_tid.values():
            tid_events.sort(key=lambda e: (e["ts"], -e["dur"]))
            for a, b in zip(tid_events, tid_events[1:]):
                a_end = a["ts"] + a["dur"]
                assert b["ts"] + b["dur"] <= a_end or b["ts"] >= a_end

    def test_trace_export_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "export", str(empty),
                     "--chrome", str(tmp_path / "c.json")]) == 1
        assert "no spans" in capsys.readouterr().out
