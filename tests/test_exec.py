"""Tests for repro.exec (parallel net-analysis engine)."""

import pytest

from repro.bench.netgen import canonical_net
from repro.bench.runner import extra_delay_arrays
from repro.exec import (
    ExecResult,
    ExecStats,
    NetFailure,
    analyze_nets,
    build_snapshot,
    restore_analyzer,
)
from repro.units import FF, NS


@pytest.fixture(scope="module")
def population():
    """Three small nets sharing the session analyzer's cell family."""
    return [
        canonical_net(n_aggressors=1, name="net0"),
        canonical_net(n_aggressors=1, coupling_ratio=0.7, name="net1"),
        canonical_net(n_aggressors=1, receiver_load=20 * FF, name="net2"),
    ]


@pytest.fixture(scope="module")
def serial_result(analyzer, population):
    return analyze_nets(population, jobs=1, analyzer=analyzer,
                        alignment="table")


class TestSerial:
    def test_reports_in_input_order(self, serial_result, population):
        assert serial_result.ok
        assert [r.net_name for r in serial_result.reports] == \
            [n.name for n in population]

    def test_stats(self, serial_result):
        s = serial_result.stats
        assert s.jobs == 1
        assert s.nets == 3
        assert s.failures == 0
        assert s.wall_time > 0
        assert s.nets_per_second > 0

    def test_report_by_name(self, serial_result):
        rep = serial_result.report("net1")
        assert rep.net_name == "net1"
        with pytest.raises(KeyError, match="no net named"):
            serial_result.report("missing")


class TestParallelEquivalence:
    def test_bit_identical_to_serial(self, analyzer, population,
                                     serial_result):
        """jobs=4 workers warm-started from the snapshot reproduce the
        serial reports bit-for-bit, with zero characterization misses."""
        parallel = analyze_nets(population, jobs=4, analyzer=analyzer,
                                alignment="table")
        assert parallel.ok
        assert [r.net_name for r in parallel.reports] == \
            [n.name for n in population]
        for ser, par in zip(serial_result.reports, parallel.reports):
            assert par.extra_delay_output == ser.extra_delay_output
            assert par.extra_delay_input == ser.extra_delay_input
            assert par.rtr == ser.rtr
            assert par.pulse_height == ser.pulse_height
            assert par.victim_slew == ser.victim_slew
            assert par.aggressor_shifts == ser.aggressor_shifts
        # Warm start means no worker ever re-characterizes.
        assert parallel.stats.cache_misses == 0
        assert parallel.stats.cache_hits > 0
        assert parallel.stats.jobs == 4
        assert parallel.stats.nets_per_second > 0


class TestFailures:
    def test_per_net_failure_captured(self, analyzer):
        good = canonical_net(n_aggressors=1, name="good")
        broken = canonical_net(n_aggressors=1, name="broken")
        broken.aggressors.clear()
        result = analyze_nets([broken, good], jobs=2, analyzer=analyzer,
                              alignment="table")
        assert not result.ok
        assert result.reports[0] is None
        assert result.reports[1].net_name == "good"
        (failure,) = result.failures
        assert failure.net_name == "broken"
        assert "ValueError" in failure.error
        assert "no aggressors" in failure.error
        assert "Traceback" in failure.traceback
        assert result.stats.failures == 1
        with pytest.raises(KeyError, match="failed"):
            result.report("broken")
        with pytest.raises(RuntimeError, match="broken: ValueError"):
            result.raise_on_failure()

    def test_timeout_becomes_failure(self, analyzer):
        net = canonical_net(n_aggressors=1, name="slowpoke")
        result = analyze_nets([net], jobs=1, analyzer=analyzer,
                              timeout=0.001, alignment="table")
        assert result.reports == [None]
        (failure,) = result.failures
        assert "NetTimeout" in failure.error

    def test_jobs_validated(self, analyzer):
        with pytest.raises(ValueError, match="jobs"):
            analyze_nets([], jobs=0, analyzer=analyzer)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_nonpositive_timeout_rejected(self, analyzer, population,
                                          jobs):
        """``timeout <= 0`` is an error in both modes, not an unbounded
        serial run or an instant kill of every pooled net."""
        for timeout in (0, -1.0):
            with pytest.raises(ValueError, match="timeout"):
                analyze_nets(population, jobs=jobs, analyzer=analyzer,
                             timeout=timeout, alignment="table")

    def test_raise_on_failure_noop_when_ok(self):
        result = ExecResult(reports=[], failures=[],
                            stats=ExecStats(jobs=1))
        result.raise_on_failure()  # must not raise

    def test_failure_record_fields(self):
        f = NetFailure(net_name="n", error="ValueError: x",
                       traceback="tb")
        assert (f.net_name, f.error, f.traceback) == \
            ("n", "ValueError: x", "tb")

    def test_failure_record_round_trips(self):
        f = NetFailure(net_name="n", error="ValueError: x",
                       traceback="tb", error_type="ValueError")
        assert NetFailure.from_dict(f.to_dict()) == f

    def test_report_lookup_uses_cached_index(self, serial_result):
        """Name lookups build the index once and reuse it (O(1) per
        call), instead of scanning the report list every time."""
        serial_result.report("net0")
        index = serial_result.__dict__.get("_by_name")
        assert index is not None
        serial_result.report("net2")
        assert serial_result.__dict__.get("_by_name") is index


class TestSnapshot:
    def test_roundtrip_preserves_caches(self, analyzer, population,
                                        serial_result):
        snapshot = build_snapshot(analyzer)
        restored = restore_analyzer(snapshot)
        assert len(restored.cache) == len(analyzer.cache)
        assert len(restored.alignment_tables()) == \
            len(analyzer.alignment_tables())
        # The restored analyzer answers from cache, not by building.
        restored.cache.table_for(population[0].victim_driver)
        assert restored.cache.misses == 0
        assert restored.cache.hits == 1


class TestHeartbeats:
    def test_serial_heartbeats_in_input_order(self, analyzer,
                                              population):
        beats = []
        result = analyze_nets(population, jobs=1, analyzer=analyzer,
                              alignment="table",
                              on_heartbeat=beats.append)
        assert [b.net for b in beats] == [n.name for n in population]
        assert all(b.seconds >= 0.0 for b in beats)
        assert all(b.rss_bytes > 0 for b in beats)
        assert all(b.pid != 0 for b in beats)
        assert not any(b.failed for b in beats)
        assert result.stats.peak_rss_bytes > 0

    def test_parallel_heartbeats_cover_population(self, analyzer,
                                                  population):
        beats = []
        result = analyze_nets(population, jobs=2, analyzer=analyzer,
                              alignment="table",
                              on_heartbeat=beats.append)
        assert sorted(b.net for b in beats) == \
            sorted(n.name for n in population)
        assert all(b.rss_bytes > 0 for b in beats)
        assert result.stats.peak_rss_bytes > 0

    def test_failed_net_still_beats(self, analyzer):
        broken = canonical_net(n_aggressors=1, name="broken")
        broken.aggressors.clear()
        beats = []
        result = analyze_nets([broken], jobs=1, analyzer=analyzer,
                              alignment="table",
                              on_heartbeat=beats.append)
        assert not result.ok
        (beat,) = beats
        assert beat.net == "broken"
        assert beat.failed


class TestTierLabels:
    def test_pruned_nets_carry_no_report_and_no_failure(
            self, analyzer, population):
        beats = []
        labels = {"net0": 0, "net1": 2, "net2": 1}
        result = analyze_nets(population, jobs=1, analyzer=analyzer,
                              alignment="table", tier_labels=labels,
                              on_heartbeat=beats.append)
        assert result.ok  # pruned is not failed
        assert result.reports[0] is None
        assert result.reports[1] is not None
        assert result.reports[2] is None
        assert not result.failures
        assert result.stats.pruned == 2
        assert result.stats.pruned_by_tier == {0: 1, 1: 1}
        assert not result.analyzed("net0")
        assert result.analyzed("net1")
        assert not result.analyzed("net2")
        # One tier-tagged heartbeat per net, pruned ones included.
        tiers = {b.net: b.tier for b in beats}
        assert tiers == {"net0": 0, "net1": 2, "net2": 1}

    def test_missing_names_default_to_tier2(self, analyzer, population):
        result = analyze_nets(population, jobs=1, analyzer=analyzer,
                              alignment="table",
                              tier_labels={"net0": 0})
        assert result.reports[0] is None
        assert all(r is not None for r in result.reports[1:])
        assert result.stats.pruned == 1

    def test_unknown_net_name_rejected(self, analyzer, population):
        with pytest.raises(ValueError, match="unknown nets"):
            analyze_nets(population, jobs=1, analyzer=analyzer,
                         tier_labels={"nope": 0})

    def test_bad_tier_value_rejected(self, analyzer, population):
        with pytest.raises(ValueError, match="tier labels"):
            analyze_nets(population, jobs=1, analyzer=analyzer,
                         tier_labels={"net0": 3})

    def test_run_hash_unchanged_without_labels(self, population):
        """tier_labels=None must hash exactly like the pre-screening
        code: old checkpoints stay resumable."""
        from repro.exec.pool import _run_identity
        kwargs = {"alignment": "table"}
        base = _run_identity(population, kwargs)
        assert _run_identity(population, kwargs,
                             tier_labels=None) == base
        assert _run_identity(population, kwargs,
                             tier_labels={"net0": 0}) != base


class TestBenchFront:
    def test_extra_delay_arrays_skip_failures(self, serial_result):
        reports = list(serial_result.reports) + [None]
        inp, out = extra_delay_arrays(reports)
        assert inp.shape == out.shape == (3,)
        assert (out > 0).all()
