"""Tests for the resilience layer.

Covers the fault-injection registry, the Newton recovery ladder,
graceful degradation of the per-net flow, the crash-safe pool
(serial and jobs=2, including the watchdog's timeout and a hang among
crash suspects), the circuit breaker, checkpoint/resume, the
nested-timer restoration of the serial per-net timeout, and the
block-level ``on_failure="hold"`` policy.
"""

import json
import os
import signal
import time

import pytest

from repro.bench.netgen import canonical_net
from repro.exec import NetFailure, TooManyFailures, analyze_nets
from repro.exec.pool import _time_limit
from repro.obs import metrics
from repro.resilience import (
    CheckpointWriter,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    WorkerCrash,
    active_plan,
    clear_faults,
    fire,
    install_faults,
    load_checkpoint,
)
from repro.sim import ConvergenceError, simulate_nonlinear
from repro.storage import noise_report_to_dict
from repro.units import FF, NS, PS


@pytest.fixture(autouse=True)
def no_leaked_faults():
    """Every test starts and ends without an installed fault plan."""
    clear_faults()
    yield
    clear_faults()


# ----------------------------------------------------------------------
# Fault registry
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec(point="nope")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(point="exec.worker", action="nope")

    def test_substring_match(self):
        spec = FaultSpec(point="analysis.net", match="net1")
        assert spec.matches("analysis.net", "net1")
        assert spec.matches("analysis.net", "xx net1 yy")
        assert not spec.matches("analysis.net", "net2")
        assert not spec.matches("analysis.rtr", "net1")

    def test_times_budget(self):
        install_faults(FaultPlan().add(
            "analysis.net", action="error", times=2))
        with pytest.raises(InjectedFault):
            fire("analysis.net", "n")
        with pytest.raises(InjectedFault):
            fire("analysis.net", "n")
        fire("analysis.net", "n")  # budget exhausted: no-op

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan().add("exec.worker", match="n2",
                               action="crash", times=1)
        plan.add("analysis.net", action="sleep", seconds=0.5)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        loaded = FaultPlan.from_file(path)
        assert loaded.specs == plan.specs

    def test_install_and_clear(self):
        plan = install_faults(FaultPlan().add("exec.worker"))
        assert active_plan() is plan
        clear_faults()
        assert active_plan() is None
        fire("exec.worker", "anything")  # no plan: no-op

    def test_serial_crash_action_raises(self):
        install_faults(FaultPlan().add("exec.worker", action="crash"))
        with pytest.raises(WorkerCrash):
            fire("exec.worker", "n0")

    def test_sleep_action_sleeps(self):
        install_faults(FaultPlan().add(
            "exec.worker", action="sleep", seconds=0.05))
        t0 = time.monotonic()
        fire("exec.worker", "n0")
        assert time.monotonic() - t0 >= 0.05


# ----------------------------------------------------------------------
# Per-net timeout: nested SIGALRM timers
# ----------------------------------------------------------------------
class TestTimeLimitNesting:
    def test_outer_timer_restored(self):
        """An inner _time_limit must re-arm an outer pending ITIMER_REAL
        (it used to disarm it, silently cancelling the outer deadline)."""
        fired = []
        previous = signal.signal(signal.SIGALRM,
                                 lambda *_: fired.append(True))
        try:
            signal.setitimer(signal.ITIMER_REAL, 5.0)
            with _time_limit(0.5):
                pass
            remaining, _ = signal.getitimer(signal.ITIMER_REAL)
            assert 0.0 < remaining <= 5.0
            # The outer handler is back in place too.
            assert signal.getsignal(signal.SIGALRM) is not None
            assert not fired
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_lapsed_outer_deadline_still_fires(self):
        """If the outer deadline passes while the inner limit holds the
        timer, the outer alarm is re-armed minimally, not dropped."""
        fired = []
        previous = signal.signal(signal.SIGALRM,
                                 lambda *_: fired.append(True))
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.02)
            with _time_limit(5.0):
                time.sleep(0.05)  # outer deadline lapses in here
            deadline = time.monotonic() + 2.0
            while not fired and time.monotonic() < deadline:
                time.sleep(0.005)
            assert fired
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_no_timer_left_behind(self):
        with _time_limit(1.0):
            pass
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        assert remaining == 0.0


# ----------------------------------------------------------------------
# Checkpoint file
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        writer = CheckpointWriter(path)
        writer.append("n0", "report", {"x": 1.5})
        writer.append("n1", "failure", {"error": "boom"})
        loaded = load_checkpoint(path)
        assert set(loaded) == {"n0", "n1"}
        assert loaded["n0"]["kind"] == "report"
        assert loaded["n0"]["data"] == {"x": 1.5}
        assert loaded["n1"]["kind"] == "failure"

    def test_missing_file_is_empty(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.jsonl") == {}

    def test_invalid_kind_rejected(self, tmp_path):
        writer = CheckpointWriter(tmp_path / "ck.jsonl")
        with pytest.raises(ValueError, match="kind"):
            writer.append("n0", "banana", {})

    def test_fresh_writer_unlinks_stale_file(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        CheckpointWriter(path).append("old", "report", {})
        CheckpointWriter(path, resume=False)
        assert not path.exists()

    def test_resume_preserves_existing_records(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        CheckpointWriter(path).append("n0", "report", {"v": 1})
        writer = CheckpointWriter(path, resume=True)
        writer.append("n1", "report", {"v": 2})
        assert set(load_checkpoint(path)) == {"n0", "n1"}

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text(json.dumps(
            {"format_version": 999, "net": "n", "kind": "report",
             "data": {}}) + "\n")
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)

    def test_append_is_atomic(self, tmp_path, monkeypatch):
        """A crash mid-append (simulated by a failing os.replace) must
        leave the previous checkpoint contents intact on disk."""
        path = tmp_path / "ck.jsonl"
        writer = CheckpointWriter(path)
        writer.append("n0", "report", {"v": 1})
        before = path.read_text()

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            writer.append("n1", "report", {"v": 2})
        monkeypatch.undo()
        assert path.read_text() == before
        # No temp-file litter either.
        leftovers = [p for p in path.parent.iterdir() if p != path]
        assert leftovers == []


# ----------------------------------------------------------------------
# Newton recovery ladder
# ----------------------------------------------------------------------
def _inverter(input_wave):
    from repro.circuit import GROUND, Circuit
    from repro.devices import default_technology, nmos_params, pmos_params
    from repro.units import UM
    from repro.waveform import ramp

    tech = default_technology()
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", GROUND, tech.vdd)
    c.add_vsource("vin", "in", GROUND,
                  ramp(0.2 * NS, 0.1 * NS, 0.0, tech.vdd)
                  if input_wave is None else input_wave)
    c.add_mosfet("mn", nmos_params(tech, 1e-6), "out", "in", GROUND)
    c.add_mosfet("mp", pmos_params(tech, 2.2e-6), "out", "in", "vdd")
    c.add_capacitor("cl", "out", GROUND, 20 * FF)
    return c, tech.vdd


class TestNewtonRecovery:
    def test_transient_substep_recovery(self):
        """A one-shot injected non-convergence on a transient step is
        healed by dt bisection; the result still reaches the rail."""
        counter = metrics().counter("newton.recovered.substep")
        before = counter.value
        circuit, vdd = _inverter(None)
        install_faults(FaultPlan().add(
            "newton.step", match="t=", action="convergence", times=1))
        result = simulate_nonlinear(circuit, 2 * NS, 1 * PS)
        assert counter.value == before + 1
        assert result.voltage("out").values[-1] == \
            pytest.approx(0.0, abs=0.01)

    def test_dc_gmin_recovery(self):
        counter = metrics().counter("newton.recovered.gmin")
        before = counter.value
        circuit, vdd = _inverter(None)
        install_faults(FaultPlan().add(
            "newton.step", match="DC operating point",
            action="convergence", times=1))
        result = simulate_nonlinear(circuit, 0.05 * NS, 1 * PS)
        assert counter.value == before + 1
        assert result.voltage("out")(0.0) == pytest.approx(vdd, abs=0.01)

    def test_exhausted_ladder_still_raises(self):
        """Unlimited injected non-convergence defeats every rung, and
        the original ConvergenceError escapes."""
        circuit, _ = _inverter(None)
        install_faults(FaultPlan().add(
            "newton.step", action="convergence"))
        with pytest.raises(ConvergenceError):
            simulate_nonlinear(circuit, 0.05 * NS, 1 * PS)


# ----------------------------------------------------------------------
# Graceful degradation of the per-net flow
# ----------------------------------------------------------------------
class TestDegradation:
    def test_rtr_failure_falls_back_to_thevenin(self, analyzer,
                                                single_aggressor_net):
        install_faults(FaultPlan().add(
            "analysis.rtr", action="error"))
        report = analyzer.analyze(single_aggressor_net,
                                  alignment="table")
        assert report.quality == "degraded"
        stages = [d.stage for d in report.degradations]
        assert stages == ["rtr"]
        assert report.degradations[0].fallback == "thevenin-rth"
        # Without Rtr the holding resistance is the Thevenin Rth.
        assert report.rtr == pytest.approx(report.rth_victim)

    def test_alignment_failure_falls_back(self, analyzer,
                                          single_aggressor_net):
        install_faults(FaultPlan().add(
            "analysis.alignment", action="error"))
        report = analyzer.analyze(single_aggressor_net,
                                  alignment="table")
        assert report.quality == "degraded"
        assert any(d.stage == "alignment" and
                   d.fallback == "input-objective"
                   for d in report.degradations)

    def test_clean_run_is_exact_and_unchanged(self, analyzer,
                                              single_aggressor_net):
        install_faults(FaultPlan().add("analysis.rtr", action="error"))
        degraded = analyzer.analyze(single_aggressor_net,
                                    alignment="table")
        clear_faults()
        clean = analyzer.analyze(single_aggressor_net, alignment="table")
        assert clean.quality == "exact"
        assert clean.degradations == []
        # Degradation is conservative but different.
        assert degraded.rtr != pytest.approx(clean.rtr)

    def test_bad_parameter_still_raises(self, analyzer,
                                        single_aggressor_net):
        """Degradation must not swallow caller typos."""
        with pytest.raises(ValueError, match="rtr_driver_load"):
            analyzer.analyze(single_aggressor_net,
                             rtr_driver_load="banana")


# ----------------------------------------------------------------------
# Crash-safe pool
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pool_nets():
    return [canonical_net(n_aggressors=1, name=f"rn{i}")
            for i in range(3)]


class TestPoolResilience:
    def test_duplicate_names_rejected(self):
        nets = [canonical_net(n_aggressors=1, name="dup"),
                canonical_net(n_aggressors=1, name="dup")]
        with pytest.raises(ValueError, match="unique.*dup"):
            analyze_nets(nets)

    def test_serial_worker_crash_classified(self, analyzer, pool_nets):
        install_faults(FaultPlan().add(
            "exec.worker", match="rn1", action="crash"))
        result = analyze_nets(pool_nets, jobs=1, analyzer=analyzer,
                              alignment="table")
        assert result.stats.failures_by_type == {"WorkerCrash": 1}
        assert result.reports[1] is None
        assert result.reports[0] is not None
        assert result.reports[2] is not None

    def test_mixed_failure_types(self, analyzer, pool_nets):
        """Timeout and convergence failures are tallied separately.

        The budget is about ten times a healthy net's analysis time
        (about 1 s warm on a 2-vCPU host), so only the injected hang,
        which sleeps far past it, can trip it."""
        plan = FaultPlan()
        plan.add("analysis.net", match="rn0", action="convergence")
        plan.add("analysis.net", match="rn1", action="sleep",
                 seconds=600.0)
        install_faults(plan)
        result = analyze_nets(pool_nets, jobs=1, analyzer=analyzer,
                              timeout=10.0, alignment="table")
        assert result.stats.failures_by_type["ConvergenceError"] == 1
        assert result.stats.failures_by_type["NetTimeout"] == 1
        assert result.reports[2].quality == "exact"

    @pytest.mark.parametrize("point", ["analysis.rtr",
                                       "analysis.alignment"])
    def test_deadline_passes_degradation_handlers(self, analyzer,
                                                  pool_nets, point):
        """A net whose budget runs out inside a degradable stage fails
        as a timeout.  The stage's fallback must not swallow the
        deadline, report the net degraded and let it run on."""
        install_faults(FaultPlan().add(point, match="rn0", action="sleep",
                                       seconds=600.0))
        result = analyze_nets(pool_nets[:1], jobs=1, analyzer=analyzer,
                              timeout=5.0, alignment="table")
        assert result.reports == [None]
        assert [f.error_type for f in result.failures] == ["NetTimeout"]
        assert result.stats.failures_by_type == {"NetTimeout": 1}

    def test_max_failures_breaker(self, analyzer, pool_nets):
        install_faults(FaultPlan().add(
            "analysis.net", action="convergence"))
        with pytest.raises(TooManyFailures, match="aborting"):
            analyze_nets(pool_nets, jobs=1, analyzer=analyzer,
                         max_failures=1, alignment="table")

    def test_max_failures_fraction(self, analyzer, pool_nets):
        install_faults(FaultPlan().add(
            "analysis.net", action="convergence"))
        # 3 nets * 0.5 = 1.5: the second failure trips the breaker.
        with pytest.raises(TooManyFailures):
            analyze_nets(pool_nets, jobs=1, analyzer=analyzer,
                         max_failures=0.5, alignment="table")

    def test_parallel_crash_matches_serial(self, analyzer, pool_nets):
        """jobs=2 with a crashing net: the crasher is attributed and
        retried in isolation, the others complete bit-identically to a
        serial run, and no BrokenProcessPool escapes."""
        install_faults(FaultPlan().add(
            "exec.worker", match="rn1", action="crash"))
        parallel = analyze_nets(pool_nets, jobs=2, analyzer=analyzer,
                                alignment="table", retries=1)
        clear_faults()
        serial = analyze_nets(pool_nets, jobs=1, analyzer=analyzer,
                              alignment="table")
        assert parallel.stats.failures_by_type == {"WorkerCrash": 1}
        assert parallel.stats.worker_crashes >= 1
        assert parallel.stats.retries == 1
        for i in (0, 2):
            assert noise_report_to_dict(parallel.reports[i]) == \
                noise_report_to_dict(serial.reports[i])

    def test_pool_timeout_matches_serial(self, analyzer, pool_nets):
        """At jobs=2 the parent's watchdog enforces ``timeout``: a net
        that hangs far past a budget about ten times a healthy net's
        time fails with the serial path's NetTimeout, and the other
        net's report is bit-identical to a serial run."""
        install_faults(FaultPlan().add(
            "exec.worker", match="rn0", action="sleep", seconds=600.0))
        parallel = analyze_nets(pool_nets[:2], jobs=2, analyzer=analyzer,
                                timeout=10.0, alignment="table")
        clear_faults()
        serial = analyze_nets(pool_nets[1:2], jobs=1, analyzer=analyzer,
                              alignment="table")
        assert parallel.reports[0] is None
        assert [f.error for f in parallel.failures] == \
            ["NetTimeout: net analysis exceeded 10 s"]
        assert parallel.stats.failures_by_type == {"NetTimeout": 1}
        assert noise_report_to_dict(parallel.reports[1]) == \
            noise_report_to_dict(serial.reports[0])

    def test_hang_while_suspect(self, analyzer):
        """A net hanging when another net crashes the pool becomes a
        crash suspect; suspects run under the same watchdog, so the
        hang is killed as a WorkerHang instead of running out its
        sleep in isolation, and the crasher is still a WorkerCrash."""
        nets = [canonical_net(n_aggressors=1, name=f"p{i}")
                for i in range(8)]
        plan = FaultPlan()
        plan.add("exec.worker", match="p5", action="sleep", seconds=60.0)
        plan.add("exec.worker", match="p6", action="crash")
        install_faults(plan)
        t0 = time.monotonic()
        parallel = analyze_nets(nets, jobs=2, analyzer=analyzer,
                                retries=0, alignment="table")
        wall = time.monotonic() - t0
        clear_faults()
        healthy = [net for net in nets if net.name not in ("p5", "p6")]
        serial = analyze_nets(healthy, jobs=1, analyzer=analyzer,
                              alignment="table")
        assert {f.net_name: f.error_type for f in parallel.failures} == \
            {"p5": "WorkerHang", "p6": "WorkerCrash"}
        assert parallel.stats.watchdog_kills == 1
        assert wall < 30.0
        by_name = {r.net_name: r for r in parallel.reports
                   if r is not None}
        for report in serial.reports:
            assert noise_report_to_dict(by_name[report.net_name]) == \
                noise_report_to_dict(report)

    def test_report_lookup_after_failure(self, analyzer, pool_nets):
        install_faults(FaultPlan().add(
            "exec.worker", match="rn1", action="crash"))
        result = analyze_nets(pool_nets, jobs=1, analyzer=analyzer,
                              alignment="table")
        assert result.report("rn0").net_name == "rn0"
        with pytest.raises(KeyError, match="failed"):
            result.report("rn1")
        with pytest.raises(KeyError, match="no net named"):
            result.report("absent")


class TestCheckpointResume:
    def test_resume_analyzes_only_remaining(self, analyzer, pool_nets,
                                            tmp_path):
        path = tmp_path / "run.jsonl"
        full = analyze_nets(pool_nets, jobs=1, analyzer=analyzer,
                            alignment="table", checkpoint=path)
        lines = path.read_text().splitlines()
        # Header line plus one record per net.
        assert len(lines) == 4

        # Simulate a kill after the first net (keeping the header).
        path.write_text(lines[0] + "\n" + lines[1] + "\n")
        # A crash fault on the already-checkpointed net proves it is
        # NOT re-analyzed on resume.
        install_faults(FaultPlan().add(
            "exec.worker", match="rn0", action="crash"))
        resumed = analyze_nets(pool_nets, jobs=1, analyzer=analyzer,
                               alignment="table", checkpoint=path,
                               resume=True)
        assert resumed.ok
        assert resumed.stats.resumed == 1
        for a, b in zip(full.reports, resumed.reports):
            assert noise_report_to_dict(a) == noise_report_to_dict(b)
        assert len(path.read_text().splitlines()) == 4

    def test_failures_survive_resume(self, analyzer, pool_nets,
                                     tmp_path):
        path = tmp_path / "run.jsonl"
        install_faults(FaultPlan().add(
            "analysis.net", match="rn1", action="convergence"))
        first = analyze_nets(pool_nets, jobs=1, analyzer=analyzer,
                             alignment="table", checkpoint=path)
        clear_faults()
        resumed = analyze_nets(pool_nets, jobs=1, analyzer=analyzer,
                               alignment="table", checkpoint=path,
                               resume=True)
        assert resumed.stats.resumed == 3
        assert [f.net_name for f in resumed.failures] == ["rn1"]
        assert resumed.failures[0].error_type == \
            first.failures[0].error_type


# ----------------------------------------------------------------------
# Block-level on_failure policy
# ----------------------------------------------------------------------
class TestBlockOnFailure:
    def _block(self, analyzer):
        from repro.core.block import BlockAnalyzer, BlockNet
        from repro.sta import TimingGraph, Window

        graph = TimingGraph()
        graph.add_input("launch", Window(0.1 * NS, 0.2 * NS))
        graph.add_input("agg_in", Window(0.0, 0.6 * NS))
        graph.add_edge("launch", "rcv_out", 0.3 * NS, 0.5 * NS)
        graph.add_edge("agg_in", "agg_out", 0.02 * NS, 0.05 * NS)
        net = BlockNet(net=canonical_net(name="holdnet"),
                       launch_node="launch", receiver_node="rcv_out",
                       aggressor_nodes={"agg0": "agg_out"})
        return BlockAnalyzer(graph, [net], analyzer), graph

    def test_invalid_policy_rejected(self, analyzer):
        block, _ = self._block(analyzer)
        with pytest.raises(ValueError, match="on_failure"):
            block.run(on_failure="banana")

    def test_raise_policy_aborts(self, analyzer):
        block, _ = self._block(analyzer)
        install_faults(FaultPlan().add(
            "analysis.net", match="holdnet", action="convergence"))
        with pytest.raises(RuntimeError, match="holdnet"):
            block.run(max_iterations=2)

    def test_hold_policy_completes(self, analyzer):
        block, graph = self._block(analyzer)
        before = graph.edge_delay("launch", "rcv_out")
        install_faults(FaultPlan().add(
            "analysis.net", match="holdnet", action="convergence"))
        report = block.run(max_iterations=2, on_failure="hold")
        assert "holdnet" in report.failures
        assert "ConvergenceError" in report.failures["holdnet"]
        assert report.deltas["holdnet"] == 0.0
        # The failing net's arc kept its seed delay.
        assert graph.edge_delay("launch", "rcv_out") == before
