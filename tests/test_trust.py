"""Numerical-trust layer: residual audits, escalation, watchdog, audit.

Covers the trust-but-verify machinery end to end: the residual/condition
primitives in :mod:`repro.trust`, the bit-identity property (a clean run
is unchanged by verification — scalar, batched and linear paths), the
clean-path audit budget as a count of residual checks, the escalation
ladder under injected solver corruption, the adaptive hang deadline
(including the first-net warm-up regression), a hung worker warm-start
under the pool's watchdog and the RSS-budget path, the checkpoint
run-hash guard, and the differential audit against the dense
reference.
"""

import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro import trust
from repro.bench.netgen import NetGenerator, canonical_net
from repro.circuit import GROUND, Circuit
from repro.circuit.mna import build_mna
from repro.core.golden import golden_circuit
from repro.devices import default_technology, nmos_params, pmos_params
from repro.exec import analyze_nets
from repro.obs import metrics
from repro.obs.progress import (
    MIN_STRAGGLER_SAMPLES,
    WATCHDOG_CEILING_S,
    WATCHDOG_FLOOR_S,
    AdaptiveDeadline,
    Heartbeat,
    ProgressTracker,
)
from repro.resilience import (
    CheckpointWriter,
    FaultPlan,
    StaleCheckpoint,
    clear_faults,
    install_faults,
    load_checkpoint,
    load_checkpoint_header,
)
from repro.resilience.faults import FaultSpec
from repro.sim import (
    ConvergenceError,
    simulate_nonlinear,
    simulate_nonlinear_batch,
)
from repro.sim.factor import factorize
from repro.sim.linear import simulate_linear
from repro.sim.nonlinear import dense_reference
from repro.units import FF, KOHM, NS, PS, UM
from repro.waveform import ramp

TECH = default_technology()
VDD = TECH.vdd


@pytest.fixture(autouse=True)
def clean_trust_state():
    """No leaked faults, events or config changes between tests."""
    clear_faults()
    trust.drain_events()
    saved = trust.config()
    yield
    clear_faults()
    trust.drain_events()
    trust.configure(**dataclasses.asdict(saved))


def inverter_circuit(input_wave, c_load=20 * FF):
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", GROUND, VDD)
    c.add_vsource("vin", "in", GROUND, input_wave)
    c.add_mosfet("mn", nmos_params(TECH, 1 * UM), "out", "in", GROUND)
    c.add_mosfet("mp", pmos_params(TECH, 2.2 * UM), "out", "in", "vdd")
    c.add_capacitor("cl", "out", GROUND, c_load)
    return c


def rc_circuit(input_wave):
    c = Circuit("rc")
    c.add_vsource("vin", "in", GROUND, input_wave)
    c.add_resistor("r1", "in", "mid", 1 * KOHM)
    c.add_capacitor("c1", "mid", GROUND, 50 * FF)
    c.add_resistor("r2", "mid", "out", 2 * KOHM)
    c.add_capacitor("c2", "out", GROUND, 20 * FF)
    return c


def default_wave():
    return ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)


# ----------------------------------------------------------------------
# Residual and condition primitives
# ----------------------------------------------------------------------
class TestResidualMath:
    def test_zero_residual_is_zero(self):
        rel = trust.relative_residual(
            np.zeros(3), 1.0, np.ones(3), np.ones(3))
        assert rel == 0.0

    def test_scales_with_matrix_and_state_norms(self):
        r = np.array([1e-6, 0.0])
        x = np.array([1.0, 2.0])
        b = np.array([3.0, 0.0])
        rel = trust.relative_residual(r, 10.0, x, b, floor=1.0)
        # ||r|| / (||A|| * (||x|| + floor) + ||b||) with inf-norms.
        assert rel == pytest.approx(1e-6 / (10.0 * 3.0 + 3.0))

    def test_voltage_floor_prevents_zero_over_zero(self):
        rel = trust.relative_residual(
            np.array([1e-12]), 1.0, np.zeros(1), np.zeros(1))
        assert np.isfinite(rel) and rel > 0.0

    def test_nonfinite_residual_always_violates(self):
        assert trust.relative_residual(
            np.array([np.nan]), 1.0, np.ones(1), np.ones(1)) == np.inf
        assert trust.relative_residual(
            np.array([1.0]), 1.0, np.array([np.inf]),
            np.ones(1)) == np.inf

    def test_tolerance_grows_with_sqrt_dim(self):
        base = 1e-9
        assert trust.residual_tolerance(1, base) == base
        assert trust.residual_tolerance(100, base) == \
            pytest.approx(10.0 * base)

    def test_matrix_norm1_sparse_matches_dense(self):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((6, 6))
        assert trust.matrix_norm1(sp.csc_matrix(dense)) == \
            pytest.approx(trust.matrix_norm1(dense))


class TestConditionMonitoring:
    def test_ill_conditioned_factorization_counts(self):
        near_singular = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        fact = factorize(near_singular)
        counter = metrics().counter("trust.condition_warnings")
        before = counter.value
        rcond = trust.observe_factorization(fact, "test")
        if rcond is None:
            pytest.skip("backend has no rcond estimate")
        assert rcond < trust.config().rcond_min
        assert counter.value == before + 1

    def test_well_conditioned_factorization_quiet(self):
        fact = factorize(np.eye(3))
        counter = metrics().counter("trust.condition_warnings")
        before = counter.value
        rcond = trust.observe_factorization(fact, "test")
        assert rcond is None or rcond > trust.config().rcond_min
        assert counter.value == before

    def test_disabled_layer_is_noop(self):
        fact = factorize(np.eye(2))
        with trust.trust_mode(False):
            assert trust.observe_factorization(fact) is None


# ----------------------------------------------------------------------
# Property: a clean run is bit-identical with verification on or off
# ----------------------------------------------------------------------
class TestCleanPathBitIdentity:
    def test_scalar_transient(self):
        circuit = inverter_circuit(default_wave())
        with dense_reference(False):
            with trust.trust_mode(True):
                on = simulate_nonlinear(circuit, 1 * NS, 1 * PS)
            with trust.trust_mode(False):
                off = simulate_nonlinear(circuit, 1 * NS, 1 * PS)
        assert np.array_equal(on.states, off.states)
        assert not trust.drain_events()

    def test_batched_transient(self):
        waves = [ramp(0.2 * NS + i * 0.05 * NS, 0.1 * NS, 0.0, VDD)
                 for i in range(3)]
        circuit = inverter_circuit(waves[0])
        stimuli = [{"vin": w} for w in waves]
        with dense_reference(False):
            with trust.trust_mode(True):
                on = simulate_nonlinear_batch(circuit, stimuli,
                                              0.5 * NS, 1 * PS)
            with trust.trust_mode(False):
                off = simulate_nonlinear_batch(circuit, stimuli,
                                               0.5 * NS, 1 * PS)
        for a, b in zip(on, off):
            assert np.array_equal(a.states, b.states)
        assert not trust.drain_events()

    def test_linear_transient(self):
        circuit = rc_circuit(default_wave())
        mna = build_mna(circuit)
        with trust.trust_mode(True):
            on = simulate_linear(mna, 1 * NS, 1 * PS)
        with trust.trust_mode(False):
            off = simulate_linear(mna, 1 * NS, 1 * PS)
        assert np.array_equal(on.states, off.states)
        assert not trust.drain_events()

    def test_residual_checks_are_sampled(self):
        """The trusted run audits some solves but far from all."""
        circuit = inverter_circuit(default_wave())
        checks = metrics().counter("trust.residual_checks")
        before = checks.value
        with dense_reference(False), trust.trust_mode(True):
            run = simulate_nonlinear(circuit, 1 * NS, 1 * PS)
        sampled = checks.value - before
        steps = run.states.shape[1] - 1
        assert 0 < sampled < steps


# ----------------------------------------------------------------------
# Escalation ladder under injected solver corruption
# ----------------------------------------------------------------------
class TestEscalation:
    @pytest.mark.parametrize("kind", ["nan", "perturb"])
    def test_injected_corruption_recovers_exactly(self, kind):
        circuit = inverter_circuit(default_wave())
        with dense_reference(False), trust.trust_mode(True):
            clean = simulate_nonlinear(circuit, 0.5 * NS, 1 * PS).states
            trust.drain_events()
            install_faults(FaultPlan(specs=[FaultSpec(
                point="trust.verify", action=kind, times=1)]))
            try:
                faulted = simulate_nonlinear(circuit, 0.5 * NS,
                                             1 * PS).states
            finally:
                clear_faults()
        events = trust.drain_events()
        kinds = {e["kind"] for e in events}
        assert "violation" in kinds
        assert "escalated" in kinds
        assert np.isfinite(faulted).all()
        # The escalated hop re-solves the same system exactly.
        assert np.array_equal(faulted, clean)

    def test_analyzer_labels_trust_degradation(self, analyzer):
        """An escalation during analyze() flips the report quality and
        attaches a Degradation(stage="trust") provenance entry."""
        net = canonical_net(n_aggressors=1, name="trustnet")
        install_faults(FaultPlan(specs=[FaultSpec(
            point="trust.verify", action="nan", times=1)]))
        try:
            report = analyzer.analyze(net, alignment="table")
        finally:
            clear_faults()
        assert report.quality != "exact"
        stages = {d.stage for d in report.degradations}
        assert "trust" in stages
        hops = {d.fallback for d in report.degradations
                if d.stage == "trust"}
        assert hops and "none" not in hops

    def test_trust_violation_joins_recovery_ladders(self):
        assert issubclass(trust.TrustViolation, ConvergenceError)

    def test_batched_suspect_demoted_to_scalar(self):
        """Corrupting a batched block row flags the candidate and the
        scalar fallback re-solves it within the equivalence gate."""
        waves = [ramp(0.2 * NS + i * 0.05 * NS, 0.1 * NS, 0.0, VDD)
                 for i in range(3)]
        circuit = inverter_circuit(waves[0])
        stimuli = [{"vin": w} for w in waves]
        with dense_reference(False), trust.trust_mode(True):
            clean = simulate_nonlinear_batch(circuit, stimuli,
                                             0.5 * NS, 1 * PS)
            trust.drain_events()
            violations = metrics().counter("trust.batched.violations")
            before = violations.value
            # Match the block-solve context only: the same fault point
            # also guards the scalar DC solve that precedes the block
            # loop, which must not consume the single shot.
            install_faults(FaultPlan(specs=[FaultSpec(
                point="trust.verify", match="batch of", action="nan",
                times=1)]))
            try:
                faulted = simulate_nonlinear_batch(circuit, stimuli,
                                                   0.5 * NS, 1 * PS)
            finally:
                clear_faults()
        assert violations.value > before
        events = trust.drain_events()
        hops = {e["hop"] for e in events if e["kind"] == "escalated"}
        assert "scalar-resolve" in hops
        for a, b in zip(faulted, clean):
            assert np.isfinite(a.states).all()
            assert float(np.abs(a.states - b.states).max()) <= 1e-9


# ----------------------------------------------------------------------
# Adaptive hang deadline
# ----------------------------------------------------------------------
class TestAdaptiveDeadline:
    def make(self, durations, **kwargs):
        tracker = ProgressTracker(total=100)
        for i, seconds in enumerate(durations):
            tracker.record(Heartbeat(net=f"n{i}", seconds=seconds,
                                     rss_bytes=0))
        return AdaptiveDeadline(tracker, **kwargs)

    def test_first_net_without_static_timeout_never_kills(self):
        """Regression: before any net completes the rolling p95 is 0.0,
        and 4 x 0.0 would kill every first net instantly.  With no
        samples and no static timeout, hang detection must be off."""
        assert self.make([]).seconds() is None

    def test_first_net_falls_back_to_static_timeout(self):
        deadline = self.make([], static_timeout=30.0)
        assert deadline.seconds() == 30.0

    def test_below_sample_floor_stays_static(self):
        durations = [0.01] * (MIN_STRAGGLER_SAMPLES - 1)
        deadline = self.make(durations, static_timeout=30.0)
        assert deadline.seconds() == 30.0

    def test_adaptive_after_sample_floor(self):
        deadline = self.make([2.0] * MIN_STRAGGLER_SAMPLES)
        assert deadline.seconds() == pytest.approx(8.0)

    def test_floor_clamp_for_fast_populations(self):
        deadline = self.make([0.001] * MIN_STRAGGLER_SAMPLES)
        assert deadline.seconds() == WATCHDOG_FLOOR_S

    def test_ceiling_clamp_for_slow_populations(self):
        deadline = self.make([1000.0] * MIN_STRAGGLER_SAMPLES)
        assert deadline.seconds() == WATCHDOG_CEILING_S

    def test_static_timeout_is_an_upper_bound(self):
        deadline = self.make([2.0] * MIN_STRAGGLER_SAMPLES,
                             static_timeout=3.0)
        assert deadline.seconds() == 3.0


# ----------------------------------------------------------------------
# Checkpoint run-hash guard
# ----------------------------------------------------------------------
class TestCheckpointHeader:
    def test_header_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        CheckpointWriter(path, header={"run_hash": "abc123"})
        header = load_checkpoint_header(path)
        assert header["run_hash"] == "abc123"
        assert header["kind"] == "header"
        assert load_checkpoint(path) == {}

    def test_header_precedes_records(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        writer = CheckpointWriter(path, header={"run_hash": "abc123"})
        writer.append("net0", "report", {"x": 1})
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        assert json.loads(lines[1])["net"] == "net0"
        assert load_checkpoint(path).keys() == {"net0"}

    def test_resume_preserves_stored_header(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        CheckpointWriter(path, header={"run_hash": "old"}) \
            .append("net0", "report", {})
        resumed = CheckpointWriter(path, resume=True,
                                   header={"run_hash": "new"})
        assert load_checkpoint_header(path)["run_hash"] == "old"
        assert "net0" in resumed.names

    def test_headerless_checkpoint_reads_as_none(self, tmp_path):
        path = tmp_path / "run.ckpt.jsonl"
        CheckpointWriter(path).append("net0", "report", {})
        assert load_checkpoint_header(path) is None


class TestStaleResume:
    @pytest.fixture()
    def nets(self):
        return [canonical_net(n_aggressors=1, name="sr0"),
                canonical_net(n_aggressors=1, coupling_ratio=0.7,
                              name="sr1")]

    def test_resume_same_config_passes_guard(self, analyzer, nets,
                                             tmp_path):
        path = tmp_path / "screen.ckpt.jsonl"
        analyze_nets(nets, jobs=1, analyzer=analyzer, checkpoint=path,
                     alignment="table")
        result = analyze_nets(nets, jobs=1, analyzer=analyzer,
                              checkpoint=path, resume=True,
                              alignment="table")
        assert result.stats.resumed == 2

    def test_config_change_raises_stale_checkpoint(self, analyzer,
                                                   nets, tmp_path):
        path = tmp_path / "screen.ckpt.jsonl"
        analyze_nets(nets, jobs=1, analyzer=analyzer, checkpoint=path,
                     alignment="table")
        with pytest.raises(StaleCheckpoint, match="different "
                                                  "configuration"):
            analyze_nets(nets, jobs=1, analyzer=analyzer,
                         checkpoint=path, resume=True,
                         alignment="table", use_rtr=False)

    def test_force_resume_overrides_guard(self, analyzer, nets,
                                          tmp_path):
        path = tmp_path / "screen.ckpt.jsonl"
        analyze_nets(nets, jobs=1, analyzer=analyzer, checkpoint=path,
                     alignment="table")
        result = analyze_nets(nets, jobs=1, analyzer=analyzer,
                              checkpoint=path, resume=True,
                              force_resume=True, alignment="table",
                              use_rtr=False)
        assert result.stats.resumed == 2

    def test_population_change_raises_stale_checkpoint(self, analyzer,
                                                       nets, tmp_path):
        path = tmp_path / "screen.ckpt.jsonl"
        analyze_nets(nets, jobs=1, analyzer=analyzer, checkpoint=path,
                     alignment="table")
        grown = nets + [canonical_net(n_aggressors=2, name="sr2")]
        with pytest.raises(StaleCheckpoint):
            analyze_nets(grown, jobs=1, analyzer=analyzer,
                         checkpoint=path, resume=True,
                         alignment="table")

    def test_headerless_checkpoint_resumes_unguarded(self, analyzer,
                                                     nets, tmp_path):
        path = tmp_path / "screen.ckpt.jsonl"
        analyze_nets(nets, jobs=1, analyzer=analyzer, checkpoint=path,
                     alignment="table")
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "header"
        path.write_text("\n".join(lines[1:]) + "\n")
        result = analyze_nets(nets, jobs=1, analyzer=analyzer,
                              checkpoint=path, resume=True,
                              alignment="table", use_rtr=False)
        assert result.stats.resumed == 2


# ----------------------------------------------------------------------
# Differential audit against the dense reference
# ----------------------------------------------------------------------
class TestRunAudit:
    @pytest.fixture()
    def screened(self, analyzer):
        nets = [canonical_net(n_aggressors=1, name="aud0")]
        result = analyze_nets(nets, jobs=1, analyzer=analyzer,
                              alignment="table")
        reports = {r.net_name: r for r in result.reports}
        return nets, reports

    def test_clean_population_passes(self, analyzer, screened):
        nets, reports = screened
        audit = trust.run_audit(nets, reports, analyzer, rate=1.0,
                                analyze_kwargs={"alignment": "table"})
        assert audit["ok"]
        assert audit["eligible"] == 1
        assert audit["checked"] == 1
        assert audit["mismatches"] == []

    def test_fabricated_drift_fails_loudly(self, analyzer, screened):
        nets, reports = screened
        report = reports[nets[0].name]
        reports[nets[0].name] = dataclasses.replace(
            report,
            extra_delay_output=report.extra_delay_output + 1e-6)
        audit = trust.run_audit(nets, reports, analyzer, rate=1.0,
                                analyze_kwargs={"alignment": "table"})
        assert not audit["ok"]
        fields = {m["field"] for m in audit["mismatches"]}
        assert "extra_delay_output" in fields

    def test_zero_rate_samples_nothing(self, analyzer, screened):
        nets, reports = screened
        audit = trust.run_audit(nets, reports, analyzer, rate=0.0)
        assert audit["ok"]
        assert audit["sampled"] == []
        assert audit["checked"] == 0

    def test_degraded_reports_are_ineligible(self, analyzer, screened):
        nets, reports = screened
        reports[nets[0].name] = dataclasses.replace(
            reports[nets[0].name], quality="degraded")
        audit = trust.run_audit(nets, reports, analyzer, rate=1.0)
        assert audit["eligible"] == 0
        assert audit["checked"] == 0


# ----------------------------------------------------------------------
# Worker watchdog paths (jobs > 1)
# ----------------------------------------------------------------------
class TestWorkerGuards:
    def test_hung_warm_start_times_out(self, analyzer):
        """A hung warm-start restore holds up the nets handed to its
        worker; the watchdog's clock runs from submission, so each
        becomes a structured NetTimeout, not a silent stall."""
        nets = [canonical_net(n_aggressors=1, name="it0"),
                canonical_net(n_aggressors=1, coupling_ratio=0.7,
                              name="it1")]
        install_faults(FaultPlan(specs=[FaultSpec(
            point="exec.worker_init", action="sleep", seconds=600.0)]))
        try:
            result = analyze_nets(nets, jobs=2, analyzer=analyzer,
                                  timeout=2.0, retries=0,
                                  alignment="table")
        finally:
            clear_faults()
        assert result.reports == [None, None]
        assert [f.error for f in result.failures] == \
            ["NetTimeout: net analysis exceeded 2 s"] * 2
        assert result.stats.failures_by_type == {"NetTimeout": 2}

    def test_rss_budget_flags_but_keeps_results(self, analyzer):
        """A worker over the RSS budget is recycled; a net that
        nevertheless succeeded keeps its report."""
        nets = [canonical_net(n_aggressors=1, name="rb0"),
                canonical_net(n_aggressors=1, coupling_ratio=0.7,
                              name="rb1")]
        result = analyze_nets(nets, jobs=2, analyzer=analyzer,
                              rss_budget_bytes=1, alignment="table")
        assert result.stats.rss_flagged >= 1
        assert result.stats.failures == 0
        assert all(r is not None for r in result.reports)


# ----------------------------------------------------------------------
# Clean-path audit budget, as a work count
# ----------------------------------------------------------------------
#: A clean run audits at most one accepted Newton solve in this many
#: (the default ``TrustConfig.check_interval``).  A count repeats
#: exactly on any host, where a wall-time ratio over a fraction of a
#: second does not; the layer's wall time is the benchmark's
#: ``trust.s`` row.
SOLVES_PER_AUDIT = 32


class TestCleanPathBudget:
    def test_golden_population_within_audit_budget(self):
        """The seed-1 golden circuits at 1 ns / 1 ps: states are
        bit-identical with verification on or off, no trust event is
        recorded, and the residual audits stay within one per
        ``SOLVES_PER_AUDIT`` Newton solves."""
        nets = NetGenerator(seed=1).population(2)
        solves = metrics().histogram("newton.iterations")
        checks = metrics().counter("trust.residual_checks")

        def run():
            # Fresh circuits: solver caches bake in the trust config.
            return [simulate_nonlinear(golden_circuit(net), 1 * NS,
                                       1 * PS) for net in nets]

        with dense_reference(False):
            with trust.trust_mode(False):
                off = run()
            solves_before, checks_before = solves.count, checks.value
            with trust.trust_mode(True):
                on = run()
        n_solves = solves.count - solves_before
        n_checks = checks.value - checks_before
        for a, b in zip(on, off):
            assert np.array_equal(a.states, b.states)
        assert not trust.drain_events()
        assert 0 < n_checks <= n_solves // SOLVES_PER_AUDIT, \
            f"{n_checks} residual audits for {n_solves} Newton solves"
