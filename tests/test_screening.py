"""Tests for repro.core.screening (tiered population screening).

The load-bearing property is *soundness*: a net pruned at tier 0 or
tier 1 must really be below the noise threshold when the full tier-2
analysis runs.  The conservatism tests check each tier's figure
dominates the measured composite pulse height on seeded populations;
the fault-injection test proves the prune audit — not the estimator —
catches a silently deflated estimate.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench.netgen import NetGenConfig, NetGenerator, canonical_net
from repro.circuit import Circuit, GROUND, build_mna
from repro.circuit.topology import couple_nodes, rc_line
from repro.core.screening import (
    DEFAULT_GUARD_BAND,
    TIER_POLICIES,
    ScreeningConfig,
    TierDecision,
    audit_prunes,
    screen_population,
    tier0_bound,
    tier1_estimate,
    triage,
)
from repro.mor import ReducedModel
from repro.resilience import FaultPlan, clear_faults, install_faults
from repro.sim.linear import simulate_linear
from repro.units import FF, KOHM, NS
from repro.waveform import Waveform


@pytest.fixture(autouse=True)
def no_leaked_faults():
    clear_faults()
    yield
    clear_faults()


def screening_population(count=10, seed=3):
    gen = NetGenerator(seed=seed, config=NetGenConfig.screening())
    return gen.population(count)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TestConfig:
    def test_defaults(self):
        cfg = ScreeningConfig(noise_threshold=0.5)
        assert cfg.policy == "auto"
        assert cfg.guard_band == DEFAULT_GUARD_BAND

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="noise_threshold"):
            ScreeningConfig(noise_threshold=0.0)

    def test_policy_validated(self):
        with pytest.raises(ValueError, match="policy"):
            ScreeningConfig(noise_threshold=0.5, policy="nope")
        for policy in TIER_POLICIES:
            ScreeningConfig(noise_threshold=0.5, policy=policy)

    def test_guard_band_floor(self):
        with pytest.raises(ValueError, match="guard_band"):
            ScreeningConfig(noise_threshold=0.5, guard_band=0.9)


# ----------------------------------------------------------------------
# Tier 0: closed-form charge-sharing bound
# ----------------------------------------------------------------------
class TestTier0Bound:
    def test_positive_and_below_vdd(self):
        net = canonical_net(n_aggressors=2)
        bound = tier0_bound(net)
        assert 0.0 < bound < net.vdd

    def test_no_aggressors_is_zero(self):
        net = canonical_net(n_aggressors=0)
        assert tier0_bound(net) == 0.0

    def test_monotonic_in_coupling(self):
        """Doubling the coupling caps must not lower the bound."""
        from dataclasses import replace

        from repro.core.filtering import partition_nodes

        gen = NetGenerator(seed=5, config=NetGenConfig.screening())
        net = gen.population(1)[0]
        base = tier0_bound(net)
        boosted = net.interconnect.copy("boosted")
        assignment = partition_nodes(net)
        for cap in list(boosted.capacitors):
            a = assignment.get(cap.node1)
            b = assignment.get(cap.node2)
            if "victim" in (a, b) and a != b and a is not None \
                    and b is not None:
                boosted.add_capacitor(f"x_{cap.name}", cap.node1,
                                      cap.node2, cap.capacitance)
        doubled = replace(net, interconnect=boosted)
        assert tier0_bound(doubled) >= base

    def test_conservative_vs_full_analysis(self, analyzer):
        """The bound dominates the measured pulse height — the property
        every prune rests on."""
        for net in screening_population(count=6, seed=11):
            bound = tier0_bound(net)
            report = analyzer.analyze(net, alignment="table")
            assert bound >= abs(report.pulse_height), net.name


# ----------------------------------------------------------------------
# Tier 1: reduced-order linear estimate
# ----------------------------------------------------------------------
class TestTier1Estimate:
    def test_finite_and_nonnegative(self):
        net = canonical_net(n_aggressors=2)
        estimate = tier1_estimate(net)
        assert np.isfinite(estimate)
        assert estimate >= 0.0

    def test_no_aggressors_is_zero(self):
        assert tier1_estimate(canonical_net(n_aggressors=0)) == 0.0

    def test_guard_band_scales_linearly(self):
        net = canonical_net(n_aggressors=1)
        lo = tier1_estimate(net, config=ScreeningConfig(
            noise_threshold=0.5, guard_band=1.0))
        hi = tier1_estimate(net, config=ScreeningConfig(
            noise_threshold=0.5, guard_band=2.0))
        assert hi == pytest.approx(2.0 * lo)

    def test_conservative_vs_full_analysis(self, analyzer):
        """The guard-banded estimate dominates the nonlinear result."""
        for net in screening_population(count=5, seed=3):
            estimate = tier1_estimate(net)
            report = analyzer.analyze(net, alignment="table")
            assert estimate >= abs(report.pulse_height), net.name

    def test_tier1_adds_pruning_power(self):
        """At least one net whose charge bound crosses the threshold
        is still pruned by the sharper reduced-order estimate — the
        reason the tier exists."""
        nets = screening_population(count=40, seed=7)
        _, stats = triage(nets, ScreeningConfig(noise_threshold=0.45))
        assert stats.by_tier[1] >= 1
        assert stats.reasons.get("estimate-below-threshold", 0) >= 1


# ----------------------------------------------------------------------
# MOR soundness at extracted scale
# ----------------------------------------------------------------------
class TestMorSoundness:
    def _coupled_pair(self, segments):
        """Victim/aggressor RC pair: victim held, aggressor driven
        through a source resistor by a current ramp — the tier-1
        circuit shape, built explicitly."""
        circuit = Circuit("pair")
        v_nodes = rc_line(circuit, "v_", "v_root", "v_rcv", segments,
                          1 * KOHM, 20 * FF)
        a_nodes = rc_line(circuit, "a_", "a_root", "a_far", segments,
                          1 * KOHM, 20 * FF)
        couple_nodes(circuit, "cc_", v_nodes, a_nodes, 15 * FF)
        circuit.add_resistor("hold", "v_root", GROUND, 2 * KOHM)
        slew = 0.1 * NS
        # Norton drive at the aggressor root, exactly as tier 1 stamps
        # it: shunt source resistor plus a grounded current ramp.  A
        # series drive node would leave the aggressor chain floating at
        # DC (singular G) and a bare Python callable would stamp as an
        # object, so both must match the production shape.
        circuit.add_resistor("rsrc", "a_root", GROUND, 10.0)
        ramp = Waveform([0.0, slew, 1000 * slew],
                        [0.0, 1.8 / 10.0, 1.8 / 10.0])
        circuit.add_isource("iin", GROUND, "a_root", ramp)
        return circuit, slew

    def test_reduced_tracks_dense_transient(self):
        """Order-8 PRIMA output matches the dense linear transient at
        the victim receiver within a few percent of vdd."""
        circuit, slew = self._coupled_pair(segments=24)
        mna = build_mna(circuit)
        times = np.linspace(0.0, 8 * slew, 400)
        model = ReducedModel.from_mna(mna, ["v_rcv"], 8)
        inputs = np.array([[1.8 * min(max(t / slew, 0.0), 1.0) / 10.0
                            for t in times]])
        reduced = model.simulate(times, inputs)["v_rcv"].values

        run = simulate_linear(mna, times[-1], times[1] - times[0])
        full = run.states[mna.index_of("v_rcv")]
        grid = np.interp(times, run.times, full)
        assert np.max(np.abs(reduced - grid)) < 0.05 * 1.8
        assert abs(np.max(np.abs(reduced))
                   - np.max(np.abs(grid))) < 0.03 * 1.8

    def test_passivity_at_extracted_scale(self):
        """~1000-unknown coupled system (built through the sparse MNA
        backend): the congruence projection must keep the reduced
        poles strictly stable — the property the Norton drive exists
        to preserve."""
        circuit, _ = self._coupled_pair(segments=500)
        sparse = build_mna(circuit, sparse=True)
        assert sparse.dim >= 1000
        dense = build_mna(circuit, sparse=False)
        model = ReducedModel.from_mna(dense, ["v_rcv"], 10)
        poles = np.linalg.eigvals(
            np.linalg.solve(model.Cr, -model.Gr))
        assert np.all(poles.real < 0.0), poles
        # Moment match at DC, observed at the driven net's far end
        # (the victim receiver's DC transfer is identically zero —
        # capacitive coupling only — so it cannot anchor a relative
        # check).  All DC current returns through the 10-ohm source
        # resistor, so the exact gain is known too.
        far = ReducedModel.from_mna(dense, ["a_far"], 10)
        x_full = np.linalg.solve(dense.G.toarray()
                                 if hasattr(dense.G, "toarray")
                                 else dense.G,
                                 dense.input_incidence())
        full_dc = (dense.output_incidence(["a_far"]).T @ x_full)[0, 0]
        z_red = np.linalg.solve(far.Gr, far.Br)
        red_dc = (far.Lr.T @ z_red)[0, 0]
        # isource(GROUND, a_root) drives current out of a_root, so the
        # observed DC gain is minus the source resistance.
        assert full_dc == pytest.approx(-10.0, rel=1e-9)
        assert red_dc == pytest.approx(full_dc, rel=1e-6)


class TestExtractedScaleTier1:
    def test_large_tree_triage_is_sparse_prima_without_ticer(
            self, monkeypatch):
        """A ~4000-node extracted tree is projected whole by PRIMA on
        the sparse factorization: TICER never runs and ``G``/``C`` are
        never densified."""
        def forbidden(*args, **kwargs):
            raise AssertionError("not on the tier-1 path")

        import repro.core.screening
        import repro.mor
        import repro.mor.ticer
        # Wherever the name could be bound, screening included.
        for module in (repro.mor.ticer, repro.mor, repro.core.screening):
            monkeypatch.setattr(module, "ticer_reduce", forbidden,
                                raising=False)
        monkeypatch.setattr(sp.csc_matrix, "toarray", forbidden)
        monkeypatch.setattr(sp.csc_matrix, "todense", forbidden)

        net = NetGenerator(seed=1).large_tree(0, nodes=4000)
        assert len(net.interconnect.nodes()) >= 4000
        assert build_mna(net.interconnect).is_sparse
        decisions, stats = triage([net],
                                  ScreeningConfig(noise_threshold=0.45))
        decision = decisions[0]
        assert stats.by_tier[2] == 1
        assert np.isfinite(decision.estimate)
        # The whole-tree estimate sits above the charge bound here, so
        # the reported figure is the bound.
        assert decision.estimate > decision.bound
        assert decision.figure == decision.bound


# ----------------------------------------------------------------------
# Triage
# ----------------------------------------------------------------------
class TestTriage:
    def test_full_policy_escalates_everything(self):
        nets = screening_population(count=6)
        decisions, stats = triage(nets, ScreeningConfig(
            noise_threshold=0.45, policy="full"))
        assert all(not d.pruned and d.tier == 2 for d in decisions)
        assert stats.pruned == 0
        assert stats.escalated == len(nets)
        assert set(stats.reasons) == {"policy-full"}

    def test_bound_only_never_runs_tier1(self):
        nets = screening_population(count=8)
        decisions, stats = triage(nets, ScreeningConfig(
            noise_threshold=0.45, policy="bound-only"))
        assert stats.by_tier[1] == 0
        assert all(d.estimate is None for d in decisions)
        assert set(stats.reasons) <= {"bound-below-threshold",
                                      "bound-above-threshold"}

    def test_auto_accounting(self):
        nets = screening_population(count=10)
        decisions, stats = triage(nets,
                                  ScreeningConfig(noise_threshold=0.45))
        assert stats.total == len(nets)
        assert sum(stats.by_tier.values()) == len(nets)
        assert stats.pruned + stats.escalated == len(nets)
        assert 0.0 <= stats.pruned_fraction <= 1.0
        for decision in decisions:
            assert decision.seconds >= 0.0
            if decision.tier == 0:
                assert decision.estimate is None
                assert decision.figure == decision.bound
            if decision.estimate is not None:
                assert decision.figure == min(decision.bound,
                                              decision.estimate)

    def test_figure_is_the_tighter_of_bound_and_estimate(self):
        """Seed 1's 530-node extracted tree: the tier-1 estimate
        (1.207 V) is looser than the charge bound (0.925 V), so the
        reported figure is the bound."""
        tree = TierDecision("tree0", 2, 0.925, 1.207, False,
                            "estimate-above-threshold", 0.0)
        assert tree.figure == 0.925
        pruned = TierDecision("net0", 1, 0.60, 0.40, True,
                              "estimate-below-threshold", 0.0)
        assert pruned.figure == 0.40

    def test_huge_threshold_prunes_everything_at_tier0(self):
        nets = screening_population(count=6)
        decisions, stats = triage(nets, ScreeningConfig(
            noise_threshold=100.0))
        assert stats.pruned == len(nets)
        assert stats.by_tier[0] == len(nets)

    def test_tiny_threshold_escalates_everything(self):
        nets = screening_population(count=4)
        _, stats = triage(nets, ScreeningConfig(noise_threshold=1e-9))
        assert stats.escalated == len(nets)

    def test_decision_round_trip(self):
        nets = screening_population(count=3)
        decisions, stats = triage(nets,
                                  ScreeningConfig(noise_threshold=0.45))
        for decision in decisions:
            payload = decision.to_dict()
            assert payload["net_name"] == decision.net_name
            assert payload["tier"] == decision.tier
        snap = stats.to_dict()
        assert snap["total"] == len(nets)
        assert set(snap["by_tier"]) == {"0", "1", "2"}


# ----------------------------------------------------------------------
# Pruning soundness
# ----------------------------------------------------------------------
class TestPruneSoundness:
    THRESHOLD = 0.45

    def test_every_prune_below_threshold(self, analyzer):
        """rate=1.0 audit: all pruned nets re-run at tier 2 measure
        below the threshold — zero unsound prunes."""
        nets = screening_population(count=10, seed=3)
        config = ScreeningConfig(noise_threshold=self.THRESHOLD)
        decisions, _ = triage(nets, config)
        audit = audit_prunes(nets, decisions, config=config,
                             analyzer=analyzer, rate=1.0,
                             analyze_kwargs={"alignment": "table"})
        assert audit["ok"], audit
        assert audit["unsound_prunes"] == 0
        assert audit["checked"] == audit["eligible"] \
            == sum(1 for d in decisions if d.pruned)

    def test_injected_underestimate_caught_by_audit(self, analyzer):
        """A silently deflated tier-1 estimate (fault injection at
        ``screening.estimate``) prunes a genuinely loud net; nothing
        raises, but the tier-2 audit must flag the unsound prune."""
        # seed=1/net18 measures ~0.56 V at tier 2 — above the 0.45 V
        # threshold — but escalates only via its tier-1 estimate.
        nets = NetGenerator(
            seed=1, config=NetGenConfig.screening()).population(19)
        config = ScreeningConfig(noise_threshold=self.THRESHOLD)
        clean_decisions, _ = triage(nets, config)
        clean = {d.net_name: d for d in clean_decisions}
        assert not clean["net18"].pruned

        install_faults(FaultPlan().add("screening.estimate",
                                      match="net18", action="nan"))
        decisions, _ = triage(nets, config)
        deflated = {d.net_name: d for d in decisions}
        assert deflated["net18"].pruned
        clear_faults()  # the audit itself must run clean

        audit = audit_prunes(nets, decisions, config=config,
                             analyzer=analyzer, rate=1.0,
                             analyze_kwargs={"alignment": "table"})
        assert not audit["ok"]
        assert audit["unsound_prunes"] >= 1
        assert any(entry["net"] == "net18"
                   for entry in audit["unsound"])

    def test_audit_rate_validation(self, analyzer):
        nets = screening_population(count=2)
        config = ScreeningConfig(noise_threshold=0.45)
        decisions, _ = triage(nets, config)
        with pytest.raises(ValueError, match="rate"):
            audit_prunes(nets, decisions, config=config,
                         analyzer=analyzer, rate=1.5)


# ----------------------------------------------------------------------
# End-to-end screen_population (pool integration)
# ----------------------------------------------------------------------
class TestScreenPopulation:
    def test_pruned_nets_skip_analysis(self, analyzer):
        from repro.obs.progress import Heartbeat

        nets = screening_population(count=8, seed=3)
        config = ScreeningConfig(noise_threshold=0.45)
        beats: list[Heartbeat] = []
        result = screen_population(nets, config, analyzer=analyzer,
                                   analyze_kwargs={"alignment": "table"},
                                   on_heartbeat=beats.append)
        assert result.stats.total == len(nets)
        assert result.stats.pruned > 0
        reports = dict(zip([n.name for n in nets],
                           result.exec_result.reports))
        for decision in result.decisions:
            if decision.pruned:
                assert reports[decision.net_name] is None
                assert not result.exec_result.analyzed(
                    decision.net_name)
            else:
                assert reports[decision.net_name] is not None
                assert result.exec_result.analyzed(decision.net_name)
        # One heartbeat per net, carrying the settling tier.
        assert len(beats) == len(nets)
        tiers = {b.net: b.tier for b in beats}
        for decision in result.decisions:
            expected = decision.tier if decision.pruned else 2
            assert tiers[decision.net_name] == expected
        # Pool-level prune accounting agrees with the triage stats.
        pool_stats = result.exec_result.stats
        assert pool_stats.pruned == result.stats.pruned
        assert sum(pool_stats.pruned_by_tier.values()) \
            == result.stats.pruned
        assert result.decision_for(nets[0].name).net_name \
            == nets[0].name

    def test_to_dict_shape(self, analyzer):
        nets = screening_population(count=4, seed=3)
        result = screen_population(
            nets, ScreeningConfig(noise_threshold=100.0),
            analyzer=analyzer)
        payload = result.to_dict()
        assert payload["pruned"] == len(nets)
        assert payload["by_tier"]["0"] == len(nets)
