"""Tests for repro.core.superposition (the Figure-1 flow)."""

import contextlib

import numpy as np
import pytest

import repro.core.superposition as superposition
from repro import trust
from repro.bench.netgen import NetGenerator
from repro.circuit.mna import sparse_threshold
from repro.core.superposition import VICTIM, ModelCache, SuperpositionEngine
from repro.sim.nonlinear import dense_reference
from repro.units import FF, NS, PS

VDD = 1.8


class TestEngineConstruction:
    def test_models_for_all_drivers(self, two_engine):
        assert set(two_engine.models) == {VICTIM, "agg0", "agg1"}
        assert set(two_engine.ceffs) == {VICTIM, "agg0", "agg1"}

    def test_ceff_below_total_cap(self, two_engine):
        # Ceff must be shielded below the total capacitance each driver
        # sees (wire + coupling + receiver load).
        for key, ceff in two_engine.ceffs.items():
            assert 5 * FF < ceff < 500 * FF

    def test_rth_positive_and_ordered(self, two_engine):
        # Victim is an X1, aggressors X4: victim must be weaker.
        assert two_engine.models[VICTIM].rth > \
            two_engine.models["agg0"].rth

    def test_horizon_covers_transitions(self, two_engine):
        assert two_engine.t_stop > 1 * NS

    def test_cache_shared(self, two_aggressor_net, model_cache):
        before = len(model_cache)
        SuperpositionEngine(two_aggressor_net, cache=model_cache)
        # All tables already cached by the session fixture.
        assert len(model_cache) == before


class TestVictimTransition:
    def test_delta_full_swing(self, single_engine):
        out = single_engine.victim_transition()
        assert out.at_receiver.values[-1] == pytest.approx(VDD, rel=0.01)
        assert out.at_root.values[-1] == pytest.approx(VDD, rel=0.01)

    def test_absolute_adds_initial_level(self, single_engine):
        # Rising victim starts at 0, so absolute == delta.
        delta = single_engine.victim_transition()
        absolute = single_engine.victim_transition_absolute()
        np.testing.assert_allclose(absolute.at_receiver.values,
                                   delta.at_receiver.values)

    def test_root_leads_receiver(self, single_engine):
        out = single_engine.victim_transition()
        t_root = out.at_root.crossing_time(VDD / 2, rising=True)
        t_recv = out.at_receiver.crossing_time(VDD / 2, rising=True)
        assert t_root < t_recv


class TestAggressorNoise:
    def test_noise_pulse_shape(self, single_engine):
        noise = single_engine.aggressor_noise("agg0")
        # Falling aggressor on rising victim: negative pulse.
        lo, hi = noise.at_receiver.value_range()
        assert lo < -0.1
        assert hi < 0.25 * abs(lo)
        # Noise returns to zero.
        assert abs(noise.at_receiver.values[-1]) < 0.01

    def test_unknown_aggressor(self, single_engine):
        with pytest.raises(KeyError):
            single_engine.aggressor_noise("nope")
        with pytest.raises(KeyError):
            single_engine.aggressor_noise(VICTIM)

    def test_shift_moves_pulse_exactly(self, single_engine):
        """LTI: a shifted launch produces an identically shifted pulse."""
        from repro.waveform.pulses import pulse_peak
        base = single_engine.aggressor_noise("agg0").at_receiver
        shifted = single_engine.aggressor_noise(
            "agg0", shift=0.3 * NS).at_receiver
        t0, h0 = pulse_peak(base)
        t1, h1 = pulse_peak(shifted)
        assert t1 - t0 == pytest.approx(0.3 * NS, abs=2 * PS)
        assert h1 == pytest.approx(h0, rel=1e-6)

    def test_higher_holding_r_more_noise(self, single_engine):
        rth = single_engine.models[VICTIM].rth
        weak = single_engine.aggressor_noise(
            "agg0", victim_r=3 * rth).at_receiver
        strong = single_engine.aggressor_noise(
            "agg0", victim_r=rth / 3).at_receiver
        assert abs(weak.value_range()[0]) > abs(strong.value_range()[0])

    def test_total_noise_superposes(self, two_engine):
        shifts = {"agg0": 0.0, "agg1": 0.1 * NS}
        total = two_engine.total_noise(shifts)
        individual = [
            two_engine.aggressor_noise("agg0").at_receiver,
            two_engine.aggressor_noise("agg1", shift=0.1 * NS).at_receiver,
        ]
        probe = np.linspace(0, two_engine.t_stop, 60)
        expected = individual[0](probe) + individual[1](probe)
        np.testing.assert_allclose(total.at_receiver(probe), expected,
                                   atol=1e-9)

    def test_total_noise_with_empty_shift_dict(self, single_engine):
        # Missing shift entries default to zero.
        out = single_engine.total_noise({})
        assert out.at_receiver.value_range()[0] < -0.1


class TestDriverView:
    def test_view_contains_holders(self, two_engine):
        view = two_engine.driver_view(VICTIM)
        holders = [r for r in view.resistors if "hold" in r.name]
        assert len(holders) == 2  # one per aggressor

    def test_view_unknown_driver(self, two_engine):
        with pytest.raises(KeyError):
            two_engine.driver_view("ghost")


class TestAgainstGolden:
    def test_noiseless_victim_matches_golden(self, single_aggressor_net,
                                             single_engine):
        """Paper: 'the noiseless victim transition using a standard
        Thevenin model is quite accurate' — check 50% crossing within a
        few ps of the full transistor-level simulation."""
        from repro.core.golden import golden_simulation
        lin = single_engine.victim_transition_absolute().at_receiver
        gold = golden_simulation(single_aggressor_net, 3.5 * NS,
                                 aggressors_switching=False)
        t_lin = lin.crossing_time(VDD / 2, rising=True)
        t_gold = gold.at_receiver_input.crossing_time(VDD / 2, rising=True)
        assert t_lin == pytest.approx(t_gold, abs=10 * PS)


class TestTransientMemo:
    """One linear transient per circuit: shifts, repeats and an override
    equal to the default Rth reuse it."""

    def test_repeat_shift_and_default_override_reuse_one_run(
            self, two_aggressor_net, model_cache, monkeypatch):
        engine = SuperpositionEngine(two_aggressor_net, cache=model_cache)
        calls = []
        real = superposition.simulate_linear

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(superposition, "simulate_linear", counting)
        first = engine.aggressor_noise("agg0")
        assert len(calls) == 1
        shift = 0.3 * NS
        again = engine.aggressor_noise("agg0")
        same_r = engine.aggressor_noise(
            "agg0", victim_r=engine.models[VICTIM].rth)
        shifted = engine.aggressor_noise("agg0", shift=shift)
        assert len(calls) == 1
        for out in (again, same_r, shifted):
            for got, want in ((out.at_receiver, first.at_receiver),
                              (out.at_root, first.at_root)):
                moved = shift if out is shifted else 0.0
                assert np.array_equal(got.times, want.times + moved)
                assert np.array_equal(got.values, want.values)
        engine.aggressor_noise("agg0", victim_r=2 * engine.models[VICTIM].rth)
        assert len(calls) == 2


@pytest.fixture(scope="module")
def tree_net():
    """A ~200-node extracted-style tree with two aggressors."""
    return NetGenerator(seed=3).large_tree(nodes=200, n_aggressors=2)


@contextlib.contextmanager
def full_path():
    """Engines built in the block simulate the full net, as they do
    below the sparse threshold, instead of a port model."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(superposition, "stamps_sparse", lambda dim: False)
        yield


class TestPortModelSelection:
    def test_none_below_sparse_threshold(self, single_engine):
        assert single_engine.port_model is None

    def test_built_at_sparse_threshold(self, tree_net, model_cache):
        with sparse_threshold(1):
            engine = SuperpositionEngine(tree_net, cache=model_cache)
        ports = ["v_root", "a0_root", "a1_root", "v_rcv"]
        assert engine.port_model.output_names == ports
        assert engine.port_model.order == \
            superposition.PORT_MOMENTS * len(ports)

    def test_none_under_dense_reference(self, tree_net, model_cache):
        with sparse_threshold(1):
            SuperpositionEngine(tree_net, cache=model_cache)  # tables
            with dense_reference():
                engine = SuperpositionEngine(tree_net, cache=model_cache)
        assert engine.port_model is None


class TestPortModelAccuracy:
    """The port model against the same net's full sparse path."""

    def test_waveforms_match_full_path(self, tree_net, model_cache):
        with sparse_threshold(1):
            port = SuperpositionEngine(tree_net, cache=model_cache)
            with full_path():
                full = SuperpositionEngine(tree_net, cache=model_cache)
            assert port.port_model is not None and full.port_model is None
            rtr = 1.7 * port.models[VICTIM].rth
            runs = [lambda e: e.victim_transition(),
                    lambda e: e.aggressor_noise("agg0"),
                    lambda e: e.aggressor_noise("agg1"),
                    lambda e: e.aggressor_noise("agg0", victim_r=rtr)]
            for run in runs:
                got, want = run(port), run(full)
                for g, w in ((got.at_receiver, want.at_receiver),
                             (got.at_root, want.at_root)):
                    peak = np.abs(w.values).max()
                    assert peak > 0.05
                    assert np.abs(g(w.times) - w.values).max() \
                        <= 1e-6 * peak

    def test_analysis_matches_full_path_and_oracle(self, tree_net,
                                                   analyzer):
        """``analyze`` answers as on the full path, and the differential
        audit (full sparse transients, dense-reference Newton) finds no
        mismatch."""
        kwargs = {"alignment": "input-objective"}
        with sparse_threshold(1):
            port = analyzer.analyze(tree_net, **kwargs)
            with full_path():
                full = analyzer.analyze(tree_net, **kwargs)
            audit = trust.run_audit([tree_net], {tree_net.name: port},
                                    analyzer, rate=1.0,
                                    analyze_kwargs=kwargs)
        assert port.quality == full.quality == "exact"
        assert abs(port.pulse_height - full.pulse_height) <= 2e-10
        for field in ("extra_delay_input", "extra_delay_output",
                      "peak_time"):
            assert abs(getattr(port, field) - getattr(full, field)) \
                <= 1e-15, field
        assert port.rtr == pytest.approx(full.rtr, rel=1e-6)
        assert audit["checked"] == 1
        assert audit["mismatches"] == []
