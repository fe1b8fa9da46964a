"""Batched multi-candidate kernel vs the serial scalar path.

The batched transient kernel (:mod:`repro.sim.batched`) must land every
candidate on the same Newton root as a serial
:func:`~repro.sim.nonlinear.simulate_nonlinear` run with that candidate's
waveform bound — within the 1e-9 V equivalence gate for S > 1 (BLAS
gemm-vs-gemv rounding), bit-identically for S == 1 — while the active-set
mask, the scalar fallback ladder and the factorization caches do what
their counters claim.
"""

import pickle

import numpy as np
import pytest

from repro.bench.netgen import NetGenerator
from repro.circuit import GROUND, Circuit
from repro.circuit.mna import build_mna
from repro.core import ReceiverSpec, exhaustive_worst_alignment
from repro.core.superposition import ModelCache, SuperpositionEngine
from repro.devices import default_technology, nmos_params, pmos_params
from repro.gates import inverter
from repro.obs import metrics
from repro.resilience import FaultPlan, clear_faults, install_faults
from repro.sim import simulate_nonlinear, simulate_nonlinear_batch
from repro.sim.batched import _batched_kernel
from repro.sim.nonlinear import dense_reference
from repro.sim.result import time_grid
from repro.units import FF, KOHM, NS, PS, UM
from repro.waveform import noise_pulse, ramp

#: Same gate as the kernel-equivalence suite: converged Newton roots
#: agree far tighter; the bound absorbs BLAS reduction-order noise.
TOLERANCE = 1e-9

TECH = default_technology()
VDD = TECH.vdd


@pytest.fixture(autouse=True)
def no_leaked_faults():
    clear_faults()
    yield
    clear_faults()


def inverter_circuit(input_wave, c_load=20 * FF):
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", GROUND, VDD)
    c.add_vsource("vin", "in", GROUND, input_wave)
    c.add_mosfet("mn", nmos_params(TECH, 1 * UM), "out", "in", GROUND)
    c.add_mosfet("mp", pmos_params(TECH, 2.2 * UM), "out", "in", "vdd")
    c.add_capacitor("cl", "out", GROUND, c_load)
    return c


def rc_circuit(input_wave):
    """Device-free circuit: the batched kernel's pure-linear k=0 path."""
    c = Circuit("rc")
    c.add_vsource("vin", "in", GROUND, input_wave)
    c.add_resistor("r1", "in", "mid", 1 * KOHM)
    c.add_capacitor("c1", "mid", GROUND, 50 * FF)
    c.add_resistor("r2", "mid", "out", 2 * KOHM)
    c.add_capacitor("c2", "out", GROUND, 20 * FF)
    return c


def shifted_ramps(n, spread=0.15 * NS):
    base = 0.2 * NS
    return [ramp(base + i * spread / max(n - 1, 1), 0.1 * NS, 0.0, VDD)
            for i in range(n)]


def serial_reference(circuit, stimuli, t_stop, dt, *, t_start=0.0):
    """Serial sweep the way the batch's own fallback rebinds sources."""
    results = []
    saved = {name: circuit.source_value(name)
             for overrides in stimuli for name in overrides}
    try:
        for overrides in stimuli:
            for name, stim in overrides.items():
                circuit.set_source_value(name, stim)
            results.append(simulate_nonlinear(circuit, t_stop, dt,
                                              t_start=t_start))
    finally:
        for name, stim in saved.items():
            circuit.set_source_value(name, stim)
    return results


def assert_batch_matches(batched, serial, tolerance=TOLERANCE):
    assert len(batched) == len(serial)
    for c, (b, s) in enumerate(zip(batched, serial)):
        np.testing.assert_array_equal(b.times, s.times)
        delta = float(np.abs(b.states - s.states).max())
        assert delta <= tolerance, \
            f"candidate {c} drifted {delta:.3e} V from serial"


class TestBatchedEquivalence:
    def test_inverter_batch_matches_serial(self):
        waves = shifted_ramps(5)
        circuit = inverter_circuit(waves[0])
        stimuli = [{"vin": w} for w in waves]
        batched = simulate_nonlinear_batch(circuit, stimuli, 1 * NS, 1 * PS)
        serial = serial_reference(circuit, stimuli, 1 * NS, 1 * PS)
        assert_batch_matches(batched, serial)

    def test_device_free_rc_batch(self):
        waves = shifted_ramps(3, spread=0.1 * NS)
        circuit = rc_circuit(waves[0])
        stimuli = [{"vin": w} for w in waves]
        batched = simulate_nonlinear_batch(circuit, stimuli, 1 * NS,
                                           0.5 * PS)
        serial = serial_reference(circuit, stimuli, 1 * NS, 0.5 * PS)
        assert_batch_matches(batched, serial)

    @pytest.mark.parametrize("tail_max", [10 ** 9, 0])
    def test_dispatch_free_tail_matches_serial(self, monkeypatch,
                                               tail_max):
        """The shared dispatch-free loop inside the block kernel: with
        the tail threshold forced high every iteration of every
        candidate runs through it, at 0 none does.  Both sweeps land on
        the serial roots."""
        import repro.sim.batched as batched_mod

        waves = shifted_ramps(3)
        circuit = inverter_circuit(waves[0])
        stimuli = [{"vin": w} for w in waves]
        mna = build_mna(circuit, allow_devices=True)
        kernel = _batched_kernel(circuit, mna,
                                 time_grid(0.5 * NS, 1 * PS, 0.0)[1])
        assert kernel._pyt is not None
        monkeypatch.setattr(batched_mod, "_PY_TAIL_MAX", tail_max)
        batched = simulate_nonlinear_batch(circuit, stimuli, 0.5 * NS,
                                           1 * PS)
        serial = serial_reference(circuit, stimuli, 0.5 * NS, 1 * PS)
        assert_batch_matches(batched, serial)

    def test_single_candidate_bit_identical(self):
        wave = ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)
        circuit = inverter_circuit(wave)
        batched, = simulate_nonlinear_batch(circuit, [{"vin": wave}],
                                            1 * NS, 1 * PS)
        scalar = simulate_nonlinear(circuit, 1 * NS, 1 * PS)
        assert np.array_equal(batched.states, scalar.states)

    def test_dense_reference_delegates_to_serial(self):
        waves = shifted_ramps(3)
        circuit = inverter_circuit(waves[0])
        stimuli = [{"vin": w} for w in waves]
        solves = metrics().counter("newton.batched.solves")
        before = solves.value
        with dense_reference():
            batched = simulate_nonlinear_batch(circuit, stimuli,
                                               0.5 * NS, 1 * PS)
            serial = serial_reference(circuit, stimuli, 0.5 * NS, 1 * PS)
        assert solves.value == before  # no block solves on the reference
        for b, s in zip(batched, serial):
            assert np.array_equal(b.states, s.states)

    def test_x0_broadcast_and_block(self):
        waves = shifted_ramps(2)
        circuit = inverter_circuit(waves[0])
        stimuli = [{"vin": w} for w in waves]
        dim = build_mna(circuit, allow_devices=True).dim
        x0 = simulate_nonlinear(circuit, 2 * PS, 1 * PS).states[:, 0]
        from_flat = simulate_nonlinear_batch(circuit, stimuli, 0.5 * NS,
                                             1 * PS, x0=x0)
        from_block = simulate_nonlinear_batch(
            circuit, stimuli, 0.5 * NS, 1 * PS,
            x0=np.broadcast_to(x0, (2, dim)))
        for a, b in zip(from_flat, from_block):
            assert np.array_equal(a.states, b.states)

    def test_warm_cache_second_batch_identical(self):
        """Re-running the same batch through the now-populated kernel
        caches must reproduce the first run exactly."""
        waves = shifted_ramps(3)
        circuit = inverter_circuit(waves[0])
        stimuli = [{"vin": w} for w in waves]
        first = simulate_nonlinear_batch(circuit, stimuli, 0.5 * NS, 1 * PS)
        second = simulate_nonlinear_batch(circuit, stimuli, 0.5 * NS,
                                          1 * PS)
        for a, b in zip(first, second):
            assert np.array_equal(a.states, b.states)


class TestActiveSetMask:
    def test_converged_candidates_drop_from_active_set(self):
        """A candidate started at the step's Newton root converges on
        iteration one and must stop costing candidate-iterations."""
        wave = ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)
        circuit = inverter_circuit(wave)
        mna = build_mna(circuit, allow_devices=True)
        times = time_grid(1 * NS, 1 * PS, 0.0)
        h = times[1] - times[0]
        kernel = _batched_kernel(circuit, mna, h)
        assert kernel.available

        # A converged step from the serial reference, mid-transition.
        res = simulate_nonlinear(circuit, 1 * NS, 1 * PS)
        k = int(np.searchsorted(times, 0.25 * NS))
        x_prev, x_root = res.states[:, k - 1], res.states[:, k]
        b = kernel.Ch @ x_prev + mna.rhs_matrix(times[k:k + 1])[:, 0]
        B = np.stack([b, b])
        cold = np.zeros_like(x_root)

        active = metrics().counter("newton.batched.active")
        base = active.value
        X, failed = kernel.solve_from_u(kernel.base_rows(B),
                                        np.stack([cold, cold]), "both cold")
        both_cold = active.value - base
        assert not failed
        base = active.value
        X, failed = kernel.solve_from_u(kernel.base_rows(B),
                                        np.stack([x_root, cold]), "one warm")
        one_warm = active.value - base
        assert not failed
        # Same root either way; the warm candidate must have dropped out
        # after its first iteration instead of riding along.
        assert float(np.abs(X - x_root).max()) < 1e-5
        assert both_cold >= 4  # 0.5 V damping cap over a ~1.8 V travel
        assert one_warm < both_cold
        assert one_warm == both_cold // 2 + 1

    def test_counters_account_for_batch(self):
        waves = shifted_ramps(4)
        circuit = inverter_circuit(waves[0])
        stimuli = [{"vin": w} for w in waves]
        solves = metrics().counter("newton.batched.solves")
        active = metrics().counter("newton.batched.active")
        fallback = metrics().counter("newton.batched.fallback")
        s0, a0, f0 = solves.value, active.value, fallback.value
        simulate_nonlinear_batch(circuit, stimuli, 1 * NS, 1 * PS)
        steps = time_grid(1 * NS, 1 * PS, 0.0).size - 1
        assert solves.value - s0 == steps
        # Every active candidate costs at least one iteration per solve,
        # and the mask keeps the total well under the no-drop ceiling.
        assert active.value - a0 >= steps * len(waves)
        assert active.value - a0 < steps * len(waves) * 10
        assert fallback.value == f0


class TestScalarFallback:
    def test_block_fault_demotes_step_to_scalar(self):
        """A convergence fault on the block solve must drop every
        candidate of that step to the scalar ladder — and the results
        must still match the serial reference."""
        waves = shifted_ramps(3)
        circuit = inverter_circuit(waves[0])
        stimuli = [{"vin": w} for w in waves]
        serial = serial_reference(circuit, stimuli, 0.5 * NS, 1 * PS)
        fallback = metrics().counter("newton.batched.fallback")
        before = fallback.value
        install_faults(FaultPlan().add(
            "newton.batched", match="t=", action="convergence", times=1))
        batched = simulate_nonlinear_batch(circuit, stimuli, 0.5 * NS,
                                           1 * PS)
        clear_faults()
        assert fallback.value == before + len(waves)
        assert_batch_matches(batched, serial)

    def test_candidate_falls_through_to_bisection(self):
        """Chained faults: block solve fails, then one candidate's
        full-dt scalar retry fails too — that candidate alone must walk
        the dt-bisection ladder and still land on the serial states."""
        waves = shifted_ramps(3)
        circuit = inverter_circuit(waves[0])
        stimuli = [{"vin": w} for w in waves]
        serial = serial_reference(circuit, stimuli, 0.5 * NS, 1 * PS)
        recovered = metrics().counter("newton.recovered.substep")
        before = recovered.value
        install_faults(
            FaultPlan()
            .add("newton.batched", match="t=", action="convergence",
                 times=1)
            .add("newton.step", match="candidate 1", action="convergence",
                 times=1))
        batched = simulate_nonlinear_batch(circuit, stimuli, 0.5 * NS,
                                           1 * PS)
        clear_faults()
        assert recovered.value == before + 1
        assert_batch_matches(batched, serial)


class TestValidation:
    def test_empty_stimuli_rejected(self):
        circuit = rc_circuit(ramp(0.1 * NS, 0.1 * NS, 0.0, 1.0))
        with pytest.raises(ValueError, match="empty stimuli"):
            simulate_nonlinear_batch(circuit, [], 1 * NS, 1 * PS)

    def test_unknown_source_rejected(self):
        circuit = rc_circuit(ramp(0.1 * NS, 0.1 * NS, 0.0, 1.0))
        with pytest.raises(ValueError, match="unknown source 'nope'"):
            simulate_nonlinear_batch(circuit, [{"nope": 1.0}], 1 * NS,
                                     1 * PS)

    def test_degenerate_grid_rejected(self):
        circuit = rc_circuit(ramp(0.1 * NS, 0.1 * NS, 0.0, 1.0))
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate_nonlinear_batch(circuit, [{}], 1 * NS, 0.0)
        with pytest.raises(ValueError, match="degenerate time grid"):
            simulate_nonlinear_batch(circuit, [{}], 0.0, 1 * PS)

    def test_bad_x0_shape_rejected(self):
        circuit = rc_circuit(ramp(0.1 * NS, 0.1 * NS, 0.0, 1.0))
        with pytest.raises(ValueError, match="x0 must have shape"):
            simulate_nonlinear_batch(circuit, [{}, {}], 1 * NS, 1 * PS,
                                     x0=np.zeros(3))


class TestFactorCaches:
    def test_serial_sweep_reuses_factorizations(self):
        """The satellite fix behind the alignment speedup: rebinding a
        source keeps the topology version, so a serial sweep pays the
        DC + transient factorizations once and hits the cache after."""
        hit = metrics().counter("sim.factor_cache.hit")
        miss = metrics().counter("sim.factor_cache.miss")
        waves = shifted_ramps(4)
        circuit = inverter_circuit(waves[0])
        h0, m0 = hit.value, miss.value
        simulate_nonlinear(circuit, 0.2 * NS, 1 * PS)
        assert miss.value - m0 == 2  # one DC + one transient solver
        assert hit.value == h0
        for wave in waves[1:]:
            circuit.set_source_value("vin", wave)
            simulate_nonlinear(circuit, 0.2 * NS, 1 * PS)
        assert miss.value - m0 == 2
        assert hit.value - h0 == 2 * (len(waves) - 1)

    def test_batched_kernel_cached_per_h(self):
        wave = ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)
        circuit = inverter_circuit(wave)
        mna = build_mna(circuit, allow_devices=True)
        k1 = _batched_kernel(circuit, mna, 1 * PS)
        assert _batched_kernel(circuit, mna, 1 * PS) is k1
        assert _batched_kernel(circuit, mna, 2 * PS) is not k1

    def test_mna_cache_invalidated_by_topology_change(self):
        hit = metrics().counter("sim.mna_cache.hit")
        miss = metrics().counter("sim.mna_cache.miss")
        circuit = rc_circuit(ramp(0.1 * NS, 0.1 * NS, 0.0, 1.0))
        h0, m0 = hit.value, miss.value
        first = build_mna(circuit, allow_devices=True)
        assert build_mna(circuit, allow_devices=True) is first
        assert (miss.value - m0, hit.value - h0) == (1, 1)
        # Rebinding a source value is NOT a topology change ...
        circuit.set_source_value("vin", 0.5)
        assert build_mna(circuit, allow_devices=True) is first
        # ... but adding an element is.
        circuit.add_capacitor("cx", "out", GROUND, 1 * FF)
        assert build_mna(circuit, allow_devices=True) is not first
        assert miss.value - m0 == 2


class TestCircuitRebinding:
    def test_set_source_value_rebinds(self):
        circuit = rc_circuit(ramp(0.1 * NS, 0.1 * NS, 0.0, 1.0))
        circuit.set_source_value("vin", 0.25)
        assert circuit.source_value("vin") == 0.25

    def test_unknown_source_raises_keyerror(self):
        circuit = rc_circuit(ramp(0.1 * NS, 0.1 * NS, 0.0, 1.0))
        with pytest.raises(KeyError):
            circuit.source_value("nope")
        with pytest.raises(KeyError):
            circuit.set_source_value("nope", 0.0)

    def test_pickle_drops_mna_cache(self):
        """Worker handoff (repro.exec) pickles circuits; the cached MNA
        system (with factored solvers attached) must not ride along."""
        circuit = inverter_circuit(ramp(0.2 * NS, 0.1 * NS, 0.0, VDD))
        build_mna(circuit, allow_devices=True)
        assert "_mna_cache" in circuit.__dict__
        clone = pickle.loads(pickle.dumps(circuit))
        assert "_mna_cache" not in clone.__dict__
        # The clone still simulates identically.
        a = simulate_nonlinear(circuit, 0.1 * NS, 1 * PS)
        b = simulate_nonlinear(clone, 0.1 * NS, 1 * PS)
        assert np.array_equal(a.states, b.states)


def sweep_inputs():
    """``(label, receiver, victim, pulse, vdd)`` alignment-sweep inputs.

    A hand-built receiver case, then each seed-1 population net's
    receiver-end victim transition and first-aggressor noise pulse.
    """
    receiver = ReceiverSpec(inverter(scale=2), c_load=5 * FF)
    yield ("hand-built", receiver,
           ramp(-0.15 * NS, 0.3 * NS, 0.0, VDD, pad=0.5 * NS),
           noise_pulse(0.0, -0.45, 0.12 * NS), VDD)
    cache = ModelCache()
    for net in NetGenerator(seed=1).population(2):
        engine = SuperpositionEngine(net, cache=cache)
        victim = (engine.victim_transition().at_receiver
                  + net.victim_initial_level())
        pulse = engine.aggressor_noise(net.aggressors[0].name).at_receiver
        yield f"seed-1 {net.name}", net.receiver, victim, pulse, net.vdd


class TestAlignmentSweepEquivalence:
    def test_batched_sweep_matches_serial_sweep(self):
        """End to end, on every case of :func:`sweep_inputs`:
        exhaustive_worst_alignment with batch=True must reproduce the
        serial sweep's grid exactly and its delays inside the kernel
        tolerance."""
        kwargs = dict(steps=9, refine=4, dt=2 * PS)
        for label, receiver, victim, pulse, vdd in sweep_inputs():
            serial = exhaustive_worst_alignment(
                receiver, victim, pulse, vdd, True, batch=False, **kwargs)
            batched = exhaustive_worst_alignment(
                receiver, victim, pulse, vdd, True, batch=True, **kwargs)
            np.testing.assert_array_equal(batched.peak_times,
                                          serial.peak_times, label)
            np.testing.assert_allclose(batched.extra_output_delays,
                                       serial.extra_output_delays,
                                       atol=TOLERANCE, rtol=0,
                                       err_msg=label)
            assert batched.best_peak_time == serial.best_peak_time, label
            assert batched.best_extra_output == pytest.approx(
                serial.best_extra_output, abs=TOLERANCE), label

    def test_candidate_counter_tracks_sweep_size(self):
        receiver = ReceiverSpec(inverter(scale=2), c_load=5 * FF)
        victim = ramp(-0.15 * NS, 0.3 * NS, 0.0, VDD, pad=0.5 * NS)
        pulse = noise_pulse(0.0, -0.45, 0.12 * NS)
        candidates = metrics().counter("alignment.candidates")
        before = candidates.value
        exhaustive_worst_alignment(receiver, victim, pulse, VDD, True,
                                   steps=7, dt=2 * PS)
        # steps pulse positions plus the noiseless reference.
        assert candidates.value - before == 8
