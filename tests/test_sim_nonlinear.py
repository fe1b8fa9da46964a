"""Tests for repro.sim.nonlinear (inverter-level validation)."""

import numpy as np
import pytest

from repro.circuit import Circuit, GROUND
from repro.devices import default_technology, nmos_params, pmos_params
from repro.sim import ConvergenceError, simulate_linear, simulate_nonlinear
from repro.units import FF, KOHM, NS, PS, UM
from repro.waveform import ramp, triangular_pulse

TECH = default_technology()
VDD = TECH.vdd


def inverter_circuit(input_wave, c_load=20 * FF, wn=1 * UM, wp=2.2 * UM):
    """Inverter driven by an ideal source, loaded by a capacitor."""
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", GROUND, VDD)
    c.add_vsource("vin", "in", GROUND, input_wave)
    c.add_mosfet("mn", nmos_params(TECH, wn), "out", "in", GROUND)
    c.add_mosfet("mp", pmos_params(TECH, wp), "out", "in", "vdd")
    c.add_capacitor("cl", "out", GROUND, c_load)
    return c


class TestDcOperatingPoint:
    def test_input_low_output_high(self):
        c = inverter_circuit(0.0)
        result = simulate_nonlinear(c, 0.1 * NS, 1 * PS)
        assert result.voltage("out")(0.0) == pytest.approx(VDD, abs=0.01)

    def test_input_high_output_low(self):
        c = inverter_circuit(VDD)
        result = simulate_nonlinear(c, 0.1 * NS, 1 * PS)
        assert result.voltage("out")(0.0) == pytest.approx(0.0, abs=0.01)

    def test_midpoint_input_intermediate_output(self):
        c = inverter_circuit(VDD / 2)
        result = simulate_nonlinear(c, 0.1 * NS, 1 * PS)
        v = result.voltage("out")(0.0)
        assert 0.1 * VDD < v < 0.98 * VDD


class TestInverterTransient:
    def test_falling_output_on_rising_input(self):
        wave = ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)
        result = simulate_nonlinear(inverter_circuit(wave), 2 * NS, 1 * PS)
        out = result.voltage("out")
        assert out(0.0) == pytest.approx(VDD, abs=0.01)
        assert out.values[-1] == pytest.approx(0.0, abs=0.01)

    def test_delay_increases_with_load(self):
        wave = ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)
        delays = []
        for c_load in (10 * FF, 40 * FF, 160 * FF):
            result = simulate_nonlinear(inverter_circuit(wave, c_load),
                                        4 * NS, 1 * PS)
            delays.append(
                result.voltage("out").crossing_time(VDD / 2, rising=False))
        assert delays[0] < delays[1] < delays[2]

    def test_delay_decreases_with_size(self):
        wave = ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)
        small = simulate_nonlinear(
            inverter_circuit(wave, 40 * FF, wn=1 * UM, wp=2.2 * UM),
            4 * NS, 1 * PS)
        large = simulate_nonlinear(
            inverter_circuit(wave, 40 * FF, wn=4 * UM, wp=8.8 * UM),
            4 * NS, 1 * PS)
        t_small = small.voltage("out").crossing_time(VDD / 2, rising=False)
        t_large = large.voltage("out").crossing_time(VDD / 2, rising=False)
        assert t_large < t_small

    def test_rail_to_rail_swing(self):
        wave = ramp(0.2 * NS, 0.2 * NS, VDD, 0.0)
        result = simulate_nonlinear(inverter_circuit(wave), 3 * NS, 1 * PS)
        lo, hi = result.voltage("out").value_range()
        assert lo > -0.05
        assert hi < VDD + 0.05


class TestNoiseInjection:
    def test_holding_driver_resists_noise(self):
        """A static (non-switching) driver fights an injected pulse; the
        resulting disturbance is far smaller than on a floating node."""
        c = inverter_circuit(VDD, c_load=20 * FF)  # output held low
        # 0.5 mA pulse: below the holding NMOS saturation current, so the
        # driver's triode conductance bounds the bounce.
        pulse = triangular_pulse(0.5 * NS, 0.5e-3, 0.1 * NS)
        c.add_isource("inoise", "out", GROUND, pulse)
        result = simulate_nonlinear(c, 1.5 * NS, 1 * PS)
        v = result.voltage("out")
        peak = v.value_range()[1]
        assert 0.05 < peak < 0.5 * VDD  # bounced but clamped by the driver
        assert abs(v.values[-1]) < 0.01  # recovers

    def test_noise_on_switching_driver(self):
        """Inject during a transition: output is perturbed then recovers
        to the rail — the scenario behind the Rtr model."""
        wave = ramp(0.2 * NS, 0.2 * NS, 0.0, VDD)
        clean_c = inverter_circuit(wave, 30 * FF)
        clean = simulate_nonlinear(clean_c, 3 * NS, 1 * PS).voltage("out")

        noisy_c = inverter_circuit(wave, 30 * FF)
        pulse = triangular_pulse(0.35 * NS, 1.5e-3, 0.1 * NS)
        noisy_c.add_isource("inoise", "out", GROUND, pulse)
        noisy = simulate_nonlinear(noisy_c, 3 * NS, 1 * PS).voltage("out")

        diff = noisy - clean
        assert diff.value_range()[1] > 0.02  # visible noise bump
        assert abs(diff.values[-1]) < 1e-3   # both settle to the same rail


class TestAgainstLinearSolver:
    def test_linear_circuit_matches_linear_solver(self):
        """With no devices, the non-linear path must agree with the
        trapezoidal linear solver (both converge to the true response)."""
        def build():
            c = Circuit("rc")
            c.add_vsource("vin", "in", GROUND,
                          ramp(0.1 * NS, 0.1 * NS, 0.0, 1.0))
            c.add_resistor("r1", "in", "out", 1 * KOHM)
            c.add_capacitor("c1", "out", GROUND, 50 * FF)
            return c

        dt = 0.25 * PS
        lin = simulate_linear(build(), 1 * NS, dt).voltage("out")
        nl = simulate_nonlinear(build(), 1 * NS, dt).voltage("out")
        probe = np.linspace(0, 1 * NS, 40)
        np.testing.assert_allclose(nl(probe), lin(probe), atol=5e-3)


class TestChaining:
    def test_x0_chaining(self):
        wave = ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)
        c = inverter_circuit(wave)
        full = simulate_nonlinear(c, 2 * NS, 1 * PS)
        first = simulate_nonlinear(c, 1 * NS, 1 * PS)
        second = simulate_nonlinear(c, 2 * NS, 1 * PS, t_start=1 * NS,
                                    x0=first.states[:, -1])
        v_full = full.voltage("out")(1.5 * NS)
        v_chained = second.voltage("out")(1.5 * NS)
        assert v_chained == pytest.approx(v_full, abs=5e-3)

    def test_bad_x0(self):
        c = inverter_circuit(0.0)
        with pytest.raises(ValueError):
            simulate_nonlinear(c, 1 * NS, 1 * PS, x0=np.zeros(3))


class TestValidation:
    def test_degenerate_time_grid_rejected_eagerly(self):
        c = inverter_circuit(0.0)
        with pytest.raises(ValueError, match="degenerate time grid"):
            simulate_nonlinear(c, 0.0, 1 * PS)
        with pytest.raises(ValueError, match="t_stop"):
            simulate_nonlinear(c, 1 * NS, 1 * PS, t_start=1 * NS)
        with pytest.raises(ValueError, match="degenerate time grid"):
            simulate_nonlinear(c, 0.5 * NS, 1 * PS, t_start=1 * NS)

    def test_nonpositive_dt_rejected(self):
        c = inverter_circuit(0.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate_nonlinear(c, 1 * NS, 0.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate_nonlinear(c, 1 * NS, -1 * PS)


class TestNonConvergenceDiagnostics:
    def test_message_reports_applied_damped_step(self):
        """The diagnostic reports the update actually applied (after the
        ±0.5 V damping clamp), not the raw undamped Newton step."""
        from repro.sim.nonlinear import _reference_solve

        # F(x) = x + [1e9, 1]: the undamped step stays ~1e9, the
        # applied one 0.5 V.
        with pytest.raises(ConvergenceError) as excinfo:
            _reference_solve(np.eye(2), np.array([-1e9, -1.0]), [],
                             np.zeros(2), "probe")
        message = str(excinfo.value)
        assert "last applied step 5.000e-01 V" in message
        assert "worst residual 1.000e+09" in message
