"""Fast-kernel vs dense-reference equivalence (property-style sweep).

The fast kernel (shared base factorization + Woodbury updates, exact
Newton fallback, vectorized device stamping) must land on the same
transient states as the dense reference solve for every circuit class
it can meet — seeded coupled-net golden circuits, device-free RC
networks, coupling-only floating nodes, device-held nodes that leave
the base matrix singular up to rounding — and must keep matching when
the recovery ladders (dt bisection, gmin stepping, source ramping) are
forced through fault injection.
"""

import numpy as np
import pytest

from repro import trust
from repro.bench.netgen import NetGenerator
from repro.circuit import GROUND, Circuit
from repro.circuit.mna import build_mna
from repro.core.golden import golden_circuit
from repro.devices import default_technology, nmos_params, pmos_params
from repro.obs import metrics
from repro.resilience import FaultPlan, clear_faults, install_faults
from repro.sim import ConvergenceError, dc_operating_point, simulate_nonlinear
from repro.sim.factor import factorize
from repro.sim.nonlinear import dense_reference
from repro.units import FF, KOHM, NS, PS, UM
from repro.waveform import ramp

#: Maximum per-state voltage difference between the kernels.  Both drive
#: the damped Newton update below the same 1e-6 V acceptance tolerance,
#: and quadratic convergence squashes the remaining error far below this
#: bound (about 1e-13 V on the seeded population), so a breach means a
#: real solver change, not rounding.
TOLERANCE = 1e-9

TECH = default_technology()
VDD = TECH.vdd


@pytest.fixture(autouse=True)
def no_leaked_faults():
    clear_faults()
    yield
    clear_faults()


def run_both(build, t_stop, dt, plan_factory=None, x0=None):
    """Simulate a circuit on the reference and the fast kernel; return
    (reference, fast).

    ``plan_factory`` builds a *fresh* fault plan per kernel run, so
    one-shot faults fire identically for both.
    """
    results = {}
    for reference in (True, False):
        clear_faults()
        if plan_factory is not None:
            install_faults(plan_factory())
        with dense_reference(reference):
            results[reference] = simulate_nonlinear(build(), t_stop, dt,
                                                    x0=x0)
        clear_faults()
    return results[True], results[False]


def assert_states_match(reference, fast, tolerance=TOLERANCE):
    delta = float(np.abs(fast.states - reference.states).max())
    assert delta <= tolerance, f"kernel state drift {delta:.3e} V"


def inverter_circuit(input_wave, c_load=20 * FF):
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", GROUND, VDD)
    c.add_vsource("vin", "in", GROUND, input_wave)
    c.add_mosfet("mn", nmos_params(TECH, 1 * UM), "out", "in", GROUND)
    c.add_mosfet("mp", pmos_params(TECH, 2.2 * UM), "out", "in", "vdd")
    c.add_capacitor("cl", "out", GROUND, c_load)
    return c


def rc_circuit():
    """Device-free circuit: the fast kernel's pure-Woodbury k=0 path."""
    c = Circuit("rc")
    c.add_vsource("vin", "in", GROUND, ramp(0.1 * NS, 0.1 * NS, 0.0, 1.0))
    c.add_resistor("r1", "in", "mid", 1 * KOHM)
    c.add_capacitor("c1", "mid", GROUND, 50 * FF)
    c.add_resistor("r2", "mid", "out", 2 * KOHM)
    c.add_capacitor("c2", "out", GROUND, 20 * FF)
    return c


def floating_node_circuit():
    """A node reached only through a coupling capacitor.

    Its G row is empty (singular at DC) but ``A = C/h + G`` is regular,
    so the transient itself is well-posed once an initial state is
    supplied.
    """
    c = Circuit("floating")
    c.add_vsource("vin", "agg", GROUND, ramp(0.1 * NS, 0.1 * NS, 0.0, VDD))
    c.add_capacitor("cc", "agg", "victim", 30 * FF)
    c.add_capacitor("cg", "victim", GROUND, 50 * FF)
    return c


class TestSeededPopulation:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_golden_circuits_match(self, seed):
        nonconverged = metrics().counter("newton.nonconverged")
        before = nonconverged.value
        for net in NetGenerator(seed=seed).population(2):
            reference, fast = run_both(lambda: golden_circuit(net),
                                    1 * NS, 1 * PS)
            assert_states_match(reference, fast)
        # No Newton solve failed on the way: a failure that a recovery
        # ladder rescued would not show in the states.
        assert nonconverged.value == before

    def test_dc_operating_points_match(self):
        for net in NetGenerator(seed=3).population(2):
            circuit = golden_circuit(net)
            with dense_reference():
                x_reference = dc_operating_point(circuit)
            x_fast = dc_operating_point(circuit)
            assert float(np.abs(x_fast - x_reference).max()) <= TOLERANCE


class TestCircuitClasses:
    def test_device_free_rc(self):
        reference, fast = run_both(rc_circuit, 1 * NS, 0.5 * PS)
        assert_states_match(reference, fast)

    def test_inverter(self):
        wave = ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)
        reference, fast = run_both(lambda: inverter_circuit(wave),
                                2 * NS, 1 * PS)
        assert_states_match(reference, fast)

    def test_coupling_only_floating_node_transient(self):
        build = floating_node_circuit
        dim = build_mna(build(), allow_devices=True).dim
        reference, fast = run_both(build, 1 * NS, 1 * PS, x0=np.zeros(dim))
        assert_states_match(reference, fast)

    def test_coupling_only_floating_node_dc_fails_identically(self):
        """With no conductive path the DC Jacobian is singular; both
        kernels must walk the whole recovery ladder and raise."""
        for reference in (True, False):
            with dense_reference(reference):
                with pytest.raises(ConvergenceError):
                    dc_operating_point(floating_node_circuit())


class TestThroughRecoveryLadders:
    def test_dt_bisection(self):
        wave = ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)
        recovered = metrics().counter("newton.recovered.substep")
        before = recovered.value
        reference, fast = run_both(
            lambda: inverter_circuit(wave), 1 * NS, 1 * PS,
            plan_factory=lambda: FaultPlan().add(
                "newton.step", match="t=", action="convergence", times=1))
        assert recovered.value == before + 2  # once per kernel
        assert_states_match(reference, fast)

    def test_gmin_stepping(self):
        wave = ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)
        recovered = metrics().counter("newton.recovered.gmin")
        before = recovered.value
        reference, fast = run_both(
            lambda: inverter_circuit(wave), 0.5 * NS, 1 * PS,
            plan_factory=lambda: FaultPlan().add(
                "newton.step", match="DC operating point",
                action="convergence", times=1))
        assert recovered.value == before + 2
        assert_states_match(reference, fast)

    def test_source_ramp(self):
        wave = ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)
        recovered = metrics().counter("newton.recovered.source_ramp")
        before = recovered.value
        reference, fast = run_both(
            lambda: inverter_circuit(wave), 0.5 * NS, 1 * PS,
            plan_factory=lambda: FaultPlan()
            .add("newton.step", match="DC operating point",
                 action="convergence", times=1)
            .add("newton.step", match="gmin",
                 action="convergence", times=1))
        assert recovered.value == before + 2
        assert_states_match(reference, fast)


class TestIllConditionedBase:
    """A base matrix that is singular in exact arithmetic but survives
    factorization through rounding must not carry Woodbury updates.

    An inverter holding its output low drives a π load: at DC, ``out``
    and the far node are held only by the transistors, so ``G`` is
    singular up to rounding.  Woodbury over that factor would accept
    ``out`` ≈ 0.35 V on its step size alone; the true point is about
    1 µV.
    """

    @staticmethod
    def pi_loaded_inverter():
        c = inverter_circuit(VDD, c_load=5 * FF)
        c.add_resistor("rpi", "out", "far", 2.75 * KOHM)
        c.add_capacitor("cf", "far", GROUND, 20 * FF)
        return c

    def test_base_factor_is_ill_conditioned(self):
        mna = build_mna(self.pi_loaded_inverter(), allow_devices=True)
        rcond = factorize(mna.G).rcond_estimate()
        assert rcond < trust.RCOND_MIN

    @pytest.mark.parametrize("trusted", [True, False])
    def test_dc_point_matches_reference(self, trusted):
        with trust.trust_mode(trusted):
            with dense_reference():
                x_reference = dc_operating_point(self.pi_loaded_inverter())
            x_fast = dc_operating_point(self.pi_loaded_inverter())
        assert float(np.abs(x_fast - x_reference).max()) <= TOLERANCE

    def test_rejected_base_raises_no_condition_warning(self):
        """The routing rule throws the base away unused, so the trust
        layer's condition monitor must not count or log it."""
        warnings = metrics().counter("trust.condition_warnings")
        before = warnings.value
        with trust.trust_mode(True):
            dc_operating_point(self.pi_loaded_inverter())
        assert warnings.value == before


class TestKernelModeSwitch:
    def test_context_restores_previous_mode(self):
        import repro.sim.nonlinear as nl
        assert nl._REFERENCE is False
        with dense_reference():
            assert nl._REFERENCE is True
            with dense_reference(False):
                assert nl._REFERENCE is False
            assert nl._REFERENCE is True
        assert nl._REFERENCE is False
        with pytest.raises(RuntimeError):
            with dense_reference():
                raise RuntimeError("boom")
        assert nl._REFERENCE is False


class TestBatchScalarCrossover:
    def test_scalar_and_vector_paths_agree(self, monkeypatch):
        """_DeviceBatch.evaluate: the n < _BATCH_EVAL_MIN scalar loop and
        the vectorized evaluate_batch path compute the same currents and
        derivatives."""
        import repro.sim.nonlinear as nl
        from repro.circuit.mna import build_mna

        net = next(iter(NetGenerator(seed=5).population(1)))
        circuit = golden_circuit(net)
        mna = build_mna(circuit, allow_devices=True)
        batch = nl._DeviceBatch(circuit.mosfets, mna)
        rng = np.random.default_rng(42)
        for _ in range(5):
            x = rng.uniform(-0.5, VDD + 0.5, mna.dim)
            monkeypatch.setattr(nl, "_BATCH_EVAL_MIN", 10 ** 9)
            i_scalar, d_scalar = batch.evaluate(x)
            monkeypatch.setattr(nl, "_BATCH_EVAL_MIN", 0)
            i_vector, d_vector = batch.evaluate(x)
            np.testing.assert_allclose(i_vector, i_scalar, rtol=1e-12,
                                       atol=1e-18)
            np.testing.assert_allclose(d_vector, d_scalar, rtol=1e-12,
                                       atol=1e-18)
