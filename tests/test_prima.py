"""Tests for repro.mor (PRIMA reduction)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import trust
from repro.bench.netgen import NetGenerator
from repro.circuit import Circuit, GROUND, build_mna
from repro.circuit.topology import couple_nodes, rc_line
from repro.mor import ReducedModel, prima_reduce, transfer_moments
from repro.obs import metrics
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    clear_faults,
    install_faults,
)
from repro.sim import simulate_linear, time_grid
from repro.units import FF, KOHM, NS, PS
from repro.waveform import triangular_pulse


def current_driven_line(n_segments=12):
    """RC line driven by a current source — symmetric PSD G and C."""
    circuit = Circuit("line")
    rc_line(circuit, "w_", "in", "out", n_segments, 2 * KOHM, 150 * FF)
    circuit.add_resistor("rterm", "in", GROUND, 500.0)  # makes G nonsingular
    circuit.add_isource("iin", "in", GROUND, 0.0)
    return circuit


class TestPrimaBasics:
    def test_basis_orthonormal(self):
        mna = build_mna(current_driven_line())
        parts = prima_reduce(mna.G, mna.C, mna.input_incidence(), order=6)
        V = parts["V"]
        np.testing.assert_allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-10)

    def test_reduced_dimensions(self):
        mna = build_mna(current_driven_line())
        parts = prima_reduce(mna.G, mna.C, mna.input_incidence(), order=5)
        assert parts["Gr"].shape == (5, 5)
        assert parts["Br"].shape == (5, 1)

    def test_order_capped_at_dimension(self):
        mna = build_mna(current_driven_line(n_segments=2))
        parts = prima_reduce(mna.G, mna.C, mna.input_incidence(), order=50)
        assert parts["Gr"].shape[0] <= mna.dim

    def test_invalid_order(self):
        mna = build_mna(current_driven_line())
        with pytest.raises(ValueError):
            prima_reduce(mna.G, mna.C, mna.input_incidence(), order=0)

    def test_mismatched_b(self):
        mna = build_mna(current_driven_line())
        with pytest.raises(ValueError):
            prima_reduce(mna.G, mna.C, np.zeros((3, 1)), order=2)


class TestMomentMatching:
    def test_moments_match_floor_q_over_p(self):
        circuit = current_driven_line()
        mna = build_mna(circuit)
        B = mna.input_incidence()
        L = mna.output_incidence(["out"])
        q = 6
        full = transfer_moments(mna.G, mna.C, B, L, q)
        model = ReducedModel.from_mna(mna, ["out"], q)
        red = model.moments(q)
        # Single input: q matched moments expected.
        for k in range(q):
            np.testing.assert_allclose(
                red[k], full[k], rtol=1e-6, atol=1e-30,
                err_msg=f"moment {k} mismatch")

    def test_zeroth_moment_is_dc_gain(self):
        circuit = current_driven_line()
        mna = build_mna(circuit)
        B = mna.input_incidence()
        L = mna.output_incidence(["out"])
        m0 = transfer_moments(mna.G, mna.C, B, L, 1)[0]
        # DC: current through rterm only; v_out = v_in = I * 500.
        assert m0[0, 0] == pytest.approx(500.0, rel=1e-9)


class TestPassivity:
    def test_congruence_preserves_definiteness(self):
        """For RC with current inputs, G and C are sym. PSD; the reduced
        matrices must stay sym. PSD — the heart of PRIMA's passivity."""
        circuit = current_driven_line()
        mna = build_mna(circuit)
        parts = prima_reduce(mna.G, mna.C, mna.input_incidence(), order=6)
        for M in (parts["Gr"], parts["Cr"]):
            np.testing.assert_allclose(M, M.T, atol=1e-12)
            eig = np.linalg.eigvalsh(M)
            assert eig.min() >= -1e-12

    def test_reduced_poles_stable(self):
        circuit = current_driven_line()
        mna = build_mna(circuit)
        parts = prima_reduce(mna.G, mna.C, mna.input_incidence(), order=6)
        # Generalized eigenvalues of (Gr, -Cr) are the poles s: Gr v = -s Cr v.
        import scipy.linalg as sla
        poles = sla.eigvals(parts["Gr"], -parts["Cr"])
        finite = poles[np.isfinite(poles)]
        assert (finite.real <= 1e-6).all()


class TestTransientAccuracy:
    def test_reduced_matches_full_transient(self):
        """Order-8 reduction of a 24-node coupled net reproduces the
        far-end noise waveform of the full simulation."""
        circuit = Circuit("coupled")
        na = rc_line(circuit, "v_", "vin", "vout", 10, 1.5 * KOHM, 80 * FF)
        nb = rc_line(circuit, "a_", "ain", "aout", 10, 1.5 * KOHM, 80 * FF)
        couple_nodes(circuit, "x_", na, nb, 60 * FF)
        circuit.add_resistor("rv", "vin", GROUND, 800.0)   # victim holder
        circuit.add_resistor("ra_far", "aout", GROUND, 10 * KOHM)
        pulse = triangular_pulse(0.4 * NS, 1.2e-3, 0.15 * NS)
        circuit.add_isource("iagg", "ain", GROUND, pulse)

        full = simulate_linear(circuit, 2 * NS, 1 * PS)
        mna = full.mna

        model = ReducedModel.from_mna(mna, ["vout"], order=8)
        times = full.times
        inputs = np.atleast_2d(pulse(times))
        reduced_out = model.simulate(times, inputs)["vout"]

        full_out = full.voltage("vout")
        peak_full = np.abs(full_out.values).max()
        err = np.abs(reduced_out.values - full_out.values).max()
        assert peak_full > 1e-3  # the test is non-trivial
        assert err < 0.02 * peak_full

    def test_input_shape_validation(self):
        circuit = current_driven_line()
        mna = build_mna(circuit)
        model = ReducedModel.from_mna(mna, ["out"], 4)
        times = time_grid(1 * NS, 10 * PS)
        with pytest.raises(ValueError):
            model.simulate(times, np.zeros((2, times.size)))

    def test_speedup_structure(self):
        """Reduced model is much smaller than the original."""
        circuit = current_driven_line(n_segments=60)
        mna = build_mna(circuit)
        model = ReducedModel.from_mna(mna, ["out"], 8)
        assert model.order <= 8 < mna.dim


class TestPortModel:
    """One reduction of a floating network, terminated per use at its
    ports (``ReducedModel.from_ports`` / ``terminated``)."""

    PORTS = ["v_root", "a0_root", "a1_root", "v_rcv"]
    REFERENCE = [1 / 900.0, 1 / 300.0, 1 / 300.0, 0.0]
    MOMENTS = 12
    #: Two termination sets, neither the reference; the second also
    #: loads the receiver port.
    TERMINATIONS = ([1 / 1200.0, 1 / 250.0, 1 / 400.0, 0.0],
                    [1 / 3000.0, 1 / 150.0, 1 / 800.0, 1 / 5e4])

    @staticmethod
    def tree_mna(sparse: bool):
        net = NetGenerator(seed=3).large_tree(nodes=200, n_aggressors=2)
        return build_mna(net.interconnect, sparse=sparse)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_terminations_keep_block_moments(self, sparse):
        """Conductances at the ports leave the Krylov space unchanged, so
        one basis matches 12 block port moments of every terminated
        network."""
        mna = self.tree_mna(sparse)
        model = ReducedModel.from_ports(
            mna, self.PORTS, self.MOMENTS * len(self.PORTS), self.REFERENCE)
        assert model.order == self.MOMENTS * len(self.PORTS) < mna.dim
        P = mna.output_incidence(self.PORTS)
        for g in map(np.asarray, self.TERMINATIONS):
            shunt = P @ g
            G = mna.G + (sp.diags(shunt) if sparse else np.diag(shunt))
            want = transfer_moments(G, mna.C, P, P, self.MOMENTS)
            got = model.terminated(g).moments(self.MOMENTS)
            for k, (a, b) in enumerate(zip(got, want)):
                np.testing.assert_allclose(
                    a, b, rtol=1e-9, atol=1e-9 * np.abs(b).max(),
                    err_msg=f"moment {k}")

    def test_reduced_steps_are_audited(self):
        """With the trust layer on, the reduced transient verifies
        sampled steps like ``simulate_linear`` and repairs a corrupted
        one exactly; with it off it checks nothing."""
        model = ReducedModel.from_ports(
            self.tree_mna(True), self.PORTS, 24, self.REFERENCE
        ).terminated(self.TERMINATIONS[0])
        times = time_grid(2 * NS, 1 * PS)
        inputs = np.zeros((len(self.PORTS), times.size))
        inputs[1] = np.clip(times / (0.1 * NS), 0.0, 1.0) * 1.8 / 250.0
        checks = metrics().counter("trust.residual_checks")
        with trust.trust_mode(False):
            before = checks.value
            off = model.simulate(times, inputs)
            assert checks.value == before
        with trust.trust_mode(True):
            before = checks.value
            clean = model.simulate(times, inputs)
            # Every stride-th step plus the last (the stride of
            # simulate_linear: 4 x CHECK_INTERVAL).
            stride = 4 * trust.CHECK_INTERVAL
            last = times.size - 2
            assert last % stride
            assert checks.value - before == last // stride + 2
            trust.drain_events()
            install_faults(FaultPlan(specs=[FaultSpec(
                point="trust.verify", match="reduced step", action="nan",
                times=1)]))
            try:
                faulted = model.simulate(times, inputs)
            finally:
                clear_faults()
        hops = {e["hop"] for e in trust.drain_events()
                if e["kind"] == "escalated"}
        assert hops == {"fresh-solve"}
        for node in self.PORTS:
            assert np.array_equal(clean[node].values, off[node].values)
            np.testing.assert_allclose(faulted[node].values,
                                       clean[node].values,
                                       rtol=0, atol=1e-12)

    def test_reduced_step_matrix_is_condition_monitored(self):
        """The reduced transient runs the integrator of
        ``simulate_linear``, so its step matrix is condition-monitored
        like every other trapezoidal step matrix: one observed
        factorization per transient with the trust layer on, none with
        it off."""
        model = ReducedModel.from_ports(
            self.tree_mna(False), self.PORTS, 24, self.REFERENCE
        ).terminated(self.TERMINATIONS[0])
        times = time_grid(0.5 * NS, 1 * PS)
        inputs = np.zeros((len(self.PORTS), times.size))
        inputs[1] = np.clip(times / (0.1 * NS), 0.0, 1.0) * 1.8 / 250.0
        observed = metrics().counter("trust.factorizations")
        for enabled, count in ((True, 1), (False, 0)):
            with trust.trust_mode(enabled):
                before = observed.value
                model.simulate(times, inputs)
                assert observed.value - before == count, enabled
