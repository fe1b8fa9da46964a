"""Sparse MNA backend and factorization-facade tests.

Covers the extracted-scale solve path end-to-end: triplet-stream
stamping parity between the dense and sparse ``build_mna`` backends, the
SuperLU backend behind :class:`repro.sim.factor.Factorization` (shape
contract, singular-matrix error parity with the dense backends), the
linear / non-linear / batched simulators forced through sparse systems
on hand-sized circuits via :func:`repro.circuit.mna.sparse_threshold`,
PRIMA and the moment code on sparse ``G``/``C`` against the dense path,
the ``large_tree`` net generator and the dense-vs-sparse transient on a
driven tree of about 2000 unknowns, and the regressions fixed alongside:
the MNA cache miss counter and the ``time_grid`` dt-vs-h drift in the
CSM driver integrator.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench.netgen import NetGenerator
from repro.circuit import Circuit, GROUND
from repro.circuit.mna import (
    SPARSE_MIN_DIM,
    build_mna,
    sparse_threshold,
)
from repro.circuit.topology import couple_nodes, rc_line
from repro.devices import default_technology, nmos_params, pmos_params
from repro.gates.csm import CurrentSourceModel, simulate_csm_driver
from repro.mor import ReducedModel, prima_reduce, transfer_moments
from repro.obs import metrics
from repro.sim import (
    simulate_linear,
    simulate_nonlinear,
    simulate_nonlinear_batch,
)
from repro.sim.factor import (
    _INVERSE_MAX,
    Factorization,
    factorize,
    is_sparse_matrix,
)
from repro.sim.result import time_grid
from repro.units import FF, KOHM, NS, PS
from repro.waveform import ramp

TECH = default_technology()
VDD = TECH.vdd


def coupled_rc_circuit(segments=12):
    """Two coupled RC lines, victim driven by a ramp."""
    c = Circuit("pair")
    v = rc_line(c, "v_", "v_root", "v_rcv", segments, 1.2 * KOHM, 45 * FF)
    a = rc_line(c, "a_", "a_root", "a_far", segments, 0.8 * KOHM, 35 * FF)
    couple_nodes(c, "x_", v, a, 30 * FF)
    c.add_vsource("vs", "v_root", GROUND, ramp(0.1 * NS, 0.1 * NS, 0.0, 1.2))
    c.add_resistor("rh", "a_root", GROUND, 150.0)
    return c


def norton_pair(segments=40):
    """Two coupled RC lines in the tier-1 screening shape: the victim
    held by a resistor, the aggressor driven by a current source across
    a small shunt (symmetric positive-definite ``G``)."""
    c = Circuit("norton_pair")
    v = rc_line(c, "v_", "v_root", "v_rcv", segments, 1.2 * KOHM, 45 * FF)
    a = rc_line(c, "a_", "a_root", "a_far", segments, 0.8 * KOHM, 35 * FF)
    couple_nodes(c, "x_", v, a, 30 * FF)
    c.add_resistor("rh", "v_root", GROUND, 2 * KOHM)
    c.add_resistor("rsrc", "a_root", GROUND, 10.0)
    c.add_isource("iin", GROUND, "a_root", 0.0)
    return c


def inverter_circuit(input_wave, c_load=20 * FF):
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", GROUND, VDD)
    c.add_vsource("vin", "in", GROUND, input_wave)
    c.add_mosfet("mn", nmos_params(TECH, 1e-6), "out", "in", GROUND)
    c.add_mosfet("mp", pmos_params(TECH, 2.2e-6), "out", "in", "vdd")
    c.add_capacitor("cl", "out", GROUND, c_load)
    return c


def tree_drive_circuit(net):
    """The large-tree interconnect with ramp drives at every root.

    Voltage sources at the victim and aggressor roots make ``G``
    non-singular and give the transient something to do; the circuit
    is pure RC plus sources, the linear solver's territory.
    """
    drive = net.interconnect.copy(f"{net.name}_drive")
    drive.add_vsource("vs_victim", net.victim_root, GROUND,
                      ramp(0.1 * NS, 0.2 * NS, 0.0, net.vdd))
    for agg in net.aggressors:
        drive.add_vsource(f"vs_{agg.name}", agg.root, GROUND,
                          ramp(0.3 * NS, 0.15 * NS, net.vdd, 0.0))
    return drive


def spd_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


class TestSparseStamping:
    def test_sparse_matches_dense_entry_for_entry(self):
        c = coupled_rc_circuit()
        dense = build_mna(c, sparse=False)
        sparse = build_mna(c, sparse=True)
        assert sparse.is_sparse and not dense.is_sparse
        assert np.array_equal(sparse.G.toarray(), dense.G)
        assert np.array_equal(sparse.C.toarray(), dense.C)
        assert sparse.node_index == dense.node_index
        assert sparse.vsource_index == dense.vsource_index

    def test_auto_threshold(self):
        c = coupled_rc_circuit()
        assert not build_mna(c).is_sparse  # tiny -> dense
        with sparse_threshold(1):
            assert build_mna(c).is_sparse
        assert not build_mna(c).is_sparse  # restored on exit

    def test_backends_cached_independently(self):
        c = coupled_rc_circuit()
        dense = build_mna(c, sparse=False)
        sparse = build_mna(c, sparse=True)
        assert build_mna(c, sparse=False) is dense
        assert build_mna(c, sparse=True) is sparse

    def test_rhs_and_incidence_unchanged_by_backend(self):
        c = coupled_rc_circuit()
        dense = build_mna(c, sparse=False)
        sparse = build_mna(c, sparse=True)
        times = time_grid(1 * NS, 10 * PS)
        assert np.array_equal(sparse.rhs_matrix(times),
                              dense.rhs_matrix(times))
        assert np.array_equal(sparse.input_incidence(),
                              dense.input_incidence())


class TestMnaCacheCounters:
    def test_every_build_counts_as_miss(self):
        """Regression: builds bypassing the cache store (or populating a
        fresh backend slot) must still increment the miss counter."""
        hit = metrics().counter("sim.mna_cache.hit")
        miss = metrics().counter("sim.mna_cache.miss")
        c = coupled_rc_circuit()
        h0, m0 = hit.value, miss.value
        build_mna(c, sparse=False)
        build_mna(c, sparse=True)  # same topology, other backend
        assert (miss.value - m0, hit.value - h0) == (2, 0)
        build_mna(c, sparse=False)
        build_mna(c, sparse=True)
        assert (miss.value - m0, hit.value - h0) == (2, 2)


class TestFactorizationBackends:
    @pytest.mark.parametrize("n", [8, _INVERSE_MAX + 8])
    def test_dense_vs_sparse_solutions_agree(self, n):
        A = spd_matrix(n)
        b = np.arange(n, dtype=float)
        B = np.linspace(0.0, 1.0, 3 * n).reshape(n, 3)
        dense = factorize(A)
        sparse = factorize(sp.csc_matrix(A))
        expected = np.linalg.solve(A, b)
        assert np.allclose(dense.solve(b), expected, atol=1e-10)
        assert np.allclose(sparse.solve(b), expected, atol=1e-10)
        assert np.allclose(sparse.solve(B), dense.solve(B), atol=1e-10)
        assert np.allclose(sparse.solve_rows(B.T), dense.solve_rows(B.T),
                           atol=1e-10)

    @pytest.mark.parametrize("make", [
        lambda A: A,                      # dense (inverse or LU by size)
        lambda A: sp.csc_matrix(A),       # SuperLU
        lambda A: sp.csr_matrix(A),       # conversion path
    ])
    def test_shape_contract(self, make):
        n = 10
        fact = factorize(make(spd_matrix(n)))
        assert fact.shape == (n, n)
        b = np.ones(n)
        B = np.ones((n, 4))
        assert fact.solve(b).shape == (n,)
        assert fact.solve(B).shape == (n, 4)
        assert fact.solve_rows(np.ones((5, n))).shape == (5, n)

    @pytest.mark.parametrize("make", [
        lambda A: A,
        lambda A: sp.csc_matrix(A),
    ])
    def test_solve_rows_rejects_1d(self, make):
        fact = factorize(make(spd_matrix(6)))
        with pytest.raises(ValueError, match="2-D"):
            fact.solve_rows(np.ones(6))

    @pytest.mark.parametrize("n", [8, _INVERSE_MAX + 8])
    def test_exactly_singular_raises_linalgerror_dense(self, n):
        A = spd_matrix(n)
        A[:, 0] = 0.0  # exactly singular: zero pivot on every backend
        with pytest.raises(np.linalg.LinAlgError):
            factorize(A)

    def test_exactly_singular_raises_linalgerror_sparse(self):
        A = spd_matrix(12)
        A[:, 0] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            factorize(sp.csc_matrix(A))
        with pytest.raises(np.linalg.LinAlgError):
            factorize(sp.csc_matrix(np.zeros((5, 5))))

    def test_near_singular_still_solves_on_both_backends(self):
        A = spd_matrix(12)
        A[0, :] *= 1e-13  # terrible scaling, but non-singular
        b = np.ones(12)
        xd = factorize(A).solve(b)
        xs = factorize(sp.csc_matrix(A)).solve(b)
        assert np.isfinite(xd).all() and np.isfinite(xs).all()
        # Both backends must agree with each other (and neither may
        # raise): near-singular is a warning regime, not an error.
        assert np.allclose(xd, xs, rtol=1e-4)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            factorize(np.ones((3, 4)))
        with pytest.raises(ValueError):
            factorize(sp.csc_matrix(np.ones((3, 4))))

    def test_is_sparse_matrix(self):
        assert is_sparse_matrix(sp.eye(3, format="csc"))
        assert not is_sparse_matrix(np.eye(3))
        assert not is_sparse_matrix([[1.0]])


class TestOneFactorizer:
    """Every factorization goes through ``factorize``, so a wrapper
    around it (the benchmark's ``sim.factor`` row) sees PRIMA's and the
    Woodbury bases' too; condition monitoring stays with the solvers
    that monitored before."""

    @pytest.fixture
    def counted(self, monkeypatch):
        import repro.mor.prima as prima
        import repro.sim.nonlinear as nonlinear
        calls = []

        def counting(matrix):
            calls.append(matrix.shape)
            return factorize(matrix)

        for module in (prima, nonlinear):
            monkeypatch.setattr(module, "factorize", counting)
        return calls

    def test_prima_and_woodbury_factor_through_factorize(self, counted):
        from repro import trust
        observed = metrics().counter("trust.factorizations")
        mna = build_mna(norton_pair(), sparse=True)
        with trust.trust_mode(True):
            before = observed.value
            prima_reduce(mna.G, mna.C, mna.input_incidence(), 6)
            assert counted == [mna.G.shape]
            assert observed.value == before  # PRIMA is not monitored
            simulate_linear(mna, 0.2 * NS, 1 * PS)
            assert observed.value == before + 2  # DC solve and step
            simulate_nonlinear(inverter_circuit(ramp(0.1 * NS, 0.1 * NS,
                                                     0.0, VDD)),
                               0.3 * NS, 1 * PS)
        assert len(counted) > 1  # and the Woodbury base


class TestSparseSimulators:
    def test_simulate_linear_sparse_matches_dense(self):
        c = coupled_rc_circuit()
        dense = simulate_linear(build_mna(c, sparse=False), 1 * NS, 2 * PS)
        sparse = simulate_linear(build_mna(c, sparse=True), 1 * NS, 2 * PS)
        assert np.abs(dense.states - sparse.states).max() < 1e-9

    def test_simulate_linear_sparse_dc_fallback_floating_node(self):
        # A node reached only through a coupling cap floats at DC: the
        # sparse factorization fails and the dense least-squares fallback
        # must pick up, exactly as the dense path does.
        c = Circuit("float")
        c.add_vsource("vs", "a", GROUND, ramp(0.1 * NS, 0.1 * NS, 0.0, 1.0))
        c.add_resistor("r", "a", "b", 1 * KOHM)
        c.add_capacitor("cb", "b", GROUND, 10 * FF)
        c.add_capacitor("cc", "b", "c", 5 * FF)
        c.add_capacitor("cg", "c", GROUND, 5 * FF)
        dense = simulate_linear(build_mna(c, sparse=False), 1 * NS, 2 * PS)
        sparse = simulate_linear(build_mna(c, sparse=True), 1 * NS, 2 * PS)
        assert np.abs(dense.states - sparse.states).max() < 1e-9

    def test_simulate_nonlinear_through_sparse_mna(self):
        wave = ramp(0.2 * NS, 0.1 * NS, 0.0, VDD)
        reference = simulate_nonlinear(inverter_circuit(wave), 1 * NS,
                                       1 * PS)
        with sparse_threshold(1):
            forced = simulate_nonlinear(inverter_circuit(wave), 1 * NS,
                                        1 * PS)
        assert np.abs(reference.states - forced.states).max() < 1e-9

    def test_simulate_batched_through_sparse_mna(self):
        waves = [ramp(0.1 * NS + k * 20 * PS, 0.1 * NS, 0.0, VDD)
                 for k in range(3)]
        circuit = inverter_circuit(waves[0])
        overrides = [{"vin": w} for w in waves]
        reference = simulate_nonlinear_batch(circuit, overrides,
                                             1 * NS, 1 * PS)
        with sparse_threshold(1):
            forced = simulate_nonlinear_batch(inverter_circuit(waves[0]),
                                              overrides, 1 * NS, 1 * PS)
        for a, b in zip(reference, forced):
            assert np.abs(a.states - b.states).max() < 1e-9


class TestSparsePrima:
    """PRIMA and the moment code take a sparse ``G``/``C`` as built and
    answer as the dense path does, to 1e-9 relative."""

    OUTPUTS = ["v_rcv", "a_far"]
    RTOL = 1e-9

    @classmethod
    def systems(cls):
        c = norton_pair()
        dense = build_mna(c, sparse=False)
        sparse = build_mna(c, sparse=True)
        assert sparse.is_sparse and not dense.is_sparse
        return dense, sparse

    @classmethod
    def assert_blocks_close(cls, got, want):
        for k, (g, w) in enumerate(zip(got, want)):
            np.testing.assert_allclose(
                g, w, rtol=cls.RTOL, atol=cls.RTOL * np.abs(w).max(),
                err_msg=f"moment {k}")

    def test_transfer_moments(self):
        dense, sparse = self.systems()
        B = dense.input_incidence()
        L = dense.output_incidence(self.OUTPUTS)
        self.assert_blocks_close(
            transfer_moments(sparse.G, sparse.C, B, L, 6),
            transfer_moments(dense.G, dense.C, B, L, 6))

    def test_prima_reduce(self):
        dense, sparse = self.systems()
        B = dense.input_incidence()
        L = dense.output_incidence(self.OUTPUTS)
        reduced = {}
        for name, mna in (("dense", dense), ("sparse", sparse)):
            parts = prima_reduce(mna.G, mna.C, B, 8, L=L)
            assert all(isinstance(parts[key], np.ndarray)
                       for key in ("V", "Gr", "Cr", "Br", "Lr"))
            reduced[name] = transfer_moments(
                parts["Gr"], parts["Cr"], parts["Br"], parts["Lr"], 6)
        self.assert_blocks_close(reduced["sparse"], reduced["dense"])

    def test_reduced_model_moments_and_transient(self):
        dense, sparse = self.systems()
        models = {name: ReducedModel.from_mna(mna, self.OUTPUTS, 8)
                  for name, mna in (("dense", dense), ("sparse", sparse))}
        self.assert_blocks_close(models["sparse"].moments(6),
                                 models["dense"].moments(6))
        slew = 0.1 * NS
        times = np.linspace(0.0, 2 * NS, 401)
        inputs = np.clip(times / slew, 0.0, 1.0)[None, :] * VDD / 10.0
        runs = {name: model.simulate(times, inputs)
                for name, model in models.items()}
        for node in self.OUTPUTS:
            want = runs["dense"][node].values
            got = runs["sparse"][node].values
            assert np.abs(want).max() > 1e-3
            assert (np.abs(got - want).max()
                    <= self.RTOL * np.abs(want).max()), node


class TestLargeTree:
    def test_large_tree_shape(self):
        gen = NetGenerator(seed=3)
        net = gen.large_tree(nodes=200, n_aggressors=2)
        c = net.interconnect
        nodes = c.nodes()
        assert "v_root" in nodes and "v_rcv" in nodes
        assert len(nodes) >= 200
        assert len(net.aggressors) == 2
        # Coupling caps present (tagged by couple_nodes).
        assert any(getattr(cap, "coupling", False) for cap in c.capacitors)

    def test_large_tree_is_deterministic_per_seed(self):
        a = NetGenerator(seed=5).large_tree(nodes=100)
        b = NetGenerator(seed=5).large_tree(nodes=100)
        assert ([r.resistance for r in a.interconnect.resistors]
                == [r.resistance for r in b.interconnect.resistors])

    def test_large_tree_crosses_sparse_threshold(self):
        nodes = SPARSE_MIN_DIM + 64
        net = NetGenerator(seed=1).large_tree(nodes=nodes)
        mna = build_mna(net.interconnect)
        assert mna.dim >= SPARSE_MIN_DIM
        assert mna.is_sparse

    def test_driven_tree_sparse_matches_dense(self):
        """At extracted scale (the seed-1 tree, 2011 unknowns driven)
        the dense and sparse backends give the same linear transient
        within the 1e-9 V equivalence tolerance."""
        net = NetGenerator(seed=1).large_tree(nodes=1920, n_aggressors=2)
        drive = tree_drive_circuit(net)
        sparse = build_mna(drive, sparse=True)
        assert sparse.dim >= 2000
        dense_run = simulate_linear(build_mna(drive, sparse=False),
                                    1 * NS, 2 * PS)
        sparse_run = simulate_linear(sparse, 1 * NS, 2 * PS)
        assert np.abs(dense_run.states - sparse_run.states).max() <= 1e-9

    def test_large_tree_rejects_tiny(self):
        with pytest.raises(ValueError):
            NetGenerator(seed=0).large_tree(nodes=4)


class TestCsmGridStep:
    @staticmethod
    def _model():
        # Synthetic table: a linear pull-up I = g (vdd - v_out),
        # independent of v_in — analytically an RC with tau = c/g.
        vdd, g = 1.2, 2e-3
        vin = np.linspace(0.0, vdd, 3)
        vout = np.linspace(0.0, vdd, 9)
        current = np.tile(g * (vdd - vout), (vin.size, 1))
        return CurrentSourceModel(
            gate_name="SYNTH", vdd=vdd, vin_grid=vin, vout_grid=vout,
            current=current, c_out=5 * FF, c_in=1 * FF, inverting=True)

    def test_non_divisible_span_matches_exact_grid(self):
        """Regression: the backward-Euler update must be keyed on the
        actual grid step, not the requested dt.  Calling with a dt the
        span does not divide must agree exactly with calling at the
        snapped step (same grid, same arithmetic)."""
        model = self._model()
        wave = ramp(0.1 * NS, 0.2 * NS, 0.0, model.vdd)
        t_stop, dt = 1 * NS, 0.03 * NS  # round(33.33) = 33 steps
        times = time_grid(t_stop, dt)
        h = times[1] - times[0]
        assert h != dt  # the premise of the regression
        drifted = simulate_csm_driver(model, wave, 20 * FF, t_stop, dt,
                                      v_out0=0.0)
        exact = simulate_csm_driver(model, wave, 20 * FF, t_stop, h,
                                    v_out0=0.0)
        assert np.array_equal(drifted.values, exact.values)

    def test_matches_analytic_rc_settling(self):
        # With the fix, a coarse non-divisible grid still lands on the
        # right DC target (backward Euler is A-stable; the end value is
        # grid-step independent).
        model = self._model()
        flat = ramp(0.0, 1 * PS, 0.0, 0.0)
        out = simulate_csm_driver(model, flat, 20 * FF, 1.05 * NS,
                                  0.04 * NS, v_out0=0.0)
        assert out.values[-1] == pytest.approx(model.vdd, abs=1e-3)
