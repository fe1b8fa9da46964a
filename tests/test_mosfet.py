"""Tests for repro.devices (technology + MOSFET model)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import (
    Mosfet,
    MosfetParams,
    default_technology,
    nmos_params,
    pmos_params,
)
from repro.units import UM

TECH = default_technology()


def make_nmos(width=1 * UM):
    return Mosfet("mn", nmos_params(TECH, width), "d", "g", "s")


def make_pmos(width=2 * UM):
    return Mosfet("mp", pmos_params(TECH, width), "d", "g", "vdd")


class TestTechnology:
    def test_defaults_sane(self):
        assert 0 < TECH.vt_n < TECH.vdd
        assert 0 < TECH.vt_p < TECH.vdd
        assert TECH.k_n > TECH.k_p  # electrons faster than holes

    def test_caps_scale_with_width(self):
        assert TECH.gate_cap(2 * UM) == pytest.approx(2 * TECH.gate_cap(UM))
        assert TECH.diff_cap(2 * UM) == pytest.approx(2 * TECH.diff_cap(UM))

    def test_default_is_singleton(self):
        assert default_technology() is default_technology()


class TestParams:
    def test_beta(self):
        p = nmos_params(TECH, 1 * UM)
        assert p.beta == pytest.approx(TECH.k_n * 1 * UM / TECH.l_min)

    def test_invalid_polarity(self):
        with pytest.raises(ValueError):
            MosfetParams("x", 0.4, 1e-4, 0.1, 1e-6, 1e-7)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            MosfetParams("n", 0.4, 1e-4, 0.1, -1e-6, 1e-7)


class TestNmosRegions:
    def test_cutoff_tiny_current(self):
        m = make_nmos()
        i, *_ = m.evaluate(vg=0.0, vd=TECH.vdd, vs=0.0)
        # Only gmin shunt + smoothing residue.
        assert abs(i) < 1e-5

    def test_saturation_current_positive(self):
        m = make_nmos()
        i, *_ = m.evaluate(vg=TECH.vdd, vd=TECH.vdd, vs=0.0)
        assert i > 1e-4  # hundreds of uA for a 1um device

    def test_square_law_in_saturation(self):
        m = make_nmos()
        vgs1, vgs2 = 1.0, 1.4
        i1, *_ = m.evaluate(vg=vgs1, vd=TECH.vdd, vs=0.0)
        i2, *_ = m.evaluate(vg=vgs2, vd=TECH.vdd, vs=0.0)
        expected = ((vgs2 - TECH.vt_n) / (vgs1 - TECH.vt_n)) ** 2
        # Channel-length modulation perturbs the ratio slightly.
        assert i2 / i1 == pytest.approx(expected, rel=0.05)

    def test_triode_resistive(self):
        m = make_nmos()
        i1, *_ = m.evaluate(vg=TECH.vdd, vd=0.05, vs=0.0)
        i2, *_ = m.evaluate(vg=TECH.vdd, vd=0.10, vs=0.0)
        assert i2 == pytest.approx(2 * i1, rel=0.05)

    def test_symmetry_vds_negative(self):
        m = make_nmos()
        i_fwd, *_ = m.evaluate(vg=1.8, vd=0.3, vs=0.0)
        i_rev, *_ = m.evaluate(vg=1.8, vd=0.0, vs=0.3)
        assert i_rev == pytest.approx(-i_fwd, rel=1e-9)

    def test_current_scales_with_width(self):
        i1, *_ = make_nmos(1 * UM).evaluate(1.8, 1.8, 0.0)
        i2, *_ = make_nmos(2 * UM).evaluate(1.8, 1.8, 0.0)
        # gmin does not scale; subtract its contribution.
        assert i2 == pytest.approx(2 * i1, rel=1e-3)


class TestPmos:
    def test_on_current_sign(self):
        m = make_pmos()
        # Inverter pulling output (drain) up: vg=0, vs=vdd, vd=0.
        i, *_ = m.evaluate(vg=0.0, vd=0.0, vs=TECH.vdd)
        assert i < -1e-4  # current flows out of drain node into the channel

    def test_off_when_gate_high(self):
        m = make_pmos()
        i, *_ = m.evaluate(vg=TECH.vdd, vd=0.0, vs=TECH.vdd)
        assert abs(i) < 1e-5

    def test_weaker_than_nmos_at_same_width(self):
        i_n, *_ = make_nmos(1 * UM).evaluate(1.8, 1.8, 0.0)
        i_p, *_ = Mosfet("mp", pmos_params(TECH, 1 * UM), "d", "g",
                         "vdd").evaluate(0.0, 0.0, 1.8)
        assert abs(i_n) > abs(i_p)


class TestDerivatives:
    """Analytic derivatives must match finite differences everywhere —
    the Newton solver depends on it."""

    @staticmethod
    def fd_check(device, vg, vd, vs, eps=1e-6):
        i0, dg, dd, dsrc = device.evaluate(vg, vd, vs)
        dg_fd = (device.evaluate(vg + eps, vd, vs)[0] - i0) / eps
        dd_fd = (device.evaluate(vg, vd + eps, vs)[0] - i0) / eps
        ds_fd = (device.evaluate(vg, vd, vs + eps)[0] - i0) / eps
        assert dg == pytest.approx(dg_fd, rel=1e-3, abs=1e-9)
        assert dd == pytest.approx(dd_fd, rel=1e-3, abs=1e-9)
        assert dsrc == pytest.approx(ds_fd, rel=1e-3, abs=1e-9)

    @given(st.floats(0.0, 1.8), st.floats(0.0, 1.8), st.floats(0.0, 1.8))
    @settings(max_examples=150, deadline=None)
    def test_nmos_derivatives(self, vg, vd, vs):
        self.fd_check(make_nmos(), vg, vd, vs)

    @given(st.floats(0.0, 1.8), st.floats(0.0, 1.8), st.floats(0.0, 1.8))
    @settings(max_examples=150, deadline=None)
    def test_pmos_derivatives(self, vg, vd, vs):
        self.fd_check(make_pmos(), vg, vd, vs)

    @given(st.floats(0.0, 1.8), st.floats(0.0, 1.8))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_vgs(self, vgs_lo, vds):
        """Id is non-decreasing in Vgs at fixed Vds >= 0 (NMOS)."""
        m = make_nmos()
        i_lo, *_ = m.evaluate(vgs_lo, vds, 0.0)
        i_hi, *_ = m.evaluate(vgs_lo + 0.1, vds, 0.0)
        assert i_hi >= i_lo - 1e-12

    @given(st.floats(0.0, 1.8), st.floats(0.0, 1.7))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_vds(self, vg, vds_lo):
        """Id is non-decreasing in Vds at fixed Vgs (NMOS, lambda > 0)."""
        m = make_nmos()
        i_lo, *_ = m.evaluate(vg, vds_lo, 0.0)
        i_hi, *_ = m.evaluate(vg, vds_lo + 0.1, 0.0)
        assert i_hi >= i_lo - 1e-12

    def test_continuity_at_cutoff(self):
        m = make_nmos()
        vt = TECH.vt_n
        i_below, *_ = m.evaluate(vt - 1e-4, 1.0, 0.0)
        i_above, *_ = m.evaluate(vt + 1e-4, 1.0, 0.0)
        assert abs(i_above - i_below) < 1e-5

    def test_continuity_at_vds_zero(self):
        m = make_nmos()
        i_neg, *_ = m.evaluate(1.8, -1e-6, 0.0)
        i_pos, *_ = m.evaluate(1.8, +1e-6, 0.0)
        assert abs(i_pos - i_neg) < 1e-6
        assert i_pos > 0 > i_neg


class TestRepr:
    def test_repr_mentions_polarity_and_width(self):
        text = repr(make_nmos())
        assert "nmos" in text
        assert "um" in text.lower()


class TestBatchEvaluation:
    """evaluate_batch / evaluate_one against the Mosfet.evaluate reference."""

    def _devices(self):
        return [make_nmos(), make_pmos(), make_nmos(0.5 * UM),
                make_pmos(4 * UM), make_nmos(2 * UM)]

    def test_evaluate_batch_matches_scalar(self):
        import numpy as np

        from repro.devices import batch_params, evaluate_batch

        devices = self._devices()
        params = batch_params(devices)
        rng = np.random.default_rng(7)
        for _ in range(50):
            # Uniform draws across (and beyond) the rails exercise all
            # regions including drain/source swap (vd < vs).
            vg, vd, vs = rng.uniform(-0.5, TECH.vdd + 0.5,
                                     (3, len(devices)))
            i, dg, dd, ds = evaluate_batch(params, vg, vd, vs)
            for j, m in enumerate(devices):
                ref = m.evaluate(vg[j], vd[j], vs[j])
                assert i[j] == pytest.approx(ref[0], rel=1e-12, abs=1e-18)
                assert dg[j] == pytest.approx(ref[1], rel=1e-12, abs=1e-18)
                assert dd[j] == pytest.approx(ref[2], rel=1e-12, abs=1e-18)
                assert ds[j] == pytest.approx(ref[3], rel=1e-12, abs=1e-18)

    def test_evaluate_one_bit_identical_to_method(self):
        import numpy as np

        from repro.devices import batch_params, evaluate_one

        devices = self._devices()
        p = batch_params(devices)
        rng = np.random.default_rng(11)
        for _ in range(50):
            vg, vd, vs = rng.uniform(-0.5, TECH.vdd + 0.5,
                                     (3, len(devices)))
            for j, m in enumerate(devices):
                got = evaluate_one(
                    float(p.sign[j]), float(p.beta[j]), float(p.vt[j]),
                    float(p.lam[j]), float(p.gmin[j]),
                    float(vg[j]), float(vd[j]), float(vs[j]))
                ref = m.evaluate(vg[j], vd[j], vs[j])
                assert got == tuple(ref)  # bit-identical floats

    def test_evaluate_batch_channel_matches_scalar(self):
        """The block kernel's channel-only evaluation over ``(a, 3, n)``
        bias blocks is :meth:`Mosfet.evaluate` once the gmin shunt it
        leaves out is added back, with and without ``d_out``."""
        import numpy as np

        from repro.devices import batch_params
        from repro.devices.mosfet import evaluate_batch_channel

        devices = self._devices()
        n = len(devices)
        params = batch_params(devices)
        gmin = params.gmin
        rng = np.random.default_rng(13)
        for draw in range(50):
            v = rng.uniform(-0.5, TECH.vdd + 0.5, (4, 3, n))
            given = np.empty((4, 3 * n)) if draw % 2 else None
            i, d = evaluate_batch_channel(params, v, d_out=given)
            if given is not None:
                assert d is given
            assert d.shape == (4, 3 * n)
            dg, dd, ds = d[:, :n], d[:, n:2 * n], d[:, 2 * n:]
            np.testing.assert_allclose(dg + dd + ds, 0.0, atol=1e-12)
            vd, vs = v[:, 1], v[:, 2]
            i = i + gmin * (vd - vs)
            dd = dd + gmin
            ds = ds - gmin
            for c in range(v.shape[0]):
                for j, m in enumerate(devices):
                    ref = m.evaluate(*v[c, :, j])
                    for got, want in zip((i, dg, dd, ds), ref):
                        assert got[c, j] == pytest.approx(
                            want, rel=1e-12, abs=1e-18)

    def test_derivatives_sum_to_zero(self):
        """Terminal current depends on voltage *differences*, so the
        three derivatives must cancel — batch path included."""
        import numpy as np

        from repro.devices import batch_params, evaluate_batch

        params = batch_params(self._devices())
        rng = np.random.default_rng(3)
        vg, vd, vs = rng.uniform(0.0, TECH.vdd, (3, 5))
        _, dg, dd, ds = evaluate_batch(params, vg, vd, vs)
        np.testing.assert_allclose(dg + dd + ds, 0.0, atol=1e-12)
