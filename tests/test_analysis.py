"""Integration tests for repro.core.analysis (the full ClariNet flow)."""

import pytest

from repro.bench.netgen import canonical_net
from repro.core.analysis import DelayNoiseAnalyzer
from repro.core.golden import golden_extra_delays
from repro.units import FF, NS, PS

VDD = 1.8


@pytest.fixture(scope="module")
def report(analyzer, two_aggressor_net):
    return analyzer.analyze(two_aggressor_net, alignment="table")


class TestReportContents:
    def test_models(self, report):
        assert report.rth_victim > 0
        assert report.rtr > 0
        assert report.ceff_victim > 1 * FF
        assert report.rtr_result is not None

    def test_pulse_features(self, report):
        assert report.pulse_height < -0.1        # opposing noise
        assert report.pulse_width > 20 * PS
        assert report.victim_slew > 50 * PS

    def test_waveforms_consistent(self, report):
        # noisy = noiseless + composite at every probe point.
        import numpy as np
        probe = np.linspace(0, report.noiseless_input.t_end, 50)
        np.testing.assert_allclose(
            report.noisy_input(probe),
            report.noiseless_input(probe) + report.composite(probe),
            atol=1e-9)

    def test_outer_iterations_bounded(self, report):
        assert 1 <= report.iterations <= 2

    def test_delay_noise_positive(self, report):
        assert report.extra_delay_input > 10 * PS
        assert report.extra_delay_output > 10 * PS

    def test_rtr_noise_at_least_thevenin(self, report):
        """Rtr holding (weaker) can only increase the predicted noise
        relative to the traditional model."""
        assert report.extra_delay_output >= \
            report.extra_delay_output_thevenin - 1 * PS

    def test_shift_entries_per_aggressor(self, report, two_aggressor_net):
        assert set(report.aggressor_shifts) == \
            {a.name for a in two_aggressor_net.aggressors}


class TestAlignmentMethods:
    def test_invalid_method(self, analyzer, two_aggressor_net):
        with pytest.raises(ValueError):
            analyzer.analyze(two_aggressor_net, alignment="vibes")

    def test_no_aggressors_rejected(self, analyzer):
        net = canonical_net(n_aggressors=1)
        net.aggressors.clear()
        with pytest.raises(ValueError, match="no aggressors"):
            analyzer.analyze(net)

    def test_exhaustive_at_least_table(self, analyzer, two_aggressor_net,
                                       report):
        best = analyzer.analyze(two_aggressor_net, alignment="exhaustive")
        assert best.extra_delay_output >= \
            report.extra_delay_output - 5 * PS

    def test_table_close_to_exhaustive(self, analyzer, two_aggressor_net,
                                       report):
        """Paper Figure 14: predicted alignment lands within ~10% of the
        exhaustive worst case at the receiver output."""
        best = analyzer.analyze(two_aggressor_net, alignment="exhaustive")
        assert report.extra_delay_output >= \
            0.85 * best.extra_delay_output


class TestAgainstGolden:
    def test_rtr_closer_than_thevenin(self, analyzer, two_aggressor_net):
        """Figure 13's headline: at the same alignment, the Rtr flow's
        extra delay is closer to golden than the Thevenin flow's, and
        both underestimate."""
        rep = analyzer.analyze(two_aggressor_net, alignment="table")
        gold = golden_extra_delays(
            two_aggressor_net,
            max(4 * NS, rep.noiseless_input.t_end),
            aggressor_shifts=rep.aggressor_shifts)
        err_rtr = abs(rep.extra_delay_input - gold.extra_input)
        err_th = abs(rep.extra_delay_input_thevenin - gold.extra_input)
        assert err_rtr < err_th
        assert rep.extra_delay_input < gold.extra_input + 2 * PS


class TestTableCache:
    def test_table_reused(self, analyzer, two_aggressor_net):
        t1 = analyzer.alignment_table_for(two_aggressor_net.receiver.gate,
                                          True)
        t2 = analyzer.alignment_table_for(two_aggressor_net.receiver.gate,
                                          True)
        assert t1 is t2

    def test_register_table(self, two_aggressor_net):
        import numpy as np
        from repro.core.precharacterize import AlignmentTable
        analyzer = DelayNoiseAnalyzer()
        table = AlignmentTable(
            gate_name="INV_X2", vdd=VDD, victim_rising=True,
            c_load=2 * FF, slews=(0.1 * NS, 0.5 * NS),
            widths=(0.1 * NS, 0.4 * NS), heights=(0.3, 0.8),
            va=np.full((2, 2, 2), 1.2))
        analyzer.register_table(table)
        fetched = analyzer.alignment_table_for(
            two_aggressor_net.receiver.gate, True)
        assert fetched is table

    def test_alignment_tables_accessor(self):
        import numpy as np
        from repro.core.precharacterize import AlignmentTable
        analyzer = DelayNoiseAnalyzer()
        assert analyzer.alignment_tables() == []
        table = AlignmentTable(
            gate_name="INV_X2", vdd=VDD, victim_rising=True,
            c_load=2 * FF, slews=(0.1 * NS, 0.5 * NS),
            widths=(0.1 * NS, 0.4 * NS), heights=(0.3, 0.8),
            va=np.full((2, 2, 2), 1.2))
        analyzer.register_table(table)
        assert analyzer.alignment_tables() == [table]

    def test_table_cache_counters(self):
        import numpy as np
        from repro.core.precharacterize import AlignmentTable
        from repro.gates.library import inverter
        analyzer = DelayNoiseAnalyzer()
        table = AlignmentTable(
            gate_name="INV_X2", vdd=VDD, victim_rising=True,
            c_load=2 * FF, slews=(0.1 * NS, 0.5 * NS),
            widths=(0.1 * NS, 0.4 * NS), heights=(0.3, 0.8),
            va=np.full((2, 2, 2), 1.2))
        analyzer.register_table(table)
        assert (analyzer.table_hits, analyzer.table_misses) == (0, 0)
        analyzer.alignment_table_for(inverter(2.0), True)
        assert (analyzer.table_hits, analyzer.table_misses) == (1, 0)

