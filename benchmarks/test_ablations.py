"""Ablation benches for the design choices called out in DESIGN.md.

Not paper figures — these quantify the library's own decisions:

* ``rtr_driver_load`` — the strict lumped-Ceff Rtr of the paper vs the
  π-load variant this library defaults to (the documented deviation).
* ``cliff_guard`` — the alignment predictor's early-side guard band.
* ``prima_order`` — reduced-model accuracy vs order.
* ``port_model_order`` — the superposition engine's extracted-scale
  port model: moments per port vs error against the full sparse run.
* ``mor_methods`` — PRIMA vs AWE vs TICER on one coupled-noise waveform.
* ``rtr_engine`` — transistor vs current-source-model Rtr driver pairs.
* ``statistical_pessimism`` — deterministic worst case vs the delay
  distribution under window-uniform alignment.
"""

import time

import numpy as np
import pytest
from conftest import run_once

import repro.core.superposition as superposition
from repro.bench.netgen import NetGenerator, canonical_net
from repro.bench.runner import format_table
from repro.circuit import Circuit, GROUND, build_mna
from repro.circuit.mna import SPARSE_MIN_DIM
from repro.circuit.topology import couple_nodes, rc_line
from repro.core.exhaustive import (
    combined_extra_delays,
    exhaustive_worst_alignment,
)
from repro.core.golden import golden_extra_delays
from repro.core.holding_resistance import compute_rtr
from repro.core.net import ReceiverSpec
from repro.core.precharacterize import (
    build_alignment_table,
    characterization_victim,
)
from repro.core.superposition import SuperpositionEngine
from repro.gates import inverter
from repro.mor import ReducedModel
from repro.trust import AUDIT_TOLERANCE
from repro.sim import simulate_linear
from repro.units import FF, KOHM, NS, PS
from repro.waveform import noise_pulse, triangular_pulse
from repro.waveform.pulses import pulse_peak

VDD = 1.8


def test_ablation_rtr_driver_load(benchmark, model_cache, record):
    """Thevenin vs Ceff-Rtr vs π-Rtr, against golden extra delay."""

    def experiment():
        net = canonical_net(n_aggressors=1)
        engine = SuperpositionEngine(net, cache=model_cache)
        vic = engine.victim_transition_absolute().at_receiver
        t50 = vic.crossing_time(VDD / 2, rising=True)
        t_peak, _ = pulse_peak(engine.aggressor_noise("agg0").at_receiver)
        shifts = {"agg0": t50 - t_peak}
        t_stop = engine.t_stop + 1.5 * NS

        golden = golden_extra_delays(net, t_stop,
                                     aggressor_shifts=shifts).extra_input

        rows = []
        deltas = {}
        holders = {"Thevenin Rth": engine.models["victim"].rth}
        for mode in ("ceff", "pi"):
            holders[f"Rtr ({mode})"] = compute_rtr(
                engine, shifts, driver_load=mode).rtr
        for label, r_hold in holders.items():
            noisy = vic + engine.total_noise(shifts,
                                             victim_r=r_hold).at_receiver
            extra, _, _ = combined_extra_delays(
                net.receiver, vic, noisy, VDD, True, t_stop)
            deltas[label] = extra
            rows.append([label, r_hold, extra / PS,
                         100 * (extra - golden) / golden])
        table = format_table(
            ["victim holding", "R (ohm)", "extra delay (ps)",
             "err vs golden (%)"],
            rows, title=f"Ablation — Rtr driver load "
                        f"(golden = {golden / PS:.1f} ps)")
        return table, deltas, golden

    table, deltas, golden = run_once(benchmark, experiment)
    record("ablation_rtr_driver_load", table)
    err = {k: abs(v - golden) for k, v in deltas.items()}
    assert err["Rtr (pi)"] < err["Rtr (ceff)"] < err["Thevenin Rth"]


def test_ablation_cliff_guard(benchmark, record):
    """Guarded vs unguarded alignment prediction near the delay cliff."""

    def experiment():
        gate = inverter(scale=2)
        guarded = build_alignment_table(gate, cliff_guard=0.08)
        bare = build_alignment_table(gate, cliff_guard=0.0)
        receiver = ReceiverSpec(gate, c_load=2 * FF)

        rows = []
        results = {}
        for label, table in (("guard=0.08", guarded), ("guard=0", bare)):
            losses = []
            overshoots = 0
            for slew in (0.25 * NS, 0.45 * NS):
                victim = characterization_victim(slew, VDD, True)
                for width, height in ((0.15 * NS, 0.5), (0.3 * NS, 0.65)):
                    pulse = noise_pulse(0.0, -height, width)
                    sweep = exhaustive_worst_alignment(
                        receiver, victim, pulse, VDD, True, steps=21,
                        refine=8, dt=2 * PS)
                    t_pred = table.predict_peak_time(victim, width,
                                                     -height, slew)
                    d = sweep.delay_at(t_pred)
                    loss = (sweep.best_extra_output - d) \
                        / sweep.best_extra_output
                    losses.append(loss)
                    if t_pred > sweep.best_peak_time + 2 * PS:
                        overshoots += 1
            results[label] = (float(np.mean(losses)),
                              float(np.max(losses)), overshoots)
            rows.append([label, 100 * results[label][0],
                         100 * results[label][1], overshoots])
        table_text = format_table(
            ["predictor", "avg delay loss (%)", "worst loss (%)",
             "late predictions"],
            rows, title="Ablation — cliff guard band")
        return table_text, results

    table_text, results = run_once(benchmark, experiment)
    record("ablation_cliff_guard", table_text)
    # The guard must keep the worst loss bounded.
    assert results["guard=0.08"][1] < 0.15


def test_ablation_prima_order(benchmark, record):
    """Reduced-model waveform error vs PRIMA order."""

    def experiment():
        circuit = Circuit("coupled")
        na = rc_line(circuit, "v_", "vin", "vout", 14, 2 * KOHM, 90 * FF)
        nb = rc_line(circuit, "a_", "ain", "aout", 14, 2 * KOHM, 90 * FF)
        couple_nodes(circuit, "x_", na, nb, 70 * FF)
        circuit.add_resistor("rv", "vin", GROUND, 900.0)
        circuit.add_resistor("ra", "aout", GROUND, 8 * KOHM)
        pulse = triangular_pulse(0.4 * NS, 1.0e-3, 0.15 * NS)
        circuit.add_isource("iagg", "ain", GROUND, pulse)

        full = simulate_linear(circuit, 2.5 * NS, 1 * PS)
        reference = full.voltage("vout")
        peak = float(np.abs(reference.values).max())

        rows = []
        errors = []
        for order in (2, 4, 6, 8, 12):
            model = ReducedModel.from_mna(full.mna, ["vout"], order)
            out = model.simulate(full.times,
                                 np.atleast_2d(pulse(full.times)))["vout"]
            err = float(np.abs(out.values - reference.values).max()) / peak
            errors.append(err)
            rows.append([order, model.order, 100 * err])
        table_text = format_table(
            ["requested order", "actual order", "max waveform err (%)"],
            rows, title=f"Ablation — PRIMA order (full dim "
                        f"{full.mna.dim}, peak {peak * 1e3:.1f} mV)")
        return table_text, errors

    table_text, errors = run_once(benchmark, experiment)
    record("ablation_prima_order", table_text)
    assert errors == sorted(errors, reverse=True) or errors[-1] < 1e-4
    assert errors[-1] < 0.01  # order 12 is waveform-accurate


def test_ablation_port_model_order(benchmark, model_cache, analyzer,
                                   record):
    """Moments per port of the extracted-scale port model.

    On a generated tree above ``SPARSE_MIN_DIM``, each order's engine
    runs the victim transition, every aggressor's noise and one noise
    run held by the victim's Rtr, and its analysis; the errors are taken
    against the same net on the full sparse path.  The time column is
    the mean wall time of one of those transients.
    """

    def transients(engine, rtr):
        runs = [engine.victim_transition()]
        for agg in engine.net.aggressors:
            runs.append(engine.aggressor_noise(agg.name))
        runs.append(engine.aggressor_noise(engine.net.aggressors[0].name,
                                           victim_r=rtr))
        return runs

    def build(moments):
        """Engine and report with ``moments`` per port; None = full."""
        with pytest.MonkeyPatch.context() as patch:
            if moments is None:
                patch.setattr(superposition, "stamps_sparse",
                              lambda dim: False)
            else:
                patch.setattr(superposition, "PORT_MOMENTS", moments)
            engine = SuperpositionEngine(net, cache=model_cache)
            report = analyzer.analyze(net, alignment="input-objective")
        return engine, report

    def experiment():
        full_engine, full = build(None)
        start = time.perf_counter()
        reference = transients(full_engine, full.rtr)
        full_ms = 1e3 * (time.perf_counter() - start) / len(reference)
        rows = []
        results = {}
        for moments in (4, 6, 8, 10, 12, 16):
            engine, report = build(moments)
            start = time.perf_counter()
            runs = transients(engine, full.rtr)
            sim_ms = 1e3 * (time.perf_counter() - start) / len(runs)
            wave_err = max(
                float(np.abs(g(w.times) - w.values).max()
                      / np.abs(w.values).max())
                for got, want in zip(runs, reference)
                for g, w in ((got.at_receiver, want.at_receiver),
                             (got.at_root, want.at_root)))
            height = abs(report.pulse_height - full.pulse_height)
            delay = max(abs(report.extra_delay_input
                            - full.extra_delay_input),
                        abs(report.extra_delay_output
                            - full.extra_delay_output))
            results[moments] = (wave_err, height, delay)
            rows.append([moments, engine.port_model.order, wave_err,
                         height, delay, sim_ms])
        rows.append(["full", dim, 0.0, 0.0, 0.0, full_ms])
        table = format_table(
            ["moments/port", "order", "worst wave err (rel)",
             "|d pulse height| (V)", "|d extra delay| (s)",
             "ms/transient"],
            rows, title=f"Ablation — port-model order ({dim} unknowns, "
                        f"{len(net.aggressors) + 2} ports, pulse "
                        f"{full.pulse_height:.3f} V)")
        return table, results

    net = NetGenerator(seed=1).large_tree(0, nodes=440)
    dim = len(net.interconnect.nodes())
    assert dim >= SPARSE_MIN_DIM
    table, results = run_once(benchmark, experiment)
    record("ablation_port_model_order", table)
    # Order 12 (the engine's PORT_MOMENTS) is waveform-accurate, and its
    # answers sit well inside the oracle audit's tolerance.
    wave_err, height, delay = results[superposition.PORT_MOMENTS]
    assert wave_err < 1e-6
    assert height < 0.5 * AUDIT_TOLERANCE and delay < 1e-15
    assert results[16][0] < results[8][0] < results[4][0]


def test_ablation_mor_methods(benchmark, record):
    """PRIMA vs AWE vs TICER on the same coupled-noise waveform.

    Three reduction philosophies on one victim/aggressor pair: PRIMA
    (projection, passive, q moments), AWE (explicit Padé poles, closed
    form), TICER (node elimination, stays an RC circuit).  The metric is
    the worst error of the victim far-end noise waveform against full
    simulation.
    """

    def experiment():
        from repro.circuit import Circuit, GROUND
        from repro.circuit.topology import couple_nodes, rc_line
        from repro.mor import ReducedModel, awe_from_mna, ticer_reduce
        from repro.sim import simulate_linear
        from repro.units import FF, KOHM, NS, PS
        from repro.waveform import triangular_pulse

        def wires():
            circuit = Circuit("coupled")
            na = rc_line(circuit, "v_", "vin", "vout", 14, 2 * KOHM,
                         90 * FF)
            nb = rc_line(circuit, "a_", "ain", "aout", 14, 2 * KOHM,
                         90 * FF)
            couple_nodes(circuit, "x_", na, nb, 70 * FF)
            circuit.add_resistor("rv", "vin", GROUND, 900.0)
            circuit.add_resistor("ra", "aout", GROUND, 8 * KOHM)
            return circuit

        pulse = triangular_pulse(0.4 * NS, 1.0e-3, 0.15 * NS)
        full_circuit = wires()
        full_circuit.add_isource("iagg", "ain", GROUND, pulse)
        full = simulate_linear(full_circuit, 2.5 * NS, 1 * PS)
        reference = full.voltage("vout")
        peak = float(np.abs(reference.values).max())

        rows = []
        errors = {}

        # PRIMA, order 6.
        prima_model = ReducedModel.from_mna(full.mna, ["vout"], 6)
        prima_out = prima_model.simulate(
            full.times, np.atleast_2d(pulse(full.times)))["vout"]
        errors["PRIMA q=6"] = float(
            np.abs(prima_out.values - reference.values).max()) / peak
        rows.append(["PRIMA q=6 (projection)", prima_model.order,
                     100 * errors["PRIMA q=6"]])

        # AWE, 4 poles (closed-form response, no time stepping).
        awe_model = awe_from_mna(full.mna, "vout", order=4)
        awe_out = awe_model.response(pulse, full.times)
        errors["AWE q=4"] = float(
            np.abs(awe_out.values - reference.values).max()) / peak
        rows.append(["AWE q=4 (Pade poles)", awe_model.order,
                     100 * errors["AWE q=4"]])

        # TICER down to the four ports, then re-simulate the RC result.
        reduced_wires = ticer_reduce(
            wires(), keep=["vin", "vout", "ain", "aout"],
            max_time_constant=20 * PS)
        reduced_circuit = reduced_wires.copy()
        reduced_circuit.add_isource("iagg", "ain", GROUND, pulse)
        ticer_out = simulate_linear(reduced_circuit, 2.5 * NS,
                                    1 * PS).voltage("vout")
        errors["TICER 20ps"] = float(
            np.abs(ticer_out(full.times) - reference.values).max()) / peak
        rows.append(["TICER tau<=20ps (realizable RC)",
                     len(reduced_wires.nodes()),
                     100 * errors["TICER 20ps"]])

        table = format_table(
            ["method", "size (order/nodes)", "max waveform err (%)"],
            rows, title=f"Ablation — reduction methods "
                        f"(full dim {full.mna.dim}, noise peak "
                        f"{peak * 1e3:.0f} mV)")
        return table, errors

    table, errors = run_once(benchmark, experiment)
    record("ablation_mor_methods", table)
    # All three stay waveform-accurate on this net.
    assert max(errors.values()) < 0.10


def test_ablation_rtr_engine(benchmark, model_cache, record):
    """Transistor-level vs CSM driver pair inside the Rtr computation.

    Same circuit, same Steps 1-6; only the Step-3 non-linear driver
    replays differ.  The CSM path trades transistor co-simulation for
    table interpolation — the row shows how close the resulting Rtr
    stays and how much wall time the table saves.
    """

    def experiment():
        import time

        net = canonical_net(n_aggressors=1, name="rtr_engine")
        engine = SuperpositionEngine(net, cache=model_cache)
        vic = engine.victim_transition_absolute().at_receiver
        t50 = vic.crossing_time(VDD / 2, rising=True)
        t_peak, _ = pulse_peak(engine.aggressor_noise("agg0").at_receiver)
        shifts = {"agg0": t50 - t_peak}

        rows = []
        results = {}
        for engine_name in ("transistor", "csm"):
            start = time.perf_counter()
            result = compute_rtr(engine, shifts,
                                 driver_engine=engine_name)
            elapsed = time.perf_counter() - start
            results[engine_name] = (result.rtr, elapsed)
            rows.append([engine_name, result.rtr, result.ratio,
                         1e3 * elapsed])
        # The first CSM call pays table characterization; report a warm
        # second call too.
        start = time.perf_counter()
        compute_rtr(engine, shifts, driver_engine="csm")
        warm = time.perf_counter() - start
        rows.append(["csm (warm)", results["csm"][0],
                     results["csm"][0] / compute_rtr(engine, shifts,
                                                     driver_engine="csm"
                                                     ).rth, 1e3 * warm])
        table = format_table(
            ["driver engine", "Rtr (ohm)", "Rtr/Rth", "wall time (ms)"],
            rows, title="Ablation — Rtr driver-pair engine")
        return table, results, warm

    table, results, warm = run_once(benchmark, experiment)
    record("ablation_rtr_engine", table)
    r_ref, _t_ref = results["transistor"]
    r_csm, _ = results["csm"]
    assert abs(r_csm - r_ref) < 0.1 * r_ref
    assert warm < results["transistor"][1]  # warm CSM beats transistor


def test_ablation_statistical_pessimism(benchmark, model_cache, record):
    """Worst-case alignment vs the statistical view.

    With the aggressor free to switch anywhere in a wide window, the
    deterministic worst case sits far out in the tail of the actual
    delay distribution — the pessimism later statistical-alignment work
    (Kahng/Liu/Xu) quantifies.  One exhaustive sweep feeds the whole
    distribution.
    """

    def experiment():
        from repro.core.statistical import sample_alignment_delays
        from repro.sta import Window

        net = canonical_net(n_aggressors=1, name="stat")
        engine = SuperpositionEngine(net, cache=model_cache)
        victim = (engine.victim_transition().at_receiver
                  + net.victim_initial_level())
        pulse = engine.aggressor_noise("agg0").at_receiver
        sweep = exhaustive_worst_alignment(net.receiver, victim, pulse,
                                           VDD, True, steps=33, refine=8)

        rows = []
        stats = {}
        for span_ns in (0.5, 1.0, 2.0):
            window = Window(sweep.best_peak_time - span_ns * 0.5 * NS,
                            sweep.best_peak_time + span_ns * 0.5 * NS)
            dist = sample_alignment_delays(sweep, window, samples=50000)
            stats[span_ns] = dist
            rows.append([span_ns, dist.mean / PS, dist.quantile(0.5) / PS,
                         dist.quantile(0.99) / PS,
                         sweep.best_extra_output / PS])
        table = format_table(
            ["window (ns)", "mean (ps)", "median (ps)", "q99 (ps)",
             "worst-case (ps)"],
            rows, title="Ablation — worst-case vs statistical alignment")
        return table, stats, sweep

    table, stats, sweep = run_once(benchmark, experiment)
    record("ablation_statistical_pessimism", table)
    # Wider windows dilute the expected delay; the worst case never
    # moves.  q99 stays below the deterministic bound.
    assert stats[2.0].mean < stats[0.5].mean
    for dist in stats.values():
        assert dist.quantile(0.99) <= sweep.best_extra_output + 1e-15
