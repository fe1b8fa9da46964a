"""Top-level delay-noise analysis — the ClariNet flow.

:class:`DelayNoiseAnalyzer` ties the pieces together for one coupled net:

1. Build the superposition engine (per-driver Ceff + Thevenin models).
2. Simulate the noiseless victim transition (Figure 1(c)).
3. Compute per-aggressor noise pulses; align their peaks (Section 3.1).
4. Compute the transient holding resistance Rtr (Section 2) and refresh
   the pulses with it.
5. Align the composite pulse against the victim transition — by the
   pre-characterized table (Section 3.2), the receiver-input objective of
   the prior art, or an exhaustive search.
6. Because the linear driver model depends on the alignment and vice
   versa, iterate steps 3-5; the paper (and this implementation) finds
   one or two passes suffice.
7. Evaluate the extra delay at the receiver input and output with a
   non-linear receiver simulation, alongside a plain-Thevenin-holding
   reference at identical alignment for model-accuracy comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.alignment import (
    composite_pulse,
    input_objective_peak_time,
    peak_align_shifts,
)
from repro.core.exhaustive import (
    combined_extra_delays,
    exhaustive_worst_alignment,
    receiver_output_waveform,
)
from repro.core.holding_resistance import RtrResult, compute_rtr
from repro.core.net import CoupledNet
from repro.core.precharacterize import AlignmentTable, build_alignment_table
from repro.core.superposition import VICTIM, ModelCache, SuperpositionEngine
from repro import trust as _trust
from repro.obs import get_logger, metrics, span
from repro.resilience.degradation import (
    QUALITY_DEGRADED,
    QUALITY_EXACT,
    Degradation,
    NetTimeout,
)
from repro.resilience.faults import fire as _fire_fault
from repro.units import NS, PS
from repro.waveform import Waveform, transition_slew
from repro.waveform.pulses import pulse_peak, pulse_width

__all__ = ["DelayNoiseAnalyzer", "Degradation", "NoiseReport"]

log = get_logger("core.analysis")

#: Alignment-method names accepted by :meth:`DelayNoiseAnalyzer.analyze`.
ALIGNMENT_METHODS = ("table", "input-objective", "exhaustive")

#: Transient step of every simulation the analyzer runs.
DT = 1.0 * PS

#: Model/alignment passes (steps 3-5 of the flow): the linear driver
#: model depends on the alignment and vice versa, and the paper finds
#: one or two passes suffice.
OUTER_ITERATIONS = 2

#: Coarse points of the exhaustive alignment sweep.
EXHAUSTIVE_STEPS = 25

#: Table mode: after the table predicts the worst-case peak position,
#: this many earlier candidates are *measured* with receiver
#: simulations and the best one wins.  The final receiver simulation
#: runs anyway (Figure 1(d)), so this costs only a few extra small
#: non-linear runs, and it converts a rare catastrophic table-transfer
#: miss — the predicted alignment landing past the delay cliff, where
#: the measured delay collapses to zero — into a near-optimal pick.
#: The paper's pure lookup is :meth:`AlignmentTable.predict_peak_time`.
ALIGNMENT_PROBES = 3


def _append_trust_degradations(net_name: str,
                               degradations: list[Degradation]) -> None:
    """Fold pending trust-layer events into the report's provenance.

    Escalated solves produced a *verified-correct* result, but through
    a non-primary backend — that is provenance worth surfacing, so the
    report is marked degraded with one ``stage="trust"`` entry per
    escalation hop (aggregated with a count; a long transient can
    escalate hundreds of steps and per-step entries would drown the
    report).  Unrecovered violations normally raise
    :class:`~repro.sim.nonlinear.TrustViolation` into a stage ladder,
    but any that were swallowed by a coarser recovery still leave an
    entry here.
    """
    events = _trust.drain_events()
    if not events:
        return
    by_hop: dict[str, int] = {}
    unrecovered = 0
    for event in events:
        if event["kind"] == "escalated":
            hop = event.get("hop") or "unknown"
            by_hop[hop] = by_hop.get(hop, 0) + 1
        elif event["kind"] == "unrecovered":
            unrecovered += 1
    for hop, count in sorted(by_hop.items()):
        degradations.append(Degradation(
            stage="trust",
            error=(f"{count} solve(s) failed residual verification "
                   f"during {net_name}"),
            fallback=hop))
        metrics().counter("analysis.degraded.trust").inc()
        log.warning(
            "%s: %d solve(s) failed residual verification and were "
            "re-solved via %s", net_name, count, hop)
    if unrecovered:
        degradations.append(Degradation(
            stage="trust",
            error=(f"{unrecovered} solve(s) unrecovered after full "
                   f"escalation during {net_name}"),
            fallback="none"))
        metrics().counter("analysis.degraded.trust").inc()


@dataclass
class NoiseReport:
    """Everything the analysis concluded about one coupled net."""

    net_name: str
    vdd: float
    victim_rising: bool
    alignment_method: str

    # Driver models.
    ceff_victim: float
    rth_victim: float
    rtr: float
    rtr_result: RtrResult | None

    # Victim transition (absolute volts, at the receiver input).
    noiseless_input: Waveform
    victim_slew: float

    # Final composite noise (delta domain) and its features.
    composite: Waveform
    pulse_height: float
    pulse_width: float
    peak_time: float
    aggressor_shifts: dict[str, float]
    iterations: int

    # Delay-noise results (Rtr model).
    noisy_input: Waveform
    noiseless_output: Waveform
    noisy_output: Waveform
    extra_delay_input: float
    extra_delay_output: float

    # Reference results with the traditional Thevenin holding resistance
    # at the same alignment (model-accuracy comparison, Figure 13).
    extra_delay_input_thevenin: float
    extra_delay_output_thevenin: float
    composite_thevenin: Waveform

    # Result provenance: "exact" when every refinement stage ran, or
    # "degraded" when a stage failed and its conservative baseline
    # (plain Thevenin holding, nominal alignment) substituted — the
    # per-stage records say what fell back and why.
    quality: str = QUALITY_EXACT
    degradations: list[Degradation] = field(default_factory=list)


class DelayNoiseAnalyzer:
    """Reusable analyzer holding model and alignment-table caches.

    Every simulation steps by :data:`DT`; ``cache`` is a shared
    Thevenin :class:`ModelCache` (created if omitted).  A receiver cell
    without a registered alignment table is pre-characterized on demand
    with :func:`build_alignment_table`'s defaults.
    """

    def __init__(self, *, cache: ModelCache | None = None):
        self.cache = cache if cache is not None else ModelCache()
        self._tables: dict[tuple[str, bool], AlignmentTable] = {}
        #: Alignment-table cache traffic (mirrors ModelCache.hits/misses;
        #: the parallel engine's stats aggregate both).
        self.table_hits = 0
        self.table_misses = 0

    # ------------------------------------------------------------------
    # Pre-characterization cache
    # ------------------------------------------------------------------
    def alignment_table_for(self, receiver_gate,
                            victim_rising: bool) -> AlignmentTable:
        """Fetch (building on first use) the 8-point table for a cell."""
        key = (receiver_gate.name, victim_rising)
        if key not in self._tables:
            self.table_misses += 1
            metrics().counter("cache.alignment.misses").inc()
            log.debug("alignment table miss: %s rising=%s", *key)
            self._tables[key] = build_alignment_table(
                receiver_gate, victim_rising=victim_rising)
        else:
            self.table_hits += 1
            metrics().counter("cache.alignment.hits").inc()
        return self._tables[key]

    def register_table(self, table: AlignmentTable) -> None:
        """Install a pre-built table (e.g. characterized offline)."""
        self._tables[(table.gate_name, table.victim_rising)] = table

    def alignment_tables(self) -> list[AlignmentTable]:
        """All cached alignment tables (for persistence/snapshots)."""
        return list(self._tables.values())

    # ------------------------------------------------------------------
    # Main flow
    # ------------------------------------------------------------------
    def analyze(self, net: CoupledNet, *, use_rtr: bool = True,
                alignment: str = "table",
                tier_label: int = 2) -> NoiseReport:
        """Analyze one coupled net for worst-case delay noise.

        ``tier_label`` records which screening tier escalated this net
        into the full analysis (2 means a direct/exhaustive call); it
        only annotates the trace span and the ``analysis.tier.N``
        counter — the flow itself is identical for every label.  In
        table mode the prediction is refined by
        :data:`ALIGNMENT_PROBES` measured candidates.
        """
        # Validated eagerly: once inside the flow, a failing stage
        # degrades to its baseline instead of raising, and a typo'd
        # parameter must stay a loud error.
        if alignment not in ALIGNMENT_METHODS:
            raise ValueError(
                f"alignment must be one of {ALIGNMENT_METHODS}")
        if not net.aggressors:
            raise ValueError(f"{net.name} has no aggressors to analyze")
        _fire_fault("analysis.net", net.name)
        # Discard trust events left over from work outside any net
        # (bench warm-ups, table pre-characterization for another
        # receiver) so the report only carries its own provenance.
        _trust.drain_events()

        with span("net.analyze", net=net.name,
                  aggressors=len(net.aggressors),
                  alignment=alignment, tier=tier_label) as net_span:
            report = self._analyze_traced(
                net, net_span, use_rtr=use_rtr, alignment=alignment)
        metrics().counter("analysis.nets").inc()
        metrics().counter(f"analysis.tier.{tier_label}").inc()
        metrics().histogram("analysis.outer_iterations").observe(
            report.iterations)
        log.debug("%s: extra delay %.1f ps out / %.1f ps in after %d "
                  "iteration(s)", net.name,
                  report.extra_delay_output / PS,
                  report.extra_delay_input / PS, report.iterations)
        return report

    def _analyze_traced(self, net: CoupledNet, net_span, *, use_rtr: bool,
                        alignment: str) -> NoiseReport:
        """The :meth:`analyze` flow, one child span per pipeline stage."""
        vdd = net.vdd
        rising = net.victim_rising
        with span("net.superposition"):
            engine = SuperpositionEngine(net, cache=self.cache, dt=DT)

            noiseless_input = (engine.victim_transition().at_receiver
                               + net.victim_initial_level())
        victim_slew = transition_slew(noiseless_input, vdd, rising)
        t50 = noiseless_input.crossing_time(vdd / 2.0, rising=rising,
                                            which="first")

        rth = engine.models[VICTIM].rth
        target = t50
        shifts: dict[str, float] = {a.name: 0.0 for a in net.aggressors}
        rtr_result: RtrResult | None = None
        r_hold = rth
        iterations = 0
        degradations: list[Degradation] = []
        failed_stages: set[str] = set()

        for iterations in range(1, OUTER_ITERATIONS + 1):
            if use_rtr and "rtr" not in failed_stages:
                with span("net.holding_resistance",
                          iteration=iterations):
                    try:
                        _fire_fault("analysis.rtr", net.name)
                        rtr_result = compute_rtr(engine, shifts)
                        r_hold = rtr_result.rtr
                    except NetTimeout:
                        raise  # the net's budget is spent: fail it
                    except Exception as exc:
                        # The transient holding resistance is a
                        # refinement; its conservative baseline is the
                        # plain Thevenin holding resistance the
                        # superposition engine already carries.
                        failed_stages.add("rtr")
                        degradations.append(Degradation(
                            stage="rtr",
                            error=f"{type(exc).__name__}: {exc}",
                            fallback="thevenin-rth"))
                        rtr_result = None
                        r_hold = rth
                        metrics().counter("analysis.degraded.rtr").inc()
                        log.warning(
                            "%s: Rtr characterization failed (%s: %s); "
                            "holding with the Thevenin resistance",
                            net.name, type(exc).__name__, exc)

            with span("net.noise_pulses", iteration=iterations):
                pulses = {
                    a.name: engine.aggressor_noise(
                        a.name, victim_r=r_hold).at_receiver
                    for a in net.aggressors
                }
            aligned = peak_align_shifts(pulses, target)
            shape = composite_pulse(pulses, aligned)
            _t_peak, height = pulse_peak(shape)
            width = pulse_width(shape)

            with span("net.alignment", iteration=iterations,
                      method=alignment):
                new_target = self._aligned_target_or_fallback(
                    alignment, net, noiseless_input, shape, height,
                    width, victim_slew, target, degradations,
                    failed_stages)

            new_shifts = {
                a.name: a.clamp_shift(aligned[a.name]
                                      + (new_target - target))
                for a in net.aggressors
            }
            moved = abs(new_target - target)
            target = new_target
            shifts = new_shifts
            if moved < 0.5 * PS:
                break

        composite = composite_pulse(pulses, shifts)
        peak_time, height = pulse_peak(composite)
        width = pulse_width(composite)

        noisy_input = noiseless_input + composite
        t_stop = max(engine.t_stop,
                     peak_time + 3.0 * max(width, 10 * PS) + 0.3 * NS)
        with span("net.receiver_eval", probes=0) as eval_span:
            clean_output = receiver_output_waveform(
                net.receiver, noiseless_input, t_stop, DT)
            extra_in, extra_out, noisy_output = combined_extra_delays(
                net.receiver, noiseless_input, noisy_input, vdd, rising,
                t_stop, DT, clean_output=clean_output)

            if alignment == "table":
                # Measure a few earlier candidates; the guard-banded
                # table prediction only ever errs early or (rarely) off
                # the cliff, so probing earlier is the useful direction.
                probe_counter = metrics().counter("alignment.probes")
                probe_wins = metrics().counter(
                    "alignment.probe_improvements")
                eval_span.set(probes=ALIGNMENT_PROBES)
                step = 0.15 * max(width, 20 * PS)
                for k in range(1, ALIGNMENT_PROBES + 1):
                    delta = -k * step
                    probe_shifts = {
                        a.name: a.clamp_shift(shifts[a.name] + delta)
                        for a in net.aggressors
                    }
                    probe_comp = composite_pulse(pulses, probe_shifts)
                    probe_in, probe_out, probe_wave = \
                        combined_extra_delays(
                            net.receiver, noiseless_input,
                            noiseless_input + probe_comp, vdd, rising,
                            t_stop, DT, clean_output=clean_output)
                    probe_counter.inc()
                    if probe_out > extra_out:
                        probe_wins.inc()
                        log.debug(
                            "%s: probe %d beats table prediction "
                            "(%.1f ps > %.1f ps)", net.name, k,
                            probe_out / PS, extra_out / PS)
                        extra_in, extra_out = probe_in, probe_out
                        noisy_output = probe_wave
                        shifts = probe_shifts
                        composite = probe_comp
                        noisy_input = noiseless_input + composite
                peak_time, height = pulse_peak(composite)
                width = pulse_width(composite)
                target = peak_time

        # Thevenin-holding reference at the same alignment target.
        with span("net.thevenin_reference"):
            pulses_th = {
                a.name: engine.aggressor_noise(
                    a.name, victim_r=rth).at_receiver
                for a in net.aggressors
            }
            aligned_th = peak_align_shifts(pulses_th, target)
            shifts_th = {a.name: a.clamp_shift(aligned_th[a.name])
                         for a in net.aggressors}
            composite_th = composite_pulse(pulses_th, shifts_th)
            extra_in_th, extra_out_th, _ = combined_extra_delays(
                net.receiver, noiseless_input,
                noiseless_input + composite_th,
                vdd, rising, t_stop, DT, clean_output=clean_output)

        _append_trust_degradations(net.name, degradations)
        net_span.set(iterations=iterations,
                     extra_delay_output_ps=extra_out / PS)
        return NoiseReport(
            net_name=net.name,
            vdd=vdd,
            victim_rising=rising,
            alignment_method=alignment,
            ceff_victim=engine.ceffs[VICTIM],
            rth_victim=rth,
            rtr=r_hold,
            rtr_result=rtr_result,
            noiseless_input=noiseless_input,
            victim_slew=victim_slew,
            composite=composite,
            pulse_height=height,
            pulse_width=width,
            peak_time=peak_time,
            aggressor_shifts=shifts,
            iterations=iterations,
            noisy_input=noisy_input,
            noiseless_output=clean_output,
            noisy_output=noisy_output,
            extra_delay_input=extra_in,
            extra_delay_output=extra_out,
            extra_delay_input_thevenin=extra_in_th,
            extra_delay_output_thevenin=extra_out_th,
            composite_thevenin=composite_th,
            quality=QUALITY_DEGRADED if degradations else QUALITY_EXACT,
            degradations=degradations,
        )

    def _aligned_target_or_fallback(self, method: str, net: CoupledNet,
                                    noiseless_input: Waveform,
                                    shape: Waveform, height: float,
                                    width: float, victim_slew: float,
                                    target: float,
                                    degradations: list[Degradation],
                                    failed_stages: set[str]) -> float:
        """Alignment target with graceful degradation.

        When the pre-characterized table (or the exhaustive sweep)
        fails, fall back to the receiver-input objective — the prior
        art's alignment, needing only the noiseless waveform — and as
        a last resort keep the current peak-aligned target.  The
        fallback is sticky across outer iterations and recorded once.
        """
        vdd = net.vdd
        rising = net.victim_rising
        if "alignment" not in failed_stages:
            try:
                _fire_fault("analysis.alignment", net.name)
                return self._alignment_target(
                    method, net, noiseless_input, shape, height, width,
                    victim_slew)
            except NetTimeout:
                raise
            except Exception as exc:
                failed_stages.add("alignment")
                error = f"{type(exc).__name__}: {exc}"
                metrics().counter("analysis.degraded.alignment").inc()
        else:
            error = "(previous iteration)"
        try:
            fallback_target = input_objective_peak_time(
                noiseless_input, height, vdd, rising)
            fallback = "input-objective"
        except NetTimeout:
            raise
        except Exception:
            fallback_target = target
            fallback = "peak-alignment"
        if error != "(previous iteration)":
            degradations.append(Degradation(
                stage="alignment", error=error, fallback=fallback))
            log.warning(
                "%s: %s alignment failed (%s); falling back to %s",
                net.name, method, error, fallback)
        return fallback_target

    # ------------------------------------------------------------------
    def _alignment_target(self, method: str, net: CoupledNet,
                          noiseless_input: Waveform, shape: Waveform,
                          height: float, width: float,
                          victim_slew: float) -> float:
        """Worst-case composite-peak time under the chosen objective."""
        vdd = net.vdd
        rising = net.victim_rising
        if method == "input-objective":
            return input_objective_peak_time(noiseless_input, height, vdd,
                                             rising)
        if method == "exhaustive":
            sweep = exhaustive_worst_alignment(
                net.receiver, noiseless_input, shape, vdd, rising,
                steps=EXHAUSTIVE_STEPS, refine=8, dt=DT)
            return sweep.best_peak_time
        table = self.alignment_table_for(net.receiver.gate, rising)
        return table.predict_peak_time(noiseless_input, width, height,
                                       victim_slew)
