"""The three workloads: their seeded populations and call sequences.

Every workload is a closed loop with one client: one process, ``jobs=1``
and each net starting when the previous one finishes.  The program sees
only the generated nets, built through the public ``NetGenerator`` API.

* ``screen-block`` runs the call sequence of ``repro screen --preset
  screening --noise-threshold 0.6``: tier-0/1 triage, tier-2
  ``analyze_nets`` with table alignment, then the functional screen of
  every escalated net.  Characterization of the escalated nets sits
  between triage and tier 2 and is set-up, not timed.
* ``fig13-golden`` runs the Fig-13 model-vs-golden sequence on the
  ``hp`` preset: superposition, peak alignment at the 50% crossing,
  ``compute_rtr``, receiver evaluation held by Thevenin and by Rtr,
  then ``golden_extra_delays``.  Its set-up is the Thevenin tables of
  every driver.
* ``extracted-tree`` runs the screen-block sequence over
  extracted-scale ``large_tree`` nets: TICER in tier 1 and the sparse
  MNA backend in tier 2.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import repro.core.alignment as alignment
import repro.core.exhaustive as exhaustive
import repro.core.functional as functional
import repro.core.golden as golden
import repro.core.holding_resistance as holding_resistance
import repro.core.screening as screening
import repro.core.superposition as superposition
import repro.exec as rexec
import repro.trust as trust
from repro.bench.netgen import NetGenConfig, NetGenerator
from repro.core.analysis import DelayNoiseAnalyzer
from repro.units import FF, KOHM, NS, PS

import stats

#: ``repro screen --noise-threshold`` of both screen workloads (volts).
NOISE_THRESHOLD = 0.6
#: Share of tier-2 nets re-run through the legacy oracle
#: (``repro screen --audit-rate``).
AUDIT_RATE = 0.2
#: Nets per fig13-golden pass (one design block).
FIG13_NETS = 9
#: Timed passes per run of the workloads whose nets take about a second
#: each, each pass on fresh nets; every time such a run reports is the
#: smallest of the passes' readings.  On a shared 2-vCPU host the same
#: net's time moved by 20-30% from one pass to the next, and contention
#: only ever adds time.  Over eight seeds, run alternately, fig13-golden
#: spread its per-net median by 8.1% of the median with two passes of
#: nine nets against 13.7% with one pass of eighteen, and its wall by
#: 13.5% against 18.7%.  The extracted tree is a single net of about
#: twenty seconds; a second pass would not fit the benchmark's time.
PASSES = 2
#: Golden extra delays below this are measurement noise and excluded
#: from the accuracy figures, as in the Fig-13 bench.
MIN_GOLDEN = 15 * PS
#: Interconnect nodes of an extracted-tree net: above TICER_MIN_NODES
#: (256) and, with the driver rows, above SPARSE_MIN_DIM (512 unknowns).
TREE_NODES = (530, 534)

#: Rows of an orthogonal array OA(9, 4, 3, 2): within every block of
#: nine nets, each pair of the four factors below takes all nine level
#: pairs exactly once.
_OA9 = tuple((i, j, (i + j) % 3, (i + 2 * j) % 3)
             for j in range(3) for i in range(3))


# ----------------------------------------------------------------------
# Populations
# ----------------------------------------------------------------------
def balanced_configs(base: NetGenConfig, count: int, seed) -> list:
    """Per-net generator configs of a balanced draw of ``base``.

    Each block of nine nets takes the nine rows ``(i, j, ...)`` of an
    orthogonal array over victim driver, aggressor count, receiver and
    victim slew (a factor that ``base`` gives one level stays fixed).
    The row also fixes the net's stratum of the coupling range (tercile
    ``(i + j) % 3``, within the block's nine of ``count`` strata), of
    the victim wire resistance (tercile ``(i + 2j) % 3``) and of its
    capacitance (tercile ``i``).  So every block has the same
    composition on every seed: the seed shuffles the rows over the
    block's nets and draws everything else.  With independent draws
    the number of nets that escalate spread by 22-29% of its median
    over ten seeds (at 200 nets), and with it the weak victim drivers
    that dominate tier-2 cost; with the strata paired at random, the
    median tier-2 net time still spread by 23% over five seeds.
    """
    if count % 9:
        raise ValueError("the balanced design needs whole blocks of nine")
    rng = np.random.default_rng(seed)
    aggressors = tuple(range(base.n_aggressors[0], base.n_aggressors[1] + 1))
    factors = [base.victim_driver_scales, aggressors, base.receiver_scales,
               base.victim_slews]
    if any(len(levels) not in (1, 3) for levels in factors):
        raise ValueError("the balanced design needs one or three levels "
                         "per factor")
    configs = []
    for start in range(0, count, 9):
        for row in rng.permutation(9):
            levels = _OA9[row]
            i, j = levels[:2]
            driver, n_agg, receiver, slew = (
                f[level % len(f)] for f, level in zip(factors, levels))
            configs.append(dataclasses.replace(
                base,
                n_aggressors=(n_agg, n_agg),
                victim_driver_scales=(driver,),
                receiver_scales=(receiver,),
                victim_slews=(slew,),
                coupling_ratio_range=_stratum(
                    base.coupling_ratio_range,
                    start + 3 * ((i + j) % 3) + j, count,
                    base.coupling_ratio_log),
                victim_r_range=_stratum(base.victim_r_range,
                                        3 * ((i + 2 * j) % 3) + i, 9),
                victim_c_range=_stratum(base.victim_c_range, 3 * i + j, 9)))
    return configs


def _stratum(lo_hi, index: int, strata: int, log: bool = False) -> tuple:
    """The ``index``-th of ``strata`` equal slices of a range."""
    lo, hi = lo_hi
    if log:
        return (lo * (hi / lo) ** (index / strata),
                lo * (hi / lo) ** ((index + 1) / strata))
    return (lo + (hi - lo) * index / strata,
            lo + (hi - lo) * (index + 1) / strata)


def _generate(configs, seed: int) -> list:
    net_seeds = np.random.default_rng([seed, len(configs)]).integers(
        2**32, size=len(configs))
    return [NetGenerator(seed=int(s), config=c).generate(i)
            for i, (s, c) in enumerate(zip(net_seeds, configs))]


#: The screen-block population: the ``screening`` preset with one
#: receiver cell, one victim slew and one aggressor driver, so that every
#: seed needs the same characterization (one alignment table, four
#: Thevenin tables).  Victim driver, aggressor count, wire R and C, and
#: coupling still vary from net to net.
SCREEN_BASE = dataclasses.replace(
    NetGenConfig.screening(), receiver_scales=(2.0,),
    victim_slews=(0.2 * NS,), aggressor_driver_scales=(8.0,),
    aggressor_slews=(0.15 * NS,))
#: (nets, config overrides) of the screen-block's design blocks, in net
#: order.  Each block keeps its nets away from the 0.6 V threshold of
#: the tier that decides them (extremes over seeds 1-40, 201-210 and
#: 501-520):
#: * quiet: the tier-0 bound stays below 0.41 V, so tier 0 prunes;
#: * tier-1: the bound exceeds 0.63 V, but a strong victim driver on a
#:   short wire against slow aggressors keeps the tier-1 estimate
#:   below 0.54 V, so tier 1 prunes;
#: * loud: long, heavily loaded wires keep the estimate above 0.85 V,
#:   so every net escalates to tier 2.
SCREEN_BLOCKS = (
    (45, dict(coupling_ratio_range=(0.01, 0.35))),
    (9, dict(coupling_ratio_range=(0.76, 0.8),
             victim_driver_scales=(4.0,), aggressor_slews=(0.3 * NS,),
             victim_r_range=(0.4 * KOHM, 1.1 * KOHM),
             victim_c_range=(20 * FF, 43 * FF))),
    (9, dict(coupling_ratio_range=(0.9, 1.3),
             victim_r_range=(1.45 * KOHM, 2.5 * KOHM),
             victim_c_range=(55 * FF, 90 * FF))),
)


def screen_block_nets(seed: int) -> list:
    """A balanced draw of the screen-block population.

    Each block of ``SCREEN_BLOCKS`` is a balanced draw of ``SCREEN_BASE`` with
    its overrides.  With independent draws of the whole preset the
    near-threshold nets escalated or not by seed (8-10 of 54) and the
    interquartile range of the pass wall over ten seeds reached 30% of
    its median.  About 85% of the nets are pruned, as in a real block.
    """
    configs = []
    for index, (count, overrides) in enumerate(SCREEN_BLOCKS):
        base = dataclasses.replace(SCREEN_BASE, **overrides)
        configs += balanced_configs(base, count, [seed, index])
    return _generate(configs, seed)


#: The fig13-golden population: the ``hp`` preset with one victim slew
#: and one aggressor driver, so that every seed needs the same four
#: Thevenin tables.
FIG13_BASE = dataclasses.replace(
    NetGenConfig.high_performance(), victim_slews=(0.1 * NS,),
    aggressor_driver_scales=(8.0,), aggressor_slews=(0.35 * NS,))


def fig13_nets(seed: int, count: int = FIG13_NETS) -> list:
    """A balanced draw of ``FIG13_BASE``."""
    return _generate(balanced_configs(FIG13_BASE, count, seed), seed)


#: The electrical spec of an extracted tree.  Every tree needs the same
#: characterization (one alignment table, two Thevenin tables), and the
#: coupling is strong enough that every tree crosses the noise threshold
#: and reaches the sparse tier-2 path.  The seed draws one value from
#: each range of victim wire R, C and coupling.
TREE_CONFIG = NetGenConfig(
    victim_r_range=(1.2e3, 1.8e3), victim_c_range=(40e-15, 60e-15),
    aggressor_r_range=(0.8e3, 0.8e3), aggressor_c_range=(40e-15, 40e-15),
    aggressor_far_load_range=(15e-15, 15e-15),
    receiver_load_range=(20e-15, 20e-15), receiver_scales=(4.0,),
    victim_slews=(0.2e-9,), aggressor_driver_scales=(8.0,),
    aggressor_slews=(0.15e-9,), coupling_ratio_range=(1.1, 1.3))
#: Generator seed of the tree's topology, edge jitter and coupling spans.
#: With the topology drawn from the run's seed, the pass wall over ten
#: seeds varied by 30% relative to the same run's set-up, which does
#: fixed work: TICER's and SuperLU's costs follow the tree's shape.
TREE_TOPOLOGY_SEED = 0


def extracted_tree_nets(seed: int) -> list:
    """One extracted-scale RC-tree net of ``TREE_NODES`` interconnect
    nodes.

    The tree's node count includes its random trunk, so the requested
    size is searched near the estimate until the interconnect lands in
    the target window: TICER's cost grows with the cube of it.  Every
    draw of the generator consumes the same random numbers whatever its
    range, so point ranges drawn from ``seed`` change the tree's
    electrical values and leave its shape to ``TREE_TOPOLOGY_SEED``.
    """
    lo, hi = TREE_NODES
    rng = np.random.default_rng(seed)
    draws = {name: float(rng.uniform(*getattr(TREE_CONFIG, name)))
             for name in ("victim_r_range", "victim_c_range",
                          "coupling_ratio_range")}
    config = dataclasses.replace(
        TREE_CONFIG, **{name: (value, value) for name, value in draws.items()})

    def tree(nodes: int):
        return NetGenerator(seed=TREE_TOPOLOGY_SEED, config=config
                            ).large_tree(0, nodes=nodes)

    guess = 440
    guess += lo - len(tree(guess).interconnect.nodes())
    for step in range(64):
        nodes = guess + (step + 1) // 2 * (1 if step % 2 else -1)
        net = tree(nodes)
        if lo <= len(net.interconnect.nodes()) <= hi:
            return [net]
    raise RuntimeError(f"no tree of {lo}-{hi} nodes near {guess}")


# ----------------------------------------------------------------------
# Clocks
# ----------------------------------------------------------------------
class Meter:
    """Wall and CPU time of one pass's timed section, and its set-up.

    The set-up characterizes ``setups`` times, each time into a fresh
    state, and records each time.  A meter made with ``state`` skips
    the set-up and hands that state on: a later pass carries over an
    earlier pass's characterization and nothing else.  With a recorder,
    set-up also switches the layer recorder into its ``setup`` phase.
    """

    def __init__(self, setups: int = 1, recorder=None, registry=None,
                 tracer=None, state=None):
        self.wall = self.cpu = 0.0
        self.setups = setups
        self.setup_times: list[float] = []
        #: The characterized state (an analyzer or a model cache).
        self.state = state
        self._recorder = recorder
        self._registry = registry
        self._tracer = tracer

    @contextlib.contextmanager
    def timed(self):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu

    def characterize(self, make, warm):
        """``warm(make())``, ``setups`` times; returns the last state."""
        if self.state is not None:
            return self.state
        self._switch("setup")
        try:
            for _ in range(self.setups):
                gc.collect()  # the previous state's garbage is not set-up
                state = make()
                start = time.perf_counter()
                warm(state)
                self.setup_times.append(time.perf_counter() - start)
        finally:
            self._switch("pass")
        self.state = state
        return state

    def _switch(self, phase: str) -> None:
        if self._recorder is not None:
            self._recorder.switch(phase, self._registry, self._tracer)


@dataclass
class PassResult:
    """What one pass measured and answered."""

    wall: float
    cpu: float
    #: Seconds of each characterization before the timed section.
    setup_times: list[float]
    #: Net name -> seconds, for each net analyzed in full (from its
    #: triage to its functional screen).
    per_net: dict[str, float]
    #: Net name -> the numbers the pass answered for it.
    answers: dict
    acct: stats.Accounting
    #: Per-layer rows the workload measures itself.
    rows: dict = field(default_factory=dict)
    #: Problems found by the hard checks.
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: What the audits after the pass need (screen passes only).
    context: tuple = ()

    @property
    def setup(self) -> float:
        """Median set-up time."""
        return statistics.median(self.setup_times) if self.setup_times \
            else 0.0


# ----------------------------------------------------------------------
# Call sequences
# ----------------------------------------------------------------------
def screen_pass(nets, meter: Meter) -> PassResult:
    """One ``repro screen`` call sequence over ``nets``."""
    config = screening.ScreeningConfig(noise_threshold=NOISE_THRESHOLD)
    names = [net.name for net in nets]
    with meter.timed():
        decisions, screen_stats = screening.triage(nets, config)
    escalated = [net for net, d in zip(nets, decisions) if not d.pruned]
    analyzer = meter.characterize(
        DelayNoiseAnalyzer,
        lambda fresh: rexec.warm_analyzer(fresh, escalated,
                                          alignment="table"))

    beats: dict[str, float] = {}
    functional_s: dict[str, float] = {}
    reports_func = {}
    with meter.timed():
        result = rexec.analyze_nets(
            nets, jobs=1, analyzer=analyzer, alignment="table",
            tier_labels={d.net_name: d.tier for d in decisions},
            on_heartbeat=lambda beat: beats.__setitem__(beat.net,
                                                        beat.seconds))
        for net in escalated:
            start = time.perf_counter()
            reports_func[net.name] = functional.functional_noise(
                net, cache=analyzer.cache)
            functional_s[net.name] = time.perf_counter() - start

    failures = {f.net_name: f for f in result.failures}
    acct = stats.Accounting(attempted=len(nets))
    answers = {}
    per_net = {}
    for net, decision, report in zip(nets, decisions, result.reports):
        if not decision.pruned:
            # A pruned net's verdict costs microseconds, at which scale
            # timing noise exceeds the measurement.
            per_net[net.name] = (decision.seconds + beats.get(net.name, 0.0)
                                 + functional_s.get(net.name, 0.0))
        answer = [decision.tier, decision.bound, decision.estimate]
        if net.name in failures:
            acct.fail(net.name, f"analysis {failures[net.name].error}")
        if report is not None:
            acct.analyzed += 1
            acct.degraded += report.quality == "degraded"
            numbers = (report.pulse_height, report.extra_delay_input,
                       report.extra_delay_output, report.rtr)
            if not stats.finite(*numbers):
                acct.fail(net.name, "non-finite report")
            answer += [*numbers, report.quality]
        func = reports_func.get(net.name)
        if func is not None:
            answer += [func.input_peak, func.output_peak]
        answers[net.name] = tuple(answer)

    problems = stats.check_tier_accounting(names, decisions, result.reports,
                                           set(failures))
    rows = {
        "core.screening.pruned_frac": screen_stats.pruned_fraction,
        "core.screening.escalated": screen_stats.escalated,
        "exec.pool.failed": result.stats.failures,
        "core.analysis.degraded": result.stats.degraded,
    }
    notes = [f"triage: tier0 {screen_stats.by_tier[0]} / tier1 "
             f"{screen_stats.by_tier[1]} / tier2 {screen_stats.by_tier[2]}"]
    return PassResult(meter.wall, meter.cpu, meter.setup_times, per_net,
                      answers, acct, rows, problems, notes,
                      context=(nets, decisions, result, config, analyzer))


def screen_audits(pass_result: PassResult, seed: int) -> None:
    """The prune audit (a hard check) and the legacy-oracle audit
    (counted in ``failed``) of one screen pass, folded into it."""
    nets, decisions, result, config, analyzer = pass_result.context
    picks = stats.pick_prunes(decisions, seed)
    if picks:
        audit = screening.audit_prunes(
            nets, picks, config=config, analyzer=analyzer, rate=1.0,
            seed=seed, analyze_kwargs={"alignment": "table"})
        pass_result.problems += stats.check_prune_audit(audit)
        pass_result.notes.append(
            f"prune audit: {audit['checked']} prune(s) re-run at tier 2 "
            f"({', '.join(d.net_name for d in picks)}), "
            f"{audit['unsound_prunes']} unsound")
    reports = {net.name: report for net, report in zip(nets, result.reports)}
    audit = trust.run_audit(nets, reports, analyzer, rate=AUDIT_RATE,
                            seed=seed, analyze_kwargs={"alignment": "table"})
    for miss in audit["mismatches"]:
        pass_result.acct.fail(miss["net"], f"oracle {miss['field']}")
        pass_result.notes.append(
            f"oracle mismatch: {miss['net']}.{miss['field']} screened "
            f"{miss['screened']:.9g} vs oracle {miss['oracle']:.9g} "
            f"(|delta| {miss['delta']:.3g})")
    pass_result.notes.append(
        f"oracle audit: {audit['checked']} of {audit['eligible']} tier-2 "
        f"net(s) re-run at rate {AUDIT_RATE} "
        f"({', '.join(audit['sampled']) or 'none'}), "
        f"{len(audit['mismatches'])} mismatch(es)")


def fig13_pass(nets, meter: Meter) -> PassResult:
    """The Fig-13 model-vs-golden sequence over ``nets``."""
    def warm(cache):
        for net in nets:
            cache.table_for(net.victim_driver)
            for agg in net.aggressors:
                cache.table_for(agg.driver)

    cache = meter.characterize(superposition.ModelCache, warm)

    acct = stats.Accounting(attempted=len(nets))
    per_net, delays, answers = {}, {}, {}
    with meter.timed():
        for net in nets:
            start = time.perf_counter()
            try:
                delays[net.name] = _fig13_net(net, cache)
            except Exception as exc:  # one net's failure is counted
                acct.fail(net.name, f"{type(exc).__name__}: {exc}")
            per_net[net.name] = time.perf_counter() - start
    acct.analyzed = len(delays)
    for name, values in delays.items():
        if not stats.finite(*values):
            acct.fail(name, "non-finite delay")
        answers[name] = values

    measurable = [v for v in delays.values()
                  if stats.finite(*v) and v[0] >= MIN_GOLDEN]
    gold = [v[0] for v in measurable]
    rtr_err = stats.error_pct([v[2] for v in measurable], gold)
    th_err = stats.error_pct([v[1] for v in measurable], gold)
    rows = {
        "rtr_err_mean_pct": sum(rtr_err) / len(rtr_err) if rtr_err else 0.0,
        "rtr_err_worst_pct": max(rtr_err, default=0.0),
        "thevenin_err_mean_pct": sum(th_err) / len(th_err)
        if th_err else 0.0,
    }
    notes = [f"accuracy over {len(measurable)} of {len(nets)} nets above "
             f"the {MIN_GOLDEN / PS:.0f} ps golden floor: Rtr mean "
             f"{rows['rtr_err_mean_pct']:.2f}% worst "
             f"{rows['rtr_err_worst_pct']:.2f}%, Thevenin mean "
             f"{rows['thevenin_err_mean_pct']:.2f}%"]
    return PassResult(meter.wall, meter.cpu, meter.setup_times, per_net,
                      answers, acct, rows, stats.check_finite_delays(delays),
                      notes)


def _fig13_net(net, cache) -> tuple[float, float, float]:
    """(golden, Thevenin, Rtr) extra delay at the receiver input."""
    engine = superposition.SuperpositionEngine(net, cache=cache)
    vdd, rising = net.vdd, net.victim_rising
    victim = (engine.victim_transition().at_receiver
              + net.victim_initial_level())
    t50 = victim.crossing_time(vdd / 2, rising=rising)
    pulses = {a.name: engine.aggressor_noise(a.name).at_receiver
              for a in net.aggressors}
    shifts = alignment.peak_align_shifts(pulses, t50)
    rtr = holding_resistance.compute_rtr(engine, shifts)
    t_stop = engine.t_stop + 1.5 * NS
    noisy_th = victim + engine.total_noise(
        shifts, victim_r=rtr.rth).at_receiver
    noisy_rtr = victim + engine.total_noise(
        shifts, victim_r=rtr.rtr).at_receiver
    extra_th = exhaustive.combined_extra_delays(
        net.receiver, victim, noisy_th, vdd, rising, t_stop)[0]
    extra_rtr = exhaustive.combined_extra_delays(
        net.receiver, victim, noisy_rtr, vdd, rising, t_stop)[0]
    gold = golden.golden_extra_delays(net, t_stop, aggressor_shifts=shifts)
    return (gold.extra_input, extra_th, extra_rtr)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    #: Seed -> fresh nets (new objects on every call).
    nets: object
    #: (nets, meter) -> PassResult.
    run_pass: object
    #: Time metrics of the rows that partition a traced pass.
    top: tuple
    #: (PassResult, seed) -> None: the checks that re-run nets after the
    #: timed section, or None.
    audit: object = None
    #: Timed passes of an untraced run.
    passes: int = 1


SCREEN_TOP = ("core.screening.tier0_s", "core.screening.tier1_s",
              "exec.pool.s", "core.functional.s")
FIG13_TOP = ("core.superposition.s", "core.holding_resistance.s",
             "core.exhaustive.s", "core.golden.s")

WORKLOADS = {
    "screen-block": Workload(screen_block_nets, screen_pass, SCREEN_TOP,
                             screen_audits, passes=PASSES),
    "fig13-golden": Workload(fig13_nets, fig13_pass, FIG13_TOP,
                             passes=PASSES),
    "extracted-tree": Workload(extracted_tree_nets, screen_pass, SCREEN_TOP,
                               screen_audits),
}
