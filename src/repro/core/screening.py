"""Tiered population screening: bound → MOR estimate → full kernel.

The full delay-noise flow (Rtr extraction + alignment + non-linear
receiver evaluation) costs seconds per net, but in a real population
the overwhelming majority of nets are nowhere near the noise threshold.
This module prunes them cheaply, in the FRAME style of conservative
filtering before exact analysis:

* **Tier 0** — a closed-form charge-divider peak-noise upper bound from
  the coupled-charge topology quantities (:func:`tier0_bound`): no
  simulation at all, just the memoized node partition and capacitance
  sums of :mod:`repro.core.filtering`.
* **Tier 1** — a reduced-order *linear* over-approximation
  (:func:`tier1_estimate`): the full coupled MNA system is
  PRIMA-projected (:class:`repro.mor.ReducedModel`, on SuperLU at
  extracted scale) and each aggressor is driven by an ideal
  full-swing ramp against a pessimistically-held victim; the summed
  per-aggressor peaks carry a calibrated guard band so the estimate
  over-approximates the non-linear composite pulse height.
* **Tier 2** — the existing full :class:`DelayNoiseAnalyzer` analysis,
  run only for nets whose tier-0/1 figures cross the noise threshold.

Every tier over-approximates the one below it in cost and refines it in
tightness, so a prune at any tier is sound: a pruned net re-run through
tier 2 must land below the threshold.  ``repro screen
--prune-audit-rate`` (and the pruning-soundness tests) enforce exactly
that, and the ``screening.estimate`` fault point lets chaos tests
inject a silent under-estimate the audit must catch.

Conservatism of the tiers
-------------------------

Tier 0 assumes the worst linear transfer physically possible: every
aggressor steps instantaneously by the full supply, the victim driver
provides no holding at all, and all injected charge piles onto the
victim's grounded capacitance — ``vdd * Cc / (Cc + Cg)``.  Finite
aggressor slews, resistive victim holding and wire shielding only ever
reduce the real pulse below this.

Tier 1 restores the linear dynamics but keeps every modeling choice on
the pessimistic side: aggressor drivers are ideal (zero-impedance)
voltage ramps at their input slews, quiet aggressors are near-floating
(anchored only for DC solvability), the victim holding resistance is
the crude saturation-current estimate scaled up by
``VICTIM_R_SCALE`` (bounding the transient holding resistance Rtr from
above — noise grows monotonically with the holding resistance), and the
per-aggressor peak magnitudes are *summed*, which upper-bounds the
composite peak over every possible alignment.  The residual risk —
non-linear driver effects and the output-slew proxy — is covered by the
``guard_band`` multiplier, calibrated against seeded populations (see
``docs/architecture.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.mna import build_mna
from repro.circuit.netlist import GROUND
from repro.core.filtering import partition_nodes
from repro.core.net import CoupledNet
from repro.mor.reduced import ReducedModel
from repro.obs import get_logger, metrics, span
from repro.resilience.faults import InjectedCorruption
from repro.resilience.faults import fire as _fire_fault
from repro.units import NS

__all__ = [
    "DEFAULT_GUARD_BAND",
    "TIER_POLICIES",
    "VICTIM_R_SCALE",
    "ScreeningConfig",
    "ScreeningResult",
    "ScreeningStats",
    "TierDecision",
    "audit_prunes",
    "screen_population",
    "tier0_bound",
    "tier1_estimate",
    "triage",
]

log = get_logger("core.screening")

#: Safety multiplier on the tier-1 linear estimate.  Calibrated on the
#: seeded populations (default and hp presets, seeds 1-7): the raw
#: estimate over-approximates the tier-2 composite pulse height by
#: 1.6x-6x already; 1.25 guards the residual non-linear and slew-proxy
#: error with comfortable margin while keeping the estimate useful.
DEFAULT_GUARD_BAND = 1.25

#: Multiplier on the victim driver's crude saturation-current resistance
#: estimate.  The transient holding resistance Rtr exceeds the DC
#: estimate (the paper's Section 2 point); 4x bounds every Rtr/Rth
#: ratio observed on the seeded populations from above.
VICTIM_R_SCALE = 4.0

#: Accepted ``ScreeningConfig.policy`` values: ``auto`` runs tier 0,
#: then tier 1, then tier 2; ``bound-only`` skips the MOR estimate
#: (tier 0 straight to tier 2); ``full`` escalates everything (the
#: exhaustive baseline the speedup is measured against).
TIER_POLICIES = ("auto", "bound-only", "full")

#: Reduced-model order for the tier-1 PRIMA projection.  Eight Krylov
#: vectors match four block moments of the single-input transfer —
#: ample for the monotone-ish RC responses screened here.
TIER1_ORDER = 8

#: The former tier-1 TICER cut-over (interconnect nodes).  It routes
#: nothing now; noisebench's extracted tree is sized above it.
TICER_MIN_NODES = 256

#: DC anchor for quiet aggressor roots in the tier-1 circuit: large
#: enough to be conservative (a near-floating neighbor shields
#: nothing), small enough to keep ``G`` non-singular for PRIMA.
_ANCHOR_RESISTANCE = 1e6

#: Norton source resistance of the tier-1 aggressor drive.  Small
#: against any wire/holding impedance (so the root sees a near-ideal
#: full-swing ramp) while keeping the stamped ``G`` symmetric
#: positive-definite — see the note inside :func:`tier1_estimate`.
_SOURCE_RESISTANCE = 10.0

#: Tier-1 transient grid resolution (steps across the simulated
#: horizon; the reduced system is tiny, so the grid is cheap).
_TIER1_STEPS = 400


@dataclass(frozen=True)
class ScreeningConfig:
    """Knobs of one tiered screen.

    ``noise_threshold`` is the composite pulse height (volts at the
    victim receiver input) above which a net must see the full tier-2
    analysis.  See :data:`TIER_POLICIES` for ``policy``.
    """

    noise_threshold: float
    policy: str = "auto"
    guard_band: float = DEFAULT_GUARD_BAND

    def __post_init__(self):
        if self.noise_threshold <= 0.0:
            raise ValueError(
                f"noise_threshold must be positive, got "
                f"{self.noise_threshold}")
        if self.policy not in TIER_POLICIES:
            raise ValueError(
                f"policy must be one of {TIER_POLICIES}, got "
                f"{self.policy!r}")
        if self.guard_band < 1.0:
            raise ValueError(
                f"guard_band must be >= 1.0 (it is a safety margin), "
                f"got {self.guard_band}")


@dataclass(frozen=True)
class TierDecision:
    """Where one net's screening settled, and why.

    ``tier`` is the tier that decided the net: 0 or 1 for a prune, 2
    for an escalation into the full analysis.  ``bound`` is always the
    tier-0 closed-form figure; ``estimate`` the tier-1 figure when that
    tier ran (``None`` otherwise).  Both are conservative
    over-approximations of the tier-2 composite pulse height.
    """

    net_name: str
    tier: int
    bound: float
    estimate: float | None
    pruned: bool
    reason: str
    seconds: float

    @property
    def figure(self) -> float:
        """The tightest screening figure available for this net: both
        figures are conservative, so their minimum is too.  Tier 1 runs
        only when ``bound >= threshold``, so this never moves a
        decision."""
        return (self.bound if self.estimate is None
                else min(self.bound, self.estimate))

    def to_dict(self) -> dict:
        return {"net_name": self.net_name, "tier": self.tier,
                "bound": self.bound, "estimate": self.estimate,
                "pruned": self.pruned, "reason": self.reason,
                "seconds": self.seconds}


@dataclass
class ScreeningStats:
    """Per-tier accounting of one tiered screen."""

    total: int = 0
    #: Final tier per net: {0: pruned-by-bound, 1: pruned-by-estimate,
    #: 2: escalated}.
    by_tier: dict[int, int] = field(
        default_factory=lambda: {0: 0, 1: 0, 2: 0})
    #: Wall seconds spent inside each tier's evaluation (tier 2 is the
    #: pool's analysis wall time, filled in by the orchestrator).
    seconds_by_tier: dict[int, float] = field(
        default_factory=lambda: {0: 0.0, 1: 0.0, 2: 0.0})
    #: Escalation/prune reason -> count (the manifest's audit trail).
    reasons: dict[str, int] = field(default_factory=dict)

    @property
    def pruned(self) -> int:
        return self.by_tier[0] + self.by_tier[1]

    @property
    def escalated(self) -> int:
        return self.by_tier[2]

    @property
    def pruned_fraction(self) -> float:
        return self.pruned / self.total if self.total else 0.0

    def record(self, decision: TierDecision) -> None:
        self.total += 1
        self.by_tier[decision.tier] += 1
        self.reasons[decision.reason] = \
            self.reasons.get(decision.reason, 0) + 1

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "by_tier": {str(k): v for k, v in self.by_tier.items()},
            "seconds_by_tier": {str(k): v for k, v
                                in self.seconds_by_tier.items()},
            "pruned": self.pruned,
            "escalated": self.escalated,
            "pruned_fraction": self.pruned_fraction,
            "reasons": dict(self.reasons),
        }


# ----------------------------------------------------------------------
# Tier 0: closed-form charge-divider bound
# ----------------------------------------------------------------------
def tier0_bound(net: CoupledNet) -> float:
    """Provably conservative closed-form peak-noise bound (volts).

    Worst-case charge sharing: every aggressor steps instantaneously by
    the full supply and the victim driver holds nothing, so the whole
    coupled charge divides over the victim's capacitance::

        V_peak <= vdd * sum(Cc) / (sum(Cc) + Cg)

    ``Cc`` sums the victim's coupling capacitance to *any* aggressor
    (from the memoized :func:`~repro.core.filtering.partition_nodes`
    topology partition); ``Cg`` counts only the sinks guaranteed to
    participate — the victim wire's grounded capacitance and the
    receiver input capacitance.  Driver diffusion capacitance and
    victim-internal coupling are excluded: leaving charge sinks *out*
    can only raise the bound, never lower it.
    """
    assignment = partition_nodes(net)
    coupling = 0.0
    grounded = 0.0
    for cap in net.interconnect.capacitors:
        own1 = assignment.get(cap.node1)
        own2 = assignment.get(cap.node2)
        victim1 = own1 == "victim"
        victim2 = own2 == "victim"
        if victim1 and victim2:
            continue  # victim-internal: both plates ride together
        if victim1 or victim2:
            other = own2 if victim1 else own1
            if other is None:
                grounded += cap.capacitance
            else:
                coupling += cap.capacitance
    grounded += net.receiver.input_capacitance()
    total = coupling + grounded
    if total <= 0.0:
        return 0.0
    return net.vdd * coupling / total


# ----------------------------------------------------------------------
# Tier 1: reduced-order linear estimate
# ----------------------------------------------------------------------
def _victim_holding_resistance(net: CoupledNet) -> float:
    """Upper bound on the victim's holding resistance during the noise.

    The crude saturation-current estimate of the *stronger* direction
    would under-hold; the weaker of pull-up/pull-down, scaled by
    :data:`VICTIM_R_SCALE`, bounds the transient holding resistance Rtr
    from above.  More holding resistance means more noise, so this errs
    high.
    """
    gate = net.victim_driver.gate
    return VICTIM_R_SCALE * max(gate.drive_resistance_estimate(True),
                       gate.drive_resistance_estimate(False))


def tier1_estimate(net: CoupledNet, *,
                   config: ScreeningConfig | None = None) -> float:
    """Reduced-order linear over-estimate of the composite pulse height.

    Builds one passive circuit per aggressor — the full interconnect,
    the receiver input capacitance, the scaled victim holding resistor,
    near-floating anchors on the quiet aggressor roots, and an ideal
    full-swing ramp source on the active aggressor — PRIMA-reduces it
    observing the receiver node, and simulates the reduced system over
    the aggressor's switching window (sparse, through SuperLU, at
    extracted scale).  Returns ``guard_band`` times the sum of the
    per-aggressor peak magnitudes (the alignment-free upper bound on
    the composite peak).
    """
    config = config or ScreeningConfig(noise_threshold=net.vdd)
    if not net.aggressors:
        return 0.0
    vdd = net.vdd
    r_hold = _victim_holding_resistance(net)

    base = net.interconnect.copy(f"{net.name}_tier1")
    base.add_capacitor("__rcv_cin", net.victim_receiver_node, GROUND,
                       net.receiver.input_capacitance())
    base.add_resistor("__hold_victim", net.victim_root, GROUND, r_hold)

    # Horizon: the victim-side RC time constant under the pessimistic
    # holder bounds how long the pulse can keep growing after the
    # aggressor ramp ends.
    victim_c = sum(c.capacitance for c in base.capacitors)
    tau = r_hold * victim_c

    deflate = False
    try:
        _fire_fault("screening.estimate", net.name)
    except InjectedCorruption:
        # Chaos hook: silently deflate the estimate so the guard-band
        # audit (not this function) must catch the unsound prune.
        deflate = True
        metrics().counter("screening.estimate_corrupted").inc()

    total = 0.0
    for agg in net.aggressors:
        circuit = base.copy(f"{net.name}_tier1_{agg.name}")
        for other in net.aggressors:
            if other.name != agg.name:
                circuit.add_resistor(f"__anchor_{other.name}",
                                     other.root, GROUND,
                                     _ANCHOR_RESISTANCE)
        slew = max(agg.driver.input_slew, 1e-12)
        # Norton drive: a near-ideal ramp through a tiny source
        # resistor.  An ideal voltage source would stamp skew branch
        # rows into G, voiding PRIMA's passivity guarantee (the reduced
        # model can then pick up unstable poles); a current-source
        # input keeps G symmetric positive-definite, so the projection
        # stays provably stable.  The reduced simulation takes the
        # input as sample values — the stimulus bound here is never
        # evaluated, only the stamp matters.
        circuit.add_resistor("__src", agg.root, GROUND,
                             _SOURCE_RESISTANCE)
        circuit.add_isource("__agg", GROUND, agg.root, 0.0)
        mna = build_mna(circuit)
        model = ReducedModel.from_mna(mna, [net.victim_receiver_node],
                                      min(TIER1_ORDER, mna.dim))
        t_stop = slew + 6.0 * max(tau, 0.05 * NS)
        times = np.linspace(0.0, t_stop, _TIER1_STEPS + 1)
        inputs = (np.clip(times / slew, 0.0, 1.0)[None, :] * vdd
                  / _SOURCE_RESISTANCE)
        out = model.simulate(times, inputs)[net.victim_receiver_node]
        total += float(np.max(np.abs(out.values)))

    estimate = config.guard_band * total
    if deflate:
        estimate *= 0.1
    return estimate


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def triage(nets: list[CoupledNet], config: ScreeningConfig,
           ) -> tuple[list[TierDecision], ScreeningStats]:
    """Run tiers 0/1 over a population and decide each net's fate.

    Tier 2 itself is *not* run here — the decisions carry a ``tier``
    label per net and the caller dispatches escalated nets through the
    execution pool (see :func:`screen_population`).
    """
    stats = ScreeningStats()
    decisions: list[TierDecision] = []
    threshold = config.noise_threshold
    tier0_count = metrics().counter("screening.tier0.evaluated")
    tier1_count = metrics().counter("screening.tier1.evaluated")
    for net in nets:
        start = time.perf_counter()
        bound = tier0_bound(net)
        t0 = time.perf_counter() - start
        stats.seconds_by_tier[0] += t0
        tier0_count.inc()

        if config.policy == "full":
            decision = TierDecision(net.name, 2, bound, None, False,
                                    "policy-full", t0)
        elif bound < threshold:
            decision = TierDecision(net.name, 0, bound, None, True,
                                    "bound-below-threshold", t0)
        elif config.policy == "bound-only":
            decision = TierDecision(net.name, 2, bound, None, False,
                                    "bound-above-threshold", t0)
        else:
            t1_start = time.perf_counter()
            with span("screening.tier1", net=net.name):
                estimate = tier1_estimate(net, config=config)
            t1 = time.perf_counter() - t1_start
            stats.seconds_by_tier[1] += t1
            tier1_count.inc()
            if estimate < threshold:
                decision = TierDecision(
                    net.name, 1, bound, estimate, True,
                    "estimate-below-threshold", t0 + t1)
            else:
                decision = TierDecision(
                    net.name, 2, bound, estimate, False,
                    "estimate-above-threshold", t0 + t1)
        stats.record(decision)
        metrics().counter(
            f"screening.settled.tier{decision.tier}").inc()
        decisions.append(decision)
    log.info("triage: %d nets -> %d pruned (tier 0: %d, tier 1: %d), "
             "%d escalated", stats.total, stats.pruned,
             stats.by_tier[0], stats.by_tier[1], stats.escalated)
    return decisions, stats


@dataclass
class ScreeningResult:
    """One tiered screen end to end: decisions, accounting, reports."""

    decisions: list[TierDecision]
    stats: ScreeningStats
    #: :class:`repro.exec.pool.ExecResult` of the tier-2 pass (pruned
    #: nets have ``reports[i] is None`` with no recorded failure).
    exec_result: object

    def decision_for(self, net_name: str) -> TierDecision:
        for decision in self.decisions:
            if decision.net_name == net_name:
                return decision
        raise KeyError(f"no screening decision for {net_name!r}")

    def to_dict(self) -> dict:
        """The run manifest's ``screening`` block."""
        return self.stats.to_dict()


def screen_population(nets: list[CoupledNet], config: ScreeningConfig,
                      *, analyzer=None, jobs: int = 1,
                      analyze_kwargs: dict | None = None,
                      **pool_kwargs) -> ScreeningResult:
    """Triage a population, then run tier 2 on the escalated nets.

    ``pool_kwargs`` pass straight through to
    :func:`repro.exec.pool.analyze_nets` (checkpointing, heartbeats,
    watchdog...), as do ``analyze_kwargs`` (alignment method etc.); the
    tier labels make the pool skip dispatch — and warm non-linear
    state — for every pruned net.
    """
    # Imported lazily: exec/ layers above core/, and only this
    # orchestration entry point needs the pool.
    from repro.exec.pool import analyze_nets

    with span("screening.triage", nets=len(nets)):
        decisions, stats = triage(nets, config)
    labels = {d.net_name: d.tier for d in decisions}
    result = analyze_nets(nets, jobs=jobs, analyzer=analyzer,
                          tier_labels=labels,
                          **pool_kwargs, **dict(analyze_kwargs or {}))
    stats.seconds_by_tier[2] = result.stats.wall_time
    return ScreeningResult(decisions=decisions, stats=stats,
                           exec_result=result)


def audit_prunes(nets: list[CoupledNet],
                 decisions: list[TierDecision], *,
                 config: ScreeningConfig, analyzer=None,
                 rate: float = 0.05, seed: int = 0,
                 analyze_kwargs: dict | None = None) -> dict:
    """Re-run a sample of pruned nets through tier 2 and compare.

    The guard-band audit: each sampled pruned net gets the full
    analysis, and its composite pulse magnitude must land below the
    noise threshold — anything else is an *unsound prune* (counted in
    ``screening.unsound_prunes`` and returned under ``"unsound"``).
    ``rate >= 1.0`` checks every pruned net (the exhaustive soundness
    gate used by the tests); smaller rates take a seeded sample (the
    cheap continuous audit used by ``repro screen`` and the bench).
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    from repro.core.analysis import DelayNoiseAnalyzer

    analyzer = analyzer if analyzer is not None else DelayNoiseAnalyzer()
    by_name = {net.name: net for net in nets}
    pruned = [d for d in decisions if d.pruned]
    if rate >= 1.0 or not pruned:
        sample = list(pruned)
    else:
        rng = np.random.default_rng(seed)
        count = max(1, int(round(rate * len(pruned))))
        picks = rng.choice(len(pruned), size=min(count, len(pruned)),
                           replace=False)
        sample = [pruned[i] for i in sorted(picks)]

    kwargs = dict(analyze_kwargs or {})
    unsound: list[dict] = []
    unsound_counter = metrics().counter("screening.unsound_prunes")
    with span("screening.audit", checked=len(sample)):
        for decision in sample:
            report = analyzer.analyze(by_name[decision.net_name],
                                      tier_label=decision.tier,
                                      **kwargs)
            actual = abs(report.pulse_height)
            if actual >= config.noise_threshold:
                unsound_counter.inc()
                unsound.append({
                    "net": decision.net_name,
                    "pruned_at_tier": decision.tier,
                    "screening_figure": decision.figure,
                    "actual_pulse_height": actual,
                })
                log.error(
                    "UNSOUND PRUNE: %s pruned at tier %d with figure "
                    "%.4f V but tier 2 measures %.4f V (threshold "
                    "%.4f V)", decision.net_name, decision.tier,
                    decision.figure, actual, config.noise_threshold)
    return {
        "eligible": len(pruned),
        "checked": len(sample),
        "rate": rate,
        "unsound_prunes": len(unsound),
        "unsound": unsound,
        "ok": not unsound,
    }
