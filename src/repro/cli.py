"""Command-line interface.

Entry points mirroring the production workflow:

* ``repro characterize`` — build Thevenin and alignment tables for a set
  of cells and save them as a characterization database (JSON).
* ``repro analyze`` — run the delay-noise flow on a coupled net whose
  parasitics come from a SPICE-style netlist file.
* ``repro screen`` — sweep a seeded synthetic population and print the
  functional/delay-noise screening table; ``--trace``/``--metrics``
  export the run's telemetry, ``--checkpoint``/``--resume`` make long
  screens crash-safe (``--force-resume`` overrides the stale-config
  guard), ``--retries``/``--max-failures`` tune the worker-crash and
  circuit-breaker policies, ``--timeout`` bounds each net (a ``SIGALRM``
  timer serially, the parent's watchdog under ``--jobs``),
  ``--rss-budget-mb`` caps each worker's memory, and
  ``--audit-rate P`` re-runs a seeded sample of nets through the
  dense reference solve and fails on any mismatch.  ``--noise-threshold V``
  switches on the three-tier screen (closed-form bound, reduced-order
  estimate, full analysis — see ``repro.core.screening``): nets whose
  conservative bound stays below V are pruned without touching the
  nonlinear kernels, and ``--prune-audit-rate P`` re-checks a seeded
  sample of the prunes at tier 2, failing the run on any unsound one.
* ``repro trace summarize`` — per-stage time breakdown of a trace file.
* ``repro trace export --chrome`` — convert a trace to Chrome
  trace-event JSON for ``ui.perfetto.dev``.
* ``repro report`` — render a run manifest (``--manifest``) back into a
  human-readable summary.

``screen --manifest FILE`` writes a schema-versioned run manifest
(config, git revision, host, per-stage timings, resources, full metrics
snapshot); ``screen --progress`` renders a live per-net progress line
with throughput, ETA and straggler flags.

Performance is measured outside the program, by ``noisebench/run.py``
on the workloads that ``BENCHMARK.json`` declares.

All output goes through the ``repro`` logger hierarchy: ``-v`` adds
per-stage diagnostics, ``-q`` keeps only warnings.  Run ``python -m
repro <command> --help`` for the options of each.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.circuit.parser import parse_netlist, parse_value
from repro.core.analysis import DelayNoiseAnalyzer
from repro.core.functional import functional_noise
from repro.core.net import (
    AggressorSpec,
    CoupledNet,
    DriverSpec,
    ReceiverSpec,
)
from repro.core.precharacterize import build_alignment_table
from repro.core.superposition import SuperpositionEngine
from repro.gates.library import standard_cell
from repro.obs import (
    ProgressTracker,
    RunManifest,
    Tracer,
    atomic_write_json,
    configure_cli_logging,
    current_tracer,
    format_manifest,
    format_summary,
    get_logger,
    load_manifest,
    metrics,
    read_trace,
    set_tracer,
    write_chrome_trace,
)
from repro.obs.progress import progress_stream
from repro.units import PS
from repro.waveform.render import render_waveforms

__all__ = ["main", "build_parser"]

#: CLI output channel: INFO records are the program's stdout output,
#: DEBUG records appear with ``-v``, WARNING+ always.
out = get_logger("cli")


def _value(text: str) -> float:
    """SPICE-style engineering value (``200p``, ``10f``, ``1.2k``)."""
    try:
        return parse_value(text)
    except Exception as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _bounded(kind, low, *, strict: bool = False):
    """An argparse ``type=`` parsing ``kind`` and requiring ``value >=
    low`` (``value > low`` when ``strict``), so a bad value exits 2
    with a usage message instead of a traceback."""
    relation = ">" if strict else ">="

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {relation} {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Crosstalk delay-noise analysis (DAC 2001 "
                    "reproduction)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="per-stage diagnostics (repeatable)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="only warnings and errors (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser(
        "characterize",
        help="build Thevenin + alignment tables and save a database")
    p_char.add_argument("--cells", required=True,
                        help="comma-separated cell names, e.g. "
                             "INV_X1,INV_X2")
    p_char.add_argument("--slews", default="100p,200p,400p",
                        help="comma-separated input slews for Thevenin "
                             "tables")
    p_char.add_argument("--out", required=True,
                        help="output database path (JSON)")
    p_char.add_argument("--skip-alignment", action="store_true",
                        help="only build Thevenin tables")

    p_an = sub.add_parser(
        "analyze", help="analyze one coupled net from a netlist file")
    p_an.add_argument("netlist", help="SPICE-subset parasitic deck")
    p_an.add_argument("--victim-root", required=True)
    p_an.add_argument("--victim-receiver", required=True)
    p_an.add_argument("--victim-cell", default="INV_X1")
    p_an.add_argument("--victim-slew", type=_value, default=200e-12)
    p_an.add_argument("--victim-falling", action="store_true",
                      help="analyze a falling victim transition")
    p_an.add_argument("--receiver-cell", default="INV_X2")
    p_an.add_argument("--receiver-load", type=_value, default=10e-15)
    p_an.add_argument(
        "--aggressor", action="append", required=True, metavar="SPEC",
        help="name:root:far_end[:cell[:slew]] — repeat per aggressor")
    p_an.add_argument("--alignment", default="table",
                      choices=("table", "input-objective", "exhaustive"))
    p_an.add_argument("--no-rtr", action="store_true",
                      help="use the traditional Thevenin holding only")
    p_an.add_argument("--chardb",
                      help="characterization database to preload")
    p_an.add_argument("--save-chardb",
                      help="save the (possibly extended) database here")
    p_an.add_argument("--plot", action="store_true",
                      help="render the receiver-input waveforms")
    p_an.add_argument("--functional", action="store_true",
                      help="also run the static-victim functional check")

    p_scr = sub.add_parser(
        "screen", help="screen a synthetic population")
    p_scr.add_argument("--seed", type=int, default=1)
    p_scr.add_argument("--count", type=int, default=4)
    p_scr.add_argument("--preset",
                       choices=("default", "hp", "screening"),
                       default="default",
                       help="population flavour; 'screening' generates "
                            "the realistic mostly-quiet distribution "
                            "(log-uniform coupling) the tiered screen "
                            "is designed for")
    p_scr.add_argument("--noise-threshold", type=_value, default=None,
                       metavar="V",
                       help="enable tiered screening: nets whose "
                            "conservative closed-form bound (tier 0) "
                            "or reduced-order estimate (tier 1) stays "
                            "below this composite pulse height (volts, "
                            "e.g. 0.6) are pruned; only escalated nets "
                            "get the full Rtr/alignment analysis")
    p_scr.add_argument("--tier-policy",
                       choices=("auto", "bound-only", "full"),
                       default="auto",
                       help="tier progression under --noise-threshold: "
                            "auto = bound, then MOR estimate, then "
                            "full; bound-only skips the MOR tier; full "
                            "escalates every net (the exhaustive "
                            "baseline)")
    p_scr.add_argument("--guard-band", type=float, default=None,
                       metavar="G",
                       help="tier-1 safety multiplier on the "
                            "reduced-order estimate (default 1.25)")
    p_scr.add_argument("--prune-audit-rate", type=float, default=0.0,
                       metavar="P",
                       help="re-run a seeded fraction P of the pruned "
                            "nets through the full tier-2 analysis; a "
                            "pruned net measuring at/above the "
                            "threshold is an unsound prune and fails "
                            "the run (1.0 re-checks every prune)")
    p_scr.add_argument("--hold", action="store_true",
                       help="also report worst-case hold speed-up")
    p_scr.add_argument("--jobs", type=_bounded(int, 1), default=1,
                       help="worker processes for the per-net analysis "
                            "(workers warm-start from the parent's "
                            "characterization tables)")
    p_scr.add_argument("--timeout", type=_bounded(float, 0, strict=True),
                       default=None,
                       help="per-net wall-clock limit in seconds; an "
                            "overrunning net is reported as failed "
                            "instead of stalling the screen")
    p_scr.add_argument("--rss-budget-mb",
                       type=_bounded(float, 0, strict=True),
                       default=None, metavar="MB",
                       help="per-worker resident-set budget; a worker "
                            "over budget is recycled after the net it "
                            "finished")
    p_scr.add_argument("--retries", type=_bounded(int, 0), default=2,
                       help="isolated re-attempts for a net that "
                            "crashes its worker process before it is "
                            "recorded as a WorkerCrash failure")
    p_scr.add_argument("--max-failures", type=_bounded(float, 0),
                       default=None, metavar="N",
                       help="circuit breaker: abort once more than N "
                            "nets fail (N >= 1 is a count, 0 < N < 1 "
                            "a fraction of the population)")
    p_scr.add_argument("--checkpoint", metavar="FILE",
                       help="stream every completed net to an atomic "
                            "JSONL checkpoint file")
    p_scr.add_argument("--resume", action="store_true",
                       help="with --checkpoint: skip nets already in "
                            "the checkpoint and analyze the remainder")
    p_scr.add_argument("--force-resume", action="store_true",
                       help="resume even when the checkpoint was "
                            "written by a run with a different "
                            "configuration (run_hash mismatch)")
    p_scr.add_argument("--audit-rate", type=float, default=0.0,
                       metavar="P",
                       help="re-run a seeded random fraction P of the "
                            "screened nets through the dense reference "
                            "solve and fail on any mismatch beyond "
                            "tolerance (0 disables, 1.0 audits every "
                            "exact-quality net)")
    p_scr.add_argument("--inject", metavar="FILE",
                       help="fault-injection plan (JSON) for chaos "
                            "testing; see repro.resilience.faults")
    p_scr.add_argument("--trace", metavar="FILE",
                       help="write a JSONL span trace of the run "
                            "(inspect with 'repro trace summarize')")
    p_scr.add_argument("--metrics", metavar="FILE",
                       help="write the run's metrics registry as JSON")
    p_scr.add_argument("--manifest", metavar="FILE",
                       help="write a schema-versioned run manifest "
                            "(config, git rev, host, stage timings, "
                            "resources, metrics); render it back with "
                            "'repro report FILE'")
    p_scr.add_argument("--progress", action="store_true",
                       help="render a live per-net progress line on "
                            "stderr (done/total, nets/s, ETA, "
                            "straggler flags)")

    p_tr = sub.add_parser(
        "trace", help="inspect trace files produced by --trace")
    tr_sub = p_tr.add_subparsers(dest="trace_command", required=True)
    p_sum = tr_sub.add_parser(
        "summarize",
        help="per-stage time breakdown (count, total/self, p50/p95)")
    p_sum.add_argument("file", help="JSONL trace file")
    p_exp = tr_sub.add_parser(
        "export",
        help="convert a JSONL trace to another format")
    p_exp.add_argument("file", help="JSONL trace file")
    p_exp.add_argument("--chrome", required=True, metavar="OUT",
                       help="write Chrome trace-event JSON here (open "
                            "in ui.perfetto.dev or chrome://tracing)")

    p_rep = sub.add_parser(
        "report",
        help="render a run manifest written by --manifest")
    p_rep.add_argument("manifest", help="manifest JSON file")
    return parser


def _parse_aggressor(spec: str) -> dict:
    parts = spec.split(":")
    if len(parts) < 3:
        raise SystemExit(
            f"bad --aggressor {spec!r}: need name:root:far_end"
            f"[:cell[:slew]]")
    out = {"name": parts[0], "root": parts[1], "far_end": parts[2],
           "cell": "INV_X4", "slew": 120e-12}
    if len(parts) >= 4 and parts[3]:
        out["cell"] = parts[3]
    if len(parts) >= 5 and parts[4]:
        out["slew"] = parse_value(parts[4])
    return out


def _cmd_characterize(args) -> int:
    from repro.core.net import DriverSpec
    from repro.storage import save_characterization

    analyzer = DelayNoiseAnalyzer()
    cells = [c.strip() for c in args.cells.split(",") if c.strip()]
    slews = [parse_value(s.strip()) for s in args.slews.split(",")]
    for name in cells:
        gate = standard_cell(name)
        for slew in slews:
            for rising in (True, False):
                driver = DriverSpec(gate, slew, output_rising=rising)
                analyzer.cache.table_for(driver)
                out.info(f"thevenin: {name} slew={slew / PS:.0f}ps "
                         f"{'rising' if rising else 'falling'}")
        if not args.skip_alignment:
            for rising in (True, False):
                analyzer.register_table(
                    build_alignment_table(gate, victim_rising=rising))
                out.info(f"alignment: {name} victim "
                         f"{'rising' if rising else 'falling'}")
    save_characterization(args.out, analyzer)
    out.info(f"saved {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.storage import load_characterization, save_characterization

    with open(args.netlist) as handle:
        wires = parse_netlist(handle.read(), name=args.netlist)

    rising = not args.victim_falling
    aggressors = []
    for spec in args.aggressor:
        info = _parse_aggressor(spec)
        aggressors.append(AggressorSpec(
            name=info["name"],
            driver=DriverSpec(gate=standard_cell(info["cell"]),
                              input_slew=info["slew"],
                              output_rising=not rising,
                              input_start=0.2e-9),
            root=info["root"], far_end=info["far_end"]))

    net = CoupledNet(
        name=args.netlist,
        interconnect=wires,
        victim_root=args.victim_root,
        victim_receiver_node=args.victim_receiver,
        victim_driver=DriverSpec(gate=standard_cell(args.victim_cell),
                                 input_slew=args.victim_slew,
                                 output_rising=rising,
                                 input_start=0.2e-9),
        receiver=ReceiverSpec(gate=standard_cell(args.receiver_cell),
                              c_load=args.receiver_load),
        aggressors=aggressors,
    )

    analyzer = DelayNoiseAnalyzer()
    if args.chardb:
        load_characterization(args.chardb, analyzer)
        out.info(f"loaded characterization from {args.chardb}")

    report = analyzer.analyze(net, alignment=args.alignment,
                              use_rtr=not args.no_rtr)
    out.info(f"victim Ceff       : {report.ceff_victim * 1e15:8.1f} fF")
    out.info(f"victim Rth / Rtr  : {report.rth_victim:8.0f} / "
             f"{report.rtr:.0f} ohm")
    out.info(f"composite pulse   : {report.pulse_height:8.3f} V x "
             f"{report.pulse_width / PS:.0f} ps")
    out.info(f"worst peak time   : {report.peak_time * 1e9:8.3f} ns "
             f"({report.alignment_method})")
    out.info(f"extra delay input : {report.extra_delay_input / PS:8.1f} "
             f"ps")
    out.info(f"extra delay output: {report.extra_delay_output / PS:8.1f} "
             f"ps")
    out.info(f"  [Thevenin-only  : "
             f"{report.extra_delay_output_thevenin / PS:.1f} ps]")

    if args.functional:
        func = functional_noise(net, cache=analyzer.cache)
        verdict = "FAIL" if func.fails else "ok"
        out.info(f"functional noise  : {func.input_peak:8.3f} V in, "
                 f"{func.output_peak:.3f} V out -> {verdict}")

    if args.plot:
        out.info("")
        out.info(render_waveforms(
            {"noiseless": report.noiseless_input,
             "noisy": report.noisy_input},
            width=70, height=15))

    if args.save_chardb:
        save_characterization(args.save_chardb, analyzer)
        out.info(f"saved characterization to {args.save_chardb}")
    return 0


def _cmd_screen(args) -> int:
    from repro import trust
    from repro.bench.netgen import NetGenConfig, NetGenerator
    from repro.exec import TooManyFailures, analyze_nets
    from repro.resilience import FaultPlan, StaleCheckpoint, install_faults

    if args.trace:
        set_tracer(Tracer(enabled=True))
    if args.resume and not args.checkpoint:
        out.error("--resume requires --checkpoint")
        return 2
    if args.force_resume and not args.resume:
        out.error("--force-resume requires --resume")
        return 2
    if not 0.0 <= args.audit_rate <= 1.0:
        out.error(f"--audit-rate must be in [0, 1], got "
                  f"{args.audit_rate}")
        return 2
    if not 0.0 <= args.prune_audit_rate <= 1.0:
        out.error(f"--prune-audit-rate must be in [0, 1], got "
                  f"{args.prune_audit_rate}")
        return 2
    if args.noise_threshold is None and args.prune_audit_rate:
        out.error("--prune-audit-rate requires --noise-threshold")
        return 2
    if args.inject:
        install_faults(FaultPlan.from_file(args.inject))
        out.info(f"# fault injection active from {args.inject}")

    screening_cfg = None
    if args.noise_threshold is not None:
        from repro.core.screening import DEFAULT_GUARD_BAND, ScreeningConfig
        try:
            screening_cfg = ScreeningConfig(
                noise_threshold=args.noise_threshold,
                policy=args.tier_policy,
                guard_band=args.guard_band if args.guard_band is not None
                else DEFAULT_GUARD_BAND)
        except ValueError as exc:
            out.error(str(exc))
            return 2

    presets = {"hp": NetGenConfig.high_performance,
               "screening": NetGenConfig.screening}
    config = presets[args.preset]() if args.preset in presets else None
    generator = NetGenerator(seed=args.seed, config=config)
    analyzer = DelayNoiseAnalyzer()
    nets = generator.population(args.count)

    manifest = None
    if args.manifest:
        manifest = RunManifest("screen", config={
            "seed": args.seed, "count": args.count,
            "preset": args.preset, "jobs": args.jobs,
            "timeout": args.timeout, "retries": args.retries,
            "audit_rate": args.audit_rate,
            "rss_budget_mb": args.rss_budget_mb,
            "noise_threshold": args.noise_threshold,
            "tier_policy": args.tier_policy
            if screening_cfg else None,
            "guard_band": screening_cfg.guard_band
            if screening_cfg else None,
            "prune_audit_rate": args.prune_audit_rate,
        })
    tracker = None
    if args.progress or args.manifest:
        # Silent (stream=None) when only the manifest needs the final
        # distribution; live rendering only under --progress.
        tracker = ProgressTracker(
            len(nets),
            stream=progress_stream() if args.progress else None)

    rss_budget = int(args.rss_budget_mb * 2**20) \
        if args.rss_budget_mb is not None else None

    # Tiered screening: triage the population first so the pool can
    # prune tier-0/1-settled nets before any worker warms nonlinear
    # state for them.
    decisions_by_name = {}
    screen_stats = None
    tier_labels = None
    if screening_cfg is not None:
        from repro.core.screening import triage
        t_triage = time.perf_counter()
        decisions, screen_stats = triage(nets, screening_cfg)
        if manifest:
            manifest.add_stage("triage",
                               time.perf_counter() - t_triage)
        decisions_by_name = {d.net_name: d for d in decisions}
        tier_labels = {d.net_name: d.tier for d in decisions}

    # Delay-noise analysis fans out over worker processes (warm-started
    # from the parent's tables); the functional screen below reuses the
    # same warmed caches serially.
    try:
        result = analyze_nets(nets, jobs=args.jobs, analyzer=analyzer,
                              timeout=args.timeout, alignment="table",
                              tier_labels=tier_labels,
                              retries=args.retries,
                              max_failures=args.max_failures,
                              checkpoint=args.checkpoint,
                              resume=args.resume,
                              force_resume=args.force_resume,
                              rss_budget_bytes=rss_budget,
                              on_heartbeat=tracker.record
                              if tracker else None)
    except StaleCheckpoint as exc:
        if tracker:
            tracker.finish()
        out.error(f"stale checkpoint: {exc}")
        out.error("re-run with --force-resume to resume anyway, or "
                  "drop --resume to start fresh")
        return 2
    except TooManyFailures as exc:
        if tracker:
            tracker.finish()
        out.error(f"screen aborted: {exc}")
        if args.checkpoint:
            out.error(f"completed nets are in {args.checkpoint}; rerun "
                      f"with --resume after fixing the cause")
        if manifest:
            manifest.write(args.manifest,
                           progress=tracker.snapshot() if tracker
                           else None,
                           extra={"aborted": str(exc)})
            out.error(f"# wrote manifest to {args.manifest}")
        return 1
    if tracker:
        tracker.finish()
    failures = {f.net_name: f for f in result.failures}
    if manifest:
        manifest.add_stage("characterization", result.stats.warm_time)
        manifest.add_stage("analysis", result.stats.wall_time)
    t_func = time.perf_counter()

    header = ("net     aggr  func in/out (V)  func?   "
              "delay in/out (ps)   Rtr/Rth")
    if args.hold:
        header += "   hold speedup (ps)"
    out.info(header)
    violations = 0
    for net, report in zip(nets, result.reports):
        decision = decisions_by_name.get(net.name)
        if decision is not None and decision.pruned and report is None:
            # Pruned below the noise threshold at tier 0/1 — the whole
            # point is to skip the nonlinear engines here, so no
            # functional screen and no table row either (a 10k-net
            # screen would otherwise be 90% "pruned" lines).
            continue
        engine = SuperpositionEngine(net, cache=analyzer.cache)
        func = functional_noise(net, engine=engine)
        verdict = "FAIL" if func.fails else "ok"
        if report is None:
            out.info(f"{net.name:6s}  {len(net.aggressors):4d}  "
                     f"{func.input_peak:6.3f}/{func.output_peak:6.3f}  "
                     f"{verdict:5s}  analysis failed: "
                     f"{failures[net.name].error}")
            continue
        if (screening_cfg is not None and abs(report.pulse_height)
                >= screening_cfg.noise_threshold):
            violations += 1
        line = (f"{net.name:6s}  {len(net.aggressors):4d}  "
                f"{func.input_peak:6.3f}/{func.output_peak:6.3f}  "
                f"{verdict:5s}  "
                f"{report.extra_delay_input / PS:7.1f}/"
                f"{report.extra_delay_output / PS:7.1f}    "
                f"{report.rtr / report.rth_victim:5.2f}")
        if args.hold:
            from repro.core.hold import hold_speedup
            hold = hold_speedup(net, cache=analyzer.cache)
            line += f"   {hold.speedup_output / PS:10.1f}"
        if report.quality != "exact":
            stages = ",".join(sorted({d.stage
                                      for d in report.degradations}))
            line += f"   DEGRADED({stages})"
        out.info(line)
    if manifest:
        manifest.add_stage("functional-screen",
                           time.perf_counter() - t_func)

    stats = result.stats
    summary = (f"# {stats.nets} nets, {stats.failures} failed | "
               f"jobs={stats.jobs} | analysis {stats.wall_time:.2f} s "
               f"({stats.nets_per_second:.2f} nets/s) + "
               f"characterization {stats.warm_time:.2f} s | "
               f"table cache {stats.cache_hits} hits / "
               f"{stats.cache_misses} misses")
    if stats.failures_by_type:
        summary += " | failures: " + ", ".join(
            f"{name} x{count}"
            for name, count in sorted(stats.failures_by_type.items()))
    if stats.degraded:
        summary += (f" | {stats.degraded} degraded (conservative "
                    f"fallbacks in effect)")
    if stats.resumed:
        summary += f" | {stats.resumed} resumed from checkpoint"
    if stats.worker_crashes:
        summary += (f" | {stats.worker_crashes} worker crash(es), "
                    f"{stats.retries} retried")
    if stats.watchdog_kills:
        summary += f" | {stats.watchdog_kills} watchdog kill(s)"
    if stats.rss_flagged:
        summary += f" | {stats.rss_flagged} worker(s) over RSS budget"
    out.info(summary)

    prune_audit = None
    if screen_stats is not None:
        # The pool's wall time is the tier-2 cost; tiers 0/1 were timed
        # inside triage.
        screen_stats.seconds_by_tier[2] = stats.wall_time
        by_tier = screen_stats.by_tier
        secs = screen_stats.seconds_by_tier
        out.info(
            f"# screening: threshold "
            f"{screening_cfg.noise_threshold:.3f} V, policy "
            f"{screening_cfg.policy} | "
            f"t0 {by_tier[0]} ({secs[0]:.2f} s) / "
            f"t1 {by_tier[1]} ({secs[1]:.2f} s) / "
            f"t2 {by_tier[2]} ({secs[2]:.2f} s) | "
            f"{screen_stats.pruned} pruned "
            f"({100.0 * screen_stats.pruned_fraction:.1f}%), "
            f"{screen_stats.escalated} escalated, "
            f"{violations} above threshold")
        if args.prune_audit_rate:
            from repro.core.screening import audit_prunes
            t_audit = time.perf_counter()
            prune_audit = audit_prunes(
                nets, list(decisions_by_name.values()),
                config=screening_cfg, analyzer=analyzer,
                rate=args.prune_audit_rate, seed=args.seed,
                analyze_kwargs={"alignment": "table"})
            if manifest:
                manifest.add_stage("prune-audit",
                                   time.perf_counter() - t_audit)
            out.info(f"# prune audit: {prune_audit['checked']}/"
                     f"{prune_audit['eligible']} pruned net(s) re-run "
                     f"at tier 2, {prune_audit['unsound_prunes']} "
                     f"unsound")

    audit = None
    if args.audit_rate:
        reports_by_name = {net.name: report
                           for net, report in zip(nets, result.reports)}
        t_audit = time.perf_counter()
        audit = trust.run_audit(nets, reports_by_name, analyzer,
                                rate=args.audit_rate, seed=args.seed,
                                analyze_kwargs={"alignment": "table"})
        if manifest:
            manifest.add_stage("audit",
                               time.perf_counter() - t_audit)
        out.info(f"# audit: {audit['checked']}/{audit['eligible']} "
                 f"eligible net(s) re-run through the dense reference, "
                 f"{len(audit['mismatches'])} mismatch(es)")

    if args.trace:
        count = current_tracer().export_jsonl(args.trace)
        out.info(f"# wrote {count} spans to {args.trace}")
    if args.metrics:
        atomic_write_json(args.metrics, metrics().snapshot())
        out.info(f"# wrote metrics to {args.metrics}")
    if manifest:
        degraded_stages = sorted({d.stage for report in result.reports
                                  if report is not None
                                  for d in report.degradations})
        extra = {}
        if audit is not None:
            extra["audit"] = audit
        if screen_stats is not None:
            extra["screening"] = dict(screen_stats.to_dict(),
                                      violations=violations)
            if prune_audit is not None:
                extra["screening"]["audit"] = prune_audit
        manifest.write(
            args.manifest,
            failures=result.failures,
            degraded={"total": stats.degraded,
                      "stages": degraded_stages},
            progress=tracker.snapshot() if tracker else None,
            extra=extra or None)
        out.info(f"# wrote manifest to {args.manifest}")
    if audit is not None and not audit["ok"]:
        out.error(f"audit failed: {len(audit['mismatches'])} "
                  f"mismatch(es) against the dense reference")
        return 1
    if prune_audit is not None and not prune_audit["ok"]:
        out.error(f"prune audit failed: "
                  f"{prune_audit['unsound_prunes']} unsound prune(s) — "
                  f"a pruned net measured at/above the noise threshold")
        return 1
    return 0 if not failures else 1


def _cmd_trace(args) -> int:
    records = read_trace(args.file)
    if not records:
        out.warning(f"{args.file}: no spans")
        return 1
    if args.trace_command == "export":
        count = write_chrome_trace(args.chrome, records)
        out.info(f"# wrote {count} events to {args.chrome} "
                 f"(open in ui.perfetto.dev)")
        return 0
    out.info(format_summary(records))
    return 0


def _cmd_report(args) -> int:
    try:
        payload = load_manifest(args.manifest)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        out.error(f"cannot read manifest: {exc}")
        return 1
    out.info(format_manifest(payload))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        # Bare `repro`: show the help text, exit like a usage error.
        parser.print_help(sys.stderr)
        return 2
    args = parser.parse_args(argv)
    configure_cli_logging(verbose=args.verbose, quiet=args.quiet)
    handlers = {
        "characterize": _cmd_characterize,
        "analyze": _cmd_analyze,
        "screen": _cmd_screen,
        "trace": _cmd_trace,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
