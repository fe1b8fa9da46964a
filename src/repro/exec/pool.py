"""Parallel per-net analysis: a crash-safe process-pool map over nets.

The paper's flow is embarrassingly parallel across nets — every
:meth:`DelayNoiseAnalyzer.analyze` call is independent once the shared
characterization tables exist.  :func:`analyze_nets` exploits that:

* ``jobs=1`` runs serially in-process — no subprocess, no pickling, the
  exact code path a plain loop would take;
* ``jobs>1`` fans the nets out over a :class:`ProcessPoolExecutor`
  whose workers are *warm-started* from a characterization snapshot
  (see :mod:`repro.exec.snapshot`), so no worker ever re-runs a
  non-linear characterization simulation.

Results come back in input order regardless of completion order, and
serial/parallel runs produce bit-identical reports.  The run degrades
instead of dying:

* a net that raises becomes a structured :class:`NetFailure` record;
* each mode has one deadline.  Serially, the optional per-net
  wall-clock ``timeout`` is a ``SIGALRM`` timer around the analysis.
  In the pool, the parent's watchdog is the only deadline: each
  in-flight net's clock starts at submission, and at every poll a net
  older than ``timeout`` fails ``NetTimeout`` while one older than the
  tighter adaptive deadline (a multiple of the completed-net p95,
  clamped) fails ``WorkerHang``.  Either kills the pool and resubmits
  the innocent in-flight nets; everything already completed is safe
  in the checkpoint stream.  Workers arm no timer, so a hung
  warm-start is overdue exactly like a hung net;
* a worker-process death (``BrokenProcessPool``) makes every
  unresolved net a suspect, and suspects run one at a time in the
  same watched loop, so a crash is unambiguously the in-flight net's:
  after ``retries`` re-attempts with exponential backoff it becomes a
  ``NetFailure(error_type="WorkerCrash")`` while every other net
  still completes;
* a per-worker RSS budget recycles bloating workers;
* a ``max_failures`` circuit breaker aborts a run whose failure count
  (or fraction) shows something systemic rather than per-net;
* ``checkpoint=`` streams every completed net to an atomic JSONL file
  (:mod:`repro.resilience.checkpoint`) and ``resume=True`` skips the
  nets already recorded there — a killed run picks up where it
  stopped, bit-identically.  The checkpoint header carries a run-
  identity hash, so ``resume`` refuses a checkpoint written under a
  different configuration (``force_resume`` overrides).

:class:`ExecStats` reports throughput, cache traffic, wall time, and
the resilience traffic (crashes, retries, resumed nets).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.analysis import DelayNoiseAnalyzer, NoiseReport
from repro.core.net import CoupledNet
from repro.exec.snapshot import build_snapshot, restore_analyzer, warm_analyzer
from repro.obs import (
    Heartbeat,
    Tracer,
    current_tracer,
    get_logger,
    metrics,
    peak_rss_bytes,
    sample_resources,
    set_tracer,
)
from repro.obs.progress import AdaptiveDeadline, ProgressTracker
from repro.obs.resources import reset_sampler
from repro.resilience import (
    CheckpointWriter,
    FaultPlan,
    StaleCheckpoint,
    active_plan,
    fire,
    install_faults,
    load_checkpoint,
    load_checkpoint_header,
    mark_worker_process,
)
from repro.resilience.degradation import NetTimeout
from repro.storage import noise_report_from_dict, noise_report_to_dict

__all__ = ["NetFailure", "NetTimeout", "TooManyFailures", "ExecStats",
           "ExecResult", "analyze_nets"]

#: How often the parent-side watchdog wakes up to look for overdue or
#: over-budget workers while futures are outstanding.
_WATCHDOG_POLL_S = 0.25
#: Base of the exponential backoff between isolated re-attempts of a
#: net that crashed its worker: attempt *k* waits
#: ``RETRY_BACKOFF_S * 2**(k-1)`` seconds.
RETRY_BACKOFF_S = 0.1

log = get_logger("exec.pool")


class TooManyFailures(RuntimeError):
    """The ``max_failures`` circuit breaker tripped.

    Raised when the failure count/fraction shows the run is sick as a
    whole (bad snapshot, broken library, wrong deck) — finishing the
    remaining nets would only produce more failures.  Completed nets
    are already in the checkpoint (when one is configured), so a fixed
    run can ``resume`` from them.
    """


@dataclass(frozen=True)
class NetFailure:
    """One net's analysis failure, captured without killing the run."""

    net_name: str
    error: str        #: ``"ExceptionType: message"``
    traceback: str    #: full formatted traceback from the failing process
    error_type: str = ""  #: exception class name (``"NetTimeout"``, ...)

    def to_dict(self) -> dict:
        return {"net_name": self.net_name, "error": self.error,
                "traceback": self.traceback,
                "error_type": self.error_type}

    @classmethod
    def from_dict(cls, data: dict) -> "NetFailure":
        return cls(net_name=data["net_name"], error=data["error"],
                   traceback=data.get("traceback", ""),
                   error_type=data.get("error_type", ""))


@dataclass
class ExecStats:
    """Throughput and cache accounting for one :func:`analyze_nets` run.

    ``cache_hits``/``cache_misses`` aggregate Thevenin *and* alignment
    table traffic across all processes.  A warm-started worker should
    show zero misses; a non-zero count means characterization ran inside
    a worker — visible here instead of silently slow.
    """

    jobs: int
    nets: int = 0
    failures: int = 0
    wall_time: float = 0.0
    warm_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Exception class name -> count, so a summary can tell timeouts
    #: (``NetTimeout``) from solver failures (``ConvergenceError``) at
    #: a glance.
    failures_by_type: dict[str, int] = field(default_factory=dict)
    #: Nets answered from the resume checkpoint instead of analyzed.
    resumed: int = 0
    #: Worker-pool rebuilds after a worker process died.
    worker_crashes: int = 0
    #: Isolated re-submissions of nets suspected in a crash.
    retries: int = 0
    #: Nets whose reports carry ``quality="degraded"``.
    degraded: int = 0
    #: Peak resident-set size (bytes) over every participating process
    #: (serial: this one; jobs>1: the max across the workers).
    peak_rss_bytes: int = 0
    #: In-flight nets killed by the parent-side watchdog
    #: (``NetTimeout`` or ``WorkerHang``).
    watchdog_kills: int = 0
    #: Heartbeats that exceeded the per-worker RSS budget.
    rss_flagged: int = 0
    #: Nets pruned by the tiered screen (``tier_labels`` < 2): never
    #: dispatched, never warmed, no report and no failure.
    pruned: int = 0
    #: Pruned-net tally per screening tier (0 and 1 only).
    pruned_by_tier: dict[int, int] = field(default_factory=dict)

    @property
    def nets_per_second(self) -> float:
        if self.wall_time <= 0.0:
            return 0.0
        return self.nets / self.wall_time


@dataclass
class ExecResult:
    """Outcome of :func:`analyze_nets`, in input-net order.

    ``reports[i]`` corresponds to ``nets[i]``; it is ``None`` when that
    net produced a :class:`NetFailure` (failures are also listed in
    input order) — or, in a tiered screening run, when the net was
    *pruned* (``tier_labels`` < 2): pruned nets carry neither report
    nor failure, which :meth:`analyzed` distinguishes.
    """

    reports: list[NoiseReport | None]
    failures: list[NetFailure] = field(default_factory=list)
    stats: ExecStats = field(default_factory=lambda: ExecStats(jobs=1))

    @property
    def ok(self) -> bool:
        return not self.failures

    def analyzed(self, net_name: str) -> bool:
        """False when the tiered screen pruned this net (no report,
        no failure — by design, not by accident)."""
        reports, failures = self._index()
        return net_name in reports or net_name in failures

    def _index(self) -> tuple[dict, dict]:
        """O(1) name lookup tables, built once on first use."""
        cached = self.__dict__.get("_by_name")
        if cached is None:
            reports = {r.net_name: r for r in self.reports
                       if r is not None}
            failures = {f.net_name: f for f in self.failures}
            cached = (reports, failures)
            self.__dict__["_by_name"] = cached
        return cached

    def report(self, net_name: str) -> NoiseReport:
        """The report for one net, by name (constant-time)."""
        reports, failures = self._index()
        found = reports.get(net_name)
        if found is not None:
            return found
        failure = failures.get(net_name)
        if failure is not None:
            raise KeyError(f"net {net_name!r} failed: {failure.error}")
        raise KeyError(f"no net named {net_name!r} in this run")

    def raise_on_failure(self) -> None:
        """Raise ``RuntimeError`` summarizing failures, if there are any."""
        if not self.failures:
            return
        lines = [f"  {f.net_name}: {f.error}" for f in self.failures]
        raise RuntimeError(
            f"{len(self.failures)} of {self.stats.nets} nets failed:\n"
            + "\n".join(lines))


# ----------------------------------------------------------------------
# Per-net execution (shared by the serial path and the workers)
# ----------------------------------------------------------------------
@contextmanager
def _time_limit(seconds: float | None):
    """Raise :class:`NetTimeout` if the body runs longer than ``seconds``.

    The serial path's deadline (pool workers arm none: the parent's
    watchdog times them).  Implemented with ``SIGALRM``/``setitimer``,
    which only works in a main thread; elsewhere the limit is skipped
    rather than mis-armed.  A pending
    outer ``ITIMER_REAL`` is captured from ``setitimer``'s return value
    and re-armed with its remaining time on exit, so nested limits
    leave the outer deadline ticking instead of silently disarming it.
    """
    if seconds is None or \
            threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_alarm(signum, frame):
        raise NetTimeout(f"net analysis exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    old_delay, old_interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    armed_at = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if old_delay > 0.0:
            remaining = old_delay - (time.monotonic() - armed_at)
            # The outer deadline may already have lapsed while we held
            # the timer; re-arm minimally so it still fires.
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-6),
                             old_interval)


def _cache_counters(analyzer: DelayNoiseAnalyzer) -> tuple[int, int]:
    return (analyzer.cache.hits + analyzer.table_hits,
            analyzer.cache.misses + analyzer.table_misses)


def _analyze_one(analyzer: DelayNoiseAnalyzer, net: CoupledNet,
                 timeout: float | None, analyze_kwargs: dict
                 ) -> tuple[NoiseReport | None, NetFailure | None]:
    try:
        with _time_limit(timeout):
            # In a worker a "crash" fault kills the process here; in
            # the serial path it raises WorkerCrash into the except
            # below, so jobs=1 classifies the net identically.
            fire("exec.worker", net.name)
            return analyzer.analyze(net, **analyze_kwargs), None
    except Exception as exc:
        log.debug("net %s failed: %s: %s", net.name,
                  type(exc).__name__, exc)
        return None, NetFailure(
            net_name=net.name,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
            error_type=type(exc).__name__)


# ----------------------------------------------------------------------
# Worker protocol
# ----------------------------------------------------------------------
# Populated once per worker process by the pool initializer; workers then
# analyze any number of nets against the same warm analyzer.
_WORKER_STATE: dict = {}


def _worker_init(snapshot: dict, analyze_kwargs: dict, trace: bool,
                 fault_plan: FaultPlan | None) -> None:
    # Workers may be forked, inheriting the parent's tracer buffer and
    # metric values — start both from scratch so per-net drains report
    # only this worker's activity (the parent merges them back).
    set_tracer(Tracer(enabled=trace))
    mark_worker_process()
    if fault_plan is not None:
        # A fresh copy per worker: fire counters are per-process.
        install_faults(fault_plan)
    # A failed warm-start is *captured*, not raised — an initializer
    # exception would break the pool and be misattributed to whatever
    # nets were in flight; instead every net handed to this worker
    # returns a structured failure naming the init problem.  A hung
    # one needs no timer here: the parent's watchdog clock for a net
    # starts at submission, so the net it holds up goes overdue.
    _WORKER_STATE.pop("init_error", None)
    _WORKER_STATE.pop("analyzer", None)
    try:
        fire("exec.worker_init", "init")
        _WORKER_STATE["analyzer"] = restore_analyzer(snapshot)
    except Exception as exc:
        _WORKER_STATE["init_error"] = (
            type(exc).__name__,
            f"worker warm-start failed: {exc}")
    metrics().reset()
    # Forked workers inherit the parent's CPU baseline; re-prime so the
    # first net's resource deltas are this worker's own.
    reset_sampler()
    sample_resources()
    _WORKER_STATE["analyze_kwargs"] = analyze_kwargs


def _worker_run(net: CoupledNet):
    """Analyze one net and ship its telemetry back with the result.

    Alongside the report/failure the worker returns its cache-counter
    deltas, a drained metrics snapshot, its drained span buffer and a
    :class:`Heartbeat`, so the parent can merge a ``jobs=N`` run's
    telemetry into the same registry/trace a serial run would have
    produced and render live progress as nets complete.
    """
    init_error = _WORKER_STATE.get("init_error")
    if init_error is not None:
        error_type, message = init_error
        sample_resources()
        heartbeat = Heartbeat(net=net.name, seconds=0.0,
                              rss_bytes=peak_rss_bytes(),
                              pid=os.getpid(), failed=True)
        return (None,
                NetFailure(net_name=net.name,
                           error=f"{error_type}: {message}",
                           traceback="", error_type=error_type),
                0, 0, metrics().drain(), current_tracer().drain(),
                heartbeat)
    analyzer = _WORKER_STATE["analyzer"]
    hits0, misses0 = _cache_counters(analyzer)
    t0 = time.perf_counter()
    report, failure = _analyze_one(
        analyzer, net, None, _WORKER_STATE["analyze_kwargs"])
    seconds = time.perf_counter() - t0
    hits1, misses1 = _cache_counters(analyzer)
    # Sample *before* the drain so the resource instruments ride the
    # snapshot back to the parent registry.
    sample_resources()
    heartbeat = Heartbeat(net=net.name, seconds=seconds,
                          rss_bytes=peak_rss_bytes(), pid=os.getpid(),
                          failed=failure is not None)
    return (report, failure, hits1 - hits0, misses1 - misses0,
            metrics().drain(), current_tracer().drain(), heartbeat)


# ----------------------------------------------------------------------
# Checkpoint codecs (NetFailure lives here, NoiseReport in repro.storage)
# ----------------------------------------------------------------------
def _decode_checkpoint_record(record: dict
                              ) -> tuple[NoiseReport | None,
                                         NetFailure | None]:
    if record["kind"] == "report":
        return noise_report_from_dict(record["data"]), None
    return None, NetFailure.from_dict(record["data"])


def _run_identity(nets, analyze_kwargs: dict,
                  tier_labels: dict[str, int] | None = None) -> str:
    """Digest of everything that shapes this run's numerical results.

    Stamped into the checkpoint header so ``resume`` can refuse a
    checkpoint written under a different configuration (net population,
    driver/receiver specs, analysis knobs) — mixing results across
    configurations would silently break the "resumed == uninterrupted"
    bit-identity guarantee.  Gate internals are represented by cell
    name: a changed cell library is out of scope (and out of reach) for
    a cheap digest.
    """
    def driver(spec):
        return {"gate": spec.gate.name, "slew": spec.input_slew,
                "rising": spec.output_rising, "start": spec.input_start,
                "pin": spec.switching_pin}

    payload = {
        "nets": [{
            "name": net.name,
            "victim_root": net.victim_root,
            "receiver_node": net.victim_receiver_node,
            "driver": driver(net.victim_driver),
            "receiver": {"gate": net.receiver.gate.name,
                         "c_load": net.receiver.c_load,
                         "pin": net.receiver.input_pin},
            "aggressors": [{"name": a.name, "root": a.root,
                            "far_end": a.far_end,
                            "window": list(a.window) if a.window else None,
                            "driver": driver(a.driver)}
                           for a in net.aggressors],
        } for net in nets],
        "analyze_kwargs": {k: repr(v) for k, v in
                           sorted(analyze_kwargs.items())},
    }
    if tier_labels is not None:
        # Only stamped when screening is active, so checkpoints from
        # pre-screening runs keep their hashes.  Labels shape which
        # nets have reports at all, so a different threshold/policy
        # must read as a different run.
        payload["tier_labels"] = dict(sorted(tier_labels.items()))
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


class _Breaker:
    """The ``max_failures`` circuit breaker.

    ``max_failures`` is an absolute count when >= 1 and a fraction of
    the net population when in (0, 1); ``None`` disables the breaker.
    The breaker trips when the failure tally *exceeds* the threshold.
    """

    def __init__(self, max_failures: int | float | None, total: int):
        self.total = total
        self.threshold: float | None = None
        if max_failures is not None:
            if max_failures < 0:
                raise ValueError(
                    f"max_failures must be >= 0, got {max_failures}")
            if 0 < max_failures < 1:
                self.threshold = max_failures * total
            else:
                self.threshold = float(max_failures)
        self.failures = 0

    def record(self, failure: NetFailure) -> None:
        self.failures += 1
        if self.threshold is not None and self.failures > self.threshold:
            metrics().counter("exec.breaker_tripped").inc()
            raise TooManyFailures(
                f"aborting after {self.failures} of {self.total} nets "
                f"failed (max_failures={self.threshold:g}); last: "
                f"{failure.net_name}: {failure.error}")


# ----------------------------------------------------------------------
# The map
# ----------------------------------------------------------------------
def analyze_nets(nets, *, jobs: int = 1,
                 analyzer: DelayNoiseAnalyzer | None = None,
                 timeout: float | None = None,
                 retries: int = 2,
                 max_failures: int | float | None = None,
                 checkpoint=None,
                 resume: bool = False,
                 force_resume: bool = False,
                 on_heartbeat=None,
                 rss_budget_bytes: int | None = None,
                 tier_labels: dict[str, int] | None = None,
                 **analyze_kwargs) -> ExecResult:
    """Analyze every net, optionally across ``jobs`` worker processes.

    Parameters
    ----------
    nets:
        The coupled nets to analyze (any iterable; order is preserved in
        the result).  Net names must be unique — duplicates would make
        per-name lookups, checkpoints and resume ambiguous.
    jobs:
        Worker processes.  1 (the default) runs serially in-process with
        no subprocess overhead.
    analyzer:
        The parent analyzer whose characterization caches seed the
        workers (created fresh if omitted).  Every table the nets need
        is pre-built in it before mapping, so it stays hot for
        follow-up work.
    timeout:
        Optional per-net wall-clock limit in seconds (must be > 0); an
        overrunning net becomes a :class:`NetFailure` with a
        :class:`NetTimeout` error.  Serially a ``SIGALRM`` timer
        enforces it; with ``jobs>1`` the parent's watchdog does,
        counting from the net's submission and recycling the pool.
        The watchdog also fails a net older than the adaptive hang
        deadline (a multiple of the completed-net p95, clamped) as a
        ``WorkerHang``, whether or not ``timeout`` is set.
    retries:
        Isolated re-attempts granted to a net suspected of crashing its
        worker before it is recorded as a ``WorkerCrash`` failure
        (attempt *k* waits ``RETRY_BACKOFF_S * 2**(k-1)`` first).
    max_failures:
        Circuit breaker: abort with :class:`TooManyFailures` when the
        failure tally exceeds this count (>= 1) or fraction of the
        population ((0, 1)).  ``None`` (default) disables the breaker.
    checkpoint:
        Path of an atomic JSONL checkpoint streaming every completed
        net (report or failure) as it finishes.
    resume:
        With ``checkpoint``, load the nets already recorded there and
        analyze only the remainder; the combined result is bit-identical
        to an uninterrupted run.  The checkpoint's header ``run_hash``
        must match this run's identity (nets, specs, analyzer config) —
        a mismatch raises :class:`~repro.resilience.StaleCheckpoint`.
    force_resume:
        Resume even when the checkpoint's ``run_hash`` does not match —
        for operators who know the config change is benign.  The mixed
        provenance is logged and counted (``exec.force_resumed``).
    rss_budget_bytes:
        Per-worker resident-set budget (``jobs>1``).  A worker whose
        heartbeat exceeds it is terminated (pool recycled); the net it
        finished keeps its result.
    on_heartbeat:
        Optional callable invoked with a :class:`repro.obs.Heartbeat`
        as each net completes (in completion order, not input order) —
        the hook live progress rendering hangs off
        (:class:`repro.obs.ProgressTracker.record`).
    tier_labels:
        Screening-tier label per net name (0/1/2; missing names default
        to 2), as produced by :func:`repro.core.screening.triage`.
        Nets labelled below 2 were *pruned* by the tiered screen: they
        are never dispatched and never warmed — the whole point of the
        screen is that workers skip the non-linear characterization
        state for them — and finish with neither report nor failure.
        Each still emits one tier-tagged heartbeat so live progress and
        the manifest count it.  When set, the labels join the
        checkpoint run-identity hash (a different threshold or policy
        produces a different prune set, so its checkpoints must not
        cross-resume).
    **analyze_kwargs:
        Forwarded to :meth:`DelayNoiseAnalyzer.analyze` (``alignment``,
        ``use_rtr``, ...).
    """
    nets = list(nets)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and not timeout > 0:
        raise ValueError(f"timeout must be > 0 s, got {timeout}")
    names = [net.name for net in nets]
    if len(set(names)) != len(names):
        seen: set[str] = set()
        dupes = sorted({n for n in names if n in seen or seen.add(n)})
        raise ValueError(
            f"net names must be unique (duplicated: {', '.join(dupes)})")
    if tier_labels is not None:
        unknown = sorted(set(tier_labels) - set(names))
        if unknown:
            raise ValueError(
                f"tier_labels name unknown nets: {', '.join(unknown)}")
        bad = sorted({v for v in tier_labels.values()
                      if v not in (0, 1, 2)})
        if bad:
            raise ValueError(f"tier labels must be 0, 1 or 2, got {bad}")
    if analyzer is None:
        analyzer = DelayNoiseAnalyzer()

    stats = ExecStats(jobs=jobs, nets=len(nets))
    reports: list[NoiseReport | None] = [None] * len(nets)
    failures_at: list[NetFailure | None] = [None] * len(nets)
    breaker = _Breaker(max_failures, len(nets))

    # Resume: answer already-checkpointed nets from disk.
    writer: CheckpointWriter | None = None
    todo = list(range(len(nets)))
    if checkpoint is not None:
        run_hash = _run_identity(nets, analyze_kwargs, tier_labels)
        if resume:
            header = load_checkpoint_header(checkpoint)
            stored_hash = None if header is None else \
                header.get("run_hash")
            if stored_hash is not None and stored_hash != run_hash:
                if not force_resume:
                    raise StaleCheckpoint(
                        f"checkpoint {checkpoint} was written by a run "
                        f"with a different configuration (run_hash "
                        f"{stored_hash[:12]}… vs {run_hash[:12]}…); "
                        "its reports would not be bit-identical to "
                        "this run's.  Re-run without resume, or pass "
                        "force_resume=True (--force-resume) to mix "
                        "them anyway.")
                metrics().counter("exec.force_resumed").inc()
                log.warning(
                    "resuming from %s DESPITE a run_hash mismatch "
                    "(%s… vs %s…): resumed reports were computed "
                    "under a different configuration", checkpoint,
                    stored_hash[:12], run_hash[:12])
            recorded = load_checkpoint(checkpoint)
            remaining = []
            for i, name in enumerate(names):
                record = recorded.get(name)
                if record is None:
                    remaining.append(i)
                    continue
                reports[i], failures_at[i] = \
                    _decode_checkpoint_record(record)
                stats.resumed += 1
            todo = remaining
            metrics().counter("exec.resumed").inc(stats.resumed)
            log.debug("resumed %d net(s) from %s; %d remaining",
                      stats.resumed, checkpoint, len(todo))
        writer = CheckpointWriter(checkpoint, resume=resume,
                                  header={"run_hash": run_hash})

    # Tiered screening: pruned nets leave the todo list here — before
    # warm-up, before dispatch — so neither the parent nor any worker
    # spends a single non-linear simulation on them.  Applied after
    # resume so force-resumed reports (if any) win over a prune.
    if tier_labels is not None:
        pruned = [i for i in todo if tier_labels.get(names[i], 2) < 2]
        if pruned:
            pruned_set = set(pruned)
            todo = [i for i in todo if i not in pruned_set]
            stats.pruned = len(pruned)
            for i in pruned:
                label = tier_labels[names[i]]
                stats.pruned_by_tier[label] = \
                    stats.pruned_by_tier.get(label, 0) + 1
                if on_heartbeat is not None:
                    on_heartbeat(Heartbeat(net=names[i], seconds=0.0,
                                           rss_bytes=0, pid=os.getpid(),
                                           tier=label))
            metrics().counter("exec.pruned").inc(len(pruned))
            log.debug("tiered screen pruned %d of %d nets before "
                      "dispatch", len(pruned), len(nets))

    def record_outcome(i: int, report: NoiseReport | None,
                       failure: NetFailure | None) -> None:
        reports[i], failures_at[i] = report, failure
        if writer is not None:
            if failure is None:
                writer.append(names[i], "report",
                              noise_report_to_dict(report))
            else:
                writer.append(names[i], "failure", failure.to_dict())
        if failure is not None:
            breaker.record(failure)

    tracer = current_tracer()
    todo_nets = [nets[i] for i in todo]
    if todo_nets:
        t_warm = time.perf_counter()
        with tracer.span("exec.warm", nets=len(todo_nets)):
            warm_analyzer(analyzer, todo_nets,
                          alignment=analyze_kwargs.get("alignment",
                                                       "table"))
        stats.warm_time = time.perf_counter() - t_warm
        log.debug("warmed characterization caches in %.2f s",
                  stats.warm_time)

    # Prime the resource baseline after warm-up so per-net CPU deltas
    # cover analysis only; sampled again at every net boundary below.
    sample_resources()
    t_start = time.perf_counter()
    with tracer.span("exec.analyze_nets", jobs=jobs, nets=len(nets)):
        if jobs == 1 or len(todo) <= 1:
            hits0, misses0 = _cache_counters(analyzer)
            for i in todo:
                t_net = time.perf_counter()
                report, failure = _analyze_one(
                    analyzer, nets[i], timeout, analyze_kwargs)
                seconds = time.perf_counter() - t_net
                record_outcome(i, report, failure)
                sample_resources()
                rss = peak_rss_bytes()
                stats.peak_rss_bytes = max(stats.peak_rss_bytes, rss)
                if on_heartbeat is not None:
                    on_heartbeat(Heartbeat(
                        net=names[i], seconds=seconds, rss_bytes=rss,
                        pid=os.getpid(), failed=failure is not None))
            hits1, misses1 = _cache_counters(analyzer)
            stats.cache_hits = hits1 - hits0
            stats.cache_misses = misses1 - misses0
        else:
            _run_pool(nets, todo, jobs, analyzer, timeout, retries,
                      analyze_kwargs, tracer, stats, record_outcome,
                      on_heartbeat, rss_budget_bytes)
            # One parent-side sample so the merged registry also covers
            # this process (workers folded theirs per net above).
            sample_resources()
            stats.peak_rss_bytes = max(stats.peak_rss_bytes,
                                       peak_rss_bytes())

    stats.wall_time = time.perf_counter() - t_start
    failures = [f for f in failures_at if f is not None]
    stats.failures = len(failures)
    for failure in failures:
        name = failure.error_type or failure.error.split(":", 1)[0]
        stats.failures_by_type[name] = \
            stats.failures_by_type.get(name, 0) + 1
    stats.degraded = sum(1 for r in reports
                         if r is not None and r.quality != "exact")
    log.debug("analyzed %d nets in %.2f s (%d failed, %d degraded, "
              "%d resumed, jobs=%d)", stats.nets, stats.wall_time,
              stats.failures, stats.degraded, stats.resumed, jobs)
    return ExecResult(reports=reports, failures=failures, stats=stats)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers outright, then shut it down.

    ``shutdown(cancel_futures=True)`` alone never interrupts a task
    already *running* — a hung or bloated worker would keep burning
    CPU/RSS forever.  Termination goes through the executor's process
    table (private API, so failure is tolerated: the shutdown below
    still detaches us from the pool either way).
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    # shutdown(wait=False) nulls the executor's private attributes, so
    # grab the result queue now: its parent-side write end must be
    # closed once the workers are dead (see below).
    result_queue = getattr(pool, "_result_queue", None)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead worker
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    # Reap deterministically, escalating to SIGKILL: a worker that
    # shrugs off SIGTERM (stuck in a C kernel with the signal pending)
    # would leave the executor's management thread joining it forever
    # at interpreter exit.
    for process in processes:
        try:
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        except Exception:  # pragma: no cover - already-reaped worker
            pass
    # A worker killed mid-result-write leaves a truncated message in
    # the result pipe.  The executor's management thread then blocks in
    # ``recv()`` waiting for bytes that will never come — the parent's
    # own copy of the write end keeps the pipe from ever reporting EOF
    # — and interpreter exit joins that (non-daemon) thread forever.
    # With every worker reaped, closing our write end turns that stuck
    # read into an immediate EOFError, which the management thread
    # handles as "pool broken" and winds down.
    try:
        result_queue._writer.close()
    except Exception:  # pragma: no cover - stdlib internals drift
        pass


def _run_pool(nets, todo, jobs, analyzer, timeout, retries,
              analyze_kwargs, tracer, stats, record_outcome,
              on_heartbeat=None, rss_budget_bytes=None) -> None:
    """The ``jobs>1`` path: per-net futures over a rebuildable pool.

    One loop dispatches every net and one watchdog times them.  The
    wait is a timed poll (``_WATCHDOG_POLL_S``); each wakeup compares
    every in-flight net's age since submission against ``timeout``
    (overdue: ``NetTimeout``) and against the tighter adaptive hang
    deadline (p95-derived, clamped; see
    :class:`repro.obs.progress.AdaptiveDeadline`; overdue:
    ``WorkerHang``), and every completed heartbeat against
    ``rss_budget_bytes``.  Any of these trips a pool recycle:
    stuck/bloated workers are terminated and the *innocent* in-flight
    nets are resubmitted — completed nets are already safe in the
    checkpoint stream, so nothing finished is lost to the kill.

    Submission is windowed to the worker count.  When a worker dies
    the pool breaks, and every unresolved net becomes a suspect.
    Suspects go back to the front of the queue and run with a window
    of one, so a break while one runs is unambiguously its doing: it
    gets ``retries`` re-attempts with exponential backoff before it is
    recorded as a ``WorkerCrash``.  Suspects run under the same
    watchdog as every other net, so a hung suspect is killed like any
    hung net.
    """
    snapshot = build_snapshot(analyzer)
    workers = min(jobs, len(todo))
    initargs = (snapshot, analyze_kwargs, tracer.enabled, active_plan())
    crash_counter = metrics().counter("exec.worker_crashes")
    retry_counter = metrics().counter("exec.retries")
    hang_counter = metrics().counter("exec.watchdog_kills")
    rss_counter = metrics().counter("exec.rss_flagged")
    # The watchdog's duration samples live in a private tracker (the
    # caller's on_heartbeat tracker, if any, is theirs).
    watch_tracker = ProgressTracker(total=len(todo))
    deadline = AdaptiveDeadline(watch_tracker, static_timeout=timeout)
    # Per-index telemetry buffers, merged in input order at the end so
    # jobs=N traces keep the serial topology regardless of completion
    # (and crash/retry) order.
    telemetry: dict[int, tuple] = {}
    crash_attempts: dict[int, int] = {}
    suspects: set[int] = set()

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=workers,
                                   initializer=_worker_init,
                                   initargs=initargs)

    def accept(i: int, outcome) -> None:
        report, failure, hits, misses, metric_payload, spans, \
            heartbeat = outcome
        telemetry[i] = (hits, misses, metric_payload, spans)
        suspects.discard(i)
        record_outcome(i, report, failure)
        stats.peak_rss_bytes = max(stats.peak_rss_bytes,
                                   heartbeat.rss_bytes)
        watch_tracker.record(heartbeat)
        if on_heartbeat is not None:
            on_heartbeat(heartbeat)

    def fail(i: int, error_type: str, message: str,
             trace_text: str = "") -> None:
        # A net that ends without a worker result (crash, timeout,
        # hang, result transport) is checkpointed, counted by the
        # breaker and ticks the progress line like any other failure.
        suspects.discard(i)
        record_outcome(i, None, NetFailure(
            net_name=nets[i].name, error=f"{error_type}: {message}",
            traceback=trace_text, error_type=error_type))
        if on_heartbeat is not None:
            on_heartbeat(Heartbeat(net=nets[i].name, seconds=0.0,
                                   rss_bytes=0, failed=True))

    pool = new_pool()
    pending = deque(todo)
    inflight: dict = {}  # future -> (net index, submit monotonic time)
    try:
        while pending or inflight:
            window = 1 if suspects else workers
            while pending and len(inflight) < window:
                i = pending.popleft()
                inflight[pool.submit(_worker_run, nets[i])] = \
                    (i, time.monotonic())
            done, _ = wait(set(inflight), timeout=_WATCHDOG_POLL_S,
                           return_when=FIRST_COMPLETED)
            broken: list[int] = []
            requeue: list[int] = []
            recycle = False
            for future in done:
                i, _t0 = inflight.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    broken.append(i)
                    continue
                except Exception as exc:
                    # Result-transport failure (e.g. unpicklable state):
                    # per-net, not systemic — record and move on.
                    fail(i, type(exc).__name__, str(exc),
                         traceback.format_exc())
                    continue
                heartbeat = outcome[6]
                if (rss_budget_bytes is not None
                        and heartbeat.rss_bytes > rss_budget_bytes):
                    stats.rss_flagged += 1
                    rss_counter.inc()
                    recycle = True
                    log.warning(
                        "worker %d finished %s at %.0f MB RSS (budget "
                        "%.0f MB); recycling the pool", heartbeat.pid,
                        nets[i].name, heartbeat.rss_bytes / 1e6,
                        rss_budget_bytes / 1e6)
                accept(i, outcome)
            if broken:
                # The pool is broken; every in-flight future is doomed
                # with it.
                stats.worker_crashes += 1
                crash_counter.inc()
                recycle = True
                unresolved = broken + [i for i, _t0 in inflight.values()]
                inflight.clear()
                if suspects:
                    # A window of one: the break is this net's alone.
                    (i,) = unresolved
                    attempts = crash_attempts.get(i, 0) + 1
                    crash_attempts[i] = attempts
                    if attempts > retries:
                        log.warning("net %s crashed its worker %d "
                                    "time(s); recording WorkerCrash",
                                    nets[i].name, attempts)
                        fail(i, "WorkerCrash",
                             f"worker process died while analyzing net "
                             f"{nets[i].name} ({attempts} isolated "
                             f"attempts)")
                    else:
                        stats.retries += 1
                        retry_counter.inc()
                        delay = RETRY_BACKOFF_S * 2 ** (attempts - 1)
                        log.warning("net %s crashed its worker (attempt "
                                    "%d/%d); retrying in %.2f s",
                                    nets[i].name, attempts, retries,
                                    delay)
                        time.sleep(delay)
                        requeue.append(i)
                else:
                    log.warning("worker pool broke; running %d suspect "
                                "net(s) one at a time", len(unresolved))
                    suspects.update(unresolved)
                    requeue.extend(unresolved)
            # The watchdog: an in-flight net past its deadline is
            # recorded and its pool killed (the only way to stop a
            # spinning worker).
            limit = deadline.seconds()
            if limit is not None:
                now = time.monotonic()
                for future, (i, t0) in list(inflight.items()):
                    age = now - t0
                    if age <= limit:
                        continue
                    del inflight[future]
                    stats.watchdog_kills += 1
                    hang_counter.inc()
                    recycle = True
                    if timeout is not None and age > timeout:
                        log.warning("net %s exceeded its %g s budget; "
                                    "killing its worker", nets[i].name,
                                    timeout)
                        fail(i, "NetTimeout",
                             f"net analysis exceeded {timeout:g} s")
                    else:
                        log.warning("net %s hung: no result after "
                                    "%.1f s (deadline %.1f s); killing "
                                    "its worker", nets[i].name, age,
                                    limit)
                        fail(i, "WorkerHang",
                             f"no result after {age:.1f} s (watchdog "
                             f"deadline {limit:.1f} s)")
            if recycle:
                # Survivors (in flight in healthy workers) go back to
                # the front of the queue; their partial work is lost
                # but their checkpointed peers are not.
                requeue.extend(i for i, _t0 in inflight.values())
                inflight.clear()
                _kill_pool(pool)
                pool = new_pool()
            for i in sorted(requeue, reverse=True):
                pending.appendleft(i)
    finally:
        _kill_pool(pool)

    # Merge telemetry in input order, independent of completion order.
    for i in todo:
        if i in telemetry:
            hits, misses, metric_payload, spans = telemetry[i]
            stats.cache_hits += hits
            stats.cache_misses += misses
            metrics().merge_snapshot(metric_payload)
            tracer.absorb(spans)
