"""Parallel net-analysis engine.

The delay-noise flow is independent per net once the per-cell
characterization tables exist.  This package turns that into block-scale
throughput:

* :mod:`repro.exec.snapshot` — the worker warm-start protocol: the
  parent pre-builds all Thevenin/alignment tables, snapshots them with
  the :mod:`repro.storage` dict codecs, and workers rehydrate a fully
  warm :class:`~repro.core.analysis.DelayNoiseAnalyzer` so no worker
  ever re-runs a non-linear characterization simulation.
* :mod:`repro.exec.pool` — :func:`analyze_nets`, a deterministic
  process-pool map over coupled nets with a serial ``jobs=1`` fallback,
  structured per-net failure capture, one deadline per mode (a
  ``SIGALRM`` per-net timeout serially, the parent's watchdog in the
  pool), crash-safe worker recovery with bounded retries, a
  ``max_failures`` circuit breaker, JSONL checkpoint/resume, and
  throughput/cache statistics.

Consumers: ``BlockAnalyzer.run(jobs=N)`` re-analyzes nets in parallel
inside each fixed-point iteration, and ``python -m repro screen --jobs
N`` parallelizes population screening.
"""

from repro.exec.pool import (
    ExecResult,
    ExecStats,
    NetFailure,
    NetTimeout,
    TooManyFailures,
    analyze_nets,
)
from repro.exec.snapshot import build_snapshot, restore_analyzer, warm_analyzer

__all__ = [
    "ExecResult",
    "ExecStats",
    "NetFailure",
    "NetTimeout",
    "TooManyFailures",
    "analyze_nets",
    "build_snapshot",
    "restore_analyzer",
    "warm_analyzer",
]
