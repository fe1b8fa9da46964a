"""Live progress from per-net heartbeats.

Workers (and the serial path) emit one :class:`Heartbeat` per completed
net — name, wall seconds, peak RSS, originating pid.  The parent feeds
them to a :class:`ProgressTracker`, which maintains done/total, the
run's throughput and ETA, the per-net duration distribution, and a
straggler flag: a net whose wall time exceeds
``STRAGGLER_FACTOR × p95`` of the nets before it (once enough samples
exist for a p95 to mean anything).

``repro screen --progress`` renders the tracker as a single
carriage-return progress line on stderr::

    [ 37/100]  2.81 nets/s  eta 22s  p95 512 ms  stragglers: net12

Tiered screening runs add a live per-tier tally (``t0/t1/t2 141/5/54``)
right after the throughput; pruned nets tick ``done`` but stay out of
the duration distribution (see :meth:`ProgressTracker.record`).

The final tracker state lands in the run manifest, so the ledger
records the same distribution the operator watched.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

__all__ = ["AdaptiveDeadline", "Heartbeat", "ProgressTracker",
           "STRAGGLER_FACTOR", "MIN_STRAGGLER_SAMPLES",
           "WATCHDOG_FACTOR", "WATCHDOG_FLOOR_S", "WATCHDOG_CEILING_S"]

#: A net is flagged as a straggler when its duration exceeds this many
#: multiples of the p95 of the nets completed before it.
STRAGGLER_FACTOR = 3.0
#: Completed-net samples required before stragglers are judged (a p95
#: over fewer is noise).
MIN_STRAGGLER_SAMPLES = 5

#: Hang deadline as a multiple of the rolling p95 — looser than
#: the straggler flag (3x) because a watchdog expiry *kills* the worker
#: rather than annotating the net.
WATCHDOG_FACTOR = 4.0
#: Clamp bounds for the adaptive deadline: the floor keeps a population
#: of sub-millisecond nets from turning scheduler jitter into kills,
#: the ceiling keeps one pathological early net from disabling hang
#: detection for the rest of the run.
WATCHDOG_FLOOR_S = 1.0
WATCHDOG_CEILING_S = 600.0


@dataclass(frozen=True)
class Heartbeat:
    """One completed net's vitals, shipped from the analyzing process."""

    net: str           #: net name
    seconds: float     #: wall-clock analysis time
    rss_bytes: int     #: the analyzing process's peak RSS at completion
    pid: int = 0       #: originating process
    failed: bool = False
    #: Screening tier that settled the net: 0/1 mean it was pruned
    #: without analysis; 2 (the default) means the full tier-2 flow
    #: ran.  Non-screening runs leave this at 2 everywhere.
    tier: int = 2

    def to_dict(self) -> dict:
        return {"net": self.net, "seconds": self.seconds,
                "rss_bytes": self.rss_bytes, "pid": self.pid,
                "failed": self.failed, "tier": self.tier}


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


class ProgressTracker:
    """Accumulates heartbeats; optionally renders a live progress line.

    ``stream=None`` keeps the tracker silent (pure accounting for the
    manifest); the CLI passes ``sys.stderr`` under ``--progress``.
    Rendering is throttled to ``min_interval`` seconds, with a forced
    final render (plus newline) from :meth:`finish`.
    """

    def __init__(self, total: int, *, stream=None,
                 min_interval: float = 0.1):
        self.total = total
        self.stream = stream
        self.min_interval = min_interval
        self.done = 0
        self.failed = 0
        self.durations: list[float] = []
        self.stragglers: list[str] = []
        #: Completed nets per screening tier (0/1 pruned, 2 analyzed).
        self.by_tier: dict[int, int] = {}
        self._t_start = time.monotonic()
        self._last_render = 0.0

    # -- accounting ----------------------------------------------------
    def record(self, heartbeat: Heartbeat) -> None:
        """Fold one completed net in (the pool's ``on_heartbeat``).

        Pruned nets (``tier < 2``) count toward ``done`` and the
        per-tier tally but are excluded from the duration distribution:
        a tier-0 bound takes microseconds, and folding thousands of
        those samples in would collapse the p50/p95 — and with them the
        straggler flag and the adaptive hang deadline — to zero.
        """
        self.by_tier[heartbeat.tier] = \
            self.by_tier.get(heartbeat.tier, 0) + 1
        if heartbeat.tier >= 2:
            if (len(self.durations) >= MIN_STRAGGLER_SAMPLES
                    and heartbeat.seconds
                    > STRAGGLER_FACTOR * self.p95()):
                self.stragglers.append(heartbeat.net)
            self.durations.append(heartbeat.seconds)
        self.done += 1
        if heartbeat.failed:
            self.failed += 1
        self._maybe_render()

    def p95(self) -> float:
        return _percentile(sorted(self.durations), 0.95)

    def p50(self) -> float:
        return _percentile(sorted(self.durations), 0.50)

    def nets_per_second(self) -> float:
        elapsed = time.monotonic() - self._t_start
        return self.done / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self) -> float:
        rate = self.nets_per_second()
        if rate <= 0.0:
            return float("inf")
        return max(self.total - self.done, 0) / rate

    def snapshot(self) -> dict:
        """Final state for the run manifest."""
        snap = {
            "nets": self.done,
            "total": self.total,
            "failed": self.failed,
            "nets_per_second": self.nets_per_second(),
            "p50_s": self.p50(),
            "p95_s": self.p95(),
            "stragglers": list(self.stragglers),
        }
        if set(self.by_tier) - {2}:
            snap["by_tier"] = {str(t): n for t, n
                               in sorted(self.by_tier.items())}
        return snap

    # -- rendering -----------------------------------------------------
    def render_line(self) -> str:
        width = len(str(self.total))
        parts = [f"[{self.done:>{width}d}/{self.total}]",
                 f"{self.nets_per_second():.2f} nets/s"]
        if set(self.by_tier) - {2}:
            parts.append("t0/t1/t2 "
                         + "/".join(str(self.by_tier.get(t, 0))
                                    for t in (0, 1, 2)))
        eta = self.eta_seconds()
        if self.done < self.total and eta != float("inf"):
            parts.append(f"eta {eta:.0f}s")
        if self.durations:
            parts.append(f"p95 {self.p95() * 1e3:.0f} ms")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.stragglers:
            parts.append("stragglers: " + ",".join(self.stragglers[-3:]))
        return "  ".join(parts)

    def _maybe_render(self, force: bool = False) -> None:
        if self.stream is None:
            return
        now = time.monotonic()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        self.stream.write("\r\x1b[2K" + self.render_line())
        self.stream.flush()

    def finish(self) -> None:
        """Force a final render and terminate the progress line."""
        if self.stream is None:
            return
        self._maybe_render(force=True)
        self.stream.write("\n")
        self.stream.flush()


class AdaptiveDeadline:
    """Per-net hang deadline derived from the completed-net p95.

    The pool's watchdog asks :meth:`seconds` for "how long may the net
    currently in flight run before it is overdue?".  The answer is
    ``WATCHDOG_FACTOR x p95`` of the completed nets, clamped to
    ``[WATCHDOG_FLOOR_S, WATCHDOG_CEILING_S]`` — but only once at least
    ``MIN_STRAGGLER_SAMPLES`` durations exist.  Before that the rolling
    p95 is statistical noise (and for the *first* net of a run it is
    exactly 0.0, which a naive ``factor x p95`` would turn into an
    instant kill), so the deadline falls back to the static timeout; if
    none was configured, hang detection stays off (``None``) until the
    sample floor is met.
    """

    def __init__(self, tracker: ProgressTracker, *,
                 static_timeout: float | None = None):
        self.tracker = tracker
        self.static_timeout = static_timeout

    def seconds(self) -> float | None:
        """Current deadline in seconds, or None (no hang detection)."""
        if len(self.tracker.durations) < MIN_STRAGGLER_SAMPLES:
            return self.static_timeout
        adaptive = min(max(WATCHDOG_FACTOR * self.tracker.p95(),
                           WATCHDOG_FLOOR_S), WATCHDOG_CEILING_S)
        if self.static_timeout is not None:
            # The static timeout is an operator-set upper bound; the
            # adaptive deadline may tighten it but never loosen it.
            return min(adaptive, self.static_timeout)
        return adaptive


def progress_stream():
    """The stream ``--progress`` renders to (stderr, patchable)."""
    return sys.stderr
