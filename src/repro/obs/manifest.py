"""Schema-versioned run manifests — the audit record of one invocation.

A :class:`RunManifest` makes a ``screen`` run auditable after the
process exits: what command ran, on which config, at which git
revision, on what host/toolchain, how long each stage took, what the
solvers did (the full metrics snapshot), what failed or degraded, and
what the telemetry itself cost.  The CLI writes it atomically as JSON
(``--manifest run.json``); ``repro report run.json`` renders it back.

Lifecycle::

    manifest = RunManifest("screen", config={"seed": 3, "count": 100})
    with manifest.stage("analysis"):
        ...                         # or manifest.add_stage(name, secs)
    payload = manifest.write("run.json",
                             failures=...,  degraded=...,
                             progress=tracker.snapshot())

The payload's resource block folds out of the metrics snapshot via
:func:`repro.obs.resources.resource_summary`, so a ``jobs=N`` manifest
reports the peak RSS and CPU split across every worker that merged in.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
import time

from repro.obs.ioutil import atomic_write_json
from repro.obs.log import get_logger
from repro.obs.metrics import registry as _metrics
from repro.obs.resources import resource_summary, sample_resources

__all__ = ["MANIFEST_SCHEMA", "RunManifest", "git_revision",
           "host_info", "load_manifest", "format_manifest"]

#: Schema identifier stamped into every manifest.
MANIFEST_SCHEMA = "repro.obs.manifest/v1"

log = get_logger("obs.manifest")


def git_revision(cwd=None) -> dict:
    """The working tree's git state: ``{"revision", "dirty"}``.

    Degrades to ``{"revision": None, "dirty": None}`` outside a git
    checkout (or without a ``git`` binary) — a manifest must never make
    a run fail.
    """
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=5.0, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd,
            capture_output=True, text=True, timeout=5.0, check=True)
        return {"revision": revision, "dirty": bool(status.stdout.strip())}
    except Exception as exc:
        log.debug("git revision unavailable: %s", exc)
        return {"revision": None, "dirty": None}


def host_info() -> dict:
    """Host and toolchain identity for reproducing a run's environment."""
    versions = {"python": platform.python_version()}
    for module_name in ("numpy", "scipy"):
        module = sys.modules.get(module_name)
        if module is None:
            try:
                module = __import__(module_name)
            except ImportError:
                continue
        versions[module_name] = getattr(module, "__version__", "unknown")
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
        "versions": versions,
    }


class _StageTimer:
    def __init__(self, manifest: "RunManifest", name: str):
        self._manifest = manifest
        self._name = name
        self._t0 = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._manifest.add_stage(
            self._name, time.perf_counter() - self._t0)
        return False


class RunManifest:
    """Collects one run's audit record; see the module docstring."""

    def __init__(self, command: str, config: dict | None = None):
        self.command = command
        self.config = dict(config or {})
        self.created_at = time.time()
        self._t0 = time.perf_counter()
        self.git = git_revision()
        self.host = host_info()
        self.stages: dict[str, float] = {}
        # Prime the CPU baseline so finalize's closing sample yields
        # this process's split even if the pool never sampled.
        sample_resources()

    def stage(self, name: str) -> _StageTimer:
        """Context manager timing one named stage."""
        return _StageTimer(self, name)

    def add_stage(self, name: str, seconds: float) -> None:
        """Record (or accumulate) one stage's wall time."""
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def finalize(self, *, metrics_snapshot: dict | None = None,
                 failures: list | None = None,
                 degraded: dict | None = None,
                 progress: dict | None = None,
                 extra: dict | None = None) -> dict:
        """Assemble the manifest payload.

        ``failures`` takes :class:`repro.exec.NetFailure`-like records
        (anything with ``net_name``/``error_type``); ``degraded`` a
        ``{"total": n, "stages": [...]}`` summary; ``progress`` a
        :meth:`ProgressTracker.snapshot`; ``extra`` is merged in
        verbatim for command-specific blocks (e.g. the screen's
        ``audit`` and ``screening`` blocks).
        """
        sample_resources()
        wall_time = time.perf_counter() - self._t0
        if metrics_snapshot is None:
            metrics_snapshot = _metrics().snapshot()
        resources = resource_summary(metrics_snapshot)
        overhead_s = resources["sampling_overhead_s"]
        failure_summary = {"total": 0, "by_type": {}, "nets": []}
        for failure in failures or []:
            failure_summary["total"] += 1
            kind = getattr(failure, "error_type", "") or "Error"
            failure_summary["by_type"][kind] = \
                failure_summary["by_type"].get(kind, 0) + 1
            failure_summary["nets"].append(
                getattr(failure, "net_name", str(failure)))
        payload = {
            "schema": MANIFEST_SCHEMA,
            "command": self.command,
            "config": self.config,
            "created_at": self.created_at,
            "wall_time_s": wall_time,
            "git": self.git,
            "host": self.host,
            "stages": dict(self.stages),
            "resources": resources,
            "telemetry_overhead": {
                "seconds": overhead_s,
                "fraction": overhead_s / wall_time if wall_time > 0
                else 0.0,
            },
            "failures": failure_summary,
            "degraded": degraded or {"total": 0, "stages": []},
            "progress": progress,
            "metrics": metrics_snapshot,
        }
        if extra:
            payload.update(extra)
        return payload

    def write(self, path, **finalize_kwargs) -> dict:
        """Finalize and write the manifest atomically; returns payload."""
        payload = self.finalize(**finalize_kwargs)
        atomic_write_json(path, payload)
        return payload


def load_manifest(path) -> dict:
    """Read a manifest back, verifying the schema stamp."""
    with open(path) as handle:
        payload = json.load(handle)
    schema = payload.get("schema", "")
    if not schema.startswith("repro.obs.manifest/"):
        raise ValueError(f"{path}: not a run manifest "
                         f"(schema {schema!r})")
    return payload


def _fmt_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(count) < 1024.0 or unit == "GiB":
            return f"{count:.1f} {unit}"
        count /= 1024.0
    return f"{count:.1f} GiB"


def format_manifest(payload: dict) -> str:
    """Human-readable rendering of a manifest (``repro report``)."""
    git = payload.get("git", {})
    host = payload.get("host", {})
    resources = payload.get("resources", {})
    overhead = payload.get("telemetry_overhead", {})
    revision = git.get("revision") or "unknown"
    dirty = " (dirty)" if git.get("dirty") else ""
    versions = host.get("versions", {})
    lines = [
        f"run: {payload.get('command')} @ "
        f"{time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(payload.get('created_at', 0)))}",
        f"git: {revision[:12]}{dirty}",
        f"host: {host.get('hostname')} ({host.get('platform')}, "
        f"{host.get('cpu_count')} cpus)",
        "versions: " + ", ".join(f"{k} {v}"
                                 for k, v in sorted(versions.items())),
        f"wall time: {payload.get('wall_time_s', 0.0):.2f} s",
    ]
    config = payload.get("config", {})
    if config:
        lines.append("config: " + ", ".join(
            f"{k}={v}" for k, v in sorted(config.items())))
    stages = payload.get("stages", {})
    if stages:
        lines.append("stages:")
        width = max(len(name) for name in stages)
        for name, seconds in sorted(stages.items(),
                                    key=lambda kv: -kv[1]):
            lines.append(f"  {name:<{width}}  {seconds:9.3f} s")
    if resources:
        lines.append(
            f"resources: peak RSS "
            f"{_fmt_bytes(resources.get('peak_rss_bytes', 0))}, cpu "
            f"{resources.get('cpu_user_s', 0.0):.2f} s user / "
            f"{resources.get('cpu_system_s', 0.0):.2f} s system "
            f"({resources.get('samples', 0)} samples)")
    if overhead:
        lines.append(
            f"telemetry overhead: {overhead.get('seconds', 0.0):.4f} s "
            f"({100.0 * overhead.get('fraction', 0.0):.3f}% of wall)")
    progress = payload.get("progress")
    if progress:
        line = (f"nets: {progress.get('nets')}/{progress.get('total')} "
                f"at {progress.get('nets_per_second', 0.0):.2f} nets/s, "
                f"p50 {progress.get('p50_s', 0.0) * 1e3:.0f} ms / "
                f"p95 {progress.get('p95_s', 0.0) * 1e3:.0f} ms")
        if progress.get("stragglers"):
            line += ", stragglers: " + ",".join(progress["stragglers"])
        lines.append(line)
    screening = payload.get("screening")
    if screening:
        by_tier = screening.get("by_tier", {})
        seconds = screening.get("seconds_by_tier", {})
        lines.append(
            f"screening: {screening.get('pruned', 0)} of "
            f"{screening.get('total', 0)} nets pruned "
            f"({100.0 * screening.get('pruned_fraction', 0.0):.1f}%), "
            f"{screening.get('escalated', 0)} escalated")
        for tier in ("0", "1", "2"):
            if by_tier.get(tier):
                lines.append(
                    f"  tier {tier}: {by_tier[tier]:>6d} nets  "
                    f"{seconds.get(tier, 0.0):9.3f} s")
        reasons = screening.get("reasons", {})
        if reasons:
            lines.append("  reasons: " + ", ".join(
                f"{name} x{count}"
                for name, count in sorted(reasons.items())))
        audit = screening.get("audit")
        if audit:
            verdict = "ok" if audit.get("ok") else "UNSOUND"
            lines.append(
                f"  prune audit: {audit.get('checked', 0)}/"
                f"{audit.get('eligible', 0)} re-checked, "
                f"{audit.get('unsound_prunes', 0)} unsound ({verdict})")
    failures = payload.get("failures", {})
    if failures.get("total"):
        by_type = ", ".join(f"{k} x{v}" for k, v
                            in sorted(failures["by_type"].items()))
        lines.append(f"failures: {failures['total']} ({by_type})")
    degraded = payload.get("degraded", {})
    if degraded.get("total"):
        lines.append(f"degraded: {degraded['total']} "
                     f"({','.join(degraded.get('stages', []))})")
    return "\n".join(lines)
