"""Deterministic fault injection.

An industrial noise run must survive solver blow-ups, runaway nets and
worker-process crashes — but those failures are rare and timing-
dependent, so the recovery paths rot unless they can be *provoked on
demand*.  This module provides registerable fault points: named hooks
the production code calls on its way through (``newton.step``,
``analysis.rtr``, ``exec.worker``, ...) that do nothing until a
:class:`FaultPlan` is installed, and then fire a chosen failure at a
chosen place — deterministically, without flaky sleeps or real
segfault triggers.

Fault points
------------

===================  =====================================  ==========
point                fired from                             key
===================  =====================================  ==========
``newton.step``      every scalar Newton solve's entry      solve context
``newton.batched``   batched block-solve entry              solve context
``trust.verify``     trust-layer post-solve verification    solve context
``analysis.net``     ``DelayNoiseAnalyzer.analyze`` entry   net name
``analysis.rtr``     the Rtr characterization stage         net name
``analysis.alignment``  the table-alignment stage           net name
``exec.worker``      per-net execution in the pool          net name
``exec.worker_init``  pool-worker warm-start initializer    "init"
``screening.estimate``  the tier-1 reduced-order estimate   net name
===================  =====================================  ==========

Actions: ``"convergence"`` raises
:class:`~repro.sim.nonlinear.ConvergenceError` (exercises the solver
recovery ladder and per-net failure capture), ``"error"`` raises
:class:`InjectedFault`, ``"crash"`` kills the worker process with
``os._exit`` (in the serial path it raises :class:`WorkerCrash`
instead, so ``jobs=1`` classifies the net identically), and
``"sleep"`` stalls for ``seconds`` (exercises timeouts).  The
corruption actions ``"nan"`` and ``"perturb"`` raise
:class:`InjectedCorruption`, which only the trust layer's verification
wrappers catch — they poison the *accepted* solver state (NaNs, or a
gross perturbation) so the residual audit must detect it and escalate;
``screening.estimate`` catches them as well, silently deflating the
tier-1 noise estimate so the pruning audit — not the estimator — must
flag the resulting unsound prune; at any other fault point they
propagate like an ``"error"``.

The hot-path cost when no plan is installed is a single module-global
``None`` check inside :func:`fire` — no allocation, no lookup.

Fire counters are **per process**: a worker inherits a fresh copy of
the plan through the pool initializer, so a ``times``-limited crash
fault fires again in the rebuilt worker after a retry.  A crashing net
therefore stays crashing until the pool's retry budget converts it
into a ``WorkerCrash`` failure — exactly the behaviour the chaos tests
need to prove.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs import get_logger, metrics

__all__ = [
    "FAULT_POINTS",
    "FaultPlan",
    "FaultSpec",
    "InjectedCorruption",
    "InjectedFault",
    "WorkerCrash",
    "active_plan",
    "clear_faults",
    "fire",
    "install_faults",
    "mark_worker_process",
]

log = get_logger("resilience.faults")

#: The registered fault-point names (see the module docstring table).
FAULT_POINTS = ("newton.step", "newton.batched", "trust.verify",
                "analysis.net", "analysis.rtr", "analysis.alignment",
                "exec.worker", "exec.worker_init",
                "screening.estimate")

_ACTIONS = ("convergence", "error", "crash", "sleep", "nan", "perturb")


class InjectedFault(RuntimeError):
    """A generic failure raised by an ``"error"`` fault."""


class InjectedCorruption(RuntimeError):
    """A silent-wrong-answer fault (``"nan"`` / ``"perturb"``).

    Raised by :func:`fire`; the trust layer's verification wrappers
    catch it and corrupt the accepted state accordingly, so the
    residual audit is exercised against a realistically *wrong* (not
    merely failed) solve.  ``kind`` is the corruption flavor.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class WorkerCrash(RuntimeError):
    """A worker process died (or, serially, a simulated death)."""


@dataclass
class FaultSpec:
    """One registered fault: where it fires, at what, and how often.

    ``match`` is a substring test against the fault key (the net name
    or solver context); ``"*"`` matches everything.  ``times`` bounds
    how often the spec fires in this process (``-1`` = unlimited).
    """

    point: str
    match: str = "*"
    action: str = "error"
    times: int = -1
    seconds: float = 0.0
    fired: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; "
                f"expected one of {FAULT_POINTS}")
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {_ACTIONS}")

    def matches(self, point: str, key: str) -> bool:
        if point != self.point:
            return False
        if self.times >= 0 and self.fired >= self.times:
            return False
        return self.match == "*" or self.match in key

    def to_dict(self) -> dict[str, Any]:
        return {"point": self.point, "match": self.match,
                "action": self.action, "times": self.times,
                "seconds": self.seconds}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSpec":
        return cls(point=data["point"],
                   match=data.get("match", "*"),
                   action=data.get("action", "error"),
                   times=int(data.get("times", -1)),
                   seconds=float(data.get("seconds", 0.0)))


@dataclass
class FaultPlan:
    """An ordered set of :class:`FaultSpec`\\ s, picklable for workers."""

    specs: list[FaultSpec] = field(default_factory=list)

    def add(self, point: str, *, match: str = "*", action: str = "error",
            times: int = -1, seconds: float = 0.0) -> "FaultPlan":
        self.specs.append(FaultSpec(point=point, match=match,
                                    action=action, times=times,
                                    seconds=seconds))
        return self

    def to_json(self) -> str:
        return json.dumps([s.to_dict() for s in self.specs], indent=1)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("a fault plan is a JSON list of specs")
        return cls(specs=[FaultSpec.from_dict(d) for d in data])

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())


# The installed plan; None (the default) keeps fire() to one comparison.
_PLAN: FaultPlan | None = None
#: True inside a pool worker — makes "crash" faults exit the process.
_IN_WORKER = False


def install_faults(plan: FaultPlan | Iterable[FaultSpec]) -> FaultPlan:
    """Install ``plan`` process-globally; returns the installed plan."""
    global _PLAN
    if not isinstance(plan, FaultPlan):
        plan = FaultPlan(specs=list(plan))
    _PLAN = plan
    log.debug("installed fault plan with %d spec(s)", len(plan.specs))
    return plan


def clear_faults() -> None:
    """Remove any installed fault plan."""
    global _PLAN
    _PLAN = None


def active_plan() -> FaultPlan | None:
    """The installed plan, or None."""
    return _PLAN


def mark_worker_process(in_worker: bool = True) -> None:
    """Tell the registry it runs inside a pool worker (crash = exit)."""
    global _IN_WORKER
    _IN_WORKER = in_worker


def fire(point: str, key: str) -> None:
    """Fire any installed fault registered at ``(point, key)``.

    No-op (one ``None`` check) unless a plan is installed.  Called by
    the production code at each fault point; never call it with
    side-effectful arguments.
    """
    if _PLAN is None:
        return
    for spec in _PLAN.specs:
        if not spec.matches(point, key):
            continue
        spec.fired += 1
        metrics().counter(f"faults.fired.{spec.action}").inc()
        log.debug("fault %s fires at %s (%s), action=%s",
                  spec.match, point, key, spec.action)
        if spec.action == "sleep":
            time.sleep(spec.seconds)
            continue
        if spec.action == "convergence":
            from repro.sim.nonlinear import ConvergenceError
            raise ConvergenceError(
                f"injected convergence failure at {point} ({key})")
        if spec.action == "crash":
            if _IN_WORKER:
                import os
                os._exit(3)
            raise WorkerCrash(
                f"injected worker crash at {point} ({key})")
        if spec.action in ("nan", "perturb"):
            raise InjectedCorruption(
                spec.action,
                f"injected {spec.action} corruption at {point} ({key})")
        raise InjectedFault(f"injected fault at {point} ({key})")
