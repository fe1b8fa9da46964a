"""Numerical trust layer: verify accepted solves, escalate on doubt.

The alignment search is only as trustworthy as the thousands of Newton
and linear solves underneath it.  The fast kernels (Woodbury scalar,
batched active-set, sparse SuperLU) all have failure modes that do not
surface as nonconvergence: a silently ill-conditioned factorization or
a corrupted Woodbury update can converge to a *wrong* state and the
report still says ``quality="exact"``.

This module provides the shared machinery; the solver stack wires it
in:

* **Residual audits** — accepted solves are post-verified with the
  cheap relative residual ``||Ax - b|| / (||A||*||x|| + ||b||)``
  against a per-dim tolerance (:func:`residual_tolerance`).  The full
  check (finiteness tripwire plus residual) is sampled every
  :data:`CHECK_INTERVAL` accepted solves to keep the clean-path
  overhead small; installing a fault plan bypasses the stride so
  injected corruption always faces the audit.
* **Condition monitoring** — each factorization that serves a
  transient's solves (the trapezoidal step matrices of full and
  reduced-order linear transients, sparse DC matrices, the sparse
  exact-Newton Jacobian, an accepted Woodbury base) reports a
  reciprocal condition estimate through :func:`observe_factorization`;
  estimates below :data:`RCOND_MIN` raise the
  ``trust.condition_warnings`` counter and a log warning.  The same
  threshold routes a Newton kernel off a base factor to exact Newton
  (``repro.sim.nonlinear._woodbury_base``), with the layer on or off.
* **Escalation ladder** — on a residual violation the solver walks
  exact Newton -> the dense reference solve (rebuilt dense from sparse
  when needed; implemented in ``repro.sim.nonlinear``), recording each hop
  through :func:`record_event` so the analyzer can attach a
  ``Degradation(stage="trust")`` provenance entry to the report
  instead of silently returning the suspect state.
* **Differential audits** — :func:`run_audit` re-runs a seeded random
  sample of screened nets through the dense reference solve and
  compares the headline numbers (``screen --audit-rate P``).  The
  oracle run also simulates an extracted-scale net's full interconnect
  rather than its reduced port model.

Tolerances are deliberately conservative (orders of magnitude above
any legitimate accepted state, orders below a corrupted one): a clean
run must be *bit-identical* with the layer on or off, which the
property tests assert.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager

import numpy as np

from repro.obs import get_logger, metrics

__all__ = [
    "TrustViolation", "trust_enabled", "trust_mode", "matrix_norm1",
    "relative_residual", "residual_tolerance", "observe_factorization",
    "record_event", "drain_events", "run_audit", "AUDIT_FIELDS",
    "AUDIT_TOLERANCE", "LINEAR_RTOL", "NEWTON_RTOL", "RCOND_MIN",
    "CHECK_INTERVAL", "VOLTAGE_FLOOR",
]

log = get_logger("trust")

_CHECKS = metrics().counter("trust.residual_checks")
_VIOLATIONS = metrics().counter("trust.violations")
_CONDITION = metrics().counter("trust.condition_warnings")
_FACTORIZATIONS = metrics().counter("trust.factorizations")
_UNRECOVERED = metrics().counter("trust.unrecovered")


#: Base relative-residual budget for direct linear solves: they are
#: backward stable, so a legitimate residual is ~n*eps.
LINEAR_RTOL = 1e-9

#: Base relative-residual budget for accepted Newton states.  Their
#: acceptance test is a step-norm tolerance, so the nonlinear residual
#: of a legitimately converged state is bounded by ``||J|| * vtol``;
#: the gate sits ~100x above that and ~100x below a grossly corrupted
#: state.  Both budgets scale with :func:`residual_tolerance`.
NEWTON_RTOL = 3e-4

#: Reciprocal-condition estimates below this raise a warning, and keep
#: a Newton kernel from running Woodbury over the factor.
RCOND_MIN = 1e-12

#: Full residual check every Nth accepted solve.  A full check costs
#: about one Newton iteration (device evaluation plus a mat-vec), so
#: the stride is what keeps the clean path cheap (tests/test_trust.py
#: holds a clean run to one check per 32 Newton solves); the per-solve
#: finiteness guard still trips immediately on NaN/inf corruption.
CHECK_INTERVAL = 32

#: Voltage scale folded into the residual denominator so near-zero
#: states do not produce 0/0 false positives.
VOLTAGE_FLOOR = 1.0

#: Whether the layer verifies at all; :func:`trust_mode` flips it.
_ENABLED = True

#: Per-process ledger of trust events (violations, escalation hops).
#: Drained by ``DelayNoiseAnalyzer.analyze`` into ``Degradation``
#: provenance entries on the report being built.
_EVENTS: list[dict] = []


def trust_enabled() -> bool:
    return _ENABLED


@contextmanager
def trust_mode(enabled: bool):
    """Temporarily enable/disable verification (tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = enabled
    try:
        yield
    finally:
        _ENABLED = previous


def matrix_norm1(matrix) -> float:
    """1-norm of a dense array or scipy sparse matrix."""
    if hasattr(matrix, "toarray") and not isinstance(matrix, np.ndarray):
        return float(abs(matrix).sum(axis=0).max())
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return 0.0
    return float(np.abs(matrix).sum(axis=0).max())


def residual_tolerance(dim: int, base: float) -> float:
    """Per-dim tolerance: the base budget grows with sqrt(dim)."""
    return base * max(1.0, math.sqrt(float(dim)))


def relative_residual(residual, anorm: float, x, b) -> float:
    """``||r|| / (||A||*||x|| + ||b||)`` with a scale floor.

    :data:`VOLTAGE_FLOOR` enters as ``anorm * VOLTAGE_FLOOR`` in the
    denominator: early-transient states are near zero and the bare
    ratio would be 0/0.  Non-finite residuals report ``inf`` so they
    always violate.
    """
    residual = np.asarray(residual, dtype=float)
    if residual.size and not np.isfinite(residual).all():
        return math.inf
    rnorm = float(np.abs(residual).max()) if residual.size else 0.0
    xnorm = float(np.abs(np.asarray(x)).max()) if np.size(x) else 0.0
    bnorm = float(np.abs(np.asarray(b)).max()) if np.size(b) else 0.0
    if not math.isfinite(xnorm) or not math.isfinite(bnorm):
        return math.inf
    denominator = anorm * (xnorm + VOLTAGE_FLOOR) + bnorm
    if denominator <= 0.0:
        return math.inf if rnorm > 0.0 else 0.0
    return rnorm / denominator


def observe_factorization(fact, context: str = "") -> float | None:
    """Condition-monitor one new factorization (no-op when disabled).

    Returns the reciprocal condition estimate, or ``None`` when the
    layer is off or the backend cannot produce one.  Estimates below
    :data:`RCOND_MIN` raise ``trust.condition_warnings`` and log — they
    do not escalate on their own (an ill-conditioned but correct solve
    passes the residual audit; a wrong one does not).
    """
    if not _ENABLED:
        return None
    _FACTORIZATIONS.inc()
    rcond = fact.rcond_estimate()
    if rcond is not None and rcond < RCOND_MIN:
        _CONDITION.inc()
        log.warning("ill-conditioned factorization (rcond ~ %.3e)%s",
                    rcond, f" in {context}" if context else "")
    return rcond


def record_event(kind: str, *, context: str = "", detail: str = "",
                 hop: str = "") -> dict:
    """Append one trust event to the per-process ledger.

    ``kind`` is ``"violation"`` (a residual audit failed),
    ``"escalated"`` (a ladder hop produced a verified state; ``hop``
    names it) or ``"unrecovered"`` (the whole ladder failed).
    """
    event = {"kind": kind, "context": context, "detail": detail,
             "hop": hop}
    _EVENTS.append(event)
    if kind == "violation":
        _VIOLATIONS.inc()
    elif kind == "escalated":
        metrics().counter(f"trust.escalations.{hop}").inc()
    elif kind == "unrecovered":
        _UNRECOVERED.inc()
    log.warning("trust %s%s%s%s", kind,
                f" via {hop}" if hop else "",
                f" in {context}" if context else "",
                f": {detail}" if detail else "")
    return event


def count_check() -> None:
    """Raise the sampled residual-check counter (solver-side hook)."""
    _CHECKS.inc()


def drain_events() -> list[dict]:
    """Return and clear the per-process trust-event ledger."""
    events = list(_EVENTS)
    _EVENTS.clear()
    return events


# -- differential audit ------------------------------------------------

#: Report scalars compared against the dense-reference oracle.
AUDIT_FIELDS = ("extra_delay_output", "extra_delay_input",
                "pulse_height", "peak_time")

#: Absolute agreement tolerance per audited field (volts / seconds) —
#: matches the kernel-equivalence tests' state tolerance.
AUDIT_TOLERANCE = 1e-9


def run_audit(nets, reports, analyzer, *, rate: float, seed: int = 0,
              analyze_kwargs: dict | None = None) -> dict:
    """Re-run a seeded random sample of nets on the dense reference.

    Every non-linear solve of the oracle run goes through
    ``repro.sim.nonlinear.dense_reference``: a dense Newton solve that
    shares no code with the fast kernels it audits.

    ``reports`` maps net name -> ``NoiseReport`` (nets that failed or
    produced degraded reports are skipped: a degraded fast-path result
    legitimately diverges from a clean oracle run).  Returns the
    ``audit`` block merged into the run manifest::

        {"rate": ..., "seed": ..., "eligible": N, "sampled": [...],
         "checked": n, "mismatches": [{"net": ..., "field": ...,
         "screened": ..., "oracle": ..., "delta": ...}, ...],
         "tolerance": ..., "ok": bool}
    """
    from repro.sim.nonlinear import dense_reference

    analyze_kwargs = dict(analyze_kwargs or {})
    eligible = [net for net in nets
                if reports.get(net.name) is not None
                and reports[net.name].quality == "exact"]
    rng = random.Random(seed)
    sampled = [net for net in eligible if rng.random() < rate]
    mismatches: list[dict] = []
    checked = 0
    for net in sampled:
        with dense_reference():
            oracle = analyzer.analyze(net, **analyze_kwargs)
        if oracle.quality != "exact":
            log.warning("audit: oracle run for %s degraded (%s); "
                        "skipping comparison", net.name,
                        [d.stage for d in oracle.degradations])
            continue
        checked += 1
        screened = reports[net.name]
        for field in AUDIT_FIELDS:
            lhs = float(getattr(screened, field))
            rhs = float(getattr(oracle, field))
            delta = abs(lhs - rhs)
            if not math.isfinite(delta) or delta > AUDIT_TOLERANCE:
                mismatches.append({
                    "net": net.name, "field": field, "screened": lhs,
                    "oracle": rhs, "delta": delta})
    metrics().counter("trust.audit.checked").inc(checked)
    metrics().counter("trust.audit.mismatches").inc(len(mismatches))
    for miss in mismatches:
        log.error("audit mismatch on %s.%s: screened %.6e vs oracle "
                  "%.6e (|delta| %.3e > %.0e)", miss["net"],
                  miss["field"], miss["screened"], miss["oracle"],
                  miss["delta"], AUDIT_TOLERANCE)
    return {"rate": rate, "seed": seed, "eligible": len(eligible),
            "sampled": [net.name for net in sampled],
            "checked": checked, "mismatches": mismatches,
            "tolerance": AUDIT_TOLERANCE, "ok": not mismatches}


def __getattr__(name: str):
    # TrustViolation subclasses ConvergenceError so the existing
    # dt-bisection / DC-recovery ladders still catch it; the class
    # lives in repro.sim.nonlinear (which imports this module) and is
    # re-exported here lazily to avoid the import cycle.
    if name == "TrustViolation":
        from repro.sim.nonlinear import TrustViolation
        return TrustViolation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
