"""Linear transient simulation (trapezoidal rule, fixed step).

Solves the MNA descriptor system ``C x' + G x = rhs(t)`` with the
trapezoidal rule:

    (C/h + G/2) x_{k+1} = (C/h - G/2) x_k + (rhs_k + rhs_{k+1}) / 2

The left-hand matrix is constant on a uniform grid, so it is LU-factored
once and reused for every step — the property that makes the linear
superposition flow of the paper (Figure 1) practical for large nets.

The initial condition is the DC solution at ``t_start`` (capacitors open);
when ``G`` is singular because some nodes float at DC (e.g. nodes reached
only through coupling capacitors), a least-squares solution is used, which
picks the minimum-norm consistent initial state.

When the trust layer (:mod:`repro.trust`) is enabled, sampled steps —
every ``4 * repro.trust.CHECK_INTERVAL``-th plus the final one — are
post-verified with the relative residual of the raw trapezoidal system;
a violating step is re-solved fresh against a dense rebuild of the
left-hand matrix and the hop recorded as a trust event.  Direct solves are
backward stable, so the audit tolerance sits many orders above a
legitimate step and any violation means the factorization itself went
bad.
"""

from __future__ import annotations

import numpy as np
from repro import trust as _trust
from repro.circuit.mna import MnaSystem, build_mna
from repro.circuit.netlist import Circuit
from repro.resilience.faults import InjectedCorruption
from repro.resilience.faults import fire as _fire_fault
from repro.sim.factor import factorize, is_sparse_matrix
from repro.sim.result import SimulationResult, time_grid

__all__ = ["simulate_linear", "trapezoidal"]

#: Linear-step audits sample 4x sparser than the Newton wrapper: the
#: check costs up to two extra mat-vecs against a one-mat-vec step, so
#: the denser cadence would be a measurable clean-path tax here.
_LINEAR_CHECK_STRIDE = 4


class _StepAudit:
    """Sampled residual audit for a trapezoidal time loop.

    Step ``k`` (the solve producing state ``k + 1``) is due when ``k``
    is a multiple of the stride or the loop's last step.
    """

    __slots__ = ("A", "anorm", "tol", "dense_A", "stride", "last")

    def __init__(self, A, steps: int):
        self.A = A
        self.anorm = _trust.matrix_norm1(A)
        self.tol = _trust.residual_tolerance(A.shape[0],
                                             _trust.LINEAR_RTOL)
        self.dense_A = None
        self.stride = _LINEAR_CHECK_STRIDE * _trust.CHECK_INTERVAL
        self.last = steps - 1

    def due(self, k: int) -> bool:
        return k % self.stride == 0 or k == self.last

    def verify(self, x: np.ndarray, b: np.ndarray,
               context: str) -> np.ndarray:
        try:
            _fire_fault("trust.verify", context)
        except InjectedCorruption as fault:
            from repro.sim.nonlinear import _corrupt_state
            x = _corrupt_state(x, fault.kind)
        _trust.count_check()
        rel = _trust.relative_residual(self.A @ x - b, self.anorm, x, b)
        if rel <= self.tol:
            return x
        detail = f"relative residual {rel:.3e} > {self.tol:.3e}"
        _trust.record_event("violation", context=context, detail=detail)
        # Escalation: one fresh dense solve of the raw step system,
        # independent of the suspect factorization.
        hop = ("dense-rebuild" if is_sparse_matrix(self.A)
               else "fresh-solve")
        if self.dense_A is None:
            self.dense_A = (self.A.toarray()
                            if is_sparse_matrix(self.A) else self.A)
        try:
            fresh = np.linalg.solve(self.dense_A, b)
        except np.linalg.LinAlgError:
            fresh = None
        if fresh is not None:
            _trust.count_check()
            rel2 = _trust.relative_residual(self.A @ fresh - b,
                                            self.anorm, fresh, b)
            if rel2 <= self.tol:
                _trust.record_event("escalated", context=context,
                                    hop=hop, detail=detail)
                return fresh
        _trust.record_event("unrecovered", context=context,
                            detail=detail)
        from repro.sim.nonlinear import TrustViolation
        raise TrustViolation(
            f"linear step failed verification during {context} "
            f"({detail}) and the dense re-solve did not repair it")


def _dc_solve(G: np.ndarray, rhs0: np.ndarray) -> np.ndarray:
    if is_sparse_matrix(G):
        try:
            fact = factorize(G)
            _trust.observe_factorization(fact)
            return fact.solve(rhs0)
        except np.linalg.LinAlgError:
            # Singular at DC (floating coupling-only nodes): fall back
            # to the dense minimum-norm solution — a one-off cost, off
            # the per-step path.
            G = G.toarray()
            x0, *_ = np.linalg.lstsq(G, rhs0, rcond=None)
            return x0
    try:
        return np.linalg.solve(G, rhs0)
    except np.linalg.LinAlgError:
        x0, *_ = np.linalg.lstsq(G, rhs0, rcond=None)
        return x0


def trapezoidal(G, C, rhs: np.ndarray, times: np.ndarray,
                x0: np.ndarray | None = None, *,
                label: str = "linear") -> np.ndarray:
    """States of ``C x' + G x = rhs(t)`` on the uniform grid ``times``.

    ``rhs`` holds one column per time point; ``x0`` defaults to the DC
    solution of ``G x = rhs[:, 0]``.  The left-hand matrix is factored
    once and condition-monitored; with the trust layer on, sampled
    steps are audited under the context ``"t=...s <label> step"``.
    Shared by :func:`simulate_linear` and the reduced-order transient
    (:meth:`repro.mor.ReducedModel.simulate`).
    """
    h = times[1] - times[0]
    if x0 is None:
        x0 = _dc_solve(G, rhs[:, 0])
    A = C / h + G / 2.0
    Bmat = C / h - G / 2.0
    # The left-hand matrix is constant on the uniform grid: factor it
    # once (repro.sim.factor, shared with the non-linear kernel).
    fact = factorize(A)
    _trust.observe_factorization(fact)
    raw_avg = 0.5 * (rhs[:, :-1] + rhs[:, 1:])
    audit = (_StepAudit(A, times.size - 1) if _trust.trust_enabled()
             else None)

    states = np.empty((A.shape[0], times.size))
    states[:, 0] = x0
    x = x0
    if is_sparse_matrix(A):
        # Sparse path: a dense step matrix A⁻¹B would cost O(dim²) per
        # step and O(dim) triangular solves to form — exactly the fill
        # sparsity avoids.  Keep the loop as one sparse mat-vec plus one
        # pair of SuperLU triangular solves per step; the averaged
        # source columns still amortize through one multi-RHS solve.
        rhs_avg = fact.solve(np.ascontiguousarray(raw_avg))
        for k in range(times.size - 1):
            bx = Bmat @ x
            x = fact.solve(bx) + rhs_avg[:, k]
            if audit is not None and audit.due(k):
                x = audit.verify(x, bx + raw_avg[:, k],
                                 f"t={times[k + 1]:.3e}s {label} step")
            states[:, k + 1] = x
        return states
    # Dense path: pre-apply the factors to the step matrix and every
    # averaged source column, turning the time loop into one mat-vec
    # plus an add per step.
    step_matrix = fact.solve(Bmat)
    rhs_avg = fact.solve(raw_avg)
    for k in range(times.size - 1):
        x_prev = x
        x = step_matrix @ x + rhs_avg[:, k]
        if audit is not None and audit.due(k):
            x = audit.verify(x, Bmat @ x_prev + raw_avg[:, k],
                             f"t={times[k + 1]:.3e}s {label} step")
        states[:, k + 1] = x
    return states


def simulate_linear(circuit_or_mna: Circuit | MnaSystem, t_stop: float,
                    dt: float, *, t_start: float = 0.0,
                    x0: np.ndarray | None = None) -> SimulationResult:
    """Transient-simulate a linear circuit.

    Parameters
    ----------
    circuit_or_mna:
        Either a :class:`~repro.circuit.Circuit` (stamped on the fly) or a
        pre-built :class:`~repro.circuit.MnaSystem` (reuse when simulating
        the same topology with different stimuli).
    t_stop, dt, t_start:
        Uniform time grid specification.
    x0:
        Optional explicit initial state (defaults to the DC solution).
    """
    if isinstance(circuit_or_mna, MnaSystem):
        mna = circuit_or_mna
    else:
        mna = build_mna(circuit_or_mna)

    times = time_grid(t_stop, dt, t_start)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (mna.dim,):
            raise ValueError(f"x0 must have shape ({mna.dim},)")
    states = trapezoidal(mna.G, mna.C, mna.rhs_matrix(times), times, x0)
    return SimulationResult(mna, times, states)
