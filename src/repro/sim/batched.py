"""Batched multi-candidate transient kernel.

The worst-case alignment search (:mod:`repro.core.exhaustive`) runs tens
of full non-linear receiver simulations that differ *only* in the input
source waveform: same topology, same grid, same backward-Euler matrix
``A = C/h + G``.  Running them one at a time re-pays the whole per-step
machinery S times for work that is identical across candidates.

:func:`simulate_nonlinear_batch` instead carries all S candidates as one
``(S, dim)`` state block:

* ``A`` is factored **once** per (circuit, dt) — the factors live on the
  cached :class:`~repro.circuit.mna.MnaSystem`, shared across calls;
* each backward-Euler step is a multi-RHS solve
  (:meth:`~repro.sim.factor.Factorization.solve_rows`) plus one
  vectorized device evaluation over candidates × devices
  (:func:`repro.devices.evaluate_batch` with a leading candidate axis);
* Newton runs with a per-candidate convergence mask: converged
  candidates drop out of the active set (``newton.batched.active``
  counts candidate-iterations, so the shrinkage is visible in
  ``repro trace summarize``), and the per-candidate Woodbury system uses
  the same ``W = A⁻¹ E_R`` block as the scalar fast kernel;
* a candidate the block solve cannot converge falls back to the
  *existing scalar recovery ladder* — full-dt scalar solve first, then
  dt-bisection (``_integrate_bisect``) — so the resilience guarantees of
  :mod:`repro.sim.nonlinear` are preserved per candidate, not per batch.

Semantics: every candidate converges to the same Newton root as a
serial :func:`~repro.sim.nonlinear.simulate_nonlinear` run with its
waveform bound, within the 1e-9 V equivalence gate (the only difference
is BLAS gemm-vs-gemv rounding).  A single-candidate batch delegates to
the scalar path outright and is bit-identical to it.

The block solve fires the ``newton.batched`` fault point once per time
step; an injected convergence fault there demotes the whole step to the
scalar per-candidate path, which the equivalence tests use to prove the
fallback reproduces serial results.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import trust as _trust
from repro.circuit.elements import Stimulus
from repro.circuit.mna import MnaSystem, build_mna
from repro.devices.mosfet import evaluate_batch_channel
from repro.circuit.netlist import Circuit
from repro.obs import metrics
from repro.sim import nonlinear as _nl
from repro.resilience.faults import InjectedCorruption
from repro.resilience.faults import fire as _fire_fault
from repro.sim.factor import is_sparse_matrix

try:  # pragma: no cover - container ships scipy; gate for safety
    from scipy import sparse as _sp
except ImportError:  # pragma: no cover
    _sp = None
from repro.sim.nonlinear import (
    ConvergenceError,
    _CONVERGED,
    _DAMP_LIMIT,
    _DeviceBatch,
    _FACTOR_HIT,
    _FACTOR_MISS,
    _ITERATIONS,
    _MAX_ITERATIONS,
    _MAX_SUBSTEP_DEPTH,
    _RECOVERED_SUBSTEP,
    _VTOL,
    _cached_solver,
    _dc_solve,
    _device_batch,
    _device_gains,
    _integrate_bisect,
    _kernel_factory,
    _py_tables,
    _solve_small,
    _woodbury_base,
    _woodbury_py,
    simulate_nonlinear,
)
from repro.sim.result import SimulationResult, time_grid

__all__ = ["simulate_nonlinear_batch"]

#: Candidate-iterations executed by block solves: the ratio of this to
#: (steps x S) shows how fast the active set drains.
_ACTIVE = metrics().counter("newton.batched.active")
#: Block solves performed (one per time step per batch).
_SOLVES = metrics().counter("newton.batched.solves")
#: Candidates demoted from a block solve to the scalar ladder.
_FALLBACK = metrics().counter("newton.batched.fallback")

#: Largest cross-candidate state spread [V] at which a stimulus-settled
#: batch collapses onto one representative trajectory.  Three orders of
#: magnitude inside the 1e-9 V solver equivalence gate: the circuits are
#: dissipative, so once candidates agree this closely under identical
#: drive they never diverge again.
_COLLAPSE_TOL = 1e-12

#: Active-candidates x devices count at or below which a block
#: iteration switches to the dispatch-free per-candidate loop: once the
#: active set has drained to a couple of stragglers, numpy's fixed
#: per-call cost on length-2 arrays exceeds the whole scalar iteration.
_PY_TAIL_MAX = 8

#: Accepted batched candidate rows demoted to the scalar trust ladder
#: by the block residual audit.
_BLOCK_VIOLATIONS = metrics().counter("trust.batched.violations")


class _BlockAudit:
    """Sampled residual audit over accepted ``(S, dim)`` state blocks.

    The batched twin of :class:`repro.sim.nonlinear._VerifiedSolve`:
    non-finite rows are caught every step, and every
    ``repro.trust.CHECK_INTERVAL``-th step the full backward-Euler residual is
    recomputed per candidate against the *raw* (un-folded) ``A`` plus
    full device currents.  A violating candidate is not repaired in
    place — it is demoted to the existing scalar fallback list, where
    the trust-wrapped scalar kernel re-solves (and, if needed,
    escalates) it, so both paths share one ladder.
    """

    __slots__ = ("kernel", "anorm", "tol", "interval", "count")

    def __init__(self, kernel: _BatchedKernel):
        self.kernel = kernel
        self.anorm = _trust.matrix_norm1(kernel.A)
        self.tol = _trust.residual_tolerance(kernel.A.shape[0],
                                             _trust.NEWTON_RTOL)
        self.interval = _trust.CHECK_INTERVAL
        self.count = 0

    def suspects(self, X: np.ndarray, X_prev: np.ndarray,
                 rhs_k: np.ndarray, failed: list[int],
                 context: str) -> list[int]:
        """Candidate indices whose accepted rows fail verification."""
        forced = False
        try:
            _fire_fault("trust.verify", context)
        except InjectedCorruption as fault:
            X[0] = _nl._corrupt_state(X[0], fault.kind)
            forced = True
        self.count += 1
        ok = np.ones(X.shape[0], dtype=bool)
        if failed:
            ok[failed] = False
        if not (forced or self.count % self.interval == 0):
            # Unsampled step: the finiteness guard alone, like the
            # scalar wrapper.  A non-finite row still forces the full
            # residual pass below so it is flagged with a reason.
            if np.isfinite(X[ok]).all():
                return []
        kernel = self.kernel
        _trust.count_check()
        B = (kernel.Ch @ X_prev.T).T + rhs_k
        R = B - (kernel.A @ X.T).T
        batch = kernel.batch
        if batch.n:
            i, _ = batch.evaluate_many(X)
            batch.sub_currents_many(R, i)
        den = (self.anorm
               * (np.abs(X).max(axis=1) + _trust.VOLTAGE_FLOOR)
               + np.abs(B).max(axis=1))
        with np.errstate(invalid="ignore"):
            rel = np.abs(R).max(axis=1) / den
        bad = ok & ~(np.isfinite(rel) & (rel <= self.tol))
        if not bad.any():
            return []
        suspects = [int(c) for c in np.nonzero(bad)[0]]
        _BLOCK_VIOLATIONS.inc(len(suspects))
        worst = float(np.nanmax(rel[bad])) if np.isfinite(
            rel[bad]).any() else float("inf")
        _trust.record_event(
            "violation", context=context,
            detail=(f"batched residual audit flagged candidate(s) "
                    f"{suspects} (worst relative residual {worst:.3e} "
                    f"vs {self.tol:.3e})"))
        return suspects


def _fold_gmin(A, batch: _DeviceBatch):
    """``A`` plus every device's constant drain-source gmin shunt.

    The shunt is linear: folding it into the base matrix (instead of
    re-stamping it into every residual and Jacobian) leaves the Newton
    root unchanged and lets the device evaluation run channel-only.
    """
    gm = batch.params.gmin
    d_idx, s_idx = batch.id_, batch.is_
    mask_d, mask_s = d_idx >= 0, s_idx >= 0
    both = mask_d & mask_s
    rows = np.concatenate([d_idx[mask_d], s_idx[mask_s], d_idx[both],
                           s_idx[both]])
    cols = np.concatenate([d_idx[mask_d], s_idx[mask_s], s_idx[both],
                           d_idx[both]])
    vals = np.concatenate([gm[mask_d], gm[mask_s], -gm[both], -gm[both]])
    if is_sparse_matrix(A):
        return (A + _sp.coo_matrix((vals, (rows, cols)),
                                   shape=A.shape)).tocsc()
    A = A.copy()
    np.add.at(A, (rows, cols), vals)
    return A


class _BatchedKernel:
    """Active-set Newton over an ``(S, dim)`` state block.

    Shares the scalar fast kernel's structure — the same routing rule
    (:func:`~repro.sim.nonlinear._woodbury_base`) over the gmin-folded
    base ``A``, precomputed ``W = A⁻¹ E_R``, per-iteration ``k×k``
    Woodbury solves — but batched over candidates.  ``available`` is
    False when the rule rejects the base; callers then run every
    candidate through the scalar path.
    """

    __slots__ = ("A", "Ch", "batch", "fact", "W", "available", "sparse",
                 "AinvT", "HchT", "Gdev", "P", "TWf", "sel",
                 "_pyt", "_xbuf", "_dbuf")

    def __init__(self, A: np.ndarray, Ch: np.ndarray,
                 batch: _DeviceBatch):
        self.A = A
        self.Ch = Ch
        self.batch = batch
        self.sparse = is_sparse_matrix(A)
        self.AinvT = self.HchT = self.Gdev = None
        self.P = self.TWf = self.sel = None
        self._pyt = self._xbuf = self._dbuf = None
        base = _woodbury_base(_fold_gmin(A, batch) if batch.n else A,
                              batch)
        self.available = base is not None
        self.fact, self.W = base or (None, None)
        if self.available:
            self._precompute()

    def _precompute(self) -> None:
        """Fold the scatter maps through ``A⁻¹`` once, so an iteration
        is a handful of small GEMMs with no ``np.add.at`` and no linear
        solve:

        * ``AinvT``/``HchT`` hoist the per-step base solve out of the
          Newton loop entirely — ``U = A⁻¹B`` is one GEMM (or, in the
          transient loop, ``X_prev @ HchT`` plus a precomputed RHS term);
        * ``Gdev = A⁻¹ F`` turns the residual current scatter *and* its
          solve into one ``(a, n) @ (n, dim)`` product —
          ``A⁻¹(B - A·X - scatter(i)) == U - X + i @ Gdev``;
        * ``P`` replays the (sign-folded) Jacobian scatter as a gemm, so
          the correction block is ``(Dsel @ P).reshape(a, k, dim)``;
        * ``TWf`` pre-contracts ``P`` with ``W``: the Woodbury matrix
          ``M @ W`` becomes ``(Dsel @ TWf).reshape(a, k, k)``;
        * ``_pyt`` holds the shared dispatch-free loop's tables for the
          straggler tail (:meth:`_finish_py`).
        """
        batch, fact = self.batch, self.fact
        n, dim, k = batch.n, batch.dim, batch.k
        if not self.sparse:
            # Sparse systems skip the dense A⁻¹ hoist entirely — the
            # explicit inverse is dense fill, the very cost the sparse
            # backend exists to avoid.  Their per-step base solves go
            # through the SuperLU factors (see base_rows) instead.
            self.AinvT = fact.solve(np.eye(dim)).T
            self.HchT = self.Ch.T @ self.AinvT
        if n:
            self.Gdev = _device_gains(batch, fact)
        if k and n and batch.m_flat.size:
            m = batch.m_flat.size
            P = np.zeros((m, k * dim))
            np.add.at(P, (np.arange(m), batch.m_flat), batch.m_sign)
            self.P = P
            self.TWf = (P.reshape(m, k, dim) @ self.W).reshape(m, k * k)
            # Flat gather from the (a, 3n) derivative block: entry e
            # reads derivative source m_src[e] of device m_dev[e].
            self.sel = batch.m_src * n + batch.m_dev
        # Everything is expressed against the gmin-folded A, so the
        # tail's device model runs channel-only.
        self._pyt = _py_tables(batch, fact, self.W, gmin_folded=True,
                               gains=self.Gdev)

    def base_rows(self, B: np.ndarray) -> np.ndarray:
        """``A⁻¹`` applied to every row of ``B`` — one GEMM against the
        hoisted dense inverse, or a multi-RHS SuperLU solve."""
        if self.AinvT is not None:
            return B @ self.AinvT
        return self.fact.solve_rows(B)

    def solve_from_u(self, U: np.ndarray, X0: np.ndarray,
                     context: str) -> tuple[np.ndarray, list[int]]:
        """Newton-solve every row of ``B`` from the ``X0`` block, given
        ``U = A⁻¹B`` (:meth:`base_rows`).

        Returns ``(X, failed)`` where ``failed`` lists candidate indices
        that did not converge (singular per-candidate Jacobian or
        iteration cap) — their rows of ``X`` are undefined and must be
        recomputed by the caller through the scalar ladder.  Iteration
        ordering per candidate mirrors the scalar kernel exactly:
        compute delta, clamp to the damping limit, apply, accept on the
        *unclamped* step norm.  The transient loop assembles ``U``
        directly from ``X_prev @ HchT`` plus the precomputed RHS term,
        so no per-step linear solve remains anywhere on the hot path.
        """
        _fire_fault("newton.batched", context)
        _SOLVES.inc()
        batch, W = self.batch, self.W
        n, dim, k = batch.n, batch.dim, batch.k
        S = U.shape[0]
        X = X0.copy()
        active = np.arange(S)
        failed: list[int] = []
        if n:
            if self._xbuf is None or self._xbuf.shape[0] < S:
                # Extended-state scratch: one extra zero column is the
                # ground slot the gather map redirects to.
                self._xbuf = np.zeros((S, dim + 1))
                self._dbuf = np.empty((S, 3 * n))
            gather = batch.gather
        kk = k + 1
        for iteration in range(1, _MAX_ITERATIONS + 1):
            a = active.size
            if self._pyt is not None and a * n <= _PY_TAIL_MAX:
                return self._finish_py(U, X, active, failed, iteration)
            _ACTIVE.inc(a)
            full = a == S
            Xa = X if full else X[active]
            Ua = U if full else U[active]
            if n:
                xb = self._xbuf[:a]
                xb[:, :dim] = Xa
                v = xb[:, gather]  # (a, 3, n)
                i, d2 = evaluate_batch_channel(batch.params, v,
                                               self._dbuf[:a])
                Y = Ua - Xa + i @ self.Gdev
            else:
                Y = Ua - Xa
            singular = None
            if self.sel is not None:
                Dsel = d2[:, self.sel]            # (a, m)
                Smat = Dsel @ self.TWf            # (a, k*k), row-major
                Smat[:, ::kk] += 1.0              # + identity diagonal
                M = (Dsel @ self.P).reshape(a, k, dim)
                r_small = np.matmul(M, Y[:, :, None])[:, :, 0]
                if k == 1:
                    s00 = Smat[:, 0]
                    bad = s00 == 0.0
                    if bad.any():
                        singular = bad
                        s00 = np.where(bad, 1.0, s00)
                    Z = r_small / s00[:, None]
                elif k == 2:
                    # Closed-form 2x2 solve: the np.linalg.solve stack
                    # wrapper costs ~10x the arithmetic at this size.
                    s00, s01 = Smat[:, 0], Smat[:, 1]
                    s10, s11 = Smat[:, 2], Smat[:, 3]
                    det = s00 * s11 - s01 * s10
                    bad = det == 0.0
                    if bad.any():
                        singular = bad
                        det = np.where(bad, 1.0, det)
                    r0, r1 = r_small[:, 0], r_small[:, 1]
                    Z = np.empty_like(r_small)
                    Z[:, 0] = (s11 * r0 - s01 * r1) / det
                    Z[:, 1] = (s00 * r1 - s10 * r0) / det
                else:
                    Smat = Smat.reshape(a, k, k)
                    try:
                        Z = np.linalg.solve(Smat, r_small[:, :, None]
                                            )[:, :, 0]
                    except np.linalg.LinAlgError:
                        # np.linalg.solve rejects the whole stack if
                        # *any* candidate's system is singular: peel
                        # them apart and keep the healthy ones
                        # converging.
                        singular = np.zeros(a, dtype=bool)
                        Z = np.zeros_like(r_small)
                        for j in range(a):
                            z, bad_j = _solve_small(Smat[j].copy(),
                                                    r_small[j].copy())
                            if bad_j:
                                singular[j] = True
                            else:
                                Z[j] = z
                delta = Y - Z @ W.T
            else:
                delta = Y
            if singular is not None and singular.any():
                # det J = det A * det S — same failure the scalar
                # kernel raises ConvergenceError for; the caller's
                # ladder takes over for just these candidates.
                failed.extend(int(c) for c in active[singular])
                keep = ~singular
                active, delta = active[keep], delta[keep]
                if not active.size:
                    return X, failed
                full = False
            steps = np.abs(delta).max(axis=1)
            if steps.max() > _DAMP_LIMIT:
                clamp = steps > _DAMP_LIMIT
                delta[clamp] *= (_DAMP_LIMIT / steps[clamp])[:, None]
            if full:
                X += delta
            else:
                X[active] += delta
            converged = steps < _VTOL
            n_conv = int(converged.sum())
            if n_conv:
                _ITERATIONS.observe(iteration, n_conv)
                active = active[~converged]
                if not active.size:
                    return X, failed
        failed.extend(int(c) for c in active)
        return X, failed

    def _finish_py(self, U: np.ndarray, X: np.ndarray,
                   active: np.ndarray, failed: list[int],
                   start_iteration: int) -> tuple[np.ndarray, list[int]]:
        """Run the remaining active candidates to convergence, one at a
        time, through the shared dispatch-free loop
        (:func:`~repro.sim.nonlinear._woodbury_py`).

        Same iteration semantics as the block path — iteration numbering
        continues from ``start_iteration``, and a singular system or the
        iteration cap demotes the candidate to ``failed`` — just without
        numpy's per-call overhead, which dominates once only a straggler
        or two remain active.
        """
        iters = 0
        for c in active.tolist():
            x, used, outcome, _ = _woodbury_py(
                self._pyt, U[c].tolist(), X[c].tolist(), start_iteration)
            iters += used
            X[c] = x[:-1]
            if outcome == _CONVERGED:
                _ITERATIONS.observe(start_iteration + used - 1)
            else:
                failed.append(int(c))
        _ACTIVE.inc(iters)
        return X, failed


def _batched_kernel(circuit: Circuit, mna: MnaSystem,
                    h: float) -> _BatchedKernel:
    """Per-(mna, h) kernel cache mirroring the scalar ``_cached_solver``."""
    cache = mna.__dict__.setdefault("_batched_kernels", {})
    kernel = cache.get(h)
    if kernel is None:
        Ch = mna.C / h
        kernel = _BatchedKernel(Ch + mna.G, Ch,
                                _device_batch(circuit, mna))
        cache[h] = kernel
        _FACTOR_MISS.inc()
    else:
        _FACTOR_HIT.inc()
    return kernel


def _bisect_step(mna: MnaSystem, G: np.ndarray, C: np.ndarray, make,
                 bisect_solvers: dict, x_prev: np.ndarray,
                 times: np.ndarray, k: int,
                 overrides: dict[str, Stimulus], name: str) -> np.ndarray:
    """Per-candidate recovery ladder for one failed transient step.

    Same shape as the scalar transient flow: bisect the step with a
    candidate-specific RHS closure, counting the save.
    """
    def rhs_of(t, _ov=overrides):
        return mna.rhs_matrix(np.array([t]), overrides=_ov)[:, 0]

    t_mid = 0.5 * (times[k - 1] + times[k])
    x_mid = _integrate_bisect(
        mna, G, C, make, bisect_solvers, x_prev, times[k - 1], t_mid,
        name, _MAX_SUBSTEP_DEPTH - 1, rhs_of)
    x = _integrate_bisect(
        mna, G, C, make, bisect_solvers, x_mid, t_mid, times[k], name,
        _MAX_SUBSTEP_DEPTH - 1, rhs_of)
    _RECOVERED_SUBSTEP.inc()
    return x


def _simulate_with_overrides(circuit: Circuit,
                             overrides: dict[str, Stimulus],
                             t_stop: float, dt: float, *,
                             t_start: float,
                             x0: np.ndarray | None = None
                             ) -> SimulationResult:
    """Scalar simulation with source stimuli temporarily rebound.

    Rebinding (instead of rebuilding the circuit) keeps the topology
    version unchanged, so the cached MNA system and factored kernels
    are reused — and the result is bit-identical to a serial sweep that
    rebinds the same way.
    """
    saved = {name: circuit.source_value(name) for name in overrides}
    try:
        for name, stim in overrides.items():
            circuit.set_source_value(name, stim)
        return simulate_nonlinear(circuit, t_stop, dt, t_start=t_start,
                                  x0=x0)
    finally:
        for name, stim in saved.items():
            circuit.set_source_value(name, stim)


def simulate_nonlinear_batch(circuit: Circuit,
                             stimuli: Sequence[dict[str, Stimulus]],
                             t_stop: float, dt: float, *,
                             t_start: float = 0.0,
                             x0: np.ndarray | None = None
                             ) -> list[SimulationResult]:
    """Transient-simulate S source-stimulus variants of one circuit.

    ``stimuli`` holds one override mapping (source name -> stimulus) per
    candidate; topology, grid and device population are shared, so all
    candidates advance through one factored backward-Euler system as an
    ``(S, dim)`` block.  Returns one :class:`SimulationResult` per
    candidate, in input order.

    ``x0`` may be a single ``(dim,)`` state (broadcast to every
    candidate) or an ``(S, dim)`` block.  A single-candidate batch — and
    every batch inside :func:`~repro.sim.nonlinear.dense_reference` —
    delegates to the scalar :func:`simulate_nonlinear`, bit-identically.
    """
    if not stimuli:
        raise ValueError(
            f"empty stimuli batch for {circuit.name}: need at least one "
            "candidate override mapping (use {} for the base circuit)")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt:g}")
    if t_stop <= t_start:
        raise ValueError(
            f"degenerate time grid for {circuit.name}: t_stop "
            f"({t_stop:g} s) must exceed t_start ({t_start:g} s)")
    for overrides in stimuli:
        for name in overrides:
            try:
                circuit.source_value(name)
            except KeyError as exc:
                raise ValueError(
                    f"stimulus override targets unknown source {name!r} "
                    f"of {circuit.name}") from exc

    S = len(stimuli)
    mna = build_mna(circuit, allow_devices=True)
    dim = mna.dim

    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape == (dim,):
            x0 = np.broadcast_to(x0, (S, dim))
        elif x0.shape != (S, dim):
            raise ValueError(
                f"x0 must have shape ({dim},) or ({S}, {dim}), "
                f"got {x0.shape}")

    if S == 1 or _nl._REFERENCE:
        # One candidate gains nothing from batching (and the scalar
        # path is the bit-exactness reference); the dense reference has
        # no batched form at all.
        return [
            _simulate_with_overrides(
                circuit, overrides, t_stop, dt, t_start=t_start,
                x0=None if x0 is None else x0[c])
            for c, overrides in enumerate(stimuli)
        ]

    times = time_grid(t_stop, dt, t_start)
    h = times[1] - times[0]
    # (T, S, dim): the hot loop reads one contiguous (S, dim) slab per
    # step instead of a strided (S, dim, T) slice.
    rhs = np.ascontiguousarray(np.stack(
        [mna.rhs_matrix(times, overrides=s) for s in stimuli]
    ).transpose(2, 0, 1))
    G, C = mna.G, mna.C
    make = _kernel_factory(circuit, mna)
    kernel = _batched_kernel(circuit, mna, h)

    # DC operating points.  G is frequently singular here (nodes held
    # only by devices), which rules out the block kernel at DC — but
    # candidate waveforms almost always agree at t_start (the pulse
    # window hasn't opened yet), so de-duplicating the t_start RHS
    # usually collapses S DC solves into one.
    if x0 is None:
        X = np.empty((S, dim))
        unique_rhs, inverse = np.unique(rhs[0], axis=0, return_index=False,
                                        return_inverse=True)
        inverse = inverse.reshape(-1)
        for u in range(unique_rhs.shape[0]):
            x_u = _dc_solve(mna, make, unique_rhs[u], circuit.name)
            X[inverse == u] = x_u
    else:
        X = x0.copy()

    states = np.empty((times.size, S, dim))
    states[0] = X

    Urhs = None
    if kernel.available and kernel.AinvT is not None:
        # A⁻¹·rhs for the whole grid in one multi-RHS GEMM: with HchT
        # this removes every per-step linear solve from the loop.  The
        # sparse kernel keeps the per-step SuperLU solve instead (a
        # dense A⁻¹ hoist would be O(dim²) fill).
        Urhs = rhs.reshape(-1, dim) @ kernel.AinvT
        Urhs = Urhs.reshape(times.size, S, dim)
    # Tail collapse: every sweep candidate differs only in its stimulus,
    # and stimuli end.  Once the RHS rows are identical from here to
    # t_stop *and* the states have relaxed onto one trajectory (within
    # _COLLAPSE_TOL — far inside the 1e-9 V equivalence gate), a single
    # representative carries the remaining steps and is broadcast back.
    tail_same = np.logical_and.accumulate(
        np.all(rhs == rhs[:, :1, :], axis=(1, 2))[::-1])[::-1]
    collapsed_at = None
    scalar_solve = None  # built lazily; most batches never fall back
    bisect_solvers: dict = {}
    audit = (_BlockAudit(kernel)
             if _trust.trust_enabled() and kernel.available else None)
    for k in range(1, times.size):
        if collapsed_at is not None:
            _SOLVES.inc()
            _ACTIVE.inc(1)
            x_prev = states[k - 1, 0]
            b = kernel.Ch @ x_prev
            b += rhs[k, 0]
            g = (3.0 * (x_prev - states[k - 2, 0]) + states[k - 3, 0]
                 if k >= 3 else x_prev + (x_prev - states[k - 2, 0]))
            context = f"t={times[k]:.3e}s batch of {circuit.name}"
            try:
                _fire_fault("newton.batched", context)
                states[k, 0] = scalar_solve(b, g, context)
            except ConvergenceError:
                _FALLBACK.inc()
                states[k, 0] = _bisect_step(
                    mna, G, C, make, bisect_solvers, x_prev.copy(),
                    times, k, stimuli[0],
                    f"candidate 0 of {circuit.name}")
            continue
        X_prev = states[k - 1]
        # Quadratic-extrapolation warm start (same as the scalar fast
        # path): one step-size order better than linear on the smooth
        # stretches, where almost all steps live — the converged root is
        # unchanged either way, only the iteration count drops.
        if k >= 3:
            guess = 3.0 * (X_prev - states[k - 2]) + states[k - 3]
        elif k == 2:
            guess = X_prev + (X_prev - states[k - 2])
        else:
            guess = X_prev.copy()
        block_context = f"t={times[k]:.3e}s batch of {circuit.name}"
        if kernel.available:
            if Urhs is not None:
                U = X_prev @ kernel.HchT
                U += Urhs[k]
            else:
                U = kernel.base_rows((kernel.Ch @ X_prev.T).T + rhs[k])
            try:
                X, failed = kernel.solve_from_u(U, guess, block_context)
            except ConvergenceError:
                X, failed = X_prev.copy(), list(range(S))
        else:
            X, failed = X_prev.copy(), list(range(S))
        suspects: list[int] = []
        if audit is not None:
            suspects = audit.suspects(X, X_prev, rhs[k], failed,
                                      block_context)
            failed = failed + suspects
        for c in failed:
            _FALLBACK.inc()
            if scalar_solve is None:
                scalar_solve = _cached_solver(
                    mna, (_trust.trust_enabled(), h),
                    lambda: (make(kernel.Ch + G), kernel.Ch))[0]
            overrides = stimuli[c]
            x_prev = X_prev[c].copy()
            b_c = kernel.Ch @ x_prev + rhs[k, c]
            context = f"t={times[k]:.3e}s candidate {c} of {circuit.name}"
            try:
                X[c] = scalar_solve(b_c, guess[c].copy(), context)
                if c in suspects:
                    _trust.record_event(
                        "escalated", context=context,
                        hop="scalar-resolve",
                        detail=(f"candidate {c} re-solved through the "
                                "scalar trust ladder"))
            except ConvergenceError:
                X[c] = _bisect_step(
                    mna, G, C, make, bisect_solvers, x_prev, times, k,
                    overrides, f"candidate {c} of {circuit.name}")
        states[k] = X
        if (tail_same[k] and S > 1
                and np.abs(X - X[0]).max() < _COLLAPSE_TOL):
            collapsed_at = k
            if scalar_solve is None:
                scalar_solve = _cached_solver(
                    mna, (_trust.trust_enabled(), h),
                    lambda: (make(kernel.Ch + G), kernel.Ch))[0]

    if collapsed_at is not None:
        states[collapsed_at + 1:, 1:, :] = states[collapsed_at + 1:,
                                                  :1, :]
    return [SimulationResult(mna, times,
                             np.ascontiguousarray(states[:, c, :].T))
            for c in range(S)]
