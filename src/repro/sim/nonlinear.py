"""Non-linear transient co-simulation (backward Euler + damped Newton).

This is the library's "Spice": it simulates circuits that mix MOSFET
devices with arbitrary linear RC networks and waveform-driven sources.
It is used for

* golden full-circuit delay-noise reference runs (paper Figures 2, 5, 13),
* gate characterization (Thevenin fitting, C-effective),
* the two non-linear driver runs of the transient-holding-resistance
  algorithm (paper Section 2, Step 3), and
* receiver-output delay evaluation during alignment search and
  pre-characterization (paper Section 3).

Method: backward Euler in time (L-stable, no trapezoidal ringing on the
stiff gate nodes) with a damped Newton solve per step.  Voltage updates
are clamped to ±0.5 V per iteration — the standard SPICE-style limiting
that keeps the square-law device from overshooting across regions.

Newton core
-----------
On a uniform grid ``A = C/h + G`` is constant for the whole simulation;
only the device part of the Jacobian ``J = A + ΔJ(x)`` moves, and it
touches only the ``k`` device drain/source rows.  :class:`_NewtonKernel`
exploits both facts:

* one routing rule (:func:`_woodbury_base`, shared with the batched
  kernel) admits ``A`` as a factored base when ``2k <= dim``, the
  factorization succeeds and its reciprocal condition estimate reaches
  the trust layer's ``RCOND_MIN``.  Each iteration is then solved
  through the Sherman–Morrison–Woodbury identity (``ΔJ = E_R M``):

      J⁻¹ = A⁻¹ − A⁻¹ E_R (I_k + M A⁻¹ E_R)⁻¹ M A⁻¹,

  with ``W = A⁻¹ E_R`` precomputed once per grid — two triangular
  solves plus a ``k×k`` solve per iteration (``newton.woodbury``);
* for a handful of nodes and one or two devices the Woodbury iteration
  runs dispatch-free on Python floats (:func:`_woodbury_py`), the loop
  the batched kernel also finishes its stragglers with;
* a base the rule rejects (e.g. nodes held only by devices at DC, where
  ``G`` is singular or nearly so) routes to exact Newton: a fresh full
  Jacobian at every iterate (``newton.jacobian_refresh``);
* devices are evaluated as one population
  (:func:`repro.devices.evaluate_batch`) and stamped by ``np.add.at``
  scatter over precomputed index arrays.

Inside :func:`dense_reference` every solve runs :func:`_reference_solve`
instead: a minimal dense Newton sharing no code with the kernel above —
the oracle of the equivalence tests, the differential audit
(:func:`repro.trust.run_audit`) and the trust ladder's last hop.

Recovery ladder
---------------
Newton non-convergence does not immediately kill a simulation:

* a failed *transient* step is re-integrated by bisecting the step —
  recursively halving ``dt`` down to ``dt / 2**_MAX_SUBSTEP_DEPTH`` —
  before giving up (a shorter backward-Euler step both shrinks the
  initial-guess error and stiffens the Jacobian diagonal);
* a failed *DC operating point* first retries with gmin stepping
  (a shrinking shunt conductance on every node, each solve
  warm-starting the next) and then with source-ramp homotopy (solving
  at increasing source amplitude fractions).

Each successful recovery bumps a ``newton.recovered.*`` counter so the
telemetry shows how often the ladder fires; the happy path is
untouched — the ladder lives entirely in the exception branch.

Trust layer
-----------
Nonconvergence is the *loud* failure mode; the quiet one is a wrong
converged state (ill-conditioned base factorization, corrupted Woodbury
update).  When :mod:`repro.trust` is enabled (the default), every fast
kernel built here is wrapped in :class:`_VerifiedSolve`: accepted
states get a finiteness guard on every solve and a sampled relative
residual audit, and a violation walks the escalation ladder — exact
Newton, then the dense reference (densified from sparse when needed) —
re-verifying after each hop and recording it through
:func:`repro.trust.record_event`.  A violation the whole
ladder cannot repair raises :class:`TrustViolation`, a
:class:`ConvergenceError` subclass, so the dt-bisection and DC
recovery ladders above still get their shot before the net is failed.
On a clean run the wrapper returns the kernel's states untouched —
results are bit-identical with the layer on or off.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from repro import trust as _trust
from repro.circuit.mna import MnaSystem, build_mna
from repro.circuit.netlist import Circuit
from repro.devices.mosfet import batch_params, evaluate_batch, evaluate_one
from repro.obs import metrics
from repro.resilience.faults import InjectedCorruption
from repro.resilience.faults import active_plan as _active_plan
from repro.resilience.faults import fire as _fire_fault
from repro.sim.factor import factorize, is_sparse_matrix
from repro.sim.result import SimulationResult, time_grid

try:  # pragma: no cover - container ships scipy; gate for safety
    from scipy import sparse as _sp
except ImportError:  # pragma: no cover
    _sp = None

__all__ = ["simulate_nonlinear", "dc_operating_point", "ConvergenceError",
           "TrustViolation"]

#: Maximum Newton voltage update per iteration [V].
_DAMP_LIMIT = 0.5
_MAX_ITERATIONS = 100
_VTOL = 1e-6

#: Population size below which device evaluation goes through the scalar
#: reference path instead of :func:`evaluate_batch`.  numpy dispatch
#: costs a couple of microseconds per array op regardless of length, so
#: for a handful of devices ~45 vector ops lose to a plain Python loop
#: over the (cheap, math-library) scalar model; the crossover sits
#: around a dozen devices.  Scatter/stamping is vectorized either way.
_BATCH_EVAL_MIN = 16

#: Transient recovery: maximum halvings of dt for one failed step.
_MAX_SUBSTEP_DEPTH = 4
#: DC recovery: gmin ladder [S]; ends at 0.0 = the original system.
_GMIN_LADDER = (1e-3, 1e-5, 1e-7, 0.0)
#: DC recovery: source-ramp homotopy amplitude fractions.
_RAMP_LEVELS = (0.25, 0.5, 0.75, 1.0)

# Cached instrument handles (registry.reset() zeroes them in place, so
# module-level caching is safe and keeps the per-solve cost to one
# bisect + two adds).
_ITERATIONS = metrics().histogram("newton.iterations")
_NONCONVERGED = metrics().counter("newton.nonconverged")
_SINGULAR = metrics().counter("newton.singular")
_RECOVERED_SUBSTEP = metrics().counter("newton.recovered.substep")
_RECOVERED_GMIN = metrics().counter("newton.recovered.gmin")
_RECOVERED_RAMP = metrics().counter("newton.recovered.source_ramp")
#: Newton iterations solved through the factored base + Woodbury update.
_WOODBURY = metrics().counter("newton.woodbury")
#: Full-Jacobian rebuilds performed by the exact-Newton path.
_REFRESH = metrics().counter("newton.jacobian_refresh")
#: Per-(trust, step-size) solver kernel reuse across simulate calls: a
#: hit means the backward-Euler matrix was *not* re-factored.
_FACTOR_HIT = metrics().counter("sim.factor_cache.hit")
_FACTOR_MISS = metrics().counter("sim.factor_cache.miss")


class ConvergenceError(RuntimeError):
    """Newton iteration failed to converge."""


class TrustViolation(ConvergenceError):
    """An accepted solve failed post-verification and every escalation
    hop (see :mod:`repro.trust`).

    Subclasses :class:`ConvergenceError` so the existing recovery
    ladders (dt bisection, gmin/source-ramp DC homotopy) treat an
    untrustworthy state like a nonconverged one rather than returning
    it.
    """


# ----------------------------------------------------------------------
# Dense reference selection
# ----------------------------------------------------------------------
#: True inside :func:`dense_reference`: every solve then runs
#: :func:`_reference_solve` instead of the fast kernel.
_REFERENCE = False


@contextmanager
def dense_reference(enabled: bool = True):
    """Run a code block's non-linear solves on the dense reference.

    The reference (:func:`_reference_solve`) exists for equivalence
    testing and the differential audit, not production use.  The
    previous selection is restored on exit.
    """
    global _REFERENCE
    previous = _REFERENCE
    _REFERENCE = enabled
    try:
        yield
    finally:
        _REFERENCE = previous


def dense_reference_active() -> bool:
    """True inside :func:`dense_reference`.

    Callers with a fast path of their own read it too: the
    superposition engine builds no reduced-order port model under the
    reference, so an oracle run simulates the full interconnect.
    """
    return _REFERENCE


# ----------------------------------------------------------------------
# Vectorized device population
# ----------------------------------------------------------------------
class _DeviceBatch:
    """Vectorized device population with precomputed scatter maps.

    Built once per circuit: terminal row indices (``-1`` = ground),
    packed device parameters, and flattened scatter indices for both the
    residual currents and the six Jacobian stamps of every device — so
    one Newton iteration is one device-population evaluation plus two
    ``np.add.at`` scatters, with no Python-level per-device stamping.
    """

    __slots__ = ("n", "dim", "params", "ig", "id_", "is_", "rows", "k",
                 "f_idx", "f_dev", "f_sign_neg", "m_flat",
                 "m_src", "m_dev", "m_sign", "gather", "scalar_devs",
                 "_mbuf")

    def __init__(self, mosfets, mna: MnaSystem):
        self.n = len(mosfets)
        self.dim = mna.dim
        self.params = batch_params(mosfets)
        self.ig = np.array([mna.row_of(m.gate) for m in mosfets],
                           dtype=np.intp)
        self.id_ = np.array([mna.row_of(m.drain) for m in mosfets],
                            dtype=np.intp)
        self.is_ = np.array([mna.row_of(m.source) for m in mosfets],
                            dtype=np.intp)

        # Gather maps with ground redirected to a zero slot appended at
        # index `dim` of an extended state vector: one fancy index pulls
        # all terminal voltages with no masking.  The scalar crossover
        # path keeps everything pre-unpacked as Python floats/ints.
        terminals = np.stack((self.ig, self.id_, self.is_))
        self.gather = np.where(terminals >= 0, terminals, self.dim)
        p = self.params
        self.scalar_devs = [
            (float(p.sign[j]), float(p.beta[j]), float(p.vt[j]),
             float(p.lam[j]), float(p.gmin[j]), int(self.gather[0, j]),
             int(self.gather[1, j]), int(self.gather[2, j]))
            for j in range(self.n)
        ]

        mask_d = self.id_ >= 0
        mask_s = self.is_ >= 0
        touched = np.concatenate([self.id_[mask_d], self.is_[mask_s]])
        self.rows = np.unique(touched)  # sorted device-touched rows
        self.k = int(self.rows.size)

        # Residual scatter: +i into drain rows, -i into source rows,
        # with the signs flipped for the negated-residual form.
        self.f_idx = np.concatenate([self.id_[mask_d], self.is_[mask_s]])
        self.f_dev = np.concatenate([np.nonzero(mask_d)[0],
                                     np.nonzero(mask_s)[0]])
        self.f_sign_neg = np.concatenate([-np.ones(int(mask_d.sum())),
                                          np.ones(int(mask_s.sum()))])

        # Jacobian scatter into the k x dim correction block M: flat
        # index, derivative source (0=dg, 1=dd, 2=ds), device index and
        # sign for each of the up-to-six stamps per device.
        flat, src, dev, sgn = [], [], [], []
        for r_arr, r_mask, row_sign in ((self.id_, mask_d, 1.0),
                                        (self.is_, mask_s, -1.0)):
            for source, c_arr in enumerate((self.ig, self.id_, self.is_)):
                mask = r_mask & (c_arr >= 0)
                devices = np.nonzero(mask)[0]
                if not devices.size:
                    continue
                pos = np.searchsorted(self.rows, r_arr[mask])
                flat.append(pos * self.dim + c_arr[mask])
                src.append(np.full(devices.size, source, dtype=np.intp))
                dev.append(devices)
                sgn.append(np.full(devices.size, row_sign))
        empty_i = np.empty(0, dtype=np.intp)
        self.m_flat = np.concatenate(flat) if flat else empty_i
        self.m_src = np.concatenate(src) if src else empty_i
        self.m_dev = np.concatenate(dev) if dev else empty_i
        self.m_sign = np.concatenate(sgn) if sgn else np.empty(0)
        self._mbuf = np.empty((self.k, self.dim))

    def evaluate(self, x: np.ndarray):
        """Currents ``i`` and derivative block ``D = [dg; dd; ds]``.

        ``i`` has one entry per device; ``D`` is ``(3, n)``.
        """
        if self.n < _BATCH_EVAL_MIN:
            # Tiny population: the scalar reference model through a
            # Python loop beats numpy dispatch overhead (see
            # _BATCH_EVAL_MIN).  Same math, same outputs.
            xl = x.tolist()
            xl.append(0.0)  # ground slot
            out = np.array([evaluate_one(sg, be, vt, lm, gm,
                                         xl[g], xl[d], xl[s])
                            for sg, be, vt, lm, gm, g, d, s
                            in self.scalar_devs])
            return out[:, 0], out.T[1:]
        x_ext = np.empty(x.size + 1)
        x_ext[:-1] = x
        x_ext[-1] = 0.0
        vg, vd, vs = x_ext[self.gather]
        i, dg, dd, ds = evaluate_batch(self.params, vg, vd, vs)
        return i, np.stack((dg, dd, ds))

    def sub_currents(self, R: np.ndarray, i: np.ndarray) -> None:
        """Scatter-subtract device currents from the negated residual."""
        if self.f_idx.size:
            np.add.at(R, self.f_idx, self.f_sign_neg * i[self.f_dev])

    def correction(self, D: np.ndarray) -> np.ndarray:
        """Device Jacobian contribution as a ``k x dim`` row block.

        The returned array is a per-batch scratch buffer, overwritten by
        the next call — consume it before evaluating again.
        """
        M = self._mbuf
        M.fill(0.0)
        if self.m_flat.size:
            np.add.at(M.ravel(), self.m_flat,
                      self.m_sign * D[self.m_src, self.m_dev])
        return M

    # -- batched multi-candidate variants ------------------------------
    # Same math as evaluate/sub_currents with a leading candidate axis
    # ``a`` (the rows of an (S, dim) block: the batched kernel's
    # residual audit).  Always through evaluate_batch: with a >= 2
    # candidates the population is a*n and the scalar crossover above
    # no longer applies.
    def evaluate_many(self, X: np.ndarray):
        """Currents ``(a, n)`` and derivatives ``(a, 3, n)`` at each row
        of the ``(a, dim)`` state block ``X``."""
        x_ext = np.concatenate(
            [X, np.zeros((X.shape[0], 1))], axis=1)  # ground slot
        v = x_ext[:, self.gather]  # (a, 3, n)
        i, dg, dd, ds = evaluate_batch(self.params, v[:, 0], v[:, 1],
                                       v[:, 2])
        return i, np.stack((dg, dd, ds), axis=1)

    def sub_currents_many(self, R: np.ndarray, i: np.ndarray) -> None:
        """Scatter-subtract ``(a, n)`` device currents from the ``(a,
        dim)`` negated-residual block, per candidate row."""
        if self.f_idx.size:
            a = R.shape[0]
            np.add.at(R, (np.arange(a)[:, None], self.f_idx[None, :]),
                      self.f_sign_neg * i[:, self.f_dev])


try:  # Low-overhead LAPACK entry for the tiny k x k Woodbury system:
    # the np.linalg.solve wrapper costs several times the actual solve
    # at these sizes.
    from scipy.linalg.lapack import dgesv as _dgesv
except ImportError:  # pragma: no cover - scipy-less fallback
    _dgesv = None


def _solve_small(S: np.ndarray, rhs: np.ndarray):
    """Solve a small dense system; returns ``(solution, singular)``.

    Both inputs may be overwritten — callers pass freshly computed
    scratch arrays.
    """
    if _dgesv is not None:
        _, _, sol, info = _dgesv(S, rhs, 1, 1)
        return sol, info != 0
    try:
        return np.linalg.solve(S, rhs), False
    except np.linalg.LinAlgError:
        return rhs, True


def _applied_step(step: float) -> float:
    """Magnitude of the update actually applied after damping."""
    return min(step, _DAMP_LIMIT)


def _raise_nonconverged(residuals: np.ndarray, applied: float,
                        context: str):
    _NONCONVERGED.inc()
    worst = int(residuals.argmax()) if residuals.size else 0
    raise ConvergenceError(
        f"Newton did not converge within {_MAX_ITERATIONS} iterations "
        f"during {context} (last applied step {applied:.3e} V, worst "
        f"residual {residuals.max(initial=0.0):.3e} at node index {worst})")


# ----------------------------------------------------------------------
# Dense reference: the oracle every fast path is held to
# ----------------------------------------------------------------------
def _reference_devices(circuit: Circuit, mna: MnaSystem) -> list[tuple]:
    """``(mosfet, gate_row, drain_row, source_row)`` per device, with
    ``-1`` for a grounded terminal."""
    return [(m, mna.row_of(m.gate), mna.row_of(m.drain),
             mna.row_of(m.source)) for m in circuit.mosfets]


def _reference_solve(A: np.ndarray, b: np.ndarray, devices: list[tuple],
                     x: np.ndarray, context: str) -> np.ndarray:
    """Dense damped Newton on ``F(x) = A x + i_dev(x) - b``.

    Each MOSFET is stamped from its own :meth:`Mosfet.evaluate
    <repro.devices.mosfet.Mosfet.evaluate>` and the full Jacobian is
    solved by ``np.linalg.solve`` at every iterate: no factor reuse, no
    Woodbury update, no vectorized device model.  Damping, acceptance
    and the non-convergence diagnostic match the fast kernel's.
    """
    _fire_fault("newton.step", context)

    def assemble(x):
        F = A @ x - b
        J = A.copy()
        xg = np.append(x, 0.0)  # row -1 (ground) reads this 0 V slot
        for device, g, d, s in devices:
            i, di_g, di_d, di_s = device.evaluate(xg[g], xg[d], xg[s])
            for row, sign in ((d, 1.0), (s, -1.0)):
                if row >= 0:
                    F[row] += sign * i
                    for col, di in ((g, di_g), (d, di_d), (s, di_s)):
                        if col >= 0:
                            J[row, col] += sign * di
        return F, J

    x = x.copy()
    step = 0.0
    for iteration in range(1, _MAX_ITERATIONS + 1):
        F, J = assemble(x)
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            _SINGULAR.inc()
            raise ConvergenceError(
                f"singular Jacobian during {context}") from exc
        step = np.abs(delta).max(initial=0.0)
        if step > _DAMP_LIMIT:
            delta *= _DAMP_LIMIT / step
        x += delta
        if step < _VTOL:
            _ITERATIONS.observe(iteration)
            return x
    _raise_nonconverged(np.abs(assemble(x)[0]), _applied_step(step),
                        context)


def _dense(A):
    """``A`` as a dense array (the reference re-stamps dense)."""
    return A.toarray() if is_sparse_matrix(A) else A


# ----------------------------------------------------------------------
# Shared Woodbury pieces (scalar and batched kernels)
# ----------------------------------------------------------------------
def _woodbury_base(A, batch: _DeviceBatch):
    """The routing rule: may a kernel run Woodbury over a factored ``A``?

    Yes when ``2k <= dim``, the factorization succeeds and its
    reciprocal condition estimate is at least the trust layer's
    ``RCOND_MIN``: a factor that only rounding kept from being singular
    (``G`` with nodes held only by devices at DC) makes ``W``
    meaningless, and Woodbury then accepts a wrong state on its step
    size.  The test runs with the trust layer on or off, and only an
    accepted base is handed to the trust layer's condition monitor: a
    rejected one serves no solve, so it raises no condition warning.
    Returns ``(fact, W)`` with ``W = A⁻¹ E_R`` (``None`` when ``k`` is
    0), or ``None`` for exact Newton.
    """
    dim = A.shape[0]
    if 2 * batch.k > dim:
        return None
    try:
        fact = factorize(A)
    except np.linalg.LinAlgError:
        return None
    rcond = fact.rcond_estimate()
    if rcond is not None and rcond < _trust.RCOND_MIN:
        return None
    _trust.observe_factorization(fact)
    W = None
    if batch.k:
        selector = np.zeros((dim, batch.k))
        selector[batch.rows, np.arange(batch.k)] = 1.0
        W = fact.solve(selector)
    return fact, W


def _device_gains(batch: _DeviceBatch, fact) -> np.ndarray:
    """``A⁻¹F``: row ``d`` replays device ``d``'s (negated)
    residual-current scatter through the base solve, so
    ``A⁻¹(b - A x - scatter(i)) == A⁻¹b - x + i @ gains``."""
    F = np.zeros((batch.n, batch.dim))
    if batch.f_idx.size:
        np.add.at(F, (batch.f_dev, batch.f_idx), batch.f_sign_neg)
    return fact.solve_rows(F)


def _py_tables(batch: _DeviceBatch, fact, W: np.ndarray, *,
               gmin_folded: bool, gains: np.ndarray | None = None):
    """Tables of the dispatch-free loop (:func:`_woodbury_py`), or
    ``None`` outside the sizes where it wins.

    At a handful of nodes and one or two devices every numpy call on
    the iteration path is dominated by dispatch overhead (the economics
    of ``_BATCH_EVAL_MIN``).  Folding the scatter maps through ``A⁻¹``
    once turns an iteration into ~150 float operations with *zero*
    array temporaries: ``gains`` (:func:`_device_gains`, computed here
    unless passed) replaces the residual scatter and its base solve,
    and each Jacobian stamp carries its gather coordinates and its
    precontracted row of ``M W``, so the ``k×k`` Woodbury system
    accumulates in scalar registers and is solved in closed form
    (``k <= 2``).  ``gmin_folded`` says the devices' gmin shunt already
    sits in ``A``: the device model then runs channel-only.
    """
    n, dim, k = batch.n, batch.dim, batch.k
    if not (n and n < _BATCH_EVAL_MIN and k in (1, 2) and dim <= 24):
        return None
    if gains is None:
        gains = _device_gains(batch, fact)
    W_rows = [tuple(row) for row in W.tolist()]
    stamp_rows: list[list[tuple]] = [[] for _ in range(k)]
    for e in range(batch.m_flat.size):
        pos, col = divmod(int(batch.m_flat[e]), dim)
        sign = float(batch.m_sign[e])
        tw = tuple(sign * w for w in W_rows[col])
        stamp_rows[pos].append(
            (int(batch.m_src[e]), int(batch.m_dev[e]), col, sign) + tw)
    devs = batch.scalar_devs
    if gmin_folded:
        devs = [(sg, be, vt, lm, 0.0, g, d, s)
                for sg, be, vt, lm, _gm, g, d, s in devs]
    return ([tuple(row) for row in gains.tolist()], W_rows, stamp_rows,
            devs, dim, k)


#: Outcomes of :func:`_woodbury_py`.
_CONVERGED, _SINGULAR_K, _CAPPED = "converged", "singular", "capped"


def _woodbury_py(tables, u: list, x: list, first: int):
    """Dispatch-free Woodbury Newton from iteration number ``first`` on.

    ``tables`` come from :func:`_py_tables`; ``u = A⁻¹b`` and the start
    state ``x`` are plain lists (``x`` gains the ground slot in place).
    Damping and acceptance match every other Newton loop here.  Returns
    ``(x, used, outcome, step)``: the state (ground slot included), the
    iterations run, ``_CONVERGED``, ``_SINGULAR_K`` (singular ``k×k``
    system, so a singular Jacobian) or ``_CAPPED``, and the last step
    norm.
    """
    gdev, W_rows, stamp_rows, devs, dim, k = tables
    x.append(0.0)
    rng = range(dim)
    step = 0.0
    for iteration in range(first, _MAX_ITERATIONS + 1):
        y = [ul - xl for ul, xl in zip(u, x)]
        D = []
        append_d = D.append
        for (sg, be, vt, lm, gm, g, d, s), grow in zip(devs, gdev):
            cur, dgg, ddd, dss = evaluate_one(sg, be, vt, lm, gm,
                                              x[g], x[d], x[s])
            append_d((dgg, ddd, dss))
            for j in rng:
                y[j] += cur * grow[j]
        if k == 2:
            s00 = s11 = 1.0
            s01 = s10 = r0 = r1 = 0.0
            for src, dev, col, sign, tw0, tw1 in stamp_rows[0]:
                de = D[dev][src]
                r0 += de * sign * y[col]
                s00 += de * tw0
                s01 += de * tw1
            for src, dev, col, sign, tw0, tw1 in stamp_rows[1]:
                de = D[dev][src]
                r1 += de * sign * y[col]
                s10 += de * tw0
                s11 += de * tw1
            det = s00 * s11 - s01 * s10
            if det == 0.0:
                return x, iteration - first + 1, _SINGULAR_K, step
            z0 = (s11 * r0 - s01 * r1) / det
            z1 = (s00 * r1 - s10 * r0) / det
            deltas = [yj - w[0] * z0 - w[1] * z1
                      for yj, w in zip(y, W_rows)]
        else:  # k == 1
            s00 = 1.0
            r0 = 0.0
            for src, dev, col, sign, tw0 in stamp_rows[0]:
                de = D[dev][src]
                r0 += de * sign * y[col]
                s00 += de * tw0
            if s00 == 0.0:
                return x, iteration - first + 1, _SINGULAR_K, step
            z0 = r0 / s00
            deltas = [yj - w[0] * z0 for yj, w in zip(y, W_rows)]
        step = 0.0
        for dlt in deltas:
            ad = -dlt if dlt < 0.0 else dlt
            if ad > step:
                step = ad
        if step > _DAMP_LIMIT:
            scale = _DAMP_LIMIT / step
            for j in rng:
                x[j] += deltas[j] * scale
        else:
            for j in rng:
                x[j] += deltas[j]
        if step < _VTOL:
            return x, iteration - first + 1, _CONVERGED, step
    return x, _MAX_ITERATIONS - first + 1, _CAPPED, step


# ----------------------------------------------------------------------
# Fast kernel: factorization reuse + vectorized stamping
# ----------------------------------------------------------------------
class _NewtonKernel:
    """Newton solver for ``F(x) = A x + i_dev(x) - b`` with ``A`` fixed.

    Construction applies the routing rule (:func:`_woodbury_base`):
    ``A`` is factored once and ``W = A⁻¹ E_R`` precomputed, and every
    subsequent :meth:`solve` (one per time step, in the transient loop)
    reuses both.  A base the rule rejects routes every solve to exact
    Newton.
    """

    __slots__ = ("A", "batch", "base_fact", "W", "_py")

    def __init__(self, A: np.ndarray, batch: _DeviceBatch):
        self.A = A
        self.batch = batch
        self.base_fact, self.W = _woodbury_base(A, batch) or (None, None)
        self._py = None
        if self.base_fact is not None:
            self._py = _py_tables(batch, self.base_fact, self.W,
                                  gmin_folded=False)

    def solve(self, b: np.ndarray, x0: np.ndarray,
              context: str) -> np.ndarray:
        _fire_fault("newton.step", context)
        if self.base_fact is not None:
            return self._solve_woodbury(b, x0, context)
        return self._solve_exact(b, x0, context)

    # -- residual assembly --------------------------------------------
    def _residual_neg(self, x: np.ndarray, b: np.ndarray):
        """Negated residual ``-F(x) = b - A x - i_dev(x)`` plus the
        device derivative block at ``x`` (``None`` with no devices).

        Working with ``-F`` lets both Newton paths feed it straight into
        their solves (``delta = J⁻¹ (-F)``) without an extra negation.
        """
        R = b - self.A @ x
        batch = self.batch
        if batch.n:
            i, D = batch.evaluate(x)
            batch.sub_currents(R, i)
            return R, D
        return R, None

    # -- Woodbury path -------------------------------------------------
    def _solve_woodbury_py(self, b: np.ndarray, x0: np.ndarray,
                           context: str) -> np.ndarray:
        """Dispatch-free Woodbury Newton (:func:`_woodbury_py`).

        Same root, damping and acceptance semantics as
        :meth:`_solve_woodbury`; the iterates differ only by the
        rounding of the algebraically identical residual form, orders
        of magnitude inside the acceptance tolerance.
        """
        x, used, outcome, step = _woodbury_py(
            self._py, self.base_fact.solve(b).tolist(), x0.tolist(), 1)
        if outcome == _SINGULAR_K:
            _WOODBURY.inc(used - 1)
            _SINGULAR.inc()
            raise ConvergenceError(f"singular Jacobian during {context}")
        _WOODBURY.inc(used)
        x = np.array(x[:-1])
        if outcome == _CONVERGED:
            _ITERATIONS.observe(used)
            return x
        residuals = np.abs(self._residual_neg(x, b)[0])
        _raise_nonconverged(residuals, _applied_step(step), context)

    def _solve_woodbury(self, b: np.ndarray, x0: np.ndarray,
                        context: str) -> np.ndarray:
        if self._py is not None:
            return self._solve_woodbury_py(b, x0, context)
        batch, W = self.batch, self.W
        solve_base = self.base_fact.solve
        k = batch.k
        x = x0.copy()
        step = 0.0
        for iteration in range(1, _MAX_ITERATIONS + 1):
            R, D = self._residual_neg(x, b)
            y = solve_base(R)
            if k:
                M = batch.correction(D)
                S = M @ W
                S.ravel()[::k + 1] += 1.0
                z, singular = _solve_small(S, M @ y)
                if singular:
                    # det J = det A * det S: S singular means the full
                    # Jacobian is singular, same failure as the dense
                    # kernel's np.linalg.solve.
                    _SINGULAR.inc()
                    raise ConvergenceError(
                        f"singular Jacobian during {context}")
                delta = y - W @ z
            else:
                delta = y
            _WOODBURY.inc()
            step = np.abs(delta).max(initial=0.0)
            if step > _DAMP_LIMIT:
                delta *= _DAMP_LIMIT / step
            x += delta
            if step < _VTOL:
                _ITERATIONS.observe(iteration)
                return x
        residuals = np.abs(self._residual_neg(x, b)[0])
        _raise_nonconverged(residuals, _applied_step(step), context)

    # -- exact-Newton path --------------------------------------------
    def _newton_step(self, D, R: np.ndarray, context: str) -> np.ndarray:
        """Rebuild the full Jacobian at the current iterate and solve
        it for the update (``R`` is the negated residual)."""
        _REFRESH.inc()
        A, batch = self.A, self.batch
        sparse = is_sparse_matrix(A)
        if sparse:
            J = A
            if batch.k:
                # A + E_R M as a sparse sum: the k-row dense correction
                # block expands through a (dim, k) selector.
                expand = _sp.csr_matrix(
                    (np.ones(batch.k), (batch.rows, np.arange(batch.k))),
                    shape=(A.shape[0], batch.k))
                J = (A + expand @ _sp.csr_matrix(
                    batch.correction(D))).tocsc()
        else:
            J = A.copy()
            if batch.k:
                J[batch.rows] += batch.correction(D)
        try:
            if not sparse:
                return np.linalg.solve(J, R)
            fact = factorize(J)
            _trust.observe_factorization(fact)
            return fact.solve(R)
        except np.linalg.LinAlgError as exc:
            _SINGULAR.inc()
            raise ConvergenceError(
                f"singular Jacobian during {context}") from exc

    def _solve_exact(self, b: np.ndarray, x0: np.ndarray,
                     context: str) -> np.ndarray:
        """Exact Newton: a fresh Jacobian at every iterate.

        The path for a base ``A`` the routing rule rejects, and the
        trust ladder's first hop (nothing cached can carry a fault
        into it).
        """
        x = x0.copy()
        step = 0.0
        for iteration in range(1, _MAX_ITERATIONS + 1):
            R, D = self._residual_neg(x, b)
            delta = self._newton_step(D, R, context)
            step = np.abs(delta).max(initial=0.0)
            if step > _DAMP_LIMIT:
                delta *= _DAMP_LIMIT / step
            x += delta
            if step < _VTOL:
                _ITERATIONS.observe(iteration)
                return x
        residuals = np.abs(self._residual_neg(x, b)[0])
        _raise_nonconverged(residuals, _applied_step(step), context)


def _corrupt_state(x: np.ndarray, kind: str) -> np.ndarray:
    """Apply one injected corruption flavor to an accepted state.

    Only reachable through a ``trust.verify`` fault
    (:class:`~repro.resilience.faults.InjectedCorruption`): ``"nan"``
    poisons entries, ``"perturb"`` applies a gross multiplicative +
    offset error — both far outside the residual tolerance, emulating
    a silently wrong solve the audit must catch.
    """
    x = np.array(x, dtype=float)
    if kind == "nan":
        x[:: max(1, x.size // 3)] = np.nan
    else:
        x *= 1.25
        x += 0.1
    return x


class _VerifiedSolve:
    """Trust wrapper around a fast :class:`_NewtonKernel`.

    Post-verifies accepted states: every
    ``repro.trust.CHECK_INTERVAL``-th call runs a finiteness tripwire
    plus a full relative-residual audit (the residual costs one extra
    device evaluation and mat-vec, so it is sampled — and the clean
    path between samples is pure bookkeeping — to keep a clean run at
    one audit per ``CHECK_INTERVAL`` solves).  When a fault plan is
    installed the sampling stride is bypassed so injected corruption
    is always exercised.  On a violation the escalation ladder runs:

    1. ``fresh-newton`` — exact Newton, a fresh Jacobian at every
       iterate (covers a corrupted base factorization / Woodbury
       update);
    2. ``dense-reference`` / ``dense-rebuild`` — the dense reference
       (:func:`_reference_solve`) over a densified copy of ``A``
       (covers a bad fast path anywhere; the hop is named
       ``dense-rebuild`` when ``A`` was sparse).

    Each hop's result is re-verified before being trusted; each hop is
    recorded through :func:`repro.trust.record_event` so the analyzer
    labels the report.  If the whole ladder fails,
    :class:`TrustViolation` propagates into the ordinary recovery
    ladders.  On the clean path the kernel's state is returned
    *unchanged* — bit-identical to running without the wrapper.
    """

    __slots__ = ("kernel", "devices", "anorm", "tol", "interval",
                 "count", "_dense_A")

    def __init__(self, kernel: _NewtonKernel, devices: list[tuple]):
        self.kernel = kernel
        self.devices = devices
        self.anorm = _trust.matrix_norm1(kernel.A)
        self.tol = _trust.residual_tolerance(kernel.A.shape[0],
                                             _trust.NEWTON_RTOL)
        self.interval = _trust.CHECK_INTERVAL
        self.count = 0
        self._dense_A = None

    def _residual_of(self, x: np.ndarray, b: np.ndarray) -> float:
        R, _ = self.kernel._residual_neg(x, b)
        return _trust.relative_residual(R, self.anorm, x, b)

    def __call__(self, b: np.ndarray, x0: np.ndarray,
                 context: str) -> np.ndarray:
        x = self.kernel.solve(b, x0, context)
        self.count += 1
        if self.count % self.interval and _active_plan() is None:
            # Hot path: pure bookkeeping, no numpy work, so the solves
            # between audits cost nothing extra.  A NaN state cannot
            # ride through this branch silently: the Newton acceptance
            # comparison rejects non-finite step norms, and anything
            # that slips past is caught by the sampled audit below
            # within one interval.
            return x
        forced = False
        try:
            _fire_fault("trust.verify", context)
        except InjectedCorruption as fault:
            # The fault models the solve itself having gone silently
            # wrong, so the corrupted state must face the full audit.
            x = _corrupt_state(x, fault.kind)
            forced = True
        # Sum-based finiteness tripwire: NaN and inf both propagate
        # through the reduction (inf - inf is NaN), so this catches
        # exactly what isfinite().all() would at a fraction of the
        # cost.
        if not math.isfinite(float(x.sum())):
            return self._escalate(b, x0, context,
                                  detail="non-finite accepted state")
        if not forced and self.count % self.interval:
            return x
        _trust.count_check()
        rel = self._residual_of(x, b)
        if rel <= self.tol:
            return x
        return self._escalate(
            b, x0, context,
            detail=f"relative residual {rel:.3e} > {self.tol:.3e}")

    def _verified(self, x: np.ndarray, b: np.ndarray) -> bool:
        if not math.isfinite(float(x.sum())):
            return False
        _trust.count_check()
        return self._residual_of(x, b) <= self.tol

    def _escalate(self, b: np.ndarray, x0: np.ndarray, context: str,
                  *, detail: str) -> np.ndarray:
        _trust.record_event("violation", context=context, detail=detail)
        kernel = self.kernel
        # Hop 1: exact Newton — no base factor or Woodbury update the
        # suspect state may have come through.
        try:
            x1 = kernel._solve_exact(b, x0, context)
        except ConvergenceError:
            x1 = None
        if x1 is not None and self._verified(x1, b):
            _trust.record_event("escalated", context=context,
                                hop="fresh-newton", detail=detail)
            return x1
        # Hop 2: the dense reference, rebuilt dense from sparse when
        # needed — maximum independence from the fast path.
        hop = ("dense-rebuild" if is_sparse_matrix(kernel.A)
               else "dense-reference")
        if self._dense_A is None:
            self._dense_A = _dense(kernel.A)
        try:
            x2 = _reference_solve(self._dense_A, b, self.devices, x0,
                                  context)
        except ConvergenceError:
            x2 = None
        if x2 is not None and self._verified(x2, b):
            _trust.record_event("escalated", context=context, hop=hop,
                                detail=detail)
            return x2
        _trust.record_event("unrecovered", context=context,
                            detail=detail)
        raise TrustViolation(
            f"accepted solve failed verification during {context} "
            f"({detail}) and no escalation hop produced a verified "
            "state")


# ----------------------------------------------------------------------
# Recovery ladder
# ----------------------------------------------------------------------
def _recover_dc(mna: MnaSystem, G: np.ndarray, make, rhs0: np.ndarray,
                name: str) -> np.ndarray:
    """DC operating-point recovery: gmin stepping, then source ramping.

    Gmin stepping shunts every node with a conductance ``g`` that walks
    down the ladder to zero, each solve warm-starting the next — the
    shunt keeps the Jacobian diagonally dominant while the estimate
    approaches the true operating point.  If that still fails, the
    source-ramp homotopy solves at increasing source amplitudes from a
    quarter strength up to full, again warm-starting each stage.
    """
    n = mna.n_nodes
    diag = np.arange(n)
    x = np.zeros(mna.dim)
    try:
        for g in _GMIN_LADDER:
            if is_sparse_matrix(G):
                shunt = _sp.coo_matrix(
                    (np.full(n, g), (diag, diag)), shape=G.shape)
                Gg = (G + shunt).tocsc()
            else:
                Gg = G.copy()
                Gg[diag, diag] += g
            x = make(Gg)(rhs0, x, f"gmin={g:g} DC recovery of {name}")
        _RECOVERED_GMIN.inc()
        return x
    except ConvergenceError:
        pass
    x = np.zeros(mna.dim)
    solve = make(G)
    for alpha in _RAMP_LEVELS:
        x = solve(rhs0 * alpha, x,
                  f"source-ramp {alpha:g} DC recovery of {name}")
    _RECOVERED_RAMP.inc()
    return x


def _integrate_bisect(mna: MnaSystem, G: np.ndarray, C: np.ndarray,
                      make, solvers: dict, x: np.ndarray,
                      t0: float, t1: float, name: str,
                      depth: int, rhs_of=None) -> np.ndarray:
    """One backward-Euler step ``t0 -> t1``, bisecting on failure.

    Each level halves the step; ``depth`` bounds the recursion, so the
    finest sub-step is ``(t1 - t0) / 2**depth`` of the original grid.
    ``solvers`` caches one kernel per sub-step size: both halves of a
    bisection level (and every recursion into it) share the factors.
    ``rhs_of(t)`` overrides the source evaluation — the batched kernel
    passes a per-candidate closure carrying its waveform overrides.
    """
    h = t1 - t0
    cached = solvers.get(h)
    if cached is None:
        Ch = C / h
        cached = (make(Ch + G), Ch)
        solvers[h] = cached
    solve, Ch = cached
    if rhs_of is None:
        rhs1 = mna.rhs_matrix(np.array([t1]))[:, 0]
    else:
        rhs1 = rhs_of(t1)
    b = Ch @ x + rhs1
    try:
        return solve(b, x, f"t={t1:.3e}s (sub-step dt={h:.3e}s) of {name}")
    except ConvergenceError:
        if depth <= 0:
            raise
        t_mid = 0.5 * (t0 + t1)
        x_mid = _integrate_bisect(mna, G, C, make, solvers, x, t0, t_mid,
                                  name, depth - 1, rhs_of)
        return _integrate_bisect(mna, G, C, make, solvers, x_mid, t_mid,
                                 t1, name, depth - 1, rhs_of)


# ----------------------------------------------------------------------
# Top-level transient flow
# ----------------------------------------------------------------------
def _device_batch(circuit: Circuit, mna: MnaSystem) -> _DeviceBatch:
    """The circuit's :class:`_DeviceBatch`, memoized on the ``mna``.

    Shared between the fast scalar kernel and the batched
    multi-candidate kernel (:mod:`repro.sim.batched`) — the scatter maps
    depend only on topology, which the stamped system pins.
    """
    batch = mna.__dict__.get("_device_batch")
    if batch is None:
        batch = _DeviceBatch(circuit.mosfets, mna)
        mna.__dict__["_device_batch"] = batch
    return batch


def _kernel_factory(circuit: Circuit, mna: MnaSystem):
    """``make(A) -> solve(b, x0, context)`` for ``circuit``.

    Every solver solves ``F(x) = A x + i_dev(x) - b = 0``; the factory
    hides which machinery does it so the DC / transient / recovery
    flows below are kernel-agnostic.  Inside :func:`dense_reference`
    it builds :func:`_reference_solve` closures.  Otherwise it builds
    fast kernels, wrapped in :class:`_VerifiedSolve` while the trust
    layer is enabled; that factory is memoized on the ``mna``, because
    the scatter maps of :class:`_DeviceBatch` depend only on the circuit
    the system was stamped from.
    """
    if _REFERENCE:
        devices = _reference_devices(circuit, mna)

        def make_reference(A):
            A = _dense(A)
            return lambda b, x0, context: _reference_solve(
                A, b, devices, x0, context)
        return make_reference
    make = mna.__dict__.get("_kernel_factory")
    if make is None:
        batch = _device_batch(circuit, mna)
        devices = _reference_devices(circuit, mna)

        def make(A):
            kernel = _NewtonKernel(A, batch)
            if not _trust.trust_enabled():
                return kernel.solve
            return _VerifiedSolve(kernel, devices)
        mna.__dict__["_kernel_factory"] = make
    return make


def _cached_solver(mna: MnaSystem, key, build):
    """Per-``mna`` solver memoization, keyed by (trust on/off, grid).

    This is what makes sweeps cheap: with :func:`build_mna` returning
    the same cached system for an unchanged circuit, every candidate
    after the first reuses the already-factored backward-Euler kernel
    instead of re-running ``make(C/h + G)``.  ``sim.factor_cache.*``
    counters expose the hit rate.  The dense reference factors nothing
    and is never cached.
    """
    if _REFERENCE:
        return build()
    cache = mna.__dict__.setdefault("_solver_cache", {})
    entry = cache.get(key)
    if entry is None:
        entry = build()
        cache[key] = entry
        _FACTOR_MISS.inc()
    else:
        _FACTOR_HIT.inc()
    return entry


def _dc_solve(mna: MnaSystem, make, rhs0: np.ndarray,
              name: str) -> np.ndarray:
    """DC operating point ``G x + i_dev(x) = rhs0`` with recovery."""
    solve = _cached_solver(mna, (_trust.trust_enabled(), "dc"),
                           lambda: make(mna.G))
    try:
        return solve(rhs0, np.zeros(mna.dim),
                     f"DC operating point of {name}")
    except ConvergenceError:
        return _recover_dc(mna, mna.G, make, rhs0, name)


def dc_operating_point(circuit: Circuit, *, at_time: float = 0.0,
                       mna: MnaSystem | None = None) -> np.ndarray:
    """DC operating point of a circuit containing MOSFETs.

    Sources are evaluated at ``at_time``.  Uses the selected Newton
    solver (see :func:`dense_reference`), including the gmin /
    source-ramp recovery ladder.
    Pass a pre-built ``mna`` to skip re-stamping.
    """
    if mna is None:
        mna = build_mna(circuit, allow_devices=True)
    make = _kernel_factory(circuit, mna)
    rhs0 = mna.rhs_matrix(np.array([at_time]))[:, 0]
    return _dc_solve(mna, make, rhs0, circuit.name)


def simulate_nonlinear(circuit: Circuit, t_stop: float, dt: float, *,
                       t_start: float = 0.0,
                       x0: np.ndarray | None = None) -> SimulationResult:
    """Transient-simulate a circuit containing MOSFETs.

    The initial state defaults to the DC operating point with all sources
    evaluated at ``t_start``.  Pass ``x0`` to chain simulations.
    Raises ``ValueError`` eagerly for a degenerate time grid
    (``t_stop <= t_start``) or a non-positive ``dt``.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt:g}")
    if t_stop <= t_start:
        raise ValueError(
            f"degenerate time grid for {circuit.name}: t_stop "
            f"({t_stop:g} s) must exceed t_start ({t_start:g} s)")

    mna = build_mna(circuit, allow_devices=True)
    times = time_grid(t_stop, dt, t_start)
    h = times[1] - times[0]
    rhs = mna.rhs_matrix(times)
    G, C = mna.G, mna.C
    make = _kernel_factory(circuit, mna)

    # DC operating point: F(x) = G x + i_dev(x) - rhs0.
    if x0 is None:
        x0 = _dc_solve(mna, make, rhs[:, 0], circuit.name)
    else:
        x0 = np.asarray(x0, dtype=float).copy()
        if x0.shape != (mna.dim,):
            raise ValueError(f"x0 must have shape ({mna.dim},)")

    # Backward Euler: F(x) = (C/h)(x - x_prev) + G x + i_dev(x) - rhs_k.
    # A = C/h + G is constant for the whole grid: the fast kernel
    # factors it exactly once here — and the _cached_solver memo keeps
    # that factorization alive across *calls* on the same circuit, so a
    # sweep rebinding only source waveforms never re-factors.
    def _transient_solver():
        Ch = C / h
        return make(Ch + G), Ch
    solve, Ch = _cached_solver(mna, (_trust.trust_enabled(), h),
                               _transient_solver)
    bisect_solvers: dict = {}
    states = np.empty((mna.dim, times.size))
    states[:, 0] = x0
    x = x0
    for k in range(1, times.size):
        b_k = Ch @ x + rhs[:, k]
        # Warm-start Newton from the extrapolation of the last states —
        # quadratic once three are available, linear before that.  On
        # smooth stretches this saves an iteration per step; the
        # converged solution is the same root either way (within the
        # acceptance tolerance).
        if k >= 3:
            guess = 3.0 * (x - states[:, k - 2]) + states[:, k - 3]
        elif k == 2:
            guess = x + (x - states[:, k - 2])
        else:
            guess = x
        try:
            x = solve(b_k, guess, f"t={times[k]:.3e}s of {circuit.name}")
        except ConvergenceError:
            # Recovery ladder: re-integrate the step with bisected dt
            # (bounded depth) before giving up on the simulation.
            t_mid = 0.5 * (times[k - 1] + times[k])
            x_mid = _integrate_bisect(
                mna, G, C, make, bisect_solvers, x, times[k - 1], t_mid,
                circuit.name, _MAX_SUBSTEP_DEPTH - 1)
            x = _integrate_bisect(
                mna, G, C, make, bisect_solvers, x_mid, t_mid, times[k],
                circuit.name, _MAX_SUBSTEP_DEPTH - 1)
            _RECOVERED_SUBSTEP.inc()
        states[:, k] = x

    return SimulationResult(mna, times, states)
