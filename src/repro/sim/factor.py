"""Shared matrix factorization for the transient solvers.

Both simulators repeatedly solve against a *constant* left-hand matrix —
the trapezoidal ``C/h + G/2`` in :mod:`repro.sim.linear` and the
backward-Euler ``C/h + G`` (plus device corrections) in
:mod:`repro.sim.nonlinear`.  Factoring that matrix once and reusing the
factors per step is what turns the per-step cost from ``O(n^3)`` into
``O(n^2)`` (dense) or ``O(nnz)`` (sparse).

:class:`Factorization` hides the backend choice behind one ``solve()``:

* small dense systems (``n <= _INVERSE_MAX``) store the explicit
  inverse — ``solve`` is then a single BLAS mat-vec, which beats the
  per-call overhead of an LU triangular solve by a wide margin at these
  sizes and needs no scipy;
* larger dense systems use scipy's ``lu_factor``/``lu_solve`` when
  available (numerically safer than inverting at scale) and fall back
  to the inverse otherwise;
* scipy sparse matrices are factored through SuperLU
  (``scipy.sparse.linalg.splu``) regardless of size — the extracted-net
  regime where a dense factorization would not fit the flop budget at
  all.

All three backends honour the same shape contract: ``solve`` maps a
1-D right-hand side to a 1-D solution and an ``(n, k)`` column block to
``(n, k)``; ``solve_rows`` maps an ``(s, n)`` row block to ``(s, n)``
and rejects 1-D input outright (a vector is ambiguous between the two
layouts — callers must say which they mean).

A singular matrix raises :class:`numpy.linalg.LinAlgError` from the
constructor — the same exception ``np.linalg.solve`` would raise — so
callers keep one error path regardless of backend.  SuperLU signals
exact singularity with a ``RuntimeError`` instead; the constructor
translates it.
"""

from __future__ import annotations

import warnings

import numpy as np

try:  # pragma: no cover - exercised implicitly by the chosen backend
    from scipy.linalg import lu_factor as _lu_factor
    from scipy.linalg import lu_solve as _lu_solve
    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    _lu_factor = _lu_solve = None
    HAVE_SCIPY = False

try:  # pragma: no cover - same scipy gate as above
    from scipy.sparse import issparse as _issparse
    from scipy.sparse.linalg import splu as _splu
    HAVE_SPARSE = True
except ImportError:  # pragma: no cover
    _issparse = _splu = None
    HAVE_SPARSE = False

__all__ = ["Factorization", "factorize", "is_sparse_matrix",
           "HAVE_SCIPY", "HAVE_SPARSE"]

#: Largest dense system solved through a cached explicit inverse.  The
#: hand-built MNA systems here are tens to a few hundred unknowns and
#: well-conditioned (the same regime where sim/linear.py historically
#: used an inverse).
_INVERSE_MAX = 192


def is_sparse_matrix(matrix) -> bool:
    """True when ``matrix`` is a scipy sparse matrix/array."""
    return HAVE_SPARSE and _issparse(matrix)


class Factorization:
    """One-time factorization of a square matrix (dense or sparse).

    ``solve(b)`` accepts a vector or a matrix of stacked right-hand
    sides.  The input matrix is not modified and not referenced after
    construction.
    """

    __slots__ = ("_lu", "_inv", "_splu", "shape", "anorm", "_rcond")

    def __init__(self, matrix):
        self._lu = None
        self._inv = None
        self._splu = None
        self._rcond = ...
        if is_sparse_matrix(matrix):
            if matrix.shape[0] != matrix.shape[1]:
                raise ValueError(
                    f"matrix must be square, got {matrix.shape}")
            self.shape = matrix.shape
            self.anorm = float(abs(matrix).sum(axis=0).max())
            # splu reports an exactly singular pivot as RuntimeError;
            # translate to the LinAlgError contract of the dense
            # backends.  Near-singular matrices only warn — suppressed,
            # matching lu_factor below.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    self._splu = _splu(matrix.tocsc())
                except RuntimeError as exc:
                    raise np.linalg.LinAlgError(
                        str(exc) or "singular matrix") from exc
            diag = self._splu.U.diagonal()
            if (diag == 0.0).any() or not np.isfinite(diag).all():
                raise np.linalg.LinAlgError("singular matrix")
            return
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got {matrix.shape}")
        self.shape = matrix.shape
        self.anorm = (float(np.abs(matrix).sum(axis=0).max())
                      if matrix.size else 0.0)
        if HAVE_SCIPY and matrix.shape[0] > _INVERSE_MAX:
            # lu_factor does not raise on an exactly singular pivot (it
            # only warns); detect it here so callers see the same
            # LinAlgError contract as np.linalg.solve / np.linalg.inv.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                lu, piv = _lu_factor(matrix, check_finite=False)
            diag = np.diagonal(lu)
            if (diag == 0.0).any() or not np.isfinite(diag).all():
                raise np.linalg.LinAlgError("singular matrix")
            self._lu = (lu, piv)
        else:
            self._inv = np.linalg.inv(matrix)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` against the stored factors.

        ``b`` may be 1-D (one right-hand side) or ``(n, k)`` (stacked
        columns); the solution has the same shape on every backend.
        """
        if self._splu is not None:
            return self._splu.solve(np.asarray(b, dtype=float))
        if self._inv is not None:
            return self._inv @ b
        return _lu_solve(self._lu, b, check_finite=False)

    def solve_rows(self, B: np.ndarray) -> np.ndarray:
        """Solve ``A x_s = B[s]`` for every *row* of the 2-D block ``B``.

        The batched multi-candidate kernel keeps its state block as
        ``(S, dim)`` with candidates on the leading axis, so its
        right-hand sides arrive row-stacked rather than column-stacked.
        Solving ``X A^T = B`` directly avoids two transpose copies per
        Newton iteration on the hot path.  A 1-D input is rejected: a
        vector cannot say whether it is one row or one column.
        """
        if np.ndim(B) != 2:
            raise ValueError(
                f"solve_rows expects a 2-D (rows, {self.shape[0]}) "
                f"block, got shape {np.shape(B)}; use solve() for a "
                "single right-hand side")
        if self._splu is not None:
            return self._splu.solve(
                np.ascontiguousarray(B.T, dtype=float)).T
        if self._inv is not None:
            return B @ self._inv.T
        return _lu_solve(self._lu, B.T, check_finite=False).T

    def rcond_estimate(self) -> float | None:
        """Cheap reciprocal 1-norm condition estimate, cached.

        ``1 / (||A||_1 * ||A^-1||_1)`` with the inverse norm taken from
        the explicit inverse (small dense), LAPACK ``gecon`` on the
        stored LU factors (large dense), or a Hager/Higham
        ``onenormest`` over the SuperLU solve operator (sparse).
        Returns ``None`` when the backend cannot produce an estimate
        (missing scipy helper) — callers treat that as "unmonitored",
        not as ill-conditioned.
        """
        if self._rcond is not ...:
            return self._rcond
        self._rcond = self._estimate_rcond()
        return self._rcond

    def _estimate_rcond(self) -> float | None:
        if self.anorm == 0.0:
            return 0.0
        try:
            if self._inv is not None:
                inv_norm = float(np.abs(self._inv).sum(axis=0).max())
                return 1.0 / (self.anorm * inv_norm) if inv_norm else 0.0
            if self._lu is not None:
                from scipy.linalg import get_lapack_funcs
                gecon, = get_lapack_funcs(("gecon",), (self._lu[0],))
                rcond, info = gecon(self._lu[0], self.anorm, norm="1")
                return float(rcond) if info == 0 else None
            from scipy.sparse.linalg import LinearOperator, onenormest
            op = LinearOperator(
                self.shape, matvec=self._splu.solve,
                rmatvec=lambda b: self._splu.solve(b, trans="T"),
                dtype=float)
            inv_norm = float(onenormest(op))
            return 1.0 / (self.anorm * inv_norm) if inv_norm else 0.0
        except Exception:  # pragma: no cover - scipy helper missing
            return None


def factorize(matrix) -> Factorization:
    """Factor ``matrix`` once for repeated :meth:`Factorization.solve`.

    The one function that factors: every solver and reducer calls it,
    never the class, so a wrapper around it sees all factoring work.
    Condition monitoring (:func:`repro.trust.observe_factorization`) is
    the caller's choice: a factorization that serves solves is observed
    by the solver that uses it.
    """
    return Factorization(matrix)
