"""PRIMA: passive reduced-order interconnect macromodeling.

Given the MNA descriptor system

    C x'(t) + G x(t) = B u(t),      y(t) = L^T x(t)

PRIMA projects onto an orthonormal basis ``V`` of the block Krylov space

    K_q(A, R) = span{R, A R, A^2 R, ...},  A = -(G)^{-1} C,  R = G^{-1} B

(expansion about ``s0 = 0``; an arbitrary real expansion point is supported
by shifting ``G -> G + s0 C``).  The congruence-transformed system

    (V^T C V) z' + (V^T G V) z = (V^T B) u,   y = (V^T L)^T z

matches at least ``floor(q / p)`` block moments of the original transfer
function (``p`` inputs) and — when ``G`` and ``C`` are symmetric positive
semidefinite, as they are for RC circuits with current-source inputs —
preserves passivity, because congruence preserves definiteness.

``G`` and ``C`` may be dense or scipy sparse: ``G + s0 C`` is factored
once through :func:`~repro.sim.factor.factorize` (SuperLU when
sparse) and the reduced matrices are formed as ``V^T (G V)``, so an
extracted-scale system is never densified.
"""

from __future__ import annotations

import numpy as np

from repro.sim.factor import factorize, is_sparse_matrix

__all__ = ["prima_reduce", "transfer_moments"]

#: Vectors whose post-orthogonalization norm falls below this fraction of
#: their pre-orthogonalization norm are deflated (considered dependent).
_DEFLATION_TOL = 1e-10

_SINGULAR = ("(G + s0*C) is singular at the expansion point — a net "
             "floats at DC (reachable only through capacitors). Anchor "
             "it with a holding resistor or pass s0 > 0.")


def _as_matrix(M):
    """``M`` as a float matrix, left sparse when it is sparse."""
    return M if is_sparse_matrix(M) else np.asarray(M, dtype=float)


def _shifted_solver(G, C, s0: float):
    """Factor ``G + s0*C`` once; return a solve that rejects a singular
    expansion point."""
    try:
        fact = factorize(G + s0 * C if s0 != 0.0 else G)
    except np.linalg.LinAlgError as exc:
        raise ValueError(_SINGULAR) from exc

    def solve(M: np.ndarray) -> np.ndarray:
        out = fact.solve(M)
        if not np.isfinite(out).all():
            raise ValueError(_SINGULAR)
        return out

    return solve


def prima_reduce(G, C, B: np.ndarray, order: int, *, s0: float = 0.0,
                 L: np.ndarray | None = None):
    """Compute the PRIMA projection basis and reduced matrices.

    Parameters
    ----------
    G, C:
        MNA conductance / capacitance matrices, shape ``(n, n)``: dense
        arrays or scipy sparse matrices.
    B:
        Input incidence, shape ``(n, p)``.
    order:
        Target reduced dimension ``q`` (the basis may come out smaller if
        the Krylov space deflates).
    s0:
        Real expansion frequency; 0 is the usual choice for RC.
    L:
        Optional output incidence ``(n, m)``; reduced as ``V^T L``.

    Returns
    -------
    dict with keys ``V, Gr, Cr, Br`` and (if ``L`` given) ``Lr``.
    """
    G = _as_matrix(G)
    C = _as_matrix(C)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != G.shape[0]:
        raise ValueError("B row count must match G dimension")
    if order < 1:
        raise ValueError("order must be >= 1")

    n, p = B.shape
    order = min(order, n)
    solve = _shifted_solver(G, C, s0)

    # Block Arnoldi with modified Gram-Schmidt and deflation.
    columns: list[np.ndarray] = []

    def orthonormalize(block: np.ndarray) -> np.ndarray:
        kept = []
        for j in range(block.shape[1]):
            v = block[:, j].copy()
            norm_before = np.linalg.norm(v)
            if norm_before == 0.0:
                continue
            for _ in range(2):  # twice for numerical orthogonality
                for u in columns:
                    v -= (u @ v) * u
            # Relative criterion: Krylov blocks of RC systems shrink by a
            # factor ~RC (1e-10 s) per iteration, so only the fraction of
            # the vector that is new information matters, not its scale.
            norm_after = np.linalg.norm(v)
            if norm_after <= _DEFLATION_TOL * norm_before:
                continue
            v /= norm_after
            columns.append(v)
            kept.append(v)
            if len(columns) >= order:
                break
        return np.column_stack(kept) if kept else np.empty((n, 0))

    block = orthonormalize(solve(B))
    while len(columns) < order and block.shape[1] > 0:
        block = orthonormalize(solve(C @ block))

    if not columns:
        raise ValueError("Krylov space is empty (zero input incidence?)")
    V = np.column_stack(columns)

    result = {
        "V": V,
        "Gr": V.T @ (G @ V),
        "Cr": V.T @ (C @ V),
        "Br": V.T @ B,
    }
    if L is not None:
        result["Lr"] = V.T @ np.atleast_2d(np.asarray(L, dtype=float))
    return result


def transfer_moments(G, C, B: np.ndarray, L: np.ndarray, count: int,
                     *, s0: float = 0.0) -> list[np.ndarray]:
    """Block moments ``m_k`` of ``H(s) = L^T (G + s C)^{-1} B`` about s0.

    ``H(s0 + s) = sum_k m_k s^k`` with
    ``m_k = (-1)^k L^T ((G + s0 C)^{-1} C)^k (G + s0 C)^{-1} B``.
    ``G`` and ``C`` may be dense or scipy sparse, as in
    :func:`prima_reduce`.  Used by tests to verify PRIMA's moment
    matching and by the effective capacitance code to extract
    driving-point admittance moments.
    """
    C = _as_matrix(C)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    L = np.atleast_2d(np.asarray(L, dtype=float))
    solve = _shifted_solver(_as_matrix(G), C, s0)
    moments = []
    X = solve(B)
    sign = 1.0
    for k in range(count):
        if k:
            X = solve(C @ X)
        moments.append(sign * (L.T @ X))
        sign = -sign
    return moments
