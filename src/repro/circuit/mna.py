"""Modified nodal analysis (MNA) stamping.

A circuit's linear portion is stamped into the descriptor system

    C x'(t) + G x(t) = rhs(t)

with unknowns ``x = [node voltages; voltage-source branch currents]``.
Voltage sources contribute algebraic rows (no ``C`` entries); current
sources contribute only to the right-hand side.  The same
:class:`MnaSystem` serves the linear transient solver, the PRIMA reducer
(which consumes ``G``, ``C`` and input/output incidence vectors) and the
non-linear co-simulator (which adds device stamps on top).

Dense vs sparse backend
-----------------------
Stamping accumulates COO triplets and materializes them either as dense
``(dim, dim)`` arrays or as scipy CSC sparse matrices.  ``sparse=None``
(the default) auto-selects: extracted-scale systems of at least
:data:`SPARSE_MIN_DIM` unknowns go sparse, everything below stays dense
(where BLAS wins).  Both backends stamp the *same* triplet stream, so a
sparse system agrees with its dense twin entry-for-entry.  Downstream,
every consumer takes ``G``/``C`` as built: :mod:`repro.sim.factor`
factors either form behind one facade, and the moment and PRIMA code
(:mod:`repro.mor.prima`) factors through it too, so a sparse system is
never densified.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.elements import Stimulus, stimulus_value
from repro.circuit.netlist import GROUND, Circuit
from repro.obs import metrics

try:  # pragma: no cover - container ships scipy; gate for safety
    from scipy import sparse as _sp
    HAVE_SPARSE = True
except ImportError:  # pragma: no cover
    _sp = None
    HAVE_SPARSE = False

__all__ = ["MnaSystem", "build_mna", "SPARSE_MIN_DIM", "sparse_threshold",
           "stamps_sparse"]

# Stamping cache telemetry: hits mean a sweep reused one circuit's
# stamped system instead of rebuilding it per candidate.  Every build —
# versioned or not — counts as a miss, so hit/(hit+miss) is a true rate.
_MNA_HIT = metrics().counter("sim.mna_cache.hit")
_MNA_MISS = metrics().counter("sim.mna_cache.miss")

#: Unknown count at and above which ``build_mna(sparse=None)`` selects
#: the sparse CSC backend.  Below it dense LU (or the explicit inverse)
#: is faster; above it the near-linear SuperLU factorization and
#: O(nnz) triangular solves win — the crossover is far below this on
#: tree-like RC nets, so the threshold is deliberately conservative.
SPARSE_MIN_DIM = 512


@contextmanager
def sparse_threshold(dim: int):
    """Temporarily override :data:`SPARSE_MIN_DIM` (tests force the
    sparse path onto hand-sized circuits this way)."""
    global SPARSE_MIN_DIM
    previous = SPARSE_MIN_DIM
    SPARSE_MIN_DIM = dim
    try:
        yield
    finally:
        SPARSE_MIN_DIM = previous


@dataclass
class MnaSystem:
    """Stamped MNA matrices plus source bookkeeping.

    Attributes
    ----------
    circuit:
        The source circuit (kept for node/element lookups).
    node_index:
        Map from node name to row index in ``[0, n_nodes)``.
    G, C:
        ``(dim, dim)`` conductance and capacitance matrices where
        ``dim = n_nodes + n_vsources`` — dense ``np.ndarray`` or scipy
        CSC, depending on the build mode (see :attr:`is_sparse`).
    vsource_index:
        Map from voltage-source name to its branch-current row
        (``n_nodes + k``).
    """

    circuit: Circuit
    node_index: dict[str, int]
    G: "np.ndarray"
    C: "np.ndarray"
    vsource_index: dict[str, int] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.node_index)

    @property
    def dim(self) -> int:
        return self.G.shape[0]

    @property
    def is_sparse(self) -> bool:
        """True when ``G``/``C`` are scipy sparse matrices."""
        return HAVE_SPARSE and _sp.issparse(self.G)

    def index_of(self, node: str) -> int:
        """Row index of a node (raises KeyError for ground/unknown)."""
        if node == GROUND:
            raise KeyError("ground has no MNA index")
        return self.node_index[node]

    def row_of(self, node: str) -> int:
        """Row index of a node, with ground mapped to -1.

        The device-stamping paths of the non-linear simulator use -1 as
        the "no row" sentinel for grounded terminals, so they can keep
        node lookups out of the Newton iteration entirely.
        """
        if node == GROUND:
            return -1
        return self.node_index.get(node, -1)

    # ------------------------------------------------------------------
    # Right-hand side
    # ------------------------------------------------------------------
    def rhs_matrix(self, times: np.ndarray,
                   overrides: dict[str, Stimulus] | None = None
                   ) -> np.ndarray:
        """Right-hand side ``rhs(t)`` evaluated on a time grid.

        Returns an array of shape ``(dim, len(times))``.  ``overrides``
        substitutes the stimulus of named sources without touching the
        circuit — this is how the batched multi-candidate kernel builds
        one right-hand side per candidate over a shared topology.
        """
        times = np.asarray(times, dtype=float)
        rhs = np.zeros((self.dim, times.size))
        overrides = overrides or {}
        for k, vs in enumerate(self.circuit.vsources):
            value = overrides.get(vs.name, vs.value)
            rhs[self.n_nodes + k, :] += stimulus_value(value, times)
        for cs in self.circuit.isources:
            current = stimulus_value(overrides.get(cs.name, cs.value),
                                     times)
            if cs.node_pos != GROUND:
                rhs[self.node_index[cs.node_pos], :] += current
            if cs.node_neg != GROUND:
                rhs[self.node_index[cs.node_neg], :] -= current
        return rhs

    def input_incidence(self) -> np.ndarray:
        """Incidence matrix ``B`` such that ``rhs(t) = B u(t)``.

        Column order: voltage sources first (in circuit order), then
        current sources.  Used by the PRIMA reducer.
        """
        n_in = len(self.circuit.vsources) + len(self.circuit.isources)
        B = np.zeros((self.dim, n_in))
        col = 0
        for k, _vs in enumerate(self.circuit.vsources):
            B[self.n_nodes + k, col] = 1.0
            col += 1
        for cs in self.circuit.isources:
            if cs.node_pos != GROUND:
                B[self.node_index[cs.node_pos], col] = 1.0
            if cs.node_neg != GROUND:
                B[self.node_index[cs.node_neg], col] = -1.0
            col += 1
        return B

    def output_incidence(self, nodes: list[str]) -> np.ndarray:
        """Selector matrix ``L`` with one column per requested node."""
        L = np.zeros((self.dim, len(nodes)))
        for col, node in enumerate(nodes):
            L[self.index_of(node), col] = 1.0
        return L


def stamps_sparse(dim: int) -> bool:
    """True when ``build_mna`` auto-selects the sparse backend for a
    system of ``dim`` unknowns."""
    return HAVE_SPARSE and dim >= SPARSE_MIN_DIM


def _resolve_sparse(sparse: bool | None, dim: int) -> bool:
    if sparse is None:
        return stamps_sparse(dim)
    if sparse and not HAVE_SPARSE:
        raise RuntimeError(
            "sparse MNA stamping requested but scipy is unavailable")
    return bool(sparse)


def build_mna(circuit: Circuit, *, allow_devices: bool = False,
              sparse: bool | None = None) -> MnaSystem:
    """Stamp the linear portion of ``circuit`` into an :class:`MnaSystem`.

    ``sparse`` selects the matrix backend: ``True`` forces scipy CSC,
    ``False`` forces dense arrays, ``None`` (default) auto-selects by
    system size (sparse at and above :data:`SPARSE_MIN_DIM` unknowns).
    Each backend is cached independently per topology version, so mixed
    callers never see the other backend's system.

    Raises ``ValueError`` if the circuit contains MOSFETs and
    ``allow_devices`` is False — a guard against accidentally running a
    non-linear circuit through the linear solver.
    """
    if circuit.mosfets and not allow_devices:
        raise ValueError(
            f"{circuit.name} contains MOSFETs; use the non-linear simulator "
            "or pass allow_devices=True if you really want the linear part"
        )

    version = getattr(circuit, "_topology_version", None)
    if version is not None:
        cached = circuit.__dict__.get("_mna_cache")
        if cached is not None and cached[0] == version:
            system = cached[2].get(_resolve_sparse(sparse, cached[1]))
            if system is not None:
                _MNA_HIT.inc()
                return system
    _MNA_MISS.inc()

    nodes = circuit.nodes()
    node_index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    m = len(circuit.vsources)
    dim = n + m
    use_sparse = _resolve_sparse(sparse, dim)

    # COO triplet streams, shared by both backends: the dense
    # scatter-add and the CSC duplicate-sum accumulate the same values.
    g_row: list[int] = []
    g_col: list[int] = []
    g_val: list[float] = []
    c_row: list[int] = []
    c_col: list[int] = []
    c_val: list[float] = []

    def stamp_pair(rows: list, cols: list, vals: list, node1: str,
                   node2: str, value: float) -> None:
        i = node_index[node1] if node1 != GROUND else None
        j = node_index[node2] if node2 != GROUND else None
        if i is not None:
            rows.append(i)
            cols.append(i)
            vals.append(value)
        if j is not None:
            rows.append(j)
            cols.append(j)
            vals.append(value)
        if i is not None and j is not None:
            rows.append(i)
            cols.append(j)
            vals.append(-value)
            rows.append(j)
            cols.append(i)
            vals.append(-value)

    for r in circuit.resistors:
        stamp_pair(g_row, g_col, g_val, r.node1, r.node2,
                   1.0 / r.resistance)
    for c in circuit.capacitors:
        stamp_pair(c_row, c_col, c_val, c.node1, c.node2, c.capacitance)

    vsource_index: dict[str, int] = {}
    for k, vs in enumerate(circuit.vsources):
        row = n + k
        vsource_index[vs.name] = row
        if vs.node_pos != GROUND:
            i = node_index[vs.node_pos]
            g_row += [i, row]
            g_col += [row, i]
            g_val += [1.0, 1.0]
        if vs.node_neg != GROUND:
            j = node_index[vs.node_neg]
            g_row += [j, row]
            g_col += [row, j]
            g_val += [-1.0, -1.0]

    def materialize(rows: list, cols: list, vals: list):
        if use_sparse:
            coo = _sp.coo_matrix(
                (np.asarray(vals, dtype=float),
                 (np.asarray(rows, dtype=np.intp),
                  np.asarray(cols, dtype=np.intp))),
                shape=(dim, dim))
            return coo.tocsc()
        matrix = np.zeros((dim, dim))
        if rows:
            np.add.at(matrix, (np.asarray(rows, dtype=np.intp),
                               np.asarray(cols, dtype=np.intp)),
                      np.asarray(vals, dtype=float))
        return matrix

    system = MnaSystem(circuit=circuit, node_index=node_index,
                       G=materialize(g_row, g_col, g_val),
                       C=materialize(c_row, c_col, c_val),
                       vsource_index=vsource_index)
    if version is not None:
        cached = circuit.__dict__.get("_mna_cache")
        if cached is None or cached[0] != version:
            cached = (version, dim, {})
            circuit.__dict__["_mna_cache"] = cached
        cached[2][use_sparse] = system
    return system
