"""Transient simulation wrapper for PRIMA-reduced models."""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

from repro.circuit.mna import MnaSystem
from repro.mor.prima import prima_reduce, transfer_moments
from repro.sim.factor import is_sparse_matrix
from repro.sim.linear import trapezoidal
from repro.waveform import Waveform

__all__ = ["ReducedModel"]


class ReducedModel:
    """A reduced-order ``Cr z' + Gr z = Br u, y = Lr^T z`` system.

    Built once per interconnect with :meth:`from_mna` or
    :meth:`from_ports` and then re-simulated cheaply for each driver in
    the superposition flow — the workflow the paper attributes to PRIMA
    (its reference [2]).
    """

    def __init__(self, Gr: np.ndarray, Cr: np.ndarray, Br: np.ndarray,
                 Lr: np.ndarray, output_names: list[str]):
        self.Gr = Gr
        self.Cr = Cr
        self.Br = Br
        self.Lr = Lr
        self.output_names = list(output_names)

    @classmethod
    def from_mna(cls, mna: MnaSystem, output_nodes: list[str],
                 order: int, *, s0: float = 0.0) -> "ReducedModel":
        """Reduce a stamped MNA system, observing the given nodes.

        Inputs are the circuit's sources in MNA order (voltage sources
        first, then current sources) — the same convention as
        :meth:`~repro.circuit.MnaSystem.input_incidence`.
        """
        B = mna.input_incidence()
        L = mna.output_incidence(output_nodes)
        parts = prima_reduce(mna.G, mna.C, B, order, s0=s0, L=L)
        return cls(parts["Gr"], parts["Cr"], parts["Br"], parts["Lr"],
                   output_nodes)

    @classmethod
    def from_ports(cls, mna: MnaSystem, ports: list[str], order: int,
                   reference) -> "ReducedModel":
        """Reduce a passive network driven and observed at ``ports``.

        Input ``i`` is a current injected into ``ports[i]`` and output
        ``i`` that node's voltage.  The model is of the bare network, to
        be closed per use with :meth:`terminated`: a conductance ``D``
        attached at the ports turns ``G`` into ``G + P D P^T`` (``P``
        the port incidence), and by the Woodbury identity
        ``(G + P D P^T)^-1 P`` spans the columns of ``G^-1 P``, so every
        block of the Krylov space is unchanged.  One basis therefore
        matches ``order / len(ports)`` block moments of the network
        under every termination.  A network that floats at DC has no
        ``G^-1``: the basis is built on ``G`` plus ``reference[i]``
        siemens from each port to ground.
        """
        P = mna.output_incidence(ports)
        shunt = P @ np.asarray(reference, dtype=float)
        G0 = mna.G + (_sp.diags(shunt) if is_sparse_matrix(mna.G)
                      else np.diag(shunt))
        parts = prima_reduce(G0, mna.C, P, order, L=P)
        V = parts["V"]
        return cls(V.T @ (mna.G @ V), parts["Cr"], parts["Br"],
                   parts["Lr"], ports)

    def terminated(self, conductances) -> "ReducedModel":
        """This port model with ``conductances[i]`` siemens from input
        port ``i`` to ground: ``Gr + Br diag(g) Br^T``, the projection
        of the terminated network on the same basis."""
        g = np.asarray(conductances, dtype=float)
        return ReducedModel(self.Gr + (self.Br * g) @ self.Br.T, self.Cr,
                            self.Br, self.Lr, self.output_names)

    @property
    def order(self) -> int:
        return self.Gr.shape[0]

    def simulate(self, times: np.ndarray,
                 inputs: np.ndarray) -> dict[str, Waveform]:
        """Trapezoidal transient of the reduced system.

        Runs :func:`repro.sim.linear.trapezoidal`, the integrator of
        :func:`~repro.sim.linear.simulate_linear`: the step matrix is
        factored once, condition-monitored and pre-applied, so each
        step is one ``q x q`` mat-vec, and with the trust layer on
        sampled steps are audited as ``"reduced step"``.

        Parameters
        ----------
        times:
            Uniform time grid.
        inputs:
            Input values, shape ``(p, len(times))`` in the input order of
            :meth:`from_mna` (or the port order of :meth:`from_ports`).

        Returns
        -------
        Map of output node name to its waveform.
        """
        times = np.asarray(times, dtype=float)
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.shape != (self.Br.shape[1], times.size):
            raise ValueError(
                f"inputs must have shape ({self.Br.shape[1]}, {times.size})")
        states = trapezoidal(self.Gr, self.Cr, self.Br @ inputs, times,
                             label="reduced")
        outputs = self.Lr.T @ states
        return {
            name: Waveform(times, outputs[i])
            for i, name in enumerate(self.output_names)
        }

    def moments(self, count: int, *, s0: float = 0.0) -> list[np.ndarray]:
        """Block transfer moments of the reduced system."""
        return transfer_moments(self.Gr, self.Cr, self.Br, self.Lr, count,
                                s0=s0)
