"""Transient simulation wrapper for PRIMA-reduced models."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.circuit.mna import MnaSystem
from repro.mor.prima import prima_reduce, transfer_moments
from repro.sim.result import time_grid
from repro.waveform import Waveform

__all__ = ["ReducedModel"]


class ReducedModel:
    """A reduced-order ``Cr z' + Gr z = Br u, y = Lr^T z`` system.

    Built once per interconnect with :meth:`from_mna` and then re-simulated
    cheaply for each driver in the superposition flow — the workflow the
    paper attributes to PRIMA (its reference [2]).
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

    @property
    def order(self) -> int:
        return self.Gr.shape[0]

    def simulate(self, times: np.ndarray,
                 inputs: np.ndarray) -> dict[str, Waveform]:
        """Trapezoidal transient of the reduced system.

        Parameters
        ----------
        times:
            Uniform time grid.
        inputs:
            Input values, shape ``(p, len(times))`` in the input order of
            :meth:`from_mna`.

        Returns
        -------
        Map of output node name to its waveform.
        """
        times = np.asarray(times, dtype=float)
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.shape != (self.Br.shape[1], times.size):
            raise ValueError(
                f"inputs must have shape ({self.Br.shape[1]}, {times.size})")
        h = times[1] - times[0]
        A = self.Cr / h + self.Gr / 2.0
        Bm = self.Cr / h - self.Gr / 2.0
        lu, piv = scipy.linalg.lu_factor(A)

        rhs = self.Br @ inputs
        try:
            z = np.linalg.solve(self.Gr, rhs[:, 0])
        except np.linalg.LinAlgError:
            z, *_ = np.linalg.lstsq(self.Gr, rhs[:, 0], rcond=None)
        outputs = np.empty((self.Lr.shape[1], times.size))
        outputs[:, 0] = self.Lr.T @ z
        for k in range(times.size - 1):
            b = Bm @ z + 0.5 * (rhs[:, k] + rhs[:, k + 1])
            z = scipy.linalg.lu_solve((lu, piv), b)
            outputs[:, k + 1] = self.Lr.T @ z
        return {
            name: Waveform(times, outputs[i])
            for i, name in enumerate(self.output_names)
        }

    def moments(self, count: int, *, s0: float = 0.0) -> list[np.ndarray]:
        """Block transfer moments of the reduced system."""
        return transfer_moments(self.Gr, self.Cr, self.Br, self.Lr, count,
                                s0=s0)
