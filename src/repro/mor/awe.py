"""AWE-style pole/residue macromodels (moment-matched Padé).

Asymptotic Waveform Evaluation (Pillage/Rohrer) — the reduced-order
technique PRIMA superseded — approximates a transfer function by ``q``
poles matched to its first ``2q`` moments:

    H(s) ~ P(s) / Q(s),   Q(s) = 1 + b1 s + ... + bq s^q,
    H(s) ~ sum_i  k_i / (s - p_i)

Unlike PRIMA's projection, the Padé fit is explicit: the denominator
coefficients solve a small Hankel system over the moments, the poles are
its roots, and the residues come from partial fractions.  The payoff is
a *closed-form* time response: a PWL input convolves with each
exponential exactly, one recursive update per pole per time step — no
matrix solves at all.  The known downside is numerical fragility beyond
a handful of poles (the reason PRIMA exists); :func:`pade_poles` guards
by discarding unstable fits and retrying at lower order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.mna import MnaSystem
from repro.mor.prima import transfer_moments
from repro.waveform import Waveform

__all__ = ["PoleResidueModel", "pade_poles", "awe_from_mna"]

#: Relative tolerance for declaring a pole unstable (Re p > 0).
_STABILITY_SLACK = 1e-9


def pade_poles(moments: np.ndarray, order: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched poles and residues.

    Parameters
    ----------
    moments:
        ``m_0 .. m_{2q-1}`` of ``H(s) = sum m_j s^j`` (at least ``2q``).
    order:
        Requested pole count ``q``.  If the fit yields unstable poles
        (a classic AWE failure mode) the order is reduced until a stable
        fit appears; ``q = 1`` with a stable system always succeeds.

    Returns
    -------
    ``(poles, residues)`` as complex arrays of equal length (conjugate
    pairs appear explicitly; imaginary parts cancel in responses).
    """
    moments = np.asarray(moments, dtype=float)
    if order < 1:
        raise ValueError("order must be >= 1")
    for q in range(order, 0, -1):
        if moments.size < 2 * q:
            continue
        # Solve sum_{j=1..q} b_j m_{k-j} = -m_k for k = q .. 2q-1.
        A = np.empty((q, q))
        rhs = np.empty(q)
        for row, k in enumerate(range(q, 2 * q)):
            for j in range(1, q + 1):
                A[row, j - 1] = moments[k - j]
            rhs[row] = -moments[k]
        try:
            b = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            continue
        # Q(s) = 1 + b1 s + ... + bq s^q ; roots are the poles.
        q_coeffs = np.concatenate(([1.0], b))
        poles = np.roots(q_coeffs[::-1])
        if poles.size == 0 or np.any(poles.real
                                     > _STABILITY_SLACK * np.abs(poles)):
            continue
        # Numerator from the first q moments: a_k = sum b_j m_{k-j}.
        a = np.array([
            sum(q_coeffs[j] * moments[k - j] for j in range(0, k + 1)
                if j <= q)
            for k in range(q)
        ])
        # Residues k_i = P(p_i) / Q'(p_i).
        dq = np.polyder(np.poly1d(q_coeffs[::-1]))
        p_poly = np.poly1d(a[::-1]) if q > 1 else np.poly1d([a[0]])
        residues = p_poly(poles) / dq(poles)
        return poles, residues
    raise ValueError(
        "no stable Padé fit found at any order — the moment sequence "
        "may be inconsistent with a passive response")


@dataclass
class PoleResidueModel:
    """``H(s) = sum_i residues_i / (s - poles_i)`` with exact responses."""

    poles: np.ndarray
    residues: np.ndarray

    def __post_init__(self):
        self.poles = np.asarray(self.poles, dtype=complex)
        self.residues = np.asarray(self.residues, dtype=complex)
        if self.poles.shape != self.residues.shape:
            raise ValueError("poles/residues shape mismatch")
        if self.poles.size == 0:
            raise ValueError("need at least one pole")

    @property
    def order(self) -> int:
        return self.poles.size

    def dc_gain(self) -> float:
        """``H(0) = -sum k_i / p_i``."""
        return float(np.real(-np.sum(self.residues / self.poles)))

    def moments(self, count: int) -> np.ndarray:
        """``m_j = -sum k_i / p_i^(j+1)`` — for verifying the match."""
        js = np.arange(count)
        return np.real(np.array([
            -np.sum(self.residues / self.poles ** (j + 1)) for j in js
        ]))

    def dominant_time_constant(self) -> float:
        """``1 / |Re p|`` of the slowest pole."""
        return float(1.0 / np.min(np.abs(self.poles.real)))

    def response(self, u: Waveform, times: np.ndarray) -> Waveform:
        """Zero-state response to a PWL input, evaluated exactly.

        Each pole keeps one complex state updated recursively per step:
        the convolution of ``e^{p t}`` with a linear input segment has a
        closed form, so accuracy is independent of the step size (the
        grid only needs to resolve the *input's* breakpoints and the
        output detail you want to see).
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need a 1-D time grid with >= 2 points")
        u_vals = u(times)
        out = np.zeros(times.size)
        states = np.zeros(self.poles.size, dtype=complex)
        out[0] = 0.0
        for k in range(times.size - 1):
            h = times[k + 1] - times[k]
            u0 = u_vals[k]
            slope = (u_vals[k + 1] - u_vals[k]) / h
            E = np.exp(self.poles * h)
            seg = (u0 * (E - 1.0) / self.poles
                   + slope * (E - 1.0 - self.poles * h)
                   / (self.poles ** 2))
            states = states * E + seg
            out[k + 1] = float(np.real(np.sum(self.residues * states)))
        return Waveform(times, out)


def awe_from_mna(mna: MnaSystem, output_node: str, *, order: int = 2,
                 input_index: int = 0) -> PoleResidueModel:
    """AWE macromodel of one source-to-node transfer of an MNA system.

    ``input_index`` selects the source in the circuit's MNA input order
    (voltage sources first, then current sources).
    """
    B = mna.input_incidence()[:, [input_index]]
    L = mna.output_incidence([output_node])
    moments = transfer_moments(mna.G, mna.C, B, L, 2 * order)
    flat = np.array([float(m[0, 0]) for m in moments])
    poles, residues = pade_poles(flat, order)
    return PoleResidueModel(poles, residues)
