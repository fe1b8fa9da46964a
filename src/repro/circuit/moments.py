"""Moment-based wire delay metrics (Elmore, D2M).

The timing-windows substrate needs interconnect delays without running a
transient for every arc.  The classic closed forms come from the first
voltage-transfer moments of the RC network:

* **Elmore delay** ``-m1`` — the mean of the impulse response; an upper
  bound on the 50% step delay of an RC tree (Gupta et al.), typically
  10-50% pessimistic near the driver.
* **D2M** ``m1^2 / sqrt(m2) * ln 2`` (Alpert/Devgan/Kashyap) — a
  far tighter 50% estimate from the first two moments.

Both are computed from the same MNA machinery PRIMA uses, so arbitrary
RC(-coupled) topologies work, not just trees: the network is driven by
an ideal step at the root (grounded-root formulation) and the transfer
moments to the sink are read off.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.mna import build_mna
from repro.circuit.netlist import GROUND, Circuit
from repro.mor.prima import transfer_moments

__all__ = ["transfer_voltage_moments", "elmore_delay", "d2m_delay"]


def transfer_voltage_moments(net: Circuit, root: str, sink: str,
                             count: int = 3) -> np.ndarray:
    """Moments of the voltage transfer ``H(s) = V_sink(s) / V_root(s)``.

    ``H(s) = m0 + m1 s + m2 s^2 + ...`` with ``m0 = 1`` for a DC-connected
    sink.  The root is driven with an ideal source, which is the standard
    setup for wire-only delay metrics (driver resistance, if wanted,
    should be part of ``net``).
    """
    probe = net.copy(f"{net.name}_tm")
    probe.add_vsource("__step", root, GROUND, 1.0)
    mna = build_mna(probe)
    B = np.zeros((mna.dim, 1))
    B[mna.vsource_index["__step"]] = 1.0
    L = mna.output_incidence([sink])
    try:
        moments = transfer_moments(mna.G, mna.C, B, L, count)
    except ValueError as exc:
        raise ValueError(
            f"network is singular at DC: sink {sink!r} (or another "
            f"node) is not DC-connected to {root!r}") from exc
    return np.array([float(m[0, 0]) for m in moments])


def elmore_delay(net: Circuit, root: str, sink: str) -> float:
    """Elmore delay of ``root -> sink``: the negated first moment."""
    moments = transfer_voltage_moments(net, root, sink, count=2)
    if not math.isclose(moments[0], 1.0, rel_tol=1e-6):
        raise ValueError(
            f"sink {sink!r} is not DC-connected to {root!r} "
            f"(m0 = {moments[0]:.4g})")
    return -moments[1]


def d2m_delay(net: Circuit, root: str, sink: str) -> float:
    """D2M 50% delay estimate: ``ln2 * m1^2 / sqrt(m2)``.

    Falls back to the Elmore value when the second moment is degenerate
    (e.g. a single lumped pole, where both coincide).
    """
    moments = transfer_voltage_moments(net, root, sink, count=3)
    if not math.isclose(moments[0], 1.0, rel_tol=1e-6):
        raise ValueError(
            f"sink {sink!r} is not DC-connected to {root!r} "
            f"(m0 = {moments[0]:.4g})")
    m1, m2 = moments[1], moments[2]
    if m2 <= 0.0:
        return -m1 * math.log(2.0)
    return math.log(2.0) * m1 * m1 / math.sqrt(m2)
