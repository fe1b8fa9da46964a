"""Effective capacitance and driving-point reduction.

The Thevenin parameters are characterized against lumped loads, but a
real net presents a distributed RC whose far capacitance is *shielded* by
wire resistance.  The effective capacitance iteration (paper references
[3] Dartu/Menezes/Pileggi and [4] Qian/Pullela/Pillage) finds the lumped
``Ceff`` that matches the charge the driver actually delivers to the net
by the time its output reaches 50% — then re-derives the Thevenin model
at that load, and repeats to a fixed point.

:func:`driving_point_pi` additionally reduces the net's driving-point
admittance to the classic O'Brien/Savarino π model from its first three
admittance moments; the π total capacitance also provides the iteration's
starting point and upper bound.

At extracted scale the iteration runs on a reduced-order port model
instead of the full net (:class:`PortLoad`): the driver attaches at its
port as a termination of the reduced system, so no iteration copies or
simulates the full interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.circuit.mna import build_mna
from repro.circuit.netlist import GROUND, Circuit
from repro.gates.thevenin import TheveninModel
from repro.mor.prima import transfer_moments
from repro.mor.reduced import ReducedModel
from repro.sim.linear import simulate_linear
from repro.sim.result import time_grid
from repro.waveform import Waveform

__all__ = ["PiModel", "PortLoad", "driving_point_pi", "admittance_moments",
           "effective_capacitance"]


@dataclass(frozen=True)
class PiModel:
    """O'Brien/Savarino π load: ``c_near`` at the port, ``r`` to ``c_far``.

    A degenerate (purely lumped) load is represented with ``r == 0`` and
    ``c_far == 0``.
    """

    c_near: float
    r: float
    c_far: float

    @property
    def total_cap(self) -> float:
        return self.c_near + self.c_far

    def install(self, circuit: Circuit, prefix: str, node: str) -> None:
        """Append this π load at ``node``."""
        if self.c_near > 0.0:
            circuit.add_capacitor(f"{prefix}c_near", node, GROUND,
                                  self.c_near)
        if self.r > 0.0 and self.c_far > 0.0:
            far = f"{prefix}far"
            circuit.add_resistor(f"{prefix}r", node, far, self.r)
            circuit.add_capacitor(f"{prefix}c_far", far, GROUND, self.c_far)


def admittance_moments(net: Circuit, port: str,
                       count: int = 4) -> np.ndarray:
    """Driving-point admittance moments ``Y(s) = y0 + y1 s + y2 s^2 + ...``

    Measured by installing a probe voltage source at ``port`` and taking
    moments of its branch current.  The MNA branch variable is the current
    *into* the source's positive terminal, i.e. minus the current
    delivered into the net, so the sign is flipped to yield the admittance
    the net presents.
    """
    probe = net.copy(f"{net.name}_probe")
    probe.add_vsource("_probe_v", port, GROUND, 0.0)
    mna = build_mna(probe)
    row = mna.vsource_index["_probe_v"]
    B = np.zeros((mna.dim, 1))
    B[row] = 1.0
    L = np.zeros((mna.dim, 1))
    L[row] = 1.0
    moments = transfer_moments(mna.G, mna.C, B, L, count)
    return -np.array([float(m[0, 0]) for m in moments])


def driving_point_pi(net: Circuit, port: str) -> PiModel:
    """Reduce the net seen from ``port`` to a π model.

    Uses the first three non-DC admittance moments:
    ``y1 = C1 + C2``, ``y2 = -R C2^2``, ``y3 = R^2 C2^3`` — solved as
    ``C2 = y2^2 / y3``, ``R = -y2 / C2^2``, ``C1 = y1 - C2``.  Falls back
    to a lumped total-capacitance load when the moments are degenerate
    (e.g. a purely capacitive net with no wire resistance).
    """
    y = admittance_moments(net, port, count=4)
    y1, y2, y3 = y[1], y[2], y[3]
    if y1 <= 0.0:
        raise ValueError(
            f"net presents non-positive total capacitance at {port!r}")
    if y3 <= 0.0 or y2 >= 0.0:
        return PiModel(c_near=y1, r=0.0, c_far=0.0)
    c_far = y2 * y2 / y3
    if not 0.0 < c_far < y1:
        return PiModel(c_near=y1, r=0.0, c_far=0.0)
    r = -y2 / (c_far * c_far)
    return PiModel(c_near=y1 - c_far, r=r, c_far=c_far)


@dataclass(frozen=True)
class PortLoad:
    """One driver's port on a reduced port model, the others terminated.

    ``model`` is a bare port model (:meth:`ReducedModel.from_ports`),
    ``port`` the index of the driven port and ``conductances`` the
    termination of every port in siemens (the driven port's entry is
    replaced by the driver's own conductance).
    """

    model: ReducedModel
    port: int
    conductances: np.ndarray

    def simulate(self, thevenin: TheveninModel, times: np.ndarray
                 ) -> tuple[dict[str, Waveform], np.ndarray]:
        """Delta-domain port waveforms with ``thevenin`` driving the port
        in Norton form (``1 / Rth`` to ground plus the current
        ``v_src(t) / Rth``), and the source values ``v_src`` on
        ``times``."""
        g = np.array(self.conductances, dtype=float)
        g[self.port] = 1.0 / thevenin.rth
        v_src = thevenin.source_delta()(times)
        inputs = np.zeros((g.size, times.size))
        inputs[self.port] = v_src / thevenin.rth
        return self.model.terminated(g).simulate(times, inputs), v_src

    def total_cap(self) -> float:
        """First driving-point admittance moment ``y1``, the quantity
        :func:`admittance_moments` measures on a circuit.

        Any conductance ``g`` at the port makes the port impedance
        ``Z = 1 / (Y + g)`` finite at DC without touching ``y1``:
        ``Z = z0 + z1 s + ...`` gives ``y1 = -z1 / z0^2``.  One on the
        scale of the holders keeps ``Z`` well conditioned.
        """
        g = np.array(self.conductances, dtype=float)
        g[self.port] = g.max() or 1.0
        z0, z1 = (m[self.port, self.port]
                  for m in self.model.terminated(g).moments(2))
        return float(-z1 / (z0 * z0))


def _drive(net: Circuit | PortLoad, port: str, model: TheveninModel,
           t_stop: float, dt: float) -> tuple[Waveform, Waveform]:
    """Port and source waveforms of ``model`` driving ``net`` at
    ``port``."""
    if isinstance(net, PortLoad):
        times = time_grid(t_stop, dt)
        ports, v_src = net.simulate(model, times)
        return ports[port], Waveform(times, v_src)
    trial = net.copy(f"{net.name}_ceff")
    model.install_switching(trial, "drv_", port)
    result = simulate_linear(trial, t_stop, dt)
    return result.voltage(port), result.voltage("drv_src")


def effective_capacitance(
    thevenin_for: Callable[[float], TheveninModel],
    net: Circuit | PortLoad,
    port: str,
    vdd: float,
    *,
    tolerance: float = 1e-3,
    max_iterations: int = 25,
) -> tuple[float, TheveninModel]:
    """C-effective fixed-point iteration against the net.

    Parameters
    ----------
    thevenin_for:
        Callable mapping a lumped load to the driver's Thevenin model
        (e.g. ``TheveninTable.lookup`` or a direct characterization).
    net:
        The passive net as seen by this driver: interconnect, receiver
        input caps, the driver's own diffusion cap at ``port``, and
        holding resistances for every *other* driver — as a circuit, or
        as a :class:`PortLoad` on the net's reduced port model.
    port:
        Node where the driver output attaches.
    vdd:
        Supply voltage (the 50% reference is ``vdd / 2``).

    Returns
    -------
    ``(ceff, model)`` — the converged effective capacitance and the
    Thevenin model characterized at it.

    Notes
    -----
    Each iteration simulates the current Thevenin model against the
    net and matches delivered charge at the port's 50% crossing:
    ``Ceff = Q(t50) / (vdd / 2)`` — a lumped Ceff absorbs exactly that
    charge when driven to vdd/2.  Convergence is damped (average of old
    and new) and monotone in practice; 3-6 iterations are typical.
    """
    total_cap = (net.total_cap() if isinstance(net, PortLoad)
                 else float(admittance_moments(net, port, count=2)[1]))
    if total_cap <= 0.0:
        raise ValueError(f"no capacitance visible at {port!r}")

    floor = 1e-3 * total_cap
    ceff = total_cap
    model = thevenin_for(ceff)
    previous_delta = 0.0
    for _ in range(max_iterations):
        model = thevenin_for(ceff)
        tau = model.rth * total_cap
        t_stop = model.t0 + model.dt + 20.0 * tau + 1e-11
        dt = max(t_stop / 1200.0, 1e-14)

        v_port, v_src = _drive(net, port, model, t_stop, dt)

        half = 0.5 * model.delta_v
        try:
            t50 = v_port.crossing_time(half, rising=model.delta_v > 0,
                                       which="first")
        except ValueError:
            # Port never reached 50% in the window: heavy shielding —
            # treat the full window as charge-accumulation time.
            t50 = t_stop
        current = (v_src - v_port) * (1.0 / model.rth)
        charge = current.clipped(v_port.t_start, t50).integral()
        ceff_new = min(max(abs(charge) / (vdd / 2.0), floor), total_cap)

        delta = ceff_new - ceff
        if abs(delta) <= tolerance * total_cap:
            ceff = ceff_new
            break
        # Direct substitution converges fast (the map is a mild
        # contraction); fall back to damping only if the iterate starts
        # oscillating.
        if previous_delta * delta < 0.0:
            ceff = 0.5 * (ceff + ceff_new)
        else:
            ceff = ceff_new
        previous_delta = delta

    return ceff, thevenin_for(ceff)
