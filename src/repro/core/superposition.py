"""Linear simulation + superposition flow (paper Figure 1).

The flow models every driver gate with a Thevenin model at its effective
load, then simulates one driver at a time against the passive coupled
interconnect while all other drivers are replaced by grounded *holding*
resistances.  Waveforms are superposed at the victim receiver input.

All linear simulations run in the **delta domain**: every waveform is the
deviation from the pre-transition DC state.  This makes superposition and
time-shifting exact (the network is LTI) and sidesteps bias bookkeeping —
the absolute victim waveform is ``initial level + delta``.

At extracted scale (a passive base the MNA stamper would store sparse)
the engine PRIMA-reduces that base once to a port model, with one port
per driver root plus the victim receiver, and runs every transient of
the net on it: each use attaches its drivers at the ports as
terminations of the reduced system (see
:meth:`repro.mor.ReducedModel.from_ports`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.mna import build_mna, stamps_sparse
from repro.circuit.netlist import GROUND, Circuit
from repro.core.net import CoupledNet, DriverSpec
from repro.gates.ceff import PortLoad, effective_capacitance
from repro.gates.thevenin import TheveninModel, TheveninTable
from repro.mor.reduced import ReducedModel
from repro.obs import get_logger, metrics
from repro.sim.linear import simulate_linear
from repro.sim.nonlinear import dense_reference_active
from repro.sim.result import time_grid
from repro.units import PS
from repro.waveform import Waveform

log = get_logger("core.superposition")

__all__ = ["ModelCache", "SuperpositionEngine", "DriverSimOutput"]

#: Key of the victim driver in the engine's model dictionaries.
VICTIM = "victim"

#: Block moments per port of the extracted-scale port model (reduced
#: order ``PORT_MOMENTS * ports``).  On a 514-node tree the worst
#: waveform error against the full sparse run falls from 1.3e-3 at 4
#: moments per port to 5.2e-8 at 12 and 1.4e-9 at 16; 6 and 8 moments
#: moved the pulse height by 8-9e-10 V, close to the oracle audit's
#: 1e-9 tolerance (``repro.trust.AUDIT_TOLERANCE``), 12 by 1.9e-10 V
#: (``benchmarks/results/ablation_port_model_order.txt``).
PORT_MOMENTS = 12


class ModelCache:
    """Memoizes Thevenin tables across nets.

    Table construction costs several non-linear gate simulations; within a
    design the same (cell, slew, direction) combination recurs constantly,
    so a shared cache makes population-level analysis tractable — mirroring
    the pre-characterized gate tables of a production tool.
    """

    def __init__(self):
        self._tables: dict[tuple, TheveninTable] = {}
        #: Cache traffic counters: a hit means a table was reused, a miss
        #: that non-linear characterization simulations had to run.  The
        #: parallel engine (:mod:`repro.exec`) reports these so a cold
        #: worker cache is visible instead of silently slow.
        self.hits = 0
        self.misses = 0

    def table_for(self, driver: DriverSpec) -> TheveninTable:
        key = (driver.gate.name, round(driver.input_slew, 15),
               driver.output_rising)
        if key not in self._tables:
            self.misses += 1
            metrics().counter("cache.thevenin.misses").inc()
            log.debug("thevenin cache miss: %s slew=%.3g rising=%s",
                      *key)
            self._tables[key] = TheveninTable.build(
                driver.gate, driver.input_slew, driver.output_rising,
                switching_pin=driver.switching_pin)
        else:
            self.hits += 1
            metrics().counter("cache.thevenin.hits").inc()
        return self._tables[key]

    def __len__(self) -> int:
        return len(self._tables)

    def entries(self):
        """Iterate ``(key, table)`` pairs (for persistence)."""
        return self._tables.items()

    def install(self, key: tuple, table: TheveninTable) -> None:
        """Insert a pre-built table under an explicit key (persistence)."""
        self._tables[key] = table


@dataclass
class DriverSimOutput:
    """Delta-domain waveforms observed in one superposition simulation."""

    at_receiver: Waveform
    at_root: Waveform


class SuperpositionEngine:
    """Per-net orchestration of the Figure-1 superposition flow.

    On construction the engine builds, for each driver (victim and
    aggressors): the passive net seen by that driver, its effective
    capacitance, and its Thevenin model.  Afterwards,
    :meth:`victim_transition` and :meth:`aggressor_noise` run individual
    linear simulations; launches can be shifted per-aggressor, which is
    what the alignment search manipulates.

    Each distinct circuit — a switching driver and the resistance of
    every held one — is simulated once, unshifted, and kept as its
    receiver and root waveforms; shifts and repeats reuse them.  On an
    extracted-scale net (:attr:`port_model` set) those simulations and
    the Ceff iterations run on the reduced port model.
    """

    def __init__(self, net: CoupledNet, *, cache: ModelCache | None = None,
                 dt: float = 1.0 * PS):
        self.net = net
        self.dt = dt
        # `cache or ...` would discard an *empty* shared cache
        # (ModelCache defines __len__, so empty means falsy).
        self.cache = cache if cache is not None else ModelCache()

        self._drivers: dict[str, DriverSpec] = {VICTIM: net.victim_driver}
        self._roots: dict[str, str] = {VICTIM: net.victim_root}
        for agg in net.aggressors:
            self._drivers[agg.name] = agg.driver
            self._roots[agg.name] = agg.root

        self.base = self._passive_base()
        self._ports = [*self._roots.values(), net.victim_receiver_node]
        self._port_index = {key: i for i, key in enumerate(self._roots)}
        self.port_model = self._reduce_base()
        self.ceffs: dict[str, float] = {}
        self.models: dict[str, TheveninModel] = {}
        self._characterize_all()

        self.t_stop = self._horizon()
        # (switching driver, held resistances) -> unshifted waveforms at
        # the receiver and every driver root.
        self._runs: dict[tuple, dict[str, Waveform]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _passive_base(self) -> Circuit:
        """Interconnect + receiver input cap + driver diffusion caps."""
        base = self.net.interconnect.copy(f"{self.net.name}_base")
        base.add_capacitor("__rcv_cin", self.net.victim_receiver_node,
                           GROUND, self.net.receiver.input_capacitance())
        for key, driver in self._drivers.items():
            base.add_capacitor(f"__cdiff_{key}", self._roots[key], GROUND,
                               driver.gate.output_capacitance())
        return base

    def _crude_holding(self) -> dict[str, float]:
        """Each driver's holding resistance from its drive estimate."""
        return {
            key: drv.gate.drive_resistance_estimate(not drv.output_rising)
            for key, drv in self._drivers.items()
        }

    def _reduce_base(self) -> ReducedModel | None:
        """The base reduced once to a port model, or None where the full
        net is simulated: below the sparse threshold, and under the
        dense reference, so that an oracle run also checks the
        reduction."""
        if (not stamps_sparse(len(self.base.nodes()))
                or dense_reference_active()):
            return None
        # The base floats at DC: expand about the crude holders.
        reference = [1.0 / r for r in self._crude_holding().values()]
        return ReducedModel.from_ports(
            build_mna(self.base), self._ports,
            PORT_MOMENTS * len(self._ports), [*reference, 0.0])

    def _port_load(self, key: str, holding: dict[str, float]) -> PortLoad:
        """Driver ``key``'s port, every other driver held by
        ``holding``."""
        g = np.zeros(len(self._ports))
        for other, resistance in holding.items():
            if other != key:
                g[self._port_index[other]] = 1.0 / resistance
        return PortLoad(self.port_model, self._port_index[key], g)

    def _characterize_all(self) -> None:
        vdd = self.net.vdd
        # First pass: holding resistors from crude drive estimates.
        holding = self._crude_holding()
        # Two passes: the second re-derives Ceff with fitted Rth holders.
        for _ in range(2):
            for key, driver in self._drivers.items():
                seen = (self._port_load(key, holding)
                        if self.port_model is not None
                        else self._view(key, holding))
                table = self.cache.table_for(driver)
                ceff, model = effective_capacitance(
                    table.lookup, seen, self._roots[key], vdd)
                self.ceffs[key] = ceff
                self.models[key] = model
            holding = {key: m.rth for key, m in self.models.items()}

    def _horizon(self) -> float:
        """Simulation window covering every transition plus settling."""
        latest = 0.0
        for key, driver in self._drivers.items():
            model = self.models[key]
            tau = model.rth * self.ceffs[key]
            latest = max(latest,
                         driver.input_start + model.t0 + model.dt
                         + 25.0 * tau)
        return latest + 0.3e-9

    def _view(self, key: str, holding: dict[str, float]) -> Circuit:
        """The base with every driver but ``key`` held by ``holding``."""
        view = self.base.copy(f"{self.net.name}_{key}_view")
        for other, resistance in holding.items():
            if other != key:
                view.add_resistor(f"__hold_{other}", self._roots[other],
                                  GROUND, resistance)
        return view

    def driver_view(self, key: str) -> Circuit:
        """The passive net a driver sees: base + other drivers' holders."""
        if key not in self._drivers:
            raise KeyError(f"unknown driver {key!r}")
        return self._view(key, {other: model.rth
                                for other, model in self.models.items()})

    # ------------------------------------------------------------------
    # Simulations
    # ------------------------------------------------------------------
    def _simulate(self, switching: str, shift: float,
                  holding_overrides: dict[str, float] | None,
                  observe_root: str | None = None) -> DriverSimOutput:
        """Simulate one switching driver, everyone else holding.

        ``holding_overrides`` substitutes holding resistances (e.g. Rtr)
        for specific held drivers.  ``observe_root`` selects which
        driver's root to report (default: the victim's).

        The circuit for a given switching driver and held resistances is
        fixed; only the source waveform moves with ``shift``.  By linear
        time invariance a shifted launch produces an identically shifted
        response, so each circuit is simulated once at shift 0 and the
        output is shifted afterwards.  An override equal to a driver's
        own Rth is the same circuit, and shares its simulation.
        """
        holding_overrides = holding_overrides or {}
        holding = {other: holding_overrides.get(other, model.rth)
                   for other, model in self.models.items()
                   if other != switching}
        key = (switching, tuple(holding.values()))
        run = self._runs.get(key)
        if run is None:
            run = self._runs[key] = self._run(switching, holding)
        at_receiver = run[self.net.victim_receiver_node]
        at_root = run[observe_root if observe_root is not None
                      else self.net.victim_root]
        if shift:
            at_receiver = at_receiver.shifted(shift)
            at_root = at_root.shifted(shift)
        return DriverSimOutput(at_receiver=at_receiver, at_root=at_root)

    def _run(self, switching: str,
             holding: dict[str, float]) -> dict[str, Waveform]:
        """Unshifted delta-domain waveforms at the receiver and at every
        driver root, ``switching`` driving and the others held."""
        driver = self._drivers[switching]
        model = self.models[switching].shifted(driver.input_start)
        if self.port_model is not None:
            times = time_grid(self.t_stop, self.dt)
            return self._port_load(switching, holding).simulate(
                model, times)[0]
        circuit = self.base.copy(f"{self.net.name}_{switching}_sim")
        model.install_switching(circuit, "__sw_", self._roots[switching])
        for other, resistance in holding.items():
            self.models[other].install_holding(
                circuit, f"__h_{other}_", self._roots[other], resistance)
        result = simulate_linear(circuit, self.t_stop, self.dt)
        # Copies: a row view would pin the whole state matrix.
        return {node: Waveform(result.times,
                               result.states[result.mna.index_of(node)]
                               .copy())
                for node in self._ports}

    def victim_transition(self, *, aggressor_r: dict[str, float] | None
                          = None) -> DriverSimOutput:
        """Figure 1(c): the victim switches, aggressors hold.

        Returns delta-domain waveforms at the receiver input and at the
        victim driver output (root).  ``aggressor_r`` overrides specific
        aggressors' holding resistances (their transient holding
        resistances, when the paper's Section-2 extension is used).
        """
        return self._simulate(VICTIM, 0.0, aggressor_r)

    def victim_transition_absolute(self) -> DriverSimOutput:
        """Victim transition in absolute volts."""
        delta = self.victim_transition()
        level = self.net.victim_initial_level()
        return DriverSimOutput(at_receiver=delta.at_receiver + level,
                               at_root=delta.at_root + level)

    def noise_on_holder(self, held: str, switching: str, *,
                        shift: float = 0.0,
                        held_r: float | None = None) -> Waveform:
        """Delta-domain noise at a *held* driver's root.

        Generalization of the Figure-1 observations: any driver may be
        the holder and any other the switcher.  With ``held`` set to an
        aggressor and ``switching`` to the victim, this is the injection
        the paper's Section-2 extension ("the proposed approach can also
        be extended to the shorted aggressor driver models") corrects.
        """
        if held not in self._drivers:
            raise KeyError(f"unknown driver {held!r}")
        if switching not in self._drivers or switching == held:
            raise KeyError(f"invalid switching driver {switching!r}")
        overrides = {held: held_r} if held_r is not None else None
        out = self._simulate(switching, shift, overrides,
                             observe_root=self._roots[held])
        return out.at_root

    def aggressor_noise(self, name: str, *, shift: float = 0.0,
                        victim_r: float | None = None) -> DriverSimOutput:
        """Figure 1(b): aggressor ``name`` switches, everyone else holds.

        ``victim_r`` overrides the victim's holding resistance — pass the
        transient holding resistance Rtr here.  ``shift`` delays the
        aggressor launch (alignment control).
        """
        if name not in self._drivers or name == VICTIM:
            raise KeyError(f"unknown aggressor {name!r}")
        overrides = {VICTIM: victim_r} if victim_r is not None else None
        return self._simulate(name, shift, overrides)

    def total_noise(self, shifts: dict[str, float], *,
                    victim_r: float | None = None) -> DriverSimOutput:
        """Superposed noise of all aggressors at the given shifts."""
        outputs = [
            self.aggressor_noise(agg.name, shift=shifts.get(agg.name, 0.0),
                                 victim_r=victim_r)
            for agg in self.net.aggressors
        ]
        if not outputs:
            raise ValueError(f"{self.net.name} has no aggressors")
        at_receiver = outputs[0].at_receiver
        at_root = outputs[0].at_root
        for out in outputs[1:]:
            at_receiver = at_receiver + out.at_receiver
            at_root = at_root + out.at_root
        return DriverSimOutput(at_receiver=at_receiver, at_root=at_root)
