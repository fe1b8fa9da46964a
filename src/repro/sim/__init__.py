"""Transient circuit simulation.

* :mod:`repro.sim.linear` — fixed-step trapezoidal integration of linear
  MNA descriptor systems with single LU factorization.  This is the fast
  path used thousands of times inside the superposition flow.
* :mod:`repro.sim.nonlinear` — backward-Euler + damped-Newton transient
  co-simulation of MOSFET devices with arbitrary linear networks.  Plays
  the role of "Spice" in the paper: the golden reference and the engine
  behind Thevenin / Rtr / alignment characterization.  Its Newton core
  (one Woodbury routing rule, one dispatch-free loop shared with the
  batched kernel, exact Newton as the fallback) is held to a minimal
  dense reference solve by the equivalence tests and the differential
  audit.
* :mod:`repro.sim.batched` — multi-candidate variant of the non-linear
  solver: S source-stimulus variants of one circuit advance as a single
  ``(S, dim)`` state block over one factored system (the alignment-sweep
  hot path).
* :mod:`repro.sim.result` — shared result container mapping node names to
  :class:`~repro.waveform.Waveform` objects.
"""

from repro.sim.result import SimulationResult, time_grid
from repro.sim.factor import Factorization, factorize
from repro.sim.linear import simulate_linear
from repro.sim.nonlinear import (
    ConvergenceError,
    dc_operating_point,
    simulate_nonlinear,
)
from repro.sim.batched import simulate_nonlinear_batch

__all__ = [
    "SimulationResult",
    "time_grid",
    "Factorization",
    "factorize",
    "simulate_linear",
    "simulate_nonlinear",
    "simulate_nonlinear_batch",
    "dc_operating_point",
    "ConvergenceError",
]
