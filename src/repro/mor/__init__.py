"""Model order reduction (PRIMA).

The paper's flow (Figure 1) relies on building a reduced-order model of
the passive interconnect once — with PRIMA [Odabasioglu, Celik, Pileggi,
ICCAD'97, the paper's reference 2] — and reusing it for every driver
simulation in the superposition loop.

* :mod:`repro.mor.prima` — the block-Arnoldi PRIMA projection;
  :mod:`repro.mor.reduced` wraps the reduced system for transient
  simulation and moment checks, including the multi-port model the
  superposition engine reduces once per extracted-scale net and
  terminates per driver run.
* :mod:`repro.mor.awe` — AWE-style moment-matched Padé poles with exact
  closed-form PWL responses (the technique PRIMA superseded; still the
  fastest way to an analytic estimate).
* :mod:`repro.mor.ticer` — TICER quick-node elimination: reduction that
  stays a realizable RC circuit.
"""

from repro.mor.prima import prima_reduce, transfer_moments
from repro.mor.reduced import ReducedModel
from repro.mor.awe import PoleResidueModel, awe_from_mna, pade_poles
from repro.mor.ticer import ticer_reduce

__all__ = ["prima_reduce", "transfer_moments", "ReducedModel",
           "PoleResidueModel", "awe_from_mna", "pade_poles",
           "ticer_reduce"]
