"""Transient holding resistance (paper Section 2).

When an aggressor injects noise onto a *switching* victim, the victim
driver's small-signal conductance at the moment of injection differs
wildly from the transition-average conductance that Rth encodes.  The
transient holding resistance Rtr fixes this with one non-linear driver
simulation pair:

1. Simulate the aggressors with the victim held by Rth; record the total
   noise voltage ``Vn`` at the victim driver output.
2. Convert it to the injected noise current
   ``In = Vn / R + C * dVn/dt`` — the current that develops ``Vn`` across
   the holding model (R in parallel with the net capacitance).
3. Simulate the non-linear victim driver switching into its reduced
   output load twice — without and with ``In`` injected at the output —
   and subtract: ``V'n = V2 - V1`` is the true noise response.
4. Choose Rtr so the *area* of the linear model's noise response matches:
   integrating ``C dV/dt + V/Rtr = In`` over the pulse (V returns to its
   baseline) gives ``∫V''n dt = Rtr ∫In dt``, hence
   ``Rtr = ∫V'n dt / ∫In dt``.
5. Replace Rth by Rtr in the superposition flow.  Because the noise
   current then changes, iterate — one or two passes suffice in practice
   (and in the paper).

Driver load modes
-----------------
The paper loads the non-linear driver with "a single effective output
load" (C-effective) and uses the same Ceff in the Step-2 current
extraction (``driver_load="ceff"``).  On our synthetic technology that
lumped load lets the driver-pair output race ahead of the real net root,
overestimating the driver's conductance at injection time and
under-correcting Rtr.  The default mode ``driver_load="pi"`` instead
loads the driver with the O'Brien/Savarino π reduction of the actual net
and extracts ``In`` with the net's total capacitance — the same
superposition flow, one reduced load instead of one lumped load.  This
reproduces the paper's accuracy band (see DESIGN.md, substitutions).

Rtr depends on the noise's alignment relative to the victim transition,
so the top-level analysis recomputes it when the alignment moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.circuit.netlist import GROUND, Circuit
from repro.core.superposition import VICTIM, SuperpositionEngine
from repro.gates.ceff import PiModel, admittance_moments, driving_point_pi
from repro.sim.nonlinear import simulate_nonlinear
from repro.waveform import Waveform

__all__ = ["RtrResult", "compute_rtr", "compute_holder_rtr"]

#: Sanity bounds on a fitted holding resistance [ohms].
_RTR_MIN, _RTR_MAX = 1.0, 1e7


@dataclass
class RtrResult:
    """Outcome of the transient-holding-resistance computation."""

    rtr: float
    rth: float
    iterations: int
    converged: bool
    driver_load: str
    noise_current: Waveform
    #: Vn: linear noise at the victim root with the final holding R.
    noise_linear: Waveform
    #: V'n: noise response of the non-linear switching driver.
    noise_nonlinear: Waveform

    @property
    def ratio(self) -> float:
        """Rtr / Rth — above 1 when the switching driver holds *worse*
        than the transition-average model predicts."""
        return self.rtr / self.rth


#: Time step for the Rtr driver-pair simulations.  The Rtr extraction is
#: an area match, so it tolerates a coarser grid than delay measurement.
_PAIR_DT = 2e-12


def _reduced_load(engine: SuperpositionEngine, key: str, root: str,
                  driver_load: str) -> tuple:
    """Reduced driver load and current-extraction capacitance for a
    driver, cached on the engine (re-alignments re-enter here)."""
    cache = getattr(engine, "_rtr_load_cache", None)
    if cache is None:
        cache = {}
        engine._rtr_load_cache = cache
    cache_key = (key, driver_load)
    if cache_key not in cache:
        if driver_load == "pi":
            view = engine.driver_view(key)
            cache[cache_key] = (
                driving_point_pi(view, root),
                float(admittance_moments(view, root, 2)[1]),
            )
        else:
            cache[cache_key] = (engine.ceffs[key], engine.ceffs[key])
    return cache[cache_key]


def _csm_for(engine: SuperpositionEngine, gate) -> "object":
    """Per-gate current-source model, cached on the engine."""
    from repro.gates.csm import characterize_csm
    cache = getattr(engine, "_csm_cache", None)
    if cache is None:
        cache = {}
        engine._csm_cache = cache
    if gate.name not in cache:
        cache[gate.name] = characterize_csm(gate)
    return cache[gate.name]


def _csm_pair_response(engine: SuperpositionEngine,
                       noise_current: Waveform,
                       load: PiModel | float, driver) -> Waveform:
    """CSM fast path for the Steps 3-4 driver pair.

    The current-source model's table already folds the driver's own
    diffusion capacitance behaviour into ``c_out``, so the external load
    passes through unchanged minus that share.
    """
    from repro.gates.csm import simulate_csm_driver
    gate = driver.gate
    csm = _csm_for(engine, gate)
    c_diff = gate.output_capacitance()
    if isinstance(load, PiModel):
        external: PiModel | float = PiModel(
            c_near=max(load.c_near - c_diff, 0.0), r=load.r,
            c_far=load.c_far)
    else:
        external = max(load - c_diff, 0.0)
    t_stop = max(engine.t_stop, noise_current.t_end + 0.1e-9)
    cache = getattr(engine, "_rtr_clean_cache", None)
    if cache is None:
        cache = {}
        engine._rtr_clean_cache = cache
    cache_key = ("_csm_v1", id(driver), gate.name, round(t_stop, 15))
    if cache_key not in cache:
        cache[cache_key] = simulate_csm_driver(
            csm, driver.input_waveform(), external, t_stop, _PAIR_DT)
    v1 = cache[cache_key]
    v2 = simulate_csm_driver(csm, driver.input_waveform(), external,
                             t_stop, _PAIR_DT, i_inject=noise_current)
    return v2 - v1


def _driver_pair_response(engine: SuperpositionEngine,
                          noise_current: Waveform,
                          load: PiModel | float, driver,
                          driver_engine: str) -> Waveform:
    """Steps 3-4: V'n = V2 - V1 from the non-linear driver pair.

    ``load`` is either a :class:`PiModel` or a lumped capacitance; the
    driver's own diffusion capacitance (added by instantiation) is
    subtracted from the near-end share.  The noiseless response ``V1``
    is independent of the injected current, so it is cached on the
    engine across Rtr iterations and re-alignments.

    ``driver_engine="csm"`` replays both runs through the gate's
    current-source model instead of the transistor co-simulation — a
    several-fold speedup at table-interpolation accuracy.
    """
    if driver_engine == "csm":
        return _csm_pair_response(engine, noise_current, load, driver)
    gate = driver.gate
    c_diff = gate.output_capacitance()

    def build(with_noise: bool) -> Circuit:
        circuit = gate.driven_circuit(
            driver.input_waveform(), c_load_external=0.0,
            switching_pin=driver.switching_pin,
            name="rtr_noisy" if with_noise else "rtr_clean")
        if isinstance(load, PiModel):
            near = max(load.c_near - c_diff, 0.0)
            if near > 0.0:
                circuit.add_capacitor("__c_near", "out", GROUND, near)
            if load.r > 0.0 and load.c_far > 0.0:
                circuit.add_resistor("__r_pi", "out", "__far", load.r)
                circuit.add_capacitor("__c_far", "__far", GROUND,
                                      load.c_far)
        else:
            external = max(load - c_diff, 0.0)
            if external > 0.0:
                circuit.add_capacitor("__c_load", "out", GROUND, external)
        if with_noise:
            circuit.add_isource("__inoise", "out", GROUND, noise_current)
        return circuit

    t_stop = max(engine.t_stop, noise_current.t_end + 0.1e-9)
    cache_key = ("_rtr_v1", id(driver), id(load), round(t_stop, 15))
    cache = getattr(engine, "_rtr_clean_cache", None)
    if cache is None:
        cache = {}
        engine._rtr_clean_cache = cache
    if cache_key not in cache:
        cache[cache_key] = simulate_nonlinear(
            build(False), t_stop, _PAIR_DT).voltage("out")
    v1 = cache[cache_key]
    v2 = simulate_nonlinear(build(True), t_stop, _PAIR_DT).voltage("out")
    return v2 - v1


def _iterate(engine: SuperpositionEngine, key: str,
             noise_at_root: Callable[[float], Waveform], *,
             max_iterations: int, tolerance: float, driver_load: str,
             driver_engine: str) -> RtrResult:
    """Steps 1-6 for driver ``key``, held by the resistance Rtr.

    ``noise_at_root(r)`` is the linear noise at the driver's root with
    the driver held by ``r`` ohms (Step 1).  Each pass extracts the
    injected current (Step 2), runs the driver pair (Steps 3-4), fits
    Rtr = ∫V'n / ∫In (Step 5) and re-extracts with the new holder
    (Step 6) until Rtr moves by less than ``tolerance``.
    """
    if driver_load not in ("pi", "ceff"):
        raise ValueError("driver_load must be 'pi' or 'ceff'")
    if driver_engine not in ("transistor", "csm"):
        raise ValueError("driver_engine must be 'transistor' or 'csm'")
    rth = engine.models[key].rth
    driver = engine._drivers[key]
    load, c_extract = _reduced_load(engine, key, engine._roots[key],
                                    driver_load)

    def extract_current(r_hold: float) -> tuple[Waveform, Waveform]:
        vn = noise_at_root(r_hold)
        return vn, vn * (1.0 / r_hold) + vn.derivative() * c_extract

    r_current = rth
    iterations = 0
    converged = False
    vn, noise_current = extract_current(r_current)
    vn_prime = vn  # placeholder; overwritten in the loop

    for iterations in range(1, max_iterations + 1):
        vn_prime = _driver_pair_response(engine, noise_current, load,
                                         driver, driver_engine)
        denominator = noise_current.integral()
        numerator = vn_prime.integral()
        if abs(denominator) < 1e-18 or numerator * denominator <= 0.0:
            # No meaningful injected charge, or inconsistent polarity
            # (noise swamped by simulation artifacts): keep Rth.
            return RtrResult(rtr=rth, rth=rth, iterations=iterations,
                             converged=False, driver_load=driver_load,
                             noise_current=noise_current,
                             noise_linear=vn, noise_nonlinear=vn_prime)
        rtr = numerator / denominator
        rtr = min(max(rtr, _RTR_MIN), _RTR_MAX)

        if abs(rtr - r_current) <= tolerance * rtr:
            r_current = rtr
            converged = True
            break
        r_current = rtr
        # Step 6: redo the linear noise with the new holding resistance,
        # which changes the injected current for the next pass.
        vn, noise_current = extract_current(r_current)

    return RtrResult(rtr=r_current, rth=rth, iterations=iterations,
                     converged=converged, driver_load=driver_load,
                     noise_current=noise_current,
                     noise_linear=noise_at_root(r_current),
                     noise_nonlinear=vn_prime)


def compute_rtr(engine: SuperpositionEngine,
                shifts: dict[str, float] | None = None, *,
                max_iterations: int = 3,
                tolerance: float = 0.05,
                driver_load: str = "pi",
                driver_engine: str = "transistor") -> RtrResult:
    """Compute the transient holding resistance for the engine's victim.

    Parameters
    ----------
    engine:
        A constructed superposition engine (models and Ceff ready).
    shifts:
        Current aggressor launch shifts (alignment); Rtr is a function of
        where the noise falls relative to the victim transition.
    max_iterations:
        Rth -> Rtr refinement passes; the paper reports "a single or at
        most two iterations are necessary".
    tolerance:
        Relative change in Rtr below which iteration stops.
    driver_load:
        ``"pi"`` (default, reduced π load) or ``"ceff"`` (the paper's
        strict lumped effective load) — see the module docstring.
    driver_engine:
        ``"transistor"`` (default) runs the Step-3 pair at transistor
        level; ``"csm"`` replays it through the gate's current-source
        model (see :mod:`repro.gates.csm`) — faster, near-identical Rtr.

    Returns
    -------
    :class:`RtrResult`.  Degenerate noise (vanishing injected charge)
    falls back to ``rtr == rth``.
    """
    shifts = shifts or {}
    return _iterate(
        engine, VICTIM,
        lambda r: engine.total_noise(shifts, victim_r=r).at_root,
        max_iterations=max_iterations, tolerance=tolerance,
        driver_load=driver_load, driver_engine=driver_engine)


def compute_holder_rtr(engine: SuperpositionEngine, held: str, *,
                       switching: str = VICTIM,
                       switching_shift: float = 0.0,
                       max_iterations: int = 3,
                       tolerance: float = 0.05,
                       driver_load: str = "pi") -> RtrResult:
    """Transient holding resistance of an arbitrary held driver.

    The paper notes (end of Section 1 / Section 2) that "the proposed
    approach can also be extended to the shorted aggressor driver models
    to calculate their transient holding resistances if needed": when the
    victim switches (Figure 1(c)), the aggressor drivers are held by
    their Thevenin resistances, which underestimates the noise the victim
    injects on *them* — an indirect, second-order effect on the victim
    waveform.  This function runs the same Steps 1-6 with ``held`` as the
    holder and ``switching`` as the injector.

    ``compute_holder_rtr(engine, VICTIM)`` is *not* the same as
    :func:`compute_rtr`: this variant uses exactly one switching driver,
    while the standard victim computation superposes all aggressors.
    """
    if held == switching:
        raise ValueError("held and switching must differ")
    return _iterate(
        engine, held,
        lambda r: engine.noise_on_holder(held, switching,
                                         shift=switching_shift, held_r=r),
        max_iterations=max_iterations, tolerance=tolerance,
        driver_load=driver_load, driver_engine="transistor")
