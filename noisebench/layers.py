"""Per-layer accounting of a traced pass.

Layers are timed from outside the program in two ways:

* wrappers around the program's public entry points record the busy
  time (and call count) of each layer's outermost calls;
* the counters and the ``net.*`` spans the program already records
  through :mod:`repro.obs` are read back after each phase.

A traced run has two phases: ``setup`` (characterization) and ``pass``
(the timed call sequence).  The characterization rows (Thevenin and
alignment tables, the batched kernel) come from the set-up phase; every
other row comes from the pass.

Rows are inclusive: a layer's time contains the layers it calls.  The
exception is the workload's *top-level* rows, which must partition the
pass: a top-level call made inside another top-level call counts only
toward the outer one, so the top-level rows plus ``unattributed.s``
add up to the pass wall.

A wrapper whose target is missing from the program is skipped with a
note: its row reads 0 and its time lands in ``unattributed.s``.

``trace.overhead_frac`` compares the traced pass with the untraced pass
that follows it.  On a shared 2-vCPU host a second pass ran about 8%
slower than the first and single passes varied by 10% or more, so the
figure only shows an overhead well above that.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

#: (time metric, count metric or None, "module:qualname" targets).
LAYERS = (
    ("core.screening.tier0_s", "core.screening.tier0_calls",
     ("repro.core.screening:tier0_bound",)),
    ("core.screening.tier1_s", "core.screening.tier1_calls",
     ("repro.core.screening:tier1_estimate",)),
    ("mor.ticer_s", None, ("repro.mor.ticer:ticer_reduce",)),
    ("mor.prima_s", None, ("repro.mor.prima:prima_reduce",)),
    ("mor.reduced_sim_s", None, ("repro.mor.reduced:ReducedModel.simulate",)),
    ("gates.thevenin.char_s", None,
     ("repro.core.superposition:ModelCache.table_for",)),
    ("core.precharacterize.char_s", "core.precharacterize.tables",
     ("repro.core.precharacterize:build_alignment_table",)),
    ("sim.batched.s", "sim.batched.calls",
     ("repro.sim.batched:simulate_nonlinear_batch",)),
    ("exec.pool.s", None, ("repro.exec.pool:analyze_nets",)),
    ("core.analysis.s", None,
     ("repro.core.analysis:DelayNoiseAnalyzer.analyze",)),
    ("core.superposition.s", "core.superposition.calls",
     ("repro.core.superposition:SuperpositionEngine.__init__",
      "repro.core.superposition:SuperpositionEngine.victim_transition",
      "repro.core.superposition:SuperpositionEngine.aggressor_noise",
      "repro.core.superposition:SuperpositionEngine.noise_on_holder",
      "repro.core.superposition:SuperpositionEngine.total_noise")),
    ("gates.ceff.s", None, ("repro.gates.ceff:effective_capacitance",)),
    ("core.holding_resistance.s", "core.holding_resistance.calls",
     ("repro.core.holding_resistance:compute_rtr",)),
    ("core.exhaustive.s", "core.exhaustive.calls",
     ("repro.core.exhaustive:combined_extra_delays",
      "repro.core.exhaustive:receiver_output_waveform")),
    ("core.golden.s", "core.golden.calls",
     ("repro.core.golden:golden_extra_delays",)),
    ("core.functional.s", None, ("repro.core.functional:functional_noise",)),
    ("sim.nonlinear.s", "sim.nonlinear.calls",
     ("repro.sim.nonlinear:simulate_nonlinear",
      "repro.sim.nonlinear:dc_operating_point")),
    ("sim.linear.s", "sim.linear.calls",
     ("repro.sim.linear:simulate_linear",)),
    ("circuit.mna.s", "circuit.mna.builds", ("repro.circuit.mna:build_mna",)),
    ("sim.factor.s", "sim.factor.calls", ("repro.sim.factor:factorize",)),
    ("trust.s", None, ("repro.trust:relative_residual",)),
)

#: Wrapper rows (and their call counts) read from the set-up phase; the
#: Thevenin table count and the ``newton.batched.*`` counters are too.
SETUP_ROWS = frozenset({"gates.thevenin.char_s",
                        "core.precharacterize.char_s", "sim.batched.s"})

#: ``net.*`` span -> analysis stage row.
STAGE_SPANS = {
    "net.superposition": "core.analysis.superposition_s",
    "net.holding_resistance": "core.analysis.holding_resistance_s",
    "net.noise_pulses": "core.analysis.noise_pulses_s",
    "net.alignment": "core.analysis.alignment_s",
    "net.receiver_eval": "core.analysis.receiver_eval_s",
    "net.thevenin_reference": "core.analysis.thevenin_reference_s",
}

#: Time metric -> f(result of the wrapped call) -> {row: value} sums.
OBSERVERS = {
    "core.holding_resistance.s": lambda result: {
        "core.holding_resistance.iterations":
            getattr(result, "iterations", 0)},
    "circuit.mna.s": lambda result: {
        "circuit.mna.sparse_builds":
            int(bool(getattr(result, "is_sparse", False)))},
}

@dataclass
class Phase:
    """Wrapper totals, counters and spans recorded in one phase."""

    seconds: dict
    calls: dict
    counters: dict
    histograms: dict
    spans: dict
    observed: dict

    @classmethod
    def empty(cls) -> "Phase":
        return cls({}, {}, {}, {}, {}, {})


def _resolve(target: str):
    """(owner, attribute name, original) of a ``module:qualname``."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


class LayerRecorder:
    """Installs the layer wrappers and collects one run's phases.

    ``top`` names the time metrics that partition the pass; wrappers go
    into every module of ``package`` that references a target.
    """

    def __init__(self, top, layers=LAYERS, observers=OBSERVERS,
                 package="repro"):
        self.top = frozenset(top)
        self.layers = layers
        self.observers = observers
        self.package = package
        self.phases = {"setup": Phase.empty(), "pass": Phase.empty()}
        self.phase = "pass"
        self.skipped: list[str] = []
        self._patches: list[tuple] = []
        self._depth: dict[str, int] = {}
        self._top_active = False

    # -- wrappers ------------------------------------------------------
    def _wrap(self, metric: str, count: str | None, fn):
        rec = self
        is_top = metric in self.top
        observe = self.observers.get(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec._depth.get(metric) or (is_top and rec._top_active):
                return fn(*args, **kwargs)
            rec._depth[metric] = 1
            if is_top:
                rec._top_active = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                rec._depth[metric] = 0
                if is_top:
                    rec._top_active = False
                phase = rec.phases[rec.phase]
                phase.seconds[metric] = phase.seconds.get(metric, 0.0) \
                    + elapsed
                if count:
                    phase.calls[count] = phase.calls.get(count, 0) + 1
            if observe is not None:
                for key, value in observe(result).items():
                    phase.observed[key] = phase.observed.get(key, 0) + value
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target that still exists, wherever the package
        holds a reference to it."""
        for metric, count, targets in self.layers:
            for target in targets:
                try:
                    owner, attr, original = _resolve(target)
                except (ImportError, AttributeError, KeyError) as exc:
                    self.skipped.append(f"{target} ({type(exc).__name__})")
                    continue
                wrapper = self._wrap(metric, count, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for name, module in list(sys.modules.items()):
                    if name.split(".")[0] != self.package:
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- phases --------------------------------------------------------
    def switch(self, phase: str, registry, tracer) -> None:
        """Close the current phase (folding in the program's counters
        and spans recorded so far) and open ``phase``."""
        current = self.phases[self.phase]
        snapshot = registry.drain()
        for name, value in snapshot.get("counters", {}).items():
            current.counters[name] = current.counters.get(name, 0) + value
        for name, value in snapshot.get("histograms", {}).items():
            count, total = current.histograms.get(name, (0, 0.0))
            current.histograms[name] = (count + value["count"],
                                        total + value["total"])
        for record in tracer.drain():
            name = record["name"]
            current.spans[name] = current.spans.get(name, 0.0) \
                + record["dur"]
        self.phase = phase


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(recorder: LayerRecorder, names, *, wall: float,
                untraced_wall: float, extra: dict) -> dict[str, float]:
    """The per-layer metrics ``names`` of a traced run, in that order.

    ``wall`` is the traced pass's timed wall, ``untraced_wall`` the
    untraced pass's; ``extra`` carries the rows the workload measures
    itself (triage outcome, pool failures, degraded reports, ...).  A
    name no layer measured reads 0.
    """
    setup, run = recorder.phases["setup"], recorder.phases["pass"]

    def count(phase: Phase, name: str) -> int:
        return phase.counters.get(name, 0)

    def prefixed(phase: Phase, prefix: str) -> int:
        return sum(v for k, v in phase.counters.items()
                   if k.startswith(prefix))

    rows: dict[str, float] = {}
    for metric, calls, _targets in recorder.layers:
        source = setup if metric in SETUP_ROWS else run
        rows[metric] = source.seconds.get(metric, 0.0)
        if calls:
            rows[calls] = source.calls.get(calls, 0)
    # One histogram observation per converged solve.
    solves, newton_iters = run.histograms.get("newton.iterations", (0, 0.0))
    outer = run.histograms.get("analysis.outer_iterations", (0, 0.0))
    rtr_calls = run.calls.get("core.holding_resistance.calls", 0)
    probes = count(run, "alignment.probes")
    rows.update({
        "gates.thevenin.tables": count(setup, "cache.thevenin.misses"),
        "cache.thevenin.hit_frac": _ratio(
            count(run, "cache.thevenin.hits"),
            count(run, "cache.thevenin.hits")
            + count(run, "cache.thevenin.misses")),
        "cache.alignment.hit_frac": _ratio(
            count(run, "cache.alignment.hits"),
            count(run, "cache.alignment.hits")
            + count(run, "cache.alignment.misses")),
        "newton.batched.solves": count(setup, "newton.batched.solves"),
        "newton.batched.active": count(setup, "newton.batched.active"),
        "newton.batched.fallback": count(setup, "newton.batched.fallback"),
        "exec.pool.overhead_s": rows["exec.pool.s"]
        - (rows["core.analysis.s"] if rows["exec.pool.s"] else 0.0),
        "exec.pool.retries": count(run, "exec.retries"),
        "core.analysis.nets": count(run, "analysis.nets"),
        "core.analysis.outer_iterations_mean": _ratio(outer[1], outer[0]),
        "core.holding_resistance.iterations_mean": _ratio(
            run.observed.get("core.holding_resistance.iterations", 0),
            rtr_calls),
        "circuit.mna.sparse_builds": run.observed.get(
            "circuit.mna.sparse_builds", 0),
        "alignment.table_lookups": count(run, "alignment.table_lookups"),
        "alignment.probes": probes,
        "alignment.probe_win_frac": _ratio(
            count(run, "alignment.probe_improvements"), probes),
        "newton.iterations": newton_iters,
        "newton.solves": solves,
        "newton.woodbury": count(run, "newton.woodbury"),
        "newton.jacobian_refresh": count(run, "newton.jacobian_refresh"),
        "newton.iterations_per_solve": _ratio(newton_iters, solves),
        "newton.recovered": prefixed(run, "newton.recovered."),
        "newton.nonconverged": count(run, "newton.nonconverged"),
        "sim.mna_cache.hit_frac": _ratio(
            count(run, "sim.mna_cache.hit"),
            count(run, "sim.mna_cache.hit")
            + count(run, "sim.mna_cache.miss")),
        "sim.factor_cache.hit_frac": _ratio(
            count(run, "sim.factor_cache.hit"),
            count(run, "sim.factor_cache.hit")
            + count(run, "sim.factor_cache.miss")),
        "trust.residual_checks": count(run, "trust.residual_checks"),
        "trust.factorizations": count(run, "trust.factorizations"),
        "trust.violations": count(run, "trust.violations"),
        "trust.escalations": prefixed(run, "trust.escalations."),
        "trust.condition_warnings": count(run, "trust.condition_warnings"),
    })
    for span_name, metric in STAGE_SPANS.items():
        rows[metric] = run.spans.get(span_name, 0.0)
    rows.update(extra)
    rows["unattributed.s"] = unattributed(rows, recorder.top, wall)
    rows["trace.overhead_frac"] = _ratio(wall, untraced_wall) - 1.0
    return {name: rows.get(name, 0) for name in names}


def unattributed(rows: dict, top, wall: float) -> float:
    """Traced wall not covered by the top-level rows."""
    return wall - sum(rows.get(metric, 0.0) for metric in top)
