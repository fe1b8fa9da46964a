"""Pure helpers of the benchmark: per-net percentiles, failure
accounting and the hard correctness checks.

Nothing here imports the program, so the self-tests can feed every
function doctored answers without running an analysis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Percentiles:
    """Median and tail of one set of per-net times (nearest rank)."""

    n: int
    p50: float
    tail: float
    #: Percentile of ``tail`` and the samples strictly beyond its rank.
    tail_pct: float
    beyond: int


def nearest_rank(sorted_values: list[float], rank: int) -> float:
    """The ``rank``-th smallest value (1-based)."""
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def percentiles(samples) -> Percentiles:
    """Median and the highest percentile with ``TAIL_BEYOND`` samples
    beyond it, by nearest rank.

    With fewer than ``2 * TAIL_BEYOND`` samples no percentile at or
    above the median leaves that many beyond it; the tail is then the
    median itself and ``beyond`` says how thin it is.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    mid = math.ceil(n / 2)
    rank = max(n - TAIL_BEYOND, mid)
    return Percentiles(n=n, p50=nearest_rank(values, mid),
                       tail=nearest_rank(values, rank),
                       tail_pct=100.0 * rank / n, beyond=n - rank)


def fastest(readings) -> dict[str, float]:
    """Each net's smallest time over several passes' ``{net: seconds}``."""
    best: dict[str, float] = {}
    for reading in readings:
        for net, seconds in reading.items():
            best[net] = min(seconds, best.get(net, seconds))
    return best


@dataclass
class Accounting:
    """Failed and degraded operations of one run.

    A net counts as failed once, whatever the number of reasons:
    its analysis raised or timed out, it returned a non-finite number,
    or the oracle audit disagreed with it.
    """

    attempted: int = 0
    analyzed: int = 0
    degraded: int = 0
    failed: dict[str, list[str]] = field(default_factory=dict)

    def fail(self, net: str, reason: str) -> None:
        self.failed.setdefault(net, []).append(reason)

    @property
    def failed_frac(self) -> float:
        return len(self.failed) / self.attempted if self.attempted else 0.0

    @property
    def degraded_frac(self) -> float:
        return self.degraded / self.analyzed if self.analyzed else 0.0


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def check_tier_accounting(names, decisions, reports, failures) -> list[str]:
    """Each net settles in exactly one tier; only tier-2 nets carry a
    report; every tier-2 net ends with a report or a failure.

    ``decisions`` are the triage decisions, ``reports`` the pool's
    input-ordered reports and ``failures`` the names of failed nets.
    Returns the problems found (empty when the accounting holds).
    """
    problems = []
    decided = [d.net_name for d in decisions]
    if sorted(decided) != sorted(names) or len(set(decided)) != len(decided):
        problems.append("triage did not decide every net exactly once")
    by_name = {d.net_name: d for d in decisions}
    for name, report in zip(names, reports):
        decision = by_name.get(name)
        if decision is None:
            continue
        if decision.tier not in (0, 1, 2) or \
                decision.pruned != (decision.tier < 2):
            problems.append(f"{name}: tier {decision.tier} with "
                            f"pruned={decision.pruned}")
        if decision.pruned and (report is not None or name in failures):
            problems.append(f"{name}: pruned at tier {decision.tier} "
                            f"but analyzed at tier 2")
        if not decision.pruned and report is None and name not in failures:
            problems.append(f"{name}: escalated but neither reported "
                            f"nor failed")
    return problems


def pick_prunes(decisions, seed: int) -> list:
    """The prunes worth auditing: the closest-to-threshold prune of each
    pruning tier, plus one seeded pick among the other prunes."""
    pruned = [d for d in decisions if d.pruned]
    picks = []
    for tier in (0, 1):
        in_tier = [d for d in pruned if d.tier == tier]
        if in_tier:
            picks.append(max(in_tier, key=lambda d: d.figure))
    rest = [d for d in pruned if d not in picks]
    if rest:
        picks.append(random.Random(seed).choice(rest))
    return picks


def check_prune_audit(audit: dict) -> list[str]:
    """An audited prune that measures at or above the threshold at tier
    2 is unsound."""
    return [f"unsound prune of {u['net']} at tier {u['pruned_at_tier']}: "
            f"screened {u['screening_figure']:.4f} V, tier 2 measures "
            f"{u['actual_pulse_height']:.4f} V"
            for u in audit.get("unsound", [])]


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def check_same_answers(first: dict, second: dict,
                       labels=("untraced", "traced")) -> list[str]:
    """Two passes over the same nets must answer exactly alike: the
    traced pass as the untraced one, a repeated pass as the first."""
    problems = []
    for name in sorted(set(first) | set(second)):
        if name not in first or name not in second:
            problems.append(f"{name}: answered in one pass only")
        elif not _same(first[name], second[name]):
            problems.append(f"{name}: {labels[1]} {second[name]!r} != "
                            f"{labels[0]} {first[name]!r}")
    return problems


def check_finite_delays(rows: dict) -> list[str]:
    """Every Fig-13 delay (golden, Thevenin, Rtr) must be finite."""
    return [f"{name}: non-finite delay {values!r}"
            for name, values in sorted(rows.items())
            if not finite(*values)]


def error_pct(model: list[float], golden: list[float]) -> list[float]:
    """|model - golden| / golden in percent, per net."""
    return [100.0 * abs(m - g) / g for m, g in zip(model, golden)]
