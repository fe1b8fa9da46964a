"""Self-tests of the benchmark's statistics, accounting and hard checks.

Every hard check is fed a doctored answer and must fail on it.
"""

import math
from types import SimpleNamespace

import pytest

import stats
import workloads
from repro.core.screening import ScreeningConfig, TierDecision, audit_prunes


def decision(name, tier, figure=0.1):
    return TierDecision(net_name=name, tier=tier, bound=figure,
                        estimate=None, pruned=tier < 2, reason="test",
                        seconds=0.0)


# -- percentiles ------------------------------------------------------
def test_tail_is_nearest_rank_with_ten_samples_beyond():
    result = stats.percentiles([float(v) for v in range(100, 0, -1)])
    assert (result.n, result.p50, result.tail) == (100, 50.0, 90.0)
    assert (result.tail_pct, result.beyond) == (90.0, 10)


def test_tail_never_drops_below_the_median():
    result = stats.percentiles([float(v) for v in range(1, 16)])
    assert result.p50 == result.tail == 8.0
    assert result.beyond == 7 and result.n == 15


def test_single_sample():
    result = stats.percentiles([2.5])
    assert (result.p50, result.tail, result.beyond) == (2.5, 2.5, 0)


def test_percentiles_need_samples():
    with pytest.raises(ValueError):
        stats.percentiles([])


# -- failed / degraded accounting -------------------------------------
def test_a_net_fails_once_whatever_the_reasons():
    acct = stats.Accounting(attempted=4, analyzed=2, degraded=1)
    acct.fail("net1", "non-finite report")
    acct.fail("net1", "oracle pulse_height")
    assert acct.failed_frac == 0.25
    assert acct.degraded_frac == 0.5


def test_oracle_mismatch_counts_in_failed_frac(monkeypatch):
    mismatch = {"net": "net7", "field": "pulse_height", "screened": -0.44,
                "oracle": -0.4401, "delta": 1e-4}
    monkeypatch.setattr(workloads.trust, "run_audit", lambda *a, **k: {
        "checked": 2, "eligible": 3, "sampled": ["net2", "net7"],
        "mismatches": [mismatch]})
    acct = stats.Accounting(attempted=10, analyzed=3)
    result = workloads.PassResult(
        wall=1.0, cpu=1.0, setup_times=[], per_net={}, answers={},
        acct=acct, context=([], [], SimpleNamespace(reports=[]),
                            ScreeningConfig(noise_threshold=0.6), None))
    workloads.screen_audits(result, seed=4)
    assert acct.failed == {"net7": ["oracle pulse_height"]}
    assert acct.failed_frac == 0.1
    assert not result.problems  # counted, not a hard check
    assert any("net7.pulse_height" in note for note in result.notes)


# -- tier accounting --------------------------------------------------
NAMES = ["net0", "net1", "net2"]
DECISIONS = [decision("net0", 0), decision("net1", 1), decision("net2", 2)]


def test_tier_accounting_holds():
    reports = [None, None, object()]
    assert stats.check_tier_accounting(NAMES, DECISIONS, reports, set()) == []
    # A failed tier-2 net carries no report but is accounted for.
    assert stats.check_tier_accounting(
        NAMES, DECISIONS, [None, None, None], {"net2"}) == []


def test_report_on_a_pruned_net_fails():
    reports = [object(), None, object()]
    assert stats.check_tier_accounting(NAMES, DECISIONS, reports, set())


def test_escalated_net_without_outcome_fails():
    assert stats.check_tier_accounting(
        NAMES, DECISIONS, [None, None, None], set())


def test_net_decided_twice_fails():
    doubled = DECISIONS[:2] + [decision("net1", 2)]
    assert stats.check_tier_accounting(NAMES, doubled, [None] * 3, set())


# -- prune audit ------------------------------------------------------
def test_picks_closest_prune_per_tier_plus_a_seeded_one():
    decisions = [decision("a", 0, 0.2), decision("b", 0, 0.5),
                 TierDecision("c", 1, 0.9, 0.4, True, "t", 0.0),
                 TierDecision("d", 1, 0.9, 0.55, True, "t", 0.0),
                 decision("e", 2, 1.0), decision("f", 0, 0.1)]
    picks = stats.pick_prunes(decisions, seed=3)
    assert [p.net_name for p in picks[:2]] == ["b", "d"]
    assert len(picks) == 3 and picks[2].net_name in {"a", "c", "f"}
    assert picks == stats.pick_prunes(decisions, seed=3)


def test_unsound_prune_fails_the_check():
    """A prune whose tier-2 answer crosses the threshold is unsound."""
    nets = [SimpleNamespace(name="net0"), SimpleNamespace(name="net1")]
    doctored = [decision("net0", 0, 0.3), decision("net1", 1, 0.5)]

    class Analyzer:
        def analyze(self, net, **kwargs):
            return SimpleNamespace(
                pulse_height=-0.9 if net.name == "net1" else -0.1)

    config = ScreeningConfig(noise_threshold=0.6)
    audit = audit_prunes(nets, doctored, config=config,
                         analyzer=Analyzer(), rate=1.0)
    problems = stats.check_prune_audit(audit)
    assert len(problems) == 1 and "net1" in problems[0]


def test_sound_prunes_pass_the_check():
    assert stats.check_prune_audit({"unsound": []}) == []


# -- traced vs untraced answers ---------------------------------------
def test_identical_answers_pass():
    answers = {"net0": (2, 0.7, 0.8, -0.4, math.nan, "exact")}
    same = {"net0": (2, 0.7, 0.8, -0.4, math.nan, "exact")}
    assert stats.check_same_answers(answers, same) == []


def test_doctored_traced_answer_fails():
    untraced = {"net0": (2, 0.7, 0.8, -0.4, "exact")}
    traced = {"net0": (2, 0.7, 0.8, -0.4000000001, "exact")}
    assert stats.check_same_answers(untraced, traced)
    assert stats.check_same_answers(untraced, {})


def test_doctored_repeated_pass_fails_under_its_label():
    first = {"net0": (3e-11, 2e-11, 2.5e-11)}
    second = {"net0": (3e-11, 2e-11, 2.6e-11)}
    (problem,) = stats.check_same_answers(first, second, ("pass1", "pass2"))
    assert "pass2" in problem and "pass1" in problem


# -- repeated passes ----------------------------------------------------
def test_fastest_takes_each_nets_smallest_reading():
    readings = [{"net0": 1.2, "net1": 0.9}, {"net0": 1.0, "net1": 1.4}]
    assert stats.fastest(readings) == {"net0": 1.0, "net1": 0.9}
    assert stats.fastest(iter(readings[:1])) == readings[0]


# -- Fig-13 delays ----------------------------------------------------
def test_non_finite_fig13_delay_fails():
    assert stats.check_finite_delays({"net0": (3e-11, 2e-11, 2.5e-11)}) == []
    assert stats.check_finite_delays({"net0": (3e-11, math.nan, 2.5e-11)})
    assert stats.check_finite_delays({"net0": (math.inf, 2e-11, 2.5e-11)})


def test_error_pct():
    assert stats.error_pct([9.0, 12.0], [10.0, 10.0]) == \
        pytest.approx([10.0, 20.0])
