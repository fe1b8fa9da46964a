"""Self-tests of the layer table and of the benchmark's declared metrics."""

import json
import pathlib
import sys
import time
import types

import pytest

import layers
import workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _fail(_state):
    raise AssertionError("a carried-over state is not characterized again")


@pytest.fixture
def fake_program(monkeypatch):
    """A two-module stand-in for the program: ``top_a`` calls ``top_b``
    and ``inner`` from inside, ``top_b`` is also called directly."""
    lib = types.ModuleType("fakeprog.lib")

    def inner():
        _spin(0.002)

    def top_b():
        _spin(0.003)
        lib.inner()

    def top_a():
        _spin(0.004)
        lib.top_b()
        lib.inner()

    lib.inner, lib.top_b, lib.top_a = inner, top_b, top_a
    user = types.ModuleType("fakeprog.user")
    user.top_b = top_b  # imported by name elsewhere in the package
    for name, module in (("fakeprog", types.ModuleType("fakeprog")),
                         ("fakeprog.lib", lib), ("fakeprog.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return lib, user


FAKE_LAYERS = (
    ("a.s", "a.calls", ("fakeprog.lib:top_a",)),
    ("b.s", "b.calls", ("fakeprog.lib:top_b",)),
    ("inner.s", "inner.calls", ("fakeprog.lib:inner",)),
    ("gone.s", None, ("fakeprog.lib:removed", "fakeprog.nowhere:f")),
)


def test_top_rows_and_unattributed_sum_to_the_wall(fake_program):
    lib, user = fake_program
    recorder = layers.LayerRecorder(("a.s", "b.s"), layers=FAKE_LAYERS,
                                    observers={}, package="fakeprog")
    recorder.install()
    try:
        start = time.perf_counter()
        lib.top_a()
        user.top_b()
        _spin(0.002)  # benchmark-side work no row covers
        wall = time.perf_counter() - start
    finally:
        recorder.uninstall()
    rows = dict(recorder.phases["pass"].seconds,
                **recorder.phases["pass"].calls)
    # top_b inside top_a counts toward a only; the direct call counts.
    assert rows["a.calls"] == 1 and rows["b.calls"] == 1
    assert rows["inner.calls"] == 3  # lower layers count every call
    rest = layers.unattributed(rows, recorder.top, wall)
    assert rows["a.s"] + rows["b.s"] + rest == pytest.approx(wall, abs=1e-12)
    assert 0.002 <= rest < wall
    assert rows["a.s"] >= 0.011 and rows["b.s"] >= 0.005
    # Missing targets are skipped, and uninstall restores the program.
    assert len(recorder.skipped) == 2 and "gone.s" not in rows
    assert user.top_b is lib.top_b and lib.top_a.__name__ == "top_a"
    assert not hasattr(lib.top_a, "__wrapped__")


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def test_layer_table_has_every_declared_row():
    recorder = layers.LayerRecorder(workloads.SCREEN_TOP)
    table = layers.layer_table(recorder, PER_LAYER, wall=2.0,
                               untraced_wall=1.6,
                               extra={"failed_frac": 0.01})
    assert list(table) == PER_LAYER
    assert table["unattributed.s"] == 2.0
    assert table["trace.overhead_frac"] == pytest.approx(0.25)
    assert table["failed_frac"] == 0.01


def test_every_layer_row_and_workload_is_declared():
    declared = set(PER_LAYER)
    for metric, calls, _targets in layers.LAYERS:
        assert metric in declared and (calls is None or calls in declared)
    for workload in workloads.WORKLOADS.values():
        assert set(workload.top) <= declared
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_populations_repeat_per_seed_as_fresh_objects():
    first, second = (workloads.fig13_nets(5) for _ in range(2))
    assert [n.name for n in first] == [n.name for n in second]
    assert first[3] is not second[3]
    assert [c.capacitance for c in first[3].interconnect.capacitors] == \
        [c.capacitance for c in second[3].interconnect.capacitors]


def test_every_block_of_nine_is_balanced():
    configs = workloads.balanced_configs(
        workloads.NetGenConfig.screening(), 18, seed=7)
    for block in (configs[:9], configs[9:]):
        pairs = {(c.victim_driver_scales, c.n_aggressors, c.receiver_scales,
                  c.victim_slews) for c in block}
        assert len(pairs) == 9
        for f in range(4):
            assert len({p[f] for p in pairs}) == 3
        for strata in ("victim_r_range", "victim_c_range",
                       "coupling_ratio_range"):
            assert len({getattr(c, strata) for c in block}) == 9
    # The second block takes the upper half of the coupling strata.
    assert max(c.coupling_ratio_range[1] for c in configs[:9]) == \
        pytest.approx(min(c.coupling_ratio_range[0] for c in configs[9:]))


def test_a_block_has_the_same_composition_on_every_seed():
    def composition(seed):
        return sorted(
            (c.victim_driver_scales, c.n_aggressors, c.victim_r_range,
             c.victim_c_range, c.coupling_ratio_range)
            for c in workloads.balanced_configs(workloads.FIG13_BASE, 9,
                                                seed))
    assert len(composition(1)) == 9
    assert composition(1) == composition(2)
    with pytest.raises(ValueError):
        workloads.balanced_configs(workloads.FIG13_BASE, 10, 1)


def test_one_level_factors_stay_fixed():
    configs = workloads.balanced_configs(workloads.SCREEN_BASE, 9, seed=7)
    assert {c.receiver_scales for c in configs} == {(2.0,)}
    assert len({(c.victim_driver_scales, c.n_aggressors)
                for c in configs}) == 9


def test_screen_block_tables_do_not_depend_on_the_seed():
    """Every seed escalates nets that need the same characterization."""
    loud, _ = workloads.SCREEN_BLOCKS[-1]

    def cells(seed):
        nets = workloads.screen_block_nets(seed)[-loud:]
        return ({n.receiver.gate.name for n in nets},
                {(n.victim_driver.gate.name, n.victim_driver.input_slew)
                 for n in nets},
                {(a.driver.gate.name, a.driver.input_slew)
                 for n in nets for a in n.aggressors})
    assert cells(1) == cells(2)
    receivers, victims, aggressors = cells(1)
    assert (len(receivers), len(victims), len(aggressors)) == (1, 3, 1)


@pytest.mark.parametrize("seed", [1, 2])
def test_screen_block_blocks_settle_in_their_tiers(seed):
    """Tier 0 prunes the quiet nets, tier 1 the middle block, and the
    loud block escalates, so both pruning tiers and tier 2 do work."""
    from repro.core.screening import ScreeningConfig, triage

    decisions, _ = triage(workloads.screen_block_nets(seed),
                          ScreeningConfig(workloads.NOISE_THRESHOLD))
    expected = [tier for tier, (count, _) in enumerate(
        workloads.SCREEN_BLOCKS) for _ in range(count)]
    assert [d.tier for d in decisions] == expected


def test_set_up_is_the_median_of_fresh_characterizations():
    made = []

    def make():
        made.append(object())
        return made[-1]

    seconds = iter([0.03, 0.01, 0.02])
    meter = workloads.Meter(3)
    state = meter.characterize(make, lambda _state: _spin(next(seconds)))
    assert len(made) == 3 and state is made[-1]
    result = workloads.PassResult(
        wall=0.0, cpu=0.0, setup_times=meter.setup_times, per_net={},
        answers={}, acct=None)
    assert result.setup == sorted(meter.setup_times)[1]
    assert 0.02 <= result.setup < 0.03


def test_a_later_pass_carries_over_the_characterization():
    first = workloads.Meter(2)
    state = first.characterize(object, lambda _state: None)
    later = workloads.Meter(state=first.state)
    assert later.characterize(object, _fail) is state
    assert len(first.setup_times) == 2 and later.setup_times == []


def test_extracted_tree_crosses_both_size_thresholds():
    from repro.circuit.mna import SPARSE_MIN_DIM
    from repro.core.screening import TICER_MIN_NODES

    (net,) = workloads.extracted_tree_nets(3)
    nodes = len(net.interconnect.nodes())
    lo, hi = workloads.TREE_NODES
    assert lo <= nodes <= hi
    assert nodes >= TICER_MIN_NODES and nodes >= SPARSE_MIN_DIM


def test_the_seed_sets_the_tree_values_not_its_shape():
    first, second = (workloads.extracted_tree_nets(seed)[0]
                     for seed in (3, 4))
    assert sorted(first.interconnect.nodes()) == \
        sorted(second.interconnect.nodes())
    assert sum(c.capacitance for c in first.interconnect.capacitors) != \
        sum(c.capacitance for c in second.interconnect.capacitors)
