"""Summary arithmetic of the A/B benchmark script (tools/ab_bench.py)."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "ab_bench.py")
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

METRICS = [{"name": "sweep_s", "better": "lower", "bound": 0.25},
           {"name": "frames_per_s", "better": "higher", "bound": 0.25}]


def run(side, seed, sweep_s, frames_per_s, rc=0, workload="analytic"):
    return {"side": side, "workload": workload, "seed": seed, "rc": rc,
            "metrics": {"sweep_s": sweep_s, "frames_per_s": frames_per_s}}


def test_seed_ranges_and_lists():
    assert ab_bench.parse_seeds("11-13") == [11, 12, 13]
    assert ab_bench.parse_seeds("3,7") == [3, 7]
    assert ab_bench.parse_seeds("5") == [5]
    assert ab_bench.parse_plan(["fig1:1-2", "analytic:4"]) == [
        ("fig1", [1, 2]), ("analytic", [4])]


def test_pairs_alternate_which_side_runs_first():
    assert [ab_bench.side_order(i)[0] for i in range(4)] == [
        "parent", "change", "parent", "change"]


def test_quartiles_are_inclusive():
    assert ab_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert ab_bench.quartiles([1.0, 3.0]) == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert ab_bench.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_wins_losses_and_relative_median():
    runs = [run("parent", 1, 1.0, 100.0), run("change", 1, 0.5, 150.0),
            run("parent", 2, 2.0, 100.0), run("change", 2, 2.5, 100.0),
            run("parent", 3, 3.0, 100.0), run("change", 3, 1.0, 50.0)]
    s = ab_bench.summarize(runs, METRICS)["analytic"]
    assert s["pairs"] == 3 and s["seeds"] == [1, 2, 3]
    sweep = s["sweep_s"]
    assert sweep["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert sweep["change"] == {"median": 1.0, "q1": 0.75, "q3": 1.75}
    assert (sweep["change_wins"], sweep["change_losses"]) == (2, 1)
    assert sweep["median_rel_worse"] == pytest.approx(-0.5)
    assert sweep["bound"] == 0.25
    # higher is better: a lower rate is worse, an equal pair neither wins nor loses
    rate = s["frames_per_s"]
    assert (rate["change_wins"], rate["change_losses"]) == (1, 1)
    assert rate["median_rel_worse"] == pytest.approx(0.0)


def test_higher_is_better_sign():
    runs = [run("parent", 1, 1.0, 100.0), run("change", 1, 1.0, 80.0)]
    rate = ab_bench.summarize(runs, METRICS)["analytic"]["frames_per_s"]
    assert rate["median_rel_worse"] == pytest.approx(0.2)
    assert (rate["change_wins"], rate["change_losses"]) == (0, 1)


def test_a_failed_run_drops_its_pair():
    runs = [run("parent", 1, 1.0, 100.0), run("change", 1, 0.5, 200.0),
            run("parent", 2, 1.0, 100.0), run("change", 2, 9.0, 1.0, rc=1)]
    s = ab_bench.summarize(runs, METRICS)["analytic"]
    assert s["pairs"] == 1 and s["seeds"] == [1]
    assert s["sweep_s"]["change"]["median"] == 0.5


def test_zero_parent_median_has_no_relative_difference():
    runs = [run("parent", 1, 0.0, 100.0), run("change", 1, 0.1, 100.0)]
    per_layer = [{"name": "sweep_s", "better": "lower"}]
    entry = ab_bench.summarize(runs, per_layer)["analytic"]["sweep_s"]
    assert entry["median_rel_worse"] is None
    assert "bound" not in entry
