"""Summary arithmetic of the A/B benchmark script (tools/ab_bench.py)."""

import importlib.util
import json
import os
import resource

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


def test_pair_ratio_quartiles_follow_the_pairs():
    # a host that flips between a fast and a slow regime: the third pair
    # straddles a flip, which moves the change's median into the slow
    # regime (+50%), while every other pair reads the two sides equal
    runs = []
    for seed, (p, c) in enumerate(zip([1.0, 1.0, 1.0, 1.5, 1.5],
                                      [1.0, 1.0, 1.5, 1.5, 1.5])):
        runs += [run("parent", seed, p, 1.0), run("change", seed, c, 1.0)]
    sweep = ab_bench.summarize(runs, METRICS)["analytic"]["sweep_s"]
    assert sweep["median_rel_worse"] == pytest.approx(0.5)
    assert sweep["pair_ratio"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    # the quartiles of the ratios, not the ratio of the quartiles
    runs = [run("parent", 1, 1.0, 100.0), run("change", 1, 0.5, 150.0),
            run("parent", 2, 2.0, 100.0), run("change", 2, 2.5, 100.0),
            run("parent", 3, 3.0, 100.0), run("change", 3, 1.0, 50.0)]
    s = ab_bench.summarize(runs, METRICS)["analytic"]
    assert s["sweep_s"]["pair_ratio"] == pytest.approx(
        {"median": 0.5, "q1": 5 / 12, "q3": 0.875})
    assert s["frames_per_s"]["pair_ratio"] == pytest.approx(
        {"median": 1.0, "q1": 0.75, "q3": 1.25})


def test_pair_ratio_skips_a_zero_parent():
    runs = [run("parent", 1, 0.0, 100.0), run("change", 1, 0.1, 100.0),
            run("parent", 2, 2.0, 100.0), run("change", 2, 1.0, 100.0)]
    sweep = ab_bench.summarize(runs, METRICS)["analytic"]["sweep_s"]
    assert sweep["pair_ratio"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    zero = ab_bench.summarize(runs[:2], METRICS)["analytic"]["sweep_s"]
    assert zero["pair_ratio"] is None


def test_figure_run_records_cpu_rss_and_minor_faults(tmp_path, monkeypatch):
    # a stand-in for the CLI that writes 64 MB, page by page, and its CSV
    monkeypatch.setattr(ab_bench, "FIGURE_MAIN",
                        "import sys; b = b'x' * 64_000_000; "
                        "open(sys.argv[-1], 'w').write('# note\\n1,2\\n')")
    csv = tmp_path / "f.csv"
    rec = ab_bench.figure_run(ab_bench.ROOT, "change", 3, str(csv))
    assert rec["rc"] == 0 and rec["command"] == "otfslab figure 3"
    assert rec["peak_rss_mb"] >= 64
    assert rec["minflt"] >= 64_000_000 // os.sysconf("SC_PAGE_SIZE") // 2
    assert rec["wall_s"] >= rec["cpu_s"] * 0.5 >= 0
    assert ab_bench.data_rows(str(csv)) == ["1,2\n"]


def test_figure_run_peak_rss_is_the_childs_own(tmp_path, monkeypatch):
    # a child forked from this process starts its ru_maxrss at this
    # process's high-water mark, raised here past 64 MB; a bare interpreter
    # peaks far below that
    b = b"x" * 64_000_000
    del b
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 >= 64_000_000
    monkeypatch.setattr(ab_bench, "FIGURE_MAIN", "pass")
    rec = ab_bench.figure_run(ab_bench.ROOT, "change", 3, str(tmp_path / "f.csv"))
    assert rec["rc"] == 0
    assert 0 < rec["peak_rss_mb"] < 48


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


def ten_pairs(parent, change, workload="analytic"):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [run("parent", seed, p, 1.0 / p, workload=workload),
                 run("change", seed, c, 1.0 / c, workload=workload)]
    return runs


PARENT = [1.00, 1.02, 0.98, 1.04, 0.96, 1.01, 0.99, 1.03, 0.97, 1.00]


def test_gain_shown_needs_nine_of_ten_wins_and_a_median_beyond_the_spread():
    # parent q3 - q1 = 0.035; every change run 0.4 faster
    s = ab_bench.summarize(ten_pairs(PARENT, [p - 0.4 for p in PARENT]), METRICS)["analytic"]
    assert s["pairs_run"] == 10
    assert s["sweep_s"]["gain_shown"] and s["frames_per_s"]["gain_shown"]
    # nine wins of ten still shows the gain; eight does not
    nine = [p - 0.4 for p in PARENT[:9]] + [PARENT[9] + 0.1]
    assert ab_bench.summarize(ten_pairs(PARENT, nine), METRICS)["analytic"]["sweep_s"]["gain_shown"]
    eight = [p - 0.4 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    assert not ab_bench.summarize(ten_pairs(PARENT, eight), METRICS)["analytic"]["sweep_s"]["gain_shown"]


def test_gain_shown_is_false_inside_the_parent_spread_or_when_worse():
    # ten wins, but by 0.01 against a parent quartile spread of 0.035
    close = ab_bench.summarize(ten_pairs(PARENT, [p - 0.01 for p in PARENT]), METRICS)
    assert close["analytic"]["sweep_s"]["change_wins"] == 10
    assert not close["analytic"]["sweep_s"]["gain_shown"]
    worse = ab_bench.summarize(ten_pairs(PARENT, [p + 0.4 for p in PARENT]), METRICS)
    assert not worse["analytic"]["sweep_s"]["gain_shown"]
    assert not worse["analytic"]["frames_per_s"]["gain_shown"]


def test_a_failed_pair_counts_against_the_gain():
    # nine clear wins, but the tenth pair's change failed: 9 of 10 run
    runs = ten_pairs(PARENT, [p - 0.4 for p in PARENT])
    runs[-1]["rc"] = 1
    s = ab_bench.summarize(runs, METRICS)["analytic"]
    assert (s["pairs"], s["pairs_run"]) == (9, 10)
    assert s["sweep_s"]["gain_shown"]
    # two failed pairs leave eight wins of ten run
    runs[-3]["rc"] = 1
    assert not ab_bench.summarize(runs, METRICS)["analytic"]["sweep_s"]["gain_shown"]


def test_inclusive_seconds_per_sweep_from_a_span_dump(tmp_path):
    # spans are [name, start, end, parent, child time]; parents may be wrong
    # when hooks run on worker threads, so only the intervals are read
    spans = [["bench.sweep", 0.0, 1.0, -1, 0.0],
             ["engine.run_sweep", 0.1, 0.7, 0, 0.0],
             ["analytic.semi_mc", 0.2, 0.6, 1, 0.0],
             ["analytic.semi_mc", 0.3, 0.5, 2, 0.0],
             ["bench.sweep", 2.0, 3.0, -1, 0.0],
             ["engine.run_sweep", 2.1, 2.5, 4, 0.0],
             ["check", 4.0, 9.0, -1, 0.0]]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"counts": {}, "peaks": {}, "spans": spans}))
    got = ab_bench.inclusive_per_sweep(str(path))
    assert got.keys() == {"engine.run_sweep", "analytic.semi_mc"}
    assert got["engine.run_sweep"] == pytest.approx(0.5)
    assert got["analytic.semi_mc"] == pytest.approx(0.3)
