#!/usr/bin/env python3
"""A/B benchmark: a parent git ref against the working tree, pair by pair.

    python3 tools/ab_bench.py --parent HEAD --out BENCH_5.json \\
        --workload analytic:11-20 --workload fig1:11-20 \\
        --traced analytic:11-12 --figure 3 --figure 4

Run from the repository root.  The parent is extracted with ``git archive``
into a temporary directory.  For every seed of every ``--workload`` it runs
``perfbench/run.py --trace 0`` for the ``run_seconds`` of
``BENCHMARK.json``, once from the parent and once from the working tree,
in alternating order (the pair of the i-th seed starts with the parent
when i is even), so that slow phases of a shared host fall on both sides
alike.  ``--traced`` does the same with ``--trace 1``.
``--figure N`` times ``otfslab figure N`` on both sides, alternating, and
compares the CSV data rows.

The JSON written to ``--out`` holds every run and, per workload and metric
listed in ``BENCHMARK.json``, the median and quartiles of each side, the
pairs the change wins and loses, and ``median_rel_worse``: how much worse
the change's median is than the parent's, relative to it (negative when
better), next to the metric's bound.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900
FIGURE_REPEATS = 2
FIGURE_MAIN = "import sys; from otfslab.cli import main; sys.exit(main(sys.argv[1:]))"


def parse_seeds(text: str) -> list:
    """'11-15' -> [11, ..., 15]; '3,7' -> [3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_plan(items) -> list:
    """['analytic:11-20', ...] -> [('analytic', [11, ..., 20]), ...]."""
    plan = []
    for item in items:
        name, _, seeds = item.partition(":")
        if not seeds:
            raise SystemExit(f"expected WORKLOAD:SEEDS, got {item!r}")
        plan.append((name, parse_seeds(seeds)))
    return plan


def side_order(index: int) -> tuple:
    """Sides in the order the index-th pair runs them."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def quartiles(values) -> dict:
    """Median and inclusive quartiles (all three equal for one value)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, metrics) -> dict:
    """Per workload and metric: both sides' quartiles, wins and losses of the
    change over the pairs where both sides succeeded, and the relative
    difference of the medians (positive when the change is worse; None
    when the parent's median is 0).

    ``runs`` are run records with side, workload, seed, rc and a flat
    ``metrics`` dict; ``metrics`` are BENCHMARK.json entries (name, better
    and, for end-to-end metrics, bound)."""
    by_key = {(r["workload"], r["seed"], r["side"]): r for r in runs if r["rc"] == 0}
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        seeds = sorted({s for w, s, side in by_key if w == workload and side == "parent"
                        and (w, s, "change") in by_key})
        if not seeds:
            continue
        entry = {"pairs": len(seeds), "seeds": seeds}
        for m in metrics:
            name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
            pairs = [(by_key[workload, s, "parent"]["metrics"][name],
                      by_key[workload, s, "change"]["metrics"][name]) for s in seeds]
            parent = quartiles([p for p, _ in pairs])
            change = quartiles([c for _, c in pairs])
            base = parent["median"]
            entry[name] = {
                "parent": parent, "change": change,
                "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
                "change_losses": sum(sign * (c - p) > 0 for p, c in pairs),
                "median_rel_worse": sign * (change["median"] - base) / abs(base) if base else None,
            }
            if "bound" in m:
                entry[name]["bound"] = m["bound"]
        out[workload] = entry
    return out


def extract(ref: str, dest: str) -> str:
    """Extract `ref` into `dest` with git archive; returns the commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def bench_run(root: str, side: str, workload: str, seed: int, first: str,
              seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    rec = {"side": side, "workload": workload, "seed": seed, "first": first,
           "rc": done.returncode}
    if done.returncode != 0:
        rec["stderr_tail"] = done.stderr[-2000:]
        return rec
    last = json.loads(done.stdout.strip().splitlines()[-1])
    rec["metrics"] = {k: v["value"] for k, v in last["metrics"].items()}
    rec.update(correct=last["correct"], failed=last["failed"],
               attempted=last["attempted"])
    return rec


def figure_run(root: str, side: str, number: int, csv_path: str) -> dict:
    """Wall time and peak RSS of one `otfslab figure N` in its own process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-c", FIGURE_MAIN, "figure", str(number), "--out", csv_path]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"command": f"otfslab figure {number}", "side": side, "rc": proc.returncode,
            "wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss * 1024 / 1e6, 1)}


def data_rows(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if not line.startswith("#")]


def host() -> str:
    mem_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30
    import numpy
    return (f"{os.cpu_count()} cores, {mem_gb:.0f} GB, {platform.system()}, "
            f"python {platform.python_version()}, numpy {numpy.__version__}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the baseline")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--workload", action="append", default=[], metavar="NAME:SEEDS",
                    help="end-to-end pairs, e.g. analytic:11-20 (repeatable)")
    ap.add_argument("--traced", action="append", default=[], metavar="NAME:SEEDS",
                    help="--trace 1 pairs (repeatable)")
    ap.add_argument("--figure", action="append", type=int, default=[],
                    help="time `otfslab figure N` on both sides (repeatable)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        parent_root = os.path.join(tmp, "parent")
        sha = extract(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        runs, traced = [], []
        for trace, plan, sink in ((0, args.workload, runs), (1, args.traced, traced)):
            for workload, seeds in parse_plan(plan):
                for i, seed in enumerate(seeds):
                    order = side_order(i)
                    for side in order:
                        rec = bench_run(roots[side], side, workload, seed, order[0],
                                        spec["run_seconds"], trace)
                        sink.append(rec)
                        print(f"{workload} seed {seed} trace {trace} {side}: "
                              f"rc {rec['rc']}", file=sys.stderr)
        figures, identical = [], {}
        for number in args.figure:
            csvs = {side: os.path.join(tmp, f"figure{number}-{side}.csv") for side in SIDES}
            for i in range(FIGURE_REPEATS):
                for side in side_order(i):
                    figures.append(figure_run(roots[side], side, number, csvs[side]))
            if all(f["rc"] == 0 for f in figures if f["command"].endswith(f" {number}")):
                identical[str(number)] = data_rows(csvs["parent"]) == data_rows(csvs["change"])

    report = {
        "what": (f"perfbench/run.py, parent {args.parent} ({sha[:7]}) vs the working tree, "
                 f"alternating order, --seconds {spec['run_seconds']:g}"),
        "host": host(),
        "summary": summarize(runs, spec["end_to_end"]),
        "traced_summary": summarize(traced, spec["per_layer"]),
        "figure_cli": figures,
        "figure_data_rows_identical": identical,
        "runs": runs,
        "traced_runs": traced,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
