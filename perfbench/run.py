#!/usr/bin/env python3
"""Benchmark of otfslab: BER curves end to end, and per layer when traced.

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout, importing the package from ``src``.  It
repeats the workload's sweep (every curve at a fixed frame budget) for
``--seconds``, checks the results outside the timed region, and prints one
line per metric, then one JSON object as the last line of stdout.  With
``--trace 0`` the JSON holds the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced sweeps and holds the per-layer metrics.
Outputs (CSV files, the span dump) go to ``.perfbench-out/``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workload names, and each metric's name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def with_units(listed, values) -> dict:
    """{name: {"value", "unit"}} of every metric BENCHMARK.json lists, printed
    one per line.  A listed metric the run did not compute is a KeyError."""
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return metrics


def parse_args(spec, argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and print it as JSON")
    return ap.parse_args(argv)


def import_package() -> None:
    """Import otfslab from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import otfslab
    if os.path.dirname(os.path.dirname(os.path.abspath(otfslab.__file__))) != src:
        raise SystemExit(f"otfslab imported from {otfslab.__file__}, not from {src}")


def setup_sample(args) -> float:
    """Set-up time of a fresh interpreter: import, presets, operators."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def measure(sweep, seconds, tr, hooks, setup_once):
    """Repeat the sweep until `seconds` of sweeping; with a tracer, every
    second sweep is traced.  Between sweeps, SETUP_SAMPLES set-ups run at
    evenly spaced points of the run, so that they see the same phases of a
    shared host as the sweeps do.  Returns (untraced times, traced times,
    outputs, set-up times)."""
    untraced, traced, outputs, setups = [], [], [], []
    swept = 0.0
    while True:
        while (len(setups) < SETUP_SAMPLES
               and swept >= len(setups) * seconds / SETUP_SAMPLES):
            setups.append(setup_once())
        use = tr if tr.enabled and len(outputs) % 2 == 1 else tracing.NULL
        t0 = perf_counter()
        with tracing.wrapped(use, hooks), use.span(tracing.SWEEP):
            outputs.append(sweep(use))
        dt = perf_counter() - t0
        (traced if use.enabled else untraced).append(dt)
        swept += dt
        if swept >= seconds and (traced or not tr.enabled):
            while len(setups) < SETUP_SAMPLES:
                setups.append(setup_once())
            return untraced, traced, outputs, setups


def layer_metrics(tr, traced, untraced, ledger, siso_failed) -> dict:
    s = tr.summary()
    n = max(1, s["sweeps"])
    self_s, outside = s["self_s"], s["outside_s"]
    c = tr.counts
    m = {
        "kernels.matrix_s": self_s.get("kernels.matrix", 0.0) / n,
        "kernels.matrix_frames": c["kernels.matrix_frames"] / n,
        "kernels.matrix_cand_evals": c["kernels.matrix_cand_evals"] / n,
        "kernels.matrix_temp_mb": tr.peaks.get("kernels.matrix_temp_mb", 0.0),
        "kernels.diag_s": self_s.get("kernels.diag", 0.0) / n,
        "fading.draw_s": self_s.get("fading.draw", 0.0) / n,
        "fading.frames_drawn": c["fading.frames_drawn"] / n,
        "modem.setup_s": outside.get("modem.setup", 0.0),
        "modem.candidates": c["modem.candidates"],
        "analytic.siso_s": self_s.get("analytic.siso", 0.0) / n,
        "analytic.siso_evals": c["analytic.siso_evals"] / n,
        "analytic.siso_failed": siso_failed,
        "analytic.semi_mc_s": self_s.get("analytic.semi_mc", 0.0) / n,
        "analytic.multiuser_s": self_s.get("analytic.multiuser", 0.0) / n,
        "engine.run_sweep_s": self_s.get("engine.run_sweep", 0.0) / n,
        "engine.probe_s": outside.get("engine.probe", 0.0),
        "engine.probe_failed": ledger.failed["engine_probe"],
        "cli.emit_s": self_s.get("cli.emit", 0.0) / n,
        "cli.emit_bytes": c["cli.emit_bytes"] / n,
        "check.s": outside.get("check", 0.0),
        "check.oracle_frames": c["check.oracle_frames"],
        "check.oracle_mismatch": c["check.oracle_mismatch"],
        "trace.overhead_frac": statistics.fmean(traced) / statistics.fmean(untraced) - 1.0,
        "trace.unaccounted_s": s["uncovered_s"] / n,
    }
    for span in tracing.BATCH_SPANS:
        name = span + "_batch_ms"
        p50, ptail, level, count = tracing.tail(s["batch_ms"].get(span, []))
        m.update({f"{name}.p50": p50, f"{name}.ptail": ptail,
                  f"{name}.ptail_pct": level, f"{name}.n": count})
    return m


def main(argv=None) -> int:
    spec = benchmark_spec()
    args = parse_args(spec, argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if args.setup_only:
        t0 = perf_counter()
        import_package()
        import workloads as wl
        wl.setup(args.workload, args.seed, tracing.NULL)
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0

    import_package()
    import numpy
    import scipy
    import gates
    import workloads as wl
    from otfslab import analytic, kernels

    tr = tracing.Tracer() if args.trace else tracing.NULL
    groups, domain = wl.setup(args.workload, args.seed, tr)
    os.makedirs(OUT_DIR, exist_ok=True)

    if domain is None:
        frames = wl.FRAME_BUDGET[args.workload]

        def sweep(t):
            return wl.mc_sweep(groups, frames, OUT_DIR, args.workload, t)
        hooks = ()
    else:
        def sweep(t):
            return wl.analytic_sweep(groups, domain, OUT_DIR, args.workload, t)
        hooks = ((analytic, "semi_analytic_mc_ber", "analytic.semi_mc", None, None),
                 (analytic, "multiuser_ber", "analytic.multiuser", None, None),
                 (analytic, "sample_nakagami_gains", "fading.draw",
                  "fading.frames_drawn", 2))

    untraced, traced, outputs, setup_s = measure(
        sweep, args.seconds, tr, hooks, lambda: setup_sample(args))

    ledger = gates.Ledger()
    with tr.span("check"):
        if domain is None:
            gates.check_mc(groups, frames, outputs, ledger, tr)
        else:
            gates.check_analytic(groups, domain, outputs, ledger)
    if domain is None:
        with tr.span("engine.probe"):
            gates.probe_mc(groups, ledger)
        siso_failed = len(outputs[0]["siso_raised"])
    else:
        siso_failed = ledger.failed["siso_domain"]
    attempted, failed = ledger.totals()

    # The mean sweep, i.e. measured time over sweeps completed: on a shared
    # host the same code runs up to 1.5x slower for tens of seconds at a time,
    # and the mean varied least from run to run (see README.md).
    sweep_s = statistics.fmean(untraced)
    end_to_end = {
        "sweep_s": sweep_s,
        "frames_per_s": outputs[0]["frames"] / sweep_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": statistics.median(setup_s),
        # rule of succession: stays above zero when nothing fails
        "fail_frac": (failed + 1) / (attempted + 2),
    }
    env = (f"python {platform.python_version()}, numpy {numpy.__version__}, "
           f"scipy {scipy.__version__}, numba "
           f"{'present' if importlib.util.find_spec('numba') else 'absent'}, kernels backend "
           f"{kernels.active_backend()}, {THREAD_VARS[0]}=1, one process")
    print(f"# otfslab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"# env: {env}")
    p50, ptail, level, n = tracing.tail(untraced)
    print(f"# sweep seconds: mean {sweep_s:.4f}, min {min(untraced):.4f}, p50 {p50:.4f}, "
          f"p{level:.3g} {ptail:.4f}, n {n}; untraced "
          + " ".join(f"{t:.4f}" for t in untraced)
          + (f"; traced " + " ".join(f"{t:.4f}" for t in traced) if traced else ""))
    print("# setup samples: " + " ".join(f"{t:.4f}" for t in setup_s))
    for kind in sorted(ledger.attempted):
        print(f"# check {kind}: {ledger.attempted[kind]} attempted, "
              f"{ledger.failed[kind]} failed")
        for reason in ledger.reasons.get(kind, []):
            print(f"#   {reason}")
    print(f"# correct: {ledger.correct} (result checks: "
          f"{', '.join(gates.RESULT_KINDS)}); failed {failed} of {attempted}")
    metrics = with_units(spec["end_to_end"], end_to_end)
    if args.trace:
        layers = layer_metrics(tr, traced, untraced, ledger, siso_failed)
        metrics = with_units(spec["per_layer"], layers)
        tr.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                dict(workload=args.workload, seed=args.seed, env=env,
                     untraced_s=untraced, traced_s=traced))
    print(json.dumps({"correct": ledger.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
