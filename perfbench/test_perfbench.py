"""Tests of the benchmark itself: names, equivalence with the engine, and gates.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import gates
import tracing
import workloads as wl
from otfslab import analytic, cli, engine, kernels, modem
from otfslab.fading import PathSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def curves(workload, seed=3):
    groups, _ = wl.setup(workload, seed, tracing.NULL)
    return [c for g in groups for c in g.curves]


class _Count(int):
    """A zero error count that adds to an int, as the engine at this commit
    does, and unpacks into (errors, errors_sq), as the kernels return."""

    def __iter__(self):
        return iter((int(self), 0))


class TestNames:
    def test_names_match_the_pattern_and_are_unique(self):
        b = benchmark_json()
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        assert all(NAME.match(n) for n in names)
        assert len(set(names)) == len(names)


class TestMonteCarloLoop:
    def test_path_operators_are_build_channel_matrix(self):
        for c in curves("fig2"):
            if c.diag:
                continue
            grid = c.cfg.grid
            for p, s in enumerate(c.cfg.paths):
                want = modem.build_channel_matrix([(1.0, s.l, s.k, s.kappa)], grid).H_eff
                np.testing.assert_array_equal(c.ops[p], want)
            gains = np.array([0.3 - 0.7j, -1.1 + 0.2j])
            both = modem.build_channel_matrix(
                [(g, s.l, s.k, s.kappa) for g, s in zip(gains, c.cfg.paths)], grid).H_eff
            np.testing.assert_allclose(np.tensordot(gains, c.ops, 1), both, atol=1e-13)

    def test_cp_response_is_the_closed_form(self):
        for c in curves("ofdm-cp"):
            M, N = c.cfg.grid.M, c.cfg.grid.N
            n, q = np.divmod(np.arange(M * N), M)
            for p, s in enumerate(c.cfg.paths):
                want = (np.exp(2j * np.pi * (s.k + s.kappa) * n / N)
                        * np.exp(-2j * np.pi * q * s.l / M))
                np.testing.assert_allclose(c.phi[p], want, atol=1e-13)
            assert c.energy == M / (2 * M - 1)

    @pytest.mark.parametrize("workload,diag", [("fig2", False), ("fig1", True)])
    def test_run_curve_draws_like_the_engine(self, monkeypatch, workload, diag):
        c = next(c for c in curves(workload) if c.diag == diag)
        c = replace(c, cfg=replace(c.cfg, snr_db=(0.0, 10.0), max_frames=300,
                                   target_bit_errors=10 ** 9))
        name = "diag_frame_errors" if diag else "matrix_frame_errors"
        first = 2 if diag else 1          # position of the gains argument
        seen = []

        def record(*args):
            seen.append(args[first:first + 3])
            return _Count(0)

        monkeypatch.setattr(kernels, name, record)
        monkeypatch.setattr(engine, "BATCH_FRAMES", 128)
        engine.run_sweep(c.cfg)
        by_engine, seen[:] = list(seen), []
        wl.run_curve(c, 300, tracing.NULL, [])
        assert len(seen) == len(by_engine) == 6     # 2 points x (128, 128, 44)
        for ours, theirs in zip(seen, by_engine):
            for a, b in zip(ours, theirs):
                np.testing.assert_array_equal(a, b)

    def test_fixed_budget_and_repeatable(self):
        c = curves("fig1")[0]
        a = wl.run_curve(c, 1000, tracing.NULL, [])
        assert [r.frames for r in a] == [1000] * len(c.cfg.snr_db)
        assert a == wl.run_curve(c, 1000, tracing.NULL, [])


class TestGates:
    def test_oracle_flags_an_injected_count(self):
        for c in curves("fig1")[:2]:          # one matrix, one diagonal curve
            assert gates.oracle_point(c, 0, 4096)[1] == 0

            def off_by_one(c, g, s, n):
                return wl.frame_errors(c, g, s, n)[0] + 1, 0

            assert gates.oracle_point(c, 0, 4096, frame_errors=off_by_one)[1] \
                == gates.ORACLE_FRAMES

    def test_single_path_gate(self):
        c = next(c for c in curves("fig1") if not c.diag)
        r = wl.run_curve(c, 8192, tracing.NULL, [])[2]       # 4 dB
        assert gates.single_path_ok(c, 4.0, r)[0]
        doubled = replace(r, errors=2 * r.errors, errors_sq=4 * r.errors_sq)
        assert not gates.single_path_ok(c, 4.0, doubled)[0]

    def test_cp_reference_carries_the_energy_factor(self):
        c = next(c for c in curves("fig1") if c.diag)
        r = wl.run_curve(c, 8192, tracing.NULL, [])[2]
        assert gates.single_path_ok(c, 4.0, r)[0]
        assert not gates.single_path_ok(replace(c, energy=1.0), 4.0, r)[0]

    def test_siso_gate(self):
        mod = analytic.mod_params("qpsk", 4)
        paths = (PathSpec(m=2, omega=2 / 3), PathSpec(m=3, omega=1 / 3, l=1))
        value = analytic.siso_ber(10.0, paths, mod)
        assert gates.siso_ok(value, 10.0, paths, mod)[0]
        assert not gates.siso_ok(value * 1.001, 10.0, paths, mod)[0]
        assert not gates.siso_ok("DegenerateScalesError", 10.0, paths, mod)[0]

    def test_craig_form_matches_rayleigh(self):
        mod = analytic.mod_params("bpsk")
        got = gates.craig_ber(10.0, (PathSpec(m=1, omega=1.0),), mod)
        assert got == pytest.approx(analytic.rayleigh_bpsk_ber(10.0), rel=1e-9)

    def test_figure_point_gate(self):
        cfg = wl.figure_runs(3, 1)[0][0]
        assert not cfg.interferers
        det = analytic.deterministic_ber(10.0, analytic.mod_params("qpsk", 4))
        good = engine.BerPoint(snr_db=10.0, bit_errors=0, bits=0, ber=det,
                               ci_low=det, ci_high=det, analytic_ber=det)
        assert gates.figure_point_ok(good, cfg)[0]
        for bad in (replace(good, ber=det * 1.01), replace(good, ber=math.nan),
                    replace(good, analytic_ber=1.5)):
            assert not gates.figure_point_ok(bad, cfg)[0]

    def test_csv_round_trip_gate(self, tmp_path):
        c = curves("fig1")[0]
        curve = wl.to_curve(c, wl.run_curve(c, 512, tracing.NULL, []))
        path = str(tmp_path / "out.csv")
        cli.emit_csv([curve], path)
        assert gates.csv_ok(path, [curve])[0]
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        row = cli.curve_rows(curve)[0].split(",")
        row[5] = str(int(row[5]) + 1)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(cli.curve_rows(curve)[0], ",".join(row)))
        assert not gates.csv_ok(path, [curve])[0]

    def test_engine_probe_gate(self, monkeypatch):
        c = curves("fig1")[0]
        ours = wl.run_curve(c, gates.PROBE_FRAMES, tracing.NULL, [])
        same = wl.to_curve(c, ours)
        monkeypatch.setattr(engine, "run_sweep", lambda cfg: same)
        assert all(gates.probe_engine(c, ours)[0])
        wrong = replace(same, points=(replace(same.points[0], bit_errors=-1),)
                        + same.points[1:])
        monkeypatch.setattr(engine, "run_sweep", lambda cfg: wrong)
        ok, _ = gates.probe_engine(c, ours)
        assert ok == [False] + [True] * (len(ok) - 1)

        def broken(cfg):
            raise TypeError("broken entry point")

        monkeypatch.setattr(engine, "run_sweep", broken)
        ok, why = gates.probe_engine(c, ours)
        assert not any(ok) and "TypeError" in why

    def test_check_mc_flags_a_sweep_that_does_not_repeat(self, tmp_path):
        groups, _ = wl.setup("fig1", 3, tracing.NULL)
        outputs = [wl.mc_sweep(groups, 512, str(tmp_path), "t", tracing.NULL)
                   for _ in range(2)]
        ledger = gates.Ledger()
        gates.check_mc(groups, 512, outputs, ledger, tracing.NULL)
        assert ledger.failed["mc_point"] == 0 and ledger.correct
        label = groups[0].curves[0].label
        r = outputs[1]["results"][label]
        outputs[1]["results"][label] = (replace(r[0], errors=r[0].errors + 1),) + r[1:]
        ledger = gates.Ledger()
        gates.check_mc(groups, 512, outputs, ledger, tracing.NULL)
        assert ledger.failed["mc_point"] == 1 and not ledger.correct

    def test_a_raising_kernel_fails_its_points(self, monkeypatch, tmp_path):
        groups, _ = wl.setup("fig1", 3, tracing.NULL)

        def broken(*args):
            raise FloatingPointError("broken kernel")

        monkeypatch.setattr(kernels, "matrix_frame_errors", broken)
        outputs = [wl.mc_sweep(groups, 512, str(tmp_path), "t", tracing.NULL)]
        ledger = gates.Ledger()
        gates.check_mc(groups, 512, outputs, ledger, tracing.NULL)
        matrix = [c for c in groups[0].curves if not c.diag]
        assert ledger.failed["mc_point"] == sum(len(c.cfg.snr_db) for c in matrix)
        assert ledger.failed["csv"] == 0 and not ledger.correct
        gates.probe_mc(groups, ledger)
        assert ledger.failed["engine_probe"] == ledger.attempted["engine_probe"]

    def test_a_raising_preset_fails_its_points(self, monkeypatch, tmp_path):
        groups, domain = wl.setup("analytic", 3, tracing.NULL)
        domain = domain[:2]
        broken_cfg = groups[1].curves[0]
        run_sweep = engine.run_sweep

        def broken(cfg, progress=None):
            if cfg is broken_cfg:
                raise ValueError("broken preset")
            return run_sweep(cfg, progress)

        monkeypatch.setattr(engine, "run_sweep", broken)
        outputs = [wl.analytic_sweep(groups, domain, str(tmp_path), "t", tracing.NULL)]
        ledger = gates.Ledger()
        gates.check_analytic(groups, domain, outputs, ledger)
        assert ledger.failed["figure_point"] == len(broken_cfg.snr_db)
        assert ledger.failed["csv"] == 0 and not ledger.correct

    def test_correct_reflects_result_kinds_only(self):
        ledger = gates.Ledger()
        ledger.record("mc_point", True)
        ledger.record("engine_probe", False, "raised")
        assert ledger.correct and ledger.totals() == (2, 1)
        ledger.record("csv", False, "bad row")
        assert not ledger.correct


class TestTracing:
    def test_self_time_excludes_children(self):
        tr = tracing.Tracer()
        with tr.span(tracing.SWEEP):
            with tr.span("engine.run_sweep"):
                with tr.span("analytic.semi_mc"):
                    sum(range(20000))
        s = tr.summary()
        outer = tr.spans[1][2] - tr.spans[1][1]
        inner = tr.spans[2][2] - tr.spans[2][1]
        assert s["self_s"]["engine.run_sweep"] == pytest.approx(outer - inner)
        assert s["sweeps"] == 1 and s["uncovered_s"] >= 0.0

    def test_tail_has_ten_samples_beyond(self):
        p50, ptail, level, n = tracing.tail(list(range(100)))
        assert (p50, ptail, level, n) == (49.5, 89, 90.0, 100)
        assert tracing.tail([]) == (0.0, 0.0, 0.0, 0)

    def test_wrapped_restores_the_module(self):
        tr = tracing.Tracer()
        original = analytic.multiuser_ber
        with tracing.wrapped(tr, ((analytic, "multiuser_ber", "x", None, None),)):
            assert analytic.multiuser_ber is not original
        assert analytic.multiuser_ber is original


@pytest.mark.parametrize("workload,trace", [("analytic", 1), ("ofdm-cp", 0)])
def test_run_prints_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = benchmark_json()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
