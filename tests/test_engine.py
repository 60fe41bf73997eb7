"""Sweep orchestration: determinism, pairing, early stopping, intervals."""

import collections
import dataclasses
import math
import os
import threading
import time

import numpy as np
import pytest

from otfslab import analytic, cli, engine, kernels, modem
from otfslab.engine import BerCurve, SweepConfig, run_sweep, wilson_interval
from otfslab.errors import CapacityError, ConfigError
from otfslab.fading import PathSpec, make_stream, sample_nakagami_gains
from otfslab.modem import OtfsGrid


def small_config(**over):
    base = dict(grid=OtfsGrid(M=2, N=2), scheme="bpsk", order=2,
                paths=(PathSpec(m=1, omega=1.0),), snr_db=(0.0, 6.0),
                max_frames=20_000, target_bit_errors=150, master_seed=5)
    base.update(over)
    return SweepConfig(**base)


class TestWilson:
    def test_zero_errors_lower_bound_is_zero(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi > 0.0

    def test_half_rate_centered_and_symmetric(self):
        lo, hi = wilson_interval(50, 100)
        assert abs((lo + hi) / 2 - 0.5) < 1e-3
        assert abs((0.5 - lo) - (hi - 0.5)) < 1e-3

    def test_coverage_at_one_percent(self):
        # synthetic Bernoulli experiments; the interval must cover the true
        # probability in at least 93% of them
        rng = np.random.default_rng(123)
        p = 0.01
        n = 1000
        covered = 0
        for _ in range(10_000):
            errs = int(rng.binomial(n, p))
            lo, hi = wilson_interval(errs, n)
            covered += int(lo <= p <= hi)
        assert covered / 10_000 >= 0.93

    def test_domain(self):
        with pytest.raises(ConfigError):
            wilson_interval(5, 0)
        with pytest.raises(ConfigError):
            wilson_interval(-1, 10)
        with pytest.raises(ConfigError):
            wilson_interval(11, 10)


class TestRunSweep:
    def test_noise_free_sanity_zero_errors(self):
        cfg = small_config(snr_db=(200.0,), max_frames=4096, target_bit_errors=1)
        curve = run_sweep(cfg)
        assert curve.points[0].bit_errors == 0
        assert curve.points[0].ber == 0.0

    def test_bits_accounting(self):
        cfg = small_config()
        curve = run_sweep(cfg)
        for p in curve.points:
            assert p.bits == p.bits // 8 * 8  # whole frames of MN*bps bits
            assert p.ber == pytest.approx(p.bit_errors / p.bits, abs=0)
            assert p.ci_low <= p.ber <= p.ci_high

    def test_determinism_same_seed(self):
        cfg = small_config()
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert a.points == b.points

    def test_seed_changes_results(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config(master_seed=6))
        assert a.points != b.points

    def test_early_stop_on_target_errors(self):
        cfg = small_config(snr_db=(0.0,), max_frames=10_000_000,
                           target_bit_errors=100)
        curve = run_sweep(cfg)
        p = curve.points[0]
        assert p.bit_errors >= 100
        # one batch at 0 dB collects far more than 100 errors (4 bits/frame)
        assert p.bits == engine.BATCH_FRAMES * 4

    def test_monotone_smoke(self):
        cfg = small_config(snr_db=(0.0, 4.0, 8.0, 12.0), target_bit_errors=400,
                           max_frames=500_000)
        curve = run_sweep(cfg)
        bers = [p.ber for p in curve.points]
        for a, b in zip(bers, bers[1:]):
            assert b <= a * 1.2

    def test_progress_hook_called(self):
        seen = []
        run_sweep(small_config(), progress=lambda *a: seen.append(a))
        assert seen
        assert all(len(t) == 4 for t in seen)

    def test_capacity_error_propagates(self):
        # a delayed path with a fractional Doppler joins all 16 symbols into
        # one block: its joint search over 4^16 candidates exceeds the cap
        cfg = SweepConfig(grid=OtfsGrid(M=4, N=4), scheme="qpsk", order=4,
                          paths=(PathSpec(m=1, omega=1.0, l=1, kappa=0.3),),
                          snr_db=(0.0,), max_frames=100, target_bit_errors=10)
        with pytest.raises(CapacityError):
            run_sweep(cfg)

    def test_capacity_error_raises_before_any_draw(self, monkeypatch):
        # the chain is planned at set-up, so the 4^16-candidate block raises
        # before the first batch is drawn
        def no_draw(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(engine, "sample_nakagami_gains", no_draw)
        cfg = SweepConfig(grid=OtfsGrid(M=4, N=4), scheme="qpsk", order=4,
                          paths=(PathSpec(m=1, omega=1.0, l=1, kappa=0.3),),
                          snr_db=(0.0,), max_frames=100, target_bit_errors=10)
        with pytest.raises(CapacityError) as err:
            run_sweep(cfg)
        assert err.value.required == 4 ** 16

    def test_capacity_follows_the_largest_block(self):
        # a delayed path on a 21x2 BPSK grid leaves 2 blocks of 21 symbols:
        # 2^21 candidates each exceed the cap although no table of the whole
        # frame is built
        cfg = SweepConfig(grid=OtfsGrid(M=21, N=2), scheme="bpsk", order=2,
                          paths=(PathSpec(m=1, omega=1.0, l=1),), snr_db=(0.0,),
                          max_frames=100, target_bit_errors=10)
        ops = np.stack([engine._path_operator(s, cfg) for s in cfg.paths])
        assert [len(b) for b in kernels.independent_blocks(ops)] == [21, 21]
        with pytest.raises(CapacityError) as err:
            run_sweep(cfg)
        assert err.value.required == 2 ** 21

    def test_separable_chain_runs_past_the_capacity(self):
        # one delayed path splits a 4x4 QPSK frame into 4 blocks of 4^4
        # candidates, so the sweep runs where 4^16 would exceed the cap.  The
        # operator is a phase-weighted permutation, so ML is the nearest point
        # to (A^H y)_i / h symbol by symbol: an oracle that enumerates nothing
        cfg = SweepConfig(grid=OtfsGrid(M=4, N=4), scheme="qpsk", order=4,
                          paths=(PathSpec(m=1, omega=1.0, l=1),),
                          snr_db=(0.0, 10.0), max_frames=3000,
                          target_bit_errors=10 ** 9)
        A = engine._path_operator(cfg.paths[0], cfg)
        assert np.allclose(A.conj().T @ A, np.eye(16), rtol=0, atol=1e-12)
        assert [len(b) for b in kernels.independent_blocks(A[None])] == [4] * 4
        const = modem.make_constellation("qpsk", 4)
        hamming = engine._hamming_table(const)
        curve = run_sweep(cfg)
        for pt_idx, point in enumerate(curve.points):
            sigma = math.sqrt(10.0 ** (-point.snr_db / 10.0))
            rng = make_stream(cfg.master_seed, pt_idx, 0)
            gains = sample_nakagami_gains(cfg.paths, rng, 3000)
            sym_idx = rng.integers(0, 4, (3000, 16))
            noise = (rng.standard_normal((3000, 16))
                     + 1j * rng.standard_normal((3000, 16))) * (sigma / math.sqrt(2.0))
            y = gains[:, :1] * (const.points[sym_idx] @ A.T) + noise
            z = (y @ A.conj()) / gains[:, :1]
            det = np.argmin(np.abs(z[:, :, None] - const.points) ** 2, axis=2)
            per_frame = hamming[det, sym_idx].sum(axis=1)
            assert per_frame.sum() > 0
            assert point.bit_errors == per_frame.sum()
            assert point.se == engine.clustered_se(
                int(per_frame.sum()), int((per_frame ** 2).sum()), 3000, 32)

    def test_symbol_wise_chain_runs_past_the_capacity(self):
        # diagonal operators read no candidate table, so 4x4 QPSK runs with
        # one l = k = 0 OTFS path and with two CP-OFDM paths, one of them
        # delayed and Doppler-shifted; the counts are the diagonal kernel's on
        # the same draws, with the CP-OFDM amplitude passed as its scale
        one_path = SweepConfig(grid=OtfsGrid(M=4, N=4), scheme="qpsk", order=4,
                               paths=(PathSpec(m=1, omega=1.0),),
                               snr_db=(0.0, 10.0), max_frames=3000,
                               target_bit_errors=10 ** 9)
        cp = dataclasses.replace(
            one_path, waveform="ofdm", ofdm_chain="cp",
            paths=(PathSpec(m=1, omega=0.5), PathSpec(m=2, omega=0.5, l=3, k=1)))
        const = modem.make_constellation("qpsk", 4)
        hamming = engine._hamming_table(const)
        mn = one_path.grid.frame_size
        for cfg, (phi, scale) in (
                (one_path,
                 (np.diagonal(engine._path_operator(one_path.paths[0], one_path))[None],
                  1.0)),
                (cp, cp_response(cp))):
            curve = run_sweep(cfg)
            for pt_idx, point in enumerate(curve.points):
                sigma = math.sqrt(10.0 ** (-point.snr_db / 10.0))
                rng = make_stream(cfg.master_seed, pt_idx, 0)
                gains = sample_nakagami_gains(cfg.paths, rng, 3000)
                sym_idx = rng.integers(0, 4, (3000, mn))
                noise = (rng.standard_normal((3000, mn))
                         + 1j * rng.standard_normal((3000, mn))) * (sigma / math.sqrt(2.0))
                e, e_sq = kernels.diag_frame_errors(phi, scale, gains, sym_idx,
                                                    noise, const.points, hamming)
                assert e > 0
                assert point.bit_errors == e
                assert point.bits == 3000 * mn * 2
                assert point.se == engine.clustered_se(e, e_sq, 3000, mn * 2)

    def test_analytic_column_attached(self):
        curve = run_sweep(small_config())
        from otfslab import analytic
        mod = analytic.mod_params("bpsk")
        expected = analytic.siso_ber(1.0, small_config().paths, mod)
        assert curve.points[0].analytic_ber == pytest.approx(expected, rel=1e-12)


TWO_PATHS = (PathSpec(m=1, omega=2 / 3, l=0), PathSpec(m=2, omega=1 / 3, l=1))


def cp_response(cfg):
    """(phi, scale) of a CP-OFDM config from the modem's primitives: each
    path's subcarrier response, the diagonal of kron(Delta_N^(k+kappa),
    Pi_M^l) seen through the per-symbol DFT, and the data-symbol amplitude
    sqrt(M / (2M - 1)), kept apart from phi."""
    grid = cfg.grid
    phi = np.stack([np.diagonal(modem.ofdm_effective_channel(
        np.kron(modem.doppler_matrix(grid.N, s.k + s.kappa),
                modem.cyclic_shift_matrix(grid.M, s.l)), grid)) for s in cfg.paths])
    return phi, math.sqrt(grid.M / (2 * grid.M - 1))


def kernel_sums(cfg, pt_idx, batch_sizes):
    """(sum of errors, sum of errors_sq) of the kernel over the draws that
    run_sweep keys by (seed, point, batch), recomputed batch by batch."""
    const = modem.make_constellation(cfg.scheme, cfg.order)
    mn = cfg.grid.frame_size
    hamming = engine._hamming_table(const)
    points = np.ascontiguousarray(const.points)
    sigma = math.sqrt(10.0 ** (-cfg.snr_db[pt_idx] / 10.0))
    total = total_sq = 0
    for batch_idx, nf in enumerate(batch_sizes):
        rng = make_stream(cfg.master_seed, pt_idx, batch_idx)
        gains = sample_nakagami_gains(cfg.paths, rng, nf)
        sym_idx = rng.integers(0, const.order, (nf, mn))
        noise = (rng.standard_normal((nf, mn))
                 + 1j * rng.standard_normal((nf, mn))) * (sigma / math.sqrt(2.0))
        if cfg.waveform == "ofdm":
            phi, scale = cp_response(cfg)
            e, e_sq = kernels.diag_frame_errors(phi, scale, gains, sym_idx,
                                                noise, points, hamming)
        else:
            cand_idx, cand_pts = modem.enumerate_candidates(const, mn)
            ops = np.stack([modem.build_channel_matrix(
                [(1.0, s.l, s.k, s.kappa)], cfg.grid).H_eff for s in cfg.paths])
            e, e_sq = kernels.matrix_frame_errors(
                ops, gains, sym_idx, noise, points, cand_idx, cand_pts, hamming)
        total += e
        total_sq += e_sq
    return total, total_sq


class TestBatchAccumulation:
    @pytest.mark.parametrize("waveform", ["otfs", "ofdm"])
    def test_point_sums_kernel_over_batches(self, monkeypatch, waveform):
        # 64-frame batches: each point spans three full batches and a partial
        # one, so a wrong merge on either chain shows in the counts
        monkeypatch.setattr(engine, "BATCH_FRAMES", 64)
        F = 200
        cfg = small_config(scheme="qpsk", order=4, paths=TWO_PATHS,
                           waveform=waveform, ofdm_chain="cp",
                           max_frames=F, target_bit_errors=10 ** 9)
        curve = run_sweep(cfg)
        bits_per_frame = cfg.grid.frame_size * 2
        for pt_idx, p in enumerate(curve.points):
            errors, errors_sq = kernel_sums(cfg, pt_idx, (64, 64, 64, 8))
            assert errors > 0
            assert p.bit_errors == errors
            assert p.bits == F * bits_per_frame
            want = math.sqrt((errors_sq - errors ** 2 / F) / (F * (F - 1))) \
                / bits_per_frame
            assert p.se == pytest.approx(want, rel=1e-12)

    def test_single_frame_point_has_infinite_se(self):
        curve = run_sweep(small_config(snr_db=(0.0,), max_frames=1))
        assert curve.points[0].bits == 4
        assert curve.points[0].se == math.inf


class TestPairedComparison:
    def test_cp_chain_penalizes_ofdm(self):
        cfg = small_config(snr_db=(10.0,), max_frames=200_000,
                          target_bit_errors=800)
        otfs, ofdm = engine.paired_comparison(cfg)
        assert ofdm.points[0].ber > otfs.points[0].ber

    @pytest.mark.parametrize("target, cap", [
        (300, 100_000),      # both chains stop on errors, after unequal batches
        (10 ** 9, 200),      # both stop at the frame cap, the last batch partial
        (600, 1000),         # some points stop on errors, some at the cap
    ])
    @pytest.mark.parametrize("chain", ["cp"])
    def test_one_pass_equals_two_sweeps(self, monkeypatch, chain, target, cap):
        monkeypatch.setattr(engine, "BATCH_FRAMES", 64)
        cfg = small_config(scheme="qpsk", order=4, paths=TWO_PATHS,
                           ofdm_chain=chain, snr_db=(0.0, 6.0, 12.0),
                           max_frames=cap, target_bit_errors=target)
        alone = tuple(run_sweep(dataclasses.replace(cfg, waveform=w))
                      for w in ("otfs", "ofdm"))
        assert engine.paired_comparison(cfg) == alone
        frames = [[p.bits // 8 for p in curve.points] for curve in alone]
        if cap == 200:
            assert frames == [[200] * 3] * 2
        else:
            assert frames[0] != frames[1]

    @pytest.mark.parametrize("chain", ["cp"])
    def test_paired_run_draws_each_batch_once(self, monkeypatch, chain):
        monkeypatch.setattr(engine, "BATCH_FRAMES", 64)
        cfg = small_config(scheme="qpsk", order=4, paths=TWO_PATHS,
                           ofdm_chain=chain, snr_db=(0.0, 6.0, 12.0),
                           max_frames=100_000, target_bit_errors=300)
        keys = collections.Counter()

        def counting(*key):
            keys[key] += 1
            return make_stream(*key)

        monkeypatch.setattr(engine, "make_stream", counting)
        alone = [run_sweep(dataclasses.replace(cfg, waveform=w))
                 for w in ("otfs", "ofdm")]
        keys.clear()
        engine.paired_comparison(cfg)
        assert set(keys.values()) == {1}
        for pt_idx in range(len(cfg.snr_db)):
            batches = [-(-curve.points[pt_idx].bits // (8 * 64)) for curve in alone]
            assert sum(key[1] == pt_idx for key in keys) == max(batches)
        assert len(keys) < sum(-(-p.bits // (8 * 64))
                               for curve in alone for p in curve.points)

    def test_progress_for_each_chain_fed(self, monkeypatch):
        monkeypatch.setattr(engine, "BATCH_FRAMES", 64)
        cfg = small_config(snr_db=(6.0,), max_frames=1000, target_bit_errors=100)
        alone = []
        for w in ("otfs", "ofdm"):
            calls = []
            run_sweep(dataclasses.replace(cfg, waveform=w),
                      progress=lambda *a: calls.append(a))
            alone.append(calls)
        paired = []
        engine.paired_comparison(cfg, progress=lambda *a: paired.append(a))
        assert len(alone[0]) != len(alone[1])
        # each batch feeds the live chains in turn, OTFS first
        assert paired == sorted(alone[0] + alone[1], key=lambda a: a[2])

    def test_two_path_delay_exceeding_cp_rejected(self):
        with pytest.raises(ConfigError):
            small_config(paths=(PathSpec(m=1, omega=0.5, l=0),
                                PathSpec(m=2, omega=0.5, l=2)),
                         waveform="ofdm")


def semianalytic_configs():
    """fig3-ku2, fig4-m2-ku2 and an unequal mixed interferer set, at 20k trials."""
    (_, _), (fig3, _) = cli.figure_config(3, None, None, 20_000, 1)
    (_, _), (fig4, _) = cli.figure_config(4, None, None, 20_000, 1)
    mixed = dataclasses.replace(
        fig3, preset="mixed",
        interferers=((PathSpec(m=1, omega=0.01),),
                     (PathSpec(m=3, omega=0.004, l=1),)))
    return {"fig3-ku2": fig3, "fig4-m2-ku2": fig4, "mixed": mixed}


def serial_rows(cfg):
    """(ber, se, ci_low, ci_high, analytic_ber) per point from a plain loop."""
    mod = analytic.mod_params(cfg.scheme, cfg.order)
    trials = max(cfg.max_frames, analytic.SEMI_MC_MIN_TRIALS)
    rows = []
    for pt_idx, snr_db in enumerate(cfg.snr_db):
        es_n0 = 10.0 ** (snr_db / 10.0)
        ber, se = analytic.semi_analytic_mc_ber(
            es_n0, cfg.interferers, mod,
            make_stream(cfg.master_seed, pt_idx), trials)
        rows.append((ber, se, max(0.0, ber - 1.959963984540054 * se),
                     min(1.0, ber + 1.959963984540054 * se),
                     engine.analytic_reference(cfg, es_n0, mod)))
    return rows


def curve_rows(curve):
    return [(p.ber, p.se, p.ci_low, p.ci_high, p.analytic_ber) for p in curve.points]


@pytest.fixture
def late_first_points(monkeypatch):
    """Make earlier points finish later: the point at 2i dB sleeps
    (11 - i) * 3 ms before its draw, so a pool completes the points of a
    0..20 dB sweep in reverse order."""
    original = analytic.semi_analytic_mc_ber

    def staggered(es_n0, *args, **kwargs):
        time.sleep(3e-3 * (11.0 - 5.0 * math.log10(es_n0)))
        return original(es_n0, *args, **kwargs)

    monkeypatch.setattr(analytic, "semi_analytic_mc_ber", staggered)


class TestSemiAnalyticMode:
    def test_simo_rows_have_no_bit_counts(self):
        cfg = SweepConfig(grid=OtfsGrid(M=2, N=2), scheme="qpsk", order=4,
                          paths=(PathSpec(m=2, omega=1.0),),
                          snr_db=(0.0, 10.0, 20.0), max_frames=50_000,
                          mode="simo-semianalytic",
                          interferers=((PathSpec(m=2, omega=0.015),),),
                          master_seed=9)
        curve = run_sweep(cfg)
        for p in curve.points:
            assert p.bits == 0
            assert 0.0 <= p.ber <= 0.5
            assert p.ci_low <= p.ber <= p.ci_high
            assert p.analytic_ber > 0.0

    def test_semianalytic_se_passed_through(self):
        cfg = SweepConfig(grid=OtfsGrid(M=2, N=2), scheme="qpsk", order=4,
                          paths=(PathSpec(m=2, omega=1.0),), snr_db=(0.0, 10.0),
                          max_frames=20_000, mode="simo-semianalytic",
                          interferers=((PathSpec(m=2, omega=0.015),),),
                          master_seed=9)
        curve = run_sweep(cfg)
        mod = analytic.mod_params("qpsk")
        for pt_idx, p in enumerate(curve.points):
            ber, se = analytic.semi_analytic_mc_ber(
                10.0 ** (p.snr_db / 10.0), cfg.interferers, mod,
                make_stream(9, pt_idx), 20_000)
            assert p.ber == ber
            assert p.se == se > 0.0

    def test_interference_free_is_deterministic_formula(self):
        from otfslab import analytic, specfun
        cfg = SweepConfig(grid=OtfsGrid(M=2, N=2), scheme="qpsk", order=4,
                          paths=(PathSpec(m=2, omega=1.0),), snr_db=(10.0,),
                          max_frames=50_000, mode="simo-semianalytic",
                          interferers=(), master_seed=9)
        curve = run_sweep(cfg)
        expected = 2.0 * specfun.q_function(math.sqrt(2 * 0.5 * 10.0)) / 2.0
        assert curve.points[0].ber == pytest.approx(expected, abs=0)
        assert curve.points[0].analytic_ber == pytest.approx(expected, abs=0)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    @pytest.mark.parametrize("name", sorted(semianalytic_configs()))
    def test_pool_equals_serial_loop_bit_for_bit(self, monkeypatch, late_first_points,
                                                 name, workers):
        cfg = semianalytic_configs()[name]
        want = serial_rows(cfg)
        monkeypatch.setattr(engine, "_usable_cores", lambda: workers)
        got = curve_rows(run_sweep(cfg))
        assert np.array_equal(np.array(got).view(np.int64),
                              np.array(want).view(np.int64))

    def test_pool_size_follows_usable_cores_and_points(self, monkeypatch):
        cfg = semianalytic_configs()["fig3-ku2"]
        sizes = []
        original = engine.concurrent.futures.ThreadPoolExecutor

        def recording(max_workers):
            sizes.append(max_workers)
            return original(max_workers=max_workers)

        monkeypatch.setattr(engine.concurrent.futures, "ThreadPoolExecutor", recording)
        for cores in (1, 2, 64):
            monkeypatch.setattr(engine, "_usable_cores", lambda c=cores: c)
            run_sweep(cfg)
        assert sizes == [1, 2, len(cfg.snr_db)]

    def test_progress_once_per_point_in_order_from_caller(self, monkeypatch,
                                                          late_first_points):
        monkeypatch.setattr(engine, "_usable_cores", lambda: 4)
        cfg = semianalytic_configs()["fig4-m2-ku2"]
        seen = []
        run_sweep(cfg, progress=lambda pt, snr, n, e: seen.append(
            (pt, snr, n, e, threading.get_ident())))
        caller = threading.get_ident()
        assert seen == [(pt, snr, 20_000, 0, caller)
                        for pt, snr in enumerate(cfg.snr_db)]

    def test_a_raising_point_propagates(self, monkeypatch):
        monkeypatch.setattr(engine, "_usable_cores", lambda: 2)
        cfg = semianalytic_configs()["fig3-ku2"]
        original = analytic.semi_analytic_mc_ber
        bad = 10.0 ** (cfg.snr_db[3] / 10.0)

        def raising(es_n0, *args, **kwargs):
            if es_n0 == bad:
                raise RuntimeError("point 3")
            return original(es_n0, *args, **kwargs)

        monkeypatch.setattr(analytic, "semi_analytic_mc_ber", raising)
        seen = []
        with pytest.raises(RuntimeError, match="point 3"):
            run_sweep(cfg, progress=lambda pt, *rest: seen.append(pt))
        assert seen == [0, 1, 2]

    def test_usable_cores_is_a_positive_count(self):
        assert 1 <= engine._usable_cores() <= (os.cpu_count() or 1)


class TestConfigValidation:
    def test_snr_must_increase(self):
        with pytest.raises(ConfigError):
            small_config(snr_db=(10.0, 10.0))
        with pytest.raises(ConfigError):
            small_config(snr_db=(10.0, 0.0))

    def test_waveform_and_mode_enums(self):
        with pytest.raises(ConfigError):
            small_config(waveform="gfdm")
        with pytest.raises(ConfigError):
            small_config(mode="mimo")

    def test_scheme_order_checked_at_construction(self):
        # QPSK's order is not SweepConfig's default of 2
        with pytest.raises(ConfigError, match="qpsk has order 4, got 2"):
            SweepConfig(grid=OtfsGrid(M=2, N=2), scheme="qpsk")

    @pytest.mark.parametrize("over", [
        pytest.param(dict(snr_db=(-math.inf, 0.0)), id="snr-minus-inf"),
        pytest.param(dict(snr_db=(0.0, math.nan)), id="snr-nan"),
        pytest.param(dict(master_seed=-1), id="negative-seed"),
        pytest.param(dict(paths=(PathSpec(m=1, omega=1.0, l=4),)), id="otfs-l-MN"),
        pytest.param(dict(paths=(PathSpec(m=1, omega=1.0, l=2),), waveform="ofdm"),
                     id="cp-ofdm-l-M"),
    ])
    def test_rejected_at_construction(self, over):
        with pytest.raises(ConfigError):
            small_config(**over)

    def test_delay_rule_reads_only_the_waveform_route(self):
        # the semi-analytic route places no path on the grid
        cfg = small_config(paths=(PathSpec(m=1, omega=1.0, l=4),),
                           mode="simo-semianalytic")
        assert cfg.paths[0].l == 4
        assert small_config(paths=(PathSpec(m=1, omega=1.0, l=3),)).paths[0].l == 3

    def test_curve_point_lookup(self):
        curve = run_sweep(small_config())
        assert curve.point_at(0.0).snr_db == 0.0
        with pytest.raises(KeyError):
            curve.point_at(3.0)
