"""Monte Carlo sweep orchestration.

Frames are simulated in fixed-size batches whose randomness is keyed by
(master seed, SNR point index, batch index) through counter-based Philox
streams, so results are bit-identical for a given configuration.  A paired
OTFS/OFDM run draws each batch once and feeds it to every chain that has
not yet met its stop rule.  Early stopping is evaluated on batch
boundaries; error counts merge by integer summation, and so do the squared
per-frame error counts that feed each point's frame-clustered standard error
``se``, so neither depends on how batches are scheduled.

Semi-analytic sweeps run their SNR points concurrently, one thread per
usable core.  A point reads only its own stream (master seed, point index),
its draw and its ``erfc`` release the GIL, and the curve is assembled in
point order in the calling thread, so the pool's size and the order in which
points finish cannot change a bit of the result.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytic, kernels, modem
from .errors import ConfigError
from .fading import PathSpec, make_stream, sample_nakagami_gains
from .modem import Constellation, OtfsGrid

BATCH_FRAMES = 8192


@dataclass(frozen=True)
class SweepConfig:
    """One sweep, checked here and nowhere else, so that every route
    accepts the same configs.  Construction raises ConfigError unless the
    SNR points are finite and strictly increasing; waveform, mode and
    ofdm_chain are known; the budgets are positive, the seed >= 0 and a
    path is given; interferers are given only in simo-semianalytic mode,
    the one route that reads them, and that mode, which reads no waveform,
    keeps OTFS; ``analytic.mod_params`` takes the scheme and order; and, on
    the waveform route, each path's delay fits the grid: l <= MN - 1 on
    OTFS, l <= L_cp = M - 1 on CP-OFDM.  The simo-semianalytic route reads
    the SNR, the modulation and the interferers: its desired link is
    unfaded, SINR = (Es/N0)/(1 + S), so its paths and grid are checked,
    not read."""

    grid: OtfsGrid
    scheme: str = "bpsk"
    order: int = 2
    paths: tuple = (PathSpec(m=1, omega=1.0),)
    snr_db: tuple = tuple(float(s) for s in range(0, 21, 2))
    max_frames: int = 10_000_000
    target_bit_errors: int = 200
    master_seed: int = 1
    waveform: str = "otfs"              # "otfs" | "ofdm"
    mode: str = "siso-waveform"         # "siso-waveform" | "simo-semianalytic"
    interferers: tuple = ()             # per-user tuples of PathSpec (simo mode)
    ofdm_chain: str = "cp"              # "cp" only: OFDM is always CP-OFDM
    preset: str = "custom"

    def __post_init__(self):
        if not all(map(math.isfinite, self.snr_db)):
            raise ConfigError(f"snr points must be finite, got {self.snr_db}")
        if list(self.snr_db) != sorted(set(self.snr_db)):
            raise ConfigError("snr points must be strictly increasing")
        if self.waveform not in ("otfs", "ofdm"):
            raise ConfigError(f"unknown waveform {self.waveform!r}")
        if self.mode not in ("siso-waveform", "simo-semianalytic"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.ofdm_chain != "cp":
            raise ConfigError(f"unknown ofdm chain {self.ofdm_chain!r}: "
                              f"the only chain is 'cp'")
        if self.max_frames < 1 or self.target_bit_errors < 1:
            raise ConfigError("frame and error budgets must be positive")
        if self.master_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.master_seed}")
        if not self.paths:
            raise ConfigError("at least one desired path is required")
        if self.interferers and self.mode != "simo-semianalytic":
            raise ConfigError(f"interferers are read only in simo-semianalytic "
                              f"mode, not in mode {self.mode!r}")
        if self.waveform != "otfs" and self.mode == "simo-semianalytic":
            raise ConfigError(f"simo-semianalytic mode reads no waveform, so it "
                              f"takes the default 'otfs', not {self.waveform!r}")
        analytic.mod_params(self.scheme, self.order)
        if self.mode == "siso-waveform":
            limit, what = ((_cp_ofdm_guard(self.grid)[0], "the CP length")
                           if self.waveform == "ofdm" else
                           (self.grid.frame_size - 1, "the last delay bin"))
            far = max(p.l for p in self.paths)
            if far > limit:
                raise ConfigError(f"path delay {far} exceeds {what} {limit}")


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    bit_errors: int
    bits: int
    ber: float
    ci_low: float
    ci_high: float
    analytic_ber: float
    # cluster-robust standard error of the BER estimate: bit errors within a
    # frame share one fade, so frame-level variance is the honest one; a
    # single-frame point has no such variance and reports inf
    se: float = 0.0


@dataclass(frozen=True)
class BerCurve:
    points: tuple
    waveform: str
    preset: str
    config: SweepConfig = field(repr=False, default=None)

    def point_at(self, snr_db: float) -> BerPoint:
        for p in self.points:
            if abs(p.snr_db - snr_db) < 1e-9:
                return p
        raise KeyError(f"no point at {snr_db} dB")


# two-sided 95% normal quantile, shared by the Wilson and the normal intervals
_Z95 = 1.959963984540054


def wilson_interval(errors: int, trials: int) -> tuple:
    """Wilson score interval at 95% confidence for a binomial proportion."""
    if trials <= 0 or errors < 0 or errors > trials:
        raise ConfigError(f"need 0 <= errors <= trials with trials > 0, "
                          f"got ({errors}, {trials})")
    z = _Z95
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    low = 0.0 if errors == 0 else max(0.0, center - half)
    high = 1.0 if errors == trials else min(1.0, center + half)
    return low, high


def clustered_se(errors: int, errors_sq: int, frames: int,
                 bits_per_frame: int) -> float:
    """Standard error of the BER with bit errors clustered by frame.

    From the sums of per-frame error counts e_f and of their squares over F
    frames of b bits each:
    sqrt((sum e_f^2 - (sum e_f)^2 / F) / (F (F - 1))) / b.
    A single frame has no defined variance, so the result is inf.
    """
    if frames < 2:
        return math.inf
    # integer numerator F*sum(e^2) - (sum e)^2 >= 0 (Cauchy-Schwarz), exact
    num = frames * errors_sq - errors * errors
    return math.sqrt(num / (frames * frames * (frames - 1))) / bits_per_frame


# ---------------------------------------------------------------------------
# Per-preset precomputation
# ---------------------------------------------------------------------------

def _hamming_table(constellation: Constellation) -> np.ndarray:
    labels = constellation.bit_labels
    return (labels[:, None, :] != labels[None, :, :]).sum(axis=2).astype(np.int64)


def _cp_ofdm_guard(grid: OtfsGrid) -> tuple:
    """CP length and the share of the frame energy the data symbols carry.

    The guard interval is sized for the grid's worst-case delay spread
    (M - 1 samples) regardless of the instantaneous channel, and the
    comparison holds total radiated frame energy fixed, so data symbols
    carry the fraction M / (M + L_cp) of the OTFS symbol energy.
    """
    l_cp = grid.M - 1
    return l_cp, grid.M / (grid.M + l_cp)


def _path_operator(spec: PathSpec, config: SweepConfig) -> np.ndarray:
    """Image of one unit-gain path on the detected symbol vector.

    On OTFS it is the path's delay-Doppler image ``H_eff``.  On OFDM, which
    is always CP-OFDM, the cyclic prefix makes each OFDM symbol see a
    circulant delay with one Doppler phase per symbol (quasi-static), so the
    path acts on the frame as kron(Delta_N^(k+kappa), Pi_M^l) and the
    per-symbol DFT diagonalises it: the operator is the diagonal of that
    image, scaled by the data symbols' amplitude sqrt(share).
    """
    grid = config.grid
    if config.waveform == "ofdm":
        H = modem.ofdm_effective_channel(
            np.kron(modem.doppler_matrix(grid.N, spec.k + spec.kappa),
                    modem.cyclic_shift_matrix(grid.M, spec.l)), grid)
        return math.sqrt(_cp_ofdm_guard(grid)[1]) * np.diag(np.diagonal(H))
    ch = modem.build_channel_matrix([(1.0, spec.l, spec.k, spec.kappa)], grid)
    return ch.H_eff


def analytic_reference(config: SweepConfig, es_n0: float,
                       mod: analytic.ModErrorParams) -> float:
    """Closed-form value of one sweep point: the ``ber_analytic`` column of
    both ``run_sweep`` and ``otfslab analytic``."""
    if config.mode == "simo-semianalytic":
        mu, var = analytic.sinr_moments(es_n0, config.interferers)
        if var == 0.0:
            return analytic.deterministic_ber(es_n0, mod)
        return analytic.multiuser_ber(es_n0, analytic.gamma_approx(mu, var), mod)
    if config.waveform == "ofdm":
        # matched-SNR reference: exact for single-path presets
        es_n0 = es_n0 * _cp_ofdm_guard(config.grid)[1]
    return analytic.siso_ber(es_n0, config.paths, mod)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def run_sweep(config: SweepConfig, progress=None) -> BerCurve:
    """Run the configured sweep and return the per-SNR curve.

    For waveform modes every frame draws a fresh channel and noise
    realization; detection is exhaustive ML; bit errors use Gray-mapped
    labels.  Points stop at target_bit_errors or max_frames, whichever
    comes first (checked on batch boundaries); ``progress(pt_idx, snr_db,
    frames, errors)`` is called after every batch.

    In semi-analytic mode the points run concurrently on the usable cores;
    each reads its own (seed, point) stream, so the curve is the one a
    serial loop gives.  ``progress`` is called once per point, in point
    order, from the calling thread in either mode, and an exception raised
    by a point is raised here.
    """
    if config.mode == "simo-semianalytic":
        return _run_semianalytic(config, progress)
    return _run_waveform((config,), progress)[0]


def _run_waveform(configs: tuple, progress=None) -> tuple:
    """One curve per config (the configs differ only in their chain), each
    equal to a sweep of its own: every (seed, point, batch) is drawn once and
    fed, in config order, to each chain still short of its stop rule.

    Every chain is its path operators, stacked and planned once
    (``kernels.plan``: symbol-wise, or one search per independent block,
    with the candidates it reads), then fed batch by batch to
    ``kernels.matrix_frame_errors``, which finds that plan memoized.  The
    ML capacity bounds the chain's largest block, not its frame, and a
    chain over it raises ``CapacityError`` before the first draw."""
    config = configs[0]
    mn = config.grid.frame_size
    constellation = modem.make_constellation(config.scheme, config.order)
    mod = analytic.mod_params(config.scheme, config.order)
    bps = constellation.bits_per_symbol
    points = constellation.points
    hamming = _hamming_table(constellation)
    chains = [np.stack([_path_operator(spec, c) for spec in c.paths])
              for c in configs]
    for ops in chains:
        # a chain over the ML capacity raises here, before any draw
        kernels.plan(ops, points)

    rows = [[] for _ in configs]
    for pt_idx, snr_db in enumerate(config.snr_db):
        es_n0 = 10.0 ** (snr_db / 10.0)
        sigma = math.sqrt(1.0 / es_n0)
        tallies = [[0, 0, 0] for _ in configs]     # errors, errors_sq, frames
        live = list(zip(chains, tallies))          # budgets are >= 1
        batch_idx = 0
        while live:
            # live chains have seen the same batches, so share the batch size
            nf = min(BATCH_FRAMES, config.max_frames - live[0][1][2])
            rng = make_stream(config.master_seed, pt_idx, batch_idx)
            gains = sample_nakagami_gains(config.paths, rng, nf)
            sym_idx = rng.integers(0, constellation.order, (nf, mn))
            noise = (rng.standard_normal((nf, mn))
                     + 1j * rng.standard_normal((nf, mn))) * (sigma / math.sqrt(2.0))
            for ops, t in live:
                e, e_sq = kernels.matrix_frame_errors(
                    ops, gains, sym_idx, noise, points, None, None, hamming)
                t[0] += e
                t[1] += e_sq
                t[2] += nf
                if progress is not None:
                    progress(pt_idx, snr_db, t[2], t[0])
            live = [(ops, t) for ops, t in live
                    if t[2] < config.max_frames and t[0] < config.target_bit_errors]
            batch_idx += 1
        for c, row, (errors, errors_sq, frames) in zip(configs, rows, tallies):
            bits = frames * mn * bps
            lo, hi = wilson_interval(errors, bits)
            row.append(BerPoint(
                snr_db=float(snr_db), bit_errors=errors, bits=bits,
                ber=errors / bits, ci_low=lo, ci_high=hi,
                analytic_ber=analytic_reference(c, es_n0, mod),
                se=clustered_se(errors, errors_sq, frames, mn * bps)))
    return tuple(BerCurve(points=tuple(row), waveform=c.waveform, preset=c.preset,
                          config=c) for c, row in zip(configs, rows))


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_semianalytic(config: SweepConfig, progress=None) -> BerCurve:
    mod = analytic.mod_params(config.scheme, config.order)
    trials = max(config.max_frames, analytic.SEMI_MC_MIN_TRIALS)
    es_n0s = [10.0 ** (snr_db / 10.0) for snr_db in config.snr_db]

    def point(pt_idx: int) -> tuple:
        return analytic.semi_analytic_mc_ber(
            es_n0s[pt_idx], config.interferers, mod,
            make_stream(config.master_seed, pt_idx), trials)

    out = []
    workers = max(1, min(_usable_cores(), len(es_n0s)))
    # concurrent.futures loads its thread pool on first use, not on import
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        # map yields in point order, whatever order the points finish in
        for pt_idx, (ber, se) in enumerate(pool.map(point, range(len(es_n0s)))):
            snr_db, es_n0 = config.snr_db[pt_idx], es_n0s[pt_idx]
            lo = max(0.0, ber - _Z95 * se)
            hi = min(1.0, ber + _Z95 * se)
            out.append(BerPoint(snr_db=float(snr_db), bit_errors=0, bits=0,
                                ber=ber, ci_low=lo, ci_high=hi,
                                analytic_ber=analytic_reference(config, es_n0, mod),
                                se=se))
            if progress is not None:
                progress(pt_idx, snr_db, trials, 0)
    return BerCurve(points=tuple(out), waveform=config.waveform,
                    preset=config.preset, config=config)


def paired_comparison(config: SweepConfig, progress=None) -> tuple:
    """(OTFS curve, OFDM curve) over identical channel/noise realizations,
    each equal to ``run_sweep`` of its own config: one pass that draws each
    batch once; ``progress`` hears each chain fed.  A simo-semianalytic
    config reads no waveform, so its OFDM config raises ConfigError."""
    configs = (replace(config, waveform="otfs"), replace(config, waveform="ofdm"))
    return _run_waveform(configs, progress)
