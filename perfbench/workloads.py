"""Workload definitions and the Monte Carlo loop that the benchmark times.

``engine.run_sweep`` cannot run a waveform sweep at this commit (it adds the
kernels' ``(errors, errors_sq)`` tuple to an int), so run_curve reproduces
``engine._run_waveform`` from the public function of each layer, in the same
order and with the same Philox keying:

    make_stream(seed, point, batch) -> gains, symbol indices, noise
    -> kernels.matrix_frame_errors | kernels.diag_frame_errors
    -> analytic.siso_ber (the analytic column) -> cli.emit_csv

Every point runs a fixed frame budget with no early stop, so each commit and
each seed does the same amount of work.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from otfslab import analytic, cli, engine, kernels, modem
from otfslab.errors import ConfigError
from otfslab.fading import PathSpec, make_stream, sample_nakagami_gains

# Frames per SNR point.  fig2 runs one 2048-frame batch per point: the
# 256-candidate kernel takes ~0.15 s and a 134 MB temporary per batch there,
# so a whole curve set fits several times into one run.
FRAME_BUDGET = {"fig1": 16384, "fig2": 2048, "ofdm-cp": 65536}

# SNR grid and PathSpec domain of the dense siso_ber curves (analytic).
SISO_SNR_DB = tuple(float(s) for s in range(0, 31, 2))
SISO_SCHEME = ("qpsk", 4)
M_VALUES = (0.5, 1, 1.5, 2, 2.5, 3, 3.7, 4, 4.5, 5, 5.2, 6)
MIXED_M = {2: ((1, 2), (2, 3), (1, 3), (1.5, 2.5), (0.5, 4)),
           3: ((1, 2, 3), (2, 2, 3), (0.5, 1.5, 2.5))}
# P = 2: power of the first path, from the paper's 2/3 down to equal powers.
SPLITS_P2 = (2 / 3, 0.6, 0.55, 0.52, 0.505, 0.5)
# P = 3: powers proportional to r^p, from r = 1/2 down to equal powers.
RATIOS_P3 = (0.5, 0.7, 0.85, 0.95, 0.99, 1.0)


@dataclass(frozen=True)
class Curve:
    """One (preset, waveform) sweep with everything built in set-up."""

    cfg: engine.SweepConfig
    constellation: modem.Constellation
    mod: analytic.ModErrorParams
    hamming: np.ndarray
    points: np.ndarray
    diag: bool
    ops: np.ndarray | None = None         # (P, MN, MN) OTFS path operators
    cand_idx: np.ndarray | None = None
    cand_pts: np.ndarray | None = None
    phi: np.ndarray | None = None         # (P, MN) CP-OFDM subcarrier response
    energy: float = 1.0                   # data-symbol energy share (CP loss)

    @property
    def scale(self) -> float:
        return math.sqrt(self.energy)

    @property
    def bits_per_frame(self) -> int:
        return self.cfg.grid.frame_size * self.constellation.bits_per_symbol

    @property
    def label(self) -> str:
        return f"{self.cfg.preset}/{self.cfg.waveform}"


@dataclass(frozen=True)
class Group:
    """Curves that one CSV file holds, as ``otfslab figure`` writes them:
    prepared Curves for the Monte Carlo workloads, SweepConfigs that
    engine.run_sweep takes for analytic."""

    name: str
    curves: tuple
    notes: tuple
    config: engine.SweepConfig


@dataclass(frozen=True)
class PointResult:
    errors: int
    errors_sq: int
    frames: int
    analytic_ber: float | None      # None when siso_ber raised

    def ber(self, bits_per_frame: int) -> float:
        return self.errors / (self.frames * bits_per_frame)


# ---------------------------------------------------------------------------
# Set-up: presets through cli.figure_config, operators from modem
# ---------------------------------------------------------------------------

def hamming_table(constellation: modem.Constellation) -> np.ndarray:
    labels = constellation.bit_labels
    return (labels[:, None, :] != labels[None, :, :]).sum(axis=2).astype(np.int64)


def path_operators(cfg: engine.SweepConfig) -> np.ndarray:
    """Delay-Doppler image of each unit-gain path."""
    return np.stack([
        modem.build_channel_matrix([(1.0, s.l, s.k, s.kappa)], cfg.grid).H_eff
        for s in cfg.paths])


def cp_subcarrier_response(cfg: engine.SweepConfig) -> tuple:
    """(phi, energy) of the CP-OFDM chain.

    The cyclic prefix makes each OFDM symbol see a circulant delay, with one
    Doppler phase per symbol, so path p acts on the frame as
    kron(Delta_N^(k+kappa), Pi_M^l); the per-symbol DFT diagonalises it.
    The CP is sized for the grid's worst-case delay (M - 1 samples) at fixed
    frame energy, so data symbols keep the share M / (2M - 1).
    """
    grid = cfg.grid
    l_cp = grid.M - 1
    for s in cfg.paths:
        if s.l > l_cp:
            raise ConfigError(f"path delay {s.l} exceeds the CP length {l_cp}")
    phi = np.stack([
        np.diag(modem.ofdm_effective_channel(
            np.kron(modem.doppler_matrix(grid.N, s.k + s.kappa),
                    modem.cyclic_shift_matrix(grid.M, s.l)), grid))
        for s in cfg.paths])
    return phi, grid.M / (grid.M + l_cp)


def prepare(cfg: engine.SweepConfig, tr) -> Curve:
    constellation = modem.make_constellation(cfg.scheme, cfg.order)
    common = dict(cfg=cfg, constellation=constellation,
                  mod=analytic.mod_params(cfg.scheme, cfg.order),
                  hamming=hamming_table(constellation),
                  points=np.ascontiguousarray(constellation.points))
    if cfg.waveform == "ofdm" and cfg.ofdm_chain == "cp":
        phi, energy = cp_subcarrier_response(cfg)
        return Curve(diag=True, phi=phi, energy=energy, **common)
    if cfg.waveform != "otfs":
        raise ConfigError(f"the benchmark runs OTFS and CP-OFDM, not {cfg.ofdm_chain!r}")
    cand_idx, cand_pts = modem.enumerate_candidates(constellation, cfg.grid.frame_size)
    tr.count("modem.candidates", len(cand_idx))
    return Curve(diag=False, ops=path_operators(cfg),
                 cand_idx=np.ascontiguousarray(cand_idx),
                 cand_pts=np.ascontiguousarray(cand_pts), **common)


def figure_runs(number: int, seed: int, frames: int | None = None) -> list:
    return cli.figure_config(number, seed, None, frames, 1)


def mc_groups(workload: str, seed: int, tr) -> tuple:
    """Groups of prepared curves for a Monte Carlo workload."""
    frames = FRAME_BUDGET[workload]
    out = []
    for number in (1, 2) if workload == "ofdm-cp" else (int(workload[-1]),):
        runs = figure_runs(number, seed, frames)
        cfgs, notes = [], []
        for cfg, run_notes in runs:
            notes.extend(run_notes)
            if workload == "ofdm-cp":
                cfgs.append(replace(cfg, waveform="ofdm", ofdm_chain="cp"))
            else:  # the paired OTFS / CP-OFDM curves of `otfslab figure`
                cfgs += [replace(cfg, waveform="otfs"), replace(cfg, waveform="ofdm")]
        with tr.span("modem.setup"):
            curves = tuple(prepare(cfg, tr) for cfg in cfgs)
        out.append(Group(name=f"figure{number}", curves=curves,
                         notes=tuple(notes), config=runs[0][0]))
    return tuple(out)


def siso_domain() -> tuple:
    """PathSpec lists over P in {1, 2, 3}, m in [0.5, 6] and power splits."""
    cases = [(PathSpec(m=m, omega=1.0),) for m in M_VALUES]
    for P, fractions in ((2, [(a, 1.0 - a) for a in SPLITS_P2]),
                         (3, [tuple(r ** p for p in range(3)) for r in RATIOS_P3])):
        shapes = [(m,) * P for m in M_VALUES] + list(MIXED_M[P])
        for ms in shapes:
            for w in fractions:
                total = sum(w)
                cases.append(tuple(PathSpec(m=m, omega=wi / total, l=i)
                                   for i, (m, wi) in enumerate(zip(ms, w))))
    return tuple(cases)


def analytic_groups(seed: int) -> tuple:
    out = []
    for number in (3, 4):
        runs = figure_runs(number, seed)
        out.append(Group(name=f"figure{number}",
                         curves=tuple(cfg for cfg, _ in runs),
                         notes=tuple(n for _, ns in runs for n in ns),
                         config=runs[0][0]))
    return tuple(out)


def setup(workload: str, seed: int, tr):
    """Everything a sweep needs: presets resolved, operators built."""
    if workload == "analytic":
        return analytic_groups(seed), siso_domain()
    return mc_groups(workload, seed, tr), None


# ---------------------------------------------------------------------------
# Sweeps (the timed region)
# ---------------------------------------------------------------------------

def draw_batch(cfg: engine.SweepConfig, order: int, pt_idx: int, batch: int,
               nf: int, sigma: float) -> tuple:
    """Gains, symbol indices and noise of one batch, as the engine draws them."""
    mn = cfg.grid.frame_size
    rng = make_stream(cfg.master_seed, pt_idx, batch)
    gains = sample_nakagami_gains(cfg.paths, rng, nf)
    sym_idx = rng.integers(0, order, (nf, mn))
    noise = (rng.standard_normal((nf, mn))
             + 1j * rng.standard_normal((nf, mn))) * (sigma / math.sqrt(2.0))
    return gains, sym_idx, noise


def frame_errors(c: Curve, gains, sym_idx, noise) -> tuple:
    """The kernel layer: (bit errors, sum of squared per-frame errors)."""
    if c.diag:
        return kernels.diag_frame_errors(c.phi, c.scale, gains, sym_idx, noise,
                                         c.points, c.hamming)
    return kernels.matrix_frame_errors(c.ops, gains, sym_idx, noise, c.points,
                                       c.cand_idx, c.cand_pts, c.hamming)


def run_curve(c: Curve, frames: int, tr, siso_raised: list) -> tuple:
    """PointResults of one curve with a fixed frame budget per point."""
    order = c.constellation.order
    kernel_span = "kernels.diag" if c.diag else "kernels.matrix"
    out = []
    for pt_idx, snr_db in enumerate(c.cfg.snr_db):
        es_n0 = 10.0 ** (snr_db / 10.0)
        sigma = math.sqrt(1.0 / es_n0)
        errors = errors_sq = done = batch = 0
        while done < frames:
            nf = min(engine.BATCH_FRAMES, frames - done)
            with tr.span("fading.draw"):
                gains, sym_idx, noise = draw_batch(c.cfg, order, pt_idx, batch, nf, sigma)
            with tr.span(kernel_span):
                e, sq = frame_errors(c, gains, sym_idx, noise)
            tr.count("fading.frames_drawn", nf)
            if not c.diag:
                tr.count("kernels.matrix_frames", nf)
                tr.count("kernels.matrix_cand_evals", nf * len(c.cand_idx))
                tr.peak("kernels.matrix_temp_mb",
                        nf * len(c.cand_idx) * c.ops.shape[1] ** 2 * 16 / 1e6)
            errors += e
            errors_sq += sq
            done += nf
            batch += 1
        with tr.span("analytic.siso"):
            try:
                ref = analytic.siso_ber(es_n0 * c.energy, c.cfg.paths, c.mod)
            except Exception as exc:  # counted as a failed point, not fatal
                siso_raised.append(f"{c.label} {snr_db:g} dB: {exc!r}")
                ref = None
        tr.count("analytic.siso_evals")
        out.append(PointResult(errors=errors, errors_sq=errors_sq, frames=done,
                               analytic_ber=ref))
    return tuple(out)


def clustered_se(r: PointResult, bits_per_frame: int) -> float:
    """Standard error of the BER with bit errors clustered by frame."""
    if r.frames < 2:
        return math.inf
    mean = r.errors / r.frames
    var = max(0.0, r.errors_sq / r.frames - mean * mean) * r.frames / (r.frames - 1)
    return math.sqrt(var / r.frames) / bits_per_frame


def to_curve(c: Curve, results: tuple) -> engine.BerCurve:
    points = []
    for snr_db, r in zip(c.cfg.snr_db, results):
        bits = r.frames * c.bits_per_frame
        lo, hi = engine.wilson_interval(r.errors, bits)
        points.append(engine.BerPoint(
            snr_db=float(snr_db), bit_errors=r.errors, bits=bits,
            ber=r.errors / bits, ci_low=lo, ci_high=hi,
            analytic_ber=math.nan if r.analytic_ber is None else r.analytic_ber,
            se=clustered_se(r, c.bits_per_frame)))
    return engine.BerCurve(points=tuple(points), waveform=c.cfg.waveform,
                           preset=c.cfg.preset, config=c.cfg)


def emit(group: Group, curves: list, out_dir: str, tag: str, tr) -> str:
    path = os.path.join(out_dir, f"{tag}-{group.name}.csv")
    with tr.span("cli.emit"):
        cli.emit_csv(curves, path, notes=group.notes, config=group.config)
    tr.count("cli.emit_bytes", os.path.getsize(path))
    return path


def failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def mc_sweep(groups: tuple, frames: int, out_dir: str, tag: str, tr) -> dict:
    """One pass over every curve of a Monte Carlo workload.  A curve whose
    run raised maps to the reason, which check_mc counts as failed points."""
    results, siso_raised, csvs, done = {}, [], {}, 0
    for g in groups:
        curves = []
        for c in g.curves:
            try:
                results[c.label] = run_curve(c, frames, tr, siso_raised)
            except Exception as exc:
                results[c.label] = failure(exc)
                continue
            curves.append(to_curve(c, results[c.label]))
            done += len(c.cfg.snr_db) * frames
        csvs[g.name] = (emit(g, curves, out_dir, tag, tr), curves)
    return dict(results=results, siso_raised=siso_raised, csvs=csvs, frames=done)


def analytic_sweep(groups: tuple, domain: tuple, out_dir: str, tag: str, tr) -> dict:
    """figure 3 and 4 through engine.run_sweep, then the dense siso_ber curves.
    A preset whose run_sweep raised maps to the reason, which
    check_analytic counts as failed points."""
    frames = [0]

    def progress(pt_idx, snr_db, trials, errors):
        frames[0] += trials

    curves, csvs = {}, {}
    for g in groups:
        made = []
        for cfg in g.curves:
            try:
                with tr.span("engine.run_sweep"):
                    curves[cfg.preset] = engine.run_sweep(cfg, progress)
            except Exception as exc:
                curves[cfg.preset] = failure(exc)
                continue
            made.append(curves[cfg.preset])
        csvs[g.name] = (emit(g, made, out_dir, tag, tr), made)
    mod = analytic.mod_params(*SISO_SCHEME)
    siso = []
    for paths in domain:
        for snr_db in SISO_SNR_DB:
            with tr.span("analytic.siso"):
                try:
                    value = analytic.siso_ber(10.0 ** (snr_db / 10.0), paths, mod)
                except Exception as exc:  # counted by the domain gate
                    value = type(exc).__name__
            siso.append(value)
    tr.count("analytic.siso_evals", len(siso))
    return dict(curves=curves, siso=siso, csvs=csvs, frames=frames[0])
