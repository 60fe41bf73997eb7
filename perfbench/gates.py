"""Correctness gates, run outside the timed region.

Each gate returns whether an operation passed; run.py counts the failures.
A gate never changes or filters what the program returned.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np
from scipy import integrate

from otfslab import analytic, cli, engine, modem

import tracing
import workloads as wl

Z_GATE = 5.0            # single-path Monte Carlo vs the exact value
SISO_RTOL = 1e-4        # siso_ber vs the Craig-form quadrature
ORACLE_FRAMES = 32      # frames per point checked against the per-frame chain
TIE_RTOL = 1e-9         # an ML tie: metrics equal to this relative tolerance
PROBE_FRAMES = 256      # frame cap of the engine.run_sweep probe
REASONS_KEPT = 5        # failure reasons printed per kind
NO_EARLY_STOP = 10 ** 15

# A failure of a result kind means the curves the workload produced are
# wrong, and sets "correct" to false.  The probe kinds, "engine_probe" and
# "siso_domain", measure an entry point or a closed form over its domain;
# their failures are counted in "failed" and fail_frac only.
RESULT_KINDS = ("mc_point", "figure_point", "csv")


class Ledger:
    """Attempted and failed operations by kind, with the first few reasons."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.reasons = {}

    def record(self, kind: str, ok: bool, reason: str = "") -> None:
        self.attempted[kind] += 1
        if not ok:
            self.failed[kind] += 1
            kept = self.reasons.setdefault(kind, [])
            if len(kept) < REASONS_KEPT and reason not in kept:
                kept.append(reason)

    @property
    def correct(self) -> bool:
        return all(self.failed[k] == 0 for k in RESULT_KINDS)

    def totals(self) -> tuple:
        return sum(self.attempted.values()), sum(self.failed.values())


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def craig_ber(es_n0: float, paths, mod: analytic.ModErrorParams) -> float:
    """(A/pi) int_0^{pi/2} prod_p (1 + B mu_p / sin^2 t)^(-m_p) dt / log2 M.

    The MGF form of the A*Q(sqrt(2 B gamma)) model over independent
    Gamma(m_p, mu_p) path SNRs: exact for any m > 0 and any powers.
    """
    mus = [es_n0 * p.omega / p.m for p in paths]

    def integrand(t: float) -> float:
        s2 = math.sin(t) ** 2
        if s2 == 0.0:
            return 0.0
        return math.prod((1.0 + mod.B * mu / s2) ** (-p.m) for mu, p in zip(mus, paths))

    value, _ = integrate.quad(integrand, 0.0, math.pi / 2, epsabs=0.0,
                              epsrel=1e-11, limit=200)
    return mod.A / math.pi * value / mod.bits_per_symbol


# ---------------------------------------------------------------------------
# Monte Carlo gates
# ---------------------------------------------------------------------------

def single_path_ok(c: wl.Curve, snr_db: float, r: wl.PointResult) -> tuple:
    """(ok, z): BER within Z_GATE standard errors of the exact value.

    The standard error is the frame-clustered one from errors_sq, floored by
    the per-bit binomial error at the reference so that a point with few
    errors is not judged on a near-zero estimate.
    """
    ref = craig_ber(10.0 ** (snr_db / 10.0) * c.energy, c.cfg.paths, c.mod)
    bits = r.frames * c.bits_per_frame
    se = max(wl.clustered_se(r, c.bits_per_frame), math.sqrt(ref * (1.0 - ref) / bits))
    z = abs(r.ber(c.bits_per_frame) - ref) / se
    return z <= Z_GATE, z


def _frame_channel(c: wl.Curve, gains_f) -> np.ndarray:
    """Effective channel of one frame, built by modem per frame."""
    if c.diag:
        lam = sum(g * c.phi[p] for p, g in enumerate(gains_f))
        return np.diag(c.scale * lam)
    paths = [(g, s.l, s.k, s.kappa) for g, s in zip(gains_f, c.cfg.paths)]
    return modem.build_channel_matrix(paths, c.cfg.grid).H_eff


def oracle_point(c: wl.Curve, pt_idx: int, frames: int,
                 frame_errors=wl.frame_errors) -> tuple:
    """(frames checked, mismatches, ties) of the kernel against the per-frame
    otfs_link + ml_detect chain, on the head of the point's first batch.

    A differing count is a tie when some candidate within TIE_RTOL of the
    minimum metric has exactly the kernel's error count.
    """
    grid = c.cfg.grid
    es_n0 = 10.0 ** (c.cfg.snr_db[pt_idx] / 10.0)
    nf = min(engine.BATCH_FRAMES, frames)
    gains, sym_idx, noise = wl.draw_batch(c.cfg, c.constellation.order, pt_idx, 0, nf,
                                          math.sqrt(1.0 / es_n0))
    cand_idx, cand_pts = modem.enumerate_candidates(c.constellation, grid.frame_size)
    n = min(ORACLE_FRAMES, nf)
    mismatches = ties = 0
    for f in range(n):
        got, _ = frame_errors(c, gains[f:f + 1], sym_idx[f:f + 1], noise[f:f + 1])
        H = _frame_channel(c, gains[f])
        frame = modem.DdFrame.from_vector(c.points[sym_idx[f]], grid)
        channel = modem.ChannelMatrices(H=H, H_eff=H)
        y = modem.otfs_link(frame, channel, noise[f], grid, noise_domain="dd")
        det = modem.ml_detect(y, H, c.constellation)
        want = int(c.hamming[det, sym_idx[f]].sum())
        if got == want:
            continue
        dist = (np.abs(y[None, :] - cand_pts @ H.T) ** 2).sum(axis=1)
        near = dist <= dist.min() * (1.0 + TIE_RTOL) + 1e-300
        counts = c.hamming[cand_idx[near], sym_idx[f]].sum(axis=1)
        if np.any(counts == got):
            ties += 1
        else:
            mismatches += 1
    return n, mismatches, ties


def probe_engine(c: wl.Curve, ours: tuple) -> tuple:
    """(per-point ok list, reason): engine.run_sweep vs run_curve at the same
    seed and frame cap, with early stopping out of reach."""
    cfg = replace(c.cfg, max_frames=PROBE_FRAMES, target_bit_errors=NO_EARLY_STOP)
    try:
        curve = engine.run_sweep(cfg)
    except Exception as exc:  # the probed entry point may be broken
        return [False] * len(ours), f"{c.label}: {type(exc).__name__}: {exc}"
    got = [p.bit_errors for p in curve.points]
    want = [r.errors for r in ours]
    ok = [g == w for g, w in zip(got, want)] if len(got) == len(want) \
        else [False] * len(want)
    return ok, "" if all(ok) else f"{c.label}: engine {got} != run_curve {want}"


# ---------------------------------------------------------------------------
# Analytic gates
# ---------------------------------------------------------------------------

def siso_ok(value, es_n0: float, paths, mod) -> tuple:
    """(ok, reason) of one siso_ber evaluation against craig_ber."""
    if isinstance(value, str):
        return False, f"raised {value}"
    ref = craig_ber(es_n0, paths, mod)
    if not math.isfinite(value) or abs(value - ref) > SISO_RTOL * abs(ref):
        return False, f"siso_ber {value:.6e} vs quadrature {ref:.6e}"
    return True, ""


def figure_point_ok(p: engine.BerPoint, cfg: engine.SweepConfig) -> tuple:
    """Finite and in [0, A/2]; interference-free presets equal the
    deterministic formula."""
    mod = analytic.mod_params(cfg.scheme, cfg.order)
    for name in ("ber", "analytic_ber"):
        v = getattr(p, name)
        if not (math.isfinite(v) and 0.0 <= v <= 0.5 * mod.A):
            return False, f"{cfg.preset} {p.snr_db:g} dB {name} = {v!r}"
    if not cfg.interferers:
        det = analytic.deterministic_ber(10.0 ** (p.snr_db / 10.0), mod)
        if p.ber != det or p.analytic_ber != det:
            return False, (f"{cfg.preset} {p.snr_db:g} dB: {p.ber!r}, "
                           f"{p.analytic_ber!r} != deterministic {det!r}")
    return True, ""


def _same(text: str, value: float) -> bool:
    if text == "":
        return False
    return float(text) == value or abs(float(text) - value) <= 1e-6 * abs(value)


def csv_ok(path: str, curves) -> tuple:
    """cli.parse_csv_rows reads back the curves cli.emit_csv wrote."""
    rows = cli.parse_csv_rows(path)
    want = [(c, p) for c in curves for p in c.points]
    if len(rows) != len(want):
        return False, f"{path}: {len(rows)} rows, expected {len(want)}"
    for row, (c, p) in zip(rows, want):
        ok = (len(row) == 9 and row[7] == c.waveform and row[8] == c.preset
              and _same(row[0], p.snr_db)
              and (math.isnan(p.analytic_ber) and row[4] == "nan"
                   or _same(row[4], p.analytic_ber)))
        if ok and p.bits > 0:
            ok = (_same(row[1], p.ber) and row[5] == str(p.bit_errors)
                  and row[6] == str(p.bits))
        elif ok and c.config is not None and c.config.mode == "simo-semianalytic":
            ok = _same(row[1], p.ber)
        if not ok:
            return False, f"{path}: row {row} does not match {c.preset} {p.snr_db:g} dB"
    return True, ""


# ---------------------------------------------------------------------------
# Applying the gates to a run
# ---------------------------------------------------------------------------

def check_mc(groups, frames, outputs, ledger, tr):
    """Gate every point of every curve, and each CSV file.  Every point of
    a curve whose run raised fails."""
    first = outputs[0]["results"]
    for g in groups:
        for c in g.curves:
            if isinstance(first[c.label], str):
                for snr_db in c.cfg.snr_db:
                    ledger.record("mc_point", False,
                                  f"{c.label} {snr_db:g} dB: {first[c.label]}")
                continue
            others = [o["results"][c.label] for o in outputs[1:]]
            for i, snr_db in enumerate(c.cfg.snr_db):
                r = first[c.label][i]
                why = []
                if any(isinstance(o, str) or repr(o[i]) != repr(r) for o in others):
                    why.append("repeated sweeps differ")
                if r.analytic_ber is None:
                    why.append("siso_ber raised")
                try:
                    n, bad, ties = oracle_point(c, i, frames)
                except Exception as exc:
                    n, bad = 0, 0
                    why.append(f"per-frame oracle raised {wl.failure(exc)}")
                tr.count("check.oracle_frames", n)
                tr.count("check.oracle_mismatch", bad)
                if bad:
                    why.append(f"{bad} of {n} frames differ from the per-frame oracle")
                if len(c.cfg.paths) == 1:
                    ok, z = single_path_ok(c, snr_db, r)
                    if not ok:
                        why.append(f"|z| = {z:.2f} against the exact BER")
                ledger.record("mc_point", not why, f"{c.label} {snr_db:g} dB: {'; '.join(why)}")
        ledger.record("csv", *csv_ok(*outputs[-1]["csvs"][g.name]))


def probe_mc(groups, ledger):
    """Probe engine.run_sweep with every Monte Carlo curve."""
    for g in groups:
        for c in g.curves:
            try:
                ours = wl.run_curve(c, PROBE_FRAMES, tracing.NULL, [])
            except Exception as exc:
                ok = [False] * len(c.cfg.snr_db)
                why = f"{c.label}: run_curve raised {wl.failure(exc)}"
            else:
                ok, why = probe_engine(c, ours)
            for point_ok in ok:
                ledger.record("engine_probe", point_ok, why)


def check_analytic(groups, domain, outputs, ledger):
    """Gate the figure 3/4 points, the CSV files and the siso_ber domain.
    Every point of a preset whose run_sweep raised fails."""
    first = outputs[0]
    for g in groups:
        for cfg in g.curves:
            curve = first["curves"][cfg.preset]
            if isinstance(curve, str):
                for snr_db in cfg.snr_db:
                    ledger.record("figure_point", False,
                                  f"{cfg.preset} {snr_db:g} dB: {curve}")
                continue
            repeat = all(repr(o["curves"][cfg.preset]) == repr(curve) for o in outputs[1:])
            for p in curve.points:
                ok, why = figure_point_ok(p, cfg)
                ledger.record("figure_point", ok and repeat,
                              why or f"{cfg.preset}: repeated sweeps differ")
        ledger.record("csv", *csv_ok(*outputs[-1]["csvs"][g.name]))
    mod = analytic.mod_params(*wl.SISO_SCHEME)
    values = iter(first["siso"])
    repeat = all(repr(o["siso"]) == repr(first["siso"]) for o in outputs[1:])
    for paths in domain:
        for snr_db in wl.SISO_SNR_DB:
            ok, why = siso_ok(next(values), 10.0 ** (snr_db / 10.0), paths, mod)
            case = ", ".join(f"m={p.m} w={p.omega:.4g}" for p in paths)
            ledger.record("siso_domain", ok and repeat,
                          f"[{case}] {snr_db:g} dB: {why or 'repeated sweeps differ'}")
