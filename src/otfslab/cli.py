"""Command-line front end: presets, custom sweeps, CSV/JSON emission.

Subcommands:
    sweep      Monte Carlo sweep plus the matching closed-form curve.
    analytic   closed-form-only curve on a dense SNR grid.
    compare    paired OTFS vs OFDM run sharing channel/noise realizations.
    diversity  empirical slope report next to the closed-form approximations.
    figure     paper-replication presets (1-4).

Exit codes: 0 success, 2 configuration error, 3 capacity error,
4 numeric non-convergence.

Every CSV embeds its resolved configuration as ``# cfg key = value`` comment
lines; feeding the CSV back through ``--config`` reproduces the data rows
byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__, analytic, diversity, engine, kernels
from .engine import BerCurve, SweepConfig
from .errors import CapacityError, ConfigError, NumericError, OtfsLabError
from .fading import PathSpec, eva_grid_placement, make_stream
from .modem import OtfsGrid

CSV_HEADER = "snr_db,ber_mc,ci_low,ci_high,ber_analytic,bit_errors,bits,waveform,preset"

# Power splits the source data leaves unspecified; every use is labeled
# ASSUMED in the emitted manifest.
FIG2_OMEGAS = (2.0 / 3.0, 1.0 / 3.0)
TABLE3_P2_OMEGAS = (1.5838, 0.0690)   # fitted to the quoted 10/20 dB BER pair
FIG3_INTERFERER_OMEGA = 0.015

# Uncoded ML OTFS does not reach the diversity of the summed path SNRs that
# the closed form averages over, so on multipath SISO configs the column is a
# bound; emit_csv labels it there.
MATCHED_FILTER_NOTE = ("note: with more than one path, ber_analytic is the "
                       "matched-filter (full-diversity) bound over the summed "
                       "path SNRs, not a prediction of uncoded ML OTFS")


# ---------------------------------------------------------------------------
# Config file format: flat "key = value" lines, '#' comments, unknown keys
# are hard errors.  CSV outputs are also accepted: their '# cfg ' comment
# lines carry the full resolved configuration.
# ---------------------------------------------------------------------------

_KNOWN_KEYS = {
    "grid_m", "grid_n", "delta_f_hz", "scheme", "order", "snr", "snr_list",
    "max_frames", "target_errors", "seed", "waveform", "mode", "workers",
    "ofdm_chain", "preset", "eva",
} | {f"path{i}" for i in range(1, 33)} | {f"interferer{i}" for i in range(1, 33)}


def parse_config_text(text: str) -> dict:
    kv = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("# cfg "):
            line = line[len("# cfg "):].strip()
        elif line.startswith("#") or not line:
            continue
        if "," in line and "=" not in line:
            continue  # CSV header/data row
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in kv:
            raise ConfigError(f"duplicate config key {key!r}")
        kv[key] = value.strip()
    return kv


def _parse_path(text: str) -> PathSpec:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) < 2:
        raise ConfigError(f"path spec needs at least 'm,omega', got {text!r}")
    m = int(parts[0])
    omega = float(parts[1])
    l = int(parts[2]) if len(parts) > 2 else 0
    k = int(parts[3]) if len(parts) > 3 else 0
    kappa = float(parts[4]) if len(parts) > 4 else 0.0
    return PathSpec(m=m, omega=omega, l=l, k=k, kappa=kappa)


def _parse_snr(text: str) -> tuple:
    if ":" in text:
        start, step, stop = (float(v) for v in text.split(":"))
        if step <= 0:
            raise ConfigError(f"snr step must be positive, got {step}")
        out = []
        v = start
        while v <= stop + 1e-9:
            out.append(round(v, 9))
            v += step
        return tuple(out)
    return tuple(float(v) for v in text.split(","))


def config_from_kv(kv: dict) -> SweepConfig:
    grid = OtfsGrid(M=int(kv.get("grid_m", 2)), N=int(kv.get("grid_n", 2)),
                    delta_f=float(kv.get("delta_f_hz", 15e3)))
    paths = []
    for i in range(1, 33):
        key = f"path{i}"
        if key in kv:
            paths.append(_parse_path(kv[key]))
    if "eva" in kv:
        if paths:
            raise ConfigError("give either explicit paths or an eva directive, not both")
        parts = [v.strip() for v in kv["eva"].split(",")]
        P, fc_hz, speed_mps = int(parts[0]), float(parts[1]), float(parts[2])
        seed = int(kv.get("seed", 1))
        paths = list(eva_grid_placement(grid, fc_hz, speed_mps, P,
                                        make_stream(seed, 0xE7A)))
    if not paths:
        paths = [PathSpec(m=1, omega=1.0)]
    interferers = []
    for i in range(1, 33):
        key = f"interferer{i}"
        if key in kv:
            interferers.append(tuple(_parse_path(chunk)
                                     for chunk in kv[key].split(";")))
    snr = _parse_snr(kv["snr"]) if "snr" in kv else \
        tuple(float(v) for v in kv["snr_list"].split(",")) if "snr_list" in kv else \
        tuple(float(s) for s in range(0, 21, 2))
    scheme = kv.get("scheme", "bpsk")
    default_order = {"bpsk": 2, "qpsk": 4}.get(scheme)
    return SweepConfig(
        grid=grid, scheme=scheme,
        order=int(kv["order"]) if "order" in kv else (default_order or 2),
        paths=tuple(paths),
        snr_db=snr,
        max_frames=int(kv.get("max_frames", 10_000_000)),
        target_bit_errors=int(kv.get("target_errors", 200)),
        master_seed=int(kv.get("seed", 1)),
        waveform=kv.get("waveform", "otfs"),
        mode=kv.get("mode", "siso-waveform"),
        interferers=tuple(interferers),
        workers=int(kv.get("workers", 1)),
        ofdm_chain=kv.get("ofdm_chain", "cp"),
        preset=kv.get("preset", "custom"),
    )


def config_to_kv(config: SweepConfig) -> dict:
    kv = {
        "grid_m": config.grid.M, "grid_n": config.grid.N,
        "delta_f_hz": repr(config.grid.delta_f),
        "scheme": config.scheme, "order": config.order,
        "snr_list": ",".join(repr(s) for s in config.snr_db),
        "max_frames": config.max_frames,
        "target_errors": config.target_bit_errors,
        "seed": config.master_seed, "waveform": config.waveform,
        "mode": config.mode, "workers": config.workers,
        "ofdm_chain": config.ofdm_chain, "preset": config.preset,
    }
    for i, p in enumerate(config.paths, start=1):
        kv[f"path{i}"] = f"{p.m},{p.omega!r},{p.l},{p.k},{p.kappa!r}"
    for i, user in enumerate(config.interferers, start=1):
        kv[f"interferer{i}"] = ";".join(
            f"{p.m},{p.omega!r},{p.l},{p.k},{p.kappa!r}" for p in user)
    return kv


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6e}"


def curve_rows(curve: BerCurve) -> list:
    rows = []
    for p in curve.points:
        if p.mc_valid:
            mc, lo, hi = _fmt(p.ber), _fmt(p.ci_low), _fmt(p.ci_high)
            errs, bits = str(p.bit_errors), str(p.bits)
        elif p.bits == 0 and p.ber == p.ber and curve.config is not None and \
                curve.config.mode == "simo-semianalytic":
            mc, lo, hi = _fmt(p.ber), _fmt(p.ci_low), _fmt(p.ci_high)
            errs, bits = "", ""
        else:
            mc = lo = hi = errs = bits = ""
        rows.append(f"{_fmt(p.snr_db)},{mc},{lo},{hi},{_fmt(p.analytic_ber)},"
                    f"{errs},{bits},{curve.waveform},{curve.preset}")
    return rows


def emit_csv(curves, path, notes=(), config: SweepConfig | None = None) -> None:
    """Write one or more curves with a reproducibility manifest."""
    if isinstance(curves, BerCurve):
        curves = [curves]
    if not curves or not any(c.points for c in curves):
        raise ConfigError("refusing to emit an empty curve")
    lines = [f"# otfslab {__version__} run manifest",
             f"# generated: {datetime.now(timezone.utc).isoformat()}"]
    cfg = config or curves[0].config
    if cfg is not None:
        for key, value in config_to_kv(cfg).items():
            lines.append(f"# cfg {key} = {value}")
    for note in notes:
        lines.append(f"# {note}")
    if cfg is not None and cfg.mode == "siso-waveform" and len(cfg.paths) > 1:
        lines.append(f"# {MATCHED_FILTER_NOTE}")
    lines.append(CSV_HEADER)
    for curve in curves:
        lines.extend(curve_rows(curve))
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e


def parse_csv_rows(path) -> list:
    """Numeric data rows of an emitted CSV (for round-trip checks)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == CSV_HEADER:
                continue
            rows.append(line.split(","))
    return rows


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _table2_grid() -> OtfsGrid:
    return OtfsGrid(M=2, N=2, delta_f=15e3)


def figure_config(number: int, seed: int | None, target_errors: int | None,
                  max_frames: int | None, workers: int) -> list:
    """(config, notes) pairs for one paper-replication figure preset."""
    grid = _table2_grid()
    te = target_errors if target_errors is not None else 2000
    mf = max_frames if max_frames is not None else 10_000_000
    base = dict(grid=grid, snr_db=tuple(float(s) for s in range(0, 21, 2)),
                max_frames=mf, target_bit_errors=te, workers=workers)
    runs = []
    if number == 1:
        for m in (1, 2):
            cfg = SweepConfig(scheme="bpsk", order=2,
                              paths=(PathSpec(m=m, omega=1.0),),
                              master_seed=seed if seed is not None else 20260801 + m,
                              preset=f"fig1-m{m}", **base)
            runs.append((cfg, ["channel: single path, unit power"]))
    elif number == 2:
        for m1, m2 in ((1, 2), (2, 3)):
            paths = (PathSpec(m=m1, omega=FIG2_OMEGAS[0], l=0),
                     PathSpec(m=m2, omega=FIG2_OMEGAS[1], l=1))
            cfg = SweepConfig(scheme="qpsk", order=4, paths=paths,
                              master_seed=seed if seed is not None else 20260810 + m1,
                              preset=f"fig2-m{m1}{m2}", **base)
            runs.append((cfg, [
                f"ASSUMED per-path powers {FIG2_OMEGAS} (source leaves the "
                f"split unspecified)"]))
    elif number == 3:
        for k_u in (1, 2):
            interferers = () if k_u == 1 else (
                (PathSpec(m=2, omega=FIG3_INTERFERER_OMEGA),),)
            cfg = SweepConfig(scheme="qpsk", order=4,
                              paths=(PathSpec(m=2, omega=1.0),),
                              mode="simo-semianalytic", interferers=interferers,
                              master_seed=seed if seed is not None else 20260820 + k_u,
                              preset=f"fig3-ku{k_u}",
                              **{**base, "max_frames": min(mf, 200_000)})
            notes = []
            if k_u == 1:
                notes.append("warning: interference-free preset; points use "
                             "the deterministic conditional-error formula "
                             "A*Q(sqrt(2*B*EsN0))/log2(M)")
            else:
                notes.append(f"ASSUMED interferer power omega = "
                             f"{FIG3_INTERFERER_OMEGA} (source value unspecified)")
            runs.append((cfg, notes))
    elif number == 4:
        for m, k_u in ((1, 1), (2, 2)):
            interferers = () if k_u == 1 else (
                (PathSpec(m=m, omega=FIG3_INTERFERER_OMEGA / 2, l=0),
                 PathSpec(m=m, omega=FIG3_INTERFERER_OMEGA / 2, l=1)),)
            cfg = SweepConfig(scheme="qpsk", order=4,
                              paths=(PathSpec(m=m, omega=0.5, l=0),
                                     PathSpec(m=m, omega=0.5, l=1)),
                              mode="simo-semianalytic", interferers=interferers,
                              master_seed=seed if seed is not None else 20260830 + k_u,
                              preset=f"fig4-m{m}-ku{k_u}",
                              **{**base, "max_frames": min(mf, 200_000)})
            notes = []
            if k_u == 1:
                notes.append("warning: interference-free preset; points use "
                             "the deterministic conditional-error formula "
                             "A*Q(sqrt(2*B*EsN0))/log2(M)")
            else:
                notes.append(f"ASSUMED per-path interferer power omega = "
                             f"{FIG3_INTERFERER_OMEGA / 2} (source value unspecified)")
            runs.append((cfg, notes))
    else:
        raise ConfigError(f"figure must be 1, 2, 3, or 4, got {number}")
    return runs


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _progress_printer(stream):
    state = {}

    def cb(pt_idx, snr_db, frames, errors):
        if frames - state.get(pt_idx, 0) >= 10 * engine.BATCH_FRAMES:
            state[pt_idx] = frames
            print(f"  {snr_db:5.1f} dB: {frames} frames, {errors} bit errors",
                  file=stream)
    return cb


def _apply_overrides(cfg: SweepConfig, args) -> SweepConfig:
    over = {}
    if args.seed is not None:
        over["master_seed"] = args.seed
    if getattr(args, "snr", None):
        over["snr_db"] = _parse_snr(args.snr)
    if getattr(args, "frames_max", None) is not None:
        over["max_frames"] = args.frames_max
    if getattr(args, "target_errors", None) is not None:
        over["target_bit_errors"] = args.target_errors
    if getattr(args, "waveform", None):
        over["waveform"] = args.waveform
    if getattr(args, "mode", None):
        over["mode"] = {"siso": "siso-waveform",
                        "simo": "simo-semianalytic"}[args.mode]
    if getattr(args, "workers", None) is not None:
        over["workers"] = args.workers
    return replace(cfg, **over) if over else cfg


def _load_config(args) -> SweepConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = config_from_kv(parse_config_text(fh.read()))
    else:
        cfg = SweepConfig(grid=_table2_grid())
    return _apply_overrides(cfg, args)


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    curve = engine.run_sweep(cfg, _progress_printer(sys.stderr) if args.verbose else None)
    notes = []
    if cfg.mode == "simo-semianalytic" and not cfg.interferers:
        notes.append("warning: interference-free preset; points use the "
                     "deterministic conditional-error formula "
                     "A*Q(sqrt(2*B*EsN0))/log2(M)")
    emit_csv(curve, args.out, notes=notes)
    print(f"wrote {args.out} ({len(curve.points)} points, backend "
          f"{kernels.active_backend()})")
    return 0


def cmd_analytic(args) -> int:
    cfg = _load_config(args)
    mod = analytic.mod_params(cfg.scheme, cfg.order)
    points = []
    for snr_db in cfg.snr_db:
        value = engine.analytic_reference(cfg, 10.0 ** (snr_db / 10.0), mod)
        points.append(engine.BerPoint(snr_db=snr_db, bit_errors=0, bits=0,
                                      ber=float("nan"), ci_low=float("nan"),
                                      ci_high=float("nan"), analytic_ber=value))
    curve = BerCurve(points=tuple(points), waveform=cfg.waveform,
                     preset=cfg.preset, config=cfg)
    emit_csv(curve, args.out)
    print(f"wrote {args.out} ({len(points)} closed-form points)")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    otfs, ofdm = engine.paired_comparison(
        cfg, _progress_printer(sys.stderr) if args.verbose else None)
    emit_csv([otfs, ofdm], args.out, config=cfg,
             notes=[f"ofdm baseline: {cfg.ofdm_chain} chain"])
    for wf, curve in (("otfs", otfs), ("ofdm", ofdm)):
        last = curve.points[-1]
        print(f"{wf}: BER {last.ber:.4e} at {last.snr_db:g} dB "
              f"({last.bit_errors} errors)")
    return 0


def cmd_diversity(args) -> int:
    seed = args.seed if args.seed is not None else 20260840
    te = args.target_errors if args.target_errors is not None else 2000
    grid = _table2_grid()
    snr_pair = (10.0, 20.0)
    reports = []

    base = dict(grid=grid, scheme="qpsk", order=4, snr_db=snr_pair,
                max_frames=args.frames_max or 10_000_000,
                target_bit_errors=te, workers=args.workers or 1)
    cfg = SweepConfig(paths=(PathSpec(m=1, omega=1.0),), master_seed=seed,
                      preset="table3-p1m1", **base)
    otfs, ofdm = engine.paired_comparison(cfg)
    reports.append(diversity.DiversityReport(
        gd_empirical=diversity.empirical_gd(otfs, *snr_pair), snr_pair=snr_pair,
        gd_approx=diversity.siso_gd_approx(1, (1,)), config_label="otfs-p1-m1"))
    reports.append(diversity.DiversityReport(
        gd_empirical=diversity.empirical_gd(ofdm, *snr_pair), snr_pair=snr_pair,
        gd_approx=diversity.siso_gd_approx(1, (1,)), config_label="ofdm-p1-m1"))

    p2 = SweepConfig(paths=(PathSpec(m=1, omega=TABLE3_P2_OMEGAS[0], l=0),
                            PathSpec(m=2, omega=TABLE3_P2_OMEGAS[1], l=1)),
                     master_seed=seed + 1, preset="table3-p2m12", **base)
    window = (30.0, 40.0) if args.asymptotic else snr_pair
    p2_curve = engine.run_sweep(replace(p2, snr_db=window)) if args.asymptotic \
        else engine.run_sweep(p2)
    reports.append(diversity.DiversityReport(
        gd_empirical=diversity.empirical_gd(p2_curve, *window, use_analytic=True),
        snr_pair=window, gd_approx=diversity.siso_gd_approx(2, (1, 2)),
        config_label="otfs-p2-m12-analytic"))
    reports.append(diversity.DiversityReport(
        gd_empirical=diversity.empirical_gd(p2_curve, *window),
        snr_pair=window, gd_approx=diversity.siso_gd_approx(2, (1, 2)),
        config_label="otfs-p2-m12-simulated"))

    print(f"# diversity report (window {window[0]:g}->{window[1]:g} dB; "
          f"ASSUMED P=2 powers {TABLE3_P2_OMEGAS})")
    print(f"# {MATCHED_FILTER_NOTE} (row otfs-p2-m12-analytic)")
    print("config,gd_empirical,gd_approx")
    for r in reports:
        print(f"{r.config_label},{r.gd_empirical:.4f},{r.gd_approx:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("config,gd_empirical,gd_approx\n")
            for r in reports:
                fh.write(f"{r.config_label},{r.gd_empirical:.6e},{r.gd_approx:.6e}\n")
    return 0


def cmd_figure(args) -> int:
    runs = figure_config(args.number, args.seed, args.target_errors,
                         args.frames_max, args.workers or 1)
    curves, notes = [], []
    cfg0 = None
    for cfg, run_notes in runs:
        cfg0 = cfg0 or cfg
        notes.extend(run_notes)
        if args.number in (1, 2):
            otfs, ofdm = engine.paired_comparison(
                cfg, _progress_printer(sys.stderr) if args.verbose else None)
            curves.extend([otfs, ofdm])
        else:
            curves.append(engine.run_sweep(cfg))
    emit_csv(curves, args.out, notes=notes, config=cfg0)
    print(f"wrote {args.out} ({sum(len(c.points) for c in curves)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="otfslab",
        description="Link-level OTFS/OFDM laboratory over Nakagami-m fading")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_mc=True):
        p.add_argument("--config", help="config file or previously emitted CSV")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="curve.csv")
        p.add_argument("--snr", help="start:step:stop in dB")
        p.add_argument("--verbose", action="store_true")
        if with_mc:
            p.add_argument("--frames-max", type=int, default=None)
            p.add_argument("--target-errors", type=int, default=None)
            p.add_argument("--waveform", choices=["otfs", "ofdm"])
            p.add_argument("--mode", choices=["siso", "simo"])
            p.add_argument("--workers", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo + analytic curve")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analytic", help="closed-form curve only")
    common(p_an, with_mc=False)
    p_an.add_argument("--mode", choices=["siso", "simo"])
    p_an.set_defaults(func=cmd_analytic)

    p_cmp = sub.add_parser("compare", help="paired OTFS vs OFDM run")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_div = sub.add_parser("diversity", help="diversity slope report")
    p_div.add_argument("--seed", type=int, default=None)
    p_div.add_argument("--out", default=None)
    p_div.add_argument("--frames-max", type=int, default=None)
    p_div.add_argument("--target-errors", type=int, default=None)
    p_div.add_argument("--workers", type=int, default=None)
    p_div.add_argument("--asymptotic", action="store_true",
                       help="use the 30->40 dB analytic window")
    p_div.set_defaults(func=cmd_diversity)

    p_fig = sub.add_parser("figure", help="paper-replication presets")
    p_fig.add_argument("number", type=int, choices=[1, 2, 3, 4])
    p_fig.add_argument("--seed", type=int, default=None)
    p_fig.add_argument("--out", default=None)
    p_fig.add_argument("--frames-max", type=int, default=None)
    p_fig.add_argument("--target-errors", type=int, default=None)
    p_fig.add_argument("--workers", type=int, default=None)
    p_fig.add_argument("--verbose", action="store_true")
    p_fig.set_defaults(func=cmd_figure)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    if getattr(args, "out", None) is None and args.command == "figure":
        args.out = f"figure{args.number}.csv"
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    except OtfsLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
