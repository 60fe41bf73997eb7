"""Command-line front end: presets, custom sweeps, CSV/JSON emission.

Subcommands:
    sweep      Monte Carlo sweep plus the matching closed-form curve.
    analytic   closed-form-only curve on a dense SNR grid.
    compare    paired OTFS vs OFDM run, each batch of channel/noise
               realizations drawn once and fed to both chains; it pairs
               waveform chains only, so simo-semianalytic mode exits 2.
    diversity  empirical slope report next to the closed-form approximations.
    figure     paper-replication presets (1-4).

Exit codes: 0 success, 2 configuration error, 3 capacity error,
4 numeric non-convergence.

Configs are read and written through one table of keys, ``_KEYS``; a key a
config leaves unset takes SweepConfig's default.  On every command a flag is
a key written over the config's (``_FLAG_KEYS``): ``--seed N`` is ``seed = N``.
The ``figure`` and ``diversity`` presets are configs, budgets included: the
200 000-frame cap of figures 3 and 4 is their ``max_frames``, which
``--frames-max`` replaces.
Every CSV embeds a resolved config as ``# cfg key = value`` lines; the
retired keys older ones hold (``workers``, ``delta_f_hz``) are checked and
ignored.  Fed back through ``--config``, a ``sweep``, ``compare`` or
``analytic`` CSV reproduces its data rows byte for byte; a ``figure`` CSV
embeds only its first preset, whose rows ``compare`` (figures 1, 2) or
``sweep`` (3, 4) reproduce, and a ``diversity`` CSV its first preset, the
one-path pair whose curves ``compare`` reproduces.
``--verbose`` (``sweep``, ``compare``, ``figure``) prints a line per running
chain every ten batches (OTFS first), and a line of trials per semi-analytic
point.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace
from datetime import datetime, timezone
from operator import attrgetter

from . import __version__, analytic, diversity, engine, kernels
from .engine import BerCurve, SweepConfig
from .errors import CapacityError, ConfigError, NumericError, OtfsLabError
from .fading import PathSpec
from .modem import OtfsGrid

CSV_HEADER = "snr_db,ber_mc,ci_low,ci_high,ber_analytic,bit_errors,bits,waveform,preset"
DIVERSITY_HEADER = "config,gd_empirical,gd_approx"

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
# Every semi-analytic manifest says what its route reads.
SEMIANALYTIC_NOTE = ("note: simo-semianalytic reads the SNR, the modulation and "
                     "the interferers, not the paths or grid; the desired link "
                     "is unfaded, SINR = (Es/N0)/(1 + S)")
# A semi-analytic config without interferers has a deterministic SINR;
# emit_csv labels it.
INTERFERENCE_FREE_NOTE = ("warning: interference-free preset; points use the "
                          "deterministic conditional-error formula "
                          "A*Q(sqrt(2*B*EsN0))/log2(M)")


# ---------------------------------------------------------------------------
# Config file format: flat "key = value" lines and '#' comments; an unknown
# or repeated key, or a line without '=', is a hard error.  An emitted CSV
# reads as its '# cfg ' lines up to its header.
# _KEYS holds the format: key -> (field on SweepConfig, or "grid.<field>",
# parser, writer), in manifest order; path<n> and interferer<n> follow, any
# n >= 1 written without leading zeros, read in increasing n.  An
# unset key keeps SweepConfig's default (the grid: Table 2's).  "snr"
# (start:step:stop, wins over snr_list) is read, never written.  So that
# older manifests still load, a retired key (_RETIRED_KEYS) is read and
# checked, never written, and sets nothing.
# ---------------------------------------------------------------------------

def _parse_path(text: str) -> PathSpec:
    parts = [p.strip() for p in text.split(",")]
    if not 2 <= len(parts) <= 5:
        raise ConfigError(f"malformed path spec {text!r}: want "
                          f"'m,omega[,l[,k[,kappa]]]'")
    try:
        # an integer shape stays int, so its manifests read back unchanged
        m = int(parts[0]) if parts[0].lstrip("+-").isdigit() else float(parts[0])
        # omega, l, k, kappa; a value outside PathSpec's domain reads here too
        return PathSpec(m, *(parse(v) for parse, v in
                             zip((float, int, int, float), parts[1:])))
    except ValueError as e:
        raise ConfigError(f"malformed path spec {text!r}: {e}") from e


def _fmt_path(p: PathSpec) -> str:
    return f"{p.m},{p.omega!r},{p.l},{p.k},{p.kappa!r}"


def _parse_snr(text: str) -> tuple:
    """SNR points in dB: a comma-separated list, or start:step:stop with
    finite bounds (an infinite one would never end the expansion)."""
    if ":" not in text:
        return tuple(float(v) for v in text.split(","))
    start, step, stop = (float(v) for v in text.split(":"))
    if not all(map(math.isfinite, (start, step, stop))):
        raise ValueError("snr range bounds must be finite")
    if step <= 0:
        raise ValueError(f"snr step must be positive, got {step}")
    out = []
    v = start
    while v <= stop + 1e-9:
        out.append(round(v, 9))
        v += step
    return tuple(out)


_KEYS = {
    "grid_m": ("grid.M", int, str),
    "grid_n": ("grid.N", int, str),
    "scheme": ("scheme", str.lower, str),
    "order": ("order", int, str),
    "snr_list": ("snr_db", _parse_snr, lambda snr: ",".join(map(repr, snr))),
    "max_frames": ("max_frames", int, str),
    "target_errors": ("target_bit_errors", int, str),
    "seed": ("master_seed", int, str),
    "waveform": ("waveform", str, str),
    "mode": ("mode", str, str),
    "ofdm_chain": ("ofdm_chain", str, str),
    "preset": ("preset", str, str),
}


def _finite_positive(text: str) -> None:
    if not 0 < float(text) < math.inf:
        raise ValueError("want a finite value > 0")


# retired key -> its check: a worker count, and a subcarrier spacing in Hz
_RETIRED_KEYS = {"workers": str, "delta_f_hz": _finite_positive}
_KNOWN_KEYS = {*_KEYS, *_RETIRED_KEYS, "snr"}
_NUMBERED_KEY = re.compile(r"(path|interferer)([1-9][0-9]*)")


def _numbered(kv: dict, prefix: str) -> list:
    """The values of the keys prefix<n> in kv, in increasing n."""
    keys = [m for m in map(_NUMBERED_KEY.fullmatch, kv) if m and m[1] == prefix]
    return [kv[m[0]] for m in sorted(keys, key=lambda m: int(m[2]))]


def parse_config_text(text: str) -> dict:
    kv = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line in (CSV_HEADER, DIVERSITY_HEADER):
            break  # an emitted CSV: only data rows follow
        if line.startswith("# cfg "):
            line = line[len("# cfg "):].strip()
        elif line.startswith("#") or not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS and not _NUMBERED_KEY.fullmatch(key):
            raise ConfigError(f"unknown config key {key!r}")
        if key in kv:
            raise ConfigError(f"duplicate config key {key!r}")
        kv[key] = value.strip()
    return kv


def _read(kv: dict, key: str, parse):
    try:
        return parse(kv[key])
    except ValueError as e:
        raise ConfigError(f"malformed {key} {kv[key]!r}: {e}") from e


def config_from_kv(kv: dict) -> SweepConfig:
    """The SweepConfig the keys set; the keys left unset keep its defaults."""
    for key, check in _RETIRED_KEYS.items():
        if key in kv:
            _read(kv, key, check)
    fields, grid = {}, {}
    for key, (field, parse, _) in _KEYS.items():
        if key in kv:
            prefix, _, name = field.rpartition(".")
            (grid if prefix else fields)[name] = _read(kv, key, parse)
    fields["grid"] = replace(_table2_grid(), **grid)
    if "snr" in kv:
        fields["snr_db"] = _read(kv, "snr", _parse_snr)
    if fields.get("scheme") == "qpsk":
        fields.setdefault("order", 4)
    paths = tuple(map(_parse_path, _numbered(kv, "path")))
    interferers = tuple(tuple(_parse_path(chunk) for chunk in user.split(";"))
                        for user in _numbered(kv, "interferer"))
    return SweepConfig(**fields, paths=paths or SweepConfig.paths, interferers=interferers)


def config_to_kv(config: SweepConfig) -> dict:
    kv = {key: write(attrgetter(field)(config))
          for key, (field, _, write) in _KEYS.items()}
    for i, p in enumerate(config.paths, start=1):
        kv[f"path{i}"] = _fmt_path(p)
    for i, user in enumerate(config.interferers, start=1):
        kv[f"interferer{i}"] = ";".join(map(_fmt_path, user))
    return kv


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6e}"


def curve_rows(curve: BerCurve) -> list:
    """CSV data rows: the estimate cells are blank where a point has no
    estimate (NaN BER, closed-form-only), the count cells where it counted
    no bits (semi-analytic or closed-form-only)."""
    rows = []
    for p in curve.points:
        mc = lo = hi = errs = bits = ""
        if p.ber == p.ber:
            mc, lo, hi = _fmt(p.ber), _fmt(p.ci_low), _fmt(p.ci_high)
        if p.bits:
            errs, bits = str(p.bit_errors), str(p.bits)
        rows.append(f"{_fmt(p.snr_db)},{mc},{lo},{hi},{_fmt(p.analytic_ber)},"
                    f"{errs},{bits},{curve.waveform},{curve.preset}")
    return rows


def _manifest(cfg: SweepConfig | None, notes=()) -> list:
    """The '#' lines that head every CSV: version, time, the config's keys,
    the notes, and the notes the config itself calls for."""
    lines = [f"# otfslab {__version__} run manifest",
             f"# generated: {datetime.now(timezone.utc).isoformat()}"]
    if cfg is not None:
        for key, value in config_to_kv(cfg).items():
            lines.append(f"# cfg {key} = {value}")
    for note in notes:
        lines.append(f"# {note}")
    if cfg is not None and cfg.mode == "siso-waveform" and len(cfg.paths) > 1:
        lines.append(f"# {MATCHED_FILTER_NOTE}")
    if cfg is not None and cfg.mode == "simo-semianalytic":
        lines.append(f"# {SEMIANALYTIC_NOTE}")
    if cfg is not None and cfg.mode == "simo-semianalytic" and not cfg.interferers:
        lines.append(f"# {INTERFERENCE_FREE_NOTE}")
    return lines


def emit_csv(curves, path, notes=(), config: SweepConfig | None = None) -> None:
    """Write one or more curves with a reproducibility manifest."""
    if isinstance(curves, BerCurve):
        curves = [curves]
    if not curves or not any(c.points for c in curves):
        raise ConfigError("refusing to emit an empty curve")
    lines = _manifest(config or curves[0].config, notes)
    lines.append(CSV_HEADER)
    for curve in curves:
        lines.extend(curve_rows(curve))
    _write(path, "\n".join(lines) + "\n")


def _write(path, text: str) -> None:
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
    return OtfsGrid(M=2, N=2)


def figure_config(number: int, seed: int | None = None,
                  target_errors: int | None = None,
                  max_frames: int | None = None, workers=None) -> list:
    """(config, notes) pairs for one paper-replication figure.  Its presets'
    budgets are 2000 bit errors and SweepConfig's frame cap, or 200 000 on
    the semi-analytic figures 3 and 4; a seed or budget given replaces them."""
    base = dict(grid=_table2_grid(), target_bit_errors=2000)
    qpsk = dict(base, scheme="qpsk", order=4)
    semi = dict(qpsk, mode="simo-semianalytic", max_frames=200_000)
    runs = []
    if number == 1:
        for m in (1, 2):
            cfg = SweepConfig(paths=(PathSpec(m=m, omega=1.0),),
                              master_seed=20260801 + m, preset=f"fig1-m{m}", **base)
            runs.append((cfg, ["channel: single path, unit power"]))
    elif number == 2:
        for m1, m2 in ((1, 2), (2, 3)):
            paths = (PathSpec(m=m1, omega=FIG2_OMEGAS[0], l=0),
                     PathSpec(m=m2, omega=FIG2_OMEGAS[1], l=1))
            cfg = SweepConfig(paths=paths, master_seed=20260810 + m1,
                              preset=f"fig2-m{m1}{m2}", **qpsk)
            runs.append((cfg, [
                f"ASSUMED per-path powers {FIG2_OMEGAS} (source leaves the "
                f"split unspecified)"]))
    elif number == 3:
        for k_u in (1, 2):
            interferers = () if k_u == 1 else (
                (PathSpec(m=2, omega=FIG3_INTERFERER_OMEGA),),)
            cfg = SweepConfig(paths=(PathSpec(m=2, omega=1.0),),
                              interferers=interferers, master_seed=20260820 + k_u,
                              preset=f"fig3-ku{k_u}", **semi)
            runs.append((cfg, [] if k_u == 1 else [
                f"ASSUMED interferer power omega = {FIG3_INTERFERER_OMEGA} "
                f"(source value unspecified)"]))
    elif number == 4:
        for m, k_u in ((1, 1), (2, 2)):
            interferers = () if k_u == 1 else (
                (PathSpec(m=m, omega=FIG3_INTERFERER_OMEGA / 2, l=0),
                 PathSpec(m=m, omega=FIG3_INTERFERER_OMEGA / 2, l=1)),)
            cfg = SweepConfig(paths=(PathSpec(m=m, omega=0.5, l=0),
                                     PathSpec(m=m, omega=0.5, l=1)),
                              interferers=interferers, master_seed=20260830 + k_u,
                              preset=f"fig4-m{m}-ku{k_u}", **semi)
            runs.append((cfg, [] if k_u == 1 else [
                f"ASSUMED per-path interferer power omega = "
                f"{FIG3_INTERFERER_OMEGA / 2} (source value unspecified)"]))
    else:
        raise ConfigError(f"figure must be 1, 2, 3, or 4, got {number}")
    # `workers` is ignored; ROADMAP P0 retires the positional argument
    given = dict(master_seed=seed, target_bit_errors=target_errors,
                 max_frames=max_frames)
    given = {field: value for field, value in given.items() if value is not None}
    return [(replace(cfg, **given), notes) for cfg, notes in runs]


def _table3_presets() -> tuple:
    """Table 3's configs: one unit-power path, run OTFS vs OFDM, and the
    two-path m = (1, 2) channel at the ASSUMED powers."""
    base = dict(grid=_table2_grid(), scheme="qpsk", order=4, snr_db=(10.0, 20.0),
                target_bit_errors=2000)
    return (SweepConfig(paths=(PathSpec(m=1, omega=1.0),), master_seed=20260840,
                        preset="table3-p1m1", **base),
            SweepConfig(paths=(PathSpec(m=1, omega=TABLE3_P2_OMEGAS[0], l=0),
                               PathSpec(m=2, omega=TABLE3_P2_OMEGAS[1], l=1)),
                        master_seed=20260841, preset="table3-p2m12", **base))


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _progress_printer(stream, config: SweepConfig):
    """Print a point's counts every ten batches.  Paired chains report a
    batch in turn, so a repeat of the frame count just printed prints too.
    A semi-analytic point reports once, when it is done, so it prints one
    line of trials."""
    if config.mode == "simo-semianalytic":
        def per_point(pt_idx, snr_db, trials, errors):
            print(f"  {snr_db:5.1f} dB: {trials} trials", file=stream)
        return per_point
    printed = {}

    def cb(pt_idx, snr_db, frames, errors):
        last = printed.get(pt_idx, 0)
        if frames == last or frames - last >= 10 * engine.BATCH_FRAMES:
            printed[pt_idx] = frames
            print(f"  {snr_db:5.1f} dB: {frames} frames, {errors} bit errors",
                  file=stream)
    return cb


# the config key each flag given writes over the config file's; --mode
# siso|simo names a mode by its prefix
_FLAG_KEYS = {"seed": "seed", "snr": "snr", "frames_max": "max_frames",
              "target_errors": "target_errors", "waveform": "waveform", "mode": "mode"}
_MODE_FLAGS = {"siso": "siso-waveform", "simo": "simo-semianalytic"}


def _with_flags(kv: dict, args) -> SweepConfig:
    """The config the keys kv set, with each flag given written over its key."""
    kv = dict(kv)
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            kv[key] = _MODE_FLAGS[value] if flag == "mode" else value
    return config_from_kv(kv)


def _load_config(args) -> SweepConfig:
    text = ""
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read {args.config}: {e}") from e
    return _with_flags(parse_config_text(text), args)


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    curve = engine.run_sweep(cfg, _progress_printer(sys.stderr, cfg) if args.verbose else None)
    emit_csv(curve, args.out)
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
        cfg, _progress_printer(sys.stderr, cfg) if args.verbose else None)
    emit_csv([otfs, ofdm], args.out, config=cfg,
             notes=[f"ofdm baseline: {cfg.ofdm_chain} chain"])
    for wf, curve in (("otfs", otfs), ("ofdm", ofdm)):
        last = curve.points[-1]
        print(f"{wf}: BER {last.ber:.4e} at {last.snr_db:g} dB ({last.bit_errors} errors)")
    return 0


def cmd_diversity(args) -> int:
    p1, p2 = (_with_flags(config_to_kv(cfg), args) for cfg in _table3_presets())
    if args.asymptotic:
        p2 = replace(p2, snr_db=(30.0, 40.0))
    otfs, ofdm = engine.paired_comparison(p1)
    p2_curve = engine.run_sweep(p2)
    rows = []
    for label, curve, use_analytic in (
            ("otfs-p1-m1", otfs, False), ("ofdm-p1-m1", ofdm, False),
            ("otfs-p2-m12-analytic", p2_curve, True),
            ("otfs-p2-m12-simulated", p2_curve, False)):
        # the slope over the curve's own SNR pair, the approximation from its paths
        cfg = curve.config
        rows.append((label, diversity.empirical_gd(curve, *cfg.snr_db,
                                                   use_analytic=use_analytic),
                     diversity.siso_gd_approx([p.m for p in cfg.paths])))
    window = p2.snr_db
    notes = [f"diversity report (window {window[0]:g}->{window[1]:g} dB; "
             f"ASSUMED P=2 powers {TABLE3_P2_OMEGAS})",
             f"{MATCHED_FILTER_NOTE} (row otfs-p2-m12-analytic)"]
    if args.out:
        lines = _manifest(p1, notes) + [DIVERSITY_HEADER] + [
            f"{label},{gd:.6e},{approx:.6e}" for label, gd, approx in rows]
        _write(args.out, "\n".join(lines) + "\n")

    for note in notes:
        print(f"# {note}")
    print(DIVERSITY_HEADER)
    for label, gd, approx in rows:
        print(f"{label},{gd:.4f},{approx:.4f}")
    return 0


def cmd_figure(args) -> int:
    runs = [(_with_flags(config_to_kv(cfg), args), notes)
            for cfg, notes in figure_config(args.number)]
    out = f"figure{args.number}.csv" if args.out is None else args.out
    curves, notes = [], []
    for cfg, run_notes in runs:
        notes.extend(run_notes)
        progress = _progress_printer(sys.stderr, cfg) if args.verbose else None
        if cfg.mode == "siso-waveform":
            curves.extend(engine.paired_comparison(cfg, progress))
        else:
            curves.append(engine.run_sweep(cfg, progress))
    emit_csv(curves, out, notes=notes, config=runs[0][0])
    print(f"wrote {out} ({sum(len(c.points) for c in curves)} rows)")
    return 0


# the options of the flags that take more than a string; --seed,
# --frames-max and --target-errors take a config key's text, read by its parser
_FLAG_OPTIONS = {
    "config": dict(help="config file or previously emitted CSV"),
    "snr": dict(help="start:step:stop in dB"),
    "verbose": dict(action="store_true"),
    "waveform": dict(choices=["otfs", "ofdm"]),
    "mode": dict(choices=["siso", "simo"]),
    "asymptotic": dict(action="store_true", help="use the 30->40 dB analytic window"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="otfslab",
        description="Link-level OTFS/OFDM laboratory over Nakagami-m fading")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, about, flags, out="curve.csv"):
        p = sub.add_parser(name, help=about)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAG_OPTIONS.get(flag, {}))
        p.set_defaults(func=func, out=out)
        return p

    mc = "config seed out snr verbose frames-max target-errors waveform mode"
    command("sweep", cmd_sweep, "Monte Carlo + analytic curve", mc)
    command("analytic", cmd_analytic, "closed-form curve only",
            "config seed out snr mode")
    command("compare", cmd_compare, "paired OTFS vs OFDM run", mc)
    command("diversity", cmd_diversity, "diversity slope report",
            "seed out frames-max target-errors asymptotic", out=None)
    p_fig = command("figure", cmd_figure, "paper-replication presets",
                    "seed out frames-max target-errors verbose", out=None)
    p_fig.add_argument("number", type=int, choices=[1, 2, 3, 4])
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
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
