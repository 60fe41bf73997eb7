"""Command-line surface: subcommands, exit codes, CSV format, reproducibility."""

import math
import os
import signal
import subprocess
import sys
from dataclasses import replace

import pytest

import otfslab
from otfslab import cli, engine
from otfslab.analytic import mod_params
from otfslab.cli import (CSV_HEADER, config_from_kv, config_to_kv, emit_csv,
                         main, parse_config_text, parse_csv_rows)
from otfslab.engine import BerCurve, BerPoint, SweepConfig, run_sweep
from otfslab.errors import ConfigError
from otfslab.fading import PathSpec
from otfslab.modem import OtfsGrid


def fast_args(*extra):
    return ["--frames-max", "20000", "--target-errors", "50"] + list(extra)


class TestConfigFormat:
    def test_round_trip(self):
        cfg = SweepConfig(grid=OtfsGrid(M=2, N=2), scheme="qpsk", order=4,
                          paths=(PathSpec(m=1, omega=2 / 3, l=0),
                                 PathSpec(m=2, omega=1 / 3, l=1)),
                          snr_db=(0.0, 10.0), master_seed=77, mode="simo-semianalytic",
                          interferers=((PathSpec(m=2, omega=0.015),),))
        back = config_from_kv(parse_config_text(
            "\n".join(f"{k} = {v}" for k, v in config_to_kv(cfg).items())))
        assert back == cfg

    def test_round_trip_non_integer_shapes(self):
        cfg = SweepConfig(grid=OtfsGrid(M=2, N=2), scheme="qpsk", order=4,
                          paths=(PathSpec(m=1.5, omega=0.6, l=0),
                                 PathSpec(m=2, omega=0.4, l=1)),
                          snr_db=(0.0, 10.0), mode="simo-semianalytic",
                          interferers=((PathSpec(m=2.5, omega=0.015),),))
        kv = config_to_kv(cfg)
        assert kv["path1"].startswith("1.5,") and kv["path2"].startswith("2,")
        back = config_from_kv(parse_config_text(
            "\n".join(f"{k} = {v}" for k, v in kv.items())))
        assert back == cfg
        assert type(back.paths[1].m) is int

    @pytest.mark.parametrize("text", ["1.5x,1.0", "2,one", "2,1.0,0.5", "2,1.0,0,1,x",
                                      "2", "2,1.0,0,0,0.0,junk"])
    def test_malformed_path_numbers_rejected(self, text):
        with pytest.raises(ConfigError, match="malformed path spec"):
            config_from_kv({"path1": text})

    def test_round_trip_beyond_32_paths_and_interferers(self):
        # numbered keys have no upper bound and are read in numeric order
        paths = tuple(PathSpec(m=1, omega=1 / 33, l=i % 8, k=i // 8 % 8)
                      for i in range(33))
        users = tuple((PathSpec(m=2, omega=0.001 * (i + 1)),) for i in range(33))
        cfg = SweepConfig(grid=OtfsGrid(M=8, N=8), paths=paths,
                          mode="simo-semianalytic", interferers=users)
        kv = config_to_kv(cfg)
        assert "path33" in kv and "interferer33" in kv
        back = config_from_kv(parse_config_text(
            "\n".join(f"{k} = {v}" for k, v in kv.items())))
        assert back == cfg

    @pytest.mark.parametrize("key", ["path0", "path01", "pathx", "path", "path1a",
                                     "interferer0", "interferer007"])
    def test_malformed_numbered_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text(f"{key} = 2,1.0\n")

    def test_manifest_with_a_workers_line_loads(self):
        # manifests written while the key configured a worker count
        text = ("# cfg grid_m = 2\n# cfg seed = 7\n# cfg workers = 1\n"
                "# cfg path1 = 2,1.0,0,0,0.0\n")
        cfg = config_from_kv(parse_config_text(text))
        assert cfg.master_seed == 7 and cfg.paths == (PathSpec(m=2, omega=1.0),)
        assert "workers" not in config_to_kv(cfg)

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("grid_m = 2\nsnr_pionts = 0:2:20\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_line_without_equals_is_rejected(self, tmp_path, capsys):
        # a typo must not leave the default path in place
        text = "path1 2,1.0\nscheme = qpsk\n"
        with pytest.raises(ConfigError, match="malformed config line"):
            parse_config_text(text)
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(text)
        assert main(["analytic", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "malformed config line" in capsys.readouterr().err

    def test_scheme_is_read_in_any_case(self):
        upper = config_from_kv(parse_config_text("scheme = QPSK\n"))
        assert upper == config_from_kv(parse_config_text("scheme = qpsk\n"))
        assert (upper.scheme, upper.order) == ("qpsk", 4)

    def test_comments_ignored(self):
        kv = parse_config_text("# a comment\nseed = 3\n\n")
        assert kv == {"seed": "3"}

    def test_snr_range_expansion(self):
        cfg = config_from_kv({"snr": "0:2:6"})
        assert cfg.snr_db == (0.0, 2.0, 4.0, 6.0)


def benchmark_presets(number, seed, frames):
    """The configs ``figure_config(number, seed, None, frames, 1)`` gave the
    benchmark while each budget was filled in per figure."""
    cap = SweepConfig.max_frames if frames is None else frames
    base = dict(grid=OtfsGrid(M=2, N=2), target_bit_errors=2000,
                master_seed=seed, max_frames=cap)
    qpsk = dict(base, scheme="qpsk", order=4)
    semi = dict(qpsk, mode="simo-semianalytic", max_frames=min(cap, 200_000))
    if number == 1:
        return [SweepConfig(paths=(PathSpec(m=m, omega=1.0),),
                            preset=f"fig1-m{m}", **base) for m in (1, 2)]
    if number == 2:
        return [SweepConfig(paths=(PathSpec(m=m1, omega=2 / 3, l=0),
                                   PathSpec(m=m2, omega=1 / 3, l=1)),
                            preset=f"fig2-m{m1}{m2}", **qpsk)
                for m1, m2 in ((1, 2), (2, 3))]
    if number == 3:
        return [SweepConfig(paths=(PathSpec(m=2, omega=1.0),), preset="fig3-ku1", **semi),
                SweepConfig(paths=(PathSpec(m=2, omega=1.0),),
                            interferers=((PathSpec(m=2, omega=0.015),),),
                            preset="fig3-ku2", **semi)]
    return [SweepConfig(paths=(PathSpec(m=1, omega=0.5, l=0), PathSpec(m=1, omega=0.5, l=1)),
                        preset="fig4-m1-ku1", **semi),
            SweepConfig(paths=(PathSpec(m=2, omega=0.5, l=0), PathSpec(m=2, omega=0.5, l=1)),
                        interferers=((PathSpec(m=2, omega=0.0075, l=0),
                                      PathSpec(m=2, omega=0.0075, l=1)),),
                        preset="fig4-m2-ku2", **semi)]


# a compare CSV as written while the grid kept a subcarrier spacing, plus the
# worker count manifests carried before that
OLD_COMPARE_CSV = """\
# otfslab 0.1.0 run manifest
# generated: 2026-10-20T13:20:29.321238+00:00
# cfg grid_m = 2
# cfg grid_n = 2
# cfg delta_f_hz = 15000.0
# cfg scheme = bpsk
# cfg order = 2
# cfg snr_list = 0.0,10.0
# cfg max_frames = 256
# cfg target_errors = 200
# cfg seed = 3
# cfg workers = 4
# cfg waveform = otfs
# cfg mode = siso-waveform
# cfg ofdm_chain = cp
# cfg preset = custom
# cfg path1 = 1,1.0,0,0,0.0
# ofdm baseline: cp chain
snr_db,ber_mc,ci_low,ci_high,ber_analytic,bit_errors,bits,waveform,preset
0.000000e+00,1.406250e-01,1.206733e-01,1.632629e-01,1.464466e-01,144,1024,otfs,custom
1.000000e+01,1.953125e-02,1.267854e-02,2.997537e-02,2.326871e-02,20,1024,otfs,custom
0.000000e+00,1.806641e-01,1.583065e-01,2.054086e-01,1.837722e-01,185,1024,ofdm,custom
1.000000e+01,3.125000e-02,2.222168e-02,4.378213e-02,3.374760e-02,32,1024,ofdm,custom
"""


def closed_form_curve(cfg, waveform="otfs"):
    """A curve whose estimates are its closed-form values; nothing is drawn."""
    points = tuple(BerPoint(snr_db=s, bit_errors=1, bits=1, ber=10 ** (-s / 10),
                            ci_low=0.0, ci_high=1.0, analytic_ber=10 ** (-s / 10))
                   for s in cfg.snr_db)
    return BerCurve(points=points, waveform=waveform, preset=cfg.preset, config=cfg)


class TestPresets:
    @pytest.mark.parametrize("presets", [
        *(pytest.param([cfg for cfg, _ in cli.figure_config(n)], id=f"figure{n}")
          for n in (1, 2, 3, 4)),
        pytest.param(list(cli._table3_presets()), id="table3")])
    def test_presets_survive_the_key_round_trip(self, presets):
        # figure and diversity resolve each preset through its keys
        for cfg in presets:
            assert config_from_kv(config_to_kv(cfg)) == cfg

    def test_preset_budgets(self):
        for number, cap in ((1, SweepConfig.max_frames), (2, SweepConfig.max_frames),
                            (3, 200_000), (4, 200_000)):
            for cfg, _ in cli.figure_config(number):
                assert (cfg.target_bit_errors, cfg.max_frames) == (2000, cap)

    @pytest.mark.parametrize("seed", [1, 20260801])
    @pytest.mark.parametrize("number, frames", [
        pytest.param(1, 16384, id="fig1"), pytest.param(2, 2048, id="fig2"),
        pytest.param(1, 65536, id="ofdm-cp-fig1"), pytest.param(2, 65536, id="ofdm-cp-fig2"),
        pytest.param(3, None, id="analytic-fig3"), pytest.param(4, None, id="analytic-fig4")])
    def test_benchmark_calls_get_the_configs_they_got(self, number, frames, seed):
        runs = cli.figure_config(number, seed, None, frames, 1)
        assert [cfg for cfg, _ in runs] == benchmark_presets(number, seed, frames)

    def test_frames_max_replaces_the_semianalytic_frame_cap(self, tmp_path, capsys):
        # 200 000 is the preset's cap, not a ceiling on the flag
        assert all(cfg.max_frames == 300_000
                   for cfg, _ in cli.figure_config(3, max_frames=300_000))
        assert main(["figure", "3", "--frames-max", "300000", "--verbose",
                     "--out", str(tmp_path / "f3.csv")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [f"  {snr:5.1f} dB: 300000 trials" for snr in range(0, 21, 2)] * 2

    def test_diversity_seed_flag_seeds_both_presets(self, monkeypatch, capsys):
        seen = []

        def paired(cfg, progress=None):
            seen.append(cfg)
            return closed_form_curve(cfg), closed_form_curve(cfg, "ofdm")

        def sweep(cfg, progress=None):
            seen.append(cfg)
            return closed_form_curve(cfg)
        monkeypatch.setattr(engine, "paired_comparison", paired)
        monkeypatch.setattr(engine, "run_sweep", sweep)
        assert main(["diversity"]) == 0
        assert seen == list(cli._table3_presets())
        assert [cfg.master_seed for cfg in seen] == [20260840, 20260841]
        seen.clear()
        assert main(["diversity", "--seed", "5"]) == 0
        assert seen == [replace(cfg, master_seed=5) for cfg in cli._table3_presets()]

    @pytest.mark.parametrize("command, key", [
        ("figure 1 --frames-max 1e5", "max_frames"),
        ("figure 3 --target-errors x", "target_errors"),
        ("diversity --seed 1e3", "seed")])
    def test_malformed_preset_flag_is_a_config_error(self, tmp_path, capsys,
                                                     command, key):
        # the flags of figure and diversity are read by their keys' parsers
        out = tmp_path / "x.csv"
        assert main(command.split() + ["--out", str(out)]) == 2
        assert f"config error: malformed {key} " in capsys.readouterr().err
        assert not out.exists()

    def test_diversity_csv_embeds_its_first_preset(self, monkeypatch, tmp_path,
                                                    capsys):
        # the '# cfg' lines reload as the one-path preset the flags resolved,
        # and the notes printed beside the report head the file too
        monkeypatch.setattr(engine, "paired_comparison", lambda cfg, progress=None: (
            closed_form_curve(cfg), closed_form_curve(cfg, "ofdm")))
        monkeypatch.setattr(engine, "run_sweep",
                            lambda cfg, progress=None: closed_form_curve(cfg))
        out = tmp_path / "div.csv"
        assert main(["diversity", "--seed", "5", "--frames-max", "8192",
                     "--out", str(out)]) == 0
        text = out.read_text()
        p1 = replace(cli._table3_presets()[0], master_seed=5, max_frames=8192)
        assert config_from_kv(parse_config_text(text)) == p1
        cfg_lines = [r for r in text.splitlines() if r.startswith("# cfg ")]
        assert config_from_kv(parse_config_text("\n".join(cfg_lines))) == p1
        printed = capsys.readouterr().out.splitlines()
        notes = [r for r in printed if r.startswith("# ")]
        assert len(notes) == 2 and "window 10->20 dB" in notes[0]
        lines = text.splitlines()
        header = lines.index(cli.DIVERSITY_HEADER)
        assert lines[header - 2:header] == notes
        assert len(lines) == header + 5

    def test_diversity_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "div.csv"
        assert main(["diversity", "--frames-max", "8192", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"config error: cannot write {out}" in captured.err
        assert captured.out == "" and not out.exists()


class TestCsvFormat:
    def test_header_and_row_shape(self, tmp_path):
        cfg = SweepConfig(grid=OtfsGrid(M=2, N=2), snr_db=(0.0, 4.0),
                          max_frames=10_000, target_bit_errors=30, master_seed=2)
        curve = run_sweep(cfg)
        out = tmp_path / "c.csv"
        emit_csv(curve, out)
        lines = out.read_text().splitlines()
        header_idx = lines.index(CSV_HEADER)
        assert any(line.startswith("# otfslab") for line in lines[:header_idx])
        assert any(line.startswith("# cfg seed = 2") for line in lines[:header_idx])
        rows = lines[header_idx + 1:]
        assert len(rows) == 2
        for row in rows:
            fields = row.split(",")
            assert len(fields) == 9
            assert fields[7] == "otfs"

    def test_round_trip_numeric_fidelity(self, tmp_path):
        cfg = SweepConfig(grid=OtfsGrid(M=2, N=2), snr_db=(0.0,),
                          max_frames=10_000, target_bit_errors=30, master_seed=2)
        curve = run_sweep(cfg)
        out = tmp_path / "c.csv"
        emit_csv(curve, out)
        row = parse_csv_rows(out)[0]
        p = curve.points[0]
        for got, want in zip(row[:5], (p.snr_db, p.ber, p.ci_low, p.ci_high,
                                       p.analytic_ber)):
            assert abs(float(got) - want) <= 1e-12 + 1e-6 * abs(want)
        assert int(row[5]) == p.bit_errors
        assert int(row[6]) == p.bits

    def test_analytic_only_rows_leave_mc_fields_empty(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        rc = main(["analytic", "--snr", "0:10:20", "--out", str(out)])
        assert rc == 0
        for row in parse_csv_rows(out):
            fields = row
            assert fields[1] == "" and fields[5] == "" and fields[6] == ""
            assert fields[4] != ""

    def test_empty_curve_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_csv([], tmp_path / "x.csv")


class TestCliCommands:
    def test_analytic_takes_no_verbose_flag(self, tmp_path, capsys):
        # the closed form prints no progress, so the flag is not accepted
        out = tmp_path / "a.csv"
        assert main(["analytic", "--verbose", "--out", str(out)]) == 2
        assert "unrecognized arguments: --verbose" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_takes_no_waveform_flag(self, tmp_path, capsys):
        # compare runs both chains, so a waveform would name neither
        out = tmp_path / "c.csv"
        assert main(["compare", "--waveform", "ofdm", "--out", str(out)]) == 2
        assert "unrecognized arguments: --waveform ofdm" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_and_manifest_reproducibility(self, tmp_path):
        out1 = tmp_path / "run1.csv"
        out2 = tmp_path / "run2.csv"
        rc = main(["sweep", "--snr", "0:4:8", "--seed", "11",
                   "--out", str(out1)] + fast_args())
        assert rc == 0
        # re-run from the emitted manifest alone
        rc = main(["sweep", "--config", str(out1), "--out", str(out2)])
        assert rc == 0
        assert parse_csv_rows(out1) == parse_csv_rows(out2)

    def test_compare_runs_both_waveforms(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--snr", "6:2:8", "--seed", "3",
                   "--out", str(out)] + fast_args())
        assert rc == 0
        waveforms = {row[7] for row in parse_csv_rows(out)}
        assert waveforms == {"otfs", "ofdm"}

    def test_compare_prints_error_counts(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--snr", "6:2:8", "--out", str(out)]
                    + fast_args()) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split(":")[0] for ln in lines] == ["otfs", "ofdm"]
        assert all(ln.endswith(" errors)") for ln in lines)

    @pytest.mark.parametrize("command", ["compare --mode simo",
                                         "sweep --mode simo --waveform ofdm"])
    def test_simo_mode_with_an_ofdm_waveform_exits_2(self, tmp_path, capsys,
                                                     command):
        # the semi-analytic route reads no waveform, so there is no OFDM
        # curve for compare to pair with the OTFS one
        cfg = tmp_path / "simo.cfg"
        cfg.write_text("scheme = qpsk\npath1 = 2,1.0\n"
                       "interferer1 = 1,0.01;2,0.005,1;3,0.002,0,1\n")
        out = tmp_path / "x.csv"
        assert main(command.split() + ["--config", str(cfg), "--out", str(out)]
                    + fast_args()) == 2
        assert ("config error: simo-semianalytic mode reads no waveform"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_figure1_preset_grid(self, tmp_path):
        out = tmp_path / "fig1.csv"
        rc = main(["figure", "1", "--out", str(out)] + fast_args())
        assert rc == 0
        rows = parse_csv_rows(out)
        snrs = sorted({float(r[0]) for r in rows})
        assert snrs == [float(s) for s in range(0, 21, 2)]
        presets = {r[8] for r in rows}
        assert presets == {"fig1-m1", "fig1-m2"}
        assert {r[7] for r in rows} == {"otfs", "ofdm"}

    def test_matched_filter_note_only_on_multipath_figures(self, tmp_path):
        texts = {}
        for number in (1, 2):
            out = tmp_path / f"fig{number}.csv"
            assert main(["figure", str(number), "--out", str(out)] + fast_args()) == 0
            texts[number] = out.read_text().splitlines()
        assert texts[2].count(f"# {cli.MATCHED_FILTER_NOTE}") == 1
        assert not any(cli.MATCHED_FILTER_NOTE in line for line in texts[1])

    def test_matched_filter_note_follows_the_config(self, tmp_path):
        note = f"# {cli.MATCHED_FILTER_NOTE}"
        paths = "path1 = 1,0.6,0\npath2 = 2,0.4,1\n"
        cases = {"siso-p2": (paths, True), "siso-p1": ("", False),
                 "simo-p2": (paths + "mode = simo-semianalytic\n", False)}
        for name, (text, labeled) in cases.items():
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            cfg.write_text("snr = 0:10:20\n" + text)
            assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
            assert (note in out.read_text().splitlines()) == labeled, name

    def test_semianalytic_note_follows_the_mode(self, tmp_path):
        # every semi-analytic manifest, with users or without, says once what
        # its route reads
        note = f"# {cli.SEMIANALYTIC_NOTE}"
        simo = "mode = simo-semianalytic\n"
        cases = {"siso": ("", 0), "simo": (simo, 1),
                 "simo-users": (simo + "interferer1 = 2,0.5\n", 1)}
        for name, (text, count) in cases.items():
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            cfg.write_text("snr = 0:10:20\n" + text)
            assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
            assert out.read_text().splitlines().count(note) == count, name

    def test_figure3_degeneracy_warning_in_manifest(self, tmp_path):
        out = tmp_path / "fig3.csv"
        rc = main(["figure", "3", "--out", str(out), "--frames-max", "20000"])
        assert rc == 0
        text = out.read_text()
        assert "warning: interference-free preset" in text
        assert "ASSUMED interferer power" in text

    @pytest.mark.parametrize("command", [
        "analytic --mode simo", "sweep --mode simo --frames-max 20000",
        "figure 3 --frames-max 20000", "figure 4 --frames-max 20000"])
    def test_interference_free_note_once(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        assert main(command.split() + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines.count(f"# {cli.INTERFERENCE_FREE_NOTE}") == 1

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["sweep", "--bogus-flag"]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid_mm = 2\n")
        assert main(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        cfg = tmp_path / "run.cfg"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "binary":
            cfg.write_bytes(b"\xff\xfe\x00grid_m = 2\n")
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "config error: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["grid_m = two", "snr = 0:x:10",
                                      "delta_f_hz = nan", "delta_f_hz = inf",
                                      "delta_f_hz = -1",
                                      "path1 = 2,1.0,0,0,0.0,junk"])
    def test_malformed_config_number_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x.csv"
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: malformed" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_target_errors_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--target-errors", "0", "--snr", "0:10:10",
                     "--out", str(out)]) == 2
        assert "config error: frame and error budgets" in capsys.readouterr().err
        assert not out.exists()

    def test_verbose_compare_prints_each_chain(self, tmp_path, capsys, monkeypatch):
        # a paired run prints the lines a sweep of each chain prints alone,
        # a batch's chains in turn, OTFS first
        monkeypatch.setattr(engine, "BATCH_FRAMES", 64)
        args = ["--snr", "20:10:20", "--target-errors", "300", "--verbose",
                "--out", str(tmp_path / "x.csv")]
        alone = []
        for w in ("otfs", "ofdm"):
            assert main(["sweep", "--waveform", w] + args) == 0
            alone.append(capsys.readouterr().err.splitlines())
        assert main(["compare"] + args) == 0
        paired = capsys.readouterr().err.splitlines()
        assert alone[0] and alone[1] and alone[0] != alone[1]
        assert paired == sorted(alone[0] + alone[1],
                                key=lambda line: int(line.split()[2]))

    def test_verbose_semianalytic_figure_prints_each_point(self, tmp_path, capsys):
        # one report per point and curve, in point order, each of 200 000 trials
        assert main(["figure", "3", "--verbose", "--out", str(tmp_path / "f3.csv")]) == 0
        err = capsys.readouterr().err.splitlines()
        per_curve = [f"  {snr:5.1f} dB: 200000 trials" for snr in range(0, 21, 2)]
        assert err == per_curve * 2

    def test_verbose_semianalytic_point_below_ten_batches_prints(self, tmp_path,
                                                                 capsys):
        # 20 000 trials per point are fewer than ten batches of frames; a
        # semi-analytic point still reports once, in trials
        assert main(["figure", "3", "--frames-max", "20000", "--verbose",
                     "--out", str(tmp_path / "f3.csv")]) == 0
        err = capsys.readouterr().err.splitlines()
        per_curve = [f"  {snr:5.1f} dB: 20000 trials" for snr in range(0, 21, 2)]
        assert err == per_curve * 2

    def test_analytic_multiuser_matches_the_oracle(self, tmp_path,
                                                  gamma_average_oracle):
        # one weak interferer: the SER lies far below the scale an absolute
        # quadrature tolerance can resolve
        cfg = tmp_path / "weak.cfg"
        cfg.write_text("mode = simo-semianalytic\nscheme = qpsk\npath1 = 2,1.0\n"
                       "interferer1 = 2,0.001\nsnr_list = 10.0,20.0\n")
        out = tmp_path / "weak.csv"
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        rows = parse_csv_rows(out)
        assert [row[4] for row in rows][-1] == "1.044289e-18"
        for row in rows:
            es_n0 = 10.0 ** (float(row[0]) / 10.0)
            # S ~ Gamma(2, omega_z) with omega_z = Es/N0 * 0.001 / 2
            omega_z = es_n0 * 0.001 / 2
            ref = 0.5 * gamma_average_oracle(es_n0 / omega_z, 2.0, 0.5, 1.0 / omega_z)
            assert row[4] == f"{ref:.6e}"

    @pytest.mark.parametrize("paths", [
        pytest.param("path1 = 1,0.5,0\npath2 = 1,0.5,1\n", id="equal-powers"),
        pytest.param("path1 = 1.5,0.6,0\npath2 = 1.5,0.4,1\n", id="m1.5"),
    ])
    def test_analytic_matches_the_oracle(self, tmp_path, craig_oracle, paths):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scheme = qpsk\nsnr = 0:10:30\n" + paths)
        out = tmp_path / "c.csv"
        assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
        specs = config_from_kv(parse_config_text(cfg.read_text())).paths
        mod = mod_params("qpsk")
        rows = parse_csv_rows(out)
        assert len(rows) == 4
        for row in rows:
            ref = craig_oracle(10.0 ** (float(row[0]) / 10.0), specs, mod)
            assert row[4] == f"{ref:.6e}"

    def test_capacity_error_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        # a delayed path with a fractional Doppler leaves one block: the joint
        # search over 4^16 candidates
        cfg.write_text("grid_m = 4\ngrid_n = 4\nscheme = qpsk\n"
                       "path1 = 1,1.0,1,0,0.3\n")
        rc = main(["sweep", "--config", str(cfg), "--snr", "0:10:10",
                   "--out", str(tmp_path / "x.csv")] + fast_args())
        assert rc == 3
        assert "capacity error" in capsys.readouterr().err

    def test_separable_4x4_qpsk_sweep_exits_0(self, tmp_path, capsys):
        # one delayed path: 4 independent blocks of 4^4 candidates
        cfg = tmp_path / "sep.cfg"
        cfg.write_text("grid_m = 4\ngrid_n = 4\nscheme = qpsk\npath1 = 1,1.0,1\n")
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--config", str(cfg), "--snr", "0:10:10",
                   "--out", str(out)] + fast_args())
        assert rc == 0
        assert len([r for r in out.read_text().splitlines()
                    if not r.startswith("#")]) == 3

    def test_diversity_subcommand_fast(self, tmp_path, capsys):
        out = tmp_path / "div.csv"
        rc = main(["diversity", "--target-errors", "200",
                   "--frames-max", "200000", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "otfs-p1-m1" in text and "otfs-p2-m12-analytic" in text
        assert f"# {cli.MATCHED_FILTER_NOTE}" in text
        assert len([r for r in out.read_text().splitlines()
                    if not r.startswith("#")]) == 5

    @pytest.mark.parametrize("command", ["diversity", "figure 1", "sweep"])
    def test_zero_frame_budget_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        assert main(command.split() + ["--frames-max", "0",
                                       "--out", str(out)]) == 2
        assert "config error: frame and error budgets" in capsys.readouterr().err
        assert not out.exists()

    def test_analytic_and_sweep_columns_agree_for_cp_ofdm(self, tmp_path):
        # one closed form for both commands, CP energy factor included
        cfg = tmp_path / "cp.cfg"
        cfg.write_text("waveform = ofdm\nofdm_chain = cp\nsnr = 0:10:20\n")
        sweep_out, analytic_out = tmp_path / "s.csv", tmp_path / "a.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(sweep_out),
                     "--frames-max", "64"]) == 0
        assert main(["analytic", "--config", str(cfg),
                     "--out", str(analytic_out)]) == 0
        swept = [row[4] for row in parse_csv_rows(sweep_out)]
        assert [row[4] for row in parse_csv_rows(analytic_out)] == swept
        assert len(swept) == 3

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_an_ofdm_chain_other_than_cp_exits_2(self, tmp_path, capsys, command):
        # OFDM is always CP-OFDM: a CP-free "shared" chain is no longer read
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("ofdm_chain = shared\n")
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]
                    + fast_args()) == 2
        err = capsys.readouterr().err
        assert "config error: unknown ofdm chain 'shared'" in err
        assert "the only chain is 'cp'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "compare", "analytic"])
    @pytest.mark.parametrize("mode_line", ["", "mode = simo-semianalytic\n"],
                             ids=["default-mode", "siso-flag"])
    def test_interferers_outside_simo_mode_exit_2(self, tmp_path, capsys, command,
                                                  mode_line):
        # only the semi-analytic route reads interferers, so the default mode,
        # or --mode siso on a multi-user config, would drop them
        cfg = tmp_path / "users.cfg"
        cfg.write_text(mode_line + "scheme = qpsk\npath1 = 2,1.0\nsnr = 10\n"
                       "interferer1 = 2,0.5\n")
        out = tmp_path / "x.csv"
        run = [command, "--config", str(cfg), "--out", str(out)]
        budget = [] if command == "analytic" else fast_args()
        siso = ["--mode", "siso"] if mode_line else []
        assert main(run + siso + budget) == 2
        assert ("config error: interferers are read only in simo-semianalytic "
                "mode, not in mode 'siso-waveform'") in capsys.readouterr().err
        assert not out.exists()
        # compare pairs an OFDM chain, which simo mode also refuses
        assert main(run + ["--mode", "simo"] + budget) == (2 if command == "compare" else 0)

    def test_manifest_with_retired_keys_reloads(self, tmp_path):
        # the retired keys set nothing, and ofdm_chain = cp is the default
        bare = OLD_COMPARE_CSV
        for line in ("delta_f_hz = 15000.0", "workers = 4", "ofdm_chain = cp"):
            bare = bare.replace(f"# cfg {line}\n", "")
        assert (config_from_kv(parse_config_text(OLD_COMPARE_CSV))
                == config_from_kv(parse_config_text(bare)))
        old, out = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text(OLD_COMPARE_CSV)
        assert main(["compare", "--config", str(old), "--frames-max", "256",
                     "--out", str(out)]) == 0
        assert parse_csv_rows(out) == parse_csv_rows(old)
        assert "delta_f_hz" not in out.read_text()

    def test_negative_delay_bin_exits_2(self, tmp_path, capsys):
        # the CP chain would roll a negative delay into a valid one
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("path1 = 1,1.0,-1\n")
        out = tmp_path / "x.csv"
        for waveform in ("ofdm", "otfs"):
            assert main(["sweep", "--config", str(cfg), "--waveform", waveform,
                         "--out", str(out)] + fast_args()) == 2
            assert "delay bin must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep --seed -1", "compare --seed -1",
                                         "analytic --seed -5", "figure 1 --seed -3",
                                         "diversity --seed -1",
                                         "sweep --mode simo --seed -1"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        assert main(command.split() + ["--out", str(out)]) == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr_list", ["-inf,0.0", "0.0,inf", "0.0,nan"])
    @pytest.mark.parametrize("command", ["sweep", "compare", "analytic"])
    def test_non_finite_snr_exits_2_before_a_draw(self, tmp_path, capsys,
                                                  monkeypatch, snr_list, command):
        def no_draw(*key):
            raise AssertionError("a batch was drawn")
        monkeypatch.setattr(engine, "make_stream", no_draw)
        cfg = tmp_path / "snr.cfg"
        cfg.write_text(f"snr_list = {snr_list}\n")
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: snr points must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_snr_range_bound_is_malformed(self):
        # at an infinite bound the start:step:stop expansion never ends; an
        # interval timer stops it within 0.2 s should it run
        def stop(signum, frame):
            raise AssertionError("the snr range expansion did not stop")
        old = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        try:
            for text in ("0:2:inf", "-inf:2:0", "0:inf:10", "0:2:nan"):
                with pytest.raises(ConfigError, match="malformed snr"):
                    config_from_kv({"snr": text})
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    @pytest.mark.parametrize("lines", [
        pytest.param("path1 = 1,1.0,4\n", id="otfs-l-MN"),
        pytest.param("waveform = ofdm\npath1 = 1,1.0,2\n", id="cp-ofdm-l-M"),
    ])
    @pytest.mark.parametrize("command", ["analytic", "sweep"])
    def test_path_the_grid_cannot_hold_exits_2(self, tmp_path, capsys, lines,
                                               command):
        # the closed form places no path on the grid, but reads the same config
        cfg = tmp_path / "far.cfg"
        cfg.write_text(lines)
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: path delay" in capsys.readouterr().err
        assert not out.exists()

    def test_path_outside_its_domain_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("path1 = 0.3,1.0\n")
        assert main(["analytic", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert ("config error: malformed path spec '0.3,1.0': Nakagami shape "
                "must be >= 0.5, got 0.3") in capsys.readouterr().err

    def test_seed_flag_is_the_seed_key(self, tmp_path):
        # the sweep's draws come from the seed, flag or key
        def rows(text, *flags):
            cfg, out = tmp_path / "s.cfg", tmp_path / "s.csv"
            cfg.write_text("snr_list = 0.0,10.0\n" + text)
            assert main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--frames-max", "256", *flags]) == 0
            return parse_csv_rows(out)
        flagged = rows("", "--seed", "5")
        assert flagged == rows("seed = 5\n")
        assert flagged != rows("seed = 6\n")

    def test_two_psk_columns_equal_bpsk(self, tmp_path):
        # 2-PSK is BPSK: the same frames and the same closed form
        columns = []
        for scheme in ("scheme = psk\norder = 2", "scheme = bpsk"):
            cfg = tmp_path / "c.cfg"
            cfg.write_text(scheme + "\nsnr = 0:10:20\n")
            out = tmp_path / "c.csv"
            assert main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--frames-max", "256"]) == 0
            columns.append(parse_csv_rows(out))
        assert columns[0] == columns[1]
        assert len(columns[0]) == 3

    def test_python_m_otfslab_reports_version(self):
        src = os.path.dirname(os.path.dirname(otfslab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        res = subprocess.run([sys.executable, "-m", "otfslab", "--version"],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert res.returncode == 0
        assert res.stdout.strip() == otfslab.__version__
