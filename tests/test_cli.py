"""Command-line surface: subcommands, exit codes, CSV format, reproducibility."""

import math
import os
import subprocess
import sys

import pytest

import otfslab
from otfslab import cli
from otfslab.cli import (CSV_HEADER, config_from_kv, config_to_kv, emit_csv,
                         main, parse_config_text, parse_csv_rows)
from otfslab.engine import SweepConfig, run_sweep
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
                          snr_db=(0.0, 10.0), master_seed=77,
                          interferers=((PathSpec(m=2, omega=0.015),),))
        back = config_from_kv(parse_config_text(
            "\n".join(f"{k} = {v}" for k, v in config_to_kv(cfg).items())))
        assert back == cfg

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("grid_m = 2\nsnr_pionts = 0:2:20\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_comments_ignored(self):
        kv = parse_config_text("# a comment\nseed = 3\n\n")
        assert kv == {"seed": "3"}

    def test_snr_range_expansion(self):
        cfg = config_from_kv({"snr": "0:2:6"})
        assert cfg.snr_db == (0.0, 2.0, 4.0, 6.0)


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

    def test_figure3_degeneracy_warning_in_manifest(self, tmp_path):
        out = tmp_path / "fig3.csv"
        rc = main(["figure", "3", "--out", str(out), "--frames-max", "20000"])
        assert rc == 0
        text = out.read_text()
        assert "warning: interference-free preset" in text
        assert "ASSUMED interferer power" in text

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["sweep", "--bogus-flag"]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid_mm = 2\n")
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_degenerate_scales_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("scheme = qpsk\npath1 = 1,0.5,0\npath2 = 1,0.5,1\n")
        rc = main(["analytic", "--config", str(cfg), "--snr", "0:10:10",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "scales" in capsys.readouterr().err

    def test_capacity_error_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("grid_m = 4\ngrid_n = 4\nscheme = qpsk\n")
        rc = main(["sweep", "--config", str(cfg), "--snr", "0:10:10",
                   "--out", str(tmp_path / "x.csv")] + fast_args())
        assert rc == 3

    def test_diversity_subcommand_fast(self, tmp_path, capsys):
        out = tmp_path / "div.csv"
        rc = main(["diversity", "--target-errors", "200",
                   "--frames-max", "200000", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "otfs-p1-m1" in text and "otfs-p2-m12-analytic" in text
        assert f"# {cli.MATCHED_FILTER_NOTE}" in text
        assert out.read_text().count("\n") == 5

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

    def test_python_m_otfslab_reports_version(self):
        src = os.path.dirname(os.path.dirname(otfslab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        res = subprocess.run([sys.executable, "-m", "otfslab", "--version"],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert res.returncode == 0
        assert res.stdout.strip() == otfslab.__version__
