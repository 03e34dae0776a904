"""Tests for the command-line front end and committed configs."""
from pathlib import Path

import pytest

from imddsim.cli import (
    ConfigError,
    build_experiment,
    list_presets,
    main,
    parse_config,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, text, name="test.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


PAPER_DMT = """
[experiment]
format = dmt
bit_rate = 112e9
seed = 3

[channel]
preset = paper_b2b

[dmt]
fft_length = 512
cp_fraction = 1/64
data_symbols = 124
training_symbols = 4
clipping_ratio_db = 15
"""


class TestParseConfig:
    def test_paper_default_dmt_echoes_table_values(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, PAPER_DMT))
        assert cfg.format == "dmt"
        assert cfg.fft_length == 512
        assert str(cfg.cp_fraction) == "1/64"
        assert cfg.data_symbols == 124
        assert cfg.training_symbols == 4
        assert cfg.dmt_clipping_ratio_db == 15.0
        assert cfg.bit_rate == 112e9

    def test_non_power_of_two_fft_rejected(self, tmp_path):
        bad = PAPER_DMT.replace("fft_length = 512", "fft_length = 500")
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, bad))
        assert any("fft_length" in e for e in err.value.errors)

    def test_sweep_and_fixed_conflict_names_both_paths(self, tmp_path):
        text = PAPER_DMT + "\n[sweep]\nparameter = dmt.clipping_ratio_db\nvalues = 8, 12\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        message = " ".join(err.value.errors)
        assert message.count("dmt.clipping_ratio_db") >= 2

    def test_unknown_keys_rejected_with_paths(self, tmp_path):
        text = PAPER_DMT + "clipping = 3\n\n[bogus]\nx = 1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        joined = " ".join(err.value.errors)
        assert "dmt.clipping: unknown key" in joined
        assert "bogus: unknown section" in joined

    def test_all_errors_collected(self, tmp_path):
        text = """
[experiment]
format = qam
[channel]
preset = paper_9km
[dmt]
fft_length = 300
"""
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert len(err.value.errors) >= 3

    def test_unknown_preset_names_nearest(self, tmp_path):
        text = PAPER_DMT.replace("preset = paper_b2b", "preset = paper_10k")
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert any("paper_10km" in e for e in err.value.errors)

    def test_round_trip(self, tmp_path):
        for name in ("fig10a.cfg", "fig12d.cfg", "fig15b.cfg"):
            cfg = parse_config(CONFIGS / name)
            again = parse_config(write_cfg(tmp_path, cfg.to_ini(), name))
            assert again == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")


class TestCommittedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_all_committed_configs_parse_and_build(self, path):
        cfg = parse_config(path)
        experiment = build_experiment(cfg)
        assert experiment.format_name == cfg.format


class TestPresetCatalog:
    def test_catalog_contents(self):
        text = list_presets()
        assert "paper_10km" in text and "10 km x 0.32 dB/km" in text
        assert "ideal" in text and "all stages flat" in text

    def test_list_presets_flag(self, capsys):
        assert main(["--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "paper_20km" in out


class TestRun:
    def test_dmt_run_artifacts(self, tmp_path):
        text = PAPER_DMT.replace("clipping_ratio_db = 15", "clipping_ratio_db = 10") + (
            "frames = 1\n\n[sweep]\nparameter = channel.voa_db\nvalues = 2, 3\n"
        )
        cfg_path = write_cfg(tmp_path, text)
        rc = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = tmp_path / "out"
        assert (out / "ber_vs_rop.csv").is_file()
        assert (out / "loading_table.csv").is_file()
        assert (out / "latency.txt").is_file()
        summary = (out / "summary.txt").read_text()
        assert "format: dmt" in summary and "rop" in summary

    def test_pam_tapgrid_artifacts(self, tmp_path):
        text = """
[experiment]
format = nyquist_pam4
seed = 2

[channel]
preset = awgn_only
snr_db = 18

[pam]
payload_order = 6
mlse_memory = none

[sweep]
parameter = pam.tx_taps
values = 5, 11
parameter2 = pam.rx_taps
values2 = 5, 11
"""
        cfg_path = write_cfg(tmp_path, text)
        rc = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        grid = (tmp_path / "out" / "sweep_grid.csv").read_text().splitlines()
        assert grid[0].startswith("pam_tx_taps,pam_rx_taps")
        assert len(grid) == 5
        assert (tmp_path / "out" / "taps.csv").is_file()

    def test_byte_identical_reruns(self, tmp_path):
        text = """
[experiment]
format = pr_pam4
seed = 5

[channel]
preset = paper_b2b
voa_db = 2

[pam]
tx_taps = 11
rx_taps = 21
mlse_memory = 1
payload_order = 7
"""
        cfg_path = write_cfg(tmp_path, text)
        blobs = []
        for run_dir in ("a", "b"):
            assert main(["--config", str(cfg_path), "--out", str(tmp_path / run_dir)]) == 0
            blobs.append(
                {
                    name: (tmp_path / run_dir / name).read_bytes()
                    for name in ("ber_vs_rop.csv", "summary.txt", "latency.txt", "taps.csv")
                }
            )
        assert blobs[0] == blobs[1]

    def test_golden_artifact_headers(self, tmp_path):
        # column headers are a stable interface
        text = PAPER_DMT.replace("clipping_ratio_db = 15", "clipping_ratio_db = 10") + "frames = 1\n"
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "ber_vs_rop.csv").read_text().splitlines()[0] == (
            "voa_db,rop_dbm,bit_errors,bits_total,ber,kp4_pass,cibch_pass,"
            "wilson_low,wilson_high,error"
        )
        assert (out / "loading_table.csv").read_text().splitlines()[0] == "carrier,bits,power_db"
        assert (out / "latency.txt").read_text().startswith("latency budget (best / worst):")
        pam_text = """
[experiment]
format = nyquist_pam4
seed = 1

[channel]
preset = ideal

[pam]
payload_order = 6
mlse_memory = none
"""
        pam_path = write_cfg(tmp_path, pam_text, "pam.cfg")
        out2 = tmp_path / "out2"
        assert main(["--config", str(pam_path), "--out", str(out2)]) == 0
        assert (out2 / "taps.csv").read_text().splitlines()[0] == "index,coefficient"

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, PAPER_DMT.replace("512", "500"))
        assert main(["--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_flag(self, capsys):
        assert main([]) == 1

    def test_preset_override(self, tmp_path):
        cfg_path = write_cfg(tmp_path, PAPER_DMT)
        assert main(["--config", str(cfg_path), "--preset", "paper_99km"]) == 1

    def test_pipeline_failure_exit_code(self, tmp_path, capsys):
        # infeasible loading at extreme attenuation is a pipeline failure
        text = PAPER_DMT.replace("preset = paper_b2b", "preset = paper_20km\nvoa_db = 40")
        text = text.replace("clipping_ratio_db = 15", "clipping_ratio_db = 10\nframes = 1")
        cfg_path = write_cfg(tmp_path, text)
        rc = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "point (40.0,)" in err and "Error" in err

    def test_infeasible_loading_skips_loading_table_with_note(self, tmp_path, capsys):
        text = PAPER_DMT.replace("bit_rate = 112e9", "bit_rate = 400e9")
        text = text.replace("clipping_ratio_db = 15", "clipping_ratio_db = 10\nframes = 1")
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out)]) == 2
        assert (out / "ber_vs_rop.csv").is_file()
        assert not (out / "loading_table.csv").exists()
        err = capsys.readouterr().err
        assert "note: no loading_table.csv (LoadingError: target" in err
