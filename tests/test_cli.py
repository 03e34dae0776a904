"""Tests for the command-line front end and committed configs."""
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imddsim.adaptive import GARDNER_MIN_SYMBOLS
from imddsim.cli import (
    FORMATS,
    PAYLOAD_ORDERS,
    SWEEP_PARAMETERS,
    ConfigError,
    _loading_rows,
    _write_csv,
    build_experiment,
    list_presets,
    main,
    parse_config,
    point_configs,
)
from imddsim.dmt import DmtConfig
from imddsim.evaluate import DmtExperiment, PamExperiment, latency_budget
from imddsim.link import CHANNEL_PRESETS, make_channel
from imddsim.sigproc import DEBRUIJN_LENGTH_CAP

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HARDWARE_PRESETS = [p for p in CHANNEL_PRESETS if make_channel(p).hardware]


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

    def test_sweep_blocks_is_unknown(self, tmp_path):
        text = PAPER_DMT + "\n[sweep]\nparameter = channel.voa_db\nvalues = 1, 2\nblocks = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert err.value.errors == ["sweep.blocks: unknown key"]

    @pytest.mark.parametrize(
        "text",
        [PAPER_DMT.replace("preset = paper_b2b", "preset = paper_b2b\nsnr_db = 5"),
         PAPER_DMT + "\n[sweep]\nparameter = channel.snr_db\nvalues = 5\n"],
        ids=["fixed", "swept"],
    )
    def test_snr_needs_awgn_only(self, tmp_path, text):
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith("channel.snr_db: preset 'paper_b2b'")

    @pytest.mark.parametrize(
        "preset, override",
        [("ideal", None), ("awgn_only", None), ("paper_b2b", "ideal")],
        ids=["ideal", "awgn_only", "override"],
    )
    def test_tx_taps_sweep_needs_the_hardware(self, tmp_path, capsys, preset, override):
        # a link without the driver stages installs no pre-emphasis: every
        # point of the sweep would give the same row
        text = (f"[experiment]\nformat = nyquist_pam4\n\n[channel]\npreset = {preset}\n"
                "\n[sweep]\nparameter = pam.tx_taps\nvalues = 5, 11\n")
        path = write_cfg(tmp_path, text)
        flags = ["--preset", override] if override else []
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), *flags]) == 1
        assert capsys.readouterr().err == (
            f"config error: pam.tx_taps: preset {override or preset!r} has no transmitter "
            "hardware to pre-compensate; a tx_taps sweep applies only to the paper_* presets\n")
        assert not (tmp_path / "out").exists()
        # a fixed tap count there is accepted, and so is the sweep on the hardware
        fixed = text.replace("\n[sweep]\nparameter = pam.tx_taps\nvalues = 5, 11\n",
                             "\n[pam]\ntx_taps = 5\n")
        parse_config(write_cfg(tmp_path, fixed, "fixed.cfg"), {"preset": override or preset})
        for hardware in HARDWARE_PRESETS:
            parse_config(path, {"preset": hardware})

    @pytest.mark.parametrize(
        "fmt, key, values",
        [("nyquist_pam4", "pam.rx_taps", "4, 5"),
         ("nyquist_pam4", "pam.tx_taps", "5.5"),
         ("dmt", "dmt.fft_length", "300"),
         ("pr_pam4", "pam.mlse_memory", "0, 1"),
         ("nyquist_pam4", "pam.mlse_memory", "-1, 1"),
         ("nyquist_pam4", "pam.mlse_memory", "7, 1"),
         ("nyquist_pam4", "pam.rx_taps", "65537, 41"),
         ("nyquist_pam4", "pam.rx_taps", "1025, 41"),
         ("nyquist_pam4", "pam.tx_taps", "9831, 11"),
         ("dmt", "dmt.clipping_ratio_db", "nan"),
         ("dmt", "dmt.clipping_ratio_db", "inf, 10"),
         ("dmt", "channel.voa_db", "-1, 2")],
    )
    def test_bad_swept_value_is_the_fixed_config_error(self, tmp_path, capsys, fmt, key, values):
        base = f"[experiment]\nformat = {fmt}\n\n[channel]\npreset = paper_b2b\n"
        section, name = key.split(".")
        swept = write_cfg(tmp_path, base + f"\n[sweep]\nparameter = {key}\nvalues = {values}\n")
        line = f"{name} = {values.split(',')[0]}\n"
        fixed_text = base + (line if section == "channel" else f"\n[{section}]\n{line}")
        fixed = write_cfg(tmp_path, fixed_text, "fixed.cfg")
        with pytest.raises(ConfigError) as err:
            parse_config(swept)
        with pytest.raises(ConfigError) as fixed_err:
            parse_config(fixed)
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith(f"{key}: ")
        assert err.value.errors == fixed_err.value.errors
        assert main(["--config", str(swept), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, line",
        [("experiment", "seed = -3"),
         ("pam", "payload_order = 0"),
         ("pam", "payload_order = 4"),
         ("pam", "payload_order = 13"),
         ("pam", "mlse_memory = -1"),
         ("dmt", "frames = 0"),
         ("dmt", "training_symbols = 0"),
         ("dmt", "data_symbols = 0"),
         ("dmt", "cp_fraction = -1/64"),
         ("experiment", "bit_rate = 0"),
         ("experiment", "bit_rate = -112e9"),
         ("experiment", "bit_rate = nan"),
         ("experiment", "bit_rate = inf"),
         ("channel", "voa_db = nan"),
         ("channel", "voa_db = inf"),
         ("channel", "voa_db = -30"),
         ("dmt", "clipping_ratio_db = nan"),
         ("dmt", "clipping_ratio_db = inf")],
    )
    def test_out_of_range_value_rejected(self, tmp_path, capsys, section, line):
        key = f"{section}.{line.split(' = ')[0]}"
        text = f"[experiment]\nformat = {'nyquist_pam4' if section == 'pam' else 'dmt'}\n"
        text += f"{line}\n" if section == "experiment" else f"\n[{section}]\n{line}\n"
        path = write_cfg(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {key}: must be " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "lines, key, bound",
        [("payload_order = 5\nrx_taps = 4097", "pam.rx_taps", 1024),
         # the first odd length over the fit's bound of 1,023 (1,024 is even)
         ("payload_order = 8\nrx_taps = 1025", "pam.rx_taps", 1023),
         ("payload_order = 6\ntx_taps = 1025", "pam.tx_taps", 1023)],
        ids=["rx_taps_over_the_block", "rx_taps_over_the_fit", "tx_taps_over_the_fit"],
    )
    def test_ffe_over_its_bound_rejected(self, tmp_path, capsys, lines, key, bound):
        text = f"[experiment]\nformat = nyquist_pam4\n\n[pam]\n{lines}\n"
        path = write_cfg(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {key}: must be <= {bound}, " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # the longest FFE of each kind is a valid config
        longest = {"pam.rx_taps": "rx_taps = 1023", "pam.tx_taps": "tx_taps = 1023"}[key]
        parse_config(write_cfg(tmp_path, text.replace(lines.split("\n")[1], longest)))

    @pytest.mark.parametrize("order, memory", [(8, 12), (8, 7), (12, 3)])
    def test_mlse_table_over_its_bound_rejected(self, tmp_path, capsys, order, memory):
        text = (f"[experiment]\nformat = nyquist_pam4\n\n[pam]\npayload_order = {order}\n"
                f"mlse_memory = {memory}\n")
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.errors == [
            f"pam.mlse_memory: must be <= {14 - order} at payload_order {order}, whose Viterbi "
            f"table must fit in 268435456 bytes, got {memory}"]
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {err.value.errors[0]}\n"
        assert not (tmp_path / "out").exists()
        # the largest memory at that order parses, and so does a PR receiver's
        # 4-state trellis at any memory
        largest = text.replace(f"mlse_memory = {memory}", f"mlse_memory = {14 - order}")
        assert parse_config(write_cfg(tmp_path, largest, "largest.cfg")).mlse_memory == 14 - order
        pr = text.replace("nyquist_pam4", "pr_pam4")
        assert parse_config(write_cfg(tmp_path, pr, "pr.cfg")).mlse_memory == memory

    @pytest.mark.parametrize(
        "fmt, key, values",
        [("dmt", "pam.rx_taps", "5, 41"),
         ("dmt", "pam.mlse_memory", "0, 1"),
         ("nyquist_pam4", "dmt.fft_length", "256, 512"),
         ("pr_pam4", "dmt.clipping_ratio_db", "4, 10")],
    )
    def test_sweep_of_a_key_the_format_never_reads(self, tmp_path, capsys, fmt, key, values):
        text = (f"[experiment]\nformat = {fmt}\n\n[channel]\npreset = paper_b2b\n\n"
                f"[dmt]\nfft_length = 256\nframes = 1\n\n"
                f"[sweep]\nparameter = {key}\nvalues = {values}\n")
        if key == "dmt.fft_length":
            text = text.replace("fft_length = 256\n", "")
        path = write_cfg(tmp_path, text)
        message = (f"sweep.parameter: format {fmt!r} does not read {key}, "
                   "so every point would give the same row")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.errors == [message]
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cp_fraction, sweep, fft_length",
        [("1/7", "", 512),
         # 1/256 of 512 is 2 samples, of 128 half a sample
         ("1/256", "\n[sweep]\nparameter = dmt.fft_length\nvalues = 512, 128\n", 128)],
        ids=["fixed", "swept"],
    )
    def test_prefix_off_the_sample_grid_rejected(self, tmp_path, capsys, cp_fraction, sweep,
                                                 fft_length):
        text = f"[experiment]\nformat = dmt\n\n[dmt]\ncp_fraction = {cp_fraction}\n{sweep}"
        path = write_cfg(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"config error: dmt.cp_fraction: {cp_fraction} of fft_length {fft_length} "
            "is not a whole number of samples\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fmt", ["nyquist_pam4", "pr_pam4"])
    def test_pam_runs_only_at_the_converters_bit_rate(self, tmp_path, capsys, fmt):
        # 56 GBd PAM4 is 112 Gb/s; any other rate would model another DAC
        text = f"[experiment]\nformat = {fmt}\nbit_rate = 100e9\n"
        path = write_cfg(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"config error: experiment.bit_rate: must be 112e9 for {fmt}, 2 bits per symbol "
            "at the converter's 56 GBd, got 100e9\n")
        assert not (tmp_path / "out").exists()

    def test_dmt_runs_at_another_bit_rate(self, tmp_path):
        # DMT loads its carriers for any net rate at the fixed converter rate
        text = ("[experiment]\nformat = dmt\nbit_rate = 100e9\n\n[dmt]\n"
                "fft_length = 256\nframes = 1\n")
        out = tmp_path / "out"
        assert main(["--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
        assert "bit rate: 100 Gb/s" in (out / "summary.txt").read_text()

    def test_payload_orders_follow_clock_recovery_and_the_sequence_cap(self):
        # the least order whose 4**order symbols clock recovery accepts, up to
        # the longest de Bruijn sequence generated
        first, last = PAYLOAD_ORDERS[0], PAYLOAD_ORDERS[-1]
        assert 4 ** (first - 1) < GARDNER_MIN_SYMBOLS <= 4**first
        assert 4**last == DEBRUIJN_LENGTH_CAP
        assert (first, last) == (5, 12)

    @pytest.mark.parametrize("order", [5, 12])
    def test_payload_order_bounds_accepted(self, tmp_path, order):
        text = f"[experiment]\nformat = nyquist_pam4\n\n[pam]\npayload_order = {order}\n"
        assert parse_config(write_cfg(tmp_path, text)).payload_order == order

    def test_seed_override_checked_like_the_file(self, tmp_path, capsys):
        path = write_cfg(tmp_path, PAPER_DMT)
        assert main(["--config", str(path), "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
        assert "config error: experiment.seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("value", ["5%", "%(x)s"])
    def test_percent_is_a_plain_character(self, tmp_path, capsys, value):
        path = write_cfg(tmp_path, PAPER_DMT.replace("seed = 3", f"seed = {value}"))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.errors == [
            f"experiment.seed: invalid literal for int() with base 10: '{value}'"
        ]
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "config error: experiment.seed: " in capsys.readouterr().err


ODD_TAPS = st.integers(0, 30).map(lambda k: 2 * k + 1)
DECIBELS = st.one_of(st.integers(-3, 30), st.floats(-3.0, 30.0).map(lambda v: round(v, 3)))
# an attenuation: a negative VOA is a config error
VOA_DB = st.one_of(st.integers(0, 30), st.floats(0.0, 30.0).map(lambda v: round(v, 3)))
SWEEP_VALUES = {
    "channel.voa_db": VOA_DB,
    "channel.snr_db": DECIBELS,
    "pam.rx_taps": ODD_TAPS,
    "pam.tx_taps": ODD_TAPS,
    "pam.mlse_memory": st.integers(0, 4),
    "dmt.clipping_ratio_db": DECIBELS,
    # from 64 up, so the default 1/64 prefix is a whole number of samples
    "dmt.fft_length": st.sampled_from([2**k for k in range(6, 13)]),
}


class TestPointConfigs:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_point_is_the_config_with_the_key_fixed(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("points")
        for key in SWEEP_PARAMETERS:
            section, name = key.split(".")
            formats = {"dmt": ["dmt"], "pam": ["nyquist_pam4", "pr_pam4"]}.get(section, FORMATS)
            fmt = data.draw(st.sampled_from(formats))
            presets = {"channel.snr_db": ["awgn_only"],
                       "pam.tx_taps": HARDWARE_PRESETS}.get(key, CHANNEL_PRESETS)
            preset = data.draw(st.sampled_from(presets))
            strategy = SWEEP_VALUES[key]
            if fmt == "pr_pam4" and key == "pam.mlse_memory":
                strategy = st.integers(1, 4)
            values = data.draw(st.lists(strategy, min_size=1, max_size=3))

            base = f"[experiment]\nformat = {fmt}\nseed = 4\n\n[channel]\npreset = {preset}\n"
            sweep = f"\n[sweep]\nparameter = {key}\nvalues = {', '.join(map(str, values))}\n"
            points = point_configs(parse_config(write_cfg(directory, base + sweep)))
            # labels keep the number type written in the file, so 0 prints as 0
            assert [labels for labels, _ in points] == [(v,) for v in values]
            assert [type(labels[0]) for labels, _ in points] == [type(v) for v in values]
            for value, (_, point) in zip(values, points):
                line = f"{name} = {value}\n"
                fixed = base + (line if section == "channel" else f"\n[{section}]\n{line}")
                fixed_cfg = parse_config(write_cfg(directory, fixed, "fixed.cfg"))
                assert point == fixed_cfg
                assert repr(point) == repr(fixed_cfg)  # also tells 3 from 3.0

    def test_no_sweep_is_one_point_labelled_by_voa(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, PAPER_DMT.replace("paper_b2b", "paper_b2b\nvoa_db = 3")))
        assert point_configs(cfg) == [((3.0,), cfg)]


class TestCommittedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_all_committed_configs_parse_and_build(self, path):
        cfg = parse_config(path)
        experiment = build_experiment(cfg)
        if cfg.format == "dmt":
            assert isinstance(experiment, DmtExperiment)
        else:
            assert isinstance(experiment, PamExperiment)
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
        assert (out / "latency.txt").is_file()
        summary = (out / "summary.txt").read_text()
        assert "format: dmt" in summary and "rop" in summary
        # the VOA is swept, so the header names no one VOA
        assert summary.splitlines()[2] == "channel preset: paper_b2b"
        # the loading table is the first point's (VOA 2 dB), not the base VOA's
        first = build_experiment(point_configs(parse_config(cfg_path))[0][1])
        _write_csv(tmp_path / "first_point.csv", _loading_rows(first.loading()))
        assert (out / "loading_table.csv").read_bytes() == (tmp_path / "first_point.csv").read_bytes()

    def test_pam_tapgrid_artifacts(self, tmp_path):
        text = """
[experiment]
format = nyquist_pam4
seed = 2

[channel]
preset = paper_b2b

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
        # the first point's 5 pre-emphasis taps, not the base config's 11
        taps = (tmp_path / "out" / "taps.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in taps[1:]] == ["-2", "-1", "0", "1", "2"]

    def test_pam_without_hardware_writes_no_taps(self, tmp_path):
        # a flat link has no driver to pre-compensate: no taps, no taps.csv
        text = ("[experiment]\nformat = nyquist_pam4\n\n[channel]\npreset = ideal\n"
                "\n[pam]\npayload_order = 6\ntx_taps = 11\nmlse_memory = none\n")
        out = tmp_path / "out"
        assert main(["--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
        assert (out / "ber_vs_rop.csv").exists()
        assert not (out / "taps.csv").exists()

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
        assert (out / "summary.txt").read_text().splitlines()[2] == (
            "channel preset: paper_b2b (voa 0 dB)")
        pam_text = """
[experiment]
format = nyquist_pam4
seed = 1

[channel]
preset = paper_b2b

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

    def test_preset_override_meets_the_snr_check(self, tmp_path, capsys):
        text = PAPER_DMT.replace("preset = paper_b2b", "preset = awgn_only\nsnr_db = 18")
        cfg_path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text.replace("awgn_only", "paper_b2b"), "b2b.cfg"))
        assert main(["--config", str(cfg_path), "--preset", "paper_b2b"]) == 1
        assert capsys.readouterr().err == f"config error: {err.value.errors[0]}\n"

    def test_latency_describes_the_first_point(self, tmp_path):
        text = PAPER_DMT.replace("fft_length = 512\n", "").replace(
            "clipping_ratio_db = 15", "clipping_ratio_db = 10\nframes = 1"
        ) + "\n[sweep]\nparameter = dmt.fft_length\nvalues = 256, 1024\n"
        out = tmp_path / "out"
        assert main(["--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
        first = DmtExperiment(cfg=DmtConfig(fft_length=256), channel=make_channel("paper_b2b"))
        budget = latency_budget(first).summary()
        assert (out / "latency.txt").read_text() == budget + "\n"
        assert (out / "summary.txt").read_text().endswith("\n" + budget + "\n")

    def test_pipeline_failure_exit_code(self, tmp_path, capsys):
        # infeasible loading at extreme attenuation is a pipeline failure
        text = PAPER_DMT.replace("preset = paper_b2b", "preset = paper_20km\nvoa_db = 40")
        text = text.replace("clipping_ratio_db = 15", "clipping_ratio_db = 10\nframes = 1")
        cfg_path = write_cfg(tmp_path, text)
        rc = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "point (40.0,)" in err and "Error" in err

    def test_failed_point_reads_the_same_at_any_jobs(self, tmp_path, capsys):
        # the second point's loading is infeasible; the workers and the
        # serial loop give the same artifacts, and the CLI the same label
        text = PAPER_DMT.replace("preset = paper_b2b", "preset = paper_20km").replace(
            "clipping_ratio_db = 15", "clipping_ratio_db = 10\nframes = 1"
        ) + "\n[sweep]\nparameter = channel.voa_db\nvalues = 0, 40\n"
        cfg_path = write_cfg(tmp_path, text)
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["--config", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 2
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((files, capsys.readouterr().err))
        assert runs[0] == runs[1]
        files, err = runs[0]
        assert sorted(files) == ["ber_vs_rop.csv", "latency.txt", "loading_table.csv",
                                 "summary.txt"]
        rows = files["ber_vs_rop.csv"].decode().splitlines()
        assert rows[1].endswith(",") and rows[2].startswith("40,")
        assert err.startswith("point (40,): ") and err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        cfg_path = write_cfg(tmp_path, PAPER_DMT)
        assert main(["--config", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    def test_failed_loading_probes_once(self, tmp_path, capsys, monkeypatch):
        # four blocks and the loading-table note share the point's one probe
        from imddsim import dmt
        from imddsim.evaluate import _dmt_loading

        calls = []
        estimate_snr = dmt.estimate_snr

        def counted(*args, **kwargs):
            calls.append(1)
            return estimate_snr(*args, **kwargs)

        monkeypatch.setattr(dmt, "estimate_snr", counted)
        _dmt_loading.cache_clear()
        text = PAPER_DMT.replace("bit_rate = 112e9", "bit_rate = 400e9").replace(
            "seed = 3", "seed = 3\nblocks = 4")
        out = tmp_path / "out"
        assert main(["--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 2
        assert len(calls) == 1
        row = (out / "ber_vs_rop.csv").read_text().splitlines()[1]
        assert row.endswith(",,LoadingError: target 2557 bits/symbol infeasible, achievable 1012")
        err = capsys.readouterr().err
        assert err.count("LoadingError: target 2557") == 2

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
