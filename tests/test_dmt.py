"""Tests for the DMT modem, loading algorithms and SNR estimation."""
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imddsim.dmt import (
    SNR_CEILING_DB,
    DmtConfig,
    LoadingError,
    LoadingTable,
    SnrProfile,
    SyncError,
    chow_bit_loading,
    cioffi_power_loading,
    constellation,
    dmt_demodulate,
    dmt_modulate,
    estimate_snr,
    make_probe_frame,
    rate_to_bits,
    training_symbols,
    bits_to_symbol_indices,
    symbol_indices_to_bits,
    _hermitian_time_symbols,
)
from imddsim.cli import _loading_rows, _write_csv
from imddsim.link import ChannelModel, FilterStage, NoiseSpec, apply_channel, apply_stages, make_channel
from imddsim.sigproc import SampleBuffer


@pytest.fixture(scope="module")
def cfg():
    return DmtConfig()


@pytest.fixture(scope="module")
def flat_snr():
    return SnrProfile(np.full(255, 30.0))


def make_bits(loading, cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=cfg.data_symbols_per_frame * loading.total_bits)


class TestConfig:
    def test_table_one_values(self, cfg):
        assert cfg.fft_length == 512
        assert cfg.cp_length == 8
        assert cfg.symbol_length == 520
        assert cfg.frame_symbols == 128
        assert cfg.usable_carriers == 255
        assert cfg.max_loaded_carriers == 242

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            DmtConfig(fft_length=500)
        with pytest.raises(ValueError):
            DmtConfig(cp_fraction=Fraction(1, 7))
        with pytest.raises(ValueError):
            DmtConfig(cp_fraction=Fraction(-1, 64))

    def test_scaled_fft_lengths(self):
        for n in (256, 1024, 2048):
            c = DmtConfig(fft_length=n)
            assert c.usable_carriers == n // 2 - 1
            assert c.max_loaded_carriers == n * 242 // 512


class TestSymbolBits:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), width=st.integers(1, 6))
    def test_indices_bits_round_trip(self, data, width):
        values = data.draw(st.lists(st.integers(0, 2**width - 1), max_size=50))
        indices = np.array(values, dtype=np.int64)
        bits = symbol_indices_to_bits(indices, width)
        # most significant bit first
        assert "".join(map(str, bits)) == "".join(f"{v:0{width}b}" for v in values)
        np.testing.assert_array_equal(bits_to_symbol_indices(bits, width), indices)


class TestRateArithmetic:
    def test_112g(self, cfg):
        assert rate_to_bits(cfg) == 716

    def test_56g(self, cfg):
        assert rate_to_bits(replace(cfg, target_bit_rate=56e9)) == 358

    def test_zero(self, cfg):
        assert rate_to_bits(replace(cfg, target_bit_rate=0.0)) == 0


class TestConstellations:
    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5, 6])
    def test_size_and_unit_power(self, b):
        points = constellation(b)
        assert points.size == 2**b
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0)
        assert np.unique(np.round(points, 9)).size == 2**b


class TestChowLoading:
    def test_flat_profile_uniform_bits(self, cfg, flat_snr):
        loading = chow_bit_loading(flat_snr, 484, cfg.max_loaded_carriers)
        active = loading.bits[: cfg.max_loaded_carriers]
        assert loading.total_bits == 484
        assert set(np.unique(active)) <= {2} or np.ptp(active) <= 1

    def test_hits_target_exactly(self, cfg, flat_snr):
        for target in (716, 358, 100, 1):
            assert chow_bit_loading(flat_snr, target, cfg.max_loaded_carriers).total_bits == target

    def test_infeasible_reports_achievable(self, cfg):
        snr = SnrProfile(np.full(255, -20.0))
        with pytest.raises(LoadingError) as err:
            chow_bit_loading(snr, 716, cfg.max_loaded_carriers)
        assert err.value.achievable < 716

    def test_monotone_in_snr(self, cfg):
        rng = np.random.default_rng(3)
        for trial in range(5):
            snr = SnrProfile(rng.uniform(5, 35, 255))
            loading = chow_bit_loading(snr, 500, cfg.max_loaded_carriers)
            s = snr.snr_db[: cfg.max_loaded_carriers]
            b = loading.bits[: cfg.max_loaded_carriers]
            ii, jj = np.meshgrid(np.arange(s.size), np.arange(s.size), indexing="ij")
            stronger = s[ii] >= s[jj] + 6.0
            assert np.all(b[ii][stronger] >= b[jj][stronger])

    def test_carriers_beyond_limit_stay_empty(self, cfg, flat_snr):
        loading = chow_bit_loading(flat_snr, 716, cfg.max_loaded_carriers)
        assert np.all(loading.bits[cfg.max_loaded_carriers :] == 0)

    @settings(max_examples=40, deadline=None)
    @given(snr_db=st.lists(st.floats(-15.0, 60.0), min_size=1, max_size=40), data=st.data())
    def test_every_reachable_target_is_hit_exactly(self, snr_db, data):
        max_loaded = data.draw(st.integers(1, len(snr_db)))
        snr = SnrProfile(snr_db)
        # the most bits the carriers carry at the -12 dB margin floor
        gap, floor = 10.0 ** 0.98, 10.0 ** -1.2
        snr_lin = 10.0 ** (np.asarray(snr_db[:max_loaded]) / 10.0)
        maximum = int(np.clip(np.rint(np.log2(1.0 + snr_lin / (gap * floor))), 0, 6).sum())
        for target in range(1, maximum + 1):
            bits = chow_bit_loading(snr, target, max_loaded).bits
            assert bits.sum() == target
            assert bits.min() >= 0 and bits.max() <= 6
            assert not bits[max_loaded:].any()
        with pytest.raises(LoadingError) as err:
            chow_bit_loading(snr, maximum + 1, max_loaded)
        assert err.value.achievable == maximum


class TestCioffiLoading:
    def test_uniform_case(self, cfg, flat_snr):
        loading = cioffi_power_loading(chow_bit_loading(flat_snr, 484, cfg.max_loaded_carriers), flat_snr)
        active = loading.power[loading.bits > 0]
        assert np.ptp(active) / np.mean(active) < 1e-9

    def test_total_power_preserved(self, cfg):
        rng = np.random.default_rng(1)
        snr = SnrProfile(rng.uniform(12, 35, 255))
        before = chow_bit_loading(snr, 600, cfg.max_loaded_carriers)
        after = cioffi_power_loading(before, snr)
        assert after.power.sum() == pytest.approx(before.power.sum(), abs=1e-9)

    def test_two_carrier_equal_margin_oracle(self):
        # both 16-QAM at 20 and 14 dB: power ratio 4:1 toward the weak one
        snr = SnrProfile(np.array([20.0, 14.0]))
        loading = cioffi_power_loading(LoadingTable([4, 4], [1.0, 1.0]), snr)
        ratio = loading.power[1] / loading.power[0]
        assert ratio == pytest.approx(10 ** 0.6, rel=1e-6)
        assert loading.power.sum() == pytest.approx(2.0)

    def test_zero_bit_carriers_keep_zero_power(self, cfg):
        snr = SnrProfile(np.concatenate([np.full(100, 30.0), np.full(155, -10.0)]))
        loading = cioffi_power_loading(chow_bit_loading(snr, 300, cfg.max_loaded_carriers), snr)
        assert np.all(loading.power[loading.bits == 0] == 0)


class TestModem:
    def test_hermitian_symmetry_residue(self, cfg, flat_snr):
        loading = cioffi_power_loading(chow_bit_loading(flat_snr, 716, cfg.max_loaded_carriers), flat_snr)
        carriers = training_symbols(loading, cfg)
        time_sym = _hermitian_time_symbols(carriers, cfg)
        assert np.isrealobj(time_sym)

    def test_frame_length(self, cfg, flat_snr):
        loading = cioffi_power_loading(chow_bit_loading(flat_snr, 716, cfg.max_loaded_carriers), flat_snr)
        wave = dmt_modulate(make_bits(loading, cfg), loading, cfg)
        assert len(wave) == 128 * 520
        assert wave.sample_rate == pytest.approx(84e9)

    def test_loopback_zero_errors(self, cfg, flat_snr):
        loading = cioffi_power_loading(chow_bit_loading(flat_snr, 716, cfg.max_loaded_carriers), flat_snr)
        bits = make_bits(loading, cfg)
        wave = dmt_modulate(bits, loading, cfg)
        rx_bits, evm = dmt_demodulate(wave, loading, cfg)
        assert np.array_equal(rx_bits, bits)
        assert np.max(evm[loading.bits > 0]) < 1e-3

    def test_loopback_without_prefix(self, cfg, flat_snr):
        # a zero prefix adds no samples: the frame is its bare symbols
        bare = replace(cfg, cp_fraction=Fraction(0))
        loading = cioffi_power_loading(chow_bit_loading(flat_snr, 716, bare.max_loaded_carriers),
                                       flat_snr)
        bits = make_bits(loading, bare)
        wave = dmt_modulate(bits, loading, bare)
        assert len(wave) == 128 * 512
        rx_bits, _ = dmt_demodulate(wave, loading, bare)
        assert np.array_equal(rx_bits, bits)

    def test_flat_gain_phase_channel_removed_exactly(self, cfg, flat_snr):
        loading = cioffi_power_loading(chow_bit_loading(flat_snr, 300, cfg.max_loaded_carriers), flat_snr)
        bits = make_bits(loading, cfg, seed=5)
        wave = dmt_modulate(bits, loading, cfg)
        scaled = SampleBuffer(0.43 * wave.samples, wave.sample_rate)
        rx_bits, evm = dmt_demodulate(scaled, loading, cfg)
        assert np.array_equal(rx_bits, bits)
        assert np.max(evm[loading.bits > 0]) < 1e-3

    def test_dispersive_channel_within_cp(self, cfg, flat_snr):
        # causal FIR shorter than the prefix: one-tap equalization absorbs it
        loading = cioffi_power_loading(chow_bit_loading(flat_snr, 500, cfg.max_loaded_carriers), flat_snr)
        bits = make_bits(loading, cfg, seed=7)
        wave = dmt_modulate(bits, loading, cfg)
        fir = FilterStage("disp", "fir", fir_taps=(1.0, 0.35, -0.2, 0.12, 0.05, -0.02),
                          fir_rate_hz=84e9)
        # a flat link applies no stages, so the FIR goes ahead of it
        dispersed = apply_stages(wave, (fir,))
        rx_bits, _ = dmt_demodulate(apply_channel(dispersed, ChannelModel()), loading, cfg)
        assert np.array_equal(rx_bits, bits)

    def test_cp_sufficiency_snr_matches_response(self, cfg):
        # with noise, the measured per-carrier SNR through a short FIR equals
        # the noise-only prediction scaled by |H|^2: no ISI penalty
        fir = FilterStage("disp", "fir", fir_taps=(1.0, 0.35, -0.2, 0.12), fir_rate_hz=84e9)
        sigma = 0.02
        chan = ChannelModel(noise=NoiseSpec(sigma=sigma), seed=3)
        probe = make_probe_frame(cfg)
        est = estimate_snr(apply_channel(apply_stages(probe, (fir,)), chan, seed=3), cfg)
        est_flat = estimate_snr(apply_channel(probe, chan, seed=3), cfg)
        freqs = np.arange(1, est.snr_db.size + 1) * 84e9 / cfg.fft_length
        gain_db = 20 * np.log10(np.abs(fir.response(freqs)))
        predicted = est_flat.snr_db + gain_db
        sel = predicted < 55.0  # away from the estimator ceiling
        diff = est.snr_db[sel] - predicted[sel]
        # no systematic penalty; single-carrier scatter is estimation noise
        assert abs(np.mean(diff)) < 0.2
        assert np.max(np.abs(diff)) < 2.0

    def test_sync_failure_reported(self, cfg, flat_snr):
        loading = cioffi_power_loading(chow_bit_loading(flat_snr, 716, cfg.max_loaded_carriers), flat_snr)
        rng = np.random.default_rng(0)
        junk = SampleBuffer(rng.normal(size=cfg.frame_length), 84e9)
        with pytest.raises(SyncError):
            dmt_demodulate(junk, loading, cfg)

    def test_bit_count_mismatch_rejected(self, cfg, flat_snr):
        loading = cioffi_power_loading(chow_bit_loading(flat_snr, 716, cfg.max_loaded_carriers), flat_snr)
        with pytest.raises(ValueError):
            dmt_modulate(np.zeros(10, dtype=np.int64), loading, cfg)


class TestEstimateSnr:
    def test_noiseless_hits_ceiling(self, cfg):
        # clipping off: the noiseless estimate saturates at the ceiling
        clean_cfg = replace(cfg, clipping_ratio_db=None)
        probe = make_probe_frame(clean_cfg)
        est = estimate_snr(probe, clean_cfg)
        assert np.all(est.snr_db >= SNR_CEILING_DB - 0.1)

    def test_known_injected_awgn(self, cfg):
        # white time-domain noise with a known per-carrier SNR of 20 dB
        probe = make_probe_frame(replace(cfg, clipping_ratio_db=None))
        clean_frame = probe.samples[: cfg.frame_length].reshape(128, 520)
        spectra = np.fft.fft(clean_frame[:, 8:], axis=1) / 512
        carrier_power = float(np.mean(np.abs(spectra[:, 1:256]) ** 2))
        target = 10 ** (20.0 / 10.0)
        sigma = np.sqrt(carrier_power * 512 / target)
        rng = np.random.default_rng(11)
        noisy = SampleBuffer(probe.samples + rng.normal(0, sigma, len(probe)), 84e9)
        est = estimate_snr(noisy, replace(cfg, clipping_ratio_db=None))
        assert np.mean(est.snr_db) == pytest.approx(20.0, abs=0.5)

    def test_modeled_channel_profile(self, cfg):
        chan = make_channel("paper_b2b", seed=1)
        est = estimate_snr(apply_channel(make_probe_frame(cfg), chan, seed=1), cfg)
        freqs = np.arange(1, est.snr_db.size + 1) * 84e9 / cfg.fft_length
        s = est.snr_db

        def at(ghz):
            return s[np.argmin(np.abs(freqs - ghz * 1e9))]

        usable = (freqs <= 25e9) & (np.abs(freqs - 21e9) > 3e9)
        assert np.min(s[usable]) >= 15.0
        assert np.max(s[freqs > 30e9]) < 0.0
        assert at(7) < at(5) and at(7) < at(9)  # EML dip
        assert at(21) <= at(19.5) - 5.0  # clock-line null


def read_loading_csv(path):
    """(bits, power) columns of a written loading table."""
    rows = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
    power = np.where(np.isfinite(rows["power_db"]), 10 ** (rows["power_db"] / 10.0), 0.0)
    return rows["bits"].astype(int), power


class TestLoadingCsv:
    def test_round_trip(self, cfg, tmp_path):
        rng = np.random.default_rng(2)
        snr = SnrProfile(rng.uniform(10, 35, 255))
        loading = cioffi_power_loading(chow_bit_loading(snr, 640, cfg.max_loaded_carriers), snr)
        path = tmp_path / "loading.csv"
        _write_csv(path, _loading_rows(loading))
        bits, power = read_loading_csv(path)
        np.testing.assert_array_equal(bits, loading.bits)
        np.testing.assert_allclose(power, loading.power, rtol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(carriers=st.lists(
        st.tuples(st.integers(0, 6), st.floats(1e-6, 1e6)).map(lambda c: (c[0], c[1] if c[0] else 0.0)),
        min_size=1, max_size=40))
    def test_round_trip_property(self, tmp_path_factory, carriers):
        bits, power = zip(*carriers)
        loading = LoadingTable(bits, power)
        path = tmp_path_factory.mktemp("loading") / "loading.csv"
        _write_csv(path, _loading_rows(loading))
        back_bits, back_power = read_loading_csv(path)
        np.testing.assert_array_equal(back_bits, loading.bits)
        active = loading.bits > 0
        assert np.all(back_power[~active] == 0.0)
        # power_db is written with 6 significant digits
        np.testing.assert_allclose(10 * np.log10(back_power[active]),
                                   10 * np.log10(loading.power[active]), rtol=5e-6, atol=1e-12)

    def test_loading_invariants_enforced(self):
        with pytest.raises(ValueError):
            LoadingTable([7], [1.0])
        with pytest.raises(ValueError):
            LoadingTable([0], [0.5])
