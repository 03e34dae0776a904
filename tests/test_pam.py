"""Tests for the Nyquist PAM4 and partial-response PAM4 chains."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imddsim.adaptive import gardner_recover
from imddsim.evaluate import PamExperiment
from imddsim.link import EML_BIAS_V, NoiseSpec, eml_power_mw, make_channel
from imddsim.pam import (
    GRAY_PAM4,
    PAM4_LEVELS,
    LevelAdjustment,
    PamRxConfig,
    PamTxConfig,
    level_adjustment_for_eml,
    pam4_demap,
    pam4_map,
    pam_back_end,
    pam_front_end,
    pam_receive,
    pam_transmit,
    pr_encode,
    adjusted_symbol_values,
    _to_two_sps,
)
from imddsim.link import apply_channel
from imddsim.sigproc import (
    SampleBuffer,
    debruijn_sequence,
    raised_cosine_shape,
)

from spectral_helpers import average_psd


@pytest.fixture(scope="module")
def payload():
    return debruijn_sequence(4, 8)


@pytest.fixture(scope="module")
def payload_bits(payload):
    return pam4_demap(payload.indices)


class TestMapping:
    def test_canonical_gray_map(self):
        seq = pam4_map([0, 0, 0, 1, 1, 1, 1, 0])
        np.testing.assert_array_equal(seq.levels, [-3, -1, 1, 3])

    def test_empty_bits(self):
        assert len(pam4_map([])) == 0

    def test_round_trip_on_debruijn(self, payload, payload_bits):
        seq = pam4_map(payload_bits)
        assert np.array_equal(seq.indices, payload.indices)
        assert np.array_equal(pam4_demap(seq.indices), payload_bits)

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError):
            pam4_map([0, 1, 0])

    def test_gray_table_adjacent_levels_differ_in_one_bit(self):
        assert sorted(GRAY_PAM4) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for a, b in zip(GRAY_PAM4, GRAY_PAM4[1:]):
            assert (a[0] != b[0]) + (a[1] != b[1]) == 1
        assert all(lo < hi for lo, hi in zip(PAM4_LEVELS, PAM4_LEVELS[1:]))

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.sampled_from(GRAY_PAM4), max_size=64))
    def test_map_demap_round_trip_on_gray_table(self, pairs):
        bits = [bit for pair in pairs for bit in pair]
        seq = pam4_map(bits)
        np.testing.assert_array_equal(seq.alphabet, PAM4_LEVELS)
        np.testing.assert_array_equal(seq.indices, [GRAY_PAM4.index(p) for p in pairs])
        np.testing.assert_array_equal(pam4_demap(seq.indices), bits)


class TestPartialResponse:
    def test_constant_input(self):
        seq = pam4_map([1, 1] * 6)  # constant +1
        out = pr_encode(seq)
        assert out.levels[0] == -2.0  # first sample adds the (-3) initial state
        np.testing.assert_array_equal(out.levels[1:], 2.0)

    def test_alternating_extremes(self):
        indices = np.tile([0, 3], 8)
        seq = pam4_map(pam4_demap(indices))
        out = pr_encode(seq)
        np.testing.assert_array_equal(out.levels[:4], [-6, 0, 0, 0])

    def test_matches_delay_and_add_sum(self):
        rng = np.random.default_rng(0)
        indices = rng.integers(0, 4, 10_000)
        seq = pam4_map(pam4_demap(indices))
        out = pr_encode(seq)
        lv = seq.levels
        expected = lv + np.concatenate(([-3.0], lv[:-1]))
        np.testing.assert_array_equal(out.levels, expected)

    def test_seven_level_alphabet(self, payload):
        out = pr_encode(payload)
        assert out.alphabet.size == 7
        np.testing.assert_array_equal(out.alphabet, np.arange(-6.0, 7.0, 2.0))
        assert np.unique(out.indices).size == 7

    def test_dc_linearity(self, payload):
        # exact up to the two block-edge terms of the delay-and-add sum
        out = pr_encode(payload)
        edge_bound = 12.0 / len(payload)
        assert np.mean(out.levels) == pytest.approx(2.0 * np.mean(payload.levels), abs=edge_bound)

    def test_rejects_non_pam4_alphabet(self, payload):
        with pytest.raises(ValueError):
            pr_encode(pr_encode(payload))

    def test_spectrum_concentrates_at_low_frequencies(self, payload):
        symbol_rate = 56e9
        shaped_plain = raised_cosine_shape(SampleBuffer(payload.levels, symbol_rate), 0.1, 3, 2)
        shaped_pr = raised_cosine_shape(
            SampleBuffer(pr_encode(payload).levels, symbol_rate), 0.1, 3, 2
        )
        def low_fraction(sig):
            freqs, psd = average_psd(sig, nfft=4096)
            low = freqs <= symbol_rate / 4
            return np.sum(psd[low]) / np.sum(psd)
        assert low_fraction(shaped_pr) > low_fraction(shaped_plain)


class TestLevelAdjustment:
    def test_identity_is_nominal_alphabet(self):
        np.testing.assert_array_equal(LevelAdjustment((-3.0, -1.0, 1.0, 3.0)).alphabet, [-3, -1, 1, 3])
        assert LevelAdjustment(tuple(2.0 * np.arange(7) - 6)).alphabet.size == 7

    @pytest.mark.parametrize("n_levels", [4, 7])
    def test_equidistant_optical_levels(self, n_levels):
        adjust = level_adjustment_for_eml(n_levels)
        drive = adjust.alphabet / np.max(np.abs(adjust.alphabet))
        powers = eml_power_mw(EML_BIAS_V + drive)
        gaps = np.diff(powers)
        assert np.max(gaps) / np.min(gaps) - 1.0 < 0.01

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            LevelAdjustment((0.0, -1.0, 1.0, 2.0))


class TestTransmit:
    def test_rates_and_length(self, payload_bits):
        wave = pam_transmit(payload_bits, PamTxConfig())
        assert wave.sample_rate == pytest.approx(84e9)
        assert len(wave) == 65536 * 3 // 2

    def test_pr_has_seven_adjusted_levels_before_shaping(self, payload_bits):
        adjust = level_adjustment_for_eml(7)
        cfg = PamTxConfig(partial_response=True, level_adjust=adjust)
        seq = adjusted_symbol_values(payload_bits, cfg)
        assert np.unique(seq.levels).size == 7

    def test_occupied_band_within_31ghz(self, payload_bits):
        wave = pam_transmit(payload_bits, PamTxConfig(clipping_ratio_db=None))
        spec = np.abs(np.fft.rfft(wave.samples))
        freqs = np.fft.rfftfreq(len(wave), 1 / wave.sample_rate)
        edge = freqs[spec > spec.max() * 1e-2][-1]  # -20 dB amplitude-ish edge
        assert edge <= 31e9

    def test_preemphasis_raises_papr(self, payload_bits):
        from imddsim.evaluate import _trained_preemphasis

        def papr_db(wave):
            return 20 * np.log10(np.max(np.abs(wave.samples)) / wave.rms)

        plain = pam_transmit(payload_bits, PamTxConfig(clipping_ratio_db=None))
        taps = _trained_preemphasis(11, 84e9, False)
        boosted = pam_transmit(
            payload_bits, PamTxConfig(clipping_ratio_db=None, pre_emphasis_taps=taps)
        )
        assert papr_db(boosted) > papr_db(plain)

    def test_level_adjust_size_mismatch_rejected(self, payload_bits):
        cfg = PamTxConfig(partial_response=True, level_adjust=LevelAdjustment((-3.0, -1.0, 1.0, 3.0)))
        with pytest.raises(ValueError):
            pam_transmit(payload_bits, cfg)


class TestReceive:
    def test_nyquist_loopback_single_tap(self, payload, payload_bits):
        wave = pam_transmit(payload_bits, PamTxConfig())
        rx_bits = pam_receive(wave, PamRxConfig(n_ffe_taps=1), payload)
        assert np.array_equal(rx_bits, payload_bits)

    def test_pr_loopback_mlse_memory_one(self, payload, payload_bits):
        wave = pam_transmit(payload_bits, PamTxConfig(partial_response=True))
        rx_cfg = PamRxConfig(partial_response=True, mlse_memory=1, n_ffe_taps=21)
        rx_bits = pam_receive(wave, rx_cfg, payload)
        assert np.array_equal(rx_bits, payload_bits)

    def test_back_end_of_no_blocks(self, payload):
        assert pam_back_end([], [], payload) == []

    def test_awgn_ber_matches_analytic_pam4(self, payload, payload_bits):
        # closed-form gray PAM4 over AWGN: BER = (3/8) erfc(sqrt(SNR/10))
        import math
        from imddsim.link import ChannelModel, NoiseSpec
        from imddsim.sigproc import resample

        snr_db = 16.2
        cfg = PamTxConfig()
        wave = pam_transmit(payload_bits, cfg)
        # symbol-instant gain of the clean waveform
        at_syms = resample(wave, 2, 1).samples[::3]
        g = float(at_syms @ payload.levels / (payload.levels @ payload.levels))
        es = np.mean(payload.levels**2)
        sigma = g * math.sqrt(es * 10 ** (-snr_db / 10.0))
        chan = ChannelModel(name="awgn", noise=NoiseSpec(sigma=sigma), seed=77)
        errors = 0
        total = 0
        rx_cfg = PamRxConfig(n_ffe_taps=1)
        fronts = [pam_front_end(apply_channel(wave, chan, seed=1000 + block), rx_cfg, payload)
                  for block in range(8)]  # > 1e6 bits
        for rx_bits in pam_back_end(fronts, [rx_cfg] * len(fronts), payload):
            assert not isinstance(rx_bits, Exception), rx_bits
            errors += int(np.sum(rx_bits != payload_bits))
            total += payload_bits.size
        ber = errors / total
        analytic = 3 / 8 * math.erfc(math.sqrt(10 ** (snr_db / 10.0) / 10.0))
        assert ber == pytest.approx(analytic, rel=0.15)

    def test_pr_initial_state_matches_trellis(self):
        # the first encoded sample adds s(-1) = lowest level; the trellis
        # started from the matching state decodes it without penalty
        from imddsim.adaptive import MlseConfig, mlse_detect

        seq = pam4_map([0, 1] * 10)  # starts with level -1
        pr = pr_encode(seq)
        assert pr.levels[0] == -4.0  # -1 + (-3)
        detected = mlse_detect(pr.levels, MlseConfig.partial_response(seq.alphabet))
        assert np.array_equal(detected.indices, seq.indices)

    def test_pr_without_mlse_rejected(self):
        with pytest.raises(ValueError):
            PamRxConfig(partial_response=True, mlse_memory=None)


class TestClockPhaseAcrossNoiseSeeds:
    """The Gardner phase of one received 131,072-bit block at noise seeds
    0-3, against the phase of the same block without receiver noise."""

    @staticmethod
    def phase(partial_response, preset, voa_db, noise_seed):
        channel = make_channel(preset, voa_db=voa_db, seed=1)
        if noise_seed is None:
            channel = replace(channel, noise=NoiseSpec())
        rx = PamRxConfig(partial_response=partial_response, mlse_memory=2 if partial_response else None)
        exp = PamExperiment(rx=rx, channel=channel)
        payload = debruijn_sequence(4, exp.payload_order)
        wave = pam_transmit(pam4_demap(payload.indices), exp.resolve_tx())
        received = apply_channel(wave, channel, seed=noise_seed)
        return gardner_recover(_to_two_sps(received, rx.symbol_rate), -1 if partial_response else 1).offset_ui

    @pytest.mark.parametrize(
        "partial_response, preset, voa_db",
        [
            (False, "paper_10km", 3.8),
            (True, "paper_b2b", 2.0),
            pytest.param(
                True, "paper_10km", 2.8,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="PR PAM4 clock phase is noise-dominated at 10 km: the duobinary null "
                    "at Rs/2 leaves the detector little band-edge energy; seeds 0-3 give "
                    "-0.010, +0.169, -0.046, +0.168 UI against a noiseless -0.012 UI",
                ),
            ),
        ],
        ids=["nyquist_10km_3.8dB", "pr_b2b_2dB", "pr_10km_2.8dB"],
    )
    def test_phase_stays_near_noiseless(self, partial_response, preset, voa_db):
        noiseless = self.phase(partial_response, preset, voa_db, None)
        spread = [self.phase(partial_response, preset, voa_db, seed) - noiseless for seed in range(4)]
        assert max(abs(d) for d in spread) < 0.05
