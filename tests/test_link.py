"""Tests for the parametric hardware link model."""
from dataclasses import replace

import numpy as np
import pytest

from imddsim.link import (
    EML_BIAS_V,
    EML_V_MAX,
    EML_V_MIN,
    ChannelModel,
    FilterStage,
    NoiseSpec,
    add_noise,
    apply_channel,
    apply_stages,
    cascade_response,
    eml_drive_for_power,
    eml_modulate,
    eml_power_mw,
    make_channel,
    noiseless,
    pin_tia_saturation,
    preset_summary,
    CHANNEL_PRESETS,
    RX_STAGES,
    TX_DRIVER_STAGES,
    TX_STAGES,
    _grid_response,
)
from imddsim.sigproc import SampleBuffer

# the dispersive FIR stage of the DMT tests
DISPERSION_FIR = FilterStage("disp", "fir", fir_taps=(1.0, 0.35, -0.2, 0.12, 0.05, -0.02),
                             fir_rate_hz=84e9)


class TestFilterStages:
    def test_all_disabled_is_flat(self):
        # the ideal preset has no hardware stages, and an empty cascade is unity
        assert not make_channel("ideal").hardware
        freqs = np.linspace(0, 42e9, 64)
        np.testing.assert_allclose(np.abs(cascade_response((), freqs)), 1.0)

    def test_unity_at_dc(self):
        freqs = np.array([0.0])
        for stage in TX_STAGES + RX_STAGES:
            assert abs(stage.response(freqs)[0]) == pytest.approx(1.0, abs=1e-6)

    def test_three_db_points(self):
        for name, f3 in (("dac", 15e9), ("driver", 25e9), ("pin_tia", 35e9), ("adc", 18e9)):
            stage = next(s for s in TX_STAGES + RX_STAGES if s.name == name)
            mag = np.abs(stage.response(np.array([f3])))[0]
            assert 20 * np.log10(mag) == pytest.approx(-3.01, abs=0.05)

    def test_eml_dip_is_local_minimum(self):
        stages = TX_STAGES
        mags = np.abs(cascade_response(stages, np.array([5e9, 7e9, 9e9])))
        assert mags[1] < mags[0] and mags[1] < mags[2]

    def test_clock_notch_depth(self):
        notch = next(s for s in TX_STAGES if s.name == "clock_notch")
        mag = np.abs(notch.response(np.array([21e9, 19e9])))
        assert 20 * np.log10(mag[0]) == pytest.approx(-8.0, abs=0.1)
        assert 20 * np.log10(mag[0] / mag[1]) < -6.0
        # the pre-emphasis trainer's driver side leaves the null in the channel
        assert all(s.name != "clock_notch" for s in TX_DRIVER_STAGES)

    def test_swept_tone_matches_analytic_product(self):
        # small-signal sines through the cascade vs the stage-response product
        stages = TX_STAGES
        n, rate = 16384, 84e9
        t = np.arange(n) / rate
        for cycles in (200, 1000, 2000, 4096, 6200):
            f = cycles * rate / n
            tone = SampleBuffer(np.sin(2 * np.pi * f * t), rate)
            out = apply_stages(tone, stages)
            measured = np.sqrt(2 * np.mean(out.samples**2))
            expected = np.abs(cascade_response(stages, np.array([f]))[0])
            assert measured == pytest.approx(expected, rel=1e-6)

    def test_composite_tx_3db_below_dac_bandwidth(self):
        stages = TX_STAGES
        freqs = np.linspace(1e8, 20e9, 500)
        mags = 20 * np.log10(np.abs(cascade_response(stages, freqs)))
        crossing = freqs[np.argmax(mags < -3.0)]
        assert crossing < 15e9


class TestGridResponseCache:
    """`apply_stages` takes its response from a two-entry cache keyed on
    (stages, length, sample rate); the output must equal the uncached
    product of the cascade's response on the block's rfft grid."""

    CASCADES = (TX_DRIVER_STAGES, TX_STAGES, RX_STAGES, (DISPERSION_FIR,))

    @staticmethod
    def uncached(x, stages, rate):
        n = x.size
        return np.fft.irfft(np.fft.rfft(x) * cascade_response(stages, np.fft.rfftfreq(n, 1.0 / rate)), n)

    def test_alternating_grids_equal_uncached_product(self):
        rng = np.random.default_rng(7)
        grids = [(n, rate) for n in (4096, 4097) for rate in (84e9, 56e9)]
        blocks = {n: rng.normal(size=n) for n, _ in grids}
        # every cascade on every grid, twice over, so entries are evicted
        # and rebuilt between uses
        for _ in range(2):
            for n, rate in grids:
                for stages in self.CASCADES:
                    x = blocks[n]
                    out = apply_stages(SampleBuffer(x, rate), stages)
                    np.testing.assert_array_equal(out.samples, self.uncached(x, stages, rate))
                    assert out.sample_rate == rate
                    assert _grid_response.cache_info().currsize <= 2

    def test_repeated_call_hits_and_matches(self):
        x = np.random.default_rng(8).normal(size=3001)
        first = apply_stages(SampleBuffer(x, 84e9), TX_STAGES)
        hits = _grid_response.cache_info().hits
        second = apply_stages(SampleBuffer(x, 84e9), TX_STAGES)
        assert _grid_response.cache_info().hits == hits + 1
        np.testing.assert_array_equal(first.samples, second.samples)

    def test_cached_response_is_read_only(self):
        resp = _grid_response(RX_STAGES, 1024, 84e9)
        with pytest.raises(ValueError):
            resp[0] = 0.0


class TestEmlCurve:
    def test_monotone_and_saturating(self):
        volts = np.linspace(EML_V_MIN, EML_V_MAX, 500)
        power = eml_power_mw(volts)
        assert np.all(np.diff(power) >= 0)
        edge_slope = (power[-1] - power[-2]) / (volts[-1] - volts[-2])
        mid_slope = (eml_power_mw(-1.2) - eml_power_mw(-1.3)) / 0.1
        assert edge_slope < 0.35 * mid_slope

    def test_power_at_bias(self):
        assert 10 * np.log10(eml_power_mw(EML_BIAS_V)) == pytest.approx(1.0, abs=1e-9)

    def test_inverse_round_trip(self):
        volts = np.linspace(-2.2, -0.3, 50)
        back = eml_drive_for_power(eml_power_mw(volts))
        np.testing.assert_allclose(back, volts, atol=1e-9)

    def test_zero_swing_constant_power(self):
        drive = SampleBuffer(np.zeros(128), 84e9)
        optical, clamped = eml_modulate(drive)
        np.testing.assert_allclose(optical.samples, eml_power_mw(-1.25))
        assert clamped == 0

    def test_monotone_ramp(self):
        drive = SampleBuffer(np.linspace(-1, 1, 256), 84e9)
        optical, _ = eml_modulate(drive)
        assert np.all(np.diff(optical.samples) > 0)

    def test_out_of_domain_clamped_and_counted(self):
        drive = SampleBuffer(np.array([-5.0, 0.0, 5.0]), 84e9)
        optical, clamped = eml_modulate(drive)
        assert clamped == 2
        assert np.all(optical.samples >= 0)


class TestSaturation:
    def test_small_signal_linear(self):
        sig = SampleBuffer(np.linspace(-0.05, 0.05, 64), 1.0)
        out = pin_tia_saturation(sig, knee=1.0)
        np.testing.assert_allclose(out.samples, sig.samples, rtol=0.01)

    def test_seven_levels_outer_compression(self):
        levels = np.arange(-6.0, 7.0, 2.0) / 6.0 * 2.0  # driven at 2x knee
        out = pin_tia_saturation(SampleBuffer(levels, 1.0), knee=1.0).samples
        gaps = np.diff(out)
        assert gaps[0] < gaps[2] and gaps[-1] < gaps[3]

    def test_odd_symmetric_monotone(self):
        x = np.linspace(-5, 5, 2001)
        out = pin_tia_saturation(SampleBuffer(x, 1.0), knee=0.8).samples
        np.testing.assert_allclose(out, -out[::-1], atol=1e-12)
        assert np.all(np.diff(out) > 0)

    def test_needs_positive_knee(self):
        with pytest.raises(ValueError):
            pin_tia_saturation(SampleBuffer(np.ones(4), 1.0), knee=0.0)


class TestLinkBudget:
    def test_rop_arithmetic(self):
        model = ChannelModel(hardware=True, fiber_km=20.0, voa_db=0.0)
        assert model.loss_db == pytest.approx(6.4)
        assert model.rop_dbm == pytest.approx(-5.4)

    @pytest.mark.parametrize("preset", CHANNEL_PRESETS)
    def test_preset_equal_and_hash_equal_across_calls(self, preset):
        # the DMT loading caches are keyed by the channel
        a = make_channel(preset, voa_db=2.8, seed=5)
        b = make_channel(preset, voa_db=2.8, seed=5)
        assert a == b and hash(a) == hash(b)

    def test_preset_budgets(self):
        # 1 dBm launch on the hardware link, 0.32 dB/km of fiber, the VOA;
        # a flat link reads 0 dBm whatever the VOA
        expected = {"ideal": 0.0, "awgn_only": 0.0, "paper_b2b": -1.8,
                    "paper_10km": -5.0, "paper_20km": -8.2}
        for preset in CHANNEL_PRESETS:
            assert make_channel(preset, voa_db=2.8).rop_dbm == pytest.approx(expected[preset])


class TestApplyChannel:
    def test_ideal_preset_is_identity(self):
        rng = np.random.default_rng(0)
        sig = SampleBuffer(rng.normal(size=4096), 84e9)
        out = apply_channel(sig, make_channel("ideal"))
        np.testing.assert_allclose(out.samples, sig.samples, atol=1e-9)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(1)
        sig = SampleBuffer(rng.normal(size=8192), 84e9)
        model = make_channel("paper_10km", seed=42)
        a = apply_channel(sig, model)
        b = apply_channel(sig, model)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = apply_channel(sig, model, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_awgn_preset_snr_calibration(self):
        # measured SNR at the output matches the configured value
        rng = np.random.default_rng(2)
        clean = rng.normal(size=1_000_000)
        sig = SampleBuffer(clean, 84e9)
        model = make_channel("awgn_only", snr_db=18.0, seed=5)
        out = apply_channel(sig, model)
        noise = out.samples - clean
        measured = 10 * np.log10(np.mean(clean**2) / np.mean(noise**2))
        assert measured == pytest.approx(18.0, abs=0.2)

    def test_extreme_attenuation_yields_noise_not_failure(self):
        rng = np.random.default_rng(3)
        sig = SampleBuffer(rng.normal(size=4096), 84e9)
        model = make_channel("paper_20km", voa_db=60.0, seed=1)
        out = apply_channel(sig, model)
        assert np.isfinite(out.samples).all()
        assert out.rms > 0

    def test_ber_monotone_in_rop_below_saturation(self):
        # three-point sweep in the unsaturated region, Monte-Carlo margin
        from imddsim.evaluate import PamExperiment, count_ber
        from imddsim.pam import PamRxConfig

        counts = []
        for voa in (4.0, 6.0, 8.0):
            chan = make_channel("paper_b2b", voa_db=voa, seed=3)
            exp = PamExperiment(rx=PamRxConfig(n_ffe_taps=41), channel=chan)
            tx_bits, rx_bits = exp.run_block(seed=21)
            r = count_ber(tx_bits, rx_bits)
            counts.append((r.bit_errors, r.bits_total))
        for (k_hi, n_hi), (k_lo, n_lo) in zip(counts, counts[1:]):
            margin = 3 * np.sqrt(max(k_hi, 1)) / n_hi
            assert k_hi / n_hi <= k_lo / n_lo + margin

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            make_channel("paper_40km")

    def test_preset_summaries_exist(self):
        for preset in CHANNEL_PRESETS:
            text = preset_summary(preset)
            assert preset in text

    def test_hardware_summary_lists_the_modeled_chain(self):
        names = ", ".join(s.name for s in TX_STAGES + RX_STAGES)
        assert preset_summary("paper_10km") == (
            f"paper_10km: stages [{names}] EML bias -1.25 V, fiber 10 km x 0.32 dB/km, "
            "launch 1 dBm noise sigma 0.003"
        )
        assert preset_summary("awgn_only") == "awgn_only: all stages flat AWGN at 20 dB SNR"


class TestNoiseSpec:
    @pytest.mark.parametrize("spec", [dict(sigma=-0.5), dict(sigma=float("nan")),
                                      dict(sigma=float("inf")), dict(sigma=0.5, snr_db=60.0),
                                      dict(snr_db=float("nan"))])
    def test_noise_it_would_not_add_is_rejected(self, spec):
        # each of these once added no noise, or only the SNR's
        with pytest.raises(ValueError):
            NoiseSpec(**spec)

    def test_one_active_noise_is_accepted(self):
        assert NoiseSpec().sigma_for(np.ones(4)) == 0.0
        assert NoiseSpec(sigma=0.003).sigma_for(np.ones(4)) == 0.003
        assert NoiseSpec(sigma=0.0, snr_db=20.0).sigma_for(np.ones(4)) == pytest.approx(0.1)


class TestChannelSplit:
    """`apply_channel` is exactly its noiseless half, then its noise half."""

    @pytest.mark.parametrize("preset", CHANNEL_PRESETS)
    def test_apply_channel_is_noise_on_the_noiseless_link(self, preset):
        sig = SampleBuffer(np.random.default_rng(4).normal(size=6000), 84e9)
        model = make_channel(preset, voa_db=1.5, seed=8)
        for seed in (None, 17):
            direct = apply_channel(sig, model, seed=seed)
            split = add_noise(noiseless(sig, model), model, seed=seed)
            assert np.array_equal(direct.samples, split.samples)
            assert direct.sample_rate == split.sample_rate

    def test_noise_free_link_draws_no_random_numbers(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("a noise-free link drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        sig = SampleBuffer(np.linspace(-1.0, 1.0, 512), 84e9)
        assert apply_channel(sig, make_channel("ideal"), seed=3) is sig
        quiet = replace(make_channel("paper_b2b"), noise=NoiseSpec())
        received = noiseless(sig, quiet)
        assert add_noise(received, quiet, seed=3) is received
