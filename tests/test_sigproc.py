"""Tests for the core DSP primitives.

Reference values come from independent oracles computed inline: an O(N^2)
direct DFT, direct convolution sums, exhaustive window scans, and analytic
Gaussian/uniform noise statistics.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imddsim.sigproc import (
    SampleBuffer,
    SymbolSequence,
    clip,
    debruijn_sequence,
    fft_pow2,
    fractional_delay,
    quantize,
    raised_cosine_shape,
    resample,
)

from spectral_helpers import average_psd, occupied_bandwidth


def direct_dft(x):
    """O(N^2) DFT summation, the brute-force oracle."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * k * m / n)) for m in range(n)])


class TestDomainTypes:
    def test_sample_buffer_validates(self):
        with pytest.raises(ValueError):
            SampleBuffer([], 1.0)
        with pytest.raises(ValueError):
            SampleBuffer([1.0, np.nan], 1.0)
        with pytest.raises(ValueError):
            SampleBuffer([1.0], 0.0)

    def test_sample_buffer_immutable(self):
        buf = SampleBuffer([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            buf.samples[0] = 3.0

    def test_sample_buffer_holds_its_array(self):
        # a read-only view of the array it is given, not a copy
        x = np.linspace(-1.0, 1.0, 16)
        buf = SampleBuffer(x, 1.0)
        assert np.shares_memory(buf.samples, x)
        assert not buf.samples.flags.writeable

    def test_symbol_sequence_validates(self):
        with pytest.raises(ValueError):
            SymbolSequence([0, 4], [-3, -1, 1, 3])
        with pytest.raises(ValueError):
            SymbolSequence([0], [1, 1])
        seq = SymbolSequence([3, 0], [-3, -1, 1, 3])
        assert list(seq.levels) == [3, -3]


class TestFft:
    def test_impulse_flat_spectrum(self):
        spec = fft_pow2(np.array([1.0, 0, 0, 0]))
        np.testing.assert_allclose(spec, np.ones(3), atol=1e-12)

    def test_dc_case(self):
        spec = fft_pow2(np.array([1.0, 1, 1, 1]))
        np.testing.assert_allclose(spec, [4, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("size", [8, 16, 64])
    def test_direct_dft_relative_error(self, size):
        # the N/2 + 1 bins from DC to Nyquist of the full DFT
        rng = np.random.default_rng(size)
        x = rng.normal(size=size)
        ref = direct_dft(x)[: size // 2 + 1]
        err = np.max(np.abs(fft_pow2(x) - ref)) / np.max(np.abs(ref))
        assert err < 1e-9

    @pytest.mark.parametrize("size", [8, 16, 64])
    def test_inverse_is_the_hermitian_idft(self, size):
        # N/2 + 1 bins and their conjugate mirror, through the inverse DFT
        rng = np.random.default_rng(size)
        bins = rng.normal(size=size // 2 + 1) + 1j * rng.normal(size=size // 2 + 1)
        bins[[0, -1]] = bins[[0, -1]].real
        full = np.concatenate([bins, np.conj(bins[-2:0:-1])])
        ref = np.conj(direct_dft(np.conj(full))) / size
        assert np.max(np.abs(ref.imag)) < 1e-9
        out = fft_pow2(bins, inverse=True)
        assert out.dtype == np.float64 and out.shape == (size,)
        assert np.max(np.abs(out - ref.real)) < 1e-9

    @pytest.mark.parametrize("size", [2, 16, 256, 1024, 4096])
    def test_round_trip(self, size):
        rng = np.random.default_rng(size)
        x = rng.normal(size=size)
        back = fft_pow2(fft_pow2(x), inverse=True)
        assert np.max(np.abs(back - x)) < 1e-9

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fft_pow2(np.zeros(12))
        with pytest.raises(ValueError, match="got 12"):
            fft_pow2(np.zeros(7), inverse=True)


class TestResample:
    def test_identity_ratio(self):
        sig = SampleBuffer(np.sin(np.arange(32)), 10.0)
        out = resample(sig, 1, 1)
        np.testing.assert_allclose(out.samples, sig.samples)
        assert out.sample_rate == sig.sample_rate

    def test_tone_survives_upsampling(self):
        # whole number of cycles in the block (cyclic processing convention)
        n, rate = 200, 100.0
        tone_hz = 10.0  # 0.1 x rate
        t = np.arange(n) / rate
        sig = SampleBuffer(np.cos(2 * np.pi * tone_hz * t), rate)
        out = resample(sig, 2, 1)
        assert out.sample_rate == pytest.approx(200.0)
        t2 = np.arange(2 * n) / 200.0
        np.testing.assert_allclose(out.samples, np.cos(2 * np.pi * tone_hz * t2), atol=1e-9)

    def test_up_then_down_round_trip(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=300)
        sig = SampleBuffer(x, 1.0)
        back = resample(resample(sig, 3, 2), 2, 3)
        err_power = np.mean((back.samples - x) ** 2) / np.mean(x**2)
        assert err_power < 1e-4  # -40 dB

    @settings(max_examples=60, deadline=None)
    @given(up=st.integers(1, 7), down=st.integers(1, 7), blocks=st.integers(1, 12), data=st.data())
    def test_band_limited_round_trip_is_exact(self, up, down, blocks, data):
        # a block length every ratio divides: n * up / down is whole
        n = blocks * down
        m = n * up // down
        # content strictly below the lower of the two Nyquist frequencies
        bins = (min(n, m) + 1) // 2
        coeffs = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * bins, max_size=2 * bins))
        spec = np.zeros(n // 2 + 1, dtype=np.complex128)
        spec[:bins] = np.array(coeffs[:bins]) + 1j * np.array(coeffs[bins:])
        spec[0] = spec[0].real
        x = np.fft.irfft(spec, n)
        assume(np.max(np.abs(x)) > 1e-6)
        back = resample(resample(SampleBuffer(x, 1.0), up, down), down, up)
        assert back.samples.size == n
        np.testing.assert_allclose(back.samples, x, rtol=0, atol=1e-9 * np.max(np.abs(x)))

    def test_rejects_non_positive_ratio(self):
        with pytest.raises(ValueError):
            resample(SampleBuffer(np.ones(4), 1.0), 0, 1)
        with pytest.raises(ValueError):
            resample(SampleBuffer(np.ones(4), 1.0), 1, -2)


class TestRaisedCosine:
    def test_output_holds_a_real_array_of_its_own(self):
        # not a strided view of the complex inverse FFT, which it would keep alive
        shaped = raised_cosine_shape(SampleBuffer(np.tile([1.0, -1.0], 32), 1.0), 0.1, 3, 2)
        held = shaped.samples.base
        assert held.dtype == np.float64 and held.flags.c_contiguous and held.base is None

    def test_occupied_bandwidth_56gbd(self):
        # 56 GBd, beta 0.1: edge of the occupied band at 30.8 GHz, i.e. the
        # "around 30 GHz" electrical bandwidth of a 112 Gb/s PAM4 signal
        rng = np.random.default_rng(2)
        levels = rng.choice([-3.0, -1.0, 1.0, 3.0], size=8192)
        sig = SampleBuffer(levels, 56e9)
        shaped = raised_cosine_shape(sig, beta=0.1, up=3, down=2)
        edge_20db = occupied_bandwidth(shaped, threshold_db=-20.0) / 2
        assert edge_20db <= 31e9
        # full-block spectrum of the cyclic signal is exactly band-limited
        spec = np.abs(np.fft.rfft(shaped.samples))
        freqs = np.fft.rfftfreq(len(shaped), 1 / shaped.sample_rate)
        occupied = freqs[spec > spec.max() * 1e-9]
        assert occupied.max() == pytest.approx(56e9 * 1.1 / 2, rel=0.01)
        assert spec[freqs > 31.0e9].max() < spec.max() * 1e-9

    def test_beta_zero_alternating_is_tone(self):
        n = 64
        sig = SampleBuffer(np.tile([1.0, -1.0], n // 2), 2.0)
        shaped = raised_cosine_shape(sig, beta=0.0, up=4)
        t = np.arange(len(shaped)) / shaped.sample_rate
        np.testing.assert_allclose(shaped.samples, np.cos(2 * np.pi * 1.0 * t), atol=1e-9)

    def test_zero_isi_on_debruijn_payload(self):
        seq = debruijn_sequence(4, 8)
        sig = SampleBuffer(seq.levels, 56e9)
        shaped = raised_cosine_shape(sig, beta=0.1, up=3, down=2)
        at_syms = resample(shaped, 2, 1).samples[::3]
        decided = np.digitize(at_syms, [-2.0, 0.0, 2.0])
        assert np.array_equal(decided, seq.indices)

    def test_rejects_bad_parameters(self):
        sig = SampleBuffer(np.ones(8), 1.0)
        with pytest.raises(ValueError):
            raised_cosine_shape(sig, beta=1.5, up=2)
        with pytest.raises(ValueError):
            raised_cosine_shape(sig, beta=0.5, up=1)  # oversample < 1 + beta


class TestDebruijn:
    def test_order_two_binary(self):
        seq = debruijn_sequence(2, 2)
        assert len(seq) == 4
        words = {tuple(np.roll(seq.indices, -k)[:2]) for k in range(4)}
        assert words == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_paper_payload_length(self):
        assert len(debruijn_sequence(4, 8)) == 65536

    def test_ternary_window_scan(self):
        seq = debruijn_sequence(3, 2)
        words = {tuple(np.roll(seq.indices, -k)[:2]) for k in range(len(seq))}
        assert len(words) == 9

    @pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (2, 4), (4, 2), (4, 3)])
    def test_window_property_exhaustive(self, k, n):
        seq = debruijn_sequence(k, n)
        assert len(seq) == k**n
        words = {tuple(np.roll(seq.indices, -s)[:n]) for s in range(len(seq))}
        assert len(words) == k**n

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (4, 1), (4, 6), (5, 3), (6, 2)])
    def test_fkm_order(self, k, n):
        # the recursive FKM construction as the reference: the payload's
        # symbol order, not only its window property, is what BER depends on
        a = [0] * (k * n)
        ref = []

        def db(t, p):
            if t > n:
                if n % p == 0:
                    ref.extend(a[1 : p + 1])
            else:
                a[t] = a[t - p]
                db(t + 1, p)
                for j in range(a[t - p] + 1, k):
                    a[t] = j
                    db(t + 1, t)

        db(1, 1)
        np.testing.assert_array_equal(debruijn_sequence(k, n).indices, ref)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            debruijn_sequence(1, 2)
        with pytest.raises(ValueError):
            debruijn_sequence(4, 999)  # over the length cap


class TestClip:
    def test_huge_ratio_is_identity(self):
        rng = np.random.default_rng(1)
        sig = SampleBuffer(rng.normal(size=256), 1.0)
        np.testing.assert_array_equal(clip(sig, 1000.0).samples, sig.samples)

    def test_clip_level_at_15db(self):
        # spikes guarantee the 15 dB level is actually reached
        x = np.concatenate([np.ones(99), [-30.0, 30.0]])
        sig = SampleBuffer(x, 1.0)
        clipped = clip(sig, 15.0)
        assert np.max(np.abs(clipped.samples)) == pytest.approx(sig.rms * 5.623, rel=1e-3)
        assert 10 ** (15 / 20) == pytest.approx(5.623, abs=5e-4)

    def test_gaussian_clip_fraction_matches_analytic(self):
        # CR 10 dB on unit-RMS Gaussian: P(|x| > 10^0.5) = erfc(10^0.5 / sqrt(2))
        rng = np.random.default_rng(42)
        n = 1_000_000
        x = rng.normal(size=n)
        level = np.sqrt(np.mean(x**2)) * 10 ** (10 / 20)
        clipped = clip(SampleBuffer(x, 1.0), 10.0)
        frac = np.mean(np.abs(clipped.samples) >= level * (1 - 1e-12))
        p = math.erfc(10**0.5 / math.sqrt(2))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(frac - p) < 3 * sigma

    def test_idempotent_with_frozen_level(self):
        rng = np.random.default_rng(4)
        sig = SampleBuffer(rng.normal(size=4096), 1.0)
        once = clip(sig, 6.0)
        # the level comes from the input's RMS; re-clipping at that level
        # changes nothing (a clipped signal's own RMS is lower)
        level = sig.rms * 10 ** (6.0 / 20)
        assert np.max(np.abs(once.samples)) == level
        twice = np.clip(once.samples, -level, level)
        np.testing.assert_array_equal(once.samples, twice)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            clip(SampleBuffer(np.zeros(8), 1.0), 10.0)


class TestQuantize:
    def test_full_scale_ramp_uses_all_codes(self):
        ramp = SampleBuffer(np.linspace(-1, 1, 4096), 1.0)
        levels = quantize(ramp, 8).samples
        assert np.unique(levels).size == 256
        assert levels.min() == -1.0 and levels.max() == 1.0

    def test_one_bit_is_sign_like(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=512)
        fs = np.max(np.abs(x))
        levels = quantize(SampleBuffer(x, 1.0), 1).samples
        assert set(np.unique(levels)) <= {-fs, fs}

    @pytest.mark.parametrize("bits", [1, 3, 8])
    def test_output_on_the_level_grid(self, bits):
        # every output is one of the 2**bits levels spaced evenly over +/-peak
        x = np.random.default_rng(bits).normal(size=2048)
        fs = np.max(np.abs(x))
        levels = quantize(SampleBuffer(x, 1.0), bits).samples
        steps = (levels + fs) / (2 * fs) * ((1 << bits) - 1)
        np.testing.assert_allclose(steps, np.rint(steps), atol=1e-9)
        assert levels.min() >= -fs and levels.max() <= fs

    def test_quantization_noise_power(self):
        # uniform input, 8 bits: error variance ~ delta^2 / 12
        rng = np.random.default_rng(8)
        x = rng.uniform(-1.0, 1.0, size=500_000)
        fs = np.max(np.abs(x))
        recon = quantize(SampleBuffer(x, 1.0), 8)
        delta = 2 * fs / 255
        noise = np.mean((recon.samples - x) ** 2)
        assert noise == pytest.approx(delta**2 / 12, rel=0.05)

    def test_monotone(self):
        x = np.sort(np.random.default_rng(10).normal(size=1024))
        levels = quantize(SampleBuffer(x, 1.0), 6).samples
        assert np.all(np.diff(levels) >= 0)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=64),
        bits=st.integers(1, 12),
    )
    def test_levels_the_dac_reconstructs(self, x, bits):
        x = np.array(x)
        peak = np.max(np.abs(x))
        assume(peak >= 1e-200)  # keeps the step a normal float
        out = quantize(SampleBuffer(x, 1.0), bits).samples
        n_codes = (1 << bits) - 1
        step = 2.0 * peak / n_codes
        # on the 2**bits grid over +/-peak
        codes = (out + peak) / step
        np.testing.assert_allclose(codes, np.rint(codes), rtol=0, atol=1e-9 * n_codes)
        assert np.all(np.abs(out) <= peak)
        # the peak samples map to themselves
        at_peak = np.abs(x) == peak
        np.testing.assert_array_equal(out[at_peak], x[at_peak])
        # within half a step of the input
        assert np.all(np.abs(out - x) <= step / 2 * (1 + 1e-9))
        # quantizing the levels again returns them
        np.testing.assert_array_equal(quantize(SampleBuffer(out, 1.0), bits).samples, out)


class TestHelpers:
    def test_fractional_delay_shifts_tone(self):
        n, rate = 512, 1.0
        f = 32 / n  # whole number of cycles in the cyclic block
        t = np.arange(n)
        sig = SampleBuffer(np.cos(2 * np.pi * f * t), rate)
        out = fractional_delay(sig, 2.5)
        np.testing.assert_allclose(out.samples, np.cos(2 * np.pi * f * (t - 2.5)), atol=1e-9)

    def test_average_psd_tone_location(self):
        rate = 100.0
        t = np.arange(8192) / rate
        sig = SampleBuffer(np.sin(2 * np.pi * 20.0 * t), rate)
        freqs, psd = average_psd(sig, nfft=1024)
        assert freqs[np.argmax(psd)] == pytest.approx(20.0, abs=rate / 1024)
