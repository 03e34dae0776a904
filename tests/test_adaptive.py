"""Tests for the adaptive blocks: LMS FFE, MLSE, pre-emphasis trainer and
Gardner clock recovery."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imddsim.adaptive import (
    GARDNER_PHASES,
    ClockRecoveryError,
    FfeTaps,
    MlseConfig,
    gardner_recover,
    lms_equalize,
    mlse_detect,
    train_preemphasis_waveform,
)
from imddsim.link import TX_DRIVER_STAGES, apply_stages, cascade_response
from imddsim.sigproc import (
    SampleBuffer,
    debruijn_sequence,
    fractional_delay,
    raised_cosine_shape,
)

PAM4 = np.array([-3.0, -1.0, 1.0, 3.0])


@pytest.fixture(scope="module")
def payload():
    return debruijn_sequence(4, 7)  # 16384 symbols


def circular_channel(levels, taps):
    n = levels.size
    out = np.zeros(n)
    for k, t in enumerate(np.atleast_1d(taps)):
        out += t * np.roll(levels, k)
    return out


def zero_forcing_taps(channel: np.ndarray, n_taps: int) -> FfeTaps:
    """Least-squares zero-forcing FFE for a known FIR channel.

    Solves min ||conv(channel, w) - delta_center||^2; the independent
    oracle for what an adapted FFE should approach on a noiseless channel.
    """
    h = np.asarray(channel, dtype=np.float64)
    m = h.size + n_taps - 1
    conv = np.zeros((m, n_taps))
    for j in range(n_taps):
        conv[j : j + h.size, j] = h
    target = np.zeros(m)
    target[(m - 1) // 2] = 1.0
    w, *_ = np.linalg.lstsq(conv, target, rcond=None)
    return FfeTaps(w)


class TestLmsFfe:
    def test_identity_channel_unit_center_tap(self, payload):
        taps = lms_equalize(payload.levels, payload, n_taps=11).taps
        coeffs = taps.coefficients
        assert coeffs[5] == pytest.approx(1.0, abs=0.02)
        others = np.delete(coeffs, 5)
        assert np.max(np.abs(others)) < 1e-3

    def test_known_three_tap_channel(self, payload):
        h = np.array([0.2, 1.0, 0.3])
        rx = circular_channel(payload.levels, h)
        eq = lms_equalize(rx, payload, n_taps=21)
        comb = np.convolve(h, eq.taps.coefficients)
        peak = np.argmax(np.abs(comb))
        isi = (np.sum(comb**2) - comb[peak] ** 2) / comb[peak] ** 2
        assert 10 * np.log10(isi) < -20.0
        # the zero-forcing oracle: matrix-inversion solution is near-exact
        zf = zero_forcing_taps(h, 21)
        comb_zf = np.convolve(h, zf.coefficients)
        peak_zf = np.argmax(np.abs(comb_zf))
        isi_zf = (np.sum(comb_zf**2) - comb_zf[peak_zf] ** 2) / comb_zf[peak_zf] ** 2
        assert 10 * np.log10(isi_zf) < -60.0

    def test_paper_tap_counts_are_valid(self):
        for n in (11, 21, 41, 61):
            taps = FfeTaps(np.eye(n)[n // 2])
            assert len(taps) == n

    def test_even_tap_count_rejected(self, payload):
        with pytest.raises(ValueError):
            lms_equalize(payload.levels, payload, n_taps=10).taps

    def test_mse_non_increasing_below_stability_bound(self, payload):
        # window-averaged MSE settles monotonically after burn-in
        rng = np.random.default_rng(1)
        rx = circular_channel(payload.levels, [1.0, 0.25]) + rng.normal(0, 0.05, len(payload))
        n_taps = 11
        eq = lms_equalize(rx, payload, n_taps=n_taps)
        err = (eq.output - payload.levels) ** 2
        windows = err[: 16 * 1024].reshape(16, 1024).mean(axis=1)
        after_burn_in = windows[4:]
        assert np.all(np.diff(after_burn_in) < 0.1 * after_burn_in[:-1] + 1e-3)


class TestMlse:
    def test_noiseless_pr_channel_exact(self):
        seq = debruijn_sequence(4, 8)
        lv = seq.levels
        rx = lv + np.concatenate(([PAM4[0]], lv[:-1]))
        detected = mlse_detect(rx, MlseConfig.partial_response(PAM4))
        assert np.array_equal(detected.indices, seq.indices)

    def test_beats_slicer_plus_inversion_on_awgn(self):
        # symbol-by-symbol seven-level slicing then algebraic inversion
        seq = debruijn_sequence(4, 7)
        lv = seq.levels
        clean = lv + np.concatenate(([PAM4[0]], lv[:-1]))
        cfg = MlseConfig.partial_response(PAM4)
        pr_levels = np.arange(-6.0, 7.0, 2.0)
        for snr_db in (10.0, 13.0, 16.0, 20.0):
            rng = np.random.default_rng(int(snr_db))
            sigma = np.sqrt(np.mean(clean**2) * 10 ** (-snr_db / 10.0))
            rx = clean + rng.normal(0, sigma, clean.size)
            mlse_err = np.sum(mlse_detect(rx, cfg).indices != seq.indices)
            mids = (pr_levels[1:] + pr_levels[:-1]) / 2
            sliced = pr_levels[np.searchsorted(mids, rx)]
            prev = PAM4[0]
            inv_err = 0
            for k, s in enumerate(sliced):
                est = np.clip(s - prev, -3, 3)
                idx = int(np.argmin(np.abs(PAM4 - est)))
                inv_err += idx != seq.indices[k]
                prev = PAM4[idx]
            assert mlse_err < inv_err

    def test_matches_brute_force_on_short_blocks(self):
        # exhaustive maximum-likelihood over all 4^L sequences
        L = 6
        cfg = MlseConfig.partial_response(PAM4)
        grids = np.array(np.meshgrid(*[range(4)] * L, indexing="ij")).reshape(L, -1).T
        lv = PAM4[grids]
        prev = np.concatenate([np.full((grids.shape[0], 1), PAM4[0]), lv[:, :-1]], axis=1)
        expected = lv + prev
        rng = np.random.default_rng(99)
        for _ in range(200):
            truth = rng.integers(0, 4, L)
            clean = PAM4[truth] + np.concatenate(([PAM4[0]], PAM4[truth][:-1]))
            rx = clean + rng.normal(0, 0.8, L)
            brute = grids[np.argmin(np.sum((expected - rx) ** 2, axis=1))]
            vit = mlse_detect(rx, cfg).indices
            assert np.array_equal(vit, brute)

    def test_memory_ordering_on_two_tap_channel(self):
        seq = debruijn_sequence(4, 7)
        h = np.array([1.0, 0.45])
        clean = circular_channel(seq.levels, h)
        rng = np.random.default_rng(5)
        rx = clean + rng.normal(0, 0.55, clean.size)
        errs = {}
        for m in (1, 2):
            cfg = MlseConfig.for_fir_channel(h, PAM4, m, start_symbol=None)
            errs[m] = int(np.sum(mlse_detect(rx, cfg).indices != seq.indices))
        mids = (PAM4[1:] + PAM4[:-1]) / 2
        slicer = int(np.sum(np.searchsorted(mids, rx / np.sum(h) * 1.0) != seq.indices))
        n = len(seq)

        def upper(k):  # 3-sigma counting margin
            return k + 3 * np.sqrt(max(k, 1))

        assert errs[2] <= upper(errs[1])
        assert errs[1] < slicer

    def test_noiseless_exactness_with_sufficient_memory(self):
        seq = debruijn_sequence(4, 6)
        h = np.array([1.0, 0.4, 0.2])
        rx = circular_channel(seq.levels, h)
        cfg = MlseConfig.for_fir_channel(h, PAM4, 2, start_symbol=None)
        detected = mlse_detect(rx, cfg)
        # circular block: the first two symbols lack their true history
        assert np.array_equal(detected.indices[2:], seq.indices[2:])

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            MlseConfig(0, PAM4, np.zeros((1, 4)))
        with pytest.raises(ValueError):
            MlseConfig(1, PAM4, np.zeros((3, 4)))


class TestPreemphasis:
    def test_flat_model_learns_identity(self):
        probe = debruijn_sequence(4, 7)
        observed = SampleBuffer(probe.levels, 84e9)
        taps = train_preemphasis_waveform(SampleBuffer(probe.levels, 84e9), observed, 21)
        assert taps.coefficients[10] == pytest.approx(1.0, abs=0.02)
        assert np.max(np.abs(np.delete(taps.coefficients, 10))) < 2e-3

    def test_models_tx_chain_boost_and_flatness(self):
        probe = debruijn_sequence(4, 8)
        stages = TX_DRIVER_STAGES
        observed = apply_stages(SampleBuffer(probe.levels, 84e9), stages)
        taps = train_preemphasis_waveform(SampleBuffer(probe.levels, 84e9), observed, 61)
        freqs = np.linspace(1e8, 30.8e9, 400)
        w = np.abs(taps.frequency_response(freqs, 84e9))
        h = np.abs(cascade_response(stages, freqs))
        boost_at_edge = 20 * np.log10(w[-1])
        assert boost_at_edge >= 8.0
        cascade_db = 20 * np.log10(w * h)
        in_band = freqs <= 0.9 * 29.65e9  # 0.9x the -20 dB band edge
        assert np.max(np.abs(cascade_db[in_band])) < 1.0

    def test_probe_too_short_rejected(self):
        probe = debruijn_sequence(4, 4)  # 256 symbols
        observed = SampleBuffer(probe.levels, 84e9)
        with pytest.raises(ValueError):
            train_preemphasis_waveform(SampleBuffer(probe.levels, 84e9), observed, 61)


# ---------------------------------------------------------------------------
# Gardner S-curve oracle: one inverse FFT per trial phase
# ---------------------------------------------------------------------------

def gardner_s_curve(signal: SampleBuffer, circular: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Averaged Gardner detector output over `GARDNER_PHASES` trial phases.

    `signal` must run at exactly 2 samples per symbol.  Returns (trial
    phases in UI, detector output per phase), each averaged over the whole
    block.  `circular` puts back the wrap-around triple (last mid sample,
    first and last on-time samples) that the plain slices drop.
    """
    x = signal.samples
    if x.size < 2000:
        raise ValueError("need at least 1000 symbols at 2 samples/symbol")
    phases = np.arange(GARDNER_PHASES) / GARDNER_PHASES - 0.5
    curve = np.empty(GARDNER_PHASES)
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size)
    for i, tau in enumerate(phases):
        delayed = np.fft.irfft(spec * np.exp(-2j * np.pi * freqs * (tau * 2.0)), x.size)
        if circular:
            delayed = np.append(delayed, delayed[0])
        mid = delayed[1:-1:2]
        on_time = delayed[2::2]
        prev = delayed[0:-2:2]
        # sign such that the positive-slope zero is the symbol-centered lock
        curve[i] = -np.mean(mid * (on_time - prev))
    return phases, curve


def parabola_root(phases: np.ndarray, curve: np.ndarray) -> float:
    """The positive-slope zero crossing of a sampled S-curve with the
    largest local slope, refined by a parabola through the grid points
    around it (linear between the bracketing points if that fails), as
    `gardner_recover` picks it."""
    n = phases.size
    crossings = []
    for i in range(n):
        j = (i + 1) % n
        if curve[i] < 0.0 <= curve[j]:
            crossings.append((i, j))
    if not crossings:
        raise ClockRecoveryError("no positive-slope zero crossing in the S-curve")
    i, j = max(crossings, key=lambda ij: curve[ij[1]] - curve[ij[0]])
    x0 = phases[i]
    step = 1.0 / n
    y_m, y_0, y_p = curve[i - 1], curve[i], curve[j]
    denom = y_m - 2.0 * y_0 + y_p
    root = None
    if abs(denom) > 1e-18:
        a = denom / (2.0 * step**2)
        b = (y_p - y_m) / (2.0 * step)
        disc = b * b - 4.0 * a * y_0
        if disc >= 0.0:
            for cand in ((-b + np.sqrt(disc)) / (2 * a), (-b - np.sqrt(disc)) / (2 * a)):
                if 0.0 <= cand <= step:
                    root = x0 + cand
                    break
    if root is None:
        root = x0 + step * curve[i] / (curve[i] - curve[j])
    return (root + 0.5) % 1.0 - 0.5


def ui_distance(a: float, b: float) -> float:
    """Distance between two phases on the one-UI circle."""
    return abs((a - b + 0.5) % 1.0 - 0.5)


@pytest.fixture(scope="module")
def shaped():
    seq = debruijn_sequence(4, 7)
    return seq, raised_cosine_shape(SampleBuffer(seq.levels, 1.0), 0.1, 2)


class TestGardner:

    def test_zero_offset(self, shaped):
        _, sig = shaped
        assert abs(gardner_recover(sig).offset_ui) < 0.01

    def test_known_injected_offset(self, shaped):
        _, sig = shaped
        delayed = fractional_delay(sig, 0.23 * 2.0)
        assert gardner_recover(delayed).offset_ui == pytest.approx(-0.23, abs=0.02)

    def test_s_curve_odd_symmetry(self, shaped):
        _, sig = shaped
        phases, curve = gardner_s_curve(sig)
        # e(-tau) ~ -e(tau) about the lock point
        for k in range(1, 20):
            plus = curve[(32 + k) % 64]
            minus = curve[(32 - k) % 64]
            assert plus + minus == pytest.approx(0.0, abs=0.15 * max(abs(plus), abs(minus), 1e-4))

    def test_idempotent(self, shaped):
        _, sig = shaped
        delayed = fractional_delay(sig, 0.31 * 2.0)
        first = gardner_recover(delayed)
        corrected = fractional_delay(delayed, first.offset_ui * 2.0)
        assert abs(gardner_recover(corrected).offset_ui) < 0.01

    def test_too_short_block_rejected(self):
        with pytest.raises(ValueError):
            gardner_recover(SampleBuffer(np.ones(100), 2.0))

    def test_no_crossing_flagged(self):
        # a pure DC block has no S-curve zero crossing with usable slope
        with pytest.raises((ClockRecoveryError, ValueError)):
            gardner_recover(SampleBuffer(np.ones(4096), 2.0))

    def test_odd_length_rejected(self):
        # the circular pairing of mid and on-time samples needs whole symbols
        with pytest.raises(ValueError):
            gardner_recover(SampleBuffer(np.ones(4097), 2.0))

    def test_dc_block_has_no_lock(self):
        with pytest.raises(ClockRecoveryError):
            gardner_recover(SampleBuffer(np.ones(4096), 2.0))

    def test_noise_lowers_lock_amplitude(self, shaped):
        # noise below the excess band (|f| < 0.2 cycles/sample here, the
        # band edge starts at 0.225) pairs with no line at Rs - f, so the
        # circular S-curve is unchanged while the block's power grows
        _, sig = shaped
        rms = np.sqrt(np.mean(sig.samples**2))
        white = np.fft.rfft(np.random.default_rng(5).normal(0.0, 3.0 * rms, sig.samples.size))
        white[np.fft.rfftfreq(sig.samples.size) >= 0.2] = 0.0
        noisy = SampleBuffer(sig.samples + np.fft.irfft(white, sig.samples.size), sig.sample_rate)
        clean = gardner_recover(sig)
        heavy = gardner_recover(noisy)
        power_ratio = np.mean(sig.samples**2) / np.mean(noisy.samples**2)
        assert power_ratio < 0.25
        assert heavy.amplitude < clean.amplitude
        assert heavy.amplitude == pytest.approx(clean.amplitude * power_ratio, rel=1e-9)


@st.composite
def band_limited_blocks(draw):
    """Random raised-cosine PAM4 blocks at 2 samples/symbol, delayed by a
    random fraction of a UI, with a random detector polarity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_symbols = draw(st.integers(1000, 4096))
    beta = draw(st.floats(0.1, 1.0))
    delay_ui = draw(st.floats(-0.5, 0.5))
    polarity = draw(st.sampled_from((1, -1)))
    levels = rng.choice(PAM4, n_symbols)
    sig = raised_cosine_shape(SampleBuffer(levels, 1.0), beta, 2)
    return fractional_delay(sig, 2.0 * delay_ui), polarity


class TestGardnerCurve:

    @settings(max_examples=40, deadline=None)
    @given(block=band_limited_blocks())
    def test_circular_curve_is_one_harmonic(self, block):
        sig, polarity = block
        phases, curve = gardner_s_curve(sig, circular=True)
        basis = np.column_stack([np.cos(2 * np.pi * phases), np.sin(2 * np.pi * phases)])
        coeffs, *_ = np.linalg.lstsq(basis, curve, rcond=None)
        residual = curve - basis @ coeffs
        assert np.max(np.abs(residual)) <= 1e-9 * np.ptp(curve)
        # the closed form's lock amplitude is the fitted harmonic's
        power = np.mean(sig.samples**2)
        assert gardner_recover(sig, polarity).amplitude == pytest.approx(
            math.hypot(*coeffs) / power, rel=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(block=band_limited_blocks())
    def test_root_matches_oracle_parabola(self, block):
        # the same crossing search and parabola on the oracle's curve: the
        # curves agree to rounding, so the roots do too
        sig, polarity = block
        phases, curve = gardner_s_curve(sig)
        expected = parabola_root(phases, polarity * curve)
        got = gardner_recover(sig, polarity).offset_ui
        assert ui_distance(got, expected) <= 1e-9
