"""The per-axis QAM slicer and the per-bit-class DMT mapper/demapper
against the brute-force per-carrier code they replace, plus pinned
end-to-end block error counts.

The oracles are the per-carrier loops with an ``argmin |z - p|`` decision.
On continuous noise the slicer decides exactly as argmin does, so the
receiver comparisons here are exact (``np.array_equal``), never a tolerance.
"""
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imddsim.dmt import (
    EQ_STEP,
    DmtConfig,
    SyncError,
    _equalize_frame,
    _synchronize,
    _template_spectrum,
    _training_template,
    bits_to_symbol_indices,
    constellation,
    dmt_demodulate,
    dmt_modulate,
    map_frame_bits,
    nearest_point,
    probe_loading,
    symbol_indices_to_bits,
    training_symbols,
)
from imddsim.evaluate import DmtExperiment, _dmt_loading, count_ber
from imddsim.link import apply_channel, make_channel
from imddsim.sigproc import SampleBuffer, fft_pow2


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_nearest(z, bits):
    pts = constellation(bits)
    return np.argmin(np.abs(np.ravel(z)[:, None] - pts[None, :]), axis=1).reshape(np.shape(z))


def oracle_map_frame_bits(bits, loading, cfg):
    table = np.asarray(bits, dtype=np.int64).reshape(cfg.data_symbols_per_frame, loading.total_bits)
    carriers = np.zeros((cfg.data_symbols_per_frame, cfg.usable_carriers), dtype=np.complex128)
    offset = 0
    for i in range(cfg.usable_carriers):
        b = int(loading.bits[i])
        if b == 0:
            continue
        idx = bits_to_symbol_indices(table[:, offset : offset + b].reshape(-1), b)
        carriers[:, i] = constellation(b)[idx] * np.sqrt(loading.power[i])
        offset += b
    return carriers


def oracle_equalize_frame(aligned, loading, cfg):
    frame = aligned[: cfg.frame_length].reshape(cfg.frame_symbols, cfg.symbol_length)
    spectra = fft_pow2(frame[:, cfg.cp_length :]) / cfg.fft_length
    received = spectra[:, 1 : cfg.usable_carriers + 1]
    known = training_symbols(loading, cfg)
    active = loading.bits > 0
    h = np.ones(cfg.usable_carriers, dtype=np.complex128)
    safe_known = np.where(np.abs(known) > 0, known, 1.0)
    h_est = np.mean(received[: cfg.training_symbols] / safe_known, axis=0)
    h[active] = h_est[active]
    w = 1.0 / h
    scale = np.sqrt(np.where(active, loading.power, 1.0))
    data = received[cfg.training_symbols :]
    equalized = np.empty_like(data)
    points = {b: constellation(b) for b in np.unique(loading.bits) if b > 0}
    for k in range(data.shape[0]):
        z = w * data[k]
        equalized[k] = z
        decided = np.empty_like(z)
        for b, pts in points.items():
            cols = loading.bits == b
            zc = z[cols] / scale[cols]
            idx = np.argmin(np.abs(zc[:, None] - pts[None, :]), axis=1)
            decided[cols] = pts[idx] * scale[cols]
        err = np.where(active, decided - z, 0.0)
        w = w + EQ_STEP * err * np.conj(data[k])
    return equalized


def oracle_synchronize(rx, loading, cfg):
    """The uncached three-FFT correlation: the template spectrum is
    transformed afresh for every frame."""
    t_cp = _training_template(loading, cfg)
    x = rx.samples
    if x.size < cfg.frame_length:
        raise SyncError(f"need {cfg.frame_length} samples per frame, got {x.size}")
    corr = np.fft.irfft(np.fft.rfft(x) * np.conj(np.fft.rfft(t_cp, x.size)), x.size)
    lag = int(np.argmax(corr))
    window = np.take(x, np.arange(lag, lag + t_cp.size), mode="wrap")
    quality = corr[lag] / max(np.linalg.norm(window) * np.linalg.norm(t_cp), 1e-30)
    if quality < 0.5:
        raise SyncError(f"training correlation {quality:.2f} below the 0.5 threshold")
    return np.roll(x, -(lag - cfg.timing_advance))


def oracle_demodulate(rx, loading, cfg):
    equalized = oracle_equalize_frame(_synchronize(rx, loading, cfg), loading, cfg)
    scale = np.sqrt(np.where(loading.bits > 0, loading.power, 1.0))
    normalized = equalized / scale[np.newaxis, :]
    bits_out = []
    evm = np.zeros(cfg.usable_carriers)
    for i in range(cfg.usable_carriers):
        b = int(loading.bits[i])
        if b == 0:
            continue
        pts = constellation(b)
        z = normalized[:, i]
        idx = np.argmin(np.abs(z[:, None] - pts[None, :]), axis=1)
        evm[i] = float(np.mean(np.abs(z - pts[idx]) ** 2))
        bits_out.append(symbol_indices_to_bits(idx, b).reshape(cfg.data_symbols_per_frame, b))
    return np.concatenate(bits_out, axis=1).reshape(-1), evm


# ---------------------------------------------------------------------------
# slicer
# ---------------------------------------------------------------------------

COORD = st.floats(-1.6, 1.6, allow_nan=False)
# the 32-cross corner regions: both axes beyond the outer decision level
CORNER = st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]),
                   st.floats(0.8, 1.6), st.floats(0.8, 1.6)).map(
    lambda t: (t[0] * t[2], t[1] * t[3]))


class TestSlicer:
    @settings(max_examples=300, deadline=None)
    @given(bits=st.integers(1, 6),
           samples=st.lists(st.one_of(st.tuples(COORD, COORD), CORNER), min_size=1, max_size=40))
    def test_matches_argmin_where_nearest_is_unique(self, bits, samples):
        z = np.array([complex(re, im) for re, im in samples])
        dist = np.sort(np.abs(z[:, None] - constellation(bits)[None, :]), axis=1)
        unique = dist[:, 1] - dist[:, 0] > 1e-9
        assume(unique.any())
        got = nearest_point(z, bits)
        np.testing.assert_array_equal(got[unique], oracle_nearest(z, bits)[unique])

    @pytest.mark.parametrize("bits", range(1, 7))
    def test_noiseless_points_decide_to_themselves(self, bits):
        pts = constellation(bits)
        np.testing.assert_array_equal(nearest_point(pts, bits), np.arange(pts.size))

    @pytest.mark.parametrize("bits", range(1, 7))
    def test_dense_batch_keeps_shape_and_matches_argmin(self, bits):
        rng = np.random.default_rng(bits)
        z = rng.uniform(-1.6, 1.6, (300, 40)) + 1j * rng.uniform(-1.6, 1.6, (300, 40))
        got = nearest_point(z, bits)
        assert got.shape == z.shape
        np.testing.assert_array_equal(got, oracle_nearest(z, bits))

    def test_cross_corners_fall_back_to_the_nearest_edge_point(self):
        pts = constellation(5)
        corner = 5.0 / np.sqrt(20.0)
        z = np.array([corner + 1j * corner * 0.9, -corner * 0.9 - 1j * corner])
        got = nearest_point(z, 5)
        np.testing.assert_array_equal(got, oracle_nearest(z, 5))
        np.testing.assert_allclose(pts[got] * np.sqrt(20.0), [5 + 3j, -3 - 5j])


# ---------------------------------------------------------------------------
# mapper, receiver and golden counts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=[256, 2048])
def noisy_frame(request):
    exp = DmtExperiment(cfg=DmtConfig(fft_length=request.param),
                        channel=make_channel("paper_10km", voa_db=3.8, seed=3), frames=1)
    loading, cfg = exp.loading(), exp.cfg
    bits = np.random.default_rng(5).integers(0, 2, cfg.data_symbols_per_frame * loading.total_bits)
    rx = apply_channel(dmt_modulate(bits, loading, cfg), exp.channel, seed=9)
    return bits, rx, loading, cfg


class TestReceiverParity:
    def test_map_frame_bits(self, noisy_frame):
        bits, _, loading, cfg = noisy_frame
        assert set(np.unique(loading.bits)) >= {1, 3, 5, 6}
        np.testing.assert_array_equal(map_frame_bits(bits, loading, cfg),
                                      oracle_map_frame_bits(bits, loading, cfg))

    def test_equalize_frame(self, noisy_frame):
        _, rx, loading, cfg = noisy_frame
        aligned = _synchronize(rx, loading, cfg)
        equalized, _ = _equalize_frame(aligned, loading, cfg)
        np.testing.assert_array_equal(equalized, oracle_equalize_frame(aligned, loading, cfg))

    def test_synchronize_with_cached_template_spectrum(self, noisy_frame):
        _, rx, loading, cfg = noisy_frame
        probe = probe_loading(cfg)
        shifted = SampleBuffer(np.roll(rx.samples, 1234), rx.sample_rate)
        doubled = SampleBuffer(np.tile(rx.samples, 2), rx.sample_rate)
        noise = SampleBuffer(np.random.default_rng(4).normal(size=rx.samples.size), rx.sample_rate)
        with pytest.raises(SyncError):
            oracle_synchronize(noise, loading, cfg)
        # two loadings and two frame lengths in turn, so entries are
        # evicted and rebuilt between uses
        cases = ((rx, loading), (shifted, loading), (doubled, loading), (rx, probe), (noise, loading))
        for _ in range(2):
            for frame, table in cases:
                try:
                    expected = oracle_synchronize(frame, table, cfg)
                except SyncError as err:
                    with pytest.raises(SyncError, match=re.escape(str(err))):
                        _synchronize(frame, table, cfg)
                else:
                    np.testing.assert_array_equal(_synchronize(frame, table, cfg), expected)
                assert _template_spectrum.cache_info().currsize <= 2

    def test_cached_template_spectrum_is_read_only(self, noisy_frame):
        _, rx, loading, cfg = noisy_frame
        spectrum, _, _ = _template_spectrum(loading, cfg, rx.samples.size)
        with pytest.raises(ValueError):
            spectrum[0] = 0.0

    def test_demodulate_bits_and_evm(self, noisy_frame):
        bits, rx, loading, cfg = noisy_frame
        got_bits, got_evm = dmt_demodulate(rx, loading, cfg)
        ref_bits, ref_evm = oracle_demodulate(rx, loading, cfg)
        assert np.count_nonzero(got_bits != bits) > 0
        np.testing.assert_array_equal(got_bits, ref_bits)
        np.testing.assert_array_equal(got_evm, ref_evm)


def test_probe_template_spectrum_built_once_per_config():
    cfg = DmtConfig(fft_length=256)
    assert probe_loading(cfg) is probe_loading(cfg)
    # both points must estimate their SNR on the probe frame
    _dmt_loading.cache_clear()
    _template_spectrum.cache_clear()
    for voa_db in (2.8, 3.8):
        DmtExperiment(cfg=cfg, channel=make_channel("paper_10km", voa_db=voa_db, seed=3),
                      frames=1).run_block(seed=11)
    # one probe entry shared by both points, one data entry per point
    assert _template_spectrum.cache_info().misses == 3


@pytest.mark.parametrize("fft_length, n_bits, errors", [(256, 44392, 13), (2048, 355012, 33)])
def test_golden_block_errors(fft_length, n_bits, errors):
    # recorded with the radix-2 FFT and the per-carrier argmin demapper
    exp = DmtExperiment(cfg=DmtConfig(fft_length=fft_length),
                        channel=make_channel("paper_10km", voa_db=2.8, seed=3), frames=1)
    tx_bits, rx_bits = exp.run_block(seed=11)
    assert tx_bits.size == n_bits
    assert count_ber(tx_bits, rx_bits).bit_errors == errors
