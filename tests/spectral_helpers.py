"""Spectral measurement helpers shared by the test modules (not library API)."""
import numpy as np

from imddsim.sigproc import SampleBuffer


def average_psd(signal: SampleBuffer, nfft: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Block-averaged one-sided power spectral density (linear units).

    Returns (frequencies Hz, PSD).  Plain rectangular-windowed periodogram
    average; fine for the smooth spectra handled here.
    """
    x = signal.samples
    nfft = min(nfft, x.size)
    n_blocks = x.size // nfft
    blocks = x[: n_blocks * nfft].reshape(n_blocks, nfft)
    spec = np.fft.rfft(blocks, axis=1)
    psd = np.mean(np.abs(spec) ** 2, axis=0) / nfft
    freqs = np.fft.rfftfreq(nfft, d=1.0 / signal.sample_rate)
    return freqs, psd


def occupied_bandwidth(signal: SampleBuffer, threshold_db: float = -20.0, nfft: int = 4096) -> float:
    """Two-sided occupied bandwidth: twice the highest frequency whose PSD is
    within `threshold_db` of the in-band peak."""
    freqs, psd = average_psd(signal, nfft)
    floor = np.max(psd) * 10.0 ** (threshold_db / 10.0)
    above = np.nonzero(psd >= floor)[0]
    if above.size == 0:
        return 0.0
    return 2.0 * float(freqs[above[-1]])


def frequency_response(taps, freqs: np.ndarray, sample_rate: float) -> np.ndarray:
    """Zero-phase-referenced response of FFE taps (center tap at delay 0)."""
    n = np.arange(len(taps)) - len(taps) // 2
    phases = np.exp(-2j * np.pi * np.outer(freqs, n) / sample_rate)
    return phases @ taps.coefficients
