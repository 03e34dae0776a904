"""Core DSP primitives shared by all modulation chains.

Transforms, rational rate conversion, frequency-domain raised-cosine
pulse shaping, de Bruijn sequence generation, clipping and quantization.  All amplitudes are dimensionless; absolute electrical and
optical scaling is the link model's business.

Block-processing convention: every operation treats its input as one
cyclic block.  Rate conversion and pulse shaping are exact brick-wall
operations in the frequency domain, so a cyclic payload survives a
transmit/receive round trip without edge artifacts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEBRUIJN_LENGTH_CAP = 1 << 24


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class SimulationError(RuntimeError):
    """A block's simulation outcome (divergence, lost clock or sync, infeasible
    loading), recorded per sweep point; any other exception propagates."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SampleBuffer:
    """A uniformly sampled real-valued waveform and its sample rate in Hz, held
    as a read-only view of the fresh array its producer passes in, not a copy."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64).view()
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("SampleBuffer needs a non-empty 1-D sample array")
        if not np.isfinite(samples).all():
            raise ValueError("SampleBuffer samples must be finite")
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", _readonly(samples))
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.samples**2)))


@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """Modulation symbols as indices into an explicit, increasing level alphabet."""

    indices: np.ndarray
    alphabet: np.ndarray

    def __post_init__(self):
        indices = np.array(self.indices, dtype=np.int64)
        alphabet = np.array(self.alphabet, dtype=np.float64)
        if alphabet.ndim != 1 or alphabet.size < 1:
            raise ValueError("alphabet must be a non-empty 1-D array")
        if np.any(np.diff(alphabet) <= 0):
            raise ValueError("alphabet levels must be strictly increasing")
        if indices.size and (indices.min() < 0 or indices.max() >= alphabet.size):
            raise ValueError("symbol indices out of alphabet range")
        object.__setattr__(self, "indices", _readonly(indices))
        object.__setattr__(self, "alphabet", _readonly(alphabet))

    def __len__(self) -> int:
        return self.indices.size

    @property
    def levels(self) -> np.ndarray:
        """Symbol values (alphabet levels picked by the indices)."""
        return self.alphabet[self.indices]


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def fft_pow2(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Real-signal FFT along the last axis (power-of-two sizes only), via ``np.fft``.

    Forward, N real samples give their N/2 + 1 bins from DC to Nyquist;
    inverse, N/2 + 1 bins give the N real samples whose spectrum is those
    bins and their Hermitian mirror, with the 1/N scale.  Vectorized over
    leading axes so a whole frame of DMT symbols transforms in one call.
    """
    x = np.asarray(x)
    n = 2 * (x.shape[-1] - 1) if inverse else x.shape[-1]
    if not _is_pow2(n):
        raise ValueError(f"FFT size must be a power of two, got {n}")
    return np.fft.irfft(x, n, axis=-1) if inverse else np.fft.rfft(x, axis=-1)


# ---------------------------------------------------------------------------
# rate conversion
# ---------------------------------------------------------------------------

def _resampled_length(n: int, up: int, down: int) -> int:
    if up < 1 or down < 1:
        raise ValueError(f"resampling ratio must be positive, got {up}/{down}")
    if (n * up) % down:
        raise ValueError(
            f"length {n} is not divisible for ratio {up}/{down}; "
            "pad the block or pick a compatible block length"
        )
    return n * up // down


def resample(signal: SampleBuffer, up: int, down: int = 1) -> SampleBuffer:
    """Rational rate conversion by brick-wall spectrum zero-padding/truncation.

    The spectrum below the lower of the two Nyquist frequencies is preserved
    exactly; content above it is removed.  The block is treated as cyclic.
    """
    x = signal.samples
    n = x.size
    m = _resampled_length(n, up, down)
    if m == n:
        return signal
    spec = np.fft.rfft(x)
    out_spec = np.zeros(m // 2 + 1, dtype=np.complex128)
    keep = min(spec.size, out_spec.size)
    out_spec[:keep] = spec[:keep]
    if m > n and n % 2 == 0:
        # the old Nyquist bin becomes an interior bin: split its energy
        out_spec[n // 2] = spec[n // 2] / 2.0
    if m < n and m % 2 == 0:
        # an interior bin becomes the new Nyquist bin: fold +f and -f onto it
        out_spec[m // 2] = 2.0 * spec[m // 2].real
    y = np.fft.irfft(out_spec, m) * (m / n)
    return SampleBuffer(y, signal.sample_rate * up / down)


def raised_cosine_response(freqs: np.ndarray, symbol_rate: float, beta: float) -> np.ndarray:
    """Raised-cosine amplitude response evaluated at `freqs` (Hz).

    Unit gain through (1-beta)*Rs/2, cosine rolloff to zero at (1+beta)*Rs/2.
    For beta = 0 the band edges get the half-amplitude value demanded by the
    Nyquist vestigial-symmetry criterion.
    """
    f = np.abs(np.asarray(freqs, dtype=np.float64))
    f1 = (1.0 - beta) * symbol_rate / 2.0
    f2 = (1.0 + beta) * symbol_rate / 2.0
    h = np.zeros_like(f)
    h[f <= f1] = 1.0
    if beta > 0:
        roll = (f > f1) & (f <= f2)
        h[roll] = 0.5 * (1.0 + np.cos(np.pi * (f[roll] - f1) / (beta * symbol_rate)))
    else:
        h[np.isclose(f, symbol_rate / 2.0)] = 0.5
    return h


def raised_cosine_shape(
    symbols: SampleBuffer, beta: float, up: int, down: int = 1
) -> SampleBuffer:
    """Frequency-domain raised-cosine pulse shaping with rational oversampling.

    `symbols` is a waveform at the symbol rate (one sample per symbol).  The
    output runs at symbol_rate*up/down and carries a two-sided bandwidth of
    symbol_rate*(1+beta).  Sampling the output at symbol instants returns the
    input symbols exactly (zero ISI, cyclic convention).
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"roll-off beta must be in [0, 1], got {beta}")
    oversample = Fraction(up, down)
    if oversample < Fraction(1 + beta).limit_denominator(1000):
        raise ValueError(
            f"oversampling {up}/{down} below 1+beta={1 + beta}; the shaped "
            "band would alias"
        )
    x = symbols.samples
    k = x.size
    m = _resampled_length(k, up, down)
    symbol_rate = symbols.sample_rate
    spec = np.fft.fft(x)
    out_freqs = np.fft.fftfreq(m, d=1.0 / (symbol_rate * m / k))
    h = raised_cosine_response(out_freqs, symbol_rate, beta)
    # the comb-upsampled spectrum is the input spectrum repeated every Rs;
    # map each output bin to the source bin holding the same (mod Rs) frequency
    src = np.rint(out_freqs / (symbol_rate / k)).astype(np.int64) % k
    out_spec = spec[src] * h * (m / k)
    # an array of its own: the .real view would keep the complex result alive
    y = np.ascontiguousarray(np.fft.ifft(out_spec).real)
    return SampleBuffer(y, symbol_rate * up / down)


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

def _debruijn_indices(alphabet_size: int, order: int) -> np.ndarray:
    # the FKM construction: the Lyndon words whose length divides the
    # order, generated in lexicographic order (Duval's iteration), concatenated
    k, n = alphabet_size, order
    seq: list[int] = []
    word = [-1]
    while word:
        word[-1] += 1
        m = len(word)
        if n % m == 0:
            seq.extend(word)
        while len(word) < n:
            word.append(word[-m])
        while word and word[-1] == k - 1:
            word.pop()
    return np.array(seq, dtype=np.int64)


def debruijn_sequence(alphabet_size: int, order: int) -> SymbolSequence:
    """k-ary de Bruijn sequence of the given order.

    Every length-`order` word over the alphabet appears exactly once when the
    sequence is read cyclically; the length is alphabet_size**order.  Levels
    are the equidistant alphabet centered on zero (PAM levels for size 4).
    """
    if alphabet_size < 2 or order < 1:
        raise ValueError("need alphabet_size >= 2 and order >= 1")
    length = alphabet_size**order
    if length > DEBRUIJN_LENGTH_CAP:
        raise ValueError(
            f"sequence length {length} exceeds cap {DEBRUIJN_LENGTH_CAP}"
        )
    indices = _debruijn_indices(alphabet_size, order)
    alphabet = 2.0 * np.arange(alphabet_size) - (alphabet_size - 1)
    return SymbolSequence(indices, alphabet)


# ---------------------------------------------------------------------------
# clipping and quantization
# ---------------------------------------------------------------------------

def clip(signal: SampleBuffer, clipping_ratio_db: float) -> SampleBuffer:
    """Symmetric clipping at `rms * 10**(CR/20)`, the RMS taken from the
    signal as presented."""
    if not np.isfinite(clipping_ratio_db):
        raise ValueError("clipping ratio must be finite")
    rms = signal.rms
    if rms <= 0.0:
        raise ValueError("clip level undefined for a zero-power signal")
    level = rms * 10.0 ** (clipping_ratio_db / 20.0)
    return SampleBuffer(np.clip(signal.samples, -level, level), signal.sample_rate)


def quantize(signal: SampleBuffer, bits: int) -> SampleBuffer:
    """Uniform quantization onto the 2**bits levels a DAC reconstructs.

    The full scale is the peak input amplitude (1 for an all-zero input),
    so the full converter resolution is used: [-peak, +peak] maps onto the
    code range 0 .. 2**bits - 1, and each code is returned as its level on
    that span.
    """
    if bits < 1:
        raise ValueError("need at least 1 bit of resolution")
    x = signal.samples
    full_scale = float(np.max(np.abs(x))) or 1.0
    n_codes = (1 << bits) - 1
    codes = np.rint((x + full_scale) / (2.0 * full_scale) * n_codes)
    return SampleBuffer(codes / n_codes * (2.0 * full_scale) - full_scale, signal.sample_rate)


def fractional_delay(signal: SampleBuffer, delay_samples: float) -> SampleBuffer:
    """Cyclic fractional delay via a frequency-domain phase ramp."""
    x = signal.samples
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size)
    spec *= np.exp(-2j * np.pi * freqs * delay_samples)
    return SampleBuffer(np.fft.irfft(spec, x.size), signal.sample_rate)
