"""Nyquist PAM4 and partial-response PAM4 transmit/receive chains.

Gray mapping, delay-and-add partial-response encoding, the drive levels
that pre-compensate the EML curve, the transmitter as the modeled
`link.CONVERTER_RATE` DAC (shaped straight to its rate, clipped,
quantized), and the symbol-rate receive path.  The adaptive blocks (FFE, MLSE, clock recovery)
live in :mod:`imddsim.adaptive`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import adaptive, sigproc
from .adaptive import MlseConfig
from .link import CONVERTER_RATE, DAC_BITS, EML_BIAS_V, eml_drive_for_power, eml_power_mw
from .sigproc import SampleBuffer, SimulationError, SymbolSequence


class PayloadSyncError(SimulationError):
    """Receiver could not align the equalized stream to the known payload."""


# ---------------------------------------------------------------------------
# mapping
# ---------------------------------------------------------------------------

GRAY_PAM4 = ((0, 0), (0, 1), (1, 1), (1, 0))
"""Bit pair of each PAM4 level index, lowest level first (Gray: adjacent
levels differ in exactly one bit)."""

PAM4_LEVELS = (-3.0, -1.0, 1.0, 3.0)
"""The four equidistant PAM4 levels, in index order."""

# level index of each bit pair, looked up by 2 * first bit + second bit
_INDEX_OF_PAIR = np.argsort([2 * b1 + b2 for b1, b2 in GRAY_PAM4])


def pam4_map(bits) -> SymbolSequence:
    """Encode 2 bits per symbol on the Gray table; inverse of :func:`pam4_demap`."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size % 2:
        raise ValueError("bit count must be even")
    pairs = bits.reshape(-1, 2) if bits.size else np.empty((0, 2), dtype=np.int64)
    indices = _INDEX_OF_PAIR[pairs[:, 0] * 2 + pairs[:, 1]]
    return SymbolSequence(indices, PAM4_LEVELS)


def pam4_demap(indices) -> np.ndarray:
    """Symbol indices back to the bit stream."""
    indices = np.asarray(indices, dtype=np.int64)
    return np.asarray(GRAY_PAM4, dtype=np.int64)[indices].reshape(-1)


def pr_encode(symbols: SymbolSequence) -> SymbolSequence:
    """Delay-and-add partial-response encoding: out[k] = in[k] + in[k-1].

    The four input levels become seven output levels; the virtual symbol
    before the block start is the lowest level (the MLSE trellis starts
    from the matching state).  No pre-coder, per the MLSE-based receiver.
    """
    if symbols.alphabet.size != 4:
        raise ValueError("partial-response encoding expects a PAM4 input alphabet")
    lv = symbols.levels
    prev = np.concatenate(([symbols.alphabet[0]], lv[:-1]))
    summed = lv + prev
    step = symbols.alphabet[1] - symbols.alphabet[0]
    lo = 2 * symbols.alphabet[0]
    out_alphabet = lo + step * np.arange(7)
    indices = np.rint((summed - lo) / step).astype(np.int64)
    return SymbolSequence(indices, out_alphabet)


# ---------------------------------------------------------------------------
# level adjustment
# ---------------------------------------------------------------------------

def level_adjustment_for_eml(n_levels: int) -> np.ndarray:
    """The `n_levels` drive levels, increasing, that give equally spaced
    optical powers.

    Inverts the EML transfer curve at its operating point: a full-swing
    (+/-1 V) drive of the top/bottom adjusted level lands on equally
    spaced power levels after the modulator.  The levels live on the scale
    of the nominal equidistant alphabet 2k - (n - 1).
    """
    nominal = 2.0 * np.arange(n_levels) - (n_levels - 1)
    span = nominal[-1]
    p_lo = float(eml_power_mw(EML_BIAS_V - 1.0))
    p_hi = float(eml_power_mw(EML_BIAS_V + 1.0))
    targets = np.linspace(p_lo, p_hi, n_levels)
    volts = eml_drive_for_power(targets)
    return (volts - EML_BIAS_V) * span


# ---------------------------------------------------------------------------
# transmit chain
# ---------------------------------------------------------------------------

RC_BETA = 0.1
"""Roll-off of the raised-cosine (Nyquist) pulse shaping."""

OVERSAMPLE = Fraction(3, 2)
"""DAC samples per symbol: the shaper runs straight at this rational rate."""

SYMBOL_RATE = CONVERTER_RATE / OVERSAMPLE
"""The symbol rate the converter sets: 84 GS/s / (3/2) = 56 GBd, 112 Gb/s of PAM4."""


@dataclass(frozen=True)
class PamTxConfig:
    """Transmit chain settings.

    `level_adjust` sends the symbols on :func:`level_adjustment_for_eml`'s
    drive levels instead of the equidistant alphabet.
    """

    partial_response: bool = False
    level_adjust: bool = False
    pre_emphasis_taps: tuple[float, ...] | None = None
    clipping_ratio_db: float | None = 15.0


def adjusted_symbol_values(bits, cfg: PamTxConfig) -> SymbolSequence:
    """Map (and PR-encode) the payload, then apply the level adjustment.

    These are the symbol values entering the pulse shaper.
    """
    seq = pam4_map(bits)
    if cfg.partial_response:
        seq = pr_encode(seq)
    if cfg.level_adjust:
        return SymbolSequence(seq.indices, level_adjustment_for_eml(seq.alphabet.size))
    return seq


def shape_pulses(levels: np.ndarray) -> SampleBuffer:
    """Symbol values at `SYMBOL_RATE` to the DAC-rate waveform: raised
    cosine at `RC_BETA`, shaped straight to `OVERSAMPLE` samples/symbol."""
    return sigproc.raised_cosine_shape(SampleBuffer(levels, SYMBOL_RATE), RC_BETA,
                                       *OVERSAMPLE.as_integer_ratio())


def pam_transmit(bits, cfg: PamTxConfig) -> SampleBuffer:
    """Full transmit chain to the DAC output waveform.

    map -> optional delay-and-add -> optional EML level adjustment ->
    raised-cosine shaping at the DAC rate -> optional pre-emphasis FIR ->
    clip -> quantize to the `DAC_BITS` levels over the waveform's peak.
    The returned waveform runs at `CONVERTER_RATE` and includes the
    quantization error.
    """
    wave = shape_pulses(adjusted_symbol_values(bits, cfg).levels)
    if cfg.pre_emphasis_taps is not None:
        taps = np.asarray(cfg.pre_emphasis_taps)
        wave = SampleBuffer(adaptive.apply_taps_cyclic(wave.samples, taps), wave.sample_rate)
    if cfg.clipping_ratio_db is not None:
        wave = sigproc.clip(wave, cfg.clipping_ratio_db)
    return sigproc.quantize(wave, DAC_BITS)


# ---------------------------------------------------------------------------
# receive chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PamRxConfig:
    """Receive chain settings.

    `mlse_memory` None selects the hard decision; partial-response
    reception requires an MLSE (memory >= 1), and runs the one 4-state
    delay-and-add trellis at any memory (see `trellis_memory`).
    """

    n_ffe_taps: int = 41
    mlse_memory: int | None = None
    partial_response: bool = False

    def __post_init__(self):
        if self.mlse_memory is not None and self.mlse_memory < 1:
            raise ValueError(f"MLSE memory must be >= 1 or None, got {self.mlse_memory}")
        if self.partial_response and self.mlse_memory is None:
            raise ValueError("partial-response reception needs an MLSE (memory >= 1)")

    @property
    def trellis_memory(self) -> int | None:
        """The memory of the MLSE trellis this receiver runs (None: the hard
        decision); delay-and-add remembers one symbol at any `mlse_memory`."""
        return 1 if self.partial_response else self.mlse_memory


def _alignment_lag(stream: np.ndarray, reference: np.ndarray) -> int:
    """Cyclic lag maximizing correlation; raises on a weak peak."""
    a = stream - np.mean(stream)
    b = reference - np.mean(reference)
    corr = np.fft.irfft(np.fft.rfft(a) * np.conj(np.fft.rfft(b)), a.size)
    lag = int(np.argmax(corr))
    peak = corr[lag] / (np.linalg.norm(a) * np.linalg.norm(b))
    if peak < 0.25:
        raise PayloadSyncError(f"payload correlation peak {peak:.2f} below threshold")
    return lag


def pam_receive(signal: SampleBuffer, cfg: PamRxConfig, payload: SymbolSequence) -> np.ndarray:
    """Full receive chain back to bits: :func:`pam_front_end`, then
    :func:`pam_back_end` of this one block.

    `payload` is the transmitted PAM4 sequence (before any partial-response
    encoding).  Clock and alignment failures raise rather than returning
    garbage bits.
    """
    reference = ffe_reference(payload, cfg)
    front = pam_front_end(signal, cfg, reference)
    (rx_bits,) = pam_back_end([front], [cfg], reference)
    return rx_bits


def ffe_reference(payload: SymbolSequence, cfg: PamRxConfig) -> SymbolSequence:
    """The known symbols the FFE trains on: the payload, delay-and-add
    encoded for partial response."""
    return pr_encode(payload) if cfg.partial_response else payload


def pam_front_end(signal: SampleBuffer, cfg: PamRxConfig, reference: SymbolSequence) -> np.ndarray:
    """The receive chain up to the FFE: resample to 2 samples/symbol,
    correct the Gardner phase, decimate to the symbol rate and align to
    `reference` (see :func:`ffe_reference`)."""
    two_sps = _to_two_sps(signal)
    polarity = -1 if cfg.partial_response else 1
    phase = adaptive.gardner_recover(two_sps, polarity=polarity)
    corrected = sigproc.fractional_delay(two_sps, phase.offset_ui * 2.0)
    at_symbols = corrected.samples[0::2]
    lag = _alignment_lag(at_symbols, reference.levels)
    return np.roll(at_symbols, -lag)


def pam_back_end(
    fronts: list[np.ndarray],
    cfgs: list[PamRxConfig],
    reference: SymbolSequence,
) -> list[np.ndarray]:
    """The receive chain from the FFE on for a batch of :func:`pam_front_end`
    outputs aligned to `reference` (see :func:`ffe_reference`), block b
    received with ``cfgs[b]``: one FFE over the batch (each block's
    least-squares start, then one LMS pass), each block's hard decision or
    MLSE, then demap.

    The blocks share one FFE length and format, and each gets its bits.
    Every MLSE block, each on its own trellis, goes through one
    :func:`adaptive.mlse_detect_batch`.
    `fronts` is emptied once equalized, so the front-end outputs are freed
    before the trellis runs.
    """
    if not fronts:
        return []
    equalized = adaptive.lms_equalize_batch(fronts, reference, cfgs[0].n_ffe_taps)
    fronts.clear()
    alphabet = np.asarray(PAM4_LEVELS)
    mids = (alphabet[1:] + alphabet[:-1]) / 2.0
    # each block's symbol indices
    indices: list = [None] * len(equalized)
    mlse_blocks = []
    for b, (eq, cfg) in enumerate(zip(equalized, cfgs)):
        if cfg.trellis_memory is None:
            indices[b] = np.searchsorted(mids, eq.output)
        else:
            mlse_blocks.append(b)
    trellises = [_trellis(equalized[b].output, cfgs[b], reference) for b in mlse_blocks]
    detected = adaptive.mlse_detect_batch([equalized[b].output for b in mlse_blocks], trellises)
    for b, sequence in zip(mlse_blocks, detected):
        indices[b] = sequence.indices
    return [pam4_demap(i) for i in indices]


def _trellis(equalized: np.ndarray, cfg: PamRxConfig, reference: SymbolSequence) -> MlseConfig:
    """The MLSE trellis of one block: delay-and-add for partial response,
    else the residual channel fitted to the equalized block against
    `reference`, which for Nyquist PAM4 is the payload."""
    if cfg.partial_response:
        return MlseConfig.partial_response(PAM4_LEVELS)
    h = _fit_residual_channel(equalized, reference.levels, cfg.trellis_memory)
    return MlseConfig.for_fir_channel(h, PAM4_LEVELS, start_symbol=None)


def _to_two_sps(signal: SampleBuffer) -> SampleBuffer:
    """`signal` resampled from its own rate to 2 samples per `SYMBOL_RATE` symbol."""
    ratio = Fraction(int(round(2.0 * SYMBOL_RATE)), int(round(signal.sample_rate)))
    return sigproc.resample(signal, ratio.numerator, ratio.denominator)


def _fit_residual_channel(equalized: np.ndarray, true_levels: np.ndarray, memory: int) -> np.ndarray:
    """Least-squares post-FFE response of length memory+1 (for the
    FFE+MLSE combination, which replaces the hard decision)."""
    cols = [np.roll(true_levels, k) for k in range(memory + 1)]
    design = np.stack(cols, axis=1)
    h, *_ = np.linalg.lstsq(design, equalized, rcond=None)
    return h
