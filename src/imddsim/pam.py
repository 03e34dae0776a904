"""Nyquist PAM4 and partial-response PAM4 transmit/receive chains.

Gray mapping, delay-and-add partial-response encoding, modulator level
adjustment, and the full DAC-rate transmit and symbol-rate receive paths.
The adaptive blocks (FFE, MLSE, clock recovery) live in
:mod:`imddsim.adaptive`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import adaptive, sigproc
from .adaptive import MlseConfig
from .link import EML_BIAS_V, eml_drive_for_power, eml_power_mw
from .sigproc import SampleBuffer, SymbolSequence


class PayloadSyncError(RuntimeError):
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

@dataclass(frozen=True)
class LevelAdjustment:
    """Adjusted symbol levels that pre-compensate the modulator curve.

    Values live on the scale of the nominal equidistant alphabet
    2k - (n - 1).
    """

    target_levels: tuple[float, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.target_levels, self.target_levels[1:])):
            raise ValueError("adjusted levels must be monotone increasing")

    @property
    def alphabet(self) -> np.ndarray:
        return np.asarray(self.target_levels)


def level_adjustment_for_eml(n_levels: int) -> LevelAdjustment:
    """Derive adjusted drive levels giving equally spaced optical powers.

    Inverts the EML transfer curve at its operating point: a full-swing
    (+/-1 V) drive of the top/bottom adjusted level lands on equally
    spaced power levels after the modulator.
    """
    nominal = 2.0 * np.arange(n_levels) - (n_levels - 1)
    span = nominal[-1]
    p_lo = float(eml_power_mw(EML_BIAS_V - 1.0))
    p_hi = float(eml_power_mw(EML_BIAS_V + 1.0))
    targets = np.linspace(p_lo, p_hi, n_levels)
    volts = eml_drive_for_power(targets)
    levels = (volts - EML_BIAS_V) * span
    return LevelAdjustment(tuple(levels))


# ---------------------------------------------------------------------------
# transmit chain
# ---------------------------------------------------------------------------

RC_BETA = 0.1
"""Roll-off of the raised-cosine (Nyquist) pulse shaping."""

OVERSAMPLE = Fraction(3, 2)
"""DAC samples per symbol.  The shaper runs at the numerator (3 samples per
symbol) and every denominator-th (second) sample is kept."""

DAC_BITS = 8
"""DAC resolution."""


@dataclass(frozen=True)
class PamTxConfig:
    """Transmit chain settings; symbol_rate * OVERSAMPLE is the DAC rate."""

    symbol_rate: float = 56e9
    partial_response: bool = False
    level_adjust: LevelAdjustment | None = None
    pre_emphasis_taps: tuple[float, ...] | None = None
    clipping_ratio_db: float | None = 15.0

    @property
    def dac_rate(self) -> float:
        return float(self.symbol_rate * OVERSAMPLE)

    @property
    def n_levels(self) -> int:
        return 7 if self.partial_response else 4


def adjusted_symbol_values(bits, cfg: PamTxConfig) -> SymbolSequence:
    """Map (and PR-encode) the payload, then apply the level adjustment.

    These are the symbol values entering the pulse shaper.
    """
    seq = pam4_map(bits)
    if cfg.partial_response:
        seq = pr_encode(seq)
    if cfg.level_adjust is not None:
        adjust = cfg.level_adjust.alphabet
        if adjust.size != seq.alphabet.size:
            raise ValueError(
                f"level adjustment has {adjust.size} levels, chain needs {seq.alphabet.size}"
            )
        return SymbolSequence(seq.indices, adjust)
    return seq


def shape_pulses(levels: np.ndarray, symbol_rate: float) -> SampleBuffer:
    """Symbol values to the DAC-rate waveform: raised cosine at `RC_BETA`
    with 3 samples/symbol, then every second sample kept."""
    symbols = SampleBuffer(levels, symbol_rate)
    shaped = sigproc.raised_cosine_shape(symbols, RC_BETA, OVERSAMPLE.numerator)
    step = OVERSAMPLE.denominator
    return SampleBuffer(shaped.samples[::step], shaped.sample_rate / step)


def pam_transmit(bits, cfg: PamTxConfig) -> SampleBuffer:
    """Full transmit chain to the DAC output waveform.

    map -> optional delay-and-add -> level adjustment -> raised-cosine
    shaping at 3 samples/symbol -> keep every second sample -> optional
    pre-emphasis FIR -> clip -> quantize to the DAC resolution.  The
    returned waveform runs at the DAC rate (84 GS/s for the 112 Gb/s
    configuration) and includes the quantization error.
    """
    wave = shape_pulses(adjusted_symbol_values(bits, cfg).levels, cfg.symbol_rate)
    if cfg.pre_emphasis_taps is not None:
        taps = np.asarray(cfg.pre_emphasis_taps)
        wave = SampleBuffer(adaptive.apply_taps_cyclic(wave.samples, taps), wave.sample_rate)
    if cfg.clipping_ratio_db is not None:
        wave = sigproc.clip(wave, cfg.clipping_ratio_db)
    full_scale = float(np.max(np.abs(wave.samples)))
    codes = sigproc.quantize(wave, DAC_BITS, full_scale)
    return sigproc.dequantize(codes, DAC_BITS, full_scale)


# ---------------------------------------------------------------------------
# receive chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PamRxConfig:
    """Receive chain settings.

    `mlse_memory` None selects the hard decision; partial-response
    reception requires an MLSE (memory >= 1).
    """

    symbol_rate: float = 56e9
    n_ffe_taps: int = 41
    mlse_memory: int | None = None
    partial_response: bool = False

    def __post_init__(self):
        if self.partial_response and self.mlse_memory is None:
            raise ValueError("partial-response reception needs an MLSE (memory >= 1)")


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
    encoding).  Equalizer divergence and alignment failures raise rather
    than returning garbage bits.
    """
    front = pam_front_end(signal, cfg, ffe_reference(payload, cfg))
    (rx_bits,) = pam_back_end([front], [cfg], payload)
    if isinstance(rx_bits, Exception):
        raise rx_bits
    return rx_bits


def ffe_reference(payload: SymbolSequence, cfg: PamRxConfig) -> SymbolSequence:
    """The known symbols the FFE trains on: the payload, delay-and-add
    encoded for partial response."""
    return pr_encode(payload) if cfg.partial_response else payload


def pam_front_end(signal: SampleBuffer, cfg: PamRxConfig, reference: SymbolSequence) -> np.ndarray:
    """The receive chain up to the FFE: resample to 2 samples/symbol,
    correct the Gardner phase, decimate to the symbol rate and align to
    `reference` (see :func:`ffe_reference`)."""
    two_sps = _to_two_sps(signal, cfg.symbol_rate)
    polarity = -1 if cfg.partial_response else 1
    phase = adaptive.gardner_recover(two_sps, polarity=polarity)
    corrected = sigproc.fractional_delay(two_sps, phase.offset_ui * 2.0)
    at_symbols = corrected.samples[0::2]
    lag = _alignment_lag(at_symbols, reference.levels)
    return np.roll(at_symbols, -lag)


def pam_back_end(
    fronts: list[np.ndarray],
    cfgs: list[PamRxConfig],
    payload: SymbolSequence,
) -> list[np.ndarray | Exception]:
    """The receive chain from the FFE on for a batch of :func:`pam_front_end`
    outputs of `payload`, block b received with ``cfgs[b]``: one LMS FFE
    (data-aided then decision-directed) over the batch, each block's hard
    decision or MLSE, then demap.

    The blocks share one FFE length and format.  Each gets its bits or its
    exception: every block the ValueError of an even FFE length, a
    diverged block its EqualizerDivergence, a block whose trellis cannot
    be built (a memory shorter than the channel's, say) that ValueError.
    Every MLSE block, each on its own trellis, goes through one
    :func:`adaptive.mlse_detect_batch`.  `fronts` is emptied once
    equalized, so the front-end outputs are freed before the trellis runs.
    """
    if not fronts:
        return []
    reference = ffe_reference(payload, cfgs[0])
    try:
        equalized = adaptive.lms_equalize_batch(fronts, reference, cfgs[0].n_ffe_taps)
    except ValueError as exc:  # an even FFE length fails every block alike
        return [exc] * len(fronts)
    fronts.clear()
    alphabet = np.asarray(PAM4_LEVELS)
    mids = (alphabet[1:] + alphabet[:-1]) / 2.0
    # each block's symbol indices, or its exception
    indices: list = [eq if isinstance(eq, Exception) else None for eq in equalized]
    mlse_blocks = []
    trellises = []
    for b, (eq, cfg) in enumerate(zip(equalized, cfgs)):
        if indices[b] is not None:
            continue
        if cfg.mlse_memory is None:
            indices[b] = np.searchsorted(mids, eq.output)
            continue
        try:
            trellises.append(_trellis(eq.output, cfg, payload))
        except ValueError as exc:  # this block fails, the others run on
            indices[b] = exc
            continue
        mlse_blocks.append(b)
    detected = adaptive.mlse_detect_batch([equalized[b].output for b in mlse_blocks], trellises)
    for b, sequence in zip(mlse_blocks, detected):
        indices[b] = sequence.indices
    return [i if isinstance(i, Exception) else pam4_demap(i) for i in indices]


def _trellis(equalized: np.ndarray, cfg: PamRxConfig, payload: SymbolSequence) -> MlseConfig:
    """The MLSE trellis of one block: delay-and-add for partial response,
    else the residual channel fitted to the equalized block."""
    if cfg.partial_response:
        return MlseConfig.partial_response(PAM4_LEVELS, cfg.mlse_memory)
    h = _fit_residual_channel(equalized, payload.levels, cfg.mlse_memory)
    return MlseConfig.for_fir_channel(h, PAM4_LEVELS, cfg.mlse_memory, start_symbol=None)


def _to_two_sps(signal: SampleBuffer, symbol_rate: float) -> SampleBuffer:
    target = 2.0 * symbol_rate
    ratio = Fraction(int(round(target)), int(round(signal.sample_rate)))
    return sigproc.resample(signal, ratio.numerator, ratio.denominator)


def _fit_residual_channel(equalized: np.ndarray, true_levels: np.ndarray, memory: int) -> np.ndarray:
    """Least-squares post-FFE response of length memory+1 (for the
    FFE+MLSE combination, which replaces the hard decision)."""
    cols = [np.roll(true_levels, k) for k in range(memory + 1)]
    design = np.stack(cols, axis=1)
    h, *_ = np.linalg.lstsq(design, equalized, rcond=None)
    return h
