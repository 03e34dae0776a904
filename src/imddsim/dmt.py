"""DMT modem: framing, Hermitian-symmetric IFFT, cyclic prefix, clipping,
SNR estimation from known probe frames, Chow bit loading, Cioffi power
loading, correlation synchronization and the decision-directed 1-tap
equalizer.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .link import CONVERTER_RATE
from .sigproc import SampleBuffer, SimulationError, clip, fft_pow2

_TRAINING_SEED = 0x7261696E
_PROBE_SEED = 0x70726F62

SNR_CEILING_DB = 60.0
"""Cap on the per-carrier SNR estimate of :func:`estimate_snr`."""

EQ_STEP = 1e-3
"""Step size of the decision-directed 1-tap equalizer."""

CHOW_GAP_DB = 9.8
"""SNR gap of :func:`chow_bit_loading` (uncoded QAM)."""

CHOW_MARGIN_FLOOR_DB = -12.0
"""Lowest margin :func:`chow_bit_loading` tries before a target counts as
infeasible."""


class SyncError(SimulationError):
    """Frame synchronization failed (correlation peak below threshold)."""


class LoadingError(SimulationError):
    """Requested bit total is not achievable; carries the achievable max."""

    def __init__(self, target: int, achievable: int):
        super().__init__(f"target {target} bits/symbol infeasible, achievable {achievable}")
        self.achievable = achievable


# ---------------------------------------------------------------------------
# configuration and loading tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DmtConfig:
    """DMT system parameters (defaults follow the 112 Gb/s setup).  The
    carrier plan follows from the FFT length."""

    fft_length: int = 512
    cp_fraction: Fraction = Fraction(1, 64)
    data_symbols_per_frame: int = 124
    training_symbols: int = 4
    clipping_ratio_db: float | None = 10.0
    target_bit_rate: float = 112e9

    def __post_init__(self):
        n = self.fft_length
        if n < 4 or n & (n - 1):
            raise ValueError(f"FFT length must be a power of two, got {n}")
        if not isinstance(self.cp_fraction, Fraction):
            object.__setattr__(self, "cp_fraction", Fraction(self.cp_fraction).limit_denominator(4096))
        if self.cp_fraction < 0:
            raise ValueError(f"cp_fraction must be >= 0, got {self.cp_fraction}")
        if (self.cp_fraction * n).denominator != 1:
            raise ValueError("cp_fraction * fft_length must be an integer sample count")

    @property
    def usable_carriers(self) -> int:
        """Carriers 1 .. N/2 - 1: every bin but DC and Nyquist."""
        return self.fft_length // 2 - 1

    @property
    def max_loaded_carriers(self) -> int:
        """The 242 loaded carriers of the 512-point setup, scaled to N (the
        same occupied bandwidth)."""
        return min(self.usable_carriers, self.fft_length * 242 // 512)

    @property
    def cp_length(self) -> int:
        return int(self.cp_fraction * self.fft_length)

    @property
    def timing_advance(self) -> int:
        """FFT-window backoff into the cyclic prefix.  The modeled channel
        responses are zero-phase (two-sided), so centering the guard halves
        the prefix between their causal and anticausal tails."""
        return self.cp_length // 2

    @property
    def symbol_length(self) -> int:
        return self.fft_length + self.cp_length

    @property
    def frame_symbols(self) -> int:
        return self.data_symbols_per_frame + self.training_symbols

    @property
    def frame_length(self) -> int:
        return self.frame_symbols * self.symbol_length


@dataclass(frozen=True, eq=False)
class LoadingTable:
    """Per-carrier (bits, linear power scale) allocation."""

    bits: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        bits = np.array(self.bits, dtype=np.int64)
        power = np.array(self.power, dtype=np.float64)
        if bits.shape != power.shape or bits.ndim != 1:
            raise ValueError("bits and power must be 1-D arrays of equal length")
        if bits.min(initial=0) < 0 or bits.max(initial=0) > 6:
            raise ValueError("per-carrier bits must lie in 0..6")
        if np.any(power < 0) or np.any((bits == 0) & (power != 0)):
            raise ValueError("zero-bit carriers must carry zero power")
        bits.setflags(write=False)
        power.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "power", power)

    @property
    def total_bits(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True, eq=False)
class SnrProfile:
    """Per-carrier SNR estimates in dB (carrier 1 .. usable_carriers)."""

    snr_db: np.ndarray

    def __post_init__(self):
        snr = np.array(self.snr_db, dtype=np.float64)
        if np.any(np.isnan(snr)):
            raise ValueError("SNR estimates must not be NaN")
        snr.setflags(write=False)
        object.__setattr__(self, "snr_db", snr)


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

def _gray(n: int) -> np.ndarray:
    codes = np.arange(n)
    return codes ^ (codes >> 1)


@lru_cache(maxsize=8)
def constellation(bits: int) -> np.ndarray:
    """Unit-average-power constellation for b = 1..6 bits per symbol.

    Square QAM for even b, BPSK for b = 1, rectangular 4x2 for b = 3 and
    the standard 32-cross for b = 5.  Index equals the integer value of the
    bit group; gray coding per axis where the geometry allows it.
    """
    if bits == 1:
        points = np.array([-1.0 + 0j, 1.0 + 0j])
    elif bits in (2, 4, 6):
        half = bits // 2
        m = 1 << half
        pam = 2 * np.arange(m) - (m - 1)
        axis = np.empty(m)
        axis[_gray(m)] = pam  # gray code g maps to pam[g]
        idx = np.arange(1 << bits)
        points = axis[idx >> half] + 1j * axis[idx & (m - 1)]
    elif bits == 3:
        i_axis = np.empty(4)
        i_axis[_gray(4)] = 2 * np.arange(4) - 3
        q_axis = np.empty(2)
        q_axis[_gray(2)] = 2 * np.arange(2) - 1
        idx = np.arange(8)
        points = i_axis[idx >> 1] + 1j * q_axis[idx & 1]
    elif bits == 5:
        # 6x6 grid minus the four corners
        grid = 2 * np.arange(6) - 5
        pts = [complex(a, b) for a in grid for b in grid if not (abs(a) == 5 and abs(b) == 5)]
        points = np.array(pts)
    else:
        raise ValueError(f"unsupported constellation size {bits} bits")
    points = points / np.sqrt(np.mean(np.abs(points) ** 2))
    points.setflags(write=False)
    return points


@lru_cache(maxsize=8)
def _slicer_table(bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Per-axis decision table of :func:`constellation`.

    Every constellation is a subset of the product grid of its I levels
    and its Q levels.  Returns the midpoints between the sorted I levels,
    the midpoints between the sorted Q levels, a LUT from (I index,
    Q index) to the constellation index, -1 where the grid has no point
    (the four 32-cross corners), and whether the LUT has such holes.
    """
    points = constellation(bits)
    i_levels, i_pos = np.unique(points.real, return_inverse=True)
    q_levels, q_pos = np.unique(points.imag, return_inverse=True)
    lut = np.full((i_levels.size, q_levels.size), -1, dtype=np.intp)
    lut[i_pos, q_pos] = np.arange(points.size)
    i_mid = (i_levels[1:] + i_levels[:-1]) / 2.0
    q_mid = (q_levels[1:] + q_levels[:-1]) / 2.0
    for table in (i_mid, q_mid, lut):
        table.setflags(write=False)
    return i_mid, q_mid, lut, points.size < lut.size


def nearest_point(z: np.ndarray, bits: int) -> np.ndarray:
    """Index of the :func:`constellation` point nearest to each sample of z
    (any shape; the result has the same shape).

    Two per-axis ``searchsorted`` calls and one LUT lookup decide; only the
    samples that land on a missing 32-cross corner fall back to a
    brute-force ``argmin |z - p|``.  The result equals ``argmin |z - p|``
    everywhere except on exact distance ties (a sample on a decision
    boundary), which continuous noise never produces.
    """
    i_mid, q_mid, lut, has_holes = _slicer_table(bits)
    idx = lut[i_mid.searchsorted(z.real), q_mid.searchsorted(z.imag)]
    if has_holes:
        holes = idx < 0
        if holes.any():
            idx[holes] = np.argmin(np.abs(z[holes][:, None] - constellation(bits)), axis=1)
    return idx


def bits_to_symbol_indices(bits: np.ndarray, width: int) -> np.ndarray:
    weights = 1 << np.arange(width - 1, -1, -1)
    return bits.reshape(-1, width) @ weights


def symbol_indices_to_bits(indices: np.ndarray, width: int) -> np.ndarray:
    shifts = np.arange(width - 1, -1, -1)
    return ((indices[:, None] >> shifts) & 1).reshape(-1)


# ---------------------------------------------------------------------------
# rate arithmetic
# ---------------------------------------------------------------------------

def rate_to_bits(cfg: DmtConfig) -> int:
    """Bits per data symbol needed for the target net rate at `CONVERTER_RATE`.

    Accounts for the cyclic prefix and the 4-in-128 training overhead;
    rounded up to the next integer.
    """
    rate = Fraction(int(round(cfg.target_bit_rate)))
    fs = Fraction(int(round(CONVERTER_RATE)))
    per_symbol = (
        rate * cfg.fft_length * (1 + cfg.cp_fraction) * cfg.frame_symbols
        / (cfg.data_symbols_per_frame * fs)
    )
    return int(-(-per_symbol.numerator // per_symbol.denominator))


# ---------------------------------------------------------------------------
# loading algorithms
# ---------------------------------------------------------------------------

def _bits_at_margin(snr_lin: np.ndarray, gap_lin: float, margin_lin: float, allowed_max: int) -> np.ndarray:
    exact = np.log2(1.0 + snr_lin / (gap_lin * margin_lin))
    return np.clip(np.rint(exact), 0, allowed_max).astype(np.int64)


def chow_bit_loading(snr: SnrProfile, target_bits: int, max_loaded: int) -> LoadingTable:
    """Margin-adaptive bit loading on the first `max_loaded` carriers (the
    rest stay empty).

    Rounds log2(1 + SNR/(gap*margin)) per carrier at the gap `CHOW_GAP_DB`,
    bisects the margin (0.01 dB resolution) until the bit total brackets
    the target, then applies greedy one-bit adjustments on the carriers
    closest to their rounding boundary so the total is hit exactly.
    Uniform unit power on active carriers; run
    :func:`cioffi_power_loading` afterwards.

    Targets that stay unreachable even at `CHOW_MARGIN_FLOOR_DB` of
    negative margin raise :class:`LoadingError` carrying the achievable
    maximum.
    """
    snr_lin = 10.0 ** (snr.snr_db / 10.0)
    eligible = np.zeros(snr_lin.size, dtype=bool)
    eligible[:max_loaded] = True
    snr_lin = np.where(eligible, snr_lin, 0.0)
    gap_lin = 10.0 ** (CHOW_GAP_DB / 10.0)

    def bits_for(margin_db: float) -> np.ndarray:
        return _bits_at_margin(snr_lin, gap_lin, 10.0 ** (margin_db / 10.0), 6)

    lo, hi = CHOW_MARGIN_FLOOR_DB, 100.0
    max_total = int(bits_for(lo).sum())
    if target_bits > max_total:
        raise LoadingError(target_bits, max_total)
    # bisection on the margin in dB until the interval collapses to 0.01 dB
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if bits_for(mid).sum() >= target_bits:
            lo = mid
        else:
            hi = mid
    bits = bits_for(lo)
    exact = np.log2(1.0 + np.where(snr_lin > 0, snr_lin, 1e-30) / (gap_lin * 10.0 ** (lo / 10.0)))
    # greedy one-bit corrections: drop the most over-rounded carriers or
    # raise the most under-rounded ones until the total matches exactly
    while bits.sum() > target_bits:
        active = bits > 0
        score = np.where(active, bits - exact, -np.inf)
        bits[int(np.argmax(score))] -= 1
    while bits.sum() < target_bits:
        room = eligible & (bits < 6)
        if not room.any():
            raise LoadingError(target_bits, int(bits.sum()))
        score = np.where(room, exact - bits, -np.inf)
        bits[int(np.argmax(score))] += 1
    power = (bits > 0).astype(np.float64)
    return LoadingTable(bits, power)


def required_snr_factor(bits: np.ndarray) -> np.ndarray:
    """Relative SNR a constellation needs for a common symbol-error margin.

    The classic 2**b - 1 rule holds for the square/cross QAM sizes; BPSK
    is one-dimensional and needs 1.5x rather than 1x on that scale.
    """
    bits = np.asarray(bits)
    factor = 2.0**bits - 1.0
    return np.where(bits == 1, 1.5, factor)


def cioffi_power_loading(loading: LoadingTable, snr: SnrProfile) -> LoadingTable:
    """Equal-margin power allocation across the loaded carriers.

    Every active carrier gets power proportional to the SNR its
    constellation requires, so all carriers ride at the same symbol-error
    margin; the total power of the incoming table is preserved.
    """
    bits = loading.bits
    active = bits > 0
    if not active.any():
        return loading
    snr_lin = 10.0 ** (snr.snr_db / 10.0)
    need = np.zeros_like(snr_lin)
    need[active] = required_snr_factor(bits[active]) / np.maximum(snr_lin[active], 1e-30)
    total_before = loading.power.sum()
    power = need * (total_before / need.sum())
    return LoadingTable(bits, power)


# ---------------------------------------------------------------------------
# modem
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def training_symbols(loading: LoadingTable, cfg: DmtConfig) -> np.ndarray:
    """Known QPSK training symbols, power-matched to the data loading
    (cached per table and config; read-only)."""
    rng = np.random.default_rng(_TRAINING_SEED)
    qpsk = constellation(2)
    picks = rng.integers(0, 4, size=(cfg.training_symbols, cfg.usable_carriers))
    scale = np.sqrt(loading.power)
    known = qpsk[picks] * scale[np.newaxis, :]
    known.setflags(write=False)
    return known


def _hermitian_time_symbols(carriers: np.ndarray, cfg: DmtConfig) -> np.ndarray:
    """Carrier matrix (n_symbols, usable) to real time-domain symbols: the
    inverse real FFT of bins 1 .. usable, with DC and Nyquist empty;
    returns (n_symbols, fft_length)."""
    spectrum = np.zeros((carriers.shape[0], cfg.fft_length // 2 + 1), dtype=np.complex128)
    spectrum[:, 1 : cfg.usable_carriers + 1] = carriers
    return fft_pow2(spectrum, inverse=True)


def _with_prefix(time_sym: np.ndarray, cfg: DmtConfig) -> np.ndarray:
    """Time-domain symbols (n_symbols, fft_length), each behind its cyclic
    prefix (none when `cp_length` is 0), as one waveform."""
    return np.concatenate([time_sym[:, cfg.fft_length - cfg.cp_length :], time_sym], axis=1).reshape(-1)


def _received_carriers(aligned: np.ndarray, cfg: DmtConfig) -> np.ndarray:
    """The (frame_symbols, usable) carrier matrix of a frame-aligned
    waveform: cyclic prefixes stripped, FFT, used carriers selected."""
    frame = aligned[: cfg.frame_length].reshape(cfg.frame_symbols, cfg.symbol_length)
    spectra = fft_pow2(frame[:, cfg.cp_length :]) / cfg.fft_length
    return spectra[:, 1 : cfg.usable_carriers + 1]


def _bit_classes(loading: LoadingTable):
    """(b, carrier indices, bit columns) per loaded constellation size b.

    The bit columns of a class are each carrier's slice of a data symbol's
    bit row, carrier by carrier (carriers are packed in index order, so a
    carrier's slice starts at the running sum of the bits before it)."""
    offsets = np.cumsum(loading.bits) - loading.bits
    for b in np.unique(loading.bits[loading.bits > 0]):
        b = int(b)
        cols = np.flatnonzero(loading.bits == b)
        yield b, cols, (offsets[cols, np.newaxis] + np.arange(b)).reshape(-1)


def map_frame_bits(bits: np.ndarray, loading: LoadingTable, cfg: DmtConfig) -> np.ndarray:
    """Bits to the (data_symbols, usable) carrier matrix."""
    bits = np.asarray(bits, dtype=np.int64)
    per_symbol = loading.total_bits
    n_sym = cfg.data_symbols_per_frame
    expected = n_sym * per_symbol
    if bits.size != expected:
        raise ValueError(f"frame needs {expected} bits, got {bits.size}")
    table = bits.reshape(n_sym, per_symbol)
    carriers = np.zeros((n_sym, cfg.usable_carriers), dtype=np.complex128)
    for b, cols, bit_cols in _bit_classes(loading):
        idx = bits_to_symbol_indices(table[:, bit_cols].reshape(-1), b).reshape(n_sym, cols.size)
        carriers[:, cols] = constellation(b)[idx] * np.sqrt(loading.power[cols])
    return carriers


def dmt_modulate(bits: np.ndarray, loading: LoadingTable, cfg: DmtConfig) -> SampleBuffer:
    """One DMT frame: training symbols, QAM-loaded data symbols, Hermitian
    IFFT, cyclic prefix, RMS normalization and clipping."""
    if loading.bits.size != cfg.usable_carriers:
        raise ValueError("loading table length must equal the usable carrier count")
    data = map_frame_bits(bits, loading, cfg)
    carriers = np.vstack([training_symbols(loading, cfg), data])
    wave = _with_prefix(_hermitian_time_symbols(carriers, cfg), cfg)
    wave = wave / np.sqrt(np.mean(wave**2))
    out = SampleBuffer(wave, CONVERTER_RATE)
    if cfg.clipping_ratio_db is not None:
        out = clip(out, cfg.clipping_ratio_db)
    return out


def _training_template(loading: LoadingTable, cfg: DmtConfig) -> np.ndarray:
    """The training symbols with their cyclic prefixes as one waveform:
    the sync correlation template."""
    return _with_prefix(_hermitian_time_symbols(training_symbols(loading, cfg), cfg), cfg)


@lru_cache(maxsize=2)
def _template_spectrum(loading: LoadingTable, cfg: DmtConfig, n: int) -> tuple[np.ndarray, int, float]:
    """Conjugate rfft of the sync template on an n-sample grid (read-only),
    with the template's length and norm.  Two entries hold the probe and
    the data loading of the current point."""
    t_cp = _training_template(loading, cfg)
    spectrum = np.conj(np.fft.rfft(t_cp, n))
    spectrum.setflags(write=False)
    return spectrum, t_cp.size, float(np.linalg.norm(t_cp))


def _synchronize(rx: SampleBuffer, loading: LoadingTable, cfg: DmtConfig) -> np.ndarray:
    """Locate the frame start by correlating against the known training
    block; returns the frame-aligned samples."""
    x = rx.samples
    if x.size < cfg.frame_length:
        raise SyncError(f"need {cfg.frame_length} samples per frame, got {x.size}")
    template_spectrum, template_size, template_norm = _template_spectrum(loading, cfg, x.size)
    corr = np.fft.irfft(np.fft.rfft(x) * template_spectrum, x.size)
    lag = int(np.argmax(corr))
    # scale-invariant quality score against the 0.5x-autocorrelation threshold
    window = np.take(x, np.arange(lag, lag + template_size), mode="wrap")
    quality = corr[lag] / max(np.linalg.norm(window) * template_norm, 1e-30)
    if quality < 0.5:
        raise SyncError(f"training correlation {quality:.2f} below the 0.5 threshold")
    return np.roll(x, -(lag - cfg.timing_advance))


def _equalize_frame(
    aligned: np.ndarray, loading: LoadingTable, cfg: DmtConfig
) -> tuple[np.ndarray, list[np.ndarray]]:
    """CP strip, FFT, training-initialized decision-directed 1-tap
    equalization.  Returns the equalized data carriers, and per loaded
    constellation size (in `_bit_classes` order) the ``(data_symbols,
    carriers)`` indices of the points the loop decided on."""
    received = _received_carriers(aligned, cfg)
    known = training_symbols(loading, cfg)
    active = loading.bits > 0
    h = np.ones(cfg.usable_carriers, dtype=np.complex128)
    safe_known = np.where(np.abs(known) > 0, known, 1.0)
    h_est = np.mean(received[: cfg.training_symbols] / safe_known, axis=0)
    h[active] = h_est[active]
    w = 1.0 / h
    scale = np.sqrt(np.where(active, loading.power, 1.0))
    classes = [(b, cols, constellation(b), scale[cols]) for b, cols, _ in _bit_classes(loading)]
    data = received[cfg.training_symbols :]
    equalized = np.empty_like(data)
    decisions = [np.empty((data.shape[0], cols.size), dtype=np.intp) for _, cols, _, _ in classes]
    decided = np.zeros_like(w)
    for k in range(data.shape[0]):
        z = w * data[k]
        equalized[k] = z
        # decision-directed update toward the nearest scaled constellation point
        for (b, cols, pts, s), idx in zip(classes, decisions):
            nearest = nearest_point(z[cols] / s, b)
            idx[k] = nearest
            decided[cols] = pts[nearest] * s
        err = np.where(active, decided - z, 0.0)
        w = w + EQ_STEP * err * np.conj(data[k])
    return equalized, decisions


def dmt_demodulate(
    rx: SampleBuffer, loading: LoadingTable, cfg: DmtConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Recover the frame bits and the per-carrier error-vector magnitude.

    Returns (bits, evm) where evm[i] is the mean squared error vector on
    carrier i+1 normalized to unit signal power (zero on unloaded
    carriers).  Both come from the decisions of the equalizer loop.
    """
    aligned = _synchronize(rx, loading, cfg)
    equalized, decisions = _equalize_frame(aligned, loading, cfg)
    scale = np.sqrt(np.where(loading.bits > 0, loading.power, 1.0))
    n_sym = cfg.data_symbols_per_frame
    bits_out = np.empty((n_sym, loading.total_bits), dtype=np.int64)
    evm = np.zeros(cfg.usable_carriers)
    normalized = equalized / scale[np.newaxis, :]
    for (b, cols, bit_cols), idx in zip(_bit_classes(loading), decisions):
        # one contiguous row per carrier, so each EVM mean sums like a 1-D column
        z = np.ascontiguousarray(normalized[:, cols].T)
        evm[cols] = np.mean(np.abs(z - constellation(b)[idx.T]) ** 2, axis=1)
        bits_out[:, bit_cols] = symbol_indices_to_bits(idx.reshape(-1), b).reshape(n_sym, -1)
    return bits_out.reshape(-1), evm


# ---------------------------------------------------------------------------
# SNR estimation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2)
def probe_loading(cfg: DmtConfig) -> LoadingTable:
    """Uniform 16-QAM, equal power, across all usable carriers (one
    read-only table per config, so the caches keyed by table hit)."""
    bits = np.full(cfg.usable_carriers, 4, dtype=np.int64)
    return LoadingTable(bits, np.ones(cfg.usable_carriers))


def probe_bits(cfg: DmtConfig) -> np.ndarray:
    rng = np.random.default_rng(_PROBE_SEED)
    loading = probe_loading(cfg)
    return rng.integers(0, 2, size=cfg.data_symbols_per_frame * loading.total_bits)


def make_probe_frame(cfg: DmtConfig) -> SampleBuffer:
    """The known uniform-16-QAM probe frame used for SNR estimation."""
    return dmt_modulate(probe_bits(cfg), probe_loading(cfg), cfg)


def estimate_snr(rx: SampleBuffer, cfg: DmtConfig) -> SnrProfile:
    """Per-carrier SNR from a received probe frame.

    Signal power over error-vector power after 1-tap equalization,
    averaged across the data symbols, against the known probe payload;
    capped at `SNR_CEILING_DB`.  The probe payload is known in
    full, so the channel tap comes from a least-squares fit over the
    whole frame rather than the four training symbols alone.
    """
    loading = probe_loading(cfg)
    received = _received_carriers(_synchronize(rx, loading, cfg), cfg)
    known = np.vstack(
        [training_symbols(loading, cfg), map_frame_bits(probe_bits(cfg), loading, cfg)]
    )
    h = np.sum(received * np.conj(known), axis=0) / np.sum(np.abs(known) ** 2, axis=0)
    equalized = received[cfg.training_symbols :] / h
    err_power = np.mean(np.abs(equalized - known[cfg.training_symbols :]) ** 2, axis=0)
    ceiling = 10.0 ** (SNR_CEILING_DB / 10.0)
    with np.errstate(divide="ignore"):
        snr = np.minimum(1.0 / np.maximum(err_power, 1.0 / ceiling), ceiling)
    return SnrProfile(10.0 * np.log10(snr))
