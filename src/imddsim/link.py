"""Parametric model of the experimental transmission hardware.

The component responses of the one modeled DAC/driver/EML/PIN-TIA/ADC
chain are fixed filter-stage tuples: `TX_DRIVER_STAGES` (DAC with
zero-order-hold droop, driver, cable reflection), `TX_STAGES` (those plus
the EML bandwidth, its 7 GHz dip and the 21 GHz clock-line notch) and
`RX_STAGES` (PIN/TIA, ADC and its band edge).  Around them: the EML static
power-vs-voltage curve, fiber/VOA attenuation, PIN/TIA compressive
saturation, and seeded additive receiver noise.

Filter stages are smooth parametric prototypes matched to the quoted 3-dB
bandwidths.  The receiver noise level, the ADC band-edge stage and the
saturation knee are calibration constants fitted so the modeled link
reproduces the measured qualitative behavior (per-subcarrier SNR profile,
back-to-back PAM4 sensitivity region); they are model fits, not measured
ground truth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .sigproc import SampleBuffer


# ---------------------------------------------------------------------------
# frequency responses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterStage:
    """One named stage of the link's frequency response.

    Shapes: "critically_damped" (n coincident real poles, 3-dB point at
    cutoff_hz), "zoh_sinc" (zero-order-hold droop of a DAC running at
    cutoff_hz), "notch" (Gaussian dip of notch_depth_db at cutoff_hz),
    "band_edge" (unity through cutoff_hz, a dB-linear taper to floor_db at
    edge_stop_hz), "fir" (explicit causal taps sampled at fir_rate_hz).
    All stages except "fir" are zero-phase; |H(0)| = 1.
    """

    name: str
    shape: str
    cutoff_hz: float = 0.0
    order: int = 2
    notch_depth_db: float = 0.0
    notch_width_hz: float = 0.0
    edge_stop_hz: float = 0.0
    floor_db: float = -30.0
    fir_taps: tuple[float, ...] = ()
    fir_rate_hz: float = 0.0

    def response(self, freqs: np.ndarray) -> np.ndarray:
        """Complex response at the given frequencies (Hz)."""
        f = np.abs(np.asarray(freqs, dtype=np.float64))
        if self.shape == "band_edge":
            # unity through cutoff_hz, dB-linear taper to floor_db at
            # edge_stop_hz, flat floor beyond (effective converter band edge)
            t = np.clip((f - self.cutoff_hz) / (self.edge_stop_hz - self.cutoff_hz), 0.0, 1.0)
            return 10.0 ** (self.floor_db * t / 20.0) + 0j
        if self.shape == "critically_damped":
            # n identical real poles, 3-dB point at cutoff_hz
            pole = self.cutoff_hz / math.sqrt(2.0 ** (1.0 / self.order) - 1.0)
            return (1.0 + (f / pole) ** 2) ** (-self.order / 2.0) + 0j
        if self.shape == "zoh_sinc":
            return np.abs(np.sinc(f / self.cutoff_hz)) + 0j
        if self.shape == "notch":
            depth = 1.0 - 10.0 ** (-self.notch_depth_db / 20.0)
            dip = 1.0 - depth * np.exp(-0.5 * ((f - self.cutoff_hz) / self.notch_width_hz) ** 2)
            at_dc = 1.0 - depth * np.exp(-0.5 * (self.cutoff_hz / self.notch_width_hz) ** 2)
            return dip / at_dc + 0j
        if self.shape == "fir":
            taps = np.asarray(self.fir_taps, dtype=np.float64)
            n = np.arange(taps.size)
            phases = np.exp(-2j * np.pi * np.outer(np.atleast_1d(freqs), n) / self.fir_rate_hz)
            return (phases @ taps).reshape(np.asarray(freqs).shape)
        raise ValueError(f"unknown filter shape {self.shape!r}")


def cascade_response(stages, freqs: np.ndarray) -> np.ndarray:
    resp = np.ones(np.asarray(freqs).shape, dtype=np.complex128)
    for stage in stages:
        resp *= stage.response(freqs)
    return resp


@lru_cache(maxsize=2)
def _grid_response(stages: tuple[FilterStage, ...], n: int, sample_rate: float) -> np.ndarray:
    """Cascade response on the rfft grid of an n-sample block (read-only).

    Two entries hold the transmit and the receive cascade of the current
    block length; a larger cache only adds resident memory."""
    resp = cascade_response(stages, np.fft.rfftfreq(n, d=1.0 / sample_rate))
    resp.setflags(write=False)
    return resp


def apply_stages(signal: SampleBuffer, stages) -> SampleBuffer:
    """Apply a filter cascade by cyclic frequency-domain multiplication.

    The cascade's response on the block's frequency grid is built once per
    (stages, length, sample rate) and reused while it stays cached."""
    if not stages:
        return signal
    x = signal.samples
    spec = np.fft.rfft(x)
    spec *= _grid_response(tuple(stages), x.size, signal.sample_rate)
    return SampleBuffer(np.fft.irfft(spec, x.size), signal.sample_rate)


TX_DRIVER_STAGES = (
    FilterStage("dac", "critically_damped", 15e9, order=2),
    FilterStage("dac_zoh", "zoh_sinc", 84e9),
    FilterStage("driver", "critically_damped", 25e9, order=2),
    # connector reflection a few cm down the cable; sits inside the
    # 512-point cyclic prefix but outside the 256-point one
    FilterStage("cable_echo", "fir", fir_taps=(1.0 / 1.07, 0.0, 0.0, 0.07 / 1.07), fir_rate_hz=84e9),
)
"""Transmitter stages ahead of the EML: the 84 GS/s DAC with its
zero-order-hold droop, the driver and the cable.  The pre-emphasis trainer
learns on these alone; the EML response and the notches stay in the
channel, mirroring the experimental procedure."""

TX_STAGES = TX_DRIVER_STAGES + (
    # smooth roll-off: single pole
    FilterStage("eml_bandwidth", "critically_damped", 27e9, order=1),
    FilterStage("eml_dip", "notch", 7e9, notch_depth_db=4.0, notch_width_hz=1.6e9),
    FilterStage("clock_notch", "notch", 21e9, notch_depth_db=8.0, notch_width_hz=1.0e9),
)
"""Transmit-side response cascade: the driver side, then the EML bandwidth,
the EML's dip around 7 GHz and the DAC/ADC clock-line notch at 21 GHz."""

RX_STAGES = (
    FilterStage("pin_tia", "critically_damped", 35e9, order=2),
    FilterStage("adc", "critically_damped", 18e9, order=2),
    FilterStage("adc_edge", "band_edge", 26e9, edge_stop_hz=33e9, floor_db=-35.0),
)
"""Receive-side response cascade: PIN/TIA and ADC.  The "adc_edge" stage
models the converter's steep effective band edge; its corner frequencies
are calibration constants fitted to the measured per-subcarrier SNR cliff
above 30 GHz."""


# ---------------------------------------------------------------------------
# EML static curve
# ---------------------------------------------------------------------------

# The one modeled EML at its one operating point: biased at -1.25 V and
# driven +/-1 V about it, 1 dBm at the bias, a quasi-linear mid-region 1 V
# wide, saturating knees of order 6 that reach +/-90 % of the bias power,
# and a voltage domain of -3.2..0.3 V beyond which the drive is clamped.
EML_BIAS_V = -1.25
EML_WIDTH_V = 1.0
EML_POWER_AT_BIAS_DBM = 1.0
EML_MODULATION_DEPTH = 0.9
EML_KNEE_ORDER = 6
EML_V_MIN = -3.2
EML_V_MAX = 0.3
_EML_POWER_AT_BIAS_MW = 10.0 ** (EML_POWER_AT_BIAS_DBM / 10.0)


def eml_power_mw(volts):
    """Static optical power (mW) of the EML vs drive voltage.

    Monotone saturating curve anchored to the measured qualitative shape:
    a quasi-linear mid-region around the bias with smooth saturation knees
    toward both rails.
    """
    v = np.clip(np.asarray(volts, dtype=np.float64), EML_V_MIN, EML_V_MAX)
    u = (v - EML_BIAS_V) / EML_WIDTH_V
    g = u / (1.0 + np.abs(u) ** EML_KNEE_ORDER) ** (1.0 / EML_KNEE_ORDER)
    return _EML_POWER_AT_BIAS_MW * (1.0 + EML_MODULATION_DEPTH * g)


def eml_drive_for_power(power_mw):
    """Inverse of :func:`eml_power_mw`; raises on powers outside the open range."""
    p = np.asarray(power_mw, dtype=np.float64)
    g = (p / _EML_POWER_AT_BIAS_MW - 1.0) / EML_MODULATION_DEPTH
    if np.any(np.abs(g) >= 1.0):
        raise ValueError("requested optical power outside the curve range")
    k = EML_KNEE_ORDER
    u = g / (1.0 - np.abs(g) ** k) ** (1.0 / k)
    return EML_BIAS_V + EML_WIDTH_V * u


def eml_modulate(drive: SampleBuffer) -> tuple[SampleBuffer, int]:
    """Drive the EML curve sample-wise: optical power = curve(EML_BIAS_V + x).

    `drive` samples are expected in [-1, 1]; excursions beyond the curve's
    voltage domain are clamped and counted.  Returns (optical power
    waveform in mW, clamped sample count).
    """
    volts = EML_BIAS_V + drive.samples
    clamped = int(np.sum((volts < EML_V_MIN) | (volts > EML_V_MAX)))
    power = eml_power_mw(volts)
    return SampleBuffer(power, drive.sample_rate), clamped


def pin_tia_saturation(signal: SampleBuffer, knee: float) -> SampleBuffer:
    """Smooth odd compressive curve modeling TIA gain compression.

    Rapp-style soft limiter: essentially linear below half the knee,
    asymptotic to +/-knee far above it.  Outer levels of a multilevel
    signal lose spacing first as drive grows.
    """
    if knee <= 0:
        raise ValueError("saturation knee must be positive")
    x = signal.samples
    out = x / (1.0 + np.abs(x / knee) ** 4) ** 0.25
    return SampleBuffer(out, signal.sample_rate)


# ---------------------------------------------------------------------------
# channel model
# ---------------------------------------------------------------------------

FIBER_ATTENUATION_DB_PER_KM = 0.32
"""Loss of the modeled single-mode fiber."""

# TIA compression knee (mW, AC amplitude).  Fitted so partial-response
# PAM4 shows its interior BER-vs-ROP optimum around -1 dBm.
PAPER_SATURATION_KNEE_MW = 0.55


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian receiver noise.

    Either an absolute standard deviation in normalized electrical units
    (`sigma`), or a target SNR in dB relative to the measured signal power
    at the injection point (`snr_db`).  At most one is active: a negative
    or non-finite sigma, a NaN SNR and a nonzero sigma beside an SNR are
    rejected, since the noise half of the link would not add them.
    """

    sigma: float = 0.0
    snr_db: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.sigma}")
        if self.snr_db is not None:
            if math.isnan(self.snr_db):
                raise ValueError("noise snr_db must not be NaN")
            if self.sigma > 0:
                raise ValueError("give the noise as sigma or as snr_db, not both")

    def sigma_for(self, signal: np.ndarray) -> float:
        if self.snr_db is not None:
            power = float(np.mean(signal**2))
            return math.sqrt(power * 10.0 ** (-self.snr_db / 10.0))
        return self.sigma


@dataclass(frozen=True)
class ChannelModel:
    """The link: with `hardware`, `TX_STAGES` -> the EML -> fiber and VOA
    loss -> `RX_STAGES` -> AC coupling -> TIA saturation at
    `PAPER_SATURATION_KNEE_MW`; without it, a flat link.  Then additive
    noise.  Immutable; deterministic for a fixed seed.

    The EML launches `EML_POWER_AT_BIAS_DBM`; fiber and VOA attenuate only
    the hardware link.
    """

    hardware: bool = False
    fiber_km: float = 0.0
    voa_db: float = 0.0
    noise: NoiseSpec = NoiseSpec()
    seed: int = 0

    @property
    def loss_db(self) -> float:
        return self.fiber_km * FIBER_ATTENUATION_DB_PER_KM + self.voa_db

    @property
    def rop_dbm(self) -> float:
        """Received optical power; 0 dBm on a flat link."""
        return (EML_POWER_AT_BIAS_DBM if self.hardware else 0.0) - self.loss_db


def transmit_optical(tx: SampleBuffer, model: ChannelModel) -> SampleBuffer:
    """Tx filtering and EML modulation only: the optical waveform in mW
    at the EML output (before fiber loss).  For OMA/extinction analysis.

    The drive is normalized at the DAC (unit full scale at the cascade
    input); filter ringing past full scale compresses softly in the EML
    curve knees, as in the analog chain.  A flat link passes the waveform
    through at its own scale.
    """
    if not model.hardware:
        return tx
    peak = np.max(np.abs(tx.samples))
    normalized = SampleBuffer(tx.samples / peak if peak > 0 else tx.samples, tx.sample_rate)
    shaped = apply_stages(normalized, TX_STAGES)
    optical, _ = eml_modulate(shaped)
    return optical


def noiseless(tx: SampleBuffer, model: ChannelModel) -> SampleBuffer:
    """The link without its receiver noise: :func:`transmit_optical`, then on
    the hardware link fiber and VOA loss, `RX_STAGES`, AC coupling and TIA
    saturation.  A flat link passes the waveform through."""
    optical = transmit_optical(tx, model)
    if not model.hardware:
        return optical
    attenuated = SampleBuffer(optical.samples * 10.0 ** (-model.loss_db / 10.0), optical.sample_rate)
    x = apply_stages(attenuated, RX_STAGES).samples
    x = x - np.mean(x)  # AC-coupled TIA
    return pin_tia_saturation(SampleBuffer(x, optical.sample_rate), PAPER_SATURATION_KNEE_MW)


def add_noise(signal: SampleBuffer, model: ChannelModel, seed: int | None) -> SampleBuffer:
    """`signal` plus the link's receiver noise, drawn from `seed` (the
    model's own seed when None); the signal itself when the noise is zero."""
    x = signal.samples
    sigma = model.noise.sigma_for(x)
    if sigma == 0:
        return signal
    rng = np.random.default_rng(model.seed if seed is None else seed)
    return SampleBuffer(x + rng.normal(0.0, sigma, size=x.size), signal.sample_rate)


def apply_channel(tx: SampleBuffer, model: ChannelModel, seed: int | None = None) -> SampleBuffer:
    """Run a transmit waveform through the full modeled link:
    :func:`noiseless`, then :func:`add_noise`.

    Output is the received electrical waveform in normalized units
    (photocurrent proportional to optical power, AC-coupled).  Extreme
    attenuation yields a noise-dominated output, never a failure.
    """
    return add_noise(noiseless(tx, model), model, seed)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# Receiver noise standard deviation in normalized electrical units (mW of
# detected optical power).  Single calibration constant: chosen so the
# modeled back-to-back 112 Gb/s Nyquist PAM4 chain crosses BER 4.4e-3 near
# the measured sensitivity region.  Model fit, not ground truth.
PAPER_NOISE_SIGMA = 0.003

_PAPER_NOISE = NoiseSpec(sigma=PAPER_NOISE_SIGMA)

_PRESETS = {
    "ideal": ChannelModel(),  # all stages flat, zero noise (identity link)
    "awgn_only": ChannelModel(noise=NoiseSpec(snr_db=20.0)),  # flat, AWGN at an SNR
    "paper_b2b": ChannelModel(hardware=True, noise=_PAPER_NOISE),  # 0 km fiber
    "paper_10km": ChannelModel(hardware=True, fiber_km=10.0, noise=_PAPER_NOISE),
    "paper_20km": ChannelModel(hardware=True, fiber_km=20.0, noise=_PAPER_NOISE),
}
"""The preset catalogue: each named link at VOA 0 dB and seed 0."""

CHANNEL_PRESETS = tuple(_PRESETS)


def make_channel(preset: str, voa_db: float = 0.0, seed: int = 0,
                 snr_db: float | None = None) -> ChannelModel:
    """The link of a named preset (`CHANNEL_PRESETS`) with its noise seed.

    `voa_db` attenuates only the hardware presets; `snr_db`, when given,
    replaces only the SNR of `awgn_only`.
    """
    model = replace(_PRESETS[preset], seed=seed)
    if model.hardware:
        return replace(model, voa_db=voa_db)
    if model.noise.snr_db is not None and snr_db is not None:
        return replace(model, noise=NoiseSpec(snr_db=snr_db))
    return model


def preset_summary(preset: str) -> str:
    model = make_channel(preset)
    parts = [f"{preset}:"]
    if model.hardware:
        names = ", ".join(s.name for s in TX_STAGES + RX_STAGES)
        parts.append(f"stages [{names}]")
        parts.append(
            f"EML bias {EML_BIAS_V} V, fiber {model.fiber_km:g} km x "
            f"{FIBER_ATTENUATION_DB_PER_KM} dB/km, launch {EML_POWER_AT_BIAS_DBM:g} dBm"
        )
    else:
        parts.append("all stages flat")
    if model.noise.snr_db is not None:
        parts.append(f"AWGN at {model.noise.snr_db:g} dB SNR")
    elif model.noise.sigma > 0:
        parts.append(f"noise sigma {model.noise.sigma:g}")
    else:
        parts.append("zero noise")
    return " ".join(parts)
