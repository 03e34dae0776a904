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
from dataclasses import dataclass
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

@dataclass(frozen=True)
class EmlCurve:
    """Static optical power vs drive voltage of the EML.

    Monotone saturating curve anchored to the measured qualitative shape:
    a quasi-linear mid-region around the -1.25 V operating bias with
    smooth saturation knees toward both rails (sharpness `knee_order`).
    `power_at_bias_dbm` pins the absolute output power at the nominal
    bias; `modulation_depth` is the power excursion reached at full
    saturation relative to the bias power.
    """

    bias_v: float = -1.25
    width_v: float = 1.0
    power_at_bias_dbm: float = 1.0
    modulation_depth: float = 0.9
    knee_order: int = 6
    v_min: float = -3.2
    v_max: float = 0.3

    @property
    def power_at_bias_mw(self) -> float:
        return 10.0 ** (self.power_at_bias_dbm / 10.0)

    def power_mw(self, volts):
        v = np.clip(np.asarray(volts, dtype=np.float64), self.v_min, self.v_max)
        u = (v - self.bias_v) / self.width_v
        g = u / (1.0 + np.abs(u) ** self.knee_order) ** (1.0 / self.knee_order)
        return self.power_at_bias_mw * (1.0 + self.modulation_depth * g)

    def drive_for_power(self, power_mw):
        """Inverse of the curve; raises on powers outside the open range."""
        p = np.asarray(power_mw, dtype=np.float64)
        g = (p / self.power_at_bias_mw - 1.0) / self.modulation_depth
        if np.any(np.abs(g) >= 1.0):
            raise ValueError("requested optical power outside the curve range")
        k = self.knee_order
        u = g / (1.0 - np.abs(g) ** k) ** (1.0 / k)
        return self.bias_v + self.width_v * u


def eml_modulate(
    drive: SampleBuffer, curve: EmlCurve, bias: float = -1.25, swing: float = 1.0
) -> tuple[SampleBuffer, int]:
    """Drive the EML curve sample-wise: optical power = curve(bias + swing*x).

    `drive` samples are expected in [-1, 1]; excursions beyond the curve's
    voltage domain are clamped and counted.  Returns (optical power
    waveform in mW, clamped sample count).
    """
    if not (curve.v_min <= bias <= curve.v_max):
        raise ValueError(f"bias {bias} V outside curve domain")
    volts = bias + swing * drive.samples
    clamped = int(np.sum((volts < curve.v_min) | (volts > curve.v_max)))
    power = curve.power_mw(volts)
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
# link budget and channel model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkBudget:
    """Optical power bookkeeping between EML output and PIN input."""

    fiber_km: float = 0.0
    attenuation_db_per_km: float = 0.32
    voa_db: float = 0.0
    launch_power_dbm: float = 1.0

    @property
    def loss_db(self) -> float:
        return self.fiber_km * self.attenuation_db_per_km + self.voa_db

    @property
    def rop_dbm(self) -> float:
        return self.launch_power_dbm - self.loss_db


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian receiver noise.

    Either an absolute standard deviation in normalized electrical units
    (`sigma`), or a target SNR in dB relative to the measured signal power
    at the injection point (`snr_db`).  Exactly one should be active.
    """

    sigma: float = 0.0
    snr_db: float | None = None

    def sigma_for(self, signal: np.ndarray) -> float:
        if self.snr_db is not None:
            power = float(np.mean(signal**2))
            return math.sqrt(power * 10.0 ** (-self.snr_db / 10.0))
        return self.sigma


@dataclass(frozen=True)
class ChannelModel:
    """Composable link: Tx responses -> EML curve -> budget -> Rx responses
    -> saturation -> noise.  Immutable; deterministic for a fixed seed."""

    name: str = "custom"
    tx_stages: tuple[FilterStage, ...] = ()
    eml: EmlCurve | None = None
    eml_bias_v: float = -1.25
    eml_swing_v: float = 1.0
    budget: LinkBudget = LinkBudget(launch_power_dbm=0.0)
    rx_stages: tuple[FilterStage, ...] = ()
    saturation_knee_mw: float | None = None
    noise: NoiseSpec = NoiseSpec()
    seed: int = 0


def transmit_optical(tx: SampleBuffer, model: ChannelModel) -> SampleBuffer:
    """Tx filtering and EML modulation only: the optical waveform in mW
    at the EML output (before fiber loss).  For OMA/extinction analysis.

    The drive is normalized at the DAC (unit full scale at the cascade
    input); filter ringing past full scale compresses softly in the EML
    curve knees, as in the analog chain.  Without an EML the waveform
    passes through the filter stages at its own scale.
    """
    if model.eml is None:
        return apply_stages(tx, model.tx_stages)
    peak = np.max(np.abs(tx.samples))
    normalized = SampleBuffer(tx.samples / peak if peak > 0 else tx.samples, tx.sample_rate)
    shaped = apply_stages(normalized, model.tx_stages)
    optical, _ = eml_modulate(shaped, model.eml, model.eml_bias_v, model.eml_swing_v)
    return optical


def apply_channel(tx: SampleBuffer, model: ChannelModel, seed: int | None = None) -> SampleBuffer:
    """Run a transmit waveform through the full modeled link.

    Output is the received electrical waveform in normalized units
    (photocurrent proportional to optical power, AC-coupled).  Extreme
    attenuation yields a noise-dominated output, never a failure.
    """
    optical = transmit_optical(tx, model)
    x = optical.samples
    if model.eml is not None:
        x = x * 10.0 ** (-model.budget.loss_db / 10.0)
    received = SampleBuffer(x, optical.sample_rate)
    received = apply_stages(received, model.rx_stages)
    x = received.samples
    if model.eml is not None:
        x = x - np.mean(x)  # AC-coupled TIA
    if model.saturation_knee_mw is not None:
        x = pin_tia_saturation(SampleBuffer(x, received.sample_rate), model.saturation_knee_mw).samples
    sigma = model.noise.sigma_for(x)
    if sigma > 0:
        rng = np.random.default_rng(model.seed if seed is None else seed)
        x = x + rng.normal(0.0, sigma, size=x.size)
    return SampleBuffer(x, received.sample_rate)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# Receiver noise standard deviation in normalized electrical units (mW of
# detected optical power).  Single calibration constant: chosen so the
# modeled back-to-back 112 Gb/s Nyquist PAM4 chain crosses BER 4.4e-3 near
# the measured sensitivity region.  Model fit, not ground truth.
PAPER_NOISE_SIGMA = 0.003

# TIA compression knee (mW, AC amplitude).  Fitted so partial-response
# PAM4 shows its interior BER-vs-ROP optimum around -1 dBm.
PAPER_SATURATION_KNEE_MW = 0.55


def _paper_channel(name: str, fiber_km: float, voa_db: float, seed: int) -> ChannelModel:
    eml = EmlCurve()
    return ChannelModel(
        name=name,
        tx_stages=TX_STAGES,
        eml=eml,
        eml_bias_v=eml.bias_v,
        eml_swing_v=1.0,
        budget=LinkBudget(fiber_km=fiber_km, voa_db=voa_db, launch_power_dbm=eml.power_at_bias_dbm),
        rx_stages=RX_STAGES,
        saturation_knee_mw=PAPER_SATURATION_KNEE_MW,
        noise=NoiseSpec(sigma=PAPER_NOISE_SIGMA),
        seed=seed,
    )


def make_channel(preset: str, voa_db: float = 0.0, seed: int = 0, snr_db: float = 20.0) -> ChannelModel:
    """Build one of the named channel presets.

    ideal       all stages flat, zero noise (identity link)
    awgn_only   flat link plus additive noise at `snr_db` vs signal power
    paper_b2b   modeled hardware, 0 km fiber
    paper_10km  modeled hardware, 10 km fiber
    paper_20km  modeled hardware, 20 km fiber
    """
    if preset == "ideal":
        return ChannelModel(name="ideal", seed=seed)
    if preset == "awgn_only":
        return ChannelModel(name="awgn_only", noise=NoiseSpec(snr_db=snr_db), seed=seed)
    if preset == "paper_b2b":
        return _paper_channel("paper_b2b", 0.0, voa_db, seed)
    if preset == "paper_10km":
        return _paper_channel("paper_10km", 10.0, voa_db, seed)
    if preset == "paper_20km":
        return _paper_channel("paper_20km", 20.0, voa_db, seed)
    raise KeyError(preset)


CHANNEL_PRESETS = ("ideal", "awgn_only", "paper_b2b", "paper_10km", "paper_20km")


def preset_summary(preset: str) -> str:
    model = make_channel(preset)
    parts = [f"{preset}:"]
    if model.tx_stages or model.rx_stages:
        names = ", ".join(s.name for s in model.tx_stages + model.rx_stages)
        parts.append(f"stages [{names}]")
    else:
        parts.append("all stages flat")
    if model.eml is not None:
        parts.append(
            f"EML bias {model.eml_bias_v} V, fiber {model.budget.fiber_km:g} km x "
            f"{model.budget.attenuation_db_per_km} dB/km, launch {model.budget.launch_power_dbm:g} dBm"
        )
    if model.noise.snr_db is not None:
        parts.append(f"AWGN at {model.noise.snr_db:g} dB SNR")
    elif model.noise.sigma > 0:
        parts.append(f"noise sigma {model.noise.sigma:g}")
    else:
        parts.append("zero noise")
    return " ".join(parts)
