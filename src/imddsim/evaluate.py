"""Measurement and experiment layer.

BER counting against named FEC thresholds, transmit/channel/receive
pipelines for the three modulation formats, sweep orchestration with
deterministic per-point seeding, the DSP latency-budget calculator and
optical extinction/OMA measurement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import dmt as dmt_mod
from . import link as link_mod
from . import pam as pam_mod
from .adaptive import train_preemphasis, train_preemphasis_waveform
from .link import ChannelModel, apply_channel
from .sigproc import (
    SampleBuffer,
    SymbolSequence,
    debruijn_sequence,
    raised_cosine_shape,
    resample,
)

FEC_THRESHOLDS = {"kp4": 2e-4, "cibch": 4.4e-3}


# ---------------------------------------------------------------------------
# BER accounting
# ---------------------------------------------------------------------------

def wilson_interval(errors: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for the error ratio."""
    if total == 0:
        return (0.0, 1.0)
    p = errors / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


@dataclass(frozen=True)
class BerReport:
    """Counted errors with FEC-threshold verdicts and a Wilson interval."""

    bit_errors: int
    bits_total: int
    threshold_results: dict[str, bool] = field(default_factory=dict)
    confidence: tuple[float, float] = (0.0, 1.0)

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_total if self.bits_total else float("nan")

    @classmethod
    def from_counts(cls, errors: int, total: int, thresholds=None) -> "BerReport":
        thresholds = FEC_THRESHOLDS if thresholds is None else thresholds
        ber = errors / total if total else float("nan")
        verdicts = {name: ber < limit for name, limit in thresholds.items()}
        return cls(errors, total, verdicts, wilson_interval(errors, total))


def count_ber(tx_bits, rx_bits, thresholds=None) -> BerReport:
    """Exact error count between two equal-length aligned bit streams."""
    tx = np.asarray(tx_bits, dtype=np.int64)
    rx = np.asarray(rx_bits, dtype=np.int64)
    if tx.size != rx.size:
        raise ValueError(f"bit streams differ in length ({tx.size} vs {rx.size})")
    errors = int(np.sum(tx != rx))
    return BerReport.from_counts(errors, tx.size, thresholds)


# ---------------------------------------------------------------------------
# experiment pipelines
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _payload(order: int) -> SymbolSequence:
    return debruijn_sequence(4, order)


@lru_cache(maxsize=8)
def _trained_preemphasis(n_taps: int, dac_rate: float, shaping: str = "none") -> tuple[float, ...]:
    """Pre-emphasis taps learned on the driver side of the transmitter
    (`link.TX_DRIVER_STAGES`: DAC, driver, cable; the EML response and the
    notches stay in the channel, mirroring the experimental procedure).

    `shaping` "none" trains on the raw symbol-rate probe; "nyquist" and
    "pr" train on the format's shaped probe, confining the learned boost
    to the band the format occupies (partial response ends up with the
    weaker pre-emphasis its concentrated spectrum asks for).
    """
    probe = _payload(8)
    stages = link_mod.TX_DRIVER_STAGES
    if shaping == "none":
        probe_wave = SampleBuffer(probe.levels, dac_rate)
        observed = link_mod.apply_stages(probe_wave, stages)
        taps = train_preemphasis(probe, observed, n_taps)
        return tuple(taps.coefficients)
    symbols = pam_mod.pr_encode(probe) if shaping == "pr" else probe
    shaped = _shaped_probe(symbols, dac_rate)
    observed = link_mod.apply_stages(shaped, stages)
    taps = train_preemphasis_waveform(shaped, observed, n_taps)
    return tuple(taps.coefficients)


def _shaped_probe(symbols: SymbolSequence, dac_rate: float) -> SampleBuffer:
    """Probe shaped as :func:`pam.pam_transmit` shapes: raised cosine at
    `pam.RC_BETA`, `pam.OVERSAMPLE` samples/symbol at the DAC rate."""
    oversample = pam_mod.OVERSAMPLE
    at_symbol_rate = SampleBuffer(symbols.levels, dac_rate / oversample)
    shaped = raised_cosine_shape(at_symbol_rate, pam_mod.RC_BETA, oversample.numerator)
    return SampleBuffer(shaped.samples[:: oversample.denominator], dac_rate)


PAM_CLIPPING_DB = {"nyquist_pam4": 6.0, "pr_pam4": 5.0}
"""Per-format DAC clipping ratios, optimized per format like the
experiment's drive settings.  Clipping trades rare overshoot fidelity for
drive amplitude into the modulator; the MLSE-protected partial-response
signal tolerates the harder clip and gains the larger optical swing and
extinction that the measurements show for it."""


@dataclass(frozen=True)
class PamExperiment:
    """One PAM4 / PR PAM4 transmit-channel-receive configuration."""

    tx: pam_mod.PamTxConfig
    rx: pam_mod.PamRxConfig
    channel: ChannelModel
    payload_order: int = 8
    tx_preemphasis_taps: int | None = 11

    @property
    def format_name(self) -> str:
        return "pr_pam4" if self.tx.partial_response else "nyquist_pam4"

    def resolve_tx(self) -> pam_mod.PamTxConfig:
        tx = self.tx
        if self.tx_preemphasis_taps is not None and tx.pre_emphasis_taps is None:
            shaping = "pr" if tx.partial_response else "nyquist"
            taps = _trained_preemphasis(self.tx_preemphasis_taps, tx.dac_rate, shaping)
            tx = replace(tx, pre_emphasis_taps=taps)
        if tx.clipping_ratio_db == pam_mod.PamTxConfig().clipping_ratio_db:
            tx = replace(tx, clipping_ratio_db=PAM_CLIPPING_DB[self.format_name])
        if tx.level_adjust is None and self.channel.eml is not None:
            adjust = pam_mod.level_adjustment_for_eml(
                self.channel.eml, self.channel.eml_bias_v, self.channel.eml_swing_v, tx.n_levels
            )
            tx = replace(tx, level_adjust=adjust)
        return tx

    def run_block(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        payload = _payload(self.payload_order)
        bits = pam_mod.pam4_demap(payload.indices)
        wave = pam_mod.pam_transmit(bits, self.resolve_tx())
        received = apply_channel(wave, self.channel, seed=seed)
        rx_bits = pam_mod.pam_receive(received, self.rx, payload)
        return bits, rx_bits


@dataclass(frozen=True)
class DmtExperiment:
    """One DMT configuration: probe-based loading, then data frames."""

    cfg: dmt_mod.DmtConfig
    channel: ChannelModel
    frames: int = 2
    sample_rate: float = 84e9

    @property
    def format_name(self) -> str:
        return "dmt"

    def loading(self) -> dmt_mod.LoadingTable:
        return _dmt_loading(self.cfg, self.channel, self.sample_rate)

    def run_block(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        loading = self.loading()
        rng = np.random.default_rng(seed)
        n_bits = self.cfg.data_symbols_per_frame * loading.total_bits
        tx_all = []
        rx_all = []
        for f in range(self.frames):
            bits = rng.integers(0, 2, size=n_bits)
            wave = dmt_mod.dmt_modulate(bits, loading, self.cfg, self.sample_rate)
            received = apply_channel(wave, self.channel, seed=seed * 131 + f)
            rx_bits, _ = dmt_mod.dmt_demodulate(received, loading, self.cfg)
            tx_all.append(bits)
            rx_all.append(rx_bits)
        return np.concatenate(tx_all), np.concatenate(rx_all)


@lru_cache(maxsize=32)
def _dmt_snr(cfg: dmt_mod.DmtConfig, channel: ChannelModel, sample_rate: float) -> dmt_mod.SnrProfile:
    probe = dmt_mod.make_probe_frame(cfg, sample_rate)
    received = apply_channel(probe, channel, seed=channel.seed ^ 0x534E52)
    return dmt_mod.estimate_snr(received, cfg)


@lru_cache(maxsize=32)
def _dmt_loading(cfg: dmt_mod.DmtConfig, channel: ChannelModel, sample_rate: float) -> dmt_mod.LoadingTable:
    snr = _dmt_snr(cfg, channel, sample_rate)
    target = dmt_mod.rate_to_bits(cfg, sample_rate)
    loading = dmt_mod.chow_bit_loading(snr, target, cfg)
    return dmt_mod.cioffi_power_loading(loading, snr)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """The points of a sweep: one label per point, blocks, base seed.

    `values[i]` labels point i; the CLI labels each point with the tuple
    of its swept values.  Each point runs `blocks` independent noise
    realizations seeded by base_seed XOR a multiple of the point index.
    """

    values: tuple
    blocks: int = 1
    base_seed: int = 1

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("sweep needs at least one value")
        if self.blocks < 1:
            raise ValueError("sweep needs at least one block per point")
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class SweepPoint:
    values: tuple
    report: BerReport | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    points: tuple[SweepPoint, ...]


def run_point(experiment, spec: SweepSpec, index: int) -> SweepPoint:
    """Run point `index` of `spec` on `experiment`, its blocks summed."""
    values = spec.values[index]
    try:
        errors = 0
        total = 0
        for b in range(spec.blocks):
            seed = (spec.base_seed ^ (index * 0x9E3779B1)) + 7919 * b
            tx_bits, rx_bits = experiment.run_block(seed)
            report = count_ber(tx_bits, rx_bits)
            errors += report.bit_errors
            total += report.bits_total
        return SweepPoint(values, BerReport.from_counts(errors, total))
    except Exception as exc:  # per-point failures recorded, sweep continues
        return SweepPoint(values, None, f"{type(exc).__name__}: {exc}")


def run_sweep(experiments, spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Run the full transmit-channel-receive-count pipeline per point,
    `experiments[i]` for point i of `spec`.

    Deterministic under the per-point seed policy regardless of `jobs`; point
    failures are recorded and the sweep continues.
    """
    if len(experiments) != len(spec.values):
        raise ValueError(f"{len(experiments)} experiments for {len(spec.values)} sweep points")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(_run_point_star,
                                   ((e, spec, i) for i, e in enumerate(experiments))))
    else:
        points = [run_point(e, spec, i) for i, e in enumerate(experiments)]
    return SweepResult(spec, tuple(points))


def _run_point_star(args):
    return run_point(*args)


# ---------------------------------------------------------------------------
# latency budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpsModel:
    """ASIC timing assumptions for the latency arithmetic."""

    clock_hz: float = 1e9
    symbols_per_clock: int = 56
    mlse_symbols_per_clock: int = 4
    fec_latency_us: float = 10.0
    propagation_us_per_km: float = 5.0


@dataclass(frozen=True)
class StageLatency:
    name: str
    best_ns: float
    worst_ns: float

    def __post_init__(self):
        if self.best_ns > self.worst_ns:
            raise ValueError("best-case latency cannot exceed worst case")


@dataclass(frozen=True)
class LatencyBudget:
    stages: tuple[StageLatency, ...]
    propagation_us: float
    fec_us: float

    @property
    def dsp_best_ns(self) -> float:
        return sum(s.best_ns for s in self.stages)

    @property
    def dsp_worst_ns(self) -> float:
        return sum(s.worst_ns for s in self.stages)

    @property
    def total_best_us(self) -> float:
        return self.propagation_us + self.fec_us + self.dsp_best_ns * 1e-3

    @property
    def total_worst_us(self) -> float:
        return self.propagation_us + self.fec_us + self.dsp_worst_ns * 1e-3

    def summary(self) -> str:
        lines = ["latency budget (best / worst):"]
        for s in self.stages:
            lines.append(f"  {s.name:<12} {s.best_ns:g} ns / {s.worst_ns:g} ns")
        lines.append(f"  propagation  {self.propagation_us:g} us")
        lines.append(f"  fec          {self.fec_us:g} us")
        lines.append(f"  total        {self.total_best_us:g} us / {self.total_worst_us:g} us")
        return "\n".join(lines)


def _ffe_stage(name: str, n_taps: int, ops: OpsModel) -> StageLatency:
    # N parallel multiplications plus a ceil(log2(N-1))-deep adder tree:
    # one clock when everything fits, one op per ns in the worst case
    clock_ns = 1e9 / ops.clock_hz
    adds = math.ceil(math.log2(n_taps - 1)) if n_taps > 1 else 0
    return StageLatency(name, clock_ns, (1 + adds) * clock_ns)


def _mlse_stage(memory: int, ops: OpsModel) -> StageLatency:
    # one parallel block of symbols_per_clock decoded symbols plus the
    # 5x-memory overhead symbols on both sides
    clock_ns = 1e9 / ops.clock_hz
    block = ops.symbols_per_clock + 2 * 5 * memory
    best = math.floor(block / ops.mlse_symbols_per_clock) * clock_ns
    worst = block * clock_ns
    return StageLatency(f"mlse{memory}", best, worst)


def _dmt_stage(fft_length: int, cp_fraction: Fraction, sample_rate: float, ops: OpsModel) -> StageLatency:
    # buffering one DMT symbol plus transform time: a single clock when the
    # butterflies run fully parallel, N log2 N sequential ops in the worst
    # case (model extension; the reference arithmetic covers only the FFEs
    # and the MLSE)
    clock_ns = 1e9 / ops.clock_hz
    buffer_ns = float(fft_length * (1 + cp_fraction)) / sample_rate * 1e9
    ops_count = fft_length * math.log2(fft_length)
    return StageLatency("dmt_fft", buffer_ns + clock_ns, buffer_ns + ops_count * clock_ns)


def latency_budget(
    fmt: str,
    distance_km: float,
    tx_taps: int | None = None,
    rx_taps: int | None = None,
    mlse_memory: int | None = None,
    fft_length: int = 512,
    cp_fraction: Fraction = Fraction(1, 64),
    sample_rate: float = 84e9,
    ops: OpsModel = OpsModel(),
) -> LatencyBudget:
    """DSP, propagation and FEC latency for one receiver configuration.

    The FFE and MLSE stage arithmetic is exact integer work in
    nanoseconds; propagation charges 5 us/km and the FEC a flat 10 us.
    """
    stages: list[StageLatency] = []
    if fmt == "dmt":
        stages.append(_dmt_stage(fft_length, cp_fraction, sample_rate, ops))
    else:
        if tx_taps:
            stages.append(_ffe_stage(f"tx_ffe{tx_taps}", tx_taps, ops))
        if rx_taps:
            stages.append(_ffe_stage(f"rx_ffe{rx_taps}", rx_taps, ops))
        if mlse_memory:
            stages.append(_mlse_stage(mlse_memory, ops))
    return LatencyBudget(
        stages=tuple(stages),
        propagation_us=distance_km * ops.propagation_us_per_km,
        fec_us=ops.fec_latency_us,
    )


# ---------------------------------------------------------------------------
# optical measurements
# ---------------------------------------------------------------------------

def measure_extinction_and_oma(
    optical: SampleBuffer,
    n_levels: int,
    samples_per_symbol: Fraction | float | None = None,
) -> dict[str, float]:
    """Extinction ratio (dB) and optical modulation amplitude of a
    multilevel optical power waveform.

    Level means come from 1-D k-means clustering, seeded at quantiles.
    When `samples_per_symbol` is given the waveform is first reduced to
    symbol-instant samples.  Raises when fewer clusters than `n_levels`
    are distinguishable.
    """
    x = optical.samples
    if samples_per_symbol is not None:
        ratio = Fraction(samples_per_symbol).limit_denominator(64)
        if ratio.denominator != 1:
            up2 = resample(optical, 2 * ratio.denominator, 1)
            x = up2.samples[:: 2 * ratio.numerator]
        else:
            x = x[:: ratio.numerator]
    centers = np.quantile(x, (np.arange(n_levels) + 0.5) / n_levels)
    for _ in range(64):
        edges = (centers[1:] + centers[:-1]) / 2.0
        labels = np.searchsorted(edges, x)
        counts = np.bincount(labels, minlength=n_levels)
        if np.any(counts == 0):
            raise ValueError(f"found fewer than {n_levels} level clusters")
        new_centers = np.bincount(labels, weights=x, minlength=n_levels) / counts
        if np.allclose(new_centers, centers, rtol=1e-10, atol=1e-12):
            centers = new_centers
            break
        centers = new_centers
    spread = np.diff(centers)
    if np.any(spread <= 0) or np.min(spread) < 1e-6 * (centers[-1] - centers[0]):
        raise ValueError(f"found fewer than {n_levels} level clusters")
    top, bottom = float(centers[-1]), float(centers[0])
    if bottom <= 0:
        raise ValueError("bottom optical level must be positive for an extinction ratio")
    return {"extinction_db": 10.0 * math.log10(top / bottom), "oma": top - bottom}
