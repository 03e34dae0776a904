"""Measurement and experiment layer.

BER counting against named FEC thresholds, transmit/channel/receive
pipelines for the three modulation formats, sweep orchestration with
deterministic per-point seeding, the DSP latency-budget calculator and
optical extinction/OMA measurement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

import numpy as np

from . import dmt as dmt_mod
from . import link as link_mod
from . import pam as pam_mod
from .adaptive import train_preemphasis_waveform
from .link import ChannelModel, NoiseSpec, add_noise, apply_channel
# raised_cosine_shape is unused here, and train_preemphasis names the one
# trainer: both stay bound because perfbench/spans.py wraps them by name
from .sigproc import (SampleBuffer, SimulationError, SymbolSequence, debruijn_sequence,
                      raised_cosine_shape, resample)

train_preemphasis = train_preemphasis_waveform

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
    """Counted errors; the FEC-threshold verdicts and the Wilson interval follow from them."""

    bit_errors: int
    bits_total: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_total if self.bits_total else float("nan")

    @property
    def threshold_results(self) -> dict[str, bool]:
        return {name: self.ber < limit for name, limit in FEC_THRESHOLDS.items()}

    @property
    def confidence(self) -> tuple[float, float]:
        return wilson_interval(self.bit_errors, self.bits_total)


def count_ber(tx_bits, rx_bits) -> BerReport:
    """Exact error count between two equal-length aligned bit streams."""
    tx = np.asarray(tx_bits, dtype=np.int64)
    rx = np.asarray(rx_bits, dtype=np.int64)
    if tx.size != rx.size:
        raise ValueError(f"bit streams differ in length ({tx.size} vs {rx.size})")
    errors = int(np.sum(tx != rx))
    return BerReport(errors, tx.size)


# ---------------------------------------------------------------------------
# experiment pipelines
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _payload(order: int) -> SymbolSequence:
    return debruijn_sequence(4, order)


@lru_cache(maxsize=4)
def _payload_bits(order: int) -> np.ndarray:
    """The bits of payload `order`, demapped once (read-only, a byte each)."""
    bits = pam_mod.pam4_demap(_payload(order).indices).astype(np.uint8)
    bits.setflags(write=False)
    return bits


@lru_cache(maxsize=1)
def _transmitted(tx: pam_mod.PamTxConfig, order: int) -> SampleBuffer:
    """The DAC waveform of payload `order` from transmitter `tx`, which every
    block of the sweep points that share the transmitter sends (one entry,
    1.5 * 4**order samples)."""
    return pam_mod.pam_transmit(_payload_bits(order), tx)


@lru_cache(maxsize=1)
def _noiseless(tx: pam_mod.PamTxConfig, order: int, link: ChannelModel) -> SampleBuffer:
    """`_transmitted(tx, order)` through the noise-free `link`: what every
    block of one point receives before its noise (one entry, one waveform).
    It runs through `apply_channel`, the link boundary that
    perfbench/spans.py wraps, so the trace sees each link run."""
    return apply_channel(_transmitted(tx, order), link)


_PROBE_ORDER = 8  # the pre-emphasis probe: 4**8 symbols, 98,304 DAC samples


@lru_cache(maxsize=8)
def _trained_preemphasis(n_taps: int, dac_rate: float, partial_response: bool) -> tuple[float, ...]:
    """Pre-emphasis taps learned on the driver side of the transmitter
    (`link.TX_DRIVER_STAGES`: DAC, driver, cable; the EML response and the
    notches stay in the channel, mirroring the experimental procedure).

    Trains on the format's shaped probe, confining the learned boost to the
    band the format occupies (partial response ends up with the weaker
    pre-emphasis its concentrated spectrum asks for).
    """
    probe = _payload(_PROBE_ORDER)
    symbols = pam_mod.pr_encode(probe) if partial_response else probe
    shaped = pam_mod.shape_pulses(symbols.levels, dac_rate / pam_mod.OVERSAMPLE)
    observed = link_mod.apply_stages(shaped, link_mod.TX_DRIVER_STAGES)
    taps = train_preemphasis_waveform(shaped, observed, n_taps)
    return tuple(taps.coefficients)


PAM_CLIPPING_DB = {"nyquist_pam4": 6.0, "pr_pam4": 5.0}
"""Per-format DAC clipping ratios, optimized per format like the
experiment's drive settings.  Clipping trades rare overshoot fidelity for
drive amplitude into the modulator; the MLSE-protected partial-response
signal tolerates the harder clip and gains the larger optical swing and
extinction that the measurements show for it."""


@dataclass(frozen=True)
class PamExperiment:
    """One PAM4 / PR PAM4 transmit-channel-receive configuration."""

    rx: pam_mod.PamRxConfig
    channel: ChannelModel
    payload_order: int = 8
    tx_preemphasis_taps: int | None = 11

    @property
    def format_name(self) -> str:
        return "pr_pam4" if self.rx.partial_response else "nyquist_pam4"

    def resolve_tx(self) -> pam_mod.PamTxConfig:
        """The transmitter: the receiver's symbol rate and format and the
        format's clipping ratio.  On the hardware link it also gets
        pre-emphasis trained on `link.TX_DRIVER_STAGES` with
        `tx_preemphasis_taps` taps (none when None) and drive levels that
        pre-compensate the EML's curve; a link without that hardware has
        nothing for either to compensate."""
        tx = pam_mod.PamTxConfig(
            symbol_rate=self.rx.symbol_rate,
            partial_response=self.rx.partial_response,
            clipping_ratio_db=PAM_CLIPPING_DB[self.format_name],
        )
        if not self.channel.hardware:
            return tx
        if self.tx_preemphasis_taps is not None:
            taps = _trained_preemphasis(self.tx_preemphasis_taps, tx.dac_rate, tx.partial_response)
            tx = replace(tx, pre_emphasis_taps=taps)
        return replace(tx, level_adjust=pam_mod.level_adjustment_for_eml(tx.n_levels))

    def run_block(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        rx_bits = pam_mod.pam_receive(self._received(seed), self.rx, _payload(self.payload_order))
        return _payload_bits(self.payload_order), rx_bits

    def _received(self, seed: int) -> SampleBuffer:
        """Block `seed` of the received payload waveform: the cached
        noiseless link output, plus this block's receiver noise."""
        link = replace(self.channel, noise=NoiseSpec(), seed=0)
        received = _noiseless(self.resolve_tx(), self.payload_order, link)
        return add_noise(received, self.channel, seed)


@dataclass(frozen=True)
class DmtExperiment:
    """One DMT configuration: probe-based loading, then data frames."""

    cfg: dmt_mod.DmtConfig
    channel: ChannelModel
    frames: int = 2

    @property
    def format_name(self) -> str:
        return "dmt"

    def loading(self) -> dmt_mod.LoadingTable:
        loading = _dmt_loading(self.cfg, self.channel)
        if isinstance(loading, SimulationError):
            # a fresh traceback each time, not one that grows with each raise
            raise loading.with_traceback(None)
        return loading

    def run_block(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        loading = self.loading()
        rng = np.random.default_rng(seed)
        n_bits = self.cfg.data_symbols_per_frame * loading.total_bits
        tx_all = []
        rx_all = []
        for f in range(self.frames):
            bits = rng.integers(0, 2, size=n_bits)
            wave = dmt_mod.dmt_modulate(bits, loading, self.cfg)
            received = apply_channel(wave, self.channel, seed=seed * 131 + f)
            rx_bits, _ = dmt_mod.dmt_demodulate(received, loading, self.cfg)
            tx_all.append(bits)
            rx_all.append(rx_bits)
        return np.concatenate(tx_all), np.concatenate(rx_all)


@lru_cache(maxsize=32)
def _dmt_loading(cfg: dmt_mod.DmtConfig,
                 channel: ChannelModel) -> dmt_mod.LoadingTable | SimulationError:
    """Chow bit and Cioffi power loading on the SNR that the probe frame
    measures through `channel`, or the SyncError or LoadingError that
    stopped it (cached per config and link, so a failed point probes once)."""
    try:
        probe = dmt_mod.make_probe_frame(cfg)
        received = apply_channel(probe, channel, seed=channel.seed ^ 0x534E52)
        snr = dmt_mod.estimate_snr(received, cfg)
        loading = dmt_mod.chow_bit_loading(snr, dmt_mod.rate_to_bits(cfg), cfg.max_loaded_carriers)
    except SimulationError as exc:
        return exc
    return dmt_mod.cioffi_power_loading(loading, snr)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """How every point of a sweep runs: `blocks` independent noise
    realizations, seeded by base_seed XOR a multiple of the point index."""

    blocks: int = 1
    base_seed: int = 1

    def __post_init__(self):
        if self.blocks < 1:
            raise ValueError("sweep needs at least one block per point")


@dataclass(frozen=True)
class SweepPoint:
    """A point's summed blocks, or the error of its first failed block."""

    report: BerReport | None
    error: str | None = None


BATCH_STREAMS = 8
"""Most PAM blocks that equalize in one batched LMS.  A larger group runs
as several batches, so a sweep's peak memory does not grow with its size."""


def run_blocks(pairs) -> list[BerReport | SimulationError]:
    """Run and count block `seed` of `experiment` for each `(experiment,
    seed)` pair: its BerReport, or the SimulationError the block raised.

    Each pair gets what ``count_ber(*experiment.run_block(seed))`` returns
    or raises as a SimulationError; any other exception propagates.  The
    PAM blocks with the same FFE length, payload and format run as one
    group, `BATCH_STREAMS` at a time: every block's receive front end, then
    one :func:`pam.pam_back_end`, whose blocks share one batched FFE and
    whose MLSE blocks share one Viterbi time loop.  Other experiments run
    their blocks one by one.
    """
    outcomes: list = [None] * len(pairs)
    # (FFE length, payload order, partial response) -> indices of its pairs
    groups: dict[tuple, list[int]] = {}
    for i, (experiment, seed) in enumerate(pairs):
        if isinstance(experiment, PamExperiment):
            rx = experiment.rx
            key = (rx.n_ffe_taps, experiment.payload_order, rx.partial_response)
            groups.setdefault(key, []).append(i)
            continue
        try:
            outcomes[i] = count_ber(*experiment.run_block(seed))
        except SimulationError as exc:  # a failed block is recorded, the others run on
            outcomes[i] = exc
    for members in groups.values():
        for start in range(0, len(members), BATCH_STREAMS):
            _run_pam_batch(pairs, members[start : start + BATCH_STREAMS], outcomes)
    return outcomes


def _run_pam_batch(pairs, members: list[int], outcomes: list) -> None:
    """Run the PAM blocks `pairs[i]` for i in `members`, which share one
    FFE length, payload and format, into `outcomes[i]`: each block's
    received waveform and receive front end, then one
    :func:`pam.pam_back_end` for the blocks whose front end ran."""
    first = pairs[members[0]][0]
    payload = _payload(first.payload_order)
    reference = pam_mod.ffe_reference(payload, first.rx)
    fronts = []
    running = []
    for i in members:
        experiment, seed = pairs[i]
        try:
            received = experiment._received(seed)
            fronts.append(pam_mod.pam_front_end(received, experiment.rx, reference))
            running.append(i)
        except SimulationError as exc:  # a failed block is recorded, the others run on
            outcomes[i] = exc
    bits = _payload_bits(first.payload_order)
    cfgs = [pairs[i][0].rx for i in running]
    for i, rx_bits in zip(running, pam_mod.pam_back_end(fronts, cfgs, payload)):
        outcomes[i] = rx_bits if isinstance(rx_bits, SimulationError) else count_ber(bits, rx_bits)


def _run_points(experiments, spec: SweepSpec, indices) -> list[SweepPoint]:
    """The sweep points at `indices`, `experiments[k]` at index `indices[k]`,
    all their blocks in one :func:`run_blocks`.  A point sums its blocks,
    or reports the first that failed."""
    pairs = [(e, (spec.base_seed ^ (i * 0x9E3779B1)) + 7919 * b)
             for e, i in zip(experiments, indices) for b in range(spec.blocks)]
    outcomes = run_blocks(pairs)
    points = []
    for k in range(len(indices)):
        blocks = outcomes[k * spec.blocks : (k + 1) * spec.blocks]
        failed = [o for o in blocks if isinstance(o, SimulationError)]
        if failed:
            error = f"{type(failed[0]).__name__}: {failed[0]}"
            points.append(SweepPoint(None, error))
            continue
        errors = sum(report.bit_errors for report in blocks)
        total = sum(report.bits_total for report in blocks)
        points.append(SweepPoint(BerReport(errors, total)))
    return points


def run_point(experiment, spec: SweepSpec, index: int) -> SweepPoint:
    """Run point `index` of `spec` on `experiment`, its blocks summed."""
    return _run_points([experiment], spec, [index])[0]


def run_sweep(experiments, spec: SweepSpec, jobs: int = 1) -> tuple[SweepPoint, ...]:
    """Run the full transmit-channel-receive-count pipeline per point,
    `experiments[i]` for point i; one SweepPoint per point.

    Deterministic under the per-point seed policy regardless of `jobs`; point
    failures are recorded and the sweep continues.  With one job, the
    blocks of every PAM point go through one :func:`run_blocks`, so
    blocks of different points share a batched equalizer; with more, each
    worker runs whole points, on at most one worker per point.
    """
    if not experiments:
        raise ValueError("sweep needs at least one point")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at once: no more than there are points
        with ProcessPoolExecutor(max_workers=min(jobs, len(experiments))) as pool:
            return tuple(pool.map(run_point, experiments, repeat(spec), range(len(experiments))))
    if all(isinstance(e, PamExperiment) for e in experiments):
        return tuple(_run_points(experiments, spec, range(len(experiments))))
    # DMT blocks have no equalizer to share; point by point keeps the
    # run_point spans that perfbench's trace reads
    return tuple(run_point(e, spec, i) for i, e in enumerate(experiments))


# ---------------------------------------------------------------------------
# latency budget
# ---------------------------------------------------------------------------

# ASIC timing assumptions of the latency arithmetic: a 1 GHz clock (1 ns
# per clock), 56 symbols decoded per clock in parallel, of which the MLSE
# trellis advances 4 per clock; a flat 10 us FEC and 5 us/km of fiber
CLOCK_NS = 1.0
SYMBOLS_PER_CLOCK = 56
MLSE_SYMBOLS_PER_CLOCK = 4
FEC_LATENCY_US = 10.0
PROPAGATION_US_PER_KM = 5.0


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


def _ffe_stage(side: str, n_taps: int) -> StageLatency:
    # N parallel multiplications plus a ceil(log2(N-1))-deep adder tree:
    # one clock when everything fits, one op per ns in the worst case
    adds = math.ceil(math.log2(n_taps - 1)) if n_taps > 1 else 0
    return StageLatency(f"{side}_ffe{n_taps}", CLOCK_NS, (1 + adds) * CLOCK_NS)


def _mlse_stage(memory: int) -> StageLatency:
    # one parallel block of SYMBOLS_PER_CLOCK decoded symbols plus the
    # 5x-memory overhead symbols on both sides
    block = SYMBOLS_PER_CLOCK + 2 * 5 * memory
    best = math.floor(block / MLSE_SYMBOLS_PER_CLOCK) * CLOCK_NS
    worst = block * CLOCK_NS
    return StageLatency(f"mlse{memory}", best, worst)


def _dmt_stage(fft_length: int, cp_fraction: Fraction) -> StageLatency:
    # buffering one DMT symbol plus transform time: a single clock when the
    # butterflies run fully parallel, N log2 N sequential ops in the worst
    # case (model extension; the reference arithmetic covers only the FFEs
    # and the MLSE)
    buffer_ns = float(fft_length * (1 + cp_fraction)) / dmt_mod.DMT_SAMPLE_RATE * 1e9
    ops_count = fft_length * math.log2(fft_length)
    return StageLatency("dmt_fft", buffer_ns + CLOCK_NS, buffer_ns + ops_count * CLOCK_NS)


def latency_budget(experiment: PamExperiment | DmtExperiment) -> LatencyBudget:
    """DSP, propagation and FEC latency of what `experiment` runs: the
    pre-emphasis its transmitter gets, its receive FFE and trellis, or its
    FFT and prefix.  The stage arithmetic is exact integer work in
    nanoseconds; the channel's fiber costs 5 us/km and the FEC a flat 10 us.
    """
    stages: list[StageLatency] = []
    if isinstance(experiment, DmtExperiment):
        stages.append(_dmt_stage(experiment.cfg.fft_length, experiment.cfg.cp_fraction))
    else:
        tx_taps = experiment.resolve_tx().pre_emphasis_taps
        if tx_taps is not None:
            stages.append(_ffe_stage("tx", len(tx_taps)))
        stages.append(_ffe_stage("rx", experiment.rx.n_ffe_taps))
        if experiment.rx.trellis_memory is not None:
            stages.append(_mlse_stage(experiment.rx.trellis_memory))
    propagation_us = experiment.channel.fiber_km * PROPAGATION_US_PER_KM
    return LatencyBudget(tuple(stages), propagation_us, FEC_LATENCY_US)


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
