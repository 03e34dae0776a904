"""Adaptive algorithms shared by the single-carrier chains.

LMS feedforward equalization, maximum-likelihood sequence estimation via
the Viterbi algorithm, the indirect-learning pre-emphasis trainer, and
Gardner clock recovery.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sigproc import SampleBuffer, SymbolSequence


class EqualizerDivergence(RuntimeError):
    """LMS adaptation diverged (growing MSE); carries the step size used."""

    def __init__(self, mu: float, mse: float):
        super().__init__(f"LMS diverged with step size {mu:g} (windowed MSE {mse:.3g})")
        self.mu = mu


class ClockRecoveryError(RuntimeError):
    """The Gardner S-curve is too weak to lock to, or has no usable zero
    crossing."""


@dataclass(frozen=True, eq=False)
class FfeTaps:
    """Feedforward equalizer coefficients, odd length, center-referenced."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=np.float64)
        if coeffs.ndim != 1 or coeffs.size < 1 or coeffs.size % 2 == 0:
            raise ValueError("FFE taps must be a 1-D odd-length array")
        if not np.isfinite(coeffs).all():
            raise ValueError("FFE taps must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def __len__(self) -> int:
        return self.coefficients.size

    def frequency_response(self, freqs: np.ndarray, sample_rate: float) -> np.ndarray:
        """Zero-phase-referenced response (center tap at delay 0)."""
        n = np.arange(len(self)) - len(self) // 2
        phases = np.exp(-2j * np.pi * np.outer(freqs, n) / sample_rate)
        return phases @ self.coefficients

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("index,coefficient\n")
            for i, c in enumerate(self.coefficients):
                fh.write(f"{i - len(self) // 2},{c:.12g}\n")


# ---------------------------------------------------------------------------
# LMS feedforward equalizer
# ---------------------------------------------------------------------------

def _lms_pass(
    x: np.ndarray,
    w: np.ndarray,
    desired: np.ndarray | None,
    levels: np.ndarray,
    n_train: int,
    mu_train: float,
    mu_dd: float,
) -> np.ndarray:
    """One sequential LMS sweep over a cyclic block; mutates `w` in place.

    Data-aided on the first `n_train` samples (when `desired` is given),
    decision-directed on the rest.  Returns the equalizer output stream.
    Raises EqualizerDivergence when the windowed MSE grows out of hand.

    The loop is bit-exact to the plain per-sample recursion
    ``y = w @ win; w += mu * e * win`` with ``win`` the reversed window:

    - ``win`` is a row of a reversed sliding-window view, so it keeps the
      negative stride of ``xp[k : k + n_taps][::-1]``.  On such a view
      ``@`` sums the products in tap order; ``np.dot`` copies to a
      contiguous buffer and hands it to BLAS, which rounds differently.
    - The update multiplies into a scratch buffer and adds it to `w`:
      the same two roundings as ``w += mu * e * win``, with no fused
      multiply-add and no temporary array.
    - The slicer bisects Python lists of the level midpoints, which is
      ``searchsorted(side="left")``.
    - Outputs and known symbols pass through Python lists one MSE window
      at a time.  A Python float costs about 32 bytes against 8 in an
      ndarray, so lists the length of the block would raise the peak
      memory of a run; lists one window long stay at about 64 kB.
    """
    n = x.size
    n_taps = w.size
    half = n_taps // 2
    xp = np.concatenate((x[-half:], x, x[:half])) if half else x
    windows = sliding_window_view(xp, n_taps)[:, ::-1]
    mids = ((levels[1:] + levels[:-1]) / 2.0).tolist()
    level_list = levels.tolist()
    level_power = float(np.mean(levels**2))
    n_aided = n_train if desired is not None else 0
    out = np.empty(n)
    step = np.empty(n_taps)
    first_window_mse = None
    window = 2048
    for start in range(0, n, window):
        stop = min(start + window, n)
        known = desired[start : min(stop, n_aided)].tolist() if start < n_aided else []
        n_known = len(known)
        outputs = []
        err_acc = 0.0
        for i, win in enumerate(windows[start:stop]):
            y = float(w @ win)
            outputs.append(y)
            if i < n_known:
                d = known[i]
                mu = mu_train
            else:
                d = level_list[bisect_left(mids, y)]
                mu = mu_dd
            e = d - y
            if not -1e60 < e < 1e60:
                raise EqualizerDivergence(mu, abs(e))
            np.multiply(win, mu * e, out=step)
            np.add(w, step, out=w)
            err_acc += e * e
        out[start:stop] = outputs
        if stop - start == window:
            mse = err_acc / window
            if not math.isfinite(mse) or mse > 1e6 * level_power:
                raise EqualizerDivergence(mu, mse)
            if first_window_mse is None:
                first_window_mse = max(mse, 1e-12)
            elif mse > 100.0 * first_window_mse and mse > 10.0 * level_power:
                raise EqualizerDivergence(mu, mse)
    return out


def _lms_pass_batch(
    xp: np.ndarray,
    w: np.ndarray,
    desired: np.ndarray | None,
    levels: np.ndarray,
    n_train: int,
    mu_train: float,
    mu_dd: float,
    failed: list,
    n_kept: int,
) -> np.ndarray:
    """:func:`_lms_pass` over B cyclic blocks in lockstep; mutates `w` in place.

    `xp` holds the blocks as rows, each already extended cyclically by
    ``n_taps // 2`` samples on both sides, and `w` their ``(B, n_taps)``
    taps.  `failed[b]` is None while stream b adapts.  A stream that
    diverges gets the EqualizerDivergence `_lms_pass` would raise on it
    there, and its taps stop moving; the others run on, and the pass ends
    at the next MSE window once none does.  Returns the outputs of the
    first `n_kept` samples, one row per stream; a failed stream's row has
    no meaning.

    Every stream sees exactly the floats of `_lms_pass`:

    - The windows are ``(B, n_taps, 1)`` views with a negative tap stride.
      On those ``np.matmul`` calls numpy's plain dot loop for each stream,
      which sums the products in tap order, as ``w @ win`` does.
    - The slicer, the error, ``mu * e`` and the windowed MSE are Python
      floats per stream, the arithmetic of `_lms_pass`.
    - The update multiplies every window by its stream's ``mu * e`` into
      scratch and adds that to `w`: the same two roundings.
    """
    n_streams, n_taps = w.shape
    n = xp.shape[1] - n_taps + 1
    # [k, b] is the reversed window of stream b at sample k
    by_time = np.moveaxis(sliding_window_view(xp, n_taps, axis=1)[:, :, ::-1], 1, 0)
    columns = by_time[..., np.newaxis]
    w_rows = w[:, np.newaxis, :]
    mids = ((levels[1:] + levels[:-1]) / 2.0).tolist()
    level_list = levels.tolist()
    level_power = float(np.mean(levels**2))
    n_aided = n_train if desired is not None else 0
    kept = np.empty((n_streams, n_kept))
    y = np.empty((n_streams, 1, 1))
    y_flat = y.reshape(n_streams)
    scale = np.zeros((n_streams, 1))
    scale_flat = scale.reshape(n_streams)
    step = np.empty((n_streams, n_taps))
    running = [b for b in range(n_streams) if failed[b] is None]
    scales = scale_flat.tolist()
    first_window_mse = [None] * n_streams
    window = 2048
    for start in range(0, n, window):
        if not running:
            break
        stop = min(start + window, n)
        known = desired[start : min(stop, n_aided)].tolist() if start < n_aided else []
        n_known = len(known)
        outputs = []
        err_acc = [0.0] * n_streams
        steps = zip(by_time[start:stop], columns[start:stop])
        for i, (rows, cols) in enumerate(steps):
            np.matmul(w_rows, cols, out=y)
            ys = y_flat.tolist()
            if start < n_kept:
                outputs.append(ys)
            if i < n_known:
                d = known[i]
                mu = mu_train
                errors = [d - ys[b] for b in running]
            else:
                mu = mu_dd
                errors = [level_list[bisect_left(mids, ys[b])] - ys[b] for b in running]
            diverged = False
            for b, e in zip(running, errors):
                if not -1e60 < e < 1e60:
                    failed[b] = EqualizerDivergence(mu, abs(e))
                    scales[b] = 0.0
                    diverged = True
                    continue
                scales[b] = mu * e
                err_acc[b] += e * e
            if diverged:
                running = [b for b in running if failed[b] is None]
            scale_flat[:] = scales
            np.multiply(rows, scale, out=step)
            np.add(w, step, out=w)
        if start < n_kept:
            kept[:, start : min(stop, n_kept)] = np.array(outputs[: n_kept - start]).T
        if stop - start == window:
            for b in running:
                mse = err_acc[b] / window
                if not math.isfinite(mse) or mse > 1e6 * level_power:
                    failed[b] = EqualizerDivergence(mu, mse)
                elif first_window_mse[b] is None:
                    first_window_mse[b] = max(mse, 1e-12)
                elif mse > 100.0 * first_window_mse[b] and mse > 10.0 * level_power:
                    failed[b] = EqualizerDivergence(mu, mse)
                if failed[b] is not None:
                    scales[b] = 0.0
            running = [b for b in running if failed[b] is None]
    return kept


@dataclass(eq=False)
class EqualizedStream:
    """LMS equalization result: converged taps and the symbol-rate output."""

    taps: FfeTaps
    output: np.ndarray
    mse_train: float
    mse_final: float


def apply_taps_cyclic(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Filter a cyclic block with center-referenced FIR taps (zero group delay).

    Matches the alignment used during adaptation: tap j multiplies
    x[k + half - j].  Also applies the transmitter's pre-emphasis FIR.
    """
    n = x.size
    half = w.size // 2
    kernel = np.zeros(n)
    for j, tap in enumerate(w):
        kernel[(j - half) % n] += tap
    return np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(kernel), n)


LMS_MU_TRAIN = 1e-3
"""Data-aided LMS step size in the alphabet-power domain, before the cap."""

LMS_MU_DD = 1e-4
"""Decision-directed LMS step size, before the cap."""

LMS_TRAIN_FRACTION = 0.1
"""Share of a block the receive FFE trains data-aided in each pass."""

LMS_TRAIN_PASSES = 4
"""Adaptation sweeps of the receive FFE over its cyclic block."""


def lms_equalize(
    rx: np.ndarray | SampleBuffer,
    reference: SymbolSequence,
    n_taps: int,
    train_passes: int = LMS_TRAIN_PASSES,
) -> EqualizedStream:
    """Train an FFE on a cyclic symbol-rate block and equalize it.

    Each adaptation sweep runs data-aided over the first
    `LMS_TRAIN_FRACTION` of the block with the known reference symbols,
    then decision-directed over the remainder; `train_passes` sweeps
    re-anchor the delay before decisions can walk it.  The equalized output
    is the block re-filtered with the converged taps.
    """
    (result,) = _equalize_streams([rx], reference, n_taps, train_passes)
    if isinstance(result, EqualizerDivergence):
        raise result
    return result


def lms_equalize_batch(
    streams: list[np.ndarray | SampleBuffer],
    reference: SymbolSequence,
    n_taps: int,
) -> list[EqualizedStream | EqualizerDivergence]:
    """:func:`lms_equalize` of each block in `streams` against one reference.

    Each stream gets what lms_equalize returns for it, or the
    EqualizerDivergence it raises there.  The streams adapt in lockstep in
    `_lms_pass_batch`.
    """
    return _equalize_streams(streams, reference, n_taps, LMS_TRAIN_PASSES)


def _equalize_streams(
    streams: list[np.ndarray | SampleBuffer],
    reference: SymbolSequence,
    n_taps: int,
    train_passes: int,
) -> list[EqualizedStream | EqualizerDivergence]:
    """The body of :func:`lms_equalize_batch`, with `train_passes` sweeps."""
    if n_taps < 1 or n_taps % 2 == 0:
        raise ValueError("FFE length must be odd and >= 1")
    levels = reference.alphabet
    desired = reference.levels
    xs = [s.samples if isinstance(s, SampleBuffer) else np.asarray(s, dtype=np.float64)
          for s in streams]
    n = desired.size
    if any(x.size != n for x in xs):
        raise ValueError("rx block and reference must have equal symbol counts")
    # adapt in the alphabet-power domain (the step sizes assume it),
    # capping the step well below the white-input stability bound 2/(N*P):
    # the equalizer input is strongly colored, which tightens the true bound
    power = float(np.mean(levels**2))
    gains = [np.sqrt(power / max(np.mean(x**2), 1e-30)) for x in xs]
    mu_cap = 0.05 * 2.0 / (n_taps * power)
    mu_train = min(LMS_MU_TRAIN, mu_cap)
    mu_dd = min(LMS_MU_DD, mu_cap)
    half = n_taps // 2
    # each row: the scaled block, extended cyclically by half a filter
    xp = np.empty((len(xs), n + 2 * half))
    for row, x, gain in zip(xp, xs, gains):
        np.multiply(x, gain, out=row[half : half + n])
        row[:half] = row[n : n + half]
        row[half + n :] = row[half : 2 * half]
    w = np.zeros((len(gains), n_taps))
    w[:, half] = 1.0
    n_train = max(int(LMS_TRAIN_FRACTION * n), min(n, 4 * n_taps))
    failed: list[EqualizerDivergence | None] = [None] * len(gains)
    mse_train = [np.inf] * len(gains)
    # each sweep re-anchors data-aided on the known prefix, then tracks
    # decision-directed across the remainder of the cyclic block
    for _ in range(max(train_passes, 1)):
        heads = _lms_pass_batch(xp, w, desired, levels, n_train, mu_train, mu_dd,
                                failed, n_train)
        for b, head in enumerate(heads):
            if failed[b] is None:
                mse = float(np.mean((head - desired[:n_train]) ** 2))
                mse_train[b] = min(mse_train[b], mse)
    # each block is then re-filtered with its converged taps
    mids = (levels[1:] + levels[:-1]) / 2.0
    results: list[EqualizedStream | EqualizerDivergence] = []
    for b, gain in enumerate(gains):
        if failed[b] is not None:
            results.append(failed[b])
            continue
        output = apply_taps_cyclic(xp[b, half : half + n], w[b])
        decided = levels[np.searchsorted(mids, output)]
        mse_final = float(np.mean((output - decided) ** 2))
        results.append(EqualizedStream(FfeTaps(w[b] * gain), output, mse_train[b], mse_final))
    return results


# ---------------------------------------------------------------------------
# MLSE (Viterbi)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MlseConfig:
    """Trellis definition for PAM4 sequence detection.

    `expected` holds the noiseless detector input for every (state, input
    symbol) pair; states encode the last `memory` symbol indices with the
    most recent one in the least significant base-4 digit.
    """

    memory: int
    alphabet: np.ndarray
    expected: np.ndarray  # (4**memory, 4)
    start_state: int | None = 0

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError("MLSE memory must be >= 1")
        alphabet = np.array(self.alphabet, dtype=np.float64)
        expected = np.array(self.expected, dtype=np.float64)
        n_states = 4**self.memory
        if alphabet.size != 4:
            raise ValueError("MLSE operates on a 4-ary symbol alphabet")
        if expected.shape != (n_states, 4):
            raise ValueError(f"expected-output table must be {(n_states, 4)}")
        alphabet.setflags(write=False)
        expected.setflags(write=False)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "expected", expected)

    @property
    def n_states(self) -> int:
        return 4**self.memory

    @classmethod
    def for_fir_channel(
        cls,
        channel: np.ndarray,
        alphabet: np.ndarray,
        memory: int | None = None,
        start_symbol: int | None = 0,
    ) -> "MlseConfig":
        """Trellis for y[k] = sum_j channel[j] * level[k-j].

        `memory` defaults to len(channel)-1 and may exceed it (extra state
        digits are simply unused by the branch outputs).
        """
        h = np.asarray(channel, dtype=np.float64)
        alphabet = np.asarray(alphabet, dtype=np.float64)
        m = h.size - 1 if memory is None else memory
        if m < max(h.size - 1, 1):
            raise ValueError("MLSE memory shorter than the channel memory")
        n_states = 4**m
        states = np.arange(n_states)
        expected = np.zeros((n_states, 4))
        expected += h[0] * alphabet[np.newaxis, :]
        for k in range(1, h.size):
            digit = (states // 4 ** (k - 1)) % 4
            expected += (h[k] * alphabet[digit])[:, np.newaxis]
        start = None
        if start_symbol is not None:
            # state = the start symbol repeated through the register
            start = sum(start_symbol * 4**j for j in range(m))
        return cls(m, alphabet, expected, start)

    @classmethod
    def partial_response(cls, alphabet: np.ndarray, memory: int = 1) -> "MlseConfig":
        """Delay-and-add trellis: expected output level[k] + level[k-1]."""
        return cls.for_fir_channel(np.array([1.0, 1.0]), alphabet, memory, start_symbol=0)


def mlse_detect(samples: np.ndarray | SampleBuffer, cfg: MlseConfig) -> SymbolSequence:
    """Viterbi detection with squared-Euclidean branch metrics.

    Full-block traceback (deeper than the usual 5x-memory window); ties
    break toward the lower state index for reproducibility.

    The predecessors of next-state ``s' = 4 g + u`` are ``g + d * group``
    for d = 0..3, so viewing the metrics as ``(4, group, 1)`` lines every
    predecessor up with its successors without a gather.  Branch metrics
    are formed a chunk of symbols at a time by broadcasting.  Each
    candidate is the same ``metric + (y - expected) ** 2`` as a per-edge
    sum, so the surviving metrics are bit-exact, and ``argmin`` keeps the
    lowest digit d, i.e. the lowest predecessor, on ties.  Only the 2-bit
    digit d is stored per state and step (``uint8``); the traceback
    rebuilds the predecessor from it.
    """
    y = samples.samples if isinstance(samples, SampleBuffer) else np.asarray(samples, dtype=np.float64)
    n = y.size
    n_states = cfg.n_states
    group = n_states // 4
    # predecessors of next-state s' are (s' // 4) + d * (n_states/4), d = 0..3;
    # the edge consumes input symbol s' % 4
    nxt = np.arange(n_states)
    pred = (nxt // 4)[np.newaxis, :] + (np.arange(4) * group)[:, np.newaxis]
    edge_expected = cfg.expected[pred, (nxt % 4)[np.newaxis, :]].reshape(4, group, 4)

    metrics = np.zeros(n_states)
    if cfg.start_state is not None:
        metrics = np.full(n_states, 1e30)
        metrics[cfg.start_state] = 0.0
    from_pred = metrics.reshape(4, group, 1)  # [d, g] = metric of state g + d * group
    cand = np.empty((4, group, 4))  # [d, g, u]: edge from g + d * group to 4 * g + u
    cand_by_next = cand.reshape(4, n_states)
    digits = np.empty((n, n_states), dtype=np.uint8)
    # branch metrics for up to 2048 symbols at a time, held to about 1 MB
    chunk = max(1, min(2048, 2**17 // cand.size))
    for t0 in range(0, n, chunk):
        t1 = min(t0 + chunk, n)
        branch = y[t0:t1, np.newaxis, np.newaxis, np.newaxis] - edge_expected
        np.square(branch, out=branch)
        for t, bm in enumerate(branch, t0):
            np.add(from_pred, bm, out=cand)
            digits[t] = cand_by_next.argmin(axis=0)
            cand_by_next.min(axis=0, out=metrics)
    state = int(np.argmin(metrics))
    indices = np.empty(n, dtype=np.int64)
    for t in range(n - 1, -1, -1):
        indices[t] = state % 4
        state = state // 4 + int(digits[t, state]) * group
    return SymbolSequence(indices, cfg.alphabet)


# ---------------------------------------------------------------------------
# pre-emphasis (indirect learning)
# ---------------------------------------------------------------------------

PREEMPHASIS_MU = 5e-4
"""LMS step size of the pre-emphasis trainer."""

PREEMPHASIS_PASSES = 3
"""Adaptation sweeps of the pre-emphasis trainer over its cyclic probe."""


def train_preemphasis_waveform(probe: SampleBuffer, observed: SampleBuffer, n_taps: int) -> FfeTaps:
    """Indirect-learning pre-emphasis trainer for a known probe waveform.

    Purely data-aided LMS learns a postdistorter W with W(observed) ~
    probe; installed before the transmitter, W pre-compensates its linear
    response, so |W x H_tx| is flat across the band the probe excites.  A
    shaped probe keeps the learned boost inside the band the format
    occupies.
    """
    if len(probe) != len(observed):
        raise ValueError("probe and observed waveforms must align sample-for-sample")
    if len(probe) < 10 * n_taps:
        raise ValueError(f"probe too short: need >= {10 * n_taps} samples for {n_taps} taps")
    desired = probe.samples
    x = observed.samples
    gain = np.sqrt(np.mean(desired**2) / max(np.mean(x**2), 1e-30))
    x = x * gain
    dummy_levels = np.array([np.min(desired), np.max(desired) + 1e-9])
    w = np.zeros(n_taps)
    w[n_taps // 2] = 1.0
    for _ in range(PREEMPHASIS_PASSES):
        _lms_pass(x, w, desired, dummy_levels, x.size, PREEMPHASIS_MU, PREEMPHASIS_MU)
    return FfeTaps(w * gain)


# ---------------------------------------------------------------------------
# Gardner clock recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClockPhase:
    """Fractional sampling phase correction in unit intervals, [-0.5, 0.5),
    and the lock strength: the amplitude of the circular S-curve over the
    block's mean power."""

    offset_ui: float
    amplitude: float

    def __post_init__(self):
        if not -0.5 <= self.offset_ui < 0.5:
            raise ValueError("clock phase must lie in [-0.5, 0.5) UI")


GARDNER_PHASES = 64
"""Trial phases per unit interval of the Gardner S-curve."""


def _s_curve(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The block-averaged Gardner detector ``-mid * (on_time - prev)`` at
    `GARDNER_PHASES` trial delays (trial phases in UI, detector output per
    phase), and the amplitude of its circular part.

    Averaged over the circular block of N samples, the detector at a delay
    of tau UI is exactly ``c0 cos 2 pi tau + c1 sin 2 pi tau`` with
    ``c0 + j c1 = -4/N^2 sum_k X[k] X[N/2 - k] e^{-j 2 pi k/N}`` over the
    rfft lines 0 < k < N/2: the products pair the lines f and Rs - f about
    the band edge, the delay turns each pair by e^{-j 2 pi tau}, and the
    pair of the DC and Nyquist lines cancels.  The detector averages only
    the N/2 - 1 triples inside the block, so the triple that wraps from the
    last mid sample to the first on-time sample is taken back out.  At the
    trial delays d = 2 tau its samples x(-d), x(-1 - d) and x(-2 - d) lie on
    the trial-delay grid from x(1) down to x(-3), which is summed directly
    from the spectrum.
    """
    n = x.size
    half = n // 2
    spec = np.fft.rfft(x)
    k = np.arange(spec.size)
    advance = np.exp(2j * np.pi * k / n)
    pairs = np.sum(spec[1:half] * spec[half - 1 : 0 : -1] * np.conj(advance[1:half]))
    c0 = -4.0 * pairs.real / n**2
    c1 = -4.0 * pairs.imag / n**2
    phases = np.arange(GARDNER_PHASES) / GARDNER_PHASES - 0.5
    circular = c0 * np.cos(2.0 * np.pi * phases) + c1 * np.sin(2.0 * np.pi * phases)
    per_sample = GARDNER_PHASES // 2
    # irfft weights: the DC and Nyquist lines once, the others twice
    lines = spec * advance
    lines[1:-1] *= 2.0
    step = np.exp(-2j * np.pi * k / (per_sample * n))
    edge = np.empty(GARDNER_PHASES + 2 * per_sample)
    for j in range(edge.size):
        edge[j] = lines.real.sum()
        lines *= step
    edge /= n
    i = np.arange(GARDNER_PHASES)
    on_time, mid, prev = edge[i], edge[i + per_sample], edge[i + 2 * per_sample]
    wrapped = -mid * (on_time - prev)
    curve = (half * circular - wrapped) / (half - 1)
    return phases, curve, math.hypot(c0, c1)


def gardner_recover(signal: SampleBuffer, polarity: int = 1) -> ClockPhase:
    """Estimate the sampling phase correction from the Gardner S-curve.

    Evaluates the averaged detector over one UI of trial delays and returns
    the zero crossing with positive slope, refined by parabolic
    interpolation through the bracketing grid points.  Applying a
    fractional delay of ``2 * offset_ui`` samples centers even-indexed
    samples on the symbols.

    `polarity` -1 flips the S-curve before the crossing search: the
    detector's sign reverses on partial-response (duobinary) shaping,
    whose spectral null at half the symbol rate inverts the transition
    statistics.
    """
    x = signal.samples
    if x.size < 2000 or x.size % 2:
        raise ValueError("need at least 1000 symbols at 2 samples/symbol")
    phases, curve, strength = _s_curve(x)
    power = float(np.mean(x * x))
    if not math.isfinite(strength) or not strength > 1e-12 * power:
        raise ClockRecoveryError(f"Gardner S-curve amplitude {strength:.3g} too weak to lock")
    curve = polarity * curve
    n = phases.size
    crossings = []
    for i in range(n):
        j = (i + 1) % n
        if curve[i] < 0.0 <= curve[j]:
            crossings.append((i, j))
    if not crossings:
        raise ClockRecoveryError("no positive-slope zero crossing in the S-curve")
    # strongest crossing: largest local slope
    i, j = max(crossings, key=lambda ij: curve[ij[1]] - curve[ij[0]])
    # parabola through the three points around the crossing
    x0 = phases[i]
    step = 1.0 / n
    y_m, y_0, y_p = curve[i - 1], curve[i], curve[j]
    denom = y_m - 2.0 * y_0 + y_p
    root = None
    if abs(denom) > 1e-18:
        a = denom / (2.0 * step**2)
        b = (y_p - y_m) / (2.0 * step)
        disc = b * b - 4.0 * a * y_0
        if disc >= 0.0:
            for cand in ((-b + np.sqrt(disc)) / (2 * a), (-b - np.sqrt(disc)) / (2 * a)):
                if 0.0 <= cand <= step:
                    root = x0 + cand
                    break
    if root is None:
        # linear fallback between the bracketing points
        root = x0 + step * curve[i] / (curve[i] - curve[j])
    offset = (root + 0.5) % 1.0 - 0.5
    return ClockPhase(float(np.clip(offset, -0.5, np.nextafter(0.5, 0))), strength / power)
