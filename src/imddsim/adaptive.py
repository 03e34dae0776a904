"""Adaptive algorithms shared by the single-carrier chains.

The receive FFE (a least-squares fit on the known prefix, then one
decision-directed LMS sweep over the rest of the block),
maximum-likelihood sequence estimation via the Viterbi algorithm, the
indirect-learning pre-emphasis trainer, and Gardner clock recovery.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sigproc import SampleBuffer, SimulationError, SymbolSequence


class EqualizerDivergence(SimulationError):
    """The pre-emphasis trainer's LMS step has no bound: the step times the
    largest eigenvalue of the probe's autocorrelation is 2 or more (see
    `_mean_lms`); carries the step size used."""

    def __init__(self, mu: float, largest_step: float):
        super().__init__(f"pre-emphasis LMS diverges with step size {mu:g} "
                         f"(step x largest eigenvalue {largest_step:.3g} >= 2)")
        self.mu = mu


class ClockRecoveryError(SimulationError):
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


# ---------------------------------------------------------------------------
# LMS feedforward equalizer
# ---------------------------------------------------------------------------

def _lms_pass_batch(
    xp: np.ndarray,
    w: np.ndarray,
    levels: np.ndarray,
    first: int,
    mu: list[float],
) -> None:
    """The receive FFE's decision-directed LMS sweep over B cyclic blocks in
    lockstep, from sample `first` to the end; mutates `w` in place.

    `xp` holds the blocks as rows, each already extended cyclically by
    ``n_taps // 2`` samples on both sides, `w` their ``(B, n_taps)`` taps
    and `mu` their B step sizes.  The samples before `first` are the known
    prefix, which the least-squares start has already fitted; the sweep
    reads no reference symbol.

    Each stream is bit-exact to the per-sample recursion ``y = w @ win;
    w += mu[b] * e * win`` with ``win = xp[b, k : k + n_taps][::-1]``:

    - The windows are ``(B, n_taps, 1)`` views with a negative tap stride.
      On those ``np.matmul`` calls numpy's plain dot loop for each stream,
      which sums the products in tap order, as ``w @ win`` does.
    - The slicer (a bisect of the level midpoints: ``searchsorted(side=
      "left")``), the error and ``mu[b] * e`` are Python floats per stream.
    - The update multiplies every window by its stream's ``mu[b] * e`` into
      scratch and adds that to `w`: the same two roundings.
    """
    n_streams, n_taps = w.shape
    # [k, b] is the reversed window of stream b at sample k
    by_time = np.moveaxis(sliding_window_view(xp, n_taps, axis=1)[:, :, ::-1], 1, 0)
    columns = by_time[..., np.newaxis]
    w_rows = w[:, np.newaxis, :]
    mids = ((levels[1:] + levels[:-1]) / 2.0).tolist()
    level_list = levels.tolist()
    y = np.empty((n_streams, 1, 1))
    y_flat = y.reshape(n_streams)
    scale = np.empty((n_streams, 1))
    scale_flat = scale.reshape(n_streams)
    step = np.empty((n_streams, n_taps))
    scales = [0.0] * n_streams
    streams = list(enumerate(mu))
    for rows, cols in zip(by_time[first:], columns[first:]):
        np.matmul(w_rows, cols, out=y)
        ys = y_flat.tolist()
        for b, m in streams:
            v = ys[b]
            scales[b] = m * (level_list[bisect_left(mids, v)] - v)
        scale_flat[:] = scales
        np.multiply(rows, scale, out=step)
        np.add(w, step, out=w)


@dataclass(eq=False)
class EqualizedStream:
    """FFE equalization result: adapted taps and the symbol-rate output.

    `mse_train` is the least-squares residual on the known prefix, and
    `mse_final` the output's squared distance to its decisions."""

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


LMS_MU_DD = 1e-4
"""Decision-directed LMS step size in the alphabet-power domain, before
the cap."""

LMS_TRAIN_FRACTION = 0.1
"""Share of a block the receive FFE knows: its least-squares start is
fitted there, and its decision-directed LMS sweep runs on the rest."""

LS_SCRATCH_BYTES = 2**23
"""Most bytes of each array the receive FFE's least-squares start holds:
the normal matrix, one chunk of windows and the chunk's product."""

FFE_MAX_TAPS = math.isqrt(LS_SCRATCH_BYTES // 8) - 1
"""Longest FFE whose normal matrix fits in `LS_SCRATCH_BYTES` (1,023
taps): the receive FFE and the pre-emphasis trainer each solve one."""


def _ls_start(xp: np.ndarray, desired: np.ndarray, n_taps: int) -> tuple[np.ndarray, float]:
    """The least-squares FFE of one stream on its known prefix, and its
    mean squared residual there.

    `xp` is the stream as `_lms_pass_batch` takes it (scaled, extended
    cyclically by ``n_taps // 2`` on both sides) and `desired` the known
    symbols of the prefix.  Row k of the fit is the reversed window the
    LMS sees at sample k, so the taps apply as the LMS taps do.  The normal
    equations ``R w = p`` are summed a chunk of rows at a time, so the
    scratch stays within `LS_SCRATCH_BYTES` at any block length.  A
    singular R (a prefix that cannot fix the taps, such as a constant
    one) gets the minimum-norm solution.  Since ``R w = p``, the residual
    ``|d - X w|**2`` is ``d @ d - w @ p``.
    """
    n_train = desired.size
    windows = sliding_window_view(xp, n_taps)[:n_train, ::-1]
    rows = max(1, LS_SCRATCH_BYTES // (8 * n_taps))
    r = np.zeros((n_taps, n_taps))
    p = np.zeros(n_taps)
    for start in range(0, n_train, rows):
        chunk = np.ascontiguousarray(windows[start : start + rows])
        r += chunk.T @ chunk
        p += chunk.T @ desired[start : start + rows]
    try:
        w = np.linalg.solve(r, p)
    except np.linalg.LinAlgError:
        w = np.linalg.lstsq(r, p, rcond=None)[0]
    return w, max(float(desired @ desired - w @ p), 0.0) / n_train


def lms_equalize(
    rx: np.ndarray | SampleBuffer,
    reference: SymbolSequence,
    n_taps: int,
    train_passes: int = 1,
) -> EqualizedStream:
    """Train an FFE on a cyclic symbol-rate block and equalize it.

    The known prefix is the first `LMS_TRAIN_FRACTION` of the block, but at
    least 4 symbols per tap, up to half the block (and at least 1 symbol).  The taps start from the
    least-squares fit against the reference symbols there, the FFE's only
    data-aided training.  One decision-directed LMS sweep then adapts them
    over the rest of the block, reading no reference symbol, at a step
    that keeps them bounded (see :func:`lms_equalize_batch`).  The
    equalized output is the block re-filtered with the adapted taps.

    `train_passes` counts the LMS sweeps after the least-squares start;
    only 1 is supported (the benchmark's span counter reads it by name).
    """
    if train_passes != 1:
        raise ValueError(f"the receive FFE runs one LMS pass, got train_passes={train_passes}")
    (result,) = lms_equalize_batch([rx], reference, n_taps)
    return result


def lms_equalize_batch(
    streams: list[np.ndarray | SampleBuffer],
    reference: SymbolSequence,
    n_taps: int,
) -> list[EqualizedStream]:
    """:func:`lms_equalize` of each block in `streams` against one reference.

    Each stream is fitted on its own; the decision-directed sweeps of all
    streams run in lockstep in `_lms_pass_batch`.  A stream that is not
    finite raises ValueError.

    Stream b adapts at ``mu_b = min(LMS_MU_DD, 0.05 * 2 / (n_taps * P),
    1 / E_b)``, with P the alphabet power and E_b the largest energy of
    any n_taps-sample window of its scaled, cyclically extended block (a
    block of zero energy keeps the first two terms).  So ``mu_b *
    |x_k|**2 <= 1`` on every window x_k, where LMS is H-infinity stable
    (Hassibi, Sayed and Kailath, IEEE Trans. Signal Process. 44(2),
    1996): whatever the decision d_k, each step keeps ``|w_{k+1}|**2 /
    mu_b + y_k**2 <= |w_k|**2 / mu_b + d_k**2``.  Summed over the sweep,
    ``|w_k|**2 <= |w_LS|**2 + mu_b * (k - n_train) * max(level**2)`` for
    the scaled taps from the least-squares start w_LS, so the taps and
    every output are bounded by construction: the FFE cannot diverge.
    The step, like the fit, depends on the stream alone, never on its
    batch mates.
    """
    if n_taps < 1 or n_taps % 2 == 0:
        raise ValueError("FFE length must be odd and >= 1")
    levels = reference.alphabet
    desired = reference.levels
    xs = [s.samples if isinstance(s, SampleBuffer) else np.asarray(s, dtype=np.float64)
          for s in streams]
    n = desired.size
    if any(x.size != n for x in xs):
        raise ValueError("rx block and reference must have equal symbol counts")
    if n_taps > n:
        raise ValueError(f"FFE length {n_taps} exceeds the block of {n} symbols")
    if not all(np.isfinite(x).all() for x in xs):
        raise ValueError("rx blocks must be finite")
    # adapt in the alphabet-power domain (the step size assumes it),
    # capping the step well below the white-input stability bound 2/(N*P)
    # (the equalizer input is strongly colored, which tightens the true
    # bound), and each stream's at 1/E_b, inside the H-infinity bound
    power = float(np.mean(levels**2))
    gains = [np.sqrt(power / max(np.mean(x**2), 1e-30)) for x in xs]
    mu = min(LMS_MU_DD, 0.05 * 2.0 / (n_taps * power))
    half = n_taps // 2
    # each row: the scaled block, extended cyclically by half a filter
    xp = np.empty((len(xs), n + 2 * half))
    mus = []
    for row, x, gain in zip(xp, xs, gains):
        np.multiply(x, gain, out=row[half : half + n])
        row[:half] = row[n : n + half]
        row[half + n :] = row[half : 2 * half]
        # E_b, the largest energy of any window the sweep sees, from one cumsum
        energies = np.concatenate(([0.0], np.cumsum(row * row)))
        energy = float(np.max(energies[n_taps:] - energies[:-n_taps]))
        mus.append(min(mu, 1.0 / energy) if energy > 0.0 else mu)
    n_train = max(int(LMS_TRAIN_FRACTION * n), min(n // 2, 4 * n_taps), 1)
    starts, mses_train = zip(*[_ls_start(row, desired[:n_train], n_taps) for row in xp])
    w = np.stack(starts)
    _lms_pass_batch(xp, w, levels, n_train, mus)
    # each block is then re-filtered with its adapted taps
    mids = (levels[1:] + levels[:-1]) / 2.0
    results = []
    for b, (gain, mse_train) in enumerate(zip(gains, mses_train)):
        output = apply_taps_cyclic(xp[b, half : half + n], w[b])
        decided = levels[np.searchsorted(mids, output)]
        mse_final = float(np.mean((output - decided) ** 2))
        results.append(EqualizedStream(FfeTaps(w[b] * gain), output, mse_train, mse_final))
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
        start_symbol: int | None = 0,
    ) -> "MlseConfig":
        """Trellis for y[k] = sum_j channel[j] * level[k-j], of memory
        len(channel) - 1 (a longer register is a zero-padded channel)."""
        h = np.asarray(channel, dtype=np.float64)
        alphabet = np.asarray(alphabet, dtype=np.float64)
        m = h.size - 1
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
    def partial_response(cls, alphabet: np.ndarray) -> "MlseConfig":
        """Delay-and-add trellis: expected output level[k] + level[k-1]."""
        return cls.for_fir_channel(np.array([1.0, 1.0]), alphabet, start_symbol=0)


MLSE_BATCH_STATES = 256
"""Most trellis states, summed over its streams, that one Viterbi time loop
of :func:`mlse_detect_batch` carries.  More streams run as consecutive
loops, so the digit table stays at 256 bytes per symbol (16.8 MB for
65,536 symbols), and within `MLSE_MAX_DIGIT_BYTES` on longer blocks; a
single larger trellis runs alone."""

MLSE_MAX_DIGIT_BYTES = 2**28
"""Largest Viterbi digit table (a byte per state and symbol) one trellis
may need: a 4**order-symbol block takes at most 4**(14 - order) states."""


def mlse_detect(samples: np.ndarray | SampleBuffer, cfg: MlseConfig) -> SymbolSequence:
    """Viterbi detection of one stream: :func:`mlse_detect_batch` of one."""
    (detected,) = mlse_detect_batch([samples], [cfg])
    return detected


def mlse_detect_batch(
    streams: list[np.ndarray | SampleBuffer],
    trellises: list[MlseConfig],
) -> list[SymbolSequence]:
    """Viterbi detection with squared-Euclidean branch metrics, stream b on
    trellis ``trellises[b]``.

    Full-block traceback (deeper than the usual 5x-memory window); ties
    break toward the lower state index for reproducibility.  The streams
    must have equal lengths; their trellises may differ in memory and in
    expected outputs.  Consecutive streams share one time loop up to
    `MLSE_BATCH_STATES` summed states, and while their digit table stays
    within `MLSE_MAX_DIGIT_BYTES` (see `_viterbi`); each stream's result
    does not depend on the streams it shares a loop with.
    """
    ys = [s.samples if isinstance(s, SampleBuffer) else np.asarray(s, dtype=np.float64)
          for s in streams]
    if len(ys) != len(trellises):
        raise ValueError(f"{len(ys)} MLSE streams for {len(trellises)} trellises")
    if any(y.size != ys[0].size for y in ys):
        raise ValueError("MLSE streams must have equal lengths")
    detected: list[SymbolSequence] = []
    start = 0
    while start < len(ys):
        # the states one loop sums: at most MLSE_BATCH_STATES, and a digit
        # table (a byte per state and symbol) within MLSE_MAX_DIGIT_BYTES
        most = min(MLSE_BATCH_STATES, MLSE_MAX_DIGIT_BYTES // max(ys[start].size, 1))
        stop = start + 1
        states = trellises[start].n_states
        while stop < len(ys) and states + trellises[stop].n_states <= most:
            states += trellises[stop].n_states
            stop += 1
        detected += _viterbi(ys[start:stop], trellises[start:stop])
        start = stop
    return detected


def _viterbi(ys: list[np.ndarray], trellises: list[MlseConfig]) -> list[SymbolSequence]:
    """One Viterbi time loop over every stream in `ys`.

    The states of all trellises lie side by side on one axis of S rows.
    In a trellis of ``4 * group`` states the predecessors of next-state
    ``s' = 4 g + u`` are ``g + d * group`` for d = 0..3, and the edge
    consumes input symbol u; so every row has exactly four candidates,
    held as an ``(S, 4)`` block with the predecessor digit d on the last
    axis.  Each step gathers the predecessors' metrics (`pred`, in range
    by construction), adds the branch metrics, takes ``argmin`` along d,
    and gathers the winners: the value ``min`` returns, at a fraction of
    the cost of ``min`` along an axis of length 4.  Each
    candidate is the same ``metric + (y - expected) ** 2`` as a per-edge
    sum, so the surviving metrics are bit-exact, and ``argmin`` keeps the
    lowest digit d, i.e. the lowest predecessor, on ties.  Branch metrics
    are formed a chunk of symbols at a time by broadcasting.  Only the
    2-bit digit d is stored per state and step (``uint8``); the traceback
    rebuilds the predecessor from it.
    """
    n = ys[0].size
    offsets = np.cumsum([0] + [cfg.n_states for cfg in trellises]).tolist()
    n_rows = offsets[-1]
    pred = np.empty((n_rows, 4), dtype=np.intp)
    edge_expected = np.empty((n_rows, 4))
    metrics = np.zeros(n_rows)
    for cfg, lo in zip(trellises, offsets):
        rows = slice(lo, lo + cfg.n_states)
        nxt = np.arange(cfg.n_states)
        local = (nxt // 4)[:, np.newaxis] + np.arange(4) * (cfg.n_states // 4)
        pred[rows] = lo + local
        edge_expected[rows] = cfg.expected[local, (nxt % 4)[:, np.newaxis]]
        if cfg.start_state is not None:
            metrics[rows] = 1e30
            metrics[lo + cfg.start_state] = 0.0
    cand = np.empty((n_rows, 4))  # [s', d]: edge into s' from its predecessor d
    cand_flat = cand.reshape(-1)
    row_base = np.arange(0, cand.size, 4)
    flat = np.empty(n_rows, dtype=np.intp)
    digits = np.empty((n, n_rows), dtype=np.uint8)
    # branch metrics for up to 2048 symbols at a time, held to about 1 MB;
    # the winning digits of a chunk go to the uint8 table in one copy
    chunk = max(1, min(2048, 2**17 // cand.size))
    winners = np.empty((chunk, n_rows), dtype=np.intp)
    for t0 in range(0, n, chunk):
        t1 = min(t0 + chunk, n)
        branch = np.empty((t1 - t0, n_rows, 4))
        for y, lo, hi in zip(ys, offsets, offsets[1:]):
            np.subtract(y[t0:t1, np.newaxis, np.newaxis], edge_expected[lo:hi], out=branch[:, lo:hi])
        np.square(branch, out=branch)
        for bm, winner in zip(branch, winners):
            metrics.take(pred, out=cand, mode="clip")
            np.add(cand, bm, out=cand)
            cand.argmin(axis=1, out=winner)
            np.add(winner, row_base, out=flat)
            cand_flat.take(flat, out=metrics, mode="clip")
        digits[t0:t1] = winners[: t1 - t0]
    table = memoryview(digits.reshape(-1))
    detected = []
    for cfg, lo, hi in zip(trellises, offsets, offsets[1:]):
        group = cfg.n_states // 4
        state = int(np.argmin(metrics[lo:hi]))
        states = [0] * n
        at = (n - 1) * n_rows + lo
        for t in range(n - 1, -1, -1):
            states[t] = state
            state = state // 4 + table[at + state] * group
            at -= n_rows
        detected.append(SymbolSequence(np.array(states, dtype=np.int64) % 4, cfg.alphabet))
    return detected


# ---------------------------------------------------------------------------
# pre-emphasis (indirect learning)
# ---------------------------------------------------------------------------

PREEMPHASIS_MU = 5e-4
"""LMS step size of the pre-emphasis trainer."""

PREEMPHASIS_PASSES = 3
"""LMS sweeps over the cyclic probe that the trainer's closed form stands for."""

PREEMPHASIS_SAMPLES_PER_TAP = 10
"""Fewest probe samples the pre-emphasis trainer takes per tap."""


def _probe_normal_equations(x: np.ndarray, desired: np.ndarray,
                            n_taps: int) -> tuple[np.ndarray, np.ndarray]:
    """The normal equations ``R w = p`` of the taps over the cyclic probe.

    Row k of the window matrix W is the reversed window the taps see at
    sample k (tap j multiplies ``x[k + half - j]``); ``R = Wᵀ W / n`` and
    ``p = Wᵀ d / n``.  On a cyclic probe R is Toeplitz, with the cyclic
    autocorrelation of `x` at lag ``i - j`` in entry ``(i, j)``, and ``p[i]``
    is the cyclic cross-correlation of `desired` with `x` at lag
    ``half - i``: one FFT correlation each, no window matrix.
    """
    n = x.size
    half = n_taps // 2
    spectrum = np.fft.rfft(x)
    auto = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, n) / n
    cross = np.fft.irfft(np.fft.rfft(desired).conj() * spectrum, n) / n
    lags = np.arange(n_taps)
    return auto[np.abs(lags[:, np.newaxis] - lags)], cross[(half - lags) % n]


def _mean_lms(r: np.ndarray, p: np.ndarray, w0: np.ndarray, mu: float, k: int) -> np.ndarray:
    """`k` steps of the LMS mean-weight recursion ``w += mu (p - R w)`` from
    `w0`, in closed form over one eigendecomposition of R:
    ``w_k = w* + (I - mu R)^k (w0 - w*)`` with ``R w* = p``.  Raises
    EqualizerDivergence when ``mu max(eig R) >= 2``: there it has no bound
    (the one place that error is raised)."""
    lam, q = np.linalg.eigh(r)
    step = mu * np.maximum(lam, 0.0)
    if step[-1] >= 2.0:
        raise EqualizerDivergence(mu, float(step[-1]))
    # (1 - mu λ)^k from log|1 - mu λ|, exact where mu λ k is small; past
    # mu λ = 1 the factor alternates in sign
    with np.errstate(divide="ignore"):  # mu λ = 1 exactly: the factor is 0
        log_decay = k * np.log1p(-np.minimum(step, 2.0 - step))
    decay = np.exp(log_decay) * np.where(step > 1.0, (-1.0) ** k, 1.0)
    # (1 - (1 - mu λ)^k) / λ, and its limit mu k where λ <= 0
    rise = np.where(decay < 0, 1.0 - decay, -np.expm1(log_decay))
    reach = np.divide(rise, lam, out=np.full(lam.size, mu * k), where=lam > 0)
    return q @ (decay * (q.T @ w0) + reach * (q.T @ p))


def train_preemphasis_waveform(probe: SampleBuffer, observed: SampleBuffer, n_taps: int) -> FfeTaps:
    """Indirect-learning pre-emphasis trainer for a known probe waveform.

    Data-aided LMS learns a postdistorter W with W(observed) ~ probe;
    installed before the transmitter, W pre-compensates its linear
    response, so |W x H_tx| is flat across the band the probe excites.  A
    shaped probe keeps the learned boost inside the band the format
    occupies.

    The taps are where `PREEMPHASIS_PASSES` sweeps of LMS at
    `PREEMPHASIS_MU` from a center spike go in the mean, in closed form
    (`_mean_lms`).  The small step stops them early, short of the
    least-squares fit, and that early stop is the regularizer.
    """
    if len(probe) != len(observed):
        raise ValueError("probe and observed waveforms must align sample-for-sample")
    need = PREEMPHASIS_SAMPLES_PER_TAP * n_taps
    if len(probe) < need:
        raise ValueError(f"probe too short: need >= {need} samples for {n_taps} taps")
    desired = probe.samples
    x = observed.samples
    gain = np.sqrt(np.mean(desired**2) / max(np.mean(x**2), 1e-30))
    r, p = _probe_normal_equations(x * gain, desired, n_taps)
    spike = np.eye(1, n_taps, n_taps // 2)[0]
    w = _mean_lms(r, p, spike, PREEMPHASIS_MU, PREEMPHASIS_PASSES * x.size)
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

GARDNER_MIN_SYMBOLS = 1000
"""Fewest symbols :func:`gardner_recover` averages its S-curve over."""


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
    if x.size < 2 * GARDNER_MIN_SYMBOLS or x.size % 2:
        raise ValueError(f"need at least {GARDNER_MIN_SYMBOLS} symbols at 2 samples/symbol")
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
