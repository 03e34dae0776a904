"""Bit parity of the LMS and Viterbi kernels against per-sample oracles,
plus pinned end-to-end block error counts.

The oracles are the straightforward per-sample loops the kernels in
:mod:`imddsim.adaptive` replace.  The kernels promise identical floats,
so every kernel comparison here is exact (``np.array_equal``), never a
tolerance.  Two solvers are the exceptions.  The receive FFE's
least-squares start sums its normal equations in chunks, so it and its
residual (`mse_train`) are compared with ``np.linalg.lstsq`` on the
whole window matrix to a relative 1e-9.  The pre-emphasis trainer is the LMS mean-weight
recursion in closed form, so it is compared with that recursion iterated
to a relative 1e-9, and with the per-sample LMS it stands for to a
bound on the taps' relative difference.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from imddsim import adaptive
from imddsim.adaptive import (
    EqualizerDivergence,
    MlseConfig,
    _lms_pass_batch,
    _ls_start,
    _mean_lms,
    _probe_normal_equations,
    apply_taps_cyclic,
    lms_equalize,
    lms_equalize_batch,
    mlse_detect,
    mlse_detect_batch,
)
from imddsim.evaluate import (_PROBE_ORDER, PamExperiment, _payload, _trained_preemphasis,
                              count_ber, train_preemphasis_waveform)
from imddsim.link import TX_DRIVER_STAGES, apply_stages, make_channel
from imddsim.pam import PamRxConfig, pr_encode, shape_pulses
from imddsim.sigproc import SymbolSequence

PAM4 = np.array([-3.0, -1.0, 1.0, 3.0])


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_lms_pass(x, w, levels, first, mu):
    """Per-sample decision-directed LMS sweep from sample `first`: slice and
    reverse a window, one update per sample; mutates `w`."""
    n = x.size
    n_taps = w.size
    half = n_taps // 2
    xp = np.concatenate((x[-half:], x, x[:half])) if half else x
    mids = (levels[1:] + levels[:-1]) / 2.0
    for k in range(first, n):
        win = xp[k : k + n_taps][::-1]
        y = float(w @ win)
        e = levels[np.searchsorted(mids, y)] - y
        w += mu * e * win


def oracle_lms_equalize(x, reference, n_taps):
    """One block through the per-sample oracle: scale, start from the
    least-squares fit on the known prefix, one `oracle_lms_pass` past it,
    re-filter with the adapted taps.  `mse_train` is the fit's residual on
    the whole window matrix of the prefix.  The step's energy term 1/E
    comes from the window matrix of the whole block, so it equals the
    kernel's step only where that term does not bind."""
    levels = reference.alphabet
    desired = reference.levels
    power = float(np.mean(levels**2))
    gain = np.sqrt(power / max(np.mean(x**2), 1e-30))
    x = x * gain
    n_train = max(int(0.1 * x.size), min(x.size // 2, 4 * n_taps), 1)
    w, _ = _ls_start(padded([x], n_taps)[0], desired[:n_train], n_taps)
    residual = window_matrix(x, n_taps, n_train) @ w - desired[:n_train]
    mse_train = float(np.mean(residual**2))
    energy = float(np.max(np.sum(window_matrix(x, n_taps, x.size) ** 2, axis=1)))
    mu = min(1e-4, 0.05 * 2.0 / (n_taps * power))
    oracle_lms_pass(x, w, levels, n_train, min(mu, 1.0 / energy) if energy > 0 else mu)
    output = apply_taps_cyclic(x, w)
    mids = (levels[1:] + levels[:-1]) / 2.0
    mse_final = float(np.mean((output - levels[np.searchsorted(mids, output)]) ** 2))
    return w * gain, output, mse_train, mse_final


def oracle_mlse_detect(y, cfg):
    """Viterbi with a predecessor gather per step and full predecessor storage."""
    n = y.size
    n_states = cfg.n_states
    group = n_states // 4
    nxt = np.arange(n_states)
    pred = (nxt // 4)[np.newaxis, :] + (np.arange(4) * group)[:, np.newaxis]
    edge_expected = cfg.expected[pred, (nxt % 4)[np.newaxis, :]]
    metrics = np.zeros(n_states)
    if cfg.start_state is not None:
        metrics = np.full(n_states, 1e30)
        metrics[cfg.start_state] = 0.0
    bp = np.empty((n, n_states), dtype=np.int64)
    cols = np.arange(n_states)
    for t in range(n):
        cand = metrics[pred] + (y[t] - edge_expected) ** 2
        best = np.argmin(cand, axis=0)
        metrics = cand[best, cols]
        bp[t] = pred[best, cols]
    state = int(np.argmin(metrics))
    indices = np.empty(n, dtype=np.int64)
    for t in range(n - 1, -1, -1):
        indices[t] = state % 4
        state = bp[t, state]
    return indices


# ---------------------------------------------------------------------------
# LMS
# ---------------------------------------------------------------------------

def colored_block(n, seed=0, noise=0.3):
    """PAM4 symbols through a cyclic 4-tap channel plus white noise, scaled
    to the alphabet power as lms_equalize does."""
    rng = np.random.default_rng(seed)
    symbols = PAM4[rng.integers(0, 4, n)]
    h = np.array([0.15, 1.0, 0.35, -0.1])
    x = sum(t * np.roll(symbols, k) for k, t in enumerate(h)) + rng.normal(0, noise, n)
    power = float(np.mean(PAM4**2))
    return x * np.sqrt(power / np.mean(x**2)), symbols


def batch_of_one(x, w, levels, first, mu):
    """`_lms_pass_batch` on the one stream `x`, adapting `w`."""
    _lms_pass_batch(padded([x], w.size), w[np.newaxis], levels, first, [mu])


def run_both(x, n_taps, *args, passes=2):
    """Run kernel and oracle from the same center-spike taps; the taps
    after each pass."""
    results = []
    for fn in (batch_of_one, oracle_lms_pass):
        w = np.zeros(n_taps)
        w[n_taps // 2] = 1.0
        taps = []
        for _ in range(passes):
            fn(x, w, *args)
            taps.append(w.copy())
        results.append(taps)
    return results


def assert_identical(results):
    taps, ref_taps = results
    for w, ref in zip(taps, ref_taps):
        assert np.array_equal(w, ref)


class TestLmsPassParity:
    @pytest.mark.parametrize("n_taps", [41, 21])
    def test_training_then_decision_directed(self, n_taps):
        # the sweep starts past a 614-symbol training prefix
        x, _ = colored_block(3 * 2048)
        mu = 0.05 * 2.0 / (n_taps * float(np.mean(PAM4**2)))
        assert_identical(run_both(x, n_taps, PAM4, 614, min(1e-4, mu)))

    def test_single_tap(self):
        x, _ = colored_block(4096, seed=1)
        assert_identical(run_both(x, 1, PAM4, 400, 1e-4))

    def test_slicer_ties_at_midpoints(self):
        # an output exactly on a level midpoint must resolve to the lower level
        x, _ = colored_block(4096, seed=6, noise=0.1)
        x[:3] = (2.0, -2.0, 0.0)
        assert_identical(run_both(x, 1, PAM4, 0, 1e-4))

    def test_without_reference(self):
        # no known prefix: decision-directed from the first sample
        x, _ = colored_block(4096, seed=2, noise=0.1)
        assert_identical(run_both(x, 11, PAM4, 0, 1e-4))

    def test_block_not_a_multiple_of_the_mse_window(self):
        # a sweep from mid-block to a block end at no power of two
        x, _ = colored_block(5000, seed=3)
        assert_identical(run_both(x, 21, PAM4, 2100, 1e-4))


# ---------------------------------------------------------------------------
# batched LMS: the per-sample oracle, stream by stream
# ---------------------------------------------------------------------------

def colored_streams(n, n_streams, seed):
    """One PAM4 block through one cyclic channel, received `n_streams`
    times with independent noise and scaled as lms_equalize scales."""
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, 4, n)
    symbols = PAM4[indices]
    h = np.array([0.15, 1.0, 0.35, -0.1])
    clean = sum(t * np.roll(symbols, k) for k, t in enumerate(h))
    power = float(np.mean(PAM4**2))
    streams = []
    for _ in range(n_streams):
        x = clean + rng.normal(0, 0.3, n)
        streams.append(x * np.sqrt(power / np.mean(x**2)))
    return streams, SymbolSequence(indices, PAM4)


def padded(streams, n_taps):
    half = n_taps // 2
    return np.stack([np.concatenate((x[-half:], x, x[:half])) if half else x for x in streams])


def center_spikes(n_streams, n_taps):
    w = np.zeros((n_streams, n_taps))
    w[:, n_taps // 2] = 1.0
    return w


@st.composite
def batch_cases(draw):
    n_streams = draw(st.integers(1, 6))
    n_taps = draw(st.sampled_from(range(1, 42, 2)))
    # block lengths around a power of two
    n = draw(st.sampled_from([2047, 2048, 4096, 5000]))
    seed = draw(st.integers(0, 2**16))
    return n_streams, n_taps, n, seed


class TestLmsBatchParity:
    @settings(max_examples=12, deadline=None)
    @given(batch_cases())
    @example((2, 1, 2048, 0))
    @example((6, 41, 5000, 1))
    @example((1, 21, 2048, 5))
    def test_pass_matches_serial_per_stream(self, case):
        n_streams, n_taps, n, seed = case
        streams, reference = colored_streams(n, n_streams, seed)
        mu = min(1e-4, 0.05 * 2.0 / (n_taps * float(np.mean(PAM4**2))))
        # each stream at its own step
        mus = [mu * (1.0 + 0.25 * b) for b in range(n_streams)]
        w = center_spikes(n_streams, n_taps)
        xp = padded(streams, n_taps)
        passes = []
        for _ in range(2):
            _lms_pass_batch(xp, w, PAM4, n // 10, mus)
            passes.append(w.copy())
        for b, x in enumerate(streams):
            w_ref = center_spikes(1, n_taps)[0]
            for taps in passes:
                oracle_lms_pass(x, w_ref, PAM4, n // 10, mus[b])
                assert np.array_equal(taps[b], w_ref)

    @settings(max_examples=8, deadline=None)
    @given(batch_cases())
    @example((3, 1, 4096, 2))
    @example((6, 41, 4096, 3))
    @example((1, 41, 4096, 4))
    def test_equalize_matches_serial_per_stream(self, case):
        n_streams, n_taps, n, seed = case
        streams, reference = colored_streams(n, n_streams, seed)
        batch = lms_equalize_batch(streams, reference, n_taps)
        for x, eq in zip(streams, batch):
            taps, output, mse_train, mse_final = oracle_lms_equalize(x, reference, n_taps)
            assert np.array_equal(eq.taps.coefficients, taps)
            assert np.array_equal(eq.output, output)
            assert eq.mse_final == mse_final
            assert eq.mse_train == pytest.approx(mse_train, rel=1e-9)
            single = lms_equalize(x, reference, n_taps)
            assert np.array_equal(single.output, output)


# ---------------------------------------------------------------------------
# the receive FFE's step: inside the LMS H-infinity bound
# ---------------------------------------------------------------------------

def recorded_sweeps(monkeypatch):
    """The inputs of each `_lms_pass_batch` call, copied before the sweep
    moves the taps: (xp, w, levels, first, mu)."""
    sweeps = []
    sweep = adaptive._lms_pass_batch

    def recorded(xp, w, levels, first, mu):
        sweeps.append((xp.copy(), w.copy(), levels, first, list(mu)))
        sweep(xp, w, levels, first, mu)

    monkeypatch.setattr(adaptive, "_lms_pass_batch", recorded)
    return sweeps


def spiked_block(n, seed, spike, at, partial=False):
    """A random PAM4 (or delay-and-add, seven-level) block through
    `colored_block`'s channel plus noise, with sample `at` set to `spike`
    times the block's RMS (none for 0), and its reference."""
    rng = np.random.default_rng(seed)
    reference = SymbolSequence(rng.integers(0, 4, n), PAM4)
    if partial:
        reference = pr_encode(reference)
    h = np.array([0.15, 1.0, 0.35, -0.1])
    x = sum(t * np.roll(reference.levels, k) for k, t in enumerate(h)) + rng.normal(0, 0.3, n)
    if spike:
        x[at] = spike * np.sqrt(np.mean(x**2))
    return x, reference


def largest_window_energy(xp, n_taps):
    """The largest energy of a reversed window the sweep sees in row `xp`."""
    return float(np.max(np.sum(sliding_window_view(xp, n_taps) ** 2, axis=1)))


@st.composite
def spiky_cases(draw):
    n_taps = draw(st.sampled_from(range(1, 42, 2)))
    partial = draw(st.booleans())
    # 30x stays inside the bound at LMS_MU_DD, 300x and 1000x pass it
    spike = draw(st.sampled_from([0.0, 30.0, 300.0, 1000.0]))
    at = draw(st.integers(0, 4095))
    seed = draw(st.integers(0, 2**16))
    return n_taps, partial, spike, at, seed


class TestStableStep:
    @settings(max_examples=12, deadline=None)
    @given(spiky_cases())
    @example((41, False, 1000.0, 2000, 0))
    @example((1, True, 300.0, 10, 1))
    @example((21, True, 0.0, 0, 2))
    def test_each_step_keeps_the_energy_inequality(self, case):
        # |w_{k+1}|**2 / mu + y_k**2 <= |w_k|**2 / mu + d_k**2 for the
        # kernel's decision d_k, one kernel step at a time
        n_taps, partial, spike, at, seed = case
        x, reference = spiked_block(4096, seed, spike, at, partial)
        with pytest.MonkeyPatch.context() as monkeypatch:
            sweeps = recorded_sweeps(monkeypatch)
            lms_equalize_batch([x], reference, n_taps)
        ((xp, w, levels, first, (mu,)),) = sweeps
        assert mu * largest_window_energy(xp[0], n_taps) <= 1.0 + 1e-12
        windows = sliding_window_view(xp[0], n_taps)[:, ::-1]
        mids = (levels[1:] + levels[:-1]) / 2.0
        start = float(w[0] @ w[0])
        swept = w.copy()
        _lms_pass_batch(xp, swept, levels, first, [mu])
        for k in range(first, windows.shape[0]):
            before = float(w[0] @ w[0]) / mu
            y = float(w[0] @ windows[k])
            d = levels[np.searchsorted(mids, y)]
            _lms_pass_batch(xp[:, : k + n_taps], w, levels, k, [mu])
            rhs = before + d * d
            assert float(w[0] @ w[0]) / mu + y * y <= rhs + 1e-9 * rhs
        assert np.array_equal(w, swept)  # the steps were the kernel's sweep
        bound = start + mu * (windows.shape[0] - first) * float(np.max(levels**2))
        assert float(w[0] @ w[0]) <= bound * (1.0 + 1e-9)

    def test_a_spike_past_the_old_step_stays_bounded(self, monkeypatch):
        # one sample at 300x the RMS of a 4**8-symbol block: LMS_MU_DD
        # times its window energy is about 19, where a sweep at that step
        # was once stopped as diverged
        x, reference = spiked_block(4**8, 0, 300.0, 30000)
        sweeps = recorded_sweeps(monkeypatch)
        eq = lms_equalize(x, reference, 11)
        ((xp, w_ls, levels, first, (mu,)),) = sweeps
        energy = largest_window_energy(xp[0], 11)
        assert adaptive.LMS_MU_DD * energy > 10.0
        assert mu * energy == pytest.approx(1.0, rel=1e-9)
        taps = eq.taps.coefficients
        assert np.isfinite(taps).all() and np.isfinite(eq.output).all()
        gain = np.sqrt(np.mean(PAM4**2) / np.mean(x**2))
        scaled = taps / gain
        bound = float(w_ls[0] @ w_ls[0]) + mu * (x.size - first) * 9.0
        assert float(scaled @ scaled) <= bound
        assert eq.mse_final < 1.0

    def test_a_spiky_stream_leaves_its_batch_mates_alone(self, monkeypatch):
        streams, reference = colored_streams(4**7, 3, seed=8)
        streams[1] = streams[1].copy()
        streams[1][5000] = 300.0 * np.sqrt(np.mean(streams[1] ** 2))
        sweeps = recorded_sweeps(monkeypatch)
        batch = lms_equalize_batch(streams, reference, 21)
        ((*_, mus),) = sweeps
        assert mus[1] < mus[0] == mus[2] == adaptive.LMS_MU_DD
        for x, eq in zip(streams, batch):
            alone = lms_equalize(x, reference, 21)
            assert np.array_equal(eq.taps.coefficients, alone.taps.coefficients)
            assert np.array_equal(eq.output, alone.output)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_stream_is_rejected(self, bad):
        streams, reference = colored_streams(2048, 2, seed=3)
        streams[1] = streams[1].copy()
        streams[1][7] = bad
        with pytest.raises(ValueError, match="finite"):
            lms_equalize_batch(streams, reference, 11)

    def test_a_zero_block_keeps_the_capped_step(self, monkeypatch):
        reference = colored_streams(2048, 1, seed=3)[1]
        sweeps = recorded_sweeps(monkeypatch)
        eq = lms_equalize(np.zeros(2048), reference, 11)
        assert sweeps[0][4] == [adaptive.LMS_MU_DD]
        assert not eq.taps.coefficients.any() and not eq.output.any()


def recorded_prefixes(monkeypatch):
    """The known-prefix lengths `_ls_start` is fitted on, one per call."""
    prefixes = []
    ls_start = adaptive._ls_start

    def recorded(xp, desired, n_taps):
        prefixes.append(desired.size)
        return ls_start(xp, desired, n_taps)

    monkeypatch.setattr(adaptive, "_ls_start", recorded)
    return prefixes


class TestKnownPrefix:
    def test_at_most_half_the_block(self, monkeypatch):
        # 4 symbols per tap of a 257-tap FFE would be the whole
        # 1,024-symbol block, leaving nothing to equalize blind
        prefixes = recorded_prefixes(monkeypatch)
        exp = PamExperiment(rx=PamRxConfig(n_ffe_taps=257),
                            channel=make_channel("paper_10km", voa_db=3.8, seed=4),
                            payload_order=5, tx_preemphasis_taps=None)
        exp.run_block(seed=1)
        assert prefixes and all(0 < n <= 512 for n in prefixes)

    @pytest.mark.parametrize("n_taps", [1, 21, 41])
    def test_no_reference_symbol_is_read_past_it(self, monkeypatch, n_taps):
        streams, reference = colored_streams(5000, 3, seed=12)
        prefixes = recorded_prefixes(monkeypatch)
        known = lms_equalize_batch(streams, reference, n_taps)
        n_train = prefixes[0]
        rng = np.random.default_rng(13)
        indices = reference.indices.copy()
        indices[n_train:] = rng.integers(0, 4, indices.size - n_train)
        assert not np.array_equal(indices, reference.indices)
        blind = lms_equalize_batch(streams, SymbolSequence(indices, PAM4), n_taps)
        for a, b in zip(known, blind):
            assert np.array_equal(a.taps.coefficients, b.taps.coefficients)
            assert np.array_equal(a.output, b.output)
            assert a.mse_train == b.mse_train


# ---------------------------------------------------------------------------
# the least-squares start: the fit on the whole window matrix
# ---------------------------------------------------------------------------

def window_matrix(x, n_taps, n_train):
    """Row k: the reversed window of the cyclic block `x` the LMS sees at k."""
    xp = padded([x], n_taps)[0]
    return np.array([xp[k : k + n_taps][::-1] for k in range(n_train)])


class TestLsStart:
    @pytest.mark.parametrize("scratch", [2**23, 2**14], ids=["one_chunk", "chunks"])
    @pytest.mark.parametrize("n_taps", [1, 21, 41])
    def test_matches_lstsq_on_the_window_matrix(self, monkeypatch, scratch, n_taps):
        monkeypatch.setattr(adaptive, "LS_SCRATCH_BYTES", scratch)
        (x,), reference = colored_streams(5000, 1, seed=9)
        desired = reference.levels[:700]
        w, mse = _ls_start(padded([x], n_taps)[0], desired, n_taps)
        windows = window_matrix(x, n_taps, 700)
        ref, *_ = np.linalg.lstsq(windows, desired, rcond=None)
        np.testing.assert_allclose(w, ref, rtol=1e-9, atol=1e-12)
        assert mse == pytest.approx(np.mean((windows @ ref - desired) ** 2), rel=1e-9)

    def test_singular_prefix_gets_the_minimum_norm_fit(self):
        # a constant block: every window is the same, so R has rank 1
        x = np.full(4096, 2.0)
        desired = colored_streams(4096, 1, seed=2)[1].levels[:500]
        w, mse = _ls_start(padded([x], 11)[0], desired, 11)
        windows = window_matrix(x, 11, 500)
        ref, *_ = np.linalg.lstsq(windows, desired, rcond=None)
        np.testing.assert_allclose(w, ref, rtol=1e-9)
        assert mse == pytest.approx(np.mean((windows @ ref - desired) ** 2), rel=1e-9)

    def test_scratch_does_not_grow_with_the_prefix(self, monkeypatch):
        # the whole 20,000 x 31 window matrix would be 4.96 MB
        monkeypatch.setattr(adaptive, "LS_SCRATCH_BYTES", 2**16)
        (x,), reference = colored_streams(20000, 1, seed=4)
        xp = padded([x], 31)[0]
        desired = reference.levels
        tracemalloc.start()
        try:
            _ls_start(xp, desired, 31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**16

    def test_max_taps_fill_the_scratch(self):
        assert adaptive.FFE_MAX_TAPS == 1023
        assert 8 * adaptive.FFE_MAX_TAPS**2 <= adaptive.LS_SCRATCH_BYTES
        assert 8 * (adaptive.FFE_MAX_TAPS + 2) ** 2 > adaptive.LS_SCRATCH_BYTES


# ---------------------------------------------------------------------------
# the pre-emphasis trainer: the LMS mean-weight recursion in closed form
# ---------------------------------------------------------------------------

def oracle_data_aided_lms(x, w, desired, mu):
    """Per-sample data-aided LMS sweep over the cyclic block `x`; mutates `w`."""
    xp = padded([x], w.size)[0]
    for k in range(x.size):
        win = xp[k : k + w.size][::-1]
        w += mu * (desired[k] - float(w @ win)) * win


def preemphasis_probe(partial):
    """The trainer's probe and its waveform after `TX_DRIVER_STAGES`, as
    `_trained_preemphasis` builds them."""
    probe = _payload(_PROBE_ORDER)
    symbols = pr_encode(probe) if partial else probe
    shaped = shape_pulses(symbols.levels)
    return shaped, apply_stages(shaped, TX_DRIVER_STAGES)


@st.composite
def recursion_cases(draw):
    n_taps = draw(st.sampled_from([1, 3, 5, 7]))
    n = draw(st.integers(2 * n_taps + 1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.normal(size=draw(st.integers(1, 4)))
    desired = rng.normal(size=n)
    x = sum(t * np.roll(desired, k) for k, t in enumerate(h)) + rng.normal(0, 0.1, n)
    # any step below the bound, as a share of 2 / max(eig R)
    share = draw(st.floats(0.001, 0.95))
    steps = draw(st.integers(1, 60))
    return x, desired, n_taps, rng.normal(size=n_taps), share, steps


class TestPreemphasisClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(recursion_cases())
    def test_equals_the_mean_recursion_iterated(self, case):
        x, desired, n_taps, w0, share, steps = case
        r, p = _probe_normal_equations(x, desired, n_taps)
        mu = share * 2.0 / np.linalg.eigvalsh(r)[-1]
        w = w0.copy()
        for _ in range(steps):
            w = w + mu * (p - r @ w)
        closed = _mean_lms(r, p, w0, mu, steps)
        np.testing.assert_allclose(closed, w, rtol=1e-9, atol=1e-9 * np.abs(w).max())

    @pytest.mark.parametrize("n_taps", [1, 11, 61])
    def test_normal_equations_are_the_window_matrix_s(self, n_taps):
        x, symbols = colored_block(3000, seed=8)
        r, p = _probe_normal_equations(x, symbols, n_taps)
        windows = window_matrix(x, n_taps, x.size)
        np.testing.assert_allclose(r, windows.T @ windows / x.size, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(p, windows.T @ symbols / x.size, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("n_taps, partial, bound",
                             [(11, False, 0.0036), (11, True, 0.0086), (5, True, 0.036)],
                             ids=["nyquist_11", "pr_11", "pr_5"])
    def test_close_to_the_per_sample_lms(self, n_taps, partial, bound):
        """The closed form follows the LMS in the mean, so its taps differ
        from `PREEMPHASIS_PASSES` per-sample sweeps of `oracle_data_aided_lms`
        only by the LMS's own fluctuation.  On the committed probes that
        relative difference measures 0.18% (11-tap Nyquist), 0.43% (11-tap
        PR) and 1.8% (5-tap PR); the bounds are twice that: 0.36%, 0.86%
        and 3.6%."""
        shaped, observed = preemphasis_probe(partial)
        closed = train_preemphasis_waveform(shaped, observed, n_taps).coefficients
        desired = shaped.samples
        gain = np.sqrt(np.mean(desired**2) / np.mean(observed.samples**2))
        w = np.zeros(n_taps)
        w[n_taps // 2] = 1.0
        for _ in range(adaptive.PREEMPHASIS_PASSES):
            oracle_data_aided_lms(observed.samples * gain, w, desired, adaptive.PREEMPHASIS_MU)
        lms = w * gain
        assert np.linalg.norm(closed - lms) / np.linalg.norm(lms) < bound

    def test_step_past_the_stability_bound_diverges(self, monkeypatch):
        shaped, observed = preemphasis_probe(False)
        gain = np.sqrt(np.mean(shaped.samples**2) / np.mean(observed.samples**2))
        r, _ = _probe_normal_equations(observed.samples * gain, shaped.samples, 11)
        largest = np.linalg.eigvalsh(r)[-1]
        monkeypatch.setattr(adaptive, "PREEMPHASIS_MU", 1.9 / largest)
        assert np.isfinite(train_preemphasis_waveform(shaped, observed, 11).coefficients).all()
        monkeypatch.setattr(adaptive, "PREEMPHASIS_MU", 2.1 / largest)
        with pytest.raises(EqualizerDivergence) as err:
            train_preemphasis_waveform(shaped, observed, 11)
        assert err.value.mu == 2.1 / largest


# ---------------------------------------------------------------------------
# MLSE
# ---------------------------------------------------------------------------

def zero_padded(h, memory: int) -> np.ndarray:
    """`h` zero-padded to memory + 1 taps: the channel of a memory-`memory`
    trellis whose extra state digits no branch output reads."""
    h = np.asarray(h, dtype=np.float64)
    return np.pad(h, (0, memory + 1 - h.size))


@st.composite
def trellis_cases(draw):
    memory = draw(st.integers(1, 3))
    n_channel = draw(st.integers(1, memory + 1))
    h = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n_channel, max_size=n_channel)))
    h[0] = 1.0
    start = draw(st.sampled_from([0, None]))
    # lengths around the branch-metric chunk sizes (2048 symbols; 512 at memory 3)
    n = draw(st.sampled_from([1, 2, 511, 512, 513, 2047, 2048, 2049, 4100]))
    seed = draw(st.integers(0, 2**16))
    sigma = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return memory, h, start, n, seed, sigma


class TestMlseParity:
    @settings(max_examples=30, deadline=None)
    @given(trellis_cases())
    def test_matches_gather_oracle(self, case):
        memory, h, start, n, seed, sigma = case
        rng = np.random.default_rng(seed)
        levels = PAM4[rng.integers(0, 4, n)]
        clean = np.convolve(levels, h)[:n]
        y = clean + rng.normal(0, sigma, n) if sigma else clean
        cfg = MlseConfig.for_fir_channel(zero_padded(h, memory), PAM4, start_symbol=start)
        assert np.array_equal(mlse_detect(y, cfg).indices, oracle_mlse_detect(y, cfg))

    @pytest.mark.parametrize("start", [0, None])
    @pytest.mark.parametrize("memory", [1, 2, 3])
    def test_exact_metric_ties(self, memory, start):
        # integer samples on and between the seven delay-and-add levels: the
        # squared distances are small exact integers, so candidates often meet
        # with exactly equal metrics and the lower predecessor must win
        y = np.random.default_rng(7).integers(-7, 8, 3000).astype(np.float64)
        cfg = MlseConfig.for_fir_channel(zero_padded([1.0, 1.0], memory), PAM4, start_symbol=start)
        assert np.array_equal(mlse_detect(y, cfg).indices, oracle_mlse_detect(y, cfg))

    @pytest.mark.parametrize("memory", [1, 2, 3])
    def test_zero_noise_equal_paths(self, memory):
        # Even-indexed symbols below the top level and odd-indexed ones above
        # the bottom level: shifting them by +2 / -2 alternately gives a second
        # sequence with the same delay-and-add output.  With a free start state
        # both paths end on metric 0 exactly, and the lower final state wins.
        rng = np.random.default_rng(7)
        idx = rng.integers(0, 3, 3000) + np.arange(3000) % 2
        levels = PAM4[idx]
        y = levels + np.concatenate(([PAM4[1]], levels[:-1]))
        cfg = MlseConfig.for_fir_channel(zero_padded([1.0, 1.0], memory), PAM4, start_symbol=None)
        assert np.array_equal(mlse_detect(y, cfg).indices, oracle_mlse_detect(y, cfg))


# ---------------------------------------------------------------------------
# batched MLSE: the gather oracle, stream by stream
# ---------------------------------------------------------------------------

def fir_stream(h, n, rng, sigma):
    """Random PAM4 symbols through `h`, plus white noise of deviation `sigma`."""
    clean = np.convolve(PAM4[rng.integers(0, 4, n)], h)[:n]
    return clean + rng.normal(0, sigma, n) if sigma else clean


@st.composite
def batch_trellis_cases(draw):
    trellises = []
    for _ in range(draw(st.integers(1, 6))):
        memory = draw(st.integers(1, 3))
        if draw(st.booleans()):
            h = np.array([1.0, 1.0])  # delay-and-add
        else:
            n_channel = draw(st.integers(1, memory + 1))
            h = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n_channel,
                                       max_size=n_channel)))
            h[0] = 1.0
        start = draw(st.sampled_from([0, None]))
        trellises.append((h, MlseConfig.for_fir_channel(zero_padded(h, memory), PAM4,
                                                         start_symbol=start)))
    # lengths around the branch-metric chunk sizes: 2**15 // states symbols
    # (128 at the 256-state cap, 390 at 84 states, 512 at 64), at most 2048
    n = draw(st.sampled_from([1, 2, 127, 128, 129, 389, 390, 391, 512, 513, 2048, 2049]))
    seed = draw(st.integers(0, 2**16))
    sigma = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return trellises, n, seed, sigma


def assert_batch_matches_oracle(ys, cfgs):
    detected = mlse_detect_batch(ys, cfgs)
    assert len(detected) == len(cfgs)
    for y, cfg, got in zip(ys, cfgs, detected):
        assert np.array_equal(got.indices, oracle_mlse_detect(y, cfg))
        assert np.array_equal(got.alphabet, cfg.alphabet)


class TestMlseBatchParity:
    @settings(max_examples=25, deadline=None)
    @given(batch_trellis_cases())
    def test_each_stream_matches_gather_oracle(self, case):
        trellises, n, seed, sigma = case
        rng = np.random.default_rng(seed)
        ys = [fir_stream(h, n, rng, sigma) for h, _ in trellises]
        assert_batch_matches_oracle(ys, [cfg for _, cfg in trellises])

    def test_noiseless_ties_lowest_predecessor_wins(self):
        # integer samples on and between the delay-and-add levels, and a
        # noiseless delay-and-add signal that a second path matches exactly
        # (see TestMlseParity): candidates meet with equal metrics, on
        # trellises of every memory side by side
        rng = np.random.default_rng(7)
        ties = rng.integers(-7, 8, 3000).astype(np.float64)
        idx = rng.integers(0, 3, 3000) + np.arange(3000) % 2
        levels = PAM4[idx]
        paths = levels + np.concatenate(([PAM4[1]], levels[:-1]))
        ys, cfgs = [], []
        for memory in (1, 2, 3):
            for y, start in ((ties, 0), (ties, None), (paths, None)):
                ys.append(y)
                cfgs.append(MlseConfig.for_fir_channel(zero_padded([1.0, 1.0], memory), PAM4,
                                                       start_symbol=start))
        assert_batch_matches_oracle(ys, cfgs)

    def test_five_memory_3_streams_split_at_the_state_cap(self, monkeypatch):
        loops = []
        viterbi = adaptive._viterbi

        def counted(ys, trellises):
            loops.append(sum(cfg.n_states for cfg in trellises))
            return viterbi(ys, trellises)

        monkeypatch.setattr(adaptive, "_viterbi", counted)
        rng = np.random.default_rng(3)
        cfgs = [MlseConfig.for_fir_channel(zero_padded([1.0, 1.0], 3), PAM4) for _ in range(5)]
        ys = [fir_stream(np.array([1.0, 1.0]), 700, rng, 0.5) for _ in cfgs]
        assert_batch_matches_oracle(ys, cfgs)
        assert loops == [adaptive.MLSE_BATCH_STATES, 64]

    def test_digit_table_bound_splits_long_blocks(self, monkeypatch):
        # 8 memory-2 trellises (128 summed states, under the state cap) on
        # 4**12 symbols: each digit table is 2**28 bytes, at the bound, so
        # each stream runs in a loop of its own.  The stub records the
        # groups; the broadcast inputs allocate nothing.
        groups = []

        def recorded(ys, trellises):
            groups.append(sum(cfg.n_states for cfg in trellises))
            return [None] * len(ys)

        monkeypatch.setattr(adaptive, "_viterbi", recorded)
        n = 4**12
        cfg = MlseConfig.for_fir_channel(np.array([1.0, 0.5, 0.25]), PAM4)
        ys = [np.broadcast_to(np.zeros(1), (n,)) for _ in range(8)]
        mlse_detect_batch(ys, [cfg] * 8)
        assert groups == [16] * 8
        assert max(groups) * n <= adaptive.MLSE_MAX_DIGIT_BYTES

    def test_unequal_lengths_rejected(self):
        cfg = MlseConfig.partial_response(PAM4)
        with pytest.raises(ValueError, match="equal lengths"):
            mlse_detect_batch([np.zeros(10), np.zeros(11)], [cfg, cfg])


# ---------------------------------------------------------------------------
# pinned block error counts
# ---------------------------------------------------------------------------

class TestGoldenBlockCounts:
    """Exact error counts of one 32,768-bit block per receiver, pre-emphasis
    training included.  Any kernel change that moves a single float in
    the transmit or receive chain shows up here."""

    @pytest.mark.parametrize(
        "rx, errors",
        [
            (PamRxConfig(n_ffe_taps=41), 193),
            (PamRxConfig(n_ffe_taps=41, mlse_memory=2), 148),
            (PamRxConfig(n_ffe_taps=21, mlse_memory=2, partial_response=True), 97),
        ],
        ids=["nyquist_hard", "nyquist_ffe_mlse2", "pr_mlse2"],
    )
    def test_block_bit_errors(self, rx, errors):
        channel = make_channel("paper_10km", voa_db=3.8, seed=3)
        exp = PamExperiment(rx=rx, channel=channel, payload_order=7)
        tx_bits, rx_bits = exp.run_block(seed=11)
        assert tx_bits.size == 32768
        assert count_ber(tx_bits, rx_bits).bit_errors == errors


class TestGoldenPreemphasisTaps:
    """The trained pre-emphasis taps, float for float: they feed every PAM
    block, so a moved rounding shows here first."""

    @pytest.mark.parametrize(
        "n_taps, partial, taps",
        [
            (11, False, (0.08500555288149522, -0.310962877283569, 0.5574016173170071,
                         -0.5380207517060098, -0.41706280947454566, 2.3039645481554403,
                         -0.3879862297916927, -0.5228455635912741, 0.41448022044653493,
                         -0.28853054082625607, 0.10646129372305733)),
            (11, True, (-0.04949199173072165, 0.07073083540462578, 0.12870096576390566,
                        -0.40987282538125697, -0.09316946469833028, 1.750333944238416,
                        -0.02396935958781494, -0.4477307217915865, 0.02103257953001276,
                        0.08511852679203992, -0.0326732393200402)),
            (5, True, (0.13043857807754877, -1.023259415222618, 2.7871892207215487,
                       -0.8125893879783269, -0.08733199328625413)),
        ],
        ids=["nyquist_11", "pr_11", "pr_5"],
    )
    def test_trained_taps(self, n_taps, partial, taps):
        assert _trained_preemphasis(n_taps, partial) == taps
