"""Bit parity of the LMS and Viterbi kernels against per-sample oracles,
plus pinned end-to-end block error counts.

The oracles are the straightforward per-sample loops the kernels in
:mod:`imddsim.adaptive` replace.  The kernels promise identical floats,
so every comparison here is exact (``np.array_equal``), never a tolerance.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imddsim.adaptive import (
    EqualizerDivergence,
    MlseConfig,
    _lms_pass,
    _lms_pass_batch,
    apply_taps_cyclic,
    lms_equalize,
    lms_equalize_batch,
    mlse_detect,
)
from imddsim.evaluate import PamExperiment, count_ber
from imddsim.link import make_channel
from imddsim.pam import PamRxConfig
from imddsim.sigproc import SymbolSequence

PAM4 = np.array([-3.0, -1.0, 1.0, 3.0])


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_lms_pass(x, w, desired, levels, n_train, mu_train, mu_dd):
    """Per-sample LMS sweep: slice and reverse a window, one update per sample."""
    n = x.size
    n_taps = w.size
    half = n_taps // 2
    xp = np.concatenate((x[-half:], x, x[:half])) if half else x
    mids = (levels[1:] + levels[:-1]) / 2.0
    out = np.empty(n)
    err_acc = 0.0
    first_window_mse = None
    window = 2048
    for k in range(n):
        win = xp[k : k + n_taps][::-1]
        y = float(w @ win)
        out[k] = y
        if desired is not None and k < n_train:
            d = desired[k]
            mu = mu_train
        else:
            d = levels[np.searchsorted(mids, y)]
            mu = mu_dd
        e = d - y
        if not -1e60 < e < 1e60:
            raise EqualizerDivergence(mu, abs(e))
        w += mu * e * win
        err_acc += e * e
        if (k + 1) % window == 0:
            mse = err_acc / window
            err_acc = 0.0
            level_power = float(np.mean(levels**2))
            if not np.isfinite(mse) or mse > 1e6 * level_power:
                raise EqualizerDivergence(mu, mse)
            if first_window_mse is None:
                first_window_mse = max(mse, 1e-12)
            elif mse > 100.0 * first_window_mse and mse > 10.0 * level_power:
                raise EqualizerDivergence(mu, mse)
    return out


def oracle_lms_equalize(x, reference, n_taps):
    """One block through the serial kernel: scale, four passes of
    `_lms_pass` from a center spike, re-filter with the converged taps."""
    levels = reference.alphabet
    desired = reference.levels
    power = float(np.mean(levels**2))
    gain = np.sqrt(power / max(np.mean(x**2), 1e-30))
    x = x * gain
    mu_cap = 0.05 * 2.0 / (n_taps * power)
    w = np.zeros(n_taps)
    w[n_taps // 2] = 1.0
    n_train = max(int(0.1 * x.size), min(x.size, 4 * n_taps))
    mse_train = np.inf
    for _ in range(4):
        out = _lms_pass(x, w, desired, levels, n_train, min(1e-3, mu_cap), min(1e-4, mu_cap))
        mse_train = min(mse_train, float(np.mean((out[:n_train] - desired[:n_train]) ** 2)))
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


def run_both(x, n_taps, *args, passes=2):
    """Run kernel and oracle from the same center-spike taps; outputs per pass."""
    results = []
    for fn in (_lms_pass, oracle_lms_pass):
        w = np.zeros(n_taps)
        w[n_taps // 2] = 1.0
        outs = [fn(x, w, *args) for _ in range(passes)]
        results.append((outs, w))
    return results


def assert_identical(results):
    (outs, w), (ref_outs, ref_w) = results
    for out, ref in zip(outs, ref_outs):
        assert np.array_equal(out, ref)
    assert np.array_equal(w, ref_w)


class TestLmsPassParity:
    @pytest.mark.parametrize("n_taps", [41, 21])
    def test_training_then_decision_directed(self, n_taps):
        x, symbols = colored_block(3 * 2048)
        mu = 0.05 * 2.0 / (n_taps * float(np.mean(PAM4**2)))
        results = run_both(x, n_taps, symbols, PAM4, 614, min(1e-3, mu), min(1e-4, mu))
        assert_identical(results)

    def test_single_tap(self):
        x, symbols = colored_block(4096, seed=1)
        assert_identical(run_both(x, 1, symbols, PAM4, 400, 1e-3, 1e-4))

    def test_slicer_ties_at_midpoints(self):
        # an output exactly on a level midpoint must resolve to the lower level
        x, _ = colored_block(4096, seed=6, noise=0.1)
        x[:3] = (2.0, -2.0, 0.0)
        assert_identical(run_both(x, 1, None, PAM4, 0, 1e-3, 1e-4))

    def test_without_reference(self):
        x, _ = colored_block(4096, seed=2, noise=0.1)
        assert_identical(run_both(x, 11, None, PAM4, 400, 1e-3, 1e-4))

    def test_block_not_a_multiple_of_the_mse_window(self):
        x, symbols = colored_block(5000, seed=3)
        assert_identical(run_both(x, 21, symbols, PAM4, 2100, 1e-3, 1e-4))

    def test_fully_aided_trainer_path(self):
        # the pre-emphasis trainers: known waveform throughout, two dummy levels
        x, symbols = colored_block(6000, seed=4)
        levels = np.array([np.min(symbols), np.max(symbols) + 1e-9])
        assert_identical(run_both(x, 61, symbols, levels, x.size, 5e-4, 5e-4, passes=3))

    @pytest.mark.parametrize("mu", [0.9, 0.05])
    def test_divergence_same_mu_and_state(self, mu):
        x, symbols = colored_block(3 * 2048, seed=5)
        raised = []
        for fn in (_lms_pass, oracle_lms_pass):
            w = np.zeros(21)
            w[10] = 1.0
            with pytest.raises(EqualizerDivergence) as err:
                fn(x, w, symbols, PAM4, x.size, mu, mu)
            raised.append((err.value.mu, str(err.value), w))
        (mu_new, msg_new, w_new), (mu_ref, msg_ref, w_ref) = raised
        assert mu_new == mu_ref == mu
        assert msg_new == msg_ref
        assert np.array_equal(w_new, w_ref, equal_nan=True)


# ---------------------------------------------------------------------------
# batched LMS: the serial kernel is the oracle, stream by stream
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
    aided = draw(st.booleans())
    # block lengths around the 2048-sample MSE window
    n = draw(st.sampled_from([2047, 2048, 4096, 5000]))
    seed = draw(st.integers(0, 2**16))
    return n_streams, n_taps, aided, n, seed


class TestLmsBatchParity:
    @settings(max_examples=12, deadline=None)
    @given(batch_cases())
    @example((2, 1, True, 2048, 0))
    @example((6, 41, False, 5000, 1))
    @example((1, 21, True, 2048, 5))
    def test_pass_matches_serial_per_stream(self, case):
        n_streams, n_taps, aided, n, seed = case
        streams, reference = colored_streams(n, n_streams, seed)
        desired = reference.levels if aided else None
        mu = 0.05 * 2.0 / (n_taps * float(np.mean(PAM4**2)))
        args = (PAM4, n // 10, min(1e-3, mu), min(1e-4, mu))
        w = center_spikes(n_streams, n_taps)
        failed = [None] * n_streams
        xp = padded(streams, n_taps)
        outs = [_lms_pass_batch(xp, w, desired, *args, failed, n) for _ in range(2)]
        assert failed == [None] * n_streams
        for b, x in enumerate(streams):
            w_ref = center_spikes(1, n_taps)[0]
            for out in outs:
                assert np.array_equal(out[b], _lms_pass(x, w_ref, desired, *args))
            assert np.array_equal(w[b], w_ref)

    @settings(max_examples=8, deadline=None)
    @given(batch_cases())
    @example((3, 1, True, 4096, 2))
    @example((6, 41, True, 4096, 3))
    @example((1, 41, True, 4096, 4))
    def test_equalize_matches_serial_per_stream(self, case):
        n_streams, n_taps, _, n, seed = case
        streams, reference = colored_streams(n, n_streams, seed)
        batch = lms_equalize_batch(streams, reference, n_taps)
        for x, eq in zip(streams, batch):
            taps, output, mse_train, mse_final = oracle_lms_equalize(x, reference, n_taps)
            assert np.array_equal(eq.taps.coefficients, taps)
            assert np.array_equal(eq.output, output)
            assert (eq.mse_train, eq.mse_final) == (mse_train, mse_final)
            single = lms_equalize(x, reference, n_taps)
            assert np.array_equal(single.output, output)

    @pytest.mark.parametrize("n_streams", [1, 4])
    @pytest.mark.parametrize("gain", [3.1, 30.0], ids=["windowed_mse", "error_bound"])
    def test_diverging_stream_leaves_the_others_unchanged(self, gain, n_streams):
        streams, reference = colored_streams(3 * 2048, n_streams, seed=8)
        bad = n_streams // 2
        streams[bad] = streams[bad] * gain
        args = (reference.levels, PAM4, 614, 0.002, 0.002)
        w = center_spikes(n_streams, 21)
        failed = [None] * n_streams
        out = _lms_pass_batch(padded(streams, 21), w, *args, failed, streams[0].size)
        for b, x in enumerate(streams):
            w_ref = center_spikes(1, 21)[0]
            if b == bad:
                with pytest.raises(EqualizerDivergence) as err:
                    _lms_pass(x, w_ref, *args)
                assert str(failed[b]) == str(err.value)
                assert failed[b].mu == err.value.mu == 0.002
            else:
                assert failed[b] is None
                assert np.array_equal(out[b], _lms_pass(x, w_ref, *args))
            assert np.array_equal(w[b], w_ref)


# ---------------------------------------------------------------------------
# MLSE
# ---------------------------------------------------------------------------

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
        cfg = MlseConfig.for_fir_channel(h, PAM4, memory, start_symbol=start)
        assert np.array_equal(mlse_detect(y, cfg).indices, oracle_mlse_detect(y, cfg))

    @pytest.mark.parametrize("start", [0, None])
    @pytest.mark.parametrize("memory", [1, 2, 3])
    def test_exact_metric_ties(self, memory, start):
        # integer samples on and between the seven delay-and-add levels: the
        # squared distances are small exact integers, so candidates often meet
        # with exactly equal metrics and the lower predecessor must win
        y = np.random.default_rng(7).integers(-7, 8, 3000).astype(np.float64)
        cfg = MlseConfig.for_fir_channel(np.array([1.0, 1.0]), PAM4, memory, start_symbol=start)
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
        cfg = MlseConfig.for_fir_channel(np.array([1.0, 1.0]), PAM4, memory, start_symbol=None)
        assert np.array_equal(mlse_detect(y, cfg).indices, oracle_mlse_detect(y, cfg))


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
            (PamRxConfig(n_ffe_taps=41), 199),
            (PamRxConfig(n_ffe_taps=41, mlse_memory=2), 150),
            (PamRxConfig(n_ffe_taps=21, mlse_memory=2, partial_response=True), 114),
        ],
        ids=["nyquist_hard", "nyquist_ffe_mlse2", "pr_mlse2"],
    )
    def test_block_bit_errors(self, rx, errors):
        channel = make_channel("paper_10km", voa_db=3.8, seed=3)
        exp = PamExperiment(rx=rx, channel=channel, payload_order=7)
        tx_bits, rx_bits = exp.run_block(seed=11)
        assert tx_bits.size == 32768
        assert count_ber(tx_bits, rx_bits).bit_errors == errors
