"""Bit parity of the LMS and Viterbi kernels against per-sample oracles,
plus pinned end-to-end block error counts.

The oracles are the straightforward per-sample loops the kernels in
:mod:`imddsim.adaptive` replace.  The kernels promise identical floats,
so every comparison here is exact (``np.array_equal``), never a tolerance.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imddsim.adaptive import EqualizerDivergence, MlseConfig, _lms_pass, mlse_detect
from imddsim.evaluate import PamExperiment, count_ber
from imddsim.link import make_channel
from imddsim.pam import PamRxConfig

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
