"""Tests for the measurement and experiment layer."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from imddsim import adaptive
from imddsim import link as link_mod
from imddsim import pam as pam_mod
from imddsim.cli import _fmt, _result_rows, _write_csv
from imddsim.dmt import DmtConfig, LoadingError, SyncError
from imddsim.evaluate import (
    BerReport,
    DmtExperiment,
    PamExperiment,
    SweepPoint,
    SweepSpec,
    _PROBE_ORDER,
    _noiseless,
    _payload,
    _payload_bits,
    _trained_preemphasis,
    _transmitted,
    count_ber,
    latency_budget,
    measure_extinction_and_oma,
    run_blocks,
    run_sweep,
    wilson_interval,
)
from imddsim.link import CHANNEL_PRESETS, apply_channel, make_channel
from imddsim.pam import OVERSAMPLE, PamRxConfig, PayloadSyncError
from imddsim.sigproc import SampleBuffer, SimulationError


class TestCountBer:
    def test_identical_streams(self):
        bits = np.random.default_rng(0).integers(0, 2, 10_000)
        report = count_ber(bits, bits)
        assert report.ber == 0.0
        assert report.threshold_results == {"kp4": True, "cibch": True}

    def test_single_flip_in_a_million(self):
        rng = np.random.default_rng(1)
        tx = rng.integers(0, 2, 1_000_000)
        rx = tx.copy()
        rx[123_456] ^= 1
        report = count_ber(tx, rx)
        assert report.bit_errors == 1
        assert report.ber == pytest.approx(1e-6)

    def test_independent_streams_near_half(self):
        rng = np.random.default_rng(2)
        n = 1_000_000
        tx = rng.integers(0, 2, n)
        rx = rng.integers(0, 2, n)
        report = count_ber(tx, rx)
        sigma = 0.5 / math.sqrt(n)
        assert abs(report.ber - 0.5) < 3 * sigma
        assert not report.threshold_results["cibch"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_ber([0, 1], [0, 1, 1])

    def test_wilson_interval_against_binomial(self):
        # coverage check at BER 1e-3 via a binomial Monte-Carlo oracle
        rng = np.random.default_rng(6)
        p, n, trials = 1e-3, 100_000, 400
        covered = 0
        for _ in range(trials):
            k = rng.binomial(n, p)
            lo, hi = wilson_interval(k, n)
            covered += lo <= p <= hi
        assert covered / trials > 0.9
        # shrinks as 1/sqrt(bits)
        w1 = np.diff(wilson_interval(100, 100_000))[0]
        w2 = np.diff(wilson_interval(400, 400_000))[0]
        assert w2 / w1 == pytest.approx(0.5, rel=0.2)


@pytest.fixture(scope="module")
def experiment():
    return PamExperiment(
        rx=PamRxConfig(n_ffe_taps=5),
        channel=make_channel("awgn_only", snr_db=17.0, seed=9),
        payload_order=6,
        tx_preemphasis_taps=None,
    )


def at_snr(experiment, snr_db):
    return replace(experiment, channel=make_channel("awgn_only", snr_db=snr_db, seed=9))


class TestSweeps:

    def test_single_point_equals_single_run(self, experiment):
        spec = SweepSpec(blocks=1, base_seed=5)
        points = run_sweep([at_snr(experiment, 17.0)], spec)
        tx_bits, rx_bits = experiment.run_block(seed=spec.base_seed)
        direct = count_ber(tx_bits, rx_bits)
        assert points[0].report.bit_errors == direct.bit_errors

    def test_deterministic_csv_bytes(self, experiment, tmp_path):
        snrs = (15.0, 18.0)
        spec = SweepSpec(blocks=2, base_seed=3)
        experiments = [at_snr(experiment, snr) for snr in snrs]
        paths = []
        for run in range(2):
            points = run_sweep(experiments, spec)
            path = tmp_path / f"sweep{run}.csv"
            _write_csv(path, _result_rows(["channel.noise.snr_db"],
                                          [[_fmt(snr)] for snr in snrs], points))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_point_failure_recorded_and_sweep_continues(self, experiment):
        spec = SweepSpec(blocks=1, base_seed=1)
        points = run_sweep([at_snr(experiment, -40.0), experiment], spec)  # drowned in noise
        assert points[0].report is None
        assert points[0].error.startswith("PayloadSyncError: ")
        assert points[1].report is not None

    def test_two_dimensional_grid_csv(self, experiment, tmp_path):
        grid = ((3, 16.0), (5, 16.0), (3, 18.0), (5, 18.0))
        experiments = [
            replace(at_snr(experiment, snr), rx=replace(experiment.rx, n_ffe_taps=taps))
            for taps, snr in grid
        ]
        points = run_sweep(experiments, SweepSpec(blocks=1))
        path = tmp_path / "grid.csv"
        _write_csv(path, _result_rows(["rx.n_ffe_taps", "channel.noise.snr_db"],
                                      [[_fmt(v) for v in values] for values in grid],
                                      points))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("rx_n_ffe_taps,channel_noise_snr_db,")
        assert len(lines) == 5

    def test_parallel_matches_serial(self, experiment):
        spec = SweepSpec(blocks=1, base_seed=2)
        experiments = [at_snr(experiment, snr) for snr in (15.0, 17.0)]
        serial = run_sweep(experiments, spec, jobs=1)
        parallel = run_sweep(experiments, spec, jobs=2)
        assert [p.report.bit_errors for p in serial] == [
            p.report.bit_errors for p in parallel
        ]

    def test_sweep_needs_a_point(self):
        # raised before a pool of zero workers is asked for
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="sweep needs at least one point"):
                run_sweep([], SweepSpec(), jobs=jobs)

    def test_point_needs_a_block(self):
        with pytest.raises(ValueError, match="sweep needs at least one block per point"):
            SweepSpec(blocks=0)

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (8, 2)])
    def test_pool_has_at_most_one_worker_per_point(self, experiment, monkeypatch, jobs, workers):
        # the pool is recorded and run in this process: no worker starts
        import concurrent.futures

        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        spec = SweepSpec(blocks=1, base_seed=2)
        experiments = [at_snr(experiment, snr) for snr in (15.0, 17.0)]
        points = run_sweep(experiments, spec, jobs=jobs)
        assert started == [workers]
        assert points == run_sweep(experiments, spec, jobs=1)


class TestBatchedSweepParity:
    """The batched sweep path (one equalizer over every point's blocks),
    the per-point workers and a plain run_block loop agree point for point,
    failed points included."""

    @staticmethod
    def block_loop(experiments, spec):
        points = []
        for index, experiment in enumerate(experiments):
            errors = total = 0
            try:
                for b in range(spec.blocks):
                    seed = (spec.base_seed ^ (index * 0x9E3779B1)) + 7919 * b
                    report = count_ber(*experiment.run_block(seed))
                    errors += report.bit_errors
                    total += report.bits_total
                points.append(SweepPoint(BerReport(errors, total)))
            except SimulationError as exc:
                points.append(SweepPoint(None, f"{type(exc).__name__}: {exc}"))
        return points

    def test_jobs_and_block_loop_agree(self):
        spec = SweepSpec(blocks=2, base_seed=16)
        channels = [make_channel("paper_10km", voa_db=2.8, seed=16),
                    make_channel("awgn_only", snr_db=-40.0, seed=16),  # drowned: fails
                    make_channel("paper_10km", voa_db=4.8, seed=16)]
        experiments = [PamExperiment(rx=PamRxConfig(n_ffe_taps=41), channel=channel,
                                     payload_order=7)
                       for channel in channels]
        expected = self.block_loop(experiments, spec)
        assert expected[1].error.startswith("PayloadSyncError: ")
        assert expected[0].report.bits_total == 2 * 2 * 4**7
        assert list(run_sweep(experiments, spec, jobs=1)) == expected
        assert list(run_sweep(experiments, spec, jobs=2)) == expected


class TestMixedRunBlocks:
    def test_each_block_as_if_run_alone(self):
        # PR at three MLSE memories (one Viterbi loop), and a Nyquist FFE+MLSE
        # block next to a hard-decision one; a block drowned in noise fails
        # in its front end inside the PR batch, and the others run on
        def pam(channel, **rx):
            return PamExperiment(rx=PamRxConfig(n_ffe_taps=21, **rx), channel=channel,
                                 payload_order=6, tx_preemphasis_taps=None)

        link = make_channel("paper_10km", voa_db=3.8, seed=4)
        drowned = make_channel("awgn_only", snr_db=-40.0, seed=4)
        experiments = [pam(link, mlse_memory=m, partial_response=True) for m in (1, 2, 3)]
        experiments += [pam(drowned, mlse_memory=2, partial_response=True),
                        pam(link, mlse_memory=2), pam(link)]
        pairs = [(e, 21 + k) for k, e in enumerate(experiments)]
        outcomes = run_blocks(pairs)
        failed = []
        for (experiment, seed), outcome in zip(pairs, outcomes):
            try:
                expected = count_ber(*experiment.run_block(seed))
            except SimulationError as exc:
                assert (type(outcome), str(outcome)) == (type(exc), str(exc))
                failed.append(experiment.channel)
            else:
                assert outcome == expected
        assert failed == [drowned]

    def test_ffe_longer_than_its_block_raises(self):
        # 4097 taps on 1024-symbol blocks is a caller's error, not a
        # simulation outcome: it propagates rather than failing each block
        def pam(taps):
            return PamExperiment(rx=PamRxConfig(n_ffe_taps=taps),
                                 channel=make_channel("paper_10km", voa_db=3.8, seed=4),
                                 payload_order=5, tx_preemphasis_taps=None)

        pairs = [(pam(4097), 41), (pam(11), 42)]
        with pytest.raises(ValueError, match="FFE length 4097 exceeds the block of 1024 symbols"):
            run_blocks(pairs)

    def test_group_without_front_ends(self):
        # every block of the 21-tap group fails in its front end, so its
        # back end gets an empty batch; the 11-tap group runs on
        def pam(channel, taps):
            return PamExperiment(rx=PamRxConfig(n_ffe_taps=taps), channel=channel,
                                 payload_order=6, tx_preemphasis_taps=None)

        drowned = pam(make_channel("awgn_only", snr_db=-40.0, seed=4), 21)
        link = pam(make_channel("paper_10km", voa_db=3.8, seed=4), 11)
        pairs = [(drowned, 31), (link, 32), (drowned, 33), (link, 34)]
        outcomes = run_blocks(pairs)
        for (experiment, seed), outcome in zip(pairs, outcomes):
            if experiment is drowned:
                with pytest.raises(SimulationError) as raised:
                    experiment.run_block(seed)
                assert (type(outcome), str(outcome)) == (raised.type, str(raised.value))
            else:
                assert outcome == count_ber(*experiment.run_block(seed))
        assert outcomes[0] is not outcomes[2]


class TestFfeSettles:
    def test_blocks_of_one_point_settle_alike(self):
        # fig16's 4.8 dB Nyquist point at base seed 32, where an FFE started
        # from a center spike settled silently on taps that made 14,250 bit
        # errors in block 1 against 4,161 in block 0
        channel = make_channel("paper_10km", voa_db=4.8, seed=32)
        exp = PamExperiment(rx=PamRxConfig(n_ffe_taps=41), channel=channel, payload_order=8,
                            tx_preemphasis_taps=11)
        base = 32 ^ (2 * 0x9E3779B1)  # the sweep's seed rule at point index 2
        reports = run_blocks([(exp, base + 7919 * b) for b in (0, 1)])
        counts = sorted(report.bit_errors for report in reports)
        assert counts[1] < 1.5 * counts[0]


@pytest.mark.parametrize("error", [adaptive.EqualizerDivergence, adaptive.ClockRecoveryError,
                                   PayloadSyncError, SyncError, LoadingError])
def test_domain_error_is_a_simulation_error(error):
    assert issubclass(error, SimulationError)


class TestFaultsPropagate:
    """An exception other than a SimulationError is a fault of the program:
    it leaves run_blocks and run_sweep instead of becoming a point's error."""

    @staticmethod
    def broken(*args, **kwargs):
        raise TypeError("a programming error")

    def test_pam_front_end_fault(self, experiment, monkeypatch):
        monkeypatch.setattr("imddsim.pam.pam_front_end", self.broken)
        with pytest.raises(TypeError, match="a programming error"):
            run_blocks([(experiment, 1)])
        with pytest.raises(TypeError, match="a programming error"):
            run_sweep([experiment], SweepSpec())

    def test_dmt_block_fault(self, monkeypatch):
        monkeypatch.setattr(DmtExperiment, "run_block", self.broken)
        experiment = DmtExperiment(cfg=DmtConfig(fft_length=256),
                                   channel=make_channel("paper_b2b", seed=1), frames=1)
        with pytest.raises(TypeError, match="a programming error"):
            run_blocks([(experiment, 1)])
        with pytest.raises(TypeError, match="a programming error"):
            run_sweep([experiment], SweepSpec())


PR_21 = PamRxConfig(n_ffe_taps=21, mlse_memory=1, partial_response=True)


def pam_experiment(rx: PamRxConfig, preset: str = "paper_b2b", tx_taps: int = 11) -> PamExperiment:
    """`rx` over `preset`, with `tx_taps` pre-emphasis taps where the link has the hardware."""
    return PamExperiment(rx=rx, channel=make_channel(preset), tx_preemphasis_taps=tx_taps)


class TestLatency:
    def test_nyquist_ffe_paper_values(self):
        budget = latency_budget(pam_experiment(PamRxConfig(n_ffe_taps=41)))
        assert budget.dsp_best_ns == 2.0
        assert budget.dsp_worst_ns == 12.0

    def test_mlse_paper_values(self):
        budget = latency_budget(pam_experiment(PR_21))
        mlse = budget.stages[-1]
        assert mlse.best_ns == 16.0
        assert mlse.worst_ns == 66.0

    def test_ten_km_total_under_allowance(self):
        budget = latency_budget(pam_experiment(PR_21, "paper_10km"))
        assert budget.propagation_us == 50.0
        assert budget.fec_us == 10.0
        assert 59.0 < budget.total_worst_us < 61.0
        assert budget.total_worst_us < 75.0

    def test_exact_integer_arithmetic(self):
        for taps, worst in ((11, 5.0), (21, 6.0), (41, 7.0), (61, 7.0)):
            budget = latency_budget(pam_experiment(PamRxConfig(), tx_taps=taps))
            stages = {s.name: s for s in budget.stages}
            assert stages[f"tx_ffe{taps}"].worst_ns == worst
        for rx, best, worst in ((PamRxConfig(mlse_memory=1, partial_response=True), 16.0, 66.0),
                                (PamRxConfig(mlse_memory=2), 19.0, 76.0),
                                (PamRxConfig(mlse_memory=3), 21.0, 86.0)):
            budget = latency_budget(pam_experiment(rx, "ideal"))
            assert budget.stages[-1].best_ns == best
            assert budget.stages[-1].worst_ns == worst

    def test_flat_preset_charges_no_pre_emphasis(self):
        # no transmitter hardware, so resolve_tx installs no pre-emphasis
        for preset in ("ideal", "awgn_only"):
            budget = latency_budget(pam_experiment(PamRxConfig(n_ffe_taps=41), preset))
            assert [s.name for s in budget.stages] == ["rx_ffe41"]

    def test_pr_charges_the_trellis_it_runs(self):
        rx = PamRxConfig(n_ffe_taps=21, mlse_memory=3, partial_response=True)
        assert latency_budget(pam_experiment(rx)) == latency_budget(pam_experiment(PR_21))

    def test_dmt_stage_present(self):
        experiment = DmtExperiment(cfg=DmtConfig(fft_length=512), channel=make_channel("paper_10km"))
        budget = latency_budget(experiment)
        assert budget.stages[0].name == "dmt_fft"
        assert budget.total_worst_us < 75.0

    def test_summary_renders(self):
        budget = latency_budget(pam_experiment(PR_21, "paper_10km"))
        text = budget.summary()
        assert "propagation" in text and "66" in text


class TestExtinction:
    def test_two_ideal_levels(self):
        wave = SampleBuffer(np.tile([1.0, 0.25], 512), 1.0)
        m = measure_extinction_and_oma(wave, 2)
        assert m["extinction_db"] == pytest.approx(10 * math.log10(4.0), abs=1e-6)
        assert m["oma"] == pytest.approx(0.75)

    def test_seven_levels(self):
        rng = np.random.default_rng(0)
        levels = np.linspace(0.2, 1.6, 7)
        wave = SampleBuffer(levels[rng.integers(0, 7, 8192)] + rng.normal(0, 0.01, 8192), 1.0)
        m = measure_extinction_and_oma(wave, 7)
        assert m["extinction_db"] == pytest.approx(10 * math.log10(8.0), abs=0.2)

    def test_constant_power_rejected(self):
        with pytest.raises(ValueError):
            measure_extinction_and_oma(SampleBuffer(np.ones(1024), 1.0), 2)


class TestResolveTx:
    @pytest.mark.parametrize("partial, clipping_db", [(False, 6.0), (True, 5.0)])
    def test_follows_the_receiver_and_the_format(self, partial, clipping_db):
        rx = PamRxConfig(partial_response=partial, mlse_memory=1 if partial else None)
        tx = PamExperiment(rx=rx, channel=make_channel("paper_b2b")).resolve_tx()
        assert tx.partial_response == partial
        assert tx.clipping_ratio_db == clipping_db
        assert tx.pre_emphasis_taps == _trained_preemphasis(11, partial)

    def test_tap_bound_is_the_trainers(self):
        # the longest pre-emphasis the CLI accepts trains on the probe, and
        # the trainer holds its normal matrix, not a probe-long window matrix;
        # a tap count the probe is too short for is refused before training
        train = _trained_preemphasis.__wrapped__  # past the cache
        probe_samples = int(4**_PROBE_ORDER * OVERSAMPLE)
        with pytest.raises(ValueError, match="probe too short"):
            train(probe_samples // adaptive.PREEMPHASIS_SAMPLES_PER_TAP + 1, False)
        tracemalloc.start()
        try:
            taps = train(adaptive.FFE_MAX_TAPS, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(taps) == adaptive.FFE_MAX_TAPS
        assert np.isfinite(taps).all()
        assert peak < 64e6

    @pytest.mark.parametrize("preset", CHANNEL_PRESETS)
    def test_preemphasis_only_on_the_hardware(self, preset):
        tx = PamExperiment(rx=PamRxConfig(), channel=make_channel(preset)).resolve_tx()
        hardware = preset.startswith("paper")
        expected = _trained_preemphasis(11, False) if hardware else None
        assert tx.pre_emphasis_taps == expected

    @pytest.mark.parametrize("preset", CHANNEL_PRESETS)
    def test_level_adjustment_only_with_the_eml(self, preset):
        exp = PamExperiment(rx=PamRxConfig(), channel=make_channel(preset),
                            tx_preemphasis_taps=None)
        tx = exp.resolve_tx()
        assert tx.pre_emphasis_taps is None
        assert tx.level_adjust is preset.startswith("paper")


class TestExperimentPipelines:
    def test_pam_ideal_loopback(self):
        exp = PamExperiment(
            rx=PamRxConfig(n_ffe_taps=5),
            channel=make_channel("ideal"),
            payload_order=6,
            tx_preemphasis_taps=None,
        )
        tx_bits, rx_bits = exp.run_block(seed=1)
        assert count_ber(tx_bits, rx_bits).ber == 0.0

    def test_pam_ideal_loopback_with_preemphasis_taps(self):
        # the paper's 11 pre-emphasis taps leave a flat noiseless link error-free
        exp = PamExperiment(rx=PamRxConfig(), channel=make_channel("ideal"), payload_order=7,
                            tx_preemphasis_taps=11)
        tx_bits, rx_bits = exp.run_block(seed=1)
        assert count_ber(tx_bits, rx_bits).bit_errors == 0

    @pytest.mark.parametrize("n_taps", [11, 41])
    def test_pam_ideal_loopback_at_the_smallest_payload(self, n_taps):
        # the smallest payload the config accepts, 1,024 symbols; one tap
        # still makes 669 bit errors here, which is a known fault, not a spec
        exp = PamExperiment(
            rx=PamRxConfig(n_ffe_taps=n_taps),
            channel=make_channel("ideal"),
            payload_order=5,
            tx_preemphasis_taps=None,
        )
        assert count_ber(*exp.run_block(seed=1)).bit_errors == 0

    def test_dmt_experiment_runs(self):
        exp = DmtExperiment(cfg=DmtConfig(), channel=make_channel("paper_b2b", seed=2), frames=1)
        tx_bits, rx_bits = exp.run_block(seed=4)
        assert tx_bits.size == 716 * 124
        assert count_ber(tx_bits, rx_bits).ber < 0.01

    def test_dmt_loading_cached_and_exact(self):
        exp = DmtExperiment(cfg=DmtConfig(), channel=make_channel("paper_10km", seed=2))
        assert exp.loading().total_bits == 716


def _nyquist_mc():
    """The points and spec of the nyquist_mc benchmark: fig16's 10 km VOA
    points, 2 blocks each."""
    rx = PamRxConfig(n_ffe_taps=41)
    points = [PamExperiment(rx, make_channel("paper_10km", voa_db=voa, seed=16))
              for voa in (2.8, 3.8, 4.8)]
    return points, SweepSpec(blocks=2, base_seed=16)


def _pr_mlse():
    """The points and spec of the pr_mlse benchmark: PR PAM4 at MLSE memory
    1, 2 and 3 over one back-to-back link, one block each."""
    channel = make_channel("paper_b2b", voa_db=2.0, seed=15)
    points = [PamExperiment(PamRxConfig(n_ffe_taps=21, mlse_memory=m, partial_response=True),
                            channel) for m in (1, 2, 3)]
    return points, SweepSpec(blocks=1, base_seed=15)


def _cold():
    _transmitted.cache_clear()
    _noiseless.cache_clear()


def _misses() -> tuple[int, int]:
    return _transmitted.cache_info().misses, _noiseless.cache_info().misses


class TestPamWaveformCaches:
    """A PAM block builds only its noise: the transmit waveform is cached per
    transmitter and payload, the noiseless link output per link."""

    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("voa_db", [1.0, 4.0])
    def test_received_equals_the_uncached_chain(self, partial, voa_db):
        rx = PamRxConfig(n_ffe_taps=11, mlse_memory=1 if partial else None,
                         partial_response=partial)
        exp = PamExperiment(rx, make_channel("paper_10km", voa_db=voa_db, seed=5), payload_order=6)
        bits = pam_mod.pam4_demap(_payload(6).indices)
        for seed in (3, 4):
            uncached = apply_channel(pam_mod.pam_transmit(bits, exp.resolve_tx()), exp.channel, seed)
            received = exp._received(seed)
            assert np.array_equal(received.samples, uncached.samples)
            assert received.sample_rate == uncached.sample_rate

    def test_each_cache_holds_one_waveform(self):
        assert _transmitted.cache_info().maxsize == 1
        assert _noiseless.cache_info().maxsize == 1

    def test_blocks_of_one_point_hit(self):
        exp = PamExperiment(PamRxConfig(n_ffe_taps=11), make_channel("paper_b2b", seed=2),
                            payload_order=6)
        _cold()
        for seed in (1, 2, 3):
            exp._received(seed)
        assert _misses() == (1, 1)
        assert _noiseless.cache_info().hits == 2

    @pytest.mark.parametrize("change, misses", [
        ("voa", (0, 1)), ("tx_taps", (1, 1)), ("format", (1, 1)), ("payload", (1, 1)),
        ("channel_seed", (0, 0)),
    ])
    def test_another_point_misses(self, change, misses):
        base = PamExperiment(PamRxConfig(n_ffe_taps=11), make_channel("paper_b2b", seed=2),
                             payload_order=6)
        other = {
            "voa": replace(base, channel=make_channel("paper_b2b", voa_db=3.0, seed=2)),
            "tx_taps": replace(base, tx_preemphasis_taps=5),
            "format": replace(base, rx=PamRxConfig(n_ffe_taps=11, mlse_memory=1,
                                                   partial_response=True)),
            "payload": replace(base, payload_order=7),
            # the noise seed does not reach the noiseless link
            "channel_seed": replace(base, channel=make_channel("paper_b2b", seed=9)),
        }[change]
        base._received(1)
        before = _misses()
        other._received(1)
        assert tuple(a - b for a, b in zip(_misses(), before)) == misses

    def test_cached_arrays_are_read_only(self):
        exp = PamExperiment(PamRxConfig(n_ffe_taps=11), make_channel("paper_b2b", seed=2),
                            payload_order=6)
        exp._received(1)
        link = replace(exp.channel, noise=link_mod.NoiseSpec(), seed=0)
        for samples in (_transmitted(exp.resolve_tx(), 6).samples,
                        _noiseless(exp.resolve_tx(), 6, link).samples, _payload_bits(6)):
            with pytest.raises(ValueError):
                samples[0] = 0

    @pytest.mark.parametrize("workload, transmits, links", [
        (_nyquist_mc, 1, 3), (_pr_mlse, 1, 1),
    ])
    def test_a_sweep_transmits_once_and_runs_each_link_once(self, monkeypatch, workload,
                                                             transmits, links):
        calls = {"transmit": 0, "link": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pam_mod, "pam_transmit", counted("transmit", pam_mod.pam_transmit))
        monkeypatch.setattr(link_mod, "noiseless", counted("link", link_mod.noiseless))
        points, spec = workload()
        _cold()
        run_sweep(points, spec)
        assert calls == {"transmit": transmits, "link": links}

    def test_a_payload_is_held_once(self):
        # order 10 is a payload no other test builds: 4**10 int64 indices, 8 MiB
        tracemalloc.start()
        try:
            _payload.cache_clear()
            before, _ = tracemalloc.get_traced_memory()
            assert len(_payload(10)) == 4**10
            _payload.cache_clear()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 1 << 20

    def test_warm_sweep_equals_cold_sweep(self):
        points, spec = _nyquist_mc()
        _cold()
        cold = run_sweep(points, spec)
        warm = run_sweep(points, spec)
        assert cold == warm
        assert all(point.report is not None for point in cold)
