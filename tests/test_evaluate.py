"""Tests for the measurement and experiment layer."""
import math
from dataclasses import replace

import numpy as np
import pytest

from imddsim.cli import _fmt, _result_rows, _write_csv
from imddsim.dmt import DmtConfig
from imddsim.evaluate import (
    BerReport,
    DmtExperiment,
    PamExperiment,
    SweepPoint,
    SweepSpec,
    _trained_preemphasis,
    count_ber,
    latency_budget,
    measure_extinction_and_oma,
    run_blocks,
    run_sweep,
    wilson_interval,
)
from imddsim.link import CHANNEL_PRESETS, make_channel
from imddsim.pam import PamRxConfig, level_adjustment_for_eml
from imddsim.sigproc import SampleBuffer


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
        spec = SweepSpec(values=(17.0,), blocks=1, base_seed=5)
        points = run_sweep([at_snr(experiment, 17.0)], spec)
        tx_bits, rx_bits = experiment.run_block(seed=spec.base_seed)
        direct = count_ber(tx_bits, rx_bits)
        assert points[0].report.bit_errors == direct.bit_errors

    def test_deterministic_csv_bytes(self, experiment, tmp_path):
        spec = SweepSpec(values=(15.0, 18.0), blocks=2, base_seed=3)
        experiments = [at_snr(experiment, snr) for snr in spec.values]
        paths = []
        for run in range(2):
            points = run_sweep(experiments, spec)
            path = tmp_path / f"sweep{run}.csv"
            _write_csv(path, _result_rows(["channel.noise.snr_db"],
                                          [[_fmt(snr)] for snr in spec.values], points))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_point_failure_recorded_and_sweep_continues(self, experiment):
        spec = SweepSpec(values=(4, 5), blocks=1, base_seed=1)
        even = replace(experiment, rx=replace(experiment.rx, n_ffe_taps=4))
        points = run_sweep([even, experiment], spec)  # 4 taps is invalid (even)
        assert points[0].report is None
        assert "ValueError" in points[0].error
        assert points[1].report is not None

    def test_two_dimensional_grid_csv(self, experiment, tmp_path):
        spec = SweepSpec(values=((3, 16.0), (5, 16.0), (3, 18.0), (5, 18.0)), blocks=1)
        experiments = [
            replace(at_snr(experiment, snr), rx=replace(experiment.rx, n_ffe_taps=taps))
            for taps, snr in spec.values
        ]
        points = run_sweep(experiments, spec)
        path = tmp_path / "grid.csv"
        _write_csv(path, _result_rows(["rx.n_ffe_taps", "channel.noise.snr_db"],
                                      [[_fmt(v) for v in values] for values in spec.values],
                                      points))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("rx_n_ffe_taps,channel_noise_snr_db,")
        assert len(lines) == 5

    def test_parallel_matches_serial(self, experiment):
        spec = SweepSpec(values=(15.0, 17.0), blocks=1, base_seed=2)
        experiments = [at_snr(experiment, snr) for snr in spec.values]
        serial = run_sweep(experiments, spec, jobs=1)
        parallel = run_sweep(experiments, spec, jobs=2)
        assert [p.report.bit_errors for p in serial] == [
            p.report.bit_errors for p in parallel
        ]

    def test_one_experiment_per_point(self, experiment):
        with pytest.raises(ValueError, match="1 experiments for 2 sweep points"):
            run_sweep([experiment], SweepSpec(values=(15.0, 17.0)))

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
        spec = SweepSpec(values=(15.0, 17.0), blocks=1, base_seed=2)
        experiments = [at_snr(experiment, snr) for snr in spec.values]
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
        for index, (experiment, values) in enumerate(zip(experiments, spec.values)):
            errors = total = 0
            try:
                for b in range(spec.blocks):
                    seed = (spec.base_seed ^ (index * 0x9E3779B1)) + 7919 * b
                    report = count_ber(*experiment.run_block(seed))
                    errors += report.bit_errors
                    total += report.bits_total
                points.append(SweepPoint(values, BerReport.from_counts(errors, total)))
            except Exception as exc:
                points.append(SweepPoint(values, None, f"{type(exc).__name__}: {exc}"))
        return points

    def test_jobs_and_block_loop_agree(self):
        spec = SweepSpec(values=(2.8, 3.8, 4.8), blocks=2, base_seed=16)
        experiments = [
            PamExperiment(rx=PamRxConfig(n_ffe_taps=taps),
                          channel=make_channel("paper_10km", voa_db=voa, seed=16),
                          payload_order=7)
            for voa, taps in zip(spec.values, (41, 40, 41))  # even taps fail
        ]
        expected = self.block_loop(experiments, spec)
        assert expected[1].error == "ValueError: FFE length must be odd and >= 1"
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
            except Exception as exc:
                assert (type(outcome), str(outcome)) == (type(exc), str(exc))
                failed.append(experiment.channel.name)
            else:
                assert outcome == expected
        assert failed == ["awgn_only"]

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
                with pytest.raises(Exception) as raised:
                    experiment.run_block(seed)
                assert (type(outcome), str(outcome)) == (raised.type, str(raised.value))
            else:
                assert outcome == count_ber(*experiment.run_block(seed))
        assert outcomes[0] is not outcomes[2]

class TestLatency:
    def test_nyquist_ffe_paper_values(self):
        budget = latency_budget("nyquist_pam4", distance_km=0.0, tx_taps=11, rx_taps=41)
        assert budget.dsp_best_ns == 2.0
        assert budget.dsp_worst_ns == 12.0

    def test_mlse_paper_values(self):
        budget = latency_budget("pr_pam4", distance_km=0.0, tx_taps=11, rx_taps=21, mlse_memory=1)
        mlse = budget.stages[-1]
        assert mlse.best_ns == 16.0
        assert mlse.worst_ns == 66.0

    def test_ten_km_total_under_allowance(self):
        budget = latency_budget("pr_pam4", distance_km=10.0, tx_taps=11, rx_taps=21, mlse_memory=1)
        assert budget.propagation_us == 50.0
        assert budget.fec_us == 10.0
        assert 59.0 < budget.total_worst_us < 61.0
        assert budget.total_worst_us < 75.0

    def test_exact_integer_arithmetic(self):
        for taps, worst in ((11, 5.0), (21, 6.0), (41, 7.0), (61, 7.0)):
            budget = latency_budget("nyquist_pam4", 0.0, tx_taps=taps, rx_taps=None)
            assert budget.stages[0].worst_ns == worst
        for m, best, worst in ((1, 16.0, 66.0), (2, 19.0, 76.0), (3, 21.0, 86.0)):
            budget = latency_budget("pr_pam4", 0.0, mlse_memory=m)
            assert budget.stages[-1].best_ns == best
            assert budget.stages[-1].worst_ns == worst

    def test_dmt_stage_present(self):
        budget = latency_budget("dmt", distance_km=10.0, fft_length=512)
        assert budget.stages[0].name == "dmt_fft"
        assert budget.total_worst_us < 75.0

    def test_summary_renders(self):
        budget = latency_budget("pr_pam4", 10.0, tx_taps=11, rx_taps=21, mlse_memory=1)
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
        assert (tx.symbol_rate, tx.partial_response) == (rx.symbol_rate, partial)
        assert tx.clipping_ratio_db == clipping_db
        assert tx.pre_emphasis_taps == _trained_preemphasis(11, tx.dac_rate, partial)

    @pytest.mark.parametrize("preset", CHANNEL_PRESETS)
    def test_level_adjustment_only_with_the_eml(self, preset):
        exp = PamExperiment(rx=PamRxConfig(), channel=make_channel(preset),
                            tx_preemphasis_taps=None)
        tx = exp.resolve_tx()
        assert tx.pre_emphasis_taps is None
        expected = level_adjustment_for_eml(4) if preset.startswith("paper") else None
        assert tx.level_adjust == expected


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

    def test_dmt_experiment_runs(self):
        exp = DmtExperiment(cfg=DmtConfig(), channel=make_channel("paper_b2b", seed=2), frames=1)
        tx_bits, rx_bits = exp.run_block(seed=4)
        assert tx_bits.size == 716 * 124
        assert count_ber(tx_bits, rx_bits).ber < 0.01

    def test_dmt_loading_cached_and_exact(self):
        exp = DmtExperiment(cfg=DmtConfig(), channel=make_channel("paper_10km", seed=2))
        assert exp.loading().total_bits == 716
