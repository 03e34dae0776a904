"""Tests for the benchmark's own code.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import itertools

import pytest

import spans
import workloads
from spans import Span


def test_self_times_nested_and_sibling_spans():
    trace = [
        Span("evaluate.run_block", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 7.0, parent=0),
    ]
    selfs = spans.self_times(trace)
    assert selfs == pytest.approx([5.0, 2.0, 1.0, 2.0])
    assert sum(selfs) == pytest.approx(trace[0].duration)
    assert spans.block_self_time_gap(trace, selfs) == pytest.approx(0.0)


def test_self_times_count_overlapping_children_once():
    trace = [Span("p", 0.0, 10.0), Span("c1", 1.0, 5.0, parent=0), Span("c2", 4.0, 6.0, parent=0)]
    assert spans.self_times(trace)[0] == pytest.approx(5.0)


def test_tracer_records_parents_counts_and_point_ids():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("inner", inner, counter=lambda a: {"n": a["x"]})

    def run_point(experiment, spec, index):
        return wrapped_inner(index)

    wrapped = tracer.wrap("evaluate.run_point", run_point)
    assert wrapped(None, None, 7) == 8
    outer, child = tracer.spans
    assert (outer.parent, child.parent) == (None, 0)
    assert (outer.point, child.point) == (7, 7)
    assert child.counts == {"n": 7}
    assert (outer.start, child.start, child.end, outer.end) == (0.0, 1.0, 2.0, 3.0)
    assert spans.spans_from_json(tracer.to_json()) == tracer.spans


def test_layer_metrics_per_block_and_cache_hits():
    trace = [
        Span("evaluate.run_block", 0.0, 4.0),
        Span("evaluate.resolve_tx", 0.0, 2.0, parent=0),
        Span("adaptive.train_preemphasis", 0.5, 1.5, parent=1),
        Span("evaluate.run_block", 4.0, 6.0),
        Span("evaluate.resolve_tx", 4.0, 4.5, parent=3),
    ]
    m = spans.layer_metrics(trace)
    assert m["evaluate.blocks"] == 2
    assert m["evaluate.run_block_s"] == pytest.approx(3.0)
    assert m["evaluate.run_block_self_s"] == pytest.approx((2.0 + 1.5) / 2)
    assert m["adaptive.train_preemphasis_s"] == pytest.approx(0.5)
    assert m["evaluate.preemph_cache_hit_ratio"] == pytest.approx(0.5)
    assert m["adaptive.mlse_detect_s"] == 0.0


@pytest.mark.parametrize(
    "k, k_ref, dispersion, ok",
    [
        (0, 0, 1.0, True),  # exact, no errors
        (120, 120, 1.0, True),  # exact
        (145, 100, 1.0, True),  # 45 <= 3 sqrt(245) = 46.96
        (150, 100, 1.0, False),  # 50 > 3 sqrt(250) = 47.43
        (60, 100, 1.0, False),  # 40 > 3 sqrt(160) = 37.95
        (150, 100, 2.0, True),  # 50 <= 3 sqrt(500) = 67.08
        (10, 0, 1.0, False),  # 10 > 3 sqrt(10) = 9.49
    ],
)
def test_three_sigma_rule(k, k_ref, dispersion, ok):
    assert workloads.within_three_sigma(k, k_ref, dispersion) is ok


def test_dispersion_factor_is_one_for_poisson_like_counts():
    assert workloads.dispersion_factor([100, 100, 100], [100] * 3) == 1.0
    assert workloads.dispersion_factor([95, 105], [100, 100]) == 1.0
    assert workloads.dispersion_factor([60, 140], [100, 100]) == pytest.approx(
        1600 / 160 + 1600 / 240)
    assert workloads.dispersion_factor([60, 1000], [100, 1000]) == pytest.approx(1600 / 160)


def test_point_failures():
    ref = {"bits_total": 1000, "bit_errors": 10}
    ok = workloads.PointResult("1", 12, 1000, "")
    bad = workloads.PointResult("1", 40, 1000, "")
    fail = workloads.point_failure
    assert fail(ok, ref, 1.0) is None
    assert "error cell" in fail(workloads.PointResult("1", None, None, "X: y"), ref, 1.0)
    assert "bits_total" in fail(workloads.PointResult("1", 10, 999, ""), ref, 1.0)
    assert "3 sigma" in fail(bad, ref, 1.0)
    assert fail(bad, ref, 4.0) is None
    reference = {"dispersion": 1.0, "points": [ref, dict(ref, bit_errors=12)]}
    assert workloads.check_points([ok, ok], reference) == ([], 1)
    assert len(workloads.check_points([ok], reference)[0]) == 1
    assert len(workloads.check_points([bad, ok], reference)[0]) == 1


def test_read_points(tmp_path):
    path = tmp_path / "ber_vs_rop.csv"
    path.write_text(
        "pam_mlse_memory,rop_dbm,bit_errors,bits_total,ber,kp4_pass,cibch_pass,"
        "wilson_low,wilson_high,error\n"
        "1,-1,13,131072,9.9e-05,1,1,5.7e-05,1.6e-04,\n"
        "2,-1,,,,,,,,EqualizerDivergence: boom\n"
    )
    assert workloads.read_points(path) == [
        workloads.PointResult("1", 13, 131072, ""),
        workloads.PointResult("2", None, None, "EqualizerDivergence: boom"),
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_generated_config_is_accepted_by_the_cli(tmp_path, name, seed):
    from imddsim import cli

    workload = workloads.WORKLOADS[name]
    path = tmp_path / "w.cfg"
    path.write_text(workloads.config_text(workload, seed))
    cfg = cli.parse_config(path)
    assert cfg.seed == seed
    assert cfg.format == workload.format
    assert cfg.blocks == workload.blocks
    assert cfg.sweep_parameter == workload.sweep_parameter
    assert cfg.sweep_values == workload.sweep_values
    assert workloads.POINT_FIELDS[cfg.sweep_parameter] in vars(cfg)


def test_boundaries_trace_a_real_cli_run(tmp_path):
    """Every boundary exists in the library, and a small traced DMT run's
    block self times add up to the block durations."""
    from imddsim import cli

    path = tmp_path / "small.cfg"
    path.write_text(
        "[experiment]\nformat = dmt\nseed = 3\n\n[channel]\npreset = paper_10km\n"
        "voa_db = 2.8\n\n[dmt]\nfft_length = 256\nframes = 1\n"
    )
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert cli.run(cli.parse_config(path), tmp_path / "out", jobs=1) == 0
    finally:
        restore()
    assert not hasattr(cli.run, "__wrapped__")
    trace = tracer.spans
    m = spans.layer_metrics(trace)
    assert m["evaluate.blocks"] == 1 and m["evaluate.points"] == 1
    assert m["dmt.frames"] == 1
    assert m["sigproc.fft_pow2_points"] > 0
    assert m["adaptive.lms_equalize_s"] == 0.0
    assert spans.block_self_time_gap(trace, spans.self_times(trace)) < 1e-9


def test_benchmark_json_matches_the_code():
    import json
    from pathlib import Path

    import run

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        spans.LAYER_METRICS)
