"""Acceptance suite: the exit criteria of the build, one test per criterion.

Each test prints one [ACCEPTANCE] pass/fail line (visible with pytest -s
or in captured output on failure).  Monte-Carlo comparisons follow the
3-sigma-margin convention; error counts per point stay above 1e6 bits
where the criterion demands it.
"""
import csv
import importlib.util
import json
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from imddsim import link as link_mod
from imddsim.adaptive import MlseConfig, mlse_detect, train_preemphasis_waveform
from imddsim.cli import main as cli_main
from imddsim.cli import parse_config
from imddsim.dmt import (
    DmtConfig,
    chow_bit_loading,
    cioffi_power_loading,
    estimate_snr,
    make_probe_frame,
    rate_to_bits,
)
from imddsim.evaluate import (
    DmtExperiment,
    PamExperiment,
    latency_budget,
    measure_extinction_and_oma,
    run_blocks,
    _payload,
)
from imddsim.link import ChannelModel, NoiseSpec, apply_channel, make_channel, transmit_optical
from imddsim.pam import (
    PamRxConfig,
    PamTxConfig,
    pam4_demap,
    pam_back_end,
    pam_front_end,
    pam_receive,
    pam_transmit,
)
from imddsim.sigproc import SampleBuffer, resample
from spectral_helpers import frequency_response, occupied_bandwidth

PAM4 = np.array([-3.0, -1.0, 1.0, 3.0])
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN_POINTS = Path(__file__).resolve().parent / "golden_points.json"

# the benchmark's Monte-Carlo parity rule and its calibrated dispersions,
# read from perfbench as they stand
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
DISPERSION_WORKLOAD = {"nyquist_pam4": "nyquist_mc", "pr_pam4": "pr_mlse", "dmt": "dmt_fft"}


def report(criterion, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] {criterion} ({description}): {status}  {detail}")
    assert passed, f"{criterion} {description}: {detail}"


def three_sigma_slack(*error_counts):
    return 3.0 * math.sqrt(sum(1.0 / max(k, 1) for k in error_counts))


def pam_ber(channel, partial_response, tx_taps, rx_taps, mlse_memory, blocks, base_seed):
    exp = PamExperiment(
        rx=PamRxConfig(
            partial_response=partial_response, mlse_memory=mlse_memory, n_ffe_taps=rx_taps
        ),
        channel=channel,
        tx_preemphasis_taps=tx_taps,
    )
    errors = total = 0
    # the blocks equalize in one batched LMS, as a sweep's blocks do
    for outcome in run_blocks([(exp, base_seed + 7919 * b) for b in range(blocks)]):
        if isinstance(outcome, Exception):
            raise outcome
        errors += outcome.bit_errors
        total += outcome.bits_total
    return errors / total, errors, total


def dmt_ber(cfg, channel, frames, seed):
    exp = DmtExperiment(cfg=cfg, channel=channel, frames=frames)
    tx_bits, rx_bits = exp.run_block(seed=seed)
    errors = int(np.sum(tx_bits != rx_bits))
    return errors / tx_bits.size, errors, tx_bits.size


# ---------------------------------------------------------------------------
# criterion 1: latency budget exactness
# ---------------------------------------------------------------------------

def test_criterion_1_latency_budget():
    t0 = time.time()
    ffe = latency_budget(PamExperiment(rx=PamRxConfig(n_ffe_taps=41),
                                       channel=make_channel("paper_b2b"), tx_preemphasis_taps=11))
    mlse = latency_budget(PamExperiment(
        rx=PamRxConfig(n_ffe_taps=21, mlse_memory=1, partial_response=True),
        channel=make_channel("paper_10km"), tx_preemphasis_taps=11))
    mlse_stage = mlse.stages[-1]
    ok = (
        ffe.dsp_best_ns == 2.0
        and ffe.dsp_worst_ns == 12.0
        and mlse_stage.best_ns == 16.0
        and mlse_stage.worst_ns == 66.0
        and 59.0 <= mlse.total_best_us <= 61.0
        and mlse.total_worst_us < 75.0
    )
    report(
        "criterion 1", "latency budget exactness", ok,
        f"FFE 2/12 ns, MLSE1 {mlse_stage.best_ns:g}/{mlse_stage.worst_ns:g} ns, "
        f"10 km total {mlse.total_worst_us:.3f} us ({time.time()-t0:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: rate arithmetic and exact loading
# ---------------------------------------------------------------------------

def test_criterion_2_rate_arithmetic():
    t0 = time.time()
    cfg = DmtConfig()
    bits = rate_to_bits(cfg)
    channel = make_channel("paper_b2b", seed=1)
    snr = estimate_snr(apply_channel(make_probe_frame(cfg), channel, seed=1), cfg)
    loading = cioffi_power_loading(chow_bit_loading(snr, bits, cfg.max_loaded_carriers), snr)
    ok = bits == 716 and loading.total_bits == 716
    report(
        "criterion 2", "716 bits per DMT symbol, exact loading", ok,
        f"rate_to_bits={bits}, sum(b_i)={loading.total_bits} ({time.time()-t0:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: AWGN PAM4 closed-form oracle
# ---------------------------------------------------------------------------

def test_criterion_3_awgn_pam4_oracle():
    t0 = time.time()
    snr_db = 16.2
    payload = _payload(8)
    payload_bits = pam4_demap(payload.indices)
    wave = pam_transmit(payload_bits, PamTxConfig())
    at_syms = resample(wave, 2, 1).samples[::3]
    gain = float(at_syms @ payload.levels / (payload.levels @ payload.levels))
    sigma = gain * math.sqrt(np.mean(payload.levels**2) * 10 ** (-snr_db / 10.0))
    channel = ChannelModel(noise=NoiseSpec(sigma=sigma), seed=33)
    errors = total = 0
    rx_cfg = PamRxConfig(n_ffe_taps=1)
    fronts = [pam_front_end(apply_channel(wave, channel, seed=500 + block), rx_cfg, payload)
              for block in range(16)]  # 2.1e6 bits
    for rx_bits in pam_back_end(fronts, [rx_cfg] * len(fronts), payload):
        assert not isinstance(rx_bits, Exception), rx_bits
        errors += int(np.sum(rx_bits != payload_bits))
        total += payload_bits.size
    ber = errors / total
    analytic = 3.0 / 8.0 * math.erfc(math.sqrt(10 ** (snr_db / 10.0) / 10.0))
    rel = (ber - analytic) / analytic
    ok = abs(rel) <= 0.15 and total >= 2_000_000
    report(
        "criterion 3", "AWGN PAM4 matches closed form +/-15%", ok,
        f"ber {ber:.3e} vs analytic {analytic:.3e} ({rel:+.1%}, {total} bits, {time.time()-t0:.0f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 4: MLSE correctness
# ---------------------------------------------------------------------------

def test_criterion_4a_mlse_noiseless_exact():
    t0 = time.time()
    payload = _payload(8)
    lv = payload.levels
    rx = lv + np.concatenate(([PAM4[0]], lv[:-1]))
    detected = mlse_detect(rx, MlseConfig.partial_response(PAM4))
    errors = int(np.sum(detected.indices != payload.indices))
    report(
        "criterion 4a", "noiseless PR MLSE exact over 65536 symbols",
        errors == 0, f"{errors} symbol errors ({time.time()-t0:.1f}s)",
    )


def test_criterion_4b_mlse_matches_brute_force():
    t0 = time.time()
    L = 8
    cfg = MlseConfig.partial_response(PAM4)
    grids = np.array(np.meshgrid(*[range(4)] * L, indexing="ij")).reshape(L, -1).T
    lv = PAM4[grids]
    prev = np.concatenate([np.full((grids.shape[0], 1), PAM4[0]), lv[:, :-1]], axis=1)
    expected = lv + prev
    rng = np.random.default_rng(4242)
    mismatches = 0
    for _ in range(1000):
        truth = rng.integers(0, 4, L)
        clean = PAM4[truth] + np.concatenate(([PAM4[0]], PAM4[truth][:-1]))
        rx = clean + rng.normal(0, 0.9, L)
        brute = grids[np.argmin(np.sum((expected - rx) ** 2, axis=1))]
        viterbi = mlse_detect(rx, cfg).indices
        mismatches += not np.array_equal(viterbi, brute)
    report(
        "criterion 4b", "Viterbi equals brute-force ML on 1000 noisy 8-symbol blocks",
        mismatches == 0, f"{mismatches} mismatches ({time.time()-t0:.0f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 5: loopback zero-error for all three chains
# ---------------------------------------------------------------------------

def test_criterion_5_loopback_zero_error():
    t0 = time.time()
    payload = _payload(8)
    payload_bits = pam4_demap(payload.indices)
    ideal = make_channel("ideal")
    results = {}
    for fmt, pr, rx_taps, mlse in (
        ("nyquist_pam4", False, 41, None),
        ("pr_pam4", True, 21, 1),
    ):
        wave = pam_transmit(payload_bits, PamTxConfig(partial_response=pr))
        rx = apply_channel(wave, ideal)
        rx_bits = pam_receive(
            rx, PamRxConfig(partial_response=pr, mlse_memory=mlse, n_ffe_taps=rx_taps), payload
        )
        results[fmt] = int(np.sum(rx_bits != payload_bits))
    ber, errors, total = dmt_ber(DmtConfig(), ideal, frames=1, seed=3)
    results["dmt"] = errors
    ok = all(v == 0 for v in results.values())
    report(
        "criterion 5", "ideal-channel loopback BER 0 for all three chains", ok,
        f"bit errors {results} ({time.time()-t0:.0f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 6: pre-emphasis flatness and band-edge boost
# ---------------------------------------------------------------------------

def test_criterion_6_preemphasis_flatness():
    t0 = time.time()
    probe = _payload(8)
    stages = link_mod.TX_DRIVER_STAGES
    observed = link_mod.apply_stages(SampleBuffer(probe.levels, 84e9), stages)
    taps = train_preemphasis_waveform(SampleBuffer(probe.levels, 84e9), observed, 61)
    freqs = np.linspace(1e8, 30.8e9, 400)
    w = np.abs(frequency_response(taps, freqs, 84e9))
    h = np.abs(link_mod.cascade_response(stages, freqs))
    cascade_db = 20 * np.log10(w * h)
    band_limit = 0.9 * 29.65e9  # 0.9x the -20 dB band edge of the shaped signal
    ripple = float(np.max(np.abs(cascade_db[freqs <= band_limit])))
    nyq_boost = 20 * math.log10(w[-1])  # at the 30.8 GHz occupied-band edge

    # partial response occupies a narrower band: boost at its own -20 dB edge
    from imddsim.pam import pr_encode
    from imddsim.sigproc import raised_cosine_shape

    pr_wave = raised_cosine_shape(
        SampleBuffer(pr_encode(probe).levels, 56e9), 0.1, 3, 2
    )
    pr_edge = occupied_bandwidth(pr_wave, threshold_db=-20.0) / 2
    pr_boost = 20 * math.log10(
        float(np.abs(frequency_response(taps, np.array([pr_edge]), 84e9))[0])
    )
    ok = ripple <= 1.0 and nyq_boost >= 8.0 and pr_boost < nyq_boost
    report(
        "criterion 6", "trained 61-tap predistorter flat, band-edge boost", ok,
        f"ripple {ripple:.2f} dB, Nyquist edge boost {nyq_boost:.1f} dB, "
        f"PR edge ({pr_edge/1e9:.1f} GHz) boost {pr_boost:.1f} dB ({time.time()-t0:.0f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 7: paper-trend suite on the modeled link
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def link_10km_sensitivity():
    # ROP -3 dBm on the 10 km link: measurable BER for both PAM formats
    return make_channel("paper_10km", voa_db=0.8, seed=3)


def test_criterion_7a_nyquist_tap_plateau(link_10km_sensitivity):
    t0 = time.time()
    chan = link_10km_sensitivity
    ber_11_41, k1, n1 = pam_ber(chan, False, 11, 41, None, blocks=8, base_seed=11)
    ber_61_61, k2, n2 = pam_ber(chan, False, 61, 61, None, blocks=8, base_seed=11)
    ber_11_61, k3, n3 = pam_ber(chan, False, 11, 61, None, blocks=8, base_seed=11)
    slack_tx = three_sigma_slack(k1, k2)
    slack_rx = three_sigma_slack(k1, k3)
    ok = (
        n1 >= 1_000_000
        and ber_11_41 <= 2.0 * ber_61_61 * (1 + slack_tx)
        and ber_11_41 <= 2.0 * ber_11_61 * (1 + slack_rx)
    )
    report(
        "criterion 7a", "Nyquist PAM4 plateaus beyond 11 Tx / 41 Rx taps", ok,
        f"(11,41) {ber_11_41:.2e} vs (61,61) {ber_61_61:.2e} vs (11,61) {ber_11_61:.2e} "
        f"({time.time()-t0:.0f}s)",
    )


def test_criterion_7b_pr_tap_plateau(link_10km_sensitivity):
    t0 = time.time()
    chan = link_10km_sensitivity
    ber_21, k1, n1 = pam_ber(chan, True, 11, 21, 1, blocks=8, base_seed=13)
    ber_41, k2, n2 = pam_ber(chan, True, 11, 41, 1, blocks=8, base_seed=13)
    slack = three_sigma_slack(k1, k2)
    ok = n1 >= 1_000_000 and ber_21 <= 2.0 * ber_41 * (1 + slack)
    report(
        "criterion 7b", "PR PAM4 plateaus by 21 Rx-FFE taps", ok,
        f"21 taps {ber_21:.2e} vs 41 taps {ber_41:.2e} ({time.time()-t0:.0f}s)",
    )


def test_criterion_7c_mlse_memory_gain_small(link_10km_sensitivity):
    t0 = time.time()
    chan = link_10km_sensitivity
    ber_m1, k1, n1 = pam_ber(chan, True, 11, 21, 1, blocks=8, base_seed=17)
    ber_m3, k3, n3 = pam_ber(chan, True, 11, 21, 3, blocks=8, base_seed=17)
    slack = three_sigma_slack(k1, k3)
    ok = n1 >= 1_000_000 and ber_m1 <= 2.5 * ber_m3 * (1 + slack)
    report(
        "criterion 7c", "PR PAM4 MLSE memory 3 improves by less than 2.5x", ok,
        f"m=1 {ber_m1:.2e} vs m=3 {ber_m3:.2e} ratio {ber_m1/max(ber_m3,1e-12):.2f} "
        f"({time.time()-t0:.0f}s)",
    )


def test_criterion_7d_dmt_clipping_unimodal():
    t0 = time.time()
    chan = make_channel("paper_10km", voa_db=2.8, seed=5)
    ratios = [4.0, 7.0, 10.0, 13.0, 16.0]
    bers = []
    for cr in ratios:
        ber, errors, total = dmt_ber(DmtConfig(clipping_ratio_db=cr), chan, frames=12, seed=7)
        assert total >= 1_000_000
        bers.append(ber)
    best = int(np.argmin(bers))
    interior = 0 < best < len(ratios) - 1
    falling = all(bers[i] >= bers[i + 1] for i in range(best))
    rising = all(bers[i] <= bers[i + 1] for i in range(best, len(bers) - 1))
    ok = interior and falling and rising
    report(
        "criterion 7d", "DMT clipping-ratio sweep unimodal with interior optimum", ok,
        "BER " + " ".join(f"{c:g}dB:{b:.1e}" for c, b in zip(ratios, bers))
        + f" ({time.time()-t0:.0f}s)",
    )


def test_criterion_7e_dmt_fft_length_gains():
    t0 = time.time()
    chan = make_channel("paper_10km", voa_db=2.8, seed=5)
    bers = {}
    errs = {}
    for n in (256, 512, 2048):
        cfg = DmtConfig(fft_length=n, clipping_ratio_db=10.0)
        frame_bits = rate_to_bits(cfg) * cfg.data_symbols_per_frame
        frames = -(-1_000_000 // frame_bits)
        ber, errors, total = dmt_ber(cfg, chan, frames=frames, seed=7)
        assert total >= 1_000_000
        bers[n], errs[n] = ber, errors
    gain_small_fft = bers[256] / bers[512]
    gain_large_fft = bers[512] / bers[2048]
    slack = three_sigma_slack(errs[256], errs[512], errs[2048])
    ok = gain_large_fft <= gain_small_fft * (1 + slack) and bers[512] <= bers[256]
    report(
        "criterion 7e", "DMT FFT gain 512->2048 smaller than 256->512", ok,
        f"256:{bers[256]:.2e} 512:{bers[512]:.2e} 2048:{bers[2048]:.2e}, "
        f"gains {gain_small_fft:.2f} vs {gain_large_fft:.2f} ({time.time()-t0:.0f}s)",
    )


def test_criterion_7f_pr_interior_minimum():
    # the saturating receiver needs ROPs only the back-to-back link reaches
    t0 = time.time()
    points = {}
    for rop_label, voa in (("+1", 0.0), ("-1", 2.0), ("-3", 4.0)):
        chan = make_channel("paper_b2b", voa_db=voa, seed=3)
        points[rop_label], _, total = pam_ber(chan, True, 11, 21, 1, blocks=8, base_seed=19)
        assert total >= 1_000_000
    ok = points["-1"] < points["+1"] and points["-1"] < points["-3"]
    report(
        "criterion 7f", "PR PAM4 BER vs ROP has an interior minimum", ok,
        " ".join(f"{k}dBm:{v:.2e}" for k, v in points.items()) + f" ({time.time()-t0:.0f}s)",
    )


def test_criterion_7g_extinction_ratio_gap():
    t0 = time.time()
    payload_bits = pam4_demap(_payload(8).indices)
    chan = make_channel("paper_b2b", seed=3)
    ers = {}
    for fmt, pr in (("nyquist_pam4", False), ("pr_pam4", True)):
        exp = PamExperiment(
            rx=PamRxConfig(partial_response=pr, mlse_memory=1 if pr else None),
            channel=chan,
        )
        wave = pam_transmit(payload_bits, exp.resolve_tx())
        optical = transmit_optical(wave, chan)
        m = measure_extinction_and_oma(optical, 7 if pr else 4, samples_per_symbol=Fraction(3, 2))
        ers[fmt] = m["extinction_db"]
    gap = ers["pr_pam4"] - ers["nyquist_pam4"]
    ok = gap >= 2.0
    report(
        "criterion 7g", "PR extinction exceeds Nyquist by >= 2 dB", ok,
        f"PR {ers['pr_pam4']:.2f} dB vs Nyquist {ers['nyquist_pam4']:.2f} dB, gap {gap:.2f} dB "
        f"({time.time()-t0:.0f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 8: determinism of committed configs
# ---------------------------------------------------------------------------

def test_criterion_8_committed_config_determinism(tmp_path):
    t0 = time.time()
    subset = ("fig10a.cfg", "fig13b.cfg", "fig16_pr.cfg")
    identical = True
    detail = []
    for name in subset:
        blobs = []
        for run_id in ("a", "b"):
            out = tmp_path / name.replace(".cfg", "") / run_id
            rc = cli_main(["--config", str(CONFIGS / name), "--out", str(out)])
            assert rc == 0, f"{name} failed with exit {rc}"
            blobs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix == ".csv"}
            )
        same = blobs[0] == blobs[1]
        identical &= same
        detail.append(f"{name}:{'ok' if same else 'DIFFERS'}")
    report(
        "criterion 8", "committed configs re-run byte-identically", identical,
        ", ".join(detail) + f" ({time.time()-t0:.0f}s)",
    )


def golden_point_failures(name, fmt, out_dir, golden):
    """How the run's points differ from their recorded counts: the labels,
    `bits_total` and the error cell exactly, the bit errors within the
    benchmark's 3-sigma rule at the format's dispersion.  A failed point
    has no counts; its recorded ones are null."""
    with (out_dir / golden["file"]).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(golden["points"]):
        return [f"{name}: {len(rows)} points, recorded {len(golden['points'])}"]
    dispersion = workloads.load_reference(DISPERSION_WORKLOAD[fmt])["dispersion"]
    failures = []
    for row, ref in zip(rows, golden["points"]):
        label = f"{name} {ref['point']}"
        if any(row[k] != v for k, v in ref["point"].items()):
            failures.append(f"{label}: row labels {row}")
        elif (row["bits_total"], row["error"]) != (str(ref["bits_total"] or ""), ref["error"]):
            failures.append(f"{label}: {row['bits_total']} bits, error {row['error']!r}")
        elif ref["error"] == "" and not workloads.within_three_sigma(
                int(row["bit_errors"]), ref["bit_errors"], dispersion):
            failures.append(f"{label}: {row['bit_errors']} errors, recorded {ref['bit_errors']}")
    return failures


def test_criterion_8_all_committed_configs_run(tmp_path):
    t0 = time.time()
    golden = json.loads(GOLDEN_POINTS.read_text())
    failures = []
    for path in sorted(CONFIGS.glob("*.cfg")):
        cfg = parse_config(path)
        rc = cli_main(["--config", str(path), "--out", str(tmp_path / path.stem)])
        if rc != 0:
            failures.append(f"{path.name} (exit {rc})")
            continue
        failures += golden_point_failures(path.stem, cfg.format, tmp_path / path.stem,
                                          golden[path.stem])
    report(
        "criterion 8+", "every committed config runs to its recorded points", not failures,
        (", ".join(failures) if failures else f"{len(list(CONFIGS.glob('*.cfg')))} configs")
        + f" ({time.time()-t0:.0f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 9: link budget arithmetic
# ---------------------------------------------------------------------------

def test_criterion_9_link_budget():
    t0 = time.time()
    channel = make_channel("paper_20km")
    ok = channel.loss_db == pytest.approx(6.4, abs=1e-12) and channel.rop_dbm == pytest.approx(
        -5.4, abs=1e-12
    )
    report(
        "criterion 9", "20 km preset ROP = launch - 6.4 dB = -5.4 dBm", ok,
        f"loss {channel.loss_db:g} dB, ROP {channel.rop_dbm:g} dBm ({time.time()-t0:.1f}s)",
    )
