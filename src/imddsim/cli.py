"""Command-line front end.

Parses INI-style experiment configs (.cfg), selects the modulation format
and channel preset, runs single points or sweeps, and writes CSV results
plus a human-readable summary.  Committed configs under configs/
reproduce the reference parameter studies.
"""
from __future__ import annotations

import argparse
import configparser
import difflib
import itertools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .adaptive import FFE_MAX_TAPS, GARDNER_MIN_SYMBOLS, MLSE_MAX_DIGIT_BYTES
from .dmt import DmtConfig
from .evaluate import DmtExperiment, PamExperiment, SweepSpec, latency_budget, run_sweep
from .link import CHANNEL_PRESETS, make_channel, preset_summary
from .pam import SYMBOL_RATE, PamRxConfig
from .sigproc import DEBRUIJN_LENGTH_CAP, SimulationError

FORMATS = ("dmt", "nyquist_pam4", "pr_pam4")

# config keys that [sweep] parameter / parameter2 may name
SWEEP_PARAMETERS = (
    "channel.voa_db",
    "channel.snr_db",
    "pam.rx_taps",
    "pam.tx_taps",
    "pam.mlse_memory",
    "dmt.clipping_ratio_db",
    "dmt.fft_length",
)

# an order-n payload is 4**n symbols: at least the GARDNER_MIN_SYMBOLS of clock
# recovery (ceil log4), at most the longest de Bruijn sequence (floor log4)
PAYLOAD_ORDERS = range(-(-(GARDNER_MIN_SYMBOLS - 1).bit_length() // 2),
                       (DEBRUIJN_LENGTH_CAP.bit_length() - 1) // 2 + 1)


class ConfigError(Exception):
    """Invalid experiment config; carries every collected problem."""

    def __init__(self, errors):
        super().__init__("\n".join(errors))
        self.errors = list(errors)


@dataclass
class ExperimentConfig:
    """Validated, runnable experiment description."""

    format: str
    bit_rate: float = 112e9
    seed: int = 1
    blocks: int = 1
    preset: str = "paper_b2b"
    voa_db: float = 0.0
    snr_db: float = 20.0
    payload_order: int = 8
    frames: int = 2
    fft_length: int = 512
    cp_fraction: Fraction = Fraction(1, 64)
    data_symbols: int = 124
    training_symbols: int = 4
    dmt_clipping_ratio_db: float | None = 10.0
    tx_taps: int = 11
    rx_taps: int = 41
    mlse_memory: int | None = None
    sweep_parameter: str | None = None
    sweep_values: tuple = ()
    sweep_parameter2: str | None = None
    sweep_values2: tuple = ()


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _optional(cast):
    return lambda raw: None if raw.lower() == "none" else cast(raw)


def _numbers(raw: str) -> tuple:
    return tuple(_parse_number(v) for v in raw.split(","))


# every config key -> (ExperimentConfig field, parser of its text); the
# defaults live on ExperimentConfig alone
_KEYS = {
    "experiment.format": ("format", str),
    "experiment.bit_rate": ("bit_rate", _finite),
    "experiment.seed": ("seed", int),
    "experiment.blocks": ("blocks", int),
    "channel.preset": ("preset", str),
    "channel.voa_db": ("voa_db", _finite),
    "channel.snr_db": ("snr_db", _finite),
    "dmt.fft_length": ("fft_length", int),
    "dmt.cp_fraction": ("cp_fraction", Fraction),
    "dmt.data_symbols": ("data_symbols", int),
    "dmt.training_symbols": ("training_symbols", int),
    "dmt.clipping_ratio_db": ("dmt_clipping_ratio_db", _optional(_finite)),
    "dmt.frames": ("frames", int),
    "pam.tx_taps": ("tx_taps", int),
    "pam.rx_taps": ("rx_taps", int),
    "pam.mlse_memory": ("mlse_memory", _optional(int)),
    "pam.payload_order": ("payload_order", int),
    "sweep.parameter": ("sweep_parameter", str),
    "sweep.values": ("sweep_values", _numbers),
    "sweep.parameter2": ("sweep_parameter2", str),
    "sweep.values2": ("sweep_values2", _numbers),
}
_SECTIONS = {key.partition(".")[0] for key in _KEYS}


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read and validate a .cfg file; raises ConfigError listing every
    problem found, not just the first.

    `overrides` maps ExperimentConfig fields to values that replace the
    file's (the command line's `--seed` and `--preset`); they are checked
    with the file's values, as if the file had set them.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    # values are read as written: a "%" is a character, not interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"])

    errors: list[str] = []
    given: set[str] = set()
    fields = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            errors.append(f"{section}: unknown section")
            continue
        for key in parser[section]:
            name = f"{section}.{key}"
            if name not in _KEYS:
                errors.append(f"{name}: unknown key")
                continue
            given.add(name)
            field, parse = _KEYS[name]
            try:
                fields[field] = parse(parser.get(section, key).strip())
            except (ValueError, ZeroDivisionError) as exc:
                errors.append(f"{name}: {exc}")
    fields.update(overrides or {})
    format_known = fields.get("format") in FORMATS
    if not format_known:
        errors.append(
            f"experiment.format: must be one of {', '.join(FORMATS)}, got {fields.get('format')!r}"
        )
        fields["format"] = "dmt"
    cfg = _settled(ExperimentConfig(**fields), errors)

    unread = "pam." if cfg.format == "dmt" else "dmt."  # the keys the format never reads
    sweeps = (("", cfg.sweep_parameter, cfg.sweep_values),
              ("2", cfg.sweep_parameter2, cfg.sweep_values2))
    for suffix, key, values in sweeps:
        if key is None:
            continue
        if key not in SWEEP_PARAMETERS:
            errors.append(
                f"sweep.parameter{suffix}: unknown parameter {key!r} "
                f"(known: {', '.join(sorted(SWEEP_PARAMETERS))})"
            )
        elif key in given:
            errors.append(
                f"sweep.parameter{suffix}: {key} is swept here but also fixed at "
                f"{key}; remove one of the two"
            )
        elif format_known and key.startswith(unread):
            errors.append(f"sweep.parameter{suffix}: format {cfg.format!r} does not read "
                          f"{key}, so every point would give the same row")
        if not values:
            errors.append(f"sweep.values{suffix}: at least one value required")
    swept = {cfg.sweep_parameter, cfg.sweep_parameter2}
    if cfg.preset != "awgn_only" and "channel.snr_db" in given | swept:
        errors.append(
            f"channel.snr_db: preset {cfg.preset!r} sets its own noise; "
            "an SNR applies only to preset 'awgn_only'"
        )
    if ("pam.tx_taps" in swept and cfg.preset in CHANNEL_PRESETS
            and not make_channel(cfg.preset).hardware):
        errors.append(
            f"pam.tx_taps: preset {cfg.preset!r} has no transmitter hardware to "
            "pre-compensate; a tx_taps sweep applies only to the paper_* presets"
        )

    if not errors:
        try:
            point_configs(cfg)
        except ConfigError as exc:
            errors += exc.errors
    if errors:
        raise ConfigError(errors)
    return cfg


def _settled(cfg: ExperimentConfig, errors: list[str]) -> ExperimentConfig:
    """`cfg` with its MLSE memory settled; appends every problem to `errors`.

    The one check for a parsed config and for each of its sweep points.
    PR PAM4 without a memory gets memory 1; memory 0 means no MLSE.
    """
    if cfg.preset not in CHANNEL_PRESETS:
        hint = difflib.get_close_matches(cfg.preset, CHANNEL_PRESETS, n=1)
        suffix = f"; did you mean {hint[0]!r}?" if hint else ""
        errors.append(f"channel.preset: unknown preset {cfg.preset!r}{suffix}")
    if cfg.fft_length < 4 or cfg.fft_length & (cfg.fft_length - 1):
        errors.append(f"dmt.fft_length: not a power of two ({cfg.fft_length})")
    elif (cfg.cp_fraction * cfg.fft_length).denominator != 1:
        errors.append(f"dmt.cp_fraction: {cfg.cp_fraction} of fft_length {cfg.fft_length} "
                      "is not a whole number of samples")
    if cfg.cp_fraction < 0:
        errors.append(f"dmt.cp_fraction: must be >= 0, got {cfg.cp_fraction}")
    if cfg.bit_rate <= 0:
        errors.append(f"experiment.bit_rate: must be > 0, got {cfg.bit_rate}")
    elif cfg.format != "dmt" and cfg.bit_rate != 2 * SYMBOL_RATE:
        errors.append(f"experiment.bit_rate: must be {2 * SYMBOL_RATE / 1e9:g}e9 for {cfg.format}, "
                      f"2 bits per symbol at the converter's {SYMBOL_RATE / 1e9:g} GBd, "
                      f"got {cfg.bit_rate / 1e9:g}e9")
    if cfg.seed < 0:
        errors.append(f"experiment.seed: must be >= 0, got {cfg.seed}")
    if cfg.voa_db < 0:  # an attenuator, never an amplifier
        errors.append(f"channel.voa_db: must be >= 0, got {cfg.voa_db}")
    for key, value in (("experiment.blocks", cfg.blocks), ("dmt.frames", cfg.frames),
                       ("dmt.training_symbols", cfg.training_symbols),
                       ("dmt.data_symbols", cfg.data_symbols)):
        if value < 1:
            errors.append(f"{key}: must be >= 1, got {value}")
    if cfg.payload_order not in PAYLOAD_ORDERS:
        errors.append(f"pam.payload_order: must be {PAYLOAD_ORDERS[0]}..{PAYLOAD_ORDERS[-1]}, "
                      f"got {cfg.payload_order}")
    elif cfg.rx_taps > 4**cfg.payload_order:
        errors.append(f"pam.rx_taps: must be <= {4**cfg.payload_order}, the symbols of a "
                      f"payload_order {cfg.payload_order} block, got {cfg.rx_taps}")
    elif cfg.rx_taps > FFE_MAX_TAPS:
        errors.append(f"pam.rx_taps: must be <= {FFE_MAX_TAPS}, the most the receive "
                      f"FFE's least-squares start fits, got {cfg.rx_taps}")
    for key, value in (("pam.tx_taps", cfg.tx_taps), ("pam.rx_taps", cfg.rx_taps)):
        if value < 1 or value % 2 == 0:
            errors.append(f"{key}: FFE lengths must be odd and >= 1")
    if cfg.tx_taps > FFE_MAX_TAPS:
        errors.append(f"pam.tx_taps: must be <= {FFE_MAX_TAPS}, the most the pre-emphasis "
                      f"trainer solves, got {cfg.tx_taps}")
    memory = cfg.mlse_memory
    partial = cfg.format == "pr_pam4"
    if partial and memory is None:
        memory = 1
    if partial and memory < 1:
        errors.append(f"pam.mlse_memory: pr_pam4 needs an MLSE memory >= 1, got {memory}")
    elif memory is not None and memory < 0:
        errors.append(f"pam.mlse_memory: must be >= 0 (0 is no MLSE), got {memory}")
    elif cfg.format != "dmt" and cfg.payload_order in PAYLOAD_ORDERS:
        # the trellis that runs keeps a Viterbi table of a byte per state and
        # symbol, 4**(order + memory) bytes: memory <= log4(the bound) - order
        trellis = PamRxConfig(mlse_memory=memory or None, partial_response=partial).trellis_memory
        largest = (MLSE_MAX_DIGIT_BYTES.bit_length() - 1) // 2 - cfg.payload_order
        if trellis is not None and trellis > largest:
            errors.append(f"pam.mlse_memory: must be <= {largest} at payload_order "
                          f"{cfg.payload_order}, whose Viterbi table must fit in "
                          f"{MLSE_MAX_DIGIT_BYTES} bytes, got {memory}")
    return replace(cfg, mlse_memory=memory or None)


def point_configs(cfg: ExperimentConfig) -> list[tuple[tuple, ExperimentConfig]]:
    """(swept values, config) of every sweep point, in grid order.

    A point's config is `cfg` with its swept keys fixed to the point's
    values and no sweep, parsed and checked as if the file had fixed them.
    Without a sweep the one point is `cfg`, labelled by its VOA.  Raises
    ConfigError naming each bad swept value.
    """
    pairs = ((cfg.sweep_parameter, cfg.sweep_values), (cfg.sweep_parameter2, cfg.sweep_values2))
    sweeps = [(key, values) for key, values in pairs if key is not None]
    if not sweeps:
        return [((cfg.voa_db,), cfg)]
    base = replace(cfg, sweep_parameter=None, sweep_values=(),
                   sweep_parameter2=None, sweep_values2=())
    errors: list[str] = []
    points = []
    for values in itertools.product(*(values for _, values in sweeps)):
        fields = {}
        for (key, _), value in zip(sweeps, values):
            field, parse = _KEYS[key]
            try:
                fields[field] = parse(str(value))
            except ValueError as exc:
                errors.append(f"{key}: {exc}")
        points.append((values, _settled(replace(base, **fields), errors)))
    if errors:
        raise ConfigError(list(dict.fromkeys(errors)))
    return points


# ---------------------------------------------------------------------------
# experiment construction and execution
# ---------------------------------------------------------------------------

def build_experiment(cfg: ExperimentConfig):
    channel = make_channel(cfg.preset, voa_db=cfg.voa_db, seed=cfg.seed, snr_db=cfg.snr_db)
    if cfg.format == "dmt":
        dmt_cfg = DmtConfig(
            fft_length=cfg.fft_length,
            cp_fraction=cfg.cp_fraction,
            data_symbols_per_frame=cfg.data_symbols,
            training_symbols=cfg.training_symbols,
            clipping_ratio_db=cfg.dmt_clipping_ratio_db,
            target_bit_rate=cfg.bit_rate,
        )
        return DmtExperiment(cfg=dmt_cfg, channel=channel, frames=cfg.frames)
    rx = PamRxConfig(n_ffe_taps=cfg.rx_taps, mlse_memory=cfg.mlse_memory,
                     partial_response=cfg.format == "pr_pam4")
    return PamExperiment(rx=rx, channel=channel, payload_order=cfg.payload_order,
                         tx_preemphasis_taps=cfg.tx_taps)


def run(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> int:
    """Execute the configured experiment; writes artifacts into out_dir.

    Returns the process exit code: 0 on success (threshold misses are
    measurements, not errors), 2 when any sweep point failed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = point_configs(cfg)
    names = [key for key in (cfg.sweep_parameter, cfg.sweep_parameter2) if key] or ["voa_db"]
    spec = SweepSpec(blocks=cfg.blocks, base_seed=cfg.seed)
    experiments = [build_experiment(point) for _, point in points]
    results = run_sweep(experiments, spec, jobs=jobs)

    if len(names) == 2:
        _write_csv(out / "sweep_grid.csv", _result_rows(
            names, [[_fmt(v) for v in values] for values, _ in points], results))
    else:
        _write_csv(out / "ber_vs_rop.csv", _result_rows(
            [names[0], "rop_dbm"],
            [[_fmt(values[0]), f"{experiment.channel.rop_dbm:.6g}"]
             for (values, _), experiment in zip(points, experiments)],
            results))

    # the loading table, the pre-emphasis taps and the latency budget are
    # those of the first point
    experiment = experiments[0]
    if cfg.format == "dmt":
        try:
            loading = experiment.loading()
        except SimulationError as exc:
            print(f"note: no loading_table.csv ({type(exc).__name__}: {exc})", file=sys.stderr)
        else:
            _write_csv(out / "loading_table.csv", _loading_rows(loading))
    else:
        taps = experiment.resolve_tx().pre_emphasis_taps
        if taps is not None:  # indices relative to the center tap
            _write_csv(out / "taps.csv", [["index", "coefficient"]] + [
                [str(i - len(taps) // 2), f"{c:.12g}"] for i, c in enumerate(taps)])

    budget = latency_budget(experiment)
    (out / "latency.txt").write_text(budget.summary() + "\n")
    _write_summary(cfg, names, points, experiments, results, budget, out / "summary.txt")

    failed = [(values, p) for (values, _), p in zip(points, results) if p.report is None]
    for values, point in failed:
        print(f"point {values}: {point.error}", file=sys.stderr)
    return 2 if failed else 0


def _write_csv(path, rows) -> None:
    """The one artifact CSV writer: a line of comma-separated text cells
    per row, the header row first."""
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(cells) + "\n" for cells in rows)


def _result_rows(names, leads, points) -> list[list[str]]:
    """The header and point rows of a long-format result CSV: each point's
    leading cells under `names` (dots become underscores), then its error
    count, bit total, BER, FEC verdicts and Wilson interval, or its error."""
    rows = [[name.replace(".", "_") for name in names] + [
        "bit_errors", "bits_total", "ber", "kp4_pass", "cibch_pass",
        "wilson_low", "wilson_high", "error"]]
    for cells, point in zip(leads, points):
        r = point.report
        if r is None:
            rows.append(cells + [""] * 7 + [point.error])
            continue
        rows.append(cells + [str(r.bit_errors), str(r.bits_total), f"{r.ber:.6e}",
                             str(int(r.threshold_results["kp4"])),
                             str(int(r.threshold_results["cibch"])),
                             f"{r.confidence[0]:.6e}", f"{r.confidence[1]:.6e}", ""])
    return rows


def _loading_rows(loading) -> list[list[str]]:
    """The header and carrier rows of a loading table: each carrier's
    index from 1, bits and power in dB."""
    rows = [["carrier", "bits", "power_db"]]
    for i, (b, p) in enumerate(zip(loading.bits, loading.power), start=1):
        power_db = 10.0 * np.log10(p) if p > 0 else float("-inf")
        rows.append([str(i), str(b), f"{power_db:.6g}"])
    return rows


def _write_summary(cfg, names, points, experiments, results, budget, path) -> None:
    # a swept VOA has no one value; each point line gives its own
    voa = "" if "channel.voa_db" in names else f" (voa {cfg.voa_db:g} dB)"
    lines = [
        f"format: {cfg.format}",
        f"bit rate: {cfg.bit_rate / 1e9:g} Gb/s",
        f"channel preset: {cfg.preset}{voa}",
        f"blocks per point: {cfg.blocks}, base seed {cfg.seed}",
        "",
        "points:",
    ]
    for (values, _), experiment, point in zip(points, experiments, results):
        label = ", ".join(f"{n}={v}" for n, v in zip(names, values))
        if point.report is None:
            lines.append(f"  {label}: FAILED ({point.error})")
            continue
        r = point.report
        verdicts = " ".join(
            f"{name}:{'pass' if ok else 'fail'}" for name, ok in sorted(r.threshold_results.items())
        )
        if cfg.sweep_parameter in (None, "channel.voa_db"):
            label += f" (rop {experiment.channel.rop_dbm:+.2f} dBm)"
        lines.append(f"  {label}: ber {r.ber:.3e} [{r.bit_errors}/{r.bits_total}] {verdicts}")
    lines += ["", budget.summary(), ""]
    Path(path).write_text("\n".join(lines))


def list_presets() -> str:
    return "\n".join(preset_summary(name) for name in CHANNEL_PRESETS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="imddsim",
        description="112 Gb/s IM/DD modulation chain simulator (DMT, Nyquist PAM4, PR PAM4)",
    )
    parser.add_argument("--config", type=Path, help="experiment config file (.cfg)")
    parser.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    parser.add_argument("--seed", type=int, help="override the experiment seed")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    parser.add_argument("--preset", help="override the channel preset")
    parser.add_argument("--list-presets", action="store_true", help="print the preset catalog")
    args = parser.parse_args(argv)

    if args.list_presets:
        print(list_presets())
        return 0
    if args.config is None:
        parser.print_usage(sys.stderr)
        print("error: --config is required unless --list-presets", file=sys.stderr)
        return 1
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 1
    overrides = {name: value for name, value in (("seed", args.seed), ("preset", args.preset))
                 if value is not None}
    try:
        cfg = parse_config(args.config, overrides)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    try:
        return run(cfg, args.out, jobs=args.jobs)
    except Exception as exc:  # pipeline failure
        print(f"pipeline error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
