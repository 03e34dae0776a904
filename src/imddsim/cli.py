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
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import evaluate
from .dmt import DmtConfig, LoadingError, SyncError
from .evaluate import (
    DmtExperiment,
    PamExperiment,
    SweepPoint,
    SweepResult,
    SweepSpec,
    latency_budget,
    run_sweep,
    sweep_to_csv,
)
from .link import CHANNEL_PRESETS, make_channel, preset_summary
from .pam import PamRxConfig, PamTxConfig

FORMATS = ("dmt", "nyquist_pam4", "pr_pam4")

# swept-parameter names accepted in config files, mapped to experiment
# attribute paths (None marks parameters needing special construction)
SWEEP_PARAMETERS = {
    "channel.voa_db": "channel.budget.voa_db",
    "channel.snr_db": "channel.noise.snr_db",
    "pam.rx_taps": "rx.n_ffe_taps",
    "pam.tx_taps": "tx_preemphasis_taps",
    "pam.mlse_memory": "rx.mlse_memory",
    "dmt.clipping_ratio_db": "cfg.clipping_ratio_db",
    "dmt.fft_length": None,
}


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

    def to_ini(self) -> str:
        swept = {self.sweep_parameter, self.sweep_parameter2}

        def keep(section_key: str, line: str) -> list[str]:
            return [] if section_key in swept else [line]

        lines = ["[experiment]"]
        lines.append(f"format = {self.format}")
        lines.append(f"bit_rate = {self.bit_rate!r}")
        lines.append(f"seed = {self.seed}")
        lines.append(f"blocks = {self.blocks}")
        lines += ["", "[channel]", f"preset = {self.preset}"]
        lines += keep("channel.voa_db", f"voa_db = {self.voa_db!r}")
        if self.preset == "awgn_only":
            lines += keep("channel.snr_db", f"snr_db = {self.snr_db!r}")
        if self.format == "dmt":
            lines += ["", "[dmt]"]
            lines += keep("dmt.fft_length", f"fft_length = {self.fft_length}")
            lines.append(f"cp_fraction = {self.cp_fraction}")
            lines.append(f"data_symbols = {self.data_symbols}")
            lines.append(f"training_symbols = {self.training_symbols}")
            lines += keep(
                "dmt.clipping_ratio_db",
                f"clipping_ratio_db = {self.dmt_clipping_ratio_db if self.dmt_clipping_ratio_db is not None else 'none'}",
            )
            lines.append(f"frames = {self.frames}")
        else:
            lines += ["", "[pam]"]
            lines += keep("pam.tx_taps", f"tx_taps = {self.tx_taps}")
            lines += keep("pam.rx_taps", f"rx_taps = {self.rx_taps}")
            lines += keep(
                "pam.mlse_memory",
                f"mlse_memory = {self.mlse_memory if self.mlse_memory is not None else 'none'}",
            )
            lines.append(f"payload_order = {self.payload_order}")
        if self.sweep_parameter:
            lines += ["", "[sweep]", f"parameter = {self.sweep_parameter}"]
            lines.append("values = " + ", ".join(_fmt(v) for v in self.sweep_values))
            if self.sweep_parameter2:
                lines.append(f"parameter2 = {self.sweep_parameter2}")
                lines.append("values2 = " + ", ".join(_fmt(v) for v in self.sweep_values2))
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_SCHEMA = {
    "experiment": {"format", "bit_rate", "seed", "blocks"},
    "channel": {"preset", "voa_db", "snr_db"},
    "dmt": {"fft_length", "cp_fraction", "data_symbols", "training_symbols",
            "clipping_ratio_db", "frames"},
    "pam": {"tx_taps", "rx_taps", "mlse_memory", "payload_order"},
    "sweep": {"parameter", "values", "parameter2", "values2", "blocks"},
}


def _parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_config(path) -> ExperimentConfig:
    """Read and validate a .cfg file; raises ConfigError listing every
    problem found, not just the first."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"])

    errors: list[str] = []
    for section in parser.sections():
        if section not in _SCHEMA:
            errors.append(f"{section}: unknown section")
            continue
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                errors.append(f"{section}.{key}: unknown key")

    def get(section, key, cast, default):
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key).strip()
        try:
            return cast(raw)
        except (ValueError, ZeroDivisionError) as exc:
            errors.append(f"{section}.{key}: {exc}")
            return default

    def optional(cast):
        return lambda raw: None if raw.lower() == "none" else cast(raw)

    fmt = get("experiment", "format", str, None)
    if fmt not in FORMATS:
        errors.append(f"experiment.format: must be one of {', '.join(FORMATS)}, got {fmt!r}")
        fmt = "dmt"
    cfg = ExperimentConfig(
        format=fmt,
        bit_rate=get("experiment", "bit_rate", float, 112e9),
        seed=get("experiment", "seed", int, 1),
        blocks=get("experiment", "blocks", int, 1),
        preset=get("channel", "preset", str, "paper_b2b"),
        voa_db=get("channel", "voa_db", float, 0.0),
        snr_db=get("channel", "snr_db", float, 20.0),
        payload_order=get("pam", "payload_order", int, 8),
        frames=get("dmt", "frames", int, 2),
        fft_length=get("dmt", "fft_length", int, 512),
        cp_fraction=get("dmt", "cp_fraction", Fraction, Fraction(1, 64)),
        data_symbols=get("dmt", "data_symbols", int, 124),
        training_symbols=get("dmt", "training_symbols", int, 4),
        dmt_clipping_ratio_db=get("dmt", "clipping_ratio_db", optional(float), 10.0),
        tx_taps=get("pam", "tx_taps", int, 11),
        rx_taps=get("pam", "rx_taps", int, 41),
        mlse_memory=get("pam", "mlse_memory", optional(int), None),
    )
    if cfg.mlse_memory is None and cfg.format == "pr_pam4":
        cfg.mlse_memory = 1
    if cfg.mlse_memory == 0:
        cfg.mlse_memory = None

    if cfg.preset not in CHANNEL_PRESETS:
        hint = difflib.get_close_matches(cfg.preset, CHANNEL_PRESETS, n=1)
        suffix = f"; did you mean {hint[0]!r}?" if hint else ""
        errors.append(f"channel.preset: unknown preset {cfg.preset!r}{suffix}")
    if cfg.fft_length < 4 or cfg.fft_length & (cfg.fft_length - 1):
        errors.append(f"dmt.fft_length: not a power of two ({cfg.fft_length})")
    if cfg.blocks < 1:
        errors.append("experiment.blocks: must be >= 1")
    for name, value in (("tx_taps", cfg.tx_taps), ("rx_taps", cfg.rx_taps)):
        if value < 1 or value % 2 == 0:
            errors.append(f"pam.{name}: FFE lengths must be odd and >= 1")

    if parser.has_section("sweep"):
        cfg.sweep_parameter = get("sweep", "parameter", str, None)
        cfg.sweep_values = get(
            "sweep", "values", lambda raw: tuple(_parse_number(v) for v in raw.split(",")), ()
        )
        cfg.sweep_parameter2 = get("sweep", "parameter2", str, None)
        cfg.sweep_values2 = get(
            "sweep", "values2", lambda raw: tuple(_parse_number(v) for v in raw.split(",")), ()
        )
        cfg.blocks = get("sweep", "blocks", int, cfg.blocks)
        for label, param in (("parameter", cfg.sweep_parameter), ("parameter2", cfg.sweep_parameter2)):
            if param is None:
                continue
            if param not in SWEEP_PARAMETERS:
                errors.append(
                    f"sweep.{label}: unknown parameter {param!r} "
                    f"(known: {', '.join(sorted(SWEEP_PARAMETERS))})"
                )
            elif parser.has_option(*param.split(".", 1)):
                errors.append(
                    f"sweep.{label}: {param} is swept here but also fixed at "
                    f"{param}; remove one of the two"
                )
        if cfg.sweep_parameter and not cfg.sweep_values:
            errors.append("sweep.values: at least one value required")
        if cfg.sweep_parameter2 and not cfg.sweep_values2:
            errors.append("sweep.values2: at least one value required")

    if errors:
        raise ConfigError(errors)
    return cfg


# ---------------------------------------------------------------------------
# experiment construction and execution
# ---------------------------------------------------------------------------

def build_experiment(cfg: ExperimentConfig):
    channel = make_channel(cfg.preset, voa_db=cfg.voa_db, seed=cfg.seed, snr_db=cfg.snr_db)
    if cfg.format == "dmt":
        dmt_cfg = DmtConfig.for_fft_length(
            cfg.fft_length,
            cp_fraction=cfg.cp_fraction,
            data_symbols_per_frame=cfg.data_symbols,
            training_symbols=cfg.training_symbols,
            clipping_ratio_db=cfg.dmt_clipping_ratio_db,
            target_bit_rate=cfg.bit_rate,
        )
        return DmtExperiment(cfg=dmt_cfg, channel=channel, frames=cfg.frames)
    partial = cfg.format == "pr_pam4"
    symbol_rate = cfg.bit_rate / 2.0
    tx = PamTxConfig(symbol_rate=symbol_rate, partial_response=partial)
    rx = PamRxConfig(
        symbol_rate=symbol_rate,
        n_ffe_taps=cfg.rx_taps,
        mlse_memory=cfg.mlse_memory,
        partial_response=partial,
    )
    return PamExperiment(
        tx=tx, rx=rx, channel=channel, payload_order=cfg.payload_order,
        tx_preemphasis_taps=cfg.tx_taps,
    )


def _sweep_spec(cfg: ExperimentConfig, experiment):
    if cfg.sweep_parameter is None:
        spec = SweepSpec(parameter="channel.budget.voa_db", values=(cfg.voa_db,),
                         blocks=cfg.blocks, base_seed=cfg.seed)
        return spec, [cfg.voa_db], ["voa_db"]

    def resolve(param, values):
        target = SWEEP_PARAMETERS[param]
        if param == "dmt.fft_length":
            configs = tuple(
                DmtConfig.for_fft_length(
                    int(n),
                    cp_fraction=cfg.cp_fraction,
                    data_symbols_per_frame=cfg.data_symbols,
                    training_symbols=cfg.training_symbols,
                    clipping_ratio_db=cfg.dmt_clipping_ratio_db,
                    target_bit_rate=cfg.bit_rate,
                )
                for n in values
            )
            return "cfg", configs
        if param == "pam.mlse_memory":
            return target, tuple(None if v == 0 else int(v) for v in values)
        return target, values

    p1, v1 = resolve(cfg.sweep_parameter, cfg.sweep_values)
    if cfg.sweep_parameter2 is None:
        spec = SweepSpec(parameter=p1, values=v1, blocks=cfg.blocks, base_seed=cfg.seed)
        return spec, list(cfg.sweep_values), [cfg.sweep_parameter]
    p2, v2 = resolve(cfg.sweep_parameter2, cfg.sweep_values2)
    grid = tuple((a, b) for a in v1 for b in v2)
    display = [
        (da, db) for da in cfg.sweep_values for db in cfg.sweep_values2
    ]
    spec = SweepSpec(parameter=(p1, p2), values=grid, blocks=cfg.blocks, base_seed=cfg.seed)
    return spec, display, [cfg.sweep_parameter, cfg.sweep_parameter2]


def _latency_for(cfg: ExperimentConfig):
    distance = make_channel(cfg.preset).budget.fiber_km
    if cfg.format == "dmt":
        return latency_budget("dmt", distance, fft_length=cfg.fft_length,
                              cp_fraction=cfg.cp_fraction)
    return latency_budget(cfg.format, distance, tx_taps=cfg.tx_taps,
                          rx_taps=cfg.rx_taps, mlse_memory=cfg.mlse_memory)


def run(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> int:
    """Execute the configured experiment; writes artifacts into out_dir.

    Returns the process exit code: 0 on success (threshold misses are
    measurements, not errors), 2 when any sweep point failed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    experiment = build_experiment(cfg)
    spec, display_values, names = _sweep_spec(cfg, experiment)
    result = run_sweep(experiment, spec, jobs=jobs)

    if isinstance(spec.parameter, tuple):
        shown = SweepResult(
            replace(spec, parameter=(names[0], names[1]), values=tuple(display_values)),
            tuple(
                SweepPoint(tuple(dv) if isinstance(dv, tuple) else (dv,), p.report, p.error)
                for dv, p in zip(display_values, result.points)
            ),
        )
        sweep_to_csv(shown, out / "sweep_grid.csv")
        csv_written = "sweep_grid.csv"
    else:
        _write_ber_vs_rop(cfg, names[0], display_values, result, out / "ber_vs_rop.csv")
        csv_written = "ber_vs_rop.csv"

    if cfg.format == "dmt":
        try:
            experiment.loading().to_csv(out / "loading_table.csv")
        except (LoadingError, SyncError) as exc:
            print(f"note: no loading_table.csv ({type(exc).__name__}: {exc})", file=sys.stderr)
    else:
        from .adaptive import FfeTaps

        taps = experiment.resolve_tx().pre_emphasis_taps
        if taps is not None:
            FfeTaps(np.asarray(taps), 0.0).to_csv(out / "taps.csv")

    budget = _latency_for(cfg)
    (out / "latency.txt").write_text(budget.summary() + "\n")
    _write_summary(cfg, names, display_values, result, budget, out / "summary.txt")

    failed = [p for p in result.points if p.report is None]
    if failed:
        for point in failed:
            print(f"point {point.values}: {point.error}", file=sys.stderr)
        return 2
    return 0


def _rop_for(cfg: ExperimentConfig, param_name: str, value) -> float:
    voa = value if param_name == "channel.voa_db" else cfg.voa_db
    return make_channel(cfg.preset, voa_db=float(voa)).budget.rop_dbm


def _write_ber_vs_rop(cfg, param_name, values, result, path) -> None:
    header = f"{param_name.replace('.', '_')},rop_dbm,bit_errors,bits_total,ber,kp4_pass,cibch_pass,wilson_low,wilson_high,error\n"
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for value, point in zip(values, result.points):
            rop = _rop_for(cfg, param_name, value)
            cells = [_fmt(value), f"{rop:.6g}"]
            if point.report is not None:
                r = point.report
                cells += [str(r.bit_errors), str(r.bits_total), f"{r.ber:.6e}",
                          str(int(r.threshold_results["kp4"])),
                          str(int(r.threshold_results["cibch"])),
                          f"{r.confidence[0]:.6e}", f"{r.confidence[1]:.6e}", ""]
            else:
                cells += ["", "", "", "", "", "", "", point.error or "failed"]
            fh.write(",".join(cells) + "\n")


def _write_summary(cfg, names, values, result, budget, path) -> None:
    lines = [
        f"format: {cfg.format}",
        f"bit rate: {cfg.bit_rate / 1e9:g} Gb/s",
        f"channel preset: {cfg.preset} (voa {cfg.voa_db:g} dB)",
        f"blocks per point: {result.spec.blocks}, base seed {result.spec.base_seed}",
        "",
        "points:",
    ]
    for value, point in zip(values, result.points):
        label = ", ".join(f"{n}={v}" for n, v in zip(names, value if isinstance(value, tuple) else (value,)))
        if point.report is None:
            lines.append(f"  {label}: FAILED ({point.error})")
            continue
        r = point.report
        verdicts = " ".join(
            f"{name}:{'pass' if ok else 'fail'}" for name, ok in sorted(r.threshold_results.items())
        )
        if names[0] == "channel.voa_db" or cfg.sweep_parameter is None:
            rop = _rop_for(cfg, "channel.voa_db", value if not isinstance(value, tuple) else value[0])
            label += f" (rop {rop:+.2f} dBm)"
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
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.preset is not None:
            if args.preset not in CHANNEL_PRESETS:
                hint = difflib.get_close_matches(args.preset, CHANNEL_PRESETS, n=1)
                raise ConfigError(
                    [f"--preset: unknown preset {args.preset!r}"
                     + (f"; did you mean {hint[0]!r}?" if hint else "")]
                )
            cfg.preset = args.preset
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    try:
        return run(cfg, args.out, jobs=args.jobs)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    except Exception as exc:  # pipeline failure
        print(f"pipeline error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
