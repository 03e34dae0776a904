"""Workload definitions, config generation and the reference check.

A workload is one committed-figure study re-expressed as an INI config.
The workload seed becomes the config's `seed`, so the same seed gives the
same noise realizations and the program sees nothing but the config file.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    format: str
    default_seed: int
    blocks: int
    sections: dict
    sweep_parameter: str
    sweep_values: tuple


# Block counts are sized so one run of each workload fits the benchmark's
# per-run budget on a 2-core machine; the default seeds are the committed
# configs' seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nyquist_mc",
            why="Nyquist PAM4, fig16 VOA points, 2 blocks per point: "
            "the per-sample LMS loop dominates; MLSE and DMT are bypassed",
            format="nyquist_pam4",
            default_seed=16,
            blocks=2,
            sections={
                "channel": {"preset": "paper_10km"},
                "pam": {"tx_taps": 11, "rx_taps": 41, "mlse_memory": "none"},
            },
            sweep_parameter="channel.voa_db",
            sweep_values=(2.8, 3.8, 4.8),
        ),
        Workload(
            name="pr_mlse",
            why="PR PAM4 MLSE memory 1/2/3 (fig15a), one block per point: "
            "Viterbi work and B=1 receiver cost show, PR pre-emphasis in set-up",
            format="pr_pam4",
            default_seed=15,
            blocks=1,
            sections={
                "channel": {"preset": "paper_b2b", "voa_db": 2},
                "pam": {"tx_taps": 11, "rx_taps": 21},
            },
            sweep_parameter="pam.mlse_memory",
            sweep_values=(1, 2, 3),
        ),
        Workload(
            name="dmt_fft",
            why="DMT FFT length 256..2048 (fig10b), 4 blocks per point: "
            "radix-2 FFT, 1-tap loop, demap and loading; no LMS/Gardner/MLSE",
            format="dmt",
            default_seed=10,
            blocks=4,
            sections={
                "channel": {"preset": "paper_10km", "voa_db": 2.8},
                "dmt": {
                    "cp_fraction": "1/64",
                    "data_symbols": 124,
                    "training_symbols": 4,
                    "clipping_ratio_db": 10,
                    "frames": 2,
                },
            },
            sweep_parameter="dmt.fft_length",
            sweep_values=(256, 512, 1024, 2048),
        ),
    )
}

# sweep parameter -> ExperimentConfig field, for building one config per point
POINT_FIELDS = {
    "channel.voa_db": "voa_db",
    "pam.mlse_memory": "mlse_memory",
    "dmt.fft_length": "fft_length",
}


def config_text(workload: Workload, seed: int) -> str:
    """INI config for one workload run; the seed is the only variable."""
    lines = [
        "[experiment]",
        f"format = {workload.format}",
        "bit_rate = 112e9",
        f"seed = {int(seed)}",
        f"blocks = {workload.blocks}",
    ]
    for section, keys in workload.sections.items():
        lines += ["", f"[{section}]"] + [f"{k} = {v}" for k, v in keys.items()]
    lines += [
        "",
        "[sweep]",
        f"parameter = {workload.sweep_parameter}",
        "values = " + ", ".join(str(v) for v in workload.sweep_values),
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# outputs and the reference check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointResult:
    value: str
    bit_errors: int | None
    bits_total: int | None
    error: str


def read_points(csv_path) -> list[PointResult]:
    """Rows of the CLI's ber_vs_rop.csv (first column is the swept value)."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    out = []
    for row in body:
        errors, total = row[col["bit_errors"]], row[col["bits_total"]]
        out.append(
            PointResult(
                value=row[0],
                bit_errors=int(errors) if errors else None,
                bits_total=int(total) if total else None,
                error=row[col["error"]],
            )
        )
    return out


def within_three_sigma(k: int, k_ref: int, dispersion: float = 1.0) -> bool:
    """Parity rule for Monte-Carlo error counts:
    |k - k_ref| <= 3 sqrt(dispersion * (k + k_ref)).

    With dispersion 1 this is the plain 3-sigma rule for Poisson counts.
    Bit errors behind an MLSE come in multi-bit error events, and
    decision-directed equalization at high BER correlates them too, so
    their counts spread wider than Poisson; `dispersion` (see
    `dispersion_factor`) widens the band by the measured amount.
    """
    return abs(k - k_ref) <= 3.0 * math.sqrt(dispersion * (k + k_ref))


def dispersion_factor(counts: list[int], references: list[int]) -> float:
    """max(1, 2 * mean((k - k_ref)^2 / (k + k_ref))) over calibration counts.

    `counts[i]` is a count measured at a calibration seed on the point
    whose reference count is `references[i]`.  For Poisson counts and a
    reference near their mean each term averages 1/2, so the factor is 1
    and the parity rule is unchanged.
    """
    terms = [(k - r) ** 2 / (k + r) if k + r else 0.0 for k, r in zip(counts, references)]
    return max(1.0, 2.0 * sum(terms) / len(terms))


def point_failure(point: PointResult, ref: dict, dispersion: float) -> str | None:
    """Why a point fails the reference check, or None when it passes."""
    if point.error or point.bits_total is None:
        return f"error cell: {point.error or 'empty'}"
    if point.bits_total != ref["bits_total"]:
        return f"bits_total {point.bits_total} != reference {ref['bits_total']}"
    if not within_three_sigma(point.bit_errors, ref["bit_errors"], dispersion):
        return (f"bit_errors {point.bit_errors} outside 3 sigma of reference "
                f"{ref['bit_errors']} (dispersion {dispersion})")
    return None


def load_reference(name: str) -> dict:
    """{"seed", "calibration_seeds", "dispersion", "points": [...]}."""
    return json.loads(REFERENCE_PATH.read_text())[name]


def check_points(points: list[PointResult], reference: dict) -> tuple[list[str], int]:
    """(failure messages, points whose error counts equal the reference)."""
    failures = []
    identical = 0
    refs = reference["points"]
    for point, ref in itertools.zip_longest(points, refs):
        if point is None or ref is None:
            failures.append(f"point count {len(points)} != reference {len(refs)}")
            continue
        why = point_failure(point, ref, reference["dispersion"])
        if why is not None:
            failures.append(f"point {point.value}: {why}")
        elif point.bit_errors == ref["bit_errors"]:
            identical += 1
    return failures, identical
