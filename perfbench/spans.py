"""Span tracing around imddsim's module boundaries, from outside the library.

`install` replaces the attributes the pipeline calls through with timing
wrappers.  A name imported by value is wrapped at the importing module's
binding (e.g. `imddsim.dmt.fft_pow2`), a module-qualified call at the
defining module (e.g. `imddsim.adaptive.lms_equalize`, which `pam` calls as
`adaptive.lms_equalize`).  Spans stay in memory until `to_json`.

Self time is a span's duration minus the part of it its children cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    point: int | None = None
    block: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.point: int | None = None
        self.block: int | None = None
        self._blocks = 0

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "evaluate.run_point":
                self.point = signature.bind(*args, **kwargs).arguments["index"]
            elif name == "evaluate.run_block":
                self.block = self._blocks
                self._blocks += 1
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None,
                        point=self.point, block=self.block)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()

        return wrapper

    def to_json(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def spans_from_json(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]


# ---------------------------------------------------------------------------
# the boundaries
# ---------------------------------------------------------------------------

def _size(x) -> int:
    return int(getattr(x, "size", None) or len(x))


def _lms_counts(a) -> dict:
    updates = _size(a["reference"]) * max(a["train_passes"], 1)
    return {"symbol_updates": updates, "tap_updates": updates * a["n_taps"]}


# (module, attribute path, span name, counter)
BOUNDARIES = (
    ("imddsim.cli", "parse_config", "cli.parse_config", None),
    ("imddsim.cli", "run", "cli.run", None),
    ("imddsim.cli", "run_sweep", "evaluate.run_sweep", None),
    ("imddsim.evaluate", "run_point", "evaluate.run_point", None),
    ("imddsim.evaluate", "PamExperiment.run_block", "evaluate.run_block", None),
    ("imddsim.evaluate", "DmtExperiment.run_block", "evaluate.run_block", None),
    ("imddsim.evaluate", "PamExperiment.resolve_tx", "evaluate.resolve_tx", None),
    ("imddsim.evaluate", "count_ber", "evaluate.count_ber", None),
    ("imddsim.evaluate", "apply_channel", "link.apply_channel",
     lambda a: {"samples": _size(a["tx"])}),
    ("imddsim.evaluate", "train_preemphasis", "adaptive.train_preemphasis", None),
    ("imddsim.evaluate", "train_preemphasis_waveform", "adaptive.train_preemphasis", None),
    ("imddsim.evaluate", "raised_cosine_shape", "sigproc.raised_cosine_shape", None),
    ("imddsim.link", "apply_stages", "link.apply_stages", None),
    ("imddsim.sigproc", "raised_cosine_shape", "sigproc.raised_cosine_shape", None),
    ("imddsim.sigproc", "resample", "sigproc.resample", None),
    ("imddsim.sigproc", "fractional_delay", "sigproc.fractional_delay", None),
    ("imddsim.dmt", "fft_pow2", "sigproc.fft_pow2", lambda a: {"points": _size(a["x"])}),
    ("imddsim.adaptive", "lms_equalize", "adaptive.lms_equalize", _lms_counts),
    ("imddsim.adaptive", "mlse_detect", "adaptive.mlse_detect",
     lambda a: {"edges": _size(a["samples"]) * a["cfg"].n_states * 4}),
    ("imddsim.adaptive", "gardner_recover", "adaptive.gardner_recover", None),
    ("imddsim.pam", "pam_transmit", "pam.pam_transmit", None),
    ("imddsim.pam", "pam_receive", "pam.pam_receive", None),
    ("imddsim.dmt", "dmt_modulate", "dmt.dmt_modulate", None),
    ("imddsim.dmt", "dmt_demodulate", "dmt.dmt_demodulate", None),
    ("imddsim.dmt", "estimate_snr", "dmt.estimate_snr", None),
    ("imddsim.dmt", "chow_bit_loading", "dmt.chow_bit_loading", None),
    ("imddsim.dmt", "cioffi_power_loading", "dmt.cioffi_power_loading", None),
)


def install(tracer: Tracer):
    """Wrap every boundary; returns a function that restores the originals."""
    saved = []
    for module_name, path, name, counter in BOUNDARIES:
        *owner_path, attr = path.split(".")
        owner = importlib.import_module(module_name)
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, counter))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def _descendants(spans: list[Span]) -> dict[int, list[int]]:
    """Span index -> indices of every span nested under it."""
    out: dict[int, list[int]] = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        p = s.parent
        while p is not None:
            out[p].append(i)
            p = spans[p].parent
    return out


def block_self_time_gap(spans: list[Span], selfs: list[float]) -> float:
    """Largest |block duration - sum of self times in its subtree| (seconds)."""
    desc = _descendants(spans)
    gap = 0.0
    for i, s in enumerate(spans):
        if s.name == "evaluate.run_block":
            total = selfs[i] + sum(selfs[j] for j in desc[i])
            gap = max(gap, abs(total - s.duration))
    return gap


LAYER_METRICS = (
    # name, unit, better
    ("sigproc.fft_pow2_s", "s", "lower"),
    ("sigproc.fft_pow2_points", "count", "lower"),
    ("sigproc.resample_s", "s", "lower"),
    ("sigproc.fractional_delay_s", "s", "lower"),
    ("sigproc.raised_cosine_shape_s", "s", "lower"),
    ("link.apply_channel_s", "s", "lower"),
    ("link.apply_channel_samples", "count", "lower"),
    ("link.apply_stages_s", "s", "lower"),
    ("adaptive.lms_equalize_s", "s", "lower"),
    ("adaptive.lms_symbol_updates", "count", "lower"),
    ("adaptive.lms_ns_per_tap_update", "ns", "lower"),
    ("adaptive.mlse_detect_s", "s", "lower"),
    ("adaptive.mlse_trellis_edges", "count", "lower"),
    ("adaptive.gardner_recover_s", "s", "lower"),
    ("adaptive.train_preemphasis_s", "s", "lower"),
    ("pam.pam_transmit_s", "s", "lower"),
    ("pam.pam_receive_self_s", "s", "lower"),
    ("dmt.dmt_modulate_s", "s", "lower"),
    ("dmt.dmt_demodulate_s", "s", "lower"),
    ("dmt.frames", "count", "higher"),
    ("dmt.estimate_snr_s", "s", "lower"),
    ("dmt.chow_bit_loading_s", "s", "lower"),
    ("dmt.cioffi_power_loading_s", "s", "lower"),
    ("evaluate.run_block_s", "s", "lower"),
    ("evaluate.run_block_self_s", "s", "lower"),
    ("evaluate.count_ber_s", "s", "lower"),
    ("evaluate.blocks", "count", "higher"),
    ("evaluate.points", "count", "higher"),
    ("evaluate.preemph_cache_hit_ratio", "ratio", "higher"),
    ("evaluate.points_bit_identical", "count", "higher"),
    ("cli.parse_config_s", "s", "lower"),
    ("cli.artifacts_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def totals(spans: list[Span]):
    """Per span name: (total duration, total self time, calls, summed counts)."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for s, self_s in zip(spans, self_times(spans)):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + self_s
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, n in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + n
    return total, own, calls, counts


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced CLI run.

    Stage times are totals divided by the number of blocks; cli.* times are
    per invocation; counts are totals over the run.  The metrics that need
    the reference check or an untraced run (points_bit_identical,
    trace.overhead_s) are filled in by the caller.
    """
    total, own, calls, counts = totals(spans)
    blocks = calls.get("evaluate.run_block", 0)

    def per_block(name: str, table=total) -> float:
        return table.get(name, 0.0) / blocks if blocks else 0.0

    desc = _descendants(spans)
    resolves = [i for i, s in enumerate(spans) if s.name == "evaluate.resolve_tx"]
    hits = sum(
        not any(spans[j].name == "adaptive.train_preemphasis" for j in desc[i]) for i in resolves
    )
    tap_updates = counts.get("adaptive.lms_equalize.tap_updates", 0)
    return {
        "sigproc.fft_pow2_s": per_block("sigproc.fft_pow2"),
        "sigproc.fft_pow2_points": counts.get("sigproc.fft_pow2.points", 0),
        "sigproc.resample_s": per_block("sigproc.resample"),
        "sigproc.fractional_delay_s": per_block("sigproc.fractional_delay"),
        "sigproc.raised_cosine_shape_s": per_block("sigproc.raised_cosine_shape"),
        "link.apply_channel_s": per_block("link.apply_channel"),
        "link.apply_channel_samples": counts.get("link.apply_channel.samples", 0),
        "link.apply_stages_s": per_block("link.apply_stages"),
        "adaptive.lms_equalize_s": per_block("adaptive.lms_equalize"),
        "adaptive.lms_symbol_updates": counts.get("adaptive.lms_equalize.symbol_updates", 0),
        "adaptive.lms_ns_per_tap_update": (
            1e9 * total.get("adaptive.lms_equalize", 0.0) / tap_updates if tap_updates else 0.0
        ),
        "adaptive.mlse_detect_s": per_block("adaptive.mlse_detect"),
        "adaptive.mlse_trellis_edges": counts.get("adaptive.mlse_detect.edges", 0),
        "adaptive.gardner_recover_s": per_block("adaptive.gardner_recover"),
        "adaptive.train_preemphasis_s": per_block("adaptive.train_preemphasis"),
        "pam.pam_transmit_s": per_block("pam.pam_transmit"),
        "pam.pam_receive_self_s": per_block("pam.pam_receive", own),
        "dmt.dmt_modulate_s": per_block("dmt.dmt_modulate"),
        "dmt.dmt_demodulate_s": per_block("dmt.dmt_demodulate"),
        "dmt.frames": calls.get("dmt.dmt_demodulate", 0),
        "dmt.estimate_snr_s": per_block("dmt.estimate_snr"),
        "dmt.chow_bit_loading_s": per_block("dmt.chow_bit_loading"),
        "dmt.cioffi_power_loading_s": per_block("dmt.cioffi_power_loading"),
        "evaluate.run_block_s": per_block("evaluate.run_block"),
        "evaluate.run_block_self_s": per_block("evaluate.run_block", own),
        "evaluate.count_ber_s": per_block("evaluate.count_ber"),
        "evaluate.blocks": blocks,
        "evaluate.points": calls.get("evaluate.run_point", 0),
        "evaluate.preemph_cache_hit_ratio": hits / len(resolves) if resolves else 0.0,
        "cli.parse_config_s": total.get("cli.parse_config", 0.0),
        "cli.artifacts_s": total.get("cli.run", 0.0) - total.get("evaluate.run_sweep", 0.0),
    }
