"""One CLI-equivalent invocation in a fresh interpreter.

Started by run.py, never imported by it.  Untraced mode performs the
per-point set-up first (filling the library's caches, exactly the work the
first block of each point would do), then calls `cli.run`, so set-up and
block time are separated without touching the pipeline.  Traced mode
installs the span wrappers and calls `cli.run` cold, as a user would.

Prints one JSON object on its last stdout line.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="trace to this JSON file")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import imddsim
    from imddsim import cli

    if not Path(imddsim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported imddsim from {imddsim.__file__}, not from {SRC}")

    tracer = None
    if args.spans is not None:
        tracer = spans.Tracer()
        spans.install(tracer)

    cfg = cli.parse_config(args.config)
    sweep_field = workloads.POINT_FIELDS[cfg.sweep_parameter]
    t_a = time.monotonic()
    if tracer is None:
        # the set-up each point's first block would otherwise pay
        for value in cfg.sweep_values:
            point_cfg = replace(cfg, sweep_parameter=None, sweep_values=(),
                                **{sweep_field: value})
            experiment = cli.build_experiment(point_cfg)
            if cfg.format == "dmt":
                experiment.loading()
            else:
                experiment.resolve_tx()
    t_b = time.monotonic()
    result = {"setup_s": t_b - args.spawned_at}
    if not args.setup_only:
        rc = cli.run(cfg, args.out, jobs=1)
        t_c = time.monotonic()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            rc=rc,
            run_s=t_c - t_b,
            wall_s=t_c - t_a,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
    if tracer is not None:
        args.spans.write_text(json.dumps(tracer.to_json()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
