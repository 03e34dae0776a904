"""imddsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload nyquist_mc --seed 16 --seconds 30 --trace 0

Writes the workload's INI config from the seed and drives the library
from outside, as the CLI does: every invocation runs in a fresh
interpreter (`child.py`), calls `cli.parse_config` and `cli.run` with
jobs=1, and the CSV it writes is read back and checked against the stored
reference.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a separate traced invocation.  The last stdout line
is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
CALIBRATION_SEEDS = range(1, 42)
CHILD_TIMEOUT_S = 150
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("sim_bits_per_s", "bit/s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: THREADS for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


class Runner:
    """Spawns child invocations of one workload config."""

    def __init__(self, workload: workloads.Workload, seed: int, reference: dict):
        self.workload = workload
        self.work = OUT / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "workload.cfg"
        self.config.write_text(workloads.config_text(workload, seed))
        self.reference = reference
        self.results: list[dict] = []

    def spawn(self, setup_only=False, traced=False) -> dict:
        out = self.work / f"child{len(self.results)}"
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(self.config), "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            cmd += ["--spans", str(out / "spans.json")]
            out.mkdir(parents=True, exist_ok=True)
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not setup_only:
            points = workloads.read_points(out / "ber_vs_rop.csv")
            result["points"] = [vars(p) for p in points]
            result["bits_total"] = sum(p.bits_total or 0 for p in points)
            result["failures"], result["identical"] = workloads.check_points(
                points, self.reference)
            if traced:
                result["spans"] = spans.spans_from_json(
                    json.loads((out / "spans.json").read_text()))
        self.results.append(result)
        return result


def end_to_end(runner: Runner, seconds: float) -> dict:
    start = time.monotonic()
    setups = [runner.spawn(setup_only=True)["setup_s"] for _ in range(SETUP_REPEATS)]
    full = []
    while True:
        t = time.monotonic()
        full.append(runner.spawn())
        last = time.monotonic() - t
        if time.monotonic() - start + last > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in full]),
        "sim_bits_per_s": statistics.median(r["bits_total"] / r["run_s"] for r in full),
        "wall_s": statistics.median(r["wall_s"] for r in full),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
    }
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}


def per_layer(runner: Runner) -> tuple[dict, list[str]]:
    plain = runner.spawn()
    traced = runner.spawn(traced=True)
    trace = traced.pop("spans")
    values = spans.layer_metrics(trace)
    _, own, calls, _ = spans.totals(trace)
    blocks = calls.get("evaluate.run_block", 1)
    print("self time per block, largest first:")
    for name, self_s in sorted(own.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {name:<34} {self_s / blocks:>12.6g} s")
    values["evaluate.points_bit_identical"] = traced["identical"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    problems = []
    gap = spans.block_self_time_gap(trace, spans.self_times(trace))
    if gap > 1e-6:
        problems.append(f"block self times miss the block duration by {gap:.3g} s")
    units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    return {k: {"value": values[k], "unit": units[k]} for k in units}, problems


def record_reference(name: str) -> int:
    """Store the default seed's per-point counts as the workload's reference,
    with the dispersion factor measured on the calibration seeds."""
    workload = workloads.WORKLOADS[name]
    empty = {"points": [], "dispersion": 1.0}
    reference = Runner(workload, workload.default_seed, empty).spawn()["points"]
    seeds = [s for s in CALIBRATION_SEEDS if s != workload.default_seed]
    counts = [[] for _ in reference]
    for seed in seeds:
        points = Runner(workload, seed, empty).spawn()["points"]
        print(f"seed {seed}: " + " ".join(str(p["bit_errors"]) for p in points), flush=True)
        for column, point in zip(counts, points):
            column.append(point["bit_errors"])
    dispersion = workloads.dispersion_factor(
        [k for column in counts for k in column],
        [ref["bit_errors"] for ref, column in zip(reference, counts) for _ in column],
    )
    table = json.loads(workloads.REFERENCE_PATH.read_text()) if workloads.REFERENCE_PATH.exists() else {}
    table[name] = {
        "seed": workload.default_seed,
        "calibration_seeds": seeds,
        "dispersion": round(dispersion, 3),
        "points": [
            {k: ref[k] for k in ("value", "bits_total", "bit_errors")}
            | {"calibration_bit_errors": column}
            for ref, column in zip(reference, counts)
        ],
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    print(json.dumps(table[name]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run the default seed once and store its counts as the reference")
    args = parser.parse_args(argv)

    if not (SRC / "imddsim" / "__init__.py").is_file():
        print(f"error: no imddsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args.workload)

    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    env = environment()
    runner = Runner(workload, seed, workloads.load_reference(workload.name))
    if args.trace:
        metrics, problems = per_layer(runner)
    else:
        metrics, problems = end_to_end(runner, args.seconds), []
    children = [c for c in runner.results if "points" in c]
    failures = problems + [f for c in children for f in c["failures"]]
    attempted = sum(len(c["points"]) for c in children)
    failed = sum(len(c["failures"]) for c in children)

    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_ratio':<36} {failed / attempted:>16.6g} ratio  ({failed}/{attempted} points)")
    for line in failures:
        print(f"FAIL {line}")
    print("env " + json.dumps(env, sort_keys=True))
    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "metrics": metrics, "failures": failures,
        "children": runner.results,
    }
    (OUT / f"{args.workload}_seed{seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
