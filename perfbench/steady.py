"""Steadiness mode: repeated runs of every workload, one seed per round.

    python3 perfbench/steady.py --rounds 10

Round r runs the workloads in listed order when r is even and in reverse
order when r is odd, each with seed `--first-seed + r`, and prints every
end-to-end metric with its unit.  With two or more rounds it then reports,
per workload and metric, the median, the quartiles and the spread
(interquartile distance over the median, `statistics.quantiles(n=4)`)
next to the bound BENCHMARK.json allows, and writes everything to
perfbench/out/steady.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)

    names = [w["name"] for w in bench["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for r in range(args.rounds):
        order = names if r % 2 == 0 else names[::-1]
        for name in order:
            seed = args.first_seed + r
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs[name].append(result)
            print(f"round {r} {name} seed {seed}: correct={result['correct']} "
                  f"failed_ratio={result['failed'] / result['attempted']:.6g} "
                  + " ".join(f"{k}={m['value']:.6g} {m['unit']}"
                             for k, m in result["metrics"].items()),
                  flush=True)
    if args.rounds < 2:
        return 0

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name, results in runs.items():
        summary[name] = {}
        for metric, bound in bounds.items():
            stats = spread([r["metrics"][metric]["value"] for r in results])
            stats["bound"] = bound
            summary[name][metric] = stats
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            print(f"{name:<11} {metric:<15} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {stats['spread']:.4f} bound {bound} {flag}")
        summary[name]["all_correct"] = all(r["correct"] for r in results)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"summary": summary, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
