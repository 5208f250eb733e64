"""Steadiness of the perfbench end-to-end metrics across seeds.

Runs ``run.py`` once per seed on every chosen workload, alternating the
workload order between seeds, and prints per metric the median, the first
and third quartile (``statistics.quantiles(values, n=4)``) and the spread
``(Q3 − Q1) / median`` next to the metric's bound in ``BENCHMARK.json``.
From the repository root::

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workload admission-trace
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Run ``i`` (from 0) uses seed ``FIRST_SEED + i``.
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    chosen = args.workload or names
    bounds = {metric["name"]: metric.get("bound") for metric in config["end_to_end"]}

    results = {name: [] for name in chosen}
    for index in range(args.runs):
        order = chosen if index % 2 == 0 else list(reversed(chosen))
        for name in order:
            result = run_once(name, FIRST_SEED + index, config["run_seconds"])
            results[name].append(result)
            print(
                f"# {name} seed {FIRST_SEED + index}: "
                f"{result['attempted']} attempted, {result['failed']} failed",
                file=sys.stderr,
                flush=True,
            )

    worst = 0.0
    for name in chosen:
        runs = results[name]
        shares = sorted({run["failed"] / run["attempted"] for run in runs})
        print(f"== {name}: {len(runs)} runs, failed shares {shares}, "
              f"all correct: {all(run['correct'] for run in runs)}")
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(metric)
            if bound is not None:
                worst = max(worst, spread / bound)
            print(
                f"  {metric:34s} median {median:12.4f}  Q1 {q1:12.4f}  Q3 {q3:12.4f}  "
                f"spread {spread:7.4f}  bound {bound}"
            )
            print("    runs: " + " ".join(f"{value:.4g}" for value in values))
    print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
