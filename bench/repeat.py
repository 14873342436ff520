#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric across the runs.

Usage, from the root of a checkout::

    python3 bench/repeat.py --workloads backtest,sweep,cli --seeds 1-10 --seconds 40 [--trace 1]

For each workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) as a
share of the median, and the number of runs, then ``failed_frac`` over all
runs. The wall-time readings behind the scaled times are read from each
run's record. Runs go one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default="backtest,sweep,cli")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
            for name, value in record["wall"].items():
                unit = result["metrics"][name]["unit"]
                result["metrics"]["wall " + name] = {"value": value, "unit": unit}
            result["seed"] = seed
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}", flush=True)

    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:<40} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%}"
                  f"  {first['unit']}")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  {'failed_frac':<40} {failed / attempted:>12.6g}"
              f"  ratio ({failed} of {attempted} jobs over all runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
