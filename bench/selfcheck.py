#!/usr/bin/env python3
"""Check the benchmark itself: its checker, and the determinism of its counts.

Usage, from the root of a checkout::

    python3 bench/selfcheck.py

For each workload, with seed 1 and a second seed 2, it verifies that

- a run with a perturbed reference (one flipped verdict per job) reports failed jobs;
- two traced runs with the same seed give identical per-layer counts, and
  report no failed job;
- a traced run with a second seed reports no failed job.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
# Per-layer metrics that are times, so are expected to differ between runs.
TIMED_UNITS = {"ms"}
WORKLOADS = ("backtest", "sweep", "cli")
SEED = 1
OTHER_SEED = 2


def run(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] not in TIMED_UNITS and name != "trace.overhead_frac"
    }


def main() -> int:
    ok = True

    def report(passed: bool, what: str) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {what}", flush=True)

    for workload in WORKLOADS:
        perturbed = run(workload, SEED, "--perturb-reference")
        report(perturbed["failed"] > 0 and not perturbed["correct"],
               f"{workload}: perturbed reference fails {perturbed['failed']}"
               f" of {perturbed['attempted']} jobs")
        first = run(workload, SEED, "--trace", "1")
        second = run(workload, SEED, "--trace", "1")
        differing = sorted(k for k, v in counts(first).items() if counts(second)[k] != v)
        report(not differing, f"{workload}: {len(counts(first))} counts repeat for seed"
               f" {SEED}" + (f" (differ: {', '.join(differing)})" if differing else ""))
        other = run(workload, OTHER_SEED, "--trace", "1")
        for seed, result in ((SEED, first), (SEED, second), (OTHER_SEED, other)):
            report(result["correct"] and result["failed"] == 0,
                   f"{workload}: traced run with seed {seed} correct, {result['failed']} of"
                   f" {result['attempted']} jobs failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
