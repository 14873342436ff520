#!/usr/bin/env python3
"""Layered benchmark of factorcast: one workload per process, closed loop.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {backtest,sweep,cli} --seed N --seconds S --trace {0,1}

One client on one thread runs jobs back to back. Every job gets its own
dataset, seeded from ``--seed`` and the job number, and every job's output is
compared with the independent reference in ``reference.py``; a job that
raises, exits non-zero or differs from the reference is failed.

``--trace 0`` times jobs for ``--seconds`` (and at least ``MIN_JOBS`` jobs) and
reports the end-to-end metrics. Their times are scaled to a machine of
reference speed by a fixed loop timed just before and after each job and
after each set-up probe (``reference_loop``); the wall-time readings are printed and kept
in the run record. ``--trace 1`` runs the first jobs of the same
seed with spans around every layer's public functions, alternating with as
many untraced jobs, and reports the per-layer metrics from the written spans;
its counts depend only on the seed. ``--perturb-reference`` flips one verdict
of every job's reference, so the run must report failed jobs.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are a readable table and the run
record (git SHA, Python, core count, seed, workload parameters).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("backtest", "sweep", "cli")
# p90 must have at least ten samples beyond it.
MIN_JOBS = 110
# A slow program still ends well inside the 180-second limit.
MAX_SECONDS = 150
SETUP_PROBES = 11
# Inputs built by one set-up probe: the first jobs of the run.
SETUP_JOBS = 16
TRACE_JOBS = {"backtest": 40, "sweep": 12, "cli": 30}
WARMUP_JOB = 999_999
# Scaled times are those of a machine on which ``reference_loop`` takes 1 ms.
REFERENCE_NS = 1_000_000


def job_seed(seed: int, job: int) -> int:
    """Dataset seed of one job; distinct for every (seed, job) pair."""
    return seed * 1_000_000 + job


def import_package():
    """Import the checkout's own ``factorcast`` and the benchmark modules that use it."""
    if not (SRC / "factorcast" / "__init__.py").is_file():
        raise SystemExit(f"error: no factorcast source under {SRC}")
    sys.path.insert(0, str(SRC))
    import factorcast
    import factorcast.cli  # noqa: F401  (part of the measured import)

    if Path(factorcast.__file__).resolve().parent != SRC / "factorcast":
        raise SystemExit(f"error: imported factorcast from {factorcast.__file__}, not {SRC}")
    import workloads

    return workloads


def reference_loop() -> float:
    """A fixed pure-Python loop that uses no ``factorcast`` code.

    On a shared machine the speed of a core drifts by up to about 1.8x over
    seconds to minutes, with nothing else running in the benchmark's own
    process. Timing this loop next to a measurement and dividing the
    measurement by it takes that drift out of the reported times, while a
    change to the program still moves them in full.
    """
    x, acc = 12345, 0.0
    values = []
    for _ in range(2500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        values.append(x / 2147483648.0)
    for i, v in enumerate(sorted(values)):
        if v < 0.5 or i % 7 == 0:
            acc += v * (i & 15)
    return acc


def reference_ns() -> int:
    start = perf_counter_ns()
    reference_loop()
    return perf_counter_ns() - start


def scaled(elapsed_ns: int, ref_ns: float) -> float:
    """``elapsed_ns`` as it would read on a machine of reference speed."""
    return elapsed_ns * REFERENCE_NS / ref_ns


def setup_probe(workload: str, seed: int) -> None:
    """Print the ns a fresh interpreter takes to import and build the first
    inputs, then the median ns of three reference loops run after it."""
    start = perf_counter_ns()
    workloads = import_package()
    wl = workloads.WORKLOADS[workload](OUT)
    for job in range(SETUP_JOBS):
        wl.build(job_seed(seed, job))
    print(perf_counter_ns() - start, statistics.median(reference_ns() for _ in range(3)))


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median scaled and wall set-up seconds over ``SETUP_PROBES`` fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples, wall = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        setup_ns, ref_ns = map(int, done.stdout.split()[-2:])
        samples.append(scaled(setup_ns, ref_ns) / 1e9)
        wall.append(setup_ns / 1e9)
    return statistics.median(samples), statistics.median(wall)


class Runner:
    """Runs jobs of one workload and keeps their wall and scaled times and verdicts."""

    def __init__(self, wl, seed: int, flip: bool, tracer=None):
        self.wl, self.seed, self.flip, self.tracer = wl, seed, flip, tracer
        self.times_ns: list[int] = []
        self.scaled_ns: list[float] = []
        self.year_evals = 0
        self.failed = 0

    def _root(self, name: str, job: int):
        return self.tracer.root(name, job) if self.tracer else contextlib.nullcontext()

    def job(self, job: int, record: bool = True) -> None:
        seed = job_seed(self.seed, job)
        with self._root("inputs", job):
            inp = self.wl.build(seed)
        expected = self.wl.expect(inp, self.flip)
        ref_before = reference_ns()
        ok = True
        with self._root("job", job):
            start = perf_counter_ns()
            try:
                out = self.wl.run(inp)
            except Exception as exc:  # a failed job is counted, not fatal
                print(f"job {job}: {type(exc).__name__}: {exc}", file=sys.stderr)
                ok = False
            elapsed = perf_counter_ns() - start
        # The speed is read on both sides, as it can change during a job.
        ref_ns = (ref_before + reference_ns()) / 2
        if ok:
            try:
                ok = self.wl.check(out, expected)
            except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
                print(f"job {job}: unreadable output: {exc!r}", file=sys.stderr)
                ok = False
        if record:
            self.times_ns.append(elapsed)
            self.scaled_ns.append(scaled(elapsed, ref_ns))
            self.year_evals += self.wl.year_evals(expected)
            self.failed += not ok

    @property
    def attempted(self) -> int:
        return len(self.times_ns)

    def p50_ms(self) -> float:
        return statistics.median(self.scaled_ns) / 1e6


def git(*cmd: str) -> str | None:
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *cmd], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_record(args, wl, **extra) -> dict:
    sha = git("rev-parse", "HEAD")
    return {
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "perturb_reference": args.perturb_reference,
        "params": wl.params(),
        **extra,
    }


def job_metrics(times: list, year_evals: int) -> dict:
    """Per-job latency and throughput from job times in ns."""
    ms = [t / 1e6 for t in times]
    return {
        "job_p50_ms": (statistics.median(ms), "ms"),
        "job_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "year_evals_per_s": (year_evals / (sum(times) / 1e9), "1/s"),
    }


def timed(args, wl) -> tuple[dict, dict, int, int, list[int]]:
    """End-to-end metrics, their wall-time readings, attempted and failed jobs,
    and no broken spans."""
    setup_s, setup_wall_s = measure_setup(args.workload, args.seed)
    runner = Runner(wl, args.seed, args.perturb_reference)
    runner.job(WARMUP_JOB, record=False)
    start = perf_counter_ns()
    job = 0
    while True:
        runner.job(job)
        job += 1
        elapsed = (perf_counter_ns() - start) / 1e9
        if (elapsed >= args.seconds and job >= MIN_JOBS) or elapsed >= MAX_SECONDS:
            break
    metrics = {
        "setup_s": (setup_s, "s"),
        **job_metrics(runner.scaled_ns, runner.year_evals),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = {"setup_s": (setup_wall_s, "s"), **job_metrics(runner.times_ns, runner.year_evals)}
    return metrics, wall, runner.attempted, runner.failed, []


def traced(args, wl) -> tuple[dict, dict, int, int, list[int]]:
    """Per-layer metrics, no wall-time readings, attempted and failed jobs, and
    spans that are not well nested."""
    import tracer as tracing

    n = TRACE_JOBS[args.workload]
    tracer = tracing.Tracer()
    plain = Runner(wl, args.seed, args.perturb_reference)
    runner = Runner(wl, args.seed, args.perturb_reference, tracer)
    plain.job(WARMUP_JOB, record=False)
    # Untraced and traced jobs alternate, so a drift in machine speed during
    # the run reaches both sides of trace.overhead_frac alike.
    for job in range(n):
        plain.job(n + job)
        tracer.install()
        runner.job(job)
        tracer.uninstall()
    path = OUT / f"spans-{args.workload}.jsonl"
    tracer.dump(path)
    metrics, broken = tracing.per_layer(path)
    metrics["trace.overhead_frac"] = (runner.p50_ms() / plain.p50_ms() - 1, "ratio")
    attempted = plain.attempted + runner.attempted
    return metrics, {}, attempted, plain.failed + runner.failed, broken


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-reference", action="store_true",
                        help="flip one verdict of every job's reference (checks the checker)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workloads = import_package()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](workdir)
        measure = traced if args.trace else timed
        metrics, wall, attempted, failed, broken = measure(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = failed / attempted
    print(f"workload {args.workload}  seed {args.seed}  jobs {attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for name, (value, unit) in wall.items():
        print(f"  {'wall ' + name:<40} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<40} {failed_frac:>14.6g} ratio")
    if broken:
        print(f"  {len(broken)} spans are not well nested in their parents")
    record = run_record(args, wl, jobs=attempted, failed_frac=failed_frac,
                        run_seconds=args.seconds,
                        wall={name: value for name, (value, _) in wall.items()})
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0 and not broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
