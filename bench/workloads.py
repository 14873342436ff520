"""The benchmark's workloads: seeded inputs, one job each, and the result check.

Each workload turns a job seed into its own input (no two jobs of a run share
one, so a cross-call result cache cannot show a gain), runs one job on it by
calling the package's public functions through their modules, and compares
the job's output with the independent reference in ``reference.py``. Calls go
through module attributes (``fc_backtest.rolling_backtest``) so that the
traced run's wrappers, installed on those modules, see them.

- ``backtest``: one configuration on a long series. The per-origin prefix
  rebuild (matrix construction and validation plus the envelope build)
  dominates; sweeps, parsing and rendering do no work.
- ``sweep``: many configurations on one short series, so the repeated
  backtest at every grid point dominates.
- ``cli``: an in-process ``synth`` / ``fit`` / ``classify`` / ``backtest``
  chain on a long file. CSV writing and parsing, profile JSON and report
  rendering matter; the envelope kernel does O(n F) in-sample work once.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import factorcast.backtest as fc_backtest
import factorcast.cli as fc_cli
import factorcast.matrix as fc_matrix
import factorcast.sweeps as fc_sweeps
import factorcast.synth as fc_synth
from factorcast.backtest import BacktestConfig
from factorcast.matrix import CriticalThreshold, FactorSelection
from factorcast.recognizer import QuorumRule
from factorcast.sweeps import SweepSpec
from factorcast.synth import PlantSpec

import reference

QUORUM = 0.75
MIN_TRAIN_YEARS = 5
MIN_TRAIN_CRITICAL = 2
# PlantSpec draws critical incidence from [10, 20) and the rest from [0, 9),
# so this expert line labels exactly the planted critical years.
THRESHOLD = 10.0


def plain(m) -> dict:
    """The matrix as plain lists, the form the reference reads."""
    return {
        "years": list(m.years),
        "incidence": list(m.incidence),
        "names": list(m.factor_names),
        "cols": [list(m.columns[name]) for name in m.factor_names],
    }


def verdict_tuples(result) -> list[tuple]:
    return [(v.year, v.prediction, v.membership, v.truth) for v in result.verdicts]


def _same_tally(result, expected: dict) -> bool:
    return (
        result.x == expected["x"]
        and result.y == expected["y"]
        and result.p == expected["p"]
        and result.n_no_forecast == expected["n_no_forecast"]
    )


class Workload:
    """One kind of job; ``workdir`` is a temporary directory the benchmark owns."""

    name = ""
    cfg = {
        "threshold": THRESHOLD,
        "q": QUORUM,
        "min_train_years": MIN_TRAIN_YEARS,
        "min_train_critical": MIN_TRAIN_CRITICAL,
    }

    def __init__(self, workdir: Path):
        self.workdir = workdir


class BacktestWorkload(Workload):
    name = "backtest"
    spec = {"n_years": 140, "n_factors": 12, "noise_prob": 0.1, "n_adversarial": 2}
    modes = ("rolling", "leave_one_out")

    def params(self) -> dict:
        n = self.spec["n_years"]
        return {
            **self.spec,
            **self.cfg,
            "modes": list(self.modes),
            "year_evals_per_job": (n - MIN_TRAIN_YEARS) + n,
        }

    def build(self, job_seed: int):
        m, _ = fc_synth.generate(PlantSpec(seed=job_seed, **self.spec))
        threshold = CriticalThreshold(THRESHOLD, "expert")
        labels = fc_matrix.label_critical(m, threshold)
        configs = tuple(
            BacktestConfig(
                QuorumRule(QUORUM), threshold, MIN_TRAIN_YEARS, MIN_TRAIN_CRITICAL, mode
            )
            for mode in self.modes
        )
        return m, labels, FactorSelection.all_of(m), configs

    def run(self, inp):
        m, labels, selection, configs = inp
        return [fc_backtest.rolling_backtest(m, labels, selection, cfg) for cfg in configs]

    def expect(self, inp, flip: bool) -> dict:
        return reference.backtest_job(plain(inp[0]), self.cfg, flip)

    def check(self, out, expected: dict) -> bool:
        return all(
            verdict_tuples(result) == expected[mode]["verdicts"]
            and _same_tally(result, expected[mode])
            for result, mode in zip(out, self.modes)
        )

    def year_evals(self, expected: dict) -> int:
        return sum(len(expected[mode]["verdicts"]) for mode in self.modes)


class SweepWorkload(Workload):
    name = "sweep"
    spec = {"n_years": 40, "n_factors": 5, "noise_prob": 0.1, "n_adversarial": 1}
    # 25.0 lies above every planted incidence (all < 20), so that threshold
    # row is always skipped; 48 exceeds the 40-year series, so that window is.
    grids = {
        "quorum": (0.2, 0.4, 0.5, 0.6, 0.75, 0.8, 1.0),
        "threshold": (2.0, 5.0, 9.5, 10.0, 25.0),
        "lag": (0, 1, 2, 3),
        "row_length": (25, 32, 40, 48),
    }
    axes = ("factor_subset", "quorum", "threshold", "lag", "row_length")

    def params(self) -> dict:
        n, f = self.spec["n_years"], self.spec["n_factors"]
        per_backtest = n - MIN_TRAIN_YEARS
        evals = (
            ((1 << f) - 1) * per_backtest
            + len(self.grids["quorum"]) * per_backtest
            + 4 * per_backtest
            + sum(per_backtest - lag for lag in self.grids["lag"])
            + sum(k - MIN_TRAIN_YEARS for k in self.grids["row_length"] if k <= n)
        )
        return {
            **self.spec,
            **self.cfg,
            "mode": "rolling",
            "factor_subset_grid": f"all {(1 << f) - 1} subsets",
            **{f"{axis}_grid": list(grid) for axis, grid in self.grids.items()},
            "year_evals_per_job": evals,
        }

    def build(self, job_seed: int):
        m, _ = fc_synth.generate(PlantSpec(seed=job_seed, **self.spec))
        threshold = CriticalThreshold(THRESHOLD, "expert")
        labels = fc_matrix.label_critical(m, threshold)
        selection = FactorSelection.all_of(m)
        cfg = BacktestConfig(QuorumRule(QUORUM), threshold, MIN_TRAIN_YEARS, MIN_TRAIN_CRITICAL)
        specs = tuple(
            SweepSpec(axis, selection, cfg, self.grids.get(axis)) for axis in self.axes
        )
        return m, labels, specs

    def run(self, inp):
        m, labels, specs = inp
        return [
            fc_sweeps.run_sweep(m, None if spec.axis == "threshold" else labels, spec)
            for spec in specs
        ]

    def expect(self, inp, flip: bool) -> dict:
        return reference.sweep_job(plain(inp[0]), self.cfg, self.grids, flip)

    def check(self, out, expected: dict) -> bool:
        for report, axis in zip(out, self.axes):
            rows = [
                (r.configuration, r.status, r.x, r.y, r.p, r.n_no_forecast, r.note)
                for r in report.rows
            ]
            if report.axis != axis or rows != expected["rows"][axis]:
                return False
        return True

    def year_evals(self, expected: dict) -> int:
        return expected["year_evals"]


def text_tables(text: str) -> dict[str, list[list[str]]]:
    """Rows of every table in a text report, keyed by table title."""
    tables = {}
    for block in text.split("\n\n")[1:]:
        lines = block.rstrip("\n").split("\n")
        tables[lines[0]] = [line.split() for line in lines[3:]]
    return tables


def _cell(v) -> str:
    if v is None:
        return "undefined"
    if isinstance(v, bool):
        return "yes" if v else "no"
    return repr(v) if isinstance(v, float) else str(v)


class CliWorkload(Workload):
    name = "cli"
    spec = {"n_years": 600, "n_factors": 16, "noise_prob": 0.1, "n_adversarial": 2}
    min_critical = 2

    def __init__(self, workdir: Path):
        super().__init__(workdir)
        self.data = str(workdir / "data.csv")
        self.truth = str(workdir / "data_truth.csv")
        self.profile = str(workdir / "profile.json")

    def params(self) -> dict:
        return {
            **self.spec,
            "chain": [
                "synth",
                "fit --select-threshold --format json --save-profile",
                "classify --profile (text)",
                "backtest --mode in_sample --select-threshold (text)",
            ],
            "quorum": QUORUM,
            "min_critical": self.min_critical,
            "year_evals_per_job": 4 * self.spec["n_years"],
        }

    def build(self, job_seed: int):
        s = self.spec
        synth = [
            "synth", "--seed", str(job_seed), "--years", str(s["n_years"]),
            "--factors", str(s["n_factors"]), "--noise", str(s["noise_prob"]),
            "--adversarial", str(s["n_adversarial"]),
            "--output", self.data, "--truth-output", self.truth,
        ]
        fit = [
            "fit", "--input", self.data, "--select-threshold", "--quorum", str(QUORUM),
            "--format", "json", "--save-profile", self.profile,
        ]
        classify = ["classify", "--input", self.data, "--profile", self.profile]
        backtest = [
            "backtest", "--input", self.data, "--select-threshold", "--quorum", str(QUORUM),
            "--mode", "in_sample",
        ]
        return job_seed, (synth, fit, classify, backtest)

    def run(self, inp):
        outputs = []
        for argv in inp[1]:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = fc_cli.main(argv)
                except SystemExit as exc:  # argparse exits on a usage error
                    code = exc.code
            outputs.append((code, stdout.getvalue()))
        return outputs

    def expect(self, inp, flip: bool) -> dict:
        m, _ = fc_synth.generate(PlantSpec(seed=inp[0], **self.spec))
        return reference.cli_job(plain(m), QUORUM, self.min_critical, flip)

    def check(self, out, expected: dict) -> bool:
        if any(code != 0 for code, _ in out):
            return False
        fit = json.loads(out[1][1])
        payload, exp = fit["result"], expected["fit"]
        profile = payload["profile"]
        if not (
            fit["metadata"]["threshold"] == exp["threshold"]
            and payload["required"] == exp["required"]
            and profile["intervals"] == exp["intervals"]
            and profile["n_critical_train"] == exp["n_critical_train"]
            and payload["per_year"] == exp["per_year"]
            and payload["flagged_years"] == exp["flagged_years"]
            and (payload["x"], payload["y"], payload["p"]) == (exp["x"], exp["y"], exp["p"])
        ):
            return False
        classify = next(iter(text_tables(out[2][1]).values()))
        if classify != [[str(y), str(c), p] for y, c, p in expected["classify"]]:
            return False
        backtest = text_tables(out[3][1])
        exp = expected["backtest"]
        rows = [[str(y), p, str(c), _cell(t)] for y, p, c, t in exp["verdicts"]]
        summary = [[str(exp["x"]), str(exp["y"]), _cell(exp["p"]), str(exp["n_no_forecast"])]]
        return backtest.get("verdicts") == rows and backtest.get("backtest summary") == summary

    def year_evals(self, expected: dict) -> int:
        return 4 * len(expected["classify"])


WORKLOADS = {w.name: w for w in (BacktestWorkload, SweepWorkload, CliWorkload)}
