"""Shared helpers: deterministic random instances and CLI golden machinery.

Random factor values are drawn from a coarse half-unit grid so boundary ties
(values exactly on an envelope edge) occur often, and thresholds are drawn
from the observed incidence values so every instance has at least one
critical year.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

from factorcast import CriticalThreshold, FactorSelection, QuorumRule, label_critical
from factorcast.matrix import CriticalLabels, TemporalMatrix

import _reference_rule

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

VALUE_GRID = [k * 0.5 for k in range(-20, 21)]

QUORUM_CHOICES = [0.25, 1 / 3, 0.5, 0.6, 2 / 3, 0.75, 0.8, 0.9, 1.0]

Instance = tuple[TemporalMatrix, CriticalLabels, FactorSelection, QuorumRule]


def random_matrix(
    rng: random.Random,
    n_min: int = 3,
    n_max: int = 12,
    f_max: int = 4,
) -> TemporalMatrix:
    n = rng.randint(n_min, n_max)
    f = rng.randint(1, f_max)
    start = rng.randint(1900, 2050)
    years = [start]
    for _ in range(n - 1):
        years.append(years[-1] + rng.randint(1, 3))
    incidence = [float(rng.randint(0, 12)) for _ in range(n)]
    names = tuple(f"g{j}" for j in range(1, f + 1))
    columns = {
        name: tuple(rng.choice(VALUE_GRID) for _ in range(n)) for name in names
    }
    return TemporalMatrix(tuple(years), tuple(incidence), names, columns)


def random_instance(
    rng: random.Random,
    n_min: int = 3,
    n_max: int = 12,
    f_max: int = 4,
) -> Instance:
    m = random_matrix(rng, n_min, n_max, f_max)
    # A threshold equal to an observed value guarantees >= 1 critical year.
    threshold = CriticalThreshold(rng.choice(m.incidence))
    labels = label_critical(m, threshold)
    rule = QuorumRule(rng.choice(QUORUM_CHOICES))
    return m, labels, FactorSelection(m.factor_names), rule


def lagged_matrix(m: TemporalMatrix, names, lag: int) -> TemporalMatrix:
    """``m`` lagged by hand.

    Years and incidence run from row ``lag`` on, the named factors from row 0
    on, and every other factor stays at its own year.
    """
    n = m.n_years
    return TemporalMatrix(
        m.years[lag:],
        m.incidence[lag:],
        m.factor_names,
        {name: col[: n - lag] if name in names else col[lag:] for name, col in m.columns.items()},
    )


def reference_recognize(m, labels, selection, rule, widen_eps=0.0):
    """``_reference_rule.recognize`` of one instance, read into plain lists."""
    return _reference_rule.recognize(
        list(m.years),
        list(labels.is_critical),
        [list(m.factor_values(name)) for name in selection.names],
        rule.q,
        widen_eps,
    )


def lanes_to_masks(lanes):
    """The kernel's lanes as ``_reference_rule.masks`` rows: bit j for factor j, None unscored.

    Every lane of a factor int must hold 0 or 1 and every lane of ``scored``
    must hold 0 or 1; an int that does not fit in its rows' lanes (or is
    negative) raises ``OverflowError``.
    """
    size = lanes.rows * lanes.width
    assert lanes.ones == int.from_bytes((b"\x01" + bytes(lanes.width - 1)) * lanes.rows, "little")
    scored = lanes.scored.to_bytes(size, "little")
    cells = [lane.to_bytes(size, "little") for lane in lanes.factors]
    masks = []
    for k in range(0, size, lanes.width):
        for raw in (scored, *cells):
            assert raw[k] in (0, 1) and not any(raw[k + 1 : k + lanes.width])
        bits = sum(raw[k] << j for j, raw in enumerate(cells))
        masks.append(bits if scored[k] else None)
    return masks


# --- CLI golden machinery -------------------------------------------------

def setup_cli_workdir(tmp_path: Path) -> Path:
    """Copy the fixture, generate a small planted dataset, and save a profile."""
    from factorcast.cli import main

    shutil.copy(FIXTURES / "worked_example.csv", tmp_path / "worked_example.csv")
    assert (
        main(
            [
                "synth",
                "--seed", "11",
                "--years", "12",
                "--factors", "3",
                "--critical-fraction", "0.4",
                "--output", str(tmp_path / "planted.csv"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "synth",
                "--seed", "11",
                "--years", "40",
                "--factors", "5",
                "--critical-fraction", "0.4",
                "--noise", "0.1",
                "--output", str(tmp_path / "planted_long.csv"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "fit",
                "--input", str(tmp_path / "worked_example.csv"),
                "--threshold", "8",
                "--quorum", "1.0",
                "--save-profile", str(tmp_path / "profile.json"),
                "--output", str(tmp_path / "fit_setup.txt"),
            ]
        )
        == 0
    )
    return tmp_path


def _we(d: Path, *extra: str) -> list[str]:
    return ["--input", str(d / "worked_example.csv"), *extra]


def _planted(d: Path, *extra: str) -> list[str]:
    return ["--input", str(d / "planted.csv"), *extra]


def _planted_long(d: Path, mode: str, fmt: str) -> list[str]:
    """A widened backtest of the 40-year planted file, whose envelopes move often."""
    return [
        "backtest",
        "--input", str(d / "planted_long.csv"),
        "--threshold", "10",
        "--quorum", "0.6",
        "--min-train-years", "5",
        "--widen-eps", "0.5",
        "--mode", mode,
        "--format", fmt,
    ]


def _planted_long_sweep(d: Path, axis: str, grid: str, mode: str, fmt: str, *extra: str):
    """A sweep of the 40-year planted file in a backtest mode other than in-sample."""
    return [
        "sweep",
        "--input", str(d / "planted_long.csv"),
        "--quorum", "0.6",
        "--min-train-years", "5",
        "--axis", axis,
        "--grid", grid,
        "--mode", mode,
        "--format", fmt,
        *extra,
    ]


GOLDEN_CASES = [
    (
        "fit.txt",
        lambda d: ["fit", *_we(d, "--threshold", "8", "--quorum", "1.0", "--format", "text")],
    ),
    (
        "fit.json",
        lambda d: ["fit", *_we(d, "--threshold", "8", "--quorum", "1.0", "--format", "json")],
    ),
    (
        "fit.plot.csv",
        lambda d: ["fit", *_we(d, "--threshold", "8", "--quorum", "1.0", "--format", "plot_csv")],
    ),
    (
        "classify.txt",
        lambda d: ["classify", *_we(d, "--profile", str(d / "profile.json"), "--format", "text")],
    ),
    (
        "backtest.txt",
        lambda d: [
            "backtest",
            *_we(
                d,
                "--select-threshold",
                "--quorum", "1.0",
                "--min-train-years", "3",
                "--format", "text",
            ),
        ],
    ),
    (
        "backtest.json",
        lambda d: [
            "backtest",
            *_we(
                d,
                "--select-threshold",
                "--quorum", "1.0",
                "--min-train-years", "3",
                "--format", "json",
            ),
        ],
    ),
    (
        "backtest_no_forecast.txt",
        lambda d: [
            "backtest",
            *_we(
                d,
                "--threshold", "9.5",
                "--quorum", "1.0",
                "--min-train-years", "3",
                "--format", "text",
            ),
        ],
    ),
    (
        "backtest_loo.txt",
        lambda d: [
            "backtest",
            *_we(
                d,
                "--threshold", "8",
                "--quorum", "1.0",
                "--min-train-years", "3",
                "--mode", "leave_one_out",
                "--format", "text",
            ),
        ],
    ),
    ("backtest_planted_rolling.json", lambda d: _planted_long(d, "rolling", "json")),
    ("backtest_planted_loo.txt", lambda d: _planted_long(d, "leave_one_out", "text")),
    (
        "sweep_quorum.txt",
        lambda d: [
            "sweep",
            *_we(
                d,
                "--threshold", "8",
                "--axis", "quorum",
                "--grid", "0.5,0.75,1.0",
                "--format", "text",
            ),
        ],
    ),
    (
        "sweep_quorum.plot.csv",
        lambda d: [
            "sweep",
            *_we(
                d,
                "--threshold", "8",
                "--axis", "quorum",
                "--grid", "0.5,0.75,1.0",
                "--format", "plot_csv",
            ),
        ],
    ),
    (
        "sweep_threshold.txt",
        lambda d: [
            "sweep",
            *_we(d, "--axis", "threshold", "--grid", "8,9,99", "--format", "text"),
        ],
    ),
    (
        "sweep_threshold_skipped.txt",
        lambda d: [
            "sweep",
            *_we(
                d,
                "--axis", "threshold",
                "--grid", "8,11",
                "--quorum", "1.0",
                "--mode", "in_sample",
                "--format", "text",
            ),
        ],
    ),
    (
        "sweep_threshold_skipped.json",
        lambda d: [
            "sweep",
            *_we(
                d,
                "--axis", "threshold",
                "--grid", "8,11",
                "--quorum", "1.0",
                "--mode", "in_sample",
                "--format", "json",
            ),
        ],
    ),
    (
        "sweep_subset.json",
        lambda d: [
            "sweep",
            *_planted(
                d,
                "--threshold", "10",
                "--axis", "factor_subset",
                "--grid", "all",
                "--format", "json",
            ),
        ],
    ),
    (
        "sweep_lag.txt",
        lambda d: [
            "sweep",
            *_planted(
                d, "--threshold", "10", "--axis", "lag", "--grid", "0,1", "--format", "text"
            ),
        ],
    ),
    (
        "sweep_lag_rolling.txt",
        lambda d: _planted_long_sweep(
            d, "lag", "0,1,3", "rolling", "text", "--threshold", "10", "--widen-eps", "0.5"
        ),
    ),
    (
        "sweep_row_length_loo.txt",
        lambda d: _planted_long_sweep(
            d,
            "row_length",
            "8,20,40,41",
            "leave_one_out",
            "text",
            "--threshold", "10",
            "--widen-eps", "0.5",
        ),
    ),
    (
        # The later --min-train-years 8 wins. Lag 34 leaves 6 rows, which hold no
        # forecast origin, and lag 35 leaves 5 rows with 1 critical year.
        "sweep_lag_no_origin.txt",
        lambda d: _planted_long_sweep(
            d,
            "lag",
            "0,3,3,30,34,35",
            "rolling",
            "text",
            "--threshold", "17",
            "--widen-eps", "0.5",
            "--min-train-years", "8",
        ),
    ),
    (
        "sweep_threshold_rolling.json",
        lambda d: _planted_long_sweep(d, "threshold", "5,10,19.5,25", "rolling", "json"),
    ),
    (
        "fit_lag.json",
        lambda d: [
            "fit", *_planted(d, "--select-threshold", "--lag", "1", "--format", "json")
        ],
    ),
    ("backtest_lag_rolling.txt", lambda d: [*_planted_long(d, "rolling", "text"), "--lag", "2"]),
    (
        # Per-year in-sample memberships against widened envelopes of lagged rows.
        "backtest_planted_in_sample_lag.json",
        lambda d: [*_planted_long(d, "in_sample", "json"), "--lag", "1"],
    ),
    (
        # The last window, 39 rows, is longer than the 38 rows that lag 2 leaves.
        "sweep_row_length_lag.txt",
        lambda d: _planted_long_sweep(
            d,
            "row_length",
            "20,38,39",
            "leave_one_out",
            "text",
            "--threshold", "10",
            "--lag", "2",
        ),
    ),
    (
        "sweep_row_length.txt",
        lambda d: [
            "sweep",
            *_planted(
                d,
                "--threshold", "10",
                "--axis", "row_length",
                "--grid", "8,12",
                "--format", "text",
            ),
        ],
    ),
]


def run_cli_to_file(argv: list[str], out_path: Path) -> bytes:
    from factorcast.cli import main

    code = main([*argv, "--output", str(out_path)])
    assert code == 0
    return out_path.read_bytes()
