"""Configuration sweeps: factor subsets, quorum, threshold, lag, window length.

Each sweep varies exactly one axis of a base configuration and reports one
row per grid point. Reports are deterministic for fixed inputs: grid order is
preserved, factor subsets are enumerated by size then lexicographically, and
infeasible grid points stay in the report as skipped rows so the sweep shape
always matches the grid. The threshold, lag and row-length sweeps score each
grid point with one kernel pass over column slices of the input matrix.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, NamedTuple

from .backtest import BacktestConfig, evaluation_masks, membership_counts, score, threshold_value
from .errors import TooManyFactors, WindowTooShort
from .matrix import (
    CriticalLabels,
    CriticalThreshold,
    FactorSelection,
    Frozen,
    TemporalMatrix,
    check_lag,
    format_number,
)
from .recognizer import QuorumRule, membership_masks, precision

MAX_SUBSET_FACTORS = 16

SWEEP_AXES = ("factor_subset", "quorum", "threshold", "lag", "row_length")


class SweepSpec(Frozen):
    """One sweep axis, its grid, and the base configuration.

    ``grid`` is a tuple of axis values: factor-name tuples for
    ``factor_subset`` (or None to enumerate all non-empty subsets of the
    selection), fractions for ``quorum``, incidence values for ``threshold``,
    row counts for ``lag`` and ``row_length``.
    """

    __slots__ = ("axis", "selection", "config", "grid")

    def __init__(
        self,
        axis: str,
        selection: FactorSelection,
        config: BacktestConfig,
        grid: Iterable | None = None,
    ):
        if axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}")
        if grid is not None:
            grid = tuple(grid)
            if not grid:
                raise ValueError("grid must be non-empty")
        elif axis != "factor_subset":
            raise ValueError(f"axis {axis!r} requires an explicit grid")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "selection", selection)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "grid", grid)


class SweepRow(NamedTuple):
    """One grid point: configuration label plus the recognition counts.

    The fields are the keys of a row in a JSON report.
    """

    configuration: str
    status: str  # "ok" | "skipped"
    x: int | None
    y: int | None
    p: float | None
    n_no_forecast: int | None
    note: str = ""


class SweepReport(NamedTuple):
    axis: str
    rows: tuple[SweepRow, ...]


def _ok_row(label: str, x: int, y: int, n_no_forecast: int) -> SweepRow:
    return SweepRow(label, "ok", x, y, precision(x, y), n_no_forecast)


def _skipped_row(label: str, note: str) -> SweepRow:
    return SweepRow(label, "skipped", None, None, None, None, note)


def _grid_point_row(
    label: str, columns: list, incidence: tuple, value: float, cfg: BacktestConfig
) -> SweepRow:
    """One kernel pass over aligned row slices; years at or above ``value`` train and are truth."""
    critical = [v >= value for v in incidence]
    n_critical = sum(critical)
    if n_critical < cfg.min_train_critical:
        note = f"{n_critical} critical years, {cfg.min_train_critical} required"
        return _skipped_row(label, note)
    start = cfg.min_train_years if cfg.eval_mode == "rolling" else 0
    masks = membership_masks(
        columns,
        critical,
        cfg.eval_mode,
        widen_eps=cfg.widen_eps,
        start=start,
        min_critical=cfg.min_train_critical,
    )
    counts = membership_counts(masks)
    return _ok_row(label, *score(counts, critical[start:], cfg.rule.required(len(columns))))


def enumerate_subsets(selection: FactorSelection) -> tuple[FactorSelection, ...]:
    """All non-empty subsets, size ascending then lexicographic by name."""
    if selection.n_factors > MAX_SUBSET_FACTORS:
        raise TooManyFactors(selection.n_factors, MAX_SUBSET_FACTORS)
    subsets = []
    for size in range(1, selection.n_factors + 1):
        for combo in combinations(selection.names, size):
            subsets.append(combo)
    subsets.sort(key=lambda names: (len(names), names))
    return tuple(FactorSelection(names) for names in subsets)


def tally(groups: Counter, subset_bits: int, required: int) -> tuple[int, int, int]:
    """``(x, y, n_no_forecast)`` of one factor subset and quorum requirement.

    ``groups`` is ``Counter(zip(*evaluation_masks(...)))``: equal masks are scored once.
    """
    x = y = n_no_forecast = 0
    for (mask, truth), n in groups.items():
        if mask is None:
            n_no_forecast += n
        elif (mask & subset_bits).bit_count() >= required:
            if truth:
                x += n
            else:
                y += n
    return x, y, n_no_forecast


def subset_sweep(
    m: TemporalMatrix, labels: CriticalLabels, spec: SweepSpec
) -> SweepReport:
    """Evaluate every factor subset in the grid with the base configuration.

    A factor's membership bit does not depend on the subset, so the sweep is
    one kernel pass over the union of the grid's factors. Equal (mask, truth)
    pairs are grouped once, and every subset reuses the groups: one AND and
    one popcount per (subset, distinct mask), which pays off across the up to
    2^F - 1 subsets of an enumerated grid.

    More factors does not always mean higher precision: under a partial
    quorum an uninformative factor can vote otherwise-rejected years past
    the requirement, so supersets may score strictly worse.
    """
    if spec.grid is None:
        subsets = enumerate_subsets(spec.selection)
    else:
        subsets = tuple(FactorSelection(names) for names in spec.grid)
    names = tuple(dict.fromkeys(name for subset in subsets for name in subset.names))
    groups = Counter(zip(*evaluation_masks(m, labels, names, spec.config)))
    bit = {name: 1 << j for j, name in enumerate(names)}
    rows = []
    for subset in subsets:
        subset_bits = sum(bit[name] for name in subset.names)
        counts = tally(groups, subset_bits, spec.config.rule.required(subset.n_factors))
        rows.append(_ok_row("+".join(subset.names), *counts))
    return SweepReport("factor_subset", tuple(rows))


def quorum_sweep(
    m: TemporalMatrix, labels: CriticalLabels, spec: SweepSpec
) -> SweepReport:
    """One row per quorum fraction; flagged counts are non-increasing in q.

    One kernel pass serves the whole grid: the per-year membership counts are
    taken once, and each grid point scores them against its own ``required``.
    """
    rules = [QuorumRule(float(q)) for q in spec.grid]
    n = spec.selection.n_factors
    masks, truth = evaluation_masks(m, labels, spec.selection.names, spec.config)
    counts = membership_counts(masks)
    rows = [_ok_row(format_number(r.q), *score(counts, truth, r.required(n))) for r in rules]
    return SweepReport("quorum", tuple(rows))


def threshold_sensitivity(m: TemporalMatrix, spec: SweepSpec) -> SweepReport:
    """One row per critical threshold; relabels the series at each grid point.

    Thresholds yielding fewer than ``min_train_critical`` critical years are
    reported as skipped rows rather than dropped.
    """
    columns = [m.factor_values(name) for name in spec.selection.names]
    rows = []
    for value in spec.grid:
        value = CriticalThreshold(float(value), "selected").value
        rows.append(_grid_point_row(format_number(value), columns, m.incidence, value, spec.config))
    return SweepReport("threshold", tuple(rows))


def lag_sweep(m: TemporalMatrix, labels: CriticalLabels, spec: SweepSpec) -> SweepReport:
    """One row per lag L: each selected column's first n - L rows against the last n - L years.

    Lags that leave fewer than ``min_train_critical`` critical years are
    reported as skipped rows.
    """
    columns = [m.factor_values(name) for name in spec.selection.names]
    value = threshold_value(labels, spec.config)
    n = m.n_years
    rows = []
    for lag in map(int, spec.grid):
        check_lag(lag, n)
        lagged = [col[: n - lag] for col in columns]
        rows.append(_grid_point_row(str(lag), lagged, m.incidence[lag:], value, spec.config))
    return SweepReport("lag", tuple(rows))


def row_length_sweep(
    m: TemporalMatrix, labels: CriticalLabels, spec: SweepSpec
) -> SweepReport:
    """One row per trailing-window length k: the last k rows of the columns and incidence.

    Grid values below ``min_train_years`` violate the grid contract and
    raise; windows longer than the series or holding too few critical years
    are reported as skipped rows.
    """
    columns = [m.factor_values(name) for name in spec.selection.names]
    value = threshold_value(labels, spec.config)
    n = m.n_years
    rows = []
    for k in map(int, spec.grid):
        if k < spec.config.min_train_years:
            raise WindowTooShort(k, spec.config.min_train_years)
        if k > n:
            rows.append(_skipped_row(str(k), f"window exceeds {n}-year series"))
            continue
        window = [col[n - k :] for col in columns]
        rows.append(_grid_point_row(str(k), window, m.incidence[n - k :], value, spec.config))
    return SweepReport("row_length", tuple(rows))


def run_sweep(
    m: TemporalMatrix, labels: CriticalLabels | None, spec: SweepSpec
) -> SweepReport:
    """Dispatch on the sweep axis. ``labels`` is ignored for the threshold axis."""
    if spec.axis == "factor_subset":
        return subset_sweep(m, labels, spec)
    if spec.axis == "quorum":
        return quorum_sweep(m, labels, spec)
    if spec.axis == "threshold":
        return threshold_sensitivity(m, spec)
    if spec.axis == "lag":
        return lag_sweep(m, labels, spec)
    return row_length_sweep(m, labels, spec)
