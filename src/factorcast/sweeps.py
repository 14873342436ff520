"""Configuration sweeps: factor subsets, quorum, threshold, lag, window length.

Each sweep varies exactly one axis of a base configuration and reports one
row per grid point. Reports are deterministic for fixed inputs: grid order is
preserved, factor subsets are enumerated by size then lexicographically, and
infeasible grid points stay in the report as skipped rows so the sweep shape
always matches the grid. The threshold, lag and row-length sweeps score each
grid point with one kernel pass over column slices of the input matrix.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Iterable, NamedTuple

from .backtest import BacktestConfig, config_lanes, evaluation_lanes, threshold_value
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
from .recognizer import QuorumRule, precision

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
        self._set(axis, selection, config, grid)


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


# Builds a SweepRow from one full field tuple; SweepRow(...) costs more per row.
_row = partial(tuple.__new__, SweepRow)


def _ok_row(label: str, x: int, y: int, n_no_forecast: int) -> SweepRow:
    return _row((label, "ok", x, y, precision(x, y), n_no_forecast, ""))


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
    lanes = config_lanes(columns, critical, cfg)
    truth = lanes.lane(critical[len(critical) - lanes.rows :])
    return _ok_row(label, *lanes.score(sum(lanes.factors), truth, cfg.rule.required(len(columns))))


def enumerate_subsets(selection: FactorSelection) -> tuple[tuple[int, ...], ...]:
    """All non-empty subsets as index tuples (ascending) into ``selection.names``.

    They run by size, then lexicographically by the tuples of their names.
    """
    if selection.n_factors > MAX_SUBSET_FACTORS:
        raise TooManyFactors(selection.n_factors, MAX_SUBSET_FACTORS)
    names, indices = selection.names, range(selection.n_factors)
    # Each size's name tuples sort with their index tuples in tow; names are distinct.
    return tuple(
        subset
        for size in range(1, selection.n_factors + 1)
        for _, subset in sorted(zip(combinations(names, size), combinations(indices, size)))
    )


def subset_sweep(
    m: TemporalMatrix, labels: CriticalLabels, spec: SweepSpec
) -> SweepReport:
    """Evaluate every factor subset in the grid with the base configuration.

    A factor's membership lane does not depend on the subset, so the sweep is
    one kernel pass over the union of the grid's factors. Each subset then
    costs one sum of its factors' lanes and one SWAR quorum step, which pays
    off across the up to 2^F - 1 subsets of an enumerated grid.

    More factors does not always mean higher precision: under a partial
    quorum an uninformative factor can vote otherwise-rejected years past
    the requirement, so supersets may score strictly worse.
    """
    if spec.grid is None:
        names, subsets = spec.selection.names, enumerate_subsets(spec.selection)
    else:
        index: dict[str, int] = {}  # each grid name's lane, in order of first use
        grid = [FactorSelection(subset).names for subset in spec.grid]
        subsets = [tuple(index.setdefault(name, len(index)) for name in sub) for sub in grid]
        names = tuple(index)
    lanes, truth = evaluation_lanes(m, labels, names, spec.config)
    truth, factors = lanes.lane(truth), lanes.factors
    required = [spec.config.rule.required(size) for size in range(1, len(names) + 1)]
    rows = []
    for subset in subsets:
        counts = lanes.score(sum([factors[j] for j in subset]), truth, required[len(subset) - 1])
        rows.append(_ok_row("+".join([names[j] for j in subset]), *counts))
    return SweepReport("factor_subset", tuple(rows))


def quorum_sweep(
    m: TemporalMatrix, labels: CriticalLabels, spec: SweepSpec
) -> SweepReport:
    """One row per quorum fraction; flagged counts are non-increasing in q.

    One kernel pass serves the whole grid: the factors' lanes are summed once,
    and each grid point is one SWAR step of that sum against its own ``required``.
    """
    rules = [QuorumRule(float(q)) for q in spec.grid]
    n = spec.selection.n_factors
    lanes, truth = evaluation_lanes(m, labels, spec.selection.names, spec.config)
    total, truth = sum(lanes.factors), lanes.lane(truth)
    rows = [_ok_row(format_number(r.q), *lanes.score(total, truth, r.required(n))) for r in rules]
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
