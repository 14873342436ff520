"""Configuration sweeps: factor subsets, quorum, threshold, lag, window length.

Each sweep varies exactly one axis of a base configuration and reports one
row per grid point. Reports are deterministic for fixed inputs: grid order is
preserved, factor subsets are enumerated by size then lexicographically, and
infeasible grid points stay in the report as skipped rows so the sweep shape
always matches the grid. Every axis takes an evaluation's training rows and
truth from :func:`backtest.evaluation_lanes`. On the threshold, lag and
row-length axes a grid point is a row window plus its flags (a relabel on the
threshold axis, the labels' flags on the other two); points with the same pair
share one kernel pass, and one skip policy (window longer than the lagged series,
too few critical years in the flags, no rolling forecast origin) covers all three.
Quorum and factor_subset rows are ``backtest`` on the base window, never skipped.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import combinations, groupby
from typing import Iterable, NamedTuple

from .backtest import BacktestConfig, evaluation_lanes, threshold_value
from .errors import TooManyFactors, WindowTooShort
from .matrix import (
    CriticalLabels,
    FactorSelection,
    Frozen,
    TemporalMatrix,
    check_lag,
    finite_threshold,
    format_number,
)
from .recognizer import quorum_fraction

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


def _sliced_sweep(axis: str, m: TemporalMatrix, spec: SweepSpec, points: list) -> SweepReport:
    """One row per ``(label, value, lag, flags)`` point, scored by :func:`evaluation_lanes`.

    A point is that function's window: factor rows ``[n - lag - k, n - lag)``
    against the last ``k = len(flags)`` years; ``flags`` of None is a window
    longer than the ``n - cfg.lag`` years the base lag leaves. A point is
    skipped when its window exceeds them, when its flags hold too few critical
    years, or when a rolling replay has no forecast origin, in that order.
    Points with the same lag, ``k`` and count of critical years share one kernel
    pass: on one axis those fix the flags, since the lag and row-length axes cut
    one label tuple and relabels at rising thresholds nest. ``value`` is None on
    the threshold axis, whose flags are the rolling training rows.
    """
    cfg, n, names = spec.config, m.n_years - spec.config.lag, spec.selection.names
    required, rolling = cfg.rule.required(len(names)), cfg.eval_mode == "rolling"
    scores, rows = {}, []  # scores: a shared key's ok row fields after the label
    for label, value, lag, flags in points:
        _, k, n_critical = key = (lag, len(flags), flags.count(True)) if flags else (lag, 0, 0)
        if flags is None:
            note = f"window exceeds {n}-year series"
        elif n_critical < cfg.min_train_critical:
            note = f"{n_critical} critical years, {cfg.min_train_critical} required"
        elif rolling and k <= cfg.min_train_years:
            note = f"{k} years, {cfg.min_train_years + 1} required"
        elif key not in scores:
            lanes, truth = evaluation_lanes(m, names, flags, value, cfg, lag)
            x, y, unscored = lanes.scorer(truth)(sum(lanes.factors), required)
            scores[key] = "ok", x, y, x / (x + y) if x + y else None, unscored, ""
        # The skip rules read only the key, so a key is scored exactly when its point is ok.
        rows.append(_row((label, *(scores.get(key) or ("skipped", None, None, None, None, note)))))
    return SweepReport(axis, tuple(rows))


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
    one kernel pass over the union of the grid's factors. A subset whose prefix
    (all but its last factor) is in the run of one-smaller subsets before it, as
    in ``all``, costs one lane add, one label append, one SWAR step and one row.

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
    value = threshold_value(m, labels, spec.config)
    lanes, truth = evaluation_lanes(m, names, labels.is_critical, value, spec.config)
    score, factors, rows, known = lanes.scorer(truth), lanes.factors, [], {}
    for size, run in groupby(subsets, len):  # known: each subset's lane sum and label
        previous, known, required = known, {}, spec.config.rule.required(size)
        for subset in run:
            prefix = previous.get(subset[:-1])
            if prefix is None:
                total = sum([factors[j] for j in subset])
                label = "+".join([names[j] for j in subset])
            else:
                total, label = prefix[0] + factors[subset[-1]], f"{prefix[1]}+{names[subset[-1]]}"
            known[subset] = total, label
            x, y, unscored = score(total, required)
            rows.append(_row((label, "ok", x, y, x / (x + y) if x + y else None, unscored, "")))
    return SweepReport("factor_subset", tuple(rows))


def quorum_sweep(
    m: TemporalMatrix, labels: CriticalLabels, spec: SweepSpec
) -> SweepReport:
    """One row per quorum fraction; flagged counts are non-increasing in q.

    One kernel pass serves the whole grid: the factors' lanes are summed once,
    and each grid point is one SWAR step of that sum against its own ``required``.
    """
    fractions = [quorum_fraction(q) for q in spec.grid]
    n, value = spec.selection.n_factors, threshold_value(m, labels, spec.config)
    lanes, truth = evaluation_lanes(m, spec.selection.names, labels.is_critical, value, spec.config)
    total, score, rows = sum(lanes.factors), lanes.scorer(truth), []
    for q in fractions:
        x, y, unscored = score(total, math.ceil(q * n))  # QuorumRule(q).required(n)
        p = x / (x + y) if x + y else None
        rows.append(_row((format_number(q), "ok", x, y, p, unscored, "")))
    return SweepReport("quorum", tuple(rows))


def threshold_sensitivity(m: TemporalMatrix, spec: SweepSpec) -> SweepReport:
    """One row per critical threshold; relabels the lagged series at each grid point.

    Too few critical years, or no rolling forecast origin, makes a skipped
    row; thresholds that the same incidence values reach share one kernel pass.
    """
    values = [finite_threshold(value) for value in spec.grid]
    lag, incidence = spec.config.lag, m.incidence[spec.config.lag :]
    points = [(format_number(v), None, lag, [x >= v for x in incidence]) for v in values]
    return _sliced_sweep("threshold", m, spec, points)


def lag_sweep(m: TemporalMatrix, labels: CriticalLabels, spec: SweepSpec) -> SweepReport:
    """One row per lag L: each selected column's first n - L rows against the last n - L years.

    Each point's lag replaces the config's; ``labels`` flags are truth. Too few critical years
    among them, or no rolling forecast origin, makes a skipped row; a repeated lag shares its pass.
    """
    value, n, flags = threshold_value(m, labels, spec.config), m.n_years, labels.is_critical
    lags = [int(lag) for lag in spec.grid]
    points = [(str(lag), value, check_lag(lag, n), flags[lag:]) for lag in lags]
    return _sliced_sweep("lag", m, spec, points)


def row_length_sweep(
    m: TemporalMatrix, labels: CriticalLabels, spec: SweepSpec
) -> SweepReport:
    """One row per trailing-window length k: the last k years, each with its lagged factor row.

    Their ``labels`` flags are truth. Grid values below ``min_train_years`` raise.
    A window longer than the lagged series, with too few critical years or with
    no rolling forecast origin makes a skipped row; a repeated window shares its pass.
    """
    cfg, n, flags = spec.config, m.n_years - spec.config.lag, labels.is_critical
    value, lengths = threshold_value(m, labels, cfg), [int(k) for k in spec.grid]
    for k in lengths:
        if k < cfg.min_train_years:
            raise WindowTooShort(k, cfg.min_train_years)
    points = [(str(k), value, cfg.lag, flags[-k:] if k <= n else None) for k in lengths]
    return _sliced_sweep("row_length", m, spec, points)


def run_sweep(
    m: TemporalMatrix, labels: CriticalLabels | None, spec: SweepSpec
) -> SweepReport:
    """Dispatch on the sweep axis. ``labels`` is ignored for the threshold axis."""
    if spec.axis == "threshold":
        return threshold_sensitivity(m, spec)
    sweeps = {"factor_subset": subset_sweep, "quorum": quorum_sweep, "lag": lag_sweep}
    return sweeps.get(spec.axis, row_length_sweep)(m, labels, spec)
