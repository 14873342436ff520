"""Threshold selection and rolling-origin forecasting of critical years.

Real-time use means forecasting year t+1 from years 1..t only. A forecast is
issued only when the training window holds enough critical years to pin the
intervals down (at least two by default); otherwise the verdict is an
explicit ``no_forecast`` so backtest accounting stays auditable. Besides the
rolling mode, the backtest can replay the recognizer in-sample or in
leave-one-out mode for comparison.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Literal, NamedTuple, Sequence

from .errors import InsufficientYears
from .matrix import (
    CriticalLabels, CriticalThreshold, FactorSelection, Frozen, TemporalMatrix, check_lag
)
from .recognizer import Lanes, QuorumRule, check_labels, membership_lanes, precision

EvalMode = Literal["rolling", "leave_one_out", "in_sample"]

EVAL_MODES = ("rolling", "leave_one_out", "in_sample")

# Kernel passes a matrix's pass memo holds before a miss clears it (see evaluation_lanes).
MAX_PASSES = 8


class BacktestConfig(Frozen):
    """One fixed recognition configuration, factor lag included, for a whole backtest."""

    __slots__ = (
        "rule",
        "threshold",
        "min_train_years",
        "min_train_critical",
        "eval_mode",
        "widen_eps",
        "lag",
    )

    def __init__(
        self,
        rule: QuorumRule,
        threshold: CriticalThreshold,
        min_train_years: int = 5,
        min_train_critical: int = 2,
        eval_mode: EvalMode = "rolling",
        widen_eps: float = 0.0,
        lag: int = 0,
    ):
        # The kernel and the evaluation window index rows with these counts.
        counts = {"min_train_years": min_train_years, "min_train_critical": min_train_critical}
        counts["lag"] = lag
        for name, count in counts.items():
            if not isinstance(count, int):
                raise ValueError(f"{name} must be an int, got {count!r}")
        if min_train_years < 3:
            raise ValueError("min_train_years must be at least 3")
        if min_train_critical < 2:
            raise ValueError("min_train_critical must be at least 2")
        if eval_mode not in EVAL_MODES:
            raise ValueError(f"eval_mode must be one of {EVAL_MODES}")
        if not 0 <= widen_eps < math.inf:
            raise ValueError("widen_eps must be finite and non-negative")
        if lag < 0:
            raise ValueError("lag must be non-negative")
        self._set(rule, threshold, min_train_years, min_train_critical, eval_mode, widen_eps, lag)


class Verdict(NamedTuple):
    """One per-year forecast: critical, non_critical, or no_forecast.

    ``no_forecast`` means the training prerequisites were unmet for that
    origin. ``truth`` is the year's critical label, which every verdict
    carries. The fields are the keys of a verdict in a JSON report.
    """

    year: int
    prediction: Literal["critical", "non_critical", "no_forecast"]
    membership: int | None = None
    truth: bool | None = None


class BacktestResult(NamedTuple):
    """Per-year verdicts plus x / y / p over issued critical predictions."""

    verdicts: tuple[Verdict, ...]
    x: int
    y: int
    p: float | None
    n_no_forecast: int

    @property
    def n_forecasts(self) -> int:
        return sum(1 for v in self.verdicts if v.prediction != "no_forecast")


def select_threshold(m: TemporalMatrix, min_critical: int = 2, lag: int = 0) -> CriticalThreshold:
    """Largest incidence value from row ``lag`` on that still yields >= min_critical criticals.

    Candidate thresholds are the observed incidence values themselves, since
    labelings only change there. The most extreme qualifying line is chosen;
    an expert-given line can always be used instead. That line is the
    ``min_critical``-th largest value: at least ``min_critical`` values lie at
    or above it, and fewer than that at or above any larger value.
    """
    if min_critical < 2:
        raise ValueError("min_critical must be at least 2")
    incidence = m.incidence[check_lag(lag, m.n_years) :]
    if len(incidence) < min_critical:
        raise InsufficientYears(len(incidence), min_critical)
    value = sorted(incidence, reverse=True)[min_critical - 1]
    # Report the first equal value in series order: 0.0 and -0.0 are equal but print apart.
    return CriticalThreshold(incidence[incidence.index(value)], "selected")


def threshold_value(m: TemporalMatrix, labels: CriticalLabels, cfg: BacktestConfig) -> float:
    """The threshold value of ``labels``, which must be built for ``m`` at ``cfg``'s threshold."""
    check_labels(m, labels)
    if labels.threshold.value != cfg.threshold.value:
        raise ValueError("labels threshold differs from backtest config threshold")
    return labels.threshold.value


def evaluation_lanes(
    m: TemporalMatrix,
    names: tuple[str, ...],
    flags: Sequence[bool],
    value: float | None,
    cfg: BacktestConfig,
    lag: int | None = None,
) -> tuple[Lanes, Sequence[bool]]:
    """Kernel lanes of the years ``cfg.eval_mode`` evaluates in one window, and their truth.

    The window scores factor rows ``[n - lag - k, n - lag)`` of ``m`` against
    its last ``k = len(flags)`` rows, flags cut to their last ``n - lag``;
    ``lag`` defaults to ``cfg.lag`` and must be below n. Rolling trains on the
    window's rows with incidence at or above ``value`` (on ``flags`` if None),
    the other modes on ``flags``; the truth of every mode is ``flags``.
    ``lanes.factors[j]`` stands for ``names[j]``; an unscored row is a ``no_forecast``.

    This window decides which evaluations share a kernel pass. ``m._passes``,
    a plain dict that only this function touches, keeps each pass under
    everything the kernel reads: the names in order, the lag, the training
    rows as a tuple (whose length is ``k``), the mode, the widening and the
    two training minimums. A later call on the same matrix object with an
    equal key reuses the lanes, which are immutable; the truth is cut from
    ``flags`` on every call. A miss that finds ``MAX_PASSES`` passes held
    clears them all first, so the memo holds at most ``8·F·n·w`` lane bytes
    for F factors with ``w``-byte lanes (``w = 1`` below 128 factors). Each
    step is one dict operation, so threads need no lock; a key stored twice
    keeps its first lanes. The memo is no field: equality, ``repr``, pickling
    and copies never see it, a copy starts empty, and no result depends on it.
    """
    n = m.n_years
    lag = cfg.lag if lag is None else lag
    if lag:
        check_lag(lag, n)
        flags = flags[lag - n :]
    k = len(flags)
    rolling = cfg.eval_mode == "rolling" and value is not None
    critical = [v >= value for v in m.incidence[n - k :]] if rolling else flags
    start, min_critical = cfg.min_train_years, cfg.min_train_critical
    key = (names, lag, tuple(critical), cfg.eval_mode, cfg.widen_eps, start, min_critical)
    lanes = m._passes.get(key)
    if lanes is None:
        if len(m._passes) >= MAX_PASSES:
            m._passes.clear()
        columns = [m.factor_values(name)[n - lag - k : n - lag] for name in names]
        lanes = membership_lanes(
            columns,
            critical,
            cfg.eval_mode,
            widen_eps=cfg.widen_eps,
            start=start,
            min_critical=min_critical,
        )
        lanes = m._passes.setdefault(key, lanes)
    return lanes, flags[k - lanes.rows :]


def rolling_backtest(
    m: TemporalMatrix,
    labels: CriticalLabels,
    selection: FactorSelection,
    cfg: BacktestConfig,
) -> BacktestResult:
    """Replay the recognizer over the series in the configured evaluation mode.

    rolling
        For every origin t from ``min_train_years`` to n-1, train on years
        1..t only and forecast year t+1. Future rows are never read, so
        verdicts are causal. A year is ``no_forecast`` while fewer than
        ``min_train_critical`` critical years precede it.
    in_sample
        Classify every year against the profile built from all critical
        years; agrees exactly with :func:`recognizer.evaluate_insample`.
    leave_one_out
        Classify each year against the profile built from all critical years
        except itself (when it is critical); equals in_sample for
        non-critical years.

    Every mode is one pass of the membership kernel over each factor column,
    so a backtest costs O(n·F) for n years and F factors: rolling keeps a
    running min/max per factor instead of rebuilding the prefix at each
    origin, and leave-one-out clears the in-sample hit of each critical year
    that sits alone on an envelope edge. The factors' lanes are summed
    once; one SWAR step against the quorum requirement gives x, y and the
    ``no_forecast`` total, and the sum's lanes unpack into the per-year
    membership counts of the verdicts.
    """
    value = threshold_value(m, labels, cfg)
    lanes, truth = evaluation_lanes(m, selection.names, labels.is_critical, value, cfg)
    required = cfg.rule.required(selection.n_factors)
    years = m.years[m.n_years - lanes.rows :]
    total = sum(lanes.factors)
    counts = lanes.counts(total)
    predictions = [
        "no_forecast" if count is None else "critical" if count >= required else "non_critical"
        for count in counts
    ]
    # Verdict(...) and Verdict._make cost more; zip already gives every tuple four fields.
    verdicts = tuple(map(tuple.__new__, repeat(Verdict), zip(years, predictions, counts, truth)))
    x, y, n_no_forecast = lanes.scorer(truth)(total, required)
    return BacktestResult(verdicts, x, y, precision(x, y), n_no_forecast)
