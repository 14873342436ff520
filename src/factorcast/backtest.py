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
from functools import partial
from typing import Literal, NamedTuple, Sequence

from .errors import InsufficientYears
from .matrix import CriticalLabels, CriticalThreshold, FactorSelection, Frozen, TemporalMatrix
from .recognizer import Lanes, QuorumRule, check_labels, membership_lanes, precision

EvalMode = Literal["rolling", "leave_one_out", "in_sample"]

EVAL_MODES = ("rolling", "leave_one_out", "in_sample")


class BacktestConfig(Frozen):
    """One fixed recognition configuration for a whole backtest."""

    __slots__ = (
        "rule",
        "threshold",
        "min_train_years",
        "min_train_critical",
        "eval_mode",
        "widen_eps",
    )

    def __init__(
        self,
        rule: QuorumRule,
        threshold: CriticalThreshold,
        min_train_years: int = 5,
        min_train_critical: int = 2,
        eval_mode: EvalMode = "rolling",
        widen_eps: float = 0.0,
    ):
        if min_train_years < 3:
            raise ValueError("min_train_years must be at least 3")
        if min_train_critical < 2:
            raise ValueError("min_train_critical must be at least 2")
        if eval_mode not in EVAL_MODES:
            raise ValueError(f"eval_mode must be one of {EVAL_MODES}")
        if not 0 <= widen_eps < math.inf:
            raise ValueError("widen_eps must be finite and non-negative")
        self._set(rule, threshold, min_train_years, min_train_critical, eval_mode, widen_eps)


class Verdict(NamedTuple):
    """One per-year forecast: critical, non_critical, or no_forecast.

    ``no_forecast`` means the training prerequisites were unmet for that
    origin. ``truth`` is absent for genuinely future years. The fields are
    the keys of a verdict in a JSON report.
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


def select_threshold(m: TemporalMatrix, min_critical: int = 2) -> CriticalThreshold:
    """Largest observed incidence value that still yields >= min_critical criticals.

    Candidate thresholds are the observed incidence values themselves, since
    labelings only change there. The most extreme qualifying line is chosen;
    an expert-given line can always be used instead. That line is the
    ``min_critical``-th largest value: at least ``min_critical`` values lie at
    or above it, and fewer than that at or above any larger value.
    """
    if min_critical < 2:
        raise ValueError("min_critical must be at least 2")
    if m.n_years < min_critical:
        raise InsufficientYears(m.n_years, min_critical)
    value = sorted(m.incidence, reverse=True)[min_critical - 1]
    # Report the first equal value in series order: 0.0 and -0.0 are equal but print apart.
    return CriticalThreshold(m.incidence[m.incidence.index(value)], "selected")


def threshold_value(labels: CriticalLabels, cfg: BacktestConfig) -> float:
    """The labels' threshold value, which must be the configuration's."""
    if labels.threshold.value != cfg.threshold.value:
        raise ValueError("labels threshold differs from backtest config threshold")
    return labels.threshold.value


def config_lanes(
    columns: Sequence[Sequence[float]], critical: Sequence[bool], cfg: BacktestConfig
) -> Lanes:
    """The kernel in ``cfg``'s mode trained on ``critical`` (rolling skips ``min_train_years``)."""
    start = cfg.min_train_years if cfg.eval_mode == "rolling" else 0
    return membership_lanes(
        columns,
        critical,
        cfg.eval_mode,
        widen_eps=cfg.widen_eps,
        start=start,
        min_critical=cfg.min_train_critical,
    )


def evaluation_lanes(
    m: TemporalMatrix,
    labels: CriticalLabels,
    names: Sequence[str],
    cfg: BacktestConfig,
) -> tuple[Lanes, tuple[bool, ...]]:
    """Kernel lanes of the years ``cfg.eval_mode`` evaluates, and their truth.

    ``lanes.factors[j]`` stands for ``names[j]``; an unscored row is a
    ``no_forecast``. Rolling training relabels the series from
    ``labels.threshold``, while the truth of every year is read from ``labels``.
    """
    check_labels(m, labels)
    value = threshold_value(labels, cfg)
    rolling = cfg.eval_mode == "rolling"
    critical = tuple(v >= value for v in m.incidence) if rolling else labels.is_critical
    lanes = config_lanes([m.factor_values(name) for name in names], critical, cfg)
    return lanes, labels.is_critical[m.n_years - lanes.rows :]


# Builds a Verdict from one (year, prediction, membership, truth) tuple. Verdict._make
# adds only a length check, which zipping the four sequences already guarantees.
_verdict = partial(tuple.__new__, Verdict)


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
    origin, and leave-one-out patches the in-sample lanes of the critical
    years that sit alone on an envelope edge. The factors' lanes are summed
    once; one SWAR step against the quorum requirement gives x, y and the
    ``no_forecast`` total, and the sum's lanes unpack into the per-year
    membership counts of the verdicts.
    """
    lanes, truth = evaluation_lanes(m, labels, selection.names, cfg)
    required = cfg.rule.required(selection.n_factors)
    years = m.years[m.n_years - lanes.rows :]
    total = sum(lanes.factors)
    counts = lanes.counts(total)
    predictions = [
        "no_forecast" if count is None else "critical" if count >= required else "non_critical"
        for count in counts
    ]
    verdicts = tuple(map(_verdict, zip(years, predictions, counts, truth)))
    x, y, n_no_forecast = lanes.scorer(truth)(total, required)
    return BacktestResult(verdicts, x, y, precision(x, y), n_no_forecast)
