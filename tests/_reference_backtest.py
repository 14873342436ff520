"""Test-only slow references for the backtest modes and threshold selection.

``select_threshold`` is the scan over every distinct candidate that one sort
replaced. ``reference_backtest`` is the per-origin replay that the membership
kernel replaced, kept verbatim so that tests can compare the kernel with it:
the rolling mode builds a prefix matrix at every origin, relabels it and
rebuilds every envelope; leave-one-out relabels and rebuilds the profile once per held-out
critical year. Membership is counted with the plain interval loop below, not
with the kernel, and rows are read as dicts by ``row_factors``, so the two
paths share nothing past ``build_profile``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from factorcast.backtest import BacktestConfig, BacktestResult, Verdict
from factorcast.errors import InsufficientYears, MissingFactorValue
from factorcast.matrix import (
    CriticalLabels,
    CriticalThreshold,
    FactorSelection,
    TemporalMatrix,
    label_critical,
)
from factorcast.recognizer import IntervalProfile, QuorumRule, build_profile, precision


def select_threshold(m: TemporalMatrix, min_critical: int = 2) -> CriticalThreshold:
    """Largest observed incidence value that still yields >= min_critical criticals.

    Candidate thresholds are the observed incidence values themselves, since
    labelings only change there. The most extreme qualifying line is chosen;
    an expert-given line can always be used instead.
    """
    if min_critical < 2:
        raise ValueError("min_critical must be at least 2")
    if m.n_years < min_critical:
        raise InsufficientYears(m.n_years, min_critical)
    for candidate in sorted(set(m.incidence), reverse=True):
        n_critical = sum(1 for v in m.incidence if v >= candidate)
        if n_critical >= min_critical:
            return CriticalThreshold(candidate, "selected")
    raise AssertionError("minimum incidence always qualifies")  # pragma: no cover


def row_factors(m: TemporalMatrix, index: int, names: Sequence[str]) -> dict[str, float]:
    """Factor values of one year row, keyed by factor name."""
    return {name: m.factor_values(name)[index] for name in names}


def membership_count(year_factors: Mapping[str, float], profile: IntervalProfile) -> int:
    """Number of profile intervals the year's factor values fall inside."""
    count = 0
    for interval in profile.intervals:
        try:
            value = year_factors[interval.factor]
        except KeyError:
            raise MissingFactorValue(interval.factor) from None
        if interval.lo - interval.widen_eps <= value <= interval.hi + interval.widen_eps:
            count += 1
    return count


def forecast_next(
    train: TemporalMatrix,
    train_labels: CriticalLabels,
    selection: FactorSelection,
    rule: QuorumRule,
    next_factors: Mapping[str, float],
    *,
    min_train_critical: int = 2,
    widen_eps: float = 0.0,
    year: int | None = None,
) -> Verdict:
    """Forecast the year after the training window from its factor values.

    Issues ``no_forecast`` when the window has fewer than
    ``min_train_critical`` critical years; by default more than one critical
    year is required before any forecast is made.
    """
    if year is None:
        year = train.years[-1] + 1
    if train_labels.n_critical < min_train_critical:
        return Verdict(year, "no_forecast")
    profile = build_profile(train, train_labels, selection, widen_eps)
    count = membership_count(next_factors, profile)
    flagged = count >= rule.required(profile.n_factors)
    return Verdict(year, "critical" if flagged else "non_critical", count)


def _aggregate(verdicts: list[Verdict]) -> BacktestResult:
    x = sum(1 for v in verdicts if v.prediction == "critical" and v.truth is True)
    y = sum(1 for v in verdicts if v.prediction == "critical" and v.truth is False)
    n_no_forecast = sum(1 for v in verdicts if v.prediction == "no_forecast")
    return BacktestResult(tuple(verdicts), x, y, precision(x, y), n_no_forecast)


def reference_backtest(
    m: TemporalMatrix,
    labels: CriticalLabels,
    selection: FactorSelection,
    cfg: BacktestConfig,
) -> BacktestResult:
    """The slow replay of ``factorcast.backtest.rolling_backtest``, mode for mode.

    rolling
        For every origin t from ``min_train_years`` to n-1, train on years
        1..t only and forecast year t+1. Future rows are never read, so
        verdicts are causal.
    in_sample
        Classify every year against the profile built from all critical
        years; agrees exactly with :func:`recognizer.evaluate_insample`.
    leave_one_out
        Classify each year against the profile built from all critical years
        except itself (when it is critical); equals in_sample for
        non-critical years.
    """
    if labels.years != m.years:
        raise ValueError("labels were built for a different set of years")
    if labels.threshold.value != cfg.threshold.value:
        raise ValueError("labels threshold differs from backtest config threshold")
    selection.validate_against(m)

    if cfg.eval_mode == "rolling":
        verdicts = _rolling_verdicts(m, labels, selection, cfg)
    elif cfg.eval_mode == "in_sample":
        verdicts = _insample_verdicts(m, labels, selection, cfg, leave_one_out=False)
    else:
        verdicts = _insample_verdicts(m, labels, selection, cfg, leave_one_out=True)
    return _aggregate(verdicts)


def _rolling_verdicts(
    m: TemporalMatrix,
    labels: CriticalLabels,
    selection: FactorSelection,
    cfg: BacktestConfig,
) -> list[Verdict]:
    verdicts = []
    for t in range(cfg.min_train_years, m.n_years):
        train = m.window(0, t)
        train_labels = label_critical(train, labels.threshold)
        verdict = forecast_next(
            train,
            train_labels,
            selection,
            cfg.rule,
            row_factors(m, t, selection.names),
            min_train_critical=cfg.min_train_critical,
            widen_eps=cfg.widen_eps,
            year=m.years[t],
        )
        verdicts.append(verdict._replace(truth=labels.is_critical[t]))
    return verdicts


def _insample_verdicts(
    m: TemporalMatrix,
    labels: CriticalLabels,
    selection: FactorSelection,
    cfg: BacktestConfig,
    leave_one_out: bool,
) -> list[Verdict]:
    # Zero criticals means no profile can be built: every year is an
    # explicit no_forecast rather than an error.
    if labels.n_critical == 0:
        return [
            Verdict(year, "no_forecast", truth=labels.is_critical[i])
            for i, year in enumerate(m.years)
        ]
    full_profile = build_profile(m, labels, selection, cfg.widen_eps)
    required = cfg.rule.required(full_profile.n_factors)
    verdicts = []
    for i, year in enumerate(m.years):
        profile = full_profile
        if leave_one_out and labels.is_critical[i]:
            if labels.n_critical == 1:
                verdicts.append(Verdict(year, "no_forecast", truth=True))
                continue
            flags = list(labels.is_critical)
            flags[i] = False
            held_out = CriticalLabels(labels.years, tuple(flags), labels.threshold)
            profile = build_profile(m, held_out, selection, cfg.widen_eps)
        count = membership_count(row_factors(m, i, selection.names), profile)
        prediction = "critical" if count >= required else "non_critical"
        verdicts.append(Verdict(year, prediction, count, labels.is_critical[i]))
    return verdicts
