"""Threshold selection, next-year forecasting, and rolling backtests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcast import (
    BacktestConfig,
    CriticalThreshold,
    FactorSelection,
    QuorumRule,
    build_profile,
    evaluate_insample,
    label_critical,
    rolling_backtest,
    select_threshold,
)
from factorcast.backtest import Verdict
from factorcast.errors import InsufficientYears, LabelMismatch, LagTooLarge
from factorcast.matrix import TemporalMatrix
from factorcast.synth import PlantSpec, generate

from _reference_backtest import select_threshold as reference_select_threshold
from _support import random_instance


def make_matrix(incidence, **columns):
    n = len(incidence)
    years = tuple(range(2000, 2000 + n))
    return TemporalMatrix(years, incidence, tuple(columns), columns)


WORKED = make_matrix(
    (10.0, 3.0, 9.0, 2.0, 8.0, 4.0), f=(5.0, 4.0, 6.0, 1.0, 7.0, 5.5)
)


class TestSelectThreshold:
    def test_picks_largest_qualifying_observed_value(self):
        threshold = select_threshold(WORKED, 2)
        assert threshold.value == 9.0
        assert threshold.source == "selected"
        labels = label_critical(WORKED, threshold)
        assert labels.n_critical == 2

    def test_constant_series(self):
        m = make_matrix((5.0, 5.0, 5.0), f=(1.0, 2.0, 3.0))
        threshold = select_threshold(m, 2)
        assert threshold.value == 5.0
        assert label_critical(m, threshold).n_critical == 3

    def test_insufficient_years(self):
        m = TemporalMatrix((2000,), (1.0,), ("f",), {"f": (1.0,)})
        with pytest.raises(InsufficientYears):
            select_threshold(m, 2)

    def test_properties_on_random_instances(self):
        rng = random.Random(3)
        for _ in range(200):
            m, _, _, _ = random_instance(rng, n_min=4)
            min_critical = rng.randint(2, 3)
            if m.n_years < min_critical:
                continue
            threshold = select_threshold(m, min_critical)
            labels = label_critical(m, threshold)
            assert labels.n_critical >= min_critical
            larger = [v for v in set(m.incidence) if v > threshold.value]
            for candidate in larger:
                n = sum(1 for v in m.incidence if v >= candidate)
                assert n < min_critical

    # Few distinct values, so most candidates tie; 0.0 and -0.0 compare equal
    # but print differently, so the reported line must be the same one.
    TIE_VALUES = (0.0, -0.0, 1.0, 2.0, 2.0, 2.5, 7.0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_sort_matches_candidate_scan(self, data):
        incidence = data.draw(st.lists(st.sampled_from(self.TIE_VALUES), min_size=1, max_size=20))
        m = make_matrix(tuple(incidence), f=tuple(0.0 for _ in incidence))
        min_critical = data.draw(st.integers(0, m.n_years + 1))
        outcomes = []
        for select in (select_threshold, reference_select_threshold):
            try:
                threshold = select(m, min_critical)
            except (ValueError, InsufficientYears) as exc:
                outcomes.append(type(exc))
            else:
                outcomes.append((repr(threshold.value), threshold.source))
        assert outcomes[0] == outcomes[1]
        if 2 <= min_critical <= m.n_years:
            assert isinstance(outcomes[0], tuple)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_lag_selects_as_the_scan_over_the_lagged_window(self, data):
        incidence = data.draw(st.lists(st.sampled_from(self.TIE_VALUES), min_size=1, max_size=20))
        m = make_matrix(tuple(incidence), f=tuple(0.0 for _ in incidence))
        lag = data.draw(st.integers(0, m.n_years - 1))
        min_critical = data.draw(st.integers(2, m.n_years + 1))
        calls = (
            lambda: select_threshold(m, min_critical, lag),
            lambda: reference_select_threshold(m.window(lag, m.n_years), min_critical),
        )
        outcomes = []
        for select in calls:
            try:
                threshold = select()
            except InsufficientYears as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((repr(threshold.value), threshold.source))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("lag", (-1, 6))
    def test_lag_outside_the_series_raises(self, lag):
        with pytest.raises(LagTooLarge if lag > 0 else ValueError):
            select_threshold(WORKED, 2, lag)


def worked_backtest(threshold):
    """Rolling backtest of WORKED with q = 1, forecasting from its fourth year on."""
    threshold = CriticalThreshold(threshold)
    labels = label_critical(WORKED, threshold)
    cfg = BacktestConfig(QuorumRule(1.0), threshold, min_train_years=3)
    return labels, rolling_backtest(WORKED, labels, FactorSelection(("f",)), cfg)


class TestForecastNext:
    def test_too_few_criticals_gives_no_forecast(self):
        for threshold in (11.0, 10.0):  # 0 and 1 critical years
            labels, result = worked_backtest(threshold)
            assert labels.n_critical <= 1
            assert [v.year for v in result.verdicts] == [2003, 2004, 2005]
            for verdict in result.verdicts:
                assert verdict.prediction == "no_forecast"
                assert verdict.membership is None

    def test_inside_interval_is_critical(self):
        # 2000, 2002 and 2004 are critical, so 2005 (f = 5.5) is forecast from [5, 7].
        _, result = worked_backtest(8.0)
        verdict = result.verdicts[-1]
        assert verdict.year == 2005
        assert verdict.prediction == "critical"
        assert verdict.membership == 1

    def test_noiseless_planted_forecasts_match_truth(self):
        # Seeded instance whose training envelopes converge early enough
        # that every issued verdict agrees with the planted criticality.
        spec = PlantSpec(seed=9)
        m, truth = generate(spec)
        threshold = CriticalThreshold(spec.incidence_threshold)
        labels = label_critical(m, threshold)
        cfg = BacktestConfig(rule=QuorumRule(0.5), threshold=threshold)
        result = rolling_backtest(m, labels, FactorSelection.all_of(m), cfg)
        issued = [v for v in result.verdicts if v.prediction != "no_forecast"]
        assert issued
        for verdict in issued:
            assert (verdict.prediction == "critical") == verdict.truth


class TestRollingBacktest:
    def test_noiseless_planted_precision_is_one(self):
        spec = PlantSpec(seed=0)
        m, truth = generate(spec)
        threshold = CriticalThreshold(spec.incidence_threshold)
        labels = label_critical(m, threshold)
        cfg = BacktestConfig(rule=QuorumRule(0.75), threshold=threshold)
        result = rolling_backtest(m, labels, FactorSelection.all_of(m), cfg)
        assert result.x > 0
        assert result.y == 0
        assert result.p == 1.0

    def test_late_criticals_mean_no_forecasts(self):
        incidence = (1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 9.0, 9.0)
        m = make_matrix(incidence, f=tuple(float(i) for i in range(8)))
        labels = label_critical(m, CriticalThreshold(9.0))
        cfg = BacktestConfig(rule=QuorumRule(1.0), threshold=CriticalThreshold(9.0))
        result = rolling_backtest(m, labels, FactorSelection(("f",)), cfg)
        assert all(v.prediction == "no_forecast" for v in result.verdicts)
        assert result.n_no_forecast == len(result.verdicts) == m.n_years - cfg.min_train_years
        assert result.p is None

    def test_accounting(self):
        rng = random.Random(17)
        for _ in range(100):
            m, labels, selection, rule = random_instance(rng, n_min=6, n_max=12)
            cfg = BacktestConfig(
                rule=rule,
                threshold=labels.threshold,
                min_train_years=3,
            )
            result = rolling_backtest(m, labels, selection, cfg)
            n_critical_predictions = sum(
                1 for v in result.verdicts if v.prediction == "critical"
            )
            assert result.x + result.y == n_critical_predictions
            assert result.n_no_forecast == sum(
                1 for v in result.verdicts if v.prediction == "no_forecast"
            )

    @pytest.mark.parametrize("mode", ["rolling", "leave_one_out", "in_sample"])
    def test_result_types(self, mode):
        # JSON reports print a bool as true/false, so counts must be plain ints.
        rng = random.Random(29)
        for _ in range(30):
            m, labels, selection, rule = random_instance(rng, n_min=6, n_max=12)
            cfg = BacktestConfig(rule, labels.threshold, min_train_years=3, eval_mode=mode)
            result = rolling_backtest(m, labels, selection, cfg)
            assert type(result.verdicts) is tuple
            for v in result.verdicts:
                assert type(v) is Verdict
                assert type(v.year) is int and type(v.truth) is bool
                assert v.membership is None or type(v.membership) is int
            assert [type(n) for n in (result.x, result.y, result.n_no_forecast)] == [int] * 3

    def test_causality(self):
        rng = random.Random(23)
        m, labels, selection, rule = random_instance(rng, n_min=9, n_max=12)
        cfg = BacktestConfig(rule=rule, threshold=labels.threshold, min_train_years=3)
        baseline = rolling_backtest(m, labels, selection, cfg)
        cut = 6
        incidence = list(m.incidence)
        columns = {name: list(col) for name, col in m.columns.items()}
        for i in range(cut, m.n_years):
            incidence[i] = incidence[i] + 3.0
            for name in columns:
                columns[name][i] = columns[name][i] + 100.0
        mutated = TemporalMatrix(m.years, tuple(incidence), m.factor_names, columns)
        mutated_labels = label_critical(mutated, labels.threshold)
        rerun = rolling_backtest(mutated, mutated_labels, selection, cfg)
        cut_year = m.years[cut]
        before = [v for v in baseline.verdicts if v.year < cut_year]
        after = [v for v in rerun.verdicts if v.year < cut_year]
        assert before == after


class TestEvalModes:
    def test_in_sample_agrees_with_evaluate_insample(self):
        rng = random.Random(29)
        for _ in range(100):
            m, labels, selection, rule = random_instance(rng)
            cfg = BacktestConfig(
                rule=rule, threshold=labels.threshold, eval_mode="in_sample"
            )
            result = rolling_backtest(m, labels, selection, cfg)
            profile = build_profile(m, labels, selection)
            direct = evaluate_insample(m, labels, profile, rule)
            assert (result.x, result.y, result.p) == (direct.x, direct.y, direct.p)
            flagged = tuple(
                v.year for v in result.verdicts if v.prediction == "critical"
            )
            assert flagged == direct.flagged_years

    def test_leave_one_out_equals_in_sample_for_noncritical_years(self):
        rng = random.Random(31)
        for _ in range(100):
            m, labels, selection, rule = random_instance(rng)
            base = BacktestConfig(
                rule=rule, threshold=labels.threshold, eval_mode="in_sample"
            )
            insample = rolling_backtest(m, labels, selection, base)
            loo_cfg = BacktestConfig(
                rule=rule, threshold=labels.threshold, eval_mode="leave_one_out"
            )
            loo = rolling_backtest(m, labels, selection, loo_cfg)
            for v_in, v_loo in zip(insample.verdicts, loo.verdicts):
                if v_in.truth is False:
                    assert v_in == v_loo

    def test_leave_one_out_single_critical_gives_no_forecast(self):
        m = make_matrix((9.0, 1.0, 2.0, 1.0), f=(1.0, 2.0, 3.0, 4.0))
        labels = label_critical(m, CriticalThreshold(9.0))
        cfg = BacktestConfig(
            rule=QuorumRule(1.0),
            threshold=CriticalThreshold(9.0),
            eval_mode="leave_one_out",
        )
        result = rolling_backtest(m, labels, FactorSelection(("f",)), cfg)
        assert result.verdicts[0].prediction == "no_forecast"
        assert all(v.prediction != "no_forecast" for v in result.verdicts[1:])

    def test_n_forecasts_counts_issued_verdicts(self):
        m = make_matrix((9.0, 1.0, 2.0, 1.0), f=(1.0, 2.0, 3.0, 4.0))
        cfg = BacktestConfig(
            rule=QuorumRule(1.0),
            threshold=CriticalThreshold(9.0),
            eval_mode="leave_one_out",
        )
        labels = label_critical(m, cfg.threshold)
        result = rolling_backtest(m, labels, FactorSelection(("f",)), cfg)
        issued = sum(1 for v in result.verdicts if v.prediction != "no_forecast")
        assert result.n_forecasts == issued == 3
        assert result.n_no_forecast == 1

    def test_leave_one_out_excludes_the_year_itself(self):
        # Two criticals with distinct factor values: held-out envelopes are
        # point intervals at the other critical year's value.
        m = make_matrix((9.0, 1.0, 9.0, 1.0), f=(1.0, 5.0, 2.0, 2.0))
        labels = label_critical(m, CriticalThreshold(9.0))
        cfg = BacktestConfig(
            rule=QuorumRule(1.0),
            threshold=CriticalThreshold(9.0),
            eval_mode="leave_one_out",
        )
        result = rolling_backtest(m, labels, FactorSelection(("f",)), cfg)
        by_year = {v.year: v for v in result.verdicts}
        # year 2000 (value 1.0) vs envelope [2.0, 2.0] -> non_critical
        assert by_year[2000].prediction == "non_critical"
        # year 2002 (value 2.0) vs envelope [1.0, 1.0] -> non_critical
        assert by_year[2002].prediction == "non_critical"
        # non-critical year 2003 (value 2.0) vs full envelope [1.0, 2.0] -> critical
        assert by_year[2003].prediction == "critical"

    def test_zero_criticals_all_no_forecast(self):
        m = make_matrix((1.0, 1.0, 1.0, 1.0), f=(1.0, 2.0, 3.0, 4.0))
        labels = label_critical(m, CriticalThreshold(9.0))
        for mode in ("in_sample", "leave_one_out"):
            cfg = BacktestConfig(
                rule=QuorumRule(1.0), threshold=CriticalThreshold(9.0), eval_mode=mode
            )
            result = rolling_backtest(m, labels, FactorSelection(("f",)), cfg)
            assert all(v.prediction == "no_forecast" for v in result.verdicts)
            assert result.p is None


class TestConfig:
    def test_validation(self):
        rule = QuorumRule(1.0)
        threshold = CriticalThreshold(1.0)
        with pytest.raises(ValueError):
            BacktestConfig(rule=rule, threshold=threshold, min_train_critical=1)
        with pytest.raises(ValueError):
            BacktestConfig(rule=rule, threshold=threshold, min_train_years=2)
        with pytest.raises(ValueError):
            BacktestConfig(rule=rule, threshold=threshold, eval_mode="bogus")

    def test_non_finite_widen_eps_rejected(self):
        rule, threshold = QuorumRule(1.0), CriticalThreshold(1.0)
        for eps in (float("nan"), float("inf"), -0.5):
            with pytest.raises(ValueError):
                BacktestConfig(rule=rule, threshold=threshold, widen_eps=eps)

    def test_year_mismatch_raises_label_mismatch(self):
        labels = label_critical(WORKED.window(0, 5), CriticalThreshold(8.0))
        for mode in ("rolling", "leave_one_out", "in_sample"):
            cfg = BacktestConfig(
                rule=QuorumRule(1.0), threshold=CriticalThreshold(8.0), eval_mode=mode
            )
            with pytest.raises(LabelMismatch):
                rolling_backtest(WORKED, labels, FactorSelection(("f",)), cfg)

    def test_threshold_mismatch_rejected(self):
        labels = label_critical(WORKED, CriticalThreshold(8.0))
        cfg = BacktestConfig(rule=QuorumRule(1.0), threshold=CriticalThreshold(9.0))
        with pytest.raises(ValueError):
            rolling_backtest(WORKED, labels, FactorSelection(("f",)), cfg)
