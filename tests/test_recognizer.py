"""Interval profile construction, quorum classification, and precision."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcast import (
    CriticalThreshold,
    FactorSelection,
    QuorumRule,
    build_profile,
    evaluate_insample,
    label_critical,
)
from factorcast.errors import (
    InvalidQuorum,
    MissingFactorValue,
    NoCriticalYears,
)
from factorcast.matrix import TemporalMatrix
from factorcast.recognizer import FactorInterval, IntervalProfile, membership_count, precision
from factorcast.synth import oracle_evaluate

from _support import random_instance


def labeled(incidence, threshold, **columns):
    n = len(incidence)
    years = tuple(range(2000, 2000 + n))
    m = TemporalMatrix(years, incidence, tuple(columns), columns)
    return m, label_critical(m, CriticalThreshold(threshold))


class TestBuildProfile:
    def test_min_max_envelope(self):
        m, labels = labeled(
            (9.0, 9.0, 9.0, 1.0), 5.0, jan_temp=(-18.2, -15.0, -16.7, -30.0)
        )
        profile = build_profile(m, labels, FactorSelection(("jan_temp",)))
        (interval,) = profile.intervals
        assert (interval.lo, interval.hi) == (-18.2, -15.0)
        assert profile.n_critical_train == 3

    def test_single_critical_point_interval(self):
        m, labels = labeled((9.0, 1.0, 1.0), 5.0, f=(4.2, 0.0, 1.0))
        profile = build_profile(m, labels, FactorSelection(("f",)))
        (interval,) = profile.intervals
        assert (interval.lo, interval.hi) == (4.2, 4.2)

    def test_no_critical_years(self):
        m, labels = labeled((1.0, 2.0, 3.0), 99.0, f=(1.0, 2.0, 3.0))
        with pytest.raises(NoCriticalYears):
            build_profile(m, labels, FactorSelection(("f",)))

    def test_training_years_inside_own_envelope(self):
        rng = random.Random(7)
        for _ in range(50):
            m, labels, selection, _ = random_instance(rng)
            profile = build_profile(m, labels, selection)
            for i, critical in enumerate(labels.is_critical):
                if critical:
                    row = {name: m.factor_values(name)[i] for name in m.factor_names}
                    assert membership_count(row, profile) == selection.n_factors


class TestMembership:
    def test_direct_count(self):
        profile = IntervalProfile(
            (FactorInterval("a", 0.0, 2.0), FactorInterval("b", 6.0, 7.0)), 1
        )
        assert membership_count({"a": 1.0, "b": 5.0}, profile) == 1

    def test_boundary_is_inside(self):
        profile = IntervalProfile((FactorInterval("a", 0.0, 2.0),), 1)
        assert membership_count({"a": 2.0}, profile) == 1
        assert membership_count({"a": 0.0}, profile) == 1
        assert membership_count({"a": 2.0000001}, profile) == 0

    def test_all_inside(self):
        profile = IntervalProfile(
            (FactorInterval("a", 0.0, 2.0), FactorInterval("b", 6.0, 7.0)), 1
        )
        assert membership_count({"a": 1.0, "b": 6.5}, profile) == 2

    def test_missing_factor(self):
        profile = IntervalProfile((FactorInterval("a", 0.0, 2.0),), 1)
        with pytest.raises(MissingFactorValue):
            membership_count({"b": 1.0}, profile)

    def test_non_finite_bounds_rejected(self):
        nan, inf = float("nan"), float("inf")
        for lo, hi, eps in ((nan, 1.0, 0.0), (0.0, nan, 0.0), (-inf, 1.0, 0.0),
                            (0.0, inf, 0.0), (0.0, 1.0, nan), (0.0, 1.0, inf)):
            with pytest.raises(ValueError):
                FactorInterval("a", lo, hi, eps)

    def test_widen_eps(self):
        profile = IntervalProfile((FactorInterval("a", 1.0, 1.0, widen_eps=0.5),), 1)
        assert membership_count({"a": 1.4}, profile) == 1
        assert membership_count({"a": 1.6}, profile) == 0


class TestClassify:
    def test_ceiling_arithmetic(self):
        profile = IntervalProfile(
            tuple(FactorInterval(name, 0.0, 1.0) for name in "abcd"), 1
        )
        inside3 = {"a": 0.5, "b": 0.5, "c": 0.5, "d": 9.0}
        inside2 = {"a": 0.5, "b": 0.5, "c": 9.0, "d": 9.0}
        required = QuorumRule(0.75).required(profile.n_factors)
        assert membership_count(inside3, profile) >= required
        assert membership_count(inside2, profile) < required

    def test_full_quorum_requires_all(self):
        profile = IntervalProfile(
            tuple(FactorInterval(name, 0.0, 1.0) for name in "abc"), 1
        )
        all_in = {"a": 0.5, "b": 0.5, "c": 0.5}
        one_out = {"a": 0.5, "b": 0.5, "c": 2.0}
        required = QuorumRule(1.0).required(profile.n_factors)
        assert membership_count(all_in, profile) >= required
        assert membership_count(one_out, profile) < required

    def test_required_counts(self):
        assert QuorumRule(0.75).required(4) == 3
        assert QuorumRule(0.5).required(3) == 2
        assert QuorumRule(1.0).required(8) == 8
        assert QuorumRule(0.01).required(4) == 1

    def test_invalid_quorum(self):
        with pytest.raises(InvalidQuorum):
            QuorumRule(0.0)
        with pytest.raises(InvalidQuorum):
            QuorumRule(1.5)


class TestEvaluate:
    def test_worked_example(self):
        m, labels = labeled(
            (10.0, 3.0, 9.0, 2.0, 8.0, 4.0), 8.0, f=(5.0, 4.0, 6.0, 1.0, 7.0, 5.5)
        )
        selection = FactorSelection(("f",))
        profile = build_profile(m, labels, selection)
        result = evaluate_insample(m, labels, profile, QuorumRule(1.0))
        assert (result.x, result.y, result.p) == (3, 1, 0.75)
        assert result.flagged_years == (2000, 2002, 2004, 2005)
        oracle = oracle_evaluate(m, labels, selection, QuorumRule(1.0))
        assert oracle == result

    def test_recall_by_construction(self):
        rng = random.Random(11)
        for _ in range(50):
            m, labels, selection, _ = random_instance(rng)
            profile = build_profile(m, labels, selection)
            result = evaluate_insample(m, labels, profile, QuorumRule(1.0))
            assert result.x == labels.n_critical

    def test_disjoint_training_can_flag_nothing(self):
        train, train_labels = labeled((9.0, 9.0, 1.0), 5.0, f=(1.0, 2.0, 1.5))
        profile = build_profile(train, train_labels, FactorSelection(("f",)))
        other, other_labels = labeled((1.0, 1.0, 1.0), 5.0, f=(5.0, 6.0, 7.0))
        result = evaluate_insample(other, other_labels, profile, QuorumRule(1.0))
        assert result.flagged_years == ()
        assert result.p is None

    def test_accounting_invariants(self):
        rng = random.Random(13)
        for _ in range(100):
            m, labels, selection, rule = random_instance(rng)
            profile = build_profile(m, labels, selection)
            result = evaluate_insample(m, labels, profile, rule)
            assert result.x + result.y == len(result.flagged_years)
            assert result.x <= labels.n_critical
            if result.p is not None:
                assert 0.0 <= result.p <= 1.0


class TestProperties:
    @settings(max_examples=100)
    @given(st.integers(0, 2**32))
    def test_quorum_monotone(self, seed):
        rng = random.Random(seed)
        m, labels, selection, _ = random_instance(rng)
        profile = build_profile(m, labels, selection)
        q1, q2 = sorted((rng.choice([0.3, 0.5, 0.75, 1.0]), rng.choice([0.3, 0.5, 0.75, 1.0])))
        loose = evaluate_insample(m, labels, profile, QuorumRule(q1))
        strict = evaluate_insample(m, labels, profile, QuorumRule(q2))
        assert set(strict.flagged_years) <= set(loose.flagged_years)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32))
    def test_adding_factor_shrinks_flags_at_full_quorum(self, seed):
        rng = random.Random(seed)
        m, labels, selection, _ = random_instance(rng, f_max=4)
        if selection.n_factors < 2:
            return
        smaller = FactorSelection(selection.names[:-1])
        rule = QuorumRule(1.0)
        profile_small = build_profile(m, labels, smaller)
        profile_full = build_profile(m, labels, selection)
        flags_small = evaluate_insample(m, labels, profile_small, rule).flagged_years
        flags_full = evaluate_insample(m, labels, profile_full, rule).flagged_years
        assert set(flags_full) <= set(flags_small)

    @settings(max_examples=100)
    @given(st.integers(0, 2**32))
    def test_monotone_transform_invariance(self, seed):
        rng = random.Random(seed)
        m, labels, selection, rule = random_instance(rng)
        name = rng.choice(selection.names)
        transform = rng.choice([lambda v: 2.0 * v + 1.0, lambda v: v**3])
        columns = dict(m.columns)
        columns[name] = tuple(transform(v) for v in columns[name])
        warped = TemporalMatrix(m.years, m.incidence, m.factor_names, columns)
        base = evaluate_insample(m, labels, build_profile(m, labels, selection), rule)
        mapped = evaluate_insample(
            warped, labels, build_profile(warped, labels, selection), rule
        )
        assert base.flagged_years == mapped.flagged_years
        assert (base.x, base.y, base.p) == (mapped.x, mapped.y, mapped.p)


class TestPrecision:
    def test_values(self):
        assert precision(2, 2) == 0.5
        assert precision(3, 0) == 1.0
        assert precision(0, 0) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            precision(-1, 0)
