"""Matrix parsing, validation and labeling, and the evaluation lag."""

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
    label_critical,
    parse_matrix,
    rolling_backtest,
)
from factorcast.backtest import EVAL_MODES
from factorcast.errors import (
    DuplicateYear,
    EmptySelection,
    LagTooLarge,
    MatrixError,
    MissingCell,
    NoCriticalYears,
    NoFactors,
    NonNumericCell,
    TooFewRows,
    UnknownFactor,
)
from factorcast.matrix import TemporalMatrix
from factorcast.sweeps import SweepSpec, quorum_sweep

from _support import lagged_matrix, random_instance, random_matrix

THREE_YEARS = "year,incidence,jan_temp\n1990,12,-15.5\n1991,3,-12.0\n1992,9,-14.1\n"


def make_matrix(incidence, **columns):
    n = len(incidence)
    years = tuple(range(2000, 2000 + n))
    return TemporalMatrix(years, incidence, tuple(columns), columns)


class TestParse:
    def test_three_year_single_factor(self):
        m = parse_matrix(THREE_YEARS)
        assert m.n_years == 3
        assert m.n_factors == 1
        assert m.years == (1990, 1991, 1992)
        assert m.incidence == (12.0, 3.0, 9.0)
        assert m.factor_values("jan_temp") == (-15.5, -12.0, -14.1)

    def test_duplicate_year(self):
        text = "year,incidence,f\n1990,1,2\n1990,3,4\n1991,5,6\n"
        with pytest.raises(DuplicateYear) as err:
            parse_matrix(text)
        assert err.value.year == 1990

    def test_non_numeric_cell(self):
        text = "year,incidence,f\n1990,1,2\n1991,3,n/a\n1992,5,6\n"
        with pytest.raises(NonNumericCell) as err:
            parse_matrix(text)
        assert err.value.row == 3
        assert err.value.column == "f"

    def test_non_finite_cell_rejected(self):
        text = "year,incidence,f\n1990,1,2\n1991,3,nan\n1992,5,6\n"
        with pytest.raises(NonNumericCell):
            parse_matrix(text)
        text = "year,incidence,f\n1990,1,inf\n1991,3,4\n1992,5,6\n"
        with pytest.raises(NonNumericCell):
            parse_matrix(text)

    def test_missing_cell(self):
        text = "year,incidence,f\n1990,1,2\n1991,3\n1992,5,6\n"
        with pytest.raises(MissingCell) as err:
            parse_matrix(text)
        assert (err.value.row, err.value.column) == (3, "f")

    def test_empty_cell(self):
        text = "year,incidence,f\n1990,1,2\n1991,,4\n1992,5,6\n"
        with pytest.raises(MissingCell) as err:
            parse_matrix(text)
        assert err.value.column == "incidence"

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            parse_matrix("year,incidence,f\n1990,1,2\n1991,3,4\n")

    def test_no_factors(self):
        with pytest.raises(NoFactors):
            parse_matrix("year,incidence\n1990,1\n1991,2\n1992,3\n")

    def test_bad_header(self):
        with pytest.raises(MatrixError):
            parse_matrix("date,incidence,f\n1990,1,2\n1991,3,4\n1992,5,6\n")

    def test_rows_normalized_to_increasing_year(self):
        shuffled = "year,incidence,f\n1992,9,3\n1990,12,1\n1991,3,2\n"
        m = parse_matrix(shuffled)
        assert m.years == (1990, 1991, 1992)
        assert m.factor_values("f") == (1.0, 2.0, 3.0)

    def test_negative_incidence_rejected(self):
        with pytest.raises(MatrixError):
            parse_matrix("year,incidence,f\n1990,-1,2\n1991,3,4\n1992,5,6\n")

    @settings(max_examples=60)
    @given(st.integers(0, 2**32))
    def test_roundtrip_csv(self, seed):
        rng = random.Random(seed)
        m = random_matrix(rng)
        assert parse_matrix(m.to_csv()) == m

    def test_roundtrip_awkward_floats(self):
        values = (0.1, 1e-17, 123456789.123456789)
        m = TemporalMatrix((1, 2, 3), (0.30000000000000004, 2.0, 9.9), ("f",), {"f": values})
        assert parse_matrix(m.to_csv()) == m


class TestLabeling:
    def test_boundary_equality_is_critical(self):
        m = make_matrix((10.0, 3.0, 9.0), f=(1.0, 2.0, 3.0))
        labels = label_critical(m, CriticalThreshold(9.0))
        assert labels.is_critical == (True, False, True)

    def test_threshold_above_range(self):
        m = make_matrix((10.0, 3.0, 9.0), f=(1.0, 2.0, 3.0))
        labels = label_critical(m, CriticalThreshold(11.0))
        assert labels.n_critical == 0

    def test_threshold_below_range(self):
        m = make_matrix((10.0, 3.0, 9.0), f=(1.0, 2.0, 3.0))
        labels = label_critical(m, CriticalThreshold(-1e9))
        assert labels.n_critical == 3

    def test_counts(self):
        m = make_matrix((10.0, 3.0, 9.0), f=(1.0, 2.0, 3.0))
        labels = label_critical(m, CriticalThreshold(9.0))
        assert labels.n_critical == 2
        assert [y for y, c in zip(labels.years, labels.is_critical) if c] == [2000, 2002]

    @settings(max_examples=80)
    @given(st.integers(0, 2**32), st.floats(-5, 5), st.floats(0, 5))
    def test_monotone_in_threshold(self, seed, c, bump):
        rng = random.Random(seed)
        m = random_matrix(rng)
        low = label_critical(m, CriticalThreshold(c))
        high = label_critical(m, CriticalThreshold(c + bump))
        for was, now in zip(low.is_critical, high.is_critical):
            assert not (now and not was)


class TestLag:
    """A lag of L in the evaluation equals lag 0 on the matrix lagged by hand."""

    def test_lag_one_alignment(self):
        m = make_matrix((1.0, 2.0, 3.0, 4.0, 5.0), f=(10.0, 20.0, 30.0, 40.0, 50.0))
        labels = label_critical(m, CriticalThreshold(4.0))
        selection = FactorSelection(("f",))
        # 2003 and 2004 are critical; a lag of 1 envelopes the factor of 2002 and 2003.
        profile = build_profile(m, labels, selection, lag=1)
        assert (profile.intervals[0].lo, profile.intervals[0].hi) == (30.0, 40.0)
        cfg = BacktestConfig(QuorumRule(1.0), labels.threshold, eval_mode="in_sample", lag=1)
        result = rolling_backtest(m, labels, selection, cfg)
        assert [(v.year, v.membership, v.truth) for v in result.verdicts] == [
            (2001, 0, False),
            (2002, 0, False),
            (2003, 1, True),
            (2004, 1, True),
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_lag_equals_the_lagged_matrix(self, seed, data):
        rng = random.Random(seed)
        m, labels, _, rule = random_instance(rng, n_min=4, n_max=14)
        names = data.draw(st.permutations(m.factor_names))[: data.draw(st.integers(1, m.n_factors))]
        selection = FactorSelection(names)
        lag = data.draw(st.integers(0, m.n_years - 1))
        lagged = lagged_matrix(m, names, lag)
        lagged_labels = label_critical(lagged, labels.threshold)
        eps = data.draw(st.sampled_from((0.0, 0.5)))
        for mode in EVAL_MODES:
            cfg = BacktestConfig(rule, labels.threshold, 3, 2, mode, eps, lag)
            plain = BacktestConfig(rule, labels.threshold, 3, 2, mode, eps)
            got = rolling_backtest(m, labels, selection, cfg)
            assert got == rolling_backtest(lagged, lagged_labels, selection, plain)
            grid = (0.25, 0.5, 1.0)
            got = quorum_sweep(m, labels, SweepSpec("quorum", selection, cfg, grid))
            want = quorum_sweep(lagged, lagged_labels, SweepSpec("quorum", selection, plain, grid))
            assert got == want
        if lagged_labels.n_critical:
            want = build_profile(lagged, lagged_labels, selection, eps)
            assert build_profile(m, labels, selection, eps, lag) == want
        else:
            with pytest.raises(NoCriticalYears):
                build_profile(m, labels, selection, eps, lag)

    @pytest.mark.parametrize("mode", EVAL_MODES)
    def test_lag_of_the_series_length_raises(self, mode):
        m = make_matrix((1.0, 2.0, 3.0, 4.0, 5.0), f=(1.0, 2.0, 3.0, 4.0, 5.0))
        labels = label_critical(m, CriticalThreshold(3.0))
        selection = FactorSelection(("f",))
        for lag in (5, 6):
            cfg = BacktestConfig(QuorumRule(1.0), labels.threshold, 3, 2, mode, lag=lag)
            with pytest.raises(LagTooLarge):
                rolling_backtest(m, labels, selection, cfg)
            with pytest.raises(LagTooLarge):
                build_profile(m, labels, selection, lag=lag)


class TestSelection:
    def test_unknown_factor(self):
        m = parse_matrix(THREE_YEARS)
        with pytest.raises(UnknownFactor):
            FactorSelection(("nope",)).validate_against(m)

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            FactorSelection(())


class TestConstruction:
    def test_years_must_increase(self):
        with pytest.raises(MatrixError):
            TemporalMatrix((2001, 2000), (1.0, 2.0), ("f",), {"f": (1.0, 2.0)})

    def test_duplicate_years(self):
        with pytest.raises(DuplicateYear):
            TemporalMatrix((2000, 2000), (1.0, 2.0), ("f",), {"f": (1.0, 2.0)})

    def test_column_length_mismatch(self):
        with pytest.raises(MatrixError):
            TemporalMatrix((2000, 2001), (1.0, 2.0), ("f",), {"f": (1.0,)})

    def test_columns_are_read_only(self, worked_example):
        name = worked_example.factor_names[0]
        column = worked_example.columns[name]
        with pytest.raises(TypeError):
            worked_example.columns[name] = (float("nan"),) * worked_example.n_years
        with pytest.raises(TypeError):
            del worked_example.columns[name]
        assert worked_example.columns[name] == column

    def test_window(self):
        m = make_matrix((1.0, 2.0, 3.0, 4.0), f=(1.0, 2.0, 3.0, 4.0))
        assert m.window(0, 2).years == (2000, 2001)
        assert m.window(m.n_years - 2, m.n_years).years == (2002, 2003)
        assert m.window(1, 3).incidence == (2.0, 3.0)
