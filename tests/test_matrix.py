"""Matrix parsing, validation, labeling, and alignment transforms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcast import CriticalThreshold, FactorSelection, label_critical, parse_matrix
from factorcast.errors import (
    DuplicateYear,
    EmptySelection,
    LagTooLarge,
    MatrixError,
    MissingCell,
    NoFactors,
    NonNumericCell,
    TooFewRows,
    UnknownFactor,
)
from factorcast.matrix import TemporalMatrix, apply_uniform_lag

from _support import random_matrix

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
    def test_lag_zero_identity(self):
        m = parse_matrix(THREE_YEARS)
        assert apply_uniform_lag(m, ("jan_temp",), 0) is m

    def test_lag_one_alignment(self):
        m = make_matrix(
            (1.0, 2.0, 3.0, 4.0, 5.0), f=(10.0, 20.0, 30.0, 40.0, 50.0)
        )
        lagged = apply_uniform_lag(m, ("f",), 1)
        assert lagged.n_years == 4
        assert lagged.years == (2001, 2002, 2003, 2004)
        # 2001's factor value comes from 2000
        assert lagged.factor_values("f") == (10.0, 20.0, 30.0, 40.0)
        assert lagged.incidence == (2.0, 3.0, 4.0, 5.0)

    def test_other_factors_unshifted(self):
        m = make_matrix(
            (1.0, 2.0, 3.0, 4.0),
            a=(10.0, 20.0, 30.0, 40.0),
            b=(1.5, 2.5, 3.5, 4.5),
        )
        lagged = apply_uniform_lag(m, ("a",), 1)
        assert lagged.factor_values("a") == (10.0, 20.0, 30.0)
        assert lagged.factor_values("b") == (2.5, 3.5, 4.5)

    def test_lag_too_large(self):
        m = make_matrix((1.0, 2.0, 3.0, 4.0, 5.0), f=(1.0, 2.0, 3.0, 4.0, 5.0))
        with pytest.raises(LagTooLarge):
            apply_uniform_lag(m, ("f",), 5)

    def test_unknown_factor(self):
        m = parse_matrix(THREE_YEARS)
        with pytest.raises(UnknownFactor):
            apply_uniform_lag(m, ("nope",), 1)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32), st.integers(0, 2), st.integers(0, 2))
    def test_lag_composition(self, seed, l1, l2):
        rng = random.Random(seed)
        m = random_matrix(rng, n_min=8, n_max=12)
        name = m.factor_names[0]
        twice = apply_uniform_lag(apply_uniform_lag(m, (name,), l1), (name,), l2)
        once = apply_uniform_lag(m, (name,), l1 + l2)
        assert twice == once

    def test_uniform_lag_drops_rows_once(self):
        m = make_matrix(
            (1.0, 2.0, 3.0, 4.0),
            a=(10.0, 20.0, 30.0, 40.0),
            b=(1.5, 2.5, 3.5, 4.5),
        )
        lagged = apply_uniform_lag(m, ("a", "b"), 1)
        assert lagged.n_years == 3
        assert lagged.factor_values("a") == (10.0, 20.0, 30.0)
        assert lagged.factor_values("b") == (1.5, 2.5, 3.5)


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
