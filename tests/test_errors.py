"""Contract of the error classes.

Each ``FactorcastError`` subclass keeps its constructor arguments as
``args`` and under their names, prints a fixed message, refuses a call with
too few or too many arguments, and survives ``pickle`` and ``copy``, so a
data error raised in a worker process reaches the caller as itself.
"""

import copy
import inspect
import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from factorcast import errors
from factorcast.errors import FactorcastError, NonNumericCell
from factorcast.matrix import parse_matrix

# class: (constructor arguments, message, named attributes)
CASES = {
    errors.FactorcastError: (("any text",), "any text", {}),
    errors.MatrixError: (("cannot read input 'x.csv'",), "cannot read input 'x.csv'", {}),
    errors.DuplicateYear: ((1990,), "duplicate year 1990", {"year": 1990}),
    errors.NonNumericCell: (
        (3, "a", "x"),
        "non-numeric value in row 3, column 'a' ('x')",
        {"row": 3, "column": "a", "text": "x"},
    ),
    errors.MissingCell: ((4, "b"), "missing value in row 4, column 'b'", {"row": 4, "column": "b"}),
    errors.TooFewRows: (
        (2, 3),
        "matrix has 2 year rows, at least 3 required",
        {"n_rows": 2, "minimum": 3},
    ),
    errors.NoFactors: ((), "matrix has no factor columns", {}),
    errors.UnknownFactor: (("z",), "unknown factor 'z'", {"name": "z"}),
    errors.DuplicateFactor: (("a",), "duplicate factor 'a'", {"name": "a"}),
    errors.EmptySelection: ((), "factor selection is empty", {}),
    errors.LagTooLarge: ((5, 4), "lag 5 too large for 4-year series", {"lag": 5, "n_years": 4}),
    errors.LabelMismatch: ((), "labels were built for a different set of years", {}),
    errors.NoCriticalYears: ((), "labeling contains no critical years", {}),
    errors.MissingFactorValue: (("q",), "no value supplied for factor 'q'", {"name": "q"}),
    errors.InvalidQuorum: ((1.5,), "quorum must be a fraction in (0, 1], got 1.5", {"q": 1.5}),
    errors.InvalidThreshold: (
        (float("inf"),),
        "threshold must be finite, got inf",
        {"value": float("inf")},
    ),
    errors.InsufficientYears: (
        (3, 5),
        "series has 3 years, at least 5 required",
        {"n_years": 3, "required": 5},
    ),
    errors.InsufficientCriticalYears: (
        (1, 2),
        "labeling yields 1 critical years, at least 2 required",
        {"n_critical": 1, "required": 2},
    ),
    errors.TooManyFactors: (
        (20, 16),
        "subset enumeration over 20 factors exceeds the 16-factor bound",
        {"n_factors": 20, "maximum": 16},
    ),
    errors.WindowTooShort: (
        (4, 6),
        "window of 4 years is shorter than the minimum 6",
        {"length": 4, "minimum": 6},
    ),
    errors.InvalidSpec: (("n_factors must be at least 1",), "n_factors must be at least 1", {}),
    errors.ProfileError: (("not a factorcast profile document",), "not a factorcast profile document", {}),
}

CLASSES = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


def test_table_covers_every_error_class():
    defined = {
        obj
        for obj in vars(errors).values()
        if inspect.isclass(obj) and issubclass(obj, FactorcastError)
    }
    assert defined == set(CASES)


@CLASSES
def test_message(cls):
    args, message, _ = CASES[cls]
    assert str(cls(*args)) == message


@CLASSES
def test_arguments_attributes_pickle_and_copy(cls):
    args, message, attributes = CASES[cls]
    e = cls(*args)
    for twin in (e, pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert type(twin) is cls
        assert twin.args == args
        assert str(twin) == message
        for name, value in attributes.items():
            assert getattr(twin, name) == value


# The classes whose one argument is their free-form message, as for Exception.
FREE_TEXT = {errors.FactorcastError, errors.MatrixError, errors.InvalidSpec, errors.ProfileError}


@pytest.mark.parametrize(
    "cls", [cls for cls in CASES if cls not in FREE_TEXT], ids=lambda cls: cls.__name__
)
def test_wrong_argument_count_is_a_type_error(cls):
    args = CASES[cls][0]
    required = 2 if cls is NonNumericCell else len(args)
    if required:
        with pytest.raises(TypeError):
            cls(*args[: required - 1])
    with pytest.raises(TypeError):
        cls(*args, "extra")


def test_non_numeric_cell_text_is_optional():
    e = NonNumericCell(3, "a")
    assert str(e) == "non-numeric value in row 3, column 'a'"
    assert e.text == ""
    twin = pickle.loads(pickle.dumps(e))
    assert (twin.args, str(twin), twin.text) == ((3, "a"), str(e), "")


def test_data_error_crosses_a_process_pool():
    bad = "year,incidence,a\n1990,1,2\n1991,1,x\n1992,1,3\n"
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        future = pool.submit(parse_matrix, bad)
        with pytest.raises(NonNumericCell) as err:
            future.result(timeout=60)
    assert (err.value.row, err.value.column, err.value.text) == (3, "a", "x")
    assert str(err.value) == "non-numeric value in row 3, column 'a' ('x')"
