"""The column-at-a-time CSV reader, constructor and writer against the row-by-row reference.

``parse_matrix``, classify's ``read_columns`` call, ``TemporalMatrix``
construction and ``to_csv`` must return what ``_reference_io`` returns, or
raise the same exception class with the same message. Three differences are
intended. A NUL is rejected on every Python, where the reference's
``csv.reader`` rejects it only before 3.11. Classify words a short row or an
empty cell as ``missing value in row N, column 'X'``, as ``parse_matrix``
always did. And classify looks a factor up after the year column, so a
profile factor named ``year`` reads the factor column, not the years
(``tests/test_cli.py`` pins it); the reference looks it up from the first
column, and ``classify_documents`` never asks for a factor named ``year``.
"""

import csv
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factorcast.matrix as fc_matrix
from factorcast import parse_matrix
from factorcast.errors import (
    DuplicateYear,
    FactorcastError,
    MatrixError,
    MissingCell,
    NonNumericCell,
)
from factorcast.matrix import TemporalMatrix, read_columns

import _reference_io as ref

NUMBERS = ["0", "1", "2.5", "7", "12", "0.125"]
# Cells the reader must treat exactly as the reference does: padding,
# underscores, signed zero, non-finite and non-numeric text, quoted cells
# (one with a comma and one with a newline inside), integers too long for
# ``int`` (over 4300 digits) or ``float`` (inf), and control characters that
# ``str.strip`` removes but ``float`` does not accept.
ODD = [
    "", " ", " 1.5 ", "1_0", "-0", "nan", "inf", "-inf", "x", '"2"', '"1,5"', '" 3 "',
    '"4\n5"', "9" * 30, "1" * 5000, "\x1c2\x1f", "-1", "-2.5",
]
YEARS = [str(year) for year in range(1990, 2030)] + [" 1994", "1995 ", "1_996"]


def often(draw, usual, *rare):
    """``usual`` nine times in ten, otherwise one of ``rare``."""
    return usual if draw(st.integers(0, 9)) else draw(st.sampled_from(rare))


@st.composite
def documents(draw, header):
    """A CSV document: the header, then rows that are sometimes ragged or blank.

    Each document draws how often a cell is odd (never, sometimes, often),
    whether rows may be ragged, whether years already increase and whether
    lines end in ``"\\r\\n"`` (one in three), so clean documents that parse,
    with and without sorting, are common too.
    """
    odds = draw(st.sampled_from((0, 1, 5)))
    newline = draw(st.sampled_from(("\n", "\n", "\r\n")))
    ragged = draw(st.booleans())
    increasing = draw(st.booleans())

    def cell(pool):
        return draw(st.sampled_from(ODD if draw(st.integers(0, 19)) < odds else pool))

    lines = [",".join(header)]
    for i in range(often(draw, draw(st.integers(3, 8)), 0, 1, 2)):
        width = len(header) + (draw(st.sampled_from((0, 0, 0, -1, 1))) if ragged else 0)
        if width <= 0:
            lines.append("")
            continue
        year = cell([str(1990 + 2 * i)] if increasing else YEARS)
        lines.append(",".join([year, *(cell(NUMBERS) for _ in range(width - 1))]))
    return newline.join(lines) + newline * draw(st.integers(0, 3))


@st.composite
def matrix_documents(draw):
    n_factors = often(draw, draw(st.integers(1, 3)), 0)
    names = [often(draw, name, " f ", "incidence", "", "f") for name in ("f", "g", "h")]
    header = [
        often(draw, "year", " year", "date"),
        often(draw, "incidence", "incidence ", "f"),
        *names[:n_factors],
    ]
    return draw(documents(header))


@st.composite
def classify_documents(draw):
    """A document and the factor names a profile asks it for."""
    wanted = draw(st.lists(st.sampled_from(["f", "g", "h"]), min_size=1, max_size=3, unique=True))
    present = [often(draw, name, "f", "k") for name in wanted]
    extra = draw(st.lists(st.sampled_from(["incidence", "extra", "year", "f"]), max_size=2))
    columns = draw(st.permutations(present + extra))
    return draw(documents([often(draw, "year", " year", "date"), *columns])), tuple(wanted)


def outcome(fn, *args):
    """A function's result, or the class and message of the error it raised."""
    try:
        return "ok", fn(*args)
    except FactorcastError as exc:
        return type(exc), str(exc)


def float_bits(columns):
    return [tuple(map(repr, col)) for col in columns]


def matrix_fields(m):
    return m.years, m.factor_names, float_bits([m.incidence, *m.columns.values()])


@settings(max_examples=300, deadline=None)
@given(matrix_documents())
def test_parse_matrix_matches_reference(text):
    got, want = outcome(parse_matrix, text), outcome(ref.parse_matrix, text)
    if want[0] == "ok":
        assert got[0] == "ok"
        assert matrix_fields(got[1]) == matrix_fields(want[1])
    else:
        assert got == want


def classify_wording(error, header):
    """The reference's classify error in the reader's wording.

    A short row and an empty cell used to read ``row N has K cells, expected
    H`` and ``non-numeric value in row N, column 'X'``; both are now a
    ``MissingCell`` naming the first absent or empty column.
    """
    cls, message = error
    short = re.fullmatch(r"row (\d+) has (\d+) cells, expected (\d+)", message)
    if short and int(short[2]) < int(short[3]):
        return MissingCell, str(MissingCell(int(short[1]), header[int(short[2])]))
    bare = re.fullmatch(r"non-numeric value in row (\d+), column '(.*)'", message)
    if cls is NonNumericCell and bare:
        return MissingCell, str(MissingCell(int(bare[1]), bare[2]))
    return error


@settings(max_examples=300, deadline=None)
@given(classify_documents())
def test_classify_reader_matches_reference(document):
    text, wanted = document
    got = outcome(lambda: read_columns(text, ("year",), wanted, distinct_years=True))
    want = outcome(ref._parse_factor_rows, text, wanted)
    if want[0] == "ok":
        assert got[0] == "ok"
        names, years, columns = got[1]
        assert names == list(wanted)
        assert years == want[1][0]
        assert float_bits(columns) == float_bits(want[1][1])
    else:
        header = [cell.strip() for cell in text.split("\n", 1)[0].split(",")]
        assert got == classify_wording(want, header)


@pytest.mark.parametrize(
    "text,before,after",
    [
        ("year,f,g\n2001,1,2\n2002,3\n", "row 3 has 2 cells, expected 3", "column 'g'"),
        ("year,f\n2001,1\n ,2\n", "non-numeric value in row 3, column 'year'", "column 'year'"),
        ("year,f\n2001,1\n2002, \n", "non-numeric value in row 3, column 'f'", "column 'f'"),
    ],
)
def test_classify_wording_changes(text, before, after):
    """The only messages classify words differently from the reference."""
    with pytest.raises(FactorcastError, match=f"^{re.escape(before)}$"):
        ref._parse_factor_rows(text, ("f",))
    with pytest.raises(MissingCell, match=f"^missing value in row 3, {re.escape(after)}$"):
        read_columns(text, ("year",), ("f",), distinct_years=True)


def test_classify_keeps_row_order_and_ignores_unused_columns():
    text = "year,note,f,incidence\n2003,x,1.5,\n2001,,-2,?\n2002,n/a, 0 ,1\n"
    names, years, columns = read_columns(text, ("year",), ("f",), distinct_years=True)
    assert (names, years, columns) == (["f"], (2003, 2001, 2002), [(1.5, -2.0, 0.0)])


def test_repeated_year_in_row_order_precedes_later_bad_cell():
    text = "year,f\n2001,1\n2001,2\n2002,x\n"
    got = outcome(lambda: read_columns(text, ("year",), ("f",), distinct_years=True))
    want = outcome(ref._parse_factor_rows, text, ("f",))
    assert got == want == (DuplicateYear, "duplicate year 2001")


class CsvReaderCalled(Exception):
    pass


def refuse_csv_reader(*args, **kwargs):
    """Stands in for ``csv.reader`` to show which documents reach it."""
    raise CsvReaderCalled


PLAIN = "year,incidence,f,g\n1992,3,1,-2\n1990,12,0.5,7\n1991,0,1_0, 4 \n\n"
# A document that ``csv.reader`` must read, for each case that can read
# differently when split on newlines and commas. The long line's last cell is
# as long as the csv module allows one field to be, so it still reads.
LONG_CELL = "0" * (csv.field_size_limit() - 1) + "7"
GUARDED = {
    "quoted header": 'year,incidence,"f",g\n1990,12,0.5,7\n1991,0,1,4\n1992,3,1,-2\n',
    "crlf": "year,incidence,f,g\r\n1990,12,0.5,7\r\n1991,0,1,4\r\n1992,3,1,-2\r\n",
    "long line": f"year,incidence,f,g\n1990,12,0.5,{LONG_CELL}\n1991,0,1,4\n1992,3,1,-2\n",
}


def readers(text):
    """``parse_matrix`` and classify's ``read_columns`` call on ``text``, with their references."""
    return [
        (lambda: parse_matrix(text), lambda: ref.parse_matrix(text)),
        (
            lambda: read_columns(text, ("year",), ("g", "f"), distinct_years=True),
            lambda: ref._parse_factor_rows(text, ("g", "f")),
        ),
    ]


def same_outcome(got, want):
    """Whether two outcomes agree, comparing floats by their repr."""
    if got[0] != "ok" or want[0] != "ok":
        return got == want
    if isinstance(got[1], TemporalMatrix):
        return matrix_fields(got[1]) == matrix_fields(want[1])
    _, years, columns = got[1]
    return (years, float_bits(columns)) == (want[1][0], float_bits(want[1][1]))


def test_plain_document_is_split_without_csv_reader(monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr("factorcast.matrix.csv.reader", refuse_csv_reader)
        results = [outcome(read) for read, _ in readers(PLAIN)]
    assert [got[0] for got in results] == ["ok", "ok"]
    for got, (_, reference) in zip(results, readers(PLAIN)):
        assert same_outcome(got, outcome(reference))


@pytest.mark.parametrize("text", GUARDED.values(), ids=GUARDED.keys())
def test_guarded_document_goes_to_csv_reader(monkeypatch, text):
    with monkeypatch.context() as patched:
        patched.setattr("factorcast.matrix.csv.reader", refuse_csv_reader)
        for read, _ in readers(text):
            with pytest.raises(CsvReaderCalled):
                read()
    for read, reference in readers(text):
        assert same_outcome(outcome(read), outcome(reference))


@pytest.mark.parametrize("cell", ["\x1c2\x1f", "\x1d1.5\x1e"])
def test_row_reader_returns_cells_that_strip_cleans(monkeypatch, cell):
    """Cells that ``float`` and ``int`` reject but ``str.strip`` cleans still read.

    The column pass fails on them, so ``_read_rows`` reads the document again
    and returns its columns, as the reference does.
    """
    text = f"year,incidence,f,g\n1992,3,1,-2\n1990,12,{cell},7\n \x1c1991\x1f,0,1,4\n"
    returned, row_reader = [], fc_matrix._read_rows

    def spy(*args):
        returned.append(row_reader(*args))
        return returned[-1]

    with monkeypatch.context() as patched:
        patched.setattr(fc_matrix, "_read_rows", spy)
        results = [outcome(read) for read, _ in readers(text)]
    assert [got[0] for got in results] == ["ok", "ok"] and len(returned) == 2
    for got, (_, reference) in zip(results, readers(text)):
        assert same_outcome(got, outcome(reference))


# csv.reader rejects a NUL before Python 3.11 and reads it as text from 3.11 on;
# the readers reject one before tokenizing, in the older wording, on every Python.
NUL = "year,incidence,f,g\n1990,12,0.5,\x007\n1991,0,1,4\n1992,3,1,-2\n"


def test_nul_is_rejected_before_csv_reader(monkeypatch):
    monkeypatch.setattr("factorcast.matrix.csv.reader", refuse_csv_reader)
    for read, _ in readers(NUL):
        assert outcome(read) == (MatrixError, "malformed CSV at line 2: line contains NUL")


special_floats = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2, 1 / 3, 123456789.123456789, 2.0**53]
)
values = st.one_of(special_floats, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.sampled_from(["a,b", 'q"x', "plain", " pad ", "new\nline", "é"]),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    st.integers(1, 6),
    st.data(),
)
def test_to_csv_matches_reference(names, n, data):
    incidence = data.draw(st.lists(values.map(abs), min_size=n, max_size=n))
    columns = {name: data.draw(st.lists(values, min_size=n, max_size=n)) for name in names}
    m = TemporalMatrix(tuple(range(-1, n - 1)), incidence, names, columns)
    assert m.to_csv() == ref.to_csv(m)


construction_values = st.sampled_from([0.0, -0.0, 1.5, -2.0, 3, math.nan, math.inf, -math.inf])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1999, 2003), max_size=5),
    st.lists(construction_values, max_size=5),
    st.lists(st.sampled_from(["f", "g", "h"]), max_size=3),
    st.data(),
)
def test_construction_matches_reference(years, incidence, names, data):
    columns = {
        name: data.draw(
            st.lists(construction_values, min_size=max(len(years) - 1, 0), max_size=len(years))
        )
        for name in names
    }
    if names and data.draw(st.booleans()):
        del columns[data.draw(st.sampled_from(sorted(columns)))]
    want = outcome(ref.check_matrix, years, incidence, names, columns)
    got = outcome(TemporalMatrix, years, incidence, names, columns)
    if want[0] == "ok":
        m = got[1]
        assert (m.years, m.factor_names) == want[1][0::2]
        assert float_bits([m.incidence, *m.columns.values()]) == float_bits(
            [want[1][1], *want[1][3].values()]
        )
    else:
        assert got == want
