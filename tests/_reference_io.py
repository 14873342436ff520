"""Test-only reference: the row-by-row CSV readers and writer.

These are the cell-by-cell ``parse_matrix``, classify's ``_parse_factor_rows``,
``TemporalMatrix.to_csv`` and the constructor's coercion and checks
(``check_matrix``) that the column-at-a-time code in ``factorcast.matrix``
replaced, kept unchanged so property tests can compare the two. They share
nothing with the new code past the matrix constructor and ``format_number``.
"""

from __future__ import annotations

import csv
import io
import math

from factorcast.errors import (
    DuplicateFactor,
    DuplicateYear,
    MatrixError,
    MissingCell,
    MissingFactorValue,
    NoFactors,
    NonNumericCell,
    TooFewRows,
)
from factorcast.matrix import MIN_PARSE_YEARS, TemporalMatrix, format_number


def read_csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    """Stripped header cells and the data rows of a CSV document.

    Trailing blank lines are dropped; a document with no header is an error.
    """
    rows = list(csv.reader(io.StringIO(text)))
    while rows and rows[-1] == []:
        rows.pop()
    if not rows:
        raise MatrixError("empty document")
    return [cell.strip() for cell in rows[0]], rows[1:]


def parse_matrix(text: str) -> TemporalMatrix:
    """Parse the canonical CSV format into a validated matrix.

    Format: UTF-8, comma-separated, header ``year,incidence,<factor>...``,
    decimal point ``.``, one row per year. Row order is normalized to
    increasing year. Row numbers in errors count the header as row 1.
    """
    header, rows = read_csv_rows(text)
    if len(header) < 2 or header[0] != "year" or header[1] != "incidence":
        raise MatrixError("header must start with 'year,incidence'")
    factor_names = header[2:]
    if not factor_names:
        raise NoFactors()
    if any(not name for name in factor_names):
        raise MatrixError("factor names must be non-empty")

    parsed: list[tuple[int, float, list[float]]] = []
    for lineno, raw in enumerate(rows, start=2):
        cells = [cell.strip() for cell in raw]
        if len(cells) < len(header):
            raise MissingCell(lineno, header[len(cells)])
        if len(cells) > len(header):
            raise MatrixError(f"row {lineno} has {len(cells)} cells, expected {len(header)}")
        if cells[0] == "":
            raise MissingCell(lineno, "year")
        try:
            year = int(cells[0])
        except ValueError:
            raise NonNumericCell(lineno, "year", cells[0]) from None
        values: list[float] = []
        for column, cell in zip(header[1:], cells[1:]):
            if cell == "":
                raise MissingCell(lineno, column)
            try:
                v = float(cell)
            except ValueError:
                raise NonNumericCell(lineno, column, cell) from None
            if not math.isfinite(v):
                raise NonNumericCell(lineno, column, cell)
            values.append(v)
        parsed.append((year, values[0], values[1:]))

    if len(parsed) < MIN_PARSE_YEARS:
        raise TooFewRows(len(parsed), MIN_PARSE_YEARS)

    parsed.sort(key=lambda item: item[0])
    for (a, _, _), (b, _, _) in zip(parsed, parsed[1:]):
        if a == b:
            raise DuplicateYear(a)

    years = tuple(item[0] for item in parsed)
    incidence = tuple(item[1] for item in parsed)
    columns = {
        name: tuple(item[2][j] for item in parsed) for j, name in enumerate(factor_names)
    }
    return TemporalMatrix(years, incidence, tuple(factor_names), columns)


def _parse_factor_rows(
    text: str, wanted: tuple[str, ...]
) -> tuple[tuple[int, ...], list[list[float]]]:
    """Years and the wanted factor columns of a relaxed CSV: year plus factor columns.

    An ``incidence`` column, if present, is ignored; extra columns are too.
    Row order is kept; a repeated year or a non-finite cell is an error.
    """
    header, rows = read_csv_rows(text)
    if not header or header[0] != "year":
        raise MatrixError("header must start with 'year'")
    positions = []
    for name in wanted:
        try:
            positions.append(header.index(name))
        except ValueError:
            raise MissingFactorValue(name) from None
    years: dict[int, None] = {}  # insertion-ordered set
    columns: list[list[float]] = [[] for _ in wanted]
    for lineno, raw in enumerate(rows, start=2):
        cells = [cell.strip() for cell in raw]
        if len(cells) != len(header):
            raise MatrixError(f"row {lineno} has {len(cells)} cells, expected {len(header)}")
        try:
            year = int(cells[0])
        except ValueError:
            raise NonNumericCell(lineno, "year", cells[0]) from None
        if year in years:
            raise DuplicateYear(year)
        years[year] = None
        for column, idx in zip(columns, positions):
            try:
                value = float(cells[idx])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise NonNumericCell(lineno, header[idx], cells[idx])
            column.append(value)
    return tuple(years), columns


def to_csv(m: TemporalMatrix) -> str:
    """Serialize back to the canonical CSV format.

    Numerals are re-emitted as shortest round-trip decimals, so
    ``parse_matrix(m.to_csv()) == m`` exactly.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["year", "incidence", *m.factor_names])
    for i, year in enumerate(m.years):
        row = [str(year), format_number(m.incidence[i])]
        row.extend(format_number(m.columns[name][i]) for name in m.factor_names)
        writer.writerow(row)
    return out.getvalue()


def check_matrix(years, incidence, factor_names, columns):
    """The constructor's cell-by-cell coercion and checks; returns the coerced fields."""
    years = tuple(int(y) for y in years)
    incidence = tuple(float(v) for v in incidence)
    factor_names = tuple(factor_names)
    columns = {name: tuple(float(v) for v in col) for name, col in columns.items()}
    if len(years) < 1:
        raise MatrixError("matrix must contain at least one year row")
    for a, b in zip(years, years[1:]):
        if a == b:
            raise DuplicateYear(a)
        if a > b:
            raise MatrixError("years must be strictly increasing")
    if not factor_names:
        raise NoFactors()
    seen = set()
    for name in factor_names:
        if name in seen:
            raise DuplicateFactor(name)
        seen.add(name)
    if set(columns) != seen:
        raise MatrixError("factor columns do not match factor names")
    n = len(years)
    if len(incidence) != n:
        raise MatrixError("incidence column length does not match years")
    for year, v in zip(years, incidence):
        if not math.isfinite(v):
            raise MatrixError(f"non-finite incidence for year {year}")
        if v < 0:
            raise MatrixError(f"negative incidence for year {year}")
    for name in factor_names:
        col = columns[name]
        if len(col) != n:
            raise MatrixError(f"factor column {name!r} length does not match years")
        for year, v in zip(years, col):
            if not math.isfinite(v):
                raise MatrixError(f"non-finite value for factor {name!r}, year {year}")
    return years, incidence, factor_names, columns
