"""Annual data matrix: parsing, validation, and labeling.

The data model is a rectangular table of annual observations: one row per
year, one incidence column, and one or more named factor columns. Years are
arbitrary strictly increasing integer keys; incidence and factor values are
finite reals. All recognition logic downstream consumes this matrix plus the
boolean critical labeling derived from an incidence threshold.

Everything here is a pure function over immutable values: transforms return
new matrices and never mutate their inputs, so values are safe to share
across concurrent evaluations. A matrix also carries the memo of kernel
passes that :func:`backtest.evaluation_lanes` keeps, which is no field.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from types import MappingProxyType
from typing import Iterable, Literal, Mapping

from .errors import (
    DuplicateFactor,
    DuplicateYear,
    EmptySelection,
    InvalidThreshold,
    LagTooLarge,
    MatrixError,
    MissingCell,
    MissingFactorValue,
    NoFactors,
    NonNumericCell,
    TooFewRows,
    UnknownFactor,
)

# Parsing requires at least this many year rows; derived matrices (windowed
# views) may legitimately be shorter.
MIN_PARSE_YEARS = 3


def format_number(v: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(v))


class Frozen:
    """Immutable value whose fields are its ``__slots__``, in constructor order.

    Values compare and hash by their fields and repr as
    ``Name(field=value, ...)``. A subclass's ``__init__`` validates its
    arguments and stores the fields with ``_set``; assignment and deletion
    raise ``AttributeError``. Pickling and copying call the constructor again
    with the fields, so a copy is validated like the original.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        """Store ``values`` as the fields, in ``__slots__`` order; for ``__init__`` only."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class _PassSlot:
    """The ``_passes`` slot, declared outside ``TemporalMatrix.__slots__`` so it is no field."""

    __slots__ = ("_passes",)


class TemporalMatrix(Frozen, _PassSlot):
    """Years x (incidence + factors) table of annual observations.

    Invariants checked at construction: years strictly increasing, at least
    one year and one factor, every cell present and finite, incidence
    non-negative. ``columns`` is a read-only mapping from factor name to
    its column. ``_passes`` is the kernel pass memo that
    :func:`backtest.evaluation_lanes` describes and alone reads and writes.
    """

    __slots__ = ("years", "incidence", "factor_names", "columns")

    def __init__(
        self,
        years: Iterable[int],
        incidence: Iterable[float],
        factor_names: Iterable[str],
        columns: Mapping[str, Iterable[float]],
    ):
        self._set(
            tuple(map(int, years)),
            tuple(map(float, incidence)),
            tuple(factor_names),
            MappingProxyType({name: tuple(map(float, col)) for name, col in columns.items()}),
        )
        self._validate()
        object.__setattr__(self, "_passes", {})

    def __reduce__(self):
        # A mapping proxy does not pickle; the constructor takes a plain dict.
        return TemporalMatrix, (self.years, self.incidence, self.factor_names, dict(self.columns))

    def _validate(self) -> None:
        """Check the invariants a column at a time; scan rows only to word an error."""
        years = self.years
        if len(years) < 1:
            raise MatrixError("matrix must contain at least one year row")
        if not all(map(operator.lt, years, years[1:])):
            for a, b in zip(years, years[1:]):
                if a == b:
                    raise DuplicateYear(a)
                if a > b:
                    raise MatrixError("years must be strictly increasing")
        if not self.factor_names:
            raise NoFactors()
        FactorSelection(self.factor_names)  # DuplicateFactor on a repeated name
        if set(self.columns) != set(self.factor_names):
            raise MatrixError("factor columns do not match factor names")
        n = len(years)
        if len(self.incidence) != n:
            raise MatrixError("incidence column length does not match years")
        if not (all(map(math.isfinite, self.incidence)) and min(self.incidence) >= 0):
            for year, v in zip(years, self.incidence):
                if not math.isfinite(v):
                    raise MatrixError(f"non-finite incidence for year {year}")
                if v < 0:
                    raise MatrixError(f"negative incidence for year {year}")
        for name in self.factor_names:
            col = self.columns[name]
            if len(col) != n:
                raise MatrixError(f"factor column {name!r} length does not match years")
            if not all(map(math.isfinite, col)):
                year = next(y for y, v in zip(years, col) if not math.isfinite(v))
                raise MatrixError(f"non-finite value for factor {name!r}, year {year}")

    @property
    def n_years(self) -> int:
        return len(self.years)

    @property
    def n_factors(self) -> int:
        return len(self.factor_names)

    def factor_values(self, name: str) -> tuple[float, ...]:
        try:
            return self.columns[name]
        except KeyError:
            raise UnknownFactor(name) from None

    def window(self, start: int, stop: int) -> "TemporalMatrix":
        """Row slice [start, stop); factors unchanged."""
        if not (0 <= start < stop <= self.n_years):
            raise MatrixError(f"invalid window [{start}, {stop}) for {self.n_years} years")
        return TemporalMatrix(
            years=self.years[start:stop],
            incidence=self.incidence[start:stop],
            factor_names=self.factor_names,
            columns={name: col[start:stop] for name, col in self.columns.items()},
        )

    def to_csv(self) -> str:
        """Serialize back to the canonical CSV format.

        Numerals are re-emitted as shortest round-trip decimals, so
        ``parse_matrix(m.to_csv()) == m`` exactly.
        """
        out = io.StringIO()
        # Factor names may need quoting; numerals never do, so body rows are plain joins.
        # The constructor made every column float, so ``float.__repr__`` is ``format_number``.
        csv.writer(out, lineterminator="\n").writerow(["year", "incidence", *self.factor_names])
        columns = (self.incidence, *(self.columns[name] for name in self.factor_names))
        cells = (map(str, self.years), *(map(float.__repr__, col) for col in columns))
        out.writelines([",".join(row) + "\n" for row in zip(*cells)])
        return out.getvalue()


def finite_threshold(value: float) -> float:
    """``value`` as a float; raises :class:`InvalidThreshold` unless it is finite."""
    if not math.isfinite(value := float(value)):
        raise InvalidThreshold(value)
    return value


class CriticalThreshold(Frozen):
    """The extreme incidence line; years at or above it are critical."""

    __slots__ = ("value", "source")

    def __init__(self, value: float, source: Literal["expert", "selected"] = "expert"):
        value = finite_threshold(value)
        if source not in ("expert", "selected"):
            raise MatrixError(f"threshold source must be 'expert' or 'selected', got {source!r}")
        self._set(value, source)


class CriticalLabels(Frozen):
    """Per-year boolean criticality derived from a threshold."""

    __slots__ = ("years", "is_critical", "threshold")

    def __init__(
        self, years: Iterable[int], is_critical: Iterable[bool], threshold: CriticalThreshold
    ):
        years = tuple(map(int, years))
        is_critical = tuple(map(bool, is_critical))
        if len(years) != len(is_critical):
            raise MatrixError("labels length does not match years")
        self._set(years, is_critical, threshold)

    @property
    def n_critical(self) -> int:
        return sum(self.is_critical)


class FactorSelection(Frozen):
    """Ordered, duplicate-free subset of a matrix's factor columns."""

    __slots__ = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise EmptySelection()
        if len(set(names)) < len(names):
            raise DuplicateFactor(next(n for i, n in enumerate(names) if n in names[:i]))
        self._set(names)

    @property
    def n_factors(self) -> int:
        return len(self.names)

    def validate_against(self, m: TemporalMatrix) -> None:
        for name in self.names:
            if name not in m.columns:
                raise UnknownFactor(name)

    @classmethod
    def all_of(cls, m: TemporalMatrix) -> "FactorSelection":
        return cls(m.factor_names)


def read_columns(
    text: str,
    leading: tuple[str, ...],
    factors: Iterable[str] | None = None,
    *,
    distinct_years: bool = False,
) -> tuple[list[str], tuple[int, ...], list[tuple[float, ...]]]:
    """Years and float columns of a CSV document, converted a column at a time.

    The header starts with the ``leading`` cells: the integer year column,
    then float columns. The ``factors`` columns follow, each the first header
    cell of that name after the leading cells; ``None`` takes every later
    column, which must then be named. Other columns are not converted, but
    every row must be as wide as the header. ``distinct_years`` rejects a
    repeated year where it repeats. Returns the float columns' names, the
    years and the columns, in row order. When a check fails, ``_read_rows``
    reads again row by row to report the first bad row (the header is row 1).

    A NUL anywhere is rejected first, on the line that holds it: ``csv.reader``
    rejects one before Python 3.11 and reads it as text after. ``csv.reader``
    reads a document only if it holds a ``"`` or a ``\\r``, or a line longer
    than ``csv.field_size_limit()``: only there can the two tokenizations
    differ. Any other document is split on ``"\\n"`` and ``","``, an empty line
    read as ``[]`` as ``csv.reader`` reads it.
    """
    if "\0" in text:
        line = text.count("\n", 0, text.index("\0")) + 1
        raise MatrixError(f"malformed CSV at line {line}: line contains NUL")
    lines = text.split("\n")
    plain = not ('"' in text or "\r" in text)
    if plain and max(map(len, lines)) <= csv.field_size_limit():
        rows = [line.split(",") if line else [] for line in lines]
    else:
        reader = csv.reader(io.StringIO(text))
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise MatrixError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    while rows and rows[-1] == []:
        rows.pop()
    if not rows:
        raise MatrixError("empty document")
    header, rows = [cell.strip() for cell in rows[0]], rows[1:]
    if header[: len(leading)] != list(leading):
        raise MatrixError(f"header must start with {','.join(leading)!r}")
    if factors is None:
        if len(header) == len(leading):
            raise NoFactors()
        if not all(header[len(leading) :]):
            raise MatrixError("factor names must be non-empty")
        positions = list(range(1, len(header)))
    else:
        positions = list(range(1, len(leading)))
        for name in factors:
            try:
                positions.append(header.index(name, len(leading)))
            except ValueError:
                raise MissingFactorValue(name) from None
    names = [header[i] for i in positions]
    try:
        if set(map(len, rows)) <= {len(header)}:
            cells = list(zip(*rows)) or [()] * len(header)
            years = tuple(map(int, cells[0]))
            columns = [tuple(map(float, cells[i])) for i in positions]
            if all(all(map(math.isfinite, col)) for col in columns) and not (
                distinct_years and len(set(years)) < len(years)
            ):
                return names, years, columns
    except ValueError:
        pass
    return names, *_read_rows(header, rows, positions, distinct_years)


def _read_rows(
    header: list[str], rows: list[list[str]], positions: list[int], distinct_years: bool
) -> tuple[tuple[int, ...], list[tuple[float, ...]]]:
    """``read_columns`` row by row: per row its width, year, repeat, then floats.

    Cells are stripped first: ``str.strip`` removes a few control characters
    that ``int`` and ``float`` reject, and such a document still reads.
    """
    years: list[int] = []
    seen: set[int] = set()
    columns: list[list[float]] = [[] for _ in positions]
    for lineno, raw in enumerate(rows, start=2):
        if len(raw) < len(header):
            raise MissingCell(lineno, header[len(raw)])
        if len(raw) > len(header):
            raise MatrixError(f"row {lineno} has {len(raw)} cells, expected {len(header)}")
        cell = raw[0].strip()
        if cell == "":
            raise MissingCell(lineno, "year")
        try:
            year = int(cell)
        except ValueError:
            raise NonNumericCell(lineno, "year", cell) from None
        if distinct_years and year in seen:
            raise DuplicateYear(year)
        seen.add(year)
        years.append(year)
        for column, i in zip(columns, positions):
            cell = raw[i].strip()
            if cell == "":
                raise MissingCell(lineno, header[i])
            try:
                v = float(cell)
            except ValueError:
                raise NonNumericCell(lineno, header[i], cell) from None
            if not math.isfinite(v):
                raise NonNumericCell(lineno, header[i], cell)
            column.append(v)
    return tuple(years), [tuple(col) for col in columns]


def parse_matrix(text: str) -> TemporalMatrix:
    """Parse the canonical CSV format into a validated matrix.

    Format: UTF-8, comma-separated, header ``year,incidence,<factor>...``,
    decimal point ``.``, one row per year. Row order is normalized to
    increasing year. Row numbers in errors count the header as row 1.
    """
    names, years, columns = read_columns(text, ("year", "incidence"))
    if len(years) < MIN_PARSE_YEARS:
        raise TooFewRows(len(years), MIN_PARSE_YEARS)
    if not all(map(operator.lt, years, years[1:])):
        # After a stable sort the constructor reports the smallest repeated year.
        order = sorted(range(len(years)), key=years.__getitem__)
        years = tuple(years[i] for i in order)
        columns = [tuple(col[i] for i in order) for col in columns]
    incidence, *values = columns
    return TemporalMatrix(years, incidence, names[1:], dict(zip(names[1:], values)))


def label_critical(m: TemporalMatrix, threshold: CriticalThreshold) -> CriticalLabels:
    """Flag each year whose incidence is at or above the threshold.

    Boundary equality counts as critical. Zero critical years is a legal
    labeling; operations that need criticals enforce their own minimums.
    """
    flags = tuple(v >= threshold.value for v in m.incidence)
    return CriticalLabels(m.years, flags, threshold)


def check_lag(lag: int, n_years: int) -> int:
    """``lag``; raises unless it leaves at least one of ``n_years`` rows."""
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if lag >= n_years:
        raise LagTooLarge(lag, n_years)
    return lag

