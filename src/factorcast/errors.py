"""Exception hierarchy for data, selection, and configuration faults.

Every error a caller can trigger with bad input derives from
:class:`FactorcastError`, so the CLI can map the whole family to a single
data-error exit code while programming mistakes still surface as ordinary
Python exceptions.
"""


class FactorcastError(Exception):
    """Base class for all input and configuration errors raised here."""


class MatrixError(FactorcastError):
    """Malformed or invalid annual data matrix."""


class DuplicateYear(MatrixError):
    def __init__(self, year: int):
        self.year = year
        super().__init__(f"duplicate year {year}")


class NonNumericCell(MatrixError):
    def __init__(self, row: int, column: str, text: str = ""):
        self.row = row
        self.column = column
        detail = f" ({text!r})" if text else ""
        super().__init__(f"non-numeric value in row {row}, column {column!r}{detail}")


class MissingCell(MatrixError):
    def __init__(self, row: int, column: str):
        self.row = row
        self.column = column
        super().__init__(f"missing value in row {row}, column {column!r}")


class TooFewRows(MatrixError):
    def __init__(self, n_rows: int, minimum: int):
        self.n_rows = n_rows
        super().__init__(f"matrix has {n_rows} year rows, at least {minimum} required")


class NoFactors(MatrixError):
    def __init__(self):
        super().__init__("matrix has no factor columns")


class UnknownFactor(FactorcastError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown factor {name!r}")


class DuplicateFactor(FactorcastError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate factor {name!r}")


class EmptySelection(FactorcastError):
    def __init__(self):
        super().__init__("factor selection is empty")


class LagTooLarge(FactorcastError):
    def __init__(self, lag: int, n_years: int):
        self.lag = lag
        self.n_years = n_years
        super().__init__(f"lag {lag} too large for {n_years}-year series")


class LabelMismatch(FactorcastError):
    def __init__(self):
        super().__init__("labels were built for a different set of years")


class NoCriticalYears(FactorcastError):
    def __init__(self):
        super().__init__("labeling contains no critical years")


class MissingFactorValue(FactorcastError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no value supplied for factor {name!r}")


class InvalidQuorum(FactorcastError):
    def __init__(self, q):
        self.q = q
        super().__init__(f"quorum must be a fraction in (0, 1], got {q!r}")


class InvalidThreshold(FactorcastError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"threshold must be finite, got {value!r}")


class InsufficientYears(FactorcastError):
    def __init__(self, n_years: int, required: int):
        self.n_years = n_years
        self.required = required
        super().__init__(
            f"series has {n_years} years, at least {required} required"
        )


class InsufficientCriticalYears(FactorcastError):
    def __init__(self, n_critical: int, required: int):
        self.n_critical = n_critical
        self.required = required
        super().__init__(
            f"labeling yields {n_critical} critical years, at least {required} required"
        )


class TooManyFactors(FactorcastError):
    def __init__(self, n_factors: int, maximum: int):
        self.n_factors = n_factors
        super().__init__(
            f"subset enumeration over {n_factors} factors exceeds the {maximum}-factor bound"
        )


class WindowTooShort(FactorcastError):
    def __init__(self, length: int, minimum: int):
        self.length = length
        self.minimum = minimum
        super().__init__(f"window of {length} years is shorter than the minimum {minimum}")


class InvalidSpec(FactorcastError):
    """Invalid synthetic dataset specification."""


class ProfileError(FactorcastError):
    """Saved interval profile document is malformed."""
