"""Exception hierarchy for data, selection, and configuration faults.

Every error a caller can trigger with bad input derives from
:class:`FactorcastError`, so the CLI can map the whole family to a single
data-error exit code while programming mistakes still surface as ordinary
Python exceptions.

A subclass declares its constructor arguments by name in ``fields`` and its
text as a ``message`` format over them; the one base constructor stores each
argument under its name and keeps the arguments themselves as ``args``. An
error therefore rebuilds from ``args`` alone, so it survives ``pickle`` and
``copy`` and crosses a process pool. The classes without a ``message``
(``MatrixError``, ``InvalidSpec``, ``ProfileError``) take their text as
their one argument, as ``Exception`` does.
"""


class FactorcastError(Exception):
    """Base class for all input and configuration errors raised here."""

    fields: tuple[str, ...] = ()
    message: str | None = None

    def __init__(self, *args):
        super().__init__(*args)
        if self.message is None:
            return
        for name, value in zip(self.fields, args):
            setattr(self, name, value)
        # A field with a class-level default is optional; any other must be given.
        if len(args) > len(self.fields) or not all(hasattr(self, name) for name in self.fields):
            raise TypeError(
                f"{type(self).__name__}() takes arguments ({', '.join(self.fields)}),"
                f" got {len(args)}"
            )

    def __str__(self):
        if self.message is None:
            return super().__str__()
        return self.message.format(**dict(zip(self.fields, self.args)))


class MatrixError(FactorcastError):
    """Malformed or invalid annual data matrix."""


class DuplicateYear(MatrixError):
    fields, message = ("year",), "duplicate year {year}"


class NonNumericCell(MatrixError):
    fields = ("row", "column", "text")
    message = "non-numeric value in row {row}, column {column!r}"
    text = ""

    def __str__(self):
        return super().__str__() + (f" ({self.text!r})" if self.text else "")


class MissingCell(MatrixError):
    fields, message = ("row", "column"), "missing value in row {row}, column {column!r}"


class TooFewRows(MatrixError):
    fields = ("n_rows", "minimum")
    message = "matrix has {n_rows} year rows, at least {minimum} required"


class NoFactors(MatrixError):
    message = "matrix has no factor columns"


class UnknownFactor(FactorcastError):
    fields, message = ("name",), "unknown factor {name!r}"


class DuplicateFactor(FactorcastError):
    fields, message = ("name",), "duplicate factor {name!r}"


class EmptySelection(FactorcastError):
    message = "factor selection is empty"


class LagTooLarge(FactorcastError):
    fields, message = ("lag", "n_years"), "lag {lag} too large for {n_years}-year series"


class LabelMismatch(FactorcastError):
    message = "labels were built for a different set of years"


class NoCriticalYears(FactorcastError):
    message = "labeling contains no critical years"


class MissingFactorValue(FactorcastError):
    fields, message = ("name",), "no value supplied for factor {name!r}"


class InvalidQuorum(FactorcastError):
    fields, message = ("q",), "quorum must be a fraction in (0, 1], got {q!r}"


class InvalidThreshold(FactorcastError):
    fields, message = ("value",), "threshold must be finite, got {value!r}"


class InsufficientYears(FactorcastError):
    fields = ("n_years", "required")
    message = "series has {n_years} years, at least {required} required"


class InsufficientCriticalYears(FactorcastError):
    fields = ("n_critical", "required")
    message = "labeling yields {n_critical} critical years, at least {required} required"


class TooManyFactors(FactorcastError):
    fields = ("n_factors", "maximum")
    message = "subset enumeration over {n_factors} factors exceeds the {maximum}-factor bound"


class WindowTooShort(FactorcastError):
    fields = ("length", "minimum")
    message = "window of {length} years is shorter than the minimum {minimum}"


class InvalidSpec(FactorcastError):
    """Invalid synthetic dataset specification."""


class ProfileError(FactorcastError):
    """Saved interval profile document is malformed."""
