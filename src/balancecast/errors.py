"""Exception types shared across the toolkit, and the bounds on settings."""

import dataclasses
import numbers
import sys


class BalancecastError(Exception):
    """Base class for every error raised by this package; the command line
    exits with ``exit_code`` on it (3, a data error, unless a subclass says)."""
    exit_code = 3


class InvalidArgumentError(BalancecastError, ValueError):
    """An argument violates a documented precondition."""


class UsageError(InvalidArgumentError):
    """A value outside its bound, or a bad flag or flag combination."""
    exit_code = 2


class SchemaError(BalancecastError, ValueError):
    """Column names, order, or dimensions do not match the expected schema."""


class IngestError(BalancecastError, ValueError):
    """A CSV cell could not be parsed into a finite value."""


class GridError(BalancecastError, ValueError):
    """Timestamps are duplicated or do not form a gap-free 15-minute grid."""


class DegenerateLeafError(BalancecastError, ArithmeticError):
    """A leaf weight is undefined because the regularized Hessian sum is zero."""
    exit_code = 4


class InsufficientHistoryError(BalancecastError, ValueError):
    """A persistence forecast was requested before enough history exists."""
    exit_code = 4


class UnsupportedModelError(BalancecastError, ValueError):
    """The requested operation is not defined for this model kind."""
    exit_code = 2


def check_bound(name: str, value, low, high=None, *, above=False, integer=False) -> None:
    """Raise UsageError unless ``value`` is a number with ``low <= value``
    (``low < value`` if ``above``) and ``value <= high``. An ``integer``
    value must be an int and never a bool; any other value is a real
    number, not a bool, and finite."""
    kind = numbers.Integral if integer else numbers.Real
    if (
        isinstance(value, kind)
        and not isinstance(value, bool)
        and (integer or abs(value) <= sys.float_info.max)  # not NaN, inf or past a float
        and (value > low if above else value >= low)
        and (high is None or value <= high)
    ):
        return
    if high is None:
        rule = f"{'>' if above else '>='} {low}"
    else:
        rule = f"in {'(' if above else '['}{low}, {high}]"
    if integer:
        rule = "an integer " + rule
    elif high is None:
        rule = "finite and " + rule
    raise UsageError(f"{name} must be {rule}, got {value!r}")


def setting(default=dataclasses.MISSING, *, low, high=None, above=False):
    """A dataclass field of a ``Settings`` class, bounded as ``check_bound``
    bounds it; an ``int`` field must hold an integer."""
    return dataclasses.field(default=default, metadata={"low": low, "high": high, "above": above})


class Settings:
    """Base of a dataclass whose fields are all ``setting``s: construction
    checks each field against its bound."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            integer = f.type in ("int", int)
            check_bound(f.name, getattr(self, f.name), **f.metadata, integer=integer)
