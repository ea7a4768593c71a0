"""Exception types shared across the toolkit."""


class BalancecastError(Exception):
    """Base class for every error raised by this package; the command line
    exits with ``exit_code`` on it (3, a data error, unless a subclass says)."""
    exit_code = 3


class InvalidArgumentError(BalancecastError, ValueError):
    """An argument violates a documented precondition."""


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
