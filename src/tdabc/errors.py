"""Exception types shared across the package."""


class TdabcError(Exception):
    """Base class for package-specific failures."""


class InvalidConfig(TdabcError, ValueError):
    """An option or configuration value is malformed or out of range."""


class MonotonicityViolation(TdabcError):
    """Insert would break face-closure or filtration monotonicity."""


class DuplicateSimplex(TdabcError):
    """Simplex already stored with a different filtration value."""


class SimplexNotFound(TdabcError):
    """Queried simplex is not part of the complex."""


class DimensionMismatch(TdabcError):
    """Point cloud rows do not share a common dimension."""


class CapacityExceeded(TdabcError):
    """Simplex count passed the configured budget; caps are too loose."""


class EmptyIntervalSet(TdabcError):
    """Interval selection was called with no candidate intervals."""


class NoLabeledData(TdabcError):
    """Classification requires at least one labeled vertex."""


class InsufficientTraining(TdabcError):
    """Fewer training vertices than the requested neighbor count."""


class ParseError(TdabcError):
    """CSV ingestion failed; carries the offending row and column."""

    def __init__(self, message: str, row: int | None = None, column: str | int | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class MissingLabelColumn(TdabcError):
    """The requested label column is absent from the CSV header."""


class UnknownDataset(TdabcError):
    """Dataset name is not registered."""


class DegenerateClass(TdabcError):
    """A class has too few members to split."""


class UndefinedAUC(TdabcError):
    """No class had both positive and negative examples."""


class NoClassifiers(TdabcError):
    """An experiment needs at least one classifier."""
