"""Exception hierarchy shared across the pipeline.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit statuses: 2 usage, 3 data/validation, 4 numerical; 1 is
left for an internal fault.
"""


class StatspaceError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class UsageError(StatspaceError):
    """Bad arguments or configuration supplied by the caller."""

    exit_code = 2


class DataError(StatspaceError):
    """Input data violates a structural or semantic contract."""

    exit_code = 3


class NumericalError(StatspaceError):
    """A numerical procedure failed or was handed an invalid domain."""

    exit_code = 4


class ParameterError(UsageError):
    """Out-of-range or inconsistent parameter value."""


class ParseError(DataError):
    """Malformed CSV structure (ragged rows, broken quoting)."""


class SchemaError(DataError):
    """Header/column layout does not match what was expected."""


class ValidationError(DataError):
    """Record-level content failed validation (missing values, duplicates)."""


class ZeroVarianceError(DataError):
    """A statistic column is constant and cannot be standardized."""


class AggregationError(DataError):
    """Team-level aggregation is undefined (e.g. zero total minutes)."""


class EntityLookupError(DataError):
    """A referenced entity id is not present in the score set."""


class InsufficientDataError(DataError):
    """Too few observations for the requested fit."""


class ConvergenceError(NumericalError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, component: int, residual: float):
        self.component = component
        self.residual = residual
        super().__init__(
            f"power iteration did not converge for component {component + 1}; "
            f"last residual {residual:.3e}"
        )


class RankDeficiencyError(NumericalError):
    """The regression design matrix is not full column rank."""


class DomainError(NumericalError):
    """A numerical function was evaluated outside its domain."""
