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


class RankDeficiencyError(NumericalError):
    """The regression design matrix is not full column rank."""


class DomainError(NumericalError):
    """A numerical function was evaluated outside its domain."""


def listed(items: list) -> str:
    """``items`` for a message: the first ten, each as ``quoted`` shows it,
    then how many more."""
    shown = f"[{', '.join(map(quoted, items[:10]))}]"
    more = len(items) - 10
    return f"{shown} and {more} more" if more > 0 else shown


def quoted(value) -> str:
    """``repr(value)`` for a message; of a long string, the first 50
    characters, then how many more; of a tuple, each item so."""
    if isinstance(value, tuple):
        return f"({', '.join(map(quoted, value))})"
    if isinstance(value, str) and len(value) > 50:
        return f"{value[:50]!r} and {len(value) - 50} more characters"
    return repr(value)


def quoted_path(path, whole=str) -> str:
    """``whole(path)`` for a message, by default its text; of a path longer
    than 200 characters, how many characters are cut, then the last 200,
    where the file name is."""
    cut = len(str(path)) - 200
    return whole(path) if cut <= 0 else f"[{cut} characters cut]{str(path)[cut:]}"


# the JSON type of each Python type json.loads gives, as a message names it
JSON_TYPES = {
    type(None): "null",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a list",
    dict: "an object",
}
