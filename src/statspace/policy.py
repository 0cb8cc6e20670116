"""What decides the players table: the metadata schema and the filter policy.

These are settings, not data, so this module imports no numpy: the CLI
checks them, and keys its caches on them, before it knows whether it will
compute anything. Nor does it import ``dataclasses``, whose import (with
``inspect``) would be a large share of a process that reads its result from
a cache. ``ingest`` re-exports every name here.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ParameterError, listed, quoted
from .table import _duplicates

# Role order for the metadata columns of a players CSV. A 4-name schema omits
# the id column and reuses the name column as the id.
DEFAULT_SCHEMA = ("player_id", "player_name", "team", "games_played", "minutes")


class FilterPolicy:
    """Record and column retention policy applied before table assembly:
    rows under ``min_games`` games go, and with ``column_mode`` "rate-only"
    so do the stat columns that match ``excluded_column_patterns``."""

    def __init__(
        self,
        min_games: int = 41,
        column_mode: str = "all",
        excluded_column_patterns: Sequence[str] = (),
    ):
        if min_games < 0:
            raise ParameterError(f"min_games must be >= 0, got {min_games}")
        if column_mode not in ("rate-only", "all"):
            raise ParameterError(
                f"column_mode must be 'rate-only' or 'all', got {quoted(column_mode)}"
            )
        self.min_games = min_games
        self.column_mode = column_mode
        self.excluded_column_patterns = list(excluded_column_patterns)


Roles = tuple[str | None, str, str, str, str]


def _roles(schema: Sequence[str]) -> Roles:
    """(id, name, team, games, minutes) column names; id is None for 4 names."""
    if len(set(schema)) != len(schema):
        repeated = sorted(_duplicates(schema))
        raise ParameterError(f"schema names a column more than once: {listed(repeated)}")
    if len(schema) == 4:
        return (None, *schema)
    if len(schema) == 5:
        return tuple(schema)
    raise ParameterError(
        f"schema must list 4 or 5 metadata column names, got {len(schema)}"
    )
