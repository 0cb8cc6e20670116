"""The one profile table, entities by columns with minutes, and what
decides the players table: the metadata schema and the filter policy.

Every profile the later stages read is one: the players' statistics, which
``ingest`` builds from a players file; the players' component scores, which
``pca`` projects from them; and the teams' scores, which ``scoring``
averages from the players'. The caches rebuild the first two from their
files, so a process that finds them cached imports neither the parse code
nor the fitting code. numpy is imported only by what needs it: a table over
a memoryview, as the projection cache gives, needs none.

The schema and the filter policy are settings, not data: the CLI checks
them, and keys its caches on them, before it knows whether it will compute
anything. So this module imports no numpy at its top, nor ``dataclasses``,
whose import (with ``inspect``) would be a large share of a process that
reads its result from a cache. ``ingest`` re-exports the policy's names.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ParameterError, ValidationError, listed, quoted

if TYPE_CHECKING:
    import numpy as np


# Role order for the metadata columns of a players CSV. A 4-name schema omits
# the id column and reuses the name column as the id.
DEFAULT_SCHEMA = ("player_id", "player_name", "team", "games_played", "minutes")


class StatTable:
    """Entities-by-columns matrix with each entity's name and minutes.

    ``values`` is n x p: a 2-D memoryview of floats is kept as given, and
    anything else becomes a C-contiguous float numpy array, whose values
    must all be finite. Minutes must be finite and non-negative, and the
    column names distinct. Rows keep their input order and columns their
    source's order: the CSV header's for statistics, which fixes the
    component coefficient order downstream; for scores, the component
    names ``pca.transform`` gives, which teams keep. ``files.write_table``
    writes the columns under ``stat_names``.
    """

    __slots__ = ("entity_ids", "entity_names", "minutes", "stat_names", "values")

    def __init__(
        self,
        entity_ids: list[str],
        entity_names: list[str],
        minutes: list[float],
        stat_names: list[str],
        values: np.ndarray | memoryview,
    ):
        if not isinstance(values, memoryview):
            import numpy as np

            values = np.ascontiguousarray(values, dtype=float)
        self.entity_ids = entity_ids
        self.entity_names = entity_names
        self.minutes = minutes
        self.stat_names = stat_names
        self.values = values
        n, p = len(entity_ids), len(stat_names)
        if p < 1:
            raise ValidationError("need at least 1 statistic column")
        if len(entity_names) != n or len(minutes) != n:
            raise ValidationError("entity_ids, entity_names, minutes lengths differ")
        if values.shape != (n, p):
            raise ValidationError(f"values shape {values.shape} does not match ({n}, {p})")
        if not all(map(math.isfinite, minutes)):
            raise ValidationError("minutes must be finite")
        if min(minutes, default=0) < 0:
            raise ValidationError("minutes must be >= 0")
        if len(set(stat_names)) != p:
            dupes = sorted(_duplicates(stat_names))
            raise ValidationError(f"duplicate stat_names: {listed(dupes)}")
        if len(set(entity_ids)) != n:
            dupes = sorted(_duplicates(entity_ids))
            raise ValidationError(f"duplicate entity_ids: {listed(dupes)}")
        if not isinstance(values, memoryview) and not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))
            i, j = bad[0]
            raise ValidationError(
                f"non-finite value for {quoted((entity_ids[i], stat_names[j]))} "
                f"and {len(bad) - 1} more"
            )

    @property
    def n_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def n_stats(self) -> int:
        return len(self.stat_names)


def _duplicates(items: Iterable[str]) -> set[str]:
    seen: set[str] = set()
    dupes: set[str] = set()
    for item in items:
        if item in seen:
            dupes.add(item)
        seen.add(item)
    return dupes


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
