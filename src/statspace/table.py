"""The two tables the later stages read: the clean stat table, and the
players' component scores.

``ingest`` builds the first from a players file, and ``pca`` the second
from a model; each re-exports its own. The caches rebuild them from their
files, so a process that finds them cached imports neither the parse code
nor the fitting code. numpy is imported only by what needs it: a
``ScoreSet`` over a memoryview, as the projection cache gives, needs none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .errors import ValidationError, listed

if TYPE_CHECKING:
    import numpy as np


class StatTable:
    """Clean entities-by-statistics matrix with minutes metadata.

    All values are finite; rows keep their input order and columns keep the
    CSV header order, which fixes component coefficient order downstream.
    """

    __slots__ = ("entity_ids", "entity_names", "minutes", "stat_names", "values")

    def __init__(
        self,
        entity_ids: list[str],
        entity_names: list[str],
        minutes: list[float],
        stat_names: list[str],
        values: np.ndarray,
    ):
        import numpy as np

        self.entity_ids = entity_ids
        self.entity_names = entity_names
        self.minutes = minutes
        self.stat_names = stat_names
        self.values = values = np.asarray(values, dtype=float)
        n, p = len(entity_ids), len(stat_names)
        if n < 2:
            raise ValidationError(f"need at least 2 entities, got {n}")
        if p < 1:
            raise ValidationError("need at least 1 statistic column")
        if len(entity_names) != n or len(minutes) != n:
            raise ValidationError("entity_ids, entity_names, minutes lengths differ")
        if values.shape != (n, p):
            raise ValidationError(f"values shape {values.shape} does not match ({n}, {p})")
        if any(m < 0 for m in minutes):
            raise ValidationError("minutes must be >= 0")
        if len(set(entity_ids)) != n:
            dupes = sorted(_duplicates(entity_ids))
            raise ValidationError(f"duplicate entity_ids: {listed(dupes)}")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))
            i, j = bad[0]
            raise ValidationError(
                f"non-finite value for ({entity_ids[i]!r}, "
                f"{stat_names[j]!r}) and {len(bad) - 1} more"
            )

    @property
    def n_entities(self) -> int:
        return len(self.entity_ids)

    @property
    def n_stats(self) -> int:
        return len(self.stat_names)


class ScoreSet:
    """Per-entity component scores plus the minutes needed for aggregation.

    ``scores`` is n x k: a 2-D memoryview of floats is kept as given, and
    anything else becomes a float numpy array.
    """

    __slots__ = ("entity_ids", "minutes", "scores")

    def __init__(
        self, entity_ids: list[str], minutes: list[float], scores: np.ndarray | memoryview
    ):
        if not isinstance(scores, memoryview):
            import numpy as np

            scores = np.asarray(scores, dtype=float)
        self.entity_ids = entity_ids
        self.minutes = minutes
        self.scores = scores
        n = len(entity_ids)
        if len(minutes) != n or scores.shape[0] != n:
            raise ValidationError("entity_ids, minutes, scores lengths differ")

    @property
    def k(self) -> int:
        return self.scores.shape[1]


def _duplicates(items: Iterable[str]) -> set[str]:
    seen: set[str] = set()
    dupes: set[str] = set()
    for item in items:
        if item in seen:
            dupes.add(item)
        seen.add(item)
    return dupes
