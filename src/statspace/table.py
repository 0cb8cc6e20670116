"""The one profile table: entities by columns, with minutes.

Every profile the later stages read is one: the players' statistics, which
``ingest`` builds from a players file; the players' component scores, which
``pca`` projects from them; and the teams' scores, which ``scoring``
averages from the players'. The caches rebuild the first two from their
files, so a process that finds them cached imports neither the parse code
nor the fitting code. numpy is imported only by what needs it: a table over
a memoryview, as the projection cache gives, needs none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .errors import ValidationError, listed

if TYPE_CHECKING:
    import numpy as np


class StatTable:
    """Entities-by-columns matrix with each entity's name and minutes.

    ``values`` is n x p: a 2-D memoryview of floats is kept as given, and
    anything else becomes a C-contiguous float numpy array, whose values
    must all be finite. Rows keep their input order and columns their
    source's order: the CSV header's for statistics, which fixes the
    component coefficient order downstream; for scores, the component
    names ``pca.project`` gives, which teams keep. ``files.write_table``
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
        if any(m < 0 for m in minutes):
            raise ValidationError("minutes must be >= 0")
        if len(set(entity_ids)) != n:
            dupes = sorted(_duplicates(entity_ids))
            raise ValidationError(f"duplicate entity_ids: {listed(dupes)}")
        if not isinstance(values, memoryview) and not np.isfinite(values).all():
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


def _duplicates(items: Iterable[str]) -> set[str]:
    seen: set[str] = set()
    dupes: set[str] = set()
    for item in items:
        if item in seen:
            dupes.add(item)
        seen.add(item)
    return dupes
