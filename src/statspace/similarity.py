"""Squared-distance similarity between component score profiles.

The diversity index between two entities is the sum of squared differences of
their component scores over a chosen component subset (every component of
the scores by default); lower means more alike. Rankings are exact brute
force over Python floats, which is plenty for tens of thousands, and this
module imports no numpy: a CLI process that finds the projection cached
ranks it without loading numpy at all. ``ranking_to_csv`` and
``ranking_to_json`` each write a ranking to the target they are given.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from . import files
from .errors import EntityLookupError, ParameterError, quoted

if TYPE_CHECKING:
    from .table import StatTable


class SdiRanking(NamedTuple):
    """Entities nearest to a query, ascending by diversity index."""

    query_id: str
    entries: list[tuple[str, float]]
    components_used: frozenset[int]


def _checked_components(
    components: Iterable[int] | None, k: int
) -> tuple[int, ...]:
    comps = frozenset(range(k) if components is None else components)
    if not comps:
        raise ParameterError("component set must not be empty")
    out_of_range = [c for c in comps if not 0 <= c < k]
    if out_of_range:
        raise ParameterError(
            f"component indices {sorted(out_of_range)} out of range for {k} scores"
        )
    return tuple(sorted(comps))


def sdi(
    a: Sequence[float],
    b: Sequence[float],
    components: Iterable[int] | None = None,
) -> float:
    """Sum of squared score differences over the chosen components.

    ``components=None`` means every component. Symmetric in its arguments and
    exactly zero for identical profiles. Profiles of different lengths raise
    :class:`ParameterError`.
    """
    if len(a) != len(b):
        raise ParameterError(f"profiles differ in length: {len(a)} and {len(b)}")
    comps = _checked_components(components, len(a))
    return _sums(list(map(float, a)), [list(map(float, b))], comps)[0]


def _sums(query: list[float], rows: list[list[float]], comps: tuple[int, ...]) -> list[float]:
    """The index of ``query`` against each of ``rows``: from 0.0, each
    squared difference added in the order of ``comps``. These are the IEEE
    operations, in the same order, of a numpy loop that adds
    ``(query[c] - rows[:, c]) ** 2`` into zeros component by component, so
    both give the same bits."""
    totals = []
    for row in rows:
        total = 0.0
        for c in comps:
            d = query[c] - row[c]
            total += d * d
        totals.append(total)
    return totals


def rank_similar(
    scores: StatTable,
    query_id: str,
    top: int,
    components: Iterable[int] | None = None,
) -> SdiRanking:
    """The ``top`` entities with the smallest index against the query.

    Ties break lexicographically by entity id, so the ranking is
    independent of input row order. The query itself is excluded.
    """
    if top < 1:
        raise ParameterError(f"top must be >= 1, got {top}")
    rows = scores.values.tolist()  # numpy array or memoryview, as lists of floats
    try:
        query = rows[scores.entity_ids.index(query_id)]
    except ValueError:
        raise EntityLookupError(f"unknown query entity {quoted(query_id)}") from None
    k = len(query)
    comps = _checked_components(components, k)
    ranked = sorted(
        (value, entity_id)
        for value, entity_id in zip(_sums(query, rows, comps), scores.entity_ids)
        if entity_id != query_id
    )
    return SdiRanking(
        query_id=query_id,
        entries=[(entity_id, value) for value, entity_id in ranked[:top]],
        components_used=frozenset(comps),
    )


def _ranking_columns(ranking: SdiRanking, names: Mapping[str, str]) -> dict[str, list]:
    ids = [entity_id for entity_id, _ in ranking.entries]
    return {
        "rank": list(range(1, len(ids) + 1)),
        "entity_id": ids,
        "entity_name": [names.get(entity_id, "") for entity_id in ids],
        "sdi": [value for _, value in ranking.entries],
    }


def ranking_to_csv(
    ranking: SdiRanking,
    names: Mapping[str, str],
    destination: files.Target,
) -> None:
    """Write ``rank, entity_id, entity_name, sdi`` rows, full precision."""
    files.write_table(destination, _ranking_columns(ranking, names), "csv")


def ranking_to_json(
    ranking: SdiRanking,
    names: Mapping[str, str],
    destination: files.Target,
) -> None:
    """Write the query id, the components used and the ranked entries as JSON."""
    columns = _ranking_columns(ranking, names)
    doc = {
        "query_id": ranking.query_id,
        "components_used": sorted(ranking.components_used),
        "entries": [dict(zip(columns, row)) for row in zip(*columns.values())],
    }
    files.write_text(destination, files.to_json(doc))
