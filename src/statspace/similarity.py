"""Squared-distance similarity between component score profiles.

The diversity index between two entities is the sum of squared differences of
their component scores over a chosen component subset (every component of
the scores by default); lower means more alike. Rankings are exact brute
force, vectorized over entities, which is plenty for tens of thousands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import files
from .errors import EntityLookupError, ParameterError
from .pca import ScoreSet


@dataclass
class SdiRanking:
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
    exactly zero for identical profiles.
    """
    comps = _checked_components(components, min(len(a), len(b)))
    rows = np.asarray(b, dtype=float)[None]
    return float(_sums(np.asarray(a, dtype=float), rows, comps)[0])


def _sums(query: np.ndarray, rows: np.ndarray, comps: tuple[int, ...]) -> np.ndarray:
    """The index of ``query`` against each of ``rows``: squared differences
    added up over ``comps`` in order."""
    totals = np.zeros(len(rows))
    for c in comps:
        d = query[c] - rows[:, c]
        totals += d * d
    return totals


def rank_similar(
    scores: ScoreSet,
    query_id: str,
    top: int,
    components: Iterable[int] | None = None,
) -> SdiRanking:
    """The ``top`` entities with the smallest index against the query.

    Ties break lexicographically by entity id, so the ranking is independent
    of input row order. The query itself is excluded.
    """
    if top < 1:
        raise ParameterError(f"top must be >= 1, got {top}")
    if query_id not in scores.row_index:
        raise EntityLookupError(f"unknown query entity {query_id!r}")
    comps = _checked_components(components, scores.k)
    totals = _sums(scores.row(query_id), scores.scores, comps)
    ranked = sorted(
        (value, entity_id)
        for value, entity_id in zip(totals.tolist(), scores.entity_ids)
        if entity_id != query_id
    )
    return SdiRanking(
        query_id=query_id,
        entries=[(entity_id, value) for value, entity_id in ranked[:top]],
        components_used=frozenset(comps),
    )


def _ranking_records(ranking: SdiRanking, names: Mapping[str, str]) -> list[dict]:
    return [
        {
            "rank": rank,
            "entity_id": entity_id,
            "entity_name": names.get(entity_id, ""),
            "sdi": value,
        }
        for rank, (entity_id, value) in enumerate(ranking.entries, start=1)
    ]


def ranking_to_csv(
    ranking: SdiRanking,
    names: Mapping[str, str],
    destination: files.Target,
) -> None:
    """Write ``rank, entity_id, entity_name, sdi`` rows, full precision."""
    files.write_records(destination, _ranking_records(ranking, names))


def ranking_to_json(ranking: SdiRanking, names: Mapping[str, str]) -> str:
    doc = {
        "query_id": ranking.query_id,
        "components_used": sorted(ranking.components_used),
        "entries": _ranking_records(ranking, names),
    }
    return files.to_json(doc)
