"""CSV ingestion: raw per-player records, filtering policy, and the clean stat table.

The pipeline is parse -> filter -> build: ``parse_csv`` turns a CSV into
:class:`RawRecord` rows, ``apply_filter`` enforces the record/column retention
policy, and ``build_table`` assembles a fully numeric :class:`StatTable`
(rejecting, never imputing, missing values).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Iterable, Sequence

import numpy as np

from . import files
from .errors import ParameterError, ParseError, SchemaError, ValidationError

# Role order for the metadata columns of a players CSV. A 4-name schema omits
# the id column and reuses the name column as the id.
DEFAULT_SCHEMA = ("player_id", "player_name", "team", "games_played", "minutes")

COMBINED_TEAM_CODE = "TOT"


@dataclass
class RawRecord:
    """One player row as parsed from CSV; stat values may be missing (None)."""

    player_id: str
    player_name: str
    team_code: str
    games_played: int
    minutes_total: float
    stats: dict[str, float | None]

    def __post_init__(self):
        if self.games_played < 0:
            raise ValidationError(
                f"player {self.player_id!r}: games_played must be >= 0, "
                f"got {self.games_played}"
            )
        if self.minutes_total < 0:
            raise ValidationError(
                f"player {self.player_id!r}: minutes_total must be >= 0, "
                f"got {self.minutes_total}"
            )


@dataclass
class FilterPolicy:
    """Record and column retention policy applied before table assembly."""

    min_games: int = 41
    column_mode: str = "all"  # "rate-only" drops excluded_column_patterns
    excluded_column_patterns: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.min_games < 0:
            raise ParameterError(f"min_games must be >= 0, got {self.min_games}")
        if self.column_mode not in ("rate-only", "all"):
            raise ParameterError(
                f"column_mode must be 'rate-only' or 'all', got {self.column_mode!r}"
            )


@dataclass
class StatTable:
    """Clean entities-by-statistics matrix with minutes metadata.

    All values are finite; rows keep their input order and columns keep the
    CSV header order, which fixes component coefficient order downstream.
    """

    entity_ids: list[str]
    entity_names: list[str]
    minutes: list[float]
    stat_names: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n, p = len(self.entity_ids), len(self.stat_names)
        if n < 2:
            raise ValidationError(f"need at least 2 entities, got {n}")
        if p < 1:
            raise ValidationError("need at least 1 statistic column")
        if len(self.entity_names) != n or len(self.minutes) != n:
            raise ValidationError("entity_ids, entity_names, minutes lengths differ")
        if self.values.shape != (n, p):
            raise ValidationError(
                f"values shape {self.values.shape} does not match ({n}, {p})"
            )
        if any(m < 0 for m in self.minutes):
            raise ValidationError("minutes must be >= 0")
        dupes = _duplicates(self.entity_ids)
        if dupes:
            raise ValidationError(f"duplicate entity_ids: {sorted(dupes)}")
        if not np.isfinite(self.values).all():
            bad = np.argwhere(~np.isfinite(self.values))
            i, j = bad[0]
            raise ValidationError(
                f"non-finite value for ({self.entity_ids[i]!r}, "
                f"{self.stat_names[j]!r}) and {len(bad) - 1} more"
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


def _parse_stat(cell: str) -> float | None:
    """Numeric cell parse; anything unparseable or non-finite is missing."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def parse_csv(
    source: files.Target,
    schema: Sequence[str] = DEFAULT_SCHEMA,
) -> list[RawRecord]:
    """Parse a players CSV into RawRecords.

    ``schema`` names, in role order, the metadata columns holding
    (player_id, player_name, team_code, games_played, minutes); with four
    names the player name doubles as the id. Every other header column is a
    statistic. Unparseable numeric stat cells become missing markers;
    malformed structure raises :class:`ParseError` with the line number.
    """
    if len(schema) == 4:
        id_col = None
        name_col, team_col, games_col, minutes_col = schema
    elif len(schema) == 5:
        id_col, name_col, team_col, games_col, minutes_col = schema
    else:
        raise ParameterError(
            f"schema must list 4 or 5 metadata column names, got {len(schema)}"
        )

    with files.opened(source) as stream:
        reader = csv.reader(stream, strict=True)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty input: header row required") from None
        except csv.Error as exc:
            raise ParseError(f"malformed CSV at line 1: {exc}") from None

        dupes = _duplicates(header)
        if dupes:
            raise SchemaError(f"duplicate header names: {sorted(dupes)}")
        missing = [c for c in schema if c not in header]
        if missing:
            raise SchemaError(f"header is missing metadata columns: {missing}")

        col_index = {name: i for i, name in enumerate(header)}
        meta_cols = set(schema)
        stat_names = [name for name in header if name not in meta_cols]

        records: list[RawRecord] = []
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise ParseError(
                    f"malformed CSV at line {reader.line_num}: {exc}"
                ) from None
            if not row:
                continue  # blank line
            if len(row) != len(header):
                raise ParseError(
                    f"ragged row at line {reader.line_num}: expected "
                    f"{len(header)} cells, got {len(row)}"
                )
            name = row[col_index[name_col]]
            records.append(
                RawRecord(
                    player_id=row[col_index[id_col]] if id_col else name,
                    player_name=name,
                    team_code=row[col_index[team_col]],
                    games_played=_parse_count(
                        row[col_index[games_col]], games_col, reader.line_num
                    ),
                    minutes_total=_parse_number(
                        row[col_index[minutes_col]], minutes_col, reader.line_num
                    ),
                    stats={s: _parse_stat(row[col_index[s]]) for s in stat_names},
                )
            )
        return records


def _parse_number(cell: str, column: str, line: int) -> float:
    value = _parse_stat(cell)
    if value is None:
        raise ParseError(f"line {line}: column {column!r} must be numeric, got {cell!r}")
    return value


def _parse_count(cell: str, column: str, line: int) -> int:
    value = _parse_number(cell, column, line)
    if value != int(value):
        raise ParseError(f"line {line}: column {column!r} must be a count, got {cell!r}")
    return int(value)


def apply_filter(records: list[RawRecord], policy: FilterPolicy) -> list[RawRecord]:
    """Apply the retention policy; idempotent, never adds records or columns.

    Players with several team rows keep only their combined (``TOT``) row;
    per-team splits are dropped even when no combined row exists, since they
    would double-count a single player. The games threshold is inclusive.
    """
    row_counts: dict[str, int] = {}
    for record in records:
        row_counts[record.player_id] = row_counts.get(record.player_id, 0) + 1

    kept = [
        r
        for r in records
        if (row_counts[r.player_id] == 1 or r.team_code == COMBINED_TEAM_CODE)
        and r.games_played >= policy.min_games
    ]

    if policy.column_mode == "rate-only" and policy.excluded_column_patterns:
        kept = [
            RawRecord(
                player_id=r.player_id,
                player_name=r.player_name,
                team_code=r.team_code,
                games_played=r.games_played,
                minutes_total=r.minutes_total,
                stats={
                    name: value
                    for name, value in r.stats.items()
                    if not _excluded(name, policy.excluded_column_patterns)
                },
            )
            for r in kept
        ]
    return kept


def _excluded(name: str, patterns: list[str]) -> bool:
    return any(fnmatchcase(name, pattern) for pattern in patterns)


def build_table(records: list[RawRecord]) -> StatTable:
    """Assemble a StatTable, failing rather than imputing.

    Raises :class:`ValidationError` listing every (player, statistic) pair
    with a missing value, and :class:`SchemaError` if records disagree on
    their stat columns.
    """
    if not records:
        raise ValidationError("no records to build a table from")

    stat_names = list(records[0].stats)
    for record in records[1:]:
        if list(record.stats) != stat_names:
            got = set(record.stats)
            expected = set(stat_names)
            diff = sorted(got.symmetric_difference(expected))
            detail = f"columns differ: {diff}" if diff else "column order differs"
            raise SchemaError(f"player {record.player_id!r}: {detail}")

    missing = [
        (r.player_id, name)
        for r in records
        for name, value in r.stats.items()
        if value is None
    ]
    if missing:
        raise ValidationError(f"missing values for (player, statistic): {missing}")

    return StatTable(
        entity_ids=[r.player_id for r in records],
        entity_names=[r.player_name for r in records],
        minutes=[r.minutes_total for r in records],
        stat_names=stat_names,
        values=np.array([[r.stats[s] for s in stat_names] for r in records]),
    )
