"""CSV ingestion: the raw players table, filtering policy, and the clean stat table.

The pipeline is parse -> filter -> build: ``parse_csv`` reads a CSV once into
a column-major :class:`RawTable` (metadata vectors plus one float matrix,
NaN for a missing cell) that indexes as :class:`RawRecord` rows;
``apply_filter`` enforces the record/column retention policy as row and
column indices into that table; and ``build_table`` assembles a fully
numeric :class:`StatTable` (rejecting, never imputing, missing values).
"""

from __future__ import annotations

import csv
import math
from collections import Counter
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
        _check_counts(self.player_id, self.games_played, self.minutes_total)


def _check_counts(player_id: str, games_played: int, minutes_total: float) -> None:
    if games_played < 0:
        raise ValidationError(
            f"player {player_id!r}: games_played must be >= 0, got {games_played}"
        )
    if minutes_total < 0:
        raise ValidationError(
            f"player {player_id!r}: minutes_total must be >= 0, got {minutes_total}"
        )


@dataclass(eq=False)
class RawTable(Sequence[RawRecord]):
    """Parsed players table, column-major: metadata vectors plus an n x p matrix.

    ``values[i, j]`` is row i's value of ``stat_names[j]``, NaN where the cell
    is missing. ``table[i]`` builds row i as a :class:`RawRecord` (NaN back to
    None), so the table reads as a sequence of records.
    """

    player_ids: list[str]
    player_names: list[str]
    team_codes: list[str]
    games_played: np.ndarray  # int, length n
    minutes_total: np.ndarray  # float, length n
    stat_names: list[str]
    values: np.ndarray  # float, n x p

    def __len__(self) -> int:
        return len(self.player_ids)

    def __getitem__(self, i: int) -> RawRecord:
        return RawRecord(
            player_id=self.player_ids[i],
            player_name=self.player_names[i],
            team_code=self.team_codes[i],
            games_played=int(self.games_played[i]),
            minutes_total=float(self.minutes_total[i]),
            stats={
                name: None if math.isnan(value) else value
                for name, value in zip(self.stat_names, self.values[i].tolist())
            },
        )

    @classmethod
    def from_records(cls, records: Sequence[RawRecord]) -> RawTable:
        """The table of ``records``; a RawTable is returned as is.

        Raises :class:`SchemaError` if the records disagree on their stat
        columns or their order.
        """
        if isinstance(records, cls):
            return records
        stat_names = list(records[0].stats) if records else []
        for record in records:
            if list(record.stats) != stat_names:
                got = set(record.stats)
                expected = set(stat_names)
                diff = sorted(got.symmetric_difference(expected))
                detail = f"columns differ: {diff}" if diff else "column order differs"
                raise SchemaError(f"player {record.player_id!r}: {detail}")
        values = [
            [math.nan if r.stats[s] is None else r.stats[s] for s in stat_names]
            for r in records
        ]
        return cls(
            player_ids=[r.player_id for r in records],
            player_names=[r.player_name for r in records],
            team_codes=[r.team_code for r in records],
            games_played=np.array([r.games_played for r in records], dtype=int),
            minutes_total=np.array([r.minutes_total for r in records], dtype=float),
            stat_names=stat_names,
            values=np.array(values, dtype=float).reshape(len(records), len(stat_names)),
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


def _parse_stat(cell: str) -> float:
    """Numeric cell parse; anything unparseable or non-finite is missing (NaN)."""
    try:
        value = float(cell)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def parse_csv(
    source: files.Target,
    schema: Sequence[str] = DEFAULT_SCHEMA,
) -> RawTable:
    """Parse a players CSV into a column-major :class:`RawTable`.

    ``schema`` names, in role order, the metadata columns holding
    (player_id, player_name, team_code, games_played, minutes); with four
    names the player name doubles as the id. Every other header column is a
    statistic. Unparseable or non-finite stat cells become NaN (missing);
    malformed structure raises :class:`ParseError` with the line number, and
    the first fault in the file is the one reported.
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
        stat_idx = [col_index[name] for name in stat_names]
        id_i = col_index[id_col] if id_col else None
        name_i, team_i = col_index[name_col], col_index[team_col]
        games_i, minutes_i = col_index[games_col], col_index[minutes_col]

        ids: list[str] = []
        names: list[str] = []
        teams: list[str] = []
        games: list[int] = []
        minutes: list[float] = []
        cells: list[str] = []  # stat cells, row after row
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
            name = row[name_i]
            player_id = row[id_i] if id_i is not None else name
            n_games = _parse_count(row[games_i], games_col, reader.line_num)
            n_minutes = _parse_number(row[minutes_i], minutes_col, reader.line_num)
            _check_counts(player_id, n_games, n_minutes)
            ids.append(player_id)
            names.append(name)
            teams.append(row[team_i])
            games.append(n_games)
            minutes.append(n_minutes)
            cells.extend([row[j] for j in stat_idx])

    values = np.fromiter(map(_parse_stat, cells), dtype=float, count=len(cells))
    return RawTable(
        player_ids=ids,
        player_names=names,
        team_codes=teams,
        games_played=np.array(games, dtype=int),
        minutes_total=np.array(minutes, dtype=float),
        stat_names=stat_names,
        values=values.reshape(len(ids), len(stat_names)),
    )


def _parse_number(cell: str, column: str, line: int) -> float:
    value = _parse_stat(cell)
    if math.isnan(value):
        raise ParseError(f"line {line}: column {column!r} must be numeric, got {cell!r}")
    return value


def _parse_count(cell: str, column: str, line: int) -> int:
    value = _parse_number(cell, column, line)
    if value != int(value):
        raise ParseError(f"line {line}: column {column!r} must be a count, got {cell!r}")
    return int(value)


def apply_filter(records: Sequence[RawRecord], policy: FilterPolicy) -> RawTable:
    """Apply the retention policy; idempotent, never adds records or columns.

    Players with several team rows keep only their combined (``TOT``) row;
    per-team splits are dropped even when no combined row exists, since they
    would double-count a single player. The games threshold is inclusive.
    """
    table = RawTable.from_records(records)
    row_counts = Counter(table.player_ids)
    rows = [
        i
        for i, (player_id, team, n_games) in enumerate(
            zip(table.player_ids, table.team_codes, table.games_played.tolist())
        )
        if (row_counts[player_id] == 1 or team == COMBINED_TEAM_CODE)
        and n_games >= policy.min_games
    ]
    cols = list(range(len(table.stat_names)))
    if policy.column_mode == "rate-only" and policy.excluded_column_patterns:
        cols = [
            j
            for j in cols
            if not _excluded(table.stat_names[j], policy.excluded_column_patterns)
        ]
    return RawTable(
        player_ids=[table.player_ids[i] for i in rows],
        player_names=[table.player_names[i] for i in rows],
        team_codes=[table.team_codes[i] for i in rows],
        games_played=table.games_played[rows],
        minutes_total=table.minutes_total[rows],
        stat_names=[table.stat_names[j] for j in cols],
        values=table.values[np.ix_(rows, cols)],
    )


def _excluded(name: str, patterns: list[str]) -> bool:
    return any(fnmatchcase(name, pattern) for pattern in patterns)


def build_table(records: Sequence[RawRecord]) -> StatTable:
    """Assemble a StatTable, failing rather than imputing.

    Raises :class:`ValidationError` listing every (player, statistic) pair
    with a missing value, row by row, and :class:`SchemaError` if records
    disagree on their stat columns.
    """
    table = RawTable.from_records(records)
    if not table:
        raise ValidationError("no records to build a table from")

    gaps = np.argwhere(np.isnan(table.values)).tolist()
    if gaps:
        missing = [(table.player_ids[i], table.stat_names[j]) for i, j in gaps]
        raise ValidationError(f"missing values for (player, statistic): {missing}")

    return StatTable(
        entity_ids=table.player_ids,
        entity_names=table.player_names,
        minutes=table.minutes_total.tolist(),
        stat_names=table.stat_names,
        values=table.values,
    )
