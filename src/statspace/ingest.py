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
import io
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
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

    The text is read once, then held only as its lines, which the fast path
    drops before it copies the statistics out. numpy's C reader parses it
    wherever it reads the text as the strict ``files.csv_rows`` does;
    elsewhere, and on every faulty file, a loop over that reader parses it and
    reports the fault. A path that is not UTF-8 is read again by the loop,
    line by line, so a fault before the bad byte is still the one reported.
    """
    roles = _roles(schema)
    try:
        text = files.read_text(source)
    except ParseError:  # not UTF-8
        if not isinstance(source, (str, Path)):
            raise
        with files.opened(source) as stream:
            return _parse_rows(stream, roles)
    lines = text.split("\n")
    del text  # "\n".join(lines) is the text again; the fast path may drop it
    try:
        table = _parse_fast(lines, roles)
    except ValueError:  # a row or cell loadtxt rejects; the loop decides
        table = None
    if table is None:
        table = _parse_rows(io.StringIO("\n".join(lines), newline=""), roles)
    return table


Roles = tuple[str | None, str, str, str, str]


def _roles(schema: Sequence[str]) -> Roles:
    """(id, name, team, games, minutes) column names; id is None for 4 names."""
    if len(schema) == 4:
        return (None, *schema)
    if len(schema) == 5:
        return tuple(schema)
    raise ParameterError(
        f"schema must list 4 or 5 metadata column names, got {len(schema)}"
    )


# A non-empty quoted field as files.csv_rows (strict) reads one: the quote
# opens a field, quotes inside it are doubled, and the closing quote ends
# the field. A quoted empty field keeps its quotes, and so declines.
_QUOTED_FIELD = re.compile(r'"(?<![^,\r\n]")(?:[^"]|"")+"(?![^,\r\n])')
_LOADTXT = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 2, "skiprows": 1}
_COUNT_LIMIT = 2.0**63  # games_played is stored as int64
_SCAN_LINES = 128  # lines per numpy pass; a block's masks stay in cache


def _has_empty_field(lines: list[str]) -> bool:
    """Whether a comma in the text of ``lines`` meets another comma, a line
    end or an end of the text.

    That is an empty field, or text like one inside a quoted field. numpy
    scans the UTF-8 bytes of ``_SCAN_LINES`` lines at a time, with a line
    end put before and after each block; ``",," in text`` and the like take
    several times as long.
    """
    for start in range(0, len(lines), _SCAN_LINES):
        block = "\n" + "\n".join(lines[start : start + _SCAN_LINES]) + "\n"
        chars = np.frombuffer(block.encode(), np.uint8)
        comma = chars == ord(",")
        sep = comma | (chars == ord("\n")) | (chars == ord("\r"))
        if (comma[1:] & sep[:-1]).any() or (comma[:-1] & sep[1:]).any():
            return True
    return False


def _parse_fast(lines: list[str], roles: Roles) -> RawTable | None:
    """The table ``np.loadtxt`` reads from the text's ``lines`` (the text
    split at ``"\\n"``), or None to decline.

    loadtxt is looser than the strict ``files.csv_rows``, so this declines
    wherever the two could read the text differently: a NUL byte (the
    loop refuses it, and numpy strings drop a trailing one), a
    header that is not one physical line without quotes, no data rows
    (loadtxt warns), a quote csv would reject or a quoted line end, a line
    longer than ``csv.field_size_limit()``, or a row whose delimiters
    outside quotes are not the header's. It also declines on a count that
    is not finite, whole and non-negative, or a games count of 2**63 or
    more, so the loop reports those. It declines first of all on an empty
    cell, the usual missing value, or on text that looks like one inside
    quotes, so that such a file costs the loop one scan more. loadtxt
    itself raises ValueError on a cell its float parser rejects (``n/a``,
    ``1_000``), but only once it has parsed the rows before it; its parser
    accepts a subset of what ``float()`` does, with the same values.

    Once the table is certain, ``lines`` is emptied, so the text is gone
    before the stats are copied out; a decline or a ValueError leaves it
    whole.
    """
    if any("\x00" in line for line in lines):
        return None
    if _has_empty_field(lines):
        return None  # loadtxt would raise on an empty cell, after the rows before it
    header_line = lines[0].removesuffix("\r")
    if '"' in header_line or "\r" in header_line:
        return None
    header = header_line.split(",")
    col_index = {name: i for i, name in enumerate(header)}
    if len(col_index) != len(header) or any(
        c not in col_index for c in roles if c is not None
    ):
        return None  # the loop raises the SchemaError
    # A row with the header's delimiters outside quotes has exactly the
    # header's cells for loadtxt and for csv.reader. Blank lines both skip.
    delimiters = len(header) - 1
    rows = 0
    for line in lines[1:]:
        if '"' in line:
            line = _QUOTED_FIELD.sub("", line)
            if '"' in line:
                return None
        if line.count(",") == delimiters:
            rows += 1
        elif line not in ("", "\r"):
            return None
    if rows == 0:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None

    games_col, minutes_col = roles[3:]
    stat_names = [name for name in header if name not in roles]
    numbers = np.loadtxt(
        lines,
        dtype=float,
        usecols=[col_index[games_col], col_index[minutes_col]]
        + [col_index[name] for name in stat_names],
        **_LOADTXT,
    )
    labels = np.loadtxt(  # (id,) name, team: with no id column, the name is the id
        lines,
        dtype=object,
        usecols=[col_index[c] for c in roles[:3] if c is not None],
        **_LOADTXT,
    )
    if not _loop_takes_counts(numbers[:, :2]):
        return None
    lines.clear()  # the table is certain; the text goes before the copies
    games_played = numbers[:, 0].astype(int)
    minutes_total = numbers[:, 1].copy()
    values = numbers[:, 2:].copy()
    del numbers
    values[~np.isfinite(values)] = np.nan
    return RawTable(
        player_ids=labels[:, 0].tolist(),
        player_names=labels[:, -2].tolist(),
        team_codes=labels[:, -1].tolist(),
        games_played=games_played,
        minutes_total=minutes_total,
        stat_names=stat_names,
        values=values,
    )


def _loop_takes_counts(counts: np.ndarray) -> bool:
    """Whether the csv loop accepts every (games, minutes) row of ``counts``:
    both finite and non-negative, games whole and below 2**63."""
    games = counts[:, 0]
    return bool(
        np.isfinite(counts).all()
        and (counts >= 0).all()
        and (games < _COUNT_LIMIT).all()
        and (games == np.floor(games)).all()
    )


def _parse_rows(lines: Iterable[str], roles: Roles) -> RawTable:
    """Parse ``lines`` row by row through :func:`files.csv_rows`.

    The reference parse, and the one that reports every fault.
    """
    id_col, name_col, team_col, games_col, minutes_col = roles
    schema = [c for c in roles if c is not None]
    rows = files.csv_rows(lines, "players CSV")
    try:
        _, header = next(rows)
    except StopIteration:
        raise ParseError("empty input: header row required") from None

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
    for line, row in rows:
        if not row:
            continue  # blank line
        if len(row) != len(header):
            raise ParseError(
                f"ragged row at line {line}: expected {len(header)} cells, got {len(row)}"
            )
        name = row[name_i]
        player_id = row[id_i] if id_i is not None else name
        n_games = _parse_count(row[games_i], games_col, line)
        n_minutes = _parse_number(row[minutes_i], minutes_col, line)
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
    if value >= _COUNT_LIMIT:
        raise ParseError(
            f"line {line}: column {column!r} must be a count below 2**63, got {cell!r}"
        )
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
