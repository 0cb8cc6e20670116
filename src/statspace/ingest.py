"""CSV ingestion: the raw players table, its filter, and the clean stat table.

The pipeline is parse -> filter -> build: ``parse_csv`` reads a CSV once into
a column-major :class:`RawTable` (metadata vectors plus one float matrix,
NaN for a missing cell; given the policy, only the columns it keeps) that
indexes as :class:`RawRecord` rows; ``apply_filter`` enforces the row and
column retention policy as row and column indices into that table; and
``build_table`` assembles a fully numeric :class:`StatTable` (rejecting,
never imputing, missing values). Both take a ``RawTable`` only. The schema
and the filter policy live in the numpy-free ``table``; this module
re-exports them.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from fnmatch import fnmatchcase
from itertools import chain
from typing import IO, Iterator, NamedTuple, Sequence

import numpy as np

from . import files
from .errors import ParseError, SchemaError, ValidationError, listed, quoted
from .table import DEFAULT_SCHEMA, FilterPolicy, Roles, StatTable, _duplicates, _roles

COMBINED_TEAM_CODE = "TOT"


class RawRecord(NamedTuple):
    """One player row as parsed from CSV; stat values may be missing (None)."""

    player_id: str
    player_name: str
    team_code: str
    games_played: int
    minutes_total: float
    stats: dict[str, float | None]


def _check_counts(player_id: str, games_played: int, minutes_total: float) -> None:
    if games_played < 0:
        raise ValidationError(
            f"player {quoted(player_id)}: games_played must be >= 0, got {games_played}"
        )
    if minutes_total < 0:
        raise ValidationError(
            f"player {quoted(player_id)}: minutes_total must be >= 0, got {minutes_total}"
        )


class RawTable(Sequence[RawRecord]):
    """Parsed players table, column-major: metadata vectors plus an n x p matrix.

    ``values[i, j]`` is row i's value of ``stat_names[j]``, NaN where the cell
    is missing. ``table[i]`` builds row i as a :class:`RawRecord` (NaN back to
    None), so the table reads as a sequence of records.
    """

    __slots__ = (
        "player_ids", "player_names", "team_codes", "games_played", "minutes_total",
        "stat_names", "values",
    )

    def __init__(
        self,
        player_ids: list[str],
        player_names: list[str],
        team_codes: list[str],
        games_played: np.ndarray,  # int, length n
        minutes_total: np.ndarray,  # float, length n
        stat_names: list[str],
        values: np.ndarray,  # float, n x p
    ):
        self.player_ids = player_ids
        self.player_names = player_names
        self.team_codes = team_codes
        self.games_played = games_played
        self.minutes_total = minutes_total
        self.stat_names = stat_names
        self.values = values

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


def _parse_stat(cell: str) -> float:
    """Numeric cell parse; anything unparseable or non-finite is missing (NaN)."""
    try:
        value = float(cell)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def parse_csv(
    source: files.Target | bytearray,
    schema: Sequence[str] = DEFAULT_SCHEMA,
    policy: FilterPolicy = FilterPolicy(),
) -> RawTable:
    """Parse a players CSV into a column-major :class:`RawTable`.

    ``schema`` names, in role order, the metadata columns holding
    (player_id, player_name, team_code, games_played, minutes); with four
    names the player name doubles as the id. Every other header column is a
    statistic; only those ``policy`` keeps (by default, all) are parsed
    and returned, while ``apply_filter`` still decides the rows.
    Unparseable or non-finite stat cells become NaN (missing); malformed
    structure raises :class:`ParseError` with the line number, and the
    first fault in the file is the one reported (but see below for a byte
    that is not UTF-8).

    ``source`` is a path or an open text stream, or a bytearray holding a
    players file's bytes as already read. Everything reads one buffer of
    UTF-8 bytes: a path's file is read once, and a stream's text is encoded
    with ``surrogatepass``, so a lone surrogate in it is a byte sequence that
    is not UTF-8, as it would be in a file. The parse empties the buffer:
    its memory goes before the statistics are copied out, even where the
    caller still holds it. numpy's C reader parses the buffer wherever it
    reads it as the strict ``files.csv_rows`` does; where it declines, which
    it does by raising ValueError, a loop over that reader parses the buffer
    and reports the fault. A byte that is not UTF-8 raises ParseError ("not
    UTF-8 text"). The loop decodes 8 KB at a time and reads lines in blocks
    of about 8 KB, so a fault about 16 KB or more before such a byte is
    still the one reported; a nearer one may lose to the byte.
    """
    roles = _roles(schema)
    if isinstance(source, io.TextIOBase):
        source = bytearray(files.read_text(source), "utf-8", "surrogatepass")
    data = source if isinstance(source, bytearray) else files.read_bytes(source)
    try:
        return _parse_fast(data, roles, policy)
    except ValueError:  # the fast path declines
        pass
    with files.opened(data) as stream:  # a byte that is not UTF-8 raises ParseError
        data.clear()  # the stream holds its own copy
        return _parse_rows(stream, roles, policy)


def _kept_stats(stat_names: Sequence[str], policy: FilterPolicy) -> list[str]:
    """The ``stat_names`` that ``policy`` keeps, in order."""
    if policy.column_mode != "rate-only":
        return list(stat_names)
    patterns = policy.excluded_column_patterns
    return [n for n in stat_names if not any(fnmatchcase(n, p) for p in patterns)]


# A non-empty quoted field as files.csv_rows (strict) reads one: the quote
# opens a field, quotes inside it are doubled, and the closing quote ends
# the field on the same line. A quoted empty field keeps its quotes, and so
# declines.
_QUOTED_FIELD = re.compile(rb'"(?<![^,\r\n]")(?:[^"\n]|"")+"(?![^,\r\n])')
_INNER_CR = re.compile(rb"\r(?!\n|\Z)")  # a "\r" that does not end its line
_NOT_BLANK = re.compile(rb"[^\r\n]")
_LOADTXT = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 1, "skiprows": 1}
_COUNT_LIMIT = 2.0**63  # games_played is stored as int64
_SCAN_BYTES = 1 << 16  # bytes per block of lines; a block's masks stay in cache


def _blocks(data: bytearray) -> Iterator[bytearray]:
    """``data`` a block of whole lines at a time: ``_SCAN_BYTES`` bytes or
    more, up to a ``"\\n"``, which is in no block."""
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + _SCAN_BYTES)
        end = len(data) if end < 0 else end
        yield data[start:end]
        start = end + 1


def _scan(data: bytearray) -> bool:
    """Whether no block of ``data`` holds what the C reader could read
    otherwise than the strict ``files.csv_rows``, or would raise on only
    once it has parsed the rows before it.

    That is a NUL byte, an empty field (a comma that meets another comma, a
    line end or an end of the text, which text inside quotes can look like),
    a line longer than ``csv.field_size_limit()`` bytes, a quote that csv
    would reject, or a ``"\\r"`` outside quotes that does not end its line.
    Each block is checked by numpy and regular expressions, so no mask as
    large as the file is ever built.
    """
    limit = csv.field_size_limit()
    for block in _blocks(data):
        if b"\x00" in block:
            return False
        chars = np.frombuffer(block, np.uint8)
        comma = chars == ord(",")
        sep = comma | (chars == ord("\n")) | (chars == ord("\r"))
        if comma[0] or comma[-1] or (comma[1:] & sep[:-1]).any() or (comma[:-1] & sep[1:]).any():
            return False
        if len(block) > limit:
            ends = np.flatnonzero(chars == ord("\n"))
            if np.diff(ends, prepend=-1, append=len(block)).max() > limit + 1:
                return False
        if b'"' in block or b"\r" in block:
            unquoted = _QUOTED_FIELD.sub(b"", block)
            if b'"' in unquoted or _INNER_CR.search(unquoted):
                return False
    return True


def _lines(data: bytearray) -> Iterator[str]:
    """The text of ``data`` split at ``"\\n"``, decoded a block at a time."""
    return chain.from_iterable(block.decode().split("\n") for block in _blocks(data))


def _parse_fast(data: bytearray, roles: Roles, policy: FilterPolicy) -> RawTable:
    """The table ``np.loadtxt`` reads from the players file's bytes
    ``data``; ValueError, its one way to decline, leaves the file to the loop.

    One loadtxt pass reads every column into a structured array: the id,
    name and team cells as str objects, games, minutes and the stat columns
    ``policy`` keeps as floats, and any other column as one byte. The field
    count is the header's, so loadtxt raises ValueError on a row with other
    cells than the header's outside quotes; it raises too on a cell it
    cannot convert (``n/a`` or ``1_000`` in a float column, a character
    beyond Latin-1 in a one-byte one), or on bytes that are not UTF-8
    (UnicodeDecodeError is a ValueError), but only once it has parsed the
    rows before it. Its float parser accepts a subset of what ``float()``
    does, with the same values.

    loadtxt is looser than the strict ``files.csv_rows`` in other ways, so
    this declines wherever the two could read the text differently: what
    :func:`_scan` finds, a header that is not one physical line of UTF-8
    without quotes or a byte-order mark, or no data rows (loadtxt warns). It
    also declines on a count that is not finite, whole and non-negative, or
    a games count of 2**63 or more, so the loop reports those. An empty
    cell, the usual missing value, declines before loadtxt runs, so such a
    file costs the loop one scan more.

    Once the table is certain, ``data`` is emptied, so its memory is free
    before the stats are copied out; a decline leaves it whole.
    """
    if not _scan(data):
        raise ValueError("the C reader could read the text otherwise")
    header_end = data.find(b"\n")
    header_line = (data[:header_end] if header_end >= 0 else data).decode().removesuffix("\r")
    if '"' in header_line or "\r" in header_line or header_line.startswith("\ufeff"):
        raise ValueError("a header the C reader could read otherwise")
    header = header_line.split(",")
    if len(set(header)) != len(header) or any(c not in header for c in roles if c is not None):
        raise ValueError("a header the loop raises SchemaError on")
    if header_end < 0 or _NOT_BLANK.search(data, header_end) is None:
        raise ValueError("no data rows")  # blank lines both skip

    id_col, name_col, team_col, games_col, minutes_col = roles
    stat_names = _kept_stats([name for name in header if name not in roles], policy)
    labels = (id_col or name_col, name_col, team_col)  # with no id column, the name is the id
    numbers = {games_col, minutes_col, *stat_names}
    field = {name: f"c{j}" for j, name in enumerate(header)}
    rows = np.loadtxt(
        _lines(data),
        dtype=[
            (field[name], object if name in labels else "f8" if name in numbers else "S1")
            for name in header
        ],
        **_LOADTXT,
    )
    games, minutes = rows[field[games_col]], rows[field[minutes_col]]
    if not _loop_takes_counts(games, minutes):
        raise ValueError("a count the loop refuses")
    data.clear()  # the table is certain; the bytes go before the copies
    kept = [field[name] for name in stat_names]
    # one packed copy of the kept floats, viewed as the n x p matrix
    stats = rows[kept].astype([(f, "f8") for f in kept]) if kept else np.empty((len(rows), 0))
    values = stats.view(float).reshape(len(rows), len(kept))
    values[~np.isfinite(values)] = np.nan
    player_ids, player_names, team_codes = (rows[field[c]].tolist() for c in labels)
    return RawTable(
        player_ids=player_ids,
        player_names=player_names,
        team_codes=team_codes,
        games_played=games.astype(int),
        minutes_total=minutes.copy(),
        stat_names=stat_names,
        values=values,
    )


def _loop_takes_counts(games: np.ndarray, minutes: np.ndarray) -> bool:
    """Whether the csv loop accepts every (games, minutes) pair: both finite
    and non-negative, games whole and below 2**63."""
    return bool(
        np.isfinite(games).all()
        and np.isfinite(minutes).all()
        and (games >= 0).all()
        and (minutes >= 0).all()
        and (games < _COUNT_LIMIT).all()
        and (games == np.floor(games)).all()
    )


def _parse_rows(stream: IO[str], roles: Roles, policy: FilterPolicy) -> RawTable:
    """Parse the text ``stream`` row by row through :func:`files.csv_rows`.

    The reference parse, and the one that reports every fault.
    """
    id_col, name_col, team_col, games_col, minutes_col = roles
    schema = [c for c in roles if c is not None]
    rows = files.csv_rows(stream, "players CSV")
    try:
        _, header = next(rows)
    except StopIteration:
        raise ParseError("empty input: header row required") from None

    dupes = _duplicates(header)
    if dupes:
        raise SchemaError(f"duplicate header names: {listed(sorted(dupes))}")
    missing = [c for c in schema if c not in header]
    if missing:
        raise SchemaError(f"header is missing metadata columns: {listed(missing)}")

    col_index = {name: i for i, name in enumerate(header)}
    stat_names = _kept_stats([name for name in header if name not in schema], policy)
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
        raise _bad_cell(cell, column, line, "numeric")
    return value


def _parse_count(cell: str, column: str, line: int) -> int:
    value = _parse_number(cell, column, line)
    if value != int(value):
        raise _bad_cell(cell, column, line, "a count")
    if value >= _COUNT_LIMIT:
        raise _bad_cell(cell, column, line, "a count below 2**63")
    return int(value)


def _bad_cell(cell: str, column: str, line: int, kind: str) -> ParseError:
    return ParseError(f"line {line}: column {quoted(column)} must be {kind}, got {quoted(cell)}")


def apply_filter(table: RawTable, policy: FilterPolicy) -> RawTable:
    """Apply the retention policy; idempotent, never adds rows or columns.

    Players with several team rows keep only their combined (``TOT``) row;
    per-team splits are dropped even when no combined row exists, since they
    would double-count a single player. The games threshold is inclusive.
    """
    row_counts = Counter(table.player_ids)
    rows = [
        i
        for i, (player_id, team, n_games) in enumerate(
            zip(table.player_ids, table.team_codes, table.games_played.tolist())
        )
        if (row_counts[player_id] == 1 or team == COMBINED_TEAM_CODE)
        and n_games >= policy.min_games
    ]
    kept = set(_kept_stats(table.stat_names, policy))
    cols = [j for j, name in enumerate(table.stat_names) if name in kept]
    all_cols = len(cols) == len(table.stat_names)
    return RawTable(
        player_ids=[table.player_ids[i] for i in rows],
        player_names=[table.player_names[i] for i in rows],
        team_codes=[table.team_codes[i] for i in rows],
        games_played=table.games_played[rows],
        minutes_total=table.minutes_total[rows],
        stat_names=[table.stat_names[j] for j in cols],
        values=table.values[rows] if all_cols else table.values[np.ix_(rows, cols)],
    )


def build_table(table: RawTable) -> StatTable:
    """Assemble a StatTable, failing rather than imputing.

    Raises :class:`ValidationError` listing every (player, statistic) pair
    with a missing value, row by row, or for a table of fewer than two
    players, which no component model can be fit on.
    """
    if not table:
        raise ValidationError("no records to build a table from")

    gaps = np.argwhere(np.isnan(table.values)).tolist()
    if gaps:
        missing = [(table.player_ids[i], table.stat_names[j]) for i, j in gaps]
        raise ValidationError(f"missing values for (player, statistic): {listed(missing)}")
    if len(table) < 2:
        raise ValidationError(f"need at least 2 entities, got {len(table)}")

    return StatTable(
        entity_ids=table.player_ids,
        entity_names=table.player_names,
        minutes=table.minutes_total.tolist(),
        stat_names=table.stat_names,
        values=table.values,
    )
