"""Team-level aggregation of player component scores.

A team's score on each component is the minutes-weighted average of its
members' scores, so every team score is a convex combination bounded by the
member extremes. Membership (player id -> team code) is supplied explicitly:
how traded players' minutes split across teams is the caller's call. A
team's profile is a ``StatTable``, as a player's is: named by its team
code, with the players' component names as its columns and the team's
total minutes. So ``similarity`` ranks and compares teams with no code of
its own for them.
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping

import numpy as np

from . import files
from .errors import (
    AggregationError,
    EntityLookupError,
    NumericalError,
    ParameterError,
    ParseError,
    SchemaError,
    ValidationError,
    listed,
    quoted,
)
from .table import StatTable


def team_scores(players: StatTable, membership: Mapping[str, str]) -> StatTable:
    """Minutes-weighted average of member scores, per team: a profile per
    team code, named by the code, with the players' columns and the team's
    total minutes, that ranks and compares as a player's does.

    Teams come out in sorted team-code order. Players absent from the
    membership map are excluded and reported once via ``warnings``; ids in the
    map that are missing from ``players`` are an error.
    """
    known = set(players.entity_ids)
    unknown = sorted(set(membership) - known)
    if unknown:
        raise EntityLookupError(f"membership references unknown players: {listed(unknown)}")
    unassigned = sorted(known - set(membership))
    if unassigned:
        warnings.warn(
            f"players without team membership, excluded: {listed(unassigned)}", stacklevel=2
        )

    members: dict[str, list[int]] = {}
    for i, player_id in enumerate(players.entity_ids):
        team = membership.get(player_id)
        if team is not None:
            members.setdefault(team, []).append(i)

    if not members:
        raise AggregationError("no players could be assigned to any team")

    codes = sorted(members)
    minutes = np.array(players.minutes)
    scores = np.asarray(players.values)  # a memoryview's bytes, viewed with no copy
    rows = []
    totals = []
    for team in codes:
        idx = members[team]
        m = minutes[idx]
        total = float(m.sum())
        if total <= 0:
            raise AggregationError(f"team {quoted(team)} has zero total minutes")
        rows.append((m @ scores[idx]) / total)
        totals.append(total)

    return StatTable(codes, codes, totals, list(players.stat_names), np.array(rows))


def team_win_pct(teams: StatTable, win_pct: Mapping[str, float]) -> list[float]:
    """The winning percentage of each of ``teams``, in their order; every
    team must be covered, by a value in [0, 1]."""
    missing = [code for code in teams.entity_ids if code not in win_pct]
    if missing:
        raise EntityLookupError(f"win_pct missing for teams: {listed(missing)}")
    values = [float(win_pct[code]) for code in teams.entity_ids]
    if not all(0.0 <= value <= 1.0 for value in values):
        raise ValidationError("win_pct values must lie in [0, 1]")
    return values


def regression_weighted_score(teams: StatTable, weights: Mapping[int, float]) -> list[float]:
    """Weighted sum of selected components per team.

    Components without a weight contribute nothing; an empty map gives zeros.
    Every weight must be a finite number; a weighted score that overflows
    to a non-finite value is a :class:`NumericalError`.
    """
    _checked_weights(weights, teams.n_stats)
    vector = np.zeros(teams.n_stats)
    for component, weight in weights.items():
        vector[component] = weight
    with np.errstate(all="ignore"):  # an overflow is caught as a non-finite value
        weighted = np.asarray(teams.values) @ vector
    if not np.isfinite(weighted).all():
        bad = listed([teams.stat_names[c] for c in sorted(weights)])
        raise NumericalError(f"weighted score of {bad} overflows to a non-finite value")
    return [float(v) for v in weighted]


def _checked_weights(weights: Mapping[int, float], k: int) -> None:
    bad = [c for c in weights if not 0 <= c < k]
    if bad:
        raise ParameterError(f"weight component indices {sorted(bad)} out of range for k={k}")
    bad = [c for c, w in weights.items() if not math.isfinite(w)]
    if bad:
        raise ParameterError(f"weights of component indices {sorted(bad)} are not finite")


def load_membership(source: files.Target | bytearray) -> dict[str, str]:
    """Read a two-column (player_id, team_code) CSV into a map."""
    rows = _read_two_columns(source, "membership", ("player_id", "team_code"))
    mapping: dict[str, str] = {}
    for line, (player_id, team) in rows:
        if player_id in mapping and mapping[player_id] != team:
            raise ValidationError(
                f"line {line}: conflicting team for player {quoted(player_id)}"
            )
        mapping[player_id] = team
    return mapping


def load_win_pct(source: files.Target | bytearray) -> dict[str, float]:
    """Read a two-column (team_code, win_pct) CSV into a map."""
    rows = _read_two_columns(source, "win_pct", ("team_code", "win_pct"))
    mapping: dict[str, float] = {}
    for line, (team, cell) in rows:
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(f"line {line}: win_pct must be numeric, got {quoted(cell)}") from None
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"line {line}: win_pct {value} outside [0, 1]")
        if team in mapping and mapping[team] != value:
            raise ValidationError(f"line {line}: conflicting win_pct for team {quoted(team)}")
        mapping[team] = value
    return mapping


def _read_two_columns(
    source: files.Target | bytearray, what: str, header: tuple[str, str]
) -> list[tuple[int, tuple[str, str]]]:
    """Rows of a two-column CSV; a leading row equal to ``header`` is skipped."""
    with files.opened(source) as fh:
        rows = []
        for line, row in files.csv_rows(fh, f"{what} CSV"):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{what} CSV line {line}: expected 2 cells, got {len(row)}")
            rows.append((line, (row[0], row[1])))
        if rows and rows[0][1] == header:
            rows = rows[1:]
        if not rows:
            raise SchemaError(f"{what} CSV has no data rows")
        return rows
