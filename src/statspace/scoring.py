"""Team-level aggregation of player component scores.

A team's score on each component is the minutes-weighted average of its
members' scores, so every team score is a convex combination bounded by the
member extremes. Membership (player id -> team code) is supplied explicitly:
how traded players' minutes split across teams is the caller's call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import files
from .errors import (
    AggregationError,
    EntityLookupError,
    ParameterError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .pca import ScoreSet


@dataclass
class TeamScoreSet:
    """Per-team component scores, total minutes, optional winning percentage."""

    team_codes: list[str]
    scores: np.ndarray  # T x k
    total_minutes: list[float]
    win_pct: list[float] | None = None

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        t = len(self.team_codes)
        if self.scores.shape[0] != t or len(self.total_minutes) != t:
            raise ValidationError("team_codes, scores, total_minutes lengths differ")
        if any(m <= 0 for m in self.total_minutes):
            raise ValidationError("total_minutes must be positive per team")
        if self.win_pct is not None:
            if len(self.win_pct) != t:
                raise ValidationError("win_pct length does not match team_codes")
            if any(not 0.0 <= w <= 1.0 for w in self.win_pct):
                raise ValidationError("win_pct values must lie in [0, 1]")

    @property
    def k(self) -> int:
        return self.scores.shape[1]


def team_scores(
    players: ScoreSet, membership: Mapping[str, str]
) -> TeamScoreSet:
    """Minutes-weighted average of member scores, per team.

    Teams come out in sorted team-code order. Players absent from the
    membership map are excluded and reported once via ``warnings``; ids in the
    map that are missing from ``players`` are an error.
    """
    known = set(players.entity_ids)
    unknown = sorted(set(membership) - known)
    if unknown:
        raise EntityLookupError(f"membership references unknown players: {unknown}")
    unassigned = sorted(known - set(membership))
    if unassigned:
        warnings.warn(
            f"players without team membership, excluded: {unassigned}", stacklevel=2
        )

    members: dict[str, list[int]] = {}
    for i, player_id in enumerate(players.entity_ids):
        team = membership.get(player_id)
        if team is not None:
            members.setdefault(team, []).append(i)

    if not members:
        raise AggregationError("no players could be assigned to any team")

    codes = sorted(members)
    rows = []
    totals = []
    for team in codes:
        idx = members[team]
        m = np.array([players.minutes[i] for i in idx])
        total = float(m.sum())
        if total <= 0:
            raise AggregationError(f"team {team!r} has zero total minutes")
        rows.append((m @ players.scores[idx]) / total)
        totals.append(total)

    return TeamScoreSet(
        team_codes=codes, scores=np.array(rows), total_minutes=totals
    )


def with_win_pct(teams: TeamScoreSet, win_pct: Mapping[str, float]) -> TeamScoreSet:
    """Attach winning percentages; every team must be covered."""
    missing = [code for code in teams.team_codes if code not in win_pct]
    if missing:
        raise EntityLookupError(f"win_pct missing for teams: {missing}")
    return TeamScoreSet(
        team_codes=list(teams.team_codes),
        scores=teams.scores.copy(),
        total_minutes=list(teams.total_minutes),
        win_pct=[float(win_pct[code]) for code in teams.team_codes],
    )


def regression_weighted_score(
    teams: TeamScoreSet, weights: Mapping[int, float]
) -> list[float]:
    """Weighted sum of selected components per team.

    Components without a weight contribute nothing; an empty map gives zeros.
    """
    bad = [c for c in weights if not 0 <= c < teams.k]
    if bad:
        raise ParameterError(
            f"weight component indices {sorted(bad)} out of range for k={teams.k}"
        )
    vector = np.zeros(teams.k)
    for component, weight in weights.items():
        vector[component] = weight
    return [float(v) for v in teams.scores @ vector]


def load_membership(source: files.Target) -> dict[str, str]:
    """Read a two-column (player_id, team_code) CSV into a map."""
    rows = _read_two_columns(source, "membership", ("player_id", "team_code"))
    mapping: dict[str, str] = {}
    for line, (player_id, team) in rows:
        if player_id in mapping and mapping[player_id] != team:
            raise ValidationError(
                f"line {line}: conflicting team for player {player_id!r}"
            )
        mapping[player_id] = team
    return mapping


def load_win_pct(source: files.Target) -> dict[str, float]:
    """Read a two-column (team_code, win_pct) CSV into a map."""
    rows = _read_two_columns(source, "win_pct", ("team_code", "win_pct"))
    mapping: dict[str, float] = {}
    for line, (team, cell) in rows:
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(f"line {line}: win_pct must be numeric, got {cell!r}") from None
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"line {line}: win_pct {value} outside [0, 1]")
        if team in mapping and mapping[team] != value:
            raise ValidationError(f"line {line}: conflicting win_pct for team {team!r}")
        mapping[team] = value
    return mapping


def _read_two_columns(
    source: files.Target, what: str, header: tuple[str, str]
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
