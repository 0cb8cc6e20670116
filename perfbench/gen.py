"""Seeded synthetic inputs for the statspace benchmark.

``make_players`` draws one players table from a seed and returns both the CSV
text the program reads and the ground truth the verifier needs (which rows
survive the filter, their stat matrix, team membership and win%). The program
only ever sees the written files; the truth never passes through it.

The table has the structure real box-score exports have, so every ingest
branch runs: traded players appear as one row per team plus a combined ``TOT``
row, short seasons fall under the games threshold, every third column is a
``*_total`` count that rate-only mode drops, a few names need CSV quoting, and
about 2% of the surviving profiles are exact copies of another player's, so
similarity ties occur and the entity-id tie-break runs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MIN_GAMES = 41  # the CLI's default games threshold
TOTAL_SUFFIX = "_total"
RATE_ONLY_CONFIG = {"column_mode": "rate-only", "excluded_column_patterns": ["*_total"]}
META = ["player_id", "player_name", "team", "games_played", "minutes"]
N_STATS = 90
N_TEAMS = 30
TRADED = 0.08  # share of players with two team rows plus a TOT row
SHORT = 0.12  # share of players under MIN_GAMES
DUPLICATES = 0.02  # share of kept rows that copy another kept row's profile

# Variances of the latent factors behind the stats. Well separated, so the
# leading components (and so the loadings the verifier compares) are stable.
FACTOR_VARIANCES = np.array([9.0, 6.0, 4.0, 2.6, 1.7, 1.1, 0.7, 0.45])


@dataclass
class Players:
    """One generated table plus the ground truth the verifier checks against."""

    csv_text: str
    stat_names: list[str]  # every stat column, header order
    kept_ids: list[str]  # rows that survive the games and traded-split rules
    kept_names: list[str]
    kept_minutes: np.ndarray
    kept_values: np.ndarray  # kept rows x stat_names, exactly as written
    membership: dict[str, str]  # kept id -> team code
    win_pct: dict[str, float]
    duplicate_of: dict[str, str]  # kept id -> kept id whose profile it copies

    def columns(self, rate_only: bool) -> list[int]:
        """Indices of the stat columns the program keeps in the given mode."""
        return [
            j
            for j, name in enumerate(self.stat_names)
            if not (rate_only and name.endswith(TOTAL_SUFFIX))
        ]


def _player_name(i: int) -> str:
    # every 17th name carries a comma and quotes, as "Last, First" exports do
    if i % 17 == 0:
        return f'Doe "{i}", Jr.'
    return f"Player {i}"


def make_players(seed: int, n_players: int) -> Players:
    """Draw ``n_players`` players (one row each, three if traded)."""
    rng = np.random.default_rng(seed)
    codes = [f"T{t:02d}" for t in range(N_TEAMS)]
    stat_names = [
        f"s{j:02d}{TOTAL_SUFFIX}" if j % 3 == 2 else f"s{j:02d}_rate"
        for j in range(N_STATS)
    ]
    is_total = np.array([name.endswith(TOTAL_SUFFIX) for name in stat_names])

    n_factors = len(FACTOR_VARIANCES)
    team_effect = rng.normal(scale=0.8, size=(N_TEAMS, n_factors))
    team_of = rng.integers(0, N_TEAMS, size=n_players)
    factors = rng.normal(size=(n_players, n_factors)) * np.sqrt(FACTOR_VARIANCES)
    factors += team_effect[team_of]
    mixing = rng.normal(size=(n_factors, N_STATS))
    rates = 10.0 + factors @ mixing + rng.normal(scale=0.8, size=(n_players, N_STATS))

    games = np.where(
        rng.random(n_players) < SHORT,
        rng.integers(1, MIN_GAMES, size=n_players),
        rng.integers(MIN_GAMES, 83, size=n_players),
    )
    minutes = np.round(games * rng.uniform(8.0, 38.0, size=n_players), 1)
    values = np.where(is_total, np.round(rates * minutes[:, None] / 100.0, 1), np.round(rates, 3))
    traded_mask = rng.random(n_players) < TRADED

    kept = np.flatnonzero(games >= MIN_GAMES)
    duplicate_of: dict[str, str] = {}
    n_dupes = int(round(DUPLICATES * kept.size))
    if n_dupes:
        picks = rng.choice(kept, size=2 * n_dupes, replace=False)
        for src, dst in zip(picks[:n_dupes], picks[n_dupes:]):
            values[dst] = values[src]
            duplicate_of[f"p{dst:05d}"] = f"p{src:05d}"

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(META + stat_names)
    membership: dict[str, str] = {}
    for i in range(n_players):
        pid, name = f"p{i:05d}", _player_name(i)
        cells = [repr(v) for v in values[i].tolist()]
        if traded_mask[i]:
            first = int(rng.integers(1, games[i])) if games[i] > 1 else 0
            other = (team_of[i] + 1 + int(rng.integers(0, N_TEAMS - 1))) % N_TEAMS
            share = first / games[i]
            for team, g, m in (
                (codes[other], first, round(minutes[i] * share, 1)),
                (codes[team_of[i]], games[i] - first, round(minutes[i] * (1 - share), 1)),
            ):
                split = rates[i] + rng.normal(scale=0.5, size=N_STATS)
                split = np.where(is_total, np.round(split * m / 100.0, 1), np.round(split, 3))
                writer.writerow([pid, name, team, g, m, *(repr(v) for v in split.tolist())])
            writer.writerow([pid, name, "TOT", games[i], minutes[i], *cells])
        else:
            writer.writerow([pid, name, codes[team_of[i]], games[i], minutes[i], *cells])
        if games[i] >= MIN_GAMES:
            # a traded player counts for the team of their last split
            membership[pid] = codes[team_of[i]]

    strength = team_effect[:, 0] - 0.6 * team_effect[:, 1] + 0.4 * team_effect[:, 3]
    win = np.clip(0.5 + 0.08 * strength + rng.normal(scale=0.03, size=N_TEAMS), 0.05, 0.95)
    return Players(
        csv_text=out.getvalue(),
        stat_names=stat_names,
        kept_ids=[f"p{i:05d}" for i in kept],
        kept_names=[_player_name(i) for i in kept],
        kept_minutes=minutes[kept],
        kept_values=values[kept],
        membership=membership,
        win_pct={code: round(float(w), 3) for code, w in zip(codes, win)},
        duplicate_of=duplicate_of,
    )


def write_inputs(players: Players, directory: Path, rate_only: bool) -> dict[str, Path]:
    """Write the files one CLI chain reads; returns them by role."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "players": directory / "players.csv",
        "membership": directory / "membership.csv",
        "winpct": directory / "winpct.csv",
    }
    paths["players"].write_text(players.csv_text, encoding="utf-8")
    paths["membership"].write_text(
        "player_id,team_code\n"
        + "".join(f"{pid},{team}\n" for pid, team in players.membership.items()),
        encoding="utf-8",
    )
    paths["winpct"].write_text(
        "team_code,win_pct\n"
        + "".join(f"{team},{w!r}\n" for team, w in players.win_pct.items()),
        encoding="utf-8",
    )
    if rate_only:
        paths["config"] = directory / "config.json"
        paths["config"].write_text(json.dumps(RATE_ONLY_CONFIG) + "\n", encoding="utf-8")
    return paths
