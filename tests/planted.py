"""A seeded league whose structure is planted, so a test can check that the
pipeline recovers what is known in advance.

Each of four factors drives one block of stats: every stat of a block of m
correlates with its factor at sqrt(rho), so within the block the stats
correlate at rho and the block's population eigenvalue is near
1 + (m - 1) * rho. One lead stat per block correlates with its factor at
0.99, so it has the block's largest loading. 23 noise columns follow. The
blocks give the shares the paper reports: 0.42, 0.12, 0.09 and 0.04.
Players play for 30 teams, and half the variance of the second factor is
the team's, which the teams' win% follows. A few pairs of players are
near-twins: the second of a pair is the first with a little noise.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

BLOCKS = ((40, 0.94), (12, 0.89), (10, 0.79), (5, 0.65))  # (stats, within-block rho)
NOISE = 23
LEAD = 0.99  # the lead stat's correlation with its factor
TEAM_SHARE = 0.5  # of the second factor's variance
TEAMS = [f"T{t:02d}" for t in range(30)]
PER_TEAM = 16
TWIN_ROWS = (0, 160, 320)  # each pairs with the next row, on the same team
STATS = [f"f{b + 1}_{i:02d}" for b, (m, _) in enumerate(BLOCKS) for i in range(m)]
STATS += [f"noise_{i:02d}" for i in range(NOISE)]
LEADS = [f"f{b + 1}_00" for b in range(len(BLOCKS))]  # each block's first stat


class League(NamedTuple):
    players: str
    membership: str
    winpct: str
    twins: list[tuple[str, str]]


def _block_loadings() -> list[np.ndarray]:
    """Each block's stats' correlations with its factor, the lead's first."""
    blocks = []
    for m, rho in BLOCKS:
        a = np.full(m, np.sqrt(rho))
        a[0] = LEAD
        blocks.append(a)
    return blocks


def population_correlation() -> np.ndarray:
    """The stats' correlation matrix that ``league`` samples from."""
    corr = np.eye(len(STATS))
    start = 0
    for a in _block_loadings():
        block = slice(start, start + len(a))
        corr[block, block] = np.outer(a, a)
        start += len(a)
    np.fill_diagonal(corr, 1.0)
    return corr


def league(seed: int) -> League:
    """Players, membership and win% files of one sample of the league."""
    rng = np.random.default_rng(seed)
    n = len(TEAMS) * PER_TEAM
    team = np.repeat(np.arange(len(TEAMS)), PER_TEAM)
    effect = rng.standard_normal(len(TEAMS))
    factors = rng.standard_normal((n, len(BLOCKS)))
    factors[:, 1] = np.sqrt(TEAM_SHARE) * effect[team] + np.sqrt(1 - TEAM_SHARE) * factors[:, 1]
    columns = [
        factors[:, [b]] * a + rng.standard_normal((n, len(a))) * np.sqrt(1 - a**2)
        for b, a in enumerate(_block_loadings())
    ]
    values = np.hstack([*columns, rng.standard_normal((n, NOISE))])
    for row in TWIN_ROWS:
        values[row + 1] = values[row] + 0.01 * rng.standard_normal(len(STATS))
    ids = [f"p{i:03d}" for i in range(n)]
    minutes = rng.uniform(1000.0, 3000.0, n)

    players = ["player_id,player_name,team,games_played,minutes," + ",".join(STATS)]
    for i in range(n):
        cells = [ids[i], f"Player {i:03d}", TEAMS[team[i]], "82", repr(float(minutes[i]))]
        players.append(",".join(cells + [repr(float(v)) for v in values[i]]))
    membership = [f"{ids[i]},{TEAMS[team[i]]}" for i in range(n)]
    win_pct = np.clip(0.5 + 0.08 * effect + 0.02 * rng.standard_normal(len(TEAMS)), 0.0, 1.0)
    winpct = [f"{code},{float(w)!r}" for code, w in zip(TEAMS, win_pct)]
    return League(
        players="\n".join(players) + "\n",
        membership="\n".join(["player_id,team_code", *membership]) + "\n",
        winpct="\n".join(winpct) + "\n",
        twins=[(ids[row], ids[row + 1]) for row in TWIN_ROWS],
    )
