"""Shared fixtures: a small deterministic players dataset with team structure."""

from __future__ import annotations

import numpy as np
import pytest

from statspace import RawTable

TEAMS = ["ATL", "BOS", "CHI", "DEN", "GSW", "HOU", "MIA", "NYK"]
STATS = [
    "pts_per48",
    "reb_per48",
    "ast_per48",
    "touches_per48",
    "passes_per48",
    "speed_mph",
]


def _player_rows() -> list[tuple[str, str, str, int, float, list[float]]]:
    """16 regulars (2 per team), 1 traded player, 1 below the games cutoff."""
    rng = np.random.default_rng(7)
    base = np.array([18.0, 8.0, 4.5, 70.0, 55.0, 4.1])
    spread = np.array([6.0, 3.5, 2.5, 20.0, 15.0, 0.4])
    rows = []
    for i in range(16):
        team = TEAMS[i % len(TEAMS)]
        # a per-team tilt keeps the team-level scores from collapsing together
        tilt = (i % len(TEAMS) - 3.5) / 3.5
        stats = base + spread * (rng.normal(size=6) + 0.8 * tilt)
        stats = np.maximum(stats, 0.1)
        rows.append(
            (
                f"p{i + 1:02d}",
                f"Player {i + 1:02d}",
                team,
                41 + (i * 3) % 42,
                900.0 + 125.0 * i,
                [float(v) for v in stats],
            )
        )
    traded = base + spread * rng.normal(size=6)
    traded = [float(v) for v in np.maximum(traded, 0.1)]
    rows.append(("p17", "Player 17", "PHI", 30, 700.0, traded))
    rows.append(("p17", "Player 17", "MIL", 25, 600.0, traded))
    rows.append(("p17", "Player 17", "TOT", 55, 1300.0, traded))
    bench = base + spread * rng.normal(size=6)
    bench = [float(v) for v in np.maximum(bench, 0.1)]
    rows.append(("p18", "Player 18", "DEN", 30, 400.0, bench))
    return rows


def players_csv_text() -> str:
    lines = ["player_id,player_name,team,games_played,minutes," + ",".join(STATS)]
    for pid, name, team, games, minutes, stats in _player_rows():
        cells = [pid, name, team, str(games), repr(minutes)]
        cells.extend(repr(v) for v in stats)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def membership_csv_text() -> str:
    lines = ["player_id,team_code"]
    for pid, _, team, games, _, _ in _player_rows():
        if pid == "p17":
            continue
        if games >= 41:
            lines.append(f"{pid},{team}")
    lines.append("p17,MIA")  # traded player assigned where he finished
    return "\n".join(lines) + "\n"


@pytest.fixture
def players_csv(tmp_path):
    path = tmp_path / "players.csv"
    path.write_text(players_csv_text(), encoding="utf-8")
    return path


@pytest.fixture
def membership_csv(tmp_path):
    path = tmp_path / "membership.csv"
    path.write_text(membership_csv_text(), encoding="utf-8")
    return path


@pytest.fixture
def fitted_pipeline(players_csv):
    """(table, params, standardized, model) for the fixture dataset."""
    from statspace import ingest, pca

    records = ingest.parse_csv(players_csv)
    table = ingest.build_table(ingest.apply_filter(records, ingest.FilterPolicy()))
    params, standardized = pca.standardize(table)
    model = pca.fit_pca(standardized, 4, params)
    return table, params, standardized, model


def power_fit(standardized, k, params):
    """The top-k fit of ``standardized`` by the deflation solver, built into
    a ``PcaModel`` so that the model's checks run on its loadings and
    variances: the reference that ``fit_pca`` is compared with."""
    from statspace import pca

    loadings, variances = pca._power_deflation(standardized, k)
    total_variance = float(np.trace(pca._covariance(standardized)))
    return pca.PcaModel(params, loadings, variances, total_variance, len(standardized))


def assert_same_outcome(got, want):
    """``got`` is the parse outcome ``want``: the same exception type and
    message, or a RawTable with the same labels and the same array bits."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert isinstance(got, RawTable), got
    for name in ("player_ids", "player_names", "team_codes", "stat_names"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("games_played", "minutes_total", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
