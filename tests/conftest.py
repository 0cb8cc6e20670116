"""Shared fixtures: a small deterministic players dataset with team structure,
and the deflation solver that ``fit_pca`` is checked against."""

from __future__ import annotations

import numpy as np
import pytest

from statspace import NumericalError, ParameterError, RawTable, pca

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
    from statspace import ingest

    records = ingest.parse_csv(players_csv)
    table = ingest.build_table(ingest.apply_filter(records, ingest.FilterPolicy()))
    params, standardized = pca.standardize(table)
    model = pca.fit_pca(standardized, 4, params)
    return table, params, standardized, model


# Power iteration stops when successive vectors differ by less than this in
# Euclidean norm, or fails after this many iterations. Both are read when the
# solver runs.
POWER_TOL = 1e-12
POWER_MAX_ITER = 10_000


def power_fit(standardized, k, params):
    """The top-k fit of ``standardized`` by the deflation solver, built into
    a ``PcaModel`` so that the model's checks run on its loadings and
    variances: the reference that ``fit_pca`` is compared with."""
    loadings, variances = _power_deflation(standardized, k)
    total_variance = float(np.trace(pca._covariance(standardized)))
    return pca.PcaModel(params, loadings, variances, total_variance, len(standardized))


def _power_deflation(Z: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Extract k loading vectors by repeated variance maximization.

    The direction maximizing the variance of the projected data is the
    dominant eigenvector of the deflated cross-product matrix; after each
    component is found the data matrix is rebuilt with every found component
    subtracted before searching for the next one.
    """
    n, p = Z.shape
    rng = np.random.default_rng(0)  # fixed seed: fits must be reproducible
    found: list[np.ndarray] = []
    variances: list[float] = []

    for component in range(k):
        if found:
            W = np.array(found)  # deflate: remove span of found components
            deflated = Z - (Z @ W.T) @ W
        else:
            deflated = Z
        A = deflated.T @ deflated

        # A has negligible residual variance once the data rank is exhausted;
        # any direction orthogonal to the found components is then optimal.
        if np.trace(A) <= 1e-12 * max(1.0, float(np.trace(Z.T @ Z))):
            w = _orthogonal_completion(found, p)
        else:
            w = _dominant_eigenvector(A, found, rng, component)

        w = pca._orient_sign(w)
        found.append(w)
        variances.append(float(np.var(Z @ w, ddof=1)))

    return np.array(found), np.array(variances)


def _dominant_eigenvector(
    A: np.ndarray,
    previous: list[np.ndarray],
    rng: np.random.Generator,
    component: int,
) -> np.ndarray:
    v = rng.normal(size=A.shape[0])
    v = _project_out(v, previous)
    v /= np.linalg.norm(v)
    diff = np.inf
    for _ in range(POWER_MAX_ITER):
        u = A @ v
        u = _project_out(u, previous)  # keep rounding drift out of found span
        norm = np.linalg.norm(u)
        if norm == 0.0:
            return _orthogonal_completion(previous, A.shape[0])
        u /= norm
        diff = float(np.linalg.norm(u - v))
        v = u
        if diff < POWER_TOL:
            return v
    raise NumericalError(
        f"power iteration did not converge for component {component + 1}; "
        f"last residual {diff:.3e}"
    )


def _project_out(v: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    for w in basis:
        v = v - (v @ w) * w
    return v


def _orthogonal_completion(previous: list[np.ndarray], p: int) -> np.ndarray:
    """Deterministic unit vector orthogonal to all found loadings."""
    best, best_residual = None, -1.0
    for j in range(p):
        candidate = _project_out(np.eye(p)[j], previous)
        residual = float(np.linalg.norm(candidate))
        if residual > best_residual + 1e-12:
            best, best_residual = candidate, residual
    if best is None or best_residual <= 1e-8:
        raise ParameterError("cannot extend orthonormal basis")
    return best / best_residual


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
