"""Every message that names columns, teams or keys names at most ten, and
one that echoes a text quotes at most its first 50 characters."""

import io
import json
import warnings

import numpy as np
import pytest

from statspace import (
    FilterPolicy,
    ParameterError,
    PcaModel,
    StandardizationParams,
    StatspaceError,
    StatTable,
    cli,
    ingest,
    parse_csv,
    standardize,
    team_win_pct,
    transform,
)

NAMES = [f"s{i:02d}" for i in range(25)]
META = "player_id,player_name,team,games_played,minutes"


def _table(names: list[str], values: np.ndarray) -> StatTable:
    ids = [f"e{i}" for i in range(len(values))]
    return StatTable(ids, ids, [100.0] * len(values), names, values)


def _constant_columns() -> StatTable:
    values = np.column_stack([np.full((3, 25), 5.0), [1.0, 2.0, 3.0]])
    return _table([*NAMES, "varies"], values)


def _lacks_model_columns() -> None:
    params = StandardizationParams(NAMES, np.zeros(25), np.ones(25))
    model = PcaModel(params, [np.eye(25)[0]], [1.0], 25.0, 3)
    transform(model, _table(["other"], np.ones((3, 1))))


def _unknown_config_keys(tmp_path) -> None:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict.fromkeys(NAMES, 1)), encoding="utf-8")
    cli._load_config_file(str(config))


CASES = {
    "repeated-stat-name": (
        "stat_names lists a column more than once: ",
        lambda tmp_path: StandardizationParams(NAMES * 2, np.zeros(50), np.ones(50)),
    ),
    "non-positive-std-dev": (
        "non-positive std dev for columns: ",
        lambda tmp_path: StandardizationParams(NAMES, np.zeros(25), np.zeros(25)),
    ),
    "dropping-zero-variance": (  # a warning
        "dropping zero-variance columns: ",
        lambda tmp_path: standardize(_constant_columns()),
    ),
    "table-lacks-model-columns": (
        "table lacks model columns: ",
        lambda tmp_path: _lacks_model_columns(),
    ),
    "duplicate-header": (
        "duplicate header names: ",
        lambda tmp_path: parse_csv(io.StringIO(f"{META},{','.join(NAMES * 2)}\n")),
    ),
    "win-pct-missing": (
        "win_pct missing for teams: ",
        lambda tmp_path: team_win_pct(
            StatTable(NAMES, NAMES, [1.0] * 25, ["PC1"], np.zeros((25, 1))), {}
        ),
    ),
    "unknown-config-keys": ("unknown config keys: ", _unknown_config_keys),
    "repeated-schema-name": (
        "schema names a column more than once: ",
        lambda tmp_path: ingest._roles(NAMES * 2),
    ),
}


@pytest.mark.parametrize("prefix, action", CASES.values(), ids=CASES.keys())
def test_long_lists_are_cut(tmp_path, prefix, action):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            action(tmp_path)
        except StatspaceError as exc:
            message = str(exc)
        else:
            message = str(caught[0].message)
    assert message == f"{prefix}{NAMES[:10]} and 15 more"


def test_long_texts_are_cut():
    with pytest.raises(ParameterError) as raised:
        FilterPolicy(column_mode="x" * 1000)
    assert str(raised.value) == (
        f"column_mode must be 'rate-only' or 'all', got {'x' * 50!r} and 950 more characters"
    )
