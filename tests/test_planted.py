"""A stand-in for criterion 8: on a league with planted structure, the CLI
recovers the shares, the lead stats, the twins and the team effect that
were planted (see ``planted``)."""

import csv
import json
import math

import numpy as np
import pytest

import planted
from statspace.cli import main

SEED = 2013
N = len(planted.TEAMS) * planted.PER_TEAM


@pytest.fixture(scope="module")
def league(tmp_path_factory):
    """The league's files, and an --out directory that ``fit`` wrote."""
    root = tmp_path_factory.mktemp("planted")
    sample = planted.league(SEED)
    for name in ("players", "membership", "winpct"):
        (root / f"{name}.csv").write_text(getattr(sample, name), encoding="utf-8")
    common = ["--input", str(root / "players.csv"), "--out", str(root / "out")]
    assert main(["fit", *common]) == 0
    model = json.loads((root / "out" / "model.json").read_text(encoding="utf-8"))
    return root, common + ["--model", str(root / "out" / "model.json")], model, sample.twins


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_explained_ratios(league):
    _, _, model, _ = league
    p = len(planted.STATS)
    population = np.linalg.eigvalsh(planted.population_correlation())[::-1][:4]
    ratios = np.array(model["component_variances"]) / model["total_variance"]
    # an eigenvalue's sampling SD is about lambda * sqrt(2 / n)
    tolerance = 3 * population * math.sqrt(2 / N) / p
    assert (np.abs(ratios - population / p) < tolerance).all(), (ratios, population / p)
    assert abs(ratios.sum() - 0.68) <= 0.02  # as criterion 8 asks of the paper's 68%


def test_each_component_leads_with_its_block_lead(league):
    _, _, model, _ = league
    names = model["standardization"]["stat_names"]
    leading = [names[int(np.argmax(np.abs(row)))] for row in model["loadings"]]
    assert leading == planted.LEADS


def test_twins_are_each_others_nearest(league, capsys):
    root, common, _, twins = league
    for a, b in twins:
        for query, partner in ((a, b), (b, a)):
            assert main(["similar", *common, "--query", query, "--top", "1"]) == 0
            assert [row["entity_id"] for row in _rows(root / "out" / "similar.csv")] == [partner]
    assert capsys.readouterr().err == ""


def test_regress_finds_the_team_effect(league, capsys):
    root, common, _, _ = league
    teams = ["--membership", str(root / "membership.csv"), "--winpct", str(root / "winpct.csv")]
    assert main(["regress", *common, *teams]) == 0
    terms = {row["term"]: row for row in _rows(root / "out" / "regression.csv")}
    assert float(terms["PC2"]["coefficient"]) > 0
    assert float(terms["PC2"]["p_value"]) < 0.01
    assert capsys.readouterr().err == ""
