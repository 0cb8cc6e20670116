import io

import numpy as np
import pytest

from statspace import (
    AggregationError,
    EntityLookupError,
    ParameterError,
    ParseError,
    ScoreSet,
    ValidationError,
    load_membership,
    load_win_pct,
    regression_weighted_score,
    team_scores,
    with_win_pct,
)


def make_scores(rows: dict[str, tuple[float, list[float]]]) -> ScoreSet:
    return ScoreSet(
        entity_ids=list(rows),
        minutes=[minutes for minutes, _ in rows.values()],
        scores=np.array([scores for _, scores in rows.values()]),
    )


class TestTeamScores:
    def test_minutes_weighted_average(self):
        scores = make_scores(
            {"p1": (100.0, [1.0, 0.0]), "p2": (300.0, [2.0, 4.0])}
        )
        teams = team_scores(scores, {"p1": "BOS", "p2": "BOS"})
        assert teams.team_codes == ["BOS"]
        assert teams.scores[0, 0] == 1.75
        assert teams.scores[0, 1] == 3.0
        assert teams.total_minutes == [400.0]

    def test_single_member_team(self):
        scores = make_scores({"p1": (500.0, [1.5, -2.0])})
        teams = team_scores(scores, {"p1": "NYK"})
        np.testing.assert_array_equal(teams.scores[0], [1.5, -2.0])

    def test_equal_minutes_equals_plain_mean(self):
        scores = make_scores(
            {
                "p1": (100.0, [1.0, 2.0]),
                "p2": (100.0, [3.0, 6.0]),
                "p3": (100.0, [5.0, 1.0]),
            }
        )
        teams = team_scores(scores, {p: "CHI" for p in ("p1", "p2", "p3")})
        np.testing.assert_allclose(teams.scores[0], [3.0, 3.0])

    def test_teams_sorted_by_code(self):
        scores = make_scores(
            {"p1": (10.0, [1.0]), "p2": (10.0, [2.0]), "p3": (10.0, [3.0])}
        )
        teams = team_scores(scores, {"p1": "NYK", "p2": "ATL", "p3": "CHI"})
        assert teams.team_codes == ["ATL", "CHI", "NYK"]

    def test_zero_total_minutes_names_team(self):
        scores = make_scores({"p1": (0.0, [1.0]), "p2": (10.0, [2.0])})
        with pytest.raises(AggregationError, match="BOS"):
            team_scores(scores, {"p1": "BOS", "p2": "NYK"})

    def test_unknown_player_in_membership(self):
        scores = make_scores({"p1": (10.0, [1.0])})
        with pytest.raises(EntityLookupError, match="ghost"):
            team_scores(scores, {"p1": "BOS", "ghost": "NYK"})

    def test_unassigned_player_warns_and_is_excluded(self):
        scores = make_scores({"p1": (10.0, [1.0]), "p2": (10.0, [9.0])})
        with pytest.warns(UserWarning, match="p2"):
            teams = team_scores(scores, {"p1": "BOS"})
        assert teams.team_codes == ["BOS"]
        assert teams.scores[0, 0] == 1.0

    def test_convexity_bounds(self):
        rng = np.random.default_rng(21)
        ids = [f"p{i}" for i in range(12)]
        scores = ScoreSet(
            entity_ids=ids,
            minutes=list(rng.uniform(1.0, 3000.0, size=12)),
            scores=rng.normal(size=(12, 4)),
        )
        membership = {pid: ("AAA" if i < 7 else "BBB") for i, pid in enumerate(ids)}
        teams = team_scores(scores, membership)
        for t, code in enumerate(teams.team_codes):
            idx = [i for i, pid in enumerate(ids) if membership[pid] == code]
            member_scores = scores.scores[idx]
            assert (teams.scores[t] >= member_scores.min(axis=0) - 1e-12).all()
            assert (teams.scores[t] <= member_scores.max(axis=0) + 1e-12).all()

    def test_split_player_leaves_score_unchanged(self):
        base = make_scores(
            {"p1": (200.0, [1.0, -2.0]), "p2": (300.0, [0.5, 4.0])}
        )
        split = make_scores(
            {
                "p1a": (100.0, [1.0, -2.0]),
                "p1b": (100.0, [1.0, -2.0]),
                "p2": (300.0, [0.5, 4.0]),
            }
        )
        one = team_scores(base, {"p1": "T", "p2": "T"})
        two = team_scores(split, {"p1a": "T", "p1b": "T", "p2": "T"})
        np.testing.assert_allclose(one.scores, two.scores, atol=1e-12)

    def test_member_order_invariance(self):
        rows = {
            "p1": (120.0, [1.0, 2.0]),
            "p2": (880.0, [-1.0, 0.5]),
            "p3": (45.0, [3.0, -4.0]),
        }
        membership = {p: "T" for p in rows}
        forward = team_scores(make_scores(rows), membership)
        backward = team_scores(make_scores(dict(reversed(rows.items()))), membership)
        np.testing.assert_allclose(forward.scores, backward.scores, atol=1e-15)


class TestWinPct:
    def test_attach(self):
        scores = make_scores({"p1": (10.0, [1.0]), "p2": (10.0, [2.0])})
        teams = team_scores(scores, {"p1": "ATL", "p2": "BOS"})
        teams = with_win_pct(teams, {"ATL": 0.5, "BOS": 0.75, "XXX": 0.1})
        assert teams.win_pct == [0.5, 0.75]

    def test_missing_team(self):
        scores = make_scores({"p1": (10.0, [1.0])})
        teams = team_scores(scores, {"p1": "ATL"})
        with pytest.raises(EntityLookupError, match="ATL"):
            with_win_pct(teams, {"BOS": 0.5})

    def test_out_of_range_rejected(self):
        scores = make_scores({"p1": (10.0, [1.0])})
        teams = team_scores(scores, {"p1": "ATL"})
        with pytest.raises(ValidationError):
            with_win_pct(teams, {"ATL": 1.5})


class TestRegressionWeightedScore:
    def _teams(self):
        scores = make_scores(
            {"p1": (10.0, [0.5, 1.0, -2.0, 2.0]), "p2": (10.0, [1.5, 1.0, 0.0, 2.0])}
        )
        return team_scores(scores, {"p1": "ATL", "p2": "BOS"})

    def test_two_component_blend(self):
        scores = make_scores({"p1": (10.0, [9.0, 1.0, 9.0, 2.0])})
        teams = team_scores(scores, {"p1": "T"})
        result = regression_weighted_score(teams, {1: 0.17, 3: 0.09})
        assert result == [pytest.approx(0.35, abs=1e-15)]

    def test_empty_weights_gives_zeros(self):
        assert regression_weighted_score(self._teams(), {}) == [0.0, 0.0]

    def test_identity_weight_returns_column(self):
        teams = self._teams()
        assert regression_weighted_score(teams, {0: 1.0}) == [
            teams.scores[0, 0],
            teams.scores[1, 0],
        ]

    def test_bad_component_index(self):
        with pytest.raises(ParameterError):
            regression_weighted_score(self._teams(), {7: 1.0})


class TestLoaders:
    def test_membership_with_and_without_header(self):
        with_header = io.StringIO("player_id,team_code\np1,BOS\np2,NYK\n")
        assert load_membership(with_header) == {"p1": "BOS", "p2": "NYK"}
        without = io.StringIO("p1,BOS\np2,NYK\n")
        assert load_membership(without) == {"p1": "BOS", "p2": "NYK"}

    def test_membership_conflict(self):
        source = io.StringIO("p1,BOS\np1,NYK\n")
        with pytest.raises(ValidationError, match="p1"):
            load_membership(source)

    def test_membership_wrong_width(self):
        with pytest.raises(ParseError, match="line 1"):
            load_membership(io.StringIO("p1,BOS,extra\n"))

    def test_win_pct(self):
        source = io.StringIO("team_code,win_pct\nBOS,0.61\nNYK,0.45\n")
        assert load_win_pct(source) == {"BOS": 0.61, "NYK": 0.45}

    def test_win_pct_exact_repeat_accepted(self):
        source = io.StringIO("BOS,0.61\nNYK,0.45\nBOS,0.61\n")
        assert load_win_pct(source) == {"BOS": 0.61, "NYK": 0.45}

    def test_win_pct_conflict(self):
        source = io.StringIO("team_code,win_pct\nBOS,0.61\nNYK,0.45\nBOS,0.5\n")
        with pytest.raises(ValidationError, match="line 4.*BOS"):
            load_win_pct(source)

    def test_win_pct_validation(self):
        with pytest.raises(ValidationError, match="1.2"):
            load_win_pct(io.StringIO("BOS,1.2\n"))
        with pytest.raises(ParseError, match="lots"):
            load_win_pct(io.StringIO("BOS,lots\n"))
