import io

import numpy as np
import pytest

from statspace import (
    AggregationError,
    EntityLookupError,
    ParameterError,
    ParseError,
    StatTable,
    ValidationError,
    load_membership,
    load_win_pct,
    rank_similar,
    regression_weighted_score,
    sdi,
    team_scores,
    team_win_pct,
)


def profiles(ids: list[str], minutes: list[float], values) -> StatTable:
    """Players' scores as ``pca`` gives them: named by their ids here, in
    columns ``PC1`` to ``PCk``."""
    return StatTable(ids, ids, minutes, [f"PC{j + 1}" for j in range(values.shape[1])], values)


def make_scores(rows: dict[str, tuple[float, list[float]]]) -> StatTable:
    return profiles(
        list(rows),
        [minutes for minutes, _ in rows.values()],
        np.array([scores for _, scores in rows.values()]),
    )


class TestTeamScores:
    def test_minutes_weighted_average(self):
        scores = make_scores(
            {"p1": (100.0, [1.0, 0.0]), "p2": (300.0, [2.0, 4.0])}
        )
        teams = team_scores(scores, {"p1": "BOS", "p2": "BOS"})
        assert teams.entity_ids == ["BOS"]
        assert teams.values[0, 0] == 1.75
        assert teams.values[0, 1] == 3.0
        assert teams.minutes == [400.0]

    def test_teams_are_named_by_code_in_the_players_columns(self):
        players = StatTable(
            ["p1", "p2", "p3"], ["One", "Two", "Three"], [10.0, 20.0, 30.0],
            ["PC1", "PC3"], np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        )
        teams = team_scores(players, {"p1": "NYK", "p2": "BOS", "p3": "NYK"})
        assert (teams.entity_ids, teams.entity_names) == (["BOS", "NYK"], ["BOS", "NYK"])
        assert teams.stat_names == ["PC1", "PC3"]
        assert teams.stat_names is not players.stat_names

    def test_single_member_team(self):
        scores = make_scores({"p1": (500.0, [1.5, -2.0])})
        teams = team_scores(scores, {"p1": "NYK"})
        np.testing.assert_array_equal(teams.values[0], [1.5, -2.0])

    def test_equal_minutes_equals_plain_mean(self):
        scores = make_scores(
            {
                "p1": (100.0, [1.0, 2.0]),
                "p2": (100.0, [3.0, 6.0]),
                "p3": (100.0, [5.0, 1.0]),
            }
        )
        teams = team_scores(scores, {p: "CHI" for p in ("p1", "p2", "p3")})
        np.testing.assert_allclose(teams.values[0], [3.0, 3.0])

    def test_teams_sorted_by_code(self):
        scores = make_scores(
            {"p1": (10.0, [1.0]), "p2": (10.0, [2.0]), "p3": (10.0, [3.0])}
        )
        teams = team_scores(scores, {"p1": "NYK", "p2": "ATL", "p3": "CHI"})
        assert teams.entity_ids == ["ATL", "CHI", "NYK"]

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
        assert teams.entity_ids == ["BOS"]
        assert teams.values[0, 0] == 1.0

    def test_no_player_assigned(self):
        scores = make_scores({"p1": (10.0, [1.0]), "p2": (10.0, [9.0])})
        with pytest.warns(UserWarning, match="players without team membership"):
            with pytest.raises(AggregationError) as raised:
                team_scores(scores, {})
        assert str(raised.value) == "no players could be assigned to any team"

    def test_long_lists_of_players_are_cut(self):
        ids = [f"p{i:02d}" for i in range(26)]
        scores = make_scores({pid: (10.0, [1.0]) for pid in ids})
        with pytest.warns(UserWarning) as warned:
            team_scores(scores, {ids[0]: "BOS"})
        assert str(warned[0].message) == (
            f"players without team membership, excluded: {ids[1:11]} and 15 more"
        )
        ghosts = {f"g{i:02d}": "NYK" for i in range(25)}
        with pytest.raises(EntityLookupError) as raised:
            team_scores(scores, {**dict.fromkeys(ids, "BOS"), **ghosts})
        assert str(raised.value) == (
            f"membership references unknown players: {sorted(ghosts)[:10]} and 15 more"
        )

    def test_convexity_bounds(self):
        rng = np.random.default_rng(21)
        ids = [f"p{i}" for i in range(12)]
        scores = profiles(ids, list(rng.uniform(1.0, 3000.0, size=12)), rng.normal(size=(12, 4)))
        membership = {pid: ("AAA" if i < 7 else "BBB") for i, pid in enumerate(ids)}
        teams = team_scores(scores, membership)
        for t, code in enumerate(teams.entity_ids):
            idx = [i for i, pid in enumerate(ids) if membership[pid] == code]
            member_scores = scores.values[idx]
            assert (teams.values[t] >= member_scores.min(axis=0) - 1e-12).all()
            assert (teams.values[t] <= member_scores.max(axis=0) + 1e-12).all()

    def test_same_bits_from_a_memoryview(self):
        # the projection cache gives the scores as a 2-D memoryview of its bytes
        rng = np.random.default_rng(8)
        values = rng.normal(size=(40, 4))
        ids = [f"p{i}" for i in range(40)]
        minutes = rng.uniform(1.0, 3000.0, size=40).tolist()
        membership = {pid: "ABC"[i % 3] for i, pid in enumerate(ids)}
        cached = memoryview(values.tobytes()).cast("d", values.shape)
        want = team_scores(profiles(ids, minutes, values), membership)
        got = team_scores(profiles(ids, minutes, cached), membership)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.minutes == want.minutes

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
        np.testing.assert_allclose(one.values, two.values, atol=1e-12)

    def test_member_order_invariance(self):
        rows = {
            "p1": (120.0, [1.0, 2.0]),
            "p2": (880.0, [-1.0, 0.5]),
            "p3": (45.0, [3.0, -4.0]),
        }
        membership = {p: "T" for p in rows}
        forward = team_scores(make_scores(rows), membership)
        backward = team_scores(make_scores(dict(reversed(rows.items()))), membership)
        np.testing.assert_allclose(forward.values, backward.values, atol=1e-15)


class TestWinPct:
    def test_attach(self):
        scores = make_scores({"p1": (10.0, [1.0]), "p2": (10.0, [2.0])})
        teams = team_scores(scores, {"p1": "ATL", "p2": "BOS"})
        assert team_win_pct(teams, {"ATL": 0.5, "BOS": 0.75, "XXX": 0.1}) == [0.5, 0.75]

    def test_missing_team(self):
        scores = make_scores({"p1": (10.0, [1.0]), "p2": (10.0, [2.0])})
        teams = team_scores(scores, {"p1": "ATL", "p2": "CHI"})
        with pytest.raises(EntityLookupError) as raised:
            team_win_pct(teams, {"BOS": 0.5, "CHI": 0.5})
        assert str(raised.value) == "win_pct missing for teams: ['ATL']"

    def test_out_of_range_rejected(self):
        scores = make_scores({"p1": (10.0, [1.0])})
        teams = team_scores(scores, {"p1": "ATL"})
        for value in (1.5, -0.1, float("nan")):
            with pytest.raises(ValidationError, match=r"in \[0, 1\]"):
                team_win_pct(teams, {"ATL": value})


class TestTeamsAsProfiles:
    """Team profiles are ``StatTable``s, as players' scores are, so the
    similarity code takes them as it takes players'."""

    def _teams(self):
        scores = make_scores(
            {
                "p1": (100.0, [1.0, 0.0, 2.0]),
                "p2": (300.0, [2.0, 4.0, -1.0]),
                "p3": (200.0, [0.5, 1.0, 1.0]),
                "p4": (50.0, [-3.0, 2.0, 0.0]),
                "p5": (400.0, [1.0, 1.0, 1.0]),
            }
        )
        membership = {"p1": "NYK", "p2": "NYK", "p3": "BOS", "p4": "CHI", "p5": "ATL"}
        return team_scores(scores, membership)

    def test_ranked_by_rank_similar(self):
        teams = self._teams()
        nyk = teams.values[teams.entity_ids.index("NYK")]
        want = sorted(
            (float(((teams.values[t] - nyk) ** 2).sum()), code)
            for t, code in enumerate(teams.entity_ids)
            if code != "NYK"
        )
        ranking = rank_similar(teams, "NYK", top=2)
        assert ranking.query_id == "NYK"
        assert ranking.entries == [(code, value) for value, code in want[:2]]
        assert ranking.components_used == frozenset({0, 1, 2})
        only_first = rank_similar(teams, "NYK", top=3, components={0})
        assert [code for code, _ in only_first.entries] == ["ATL", "BOS", "CHI"]

    def test_sdi_between_two_teams(self):
        teams = self._teams()
        row = dict(zip(teams.entity_ids, teams.values.tolist()))
        # NYK is (1.75, 3.0, -0.25) and ATL (1.0, 1.0, 1.0)
        assert sdi(row["NYK"], row["ATL"]) == 0.75**2 + 2.0**2 + 1.25**2
        assert sdi(row["NYK"], row["ATL"], components=[1]) == 4.0
        assert sdi(row["ATL"], row["NYK"]) == sdi(row["NYK"], row["ATL"])

    def test_unknown_team_query(self):
        with pytest.raises(EntityLookupError, match="LAL"):
            rank_similar(self._teams(), "LAL", top=1)


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
            teams.values[0, 0],
            teams.values[1, 0],
        ]

    def test_bad_component_index(self):
        with pytest.raises(ParameterError):
            regression_weighted_score(self._teams(), {7: 1.0})

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight(self, weight):
        with pytest.raises(ParameterError, match=r"indices \[1\] are not finite"):
            regression_weighted_score(self._teams(), {0: 0.5, 1: weight})


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
