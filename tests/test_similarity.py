import numpy as np
import pytest
from hypothesis import given, strategies as st

from statspace import (
    EntityLookupError,
    ParameterError,
    ScoreSet,
    rank_similar,
    sdi,
)
from statspace.similarity import ranking_to_csv, ranking_to_json

finite_score = st.floats(
    min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False
)
score_vector = st.lists(finite_score, min_size=4, max_size=4)


def make_scores(rows: dict[str, list[float]]) -> ScoreSet:
    return ScoreSet(
        entity_ids=list(rows),
        minutes=[100.0] * len(rows),
        scores=np.array(list(rows.values())),
    )


class TestSdi:
    def test_identical_vectors(self):
        assert sdi([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]) == 0.0

    def test_single_unit_difference(self):
        assert sdi([1, 2, 3, 4], [0, 2, 3, 4]) == 1.0

    def test_hand_computed_example(self):
        assert sdi([1, 0, -1, 2], [-1, 1, 0, 0]) == 10.0

    def test_component_subset(self):
        assert sdi([1, 0, -1, 2], [-1, 1, 0, 0], components={0}) == 4.0
        assert sdi([1, 0, -1, 2], [-1, 1, 0, 0], components={1, 2}) == 2.0

    def test_empty_components(self):
        with pytest.raises(ParameterError, match="empty"):
            sdi([1, 2, 3, 4], [0, 0, 0, 0], components=set())

    def test_out_of_range_component(self):
        with pytest.raises(ParameterError, match="out of range"):
            sdi([1, 2], [0, 0], components={5})

    @given(a=score_vector, b=score_vector)
    def test_symmetry_nonnegativity_self_zero(self, a, b):
        assert sdi(a, b) == sdi(b, a)
        assert sdi(a, b) >= 0.0
        assert sdi(a, a) == 0.0

    @given(a=score_vector, b=score_vector)
    def test_matches_independent_squared_euclidean(self, a, b):
        reference = float(np.linalg.norm(np.array(a) - np.array(b)) ** 2)
        value = sdi(a, b)
        assert value == pytest.approx(reference, abs=1e-12 * max(1.0, reference))

    @given(a=score_vector, b=score_vector, data=st.data())
    def test_subset_monotonicity(self, a, b, data):
        superset = data.draw(
            st.sets(st.integers(min_value=0, max_value=3), min_size=1)
        )
        subset = data.draw(st.sets(st.sampled_from(sorted(superset)), min_size=1))
        assert sdi(a, b, subset) <= sdi(a, b, superset)


class TestRankSimilar:
    def test_one_dimensional_example(self):
        scores = make_scores(
            {"A": [0, 0, 0, 0], "B": [1, 0, 0, 0], "C": [3, 0, 0, 0]}
        )
        ranking = rank_similar(scores, "A", top=2)
        assert ranking.entries == [("B", 1.0), ("C", 9.0)]
        assert ranking.query_id == "A"
        assert ranking.components_used == frozenset({0, 1, 2, 3})

    def test_top_at_least_population_returns_everyone(self):
        scores = make_scores(
            {"A": [0, 0, 0, 0], "B": [1, 0, 0, 0], "C": [3, 0, 0, 0]}
        )
        assert len(rank_similar(scores, "A", top=2).entries) == 2
        assert len(rank_similar(scores, "A", top=99).entries) == 2

    def test_unknown_query(self):
        scores = make_scores({"A": [0, 0, 0, 0], "B": [1, 0, 0, 0]})
        with pytest.raises(EntityLookupError, match="nobody"):
            rank_similar(scores, "nobody", top=1)

    def test_ties_break_by_entity_id(self):
        scores = make_scores(
            {"q": [0, 0, 0, 0], "zz": [1, 0, 0, 0], "aa": [0, 1, 0, 0]}
        )
        ranking = rank_similar(scores, "q", top=2)
        assert [entity for entity, _ in ranking.entries] == ["aa", "zz"]

    def test_row_permutation_invariance(self):
        rows = {
            "q": [0.0, 0.5, -1.0, 2.0],
            "a": [1.0, 0.5, 0.0, 2.0],
            "b": [0.0, 1.5, -1.0, 1.0],
            "c": [2.0, 0.5, -1.0, 2.0],
        }
        forward = rank_similar(make_scores(rows), "q", top=3)
        shuffled = dict(reversed(rows.items()))
        backward = rank_similar(make_scores(shuffled), "q", top=3)
        assert forward.entries == backward.entries

    def test_matches_elementwise_calls_exactly(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(12, 4))
        values[[7, 9, 11]] = values[3]  # ties: equal distances, broken by id
        ids = [f"e{i:02d}" for i in range(12)]
        scores = ScoreSet(entity_ids=ids, minutes=[1.0] * 12, scores=values)
        for components in (None, {0, 2}, {3}):
            for q, query in enumerate(ids):
                ranking = rank_similar(scores, query, top=11, components=components)
                assert len(ranking.entries) == 11
                for entity_id, value in ranking.entries:
                    row = values[ids.index(entity_id)]
                    assert value == sdi(values[q], row, components)
                by_value_then_id = sorted(ranking.entries, key=lambda e: (e[1], e[0]))
                assert ranking.entries == by_value_then_id

    def test_default_components_are_all_scores(self):
        scores = ScoreSet(
            entity_ids=["q", "a"],
            minutes=[1.0, 1.0],
            scores=np.array([[0.0] * 5, [0.0, 0.0, 0.0, 0.0, 2.0]]),
        )
        ranking = rank_similar(scores, "q", top=1)
        assert ranking.components_used == frozenset(range(5))
        assert ranking.entries == [("a", 4.0)]
        assert sdi(scores.scores[0], scores.scores[1]) == 4.0


class TestEmit:
    def _ranking(self):
        scores = make_scores(
            {"q": [0, 0, 0, 0], "a": [1, 0, 0, 0], "b": [0, 2, 0, 0]}
        )
        return rank_similar(scores, "q", top=2)

    def test_csv(self, tmp_path):
        path = tmp_path / "ranking.csv"
        ranking_to_csv(self._ranking(), {"a": "Alpha", "b": "Beta"}, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rank,entity_id,entity_name,sdi"
        assert lines[1] == "1,a,Alpha,1.0"
        assert lines[2] == "2,b,Beta,4.0"

    def test_json(self):
        doc = ranking_to_json(self._ranking(), {"a": "Alpha"})
        import json

        parsed = json.loads(doc)
        assert parsed["query_id"] == "q"
        assert parsed["entries"][0] == {
            "rank": 1,
            "entity_id": "a",
            "entity_name": "Alpha",
            "sdi": 1.0,
        }
        assert parsed["entries"][1]["entity_name"] == ""
