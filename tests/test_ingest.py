import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from statspace import (
    FilterPolicy,
    ParameterError,
    ParseError,
    RawRecord,
    RawTable,
    SchemaError,
    StatTable,
    ValidationError,
    apply_filter,
    build_table,
    files,
    parse_csv,
)

SCHEMA4 = ("name", "team", "gp", "min")


def _record(pid, team="BOS", games=50, minutes=1000.0, **stats):
    return RawRecord(
        player_id=pid,
        player_name=pid.upper(),
        team_code=team,
        games_played=games,
        minutes_total=minutes,
        stats=dict(stats) or {"s1": 1.0},
    )


class TestParseCsv:
    def test_basic_row_mapping(self):
        source = io.StringIO("name,team,gp,min,pts48\nA,BOS,50,1200,20.5\n")
        records = parse_csv(source, SCHEMA4)
        assert len(records) == 1
        rec = records[0]
        assert rec.player_id == "A"
        assert rec.player_name == "A"
        assert rec.team_code == "BOS"
        assert rec.games_played == 50
        assert rec.minutes_total == 1200.0
        assert rec.stats == {"pts48": 20.5}

    def test_five_column_schema_separates_id(self):
        source = io.StringIO("pid,name,team,gp,min,pts48\nid9,A,BOS,50,1200,20.5\n")
        rec = parse_csv(source, ("pid", "name", "team", "gp", "min"))[0]
        assert rec.player_id == "id9"
        assert rec.player_name == "A"

    def test_empty_cell_becomes_missing(self):
        source = io.StringIO("name,team,gp,min,pts48\nA,BOS,50,1200,\n")
        assert parse_csv(source, SCHEMA4)[0].stats == {"pts48": None}

    def test_unparseable_cell_becomes_missing(self):
        source = io.StringIO("name,team,gp,min,pts48\nA,BOS,50,1200,n/a\n")
        assert parse_csv(source, SCHEMA4)[0].stats == {"pts48": None}

    def test_non_finite_cell_becomes_missing(self):
        source = io.StringIO("name,team,gp,min,pts48\nA,BOS,50,1200,inf\n")
        assert parse_csv(source, SCHEMA4)[0].stats == {"pts48": None}

    def test_ragged_row_names_line(self):
        source = io.StringIO(
            "name,team,gp,min,pts48\nA,BOS,50,1200,20.5\nB,NYK,60,1400\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            parse_csv(source, SCHEMA4)

    def test_unbalanced_quote_names_line(self):
        source = io.StringIO(
            'name,team,gp,min,pts48\nA,"BOS,50,1200,20.5\nB,NYK,60,1400,18.0\n'
        )
        with pytest.raises(ParseError, match="line"):
            parse_csv(source, SCHEMA4)

    def test_stray_text_after_quote_names_line(self):
        source = io.StringIO('name,team,gp,min,pts48\nA,"BOS"x,50,1200,20.5\n')
        with pytest.raises(ParseError, match="line 2"):
            parse_csv(source, SCHEMA4)

    def test_duplicate_header_is_schema_error(self):
        source = io.StringIO("name,team,gp,min,pts48,pts48\nA,BOS,50,1200,1,2\n")
        with pytest.raises(SchemaError, match="pts48"):
            parse_csv(source, SCHEMA4)

    def test_missing_metadata_column(self):
        source = io.StringIO("name,team,gp,pts48\nA,BOS,50,1\n")
        with pytest.raises(SchemaError, match="min"):
            parse_csv(source, SCHEMA4)

    def test_quoted_fields_ok(self):
        source = io.StringIO('name,team,gp,min,pts48\n"Last, First",BOS,50,1200,3.5\n')
        assert parse_csv(source, SCHEMA4)[0].player_name == "Last, First"

    def test_bad_games_cell_is_parse_error(self):
        source = io.StringIO("name,team,gp,min,pts48\nA,BOS,many,1200,3.5\n")
        with pytest.raises(ParseError, match="gp"):
            parse_csv(source, SCHEMA4)

    def test_empty_input(self):
        with pytest.raises(ParseError, match="header"):
            parse_csv(io.StringIO(""), SCHEMA4)

    def test_byte_stream_accepted(self):
        source = io.BytesIO(b"name,team,gp,min,pts48\nA,BOS,50,1200,20.5\n")
        assert parse_csv(source, SCHEMA4)[0].stats["pts48"] == 20.5

    def test_bad_schema_length(self):
        with pytest.raises(ParameterError):
            parse_csv(io.StringIO("a,b\n"), ("a", "b"))

    def test_first_fault_wins(self):
        source = io.StringIO(
            "name,team,gp,min,pts48\n"
            "A,BOS,50,1200,1.0\n"
            "B,BOS,many,1200,1.0\n"
            "C,BOS,50,1200,1.0\n"
            "D,BOS,50,1200\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            parse_csv(source, SCHEMA4)

    def test_negative_games_raised_by_parse(self):
        source = io.StringIO("name,team,gp,min,pts48\nA,BOS,-1,1200,1.0\n")
        with pytest.raises(ValidationError, match="games_played must be >= 0"):
            parse_csv(source, SCHEMA4)

    @given(data=st.data())
    def test_cell_semantics_match_float_and_isfinite(self, data):
        n_stats = data.draw(st.integers(min_value=1, max_value=4))
        cell = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.text(st.characters(blacklist_characters="\x00")),
            st.sampled_from(SPECIAL_CELLS),
        )
        row = st.lists(cell, min_size=n_stats, max_size=n_stats)
        rows = data.draw(st.lists(row, min_size=1, max_size=5))
        stat_names = [f"s{j}" for j in range(n_stats)]
        source = io.StringIO()
        writer = csv.writer(source)
        writer.writerow(["name", "team", "gp", "min", *stat_names])
        for i, cells in enumerate(rows):
            writer.writerow([f"p{i}", "BOS", "50", "1200", *cells])
        source.seek(0)

        records = parse_csv(source, SCHEMA4)
        assert len(records) == len(rows)
        for i, cells in enumerate(rows):
            for name, c in zip(stat_names, cells):
                assert records[i].stats[name] == _float_or_none(c), (i, name, c)


SPECIAL_CELLS = [
    "", "nan", "inf", "-Infinity", "1e500", "1_000", " 1.5 ", "n/a",
    "1,5", '"2"', 'a "quoted", cell',
]


def _float_or_none(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


class TestApplyFilter:
    def test_games_boundary_inclusive(self):
        records = [_record(f"p{g}", games=g) for g in (40, 41, 82)]
        kept = apply_filter(records, FilterPolicy(min_games=41))
        assert [r.games_played for r in kept] == [41, 82]

    def test_combined_record_kept_for_multi_team_player(self):
        records = [
            _record("p1", team="PHI"),
            _record("p1", team="MIL"),
            _record("p1", team="TOT"),
            _record("p2", team="BOS"),
        ]
        kept = apply_filter(records, FilterPolicy(min_games=0))
        assert [(r.player_id, r.team_code) for r in kept] == [
            ("p1", "TOT"),
            ("p2", "BOS"),
        ]

    def test_min_games_zero_keeps_all(self):
        records = [_record("p1", games=0), _record("p2", games=1)]
        assert list(apply_filter(records, FilterPolicy(min_games=0))) == records

    def test_rate_only_drops_matching_columns(self):
        records = [_record("p1", pts_total=100.0, pts_per48=20.0, pts_pg=10.0)]
        policy = FilterPolicy(
            min_games=0,
            column_mode="rate-only",
            excluded_column_patterns=["*_total", "*_pg"],
        )
        assert list(apply_filter(records, policy)[0].stats) == ["pts_per48"]

    def test_all_mode_ignores_patterns(self):
        records = [_record("p1", pts_total=100.0, pts_per48=20.0)]
        policy = FilterPolicy(min_games=0, excluded_column_patterns=["*_total"])
        assert list(apply_filter(records, policy)[0].stats) == [
            "pts_total",
            "pts_per48",
        ]

    @given(
        games=st.lists(st.integers(min_value=0, max_value=82), max_size=8),
        min_games=st.integers(min_value=0, max_value=82),
    )
    def test_idempotent_and_never_grows(self, games, min_games):
        records = [_record(f"p{i}", games=g) for i, g in enumerate(games)]
        policy = FilterPolicy(min_games=min_games)
        once = apply_filter(records, policy)
        twice = apply_filter(once, policy)
        assert list(twice) == list(once)
        assert len(once) <= len(records)

    def test_column_drop_idempotent(self):
        records = [_record("p1", a_total=1.0, b=2.0)]
        policy = FilterPolicy(
            min_games=0, column_mode="rate-only", excluded_column_patterns=["*_total"]
        )
        once = apply_filter(records, policy)
        assert list(apply_filter(once, policy)) == list(once)

    def test_invalid_policy(self):
        with pytest.raises(ParameterError):
            FilterPolicy(min_games=-1)
        with pytest.raises(ParameterError):
            FilterPolicy(column_mode="everything")


class TestRawTable:
    def test_indexes_as_records(self):
        source = io.StringIO(
            "name,team,gp,min,a,b\nA,BOS,50,1200,1.5,\nB,NYK,60,900,2.5,3.0\n"
        )
        table = parse_csv(source, SCHEMA4)
        assert table.values.shape == (2, 2)
        assert [r.player_id for r in table] == ["A", "B"]
        assert table[0] == RawRecord("A", "A", "BOS", 50, 1200.0, {"a": 1.5, "b": None})
        assert table[-1].stats == {"a": 2.5, "b": 3.0}
        with pytest.raises(IndexError):
            table[2]

    def test_from_records_round_trip(self):
        records = [_record("p1", a=1.0, b=None), _record("p2", team="TOT", a=3.0, b=4.0)]
        table = RawTable.from_records(records)
        assert list(table) == records
        assert RawTable.from_records(table) is table

    def test_from_records_column_order_differs(self):
        records = [_record("p1", a=1.0, b=2.0), _record("p2", b=2.0, a=1.0)]
        with pytest.raises(SchemaError, match="p2.*column order differs"):
            RawTable.from_records(records)


class TestBuildTable:
    def test_assembles_in_input_order(self):
        records = [
            _record("p1", a=1.0, b=2.0),
            _record("p2", a=3.0, b=4.0),
            _record("p3", a=5.0, b=6.0),
        ]
        table = build_table(records)
        assert table.values.shape == (3, 2)
        assert table.entity_ids == ["p1", "p2", "p3"]
        assert table.stat_names == ["a", "b"]
        np.testing.assert_array_equal(table.values, [[1, 2], [3, 4], [5, 6]])

    def test_missing_value_is_validation_error(self):
        records = [_record("p1", a=1.0, b=None), _record("p2", a=3.0, b=4.0)]
        with pytest.raises(ValidationError, match=r"\('p1', 'b'\)"):
            build_table(records)

    def test_mismatched_columns_is_schema_error(self):
        records = [_record("p1", a=1.0), _record("p2", b=2.0)]
        with pytest.raises(SchemaError, match="p2"):
            build_table(records)

    def test_missing_pairs_listed_row_major(self):
        source = io.StringIO(
            "name,team,gp,min,a,b\nA,BOS,50,1200,1.0,\nB,BOS,50,1200,,2.0\n"
        )
        expected = "missing values for (player, statistic): [('A', 'b'), ('B', 'a')]"
        with pytest.raises(ValidationError, match=re.escape(expected)):
            build_table(parse_csv(source, SCHEMA4))

    def test_duplicate_ids_rejected(self):
        records = [_record("p1", a=1.0), _record("p1", a=2.0)]
        with pytest.raises(ValidationError, match="duplicate"):
            build_table(records)

    def test_values_all_finite(self, fitted_pipeline):
        table, _, _, _ = fitted_pipeline
        assert np.isfinite(table.values).all()


class TestStatTable:
    def test_needs_two_rows(self):
        with pytest.raises(ValidationError):
            StatTable(["a"], ["A"], [1.0], ["s"], np.array([[1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="s2"):
            StatTable(
                ["a", "b"],
                ["A", "B"],
                [1.0, 2.0],
                ["s1", "s2"],
                np.array([[1.0, np.nan], [2.0, 3.0]]),
            )

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(scale=1e3, size=(5, 4)) * 10.0 ** rng.integers(
            -12, 12, size=(5, 4)
        )
        minutes = [100.0 * i + 0.125 for i in range(5)]
        records = [
            {"entity_id": f"p{i}", "minutes": minutes[i], "scores": values[i].tolist()}
            for i in range(5)
        ]
        path = tmp_path / "table.csv"
        files.write_records(path, records)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["entity_id", "minutes", "PC1", "PC2", "PC3", "PC4"]
        assert [row[0] for row in rows] == [f"p{i}" for i in range(5)]
        assert [float(row[1]) for row in rows] == minutes
        again = np.array([[float(cell) for cell in row[2:]] for row in rows])
        assert (again == values).all()
