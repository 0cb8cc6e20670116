import csv
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from statspace import (
    FilterPolicy,
    ParameterError,
    ParseError,
    RawRecord,
    RawTable,
    SchemaError,
    StatTable,
    StatspaceError,
    ValidationError,
    apply_filter,
    build_table,
    files,
    ingest,
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


SCHEMA5 = ("pid", "name", "team", "gp", "min")
ROLES5 = ingest._roles(SCHEMA5)
QUOTED_NAMES = "pid,name,team,gp,min,a\n" + "".join(
    f'p{i},"Doe ""{i}"", Jr.",BOS,{50 + i},1200.5,{i}.25\n' for i in range(3)
)


def _fast(text, roles=ROLES5):
    """The fast path's table, or None where it declines or raises."""
    try:
        return ingest._parse_fast(text.split("\n"), roles)
    except ValueError:
        return None


def _loop(text, roles=ROLES5):
    """The csv loop's table, the reference."""
    return ingest._parse_rows(io.StringIO(text, newline=""), roles)


def _outcome(parse, text):
    try:
        return parse(text)
    except StatspaceError as exc:
        return exc


def _assert_same_outcome(got, want):
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


# Cells that loadtxt and csv.reader(strict=True) read differently, or that
# loadtxt rejects, when written as they are.
RAW_CELLS = ['"x"y', '"1"2', '"x" ', '"1" ', '"x', 'x"y', ' "x"', "a\x00b", '""', '"1,5"']
GOOD_NAMES = ['Doe "0", Jr.', "Last, First", 'a "quoted", cell', "", " B ", "cr\rname"]
BAD_NAMES = ["two\nlines", "crlf\r\nname", "A\x00B"]
GOOD_GAMES = ["0", "82", "50.0", " 7 ", "-0", "1e3", "9.2e18"]
BAD_GAMES = ["-1", "2.5", "1e20", "9223372036854775807", "1_0"]
BAD_MINUTES = ["-1", "nan", "inf", ""]
FAULTS = [None, "gp", "min", "name", "stat", "raw", "line", "ragged", "header", "eol"]


def _csv_cell(cell):
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([cell])
    return out.getvalue()


@st.composite
def csv_texts(draw):
    """(schema, players CSV text), well formed or with one fault the two paths must agree on."""
    schema = draw(st.sampled_from([SCHEMA4, SCHEMA5]))
    fault = draw(st.sampled_from(FAULTS))
    stat_names = draw(st.lists(st.sampled_from(["s", "t", "u"]), max_size=3, unique=True))
    if fault == "header":  # a name csv.writer quotes, or a duplicate
        stat_names.append(draw(st.sampled_from(['q"', "c,d", "n\nl", "name"])))
    header = draw(st.permutations([*schema, *stat_names]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"] if fault == "eol" else ["\n", "\r\n"]))
    name = st.sampled_from(GOOD_NAMES) | st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\n\r"),
        min_size=1,
        max_size=4,
    )
    stat = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
        ["nan", "-nan", "inf", "-Infinity", "1e500", " 1.5 ", "-0.0"]
    )
    rows = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        meta = {
            "pid": f"p{i}",
            "name": draw(name),
            "team": draw(st.sampled_from(["BOS", "TOT", "N,Y"])),
            "gp": draw(st.integers(0, 82).map(str) | st.sampled_from(GOOD_GAMES)),
            "min": draw(st.sampled_from(["1200.5", " 7 ", "0", "-0.0"])),
        }
        rows.append([meta[c] if c in meta else draw(stat) for c in header])

    out = io.StringIO()
    writer = csv.writer(out, lineterminator=eol)
    writer.writerow(header)
    at = draw(st.integers(0, len(rows) - 1)) if rows else -1
    j = draw(st.integers(0, len(header) - 1))
    for i, row in enumerate(rows):
        if i != at or fault in (None, "header", "eol"):
            writer.writerow(row)
        elif fault in ("gp", "min", "name", "stat"):
            column = draw(st.sampled_from(stat_names or ["name"])) if fault == "stat" else fault
            bad = {"gp": BAD_GAMES, "min": BAD_MINUTES, "name": BAD_NAMES}
            row[header.index(column)] = draw(st.sampled_from(bad.get(column, SPECIAL_CELLS)))
            writer.writerow(row)
        elif fault == "raw":
            cells = [_csv_cell(c) for c in row]
            cells[j] = draw(st.sampled_from(RAW_CELLS))
            out.write(",".join(cells) + eol)
        elif fault == "line":
            out.write(draw(st.sampled_from(["", " ", "\t", "\x0c"])) + eol)
            writer.writerow(row)
        elif fault == "ragged":
            writer.writerow(row[:-1] if draw(st.booleans()) else [*row, "1"])
    text = out.getvalue()
    return schema, text.removesuffix(eol) if draw(st.booleans()) else text


# Files the fast path gives to the loop only after it has split the text
# into lines: a cell loadtxt rejects on the last row, a count loadtxt reads
# but the loop refuses, and a row with a cell too many.
FALLBACK_HEADER = "pid,name,team,gp,min,a,b\np0,A,BOS,50,1200,1.5,2.5\n"
FALLBACK_TEXTS = [
    FALLBACK_HEADER + "p1,B,NYK,60,1300,3.5,n/a\n",
    FALLBACK_HEADER + "p1,B,NYK,1.5,1300,3.5,4.5\n",
    FALLBACK_HEADER + "p1,B,NYK,60,1300,3.5,4.5,9\np2,C,BOS,50,1200,1.5,2.5\n",
]


class TestFastPath:
    """numpy's C reader parses what it can; the csv.reader loop is the reference."""

    @pytest.mark.filterwarnings("error::UserWarning", "error::RuntimeWarning")
    @settings(max_examples=600, deadline=None)
    @given(case=csv_texts())
    @example(case=(SCHEMA5, FALLBACK_TEXTS[0]))
    @example(case=(SCHEMA5, FALLBACK_TEXTS[1]))
    @example(case=(SCHEMA5, FALLBACK_TEXTS[2]))
    def test_paths_agree(self, case):
        schema, text = case
        roles = ingest._roles(schema)
        want = _outcome(lambda t: _loop(t, roles), text)
        fast = _fast(text, roles)
        if fast is not None:
            _assert_same_outcome(fast, want)
        got = _outcome(lambda t: parse_csv(io.StringIO(t, newline=""), schema), text)
        _assert_same_outcome(got, want)

    @pytest.mark.parametrize("schema", [SCHEMA4, SCHEMA5], ids=["4-names", "5-names"])
    def test_taken_for_quoted_doubled_quote_names(self, monkeypatch, schema):
        def loop(lines, roles):
            raise AssertionError("the csv loop ran")

        monkeypatch.setattr(ingest, "_parse_rows", loop)
        text = QUOTED_NAMES
        if schema == SCHEMA4:
            text = re.sub("^p.*?,", "", text, flags=re.M)  # drop the id column
        table = parse_csv(io.StringIO(text), schema)
        names = [f'Doe "{i}", Jr.' for i in range(3)]
        assert table.player_names == names
        assert table.player_ids == (names if schema == SCHEMA4 else ["p0", "p1", "p2"])
        assert table.team_codes == ["BOS"] * 3
        assert table.values.tolist() == [[0.25], [1.25], [2.25]]

    @pytest.mark.parametrize(
        "row",
        ["p1,A,BOS,50,1200,,2", "p1,A,BOS,50,1200,1,", ",A,BOS,50,1200,1,2",
         'p1,A,BOS,50,1200,"",2'],
        ids=["inner", "last", "first", "quoted"],
    )
    def test_declines_empty_cell_before_loadtxt(self, monkeypatch, row):
        text = "pid,name,team,gp,min,a,b\np0,B,BOS,50,1200,1,2\n" + row + "\r\n"
        want = _loop(text)

        def loadtxt(*args, **kwargs):
            raise AssertionError("loadtxt ran")

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        assert ingest._parse_fast(text.split("\n"), ROLES5) is None
        _assert_same_outcome(parse_csv(io.StringIO(text), SCHEMA5), want)

    def test_declines_text_after_closing_quote(self):
        text = 'pid,name,team,gp,min,a\np1,"x"y,BOS,50,1200,1.0\n'
        assert _fast(text) is None
        with pytest.raises(ParseError, match="line 2"):
            parse_csv(io.StringIO(text), SCHEMA5)

    def test_declines_nul_byte(self):
        text = "pid,name,team,gp,min,a\np1,A\x00B,BOS,50,1200,1.0\n"
        assert _fast(text) is None
        want = _outcome(_loop, text)
        got = _outcome(lambda t: parse_csv(io.StringIO(t), SCHEMA5), text)
        _assert_same_outcome(got, want)

    def test_declines_field_over_size_limit(self):
        text = f"pid,name,team,gp,min,a\np1,{'N' * 80},BOS,50,1200,1.0\n"
        old = csv.field_size_limit(64)
        try:
            assert _fast(text) is None
            with pytest.raises(ParseError, match="line 2.*field larger than field limit"):
                parse_csv(io.StringIO(text), SCHEMA5)
        finally:
            csv.field_size_limit(old)

    @pytest.mark.parametrize("name", ["pts\n48", "pts"], ids=["two-lines", "quoted"])
    def test_declines_quoted_header(self, name):
        text = f'pid,name,team,gp,min,"{name}"\np1,A,BOS,50,1200,20.5\n'
        assert _fast(text) is None
        table = parse_csv(io.StringIO(text), SCHEMA5)
        assert table.stat_names == [name]
        assert table[0].stats == {name: 20.5}

    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("body", ["", "\n", "\r\n\n"])
    def test_declines_header_only_without_warning(self, body):
        text = "pid,name,team,gp,min,a\n" + body
        assert _fast(text) is None
        table = parse_csv(io.StringIO(text), SCHEMA5)
        assert len(table) == 0 and table.values.shape == (0, 1)

    def test_empty_field_scan_sees_pairs_across_blocks(self, monkeypatch):
        monkeypatch.setattr(ingest, "_SCAN_LINES", 1)
        empty = ["a,,b", "ab,,", "abc,,d", "abcd,\n", "ab\n,c", "ab\r,c", "a,\r\nb"]
        empty += [",a", "a,", "é,,"]
        for text in empty:
            assert ingest._has_empty_field(text.split("\n")), text
        for text in ["", "a", "a,b", "ab,cd,ef\n", "a\n\nb,c\r\n", "é,b"]:
            assert not ingest._has_empty_field(text.split("\n")), text

    def test_fault_before_non_utf8_byte_reported_first(self, tmp_path):
        # the bad byte lies many decoder chunks (8 KB) after the ragged row
        good = "".join(f"p{i},A,BOS,50,1200,1\n" for i in range(2, 2000))
        text = "pid,name,team,gp,min,a\np1,A,BOS,50\n" + good
        path = tmp_path / "players.csv"
        path.write_bytes(text.encode() + b"p9,Jos\xe9,BOS,50,1200,1\n")
        with pytest.raises(ParseError, match="ragged row at line 2: expected 6 cells, got 4"):
            parse_csv(path, SCHEMA5)
        path.write_bytes(b"pid,name,team,gp,min,a\np1,Jos\xe9,BOS,50,1200,1\n" + good.encode())
        with pytest.raises(ParseError, match="not UTF-8 text: byte 0xe9"):
            parse_csv(path, SCHEMA5)

    @pytest.mark.parametrize("games", ["1e20", "9223372036854775807"])
    def test_count_too_large_for_int64_is_parse_error(self, games):
        text = f"pid,name,team,gp,min,a\np1,A,BOS,50,1200,1\np2,B,BOS,{games},1200,1\n"
        assert _fast(text) is None
        with pytest.raises(ParseError, match=r"line 3: column 'gp' must be a count below 2\*\*63"):
            parse_csv(io.StringIO(text), SCHEMA5)


class TestParseMemory:
    def test_peak_is_bounded_by_file_size(self, tmp_path):
        # 2,000 rows x 90 stats, cells like the benchmark's: the text is held
        # once while numpy parses, and the lines go before the stats copy
        rng = np.random.default_rng(3)
        n, p = 2000, 90
        values = np.round(rng.uniform(0, 10, size=(n, p)), 3)
        rows = ["player_id,player_name,team,games_played,minutes,"
                + ",".join(f"s{j:02d}" for j in range(p))]
        for i in range(n):
            cells = ",".join(map(repr, values[i].tolist()))
            rows.append(f"p{i:05d},Player {i},T{i % 30:02d},{i % 83},{10.0 * i!r},{cells}")
        path = tmp_path / "players.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            table = parse_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak <= 3.5 * size, f"peak {peak} bytes is {peak / size:.2f} x the file"
        assert table.values.dtype == np.float64 and table.values.flags.c_contiguous
        assert table.values.tobytes() == values.tobytes()


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
