import csv
import io
import math
import re
import tracemalloc
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from statspace import (
    DEFAULT_SCHEMA,
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

from conftest import assert_same_outcome

SCHEMA4 = ("name", "team", "gp", "min")


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

    def test_byte_stream_refused(self):
        source = io.BytesIO(b"name,team,gp,min,pts48\nA,BOS,50,1200,20.5\n")
        with pytest.raises(TypeError, match="BytesIO"):
            parse_csv(source, SCHEMA4)

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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("A,BOS,-1,1200,1.0", "player 'A': games_played must be >= 0, got -1"),
            ("A,BOS,50,-5,1.0", "player 'A': minutes_total must be >= 0, got -5.0"),
        ],
        ids=["games", "minutes"],
    )
    def test_negative_count_raised_by_parse(self, row, message):
        # the fast path declines the file, so the loop's check raises
        text = f"name,team,gp,min,pts48\n{row}\n"
        with pytest.raises(ValueError):
            ingest._parse_fast(bytearray(text.encode()), ingest._roles(SCHEMA4), FilterPolicy())
        with pytest.raises(ValidationError) as raised:
            parse_csv(bytearray(text.encode()), SCHEMA4)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "row", ["p0,BOS,50,1200,\ud800,2.5", "p\udfff,BOS,50,1200,1.5,2.5"], ids=["stat", "label"]
    )
    def test_lone_surrogate_in_a_text_stream_is_a_parse_error(self, tmp_path, row):
        # a stream is read as the UTF-8 encoding of its text, with each lone
        # surrogate as its three bytes: a file holding those bytes fails alike
        text = f"name,team,gp,min,s0,s1\n{row}\n"
        path = tmp_path / "players.csv"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        for source in (io.StringIO(text), path):
            with pytest.raises(ParseError) as raised:
                parse_csv(source, SCHEMA4)
            message = str(raised.value)
            assert message.endswith("not UTF-8 text: byte 0xed (invalid continuation byte)")

    @pytest.mark.parametrize(
        "filler, message",
        [
            (0, "not UTF-8 text: byte 0xe9 (invalid continuation byte)"),
            (20_000, "ragged row at line 3: expected 5 cells, got 4"),
        ],
        ids=["byte-near", "byte-20kb-on"],
    )
    def test_first_fault_wins_only_16kb_before_a_byte_not_utf8(self, tmp_path, filler, message):
        # the loop decodes 8 KB at a time and reads lines in blocks of about
        # 8 KB, so the byte is met first unless it lies about 16 KB or more
        # past the ragged row
        rows = "P,BOS,50,1200,1.5\n" * (filler // 18)  # 18 bytes a row
        text = "name,team,gp,min,s\nA,BOS,50,1200,1.5\nB,BOS,50,1200\n" + rows
        path = tmp_path / "players.csv"
        path.write_bytes(text.encode() + b"Jos\xe9,BOS,50,1200,1.5\n")
        with pytest.raises(ParseError) as raised:
            parse_csv(path, SCHEMA4)
        assert str(raised.value).endswith(message)

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

        if any("\ud800" <= char <= "\udfff" for cells in rows for c in cells for char in c):
            with pytest.raises(ParseError, match="not UTF-8 text"):
                parse_csv(source, SCHEMA4)
            return
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


def _fast(text, roles=ROLES5, policy=FilterPolicy()):
    """The fast path's table, or None where it declines (raises ValueError)."""
    try:
        return ingest._parse_fast(bytearray(text.encode()), roles, policy)
    except ValueError:
        return None


def _loop(text, roles=ROLES5):
    """The csv loop's table, the reference."""
    return ingest._parse_rows(io.StringIO(text, newline=""), roles, FilterPolicy())


def _no_loop(*args):
    raise AssertionError("the csv loop ran")


def _kept_columns(table, policy):
    """``table`` with only the stat columns ``policy`` keeps, chosen here by fnmatch."""
    if policy.column_mode != "rate-only":
        return table
    keep = [
        j
        for j, name in enumerate(table.stat_names)
        if not any(fnmatchcase(name, p) for p in policy.excluded_column_patterns)
    ]
    return RawTable(
        player_ids=table.player_ids,
        player_names=table.player_names,
        team_codes=table.team_codes,
        games_played=table.games_played,
        minutes_total=table.minutes_total,
        stat_names=[table.stat_names[j] for j in keep],
        values=table.values[:, keep],
    )


def _outcome(parse, text):
    try:
        return parse(text)
    except StatspaceError as exc:
        return exc


# Cells that loadtxt and csv.reader(strict=True) read differently, or that
# loadtxt rejects, when written as they are.
RAW_CELLS = ['"x"y', '"1"2', '"x" ', '"1" ', '"x', 'x"y', ' "x"', "a\x00b", '""', '"1,5"']
# label cells the C pass reads itself: quotes, commas, spaces, text beyond Latin-1
GOOD_NAMES = [
    'Doe "0", Jr.', "Last, First", 'a "quoted", cell', "", " B ", "cr\rname", "  two  spaces ",
    "\u0110or\u0111e \u0160ari\u0107", "\u674e\u660e", "\U0001f3c0",
]
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
    # "\u00e9x" fits the one-byte field of a dropped column, "\u2014" does not
    stat = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
        ["nan", "-nan", "inf", "-Infinity", "1e500", " 1.5 ", "-0.0", "\u00e9x", "\u2014"]
    )
    rows = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        meta = {
            "pid": f"p{i}",
            "name": draw(name),
            "team": draw(st.sampled_from(["BOS", "TOT", "N,Y", " T ", "\u0141\u00f3d\u017a"])),
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


@st.composite
def policies(draw):
    """The default policy, or one whose patterns may match some of csv_texts'
    stat names."""
    mode = draw(st.sampled_from([None, "all", "rate-only"]))
    if mode is None:
        return FilterPolicy()
    patterns = st.sampled_from(["s", "t*", "[su]", "*", "x", 'q"', "c,d"])
    return FilterPolicy(
        min_games=draw(st.integers(0, 90)),
        column_mode=mode,
        excluded_column_patterns=draw(st.lists(patterns, max_size=3)),
    )


# Files the fast path gives to the loop only after it has split the text
# into lines: a cell loadtxt rejects on the last row, a count loadtxt reads
# but the loop refuses, and a row with a cell too many.
FALLBACK_HEADER = "pid,name,team,gp,min,a,b\np0,A,BOS,50,1200,1.5,2.5\n"
FALLBACK_TEXTS = [
    FALLBACK_HEADER + "p1,B,NYK,60,1300,3.5,n/a\n",
    FALLBACK_HEADER + "p1,B,NYK,1.5,1300,3.5,4.5\n",
    FALLBACK_HEADER + "p1,B,NYK,60,1300,3.5,4.5,9\np2,C,BOS,50,1200,1.5,2.5\n",
]


# Label columns last, quoted with commas and doubled quotes, under CRLF.
LABELS_LAST = (
    "pid,gp,min,s,name,team\r\n"
    'p0,50,1200,1.5,"Doe ""0"", Jr.","N,Y"\r\n'
    "p1,60,1300,2.5, \u0110or\u0111e ,\u674e\r\n"
)
# A cell beyond Latin-1 in a column the policy drops: it does not fit the
# one-byte field, so loadtxt raises and the loop decides.
NON_LATIN1_DROPPED = "pid,name,team,gp,min,s,t\np0,A,BOS,50,1200,1.5,\u2014\n"
DROP_T = FilterPolicy(min_games=0, column_mode="rate-only", excluded_column_patterns=["t*"])


class TestFastPath:
    """numpy's C reader parses what it can; the csv.reader loop is the reference."""

    @pytest.mark.filterwarnings("error::UserWarning", "error::RuntimeWarning")
    @settings(max_examples=600, deadline=None)
    @given(case=csv_texts(), policy=policies())
    @example(case=(SCHEMA5, FALLBACK_TEXTS[0]), policy=FilterPolicy())
    @example(case=(SCHEMA5, FALLBACK_TEXTS[1]), policy=FilterPolicy())
    @example(case=(SCHEMA5, FALLBACK_TEXTS[2]), policy=FilterPolicy())
    @example(case=(SCHEMA4, 'name,team,gp,min\ncr\rname,"N,Y",0,1200.5\n'), policy=FilterPolicy())
    @example(case=(SCHEMA5, LABELS_LAST), policy=FilterPolicy())
    @example(case=(SCHEMA5, NON_LATIN1_DROPPED), policy=DROP_T)
    def test_paths_agree(self, case, policy):
        # both parses convert only the kept columns; the loop over all of
        # them, filtered afterwards, is the reference
        schema, text = case
        roles = ingest._roles(schema)
        loop = _outcome(lambda t: _loop(t, roles), text)
        want = loop if isinstance(loop, Exception) else _kept_columns(loop, policy)
        fast = _fast(text, roles, policy)
        if fast is not None:
            assert_same_outcome(fast, want)
        got = _outcome(lambda t: parse_csv(io.StringIO(t, newline=""), schema, policy), text)
        assert_same_outcome(got, want)
        if isinstance(loop, RawTable):
            assert_same_outcome(apply_filter(got, policy), apply_filter(loop, policy))

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

    def test_taken_for_an_archive_shaped_file(self, monkeypatch):
        # quoted names, a traded player's team rows and TOT row, CRLF line
        # ends and a rate-only policy: all read by the C pass
        header = "player_id,player_name,team,games_played,minutes,a_rate,b_total,c_rate"
        rows = [
            'p0,"Doe, Jr.",BOS,82,2400.5,1.5,120,0.25',
            "p1,\u0110or\u0111e Ko,NYK,30,600,2.5,40,0.5",
            "p1,\u0110or\u0111e Ko,ATL,40,900,3.5,50,0.75",
            "p1,\u0110or\u0111e Ko,TOT,70,1500,3.1,90,0.65",
            'p2,"O""Neal, S.",LAL,12,150,0.0,3,1e-3',
        ]
        text = "\r\n".join([header, *rows]) + "\r\n"
        policy = FilterPolicy(column_mode="rate-only", excluded_column_patterns=["*_total"])
        want = _kept_columns(_loop(text, ingest._roles(DEFAULT_SCHEMA)), policy)
        monkeypatch.setattr(ingest, "_parse_rows", _no_loop)
        table = parse_csv(io.StringIO(text, newline=""), DEFAULT_SCHEMA, policy)
        assert_same_outcome(table, want)
        assert table.player_names[::3] == ["Doe, Jr.", "\u0110or\u0111e Ko"]
        assert table.team_codes == ["BOS", "NYK", "ATL", "TOT", "LAL"]
        assert table.stat_names == ["a_rate", "c_rate"]
        kept = apply_filter(table, policy)
        assert (kept.player_ids, kept.team_codes) == (["p0", "p1"], ["BOS", "TOT"])

    def test_taken_for_the_archive_input(self, monkeypatch, tmp_path):
        # the benchmark's archive input spans many _SCAN_BYTES blocks; its
        # bytes go in as the CLI reads them, and the parse empties them
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import gen

        players = gen.make_players(1001, 10_000)
        inputs = gen.write_inputs(players, tmp_path, rate_only=True)
        policy = FilterPolicy(**gen.RATE_ONLY_CONFIG)
        monkeypatch.setattr(ingest, "_parse_rows", _no_loop)
        data = files.read_bytes(inputs["players"])
        assert len(data) > 50 * ingest._SCAN_BYTES
        table = parse_csv(data, DEFAULT_SCHEMA, policy)
        assert not data
        assert len(table) == players.csv_text.count("\n") - 1
        assert table.stat_names == [players.stat_names[j] for j in players.columns(rate_only=True)]
        assert apply_filter(table, policy).player_ids == players.kept_ids

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
        assert _fast(text) is None
        assert_same_outcome(parse_csv(io.StringIO(text), SCHEMA5), want)

    @pytest.mark.parametrize("missing", ["n/a", "NA"])
    def test_unparseable_cell_in_dropped_column_keeps_fast_path(self, monkeypatch, missing):
        text = (
            "pid,name,team,gp,min,a_rate,b_total,c_rate\r\n"
            f"p0,A,BOS,50,1200,1.5,{missing},2.5\r\n"
            f'p1,"B, Jr.",NYK,60,1300,3.5,40,4.5\r\n'
        )
        policy = FilterPolicy(column_mode="rate-only", excluded_column_patterns=["*_total"])
        want = _kept_columns(_loop(text), policy)
        assert want.values.tolist() == [[1.5, 2.5], [3.5, 4.5]]

        def loop(*args):
            raise AssertionError("the csv loop ran")

        monkeypatch.setattr(ingest, "_parse_rows", loop)
        assert_same_outcome(parse_csv(io.StringIO(text, newline=""), SCHEMA5, policy), want)

    @pytest.mark.parametrize("schema", [SCHEMA4, SCHEMA5], ids=["4-names", "5-names"])
    def test_label_in_last_column_drops_line_end(self, schema):
        text = "pid,name,gp,min,a,team\r\np0,N0,50,1200,1.5,T0\r\np1,N1,60,1300,2.5,T1\r\n"
        if schema == SCHEMA4:
            text = re.sub("^p.*?,", "", text, flags=re.M)  # drop the id column
        table = _fast(text, ingest._roles(schema))
        assert table.team_codes == ["T0", "T1"]
        assert table.player_names == ["N0", "N1"]

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
        assert_same_outcome(got, want)

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
        monkeypatch.setattr(ingest, "_SCAN_BYTES", 1)
        empty = ["a,,b", "ab,,", "abc,,d", "abcd,\n", "ab\n,c", "ab\r,c", "a,\r\nb"]
        empty += [",a", "a,", "é,,"]
        for text in empty:
            assert not ingest._scan(bytearray(text.encode())), text
        for text in ["", "a", "a,b", "ab,cd,ef\n", "a\n\nb,c\r\n", "é,b"]:
            assert ingest._scan(bytearray(text.encode())), text

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
        source = io.StringIO(
            "name,team,gp,min,s1\n"
            "p40,BOS,40,1000,1.0\np41,BOS,41,1000,1.0\np82,BOS,82,1000,1.0\n"
        )
        kept = apply_filter(parse_csv(source, SCHEMA4), FilterPolicy(min_games=41))
        assert [r.games_played for r in kept] == [41, 82]

    def test_combined_record_kept_for_multi_team_player(self):
        source = io.StringIO(
            "name,team,gp,min,s1\n"
            "p1,PHI,50,1000,1.0\n"
            "p1,MIL,50,1000,1.0\n"
            "p1,TOT,50,1000,1.0\n"
            "p2,BOS,50,1000,1.0\n"
        )
        kept = apply_filter(parse_csv(source, SCHEMA4), FilterPolicy(min_games=0))
        assert [(r.player_id, r.team_code) for r in kept] == [
            ("p1", "TOT"),
            ("p2", "BOS"),
        ]

    def test_min_games_zero_keeps_all(self):
        source = io.StringIO("name,team,gp,min,s1\np1,BOS,0,1000,1.0\np2,BOS,1,1000,1.0\n")
        table = parse_csv(source, SCHEMA4)
        assert list(apply_filter(table, FilterPolicy(min_games=0))) == list(table)

    def test_rate_only_drops_matching_columns(self):
        source = io.StringIO(
            "name,team,gp,min,pts_total,pts_per48,pts_pg\np1,BOS,50,1000,100.0,20.0,10.0\n"
        )
        policy = FilterPolicy(
            min_games=0,
            column_mode="rate-only",
            excluded_column_patterns=["*_total", "*_pg"],
        )
        assert list(apply_filter(parse_csv(source, SCHEMA4), policy)[0].stats) == ["pts_per48"]

    def test_all_mode_ignores_patterns(self):
        source = io.StringIO("name,team,gp,min,pts_total,pts_per48\np1,BOS,50,1000,100.0,20.0\n")
        policy = FilterPolicy(min_games=0, excluded_column_patterns=["*_total"])
        assert list(apply_filter(parse_csv(source, SCHEMA4), policy)[0].stats) == [
            "pts_total",
            "pts_per48",
        ]

    @given(
        games=st.lists(st.integers(min_value=0, max_value=82), max_size=8),
        min_games=st.integers(min_value=0, max_value=82),
    )
    def test_idempotent_and_never_grows(self, games, min_games):
        rows = "".join(f"p{i},BOS,{g},1000,1.0\n" for i, g in enumerate(games))
        table = parse_csv(io.StringIO("name,team,gp,min,s1\n" + rows), SCHEMA4)
        policy = FilterPolicy(min_games=min_games)
        once = apply_filter(table, policy)
        twice = apply_filter(once, policy)
        assert list(twice) == list(once)
        assert len(once) <= len(table)

    def test_column_drop_idempotent(self):
        source = io.StringIO("name,team,gp,min,a_total,b\np1,BOS,50,1000,1.0,2.0\n")
        policy = FilterPolicy(
            min_games=0, column_mode="rate-only", excluded_column_patterns=["*_total"]
        )
        once = apply_filter(parse_csv(source, SCHEMA4), policy)
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


class TestBuildTable:
    def test_assembles_in_input_order(self):
        source = io.StringIO(
            "name,team,gp,min,a,b\n"
            "p1,BOS,50,1000,1.0,2.0\n"
            "p2,BOS,50,1000,3.0,4.0\n"
            "p3,BOS,50,1000,5.0,6.0\n"
        )
        table = build_table(parse_csv(source, SCHEMA4))
        assert table.values.shape == (3, 2)
        assert table.entity_ids == ["p1", "p2", "p3"]
        assert table.stat_names == ["a", "b"]
        np.testing.assert_array_equal(table.values, [[1, 2], [3, 4], [5, 6]])

    def test_missing_value_is_validation_error(self):
        source = io.StringIO("name,team,gp,min,a,b\np1,BOS,50,1000,1.0,\np2,BOS,50,1000,3.0,4.0\n")
        with pytest.raises(ValidationError, match=r"\('p1', 'b'\)"):
            build_table(parse_csv(source, SCHEMA4))

    def test_missing_pairs_listed_row_major(self):
        source = io.StringIO(
            "name,team,gp,min,a,b\nA,BOS,50,1200,1.0,\nB,BOS,50,1200,,2.0\n"
        )
        expected = "missing values for (player, statistic): [('A', 'b'), ('B', 'a')]"
        with pytest.raises(ValidationError, match=re.escape(expected)):
            build_table(parse_csv(source, SCHEMA4))

    def test_long_lists_of_offenders_are_cut(self):
        # 25 rows each missing one value, and 25 ids each given twice
        rows = "".join(f"p{i:02d},BOS,50,1000,\n" for i in range(25))
        source = io.StringIO("name,team,gp,min,a\n" + rows)
        pairs = [(f"p{i:02d}", "a") for i in range(10)]
        expected = f"missing values for (player, statistic): {pairs} and 15 more"
        with pytest.raises(ValidationError) as raised:
            build_table(parse_csv(source, SCHEMA4))
        assert str(raised.value) == expected
        ids = [f"p{i:02d}" for i in range(25)] * 2
        with pytest.raises(ValidationError) as raised:
            StatTable(ids, ids, [1.0] * 50, ["s"], np.ones((50, 1)))
        assert str(raised.value) == f"duplicate entity_ids: {ids[:10]} and 15 more"

    def test_duplicate_ids_rejected(self):
        source = io.StringIO("name,team,gp,min,a\np1,BOS,50,1000,1.0\np1,BOS,50,1000,2.0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            build_table(parse_csv(source, SCHEMA4))

    def test_values_all_finite(self, fitted_pipeline):
        table, _, _, _ = fitted_pipeline
        assert np.isfinite(table.values).all()


class TestStatTable:
    def test_build_table_needs_two_rows(self):
        # a players table must fit a model; a one-team profile is one row
        source = io.StringIO("name,team,gp,min,a\np1,BOS,50,1000,1.0\n")
        with pytest.raises(ValidationError) as raised:
            build_table(parse_csv(source, SCHEMA4))
        assert str(raised.value) == "need at least 2 entities, got 1"

    @pytest.mark.parametrize(
        "stat_names, names, minutes, shape, message",
        [
            ([], ["A", "B"], [1.0, 2.0], (2, 0), "need at least 1 statistic column"),
            (["s"], ["A"], [1.0, 2.0], (2, 1), "entity_ids, entity_names, minutes lengths differ"),
            (["s"], ["A", "B"], [1.0], (2, 1), "entity_ids, entity_names, minutes lengths differ"),
            (["s"], ["A", "B"], [1.0, 2.0], (2, 2), "values shape (2, 2) does not match (2, 1)"),
            (["s"], ["A", "B"], [1.0, -2.0], (2, 1), "minutes must be >= 0"),
            (["s"], ["A", "B"], [1.0, math.nan], (2, 1), "minutes must be finite"),
            (["s"], ["A", "B"], [math.inf, 2.0], (2, 1), "minutes must be finite"),
            (["s"], ["A", "B"], [1.0, -math.inf], (2, 1), "minutes must be finite"),
            (["s", "t", "s"], ["A", "B"], [1.0, 2.0], (2, 3), "duplicate stat_names: ['s']"),
        ],
        ids=[
            "no-column", "names-short", "minutes-short", "values-shape", "negative-minutes",
            "nan-minutes", "infinite-minutes", "minus-infinite-minutes", "repeated-column",
        ],
    )
    def test_rejects_an_inconsistent_table(self, stat_names, names, minutes, shape, message):
        with pytest.raises(ValidationError) as raised:
            StatTable(["a", "b"], names, minutes, stat_names, np.ones(shape))
        assert str(raised.value) == message

    def test_one_row_profile(self):
        table = StatTable(["BOS"], ["BOS"], [48.0], ["PC1", "PC2"], np.array([[1.0, -2.0]]))
        assert (table.n_entities, table.n_stats) == (1, 2)

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
        ids = [f"p{i}" for i in range(5)]
        scores = StatTable(ids, ids, minutes, ["PC1", "PC2", "PC3", "PC4"], values)
        columns = {"entity_id": ids, "minutes": minutes, "scores": scores}
        path = tmp_path / "table.csv"
        files.write_table(path, columns, "csv")
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["entity_id", "minutes", "PC1", "PC2", "PC3", "PC4"]
        assert [row[0] for row in rows] == [f"p{i}" for i in range(5)]
        assert [float(row[1]) for row in rows] == minutes
        again = np.array([[float(cell) for cell in row[2:]] for row in rows])
        assert (again == values).all()
