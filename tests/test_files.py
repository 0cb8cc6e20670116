import csv
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from statspace import StatTable, files, team_scores
from statspace.errors import ParseError


class TestAtomicWrite:
    def test_failed_write_leaves_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "scores.csv"
        files.write_table(path, {"entity_id": ["p01"], "minutes": [900.0]}, "csv")
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="partway"):
            with files.opened(path, "w") as fh:
                fh.write("entity_id,minutes\n" * 1000)
                fh.flush()
                raise RuntimeError("partway")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.csv"]

    def test_replaces_with_usual_new_file_mode(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("old\n", encoding="utf-8")
        files.write_text(path, "new\r\n")
        assert path.read_bytes() == b"new\r\n"
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


class TestOpenedBytearray:
    """A bytearray opened for reading is a file's bytes, read as a path's text."""

    def test_line_ends_are_kept(self):
        with files.opened(bytearray(b"a\rb\r\nc\n")) as fh:
            assert fh.read() == "a\rb\r\nc\n"  # newline="": a lone "\r" survives
        assert fh.closed

    def test_not_utf8_is_a_parse_error_without_a_path(self):
        with pytest.raises(ParseError) as caught:
            files.read_text(bytearray(b"team\nB\xe9S\n"))
        assert str(caught.value) == "not UTF-8 text: byte 0xe9 (invalid continuation byte)"

    def test_bytearray_is_left_as_given(self):
        data = bytearray("id,name\np01,Jos\u00e9\n".encode())
        assert files.read_text(data) == "id,name\np01,Jos\u00e9\n"
        assert data == "id,name\np01,Jos\u00e9\n".encode()

    def test_not_a_destination(self):
        with pytest.raises(TypeError, match="bytearray"):
            with files.opened(bytearray(), "w"):
                pass


class TestReadLines:
    @pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
    @pytest.mark.parametrize("kind", ["path", "stream"])
    def test_same_lines_as_the_whole_text_split(self, tmp_path, monkeypatch, block, kind):
        monkeypatch.setattr(files, "_READ_BLOCK", block)
        for text in ["", "\n", "a", "ab\ncd\n", "a\r\nb\r\n\n", "\u00e9\u674e\nx\n\ny", "a\rb\n"]:
            path = tmp_path / "t.csv"
            path.write_bytes(text.encode())
            if kind == "path":
                data = files.read_bytes(path)
            else:  # what is left of a binary stream, as the players file is read
                stream = io.BytesIO(b"skipped\n" + text.encode())
                stream.readline()
                data = files.read_all(stream)
            assert data.decode().split("\n") == text.split("\n"), (block, kind, text)


class TestCsvRows:
    def test_rows_numbered_by_their_last_line(self):
        text = 'a,b\n\n"x\ny",z\r\nc,d'
        assert list(files.csv_rows(io.StringIO(text, newline=""), "t CSV")) == [
            (1, ["a", "b"]),
            (2, []),
            (4, ["x\ny", "z"]),
            (5, ["c", "d"]),
        ]

    @pytest.mark.parametrize(
        "text, message",
        [
            ('a,b\n"x,y\nc,d\n', "malformed t CSV at line 3: "),
            ('a,b\n"x"y,z\n', "malformed t CSV at line 2: "),
            ('a,b\n"x\x00"\n', "t CSV line 2: NUL byte"),
        ],
        ids=["unbalanced-quote", "text-after-quote", "nul"],
    )
    def test_faults_are_parse_errors(self, text, message):
        # the csv module's own words follow the prefix, and may vary by version
        rows = files.csv_rows(io.StringIO(text, newline=""), "t CSV")
        assert next(rows) == (1, ["a", "b"])
        with pytest.raises(ParseError) as raised:
            next(rows)
        assert str(raised.value).startswith(message)

    @pytest.mark.parametrize("block", [1, 5, 1 << 16])
    def test_nul_found_at_its_line_after_the_rows_before_it(self, monkeypatch, block):
        # the text is checked a block of lines at a time; the line is found only on a fault
        monkeypatch.setattr(files, "_LINE_BLOCK", block)
        text = "a,b\r\nc,d\n\ne,f\rg\x00,h\ni,j\n"
        rows = files.csv_rows(io.StringIO(text, newline=""), "t CSV")
        assert [next(rows) for _ in range(4)] == [
            (1, ["a", "b"]), (2, ["c", "d"]), (3, []), (4, ["e", "f"])
        ]
        with pytest.raises(ParseError, match="^t CSV line 5: NUL byte$"):
            next(rows)
        text = 'a,b\n"x\ny\x00"\n'  # in the second line of a quoted field
        with pytest.raises(ParseError, match="^t CSV line 3: NUL byte$"):
            list(files.csv_rows(io.StringIO(text, newline=""), "t CSV"))


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | finite_floats
    | finite_floats.map(np.float64)
    | st.sampled_from([-0.0, 1e-300, 5e-324, 1.7976931348623157e308, 1e16, 0.1])
    | st.text(max_size=8)
    | st.sampled_from(['"', "\\", "a\"b\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "\ud800"])
)
json_docs = st.recursive(
    json_leaves | st.lists(finite_floats, max_size=6),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=30,
)


RECORDS = [
    {"entity_id": "p\u00e9\"1\n", "minutes": 1200.5, "scores": [0.5, -0.0, 1e-300]},
    {"entity_id": "", "minutes": np.float64(3.25), "scores": []},
    {"rank": 1, "ok": True, "none": None, "nested": {"a": {}, "b": [[], [1, 2.5]]}},
]


class TestToJson:
    @settings(max_examples=200, deadline=None)
    @given(doc=json_docs)
    @example(doc={"terms": RECORDS, "r_squared": 0.5, "df_residual": 25})
    def test_same_text_as_json_dumps(self, doc):
        assert files.to_json(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["middle", "alone", "mixed"])
    def test_non_finite_float_in_list_is_refused(self, value, where):
        doc = {
            "middle": [0.5, value, 1.5],
            "alone": [value],
            "mixed": ["a", 1, value, 2.0],
        }[where]
        with pytest.raises(ValueError, match="JSON"):
            files.to_json({"scores": doc})

    def test_other_types_are_refused(self):
        with pytest.raises(TypeError):
            files.to_json([np.int64(1)])

    def test_finite_values_keep_their_text(self):
        assert files.to_json({"a": [1.5, -0.0, 1e-300]}) == (
            '{\n  "a": [\n    1.5,\n    -0.0,\n    1e-300\n  ]\n}\n'
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_is_refused(self, value):
        with pytest.raises(ValueError, match="JSON"):
            files.to_json([{"weighted_score": value}])


def _records_csv(records):
    """The CSV text ``write_records`` wrote for a list of row dicts before
    tables were written a column at a time: the reference."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if not records:
        return ""
    header = []
    for key, value in records[0].items():
        if isinstance(value, list):
            header.extend(f"PC{i + 1}" for i in range(len(value)))
        else:
            header.append(key)
    writer.writerow(header)
    for record in records:
        row = []
        for value in record.values():
            row.extend(value if isinstance(value, list) else (value,))
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return out.getvalue()


table_floats = finite_floats | st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e300, -1e300])
table_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | st.sampled_from(
    ["Doe, Jr.", 'a "b"', "é中\U0001f3c0", " x ", "%s", ""]
)


@st.composite
def tables(draw):
    """(columns, the same table as row dicts), shaped like the CLI's tables."""
    n = draw(st.integers(0, 6))
    k = draw(st.integers(1, 10))
    scores = np.array(
        draw(st.lists(st.lists(table_floats, min_size=k, max_size=k), min_size=n, max_size=n))
    ).reshape(n, k)
    if draw(st.booleans()):  # as the projection cache gives the scores
        scores = memoryview(scores)
    columns = {
        "entity_id": draw(st.lists(table_texts, min_size=n, max_size=n)),
        "component": list(range(1, n + 1)),
        "minutes": draw(st.lists(table_floats, min_size=n, max_size=n)),
        "scores": _scores(scores),
    }
    if draw(st.booleans()):  # a float column after the scores, as in teams
        columns["win_pct"] = draw(st.lists(table_floats, min_size=n, max_size=n))
    return columns, _rows(columns)


def _scores(values) -> StatTable:
    """Scores as ``pca.transform`` names them, ``PC1`` to ``PCk``."""
    n, k = values.shape
    ids = [f"e{i}" for i in range(n)]
    return StatTable(ids, ids, [0.0] * n, [f"PC{j + 1}" for j in range(k)], values)


def _rows(columns):
    """The table of ``columns`` as row dicts, each score row a list."""
    lists = {key: c.values.tolist() if key == "scores" else c for key, c in columns.items()}
    return [dict(zip(lists, row)) for row in zip(*lists.values())]


class TestWriteTable:
    @settings(max_examples=200, deadline=None)
    @given(table=tables())
    def test_same_bytes_as_records(self, table):
        columns, rows = table
        out = io.StringIO()
        files.write_table(out, columns, "json")
        assert out.getvalue() == json.dumps(rows, indent=2) + "\n"
        out = io.StringIO()
        files.write_table(out, columns, "csv")
        assert out.getvalue() == _records_csv(rows)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["scores", "minutes", "after"])
    def test_non_finite_float_refused_as_to_json_refuses_it(self, tmp_path, value, where):
        columns = {
            "entity_id": ["a", "b"],
            "minutes": [1.0, value if where == "minutes" else 2.0],
            # over a memoryview, which is kept unchecked as the projection cache gives it
            "scores": _scores(
                memoryview(np.array([[0.5, 1.5], [2.5, value if where == "scores" else 3.5]]))
            ),
            "win_pct": [0.5, value if where == "after" else 0.25],
        }
        with pytest.raises(ValueError) as want:
            files.to_json(_rows(columns))
        path = tmp_path / "t.json"
        with pytest.raises(ValueError) as got:
            files.write_table(path, columns, "json")
        assert str(got.value) == str(want.value)
        assert not path.exists()

    def test_header_names_the_tables_columns(self):
        players = StatTable(
            ["p1", "p2", "p3"], ["One", "Two", "Three"], [10.0, 20.0, 30.0],
            ["PC1", "PC3"], np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        )
        teams = team_scores(players, {"p1": "NYK", "p2": "BOS", "p3": "NYK"})
        out = io.StringIO()
        files.write_table(
            out, {"team_code": teams.entity_ids, "total_minutes": teams.minutes, "scores": teams},
            "csv",
        )
        assert out.getvalue().splitlines()[0] == "team_code,total_minutes,PC1,PC3"
