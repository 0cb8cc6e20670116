import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from statspace import files
from statspace.errors import ParseError


class TestAtomicWrite:
    def test_failed_write_leaves_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "scores.csv"
        files.write_records(path, [{"entity_id": "p01", "minutes": 900.0}])
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
        with pytest.raises(TypeError):
            files.to_json({1: "a"})

    def test_finite_values_keep_their_text(self):
        assert files.to_json({"a": [1.5, -0.0, 1e-300]}) == (
            '{\n  "a": [\n    1.5,\n    -0.0,\n    1e-300\n  ]\n}\n'
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_is_refused(self, value):
        with pytest.raises(ValueError, match="JSON"):
            files.to_json([{"weighted_score": value}])
