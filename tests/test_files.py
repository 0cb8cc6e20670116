import os

import pytest

from statspace import files


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


class TestToJson:
    def test_finite_values_keep_their_text(self):
        assert files.to_json({"a": [1.5, -0.0, 1e-300]}) == (
            '{\n  "a": [\n    1.5,\n    -0.0,\n    1e-300\n  ]\n}\n'
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_is_refused(self, value):
        with pytest.raises(ValueError, match="JSON"):
            files.to_json([{"weighted_score": value}])
