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
