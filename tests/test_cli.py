import collections
import contextlib
import csv
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import threading
import time
import warnings
import zlib
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import statspace
from statspace import cache, cli, files, ingest, pca, scoring
from statspace.cli import main

from conftest import STATS, assert_same_outcome, membership_csv_text, players_csv_text


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().err


CATEGORIES = {1: "internal", 2: "usage", 3: "data", 4: "numerical"}


def failure(code: int, got: int, out: str, err: str) -> dict:
    """Check a run that must fail as the CLI promises: exit ``code``, write
    nothing on stdout and one JSON line of under 1,000 characters on
    stderr, which gives that exit code and its category. Returns the line,
    parsed."""
    assert (got, out) == (code, ""), err
    assert len(err) < 1_000, err[:1_000]
    lines = err.splitlines()
    assert len(lines) == 1, err
    diagnostic = json.loads(lines[0])
    assert (diagnostic["exit_code"], diagnostic["category"]) == (code, CATEGORIES[code])
    return diagnostic


def fails(capsys, code: int, *argv) -> dict:
    """Run ``argv`` in this process; it must fail as ``failure`` checks."""
    got = main(list(argv))
    captured = capsys.readouterr()
    return failure(code, got, captured.out, captured.err)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestFit:
    def test_writes_model_and_scree(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code, err = run(capsys, "fit", "--input", str(players_csv), "--out", str(out))
        assert code == 0 and err == ""
        assert (out / "model.json").exists()
        rows = read_rows(out / "scree.csv")
        assert rows[0] == ["component", "variance", "cumulative_ratio"]
        assert len(rows) - 1 == 6  # min(10, p) with p = 6
        assert float(rows[-1][2]) == 1.0

    def test_repeat_runs_byte_identical(self, players_csv, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0
            outs.append((out / "model.json").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_input_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        diagnostic = fails(capsys, 3, "fit", "--input", str(missing), "--out", str(tmp_path / "o"))
        assert diagnostic["exit_code"] == 3
        assert "nope.csv" in diagnostic["error"]

    def test_filter_that_keeps_no_rows(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["fit", "--input", str(players_csv), "--out", str(out), "--min-games", "100000"]
        assert fails(capsys, 3, *argv)["error"] == "no records to build a table from"
        assert not out.exists()

    def test_k_larger_than_p_is_usage_error(self, players_csv, tmp_path, capsys):
        diagnostic = fails(
            capsys, 2,
            "fit", "--input", str(players_csv), "--out", str(tmp_path / "o"), "--k", "7",
        )
        assert diagnostic["category"] == "usage"

    def test_matches_library_composition(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0

        records = ingest.parse_csv(players_csv)
        table = ingest.build_table(
            ingest.apply_filter(records, ingest.FilterPolicy(min_games=41))
        )
        params, standardized = pca.standardize(table)
        model = pca.fit_pca(standardized, 4, params)
        library = pca.save_model(model, io.StringIO()).decode()
        assert (out / "model.json").read_text(encoding="utf-8") == library


class TestScores:
    def test_one_row_per_player(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "fit", "--input", str(players_csv), "--out", str(out))
        code, _ = run(
            capsys,
            "scores", "--input", str(players_csv),
            "--model", str(out / "model.json"), "--out", str(out),
        )
        assert code == 0
        rows = read_rows(out / "scores.csv")
        assert rows[0] == ["entity_id", "entity_name", "minutes", "PC1", "PC2", "PC3", "PC4"]
        assert len(rows) - 1 == 17  # 16 regulars + 1 combined record

    def test_players_who_share_a_name(self, tmp_path, capsys):
        # with 4 names the name is the id: the two read as one player with two
        # teams' rows and no TOT row, which the filter drops; 5 names keep both
        text = players_csv_text().replace("Player 02", "Player 01")
        schema = ["player_id", "player_name", "team", "games_played", "minutes"]
        no_ids = "".join(line.split(",", 1)[1] for line in text.splitlines(keepends=True))
        kept = {}
        for names, players_text in ((5, text), (4, no_ids)):
            players, config = tmp_path / f"players{names}.csv", tmp_path / f"config{names}.json"
            players.write_text(players_text, encoding="utf-8")
            config.write_text(json.dumps({"schema": schema[-names:]}), encoding="utf-8")
            out = tmp_path / f"out{names}"
            argv = ["--input", str(players), "--config", str(config), "--out", str(out)]
            assert run(capsys, "fit", *argv) == (0, "")
            assert run(capsys, "scores", *argv, "--model", str(out / "model.json")) == (0, "")
            kept[names] = [row[:2] for row in read_rows(out / "scores.csv")[1:]]
        assert len(kept[5]) == 17
        assert ["p01", "Player 01"] in kept[5] and ["p02", "Player 01"] in kept[5]
        assert len(kept[4]) == 15
        assert not [row for row in kept[4] if row[1] == "Player 01"]

    def test_values_match_library(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "fit", "--input", str(players_csv), "--out", str(out))
        run(
            capsys,
            "scores", "--input", str(players_csv),
            "--model", str(out / "model.json"), "--out", str(out),
        )
        records = ingest.parse_csv(players_csv)
        table = ingest.build_table(
            ingest.apply_filter(records, ingest.FilterPolicy(min_games=41))
        )
        model = pca.load_model(out / "model.json")
        scores = pca.transform(model, table)
        rows = read_rows(out / "scores.csv")[1:]
        parsed = np.array([[float(v) for v in row[3:]] for row in rows])
        assert np.array_equal(parsed, scores.values)

    def test_json_format(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "fit", "--input", str(players_csv), "--out", str(out))
        code, _ = run(
            capsys,
            "scores", "--input", str(players_csv),
            "--model", str(out / "model.json"), "--out", str(out),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads((out / "scores.json").read_text(encoding="utf-8"))
        assert len(doc) == 17
        assert set(doc[0]) == {"entity_id", "entity_name", "minutes", "scores"}


class TestDroppedColumn:
    """`fit` drops a constant column; later subcommands project without it."""

    def _with_constant_column(self, tmp_path):
        lines = players_csv_text().splitlines()
        header = lines[0].split(",")
        header.insert(7, "const")
        rows = [",".join(header)]
        for line in lines[1:]:
            cells = line.split(",")
            cells.insert(7, "2.5")
            rows.append(",".join(cells))
        path = tmp_path / "players_const.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    def test_later_subcommands_use_kept_columns(
        self, players_csv, membership_csv, tmp_path, capsys
    ):
        players = self._with_constant_column(tmp_path)
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="const"):
            assert run(capsys, "fit", "--input", str(players), "--out", str(out))[0] == 0
        model = pca.load_model(out / "model.json")
        assert "const" not in model.standardization.stat_names
        common = ["--input", str(players), "--model", str(out / "model.json"), "--out", str(out)]
        for argv in (
            ["scores"],
            ["teams", "--membership", str(membership_csv)],
            ["similar", "--query", "p01"],
        ):
            code, err = run(capsys, *argv, *common)
            assert (code, err) == (0, "")

        table = ingest.build_table(
            ingest.apply_filter(ingest.parse_csv(players_csv), ingest.FilterPolicy())
        )
        expected = pca.transform(model, table).values
        rows = read_rows(out / "scores.csv")[1:]
        assert np.array_equal(np.array([[float(v) for v in row[3:]] for row in rows]), expected)
        assert len(read_rows(out / "similar.csv")) - 1 == 5

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["fit", "scree"])
    def test_every_column_constant(self, tmp_path, capsys, recwarn, command, fmt):
        # an error, with no warning about the columns dropped before it
        players = _every_stat_constant(tmp_path)
        out = tmp_path / "out"
        diagnostic = fails(
            capsys, 3, command, "--input", str(players), "--out", str(out), "--format", fmt
        )
        assert diagnostic["error"] == "all columns have zero variance"
        assert not recwarn.list
        assert not (out / "scree.csv").exists() and not (out / "model.json").exists()


    def test_failure_drops_the_warning(self, tmp_path, capsys, recwarn):
        # the dropped column is warned of only when the command succeeds
        players = self._with_constant_column(tmp_path)
        diagnostic = fails(
            capsys, 2, "fit", "--input", str(players), "--out", str(tmp_path / "out"),
            "--k", "1000",
        )
        assert diagnostic["error"] == f"k must be in [1, {len(STATS)}], got 1000"
        assert not recwarn.list

    def test_fresh_process_warns_only_on_success(self, tmp_path):
        players = self._with_constant_column(tmp_path)
        fit = ("-m", "statspace.cli", "fit", "--input", str(players), "--out", str(tmp_path / "o"))
        failed = _python(*fit, "--k", "1000")
        failure(2, failed.returncode, failed.stdout, failed.stderr)
        done = _python(*fit)
        assert (done.returncode, done.stdout) == (0, "")
        assert "UserWarning: dropping zero-variance columns: ['const']" in done.stderr


def _every_stat_constant(tmp_path) -> Path:
    """The test players file with every stat cell 5."""
    lines = players_csv_text().splitlines()
    rows = [lines[0]] + [",".join(line.split(",")[:5] + ["5"] * len(STATS)) for line in lines[1:]]
    path = tmp_path / "players_constant.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestTeams:
    def _fit(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "fit", "--input", str(players_csv), "--out", str(out))
        return out

    def test_without_winpct(self, players_csv, membership_csv, tmp_path, capsys):
        out = self._fit(players_csv, tmp_path, capsys)
        code, _ = run(
            capsys,
            "teams", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--membership", str(membership_csv), "--out", str(out),
        )
        assert code == 0
        rows = read_rows(out / "teams.csv")
        assert rows[0] == ["team_code", "total_minutes", "PC1", "PC2", "PC3", "PC4"]
        assert "win_pct" not in rows[0]
        assert len(rows) - 1 == 8

    def test_with_winpct_and_weights(self, players_csv, membership_csv, tmp_path, capsys):
        out = self._fit(players_csv, tmp_path, capsys)
        winpct = tmp_path / "winpct.csv"
        winpct.write_text(
            "team_code,win_pct\n"
            + "".join(f"{code},0.5\n" for code in sorted(set(_teams(membership_csv)))),
            encoding="utf-8",
        )
        code, _ = run(
            capsys,
            "teams", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--membership", str(membership_csv), "--winpct", str(winpct),
            "--weights", "2=0.17,4=0.09", "--out", str(out),
        )
        assert code == 0
        rows = read_rows(out / "teams.csv")
        assert rows[0][-2:] == ["win_pct", "weighted_score"]
        scores = {row[0]: row for row in rows[1:]}
        # weighted composite recomputed from the emitted full-precision scores
        for row in rows[1:]:
            expected = 0.17 * float(row[3]) + 0.09 * float(row[5])
            assert abs(float(row[-1]) - expected) < 1e-12
        assert scores["ATL"][6] == "0.5"

    def test_one_team(self, players_csv, tmp_path, capsys):
        # every player on one team: a one-row team profile, exit 0
        out = self._fit(players_csv, tmp_path, capsys)
        model = ["--input", str(players_csv), "--model", str(out / "model.json")]
        assert run(capsys, "scores", *model, "--out", str(out)) == (0, "")
        players = read_rows(out / "scores.csv")[1:]
        membership = tmp_path / "one.csv"
        membership.write_text("".join(f"{row[0]},ONE\n" for row in players), encoding="utf-8")
        argv = ["teams", *model, "--membership", str(membership), "--out", str(out)]
        assert run(capsys, *argv, "--weights", "1=1") == (0, "")
        header, *rows = read_rows(out / "teams.csv")
        assert header == [
            "team_code", "total_minutes", "PC1", "PC2", "PC3", "PC4", "weighted_score"
        ]
        assert [row[0] for row in rows] == ["ONE"]
        minutes = np.array([float(row[2]) for row in players])
        scores = np.array([[float(cell) for cell in row[3:]] for row in players])
        assert float(rows[0][1]) == minutes.sum() == 30700.0
        team = [float(cell) for cell in rows[0][2:6]]
        np.testing.assert_allclose(team, minutes @ scores / minutes.sum(), rtol=0, atol=1e-12)
        assert rows[0][6] == rows[0][2]

    @pytest.mark.parametrize("weights", ["2=nan,4=inf", "2=0.17,4=-inf"])
    def test_non_finite_weights_are_usage_error(
        self, players_csv, membership_csv, tmp_path, capsys, weights
    ):
        out = self._fit(players_csv, tmp_path, capsys)
        diagnostic = fails(
            capsys, 2,
            "teams", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--membership", str(membership_csv), "--weights", weights,
            "--format", "json", "--out", str(out),
        )
        assert "finite" in diagnostic["error"]
        assert not (out / "teams.json").exists()


def _teams(membership_csv):
    return [line.split(",")[1] for line in membership_csv.read_text().splitlines()[1:]]


class TestSimilar:
    def test_six_entity_boundary(self, tmp_path, capsys):
        players = tmp_path / "six.csv"
        lines = ["player_id,player_name,team,games_played,minutes,s1,s2,s3"]
        values = [
            (1.0, 5.0, 0.3), (2.0, 4.0, 0.9), (3.5, 3.0, 0.1),
            (4.0, 2.5, 0.8), (5.0, 1.0, 0.5), (6.5, 0.5, 0.2),
        ]
        for i, (a, b, c) in enumerate(values):
            lines.append(f"q{i},Q {i},AAA,50,{1000 + i * 10}.0,{a},{b},{c}")
        players.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players), "--out", str(out), "--k", "2")[0] == 0
        code, _ = run(
            capsys,
            "similar", "--input", str(players), "--model", str(out / "model.json"),
            "--query", "q0", "--top", "5", "--out", str(out),
        )
        assert code == 0
        rows = read_rows(out / "similar.csv")
        assert len(rows) - 1 == 5
        assert rows[0] == ["rank", "entity_id", "entity_name", "sdi"]
        sdis = [float(row[3]) for row in rows[1:]]
        assert sdis == sorted(sdis)

    def test_unknown_query(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "fit", "--input", str(players_csv), "--out", str(out))
        diagnostic = fails(
            capsys, 3,
            "similar", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--query", "nobody", "--out", str(out),
        )
        assert "nobody" in diagnostic["error"]
        # a long id is cut to its first 50 characters, then how many more
        diagnostic = fails(
            capsys, 3,
            "similar", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--query", "q" * 100_000, "--out", str(out),
        )
        assert diagnostic["error"] == (
            f"unknown query entity {'q' * 50!r} and 99950 more characters"
        )

    def test_component_subset(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "fit", "--input", str(players_csv), "--out", str(out))
        code, _ = run(
            capsys,
            "similar", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--query", "p01", "--top", "3", "--components", "1,2", "--out", str(out),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads((out / "similar.json").read_text(encoding="utf-8"))
        assert doc["components_used"] == [0, 1]
        assert len(doc["entries"]) == 3


class TestRegress:
    def test_synthetic_exact_fit(self, players_csv, membership_csv, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "fit", "--input", str(players_csv), "--out", str(out))

        records = ingest.parse_csv(players_csv)
        table = ingest.build_table(
            ingest.apply_filter(records, ingest.FilterPolicy(min_games=41))
        )
        model = pca.load_model(out / "model.json")
        scores = pca.transform(model, table)
        membership = scoring.load_membership(membership_csv)
        teams = scoring.team_scores(scores, membership)
        outcome = (
            0.35
            + 0.17 * teams.values[:, 1]
            - 0.20 * teams.values[:, 2]
            + 0.09 * teams.values[:, 3]
        )
        assert ((outcome > 0.0) & (outcome < 1.0)).all()
        winpct = tmp_path / "winpct.csv"
        winpct.write_text(
            "".join(
                f"{code},{float(outcome[t])!r}\n"
                for t, code in enumerate(teams.entity_ids)
            ),
            encoding="utf-8",
        )

        code, _ = run(
            capsys,
            "regress", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--membership", str(membership_csv), "--winpct", str(winpct),
            "--out", str(out),
        )
        assert code == 0
        text = (out / "regression.txt").read_text(encoding="utf-8")
        assert "R-squared: 1.000" in text
        rows = read_rows(out / "regression.csv")
        coefs = {row[0]: float(row[1]) for row in rows[1:]}
        assert abs(coefs["intercept"] - 0.35) < 1e-9
        assert abs(coefs["PC1"]) < 1e-9
        assert abs(coefs["PC2"] - 0.17) < 1e-9
        assert abs(coefs["PC3"] + 0.20) < 1e-9
        assert abs(coefs["PC4"] - 0.09) < 1e-9

    def test_does_not_read_weights(self, players_csv, membership_csv, tmp_path, capsys):
        # only teams reads --weights; component 9 is out of range for k=4
        out = tmp_path / "out"
        argvs = _chain(players_csv, membership_csv, tmp_path, out, "csv")
        _run_chain(capsys, argvs)
        written = {name: (out / name).read_bytes() for name in ("regression.csv", "regression.txt")}
        assert run(capsys, *argvs[-1], "--weights", "9=0.1") == (0, "")
        assert {name: (out / name).read_bytes() for name in written} == written

    def test_requires_winpct(self, players_csv, membership_csv, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "fit", "--input", str(players_csv), "--out", str(out))
        diagnostic = fails(
            capsys, 2,
            "regress", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--membership", str(membership_csv), "--out", str(out),
        )
        assert "winpct" in diagnostic["error"]


class TestRequiredFlags:
    """A missing flag is a usage error, reported before any input is read."""

    @pytest.mark.parametrize(
        "command, flag, given",
        [
            ("similar", "query", ["--membership", "m.csv", "--winpct", "w.csv"]),
            ("teams", "membership", ["--query", "p01", "--winpct", "w.csv"]),
            ("regress", "membership", ["--winpct", "w.csv"]),
            ("regress", "winpct", ["--membership", "m.csv"]),
        ],
    )
    def test_before_any_input_is_read(self, tmp_path, capsys, command, flag, given):
        # none of these files is readable: reading any of them would exit 3
        players = tmp_path / "players.csv"
        players.write_text("player_id,player_name\np01\n", encoding="utf-8")
        diagnostic = fails(
            capsys, 2,
            command, "--input", str(players), "--model", str(tmp_path / "none.json"),
            "--out", str(tmp_path / "out"), *given,
        )
        assert diagnostic == {
            "error": f"missing required flag: --{flag}",
            "category": "usage",
            "exit_code": 2,
        }
        assert not (tmp_path / "out").exists()

    def test_config_file_supplies_required_flag(
        self, players_csv, membership_csv, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"membership": str(membership_csv)}), encoding="utf-8")
        code, err = run(
            capsys,
            "teams", "--config", str(config), "--input", str(players_csv),
            "--model", str(out / "model.json"), "--out", str(out),
        )
        assert code == 0, err
        assert (out / "teams.csv").exists()


class TestInputFiles:
    """Each file a subcommand reads must exist before any file is read."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("scores", "model"),
            ("teams", "membership"),
            ("teams", "winpct"),
            ("regress", "membership"),
            ("regress", "winpct"),
        ],
    )
    def test_missing_file_found_before_players_parse(
        self, players_csv, membership_csv, tmp_path, capsys, monkeypatch, command, flag
    ):
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0
        winpct = tmp_path / "winpct.csv"
        winpct.write_text("ATL,0.5\n", encoding="utf-8")
        paths = {"model": out / "model.json", "membership": membership_csv, "winpct": winpct}
        missing = tmp_path / "nope.csv"
        paths[flag] = missing
        if command == "scores":
            del paths["membership"], paths["winpct"]

        def parse_csv(*args, **kwargs):
            raise AssertionError("the players CSV was parsed")

        monkeypatch.setattr(ingest, "parse_csv", parse_csv)
        given = [arg for key, path in paths.items() for arg in (f"--{key}", str(path))]
        diagnostic = fails(
            capsys, 3, command, "--input", str(players_csv), "--out", str(out), *given
        )
        assert diagnostic == {
            "error": f"{flag} file not found: {missing}",
            "category": "data",
            "exit_code": 3,
        }

    @pytest.mark.parametrize("flag", ["input", "model", "membership", "winpct"])
    def test_directory_found_before_players_parse(
        self, players_csv, membership_csv, tmp_path, capsys, monkeypatch, flag
    ):
        # into a cold --out, where no cache hit can stand in for the parse
        fitted, out = tmp_path / "fitted", tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(fitted))[0] == 0
        winpct = tmp_path / "winpct.csv"
        winpct.write_text("ATL,0.5\n", encoding="utf-8")
        paths = {
            "input": players_csv,
            "model": fitted / "model.json",
            "membership": membership_csv,
            "winpct": winpct,
        }
        paths[flag] = tmp_path / "a-directory"
        paths[flag].mkdir()
        monkeypatch.setattr(ingest, "parse_csv", _no_parse)
        given = [arg for key, path in paths.items() for arg in (f"--{key}", str(path))]
        diagnostic = fails(capsys, 3, "regress", *given, "--out", str(out))
        role = "players" if flag == "input" else flag
        assert diagnostic == {
            "error": f"{role} file is a directory: {paths[flag]}",
            "category": "data",
            "exit_code": 3,
        }
        assert not out.exists()

    def test_bad_flag_value_reported_before_missing_file(self, players_csv, tmp_path, capsys):
        diagnostic = fails(
            capsys, 2,
            "teams", "--input", str(players_csv), "--model", str(tmp_path / "none.json"),
            "--membership", str(tmp_path / "none.csv"), "--weights", "2=nan",
            "--out", str(tmp_path / "out"),
        )
        assert "finite" in diagnostic["error"]

    def test_files_a_subcommand_does_not_read_are_not_checked(
        self, players_csv, tmp_path, capsys
    ):
        # one config file for the chain: the model is not written until fit ends
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        doc = {
            "input": str(players_csv),
            "out": str(out),
            "model": str(out / "model.json"),
            "membership": str(tmp_path / "later.csv"),
            "winpct": str(tmp_path / "later.csv"),
            "query": "p01",
        }
        config.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("fit", "scree", "scores", "similar"):
            assert run(capsys, command, "--config", str(config)) == (0, ""), command
        assert sorted(p.name for p in out.iterdir()) == [
            ".statspace-players", ".statspace-scores", ".statspace-table", "model.json",
            "scores.csv", "scree.csv", "similar.csv",
        ]


def _long_path(base: Path, form: str) -> str:
    """A path of 3,000 characters under ``base``: one name longer than a
    file system takes, or many names of under 100 characters."""
    if form == "long-name":
        return str(base / ("x" * (3000 - len(str(base)) - 1)))
    path = str(base)
    while len(path) < 2900:
        path += "/" + "d" * 49
    return path + "/" + "f" * (3000 - len(path) - 1)


def _cut(path: str) -> str:
    """A 3,000-character path as a failure line shows it."""
    return f"[2800 characters cut]{path[-200:]}"


class TestLongPaths:
    """A failure that names a long path shows how much of it was cut and
    then its end, where the file name is, and keeps its line under 1,000
    characters. The exit code is the one a short path gets."""

    @pytest.mark.parametrize("form", ["long-name", "many-names"])
    @pytest.mark.parametrize(
        "flag, code",
        [("input", 3), ("model", 3), ("membership", 3), ("winpct", 3), ("config", 2)],
    )
    def test_input_file(self, players_csv, membership_csv, tmp_path, capsys, flag, code, form):
        fitted = tmp_path / "fitted"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(fitted))[0] == 0
        winpct = tmp_path / "winpct.csv"
        winpct.write_text("ATL,0.5\n", encoding="utf-8")
        paths = {
            "input": players_csv,
            "model": fitted / "model.json",
            "membership": membership_csv,
            "winpct": winpct,
            "config": None,
        }
        path = paths[flag] = _long_path(tmp_path, form)
        given = [arg for key, p in paths.items() if p for arg in (f"--{key}", str(p))]
        error = fails(capsys, code, "regress", *given, "--out", str(tmp_path / "out"))["error"]
        # a name too long fails as an OSError (or as not found, where a
        # Python's existence check answers False); many names are not found
        assert error.endswith(": " + _cut(path))
        if form == "many-names":
            role = "players" if flag == "input" else flag
            assert error == f"{role} file not found: {_cut(path)}"

    def test_out_with_a_long_name(self, players_csv, tmp_path, capsys):
        out = _long_path(tmp_path, "long-name")
        error = fails(capsys, 3, "fit", "--input", str(players_csv), "--out", out)["error"]
        reason = os.strerror(errno.ENAMETOOLONG)
        assert error == f"[Errno {errno.ENAMETOOLONG}] {reason}: {_cut(out)}"

    def test_out_under_a_file(self, players_csv, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep\n", encoding="utf-8")
        out = _long_path(taken, "many-names")
        error = fails(capsys, 2, "fit", "--input", str(players_csv), "--out", out)["error"]
        assert error == f"output directory {_cut(out)}: {taken} is not a directory"

    def test_file_not_utf8(self, players_csv, tmp_path, capsys):
        fitted = tmp_path / "fitted"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(fitted))[0] == 0
        membership = Path(_long_path(tmp_path, "many-names"))
        membership.parent.mkdir(parents=True)
        membership.write_bytes(b"player_id,team_code\np01,B\xe9S\n")
        error = fails(
            capsys, 3, "teams", "--input", str(players_csv), "--model", str(fitted / "model.json"),
            "--membership", str(membership), "--out", str(fitted),
        )["error"]
        reason = "not UTF-8 text: byte 0xe9 (invalid continuation byte)"
        assert error == f"{_cut(str(membership))}: {reason}"


class TestValueChecks:
    """A value out of range, or an --out that cannot be a directory, exits 2
    before any input is read."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["similar", "--query", "p01", "--top", "0"], "top must be >= 1, got 0"),
            (["fit", "--k", "0"], "k must be >= 1, got 0"),
            (["fit", "--min-games", "-5"], "min_games must be >= 0, got -5"),
            (
                ["teams", "--membership", "m.csv", "--weights", "2=1,2=3"],
                "--weights gives component 2 more than once",
            ),
            (
                ["teams", "--membership", "m.csv", "--weights", ""],
                "--weights needs entries like 2=0.17, got ''",
            ),
            (
                ["teams", "--membership", "m.csv", "--weights", " , "],
                "--weights needs entries like 2=0.17, got ' , '",
            ),
            (["similar", "--query", "p01", "--components", "x"], "bad --components value: 'x'"),
            (
                ["similar", "--query", "p01", "--components", "0"],
                "--components needs 1-based component numbers",
            ),
            (
                ["teams", "--membership", "m.csv", "--weights", "2:1"],
                "bad --weights entry '2:1'; expected like 2=0.17",
            ),
            (
                ["teams", "--membership", "m.csv", "--weights", "0=1"],
                "--weights needs 1-based component numbers",
            ),
            (
                ["similar", "--query", "p01", "--components", "x" * 100_000],
                f"bad --components value: {'x' * 50!r} and 99950 more characters",
            ),
            (
                ["teams", "--membership", "m.csv", "--weights", "2=nan" + "," * 100_000],
                f"--weights must be finite numbers, got {'2=nan' + ',' * 45!r}"
                " and 99955 more characters",
            ),
        ],
        ids=[
            "top", "k", "min-games", "repeated-weight", "empty-weights", "only-commas",
            "components-not-a-number", "component-zero", "weight-without-equals",
            "weight-component-zero", "long-components", "long-weights",
        ],
    )
    def test_before_any_input_is_read(
        self, players_csv, tmp_path, capsys, monkeypatch, argv, message
    ):
        def parse_csv(*args, **kwargs):
            raise AssertionError("the players CSV was parsed")

        monkeypatch.setattr(ingest, "parse_csv", parse_csv)
        diagnostic = fails(
            capsys, 2,
            *argv, "--input", str(players_csv), "--model", str(tmp_path / "none.json"),
            "--out", str(tmp_path / "out"),
        )
        assert diagnostic == {"error": message, "category": "usage", "exit_code": 2}

    def test_weights_from_config_with_no_entries(self, players_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ingest, "parse_csv", _no_parse)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"weights": ","}), encoding="utf-8")
        diagnostic = fails(
            capsys, 2,
            "teams", "--config", str(config), "--input", str(players_csv),
            "--model", str(tmp_path / "none.json"), "--membership", "m.csv",
            "--out", str(tmp_path / "out"),
        )
        assert diagnostic == {
            "error": "--weights needs entries like 2=0.17, got ','",
            "category": "usage",
            "exit_code": 2,
        }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["similar", "--query", "p01", "--components", "2,9"],
                "--components numbers [9] out of range for k=4",
            ),
            (
                ["teams", "--membership", "m.csv", "--weights", "2=1,9=1"],
                "--weights numbers [9] out of range for k=4",
            ),
        ],
        ids=["components", "weights"],
    )
    def test_beyond_the_model_before_the_parse(
        self, players_csv, tmp_path, capsys, monkeypatch, argv, message
    ):
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0
        (tmp_path / "m.csv").write_text("p01,ATL\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)

        def parse_csv(*args, **kwargs):
            raise AssertionError("the players CSV was parsed")

        monkeypatch.setattr(ingest, "parse_csv", parse_csv)
        diagnostic = fails(
            capsys, 2,
            *argv, "--input", str(players_csv), "--model", str(out / "model.json"),
            "--out", str(out),
        )
        assert diagnostic == {"error": message, "category": "usage", "exit_code": 2}

    @pytest.mark.parametrize(
        "schema, message",
        [
            (
                ["player_name", "team", "games_played"],
                "schema must list 4 or 5 metadata column names, got 3",
            ),
            (
                ["player_id", "player_id", "team", "games_played", "minutes"],
                "schema names a column more than once: ['player_id']",
            ),
        ],
        ids=["three-names", "repeated-name"],
    )
    def test_schema_before_any_read(
        self, players_csv, tmp_path, capsys, monkeypatch, schema, message
    ):
        # the model file does not exist, so a check of the files would exit 3
        monkeypatch.setattr(ingest, "parse_csv", _no_parse)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema": schema}), encoding="utf-8")
        diagnostic = fails(
            capsys, 2,
            "scores", "--config", str(config), "--input", str(players_csv),
            "--model", str(tmp_path / "none.json"), "--out", str(tmp_path / "out"),
        )
        assert diagnostic == {"error": message, "category": "usage", "exit_code": 2}

    def test_values_a_subcommand_does_not_read_are_not_checked(
        self, players_csv, tmp_path, capsys
    ):
        out = tmp_path / "out"
        argv = ["--input", str(players_csv), "--out", str(out), "--top", "0", "--components", "0"]
        assert run(capsys, "fit", *argv) == (0, "")
        assert run(capsys, "scree", *argv, "--k", "0") == (0, "")

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_that_is_a_file(self, players_csv, tmp_path, capsys, monkeypatch, under):
        def parse_csv(*args, **kwargs):
            raise AssertionError("the players CSV was parsed")

        monkeypatch.setattr(ingest, "parse_csv", parse_csv)
        taken = tmp_path / "taken"
        taken.write_text("keep\n", encoding="utf-8")
        out = taken / "sub" if under else taken
        diagnostic = fails(capsys, 2, "fit", "--input", str(players_csv), "--out", str(out))
        assert diagnostic == {
            "error": f"output directory {out}: {taken} is not a directory",
            "category": "usage",
            "exit_code": 2,
        }
        assert taken.read_text(encoding="utf-8") == "keep\n"


class TestArgparseErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--bogus"], "unrecognized arguments: --bogus"),
            (["fit", "--k", "abc"], "argument --k: invalid int value: 'abc'"),
            (["fit", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
            ([], "the following arguments are required: command"),
        ],
        ids=["unknown-flag", "not-an-int", "bad-choice", "no-subcommand"],
    )
    def test_one_json_line(self, capsys, argv, message):
        assert fails(capsys, 2, *argv)["error"].startswith(message)

    @pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in cli.SUBCOMMANDS)])
    def test_help_keeps_its_text(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: statspace {' '.join(argv[:-1])}".rstrip())
        assert captured.err == ""

    def test_help_gives_min_games_and_format_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps lines
        games = ingest.FilterPolicy().min_games
        assert f"--min-games MIN_GAMES fewest games played to keep a player (default {games})" in (
            text
        )
        assert "--format {csv,json} output file format (default csv)" in text


class TestEmit:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_json_is_exit_4_and_keeps_old_file(
        self, players_csv, tmp_path, capsys, monkeypatch, bad
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / "scores.json").write_text("old\n", encoding="utf-8")

        def emit_bad(config):
            values = memoryview(np.array([[0.5, bad, 1.5]]))  # unchecked, as a cache gives it
            scores = statspace.StatTable(["p01"], ["p01"], [0.0], ["PC1", "PC2", "PC3"], values)
            columns = {"entity_id": ["p01"], "scores": scores}
            cli._emit(config, "scores", columns)
            return 0

        monkeypatch.setitem(
            cli.SUBCOMMANDS, "fit", cli.SUBCOMMANDS["fit"]._replace(run=emit_bad)
        )
        diagnostic = fails(
            capsys, 4,
            "fit", "--input", str(players_csv), "--out", str(out), "--format", "json",
        )
        assert diagnostic["category"] == "numerical"
        assert "not JSON compliant" in diagnostic["error"]
        assert (out / "scores.json").read_bytes() == b"old\n"
        assert sorted(p.name for p in out.iterdir()) == ["scores.json"]


def _chain(players_csv, membership_csv, tmp_path, out, fmt):
    """argv lists for all six subcommands, writing ``fmt`` outputs to ``out``."""
    winpct = tmp_path / "winpct.csv"
    codes = sorted(set(_teams(membership_csv)))
    winpct.write_text(
        "".join(f"{code},0.{45 + i}\n" for i, code in enumerate(codes)), encoding="utf-8"
    )
    model = str(out / "model.json")
    team_files = ["--membership", str(membership_csv), "--winpct", str(winpct)]
    common = ["--input", str(players_csv), "--out", str(out), "--format", fmt]
    return [
        ["fit", *common],
        ["scree", *common],
        ["scores", "--model", model, *common],
        ["teams", "--model", model, *team_files, "--weights", "2=0.17,4=0.09", *common],
        ["similar", "--model", model, "--query", "p01", "--top", "4", *common],
        ["regress", "--model", model, *team_files, *common],
    ]


def _run_chain(capsys, argvs) -> None:
    for argv in argvs:
        assert main(argv) == 0, argv[0]
    capsys.readouterr()


CACHE = ".statspace-table"
SCORES = ".statspace-scores"
RECORD = ".statspace-players"


def _chain_files(fmt: str) -> list[str]:
    """The names of the files a chain writes, the two caches and the
    players file's record included."""
    stems = ("regression", "scores", "scree", "similar", "teams")
    files = [CACHE, SCORES, RECORD, "model.json", "regression.txt"]
    return sorted(files + [f"{s}.{fmt}" for s in stems])


def _files(out: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def _last_value(cached: bytes) -> int:
    """Where the last float of the values array starts in the cache file
    ``cached``: the arrays follow the sizes line, each padded to 64 bytes."""
    key_line, sizes, _ = cached.split(b"\n", 2)
    start = len(key_line) + len(sizes) + 2
    for size in map(int, sizes.split()):
        start += size + -size % 64
    return start - -size % 64 - 8


def _resealed(cached: bytes) -> bytes:
    """The cache file ``cached`` with the CRC in its first line written anew
    for the rest, so that only the layout check can find a fault."""
    key_line, rest = cached.split(b"\n", 1)
    return key_line[:-8] + b"%08x\n" % zlib.crc32(rest) + rest


def _relaid(cached: bytes) -> bytes:
    """The cache file ``cached`` with 8 bytes less of padding on its sizes
    line: the sizes still sum to the file's length, but no array starts at a
    multiple of 64 bytes."""
    key_line, sizes, rest = cached.split(b"\n", 2)
    assert sizes.endswith(b" " * 8)
    return _resealed(b"\n".join([key_line, sizes[:-8], rest]))


def _revalued(cached: bytes, values: bytes) -> bytes:
    """The cache file ``cached`` with ``values`` in place of its values
    array, its size on the sizes line and the CRC rewritten to match, so
    that only the check of the values against the table's shape can find a
    fault."""
    key_line, sizes, rest = cached.split(b"\n", 2)
    counts = sizes.split()
    start = sum(int(size) + -int(size) % 64 for size in counts[:-1])
    rest = rest[:start] + values + bytes(-len(values) % 64)
    sizes = b" ".join([*counts[:-1], b"%d" % len(values)]).ljust(len(sizes))
    return _resealed(b"\n".join([key_line, sizes, rest]))


def _fewer_names(cached: bytes) -> bytes:
    """The cache file ``cached`` with its last name cut off: its bytes are
    zeroed as padding, and its size on the sizes line shrinks to match."""
    key_line, sizes, rest = cached.split(b"\n", 2)
    counts = sizes.split()
    ids, names = int(counts[0]), int(counts[1])
    start = ids + -ids % 64  # the names array, in the rest after the sizes line
    kept = rest.rindex(b"\0", start, start + names) - start
    assert kept + -kept % 64 == names + -names % 64  # the next array stays where it is
    rest = rest[: start + kept] + bytes(names - kept) + rest[start + names :]
    sizes = b" ".join([counts[0], b"%d" % kept, *counts[2:]]).ljust(len(sizes))
    return _resealed(b"\n".join([key_line, sizes, rest]))


def _settle(path: Path) -> None:
    """Wait until a file written now gets a later modification time than
    ``path``'s last change, so that a record written from now on vouches
    for it."""
    probe = path.with_name(".probe")
    while True:
        probe.write_bytes(b"")
        if probe.stat().st_mtime_ns > path.stat().st_ctime_ns:
            break
        time.sleep(0.001)
    probe.unlink()


def _forge_record(record: Path, digest: str, status: os.stat_result, written_ns: int) -> None:
    """Write the players file's record: ``digest`` beside the identity in
    ``status``, under a good CRC, with the modification time ``written_ns``."""
    fields = (status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns, status.st_ctime_ns)
    line = " ".join([digest, *map(str, fields)]).encode()
    record.write_bytes(line + b" %08x\n" % zlib.crc32(line))
    os.utime(record, ns=(written_ns, written_ns))


def _count_opens(monkeypatch, reads_only: bool = False) -> list[str]:
    """The paths ``open`` is called with from now on; with ``reads_only``,
    those it is called with to read and not to write."""
    real_open, opened = open, []

    def counting_open(file, mode="r", *args, **kwargs):
        if not (reads_only and set(mode) & set("wax+")):
            opened.append(str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    return opened


class TestReproducibility:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_subcommand_byte_identical(
        self, players_csv, membership_csv, tmp_path, capsys, fmt
    ):
        outputs = []
        for run_dir in ("one", "two"):
            out = tmp_path / run_dir
            _run_chain(capsys, _chain(players_csv, membership_csv, tmp_path, out, fmt))
            outputs.append(_files(out))
        assert sorted(outputs[0]) == _chain_files(fmt)
        assert outputs[0] == outputs[1]

    def test_csv_cells_equal_json_values(self, players_csv, membership_csv, tmp_path, capsys):
        outs = {}
        for fmt in ("csv", "json"):
            outs[fmt] = tmp_path / fmt
            _run_chain(capsys, _chain(players_csv, membership_csv, tmp_path, outs[fmt], fmt))
        for name in ("model.json", "regression.txt"):
            assert (outs["csv"] / name).read_bytes() == (outs["json"] / name).read_bytes()
        nested = {"similar": "entries", "regression": "terms"}
        for stem in ("scree", "scores", "teams", "similar", "regression"):
            header, *rows = read_rows(outs["csv"] / f"{stem}.csv")
            doc = json.loads((outs["json"] / f"{stem}.json").read_text(encoding="utf-8"))
            records = doc[nested[stem]] if stem in nested else doc
            assert len(rows) == len(records) > 0, stem
            named = [column for column in header if not column.startswith("PC")]
            assert named == [key for key in records[0] if key != "scores"], stem
            for row, record in zip(rows, records):
                values = []
                for value in record.values():  # component scores spread over PC columns
                    values += value if isinstance(value, list) else [value]
                assert row == [repr(v) if isinstance(v, float) else str(v) for v in values], stem

    def test_json_outputs_are_canonical(self, players_csv, membership_csv, tmp_path, capsys):
        out = tmp_path / "out"
        _run_chain(capsys, _chain(players_csv, membership_csv, tmp_path, out, "json"))
        written = sorted(out.glob("*.json"))
        assert [p.name for p in written] == [n for n in _chain_files("json") if n.endswith(".json")]
        for path in written:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2) + "\n", path.name

    def test_scree_subcommand_matches_fit_scree(self, players_csv, tmp_path, capsys):
        fit_out, scree_out = tmp_path / "fit", tmp_path / "scree"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(fit_out))[0] == 0
        assert run(capsys, "scree", "--input", str(players_csv), "--out", str(scree_out))[0] == 0
        assert (fit_out / "scree.csv").read_bytes() == (scree_out / "scree.csv").read_bytes()
        assert not (scree_out / "model.json").exists()


class TestTableCache:
    """Each subcommand keeps the players table it built in --out, and a later
    one there that would build the same table reads it instead."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_warm_chain_writes_the_bytes_of_a_cold_one(
        self, players_csv, membership_csv, tmp_path, capsys, monkeypatch, fmt
    ):
        warm, cold = tmp_path / "warm", tmp_path / "cold"
        _run_chain(capsys, _chain(players_csv, membership_csv, tmp_path, warm, fmt))
        with monkeypatch.context() as patched:
            patched.setattr(ingest, "parse_csv", _no_parse)
            _run_chain(capsys, _chain(players_csv, membership_csv, tmp_path, warm, fmt))
        _run_chain(capsys, _chain(players_csv, membership_csv, tmp_path, cold, fmt))
        assert sorted(_files(warm)) == _chain_files(fmt)
        assert _files(warm) == _files(cold)

    def _like_fresh(self, capsys, tmp_path, argv: list[str], output: str) -> None:
        """``argv`` writes the same ``output`` and cache into ``out``, which
        holds the cache of another table, as into a fresh directory."""
        for name in ("out", "fresh"):
            code, err = run(capsys, *argv, "--out", str(tmp_path / name))
            assert (code, err) == (0, ""), name
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for name in (output, CACHE, RECORD):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def _fit(self, capsys, players: Path, out: Path, *extra: str) -> None:
        code, err = run(capsys, "fit", "--input", str(players), "--out", str(out), *extra)
        assert (code, err) == (0, "")

    def test_input_rewritten_in_place_at_the_same_size(self, players_csv, tmp_path, capsys):
        # with its old modification time put back, as `touch -r` does
        out = tmp_path / "out"
        _settle(players_csv)
        self._fit(capsys, players_csv, out)
        before = players_csv.stat()
        text = players_csv.read_text(encoding="utf-8")
        players_csv.write_text(text.replace("Player 01", "Player 0A"), encoding="utf-8")
        os.utime(players_csv, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert players_csv.stat().st_size == before.st_size
        argv = ["scores", "--input", str(players_csv), "--model", str(out / "model.json")]
        self._like_fresh(capsys, tmp_path, argv, "scores.csv")
        assert "Player 0A" in (out / "scores.csv").read_text(encoding="utf-8")

    def test_other_min_games(self, players_csv, tmp_path, capsys):
        self._fit(capsys, players_csv, tmp_path / "out")
        argv = ["scree", "--input", str(players_csv), "--min-games", "60"]
        self._like_fresh(capsys, tmp_path, argv, "scree.csv")

    @pytest.mark.parametrize(
        "first, then",
        [
            ({}, {"column_mode": "rate-only", "excluded_column_patterns": ["speed_*"]}),
            (
                {"column_mode": "rate-only", "excluded_column_patterns": ["speed_*"]},
                {"column_mode": "rate-only", "excluded_column_patterns": ["pts_*"]},
            ),
        ],
        ids=["column-mode", "patterns"],
    )
    def test_other_column_policy(self, players_csv, tmp_path, capsys, first, then):
        for name, doc in (("first", first), ("then", then)):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        self._fit(capsys, players_csv, tmp_path / "out", "--config", str(tmp_path / "first.json"))
        argv = ["scree", "--input", str(players_csv), "--config", str(tmp_path / "then.json")]
        self._like_fresh(capsys, tmp_path, argv, "scree.csv")

    def test_other_schema(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        self._fit(capsys, players_csv, out)
        config = tmp_path / "config.json"
        schema = ["player_name", "player_id", "team", "games_played", "minutes"]
        config.write_text(json.dumps({"schema": schema}), encoding="utf-8")
        argv = ["scores", "--input", str(players_csv), "--model", str(out / "model.json")]
        self._like_fresh(capsys, tmp_path, [*argv, "--config", str(config)], "scores.csv")
        assert read_rows(out / "scores.csv")[1][:2] == ["Player 01", "p01"]

    def test_source_edit_misses_the_caches_readme_names(self, tmp_path, monkeypatch):
        # README: an edit to the sources that parse the file, build the table
        # or read and write the caches misses both caches; one to pca.py,
        # only the projection cache; one to any other source, neither
        copy = tmp_path / "statspace"
        package = Path(cache.__file__).parent
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(cache, "_HERE", copy)

        def keys():
            table = cache.table_key(ingest.DEFAULT_SCHEMA, ingest.FilterPolicy(), "players")
            return table, cache.scores_key(table, b"model")

        table_sources = {"ingest.py", "table.py", "files.py", "cache.py"}
        for source in sorted(copy.glob("*.py")):
            before = keys()
            with source.open("a", encoding="utf-8") as fh:
                fh.write("# an edit\n")
            misses = [now != then for now, then in zip(keys(), before)]
            table_miss = source.name in table_sources
            assert misses == [table_miss, table_miss or source.name == "pca.py"], source.name

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated",
            "garbage",
            "wrong-shape",
            "wrong-type",
            "wrong-layout",
            "trailing",
            "non-finite",
            "empty",
            "flipped",
        ],
    )
    def test_damaged_cache_is_a_miss_and_rewritten(self, players_csv, tmp_path, capsys, damage):
        out = tmp_path / "out"
        self._fit(capsys, players_csv, out)
        good, scree = (out / CACHE).read_bytes(), (out / "scree.csv").read_bytes()
        last = _last_value(good)
        records = ingest.apply_filter(ingest.parse_csv(players_csv), ingest.FilterPolicy())
        values = ingest.build_table(records).values
        assert good[last : last + 8] == values[-1, -1].tobytes()
        flipped = bytearray(good)
        flipped[last + 5] ^= 0x10  # a value's bits, in a file of the right layout
        damaged = {
            "flipped": bytes(flipped),
            "truncated": good[: len(good) // 2],
            "garbage": bytes(range(256)) * 8,
            "wrong-shape": _revalued(good, values.tobytes()[:-8]),  # one float short of n x p
            "wrong-type": _revalued(good, values.astype(np.float32).tobytes()),
            "wrong-layout": _relaid(good),
            "trailing": _resealed(good + bytes(64)),
            "non-finite": good[:last] + np.float64(np.inf).tobytes() + good[last + 8 :],
            "empty": b"",
        }[damage]
        assert damaged != good
        (out / CACHE).write_bytes(damaged)
        (out / "scree.csv").unlink()
        code, err = run(capsys, "scree", "--input", str(players_csv), "--out", str(out))
        assert (code, err) == (0, "")
        assert (out / "scree.csv").read_bytes() == scree
        assert (out / CACHE).read_bytes() == good

    def test_cache_that_cannot_be_written(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        (out / CACHE).mkdir(parents=True)
        self._fit(capsys, players_csv, out)
        self._fit(capsys, players_csv, tmp_path / "fresh")
        assert (out / CACHE).is_dir()
        for name in ("model.json", "scree.csv"):
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_kept_by_a_command_that_fails_after_the_build(
        self, players_csv, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "out"
        fails(capsys, 2, "fit", "--input", str(players_csv), "--out", str(out), "--k", "7")
        assert sorted(p.name for p in out.iterdir()) == [RECORD, CACHE]
        monkeypatch.setattr(ingest, "parse_csv", _no_parse)
        code, err = run(capsys, "scree", "--input", str(players_csv), "--out", str(out))
        assert (code, err) == (0, "")

    def test_players_file_read_once_per_command(
        self, players_csv, tmp_path, capsys, monkeypatch
    ):
        # the key and the parse read the same bytes: a file changed between
        # two reads would have its new table cached under the old key; and a
        # hit keys from the digest recorded beside the caches, opening the
        # file not at all, unless the record is gone
        opened = _count_opens(monkeypatch)
        out = tmp_path / "out"
        _settle(players_csv)
        for command, count in (("fit", 1), ("scree", 0), ("no record", 1), ("scree", 0)):
            if command == "no record":
                (out / RECORD).unlink()
                command = "scree"
            opened.clear()
            code, err = run(capsys, command, "--input", str(players_csv), "--out", str(out))
            assert (code, err) == (0, "")
            assert opened.count(str(players_csv)) == count, command

    def test_each_file_read_once_per_command(self, players_csv, tmp_path, capsys, monkeypatch):
        # a cache is looked up with one read, hit or miss, and the players
        # file is read at most once, even where its record is gone and the
        # table cache then proves damaged
        out = tmp_path / "out"
        model = out / "model.json"
        _settle(players_csv)
        opened = _count_opens(monkeypatch, reads_only=True)
        scores = ["scores", "--model", str(model)]
        states = (
            ("cold fit", ["fit"], 1),
            ("warm scree", ["scree"], 0),
            ("warm scores", scores, 0),
            ("no projection", scores, 0),
            ("no record, damaged table", ["scree"], 1),
        )
        for state, argv, players_reads in states:
            if state == "no projection":
                (out / SCORES).unlink()
            elif state == "no record, damaged table":
                (out / RECORD).unlink()
                damaged = bytearray((out / CACHE).read_bytes())
                damaged[damaged.index(b"\n") + 1] ^= 0x01
                (out / CACHE).write_bytes(damaged)
            opened.clear()
            code, err = run(capsys, *argv, "--input", str(players_csv), "--out", str(out))
            assert (code, err) == (0, ""), state
            assert opened.count(str(players_csv)) == players_reads, state
            for path in (out / CACHE, out / SCORES, out / RECORD, model):
                assert opened.count(str(path)) <= 1, (state, path.name)

    @pytest.mark.parametrize("change", ["in-place", "rename"])
    def test_players_file_changed_at_the_same_size(self, players_csv, tmp_path, capsys, change):
        # a rewrite through the same inode, and another file renamed onto
        # the path with the old modification time, both at the same size
        out = tmp_path / "out"
        _settle(players_csv)
        self._fit(capsys, players_csv, out)
        before = players_csv.stat()
        text = players_csv.read_text(encoding="utf-8").replace("Player 01", "Player 0A")
        if change == "in-place":
            players_csv.write_text(text, encoding="utf-8")
        else:
            other = tmp_path / "other.csv"
            other.write_text(text, encoding="utf-8")
            os.utime(other, ns=(before.st_atime_ns, before.st_mtime_ns))
            os.replace(other, players_csv)
        assert players_csv.stat().st_size == before.st_size
        argv = ["scores", "--input", str(players_csv), "--model", str(out / "model.json")]
        self._like_fresh(capsys, tmp_path, argv, "scores.csv")
        assert "Player 0A" in (out / "scores.csv").read_text(encoding="utf-8")

    def test_racily_clean_players_file_is_read(
        self, players_csv, tmp_path, capsys, monkeypatch
    ):
        # A file rewritten within the timestamp step in which its digest was
        # recorded keeps all five fields the record holds. Such a record is
        # forged here: the old digest beside the rewritten file's fields.
        out = tmp_path / "out"
        _settle(players_csv)
        self._fit(capsys, players_csv, out)
        digest = (out / RECORD).read_text(encoding="utf-8").split(" ")[0]
        text = players_csv.read_text(encoding="utf-8").replace("Player 01", "Player 0A")
        players_csv.write_text(text, encoding="utf-8")
        now = players_csv.stat()
        step = max(now.st_mtime_ns, now.st_ctime_ns)
        opened = _count_opens(monkeypatch)
        argv = ["scores", "--input", str(players_csv), "--model", str(out / "model.json")]
        # written one nanosecond after the file's last change, the record is
        # trusted, and the scores cached for the old bytes are a hit
        _forge_record(out / RECORD, digest, now, written_ns=step + 1)
        assert run(capsys, *argv, "--out", str(out)) == (0, "")
        assert opened.count(str(players_csv)) == 0
        assert "Player 0A" not in (out / "scores.csv").read_text(encoding="utf-8")
        # written in the same step, it is not
        _forge_record(out / RECORD, digest, now, written_ns=step)
        self._like_fresh(capsys, tmp_path, argv, "scores.csv")
        assert "Player 0A" in (out / "scores.csv").read_text(encoding="utf-8")

    def test_whole_second_times_need_two_seconds(self, players_csv, tmp_path, capsys, monkeypatch):
        # a whole-second modification time marks a file system with coarse times
        out = tmp_path / "out"
        whole = (time.time_ns() // 10**9 - 60) * 10**9
        os.utime(players_csv, ns=(whole, whole))
        _settle(players_csv)
        self._fit(capsys, players_csv, out)
        now = players_csv.stat()
        assert now.st_mtime_ns == whole
        digest = (out / RECORD).read_text(encoding="utf-8").split(" ")[0]
        opened = _count_opens(monkeypatch)
        step = max(now.st_mtime_ns, now.st_ctime_ns)
        for written_ns, count in ((step + 10**9, 1), (step + 2 * 10**9, 0)):
            _forge_record(out / RECORD, digest, now, written_ns=written_ns)
            opened.clear()
            assert run(capsys, "scree", "--input", str(players_csv), "--out", str(out)) == (0, "")
            assert opened.count(str(players_csv)) == count, written_ns

    @pytest.mark.parametrize(
        "damage", ["truncated", "garbage", "empty", "flipped", "foreign", "directory"]
    )
    def test_damaged_or_foreign_record_is_a_miss(
        self, players_csv, tmp_path, capsys, monkeypatch, damage
    ):
        out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
        foreign = tmp_path / "foreign.csv"  # the same bytes, another file
        foreign.write_bytes(players_csv.read_bytes())
        for path in (players_csv, foreign):
            _settle(path)
        self._fit(capsys, players_csv, out)
        self._fit(capsys, foreign, elsewhere)
        good, scree = (out / RECORD).read_bytes(), (out / "scree.csv").read_bytes()
        flipped = bytearray(good)
        flipped[3] ^= 0x01  # a hex digit of the digest, in a record of the right layout
        (out / RECORD).unlink()
        if damage == "directory":
            (out / RECORD).mkdir()
        else:
            (out / RECORD).write_bytes(
                {
                    "truncated": good[: len(good) // 2],
                    "garbage": bytes(range(256)),
                    "empty": b"",
                    "flipped": bytes(flipped),
                    "foreign": (elsewhere / RECORD).read_bytes(),
                }[damage]
            )
        (out / "scree.csv").unlink()
        opened = _count_opens(monkeypatch)
        monkeypatch.setattr(ingest, "parse_csv", _no_parse)  # the table is still cached
        assert run(capsys, "scree", "--input", str(players_csv), "--out", str(out)) == (0, "")
        assert opened.count(str(players_csv)) == 1
        assert (out / "scree.csv").read_bytes() == scree
        if damage != "directory":
            assert (out / RECORD).read_bytes() == good

    def test_players_file_changed_while_read_is_not_recorded(
        self, players_csv, tmp_path, capsys, monkeypatch
    ):
        real_read_all = files.read_all

        def read_then_change(stream):
            data = real_read_all(stream)
            os.utime(players_csv, ns=(10**9 + 1, 10**9 + 1))  # a new ctime too
            return data

        monkeypatch.setattr(files, "read_all", read_then_change)
        out = tmp_path / "out"
        self._fit(capsys, players_csv, out)
        assert (out / CACHE).exists() and not (out / RECORD).exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_players_from_a_pipe_are_read_once_and_cached(self, players_csv, tmp_path, capsys):
        # one read of the pipe serves the key and the parse, which must not
        # wait for a writer that never comes; the pipe is cached by its
        # content, as the file of its bytes is, but has nothing to record
        out = tmp_path / "out"
        with _fifo(tmp_path / "players.pipe", players_csv.read_bytes()) as pipe:
            done = _python("-m", "statspace.cli", "fit", "--input", str(pipe), "--out", str(out))
        assert (done.returncode, done.stderr) == (0, "")
        assert sorted(p.name for p in out.iterdir()) == [SCORES, CACHE, "model.json", "scree.csv"]
        self._fit(capsys, players_csv, tmp_path / "file")
        for name in (SCORES, CACHE, "model.json", "scree.csv"):
            assert (out / name).read_bytes() == (tmp_path / "file" / name).read_bytes(), name


@contextlib.contextmanager
def _fifo(path: Path, data: bytes) -> Iterator[Path]:
    """A named pipe made at ``path``, which a thread feeds ``data`` once a
    reader opens it; by the block's end, the feed must have ended."""
    os.mkfifo(path)
    feed = threading.Thread(target=path.write_bytes, args=(data,))
    feed.daemon = True  # a reader that never opens the pipe leaves it waiting
    feed.start()
    yield path
    feed.join(timeout=10)
    assert not feed.is_alive()


class TestProjectionCache:
    """``fit`` and every subcommand that projects the players keep the
    projection in --out; a later subcommand there with the same players
    file, config and model file reads it instead of parsing and projecting."""

    def _spy(self, monkeypatch) -> list[str]:
        """The names of the pca functions called from now on."""
        calls: list[str] = []
        for name in ("load_model", "transform"):
            real = getattr(pca, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(pca, name, spy)
        return calls

    def _fit(self, capsys, players: Path, out: Path, *extra: str) -> None:
        code, err = run(capsys, "fit", "--input", str(players), "--out", str(out), *extra)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_hit_reads_no_model_table_or_players_parse(
        self, players_csv, membership_csv, tmp_path, capsys, monkeypatch, fmt
    ):
        out = tmp_path / "out"
        argvs = _chain(players_csv, membership_csv, tmp_path, out, fmt)
        _run_chain(capsys, argvs)
        before = _files(out)
        for name in [n for n in before if not n.startswith(".")]:
            (out / name).unlink()
        (out / "model.json").write_bytes(before["model.json"])
        calls = self._spy(monkeypatch)
        monkeypatch.setattr(ingest, "parse_csv", _no_parse)
        monkeypatch.setattr(cache.Store, "table", _no_parse)
        _run_chain(capsys, argvs[2:])  # scores, teams, similar, regress
        assert calls == []
        after = _files(out)
        assert {name: after[name] for name in after if name != f"scree.{fmt}"} == {
            name: before[name] for name in before if name != f"scree.{fmt}"
        }

    def _like_fresh(self, capsys, monkeypatch, tmp_path, argv: list[str]) -> None:
        """``argv`` projects the players again in ``out``, and writes the
        scores and projection it writes into a fresh directory."""
        calls = self._spy(monkeypatch)
        for name in ("out", "fresh"):
            calls.clear()
            code, err = run(capsys, *argv, "--out", str(tmp_path / name))
            assert (code, err) == (0, ""), name
            assert calls == ["load_model", "transform"], name
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for name in ("scores.csv", SCORES):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def _scores(self, players_csv: Path, model: Path) -> list[str]:
        return ["scores", "--input", str(players_csv), "--model", str(model)]

    def test_other_model_file(self, players_csv, tmp_path, capsys, monkeypatch):
        out, other = tmp_path / "out", tmp_path / "other"
        self._fit(capsys, players_csv, out)
        self._fit(capsys, players_csv, other, "--k", "3")
        argv = self._scores(players_csv, other / "model.json")
        self._like_fresh(capsys, monkeypatch, tmp_path, argv)
        assert read_rows(tmp_path / "out" / "scores.csv")[0][-1] == "PC3"

    def test_model_rewritten_in_place(self, players_csv, tmp_path, capsys, monkeypatch):
        out, other = tmp_path / "out", tmp_path / "other"
        self._fit(capsys, players_csv, out)
        self._fit(capsys, players_csv, other, "--k", "3")
        model = out / "model.json"
        before = model.stat()
        model.write_bytes((other / "model.json").read_bytes())
        os.utime(model, ns=(before.st_atime_ns, before.st_mtime_ns))
        self._like_fresh(capsys, monkeypatch, tmp_path, self._scores(players_csv, model))
        assert read_rows(out / "scores.csv")[0][-1] == "PC3"

    def test_model_replaced_after_fit_wrote_it(self, players_csv, tmp_path, capsys, monkeypatch):
        # fit keys its projection by the bytes it wrote, so another model
        # put in their place at once does not take that projection
        out, other = tmp_path / "out", tmp_path / "other"
        self._fit(capsys, players_csv, other, "--k", "3")
        replacement = (other / "model.json").read_bytes()
        save_model = pca.save_model

        def save_then_replace(model, destination):
            written = save_model(model, destination)
            Path(destination).write_bytes(replacement)
            return written

        monkeypatch.setattr(pca, "save_model", save_then_replace)
        self._fit(capsys, players_csv, out)
        argv = self._scores(players_csv, out / "model.json")
        self._like_fresh(capsys, monkeypatch, tmp_path, argv)
        assert read_rows(out / "scores.csv")[0][-1] == "PC3"

    def test_cold_fit_opens_the_model_once_to_write_it(
        self, players_csv, tmp_path, capsys, monkeypatch
    ):
        opened = _count_opens(monkeypatch)
        self._fit(capsys, players_csv, tmp_path / "out")
        models = [Path(path).name for path in opened if "model.json" in Path(path).name]
        assert len(models) == 1 and models[0].startswith(".model.json."), models  # the new file

    def test_other_config(self, players_csv, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        self._fit(capsys, players_csv, out, "--min-games", "0")
        model = tmp_path / "model.json"
        model.write_bytes((out / "model.json").read_bytes())
        self._like_fresh(capsys, monkeypatch, tmp_path, self._scores(players_csv, model))

    def test_other_numpy(self, players_csv, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        self._fit(capsys, players_csv, out)
        model = tmp_path / "model.json"
        model.write_bytes((out / "model.json").read_bytes())
        monkeypatch.setattr(cache, "_numpy_identity", lambda: "another numpy")
        self._like_fresh(capsys, monkeypatch, tmp_path, self._scores(players_csv, model))

    def test_other_byte_order(self, players_csv, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        self._fit(capsys, players_csv, out)
        model = tmp_path / "model.json"
        model.write_bytes((out / "model.json").read_bytes())
        other = {"little": "big", "big": "little"}[sys.byteorder]
        monkeypatch.setattr(cache.sys, "byteorder", other)
        self._like_fresh(capsys, monkeypatch, tmp_path, self._scores(players_csv, model))

    @pytest.mark.parametrize(
        "damage", ["truncated", "garbage", "empty", "flipped", "wrong-layout", "fewer-names"]
    )
    def test_damaged_projection_is_a_miss_and_rewritten(
        self, players_csv, tmp_path, capsys, monkeypatch, damage
    ):
        out = tmp_path / "out"
        self._fit(capsys, players_csv, out)
        argv = [*self._scores(players_csv, out / "model.json"), "--out", str(out)]
        assert run(capsys, *argv) == (0, "")
        good, scores = (out / SCORES).read_bytes(), (out / "scores.csv").read_bytes()
        last = _last_value(good)
        score = float(read_rows(out / "scores.csv")[-1][-1])
        assert good[last : last + 8] == np.float64(score).tobytes()
        flipped = bytearray(good)
        flipped[last + 5] ^= 0x10  # a score's bits, in a file of the right layout
        damaged = {
            "truncated": good[: len(good) // 2],
            "garbage": bytes(range(256)) * 8,
            "empty": b"",
            "flipped": bytes(flipped),
            "wrong-layout": _relaid(good),
            "fewer-names": _fewer_names(good),
        }[damage]
        (out / SCORES).write_bytes(damaged)
        (out / "scores.csv").unlink()
        calls = self._spy(monkeypatch)
        assert run(capsys, *argv) == (0, "")
        assert calls == ["load_model", "transform"]
        assert (out / "scores.csv").read_bytes() == scores
        assert (out / SCORES).read_bytes() == good

    def test_written_by_fit_as_a_miss_writes_it(self, players_csv, tmp_path, capsys):
        fit, miss = tmp_path / "fit", tmp_path / "miss"
        self._fit(capsys, players_csv, fit)
        listing = [RECORD, SCORES, CACHE, "model.json", "scree.csv"]
        assert sorted(p.name for p in fit.iterdir()) == listing
        miss.mkdir()
        (miss / "model.json").write_bytes((fit / "model.json").read_bytes())
        argv = self._scores(players_csv, miss / "model.json")
        assert run(capsys, *argv, "--out", str(miss)) == (0, "")
        assert (miss / SCORES).read_bytes() == (fit / SCORES).read_bytes()

    def test_scree_writes_none(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(capsys, "scree", "--input", str(players_csv), "--out", str(out)) == (0, "")
        assert sorted(p.name for p in out.iterdir()) == [RECORD, CACHE, "scree.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_players_from_a_pipe_hit_the_projection_fit_kept(
        self, players_csv, tmp_path, capsys
    ):
        # scores fed the bytes fit was fed, through a new pipe, keys them
        # alike: it reads the pipe once and neither parses nor projects
        out, data = tmp_path / "out", players_csv.read_bytes()
        with _fifo(tmp_path / "fit.pipe", data) as pipe:
            done = _python("-m", "statspace.cli", "fit", "--input", str(pipe), "--out", str(out))
        assert (done.returncode, done.stderr) == (0, "")
        script = textwrap.dedent(
            """
            import sys
            from statspace import cli, ingest, pca

            def refused(*args, **kwargs):
                raise AssertionError("the players were parsed or projected")

            ingest.parse_csv = pca.transform = refused
            sys.exit(cli.main(sys.argv[1:]))
            """
        )
        with _fifo(tmp_path / "scores.pipe", data) as pipe:
            argv = ["scores", "--input", str(pipe), "--model", str(out / "model.json")]
            done = _python("-c", script, *argv, "--out", str(out))
        assert (done.returncode, done.stderr) == (0, "")
        assert RECORD not in {p.name for p in out.iterdir()}
        argv[2] = str(players_csv)
        assert run(capsys, *argv, "--out", str(tmp_path / "file")) == (0, "")
        assert (out / "scores.csv").read_bytes() == (tmp_path / "file" / "scores.csv").read_bytes()

    @pytest.mark.parametrize("cached", [True, False], ids=["hit", "miss"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["similar", "--query", "p01", "--components", "2,5"],
                "--components numbers [5] out of range for k=4",
            ),
            (
                ["teams", "--membership", "m.csv", "--weights", "2=1,5=1"],
                "--weights numbers [5] out of range for k=4",
            ),
        ],
        ids=["components", "weights"],
    )
    def test_components_beyond_the_cached_k(
        self, players_csv, tmp_path, capsys, monkeypatch, argv, message, cached
    ):
        out = tmp_path / "out"
        self._fit(capsys, players_csv, out)
        (tmp_path / "m.csv").write_text("p01,ATL\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        if cached:
            monkeypatch.setattr(pca, "load_model", _no_parse)
        else:
            (out / SCORES).unlink()
        monkeypatch.setattr(ingest, "parse_csv", _no_parse)
        diagnostic = fails(
            capsys, 2,
            *argv, "--input", str(players_csv), "--model", str(out / "model.json"),
            "--out", str(out),
        )
        assert diagnostic == {"error": message, "category": "usage", "exit_code": 2}


def _python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """``python args...`` in a fresh process that imports this statspace,
    with stdout buffered as it is by default."""
    src = str(Path(statspace.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, *args],
        env={**env, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, **kwargs,
    )


class TestProcessEntry:
    """``python -m statspace.cli`` ends through ``cli.console_main``."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chain_writes_the_bytes_of_main(
        self, players_csv, membership_csv, tmp_path, capsys, fmt
    ):
        in_process, processes = tmp_path / "in-process", tmp_path / "processes"
        _run_chain(capsys, _chain(players_csv, membership_csv, tmp_path, in_process, fmt))
        for argv in _chain(players_csv, membership_csv, tmp_path, processes, fmt):
            done = _python("-m", "statspace.cli", *argv)
            assert (done.returncode, done.stdout, done.stderr) == (0, "", ""), argv[0]
        outputs = [_files(out) for out in (in_process, processes)]
        assert sorted(outputs[0]) == _chain_files(fmt)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["fit", "--bogus"], 2, "unrecognized arguments: --bogus"),
            (["fit", "--input", "nope.csv"], 3, "players file not found: nope.csv"),
            (
                ["scores", "--input", "players.csv", "--model", "tiny.json"],
                4, "standardization overflows to a non-finite value",
            ),
        ],
        ids=["unknown-flag", "missing-input", "overflowing-model"],
    )
    def test_failure_is_one_json_line(self, players_csv, tmp_path, capsys, argv, code, message):
        fitted = tmp_path / "fitted"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(fitted))[0] == 0
        doc = json.loads((fitted / "model.json").read_text(encoding="utf-8"))
        doc["standardization"]["std_devs"] = [5e-324] * len(STATS)  # positive, so it loads
        (tmp_path / "tiny.json").write_text(json.dumps(doc), encoding="utf-8")
        done = _python("-m", "statspace.cli", *argv, "--out", str(tmp_path / "out"), cwd=tmp_path)
        diagnostic = failure(code, done.returncode, done.stdout, done.stderr)
        assert diagnostic["error"].startswith(message)

    def test_warning_reaches_stderr(self, players_csv, membership_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0
        lines = membership_csv.read_text(encoding="utf-8").splitlines()
        membership_csv.write_text(
            "\n".join(line for line in lines if not line.startswith("p02,")) + "\n",
            encoding="utf-8",
        )
        done = _python(
            "-m", "statspace.cli", "teams", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--membership", str(membership_csv), "--out", str(out),
        )
        assert done.returncode == 0
        assert "players without team membership, excluded: ['p02']" in done.stderr

    def test_help_prints_the_whole_text(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        done = _python("-m", "statspace.cli", "--help")
        assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")

    @pytest.mark.parametrize(
        "case, out, err",
        [
            ("open", "out", "err"),  # flushed, and teardown skipped
            ("main-closes-stdout", "", "err atexit"),  # the flush fails: usual exit
            ("fd-1-closed", "", "err"),  # no sys.stdout at all
        ],
        ids=["open", "main-closes-stdout", "fd-1-closed"],
    )
    def test_flushes_then_ends_at_once(self, case, out, err):
        script = textwrap.dedent(
            """
            import atexit, sys
            from statspace import cli

            def main():
                if sys.argv[1] == "main-closes-stdout":
                    sys.stdout.close()
                elif sys.stdout is not None:
                    print("out", end="")
                print("err", end="", file=sys.stderr)
                return 3

            atexit.register(lambda: print(" atexit", end="", file=sys.stderr))
            cli.main = main
            cli.console_main()
            """
        )
        # a descriptor closed in the child before it starts Python
        closed = {"preexec_fn": lambda: os.close(1)} if case == "fd-1-closed" else {}
        done = _python("-c", script, case, **closed)
        assert (done.returncode, done.stdout, done.stderr) == (3, out, err)


class TestTracedChain:
    """The benchmark's traced run (``perfbench/workloads.py``) rebinds
    library functions by name, so a program change that renames one, or
    stops calling it through its module, would leave its spans uncounted."""

    # Spans of each wrapped name, and the calls counted, in the fixture chain
    # run once in CSV and once in JSON. fit projects the players through
    # transform and keeps their scores, so no later subcommand loads the
    # model or projects.
    SPANS = {
        "ingest.parse_csv": 2, "ingest.apply_filter": 2, "ingest.build_table": 2,
        "pca.standardize": 4, "pca.fit_pca": 2, "pca.component_spectrum": 4,
        "pca.transform": 2, "pca.load_model": 0, "pca.save_model": 2,
        "scoring.load_membership": 4, "scoring.load_win_pct": 4, "scoring.team_scores": 4,
        "scoring.regression_weighted_score": 2, "similarity.rank_similar": 2,
        "similarity.emit": 2, "regression.fit_ols": 2, "regression.emit": 4,
    }
    COUNTS = {
        "ingest.parse_calls": 2, "ingest.rows_parsed": 40, "ingest.rows_kept": 34,
        "ingest.cells_parsed": 440, "pca.eigendecompositions": 6,
        "similarity.pairs_evaluated": 32, "regression.t_cdf_calls": 10,
    }

    def test_every_wrapped_name_is_called_as_before(
        self, players_csv, membership_csv, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import spans
        import workloads

        tracer = spans.Tracer()
        with spans.installed(workloads.layer_patches(tracer)):  # every name must exist
            for fmt in ("csv", "json"):
                out = tmp_path / fmt
                _run_chain(capsys, _chain(players_csv, membership_csv, tmp_path, out, fmt))
        seen = collections.Counter(span.name for span in tracer.spans)
        assert {name: seen[name] for name in workloads.SPANS if name != "cli.main"} == self.SPANS
        assert tracer.counts == self.COUNTS


class TestColdStart:
    @staticmethod
    def _chain_imports_nothing_else(players_csv, membership_csv, tmp_path, fmt):
        # a fresh process whose first finder records, and refuses, every
        # import from outside the standard library, numpy and statspace; so
        # a module the chain loads without needing it (scipy, say) is caught
        # as surely as one it needs
        argvs = _chain(players_csv, membership_csv, tmp_path, tmp_path / "out", fmt)
        assert [argv[0] for argv in argvs] == [
            "fit", "scree", "scores", "teams", "similar", "regress"
        ]
        script = textwrap.dedent(
            """
            import importlib.abc, json, sys

            class Refuse(importlib.abc.MetaPathFinder):
                # org: copy and pickle look for Jython's org.python.core
                allowed = sys.stdlib_module_names | {"numpy", "statspace", "org"}
                names = []

                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] not in self.allowed:
                        self.names.append(name)
                        raise ImportError(f"{name} is refused")

            sys.meta_path.insert(0, Refuse())
            from statspace import cli
            codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
            print(json.dumps([codes, Refuse.names]))
            """
        )
        done = _python("-c", script, json.dumps(argvs))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [[0] * len(argvs), []]

    def test_no_subcommand_loads_scipy(self, players_csv, membership_csv, tmp_path):
        self._chain_imports_nothing_else(players_csv, membership_csv, tmp_path, "csv")

    def test_no_subcommand_needs_scipy(self, players_csv, membership_csv, tmp_path):
        self._chain_imports_nothing_else(players_csv, membership_csv, tmp_path, "json")

        src = Path(statspace.__file__).resolve().parents[1]
        pyproject = (src.parent / "pyproject.toml").read_text(encoding="utf-8")
        runtime = re.search(r"^\[project\]$.*?^dependencies = \[(.*?)\]", pyproject, re.M | re.S)
        assert "numpy" in runtime.group(1) and "scipy" not in runtime.group(1)
        # the console script ends its process as `python -m statspace.cli` does
        scripts = re.search(r"^\[project\.scripts\]$\n(.*?)$", pyproject, re.M)
        assert scripts.group(1) == 'statspace = "statspace.cli:console_main"'

    def test_import_statspace_leaves_numpy_unimported(self):
        done = _python("-c", "import sys, statspace; print('numpy' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["False"]

    @pytest.mark.parametrize(
        "case, code",
        [("import", None), ("help", 0), ("usage-error", 2), ("scores", 0), ("similar", 0)],
    )
    def test_leaves_numpy_unimported(
        self, players_csv, membership_csv, tmp_path, capsys, case, code
    ):
        # scores and similar on a warm --out read the projection cached there
        out = tmp_path / "out"
        chain = _chain(players_csv, membership_csv, tmp_path, out, "csv")
        argvs = {argv[0]: argv for argv in chain}
        _run_chain(capsys, argvs.values())
        argv = {
            "import": None,
            "help": ["--help"],
            "usage-error": ["fit", "--bogus"],
            "scores": argvs["scores"],
            "similar": argvs["similar"],
        }[case]
        script = textwrap.dedent(
            """
            import contextlib, io, json, sys
            from statspace import cli
            code = None
            argv = json.loads(sys.argv[1])
            if argv is not None:
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        code = cli.main(argv)
                    except SystemExit as stop:
                        code = stop.code
            numpy = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
            print(json.dumps([code, numpy]))
            """
        )
        written = _files(out)
        done = _python("-c", script, json.dumps(argv))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [code, []]
        assert _files(out) == written

    def test_scores_from_a_memoryview_need_no_numpy(self):
        # a fresh process in which any numpy import fails builds the scores
        # as the projection cache gives them, and ranks them
        script = textwrap.dedent(
            """
            import importlib.abc, json, sys
            from array import array

            class NoNumpy(importlib.abc.MetaPathFinder):
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "numpy":
                        raise ImportError(f"{name} is blocked")

            sys.meta_path.insert(0, NoNumpy())
            from statspace import StatTable, rank_similar
            cells = memoryview(array("d", [0.0, 0.0, 1.0, 0.0, 0.0, 3.0]).tobytes())
            players = StatTable(
                ["q", "a", "b"], ["Q", "A", "B"], [1.0, 2.0, 3.0], ["PC1", "PC2"],
                cells.cast("d", (3, 2)),
            )
            ranking = rank_similar(players, "q", top=2)
            print(json.dumps([players.n_stats, players.values.tolist(), ranking.entries]))
            """
        )
        done = _python("-c", script)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [
            2, [[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]], [["a", 1.0], ["b", 9.0]]
        ]

    @pytest.mark.parametrize("command", ["fit", "scree", "teams", "regress"])
    def test_warm_hit_loads_no_dataclasses_or_parse_code(
        self, players_csv, membership_csv, tmp_path, capsys, command
    ):
        # a warm --out holds the table and the projection; these commands
        # compute from them with numpy, but need neither the parse nor
        # dataclasses, nor (but for fit and scree) the fitting code, and key
        # from the players file's record
        out = tmp_path / "out"
        _settle(players_csv)
        chain = _chain(players_csv, membership_csv, tmp_path, out, "csv")
        argvs = {argv[0]: argv for argv in chain}
        _run_chain(capsys, argvs.values())
        script = textwrap.dedent(
            """
            import builtins, json, sys
            from statspace import cli
            argv, players = json.loads(sys.argv[1]), sys.argv[2]
            real_open, opened = open, []
            def counting_open(file, *args, **kwargs):
                opened.append(str(file))
                return real_open(file, *args, **kwargs)
            builtins.open = counting_open
            code = cli.main(argv)
            unwanted = ("dataclasses", "statspace.ingest", "statspace.pca")
            loaded = sorted(m for m in unwanted if m in sys.modules)
            print(json.dumps([code, loaded, opened.count(players), "numpy" in sys.modules]))
            """
        )
        written = _files(out)
        done = _python("-c", script, json.dumps(argvs[command]), str(players_csv))
        assert done.returncode == 0, done.stderr
        fitting = ["statspace.pca"] if command in ("fit", "scree") else []
        assert json.loads(done.stdout.splitlines()[-1]) == [0, fitting, 0, True]
        assert _files(out) == written

    @pytest.mark.parametrize(
        "caller, numpy_first, want",
        [
            ({}, False, ["1", "1", "1"]),
            ({"OMP_NUM_THREADS": "2"}, False, [None, "2", None]),
            ({}, True, [None, None, None]),
        ],
        ids=["unset", "caller-set", "numpy-first"],
    )
    def test_cli_runs_blas_on_one_thread_unless_told(self, caller, numpy_first, want):
        # `python -m statspace.cli --help`, then the variables it left
        script = textwrap.dedent(
            """
            import json, os, runpy, sys
            numpy_first, names = sys.argv[1] == "True", json.loads(sys.argv[2])
            if numpy_first:
                import numpy
            sys.argv[1:] = ["--help"]
            try:
                runpy.run_module("statspace.cli", run_name="__main__", alter_sys=True)
            except SystemExit as stop:
                assert stop.code == 0, stop.code
            print(json.dumps([os.environ.get(name) for name in names]))
            """
        )
        names = list(cli.BLAS_THREAD_VARS)
        assert names == ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        env = {k: v for k, v in os.environ.items() if k not in names}
        src = str(Path(statspace.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, str(numpy_first), json.dumps(names)],
            env={**env, **caller, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "usage: statspace" in done.stdout
        assert json.loads(done.stdout.splitlines()[-1]) == want


class TestConfigFile:
    def test_config_supplies_flags_and_cli_wins(self, players_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "input": str(players_csv),
                    "out": str(tmp_path / "from_config"),
                    "k": 2,
                    "min_games": 41,
                }
            ),
            encoding="utf-8",
        )
        code, _ = run(capsys, "fit", "--config", str(config))
        assert code == 0
        model = pca.load_model(tmp_path / "from_config" / "model.json")
        assert model.k == 2

        code, _ = run(
            capsys, "fit", "--config", str(config), "--k", "3",
            "--out", str(tmp_path / "cli_wins"),
        )
        assert code == 0
        model = pca.load_model(tmp_path / "cli_wins" / "model.json")
        assert model.k == 3

    def test_unknown_config_key(self, players_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"mystery": 1}', encoding="utf-8")
        diagnostic = fails(
            capsys, 2, "fit", "--config", str(config),
            "--input", str(players_csv), "--out", str(tmp_path / "o"),
        )
        assert "mystery" in diagnostic["error"]

    @pytest.mark.parametrize("key", list(cli.FLAGS))
    def test_flag_and_config_key_resolve_alike(self, players_csv, tmp_path, key):
        # one subcommand that reads the flag; min_games and format every one reads
        command = next(
            (name for name, sub in cli.SUBCOMMANDS.items() if key in sub.needs + sub.reads),
            "fit",
        )
        path = str(players_csv)  # resolve_config only checks that the file is there
        values = {
            "input": path, "model": path, "min_games": 30, "k": 3, "components": "1,3",
            "top": 2, "query": "p01", "membership": path, "winpct": path,
            "weights": "2=0.5", "out": str(tmp_path / "o"), "format": "json",
        }
        needs = cli.SUBCOMMANDS[command].needs
        given = [arg for need in needs if need != key for arg in (f"--{need}", str(values[need]))]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: values[key]}), encoding="utf-8")

        def resolved(*argv):
            """The resolved config, its filter policy as its settings."""
            args = cli.build_parser(command).parse_args([command, *given, *argv])
            run_config = cli.resolve_config(args)
            return run_config._replace(filter=vars(run_config.filter))

        by_flag = resolved("--" + key.replace("_", "-"), str(values[key]))
        assert by_flag == resolved("--config", str(config))
        if key not in needs:
            assert by_flag != resolved()  # the value was read

    # Any JSON value, with the text and numbers most likely to slip through.
    json_values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.integers(min_value=-(2**70), max_value=2**70)
        | st.floats()
        | st.text(max_size=6)
        | st.sampled_from(["\0", "a\0b", "all", "rate-only", "json", "1,2", "2=0.5", "*_total"]),
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner),
        max_leaves=8,
    )

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        doc=st.dictionaries(
            st.sampled_from([*cli.FLAGS, *cli.CONFIG_ONLY, "mystery"]), json_values, max_size=4
        )
    )
    @example(doc={"out": "\0"})
    @example(doc={"schema": ["player_id", "player_name", "team", "games_played", "\0"]})
    def test_any_config_ends_in_a_documented_exit(self, players_csv, tmp_path, capsys, doc):
        """``fit`` on any config object exits 0, 2 or 3, with one JSON line on a failure."""
        out = tmp_path / "fuzz"
        argv = ["fit", "--input", str(players_csv)]
        if isinstance(doc.get("out"), str):  # kept under tmp_path, whatever its text
            doc["out"] = f"{out}/o{doc['out'].replace('/', '_')}"
        else:
            argv += ["--out", str(out / "o")]
        config = tmp_path / "fuzz.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code = main([*argv, "--config", str(config)])
        captured = capsys.readouterr()
        assert code in (0, 2, 3), captured.err
        if code:
            failure(code, code, captured.out, captured.err)


class TestModelFile:
    # Where a fitted model's document can be changed: each key, and the
    # first entry of each list, by its path from the document's root.
    FIELDS = [
        ("format_version",), ("n_samples",), ("total_variance",), ("standardization",),
        ("standardization", "stat_names"), ("standardization", "stat_names", 0),
        ("standardization", "means"), ("standardization", "means", 0),
        ("standardization", "std_devs"), ("standardization", "std_devs", 0),
        ("component_variances",), ("component_variances", 0),
        ("loadings",), ("loadings", 0), ("loadings", 0, 0), ("mystery",),
    ]
    MISSING = object()
    # Any JSON value, with the numbers most likely to slip through: huge
    # integers, floats at the ends of the range, and NaN and infinities,
    # which Python's json reads.
    model_values = st.just(MISSING) | st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**70), max_value=2**70)
        | st.sampled_from([10**400, -(2**63) - 1, 2**64, 1e308, -1e308, 5e-324, 0.0, 1.0])
        | st.floats()
        | st.text(max_size=6)
        | st.sampled_from(["\0", "pts_per48", "PC1"]),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner),
        max_leaves=8,
    )

    @staticmethod
    def _replace(doc, path, value) -> None:
        """Set (or, for MISSING, remove) the field at ``path`` in ``doc``,
        where an earlier change left it."""
        *parents, last = path
        try:
            for key in parents:
                doc = doc[key]
            if value is TestModelFile.MISSING:
                del doc[last]
            else:
                doc[last] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier change removed or replaced the field's container

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: doc.update(loadings=[row[:-1] for row in doc["loadings"]]),
             "loading length does not match stat_names"),
            (lambda doc: doc["component_variances"].pop(),
             "component_variances length does not match loadings"),
            (lambda doc: doc.update(total_variance=0), "total_variance must be positive"),
            (lambda doc: doc["loadings"].__setitem__(1, doc["loadings"][0]),
             "loading vectors must be pairwise orthogonal"),
            (lambda doc: doc["component_variances"].__setitem__(-1, -1.0),
             "component variances must be nonnegative"),
            (lambda doc: doc["component_variances"].reverse(),
             "component variances must be non-increasing"),
        ],
        ids=["loading-short", "variance-dropped", "total-zero", "loadings-repeated",
             "variance-negative", "variances-reversed"],
    )
    def test_inconsistent_shapes_are_data_errors(
        self, players_csv, tmp_path, capsys, change, message
    ):
        """A model whose fields disagree with each other fails ``scores``
        with exit 3 and writes no scores; one field's change at a time, as
        the fuzz below makes, never builds these."""
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out)) == (0, "")
        doc = json.loads((out / "model.json").read_text(encoding="utf-8"))
        change(doc)
        model = tmp_path / "changed.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        diagnostic = fails(
            capsys, 3,
            "scores", "--input", str(players_csv), "--model", str(model), "--out", str(out),
        )
        assert diagnostic["error"] == message
        assert not (out / "scores.csv").exists()

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        changes=st.lists(st.tuples(st.sampled_from(FIELDS), model_values), min_size=1, max_size=3)
    )
    @example(changes=[(("n_samples",), 10**400)])
    @example(changes=[(("loadings", 0, 0), 10**400)])
    @example(changes=[(("standardization", "means", 0), 1e308)])
    def test_any_model_ends_in_a_documented_exit(self, players_csv, tmp_path, capsys, changes):
        """``scores`` on a season model with any fields replaced or removed
        exits 0, 2, 3 or 4, never 1, with one JSON line on a failure."""
        out = tmp_path / "out"
        if not (out / "model.json").exists():  # one fit, whose table cache every run reads
            assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out)) == (0, "")
        doc = json.loads((out / "model.json").read_text(encoding="utf-8"))
        for path, value in changes:
            self._replace(doc, path, value)
        model = tmp_path / "changed.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        code = main(
            ["scores", "--input", str(players_csv), "--model", str(model), "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code in (0, 2, 3, 4), captured.err
        if code:
            failure(code, code, captured.out, captured.err)
        else:
            assert (captured.out, captured.err) == ("", "")



class TestDamagedFiles:
    """Any damage to a membership or win% file, a cache or the players
    file's record ends in a documented exit, and a damaged cache or record
    is a miss that writes a cold run's bytes."""

    MUTATIONS = ("truncate", "flip", "quote", "nul", "bom", "cr", "huge", "semicolon")
    INSERTED = {"quote": b'"', "nul": b"\0", "bom": b"\xef\xbb\xbf", "cr": b"\r"}
    INPUTS = ("membership.csv", "winpct.csv")  # beside --out; the other files are in it
    # the command that reads each file, and the output it writes
    READERS = {
        "membership.csv": ("teams", "teams.csv"),
        "winpct.csv": ("regress", "regression.csv"),
        CACHE: ("scree", "scree.csv"),
        SCORES: ("scores", "scores.csv"),
        RECORD: ("scores", "scores.csv"),
    }

    @classmethod
    def _mutated(cls, data: bytes, kind: str, at: int, payload: int) -> bytes:
        """``data`` with one ``kind`` of damage at or after ``at``, taken
        modulo its length; ``payload`` is a byte flip's mask, or a huge
        number's choice of text."""
        at %= len(data) + 1
        if kind == "truncate":
            return data[:at]
        if kind == "flip":
            at %= max(len(data), 1)
            return data[:at] + bytes(b ^ payload for b in data[at : at + 1]) + data[at + 1 :]
        if kind == "huge":  # in place of the next number, or inserted if none follows
            number = re.compile(rb"[0-9][0-9.]*").search(data, at)
            end = number.end() if number else at
            huge = (b"1e999", b"9" * 400, b"-1e308")[payload % 3]
            return data[: number.start() if number else at] + huge + data[end:]
        if kind == "semicolon":
            return data.replace(b",", b";")
        return data[:at] + cls.INSERTED[kind] + data[at:]

    @classmethod
    def _where(cls, tmp_path: Path, name: str) -> Path:
        return tmp_path / name if name in cls.INPUTS else tmp_path / "out" / name

    @pytest.fixture
    def cold(self, players_csv, membership_csv, tmp_path, capsys):
        """The argvs of a CSV chain into ``out``, and the bytes of the
        membership and win% files and of each file a cold run of it wrote."""
        chain = _chain(players_csv, membership_csv, tmp_path, tmp_path / "out", "csv")
        argvs = {argv[0]: argv for argv in chain}
        _settle(players_csv)  # so that the record is trusted
        _run_chain(capsys, argvs.values())
        inputs = {name: (tmp_path / name).read_bytes() for name in self.INPUTS}
        return argvs, _files(tmp_path / "out") | inputs

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        damage=st.lists(
            st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2**16), st.integers(1, 255)),
            min_size=1,
            max_size=2,
        )
    )
    @pytest.mark.parametrize("name", list(READERS))
    def test_ends_in_a_documented_exit(self, cold, tmp_path, capsys, name, damage):
        argvs, written = cold
        command, output = self.READERS[name]
        out = tmp_path / "out"
        for other, data in written.items():  # every file as the cold run left it
            self._where(tmp_path, other).write_bytes(data)
        data = written[name]
        for kind, at, payload in damage:
            data = self._mutated(data, kind, at, payload)
        self._where(tmp_path, name).write_bytes(data)
        (out / output).unlink()
        with warnings.catch_warnings(record=True) as held:
            warnings.simplefilter("always")
            code = main(argvs[command])
        captured = capsys.readouterr()
        assert captured.out == ""
        # a membership file that lost a player's row excludes the player
        excluded = "players without team membership, excluded: "
        assert all(str(w.message).startswith(excluded) for w in held), held
        assert not held or name == "membership.csv"
        if name.startswith("."):  # a miss, or a hit on the same contents
            assert (code, captured.err) == (0, "")
            assert (out / output).read_bytes() == written[output]
        elif code:
            assert code in (2, 3, 4), captured.err
            failure(code, code, captured.out, captured.err)
        else:
            assert captured.err == ""

class TestDamagedPlayersFile:
    """Any damage to the players file ends ``fit`` in a documented exit;
    where numpy's C pass reads the damaged bytes, it reads the table that
    the csv loop reads."""

    # damage to one row: a cell emptied or made n/a, the last cell dropped,
    # or the name quoted over two lines
    ROW_MUTATIONS = ("empty", "n/a", "short", "newline")
    MUTATIONS = TestDamagedFiles.MUTATIONS + ROW_MUTATIONS

    @classmethod
    def _mutated(cls, data: bytes, kind: str, at: int, payload: int) -> bytes:
        """``data`` with one ``kind`` of damage: a row mutation to line
        ``at`` and cell ``payload``, taken modulo their counts."""
        if kind not in cls.ROW_MUTATIONS:
            return TestDamagedFiles._mutated(data, kind, at, payload)
        lines = data.split(b"\n")
        cells = lines[at % len(lines)].split(b",")
        if kind == "short":
            cells = cells[:-1]
        elif kind == "newline":
            cells[min(1, len(cells) - 1)] = b'"Last\nFirst"'
        else:
            cells[payload % len(cells)] = b"" if kind == "empty" else b"n/a"
        lines[at % len(lines)] = b",".join(cells)
        return b"\n".join(lines)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        damage=st.lists(
            st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2**16), st.integers(1, 255)),
            min_size=1,
            max_size=2,
        )
    )
    @example(damage=[("empty", 2, 7)])  # a stat cell: the C pass declines, the build refuses
    @example(damage=[("n/a", 2, 7)])  # loadtxt refuses, the loop reads NaN
    @example(damage=[("short", 5, 1)])
    @example(damage=[("newline", 5, 1)])  # valid CSV the C pass leaves to the loop
    def test_fit_ends_in_a_documented_exit(self, players_csv, tmp_path, capsys, damage):
        data = players_csv.read_bytes()
        for kind, at, payload in damage:
            data = self._mutated(data, kind, at, payload)
        players, out = tmp_path / "damaged.csv", tmp_path / "out"
        players.write_bytes(data)
        shutil.rmtree(out, ignore_errors=True)  # each fit is cold
        argv = ["fit", "--input", str(players), "--out", str(out)]
        with warnings.catch_warnings(record=True):  # damage can leave a column constant
            warnings.simplefilter("always")
            code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 2, 3, 4), captured.err
        if code:
            fails(capsys, code, *argv)  # a second run fails alike, with one JSON line
        else:
            assert (captured.out, captured.err) == ("", "")
        roles = ingest._roles(ingest.DEFAULT_SCHEMA)
        try:
            fast = ingest._parse_fast(bytearray(data), roles, ingest.FilterPolicy())
        except ValueError:  # the fast path declines: the loop reads the file
            fast = None
        if fast is not None:
            stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
            assert_same_outcome(fast, ingest._parse_rows(stream, roles, ingest.FilterPolicy()))


def test_readme_flags_table_matches_the_tables():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

    def names(commands):
        return "all" if len(commands) == len(cli.SUBCOMMANDS) else ", ".join(commands) or "—"

    for key, flag in cli.FLAGS.items():
        needed = [name for name, sub in cli.SUBCOMMANDS.items() if key in sub.needs]
        read = [name for name, sub in cli.SUBCOMMANDS.items() if key in sub.reads]
        if not needed and not read:  # read by every subcommand
            read = list(cli.SUBCOMMANDS)
        name = "--" + key.replace("_", "-")
        default = flag.default or "—"
        assert f"| `{name}` | {default} | {names(needed)} | {names(read)} |" in readme


def _no_parse(*args, **kwargs):
    raise AssertionError("the players CSV was parsed")


class TestBadFiles:
    """A malformed input, model or config file ends in one JSON error line."""

    def _model_doc(self, players_csv, tmp_path, capsys):
        out = tmp_path / "fit"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0
        return json.loads((out / "model.json").read_text(encoding="utf-8"))

    def _score_fails(self, doc, players_csv, tmp_path, capsys) -> dict:
        """``scores`` on the model ``doc`` fails with a data error."""
        model = tmp_path / "bad_model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        return fails(
            capsys, 3,
            "scores", "--input", str(players_csv), "--model", str(model),
            "--out", str(tmp_path / "out"),
        )

    def test_model_missing_field(self, players_csv, tmp_path, capsys):
        doc = self._model_doc(players_csv, tmp_path, capsys)
        del doc["n_samples"]
        diagnostic = self._score_fails(doc, players_csv, tmp_path, capsys)
        assert "n_samples" in diagnostic["error"]

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("format_version", True, id="version-true"),
            pytest.param("format_version", 1.0, id="version-float"),
            pytest.param("format_version", [[0] * 100] * 10, id="version-nested-list"),
            pytest.param("format_version", 10**400, id="version-huge"),
            pytest.param("n_samples", 10**400, id="n_samples-huge"),
            pytest.param("n_samples", 2**63, id="n_samples-2**63"),
        ],
    )
    def test_model_integer_field_of_another_value(
        self, players_csv, tmp_path, capsys, field, value
    ):
        # each of these loaded as a version-1 model, or printed the whole value
        doc = self._model_doc(players_csv, tmp_path, capsys)
        doc[field] = value
        diagnostic = self._score_fails(doc, players_csv, tmp_path, capsys)
        assert field in diagnostic["error"] and len(diagnostic["error"]) < 200

    def test_model_repeated_stat_name(self, players_csv, tmp_path, capsys, monkeypatch):
        doc = self._model_doc(players_csv, tmp_path, capsys)
        names = doc["standardization"]["stat_names"]
        names[1] = names[0]
        monkeypatch.setattr(ingest, "parse_csv", _no_parse)
        diagnostic = self._score_fails(doc, players_csv, tmp_path, capsys)
        assert "stat_names" in diagnostic["error"]
        assert not (tmp_path / "out" / "scores.csv").exists()

    def test_model_not_an_object(self, players_csv, tmp_path, capsys):
        diagnostic = self._score_fails([], players_csv, tmp_path, capsys)
        assert diagnostic["error"] == "model must be a JSON object"
        assert not (tmp_path / "out" / "scores.csv").exists()

    def test_model_nested_too_deep(self, players_csv, tmp_path, capsys):
        model = tmp_path / "deep_model.json"
        model.write_text("[" * 100_000, encoding="utf-8")
        diagnostic = fails(
            capsys, 3,
            "scores", "--input", str(players_csv), "--model", str(model),
            "--out", str(tmp_path / "out"),
        )
        assert diagnostic["category"] == "data"

    def test_model_not_utf8(self, players_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(b'{"format_version": 1, "n_samples": "B\xe9S"}\n')
        out = tmp_path / "out"
        diagnostic = fails(
            capsys, 3,
            "scores", "--input", str(players_csv), "--model", str(model), "--out", str(out),
        )
        assert diagnostic["error"].endswith("not UTF-8 text: byte 0xe9 (invalid continuation byte)")
        assert not (out / "scores.csv").exists()
        assert not (out / cache.SCORES).exists()

    def test_config_nested_too_deep(self, players_csv, tmp_path, capsys):
        config = tmp_path / "deep_config.json"
        config.write_text("[" * 100_000, encoding="utf-8")
        diagnostic = fails(
            capsys, 2, "fit", "--config", str(config),
            "--input", str(players_csv), "--out", str(tmp_path / "o"),
        )
        assert "not valid JSON" in diagnostic["error"]

    @pytest.mark.parametrize(
        "case, message",
        [
            ("missing", "config file not found: "),
            ("directory", "cannot be read: "),
            ("not-utf8", "cannot be read: "),
            ("bad-json", "is not valid JSON: "),
            ("not-an-object", "must hold a JSON object"),
        ],
    )
    def test_config_file_that_cannot_be_read(self, players_csv, tmp_path, capsys, case, message):
        # every failure to read the config file is a usage error that names it
        config = tmp_path / "config.json"
        if case == "directory":
            config.mkdir()
        elif case == "not-utf8":
            config.write_bytes(b'{"k": "\xff"}')
        elif case == "bad-json":
            config.write_text("{k: 4}", encoding="utf-8")
        elif case == "not-an-object":
            config.write_text("[]", encoding="utf-8")
        diagnostic = fails(
            capsys, 2, "fit", "--config", str(config),
            "--input", str(players_csv), "--out", str(tmp_path / "o"),
        )
        assert str(config) in diagnostic["error"] and message in diagnostic["error"]
        if case == "not-utf8":  # the reason every other input gives
            assert diagnostic["error"].endswith("not UTF-8 text: byte 0xff (invalid start byte)")
        assert not (tmp_path / "o").exists()

    def test_config_integer_too_long_to_read(self, players_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"k": 1' + "0" * 5000 + "}", encoding="utf-8")
        diagnostic = fails(
            capsys, 2, "fit", "--config", str(config),
            "--input", str(players_csv), "--out", str(tmp_path / "o"),
        )
        assert "not valid JSON" in diagnostic["error"]

    def test_model_integer_too_long_to_read(self, players_csv, tmp_path, capsys):
        fit = tmp_path / "fit"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(fit))[0] == 0
        text = (fit / "model.json").read_text(encoding="utf-8")
        model = tmp_path / "long_model.json"
        long = '"n_samples": 1' + "0" * 5000  # beyond Python's 4300-digit limit
        model.write_text(re.sub(r'"n_samples": \d+', long, text), encoding="utf-8")
        diagnostic = fails(
            capsys, 3,
            "scores", "--input", str(players_csv), "--model", str(model),
            "--out", str(tmp_path / "out"),
        )
        assert diagnostic["category"] == "data" and "not valid JSON" in diagnostic["error"]

    def test_model_nan_loading(self, players_csv, tmp_path, capsys):
        doc = self._model_doc(players_csv, tmp_path, capsys)
        doc["loadings"][0][0] = float("nan")
        diagnostic = self._score_fails(doc, players_csv, tmp_path, capsys)
        assert "loadings" in diagnostic["error"]
        assert not (tmp_path / "out" / "scores.csv").exists()

    @pytest.mark.parametrize(
        "config_text, key",
        [
            ('{"k": "four"}', "k"),
            ('{"k": true}', "k"),
            ('{"components": [1, "2"]}', "components"),
            ('{"weights": {"x": 0.1}}', "weights"),
            ('{"components": [1, 2]}', "components"),
            ('{"weights": {"2": 0.17}}', "weights"),
            ('{"excluded_column_patterns": "*_total"}', "excluded_column_patterns"),
            ('{"format": "xml"}', "format"),
        ],
    )
    def test_config_value_of_wrong_type(self, players_csv, tmp_path, capsys, config_text, key):
        config = tmp_path / "config.json"
        config.write_text(config_text, encoding="utf-8")
        diagnostic = fails(
            capsys, 2, "fit", "--config", str(config),
            "--input", str(players_csv), "--out", str(tmp_path / "o"),
        )
        assert key in diagnostic["error"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", [*cli.FLAGS, *cli.CONFIG_ONLY])
    def test_each_config_key_refuses_another_type(self, players_csv, tmp_path, capsys, key):
        kind = cli.FLAGS[key].type if key in cli.FLAGS else cli.CONFIG_ONLY[key]
        wanted = {int: "an integer", str: "a string", list: "a list"}[kind]
        # the message names JSON types, so a long list gives a short line too
        cases = [
            (1, f"config key {key!r} is an integer, expected {wanted}")
            if kind is str
            else ("1", f"config key {key!r} is a string, expected {wanted}"),
            ([*["a"] * 100_000, 1], f"config key {key!r} must list strings")
            if kind is list
            else (["0123456789"] * 5000, f"config key {key!r} is a list, expected {wanted}"),
        ]
        config = tmp_path / "config.json"
        for value, message in cases:
            config.write_text(json.dumps({key: value}), encoding="utf-8")
            diagnostic = fails(
                capsys, 2, "fit", "--config", str(config),
                "--input", str(players_csv), "--out", str(tmp_path / "o"),
            )
            assert diagnostic["error"] == message
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("out", "o\0x"), ("excluded_column_patterns", ["*_total", "a\0"])],
    )
    def test_config_nul_character(self, players_csv, tmp_path, capsys, monkeypatch, key, value):
        if key == "out":
            value = str(tmp_path / value)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        monkeypatch.setattr(ingest, "parse_csv", _no_parse)
        argv = ["fit", "--config", str(config), "--input", str(players_csv)]
        out = [] if key == "out" else ["--out", str(tmp_path / "o")]
        diagnostic = fails(capsys, 2, *argv, *out)
        assert diagnostic["error"] == f"config key {key!r} holds a NUL character"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "players.csv"]

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--membership", 'player_id,team_code\n"p01,ATL\n'),
            ("--winpct", 'team_code,win_pct\n"ATL,0.5\n'),
        ],
        ids=["membership", "winpct"],
    )
    def test_unbalanced_quote_in_two_column_csv(
        self, players_csv, membership_csv, tmp_path, capsys, flag, text
    ):
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        membership = bad if flag == "--membership" else membership_csv
        winpct = ["--winpct", str(bad)] if flag == "--winpct" else []
        diagnostic = fails(
            capsys, 3,
            "teams", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--membership", str(membership), *winpct, "--out", str(out),
        )
        assert diagnostic["category"] == "data"
        assert "line 2" in diagnostic["error"]

    @pytest.mark.parametrize("role", ["players", "membership", "winpct"])
    def test_byte_order_mark_is_named(self, players_csv, membership_csv, tmp_path, capsys, role):
        # as a spreadsheet program saves "CSV UTF-8"
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0
        bad = tmp_path / "bom.csv"
        text = {
            "players": players_csv_text(),
            "membership": membership_csv_text(),
            "winpct": "team_code,win_pct\n" + "".join(
                f"{code},0.5\n" for code in sorted(set(_teams(membership_csv)))
            ),
        }[role]
        bad.write_text("\ufeff" + text, encoding="utf-8")
        if role == "players":
            diagnostic = fails(capsys, 3, "fit", "--input", str(bad), "--out", str(tmp_path / "o"))
            what = "players CSV"
        else:
            membership = bad if role == "membership" else membership_csv
            winpct = ["--winpct", str(bad)] if role == "winpct" else []
            diagnostic = fails(
                capsys, 3,
                "teams", "--input", str(players_csv), "--model", str(out / "model.json"),
                "--membership", str(membership), *winpct, "--out", str(out),
            )
            what = "membership CSV" if role == "membership" else "win_pct CSV"
        assert diagnostic == {
            "error": f"{what} line 1: starts with a UTF-8 byte-order mark (BOM)",
            "category": "data",
            "exit_code": 3,
        }

    def test_players_csv_not_utf8(self, tmp_path, capsys):
        players = tmp_path / "players.csv"
        players.write_bytes(players_csv_text().replace("Player 03", "Jos\xe9").encode("latin-1"))
        diagnostic = fails(capsys, 3, "fit", "--input", str(players), "--out", str(tmp_path / "o"))
        assert diagnostic["category"] == "data"
        assert "0xe9" in diagnostic["error"]
        assert not (tmp_path / "o").exists()

    def test_players_header_not_utf8(self, tmp_path, capsys):
        data = players_csv_text().replace("player_name", "player_n\xe9me", 1).encode("latin-1")
        # the fast path declines a header it cannot decode and leaves the bytes whole
        unread = bytearray(data)
        with pytest.raises(ValueError):
            ingest._parse_fast(
                unread, ingest._roles(ingest.DEFAULT_SCHEMA), ingest.FilterPolicy()
            )
        assert unread == data
        players = tmp_path / "players.csv"
        players.write_bytes(data)
        diagnostic = fails(capsys, 3, "fit", "--input", str(players), "--out", str(tmp_path / "o"))
        assert diagnostic["error"].endswith("not UTF-8 text: byte 0xe9 (invalid continuation byte)")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("role", ["players", "membership", "winpct"])
    def test_nul_byte_is_a_parse_error(self, players_csv, membership_csv, tmp_path, capsys, role):
        # csv.reader refuses NUL on Python 3.10 and keeps it on 3.11; both must refuse
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0
        bad = tmp_path / "bad.csv"
        if role == "players":
            text = players_csv_text().replace("Player 03", "Play\x00er 03")
            bad.write_text(text, encoding="utf-8")
            diagnostic = fails(capsys, 3, "fit", "--input", str(bad), "--out", str(tmp_path / "o"))
            where = "players CSV line 4"
        else:
            text = "team_code,win_pct\nBOS,0.5\n"
            if role == "membership":
                text = membership_csv_text()
            bad.write_text(text.replace("BOS", "B\x00OS", 1), encoding="utf-8")
            membership = bad if role == "membership" else membership_csv
            winpct = ["--winpct", str(bad)] if role == "winpct" else []
            diagnostic = fails(
                capsys, 3,
                "teams", "--input", str(players_csv), "--model", str(out / "model.json"),
                "--membership", str(membership), *winpct, "--out", str(out),
            )
            where = "membership CSV line 3" if role == "membership" else "win_pct CSV line 2"
        assert diagnostic["category"] == "data"
        assert diagnostic["error"] == f"{where}: NUL byte"

    def test_games_played_too_large_for_int64(self, tmp_path, capsys):
        players = tmp_path / "players.csv"
        text = players_csv_text()
        players.write_text(text.replace(",41,900.0,", ",1e20,900.0,", 1), encoding="utf-8")
        diagnostic = fails(capsys, 3, "fit", "--input", str(players), "--out", str(tmp_path / "o"))
        assert diagnostic["category"] == "data"
        assert "line 2: column 'games_played'" in diagnostic["error"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "case",
        ["games-played", "negative-games", "missing-stat", "config-keys", "membership", "win-pct"],
    )
    def test_long_value_is_cut(self, players_csv, membership_csv, tmp_path, capsys, case):
        def cut(text: str) -> str:
            return f"{text[:50]!r} and {len(text) - 50} more characters"

        long_id = "i" * 100_000
        out = tmp_path / "out"
        argvs = _chain(players_csv, membership_csv, tmp_path, out, "csv")
        lines = players_csv_text().splitlines()
        cells = lines[1].split(",")  # p01, 41 games
        code = 3
        if case in ("games-played", "negative-games", "missing-stat"):
            if case == "games-played":
                cells[3] = "9" * 99_999 + "x"
                want = f"line 2: column 'games_played' must be numeric, got {cut(cells[3])}"
            elif case == "negative-games":
                cells[:4] = [long_id, "Player 01", "ATL", "-1"]
                want = f"player {cut(long_id)}: games_played must be >= 0, got -1"
            else:
                cells[0], cells[5] = long_id, ""
                want = f"missing values for (player, statistic): [({cut(long_id)}, 'pts_per48')]"
            text = "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
            players_csv.write_text(text, encoding="utf-8")
            argv = argvs[0]
        elif case == "config-keys":
            keys = [f"{i:02d}" + "k" * 39_998 for i in range(12)]
            config = tmp_path / "config.json"
            config.write_text(json.dumps(dict.fromkeys(keys, 1)), encoding="utf-8")
            want = f"unknown config keys: [{', '.join(map(cut, keys[:10]))}] and 2 more"
            argv, code = [*argvs[0], "--config", str(config)], 2
        else:
            _run_chain(capsys, argvs[:1])
            if case == "membership":
                with membership_csv.open("a", encoding="utf-8") as fh:
                    fh.write(f"{long_id},ATL\n{long_id},BOS\n")
                line = len(membership_csv_text().splitlines()) + 2
                want = f"line {line}: conflicting team for player {cut(long_id)}"
                argv = argvs[3]
            else:
                cell = "n" * 100_000
                (tmp_path / "winpct.csv").write_text(f"ATL,{cell}\n", encoding="utf-8")
                want = f"line 1: win_pct must be numeric, got {cut(cell)}"
                argv = argvs[5]
        assert fails(capsys, code, *argv)["error"] == want

class TestLastResort:
    def test_unexpected_exception_is_one_internal_line(
        self, players_csv, tmp_path, capsys, monkeypatch
    ):
        def broken(config):
            raise RuntimeError("not a StatspaceError")

        monkeypatch.setitem(
            cli.SUBCOMMANDS, "fit", cli.SUBCOMMANDS["fit"]._replace(run=broken)
        )
        diagnostic = fails(
            capsys, 1, "fit", "--input", str(players_csv), "--out", str(tmp_path / "o")
        )
        assert diagnostic == {
            "error": "RuntimeError: not a StatspaceError",
            "category": "internal",
            "exit_code": 1,
        }

    def test_os_error_is_a_data_error(self, players_csv, tmp_path, capsys):
        # a name longer than any file system takes fails as an OSError: on
        # the existence check of --out, or where a Python answers that check
        # False, on the directory's creation. A name of up to 200 characters
        # is quoted whole, as str() of the OSError quotes it.
        out = tmp_path / ("o" * 300)
        diagnostic = fails(capsys, 3, "fit", "--input", str(players_csv), "--out", str(out))
        reason = os.strerror(errno.ENAMETOOLONG)
        cut = len(str(out)) - 200
        shown = f"[{cut} characters cut]{str(out)[cut:]}"
        assert diagnostic["error"] == f"[Errno {errno.ENAMETOOLONG}] {reason}: {shown}"


class TestNumericalExit:
    @pytest.mark.parametrize("kind", ["numpy", "not-a-value-error"])
    def test_linalg_error_is_exit_4(self, players_csv, tmp_path, capsys, monkeypatch, kind):
        # numpy 2 makes LinAlgError a ValueError; the exit does not depend on that
        error = np.linalg.LinAlgError
        if kind == "not-a-value-error":
            error = type("LinAlgError", (Exception,), {})
            monkeypatch.setitem(sys.modules, "numpy.linalg", SimpleNamespace(LinAlgError=error))

        def singular(config):
            raise error("Singular matrix")

        monkeypatch.setitem(
            cli.SUBCOMMANDS, "fit", cli.SUBCOMMANDS["fit"]._replace(run=singular)
        )
        diagnostic = fails(
            capsys, 4, "fit", "--input", str(players_csv), "--out", str(tmp_path / "o")
        )
        assert diagnostic == {
            "error": "Singular matrix", "category": "numerical", "exit_code": 4,
        }


class TestOverflow:
    """A model or players file whose standardization or projection overflows
    exits 4 with one JSON line, before any output or projection is written,
    and with no numpy warning on the way."""

    def _model_with(self, players_csv, tmp_path, capsys, change) -> Path:
        fitted = tmp_path / "fitted"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(fitted))[0] == 0
        doc = json.loads((fitted / "model.json").read_text(encoding="utf-8"))
        change(doc)
        model = tmp_path / "changed_model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        return model

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["scores", "teams", "similar"])
    def test_model_std_devs_too_small(
        self, players_csv, membership_csv, tmp_path, capsys, recwarn, command, fmt
    ):
        def tiny(doc):
            std = doc["standardization"]
            std["std_devs"] = [5e-324] * len(std["std_devs"])  # positive, so the model loads

        model = self._model_with(players_csv, tmp_path, capsys, tiny)
        recwarn.clear()
        extra = {
            "scores": [],
            "teams": ["--membership", str(membership_csv)],
            "similar": ["--query", "p01"],
        }[command]
        out = tmp_path / "out"
        diagnostic = fails(
            capsys, 4,
            command, "--input", str(players_csv), "--model", str(model), *extra,
            "--out", str(out), "--format", fmt,
        )
        assert diagnostic == {
            "error": f"standardization overflows to a non-finite value in {STATS}",
            "category": "numerical",
            "exit_code": 4,
        }
        assert not recwarn.list
        # the table cache stands; no output and no projection is written
        assert sorted(path.name for path in out.iterdir()) == [
            cache.PLAYERS, cache.TABLE
        ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_projection(self, tmp_path, capsys, recwarn, fmt):
        players = tmp_path / "players.csv"
        players.write_text(
            "player_id,player_name,team,games_played,minutes,a,b\n"
            "p1,P1,BOS,50,100.0,1.5e308,1.5e308\n"
            "p2,P2,BOS,50,100.0,1.0,2.0\n"
            "p3,P3,NYK,50,100.0,0.0,0.0\n",
            encoding="utf-8",
        )
        model = tmp_path / "model.json"
        pca.save_model(
            pca.PcaModel(
                pca.StandardizationParams(["a", "b"], [0.0, 0.0], [1.0, 1.0]),
                [[0.6, 0.8]], [1.0], 2.0, 3,
            ),
            model,
        )
        out = tmp_path / "out"
        diagnostic = fails(
            capsys, 4,
            "scores", "--input", str(players), "--model", str(model), "--out", str(out),
            "--format", fmt,
        )
        assert diagnostic["error"] == (
            "projection overflows to a non-finite value in ['PC1']"
        )
        assert not recwarn.list
        assert sorted(path.name for path in out.iterdir()) == [cache.PLAYERS, cache.TABLE]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["fit", "scree"])
    def test_players_column_of_huge_values(self, tmp_path, capsys, recwarn, command, fmt):
        lines = players_csv_text().splitlines()
        header = lines[0].split(",")
        column = header.index(STATS[0])
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[column] = "1e308" if i % 2 else "-1e308"
            lines[i] = ",".join(cells)
        players = tmp_path / "players.csv"
        players.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        diagnostic = fails(
            capsys, 4, command, "--input", str(players), "--out", str(out), "--format", fmt
        )
        assert diagnostic["error"] == (
            f"standard deviation overflows to a non-finite value in ['{STATS[0]}']"
        )
        assert not recwarn.list
        assert sorted(path.name for path in out.iterdir()) == [cache.PLAYERS, cache.TABLE]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_weighted_score(self, players_csv, membership_csv, tmp_path, capsys, recwarn, fmt):
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0
        recwarn.clear()
        diagnostic = fails(
            capsys, 4,
            "teams", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--membership", str(membership_csv), "--weights", "1=1e308,2=1e308",
            "--out", str(out), "--format", fmt,
        )
        assert diagnostic["error"] == (
            "weighted score of ['PC1', 'PC2'] overflows to a non-finite value"
        )
        assert not recwarn.list
        assert not (out / f"teams.{fmt}").exists()

    def test_huge_loadings(self, players_csv, tmp_path, capsys, recwarn):
        def huge(doc):
            doc["loadings"] = [[1e308] * len(row) for row in doc["loadings"]]

        model = self._model_with(players_csv, tmp_path, capsys, huge)
        recwarn.clear()
        out = tmp_path / "out"
        diagnostic = fails(
            capsys, 3,
            "scores", "--input", str(players_csv), "--model", str(model), "--out", str(out),
        )
        assert diagnostic["error"] == "loading vectors must have unit norm"
        assert not recwarn.list
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fresh_process_prints_one_line(self, players_csv, tmp_path, capsys, fmt):
        # numpy's warnings would reach a real stderr
        def tiny(doc):
            std = doc["standardization"]
            std["std_devs"] = [5e-324] * len(std["std_devs"])

        model = self._model_with(players_csv, tmp_path, capsys, tiny)
        out = tmp_path / "out"
        done = _python(
            "-m", "statspace.cli", "scores", "--input", str(players_csv), "--model", str(model),
            "--out", str(out), "--format", fmt,
        )
        failure(4, done.returncode, done.stdout, done.stderr)
        assert not (out / f"scores.{fmt}").exists() and not (out / cache.SCORES).exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fresh_process_weighted_score_and_constant_columns(
        self, players_csv, membership_csv, tmp_path, capsys, fmt
    ):
        # numpy's warnings, and the dropped columns' warning, would reach a real stderr
        fitted, out = tmp_path / "fitted", tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(fitted))[0] == 0
        teams = (
            "teams", "--input", str(players_csv), "--model", str(fitted / "model.json"),
            "--membership", str(membership_csv), "--weights", "1=1e308,2=1e308",
        )
        scree = ("scree", "--input", str(_every_stat_constant(tmp_path)))
        for argv, code in ((teams, 4), (scree, 3)):
            done = _python("-m", "statspace.cli", *argv, "--out", str(out), "--format", fmt)
            failure(code, done.returncode, done.stdout, done.stderr)
        assert not (out / f"teams.{fmt}").exists() and not (out / f"scree.{fmt}").exists()


class TestWarningThenFailure:
    """A command that warns of the players left out of the membership file,
    then fails, prints its one JSON line and no warning."""

    def _three_teams(self, players_csv, membership_csv, tmp_path, capsys) -> list[str]:
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0
        header, *rows = membership_csv.read_text(encoding="utf-8").splitlines()
        teams = sorted(set(_teams(membership_csv)))[:3]
        three = tmp_path / "three_teams.csv"
        kept = [row for row in rows if row.split(",")[1] in teams]
        three.write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")
        return [
            "--input", str(players_csv), "--model", str(out / "model.json"),
            "--membership", str(three), "--out", str(out),
        ]

    def test_regress_on_three_teams(self, players_csv, membership_csv, tmp_path, capsys, recwarn):
        common = self._three_teams(players_csv, membership_csv, tmp_path, capsys)
        winpct = tmp_path / "winpct.csv"
        codes = sorted(set(_teams(membership_csv)))
        winpct.write_text("".join(f"{code},0.5\n" for code in codes), encoding="utf-8")
        recwarn.clear()
        diagnostic = fails(capsys, 3, "regress", *common, "--winpct", str(winpct))
        assert diagnostic["error"] == "need more than 5 observations for 5 terms, got 3"
        assert not recwarn.list

    def test_overflowing_weights_on_three_teams(
        self, players_csv, membership_csv, tmp_path, capsys, recwarn
    ):
        common = self._three_teams(players_csv, membership_csv, tmp_path, capsys)
        recwarn.clear()
        diagnostic = fails(capsys, 4, "teams", *common, "--weights", "1=1e308,2=1e308")
        assert diagnostic["error"] == (
            "weighted score of ['PC1', 'PC2'] overflows to a non-finite value"
        )
        assert not recwarn.list
