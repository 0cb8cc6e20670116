import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import statspace
from statspace import cli, ingest, pca, scoring
from statspace.cli import main

from conftest import players_csv_text


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().err


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
        code, err = run(capsys, "fit", "--input", str(missing), "--out", str(tmp_path / "o"))
        assert code == 3
        diagnostic = json.loads(err.strip())
        assert diagnostic["exit_code"] == 3
        assert "nope.csv" in diagnostic["error"]

    def test_k_larger_than_p_is_usage_error(self, players_csv, tmp_path, capsys):
        code, err = run(
            capsys,
            "fit", "--input", str(players_csv), "--out", str(tmp_path / "o"), "--k", "7",
        )
        assert code == 2
        assert json.loads(err.strip())["category"] == "usage"

    def test_matches_library_composition(self, players_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0

        records = ingest.parse_csv(players_csv)
        table = ingest.build_table(
            ingest.apply_filter(records, ingest.FilterPolicy(min_games=41))
        )
        params, standardized = pca.standardize(table, drop_constant=True)
        model = pca.fit_pca(standardized, 4, params)
        assert (out / "model.json").read_text(encoding="utf-8") == pca.model_to_json(model)


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
        assert np.array_equal(parsed, scores.scores)

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
        expected = pca.transform(model, table).scores
        rows = read_rows(out / "scores.csv")[1:]
        assert np.array_equal(np.array([[float(v) for v in row[3:]] for row in rows]), expected)
        assert len(read_rows(out / "similar.csv")) - 1 == 5


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

    @pytest.mark.parametrize("weights", ["2=nan,4=inf", "2=0.17,4=-inf"])
    def test_non_finite_weights_are_usage_error(
        self, players_csv, membership_csv, tmp_path, capsys, weights
    ):
        out = self._fit(players_csv, tmp_path, capsys)
        code, err = run(
            capsys,
            "teams", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--membership", str(membership_csv), "--weights", weights,
            "--format", "json", "--out", str(out),
        )
        assert code == 2
        assert "finite" in _one_error_line(err)["error"]
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
        code, err = run(
            capsys,
            "similar", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--query", "nobody", "--out", str(out),
        )
        assert code == 3
        assert "nobody" in json.loads(err.strip())["error"]

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
            + 0.17 * teams.scores[:, 1]
            - 0.20 * teams.scores[:, 2]
            + 0.09 * teams.scores[:, 3]
        )
        assert ((outcome > 0.0) & (outcome < 1.0)).all()
        winpct = tmp_path / "winpct.csv"
        winpct.write_text(
            "".join(
                f"{code},{float(outcome[t])!r}\n"
                for t, code in enumerate(teams.team_codes)
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

    def test_requires_winpct(self, players_csv, membership_csv, tmp_path, capsys):
        out = tmp_path / "out"
        run(capsys, "fit", "--input", str(players_csv), "--out", str(out))
        code, err = run(
            capsys,
            "regress", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--membership", str(membership_csv), "--out", str(out),
        )
        assert code == 2
        assert "winpct" in json.loads(err.strip())["error"]


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


class TestReproducibility:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_subcommand_byte_identical(
        self, players_csv, membership_csv, tmp_path, capsys, fmt
    ):
        outputs = []
        for run_dir in ("one", "two"):
            out = tmp_path / run_dir
            _run_chain(capsys, _chain(players_csv, membership_csv, tmp_path, out, fmt))
            outputs.append(
                {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            )
        assert len(outputs[0]) == 7
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

    def test_scree_subcommand_matches_fit_scree(self, players_csv, tmp_path, capsys):
        fit_out, scree_out = tmp_path / "fit", tmp_path / "scree"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(fit_out))[0] == 0
        assert run(capsys, "scree", "--input", str(players_csv), "--out", str(scree_out))[0] == 0
        assert (fit_out / "scree.csv").read_bytes() == (scree_out / "scree.csv").read_bytes()
        assert not (scree_out / "model.json").exists()


class TestColdStart:
    def test_only_regress_loads_scipy(self, players_csv, membership_csv, tmp_path):
        # a fresh process: this one has imported scipy already
        argvs = _chain(players_csv, membership_csv, tmp_path, tmp_path / "out", "csv")
        assert argvs[-1][0] == "regress"
        script = textwrap.dedent(
            """
            import json, sys
            import statspace.cli
            for argv in json.loads(sys.argv[1]):
                assert statspace.cli.main(argv) == 0, argv[0]
            print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
            """
        )
        src = str(Path(statspace.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs[:-1])],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []


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
        code, err = run(
            capsys, "fit", "--config", str(config),
            "--input", str(players_csv), "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "mystery" in json.loads(err.strip())["error"]


def _one_error_line(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])


class TestBadFiles:
    """A malformed input, model or config file ends in one JSON error line."""

    def _model_doc(self, players_csv, tmp_path, capsys):
        out = tmp_path / "fit"
        assert run(capsys, "fit", "--input", str(players_csv), "--out", str(out))[0] == 0
        return json.loads((out / "model.json").read_text(encoding="utf-8"))

    def _score_with(self, doc, players_csv, tmp_path, capsys):
        model = tmp_path / "bad_model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        return run(
            capsys,
            "scores", "--input", str(players_csv), "--model", str(model),
            "--out", str(tmp_path / "out"),
        )

    def test_model_missing_field(self, players_csv, tmp_path, capsys):
        doc = self._model_doc(players_csv, tmp_path, capsys)
        del doc["n_samples"]
        code, err = self._score_with(doc, players_csv, tmp_path, capsys)
        assert code == 3
        assert "n_samples" in _one_error_line(err)["error"]

    def test_model_nested_too_deep(self, players_csv, tmp_path, capsys):
        model = tmp_path / "deep_model.json"
        model.write_text("[" * 100_000, encoding="utf-8")
        code, err = run(
            capsys,
            "scores", "--input", str(players_csv), "--model", str(model),
            "--out", str(tmp_path / "out"),
        )
        assert code == 3
        assert _one_error_line(err)["category"] == "data"

    def test_config_nested_too_deep(self, players_csv, tmp_path, capsys):
        config = tmp_path / "deep_config.json"
        config.write_text("[" * 100_000, encoding="utf-8")
        code, err = run(
            capsys, "fit", "--config", str(config),
            "--input", str(players_csv), "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "not valid JSON" in _one_error_line(err)["error"]

    def test_model_nan_loading(self, players_csv, tmp_path, capsys):
        doc = self._model_doc(players_csv, tmp_path, capsys)
        doc["loadings"][0][0] = float("nan")
        code, err = self._score_with(doc, players_csv, tmp_path, capsys)
        assert code == 3
        assert "loadings" in _one_error_line(err)["error"]
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
        code, err = run(
            capsys, "fit", "--config", str(config),
            "--input", str(players_csv), "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert key in _one_error_line(err)["error"]
        assert not (tmp_path / "o").exists()

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
        code, err = run(
            capsys,
            "teams", "--input", str(players_csv), "--model", str(out / "model.json"),
            "--membership", str(membership), *winpct, "--out", str(out),
        )
        assert code == 3
        diagnostic = _one_error_line(err)
        assert diagnostic["category"] == "data"
        assert "line 2" in diagnostic["error"]

    def test_players_csv_not_utf8(self, tmp_path, capsys):
        players = tmp_path / "players.csv"
        players.write_bytes(players_csv_text().replace("Player 03", "Jos\xe9").encode("latin-1"))
        code, err = run(capsys, "fit", "--input", str(players), "--out", str(tmp_path / "o"))
        assert code == 3
        diagnostic = _one_error_line(err)
        assert diagnostic["category"] == "data"
        assert "0xe9" in diagnostic["error"]
        assert not (tmp_path / "o").exists()

    def test_games_played_too_large_for_int64(self, tmp_path, capsys):
        players = tmp_path / "players.csv"
        text = players_csv_text()
        players.write_text(text.replace(",41,900.0,", ",1e20,900.0,", 1), encoding="utf-8")
        code, err = run(capsys, "fit", "--input", str(players), "--out", str(tmp_path / "o"))
        assert code == 3
        diagnostic = _one_error_line(err)
        assert diagnostic["category"] == "data"
        assert "line 2: column 'games_played'" in diagnostic["error"]
        assert not (tmp_path / "o").exists()


class TestLastResort:
    def test_unexpected_exception_is_one_internal_line(
        self, players_csv, tmp_path, capsys, monkeypatch
    ):
        def broken(config):
            raise RuntimeError("not a StatspaceError")

        monkeypatch.setitem(cli.COMMANDS, "fit", broken)
        code, err = run(capsys, "fit", "--input", str(players_csv), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "Traceback" not in err
        assert _one_error_line(err) == {
            "error": "RuntimeError: not a StatspaceError",
            "category": "internal",
            "exit_code": 1,
        }
