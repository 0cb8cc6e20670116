"""Command-line pipeline: fit, scores, teams, similar, regress, scree.

Every subcommand reads CSV inputs, runs the corresponding library calls, and
writes plot-ready data files into the output directory. Outputs are
deterministic: identical inputs and configuration produce byte-identical
files. Numeric cells use shortest round-trip decimal form except in the
human-readable regression table.

Exit codes: 0 success, 1 internal error, 2 usage error, 3 data/validation
error, 4 numerical error. Failures also emit one machine-parseable JSON line
on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import files, ingest, pca, regression, scoring, similarity
from .errors import (
    DataError,
    NumericalError,
    ParameterError,
    StatspaceError,
    UsageError,
)

SCHEMA_KEY = "schema"
# Config-file keys, each with the JSON types its value may have. Every flag
# can be given in the config; the last three keys are config-only.
CONFIG_TYPES: dict[str, tuple[type, ...]] = {
    "input": (str,),
    "model": (str,),
    "min_games": (int,),
    "k": (int,),
    "components": (str,),
    "top": (int,),
    "query": (str,),
    "membership": (str,),
    "winpct": (str,),
    "weights": (str,),
    "out": (str,),
    "format": (str,),
    "column_mode": (str,),
    "excluded_column_patterns": (list,),
    SCHEMA_KEY: (list,),
}
# Element type of each list-valued config key.
CONFIG_ITEM_TYPES: dict[str, tuple[type, ...]] = {
    "excluded_column_patterns": (str,),
    SCHEMA_KEY: (str,),
}
FORMATS = ("csv", "json")
# Per subcommand: the flags it needs, then the files and values it reads if
# given (as flags or config keys). The needed flags are checked first, then
# every listed file must exist, all before any file is read. Unlisted files
# go unchecked, so one config file can serve the whole chain.
COMMAND_FLAGS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "fit": (("out", "input"), ()),
    "scree": (("out", "input"), ()),
    "scores": (("out", "input", "model"), ()),
    "teams": (("out", "input", "model", "membership"), ("winpct", "weights")),
    "similar": (("out", "input", "model", "query"), ()),
    "regress": (("out", "input", "model", "membership", "winpct"), ()),
}

DEFAULT_K = 4
DEFAULT_TOP = 5
SCREE_COMPONENTS = 10


@dataclass
class RunConfig:
    """Resolved settings for one subcommand invocation."""

    input_paths: dict[str, Path]
    filter: ingest.FilterPolicy
    k: int
    components_for_sdi: set[int] | None
    output_dir: Path
    output_format: str
    schema: tuple[str, ...] = ingest.DEFAULT_SCHEMA
    query: str | None = None
    top: int = DEFAULT_TOP
    weights: dict[int, float] = field(default_factory=dict)


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage text and exit 2."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="statspace",
        description="Reduce per-player statistics to principal components, "
        "score players and teams, rank similarity, and regress outcomes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fit", "fit a component model and write model + scree data"),
        ("scree", "write per-component variance data without saving a model"),
        ("scores", "project players onto a fitted model"),
        ("teams", "aggregate player scores into minutes-weighted team scores"),
        ("similar", "rank entities by statistical similarity to a query"),
        ("regress", "regress winning percentage on team component scores"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file supplying any flag (flags win)")
        p.add_argument("--input", help="players CSV")
        p.add_argument("--model", help="fitted model JSON (from `fit`)")
        p.add_argument("--min-games", type=int, dest="min_games")
        p.add_argument("--k", type=int, help=f"components to fit (default {DEFAULT_K})")
        p.add_argument(
            "--components",
            help="comma-separated 1-based component numbers, e.g. 1,2,3,4",
        )
        p.add_argument("--top", type=int, help=f"ranking size (default {DEFAULT_TOP})")
        p.add_argument("--query", help="entity id to rank similarity against")
        p.add_argument("--membership", help="player_id,team_code CSV")
        p.add_argument("--winpct", help="team_code,win_pct CSV")
        p.add_argument(
            "--weights",
            help="component weights like 2=0.17,4=0.09 (1-based numbers)",
        )
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=FORMATS, dest="format")
    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    config_path = Path(path)
    if not config_path.exists():
        raise UsageError(f"config file not found: {config_path}")
    try:
        raw = json.loads(files.read_text(config_path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"config file {config_path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"config file {config_path} must hold a JSON object")
    unknown = set(raw) - set(CONFIG_TYPES)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        ok = _is_a(value, CONFIG_TYPES[key])
        if ok and isinstance(value, list):
            ok = all(_is_a(item, CONFIG_ITEM_TYPES[key]) for item in value)
        if not ok:
            raise UsageError(f"config key {key!r} has a value of the wrong type: {value!r}")
    if raw.get("format", FORMATS[0]) not in FORMATS:
        raise UsageError(f"config key 'format' must be one of {list(FORMATS)}")
    return raw


def _is_a(value, types: tuple[type, ...]) -> bool:
    """isinstance, except that a JSON true/false is never a number."""
    return isinstance(value, types) and not isinstance(value, bool)


def _parse_components(text: str) -> set[int]:
    try:
        numbers = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"bad --components value: {text!r}") from None
    if not numbers or any(n < 1 for n in numbers):
        raise ParameterError("--components needs 1-based component numbers")
    return {n - 1 for n in numbers}


def _parse_weights(text: str) -> dict[int, float]:
    weights: dict[int, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            number, value = part.split("=")
            weights[int(number) - 1] = float(value)
        except ValueError:
            raise ParameterError(
                f"bad --weights entry {part!r}; expected like 2=0.17"
            ) from None
    if any(c < 0 for c in weights):
        raise ParameterError("--weights needs 1-based component numbers")
    if not all(math.isfinite(w) for w in weights.values()):
        raise ParameterError(f"--weights must be finite numbers, got {text!r}")
    return weights


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over defaults.

    A needed flag in ``COMMAND_FLAGS`` that neither gives is a usage error;
    then, once every value is parsed, a file the subcommand reads that does
    not exist is a data error.
    """
    config = _load_config_file(args.config)

    def merged(key, default=None):
        value = getattr(args, key, None)
        return value if value is not None else config.get(key, default)

    needed, optional = COMMAND_FLAGS[args.command]
    for key in needed:
        if merged(key) is None:
            raise UsageError(f"missing required flag: --{key}")
    input_paths = {  # in the order the files are checked
        "players" if key == "input" else key: Path(merged(key))
        for key in ("model", "input", "membership", "winpct")
        if key in needed + optional and merged(key) is not None
    }

    components = merged("components")
    weights = merged("weights") if "weights" in optional else None

    schema = config.get(SCHEMA_KEY, ingest.DEFAULT_SCHEMA)

    resolved = RunConfig(
        input_paths=input_paths,
        filter=ingest.FilterPolicy(
            min_games=merged("min_games", 41),
            column_mode=config.get("column_mode", "all"),
            excluded_column_patterns=config.get("excluded_column_patterns", []),
        ),
        k=merged("k", DEFAULT_K),
        components_for_sdi=None if components is None else _parse_components(components),
        output_dir=Path(merged("out")),
        output_format=merged("format", "csv"),
        schema=tuple(schema),
        query=merged("query"),
        top=merged("top", DEFAULT_TOP),
        weights={} if weights is None else _parse_weights(weights),
    )
    for role, path in input_paths.items():
        if not path.exists():
            raise DataError(f"{role} file not found: {path}")
    return resolved


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------


def _load_table(config: RunConfig) -> ingest.StatTable:
    records = ingest.parse_csv(config.input_paths["players"], config.schema)
    records = ingest.apply_filter(records, config.filter)
    return ingest.build_table(records)


def _out_file(config: RunConfig, stem: str, suffix: str | None = None) -> Path:
    config.output_dir.mkdir(parents=True, exist_ok=True)
    return config.output_dir / f"{stem}.{suffix or config.output_format}"


def _emit(config: RunConfig, stem: str, records: list[dict]) -> None:
    """Write one output table in the configured format."""
    path = _out_file(config, stem)
    if config.output_format == "json":
        files.write_text(path, files.to_json(records))
    else:
        files.write_records(path, records)


def _write_scree(config: RunConfig, spectrum, total: float) -> None:
    records = []
    cumulative = 0.0
    for i in range(min(SCREE_COMPONENTS, len(spectrum))):
        cumulative += float(spectrum[i])
        records.append(
            {
                "component": i + 1,
                "variance": float(spectrum[i]),
                "cumulative_ratio": cumulative / total,
            }
        )
    _emit(config, "scree", records)


def cmd_fit(config: RunConfig) -> int:
    table = _load_table(config)
    params, standardized = pca.standardize(table, drop_constant=True)
    model = pca.fit_pca(standardized, config.k, params)
    pca.save_model(model, _out_file(config, "model", "json"))
    spectrum = pca.component_spectrum(standardized)
    _write_scree(config, spectrum, float(spectrum.sum()))
    return 0


def cmd_scree(config: RunConfig) -> int:
    table = _load_table(config)
    _, standardized = pca.standardize(table, drop_constant=True)
    spectrum = pca.component_spectrum(standardized)
    _write_scree(config, spectrum, float(spectrum.sum()))
    return 0


def _score_players(config: RunConfig) -> tuple[ingest.StatTable, pca.ScoreSet]:
    model = pca.load_model(config.input_paths["model"])
    table = _load_table(config)
    return table, pca.transform(model, table)


def _pc_names(k: int) -> list[str]:
    return [f"PC{i + 1}" for i in range(k)]


def cmd_scores(config: RunConfig) -> int:
    table, scores = _score_players(config)
    _emit(
        config,
        "scores",
        [
            {
                "entity_id": entity_id,
                "entity_name": table.entity_names[i],
                "minutes": scores.minutes[i],
                "scores": scores.scores[i].tolist(),
            }
            for i, entity_id in enumerate(scores.entity_ids)
        ],
    )
    return 0


def _team_scores(config: RunConfig) -> scoring.TeamScoreSet:
    _, scores = _score_players(config)
    membership = scoring.load_membership(config.input_paths["membership"])
    teams = scoring.team_scores(scores, membership)
    if "winpct" in config.input_paths:
        teams = scoring.with_win_pct(
            teams, scoring.load_win_pct(config.input_paths["winpct"])
        )
    return teams


def cmd_teams(config: RunConfig) -> int:
    teams = _team_scores(config)
    weighted = (
        scoring.regression_weighted_score(teams, config.weights)
        if config.weights
        else None
    )
    records = []
    for t, code in enumerate(teams.team_codes):
        record = {
            "team_code": code,
            "total_minutes": teams.total_minutes[t],
            "scores": teams.scores[t].tolist(),
        }
        if teams.win_pct is not None:
            record["win_pct"] = teams.win_pct[t]
        if weighted is not None:
            record["weighted_score"] = weighted[t]
        records.append(record)
    _emit(config, "teams", records)
    return 0


def cmd_similar(config: RunConfig) -> int:
    table, scores = _score_players(config)
    ranking = similarity.rank_similar(
        scores, config.query, config.top, config.components_for_sdi
    )
    names = dict(zip(table.entity_ids, table.entity_names))
    path = _out_file(config, "similar")
    if config.output_format == "json":
        files.write_text(path, similarity.ranking_to_json(ranking, names))
    else:
        similarity.ranking_to_csv(ranking, names, path)
    return 0


def cmd_regress(config: RunConfig) -> int:
    teams = _team_scores(config)
    fit = regression.fit_ols(
        teams.scores,
        teams.win_pct,
        term_names=_pc_names(teams.k),
    )
    txt_path = _out_file(config, "regression", "txt")
    files.write_text(txt_path, regression.summary_text(fit))
    path = _out_file(config, "regression")
    if config.output_format == "json":
        files.write_text(path, regression.summary_json(fit))
    else:
        regression.summary_csv(fit, path)
    return 0


COMMANDS = {
    "fit": cmd_fit,
    "scree": cmd_scree,
    "scores": cmd_scores,
    "teams": cmd_teams,
    "similar": cmd_similar,
    "regress": cmd_regress,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = resolve_config(args)
        return COMMANDS[args.command](config)
    except StatspaceError as exc:
        return _fail(exc, exc.exit_code)
    except OSError as exc:
        return _fail(exc, DataError.exit_code)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return _fail(exc, NumericalError.exit_code)
    except Exception as exc:  # a defect here; still one JSON line, not a traceback
        return _fail(exc, StatspaceError.exit_code)


def _fail(exc: Exception, code: int) -> int:
    categories = {2: "usage", 3: "data", 4: "numerical"}
    category = categories.get(code, "internal")
    line = json.dumps(
        {
            # the type names an internal fault, which no message was written for
            "error": f"{type(exc).__name__}: {exc}" if category == "internal" else str(exc),
            "category": category,
            "exit_code": code,
        }
    )
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
