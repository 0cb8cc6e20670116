"""Command-line pipeline: fit, scores, teams, similar, regress, scree.

Every subcommand reads CSV inputs, runs the corresponding library calls, and
writes plot-ready data files into the output directory. Outputs are
deterministic: identical inputs and configuration produce byte-identical
files. Numeric cells use shortest round-trip decimal form except in the
human-readable regression table.

Each subcommand keeps what it computed in the output directory's caches
(see ``cache``): the players table, and the players' scores on the model.
numpy is imported only by the code that computes, so ``--help``, a usage
error, and ``scores`` or ``similar`` that find the scores cached, never
load it.

Each flag is declared once, in ``FLAGS``, and each subcommand once, in
``SUBCOMMANDS``: the parser, the config-file check and ``resolve_config``
derive from them. A config file gives flags by name, and ``CONFIG_ONLY``.

Exit codes: 0 success, 1 internal error, 2 usage error, 3 data/validation
error, 4 numerical error. Failures also emit one machine-parseable JSON line
on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from itertools import accumulate
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn, Sequence

# Modules that import numpy are imported where they run.
from . import cache, files
from .errors import (
    JSON_TYPES,
    DataError,
    NumericalError,
    ParameterError,
    StatspaceError,
    UsageError,
    listed,
    quoted,
    quoted_path,
)
from .table import DEFAULT_SCHEMA, FilterPolicy, StatTable, _roles

# One BLAS thread unless the caller chose a number. The matrices here are a
# few hundred columns wide at most, so a thread pool gains nothing, and
# starting it slows every process. OpenBLAS reads these when numpy loads it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

SCREE_COMPONENTS = 10


class RunConfig(NamedTuple):
    """Resolved settings for one subcommand; a flag it does not use is None."""

    input_paths: dict[str, Path]
    filter: FilterPolicy
    k: int | None
    components_for_sdi: set[int] | None
    output_dir: Path
    output_format: str
    schema: tuple[str, ...]
    query: str | None
    top: int | None
    weights: dict[int, float] | None


class Flag(NamedTuple):
    """A command-line flag, which a config file may give under the same name."""

    type: type  # int or str
    default: int | str | None = None  # None: unset
    help: str | None = None
    choices: tuple[str, ...] | None = None


FLAGS = {
    "input": Flag(str, help="players CSV"),
    "model": Flag(str, help="fitted model JSON (from `fit`)"),
    "min_games": Flag(int, FilterPolicy().min_games, "fewest games played to keep a player"),
    "k": Flag(int, 4, "components to fit"),
    "components": Flag(str, help="comma-separated 1-based component numbers, e.g. 1,2,3,4"),
    "top": Flag(int, 5, "ranking size"),
    "query": Flag(str, help="entity id to rank similarity against"),
    "membership": Flag(str, help="player_id,team_code CSV"),
    "winpct": Flag(str, help="team_code,win_pct CSV"),
    "weights": Flag(str, help="component weights like 2=0.17,4=0.09 (1-based numbers)"),
    "out": Flag(str, help="output directory"),
    "format": Flag(str, "csv", "output file format", ("csv", "json")),
}
# Config-file keys that no flag sets, with the type of each value.
CONFIG_ONLY = {"column_mode": str, "excluded_column_patterns": list, "schema": list}


class Subcommand(NamedTuple):
    """A subcommand: its step, which writes each of its outputs, and help
    text, the flags it needs, then the files and values it reads if given
    (as flags or config keys)."""

    run: Callable[[RunConfig], None]
    help: str
    needs: tuple[str, ...]
    reads: tuple[str, ...] = ()


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage text and exit 2."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; only the subcommand ``command`` gets its flags."""
    parser = _Parser(
        prog="statspace",
        description="Reduce per-player statistics to principal components, "
        "score players and teams, rank similarity, and regress outcomes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, subcommand in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=subcommand.help)
        if name != command:
            continue  # the flags of a subcommand not run are never parsed
        p.add_argument("--config", help="JSON file supplying any flag (flags win)")
        for key, flag in FLAGS.items():
            help_text = flag.help
            if help_text and flag.default is not None:
                help_text += f" (default {flag.default})"
            p.add_argument(
                "--" + key.replace("_", "-"), type=flag.type, choices=flag.choices, help=help_text
            )
    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    shown = quoted_path(Path(path))
    try:
        text = files.read_text(files.read_bytes(Path(path)))
    except FileNotFoundError:
        raise UsageError(f"config file not found: {shown}") from None
    except (OSError, DataError) as exc:  # a directory, say, or bytes not UTF-8
        raise UsageError(f"config file {shown} cannot be read: {_error_text(exc)}") from None
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or an int too long
        raise UsageError(f"config file {shown} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"config file {shown} must hold a JSON object")
    types = {key: flag.type for key, flag in FLAGS.items()} | CONFIG_ONLY
    unknown = set(raw) - set(types)
    if unknown:
        raise UsageError(f"unknown config keys: {listed(sorted(unknown))}")
    for key, value in raw.items():
        kind = types[key]
        if type(value) is not kind:  # a JSON true/false is no integer here
            raise UsageError(
                f"config key {key!r} is {JSON_TYPES[type(value)]}, expected {JSON_TYPES[kind]}"
            )
        if kind is list and not all(type(item) is str for item in value):
            raise UsageError(f"config key {key!r} must list strings")
        # a path with a NUL fails only when it is opened, as a ValueError
        if "\0" in ("".join(value) if isinstance(value, list) else str(value)):
            raise UsageError(f"config key {key!r} holds a NUL character")
    for key, flag in FLAGS.items():
        if flag.choices and raw.get(key, flag.default) not in flag.choices:
            raise UsageError(f"config key {key!r} must be one of {list(flag.choices)}")
    return raw


def _parse_components(text: str) -> set[int]:
    try:
        numbers = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"bad --components value: {quoted(text)}") from None
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
            component, weight = int(number) - 1, float(value)
        except ValueError:
            raise ParameterError(
                f"bad --weights entry {quoted(part)}; expected like 2=0.17"
            ) from None
        if component in weights:
            raise ParameterError(f"--weights gives component {component + 1} more than once")
        weights[component] = weight
    if not weights:
        raise ParameterError(f"--weights needs entries like 2=0.17, got {quoted(text)}")
    if any(c < 0 for c in weights):
        raise ParameterError("--weights needs 1-based component numbers")
    if not all(math.isfinite(w) for w in weights.values()):
        raise ParameterError(f"--weights must be finite numbers, got {quoted(text)}")
    return weights


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over defaults.

    A flag the subcommand needs that neither gives is a usage error, and so
    is a value out of the range that needs no data, or an ``--out`` that is,
    or lies under, an existing file; then, once every value is parsed, a
    file the subcommand reads that does not exist, or is a directory, is a
    data error. All of
    this comes before any file is read. A flag the subcommand does not use
    goes unchecked, so one config serves the chain.
    """
    config = _load_config_file(args.config)
    command = SUBCOMMANDS[args.command]

    def merged(key):
        value = getattr(args, key)
        return value if value is not None else config.get(key, FLAGS[key].default)

    def used(key):
        return merged(key) if key in command.needs + command.reads else None

    for key in command.needs:
        if used(key) is None:
            raise UsageError(f"missing required flag: --{key}")
    input_paths = {  # in the order the files are checked
        "players" if key == "input" else key: Path(path)
        for key in ("model", "input", "membership", "winpct")
        if (path := used(key)) is not None
    }
    for key in ("k", "top"):
        if used(key) is not None and used(key) < 1:
            raise ParameterError(f"{key} must be >= 1, got {used(key)}")
    output_dir = Path(used("out"))
    existing = next(path for path in (output_dir, *output_dir.parents) if path.exists())
    if not existing.is_dir():
        out, taken = quoted_path(output_dir), quoted_path(existing)
        raise UsageError(f"output directory {out}: {taken} is not a directory")

    schema = tuple(config.get("schema", DEFAULT_SCHEMA))
    _roles(schema)  # 4 or 5 names, none repeated
    # a filter setting that is not given is left to FilterPolicy's default
    given = {**config, "min_games": merged("min_games")}
    settings = ("min_games", "column_mode", "excluded_column_patterns")
    policy = FilterPolicy(**{s: given[s] for s in settings if given.get(s) is not None})
    components, weights = used("components"), used("weights")

    resolved = RunConfig(
        input_paths=input_paths,
        filter=policy,
        k=used("k"),
        components_for_sdi=None if components is None else _parse_components(components),
        output_dir=output_dir,
        output_format=merged("format"),
        schema=schema,
        query=used("query"),
        top=used("top"),
        weights=None if weights is None else _parse_weights(weights),
    )
    for role, path in input_paths.items():
        if not path.exists():
            raise DataError(f"{role} file not found: {quoted_path(path)}")
        if path.is_dir():  # not `is_file()`: a pipe such as `<(zcat ...)` is read
            raise DataError(f"{role} file is a directory: {quoted_path(path)}")
    return resolved


# ---------------------------------------------------------------------------
# Pipeline pieces
# ---------------------------------------------------------------------------


def _store(config: RunConfig) -> cache.Store:
    return cache.Store(
        config.input_paths["players"], config.output_dir, config.schema, config.filter
    )


def _out_file(config: RunConfig, stem: str, suffix: str | None = None) -> Path:
    config.output_dir.mkdir(parents=True, exist_ok=True)
    return config.output_dir / f"{stem}.{suffix or config.output_format}"


def _emit(config: RunConfig, stem: str, columns: dict) -> None:
    """Write one output table, given column by column, in the configured format."""
    files.write_table(_out_file(config, stem), columns, config.output_format)


def cmd_fit(config: RunConfig) -> None:
    """Fit and save the model and cache the players' scores on it, then
    write the scree data. ``scree`` runs this too: it reads no ``k``, so it
    fits no model."""
    from . import pca

    store = _store(config)
    table = store.table()
    params, standardized = pca.standardize(table)
    model = None if config.k is None else pca.fit_pca(standardized, config.k, params)
    spectrum = pca.component_spectrum(standardized)
    del standardized  # freed before transform standardizes the table anew
    if model is not None:
        written = pca.save_model(model, _out_file(config, "model", "json"))
        store.keep_scores(written, pca.transform(model, table))
    total = float(spectrum.sum())
    variance = spectrum[:SCREE_COMPONENTS].tolist()
    cumulative = list(accumulate(variance, initial=0.0))[1:]
    _emit(
        config,
        "scree",
        {
            "component": list(range(1, len(variance) + 1)),
            "variance": variance,
            "cumulative_ratio": [c / total for c in cumulative],
        },
    )


def _score_players(config: RunConfig) -> StatTable:
    """The players' scores on the model, cached or projected.
    ``--components`` and ``--weights`` are checked against the model's k
    before any parse."""
    model = config.input_paths["model"]
    return _store(config).scores(model, lambda k: _check_components(config, k))


def _check_components(config: RunConfig, k: int) -> None:
    """``--components`` and ``--weights`` name components of a model of k;
    a failure names the 1-based numbers given."""
    for flag, chosen in (("components", config.components_for_sdi), ("weights", config.weights)):
        beyond = sorted(c + 1 for c in chosen or () if c >= k)
        if beyond:
            raise ParameterError(f"--{flag} numbers {beyond} out of range for k={k}")


def cmd_scores(config: RunConfig) -> None:
    players = _score_players(config)
    _emit(
        config,
        "scores",
        {
            "entity_id": players.entity_ids,
            "entity_name": players.entity_names,
            "minutes": players.minutes,
            "scores": players,
        },
    )


def _team_scores(config: RunConfig) -> tuple[StatTable, list[float] | None]:
    """The teams' profiles, and their win% where ``--winpct`` is given."""
    from . import scoring

    players = _score_players(config)
    membership = scoring.load_membership(config.input_paths["membership"])
    teams = scoring.team_scores(players, membership)
    if "winpct" not in config.input_paths:
        return teams, None
    win_pct = scoring.load_win_pct(config.input_paths["winpct"])
    return teams, scoring.team_win_pct(teams, win_pct)


def cmd_teams(config: RunConfig) -> None:
    from . import scoring
    teams, win_pct = _team_scores(config)
    columns = {
        "team_code": teams.entity_ids,
        "total_minutes": teams.minutes,
        "scores": teams,
    }
    if win_pct is not None:
        columns["win_pct"] = win_pct
    if config.weights:
        columns["weighted_score"] = scoring.regression_weighted_score(teams, config.weights)
    _emit(config, "teams", columns)


def cmd_similar(config: RunConfig) -> None:
    from . import similarity
    players = _score_players(config)
    ranking = similarity.rank_similar(
        players, config.query, config.top, config.components_for_sdi
    )
    names = dict(zip(players.entity_ids, players.entity_names))
    write = getattr(similarity, "ranking_to_" + config.output_format)
    write(ranking, names, _out_file(config, "similar"))


def cmd_regress(config: RunConfig) -> None:
    from . import regression
    teams, win_pct = _team_scores(config)
    fit = regression.fit_ols(teams.values, win_pct, term_names=teams.stat_names)
    regression.summary_text(fit, _out_file(config, "regression", "txt"))
    write = getattr(regression, "summary_" + config.output_format)
    write(fit, _out_file(config, "regression"))


SUBCOMMANDS = {
    "fit": Subcommand(
        cmd_fit, "fit a component model and write model + scree data", ("out", "input"), ("k",)
    ),
    "scree": Subcommand(
        cmd_fit, "write per-component variance data without saving a model", ("out", "input")
    ),
    "scores": Subcommand(
        cmd_scores, "project players onto a fitted model", ("out", "input", "model")
    ),
    "teams": Subcommand(
        cmd_teams, "aggregate player scores into minutes-weighted team scores",
        ("out", "input", "model", "membership"), ("winpct", "weights"),
    ),
    "similar": Subcommand(
        cmd_similar, "rank entities by statistical similarity to a query",
        ("out", "input", "model", "query"), ("top", "components"),
    ),
    "regress": Subcommand(
        cmd_regress, "regress winning percentage on team component scores",
        ("out", "input", "model", "membership", "winpct"),
    ),
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code. Its warnings are held
    until it succeeds, then issued; a failure drops them, so its JSON line is
    all it prints."""
    with warnings.catch_warnings(record=True) as held:
        try:
            argv = sys.argv[1:] if argv is None else list(argv)
            args = build_parser(argv[0] if argv else None).parse_args(argv)
            config = resolve_config(args)
            SUBCOMMANDS[args.command].run(config)
        except StatspaceError as exc:
            return _fail(exc, exc.exit_code)
        except OSError as exc:
            return _fail(DataError(_error_text(exc)), DataError.exit_code)
        except (ValueError, ArithmeticError) as exc:
            return _fail(exc, NumericalError.exit_code)
        except Exception as exc:
            # only numpy raises its LinAlgError, so numpy is loaded if this is one
            linalg = sys.modules.get("numpy.linalg")
            if linalg is not None and isinstance(exc, linalg.LinAlgError):
                return _fail(exc, NumericalError.exit_code)
            return _fail(exc, StatspaceError.exit_code)  # a defect; still one JSON line
    for warning in held:
        warnings.warn_explicit(warning.message, warning.category, warning.filename, warning.lineno)
    return 0


def _error_text(exc: Exception) -> str:
    """``str(exc)``, with each file name an OSError holds as ``quoted_path``
    shows it: whole and quoted, or cut."""
    text = str(exc)
    for name in (getattr(exc, "filename", None), getattr(exc, "filename2", None)):
        text = text.replace(repr(name), quoted_path(name, repr))
    return text


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


def console_main() -> NoReturn:
    """The process entry: ``main``, then flush and end the process at once.

    Every output file is closed when ``main`` returns, so the interpreter's
    teardown (module cleanup, final collections, freeing every object) would
    only cost time; ``atexit`` hooks do not run. A ``SystemExit`` from
    ``main`` (``--help``) and a flush that fails take the usual exit path.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except (OSError, ValueError):  # a broken pipe or a closed stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
