"""The two workloads, their untraced and traced runs, and per-layer metrics.

``run.py`` imports this module only after it has started the spawn helper
(see ``spawn.py``) and put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import io
import os
import platform
import shutil
import statistics
import time
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import gen
import spans
import verify
from spawn import Spawner
from statspace import cli, ingest, pca, regression, scoring, similarity

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"

START = time.perf_counter()
DEADLINE_S = 150.0  # start no new chain after this; a run must end within 180 s
SETUP_REPEATS = 3
PROBE_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

CHAIN = ("fit", "scree", "scores", "teams", "similar", "regress")
OUTPUTS = {
    "fit": ("model.json", "scree.{fmt}"),
    "scree": ("scree.{fmt}",),
    "scores": ("scores.{fmt}",),
    "teams": ("teams.{fmt}",),
    "similar": ("similar.{fmt}",),
    "regress": ("regression.txt", "regression.{fmt}"),
}
WEIGHTS = "2=0.17,4=0.09"
TOP = 5

# (metrics by name, operations attempted, operations failed)
Outcome = tuple[dict[str, float], int, int]


@dataclass(frozen=True)
class CliWorkload:
    """A chain of fresh ``python -m statspace.cli`` processes over one input."""

    name: str
    n_players: int
    rate_only: bool
    fmt: str
    # Sizes the work: a run does round(seconds / chain_s) chains, a number
    # fixed by --seconds alone, so every commit does the same work. At 40 s
    # that is 6 season chains and 4 archive chains.
    chain_s: float


WORKLOADS = {
    w.name: w
    for w in (
        # one season at the paper's scale; start-up and imports dominate
        CliWorkload("season-cli", 500, False, "csv", 6.5),
        # many seasons, rate-only columns, JSON out; ingest dominates
        CliWorkload("archive-cli", 10_000, True, "json", 10.0),
    )
}


def median(values) -> float:
    return float(statistics.median(values))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def probe_seconds(spawner: Spawner, *args: str) -> float:
    return median(spawner.python(*args)[0]["elapsed"] for _ in range(PROBE_REPEATS))


def startup_probes(spawner: Spawner) -> dict[str, float]:
    """Bare interpreter start, and ``import statspace.cli`` on top of it."""
    interpreter = probe_seconds(spawner, "-c", "pass")
    imported = probe_seconds(spawner, "-c", "import statspace.cli")
    return {"cli.interpreter_s": interpreter, "cli.import_s": imported - interpreter}


def environment(spawner: Spawner) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    libs = glob.glob(os.path.join(libs_dir, "libscipy_openblas*"))
    if libs:
        getter = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu = next(models, "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cli.interpreter_s": probe_seconds(spawner, "-c", "pass"),
    }


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def chain_argvs(w: CliWorkload, inputs: dict[str, Path], out: Path, query: str) -> list[list[str]]:
    common = ["--input", str(inputs["players"]), "--out", str(out)]
    if w.rate_only:
        common += ["--config", str(inputs["config"])]
    if w.fmt == "json":
        common += ["--format", "json"]
    model = ["--model", str(out / "model.json")]
    team_files = ["--membership", str(inputs["membership"]), "--winpct", str(inputs["winpct"])]
    extra = {
        "fit": [],
        "scree": [],
        "scores": model,
        "teams": model + team_files + ["--weights", WEIGHTS],
        "similar": model + ["--query", query, "--top", str(TOP)],
        "regress": model + team_files,
    }
    return [[command, *extra[command], *common] for command in CHAIN]


def output_paths(w: CliWorkload, command: str, out: Path) -> list[Path]:
    return [out / name.format(fmt=w.fmt) for name in OUTPUTS[command]]


def output_digests(w: CliWorkload, command: str, out: Path) -> dict[str, str | None]:
    return {p.name: sha256(p) if p.is_file() else None for p in output_paths(w, command, out)}


class CliSession:
    """Inputs of one CLI run, plus verdicts on the outputs seen so far."""

    def __init__(self, w: CliWorkload, seed: int, spawner: Spawner):
        self.w = w
        # (input generation and writing, warm-up import) per set-up; the first
        # part is the benchmark's own work, only the second runs the program
        self.setups: list[tuple[float, float]] = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            players = gen.make_players(seed, w.n_players)
            self.inputs = gen.write_inputs(players, WORK / w.name / "inputs", w.rate_only)
            written = time.perf_counter()
            spawner.python("-c", "import statspace.cli")  # byte-code and page caches
            self.setups.append((written - start, time.perf_counter() - written))
        sources = sorted(players.duplicate_of.values())
        self.query = sources[np.random.default_rng(seed).integers(len(sources))]
        reference = verify.Reference(players, w.rate_only, k=4)
        weights = {int(c) - 1: float(v) for c, v in (p.split("=") for p in WEIGHTS.split(","))}
        self.checker = verify.ChainChecker(reference, w.fmt, self.query, TOP, weights)
        self.first: dict[str, dict] = {}
        self.verdicts: dict[tuple, list[str]] = {}
        self.digests: list[dict] = []

    def judge(self, command: str, out: Path, status: int, stderr: str) -> list[str]:
        """Problems with one finished operation; checks each distinct output once."""
        problems = verify.process_problems(command, status, stderr)
        digests = output_digests(self.w, command, out)
        self.digests.append({command: digests})
        if any(d is None for d in digests.values()):
            return problems + [f"{command}: missing output {digests}"]
        key = (command, tuple(sorted(digests.items())))
        if key not in self.verdicts:
            self.verdicts[key] = self.checker.check(command, out)
        problems += self.verdicts[key]
        first = self.first.setdefault(command, digests)
        if digests != first:
            problems.append(f"{command}: output differs from the first chain")
        return problems


def run_cli(w: CliWorkload, seed: int, seconds: int, spawner: Spawner) -> tuple[Outcome, dict]:
    session = CliSession(w, seed, spawner)
    env = environment(spawner)
    out = WORK / w.name / "out"
    planned = max(1, round(seconds / w.chain_s))
    ops: list[dict] = []
    problems: list[str] = []
    for _ in range(planned):
        if time.perf_counter() - START > DEADLINE_S:
            break
        shutil.rmtree(out, ignore_errors=True)
        for argv in chain_argvs(w, session.inputs, out, session.query):
            reply, stderr = spawner.python("-m", "statspace.cli", *argv)
            found = session.judge(argv[0], out, reply["status"], stderr)
            ops.append({"command": argv[0], **reply, "ok": not found})
            problems += found

    done = len(ops) // len(CHAIN)
    elapsed = [op["elapsed"] for op in ops]
    chains = [sum(elapsed[i * len(CHAIN) : (i + 1) * len(CHAIN)]) for i in range(done)]
    per_command = {c: median(op["elapsed"] for op in ops if op["command"] == c) for c in CHAIN}
    metrics = {
        "setup_s": median(gen_s + import_s for gen_s, import_s in session.setups),
        # fixed work: scaled up if the deadline cut the run short
        "wall_s": sum(elapsed) * planned * len(CHAIN) / len(ops),
        # one operation is one fresh process. Its median is taken per
        # subcommand and then averaged: the subcommands' times form clusters,
        # and a median over all processes would jump between them.
        "op_p50_ms": 1000.0 * statistics.fmean(per_command.values()),
        "peak_rss_mb": max(op["maxrss_kb"] for op in ops) / 1024.0,
    }
    detail = {
        "setup_gen_s": median(gen_s for gen_s, _ in session.setups),
        "setup_import_s": median(import_s for _, import_s in session.setups),
        "chain_s": median(chains),
        **{f"{c}_s": t for c, t in per_command.items()},
        "error_rate": sum(not op["ok"] for op in ops) / len(ops),
        "chains": done,
        "chains_planned": planned,
    }
    report = {
        "environment": env,
        "workload": detail,
        "ops": ops,
        "digests": session.digests[: len(CHAIN)],
        "problems": problems,
    }
    return (metrics, len(ops), sum(not op["ok"] for op in ops)), report


def run_cli_traced(w: CliWorkload, seed: int, spawner: Spawner) -> tuple[Outcome, dict]:
    """One chain in-process untraced, then one traced; per-layer metrics."""
    session = CliSession(w, seed, spawner)
    env = environment(spawner)
    probes = startup_probes(spawner)

    def chain(tracer: spans.Tracer | None) -> tuple[float, list[dict], int]:
        out = WORK / w.name / "out"
        shutil.rmtree(out, ignore_errors=True)
        ops, total, written = [], 0.0, 0
        for index, argv in enumerate(chain_argvs(w, session.inputs, out, session.query)):
            stderr = io.StringIO()
            start = time.perf_counter()
            with redirect_stderr(stderr):
                if tracer is None:
                    status = cli.main(argv)
                else:
                    tracer.op = index
                    with tracer.span("cli.main"):
                        status = cli.main(argv)
            total += time.perf_counter() - start
            found = session.judge(argv[0], out, status, stderr.getvalue())
            written += sum(p.stat().st_size for p in output_paths(w, argv[0], out) if p.is_file())
            ops.append({"command": argv[0], "status": status, "ok": not found, "problems": found})
        return total, ops, written

    with redirect_stderr(io.StringIO()):
        cli.main(chain_argvs(w, session.inputs, WORK / w.name / "out", session.query)[1])  # warm-up
    untraced_s, untraced_ops, _ = chain(None)
    tracer = spans.Tracer()
    with spans.installed(layer_patches(tracer)):
        traced_s, traced_ops, written = chain(tracer)
    ops = untraced_ops + traced_ops

    metrics = layer_metrics(tracer, probes, written)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    in_process = sum(s.end - s.start for s in tracer.spans if s.name == "cli.main")
    fresh = in_process + len(CHAIN) * (probes["cli.interpreter_s"] + probes["cli.import_s"])
    ingest_s = sum(metrics[f"ingest.{f}_s"] for f in ("parse_csv", "apply_filter", "build_table"))
    metrics["ingest.op_share"] = ingest_s / fresh
    report = {
        "environment": env,
        "workload": {"untraced_chain_s": untraced_s, "traced_chain_s": traced_s},
        "ops": ops,
        "digests": session.digests,
        "problems": [p for op in ops for p in op["problems"]],
        "trace": tracer.to_json(),
    }
    return (metrics, len(ops), sum(not op["ok"] for op in ops)), report


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Wrapped functions, as span names. Each gives <name>_s (summed self time) and
# <name>_spans (span count); the span around cli.main reports as cli.self.
SPANS = (
    "cli.main",
    "ingest.parse_csv",
    "ingest.apply_filter",
    "ingest.build_table",
    "pca.standardize",
    "pca.fit_pca",
    "pca.component_spectrum",
    "pca.transform",
    "pca.load_model",
    "pca.save_model",
    "scoring.load_membership",
    "scoring.load_win_pct",
    "scoring.team_scores",
    "scoring.regression_weighted_score",
    "similarity.rank_similar",
    "similarity.emit",
    "regression.fit_ols",
    "regression.emit",
)
COUNTS = (
    "ingest.parse_calls",
    "ingest.rows_parsed",
    "ingest.rows_kept",
    "ingest.cells_parsed",
    "pca.eigendecompositions",
    "similarity.pairs_evaluated",
    "regression.t_cdf_calls",
)


def _parsed(records, *args, **kwargs) -> dict[str, int]:
    width = len(records[0].stats) + 5 if records else 0
    return {
        "ingest.parse_calls": 1,
        "ingest.rows_parsed": len(records),
        "ingest.cells_parsed": len(records) * width,
    }


def _kept(records, *args, **kwargs) -> dict[str, int]:
    return {"ingest.rows_kept": len(records)}


def _ranked(ranking, scores, *args, **kwargs) -> dict[str, int]:
    return {"similarity.pairs_evaluated": len(scores.entity_ids) - 1}


def layer_patches(tracer) -> list[tuple[object, str, object]]:
    """Wrappers for every public function the per-layer metrics time."""
    modules = {m.__name__.split(".")[-1]: m for m in (ingest, pca, scoring, similarity, regression)}
    counted = {
        "ingest.parse_csv": _parsed,
        "ingest.apply_filter": _kept,
        "similarity.rank_similar": _ranked,
    }
    emitters = {
        "similarity": ("ranking_to_csv", "ranking_to_json"),
        "regression": ("summary_text", "summary_json", "summary_csv"),
    }
    patches = []
    for span in SPANS:
        layer, name = span.split(".")
        if layer == "cli":
            continue
        module = modules[layer]
        for attr in emitters[layer] if name == "emit" else (name,):
            wrapper = tracer.timed(getattr(module, attr), span, counted.get(span))
            patches.append((module, attr, wrapper))
    for attr in ("eigh", "eigvalsh"):
        wrapper = tracer.counting(getattr(np.linalg, attr), "pca.eigendecompositions")
        patches.append((np.linalg, attr, wrapper))
    wrapper = tracer.counting(regression.t_cdf, "regression.t_cdf_calls")
    patches.append((regression, "t_cdf", wrapper))
    return patches


def layer_metrics(
    tracer: spans.Tracer, probes: dict[str, float], bytes_written: int = 0
) -> dict[str, float]:
    totals = dict.fromkeys(SPANS, 0.0)
    counts = dict.fromkeys(SPANS, 0)
    for span, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        totals[span.name] += own
        counts[span.name] += 1
    metrics: dict[str, float] = dict(probes)
    for name in SPANS:
        stem = "cli.self" if name == "cli.main" else name
        metrics[f"{stem}_s"] = totals[name]
        metrics[f"{stem}_spans"] = counts[name]
    for name in COUNTS:
        metrics[name] = tracer.counts[name]
    parsed = metrics["ingest.rows_parsed"]
    metrics["ingest.rows_per_s"] = parsed / totals["ingest.parse_csv"] if parsed else 0.0
    metrics["ingest.kept_ratio"] = metrics["ingest.rows_kept"] / parsed if parsed else 0.0
    pairs, pair_s = metrics["similarity.pairs_evaluated"], totals["similarity.rank_similar"]
    metrics["similarity.pairs_per_s"] = pairs / pair_s if pair_s else 0.0
    metrics["cli.bytes_written"] = bytes_written
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def run(name: str, seed: int, seconds: int, traced: bool, spawner: Spawner) -> tuple[Outcome, dict]:
    """One run of a workload: its outcome and the full report."""
    w = WORKLOADS[name]
    return run_cli_traced(w, seed, spawner) if traced else run_cli(w, seed, seconds, spawner)
