"""The statspace benchmark: two workloads, checked outputs, an optional trace.

Run one workload from the root of a statspace checkout::

    python3 perfbench/run.py --workload season-cli --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped; ``--trace 1``
is the separate traced run that reports per-layer metrics. Every operation's
output is checked against an independent numpy computation. The last stdout
line is the result: ``{"correct", "attempted", "failed", "metrics"}``. A fuller
report (environment, per-subcommand timings, output digests, problems, spans)
goes to ``perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import time
from pathlib import Path

from spawn import Spawner

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
RUN_LIMIT_S = 170.0  # every child must end by then; a run may take 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def result_line(spec: dict, outcome: tuple[dict[str, float], int, int], traced: bool) -> dict:
    """The result object: the metrics BENCHMARK.json names, with their units."""
    metrics, attempted, failed = outcome
    named = spec["per_layer" if traced else "end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in named},
    }


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "statspace" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no statspace sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[a-z][a-z0-9-]*", args.workload):
        parser.error(f"bad workload name {args.workload!r}")

    work = BENCH / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # started before numpy is imported, so children's peak RSS is their own
    spawner = Spawner(child_env(), ROOT, work / "child.stderr", time.perf_counter() + RUN_LIMIT_S)
    try:
        sys.path.insert(0, str(SRC))
        import workloads

        if Path(workloads.cli.__file__).resolve().parent != SRC / "statspace":
            print(f"error: statspace imported from outside {SRC}", file=sys.stderr)
            return 2
        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        outcome, report = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), spawner
        )
    finally:
        spawner.close()

    result = result_line(spec, outcome, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_doc = report.pop("trace", None)
    if trace_doc is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(trace_doc) + "\n", encoding="utf-8")
    report = {"args": vars(args), "result": result, "metrics": outcome[0], **report}
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": report["environment"]}))
    print(json.dumps({"workload": report["workload"], "problems": report["problems"][:5]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
