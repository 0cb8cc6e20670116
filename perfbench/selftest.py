"""Self-test of the benchmark's own parts (not of statspace).

Run from the root of a statspace checkout::

    python3 perfbench/selftest.py

It checks that the generator is a pure function of its seed, that the
verifier flags a corrupted output and a failed process, that self time is
right on a hand-built span tree, and that every metric BENCHMARK.json names
(plus the per-workload figures in the report) is emitted with its unit.
Workloads here are shrunk so the whole test takes well under a minute.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import time
import unittest
from contextlib import redirect_stderr
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from spawn import Spawner  # noqa: E402
from statspace import cli, ingest  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SCRATCH = workloads.WORK / "selftest"


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a, b = gen.make_players(11, 300), gen.make_players(11, 300)
        self.assertEqual(a.csv_text, b.csv_text)
        self.assertEqual(a.membership, b.membership)
        self.assertEqual(a.win_pct, b.win_pct)
        self.assertNotEqual(a.csv_text, gen.make_players(12, 300).csv_text)

    def test_membership_lists_exactly_the_rows_the_filter_keeps(self):
        players = gen.make_players(5, 400)
        parsed = ingest.parse_csv(io.StringIO(players.csv_text))
        records = ingest.apply_filter(parsed, ingest.FilterPolicy())
        self.assertEqual([r.player_id for r in records], players.kept_ids)
        self.assertEqual(set(players.membership), set(players.kept_ids))
        teams = {r.team_code for r in parsed}
        self.assertIn("TOT", teams)
        self.assertTrue(players.duplicate_of)


class VerifierTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        cls.players = gen.make_players(3, 300)
        cls.inputs = gen.write_inputs(cls.players, SCRATCH / "inputs", rate_only=False)
        cls.out = SCRATCH / "out"
        w = workloads.WORKLOADS["season-cli"]
        cls.query = sorted(cls.players.duplicate_of.values())[0]
        for argv in workloads.chain_argvs(w, cls.inputs, cls.out, cls.query):
            with redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0, argv

    def checker(self):
        ref = verify.Reference(self.players, rate_only=False, k=4)
        return verify.ChainChecker(ref, "csv", self.query, workloads.TOP, {1: 0.17, 3: 0.09})

    def test_clean_chain_passes(self):
        checker = self.checker()
        for command in workloads.CHAIN:
            self.assertEqual(checker.check(command, self.out), [], command)

    def test_corrupted_scores_are_flagged(self):
        checker = self.checker()
        checker.check("fit", self.out)
        bad = SCRATCH / "bad"
        shutil.copytree(self.out, bad, dirs_exist_ok=True)
        lines = (bad / "scores.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[7].rstrip("\n").split(",")
        cells[-1] = repr(float(cells[-1]) + 1e-6)
        lines[7] = ",".join(cells) + "\n"
        (bad / "scores.csv").write_text("".join(lines), encoding="utf-8")
        problems = checker.check("scores", bad)
        self.assertTrue(any("scores" in p for p in problems), problems)

    def test_failed_process_is_flagged(self):
        line = json.dumps({"error": "boom", "category": "data", "exit_code": 3})
        self.assertEqual(len(verify.process_problems("teams", 3, line + "\n")), 2)
        self.assertEqual(verify.process_problems("teams", 0, "a warning\n"), [])

    def test_missing_output_is_flagged(self):
        problems = self.checker().check("similar", SCRATCH / "nowhere")
        self.assertTrue(problems)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        tree = [
            spans.Span("root", 0.0, 10.0, None, 0),
            spans.Span("a", 1.0, 4.0, 0, 0),
            spans.Span("a.child", 2.0, 3.0, 1, 0),
            spans.Span("b", 5.0, 9.0, 0, 0),
            spans.Span("other-op", 20.0, 21.5, None, 1),
        ]
        self.assertEqual(spans.self_times(tree), [3.0, 2.0, 1.0, 4.0, 1.5])

    def test_overlapping_children_are_not_counted_twice(self):
        tree = [
            spans.Span("root", 0.0, 10.0, None, 0),
            spans.Span("x", 1.0, 6.0, 0, 0),
            spans.Span("y", 4.0, 12.0, 0, 0),
        ]
        self.assertEqual(spans.self_times(tree)[0], 1.0)

    def test_tracer_records_parent_and_restores_patches(self):
        import numpy as np

        tracer = spans.Tracer()
        original = np.linalg.eigh
        with spans.installed(workloads.layer_patches(tracer)):
            with tracer.span("cli.main"):
                csv_text = "player_id,player_name,team,games_played,minutes,s\np,P,T,50,10,1\n"
                ingest.parse_csv(io.StringIO(csv_text))
        self.assertIs(np.linalg.eigh, original)
        self.assertEqual([s.parent for s in tracer.spans], [None, 0])
        self.assertEqual(tracer.counts["ingest.rows_parsed"], 1)


class MetricsTest(unittest.TestCase):
    """Shrunk workloads through the real runners; every named metric appears."""

    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        deadline = time.perf_counter() + 170
        cls.spawner = Spawner(run.child_env(), run.ROOT, SCRATCH / "child.stderr", deadline)

    @classmethod
    def tearDownClass(cls):
        cls.spawner.close()

    def assert_metrics(self, outcome, kind):
        """Every metric BENCHMARK.json names for this kind of run, with a number."""
        self.assertLessEqual({m["name"] for m in SPEC[kind]}, set(outcome[0]))
        result = run.result_line(SPEC, outcome, kind == "per_layer")
        self.assertTrue(result["correct"], result)
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], UNITS[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return outcome[0]

    def test_every_spec_workload_exists(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))

    def test_cli_workload(self):
        w = workloads.CliWorkload("selftest-cli", 300, True, "json", 1.0)
        result, report = workloads.run_cli(w, 4, 1, self.spawner)
        self.assert_metrics(result, "end_to_end")
        for name in ("chain_s", *(f"{c}_s" for c in workloads.CHAIN), "error_rate"):
            self.assertIn(name, report["workload"])
        self.assertTrue(all(d for op in report["digests"] for d in op.values()))
        result, report = workloads.run_cli_traced(w, 4, self.spawner)
        metrics = self.assert_metrics(result, "per_layer")
        self.assertEqual(metrics["ingest.parse_calls"], len(workloads.CHAIN))
        self.assertEqual(metrics["pca.eigendecompositions"], 3)


if __name__ == "__main__":
    unittest.main()
