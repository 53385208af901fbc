#!/usr/bin/env python3
"""Unit tests of bench_ledger's run.py rules: BENCHMARK.json's shape, the
bound / unresolved verdicts of --compare, result validation (a divergent
run must fail), and — when the benchmark is built — the binary's own
self-test of the nearest-rank percentile rule and its output checks.

    python3 bench_ledger/test_run.py
"""

import contextlib
import copy
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def result_line(values, correct=True, failed=0, benchmark=None, trace=False):
    """A fabricated result with every metric BENCHMARK.json expects."""
    benchmark = benchmark or run.load_benchmark()
    metrics = benchmark["per_layer" if trace else "end_to_end"]
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {m["name"]: {"value": values.get(m["name"], 1.0),
                                    "unit": m["unit"]} for m in metrics}}


def results_file(per_seed_values, correct=True):
    """A run.py results file: one untraced run per entry, every workload."""
    benchmark = run.load_benchmark()
    runs = []
    for w in benchmark["workloads"]:
        for seed, values in enumerate(per_seed_values, start=1):
            result = result_line(values, correct=correct, benchmark=benchmark)
            runs.append({"workload": w["name"], "seed": seed, "trace": False,
                         "exit": 0, "result": result, "detail": {},
                         "problems": run.validate_result(result, benchmark,
                                                         False)})
    return {"seconds": 1, "runs": runs}


class BenchmarkShapeTest(unittest.TestCase):
    def setUp(self):
        self.doc = json.loads(run.BENCHMARK_JSON.read_text())

    def test_committed_file_is_valid(self):
        self.assertEqual(run.validate_benchmark(self.doc), [])

    def test_rejects_bad_shapes(self):
        cases = {
            "bad name": lambda d: d["per_layer"][0].update(name="bad name!"),
            "one workload": lambda d: d["workloads"].__delitem__(
                slice(1, None)),
            "bound too wide": lambda d: d["end_to_end"][1].update(bound=0.3),
            "no setup_s": lambda d: d["end_to_end"].pop(0),
            "extra key": lambda d: d.update(extra=1),
            "duplicate name": lambda d: d["per_layer"].append(
                dict(d["per_layer"][0])),
            "two-line why": lambda d: d["workloads"][0].update(why="a\nb"),
            "absolute path": lambda d: d["paths"].append("/tmp"),
            "bad unit": lambda d: d["end_to_end"][1].update(unit="req per s"),
            "run too long": lambda d: d.update(run_seconds=61),
        }
        for label, mutate in cases.items():
            doc = copy.deepcopy(self.doc)
            mutate(doc)
            self.assertNotEqual(run.validate_benchmark(doc), [], label)

    def test_too_many_layer_metrics(self):
        doc = copy.deepcopy(self.doc)
        doc["per_layer"] = [{"name": f"m{i}", "unit": "ms", "better": "lower"}
                            for i in range(129)]
        self.assertNotEqual(run.validate_benchmark(doc), [])


class VerdictTest(unittest.TestCase):
    STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(run.spread([1, 2, 3, 4, 5]), 3.0 / 3.0)
        self.assertEqual(run.spread([7.0]), 0.0)

    def test_within_bound_is_ok(self):
        change = [v * 1.05 for v in self.STEADY]
        self.assertEqual(
            run.compare_metric(self.STEADY, change, "lower", 0.1), "ok")

    def test_beyond_bound_is_a_regression(self):
        change = [v * 1.2 for v in self.STEADY]
        self.assertEqual(
            run.compare_metric(self.STEADY, change, "lower", 0.1),
            "regression")
        self.assertEqual(
            run.compare_metric(self.STEADY, [v / 1.2 for v in self.STEADY],
                               "higher", 0.1),
            "regression")

    def test_wide_spread_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(
            run.compare_metric(self.STEADY, noisy, "lower", 0.1),
            "unresolved")

    def test_wide_spread_but_always_better(self):
        parent = [20.0, 30.0, 25.0, 22.0, 28.0]
        change = [10.0, 15.0, 12.0, 11.0, 14.0]
        self.assertEqual(
            run.compare_metric(parent, change, "lower", 0.1), "better")


class ResultValidationTest(unittest.TestCase):
    def setUp(self):
        self.benchmark = run.load_benchmark()

    def test_good_result_passes(self):
        self.assertEqual(
            run.validate_result(result_line({}), self.benchmark, False), [])
        self.assertEqual(
            run.validate_result(result_line({}, trace=True), self.benchmark,
                                True), [])

    def test_divergent_result_fails(self):
        problems = run.validate_result(result_line({}, correct=False),
                                       self.benchmark, False)
        self.assertIn("correctness checks failed", problems)

    def test_failed_operations_fail(self):
        self.assertNotEqual(
            run.validate_result(result_line({}, failed=3), self.benchmark,
                                False), [])

    def test_missing_metric_fails(self):
        result = result_line({})
        result["metrics"].pop("setup_s")
        self.assertNotEqual(
            run.validate_result(result, self.benchmark, False), [])

    def test_compare_refuses_a_divergent_results_file(self):
        good = results_file([{}] * 5)
        divergent = results_file([{}] * 5, correct=False)
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(run.compare(good, good, self.benchmark), 0)
            self.assertGreater(run.compare(good, divergent, self.benchmark),
                               0)

    def test_parse_output_takes_the_last_line(self):
        stdout = ("# table\nledger-detail {\"setup_s\": {\"samples\": 5, "
                  "\"mad\": null}}\n" + json.dumps(result_line({})) + "\n")
        result, detail = run.parse_output(stdout)
        self.assertEqual(set(result), run.RESULT_KEYS)
        self.assertEqual(detail["setup_s"]["samples"], 5)


@unittest.skipUnless((run.build_dir() / "bench_ledger").exists(),
                     "bench_ledger is not built (run bench_ledger/run.py once)")
class BinarySelfTest(unittest.TestCase):
    def test_percentile_rule_and_output_checks(self):
        done = subprocess.run([str(run.build_dir() / "bench_ledger"),
                               "--selftest"], capture_output=True, text=True,
                              timeout=60)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_unknown_workload_is_refused(self):
        done = subprocess.run([str(run.build_dir() / "bench_ledger"),
                               "--workload", "nope"], capture_output=True,
                              text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
