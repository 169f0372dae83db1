#!/usr/bin/env python3
"""Tests of the benchmark itself, at smoke size (seconds, after the build).

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does (into $CARGO_TARGET_DIR, default
.bench_build), then checks that BENCHMARK.json follows its format, that
every declared metric is printed with its unit, that the percentile helper
and the probe arithmetic are right (the binary's --selftest), that inputs
are a pure function of the seed, and compare.py's verdicts.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
_BINARY = []


def binary():
    if not _BINARY:
        _BINARY.append(run.build(os.path.join(BUILD_ROOT, "perfbench")))
    return _BINARY[0]


def work_dir():
    """A scratch directory inside the build tree, removed afterwards."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=BUILD_ROOT)


def smoke_run(workload, seed, trace, work_dir):
    env = dict(os.environ, SNOWWHITE_THREADS="1")
    out = subprocess.run(
        [binary(), "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", trace, "--smoke", "--work-dir", work_dir],
        env=env, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class BenchmarkFileTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_format(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertTrue(1 <= BENCHMARK["run_seconds"] <= 60)
        self.assertTrue(2 <= len(WORKLOADS) <= 8)
        names = WORKLOADS + [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for w in BENCHMARK["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in BENCHMARK["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], self.UNIT)
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCHMARK["end_to_end"]))


class ProgramTest(unittest.TestCase):
    def test_selftest(self):
        """Percentile helper (ten samples beyond p99) and probe arithmetic."""
        out = subprocess.run([binary(), "--selftest"], capture_output=True, text=True, timeout=60)
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("selftest ok", out.stdout)

    def test_every_metric_and_unit_is_printed(self):
        with work_dir() as work:
            for workload in WORKLOADS:
                for trace, declared in (("0", BENCHMARK["end_to_end"]), ("1", BENCHMARK["per_layer"])):
                    code, record, result = smoke_run(workload, 7, trace, work)
                    with self.subTest(workload=workload, trace=trace):
                        self.assertEqual(code, 0, record.get("failures"))
                        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                        self.assertTrue(result["correct"])
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(result["failed"], 0)
                        self.assertEqual(record["schema"], "snowwhite.bench.v1")
                        printed = {k: v["unit"] for k, v in result["metrics"].items()}
                        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})
                        if trace == "0":
                            # The smoke model is too small to get types right,
                            # so accuracy may read 0 here; nothing else may.
                            for m in BENCHMARK["end_to_end"]:
                                if m["name"] not in ("top1_pct", "top5_pct"):
                                    self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                                       m["name"])

    def test_inputs_are_a_function_of_the_seed(self):
        with work_dir() as work:
            def digest(workload, seed):
                out = subprocess.run(
                    [binary(), "--digest", "--workload", workload, "--seed", str(seed),
                     "--smoke", "--work-dir", work],
                    capture_output=True, text=True, timeout=120)
                self.assertEqual(out.returncode, 0)
                return out.stdout.strip()
            for workload in WORKLOADS:
                with self.subTest(workload=workload):
                    first = digest(workload, 3)
                    self.assertEqual(first, digest(workload, 3))
                    self.assertNotEqual(first, digest(workload, 4))

    def test_usage_errors_exit_nonzero(self):
        out = subprocess.run([binary(), "--workload", "no-such", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], capture_output=True, text=True, timeout=60)
        self.assertEqual(out.returncode, 2)


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        self.assertEqual(compare.verdict(base, [v * 0.97 for v in base], "higher", 0.1), "within")
        self.assertEqual(compare.verdict(base, [v * 0.8 for v in base], "higher", 0.1), "regressed")
        self.assertEqual(compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1), "improved")
        self.assertEqual(compare.verdict([1.0, 1.0], [1.0, 1.0], "lower", 0.1), "unchanged")
        noisy = [50.0, 100.0, 150.0, 75.0, 125.0]
        self.assertEqual(compare.verdict(noisy, [v * 1.05 for v in noisy], "higher", 0.1), "unresolved")
        self.assertEqual(compare.verdict(noisy, [1000.0] * 5, "higher", 0.1), "improved")

    def test_exact_metrics_report_any_difference(self):
        same = [40.3964] * 4
        self.assertEqual(compare.verdict(same, same, "higher", 0.05, exact=True), "unchanged")
        self.assertEqual(compare.verdict(same, [40.4] * 4, "higher", 0.05, exact=True), "changed")
        self.assertEqual(compare.verdict(same, [40.39] * 4, "higher", 0.05, exact=True),
                         "regressed")
        self.assertEqual(compare.verdict(same, same[:3] + [40.0], "higher", 0.05, exact=True),
                         "changed")

    def test_failed_runs_are_left_out_and_fail_the_comparison(self):
        def write(path, values, correct):
            with open(path, "w") as handle:
                for value, ok in zip(values, correct):
                    result = {"correct": ok, "attempted": 10, "failed": 0 if ok else 1,
                              "metrics": {"throughput_qps": {"value": value, "unit": "1/s"}}}
                    handle.write(json.dumps({"workload": "w", "trace": False,
                                             "result": result}) + "\n")
        with tempfile.TemporaryDirectory() as tmp:
            base, new = os.path.join(tmp, "base.jsonl"), os.path.join(tmp, "new.jsonl")
            write(base, [100.0, 101.0, 99.0], [True] * 3)
            write(new, [100.0, 101.0, 99.0], [True] * 3)
            tool = [sys.executable, os.path.join(HERE, "compare.py"), base, new]
            out = subprocess.run(tool, capture_output=True, text=True, timeout=60)
            self.assertEqual(out.returncode, 0, out.stdout)
            # A failed run with an outlying value: left out, but reported.
            write(new, [100.0, 101.0, 99.0, 1.0], [True] * 3 + [False])
            out = subprocess.run(tool, capture_output=True, text=True, timeout=60)
            self.assertEqual(out.returncode, 1)
            self.assertIn("1 failed their checks", out.stdout)
            self.assertIn("within", out.stdout)

    def test_quartiles_match_statistics(self):
        values = [1.0, 2.0, 3.0, 4.0, 10.0]
        q1, med, q3 = compare.quartiles(values)
        self.assertEqual(med, 3.0)
        self.assertAlmostEqual(compare.spread(values), (q3 - q1) / 3.0)


if __name__ == "__main__":
    unittest.main()
