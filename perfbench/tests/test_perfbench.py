#!/usr/bin/env python3
"""perfbench's own tests.

    python3 perfbench/tests/test_perfbench.py [-v]

Run from anywhere; each test drives perfbench/run.py from the checkout
root (the first test builds it).  They take a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
WORKLOADS = ["protocol_k64", "scan_batch", "live_churn"]


def run(workload, seed, seconds, trace, *extra, cwd=ROOT):
    """Runs the benchmark; returns (exit code, stdout lines, parsed last line or None)."""
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return out.returncode, lines, result


def lines_starting(lines, prefix):
    return [line for line in lines if line.startswith(prefix)]


class ContractTest(unittest.TestCase):
    """The result line carries exactly the metrics BENCHMARK.json lists."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace, section):
        code, lines, result = run(workload, 3, 4, trace)
        self.assertEqual(code, 0, "\n".join(lines[-5:]))
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        self.assertTrue(lines_starting(lines, "# env: nproc="))
        return result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check(workload, 0, "end_to_end")
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, "per_layer")


class DeterminismTest(unittest.TestCase):
    """Static single-client workloads repeat their exact counts at one seed."""

    def test_static_workloads_repeat(self):
        for workload in ["protocol_k64", "scan_batch"]:
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    code, lines, result = run(workload, 7, 10, 1)
                    self.assertEqual(code, 0, "\n".join(lines[-5:]))
                    self.assertTrue(result["correct"])
                    exact = lines_starting(lines, "# determinism")
                    self.assertEqual(len(exact), 2, lines)
                    runs.append(exact)
                self.assertEqual(runs[0], runs[1])
                # The prefix must have been reached, or the counts cover
                # a machine-speed-dependent number of queries.
                want = "first 512 queries" if workload == "protocol_k64" else "first 1024 queries"
                for line in runs[0]:
                    self.assertIn(want, line)


class WrongAnswerTest(unittest.TestCase):
    """An answer corrupted on purpose fails the run."""

    def test_injected_wrong_answer_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, 5, 2, 0, "--inject-wrong-answer")
                self.assertNotEqual(code, 0)
                self.assertIsNotNone(result)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)


class NoSourceTest(unittest.TestCase):
    """Without a dknn source tree the command fails and prints no result."""

    def test_fails_without_source(self):
        scratch = os.path.join(ROOT, ".bench_build", "tests")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines, result = run("protocol_k64", 1, 1, 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
