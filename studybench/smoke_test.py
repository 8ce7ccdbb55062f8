#!/usr/bin/env python3
"""Smoke test of the study benchmark at tiny sizes.

Run from the repository root:

    python3 studybench/smoke_test.py

For every workload it runs the benchmark untraced (--trace 0) and traced
(--trace 1) at the smoke sizes (--tiny) and checks that
  - the printed metric names and units match BENCHMARK.json,
  - ledger.coverage is at least 0.95,
  - the traced and untraced digests are equal, and no cell failed,
  - paper-figs' traced miss digest repeats across two runs.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "studybench", "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    """Run one tiny benchmark; return (result JSON, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} --trace {trace} exited {proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check_result(self, result, metrics):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in metrics}
        self.assertEqual(printed, wanted)

    def test_end_to_end(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                result, _ = run(w["name"], 0)
                self.check_result(result, self.spec["end_to_end"])

    def test_traced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                result, lines = run(w["name"], 1)
                self.check_result(result, self.spec["per_layer"])
                coverage = result["metrics"]["ledger.coverage"]["value"]
                self.assertGreaterEqual(coverage, 0.95)
                digests = [re.match(r"digest: untraced (\w+), traced (\w+)",
                                    line) for line in lines]
                digests = [m for m in digests if m]
                self.assertEqual(len(digests), 1)
                self.assertEqual(digests[0].group(1), digests[0].group(2))

    def test_miss_digest_repeats(self):
        # paper-figs' main digest lacks miss components, so its traced
        # cells print them in a digest of their own, which must repeat.
        printed = []
        for _ in range(2):
            _, lines = run("paper-figs", 1)
            printed.append([line for line in lines
                            if line.startswith("miss digest")])
        self.assertEqual(len(printed[0]), 1)
        self.assertEqual(printed[0], printed[1])


if __name__ == "__main__":
    unittest.main()
