#!/usr/bin/env python3
"""Smoke test of the serving benchmark: every workload at reduced size, with
every correctness check, untraced and traced, in well under a minute.

    python3 servebench/tests/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


def smoke(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke", "--seed", "3",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    results = [json.loads(l) for l in done.stdout.splitlines() if l.startswith("{")]
    return done, results


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, trace, key):
        done, results = smoke(trace)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertEqual(len(results), len(self.spec["workloads"]), done.stdout)
        want = {m["name"]: m["unit"] for m in self.spec[key]}
        for result in results:
            self.assertTrue(result["correct"], result)
            self.assertEqual(result["failed"], 0, result)
            self.assertGreater(result["attempted"], 0, result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
        return done

    def test_untraced_reports_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_reports_every_per_layer_metric_and_overhead(self):
        done = self.check(1, "per_layer")
        self.assertIn("trace overhead:", done.stdout)
        self.assertIn("layer-share serve", done.stdout)


if __name__ == "__main__":
    unittest.main()
