"""Smoke test of the benchmark: every workload, both modes, every check, at
tiny input sizes. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=1):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return p


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        p = run(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in bench_json()[kind]}
        got = result["metrics"]
        self.assertEqual(set(got), set(declared))
        for name, m in got.items():
            self.assertEqual(m["unit"], declared[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
        if trace:
            self.assertGreaterEqual(got["trace.coverage"]["value"], 0.95)
            self.assertGreater(got["nn.forwards"]["value"], 0)
            self.assertLessEqual(got["nn.forwards"]["value"], got["gadget.gadgets"]["value"])
        else:
            for name, m in got.items():
                self.assertGreater(m["value"], 0, name)

    def test_every_workload_end_to_end(self):
        for w in bench_json()["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0)

    def test_every_workload_traced(self):
        for w in bench_json()["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1)

    def test_bad_arguments_fail_without_a_result(self):
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "no-such", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
