#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself. Run from the checkout root:

    python3 e2ebench/test_bench.py

Builds pdc_e2e like run.py does, then checks that inputs and output digests
are functions of the seed, that the default seed's outputs match the pinned
digests, that every name is well formed, and that compare.py's rules judge
synthetic pairs as intended.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = run.WORKLOADS


def e2e(*args):
    """Runs pdc_e2e and returns (notes dict, parsed JSON line)."""
    got = subprocess.run([run.BINARY, *args, "--out-dir", run.OUT_DIR], cwd=run.ROOT,
                         capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(got.stdout.strip().splitlines()[-1])
    return dict(line["info"]), line


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs_and_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, _ = e2e("--workload", w, "--seed", "7", "--mode", "inputs")
                b, _ = e2e("--workload", w, "--seed", "7", "--mode", "inputs")
                self.assertEqual(a["inputs_digest"], b["inputs_digest"])
                c, line_c = e2e("--workload", w, "--seed", "7", "--mode", "check")
                d, line_d = e2e("--workload", w, "--seed", "7", "--mode", "check")
                self.assertEqual(c["check_digest"], d["check_digest"])
                self.assertTrue(line_c["correct"] and line_d["correct"])

    def test_different_seed_different_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, _ = e2e("--workload", w, "--seed", "7", "--mode", "inputs")
                b, _ = e2e("--workload", w, "--seed", "8", "--mode", "inputs")
                self.assertNotEqual(a["inputs_digest"], b["inputs_digest"])

    def test_default_seed_matches_pinned_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                notes, line = e2e("--workload", w, "--seed", "1", "--mode", "check")
                self.assertEqual(notes["check_digest"], notes["pinned_digest"])
                self.assertTrue(line["correct"])


class Names(unittest.TestCase):
    def test_benchmark_json_names(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for group in ("workloads", "end_to_end", "per_layer"):
            for entry in spec[group]:
                self.assertRegex(entry["name"], NAME)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))

    def test_reported_metric_names(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        reported = set()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, line = e2e("--workload", w, "--seed", "3", "--seconds", "3", "--trace", "1")
                for name in list(line["e2e"]) + list(line["layer"]):
                    self.assertRegex(name, NAME)
                self.assertLessEqual({m["name"] for m in spec["end_to_end"]}, set(line["e2e"]))
                reported |= set(line["layer"])
        # Every declared per-layer metric is measured by at least one workload.
        self.assertLessEqual({m["name"] for m in spec["per_layer"]}, reported)


class Judge(unittest.TestCase):
    def test_rules(self):
        parent = [100.0 + (i % 3) for i in range(10)]
        self.assertEqual(compare.verdict(parent, [p * 0.9 for p in parent], "lower", 0.05),
                         "gain")
        self.assertEqual(compare.verdict(parent, [p * 1.2 for p in parent], "lower", 0.05),
                         "regression")
        self.assertEqual(compare.verdict(parent, list(parent), "lower", 0.05), "within bound")
        noisy = [50.0, 150.0] * 5
        self.assertEqual(compare.verdict(noisy, list(reversed(noisy)), "lower", 0.05),
                         "unresolved")
        self.assertTrue(compare.verdict(parent[:5], parent[:5], "lower", 0.05).startswith(
            "too few"))


if __name__ == "__main__":
    run.build()
    unittest.main()
