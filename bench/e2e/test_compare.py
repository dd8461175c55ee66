#!/usr/bin/env python3
"""Unit tests for compare.py on synthetic results.

    python3 bench/e2e/test_compare.py
"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = {"end_to_end": [
    {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "capacity_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.1}]}
PROVENANCE = {"git": "x", "compiler": "gcc", "simd": "avx512", "cpu": "cpu",
              "nproc": 4, "threads": 4, "seed": 1}


def run(seed, started, latency, capacity=100.0, failed=0, workload="w"):
    return {"workload": workload, "seed": seed, "trace": 0,
            "started_at": started, "attempted": 100, "failed": failed,
            "metrics": {"latency_ms_p50": {"value": latency, "unit": "ms"},
                        "capacity_per_s": {"value": capacity, "unit": "1/s"}}}


class JudgeTest(unittest.TestCase):
    def test_consistent_win_beyond_the_parent_iqr_is_a_gain(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        change = [v - 1.0 for v in parent]
        self.assertEqual(compare.judge(parent, change, 0.1, "lower")
                         ["verdict"], "gain")

    def test_win_inside_the_parent_iqr_is_not_a_gain(self):
        parent = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 11.0, 9.0, 10.5, 9.5]
        change = [v - 0.1 for v in parent]
        self.assertEqual(compare.judge(parent, change, 0.2, "lower")
                         ["verdict"], "same")

    def test_eight_of_ten_wins_is_not_a_gain(self):
        parent = [10.0] * 10
        change = [8.0] * 8 + [10.5, 10.5]
        self.assertNotEqual(compare.judge(parent, change, 0.5, "lower")
                            ["verdict"], "gain")

    def test_worse_by_more_than_the_bound_is_a_regression(self):
        parent = [100.0 + i for i in range(10)]
        change = [v * 0.8 for v in parent]
        self.assertEqual(compare.judge(parent, change, 0.1, "higher")
                         ["verdict"], "regression")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0]
        change = [v * 1.05 for v in reversed(parent)]
        self.assertEqual(compare.judge(parent, change, 0.1, "lower")
                         ["verdict"], "unresolved")

    def test_equal_runs_are_the_same(self):
        vals = [5.0, 5.1, 4.9, 5.0, 5.05, 4.95, 5.0, 5.1, 4.9, 5.0]
        self.assertEqual(compare.judge(vals, list(vals), 0.1, "lower")
                         ["verdict"], "same")


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, runs, provenance=PROVENANCE):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump({"provenance": provenance, "runs": runs}, f)
        return path

    def alternating(self, pairs, parent_lat=10.0, change_lat=10.0,
                    change_failed=0):
        parent, change = [], []
        for i in range(pairs):
            p_first = i % 2 == 0
            t = 100.0 * i
            parent.append(run(i, t if p_first else t + 1, parent_lat + 0.01 * i))
            change.append(run(i, t + 1 if p_first else t,
                              change_lat + 0.01 * i, failed=change_failed))
        return self.write("p.json", parent), self.write("c.json", change)

    def test_same_commit_twice_reports_no_regression(self):
        p, c = self.alternating(10)
        rows, rises = compare.compare(BENCH, [p], [c], 10)
        self.assertEqual({r["verdict"] for r in rows}, {"same"})
        self.assertEqual(rises, [])

    def test_rise_in_failed_operations_is_reported(self):
        p, c = self.alternating(10, change_failed=1)
        _, rises = compare.compare(BENCH, [p], [c], 10)
        self.assertEqual(len(rises), 1)

    def test_too_few_pairs_are_refused(self):
        p, c = self.alternating(5)
        with self.assertRaises(compare.Incomparable):
            compare.compare(BENCH, [p], [c], 10)

    def test_sides_that_do_not_alternate_are_refused(self):
        parent = [run(i, 100.0 * i, 10.0) for i in range(10)]
        change = [run(i, 100.0 * i + 1, 10.0) for i in range(10)]
        p, c = self.write("p.json", parent), self.write("c.json", change)
        with self.assertRaises(compare.Incomparable):
            compare.compare(BENCH, [p], [c], 10)

    def test_different_provenance_is_refused(self):
        p, c = self.alternating(10)
        other = dict(PROVENANCE, simd="avx2")
        with open(c) as f:
            runs = json.load(f)["runs"]
        c = self.write("c2.json", runs, provenance=other)
        with self.assertRaises(compare.Incomparable):
            compare.compare(BENCH, [p], [c], 10)

    def test_traced_runs_are_not_compared(self):
        p, c = self.alternating(10)
        with open(c) as f:
            runs = json.load(f)["runs"]
        for r in runs:
            r["trace"] = 1
        c = self.write("c3.json", runs)
        with self.assertRaises(compare.Incomparable):
            compare.compare(BENCH, [p], [c], 10)


if __name__ == "__main__":
    unittest.main()
