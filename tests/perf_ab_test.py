#!/usr/bin/env python3
"""Tests of the A/B gate's verdict (tools/perf_ab.py).

    python3 tests/perf_ab_test.py
"""

import copy
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import perf_ab  # noqa: E402

SPEC = {
    "workloads": [{"name": "sim"}, {"name": "farm"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.1},
    ],
}


def run(wall=1.0, rss=100.0, correct=True, attempted=1000, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def samples(**kwargs):
    """Ten identical runs per workload of the spec."""
    return {w["name"]: [run(**kwargs) for _ in range(10)]
            for w in SPEC["workloads"]}


class VerdictTest(unittest.TestCase):
    def test_change_within_bound_passes(self):
        failures, rows = perf_ab.verdict(SPEC, samples(),
                                         samples(wall=1.2, rss=109.0))
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), 4)

    def test_change_past_bound_fails(self):
        failures, _ = perf_ab.verdict(SPEC, samples(), samples(wall=1.3))
        self.assertEqual(len(failures), 2)
        self.assertTrue(all("wall_s" in f for f in failures))
        failures, _ = perf_ab.verdict(SPEC, samples(), samples(rss=111.0))
        self.assertEqual(len(failures), 2)
        self.assertTrue(all("peak_rss_mb" in f for f in failures))

    def test_median_not_one_slow_run_decides(self):
        change = samples()
        change["sim"][3] = run(wall=50.0)
        failures, _ = perf_ab.verdict(SPEC, samples(), change)
        self.assertEqual(failures, [])

    def test_incorrect_run_on_either_side_fails(self):
        for side in ("parent", "change"):
            with self.subTest(side=side):
                pair = {"parent": samples(), "change": samples()}
                pair[side]["farm"][0] = run(correct=False)
                failures, _ = perf_ab.verdict(SPEC, pair["parent"],
                                              pair["change"])
                self.assertEqual(len(failures), 1)
                self.assertIn(f"incorrect {side}", failures[0])

    def test_higher_failed_share_fails(self):
        change = samples()
        change["sim"][0] = run(failed=1)
        failures, _ = perf_ab.verdict(SPEC, samples(), change)
        self.assertEqual(len(failures), 1)
        self.assertIn("failed share", failures[0])
        # An equal share on both sides passes.
        failures, _ = perf_ab.verdict(SPEC, copy.deepcopy(change), change)
        self.assertEqual(failures, [])

    def test_workload_missing_from_spec_is_an_error(self):
        spec = copy.deepcopy(SPEC)
        spec["workloads"].pop()
        with self.assertRaises(perf_ab.SpecError):
            perf_ab.verdict(spec, samples(), samples())

    def test_workload_missing_from_samples_is_an_error(self):
        change = samples()
        del change["farm"]
        with self.assertRaises(perf_ab.SpecError):
            perf_ab.verdict(SPEC, samples(), change)

    def test_metric_missing_from_spec_is_an_error(self):
        spec = copy.deepcopy(SPEC)
        del spec["end_to_end"][0]["bound"]
        with self.assertRaises(perf_ab.SpecError):
            perf_ab.verdict(spec, samples(), samples())
        with self.assertRaises(perf_ab.SpecError):
            perf_ab.verdict({"workloads": SPEC["workloads"]}, samples(),
                            samples())

    def test_metric_missing_from_samples_is_an_error(self):
        change = samples()
        del change["sim"][0]["metrics"]["wall_s"]
        with self.assertRaises(perf_ab.SpecError):
            perf_ab.verdict(SPEC, samples(), change)


if __name__ == "__main__":
    unittest.main()
