#!/usr/bin/env python3
"""Self-tests of the memstream benchmark.

Run from the repository root (builds the benchmark first, ~1 min cold):

    python3 perfbench/tests/test_perfbench.py

Each workload runs one repetition per call (--seconds 0), so the whole
suite takes about a minute once built.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

# A seed the expected table holds, and one it does not.
RECORDED_SEED = 1
HELD_OUT_SEED = 977


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.expected = run.load_expected()
        with open(run.ROOT / "BENCHMARK.json") as f:
            cls.spec = json.load(f)
        cls.docs = {}

    def doc(self, workload, seed=RECORDED_SEED, trace=False, threads=2):
        key = (workload, seed, trace, threads)
        if key not in self.docs:
            self.docs[key] = run.run_binary(self.binary, workload, seed, 0,
                                            trace, threads)
        return self.docs[key]

    def failed_share(self, doc):
        problems = run.check(doc, self.expected)
        attempted, failed = run.rep_failures(doc, problems)
        return failed / attempted

    def test_recorded_seed_matches_expected_outputs(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                doc = self.doc(w)
                self.assertEqual(run.check(doc, self.expected), [])
                # The seed must be in the table, or nothing was compared.
                self.assertTrue(run.expected_items(self.expected, w,
                                                   RECORDED_SEED))

    def test_outputs_identical_at_one_and_two_threads(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                one = self.doc(w, threads=1)["reps"][0]["outputs"]
                two = self.doc(w, threads=2)["reps"][0]["outputs"]
                self.assertEqual(one, two)

    def test_held_out_seed_fails_no_more_than_recorded_seed(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                held_out = self.doc(w, seed=HELD_OUT_SEED)
                self.assertEqual(run.check(held_out, self.expected), [])
                self.assertLessEqual(self.failed_share(held_out),
                                     self.failed_share(self.doc(w)))

    def test_traced_run_matches_untraced_and_reports_every_layer(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                doc = self.doc(w, trace=True)
                self.assertEqual(run.check(doc, self.expected), [])
                for rep in doc["traced_reps"]:
                    self.assertEqual(rep["outputs"], doc["reps"][0]["outputs"])
                values = run.metrics(doc, self.spec, True, 1, 0)
                self.assertEqual(set(values),
                                 {m["name"] for m in self.spec["per_layer"]})

    def test_end_to_end_metrics_are_positive(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                values = run.metrics(self.doc(w), self.spec, False, 1, 0)
                self.assertEqual(set(values),
                                 {m["name"] for m in self.spec["end_to_end"]})
                for name, m in values.items():
                    self.assertGreater(m["value"], 0, name)

    def test_a_changed_output_is_a_failure(self):
        doc = self.doc("sim_paper")
        tampered = copy.deepcopy(self.expected)
        config = next(iter(tampered["sim_configs"].values()))
        config["ios_completed"] += 1
        problems = run.check(doc, tampered)
        self.assertEqual(len(problems), 1)
        attempted, failed = run.rep_failures(doc, problems)
        self.assertEqual(failed, attempted)

    def test_span_tree_self_time(self):
        path = run.build_dir() / "spans_selftest.json"
        run.run_binary(self.binary, "sim_paper", RECORDED_SEED, 0, True,
                       spans=path)
        with open(path) as f:
            tree = json.load(f)
        spans = tree["spans"]
        self.assertTrue(spans)
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            self.assertEqual(s["workload"], "sim_paper")
            duration = s["end_s"] - s["start_s"]
            self.assertGreaterEqual(duration, 0)
            self.assertLessEqual(s["self_s"], duration + 1e-9)
            if s["parent"] >= 0:
                parent = by_id[s["parent"]]
                self.assertGreaterEqual(s["start_s"], parent["start_s"])
                self.assertLessEqual(s["end_s"], parent["end_s"])
        # The sweep span's self time excludes its parallel server runs.
        sweep = [s for s in spans if s["name"] == "exp.map"]
        self.assertTrue(sweep)
        for s in sweep:
            self.assertLess(s["self_s"], 0.5 * (s["end_s"] - s["start_s"]))


if __name__ == "__main__":
    unittest.main()
