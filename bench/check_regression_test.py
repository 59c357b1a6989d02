#!/usr/bin/env python3
"""Tests for the benchmark-regression gate (bench/check_regression.py).

  python3 bench/check_regression_test.py
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_regression  # noqa: E402

BASELINE = {
    "config": {"sf": 0.005, "max_workers": 4, "stripes": 16},
    "results": [
        {"phase": "throughput", "load": "hot", "workers": 1,
         "hit_ratio": 1.0},
        {"phase": "sql_dml_mixed", "load": "mixed", "workers": 4,
         "hit_ratio": 0.99, "propagated": 72, "invalidated": 660,
         "dml_commits": 12},
        {"phase": "trace_ablation", "load": "sampled64", "workers": 4,
         "hit_ratio": 0.99, "rel_qps": 0.9},
        {"phase": "kernel_join_probe", "load": "vec", "workers": 1,
         "hit_ratio": 0.0, "rel_qps": 1.36},
    ],
}


def row(doc, phase, load):
    return next(r for r in doc["results"]
                if r["phase"] == phase and r["load"] == load)


class CheckRegressionTest(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.current = copy.deepcopy(BASELINE)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(self, baseline=BASELINE):
        """Runs the gate on self.current; returns (exit code, stderr)."""
        cur = self.write("current.json", self.current)
        base = self.write("baseline.json", baseline)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = check_regression.main([cur, base])
        return code, err.getvalue()

    def test_identical_run_passes(self):
        self.assertEqual(self.gate(), (0, ""))

    def test_row_missing_from_current_run_fails(self):
        self.current["results"].pop(0)
        code, err = self.gate()
        self.assertEqual(code, 1)
        self.assertIn("throughput/hot/workers=1: row missing from current run",
                      err)

    def test_row_missing_from_baseline_fails(self):
        self.current["results"].append(
            {"phase": "new_phase", "load": "x", "workers": 1,
             "hit_ratio": 1.0})
        code, err = self.gate()
        self.assertEqual(code, 1)
        self.assertIn("new_phase/x/workers=1: row missing from the baseline",
                      err)

    def test_counter_out_of_band_fails(self):
        row(self.current, "sql_dml_mixed", "mixed")["propagated"] = 0
        code, err = self.gate()
        self.assertEqual(code, 1)
        self.assertIn("propagated 0 outside [36, 108]", err)

    def test_counter_within_band_passes(self):
        row(self.current, "sql_dml_mixed", "mixed")["invalidated"] = 700
        self.assertEqual(self.gate()[0], 0)

    def test_sf_mismatch_fails(self):
        self.current["config"]["sf"] = 0.01
        code, err = self.gate()
        self.assertEqual(code, 1)
        self.assertIn("config mismatch on 'sf'", err)

    def test_kernel_rel_qps_below_floor_fails(self):
        row(self.current, "kernel_join_probe", "vec")["rel_qps"] = 1.29
        code, err = self.gate()
        self.assertEqual(code, 1)
        self.assertIn("rel_qps 1.290 < hard floor 1.3", err)

    def test_kernel_floor_ignores_the_baseline_value(self):
        # The floor is absolute: a run far below the baseline but above 1.3
        # passes, where the trace_ablation drift rule would fail it.
        baseline = copy.deepcopy(BASELINE)
        row(baseline, "kernel_join_probe", "vec")["rel_qps"] = 2.0
        row(self.current, "kernel_join_probe", "vec")["rel_qps"] = 1.31
        self.assertEqual(self.gate(baseline)[0], 0)

    def test_no_absolute_throughput_or_latency_comparison(self):
        # Absolute figures are not gated, whatever the two sides carry.
        baseline = copy.deepcopy(BASELINE)
        for r in baseline["results"]:
            r.update(qps=1e6, p99_us=1)
        for r in self.current["results"]:
            r.update(qps=1.0, p99_us=10**6)
        self.assertEqual(self.gate(baseline)[0], 0)


if __name__ == "__main__":
    unittest.main()
