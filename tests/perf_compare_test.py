#!/usr/bin/env python3
"""Unit tests for tools/perf_compare.py's parsing and verdicts.

Needs no build and runs no perfbench: every run below is the recorded
stdout of one `perfbench/run.py --workload prepare --seed 1` run, with
its digest, flags or metric values edited, fed through the tool's
parse_run() and compare(). The bounds come from the repo's
BENCHMARK.json.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "tools"))
import perf_compare as pc  # noqa: E402

with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
NAMES = [m["name"] for m in SPEC["end_to_end"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

DIGEST = "d7adc16423186e7c"
RECORDED_HEAD = (
    "decision_digest d7adc16423186e7c over scenarios 1..240; 0 digest "
    "mismatches vs run_scenario; 0/0 episode replays failed, 0 differ only "
    "in the reactive-path diagnosis re-ranking\n"
    "timed: 249 cycles, 1494 scenario runs in 15.031 s\n"
    "rounds: 194220 samples from 1494 scenarios, 1942 above p99\n"
    "as measured: vm_ticks_per_s 878494; normalisation factor: median "
    "0.6568 over 1494 scenarios\n")
RECORDED_RESULT = (
    '{"correct": true, "attempted": 1512, "failed": 0, "metrics": '
    '{"round_us_p50": {"value": 3.86229412658, "unit": "us/VM"}, '
    '"round_us_p99": {"value": 9.75202152724, "unit": "us/VM"}, '
    '"vm_ticks_per_s": {"value": 1335010.64512, "unit": "VM-ticks/s"}, '
    '"train_ms_p50": {"value": 0.11408161747, "unit": "ms/VM"}, '
    '"violation_s": {"value": 8.9, "unit": "s"}, '
    '"setup_s": {"value": 0.042648401775, "unit": "s"}, '
    '"peak_rss_mb": {"value": 14.0625, "unit": "MB"}}}\n')
RECORDED = json.loads(RECORDED_RESULT)


def run(digest=DIGEST, correct=True, failed=0, **values):
    """The recorded run with edits, through parse_run()."""
    result = json.loads(RECORDED_RESULT)
    result["correct"] = correct
    result["failed"] = failed
    for name, value in values.items():
        result["metrics"][name]["value"] = value
    stdout = RECORDED_HEAD.replace(DIGEST, digest) + json.dumps(result) + "\n"
    return pc.parse_run(stdout, NAMES)


def scaled(name, factor):
    return run(**{name: RECORDED["metrics"][name]["value"] * factor})


def same_everywhere(base, change, n=3):
    """n pairs of (base, change) on every workload, seeds 1..n."""
    return {w: [(seed, (base, change)) for seed in range(1, n + 1)]
            for w in WORKLOADS}


def cell(cells, workload, metric):
    return next(c for c in cells
                if c.workload == workload and c.metric == metric)


class ParseTest(unittest.TestCase):
    def test_recorded_output_parses(self):
        r = run()
        self.assertEqual(r.digest, DIGEST)
        self.assertTrue(r.correct)
        self.assertEqual(r.failed, 0)
        self.assertEqual(r.metrics["round_us_p50"], 3.86229412658)
        self.assertEqual(r.metrics["violation_s"], 8.9)
        self.assertEqual(sorted(r.metrics), sorted(NAMES))

    def test_missing_parts_are_errors(self):
        with self.assertRaisesRegex(ValueError, "decision_digest"):
            pc.parse_run(RECORDED_RESULT, NAMES)
        with self.assertRaisesRegex(ValueError, "JSON"):
            pc.parse_run(RECORDED_HEAD, NAMES)
        with self.assertRaisesRegex(ValueError, "no_such_metric"):
            pc.parse_run(RECORDED_HEAD + RECORDED_RESULT,
                         NAMES + ["no_such_metric"])


class HardGateTest(unittest.TestCase):
    def test_unchanged_set_passes(self):
        cells, problems = pc.compare(SPEC, same_everywhere(run(), run()))
        self.assertEqual(problems, [])
        self.assertEqual(len(cells), len(WORKLOADS) * len(NAMES))
        self.assertTrue(all(c.ok for c in cells))

    def assert_fails_on_reactive_seed_2(self, change, words):
        pairs = same_everywhere(run(), run())
        pairs["reactive"][1] = (2, (run(), change))
        _, problems = pc.compare(SPEC, pairs)
        self.assertEqual(len(problems), 1, problems)
        self.assertIn("reactive seed 2", problems[0])
        for word in words:
            self.assertIn(word, problems[0])

    def test_digest_mismatch_fails(self):
        self.assert_fails_on_reactive_seed_2(
            run(digest="0123456789abcdef"),
            ["decision_digest", DIGEST, "0123456789abcdef"])

    def test_violation_mismatch_fails(self):
        self.assert_fails_on_reactive_seed_2(run(violation_s=9.0),
                                             ["violation_s", "8.9", "9"])

    def test_incorrect_run_fails(self):
        self.assert_fails_on_reactive_seed_2(run(correct=False),
                                             ["change run is not correct"])

    def test_failed_operations_fail(self):
        self.assert_fails_on_reactive_seed_2(run(failed=2),
                                             ["2 failed operations"])

    def test_failed_run_leaves_its_pair_out(self):
        pairs = same_everywhere(run(), run())
        pairs["observed"][0] = (1, None)
        cells, problems = pc.compare(SPEC, pairs)
        self.assertEqual(problems, [])
        self.assertEqual(len(cell(cells, "observed", "round_us_p50").base), 2)
        pairs["observed"] = [(1, None)]
        cells, problems = pc.compare(SPEC, pairs)
        self.assertEqual(len(problems), len(NAMES))
        self.assertIn("observed round_us_p50: no completed pair", problems)


class BoundTest(unittest.TestCase):
    def verdict(self, metric, factor):
        cells, problems = pc.compare(
            SPEC, same_everywhere(run(), scaled(metric, factor)))
        return cell(cells, "prepare", metric).ok, problems

    def test_past_the_bound_fails_in_both_directions(self):
        for metric, factor in (("round_us_p50", 1.30),
                               ("vm_ticks_per_s", 0.70),
                               ("peak_rss_mb", 1.11)):
            with self.subTest(metric=metric):
                ok, problems = self.verdict(metric, factor)
                self.assertFalse(ok)
                self.assertEqual(len(problems), len(WORKLOADS))
                self.assertTrue(problems[0].startswith(f"prepare {metric}:"))
                self.assertIn("worse", problems[0])

    def test_inside_the_bound_passes(self):
        for metric, factor in (("round_us_p50", 1.20),
                               ("vm_ticks_per_s", 0.80),
                               ("peak_rss_mb", 1.09)):
            with self.subTest(metric=metric):
                self.assertEqual(self.verdict(metric, factor), (True, []))

    def test_improvement_past_the_bound_passes(self):
        for metric, factor in (("round_us_p50", 0.50),
                               ("vm_ticks_per_s", 2.0),
                               ("peak_rss_mb", 0.50)):
            with self.subTest(metric=metric):
                self.assertEqual(self.verdict(metric, factor), (True, []))


class SummaryTest(unittest.TestCase):
    def cells_for(self, metric, base_values, change_values):
        pairs = same_everywhere(run(), run())
        pairs["prepare"] = [
            (seed, (run(**{metric: b}), run(**{metric: c})))
            for seed, (b, c) in enumerate(zip(base_values, change_values), 1)]
        cells, _ = pc.compare(SPEC, pairs)
        return cell(cells, "prepare", metric)

    def test_odd_pair_count(self):
        c = self.cells_for("round_us_p50", [4.0, 4.4, 3.8, 4.2, 5.0],
                           [3.9, 4.5, 3.7, 4.1, 4.9])
        self.assertAlmostEqual(c.base_median, 4.2)
        self.assertAlmostEqual(c.change_median, 4.1)
        self.assertAlmostEqual(c.base_iqr, 0.4)  # 4.4 - 4.0
        self.assertEqual(c.wins, 4)  # lower is better; 4.5 > 4.4 loses

    def test_even_pair_count(self):
        c = self.cells_for("round_us_p50", [3.0, 1.0, 4.0, 2.0],
                           [2.5, 1.5, 4.5, 1.0])
        self.assertAlmostEqual(c.base_median, 2.5)
        self.assertAlmostEqual(c.change_median, 2.0)
        self.assertAlmostEqual(c.base_iqr, 1.5)  # 3.25 - 1.75
        self.assertEqual(c.wins, 2)

    def test_higher_is_better_and_ties_do_not_win(self):
        c = self.cells_for("vm_ticks_per_s", [100.0, 200.0, 300.0, 400.0],
                           [150.0, 150.0, 300.0, 500.0])
        self.assertAlmostEqual(c.base_median, 250.0)
        self.assertAlmostEqual(c.change_median, 225.0)
        self.assertAlmostEqual(c.base_iqr, 150.0)  # 325 - 175
        self.assertEqual(c.wins, 2)

    def test_table_has_one_row_per_cell(self):
        cells, _ = pc.compare(SPEC, same_everywhere(run(), run()))
        lines = pc.format_cells(cells).splitlines()
        self.assertEqual(len(lines), 1 + len(WORKLOADS) * len(NAMES))
        self.assertTrue(lines[1].startswith("prepare   round_us_p50"))
        self.assertTrue(lines[1].endswith("0/3    25%  ok"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
