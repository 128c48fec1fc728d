#!/usr/bin/env python3
"""Runs tools/check_obs_schema.py on the fixture traces of
tests/obs_schema_fixtures: a metric value written as its "%.17g" passes,
the same value in its shortest form fails with a message naming it.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, os.pardir, "tools", "check_obs_schema.py")
FIXTURES = os.path.join(HERE, "obs_schema_fixtures")


def run_checker(name):
    return subprocess.run(
        [sys.executable, CHECKER, os.path.join(FIXTURES, name)],
        capture_output=True, text=True, check=False)


class NumberTextTest(unittest.TestCase):
    def test_precision17_passes(self):
        result = run_checker("metric_precision17.jsonl")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertTrue(result.stdout.strip().endswith(": OK"))

    def test_shortest_form_fails(self):
        result = run_checker("metric_shortest.jsonl")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("metric_shortest.jsonl:2: number 0.1 is not its "
                      "value's %.17g (0.10000000000000001)", result.stdout)


if __name__ == "__main__":
    unittest.main()
