#!/usr/bin/env python3
"""Runs tools/check_invariants.py on the one-file fixture in
tests/invariants_fixtures: a std distribution outside src/common/rng.h
fails rule R1 (no-raw-rand), and the default scope, src, stays clean.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, os.pardir, "tools", "check_invariants.py")
FIXTURE = os.path.join(HERE, "invariants_fixtures", "std_distribution.cpp")


def run_checker(*paths):
    return subprocess.run([sys.executable, CHECKER, *paths],
                          capture_output=True, text=True, check=False)


class StdRandomnessTest(unittest.TestCase):
    def test_std_distribution_fails(self):
        result = run_checker(FIXTURE)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("std_distribution.cpp:10: [no-raw-rand] direct "
                      "std::normal_distribution", result.stdout)

    def test_src_is_clean(self):
        result = run_checker()
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main()
