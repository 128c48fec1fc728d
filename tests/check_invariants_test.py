#!/usr/bin/env python3
"""Runs tools/check_invariants.py on the fixtures in
tests/invariants_fixtures: a std distribution outside src/common/rng.h
fails rule R1 (no-raw-rand), string-keyed per-VM state under src/monitor
or src/core fails rule R9 (no-string-keyed-vm-state) and passes under
src/obs, and the default scope, src, stays clean.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, os.pardir, "tools", "check_invariants.py")
FIXTURE = os.path.join(HERE, "invariants_fixtures", "std_distribution.cpp")
STRING_KEYED = os.path.join(HERE, "invariants_fixtures", "src", "monitor",
                            "string_keyed_state.h")


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


class StringKeyedStateTest(unittest.TestCase):
    def test_string_keyed_state_fails(self):
        result = run_checker(STRING_KEYED)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        flagged = [line for line in result.stdout.splitlines()
                   if "[no-string-keyed-vm-state]" in line]
        for lineno, container in ((14, "std::map"), (15, "std::set"),
                                  (16, "std::unordered_map"),
                                  (17, "std::unordered_set")):
            self.assertIn(f"string_keyed_state.h:{lineno}: "
                          f"[no-string-keyed-vm-state] {container} keyed",
                          result.stdout)
        # The position-keyed map on line 20 passes.
        self.assertEqual(len(flagged), 4, result.stdout)

    def test_string_keyed_scope_is_core_and_monitor(self):
        with tempfile.TemporaryDirectory() as tmp:
            for part, expected in (("core", 1), ("obs", 0), ("sim", 0)):
                copy = os.path.join(tmp, "src", part, "state.h")
                os.makedirs(os.path.dirname(copy), exist_ok=True)
                shutil.copy(STRING_KEYED, copy)
                result = run_checker(copy)
                self.assertEqual(result.returncode, expected,
                                 part + ": " + result.stdout)


if __name__ == "__main__":
    unittest.main()
