#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload prepare --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from anywhere; the build goes to .bench_build/ at the repository root
(the library in src/ plus the driver in perfbench/, RelWithDebInfo like
the repository's default build). The driver's report lines and its final
JSON result line are passed through on stdout; build output goes to
.bench_build/build.log and, on failure, to stderr.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def build(log):
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["prepare", "reactive", "observed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="check the driver against run_scenario and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        ok = build(log)
    if not ok:
        sys.stderr.write(log_path.read_text()[-4000:])
        sys.stderr.write("perfbench: build failed\n")
        return 1

    if args.self_test:
        cmd = [str(BUILD / "perfbench_selftest")]
    else:
        cmd = [str(BUILD / "perfbench_driver"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: no result within {RUN_TIMEOUT_S} s\n")
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
