#!/usr/bin/env python3
"""Compares the repo benchmark of the working tree with a base commit.

    python3 tools/perf_compare.py BASE [--pairs N]

Builds perfbench in two trees, each through its own perfbench/run.py,
which also runs the self-test: this working tree, and a temporary
`git archive` export of BASE that is removed on exit. Then it runs every
BENCHMARK.json workload in N pairs at BENCHMARK.json's run_seconds. Pair
i runs seed i+1 in both trees, and the tree that runs first alternates
from pair to pair.

For each (workload, end-to-end metric) cell it prints both medians, the
base's interquartile range and the median gap over it, the change's wins
out of N, and a verdict against the metric's BENCHMARK.json bound; the
first run's build and host line comes first. The exit status is 1 when
a self-test or run fails, a run is not correct or has failed operations,
a seed's decision_digest or violation_s differs between the trees, or a
median is worse than the base's by more than its bound.
"""
import argparse
import json
import math
import re
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_RE = re.compile(r"^decision_digest ([0-9a-f]{16})\b", re.MULTILINE)


@dataclass
class Run:
    """What one perfbench run reports: its digest and its final JSON line."""
    digest: str
    correct: bool
    failed: int
    metrics: dict


def parse_run(stdout, metric_names):
    """Parses a perfbench run's stdout; ValueError when a part is missing."""
    digest = DIGEST_RE.search(stdout)
    if digest is None:
        raise ValueError("no decision_digest line")
    lines = [l for l in stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise ValueError("no JSON result line")
    result = json.loads(lines[-1])
    metrics = {}
    for name in metric_names:
        if name not in result["metrics"]:
            raise ValueError(f"metric {name} missing")
        metrics[name] = float(result["metrics"][name]["value"])
    return Run(digest.group(1), result["correct"] is True,
               int(result["failed"]), metrics)


def quantile(values, q):
    """Linear interpolation between the closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def num(x):
    """A value for the table: whole from 1e4 up, else 4 significant digits."""
    return f"{x:.0f}" if abs(x) >= 1e4 else f"{x:.4g}"


@dataclass
class Cell:
    """One (workload, metric) cell over the pairs that both trees ran."""
    workload: str
    metric: str
    unit: str
    lower_is_better: bool
    bound: float
    base: list
    change: list

    @property
    def base_median(self):
        return quantile(self.base, 0.5)

    @property
    def change_median(self):
        return quantile(self.change, 0.5)

    @property
    def base_iqr(self):
        return quantile(self.base, 0.75) - quantile(self.base, 0.25)

    @property
    def wins(self):
        """Pairs in which the change is strictly better than the base."""
        return sum((c < b) if self.lower_is_better else (c > b)
                   for b, c in zip(self.base, self.change))

    @property
    def ok(self):
        """The change's median is at most `bound` (relative) worse."""
        if not self.base:
            return False
        gap = self.change_median - self.base_median
        worse = gap if self.lower_is_better else -gap
        return worse <= self.bound * abs(self.base_median)


def pair_problems(workload, seed, base, change):
    """The hard gate on one same-seed pair: correctness and decisions."""
    where = f"{workload} seed {seed}"
    problems = []
    for tree, run in (("base", base), ("change", change)):
        if not run.correct:
            problems.append(f"{where}: {tree} run is not correct")
        if run.failed > 0:
            problems.append(f"{where}: {tree} run has {run.failed} failed "
                            "operations")
    if base.digest != change.digest:
        problems.append(f"{where}: decision_digest {base.digest} (base) != "
                        f"{change.digest} (change)")
    b, c = base.metrics["violation_s"], change.metrics["violation_s"]
    if b != c:
        problems.append(f"{where}: violation_s {b:.12g} (base) != {c:.12g} "
                        "(change)")
    return problems


def compare(spec, pairs):
    """Cells and problems for `pairs`: {workload: [(seed, (base, change))]}.

    A pair with a failed run has None in place of its two runs; it counts
    in no cell (the run failure is reported where it happened).
    """
    cells, problems = [], []
    for workload in spec["workloads"]:
        name = workload["name"]
        done = [(seed, runs) for seed, runs in pairs[name]
                if runs is not None]
        for seed, (base, change) in done:
            problems += pair_problems(name, seed, base, change)
        for metric in spec["end_to_end"]:
            m = metric["name"]
            cell = Cell(name, m, metric["unit"], metric["better"] == "lower",
                        metric["bound"], [b.metrics[m] for _, (b, _c) in done],
                        [c.metrics[m] for _, (_b, c) in done])
            cells.append(cell)
            if not cell.base:
                problems.append(f"{name} {m}: no completed pair")
            elif not cell.ok:
                problems.append(
                    f"{name} {m}: median {num(cell.change_median)} is worse "
                    f"than the base's {num(cell.base_median)} by more than "
                    f"the {cell.bound:.0%} bound")
    return cells, problems


def format_cells(cells):
    head = (f"{'workload':<9} {'metric':<15} {'unit':<11} {'base':>11} "
            f"{'change':>11} {'delta':>8} {'base IQR':>10} {'gap/IQR':>8} "
            f"{'wins':>6} {'bound':>6}  verdict")
    lines = [head]
    for c in cells:
        if not c.base:
            lines.append(f"{c.workload:<9} {c.metric:<15} {c.unit:<11} "
                         f"{'-':>11} {'-':>11}{'':>46}  no data")
            continue
        gap = c.change_median - c.base_median
        delta = f"{gap / c.base_median:+.1%}" if c.base_median else num(gap)
        ratio = f"{gap / c.base_iqr:+.2f}" if c.base_iqr else "-"
        lines.append(
            f"{c.workload:<9} {c.metric:<15} {c.unit:<11} "
            f"{num(c.base_median):>11} {num(c.change_median):>11} {delta:>8} "
            f"{num(c.base_iqr):>10} {ratio:>8} "
            f"{f'{c.wins}/{len(c.base)}':>6} {c.bound:>6.0%}  "
            f"{'ok' if c.ok else 'WORSE'}")
    return "\n".join(lines)


def run_py(tree, args):
    """Runs `tree`'s perfbench/run.py: (exit status, stdout, stderr)."""
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                           *args], cwd=tree, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def export(rev, dest):
    """Writes the committed tree of `rev` to `dest`; returns its full SHA."""
    sha = subprocess.run(["git", "rev-parse", "--verify", "--quiet",
                          f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True,
                         text=True)
    if sha.returncode:
        raise SystemExit(f"perf_compare: {rev} is not a commit")
    sha = sha.stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         capture_output=True, check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    if not (dest / "perfbench" / "run.py").exists():
        raise SystemExit(f"perf_compare: {rev} has no perfbench/run.py")
    return sha


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit to compare with")
    parser.add_argument("--pairs", type=int, default=10,
                        help="same-seed base/change run pairs per workload "
                             "(default 10)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_names = [m["name"] for m in spec["end_to_end"]]
    seconds = str(spec["run_seconds"])
    # SIGTERM unwinds like Ctrl-C, so the export is removed either way.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    with tempfile.TemporaryDirectory(prefix="perf_compare-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": ROOT}
        sha = export(args.base, trees["base"])
        print(f"perf_compare: change = working tree, base = {args.base} "
              f"({sha[:12]}); {args.pairs} pairs of {seconds} s runs, seeds "
              f"1..{args.pairs}", flush=True)
        for tree in ("base", "change"):
            status, out, err = run_py(trees[tree], ["--self-test"])
            last = out.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{tree} self-test: {last[0]}", flush=True)
            if status:
                sys.stderr.write(out[-4000:] + err[-4000:])
                print(f"perf_compare: FAIL: {tree} self-test exited {status}")
                return 1

        pairs = {w["name"]: [] for w in spec["workloads"]}
        problems = []
        env = None  # the first run's build and host line
        for i in range(args.pairs):
            seed = i + 1
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in pairs:
                runs = {}
                for tree in order:
                    status, out, err = run_py(
                        trees[tree], ["--workload", workload, "--seed",
                                      str(seed), "--seconds", seconds,
                                      "--trace", "0"])
                    try:
                        if status:
                            raise ValueError(f"exited {status}")
                        runs[tree] = parse_run(out, metric_names)
                        if env is None:
                            env = next((l for l in out.splitlines()
                                        if l.startswith("env ")), "")
                            print(env, flush=True)
                    except ValueError as e:
                        sys.stderr.write(err[-2000:])
                        problems.append(f"{workload} seed {seed}: {tree} run "
                                        f"failed: {e}")
                done = len(runs) == 2
                pairs[workload].append(
                    (seed, (runs["base"], runs["change"]) if done else None))
                progress = ""
                if done:
                    b, c = (runs[t].metrics["round_us_p50"]
                            for t in ("base", "change"))
                    progress = f": round_us_p50 base {b:.4g}, change {c:.4g}"
                print(f"pair {i + 1}/{args.pairs} {workload} seed {seed} "
                      f"({order[0]} first){progress}", flush=True)

    cells, verdicts = compare(spec, pairs)
    problems += verdicts
    print(format_cells(cells))
    for p in problems:
        print(f"FAIL {p}")
    if problems:
        print(f"perf_compare: FAIL ({len(problems)} problems)")
        return 1
    print(f"perf_compare: ok ({len(cells)} cells within their bounds, "
          "digests and violation_s equal)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
