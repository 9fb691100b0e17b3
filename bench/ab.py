#!/usr/bin/env python3
"""A/B comparison of two commits on the detector benchmark.

Run from anywhere inside a checkout:

    python3 bench/ab.py BASE CHANGE [--workloads=arrays,objects,sync]
        [--pairs=10] [--seconds=30] [--seed=1]

BASE and CHANGE are any commits git can name (HEAD~1, a hash, a branch).
Each is checked out into a temporary `git worktree` and built there, into
a build tree of its own (CARGO_TARGET_DIR), by that commit's own
detbench/run.py; the worktrees and builds are removed on exit. Then, for
each workload, the script runs `detbench/run.py --trace 0` of each side
PAIRS times, alternating which side runs first, so both sample the same
stretches of machine load.

For every end-to-end metric it prints each side's median and quartiles
over the runs, the ratio of the medians (CHANGE / BASE), how many pairs
CHANGE won (was better than BASE in the same pair), whether a gain is
resolved (CHANGE won at least nine pairs in ten, and its median lies
further from BASE's median than BASE's quartile distance), and a verdict
against the metric's bound in BENCHMARK.json, a fraction of BASE's
median:

    worse       CHANGE's median is worse than BASE's by more than the bound
    unresolved  BASE's quartile distance is wider than the bound
    ok          neither

Each run's metrics are echoed to stderr as they arrive.

Exits 1 if a build or run fails or a run reports wrong output.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = subprocess.run(
    ["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True,
    cwd=os.path.dirname(os.path.abspath(__file__))).stdout.strip()


class AbError(Exception):
    pass


def git(*args):
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise AbError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def end_to_end():
    """Each end-to-end metric's entry (better, bound) in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


class Side:
    """One commit, checked out and built in a directory of its own."""

    def __init__(self, name, commit, scratch):
        self.name = name
        self.commit = commit
        self.tree = os.path.join(scratch, name)
        self.build = os.path.join(scratch, name + "-build")
        git("worktree", "add", "--detach", self.tree, commit)

    def run(self, workload, seed, seconds):
        env = dict(os.environ, CARGO_TARGET_DIR=self.build)
        proc = subprocess.run(
            [sys.executable, "detbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=self.tree, env=env, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise AbError(f"{self.name}: run.py on {workload} failed:\n"
                          f"{proc.stderr.strip()}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            raise AbError(f"{self.name}: {workload} run was not correct:\n"
                          f"{proc.stderr.strip()}")
        return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(bmed, bq1, bq3, cmed, sign, bound):
    """worse, unresolved or ok: the gating rule for one metric."""
    if not bmed:
        return "unresolved"
    if sign * (cmed - bmed) / bmed > bound:
        return "worse"
    if (bq3 - bq1) / bmed > bound:
        return "unresolved"
    return "ok"


def report(workload, runs, spec):
    """Prints one row per metric of one workload's pairs."""
    base, change = runs["base"], runs["change"]
    pairs = len(base)
    for metric in sorted(base[0]):
        b = [r[metric] for r in base]
        c = [r[metric] for r in change]
        entry = spec.get(metric, {})
        sign = 1 if entry.get("better", "lower") == "lower" else -1
        won = sum(sign * (cv - bv) < 0 for bv, cv in zip(b, c))
        bmed, cmed = statistics.median(b), statistics.median(c)
        bq1, bq3 = quartiles(b)
        cq1, cq3 = quartiles(c)
        resolved = (won >= math.ceil(0.9 * pairs) and
                    abs(cmed - bmed) > bq3 - bq1)
        ratio = cmed / bmed if bmed else float("nan")
        gate = ("-" if "bound" not in entry else
                verdict(bmed, bq1, bq3, cmed, sign, entry["bound"]))
        print(f"{workload:8} {metric:20} "
              f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':>30}  "
              f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':>30}  "
              f"{ratio:6.3f}  {f'{won}/{pairs}':>5}  "
              f"{'yes' if resolved else 'no':>8}  {gate}")


def main():
    parser = argparse.ArgumentParser(
        description="A/B comparison of two commits on detbench.")
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workloads", default="arrays,objects,sync")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    workloads = [w for w in args.workloads.split(",") if w]

    scratch = tempfile.mkdtemp(prefix="bigfoot-ab-")
    sides = []
    try:
        spec = end_to_end()
        for name, commit in (("base", args.base), ("change", args.change)):
            sides.append(Side(name, git("rev-parse", commit), scratch))
        print(f"ab: base {args.base} ({sides[0].commit[:10]}) vs change "
              f"{args.change} ({sides[1].commit[:10]}), {args.pairs} pair(s) "
              f"of {args.seconds:g} s per workload, seed {args.seed}",
              flush=True)
        # A first short run builds each side before any timed pair.
        for side in sides:
            side.run(workloads[0], args.seed, 0.01)
        print(f"{'workload':8} {'metric':20} {'base median [q1, q3]':>30}  "
              f"{'change median [q1, q3]':>30}  {'ratio':>6}  {'won':>5}  "
              f"{'resolved':>8}  verdict", flush=True)
        for workload in workloads:
            runs = {"base": [], "change": []}
            for pair in range(args.pairs):
                order = sides if pair % 2 == 0 else sides[::-1]
                for side in order:
                    metrics = side.run(workload, args.seed, args.seconds)
                    runs[side.name].append(metrics)
                    print(f"ab: {workload} pair {pair + 1} {side.name}: " +
                          " ".join(f"{k}={v:.4g}"
                                   for k, v in sorted(metrics.items())),
                          file=sys.stderr, flush=True)
            report(workload, runs, spec)
    except (AbError, OSError, ValueError, KeyError) as e:
        print(f"ab: {e}", file=sys.stderr)
        return 1
    finally:
        for side in sides:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            side.tree], capture_output=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
