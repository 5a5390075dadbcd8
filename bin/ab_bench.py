#!/usr/bin/env python3
"""A/B-compare perfbench between a parent revision and the working tree.

    python3 bin/ab_bench.py --parent HEAD~1 --workload mix-2pc --pairs 10 --seconds 5 --seed 1

Run from the root of the source tree.  The parent revision is exported
with `git archive`, and the working tree's files (tracked and untracked,
less those .gitignore names) are copied, each into a fresh temporary
directory; no worktree is registered, so nothing is left in .git.
perfbench/run.py builds each side in its own directory on its first
run.  The script then runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` in
alternating pairs, the side that runs first swapping each pair, and
prints for every end-to-end metric in BENCHMARK.json the median and
q1-q3 of each side, the median ratio change/parent, and in how many
pairs the change was better.  A run that is not correct, or that has
failed transactions, stops the comparison.

It only measures timings, so it is not part of CI.  The numbers are
only as good as the host is quiet: run nothing else meanwhile.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def export(rev, dest):
    """Write the tree of [rev] into [dest] with git archive."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("ab_bench: git archive %s failed" % rev)


def copy_worktree(dest):
    """Copy the working tree's files, as git would commit them, into [dest]."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        stdout=subprocess.PIPE,
        check=True,
    ).stdout
    for path in listed.decode().split("\0"):
        if path and os.path.isfile(path):
            os.makedirs(os.path.join(dest, os.path.dirname(path)), exist_ok=True)
            shutil.copy2(path, os.path.join(dest, path))


def run(tree, args):
    """One perfbench run in [tree]; its end-to-end metrics."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=tree,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("ab_bench: run in %s failed (exit %d)" % (tree, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("ab_bench: run in %s not correct (failed=%s)" % (tree, result["failed"]))
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--seed", type=int, default=1)
    opts = ap.parse_args()
    with open("BENCHMARK.json") as f:
        metrics = [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]
    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--seconds", str(opts.seconds), "--trace", "0"]
    workdir = tempfile.mkdtemp(prefix="ab_bench.")
    parent, change = os.path.join(workdir, "parent"), os.path.join(workdir, "change")
    try:
        os.makedirs(parent)
        export(opts.parent, parent)
        copy_worktree(change)
        runs = {"parent": [], "change": []}
        for i in range(opts.pairs):
            order = [("parent", parent), ("change", change)]
            if i % 2 == 1:
                order.reverse()
            for side, tree in order:
                runs[side].append(run(tree, args))
            print("pair %d/%d: throughput %.0f -> %.0f" % (
                i + 1, opts.pairs, runs["parent"][-1]["throughput_per_s"], runs["change"][-1]["throughput_per_s"]),
                file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%s, %d pairs of %gs at seed %d, parent %s: median [q1-q3]" % (
        opts.workload, opts.pairs, opts.seconds, opts.seed, opts.parent))
    for name, better in metrics:
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pq, cq = quartiles(p), quartiles(c)
        wins = sum(1 for a, b in zip(p, c) if (b > a if better == "higher" else b < a))
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        print("%-24s %12.5g [%.5g-%.5g] -> %12.5g [%.5g-%.5g]  x%.3f  %d/%d better (%s)" % (
            name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], ratio, wins, opts.pairs, better))


if __name__ == "__main__":
    sys.exit(main())
