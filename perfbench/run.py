#!/usr/bin/env python3
"""Build and run the OLTP-mix benchmark from the root of a source tree.

    python3 perfbench/run.py --workload mix-durable --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune, then runs it with the same
arguments plus the git revision when one can be read.  The benchmark's
last output line is its JSON result.  Exits 2 without running anything
when the tree holding the engine's sources is not here.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def git_rev():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune not found")


def main():
    for need in ("dune-project", os.path.join("lib", "workload", "oltp.ml"), os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            print(f"run.py: {need} missing; run from the root of the source tree", file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune_command() + ["build", "--root", ".", "--display", "quiet", "perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:] + ["--rev", git_rev()]).returncode


if __name__ == "__main__":
    sys.exit(main())
