#!/usr/bin/env python3
"""Compare perfbench's deterministic per-layer counts with bench/perf_counts.json.

    python3 bin/perf_counts.py            # check: exit 1 if a count moved
    python3 bin/perf_counts.py --update   # rewrite the pinned counts

Run from the root of the source tree.  For each workload in the pin
file it runs `perfbench/run.py --workload W` with the file's `args`
and reads the JSON result on the last output line.  The run must be
correct with no failed transaction.  Every metric named in `pinned`
must equal the committed value, and every metric in the workload's
`ceilings` must stay at or below its bound.  Timings and
timing-dependent counts (lock.cycle_checks_per_txn on mix-2pc,
gc.minor_words_per_txn, which moves in minor-heap steps) are never
pinned; a ceiling bounds the second.

`--update` reruns every workload and writes the new counts.  It
leaves the ceilings alone, so a change that moves a count still has
to clear them.
"""

import json
import subprocess
import sys

PIN_FILE = "bench/perf_counts.json"


def run(workload, args):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload] + args,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stdout.write(out.stdout)
        sys.exit("perf_counts: %s run failed (exit %d)" % (workload, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("perf_counts: %s run not correct (failed=%s)" % (workload, result["failed"]))
    return {k: m["value"] for k, m in result["metrics"].items()}


def main():
    update = sys.argv[1:] == ["--update"]
    if sys.argv[1:] and not update:
        sys.exit("usage: perf_counts.py [--update]")
    with open(PIN_FILE) as f:
        pins = json.load(f)
    problems = []
    for workload, spec in pins["workloads"].items():
        got = run(workload, pins["args"])
        if update:
            spec["counts"] = {k: got[k] for k in pins["pinned"]}
        for k in pins["pinned"]:
            want = spec["counts"][k]
            if got[k] != want:
                problems.append("%s %s = %s, pinned %s" % (workload, k, got[k], want))
            print("%-12s %-32s %-14s %s" % (workload, k, got[k], "ok" if got[k] == want else "MOVED"))
        for k, bound in spec["ceilings"].items():
            if got[k] > bound:
                problems.append("%s %s = %s > ceiling %s" % (workload, k, got[k], bound))
            print("%-12s %-32s %-14s %s" % (workload, k, got[k], "<= %s" % bound if got[k] <= bound else "ABOVE"))
    if update:
        with open(PIN_FILE, "w") as f:
            json.dump(pins, f, indent=2)
            f.write("\n")
        print("perf_counts: wrote %s" % PIN_FILE)
    if problems:
        sys.exit("perf_counts: " + "; ".join(problems))


if __name__ == "__main__":
    main()
