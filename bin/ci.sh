#!/bin/sh
# CI entry point: type-check, build, run every test suite, then smoke
# the benchmark harness at tiny quotas: every experiment checks its own
# invariants, and each smoke artifact is compared by shape (not by
# numbers) with the committed full-run artifact.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build @check =="
dune build @check

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

# Every example must run to completion: each asserts its own outcome
# (warehouse, for one, checks its stock totals after cursor-stability
# scans) and exits nonzero when it does not hold.
echo "== examples =="
for src in examples/*.ml; do
  exe="examples/$(basename "$src" .ml).exe"
  echo "-- $exe"
  if ! dune exec "$exe" > /tmp/example.out 2>&1; then
    cat /tmp/example.out >&2
    echo "examples: $exe exited nonzero" >&2
    exit 1
  fi
done

# The demo's crash-and-recover run is the CLI's one user of the
# durable log: it checkpoints its populated heap store, runs
# transactions, loses the store and rebuilds it from the log alone.
# It must exit 0, print its recovery report and remove the WAL
# directory it created.
echo "== demo recover =="
DEMO_DIR=$(mktemp -d)
if ! dune exec bin/asset_demo.exe -- recover --dir "$DEMO_DIR" > /tmp/demo_recover.out 2>&1; then
  cat /tmp/demo_recover.out >&2
  echo "demo recover: exited nonzero" >&2
  exit 1
fi
cat /tmp/demo_recover.out
if ! grep -q "^recovery:" /tmp/demo_recover.out; then
  echo "demo recover: no recovery report" >&2
  exit 1
fi
if [ -e "$DEMO_DIR/asset_demo.wal" ]; then
  echo "demo recover: WAL directory left behind in $DEMO_DIR" >&2
  exit 1
fi
rm -rf "$DEMO_DIR"

# Model-conformance shard (E20 harness, see DESIGN.md / EXPERIMENTS.md).
# The fixed seed set [1, 200] per model already ran under dune runtest
# above — that is the reproducible bar.  Here: one extra time-boxed run
# from a fresh random base seed, hunting schedules the fixed set
# misses.  Every failure message prints the model and exact seed, so a
# red run is replayed with CONFORMANCE_BASE_SEED=<seed> CONFORMANCE_SEEDS=1.
RANDOM_BASE=$(od -An -N3 -tu4 /dev/urandom | tr -d ' ')
echo "== conformance: random base seed ${RANDOM_BASE} (time-boxed) =="
CONFORMANCE_BASE_SEED="${RANDOM_BASE}" CONFORMANCE_SEEDS=50 \
  timeout 120 dune exec test/test_conformance.exe

# Bench smoke shards.  Every experiment checks its own invariants as it
# computes them (bench/harness.ml `check`) and the bench exits 1 if any
# failed, so each command runs bare and `set -e` stops CI on a failed
# invariant or a crash.

# Explorer smoke shard (E21 harness, see DESIGN.md §9).  The full
# canned-scenario matrix already ran under dune runtest above; this
# re-runs the small scenarios plus the complete mutation kill matrix
# through the bench entry point (every mutation must be killed).
echo "== explorer smoke (small scenarios + mutation kill matrix) =="
dune exec bench/main.exe -- --only check --smoke

# Semantic-concurrency smoke shard (E22, see DESIGN.md §10): zero
# read-only aborts in snapshot mode, a correct final counter in every
# escrow and delegation row, and the version chain collapsing once the
# pinning snapshot closes.
echo "== mvcc smoke (snapshot readers + escrow + version GC) =="
dune exec bench/main.exe -- --only mvcc --smoke

# Multicore shard smoke (E23, see DESIGN.md §11).  Two real domains,
# single-shard and 10%-cross-shard curves at tiny quotas: no point may
# leave a mixed (atomicity-violating) cross-shard outcome or lose
# value, and the 2-domain merged trace must replay through the oracle
# with zero violations and carry cross-shard XGC decision records.
# CI_DOMAINS overrides the domain count on wider runners.
echo "== shard smoke (E23: 2 domains, cross-shard 2PC, merged-trace oracle) =="
dune exec bench/main.exe -- --only shard --smoke --domains "${CI_DOMAINS:-2}"

# Durability smoke shard (E24, see DESIGN.md §12): the sustained-write
# run over the heap store must show the segmented log staying bounded
# under checkpoint-driven retirement, and recover every acknowledged
# transfer from the log alone.
echo "== recovery smoke (E24: checkpoint anchors, retirement) =="
dune exec bench/main.exe -- --only recovery --smoke

# Workload smoke shard (E25 harness, see DESIGN.md §13).  The fixed
# seed set already ran under dune runtest above (both families, clean
# and 8% injected faults, through the oracle).  Here: a time-boxed
# re-run from a fresh random base seed hunting schedules the fixed set
# misses — a red run replays with WORKLOAD_BASE_SEED=<seed>
# WORKLOAD_SEEDS=1 — then the E25 mix at tiny quotas: every engine
# config and the agentic saga must conserve money, goods, budget and
# audit entries.
WORKLOAD_RANDOM_BASE=$(od -An -N3 -tu4 /dev/urandom | tr -d ' ')
echo "== workloads: random base seed ${WORKLOAD_RANDOM_BASE} (time-boxed) =="
WORKLOAD_BASE_SEED="${WORKLOAD_RANDOM_BASE}" WORKLOAD_SEEDS=40 \
  timeout 120 dune exec test/test_workloads.exe

echo "== oltp smoke (E25: class mix across engine configs + agentic saga) =="
dune exec bench/main.exe -- --only oltp --smoke

echo "== bench smoke (E1 + E5 + E12 + E14 + E17/hotpath + E18/lockpath + E19/faults + E20/obs) =="
dune exec bench/main.exe -- --only e1,e5,e12,e14,hotpath,lockpath,faults,obs --smoke

# Every smoke artifact just written must have the shape of its
# committed full-run twin.
echo "== bench artifact sanity (BENCH_*_smoke.json vs committed BENCH_*.json) =="
dune exec bin/bench_sanity.exe

# bench_sanity itself must reject, with exit status 1, a smoke twin
# that lost a field and an artifact that does not parse; an exact twin
# is the positive control.
echo "== bench_sanity rejects bad artifacts =="
BAD_DIR=$(mktemp -d)
expect_reject() {
  status=0
  dune exec bin/bench_sanity.exe -- "$BAD_DIR" || status=$?
  if [ "$status" -ne 1 ]; then
    echo "bench_sanity: exit $status on $1, expected 1" >&2
    exit 1
  fi
}
cp BENCH_hotpath.json "$BAD_DIR/"
sed 's/"smoke": false/"smoke": true/' BENCH_hotpath.json > "$BAD_DIR/BENCH_hotpath_smoke.json"
dune exec bin/bench_sanity.exe -- "$BAD_DIR"
sed -i 's/, "steps": [0-9]*//' "$BAD_DIR/BENCH_hotpath_smoke.json"
expect_reject "a smoke twin missing a field"
rm "$BAD_DIR/BENCH_hotpath_smoke.json"
head -c 200 BENCH_hotpath.json > "$BAD_DIR/BENCH_hotpath.json"
expect_reject "a truncated artifact"
rm -rf "$BAD_DIR"

# End-to-end benchmark gate.  One short run of each perfbench workload
# at a fixed seed must be correct, and its deterministic per-layer
# counts (records, forces, bytes, lock acquires/blocks/waits, victims,
# scheduler steps, retries, commit ratio, MVCC versions, mailbox sends,
# dependency edges) must equal the ones pinned in
# bench/perf_counts.json.  The same file holds ceilings:
# wal.bytes_per_txn <= 300 on mix-durable (an Enqueue record carries
# its item, not the queue: about 221 B/txn, against about 2.6 KB/txn
# for full queue images), and on mix-rmw gc.minor_words_per_txn <= 3000
# (park reasons and fiber labels are concatenated, never formatted, and
# a waiter resumes only when its wait can end: about 2 360 words/txn,
# against about 10 900 through Format), sched.steps_per_txn <= 12 and
# engine.lock_waits_per_txn <= 4 (about 7.7 and 1.0; waking every
# parked fiber on every version bump read 22.3 and 7.0).
echo "== perfbench: per-layer counts vs bench/perf_counts.json =="
python3 bin/perf_counts.py

echo "CI OK"
