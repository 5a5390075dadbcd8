#!/bin/sh
# CI entry point: type-check, build, run every test suite, then smoke
# the benchmark harness (tiny quotas — shape check only, not numbers).
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
# durable log: it must exit 0, print its recovery report and remove
# the WAL directory it created.
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

# Explorer smoke shard (E21 harness, see DESIGN.md §9).  The full
# canned-scenario matrix already ran under dune runtest above; this
# re-runs the small scenarios plus the complete mutation kill matrix
# through the bench entry point, and fails if any mutation survives.
echo "== explorer smoke (small scenarios + mutation kill matrix) =="
dune exec bench/main.exe -- --only check --smoke | tee /tmp/check_smoke.out
if grep -q "| NO " /tmp/check_smoke.out; then
  echo "explorer smoke: a seeded mutation was NOT killed" >&2
  exit 1
fi

# Semantic-concurrency smoke shard (E22, see DESIGN.md §10).  Beyond
# the schema check below, assert the two structural invariants the
# full run must also show: zero read-only aborts in snapshot mode, and
# the version chain collapsing once the pinning snapshot closes.
echo "== mvcc smoke (snapshot readers + escrow + version GC) =="
dune exec bench/main.exe -- --only mvcc --smoke | tee /tmp/mvcc_smoke.out
if ! grep -Eq "^snapshot \| +[0-9]+ +\| 0 " /tmp/mvcc_smoke.out; then
  echo "mvcc smoke: snapshot readers aborted (expected zero)" >&2
  exit 1
fi
if ! grep -Eq "after close: 1 " /tmp/mvcc_smoke.out; then
  echo "mvcc smoke: version chain did not collapse after snapshot close" >&2
  exit 1
fi

# Multicore shard smoke (E23, see DESIGN.md §11).  Two real domains,
# single-shard and 10%-cross-shard curves at tiny quotas, then the
# structural assertions: the 2-domain merged multi-domain trace must
# replay through the oracle with zero violations (and actually carry
# cross-shard XGC decision records), and no point may leave a mixed
# (atomicity-violating) cross-shard outcome.  CI_DOMAINS overrides the
# domain count on wider runners.
echo "== shard smoke (E23: 2 domains, cross-shard 2PC, merged-trace oracle) =="
dune exec bench/main.exe -- --only shard --smoke --domains "${CI_DOMAINS:-2}" | tee /tmp/shard_smoke.out
if ! grep -Eq "^E23 conformance: .* 0 violations \[OK\]$" /tmp/shard_smoke.out; then
  echo "shard smoke: merged multi-domain history failed the oracle" >&2
  exit 1
fi
if grep -Eq "conformance: .* [^0-9]0 xgc edges" /tmp/shard_smoke.out; then
  echo "shard smoke: no cross-shard decision records in merged history" >&2
  exit 1
fi
if ! awk -F'|' '/^[0-9]+ +\|/ { gsub(/ /,"",$5); if ($5 != "0") exit 1 }' /tmp/shard_smoke.out; then
  echo "shard smoke: mixed cross-shard outcome (atomicity violation)" >&2
  exit 1
fi

# Durability smoke shard (E24, see DESIGN.md §12).  Recovery-time
# curves at tiny quotas, then the structural assertion: the
# sustained-write run must show the segmented log staying bounded
# under checkpoint-driven retirement.
echo "== recovery smoke (E24: checkpoint anchors, retirement) =="
dune exec bench/main.exe -- --only recovery --smoke | tee /tmp/recovery_smoke.out
if ! grep -Eq "^E24 retirement: log stays bounded \[OK\]$" /tmp/recovery_smoke.out; then
  echo "recovery smoke: segmented log did not stay bounded" >&2
  exit 1
fi

# Workload smoke shard (E25 harness, see DESIGN.md §13).  The fixed
# seed set already ran under dune runtest above (both families, clean
# and 8% injected faults, through the oracle).  Here: a time-boxed
# re-run from a fresh random base seed hunting schedules the fixed set
# misses — a red run replays with WORKLOAD_BASE_SEED=<seed>
# WORKLOAD_SEEDS=1 — then the E25 mix at tiny quotas with its
# structural assertion: every engine config and the agentic saga must
# conserve money, goods, budget and audit entries.
WORKLOAD_RANDOM_BASE=$(od -An -N3 -tu4 /dev/urandom | tr -d ' ')
echo "== workloads: random base seed ${WORKLOAD_RANDOM_BASE} (time-boxed) =="
WORKLOAD_BASE_SEED="${WORKLOAD_RANDOM_BASE}" WORKLOAD_SEEDS=40 \
  timeout 120 dune exec test/test_workloads.exe

echo "== oltp smoke (E25: class mix across engine configs + agentic saga) =="
dune exec bench/main.exe -- --only oltp --smoke | tee /tmp/oltp_smoke.out
if ! grep -Eq "^E25 conservation: .* \[OK\]$" /tmp/oltp_smoke.out; then
  echo "oltp smoke: a conservation law failed" >&2
  exit 1
fi

echo "== bench smoke (E1 + E12 + E14 + E17/hotpath + E18/lockpath + E19/faults + E20/obs + E21/check + E22/mvcc) =="
dune exec bench/main.exe -- --only e1,e12,e14,hotpath,lockpath,faults,obs,check,mvcc --smoke

echo "== bench artifact sanity (BENCH_*.json schemas) =="
dune exec bin/bench_sanity.exe

echo "CI OK"
