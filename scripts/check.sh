#!/usr/bin/env bash
# Tier-1 gate: build the default and asan presets and run the full test
# suite under both. Everything must pass before a change merges.
#
#   ./scripts/check.sh          # default + asan
#   ./scripts/check.sh default  # one preset only
#   ./scripts/check.sh tsan     # ThreadSanitizer pass (parallel executor)
#
# CI runs all three presets; tsan is opt-in locally because it is the
# slowest of the three.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan)
fi

for preset in "${presets[@]}"; do
  echo "==> configure (${preset})"
  cmake --preset "${preset}"
  echo "==> build (${preset})"
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "==> test (${preset})"
  ctest --preset "${preset}" -j "${jobs}"
  echo "==> recovery smoke (${preset}: kill-point matrix + WAL suite)"
  ctest --preset "${preset}" \
    -R 'KillPointMatrixTest|RecoveryTest|LogManagerTest|WalBeforeDataTest' \
    -j "${jobs}" --output-on-failure
  echo "==> transaction smoke (${preset}: MVCC stress + durability)"
  ctest --preset "${preset}" \
    -R 'TxnSqlTest|TxnStressTest|TxnDurabilityTest' \
    -j "${jobs}" --output-on-failure
done

# End-to-end durability smoke: journal a workload, reopen, and fail if
# the recovered database lost rows (bench_wal --smoke exits nonzero).
if [ -x build/bench/bench_wal ]; then
  echo "==> durability smoke (bench_wal --smoke)"
  (cd build/bench && ./bench_wal --scale=0.01 --smoke > /dev/null)
fi

# Metrics-overhead + zone-map smoke: the instrumented batch scan must
# stay within 1.10x of the same plan with metrics disabled, the
# selective zone-map arm must return identical hits while skipping at
# least one page, and zone maps must not slow an unselective full scan
# by more than the committed gate (bench_batch_executor --smoke exits
# nonzero and prints the offending arm).
if [ -x build/bench/bench_batch_executor ]; then
  echo "==> metrics + zone-map smoke (bench_batch_executor --smoke)"
  (cd build/bench && ./bench_batch_executor --scale=0.05 --repeats=3 --smoke \
    > /dev/null)
fi

# Case-study smoke: the Fig. 16 queries (Q2 joins two Birds versions)
# end to end at 90 birds; any error in the join path aborts the bench.
if [ -x build/bench/bench_fig16_case_study ]; then
  echo "==> case-study smoke (bench_fig16_case_study)"
  (cd build/bench && ./bench_fig16_case_study --scale=0.002 --repeats=1 \
    > /dev/null)
fi

# Index-figure smoke: Figs. 10-13 at 90 birds drive every index probe,
# including the conventional-pointer Summary-BTree and the reconstructing
# baseline scan; Figs. 12 and 13 exit nonzero when their arms disagree.
for bench in bench_fig10_sp_query bench_fig11_two_predicates \
    bench_fig12_denorm_propagation bench_fig13_backward_ptrs; do
  if [ -x "build/bench/${bench}" ]; then
    echo "==> index-figure smoke (${bench})"
    (cd build/bench && "./${bench}" --scale=0.002 --repeats=1 > /dev/null)
  fi
done

# Server smoke: boot insightd, run statements through insight_cli over
# the wire, scrape the Metrics frame, and require a clean drain exit.
if [ -x build/src/net/insightd ]; then
  echo "==> server smoke (insightd + insight_cli)"
  ./scripts/server_smoke.sh build
fi

# Network throughput smoke: 1/4/16 concurrent clients, every reply
# verified; 16 clients must not fall below half the single-client
# aggregate (bench_net --smoke exits nonzero).
if [ -x build/bench/bench_net ]; then
  echo "==> network smoke (bench_net --smoke)"
  (cd build/bench && ./bench_net --smoke > /dev/null)
fi

# Replication smoke: primary + two replica processes, read-your-writes
# through the routed CLI, kill -9 the primary, promote, verify rows.
if [ -x build/src/net/insightd ]; then
  echo "==> replication smoke (primary + replicas + failover)"
  ./scripts/replica_smoke.sh build
fi

# Replication bench smoke: apply lag must catch up and every routed read
# against 1 and 2 replicas must verify (bench_replication --smoke exits
# nonzero).
if [ -x build/bench/bench_replication ]; then
  echo "==> replication smoke (bench_replication --smoke)"
  (cd build/bench && ./bench_replication --smoke > /dev/null)
fi

# Statistics smoke: against a churned corpus the sketch tier's q-errors
# must be no worse at the median/p95 and strictly better at the tail, at
# least one plan must flip, and inline sketch maintenance must stay
# within 1.10x of stats-off DML (bench_stats --smoke exits nonzero).
if [ -x build/bench/bench_stats ]; then
  echo "==> statistics smoke (bench_stats --smoke)"
  (cd build/bench && ./bench_stats --smoke > /dev/null)
fi

# Reference bench artifacts are committed at the repo root so estimate
# regressions show up as diffs; a bench that stops emitting its JSON (or
# a new bench that never committed one) fails here, not in review.
echo "==> committed bench artifacts present"
for artifact in BENCH_net.json BENCH_obs.json BENCH_parallel.json \
    BENCH_wal.json BENCH_replication.json BENCH_stats.json \
    BENCH_scan.json; do
  if [ ! -f "${artifact}" ]; then
    echo "missing committed bench artifact: ${artifact}" >&2
    exit 1
  fi
done

echo "==> all checks passed"
