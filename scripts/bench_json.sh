#!/usr/bin/env bash
# Regenerate the machine-readable E10–E19 baselines (BENCH_e1x_*.json).
#
# Usage:
#   scripts/bench_json.sh               # every emitter, default flags
#   scripts/bench_json.sh e13 [FLAG...] # one emitter; flags passed through
#
# Each emitter declares its flags once, with their defaults, through the
# `ppwf_bench::harness` flag parser: an unknown flag, a missing value or a
# value that does not parse exits 2 and prints the usage. Each writes its
# record through the harness's one JSON writer, then exits non-zero when
# an acceptance gate fails (E10: warm cache ≥5x uncached; E11: 4-shard
# cold serving above a ≥0.7x no-regression floor; E12: lazy access
# resolution ≥3x eager on selective queries; E13: index maintenance by
# typed effect ≥5x per-write rebuilds, reads and the cluster front's warm
# path within 1.2x; E14: async serving ≥2x blocking thread-per-request at
# concurrency 8; E15: durable reads within 1.2x of a fresh build; E16:
# cold multi-term search ≥3x the pre-E16 flat-Vec dataflow, warm probe
# and per-write refresh no-regression; E17: batched records no slower
# than max_batch 1 on policy churn at 32 in flight, single-writer and
# read paths within 1.2x, a pool shrinking the snapshot pause; E18: a
# positive fsync/apply overlap count, copy-on-write snapshots writing
# ≤0.5x a one-run checkpoint at 12.5% dirty chunks with ≥0.5 reuse; E19:
# targeted delete/edit maintenance ≥5x per-write rebuilds, reads within
# 1.2x). Every answer and recovery check is asserted as well, so this
# script doubles as a perf smoke test in CI; `scripts/bench_keys.sh`
# then checks each record's keys against the committed baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A bins=(
  [e10]=e10_query_cache
  [e11]=e11_sharding
  [e12]=e12_lazy_access
  [e13]=e13_incremental_writes
  [e14]=e14_async_serving
  [e15]=e15_durability
  [e16]=e16_cold_kernels
  [e17]=e17_group_commit
  [e18]=e18_pipelined_commit
  [e19]=e19_destructive_writes
)
targets=(e10 e11 e12 e13 e14 e15 e16 e17 e18 e19)

which="${1:-all}"
if [[ $# -gt 0 ]]; then shift; fi

if [[ "$which" == all ]]; then
  # The emitters take disjoint flag sets: target one to customize a run.
  if [[ $# -gt 0 ]]; then
    echo "extra args need an explicit target: bench_json.sh {${targets[*]}} $*" >&2
    exit 2
  fi
  for target in "${targets[@]}"; do
    cargo run --release -p ppwf-bench --bin "${bins[$target]}"
  done
elif [[ -n "${bins[$which]:-}" ]]; then
  cargo run --release -p ppwf-bench --bin "${bins[$which]}" -- "$@"
else
  echo "unknown target '$which' (expected one of ${targets[*]}, or all)" >&2
  exit 2
fi
