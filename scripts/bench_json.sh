#!/usr/bin/env bash
# Regenerate the machine-readable experiment baselines.
#
# Usage:
#   scripts/bench_json.sh            # E10 through E19, defaults
#   scripts/bench_json.sh e10 [...]  # only E10; extra args passed through
#   scripts/bench_json.sh e11 [...]  # only E11; extra args passed through
#   scripts/bench_json.sh e12 [...]  # only E12; extra args passed through
#   scripts/bench_json.sh e13 [...]  # only E13; extra args passed through
#   scripts/bench_json.sh e14 [...]  # only E14; extra args passed through
#   scripts/bench_json.sh e15 [...]  # only E15; extra args passed through
#   scripts/bench_json.sh e16 [...]  # only E16; extra args passed through
#   scripts/bench_json.sh e17 [...]  # only E17; extra args passed through
#   scripts/bench_json.sh e18 [...]  # only E18; extra args passed through
#   scripts/bench_json.sh e19 [...]  # only E19; extra args passed through
#
# Every binary exits non-zero when its acceptance threshold fails (E10:
# warm cache ≥5x uncached; E11: 4-shard cold serving above a ≥0.7x
# no-regression floor — post-E12 both sides resolve access lazily, so
# one-core cold serving sits near parity; E12: lazy access resolution
# ≥3x eager on selective queries; E13: index maintenance by typed
# effect (`apply_effect`) ≥5x full per-write rebuilds, no cold/warm read regression, cluster front
# cache within 1.2x of the single engine warm; E14: async serving ≥2x
# blocking thread-per-request at concurrency 8 on a 2-thread pool, with
# bit-identical answers; E15: durable engine reads within 1.2x of a
# fresh build, every recovery asserted bit-identical; E16: cold
# selective multi-term search ≥3x the pre-E16 flat-Vec dataflow at 2048
# specs, warm probe and per-write refresh no-regression, every answer
# verified identical; E17: on the one write path, batched records
# (max_batch N) no slower than max_batch 1 on the policy-churn stream at
# 32 in flight (both arms lift the fence before the covering fsync, so
# this is what batching adds on top of shared fsyncs), single-writer and
# read paths within 1.2x, a pool shrinking the mutating thread's
# snapshot pause, every final state bit-identical to a sequential
# replay; E18: the fsync-overlaps-apply count positive on the mixed
# stream at 32 in flight, a crash matrix over every byte of the final
# in-flight frame recovering batch-aligned acked prefixes
# bit-identically, and copy-on-write chunked snapshots writing ≤0.5x
# what a one-run checkpoint of every slot does at 12.5% dirty
# chunks with ≥0.5 chunk reuse; E19: targeted DeleteSpec/EditSpec
# index maintenance ≥5x per-write full rebuilds with the maintained
# index bit-identical to a fresh build of the tombstoned corpus, reads
# over the destructively grown engine within 1.2x, and the durable
# batched destructive pipeline recovering bit-identically),
# so this script doubles as a perf smoke test in CI.
set -euo pipefail
cd "$(dirname "$0")/.."

which="${1:-all}"
if [[ $# -gt 0 ]]; then shift; fi

case "$which" in
  e10)
    cargo run --release -p ppwf-bench --bin e10_query_cache -- "$@"
    ;;
  e11)
    cargo run --release -p ppwf-bench --bin e11_sharding -- "$@"
    ;;
  e12)
    cargo run --release -p ppwf-bench --bin e12_lazy_access -- "$@"
    ;;
  e13)
    cargo run --release -p ppwf-bench --bin e13_incremental_writes -- "$@"
    ;;
  e14)
    cargo run --release -p ppwf-bench --bin e14_async_serving -- "$@"
    ;;
  e15)
    cargo run --release -p ppwf-bench --bin e15_durability -- "$@"
    ;;
  e16)
    cargo run --release -p ppwf-bench --bin e16_cold_kernels -- "$@"
    ;;
  e17)
    cargo run --release -p ppwf-bench --bin e17_group_commit -- "$@"
    ;;
  e18)
    cargo run --release -p ppwf-bench --bin e18_pipelined_commit -- "$@"
    ;;
  e19)
    cargo run --release -p ppwf-bench --bin e19_destructive_writes -- "$@"
    ;;
  all)
    # The binaries take disjoint flag sets, so 'all' accepts no
    # passthrough args — target one binary to customize a run.
    if [[ $# -gt 0 ]]; then
      echo "extra args need an explicit target: bench_json.sh {e10|e11|e12|e13|e14|e15|e16|e17|e18|e19} $*" >&2
      exit 2
    fi
    cargo run --release -p ppwf-bench --bin e10_query_cache
    cargo run --release -p ppwf-bench --bin e11_sharding
    cargo run --release -p ppwf-bench --bin e12_lazy_access
    cargo run --release -p ppwf-bench --bin e13_incremental_writes
    cargo run --release -p ppwf-bench --bin e14_async_serving
    cargo run --release -p ppwf-bench --bin e15_durability
    cargo run --release -p ppwf-bench --bin e16_cold_kernels
    cargo run --release -p ppwf-bench --bin e17_group_commit
    cargo run --release -p ppwf-bench --bin e18_pipelined_commit
    cargo run --release -p ppwf-bench --bin e19_destructive_writes
    ;;
  *)
    echo "unknown target '$which' (expected e10, e11, e12, e13, e14, e15, e16, e17, e18, e19, or all)" >&2
    exit 2
    ;;
esac
