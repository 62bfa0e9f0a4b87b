//! # ppwf-perfbench — the E20 end-to-end benchmark
//!
//! One driver (`ppwf_bench`) plays four seeded workloads through the real
//! front door, checks every answer, and reports the end-to-end and
//! per-layer metrics `BENCHMARK.json` names. See `BENCHMARKS.md` in this
//! directory for why each workload and metric exists and how to compare
//! two sets of runs.

pub mod e2e;
pub mod hist;
pub mod json;
pub mod stream;
