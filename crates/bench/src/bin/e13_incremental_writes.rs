//! E13 baseline emitter: the incremental write pipeline vs full per-write
//! index rebuilds, plus the cluster-front result cache's warm path.
//!
//! ```bash
//! cargo run --release -p ppwf-bench --bin e13_incremental_writes -- \
//!     [--out BENCH_e13_incremental_writes.json] [--specs 1024] \
//!     [--writes 128] [--reads 300] [--shards 4] [--seed 17] \
//!     [--exec-pct 60] [--policy-pct 20] [--min-speedup 5.0] \
//!     [--max-read-regression 1.2] [--max-warm-ratio 1.2]
//! ```
//!
//! One E11-shaped corpus, one distinct read log, one mixed typed-write
//! stream (the **workload-mix knob**: `--exec-pct` execution appends —
//! the paper's dominant write, provenance accruing over repeated
//! executions — `--policy-pct` policy swaps, the rest spec inserts).
//! Three measured sections:
//!
//! * **Per-write index maintenance.** The same stream drives two
//!   repository copies; after every write one side rebuilds its
//!   [`KeywordIndex`] from scratch (the pre-E13 engine behavior), the
//!   other hands it the write's typed effect (`apply_effect`: inserts
//!   append, execution appends and policy swaps do nothing). Before any
//!   number is reported the maintained index is checked bit-identical to
//!   a fresh build of the final corpus, and its counters must show index
//!   work only for inserts.
//! * **Read no-regression.** A one-shard cluster — what serves one index —
//!   that *grew* through the typed write pipeline serves the read log
//!   against one constructed fresh over the identical final corpus — cold
//!   and warm. The incremental index must serve reads no slower (within
//!   `--max-read-regression`), and both must return identical spec ids.
//! * **Cluster-front warm path.** A sharded cluster serves the same log
//!   through its epoch-tagged front cache; its warm pass must land
//!   within `--max-warm-ratio` of the one-shard warm pass (E11's
//!   former warm-path gap). A mid-stream execution append then proves the
//!   front cache *survives* the dominant write: the follow-up warm pass
//!   still hits the front, with answers unchanged.
//!
//! **Boundary.** `apply_effect` trusts its caller to hand it every effect
//! in order (the engine owns its repository and every write is a typed
//! mutation); it verifies nothing against the repository, so per-write
//! maintenance is O(the written spec's text). The binary exits non-zero
//! when any acceptance gate fails.

use ppwf_bench::harness::{
    alternate, assert_same_answers, best_pass, fixed, hits, maintenance_pass, serve_pass,
    write_record, Json,
};
use ppwf_bench::{
    e11_corpus, e11_query_log, e11_repo, e13_write_stream, replay, standard_registry,
};
use ppwf_query::cluster::EngineCluster;
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::mutation::Mutation;
use std::time::Instant;

ppwf_bench::flags! {
    struct Config {
        out: String = "BENCH_e13_incremental_writes.json",
        specs: usize = "1024",
        writes: usize = "128",
        reads: usize = "300",
        shards: usize = "4",
        seed: u64 = "17",
        exec_pct: u32 = "60",
        policy_pct: u32 = "20",
        min_speedup: f64 = "5.0",
        max_read_regression: f64 = "1.2",
        max_warm_ratio: f64 = "1.2",
    }
}

fn main() {
    let config = Config::parse();
    println!("== E13: incremental write pipeline vs full per-write index rebuilds ==");
    let insert_pct = 100 - config.exec_pct - config.policy_pct;
    println!(
        "corpus: {} specs · {} writes ({}% exec appends, {}% policy swaps, {insert_pct}% inserts) · {} reads · seed {}",
        config.specs, config.writes, config.exec_pct, config.policy_pct, config.reads, config.seed
    );

    let corpus = e11_corpus(config.specs, config.seed);
    let log = e11_query_log(&corpus, config.reads, config.seed ^ 0x5EED);
    assert!(log.len() >= config.reads * 9 / 10, "read log came up short");
    let stream = e13_write_stream(
        &corpus,
        config.writes,
        config.exec_pct,
        config.policy_pct,
        config.seed ^ 0xE13,
    );
    let structure_free = stream
        .iter()
        .filter(|m| matches!(m, Mutation::AddExecution { .. } | Mutation::SetPolicy { .. }))
        .count();

    // -- section A: per-write index maintenance -----------------------------
    // Baseline: the pre-E13 engine rebuilt the whole index on every write;
    // incremental: the typed effect folded into the index.
    let docs_at_start = KeywordIndex::build(&e11_repo(&corpus)).docs_indexed();
    let (full_us, incr_us, _, index_incr) = maintenance_pass(|| e11_repo(&corpus), &stream, &log);
    let docs_appended = index_incr.docs_indexed() - docs_at_start;
    assert!(docs_appended > 0 || structure_free == stream.len(), "inserts must append postings");
    let maintenance_speedup = full_us / incr_us;

    let per_write = |us: f64| us / config.writes.max(1) as f64;
    println!("\n-- per-write index maintenance ({} writes) --", config.writes);
    println!("{:>22} {:>14} {:>12}", "path", "µs/write", "speedup");
    println!("{:>22} {:>14.1} {:>12}", "full rebuild", per_write(full_us), "1.0x");
    println!("{:>22} {:>14.1} {:>11.1}x", "apply_effect", per_write(incr_us), maintenance_speedup);
    println!(
        "index work: {docs_appended} docs appended over {} writes ({structure_free} structure-free writes did zero)",
        stream.len(),
    );

    // -- section B: read no-regression --------------------------------------
    // Grow a one-shard cluster through the typed pipeline; build its twin
    // fresh over the identical final corpus. A cold pass is one-shot per
    // cluster and totals only a few ms, where one scheduler interrupt on a
    // shared host swamps the signal — so measure COLD_REPS independent pairs
    // (order alternated to cancel measurement-order bias) and compare the
    // per-side minima, the same noise-floor estimate the warm passes use.
    const COLD_REPS: usize = 3;
    let mut pipeline_us = 0.0f64;
    let (mut fresh_cold_us, mut grown_cold_us) = (f64::INFINITY, f64::INFINITY);
    let mut fresh_hits = 0usize;
    let mut pair: Option<(EngineCluster, EngineCluster)> = None;
    {
        // Warm the allocator/page cache outside timing.
        let warmup = EngineCluster::new(e11_repo(&corpus), standard_registry(), 1);
        let _ = serve_pass(hits(&warmup), &log);
    }
    for rep in 0..COLD_REPS {
        let mut cluster_grown = EngineCluster::new(e11_repo(&corpus), standard_registry(), 1);
        let t = Instant::now();
        for m in stream.iter().cloned() {
            cluster_grown.mutate(m).expect("write stream valid");
        }
        pipeline_us = t.elapsed().as_secs_f64() * 1e6;
        let cluster_fresh =
            EngineCluster::new(replay(e11_repo(&corpus), &stream), standard_registry(), 1);
        let ((fresh_us, fh), (grown_us, gh)) = alternate(
            rep,
            || serve_pass(hits(&cluster_fresh), &log),
            || serve_pass(hits(&cluster_grown), &log),
        );
        assert_eq!(gh, fh, "the grown cluster serves different answers");
        fresh_cold_us = fresh_cold_us.min(fresh_us);
        grown_cold_us = grown_cold_us.min(grown_us);
        fresh_hits = fh;
        pair = Some((cluster_grown, cluster_fresh));
    }
    let (cluster_grown, cluster_fresh) = pair.expect("at least one rep");
    assert_same_answers(&cluster_grown, &cluster_fresh, &log, "grown vs fresh");
    const WARM_REPS: usize = 9;
    let (fresh_warm_us, _) = best_pass(WARM_REPS, hits(&cluster_fresh), &log);
    let (grown_warm_us, _) = best_pass(WARM_REPS, hits(&cluster_grown), &log);
    let cold_ratio = grown_cold_us / fresh_cold_us;
    let warm_ratio = grown_warm_us / fresh_warm_us;

    let per_q = |us: f64| us / log.len() as f64;
    println!("\n-- read path after {} writes ({} reads) --", config.writes, log.len());
    println!("{:>22} {:>12} {:>12}", "engine", "cold µs/q", "warm µs/q");
    println!("{:>22} {:>12.1} {:>12.3}", "fresh build", per_q(fresh_cold_us), per_q(fresh_warm_us));
    println!(
        "{:>22} {:>12.1} {:>12.3}",
        "grown incrementally",
        per_q(grown_cold_us),
        per_q(grown_warm_us)
    );
    println!(
        "cold ratio {cold_ratio:.3}, warm ratio {warm_ratio:.3} (gate ≤{:.1})",
        config.max_read_regression
    );

    // -- section C: cluster-front warm path ---------------------------------
    let final_repo = replay(e11_repo(&corpus), &stream);
    let mut cluster = EngineCluster::new(final_repo, standard_registry(), config.shards);
    let (cluster_cold_us, cluster_cold_hits) = serve_pass(hits(&cluster), &log);
    assert_eq!(cluster_cold_hits, fresh_hits, "cluster changed total hits");
    let (cluster_warm_us, _) = best_pass(WARM_REPS, hits(&cluster), &log);
    let warm_vs_single = cluster_warm_us / fresh_warm_us;
    let front_before = cluster.stats().front;

    // The dominant write must leave the front cache warm: append one
    // execution, then re-serve the whole log and require front hits only.
    let exec_write =
        stream.iter().find(|m| matches!(m, Mutation::AddExecution { .. })).cloned().unwrap_or_else(
            || e13_write_stream(&corpus, 8, 100, 0, config.seed ^ 0xFE).swap_remove(0),
        );
    cluster.mutate(exec_write).expect("append valid");
    let (cluster_after_us, cluster_after_hits) = serve_pass(hits(&cluster), &log);
    assert_eq!(cluster_after_hits, cluster_cold_hits, "append changed keyword answers");
    let front_after = cluster.stats().front;
    assert_eq!(
        front_after.hits,
        front_before.hits + log.len() as u64,
        "an execution append must not evict a single front-cache entry"
    );

    println!("\n-- cluster-front warm path ({} shards) --", config.shards);
    println!("{:>26} {:>12}", "pass", "µs/q");
    println!("{:>26} {:>12.3}", "one shard warm", per_q(fresh_warm_us));
    println!("{:>26} {:>12.3}", "cluster cold (scatter)", per_q(cluster_cold_us));
    println!("{:>26} {:>12.3}", "cluster warm (front)", per_q(cluster_warm_us));
    println!("{:>26} {:>12.3}", "cluster warm post-append", per_q(cluster_after_us));
    println!(
        "cluster warm / single warm = {warm_vs_single:.3} (gate ≤{:.1}); front hit rate {:.4}",
        config.max_warm_ratio,
        front_after.hits as f64 / (front_after.hits + front_after.misses) as f64
    );

    let write_mix = Json::obj()
        .with("exec_append_pct", config.exec_pct)
        .with("policy_swap_pct", config.policy_pct)
        .with("insert_pct", insert_pct);
    let index_maintenance = Json::obj()
        .with("full_rebuild_us_per_write", fixed(per_write(full_us), 3))
        .with("incremental_refresh_us_per_write", fixed(per_write(incr_us), 3))
        .with("speedup_incremental_vs_full", fixed(maintenance_speedup, 3))
        .with("full_builds_during_stream", 0u64)
        .with("docs_appended", docs_appended)
        .with("structure_free_writes", structure_free)
        .with("typed_pipeline_us_per_write", fixed(per_write(pipeline_us), 3));
    let read_path = Json::obj()
        .with("fresh_cold_us_per_query", fixed(per_q(fresh_cold_us), 3))
        .with("grown_cold_us_per_query", fixed(per_q(grown_cold_us), 3))
        .with("cold_ratio_grown_vs_fresh", fixed(cold_ratio, 3))
        .with("fresh_warm_us_per_query", fixed(per_q(fresh_warm_us), 4))
        .with("grown_warm_us_per_query", fixed(per_q(grown_warm_us), 4))
        .with("warm_ratio_grown_vs_fresh", fixed(warm_ratio, 3));
    let cluster_front = Json::obj()
        .with("cluster_cold_us_per_query", fixed(per_q(cluster_cold_us), 3))
        .with("cluster_warm_us_per_query", fixed(per_q(cluster_warm_us), 4))
        .with("warm_ratio_cluster_vs_single", fixed(warm_vs_single, 3))
        .with("front_survives_execution_append", true)
        .with("post_append_warm_us_per_query", fixed(per_q(cluster_after_us), 4));
    let acceptance = Json::obj()
        .with("threshold_maintenance_speedup", fixed(config.min_speedup, 1))
        .with("max_read_regression", fixed(config.max_read_regression, 2))
        .with("max_warm_ratio", fixed(config.max_warm_ratio, 2))
        .with("index_bit_identical_to_full_build", true)
        .with("zero_index_work_for_structure_free_writes", true);
    let record = Json::obj()
        .with("experiment", "E13")
        .with("title", "Incremental write pipeline: typed mutations, KeywordIndex::apply_effect, cluster-front result cache")
        .with("seed", config.seed)
        .with("corpus_specs", config.specs)
        .with("writes", stream.len())
        .with("write_mix", write_mix)
        .with("reads", log.len())
        .with("shards", config.shards)
        .with("index_maintenance", index_maintenance)
        .with("read_path", read_path)
        .with("cluster_front", cluster_front)
        .with("acceptance", acceptance)
        .with("note", "apply_effect folds each typed effect into the index in order and verifies nothing against the repository, so maintenance is O(the written spec's text) per write; bit-identity to a fresh build is asserted here");
    write_record(&config.out, &record);

    println!(
        "per-write maintenance speedup: {maintenance_speedup:.2}x (threshold {:.1}x)",
        config.min_speedup
    );
    assert!(
        maintenance_speedup >= config.min_speedup,
        "E13 acceptance: apply_effect must be ≥{:.1}x full rebuild per write (got {maintenance_speedup:.2}x)",
        config.min_speedup
    );
    assert!(
        cold_ratio <= config.max_read_regression && warm_ratio <= config.max_read_regression,
        "E13 acceptance: the incrementally grown cluster regressed reads (cold {cold_ratio:.2}x, warm {warm_ratio:.2}x, gate {:.2}x)",
        config.max_read_regression
    );
    assert!(
        warm_vs_single <= config.max_warm_ratio,
        "E13 acceptance: cluster warm path must stay within {:.1}x of one shard (got {warm_vs_single:.2}x)",
        config.max_warm_ratio
    );
}
