//! E19 baseline emitter: destructive writes end to end — per-write
//! `DeleteSpec`/`EditSpec` index maintenance vs full rebuilds, the read
//! path over a tombstoned corpus, and the durable group-committed
//! pipeline with crash-free recovery.
//!
//! ```bash
//! cargo run --release -p ppwf-bench --bin e19_destructive_writes -- \
//!     [--out BENCH_e19_destructive_writes.json] [--specs 1024] \
//!     [--writes 128] [--reads 200] [--shards 3] [--seed 19] \
//!     [--delete-pct 35] [--edit-pct 35] [--batch 16] \
//!     [--min-speedup 5.0] [--max-read-regression 1.2]
//! ```
//!
//! One E11-shaped corpus, one destructive-heavy typed write stream (the
//! **mix knob**: `--delete-pct` spec deletes, `--edit-pct` in-place text
//! edits, the rest fresh inserts; destructive targets track the live
//! slots the stream itself leaves). Three measured sections:
//!
//! * **Per-write index maintenance.** The stream drives two repository
//!   copies; after every write one side rebuilds its `KeywordIndex`
//!   from scratch, the other hands it the typed effect
//!   (`KeywordIndex::apply_effect`: `SpecDeleted` → targeted retraction,
//!   `SpecEdited` → retract + re-index, an insert → append). Before any
//!   number is reported the maintained index is checked bit-identical
//!   (postings, df, idf bits) to a fresh build of the final tombstoned
//!   corpus, with retraction counters that actually moved.
//! * **Read no-regression.** A one-shard cluster — what serves one index —
//!   *grown* through the destructive stream serves a read log against one
//!   built fresh over the identical final corpus — identical answers
//!   required, cold and warm passes within `--max-read-regression`.
//! * **Durable pipeline + recovery.** A sharded durable cluster applies
//!   the same stream through group-committed `mutate_batch` runs (the
//!   destructive-overlay flush path is live here), then a second cluster
//!   recovers from that storage — snapshot with tombstoned COW chunks
//!   plus WAL suffix — and must answer the whole log bit-identically to
//!   the grown one-shard cluster.
//!
//! **Honest boundary.** Targeted maintenance is *not* O(1): a delete
//! retracts the spec's postings term by term and an edit re-posts all of
//! the spec's keys, so the cost scales with the victim's vocabulary — far
//! below re-tokenizing the corpus, but linear all the same.
//! Destructive-heavy batches also amortize fewer fsyncs: a run flushes
//! early whenever a later mutation references a spec the pending run
//! deleted or edited, so group-commit batches shrink as the conflict
//! rate rises. The binary exits non-zero when any acceptance gate fails.

use ppwf_bench::harness::{
    alternate, assert_same_answers, best_pass, fixed, hits, maintenance_pass, open_durable,
    serve_pass, write_record, Json,
};
use ppwf_bench::{
    e11_corpus, e11_query_log, e11_repo, e19_write_stream, replay, standard_registry,
};
use ppwf_query::cluster::EngineCluster;
use ppwf_repo::mutation::Mutation;
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::storage::{MemStorage, StorageBackend};
use ppwf_repo::wal::DurabilityPolicy;
use std::sync::Arc;
use std::time::Instant;

ppwf_bench::flags! {
    struct Config {
        out: String = "BENCH_e19_destructive_writes.json",
        specs: usize = "1024",
        writes: usize = "128",
        reads: usize = "200",
        shards: usize = "3",
        seed: u64 = "19",
        delete_pct: u32 = "35",
        edit_pct: u32 = "35",
        batch: usize = "16",
        min_speedup: f64 = "5.0",
        max_read_regression: f64 = "1.2",
    }
}

fn main() {
    let config = Config::parse();
    println!("== E19: destructive writes — targeted delete/edit maintenance vs full rebuilds ==");
    let insert_pct = 100 - config.delete_pct - config.edit_pct;
    println!(
        "corpus: {} specs · {} writes ({}% deletes, {}% edits, {insert_pct}% inserts) · {} reads · seed {}",
        config.specs, config.writes, config.delete_pct, config.edit_pct, config.reads, config.seed
    );

    let corpus = e11_corpus(config.specs, config.seed);
    let mut log = e11_query_log(&corpus, config.reads, config.seed ^ 0x5EED);
    assert!(log.len() >= config.reads * 9 / 10, "read log came up short");
    // Edits splice in the generator's replacement vocabulary — the log
    // must probe it, or edit retraction errors would be invisible.
    log.push("edited".to_string());
    log.push("kw0, edited".to_string());
    let stream = e19_write_stream(
        &corpus,
        config.writes,
        config.delete_pct,
        config.edit_pct,
        config.seed ^ 0xE19,
    );
    let deletes = stream.iter().filter(|m| matches!(m, Mutation::DeleteSpec { .. })).count();
    let edits = stream.iter().filter(|m| matches!(m, Mutation::EditSpec { .. })).count();
    assert!(deletes > 0 && edits > 0, "the stream must exercise both destructive kinds");

    // -- section A: per-write index maintenance -----------------------------
    // Baseline: rebuild the whole index after every destructive write;
    // targeted: the typed effect folded into the index — retraction for
    // deletes, retract + re-index for edits, append for inserts.
    let (full_us, incr_us, repo_incr, index_incr) =
        maintenance_pass(|| e11_repo(&corpus), &stream, &log);
    assert!(index_incr.docs_retracted() > 0, "deletes and edits must retract postings");
    let maintenance_speedup = full_us / incr_us;

    let per_write = |us: f64| us / config.writes.max(1) as f64;
    println!("\n-- per-write index maintenance ({} writes) --", config.writes);
    println!("{:>22} {:>14} {:>12}", "path", "µs/write", "speedup");
    println!("{:>22} {:>14.1} {:>12}", "full rebuild", per_write(full_us), "1.0x");
    println!(
        "{:>22} {:>14.1} {:>11.1}x",
        "targeted maintenance",
        per_write(incr_us),
        maintenance_speedup
    );
    println!(
        "index work: {} docs retracted over {} deletes + {} edits; live {}/{} slots",
        index_incr.docs_retracted(),
        deletes,
        edits,
        repo_incr.live_count(),
        repo_incr.len(),
    );

    // -- section B: read no-regression over the tombstoned corpus ----------
    let grow = || {
        let mut cluster = EngineCluster::new(e11_repo(&corpus), standard_registry(), 1);
        for m in stream.iter().cloned() {
            cluster.mutate(m).expect("write stream valid");
        }
        cluster
    };
    let fresh = || EngineCluster::new(replay(e11_repo(&corpus), &stream), standard_registry(), 1);
    let t = Instant::now();
    let cluster_grown = grow();
    let pipeline_us = t.elapsed().as_secs_f64() * 1e6;
    let cluster_fresh = fresh();
    assert_same_answers(&cluster_grown, &cluster_fresh, &log, "grown vs fresh");
    const COLD_REPS: usize = 3;
    const WARM_REPS: usize = 9;
    let (mut fresh_cold_us, mut grown_cold_us) = (f64::INFINITY, f64::INFINITY);
    let mut fresh_hits = 0usize;
    for rep in 0..COLD_REPS {
        let (grown_rep, fresh_rep) = (grow(), fresh());
        let ((fresh_us, fh), (grown_us, gh)) = alternate(
            rep,
            || serve_pass(hits(&fresh_rep), &log),
            || serve_pass(hits(&grown_rep), &log),
        );
        assert_eq!(gh, fh, "the grown cluster serves different hit totals");
        fresh_cold_us = fresh_cold_us.min(fresh_us);
        grown_cold_us = grown_cold_us.min(grown_us);
        fresh_hits = fh;
    }
    let (fresh_warm_us, _) = best_pass(WARM_REPS, hits(&cluster_fresh), &log);
    let (grown_warm_us, _) = best_pass(WARM_REPS, hits(&cluster_grown), &log);
    let cold_ratio = grown_cold_us / fresh_cold_us;
    let warm_ratio = grown_warm_us / fresh_warm_us;

    let per_q = |us: f64| us / log.len() as f64;
    println!("\n-- read path after {} destructive writes ({} reads) --", config.writes, log.len());
    println!("{:>22} {:>12} {:>12}", "engine", "cold µs/q", "warm µs/q");
    println!("{:>22} {:>12.1} {:>12.3}", "fresh build", per_q(fresh_cold_us), per_q(fresh_warm_us));
    println!(
        "{:>22} {:>12.1} {:>12.3}",
        "grown destructively",
        per_q(grown_cold_us),
        per_q(grown_warm_us)
    );
    println!(
        "cold ratio {cold_ratio:.3}, warm ratio {warm_ratio:.3} (gate ≤{:.1})",
        config.max_read_regression
    );

    // -- section C: durable group-committed pipeline + recovery -------------
    let policy = DurabilityPolicy {
        snapshot_every: 50,
        segment_bytes: 1 << 20,
        ..DurabilityPolicy::pipelined(config.batch, 0)
    };
    let storage = Arc::new(MemStorage::new());
    let pool = Arc::new(WorkerPool::new(2));
    let backend = || Arc::clone(&storage) as Arc<dyn StorageBackend>;
    let (mut durable, _) = open_durable(backend(), policy, config.shards, Arc::clone(&pool));
    for spec in &corpus {
        durable
            .mutate(Mutation::InsertSpec {
                spec: spec.clone(),
                policy: ppwf_core::policy::Policy::public(),
            })
            .expect("corpus loads");
    }
    // The corpus load above took one fsync per spec; count only the timed
    // section's.
    let syncs_before = durable.durability_stats().expect("log attached").syncs;
    let t = Instant::now();
    for chunk in stream.chunks(config.batch.max(1)) {
        for (outcome, _) in durable.mutate_batch(chunk.to_vec()) {
            outcome.expect("destructive stream applies durably");
        }
    }
    let durable_us = t.elapsed().as_secs_f64() * 1e6;
    let fsyncs = durable.durability_stats().expect("log attached").syncs - syncs_before;
    // Recovery must not race a snapshot job still writing or pruning.
    while durable.background_snapshot_in_flight() {
        std::thread::yield_now();
    }

    let t = Instant::now();
    let (recovered, recovery_stats) = open_durable(backend(), policy, config.shards, pool);
    let recovery_us = t.elapsed().as_secs_f64() * 1e6;
    let (_, recovered_hits) = serve_pass(hits(&recovered), &log);
    assert_eq!(recovered_hits, fresh_hits, "recovery changed total hits");
    assert_same_answers(&recovered, &cluster_grown, &log, "recovered cluster");
    let assembled = recovered.repo();
    assert_eq!(assembled.len(), repo_incr.len(), "recovered id space diverged");
    assert_eq!(assembled.live_count(), repo_incr.live_count(), "recovered live count diverged");

    println!("\n-- durable pipeline ({} shards, batch {}) --", config.shards, config.batch);
    println!(
        "durable destructive writes: {:.1} µs/write, {} fsyncs",
        per_write(durable_us),
        fsyncs
    );
    println!(
        "recovery: {} records replayed in {:.1} ms; {} live / {} slots, answers bit-identical",
        recovery_stats.replayed,
        recovery_us / 1e3,
        assembled.live_count(),
        assembled.len(),
    );

    let write_mix = Json::obj()
        .with("delete_pct", config.delete_pct)
        .with("edit_pct", config.edit_pct)
        .with("insert_pct", insert_pct)
        .with("deletes", deletes)
        .with("edits", edits);
    let index_maintenance = Json::obj()
        .with("full_rebuild_us_per_write", fixed(per_write(full_us), 3))
        .with("targeted_us_per_write", fixed(per_write(incr_us), 3))
        .with("speedup_targeted_vs_full", fixed(maintenance_speedup, 3))
        .with("full_builds_during_stream", 0u64)
        .with("docs_retracted", index_incr.docs_retracted())
        .with("live_slots", repo_incr.live_count())
        .with("total_slots", repo_incr.len())
        .with("typed_pipeline_us_per_write", fixed(per_write(pipeline_us), 3));
    let read_path = Json::obj()
        .with("fresh_cold_us_per_query", fixed(per_q(fresh_cold_us), 3))
        .with("grown_cold_us_per_query", fixed(per_q(grown_cold_us), 3))
        .with("cold_ratio_grown_vs_fresh", fixed(cold_ratio, 3))
        .with("fresh_warm_us_per_query", fixed(per_q(fresh_warm_us), 4))
        .with("grown_warm_us_per_query", fixed(per_q(grown_warm_us), 4))
        .with("warm_ratio_grown_vs_fresh", fixed(warm_ratio, 3));
    let durable_pipeline = Json::obj()
        .with("batch", config.batch)
        .with("durable_us_per_write", fixed(per_write(durable_us), 3))
        .with("fsyncs", fsyncs)
        .with("recovery_records_replayed", recovery_stats.replayed)
        .with("recovery_ms", fixed(recovery_us / 1e3, 3))
        .with("recovered_bit_identical", true);
    let acceptance = Json::obj()
        .with("threshold_maintenance_speedup", fixed(config.min_speedup, 1))
        .with("max_read_regression", fixed(config.max_read_regression, 2))
        .with("index_bit_identical_to_full_build", true)
        .with("retraction_counters_moved", true);
    let record = Json::obj()
        .with("experiment", "E19")
        .with("title", "Destructive writes: targeted DeleteSpec/EditSpec index maintenance, tombstoned read path, durable group-committed pipeline with recovery")
        .with("seed", config.seed)
        .with("corpus_specs", config.specs)
        .with("writes", stream.len())
        .with("write_mix", write_mix)
        .with("reads", log.len())
        .with("shards", config.shards)
        .with("index_maintenance", index_maintenance)
        .with("read_path", read_path)
        .with("durable_pipeline", durable_pipeline)
        .with("acceptance", acceptance)
        .with("note", "targeted delete/edit maintenance retracts the victim's postings term by term (and an edit re-posts all of its keys), so per-write cost is O(victim vocabulary), not O(1); destructive conflicts inside a group-commit run flush it early, shrinking the amortized batch");
    write_record(&config.out, &record);

    println!(
        "per-write maintenance speedup: {maintenance_speedup:.2}x (threshold {:.1}x)",
        config.min_speedup
    );
    assert!(
        maintenance_speedup >= config.min_speedup,
        "E19 acceptance: targeted destructive maintenance must be ≥{:.1}x full rebuild per write (got {maintenance_speedup:.2}x)",
        config.min_speedup
    );
    assert!(
        cold_ratio <= config.max_read_regression && warm_ratio <= config.max_read_regression,
        "E19 acceptance: the destructively grown cluster regressed reads (cold {cold_ratio:.2}x, warm {warm_ratio:.2}x, gate {:.2}x)",
        config.max_read_regression
    );
}
