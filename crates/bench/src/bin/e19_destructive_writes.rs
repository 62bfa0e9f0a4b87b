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
//!   copies; after every write one side rebuilds its [`KeywordIndex`]
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

use ppwf_bench::{
    e11_corpus, e11_query_log, e11_repo, e19_write_stream, standard_registry, E10_GROUPS,
};
use ppwf_query::cluster::EngineCluster;
use ppwf_query::keyword::KeywordQuery;
use ppwf_query::route::ShardStrategy;
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::mutation::Mutation;
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::repository::Repository;
use ppwf_repo::storage::{MemStorage, StorageBackend};
use ppwf_repo::wal::DurabilityPolicy;
use std::sync::Arc;
use std::time::Instant;

struct Config {
    out: String,
    specs: usize,
    writes: usize,
    reads: usize,
    shards: usize,
    seed: u64,
    delete_pct: u32,
    edit_pct: u32,
    batch: usize,
    min_speedup: f64,
    max_read_regression: f64,
}

fn parse_args() -> Config {
    let mut config = Config {
        out: "BENCH_e19_destructive_writes.json".to_string(),
        specs: 1024,
        writes: 128,
        reads: 200,
        shards: 3,
        seed: 19,
        delete_pct: 35,
        edit_pct: 35,
        batch: 16,
        min_speedup: 5.0,
        max_read_regression: 1.2,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need =
            |n: usize| args.get(n).unwrap_or_else(|| panic!("{} needs a value", args[n - 1]));
        match args[i].as_str() {
            "--out" => config.out = need(i + 1).clone(),
            "--specs" => config.specs = need(i + 1).parse().expect("bad spec count"),
            "--writes" => config.writes = need(i + 1).parse().expect("bad write count"),
            "--reads" => config.reads = need(i + 1).parse().expect("bad read count"),
            "--shards" => config.shards = need(i + 1).parse().expect("bad shard count"),
            "--seed" => config.seed = need(i + 1).parse().expect("bad seed"),
            "--delete-pct" => config.delete_pct = need(i + 1).parse().expect("bad delete pct"),
            "--edit-pct" => config.edit_pct = need(i + 1).parse().expect("bad edit pct"),
            "--batch" => config.batch = need(i + 1).parse().expect("bad batch size"),
            "--min-speedup" => config.min_speedup = need(i + 1).parse().expect("bad threshold"),
            "--max-read-regression" => {
                config.max_read_regression = need(i + 1).parse().expect("bad ratio")
            }
            other => panic!("unknown argument {other:?}"),
        }
        i += 2;
    }
    config
}

/// Serve the whole read log once; returns (elapsed µs, hits served).
fn serve_pass(mut serve: impl FnMut(&str, &str) -> usize, log: &[String]) -> (f64, usize) {
    let t = Instant::now();
    let mut hits = 0usize;
    for (i, q) in log.iter().enumerate() {
        hits += serve(E10_GROUPS[i % E10_GROUPS.len()], q);
    }
    (t.elapsed().as_secs_f64() * 1e6, hits)
}

/// Best of `reps` passes — the standard noise-floor estimate.
fn best_pass(
    reps: usize,
    mut serve: impl FnMut(&str, &str) -> usize,
    log: &[String],
) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut hits = 0usize;
    for _ in 0..reps.max(1) {
        let (us, h) = serve_pass(&mut serve, log);
        best = best.min(us);
        hits = h;
    }
    (best, hits)
}

/// Assert the maintained index answers exactly like a fresh full build of
/// the (tombstoned) final corpus.
fn assert_index_equivalent(maintained: &KeywordIndex, repo: &Repository, log: &[String]) {
    let fresh = KeywordIndex::build(repo);
    assert_eq!(maintained.doc_count(), fresh.doc_count(), "doc_count diverged");
    assert_eq!(maintained.term_count(), fresh.term_count(), "term_count diverged");
    for q in log {
        for term in &KeywordQuery::parse(q).terms {
            assert_eq!(
                maintained.lookup_query_term(term),
                fresh.lookup_query_term(term),
                "postings diverged on {term:?}"
            );
            assert_eq!(maintained.df_cached(term), fresh.df(term), "df diverged on {term:?}");
            assert_eq!(
                maintained.idf_cached(term).to_bits(),
                fresh.idf_cached(term).to_bits(),
                "idf diverged on {term:?}"
            );
        }
    }
}

fn main() {
    let config = parse_args();
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
    // Baseline: rebuild the whole index after every destructive write.
    let mut repo_full = e11_repo(&corpus);
    let mut index_full = KeywordIndex::build(&repo_full);
    let mut full_us = 0.0f64;
    for m in stream.iter().cloned() {
        repo_full.apply(m).expect("write stream valid");
        let t = Instant::now();
        index_full = KeywordIndex::build(&repo_full);
        full_us += t.elapsed().as_secs_f64() * 1e6;
    }
    drop(index_full);

    // Targeted: the typed effect folded into the index — retraction for
    // deletes, retract + re-index for edits, append for inserts.
    let mut repo_incr = e11_repo(&corpus);
    let mut index_incr = KeywordIndex::build(&repo_incr);
    let mut incr_us = 0.0f64;
    for m in stream.iter().cloned() {
        let effect = repo_incr.apply(m).expect("write stream valid");
        let t = Instant::now();
        index_incr.apply_effect(&repo_incr, &effect);
        incr_us += t.elapsed().as_secs_f64() * 1e6;
    }
    assert!(index_incr.docs_retracted() > 0, "deletes and edits must retract postings");
    assert_index_equivalent(&index_incr, &repo_incr, &log);
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
    let mut cluster_grown = EngineCluster::new(e11_repo(&corpus), standard_registry(), 1);
    let t = Instant::now();
    for m in stream.iter().cloned() {
        cluster_grown.mutate(m).expect("write stream valid");
    }
    let pipeline_us = t.elapsed().as_secs_f64() * 1e6;
    let mut repo_replay = e11_repo(&corpus);
    for m in stream.iter().cloned() {
        repo_replay.apply(m).expect("write stream valid");
    }
    let cluster_fresh = EngineCluster::new(repo_replay, standard_registry(), 1);
    for (i, q) in log.iter().enumerate() {
        let g = E10_GROUPS[i % E10_GROUPS.len()];
        let a = cluster_grown.search_as(g, q).unwrap();
        let b = cluster_fresh.search_as(g, q).unwrap();
        assert_eq!(
            a.iter().map(|h| h.spec.0).collect::<Vec<_>>(),
            b.iter().map(|h| h.spec.0).collect::<Vec<_>>(),
            "grown vs fresh diverged on {q:?}"
        );
    }
    const COLD_REPS: usize = 3;
    const WARM_REPS: usize = 9;
    let (mut fresh_cold_us, mut grown_cold_us) = (f64::INFINITY, f64::INFINITY);
    let mut fresh_hits = 0usize;
    for rep in 0..COLD_REPS {
        let mut grown_rep = EngineCluster::new(e11_repo(&corpus), standard_registry(), 1);
        for m in stream.iter().cloned() {
            grown_rep.mutate(m).expect("write stream valid");
        }
        let mut replay_rep = e11_repo(&corpus);
        for m in stream.iter().cloned() {
            replay_rep.apply(m).expect("write stream valid");
        }
        let fresh_rep = EngineCluster::new(replay_rep, standard_registry(), 1);
        let serve_fresh =
            |g: &str, q: &str| -> usize { fresh_rep.search_as(g, q).map(|h| h.len()).unwrap_or(0) };
        let serve_grown =
            |g: &str, q: &str| -> usize { grown_rep.search_as(g, q).map(|h| h.len()).unwrap_or(0) };
        let ((fresh_us, fh), (grown_us, gh)) = if rep % 2 == 0 {
            let f = serve_pass(serve_fresh, &log);
            let g = serve_pass(serve_grown, &log);
            (f, g)
        } else {
            let g = serve_pass(serve_grown, &log);
            let f = serve_pass(serve_fresh, &log);
            (f, g)
        };
        assert_eq!(gh, fh, "the grown cluster serves different hit totals");
        fresh_cold_us = fresh_cold_us.min(fresh_us);
        grown_cold_us = grown_cold_us.min(grown_us);
        fresh_hits = fh;
    }
    let (fresh_warm_us, _) = best_pass(
        WARM_REPS,
        |g, q| cluster_fresh.search_as(g, q).map(|h| h.len()).unwrap_or(0),
        &log,
    );
    let (grown_warm_us, _) = best_pass(
        WARM_REPS,
        |g, q| cluster_grown.search_as(g, q).map(|h| h.len()).unwrap_or(0),
        &log,
    );
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
    let (mut durable, _) = EngineCluster::open_durable(
        Arc::clone(&storage) as Arc<dyn StorageBackend>,
        policy,
        standard_registry(),
        config.shards,
        ShardStrategy::RoundRobin,
        Arc::clone(&pool),
    )
    .expect("open durable cluster");
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
    let (recovered, recovery_stats) = EngineCluster::open_durable(
        Arc::clone(&storage) as Arc<dyn StorageBackend>,
        policy,
        standard_registry(),
        config.shards,
        ShardStrategy::RoundRobin,
        Arc::clone(&pool),
    )
    .expect("recover durable cluster");
    let recovery_us = t.elapsed().as_secs_f64() * 1e6;
    let (_, recovered_hits) =
        serve_pass(|g, q| recovered.search_as(g, q).map(|h| h.len()).unwrap_or(0), &log);
    assert_eq!(recovered_hits, fresh_hits, "recovery changed total hits");
    for (i, q) in log.iter().enumerate() {
        let g = E10_GROUPS[i % E10_GROUPS.len()];
        let a = recovered.search_as(g, q).unwrap();
        let b = cluster_grown.search_as(g, q).unwrap();
        assert_eq!(
            a.iter().map(|h| h.spec.0).collect::<Vec<_>>(),
            b.iter().map(|h| h.spec.0).collect::<Vec<_>>(),
            "recovered cluster diverged on {q:?}"
        );
    }
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

    let json = format!(
        r#"{{
  "experiment": "E19",
  "title": "Destructive writes: targeted DeleteSpec/EditSpec index maintenance, tombstoned read path, durable group-committed pipeline with recovery",
  "seed": {seed},
  "corpus_specs": {specs},
  "writes": {writes},
  "write_mix": {{ "delete_pct": {dp}, "edit_pct": {ep}, "insert_pct": {ip}, "deletes": {dn}, "edits": {en} }},
  "reads": {reads},
  "shards": {shards},
  "index_maintenance": {{
    "full_rebuild_us_per_write": {fu:.3},
    "targeted_us_per_write": {iu:.3},
    "speedup_targeted_vs_full": {sp:.3},
    "full_builds_during_stream": 0,
    "docs_retracted": {dr},
    "live_slots": {live},
    "total_slots": {slots},
    "typed_pipeline_us_per_write": {tp:.3}
  }},
  "read_path": {{
    "fresh_cold_us_per_query": {fc:.3},
    "grown_cold_us_per_query": {gc:.3},
    "cold_ratio_grown_vs_fresh": {cr:.3},
    "fresh_warm_us_per_query": {fw:.4},
    "grown_warm_us_per_query": {gw:.4},
    "warm_ratio_grown_vs_fresh": {wr:.3}
  }},
  "durable_pipeline": {{
    "batch": {batch},
    "durable_us_per_write": {du:.3},
    "fsyncs": {fs},
    "recovery_records_replayed": {rr},
    "recovery_ms": {rm:.3},
    "recovered_bit_identical": true
  }},
  "acceptance": {{
    "threshold_maintenance_speedup": {thr:.1},
    "max_read_regression": {mrr:.2},
    "index_bit_identical_to_full_build": true,
    "retraction_counters_moved": true
  }},
  "note": "targeted delete/edit maintenance retracts the victim's postings term by term (and an edit re-posts all of its keys), so per-write cost is O(victim vocabulary), not O(1); destructive conflicts inside a group-commit run flush it early, shrinking the amortized batch"
}}
"#,
        seed = config.seed,
        specs = config.specs,
        writes = stream.len(),
        dp = config.delete_pct,
        ep = config.edit_pct,
        ip = insert_pct,
        dn = deletes,
        en = edits,
        reads = log.len(),
        shards = config.shards,
        fu = per_write(full_us),
        iu = per_write(incr_us),
        sp = maintenance_speedup,
        dr = index_incr.docs_retracted(),
        live = repo_incr.live_count(),
        slots = repo_incr.len(),
        tp = per_write(pipeline_us),
        fc = per_q(fresh_cold_us),
        gc = per_q(grown_cold_us),
        cr = cold_ratio,
        fw = per_q(fresh_warm_us),
        gw = per_q(grown_warm_us),
        wr = warm_ratio,
        batch = config.batch,
        du = per_write(durable_us),
        fs = fsyncs,
        rr = recovery_stats.replayed,
        rm = recovery_us / 1e3,
        thr = config.min_speedup,
        mrr = config.max_read_regression,
    );
    std::fs::write(&config.out, &json).expect("write baseline JSON");
    println!("\nbaseline written to {}", config.out);

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
