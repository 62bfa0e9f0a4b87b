//! E15 baseline emitter: the durability subsystem — WAL append
//! throughput, crash-recovery time vs log length, and the durable engine's
//! read no-regression.
//!
//! ```bash
//! cargo run --release -p ppwf-bench --bin e15_durability -- \
//!     [--out BENCH_e15_durability.json] [--specs 1024] [--writes 256] \
//!     [--reads 200] [--seed 17] [--max-read-regression 1.2]
//! ```
//!
//! Three measured sections:
//!
//! * **Append throughput.** The same typed write stream is appended to a
//!   [`DurableLog`] over two backends: in-memory (the fault-injection
//!   backend with no faults — the framing/checksum cost floor) and real
//!   files, where every append returns after its covering fsync. The
//!   spread *is* the durability bill; nothing here is gated, it is
//!   reported honestly.
//! * **Recovery time vs log length.** Logs of growing record counts are
//!   recovered with snapshots disabled (replay grows linearly) and with
//!   the snapshot cadence on (replay is capped by the cadence, at the
//!   price of loading the snapshot image — which can dominate when the
//!   image outweighs the replayed suffix). Every recovery is asserted
//!   byte-identical to a sequential reference replay before its time is
//!   reported.
//! * **Read no-regression.** A one-shard cluster grown through the
//!   durable write path (WAL attached — durability lives at the cluster)
//!   serves the read log against a fresh one-shard cluster over the
//!   identical corpus: cold and warm ratios gated at
//!   `--max-read-regression` — durability must cost the read path
//!   nothing, because reads never touch the log.
//!
//! **Honest boundaries.** Per-record fsync dominates real-file appends
//! (that is the point of durable-on-acknowledge — the number is reported,
//! not hidden); the read section's cadence snapshots run as jobs on the
//! cluster's pool, and the timed reads start only once those have drained.
//! The binary exits non-zero when any acceptance gate fails.

use ppwf_bench::harness::{alternate, fixed, hits, serve_pass, write_record, Json};
use ppwf_bench::{
    e11_corpus, e11_query_log, e11_repo, e13_write_stream, replay, standalone_stream,
    standard_registry,
};
use ppwf_query::EngineCluster;
use ppwf_repo::mutation::Mutation;
use ppwf_repo::repository::Repository;
use ppwf_repo::storage::{FsStorage, MemStorage, StorageBackend};
use ppwf_repo::wal::{DurabilityPolicy, DurableLog};
use std::sync::Arc;
use std::time::Instant;

ppwf_bench::flags! {
    struct Config {
        out: String = "BENCH_e15_durability.json",
        specs: usize = "1024",
        writes: usize = "256",
        reads: usize = "200",
        seed: u64 = "17",
        max_read_regression: f64 = "1.2",
    }
}

/// Append the whole stream through a fresh log over `backend`; returns
/// (append+fsync µs total, bytes appended). Snapshots are disabled so
/// the number is the pure append/sync path.
fn append_pass(backend: Arc<dyn StorageBackend>, stream: &[Mutation]) -> (f64, u64) {
    let policy = DurabilityPolicy {
        snapshot_every: 0,
        segment_bytes: 1 << 20,
        ..DurabilityPolicy::default()
    };
    let opened = DurableLog::open(backend, policy).expect("open fresh log");
    let mut log = opened.log;
    let mut repo = opened.repository;
    let mut us = 0.0f64;
    for mutation in stream {
        repo.check(mutation).expect("write stream valid");
        let t = Instant::now();
        log.append_batch(std::slice::from_ref(mutation)).expect("append on healthy backend");
        us += t.elapsed().as_secs_f64() * 1e6;
        repo.apply(mutation.clone()).expect("checked mutation applies");
    }
    (us, log.stats().bytes_appended)
}

/// Build a durable log holding `base` as a baseline snapshot plus the
/// first `n` stream records, then time `Repository::recover` (best of
/// `reps`), asserting byte-identity to the live repository every rep.
fn recovery_time_us(
    base: &Repository,
    stream: &[Mutation],
    n: usize,
    snapshot_every: u64,
    reps: usize,
) -> f64 {
    let storage = Arc::new(MemStorage::new());
    let policy =
        DurabilityPolicy { snapshot_every, segment_bytes: 1 << 18, ..DurabilityPolicy::default() };
    let opened =
        DurableLog::open(Arc::clone(&storage) as Arc<dyn StorageBackend>, policy).expect("open");
    let mut log = opened.log;
    let mut repo = Repository::load(&base.save()).expect("repository round-trips");
    log.snapshot_now(&repo).expect("baseline snapshot");
    // The stream's spec ids are positions in its own (empty-start) repo;
    // shift them past the baseline corpus.
    let shift = base.len() as u32;
    for mutation in &stream[..n] {
        let mut mutation = mutation.clone();
        if let Mutation::AddExecution { spec, .. }
        | Mutation::SetPolicy { spec, .. }
        | Mutation::DeleteSpec { spec }
        | Mutation::EditSpec { spec, .. } = &mut mutation
        {
            spec.0 += shift;
        }
        repo.check(&mutation).expect("write stream valid");
        log.append_batch(std::slice::from_ref(&mutation)).expect("append on healthy backend");
        repo.apply(mutation).expect("checked mutation applies");
        log.snapshot_if_due(&repo);
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let (recovered, stats) = Repository::recover(storage.as_ref()).expect("recovery");
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(stats.last_seq, n as u64, "recovery missed records");
        assert_eq!(
            recovered.save(),
            repo.save(),
            "recovered image diverges from the live repository at {n} records"
        );
    }
    best
}

fn main() {
    let config = Config::parse();
    println!("== E15: durable mutation WAL, snapshots, crash recovery ==");
    println!(
        "corpus: {} specs · {} writes · {} reads · seed {}",
        config.specs, config.writes, config.reads, config.seed
    );

    let corpus = e11_corpus(config.specs, config.seed);
    let read_log = e11_query_log(&corpus, config.reads, config.seed ^ 0x5EED);
    let stream = e13_write_stream(&corpus, config.writes, 60, 20, config.seed ^ 0xE15);
    // The append/recovery sections replay standalone (no base corpus), so
    // they need a stream valid from an empty repository: a 1:2:1 cycle of
    // inserts, execution appends, and policy swaps built against the
    // evolving state.
    let standalone = standalone_stream(config.writes, config.seed ^ 0xB);

    // -- section A: append throughput ---------------------------------------
    let fs_root = std::env::temp_dir().join(format!("ppwf-e15-{}", std::process::id()));
    let (mem_us, bytes) = append_pass(Arc::new(MemStorage::new()), &standalone);
    let fs_sync = FsStorage::open(fs_root.join("sync")).expect("temp storage root");
    let (fs_sync_us, _) = append_pass(Arc::new(fs_sync), &standalone);
    let _ = std::fs::remove_dir_all(&fs_root);

    let appends = standalone.len() as f64;
    let mb = bytes as f64 / (1024.0 * 1024.0);
    println!("\n-- append throughput ({} records, {:.2} MiB framed) --", standalone.len(), mb);
    println!("{:>28} {:>14} {:>12}", "backend", "µs/append", "MiB/s");
    for (label, us) in [("memory (cost floor)", mem_us), ("fs, fsync each (durable)", fs_sync_us)] {
        println!("{:>28} {:>14.2} {:>12.1}", label, us / appends, mb / (us / 1e6));
    }
    println!(
        "the durable fs append costs {:.1}x the in-memory floor — the durability bill",
        fs_sync_us / mem_us
    );

    // -- section B: recovery time vs log length -----------------------------
    let recovery_base = e11_repo(&e11_corpus(128, config.seed ^ 0xBA5E));
    let ladder: Vec<usize> =
        [4usize, 2, 1].iter().map(|d| standalone.len() / d).filter(|&n| n > 0).collect();
    const RECOVERY_REPS: usize = 3;
    let mut recovery_rows = Vec::new();
    println!("\n-- recovery time vs log length (base snapshot + N records) --");
    println!("{:>10} {:>22} {:>22}", "records", "no snapshots µs", "cadence-64 µs");
    for &n in &ladder {
        let replay_us = recovery_time_us(&recovery_base, &standalone, n, 0, RECOVERY_REPS);
        let snap_us = recovery_time_us(&recovery_base, &standalone, n, 64, RECOVERY_REPS);
        println!("{n:>10} {replay_us:>22.1} {snap_us:>22.1}");
        recovery_rows.push((n, replay_us, snap_us));
    }

    // -- section C: read no-regression under durability ---------------------
    // Both sides are one-shard clusters: durability attaches to a cluster,
    // and the fresh side must pay the same front for the ratio to be about
    // the log. A cold pass is one-shot per engine and totals a few ms, where
    // one scheduler interrupt swamps the signal — measure COLD_REPS
    // independent engine pairs (order alternated to cancel
    // measurement-order bias) and compare per-side minima.
    const COLD_REPS: usize = 3;
    let wal_policy = DurabilityPolicy {
        snapshot_every: 64,
        segment_bytes: 1 << 18,
        ..DurabilityPolicy::default()
    };
    let mut durable_write_us = 0.0f64;
    let mut wal_appends = 0u64;
    let (mut fresh_cold_us, mut durable_cold_us) = (f64::INFINITY, f64::INFINITY);
    let mut pair: Option<(EngineCluster, EngineCluster)> = None;
    {
        // Warm the allocator/page cache outside timing.
        let warmup = EngineCluster::new(e11_repo(&corpus), standard_registry(), 1);
        let _ = serve_pass(hits(&warmup), &read_log);
    }
    for rep in 0..COLD_REPS {
        let mut engine_durable = EngineCluster::new(e11_repo(&corpus), standard_registry(), 1);
        let opened =
            DurableLog::open(Arc::new(MemStorage::new()) as Arc<dyn StorageBackend>, wal_policy)
                .expect("open durable log");
        engine_durable.attach_durability(opened.log).expect("attach durability");
        let t = Instant::now();
        for mutation in stream.iter().cloned() {
            engine_durable.mutate(mutation).expect("write stream valid");
        }
        durable_write_us = t.elapsed().as_secs_f64() * 1e6;
        wal_appends =
            engine_durable.durability_stats().expect("durable engine reports stats").appends;
        while engine_durable.background_snapshot_in_flight() {
            std::thread::yield_now();
        }

        let engine_fresh =
            EngineCluster::new(replay(e11_repo(&corpus), &stream), standard_registry(), 1);
        let ((fresh_us, fh), (durable_us, dh)) = alternate(
            rep,
            || serve_pass(hits(&engine_fresh), &read_log),
            || serve_pass(hits(&engine_durable), &read_log),
        );
        assert_eq!(dh, fh, "the durable engine serves different answers");
        fresh_cold_us = fresh_cold_us.min(fresh_us);
        durable_cold_us = durable_cold_us.min(durable_us);
        pair = Some((engine_durable, engine_fresh));
    }
    let (engine_durable, engine_fresh) = pair.expect("at least one rep");
    assert_eq!(wal_appends, stream.len() as u64, "every mutate must append");

    // Warm passes finish in tens of µs; interleave the two engines'
    // passes (alternating order) and compare per-side minima so neither
    // side pays for running second.
    const WARM_REPS: usize = 15;
    let (mut fresh_warm_us, mut durable_warm_us) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..WARM_REPS {
        let ((f_us, _), (d_us, _)) = alternate(
            rep,
            || serve_pass(hits(&engine_fresh), &read_log),
            || serve_pass(hits(&engine_durable), &read_log),
        );
        fresh_warm_us = fresh_warm_us.min(f_us);
        durable_warm_us = durable_warm_us.min(d_us);
    }
    let cold_ratio = durable_cold_us / fresh_cold_us;
    let warm_ratio = durable_warm_us / fresh_warm_us;
    let per_q = |us: f64| us / read_log.len() as f64;
    println!("\n-- read path: durable engine vs fresh build ({} reads) --", read_log.len());
    println!("{:>22} {:>12} {:>12}", "engine", "cold µs/q", "warm µs/q");
    println!("{:>22} {:>12.1} {:>12.3}", "fresh build", per_q(fresh_cold_us), per_q(fresh_warm_us));
    println!(
        "{:>22} {:>12.1} {:>12.3}",
        "durable (WAL attached)",
        per_q(durable_cold_us),
        per_q(durable_warm_us)
    );
    println!(
        "cold ratio {cold_ratio:.3}, warm ratio {warm_ratio:.3} (gate ≤{:.1}); durable write path {:.1} µs/write incl. fsync+snapshots",
        config.max_read_regression,
        durable_write_us / stream.len() as f64
    );

    let recovery: Vec<Json> = recovery_rows
        .iter()
        .map(|&(n, replay_us, snap_us)| {
            Json::obj()
                .with("records", n)
                .with("replay_only_us", fixed(replay_us, 1))
                .with("with_snapshot_cadence_us", fixed(snap_us, 1))
        })
        .collect();
    let append_throughput = Json::obj()
        .with("records", standalone.len())
        .with("framed_mib", fixed(mb, 3))
        .with("memory_us_per_append", fixed(mem_us / appends, 3))
        .with("fs_fsync_us_per_append", fixed(fs_sync_us / appends, 3));
    let read_path = Json::obj()
        .with("fresh_cold_us_per_query", fixed(per_q(fresh_cold_us), 3))
        .with("durable_cold_us_per_query", fixed(per_q(durable_cold_us), 3))
        .with("cold_ratio_durable_vs_fresh", fixed(cold_ratio, 3))
        .with("fresh_warm_us_per_query", fixed(per_q(fresh_warm_us), 4))
        .with("durable_warm_us_per_query", fixed(per_q(durable_warm_us), 4))
        .with("warm_ratio_durable_vs_fresh", fixed(warm_ratio, 3))
        .with("durable_write_us_per_write", fixed(durable_write_us / stream.len() as f64, 3));
    let acceptance = Json::obj()
        .with("max_read_regression", fixed(config.max_read_regression, 2))
        .with("recovery_bit_identical_at_every_ladder_point", true)
        .with("every_mutate_appended_before_apply", true);
    let record = Json::obj()
        .with("experiment", "E15")
        .with("title", "Durable mutation WAL + snapshots: crash recovery, read no-regression")
        .with("seed", config.seed)
        .with("corpus_specs", config.specs)
        .with("writes", stream.len())
        .with("reads", read_log.len())
        .with("append_throughput", append_throughput)
        .with("recovery", recovery)
        .with("read_path", read_path)
        .with("acceptance", acceptance)
        .with("note", "per-record fsync dominates real-file appends (durable-on-acknowledge is priced, not hidden); without a pool a cadence snapshot serializes its dirty chunks while the write path waits, trading recovery replay length against a periodic pause");
    write_record(&config.out, &record);

    assert!(
        cold_ratio <= config.max_read_regression && warm_ratio <= config.max_read_regression,
        "E15 acceptance: the durable engine regressed reads (cold {cold_ratio:.2}x, warm {warm_ratio:.2}x, gate {:.2}x)",
        config.max_read_regression
    );
}
