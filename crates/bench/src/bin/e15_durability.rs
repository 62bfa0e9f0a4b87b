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

use ppwf_bench::{
    e11_corpus, e11_query_log, e11_repo, e13_write_stream, standard_registry, E10_GROUPS,
};
use ppwf_query::EngineCluster;
use ppwf_repo::mutation::Mutation;
use ppwf_repo::repository::Repository;
use ppwf_repo::storage::{FsStorage, MemStorage, StorageBackend};
use ppwf_repo::wal::{DurabilityPolicy, DurableLog};
use std::sync::Arc;
use std::time::Instant;

struct Config {
    out: String,
    specs: usize,
    writes: usize,
    reads: usize,
    seed: u64,
    max_read_regression: f64,
}

fn parse_args() -> Config {
    let mut config = Config {
        out: "BENCH_e15_durability.json".to_string(),
        specs: 1024,
        writes: 256,
        reads: 200,
        seed: 17,
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
            "--seed" => config.seed = need(i + 1).parse().expect("bad seed"),
            "--max-read-regression" => {
                config.max_read_regression = need(i + 1).parse().expect("bad ratio")
            }
            other => panic!("unknown argument {other:?}"),
        }
        i += 2;
    }
    config
}

/// A deterministic mutation stream valid from an empty repository: a
/// 1:2:1 cycle of spec inserts, execution appends (the dominant write),
/// and policy swaps, each built against the evolving state.
fn standalone_stream(writes: usize, seed: u64) -> Vec<Mutation> {
    use ppwf_core::policy::Policy;
    use ppwf_model::exec::{Executor, HashOracle};
    use ppwf_repo::repository::SpecId;
    use ppwf_workloads::genspec::{generate_spec, SpecParams};
    let mut repo = Repository::new();
    let mut out = Vec::with_capacity(writes);
    for i in 0..writes as u64 {
        let kind = if repo.is_empty() || i % 4 == 0 {
            0
        } else if i % 4 == 3 {
            2
        } else {
            1
        };
        let mutation = match kind {
            0 => Mutation::InsertSpec {
                spec: generate_spec(&SpecParams { seed: seed ^ (i << 8), ..SpecParams::default() }),
                policy: Policy::public(),
            },
            1 => {
                let target = SpecId(((seed ^ i) % repo.len() as u64) as u32);
                let exec = Executor::new(&repo.entry(target).unwrap().spec)
                    .run(&mut HashOracle)
                    .expect("stored specs execute");
                Mutation::AddExecution { spec: target, exec }
            }
            _ => Mutation::SetPolicy {
                spec: SpecId(((seed ^ i) % repo.len() as u64) as u32),
                policy: Policy::public(),
            },
        };
        repo.apply(mutation.clone()).expect("generated mutation applies");
        out.push(mutation);
    }
    out
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
        let mutation = match mutation.clone() {
            Mutation::InsertSpec { spec, policy } => Mutation::InsertSpec { spec, policy },
            Mutation::AddExecution { spec, exec } => {
                Mutation::AddExecution { spec: ppwf_repo::repository::SpecId(spec.0 + shift), exec }
            }
            Mutation::SetPolicy { spec, policy } => {
                Mutation::SetPolicy { spec: ppwf_repo::repository::SpecId(spec.0 + shift), policy }
            }
            Mutation::DeleteSpec { spec } => {
                Mutation::DeleteSpec { spec: ppwf_repo::repository::SpecId(spec.0 + shift) }
            }
            Mutation::EditSpec { spec, text } => {
                Mutation::EditSpec { spec: ppwf_repo::repository::SpecId(spec.0 + shift), text }
            }
        };
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

/// Serve the whole read log once; returns (elapsed µs, hits served).
fn serve_pass(mut serve: impl FnMut(&str, &str) -> usize, log: &[String]) -> (f64, usize) {
    let t = Instant::now();
    let mut hits = 0usize;
    for (i, q) in log.iter().enumerate() {
        hits += serve(E10_GROUPS[i % E10_GROUPS.len()], q);
    }
    (t.elapsed().as_secs_f64() * 1e6, hits)
}

fn main() {
    let config = parse_args();
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
        let _ = serve_pass(|g, q| warmup.search_as(g, q).map(|h| h.len()).unwrap_or(0), &read_log);
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

        let mut repo_replay = e11_repo(&corpus);
        for mutation in stream.iter().cloned() {
            repo_replay.apply(mutation).expect("write stream valid");
        }
        let engine_fresh = EngineCluster::new(repo_replay, standard_registry(), 1);

        let serve_fresh =
            |g: &str, q: &str| engine_fresh.search_as(g, q).map(|h| h.len()).unwrap_or(0);
        let serve_durable =
            |g: &str, q: &str| engine_durable.search_as(g, q).map(|h| h.len()).unwrap_or(0);
        let ((fresh_us, fh), (durable_us, dh)) = if rep % 2 == 0 {
            let f = serve_pass(serve_fresh, &read_log);
            let d = serve_pass(serve_durable, &read_log);
            (f, d)
        } else {
            let d = serve_pass(serve_durable, &read_log);
            let f = serve_pass(serve_fresh, &read_log);
            (f, d)
        };
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
        let serve_fresh =
            |g: &str, q: &str| engine_fresh.search_as(g, q).map(|h| h.len()).unwrap_or(0);
        let serve_durable =
            |g: &str, q: &str| engine_durable.search_as(g, q).map(|h| h.len()).unwrap_or(0);
        let (f_us, d_us) = if rep % 2 == 0 {
            let (f, _) = serve_pass(serve_fresh, &read_log);
            let (d, _) = serve_pass(serve_durable, &read_log);
            (f, d)
        } else {
            let (d, _) = serve_pass(serve_durable, &read_log);
            let (f, _) = serve_pass(serve_fresh, &read_log);
            (f, d)
        };
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

    let recovery_json = recovery_rows
        .iter()
        .map(|(n, replay, snap)| {
            format!(
                "{{ \"records\": {n}, \"replay_only_us\": {replay:.1}, \"with_snapshot_cadence_us\": {snap:.1} }}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        r#"{{
  "experiment": "E15",
  "title": "Durable mutation WAL + snapshots: crash recovery, read no-regression",
  "seed": {seed},
  "corpus_specs": {specs},
  "writes": {writes},
  "reads": {reads},
  "append_throughput": {{
    "records": {records},
    "framed_mib": {mib:.3},
    "memory_us_per_append": {mem:.3},
    "fs_fsync_us_per_append": {fss:.3}
  }},
  "recovery": [
    {recovery}
  ],
  "read_path": {{
    "fresh_cold_us_per_query": {fc:.3},
    "durable_cold_us_per_query": {dc:.3},
    "cold_ratio_durable_vs_fresh": {cr:.3},
    "fresh_warm_us_per_query": {fw:.4},
    "durable_warm_us_per_query": {dw:.4},
    "warm_ratio_durable_vs_fresh": {wr:.3},
    "durable_write_us_per_write": {dwu:.3}
  }},
  "acceptance": {{
    "max_read_regression": {mrr:.2},
    "recovery_bit_identical_at_every_ladder_point": true,
    "every_mutate_appended_before_apply": true
  }},
  "note": "per-record fsync dominates real-file appends (durable-on-acknowledge is priced, not hidden); without a pool a cadence snapshot serializes its dirty chunks while the write path waits, trading recovery replay length against a periodic pause"
}}
"#,
        seed = config.seed,
        specs = config.specs,
        writes = stream.len(),
        reads = read_log.len(),
        records = standalone.len(),
        mib = mb,
        mem = mem_us / appends,
        fss = fs_sync_us / appends,
        recovery = recovery_json,
        fc = per_q(fresh_cold_us),
        dc = per_q(durable_cold_us),
        cr = cold_ratio,
        fw = per_q(fresh_warm_us),
        dw = per_q(durable_warm_us),
        wr = warm_ratio,
        dwu = durable_write_us / stream.len() as f64,
        mrr = config.max_read_regression,
    );
    std::fs::write(&config.out, &json).expect("write baseline JSON");
    println!("\nbaseline written to {}", config.out);

    assert!(
        cold_ratio <= config.max_read_regression && warm_ratio <= config.max_read_regression,
        "E15 acceptance: the durable engine regressed reads (cold {cold_ratio:.2}x, warm {warm_ratio:.2}x, gate {:.2}x)",
        config.max_read_regression
    );
}
