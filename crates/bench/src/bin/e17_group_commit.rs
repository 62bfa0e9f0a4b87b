//! E17 baseline emitter: batch records under one covering fsync, and the
//! snapshot job on or off the mutating thread — amortized durable writes
//! under concurrency, priced honestly.
//!
//! ```bash
//! cargo run --release -p ppwf-bench --bin e17_group_commit -- \
//!     [--out BENCH_e17_group_commit.json] [--writes 384] [--reads 200] \
//!     [--seed 17] [--window 32] [--max-batch 16] [--max-delay-us 50] \
//!     [--min-grouped-speedup 1.0] [--max-single-writer-ratio 1.2] \
//!     [--max-read-regression 1.2] [--max-bg-pause-ratio 1.0]
//! ```
//!
//! Four measured sections, every number on real files ([`FsStorage`])
//! so the fsyncs being amortized are actual fsyncs. There is one write
//! path (`ppwf_repo::wal`), so every section compares two values of a
//! choice that path still has:
//!
//! * **Concurrent durable mutations: `max_batch` 1 vs N.** Two typed
//!   write streams run through a [`ServeFront`] with `--window` requests
//!   in flight, each once at `max_batch` 1 (one record per mutation) and
//!   once at `--max-batch` / `--max-delay-us`. Both arms lift the fence
//!   before the covering fsync, and in both the sync job covers every
//!   frame queued while the previous fsync ran — so `max_batch` 1 already
//!   shares fsyncs across frames; what batching adds is one record, one
//!   write-lock acquisition and one pool dispatch per run instead of per
//!   mutation. The mixed 1:2:1 stream carries full execution records
//!   (apply-bound); the policy-churn stream (tiny `SetPolicy` records —
//!   the paper's privacy-policy updates) is dispatch- and fsync-bound and
//!   carries the wall-clock gate: ≥ `--min-grouped-speedup`. Every run
//!   must end bit-identical to a sequential reference replay before its
//!   speedup is believed.
//! * **Single-writer overhead.** The same two policies driven closed-loop
//!   (one request in flight, so every batch has size 1): batching must
//!   cost nothing when there is nothing to batch. Gate: within
//!   `--max-single-writer-ratio` of `max_batch` 1.
//! * **Read no-regression.** A cluster *recovered from* the batched log
//!   serves a keyword read log against a fresh build of the same corpus,
//!   cold and warm (alternated minima, E15 methodology). Reads never touch
//!   the log; batching must not change that. Gate: both ratios ≤
//!   `--max-read-regression`.
//! * **Snapshot pause: pool attached vs not.** The same durable write
//!   stream through a [`DurableLog`] and its [`Repository`] driven
//!   directly (a bare log has a pool only when one is set — a cluster's
//!   always does) with the snapshot cadence on:
//!   without a pool the snapshot job (serialize dirty chunks, write,
//!   prune) runs on the mutating thread, with one the thread pays capture
//!   and rotate and a pool job does the rest. Both recover bit-identically.
//!   Gate: pool pause ≤ no-pool pause × `--max-bg-pause-ratio`.
//!
//! **Honest boundaries.** Batching trades latency for throughput: a
//! record admitted first in a batch waits up to `max_delay_us` — paid
//! only when sibling writes are in flight — plus its peers' append time
//! before its covering fsync returns; the batch is acknowledged
//! together, never early. The speedup exists only under concurrency
//! (section B is the proof), and the pooled snapshot job trades the
//! mutating thread's pause for pool occupancy while the job runs.
//! The binary exits non-zero when any acceptance gate fails.

use ppwf_bench::{standard_registry, E10_GROUPS, E10_QUERIES};
use ppwf_query::cluster::EngineCluster;
use ppwf_query::route::ShardStrategy;
use ppwf_query::serve::{QueryAnswer, ServeFront, ServeRequest, ServeStats};
use ppwf_repo::mutation::Mutation;
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::repository::Repository;
use ppwf_repo::storage::{FsStorage, StorageBackend};
use ppwf_repo::wal::{DurabilityPolicy, DurabilityStats, DurableLog, BATCH_SIZE_BOUNDS};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

struct Config {
    out: String,
    writes: usize,
    reads: usize,
    seed: u64,
    window: usize,
    max_batch: usize,
    max_delay_us: u64,
    min_grouped_speedup: f64,
    max_single_writer_ratio: f64,
    max_read_regression: f64,
    max_bg_pause_ratio: f64,
}

fn parse_args() -> Config {
    let mut config = Config {
        out: "BENCH_e17_group_commit.json".to_string(),
        writes: 384,
        reads: 200,
        seed: 17,
        window: 32,
        max_batch: 16,
        max_delay_us: 50,
        min_grouped_speedup: 1.0,
        max_single_writer_ratio: 1.2,
        max_read_regression: 1.2,
        max_bg_pause_ratio: 1.0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need =
            |n: usize| args.get(n).unwrap_or_else(|| panic!("{} needs a value", args[n - 1]));
        match args[i].as_str() {
            "--out" => config.out = need(i + 1).clone(),
            "--writes" => config.writes = need(i + 1).parse().expect("bad write count"),
            "--reads" => config.reads = need(i + 1).parse().expect("bad read count"),
            "--seed" => config.seed = need(i + 1).parse().expect("bad seed"),
            "--window" => config.window = need(i + 1).parse().expect("bad window"),
            "--max-batch" => config.max_batch = need(i + 1).parse().expect("bad max batch"),
            "--max-delay-us" => config.max_delay_us = need(i + 1).parse().expect("bad delay"),
            "--min-grouped-speedup" => {
                config.min_grouped_speedup = need(i + 1).parse().expect("bad threshold")
            }
            "--max-single-writer-ratio" => {
                config.max_single_writer_ratio = need(i + 1).parse().expect("bad ratio")
            }
            "--max-read-regression" => {
                config.max_read_regression = need(i + 1).parse().expect("bad ratio")
            }
            "--max-bg-pause-ratio" => {
                config.max_bg_pause_ratio = need(i + 1).parse().expect("bad ratio")
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

/// A policy-churn stream: a small spec corpus up front, then pure
/// `SetPolicy` swaps — the paper's privacy-policy update traffic. Policy
/// records are tiny and near-free to apply, so the durable cost of a
/// write is almost pure fsync latency: the workload group commit exists
/// for, and the one the speedup gate holds against.
fn policy_churn_stream(specs: usize, writes: usize, seed: u64) -> Vec<Mutation> {
    use ppwf_core::policy::{AccessLevel, Policy};
    use ppwf_repo::repository::SpecId;
    use ppwf_workloads::genspec::{generate_spec, SpecParams};
    let specs = specs.min(writes).max(1);
    let mut out = Vec::with_capacity(writes);
    for i in 0..specs as u64 {
        out.push(Mutation::InsertSpec {
            spec: generate_spec(&SpecParams { seed: seed ^ (i << 8), ..SpecParams::default() }),
            policy: Policy::public(),
        });
    }
    for i in specs as u64..writes as u64 {
        let policy = if i % 2 == 0 {
            Policy::public()
        } else {
            let mut p = Policy::public();
            p.protect_channel(format!("churn-{}", i % 7), AccessLevel(2));
            p
        };
        out.push(Mutation::SetPolicy { spec: SpecId(((seed ^ i) % specs as u64) as u32), policy });
    }
    out
}

/// Open a durable cluster over a fresh [`FsStorage`] root and push the
/// whole stream through a [`ServeFront`] with up to `window` requests in
/// flight. Returns (elapsed µs, WAL stats, serve stats, final image).
fn front_mutation_pass(
    root: &Path,
    stream: &[Mutation],
    policy: DurabilityPolicy,
    window: usize,
) -> (f64, DurabilityStats, ServeStats, Vec<u8>) {
    let pool = Arc::new(WorkerPool::new(4));
    let backend: Arc<dyn StorageBackend> =
        Arc::new(FsStorage::open(root).expect("bench storage root"));
    let (cluster, _) = EngineCluster::open_durable(
        Arc::clone(&backend),
        policy,
        standard_registry(),
        2,
        ShardStrategy::RoundRobin,
        Arc::clone(&pool),
    )
    .expect("open durable cluster on fresh storage");
    let front = ServeFront::with_pool(cluster, Arc::clone(&pool));

    let t = Instant::now();
    let mut inflight = VecDeque::with_capacity(window);
    for mutation in stream {
        inflight.push_back(front.submit(ServeRequest::mutate(mutation.clone())));
        if inflight.len() >= window.max(1) {
            let response = inflight.pop_front().expect("non-empty window").wait();
            assert!(
                matches!(response.answer, QueryAnswer::Mutated(Ok(_))),
                "durable mutation refused on healthy storage"
            );
        }
    }
    for ticket in inflight {
        let response = ticket.wait();
        assert!(
            matches!(response.answer, QueryAnswer::Mutated(Ok(_))),
            "durable mutation refused on healthy storage"
        );
    }
    let us = t.elapsed().as_secs_f64() * 1e6;
    front.quiesce();
    let stats = front.stats();
    let wal = front.durability_stats().expect("durable front reports WAL stats");
    // The equivalence that matters is the *durable* image: replaying the
    // WAL this pass wrote must rebuild the sequential reference exactly.
    let (recovered, recovery) =
        Repository::recover(backend.as_ref()).expect("recovery over healthy log");
    assert_eq!(recovery.last_seq, stream.len() as u64, "durable log missed mutations");
    (us, wal, stats, recovered.save().to_vec())
}

/// Serve the fixed keyword read log once over a blocking cluster;
/// returns (elapsed µs, hits served).
fn read_pass(cluster: &EngineCluster, reads: usize) -> (f64, usize) {
    let t = Instant::now();
    let mut hits = 0usize;
    for i in 0..reads {
        let group = E10_GROUPS[i % E10_GROUPS.len()];
        let query = E10_QUERIES[i % E10_QUERIES.len()];
        hits += cluster.search_as(group, query).map(|h| h.len()).unwrap_or(0);
    }
    (t.elapsed().as_secs_f64() * 1e6, hits)
}

/// Drive the stream through a durable log and its repository with the
/// snapshot cadence on, the log with or without a pool. Returns (total µs,
/// WAL stats after draining any in-flight job).
fn snapshot_pass(
    root: &Path,
    stream: &[Mutation],
    pooled: bool,
    cadence: u64,
) -> (f64, DurabilityStats) {
    let backend: Arc<dyn StorageBackend> =
        Arc::new(FsStorage::open(root).expect("bench storage root"));
    let policy = DurabilityPolicy {
        snapshot_every: cadence,
        segment_bytes: 1 << 18,
        ..DurabilityPolicy::default()
    };
    let opened = DurableLog::open(backend.clone(), policy).expect("open log on fresh storage");
    let (mut log, mut repo) = (opened.log, opened.repository);
    if pooled {
        log.set_pool(Arc::new(WorkerPool::new(2)));
    }
    let t = Instant::now();
    for mutation in stream {
        repo.check(mutation).expect("fault-free stream validates");
        log.append_batch(std::slice::from_ref(mutation)).expect("append on healthy storage");
        repo.apply(mutation.clone()).expect("checked mutation applies");
        log.snapshot_if_due(&repo);
    }
    let us = t.elapsed().as_secs_f64() * 1e6;
    log.wait_for_background_snapshot();
    let wal = log.stats();

    // No number is believed over an unverified log: recovery must be
    // bit-identical to a sequential replay of the same stream.
    let (recovered, stats) = Repository::recover(&*backend).expect("recovery");
    assert_eq!(stats.last_seq, stream.len() as u64, "recovery missed records");
    let mut replay = Repository::new();
    for mutation in stream {
        replay.apply(mutation.clone()).expect("generated stream applies");
    }
    assert_eq!(recovered.save(), replay.save(), "recovered image diverges from the stream");
    (us, wal)
}

fn main() {
    let config = parse_args();
    println!("== E17: batch records under one covering fsync; the snapshot job on/off the pool ==");
    println!(
        "{} writes · {} reads · window {} · max batch {} · seed {}",
        config.writes, config.reads, config.window, config.max_batch, config.seed
    );

    let replay = |stream: &[Mutation]| {
        let mut repo = Repository::new();
        for mutation in stream {
            repo.apply(mutation.clone()).expect("generated stream applies");
        }
        repo
    };
    let stream = standalone_stream(config.writes, config.seed ^ 0xE17);
    let reference = replay(&stream);
    let reference_save = reference.save().to_vec();
    let churn = policy_churn_stream(64, config.writes, config.seed ^ 0xC409);
    let churn_reference_save = replay(&churn).save().to_vec();

    let fs_root = std::env::temp_dir().join(format!("ppwf-e17-{}", std::process::id()));
    let per_record = DurabilityPolicy {
        snapshot_every: 0,
        segment_bytes: 1 << 20,
        ..DurabilityPolicy::default()
    };
    let grouped = DurabilityPolicy {
        max_batch: config.max_batch,
        max_delay_us: config.max_delay_us,
        ..per_record
    };

    // -- section A: concurrent durable mutations ----------------------------
    // Two workloads bracket the amortization range. The mixed 1:2:1
    // stream carries full execution records: per-record apply cost and
    // data-proportional fsync time are shared by both policies, so its
    // wall-clock win is Amdahl-bounded — reported, not gated. The
    // policy-churn stream is dispatch- and fsync-bound, and the speedup
    // gate holds against it. Both arms share covering fsyncs across
    // queued frames, so fsync counts are reported, not gated either.
    let (mix_per_us, mix_per_wal, _, mix_per_save) =
        front_mutation_pass(&fs_root.join("mixed-per"), &stream, per_record, config.window);
    let (mix_grp_us, mix_grp_wal, mix_serve, mix_grp_save) =
        front_mutation_pass(&fs_root.join("mixed-grp"), &stream, grouped, config.window);
    assert_eq!(mix_per_save, reference_save, "per-record front diverged from sequential replay");
    assert_eq!(mix_grp_save, reference_save, "grouped front diverged from sequential replay");
    assert_eq!(mix_per_wal.appends, stream.len() as u64);
    assert_eq!(mix_grp_wal.appends, stream.len() as u64);
    assert_eq!(mix_per_wal.records, stream.len() as u64, "per-record framing: one record each");
    assert!(
        mix_grp_wal.records < mix_grp_wal.appends,
        "concurrency must form multi-record batches"
    );
    let (churn_per_us, churn_per_wal, _, churn_per_save) =
        front_mutation_pass(&fs_root.join("churn-per"), &churn, per_record, config.window);
    let (churn_grp_us, churn_grp_wal, churn_serve, churn_grp_save) =
        front_mutation_pass(&fs_root.join("churn-grp"), &churn, grouped, config.window);
    assert_eq!(churn_per_save, churn_reference_save, "per-record churn diverged from replay");
    assert_eq!(churn_grp_save, churn_reference_save, "grouped churn diverged from replay");
    assert_eq!(churn_per_wal.appends, churn.len() as u64);
    assert_eq!(churn_grp_wal.appends, churn.len() as u64);
    let mixed_speedup = mix_per_us / mix_grp_us;
    let grouped_speedup = churn_per_us / churn_grp_us;
    let writes = stream.len() as f64;
    println!("\n-- concurrent durable mutations ({} in flight, real fsync) --", config.window);
    println!(
        "{:>34} {:>12} {:>10} {:>14}",
        "stream · policy", "µs/write", "fsyncs", "fsyncs saved"
    );
    for (label, us, wal) in [
        ("mixed · max_batch 1", mix_per_us, &mix_per_wal),
        ("mixed · batched", mix_grp_us, &mix_grp_wal),
        ("policy churn · max_batch 1", churn_per_us, &churn_per_wal),
        ("policy churn · batched", churn_grp_us, &churn_grp_wal),
    ] {
        println!("{label:>34} {:>12.1} {:>10} {:>14}", us / writes, wal.syncs, wal.fsyncs_saved);
    }
    println!(
        "mixed speedup {mixed_speedup:.2}x (Amdahl-bounded, not gated); largest batch {}, histogram {:?} (bounds {:?})",
        mix_serve.max_write_batch, mix_grp_wal.batch_size_counts, BATCH_SIZE_BOUNDS
    );
    println!(
        "churn speedup {grouped_speedup:.2}x (gate ≥{:.1}x); {} WAL batches, largest {}, histogram {:?}",
        config.min_grouped_speedup,
        churn_serve.write_batches,
        churn_serve.max_write_batch,
        churn_grp_wal.batch_size_counts
    );

    // -- section B: single-writer overhead -----------------------------------
    // Closed loop, one request in flight: every batch has size 1, so this
    // prices the batching bookkeeping itself. Alternated minima of
    // SOLO_REPS passes cancel scheduler noise.
    const SOLO_REPS: usize = 3;
    let (mut solo_per_us, mut solo_grp_us) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..SOLO_REPS {
        let per_root = fs_root.join(format!("solo-per-{rep}"));
        let grp_root = fs_root.join(format!("solo-grp-{rep}"));
        let (p, g) = if rep % 2 == 0 {
            let (p, ..) = front_mutation_pass(&per_root, &stream, per_record, 1);
            let (g, ..) = front_mutation_pass(&grp_root, &stream, grouped, 1);
            (p, g)
        } else {
            let (g, ..) = front_mutation_pass(&grp_root, &stream, grouped, 1);
            let (p, ..) = front_mutation_pass(&per_root, &stream, per_record, 1);
            (p, g)
        };
        solo_per_us = solo_per_us.min(p);
        solo_grp_us = solo_grp_us.min(g);
    }
    let single_writer_ratio = solo_grp_us / solo_per_us;
    println!("\n-- single writer (closed loop, nothing to batch) --");
    println!(
        "max_batch 1 {:.1} µs/write · batched {:.1} µs/write · ratio {single_writer_ratio:.3} (gate ≤{:.2})",
        solo_per_us / writes,
        solo_grp_us / writes,
        config.max_single_writer_ratio
    );

    // -- section C: read no-regression ---------------------------------------
    // Cold: a cluster recovered from the batched log vs a fresh
    // build, fresh pair per rep, order alternated, per-side minima.
    const COLD_REPS: usize = 3;
    let grouped_root = fs_root.join("mixed-grp");
    let open_recovered = || {
        EngineCluster::open_durable(
            Arc::new(FsStorage::open(&grouped_root).expect("reopen grouped root"))
                as Arc<dyn StorageBackend>,
            grouped,
            standard_registry(),
            2,
            ShardStrategy::RoundRobin,
            Arc::new(WorkerPool::new(2)),
        )
        .expect("recover cluster from the batched log")
        .0
    };
    let (mut fresh_cold_us, mut durable_cold_us) = (f64::INFINITY, f64::INFINITY);
    let mut pair: Option<(EngineCluster, EngineCluster)> = None;
    for rep in 0..COLD_REPS {
        let durable_cluster = open_recovered();
        let fresh_cluster = EngineCluster::new(reference.clone(), standard_registry(), 2);
        let ((f_us, fh), (d_us, dh)) = if rep % 2 == 0 {
            let f = read_pass(&fresh_cluster, config.reads);
            let d = read_pass(&durable_cluster, config.reads);
            (f, d)
        } else {
            let d = read_pass(&durable_cluster, config.reads);
            let f = read_pass(&fresh_cluster, config.reads);
            (f, d)
        };
        assert_eq!(dh, fh, "the recovered cluster serves different answers");
        fresh_cold_us = fresh_cold_us.min(f_us);
        durable_cold_us = durable_cold_us.min(d_us);
        pair = Some((durable_cluster, fresh_cluster));
    }
    let (durable_cluster, fresh_cluster) = pair.expect("at least one rep");
    const WARM_REPS: usize = 15;
    let (mut fresh_warm_us, mut durable_warm_us) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..WARM_REPS {
        let (f_us, d_us) = if rep % 2 == 0 {
            let (f, _) = read_pass(&fresh_cluster, config.reads);
            let (d, _) = read_pass(&durable_cluster, config.reads);
            (f, d)
        } else {
            let (d, _) = read_pass(&durable_cluster, config.reads);
            let (f, _) = read_pass(&fresh_cluster, config.reads);
            (f, d)
        };
        fresh_warm_us = fresh_warm_us.min(f_us);
        durable_warm_us = durable_warm_us.min(d_us);
    }
    let cold_ratio = durable_cold_us / fresh_cold_us;
    let warm_ratio = durable_warm_us / fresh_warm_us;
    let per_q = |us: f64| us / config.reads as f64;
    println!("\n-- read path: cluster recovered from the batched log vs fresh build --");
    println!(
        "cold {:.2} vs {:.2} µs/q (ratio {cold_ratio:.3}) · warm {:.3} vs {:.3} µs/q (ratio {warm_ratio:.3}) · gate ≤{:.1}",
        per_q(durable_cold_us),
        per_q(fresh_cold_us),
        per_q(durable_warm_us),
        per_q(fresh_warm_us),
        config.max_read_regression
    );

    // -- section D: snapshot pause, pool attached vs not ---------------------
    const SNAPSHOT_CADENCE: u64 = 16;
    let (solo_snap_us, solo_wal) =
        snapshot_pass(&fs_root.join("snap-no-pool"), &stream, false, SNAPSHOT_CADENCE);
    let (pool_snap_us, pool_wal) =
        snapshot_pass(&fs_root.join("snap-pool"), &stream, true, SNAPSHOT_CADENCE);
    assert!(solo_wal.snapshots >= 2, "cadence must snapshot repeatedly");
    assert!(pool_wal.snapshots >= 2, "cadence must run snapshot jobs on the pool");
    let per_snap = |us: u64, n: u64| us as f64 / n.max(1) as f64;
    let solo_pause = per_snap(solo_wal.snapshot_pause_us, solo_wal.snapshots);
    let pool_pause = per_snap(pool_wal.snapshot_pause_us, pool_wal.snapshots);
    let pause_ratio = pool_pause / solo_pause;
    println!("\n-- snapshot pause on the mutating thread (cadence {SNAPSHOT_CADENCE}) --");
    println!(
        "no pool: {} snapshots, {solo_pause:.1} µs pause each (capture+serialize+write+prune)",
        solo_wal.snapshots
    );
    println!(
        "pool: {} snapshots, {pool_pause:.1} µs pause each (capture+rotate); {:.1} µs/job off-thread",
        pool_wal.snapshots,
        per_snap(pool_wal.snapshot_background_us, pool_wal.snapshots)
    );
    println!(
        "pause ratio {pause_ratio:.3} (gate ≤{:.2}); write path {:.1} vs {:.1} µs/write overall",
        config.max_bg_pause_ratio,
        solo_snap_us / writes,
        pool_snap_us / writes
    );
    let _ = std::fs::remove_dir_all(&fs_root);

    let histogram = |wal: &DurabilityStats| {
        wal.batch_size_counts.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
    };
    let json = format!(
        r#"{{
  "experiment": "E17",
  "title": "Batch records under one covering fsync (max_batch 1 vs N) and the snapshot job on/off the pool",
  "seed": {seed},
  "writes": {writes},
  "reads": {reads},
  "window": {window},
  "max_batch": {max_batch},
  "max_delay_us": {max_delay},
  "concurrent_mutations_policy_churn": {{
    "stream": "64 spec inserts then pure SetPolicy swaps (dispatch- and fsync-bound)",
    "per_record_us_per_write": {pu:.2},
    "grouped_us_per_write": {gu:.2},
    "grouped_speedup": {gs:.3},
    "per_record_fsyncs": {pf},
    "grouped_fsyncs": {gf},
    "fsyncs_saved": {fsv},
    "wal_batches": {wb},
    "largest_batch": {lb},
    "batch_size_histogram": [{hist}],
    "final_state_bit_identical_to_sequential": true
  }},
  "concurrent_mutations_mixed": {{
    "stream": "1:2:1 inserts, execution appends, policy swaps (apply + data-proportional fsync shared by both policies)",
    "per_record_us_per_write": {mpu:.2},
    "grouped_us_per_write": {mgu:.2},
    "grouped_speedup": {mgsp:.3},
    "per_record_fsyncs": {mpf},
    "grouped_fsyncs": {mgf},
    "fsyncs_saved": {mfsv},
    "largest_batch": {mlb},
    "batch_size_histogram": [{mhist}],
    "final_state_bit_identical_to_sequential": true
  }},
  "single_writer": {{
    "per_record_us_per_write": {spu:.2},
    "grouped_us_per_write": {sgu:.2},
    "ratio_grouped_vs_per_record": {swr:.3}
  }},
  "read_path": {{
    "fresh_cold_us_per_query": {fc:.3},
    "recovered_cold_us_per_query": {dc:.3},
    "cold_ratio": {cr:.3},
    "fresh_warm_us_per_query": {fw:.4},
    "recovered_warm_us_per_query": {dw:.4},
    "warm_ratio": {wr:.3}
  }},
  "snapshot_pause": {{
    "cadence": {cad},
    "no_pool_snapshots": {isn},
    "no_pool_pause_us_per_snapshot": {ip:.1},
    "pool_snapshots": {bsn},
    "pool_pause_us_per_snapshot": {bp:.1},
    "pool_job_us_per_snapshot": {bj:.1},
    "pause_ratio_pool_vs_no_pool": {pr:.3},
    "recovery_bit_identical_both_modes": true
  }},
  "acceptance": {{
    "min_grouped_speedup": {mgs:.1},
    "max_single_writer_ratio": {msw:.2},
    "max_read_regression": {mrr:.2},
    "max_bg_pause_ratio": {mbp:.2},
    "no_response_before_covering_fsync": true
  }},
  "note": "per_record is max_batch 1, grouped is max_batch N, both on the one write path: the fence lifts before the covering fsync and the sync job covers every queued frame, so max_batch 1 already shares fsyncs and batching adds one record / lock acquisition / dispatch per run (the fence-held per-record-fsync baseline of the first E17 runs is deleted; its numbers are in crates/bench/BENCHMARKS.md); batching trades latency for throughput and wins only under concurrency (single-writer section is the control); the pooled snapshot job trades the mutating thread's pause for pool occupancy"
}}
"#,
        seed = config.seed,
        writes = stream.len(),
        reads = config.reads,
        window = config.window,
        max_batch = config.max_batch,
        max_delay = config.max_delay_us,
        pu = churn_per_us / writes,
        gu = churn_grp_us / writes,
        gs = grouped_speedup,
        pf = churn_per_wal.syncs,
        gf = churn_grp_wal.syncs,
        fsv = churn_grp_wal.fsyncs_saved,
        wb = churn_serve.write_batches,
        lb = churn_serve.max_write_batch,
        hist = histogram(&churn_grp_wal),
        mpu = mix_per_us / writes,
        mgu = mix_grp_us / writes,
        mgsp = mixed_speedup,
        mpf = mix_per_wal.syncs,
        mgf = mix_grp_wal.syncs,
        mfsv = mix_grp_wal.fsyncs_saved,
        mlb = mix_serve.max_write_batch,
        mhist = histogram(&mix_grp_wal),
        spu = solo_per_us / writes,
        sgu = solo_grp_us / writes,
        swr = single_writer_ratio,
        fc = per_q(fresh_cold_us),
        dc = per_q(durable_cold_us),
        cr = cold_ratio,
        fw = per_q(fresh_warm_us),
        dw = per_q(durable_warm_us),
        wr = warm_ratio,
        cad = SNAPSHOT_CADENCE,
        isn = solo_wal.snapshots,
        ip = solo_pause,
        bsn = pool_wal.snapshots,
        bp = pool_pause,
        bj = per_snap(pool_wal.snapshot_background_us, pool_wal.snapshots),
        pr = pause_ratio,
        mgs = config.min_grouped_speedup,
        msw = config.max_single_writer_ratio,
        mrr = config.max_read_regression,
        mbp = config.max_bg_pause_ratio,
    );
    std::fs::write(&config.out, &json).expect("write baseline JSON");
    println!("\nbaseline written to {}", config.out);

    assert!(
        grouped_speedup >= config.min_grouped_speedup,
        "E17 acceptance: batching must be ≥{:.1}x max_batch 1 on policy churn at {} in flight (got {grouped_speedup:.2}x)",
        config.min_grouped_speedup,
        config.window
    );
    assert!(
        single_writer_ratio <= config.max_single_writer_ratio,
        "E17 acceptance: batching must cost nothing single-writer (ratio {single_writer_ratio:.2}x, gate {:.2}x)",
        config.max_single_writer_ratio
    );
    assert!(
        cold_ratio <= config.max_read_regression && warm_ratio <= config.max_read_regression,
        "E17 acceptance: the cluster recovered from the batched log regressed reads (cold {cold_ratio:.2}x, warm {warm_ratio:.2}x, gate {:.2}x)",
        config.max_read_regression
    );
    assert!(
        pause_ratio <= config.max_bg_pause_ratio,
        "E17 acceptance: a pool must shrink the mutating thread's snapshot pause (ratio {pause_ratio:.2}x, gate {:.2}x)",
        config.max_bg_pause_ratio
    );
}
