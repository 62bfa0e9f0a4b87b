//! E18 baseline emitter: the covering fsync overlapping the next batch's
//! apply, a crash matrix over the in-flight window, and copy-on-write
//! chunked snapshots — snapshotting only what changed.
//!
//! ```bash
//! cargo run --release -p ppwf-bench --bin e18_pipelined_commit -- \
//!     [--out BENCH_e18_pipelined_commit.json] [--writes 384] [--seed 18] \
//!     [--window 32] [--max-batch 2] \
//!     [--max-incremental-snapshot-ratio 0.5] [--min-chunk-reuse-ratio 0.5]
//! ```
//!
//! Three measured sections:
//!
//! * **Overlap on the write path.** The E17 mixed 1:2:1 stream (inserts,
//!   execution appends, policy swaps) runs through a
//!   [`ServeFront`](ppwf_query::serve::ServeFront) over real files
//!   ([`FsStorage`](ppwf_repo::storage::FsStorage)) with `--window`
//!   requests in flight at `--max-batch 2`, where per-batch fsync cost is on the order of
//!   per-batch apply cost — the regime overlapping targets. Structural
//!   gates: `overlapped_fsyncs > 0` (an fsync actually ran while the front
//!   applied the next batch) and `pipeline_depth_high_water ≥ 1`; µs/write
//!   is reported. The run must recover bit-identically to a sequential
//!   replay before its time is believed.
//! * **Crash matrix over in-flight frames.** A deterministic pipelined
//!   append trace on fault-injected [`MemStorage`]: power fails at every
//!   record boundary, at sampled interiors, and at **every byte of the
//!   final in-flight frame** (`gencrash` `exhaustive_tail_records`). At
//!   each offset, recovery must yield a batch-aligned prefix `n` with
//!   `acked ≤ n ≤ appended`, bit-identical to the sequential replay of
//!   those `n` mutations — every acknowledged write survives, nothing
//!   torn is resurrected, no batch recovers partially. (The matrix is the
//!   bench-side smoke of the exhaustive property suite in
//!   `recovery_equivalence.rs`.)
//! * **COW snapshot write volume: chunked vs a checkpoint.** A
//!   128-spec corpus (8 content-addressed chunks of 16) takes cadence
//!   snapshots while mutations stay confined to chunk 0: the incremental
//!   chunked snapshot must write ≤ `--max-incremental-snapshot-ratio` of
//!   what a checkpoint ([`DurableLog::snapshot_now`]: every slot as one
//!   run, one chunk file plus its manifest — as many bytes as the v1
//!   whole image it replaced, give or take a few manifest bytes) writes
//!   for the same state (gate, at 1/8 = 12.5% dirty chunks —
//!   inside the ≤25% acceptance envelope), and reuse ≥
//!   `--min-chunk-reuse-ratio` of its chunks by reference (structural
//!   gate). Byte counts are exact, so this section runs on
//!   [`MemStorage`].
//!
//! **Honest boundaries.** Overlap buys at most the smaller of apply and
//! fsync cost per batch: at deep batch caps (or on storage with near-free
//! fsync) the win decays toward 1×. Acknowledgement latency is unchanged —
//! a ticket still waits for its covering fsync; only the *fence* lifts
//! early, so reads admitted in the overlap window can observe
//! applied-but-not-yet-acknowledged state (losable suffix data, never
//! anything a client was told succeeded). COW chunking pays a chunk-index
//! probe and a per-chunk manifest entry on every snapshot; with every
//! chunk dirty it writes the whole image plus that overhead, and only
//! wins when mutations have locality. The binary exits non-zero when any
//! acceptance gate fails.

use ppwf_bench::harness::{fixed, front_mutation_pass, write_record, Json};
use ppwf_bench::{replay, standalone_stream};
use ppwf_repo::mutation::Mutation;
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::repository::Repository;
use ppwf_repo::storage::{FaultPlan, MemStorage, StorageBackend};
use ppwf_repo::wal::{DurabilityPolicy, DurabilityStats, DurableLog};
use ppwf_workloads::gencrash::{crash_schedule, CrashScheduleParams};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

ppwf_bench::flags! {
    struct Config {
        out: String = "BENCH_e18_pipelined_commit.json",
        writes: usize = "384",
        seed: u64 = "18",
        window: usize = "32",
        max_batch: usize = "2",
        max_incremental_snapshot_ratio: f64 = "0.5",
        min_chunk_reuse_ratio: f64 = "0.5",
    }
}

/// Drive `stream` through a pipelined log over `storage` in batches whose
/// lengths cycle through `run_lens`; a batch counts as *acknowledged*
/// only when its durability callback fires `Ok`. Returns
/// (acked, appended, per-batch byte deltas, batch sizes).
fn drive_pipelined(
    storage: &Arc<MemStorage>,
    pool: &Arc<WorkerPool>,
    stream: &[Mutation],
    run_lens: &[usize],
) -> (usize, usize, Vec<u64>, Vec<usize>) {
    let backend: Arc<dyn StorageBackend> = Arc::clone(storage) as Arc<dyn StorageBackend>;
    let policy = DurabilityPolicy {
        snapshot_every: 0,
        segment_bytes: u64::MAX,
        ..DurabilityPolicy::pipelined(8, 0)
    };
    let opened = DurableLog::open(backend, policy).expect("open on fresh storage");
    let mut log = opened.log;
    log.set_pool(Arc::clone(pool));
    let acked = Arc::new(AtomicUsize::new(0));
    let mut appended = 0usize;
    let mut deltas = Vec::new();
    let mut batch_sizes = Vec::new();
    let mut start = 0;
    let mut run = 0;
    while start < stream.len() {
        let len = run_lens[run % run_lens.len()].clamp(1, stream.len() - start);
        run += 1;
        let before = storage.bytes_appended();
        let acked_cb = Arc::clone(&acked);
        let outcome = log.commit(
            &stream[start..start + len],
            Box::new(move |verdict| {
                if verdict.is_ok() {
                    acked_cb.fetch_add(len, Ordering::SeqCst);
                }
            }),
        );
        if outcome.is_err() {
            break;
        }
        appended += len;
        deltas.push(storage.bytes_appended() - before);
        batch_sizes.push(len);
        start += len;
    }
    log.wait_for_pipeline();
    (acked.load(Ordering::SeqCst), appended, deltas, batch_sizes)
}

fn main() {
    let config = Config::parse();
    println!(
        "== E18: fsync/apply overlap, in-flight crash matrix, copy-on-write chunked snapshots =="
    );
    println!(
        "{} writes · window {} · max batch {} · seed {}",
        config.writes, config.window, config.max_batch, config.seed
    );

    let stream = standalone_stream(config.writes, config.seed ^ 0xE18);
    let reference_save = replay(Repository::new(), &stream).save().to_vec();
    let writes = stream.len() as f64;
    let fs_root = std::env::temp_dir().join(format!("ppwf-e18-{}", std::process::id()));

    // -- section A: overlap on the write path, mixed stream, real fsyncs -----
    // Balanced regime: per-batch fsync on the order of per-batch apply —
    // where lifting the fence before the covering fsync pays most. The
    // fastest of REPS passes is reported with its counters.
    const REPS: usize = 3;
    let policy = DurabilityPolicy {
        snapshot_every: 0,
        segment_bytes: 1 << 20,
        ..DurabilityPolicy::pipelined(config.max_batch, 0)
    };
    let (pipe_us, pipe_wal) = (0..REPS)
        .map(|rep| {
            let root = fs_root.join(format!("pipe-{rep}"));
            let (us, wal, _, save) = front_mutation_pass(&root, &stream, policy, config.window);
            assert_eq!(save, reference_save, "front diverged from sequential replay");
            assert_eq!(wal.appends, stream.len() as u64);
            (us, wal)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one rep");
    println!("\n-- overlap on the write path ({} in flight, real fsync) --", config.window);
    println!(
        "max batch {}: {:.1} µs/write · pipeline depth high-water {} · overlapped fsyncs {} · syncs {} (saved {})",
        config.max_batch,
        pipe_us / writes,
        pipe_wal.pipeline_depth_high_water,
        pipe_wal.overlapped_fsyncs,
        pipe_wal.syncs,
        pipe_wal.fsyncs_saved
    );

    // -- section B: crash matrix over in-flight frames -----------------------
    let crash_stream = standalone_stream(14, config.seed ^ 0xC4A5);
    let run_lens = [3usize, 2, 4, 1];
    let crash_pool = Arc::new(WorkerPool::new(1));
    let trace = Arc::new(MemStorage::new());
    let (acked, appended, deltas, batch_sizes) =
        drive_pipelined(&trace, &crash_pool, &crash_stream, &run_lens);
    assert_eq!(acked, crash_stream.len(), "fault-free pipeline must ack everything");
    assert_eq!(appended, crash_stream.len());
    let mut aligned = vec![0usize];
    for &size in &batch_sizes {
        aligned.push(aligned.last().unwrap() + size);
    }
    let references: Vec<_> =
        aligned.iter().map(|&n| replay(Repository::new(), &crash_stream[..n]).save()).collect();
    let schedule = crash_schedule(
        &deltas,
        &CrashScheduleParams {
            seed: config.seed,
            interior_per_record: 3,
            exhaustive_tail_records: 1,
            ..Default::default()
        },
    );
    for &offset in &schedule {
        let storage = Arc::new(MemStorage::with_faults(FaultPlan {
            crash_after_bytes: Some(offset),
            ..FaultPlan::default()
        }));
        let (acked, appended, _, _) =
            drive_pipelined(&storage, &crash_pool, &crash_stream, &run_lens);
        let reopened = storage.reopen();
        let (recovered, stats) = Repository::recover(&reopened)
            .unwrap_or_else(|e| panic!("crash at byte {offset}: recovery failed: {e}"));
        let n = stats.last_seq as usize;
        let at = aligned
            .iter()
            .position(|&a| a == n)
            .unwrap_or_else(|| panic!("crash at byte {offset}: {n} is not a batch boundary"));
        assert!(
            acked <= n && n <= appended,
            "crash at byte {offset}: recovered {n} outside acked {acked} ..= appended {appended}"
        );
        assert_eq!(
            recovered.save(),
            references[at],
            "crash at byte {offset}: recovered image diverges from its prefix"
        );
    }
    println!(
        "\n-- crash matrix: {} offsets (every byte of the final in-flight frame) — all recovered a batch-aligned acked prefix bit-identically --",
        schedule.len()
    );

    // -- section C: COW snapshot write volume --------------------------------
    // 128 inserts fill 8 chunks; 64 policy swaps confined to chunk 0 then
    // dirty 1 of 8 chunks (12.5%). Cadence 64 → snapshots at 64, 128, 192:
    // the third is the incremental one the gates hold against.
    let cow_stream = {
        use ppwf_core::policy::{AccessLevel, Policy};
        use ppwf_repo::repository::SpecId;
        use ppwf_workloads::genspec::{generate_spec, SpecParams};
        let mut out = Vec::with_capacity(192);
        for i in 0..128u64 {
            out.push(Mutation::InsertSpec {
                spec: generate_spec(&SpecParams {
                    seed: config.seed ^ (i << 8) ^ 0xC0,
                    ..SpecParams::default()
                }),
                policy: Policy::public(),
            });
        }
        for i in 0..64u64 {
            let mut p = Policy::public();
            p.protect_channel(format!("cow-{}", i % 5), AccessLevel(2));
            out.push(Mutation::SetPolicy { spec: SpecId((i % 16) as u32), policy: p });
        }
        out
    };
    let cow_storage = Arc::new(MemStorage::new());
    let cow_policy = DurabilityPolicy {
        snapshot_every: 64,
        segment_bytes: u64::MAX,
        ..DurabilityPolicy::default()
    };
    let opened = DurableLog::open(Arc::clone(&cow_storage) as Arc<dyn StorageBackend>, cow_policy)
        .expect("open COW log on fresh storage");
    let mut log = opened.log;
    let mut repo = opened.repository;
    log.set_pool(Arc::new(WorkerPool::new(1)));
    let mut at_second_snapshot: Option<DurabilityStats> = None;
    for (i, mutation) in cow_stream.iter().enumerate() {
        repo.check(mutation).expect("generated stream applies");
        log.append_batch(std::slice::from_ref(mutation)).expect("healthy storage");
        repo.apply(mutation.clone()).expect("checked mutation applies");
        log.snapshot_if_due(&repo);
        log.wait_for_background_snapshot();
        if i + 1 == 128 {
            at_second_snapshot = Some(log.stats());
        }
    }
    let cow_wal = log.stats();
    let s2 = at_second_snapshot.expect("second snapshot recorded");
    assert_eq!(cow_wal.snapshots, 3, "cadence 64 over 192 writes must snapshot 3 times");
    let incremental_bytes = cow_wal.snapshot_bytes_written - s2.snapshot_bytes_written;
    let written_delta = cow_wal.snapshot_chunks_written - s2.snapshot_chunks_written;
    let reused_delta = cow_wal.snapshot_chunks_reused - s2.snapshot_chunks_reused;
    let dirty_fraction = written_delta as f64 / (written_delta + reused_delta) as f64;
    let reuse_ratio = reused_delta as f64 / (written_delta + reused_delta) as f64;
    // The comparator: a one-run checkpoint of the same final state, every
    // slot serialized once.
    let checkpoint_storage = Arc::new(MemStorage::new());
    let checkpoint_opened = DurableLog::open(
        Arc::clone(&checkpoint_storage) as Arc<dyn StorageBackend>,
        DurabilityPolicy { snapshot_every: 0, ..DurabilityPolicy::default() },
    )
    .expect("open comparator log");
    let mut checkpoint_log = checkpoint_opened.log;
    checkpoint_log.snapshot_now(&repo).expect("one-run checkpoint");
    let checkpoint_bytes = checkpoint_log.stats().snapshot_bytes_written;
    let incremental_ratio = incremental_bytes as f64 / checkpoint_bytes as f64;
    // Recovery over the chunked generations must still be bit-identical.
    let (recovered, rstats) = Repository::recover(&*cow_storage).expect("COW recovery");
    assert_eq!(rstats.last_seq, cow_stream.len() as u64);
    assert!(rstats.snapshot_seq > 0, "recovery must start from a chunked snapshot");
    assert_eq!(
        recovered.save(),
        replay(Repository::new(), &cow_stream).save(),
        "COW-snapshotted log diverges from sequential replay"
    );
    println!("\n-- COW snapshot write volume (8 chunks, churn confined to chunk 0) --");
    println!(
        "incremental snapshot: {incremental_bytes} bytes, {written_delta} chunks written, {reused_delta} reused (dirty fraction {dirty_fraction:.3})"
    );
    println!(
        "one-run checkpoint: {checkpoint_bytes} bytes → incremental ratio {incremental_ratio:.3} (gate ≤{:.2}) · reuse ratio {reuse_ratio:.3} (gate ≥{:.2})",
        config.max_incremental_snapshot_ratio, config.min_chunk_reuse_ratio
    );
    let _ = std::fs::remove_dir_all(&fs_root);

    let overlap = Json::obj()
        .with("stream", "1:2:1 inserts, execution appends, policy swaps; per-batch fsync ~ per-batch apply (the regime overlapping targets)")
        .with("us_per_write", fixed(pipe_us / writes, 2))
        .with("pipeline_depth_high_water", pipe_wal.pipeline_depth_high_water)
        .with("overlapped_fsyncs", pipe_wal.overlapped_fsyncs)
        .with("fsyncs", pipe_wal.syncs)
        .with("fsyncs_saved", pipe_wal.fsyncs_saved)
        .with("final_state_bit_identical_to_sequential", true);
    let crash_matrix = Json::obj()
        .with("offsets", schedule.len())
        .with("schedule", "every record boundary, 3 sampled interiors per record, every byte of the final in-flight frame")
        .with("contract", "recovery = batch-aligned prefix n with acked <= n <= appended, bit-identical to sequential replay of n")
        .with("all_offsets_bit_identical", true);
    // `whole_image_bytes` keeps its name so older records still compare;
    // it holds a one-run checkpoint's bytes.
    let cow_snapshot = Json::obj()
        .with("chunks", 8u64)
        .with("dirty_fraction", fixed(dirty_fraction, 3))
        .with("incremental_snapshot_bytes", incremental_bytes)
        .with("whole_image_bytes", checkpoint_bytes)
        .with("incremental_ratio", fixed(incremental_ratio, 3))
        .with("chunks_written", written_delta)
        .with("chunks_reused", reused_delta)
        .with("chunk_reuse_ratio", fixed(reuse_ratio, 3))
        .with("recovery_bit_identical", true);
    let acceptance = Json::obj()
        .with("overlap_count_positive", true)
        .with("max_incremental_snapshot_ratio", fixed(config.max_incremental_snapshot_ratio, 2))
        .with("min_chunk_reuse_ratio", fixed(config.min_chunk_reuse_ratio, 2))
        .with("no_response_before_covering_fsync", true);
    let record = Json::obj()
        .with("experiment", "E18")
        .with("title", "Covering fsync overlapping apply, in-flight crash matrix, copy-on-write chunked snapshots")
        .with("seed", config.seed)
        .with("writes", stream.len())
        .with("window", config.window)
        .with("max_batch", config.max_batch)
        .with("write_path_overlap", overlap)
        .with("crash_matrix", crash_matrix)
        .with("cow_snapshot", cow_snapshot)
        .with("acceptance", acceptance)
        .with("note", "overlap buys at most min(apply, fsync) per batch (the pipelined-vs-grouped comparison that sized it is retired with the grouped path; see crates/bench/BENCHMARKS.md); acknowledgement latency is unchanged (a ticket still waits for its covering fsync) and reads admitted in the overlap window may observe applied-but-unacknowledged state; COW chunking pays a chunk-index probe and manifest entry per snapshot and wins only when mutations have locality");
    write_record(&config.out, &record);

    assert!(
        pipe_wal.overlapped_fsyncs > 0,
        "E18 acceptance: at least one covering fsync must overlap the next batch's apply (structural)"
    );
    assert!(
        pipe_wal.pipeline_depth_high_water >= 1,
        "E18 acceptance: frames must pass through the sync queue"
    );
    assert!(
        incremental_ratio <= config.max_incremental_snapshot_ratio,
        "E18 acceptance: the incremental chunked snapshot must write ≤{:.2}x of a one-run checkpoint at {:.1}% dirty chunks (got {incremental_ratio:.3})",
        config.max_incremental_snapshot_ratio,
        dirty_fraction * 100.0
    );
    assert!(
        reuse_ratio >= config.min_chunk_reuse_ratio,
        "E18 acceptance: ≥{:.2} of chunks must be reused by reference (structural, got {reuse_ratio:.3})",
        config.min_chunk_reuse_ratio
    );
}
