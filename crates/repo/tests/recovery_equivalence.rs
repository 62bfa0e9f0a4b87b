//! Crash-matrix recovery equivalence: for randomized mutation sequences,
//! a crash injected at *every* durable byte boundary (and at sampled
//! interior offsets of every record) must recover a repository — and the
//! indexes rebuilt over it, down to the ranked f64 df/idf bits — that is
//! bit-identical to a sequential reference replay of exactly the
//! acknowledged prefix. A torn suffix is never resurrected, an
//! acknowledged write is never lost, and a corrupted *interior* record is
//! a typed [`WalError::Corrupt`] — never a panic, never a silent skip.
//!
//! The schedule comes from [`ppwf_workloads::gencrash`]: the fault-free
//! run records each run's durable byte cost (record framing plus any
//! snapshot its cadence triggered), and the matrix then replays the same
//! stream against a [`MemStorage`] armed with `crash_after_bytes` at each
//! scheduled offset. Small `snapshot_every` / `segment_bytes` knobs make
//! crashes land before, inside, and after snapshots and rotations.
//!
//! There is one write path, so there is one driver ([`drive`]) and one
//! matrix ([`crash_matrix`]), run with and without a pool at `max_batch` 1
//! and above: without a pool the covering fsync and the snapshot job run
//! on the driving thread and the acknowledged count is exact; with one
//! they run as pool jobs and the contract widens to `acked ≤ n ≤ appended`.
//!
//! The golden test pins the *bytes*: every file a fixed trace stores —
//! segments, the one-run checkpoint baseline, v3 manifests, chunks — hashed
//! at the commit before the write paths were unified, so a log written then
//! recovers now. Only the baseline's manifest has changed since, when the
//! v1 whole-image writer went; `snapshot.rs`'s unit tests pin the v1 bytes
//! that commit wrote and recover them.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ppwf_core::policy::Policy;
use ppwf_model::fixtures;
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::mutation::{ModuleTextEdit, SpecText};
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_repo::snapshot::CHUNK_SPECS;
use ppwf_repo::storage::{FaultPlan, MemStorage, StorageBackend};
use ppwf_repo::wal::{DurabilityPolicy, DurableLog, WalError};
use ppwf_repo::Mutation;
use ppwf_workloads::gencrash::{crash_schedule, CrashScheduleParams};
use ppwf_workloads::genmutation::mutation_stream;
use proptest::prelude::*;

/// Generated specs draw their keywords from the `kw{rank}` vocabulary.
const TERMS: [&str; 6] = ["kw0", "kw1", "kw2", "kw3", "kw5", "kw7"];

/// Tight cadences so a short stream still exercises snapshots, pruning
/// and segment rotation, and the crash matrix straddles all three.
fn tight_policy(snapshot_every: u64) -> DurabilityPolicy {
    DurabilityPolicy { snapshot_every, segment_bytes: 2048, ..DurabilityPolicy::default() }
}

/// Runs are the durability unit and nothing else writes: snapshots and
/// rotation stay out of the byte trace, so the deltas are pure record
/// framing and the crash schedule probes the fsync window.
fn batch_policy() -> DurabilityPolicy {
    DurabilityPolicy {
        snapshot_every: 0,
        segment_bytes: u64::MAX,
        ..DurabilityPolicy::pipelined(8, 0)
    }
}

// The deterministic mutation streams — full vocabulary, including the
// `DeleteSpec`/`EditSpec` records whose frames the crash matrix tears at
// every scheduled byte — come from [`ppwf_workloads::genmutation`]:
// destructive kinds target only live slots, so every stream replays.

/// What one [`drive`] saw.
struct Driven {
    /// Mutations whose covering fsync confirmed: their run's durability
    /// callback fired `Ok` — the acknowledgement contract.
    acked: usize,
    /// Mutations whose append returned `Ok`. Without a pool the fsync runs
    /// inside the append, so this equals `acked`; with one, a crash can
    /// leave appended-but-unsynced frames behind — [`MemStorage`], like a
    /// real disk, may persist them — which is the window the matrix probes.
    appended: usize,
    /// Durable byte delta of each appended run: its record plus any
    /// snapshot the cadence triggered on its heels.
    deltas: Vec<u64>,
    /// Length of each appended run; a run is acknowledged wholly or not
    /// at all.
    runs: Vec<usize>,
}

/// Drive `stream` through a fresh durable log over `storage` until the
/// backend dies (or the stream ends): split it into runs whose lengths
/// cycle through `run_lens`, append each run as ONE record, apply it, and
/// let the cadence snapshot. With a `pool` the covering fsyncs and the
/// snapshots are pool jobs; the snapshot job is waited out after every run
/// so each snapshot byte lands deterministically inside its run's delta,
/// the sync job only at the end so frames stay in flight across appends.
fn drive(
    storage: &Arc<MemStorage>,
    pool: Option<&Arc<WorkerPool>>,
    stream: &[Mutation],
    policy: DurabilityPolicy,
    run_lens: &[usize],
) -> Driven {
    let backend: Arc<dyn StorageBackend> = Arc::clone(storage) as Arc<dyn StorageBackend>;
    let opened = DurableLog::open(backend, policy).expect("open on fresh storage");
    let mut log = opened.log;
    let mut repo = opened.repository;
    if let Some(pool) = pool {
        log.set_pool(Arc::clone(pool));
    }
    let acked = Arc::new(AtomicUsize::new(0));
    let mut driven = Driven { acked: 0, appended: 0, deltas: Vec::new(), runs: Vec::new() };
    let mut start = 0;
    while start < stream.len() {
        let len = run_lens[driven.runs.len() % run_lens.len()].clamp(1, stream.len() - start);
        let run = &stream[start..start + len];
        let before = storage.bytes_appended();
        let acked_cb = Arc::clone(&acked);
        let on_durable = Box::new(move |verdict: Result<(), WalError>| {
            if verdict.is_ok() {
                acked_cb.fetch_add(len, Ordering::SeqCst);
            }
        });
        if log.commit(run, on_durable).is_err() {
            break;
        }
        for mutation in run {
            repo.apply(mutation.clone()).expect("pre-validated stream applies");
        }
        log.snapshot_if_due(&repo);
        log.wait_for_background_snapshot();
        driven.appended += len;
        driven.deltas.push(storage.bytes_appended() - before);
        driven.runs.push(len);
        start += len;
    }
    log.wait_for_pipeline();
    driven.acked = acked.load(Ordering::SeqCst);
    driven
}

/// The sequential reference: apply the first `n` mutations to a fresh
/// in-memory repository, no durability anywhere.
fn replay_prefix(stream: &[Mutation], n: usize) -> Repository {
    let mut repo = Repository::new();
    for mutation in &stream[..n] {
        repo.apply(mutation.clone()).expect("prefix replays");
    }
    repo
}

fn crash_at(offset: u64) -> Arc<MemStorage> {
    Arc::new(MemStorage::with_faults(FaultPlan {
        crash_after_bytes: Some(offset),
        ..FaultPlan::default()
    }))
}

/// The matrix: a fault-free trace run feeds the crash schedule, then the
/// same drive is crashed at every scheduled offset and rebooted. Recovery
/// must yield `replay_prefix(n)` — image bytes and the rebuilt keyword
/// index down to ranked idf mantissa bits — for a **run-aligned** `n` with
/// `acked ≤ n ≤ appended`: every acknowledged write survives, nothing torn
/// is resurrected, and no run recovers partially. Without a pool `acked ==
/// appended`, so `n` is exactly the acknowledged count.
fn crash_matrix(
    stream: &[Mutation],
    pool: Option<&Arc<WorkerPool>>,
    policy: DurabilityPolicy,
    run_lens: &[usize],
    schedule: &CrashScheduleParams,
) -> Result<(), TestCaseError> {
    let trace = Arc::new(MemStorage::new());
    let full = drive(&trace, pool, stream, policy, run_lens);
    prop_assert_eq!(full.acked, stream.len(), "fault-free run must ack everything");
    prop_assert_eq!(full.appended, stream.len());
    let (trace_recovered, trace_stats) = Repository::recover(trace.as_ref()).unwrap();
    prop_assert_eq!(trace_recovered.save(), replay_prefix(stream, stream.len()).save());
    prop_assert_eq!(trace_stats.last_seq, stream.len() as u64);
    if policy.snapshot_every > 0 {
        prop_assert!(trace_stats.snapshot_seq > 0, "the cadence must have snapshotted");
    }

    // Run-boundary prefixes are the only legal recovery points;
    // precompute each one's reference so the per-offset loop only compares.
    let mut aligned = vec![0usize];
    for &len in &full.runs {
        aligned.push(aligned.last().unwrap() + len);
    }
    let references: Vec<_> = aligned
        .iter()
        .map(|&n| {
            let reference = replay_prefix(stream, n);
            (reference.save(), KeywordIndex::build(&reference))
        })
        .collect();

    let mut index_checked = BTreeSet::new();
    for &offset in &crash_schedule(&full.deltas, schedule) {
        let storage = crash_at(offset);
        let crashed = drive(&storage, pool, stream, policy, run_lens);
        prop_assert!(crashed.acked <= crashed.appended, "crash at byte {}", offset);
        prop_assert!(
            pool.is_some() || crashed.acked == crashed.appended,
            "crash at byte {}: an inline fsync acknowledges inside the append",
            offset
        );
        // Whole runs only, the same runs the fault-free drive formed.
        prop_assert_eq!(crashed.appended, crashed.runs.iter().sum::<usize>());
        prop_assert_eq!(&full.runs[..crashed.runs.len()], &crashed.runs[..]);

        // Reboot: only the surviving bytes, a clean fault plan.
        let (recovered, stats) = match Repository::recover(&storage.reopen()) {
            Ok(ok) => ok,
            Err(e) => {
                return Err(TestCaseError::Fail(format!(
                    "crash at byte {offset}: recovery failed: {e}"
                )))
            }
        };
        let n = stats.last_seq as usize;
        let Some(at) = aligned.iter().position(|&a| a == n) else {
            return Err(TestCaseError::Fail(format!(
                "crash at byte {offset}: recovered {n} mutations, not a run boundary"
            )));
        };
        prop_assert!(
            crashed.acked <= n && n <= crashed.appended,
            "crash at byte {}: recovered {} outside acked {} ..= appended {}",
            offset,
            n,
            crashed.acked,
            crashed.appended
        );
        let (reference, idx_reference) = &references[at];
        prop_assert_eq!(
            &recovered.save(),
            reference,
            "crash at byte {}: recovered image diverges from reference replay",
            offset
        );

        // Index rebuild bit-equivalence, ranked f64 bits included — once
        // per recovery point and recovery shape (with or without a
        // snapshot under the suffix), not once per offset: an exhaustive
        // schedule recovers the same few states thousands of times.
        if !index_checked.insert((at, stats.snapshot_seq)) {
            continue;
        }
        let idx_recovered = KeywordIndex::build(&recovered);
        prop_assert_eq!(idx_recovered.doc_count(), idx_reference.doc_count());
        prop_assert_eq!(idx_recovered.term_count(), idx_reference.term_count());
        for term in TERMS {
            prop_assert_eq!(
                idx_recovered.lookup_query_term(term),
                idx_reference.lookup_query_term(term),
                "postings diverged on {:?} at crash byte {}",
                term,
                offset
            );
            prop_assert_eq!(idx_recovered.df(term), idx_reference.df(term));
            prop_assert_eq!(
                idx_recovered.idf_cached(term).to_bits(),
                idx_reference.idf_cached(term).to_bits(),
                "ranked idf bits diverged on {:?} at crash byte {}",
                term,
                offset
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// No pool × `max_batch` 1, snapshots every third record and 2 KB
    /// segments: every record boundary, the first header byte of every
    /// record, and sampled interior offsets — of records, chunk writes and
    /// manifests alike. Recovery after each crash is byte-for-byte the
    /// acknowledged prefix.
    #[test]
    fn recovery_is_bit_identical_at_every_crash_offset(
        seed in any::<u64>(),
        writes in proptest::collection::vec((0u8..5, any::<u64>()), 3..9),
    ) {
        let stream = mutation_stream(&writes);
        let schedule = CrashScheduleParams { seed, interior_per_record: 2, ..Default::default() };
        crash_matrix(&stream, None, tight_policy(3), &[1], &schedule)?;
    }

    /// Corrupting an *interior* record (a checksum byte of a record with
    /// durable successors) is a typed `WalError::Corrupt` — recovery must
    /// refuse the log rather than skip the record or panic.
    #[test]
    fn interior_corruption_is_rejected_not_skipped(
        writes in proptest::collection::vec((0u8..5, any::<u64>()), 4..9),
        victim in any::<u64>(),
    ) {
        let stream = mutation_stream(&writes);
        // One fat segment, no snapshots: every record stays in the log and
        // every record but the last has durable successors.
        let policy = DurabilityPolicy { max_batch: 1, ..batch_policy() };
        let storage = Arc::new(MemStorage::new());
        let driven = drive(&storage, None, &stream, policy, &[1]);
        prop_assert_eq!(driven.acked, stream.len());

        let segments: Vec<String> = storage
            .list()
            .unwrap()
            .into_iter()
            .filter(|name| name.ends_with(".log"))
            .collect();
        prop_assert_eq!(segments.len(), 1, "expected a single fat segment");
        let segment = &segments[0];

        // Flip a checksum byte (record-relative offset 5) of a non-final
        // record: an unambiguous interior corruption.
        let victim = (victim % (driven.acked as u64 - 1)) as usize;
        let record_start: u64 = driven.deltas[..victim].iter().sum();
        storage.flip_byte(segment, record_start as usize + 5);

        match Repository::recover(storage.as_ref()) {
            Err(WalError::Corrupt { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::Fail(format!(
                    "interior corruption surfaced as {other:?}, want WalError::Corrupt"
                )))
            }
            Ok((repo, stats)) => {
                return Err(TestCaseError::Fail(format!(
                    "interior corruption silently accepted: {} specs, last_seq {}",
                    repo.len(),
                    stats.last_seq
                )))
            }
        }
    }
}

proptest! {
    // The batch matrices probe every byte of small batch records; a
    // leaner case budget keeps the exhaustive schedules affordable in
    // debug tier-1 runs (the nightly soak raises it via PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// No pool × `max_batch` > 1: the stream is appended in multi-record
    /// runs; batch records up to 256 bytes get **every** interior byte
    /// probed and larger ones are densely sampled. A crash anywhere in a
    /// run's fsync window recovers exactly the previously-acked prefix —
    /// whole runs only, never a partial one.
    #[test]
    fn group_commit_recovery_has_no_partial_batches(
        seed in any::<u64>(),
        writes in proptest::collection::vec((0u8..5, any::<u64>()), 4..8),
        run_lens in proptest::collection::vec(1usize..5, 1..4),
    ) {
        let stream = mutation_stream(&writes);
        let schedule = CrashScheduleParams {
            seed,
            interior_per_record: 4,
            exhaustive_max_len: 256,
            ..Default::default()
        };
        crash_matrix(&stream, None, batch_policy(), &run_lens, &schedule)?;
    }

    /// Pool × `max_batch` > 1: appends run ahead of their covering
    /// fsyncs, so a crash can land between apply-of-run-*k* and
    /// fsync-of-run-*k−1* — the in-flight window the schedule's
    /// `exhaustive_tail_records` tears at every byte. Recovery yields a
    /// **run-aligned** `n` with `acked ≤ n ≤ appended`.
    #[test]
    fn pipelined_commit_recovers_a_batch_aligned_acked_superset(
        seed in any::<u64>(),
        writes in proptest::collection::vec((0u8..5, any::<u64>()), 4..8),
        run_lens in proptest::collection::vec(1usize..5, 1..4),
    ) {
        let stream = mutation_stream(&writes);
        let pool = Arc::new(WorkerPool::new(1));
        // Every byte of the final record — the deepest in-flight frame —
        // plus sampled interiors of the rest: the nightly soak widens
        // coverage via PROPTEST_CASES, debug tier-1 keeps the matrix
        // affordable.
        let schedule = CrashScheduleParams {
            seed,
            interior_per_record: 2,
            exhaustive_tail_records: 1,
            ..Default::default()
        };
        crash_matrix(&stream, Some(&pool), batch_policy(), &run_lens, &schedule)?;
    }

    /// Pool × `max_batch` 1, a copy-on-write snapshot job after every
    /// second append: the schedule's offsets land inside chunk-blob
    /// writes, between the chunks and their manifest, and across manifests
    /// that reuse earlier chunks, while frames are still in flight.
    /// Whatever the snapshot generation lost, the unpruned WAL suffix must
    /// restore.
    #[test]
    fn cow_snapshot_recovery_is_bit_identical_at_every_crash_offset(
        seed in any::<u64>(),
        writes in proptest::collection::vec((0u8..5, any::<u64>()), 4..9),
    ) {
        let stream = mutation_stream(&writes);
        let pool = Arc::new(WorkerPool::new(1));
        let schedule = CrashScheduleParams { seed, interior_per_record: 3, ..Default::default() };
        crash_matrix(&stream, Some(&pool), tight_policy(2), &[1], &schedule)?;
    }
}

/// Deterministic exhaustive tear of one 4-mutation batch: a crash at
/// EVERY byte offset of the batch record (header, checksum, count,
/// every payload byte, and both boundaries) recovers either nothing or
/// the whole batch — no partially-acknowledged middle ground exists.
#[test]
fn a_torn_batch_record_never_acknowledges_partially() {
    let stream = mutation_stream(&[(0, 21), (1, 22), (2, 23), (0, 24)]);
    let policy = batch_policy();

    let trace = Arc::new(MemStorage::new());
    let full = drive(&trace, None, &stream, policy, &[4]);
    assert_eq!(full.acked, 4, "fault-free run acks the whole batch");
    assert_eq!(full.deltas.len(), 1, "one physical record covers the batch");
    let total = full.deltas[0];

    for offset in 0..=total {
        let storage = crash_at(offset);
        let acked = drive(&storage, None, &stream, policy, &[4]).acked;
        let expect = if offset >= total { 4 } else { 0 };
        assert_eq!(acked, expect, "crash at byte {offset}: batch ack must be all-or-nothing");

        let reopened = storage.reopen();
        let (recovered, stats) = Repository::recover(&reopened)
            .unwrap_or_else(|e| panic!("crash at byte {offset}: recovery failed: {e}"));
        assert_eq!(stats.last_seq, acked as u64, "crash at byte {offset}");
        assert_eq!(
            recovered.save(),
            replay_prefix(&stream, acked).save(),
            "crash at byte {offset}: recovered image diverges"
        );
    }
}

/// A torn tail plus later re-append: after recovering from a crash
/// mid-record, the log must accept new writes and the *second* recovery
/// must see old prefix + new suffix with contiguous sequence numbers.
#[test]
fn log_reopens_and_extends_after_a_torn_tail() {
    let stream = mutation_stream(&[(0, 11), (1, 12), (2, 13), (0, 14), (1, 15)]);
    let policy = tight_policy(3);

    // Crash inside the fourth record: acked = 3.
    let trace = Arc::new(MemStorage::new());
    let deltas = drive(&trace, None, &stream, policy, &[1]).deltas;
    let storage = crash_at(deltas[..3].iter().sum::<u64>() + 7);
    assert_eq!(drive(&storage, None, &stream, policy, &[1]).acked, 3);

    // Reboot, recover, and append the remaining writes through a reopened
    // log — the torn record is truncated, then overwritten by the retry.
    let reopened: Arc<dyn StorageBackend> = Arc::new(storage.reopen());
    let opened = DurableLog::open(Arc::clone(&reopened), policy).unwrap();
    assert_eq!(opened.recovery.last_seq, 3);
    assert!(opened.recovery.truncated_bytes > 0, "the torn tail should have been truncated");
    let mut log = opened.log;
    let mut repo = opened.repository;
    for mutation in &stream[3..] {
        repo.check(mutation).unwrap();
        log.append_batch(std::slice::from_ref(mutation)).unwrap();
        repo.apply(mutation.clone()).unwrap();
        log.snapshot_if_due(&repo);
    }

    let (recovered, stats) = Repository::recover(reopened.as_ref()).unwrap();
    assert_eq!(stats.last_seq, stream.len() as u64);
    assert_eq!(recovered.save(), replay_prefix(&stream, stream.len()).save());
}

// ---------------------------------------------------------------------------
// Format stability.
// ---------------------------------------------------------------------------

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn paper_insert() -> Mutation {
    Mutation::InsertSpec { spec: fixtures::disease_susceptibility_spec(), policy: Policy::public() }
}

/// A fixed five-kind trace over the paper fixture, applied on top of two
/// pre-loaded specs (ids 0 and 1): sixteen inserts fill chunk 0 and open
/// chunk 1, four writes touch chunk 0, and the last twelve touch only
/// chunk 1 — so late snapshots must reuse chunk 0 by reference.
fn golden_trace() -> Vec<Mutation> {
    let (spec, m) = fixtures::disease_susceptibility();
    let exec = |id: u32| Mutation::AddExecution {
        spec: SpecId(id),
        exec: fixtures::disease_susceptibility_execution(&spec),
    };
    let policy = |id: u32| Mutation::SetPolicy { spec: SpecId(id), policy: Policy::public() };
    let edit = |id: u32, module, name: &str| Mutation::EditSpec {
        spec: SpecId(id),
        text: SpecText {
            edits: vec![ModuleTextEdit {
                module,
                name: name.to_string(),
                keywords: vec!["redacted".to_string(), "revised".to_string()],
            }],
        },
    };
    let mut trace: Vec<Mutation> = (0..16).map(|_| paper_insert()).collect();
    trace.extend([
        exec(0),
        policy(3),
        edit(1, m.m2, "Sanitized step"),
        Mutation::DeleteSpec { spec: SpecId(5) },
        exec(17),
        exec(16),
        paper_insert(),
        edit(17, m.m3, "Bare"),
        policy(16),
        exec(18),
        edit(18, m.m2, "Sanitized step"),
        paper_insert(),
        exec(19),
        policy(18),
        Mutation::DeleteSpec { spec: SpecId(19) },
        exec(17),
    ]);
    trace
}

/// `(file name, FNV-1a of its bytes)` for every file [`golden_trace`]
/// stores at `max_batch` 1 — segments at their fullest, the checkpoint
/// baseline (`snap-…0000`: one run of the two pre-loaded specs, whose chunk
/// file is byte-identical to a later two-spec chunk 1), the six v3 manifests
/// and their chunks — as written by commit fe158a1, the last one with three
/// append paths and two cadence snapshot writers. The baseline line alone
/// has moved since: that commit wrote it as a v1 whole image
/// (`0x4463519b666e4a38`).
const GOLDEN_PER_RECORD: &[(&str, u64)] = &[
    ("chk-06fe70015ba7d270.blob", 0x07d1eb2e7ebd438d),
    ("chk-18f89e6d9a22d9bd.blob", 0xcdfae8efc617a9bd),
    ("chk-3a18b150ab20804f.blob", 0xe1ff192670352525),
    ("chk-81e8b9074068e5ed.blob", 0xbadfec7df4f77965),
    ("chk-87b4d515c0ed145f.blob", 0x1e4b1bc5330e3080),
    ("chk-91338500b14aeb1b.blob", 0x2dc739682ac7c8a5),
    ("chk-97fdac7371732691.blob", 0x1ee333cab61b6e4b),
    ("chk-9ec9d9032908b172.blob", 0xd69468cc3800a14d),
    ("snap-0000000000000000.snap", 0x4624ac37c92d33b0),
    ("snap-0000000000000005.snap", 0xdcd38f8dc83a746b),
    ("snap-000000000000000a.snap", 0x99fa9afe372816d1),
    ("snap-000000000000000f.snap", 0x957b0054ccf86122),
    ("snap-0000000000000014.snap", 0xa1b0ba5a72ba83e2),
    ("snap-0000000000000019.snap", 0xb1d641718ddbe828),
    ("snap-000000000000001e.snap", 0xf2479874bbe90888),
    ("wal-0000000000000001.log", 0xe50a69f5f7fb71b7),
    ("wal-0000000000000003.log", 0x32780106729790fd),
    ("wal-0000000000000006.log", 0x76b0f98b355d6869),
    ("wal-0000000000000008.log", 0x559e3f1f62130036),
    ("wal-000000000000000b.log", 0x2d4d2820d1c192db),
    ("wal-000000000000000d.log", 0x3c4390842a726093),
    ("wal-0000000000000010.log", 0x5d9dee9f54ae3955),
    ("wal-0000000000000015.log", 0x1a7a28427493f33d),
    ("wal-000000000000001a.log", 0x38bba1508d358ca8),
    ("wal-000000000000001f.log", 0x1ac6d5ff490fdcc2),
];

/// [`GOLDEN_PER_RECORD`] at `max_batch` 4: eight batch records, one per
/// segment.
const GOLDEN_BATCHED: &[(&str, u64)] = &[
    ("chk-3a18b150ab20804f.blob", 0xe1ff192670352525),
    ("chk-81e8b9074068e5ed.blob", 0xbadfec7df4f77965),
    ("chk-87b4d515c0ed145f.blob", 0x1e4b1bc5330e3080),
    ("chk-97fdac7371732691.blob", 0x1ee333cab61b6e4b),
    ("chk-aa1e244b590357e9.blob", 0xf5fdcd8077abf6e5),
    ("chk-c7be395f16dca525.blob", 0x1410657c64afb265),
    ("snap-0000000000000000.snap", 0x4624ac37c92d33b0),
    ("snap-0000000000000008.snap", 0x0b94b2a7f34b151d),
    ("snap-0000000000000010.snap", 0x6303cb69016045a1),
    ("snap-0000000000000018.snap", 0x299bd6132f7f818e),
    ("snap-0000000000000020.snap", 0x5d1476927b8afdf1),
    ("wal-0000000000000001.log", 0xfdb617ef2240005b),
    ("wal-0000000000000009.log", 0x27c3045c3abda423),
    ("wal-0000000000000011.log", 0x399247ab5b33fd48),
    ("wal-0000000000000019.log", 0x3e3aad987b97c8af),
];

/// Format stability across commits, not just within one build: the bytes
/// of every file the log stores for [`golden_trace`] — one-run checkpoint
/// baseline, per-record and batch frames across size rotations, cadence
/// snapshots every fifth record with chunk reuse and pruning — are pinned
/// to what the parent commit wrote, and `Repository::recover` over them
/// equals the sequential replay at every step. Equal bytes are the proof
/// that a parent-written store recovers here (and the reverse).
#[test]
fn stored_bytes_match_the_parent_commit_and_recover_to_the_sequential_replay() {
    for (max_batch, golden) in [(1, GOLDEN_PER_RECORD), (4, GOLDEN_BATCHED)] {
        let storage = Arc::new(MemStorage::new());
        let mut repo = Repository::new();
        repo.apply(paper_insert()).unwrap();
        repo.apply(paper_insert()).unwrap();
        let mut reference = Repository::load(&repo.save()).unwrap();
        let policy = DurabilityPolicy {
            snapshot_every: 5,
            segment_bytes: 6000,
            ..DurabilityPolicy::pipelined(max_batch, 0)
        };
        let backend = Arc::clone(&storage) as Arc<dyn StorageBackend>;
        let mut log = DurableLog::open(backend, policy).unwrap().log;
        // Every name ever stored, at the last content it was seen with
        // (segments grow until pruned; everything else is written once).
        let mut stored: BTreeMap<String, u64> = BTreeMap::new();
        let mut observe = |storage: &MemStorage| {
            for name in storage.list().unwrap() {
                let bytes = storage.read(&name).unwrap().unwrap();
                stored.insert(name, fnv1a(&bytes));
            }
        };
        log.snapshot_now(&repo).unwrap();
        observe(&storage);
        for run in golden_trace().chunks(max_batch) {
            for mutation in run {
                repo.check(mutation).unwrap();
            }
            log.append_batch(run).unwrap();
            for mutation in run {
                repo.apply(mutation.clone()).unwrap();
                reference.apply(mutation.clone()).unwrap();
            }
            log.snapshot_if_due(&repo);
            observe(&storage);
            let (recovered, _) = Repository::recover(storage.as_ref()).unwrap();
            assert_eq!(recovered.save(), reference.save(), "max_batch {max_batch}");
        }
        assert!(log.stats().snapshot_chunks_reused > 0, "the trace must exercise chunk reuse");
        let stored: Vec<(&str, u64)> = stored.iter().map(|(n, h)| (n.as_str(), *h)).collect();
        assert_eq!(stored, golden, "max_batch {max_batch}: stored bytes moved");
    }
}

/// A store holding only a checkpoint of more than [`CHUNK_SPECS`] specs
/// re-opens with a one-run manifest. Writes past chunk 0 leave chunk 0
/// clean, but that run is not chunk 0: the next cadence snapshot captures
/// chunk 0 afresh, and recovery equals the sequential replay.
#[test]
fn a_reopened_checkpoint_is_never_reused_as_chunk_zero() {
    let mut history: Vec<Mutation> = (0..CHUNK_SPECS + 4).map(|_| paper_insert()).collect();
    let storage = Arc::new(MemStorage::new());
    let policy = DurabilityPolicy { snapshot_every: 3, ..DurabilityPolicy::default() };
    let backend = Arc::clone(&storage) as Arc<dyn StorageBackend>;
    let mut log = DurableLog::open(backend, policy).unwrap().log;
    log.snapshot_now(&replay_prefix(&history, history.len())).unwrap();
    assert_eq!(storage.list().unwrap().len(), 2, "one chunk file and its manifest");
    drop(log);

    let reopened = Arc::new(storage.reopen());
    let backend = Arc::clone(&reopened) as Arc<dyn StorageBackend>;
    let opened = DurableLog::open(backend, policy).unwrap();
    let (mut log, mut repo) = (opened.log, opened.repository);
    let past_chunk_zero = SpecId(CHUNK_SPECS as u32 + 1);
    let spec = fixtures::disease_susceptibility_spec();
    let writes = [
        Mutation::AddExecution {
            spec: past_chunk_zero,
            exec: fixtures::disease_susceptibility_execution(&spec),
        },
        Mutation::SetPolicy { spec: past_chunk_zero, policy: Policy::public() },
        paper_insert(),
    ];
    for mutation in writes {
        repo.check(&mutation).unwrap();
        log.append_batch(std::slice::from_ref(&mutation)).unwrap();
        repo.apply(mutation.clone()).unwrap();
        history.push(mutation);
        log.snapshot_if_due(&repo);
    }
    let stats = log.stats();
    assert_eq!(stats.background_snapshots, 1, "the cadence snapshot ran");
    assert_eq!(
        (stats.snapshot_chunks_written, stats.snapshot_chunks_reused),
        (2, 0),
        "chunk 0 is captured afresh, not carried as the checkpoint's run"
    );
    let (recovered, rstats) = Repository::recover(reopened.as_ref()).unwrap();
    assert_eq!(rstats.snapshot_seq, 3);
    assert_eq!(recovered.save(), replay_prefix(&history, history.len()).save());
}
