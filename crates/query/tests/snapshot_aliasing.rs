//! Snapshot images share their data with the live repository — these
//! tests pin that sharing it is safe.
//!
//! A [`CowImage`] is captured under the write lock as shallow clones
//! ([`SpecEntry`]: specification, hierarchy and every execution behind
//! `Arc`s) and serialized later, possibly on another thread, while the
//! write path keeps mutating the very specs it holds. The contract:
//!
//! * **what an image serializes to is fixed at capture** — an image
//!   written only after further `AddExecution`, `EditSpec`, `SetPolicy`
//!   and `DeleteSpec` on the same specs produces byte-identical snapshot
//!   files to a copy written at capture, through the snapshot job run on
//!   the caller (no pool), run as a pool job, and up to a crash between
//!   capture and manifest;
//! * recovery over such a snapshot equals the sequential replay — through
//!   the capture point when the log ends there, through the end when the
//!   later writes were logged too — and a cluster opened over it holds
//!   that corpus;
//! * an `EditSpec` on an entry an image still shares copies the
//!   specification out from under the image and **never** the executions:
//!   the live entry's executions are the same `Arc`s before and after.

use std::sync::mpsc;
use std::sync::Arc;

use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_model::fixtures;
use ppwf_query::cluster::{EngineCluster, Mutation};
use ppwf_query::route::ShardStrategy;
use ppwf_repo::mutation::{ModuleTextEdit, SpecText};
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_repo::snapshot::{parse_chunk_name, parse_name, CowImage, CHUNK_SPECS};
use ppwf_repo::storage::{FaultPlan, MemStorage, StorageBackend};
use ppwf_repo::wal::{DurabilityPolicy, DurableLog};

/// Specs in the corpus: two chunks, the second partial.
const SPECS: usize = CHUNK_SPECS + 3;

fn insert() -> Mutation {
    let (spec, _) = fixtures::disease_susceptibility();
    Mutation::InsertSpec { spec, policy: Policy::public() }
}

fn execution(spec: u32) -> Mutation {
    let (fixture, _) = fixtures::disease_susceptibility();
    Mutation::AddExecution {
        spec: SpecId(spec),
        exec: fixtures::disease_susceptibility_execution(&fixture),
    }
}

fn edit(spec: u32, name: &str) -> Mutation {
    let (_, m) = fixtures::disease_susceptibility();
    Mutation::EditSpec {
        spec: SpecId(spec),
        text: SpecText {
            edits: vec![ModuleTextEdit {
                module: m.m5,
                name: name.into(),
                keywords: vec!["redacted".into()],
            }],
        },
    }
}

fn protect(spec: u32) -> Mutation {
    let mut policy = Policy::public();
    policy.protect_channel("disorders", AccessLevel(2));
    Mutation::SetPolicy { spec: SpecId(spec), policy }
}

/// The history through the capture point `k`: the corpus, executions on
/// specs of both chunks, an earlier edit and a policy.
fn history_through_k() -> Vec<Mutation> {
    let mut history: Vec<Mutation> = (0..SPECS).map(|_| insert()).collect();
    for spec in [0, 0, 1, 2, CHUNK_SPECS as u32, CHUNK_SPECS as u32 + 2] {
        history.push(execution(spec));
    }
    history.push(edit(2, "Earlier Edit"));
    history.push(protect(1));
    history
}

/// What the write path does to the same specs after the capture: every
/// mutation kind, on entries the image shares.
fn later_writes() -> Vec<Mutation> {
    let last = CHUNK_SPECS as u32 + 2;
    vec![
        execution(0),
        edit(0, "Sanitized"),
        protect(0),
        Mutation::DeleteSpec { spec: SpecId(1) },
        edit(2, "Edited Again"),
        execution(last),
        edit(last, "Sanitized Too"),
        Mutation::DeleteSpec { spec: SpecId(CHUNK_SPECS as u32) },
        insert(),
    ]
}

fn replay(history: &[Mutation]) -> Repository {
    let mut repo = Repository::new();
    for mutation in history {
        repo.apply(mutation.clone()).expect("history replays");
    }
    repo
}

/// A log over fresh storage whose first snapshot falls due exactly at the
/// end of `history_through_k`, with that history appended and applied.
fn log_at_k() -> (Arc<MemStorage>, DurableLog, Repository) {
    let history = history_through_k();
    let storage = Arc::new(MemStorage::new());
    let policy =
        DurabilityPolicy { snapshot_every: history.len() as u64, ..DurabilityPolicy::default() };
    let opened = DurableLog::open(Arc::clone(&storage) as Arc<dyn StorageBackend>, policy).unwrap();
    let (mut log, mut repo) = (opened.log, opened.repository);
    for mutation in history {
        repo.check(&mutation).unwrap();
        log.append_batch(std::slice::from_ref(&mutation)).unwrap();
        repo.apply(mutation).unwrap();
    }
    assert!(log.snapshot_due());
    (storage, log, repo)
}

/// The all-dirty image of `repo`, as the write path captures it.
fn capture(repo: &Repository) -> CowImage {
    let plan = vec![None; repo.len().div_ceil(CHUNK_SPECS)];
    CowImage::capture(repo.version(), repo.len(), &plan, |id| repo.entry(id).cloned())
}

/// Every snapshot manifest and chunk file of `storage`, by name.
fn snapshot_files(storage: &MemStorage) -> Vec<(String, Vec<u8>)> {
    let mut names: Vec<String> = storage
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| parse_name(n).is_some() || parse_chunk_name(n).is_some())
        .collect();
    names.sort();
    names.into_iter().map(|n| (n.clone(), storage.read(&n).unwrap().unwrap())).collect()
}

/// The files an image of the state at `k` serializes to when written at
/// capture, before anything else happens — the reference the delayed
/// writers are compared against.
fn written_at_capture() -> Vec<(String, Vec<u8>)> {
    let (storage, mut log, repo) = log_at_k();
    assert!(log.snapshot_if_due_with(repo.len(), |_| Some(capture(&repo))));
    let files = snapshot_files(&storage);
    assert_eq!(files.len(), 3, "two chunks and a manifest");
    files
}

fn registry() -> PrincipalRegistry {
    let mut registry = PrincipalRegistry::new();
    registry.add_group("public", AccessLevel(0), ViewRule::RootOnly);
    registry.add_group("researchers", AccessLevel(4), ViewRule::Full);
    registry
}

#[test]
fn inline_write_after_later_mutations_is_byte_identical_to_a_write_at_capture() {
    let (storage, mut log, mut repo) = log_at_k();
    let image = capture(&repo);
    // The write path moves on — on the image's own specs — before the
    // image is serialized. (Unlogged, so this log ends at `k`.)
    for mutation in later_writes() {
        repo.apply(mutation).unwrap();
    }
    assert!(log.snapshot_if_due_with(SPECS, |_| Some(image)));
    assert_eq!(snapshot_files(&storage), written_at_capture());

    // Recovery over it is the sequential replay through `k`…
    let reference = replay(&history_through_k());
    let (recovered, stats) = Repository::recover(&*storage).unwrap();
    assert_eq!(stats.snapshot_seq, history_through_k().len() as u64);
    assert_eq!(recovered.save(), reference.save());
    // …and so is the corpus of a cluster opened over it.
    let opened = DurableLog::open(storage, DurabilityPolicy::default()).unwrap();
    let pool = Arc::new(WorkerPool::new(1));
    let strategy = ShardStrategy::RoundRobin;
    let mut cluster = EngineCluster::with_config(opened.repository, registry(), 3, strategy, pool);
    cluster.attach_durability(opened.log).unwrap();
    assert_eq!(cluster.repo().save(), reference.save());
}

#[test]
fn background_job_that_runs_after_later_mutations_writes_the_capture_time_bytes() {
    let (storage, mut log, mut repo) = log_at_k();
    // One worker, parked on a gate: the snapshot job queues behind it and
    // cannot serialize until the test says so.
    let pool = Arc::new(WorkerPool::new(1));
    let (open_gate, gate) = mpsc::channel::<()>();
    let (parked, is_parked) = mpsc::channel::<()>();
    pool.exec(move || {
        parked.send(()).unwrap();
        gate.recv().unwrap();
    });
    is_parked.recv().unwrap();
    log.set_pool(Arc::clone(&pool));

    assert!(log.snapshot_if_due(&repo), "captured and queued");
    assert!(log.background_snapshot_in_flight());
    let later = later_writes();
    for mutation in &later {
        repo.check(mutation).unwrap();
        log.append_batch(std::slice::from_ref(mutation)).unwrap();
        repo.apply(mutation.clone()).unwrap();
    }
    assert_eq!(snapshot_files(&storage), [], "nothing serialized yet");
    open_gate.send(()).unwrap();
    log.wait_for_background_snapshot();
    assert_eq!(log.stats().background_snapshots, 1);
    assert_eq!(snapshot_files(&storage), written_at_capture());

    // Snapshot at `k` plus the logged suffix is the whole history.
    let mut whole = history_through_k();
    whole.extend(later);
    let (recovered, stats) = Repository::recover(&*storage).unwrap();
    assert_eq!(stats.snapshot_seq, history_through_k().len() as u64);
    assert_eq!(recovered.save(), replay(&whole).save());
    assert_eq!(recovered.save(), repo.save());
}

#[test]
fn a_crash_between_capture_and_manifest_loses_nothing_and_leaves_only_capture_time_bytes() {
    let reference_files = written_at_capture();
    let chunk_bytes: u64 = reference_files
        .iter()
        .filter(|(n, _)| parse_chunk_name(n).is_some())
        .map(|(_, b)| b.len() as u64)
        .sum();
    let (storage, mut log, mut repo) = log_at_k();
    let image = capture(&repo);
    for mutation in later_writes() {
        repo.apply(mutation).unwrap();
    }
    // Power fails once both chunks are down, inside the manifest write.
    storage.set_plan(FaultPlan {
        crash_after_bytes: Some(storage.bytes_appended() + chunk_bytes + 8),
        ..FaultPlan::default()
    });
    assert!(!log.snapshot_if_due_with(SPECS, |_| Some(image)), "the snapshot must fail");
    assert!(storage.crashed());
    assert_eq!(log.stats().snapshot_failures, 1);

    let rebooted = storage.reopen();
    let survivors = snapshot_files(&rebooted);
    assert_eq!(survivors.len(), 2, "both chunks, no manifest");
    for file in &survivors {
        assert!(
            reference_files.contains(file),
            "orphan {} differs from its capture-time bytes",
            file.0
        );
    }
    // No manifest names them, so recovery replays the log: the history
    // through `k`, untouched by what the live repository did since.
    let (recovered, stats) = Repository::recover(&rebooted).unwrap();
    assert_eq!(stats.snapshot_seq, 0);
    assert_eq!(recovered.save(), replay(&history_through_k()).save());
}

#[test]
fn an_edit_copies_a_shared_specification_and_never_the_executions() {
    let mut repo = replay(&history_through_k());
    let m = fixtures::handles(&repo.entry(SpecId(0)).unwrap().spec);
    let frozen = repo.entry(SpecId(0)).unwrap().clone();
    assert_eq!(frozen.executions.len(), 2);
    let old_name = frozen.spec.get_module(m.m5).unwrap().name.clone();

    repo.apply(edit(0, "Sanitized")).unwrap();
    repo.apply(execution(0)).unwrap();
    let live = repo.entry(SpecId(0)).unwrap();
    // The image's text is what it was; the live entry's moved on.
    assert_eq!(frozen.spec.get_module(m.m5).unwrap().name, old_name);
    assert_eq!(live.spec.get_module(m.m5).unwrap().name, "Sanitized");
    assert!(!Arc::ptr_eq(&frozen.spec, &live.spec), "the shared specification was copied");
    // Provenance was not: same allocations, and the image never sees the
    // execution appended since.
    assert!(Arc::ptr_eq(&frozen.hierarchy, &live.hierarchy));
    assert_eq!((frozen.executions.len(), live.executions.len()), (2, 3));
    for (before, after) in frozen.executions.iter().zip(&live.executions) {
        assert!(Arc::ptr_eq(before, after), "an edit must never deep-copy an execution");
    }

    // With no image sharing it, the specification is edited where it is.
    drop(frozen);
    let at = Arc::as_ptr(&repo.entry(SpecId(0)).unwrap().spec);
    repo.apply(edit(0, "Sanitized Twice")).unwrap();
    assert_eq!(Arc::as_ptr(&repo.entry(SpecId(0)).unwrap().spec), at);
}
