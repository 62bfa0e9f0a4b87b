//! Durability through the async serving front: a [`ServeFront`] over a
//! durable [`EngineCluster`] serves a mixed read/mutate stream while the
//! storage backend dies mid-stream.
//!
//! The fence serializes mutations FIFO, the write job appends each run
//! *before* applying it, and a ticket completes only after the fsync
//! covering its record, so the contract under crash is sharp:
//!
//! * the acknowledged mutations — tickets resolving
//!   [`QueryAnswer::Mutated`]`(Ok)` — form a **prefix** of the submitted
//!   mutation order (after the first storage failure every later mutation
//!   is refused), and a run whose covering fsync never returned
//!   acknowledges nothing;
//! * recovery rebuilds `n` mutations with `acked ≤ n ≤ appended` — frames
//!   that reached the segment but whose fsync the crash beat may survive,
//!   acknowledged ones always do — bit-identical to a sequential reference
//!   replay of that prefix, and a cluster re-opened over the survivors
//!   answers every query identically to a reference cluster built from
//!   that replay;
//! * every read's epoch is ≤ the final in-memory epoch.
//!
//! One driver ([`serve`]) and one policy ([`policy`]) at `max_batch` 1 and
//! 4; a cluster's log always runs its sync and snapshot jobs on the pool.
//! The crash tests arm a byte budget that snapshot writes also consume, so
//! the driver drains the snapshot job after every group of writes — the
//! budget is then spent in a deterministic order *with* snapshots, pruning
//! and rotations in the trace.

use std::sync::Arc;

use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_query::cluster::{EngineCluster, Mutation};
use ppwf_query::keyword::KeywordHit;
use ppwf_query::route::ShardStrategy;
use ppwf_query::serve::{QueryAnswer, ServeFront, ServeRequest, ServeResponse};
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
use ppwf_repo::repository::Repository;
use ppwf_repo::storage::{FaultPlan, MemStorage, StorageBackend};
use ppwf_repo::wal::DurabilityPolicy;
use ppwf_workloads::genspec::{generate_spec, SpecParams};

const QUERIES: [&str; 4] = ["kw0", "kw0, kw1", "kw2", "kw1, kw3"];
const GROUPS: [&str; 3] = ["public", "analysts", "researchers"];
const SHARDS: usize = 3;

fn registry() -> PrincipalRegistry {
    let mut registry = PrincipalRegistry::new();
    registry.add_group("public", AccessLevel(0), ViewRule::RootOnly);
    registry.add_group("analysts", AccessLevel(2), ViewRule::MaxDepth(1));
    registry.add_group("researchers", AccessLevel(4), ViewRule::Full);
    registry
}

/// Tight cadences so the crash lands among snapshots and rotations, not
/// just raw appends; up to `max_batch` queued mutations share a record.
fn policy(max_batch: usize) -> DurabilityPolicy {
    DurabilityPolicy {
        snapshot_every: 4,
        segment_bytes: 4096,
        ..DurabilityPolicy::pipelined(max_batch, 0)
    }
}

/// A deterministic mutation stream over an evolving global corpus — the
/// full vocabulary from [`ppwf_workloads::genmutation`]: inserts keep
/// the id space growing; execution appends, policy swaps, spec deletes
/// and in-place text edits hit live targets (destructive histories leave
/// tombstones, so targets come from the live slots). Every WAL record
/// kind — including `DeleteSpec` and `EditSpec` frames, alone and inside
/// batch records — therefore lands in the crash tests below at whatever
/// byte boundary the budget picks.
fn mutation_stream(writes: usize, seed: u64) -> Vec<Mutation> {
    ppwf_workloads::genmutation::mutation_stream_n(writes, seed)
}

fn replay_prefix(stream: &[Mutation], n: usize) -> Repository {
    let mut repo = Repository::new();
    for mutation in &stream[..n] {
        repo.apply(mutation.clone()).expect("prefix replays");
    }
    repo
}

fn durable_cluster(
    storage: &Arc<MemStorage>,
    pool: &Arc<WorkerPool>,
    policy: DurabilityPolicy,
) -> (EngineCluster, ppwf_repo::wal::RecoveryStats) {
    EngineCluster::open_durable(
        Arc::clone(storage) as Arc<dyn StorageBackend>,
        policy,
        registry(),
        SHARDS,
        ShardStrategy::RoundRobin,
        Arc::clone(pool),
    )
    .expect("open durable cluster")
}

/// Bring the front to rest: every request completed, every frame's
/// covering fsync reported, no snapshot job still writing.
fn drain(front: &ServeFront) {
    front.quiesce();
    front.with_cluster(|c| c.wait_for_pipeline());
    while front.with_cluster(|c| c.background_snapshot_in_flight()) {
        std::thread::yield_now();
    }
}

/// Serve `stream` through `front`, `group` writes at a time — chased by
/// as many reads across groups, so the fence has readers to drain — and
/// [`drain`] between groups. Writes of one group queue together (and
/// batch, when the policy lets them); at most one group's frames and one
/// snapshot job are ever in flight. Returns the responses to the writes
/// and to the reads, each in submission order.
fn serve(
    front: &ServeFront,
    stream: &[Mutation],
    group: usize,
) -> (Vec<ServeResponse>, Vec<ServeResponse>) {
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    for (g, chunk) in stream.chunks(group).enumerate() {
        // The group's writes first — the fence never batches past a queued
        // read — then as many reads behind them.
        let write_tickets: Vec<_> =
            chunk.iter().map(|m| front.submit(ServeRequest::mutate(m.clone()))).collect();
        let read_tickets: Vec<_> = (g * group..g * group + chunk.len())
            .map(|i| {
                front.submit(ServeRequest::Keyword {
                    group: GROUPS[i % GROUPS.len()].into(),
                    query: QUERIES[i % QUERIES.len()].into(),
                })
            })
            .collect();
        writes.extend(write_tickets.into_iter().map(|t| t.wait()));
        reads.extend(read_tickets.into_iter().map(|t| t.wait()));
        drain(front);
    }
    (writes, reads)
}

fn hits_identical(a: &[KeywordHit], b: &[KeywordHit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.spec == y.spec && x.prefix == y.prefix && x.matched == y.matched)
}

/// Serve `stream` fault-free at `max_batch` (writes submitted `max_batch`
/// at a time) and check it against the sequential reference: every write
/// acknowledged, the log's counters consistent, recovery over the pruned
/// log bit-identical. Returns the durability counters and the bytes the
/// run made durable.
fn serve_fault_free(
    stream: &[Mutation],
    max_batch: usize,
) -> (ppwf_repo::wal::DurabilityStats, ppwf_repo::wal::RecoveryStats, u64) {
    let storage = Arc::new(MemStorage::new());
    let pool = Arc::new(WorkerPool::new(3));
    let (cluster, _) = durable_cluster(&storage, &pool, policy(max_batch));
    let front = ServeFront::with_pool(cluster, Arc::clone(&pool));
    let (writes, _) = serve(&front, stream, max_batch);
    for response in &writes {
        assert!(
            matches!(response.answer, QueryAnswer::Mutated(Ok(_))),
            "a fault-free write must acknowledge durable"
        );
    }
    let wal = front.durability_stats().expect("durable cluster reports stats");
    assert_eq!(wal.appends, stream.len() as u64);
    assert!(wal.records <= wal.appends, "batching can only shrink the record count");
    let (recovered, stats) = Repository::recover(storage.as_ref()).expect("recovery");
    assert_eq!(stats.last_seq, stream.len() as u64);
    assert_eq!(
        recovered.save(),
        replay_prefix(stream, stream.len()).save(),
        "a snapshotted, pruned log must recover bit-identically"
    );
    (wal, stats, storage.bytes_appended())
}

/// The crash contract (module docs) at `max_batch`, with the byte budget
/// set to half of what the fault-free run of the same stream made durable.
fn crash_mid_stream(max_batch: usize) {
    let stream = mutation_stream(32, 0xD007);
    let budget = serve_fault_free(&stream, max_batch).2 / 2;

    let storage = Arc::new(MemStorage::with_faults(FaultPlan {
        crash_after_bytes: Some(budget),
        ..FaultPlan::default()
    }));
    let pool = Arc::new(WorkerPool::new(3));
    let (cluster, recovery) = durable_cluster(&storage, &pool, policy(max_batch));
    assert_eq!(recovery.last_seq, 0, "fresh storage recovers empty");
    let front = ServeFront::with_pool(cluster, Arc::clone(&pool));
    let (writes, reads) = serve(&front, &stream, max_batch);
    assert!(storage.crashed(), "the crash budget must fire mid-stream");

    // Acknowledgements form a FIFO prefix of the submitted order.
    let mut acked = 0usize;
    let mut prefix_closed = false;
    let mut last_ack_epoch = 0u64;
    for (i, response) in writes.iter().enumerate() {
        let QueryAnswer::Mutated(result) = &response.answer else {
            panic!("mutation ticket resolved a non-mutation answer")
        };
        match result {
            Ok(_) => {
                assert!(
                    !prefix_closed,
                    "mutation {i} acknowledged after an earlier one was refused — not a prefix \
                     (a partially-acked batch?)"
                );
                assert!(
                    response.epoch >= last_ack_epoch,
                    "acknowledged epochs must be monotone in FIFO order"
                );
                last_ack_epoch = response.epoch;
                acked += 1;
            }
            Err(_) => prefix_closed = true,
        }
    }
    assert!(acked > 0, "budget of half the stream must acknowledge something");
    assert!(acked < stream.len(), "budget of half the stream must refuse something");

    // No response was computed past the final in-memory state.
    let final_epoch = front.with_cluster(|c| c.version_vector().iter().sum::<u64>());
    assert!(final_epoch >= last_ack_epoch);
    for response in &reads {
        assert!(matches!(response.answer, QueryAnswer::Keyword(Some(_))));
        assert!(response.epoch <= final_epoch, "a read was served past the final epoch");
    }
    let wal = front.durability_stats().expect("durable cluster reports stats");
    assert!(wal.appends >= acked as u64, "nothing is acknowledged without being appended");

    // Reboot. Every acknowledged write survives, nothing beyond what was
    // appended appears, and the raw recovered image is bit-identical to a
    // sequential reference replay of the recovered prefix.
    let reopened = Arc::new(storage.reopen());
    let (recovered_repo, stats) =
        Repository::recover(reopened.as_ref()).expect("recovery after crash");
    let n = stats.last_seq as usize;
    assert!(
        acked <= n && n as u64 <= wal.appends,
        "recovered {n} mutations outside acked {acked} ..= appended {}",
        wal.appends
    );
    let reference = replay_prefix(&stream, n);
    assert_eq!(
        recovered_repo.save(),
        reference.save(),
        "recovered image diverges from its sequential prefix"
    );

    // A cluster re-opened over the survivors answers every query exactly
    // like a reference cluster built from the replayed prefix.
    let pool = Arc::new(WorkerPool::new(2));
    let (recovered_cluster, recovery) = durable_cluster(&reopened, &pool, policy(max_batch));
    assert_eq!(recovery.last_seq, n as u64);
    let reference_cluster = EngineCluster::new(reference, registry(), SHARDS);
    for group in GROUPS {
        for query in QUERIES {
            let served = recovered_cluster.search_as(group, query).expect("known group");
            let expected = reference_cluster.search_as(group, query).expect("known group");
            assert!(
                hits_identical(&served, &expected),
                "recovered cluster diverges for group {group} query {query:?}"
            );
        }
    }
}

/// One write in flight at a time, one record per mutation.
#[test]
fn acked_mutations_survive_a_mid_stream_crash() {
    crash_mid_stream(1);
}

/// The crash contract survives batching: four writes queue together, a
/// batch whose covering fsync never returned acknowledges NOTHING (no
/// partially-acked batch), acknowledgements still form a FIFO prefix of
/// submission order, and recovery rebuilds whole records only.
#[test]
fn group_commit_crash_acks_a_whole_batch_prefix() {
    crash_mid_stream(4);
}

/// Fault-free batched serving: the cadence runs every snapshot as a job on
/// the worker pool, the write path keeps acknowledging, and recovery over
/// the pruned log is still bit-identical to the sequential reference.
#[test]
fn background_snapshots_prune_off_thread_and_recover() {
    let (wal, stats, _) = serve_fault_free(&mutation_stream(24, 0xFEED), 4);
    assert!(wal.background_snapshots >= 2, "cadence 4 over 24 writes: {wal:?}");
    assert_eq!(wal.snapshots, wal.background_snapshots, "no checkpoint may sneak in");
    assert!(wal.segments_pruned >= 1, "snapshot jobs prune covered segments");
    assert!(wal.records < wal.appends, "queued writes must have shared records: {wal:?}");
    assert!(stats.snapshot_seq > 0, "recovery must start from a chunked snapshot");
}

/// The sync queue's bookkeeping — depth high-water, overlapped fsyncs —
/// and the COW snapshot chunk counters surface through the front, and
/// clean chunks are reused by reference.
#[test]
fn pipelined_serve_surfaces_pipeline_and_chunk_stats() {
    // Insert-only stream: ids grow monotonically, so chunk 0 (specs
    // 0..16) fills, goes quiet, and later snapshots must reuse it.
    let stream: Vec<Mutation> = (0..24u64)
        .map(|i| Mutation::InsertSpec {
            spec: generate_spec(&SpecParams { seed: 0xAB ^ (i << 8), ..SpecParams::default() }),
            policy: Policy::public(),
        })
        .collect();
    // `serve` drains each snapshot job before the next cadence point, so
    // every fourth mutation deterministically runs a chunked snapshot
    // (none skipped for an in-flight peer).
    let (wal, _, _) = serve_fault_free(&stream, 4);
    assert!(wal.syncs >= 1, "covering fsyncs must have run");
    assert!(
        wal.pipeline_depth_high_water >= 1,
        "every frame passes through the sync queue, got {:?}",
        wal.pipeline_depth_high_water
    );
    assert!(
        wal.overlapped_fsyncs <= wal.records,
        "an overlap is counted at most once per appended frame"
    );
    assert!(wal.snapshots >= 2, "cadence 4 over 24 writes must snapshot repeatedly");
    assert!(wal.snapshot_chunks_written >= 1, "dirty chunks must be serialized");
    assert!(wal.snapshot_bytes_written > 0);
    assert!(
        wal.snapshot_chunks_reused >= 1,
        "full, untouched chunk 0 must be reused by reference: {wal:?}"
    );
}

/// Every write queued at once (no drain between them, so cadences may be
/// skipped for a busy snapshot job), one record per mutation.
#[test]
fn fault_free_serve_stream_recovers_in_full() {
    let stream = mutation_stream(12, 0xBEEF);
    let (wal, _, _) = serve_fault_free(&stream, 1);
    assert_eq!(wal.records, wal.appends, "max_batch 1 never batches");

    let storage = Arc::new(MemStorage::new());
    let pool = Arc::new(WorkerPool::new(2));
    let (cluster, _) = durable_cluster(&storage, &pool, policy(1));
    let front = ServeFront::with_pool(cluster, Arc::clone(&pool));
    let tickets: Vec<_> =
        stream.iter().map(|m| front.submit(ServeRequest::mutate(m.clone()))).collect();
    for ticket in tickets {
        assert!(matches!(ticket.wait().answer, QueryAnswer::Mutated(Ok(_))));
    }
    drain(&front);
    let (recovered, stats) = Repository::recover(storage.as_ref()).expect("recovery");
    assert_eq!(stats.last_seq, stream.len() as u64);
    assert_eq!(recovered.save(), replay_prefix(&stream, stream.len()).save());
}
