//! `drain_durable` must leave nothing writing under the storage root.
//!
//! The benchmark recovers from the front's storage root right after a
//! run. With `quiesce` and `wait_for_pipeline` alone, that recovery raced
//! the background snapshot job's pruning and failed with `Snapshot {
//! detail: "manifest chunk … is missing" }`. A snapshot cadence of 16
//! keeps a snapshot job in flight almost continuously, so a drain that
//! returned early would be caught here.

use ppwf_bench::{e11_corpus, e11_repo, standard_registry};
use ppwf_perfbench::stream::{drain_durable, sequential_replay, steady_write_stream};
use ppwf_query::serve::QueryAnswer;
use ppwf_query::{EngineCluster, ServeFront, ServeRequest, ShardStrategy};
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::repository::Repository;
use ppwf_repo::storage::{FsStorage, StorageBackend};
use ppwf_repo::wal::{DurabilityPolicy, DurableLog};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

#[test]
fn recovery_after_drain_never_races_a_snapshot_job() {
    let corpus = e11_corpus(48, 9);
    let stream = steady_write_stream(&corpus, 320, 9);
    let policy = DurabilityPolicy { snapshot_every: 16, ..DurabilityPolicy::pipelined(16, 0) };
    for round in 0..3 {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("drain-{round}"));
        let _ = std::fs::remove_dir_all(&root);
        let backend: Arc<dyn StorageBackend> = Arc::new(FsStorage::open(&root).unwrap());
        let pool = Arc::new(WorkerPool::new(2));
        let mut cluster = EngineCluster::with_config(
            e11_repo(&corpus),
            standard_registry(),
            2,
            ShardStrategy::RoundRobin,
            Arc::clone(&pool),
        );
        cluster
            .attach_durability(DurableLog::open(Arc::clone(&backend), policy).unwrap().log)
            .unwrap();
        let front = ServeFront::with_pool(cluster, pool);

        let mut in_flight = VecDeque::new();
        for mutation in &stream {
            if in_flight.len() == 16 {
                let ticket: ppwf_repo::ticket::Ticket<_> = in_flight.pop_front().unwrap();
                ticket.wait();
            }
            in_flight.push_back(front.submit(ServeRequest::mutate(mutation.clone())));
        }
        for ticket in in_flight {
            let response = ticket.wait();
            assert!(matches!(response.answer, QueryAnswer::Mutated(Ok(_))));
        }

        drain_durable(&front);
        assert!(!front.with_cluster(|c| c.background_snapshot_in_flight()));
        let stats = front.durability_stats().expect("durable front");
        assert!(stats.background_snapshots > 0, "the cadence must have fired: {stats:?}");
        let (recovered, recovery) =
            Repository::recover(backend.as_ref()).expect("recovery after drain_durable");
        assert_eq!(recovery.last_seq, stream.len() as u64);
        let reference = sequential_replay(&corpus, &stream, stream.len());
        assert!(recovered.save()[..] == reference.save()[..], "round {round}: images differ");
        drop(front);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
