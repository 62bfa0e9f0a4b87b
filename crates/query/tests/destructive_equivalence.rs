//! End-to-end equivalence for the **destructive** mutation vocabulary:
//! randomized streams mixing `InsertSpec` / `AddExecution` / `SetPolicy`
//! / `DeleteSpec` / `EditSpec` must be *invisible* in answers no matter
//! which serving stack applies them.
//!
//! One property, four stacks, one reference. The sequential single-engine
//! replay defines ground truth; the same stream then runs through
//!
//! 1. an in-memory [`EngineCluster`] (one repository, the write absorbed
//!    by the shard its spec is placed on),
//! 2. a fenced [`ServeFront`] over a *durable* cluster with group-commit
//!    batching (so `DeleteSpec` / `EditSpec` records land inside WAL
//!    batch frames and the destructive-overlay flush logic is on the hot
//!    path), and
//! 3. a cluster **recovered** from that front's storage (snapshot + WAL
//!    suffix replay over a corpus with tombstones).
//!
//! Every stack must reproduce the reference bit-identically: keyword
//! hits, private-search answers *and* cost counters (`views_built`,
//! `zoom_steps`, `discarded`), ranked orders and f64 score bits, and the
//! df/idf statistics of a fresh index over the recovered corpus. Mutation
//! effects (with their ids) must agree everywhere too.

use ppwf_core::policy::AccessLevel;
use ppwf_query::cluster::{EngineCluster, MutationEffect};
use ppwf_query::engine::{Plan, QueryEngine};
use ppwf_query::keyword::KeywordHit;
use ppwf_query::ranking::RankingMode;
use ppwf_query::route::ShardStrategy;
use ppwf_query::serve::{QueryAnswer, ServeFront, ServeRequest};
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
use ppwf_repo::repository::Repository;
use ppwf_repo::storage::{MemStorage, StorageBackend};
use ppwf_repo::wal::DurabilityPolicy;
use ppwf_workloads::genmutation::mutation_stream;
use proptest::prelude::*;
use std::sync::Arc;

/// Queries over the generator vocabulary: `genspec` keywords plus the
/// terms `EditSpec` splices in, so edits and deletes move these answers.
const QUERIES: [&str; 6] = ["kw0", "kw1, kw2", "kw3", "edited", "kw0, edited", "kw5"];
const GROUPS: [&str; 3] = ["public", "analysts", "researchers"];
const SHARDS: usize = 3;

fn registry() -> PrincipalRegistry {
    let mut registry = PrincipalRegistry::new();
    registry.add_group("public", AccessLevel(0), ViewRule::RootOnly);
    registry.add_group("analysts", AccessLevel(2), ViewRule::MaxDepth(1));
    registry.add_group("researchers", AccessLevel(4), ViewRule::Full);
    registry
}

/// Tight cadences: group-commit batches carry the destructive records and
/// snapshots fire mid-stream, so recovery replays a COW image that
/// already holds tombstones plus a WAL suffix that adds more.
fn durability_policy() -> DurabilityPolicy {
    DurabilityPolicy { snapshot_every: 4, segment_bytes: 4096, ..DurabilityPolicy::pipelined(4, 0) }
}

fn hits_identical(a: &[KeywordHit], b: &[KeywordHit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.spec == y.spec && x.prefix == y.prefix && x.matched == y.matched)
}

/// Every read surface of `probe`, compared bit-identically against the
/// sequential single-engine `reference`.
fn assert_reads_match(
    reference: &QueryEngine,
    probe: &EngineCluster,
    stack: &str,
) -> std::result::Result<(), TestCaseError> {
    for group in GROUPS {
        for q in QUERIES {
            let want = reference.search_as(group, q).unwrap();
            let got = probe.search_as(group, q).unwrap();
            prop_assert!(hits_identical(&want, &got), "{stack}: keyword {group}/{q:?}");
            for plan in [Plan::FilterThenSearch, Plan::SearchThenZoomOut] {
                let want = reference.private_search_as(group, q, plan).unwrap();
                let got = probe.private_search_as(group, q, plan).unwrap();
                prop_assert!(
                    hits_identical(&want.hits, &got.hits),
                    "{stack}: private hits {group}/{q:?}/{plan:?}"
                );
                prop_assert_eq!(want.views_built, got.views_built, "{} views_built", stack);
                prop_assert_eq!(want.zoom_steps, got.zoom_steps, "{} zoom_steps", stack);
                prop_assert_eq!(want.discarded, got.discarded, "{} discarded", stack);
            }
            for mode in [RankingMode::ExactFull, RankingMode::NoisyFull { epsilon: 1.0, seed: 7 }] {
                let (want_hits, want_ranked) = reference.ranked_search_as(group, q, mode).unwrap();
                let got = probe.ranked_search_as(group, q, mode).unwrap();
                prop_assert!(
                    hits_identical(&want_hits, &got.hits),
                    "{stack}: ranked hits {group}/{q:?}/{mode:?}"
                );
                prop_assert_eq!(&want_ranked.order, &got.ranked.order, "{} order", stack);
                prop_assert_eq!(
                    &want_ranked.scores,
                    &got.ranked.scores,
                    "{} f64 score bits (IDF corpus-global over tombstones?)",
                    stack
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property for destructive writes: one randomized
    /// stream, four stacks, bit-identical everything.
    #[test]
    fn destructive_streams_are_invisible_across_every_serving_stack(
        writes in proptest::collection::vec((0u8..5, any::<u64>()), 8..24),
    ) {
        let stream = mutation_stream(&writes);
        let strategy = ShardStrategy::RoundRobin;

        // Ground truth: sequential single-engine replay.
        let mut single = QueryEngine::new(Repository::new(), registry());
        let reference_effects: Vec<MutationEffect> =
            stream.iter().map(|m| single.mutate(m.clone()).unwrap()).collect();

        // Stack 1: in-memory cluster.
        let mut cluster = EngineCluster::with_config(
            Repository::new(),
            registry(),
            SHARDS,
            strategy,
            Arc::clone(WorkerPool::global()),
        );
        for (m, want) in stream.iter().zip(&reference_effects) {
            let got = cluster.mutate(m.clone()).unwrap();
            prop_assert_eq!(&got, want, "cluster effect must carry the reference id");
        }
        assert_reads_match(&single, &cluster, "cluster")?;

        // Stack 2: fenced ServeFront over a durable, group-committed
        // cluster — destructive records ride WAL batch frames.
        let storage = Arc::new(MemStorage::new());
        let pool = Arc::new(WorkerPool::new(3));
        let (durable, _) = EngineCluster::open_durable(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            durability_policy(),
            registry(),
            SHARDS,
            strategy,
            Arc::clone(&pool),
        )
        .expect("open durable cluster");
        let front = ServeFront::with_pool(durable, Arc::clone(&pool));
        let tickets: Vec<_> =
            stream.iter().map(|m| front.submit(ServeRequest::mutate(m.clone()))).collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait();
            let QueryAnswer::Mutated(result) = &response.answer else {
                panic!("mutation ticket resolved a non-mutation answer")
            };
            let effect = result.as_ref().expect("generated stream applies through the fence");
            prop_assert_eq!(effect, &reference_effects[i], "front effect diverged at {}", i);
        }
        // Fenced reads answer identically to the reference.
        for group in GROUPS {
            for q in QUERIES {
                let keyword = front.submit(ServeRequest::Keyword {
                    group: group.into(),
                    query: q.into(),
                });
                let private = front.submit(ServeRequest::Private {
                    group: group.into(),
                    query: q.into(),
                    plan: Plan::SearchThenZoomOut,
                });
                let QueryAnswer::Keyword(Some(hits)) = keyword.wait().answer else {
                    panic!("keyword request must answer for a known group")
                };
                prop_assert!(
                    hits_identical(&single.search_as(group, q).unwrap(), &hits),
                    "front keyword {group}/{q:?}"
                );
                let QueryAnswer::Private(Some(outcome)) = private.wait().answer else {
                    panic!("private request must answer for a known group")
                };
                let want = single.private_search_as(group, q, Plan::SearchThenZoomOut).unwrap();
                prop_assert!(hits_identical(&want.hits, &outcome.hits), "front private hits");
                prop_assert_eq!(
                    (want.views_built, want.zoom_steps, want.discarded),
                    (outcome.views_built, outcome.zoom_steps, outcome.discarded),
                    "front private cost counters"
                );
            }
        }
        // At rest before recovery reads the storage: every ticket completed
        // and no snapshot job still writing or pruning under it.
        front.quiesce();
        while front.with_cluster(|c| c.background_snapshot_in_flight()) {
            std::thread::yield_now();
        }
        drop(front);

        // Stack 3: recover from the front's storage — snapshot with
        // tombstoned chunks plus a WAL suffix of destructive records.
        let (recovered, _) = EngineCluster::open_durable(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            durability_policy(),
            registry(),
            SHARDS,
            strategy,
            Arc::clone(&pool),
        )
        .expect("recover durable cluster");
        assert_reads_match(&single, &recovered, "recovered")?;

        // The recovered corpus preserves the id space and its df/idf
        // statistics: a fresh index over it answers the memo
        // bit-identically to the incrementally maintained reference.
        let assembled = recovered.repo();
        prop_assert_eq!(assembled.len(), single.repo().len(), "id space (tombstones included)");
        prop_assert_eq!(assembled.live_count(), single.repo().live_count());
        let fresh = KeywordIndex::build(assembled);
        prop_assert_eq!(fresh.doc_count(), single.index().doc_count());
        for term in ["kw0", "kw1", "kw2", "kw3", "kw4", "kw5", "kw6", "kw7", "edited"] {
            prop_assert_eq!(fresh.df(term), single.index().df(term), "df({})", term);
            prop_assert_eq!(
                fresh.idf_cached(term).to_bits(),
                single.index().idf_cached(term).to_bits(),
                "idf bits ({})",
                term
            );
        }
    }
}
