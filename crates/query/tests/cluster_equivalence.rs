//! Correctness of sharded serving: the cluster must be *invisible* in
//! answers.
//!
//! Property 1 (bit-identical answers): for random repositories, every
//! shard count, every privilege group and every query, [`EngineCluster`]
//! returns exactly the single-engine answer — same specs, same prefixes,
//! same matched modules, same flattened view graphs — for keyword, private
//! (both plans, including cost counters), and ranked search (orders,
//! bitwise scores, profiles).
//!
//! Property 2 (no cross-group or cross-shard leakage): interleaved
//! multi-group traffic through one cluster never changes any group's
//! answers relative to an isolated, cacheless single-engine evaluation —
//! so neither shard caches nor the gather stage can leak fine-grained
//! answers into coarse-grained sessions.
//!
//! Property 3 (mutation staleness): mutations applied through
//! [`EngineCluster::mutate`] — spec inserts, execution appends, policy
//! swaps — invalidate exactly as in a single engine: post-mutation answers
//! equal a fresh evaluation of the mutated corpus.

use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_query::cluster::{EngineCluster, Mutation};
use ppwf_query::engine::{Plan, QueryEngine};
use ppwf_query::keyword::KeywordHit;
use ppwf_query::ranking::RankingMode;
use ppwf_query::route::ShardStrategy;
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
use ppwf_repo::repository::Repository;
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use proptest::prelude::*;
use std::sync::Arc;

/// The last two match nothing on any shard: alone, and beside a term that
/// does match.
const QUERIES: [&str; 8] =
    ["kw0", "kw0, kw1", "kw2", "kw1, kw3", "kw5", "kw0, kw2", "zzz-none", "kw0, zzz-none"];
/// `nobody` is registered nowhere: every entry point must refuse it.
const GROUPS: [&str; 4] = ["public", "analysts", "researchers", "nobody"];

fn registry() -> PrincipalRegistry {
    let mut registry = PrincipalRegistry::new();
    registry.add_group("public", AccessLevel(0), ViewRule::RootOnly);
    registry.add_group("analysts", AccessLevel(2), ViewRule::MaxDepth(1));
    registry.add_group("researchers", AccessLevel(4), ViewRule::Full);
    registry
}

fn random_repo(seed: u64, specs: usize) -> Repository {
    let mut repo = Repository::new();
    for i in 0..specs as u64 {
        let spec =
            generate_spec(&SpecParams { seed: seed.wrapping_add(i), ..SpecParams::default() });
        repo.insert_spec(spec, Policy::public()).unwrap();
    }
    repo
}

fn hits_identical(a: &[KeywordHit], b: &[KeywordHit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.spec == y.spec
                && x.prefix == y.prefix
                && x.matched == y.matched
                && views_identical(&x.view, &y.view)
        })
}

fn views_identical(a: &ppwf_model::expand::SpecView, b: &ppwf_model::expand::SpecView) -> bool {
    let (ga, gb) = (a.graph(), b.graph());
    ga.node_count() == gb.node_count()
        && ga.edge_count() == gb.edge_count()
        && ga.nodes().zip(gb.nodes()).all(|((i, n), (j, m))| i == j && n == m)
        && ga.edges().zip(gb.edges()).all(|((i, e), (j, f))| {
            i == j && e.from == f.from && e.to == f.to && e.payload == f.payload
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Keyword answers are bit-identical to the single engine, cold and
    /// warm, for every group and shard count.
    #[test]
    fn keyword_answers_bit_identical(
        seed in any::<u64>(),
        specs in 2usize..7,
        shards in 1usize..5,
    ) {
        let cluster = EngineCluster::with_config(
            random_repo(seed, specs),
            registry(),
            shards,
            ShardStrategy::RoundRobin,
            Arc::clone(WorkerPool::global()),
        );
        let single = QueryEngine::new(random_repo(seed, specs), registry());
        for group in GROUPS {
            for q in QUERIES {
                let answers =
                    (single.search_as(group, q), cluster.search_as(group, q), cluster.search_as(group, q));
                let (Some(reference), Some(cold), Some(warm)) = &answers else {
                    prop_assert!(
                        matches!(answers, (None, None, None)),
                        "refusal diverged for group {}, query {:?}", group, q
                    );
                    continue;
                };
                prop_assert!(
                    hits_identical(reference, cold),
                    "cold cluster ≠ single for {} shards, group {}, query {:?}", shards, group, q
                );
                prop_assert!(
                    hits_identical(reference, warm),
                    "warm cluster ≠ single for {} shards, group {}, query {:?}", shards, group, q
                );
            }
        }
    }

    /// Private search agrees under both evaluation plans — answers *and*
    /// cost counters (views built, zoom steps, discards are per-spec work,
    /// so shard sums must reproduce the single-engine figures exactly).
    #[test]
    fn private_search_bit_identical(
        seed in any::<u64>(),
        specs in 2usize..6,
        shards in 1usize..5,
    ) {
        let cluster = EngineCluster::with_config(
            random_repo(seed, specs),
            registry(),
            shards,
            ShardStrategy::RoundRobin,
            Arc::clone(WorkerPool::global()),
        );
        let single = QueryEngine::new(random_repo(seed, specs), registry());
        for group in GROUPS {
            for q in QUERIES {
                for plan in [Plan::FilterThenSearch, Plan::SearchThenZoomOut] {
                    let answers = (
                        single.private_search_as(group, q, plan),
                        cluster.private_search_as(group, q, plan),
                    );
                    let (Some(reference), Some(clustered)) = &answers else {
                        prop_assert!(
                            matches!(answers, (None, None)),
                            "{plan:?} refusal diverged for group {}, query {:?}", group, q
                        );
                        continue;
                    };
                    prop_assert!(
                        hits_identical(&reference.hits, &clustered.hits),
                        "{plan:?} hits diverged for group {}, query {:?}", group, q
                    );
                    prop_assert_eq!(reference.views_built, clustered.views_built);
                    prop_assert_eq!(reference.zoom_steps, clustered.zoom_steps);
                    prop_assert_eq!(reference.discarded, clustered.discarded);
                }
            }
        }
    }

    /// Ranked answers are bit-identical: hit lists, orders, f64 scores and
    /// TF profiles. This is the property that forces corpus-global IDF in
    /// the gather stage — shard-local statistics would fail it.
    #[test]
    fn ranked_answers_bit_identical(
        seed in any::<u64>(),
        specs in 2usize..6,
        shards in 2usize..5,
    ) {
        let cluster = EngineCluster::with_config(
            random_repo(seed, specs),
            registry(),
            shards,
            ShardStrategy::RoundRobin,
            Arc::clone(WorkerPool::global()),
        );
        let single = QueryEngine::new(random_repo(seed, specs), registry());
        let modes = [
            RankingMode::ExactFull,
            RankingMode::VisibleOnly,
            RankingMode::BucketizedFull { base: 2.0 },
            RankingMode::NoisyFull { epsilon: 1.0, seed: 7 },
        ];
        for group in GROUPS {
            for q in QUERIES {
                for mode in modes {
                    let answers = (
                        single.ranked_search_as(group, q, mode),
                        cluster.ranked_search_as(group, q, mode),
                    );
                    let (Some((rhits, rranked)), Some(clustered)) = &answers else {
                        prop_assert!(
                            matches!(answers, (None, None)),
                            "{mode:?} refusal diverged for group {}, query {:?}", group, q
                        );
                        continue;
                    };
                    prop_assert!(hits_identical(rhits, &clustered.hits));
                    prop_assert_eq!(&rranked.order, &clustered.ranked.order,
                        "order diverged for group {}, query {:?}, mode {:?}", group, q, mode);
                    prop_assert_eq!(&rranked.scores, &clustered.ranked.scores,
                        "scores diverged (IDF not corpus-global?) for {:?}", mode);
                    for (a, b) in rranked.profiles.iter().zip(&clustered.ranked.profiles) {
                        prop_assert_eq!(&a.visible, &b.visible);
                        prop_assert_eq!(&a.hidden, &b.hidden);
                    }
                }
            }
        }
    }

    /// Interleaved multi-group traffic through one cluster leaks nothing:
    /// each group's answers equal an isolated cacheless evaluation.
    #[test]
    fn interleaving_leaks_nothing(
        seed in any::<u64>(),
        specs in 2usize..5,
        shards in 2usize..4,
    ) {
        use ppwf_query::keyword::{search_filtered, KeywordQuery};
        use ppwf_repo::keyword_index::KeywordIndex;
        let repo = random_repo(seed, specs);
        let reference_index = KeywordIndex::build(&repo);
        let reference_registry = registry();
        let cluster = EngineCluster::new(random_repo(seed, specs), registry(), shards);

        for (qi, q) in QUERIES.iter().enumerate() {
            for offset in 0..GROUPS.len() {
                let group = GROUPS[(qi + offset) % GROUPS.len()];
                let answers = (cluster.search_as(group, q), cluster.search_as(group, q));
                let Some(access) = reference_registry.access_map(&repo, group) else {
                    prop_assert!(matches!(answers, (None, None)), "{} was answered", group);
                    continue;
                };
                let (Some(served), Some(again)) = answers else {
                    return Err(TestCaseError::Fail(format!("known group {group} was refused")));
                };
                let isolated =
                    search_filtered(&repo, &reference_index, &KeywordQuery::parse(q), &access);
                prop_assert!(
                    hits_identical(&isolated, &served),
                    "cluster answer diverged for group {} query {:?}", group, q
                );
                prop_assert!(
                    hits_identical(&isolated, &again),
                    "second (shard-cached) answer diverged for group {} query {:?}", group, q
                );
            }
        }
    }

    /// Mutations applied through `EngineCluster::mutate` invalidate like a
    /// single engine: post-mutation answers equal a fresh evaluation of the
    /// mutated corpus, for inserts, execution appends and policy swaps.
    #[test]
    fn mutation_staleness_matches_single_engine(
        seed in any::<u64>(),
        shards in 2usize..5,
    ) {
        let specs = 3usize;
        let mut cluster = EngineCluster::new(random_repo(seed, specs), registry(), shards);
        let mut single = QueryEngine::new(random_repo(seed, specs), registry());
        for g in GROUPS {
            let warmed = cluster.search_as(g, "kw0, kw1").is_some();
            prop_assert_eq!(warmed, single.search_as(g, "kw0, kw1").is_some());
        }

        // Insert.
        let fresh_spec = generate_spec(&SpecParams { seed: seed ^ 0xABCD, ..SpecParams::default() });
        let id = cluster
            .mutate(Mutation::InsertSpec { spec: fresh_spec.clone(), policy: Policy::public() })
            .unwrap()
            .inserted_id()
            .expect("insert returns id");
        prop_assert_eq!(id.index(), specs, "ids stay dense");
        single
            .mutate(Mutation::InsertSpec { spec: fresh_spec, policy: Policy::public() })
            .unwrap();

        // Append an execution to an existing spec.
        let exec = {
            let entry = cluster.repo().entry(ppwf_repo::repository::SpecId(1)).unwrap();
            ppwf_model::exec::Executor::new(&entry.spec)
                .run(&mut ppwf_model::exec::HashOracle)
                .unwrap()
        };
        cluster
            .mutate(Mutation::AddExecution {
                spec: ppwf_repo::repository::SpecId(1),
                exec: exec.clone(),
            })
            .unwrap();
        single
            .mutate(Mutation::AddExecution { spec: ppwf_repo::repository::SpecId(1), exec })
            .unwrap();

        // Swap a policy.
        cluster
            .mutate(Mutation::SetPolicy {
                spec: ppwf_repo::repository::SpecId(0),
                policy: Policy::public(),
            })
            .unwrap();
        single
            .mutate(Mutation::SetPolicy {
                spec: ppwf_repo::repository::SpecId(0),
                policy: Policy::public(),
            })
            .unwrap();

        for g in GROUPS {
            for q in QUERIES {
                let answers = (single.search_as(g, q), cluster.search_as(g, q));
                let (Some(reference), Some(served)) = &answers else {
                    prop_assert!(matches!(answers, (None, None)), "refusal diverged for group {}", g);
                    continue;
                };
                prop_assert!(
                    hits_identical(reference, served),
                    "stale answer served for group {} query {:?} after mutation", g, q
                );
            }
        }
    }
}
