//! Correctness of lazy access resolution: the memoized
//! [`AccessResolver`] must be *invisible* in answers and *visible* only in
//! how little it resolves.
//!
//! Property 1 (bit-identical answers): for random repositories and a
//! registry with per-spec overrides, the lazy resolver produces exactly
//! the eager `access_map` answers — keyword, private (both plans,
//! including cost counters), and ranked search (orders and bitwise `f64`
//! scores) — through the raw search functions, the single engine, and the
//! cluster across shard counts.
//!
//! Property 2 (no cross-group leakage): many groups resolving through one
//! shared [`AccessCache`] never observe another group's prefixes; each
//! group's lazily resolved views equal its isolated eager map.
//!
//! Property 3 (filter-then-search privacy): the filter plan's resolver
//! never resolves a spec outside the query's candidate postings union —
//! laziness must not weaken filter-first, and inadmissible specs outside
//! the union must stay out of *all* timing-observable work, including
//! rule resolution itself.
//!
//! Property 4 (staleness): after repository mutations and registry swaps,
//! lazy answers still equal a fresh eager evaluation.

use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_query::engine::{Plan, QueryEngine};
use ppwf_query::keyword::{search_filtered, KeywordHit, KeywordQuery};
use ppwf_query::privacy_exec::{filter_then_search, search_then_zoom_out};
use ppwf_query::ranking::{
    idfs_for_terms, profiles_for_hits, rank_by_scores, score_with_idfs, RankingMode,
};
use ppwf_query::EngineCluster;
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::principals::{AccessCache, PrincipalRegistry, ViewRule};
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use proptest::prelude::*;
use std::collections::HashSet;

const QUERIES: [&str; 6] = ["kw0", "kw0, kw1", "kw2", "kw1, kw3", "kw5", "kw0, kw2"];
const GROUPS: [&str; 3] = ["public", "analysts", "researchers"];

/// A registry with per-spec overrides, so lazy resolution must honor more
/// than the default rule.
fn registry(specs: usize) -> PrincipalRegistry {
    let mut registry = PrincipalRegistry::new();
    registry.add_group("public", AccessLevel(0), ViewRule::RootOnly);
    let analysts = registry.add_group("analysts", AccessLevel(2), ViewRule::MaxDepth(1));
    let researchers = registry.add_group("researchers", AccessLevel(4), ViewRule::Full);
    registry.set_override(analysts, SpecId(0), ViewRule::Full);
    if specs > 1 {
        registry.set_override(researchers, SpecId(1), ViewRule::RootOnly);
        registry.set_override(analysts, SpecId((specs - 1) as u32), ViewRule::RootOnly);
    }
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
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.spec == y.spec && x.prefix == y.prefix && x.matched == y.matched)
}

/// The candidate postings union of a query: every spec any term's
/// *unfiltered* postings mention. Filter-then-search may resolve access
/// rules for these specs and no others.
fn postings_union(index: &KeywordIndex, query: &KeywordQuery) -> HashSet<SpecId> {
    query.terms.iter().flat_map(|t| index.lookup_query_term(t)).map(|p| p.spec).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Raw search functions: a lazy resolver threaded through
    /// `search_filtered` / both private plans answers bit-identically to
    /// the eager whole-corpus map, cost counters included.
    #[test]
    fn resolver_matches_eager_map_in_answers(
        seed in any::<u64>(),
        specs in 2usize..7,
    ) {
        let repo = random_repo(seed, specs);
        let index = KeywordIndex::build(&repo);
        let registry = registry(specs);
        let cache = AccessCache::new();
        for group in GROUPS {
            let eager = registry.access_map(&repo, group).unwrap();
            for q in QUERIES {
                let query = KeywordQuery::parse(q);
                let resolver = cache.resolver(&registry, &repo, group).unwrap();
                let lazy_hits = search_filtered(&repo, &index, &query, &resolver);
                let eager_hits = search_filtered(&repo, &index, &query, &eager);
                prop_assert!(
                    hits_identical(&eager_hits, &lazy_hits),
                    "keyword diverged for group {}, query {:?}", group, q
                );

                let lazy_filter = filter_then_search(&repo, &index, &query, &resolver);
                let eager_filter = filter_then_search(&repo, &index, &query, &eager);
                prop_assert!(hits_identical(&eager_filter.hits, &lazy_filter.hits));
                prop_assert_eq!(eager_filter.views_built, lazy_filter.views_built);

                let lazy_zoom = search_then_zoom_out(&repo, &index, &query, &resolver);
                let eager_zoom = search_then_zoom_out(&repo, &index, &query, &eager);
                prop_assert!(hits_identical(&eager_zoom.hits, &lazy_zoom.hits));
                prop_assert_eq!(eager_zoom.zoom_steps, lazy_zoom.zoom_steps);
                prop_assert_eq!(eager_zoom.discarded, lazy_zoom.discarded);
                prop_assert_eq!(eager_zoom.views_built, lazy_zoom.views_built);
            }
        }
    }

    /// The engine (lazy inside) answers bit-identically to an eager
    /// evaluation — keyword, private plans, and ranked answers with
    /// bitwise-equal `f64` scores.
    #[test]
    fn engine_lazy_matches_eager_reference(
        seed in any::<u64>(),
        specs in 2usize..6,
    ) {
        let repo = random_repo(seed, specs);
        let index = KeywordIndex::build(&repo);
        let reg = registry(specs);
        let engine = QueryEngine::new(random_repo(seed, specs), registry(specs));
        let modes = [
            RankingMode::ExactFull,
            RankingMode::VisibleOnly,
            RankingMode::BucketizedFull { base: 2.0 },
            RankingMode::NoisyFull { epsilon: 1.0, seed: 7 },
        ];
        for group in GROUPS {
            let eager = reg.access_map(&repo, group).unwrap();
            for q in QUERIES {
                let query = KeywordQuery::parse(q);
                let reference = search_filtered(&repo, &index, &query, &eager);
                let served = engine.search_as(group, q).unwrap();
                prop_assert!(
                    hits_identical(&reference, &served),
                    "engine diverged for group {}, query {:?}", group, q
                );
                for plan in [Plan::FilterThenSearch, Plan::SearchThenZoomOut] {
                    let eager_outcome = match plan {
                        Plan::FilterThenSearch =>
                            filter_then_search(&repo, &index, &query, &eager),
                        Plan::SearchThenZoomOut =>
                            search_then_zoom_out(&repo, &index, &query, &eager),
                    };
                    let served = engine.private_search_as(group, q, plan).unwrap();
                    prop_assert!(hits_identical(&eager_outcome.hits, &served.hits));
                    prop_assert_eq!(eager_outcome.zoom_steps, served.zoom_steps);
                    prop_assert_eq!(eager_outcome.discarded, served.discarded);
                }
                // Ranked: recompute the eager reference scores by hand.
                let profiles = profiles_for_hits(&repo, &reference, &query.terms);
                let idfs = idfs_for_terms(&index, &query.terms);
                for mode in modes {
                    let scores: Vec<f64> =
                        profiles.iter().map(|p| score_with_idfs(&idfs, p, mode)).collect();
                    let order = rank_by_scores(&scores);
                    let (_, ranked) = engine.ranked_search_as(group, q, mode).unwrap();
                    prop_assert_eq!(&order, &ranked.order,
                        "order diverged for {}, {:?}, {:?}", group, q, mode);
                    prop_assert_eq!(&scores, &ranked.scores,
                        "scores diverged (f64 bits) for {}, {:?}, {:?}", group, q, mode);
                }
            }
        }
    }

    /// The cluster (lazy per shard) answers bit-identically to an eager
    /// single-corpus evaluation, across shard counts.
    #[test]
    fn cluster_lazy_matches_eager_reference(
        seed in any::<u64>(),
        specs in 2usize..6,
        shards in 1usize..5,
    ) {
        let repo = random_repo(seed, specs);
        let index = KeywordIndex::build(&repo);
        let reg = registry(specs);
        let cluster = EngineCluster::new(random_repo(seed, specs), registry(specs), shards);
        for group in GROUPS {
            let eager = reg.access_map(&repo, group).unwrap();
            for q in QUERIES {
                let query = KeywordQuery::parse(q);
                let reference = search_filtered(&repo, &index, &query, &eager);
                let cold = cluster.search_as(group, q).unwrap();
                let warm = cluster.search_as(group, q).unwrap();
                prop_assert!(
                    hits_identical(&reference, &cold),
                    "cold cluster({}) diverged for group {}, query {:?}", shards, group, q
                );
                prop_assert!(hits_identical(&reference, &warm));
                let answer = cluster.ranked_search_as(group, q, RankingMode::ExactFull).unwrap();
                let ranked = &answer.ranked;
                let profiles = profiles_for_hits(&repo, &reference, &query.terms);
                let idfs = idfs_for_terms(&index, &query.terms);
                let scores: Vec<f64> = profiles
                    .iter()
                    .map(|p| score_with_idfs(&idfs, p, RankingMode::ExactFull))
                    .collect();
                prop_assert_eq!(&scores, &ranked.scores,
                    "cluster({}) ranked scores diverged for {}, {:?}", shards, group, q);
            }
        }
    }

    /// One shared `AccessCache`, interleaved multi-group resolution: every
    /// group's lazily resolved prefixes equal its isolated eager map —
    /// fine-grained views never leak into coarse-grained groups through
    /// the shared memo.
    #[test]
    fn shared_access_cache_never_leaks_across_groups(
        seed in any::<u64>(),
        specs in 2usize..7,
    ) {
        let repo = random_repo(seed, specs);
        let reg = registry(specs);
        let cache = AccessCache::new();
        // Interleave: resolve every spec for every group in round-robin
        // order through the one cache, twice (second pass is memo-served).
        for pass in 0..2 {
            for sid in 0..specs {
                for group in GROUPS {
                    let eager = reg.access_map(&repo, group).unwrap();
                    let resolver = cache.resolver(&reg, &repo, group).unwrap();
                    let lazy = resolver.resolve(SpecId(sid as u32)).unwrap();
                    prop_assert_eq!(
                        &*lazy, &eager[&SpecId(sid as u32)],
                        "pass {}: group {} got a foreign prefix for spec {}", pass, group, sid
                    );
                }
            }
        }
        // The memo held per-group products: each group memoized the whole
        // corpus (we asked for all of it), separately.
        for group in GROUPS {
            prop_assert_eq!(cache.memoized_len(group), specs);
        }
    }

    /// Filter-then-search never resolves a spec outside the candidate
    /// postings union: privacy-relevant work stays filter-first even with
    /// resolution made lazy. (Resolution *itself* is timing-observable
    /// work, so over-resolving would be both waste and a side channel.)
    #[test]
    fn filter_plan_resolves_only_postings_union(
        seed in any::<u64>(),
        specs in 2usize..8,
    ) {
        let repo = random_repo(seed, specs);
        let index = KeywordIndex::build(&repo);
        let reg = registry(specs);
        for group in GROUPS {
            let cache = AccessCache::new();
            for q in QUERIES {
                let query = KeywordQuery::parse(q);
                let union = postings_union(&index, &query);
                let resolver = cache.resolver(&reg, &repo, group).unwrap();
                let _ = filter_then_search(&repo, &index, &query, &resolver);
                let resolved = resolver.resolved_specs();
                prop_assert!(
                    resolved.iter().all(|s| union.contains(s)),
                    "group {} query {:?}: resolved {:?} outside postings union {:?}",
                    group, q, resolved, union
                );
                prop_assert!(resolver.resolved_count() <= union.len());
                prop_assert!(resolver.corpus_len() == specs);
            }
        }
    }

    /// The engine-level counters tell the same story: a fresh engine
    /// serving one selective query performs at most |postings union| rule
    /// resolutions — never the whole corpus.
    #[test]
    fn engine_counters_stay_within_postings_union(
        seed in any::<u64>(),
        specs in 3usize..8,
    ) {
        let repo = random_repo(seed, specs);
        let index = KeywordIndex::build(&repo);
        for q in QUERIES {
            let engine = QueryEngine::new(random_repo(seed, specs), registry(specs));
            let union = postings_union(&index, &KeywordQuery::parse(q));
            engine.search_as("analysts", q).unwrap();
            let access = engine.stats().access;
            prop_assert!(
                (access.misses as usize) <= union.len(),
                "query {:?}: {} rule resolutions exceed postings union {}",
                q, access.misses, union.len()
            );
        }
    }

    /// Mutations and registry swaps: lazy answers equal a fresh eager
    /// evaluation afterwards (no stale access views served). Runs on a
    /// one-shard cluster, the object that serves one index, whose registry
    /// swap clears the access memo and the front cache.
    #[test]
    fn lazy_stays_fresh_across_mutation_and_registry_swap(
        seed in any::<u64>(),
        specs in 2usize..5,
    ) {
        let mut cluster = EngineCluster::new(random_repo(seed, specs), registry(specs), 1);
        for g in GROUPS {
            cluster.search_as(g, "kw0, kw1").unwrap();
        }
        // Mutate: insert a spec; answers must reflect it afterwards (the
        // access memo itself carries forward — hierarchies are immutable).
        let fresh = generate_spec(&SpecParams { seed: seed ^ 0xE12, ..SpecParams::default() });
        cluster
            .mutate(ppwf_repo::mutation::Mutation::InsertSpec {
                spec: fresh,
                policy: Policy::public(),
            })
            .unwrap();
        let repo_now = {
            let mut r = random_repo(seed, specs);
            let fresh = generate_spec(&SpecParams { seed: seed ^ 0xE12, ..SpecParams::default() });
            r.insert_spec(fresh, Policy::public()).unwrap();
            r
        };
        let index_now = KeywordIndex::build(&repo_now);
        let reg_now = registry(specs);
        for g in GROUPS {
            let eager = reg_now.access_map(&repo_now, g).unwrap();
            for q in QUERIES {
                let reference =
                    search_filtered(&repo_now, &index_now, &KeywordQuery::parse(q), &eager);
                let served = cluster.search_as(g, q).unwrap();
                prop_assert!(
                    hits_identical(&reference, &served),
                    "stale lazy answer for {} {:?} after mutation", g, q
                );
            }
        }
        // Swap the registry: everyone becomes root-only; memoized fine
        // views must not survive.
        let mut coarse = PrincipalRegistry::new();
        for g in GROUPS {
            coarse.add_group(g, AccessLevel(0), ViewRule::RootOnly);
        }
        cluster.set_registry(coarse.clone());
        for g in GROUPS {
            let eager = coarse.access_map(&repo_now, g).unwrap();
            for q in QUERIES {
                let reference =
                    search_filtered(&repo_now, &index_now, &KeywordQuery::parse(q), &eager);
                let served = cluster.search_as(g, q).unwrap();
                prop_assert!(
                    hits_identical(&reference, &served),
                    "stale fine-grained answer for {} {:?} after registry swap", g, q
                );
            }
        }
    }
}
