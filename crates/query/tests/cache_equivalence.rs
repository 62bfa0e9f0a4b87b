//! Correctness of the query fast path: caching layers must be *invisible*
//! in answers.
//!
//! Property 1 (bit-identical answers): for random repositories, every
//! privilege group and every query, the cached search plans return exactly
//! the hits of the uncached plan — same specs, same prefixes, same matched
//! modules, same flattened view graphs — on both the cold (populating) and
//! warm (hitting) pass.
//!
//! Property 2 (no cross-group leakage): interleaving queries from groups
//! with different privileges through the one cached tier — a one-shard
//! cluster's front, which is what serves when there is one index — never
//! changes any group's answers relative to an isolated, cacheless
//! evaluation of that group alone. Sec. 4's caching design stands or falls
//! on this.
//!
//! Property 3 (staleness): mutating the repository invalidates cached
//! views and cached group answers; post-mutation answers equal a fresh
//! uncached evaluation.

use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_query::cluster::EngineCluster;
use ppwf_query::keyword::{search_filtered, search_filtered_with_cache, KeywordHit, KeywordQuery};
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
use ppwf_repo::repository::Repository;
use ppwf_repo::view_cache::ViewCache;
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use proptest::prelude::*;

const QUERIES: [&str; 5] = ["kw0", "kw0, kw1", "kw2", "kw1, kw3", "kw0, kw2"];
const GROUPS: [&str; 3] = ["public", "analysts", "researchers"];

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

/// Bit-level hit equality: identity fields plus the flattened view's full
/// node and edge structure (the artifact a client actually renders).
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cached plans agree with the uncached plan bit-for-bit, cold and
    /// warm, for every group — with all groups sharing one ViewCache, as
    /// in production.
    #[test]
    fn cached_answers_bit_identical_across_groups(seed in any::<u64>(), specs in 2usize..6) {
        let repo = random_repo(seed, specs);
        let index = KeywordIndex::build(&repo);
        let registry = registry();
        let views = ViewCache::new(16);
        for group in GROUPS {
            let access = registry.access_map(&repo, group).unwrap();
            for q in QUERIES {
                let query = KeywordQuery::parse(q);
                let plain = search_filtered(&repo, &index, &query, &access);
                let cold = search_filtered_with_cache(&repo, &index, &query, &access, &views);
                let warm = search_filtered_with_cache(&repo, &index, &query, &access, &views);
                prop_assert!(
                    hits_identical(&plain, &cold),
                    "cold cached ≠ uncached for group {} query {:?}", group, q
                );
                prop_assert!(
                    hits_identical(&plain, &warm),
                    "warm cached ≠ uncached for group {} query {:?}", group, q
                );
            }
        }
    }

    /// Interleaved multi-group traffic through one front changes nothing:
    /// each group's answers equal an isolated cacheless evaluation, so no
    /// group can observe (or leak into) another group's cache entries.
    #[test]
    fn engine_interleaving_leaks_nothing(seed in any::<u64>(), specs in 2usize..5) {
        let repo = random_repo(seed, specs);
        let reference_index = KeywordIndex::build(&repo);
        let reference_registry = registry();
        let cluster = EngineCluster::new(random_repo(seed, specs), registry(), 1);

        // Interleave: group order varies per query, every query asked twice
        // (second ask served from the group cache).
        for (qi, q) in QUERIES.iter().enumerate() {
            for offset in 0..GROUPS.len() {
                let group = GROUPS[(qi + offset) % GROUPS.len()];
                let warm = cluster.search_as(group, q).unwrap();
                let again = cluster.search_as(group, q).unwrap();
                let access = reference_registry.access_map(&repo, group).unwrap();
                let isolated =
                    search_filtered(&repo, &reference_index, &KeywordQuery::parse(q), &access);
                prop_assert!(
                    hits_identical(&isolated, &warm),
                    "served answer diverged for group {} query {:?}", group, q
                );
                prop_assert!(
                    hits_identical(&isolated, &again),
                    "second (cached) answer diverged for group {} query {:?}", group, q
                );
            }
        }
        let front = cluster.stats().front;
        prop_assert!(front.hits >= QUERIES.len() as u64 * GROUPS.len() as u64,
            "second asks must be cache hits (got {})", front.hits);
    }

    /// Mutating the repository invalidates both cache layers: post-mutation
    /// answers equal a fresh cacheless evaluation of the mutated state.
    #[test]
    fn mutation_invalidates_both_layers(seed in any::<u64>()) {
        let mut cluster = EngineCluster::new(random_repo(seed, 2), registry(), 1);
        for g in GROUPS {
            cluster.search_as(g, "kw0, kw1").unwrap();
        }
        let spec = generate_spec(&SpecParams { seed: seed ^ 0xABCD, ..SpecParams::default() });
        cluster
            .mutate(ppwf_repo::mutation::Mutation::InsertSpec { spec, policy: Policy::public() })
            .unwrap();
        let mut reference_repo = random_repo(seed, 2);
        let spec = generate_spec(&SpecParams { seed: seed ^ 0xABCD, ..SpecParams::default() });
        reference_repo.insert_spec(spec, Policy::public()).unwrap();
        let reference_index = KeywordIndex::build(&reference_repo);
        let reference_registry = registry();
        for g in GROUPS {
            let access = reference_registry.access_map(&reference_repo, g).unwrap();
            let fresh = search_filtered(
                &reference_repo,
                &reference_index,
                &KeywordQuery::parse("kw0, kw1"),
                &access,
            );
            let served = cluster.search_as(g, "kw0, kw1").unwrap();
            prop_assert!(
                hits_identical(&fresh, &served),
                "stale answer served for group {} after mutation", g
            );
        }
    }
}
