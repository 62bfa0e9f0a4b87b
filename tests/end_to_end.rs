//! Repository-lifecycle integration: generate workloads, store, index,
//! search under every privilege level, persist, reload — asserting the
//! cross-crate equivalences the design relies on.

use ppwf::model::hierarchy::Prefix;
use ppwf::privacy::policy::{AccessLevel, Policy, Principal};
use ppwf::query::keyword::{search, search_filtered, search_scan, KeywordQuery};
use ppwf::query::privacy_exec::{filter_then_search, same_answers, search_then_zoom_out};
use ppwf::repo::cache::GroupCache;
use ppwf::repo::keyword_index::KeywordIndex;
use ppwf::repo::repository::{Repository, SpecId};
use ppwf::workloads::genexec::generate_executions;
use ppwf::workloads::genspec::{generate_spec, SpecParams};
use std::collections::HashMap;

fn populated_repo(specs: usize, execs_per_spec: usize) -> Repository {
    let mut repo = Repository::new();
    for seed in 0..specs as u64 {
        let spec = generate_spec(&SpecParams { seed, ..SpecParams::default() });
        let runs = generate_executions(&spec, execs_per_spec, seed * 1000 + 1);
        let id = repo.insert_spec(spec, Policy::public()).unwrap();
        for r in runs {
            repo.add_execution(id, r).unwrap();
        }
    }
    repo
}

#[test]
fn index_equals_scan_for_many_queries() {
    let repo = populated_repo(12, 0);
    let index = KeywordIndex::build(&repo);
    for text in ["kw0", "kw1", "kw2", "kw0, kw1", "kw3, kw0", "kw9"] {
        let q = KeywordQuery::parse(text);
        let a = search(&repo, &index, &q);
        let b = search_scan(&repo, &q);
        assert_eq!(a.len(), b.len(), "query {text}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.spec, &x.prefix, &x.matched), (y.spec, &y.prefix, &y.matched));
        }
    }
}

#[test]
fn filtered_search_monotone_in_privilege() {
    // Finer access views can only add hits, never remove them.
    let repo = populated_repo(10, 0);
    let index = KeywordIndex::build(&repo);
    let q = KeywordQuery::parse("kw0");
    let coarse: HashMap<SpecId, Prefix> =
        repo.entries().map(|(sid, e)| (sid, Prefix::root_only(&e.hierarchy))).collect();
    let fine: HashMap<SpecId, Prefix> =
        repo.entries().map(|(sid, e)| (sid, Prefix::full(&e.hierarchy))).collect();
    let low = search_filtered(&repo, &index, &q, &coarse);
    let high = search_filtered(&repo, &index, &q, &fine);
    assert!(low.len() <= high.len());
    let low_specs: Vec<SpecId> = low.iter().map(|h| h.spec).collect();
    for s in &low_specs {
        assert!(high.iter().any(|h| h.spec == *s), "privilege lost a hit");
    }
}

#[test]
fn evaluation_strategies_agree_under_full_access() {
    let repo = populated_repo(8, 0);
    let index = KeywordIndex::build(&repo);
    let access: HashMap<SpecId, Prefix> =
        repo.entries().map(|(sid, e)| (sid, Prefix::full(&e.hierarchy))).collect();
    for text in ["kw0", "kw1, kw2", "kw0, kw1"] {
        let q = KeywordQuery::parse(text);
        let a = filter_then_search(&repo, &index, &q, &access);
        let b = search_then_zoom_out(&repo, &index, &q, &access);
        assert!(same_answers(&a, &b), "query {text}");
        assert_eq!(b.zoom_steps, 0);
    }
}

#[test]
fn zoom_strategy_never_exceeds_access() {
    let repo = populated_repo(8, 0);
    let index = KeywordIndex::build(&repo);
    let access: HashMap<SpecId, Prefix> =
        repo.entries().map(|(sid, e)| (sid, Prefix::root_only(&e.hierarchy))).collect();
    let q = KeywordQuery::parse("kw0");
    let out = search_then_zoom_out(&repo, &index, &q, &access);
    for hit in &out.hits {
        assert!(
            hit.prefix.coarser_or_equal(&access[&hit.spec]),
            "released view exceeds the access view"
        );
    }
}

#[test]
fn persistence_preserves_everything_queryable() {
    let repo = populated_repo(5, 2);
    let bytes = repo.save();
    let loaded = Repository::load(&bytes).unwrap();
    assert_eq!(loaded.len(), repo.len());
    assert_eq!(loaded.execution_count(), repo.execution_count());

    // Index built on the loaded repo answers identically.
    let q = KeywordQuery::parse("kw0, kw1");
    let a = search(&repo, &KeywordIndex::build(&repo), &q);
    let b = search(&loaded, &KeywordIndex::build(&loaded), &q);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.spec, &x.matched), (y.spec, &y.matched));
    }
}

#[test]
fn cache_respects_versions_and_groups() {
    let mut repo = populated_repo(3, 0);
    let cache: GroupCache<(), usize> = GroupCache::new(32);
    let v1 = repo.version();
    let index = KeywordIndex::build(&repo);
    let q = KeywordQuery::parse("kw0");
    let n1 = cache.get_or_compute("g", "kw0", (), v1, || search(&repo, &index, &q).len());

    // Mutate the repository → version changes → cached entry is stale.
    let spec = generate_spec(&SpecParams { seed: 77, ..SpecParams::default() });
    repo.insert_spec(spec, Policy::public()).unwrap();
    let v2 = repo.version();
    assert_ne!(v1, v2);
    let index2 = KeywordIndex::build(&repo);
    let n2 = cache.get_or_compute("g", "kw0", (), v2, || search(&repo, &index2, &q).len());
    assert!(n2 >= n1);
    assert!(cache.stats().invalidations() >= 1);
}

#[test]
fn disclosure_pipeline_over_generated_workloads() {
    // Full pipeline: generate, execute, disclose at several levels, audit.
    use ppwf::model::hierarchy::ExpansionHierarchy;
    use ppwf::privacy::enforce::{audit_disclosure, disclose};
    for seed in 0..4u64 {
        let spec = generate_spec(&SpecParams { seed, ..SpecParams::default() });
        let h = ExpansionHierarchy::of(&spec);
        let exec = generate_executions(&spec, 1, seed).pop().unwrap();
        let mut policy = Policy::public();
        policy.protect_channel("in0", AccessLevel(2));
        // Hide a deep pair if one exists (two modules of some subworkflow).
        let deep: Vec<_> = spec
            .modules()
            .filter(|m| !m.kind.is_distinguished() && m.workflow != spec.root())
            .take(2)
            .collect();
        if deep.len() == 2 && deep[0].workflow == deep[1].workflow {
            policy.hide_pair(deep[0].id, deep[1].id, AccessLevel(3));
        }
        for level in [0u8, 2, 3] {
            let p = Principal::new(format!("u{level}"), AccessLevel(level), Prefix::full(&h));
            let d = disclose(&spec, &h, &exec, &policy, &p).unwrap();
            audit_disclosure(&spec, &policy, &p, &d).unwrap();
        }
    }
}
