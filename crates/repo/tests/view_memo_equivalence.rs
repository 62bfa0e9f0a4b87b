//! The view memo serves exactly what a fresh build would.
//!
//! [`ViewCache`] keeps views across writes on the argument that a view reads
//! only structure no `Mutation` changes. This suite holds it to that:
//! random streams of all five mutation kinds, applied to two repositories
//! that share one memo, interleaved with view requests for random
//! parent-closed prefixes of random slots (tombstones included). The memo is
//! told what the engine tells it — `forget_spec` on a delete or an edit,
//! nothing otherwise — and after every step:
//!
//! * a served view equals `SpecView::build` on the requested repository's
//!   current entry — prefix, node numbering, edges, channel lists — and a
//!   tombstoned or out-of-range id is served nothing;
//! * no slot exceeds the per-spec bound (`assert_consistent`);
//! * the two repositories hold different specs under the same ids and
//!   different hierarchy `Arc`s throughout, and a view handed out for one is
//!   never handed out for the other.
//!
//! Plus the publication race: eight threads released by a barrier onto one
//! cold `(spec, prefix)` all leave with the same `Arc`.

use ppwf_core::policy::Policy;
use ppwf_model::expand::SpecView;
use ppwf_model::hierarchy::{ExpansionHierarchy, Prefix};
use ppwf_repo::mutation::MutationEffect;
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_repo::view_cache::ViewCache;
use ppwf_workloads::genmutation::mutation_of;
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

fn corpus(seed: u64, specs: u64) -> Repository {
    let mut repo = Repository::new();
    for i in 0..specs {
        let spec = generate_spec(&SpecParams { seed: seed + i, ..SpecParams::default() });
        repo.insert_spec(spec, Policy::public()).unwrap();
    }
    repo
}

/// A parent-closed prefix of `h` drawn from the bits of `seed`: a workflow
/// is in if its parent is and its bit says so.
fn prefix_of(h: &ExpansionHierarchy, seed: u64) -> Prefix {
    let mut chosen = vec![h.root()];
    for (i, w) in h.preorder().into_iter().enumerate().skip(1) {
        let parent = h.parent(w).expect("non-root workflow has a parent");
        if chosen.contains(&parent) && (seed >> (i % 64)) & 1 == 1 {
            chosen.push(w);
        }
    }
    Prefix::from_workflows(h, chosen).unwrap()
}

/// Everything of a view its consumers read.
fn bits(view: &SpecView) -> (Prefix, String) {
    let graph = view.graph();
    let nodes: Vec<_> = graph.nodes().collect();
    let edges: Vec<_> = graph.edges().map(|(_, e)| (e.from, e.to, &e.payload.channels)).collect();
    (view.prefix().clone(), format!("{nodes:?} {edges:?} {} {}", view.input(), view.output()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn memoized_views_equal_fresh_builds_across_all_five_mutation_kinds(
        seed in any::<u64>(),
        bound in 1usize..5,
        ops in proptest::collection::vec((0u8..14, any::<u64>()), 1..90),
    ) {
        let mut repos = [corpus(seed, 3), corpus(seed ^ 0xA5A5, 3)];
        let cache = ViewCache::new(bound);
        // Every view handed out, with the repository it was handed out for.
        let mut served: Vec<(Arc<SpecView>, usize)> = Vec::new();
        // For slots that hold no spec: nothing may be served whatever is asked.
        let any_prefix =
            Prefix::root_only(&ExpansionHierarchy::of(&generate_spec(&SpecParams::default())));
        for (salt, (op, draw)) in ops.into_iter().enumerate() {
            let which = (draw >> 63) as usize;
            if op < 5 {
                let repo = &mut repos[which];
                let mutation = mutation_of(op, draw, salt as u64, repo);
                // What `QueryEngine::mutate` tells its memo, and no more.
                if let MutationEffect::SpecDeleted { spec } | MutationEffect::SpecEdited { spec } =
                    repo.apply(mutation).expect("generated mutation applies")
                {
                    cache.forget_spec(spec);
                }
            } else {
                let repo = &repos[which];
                // One past the id space, so out-of-range ids are asked too.
                let spec = SpecId((draw % (repo.len() as u64 + 1)) as u32);
                let Some(entry) = repo.entry(spec) else {
                    let nothing = cache.view(repo, spec, &any_prefix);
                    prop_assert!(nothing.is_none(), "{spec:?} is not live");
                    continue;
                };
                let prefix = prefix_of(&entry.hierarchy, draw >> 8);
                let view = cache.view(repo, spec, &prefix).expect("live spec, valid prefix");
                let fresh = SpecView::build(&entry.spec, &entry.hierarchy, &prefix).unwrap();
                prop_assert_eq!(bits(&view), bits(&fresh), "{:?} under {:?}", spec, prefix);
                for (earlier, owner) in &served {
                    prop_assert!(
                        !Arc::ptr_eq(earlier, &view) || *owner == which,
                        "{spec:?}: repository {which} was served repository {owner}'s view"
                    );
                }
                served.push((view, which));
            }
            cache.assert_consistent();
        }
    }
}

/// The stream generator reaches every mutation kind and every request
/// outcome, so the property above is about all of them.
#[test]
fn the_streams_cover_every_kind_and_both_drop_paths() {
    let mut repo = corpus(7, 3);
    let cache = ViewCache::new(2);
    let mut effects = [0usize; 5];
    for salt in 0..60u64 {
        let draw = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for (id, entry) in repo.entries() {
            cache.view(&repo, id, &prefix_of(&entry.hierarchy, draw)).unwrap();
        }
        match repo.apply(mutation_of((salt % 5) as u8, draw, salt, &repo)).unwrap() {
            MutationEffect::SpecInserted { .. } => effects[0] += 1,
            MutationEffect::ExecutionAppended { .. } => effects[1] += 1,
            MutationEffect::PolicyChanged { .. } => effects[2] += 1,
            MutationEffect::SpecDeleted { spec } => {
                effects[3] += 1;
                cache.forget_spec(spec);
            }
            MutationEffect::SpecEdited { spec } => {
                effects[4] += 1;
                cache.forget_spec(spec);
            }
        }
        cache.assert_consistent();
    }
    assert!(effects.iter().all(|&n| n > 0), "effects applied per kind: {effects:?}");
    let stats = cache.stats();
    assert!(stats.hits() > 0 && stats.evictions() > 0 && stats.invalidations() > 0, "{stats:?}");
}

/// Racing first requests of one pair may each build, but exactly one view
/// is published and every caller leaves with it.
#[test]
fn racing_cold_requests_share_one_arc() {
    const THREADS: usize = 8;
    let repo = corpus(3, 2);
    let prefix = Prefix::full(&repo.entry(SpecId(1)).unwrap().hierarchy);
    for _ in 0..64 {
        let cache = ViewCache::new(4);
        let barrier = Barrier::new(THREADS);
        let views: Vec<Arc<SpecView>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.view(&repo, SpecId(1), &prefix).expect("live spec")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("racing reader")).collect()
        });
        assert!(views.iter().all(|v| Arc::ptr_eq(v, &views[0])), "two views were published");
        let stats = cache.stats();
        assert_eq!(stats.hits() + stats.misses(), THREADS as u64);
        assert!(stats.misses() >= 1);
        assert_eq!(cache.len(), 1);
        // And the published view is the one later requests hit.
        assert!(Arc::ptr_eq(&views[0], &cache.view(&repo, SpecId(1), &prefix).unwrap()));
    }
}
