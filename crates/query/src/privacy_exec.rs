//! The two privacy-preserving evaluation strategies of Sec. 4.
//!
//! *"One approach would be to first construct a full answer, oblivious to
//! the privacy requirement. If the result reveals sensitive information, we
//! may gradually 'zoom-out' the view ... until privacy is achieved.
//! However, this can be expensive as each zoom-out may involve a disk
//! access. Techniques must be developed to efficiently construct
//! user-specific answers."*
//!
//! * [`filter_then_search`] — privacy pushed into the index: postings are
//!   filtered by the principal's access view before any view is built, so
//!   the answer is user-specific from the start.
//! * [`search_then_zoom_out`] — the oblivious plan: full-privilege search,
//!   then per-hit coarsening until the answer fits the access view (it
//!   reads no policy, so a hide-pair inside the view is not its concern).
//!   Every coarsening step is counted as a unit of wasted work (the paper's
//!   "disk access" proxy), which is what experiment E6 charts.
//!
//! **The two plans do not return the same answers.** Both release only
//! views inside the principal's access prefix, and every spec the zoom plan
//! releases the filter plan releases too: a zoom hit survives only if each
//! of its matches sits inside the prefix, and those admissible matches are
//! exactly what the filter plan searches. The converse fails. The oblivious
//! search picks one minimal answer per spec before it knows the access
//! view, and coarsening can erase a match the filter plan would have found
//! elsewhere in the same spec: for `pubmed` under access {W1, W2, W4} the
//! filter plan returns the spec (through M7 in W4) and the zoom plan drops
//! it (its M12 is in W3) — `zoom_plan_coarsens_alternative_matches`. Where
//! both release a spec, the prefixes can differ too. So the plans agree on
//! cost-free cases (full access, or matches the access view keeps), and
//! [`same_answers`] is a check a caller makes, not a contract.

use crate::keyword::{build_view, looked_up, search_in, KeywordHit, KeywordQuery, Lookup};
use ppwf_core::policy::Principal;
use ppwf_model::hierarchy::Prefix;
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::principals::SpecAccess;
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_repo::view_cache::ViewCache;
use std::collections::HashMap;

/// A principal's per-spec access views (a repository may hold many
/// specifications, each with its own hierarchy). This is the **eager**
/// shape; every plan below is generic over [`SpecAccess`], so a lazy
/// [`AccessResolver`](ppwf_repo::principals::AccessResolver) threads
/// through the same entry points and resolves only the specs a query
/// actually touches.
pub type AccessMap = HashMap<SpecId, Prefix>;

/// Build the access map giving `principal`'s level-implied views: full
/// prefixes where the policy has no hide-pairs above their level, and the
/// supplied per-spec views otherwise. Convenience for tests/benches where
/// one principal spans all specs at uniform privilege.
pub fn uniform_access(repo: &Repository, principal: &Principal) -> AccessMap {
    repo.entries()
        .map(|(sid, entry)| {
            let full = Prefix::full(&entry.hierarchy);
            let capped = if principal.access_view.len() <= full.len()
                && principal_access_applies(&principal.access_view, &full)
            {
                principal.access_view.clone()
            } else {
                full
            };
            (sid, capped)
        })
        .collect()
}

fn principal_access_applies(view: &Prefix, full: &Prefix) -> bool {
    // Prefixes are only compatible across specs of identical hierarchy
    // size; otherwise fall back to full (the caller supplies real maps in
    // production use).
    view.coarser_or_equal(full)
}

/// Cost-annotated result of a privacy-preserving search.
#[derive(Debug)]
pub struct PrivateSearchOutcome {
    /// The released hits.
    pub hits: Vec<KeywordHit>,
    /// Views constructed during evaluation (materialization cost proxy).
    pub views_built: usize,
    /// Zoom-out steps performed (wasted-work proxy; 0 for the filter plan).
    pub zoom_steps: usize,
    /// Candidate hits discarded because no admissible form existed.
    pub discarded: usize,
}

/// Plan 1: filter-then-search. Index postings are pre-filtered by the
/// access view; the minimal cover is computed over admissible matches
/// only, so every constructed view is already releasable. With a lazy
/// resolver as `access`, only specs inside the candidate postings union
/// are ever resolved — the resolver's touch counters prove it, and the
/// privacy property (no inadmissible candidate in timing-observable work)
/// is preserved because filtering still precedes all search work.
pub fn filter_then_search(
    repo: &Repository,
    index: &KeywordIndex,
    query: &KeywordQuery,
    access: &impl SpecAccess,
) -> PrivateSearchOutcome {
    looked_up(index, query, |lookup| filter_then_search_in(repo, lookup, query, access, None))
}

/// [`filter_then_search`] with answer views fetched through `views`.
/// `views_built` still counts logical materializations (the plan's cost
/// model); the cache turns repeats of them into pointer copies.
pub fn filter_then_search_cached(
    repo: &Repository,
    index: &KeywordIndex,
    query: &KeywordQuery,
    access: &impl SpecAccess,
    views: &ViewCache,
) -> PrivateSearchOutcome {
    looked_up(index, query, |lookup| {
        filter_then_search_in(repo, lookup, query, access, Some(views))
    })
}

/// The filter-then-search plan over `query` already looked up on one
/// index: what a shard runs for a private read.
pub(crate) fn filter_then_search_in(
    repo: &Repository,
    lookup: Lookup<'_>,
    query: &KeywordQuery,
    access: &impl SpecAccess,
    views: Option<&ViewCache>,
) -> PrivateSearchOutcome {
    let hits = search_in(repo, lookup, query, views, Some(access));
    let views_built = hits.len();
    PrivateSearchOutcome { hits, views_built, zoom_steps: 0, discarded: 0 }
}

/// Plan 2: search-then-zoom-out. Runs the oblivious full-privilege search,
/// then repairs each hit: while the hit's prefix exceeds the principal's
/// access view, zoom out (rebuilding the view each step — the expensive
/// part); drop the hit if coarsening erases some term's match.
pub fn search_then_zoom_out(
    repo: &Repository,
    index: &KeywordIndex,
    query: &KeywordQuery,
    access: &impl SpecAccess,
) -> PrivateSearchOutcome {
    looked_up(index, query, |lookup| search_then_zoom_out_in(repo, lookup, query, access, None))
}

/// [`search_then_zoom_out`] with views fetched through `views`: both the
/// oblivious full-privilege pass and the post-coarsening rebuild hit the
/// cache, which is what makes even the wasteful plan benchmarkable at
/// repository scale in E10.
pub fn search_then_zoom_out_cached(
    repo: &Repository,
    index: &KeywordIndex,
    query: &KeywordQuery,
    access: &impl SpecAccess,
    views: &ViewCache,
) -> PrivateSearchOutcome {
    looked_up(index, query, |lookup| {
        search_then_zoom_out_in(repo, lookup, query, access, Some(views))
    })
}

/// The search-then-zoom-out plan over `query` already looked up on one
/// index: what a shard runs for a private read under this plan.
pub(crate) fn search_then_zoom_out_in(
    repo: &Repository,
    lookup: Lookup<'_>,
    query: &KeywordQuery,
    access: &impl SpecAccess,
    views: Option<&ViewCache>,
) -> PrivateSearchOutcome {
    let full_hits = search_in(repo, lookup, query, views, None::<&AccessMap>);
    let mut hits = Vec::new();
    let mut views_built = full_hits.len(); // the oblivious pass built these
    let mut zoom_steps = 0usize;
    let mut discarded = 0usize;

    'hits: for hit in full_hits {
        // Lazy access: only *hit* specs resolve — this plan already did
        // oblivious full-corpus search, so laziness here is pure saving.
        let Some(allowed) = access.prefix_of(hit.spec) else {
            discarded += 1;
            continue;
        };
        let entry = repo.entry(hit.spec).expect("hit references live spec");
        // Coarsen to the lattice meet of the answer and the access view.
        let mut prefix = hit.prefix.clone();
        while !prefix.coarser_or_equal(&allowed) {
            // Remove the deepest prefix member not allowed.
            let victim = prefix
                .workflows()
                .filter(|&w| !allowed.contains(w))
                .max_by_key(|&w| (entry.hierarchy.depth(w), w))
                .expect("non-coarser prefix has a disallowed member");
            prefix.remove_subtree(&entry.hierarchy, victim).expect("victim is not the root");
            zoom_steps += 1;
            views_built += 1; // each step re-materializes the answer view
        }
        // Re-check: does the coarsened view still expose a match for every
        // term? A match module is exposed iff its workflow stays in the
        // prefix.
        for (_, m) in &hit.matched {
            if !prefix.contains(entry.spec.module(*m).workflow) {
                discarded += 1;
                continue 'hits;
            }
        }
        let view = build_view(repo, views, hit.spec, &prefix).expect("coarsened prefix is valid");
        hits.push(KeywordHit { spec: hit.spec, prefix, view, matched: hit.matched });
    }
    PrivateSearchOutcome { hits, views_built, zoom_steps, discarded }
}

/// Whether two outcomes release the same answers (spec, prefix, match set).
/// The two plans satisfy this only in some cases (see the module docs);
/// nothing guarantees it in general.
pub fn same_answers(a: &PrivateSearchOutcome, b: &PrivateSearchOutcome) -> bool {
    if a.hits.len() != b.hits.len() {
        return false;
    }
    a.hits
        .iter()
        .zip(&b.hits)
        .all(|(x, y)| x.spec == y.spec && x.prefix == y.prefix && x.matched == y.matched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;
    use ppwf_model::ids::WorkflowId;

    fn setup() -> (Repository, KeywordIndex) {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        repo.insert_spec(spec, Policy::public()).unwrap();
        let index = KeywordIndex::build(&repo);
        (repo, index)
    }

    fn access(repo: &Repository, ws: &[usize]) -> AccessMap {
        let entry = repo.entry(SpecId(0)).unwrap();
        let prefix =
            Prefix::from_workflows(&entry.hierarchy, ws.iter().map(|&i| WorkflowId::new(i)))
                .unwrap();
        let mut m = HashMap::new();
        m.insert(SpecId(0), prefix);
        m
    }

    #[test]
    fn plans_agree_when_access_allows_everything() {
        let (repo, index) = setup();
        let acc = access(&repo, &[0, 1, 2, 3]);
        let q = KeywordQuery::parse("Database, Disorder Risks");
        let a = filter_then_search(&repo, &index, &q, &acc);
        let b = search_then_zoom_out(&repo, &index, &q, &acc);
        assert!(same_answers(&a, &b));
        assert_eq!(a.zoom_steps, 0);
        assert_eq!(b.zoom_steps, 0);
        assert_eq!(a.hits.len(), 1);
    }

    #[test]
    fn zoom_plan_pays_for_deep_matches() {
        // Access limited to {W1}: the "database" match (M5 in W4) is
        // inadmissible. Filter plan: no candidate, done. Zoom plan: builds
        // the full Fig. 5 answer, then coarsens (2 steps: drop W4 subtree
        // via W2... the disallowed members are W2 and W4 — W4 deepest
        // first, then W2), then discards the hit when the match vanishes.
        let (repo, index) = setup();
        let acc = access(&repo, &[0]);
        let q = KeywordQuery::parse("Database, Disorder Risks");
        let a = filter_then_search(&repo, &index, &q, &acc);
        let b = search_then_zoom_out(&repo, &index, &q, &acc);
        assert!(a.hits.is_empty());
        assert!(b.hits.is_empty());
        assert!(same_answers(&a, &b));
        assert_eq!(a.zoom_steps, 0);
        assert_eq!(b.zoom_steps, 2);
        assert_eq!(b.discarded, 1);
        assert!(b.views_built > a.views_built);
    }

    #[test]
    fn zoom_plan_coarsens_but_keeps_shallow_matches() {
        // Query "risk" matches M2 at top level; access {W1} keeps it.
        // With full search the minimal view is already {W1}: no zooming.
        let (repo, index) = setup();
        let acc = access(&repo, &[0]);
        let q = KeywordQuery::parse("risk");
        let a = filter_then_search(&repo, &index, &q, &acc);
        let b = search_then_zoom_out(&repo, &index, &q, &acc);
        assert_eq!(a.hits.len(), 1);
        assert!(same_answers(&a, &b));
    }

    #[test]
    fn zoom_plan_coarsens_alternative_matches() {
        // "pubmed" matches M12 (W3) and M7 (W4). Full search picks M12
        // (fewest added workflows). Access {W1, W2, W4}: W3 is
        // inadmissible; the zoom plan coarsens and discards, while the
        // filter plan finds the admissible alternative M7 directly —
        // the oblivious plan can lose answers the filtered plan keeps,
        // which is exactly why Sec. 4 calls for user-specific evaluation.
        let (repo, index) = setup();
        let acc = access(&repo, &[0, 1, 3]);
        let q = KeywordQuery::parse("pubmed");
        let a = filter_then_search(&repo, &index, &q, &acc);
        let b = search_then_zoom_out(&repo, &index, &q, &acc);
        assert_eq!(a.hits.len(), 1, "filter plan finds M7 in W4");
        let entry = repo.entry(SpecId(0)).unwrap();
        let m = fixtures::handles(&entry.spec);
        assert_eq!(a.hits[0].matched[0].1, m.m7);
        assert_eq!(b.hits.len(), 0, "zoom plan coarsened its M12 answer away");
        assert!(b.zoom_steps > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// What does hold between the plans, over generated corpora and
        /// every kind of view rule: both release only views inside the
        /// access prefix, and every spec the zoom plan releases the filter
        /// plan releases too.
        #[test]
        fn zoom_plan_hit_specs_are_filter_plan_hit_specs(
            seed in proptest::prelude::any::<u64>(),
            specs in 1usize..6,
            rule in 0usize..5,
            query in 0usize..5,
        ) {
            use ppwf_core::policy::AccessLevel;
            use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
            use ppwf_workloads::genspec::{generate_spec, SpecParams};
            let mut repo = Repository::new();
            for i in 0..specs as u64 {
                let params = SpecParams { seed: seed.wrapping_add(i), ..SpecParams::default() };
                repo.insert_spec(generate_spec(&params), Policy::public()).unwrap();
            }
            let index = KeywordIndex::build(&repo);
            let rules = [
                ViewRule::Full,
                ViewRule::RootOnly,
                ViewRule::MaxDepth(1),
                ViewRule::MaxDepth(2),
                ViewRule::Explicit(vec![0, 2, 3]),
            ];
            let mut registry = PrincipalRegistry::new();
            registry.add_group("g", AccessLevel(1), rules[rule].clone());
            let access = registry.access_map(&repo, "g").unwrap();
            let text = ["kw0", "kw1", "kw0, kw1", "kw2, kw3", "kw1, kw4"][query];
            let q = KeywordQuery::parse(text);
            let filter = filter_then_search(&repo, &index, &q, &access);
            let zoom = search_then_zoom_out(&repo, &index, &q, &access);
            for hit in filter.hits.iter().chain(&zoom.hits) {
                proptest::prop_assert!(hit.prefix.coarser_or_equal(&access[&hit.spec]));
            }
            let filter_specs: Vec<SpecId> = filter.hits.iter().map(|h| h.spec).collect();
            for hit in &zoom.hits {
                proptest::prop_assert!(
                    filter_specs.contains(&hit.spec),
                    "zoom released {:?} for {:?}, filter did not", hit.spec, text
                );
            }
        }
    }

    #[test]
    fn uniform_access_caps_by_principal_view() {
        let (repo, _) = setup();
        let entry = repo.entry(SpecId(0)).unwrap();
        let admin = Principal::admin(&entry.hierarchy);
        let acc = uniform_access(&repo, &admin);
        assert_eq!(acc[&SpecId(0)].len(), 4);
        let public = Principal::public(&entry.hierarchy);
        let acc = uniform_access(&repo, &public);
        assert_eq!(acc[&SpecId(0)].len(), 1);
    }
}
