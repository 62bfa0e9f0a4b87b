//! A memo of flattened specification views, keyed by structure.
//!
//! Sec. 2 makes the view the access-control primitive and Sec. 4 makes it
//! the keyword answer itself (Fig. 5: "the query answer is given as a
//! minimal view"), so every hit of every query fetches a `SpecView` for
//! some `(spec, prefix)` pair, and distinct queries overwhelmingly
//! re-request the same pairs: access views come from a small set of user
//! groups, answer prefixes concentrate on the hierarchy's upper lattice.
//!
//! **What a view reads.** `SpecView::build` reads a specification's
//! structure (modules, edges, channel names), its expansion hierarchy and
//! the prefix — nothing else: no policy, no execution, no module text. No
//! [`Mutation`](crate::mutation::Mutation) kind changes any of those once a
//! spec is inserted (`EditSpec` is text-only by type), which is the split
//! between slow-changing workflow structure and append-heavy provenance the
//! rest of the write path is built around. A view is therefore a function
//! of structure, and the memo is keyed by structure rather than tagged with
//! a repository version: one slot per [`SpecId`] holds the spec's views
//! beside the `Arc<ExpansionHierarchy>` they were built from. That `Arc` is
//! allocated once per inserted spec and shared by every shallow copy of its
//! entry, so pointer equality with the requested entry's hierarchy proves
//! the slot describes the same structure; a mismatch (another repository
//! under the same cache) resets the slot, and a deleted spec answers `None`
//! before the memo is consulted. Writes cost the memo nothing: there is no
//! tag to advance, execution appends, inserts and policy swaps never touch
//! it, and its owner drops a slot ([`ViewCache::forget_spec`]) only when the
//! spec is deleted — which returns the memory — or edited, the conservative
//! contract for the one write that rewrites a `Specification`.
//!
//! **The bound is per spec.** A slot holds at most `per_spec` views and
//! replaces its oldest when a further prefix is asked for, so memory scales
//! with the corpus like every other index, one spec's churn never costs
//! another spec a view, and a scan over the whole corpus — wider than any
//! global capacity could hold — keeps every view it built.
//!
//! **Privacy.** The memo cannot widen a view. It is keyed by the exact
//! prefix the caller asked for and a served view's prefix is that key, so
//! it hands a group nothing the group was not already entitled to request
//! and have built: what a principal may see is decided before the lookup,
//! by the access prefix their queries are filtered to, never by what
//! another group left in the slot.
//!
//! Entries are `Arc<SpecView>`: consumers share one materialized view —
//! racing first requests of one pair all get the `Arc` that was published
//! first — and because `DiGraph` memoizes its own transitive closure, the
//! first structural query against a memoized view also warms the closure
//! rows for every later consumer of that same `Arc`.

use crate::cache::CacheStats;
use crate::repository::{Repository, SpecId};
use parking_lot::RwLock;
use ppwf_model::expand::SpecView;
use ppwf_model::hierarchy::{ExpansionHierarchy, Prefix};
use std::sync::Arc;

/// One spec's memoized views, oldest first, and the hierarchy they were
/// built from — the witness that they still describe the spec asked about.
struct Slot {
    hierarchy: Arc<ExpansionHierarchy>,
    views: Vec<(Prefix, Arc<SpecView>)>,
}

impl Slot {
    fn get(&self, prefix: &Prefix) -> Option<Arc<SpecView>> {
        self.views.iter().find(|(p, _)| p == prefix).map(|(_, view)| Arc::clone(view))
    }
}

/// A concurrent per-spec memo of flattened views.
pub struct ViewCache {
    /// Indexed by [`SpecId`].
    slots: RwLock<Vec<Option<Slot>>>,
    per_spec: usize,
    stats: CacheStats,
}

impl ViewCache {
    /// Create with a maximum number of views held *per spec*.
    pub fn new(per_spec: usize) -> Self {
        assert!(per_spec > 0, "view bound must be positive");
        ViewCache { slots: RwLock::new(Vec::new()), per_spec, stats: CacheStats::default() }
    }

    /// Statistics: `misses` are builds, `evictions` views replaced inside a
    /// full slot, `invalidations` slots dropped or reset.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of views held, over all specs.
    pub fn len(&self) -> usize {
        self.slots.read().iter().flatten().map(|slot| slot.views.len()).sum()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything.
    pub fn clear(&self) {
        self.slots.write().clear();
    }

    /// Drop `spec`'s views: it was deleted, or its specification rewritten.
    pub fn forget_spec(&self, spec: SpecId) {
        let dropped = self.slots.write().get_mut(spec.index()).and_then(Option::take);
        if dropped.is_some() {
            self.stats.record_invalidation();
        }
    }

    /// The view of `spec` under `prefix`, built at most once while its slot
    /// has room for it. Returns `None` when the spec does not exist or the
    /// prefix is invalid for its hierarchy (mirroring `SpecView::build`
    /// failure). A hit is a slot index, a pointer comparison and a scan of
    /// at most `per_spec` prefixes under the shared lock — nothing hashed,
    /// nothing allocated.
    pub fn view(&self, repo: &Repository, spec: SpecId, prefix: &Prefix) -> Option<Arc<SpecView>> {
        let entry = repo.entry(spec)?;
        let current = |slot: &Slot| Arc::ptr_eq(&slot.hierarchy, &entry.hierarchy);
        let hit = match self.slots.read().get(spec.index()) {
            Some(Some(slot)) if current(slot) => slot.get(prefix),
            _ => None,
        };
        if hit.is_some() {
            self.stats.record_hit();
            return hit;
        }
        self.stats.record_miss();
        // Built outside the lock.
        let view = Arc::new(SpecView::build(&entry.spec, &entry.hierarchy, prefix).ok()?);
        let mut slots = self.slots.write();
        if slots.len() <= spec.index() {
            slots.resize_with(spec.index() + 1, || None);
        }
        let slot = &mut slots[spec.index()];
        if slot.take_if(|slot| !current(slot)).is_some() {
            self.stats.record_invalidation();
        }
        let slot = slot.get_or_insert_with(|| Slot {
            hierarchy: Arc::clone(&entry.hierarchy),
            views: Vec::new(),
        });
        // A racing build of the same pair got here first: share its view.
        if let Some(published) = slot.get(prefix) {
            return Some(published);
        }
        if slot.views.len() == self.per_spec {
            slot.views.remove(0);
            self.stats.record_eviction();
        }
        slot.views.push((prefix.clone(), Arc::clone(&view)));
        Some(view)
    }

    /// Panic unless every slot honours the bound and files each view once,
    /// under its own prefix (test instrument).
    #[doc(hidden)]
    pub fn assert_consistent(&self) {
        for slot in self.slots.read().iter().flatten() {
            assert!(slot.views.len() <= self.per_spec, "slot exceeds the per-spec bound");
            for (i, (prefix, view)) in slot.views.iter().enumerate() {
                assert_eq!(view.prefix(), prefix, "view filed under another prefix");
                assert!(slot.views[..i].iter().all(|(p, _)| p != prefix), "prefix held twice");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;

    fn repo() -> Repository {
        let mut r = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        r
    }

    #[test]
    fn second_fetch_shares_the_view() {
        let r = repo();
        let cache = ViewCache::new(8);
        let entry = r.entry(SpecId(0)).unwrap();
        let full = Prefix::full(&entry.hierarchy);
        let a = cache.view(&r, SpecId(0), &full).unwrap();
        let b = cache.view(&r, SpecId(0), &full).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must return the same materialized view");
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(cache.stats().misses(), 1);
    }

    #[test]
    fn distinct_prefixes_get_distinct_views() {
        let r = repo();
        let cache = ViewCache::new(8);
        let entry = r.entry(SpecId(0)).unwrap();
        let full = cache.view(&r, SpecId(0), &Prefix::full(&entry.hierarchy)).unwrap();
        let root = cache.view(&r, SpecId(0), &Prefix::root_only(&entry.hierarchy)).unwrap();
        assert!(!Arc::ptr_eq(&full, &root));
        assert!(full.visible_modules().count() > root.visible_modules().count());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_policy_swap_keeps_the_view_and_a_delete_answers_none() {
        let mut r = repo();
        let cache = ViewCache::new(8);
        let full = Prefix::full(&r.entry(SpecId(0)).unwrap().hierarchy);
        let before = cache.view(&r, SpecId(0), &full).unwrap();
        // Views do not read policies: the swap bumps the repository version
        // and the memo, told nothing, keeps serving the same view.
        r.set_policy(SpecId(0), Policy::public()).unwrap();
        let after = cache.view(&r, SpecId(0), &full).unwrap();
        assert!(Arc::ptr_eq(&before, &after), "a policy swap must not cost a rebuild");
        assert_eq!((cache.stats().misses(), cache.stats().invalidations()), (1, 0));
        // A deleted spec answers `None` before the memo is consulted, even
        // with its slot still populated.
        r.delete_spec(SpecId(0)).unwrap();
        assert!(cache.view(&r, SpecId(0), &full).is_none());
        assert_eq!(cache.len(), 1);
        cache.forget_spec(SpecId(0));
        assert!(cache.is_empty());
    }

    #[test]
    fn views_survive_structure_free_writes() {
        let mut r = repo();
        let cache = ViewCache::new(8);
        let full = Prefix::full(&r.entry(SpecId(0)).unwrap().hierarchy);
        let before = cache.view(&r, SpecId(0), &full).unwrap();
        // Neither an execution append nor another spec's insert can stale a
        // view, and neither needs the memo to be told.
        let exec = {
            let entry = r.entry(SpecId(0)).unwrap();
            fixtures::disease_susceptibility_execution(&entry.spec)
        };
        r.add_execution(SpecId(0), exec).unwrap();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let after = cache.view(&r, SpecId(0), &full).unwrap();
        assert!(Arc::ptr_eq(&before, &after), "the memoized view must keep serving");
        assert_eq!(cache.stats().invalidations(), 0);
    }

    #[test]
    fn forget_spec_drops_only_the_touched_views() {
        let mut r = repo();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let cache = ViewCache::new(8);
        let full0 = Prefix::full(&r.entry(SpecId(0)).unwrap().hierarchy);
        let full1 = Prefix::full(&r.entry(SpecId(1)).unwrap().hierarchy);
        let dropped = cache.view(&r, SpecId(0), &full0).unwrap();
        let kept = cache.view(&r, SpecId(1), &full1).unwrap();

        cache.forget_spec(SpecId(0));
        assert_eq!(cache.len(), 1, "only the named spec's views drop");
        let after = cache.view(&r, SpecId(1), &full1).unwrap();
        assert!(Arc::ptr_eq(&kept, &after), "untouched spec's view must keep serving");
        let rebuilt = cache.view(&r, SpecId(0), &full0).unwrap();
        assert!(!Arc::ptr_eq(&dropped, &rebuilt));
        assert_eq!(cache.stats().invalidations(), 1);
        // Forgetting a spec the memo never saw is not an invalidation.
        cache.forget_spec(SpecId(7));
        assert_eq!(cache.stats().invalidations(), 1);
    }

    #[test]
    fn a_swapped_repository_is_never_served_the_others_views() {
        let (ours, theirs) = (repo(), repo());
        let cache = ViewCache::new(8);
        let full = Prefix::full(&ours.entry(SpecId(0)).unwrap().hierarchy);
        let a = cache.view(&ours, SpecId(0), &full).unwrap();
        // Same id, same prefix, equal structure — but another hierarchy
        // `Arc`, so nothing vouches for the slot: it is reset and rebuilt.
        let b = cache.view(&theirs, SpecId(0), &full).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((cache.stats().invalidations(), cache.len()), (1, 1));
        // A shallow copy shares the hierarchy and therefore the views.
        let copy = theirs.clone();
        assert!(Arc::ptr_eq(&b, &cache.view(&copy, SpecId(0), &full).unwrap()));
        assert_eq!(cache.stats().hits(), 1);
    }

    #[test]
    fn missing_spec_and_bad_prefix_yield_none() {
        let r = repo();
        let cache = ViewCache::new(8);
        let full = Prefix::full(&r.entry(SpecId(0)).unwrap().hierarchy);
        assert!(cache.view(&r, SpecId(9), &full).is_none());
    }

    /// The three prefixes of the fixture hierarchy the bound tests cycle.
    fn three_prefixes(r: &Repository) -> [Prefix; 3] {
        use ppwf_model::ids::WorkflowId;
        let h = &r.entry(SpecId(0)).unwrap().hierarchy;
        let mid = Prefix::from_workflows(h, [WorkflowId::new(0), WorkflowId::new(1)]).unwrap();
        [Prefix::full(h), Prefix::root_only(h), mid]
    }

    #[test]
    fn capacity_bounded() {
        let mut r = repo();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let cache = ViewCache::new(2);
        let prefixes = three_prefixes(&r);
        for _ in 0..4 {
            for p in &prefixes {
                cache.view(&r, SpecId(0), p).unwrap();
                cache.view(&r, SpecId(1), p).unwrap();
                assert!(cache.len() <= 4, "two views per spec, two specs");
            }
        }
        assert!(cache.stats().evictions() > 0);
    }

    #[test]
    fn replacement_stays_inside_one_specs_slot() {
        let mut r = repo();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let cache = ViewCache::new(2);
        let [full, root, mid] = three_prefixes(&r);
        let other = cache.view(&r, SpecId(1), &full).unwrap();
        let oldest = cache.view(&r, SpecId(0), &full).unwrap();
        let second = cache.view(&r, SpecId(0), &root).unwrap();
        assert_eq!(cache.stats().evictions(), 0);
        // A third prefix of spec 0 replaces spec 0's oldest view — whatever
        // was hit since — and costs spec 1 nothing.
        cache.view(&r, SpecId(0), &full).unwrap();
        cache.view(&r, SpecId(0), &mid).unwrap();
        assert_eq!((cache.stats().evictions(), cache.len()), (1, 3));
        assert!(Arc::ptr_eq(&second, &cache.view(&r, SpecId(0), &root).unwrap()));
        assert!(Arc::ptr_eq(&other, &cache.view(&r, SpecId(1), &full).unwrap()));
        let rebuilt = cache.view(&r, SpecId(0), &full).unwrap();
        assert!(!Arc::ptr_eq(&oldest, &rebuilt), "the oldest view was replaced and rebuilt");
    }

    #[test]
    fn closure_warms_once_per_cached_view() {
        let r = repo();
        let cache = ViewCache::new(8);
        let full = Prefix::full(&r.entry(SpecId(0)).unwrap().hierarchy);
        let a = cache.view(&r, SpecId(0), &full).unwrap();
        let rows_ptr = a.graph().closure_rows().as_ptr();
        let b = cache.view(&r, SpecId(0), &full).unwrap();
        // Same Arc ⇒ same memoized closure rows: the expensive structure is
        // computed once and shared by every consumer.
        assert_eq!(rows_ptr, b.graph().closure_rows().as_ptr());
    }
}
