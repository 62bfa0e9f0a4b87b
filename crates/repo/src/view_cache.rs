//! A memoizing cache of flattened specification views.
//!
//! Sec. 4 makes per-query view construction the hot path of the whole
//! system: every keyword hit, every privacy-execution plan and every
//! structural lookup flattens a `SpecView` for some `(spec, prefix)` pair,
//! and distinct queries overwhelmingly re-request the same pairs (access
//! views come from a small set of user groups; answer prefixes concentrate
//! on the hierarchy's upper lattice). The cache keys views by
//! `(SpecId, Prefix)` and tags entries with the repository version at build
//! time, so any repository mutation invalidates stale entries lazily —
//! the exact-tag discipline of [`GroupCache::get`](crate::cache::GroupCache::get);
//! views are never re-admitted across versions. Typed-mutation
//! owners can do better than the raw version tag: [`ViewCache::advance`]
//! carries every entry forward across writes that cannot stale a view
//! (spec inserts, execution appends — views read only immutable spec
//! structure), and [`ViewCache::invalidate_spec`] drops one spec's views
//! on a policy swap instead of the whole cache going cold.
//!
//! Capacity is enforced by the CLOCK core shared with the result caches
//! ([`crate::cache`] documents the policy): a hit sets the entry's
//! reference bit, and a build into a full cache reclaims the first view
//! the hand finds stale or not fetched since its last pass. A sweep over
//! more `(spec, prefix)` pairs than fit therefore evicts in FIFO order,
//! while the views a query mix keeps re-fetching stay resident.
//!
//! Entries are `Arc<SpecView>`: consumers share one materialized view, and
//! because `DiGraph` memoizes its own transitive closure, the first
//! structural query against a cached view also warms the closure rows for
//! every later consumer of that same `Arc` — the "transitive-closure rows
//! ride along" design.

use crate::cache::{CacheStats, ClockCache};
use crate::repository::{Repository, SpecId};
use ppwf_model::expand::SpecView;
use ppwf_model::hierarchy::Prefix;
use std::sync::Arc;

/// A concurrent `(SpecId, Prefix)`-keyed cache of flattened views.
pub struct ViewCache {
    core: ClockCache<SpecId, Prefix, Arc<SpecView>>,
}

impl ViewCache {
    /// Create with a maximum entry count.
    pub fn new(capacity: usize) -> Self {
        ViewCache { core: ClockCache::new(capacity) }
    }

    /// Statistics.
    pub fn stats(&self) -> &CacheStats {
        self.core.stats()
    }

    /// Number of entries held (stale ones included until reclaimed).
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything.
    pub fn clear(&self) {
        self.core.clear();
    }

    /// Carry every cached view forward to `version` *unchanged* — the
    /// typed-mutation fast path for writes that cannot stale a view.
    /// `SpecView::build` reads only the spec's structure, its hierarchy
    /// and the prefix, all immutable once a spec is inserted, so spec
    /// inserts and execution appends leave every cached view exact; only
    /// the version tag needs to move.
    pub fn advance(&self, version: u64) {
        self.core.advance(version);
    }

    /// Per-spec invalidation for a policy swap on `spec`: drop only that
    /// spec's cached views (their slots are compacted away, so the freed
    /// room is reused before anything is evicted), then carry the rest
    /// forward to `version`. Views do not read policies today, so even the
    /// dropped entries are technically still exact — the eviction is the
    /// conservative contract at per-spec cost, mirroring
    /// [`AccessCache::invalidate_spec`](crate::principals::AccessCache::invalidate_spec).
    pub fn invalidate_spec(&self, spec: SpecId, version: u64) {
        if self.core.remove_outer(&spec) {
            self.stats().record_invalidation();
        }
        self.advance(version);
    }

    /// The view of `spec` under `prefix`, built at most once per repository
    /// version. Returns `None` when the spec does not exist or the prefix is
    /// invalid for its hierarchy (mirroring `SpecView::build` failure).
    /// A hit probes with borrowed keys — no `Prefix` clone, no allocation —
    /// and sets the entry's reference bit.
    pub fn view(&self, repo: &Repository, spec: SpecId, prefix: &Prefix) -> Option<Arc<SpecView>> {
        let version = repo.version();
        if let Some(view) = self.core.get(&spec, prefix, version) {
            return Some(view);
        }
        let entry = repo.entry(spec)?;
        let view = Arc::new(SpecView::build(&entry.spec, &entry.hierarchy, prefix).ok()?);
        self.core.insert(&spec, prefix, version, Arc::clone(&view));
        Some(view)
    }

    /// Panic unless index and slab agree (test instrument).
    #[doc(hidden)]
    pub fn assert_consistent(&self) {
        self.core.assert_consistent();
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
    fn repository_mutation_invalidates() {
        let mut r = repo();
        let cache = ViewCache::new(8);
        let full = Prefix::full(&r.entry(SpecId(0)).unwrap().hierarchy);
        let before = cache.view(&r, SpecId(0), &full).unwrap();
        // Any mutation bumps the version; the stale entry must be replaced.
        r.set_policy(SpecId(0), Policy::public()).unwrap();
        let after = cache.view(&r, SpecId(0), &full).unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "stale view served after mutation");
        assert!(cache.stats().invalidations() >= 1);
    }

    #[test]
    fn advance_carries_views_across_structure_free_writes() {
        let mut r = repo();
        let cache = ViewCache::new(8);
        let full = Prefix::full(&r.entry(SpecId(0)).unwrap().hierarchy);
        let before = cache.view(&r, SpecId(0), &full).unwrap();
        // An execution append cannot stale a view: advance instead of
        // letting the version tag invalidate.
        let exec = {
            let entry = r.entry(SpecId(0)).unwrap();
            fixtures::disease_susceptibility_execution(&entry.spec)
        };
        r.add_execution(SpecId(0), exec).unwrap();
        cache.advance(r.version());
        let after = cache.view(&r, SpecId(0), &full).unwrap();
        assert!(Arc::ptr_eq(&before, &after), "advanced view must keep serving");
        assert_eq!(cache.stats().invalidations(), 0);
    }

    #[test]
    fn invalidate_spec_drops_only_the_touched_views() {
        let mut r = repo();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let cache = ViewCache::new(8);
        let full0 = Prefix::full(&r.entry(SpecId(0)).unwrap().hierarchy);
        let full1 = Prefix::full(&r.entry(SpecId(1)).unwrap().hierarchy);
        cache.view(&r, SpecId(0), &full0).unwrap();
        let kept = cache.view(&r, SpecId(1), &full1).unwrap();

        r.set_policy(SpecId(0), Policy::public()).unwrap();
        cache.invalidate_spec(SpecId(0), r.version());
        assert_eq!(cache.len(), 1, "only the swapped spec's views drop");
        let after = cache.view(&r, SpecId(1), &full1).unwrap();
        assert!(Arc::ptr_eq(&kept, &after), "untouched spec's view must keep serving");
        assert_eq!(cache.stats().invalidations(), 1);
    }

    #[test]
    fn missing_spec_and_bad_prefix_yield_none() {
        let r = repo();
        let cache = ViewCache::new(8);
        let full = Prefix::full(&r.entry(SpecId(0)).unwrap().hierarchy);
        assert!(cache.view(&r, SpecId(9), &full).is_none());
    }

    #[test]
    fn capacity_bounded() {
        let r = repo();
        let cache = ViewCache::new(2);
        let entry = r.entry(SpecId(0)).unwrap();
        let prefixes = [Prefix::full(&entry.hierarchy), Prefix::root_only(&entry.hierarchy)];
        for _ in 0..4 {
            for p in &prefixes {
                cache.view(&r, SpecId(0), p).unwrap();
            }
        }
        assert!(cache.len() <= 2);
    }

    #[test]
    fn lru_keeps_touched_views() {
        use ppwf_model::ids::WorkflowId;
        let r = repo();
        let cache = ViewCache::new(2);
        let entry = r.entry(SpecId(0)).unwrap();
        let full = Prefix::full(&entry.hierarchy);
        let root = Prefix::root_only(&entry.hierarchy);
        let mid =
            Prefix::from_workflows(&entry.hierarchy, [WorkflowId::new(0), WorkflowId::new(1)])
                .unwrap();
        let a = cache.view(&r, SpecId(0), &full).unwrap();
        let r0 = cache.view(&r, SpecId(0), &root).unwrap();
        // Touch `full`; inserting a third view must evict `root`, the LRU.
        cache.view(&r, SpecId(0), &full).unwrap();
        cache.view(&r, SpecId(0), &mid).unwrap();
        let b = cache.view(&r, SpecId(0), &full).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "touched view survives eviction");
        let r1 = cache.view(&r, SpecId(0), &root).unwrap();
        assert!(!Arc::ptr_eq(&r0, &r1), "untouched LRU view was evicted and rebuilt");
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
