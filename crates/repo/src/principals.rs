//! A registry of user groups and their per-specification access views.
//!
//! The paper's Sec. 4 talks about "user groups" as the unit of cached-answer
//! sharing and privilege management. [`PrincipalRegistry`] is the
//! repository-side directory: each group has a clearance level and, for each
//! specification, an access-view *policy* that is resolved against the
//! spec's hierarchy on demand (so registering a group does not require the
//! specs to exist yet). Resolution products feed directly into
//! [`crate::keyword_index::KeywordIndex::lookup_filtered`] and the query
//! layer's `AccessMap`.
//!
//! Resolution comes in two shapes, both usable wherever a [`SpecAccess`] is
//! accepted:
//!
//! * **Eager** — [`PrincipalRegistry::access_map`] materializes the whole
//!   `(SpecId → Prefix)` map up front. O(corpus) rule resolutions per call,
//!   which made it the dominant cold-query cost; it survives as the
//!   baseline the E12 benchmark measures lazy resolution against.
//! * **Lazy** — [`AccessCache::resolver`] hands out an [`AccessResolver`]
//!   that resolves a rule only when a concrete spec is asked about (a
//!   candidate posting, a hit being coarsened) and memoizes the product
//!   per group across queries, beside the hierarchy `Arc` it was resolved
//!   against — the witness that it still describes the spec (see
//!   [`AccessCache`]). The module-privacy boundary is per-spec, so a query
//!   touching 3 specs of a 100 000-spec corpus resolves 3 rules, not
//!   100 000.

use crate::cache::CacheStats;
use crate::repository::{Repository, SpecId};
use parking_lot::RwLock;
use ppwf_core::policy::AccessLevel;
use ppwf_model::hierarchy::{ExpansionHierarchy, Prefix};
use ppwf_model::ids::WorkflowId;
use std::collections::HashMap;
use std::sync::Arc;

/// How a group's access view is derived for a specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewRule {
    /// See everything (the finest prefix).
    Full,
    /// See only the root workflow.
    RootOnly,
    /// See the hierarchy down to the given depth (root = 0).
    MaxDepth(u32),
    /// See an explicit workflow set (ids resolved per spec; invalid sets
    /// degrade to root-only rather than failing the query path).
    Explicit(Vec<u32>),
}

impl ViewRule {
    /// Resolve the rule against one hierarchy.
    pub fn resolve(&self, h: &ExpansionHierarchy) -> Prefix {
        match self {
            ViewRule::Full => Prefix::full(h),
            ViewRule::RootOnly => Prefix::root_only(h),
            ViewRule::MaxDepth(d) => {
                let ws = h.preorder().into_iter().filter(|&w| h.depth(w) <= *d).collect::<Vec<_>>();
                Prefix::from_workflows(h, ws).expect("depth cut is parent-closed")
            }
            ViewRule::Explicit(ids) => {
                let ws: Vec<WorkflowId> = ids
                    .iter()
                    .filter(|&&i| (i as usize) < h.len())
                    .map(|&i| WorkflowId::new(i as usize))
                    .collect();
                Prefix::from_workflows(h, ws).unwrap_or_else(|_| Prefix::root_only(h))
            }
        }
    }
}

/// One user group.
#[derive(Clone, Debug)]
pub struct Group {
    /// Group name (the cache key namespace).
    pub name: String,
    /// Clearance level for data/module/structure requirements.
    pub level: AccessLevel,
    /// Default view rule for specs without an override.
    pub default_rule: ViewRule,
    /// Per-spec overrides.
    pub overrides: HashMap<SpecId, ViewRule>,
}

/// The registry.
#[derive(Clone, Debug, Default)]
pub struct PrincipalRegistry {
    groups: Vec<Group>,
}

impl PrincipalRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        PrincipalRegistry::default()
    }

    /// Register a group; returns its index. Names must be unique.
    pub fn add_group(
        &mut self,
        name: impl Into<String>,
        level: AccessLevel,
        default_rule: ViewRule,
    ) -> usize {
        let name = name.into();
        assert!(self.groups.iter().all(|g| g.name != name), "duplicate group name `{name}`");
        self.groups.push(Group { name, level, default_rule, overrides: HashMap::new() });
        self.groups.len() - 1
    }

    /// Set a per-spec override for a group.
    pub fn set_override(&mut self, group: usize, spec: SpecId, rule: ViewRule) {
        self.groups[group].overrides.insert(spec, rule);
    }

    /// Look up a group by name.
    pub fn group(&self, name: &str) -> Option<&Group> {
        self.groups.iter().find(|g| g.name == name)
    }

    /// All group names (registration order).
    pub fn names(&self) -> Vec<&str> {
        self.groups.iter().map(|g| g.name.as_str()).collect()
    }

    /// Resolve a group's access map over the whole repository — the
    /// **eager** plan: every spec's rule is resolved whether or not the
    /// query will touch it. Kept as the baseline that
    /// [`AccessCache::resolver`] is benchmarked against (E12); production
    /// serving goes through the lazy resolver.
    pub fn access_map(&self, repo: &Repository, name: &str) -> Option<HashMap<SpecId, Prefix>> {
        let group = self.group(name)?;
        Some(
            repo.entries()
                .map(|(sid, entry)| {
                    let rule = group.overrides.get(&sid).unwrap_or(&group.default_rule);
                    (sid, rule.resolve(&entry.hierarchy))
                })
                .collect(),
        )
    }
}

/// A resolved access prefix, borrowed from an eager map or shared out of a
/// resolver's memo. Derefs to [`Prefix`] so call sites filter postings and
/// coarsen hits without caring which plan produced the view.
#[derive(Clone, Debug)]
pub enum AccessPrefix<'a> {
    /// Borrowed from an eager `(SpecId → Prefix)` map.
    Borrowed(&'a Prefix),
    /// Shared out of an [`AccessResolver`] memo.
    Shared(Arc<Prefix>),
}

impl std::ops::Deref for AccessPrefix<'_> {
    type Target = Prefix;

    fn deref(&self) -> &Prefix {
        match self {
            AccessPrefix::Borrowed(p) => p,
            AccessPrefix::Shared(p) => p,
        }
    }
}

/// Query-time access to one principal group's per-spec views. The filtered
/// search paths are generic over this, so the eager whole-corpus map and
/// the lazy memoized resolver serve the same call sites — and equivalence
/// between the two is a checkable property, not an architectural hope.
pub trait SpecAccess {
    /// The group's access prefix for `spec`, or `None` when the spec is
    /// invisible to the principal (absent from an eager map, or a dead id).
    fn prefix_of(&self, spec: SpecId) -> Option<AccessPrefix<'_>>;

    /// Whether `workflow` of `spec` is admissible under the group's view.
    fn admissible(&self, spec: SpecId, workflow: WorkflowId) -> bool {
        self.prefix_of(spec).is_some_and(|p| p.contains(workflow))
    }
}

impl SpecAccess for HashMap<SpecId, Prefix> {
    fn prefix_of(&self, spec: SpecId) -> Option<AccessPrefix<'_>> {
        self.get(&spec).map(AccessPrefix::Borrowed)
    }
}

/// One memoized resolution: the hierarchy the rule was resolved against —
/// the witness that the prefix still describes the spec asked about — and
/// the prefix.
type Resolved = (Arc<ExpansionHierarchy>, Arc<Prefix>);

/// One group's lazily filled memo.
type GroupMemo = RwLock<HashMap<SpecId, Resolved>>;

/// A process-lifetime cache of per-group access-view memos, the backing
/// store for [`AccessResolver`]s. Memos survive across queries — the
/// second query touching a spec reuses the first query's rule resolution.
///
/// A rule resolves against a spec's expansion hierarchy and nothing else,
/// and the hierarchy is derived once at insert and shared by every shallow
/// copy of the entry, so each memo entry keeps the hierarchy `Arc` it was
/// resolved against and is served only while the repository's entry holds
/// that same `Arc` (the rule [`ViewCache`](crate::view_cache::ViewCache)
/// keys its views by). A dead id answers `None` before the memo is
/// consulted. Writes therefore cost the memo nothing: no tag is re-stamped
/// on an insert or an execution append, and the owner drops one spec's
/// entries ([`AccessCache::forget_spec`]) only on a policy swap, a delete
/// or an edit. Registry swaps must go through [`AccessCache::clear`]:
/// group names may now mean different privileges, which no witness can
/// see.
///
/// Statistics reuse [`CacheStats`]: `hits` are memo-served resolutions,
/// `misses` are actual rule resolutions against a hierarchy (the work lazy
/// evaluation exists to avoid), `invalidations` are memo entries dropped or
/// replaced.
#[derive(Debug, Default)]
pub struct AccessCache {
    groups: RwLock<HashMap<String, Arc<GroupMemo>>>,
    stats: CacheStats,
}

impl AccessCache {
    /// Empty cache.
    pub fn new() -> Self {
        AccessCache::default()
    }

    /// Resolution counters (memo hits / rule resolutions / invalidations).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Drop every group memo. Required after a registry swap: memoized
    /// prefixes embody the *old* rules and group names may now mean
    /// different privileges.
    pub fn clear(&self) {
        self.groups.write().clear();
    }

    /// Number of specs currently memoized for `group` (diagnostics; the
    /// lazy-vs-eager tests assert this stays ≪ corpus for selective loads).
    pub fn memoized_len(&self, group: &str) -> usize {
        self.groups.read().get(group).map_or(0, |m| m.read().len())
    }

    /// Drop `spec`'s memoized prefix in every group: its policy was
    /// swapped, or it was deleted or edited. Today's rules resolve from the
    /// hierarchy alone, so only the delete strictly needs it (to return the
    /// memory); for the other two it is the conservative contract, at
    /// per-spec cost.
    pub fn forget_spec(&self, spec: SpecId) {
        for memo in self.groups.read().values() {
            if memo.write().remove(&spec).is_some() {
                self.stats.record_invalidation();
            }
        }
    }

    /// A lazy resolver for `name`'s views over `repo`. Returns `None` for
    /// unknown groups.
    pub fn resolver<'a>(
        &'a self,
        registry: &'a PrincipalRegistry,
        repo: &'a Repository,
        name: &str,
    ) -> Option<AccessResolver<'a>> {
        let group = registry.group(name)?;
        let known = self.groups.read().get(name).cloned();
        let memo = known.unwrap_or_else(|| {
            Arc::clone(self.groups.write().entry(name.to_string()).or_default())
        });
        Some(AccessResolver::new(repo, group, memo, &self.stats))
    }
}

/// A lazy, per-spec-memoized view of one group's access rules: the unit
/// the query layer threads through filtered search instead of an eager
/// whole-corpus map. `resolve` pays one rule resolution per *distinct spec
/// actually asked about* while its hierarchy lives; everything else is a
/// memo probe.
///
/// The resolver also keeps a per-handle record of which specs it was asked
/// to resolve ([`AccessResolver::resolved_specs`]). That record is the
/// privacy instrument for filter-then-search: the plan's invariant —
/// postings are filtered *before* any search work, so no inadmissible
/// candidate enters timing-observable scoring — implies a resolver driven
/// by it never resolves a spec outside the query's candidate postings
/// union, and the tests assert exactly that.
pub struct AccessResolver<'a> {
    repo: &'a Repository,
    group: &'a Group,
    memo: Arc<GroupMemo>,
    stats: &'a CacheStats,
    /// Per-handle record of resolved specs (the privacy instrument), in
    /// resolution order, a spec asked about again in a row recorded once;
    /// the readers sort and deduplicate. A resolver lives inside one query
    /// invocation on one thread, so this is a `RefCell`, not a lock — the
    /// hot path pays one borrow flag and, per spec run, one push into a
    /// vector, and `AccessResolver` is deliberately `!Sync`.
    touched: std::cell::RefCell<Vec<SpecId>>,
}

impl<'a> AccessResolver<'a> {
    fn new(
        repo: &'a Repository,
        group: &'a Group,
        memo: Arc<GroupMemo>,
        stats: &'a CacheStats,
    ) -> Self {
        AccessResolver { repo, group, memo, stats, touched: std::cell::RefCell::new(Vec::new()) }
    }

    /// Number of specs in the repository — the denominator of the
    /// lazy-vs-eager saving ([`Self::resolved_count`] over this).
    pub fn corpus_len(&self) -> usize {
        self.repo.len()
    }

    /// The group's access prefix for `spec`: memo probe first, rule
    /// resolution on first touch. `None` for dead spec ids, whatever the
    /// memo still holds.
    pub fn resolve(&self, spec: SpecId) -> Option<Arc<Prefix>> {
        let entry = self.repo.entry(spec)?;
        let current = |(hierarchy, _): &Resolved| Arc::ptr_eq(hierarchy, &entry.hierarchy);
        let mut touched = self.touched.borrow_mut();
        if touched.last() != Some(&spec) {
            touched.push(spec);
        }
        drop(touched);
        if let Some((_, hit)) = self.memo.read().get(&spec).filter(|r| current(r)) {
            self.stats.record_hit();
            return Some(Arc::clone(hit));
        }
        let rule = self.group.overrides.get(&spec).unwrap_or(&self.group.default_rule);
        let prefix = Arc::new(rule.resolve(&entry.hierarchy));
        // A racing resolver may have memoized the same spec since the probe
        // (same product: rules are deterministic). Only the insert that
        // wins counts as a miss, so `misses` is the number of resolutions
        // memoized, whatever the interleaving; the loser is served the
        // memoized product like any other hit.
        let mut memo = self.memo.write();
        match memo.get(&spec) {
            Some(won) if current(won) => {
                self.stats.record_hit();
                return Some(Arc::clone(&won.1));
            }
            Some(_) => self.stats.record_invalidation(),
            None => {}
        }
        self.stats.record_miss();
        memo.insert(spec, (Arc::clone(&entry.hierarchy), Arc::clone(&prefix)));
        Some(prefix)
    }

    /// Resolve a batch of specs; dead ids are skipped. Returned in input
    /// order.
    pub fn resolve_many(
        &self,
        specs: impl IntoIterator<Item = SpecId>,
    ) -> Vec<(SpecId, Arc<Prefix>)> {
        specs.into_iter().filter_map(|s| self.resolve(s).map(|p| (s, p))).collect()
    }

    /// Distinct specs this handle has resolved (memo hits included — a
    /// memo probe still *names* the spec, which is what the privacy
    /// assertion cares about).
    pub fn resolved_count(&self) -> usize {
        self.resolved_specs().len()
    }

    /// The distinct specs this handle has resolved, in id order.
    pub fn resolved_specs(&self) -> Vec<SpecId> {
        let mut out = self.touched.borrow().clone();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl SpecAccess for AccessResolver<'_> {
    fn prefix_of(&self, spec: SpecId) -> Option<AccessPrefix<'_>> {
        self.resolve(spec).map(AccessPrefix::Shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;

    fn repo() -> Repository {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        repo.insert_spec(spec, Policy::public()).unwrap();
        repo
    }

    #[test]
    fn rules_resolve() {
        let r = repo();
        let h = &r.entry(SpecId(0)).unwrap().hierarchy;
        assert_eq!(ViewRule::Full.resolve(h).len(), 4);
        assert_eq!(ViewRule::RootOnly.resolve(h).len(), 1);
        // Depth 1 keeps W1, W2, W3 but not W4 (depth 2).
        let d1 = ViewRule::MaxDepth(1).resolve(h);
        assert_eq!(d1.len(), 3);
        assert!(!d1.contains(WorkflowId::new(3)));
        // Explicit {0, 1} = {W1, W2}.
        let e = ViewRule::Explicit(vec![0, 1]).resolve(h);
        assert_eq!(e.len(), 2);
        // Invalid explicit set degrades to root-only.
        let bad = ViewRule::Explicit(vec![3]).resolve(h); // W4 without W2
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn registry_access_maps() {
        let r = repo();
        let mut reg = PrincipalRegistry::new();
        reg.add_group("public", AccessLevel(0), ViewRule::RootOnly);
        let g = reg.add_group("researchers", AccessLevel(3), ViewRule::Full);
        reg.set_override(g, SpecId(0), ViewRule::MaxDepth(1));

        let pub_map = reg.access_map(&r, "public").unwrap();
        assert_eq!(pub_map[&SpecId(0)].len(), 1);
        let res_map = reg.access_map(&r, "researchers").unwrap();
        assert_eq!(res_map[&SpecId(0)].len(), 3, "override applies");
        assert!(reg.access_map(&r, "nobody").is_none());
        assert_eq!(reg.names(), vec!["public", "researchers"]);
    }

    #[test]
    #[should_panic(expected = "duplicate group name")]
    fn duplicate_names_rejected() {
        let mut reg = PrincipalRegistry::new();
        reg.add_group("g", AccessLevel(0), ViewRule::Full);
        reg.add_group("g", AccessLevel(1), ViewRule::Full);
    }

    #[test]
    fn resolver_matches_eager_map() {
        let r = repo();
        let mut reg = PrincipalRegistry::new();
        reg.add_group("public", AccessLevel(0), ViewRule::RootOnly);
        let g = reg.add_group("researchers", AccessLevel(3), ViewRule::Full);
        reg.set_override(g, SpecId(0), ViewRule::MaxDepth(1));
        let cache = AccessCache::new();
        for name in ["public", "researchers"] {
            let eager = reg.access_map(&r, name).unwrap();
            let resolver = cache.resolver(&reg, &r, name).unwrap();
            for (sid, prefix) in &eager {
                assert_eq!(*resolver.resolve(*sid).unwrap(), *prefix, "{name}/{sid:?}");
            }
        }
        assert!(cache.resolver(&reg, &r, "nobody").is_none());
    }

    #[test]
    fn resolver_memo_survives_across_handles() {
        let r = repo();
        let mut reg = PrincipalRegistry::new();
        reg.add_group("g", AccessLevel(1), ViewRule::Full);
        let cache = AccessCache::new();
        {
            let resolver = cache.resolver(&reg, &r, "g").unwrap();
            resolver.resolve(SpecId(0)).unwrap();
        }
        assert_eq!(cache.stats().misses(), 1, "first touch resolves the rule");
        {
            let resolver = cache.resolver(&reg, &r, "g").unwrap();
            resolver.resolve(SpecId(0)).unwrap();
            assert_eq!(resolver.resolved_count(), 1);
            assert_eq!(resolver.resolved_specs(), vec![SpecId(0)]);
        }
        assert_eq!(cache.stats().misses(), 1, "second handle reuses the memo");
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(cache.memoized_len("g"), 1);
    }

    /// A one-workflow repository: its spec 0's full prefix is not the
    /// fixture's.
    fn flat_repo() -> Repository {
        let mut b = ppwf_model::spec::SpecBuilder::new("flat");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, a, b.output(w), &["y"]);
        let mut r = Repository::new();
        r.insert_spec(b.build().unwrap(), Policy::public()).unwrap();
        r
    }

    #[test]
    fn a_swapped_repository_is_never_served_the_others_prefix() {
        let (ours, theirs) = (repo(), flat_repo());
        let mut reg = PrincipalRegistry::new();
        reg.add_group("g", AccessLevel(1), ViewRule::Full);
        let cache = AccessCache::new();
        let a = cache.resolver(&reg, &ours, "g").unwrap().resolve(SpecId(0)).unwrap();
        // Same group, same id, another hierarchy `Arc`: nothing vouches for
        // the memo entry, so the rule resolves against the hierarchy asked
        // about.
        let b = cache.resolver(&reg, &theirs, "g").unwrap().resolve(SpecId(0)).unwrap();
        assert_eq!(*b, ViewRule::Full.resolve(&theirs.entry(SpecId(0)).unwrap().hierarchy));
        assert_ne!(a, b);
        assert_eq!((cache.stats().misses(), cache.stats().invalidations()), (2, 1));
        // A shallow copy shares the hierarchy and therefore the memo entry.
        let copy = theirs.clone();
        let c = cache.resolver(&reg, &copy, "g").unwrap().resolve(SpecId(0)).unwrap();
        assert!(Arc::ptr_eq(&b, &c));
        let again = cache.resolver(&reg, &ours, "g").unwrap().resolve(SpecId(0)).unwrap();
        assert_eq!(again, a);
        assert_eq!(cache.stats().misses(), 3);
    }

    #[test]
    fn an_execution_append_leaves_the_memo_serving_hits() {
        let mut r = repo();
        let mut reg = PrincipalRegistry::new();
        reg.add_group("g", AccessLevel(1), ViewRule::Full);
        let cache = AccessCache::new();
        let before = cache.resolver(&reg, &r, "g").unwrap().resolve(SpecId(0)).unwrap();
        assert_eq!(cache.stats().misses(), 1);

        // Neither an execution append nor another spec's insert touches a
        // hierarchy, and neither needs the memo to be told.
        let exec = {
            let entry = r.entry(SpecId(0)).unwrap();
            fixtures::disease_susceptibility_execution(&entry.spec)
        };
        r.add_execution(SpecId(0), exec).unwrap();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let after = cache.resolver(&reg, &r, "g").unwrap().resolve(SpecId(0)).unwrap();
        assert!(Arc::ptr_eq(&before, &after), "the memoized prefix must keep serving");
        let stats = cache.stats();
        assert_eq!((stats.misses(), stats.hits(), stats.invalidations()), (1, 1, 0));
    }

    #[test]
    fn a_policy_swap_re_resolves_exactly_one_spec() {
        let mut r = repo();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let mut reg = PrincipalRegistry::new();
        reg.add_group("g", AccessLevel(1), ViewRule::Full);
        reg.add_group("h", AccessLevel(0), ViewRule::RootOnly);
        let cache = AccessCache::new();
        for group in ["g", "h"] {
            let resolver = cache.resolver(&reg, &r, group).unwrap();
            resolver.resolve(SpecId(0)).unwrap();
            resolver.resolve(SpecId(1)).unwrap();
        }
        assert_eq!(cache.stats().misses(), 4);

        // Policy swap on spec 0: only its entries drop, in every group.
        r.set_policy(SpecId(0), Policy::public()).unwrap();
        cache.forget_spec(SpecId(0));
        assert_eq!(cache.memoized_len("g"), 1, "the untouched spec's memo survives");
        assert_eq!(cache.stats().invalidations(), 2);
        let resolver = cache.resolver(&reg, &r, "g").unwrap();
        resolver.resolve(SpecId(1)).unwrap();
        assert_eq!(cache.stats().misses(), 4, "untouched spec must not re-resolve");
        resolver.resolve(SpecId(0)).unwrap();
        resolver.resolve(SpecId(0)).unwrap();
        assert_eq!(cache.stats().misses(), 5, "touched spec re-resolves exactly once");
        // Forgetting a spec nobody memoized is not an invalidation.
        cache.forget_spec(SpecId(7));
        assert_eq!(cache.stats().invalidations(), 2);
    }

    #[test]
    fn a_dead_id_answers_none_while_its_memo_entry_exists() {
        let mut r = repo();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let mut reg = PrincipalRegistry::new();
        reg.add_group("g", AccessLevel(1), ViewRule::Full);
        let cache = AccessCache::new();
        let kept = {
            let resolver = cache.resolver(&reg, &r, "g").unwrap();
            resolver.resolve(SpecId(0)).unwrap();
            resolver.resolve(SpecId(1)).unwrap()
        };
        // Nothing tells the cache about the delete: the entry stays, but
        // the id is dead, and that is checked before the memo is.
        r.delete_spec(SpecId(0)).unwrap();
        assert_eq!(cache.memoized_len("g"), 2);
        let resolver = cache.resolver(&reg, &r, "g").unwrap();
        assert!(resolver.resolve(SpecId(0)).is_none());
        assert_eq!(resolver.resolved_count(), 0, "a dead id is not 'resolved'");
        assert!(Arc::ptr_eq(&kept, &resolver.resolve(SpecId(1)).unwrap()));
        drop(resolver);
        cache.forget_spec(SpecId(0));
        assert_eq!(cache.memoized_len("g"), 1);
    }

    #[test]
    fn racing_resolvers_count_each_memoized_resolution_once() {
        // Readers released together all miss the empty memo and resolve the
        // same specs. Only the insert that wins may count as a miss, or
        // `misses` overshoots the resolutions memoized and the multiplexed
        // postings-budget check (`concurrent_serve_privacy`) flakes.
        const SPECS: u32 = 8;
        const THREADS: usize = 4;
        let mut r = Repository::new();
        for _ in 0..SPECS {
            let (spec, _) = fixtures::disease_susceptibility();
            r.insert_spec(spec, Policy::public()).unwrap();
        }
        let mut reg = PrincipalRegistry::new();
        reg.add_group("g", AccessLevel(1), ViewRule::MaxDepth(1));
        for _round in 0..50 {
            let cache = AccessCache::new();
            let barrier = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        let resolver = cache.resolver(&reg, &r, "g").unwrap();
                        barrier.wait();
                        for s in 0..SPECS {
                            resolver.resolve(SpecId(s)).unwrap();
                        }
                    });
                }
            });
            let stats = cache.stats();
            assert_eq!(cache.memoized_len("g"), SPECS as usize);
            assert_eq!(stats.misses(), u64::from(SPECS), "one miss per memoized resolution");
            assert_eq!(stats.hits() + stats.misses(), u64::from(SPECS) * THREADS as u64);
        }
    }

    #[test]
    fn resolver_skips_dead_ids_and_clear_forgets() {
        let r = repo();
        let mut reg = PrincipalRegistry::new();
        reg.add_group("g", AccessLevel(1), ViewRule::Full);
        let cache = AccessCache::new();
        let resolver = cache.resolver(&reg, &r, "g").unwrap();
        assert!(resolver.resolve(SpecId(9)).is_none());
        assert_eq!(resolver.resolved_count(), 0, "dead ids are not 'resolved'");
        let many = resolver.resolve_many([SpecId(0), SpecId(9)]);
        assert_eq!(many.len(), 1);
        drop(resolver);
        cache.clear();
        assert_eq!(cache.memoized_len("g"), 0);
    }

    #[test]
    fn registry_drives_filtered_search() {
        use crate::keyword_index::KeywordIndex;
        let r = repo();
        let index = KeywordIndex::build(&r);
        let mut reg = PrincipalRegistry::new();
        reg.add_group("public", AccessLevel(0), ViewRule::RootOnly);
        reg.add_group("researchers", AccessLevel(3), ViewRule::Full);
        let pub_map = reg.access_map(&r, "public").unwrap();
        let res_map = reg.access_map(&r, "researchers").unwrap();
        // "reformat" (M13, deep in W3) is invisible to the public group.
        assert!(index.lookup_filtered("reformat", &pub_map).is_empty());
        assert_eq!(index.lookup_filtered("reformat", &res_map).len(), 1);
    }
}
