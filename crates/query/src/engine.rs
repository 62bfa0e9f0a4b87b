//! The query engine: the paper's Sec. 4 read path over one index, as the
//! **uncached reference**.
//!
//! A repository serves *every* privilege level from one store; what varies
//! per request is the principal's **user group**. [`QueryEngine`] owns one
//! repository, one registry and one whole-corpus [`Shard`] — the keyword
//! index and the view and access memos its reads fill — and answers every
//! read the same way: resolve the group's access
//! ([`QueryEngine::access_resolver`]), parse the query, and compute the
//! answer over the shard (`ReadMode::part`). It caches no answer, so two
//! identical reads return two allocations with equal contents. That makes
//! it the oracle the serving stack is held to: an answer the cluster's
//! front cache served must equal what this engine computes, and a cached
//! disclosure that outlived a retraction shows up as a difference.
//!
//! Answers are served — and cached, once — by an
//! [`EngineCluster`](crate::cluster::EngineCluster); a cluster of one shard
//! is what serves when there is one index. Its front keys its result caches
//! by `(group, query)` exactly as Sec. 4 prescribes: *"consider user groups
//! when utilizing cached information during query processing"*. The
//! cluster's shards are this same [`Shard`] type, each indexing a partition
//! of the one repository.
//!
//! Mutations go through [`QueryEngine::mutate`], which consumes a typed
//! [`Mutation`] and folds the returned [`MutationEffect`] into the shard
//! (`Shard::absorb`, which the cluster calls too): the keyword index
//! applies the effect ([`KeywordIndex::apply_effect`] — an insert appends,
//! a delete or edit retracts one spec, nothing is rebuilt), policy swaps
//! drop only the touched spec's access memo, and execution appends — the
//! dominant write — leave index and memos untouched.
//!
//! Reads resolve access views **lazily**: the shard holds an
//! [`AccessCache`] whose per-group [`AccessResolver`]s resolve a spec's
//! rule only when that spec shows up in candidate postings (or in a hit
//! being coarsened), memoizing products across queries. The former plan —
//! materializing the group's whole-corpus access map per cold query — made
//! access resolution the dominant cold cost (E12 measures the difference);
//! the filter-then-search privacy invariant is untouched, because postings
//! are still filtered before any search work.

use crate::keyword::{looked_up, KeywordHit, KeywordQuery};
use crate::modes::{Keyword, Private, Ranked, ReadMode};
use crate::privacy_exec::PrivateSearchOutcome;
use crate::ranking::{idfs_for_terms, RankingMode, TfProfile};
use ppwf_model::Result;
use ppwf_repo::cache::CacheStats;
use ppwf_repo::keyword_index::{KeywordIndex, Touched};
use ppwf_repo::mutation::{Mutation, MutationEffect};
use ppwf_repo::principals::{AccessCache, AccessResolver, PrincipalRegistry};
use ppwf_repo::repository::Repository;
use ppwf_repo::view_cache::ViewCache;
use std::sync::Arc;

/// Which privacy-preserving evaluation plan to run (Sec. 4's contrast).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Plan {
    /// Privacy pushed into the index (the production plan).
    FilterThenSearch,
    /// Oblivious full search, then per-hit coarsening (the costly plan).
    /// Its answers are a subset of [`Plan::FilterThenSearch`]'s by spec,
    /// not equal to them: coarsening can drop a spec whose admissible match
    /// the oblivious search did not pick (see
    /// [`crate::privacy_exec`]).
    SearchThenZoomOut,
}

/// A ranked keyword answer: hit order (best first), scores and profiles
/// aligned with the hit list it was computed from.
#[derive(Debug)]
pub struct RankedAnswer {
    /// Hit indices, best first.
    pub order: Vec<usize>,
    /// Per-hit score under the requested mode.
    pub scores: Vec<f64>,
    /// Per-hit term-frequency profiles.
    pub profiles: Vec<TfProfile>,
}

impl RankedAnswer {
    /// Whether two answers are *bit*-identical: same order and scores
    /// whose `f64` bit patterns match exactly (no epsilon, no NaN
    /// surprises). This is the equality the serving-equivalence suites
    /// assert — an async or sharded path that merely approximates the
    /// single engine's ranking is a divergence, not a rounding artifact.
    pub fn bitwise_eq(&self, other: &RankedAnswer) -> bool {
        self.order == other.order
            && self.scores.len() == other.scores.len()
            && self.scores.iter().zip(&other.scores).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Point-in-time counters of one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Cache hits so far.
    pub hits: u64,
    /// Cache misses so far.
    pub misses: u64,
    /// Probes that rejected an entry tagged with an older version (each
    /// also a miss).
    pub invalidations: u64,
    /// Probes that re-admitted an entry tagged with an older version because
    /// no write since could have changed it (each also a hit). Beside
    /// `invalidations` this says how much of the cache answer-changing
    /// writes strand.
    pub revalidations: u64,
    /// Entries reclaimed to make room in a full cache. Evictions keeping
    /// pace with misses mean the working set does not fit: the cache is
    /// thrashing.
    pub evictions: u64,
    /// Slots the eviction hand inspected; per eviction this stays below ~2
    /// whatever the capacity.
    pub sweep_steps: u64,
}

impl CacheSnapshot {
    pub(crate) fn of(stats: &CacheStats) -> Self {
        CacheSnapshot {
            hits: stats.hits(),
            misses: stats.misses(),
            invalidations: stats.invalidations(),
            revalidations: stats.revalidations(),
            evictions: stats.evictions(),
            sweep_steps: stats.sweep_steps(),
        }
    }

    /// Combine two snapshots (e.g. the same cache class across shards).
    pub fn merge(self, other: CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidations: self.invalidations + other.invalidations,
            revalidations: self.revalidations + other.revalidations,
            evictions: self.evictions + other.evictions,
            sweep_steps: self.sweep_steps + other.sweep_steps,
        }
    }

    /// Hit rate in [0, 1]; defined as 0 when the snapshot records no
    /// lookups at all, so fresh engines and idle shards report 0, never
    /// NaN — and cluster rollups can divide fearlessly.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counters of the caches one index's reads run — the engine's, or one
/// shard's — for operators and E12. Neither caches an answer, so the
/// `keyword`, `private` and `ranked` snapshots read zero; a cluster counts
/// its answers at its front ([`ClusterStats::front`]).
///
/// [`ClusterStats::front`]: crate::cluster::ClusterStats::front
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// The `(spec, prefix)` view memo.
    pub views: CacheSnapshot,
    /// `(group, query)` keyword-answer lookups: none.
    pub keyword: CacheSnapshot,
    /// `(group, query)` private-search-outcome lookups: none.
    pub private: CacheSnapshot,
    /// `(group, query)` ranked-answer lookups: none.
    pub ranked: CacheSnapshot,
    /// The lazy access-view memo: `hits` are memo-served resolutions,
    /// `misses` are rule resolutions actually performed — the E12
    /// instrument (misses ≪ corpus × cold queries is the lazy win).
    pub access: CacheSnapshot,
}

impl EngineStats {
    /// Field-wise sum over many engines' stats — the cluster-level rollup.
    /// Snapshots sum per cache class; rates come from the summed counters,
    /// so shards with zero lookups dilute nothing and divide by nothing.
    pub fn merged<'a>(many: impl IntoIterator<Item = &'a EngineStats>) -> EngineStats {
        many.into_iter().fold(EngineStats::default(), |acc, s| EngineStats {
            views: acc.views.merge(s.views),
            keyword: acc.keyword.merge(s.keyword),
            private: acc.private.merge(s.private),
            ranked: acc.ranked.merge(s.ranked),
            access: acc.access.merge(s.access),
        })
    }
}

/// The read structures over a repository's specifications — all of them
/// in the engine, those placed on it in a cluster: a keyword index and the
/// view and access memos its reads fill. A shard owns no repository (its
/// owner passes the one it indexes) and caches no answer.
pub struct Shard {
    index: KeywordIndex,
    views: ViewCache,
    /// Lazy per-group access-view memos: cold queries resolve rules only
    /// for candidate specs, and the products survive across queries until
    /// the spec's policy swap, delete or edit, or a registry swap.
    access: AccessCache,
}

impl Shard {
    /// A shard over `index`, memoizing up to `views` views per spec.
    pub(crate) fn new(index: KeywordIndex, views: usize) -> Self {
        Shard { index, views: ViewCache::new(views), access: AccessCache::new() }
    }

    /// The shard's keyword index.
    pub fn index(&self) -> &KeywordIndex {
        &self.index
    }

    /// The shard's view memo.
    pub fn views(&self) -> &ViewCache {
        &self.views
    }

    /// The shard's lazy access memo (counters, memoized sizes).
    pub fn access_cache(&self) -> &AccessCache {
        &self.access
    }

    /// Fold one applied write on a spec this shard holds into its read
    /// structures — the one place an effect meets them, for the engine and
    /// the cluster alike. `repo` is the state the write left. The index
    /// applies the effect ([`KeywordIndex::apply_effect`]), and what it
    /// touched is returned for whoever caches the answers this shard
    /// contributes to. Then the memos drop what the write can have
    /// outdated: access prefixes and views are resolved against a spec's
    /// hierarchy, which no write replaces, so inserts and execution appends
    /// drop nothing.
    pub(crate) fn absorb(&mut self, repo: &Repository, effect: &MutationEffect) -> Touched<'_> {
        let touched = self.index.apply_effect(repo, effect);
        match *effect {
            MutationEffect::PolicyChanged { spec } => self.access.forget_spec(spec),
            MutationEffect::SpecDeleted { spec } | MutationEffect::SpecEdited { spec } => {
                self.access.forget_spec(spec);
                self.views.forget_spec(spec);
            }
            MutationEffect::SpecInserted { .. } | MutationEffect::ExecutionAppended { .. } => {}
        }
        touched
    }

    /// Counters of the shard's memos; it has no result cache, so those
    /// snapshots read zero.
    pub(crate) fn stats(&self) -> EngineStats {
        EngineStats {
            views: CacheSnapshot::of(self.views.stats()),
            access: CacheSnapshot::of(self.access.stats()),
            ..EngineStats::default()
        }
    }
}

/// The uncached single-index reference. See the module docs.
pub struct QueryEngine {
    repo: Repository,
    registry: PrincipalRegistry,
    /// The read structures over the whole repository.
    shard: Shard,
}

/// Default bound on memoized views per spec.
pub(crate) const DEFAULT_VIEW_CAPACITY: usize = 16;

impl QueryEngine {
    /// Index `repo` whole, memoizing up to 16 views per spec.
    pub fn new(repo: Repository, registry: PrincipalRegistry) -> Self {
        QueryEngine {
            shard: Shard::new(KeywordIndex::build(&repo), DEFAULT_VIEW_CAPACITY),
            repo,
            registry,
        }
    }

    /// The repository (read-only; mutations go through [`Self::mutate`]).
    pub fn repo(&self) -> &Repository {
        &self.repo
    }

    /// The group registry.
    pub fn registry(&self) -> &PrincipalRegistry {
        &self.registry
    }

    /// The keyword index reads run over.
    pub fn index(&self) -> &KeywordIndex {
        self.shard.index()
    }

    /// The view memo.
    pub fn views(&self) -> &ViewCache {
        self.shard.views()
    }

    /// Apply a typed repository mutation and fold the returned
    /// [`MutationEffect`] into the shard (`Shard::absorb`):
    ///
    /// * **spec insert** — the index *appends* the new spec's postings;
    ///   neither memo is told: access prefixes and views are resolved
    ///   against a spec's hierarchy, and no existing hierarchy changed;
    /// * **policy swap** — zero index work, only the touched spec's access
    ///   memo entries drop ([`AccessCache::forget_spec`]); its memoized
    ///   views stay, `Arc` for `Arc` — a view reads structure, never a
    ///   policy;
    /// * **execution append** — zero index work, neither memo is told:
    ///   provenance is not part of any keyword, private or ranked answer;
    /// * **spec delete** — the index retracts exactly the retired spec's
    ///   postings, and the spec's access memo entries and view memo slot
    ///   ([`ViewCache::forget_spec`]) drop — a dead id answers `None`
    ///   before either memo is consulted, so this returns their memory;
    /// * **spec edit** — the index retracts and re-indexes the one spec in
    ///   place, with the same per-spec drops as a delete (the conservative
    ///   contract: an edit is text-only by type and neither a prefix nor a
    ///   view reads text).
    ///
    /// A failed mutation (validation error) changes nothing anywhere.
    ///
    /// The engine is the non-durable kernel: logging, fsync and snapshots
    /// live in
    /// [`EngineCluster`](crate::cluster::EngineCluster::attach_durability),
    /// which validates and appends a write before it applies it.
    pub fn mutate(&mut self, mutation: Mutation) -> Result<MutationEffect> {
        let effect = self.repo.apply(mutation)?;
        self.shard.absorb(&self.repo, &effect);
        Ok(effect)
    }

    /// A lazy access resolver for `group` over the current repository —
    /// the privilege source of every read. Exposed so operators and tests
    /// can drive/inspect resolution directly.
    pub fn access_resolver(&self, group: &str) -> Option<AccessResolver<'_>> {
        self.shard.access.resolver(&self.registry, &self.repo, group)
    }

    /// The lazy access memo (counters, memoized sizes).
    pub fn access_cache(&self) -> &AccessCache {
        &self.shard.access
    }

    /// Privilege-filtered keyword search for one group. Returns `None` for
    /// unknown groups.
    pub fn search_as(&self, group: &str, query_text: &str) -> Option<Arc<Vec<KeywordHit>>> {
        self.read(Keyword, group, &KeywordQuery::parse(query_text)).map(Arc::new)
    }

    /// Privacy-preserving search under an explicit plan. Returns `None` for
    /// unknown groups.
    pub fn private_search_as(
        &self,
        group: &str,
        query_text: &str,
        plan: Plan,
    ) -> Option<Arc<PrivateSearchOutcome>> {
        self.read(Private(plan), group, &KeywordQuery::parse(query_text)).map(Arc::new)
    }

    /// Ranked keyword search: the hit list for `(group, query)` and its
    /// ranking under `mode`, computed together.
    ///
    /// The one part is scored by the same step as a cluster's merge
    /// (`Ranked::rank`), with this index's IDFs: over one whole-corpus
    /// index they are the corpus IDFs a cluster sums, bit for bit.
    pub fn ranked_search_as(
        &self,
        group: &str,
        query_text: &str,
        mode: RankingMode,
    ) -> Option<(Arc<Vec<KeywordHit>>, Arc<RankedAnswer>)> {
        let query = KeywordQuery::parse(query_text);
        let (hits, profiles) = self.read(Ranked(mode), group, &query)?;
        let ranked = Ranked(mode).rank(&idfs_for_terms(self.index(), &query.terms), profiles);
        Some((Arc::new(hits), Arc::new(ranked)))
    }

    /// The one read under every entry point above: resolve access lazily
    /// (only specs with candidate postings pay rule resolution, E12's
    /// lever), look the query's terms up once on the whole-corpus index
    /// ([`KeywordIndex::term_lists`], as a cluster's plan does per shard)
    /// and compute `mode`'s part over the shard ([`ReadMode::part`]).
    /// `None` for unknown groups.
    fn read<M: ReadMode>(&self, mode: M, group: &str, query: &KeywordQuery) -> Option<M::Part> {
        let access = self.access_resolver(group)?;
        Some(looked_up(self.index(), query, |lookup| {
            mode.part(&self.repo, &self.shard, lookup, &access, query)
        }))
    }

    /// Counters of the view and access memos; the engine has no result
    /// cache, so those snapshots read zero.
    pub fn stats(&self) -> EngineStats {
        self.shard.stats()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::EngineCluster;
    use ppwf_core::policy::{AccessLevel, Policy};
    use ppwf_model::fixtures;
    use ppwf_model::hierarchy::Prefix;
    use ppwf_model::ids::ModuleId;
    use ppwf_repo::principals::ViewRule;
    use ppwf_repo::repository::SpecId;

    fn engine() -> QueryEngine {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        repo.insert_spec(spec, Policy::public()).unwrap();
        let mut registry = PrincipalRegistry::new();
        registry.add_group("public", AccessLevel(0), ViewRule::RootOnly);
        registry.add_group("researchers", AccessLevel(3), ViewRule::Full);
        QueryEngine::new(repo, registry)
    }

    /// What a hit releases: spec, prefix and match set.
    type Released = (SpecId, Prefix, Vec<(String, ModuleId)>);

    fn released(hits: &[KeywordHit]) -> Vec<Released> {
        hits.iter().map(|h| (h.spec, h.prefix.clone(), h.matched.clone())).collect()
    }

    #[test]
    fn the_engine_caches_no_answer() {
        let e = engine();
        let (q, plan, mode) =
            ("Database, Disorder Risks", Plan::FilterThenSearch, RankingMode::ExactFull);
        let (a, b) =
            (e.search_as("researchers", q).unwrap(), e.search_as("researchers", q).unwrap());
        assert!(!Arc::ptr_eq(&a, &b), "a keyword answer was cached");
        assert_eq!(a.len(), 1);
        assert_eq!(released(&a), released(&b));
        let a = e.private_search_as("researchers", q, plan).unwrap();
        let b = e.private_search_as("researchers", q, plan).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "a private answer was cached");
        assert_eq!(released(&a.hits), released(&b.hits));
        assert_eq!(
            (a.views_built, a.zoom_steps, a.discarded),
            (b.views_built, b.zoom_steps, b.discarded)
        );
        let (hits_a, ranked_a) = e.ranked_search_as("researchers", q, mode).unwrap();
        let (hits_b, ranked_b) = e.ranked_search_as("researchers", q, mode).unwrap();
        assert!(!Arc::ptr_eq(&hits_a, &hits_b) && !Arc::ptr_eq(&ranked_a, &ranked_b));
        assert_eq!(released(&hits_a), released(&hits_b));
        assert!(ranked_a.bitwise_eq(&ranked_b));
        let stats = e.stats();
        assert_eq!([stats.keyword, stats.private, stats.ranked], [CacheSnapshot::default(); 3]);
        assert!(stats.access.hits > 0 && stats.views.hits > 0, "the memos still serve");
    }

    #[test]
    fn groups_never_share_answers() {
        let e = engine();
        let fine = e.search_as("researchers", "database").unwrap();
        let coarse = e.search_as("public", "database").unwrap();
        assert_eq!(fine.len(), 1, "full access sees the M5 match");
        assert_eq!(coarse.len(), 0, "root-only access must not see it");
    }

    #[test]
    fn unknown_group_is_refused() {
        let e = engine();
        assert!(e.search_as("nobody", "database").is_none());
    }

    #[test]
    fn cold_queries_resolve_access_lazily() {
        let e = engine();
        // No candidate postings: no rule may resolve (the eager plan would
        // have walked the whole corpus here).
        e.search_as("researchers", "unobtainium").unwrap();
        assert_eq!(e.stats().access.misses, 0, "no candidates, no rule resolutions");
        // One candidate spec: exactly one rule resolution.
        e.search_as("researchers", "database").unwrap();
        assert_eq!(e.stats().access.misses, 1);
        // Another query over the same spec: the memo serves it.
        e.search_as("researchers", "risk").unwrap();
        assert_eq!(e.stats().access.misses, 1, "memo must absorb the second touch");
        assert!(e.stats().access.hits >= 1);
    }

    #[test]
    fn insert_appends_to_the_index_without_rebuilding() {
        let mut e = engine();
        let docs = e.index().docs_indexed();
        let (spec, _) = fixtures::disease_susceptibility();
        e.mutate(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
        assert_eq!(e.index().docs_indexed(), docs * 2, "only the new spec's modules indexed");
        assert_eq!(e.index().doc_count(), 30);
    }

    #[test]
    fn execution_appends_leave_results_warm_and_index_untouched() {
        let mut e = engine();
        let before = e.search_as("researchers", "risk").unwrap();
        let docs = e.index().docs_indexed();
        let exec = {
            let entry = e.repo().entry(SpecId(0)).unwrap();
            fixtures::disease_susceptibility_execution(&entry.spec)
        };
        let effect = e.mutate(Mutation::AddExecution { spec: SpecId(0), exec }).unwrap();
        assert!(!effect.changes_visible_state());
        assert_eq!(e.index().docs_indexed(), docs, "provenance appends must cost zero index work");
        let after = e.search_as("researchers", "risk").unwrap();
        assert_eq!(released(&before), released(&after), "an append changes no answer");
        let stats = e.stats();
        assert_eq!(stats.access.misses, 1, "and the access memo was not re-resolved");
        // A query whose minimal view coincides reuses the carried-forward
        // view instead of rebuilding it.
        let view_misses = stats.views.misses;
        e.search_as("researchers", "database, pubmed").unwrap();
        let stats = e.stats();
        assert_eq!(stats.views.invalidations, 0, "appends must not stale any view");
        assert!(
            stats.views.hits > 0 || stats.views.misses > view_misses,
            "second query must consult the view cache"
        );
    }

    #[test]
    fn policy_swap_invalidates_results_and_only_the_touched_access_memo() {
        let mut e = engine();
        let (spec, _) = fixtures::disease_susceptibility();
        e.mutate(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
        // Resolves both specs' rules (one candidate posting each).
        assert_eq!(e.search_as("researchers", "database").unwrap().len(), 2);
        assert_eq!(e.stats().access.misses, 2);
        let docs = e.index().docs_indexed();

        e.mutate(Mutation::SetPolicy { spec: SpecId(0), policy: Policy::public() }).unwrap();
        assert_eq!(e.index().docs_indexed(), docs, "policy swaps must cost zero index work");
        assert_eq!(e.search_as("researchers", "database").unwrap().len(), 2);
        // Only the swapped spec's access rule re-resolved.
        assert_eq!(e.stats().access.misses, 3, "exactly one re-resolution, not the corpus");
    }

    #[test]
    fn destructive_mutations_use_targeted_maintenance_and_invalidate() {
        use ppwf_repo::mutation::{ModuleTextEdit, SpecText};
        let mut e = engine();
        let (spec, m) = fixtures::disease_susceptibility();
        e.mutate(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
        assert_eq!(e.search_as("researchers", "database").unwrap().len(), 2);

        // Edit spec 1's M5 text: targeted re-index, and the query's answer
        // drops the edited spec.
        let effect = e
            .mutate(Mutation::EditSpec {
                spec: SpecId(1),
                text: SpecText {
                    edits: vec![ModuleTextEdit {
                        module: m.m5,
                        name: "Sanitized".into(),
                        keywords: vec!["redacted".into()],
                    }],
                },
            })
            .unwrap();
        assert!(effect.is_destructive());
        assert_eq!(e.search_as("researchers", "database").unwrap().len(), 1);
        assert_eq!(e.search_as("researchers", "redacted").unwrap().len(), 1);

        // Delete spec 0: its postings retract, the other spec's answers
        // survive, and the tombstone refuses further destructive writes.
        e.mutate(Mutation::DeleteSpec { spec: SpecId(0) }).unwrap();
        assert!(e.index().docs_retracted() > 0);
        assert_eq!(e.search_as("researchers", "database").unwrap().len(), 0);
        assert_eq!(e.search_as("researchers", "redacted").unwrap().len(), 1);
        assert!(e.mutate(Mutation::DeleteSpec { spec: SpecId(0) }).is_err());
    }

    #[test]
    fn private_plans_agree_through_the_engine() {
        let e = engine();
        let filter = e.private_search_as("public", "risk", Plan::FilterThenSearch).unwrap();
        let zoom = e.private_search_as("public", "risk", Plan::SearchThenZoomOut).unwrap();
        assert!(crate::privacy_exec::same_answers(&filter, &zoom));
    }

    #[test]
    fn ranked_answers_are_cached_and_ordered() {
        let e = engine();
        let mode = RankingMode::ExactFull;
        let (hits, ranked) = e.ranked_search_as("researchers", "query", mode).unwrap();
        assert_eq!(ranked.order.len(), hits.len());
        assert_eq!(ranked.scores.len(), hits.len());
        // Cached where it is served — at a one-shard cluster's front — and
        // bit for bit the reference's ranking.
        let c = EngineCluster::new(e.repo().clone(), e.registry().clone(), 1);
        let served = c.ranked_search_as("researchers", "query", mode).unwrap();
        let again = c.ranked_search_as("researchers", "query", mode).unwrap();
        assert!(Arc::ptr_eq(&served, &again));
        assert_eq!(released(&served.hits), released(&hits));
        assert!(served.ranked.bitwise_eq(&ranked));
    }

    /// The paper's fixture with every proper module renamed to `word` — a
    /// spec that shares no token with the fixture itself.
    pub(crate) fn spec_speaking(word: &str) -> ppwf_model::spec::Specification {
        let (mut spec, _) = fixtures::disease_susceptibility();
        let proper: Vec<_> =
            spec.modules().filter(|m| !m.kind.is_distinguished()).map(|m| m.id).collect();
        for id in proper {
            spec.set_module_text(id, word, &[]).unwrap();
        }
        spec
    }

    #[test]
    fn view_cache_warms_across_queries() {
        let e = engine();
        e.search_as("researchers", "Database, Disorder Risks").unwrap();
        let cold_misses = e.stats().views.misses;
        // A different query whose minimal view coincides reuses the cached
        // view instead of rebuilding it.
        e.search_as("researchers", "database, pubmed").unwrap();
        let stats = e.stats();
        assert!(
            stats.views.hits > 0 || stats.views.misses > cold_misses,
            "second query must consult the view cache"
        );
    }
}
