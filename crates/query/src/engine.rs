//! The query engine: the paper's Sec. 4 serving stack assembled into one
//! front door.
//!
//! A repository serves *every* privilege level from one store; what varies
//! per request is the principal's **user group**. The engine therefore owns
//! the shared read structures — the keyword index, the
//! [`ViewCache`](ppwf_repo::view_cache::ViewCache) of flattened views — and
//! a [`GroupCache`](ppwf_repo::cache::GroupCache) per query class, keyed by
//! `(group, query)` exactly as Sec. 4 prescribes: *"consider user groups
//! when utilizing cached information during query processing"*. Two
//! principals of the same group share answers; different groups never do,
//! so fine-grained answers cannot leak into coarse-grained sessions through
//! the cache.
//!
//! Mutations go through [`QueryEngine::mutate`], which consumes a typed
//! [`Mutation`] and keys its maintenance on the returned
//! [`MutationEffect`]: the keyword index folds the effect in
//! ([`KeywordIndex::apply_effect`] — an insert appends, a delete or edit
//! retracts one spec, nothing is rebuilt or re-verified); policy swaps
//! drop only the touched spec's access memo; execution appends — the
//! dominant write, provenance accruing over repeated executions — leave
//! the index, the access memos *and every result cache* untouched, because
//! no keyword, private or ranked answer reads executions. Result caches
//! are therefore tagged with the engine's
//! [`QueryEngine::results_version`], which only moves when an effect can
//! change answers, not with the raw repository version — and an
//! answer-changing write strands only the cached answers it can have
//! changed: it stamps the written spec's vocabulary in the
//! engine's [`TouchStamps`], and a probe that finds an entry with an older
//! tag re-admits it exactly when the stamps show that nothing it depends on
//! was written since (the rules, and why they are a privacy invariant, are
//! in [`ppwf_repo::touch`]).
//!
//! The read structures themselves — the keyword index and the view and
//! access memos — are one [`Shard`], and every write reaches them through
//! `Shard::absorb`. An [`EngineCluster`](crate::cluster::EngineCluster)
//! calls the same function: it owns one repository and N shards, each
//! indexing a partition of it, and the result caches and the stamp table
//! belong to the object that *serves* — the engine here, the cluster's
//! front there. A shard caches no answer, so an answer is cached once.
//!
//! Cold queries resolve access views **lazily**: the engine holds an
//! [`AccessCache`] whose per-group [`AccessResolver`]s resolve a spec's
//! rule only when that spec shows up in candidate postings (or in a hit
//! being coarsened), memoizing products across queries. The former plan —
//! materializing the group's whole-corpus access map per cold query — made
//! access resolution the dominant cold cost (E12 measures the difference);
//! the filter-then-search privacy invariant is untouched, because postings
//! are still filtered before any search work.

use crate::keyword::{KeywordHit, KeywordQuery};
use crate::modes::{Keyword, Part, Private, Ranked, RankedPart, ReadMode, ResultCaches};
use crate::privacy_exec::PrivateSearchOutcome;
use crate::ranking::{RankingMode, TfProfile};
use ppwf_model::Result;
use ppwf_repo::cache::CacheStats;
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::mutation::{Mutation, MutationEffect};
use ppwf_repo::principals::{AccessCache, AccessResolver, PrincipalRegistry};
use ppwf_repo::repository::Repository;
use ppwf_repo::touch::TouchStamps;
use ppwf_repo::view_cache::ViewCache;
use std::sync::Arc;

/// Which privacy-preserving evaluation plan to run (Sec. 4's contrast).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

    pub(crate) fn sum<'a>(many: impl IntoIterator<Item = &'a CacheStats>) -> Self {
        many.into_iter().fold(CacheSnapshot::default(), |acc, s| acc.merge(CacheSnapshot::of(s)))
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

/// Counters of every cache layer the engine runs, for operators and
/// E10/E12.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// The `(spec, prefix)` view memo.
    pub views: CacheSnapshot,
    /// The `(group, query)` keyword-answer cache.
    pub keyword: CacheSnapshot,
    /// The `(group, query)` private-search-outcome cache.
    pub private: CacheSnapshot,
    /// The per-mode `(group, query)` ranking caches, summed.
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
/// in a standalone engine, those placed on it in a cluster: a keyword
/// index and the view and access memos its reads fill. A shard owns no
/// repository (its owner passes the one it indexes) and caches no answer.
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
    /// applies the effect ([`KeywordIndex::apply_effect`]) and reports what
    /// it touched: the vocabulary the spec leaves behind (a cached answer
    /// that named it then must not survive a delete, an edit or a policy
    /// swap), the vocabulary it arrives with (an answer it belongs in now
    /// was computed without it), and whether the document count moved.
    /// That is stamped into `stamps` at clock value `at` — the table of
    /// whoever caches the answers this shard contributes to. Then the memos
    /// drop what the write can have outdated: access prefixes and views
    /// are resolved against a spec's hierarchy, which no write replaces, so
    /// inserts and execution appends drop nothing.
    pub(crate) fn absorb(
        &mut self,
        repo: &Repository,
        effect: &MutationEffect,
        stamps: &mut TouchStamps,
        at: u64,
    ) {
        let touched = self.index.apply_effect(repo, effect);
        stamps.touch(&touched.left, at);
        stamps.touch(touched.arrived, at);
        if touched.docs_moved {
            stamps.touch_docs(at);
        }
        match *effect {
            MutationEffect::PolicyChanged { spec } => self.access.forget_spec(spec),
            MutationEffect::SpecDeleted { spec } | MutationEffect::SpecEdited { spec } => {
                self.access.forget_spec(spec);
                self.views.forget_spec(spec);
            }
            MutationEffect::SpecInserted { .. } | MutationEffect::ExecutionAppended { .. } => {}
        }
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

/// The assembled serving stack. See the module docs.
pub struct QueryEngine {
    repo: Repository,
    registry: PrincipalRegistry,
    /// The read structures over the whole repository.
    shard: Shard,
    /// The `(group, query)` result caches, one per query class.
    results: ResultCaches<RankedPart>,
    /// The version result caches tag their entries with. It advances to
    /// the repository version whenever a [`MutationEffect`] can change
    /// answers (every effect but an execution append) and stays put for
    /// execution appends — so the write-heavy provenance path leaves every
    /// warm `(group, query)` entry an exact-tag hit. Never ahead of
    /// `repo.version()`.
    results_version: u64,
    /// What each move of `results_version` touched: decides which entries
    /// with an older tag are re-admitted. Written only by [`Self::mutate`]
    /// (`&mut self`), read by the `&self` query paths.
    stamps: TouchStamps,
}

/// Default bound on memoized views per spec.
pub(crate) const DEFAULT_VIEW_CAPACITY: usize = 16;
/// Default capacity of each result cache, per query class, in whichever
/// object serves: a standalone engine, or a cluster's front.
pub(crate) const DEFAULT_RESULT_CAPACITY: usize = 4096;

impl QueryEngine {
    /// Assemble an engine with default cache capacities (16 views per spec,
    /// 4096 results per query class).
    pub fn new(repo: Repository, registry: PrincipalRegistry) -> Self {
        Self::with_capacities(repo, registry, DEFAULT_VIEW_CAPACITY, DEFAULT_RESULT_CAPACITY)
    }

    /// Assemble with explicit cache capacities: views memoized *per spec*,
    /// results cached per query class.
    pub fn with_capacities(
        repo: Repository,
        registry: PrincipalRegistry,
        view_capacity: usize,
        result_capacity: usize,
    ) -> Self {
        QueryEngine {
            shard: Shard::new(KeywordIndex::build(&repo), view_capacity),
            results_version: repo.version(),
            repo,
            registry,
            results: ResultCaches::new(result_capacity),
            stamps: TouchStamps::new(),
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

    /// The keyword index currently serving queries.
    pub fn index(&self) -> &KeywordIndex {
        self.shard.index()
    }

    /// The shared view memo.
    pub fn views(&self) -> &ViewCache {
        self.shard.views()
    }

    /// Apply a typed repository mutation, keying every layer's maintenance
    /// on the returned [`MutationEffect`] (`Shard::absorb`):
    ///
    /// The keyword index sees every effect first
    /// ([`KeywordIndex::apply_effect`]) and reports what it touched; then:
    ///
    /// * **spec insert** — the index *appends* the new spec's postings;
    ///   neither memo is told: access prefixes and views are resolved
    ///   against a spec's hierarchy, and no existing hierarchy changed;
    /// * **policy swap** — zero index work, only the touched spec's access
    ///   memo entries drop ([`AccessCache::forget_spec`]); its memoized
    ///   views stay, `Arc` for `Arc` — a view reads structure, never a
    ///   policy;
    /// * **execution append** — zero index work, neither memo is told, and
    ///   results stay *warm*: provenance is not part of any keyword,
    ///   private or ranked answer, so neither [`Self::results_version`]
    ///   nor any stamp moves;
    /// * **spec delete** — the index retracts exactly the retired spec's
    ///   postings, and the spec's access memo entries and view memo slot
    ///   ([`ViewCache::forget_spec`]) drop — a dead id answers `None`
    ///   before either memo is consulted, so this returns their memory;
    /// * **spec edit** — the index retracts and re-indexes the one spec in
    ///   place, with the same per-spec drops as a delete (the conservative
    ///   contract: an edit is text-only by type and neither a prefix nor a
    ///   view reads text).
    ///
    /// Every effect but the execution append advances
    /// [`Self::results_version`] and stamps the written spec's vocabulary —
    /// what it posted before the write *and* what it posts after, as the
    /// index reports them — with the new version, plus the document count
    /// when that moved. Cached answers are then judged one by one at their
    /// next probe: an entry that can have named the written spec (or, if
    /// ranked, read a statistic the write moved) is recomputed, every other
    /// entry is re-admitted at the new version ([`ppwf_repo::touch`] has
    /// the rules).
    ///
    /// A failed mutation (validation error) changes nothing anywhere.
    ///
    /// The engine is the non-durable kernel: logging, fsync and snapshots
    /// live one layer up, in
    /// [`EngineCluster`](crate::cluster::EngineCluster::attach_durability),
    /// which validates and appends a write before it applies it.
    pub fn mutate(&mut self, mutation: Mutation) -> Result<MutationEffect> {
        let effect = self.repo.apply(mutation)?;
        let version = self.repo.version();
        self.shard.absorb(&self.repo, &effect, &mut self.stamps, version);
        if effect.changes_visible_state() {
            self.results_version = version;
        }
        self.stamps.trim(self.index().term_count(), version);
        Ok(effect)
    }

    /// The version result caches are tagged with: advances on effects that
    /// can change answers (everything but execution appends), holds still
    /// across execution appends.
    pub fn results_version(&self) -> u64 {
        self.results_version
    }

    /// Replace the registry (e.g. a group's access rule changed). Result
    /// caches and the access memo are cleared outright: group keys may now
    /// mean different privileges, which no hierarchy witness can see.
    pub fn set_registry(&mut self, registry: PrincipalRegistry) {
        self.registry = registry;
        self.shard.access.clear();
        self.results.clear();
    }

    /// A lazy access resolver for `group` over the current repository —
    /// the cold path's privilege source. Exposed so operators and tests
    /// can drive/inspect resolution directly; query entry points
    /// call it internally after their result-cache probe misses.
    pub fn access_resolver(&self, group: &str) -> Option<AccessResolver<'_>> {
        self.shard.access.resolver(&self.registry, &self.repo, group)
    }

    /// The lazy access memo (counters, memoized sizes).
    pub fn access_cache(&self) -> &AccessCache {
        &self.shard.access
    }

    /// Privilege-filtered keyword search for one group, cached per
    /// `(group, query)`. Returns `None` for unknown groups.
    pub fn search_as(&self, group: &str, query_text: &str) -> Option<Arc<Vec<KeywordHit>>> {
        self.cached(Keyword, group, query_text)
    }

    /// Privacy-preserving search under an explicit plan, cached per
    /// `(group, query)` in a per-plan cache (so the warm probe stays
    /// borrow-only, like [`Self::search_as`]). Returns `None` for unknown
    /// groups.
    pub fn private_search_as(
        &self,
        group: &str,
        query_text: &str,
        plan: Plan,
    ) -> Option<Arc<PrivateSearchOutcome>> {
        self.cached(Private(plan), group, query_text)
    }

    /// Ranked keyword search: the hit list for `(group, query)` and its
    /// ranking under `mode`, computed together and cached together per
    /// `(group, query)` in a per-mode cache — and the warm probe is
    /// allocation-free like the other layers.
    pub fn ranked_search_as(
        &self,
        group: &str,
        query_text: &str,
        mode: RankingMode,
    ) -> Option<(Arc<Vec<KeywordHit>>, Arc<RankedAnswer>)> {
        let (hits, ranked) = &*self.cached(Ranked(mode), group, query_text)?;
        Some((Arc::clone(hits), Arc::clone(ranked)))
    }

    /// The one cached read under every entry point above: probe → resolve
    /// access → compute the part ([`ReadMode::part`]) → insert, in `mode`'s
    /// result cache.
    ///
    /// The cache is probed *before* any access resolution: a warm hit is
    /// one hash lookup plus an `Arc` clone, never a walk of the registry —
    /// that ordering is what E10's warm path measures. An entry with an
    /// older tag than [`Self::results_version`] is served, and re-tagged,
    /// iff the [`TouchStamps`] show no write since can have changed it; so
    /// the first probe of an entry after an answer-changing write also
    /// walks the query's tokens through the stamps, and later probes are
    /// plain hits again. A cold miss builds a lazy [`AccessResolver`], so
    /// only specs with candidate postings pay rule resolution (E12's
    /// cold-path lever) — never the whole corpus, as the former eager
    /// `access_map` did. `None` for unknown groups.
    fn cached<M: ReadMode>(&self, mode: M, group: &str, query_text: &str) -> Option<Arc<Part<M>>> {
        let (cache, version) = (mode.cache(&self.results), self.results_version);
        let vouched = |tag| self.stamps.survives(query_text, tag, M::DEPENDS);
        if let Some(hit) = cache.get_validated(group, query_text, version, vouched) {
            return Some(hit);
        }
        let access = self.access_resolver(group)?;
        let query = KeywordQuery::parse(query_text);
        let answer = Arc::new(mode.part(&self.repo, &self.shard, &access, &query));
        cache.insert(group, query_text, version, Arc::clone(&answer));
        Some(answer)
    }

    /// The engine's touch stamps (test instrument: derived state must start
    /// empty after recovery and stay bounded under vocabulary churn).
    #[cfg(test)]
    pub(crate) fn stamps(&self) -> &TouchStamps {
        &self.stamps
    }

    /// Counters of every cache layer.
    pub fn stats(&self) -> EngineStats {
        let [keyword, private, ranked] = self.results.snapshots();
        EngineStats { keyword, private, ranked, ..self.shard.stats() }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::modes::MAX_RANKED_MODES;
    use ppwf_core::policy::{AccessLevel, Policy};
    use ppwf_model::fixtures;
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

    #[test]
    fn repeated_queries_hit_the_group_cache() {
        let e = engine();
        let a = e.search_as("researchers", "Database, Disorder Risks").unwrap();
        assert_eq!(a.len(), 1);
        let b = e.search_as("researchers", "Database, Disorder Risks").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same group must share the cached answer");
        let stats = e.stats();
        assert_eq!(stats.keyword.hits, 1);
        assert_eq!(stats.keyword.misses, 1);
    }

    #[test]
    fn groups_never_share_answers() {
        let e = engine();
        let fine = e.search_as("researchers", "database").unwrap();
        let coarse = e.search_as("public", "database").unwrap();
        assert_eq!(fine.len(), 1, "full access sees the M5 match");
        assert_eq!(coarse.len(), 0, "root-only access must not see it");
        assert_eq!(e.stats().keyword.hits, 0, "distinct groups cannot hit each other");
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
    fn mutation_invalidates_cached_answers() {
        let mut e = engine();
        let before = e.search_as("researchers", "risk").unwrap();
        assert_eq!(before.len(), 1);
        let (spec, _) = fixtures::disease_susceptibility();
        let effect = e.mutate(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
        assert_eq!(effect.inserted_id(), Some(SpecId(1)));
        let after = e.search_as("researchers", "risk").unwrap();
        assert_eq!(after.len(), 2, "stale single-spec answer served after insert");
        assert!(e.stats().keyword.invalidations >= 1);
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
        assert!(Arc::ptr_eq(&before, &after), "the cached answer must survive the append");
        let stats = e.stats();
        assert_eq!(stats.keyword.invalidations, 0, "nothing was invalidated");
        assert_eq!(stats.access.misses, 1, "and the access memo was not re-resolved");
        // A *cold* query whose minimal view coincides reuses the carried-
        // forward view instead of rebuilding it at the new version.
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
        // Warm: resolves both specs' rules (one candidate posting each).
        e.search_as("researchers", "database").unwrap();
        assert_eq!(e.stats().access.misses, 2);
        let docs = e.index().docs_indexed();

        e.mutate(Mutation::SetPolicy { spec: SpecId(0), policy: Policy::public() }).unwrap();
        assert_eq!(e.index().docs_indexed(), docs, "policy swaps must cost zero index work");
        // Results are stale (policies gate privacy-filtered answers)...
        e.search_as("researchers", "database").unwrap();
        assert!(e.stats().keyword.invalidations >= 1);
        // ...but only the swapped spec's access rule re-resolved.
        assert_eq!(e.stats().access.misses, 3, "exactly one re-resolution, not the corpus");
    }

    #[test]
    fn destructive_mutations_use_targeted_maintenance_and_invalidate() {
        use ppwf_repo::mutation::{ModuleTextEdit, SpecText};
        let mut e = engine();
        let (spec, m) = fixtures::disease_susceptibility();
        e.mutate(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
        assert_eq!(e.search_as("researchers", "database").unwrap().len(), 2);

        // Edit spec 1's M5 text: targeted re-index, cached answers for the
        // query drop.
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
        // Distinct plans are distinct cache keys.
        assert_eq!(e.stats().private.misses, 2);
    }

    #[test]
    fn ranked_answers_are_cached_and_ordered() {
        let e = engine();
        let (hits, ranked) =
            e.ranked_search_as("researchers", "query", RankingMode::ExactFull).unwrap();
        assert_eq!(ranked.order.len(), hits.len());
        assert_eq!(ranked.scores.len(), hits.len());
        let (_, again) =
            e.ranked_search_as("researchers", "query", RankingMode::ExactFull).unwrap();
        assert!(Arc::ptr_eq(&ranked, &again));
        assert!(e.stats().ranked.hits >= 1);
    }

    fn ranked_modes(e: &QueryEngine) -> &crate::modes::ModeCaches<RankedPart> {
        &e.results.ranked
    }

    #[test]
    fn mode_churn_cannot_grow_the_ranked_map_unboundedly() {
        let e = engine();
        // A fresh NoisyFull seed per request mints a distinct ModeKey each
        // time — the map must evict old modes, not accumulate them.
        let mut last_lookups = 0u64;
        for seed in 0..3 * MAX_RANKED_MODES as u64 {
            e.ranked_search_as(
                "researchers",
                "query",
                RankingMode::NoisyFull { epsilon: 1.0, seed },
            )
            .unwrap();
            // Evictions must not erase history: the counters stay monotone.
            let ranked = e.stats().ranked;
            let lookups = ranked.hits + ranked.misses;
            assert!(lookups >= last_lookups, "ranked counters went backwards");
            last_lookups = lookups;
        }
        assert!(ranked_modes(&e).mode_count() <= MAX_RANKED_MODES);
        assert_eq!(
            last_lookups,
            3 * MAX_RANKED_MODES as u64,
            "every mode-churn lookup is still accounted for after evictions"
        );
        // A hot mode in steady use survives the churn's evictions.
        e.ranked_search_as("researchers", "query", RankingMode::ExactFull).unwrap();
        for seed in 100..100 + MAX_RANKED_MODES as u64 - 1 {
            e.ranked_search_as(
                "researchers",
                "query",
                RankingMode::NoisyFull { epsilon: 1.0, seed },
            )
            .unwrap();
            e.ranked_search_as("researchers", "query", RankingMode::ExactFull).unwrap();
        }
        assert!(
            ranked_modes(&e).has_mode(&RankingMode::ExactFull.cache_key()),
            "the constantly-touched mode must not be the eviction victim"
        );
    }

    #[test]
    fn eviction_counters_surface_and_survive_mode_churn() {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        repo.insert_spec(spec, Policy::public()).unwrap();
        let mut registry = PrincipalRegistry::new();
        registry.add_group("researchers", AccessLevel(3), ViewRule::Full);
        // Two views, two results per query class and per ranking mode.
        let e = QueryEngine::with_capacities(repo, registry, 2, 2);
        assert_eq!(e.stats().keyword.evictions, 0);
        for q in ["query", "database", "risk", "pubmed"] {
            e.search_as("researchers", q).unwrap();
        }
        let keyword = e.stats().keyword;
        assert_eq!(keyword.evictions, 2, "four distinct answers through a cache of two");
        assert!(keyword.sweep_steps >= keyword.evictions);

        // Each churned mode's cache evicts once before the mode itself is
        // dropped; the tombstone fold must keep those evictions on record.
        let mut last = 0;
        for seed in 0..2 * MAX_RANKED_MODES as u64 {
            let mode = RankingMode::NoisyFull { epsilon: 1.0, seed };
            for q in ["query", "database", "risk"] {
                e.ranked_search_as("researchers", q, mode).unwrap();
            }
            let ranked = e.stats().ranked;
            assert!(ranked.evictions > last, "ranked evictions went backwards or stalled");
            assert!(ranked.sweep_steps >= ranked.evictions);
            last = ranked.evictions;
        }
        assert_eq!(last, 2 * MAX_RANKED_MODES as u64);
        let merged = EngineStats::merged([&e.stats(), &e.stats()]);
        assert_eq!(merged.ranked.evictions, 2 * last);
        assert_eq!(merged.keyword.sweep_steps, 2 * e.stats().keyword.sweep_steps);
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
    fn revalidations_surface_beside_invalidations() {
        let mut e = engine();
        let mode = RankingMode::ExactFull;
        let keyword = e.search_as("researchers", "risk").unwrap();
        let private = e.private_search_as("researchers", "risk", Plan::FilterThenSearch).unwrap();
        let (_, ranked) = e.ranked_search_as("researchers", "risk", mode).unwrap();
        assert_eq!(e.stats().keyword.revalidations, 0);

        // A spec that posts none of the query's tokens: matches cannot have
        // changed, but the document count — which a ranked answer reads —
        // has.
        let spec = spec_speaking("zebra");
        e.mutate(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
        let again = e.search_as("researchers", "risk").unwrap();
        assert!(Arc::ptr_eq(&keyword, &again), "an unrelated insert must not strand the answer");
        let again = e.private_search_as("researchers", "risk", Plan::FilterThenSearch).unwrap();
        assert!(Arc::ptr_eq(&private, &again));
        let (_, again) = e.ranked_search_as("researchers", "risk", mode).unwrap();
        assert!(!Arc::ptr_eq(&ranked, &again), "the document count moved under a ranked answer");
        assert_ne!(ranked.scores[0].to_bits(), again.scores[0].to_bits());

        let stats = e.stats();
        // The ranked path caches its hit list with its ranking: the keyword
        // cache saw the two keyword reads alone, one miss and one
        // re-admission.
        assert_eq!((stats.keyword.revalidations, stats.keyword.invalidations), (1, 0));
        assert_eq!((stats.keyword.hits, stats.keyword.misses), (1, 1));
        assert_eq!((stats.private.revalidations, stats.private.invalidations), (1, 0));
        assert_eq!((stats.ranked.revalidations, stats.ranked.invalidations), (0, 1));
        let merged = EngineStats::merged([&stats, &stats]);
        assert_eq!(merged.keyword.revalidations, 2);
        assert_eq!(merged.private.revalidations, 2);
        assert_eq!(merged.ranked.invalidations, 2);

        // A policy swap on the spec the answers name strands all three.
        e.mutate(Mutation::SetPolicy { spec: SpecId(0), policy: Policy::public() }).unwrap();
        let again = e.search_as("researchers", "risk").unwrap();
        assert!(!Arc::ptr_eq(&keyword, &again), "a policy swap outlived by a cached answer");
        assert_eq!(e.stats().keyword.invalidations, 1);
        assert_eq!(e.stats().keyword.revalidations, 1, "monotone");
    }

    #[test]
    fn revalidations_survive_ranked_mode_churn() {
        let mut e = engine();
        let modes: Vec<RankingMode> = (0..2 * MAX_RANKED_MODES as u64)
            .map(|seed| RankingMode::NoisyFull { epsilon: 1.0, seed })
            .collect();
        // Warm one mode, re-admit its entry after a policy swap on a spec the
        // query cannot match, then churn it out of the mode map: the
        // tombstone fold must keep the re-admission on record.
        let spec = spec_speaking("zebra");
        e.mutate(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
        e.ranked_search_as("researchers", "risk", modes[0]).unwrap();
        e.mutate(Mutation::SetPolicy { spec: SpecId(1), policy: Policy::public() }).unwrap();
        e.ranked_search_as("researchers", "risk", modes[0]).unwrap();
        assert_eq!(e.stats().ranked.revalidations, 1);
        for &mode in &modes[1..] {
            e.ranked_search_as("researchers", "risk", mode).unwrap();
        }
        assert!(!ranked_modes(&e).has_mode(&modes[0].cache_key()));
        assert_eq!(e.stats().ranked.revalidations, 1, "history must not vanish with the mode");
    }

    #[test]
    fn stamp_table_stays_bounded_under_fresh_vocabulary_churn() {
        let mut e = engine();
        let mut warm = e.search_as("researchers", "risk").unwrap();
        let (mut previous, mut resets, mut readmitted) = (0, 0, 0);
        for i in 0..400 {
            // Fresh vocabulary in, fresh vocabulary out: the index's live
            // terms do not grow, the set of tokens ever touched does.
            let spec = spec_speaking(&format!("fresh{i}"));
            let id = e
                .mutate(Mutation::InsertSpec { spec, policy: Policy::public() })
                .unwrap()
                .inserted_id()
                .unwrap();
            e.mutate(Mutation::DeleteSpec { spec: id }).unwrap();
            let (stamps, live) = (e.stamps().len(), e.index().term_count());
            assert!(stamps <= 2 * live + 64, "{stamps} stamps for {live} live terms");
            let reset = stamps < previous;
            previous = stamps;
            // Crossing the bound costs every older entry one miss — and
            // nothing but a miss: the recomputed answer is the same answer.
            let again = e.search_as("researchers", "risk").unwrap();
            if reset {
                resets += 1;
                assert!(!Arc::ptr_eq(&warm, &again), "a raised floor strands every older entry");
                warm = Arc::clone(&again);
            } else {
                readmitted += 1;
                assert!(Arc::ptr_eq(&warm, &again), "an unrelated write stranded the answer");
            }
            let fresh = QueryEngine::new(e.repo().clone(), e.registry().clone());
            let reference = fresh.search_as("researchers", "risk").unwrap();
            assert_eq!(again.len(), reference.len());
            for (a, b) in again.iter().zip(reference.iter()) {
                assert_eq!((a.spec, &a.prefix, &a.matched), (b.spec, &b.prefix, &b.matched));
            }
        }
        assert!(resets >= 2, "400 fresh tokens must cross the bound more than once");
        assert_eq!(resets + readmitted, 400);
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

    #[test]
    fn registry_swap_clears_results() {
        let mut e = engine();
        assert_eq!(e.search_as("public", "database").unwrap().len(), 0);
        let mut registry = PrincipalRegistry::new();
        registry.add_group("public", AccessLevel(3), ViewRule::Full);
        e.set_registry(registry);
        assert_eq!(
            e.search_as("public", "database").unwrap().len(),
            1,
            "stale coarse answer served after privilege change"
        );
        let _ = e.repo().entry(SpecId(0)).unwrap();
    }
}
