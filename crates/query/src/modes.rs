//! The read path's one vocabulary: a query **mode** is a value.
//!
//! Sec. 4 of the paper asks the same privacy-filtered question three ways —
//! keyword, private under a [`Plan`], ranked under a [`RankingMode`]. What
//! differs between them is written here once, as the three implementors of
//! [`ReadMode`]: what one shard computes ([`ReadMode::Part`]), what the
//! whole answer is ([`ReadMode::Answer`]) and which front cache holds it,
//! what such an answer depends on ([`Depends`]), how a shard computes its
//! part, and how parts merge into the answer. Everything else — the
//! uncached reference's resolve access → part ([`QueryEngine`]), the
//! cluster's probe, plan, shard run and gather ([`crate::cluster`]), the
//! serving front's fan-out ([`crate::serve`]) — is generic over the mode and
//! written once. A part of one mode handed to another mode's merge is a
//! type error.
//!
//! Computing a part ([`ReadMode::part`]) touches no result cache. There is
//! one cached tier: a cluster caches merged answers at its front, and
//! nothing else caches an answer. [`ResultCaches`] is that front's cache
//! triple: one keyword cache, one cache per [`Plan`] so the warm probe stays
//! borrow-only, and a [`ModeCaches`] map for ranked answers. The ranking
//! *mode* is part of a ranked answer's identity — and modes carry `f64`
//! parameters, so they key an outer map of caches rather than a fixed array
//! like `Plan`. The warm probe builds a stack [`ModeKey`] and clones an
//! `Arc`, allocating nothing. The map itself is bounded at
//! [`MAX_RANKED_MODES`]: workloads that mint unbounded distinct modes (e.g.
//! a fresh `NoisyFull` seed per request) evict the least-recently-used
//! mode's cache instead of growing forever, and evicted caches fold their
//! counters into a tombstone so statistics stay monotone under mode churn.
//!
//! [`QueryEngine`]: crate::engine::QueryEngine

use crate::cluster::{RankedHits, ReadPlan};
use crate::engine::{CacheSnapshot, Plan, RankedAnswer, Shard};
use crate::keyword::{search_filtered_with_cache, KeywordHit, KeywordQuery};
use crate::privacy_exec::{
    filter_then_search_cached, search_then_zoom_out_cached, PrivateSearchOutcome,
};
use crate::ranking::{
    idfs_for_terms, idfs_from_shard_counts, profiles_for_hits, rank_by_scores, scores_for_profiles,
    ModeKey, RankingMode, TfProfile,
};
use parking_lot::RwLock;
use ppwf_repo::cache::GroupCache;
use ppwf_repo::principals::AccessResolver;
use ppwf_repo::repository::Repository;
use ppwf_repo::touch::Depends;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One way of asking the privacy-filtered question. See the module docs.
pub(crate) trait ReadMode: Copy + Send + Sync + 'static {
    /// What one shard computes for a query under this mode.
    type Part: Send + 'static;
    /// The whole answer: what a cluster front caches and returns.
    type Answer: Send + Sync + 'static;
    /// What a cached answer reads, and so which writes can strand it.
    const DEPENDS: Depends;

    /// The cache of `caches` that holds this mode's answers: the keyword and
    /// private caches by reference, a ranking mode's by the `Arc` its map
    /// slot holds (the slot may be evicted while the read runs).
    fn cache(self, caches: &ResultCaches) -> impl Deref<Target = GroupCache<Self::Answer>>;

    /// `shard`'s part of the answer to `query` under `access`, over the
    /// specs of `repo` it indexes. Computed, never looked up: no result
    /// cache is probed or filled here.
    fn part(
        self,
        repo: &Repository,
        shard: &Shard,
        access: &AccessResolver,
        query: &KeywordQuery,
    ) -> Self::Part;

    /// Corpus-global IDFs for `query`, if merging reads them.
    fn corpus_idfs(self, _shards: &[Shard], _query: &KeywordQuery) -> Vec<f64> {
        Vec::new()
    }

    /// Merge the parts of `plan`'s target shards, in target order, into the
    /// whole answer, in spec order.
    fn merge(plan: &ReadPlan<Self>, parts: &[Self::Part]) -> Self::Answer;
}

/// A ranked part: a shard's keyword hits, and their ranking aligned with
/// them.
pub(crate) type RankedPart = (Arc<Vec<KeywordHit>>, Arc<RankedAnswer>);

/// Privilege-filtered keyword search.
#[derive(Clone, Copy)]
pub(crate) struct Keyword;
/// Privacy-preserving search under an explicit plan.
#[derive(Clone, Copy)]
pub(crate) struct Private(pub(crate) Plan);
/// Ranked keyword search under a ranking mode.
#[derive(Clone, Copy)]
pub(crate) struct Ranked(pub(crate) RankingMode);

/// The shards' hits, each list in spec order already, merged in spec
/// order.
fn merge_hits<'a>(per_shard: impl Iterator<Item = &'a Vec<KeywordHit>>) -> Vec<KeywordHit> {
    let mut merged: Vec<KeywordHit> = per_shard.flatten().cloned().collect();
    merged.sort_by_key(|h| h.spec);
    merged
}

impl ReadMode for Keyword {
    type Part = Vec<KeywordHit>;
    type Answer = Vec<KeywordHit>;
    const DEPENDS: Depends = Depends::OnMatches;

    fn cache(self, caches: &ResultCaches) -> impl Deref<Target = GroupCache<Vec<KeywordHit>>> {
        &caches.keyword
    }

    fn part(
        self,
        repo: &Repository,
        shard: &Shard,
        access: &AccessResolver,
        query: &KeywordQuery,
    ) -> Vec<KeywordHit> {
        search_filtered_with_cache(repo, shard.index(), query, access, shard.views())
    }

    fn merge(_plan: &ReadPlan<Self>, parts: &[Vec<KeywordHit>]) -> Vec<KeywordHit> {
        merge_hits(parts.iter())
    }
}

impl ReadMode for Private {
    type Part = PrivateSearchOutcome;
    type Answer = PrivateSearchOutcome;
    const DEPENDS: Depends = Depends::OnMatches;

    /// One cache per plan keeps the warm probe borrow-only — no composite
    /// key to allocate.
    fn cache(self, caches: &ResultCaches) -> impl Deref<Target = GroupCache<PrivateSearchOutcome>> {
        &caches.private[self.0 as usize]
    }

    fn part(
        self,
        repo: &Repository,
        shard: &Shard,
        access: &AccessResolver,
        query: &KeywordQuery,
    ) -> PrivateSearchOutcome {
        let (index, views) = (shard.index(), shard.views());
        match self.0 {
            Plan::FilterThenSearch => filter_then_search_cached(repo, index, query, access, views),
            Plan::SearchThenZoomOut => {
                search_then_zoom_out_cached(repo, index, query, access, views)
            }
        }
    }

    /// The plans' cost counters (views built, zoom steps, discards) are
    /// counts of per-spec work, so their sums equal the single-engine
    /// figures.
    fn merge(_plan: &ReadPlan<Self>, parts: &[PrivateSearchOutcome]) -> PrivateSearchOutcome {
        PrivateSearchOutcome {
            hits: merge_hits(parts.iter().map(|outcome| &outcome.hits)),
            views_built: parts.iter().map(|outcome| outcome.views_built).sum(),
            zoom_steps: parts.iter().map(|outcome| outcome.zoom_steps).sum(),
            discarded: parts.iter().map(|outcome| outcome.discarded).sum(),
        }
    }
}

impl ReadMode for Ranked {
    type Part = RankedPart;
    type Answer = RankedHits;
    const DEPENDS: Depends = Depends::OnStatistics;

    fn cache(self, caches: &ResultCaches) -> impl Deref<Target = GroupCache<RankedHits>> {
        caches.ranked.cache(self.0)
    }

    /// The keyword hits and, in the same call, their TF profiles scored
    /// under the mode with the shard's own IDFs.
    fn part(
        self,
        repo: &Repository,
        shard: &Shard,
        access: &AccessResolver,
        query: &KeywordQuery,
    ) -> RankedPart {
        let hits = Keyword.part(repo, shard, access, query);
        let profiles = profiles_for_hits(repo, &hits, &query.terms);
        let idfs = idfs_for_terms(shard.index(), &query.terms);
        let scores = scores_for_profiles(&idfs, &profiles, self.0);
        let ranked = RankedAnswer { order: rank_by_scores(&scores), scores, profiles };
        (Arc::new(hits), Arc::new(ranked))
    }

    /// Summed over *all* shards — including ones the scatter prunes, whose
    /// document counts still shape the statistics. Per-shard dfs go through
    /// each index's per-term memo: the first request per term per index
    /// build materializes (phrases verify adjacency over postings), every
    /// later one is a map probe.
    fn corpus_idfs(self, shards: &[Shard], query: &KeywordQuery) -> Vec<f64> {
        let doc_counts: Vec<usize> = shards.iter().map(|s| s.index().doc_count()).collect();
        let dfs_per_term: Vec<Vec<usize>> = query
            .terms
            .iter()
            .map(|t| shards.iter().map(|s| s.index().df_cached(t)).collect())
            .collect();
        idfs_from_shard_counts(&doc_counts, &dfs_per_term)
    }

    /// Hits merge with their TF profiles; every profile is rescored with
    /// the plan's corpus-global IDFs ([`scores_for_profiles`] — bitwise the
    /// single engine's math), so scores and order come out bit-identical
    /// to a single engine over the same corpus.
    fn merge(plan: &ReadPlan<Self>, parts: &[RankedPart]) -> RankedHits {
        let mut rows: Vec<(KeywordHit, TfProfile)> = parts
            .iter()
            .flat_map(|(hits, ranked)| hits.iter().cloned().zip(ranked.profiles.iter().cloned()))
            .collect();
        rows.sort_by_key(|(h, _)| h.spec);
        let (hits, profiles): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        let scores = scores_for_profiles(&plan.idfs, &profiles, plan.mode.0);
        let order = rank_by_scores(&scores);
        RankedHits { hits, ranked: RankedAnswer { order, scores, profiles } }
    }
}

/// The `(group, query)` result caches of a cluster front, one per query
/// class. See the module docs.
pub(crate) struct ResultCaches {
    keyword: GroupCache<Vec<KeywordHit>>,
    /// One cache per [`Plan`], indexed by the plan's discriminant.
    private: [GroupCache<PrivateSearchOutcome>; 2],
    /// Crate-visible for the front's mode-churn tests.
    pub(crate) ranked: ModeCaches,
}

impl ResultCaches {
    /// Empty caches of `capacity` entries each (per ranking mode, for
    /// ranked answers).
    pub(crate) fn new(capacity: usize) -> Self {
        ResultCaches {
            keyword: GroupCache::new(capacity),
            private: [GroupCache::new(capacity), GroupCache::new(capacity)],
            ranked: ModeCaches::new(capacity),
        }
    }

    /// Drop every entry (e.g. after a registry swap: group keys may now
    /// mean different privileges, and version tags cannot see that).
    pub(crate) fn clear(&self) {
        self.keyword.clear();
        for cache in &self.private {
            cache.clear();
        }
        self.ranked.clear();
    }

    /// Counters per query class: keyword, private (both plans summed),
    /// ranked (every mode summed, evicted ones included).
    pub(crate) fn snapshots(&self) -> [CacheSnapshot; 3] {
        [
            CacheSnapshot::of(self.keyword.stats()),
            CacheSnapshot::sum(self.private.iter().map(|c| c.stats())),
            self.ranked.snapshot(),
        ]
    }
}

/// Most distinct [`RankingMode`]s cached simultaneously. Real deployments
/// use a handful; the bound only matters for mode-churning workloads.
pub(crate) const MAX_RANKED_MODES: usize = 16;

/// One mode's result cache plus an LRU stamp for mode eviction.
struct ModeSlot {
    cache: Arc<GroupCache<RankedHits>>,
    last_used: AtomicU64,
}

/// The bounded per-mode cache map: per `(group, query)`, a merged hit list
/// with its ranking.
pub(crate) struct ModeCaches {
    slots: RwLock<HashMap<ModeKey, ModeSlot>>,
    tick: AtomicU64,
    /// Counters of evicted mode caches, folded in so [`Self::snapshot`]
    /// stays monotonic under mode churn — history must not vanish with
    /// the victim.
    evicted: RwLock<CacheSnapshot>,
    /// Capacity of each per-mode [`GroupCache`].
    per_mode_capacity: usize,
}

impl ModeCaches {
    fn new(per_mode_capacity: usize) -> Self {
        ModeCaches {
            slots: RwLock::new(HashMap::new()),
            tick: AtomicU64::new(0),
            evicted: RwLock::new(CacheSnapshot::default()),
            per_mode_capacity,
        }
    }

    /// The `(group, query)` cache serving `mode`, created on first use.
    /// The warm path is a read-locked map probe plus an `Arc` clone. A new
    /// mode beyond [`MAX_RANKED_MODES`] evicts the least-recently-used
    /// mode's cache.
    fn cache(&self, mode: RankingMode) -> Arc<GroupCache<RankedHits>> {
        let key = mode.cache_key();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(slot) = self.slots.read().get(&key) {
            slot.last_used.store(tick, Ordering::Relaxed);
            return Arc::clone(&slot.cache);
        }
        let mut guard = self.slots.write();
        if let Some(slot) = guard.get(&key) {
            // A racing request created the slot between our locks.
            slot.last_used.store(tick, Ordering::Relaxed);
            return Arc::clone(&slot.cache);
        }
        if guard.len() >= MAX_RANKED_MODES {
            let victim = guard
                .iter()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
                .expect("nonempty at capacity");
            if let Some(slot) = guard.remove(&victim) {
                // Fold the victim's counters so stats never go backwards.
                let mut evicted = self.evicted.write();
                *evicted = evicted.merge(CacheSnapshot::of(slot.cache.stats()));
            }
        }
        let cache = Arc::new(GroupCache::new(self.per_mode_capacity));
        guard.insert(key, ModeSlot { cache: Arc::clone(&cache), last_used: AtomicU64::new(tick) });
        cache
    }

    /// Summed counters across every live mode cache plus evicted history.
    fn snapshot(&self) -> CacheSnapshot {
        let guard = self.slots.read();
        self.evicted.read().merge(CacheSnapshot::sum(guard.values().map(|slot| slot.cache.stats())))
    }

    /// Clear every mode's cache, keeping the mode slots themselves.
    fn clear(&self) {
        for slot in self.slots.read().values() {
            slot.cache.clear();
        }
    }

    /// Number of live mode slots (test instrument for the churn bound).
    #[cfg(test)]
    pub(crate) fn mode_count(&self) -> usize {
        self.slots.read().len()
    }

    /// Whether `key`'s cache is currently live (test instrument).
    #[cfg(test)]
    pub(crate) fn has_mode(&self, key: &ModeKey) -> bool {
        self.slots.read().contains_key(key)
    }
}
