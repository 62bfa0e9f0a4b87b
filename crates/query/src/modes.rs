//! The read path's one vocabulary: a query **mode** is a value.
//!
//! Sec. 4 of the paper asks the same privacy-filtered question three ways —
//! keyword, private under a [`Plan`], ranked under a [`RankingMode`]. What
//! differs between them is written here once, as the three implementors of
//! [`ReadMode`]: what one shard computes ([`ReadMode::Part`]), what the
//! whole answer is ([`ReadMode::Answer`]) and the [`Class`] the front caches
//! it under, what such an answer depends on ([`Depends`]), how a shard
//! computes its part, and how parts merge into the answer. Everything else —
//! the uncached reference's resolve access → part ([`QueryEngine`]), the
//! cluster's probe, plan, shard run and gather ([`crate::cluster`]), the
//! serving front's fan-out ([`crate::serve`]) — is generic over the mode and
//! written once. A part of one mode handed to another mode's merge is a type
//! error.
//!
//! Computing a part ([`ReadMode::part`]) touches no result cache. There is
//! one cached tier: a cluster caches merged answers at its front, and
//! nothing else caches an answer. That front is **one** [`FrontCache`],
//! keyed by `(group, query, class)`: the [`Class`] says what the query was
//! asked as — keyword, private under a [`Plan`], or ranked under a mode,
//! whose [`ModeKey`] is part of a ranked answer's identity. Every class
//! shares one capacity, one CLOCK hand and one set of counters, so a stream
//! of fresh modes (a new `NoisyFull` seed per request) is just more keys: it
//! competes for slots entry by entry and evicts no other mode's answers
//! wholesale. The warm probe builds the class on the stack and clones one
//! `Arc`, allocating nothing.
//!
//! [`QueryEngine`]: crate::engine::QueryEngine

use crate::cluster::{RankedHits, ReadPlan};
use crate::engine::{Plan, RankedAnswer, Shard};
use crate::keyword::{search_filtered_with_cache, KeywordHit, KeywordQuery};
use crate::privacy_exec::{
    filter_then_search_cached, search_then_zoom_out_cached, PrivateSearchOutcome,
};
use crate::ranking::{
    idfs_for_terms, idfs_from_shard_counts, profiles_for_hits, rank_by_scores, scores_for_profiles,
    ModeKey, RankingMode, TfProfile,
};
use ppwf_repo::cache::GroupCache;
use ppwf_repo::principals::AccessResolver;
use ppwf_repo::repository::Repository;
use ppwf_repo::touch::Depends;
use std::any::Any;
use std::sync::Arc;

/// One way of asking the privacy-filtered question. See the module docs.
pub(crate) trait ReadMode: Copy + Send + Sync + 'static {
    /// What one shard computes for a query under this mode.
    type Part: Send + 'static;
    /// The whole answer: what a cluster front caches and returns.
    type Answer: Send + Sync + 'static;
    /// What a cached answer reads, and so which writes can strand it.
    const DEPENDS: Depends;

    /// The class this mode's answers are cached under at the front. An
    /// entry under it always holds an `Arc<Self::Answer>`.
    fn class(self) -> Class;

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

    fn class(self) -> Class {
        Class::Keyword
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

    fn class(self) -> Class {
        Class::Private(self.0)
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

    fn class(self) -> Class {
        Class::Ranked(self.0.cache_key())
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

/// What a front entry's query was asked as; with the group and the query
/// text, the whole key of one cached answer.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Class {
    Keyword,
    Private(Plan),
    Ranked(ModeKey),
}

/// A cluster front's one result cache: each entry is the `Arc` of the answer
/// its class's mode computes. See the module docs.
pub(crate) type FrontCache = GroupCache<Class, Arc<dyn Any + Send + Sync>>;
