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

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use crate::cluster::{RankedHits, ReadPlan};
use crate::engine::{Plan, RankedAnswer, Shard};
use crate::keyword::{search_in, KeywordHit, KeywordQuery, Lookup};
use crate::privacy_exec::{filter_then_search_in, search_then_zoom_out_in, PrivateSearchOutcome};
use crate::ranking::{
    profiles_for_hits, profiles_from_postings, rank_by_scores, scores_for_profiles, ModeKey,
    RankingMode, TfProfile,
};
use ppwf_repo::cache::GroupCache;
use ppwf_repo::keyword_index::{KeywordIndex, TermLists};
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
    /// specs of `repo` it indexes, with `lookup` the query resolved on the
    /// shard's index. Computed, never looked up: no result cache is probed
    /// or filled here.
    fn part(
        self,
        repo: &Repository,
        shard: &Shard,
        lookup: Lookup<'_>,
        access: &AccessResolver,
        query: &KeywordQuery,
    ) -> Self::Part;

    /// Corpus-global IDFs for `query`, if merging reads them. `lists` holds
    /// the query resolved on every shard, shard-major: shard `s`'s lists
    /// are `lists[s * n..(s + 1) * n]` for `n` terms.
    fn corpus_idfs(
        self,
        _shards: &[Shard],
        _query: &KeywordQuery,
        _lists: &[TermLists],
    ) -> Vec<f64> {
        Vec::new()
    }

    /// Merge the parts of `plan`'s target shards, handed over in target
    /// order, into the whole answer, in spec order. Every part is already
    /// in spec order, so a single part *is* the answer: it is moved
    /// through, not copied or re-sorted.
    fn merge(plan: &ReadPlan<'_, Self>, parts: Vec<Self::Part>) -> Self::Answer;
}

/// A ranked part: a shard's keyword hits, and their TF profiles aligned
/// with them, unscored — the merge scores the whole answer once.
pub(crate) type RankedPart = (Vec<KeywordHit>, Vec<TfProfile>);

/// Privilege-filtered keyword search.
#[derive(Clone, Copy)]
pub(crate) struct Keyword;
/// Privacy-preserving search under an explicit plan.
#[derive(Clone, Copy)]
pub(crate) struct Private(pub(crate) Plan);
/// Ranked keyword search under a ranking mode.
#[derive(Clone, Copy)]
pub(crate) struct Ranked(pub(crate) RankingMode);

/// The shards' hits, each list in spec order already, merged by move in
/// spec order: a single list is returned as it is; several are
/// concatenated and stably sorted by spec.
fn merge_hits(parts: Vec<Vec<KeywordHit>>) -> Vec<KeywordHit> {
    match <[_; 1]>::try_from(parts) {
        Ok([part]) => part,
        Err(parts) => {
            let mut merged: Vec<KeywordHit> = parts.into_iter().flatten().collect();
            merged.sort_by_key(|h| h.spec);
            merged
        }
    }
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
        lookup: Lookup<'_>,
        access: &AccessResolver,
        query: &KeywordQuery,
    ) -> Vec<KeywordHit> {
        search_in(repo, lookup, query, Some(shard.views()), Some(access))
    }

    fn merge(_plan: &ReadPlan<'_, Self>, parts: Vec<Vec<KeywordHit>>) -> Vec<KeywordHit> {
        merge_hits(parts)
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
        lookup: Lookup<'_>,
        access: &AccessResolver,
        query: &KeywordQuery,
    ) -> PrivateSearchOutcome {
        let views = Some(shard.views());
        match self.0 {
            Plan::FilterThenSearch => filter_then_search_in(repo, lookup, query, access, views),
            Plan::SearchThenZoomOut => search_then_zoom_out_in(repo, lookup, query, access, views),
        }
    }

    /// The plans' cost counters (views built, zoom steps, discards) are
    /// counts of per-spec work, so their sums equal the single-engine
    /// figures.
    fn merge(_plan: &ReadPlan<'_, Self>, parts: Vec<PrivateSearchOutcome>) -> PrivateSearchOutcome {
        let views_built = parts.iter().map(|outcome| outcome.views_built).sum();
        let zoom_steps = parts.iter().map(|outcome| outcome.zoom_steps).sum();
        let discarded = parts.iter().map(|outcome| outcome.discarded).sum();
        let hits = merge_hits(parts.into_iter().map(|outcome| outcome.hits).collect());
        PrivateSearchOutcome { hits, views_built, zoom_steps, discarded }
    }
}

impl ReadMode for Ranked {
    type Part = RankedPart;
    type Answer = RankedHits;
    const DEPENDS: Depends = Depends::OnStatistics;

    fn class(self) -> Class {
        Class::Ranked(self.0.cache_key())
    }

    /// The keyword hits and, in the same call, their TF profiles: read off
    /// the looked-up postings when every term is a single token, by the
    /// module-text scan when some term is a phrase. Nothing is scored
    /// here: scores need corpus-global IDFs, so the merge (or the
    /// reference engine, over its one part) scores once ([`Ranked::rank`]).
    fn part(
        self,
        repo: &Repository,
        shard: &Shard,
        lookup: Lookup<'_>,
        access: &AccessResolver,
        query: &KeywordQuery,
    ) -> RankedPart {
        let hits = Keyword.part(repo, shard, lookup, access, query);
        let profiles = profiles_from_postings(&hits, &query.terms, lookup.lists)
            .unwrap_or_else(|| profiles_for_hits(repo, &hits, &query.terms));
        (hits, profiles)
    }

    /// Summed over *all* shards — including ones the scatter prunes, whose
    /// document counts still shape the statistics. An already-normal single
    /// token's per-shard df is its resolved list's length; any other term's
    /// goes through the shard index's per-term memo (the first request per
    /// term per index build materializes — phrases verify adjacency over
    /// postings — every later one is a map probe). Sums are exact, so the
    /// IDFs are the single engine's bit for bit.
    fn corpus_idfs(self, shards: &[Shard], query: &KeywordQuery, lists: &[TermLists]) -> Vec<f64> {
        let n = query.terms.len();
        let docs = shards.iter().map(|s| s.index().doc_count()).sum();
        let df = |t: usize, term: &str| -> usize {
            let on =
                |(s, shard): (usize, &Shard)| shard.index().df_resolved(term, &lists[s * n + t]);
            shards.iter().enumerate().map(on).sum()
        };
        let idf = |(t, term): (usize, &String)| KeywordIndex::idf_from_counts(docs, df(t, term));
        query.terms.iter().enumerate().map(idf).collect()
    }

    /// Hits merge by move with their TF profiles, and the merged profiles
    /// are scored once with the plan's corpus-global IDFs ([`Ranked::rank`]
    /// — bitwise the single engine's math), so scores and order come out
    /// bit-identical to a single engine over the same corpus.
    fn merge(plan: &ReadPlan<'_, Self>, parts: Vec<RankedPart>) -> RankedHits {
        let (hits, profiles) = match <[_; 1]>::try_from(parts) {
            Ok([part]) => part,
            Err(parts) => {
                let mut rows: Vec<(KeywordHit, TfProfile)> = parts
                    .into_iter()
                    .flat_map(|(hits, profiles)| hits.into_iter().zip(profiles))
                    .collect();
                rows.sort_by_key(|(h, _)| h.spec);
                rows.into_iter().unzip()
            }
        };
        RankedHits { ranked: plan.mode.rank(&plan.idfs, profiles), hits }
    }
}

impl Ranked {
    /// Score `profiles` under the mode with `idfs` and rank them: the one
    /// scoring step of a ranked read. The merge runs it with the plan's
    /// corpus-global IDFs; the reference engine with its whole-corpus
    /// index's, which over one index are the same bits.
    pub(crate) fn rank(self, idfs: &[f64], profiles: Vec<TfProfile>) -> RankedAnswer {
        let scores = scores_for_profiles(idfs, &profiles, self.0);
        RankedAnswer { order: rank_by_scores(&scores), scores, profiles }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::EngineCluster;
    use crate::engine::QueryEngine;
    use ppwf_core::policy::{AccessLevel, Policy};
    use ppwf_model::fixtures;
    use ppwf_repo::principals::{PrincipalRegistry, ViewRule};

    fn corpus(specs: usize) -> Repository {
        let mut repo = Repository::new();
        for _ in 0..specs {
            let (spec, _) = fixtures::disease_susceptibility();
            repo.insert_spec(spec, Policy::public()).unwrap();
        }
        repo
    }

    fn registry() -> PrincipalRegistry {
        let mut registry = PrincipalRegistry::new();
        registry.add_group("researchers", AccessLevel(3), ViewRule::Full);
        registry
    }

    /// `mode`'s plan for `query` on `cluster` and its target shards' parts.
    fn planned<'c, M: ReadMode>(
        cluster: &'c EngineCluster,
        mode: M,
        query: &str,
    ) -> (ReadPlan<'c, M>, Vec<M::Part>) {
        let plan = cluster.plan(mode, "researchers".to_owned(), query.to_owned()).unwrap();
        let parts = (0..plan.targets.len()).map(|slot| cluster.run_shard(&plan, slot)).collect();
        (plan, parts)
    }

    /// What a hit releases: spec, prefix and match set.
    fn released(hits: &[KeywordHit]) -> Vec<impl PartialEq + std::fmt::Debug> {
        hits.iter().map(|h| (h.spec, h.prefix.clone(), h.matched.clone())).collect()
    }

    #[test]
    fn one_part_merge_returns_the_part_itself() {
        let cluster = EngineCluster::new(corpus(3), registry(), 1);

        let (plan, parts) = planned(&cluster, Keyword, "risk");
        assert_eq!(parts.len(), 1);
        let buffer = parts[0].as_ptr();
        let merged = Keyword::merge(&plan, parts);
        assert_eq!(merged.as_ptr(), buffer);

        let (plan, parts) = planned(&cluster, Private(Plan::SearchThenZoomOut), "risk");
        let (buffer, views_built) = (parts[0].hits.as_ptr(), parts[0].views_built);
        let merged = Private::merge(&plan, parts);
        assert_eq!(merged.hits.as_ptr(), buffer);
        assert_eq!(merged.views_built, views_built);

        let (plan, parts) = planned(&cluster, Ranked(RankingMode::ExactFull), "risk, database");
        let (hits, profiles) = (parts[0].0.as_ptr(), parts[0].1.as_ptr());
        let merged = Ranked::merge(&plan, parts);
        assert_eq!(merged.hits.as_ptr(), hits);
        assert_eq!(merged.ranked.profiles.as_ptr(), profiles);
        assert_eq!(merged.hits.len(), 3);
    }

    #[test]
    fn two_part_merge_is_the_sorted_concatenation() {
        // Spec s sits on shard s % 2, so target order concatenates
        // 0, 2, 4, 1, 3: the merge has to sort.
        let cluster = EngineCluster::new(corpus(5), registry(), 2);
        let reference = QueryEngine::new(corpus(5), registry());

        let (plan, parts) = planned(&cluster, Keyword, "risk");
        assert_eq!(parts.len(), 2);
        let mut want: Vec<KeywordHit> = parts.concat();
        want.sort_by_key(|h| h.spec);
        assert_eq!(released(&Keyword::merge(&plan, parts)), released(&want));

        let (plan, parts) = planned(&cluster, Private(Plan::SearchThenZoomOut), "risk");
        let views_built: usize = parts.iter().map(|p| p.views_built).sum();
        let merged = Private::merge(&plan, parts);
        assert_eq!(merged.views_built, views_built);
        assert_eq!(released(&merged.hits), released(&want));

        for mode in [RankingMode::ExactFull, RankingMode::BucketizedFull { base: 2.0 }] {
            let (plan, parts) = planned(&cluster, Ranked(mode), "risk, database");
            let mut rows: Vec<(KeywordHit, TfProfile)> = Vec::new();
            for (hits, profiles) in &parts {
                rows.extend(hits.iter().zip(profiles).map(|(h, p)| (h.clone(), p.clone())));
            }
            rows.sort_by_key(|(h, _)| h.spec);
            let (want_hits, want_profiles): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
            let want_scores = scores_for_profiles(&plan.idfs, &want_profiles, mode);
            let merged = Ranked::merge(&plan, parts);
            assert_eq!(released(&merged.hits), released(&want_hits));
            let profile_bits = |p: &[TfProfile]| -> Vec<(Vec<u64>, Vec<u64>)> {
                p.iter().map(|p| (p.visible.clone(), p.hidden.clone())).collect()
            };
            assert_eq!(profile_bits(&merged.ranked.profiles), profile_bits(&want_profiles));
            let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&merged.ranked.scores), bits(&want_scores));
            assert_eq!(merged.ranked.order, rank_by_scores(&want_scores));
            let (ref_hits, ref_ranked) =
                reference.ranked_search_as("researchers", "risk, database", mode).unwrap();
            assert_eq!(released(&merged.hits), released(&ref_hits));
            assert!(merged.ranked.bitwise_eq(&ref_ranked), "{mode:?}");
        }
    }
}
