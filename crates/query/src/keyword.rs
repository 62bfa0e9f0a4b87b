//! Keyword search over workflow specifications, returning minimal views.
//!
//! The paper (Sec. 4, refs \[1\], \[7\]): *"keyword queries ... retrieve
//! sub-workflows that match the input keywords ... the query answer is
//! given as a minimal view of the flow that satisfies the query criteria
//! and includes the keywords."* A specification matches when **every**
//! query term has at least one matching module; the answer view is the
//! smallest hierarchy prefix that makes one chosen match per term visible
//! — which is exactly how Fig. 5 arises from the query
//! `"Database, Disorder Risks"`: *Database* matches only `M5` deep in
//! `W4`, *Disorder Risks* matches `M2` at top level, so the minimal view
//! expands `{W1, W2, W4}` and leaves `M2` opaque.
//!
//! **The pipeline.** A read runs these steps, in this order, over one
//! index (a whole-corpus index, or one shard's partition):
//!
//! 1. **Parse** — [`KeywordQuery::parse`] splits the text at commas and
//!    normalizes each term from the borrowed
//!    [`tokens`]: one `String` per term.
//! 2. **Look up** — each term is resolved to its posting lists once
//!    ([`KeywordIndex::term_lists`]). The resolution is what every later
//!    step reads: a cluster prunes shards on it and takes ranked document
//!    frequencies and TF profiles from it, and the steps below intersect
//!    and gather from it. No step looks a term up again.
//! 3. **Candidate discovery** — intersect the terms' spec supersets by
//!    galloping search over the sorted lists, so specs that cannot satisfy
//!    the AND semantics never materialize a posting.
//! 4. **Restricted gather** — copy only the candidate specs' posting runs
//!    per term, then privilege-filter in place (one prefix resolution per
//!    spec run; with a lazy resolver only candidate specs resolve).
//! 5. **Vec-indexed assembly** — per-`(spec, term)` module lists live in a
//!    flat scratch table addressed by candidate rank.
//! 6. **Minimal cover** — per candidate whose every term kept a match, one
//!    match per term is chosen, reading the table's rows in place, and the
//!    answer prefix is marked path by path; its view comes from the view
//!    memo.
//!
//! Steps 3–5 borrow their buffers from the thread-local [`QueryScratch`],
//! so a pool worker reuses one arena across every query it serves; what a
//! read allocates is its answer.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use ppwf_model::expand::SpecView;
use ppwf_model::hierarchy::Prefix;
use ppwf_model::ids::ModuleId;
use ppwf_repo::keyword_index::{
    candidate_specs, filter_postings, tokenize, tokens, KeywordIndex, TermLists,
};
use ppwf_repo::postings::{with_scratch, QueryScratch};
use ppwf_repo::principals::SpecAccess;
use ppwf_repo::repository::{Repository, SpecEntry, SpecId};
use ppwf_repo::view_cache::ViewCache;
use std::collections::HashMap;
use std::sync::Arc;

/// A parsed keyword query: comma-separated terms, each a word or phrase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeywordQuery {
    /// Normalized terms (lowercased, whitespace-collapsed).
    pub terms: Vec<String>,
}

impl KeywordQuery {
    /// Parse `"Database, Disorder Risks"` into `["database", "disorder risks"]`.
    pub fn parse(text: &str) -> Self {
        let terms = text.split(',').map(normal_term).filter(|t| !t.is_empty()).collect();
        KeywordQuery { terms }
    }

    /// Build from explicit terms.
    pub fn new(terms: &[&str]) -> Self {
        KeywordQuery { terms: terms.iter().map(|t| normal_term(t)).collect() }
    }
}

/// `text`'s tokens in normal form joined by single spaces —
/// `tokenize(text).join(" ")`, built in one string from borrowed tokens.
fn normal_term(text: &str) -> String {
    let mut term = String::new();
    for token in tokens(text) {
        if !term.is_empty() {
            term.push(' ');
        }
        term.push_str(&token);
    }
    term
}

/// A query looked up on one index: the index, and each term's lists in
/// term order, resolved once ([`KeywordIndex::term_lists`]). Every search
/// step after the lookup reads these lists instead of the index's maps.
#[derive(Clone, Copy)]
pub(crate) struct Lookup<'a> {
    pub(crate) index: &'a KeywordIndex,
    pub(crate) lists: &'a [TermLists<'a>],
}

/// Resolve `query` on `index` and run `f` over the lookup — the entry for
/// callers that hold an index rather than a resolved plan.
pub(crate) fn looked_up<R>(
    index: &KeywordIndex,
    query: &KeywordQuery,
    f: impl FnOnce(Lookup<'_>) -> R,
) -> R {
    let mut lists = Vec::with_capacity(query.terms.len());
    index.term_lists(&query.terms, &mut lists);
    f(Lookup { index, lists: &lists })
}

/// One search hit: a specification, the minimal view answering the query,
/// and which module satisfied each term.
///
/// The view is shared (`Arc`): with a [`ViewCache`] in play, many hits —
/// across queries and across principals of the same group — point at one
/// materialized view, and its memoized transitive closure warms once for
/// all of them; cloning a hit shares it.
#[derive(Clone, Debug)]
pub struct KeywordHit {
    /// The matching specification.
    pub spec: SpecId,
    /// The minimal prefix exposing all chosen matches.
    pub prefix: Prefix,
    /// The flattened answer view under that prefix (Fig. 5's artifact).
    pub view: Arc<SpecView>,
    /// Chosen match per term, in term order.
    pub matched: Vec<(String, ModuleId)>,
}

/// Materialize the answer view for a hit: through the cache when one is
/// supplied (the query fast path), from scratch otherwise.
pub(crate) fn build_view(
    repo: &Repository,
    views: Option<&ViewCache>,
    spec: SpecId,
    prefix: &Prefix,
) -> Option<Arc<SpecView>> {
    match views {
        Some(cache) => cache.view(repo, spec, prefix),
        None => {
            let entry = repo.entry(spec)?;
            SpecView::build(&entry.spec, &entry.hierarchy, prefix).ok().map(Arc::new)
        }
    }
}

/// Choose one match per term minimizing the resulting prefix size (greedy:
/// terms with fewest candidates first, ties by term order; each picks the
/// candidate adding the fewest new workflows, ties broken by module id for
/// determinism). `candidates[i]` are term `i`'s matching modules, read in
/// place; the prefix is marked path by path from the root alone. `None`
/// when some term has no candidate.
fn minimal_cover(
    entry: &SpecEntry,
    terms: &[String],
    candidates: &[Vec<ModuleId>],
) -> Option<(Prefix, Vec<(String, ModuleId)>)> {
    // A term without a candidate rejects the spec before anything is
    // allocated for it.
    if candidates.iter().any(Vec::is_empty) {
        return None;
    }
    let h = &entry.hierarchy;
    let mut matched = terms
        .iter()
        .zip(candidates)
        .map(|(term, mods)| Some((term.clone(), *mods.first()?)))
        .collect::<Option<Vec<_>>>()?;
    let mut prefix = Prefix::root_only(h);
    // Visit terms by (candidate count, term index), each once: the next is
    // the smallest key above the last one visited.
    let mut last = None;
    while let Some((_, i)) = (0..candidates.len())
        .map(|i| (candidates[i].len(), i))
        .filter(|&key| last.is_none_or(|last| key > last))
        .min()
    {
        last = Some((candidates[i].len(), i));
        let workflow = |m: ModuleId| entry.spec.module(m).workflow;
        let (_, best) =
            candidates[i].iter().map(|&m| (prefix.path_cost(h, workflow(m)), m)).min()?;
        prefix.add_path(h, workflow(best));
        matched[i].1 = best;
    }
    Some((prefix, matched))
}

/// Index-backed search over the whole repository (no privacy filtering —
/// the administrator's plan). Hits are ordered by spec id.
pub fn search(repo: &Repository, index: &KeywordIndex, query: &KeywordQuery) -> Vec<KeywordHit> {
    looked_up(index, query, |lookup| search_in(repo, lookup, query, None, no_access()))
}

/// Index-backed search with privilege filtering: only postings whose
/// workflow is inside the principal's access view for that spec are
/// admissible (the paper's one-index-many-views design). `access` is any
/// [`SpecAccess`]: an eager whole-corpus map, or a lazy
/// [`AccessResolver`](ppwf_repo::principals::AccessResolver) that resolves
/// rules only for specs appearing in candidate postings. Filtering stays
/// filter-then-search either way: postings are screened before any
/// cover/view work, so no inadmissible candidate enters timing-observable
/// scoring.
pub fn search_filtered(
    repo: &Repository,
    index: &KeywordIndex,
    query: &KeywordQuery,
    access: &impl SpecAccess,
) -> Vec<KeywordHit> {
    looked_up(index, query, |lookup| search_in(repo, lookup, query, None, Some(access)))
}

/// [`search_filtered`] with answer views fetched through `views` — the
/// entry point the per-group query engine uses.
pub fn search_filtered_with_cache(
    repo: &Repository,
    index: &KeywordIndex,
    query: &KeywordQuery,
    access: &impl SpecAccess,
    views: &ViewCache,
) -> Vec<KeywordHit> {
    looked_up(index, query, |lookup| search_in(repo, lookup, query, Some(views), Some(access)))
}

/// The access argument of an unfiltered search.
fn no_access() -> Option<&'static HashMap<SpecId, Prefix>> {
    None
}

/// The kernel pipeline behind every index-backed entry point (steps 3–6
/// of the module docs) over `query` looked up as `lookup`: candidate
/// discovery, the restricted and privilege-filtered gather, the
/// rank-indexed assembly and the minimal cover of each surviving
/// candidate.
pub(crate) fn search_in<A: SpecAccess + ?Sized>(
    repo: &Repository,
    lookup: Lookup<'_>,
    query: &KeywordQuery,
    views: Option<&ViewCache>,
    access: Option<&A>,
) -> Vec<KeywordHit> {
    with_scratch(|s| {
        let QueryScratch { postings, seed, specs, specs_b, mods, .. } = s;
        if !candidate_specs(lookup.lists, specs_b, specs) || specs.is_empty() {
            return Vec::new();
        }
        let cands: &[u32] = specs;
        let nterms = query.terms.len();
        let slots = cands.len() * nterms;
        for m in mods.iter_mut() {
            m.clear();
        }
        if mods.len() < slots {
            mods.resize_with(slots, Vec::new);
        }
        // A single term's candidates are exactly (or, for a phrase, a
        // superset of) its own specs — nothing to restrict against.
        let restrict = if nterms > 1 { Some(cands) } else { None };
        for (ti, (term, lists)) in query.terms.iter().zip(lookup.lists).enumerate() {
            lookup.index.gather_into(term, lists, restrict, seed, postings);
            if let Some(a) = access {
                filter_postings(postings, a);
            }
            if postings.is_empty() {
                // No admissible posting anywhere for this term: the AND
                // semantics reject every candidate.
                return Vec::new();
            }
            for p in postings.iter() {
                // Every gathered spec is a candidate: the gather is
                // restricted to them, or they are the one term's specs.
                if let Ok(rank) = cands.binary_search(&p.spec.0) {
                    mods[rank * nterms + ti].push(p.module);
                }
            }
        }
        let mut hits = Vec::new();
        for (rank, &spec) in cands.iter().enumerate() {
            let row = &mods[rank * nterms..(rank + 1) * nterms];
            let sid = SpecId(spec);
            // AND semantics: every term must match (the cover refuses an
            // empty row). A posting names a live spec.
            let Some(entry) = repo.entry(sid) else { continue };
            let Some((prefix, matched)) = minimal_cover(entry, &query.terms, row) else { continue };
            // invariant: a cover prefix is the root plus root paths of the
            // spec's own workflows, so it is valid and the view builds.
            #[allow(clippy::expect_used)]
            let view =
                build_view(repo, views, sid, &prefix).expect("minimal cover prefix is valid");
            hits.push(KeywordHit { spec: sid, prefix, view, matched });
        }
        hits
    })
}

/// Scan-backed search (no index): tokenizes every module of every spec per
/// query — the baseline plan of experiment E5.
pub fn search_scan(repo: &Repository, query: &KeywordQuery) -> Vec<KeywordHit> {
    if query.terms.is_empty() {
        return Vec::new();
    }
    let matches_term = |module: &ppwf_model::spec::Module, term: &str| -> bool {
        let tokens = tokenize(&module.name);
        let qtokens: Vec<String> = term.split(' ').map(|s| s.to_string()).collect();
        let name_hit = if qtokens.len() == 1 {
            tokens.contains(&qtokens[0])
        } else {
            tokens.windows(qtokens.len()).any(|w| w == qtokens.as_slice())
        };
        name_hit
            || module.keywords.iter().any(|k| {
                let kt = tokenize(k);
                kt.join(" ") == term || (qtokens.len() == 1 && kt.contains(&qtokens[0]))
            })
    };
    let hit = |(sid, entry): (SpecId, &SpecEntry)| {
        let candidates: Vec<Vec<ModuleId>> = query
            .terms
            .iter()
            .map(|term| {
                entry
                    .spec
                    .modules()
                    .filter(|m| !m.kind.is_distinguished() && matches_term(m, term))
                    .map(|m| m.id)
                    .collect()
            })
            .collect();
        let (prefix, matched) = minimal_cover(entry, &query.terms, &candidates)?;
        let view = build_view(repo, None, sid, &prefix)?;
        Some(KeywordHit { spec: sid, prefix, view, matched })
    };
    repo.entries().filter_map(hit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;
    use std::collections::HashMap;

    fn setup() -> (Repository, KeywordIndex) {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        repo.insert_spec(spec, Policy::public()).unwrap();
        let index = KeywordIndex::build(&repo);
        (repo, index)
    }

    #[test]
    fn parse_query() {
        let q = KeywordQuery::parse("Database, Disorder Risks");
        assert_eq!(q.terms, vec!["database", "disorder risks"]);
        assert_eq!(KeywordQuery::parse("  , ,").terms.len(), 0);
        assert_eq!(KeywordQuery::new(&["Query OMIM"]).terms, vec!["query omim"]);
    }

    /// Fig. 5 — the paper's worked example, exactly.
    #[test]
    fn fig5_database_disorder_risks() {
        let (repo, index) = setup();
        let entry = repo.entry(SpecId(0)).unwrap();
        let m = fixtures::handles(&entry.spec);
        let q = KeywordQuery::parse("Database, Disorder Risks");
        let hits = search(&repo, &index, &q);
        assert_eq!(hits.len(), 1);
        let hit = &hits[0];
        // Minimal view = {W1, W2, W4}: W3 stays collapsed inside M2.
        let wf: Vec<usize> = hit.prefix.workflows().map(|w| w.index()).collect();
        assert_eq!(wf, vec![0, 1, 3]);
        // Matches: "database" → M5, "disorder risks" → M2.
        assert_eq!(hit.matched.len(), 2);
        assert!(hit.matched.contains(&("database".to_string(), m.m5)));
        assert!(hit.matched.contains(&("disorder risks".to_string(), m.m2)));
        // The view shows exactly I, O, M2, M3, M5, M6, M7, M8 — Fig. 5's
        // node set.
        let mut codes: Vec<String> =
            hit.view.visible_modules().map(|mm| entry.spec.module(mm).code.clone()).collect();
        codes.sort();
        assert_eq!(codes, vec!["M2", "M3", "M5", "M6", "M7", "M8"]);
        // And Fig. 5's edges: M6 → M8, M7 → M8 ("disorders, disorders"),
        // M8 → M2, I → M2, M2 → O.
        assert!(hit.view.has_module_edge(m.m6, m.m8));
        assert!(hit.view.has_module_edge(m.m7, m.m8));
        assert!(hit.view.has_module_edge(m.m8, m.m2));
        assert!(hit.view.has_module_edge(m.m3, m.m5));
    }

    #[test]
    fn and_semantics_rejects_partial_matches() {
        let (repo, index) = setup();
        let q = KeywordQuery::parse("database, unobtainium");
        assert!(search(&repo, &index, &q).is_empty());
    }

    #[test]
    fn shallow_matches_stay_shallow() {
        let (repo, index) = setup();
        // "risk" matches only M2 (keyword tag) at top level: minimal view
        // is the root alone.
        let q = KeywordQuery::parse("risk");
        let hits = search(&repo, &index, &q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].prefix.len(), 1);
        assert_eq!(hits[0].view.visible_modules().count(), 2, "M1 and M2 only");
    }

    #[test]
    fn scan_agrees_with_index() {
        let (repo, index) = setup();
        for text in ["Database, Disorder Risks", "risk", "query", "pubmed", "snp"] {
            let q = KeywordQuery::parse(text);
            let a = search(&repo, &index, &q);
            let b = search_scan(&repo, &q);
            assert_eq!(a.len(), b.len(), "query {text:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.spec, y.spec, "query {text:?}");
                assert_eq!(x.prefix, y.prefix, "query {text:?}");
                assert_eq!(x.matched, y.matched, "query {text:?}");
            }
        }
    }

    #[test]
    fn privilege_filtering_coarsens_or_drops() {
        let (repo, index) = setup();
        let entry = repo.entry(SpecId(0)).unwrap();
        let q = KeywordQuery::parse("database");
        // Root-only access: the only "database" match (M5, in W4) is
        // inadmissible → no hits.
        let mut access = HashMap::new();
        access.insert(SpecId(0), Prefix::root_only(&entry.hierarchy));
        assert!(search_filtered(&repo, &index, &q, &access).is_empty());
        // Full access: hit appears.
        access.insert(SpecId(0), Prefix::full(&entry.hierarchy));
        assert_eq!(search_filtered(&repo, &index, &q, &access).len(), 1);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let (repo, index) = setup();
        assert!(search(&repo, &index, &KeywordQuery::parse("")).is_empty());
        assert!(search_scan(&repo, &KeywordQuery::parse("")).is_empty());
    }

    /// A tag of one token posts no phrase of its own, so a query for the
    /// tag as written answers exactly like the query for its token: same
    /// hits, same postings, same df — over the fixture and over corpora of
    /// adversarial module text.
    #[test]
    fn a_one_token_tag_answers_like_its_term() {
        use ppwf_workloads::gentext::TextGen;
        for seed in 0..24 {
            let mut gen = TextGen(seed);
            let mut repo = Repository::new();
            let (fixture, _) = fixtures::disease_susceptibility();
            repo.insert_spec(fixture, Policy::public()).unwrap();
            for _ in 0..3 {
                repo.insert_spec(gen.spec(), Policy::public()).unwrap();
            }
            let index = KeywordIndex::build(&repo);
            let tags: Vec<String> = repo
                .entries()
                .flat_map(|(_, entry)| entry.spec.modules().flat_map(|m| m.keywords.clone()))
                .filter(|tag| tokenize(tag).len() == 1)
                .collect();
            assert!(!tags.is_empty());
            for tag in &tags {
                // The term query is the token as the index keys it (not
                // re-parsed: lowercasing `İ` is not idempotent under the
                // tokenizer).
                let token = tokenize(tag).remove(0);
                let term_postings = index.term_postings(&token).map(|l| l.to_vec());
                assert!(index.phrase_postings(&token).is_none(), "{tag:?} posted a phrase");
                assert_eq!(Some(index.lookup_query_term(tag)), term_postings, "{tag:?}");
                assert_eq!(Some(index.df(tag)), term_postings.map(|p| p.len()), "{tag:?}");
                let released = |query: &KeywordQuery| {
                    let hits = search(&repo, &index, query);
                    hits.into_iter().map(|h| (h.spec, h.prefix, h.matched)).collect::<Vec<_>>()
                };
                let by_tag = released(&KeywordQuery::parse(tag));
                assert!(!by_tag.is_empty(), "{tag:?} finds its own module");
                assert_eq!(by_tag, released(&KeywordQuery { terms: vec![token] }), "{tag:?}");
            }
        }
    }

    #[test]
    fn multiple_specs_ordered() {
        let mut repo = Repository::new();
        let (s1, _) = fixtures::disease_susceptibility();
        let (s2, _) = fixtures::disease_susceptibility();
        repo.insert_spec(s1, Policy::public()).unwrap();
        repo.insert_spec(s2, Policy::public()).unwrap();
        let index = KeywordIndex::build(&repo);
        let hits = search(&repo, &index, &KeywordQuery::parse("risk"));
        assert_eq!(hits.len(), 2);
        assert!(hits[0].spec < hits[1].spec);
    }
}
