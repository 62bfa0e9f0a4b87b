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

use ppwf_model::expand::SpecView;
use ppwf_model::hierarchy::Prefix;
use ppwf_model::ids::{ModuleId, WorkflowId};
use ppwf_repo::keyword_index::{filter_postings, tokenize, KeywordIndex};
use ppwf_repo::postings::{with_scratch, QueryScratch};
use ppwf_repo::principals::SpecAccess;
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_repo::scan::scan_specs;
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
        let terms =
            text.split(',').map(|t| tokenize(t).join(" ")).filter(|t| !t.is_empty()).collect();
        KeywordQuery { terms }
    }

    /// Build from explicit terms.
    pub fn new(terms: &[&str]) -> Self {
        KeywordQuery { terms: terms.iter().map(|t| tokenize(t).join(" ")).collect() }
    }
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

/// Workflows that must be in the prefix for module `m` to be visible: the
/// hierarchy path from the root to `m`'s workflow.
fn required_path(entry: &ppwf_repo::repository::SpecEntry, m: ModuleId) -> Vec<WorkflowId> {
    let mut path = Vec::new();
    let mut cur = Some(entry.spec.module(m).workflow);
    while let Some(w) = cur {
        path.push(w);
        cur = entry.hierarchy.parent(w);
    }
    path
}

/// Choose one match per term minimizing the resulting prefix size (greedy:
/// terms with fewest candidates first; each picks the candidate adding the
/// fewest new workflows; ties broken by module id for determinism).
fn minimal_cover(
    entry: &ppwf_repo::repository::SpecEntry,
    candidates: &[(String, Vec<ModuleId>)],
) -> Option<(Prefix, Vec<(String, ModuleId)>)> {
    if candidates.iter().any(|(_, c)| c.is_empty()) {
        return None;
    }
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&i| candidates[i].1.len());

    let mut required: Vec<WorkflowId> = vec![entry.spec.root()];
    let mut chosen: Vec<Option<(String, ModuleId)>> = vec![None; candidates.len()];
    for &i in &order {
        let (term, mods) = &candidates[i];
        let best = mods
            .iter()
            .map(|&m| {
                let path = required_path(entry, m);
                let added = path.iter().filter(|w| !required.contains(w)).count();
                (added, m, path)
            })
            .min_by_key(|(added, m, _)| (*added, *m))
            .expect("nonempty candidate list");
        for w in best.2 {
            if !required.contains(&w) {
                required.push(w);
            }
        }
        chosen[i] = Some((term.clone(), best.1));
    }
    let prefix =
        Prefix::from_workflows(&entry.hierarchy, required).expect("root paths are parent-closed");
    Some((prefix, chosen.into_iter().map(|c| c.expect("all terms chosen")).collect()))
}

/// Index-backed search over the whole repository (no privacy filtering —
/// the administrator's plan). Hits are ordered by spec id.
pub fn search(repo: &Repository, index: &KeywordIndex, query: &KeywordQuery) -> Vec<KeywordHit> {
    search_with_index(repo, index, query, None, None::<&HashMap<SpecId, Prefix>>)
}

/// [`search`] with answer views fetched through `views` instead of built
/// per hit — the repeated-query fast path.
pub fn search_with_cache(
    repo: &Repository,
    index: &KeywordIndex,
    query: &KeywordQuery,
    views: &ViewCache,
) -> Vec<KeywordHit> {
    search_with_index(repo, index, query, Some(views), None::<&HashMap<SpecId, Prefix>>)
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
    search_with_index(repo, index, query, None, Some(access))
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
    search_with_index(repo, index, query, Some(views), Some(access))
}

/// The cold-path kernel pipeline behind every index-backed entry point:
///
/// 1. **Candidate discovery** — intersect the terms' spec supersets over
///    the block-compressed lists (galloping skips / bitmap AND), so specs
///    that cannot satisfy the AND semantics never materialize a posting.
/// 2. **Restricted gather** — decode only the candidate specs' blocks per
///    term, then privilege-filter in place (one prefix resolution per
///    spec run; with a lazy resolver only candidate specs resolve).
/// 3. **Vec-indexed assembly** — per-`(spec, term)` module lists live in
///    a flat scratch table addressed by candidate rank, replacing the old
///    per-posting `HashMap<SpecId, _>` insert.
///
/// All intermediate buffers come from the thread-local [`QueryScratch`],
/// so a pool worker reuses one arena across every query it serves.
fn search_with_index<A: SpecAccess + ?Sized>(
    repo: &Repository,
    index: &KeywordIndex,
    query: &KeywordQuery,
    views: Option<&ViewCache>,
    access: Option<&A>,
) -> Vec<KeywordHit> {
    if query.terms.is_empty() {
        return Vec::new();
    }
    with_scratch(|s| {
        let QueryScratch { postings, seed, block, specs, specs_b, mods, .. } = s;
        if !index.candidate_specs_into(&query.terms, specs_b, specs) || specs.is_empty() {
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
        for (ti, term) in query.terms.iter().enumerate() {
            index.lookup_normalized_into(term, restrict, block, seed, postings);
            if let Some(a) = access {
                filter_postings(postings, a);
            }
            if postings.is_empty() {
                // No admissible posting anywhere for this term: the AND
                // semantics reject every candidate.
                return Vec::new();
            }
            for p in postings.iter() {
                let rank =
                    cands.binary_search(&p.spec.0).expect("gathered posting spec is a candidate");
                mods[rank * nterms + ti].push(p.module);
            }
        }
        let mut hits = Vec::new();
        for (rank, &spec) in cands.iter().enumerate() {
            let row = &mut mods[rank * nterms..(rank + 1) * nterms];
            if row.iter().any(|c| c.is_empty()) {
                continue; // AND semantics: every term must match
            }
            let sid = SpecId(spec);
            let entry = repo.entry(sid).expect("posting references live spec");
            let named: Vec<(String, Vec<ModuleId>)> =
                query.terms.iter().cloned().zip(row.iter_mut().map(std::mem::take)).collect();
            if let Some((prefix, matched)) = minimal_cover(entry, &named) {
                let view =
                    build_view(repo, views, sid, &prefix).expect("minimal cover prefix is valid");
                hits.push(KeywordHit { spec: sid, prefix, view, matched });
            }
        }
        hits
    })
}

/// Scan-backed search (no index): tokenizes every module of every spec per
/// query — the baseline plan of experiment E5.
pub fn search_scan(repo: &Repository, query: &KeywordQuery) -> Vec<KeywordHit> {
    search_scan_inner(repo, query, None)
}

/// [`search_scan`] with answer views fetched through `views`; the scan
/// still tokenizes everything (that is the baseline being measured), but
/// repeated queries stop paying view construction.
pub fn search_scan_with_cache(
    repo: &Repository,
    query: &KeywordQuery,
    views: &ViewCache,
) -> Vec<KeywordHit> {
    search_scan_inner(repo, query, Some(views))
}

fn search_scan_inner(
    repo: &Repository,
    query: &KeywordQuery,
    views: Option<&ViewCache>,
) -> Vec<KeywordHit> {
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
    scan_specs(repo, |sid, entry| {
        let named: Vec<(String, Vec<ModuleId>)> = query
            .terms
            .iter()
            .map(|term| {
                let mods: Vec<ModuleId> = entry
                    .spec
                    .modules()
                    .filter(|m| !m.kind.is_distinguished() && matches_term(m, term))
                    .map(|m| m.id)
                    .collect();
                (term.clone(), mods)
            })
            .collect();
        let (prefix, matched) = minimal_cover(entry, &named)?;
        let view = build_view(repo, views, sid, &prefix)?;
        Some(KeywordHit { spec: sid, prefix, view, matched })
    })
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
