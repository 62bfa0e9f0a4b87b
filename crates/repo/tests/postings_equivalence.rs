//! E16 equivalence properties: the block-compressed posting layer
//! (uvarint delta blocks, density-chosen bitmaps, lazy seal-on-first-
//! lookup, galloping intersection) must be observationally identical to
//! the flat `Vec<Posting>` representation it replaced.
//!
//! `RefIndex` below is a deliberate replica of the pre-E16 dataflow: per-
//! term posting vectors built by the same tokenization rules, phrase
//! matching by whole-tag probe plus first-token adjacency verification,
//! filtering by per-posting prefix membership. Every public read of
//! [`KeywordIndex`] — `lookup_query_term`, `lookup_filtered`, `df` /
//! `df_cached`, idf *bits*, candidate intersection — is compared against
//! it over randomized corpora and randomized insert sequences,
//! with lookups interleaved so lists seal, grow unsealed tails, and
//! re-seal mid-stream.
//!
//! The lazy-access invariant rides along: a resolver driven through
//! `lookup_filtered` must touch **only** specs present in the term's own
//! candidate postings — never the rest of the corpus.

use std::collections::{BTreeSet, HashMap};

use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_model::hierarchy::Prefix;
use ppwf_model::ids::ModuleId;
use ppwf_repo::keyword_index::{tokenize, KeywordIndex, Posting};
use ppwf_repo::mutation::Mutation;
use ppwf_repo::postings::PostingsShape;
use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_repo::AccessCache;
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use proptest::prelude::*;

/// Reference replica of the flat-vector index: same tokenization, same
/// posting classification, same `(spec, workflow, module)` order — no
/// compression, no sealing, no skips.
struct RefIndex {
    terms: HashMap<String, Vec<Posting>>,
    phrases: HashMap<String, Vec<Posting>>,
    module_tokens: HashMap<(SpecId, ModuleId), Vec<String>>,
    doc_count: usize,
}

impl RefIndex {
    fn build(repo: &Repository) -> Self {
        let mut r = RefIndex {
            terms: HashMap::new(),
            phrases: HashMap::new(),
            module_tokens: HashMap::new(),
            doc_count: 0,
        };
        for (sid, entry) in repo.entries() {
            for module in entry.spec.modules() {
                if module.kind.is_distinguished() {
                    continue;
                }
                r.doc_count += 1;
                let name_tokens = tokenize(&module.name);
                let mut tf: HashMap<String, u32> = HashMap::new();
                for t in &name_tokens {
                    *tf.entry(t.clone()).or_insert(0) += 1;
                }
                for tag in &module.keywords {
                    let tag_tokens = tokenize(tag);
                    let norm = tag_tokens.join(" ");
                    for t in tag_tokens {
                        *tf.entry(t).or_insert(0) += 1;
                    }
                    if !norm.is_empty() {
                        r.phrases.entry(norm).or_default().push(Posting {
                            spec: sid,
                            module: module.id,
                            workflow: module.workflow,
                            tf: 1,
                        });
                    }
                }
                for (term, count) in tf {
                    r.terms.entry(term).or_default().push(Posting {
                        spec: sid,
                        module: module.id,
                        workflow: module.workflow,
                        tf: count,
                    });
                }
                r.module_tokens.insert((sid, module.id), name_tokens);
            }
        }
        for v in r.terms.values_mut().chain(r.phrases.values_mut()) {
            v.sort_by_key(|p| (p.spec, p.workflow, p.module));
        }
        r
    }

    fn lookup_query_term(&self, term: &str) -> Vec<Posting> {
        let tokens = tokenize(term);
        let normalized = tokens.join(" ");
        let Some(first) = tokens.first() else { return Vec::new() };
        if tokens.len() == 1 {
            return self.terms.get(&normalized).cloned().unwrap_or_default();
        }
        let mut out = self.phrases.get(&normalized).cloned().unwrap_or_default();
        if let Some(seed) = self.terms.get(first) {
            for p in seed {
                if out.iter().any(|q| q.spec == p.spec && q.module == p.module) {
                    continue;
                }
                if let Some(seq) = self.module_tokens.get(&(p.spec, p.module)) {
                    if seq
                        .windows(tokens.len())
                        .any(|w| w.iter().map(String::as_str).eq(tokens.iter().map(String::as_str)))
                    {
                        out.push(*p);
                    }
                }
            }
        }
        out.sort_by_key(|p| (p.spec, p.workflow, p.module));
        out
    }

    fn filtered(&self, term: &str, views: &HashMap<SpecId, Prefix>) -> Vec<Posting> {
        self.lookup_query_term(term)
            .into_iter()
            .filter(|p| views.get(&p.spec).is_some_and(|pre| pre.contains(p.workflow)))
            .collect()
    }

    fn spec_set(&self, term: &str) -> BTreeSet<SpecId> {
        self.lookup_query_term(term).iter().map(|p| p.spec).collect()
    }
}

/// Principal groups spanning the rule space: everything, root only, and a
/// depth cut that splits generated hierarchies mid-way.
fn registry() -> PrincipalRegistry {
    let mut reg = PrincipalRegistry::new();
    reg.add_group("full", AccessLevel(3), ViewRule::Full);
    reg.add_group("root", AccessLevel(0), ViewRule::RootOnly);
    reg.add_group("mid", AccessLevel(1), ViewRule::MaxDepth(1));
    reg
}

/// Deterministic stride sample of query terms: single tokens across the
/// frequency range, consecutive-name-token phrases, and misses.
fn sample_terms(reference: &RefIndex, seed: u64, max: usize) -> Vec<String> {
    let mut singles: Vec<&String> = reference.terms.keys().collect();
    singles.sort();
    let mut out: Vec<String> = Vec::new();
    if !singles.is_empty() {
        let stride = (singles.len() / max.min(singles.len())).max(1);
        let offset = (seed as usize) % stride;
        out.extend(singles.iter().skip(offset).step_by(stride).take(max).map(|s| s.to_string()));
    }
    let mut seqs: Vec<(&(SpecId, ModuleId), &Vec<String>)> =
        reference.module_tokens.iter().collect();
    seqs.sort_by_key(|(k, _)| **k);
    out.extend(
        seqs.iter()
            .filter(|(_, s)| s.len() >= 2)
            .take(3)
            .map(|(_, s)| format!("{} {}", s[0], s[1])),
    );
    out.push("unobtainium".to_string());
    out.push("module unobtainium".to_string());
    out
}

/// The full observational comparison of one index state against the
/// reference replica: raw lookups, dfs, idf bits, eager- and lazy-
/// filtered lookups, resolver touch sets, and candidate intersections.
fn check_equivalence(
    idx: &KeywordIndex,
    repo: &Repository,
    seed: u64,
) -> Result<(), TestCaseError> {
    let reference = RefIndex::build(repo);
    prop_assert_eq!(idx.doc_count(), reference.doc_count);
    prop_assert_eq!(idx.term_count(), reference.terms.len());
    let terms = sample_terms(&reference, seed, 8);
    let reg = registry();
    let cache = AccessCache::new();

    for term in &terms {
        let expect = reference.lookup_query_term(term);
        prop_assert_eq!(&idx.lookup_query_term(term), &expect, "postings diverged on {:?}", term);
        prop_assert_eq!(idx.df(term), expect.len(), "df diverged on {:?}", term);
        prop_assert_eq!(idx.df_cached(term), expect.len());
        prop_assert_eq!(
            idx.idf_cached(term).to_bits(),
            KeywordIndex::idf_from_counts(reference.doc_count, expect.len()).to_bits(),
            "idf bits diverged on {:?}",
            term
        );

        for group in ["full", "root", "mid"] {
            let views = reg.access_map(repo, group).expect("known group");
            prop_assert_eq!(
                &idx.lookup_filtered(term, &views),
                &reference.filtered(term, &views),
                "eager-filtered postings diverged on {:?} for {}",
                term,
                group
            );
            // Lazy resolver: identical answer, and its touch set stays
            // inside this term's own candidate specs.
            let resolver = cache.resolver(&reg, repo, group).expect("known group");
            prop_assert_eq!(
                &idx.lookup_filtered(term, &resolver),
                &reference.filtered(term, &views),
                "lazy-filtered postings diverged on {:?} for {}",
                term,
                group
            );
            let candidates = reference.spec_set(term);
            for touched in resolver.resolved_specs() {
                prop_assert!(
                    candidates.contains(&touched),
                    "resolver touched {:?} outside {:?}'s candidates",
                    touched,
                    term
                );
            }
        }
    }

    // Candidate intersection over term pairs: for single tokens the
    // supersets are exact, so the intersection must equal the reference
    // spec-set intersection; phrase supersets may only over-approximate.
    let (mut tmp, mut out) = (Vec::new(), Vec::new());
    for pair in terms.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let expect: BTreeSet<SpecId> =
            reference.spec_set(a).intersection(&reference.spec_set(b)).copied().collect();
        let found = idx.candidate_specs_into(&[a.clone(), b.clone()], &mut tmp, &mut out);
        if !found {
            prop_assert!(
                expect.is_empty(),
                "intersection {:?} ∧ {:?} declared impossible but reference has hits",
                a,
                b
            );
            continue;
        }
        let got: BTreeSet<SpecId> = out.iter().map(|&s| SpecId(s)).collect();
        for spec in &expect {
            prop_assert!(
                got.contains(spec),
                "candidate intersection {:?} ∧ {:?} lost {:?}",
                a,
                b,
                spec
            );
        }
        let single = |t: &String| !t.contains(' ');
        if single(a) && single(b) {
            prop_assert_eq!(
                &got,
                &expect,
                "single-token intersection {:?} ∧ {:?} must be exact",
                a,
                b
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized corpora and randomized insert sequences, with
    /// lookups interleaved so posting lists seal, grow tails, and re-seal
    /// — the index must stay observationally identical to the flat
    /// reference after every step.
    #[test]
    fn randomized_corpora_and_mutations_match_reference(
        seed in any::<u64>(),
        initial in 1usize..4,
        appends in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..4),
    ) {
        let params = |s: u64| SpecParams { seed: s, vocabulary: 24, ..SpecParams::default() };
        let mut repo = Repository::new();
        for i in 0..initial {
            let spec = generate_spec(&params(seed ^ (i as u64) ^ 0xE16));
            repo.insert_spec(spec, Policy::public()).unwrap();
        }
        let mut idx = KeywordIndex::build(&repo);
        check_equivalence(&idx, &repo, seed)?;

        for (i, &(s, probe_first)) in appends.iter().enumerate() {
            if probe_first {
                // Seal the current lists before appending: the next
                // insert then lands in tails behind sealed blocks, and
                // the post-append check exercises seal → tail → re-seal.
                let reference = RefIndex::build(&repo);
                for term in sample_terms(&reference, seed, 4) {
                    let _ = idx.lookup_query_term(&term);
                }
            }
            let spec = generate_spec(&params(s ^ ((i as u64) << 32)));
            let effect = repo.apply(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
            idx.apply_effect(&repo, &effect);
            check_equivalence(&idx, &repo, seed.wrapping_add(i as u64 + 1))?;
        }
    }
}

/// Many small specs: head tokens land in well over
/// [`BITMAP_MIN_DISTINCT`](ppwf_repo::postings::BITMAP_MIN_DISTINCT)
/// specs of a dense id span, so their lists must seal as bitmaps — and
/// stay bit-equivalent to the reference across the whole vocabulary.
#[test]
fn dense_corpus_seals_bitmaps_and_matches_reference() {
    let mut repo = Repository::new();
    for s in 0..200u64 {
        let spec = generate_spec(&SpecParams {
            seed: 0xDE16 + s,
            vocabulary: 12,
            max_workflows: 2,
            modules_per_workflow: (3, 5),
            ..SpecParams::default()
        });
        repo.insert_spec(spec, Policy::public()).unwrap();
    }
    let idx = KeywordIndex::build(&repo);
    check_equivalence(&idx, &repo, 7).unwrap();

    // "module" opens every generated module name: 200 distinct specs over
    // a 200-id span is as dense as it gets.
    let list = idx.term_postings("module").expect("every generated module posts it");
    let _ = idx.lookup_query_term("module"); // force the seal
    assert!(
        matches!(list.shape(), PostingsShape::Bitmap { .. }),
        "dense head term must seal as a bitmap, got {:?}",
        list.shape()
    );
    let shapes: Vec<PostingsShape> = RefIndex::build(&repo)
        .terms
        .keys()
        .map(|t| {
            let _ = idx.lookup_query_term(t);
            idx.term_postings(t).unwrap().shape()
        })
        .collect();
    assert!(
        shapes.iter().any(|s| matches!(s, PostingsShape::Delta { .. })),
        "a 12-term zipf tail should leave some sparse delta lists"
    );
}

/// Few large specs: "module" appears in thousands of modules across only
/// 40 distinct specs — below the bitmap distinct floor, so it must stay
/// delta-encoded across several skip blocks, and still match the
/// reference posting-for-posting.
#[test]
fn big_specs_seal_multi_block_deltas_and_match_reference() {
    let mut repo = Repository::new();
    for s in 0..40u64 {
        let spec = generate_spec(&SpecParams {
            seed: 0xB16 + s,
            vocabulary: 2048,
            keywords_per_module: 4,
            modules_per_workflow: (8, 12),
            max_workflows: 8,
            ..SpecParams::default()
        });
        repo.insert_spec(spec, Policy::public()).unwrap();
    }
    let idx = KeywordIndex::build(&repo);
    check_equivalence(&idx, &repo, 11).unwrap();

    let _ = idx.lookup_query_term("module");
    let list = idx.term_postings("module").expect("every generated module posts it");
    match list.shape() {
        PostingsShape::Delta { blocks } => {
            assert!(blocks >= 2, "thousands of postings must span several blocks, got {blocks}")
        }
        other => panic!("40 distinct specs is below the bitmap floor, got {other:?}"),
    }
}
