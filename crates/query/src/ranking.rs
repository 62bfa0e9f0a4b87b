//! Ranking, and its impact on privacy preservation (Sec. 4).
//!
//! *"A highly ranked result is likely to have more occurrences of an input
//! keyword than a lowly ranked result. Thus, a user might be able to infer
//! the range of value occurrences in a result even though s/he is unable to
//! see the values ... Such inference may cause information leakage."*
//!
//! We model this precisely. Each result (a workflow specification) has a
//! *true* term-frequency profile over the query terms — including
//! occurrences inside modules the principal cannot see. Rankers:
//!
//! * [`RankingMode::ExactFull`] — classic TF-IDF over the full (hidden +
//!   visible) text: best utility, maximal leakage;
//! * [`RankingMode::VisibleOnly`] — scores computed over visible modules
//!   only: zero leakage by construction, degraded utility;
//! * [`RankingMode::BucketizedFull`] — full TF coarsened into logarithmic
//!   buckets: the paper's "sophisticated ranking schemes" direction;
//! * [`RankingMode::NoisyFull`] — Laplace-perturbed TF (ε-style knob).
//!
//! **Leakage** is measured as the Kendall-τ rank correlation between the
//! produced ranking and the ranking by *hidden* term mass — the adversary's
//! best inference about what they cannot see. **Utility** is the Kendall-τ
//! against the true full-information ranking. Experiment E7 charts the
//! trade-off.

use ppwf_core::dp::LaplaceMechanism;
use ppwf_model::hierarchy::Prefix;
use ppwf_repo::keyword_index::{KeywordIndex, TermLists};
use ppwf_repo::postings::with_scratch;
use ppwf_repo::repository::{Repository, SpecId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How scores are computed from term frequencies.
#[derive(Clone, Copy, Debug)]
pub enum RankingMode {
    /// Exact TF-IDF over all modules (hidden included).
    ExactFull,
    /// TF-IDF over modules visible under the principal's prefix.
    VisibleOnly,
    /// Full TF coarsened to `floor(log_base(1 + tf))` buckets.
    BucketizedFull {
        /// Bucket base (> 1); larger = coarser = less leakage.
        base: f64,
    },
    /// Full TF with Laplace noise of privacy budget ε.
    NoisyFull {
        /// Privacy budget.
        epsilon: f64,
        /// RNG seed (determinism for experiments).
        seed: u64,
    },
}

/// A compact, fixed-width, hashable identity for a [`RankingMode`]: one
/// discriminant byte, the mode's `f64` parameter bits, and the RNG seed.
/// Two modes map to the same key iff they rank identically, so the cluster
/// front's one result cache can key a ranked answer by `(group, query,
/// ModeKey)` — a stack value built without formatting — instead of a
/// `format!("{mode:?}…")` string per warm probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModeKey([u8; 17]);

impl RankingMode {
    /// This mode's [`ModeKey`].
    pub fn cache_key(self) -> ModeKey {
        let mut buf = [0u8; 17];
        match self {
            RankingMode::ExactFull => buf[0] = 0,
            RankingMode::VisibleOnly => buf[0] = 1,
            RankingMode::BucketizedFull { base } => {
                buf[0] = 2;
                buf[1..9].copy_from_slice(&base.to_bits().to_le_bytes());
            }
            RankingMode::NoisyFull { epsilon, seed } => {
                buf[0] = 3;
                buf[1..9].copy_from_slice(&epsilon.to_bits().to_le_bytes());
                buf[9..17].copy_from_slice(&seed.to_le_bytes());
            }
        }
        ModeKey(buf)
    }
}

/// Term-frequency profile of one result for one query.
#[derive(Clone, Debug, Default)]
pub struct TfProfile {
    /// Per-term visible frequency.
    pub visible: Vec<u64>,
    /// Per-term hidden frequency (inside modules outside the prefix).
    pub hidden: Vec<u64>,
}

impl TfProfile {
    /// Total (visible + hidden) per-term frequency.
    pub fn total(&self, t: usize) -> u64 {
        self.visible[t] + self.hidden[t]
    }

    /// Total hidden mass across terms.
    pub fn hidden_mass(&self) -> u64 {
        self.hidden.iter().sum()
    }
}

/// Compute the TF profile of a specification for `terms` under `prefix`
/// (which modules count as visible).
pub fn tf_profile(repo: &Repository, spec: SpecId, prefix: &Prefix, terms: &[String]) -> TfProfile {
    let words = split_terms(terms);
    profile_with(repo, spec, prefix, &words, &mut Vec::new())
}

/// TF profiles for a slice of keyword hits, one per hit in order, each
/// computed under the hit's own answer prefix by scanning every module's
/// text: the terms are split once per call, and every module's tokens are
/// borrowed slices of its text in one reused buffer, so a call allocates
/// the split terms, that buffer and the profiles, and nothing per module.
/// A ranked read whose terms are all single tokens reads its profiles off
/// the postings instead; the scan serves queries with a phrase, and is the
/// oracle the posting profiles are tested against.
pub fn profiles_for_hits(
    repo: &Repository,
    hits: &[crate::keyword::KeywordHit],
    terms: &[String],
) -> Vec<TfProfile> {
    let words = split_terms(terms);
    let mut tokens = Vec::new();
    hits.iter().map(|h| profile_with(repo, h.spec, &h.prefix, &words, &mut tokens)).collect()
}

/// TF profiles for `hits`, one per hit in order, read off the postings:
/// `lists` are the query's terms resolved on the index the hits came from
/// ([`KeywordIndex::term_lists`]). `None` when some term is a phrase — a
/// phrase's count is a window over a module's tokens, which no posting
/// holds, so such a query takes the scan, [`profiles_for_hits`]. A single
/// token's posting for a module carries its `tf` over exactly the name and
/// tag tokens the scan counts, lowercased as the scan compares them, so
/// the profiles are the scan's bit for bit; the `ranking` property tests
/// hold them to it at every prefix.
pub(crate) fn profiles_from_postings(
    hits: &[crate::keyword::KeywordHit],
    terms: &[String],
    lists: &[TermLists<'_>],
) -> Option<Vec<TfProfile>> {
    if terms.iter().any(|t| t.contains(' ')) {
        return None;
    }
    Some(hits.iter().map(|h| posting_profile(h.spec, &h.prefix, lists)).collect())
}

/// The TF profile of `spec` under `prefix` for single-token terms resolved
/// to `lists`: each term's run of `spec` postings, `tf` summed by whether
/// the posting's workflow is in the prefix.
fn posting_profile(spec: SpecId, prefix: &Prefix, lists: &[TermLists<'_>]) -> TfProfile {
    let mut profile = TfProfile { visible: vec![0; lists.len()], hidden: vec![0; lists.len()] };
    for (t, lists) in lists.iter().enumerate() {
        for p in lists.primary.map_or(&[][..], |list| list.spec_run(spec)) {
            let counts = if prefix.contains(p.workflow) {
                &mut profile.visible
            } else {
                &mut profile.hidden
            };
            counts[t] += u64::from(p.tf);
        }
    }
    profile
}

/// Each term's words, split once per call.
fn split_terms(terms: &[String]) -> Vec<Vec<&str>> {
    terms.iter().map(|t| t.split(' ').collect()).collect()
}

/// [`tf_profile`] over pre-split terms, walking each module's name and tag
/// tokens as borrowed slices in `tokens` (cleared per module). Counts are
/// exactly those over [`tokenize`](ppwf_repo::keyword_index::tokenize)'s
/// output: the same split, and [`token_is`] compares as its lowercasing
/// would.
fn profile_with<'r>(
    repo: &'r Repository,
    spec: SpecId,
    prefix: &Prefix,
    words: &[Vec<&str>],
    tokens: &mut Vec<&'r str>,
) -> TfProfile {
    let entry = repo.entry(spec).expect("live spec");
    let mut profile = TfProfile { visible: vec![0; words.len()], hidden: vec![0; words.len()] };
    for module in entry.spec.modules() {
        if module.kind.is_distinguished() {
            continue;
        }
        tokens.clear();
        for text in std::iter::once(&module.name).chain(&module.keywords) {
            tokens.extend(text.split(|c: char| !c.is_alphanumeric()).filter(|t| !t.is_empty()));
        }
        let counts = if prefix.contains(module.workflow) {
            &mut profile.visible
        } else {
            &mut profile.hidden
        };
        for (count, term) in counts.iter_mut().zip(words) {
            *count += match term.as_slice() {
                [word] => tokens.iter().filter(|t| token_is(t, word)).count() as u64,
                _ => tokens
                    .windows(term.len())
                    .filter(|w| w.iter().zip(term).all(|(t, word)| token_is(t, word)))
                    .count() as u64,
            };
        }
    }
    profile
}

/// Whether `token` lowercases to exactly `word`, without building the
/// lowercase string for an ASCII token.
fn token_is(token: &str, word: &str) -> bool {
    if token.is_ascii() {
        token.len() == word.len()
            && token.bytes().zip(word.bytes()).all(|(t, w)| t.to_ascii_lowercase() == w)
    } else {
        token.to_lowercase() == word
    }
}

/// Per-term IDF weights from one index, through the index's per-term df
/// memo (phrase dfs otherwise re-materialize their posting lists per
/// request). A sharded cluster builds the same vector from *summed* shard
/// statistics via [`KeywordIndex::idf_from_counts`], which is what keeps
/// sharded ranked answers bit-identical to single-engine ones.
pub fn idfs_for_terms(index: &KeywordIndex, terms: &[String]) -> Vec<f64> {
    let mut out = Vec::with_capacity(terms.len());
    idfs_for_terms_into(index, terms, &mut out);
    out
}

/// Slice-shaped form of [`idfs_for_terms`]: clears and fills `out`, so
/// callers on the cold path reuse one buffer across queries.
pub fn idfs_for_terms_into(index: &KeywordIndex, terms: &[String], out: &mut Vec<f64>) {
    out.clear();
    let df = |term: &String| index.df_resolved(term, &index.term_list(term));
    out.extend(terms.iter().map(|t| KeywordIndex::idf_from_counts(index.doc_count(), df(t))));
}

/// Score one profile under a mode. IDF weights come from the index.
pub fn score(
    index: &KeywordIndex,
    terms: &[String],
    profile: &TfProfile,
    mode: RankingMode,
) -> f64 {
    score_with_idfs(&idfs_for_terms(index, terms), profile, mode)
}

/// [`score`] with precomputed per-term IDF weights (one IDF resolution per
/// query, not per hit) — the per-profile definition
/// [`scores_for_profiles`] is held to bit for bit.
pub fn score_with_idfs(idfs: &[f64], profile: &TfProfile, mode: RankingMode) -> f64 {
    let mut rng = match mode {
        RankingMode::NoisyFull { seed, .. } => Some(StdRng::seed_from_u64(seed)),
        _ => None,
    };
    idfs.iter()
        .enumerate()
        .map(|(ti, &idf)| {
            let tf = match mode {
                RankingMode::ExactFull => profile.total(ti) as f64,
                RankingMode::VisibleOnly => profile.visible[ti] as f64,
                RankingMode::BucketizedFull { base } => {
                    assert!(base > 1.0, "bucket base must exceed 1");
                    (1.0 + profile.total(ti) as f64).log(base).floor()
                }
                RankingMode::NoisyFull { epsilon, .. } => {
                    let mech = LaplaceMechanism::counting(epsilon);
                    (mech.noisy_count(profile.total(ti), rng.as_mut().unwrap())).max(0.0)
                }
            };
            // Sublinear tf scaling, the classic 1 + ln(tf) form.
            let tf_weight = if tf > 0.0 { 1.0 + tf.ln() } else { 0.0 };
            tf_weight * idf
        })
        .sum()
}

/// Batch form of [`score_with_idfs`] over many profiles at once — the
/// scoring step every cold ranked read runs once, over all its hits: the
/// cluster's merge with corpus-global IDFs, the reference engine with its
/// whole-corpus index's.
///
/// Scores are **bit-identical** to mapping [`score_with_idfs`] over the
/// profiles: the flat staging pass computes each per-term tf with the
/// same expressions, the weight pass applies the identical
/// `1 + ln(tf)` transform, and each row's dot product accumulates
/// `weight * idf` in term order starting from `0.0`, exactly as the
/// per-profile iterator sum does. No reassociation, no FMA contraction
/// (Rust never contracts `a * b + c` implicitly). The payoff is layout:
/// one flat `f64` array staged in the thread-local
/// [`QueryScratch`](ppwf_repo::postings::QueryScratch), one elementwise
/// transform loop the compiler can vectorize, one branch-free dot loop
/// per row — instead of a per-term `match` on the mode per profile.
pub fn scores_for_profiles(idfs: &[f64], profiles: &[TfProfile], mode: RankingMode) -> Vec<f64> {
    let mut out = Vec::with_capacity(profiles.len());
    scores_for_profiles_into(idfs, profiles, mode, &mut out);
    out
}

/// [`scores_for_profiles`] writing into a caller-owned buffer (cleared
/// first). Borrows the thread-local query scratch internally — callers
/// must not invoke it from inside their own
/// [`with_scratch`] closure, or the
/// staging pass silently falls back to a fresh allocation.
pub fn scores_for_profiles_into(
    idfs: &[f64],
    profiles: &[TfProfile],
    mode: RankingMode,
    out: &mut Vec<f64>,
) {
    out.clear();
    let nt = idfs.len();
    if nt == 0 {
        // `chunks_exact(0)` panics; a zero-term query scores everything 0.
        out.resize(profiles.len(), 0.0);
        return;
    }
    if matches!(mode, RankingMode::NoisyFull { .. }) {
        // Each profile draws from its own freshly seeded RNG stream; the
        // per-profile path already does exactly that, so delegate rather
        // than replicate the noise sequencing.
        out.extend(profiles.iter().map(|p| score_with_idfs(idfs, p, mode)));
        return;
    }
    with_scratch(|scratch| {
        let tf = &mut scratch.tf_flat;
        tf.clear();
        tf.reserve(profiles.len() * nt);
        for p in profiles {
            match mode {
                RankingMode::ExactFull => tf.extend((0..nt).map(|ti| p.total(ti) as f64)),
                RankingMode::VisibleOnly => tf.extend(p.visible[..nt].iter().map(|&v| v as f64)),
                RankingMode::BucketizedFull { base } => {
                    assert!(base > 1.0, "bucket base must exceed 1");
                    tf.extend((0..nt).map(|ti| (1.0 + p.total(ti) as f64).log(base).floor()));
                }
                RankingMode::NoisyFull { .. } => unreachable!("delegated above"),
            }
        }
        for w in tf.iter_mut() {
            *w = if *w > 0.0 { 1.0 + w.ln() } else { 0.0 };
        }
        out.extend(tf.chunks_exact(nt).map(|row| {
            let mut sum = 0.0;
            for (w, idf) in row.iter().zip(idfs) {
                sum += w * idf;
            }
            sum
        }));
    });
}

/// Rank result indices by descending score (stable: ties by index).
pub fn rank_by_scores(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    order
}

/// Kendall-τ rank correlation between two orderings of the same index set
/// (+1 identical, −1 reversed). `a` and `b` list indices best-first.
pub fn kendall_tau(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "orderings must cover the same items");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let pos_b: Vec<usize> = {
        let mut p = vec![0; n];
        for (rank, &item) in b.iter().enumerate() {
            p[item] = rank;
        }
        p
    };
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let (x, y) = (a[i], a[j]); // x ranked above y in a
            if pos_b[x] < pos_b[y] {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    (concordant - discordant) as f64 / (n as f64 * (n as f64 - 1.0) / 2.0)
}

/// Kendall-τ-b between two score vectors over the same items. Tied pairs
/// contribute no information (a ranker that ties everything leaks
/// nothing), which is why leakage must be measured on scores, not on a
/// tie-broken ordering. Returns 0 when either side is entirely tied.
pub fn kendall_tau_scores(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "score vectors must cover the same items");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let (mut concordant, mut discordant) = (0i64, 0i64);
    let (mut ties_a, mut ties_b) = (0i64, 0i64);
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            let sa = if da > 0.0 {
                1
            } else if da < 0.0 {
                -1
            } else {
                0
            };
            let sb = if db > 0.0 {
                1
            } else if db < 0.0 {
                -1
            } else {
                0
            };
            if sa == 0 {
                ties_a += 1;
            }
            if sb == 0 {
                ties_b += 1;
            }
            match sa * sb {
                1 => concordant += 1,
                -1 => discordant += 1,
                _ => {}
            }
        }
    }
    let n0 = (n as i64) * (n as i64 - 1) / 2;
    let denom = (((n0 - ties_a) as f64) * ((n0 - ties_b) as f64)).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (concordant - discordant) as f64 / denom
    }
}

/// The E7 measurement for one query over a result set.
#[derive(Clone, Debug)]
pub struct RankingEvaluation {
    /// Kendall-τ-b against the exact full-information scores (utility).
    pub utility: f64,
    /// |Kendall-τ-b| against hidden term mass (leakage; 0 ≈ private).
    pub leakage: f64,
}

/// Evaluate a ranking mode over profiles of many results.
pub fn evaluate_ranking(
    index: &KeywordIndex,
    terms: &[String],
    profiles: &[TfProfile],
    mode: RankingMode,
) -> RankingEvaluation {
    let exact: Vec<f64> =
        profiles.iter().map(|p| score(index, terms, p, RankingMode::ExactFull)).collect();
    let produced: Vec<f64> = profiles.iter().map(|p| score(index, terms, p, mode)).collect();
    let hidden: Vec<f64> = profiles.iter().map(|p| p.hidden_mass() as f64).collect();

    RankingEvaluation {
        utility: kendall_tau_scores(&produced, &exact),
        leakage: kendall_tau_scores(&produced, &hidden).abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;
    use ppwf_model::hierarchy::Prefix;

    use ppwf_model::ids::ModuleId;
    use ppwf_repo::keyword_index::tokenize;
    use rand::Rng;

    /// The replaced profile computation, kept as the oracle: tokenize every
    /// module into fresh lowercase strings and split every term per module.
    fn tf_profile_by_tokenize(
        repo: &Repository,
        spec: SpecId,
        prefix: &Prefix,
        terms: &[String],
    ) -> TfProfile {
        let entry = repo.entry(spec).expect("live spec");
        let mut profile = TfProfile { visible: vec![0; terms.len()], hidden: vec![0; terms.len()] };
        for module in entry.spec.modules() {
            if module.kind.is_distinguished() {
                continue;
            }
            let mut text = tokenize(&module.name);
            for k in &module.keywords {
                text.extend(tokenize(k));
            }
            let visible = prefix.contains(module.workflow);
            for (ti, term) in terms.iter().enumerate() {
                let words: Vec<&str> = term.split(' ').collect();
                let count = if words.len() == 1 {
                    text.iter().filter(|w| w.as_str() == words[0]).count() as u64
                } else {
                    text.windows(words.len())
                        .filter(|w| w.iter().map(|s| s.as_str()).eq(words.iter().copied()))
                        .count() as u64
                };
                if visible {
                    profile.visible[ti] += count;
                } else {
                    profile.hidden[ti] += count;
                }
            }
        }
        profile
    }

    /// The paper's fixture with every proper module's name and tags
    /// replaced by `text(module index)`.
    fn retexted(text: impl Fn(usize) -> (String, Vec<String>)) -> Repository {
        let (mut spec, _) = fixtures::disease_susceptibility();
        let proper: Vec<ModuleId> =
            spec.modules().filter(|m| !m.kind.is_distinguished()).map(|m| m.id).collect();
        for (i, m) in proper.into_iter().enumerate() {
            let (name, tags) = text(i);
            spec.set_module_text(m, &name, &tags).unwrap();
        }
        let mut repo = Repository::new();
        repo.insert_spec(spec, Policy::public()).unwrap();
        repo
    }

    /// Word pieces for generated module text: case variants, non-ASCII
    /// letters whose lowercase differs in length or depends on context
    /// (`İ`, `ẞ`, final `Σ`, the Kelvin sign), digits and repeats.
    const PIECES: &[&str] = &[
        "Query", "query", "QUERY", "qUeRy", "Database", "db", "Risks", "risks", "É", "é", "Étude",
        "ß", "ẞ", "SS", "Straße", "İ", "i̇", "Σ", "ΣΑΣ", "σας", "\u{212A}", "k", "x1", "42",
    ];
    /// Separators: punctuation runs, doubled spaces, underscores.
    const SEPS: &[&str] = &[" ", "  ", "-", "--", ", ", "...", "!?", "_", "/", " (", ") "];

    fn random_text(rng: &mut StdRng) -> String {
        let mut text = String::new();
        if rng.gen_bool(0.2) {
            text.push_str(SEPS[rng.gen_range(0..SEPS.len())]);
        }
        for i in 0..rng.gen_range(0..5) {
            if i > 0 {
                text.push_str(SEPS[rng.gen_range(0..SEPS.len())]);
            }
            text.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
        }
        if rng.gen_bool(0.2) {
            text.push_str(SEPS[rng.gen_range(0..SEPS.len())]);
        }
        text
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The borrowed-token kernel counts exactly what tokenizing every
        /// module counts, over random module text and terms: single words
        /// (normalized and not), and phrases cut from a module's own token
        /// sequence, so their windows span name/tag and tag/tag
        /// boundaries.
        #[test]
        fn tf_profile_matches_the_tokenize_oracle(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let texts: Vec<(String, Vec<String>)> = (0..16)
                .map(|_| {
                    let name = random_text(&mut rng);
                    let tags = (0..rng.gen_range(0..4)).map(|_| random_text(&mut rng)).collect();
                    (name, tags)
                })
                .collect();
            let repo = retexted(|i| texts[i % texts.len()].clone());
            let mut terms: Vec<String> = Vec::new();
            for _ in 0..rng.gen_range(1..6) {
                let (name, tags) = &texts[rng.gen_range(0..texts.len())];
                let mut tokens = tokenize(name);
                for tag in tags {
                    tokens.extend(tokenize(tag));
                }
                let piece = PIECES[rng.gen_range(0..PIECES.len())];
                let term = match rng.gen_range(0..4) {
                    // A raw piece: not normalized, so an uppercase term
                    // must count nothing on both sides.
                    0 => piece.to_string(),
                    _ if tokens.is_empty() => tokenize(piece).join(" "),
                    1 => tokens[rng.gen_range(0..tokens.len())].clone(),
                    _ => {
                        let len = rng.gen_range(2..4).min(tokens.len());
                        let start = rng.gen_range(0..=tokens.len() - len);
                        tokens[start..start + len].join(" ")
                    }
                };
                terms.push(term);
            }
            let entry = repo.entry(SpecId(0)).unwrap();
            let h = &entry.hierarchy;
            let mut partial = Prefix::full(h);
            let w = h.preorder()[rng.gen_range(0..h.len())];
            if w != h.root() {
                partial.remove_subtree(h, w).unwrap();
            }
            for prefix in [Prefix::full(h), Prefix::root_only(h), partial] {
                let got = tf_profile(&repo, SpecId(0), &prefix, &terms);
                let want = tf_profile_by_tokenize(&repo, SpecId(0), &prefix, &terms);
                proptest::prop_assert_eq!(&got.visible, &want.visible, "terms {:?}", terms);
                proptest::prop_assert_eq!(&got.hidden, &want.hidden, "terms {:?}", terms);
            }
        }
    }

    /// Every parent-closed prefix of `h` (every subset of its workflows
    /// that [`Prefix::from_workflows`] accepts).
    fn every_prefix(h: &ppwf_model::hierarchy::ExpansionHierarchy) -> Vec<Prefix> {
        use ppwf_model::ids::WorkflowId;
        (0u32..1 << h.len())
            .filter_map(|bits| {
                let members = (0..h.len()).filter(|i| bits >> i & 1 == 1).map(WorkflowId::new);
                Prefix::from_workflows(h, members).ok()
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A ranked read of single tokens takes its TF profiles from the
        /// postings: they equal the module-text scan bit for bit, for every
        /// spec of a corpus of adversarial module text (case variants, `É`,
        /// `ß`, `İ`, final `Σ`, the Kelvin sign, repeated tokens), at every
        /// prefix of the spec, for terms drawn from the posted vocabulary,
        /// from normalized pieces and from raw, unnormalized pieces.
        #[test]
        fn posting_profiles_match_the_scan_at_every_prefix(seed in proptest::prelude::any::<u64>()) {
            use ppwf_workloads::gentext::{TextGen, PIECES};
            let mut gen = TextGen(seed);
            let mut repo = Repository::new();
            for _ in 0..1 + gen.below(3) {
                repo.insert_spec(gen.spec(), Policy::public()).unwrap();
            }
            let index = KeywordIndex::build(&repo);
            let mut vocabulary: Vec<String> = repo
                .entries()
                .flat_map(|(sid, _)| index.posted_tokens(sid).unwrap_or_default().to_vec())
                .collect();
            vocabulary.extend(PIECES.iter().flat_map(|p| tokenize(p)));
            vocabulary.extend(PIECES.iter().map(|p| p.to_string()));
            for _ in 0..4 {
                let terms: Vec<String> = (0..1 + gen.below(4))
                    .map(|_| vocabulary[gen.below(vocabulary.len())].clone())
                    .collect();
                let mut lists = Vec::new();
                index.term_lists(&terms, &mut lists);
                let words = split_terms(&terms);
                for (sid, entry) in repo.entries() {
                    for prefix in every_prefix(&entry.hierarchy) {
                        let got = posting_profile(sid, &prefix, &lists);
                        let want = profile_with(&repo, sid, &prefix, &words, &mut Vec::new());
                        proptest::prop_assert_eq!(&got.visible, &want.visible, "terms {:?}", terms);
                        proptest::prop_assert_eq!(&got.hidden, &want.hidden, "terms {:?}", terms);
                    }
                }
            }
        }
    }

    #[test]
    fn phrase_windows_span_name_and_tag_boundaries() {
        let repo = retexted(|_| {
            ("Alpha BETA".to_string(), vec!["gamma--Alpha".to_string(), "beta, ÉTUDE".to_string()])
        });
        let entry = repo.entry(SpecId(0)).unwrap();
        let full = Prefix::full(&entry.hierarchy);
        let terms: Vec<String> =
            ["beta gamma", "alpha beta", "alpha beta étude", "étude", "Alpha", "beta"]
                .iter()
                .map(|t| t.to_string())
                .collect();
        let modules = entry.spec.modules().filter(|m| !m.kind.is_distinguished()).count() as u64;
        let got = tf_profile(&repo, SpecId(0), &full, &terms);
        // Per module: name/tag window, name-internal window plus
        // tag/tag window, one three-word window, one non-ASCII token, no
        // uppercase term, and "beta" in the name and the second tag.
        let per_module = [1, 2, 1, 1, 0, 2];
        assert_eq!(got.visible, per_module.map(|c| c * modules).to_vec());
        assert_eq!(got.visible, tf_profile_by_tokenize(&repo, SpecId(0), &full, &terms).visible);
    }

    fn setup() -> (Repository, KeywordIndex) {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        repo.insert_spec(spec, Policy::public()).unwrap();
        let index = KeywordIndex::build(&repo);
        (repo, index)
    }

    #[test]
    fn kendall_tau_extremes() {
        assert_eq!(kendall_tau(&[0, 1, 2, 3], &[0, 1, 2, 3]), 1.0);
        assert_eq!(kendall_tau(&[0, 1, 2, 3], &[3, 2, 1, 0]), -1.0);
        let mid = kendall_tau(&[0, 1, 2, 3], &[1, 0, 2, 3]);
        assert!(mid > 0.0 && mid < 1.0);
        assert_eq!(kendall_tau(&[0], &[0]), 1.0);
    }

    #[test]
    fn tf_profiles_split_by_visibility() {
        let (repo, _) = setup();
        let entry = repo.entry(SpecId(0)).unwrap();
        let terms = vec!["query".to_string()];
        // Full prefix: everything visible.
        let full = tf_profile(&repo, SpecId(0), &Prefix::full(&entry.hierarchy), &terms);
        assert!(full.visible[0] > 0);
        assert_eq!(full.hidden[0], 0);
        // Root-only: "query" occurrences (M5..M7 names/tags, M9 tag) hide.
        let coarse = tf_profile(&repo, SpecId(0), &Prefix::root_only(&entry.hierarchy), &terms);
        assert_eq!(coarse.visible[0], 0);
        assert_eq!(coarse.hidden[0], full.visible[0]);
        assert_eq!(coarse.hidden_mass(), full.visible[0]);
    }

    #[test]
    fn exact_scoring_monotone_in_tf() {
        let (_, index) = setup();
        let terms = vec!["query".to_string()];
        let low = TfProfile { visible: vec![1], hidden: vec![0] };
        let high = TfProfile { visible: vec![1], hidden: vec![5] };
        let s_low = score(&index, &terms, &low, RankingMode::ExactFull);
        let s_high = score(&index, &terms, &high, RankingMode::ExactFull);
        assert!(s_high > s_low, "hidden occurrences raise the exact score — the leak");
        // Visible-only is blind to the hidden part.
        let v_low = score(&index, &terms, &low, RankingMode::VisibleOnly);
        let v_high = score(&index, &terms, &high, RankingMode::VisibleOnly);
        assert_eq!(v_low, v_high);
    }

    #[test]
    fn buckets_coarsen() {
        let (_, index) = setup();
        let terms = vec!["query".to_string()];
        let a = TfProfile { visible: vec![0], hidden: vec![4] };
        let b = TfProfile { visible: vec![0], hidden: vec![5] };
        let mode = RankingMode::BucketizedFull { base: 4.0 };
        // 4 and 5 fall in the same log_4 bucket: indistinguishable.
        assert_eq!(score(&index, &terms, &a, mode), score(&index, &terms, &b, mode));
        // But order-of-magnitude differences survive.
        let c = TfProfile { visible: vec![0], hidden: vec![60] };
        assert!(score(&index, &terms, &c, mode) > score(&index, &terms, &a, mode));
    }

    #[test]
    fn leakage_ordering_across_modes() {
        // Synthetic result set where hidden mass fully determines the exact
        // ranking: exact leaks everything, visible-only leaks nothing.
        let (_, index) = setup();
        let terms = vec!["query".to_string()];
        let profiles: Vec<TfProfile> =
            (0..8u64).map(|i| TfProfile { visible: vec![1], hidden: vec![i * i] }).collect();
        let exact = evaluate_ranking(&index, &terms, &profiles, RankingMode::ExactFull);
        assert!((exact.utility - 1.0).abs() < 1e-9);
        assert!((exact.leakage - 1.0).abs() < 1e-9, "exact ranking fully leaks");
        let visible = evaluate_ranking(&index, &terms, &profiles, RankingMode::VisibleOnly);
        assert_eq!(visible.leakage, 0.0, "all-tied visible scores carry no information");
        let bucket =
            evaluate_ranking(&index, &terms, &profiles, RankingMode::BucketizedFull { base: 8.0 });
        assert!(bucket.leakage <= exact.leakage);
        assert!(bucket.utility >= visible.utility);
    }

    #[test]
    fn noise_reduces_leakage_with_small_epsilon() {
        let (_, index) = setup();
        let terms = vec!["query".to_string()];
        let profiles: Vec<TfProfile> =
            (0..10u64).map(|i| TfProfile { visible: vec![1], hidden: vec![i] }).collect();
        let loud = evaluate_ranking(
            &index,
            &terms,
            &profiles,
            RankingMode::NoisyFull { epsilon: 100.0, seed: 5 },
        );
        let quiet = evaluate_ranking(
            &index,
            &terms,
            &profiles,
            RankingMode::NoisyFull { epsilon: 0.05, seed: 5 },
        );
        assert!(loud.leakage > quiet.leakage);
        assert!(loud.utility > quiet.utility);
    }

    #[test]
    fn rank_by_scores_stable() {
        let order = rank_by_scores(&[1.0, 3.0, 3.0, 0.5]);
        assert_eq!(order, vec![1, 2, 0, 3]);
    }

    #[test]
    fn batch_scores_bit_identical_to_per_profile() {
        let idfs = vec![1.3, 0.7, 2.25];
        let profiles: Vec<TfProfile> = (0..17u64)
            .map(|i| TfProfile {
                visible: vec![i % 5, (i * 3) % 7, i],
                hidden: vec![(i * 7) % 11, 0, i % 2],
            })
            .collect();
        for mode in [
            RankingMode::ExactFull,
            RankingMode::VisibleOnly,
            RankingMode::BucketizedFull { base: 2.0 },
            RankingMode::NoisyFull { epsilon: 0.7, seed: 42 },
        ] {
            let batch = scores_for_profiles(&idfs, &profiles, mode);
            assert_eq!(batch.len(), profiles.len());
            for (p, s) in profiles.iter().zip(&batch) {
                assert_eq!(
                    s.to_bits(),
                    score_with_idfs(&idfs, p, mode).to_bits(),
                    "batch score diverged under {mode:?}"
                );
            }
        }
        // Zero-term query: defined as all-zero scores, no panic.
        assert_eq!(scores_for_profiles(&[], &profiles, RankingMode::ExactFull), vec![0.0; 17]);
    }

    #[test]
    fn mode_keys_separate_exactly_the_distinct_rankers() {
        assert_eq!(RankingMode::ExactFull.cache_key(), RankingMode::ExactFull.cache_key());
        assert_ne!(RankingMode::ExactFull.cache_key(), RankingMode::VisibleOnly.cache_key());
        assert_ne!(
            RankingMode::BucketizedFull { base: 2.0 }.cache_key(),
            RankingMode::BucketizedFull { base: 4.0 }.cache_key()
        );
        assert_eq!(
            RankingMode::BucketizedFull { base: 2.0 }.cache_key(),
            RankingMode::BucketizedFull { base: 2.0 }.cache_key()
        );
        assert_ne!(
            RankingMode::NoisyFull { epsilon: 1.0, seed: 1 }.cache_key(),
            RankingMode::NoisyFull { epsilon: 1.0, seed: 2 }.cache_key()
        );
        assert_ne!(
            RankingMode::NoisyFull { epsilon: 0.5, seed: 1 }.cache_key(),
            RankingMode::NoisyFull { epsilon: 1.0, seed: 1 }.cache_key()
        );
    }
}
