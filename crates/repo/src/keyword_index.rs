//! A privacy-classified inverted keyword index.
//!
//! Sec. 4: *"With data privacy, we must manage an index with 'different
//! user views' ... A promising direction is to consider representing the
//! specification and execution graphs using advanced data structures that
//! classify and group their elements based on privacy settings."*
//!
//! Each posting carries its privacy classification — the workflow that owns
//! the module — so a single index serves every privilege level: at query
//! time a posting is admissible for a principal iff its workflow lies in
//! the principal's access-view prefix. Postings are grouped per term by
//! `(spec, workflow)` so the filter skips whole groups.
//!
//! Matching model (matches the paper's Fig. 5 query semantics):
//!
//! * single terms match the tokenized module name and keyword tags,
//! * multi-word phrases (`"disorder risks"`) match whole keyword tags or
//!   consecutive name tokens.

use crate::postings::{intersect_term_specs, with_scratch, PostingList, QueryScratch, TermLists};
use crate::principals::SpecAccess;
use crate::repository::{Repository, SpecEntry, SpecId};
use parking_lot::RwLock;
use ppwf_model::ids::ModuleId;
use std::borrow::Cow;
use std::collections::HashMap;

pub use crate::postings::Posting;

/// [`tokenize`] for a reader that only looks the tokens up: the same tokens
/// in the same normal form, one at a time, a token that is already normal
/// (ASCII without capitals — every token of a query the client sent in the
/// index's own form) borrowed from `text`, so walking such a text allocates
/// nothing.
pub fn tokens(text: &str) -> impl Iterator<Item = Cow<'_, str>> {
    text.split(|c: char| !c.is_alphanumeric()).filter(|t| !t.is_empty()).map(|t| {
        if t.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
            Cow::Borrowed(t)
        } else {
            Cow::Owned(t.to_lowercase())
        }
    })
}

/// Lowercase alphanumeric tokenization.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

/// A cheap identity check for one spec's *indexed text*: postings depend
/// only on module names, keyword tags and workflow placement (executions
/// and policies shape nothing in the index), so a matching fingerprint
/// means every posting of that spec is still valid.
/// [`KeywordIndex::refresh`] verifies rather than assumes, so the
/// fingerprint hashes the text itself, not just counts: an in-place
/// rename that preserved every count (exactly what
/// [`Mutation::EditSpec`](crate::mutation::Mutation::EditSpec) can do) is
/// still caught.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SpecTextFingerprint {
    modules: usize,
    text: u64,
}

impl SpecTextFingerprint {
    fn of(entry: &SpecEntry) -> Self {
        let mut h = crate::fnv::Fnv1a::new();
        let mut modules = 0usize;
        for module in entry.spec.modules() {
            if module.kind.is_distinguished() {
                continue;
            }
            modules += 1;
            h.mix_u64(module.id.0 as u64);
            h.mix_u64(module.workflow.index() as u64);
            h.mix_bytes(module.name.as_bytes());
            for tag in &module.keywords {
                h.mix_bytes(tag.as_bytes());
            }
        }
        SpecTextFingerprint { modules, text: h.finish() }
    }
}

/// The exact index keys one spec's postings live under — the reverse map
/// that lets [`KeywordIndex::delete_spec`] / [`KeywordIndex::edit_spec`]
/// visit only the spec's own keys instead of the whole index: by the time
/// a delete's maintenance runs, the repository entry is already a
/// tombstone, so the keys cannot be recomputed from the spec text. Per key
/// the work is what [`PostingList::remove_spec`] documents — the spec's
/// own postings in a pending tail or bitmap, the skip-located block(s) of
/// a delta list — never the key's whole list.
#[derive(Clone, Debug, Default)]
struct PostedTerms {
    /// Sorted, deduplicated single-token keys the spec posted under.
    terms: Vec<String>,
    /// Sorted, deduplicated whole-tag phrase keys.
    phrases: Vec<String>,
    /// Proper modules whose name-token sequences were stored.
    modules: Vec<ModuleId>,
    /// Modules (documents) the spec contributed to `doc_count`.
    docs: usize,
}

/// The index.
#[derive(Debug, Default)]
pub struct KeywordIndex {
    /// Block-compressed per-token postings (see [`crate::postings`]): new
    /// specs land in each list's uncompressed tail and seal lazily on
    /// first lookup; retraction and splice edit the list in place, sealed
    /// or not.
    terms: HashMap<String, PostingList>,
    /// Whole keyword tags, normalized, for phrase matching.
    phrases: HashMap<String, PostingList>,
    /// Name token sequences per module, for consecutive-token phrases.
    module_tokens: HashMap<(SpecId, ModuleId), Vec<String>>,
    /// Per-live-spec reverse map of posted keys (see [`PostedTerms`]).
    spec_posted: HashMap<SpecId, PostedTerms>,
    /// Number of indexed modules (documents) — the IDF denominator.
    doc_count: usize,
    /// Per-slot text fingerprints, in id order (`None` = tombstone) —
    /// what [`Self::refresh`]'s fast path verifies before trusting its
    /// append-only invariant.
    fingerprints: Vec<Option<SpecTextFingerprint>>,
    /// Lifetime count of full builds (the incrementality instrument's
    /// denominator: refreshes that could append never move it).
    full_builds: usize,
    /// Lifetime count of modules indexed *incrementally*: the initial
    /// build, appended specs, and targeted edit re-indexing move it;
    /// verified full rebuilds are charged to `full_builds` alone, and
    /// execution appends / policy swaps move nothing.
    docs_indexed: usize,
    /// Lifetime count of module documents retracted by targeted
    /// [`Self::delete_spec`] / [`Self::edit_spec`] maintenance — the
    /// destructive-write instrument (E19).
    docs_retracted: usize,
    /// Lifetime count of postings targeted maintenance had to materialize
    /// (see [`Self::postings_decoded_by_maintenance`]).
    postings_decoded_by_maintenance: usize,
    /// Lifetime count of [`Self::refresh_trusted`] calls that skipped the
    /// fingerprint verification scan — the trusted-epoch instrument.
    trusted_refreshes: usize,
    /// Repository version this index was built at.
    built_at: u64,
    /// Repository *structure epoch* this index last reconciled with —
    /// bumped by the repository only on destructive mutations (delete /
    /// edit / tombstone insert). [`Self::refresh_trusted`] keys its trust
    /// decision on it: an epoch mismatch means the history was not
    /// append-only since the last reconcile, so the trusted shortcut
    /// would serve stale postings and must fall back to verification.
    structure_epoch_at: u64,
    /// Per-query-term document-frequency memo ([`Self::df_cached`]).
    /// Bounded at [`DF_MEMO_CAP`]: terms are user-supplied strings, and a
    /// mutation-free workload never rebuilds, so an unbounded memo would
    /// be an attacker-controllable allocation.
    df_memo: RwLock<DfMemo>,
}

/// The df memo and the reverse map that makes its invalidation a lookup
/// per touched key. A memoized term's df can move only when a written spec
/// posts the term's first token: a single token reads that token's list, a
/// phrase reads its whole-tag list — whose every poster also posts each of
/// the tag's tokens — and the first token's list. So a write drops, for
/// each token it touched, exactly the memo entries filed under that token.
#[derive(Debug, Default)]
struct DfMemo {
    /// Verbatim query term → df.
    df: HashMap<String, usize>,
    /// Normalized first token → the memoized terms that start with it.
    /// Tokenless terms (df always 0) are memoized but filed nowhere.
    by_first_token: HashMap<String, Vec<String>>,
    /// Lifetime count of memo entries invalidation looked at — the
    /// instrument behind "a write touching k keys inspects O(k) entries".
    inspected: usize,
}

impl DfMemo {
    fn insert(&mut self, term: &str, df: usize) {
        if self.df.len() >= DF_MEMO_CAP && !self.df.contains_key(term) {
            return;
        }
        if self.df.insert(term.to_string(), df).is_none() {
            if let Some(first) = tokens(term).next() {
                self.by_first_token.entry(first.into_owned()).or_default().push(term.to_string());
            }
        }
    }

    /// Drop every entry filed under one of `touched` (normalized tokens).
    fn invalidate<'a>(&mut self, touched: impl IntoIterator<Item = &'a String>) {
        for token in touched {
            for term in self.by_first_token.remove(token).unwrap_or_default() {
                self.inspected += 1;
                self.df.remove(&term);
            }
        }
    }
}

/// Most distinct query terms the df memo retains. Past the cap,
/// [`KeywordIndex::df_cached`] computes without memoizing — the hot head
/// terms of a real stream are cached long before it fills.
const DF_MEMO_CAP: usize = 4096;

/// Index every proper module of one spec into `terms`/`phrases`/
/// `module_tokens`, recording the posted keys into `posted` (the reverse
/// map targeted retraction replays later); returns the number of modules
/// (documents) indexed. Shared by [`KeywordIndex::build`] (whole
/// corpus), [`KeywordIndex::refresh`] (appended specs only) and
/// [`KeywordIndex::edit_spec`] (one re-indexed spec).
fn index_entry(
    sid: SpecId,
    entry: &SpecEntry,
    terms: &mut HashMap<String, Vec<Posting>>,
    phrases: &mut HashMap<String, Vec<Posting>>,
    module_tokens: &mut HashMap<(SpecId, ModuleId), Vec<String>>,
    posted: &mut PostedTerms,
) -> usize {
    let mut docs = 0usize;
    for module in entry.spec.modules() {
        if module.kind.is_distinguished() {
            continue;
        }
        docs += 1;
        let name_tokens = tokenize(&module.name);
        let mut tf: HashMap<String, u32> = HashMap::new();
        for t in &name_tokens {
            // Clone the token only on first sight; repeats bump in place.
            match tf.get_mut(t.as_str()) {
                Some(count) => *count += 1,
                None => {
                    tf.insert(t.clone(), 1);
                }
            }
        }
        for tag in &module.keywords {
            let tag_tokens = tokenize(tag);
            let norm = tag_tokens.join(" ");
            for t in tag_tokens {
                *tf.entry(t).or_insert(0) += 1;
            }
            if !norm.is_empty() {
                posted.phrases.push(norm.clone());
                phrases.entry(norm).or_default().push(Posting {
                    spec: sid,
                    module: module.id,
                    workflow: module.workflow,
                    tf: 1,
                });
            }
        }
        for (term, count) in tf {
            posted.terms.push(term.clone());
            terms.entry(term).or_default().push(Posting {
                spec: sid,
                module: module.id,
                workflow: module.workflow,
                tf: count,
            });
        }
        module_tokens.insert((sid, module.id), name_tokens);
        posted.modules.push(module.id);
    }
    posted.docs = docs;
    posted.terms.sort();
    posted.terms.dedup();
    posted.phrases.sort();
    posted.phrases.dedup();
    docs
}

/// Insert one spec's freshly sorted postings into `map[key]` at their id
/// position, in place ([`PostingList::insert_spec_postings`]; a new key
/// starts as an unsealed list). The spec's old postings were already
/// retracted, and all the new ones share one spec id (the sort key's
/// leading component), so the single contiguous insert reproduces exactly
/// the `(spec, workflow, module)` order a fresh build would emit. Returns
/// the postings the insert had to materialize.
fn splice_postings(map: &mut HashMap<String, PostingList>, key: String, new: &[Posting]) -> usize {
    map.entry(key).or_default().insert_spec_postings(new)
}

/// Drop `spec`'s postings from `map[key]` in place
/// ([`PostingList::remove_spec`]), removing the key when its list empties;
/// returns the postings the removal had to materialize.
fn retract_postings(map: &mut HashMap<String, PostingList>, key: &str, spec: SpecId) -> usize {
    let Some(list) = map.get_mut(key) else { return 0 };
    let touched = list.remove_spec(spec);
    if list.is_empty() {
        map.remove(key);
    }
    touched
}

impl KeywordIndex {
    /// Build the index over every module of every live specification
    /// (tombstoned slots keep their position as `None` fingerprints).
    pub fn build(repo: &Repository) -> Self {
        let mut idx = KeywordIndex {
            built_at: repo.version(),
            structure_epoch_at: repo.structure_epoch(),
            ..KeywordIndex::default()
        };
        idx.full_builds = 1;
        let mut terms: HashMap<String, Vec<Posting>> = HashMap::new();
        let mut phrases: HashMap<String, Vec<Posting>> = HashMap::new();
        for (sid, slot) in repo.slots() {
            let Some(entry) = slot else {
                idx.fingerprints.push(None);
                continue;
            };
            let mut posted = PostedTerms::default();
            idx.doc_count += index_entry(
                sid,
                entry,
                &mut terms,
                &mut phrases,
                &mut idx.module_tokens,
                &mut posted,
            );
            idx.fingerprints.push(Some(SpecTextFingerprint::of(entry)));
            idx.spec_posted.insert(sid, posted);
        }
        idx.docs_indexed = idx.doc_count;
        // Deterministic posting order, grouped by (spec, workflow). The
        // lists stay unsealed until their first lookup (block compression
        // is a read-path cost, never a build/refresh one).
        let into_list = |(t, mut v): (String, Vec<Posting>)| {
            v.sort_by_key(|p: &Posting| (p.spec, p.workflow, p.module));
            (t, PostingList::from_postings(v))
        };
        idx.terms = terms.into_iter().map(into_list).collect();
        idx.phrases = phrases.into_iter().map(into_list).collect();
        idx
    }

    /// Bring the index up to date with `repo`, incrementally when the
    /// mutation history allows it. Most repository mutations are
    /// append-only for indexing purposes: new specs append postings (their
    /// ids sort after every existing posting, so per-term order survives
    /// concatenation), while execution appends and policy swaps leave
    /// every module's text untouched — so the common refresh appends the
    /// new specs' postings, bumps `doc_count` and re-tags `built_at`
    /// without re-tokenizing a single existing module. A full rebuild
    /// happens when an existing slot's text fingerprint changed — which
    /// [`Mutation::DeleteSpec`](crate::mutation::Mutation::DeleteSpec) /
    /// [`Mutation::EditSpec`](crate::mutation::Mutation::EditSpec) *can*
    /// now cause when their typed targeted maintenance
    /// ([`Self::delete_spec`] / [`Self::edit_spec`]) was bypassed; the
    /// fast path *verifies* the invariant it rides on rather than
    /// assuming it.
    ///
    /// The per-term [`Self::df_cached`] memo is invalidated **per touched
    /// term**, not wholesale: a memoized df can only change when the
    /// appended specs post its token (or its leading phrase token), and
    /// `doc_count` lives outside the memo, so untouched terms keep their
    /// entries across the write.
    pub fn refresh(&mut self, repo: &Repository) {
        if repo.version() == self.built_at {
            return;
        }
        let changed = repo.len() < self.fingerprints.len()
            || repo.slots().take(self.fingerprints.len()).zip(&self.fingerprints).any(
                |((_, slot), fp)| match (slot, fp) {
                    (None, None) => false,
                    (Some(e), Some(fp)) => SpecTextFingerprint::of(e) != *fp,
                    _ => true,
                },
            );
        if changed {
            self.rebuild(repo);
            return;
        }
        self.append_new_specs(repo);
    }

    /// The verified full-rebuild arm shared by [`Self::refresh`] and the
    /// targeted-maintenance fallbacks: rebuild from scratch, then restore
    /// the lifetime instruments the fresh build wiped. `full_builds`
    /// accumulates (the rebuild *is* one more full build);
    /// `docs_indexed`, `docs_retracted`, `postings_decoded_by_maintenance`
    /// and `trusted_refreshes` are restored **by assignment** — a
    /// rebuild's own corpus pass is charged to `full_builds` alone, never
    /// double-counted into the incremental-work counter (see
    /// [`Self::docs_indexed`]).
    fn rebuild(&mut self, repo: &Repository) {
        let (full_builds, docs_indexed, docs_retracted, decoded, trusted) = (
            self.full_builds,
            self.docs_indexed,
            self.docs_retracted,
            self.postings_decoded_by_maintenance,
            self.trusted_refreshes,
        );
        *self = KeywordIndex::build(repo);
        self.full_builds += full_builds;
        self.docs_indexed = docs_indexed;
        self.docs_retracted = docs_retracted;
        self.postings_decoded_by_maintenance = decoded;
        self.trusted_refreshes = trusted;
    }

    /// [`Self::refresh`] minus the per-write O(corpus) fingerprint
    /// verification scan — the **trusted-epoch fast path**.
    ///
    /// `refresh` *verifies* the append-only invariant it rides on by
    /// re-fingerprinting every existing spec on every call, which is what
    /// makes a write cost O(corpus) (~hundreds of µs at 1024 specs) even
    /// when it appends nothing. That scan defends against exactly one
    /// thing: an existing spec's indexed text changing behind the index's
    /// back. A caller that *owns* the repository and feeds it only typed
    /// [`Mutation`](crate::mutation::Mutation)s can rule that out
    /// *per effect*: the non-destructive variants never edit existing
    /// spec text, and the repository's
    /// [`structure_epoch`](Repository::structure_epoch) moves exactly
    /// when a destructive one (delete / edit / tombstone) applies. The
    /// trust decision is therefore keyed on the epoch, not on slot
    /// counts: tombstones keep `repo.len()` constant across deletion, so
    /// an equal-length destructive history is *normal* — a length guard
    /// alone would silently serve stale postings. Recovery re-establishes
    /// the same trust: every replayed record was checksum-verified, so
    /// the rebuilt corpus is exactly a typed-write history. Under that
    /// ownership contract this method is sound and O(new specs) per call;
    /// without it (a repository mutated through arbitrary `&mut` access),
    /// use `refresh`, which spends the scan to verify instead of trusting.
    ///
    /// Falls back to the verifying path whenever the structure epoch
    /// moved (a destructive mutation applied since the last reconcile —
    /// the typed targeted maintenance is [`Self::delete_spec`] /
    /// [`Self::edit_spec`], which re-sync the epoch) or the repository
    /// shrank, so misuse degrades to a correct (full) rebuild, never to
    /// stale postings.
    pub fn refresh_trusted(&mut self, repo: &Repository) {
        if repo.version() == self.built_at {
            return;
        }
        if repo.len() < self.fingerprints.len() || repo.structure_epoch() != self.structure_epoch_at
        {
            self.refresh(repo);
            return;
        }
        self.trusted_refreshes += 1;
        self.append_new_specs(repo);
    }

    /// The shared append tail of [`Self::refresh`] /
    /// [`Self::refresh_trusted`] (and the re-tag tail of the targeted
    /// destructive maintenance): index slots beyond the fingerprinted
    /// prefix (tombstoned slots keep their position as `None`),
    /// invalidate only the df-memo entries those postings could move, and
    /// re-tag `built_at` / `structure_epoch_at`.
    fn append_new_specs(&mut self, repo: &Repository) {
        let mut new_terms: HashMap<String, Vec<Posting>> = HashMap::new();
        let mut new_phrases: HashMap<String, Vec<Posting>> = HashMap::new();
        for (sid, slot) in repo.slots().skip(self.fingerprints.len()) {
            let Some(entry) = slot else {
                self.fingerprints.push(None);
                continue;
            };
            let mut posted = PostedTerms::default();
            let docs = index_entry(
                sid,
                entry,
                &mut new_terms,
                &mut new_phrases,
                &mut self.module_tokens,
                &mut posted,
            );
            self.doc_count += docs;
            self.docs_indexed += docs;
            self.fingerprints.push(Some(SpecTextFingerprint::of(entry)));
            self.spec_posted.insert(sid, posted);
        }
        // Drop only the memo entries the append could have changed.
        self.df_memo.get_mut().invalidate(new_terms.keys());
        for (term, mut postings) in new_terms {
            postings.sort_by_key(|p| (p.spec, p.workflow, p.module));
            self.terms.entry(term).or_default().append_sorted(postings);
        }
        for (phrase, mut postings) in new_phrases {
            postings.sort_by_key(|p| (p.spec, p.workflow, p.module));
            self.phrases.entry(phrase).or_default().append_sorted(postings);
        }
        self.built_at = repo.version();
        self.structure_epoch_at = repo.structure_epoch();
    }

    /// Retract every posting `spec` contributed under the keys `posted`
    /// records, each list edited in place (a key whose list empties is
    /// removed outright), and drop the df-memo entries those keys could
    /// have moved. Posting order is untouched for the surviving entries,
    /// so the result is bit-identical to a fresh build over the
    /// post-retraction corpus.
    fn retract(&mut self, spec: SpecId, posted: &PostedTerms) {
        for key in &posted.terms {
            self.postings_decoded_by_maintenance += retract_postings(&mut self.terms, key, spec);
        }
        for key in &posted.phrases {
            self.postings_decoded_by_maintenance += retract_postings(&mut self.phrases, key, spec);
        }
        for m in &posted.modules {
            self.module_tokens.remove(&(spec, *m));
        }
        self.df_memo.get_mut().invalidate(&posted.terms);
    }

    /// Targeted maintenance for
    /// [`MutationEffect::SpecDeleted`](crate::mutation::MutationEffect::SpecDeleted):
    /// retract exactly the deleted spec's postings, visiting only the
    /// keys the [`PostedTerms`] reverse map lists for it (the repository
    /// entry is already a tombstone, so the keys cannot be recomputed from
    /// text) and editing each key's list in place — see
    /// [`Self::postings_decoded_by_maintenance`] for what that decodes.
    /// Falls back to the verifying [`Self::refresh`]
    /// (which rebuilds on the fingerprint mismatch) when the index never
    /// indexed the spec — the honest degenerate boundary E19 measures.
    pub fn delete_spec(&mut self, repo: &Repository, spec: SpecId) {
        let Some(posted) = self.spec_posted.remove(&spec) else {
            self.refresh(repo);
            return;
        };
        self.retract(spec, &posted);
        self.doc_count -= posted.docs;
        self.docs_retracted += posted.docs;
        if let Some(fp) = self.fingerprints.get_mut(spec.0 as usize) {
            *fp = None;
        }
        // Pick up any not-yet-indexed tail and re-tag built_at / epoch.
        self.append_new_specs(repo);
    }

    /// Targeted maintenance for
    /// [`MutationEffect::SpecEdited`](crate::mutation::MutationEffect::SpecEdited):
    /// retract the spec's old postings and re-index its current text in
    /// place. The re-indexed postings are inserted back at their id
    /// position inside each key's list (no list is decoded whole or
    /// unsealed), so per-term order — and therefore every downstream
    /// ranked score — is bit-identical to a fresh build. Falls back to
    /// the verifying [`Self::refresh`] when the index has no record of
    /// the spec.
    pub fn edit_spec(&mut self, repo: &Repository, spec: SpecId) {
        let (Some(entry), Some(old)) = (repo.entry(spec), self.spec_posted.remove(&spec)) else {
            self.refresh(repo);
            return;
        };
        self.retract(spec, &old);
        self.doc_count -= old.docs;
        self.docs_retracted += old.docs;

        let mut new_terms: HashMap<String, Vec<Posting>> = HashMap::new();
        let mut new_phrases: HashMap<String, Vec<Posting>> = HashMap::new();
        let mut posted = PostedTerms::default();
        let docs = index_entry(
            spec,
            entry,
            &mut new_terms,
            &mut new_phrases,
            &mut self.module_tokens,
            &mut posted,
        );
        self.doc_count += docs;
        self.docs_indexed += docs;
        self.df_memo.get_mut().invalidate(&posted.terms);
        for (key, mut postings) in new_terms {
            postings.sort_by_key(|p| (p.spec, p.workflow, p.module));
            self.postings_decoded_by_maintenance +=
                splice_postings(&mut self.terms, key, &postings);
        }
        for (key, mut postings) in new_phrases {
            postings.sort_by_key(|p| (p.spec, p.workflow, p.module));
            self.postings_decoded_by_maintenance +=
                splice_postings(&mut self.phrases, key, &postings);
        }
        if let Some(fp) = self.fingerprints.get_mut(spec.0 as usize) {
            *fp = Some(SpecTextFingerprint::of(entry));
        }
        self.spec_posted.insert(spec, posted);
        self.append_new_specs(repo);
    }

    /// Repository version the index reflects.
    pub fn built_at(&self) -> u64 {
        self.built_at
    }

    /// Whether the repository has mutated since this index last built or
    /// refreshed; stale indexes answer for a repository state that no
    /// longer exists.
    pub fn is_stale(&self, repo: &Repository) -> bool {
        repo.version() != self.built_at
    }

    /// Lifetime count of full builds — the incrementality instrument:
    /// refreshes that could append (or re-tag) never move it.
    pub fn full_builds(&self) -> usize {
        self.full_builds
    }

    /// Lifetime count of trusted-epoch refreshes that skipped the
    /// fingerprint verification scan (see [`Self::refresh_trusted`]).
    pub fn trusted_refreshes(&self) -> usize {
        self.trusted_refreshes
    }

    /// Lifetime count of modules indexed *incrementally*: the initial
    /// build moves it by the whole corpus, a refresh that appended `k`
    /// specs by their module count, a targeted edit by the re-indexed
    /// spec's module count — and verified full rebuilds by exactly zero
    /// (their corpus pass is charged to [`Self::full_builds`] alone, so
    /// the instrument never double-counts rebuild work), as are execution
    /// appends / policy swaps — the "zero index work" assertion the
    /// write-path tests pin down.
    pub fn docs_indexed(&self) -> usize {
        self.docs_indexed
    }

    /// Lifetime count of module documents retracted by targeted
    /// [`Self::delete_spec`] / [`Self::edit_spec`] maintenance — the
    /// destructive-write instrument: fallback rebuilds move
    /// [`Self::full_builds`] instead, so the ratio of the two is exactly
    /// E19's targeted-vs-rebuild boundary.
    pub fn docs_retracted(&self) -> usize {
        self.docs_retracted
    }

    /// Lifetime count of postings targeted [`Self::delete_spec`] /
    /// [`Self::edit_spec`] maintenance had to materialize to edit the
    /// touched lists in place — per key, what
    /// [`PostingList::remove_spec`] / [`PostingList::insert_spec_postings`]
    /// return: the spec's own postings in a pending tail or bitmap, at most
    /// [`BLOCK_POSTINGS`](crate::postings::BLOCK_POSTINGS) per delta block
    /// that can hold the spec, and a whole list only when the edit flips
    /// its shape. The work-bound instrument beside
    /// [`Self::docs_retracted`].
    pub fn postings_decoded_by_maintenance(&self) -> usize {
        self.postings_decoded_by_maintenance
    }

    /// Whether `term`'s document frequency is currently memoized —
    /// instrument for the per-term (not wholesale) memo invalidation
    /// tests.
    pub fn df_memoized(&self, term: &str) -> bool {
        self.df_memo.read().df.contains_key(term)
    }

    /// Number of indexed modules.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Number of distinct single terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// The sorted single tokens `spec` is currently posted under, or `None`
    /// for a spec the index does not hold. A module can match a query term
    /// — word, whole-tag phrase or consecutive name tokens — only if its
    /// spec posted every token of that term, so this is the vocabulary a
    /// write to the spec can change answers through
    /// ([`TouchStamps`](crate::touch::TouchStamps)).
    pub fn posted_tokens(&self, spec: SpecId) -> Option<&[String]> {
        self.spec_posted.get(&spec).map(|posted| posted.terms.as_slice())
    }

    /// All postings of a single term (unfiltered), decoded.
    pub fn lookup(&self, term: &str) -> Vec<Posting> {
        self.terms.get(&term.to_lowercase()).map(|l| l.to_vec()).unwrap_or_default()
    }

    /// The raw block-compressed list of an already-normalized single
    /// token — the kernel surface (block skips, bitmap membership) that
    /// intersection and the criterion benches probe directly.
    pub fn term_postings(&self, token: &str) -> Option<&PostingList> {
        self.terms.get(token)
    }

    /// The raw whole-tag list of a normalized phrase.
    pub fn phrase_postings(&self, phrase: &str) -> Option<&PostingList> {
        self.phrases.get(phrase)
    }

    /// Postings of a query term or phrase. Phrases match whole keyword tags
    /// or consecutive module-name tokens.
    pub fn lookup_query_term(&self, term: &str) -> Vec<Posting> {
        let normalized = tokenize(term).join(" ");
        let mut out = Vec::new();
        with_scratch(|s| {
            let QueryScratch { seed, block, .. } = s;
            self.lookup_normalized_into(&normalized, None, block, seed, &mut out);
        });
        out
    }

    /// Kernel form of [`Self::lookup_query_term`]: `term` must already be
    /// normalized (lowercased, single-space-joined — the form
    /// `KeywordQuery::parse` produces), `restrict` optionally limits
    /// decoding to the given sorted candidate specs (blocks outside the
    /// set are skipped, not decoded), and the caller supplies the block /
    /// phrase-seed scratch instead of allocating per call. `out` is
    /// cleared first and receives postings in `(spec, workflow, module)`
    /// order.
    pub fn lookup_normalized_into(
        &self,
        term: &str,
        restrict: Option<&[u32]>,
        block: &mut Vec<Posting>,
        seed: &mut Vec<Posting>,
        out: &mut Vec<Posting>,
    ) {
        out.clear();
        let mut words = term.split(' ').filter(|w| !w.is_empty());
        let Some(first) = words.next() else { return };
        if words.next().is_none() {
            if let Some(list) = self.terms.get(first) {
                match restrict {
                    Some(specs) => list.gather_specs_into(specs, block, out),
                    None => list.decode_into(out),
                }
            }
            return;
        }
        // Phrase: whole-tag postings, then consecutive-name-token hits
        // seeded from the first token's postings and verified for
        // adjacency.
        if let Some(list) = self.phrases.get(term) {
            match restrict {
                Some(specs) => list.gather_specs_into(specs, block, out),
                None => list.decode_into(out),
            }
        }
        seed.clear();
        if let Some(list) = self.terms.get(first) {
            match restrict {
                Some(specs) => list.gather_specs_into(specs, block, seed),
                None => list.decode_into(seed),
            }
        }
        let tokens: Vec<&str> = term.split(' ').filter(|w| !w.is_empty()).collect();
        for p in seed.iter() {
            if out.iter().any(|q| q.spec == p.spec && q.module == p.module) {
                continue;
            }
            if let Some(seq) = self.module_tokens.get(&(p.spec, p.module)) {
                if seq
                    .windows(tokens.len())
                    .any(|w| w.iter().map(String::as_str).eq(tokens.iter().copied()))
                {
                    out.push(*p);
                }
            }
        }
        out.sort_by_key(|p| (p.spec, p.workflow, p.module));
    }

    /// Sorted candidate specs for an AND query over normalized `terms`:
    /// the galloping/bitwise intersection of every term's spec superset
    /// (see [`TermLists`]). Returns `false` when some term has no posting
    /// list at all — the query provably has no hits; `true` with an empty
    /// `out` means the intersection itself came up empty. Touches no
    /// access state: candidate discovery is privilege-oblivious, exactly
    /// like the per-term candidate postings it summarizes.
    pub fn candidate_specs_into(
        &self,
        terms: &[String],
        tmp: &mut Vec<u32>,
        out: &mut Vec<u32>,
    ) -> bool {
        out.clear();
        let mut groups = Vec::with_capacity(terms.len());
        for term in terms {
            let mut words = term.split(' ').filter(|w| !w.is_empty());
            let Some(first) = words.next() else { return false };
            let group = if words.next().is_none() {
                TermLists { primary: self.terms.get(first), seed: None }
            } else {
                TermLists { primary: self.phrases.get(term.as_str()), seed: self.terms.get(first) }
            };
            if group.primary.is_none() && group.seed.is_none() {
                return false;
            }
            groups.push(group);
        }
        intersect_term_specs(&groups, tmp, out);
        true
    }

    /// Privilege-filtered postings: only those whose workflow lies inside
    /// the principal's access view for that spec. `access` is any
    /// [`SpecAccess`] — an eager `spec → prefix` map, or a lazy
    /// [`AccessResolver`](crate::principals::AccessResolver), in which case
    /// **only the specs appearing in this term's candidate postings are
    /// resolved** (the lazy cold-path win). Specs the access view does not
    /// know are invisible. Postings are sorted by `(spec, workflow,
    /// module)`, so consecutive same-spec postings share one prefix fetch.
    pub fn lookup_filtered<A: SpecAccess + ?Sized>(&self, term: &str, access: &A) -> Vec<Posting> {
        let mut out = self.lookup_query_term(term);
        filter_postings(&mut out, access);
        out
    }

    /// Document frequency of a query term or phrase (number of matching
    /// modules in this index's corpus). Additive across a disjoint spec
    /// partition: a cluster sums per-shard `df`s to recover the corpus df.
    pub fn df(&self, term: &str) -> usize {
        // Already-normalized single tokens (the query layer's form) count
        // without materializing the posting list; an ASCII lower/digit term
        // tokenizes to itself, so this is exactly
        // `lookup_query_term(term).len()`. Anything else (uppercase,
        // Unicode titlecase, phrases) takes the normalizing slow path.
        if !term.is_empty()
            && term.chars().all(|c| c.is_ascii_alphanumeric() && !c.is_ascii_uppercase())
        {
            return self.terms.get(term).map_or(0, |v| v.len());
        }
        self.lookup_query_term(term).len()
    }

    /// [`Self::df`] through the per-term memo. Single already-normalized
    /// tokens are O(1) either way; the memo exists for **phrases**, whose
    /// `df` otherwise re-materializes `lookup_query_term` (tag probe +
    /// adjacency verification over seed postings) — which the cluster's
    /// ranked gather used to pay per shard per request. First request per
    /// term per index build computes; every later one is a map probe.
    pub fn df_cached(&self, term: &str) -> usize {
        if let Some(&df) = self.df_memo.read().df.get(term) {
            return df;
        }
        let df = self.df(term);
        self.df_memo.write().insert(term, df);
        df
    }

    /// [`Self::idf`] over the memoized document frequency — what the
    /// single engine's ranking path uses, keeping warm ranked queries off
    /// the posting lists entirely.
    pub fn idf_cached(&self, term: &str) -> f64 {
        Self::idf_from_counts(self.doc_count, self.df_cached(term))
    }

    /// Whether a *normalized* query term (lowercased, space-joined — the
    /// form `KeywordQuery::parse` produces) could have a posting here: the
    /// allocation-free gate the scatter router probes to skip shards before
    /// any access-map work. Conservative for phrases (whole-tag or
    /// first-token presence admits the shard), so `false` is always safe to
    /// prune on.
    pub fn may_match(&self, term: &str) -> bool {
        let mut words = term.split(' ');
        let Some(first) = words.next() else { return false };
        if first.is_empty() {
            return false;
        }
        if words.next().is_none() {
            self.terms.contains_key(first)
        } else {
            self.phrases.contains_key(term) || self.terms.contains_key(first)
        }
    }

    /// The IDF formula (ln((N+1)/(df+1)) + 1) over explicit counts, so a
    /// cluster can score with corpus-global statistics summed from shards
    /// and produce bit-identical scores to a single unsharded index.
    pub fn idf_from_counts(doc_count: usize, df: usize) -> f64 {
        ((doc_count as f64 + 1.0) / (df as f64 + 1.0)).ln() + 1.0
    }

    /// Inverse document frequency of a term (ln((N+1)/(df+1)) + 1).
    pub fn idf(&self, term: &str) -> f64 {
        Self::idf_from_counts(self.doc_count, self.df(term))
    }
}

/// Drop inadmissible postings in place: only those whose workflow lies
/// inside `access`'s view for their spec survive. Postings arrive sorted
/// by `(spec, workflow, module)`, so consecutive same-spec postings share
/// one prefix fetch — with a lazy
/// [`AccessResolver`](crate::principals::AccessResolver) this resolves
/// once per candidate spec run (block-at-a-time, never per posting), and
/// only for specs actually present in the candidate postings.
pub fn filter_postings<A: SpecAccess + ?Sized>(postings: &mut Vec<Posting>, access: &A) {
    let mut current: Option<(SpecId, Option<crate::principals::AccessPrefix<'_>>)> = None;
    postings.retain(|p| {
        if current.as_ref().map(|(sid, _)| *sid) != Some(p.spec) {
            current = Some((p.spec, access.prefix_of(p.spec)));
        }
        let (_, prefix) = current.as_ref().expect("just filled");
        prefix.as_ref().is_some_and(|pre| pre.contains(p.workflow))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;
    use ppwf_model::hierarchy::Prefix;

    fn repo() -> Repository {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        repo.insert_spec(spec, Policy::public()).unwrap();
        repo
    }

    #[test]
    fn borrowed_tokens_are_the_tokenization() {
        for text in ["Database, Disorder Risks", "kw12, kw7", "  ,--", "Ünïcode ΣΑΣ x1Y", ""] {
            let walked: Vec<String> = tokens(text).map(Cow::into_owned).collect();
            assert_eq!(walked, tokenize(text), "{text:?}");
        }
        assert!(tokens("kw12, query omim").all(|t| matches!(t, Cow::Borrowed(_))));
    }

    #[test]
    fn tokenization() {
        assert_eq!(tokenize("Expand SNP Set"), vec!["expand", "snp", "set"]);
        assert_eq!(tokenize("Query-OMIM!"), vec!["query", "omim"]);
        assert!(tokenize("  ").is_empty());
    }

    #[test]
    fn indexes_all_proper_modules() {
        let r = repo();
        let idx = KeywordIndex::build(&r);
        assert_eq!(idx.doc_count(), 15, "M1..M15, pseudo-modules excluded");
        assert_eq!(idx.built_at(), r.version());
        assert!(idx.term_count() > 10);
    }

    #[test]
    fn single_term_lookup_with_classification() {
        let r = repo();
        let idx = KeywordIndex::build(&r);
        // "database" appears (singular) only in M5 "Generate Database
        // Queries" (W4) — M4's "Databases" is a different token. Name and
        // tag occurrences merge into one posting with tf = 2.
        let m = fixtures::handles(&r.entry(SpecId(0)).unwrap().spec);
        let postings = idx.lookup("database");
        assert_eq!(postings.len(), 1, "{postings:?}");
        assert_eq!(postings[0].module, m.m5);
        assert_eq!(postings[0].tf, 2);
        assert_eq!(postings[0].workflow.index(), 3, "classified under W4");
    }

    #[test]
    fn phrase_matches_tag_and_name() {
        let r = repo();
        let idx = KeywordIndex::build(&r);
        let spec = &r.entry(SpecId(0)).unwrap().spec;
        let m = fixtures::handles(spec);
        // Tag phrase: M2 carries keyword "disorder risks".
        let p = idx.lookup_query_term("Disorder Risks");
        assert!(p.iter().any(|x| x.module == m.m2));
        // Name phrase: "expand snp" matches M3's consecutive name tokens.
        let p2 = idx.lookup_query_term("expand snp");
        assert!(p2.iter().any(|x| x.module == m.m3));
        // Non-consecutive words do not phrase-match.
        let p3 = idx.lookup_query_term("expand set");
        assert!(p3.iter().all(|x| x.module != m.m3));
    }

    #[test]
    fn privilege_filtering_by_prefix() {
        let r = repo();
        let idx = KeywordIndex::build(&r);
        let entry = r.entry(SpecId(0)).unwrap();
        let m = fixtures::handles(&entry.spec);
        let mut access = HashMap::new();
        // Root-only view: W4's postings are inadmissible.
        access.insert(SpecId(0), Prefix::root_only(&entry.hierarchy));
        let filtered = idx.lookup_filtered("database", &access);
        assert!(filtered.is_empty(), "M5 lives in W4, invisible at root-only");
        // Full view admits them.
        access.insert(SpecId(0), Prefix::full(&entry.hierarchy));
        let full = idx.lookup_filtered("database", &access);
        assert!(full.iter().any(|p| p.module == m.m5));
        // Unknown specs are invisible.
        let empty: HashMap<SpecId, Prefix> = HashMap::new();
        assert!(idx.lookup_filtered("database", &empty).is_empty());
        // The lazy resolver filters identically.
        use crate::principals::{AccessCache, PrincipalRegistry, ViewRule};
        use ppwf_core::policy::AccessLevel;
        let mut reg = PrincipalRegistry::new();
        reg.add_group("root", AccessLevel(0), ViewRule::RootOnly);
        reg.add_group("full", AccessLevel(3), ViewRule::Full);
        let cache = AccessCache::new();
        let coarse = cache.resolver(&reg, &r, "root").unwrap();
        assert!(idx.lookup_filtered("database", &coarse).is_empty());
        let fine = cache.resolver(&reg, &r, "full").unwrap();
        assert!(idx.lookup_filtered("database", &fine).iter().any(|p| p.module == m.m5));
        assert_eq!(fine.resolved_specs(), vec![SpecId(0)], "only the candidate spec resolved");
    }

    #[test]
    fn df_memo_agrees_with_df() {
        let r = repo();
        let idx = KeywordIndex::build(&r);
        for term in ["query", "disorder risks", "expand snp", "nonexistent"] {
            assert_eq!(idx.df_cached(term), idx.df(term), "memo diverged on {term:?}");
            // Second probe serves from the memo.
            assert_eq!(idx.df_cached(term), idx.df(term));
            assert_eq!(idx.idf_cached(term), idx.idf(term));
        }
    }

    #[test]
    fn df_memo_is_capacity_bounded() {
        let r = repo();
        let idx = KeywordIndex::build(&r);
        // A stream of unique (attacker-shaped) terms must not grow the
        // memo past its cap; answers stay correct past it.
        for i in 0..DF_MEMO_CAP + 50 {
            assert_eq!(idx.df_cached(&format!("zz{i}")), 0);
        }
        assert!(idx.df_memo.read().df.len() <= DF_MEMO_CAP);
        assert_eq!(idx.df_cached("query"), idx.df("query"), "past-cap lookups still correct");
    }

    #[test]
    fn idf_favors_rare_terms() {
        let r = repo();
        let idx = KeywordIndex::build(&r);
        // "query" appears in several modules; "reformat" in one.
        assert!(idx.idf("reformat") > idx.idf("query"));
        // Unknown terms get the maximum idf.
        assert!(idx.idf("nonexistent") >= idx.idf("reformat"));
    }

    #[test]
    fn refresh_appends_without_rebuilding() {
        let mut r = repo();
        let mut idx = KeywordIndex::build(&r);
        assert_eq!(idx.full_builds(), 1);
        assert_eq!(idx.docs_indexed(), 15);

        // Execution appends and policy swaps: re-tag only, zero work.
        let exec = {
            let entry = r.entry(SpecId(0)).unwrap();
            fixtures::disease_susceptibility_execution(&entry.spec)
        };
        r.add_execution(SpecId(0), exec).unwrap();
        assert!(idx.is_stale(&r));
        idx.refresh(&r);
        assert!(!idx.is_stale(&r));
        assert_eq!(idx.full_builds(), 1, "execution append must not rebuild");
        assert_eq!(idx.docs_indexed(), 15, "execution append must index nothing");
        r.set_policy(SpecId(0), Policy::public()).unwrap();
        idx.refresh(&r);
        assert_eq!((idx.full_builds(), idx.docs_indexed()), (1, 15));

        // Spec inserts append exactly the new specs' postings.
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        idx.refresh(&r);
        assert_eq!(idx.full_builds(), 1, "append path must not rebuild");
        assert_eq!(idx.docs_indexed(), 30, "only the new spec's modules indexed");
        assert_eq!(idx.doc_count(), 30);

        // The refreshed index is bit-identical to a fresh build.
        let fresh = KeywordIndex::build(&r);
        assert_eq!(idx.doc_count(), fresh.doc_count());
        assert_eq!(idx.term_count(), fresh.term_count());
        for term in ["database", "query", "risk", "disorder risks", "expand snp"] {
            assert_eq!(idx.lookup_query_term(term), fresh.lookup_query_term(term), "{term:?}");
            assert_eq!(idx.df(term), fresh.df(term));
            assert_eq!(idx.df_cached(term), fresh.df_cached(term));
        }
    }

    #[test]
    fn refresh_invalidates_df_memo_per_touched_term_only() {
        let mut r = repo();
        let mut idx = KeywordIndex::build(&r);
        // Memoize a term the fixture corpus touches on every insert, one
        // phrase, and one absent term.
        let df_database = idx.df_cached("database");
        idx.df_cached("disorder risks");
        idx.df_cached("unobtainium");
        assert!(idx.df_memoized("database") && idx.df_memoized("unobtainium"));

        // An execution append leaves the memo alone wholesale.
        let exec = {
            let entry = r.entry(SpecId(0)).unwrap();
            fixtures::disease_susceptibility_execution(&entry.spec)
        };
        r.add_execution(SpecId(0), exec).unwrap();
        idx.refresh(&r);
        assert!(idx.df_memoized("database"), "structure-free refresh kept the memo");
        assert!(idx.df_memoized("disorder risks"));

        // Inserting another fixture spec touches "database" and the
        // "disorder risks" tag but cannot touch the absent term.
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        idx.refresh(&r);
        assert!(!idx.df_memoized("database"), "touched term must drop from the memo");
        assert!(!idx.df_memoized("disorder risks"), "touched phrase must drop too");
        assert!(idx.df_memoized("unobtainium"), "untouched term must survive the append");
        assert_eq!(idx.df_cached("database"), df_database * 2, "recomputed df sees both specs");
        assert_eq!(idx.df_cached("unobtainium"), 0);
    }

    #[test]
    fn a_write_inspects_only_the_memo_entries_filed_under_its_tokens() {
        let mut r = repo();
        let mut idx = KeywordIndex::build(&r);
        // A memo full of terms no fixture spec posts, and three a fixture
        // insert touches: a token, a tag phrase and a name phrase.
        for i in 0..2_000 {
            idx.df_cached(&format!("unrelated{i}"));
        }
        for term in ["database", "Disorder Risks", "expand snp"] {
            idx.df_cached(term);
        }
        let inspected = |idx: &KeywordIndex| idx.df_memo.read().inspected;
        assert_eq!(inspected(&idx), 0);
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        idx.refresh_trusted(&r);
        assert_eq!(inspected(&idx), 3, "the append looked at the three entries it dropped");
        assert!(!idx.df_memoized("Disorder Risks") && !idx.df_memoized("expand snp"));
        assert!(idx.df_memoized("unrelated7"));
        // A delete touches the same keys: nothing of theirs is memoized
        // any more, so it inspects nothing however full the memo is.
        r.delete_spec(SpecId(1)).unwrap();
        idx.delete_spec(&r, SpecId(1));
        assert_eq!(inspected(&idx), 3);
        assert_eq!(idx.df_memo.read().df.len(), 2_000);
        for term in ["database", "Disorder Risks", "expand snp"] {
            assert_eq!(idx.df_cached(term), KeywordIndex::build(&r).df(term), "{term:?}");
        }
    }

    #[test]
    fn refresh_rebuilds_on_structural_mismatch() {
        // A shrunken repository breaks the append-only invariant: refresh
        // must detect it (fingerprint count) and fall back to a rebuild.
        let mut big = Repository::new();
        for _ in 0..2 {
            let (spec, _) = fixtures::disease_susceptibility();
            big.insert_spec(spec, Policy::public()).unwrap();
        }
        let mut idx = KeywordIndex::build(&big);
        let small = repo();
        idx.refresh(&small);
        assert_eq!(idx.full_builds(), 2, "mismatch must force a verified full rebuild");
        assert_eq!(idx.doc_count(), 15);
        assert_eq!(idx.lookup("database"), KeywordIndex::build(&small).lookup("database"));
    }

    #[test]
    fn trusted_refresh_matches_verifying_refresh_bit_for_bit() {
        let mut r = repo();
        let mut trusted = KeywordIndex::build(&r);
        let mut verifying = KeywordIndex::build(&r);

        // Typed mutation history: inserts, an execution append, a policy
        // swap — the exact write vocabulary the trust contract covers.
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        trusted.refresh_trusted(&r);
        verifying.refresh(&r);
        let exec = {
            let entry = r.entry(SpecId(0)).unwrap();
            fixtures::disease_susceptibility_execution(&entry.spec)
        };
        r.add_execution(SpecId(0), exec).unwrap();
        r.set_policy(SpecId(0), Policy::public()).unwrap();
        trusted.refresh_trusted(&r);
        verifying.refresh(&r);

        assert_eq!(trusted.trusted_refreshes(), 2);
        assert_eq!(verifying.trusted_refreshes(), 0);
        assert_eq!(trusted.full_builds(), 1, "trusted path must never rebuild");
        assert_eq!(trusted.doc_count(), verifying.doc_count());
        assert_eq!(trusted.docs_indexed(), verifying.docs_indexed());
        assert_eq!(trusted.built_at(), verifying.built_at());
        for term in ["database", "query", "risk", "disorder risks", "expand snp"] {
            assert_eq!(trusted.lookup_query_term(term), verifying.lookup_query_term(term));
            assert_eq!(trusted.df(term), verifying.df(term));
        }
    }

    #[test]
    fn trusted_refresh_degrades_safely_on_shrunken_repository() {
        let mut big = Repository::new();
        for _ in 0..2 {
            let (spec, _) = fixtures::disease_susceptibility();
            big.insert_spec(spec, Policy::public()).unwrap();
        }
        let mut idx = KeywordIndex::build(&big);
        let small = repo();
        idx.refresh_trusted(&small);
        assert_eq!(idx.full_builds(), 2, "shrink must fall back to the verified rebuild");
        assert_eq!(idx.trusted_refreshes(), 0, "the fallback is not a trusted refresh");
        assert_eq!(idx.doc_count(), 15);
    }

    #[test]
    fn trusted_refresh_falls_back_on_equal_length_destructive_history() {
        use crate::mutation::{ModuleTextEdit, SpecText};
        let mut r = repo();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let mut idx = KeywordIndex::build(&r);
        // A delete leaves a tombstone, so repo.len() stays 2 — a
        // length-only guard cannot distinguish this from an append-only
        // history and would serve spec 1's retracted postings forever.
        r.delete_spec(SpecId(1)).unwrap();
        idx.refresh_trusted(&r);
        assert_eq!(idx.trusted_refreshes(), 0, "destructive epoch must skip the trusted shortcut");
        assert_eq!(idx.full_builds(), 2, "the fallback is the verified rebuild");
        let fresh = KeywordIndex::build(&r);
        assert_eq!(idx.doc_count(), fresh.doc_count());
        assert_eq!(idx.lookup("database"), fresh.lookup("database"));

        // Same for an in-place edit: length and module counts unchanged.
        let m = fixtures::handles(&r.entry(SpecId(0)).unwrap().spec);
        r.edit_spec(
            SpecId(0),
            &SpecText {
                edits: vec![ModuleTextEdit {
                    module: m.m5,
                    name: "Sanitized".into(),
                    keywords: vec!["redacted".into()],
                }],
            },
        )
        .unwrap();
        idx.refresh_trusted(&r);
        assert_eq!(idx.trusted_refreshes(), 0);
        assert!(idx.lookup("database").is_empty(), "edited-away token must not linger");
        assert_eq!(idx.lookup("redacted"), KeywordIndex::build(&r).lookup("redacted"));
    }

    #[test]
    fn rebuild_restores_docs_indexed_without_double_counting() {
        use crate::mutation::{ModuleTextEdit, SpecText};
        let mut r = repo();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let mut idx = KeywordIndex::build(&r);
        assert_eq!(idx.docs_indexed(), 30, "the initial build is incremental work");
        // Text changed behind the index's back: the verifying refresh
        // must rebuild — charged to full_builds, never re-counted into
        // docs_indexed.
        let m = fixtures::handles(&r.entry(SpecId(0)).unwrap().spec);
        r.edit_spec(
            SpecId(0),
            &SpecText {
                edits: vec![ModuleTextEdit {
                    module: m.m3,
                    name: "Renamed Step".into(),
                    keywords: vec![],
                }],
            },
        )
        .unwrap();
        idx.refresh(&r);
        assert_eq!(idx.full_builds(), 2);
        assert_eq!(idx.docs_indexed(), 30, "rebuild work must not inflate the incremental counter");
    }

    #[test]
    fn delete_spec_retracts_postings_bit_identically() {
        let mut r = repo();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let mut idx = KeywordIndex::build(&r);
        idx.df_cached("database");
        idx.df_cached("unobtainium");
        r.delete_spec(SpecId(0)).unwrap();
        idx.delete_spec(&r, SpecId(0));
        assert_eq!(idx.full_builds(), 1, "targeted retraction must not rebuild");
        assert_eq!(idx.docs_retracted(), 15);
        assert_eq!(idx.doc_count(), 15);
        assert!(!idx.is_stale(&r));
        assert!(!idx.df_memoized("database"), "touched df entries die with the retraction");
        assert!(idx.df_memoized("unobtainium"), "untouched entries survive it");
        let fresh = KeywordIndex::build(&r);
        assert_eq!(idx.doc_count(), fresh.doc_count());
        assert_eq!(idx.term_count(), fresh.term_count());
        for term in ["database", "query", "risk", "disorder risks", "expand snp"] {
            assert_eq!(idx.lookup_query_term(term), fresh.lookup_query_term(term), "{term:?}");
            assert_eq!(idx.df(term), fresh.df(term));
            assert_eq!(idx.df_cached(term), fresh.df_cached(term));
        }
        // A later trusted refresh over an appended spec works again: the
        // targeted maintenance re-synced the structure epoch.
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        idx.refresh_trusted(&r);
        assert_eq!(idx.trusted_refreshes(), 1, "epoch re-sync restores the trusted shortcut");
        assert_eq!(idx.doc_count(), 30);
    }

    #[test]
    fn edit_spec_reindexes_in_place_bit_identically() {
        use crate::mutation::{ModuleTextEdit, SpecText};
        let mut r = repo();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let mut idx = KeywordIndex::build(&r);
        let m = fixtures::handles(&r.entry(SpecId(0)).unwrap().spec);
        r.edit_spec(
            SpecId(0),
            &SpecText {
                edits: vec![ModuleTextEdit {
                    module: m.m5,
                    name: "Sanitized".into(),
                    keywords: vec!["redacted".into()],
                }],
            },
        )
        .unwrap();
        idx.edit_spec(&r, SpecId(0));
        assert_eq!(idx.full_builds(), 1, "targeted edit must not rebuild");
        assert_eq!(idx.docs_indexed(), 45, "edit re-indexes exactly the one spec");
        assert_eq!(idx.docs_retracted(), 15);
        assert!(!idx.is_stale(&r));
        let fresh = KeywordIndex::build(&r);
        assert_eq!(idx.doc_count(), fresh.doc_count());
        assert_eq!(idx.term_count(), fresh.term_count());
        for term in ["database", "redacted", "sanitized", "query", "disorder risks", "expand snp"] {
            assert_eq!(idx.lookup_query_term(term), fresh.lookup_query_term(term), "{term:?}");
            assert_eq!(idx.df(term), fresh.df(term));
        }
        // The splice lands spec 0's re-indexed postings *before* spec 1's
        // (interior id), and spec 1's "database" posting survives.
        assert!(idx.lookup("database").iter().any(|p| p.spec == SpecId(1)));
        assert!(idx.lookup("database").iter().all(|p| p.spec != SpecId(0)));
    }

    #[test]
    fn refresh_is_idempotent_when_current() {
        let r = repo();
        let mut idx = KeywordIndex::build(&r);
        idx.refresh(&r);
        assert_eq!((idx.full_builds(), idx.docs_indexed()), (1, 15), "up-to-date refresh no-ops");
    }

    #[test]
    fn deterministic_posting_order() {
        let r = repo();
        let a = KeywordIndex::build(&r);
        let b = KeywordIndex::build(&r);
        assert_eq!(a.lookup("query"), b.lookup("query"));
    }
}
