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
//!
//! **Maintenance is a fold over the write log.** The index is derived state
//! of the repository, and every write reaches it as the typed
//! [`MutationEffect`] that [`Repository::apply`] returned. Its owner builds
//! it once ([`KeywordIndex::build`]) and then hands it every effect, in
//! order, through [`KeywordIndex::apply_effect`] — the one maintenance
//! entry point. An insert appends the new spec's postings, a delete
//! retracts exactly the spec's own, an edit retracts and re-indexes the one
//! spec in place, and execution appends and policy swaps change nothing
//! indexed. Nothing is verified against the repository at run time: the
//! effect says what changed, and the oracle that the result equals a fresh
//! `build` of the same repository lives in the tests.
//!
//! An index may also hold a **partition** of the repository: a cluster
//! shard's index posts only the specifications placed on it, under their
//! repository ids ([`KeywordIndex::build_partition`]), and is handed only
//! those specifications' effects. Document counts and frequencies are then
//! additive across the partitions.

use crate::mutation::MutationEffect;
use crate::postings::{intersect_term_specs, with_scratch, PostingList, TermLists};
use crate::principals::SpecAccess;
use crate::repository::{Repository, SpecEntry, SpecId};
use parking_lot::RwLock;
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

/// The exact index keys one spec's postings live under — the reverse map
/// that lets a delete or an edit visit only the spec's own keys instead of
/// the whole index: by the time a delete's maintenance runs, the
/// repository entry is already a tombstone, so the keys cannot be
/// recomputed from the spec text. Per key the work is one binary search
/// and one drain of the spec's run ([`PostingList::remove_spec`]), never a
/// rebuild of the key's list. Beside them, the spec's module names, which
/// consecutive-token phrases are matched against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct PostedTerms {
    /// Sorted, deduplicated single-token keys the spec posted under.
    terms: Vec<String>,
    /// Sorted, deduplicated whole-tag phrase keys.
    phrases: Packed,
    /// Each module's name tokens joined by single spaces, by module index
    /// (empty for the pseudo-modules), for [`holds_phrase`].
    names: Packed,
    /// Modules (documents) the spec contributed to `doc_count`.
    docs: usize,
}

/// Strings stored end to end in one buffer: one allocation for all of a
/// spec's phrase keys or module names instead of one per string.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Packed {
    text: String,
    /// Where each string ends in `text`.
    ends: Vec<u32>,
}

impl Packed {
    /// Append `word` to the string being written, a space after the
    /// previous word.
    fn push_word(&mut self, word: &str) {
        if self.text.len() > self.ends.last().map_or(0, |&end| end as usize) {
            self.text.push(' ');
        }
        self.text.push_str(word);
    }

    /// End the string being written (empty if nothing was pushed).
    fn seal(&mut self) {
        self.ends.push(self.text.len() as u32);
    }

    fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.seal();
    }

    /// The `i`th string.
    fn get(&self, i: usize) -> Option<&str> {
        let end = *self.ends.get(i)? as usize;
        let start = i.checked_sub(1).map_or(0, |before| self.ends[before] as usize);
        Some(&self.text[start..end])
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let s = &self.text[start..end as usize];
            start = end as usize;
            s
        })
    }
}

/// The index.
#[derive(Debug, Default)]
pub struct KeywordIndex {
    /// Per-token postings, one sorted vector per token (see
    /// [`crate::postings`]): new specs append, and retraction and splice
    /// edit the one spec's run in place.
    terms: HashMap<String, PostingList>,
    /// Whole keyword tags, normalized, for phrase matching.
    phrases: HashMap<String, PostingList>,
    /// Per-live-spec reverse map of posted keys and module names (see
    /// [`PostedTerms`]).
    spec_posted: HashMap<SpecId, PostedTerms>,
    /// Number of indexed modules (documents) — the IDF denominator.
    doc_count: usize,
    /// One past the last repository slot the index has seen: the whole
    /// repository at build time, then each insert handed to it. An insert
    /// always names a slot at or past it (ids only grow).
    slots: usize,
    /// Lifetime count of modules indexed (see [`Self::docs_indexed`]).
    docs_indexed: usize,
    /// Lifetime count of modules retracted (see [`Self::docs_retracted`]).
    docs_retracted: usize,
    /// Per-query-term document-frequency memo ([`Self::df_cached`]).
    /// Bounded at [`DF_MEMO_CAP`]: terms are user-supplied strings, and a
    /// mutation-free workload never invalidates it, so an unbounded memo
    /// would be an attacker-controllable allocation.
    df_memo: RwLock<DfMemo>,
}

/// Two indexes are equal when they hold the same contents: every key's
/// postings (order, `tf` and distinct-spec count), every spec's posted
/// keys and module names, the document count and the slots seen. The df
/// memo and the lifetime counters are instruments, not contents, and are
/// not compared.
impl PartialEq for KeywordIndex {
    fn eq(&self, other: &Self) -> bool {
        self.terms == other.terms
            && self.phrases == other.phrases
            && self.spec_posted == other.spec_posted
            && self.doc_count == other.doc_count
            && self.slots == other.slots
    }
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
        if self.by_first_token.is_empty() {
            return;
        }
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

/// One spec's postings as `(key, posting)` entries, before they reach the
/// index — the scratch a [`KeywordIndex::post`] pass reuses for every spec,
/// so a build allocates only what the index keeps. Keys borrow the spec's
/// text wherever a token is already in normal form.
#[derive(Default)]
struct SpecEntries<'r> {
    /// One entry per name- and tag-token occurrence, `tf` 1 each:
    /// [`post_runs`] folds a module's repeats into one posting.
    terms: Vec<(Cow<'r, str>, Posting)>,
    /// One entry per non-empty normalized tag (a repeated tag posts twice).
    phrases: Vec<(Cow<'r, str>, Posting)>,
    /// The run of one key, as it goes into the key's list.
    run: Vec<Posting>,
}

/// `tag`'s whole-tag phrase key: its tokens joined by single spaces,
/// borrowed when the tag already is that (lowercase ASCII words, one space
/// apart).
fn phrase_key(tag: &str) -> Cow<'_, str> {
    let normal = tag.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b' ')
        && !tag.starts_with(' ')
        && !tag.ends_with(' ')
        && !tag.contains("  ");
    if normal {
        Cow::Borrowed(tag)
    } else {
        Cow::Owned(tokens(tag).collect::<Vec<_>>().join(" "))
    }
}

/// Whether `phrase` — tokens joined by single spaces — is a run of
/// consecutive tokens of `name` (joined the same way). No token holds a
/// space, so that is a match starting at a token start and ending at a
/// token end.
fn holds_phrase(name: &str, phrase: &str) -> bool {
    let mut starts = std::iter::once(0).chain(name.match_indices(' ').map(|(at, _)| at + 1));
    starts.any(|at| {
        name[at..].strip_prefix(phrase).is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
    })
}

/// Collect every proper module of one spec into `scratch`'s entries;
/// returns the spec's [`PostedTerms`] with its module names and without
/// its keys, which [`post_runs`] fills in.
fn index_entry<'r>(
    sid: SpecId,
    entry: &'r SpecEntry,
    scratch: &mut SpecEntries<'r>,
) -> PostedTerms {
    let mut posted = PostedTerms::default();
    for module in entry.spec.modules() {
        if module.kind.is_distinguished() {
            posted.names.seal();
            continue;
        }
        posted.docs += 1;
        let posting = Posting { spec: sid, module: module.id, workflow: module.workflow, tf: 1 };
        for t in tokens(&module.name) {
            posted.names.push_word(&t);
            scratch.terms.push((t, posting));
        }
        for tag in &module.keywords {
            scratch.terms.extend(tokens(tag).map(|t| (t, posting)));
            let phrase = phrase_key(tag);
            if !phrase.is_empty() {
                scratch.phrases.push((phrase, posting));
            }
        }
        posted.names.seal();
    }
    posted
}

/// Apply one spec's `entries` to `map`, one run per key: sorted into list
/// order (`(workflow, module)` within the spec; `merge_tf` folds a module's
/// repeated occurrences into one posting), each run is appended to its
/// key's list or, when `splice`, spliced in at the spec's id position — one
/// lookup per key, the key's `String` allocated only for a new list.
/// Drains `entries`; hands the spec's keys, sorted and distinct, to
/// `posted`.
fn post_runs(
    map: &mut HashMap<String, PostingList>,
    entries: &mut Vec<(Cow<'_, str>, Posting)>,
    run: &mut Vec<Posting>,
    splice: bool,
    merge_tf: bool,
    mut posted: impl FnMut(&str),
) {
    entries.sort_unstable_by(|(a, p), (b, q)| {
        a.cmp(b).then_with(|| (p.workflow, p.module).cmp(&(q.workflow, q.module)))
    });
    for group in entries.chunk_by(|a, b| a.0 == b.0) {
        run.clear();
        for &(_, p) in group {
            match run.last_mut() {
                Some(last) if merge_tf && last.module == p.module => last.tf += 1,
                _ => run.push(p),
            }
        }
        let key: &str = &group[0].0;
        match map.get_mut(key) {
            Some(list) if splice => list.insert_spec_postings(run),
            Some(list) => list.append_sorted(run.iter().copied()),
            None => {
                map.insert(key.to_owned(), PostingList::from_postings(run.clone()));
            }
        }
        posted(key);
    }
    entries.clear();
}

/// What one [`KeywordIndex::apply_effect`] did to the index — exactly what
/// a cached answer computed from it can have been reached by.
#[derive(Debug)]
pub struct Touched<'a> {
    /// The single tokens the written spec leaves behind: what it was posted
    /// under before a policy swap, a delete or an edit (empty otherwise,
    /// and for a spec the index never held — no answer computed from this
    /// index can name it).
    pub left: Cow<'a, [String]>,
    /// The single tokens it arrives with after an insert or an edit (empty
    /// otherwise).
    pub arrived: &'a [String],
    /// Whether the write moved [`KeywordIndex::doc_count`].
    pub docs_moved: bool,
}

/// Drop `spec`'s postings from `map[key]` in place
/// ([`PostingList::remove_spec`]), removing the key when its list empties.
fn retract_postings(map: &mut HashMap<String, PostingList>, key: &str, spec: SpecId) {
    let Some(list) = map.get_mut(key) else { return };
    list.remove_spec(spec);
    if list.is_empty() {
        map.remove(key);
    }
}

impl KeywordIndex {
    /// Build the index over every module of every live specification —
    /// the starting point of maintenance, and the oracle it is tested
    /// against.
    pub fn build(repo: &Repository) -> Self {
        Self::build_partition(repo, |_| true)
    }

    /// [`Self::build`] over only the live specifications `keep` admits: a
    /// cluster shard's partition of the corpus index, posted under
    /// repository ids. One pass over per-spec runs (`post`): each
    /// spec's postings go straight to their keys' lists, and the build
    /// allocates only what the index keeps. Handed the effects on those
    /// specifications alone, it stays equal to a fresh partition build.
    pub fn build_partition(repo: &Repository, keep: impl Fn(SpecId) -> bool) -> Self {
        let mut idx = KeywordIndex::default();
        idx.post(repo.entries().filter(|&(sid, _)| keep(sid)), false);
        idx.slots = repo.len();
        idx
    }

    /// Maintain the index for one applied write — the one maintenance
    /// entry point (see the module docs):
    ///
    /// * `SpecInserted` appends exactly the new spec's postings: its id
    ///   sorts after every posting held, so each list's order survives;
    /// * `SpecDeleted` retracts exactly the spec's postings, visiting only
    ///   the keys the `PostedTerms` reverse map lists for it and editing
    ///   each list in place;
    /// * `SpecEdited` retracts the spec's old postings and splices the
    ///   re-indexed ones back in at their id position, so per-term order —
    ///   and every ranked score — is what a fresh build gives;
    /// * `ExecutionAppended` and `PolicyChanged` index nothing: postings
    ///   read module text and workflow placement only.
    ///
    /// The df memo drops only the entries the touched keys could move.
    ///
    /// **Ownership contract.** The caller owns the repository and hands the
    /// index every effect on the specifications it holds (all of them, or
    /// its partition's), in order, exactly as [`Repository::apply`]
    /// returned it, with `repo` in the state that `apply` left. Nothing is
    /// re-verified: debug builds check in O(1) that inserts arrive in
    /// increasing id order and that no delete is handed over early or
    /// late, and the tests check the result against a fresh build.
    pub fn apply_effect(&mut self, repo: &Repository, effect: &MutationEffect) -> Touched<'_> {
        if let MutationEffect::SpecInserted { spec } = *effect {
            debug_assert!(spec.index() >= self.slots, "inserts arrive in increasing id order");
            self.slots = spec.index() + 1;
        }
        debug_assert_eq!(
            repo.is_live(effect.spec()),
            !matches!(effect, MutationEffect::SpecDeleted { .. }),
            "effects reach the index in the order they were applied"
        );
        let docs = self.doc_count;
        let left = match *effect {
            MutationEffect::SpecDeleted { spec } | MutationEffect::SpecEdited { spec } => {
                self.retract(spec)
            }
            _ => Vec::new(),
        };
        if let MutationEffect::SpecInserted { spec } | MutationEffect::SpecEdited { spec } = *effect
        {
            let splice = matches!(effect, MutationEffect::SpecEdited { .. });
            self.post(repo.entry(spec).map(|entry| (spec, entry)), splice);
        }
        let posted = |spec| self.posted_tokens(spec).unwrap_or_default();
        Touched {
            left: match *effect {
                MutationEffect::PolicyChanged { spec } => Cow::Borrowed(posted(spec)),
                _ => Cow::Owned(left),
            },
            arrived: match *effect {
                MutationEffect::SpecInserted { spec } | MutationEffect::SpecEdited { spec } => {
                    posted(spec)
                }
                _ => &[],
            },
            docs_moved: self.doc_count != docs,
        }
    }

    /// Index every repository slot past the last one the index has seen —
    /// for a whole-corpus index, what [`Self::apply_effect`] does for an
    /// insert, without the touch report; a no-op when nothing was
    /// appended. A partition index must not call it: it would post the
    /// other partitions' specs.
    pub fn refresh_trusted(&mut self, repo: &Repository) {
        let appended = (self.slots..repo.len()).map(|i| SpecId(i as u32));
        self.post(appended.filter_map(|sid| repo.entry(sid).map(|entry| (sid, entry))), false);
        self.slots = repo.len();
    }

    /// [`Self::apply_effect`] for a `SpecDeleted` effect.
    pub fn delete_spec(&mut self, repo: &Repository, spec: SpecId) {
        self.apply_effect(repo, &MutationEffect::SpecDeleted { spec });
    }

    /// [`Self::apply_effect`] for a `SpecEdited` effect.
    pub fn edit_spec(&mut self, repo: &Repository, spec: SpecId) {
        self.apply_effect(repo, &MutationEffect::SpecEdited { spec });
    }

    /// Index `specs` and drop the df-memo entries their postings could
    /// move, in one pass over per-spec runs: each spec's entries are
    /// sorted into one run per key ([`post_runs`]) and the run goes
    /// straight to the key's list. Appended specs sort after every posting
    /// held, so a run extends its list (`append_sorted`). An edited spec —
    /// one spec, its old postings already retracted — is `splice`d in at
    /// its id position instead ([`PostingList::insert_spec_postings`]), so
    /// the single contiguous insert reproduces the `(spec, workflow,
    /// module)` order a fresh build emits.
    fn post<'r>(&mut self, specs: impl IntoIterator<Item = (SpecId, &'r SpecEntry)>, splice: bool) {
        let mut scratch = SpecEntries::default();
        for (sid, entry) in specs {
            let mut posted = index_entry(sid, entry, &mut scratch);
            let SpecEntries { terms, phrases, run } = &mut scratch;
            post_runs(&mut self.terms, terms, run, splice, true, |key| {
                posted.terms.push(key.to_owned())
            });
            post_runs(&mut self.phrases, phrases, run, splice, false, |key| {
                posted.phrases.push(key)
            });
            self.df_memo.get_mut().invalidate(&posted.terms);
            self.doc_count += posted.docs;
            self.docs_indexed += posted.docs;
            self.spec_posted.insert(sid, posted);
        }
    }

    /// Retract every posting `spec` contributed under the keys its
    /// [`PostedTerms`] record lists, each list edited in place (a key whose
    /// list empties is removed outright), and drop the df-memo entries
    /// those keys could have moved. Surviving postings keep their order.
    /// Returns the single tokens the spec was posted under (none for a
    /// spec the index does not hold).
    fn retract(&mut self, spec: SpecId) -> Vec<String> {
        let Some(posted) = self.spec_posted.remove(&spec) else { return Vec::new() };
        for key in &posted.terms {
            retract_postings(&mut self.terms, key, spec);
        }
        for key in posted.phrases.iter() {
            retract_postings(&mut self.phrases, key, spec);
        }
        self.df_memo.get_mut().invalidate(&posted.terms);
        self.doc_count -= posted.docs;
        self.docs_retracted += posted.docs;
        posted.terms
    }

    /// Lifetime count of modules indexed: the build moves it by the whole
    /// corpus, an insert by the new spec's module count, an edit by the
    /// re-indexed spec's — execution appends and policy swaps by zero, the
    /// "zero index work" the write-path tests pin down.
    pub fn docs_indexed(&self) -> usize {
        self.docs_indexed
    }

    /// Lifetime count of module documents retracted by deletes and edits —
    /// the destructive-write instrument (E19).
    pub fn docs_retracted(&self) -> usize {
        self.docs_retracted
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

    /// The raw posting list of an already-normalized single token — the
    /// kernel surface that intersection and the criterion benches probe
    /// directly.
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
        with_scratch(|s| self.lookup_normalized_into(&normalized, None, &mut s.seed, &mut out));
        out
    }

    /// Kernel form of [`Self::lookup_query_term`]: `term` must already be
    /// normalized (lowercased, single-space-joined — the form
    /// `KeywordQuery::parse` produces), `restrict` optionally limits the
    /// gather to the given sorted candidate specs, and the caller supplies
    /// the phrase-seed scratch instead of allocating per call. `out` is
    /// cleared first and receives postings in `(spec, workflow, module)`
    /// order.
    pub fn lookup_normalized_into(
        &self,
        term: &str,
        restrict: Option<&[u32]>,
        seed: &mut Vec<Posting>,
        out: &mut Vec<Posting>,
    ) {
        out.clear();
        let mut words = term.split(' ').filter(|w| !w.is_empty());
        let Some(first) = words.next() else { return };
        if words.next().is_none() {
            if let Some(list) = self.terms.get(first) {
                match restrict {
                    Some(specs) => list.gather_specs_into(specs, out),
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
                Some(specs) => list.gather_specs_into(specs, out),
                None => list.decode_into(out),
            }
        }
        seed.clear();
        if let Some(list) = self.terms.get(first) {
            match restrict {
                Some(specs) => list.gather_specs_into(specs, seed),
                None => list.decode_into(seed),
            }
        }
        let phrase: Cow<'_, str> = if term.split(' ').any(str::is_empty) {
            Cow::Owned(term.split(' ').filter(|w| !w.is_empty()).collect::<Vec<_>>().join(" "))
        } else {
            Cow::Borrowed(term)
        };
        for p in seed.iter() {
            if out.iter().any(|q| q.spec == p.spec && q.module == p.module) {
                continue;
            }
            let posted = self.spec_posted.get(&p.spec);
            let name = posted.and_then(|posted| posted.names.get(p.module.index()));
            if name.is_some_and(|name| holds_phrase(name, &phrase)) {
                out.push(*p);
            }
        }
        out.sort_by_key(|p| (p.spec, p.workflow, p.module));
    }

    /// Sorted candidate specs for an AND query over normalized `terms`:
    /// the intersection of every term's spec superset
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
    ///
    /// A full memo is seen under the read guard: a miss then computes
    /// without taking the write lock, so past the cap one term's miss never
    /// blocks other readers' lookups.
    pub fn df_cached(&self, term: &str) -> usize {
        let full = {
            let memo = self.df_memo.read();
            if let Some(&df) = memo.df.get(term) {
                return df;
            }
            memo.df.len() >= DF_MEMO_CAP
        };
        let df = self.df(term);
        if !full {
            self.df_memo.write().insert(term, df);
        }
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
    /// allocation-free gate a cluster's scatter probes to skip shards before
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
/// once per candidate spec run (never per posting), and only for specs
/// actually present in the candidate postings.
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
    use crate::mutation::{ModuleTextEdit, Mutation, SpecText};
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;
    use ppwf_model::hierarchy::Prefix;
    use ppwf_model::ids::ModuleId;

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
    fn full_df_memo_misses_take_no_write_lock() {
        let r = repo();
        let idx = KeywordIndex::build(&r);
        for i in 0..DF_MEMO_CAP {
            idx.df_cached(&format!("zz{i}"));
        }
        assert_eq!(idx.df_memo.read().df.len(), DF_MEMO_CAP);
        let (tx, rx) = std::sync::mpsc::channel();
        let got = std::thread::scope(|s| {
            // Another reader holds the memo: a miss that wanted the write
            // lock would wait for it.
            let guard = idx.df_memo.read();
            s.spawn(|| tx.send(idx.df_cached("query")));
            let got = rx.recv_timeout(std::time::Duration::from_secs(1));
            drop(guard);
            got
        });
        assert_eq!(got, Ok(idx.df("query")), "a miss on a full memo blocked on its lock");
        assert!(!idx.df_memoized("query"));
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

    /// Terms the maintenance tests probe: tokens and phrases the fixture
    /// posts, the edit's replacement text, and one nothing posts.
    const PROBES: [&str; 8] = [
        "database",
        "query",
        "risk",
        "disorder risks",
        "expand snp",
        "redacted",
        "sanitized",
        "unobtainium",
    ];

    /// Apply `mutation` and fold its effect into `idx`, as an owner does;
    /// returns the touch report, owned.
    fn write(
        r: &mut Repository,
        idx: &mut KeywordIndex,
        mutation: Mutation,
    ) -> (Vec<String>, Vec<String>, bool) {
        let effect = r.apply(mutation).unwrap();
        let touched = idx.apply_effect(r, &effect);
        (touched.left.into_owned(), touched.arrived.to_vec(), touched.docs_moved)
    }

    fn insert_fixture() -> Mutation {
        let (spec, _) = fixtures::disease_susceptibility();
        Mutation::InsertSpec { spec, policy: Policy::public() }
    }

    fn fixture_execution(r: &Repository) -> Mutation {
        let exec = fixtures::disease_susceptibility_execution(&r.entry(SpecId(0)).unwrap().spec);
        Mutation::AddExecution { spec: SpecId(0), exec }
    }

    /// Rewrite M5 ("Generate Database Queries", the fixture's only
    /// "database" module) of `spec`.
    fn edit_m5(r: &Repository, spec: SpecId) -> Mutation {
        let m = fixtures::handles(&r.entry(spec).unwrap().spec);
        let edit = ModuleTextEdit {
            module: m.m5,
            name: "Sanitized".into(),
            keywords: vec!["redacted".into()],
        };
        Mutation::EditSpec { spec, text: SpecText { edits: vec![edit] } }
    }

    /// The maintained index answers every probe exactly as a fresh build of
    /// the same repository does.
    fn assert_matches_build(idx: &KeywordIndex, r: &Repository) {
        assert_matches(idx, &KeywordIndex::build(r), r);
    }

    /// `idx` answers every probe exactly as `fresh` does, and holds the same
    /// vocabulary for every slot of `r`.
    fn assert_matches(idx: &KeywordIndex, fresh: &KeywordIndex, r: &Repository) {
        assert_eq!(idx.doc_count(), fresh.doc_count());
        assert_eq!(idx.term_count(), fresh.term_count());
        for term in PROBES {
            assert_eq!(idx.lookup_query_term(term), fresh.lookup_query_term(term), "{term:?}");
            assert_eq!(idx.df(term), fresh.df(term));
            assert_eq!(idx.df_cached(term), fresh.df_cached(term));
        }
        for (sid, _) in r.slots() {
            assert_eq!(idx.posted_tokens(sid), fresh.posted_tokens(sid), "{sid:?}");
        }
    }

    #[test]
    fn refresh_appends_without_rebuilding() {
        let mut r = repo();
        let mut idx = KeywordIndex::build(&r);
        assert_eq!(idx.docs_indexed(), 15);
        let vocabulary = idx.posted_tokens(SpecId(0)).unwrap().to_vec();

        // Execution appends index nothing and touch nothing; a policy swap
        // indexes nothing and reports the vocabulary its answers read.
        let exec = fixture_execution(&r);
        assert_eq!(write(&mut r, &mut idx, exec), (vec![], vec![], false));
        assert_eq!(idx.docs_indexed(), 15, "execution append must index nothing");
        let swap = Mutation::SetPolicy { spec: SpecId(0), policy: Policy::public() };
        assert_eq!(write(&mut r, &mut idx, swap), (vocabulary.clone(), vec![], false));
        assert_eq!(idx.docs_indexed(), 15, "policy swap must index nothing");

        // An insert appends exactly the new spec's postings.
        assert_eq!(write(&mut r, &mut idx, insert_fixture()), (vec![], vocabulary, true));
        assert_eq!(idx.docs_indexed(), 30, "only the new spec's modules indexed");
        assert_eq!(idx.doc_count(), 30);
        assert_matches_build(&idx, &r);
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
        let exec = fixture_execution(&r);
        write(&mut r, &mut idx, exec);
        assert!(idx.df_memoized("database"), "structure-free write kept the memo");
        assert!(idx.df_memoized("disorder risks"));

        // Inserting another fixture spec touches "database" and the
        // "disorder risks" tag but cannot touch the absent term.
        write(&mut r, &mut idx, insert_fixture());
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
        write(&mut r, &mut idx, insert_fixture());
        assert_eq!(inspected(&idx), 3, "the append looked at the three entries it dropped");
        assert!(!idx.df_memoized("Disorder Risks") && !idx.df_memoized("expand snp"));
        assert!(idx.df_memoized("unrelated7"));
        // A delete touches the same keys: nothing of theirs is memoized
        // any more, so it inspects nothing however full the memo is.
        write(&mut r, &mut idx, Mutation::DeleteSpec { spec: SpecId(1) });
        assert_eq!(inspected(&idx), 3);
        assert_eq!(idx.df_memo.read().df.len(), 2_000);
        for term in ["database", "Disorder Risks", "expand snp"] {
            assert_eq!(idx.df_cached(term), KeywordIndex::build(&r).df(term), "{term:?}");
        }
    }

    #[test]
    fn delete_spec_retracts_postings_bit_identically() {
        let mut r = repo();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let mut idx = KeywordIndex::build(&r);
        idx.df_cached("database");
        idx.df_cached("unobtainium");
        let vocabulary = idx.posted_tokens(SpecId(0)).unwrap().to_vec();
        let touched = write(&mut r, &mut idx, Mutation::DeleteSpec { spec: SpecId(0) });
        assert_eq!(touched, (vocabulary, vec![], true), "a delete reports what it retracted");
        assert_eq!(idx.docs_retracted(), 15);
        assert_eq!(idx.doc_count(), 15);
        assert!(idx.posted_tokens(SpecId(0)).is_none());
        assert!(!idx.df_memoized("database"), "touched df entries die with the retraction");
        assert!(idx.df_memoized("unobtainium"), "untouched entries survive it");
        assert_matches_build(&idx, &r);
        // An insert after the tombstone appends as usual.
        write(&mut r, &mut idx, insert_fixture());
        assert_eq!(idx.doc_count(), 30);
        assert_matches_build(&idx, &r);
    }

    #[test]
    fn edit_spec_reindexes_in_place_bit_identically() {
        let mut r = repo();
        let (spec, _) = fixtures::disease_susceptibility();
        r.insert_spec(spec, Policy::public()).unwrap();
        let mut idx = KeywordIndex::build(&r);
        let before = idx.posted_tokens(SpecId(0)).unwrap().to_vec();
        let edit = edit_m5(&r, SpecId(0));
        let (left, arrived, docs_moved) = write(&mut r, &mut idx, edit);
        assert_eq!(left, before, "an edit reports the vocabulary it leaves behind");
        assert_eq!(arrived, KeywordIndex::build(&r).posted_tokens(SpecId(0)).unwrap());
        assert!(arrived.contains(&"redacted".to_string()));
        assert!(!arrived.contains(&"database".to_string()));
        assert!(!docs_moved, "an edit keeps the module count");
        assert_eq!(idx.docs_indexed(), 45, "edit re-indexes exactly the one spec");
        assert_eq!(idx.docs_retracted(), 15);
        assert_matches_build(&idx, &r);
        // The splice lands spec 0's re-indexed postings *before* spec 1's
        // (interior id), and spec 1's "database" posting survives.
        assert!(idx.lookup("database").iter().any(|p| p.spec == SpecId(1)));
        assert!(idx.lookup("database").iter().all(|p| p.spec != SpecId(0)));
    }

    #[test]
    fn refresh_is_idempotent_when_current() {
        let r = repo();
        let mut idx = KeywordIndex::build(&r);
        idx.refresh_trusted(&r);
        assert_eq!(idx.docs_indexed(), 15, "nothing appended, nothing indexed");
        assert_matches_build(&idx, &r);
    }

    #[test]
    fn a_partition_handed_only_its_own_effects_equals_a_partition_build() {
        let mut r = repo();
        let even = |sid: SpecId| sid.index().is_multiple_of(2);
        let mut idx = KeywordIndex::build_partition(&r, even);
        let mut own = |r: &mut Repository, mutation| {
            let effect = r.apply(mutation).unwrap();
            if even(effect.spec()) {
                idx.apply_effect(r, &effect);
            }
        };
        for _ in 0..4 {
            own(&mut r, insert_fixture());
        }
        for spec in [SpecId(2), SpecId(3)] {
            let edit = edit_m5(&r, spec);
            own(&mut r, edit);
        }
        own(&mut r, Mutation::DeleteSpec { spec: SpecId(4) });
        own(&mut r, Mutation::DeleteSpec { spec: SpecId(1) });
        own(&mut r, insert_fixture());
        own(&mut r, insert_fixture());
        // Specs 0, 2 and 6 are the partition's live specs; 1, 3 and 5 were
        // never handed to it.
        assert_eq!(idx.doc_count(), 3 * 15);
        for sid in [1, 3, 5] {
            assert!(idx.posted_tokens(SpecId(sid)).is_none(), "spec {sid} is not ours");
        }
        let redacted = idx.lookup("redacted");
        assert!(!redacted.is_empty() && redacted.iter().all(|p| p.spec == SpecId(2)));
        assert_matches(&idx, &KeywordIndex::build_partition(&r, even), &r);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inserts arrive in increasing id order")]
    fn an_out_of_order_insert_trips_the_order_check() {
        let mut r = repo();
        let mut idx = KeywordIndex::build(&r);
        r.apply(insert_fixture()).unwrap();
        idx.apply_effect(&r, &MutationEffect::SpecInserted { spec: SpecId(0) });
    }

    /// The build path the one-pass [`post`](KeywordIndex::post) replaced,
    /// kept as its oracle: per module a `Vec<String>` of lowercased tokens
    /// per name and tag and a fresh `HashMap` of term frequencies, every
    /// occurrence hashed into whole-call maps and every key hashed again
    /// into the final ones. `names` keeps each module's name tokens as a
    /// sequence, for the windowed adjacency test phrases used to run.
    #[derive(Default)]
    struct Oracle {
        index: KeywordIndex,
        names: HashMap<(SpecId, ModuleId), Vec<String>>,
    }

    impl Oracle {
        fn build(repo: &Repository) -> Self {
            let mut oracle = Oracle::default();
            oracle.post(repo.entries(), false);
            oracle.index.slots = repo.len();
            oracle
        }

        /// What `apply_effect` does for the effects that index anything.
        fn apply(&mut self, repo: &Repository, effect: &MutationEffect) {
            let spec = effect.spec();
            if let MutationEffect::SpecInserted { .. } = effect {
                self.index.slots = spec.index() + 1;
            }
            if let MutationEffect::SpecDeleted { .. } | MutationEffect::SpecEdited { .. } = effect {
                self.names.retain(|&(s, _), _| s != spec);
                self.index.retract(spec);
            }
            if let MutationEffect::SpecInserted { .. } | MutationEffect::SpecEdited { .. } = effect
            {
                let splice = matches!(effect, MutationEffect::SpecEdited { .. });
                self.post(repo.entry(spec).map(|entry| (spec, entry)), splice);
            }
        }

        fn post<'r>(
            &mut self,
            specs: impl IntoIterator<Item = (SpecId, &'r SpecEntry)>,
            splice: bool,
        ) {
            let mut new: [HashMap<String, Vec<Posting>>; 2] = Default::default();
            for (sid, entry) in specs {
                let posted = self.index_entry(sid, entry, &mut new);
                self.index.doc_count += posted.docs;
                self.index.spec_posted.insert(sid, posted);
            }
            for (map, new) in [&mut self.index.terms, &mut self.index.phrases].into_iter().zip(new)
            {
                for (key, mut postings) in new {
                    postings.sort_by_key(|p| (p.spec, p.workflow, p.module));
                    let list = map.entry(key).or_default();
                    if splice {
                        list.insert_spec_postings(&postings);
                    } else if list.is_empty() {
                        *list = PostingList::from_postings(postings);
                    } else {
                        list.append_sorted(postings);
                    }
                }
            }
        }

        fn index_entry(
            &mut self,
            sid: SpecId,
            entry: &SpecEntry,
            [terms, phrases]: &mut [HashMap<String, Vec<Posting>>; 2],
        ) -> PostedTerms {
            let mut posted = PostedTerms::default();
            let mut phrase_keys = Vec::new();
            for module in entry.spec.modules() {
                if module.kind.is_distinguished() {
                    posted.names.seal();
                    continue;
                }
                posted.docs += 1;
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
                        phrase_keys.push(norm.clone());
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
                posted.names.push(&name_tokens.join(" "));
                self.names.insert((sid, module.id), name_tokens);
            }
            posted.terms.sort();
            posted.terms.dedup();
            phrase_keys.sort();
            phrase_keys.dedup();
            for key in &phrase_keys {
                posted.phrases.push(key);
            }
            posted
        }

        /// `df` as the windowed adjacency test computed it.
        fn df(&self, term: &str) -> usize {
            let words = tokenize(term);
            let list = |map: &HashMap<String, PostingList>, key: &str| {
                map.get(key).map(PostingList::to_vec).unwrap_or_default()
            };
            match words.len() {
                0 => 0,
                1 => list(&self.index.terms, &words[0]).len(),
                n => {
                    let mut hits = list(&self.index.phrases, &words.join(" "));
                    for p in list(&self.index.terms, &words[0]) {
                        if hits.iter().any(|q| q.spec == p.spec && q.module == p.module) {
                            continue;
                        }
                        let seq = &self.names[&(p.spec, p.module)];
                        if seq.windows(n).any(|w| w == words.as_slice()) {
                            hits.push(p);
                        }
                    }
                    hits.len()
                }
            }
        }
    }

    /// Word pieces for generated module text: case variants, non-ASCII
    /// letters whose lowercase differs in length or depends on context
    /// (`İ`, `ẞ`, final `Σ`, the Kelvin sign), digits and repeats.
    const PIECES: &[&str] = &[
        "query", "Query", "QUERY", "risks", "Risks", "db", "É", "é", "Étude", "ß", "ẞ", "SS",
        "Straße", "İ", "i̇", "Σ", "ΣΑΣ", "σας", "\u{212A}", "k", "x1", "42",
    ];
    /// Separators: single spaces (an already normal tag), punctuation runs,
    /// doubled spaces, underscores.
    const SEPS: &[&str] = &[" ", " ", "  ", "-", "--", ", ", "...", "!?", "_", "/"];

    /// A deterministic generator for the stream (splitmix64).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }

        /// Up to four pieces, a piece often repeated, sometimes wrapped in
        /// punctuation; empty and punctuation-only texts included.
        fn text(&mut self) -> String {
            let mut text = String::new();
            match self.below(8) {
                0 => return text,
                1 => return "--, ".to_string(),
                2 => text.push_str(self.pick(&["(", ", ", " "])),
                _ => {}
            }
            let mut last = self.pick(PIECES);
            for i in 0..1 + self.below(4) {
                if i > 0 {
                    text.push_str(self.pick(SEPS));
                    if self.below(3) > 0 {
                        last = self.pick(PIECES);
                    }
                }
                text.push_str(last);
            }
            if self.below(5) == 0 {
                text.push_str(self.pick(&[")", "!", " "]));
            }
            text
        }

        /// A module text: a name, and up to three tags, one sometimes
        /// repeated.
        fn module_text(&mut self) -> (String, Vec<String>) {
            let name = self.text();
            let mut tags: Vec<String> = (0..self.below(4)).map(|_| self.text()).collect();
            if !tags.is_empty() && self.below(4) == 0 {
                tags.push(tags[0].clone());
            }
            (name, tags)
        }

        /// The paper's fixture, every proper module retexted.
        fn spec(&mut self) -> ppwf_model::spec::Specification {
            let (mut spec, _) = fixtures::disease_susceptibility();
            for m in proper(&spec) {
                let (name, tags) = self.module_text();
                spec.set_module_text(m, &name, &tags).unwrap();
            }
            spec
        }
    }

    /// The proper (indexed) modules of `spec`.
    fn proper(spec: &ppwf_model::spec::Specification) -> Vec<ModuleId> {
        spec.modules().filter(|m| !m.kind.is_distinguished()).map(|m| m.id).collect()
    }

    /// `idx` holds exactly what the oracle holds, and every `df` — of each
    /// posted key, of phrases cut from module names, of raw text — agrees.
    fn assert_same_as_oracle(idx: &KeywordIndex, oracle: &Oracle, rng: &mut Rng) {
        assert!(*idx == oracle.index, "the index differs from the oracle's");
        assert_eq!(idx.term_count(), oracle.index.term_count());
        assert_eq!(idx.phrases.len(), oracle.index.phrases.len());
        for (sid, posted) in &oracle.index.spec_posted {
            assert_eq!(idx.posted_tokens(*sid), Some(posted.terms.as_slice()));
        }
        let mut probes: Vec<String> = oracle.index.terms.keys().cloned().collect();
        probes.extend(oracle.index.phrases.keys().cloned());
        for seq in oracle.names.values() {
            for n in 2..=seq.len().min(3) {
                probes.extend(seq.windows(n).map(|w| w.join(" ")));
            }
        }
        probes.extend((0..8).map(|_| rng.text()));
        for term in &probes {
            assert_eq!(idx.df(term), oracle.df(term), "df({term:?})");
        }
    }

    /// A random insert, delete or edit of `r` (an insert when nothing is
    /// live); an edit rewrites one to three modules' text.
    fn random_write(rng: &mut Rng, r: &Repository) -> Mutation {
        let live: Vec<SpecId> = r.entries().map(|(sid, _)| sid).collect();
        match rng.below(4) {
            0 => Mutation::InsertSpec { spec: rng.spec(), policy: Policy::public() },
            _ if live.is_empty() => {
                Mutation::InsertSpec { spec: rng.spec(), policy: Policy::public() }
            }
            1 => Mutation::DeleteSpec { spec: live[rng.below(live.len())] },
            _ => {
                let spec = live[rng.below(live.len())];
                let modules = proper(&r.entry(spec).unwrap().spec);
                let edits = (0..1 + rng.below(3))
                    .map(|_| {
                        let module = modules[rng.below(modules.len())];
                        let (name, keywords) = rng.module_text();
                        ModuleTextEdit { module, name, keywords }
                    })
                    .collect();
                Mutation::EditSpec { spec, text: SpecText { edits } }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The one-pass build equals the replaced build after a build and
        /// after every step of a random insert / edit / delete stream over
        /// random module text.
        #[test]
        fn one_pass_build_matches_the_replaced_build(seed in proptest::prelude::any::<u64>()) {
            let mut rng = Rng(seed);
            let mut r = Repository::new();
            for _ in 0..1 + rng.below(3) {
                r.insert_spec(rng.spec(), Policy::public()).unwrap();
            }
            let mut idx = KeywordIndex::build(&r);
            let mut oracle = Oracle::build(&r);
            assert_same_as_oracle(&idx, &oracle, &mut rng);
            for _ in 0..12 {
                let effect = r.apply(random_write(&mut rng, &r)).unwrap();
                idx.apply_effect(&r, &effect);
                oracle.apply(&r, &effect);
                assert_same_as_oracle(&idx, &oracle, &mut rng);
                assert!(KeywordIndex::build(&r) == Oracle::build(&r).index, "fresh builds differ");
            }
        }
    }

    #[test]
    fn deterministic_posting_order() {
        let r = repo();
        let a = KeywordIndex::build(&r);
        let b = KeywordIndex::build(&r);
        assert_eq!(a.lookup("query"), b.lookup("query"));
    }
}
