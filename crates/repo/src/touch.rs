//! Per-token touch stamps: which cached answers a write can have changed.
//!
//! A result cache tags each `(group, query)` entry with the value its
//! owner's clock had when the answer was computed, and the clock moves on
//! every answer-changing write. "Tag equals clock" is a sound validity test
//! but a wasteful one: a write to one specification strands every entry of
//! every group, although almost none of them can name that specification.
//! [`TouchStamps`] records *what* each write touched, so an entry with an
//! older tag can be re-admitted when nothing it depends on was written
//! since — and must be rejected otherwise. The second half is a privacy
//! invariant, not a hit-rate trick: a retraction, an edit or a policy swap
//! must never be outlived by a cached disclosure.
//!
//! The unit of dependency is the **token**. A module matches a query term
//! — a word, a whole keyword tag, or consecutive name tokens — only if its
//! specification posted every token of the term
//! ([`KeywordIndex::posted_tokens`](crate::keyword_index::KeywordIndex::posted_tokens)),
//! and a specification is in an answer only if it matches every term (AND
//! semantics). Every answer-changing write therefore stamps the written
//! specification's vocabulary — before *and* after the write — with the new
//! clock value, and:
//!
//! * a keyword or private answer ([`Depends::OnMatches`]) is unchanged if
//!   **some** query token is unstamped since the entry's tag: no written
//!   specification contained all the terms, before or after, so none
//!   entered, left or changed inside the answer, and the other
//!   specifications' hits read nothing a write to this one moves;
//! * a ranked answer ([`Depends::OnStatistics`]) also reads each term's
//!   document frequency and the corpus document count, so it is unchanged
//!   only if **no** query token is stamped since the tag and the document
//!   count has not moved since the tag.
//!
//! Both rules only ever err towards recomputing. Queries without a token
//! are never re-admitted (there is nothing to vouch for them).
//!
//! The table is derived state: it is never logged or snapshotted, a
//! restarted owner starts with an empty table and empty caches, and it is
//! bounded — see [`TouchStamps::trim`].

use crate::keyword_index::tokens;
use std::collections::HashMap;

/// What a cached answer reads, and so which stamps can invalidate it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Depends {
    /// On the specifications matching every query term (keyword and
    /// private search).
    OnMatches,
    /// Additionally on the terms' document frequencies and the corpus
    /// document count (ranked search).
    OnStatistics,
}

/// The stamps of one clock. See the module docs for the rules.
///
/// Invariant: every stored stamp, the floor and `docs_changed_at` are
/// values the clock has had, so none exceeds the tag of an entry computed
/// after the write that set it.
#[derive(Debug, Default)]
pub struct TouchStamps {
    stamps: HashMap<String, u64>,
    /// The stamp of every token the table does not hold.
    floor: u64,
    docs_changed_at: u64,
}

/// [`TouchStamps::trim`] lets the table hold this many stamps per live
/// index term, plus [`TRIM_SLACK`].
const TRIM_FACTOR: usize = 2;
/// Keeps tiny corpora from resetting on every other write.
const TRIM_SLACK: usize = 64;

impl TouchStamps {
    /// An empty table: nothing was ever touched.
    pub fn new() -> Self {
        TouchStamps::default()
    }

    /// Number of tokens holding a stamp of their own.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether no token holds a stamp of its own.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Record that a write at clock value `at` touched `vocabulary`. A
    /// token is cloned only the first time it is ever touched.
    pub fn touch(&mut self, vocabulary: &[String], at: u64) {
        for token in vocabulary {
            match self.stamps.get_mut(token.as_str()) {
                Some(stamp) => *stamp = at,
                None => {
                    self.stamps.insert(token.clone(), at);
                }
            }
        }
    }

    /// Record that the write at `at` changed the corpus document count.
    pub fn touch_docs(&mut self, at: u64) {
        self.docs_changed_at = at;
    }

    /// Record a write at `at` whose vocabulary is unknown: every token
    /// counts as touched, which strands every older entry once.
    pub fn touch_everything(&mut self, at: u64) {
        self.floor = at;
        self.docs_changed_at = at;
        self.stamps.clear();
    }

    /// Bound the table after the write at `at`. Tokens outlive the
    /// specifications that posted them, so a stream that keeps inserting
    /// and deleting fresh vocabulary would grow the table forever; once it
    /// holds more than a fixed multiple of the `live_terms` the index still
    /// serves, it is emptied and its floor raised to `at` — one wholesale
    /// invalidation, after which the table is as good as new.
    pub fn trim(&mut self, live_terms: usize, at: u64) {
        if self.stamps.len() > TRIM_FACTOR * live_terms + TRIM_SLACK {
            self.touch_everything(at);
        }
    }

    fn untouched_since(&self, token: &str, tag: u64) -> bool {
        self.stamps.get(token).copied().unwrap_or(self.floor) <= tag
    }

    /// Whether the answer to `query_text` computed at clock value `tag` is
    /// still the answer now — the re-admission rule of the module docs.
    /// Allocates nothing for a query already in the index's normal form.
    pub fn survives(&self, query_text: &str, tag: u64, depends: Depends) -> bool {
        let mut tokens = tokens(query_text);
        match depends {
            Depends::OnMatches => tokens.any(|t| self.untouched_since(&t, tag)),
            Depends::OnStatistics => {
                let Some(first) = tokens.next() else { return false };
                self.docs_changed_at <= tag
                    && self.untouched_since(&first, tag)
                    && tokens.all(|t| self.untouched_since(&t, tag))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocabulary(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn an_untouched_table_vouches_for_every_tokened_query() {
        let stamps = TouchStamps::new();
        assert!(stamps.survives("database, disorder risks", 7, Depends::OnMatches));
        assert!(stamps.survives("database", 7, Depends::OnStatistics));
    }

    #[test]
    fn tokenless_queries_are_never_readmitted() {
        let stamps = TouchStamps::new();
        for text in ["", " , ,", "--"] {
            assert!(!stamps.survives(text, 7, Depends::OnMatches), "{text:?}");
            assert!(!stamps.survives(text, 7, Depends::OnStatistics), "{text:?}");
        }
    }

    #[test]
    fn matches_survive_while_one_token_is_untouched() {
        let mut stamps = TouchStamps::new();
        stamps.touch(&vocabulary(&["database", "query"]), 8);
        // The written spec held "database" but not "risk": it cannot have
        // matched both terms before or after.
        assert!(stamps.survives("database, risk", 7, Depends::OnMatches));
        assert!(!stamps.survives("database", 7, Depends::OnMatches));
        assert!(!stamps.survives("Query DATABASE", 7, Depends::OnMatches), "phrase tokens count");
        // An entry computed at or after the write has seen it.
        assert!(stamps.survives("database", 8, Depends::OnMatches));
        assert!(stamps.survives("database", 9, Depends::OnMatches));
    }

    #[test]
    fn statistics_need_every_token_and_the_document_count_untouched() {
        let mut stamps = TouchStamps::new();
        stamps.touch(&vocabulary(&["database"]), 8);
        assert!(!stamps.survives("database, risk", 7, Depends::OnStatistics), "df(database) moved");
        assert!(stamps.survives("risk, pubmed", 7, Depends::OnStatistics));
        stamps.touch_docs(9);
        assert!(!stamps.survives("risk, pubmed", 8, Depends::OnStatistics), "N moved at 9");
        assert!(stamps.survives("risk, pubmed", 9, Depends::OnStatistics));
        assert!(stamps.survives("risk, pubmed", 8, Depends::OnMatches), "matches do not read N");
    }

    #[test]
    fn restamping_moves_a_token_forward() {
        let mut stamps = TouchStamps::new();
        stamps.touch(&vocabulary(&["risk"]), 3);
        stamps.touch(&vocabulary(&["risk"]), 9);
        assert_eq!(stamps.len(), 1);
        assert!(!stamps.survives("risk", 5, Depends::OnMatches));
    }

    #[test]
    fn trimming_costs_one_wholesale_invalidation_and_nothing_after() {
        let mut stamps = TouchStamps::new();
        let live = 4;
        let bound = TRIM_FACTOR * live + TRIM_SLACK;
        for at in 1..=bound as u64 {
            stamps.touch(&[format!("fresh{at}")], at);
            stamps.trim(live, at);
        }
        assert_eq!(stamps.len(), bound, "at the bound, not over it");
        assert!(stamps.survives("untouched", 1, Depends::OnMatches));
        let at = bound as u64 + 1;
        stamps.touch(&[format!("fresh{at}")], at);
        stamps.trim(live, at);
        assert!(stamps.is_empty(), "crossing the bound empties the table");
        assert!(
            !stamps.survives("untouched", at - 1, Depends::OnMatches),
            "older entries: one miss"
        );
        assert!(!stamps.survives("untouched", at - 1, Depends::OnStatistics));
        assert!(
            stamps.survives("untouched", at, Depends::OnMatches),
            "recomputed entries are good"
        );
        assert!(stamps.survives("untouched", at, Depends::OnStatistics));
    }
}
