//! Posting lists — each key's postings in one sorted vector.
//!
//! A [`PostingList`] holds one key's [`Posting`]s in a `Vec`, sorted by
//! `(spec, workflow, module)`, beside its count of distinct specs. A spec's
//! postings are therefore one contiguous run, and every spec-level
//! operation is a binary search for that run:
//!
//! * **Writes.** [`PostingList::append_sorted`] extends the vector (the
//!   index's inserts always carry fresh, larger spec ids) and re-sorts only
//!   when that append-only contract is broken.
//!   [`PostingList::remove_spec`] drains the spec's run and
//!   [`PostingList::insert_spec_postings`] splices one spec's run in at its
//!   id position, so a delete or an edit of one spec never rebuilds a list.
//! * **Reads.** Candidate discovery ([`intersect_term_specs`]) seeds from
//!   the term with the fewest distinct specs and keeps the candidates every
//!   other term's list holds ([`PostingList::retain_specs`]); the restricted
//!   gather ([`PostingList::gather_specs_into`]) copies only the
//!   candidates' runs. Both walk the sorted candidates with a cursor that
//!   only moves forward and gallops to each candidate's run, so two
//!   similar-sized lists intersect at close to merge cost.
//!
//! Reads take `&self` and writes `&mut self`, so an index shared between
//! threads needs no lock of its own.
//!
//! The module also owns [`QueryScratch`] / [`with_scratch`] — the
//! thread-local, arena-style per-query scratch that the search and
//! ranking layers reuse across queries to kill per-query `Vec` churn.

use crate::repository::SpecId;
use ppwf_model::ids::{ModuleId, WorkflowId};
use std::cell::RefCell;

/// One match location for a term.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Posting {
    /// Owning specification.
    pub spec: SpecId,
    /// Matching module.
    pub module: ModuleId,
    /// Privacy classification: the workflow that must be visible for this
    /// posting to be admissible.
    pub workflow: WorkflowId,
    /// Term frequency within the module's text (name tokens + tags).
    pub tf: u32,
}

/// The order every list keeps its postings in.
fn order(p: &Posting) -> (SpecId, WorkflowId, ModuleId) {
    (p.spec, p.workflow, p.module)
}

/// Number of distinct specs in sorted `postings`.
fn spec_runs(postings: &[Posting]) -> usize {
    postings.chunk_by(|a, b| a.spec == b.spec).count()
}

/// `rest.partition_point(before)` found by galloping: probe positions 1, 2,
/// 4, … from the front, then binary-search the last bracket, so a cursor
/// that moves a short way pays a few comparisons rather than a search of
/// the whole remainder.
fn seek(rest: &[Posting], before: impl Fn(&Posting) -> bool) -> usize {
    let mut end = 1;
    while end < rest.len() && before(&rest[end]) {
        end *= 2;
    }
    let from = end / 2;
    from + rest[from..end.min(rest.len())].partition_point(before)
}

/// One key's postings, sorted by `(spec, workflow, module)` (see the module
/// docs).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PostingList {
    postings: Vec<Posting>,
    /// Distinct specs among `postings`.
    distinct: usize,
}

impl PostingList {
    /// An empty list.
    pub fn new() -> Self {
        PostingList::default()
    }

    /// Build from postings sorted by `(spec, workflow, module)`, taking the
    /// vector whole (unsorted input is sorted, as [`Self::append_sorted`]
    /// does).
    pub fn from_postings(mut postings: Vec<Posting>) -> Self {
        if !postings.is_sorted_by_key(order) {
            postings.sort_by_key(order);
        }
        PostingList { distinct: spec_runs(&postings), postings }
    }

    /// Append postings sorted by `(spec, workflow, module)` whose specs are
    /// ≥ every already-held spec (the index's append-only refresh
    /// contract). A violation costs a re-sort, never a wrong answer.
    pub fn append_sorted(&mut self, postings: impl IntoIterator<Item = Posting>) {
        let held = self.postings.len();
        self.postings.extend(postings);
        // The last held posting and everything after it.
        let seam = held.saturating_sub(1);
        if self.postings[seam..].is_sorted_by_key(order) {
            self.distinct += spec_runs(&self.postings[seam..]) - usize::from(held > 0);
        } else {
            self.postings.sort_by_key(order);
            self.distinct = spec_runs(&self.postings);
        }
    }

    /// Index of `spec`'s first posting, or of the first posting past it.
    fn spec_start(&self, spec: SpecId) -> usize {
        self.postings.partition_point(|p| p.spec < spec)
    }

    /// Remove every posting of `spec` (none when it is absent); survivors
    /// keep their order.
    pub fn remove_spec(&mut self, spec: SpecId) {
        let start = self.spec_start(spec);
        let len = self.postings[start..].partition_point(|p| p.spec == spec);
        if len > 0 {
            self.postings.drain(start..start + len);
            self.distinct -= 1;
        }
    }

    /// Insert `run` — the postings of **one** spec the list does not hold,
    /// sorted by `(workflow, module)` — at the spec's id position.
    pub fn insert_spec_postings(&mut self, run: &[Posting]) {
        let Some(first) = run.first() else { return };
        debug_assert!(run.iter().all(|p| p.spec == first.spec), "one spec per run");
        let at = self.spec_start(first.spec);
        debug_assert!(self.postings.get(at).is_none_or(|p| p.spec != first.spec), "spec listed");
        self.postings.splice(at..at, run.iter().copied());
        self.distinct += 1;
    }

    /// Total postings.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Whether the list holds no postings.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Append every posting, in `(spec, workflow, module)` order, to `out`.
    pub fn decode_into(&self, out: &mut Vec<Posting>) {
        out.extend_from_slice(&self.postings);
    }

    /// All postings as a fresh vector (compatibility convenience; the
    /// query path uses [`Self::decode_into`] with scratch).
    pub fn to_vec(&self) -> Vec<Posting> {
        self.postings.clone()
    }

    /// Number of distinct spec ids.
    pub fn distinct_specs(&self) -> usize {
        self.distinct
    }

    /// Append the distinct spec ids, ascending, to `out`.
    pub fn specs_into(&self, out: &mut Vec<u32>) {
        out.reserve(self.distinct);
        out.extend(self.postings.chunk_by(|a, b| a.spec == b.spec).map(|run| run[0].spec.0));
    }

    /// Whether any posting carries `spec`.
    pub fn contains_spec(&self, spec: u32) -> bool {
        let spec = SpecId(spec);
        self.postings.get(self.spec_start(spec)).is_some_and(|p| p.spec == spec)
    }

    /// Retain only the candidates (sorted ascending) present in this list.
    pub fn retain_specs(&self, cands: &mut Vec<u32>) {
        let mut rest = self.postings.as_slice();
        cands.retain(|&c| {
            rest = &rest[seek(rest, |p| p.spec.0 < c)..];
            rest.first().is_some_and(|p| p.spec.0 == c)
        });
    }

    /// Append this list's postings whose spec is in `specs` (sorted
    /// ascending) to `out`, in posting order.
    pub fn gather_specs_into(&self, specs: &[u32], out: &mut Vec<Posting>) {
        let mut rest = self.postings.as_slice();
        for &s in specs {
            rest = &rest[seek(rest, |p| p.spec.0 < s)..];
            let run = seek(rest, |p| p.spec.0 == s);
            out.extend_from_slice(&rest[..run]);
            rest = &rest[run..];
        }
    }
}

/// One query term's posting sources for candidate-spec intersection. A
/// single-token term reads one list (`primary`); a phrase's candidates
/// are the union of its whole-tag list (`primary`) and its first token's
/// list (`seed`) — a conservative superset of its real matches, since a
/// phrase hit is either a whole keyword tag or verified against the
/// module's name tokens seeded from the first token's postings.
pub struct TermLists<'a> {
    /// The term's own list (single token) or whole-tag phrase list.
    pub primary: Option<&'a PostingList>,
    /// The phrase's first-token list (`None` for single tokens).
    pub seed: Option<&'a PostingList>,
}

impl TermLists<'_> {
    fn upper_bound(&self) -> usize {
        self.primary.map_or(0, |l| l.distinct_specs()) + self.seed.map_or(0, |l| l.distinct_specs())
    }

    fn specs_union_into(&self, tmp: &mut Vec<u32>, out: &mut Vec<u32>) {
        match (self.primary, self.seed) {
            (Some(a), None) | (None, Some(a)) => a.specs_into(out),
            (Some(a), Some(b)) => {
                a.specs_into(out);
                tmp.clear();
                b.specs_into(tmp);
                out.extend_from_slice(tmp);
                out.sort_unstable();
                out.dedup();
            }
            (None, None) => {}
        }
    }

    fn contains_spec(&self, c: u32) -> bool {
        self.primary.is_some_and(|l| l.contains_spec(c))
            || self.seed.is_some_and(|l| l.contains_spec(c))
    }
}

/// Multi-term candidate-spec intersection: seed from the spec superset of
/// the term with the fewest distinct specs, then keep only the candidates
/// every other term holds. `out` receives the ascending spec ids that
/// *could* satisfy every term — the exact per-spec AND check happens on the
/// gathered (and access-filtered) postings.
pub fn intersect_term_specs(groups: &[TermLists<'_>], tmp: &mut Vec<u32>, out: &mut Vec<u32>) {
    out.clear();
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&i| groups[i].upper_bound());
    let Some((&smallest, rest)) = order.split_first() else { return };
    groups[smallest].specs_union_into(tmp, out);
    for &i in rest {
        if out.is_empty() {
            return;
        }
        let g = &groups[i];
        match (g.primary, g.seed) {
            (Some(a), None) | (None, Some(a)) => a.retain_specs(out),
            (Some(_), Some(_)) => out.retain(|&c| g.contains_spec(c)),
            (None, None) => out.clear(),
        }
    }
}

/// Reusable per-query scratch buffers. One lives per thread (see
/// [`with_scratch`]), so every query a thread serves — a pool worker's
/// jobs or a caller's own reads — reuses the same arena, and per-query
/// allocation on the cold path drops to the actual answer
/// materialization.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Gathered per-term postings.
    pub postings: Vec<Posting>,
    /// Phrase seed postings (first-token candidates).
    pub seed: Vec<Posting>,
    /// Candidate spec ids.
    pub specs: Vec<u32>,
    /// Second spec buffer (unions, intersections).
    pub specs_b: Vec<u32>,
    /// Per `(candidate spec, term)` module lists, flattened row-major.
    pub mods: Vec<Vec<ModuleId>>,
    /// Per-term IDF weights.
    pub idfs: Vec<f64>,
    /// Flat `profiles × terms` staging array for batch scoring.
    pub tf_flat: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::default());
}

/// Run `f` with this thread's [`QueryScratch`]. Reentrant calls (a
/// scratch user calling another scratch user) fall back to a fresh
/// arena rather than aliasing the borrowed one.
pub fn with_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut QueryScratch::default()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posting(spec: u32, wf: u32, module: u32, tf: u32) -> Posting {
        Posting { spec: SpecId(spec), module: ModuleId(module), workflow: WorkflowId(wf), tf }
    }

    fn sparse_postings(n: u32) -> Vec<Posting> {
        // Spec ids spread 16 apart, two postings each.
        (0..n).flat_map(|i| (0..2).map(move |m| posting(i * 16, m % 2, m, m + 1))).collect()
    }

    fn dense_postings(n: u32) -> Vec<Posting> {
        (0..n).map(|i| posting(i, i % 3, i % 7, 1 + i % 4)).collect()
    }

    #[test]
    fn out_of_order_append_degrades_to_resort() {
        let mut list = PostingList::from_postings(vec![posting(10, 0, 0, 1)]);
        list.append_sorted([posting(3, 0, 0, 1)]);
        assert_eq!(list.to_vec(), vec![posting(3, 0, 0, 1), posting(10, 0, 0, 1)]);
        assert_eq!(list.distinct_specs(), 2);
        let built = PostingList::from_postings(vec![posting(10, 0, 0, 1), posting(3, 0, 0, 1)]);
        assert_eq!(built.to_vec(), list.to_vec(), "an unsorted build is sorted too");
        // An unsorted batch is sorted too, wherever it lands.
        list.append_sorted([posting(12, 0, 1, 1), posting(11, 0, 0, 1), posting(12, 0, 0, 1)]);
        let specs: Vec<u32> = list.to_vec().iter().map(|p| p.spec.0).collect();
        assert_eq!(specs, vec![3, 10, 11, 12, 12]);
        assert_eq!(list.to_vec()[3], posting(12, 0, 0, 1));
        assert_eq!(list.distinct_specs(), 4);
    }

    #[test]
    fn specs_contains_retain_gather() {
        for src in [sparse_postings(300), dense_postings(300)] {
            let list = PostingList::from_postings(src.clone());
            assert_eq!(list.to_vec(), src);
            assert_eq!(list.len(), src.len());
            let mut specs = Vec::new();
            list.specs_into(&mut specs);
            let mut expect: Vec<u32> = src.iter().map(|p| p.spec.0).collect();
            expect.dedup();
            assert_eq!(specs, expect);
            assert_eq!(list.distinct_specs(), expect.len());
            for probe in [0u32, 1, 15, 16, 17, 100, 4784, 1_000_000] {
                assert_eq!(list.contains_spec(probe), expect.binary_search(&probe).is_ok());
            }
            // retain over a mixed candidate set
            let mut cands: Vec<u32> = (0..600).map(|i| i * 7).collect();
            let mut reference: Vec<u32> =
                cands.iter().copied().filter(|c| expect.binary_search(c).is_ok()).collect();
            list.retain_specs(&mut cands);
            assert_eq!(cands, reference);
            // gather matches the naive filter
            reference.truncate(20);
            let mut out = Vec::new();
            list.gather_specs_into(&reference, &mut out);
            let naive: Vec<Posting> = src
                .iter()
                .copied()
                .filter(|p| reference.binary_search(&p.spec.0).is_ok())
                .collect();
            assert_eq!(out, naive);
        }
    }

    #[test]
    fn intersection_over_mixed_shapes() {
        let dense = PostingList::from_postings(dense_postings(400));
        let sparse = PostingList::from_postings(sparse_postings(30));
        let groups = [
            TermLists { primary: Some(&dense), seed: None },
            TermLists { primary: Some(&sparse), seed: None },
        ];
        let mut out = Vec::new();
        intersect_term_specs(&groups, &mut Vec::new(), &mut out);
        // sparse specs are multiples of 16 below 480; dense covers 0..400
        let expect: Vec<u32> = (0..30u32).map(|i| i * 16).filter(|&s| s < 400).collect();
        assert_eq!(out, expect);
        // an absent term empties the intersection
        let empty = PostingList::new();
        let groups = [
            TermLists { primary: Some(&dense), seed: None },
            TermLists { primary: Some(&empty), seed: None },
        ];
        intersect_term_specs(&groups, &mut Vec::new(), &mut out);
        assert!(out.is_empty());
    }
}
