//! Model-based tests of the in-place posting kernels
//! ([`PostingList::remove_spec`] / [`PostingList::insert_spec_postings`]).
//!
//! Random lists in all three shapes — an unsealed tail, a multi-block
//! delta list, a dense bitmap — take random interleavings of removals,
//! one-spec inserts, appends and reads beside a sorted `Vec<Posting>`
//! model. The oracle is `PostingList::from_postings(model)`: after every
//! read step every read kernel (`to_vec`, `len`, `distinct_specs`,
//! `contains_spec`, `specs_into`, `retain_specs`, `gather_specs_into`,
//! `try_bitwise_and`, `intersect_term_specs`) must agree with it, and the
//! sealed shape must be the one a fresh seal picks (`try_bitwise_and`
//! answers `false` for anything but two bitmaps, so it sees the shape).
//!
//! The named cases pin the edges the random walk only visits by luck, and
//! the work bound that replaces "decode the whole list": a removal or
//! insert that leaves the list's shape alone materializes at most the
//! spec's own postings plus [`BLOCK_POSTINGS`] per delta block that can
//! hold the spec — asserted on the kernels' return values here and on
//! `KeywordIndex::postings_decoded_by_maintenance` at index level.

use ppwf_core::policy::Policy;
use ppwf_model::ids::{ModuleId, WorkflowId};
use ppwf_repo::keyword_index::{KeywordIndex, Posting};
use ppwf_repo::postings::{
    intersect_term_specs, try_bitwise_and, PostingList, PostingsShape, TermLists,
    BITMAP_MIN_DISTINCT, BLOCK_POSTINGS,
};
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use proptest::prelude::*;

/// `k` postings of one spec in `(workflow, module)` order.
fn run_of(spec: u32, k: usize, salt: u32) -> Vec<Posting> {
    (0..k as u32)
        .map(|i| Posting {
            spec: SpecId(spec),
            workflow: WorkflowId(i / 3),
            module: ModuleId(i),
            tf: 1 + (salt + i) % 5,
        })
        .collect()
}

/// The sorted model beside the list under test.
#[derive(Clone, Debug, Default)]
struct Model {
    postings: Vec<Posting>,
}

impl Model {
    fn specs(&self) -> Vec<u32> {
        let mut specs: Vec<u32> = self.postings.iter().map(|p| p.spec.0).collect();
        specs.dedup();
        specs
    }

    fn count_of(&self, spec: u32) -> usize {
        self.postings.iter().filter(|p| p.spec.0 == spec).count()
    }

    fn remove(&mut self, spec: u32) {
        self.postings.retain(|p| p.spec.0 != spec);
    }

    fn insert(&mut self, run: &[Posting]) {
        let at = self.postings.partition_point(|p| p.spec < run[0].spec);
        self.postings.splice(at..at, run.iter().copied());
    }

    fn max_spec(&self) -> u32 {
        self.postings.last().map_or(0, |p| p.spec.0)
    }

    /// The first id at or after `from` the model does not hold.
    fn absent_from(&self, from: u32) -> u32 {
        let specs = self.specs();
        (from..).find(|s| specs.binary_search(s).is_err()).expect("ids are unbounded")
    }
}

fn oracle(model: &Model) -> PostingList {
    PostingList::from_postings(model.postings.clone())
}

/// Every read kernel of `list` against the oracle built from `model`.
fn check_reads(list: &PostingList, model: &Model, probe: u32) -> Result<(), TestCaseError> {
    let fresh = oracle(model);
    prop_assert_eq!(list.len(), fresh.len());
    prop_assert_eq!(list.to_vec(), model.postings.clone());
    prop_assert_eq!(list.distinct_specs(), fresh.distinct_specs());
    prop_assert_eq!(list.is_empty(), model.postings.is_empty());
    let specs = model.specs();
    let mut listed = Vec::new();
    list.specs_into(&mut listed);
    prop_assert_eq!(&listed, &specs);
    let span = model.max_spec() + 3;
    for s in (0..24).map(|i| (probe.wrapping_mul(31).wrapping_add(i * 7919)) % span) {
        prop_assert_eq!(list.contains_spec(s), specs.binary_search(&s).is_ok(), "spec {}", s);
    }
    for stride in [1u32, 3, 17] {
        let candidates: Vec<u32> =
            (0..span).filter(|s| s.wrapping_add(probe).is_multiple_of(stride)).collect();
        let (mut kept, mut expect) = (candidates.clone(), candidates.clone());
        list.retain_specs(&mut kept);
        fresh.retain_specs(&mut expect);
        prop_assert_eq!(&kept, &expect, "retain_specs, stride {}", stride);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        list.gather_specs_into(&candidates, &mut Vec::new(), &mut got);
        fresh.gather_specs_into(&candidates, &mut Vec::new(), &mut want);
        prop_assert_eq!(got, want, "gather_specs_into, stride {}", stride);
    }
    // A dense partner (always a bitmap) and a sparse one (always delta):
    // the bitwise path must engage exactly when the oracle's does.
    let dense =
        PostingList::from_postings((0..span.max(200)).flat_map(|s| run_of(s, 1, s)).collect());
    let sparse = PostingList::from_postings((0..40).flat_map(|s| run_of(s * 23, 2, s)).collect());
    for partner in [&dense, &sparse] {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        prop_assert_eq!(
            try_bitwise_and(list, partner, &mut got),
            try_bitwise_and(&fresh, partner, &mut want),
            "the list's sealed shape is not the one a fresh seal picks"
        );
        prop_assert_eq!(got, want);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        prop_assert_eq!(
            try_bitwise_and(partner, list, &mut got),
            try_bitwise_and(partner, &fresh, &mut want)
        );
        prop_assert_eq!(got, want);
        for seed in [None, Some(&sparse)] {
            let groups = |l| {
                [
                    TermLists { primary: Some(l), seed },
                    TermLists { primary: Some(partner), seed: None },
                ]
            };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            intersect_term_specs(&groups(list), &mut Vec::new(), &mut got);
            intersect_term_specs(&groups(&fresh), &mut Vec::new(), &mut want);
            prop_assert_eq!(got, want, "intersect_term_specs");
        }
    }
    Ok(())
}

/// The work bound for an edit of `own` postings of one spec that did not
/// rebuild the list: the spec's own postings (tail, bitmap) or every
/// posting of the blocks that can hold it — `own` postings span at most
/// `own / BLOCK + 2` blocks.
fn in_place_bound(own: usize) -> usize {
    own + BLOCK_POSTINGS * (own / BLOCK_POSTINGS + 2)
}

fn kind(shape: PostingsShape) -> u8 {
    match shape {
        PostingsShape::Unsealed => 0,
        PostingsShape::Delta { .. } => 1,
        PostingsShape::Bitmap { .. } => 2,
    }
}

/// Initial postings for one of the three shapes.
fn initial(shape: u8, seed: u32) -> Model {
    let mut postings = Vec::new();
    match shape {
        // Delta territory: ids spread out, several blocks.
        1 => {
            let mut spec = seed % 7;
            for i in 0..220 {
                postings.extend(run_of(spec, 1 + ((seed + i) % 3) as usize, i));
                spec += 9 + (seed.wrapping_mul(i + 1)) % 23;
            }
        }
        // Bitmap territory: ~3 of every 4 ids present.
        2 => {
            for s in 0..260u32 {
                if (s.wrapping_mul(2654435761).wrapping_add(seed)) % 4 != 0 {
                    postings.extend(run_of(s, 1 + ((seed + s) % 2) as usize, s));
                }
            }
        }
        // Anything, left unsealed.
        _ => {
            let mut spec = 0;
            for i in 0..(20 + seed % 300) {
                postings.extend(run_of(spec, 1 + ((seed + i) % 4) as usize, i));
                spec += 1 + (seed.wrapping_mul(i + 3)) % (1 + seed % 9);
            }
        }
    }
    Model { postings }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random op interleavings over all three starting shapes stay
    /// observationally identical to `from_postings(model)`.
    #[test]
    fn random_edits_match_the_rebuilt_oracle(
        shape in 0u8..3,
        seed in any::<u32>(),
        ops in proptest::collection::vec((0u8..10, any::<u32>(), any::<u32>()), 1..48),
    ) {
        let mut model = initial(shape, seed);
        let mut list = oracle(&model);
        if shape != 0 {
            list.distinct_specs(); // seal
            prop_assert_eq!(kind(list.shape()), shape, "initial corpus sealed to the wrong shape");
        }
        for &(op, a, b) in &ops {
            let before = list.shape();
            match op {
                // Remove a present spec (sometimes the minimum or maximum).
                0..=2 => {
                    let specs = model.specs();
                    if specs.is_empty() {
                        continue;
                    }
                    let spec = match b % 8 {
                        0 => specs[0],
                        1 => specs[specs.len() - 1],
                        _ => specs[a as usize % specs.len()],
                    };
                    let own = model.count_of(spec);
                    let interior = spec != specs[0] && spec != specs[specs.len() - 1];
                    let work = list.remove_spec(SpecId(spec));
                    model.remove(spec);
                    let after = list.shape();
                    if kind(before) != 0 && kind(before) == kind(after) && interior {
                        prop_assert!(
                            work <= in_place_bound(own),
                            "removing {own} postings from {before:?} materialized {work}"
                        );
                    }
                }
                // Remove an id that is (probably) absent.
                3 => {
                    let spec = a % (model.max_spec() + 20);
                    let present = model.count_of(spec) > 0;
                    let work = list.remove_spec(SpecId(spec));
                    model.remove(spec);
                    if !present && kind(before) == 2 {
                        prop_assert_eq!(work, 0, "an absent spec costs a bitmap nothing");
                    }
                }
                // Insert one absent spec: small runs, and now and then one
                // long enough to split a block or span two.
                4..=6 => {
                    let spec = model.absent_from(a % (model.max_spec() + 40));
                    let own = if b % 16 == 0 { 130 + (b % 100) as usize } else { 1 + (b % 4) as usize };
                    let interior = model.postings.first().is_some_and(|p| p.spec.0 < spec)
                        && spec < model.max_spec();
                    let run = run_of(spec, own, b);
                    let work = list.insert_spec_postings(&run);
                    model.insert(&run);
                    let after = list.shape();
                    if kind(before) != 0 && kind(before) == kind(after) && interior {
                        prop_assert!(
                            work <= in_place_bound(own),
                            "inserting {own} postings into {before:?} materialized {work}"
                        );
                    }
                }
                // Append fresh specs past the maximum (the refresh path).
                7 => {
                    let mut spec = model.max_spec() + 1 + a % 5;
                    let mut fresh = Vec::new();
                    for i in 0..1 + b % 5 {
                        fresh.extend(run_of(spec, 1 + ((a + i) % 3) as usize, i));
                        spec += 1 + (b >> 8) % 40;
                    }
                    model.postings.extend(fresh.iter().copied());
                    list.append_sorted(fresh);
                }
                // Read everything (seals a pending tail).
                8 => check_reads(&list, &model, a)?,
                // A single probe: seals without the full comparison.
                _ => {
                    let spec = a % (model.max_spec() + 2);
                    prop_assert_eq!(list.contains_spec(spec), model.count_of(spec) > 0);
                }
            }
            prop_assert_eq!(list.len(), model.postings.len(), "len after op {}", op);
        }
        check_reads(&list, &model, seed)?;
    }
}

fn sealed(model: &Model) -> PostingList {
    let list = oracle(model);
    list.distinct_specs();
    list
}

fn assert_matches(list: &PostingList, model: &Model) {
    check_reads(list, model, 5).unwrap_or_else(|e| panic!("{e:?}"));
}

/// A sparse multi-block delta list: spec ids `0, 10, 20, …`, two postings
/// each.
fn sparse(n: u32) -> Model {
    Model { postings: (0..n).flat_map(|i| run_of(i * 10, 2, i)).collect() }
}

/// A dense bitmap list: every id in `lo..hi`.
fn dense(lo: u32, hi: u32) -> Model {
    Model { postings: (lo..hi).flat_map(|s| run_of(s, 1, s)).collect() }
}

fn blocks(list: &PostingList) -> usize {
    match list.shape() {
        PostingsShape::Delta { blocks } => blocks,
        other => panic!("expected a delta list, got {other:?}"),
    }
}

#[test]
fn a_spec_spanning_two_delta_blocks_is_removed_from_both() {
    // Spec 315 (absent from the stride-10 ids) gets a run that starts in
    // one block and ends in the next.
    let mut model = sparse(300);
    model.insert(&run_of(315, 100, 1));
    let mut list = sealed(&model);
    let before = blocks(&list);
    let work = list.remove_spec(SpecId(315));
    model.remove(315);
    assert!(matches!(list.shape(), PostingsShape::Delta { .. }), "retraction must not unseal");
    assert!(work > 100 && work <= in_place_bound(100), "decoded {work}");
    assert!(blocks(&list) <= before);
    assert_matches(&list, &model);
}

#[test]
fn a_block_emptied_by_removal_is_dropped_and_later_offsets_shift() {
    // A run longer than two blocks owns at least one block outright.
    let mut model = sparse(200);
    model.insert(&run_of(1005, 3 * BLOCK_POSTINGS, 2));
    let mut list = sealed(&model);
    let before = blocks(&list);
    list.remove_spec(SpecId(1005));
    model.remove(1005);
    assert!(blocks(&list) < before, "the emptied blocks must go");
    // Every block after the hole is still found at its (shifted) offset.
    assert_matches(&list, &model);
    assert!(list.contains_spec(1990) && list.contains_spec(1010));
}

#[test]
fn an_insert_that_overfills_a_block_splits_it() {
    let mut model = sparse(320);
    let mut list = sealed(&model);
    let before = blocks(&list);
    let run = run_of(1555, 100, 3);
    let work = list.insert_spec_postings(&run);
    model.insert(&run);
    assert_eq!(blocks(&list), before + 1, "one block became two");
    assert!(work <= BLOCK_POSTINGS, "one block decoded, got {work}");
    assert_matches(&list, &model);
    // Past the maximum the last block takes the run (and splits likewise).
    let run = run_of(9_999, 90, 4);
    list.insert_spec_postings(&run);
    model.insert(&run);
    assert!(matches!(list.shape(), PostingsShape::Delta { .. }), "splice must not unseal");
    assert_matches(&list, &model);
}

#[test]
fn removing_a_bitmaps_minimum_or_maximum_keeps_the_span_tight() {
    let mut model = dense(40, 400);
    let mut list = sealed(&model);
    for spec in [40, 399, 41] {
        list.remove_spec(SpecId(spec));
        model.remove(spec);
        assert!(matches!(list.shape(), PostingsShape::Bitmap { .. }));
        assert_matches(&list, &model);
    }
    // An interior removal costs the spec's own postings, nothing else.
    assert_eq!(list.remove_spec(SpecId(200)), 1);
    model.remove(200);
    // …and putting it back is the mirror image.
    let run = run_of(200, 3, 9);
    assert_eq!(list.insert_spec_postings(&run), 3);
    model.insert(&run);
    assert!(matches!(list.shape(), PostingsShape::Bitmap { .. }));
    assert_matches(&list, &model);
    // Growing the span rebuilds that one list, correctly.
    for spec in [39, 500] {
        let run = run_of(spec, 2, 1);
        list.insert_spec_postings(&run);
        model.insert(&run);
        assert_matches(&list, &model);
    }
}

#[test]
fn a_bitmap_falling_under_its_thresholds_reseals_as_delta() {
    // Exactly the minimum distinct count: one removal drops below it.
    let mut model = dense(0, BITMAP_MIN_DISTINCT as u32);
    let mut list = sealed(&model);
    assert!(matches!(list.shape(), PostingsShape::Bitmap { .. }));
    list.remove_spec(SpecId(30));
    model.remove(30);
    assert!(matches!(list.shape(), PostingsShape::Delta { .. }), "{:?}", list.shape());
    assert_matches(&list, &model);

    // Density: 100 specs over a span of 397 is just dense enough (×4 ≥
    // span); losing interior specs takes it under the bound.
    let mut model = Model { postings: (0..100).flat_map(|i| run_of(i * 4, 1, i)).collect() };
    let mut list = sealed(&model);
    assert!(matches!(list.shape(), PostingsShape::Bitmap { .. }));
    list.remove_spec(SpecId(200));
    model.remove(200);
    assert!(matches!(list.shape(), PostingsShape::Delta { .. }), "{:?}", list.shape());
    assert_matches(&list, &model);
}

#[test]
fn a_delta_list_crossing_into_bitmap_preference_reseals_as_bitmap() {
    // 99 specs over a span of 397: one short of dense enough.
    let mut model = Model { postings: (0..100).flat_map(|i| run_of(i * 4, 1, i)).collect() };
    model.remove(200);
    let mut list = sealed(&model);
    assert!(matches!(list.shape(), PostingsShape::Delta { .. }));
    let run = run_of(201, 1, 0);
    list.insert_spec_postings(&run);
    model.insert(&run);
    assert!(matches!(list.shape(), PostingsShape::Bitmap { .. }), "{:?}", list.shape());
    assert_matches(&list, &model);
}

#[test]
fn removing_an_absent_spec_changes_nothing() {
    // Inside a block's range but not in it, between blocks or before the
    // first spec, past the end.
    for (model, absent) in
        [(sparse(300), [15, 1_285, 100_000]), (dense(1_000, 1_300), [15, 999, 100_000])]
    {
        let mut list = sealed(&model);
        let shape = list.shape();
        for spec in absent {
            list.remove_spec(SpecId(spec));
            assert_eq!(list.shape(), shape);
        }
        assert_matches(&list, &model);
        let mut unsealed = oracle(&model);
        assert_eq!(unsealed.remove_spec(SpecId(100_000)), 0);
        assert_eq!(unsealed.shape(), PostingsShape::Unsealed);
        assert_matches(&unsealed, &model);
    }
}

#[test]
fn emptying_a_list_leaves_an_empty_list_that_takes_inserts() {
    for mut model in [sparse(40), dense(0, 80), Model { postings: run_of(7, 3, 0) }] {
        let mut list = sealed(&model);
        for spec in model.specs() {
            list.remove_spec(SpecId(spec));
        }
        model.postings.clear();
        assert!(list.is_empty());
        assert_eq!(list.shape(), PostingsShape::Delta { blocks: 0 });
        assert_matches(&list, &model);
        let run = run_of(12, 2, 1);
        list.insert_spec_postings(&run);
        model.insert(&run);
        assert_matches(&list, &model);
    }
}

#[test]
fn edits_reach_both_the_sealed_part_and_a_pending_tail() {
    let mut model = sparse(200);
    let mut list = sealed(&model);
    // Fresh specs land in the tail behind the sealed blocks…
    let fresh: Vec<Posting> = (0..6).flat_map(|i| run_of(5_000 + i * 10, 2, i)).collect();
    model.postings.extend(fresh.iter().copied());
    list.append_sorted(fresh);
    assert_eq!(list.shape(), PostingsShape::Unsealed);
    // …and a removal must find a spec in either part, an insert its place
    // in either part, without sealing.
    assert_eq!(list.remove_spec(SpecId(5_020)), 2);
    model.remove(5_020);
    list.remove_spec(SpecId(500));
    model.remove(500);
    for spec in [5_015, 6_000, 505] {
        let run = run_of(spec, 2, spec);
        list.insert_spec_postings(&run);
        model.insert(&run);
    }
    assert_eq!(list.shape(), PostingsShape::Unsealed);
    assert_eq!(list.len(), model.postings.len());
    assert_matches(&list, &model);
}

/// The work bound at list lengths the index really holds: the parent
/// decoded the whole list (4 950 postings here) to drop two of them.
#[test]
fn retraction_work_is_bounded_by_the_touched_blocks_not_the_list() {
    let model = sparse(2_475);
    assert_eq!(model.postings.len(), 4_950);
    let mut list = sealed(&model);
    for spec in [12_340, 10, 24_000] {
        let work = list.remove_spec(SpecId(spec));
        assert!(work <= 2 * BLOCK_POSTINGS, "removing 2 of 4950 postings decoded {work}");
        let work = list.insert_spec_postings(&run_of(spec, 2, spec / 10));
        assert!(work <= BLOCK_POSTINGS, "inserting 2 postings decoded {work}");
    }
    assert_matches(&list, &model);
}

fn corpus(specs: usize, seed: u64) -> Repository {
    let mut repo = Repository::new();
    for i in 0..specs as u64 {
        let params = SpecParams { seed: seed ^ (i << 8), vocabulary: 48, ..SpecParams::default() };
        repo.insert_spec(generate_spec(&params), Policy::public()).unwrap();
    }
    repo
}

/// Index level: targeted maintenance over sealed lists is bit-identical to
/// a fresh build, drops the keys it empties, and moves
/// `postings_decoded_by_maintenance` by no more than the per-key bound —
/// every key whose shape survived the edit contributes at most the spec's
/// own postings plus the blocks that can hold them.
#[test]
fn index_maintenance_stays_within_the_per_key_work_bound() {
    use ppwf_repo::mutation::{ModuleTextEdit, Mutation, SpecText};
    let mut repo = corpus(400, 0xE14);
    let mut idx = KeywordIndex::build(&repo);
    let vocabulary: Vec<String> = (0..48).map(|i| format!("kw{i}")).collect();
    let seal_all = |idx: &KeywordIndex| {
        for term in &vocabulary {
            idx.lookup(term);
        }
    };
    seal_all(&idx);
    let victim = SpecId(201);
    let keys: Vec<String> = idx.posted_tokens(victim).unwrap().to_vec();
    let shapes_of = |idx: &KeywordIndex| -> Vec<Option<u8>> {
        keys.iter().map(|k| idx.term_postings(k).map(|l| kind(l.shape()))).collect()
    };
    let own_of = |idx: &KeywordIndex| -> usize {
        keys.iter().map(|k| idx.lookup(k).iter().filter(|p| p.spec == victim).count()).sum()
    };
    let lens_of = |idx: &KeywordIndex| -> Vec<usize> {
        keys.iter().map(|k| idx.term_postings(k).map_or(0, |l| l.len())).collect()
    };
    // Per key at most two blocks — or the list, when it is shorter — and
    // the whole list on top only where the edit changed its shape (the one
    // case that rebuilds it).
    let blocks_budget = |before: &[Option<u8>], after: &[Option<u8>], lens: &[usize]| -> usize {
        (before.iter().zip(after).zip(lens))
            .map(|((b, a), len)| (*len).min(2 * BLOCK_POSTINGS) + if b == a { 0 } else { *len })
            .sum()
    };

    // An edit that gives the spec a token nobody else posts…
    let module = repo.entry(victim).unwrap().spec.modules().find(|m| !m.kind.is_distinguished());
    let text = SpecText {
        edits: vec![ModuleTextEdit {
            module: module.unwrap().id,
            name: "solitary step".into(),
            keywords: vec!["kw3".into()],
        }],
    };
    let (own, shapes, lens, before) =
        (own_of(&idx), shapes_of(&idx), lens_of(&idx), idx.postings_decoded_by_maintenance());
    let effect = repo.apply(Mutation::EditSpec { spec: victim, text }).unwrap();
    idx.apply_effect(&repo, &effect);
    let spent = idx.postings_decoded_by_maintenance() - before;
    assert!(spent > 0, "the instrument must move");
    // Retraction and re-insertion each visit every key once.
    let bound = 2 * (own + blocks_budget(&shapes, &shapes_of(&idx), &lens));
    assert!(spent <= bound, "edit materialized {spent} postings, bound {bound}");
    assert!(idx.term_postings("solitary").is_some());

    // …and a delete that takes the token's only posting takes the key too.
    let (own, shapes, lens, before) =
        (own_of(&idx), shapes_of(&idx), lens_of(&idx), idx.postings_decoded_by_maintenance());
    let effect = repo.apply(Mutation::DeleteSpec { spec: victim }).unwrap();
    idx.apply_effect(&repo, &effect);
    assert!(idx.term_postings("solitary").is_none(), "an emptied key must be removed");
    assert!(!idx.may_match("solitary"));
    let spent = idx.postings_decoded_by_maintenance() - before;
    // (+ the "solitary step" name's own three postings, which `keys` —
    // the spec's vocabulary before the edit — does not list.)
    let bound = own + 3 + blocks_budget(&shapes, &shapes_of(&idx), &lens);
    assert!(spent <= bound, "delete materialized {spent} postings, bound {bound}");
    // The whole-list decode this replaced would have spent the lists' full
    // lengths — orders of magnitude past the bound at this corpus size.
    let whole: usize = keys.iter().map(|k| idx.lookup(k).len()).sum();
    assert!(spent * 4 < whole, "spent {spent} of {whole} postings under the touched keys");

    let fresh = KeywordIndex::build(&repo);
    assert_eq!(idx.term_count(), fresh.term_count());
    assert_eq!(idx.doc_count(), fresh.doc_count());
    for term in vocabulary.iter().map(String::as_str).chain(["solitary", "step", "solitary step"]) {
        assert_eq!(idx.lookup_query_term(term), fresh.lookup_query_term(term), "{term:?}");
        assert_eq!(idx.df(term), fresh.df(term));
        assert_eq!(idx.idf(term).to_bits(), fresh.idf(term).to_bits());
    }
}
