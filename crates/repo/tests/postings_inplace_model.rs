//! Model-based tests of the in-place posting kernels
//! ([`PostingList::remove_spec`] / [`PostingList::insert_spec_postings`]).
//!
//! Random lists — sparse ids, dense ids, and anything in between — take
//! random interleavings of removals, one-spec inserts, appends and reads
//! beside a sorted `Vec<Posting>` model. After every read step every read
//! kernel (`to_vec`, `len`, `distinct_specs`, `contains_spec`,
//! `specs_into`, `retain_specs`, `gather_specs_into`,
//! `intersect_term_specs`) must agree with the model computed naively and
//! with `PostingList::from_postings(model)`, the list a fresh build holds.
//!
//! The named cases pin the edges the random walk only visits by luck.

use ppwf_model::ids::{ModuleId, WorkflowId};
use ppwf_repo::keyword_index::Posting;
use ppwf_repo::postings::{intersect_term_specs, PostingList, TermLists};
use ppwf_repo::repository::SpecId;
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

/// The specs of `list`, ascending.
fn specs_of(list: &PostingList) -> Vec<u32> {
    let mut specs = Vec::new();
    list.specs_into(&mut specs);
    specs
}

/// Every read kernel of `list` against the model and the oracle built
/// from it.
fn check_reads(list: &PostingList, model: &Model, probe: u32) -> Result<(), TestCaseError> {
    let fresh = oracle(model);
    let specs = model.specs();
    prop_assert_eq!(list.len(), model.postings.len());
    prop_assert_eq!(list.to_vec(), model.postings.clone());
    prop_assert_eq!(list.distinct_specs(), specs.len());
    prop_assert_eq!(fresh.distinct_specs(), specs.len());
    prop_assert_eq!(list.is_empty(), model.postings.is_empty());
    prop_assert_eq!(&specs_of(list), &specs);
    let span = model.max_spec() + 3;
    for s in (0..24).map(|i| (probe.wrapping_mul(31).wrapping_add(i * 7919)) % span) {
        prop_assert_eq!(list.contains_spec(s), specs.binary_search(&s).is_ok(), "spec {}", s);
    }
    for stride in [1u32, 3, 17] {
        let candidates: Vec<u32> =
            (0..span).filter(|s| s.wrapping_add(probe).is_multiple_of(stride)).collect();
        let held: Vec<u32> =
            candidates.iter().copied().filter(|c| specs.binary_search(c).is_ok()).collect();
        let (mut kept, mut expect) = (candidates.clone(), candidates.clone());
        list.retain_specs(&mut kept);
        fresh.retain_specs(&mut expect);
        prop_assert_eq!(&kept, &held, "retain_specs, stride {}", stride);
        prop_assert_eq!(&expect, &held, "retain_specs on the oracle, stride {}", stride);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        list.gather_specs_into(&candidates, &mut got);
        fresh.gather_specs_into(&candidates, &mut want);
        let naive: Vec<Posting> = model
            .postings
            .iter()
            .copied()
            .filter(|p| held.binary_search(&p.spec.0).is_ok())
            .collect();
        prop_assert_eq!(&got, &naive, "gather_specs_into, stride {}", stride);
        prop_assert_eq!(&want, &naive, "gather_specs_into on the oracle, stride {}", stride);
    }
    // A dense partner and a sparse one, alone and as a phrase's seed.
    let dense =
        PostingList::from_postings((0..span.max(200)).flat_map(|s| run_of(s, 1, s)).collect());
    let sparse = PostingList::from_postings((0..40).flat_map(|s| run_of(s * 23, 2, s)).collect());
    for partner in [&dense, &sparse] {
        for seed in [None, Some(&sparse)] {
            let groups = |l| {
                [
                    TermLists { primary: Some(l), seed },
                    TermLists { primary: Some(partner), seed: None },
                ]
            };
            let mut union = specs.clone();
            if let Some(seed) = seed {
                union.extend(specs_of(seed));
                union.sort_unstable();
                union.dedup();
            }
            let partner_specs = specs_of(partner);
            let naive: Vec<u32> =
                union.into_iter().filter(|s| partner_specs.binary_search(s).is_ok()).collect();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            intersect_term_specs(&groups(list), &mut Vec::new(), &mut got);
            intersect_term_specs(&groups(&fresh), &mut Vec::new(), &mut want);
            prop_assert_eq!(&got, &naive, "intersect_term_specs");
            prop_assert_eq!(&want, &naive, "intersect_term_specs on the oracle");
        }
    }
    Ok(())
}

/// Initial postings: sparse ids (0), dense ids (1), or anything (2).
fn initial(corpus: u8, seed: u32) -> Model {
    let mut postings = Vec::new();
    match corpus {
        // Ids spread out.
        0 => {
            let mut spec = seed % 7;
            for i in 0..220 {
                postings.extend(run_of(spec, 1 + ((seed + i) % 3) as usize, i));
                spec += 9 + (seed.wrapping_mul(i + 1)) % 23;
            }
        }
        // ~3 of every 4 ids present.
        1 => {
            for s in 0..260u32 {
                if (s.wrapping_mul(2654435761).wrapping_add(seed)) % 4 != 0 {
                    postings.extend(run_of(s, 1 + ((seed + s) % 2) as usize, s));
                }
            }
        }
        // Anything.
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

    /// Random op interleavings over all three starting corpora stay
    /// observationally identical to the model and to
    /// `from_postings(model)`.
    #[test]
    fn random_edits_match_the_rebuilt_oracle(
        corpus in 0u8..3,
        seed in any::<u32>(),
        ops in proptest::collection::vec((0u8..10, any::<u32>(), any::<u32>()), 1..48),
    ) {
        let mut model = initial(corpus, seed);
        let mut list = oracle(&model);
        for &(op, a, b) in &ops {
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
                    list.remove_spec(SpecId(spec));
                    model.remove(spec);
                }
                // Remove an id that is (probably) absent.
                3 => {
                    let spec = a % (model.max_spec() + 20);
                    list.remove_spec(SpecId(spec));
                    model.remove(spec);
                }
                // Insert one absent spec: small runs, and now and then a
                // long one.
                4..=6 => {
                    let spec = model.absent_from(a % (model.max_spec() + 40));
                    let own = if b % 16 == 0 { 130 + (b % 100) as usize } else { 1 + (b % 4) as usize };
                    let run = run_of(spec, own, b);
                    list.insert_spec_postings(&run);
                    model.insert(&run);
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
                // Read everything.
                8 => check_reads(&list, &model, a)?,
                // A single probe.
                _ => {
                    let spec = a % (model.max_spec() + 2);
                    prop_assert_eq!(list.contains_spec(spec), model.count_of(spec) > 0);
                }
            }
            prop_assert_eq!(list.len(), model.postings.len(), "len after op {}", op);
            prop_assert_eq!(list.distinct_specs(), model.specs().len(), "distinct after op {}", op);
        }
        check_reads(&list, &model, seed)?;
    }
}

fn assert_matches(list: &PostingList, model: &Model) {
    check_reads(list, model, 5).unwrap_or_else(|e| panic!("{e:?}"));
}

/// Sparse ids `0, 10, 20, …`, two postings each.
fn sparse(n: u32) -> Model {
    Model { postings: (0..n).flat_map(|i| run_of(i * 10, 2, i)).collect() }
}

/// Every id in `lo..hi`.
fn dense(lo: u32, hi: u32) -> Model {
    Model { postings: (lo..hi).flat_map(|s| run_of(s, 1, s)).collect() }
}

#[test]
fn removing_an_absent_spec_changes_nothing() {
    // Between two held ids, before the first, past the end.
    for (model, absent) in
        [(sparse(300), [15, 1_285, 100_000]), (dense(1_000, 1_300), [15, 999, 100_000])]
    {
        let mut list = oracle(&model);
        for spec in absent {
            list.remove_spec(SpecId(spec));
        }
        assert_matches(&list, &model);
    }
}

#[test]
fn emptying_a_list_leaves_an_empty_list_that_takes_inserts() {
    for mut model in [sparse(40), dense(0, 80), Model { postings: run_of(7, 3, 0) }] {
        let mut list = oracle(&model);
        for spec in model.specs() {
            list.remove_spec(SpecId(spec));
        }
        model.postings.clear();
        assert!(list.is_empty());
        assert_eq!(list.distinct_specs(), 0);
        assert_matches(&list, &model);
        let run = run_of(12, 2, 1);
        list.insert_spec_postings(&run);
        model.insert(&run);
        assert_matches(&list, &model);
    }
}

#[test]
fn edits_reach_both_built_and_appended_specs() {
    let mut model = sparse(200);
    let mut list = oracle(&model);
    // Fresh specs append behind the built ones…
    let fresh: Vec<Posting> = (0..6).flat_map(|i| run_of(5_000 + i * 10, 2, i)).collect();
    model.postings.extend(fresh.iter().copied());
    list.append_sorted(fresh);
    // …and a removal must find a spec in either part, an insert its place
    // in either part.
    list.remove_spec(SpecId(5_020));
    model.remove(5_020);
    list.remove_spec(SpecId(500));
    model.remove(500);
    for spec in [5_015, 6_000, 505] {
        let run = run_of(spec, 2, spec);
        list.insert_spec_postings(&run);
        model.insert(&run);
    }
    assert_eq!(list.len(), model.postings.len());
    assert_matches(&list, &model);
}
