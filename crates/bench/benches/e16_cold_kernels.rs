//! E16 — the cold-path kernels through the criterion harness.
//!
//! The JSON emitter (`--bin e16_cold_kernels`) owns the acceptance run
//! (end-to-end search over a generated corpus, verified answers, gated
//! speedups). This harness isolates the two kernels underneath on
//! synthetic lists:
//!
//! * `intersect` — multi-term candidate-spec intersection over two sparse
//!   lists: `kernel` is [`intersect_term_specs`] (one list's specs,
//!   binary-searched in the other), and
//!   `baseline_merge`, which derives spec sets from the flat sorted
//!   posting arrays the PR-6 index kept and merges them two-pointer
//!   style (spec sets never pre-existed in that representation);
//! * `score` — ranked scoring of many TF profiles: `batch` is the E16
//!   [`scores_for_profiles`] (flat staging, one pass), `per_profile`
//!   the pre-E16 per-hit [`score_with_idfs`] map. Both must agree to
//!   the bit — asserted here before timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppwf_model::ids::{ModuleId, WorkflowId};
use ppwf_query::ranking::{score_with_idfs, scores_for_profiles, RankingMode, TfProfile};
use ppwf_repo::postings::{intersect_term_specs, Posting, PostingList, TermLists};
use ppwf_repo::repository::SpecId;

/// A synthetic list posting every `stride`-th spec id below `span`.
fn strided_list(stride: u32, span: u32) -> PostingList {
    let postings: Vec<Posting> = (0..span)
        .step_by(stride as usize)
        .map(|s| Posting { spec: SpecId(s), module: ModuleId(0), workflow: WorkflowId(0), tf: 1 })
        .collect();
    PostingList::from_postings(postings)
}

/// The PR-6 shape of the same question: spec sets don't pre-exist — they
/// are derived from the flat sorted posting arrays (the only
/// representation that index kept), then merged two-pointer style.
fn merge_intersect(
    a: &[Posting],
    b: &[Posting],
    sa: &mut Vec<u32>,
    sb: &mut Vec<u32>,
    out: &mut Vec<u32>,
) {
    sa.clear();
    sa.extend(a.iter().map(|p| p.spec.0));
    sa.dedup();
    sb.clear();
    sb.extend(b.iter().map(|p| p.spec.0));
    sb.dedup();
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(&sb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(sa[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

fn bench_intersect(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_intersect");
    const SPAN: u32 = 32_768;

    // Sparse × sparse: strides 16 and 24; the intersection (every 48th
    // spec) is ~683 of 2048/1366 candidates.
    let (a, b) = (strided_list(16, SPAN), strided_list(24, SPAN));
    let groups =
        [TermLists { primary: Some(&a), seed: None }, TermLists { primary: Some(&b), seed: None }];
    let (pa, pb) = (a.to_vec(), b.to_vec());
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    let mut expect = Vec::new();
    merge_intersect(&pa, &pb, &mut sa, &mut sb, &mut expect);
    let (mut tmp, mut out) = (Vec::new(), Vec::new());
    intersect_term_specs(&groups, &mut tmp, &mut out);
    assert_eq!(out, expect, "kernel and merge must agree");

    group.bench_with_input(BenchmarkId::new("kernel", "sparse"), &SPAN, |bch, _| {
        bch.iter(|| {
            intersect_term_specs(&groups, &mut tmp, &mut out);
            out.len()
        })
    });
    group.bench_with_input(BenchmarkId::new("baseline_merge", "sparse"), &SPAN, |bch, _| {
        bch.iter(|| {
            merge_intersect(&pa, &pb, &mut sa, &mut sb, &mut out);
            out.len()
        })
    });
    group.finish();
}

fn bench_score(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_score");
    const PROFILES: usize = 512;
    const TERMS: usize = 3;

    let idfs: Vec<f64> = (0..TERMS).map(|t| 1.5 + t as f64 * 0.37).collect();
    let profiles: Vec<TfProfile> = (0..PROFILES)
        .map(|p| {
            let visible: Vec<u64> = (0..TERMS).map(|t| ((p * 7 + t * 3) % 5) as u64).collect();
            let hidden: Vec<u64> = (0..TERMS).map(|t| ((p * 11 + t * 5) % 4) as u64).collect();
            TfProfile { visible, hidden }
        })
        .collect();

    for mode in [RankingMode::ExactFull, RankingMode::VisibleOnly] {
        let label = match mode {
            RankingMode::ExactFull => "exact_full",
            _ => "visible_only",
        };
        let batch = scores_for_profiles(&idfs, &profiles, mode);
        for (s, p) in batch.iter().zip(&profiles) {
            assert_eq!(
                s.to_bits(),
                score_with_idfs(&idfs, p, mode).to_bits(),
                "batch and per-profile scores must be bit-identical"
            );
        }

        group.bench_with_input(BenchmarkId::new("batch", label), &PROFILES, |bch, _| {
            bch.iter(|| scores_for_profiles(&idfs, &profiles, mode).len())
        });
        group.bench_with_input(BenchmarkId::new("per_profile", label), &PROFILES, |bch, _| {
            bch.iter(|| {
                profiles.iter().map(|p| score_with_idfs(&idfs, p, mode)).collect::<Vec<_>>().len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_intersect, bench_score);
criterion_main!(benches);
