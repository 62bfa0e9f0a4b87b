//! E20 — what a write holds the cluster write lock for, through criterion.
//!
//! `write_durable` (perfbench) showed the write lane CPU-bound, and a
//! timer around the lock showed where: index maintenance for deletes and
//! edits decoded every posting list the spec touched, and the cadence
//! snapshot deep-copied the accrued repository. Both now do work
//! proportional to what changed; this harness pins the kernels:
//!
//! * `retract_splice/<postings>` — one sample removes one spec's two
//!   postings from a list and puts them back
//!   ([`PostingList::remove_spec`] + [`PostingList::insert_spec_postings`],
//!   what an `EditSpec` does per key) at list lengths 8 / 168 / 4 950 —
//!   a rare key, the mean key and the one list every spec shares: two
//!   binary searches, a drain and a splice, so it grows only by the
//!   memmove of the list's tail.
//! * `index/edit_spec` and `index/insert_delete` —
//!   [`KeywordIndex::apply_effect`] of one spec's edit, and of an insert
//!   followed by the delete of that spec, on the 1 024-spec E11 corpus.
//! * `image_capture/1024x80` — [`CowImage::capture`] of every chunk of a
//!   repository of 1 024 specs × 80 executions: pointer copies, where the
//!   parent deep-cloned (≈ 168 ms at this size in the `write_durable` run).
//!   The images are kept until the group ends so the sample times capture
//!   alone; dropping one is the background job's cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppwf_bench::{e11_corpus, e11_repo, e11_spec_params};
use ppwf_core::policy::Policy;
use ppwf_model::ids::{ModuleId, WorkflowId};
use ppwf_repo::keyword_index::{KeywordIndex, Posting};
use ppwf_repo::mutation::{ModuleTextEdit, Mutation, SpecText};
use ppwf_repo::postings::PostingList;
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_repo::snapshot::{CowImage, CHUNK_SPECS};
use ppwf_workloads::generate_spec;
use ppwf_workloads::genexec::generate_executions;

fn run_of(spec: u32) -> [Posting; 2] {
    [0, 1].map(|m| Posting {
        spec: SpecId(spec),
        module: ModuleId(m),
        workflow: WorkflowId(0),
        tf: 1 + m,
    })
}

/// A list of `postings` postings, two per spec.
fn list(postings: usize) -> PostingList {
    PostingList::from_postings((0..postings as u32 / 2).flat_map(run_of).collect())
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_write_lane");
    group.sample_size(200);
    for postings in [8usize, 168, 4_950] {
        let mut list = list(postings);
        // An interior spec: neither end of the list.
        let run = run_of(postings as u32 / 4);
        group.bench_function(BenchmarkId::new("retract_splice", postings), |b| {
            b.iter(|| {
                list.remove_spec(run[0].spec);
                list.insert_spec_postings(&run);
                list.len()
            })
        });
        assert_eq!(list.len(), postings / 2 * 2);
    }
    group.finish();
}

fn bench_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_write_lane");
    group.sample_size(60);
    let corpus = e11_corpus(1_024, 17);
    let victim = SpecId(700);
    let module =
        corpus[700].modules().find(|m| !m.kind.is_distinguished()).expect("an editable module").id;
    let text = |i: u64| SpecText {
        edits: vec![ModuleTextEdit {
            module,
            name: format!("edited step {i}"),
            keywords: vec![format!("kw{}", i % 64), format!("kw{}", 200 + i % 7)],
        }],
    };
    // Generated up front: a sample pays for indexing and retracting a
    // spec, not for generating it.
    let fresh: Vec<_> = (0..64).map(|i| generate_spec(&e11_spec_params(0xE20 ^ i))).collect();
    let mut repo = e11_repo(&corpus);
    let mut index = KeywordIndex::build(&repo);
    let mut i = 0u64;
    group.bench_function("index/edit_spec", |b| {
        b.iter(|| {
            i += 1;
            let effect = repo.apply(Mutation::EditSpec { spec: victim, text: text(i) }).unwrap();
            index.apply_effect(&repo, &effect);
            index.doc_count()
        })
    });
    group.bench_function("index/insert_delete", |b| {
        b.iter(|| {
            i += 1;
            let spec = fresh[i as usize % fresh.len()].clone();
            let effect =
                repo.apply(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
            index.apply_effect(&repo, &effect);
            let effect = repo.apply(Mutation::DeleteSpec { spec: effect.spec() }).unwrap();
            index.apply_effect(&repo, &effect);
            index.doc_count()
        })
    });
    group.finish();
}

fn bench_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_write_lane");
    group.sample_size(30);
    let corpus = e11_corpus(1_024, 17);
    let mut repo: Repository = e11_repo(&corpus);
    for (i, spec) in corpus.iter().enumerate() {
        for exec in generate_executions(spec, 80, 17 + i as u64) {
            repo.add_execution(SpecId(i as u32), exec).unwrap();
        }
    }
    let plan = vec![None; repo.len().div_ceil(CHUNK_SPECS)];
    let mut kept = Vec::new();
    group.bench_function(BenchmarkId::new("image_capture", "1024x80"), |b| {
        b.iter(|| {
            let slot = |id| repo.entry(id).cloned();
            kept.push(CowImage::capture(repo.version(), repo.len(), &plan, slot));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_index, bench_capture);
criterion_main!(benches);
