//! E13 — the incremental write pipeline through the criterion harness.
//!
//! The JSON emitter (`--bin e13_incremental_writes`) owns the acceptance
//! run over a full mixed write stream (streams are one-shot per repo copy,
//! which criterion's repeated iteration model cannot express). This
//! harness times the two steady-state kernels that *can* iterate:
//!
//! * `maintenance` — the per-write index cost after an execution append
//!   (the dominant provenance write): `full_rebuild` re-tokenizes the
//!   whole corpus as the pre-E13 engine did, `apply_effect` folds the
//!   append's typed effect into the index (it indexes nothing) — the E13
//!   lever, measured at the same corpus size;
//! * `typed_write` — the whole engine pipeline (`QueryEngine::mutate`)
//!   absorbing one execution append, including effect dispatch and
//!   stamping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppwf_bench::{e11_corpus, e11_repo, standard_registry};
use ppwf_query::engine::QueryEngine;
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::mutation::Mutation;
use ppwf_repo::repository::SpecId;
use ppwf_workloads::genexec::generate_executions;

fn bench_incremental_writes(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_incremental_writes");
    group.sample_size(10);

    let specs = 256;
    let corpus = e11_corpus(specs, 17);
    let exec = generate_executions(&corpus[0], 1, 17).pop().expect("one execution");

    {
        let mut repo = e11_repo(&corpus);
        group.bench_with_input(BenchmarkId::new("maintenance", "full_rebuild"), &specs, |b, _| {
            b.iter(|| {
                repo.add_execution(SpecId(0), exec.clone()).unwrap();
                KeywordIndex::build(&repo).doc_count()
            })
        });
    }

    {
        let mut repo = e11_repo(&corpus);
        let mut index = KeywordIndex::build(&repo);
        group.bench_with_input(BenchmarkId::new("maintenance", "apply_effect"), &specs, |b, _| {
            b.iter(|| {
                let append = Mutation::AddExecution { spec: SpecId(0), exec: exec.clone() };
                let effect = repo.apply(append).unwrap();
                index.apply_effect(&repo, &effect).docs_moved
            })
        });
    }

    {
        let mut engine = QueryEngine::new(e11_repo(&corpus), standard_registry());
        group.bench_with_input(BenchmarkId::new("typed_write", "exec_append"), &specs, |b, _| {
            b.iter(|| {
                engine
                    .mutate(Mutation::AddExecution { spec: SpecId(0), exec: exec.clone() })
                    .unwrap()
                    .changes_visible_state()
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_incremental_writes);
criterion_main!(benches);
