//! E5 — keyword search plans: full scan vs privacy-classified index vs
//! per-group cache (Sec. 4: one index for many privilege levels).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppwf_bench::populated_repo;
use ppwf_model::hierarchy::Prefix;
use ppwf_query::keyword::{search, search_filtered, search_scan, KeywordQuery};
use ppwf_query::privacy_exec::AccessMap;
use ppwf_repo::cache::GroupCache;
use ppwf_repo::keyword_index::KeywordIndex;

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_search");
    group.sample_size(10);
    for &specs in &[8usize, 16, 32, 64] {
        let repo = populated_repo(specs, 0, 51);
        let index = KeywordIndex::build(&repo);
        let q = KeywordQuery::parse("kw0, kw1");
        let access: AccessMap =
            repo.entries().map(|(sid, e)| (sid, Prefix::full(&e.hierarchy))).collect();
        group.bench_with_input(BenchmarkId::new("scan", specs), &specs, |b, _| {
            b.iter(|| search_scan(&repo, &q))
        });
        group.bench_with_input(BenchmarkId::new("index", specs), &specs, |b, _| {
            b.iter(|| search(&repo, &index, &q))
        });
        group.bench_with_input(BenchmarkId::new("index_filtered", specs), &specs, |b, _| {
            b.iter(|| search_filtered(&repo, &index, &q, &access))
        });
        let cache: GroupCache<(), usize> = GroupCache::new(8);
        let version = repo.version();
        cache.get_or_compute("g", "q", (), version, || search(&repo, &index, &q).len());
        group.bench_with_input(BenchmarkId::new("cached", specs), &specs, |b, _| {
            b.iter(|| cache.get_or_compute("g", "q", (), version, || unreachable!()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
