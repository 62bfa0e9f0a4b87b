//! E12 — lazy vs eager access-view resolution on the cold filtered-search
//! path.
//!
//! Three plans per corpus size, all serving the same selective query mix
//! over the same large registry:
//!
//! * `eager` — materialize the group's whole-corpus access map per
//!   request (the pre-E12 cold path: O(corpus) rule resolutions);
//! * `lazy_cold` — a fresh `AccessCache` per request: only candidate
//!   specs resolve, no memo warmth (the first-query-per-version cost);
//! * `lazy_memoized` — one surviving `AccessCache` (production shape):
//!   resolution amortizes to memo probes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppwf_bench::{e11_corpus, e11_query_log, e11_repo, e12_registry, E10_GROUPS};
use ppwf_query::keyword::{search_filtered_with_cache, KeywordQuery};
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::principals::AccessCache;
use ppwf_repo::view_cache::ViewCache;

fn bench_lazy_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_lazy_access");
    group.sample_size(15);
    for &specs in &[128usize, 512] {
        let corpus = e11_corpus(specs, 17);
        let repo = e11_repo(&corpus);
        let index = KeywordIndex::build(&repo);
        let (registry, _) = e12_registry(8, specs);
        let queries: Vec<KeywordQuery> =
            e11_query_log(&corpus, 20, 0x5EED).iter().map(|q| KeywordQuery::parse(q)).collect();
        let views = ViewCache::new(16);
        // Warm the view cache so both plans measure access resolution +
        // search, not first-touch view construction.
        for g in E10_GROUPS {
            let access = registry.access_map(&repo, g).unwrap();
            for q in &queries {
                search_filtered_with_cache(&repo, &index, q, &access, &views);
            }
        }

        // Eager resolves the whole-corpus map **per request** — exactly
        // what the pre-E12 engine did on every cold query.
        group.bench_with_input(BenchmarkId::new("eager", specs), &specs, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for g in E10_GROUPS {
                    for q in &queries {
                        let access = registry.access_map(&repo, g).unwrap();
                        hits += search_filtered_with_cache(&repo, &index, q, &access, &views).len();
                    }
                }
                hits
            })
        });

        // Lazy with a cache that starts cold each iteration: the
        // first-query-per-version cost, resolver handle per request as in
        // the engine.
        group.bench_with_input(BenchmarkId::new("lazy_cold", specs), &specs, |b, _| {
            b.iter(|| {
                let cache = AccessCache::new();
                let mut hits = 0usize;
                for g in E10_GROUPS {
                    for q in &queries {
                        let resolver = cache.resolver(&registry, &repo, g).unwrap();
                        hits +=
                            search_filtered_with_cache(&repo, &index, q, &resolver, &views).len();
                    }
                }
                hits
            })
        });

        // Lazy with the surviving memo (production steady state).
        let memo = AccessCache::new();
        group.bench_with_input(BenchmarkId::new("lazy_memoized", specs), &specs, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for g in E10_GROUPS {
                    for q in &queries {
                        let resolver = memo.resolver(&registry, &repo, g).unwrap();
                        hits +=
                            search_filtered_with_cache(&repo, &index, q, &resolver, &views).len();
                    }
                }
                hits
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lazy_access);
criterion_main!(benches);
