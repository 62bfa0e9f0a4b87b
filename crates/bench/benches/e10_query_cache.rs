//! E10 — the query fast path: cached vs uncached serving (Sec. 4's
//! user-group caching design).
//!
//! Three plans over the same repository and query mix:
//!
//! * `uncached` — what a cacheless server does per request: resolve the
//!   group's access map, run the filtered search, build every answer view
//!   from scratch;
//! * `view_cache` — the same search with only the `(spec, prefix)` view
//!   memo warm (no result caching);
//! * `warm_front` — a one-shard cluster, what serves one index, with its
//!   group-keyed front cache warm: one hash probe plus an `Arc` clone per
//!   request.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppwf_bench::{one_shard_cluster, populated_repo, standard_registry, E10_GROUPS, E10_QUERIES};
use ppwf_query::keyword::{search_filtered, search_filtered_with_cache, KeywordQuery};
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::view_cache::ViewCache;

fn bench_query_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_query_cache");
    group.sample_size(20);
    for &specs in &[8usize, 16, 32] {
        let repo = populated_repo(specs, 0, 91);
        let index = KeywordIndex::build(&repo);
        let registry = standard_registry();
        let queries: Vec<KeywordQuery> =
            E10_QUERIES.iter().map(|q| KeywordQuery::parse(q)).collect();

        group.bench_with_input(BenchmarkId::new("uncached", specs), &specs, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for g in E10_GROUPS {
                    let access = registry.access_map(&repo, g).unwrap();
                    for q in &queries {
                        hits += search_filtered(&repo, &index, q, &access).len();
                    }
                }
                hits
            })
        });

        let views = ViewCache::new(16);
        group.bench_with_input(BenchmarkId::new("view_cache", specs), &specs, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for g in E10_GROUPS {
                    let access = registry.access_map(&repo, g).unwrap();
                    for q in &queries {
                        hits += search_filtered_with_cache(&repo, &index, q, &access, &views).len();
                    }
                }
                hits
            })
        });

        let cluster = one_shard_cluster(specs, 0, 91);
        for g in E10_GROUPS {
            for q in E10_QUERIES {
                cluster.search_as(g, q).unwrap();
            }
        }
        group.bench_with_input(BenchmarkId::new("warm_front", specs), &specs, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for g in E10_GROUPS {
                    for q in E10_QUERIES {
                        hits += cluster.search_as(g, q).unwrap().len();
                    }
                }
                hits
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query_cache);
criterion_main!(benches);
