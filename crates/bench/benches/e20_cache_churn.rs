//! E20 — the cache-eviction kernel through criterion.
//!
//! `read_thrash` (perfbench) showed the result caches costing more than the
//! queries they memoize once the working set outgrows them: every insert
//! into a full cache scanned all of it. This harness pins the kernel under
//! that finding, straight on [`GroupCache`]:
//!
//! * `insert_into_full/<capacity>` — a cyclic stream of keys twice the
//!   capacity wide, so every insert misses and must evict. The cost has to
//!   be **flat in capacity** (CLOCK: ~1 slot inspected per eviction; the
//!   former stamp-LRU walked the whole map twice).
//! * `warm_get_hit/4096` — the warm probe every served request pays: a
//!   borrowed-key lookup, the recency mark and an `Arc` clone. Must be no
//!   slower than under the stamp policy (one relaxed store instead of a
//!   shared `fetch_add` plus a store).
//!
//! Each sample is a batch of [`BATCH`] operations; divide by it for the
//! per-operation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppwf_repo::cache::GroupCache;
use std::sync::Arc;

const BATCH: usize = 256;
const GROUPS: [&str; 3] = ["public", "analysts", "researchers"];

fn keys(n: usize) -> Vec<(&'static str, String)> {
    (0..n).map(|i| (GROUPS[i % GROUPS.len()], format!("kw{i}, kw{}", i / 7))).collect()
}

fn bench_cache_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_cache_churn");
    group.sample_size(40);
    let value = Arc::new(0u64);

    for capacity in [256usize, 4096, 65_536] {
        let cache: GroupCache<(), Arc<u64>> = GroupCache::new(capacity);
        let stream = keys(2 * capacity);
        for (g, q) in &stream[..capacity] {
            cache.insert(g, q, (), 1, Arc::clone(&value));
        }
        let mut next = capacity;
        group.bench_with_input(
            BenchmarkId::new("insert_into_full", capacity),
            &capacity,
            |b, _| {
                b.iter(|| {
                    for _ in 0..BATCH {
                        let (g, q) = &stream[next % stream.len()];
                        cache.insert(g, q, (), 1, Arc::clone(&value));
                        next += 1;
                    }
                })
            },
        );
        assert_eq!(cache.len(), capacity, "every timed insert ran against a full cache");
    }

    let capacity = 4096;
    let cache: GroupCache<(), Arc<u64>> = GroupCache::new(capacity);
    let resident = keys(capacity);
    for (g, q) in &resident {
        cache.insert(g, q, (), 1, Arc::clone(&value));
    }
    group.bench_with_input(BenchmarkId::new("warm_get_hit", capacity), &capacity, |b, _| {
        b.iter(|| {
            let mut found = 0u64;
            for (g, q) in &resident[..BATCH] {
                found += u64::from(cache.get(g, q, (), 1).is_some());
            }
            assert_eq!(found, BATCH as u64);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cache_churn);
criterion_main!(benches);
