//! E20 — the revalidation kernel through criterion.
//!
//! `mixed_live` (perfbench) showed the median read paying a full cold
//! dispatch for an answer no write had changed: every answer-changing write
//! stranded every cached `(group, query)` entry. Entries are now judged one
//! by one at their next probe against per-token touch stamps
//! ([`TouchStamps`]). This harness pins the four costs that rule adds or
//! leaves alone, straight on [`GroupCache`] and [`TouchStamps`]:
//!
//! * `exact_tag_hit` — the probe of an entry at the current version. The
//!   stamps are never consulted: must cost what `e20_cache_churn`'s
//!   `warm_get_hit` costs.
//! * `readmitted_hit` — the first probe of an entry after a version bump
//!   that did not touch it: the exact-tag probe plus a walk of the query's
//!   tokens through the stamp table, a re-tag and the reference bit. This
//!   is the read `mixed_live`'s median now pays instead of a dispatch.
//! * `rejected_probe` — the same walk ending in a verdict against the
//!   entry; what a miss pays on top of the recompute.
//! * `stamp_vocabulary/<tokens>` — what one answer-changing write adds
//!   under the write lock: re-stamping a spec's vocabulary of 16/64/256
//!   tokens.
//!
//! Probe samples are batches of [`BATCH`] operations; divide by it for the
//! per-operation cost. `stamp_vocabulary` samples are one write each.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppwf_repo::cache::GroupCache;
use ppwf_repo::touch::{Depends, TouchStamps};
use std::sync::Arc;

const BATCH: usize = 256;
const CAPACITY: usize = 4096;
const GROUPS: [&str; 3] = ["public", "analysts", "researchers"];

fn keys(n: usize) -> Vec<(&'static str, String)> {
    (0..n).map(|i| (GROUPS[i % GROUPS.len()], format!("kw{i}, kw{}", i / 7))).collect()
}

fn vocabulary(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("kw{i}")).collect()
}

fn warm_cache(resident: &[(&'static str, String)]) -> GroupCache<(), Arc<u64>> {
    let cache = GroupCache::new(CAPACITY);
    let value = Arc::new(0u64);
    for (g, q) in resident {
        cache.insert(g, q, (), 1, Arc::clone(&value));
    }
    cache
}

fn bench_revalidate(c: &mut Criterion) {
    let mut group = c.benchmark_group("e20_revalidate");
    group.sample_size(40);
    let resident = keys(CAPACITY);
    let probe = |cache: &GroupCache<(), Arc<u64>>, stamps: &TouchStamps, version: u64| {
        let mut found = 0usize;
        for (g, q) in &resident[..BATCH] {
            let hit = cache.get_validated(g, q, (), version, |tag| {
                stamps.survives(q, tag, Depends::OnMatches)
            });
            found += usize::from(hit.is_some());
        }
        found
    };

    // Writes happened (the table is populated), none since these entries
    // were computed.
    let mut stamps = TouchStamps::new();
    stamps.touch(&vocabulary(CAPACITY), 1);
    let cache = warm_cache(&resident);
    group.bench_function("exact_tag_hit", |b| {
        b.iter(|| assert_eq!(probe(&cache, &stamps, 1), BATCH));
    });

    // Every batch runs at a version of its own, one past the last: each
    // probe finds its entry one version behind and untouched.
    let mut version = 1;
    group.bench_function("readmitted_hit", |b| {
        b.iter(|| {
            version += 1;
            assert_eq!(probe(&cache, &stamps, version), BATCH);
        });
    });
    assert!(cache.stats().revalidations() >= BATCH as u64);

    // Every token was written at version 2: the entries, still tagged 1
    // (nothing recomputes them here), are rejected on every probe.
    let cache = warm_cache(&resident);
    stamps.touch(&vocabulary(CAPACITY), 2);
    group.bench_function("rejected_probe", |b| {
        b.iter(|| assert_eq!(probe(&cache, &stamps, 2), 0));
    });
    assert_eq!(cache.stats().revalidations(), 0);

    for tokens in [16usize, 64, 256] {
        let written = vocabulary(tokens);
        let mut at = 2;
        group.bench_with_input(BenchmarkId::new("stamp_vocabulary", tokens), &tokens, |b, _| {
            b.iter(|| {
                at += 1;
                stamps.touch(&written, at);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_revalidate);
criterion_main!(benches);
