//! E2 — min-cost Γ-private hiding: greedy vs exhaustive runtime as the
//! attribute count grows (Sec. 3's "interesting optimization problem"), for
//! standalone modules; the workflow half of ref \[4\] is not reproduced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppwf_core::module_privacy::{exhaustive_min_hiding, greedy_min_hiding};
use ppwf_workloads::genmodule::{relation, weights, Family};

fn bench_hiding(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_module_privacy");
    group.sample_size(10);
    for attrs in [4usize, 6, 8] {
        let (ina, outa) = (attrs / 2, attrs / 2);
        let rel = relation(21, Family::Random, ina, outa, 2);
        let w = weights(22, rel.attr_count(), 9);
        group.bench_with_input(BenchmarkId::new("greedy", attrs), &attrs, |b, _| {
            b.iter(|| greedy_min_hiding(&rel, &w, 4).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("exhaustive", attrs), &attrs, |b, _| {
            b.iter(|| exhaustive_min_hiding(&rel, &w, 4).unwrap())
        });
    }
    // Γ sweep at fixed size.
    let rel = relation(23, Family::Random, 3, 3, 2);
    let w = weights(24, rel.attr_count(), 9);
    for gamma in [2u64, 4, 8] {
        group.bench_with_input(BenchmarkId::new("greedy_by_gamma", gamma), &gamma, |b, &g| {
            b.iter(|| greedy_min_hiding(&rel, &w, g).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hiding);
criterion_main!(benches);
