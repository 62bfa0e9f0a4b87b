//! Ablation — reachability representation: the soundness checker,
//! structural matching and cached views materialize bitset transitive
//! closures instead of answering pairwise queries with BFS.
//! This bench quantifies that choice: closure build cost vs per-query BFS
//! cost vs closure lookup, at the batch sizes the privacy algorithms use
//! (soundness checking asks O(k²) pairs per view).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppwf_bench::layered_dag;

fn bench_reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_reachability");
    group.sample_size(10);
    for &n in &[50usize, 100, 200] {
        let (g, _) = layered_dag(17, n, 8);
        group.bench_with_input(BenchmarkId::new("closure_build", n), &n, |b, _| {
            b.iter(|| g.transitive_closure())
        });
        // A soundness-check-like batch: all ordered pairs of 32 probes.
        let probes: Vec<u32> = (0..32.min(n as u32)).collect();
        group.bench_with_input(BenchmarkId::new("batch_bfs_32x32", n), &n, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for &u in &probes {
                    let r = g.reachable_from(u);
                    for &v in &probes {
                        if r.contains(v as usize) {
                            hits += 1;
                        }
                    }
                }
                hits
            })
        });
        let tc = g.transitive_closure();
        group.bench_with_input(BenchmarkId::new("batch_closure_32x32", n), &n, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for &u in &probes {
                    for &v in &probes {
                        if tc[u as usize].contains(v as usize) {
                            hits += 1;
                        }
                    }
                }
                hits
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reachability);
criterion_main!(benches);
