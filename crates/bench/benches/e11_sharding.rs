//! E11 — sharded serving through the criterion harness.
//!
//! The JSON emitter (`--bin e11_sharding`) owns the cold-path acceptance
//! run (a cold pass is one-shot per cluster, which criterion's repeated
//! iteration model cannot express). This harness times what *can* iterate:
//!
//! * `warm_serving` — the steady-state request path at 1, 2 and 4 shards:
//!   one front-cache probe per request whatever the shard count;
//! * `pool_scatter` — the worker pool's scatter/gather round-trip cost at
//!   several fan-outs, the fixed overhead every multi-shard query pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppwf_bench::{e11_corpus, e11_query_log, e11_repo, standard_registry, E10_GROUPS};
use ppwf_query::cluster::EngineCluster;
use ppwf_repo::pool::WorkerPool;

fn bench_sharded_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_sharding");
    group.sample_size(20);

    let specs = 128;
    let corpus = e11_corpus(specs, 17);
    let log = e11_query_log(&corpus, 100, 17 ^ 0x5EED);

    for shards in [1usize, 2, 4] {
        let cluster = EngineCluster::new(e11_repo(&corpus), standard_registry(), shards);
        for (i, q) in log.iter().enumerate() {
            cluster.search_as(E10_GROUPS[i % E10_GROUPS.len()], q).unwrap();
        }
        group.bench_with_input(BenchmarkId::new("warm_serving", shards), &shards, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for (i, q) in log.iter().enumerate() {
                    hits += cluster.search_as(E10_GROUPS[i % E10_GROUPS.len()], q).unwrap().len();
                }
                hits
            })
        });
    }

    for fanout in [2usize, 4, 8] {
        let pool = WorkerPool::new(fanout.min(4));
        group.bench_with_input(BenchmarkId::new("pool_scatter", fanout), &fanout, |b, &n| {
            b.iter(|| {
                let tasks: Vec<_> = (0..n as u64).map(|i| move || i * i).collect();
                pool.run(tasks).iter().sum::<u64>()
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_sharded_serving);
criterion_main!(benches);
