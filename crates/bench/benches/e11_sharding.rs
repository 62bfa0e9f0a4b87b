//! E11 — sharded serving through the criterion harness.
//!
//! The JSON emitter (`--bin e11_sharding`) owns the cold-path acceptance
//! run (a cold pass is one-shot per cluster, which criterion's repeated
//! iteration model cannot express). This harness times what *can* iterate:
//!
//! * `warm_serving` — the steady-state request path at 1, 2 and 4 shards:
//!   one front-cache probe per request whatever the shard count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppwf_bench::{e11_corpus, e11_query_log, e11_repo, standard_registry, E10_GROUPS};
use ppwf_query::cluster::EngineCluster;

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

    group.finish();
}

criterion_group!(benches, bench_sharded_serving);
criterion_main!(benches);
