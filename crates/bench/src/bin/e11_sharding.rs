//! E11 baseline emitter: sharded vs one-shard query serving.
//!
//! ```bash
//! cargo run --release -p ppwf-bench --bin e11_sharding -- \
//!     [--out BENCH_e11_sharding.json] [--specs 1024] [--shards 1,2,4,8] \
//!     [--queries 400] [--seed 17] [--min-speedup 0.7]
//! ```
//!
//! One corpus (many small specs, large Zipf keyword vocabulary), one
//! distinct-query log (mixed arity, co-occurring and cross term pairs,
//! corpus-Zipf popularity), one rotating group stream. A one-shard
//! [`EngineCluster`] — what serves when there is one index — serves the
//! stream as the single baseline; then a cluster per shard count serves
//! the *same* stream:
//!
//! * `cold` — first pass, every request a result-cache miss: the uncached
//!   serving path. The index-gated scatter touches only shards whose
//!   indexes can satisfy every query term, and the blocking read runs the
//!   surviving shards in sequence on the calling thread.
//! * `warm` — second pass over the same stream, served from the
//!   cluster-front result cache (one probe per request, tagged by the
//!   cluster's epoch). A shard caches no answer, so a front miss
//!   recomputes the target shards' parts.
//!
//! **Post-E12 note.** When this gate was introduced, a cold request
//! resolved the principal group's access views across its engine's whole
//! corpus slice, so pruning the scatter pruned the dominant cost and a
//! single pinned core measured ≥2× at 4 shards. E12's lazy resolver gave
//! the *single engine* the same per-candidate saving, so on one core the
//! cluster now runs at rough parity cold (the pruned work no longer
//! dominates); sharding's remaining levers are write isolation and
//! per-shard pruning. The acceptance gate is therefore a
//! **no-regression floor** (default ≥0.7× —
//! sharding must not make cold serving pathologically slower), not a
//! speedup claim.
//!
//! Before any number is reported, a verification pass asserts every
//! cluster answer lists exactly the single engine's spec ids. The
//! binary exits non-zero if the 4-shard cold-path throughput ratio is
//! below the acceptance threshold.

use ppwf_bench::harness::{assert_same_answers, fixed, hits, serve_pass, write_record, Json};
use ppwf_bench::{e11_corpus, e11_query_log, e11_repo, standard_registry, E10_GROUPS};
use ppwf_query::cluster::EngineCluster;

ppwf_bench::flags! {
    struct Config {
        out: String = "BENCH_e11_sharding.json",
        specs: usize = "1024",
        shards: Vec<usize> = "1,2,4,8",
        queries: usize = "400",
        seed: u64 = "17",
        min_speedup: f64 = "0.7",
    }
}

fn qps(total_us: f64, requests: usize) -> f64 {
    requests as f64 / (total_us / 1e6)
}

fn main() {
    let config = Config::parse();
    println!(
        "== E11: sharded vs single-engine serving (blocking read: target shards in sequence) =="
    );
    println!(
        "corpus: {} specs, {} distinct queries, groups {:?}, seed {}",
        config.specs, config.queries, E10_GROUPS, config.seed
    );

    let corpus = e11_corpus(config.specs, config.seed);
    let log = e11_query_log(&corpus, config.queries, config.seed ^ 0x5EED);
    assert!(log.len() >= config.queries * 9 / 10, "query log came up short: {}", log.len());

    // Construct every measured configuration *before* any timing: engine
    // construction churns the allocator and page cache, and a process's
    // first heavy pass pays one-time costs (heap growth, cold branch
    // predictors) — interleaving construction with measurement would bias
    // whichever configuration ran first.
    let single = EngineCluster::new(e11_repo(&corpus), standard_registry(), 1);
    let clusters: Vec<EngineCluster> = config
        .shards
        .iter()
        .map(|&s| EngineCluster::new(e11_repo(&corpus), standard_registry(), s))
        .collect();
    {
        let warmup = EngineCluster::new(e11_repo(&corpus), standard_registry(), 1);
        let _ = serve_pass(hits(&warmup), &log);
    }

    // -- single-engine baseline ---------------------------------------------
    let (single_cold_us, single_cold_hits) = serve_pass(hits(&single), &log);
    let (single_warm_us, single_warm_hits) = serve_pass(hits(&single), &log);
    assert_eq!(single_cold_hits, single_warm_hits, "warm pass changed answers");

    println!(
        "\n{:>7} {:>12} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "shards", "cold q/s", "cold µs/q", "warm q/s", "cold ×", "avg targets", "hits"
    );
    println!(
        "{:>7} {:>12.0} {:>12.1} {:>12.0} {:>10} {:>12} {:>10}",
        "single",
        qps(single_cold_us, log.len()),
        single_cold_us / log.len() as f64,
        qps(single_warm_us, log.len()),
        "1.0x",
        config.specs,
        single_cold_hits
    );

    // -- cluster sweep ------------------------------------------------------
    let mut sections = Vec::new();
    let mut speedup_at_4: Option<f64> = None;
    for (&shards, cluster) in config.shards.iter().zip(&clusters) {
        let (cold_us, cold_hits) = serve_pass(hits(cluster), &log);
        // Equivalence: every answer lists exactly the single engine's
        // spec ids (both caches are warm now; answers must not depend on
        // that).
        assert_same_answers(cluster, &single, &log, &format!("cluster({shards})"));
        let (warm_us, warm_hits) = serve_pass(hits(cluster), &log);
        assert_eq!(cold_hits, single_cold_hits, "cluster({shards}) changed total hits");
        assert_eq!(warm_hits, cold_hits);

        let avg_targets: f64 =
            log.iter().map(|q| cluster.probe_target_count(q) as f64).sum::<f64>()
                / log.len() as f64;
        let cold_speedup = single_cold_us / cold_us;
        if shards == 4 {
            speedup_at_4 = Some(cold_speedup);
        }
        let stats = cluster.stats();
        println!(
            "{:>7} {:>12.0} {:>12.1} {:>12.0} {:>9.1}x {:>12.2} {:>10}",
            shards,
            qps(cold_us, log.len()),
            cold_us / log.len() as f64,
            qps(warm_us, log.len()),
            cold_speedup,
            avg_targets,
            cold_hits
        );

        sections.push(
            Json::obj()
                .with("shards", shards)
                .with("cold_qps", fixed(qps(cold_us, log.len()), 1))
                .with("cold_us_per_query", fixed(cold_us / log.len() as f64, 3))
                .with("warm_qps", fixed(qps(warm_us, log.len()), 1))
                .with("warm_us_per_query", fixed(warm_us / log.len() as f64, 3))
                .with("cold_speedup_vs_single", fixed(cold_speedup, 3))
                .with("warm_speedup_vs_single", fixed(single_warm_us / warm_us, 3))
                .with("avg_target_shards_per_query", fixed(avg_targets, 3))
                .with("hits_served_per_pass", cold_hits)
                .with("front_hit_rate", fixed(stats.front.hit_rate(), 4)),
        );
    }

    let single_engine = Json::obj()
        .with("cold_qps", fixed(qps(single_cold_us, log.len()), 1))
        .with("cold_us_per_query", fixed(single_cold_us / log.len() as f64, 3))
        .with("warm_qps", fixed(qps(single_warm_us, log.len()), 1))
        .with("hits_served_per_pass", single_cold_hits);
    let record = Json::obj()
        .with("experiment", "E11")
        .with("title", "Sharded query serving: EngineCluster scatter/gather vs one shard")
        .with("seed", config.seed)
        .with("corpus_specs", config.specs)
        .with("distinct_queries", log.len())
        .with("groups", E10_GROUPS.to_vec())
        .with("single_engine", single_engine)
        .with("cluster_configs", sections)
        .with(
            "aggregate",
            Json::obj()
                .with("cold_speedup_at_4_shards", speedup_at_4.map(|s| fixed(s, 3)))
                .with("acceptance_threshold_speedup", fixed(config.min_speedup, 1))
                .with("note", "post-E12 the single engine resolves access views lazily too, so one-core cold serving sits near parity and the gate is a no-regression floor; index-gated scatter pruning still bounds per-shard work; every read, blocking or through the async front (E14), runs its target shards in sequence"),
        );
    write_record(&config.out, &record);

    if let Some(s4) = speedup_at_4 {
        println!("cold-path speedup at 4 shards: {s4:.2}x (threshold {:.1}x)", config.min_speedup);
        assert!(
            s4 >= config.min_speedup,
            "E11 acceptance: 4-shard cold serving must stay ≥{:.1}x the single engine (got {s4:.2}x)",
            config.min_speedup
        );
    }
}
