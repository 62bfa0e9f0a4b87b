//! E10 baseline emitter: runs the cached-vs-uncached query-serving
//! experiment and writes a machine-readable JSON record.
//!
//! ```bash
//! cargo run --release -p ppwf-bench --bin e10_query_cache -- \
//!     [--out BENCH_e10_query_cache.json] [--specs 8,16,32] [--reps 50]
//! ```
//!
//! Per repository size, three serving plans run the same
//! `groups × queries × reps` request stream:
//!
//! * `uncached` — access-map resolution + filtered search + per-hit view
//!   construction on every request (no cache anywhere);
//! * `view_cache` — search work repeated per request, answer views fetched
//!   from the shared `(spec, prefix)` memo;
//! * `warm_front` — a one-shard cluster, what serves one index: the
//!   group-keyed front cache in front, the shard's view memo behind it.
//!
//! The JSON carries per-plan µs/query, speedups against `uncached`, the
//! private-search (filter plan) pair, and the cluster's cache counters, so
//! regressions in any layer of the fast path show up as a diff against the
//! committed baseline.

use ppwf_bench::harness::{fixed, write_record, Json};
use ppwf_bench::{one_shard_cluster, populated_repo, standard_registry, E10_GROUPS, E10_QUERIES};
use ppwf_query::engine::Plan;
use ppwf_query::keyword::{search_filtered, search_filtered_with_cache, KeywordQuery};
use ppwf_query::privacy_exec::filter_then_search;
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::view_cache::ViewCache;
use std::time::Instant;

const SEED: u64 = 91;

ppwf_bench::flags! {
    struct Config {
        out: String = "BENCH_e10_query_cache.json",
        specs: Vec<usize> = "8,16,32",
        reps: usize = "50",
    }
}

/// One measured serving plan: total requests and µs per request.
struct PlanResult {
    us_per_query: f64,
    hits_served: usize,
}

fn per_query_us(total_us: f64, requests: usize) -> f64 {
    total_us / requests as f64
}

fn main() {
    let config = Config::parse();
    let mut sections = Vec::new();
    let mut min_keyword_speedup = f64::INFINITY;
    let mut min_private_speedup = f64::INFINITY;

    println!("== E10: query fast path — cached vs uncached serving ==");
    println!(
        "{:>6} {:>6} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "specs", "reqs", "uncached µs/q", "viewcache µs/q", "warm µs/q", "view ×", "warm ×"
    );

    for &specs in &config.specs {
        let repo = populated_repo(specs, 0, SEED);
        let index = KeywordIndex::build(&repo);
        let registry = standard_registry();
        let queries: Vec<KeywordQuery> =
            E10_QUERIES.iter().map(|q| KeywordQuery::parse(q)).collect();
        let requests = config.reps * E10_GROUPS.len() * queries.len();

        // Plan 1: no caching anywhere.
        let t = Instant::now();
        let mut uncached_hits = 0usize;
        for _ in 0..config.reps {
            for g in E10_GROUPS {
                let access = registry.access_map(&repo, g).unwrap();
                for q in &queries {
                    uncached_hits += search_filtered(&repo, &index, q, &access).len();
                }
            }
        }
        let uncached = PlanResult {
            us_per_query: per_query_us(t.elapsed().as_secs_f64() * 1e6, requests),
            hits_served: uncached_hits,
        };

        // Plan 2: only the view memo.
        let views = ViewCache::new(16);
        let t = Instant::now();
        let mut view_hits = 0usize;
        for _ in 0..config.reps {
            for g in E10_GROUPS {
                let access = registry.access_map(&repo, g).unwrap();
                for q in &queries {
                    view_hits +=
                        search_filtered_with_cache(&repo, &index, q, &access, &views).len();
                }
            }
        }
        let view_cache = PlanResult {
            us_per_query: per_query_us(t.elapsed().as_secs_f64() * 1e6, requests),
            hits_served: view_hits,
        };

        // Plan 3: a one-shard cluster, front cache warm.
        let cluster = one_shard_cluster(specs, 0, SEED);
        for g in E10_GROUPS {
            for q in E10_QUERIES {
                cluster.search_as(g, q).unwrap();
                cluster.private_search_as(g, q, Plan::FilterThenSearch).unwrap();
            }
        }
        let t = Instant::now();
        let mut warm_hits = 0usize;
        for _ in 0..config.reps {
            for g in E10_GROUPS {
                for q in E10_QUERIES {
                    warm_hits += cluster.search_as(g, q).unwrap().len();
                }
            }
        }
        let warm_front = PlanResult {
            us_per_query: per_query_us(t.elapsed().as_secs_f64() * 1e6, requests),
            hits_served: warm_hits,
        };

        assert_eq!(uncached.hits_served, view_cache.hits_served, "view cache changed answers");
        assert_eq!(uncached.hits_served, warm_front.hits_served, "result cache changed answers");

        // Private-search pair (filter plan), uncached vs warm front.
        let t = Instant::now();
        for _ in 0..config.reps {
            for g in E10_GROUPS {
                let access = registry.access_map(&repo, g).unwrap();
                for q in &queries {
                    std::hint::black_box(filter_then_search(&repo, &index, q, &access));
                }
            }
        }
        let private_uncached_us = per_query_us(t.elapsed().as_secs_f64() * 1e6, requests);
        let t = Instant::now();
        for _ in 0..config.reps {
            for g in E10_GROUPS {
                for q in E10_QUERIES {
                    std::hint::black_box(
                        cluster.private_search_as(g, q, Plan::FilterThenSearch).unwrap(),
                    );
                }
            }
        }
        let private_warm_us = per_query_us(t.elapsed().as_secs_f64() * 1e6, requests);

        let view_speedup = uncached.us_per_query / view_cache.us_per_query;
        let warm_speedup = uncached.us_per_query / warm_front.us_per_query;
        let private_speedup = private_uncached_us / private_warm_us;
        min_keyword_speedup = min_keyword_speedup.min(warm_speedup);
        min_private_speedup = min_private_speedup.min(private_speedup);

        let stats = cluster.stats();
        println!(
            "{:>6} {:>6} {:>14.2} {:>14.2} {:>14.2} {:>9.1}x {:>9.1}x",
            specs,
            requests,
            uncached.us_per_query,
            view_cache.us_per_query,
            warm_front.us_per_query,
            view_speedup,
            warm_speedup
        );

        sections.push(
            Json::obj()
                .with("specs", specs)
                .with("groups", E10_GROUPS.len())
                .with("queries", queries.len())
                .with("repetitions", config.reps)
                .with("requests", requests)
                .with(
                    "keyword",
                    Json::obj()
                        .with("uncached_us_per_query", fixed(uncached.us_per_query, 3))
                        .with("view_cache_us_per_query", fixed(view_cache.us_per_query, 3))
                        .with("warm_front_us_per_query", fixed(warm_front.us_per_query, 3))
                        .with("view_cache_speedup", fixed(view_speedup, 2))
                        .with("warm_front_speedup", fixed(warm_speedup, 2))
                        .with("hits_served_per_pass", uncached.hits_served / config.reps),
                )
                .with(
                    "private_filter_plan",
                    Json::obj()
                        .with("uncached_us_per_query", fixed(private_uncached_us, 3))
                        .with("warm_front_us_per_query", fixed(private_warm_us, 3))
                        .with("warm_front_speedup", fixed(private_speedup, 2)),
                )
                .with(
                    "cache_stats",
                    Json::obj()
                        .with("view_hits", stats.aggregate.views.hits)
                        .with("view_misses", stats.aggregate.views.misses)
                        .with("front_hits", stats.front.hits)
                        .with("front_misses", stats.front.misses)
                        .with("front_hit_rate", fixed(stats.front.hit_rate(), 4)),
                ),
        );
    }

    let record = Json::obj()
        .with("experiment", "E10")
        .with("title", "Query fast path: a one-shard cluster's per-user-group front cache + (spec, prefix) view cache vs uncached serving")
        .with("seed", SEED)
        .with("query_mix", E10_QUERIES.to_vec())
        .with("groups", E10_GROUPS.to_vec())
        .with("configs", sections)
        .with(
            "aggregate",
            Json::obj()
                .with("min_warm_keyword_speedup", fixed(min_keyword_speedup, 2))
                .with("min_warm_private_speedup", fixed(min_private_speedup, 2))
                .with("acceptance_threshold_speedup", fixed(5.0, 1)),
        );
    write_record(&config.out, &record);
    println!("\nminimum warm-front speedup: keyword {min_keyword_speedup:.1}x, private {min_private_speedup:.1}x");
    assert!(
        min_keyword_speedup >= 5.0 && min_private_speedup >= 5.0,
        "E10 acceptance: warm cache must be ≥5x the uncached path"
    );
}
