//! E12 baseline emitter: lazy vs eager access-view resolution on the cold
//! query path.
//!
//! ```bash
//! cargo run --release -p ppwf-bench --bin e12_lazy_access -- \
//!     [--out BENCH_e12_lazy_access.json] [--specs 1024] [--queries 400] \
//!     [--groups 8] [--seed 17] [--min-speedup 3.0] [--broad-queries 60]
//! ```
//!
//! One corpus (the E11 shape: many small specs, broad selective
//! vocabulary), one distinct-query log, one rotating group stream over a
//! large registry. Two plans serve the identical stream:
//!
//! * `eager` — the pre-E12 cold path: materialize the group's whole-corpus
//!   `access_map` (O(specs) rule resolutions), then filtered search;
//! * `lazy` — an [`AccessCache`] resolver per request: only specs that
//!   appear in the query's candidate postings resolve, memoized per group
//!   across the pass.
//!
//! The **selectivity knob** is the query log. The main pass uses the
//! selective tail log (candidates ≪ corpus — where laziness pays); the
//! `broad` pass uses head-term queries *with a cold resolver per request*,
//! isolating the honest boundary where candidates ≈ corpus and a cold lazy
//! resolver degenerates toward the eager cost. (In production the memo
//! survives across queries, so even broad traffic pays corpus-wide
//! resolution once per repository version, not per request.)
//!
//! Before any number is reported, a verification pass asserts lazy answers
//! are identical to eager ones (specs, prefixes, matched modules), and the
//! resolver counters are checked: rule resolutions stay within the
//! candidate postings union — the filter-then-search privacy invariant.
//! The binary exits non-zero when the selective-pass speedup falls below
//! the acceptance threshold (default ≥3×), and when a warm pass of a
//! one-shard cluster — what serves one index — touches the resolver at all
//! (the warm path must stay a front-cache probe).

use ppwf_bench::harness::{fixed, write_record, Json};
use ppwf_bench::{
    e11_corpus, e11_query_log, e11_repo, e12_broad_corpus, e12_broad_query_log, e12_registry,
};
use ppwf_query::cluster::EngineCluster;
use ppwf_query::keyword::{search_filtered_with_cache, KeywordQuery};
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::principals::AccessCache;
use ppwf_repo::view_cache::ViewCache;
use std::collections::HashSet;
use std::time::Instant;

ppwf_bench::flags! {
    struct Config {
        out: String = "BENCH_e12_lazy_access.json",
        specs: usize = "1024",
        queries: usize = "400",
        groups: usize = "8",
        seed: u64 = "17",
        min_speedup: f64 = "3.0",
        broad_queries: usize = "60",
    }
}

fn main() {
    let config = Config::parse();
    println!("== E12: lazy vs eager access resolution (cold filtered search) ==");
    println!(
        "corpus: {} specs, {} selective + {} broad queries, {} extra groups, seed {}",
        config.specs, config.queries, config.broad_queries, config.groups, config.seed
    );

    let corpus = e11_corpus(config.specs, config.seed);
    let repo = e11_repo(&corpus);
    let index = KeywordIndex::build(&repo);
    let (registry, group_names) = e12_registry(config.groups, config.specs);
    let selective = e11_query_log(&corpus, config.queries, config.seed ^ 0x5EED);
    // The boundary pass runs over its own small-vocabulary corpus, where
    // head terms annotate most specs — candidates ≈ corpus by design.
    let broad_corpus = e12_broad_corpus(config.specs, config.seed ^ 0xB0);
    let broad_repo = e11_repo(&broad_corpus);
    let broad_index = KeywordIndex::build(&broad_repo);
    let broad = e12_broad_query_log(&broad_corpus, config.broad_queries, config.seed ^ 0xB0AD);
    assert!(selective.len() >= config.queries * 9 / 10, "selective log came up short");
    let group_of = |i: usize| group_names[i % group_names.len()].as_str();

    // Selectivity diagnostic: average candidate specs per selective query
    // (the postings union the lazy plan is allowed to resolve).
    let union_of = |q: &str| -> HashSet<u32> {
        KeywordQuery::parse(q)
            .terms
            .iter()
            .flat_map(|t| index.lookup_query_term(t))
            .map(|p| p.spec.0)
            .collect()
    };
    let avg_candidates: f64 =
        selective.iter().map(|q| union_of(q).len() as f64).sum::<f64>() / selective.len() as f64;

    // Warm the allocator/page cache outside timing: one untimed pass per
    // plan over throwaway caches.
    {
        let views = ViewCache::new(16);
        let cache = AccessCache::new();
        for (i, q) in selective.iter().enumerate() {
            let g = group_of(i);
            let access = registry.access_map(&repo, g).unwrap();
            let query = KeywordQuery::parse(q);
            search_filtered_with_cache(&repo, &index, &query, &access, &views);
            let resolver = cache.resolver(&registry, &repo, g).unwrap();
            search_filtered_with_cache(&repo, &index, &query, &resolver, &views);
        }
    }

    // -- selective pass: eager ----------------------------------------------
    let views_eager = ViewCache::new(16);
    let t = Instant::now();
    let mut eager_hits = 0usize;
    for (i, q) in selective.iter().enumerate() {
        let access = registry.access_map(&repo, group_of(i)).unwrap();
        let query = KeywordQuery::parse(q);
        eager_hits +=
            search_filtered_with_cache(&repo, &index, &query, &access, &views_eager).len();
    }
    let eager_us = t.elapsed().as_secs_f64() * 1e6;

    // -- selective pass: lazy (one surviving AccessCache, as in production) --
    let views_lazy = ViewCache::new(16);
    let access_cache = AccessCache::new();
    let t = Instant::now();
    let mut lazy_hits = 0usize;
    for (i, q) in selective.iter().enumerate() {
        let resolver = access_cache.resolver(&registry, &repo, group_of(i)).unwrap();
        let query = KeywordQuery::parse(q);
        lazy_hits +=
            search_filtered_with_cache(&repo, &index, &query, &resolver, &views_lazy).len();
    }
    let lazy_us = t.elapsed().as_secs_f64() * 1e6;
    assert_eq!(eager_hits, lazy_hits, "plans disagreed on total hits");

    // Verification: answers identical, and lazy resolution stayed inside
    // each query's candidate postings union (fresh cache per query so the
    // per-handle counters are exact).
    {
        let verify_cache = AccessCache::new();
        for (i, q) in selective.iter().enumerate() {
            let g = group_of(i);
            let access = registry.access_map(&repo, g).unwrap();
            let query = KeywordQuery::parse(q);
            let eager = search_filtered_with_cache(&repo, &index, &query, &access, &views_eager);
            let resolver = verify_cache.resolver(&registry, &repo, g).unwrap();
            let lazy = search_filtered_with_cache(&repo, &index, &query, &resolver, &views_lazy);
            assert_eq!(eager.len(), lazy.len(), "answer diverged on {q:?}");
            for (a, b) in eager.iter().zip(&lazy) {
                assert_eq!(a.spec, b.spec, "{q:?}");
                assert_eq!(a.prefix, b.prefix, "{q:?}");
                assert_eq!(a.matched, b.matched, "{q:?}");
            }
            let union = union_of(q);
            let resolved = resolver.resolved_specs();
            assert!(
                resolved.iter().all(|s| union.contains(&s.0)),
                "query {q:?} resolved specs outside its postings union"
            );
        }
    }

    let rules_lazy = access_cache.stats().misses();
    let rules_eager = (selective.len() * config.specs) as u64;
    let speedup = eager_us / lazy_us;

    // -- broad boundary pass: cold resolver per request ----------------------
    let broad_union_of = |q: &str| -> HashSet<u32> {
        KeywordQuery::parse(q)
            .terms
            .iter()
            .flat_map(|t| broad_index.lookup_query_term(t))
            .map(|p| p.spec.0)
            .collect()
    };
    let broad_avg_candidates: f64 = if broad.is_empty() {
        0.0
    } else {
        broad.iter().map(|q| broad_union_of(q).len() as f64).sum::<f64>() / broad.len() as f64
    };
    let (broad_eager_us, broad_lazy_us, broad_lazy_rules) = if broad.is_empty() {
        (0.0, 0.0, 0u64)
    } else {
        let views_warm = ViewCache::new(16);
        for (i, q) in broad.iter().enumerate() {
            let access = registry.access_map(&broad_repo, group_of(i)).unwrap();
            let query = KeywordQuery::parse(q);
            search_filtered_with_cache(&broad_repo, &broad_index, &query, &access, &views_warm);
        }
        let t = Instant::now();
        for (i, q) in broad.iter().enumerate() {
            let access = registry.access_map(&broad_repo, group_of(i)).unwrap();
            let query = KeywordQuery::parse(q);
            search_filtered_with_cache(&broad_repo, &broad_index, &query, &access, &views_warm);
        }
        let be = t.elapsed().as_secs_f64() * 1e6;
        let mut rules = 0u64;
        let t = Instant::now();
        for (i, q) in broad.iter().enumerate() {
            // A fresh cache per request: no memo warmth, the worst case.
            let cold = AccessCache::new();
            let resolver = cold.resolver(&registry, &broad_repo, group_of(i)).unwrap();
            let query = KeywordQuery::parse(q);
            search_filtered_with_cache(&broad_repo, &broad_index, &query, &resolver, &views_warm);
            rules += cold.stats().misses();
        }
        let bl = t.elapsed().as_secs_f64() * 1e6;
        (be, bl, rules)
    };

    // -- warm pass: the resolver must be invisible when the front cache hits --
    let cluster = EngineCluster::new(e11_repo(&corpus), registry.clone(), 1);
    for (i, q) in selective.iter().enumerate() {
        cluster.search_as(group_of(i), q).unwrap();
    }
    let cold_access = cluster.stats().aggregate.access;
    let t = Instant::now();
    for (i, q) in selective.iter().enumerate() {
        cluster.search_as(group_of(i), q).unwrap();
    }
    let warm_us = t.elapsed().as_secs_f64() * 1e6;
    let warm_access = cluster.stats().aggregate.access;
    assert_eq!(
        (cold_access.hits, cold_access.misses),
        (warm_access.hits, warm_access.misses),
        "warm pass touched the access resolver — the cache probe must come first"
    );

    let per_q = |us: f64, n: usize| us / n.max(1) as f64;
    println!("\n{:>22} {:>12} {:>14} {:>12}", "pass", "µs/query", "rule res/query", "speedup");
    println!(
        "{:>22} {:>12.1} {:>14.1} {:>12}",
        "selective eager",
        per_q(eager_us, selective.len()),
        config.specs as f64,
        "1.0x"
    );
    println!(
        "{:>22} {:>12.1} {:>14.2} {:>11.1}x",
        "selective lazy",
        per_q(lazy_us, selective.len()),
        rules_lazy as f64 / selective.len() as f64,
        speedup
    );
    if !broad.is_empty() {
        println!(
            "{:>22} {:>12.1} {:>14.1} {:>12}",
            "broad eager",
            per_q(broad_eager_us, broad.len()),
            config.specs as f64,
            "1.0x"
        );
        println!(
            "{:>22} {:>12.1} {:>14.1} {:>11.1}x",
            "broad lazy (cold memo)",
            per_q(broad_lazy_us, broad.len()),
            broad_lazy_rules as f64 / broad.len() as f64,
            broad_eager_us / broad_lazy_us
        );
    }
    println!(
        "{:>22} {:>12.3} {:>14} {:>12}",
        "warm front",
        per_q(warm_us, selective.len()),
        "0.00",
        "-"
    );
    println!(
        "\navg candidate specs/selective query: {avg_candidates:.2} of {} (selectivity {:.4})",
        config.specs,
        avg_candidates / config.specs as f64
    );
    if !broad.is_empty() {
        println!(
            "avg candidate specs/broad query:     {broad_avg_candidates:.2} of {} (selectivity {:.4})",
            config.specs,
            broad_avg_candidates / config.specs as f64
        );
    }

    let selective_json = Json::obj()
        .with("eager_us_per_query", fixed(per_q(eager_us, selective.len()), 3))
        .with("lazy_us_per_query", fixed(per_q(lazy_us, selective.len()), 3))
        .with("speedup_lazy_vs_eager", fixed(speedup, 3))
        .with("rule_resolutions_eager_total", rules_eager)
        .with("rule_resolutions_lazy_total", rules_lazy)
        .with("lazy_memo_hits_total", access_cache.stats().hits());
    let broad_speedup = if broad_lazy_us > 0.0 { broad_eager_us / broad_lazy_us } else { 0.0 };
    let broad_rules = broad_lazy_rules as f64 / broad.len().max(1) as f64;
    let broad_json = Json::obj()
        .with("eager_us_per_query", fixed(per_q(broad_eager_us, broad.len()), 3))
        .with("lazy_us_per_query", fixed(per_q(broad_lazy_us, broad.len()), 3))
        .with("speedup_lazy_vs_eager", fixed(broad_speedup, 3))
        .with("rule_resolutions_lazy_per_query", fixed(broad_rules, 1))
        .with("avg_candidate_specs_per_query", fixed(broad_avg_candidates, 1))
        .with("note", "selectivity knob at its far end: small-vocabulary corpus, head-term queries, fresh resolver per request — candidates approach the corpus and cold lazy approaches eager; the surviving AccessCache amortizes this in production");
    let record = Json::obj()
        .with("experiment", "E12")
        .with("title", "Lazy per-candidate access resolution vs eager whole-corpus access maps")
        .with("seed", config.seed)
        .with("corpus_specs", config.specs)
        .with("registry_groups", group_names.len())
        .with("selective_queries", selective.len())
        .with("broad_queries", broad.len())
        .with("avg_candidate_specs_per_selective_query", fixed(avg_candidates, 3))
        .with("selective", selective_json)
        .with("broad_cold_memo", broad_json)
        .with("warm_engine_us_per_query", fixed(per_q(warm_us, selective.len()), 4))
        .with(
            "acceptance",
            Json::obj()
                .with("threshold_selective_speedup", fixed(config.min_speedup, 1))
                .with("warm_path_resolver_untouched", true)
                .with("answers_bit_identical", true)
                .with("resolutions_within_postings_union", true),
        );
    write_record(&config.out, &record);

    println!("selective cold-path speedup: {speedup:.2}x (threshold {:.1}x)", config.min_speedup);
    assert!(
        speedup >= config.min_speedup,
        "E12 acceptance: lazy resolution must be ≥{:.1}x eager on selective queries (got {speedup:.2}x)",
        config.min_speedup
    );
}
