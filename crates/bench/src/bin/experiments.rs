//! Regenerates every experiment table (E1–E9) of EXPERIMENTS.md in one run:
//!
//! ```bash
//! cargo run --release -p ppwf-bench --bin experiments
//! ```
//!
//! Criterion provides rigorous timing for the hot kernels (`cargo bench`);
//! this binary prints the *shape* results — quality metrics, counts,
//! trade-off frontiers and coarse timings — that correspond to what the
//! paper argues qualitatively. Each section header names the experiment id
//! from DESIGN.md §3.

use ppwf_bench::{
    deep_spec, layered_dag, one_shard_cluster, parallel_chains, populated_repo, reachable_pair,
    sized_spec, standard_registry, E10_GROUPS, E10_QUERIES, SIZES,
};
use ppwf_core::dp::{evaluate_mechanism, LaplaceMechanism};
use ppwf_core::module_privacy::{exhaustive_min_hiding, greedy_min_hiding};
use ppwf_core::structural::{compare_mechanisms, HideRequest};
use ppwf_model::exec::{Executor, HashOracle};
use ppwf_model::expand::SpecView;
use ppwf_model::hierarchy::{ExpansionHierarchy, Prefix};
use ppwf_query::keyword::{search, search_scan, KeywordQuery};
use ppwf_query::privacy_exec::{filter_then_search, search_then_zoom_out, AccessMap};
use ppwf_query::ranking::{evaluate_ranking, tf_profile, RankingMode};
use ppwf_query::structural::{match_view, NodeMatcher, Pattern};
use ppwf_repo::cache::GroupCache;
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_views::exec_view::ExecView;
use ppwf_views::repair::repair;
use ppwf_views::soundness::check_soundness;
use ppwf_workloads::genmodule::{relation, weights, Family};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn main() {
    e1_views();
    e2_module_privacy();
    e3_structural();
    e4_soundness();
    e5_search();
    e6_zoomout();
    e7_ranking();
    e8_dp();
    e9_structural_query();
    e10_query_cache();
    e11_sharding();
}

/// E1 — view construction & execution collapse vs size and depth.
fn e1_views() {
    println!("== E1: view machinery cost (Sec. 2 — views as access control) ==");
    println!(
        "{:>8} {:>8} {:>8} {:>14} {:>14} {:>14}",
        "modules", "edges", "depth", "spec-view µs", "exec µs", "collapse µs"
    );
    for &n in &SIZES {
        let spec = sized_spec(11, n);
        let h = ExpansionHierarchy::of(&spec);
        let t0 = Instant::now();
        let _view = SpecView::build(&spec, &h, &Prefix::full(&h)).unwrap();
        let t_view = us(t0);
        let t1 = Instant::now();
        let exec = Executor::new(&spec).run(&mut HashOracle).unwrap();
        let t_exec = us(t1);
        let t2 = Instant::now();
        let _ev = ExecView::build(&spec, &h, &exec, &Prefix::root_only(&h)).unwrap();
        let t_collapse = us(t2);
        println!(
            "{:>8} {:>8} {:>8} {:>14.1} {:>14.1} {:>14.1}",
            spec.module_count(),
            spec.edge_count(),
            h.max_depth(),
            t_view,
            t_exec,
            t_collapse
        );
    }
    println!("(depth sweep)");
    for depth in 1..=4u32 {
        let spec = deep_spec(13, depth);
        let h = ExpansionHierarchy::of(&spec);
        let t0 = Instant::now();
        let _ = SpecView::build(&spec, &h, &Prefix::full(&h)).unwrap();
        println!(
            "  depth {depth}: {} workflows, full view in {:.1} µs",
            spec.workflow_count(),
            us(t0)
        );
    }
    println!();
}

/// E2 — min-cost Γ-private hiding: greedy vs exact.
fn e2_module_privacy() {
    println!("== E2: module privacy optimization (Sec. 3, ref [4]) ==");
    println!(
        "{:>11} {:>5} {:>4} {:>11} {:>11} {:>7} {:>11} {:>11}",
        "family", "attrs", "Γ", "greedy", "optimal", "ratio", "greedy µs", "exact µs"
    );
    for family in [Family::Random, Family::Projection, Family::Xor] {
        for (ina, outa) in [(2usize, 2usize), (3, 3), (4, 4)] {
            let rel = relation(21, family, ina, outa, 2);
            let w = weights(22, rel.attr_count(), 9);
            for gamma in [2u64, 4] {
                let t0 = Instant::now();
                let g = greedy_min_hiding(&rel, &w, gamma);
                let tg = us(t0);
                let t1 = Instant::now();
                let e = exhaustive_min_hiding(&rel, &w, gamma);
                let te = us(t1);
                if let (Some(g), Some(e)) = (g, e) {
                    println!(
                        "{:>11} {:>5} {:>4} {:>11} {:>11} {:>7.2} {:>11.1} {:>11.1}",
                        format!("{family:?}"),
                        rel.attr_count(),
                        gamma,
                        g.cost,
                        e.cost,
                        if e.cost == 0 { 1.0 } else { g.cost as f64 / e.cost as f64 },
                        tg,
                        te
                    );
                }
            }
        }
    }
    println!();
}

/// E3 — edge deletion vs clustering on the same hide requests.
fn e3_structural() {
    println!("== E3: structural privacy mechanisms (Sec. 3) ==");
    println!(
        "{:>6} {:>7} {:>11} {:>11} {:>12} {:>12} {:>10}",
        "nodes", "pairs", "del-excess", "clu-false", "del-U(1,1)", "clu-U(1,1)", "rep-sound"
    );
    for &n in &[20usize, 40, 80] {
        let (g, w) = layered_dag(31, n, 12);
        let Some((u, v)) = reachable_pair(&g) else { continue };
        let req = HideRequest::pair(u, v);
        let cmp = compare_mechanisms(&g, &w, &req);
        println!(
            "{:>6} {:>7} {:>11} {:>11} {:>12.0} {:>12.0} {:>10}",
            n,
            cmp.deletion.pairs_before,
            cmp.deletion.excess_hidden_pairs(1),
            cmp.clustering.report.false_pairs,
            cmp.deletion.utility(1.0, 1.0),
            cmp.clustering.utility(1.0, 1.0),
            cmp.repaired.report.sound
        );
        assert!(cmp.deletion.hidden_ok && cmp.clustering.hidden_ok && cmp.repaired.hidden_ok);
    }
    println!();
}

/// E4 — soundness checking and repair scaling.
fn e4_soundness() {
    println!("== E4: unsound-view detection & repair (Sec. 3, ref [9]) ==");
    println!(
        "{:>6} {:>8} {:>10} {:>8} {:>10} {:>10}",
        "nodes", "groups", "check µs", "sound", "splits", "repair µs"
    );
    for &n in &[20usize, 40, 80, 160] {
        // Stage clustering over parallel pipelines: the canonical unsound
        // view (the paper's {M11, M13} example, generalized).
        let (g, c) = parallel_chains(41, 4, n / 4, 6);
        let t0 = Instant::now();
        let report = check_soundness(&g, &c);
        let t_check = us(t0);
        let t1 = Instant::now();
        let out = repair(&g, &c);
        let t_rep = us(t1);
        println!(
            "{:>6} {:>8} {:>10.1} {:>8} {:>10} {:>10.1}",
            n,
            c.group_count(),
            t_check,
            report.sound,
            out.splits,
            t_rep
        );
    }
    println!();
}

/// E5 — keyword search: scan vs index vs cache.
fn e5_search() {
    println!("== E5: search plans (Sec. 4 — indexes across privilege levels) ==");
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "specs", "modules", "scan µs", "index µs", "cache µs", "hits"
    );
    for &specs in &[8usize, 16, 32, 64] {
        let repo = populated_repo(specs, 0, 51);
        let index = KeywordIndex::build(&repo);
        let q = KeywordQuery::parse("kw0, kw1");
        let t0 = Instant::now();
        let scan_hits = search_scan(&repo, &q);
        let t_scan = us(t0);
        let t1 = Instant::now();
        let idx_hits = search(&repo, &index, &q);
        let t_index = us(t1);
        assert_eq!(scan_hits.len(), idx_hits.len());
        let cache: GroupCache<(), usize> = GroupCache::new(8);
        cache.get_or_compute("g", "q", (), repo.version(), || idx_hits.len());
        let t2 = Instant::now();
        let cached =
            cache.get_or_compute("g", "q", (), repo.version(), || unreachable!("must hit"));
        let t_cache = us(t2);
        println!(
            "{:>6} {:>8} {:>10.1} {:>10.1} {:>10.2} {:>9}",
            specs,
            index.doc_count(),
            t_scan,
            t_index,
            t_cache,
            cached
        );
    }
    println!();
}

/// E6 — filter-then-search vs search-then-zoom-out.
fn e6_zoomout() {
    println!("== E6: privacy-evaluation strategies (Sec. 4 — zoom-out cost) ==");
    println!(
        "{:>10} {:>10} {:>10} {:>11} {:>11} {:>10} {:>10}",
        "access", "filter µs", "zoom µs", "flt-views", "zoom-views", "zoom-steps", "discarded"
    );
    let repo = populated_repo(32, 0, 61);
    let index = KeywordIndex::build(&repo);
    let q = KeywordQuery::parse("kw0, kw1");
    for (name, coarse) in [("full", false), ("root-only", true)] {
        let access: AccessMap = repo
            .entries()
            .map(|(sid, e)| {
                let p = if coarse {
                    Prefix::root_only(&e.hierarchy)
                } else {
                    Prefix::full(&e.hierarchy)
                };
                (sid, p)
            })
            .collect();
        let t0 = Instant::now();
        let a = filter_then_search(&repo, &index, &q, &access);
        let t_f = us(t0);
        let t1 = Instant::now();
        let b = search_then_zoom_out(&repo, &index, &q, &access);
        let t_z = us(t1);
        println!(
            "{:>10} {:>10.1} {:>10.1} {:>11} {:>11} {:>10} {:>10}",
            name, t_f, t_z, a.views_built, b.views_built, b.zoom_steps, b.discarded
        );
    }
    println!();
}

/// E7 — ranking leakage vs utility.
fn e7_ranking() {
    println!("== E7: privacy-aware ranking (Sec. 4 — TF/IDF leakage) ==");
    let repo = populated_repo(40, 0, 71);
    let index = KeywordIndex::build(&repo);
    let terms = vec!["kw0".to_string(), "kw1".to_string()];
    let profiles: Vec<_> = repo
        .entries()
        .map(|(sid, e)| tf_profile(&repo, sid, &Prefix::root_only(&e.hierarchy), &terms))
        .collect();
    println!("{:>18} {:>10} {:>10}", "mode", "utility τ", "leakage");
    for (name, mode) in [
        ("exact-full", RankingMode::ExactFull),
        ("bucketized(2)", RankingMode::BucketizedFull { base: 2.0 }),
        ("bucketized(4)", RankingMode::BucketizedFull { base: 4.0 }),
        ("bucketized(8)", RankingMode::BucketizedFull { base: 8.0 }),
        ("noisy(ε=2)", RankingMode::NoisyFull { epsilon: 2.0, seed: 3 }),
        ("noisy(ε=0.2)", RankingMode::NoisyFull { epsilon: 0.2, seed: 3 }),
        ("visible-only", RankingMode::VisibleOnly),
    ] {
        let e = evaluate_ranking(&index, &terms, &profiles, mode);
        println!("{:>18} {:>10.3} {:>10.3}", name, e.utility, e.leakage);
    }
    println!();
}

/// E8 — differential privacy on provenance counts.
fn e8_dp() {
    println!("== E8: DP noise vs provenance utility (Sec. 5) ==");
    println!("{:>8} {:>12} {:>14} {:>14}", "ε", "rel. error", "failure rate", "theory");
    let counts: Vec<u64> = (1..=50).collect();
    let mut rng = StdRng::seed_from_u64(81);
    for eps in [0.05f64, 0.1, 0.5, 1.0, 2.0, 8.0] {
        let mech = LaplaceMechanism::counting(eps);
        let acc = evaluate_mechanism(&mech, &counts, 400, &mut rng);
        println!(
            "{:>8} {:>12.3} {:>14.3} {:>14.3}",
            eps,
            acc.mean_relative_error,
            acc.failure_rate,
            ppwf_core::dp::theoretical_failure_rate(eps)
        );
    }
    println!();
}

/// E9 — structural pattern matching across view granularities.
fn e9_structural_query() {
    println!("== E9: structural queries (Sec. 4/5 — τ vs dataflow edges) ==");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>10}",
        "modules", "pattern", "full µs", "coarse µs", "matches"
    );
    for &n in &SIZES {
        let spec = sized_spec(91, n);
        let h = ExpansionHierarchy::of(&spec);
        let full = SpecView::build(&spec, &h, &Prefix::full(&h)).unwrap();
        let coarse = SpecView::build(&spec, &h, &Prefix::root_only(&h)).unwrap();
        for (pname, pattern) in [
            ("before", Pattern::before(NodeMatcher::Any, NodeMatcher::Any)),
            (
                "3-chain",
                Pattern {
                    nodes: vec![NodeMatcher::Any, NodeMatcher::Any, NodeMatcher::Any],
                    edges: vec![
                        ppwf_query::structural::PatternEdge { from: 0, to: 1, transitive: false },
                        ppwf_query::structural::PatternEdge { from: 1, to: 2, transitive: true },
                    ],
                },
            ),
        ] {
            let t0 = Instant::now();
            let m_full = match_view(&spec, &full, &pattern);
            let t_full = us(t0);
            let t1 = Instant::now();
            let m_coarse = match_view(&spec, &coarse, &pattern);
            let t_coarse = us(t1);
            println!(
                "{:>8} {:>10} {:>12.1} {:>12.1} {:>10}",
                spec.module_count(),
                pname,
                t_full,
                t_coarse,
                format!("{}/{}", m_full.len(), m_coarse.len())
            );
        }
    }
    println!();
}

/// E10 — the query fast path: per-group result cache + view cache vs the
/// uncached path (Sec. 4's user-group caching direction made concrete).
/// `cargo run --release -p ppwf-bench --bin e10_query_cache` emits the
/// machine-readable baseline; this table is the human-readable shape.
fn e10_query_cache() {
    use ppwf_query::keyword::search_filtered;

    println!("== E10: query cache fast path (Sec. 4 — user-group caching) ==");
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>10} {:>10}",
        "specs", "uncached µs/q", "warm µs/q", "speedup", "front hit%", "view hit%"
    );
    for &specs in &[8usize, 16, 32] {
        let repo = populated_repo(specs, 0, 91);
        let index = KeywordIndex::build(&repo);
        let registry = standard_registry();
        let queries: Vec<KeywordQuery> =
            E10_QUERIES.iter().map(|q| KeywordQuery::parse(q)).collect();
        let reps = 20usize;
        let requests = reps * E10_GROUPS.len() * queries.len();

        let t0 = Instant::now();
        for _ in 0..reps {
            for g in E10_GROUPS {
                let access = registry.access_map(&repo, g).unwrap();
                for q in &queries {
                    std::hint::black_box(search_filtered(&repo, &index, q, &access));
                }
            }
        }
        let uncached = us(t0) / requests as f64;

        let cluster = one_shard_cluster(specs, 0, 91);
        for g in E10_GROUPS {
            for q in E10_QUERIES {
                cluster.search_as(g, q).unwrap();
            }
        }
        let t1 = Instant::now();
        for _ in 0..reps {
            for g in E10_GROUPS {
                for q in E10_QUERIES {
                    std::hint::black_box(cluster.search_as(g, q).unwrap());
                }
            }
        }
        let warm = us(t1) / requests as f64;
        let stats = cluster.stats();
        println!(
            "{:>8} {:>14.2} {:>14.2} {:>9.0}x {:>9.1}% {:>9.1}%",
            specs,
            uncached,
            warm,
            uncached / warm,
            stats.front.hit_rate() * 100.0,
            stats.aggregate.views.hit_rate() * 100.0
        );
    }
    println!();
}

/// E11 — sharded serving: EngineCluster scatter/gather vs one shard over
/// the same corpus and query log. `--bin e11_sharding` emits the
/// machine-readable baseline with the ≥2× cold-path acceptance gate; this
/// table is the human-readable shape at a smaller corpus.
fn e11_sharding() {
    use ppwf_bench::{e11_corpus, e11_query_log, e11_repo};
    use ppwf_query::cluster::EngineCluster;

    println!("== E11: sharded serving (scatter/gather over the worker pool) ==");
    let specs = 256usize;
    let corpus = e11_corpus(specs, 17);
    let log = e11_query_log(&corpus, 200, 17 ^ 0x5EED);
    let serve = |f: &mut dyn FnMut(&str, &str) -> usize| {
        let t = Instant::now();
        let mut hits = 0usize;
        for (i, q) in log.iter().enumerate() {
            hits += f(E10_GROUPS[i % E10_GROUPS.len()], q);
        }
        (us(t) / log.len() as f64, hits)
    };

    println!(
        "{:>7} {:>12} {:>12} {:>9} {:>12} {:>7}",
        "shards", "cold µs/q", "warm µs/q", "cold ×", "avg targets", "hits"
    );
    let single = EngineCluster::new(e11_repo(&corpus), standard_registry(), 1);
    let (single_cold, hits) =
        serve(&mut |g, q| single.search_as(g, q).map(|h| h.len()).unwrap_or(0));
    let (single_warm, _) = serve(&mut |g, q| single.search_as(g, q).map(|h| h.len()).unwrap_or(0));
    println!(
        "{:>7} {:>12.1} {:>12.2} {:>9} {:>12} {:>7}",
        "single", single_cold, single_warm, "1.0x", specs, hits
    );
    for shards in [2usize, 4] {
        let cluster = EngineCluster::new(e11_repo(&corpus), standard_registry(), shards);
        let (cold, chits) =
            serve(&mut |g, q| cluster.search_as(g, q).map(|h| h.len()).unwrap_or(0));
        let (warm, _) = serve(&mut |g, q| cluster.search_as(g, q).map(|h| h.len()).unwrap_or(0));
        assert_eq!(chits, hits, "sharding changed answers");
        let avg_targets: f64 =
            log.iter().map(|q| cluster.probe_target_count(q) as f64).sum::<f64>()
                / log.len() as f64;
        println!(
            "{:>7} {:>12.1} {:>12.2} {:>8.1}x {:>12.2} {:>7}",
            shards,
            cold,
            warm,
            single_cold / cold,
            avg_targets,
            chits
        );
    }
    println!();
}
