//! Privacy-preserving search over a populated repository: one index, many
//! privilege levels; per-group caching; leak-aware ranking.
//!
//! ```bash
//! cargo run --example private_search
//! ```

use ppwf::model::hierarchy::Prefix;
use ppwf::privacy::policy::Policy;
use ppwf::query::keyword::KeywordQuery;
use ppwf::query::privacy_exec::{filter_then_search, search_then_zoom_out, AccessMap};
use ppwf::query::ranking::{evaluate_ranking, tf_profile, RankingMode};
use ppwf::repo::cache::GroupCache;
use ppwf::repo::keyword_index::KeywordIndex;
use ppwf::repo::repository::Repository;
use ppwf::workloads::genspec::{generate_spec, SpecParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Populate a repository with synthetic hierarchical workflows.
    let mut repo = Repository::new();
    for seed in 0..24 {
        let spec = generate_spec(&SpecParams { seed, ..SpecParams::default() });
        repo.insert_spec(spec, Policy::public())?;
    }
    let index = KeywordIndex::build(&repo);
    println!(
        "repository: {} specs, {} indexed modules, {} terms",
        repo.len(),
        index.doc_count(),
        index.term_count()
    );

    // Two user groups: "public" sees only root workflows; "researchers"
    // see everything.
    let q = KeywordQuery::parse("kw0, kw1");
    let public_access: AccessMap =
        repo.entries().map(|(sid, e)| (sid, Prefix::root_only(&e.hierarchy))).collect();
    let researcher_access: AccessMap =
        repo.entries().map(|(sid, e)| (sid, Prefix::full(&e.hierarchy))).collect();

    for (group, access) in [("public", &public_access), ("researchers", &researcher_access)] {
        let filtered = filter_then_search(&repo, &index, &q, access);
        let zoomed = search_then_zoom_out(&repo, &index, &q, access);
        println!(
            "{group:>12}: filter-then-search {} hits ({} views built); \
             search-then-zoom-out {} hits ({} views, {} zoom steps, {} discarded)",
            filtered.hits.len(),
            filtered.views_built,
            zoomed.hits.len(),
            zoomed.views_built,
            zoomed.zoom_steps,
            zoomed.discarded
        );
    }

    // Per-group caching: repeated queries hit; different groups never share.
    let cache: GroupCache<(), usize> = GroupCache::new(64);
    for _ in 0..5 {
        for (group, access) in [("public", &public_access), ("researchers", &researcher_access)] {
            cache.get_or_compute(group, "kw0, kw1", (), repo.version(), || {
                filter_then_search(&repo, &index, &q, access).hits.len()
            });
        }
    }
    println!(
        "cache: {} hits / {} misses (hit rate {:.2})",
        cache.stats().hits(),
        cache.stats().misses(),
        cache.stats().hit_rate()
    );

    // Ranking: how much do the different rankers leak about hidden terms?
    let terms = q.terms.clone();
    let profiles: Vec<_> = repo
        .entries()
        .map(|(sid, e)| tf_profile(&repo, sid, &Prefix::root_only(&e.hierarchy), &terms))
        .collect();
    for (name, mode) in [
        ("exact-full", RankingMode::ExactFull),
        ("visible-only", RankingMode::VisibleOnly),
        ("bucketized(4)", RankingMode::BucketizedFull { base: 4.0 }),
        ("noisy(eps=0.5)", RankingMode::NoisyFull { epsilon: 0.5, seed: 7 }),
    ] {
        let eval = evaluate_ranking(&index, &terms, &profiles, mode);
        println!(
            "ranking {name:>14}: utility (τ vs true) {:+.3}, leakage (|τ| vs hidden) {:.3}",
            eval.utility, eval.leakage
        );
    }
    Ok(())
}
