//! # ppwf-bench — shared workload setup for the experiment harnesses
//!
//! Every experiment (Criterion bench or the `experiments` table binary)
//! builds its inputs through these helpers so the measured configurations
//! are identical across harnesses and documented in one place. The
//! experiment ids (E1–E9) and their mapping to paper claims live in
//! DESIGN.md §3; EXPERIMENTS.md records the measured outcomes.

#![forbid(unsafe_code)]

use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_model::graph::DiGraph;
use ppwf_model::spec::Specification;
use ppwf_query::cluster::EngineCluster;
use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
use ppwf_repo::repository::Repository;
use ppwf_views::clustering::Clustering;
use ppwf_workloads::genexec::generate_executions;
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Spec-size sweep points used by E1/E4/E5/E9 (approximate module counts).
pub const SIZES: [usize; 4] = [25, 50, 100, 200];

/// A specification of roughly `n` modules with deterministic seed.
pub fn sized_spec(seed: u64, n: usize) -> Specification {
    generate_spec(&SpecParams::sized(seed, n))
}

/// A specification shaped for deep hierarchies (E1's depth sweep).
pub fn deep_spec(seed: u64, depth: u32) -> Specification {
    generate_spec(&SpecParams {
        seed,
        modules_per_workflow: (3, 5),
        composite_fraction: 0.5,
        max_depth: depth,
        max_workflows: (depth as usize + 1) * 4,
        ..SpecParams::default()
    })
}

/// A repository with `specs` synthetic specifications and `execs` runs each.
pub fn populated_repo(specs: usize, execs: usize, seed: u64) -> Repository {
    let mut repo = Repository::new();
    for i in 0..specs as u64 {
        let spec = generate_spec(&SpecParams { seed: seed + i, ..SpecParams::default() });
        let runs = generate_executions(&spec, execs, seed + i);
        let id = repo.insert_spec(spec, Policy::public()).expect("generated spec valid");
        for r in runs {
            repo.add_execution(id, r).expect("generated exec valid");
        }
    }
    repo
}

/// The three-group registry every cache experiment serves: `public` sees
/// roots only, `analysts` one hierarchy level, `researchers` everything.
/// Three groups × one repository is the paper's "one store, many privilege
/// levels" setting in miniature.
pub fn standard_registry() -> PrincipalRegistry {
    let mut registry = PrincipalRegistry::new();
    registry.add_group("public", AccessLevel(0), ViewRule::RootOnly);
    registry.add_group("analysts", AccessLevel(2), ViewRule::MaxDepth(1));
    registry.add_group("researchers", AccessLevel(4), ViewRule::Full);
    registry
}

/// Group names of [`standard_registry`], in registration order.
pub const E10_GROUPS: [&str; 3] = ["public", "analysts", "researchers"];

/// The E10 query mix over the synthetic Zipf vocabulary (`kw0` most
/// common). Mixed arities exercise both the single-posting and the
/// minimal-cover paths.
pub const E10_QUERIES: [&str; 5] = ["kw0, kw1", "kw1", "kw2", "kw0, kw3", "kw1, kw2"];

/// A one-shard cluster — what serves, and caches, when there is one index —
/// over [`populated_repo`] and [`standard_registry`].
pub fn one_shard_cluster(specs: usize, execs: usize, seed: u64) -> EngineCluster {
    EngineCluster::new(populated_repo(specs, execs, seed), standard_registry(), 1)
}

/// The E11 corpus shape: many small specifications over a large keyword
/// vocabulary. Small specs keep per-hit view construction cheap, so the
/// per-request cost a server cannot avoid — resolving the group's access
/// views across the corpus — dominates; the large vocabulary gives the
/// Zipf annotation tail enough mass that realistic queries are *shard
/// selective*, which is what the cluster's index-gated scatter exploits.
pub fn e11_spec_params(seed: u64) -> ppwf_workloads::SpecParams {
    ppwf_workloads::SpecParams {
        seed,
        modules_per_workflow: (3, 4),
        max_workflows: 6,
        max_depth: 2,
        vocabulary: 16384,
        keywords_per_module: 2,
        // Mild skew: a broad selective vocabulary (most terms live in a
        // handful of specs) rather than a few corpus-wide head terms. Term
        // selectivity is the variable scatter pruning trades on; the E11
        // writeup documents how the gain degrades as skew concentrates.
        zipf_skew: 0.7,
        ..ppwf_workloads::SpecParams::default()
    }
}

/// The E11 corpus as raw specifications (the query-log generator samples
/// terms from these) with deterministic per-spec seeds.
pub fn e11_corpus(specs: usize, seed: u64) -> Vec<ppwf_model::spec::Specification> {
    (0..specs as u64).map(|i| ppwf_workloads::generate_spec(&e11_spec_params(seed + i))).collect()
}

/// The E11 corpus loaded into one repository (the single-engine baseline
/// and the cluster partition both start from this).
pub fn e11_repo(corpus: &[ppwf_model::spec::Specification]) -> Repository {
    let mut repo = Repository::new();
    for spec in corpus {
        repo.insert_spec(spec.clone(), Policy::public()).expect("generated spec valid");
    }
    repo
}

/// The E11 query log over a corpus: mixed arity, co-occurring and cross
/// term pairs, corpus-Zipf term popularity, all query strings distinct (so
/// one pass over the log measures the uncached path end to end).
pub fn e11_query_log(
    corpus: &[ppwf_model::spec::Specification],
    count: usize,
    seed: u64,
) -> Vec<String> {
    ppwf_workloads::generate_query_log(
        corpus,
        &ppwf_workloads::QueryLogParams {
            seed,
            count,
            two_term_fraction: 0.6,
            same_module_fraction: 0.5,
            // Flatter-than-content query popularity: the selective tail
            // carries real traffic, as in production search logs.
            flatten_popularity: 1.0,
            distinct: true,
        },
    )
}

/// The E16 query log: multi-term AND queries only (`two_term_fraction:
/// 1.0`), the cold-kernel target shape — each query's answer is the
/// *intersection* of its terms' candidate specs, usually far smaller than
/// either term's postings, so intersection-first evaluation has real
/// work to skip. Distinct strings keep one pass fully cold.
pub fn e16_query_log(
    corpus: &[ppwf_model::spec::Specification],
    count: usize,
    seed: u64,
) -> Vec<String> {
    ppwf_workloads::generate_query_log(
        corpus,
        &ppwf_workloads::QueryLogParams {
            seed,
            count,
            two_term_fraction: 1.0,
            same_module_fraction: 0.5,
            flatten_popularity: 1.0,
            distinct: true,
        },
    )
}

/// The E12 registry: the three standard groups plus `extra` tiers with
/// varied default rules and a sprinkle of per-spec overrides. "Large
/// registry" here means *many groups over a large corpus* — the eager plan
/// resolves one group's rules across the whole corpus per cold query, so
/// its cost scales with corpus size regardless of group count, while the
/// lazy resolver's per-group memos make the group dimension a working-set
/// question instead.
pub fn e12_registry(extra: usize, specs: usize) -> (PrincipalRegistry, Vec<String>) {
    let mut registry = standard_registry();
    let mut names: Vec<String> = E10_GROUPS.iter().map(|g| g.to_string()).collect();
    for i in 0..extra {
        let name = format!("tier{i}");
        let rule = match i % 3 {
            0 => ViewRule::MaxDepth((i % 4) as u32),
            1 => ViewRule::RootOnly,
            _ => ViewRule::Full,
        };
        let g = registry.add_group(name.clone(), AccessLevel((i % 5) as u8), rule);
        // A few per-spec overrides, spread across the corpus, so lazy
        // resolution must consult override tables, not just default rules.
        if specs > 0 {
            for k in 0..3usize {
                let sid = ((i * 37 + k * 101) % specs) as u32;
                registry.set_override(g, ppwf_repo::repository::SpecId(sid), ViewRule::MaxDepth(1));
            }
        }
        names.push(name);
    }
    (registry, names)
}

/// The E12 *boundary* corpus: the E11 shape with the vocabulary shrunk to
/// a few dozen terms, so head terms annotate a large fraction of all
/// specs. Queries over it have candidate postings ≈ corpus — the
/// selectivity knob's far end, where a cold lazy resolver must resolve
/// (nearly) everything and degenerates toward the eager plan by design.
pub fn e12_broad_corpus(specs: usize, seed: u64) -> Vec<ppwf_model::spec::Specification> {
    (0..specs as u64)
        .map(|i| {
            ppwf_workloads::generate_spec(&ppwf_workloads::SpecParams {
                vocabulary: 48,
                zipf_skew: 0.9,
                ..e11_spec_params(seed + i)
            })
        })
        .collect()
}

/// The E12 *broad* query log: head-heavy single-term queries (popularity
/// mirrors the content Zipf). Over [`e12_broad_corpus`] the candidate
/// postings approach the corpus — the honest boundary where a cold lazy
/// resolver approaches the eager plan's cost because it really must
/// resolve (nearly) everything.
pub fn e12_broad_query_log(
    corpus: &[ppwf_model::spec::Specification],
    count: usize,
    seed: u64,
) -> Vec<String> {
    ppwf_workloads::generate_query_log(
        corpus,
        &ppwf_workloads::QueryLogParams {
            seed,
            count,
            two_term_fraction: 0.0,
            same_module_fraction: 0.0,
            flatten_popularity: 0.0,
            distinct: true,
        },
    )
}

/// The E13 mixed write stream over an E11-shaped corpus: `exec_pct`% of
/// writes append an execution to a random base spec (the paper's dominant
/// write — provenance accruing over repeated executions), `policy_pct`%
/// swap a random base spec's policy, and the remainder insert fresh
/// specs of the same shape. Targets stay within the base corpus so the
/// stream can be replayed against any starting copy of it; executions are
/// generated up front, outside any timed region.
pub fn e13_write_stream(
    corpus: &[ppwf_model::spec::Specification],
    writes: usize,
    exec_pct: u32,
    policy_pct: u32,
    seed: u64,
) -> Vec<ppwf_repo::mutation::Mutation> {
    use ppwf_repo::mutation::Mutation;
    use ppwf_repo::repository::SpecId;
    assert!(exec_pct + policy_pct <= 100, "write mix percentages exceed 100");
    assert!(!corpus.is_empty(), "write stream needs a base corpus");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..writes)
        .map(|w| {
            let roll = rng.gen_range(0..100u32);
            let target = SpecId(rng.gen_range(0..corpus.len() as u32));
            if roll < exec_pct {
                let exec =
                    generate_executions(&corpus[target.index()], 1, seed ^ ((w as u64) << 8))
                        .pop()
                        .expect("one execution generated");
                Mutation::AddExecution { spec: target, exec }
            } else if roll < exec_pct + policy_pct {
                Mutation::SetPolicy { spec: target, policy: Policy::public() }
            } else {
                Mutation::InsertSpec {
                    spec: ppwf_workloads::generate_spec(&e11_spec_params(
                        seed ^ 0xE13 ^ ((w as u64) << 16),
                    )),
                    policy: Policy::public(),
                }
            }
        })
        .collect()
}

/// The E19 destructive write stream: `delete_pct`% spec deletes,
/// `edit_pct`% in-place text edits, the remainder fresh spec inserts,
/// generated against an *evolving* scratch copy seeded from
/// `corpus` — destructive targets must be drawn from the live slots the
/// stream itself leaves behind, so (unlike [`e13_write_stream`]) the
/// stream is replayable only against a starting copy of the same base
/// corpus. Target selection and degenerate cases (no live spec, no
/// editable module) follow [`ppwf_workloads::genmutation`].
pub fn e19_write_stream(
    corpus: &[ppwf_model::spec::Specification],
    writes: usize,
    delete_pct: u32,
    edit_pct: u32,
    seed: u64,
) -> Vec<ppwf_repo::mutation::Mutation> {
    assert!(delete_pct + edit_pct <= 100, "write mix percentages exceed 100");
    let mut scratch = e11_repo(corpus);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..writes)
        .map(|w| {
            let roll = rng.gen_range(0..100u32);
            let kind = if roll < delete_pct {
                3
            } else if roll < delete_pct + edit_pct {
                4
            } else {
                0
            };
            let mutation =
                ppwf_workloads::genmutation::mutation_of(kind, rng.next_u64(), w as u64, &scratch);
            scratch.apply(mutation.clone()).expect("generated mutation applies");
            mutation
        })
        .collect()
}

/// The E14 request stream: a warm-heavy serving mix scheduled over the
/// standard three groups. `distinct` controls the working set (the log
/// cycles, so a server's caches see production-like repetition);
/// `write_every` turns every n-th slot into a write marker the driver
/// fills from [`e13_write_stream`]. Closed-loop lanes carry the requested
/// `concurrency`.
pub fn e14_schedule(
    corpus: &[ppwf_model::spec::Specification],
    requests: usize,
    distinct: usize,
    concurrency: usize,
    write_every: usize,
    seed: u64,
) -> Vec<ppwf_workloads::ScheduledRequest> {
    let log = e11_query_log(corpus, distinct, seed ^ 0x5EED);
    assert!(!log.is_empty(), "E14 needs a nonempty query pool");
    ppwf_workloads::schedule_requests(
        &log,
        &ppwf_workloads::ScheduleParams {
            seed: seed ^ 0xE14,
            requests,
            groups: E10_GROUPS.len(),
            write_every,
            arrival: ppwf_workloads::ArrivalSchedule::ClosedLoop { clients: concurrency },
        },
    )
}

/// A random layered DAG with `n` nodes and edge probability `p` (%), plus
/// unit-ish random edge weights — the flat-graph substrate for E3/E4.
pub fn layered_dag(seed: u64, n: usize, p_percent: u32) -> (DiGraph<u32, ()>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g: DiGraph<u32, ()> = DiGraph::new();
    for i in 0..n as u32 {
        g.add_node(i);
    }
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            if rng.gen_range(0..100) < p_percent {
                g.add_edge(i, j, ());
            }
        }
    }
    // Ensure a spine so the graph is connected enough to be interesting.
    for i in 1..n as u32 {
        if g.in_degree(i) == 0 {
            g.add_edge(i - 1, i, ());
        }
    }
    let weights: Vec<u64> = (0..g.edge_count()).map(|_| rng.gen_range(1..=5)).collect();
    (g, weights)
}

/// Parallel pipelines: `chains` independent chains of length `len`, plus a
/// few forward cross links (`cross_percent`% of possible stage crossings),
/// clustered so that every *odd* stage is merged into one composite across
/// all chains while even-stage nodes stay singletons.
///
/// This is the paper's `{M11, M13}` example generalized: a merged stage
/// mixes otherwise-independent pipelines, so the view claims paths from a
/// chain-`c` singleton through the composite into a different chain —
/// false paths in abundance, making the clustering reliably unsound and a
/// real workout for detection and repair (E4).
pub fn parallel_chains(
    seed: u64,
    chains: usize,
    len: usize,
    cross_percent: u32,
) -> (DiGraph<u32, ()>, Clustering) {
    assert!(chains >= 2 && len >= 3, "need parallelism and a middle stage");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g: DiGraph<u32, ()> = DiGraph::new();
    let node = |c: usize, s: usize| (c * len + s) as u32;
    for i in 0..(chains * len) as u32 {
        g.add_node(i);
    }
    for c in 0..chains {
        for s in 0..len - 1 {
            g.add_edge(node(c, s), node(c, s + 1), ());
        }
    }
    for c in 0..chains {
        for c2 in 0..chains {
            for s in 0..len - 1 {
                if c != c2 && rng.gen_range(0..100) < cross_percent {
                    g.add_edge(node(c, s), node(c2, s + 1), ());
                }
            }
        }
    }
    // Merge odd stages across chains; even-stage nodes stay singletons.
    let groups: Vec<Vec<u32>> = (0..len)
        .filter(|s| s % 2 == 1)
        .map(|s| (0..chains).map(|c| node(c, s)).collect())
        .collect();
    (g, Clustering::from_groups(chains * len, &groups))
}

/// A reachable `(u, v)` pair of the graph, far apart when possible.
pub fn reachable_pair(g: &DiGraph<u32, ()>) -> Option<(u32, u32)> {
    let n = g.node_count() as u32;
    let mut best: Option<(u32, u32, usize)> = None;
    for u in 0..n.min(16) {
        let r = g.reachable_from(u);
        for v in r.iter() {
            if v as u32 != u {
                let dist = v.saturating_sub(u as usize);
                if best.map(|(_, _, d)| dist > d).unwrap_or(true) {
                    best = Some((u, v as u32, dist));
                }
            }
        }
    }
    best.map(|(u, v, _)| (u, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_specs_scale() {
        let a = sized_spec(1, SIZES[0]);
        let b = sized_spec(1, SIZES[3]);
        assert!(b.module_count() > a.module_count());
    }

    #[test]
    fn deep_specs_deepen() {
        use ppwf_model::hierarchy::ExpansionHierarchy;
        let shallow = ExpansionHierarchy::of(&deep_spec(3, 1)).max_depth();
        let deep = ExpansionHierarchy::of(&deep_spec(3, 4)).max_depth();
        assert!(deep >= shallow);
    }

    #[test]
    fn repo_populates() {
        let repo = populated_repo(3, 2, 9);
        assert_eq!(repo.len(), 3);
        assert_eq!(repo.execution_count(), 6);
    }

    #[test]
    fn stage_clustering_is_unsound() {
        use ppwf_views::soundness::check_soundness;
        let (g, c) = parallel_chains(7, 3, 5, 5);
        assert!(g.is_dag());
        let report = check_soundness(&g, &c);
        assert!(!report.sound, "stage clustering over parallel chains must mislead");
    }

    #[test]
    fn dag_and_pair() {
        let (g, w) = layered_dag(5, 30, 20);
        assert!(g.is_dag());
        assert_eq!(w.len(), g.edge_count());
        let (u, v) = reachable_pair(&g).expect("connected enough");
        assert!(g.reaches(u, v));
    }
}
