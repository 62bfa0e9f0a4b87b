//! Correctness of the incremental write pipeline: typed mutations must be
//! invisible in every read structure they maintain.
//!
//! Property 1 (index bit-equivalence): across randomized mutation
//! sequences — spec inserts, execution appends, policy swaps, deletes, text
//! edits and edits that reorder a module's name tokens — a
//! [`KeywordIndex`] maintained only through `apply_effect` is, after
//! *every* write, bit-identical to a fresh `KeywordIndex::build` of the
//! same repository: the raw postings of every key any spec ever posted
//! (single tokens and whole-tag phrases, so a key the index failed to drop
//! shows up), name-phrase lookups, `doc_count`, df / memoized df / idf
//! bits, and each spec's posted vocabulary. The touch report is what the
//! write changed (the vocabulary before and after, whether `doc_count`
//! moved), and the counters prove *how* the index got there: execution
//! appends and policy swaps perform zero index work, inserts index exactly
//! the new spec, deletes and edits retract exactly the spec's old
//! postings.
//!
//! Property 2 (front-cache staleness): a cluster serving through its
//! epoch-tagged front cache never serves a stale merged answer across
//! writes — after every mutation, cluster answers equal a fresh cacheless
//! evaluation of the mutated corpus — while execution appends
//! demonstrably keep the front cache warm (same `Arc`, no new scatter).
//!
//! Property 3 (no over-invalidation): a policy swap re-resolves at most
//! the touched spec's access rule per group; every other memoized prefix
//! keeps serving, pinned by the resolver touch counters.
//!
//! Property 4 (one index, partitioned): after every write, the shard
//! indexes of clusters of 2 and 3 shards partition a fresh build of the
//! cluster's one repository — per key the shard lists merged by spec are
//! the fresh list, document counts and frequencies sum to the fresh ones
//! (idf bits included), and every live spec is posted on exactly shard
//! `spec % shards`.

use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_model::exec::{Executor, HashOracle};
use ppwf_query::cluster::{ClusterStats, EngineCluster, Mutation, MutationEffect};
use ppwf_query::engine::QueryEngine;
use ppwf_query::keyword::{search_filtered, KeywordHit, KeywordQuery};
use ppwf_repo::keyword_index::{tokenize, KeywordIndex, Posting};
use ppwf_repo::mutation::{ModuleTextEdit, SpecText};
use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use proptest::prelude::*;
use std::collections::BTreeSet;

const QUERIES: [&str; 6] = ["kw0", "kw0, kw1", "kw2", "kw1, kw3", "kw5", "kw0, kw2"];
const GROUPS: [&str; 3] = ["public", "analysts", "researchers"];

fn registry() -> PrincipalRegistry {
    let mut registry = PrincipalRegistry::new();
    registry.add_group("public", AccessLevel(0), ViewRule::RootOnly);
    registry.add_group("analysts", AccessLevel(2), ViewRule::MaxDepth(1));
    registry.add_group("researchers", AccessLevel(4), ViewRule::Full);
    registry
}

fn random_repo(seed: u64, specs: usize) -> Repository {
    let mut repo = Repository::new();
    for i in 0..specs as u64 {
        let spec =
            generate_spec(&SpecParams { seed: seed.wrapping_add(i), ..SpecParams::default() });
        repo.insert_spec(spec, Policy::public()).unwrap();
    }
    repo
}

/// Materialize the `i`-th random mutation against the current repository
/// state: 0 → insert, 1 → execution append, 2 → policy swap, 3 → spec
/// delete, 4 → spec text edit, 5 → an edit that reverses one module's name
/// tokens (same tokens, so only phrase lookups can tell). Targets are drawn
/// from the *live* slots
/// (destructive histories leave tombstones); with no live spec left, or
/// no editable module on the chosen spec, the write degenerates to an
/// insert so every stream element stays applicable.
fn mutation_of(kind: u8, seed: u64, repo: &Repository) -> Mutation {
    let insert = || Mutation::InsertSpec {
        spec: generate_spec(&SpecParams { seed: seed ^ 0xFACE, ..SpecParams::default() }),
        policy: Policy::public(),
    };
    let live: Vec<SpecId> =
        repo.slots().filter_map(|(id, entry)| entry.is_some().then_some(id)).collect();
    if live.is_empty() {
        return insert();
    }
    let target = live[(seed % live.len() as u64) as usize];
    match kind % 6 {
        0 => insert(),
        1 => {
            let exec = Executor::new(&repo.entry(target).unwrap().spec)
                .run(&mut HashOracle)
                .expect("stored specs execute");
            Mutation::AddExecution { spec: target, exec }
        }
        2 => Mutation::SetPolicy { spec: target, policy: Policy::public() },
        3 => Mutation::DeleteSpec { spec: target },
        kind => {
            let spec = &repo.entry(target).unwrap().spec;
            let editable: Vec<_> = spec.modules().filter(|m| !m.kind.is_distinguished()).collect();
            if editable.is_empty() {
                return insert();
            }
            let module = editable[(seed % editable.len() as u64) as usize];
            let edit = if kind == 4 {
                ModuleTextEdit {
                    module: module.id,
                    name: format!("edited step {seed}"),
                    keywords: vec![format!("kw{}", seed % 8), "edited".to_string()],
                }
            } else {
                let mut name = tokenize(&module.name);
                name.reverse();
                ModuleTextEdit {
                    module: module.id,
                    name: name.join(" "),
                    keywords: module.keywords.clone(),
                }
            };
            Mutation::EditSpec { spec: target, text: SpecText { edits: vec![edit] } }
        }
    }
}

/// Add every key `repo`'s text produces to `keys`: single tokens, whole
/// tags, and each module's full name and consecutive name-token pairs (the
/// phrases that match through adjacency rather than a tag).
fn collect_keys(repo: &Repository, keys: &mut BTreeSet<String>) {
    for (_, entry) in repo.entries() {
        for module in entry.spec.modules().filter(|m| !m.kind.is_distinguished()) {
            let name = tokenize(&module.name);
            keys.extend(name.windows(2).map(|pair| pair.join(" ")));
            keys.insert(name.join(" "));
            keys.extend(name);
            for tag in &module.keywords {
                let tag = tokenize(tag);
                keys.insert(tag.join(" "));
                keys.extend(tag);
            }
        }
    }
    keys.remove("");
}

/// `idx` answers exactly as a fresh build of `repo` over every key in
/// `keys` (raw term and phrase lists, so an emptied key the index kept is
/// `Some([])` against `None`), and holds the same per-spec vocabulary.
fn assert_equals_build(
    idx: &KeywordIndex,
    repo: &Repository,
    keys: &BTreeSet<String>,
) -> Result<(), TestCaseError> {
    let fresh = KeywordIndex::build(repo);
    prop_assert_eq!(idx.doc_count(), fresh.doc_count());
    prop_assert_eq!(idx.term_count(), fresh.term_count());
    for key in keys {
        let raw = |i: &KeywordIndex| {
            (i.term_postings(key).map(|l| l.to_vec()), i.phrase_postings(key).map(|l| l.to_vec()))
        };
        prop_assert_eq!(raw(idx), raw(&fresh), "raw lists diverged on {:?}", key);
        prop_assert_eq!(idx.lookup_query_term(key), fresh.lookup_query_term(key), "{:?}", key);
        prop_assert_eq!(idx.df(key), fresh.df(key));
        prop_assert_eq!(idx.df_cached(key), fresh.df_cached(key), "df memo on {:?}", key);
        prop_assert_eq!(idx.idf_cached(key).to_bits(), fresh.idf_cached(key).to_bits());
    }
    for (spec, _) in repo.slots() {
        prop_assert_eq!(idx.posted_tokens(spec), fresh.posted_tokens(spec), "{:?}", spec);
    }
    Ok(())
}

/// The shards' lists of one key, merged by spec (`None` when no shard holds
/// the key).
fn merged_by_spec(lists: impl Iterator<Item = Option<Vec<Posting>>>) -> Option<Vec<Posting>> {
    let mut merged: Option<Vec<Posting>> = None;
    for list in lists.flatten() {
        merged.get_or_insert_with(Vec::new).extend(list);
    }
    if let Some(merged) = &mut merged {
        merged.sort_by_key(|p| p.spec);
    }
    merged
}

/// `cluster`'s shard indexes partition a fresh build of its repository
/// over every key in `keys` (Property 4).
fn assert_partitions(
    cluster: &EngineCluster,
    keys: &BTreeSet<String>,
) -> Result<(), TestCaseError> {
    let (repo, shards) = (cluster.repo(), cluster.shards());
    let fresh = KeywordIndex::build(repo);
    let doc_count: usize = shards.iter().map(|s| s.index().doc_count()).sum();
    prop_assert_eq!(doc_count, fresh.doc_count());
    for key in keys {
        let terms =
            merged_by_spec(shards.iter().map(|s| s.index().term_postings(key).map(|l| l.to_vec())));
        prop_assert_eq!(terms, fresh.term_postings(key).map(|l| l.to_vec()), "term {:?}", key);
        let phrases = merged_by_spec(
            shards.iter().map(|s| s.index().phrase_postings(key).map(|l| l.to_vec())),
        );
        prop_assert_eq!(
            phrases,
            fresh.phrase_postings(key).map(|l| l.to_vec()),
            "phrase {:?}",
            key
        );
        let lookups = merged_by_spec(shards.iter().map(|s| Some(s.index().lookup_query_term(key))));
        prop_assert_eq!(lookups, Some(fresh.lookup_query_term(key)), "lookup {:?}", key);
        let df: usize = shards.iter().map(|s| s.index().df_cached(key)).sum();
        prop_assert_eq!(df, fresh.df(key), "df {:?}", key);
        let idf = KeywordIndex::idf_from_counts(doc_count, df);
        prop_assert_eq!(idf.to_bits(), fresh.idf(key).to_bits(), "idf {:?}", key);
    }
    for (spec, entry) in repo.slots() {
        let posted: Vec<usize> = (0..shards.len())
            .filter(|&s| shards[s].index().posted_tokens(spec).is_some())
            .collect();
        let home = spec.index() % shards.len();
        prop_assert_eq!(&posted, &entry.map_or(vec![], |_| vec![home]), "placement of {:?}", spec);
        prop_assert_eq!(shards[home].index().posted_tokens(spec), fresh.posted_tokens(spec));
    }
    Ok(())
}

fn hits_identical(a: &[KeywordHit], b: &[KeywordHit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.spec == y.spec && x.prefix == y.prefix && x.matched == y.matched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An index maintained through `apply_effect` alone equals a fresh
    /// build after every write, reports what each write touched, and does
    /// exactly the per-spec work the effect names.
    #[test]
    fn incremental_index_equals_full_rebuild(
        seed in any::<u64>(),
        specs in 2usize..5,
        writes in proptest::collection::vec((0u8..6, any::<u64>()), 1..10),
    ) {
        let mut repo = random_repo(seed, specs);
        let mut idx = KeywordIndex::build(&repo);
        let mut keys = BTreeSet::new();
        collect_keys(&repo, &mut keys);

        for &(kind, wseed) in &writes {
            let mutation = mutation_of(kind, wseed, &repo);
            let (docs_indexed, docs_retracted, doc_count) =
                (idx.docs_indexed(), idx.docs_retracted(), idx.doc_count());
            let effect = repo.apply(mutation).unwrap();
            let spec = effect.spec();
            let was = idx.posted_tokens(spec).map(<[String]>::to_vec).unwrap_or_default();
            let touched = idx.apply_effect(&repo, &effect);
            let (left, arrived, docs_moved) =
                (touched.left.into_owned(), touched.arrived.to_vec(), touched.docs_moved);
            collect_keys(&repo, &mut keys);
            assert_equals_build(&idx, &repo, &keys)?;

            let now = idx.posted_tokens(spec).map(<[String]>::to_vec).unwrap_or_default();
            prop_assert_eq!(docs_moved, idx.doc_count() != doc_count);
            let modules = |spec| {
                repo.entry(spec).map_or(0, |e| {
                    e.spec.modules().filter(|m| !m.kind.is_distinguished()).count()
                })
            };
            // (vocabulary left behind, vocabulary arrived with, modules
            // indexed, modules retracted) per effect kind.
            let expected = match effect {
                MutationEffect::SpecInserted { .. } => (vec![], now, modules(spec), 0),
                MutationEffect::ExecutionAppended { .. } => (vec![], vec![], 0, 0),
                MutationEffect::PolicyChanged { .. } => (was, vec![], 0, 0),
                MutationEffect::SpecDeleted { .. } => {
                    prop_assert!(repo.entry(spec).is_none(), "delete leaves a tombstone");
                    prop_assert!(now.is_empty() && idx.doc_count() < doc_count);
                    (was, vec![], 0, doc_count - idx.doc_count())
                }
                MutationEffect::SpecEdited { .. } => (was, now, modules(spec), modules(spec)),
            };
            prop_assert_eq!(
                (left, arrived, idx.docs_indexed() - docs_indexed, idx.docs_retracted() - docs_retracted),
                expected,
                "{:?}", effect
            );
        }
    }

    /// Writes never let the cluster front serve a stale merged answer:
    /// after every mutation, every group's answer equals a fresh cacheless
    /// evaluation of the mutated corpus.
    #[test]
    fn front_cache_stays_fresh_under_routed_writes(
        seed in any::<u64>(),
        specs in 2usize..5,
        shards in 2usize..4,
        writes in proptest::collection::vec((0u8..6, any::<u64>()), 1..6),
    ) {
        let mut cluster = EngineCluster::new(random_repo(seed, specs), registry(), shards);
        let mut mirror = random_repo(seed, specs);
        // Warm every front entry so staleness would be observable.
        for g in GROUPS {
            for q in QUERIES {
                cluster.search_as(g, q).unwrap();
            }
        }
        for &(kind, wseed) in &writes {
            let mutation = mutation_of(kind, wseed, &mirror);
            cluster.mutate(mutation.clone()).unwrap();
            mirror.apply(mutation).unwrap();
            let reference_index = KeywordIndex::build(&mirror);
            let reference_registry = registry();
            for g in GROUPS {
                let access = reference_registry.access_map(&mirror, g).unwrap();
                for q in QUERIES {
                    let served = cluster.search_as(g, q).unwrap();
                    let fresh = search_filtered(
                        &mirror,
                        &reference_index,
                        &KeywordQuery::parse(q),
                        &access,
                    );
                    prop_assert!(
                        hits_identical(&fresh, &served),
                        "stale front answer for group {} query {:?} after {:?} write",
                        g, q, kind % 6
                    );
                }
            }
        }
    }

    /// Execution appends keep the whole warm path warm: the front cache
    /// serves the identical `Arc`, and no shard sees a new access-memo or
    /// view lookup.
    #[test]
    fn execution_appends_keep_every_cache_warm(
        seed in any::<u64>(),
        specs in 2usize..5,
        shards in 2usize..4,
    ) {
        let mut cluster = EngineCluster::new(random_repo(seed, specs), registry(), shards);
        let warmed: Vec<_> =
            GROUPS.iter().map(|g| cluster.search_as(g, "kw0, kw1").unwrap()).collect();
        let before = cluster.stats();
        let vector = cluster.version_vector();

        let exec = Executor::new(&cluster.repo().entry(SpecId(0)).unwrap().spec)
            .run(&mut HashOracle)
            .unwrap();
        let effect = cluster.mutate(Mutation::AddExecution { spec: SpecId(0), exec }).unwrap();
        prop_assert!(!effect.changes_visible_state());
        prop_assert_eq!(cluster.version_vector(), vector);

        for (g, old) in GROUPS.iter().zip(&warmed) {
            let again = cluster.search_as(g, "kw0, kw1").unwrap();
            prop_assert!(
                std::sync::Arc::ptr_eq(old, &again),
                "group {} lost its warm merged answer to a provenance append", g
            );
        }
        let after = cluster.stats();
        prop_assert_eq!(after.front.hits, before.front.hits + GROUPS.len() as u64);
        // What a shard run consults: the access and view memos.
        let shard_lookups = |s: &ClusterStats| {
            let (access, views) = (s.aggregate.access, s.aggregate.views);
            access.hits + access.misses + views.hits + views.misses
        };
        prop_assert_eq!(
            shard_lookups(&after),
            shard_lookups(&before),
            "warm front hits must not reach any shard"
        );
    }

    /// The shards of clusters of 2 and 3 shards partition a fresh build of
    /// the one repository after every write (Property 4).
    #[test]
    fn shards_partition_a_fresh_build_after_every_write(
        seed in any::<u64>(),
        specs in 2usize..5,
        writes in proptest::collection::vec((0u8..6, any::<u64>()), 1..10),
    ) {
        let mut clusters =
            [2, 3].map(|shards| EngineCluster::new(random_repo(seed, specs), registry(), shards));
        let mut keys = BTreeSet::new();
        collect_keys(clusters[0].repo(), &mut keys);
        for &(kind, wseed) in &writes {
            let mutation = mutation_of(kind, wseed, clusters[0].repo());
            for cluster in &mut clusters {
                cluster.mutate(mutation.clone()).unwrap();
            }
            collect_keys(clusters[0].repo(), &mut keys);
            for cluster in &clusters {
                assert_partitions(cluster, &keys)?;
            }
        }
    }

    /// Policy swaps re-resolve at most the touched spec per group — the
    /// resolver touch counters prove the access memo is invalidated
    /// per-spec, never wholesale.
    #[test]
    fn policy_swap_does_not_over_invalidate_access_memos(
        seed in any::<u64>(),
        specs in 2usize..6,
        target in any::<u64>(),
    ) {
        let mut engine = QueryEngine::new(random_repo(seed, specs), registry());
        // Warm the access memos across every group and query.
        for g in GROUPS {
            for q in QUERIES {
                engine.search_as(g, q).unwrap();
            }
        }
        let warm_misses = engine.stats().access.misses;
        // Re-running the stream must resolve nothing new (memo complete).
        for g in GROUPS {
            for q in QUERIES {
                engine.search_as(g, q).unwrap();
            }
        }
        prop_assert_eq!(engine.stats().access.misses, warm_misses);

        let spec = SpecId((target % specs as u64) as u32);
        engine.mutate(Mutation::SetPolicy { spec, policy: Policy::public() }).unwrap();
        for g in GROUPS {
            for q in QUERIES {
                engine.search_as(g, q).unwrap();
            }
        }
        let after = engine.stats().access.misses;
        prop_assert!(
            after <= warm_misses + GROUPS.len() as u64,
            "policy swap on one spec re-resolved {} rules across {} groups — over-invalidation",
            after - warm_misses, GROUPS.len()
        );
    }
}
