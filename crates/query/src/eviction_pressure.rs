//! Privacy under eviction pressure.
//!
//! The result caches recycle slab slots in place and the view memo replaces
//! views inside a spec's slot, and reuse is precisely how a cross-group leak
//! would appear: group A's slot handed to group B while some index entry
//! still points at it. The default capacities (thousands of results, sixteen
//! views per spec) never evict on the equivalence suites' workloads, so
//! these tests starve every cache — two views per spec in every shard's view
//! memo, two results in the cluster front (a cluster's only result cache,
//! shared by every group and query class) — and require every answer of
//! every group, on every query class, to stay bit-identical to the
//! *uncached* reference ([`QueryEngine`], which caches no answer) and inside
//! the requester's access prefix: sequentially across mutations, and
//! through a multiplexed [`ServeFront`] with reads racing writes, where each
//! response is held to the sequential cut at its fenced epoch.
//!
//! They live inside the crate because starving a cluster goes through the
//! crate-private [`EngineCluster::with_capacities`]; capacity is not a
//! public knob.

#![cfg(test)]

use crate::cluster::EngineCluster;
use crate::engine::{CacheSnapshot, Plan, QueryEngine, RankedAnswer};
use crate::keyword::KeywordHit;
use crate::privacy_exec::PrivateSearchOutcome;
use crate::ranking::RankingMode;
use crate::route::ShardStrategy;
use crate::serve::{QueryAnswer, ServeFront, ServeRequest};
use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_model::exec::{Executor, HashOracle};
use ppwf_model::hierarchy::Prefix;
use ppwf_model::ids::ModuleId;
use ppwf_repo::mutation::Mutation;
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Six over the synthetic vocabulary, then three whose minimal views of the
/// paper's fixture are three different prefixes ({W1, W2, W4}, {W1, W3},
/// {W1, W2}): one more than a starved view slot holds, whatever the seed.
const QUERIES: [&str; 9] =
    ["kw0", "kw0, kw1", "kw2", "kw1, kw3", "kw5", "kw0, kw2", "omim", "summary", "snp"];
const GROUPS: [&str; 3] = ["public", "analysts", "researchers"];
/// Capacity of the front result cache, and bound on every spec's views,
/// under test.
const STARVED: usize = 2;

fn registry(specs: usize) -> PrincipalRegistry {
    let mut registry = PrincipalRegistry::new();
    registry.add_group("public", AccessLevel(0), ViewRule::RootOnly);
    let analysts = registry.add_group("analysts", AccessLevel(2), ViewRule::MaxDepth(1));
    let researchers = registry.add_group("researchers", AccessLevel(4), ViewRule::Full);
    registry.set_override(analysts, SpecId(0), ViewRule::Full);
    if specs > 1 {
        registry.set_override(researchers, SpecId(1), ViewRule::RootOnly);
    }
    registry
}

fn random_repo(seed: u64, specs: usize) -> Repository {
    let mut repo = Repository::new();
    for i in 0..specs as u64 {
        let spec =
            generate_spec(&SpecParams { seed: seed.wrapping_add(i), ..SpecParams::default() });
        repo.insert_spec(spec, Policy::public()).unwrap();
    }
    // Last, so the registry's per-spec overrides stay on generated specs.
    let (fixture, _) = ppwf_model::fixtures::disease_susceptibility();
    repo.insert_spec(fixture, Policy::public()).unwrap();
    repo
}

fn starved_cluster(
    repo: Repository,
    specs: usize,
    shards: usize,
    pool: Arc<WorkerPool>,
) -> EngineCluster {
    EngineCluster::with_capacities(repo, registry(specs), shards, pool, STARVED, STARVED)
}

/// One read: `kind` selects the query class, plan and ranking mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Read {
    group: &'static str,
    query: &'static str,
    kind: u8,
}

/// Every `(group, query, kind)` — 135 distinct cache keys against a cache
/// of two, with the groups interleaved so neighbouring slots change owner.
fn all_reads() -> Vec<Read> {
    let mut reads = Vec::new();
    for query in QUERIES {
        for kind in 0..5 {
            for group in GROUPS {
                reads.push(Read { group, query, kind });
            }
        }
    }
    reads
}

impl Read {
    fn plan(self) -> Plan {
        if self.kind == 1 {
            Plan::FilterThenSearch
        } else {
            Plan::SearchThenZoomOut
        }
    }

    fn mode(self) -> RankingMode {
        if self.kind == 3 {
            RankingMode::ExactFull
        } else {
            RankingMode::NoisyFull { epsilon: 1.0, seed: 11 }
        }
    }

    fn request(self) -> ServeRequest {
        let (group, query) = (self.group.to_string(), self.query.to_string());
        match self.kind {
            0 => ServeRequest::Keyword { group, query },
            1 | 2 => ServeRequest::Private { group, query, plan: self.plan() },
            _ => ServeRequest::Ranked { group, query, mode: self.mode() },
        }
    }

    fn ask_engine(self, engine: &QueryEngine) -> Answer {
        let known = "registered group";
        match self.kind {
            0 => Answer::keyword(&engine.search_as(self.group, self.query).expect(known)),
            1 | 2 => Answer::private(
                &engine.private_search_as(self.group, self.query, self.plan()).expect(known),
            ),
            _ => {
                let (hits, ranked) =
                    engine.ranked_search_as(self.group, self.query, self.mode()).expect(known);
                Answer::ranked(&hits, &ranked)
            }
        }
    }

    fn ask_cluster(self, cluster: &EngineCluster) -> Answer {
        let known = "registered group";
        match self.kind {
            0 => Answer::keyword(&cluster.search_as(self.group, self.query).expect(known)),
            1 | 2 => Answer::private(
                &cluster.private_search_as(self.group, self.query, self.plan()).expect(known),
            ),
            _ => {
                let answer =
                    cluster.ranked_search_as(self.group, self.query, self.mode()).expect(known);
                Answer::ranked(&answer.hits, &answer.ranked)
            }
        }
    }
}

/// Every bit of a hit the equivalence suites compare, the flattened view's
/// nodes and edges included — the view comes out of the starved view cache.
#[derive(Debug, PartialEq)]
struct HitBits {
    spec: SpecId,
    prefix: Prefix,
    matched: Vec<(String, ModuleId)>,
    view_prefix: Prefix,
    view_graph: String,
}

fn hit_bits(hits: &[KeywordHit]) -> Vec<HitBits> {
    hits.iter()
        .map(|hit| {
            let graph = hit.view.graph();
            let nodes: Vec<_> = graph.nodes().collect();
            let edges: Vec<_> = graph.edges().map(|(i, e)| (i, e.from, e.to, &e.payload)).collect();
            HitBits {
                spec: hit.spec,
                prefix: hit.prefix.clone(),
                matched: hit.matched.clone(),
                view_prefix: hit.view.prefix().clone(),
                view_graph: format!("{nodes:?} {edges:?}"),
            }
        })
        .collect()
}

/// A served answer reduced to owned, comparable bits: hits, the private
/// plans' cost counters, ranked order and `f64` score bit patterns.
#[derive(Debug, PartialEq)]
enum Answer {
    Keyword(Vec<HitBits>),
    Private(Vec<HitBits>, [usize; 3]),
    Ranked(Vec<HitBits>, Vec<usize>, Vec<u64>),
}

impl Answer {
    fn keyword(hits: &[KeywordHit]) -> Answer {
        Answer::Keyword(hit_bits(hits))
    }

    fn private(outcome: &PrivateSearchOutcome) -> Answer {
        let costs = [outcome.views_built, outcome.zoom_steps, outcome.discarded];
        Answer::Private(hit_bits(&outcome.hits), costs)
    }

    fn ranked(hits: &[KeywordHit], ranked: &RankedAnswer) -> Answer {
        let scores = ranked.scores.iter().map(|s| s.to_bits()).collect();
        Answer::Ranked(hit_bits(hits), ranked.order.clone(), scores)
    }

    fn of_response(answer: &QueryAnswer) -> Answer {
        match answer {
            QueryAnswer::Keyword(Some(hits)) => Answer::keyword(hits),
            QueryAnswer::Private(Some(outcome)) => Answer::private(outcome),
            QueryAnswer::Ranked(Some(answer)) => Answer::ranked(&answer.hits, &answer.ranked),
            other => panic!("not a served read: {other:?}"),
        }
    }

    fn hits(&self) -> &[HitBits] {
        match self {
            Answer::Keyword(hits) | Answer::Private(hits, _) | Answer::Ranked(hits, _, _) => hits,
        }
    }
}

/// The uncached reference over one corpus state: every read evaluated on
/// one engine, which caches no answer.
struct Reference {
    answers: HashMap<Read, Answer>,
    access: HashMap<&'static str, HashMap<SpecId, Prefix>>,
}

impl Reference {
    fn of(repo: &Repository, specs: usize) -> Reference {
        let registry = registry(specs);
        let engine = QueryEngine::new(repo.clone(), registry.clone());
        let answers =
            all_reads().into_iter().map(|read| (read, read.ask_engine(&engine))).collect();
        let access = GROUPS
            .iter()
            .map(|&g| (g, registry.access_map(repo, g).expect("registered group")))
            .collect();
        Reference { answers, access }
    }

    /// `served` must be the uncached answer bit for bit, and must expose
    /// nothing outside the requesting group's access prefix.
    fn check(&self, read: Read, served: &Answer, stack: &str) -> Result<(), String> {
        if served != &self.answers[&read] {
            return Err(format!("{stack}: {read:?} diverged from the uncached reference"));
        }
        for hit in served.hits() {
            let allowed = &self.access[read.group][&hit.spec];
            if hit.view_prefix != hit.prefix || !hit.prefix.workflows().all(|w| allowed.contains(w))
            {
                return Err(format!("{stack}: {read:?} exposes spec {:?} above access", hit.spec));
            }
        }
        Ok(())
    }
}

/// The `i`-th random mutation against the evolving corpus: insert,
/// execution append or policy swap (as in `async_serve_equivalence`).
fn mutation_of(kind: u8, seed: u64, repo: &Repository) -> Mutation {
    let target = SpecId((seed % repo.len() as u64) as u32);
    match kind % 3 {
        0 => Mutation::InsertSpec {
            spec: generate_spec(&SpecParams { seed: seed ^ 0xFACE, ..SpecParams::default() }),
            policy: Policy::public(),
        },
        1 => {
            let exec = Executor::new(&repo.entry(target).unwrap().spec)
                .run(&mut HashOracle)
                .expect("stored specs execute");
            Mutation::AddExecution { spec: target, exec }
        }
        _ => Mutation::SetPolicy { spec: target, policy: Policy::public() },
    }
}

/// The mutation log plus the corpus state after each prefix of it
/// (`states[k]` = after `k` mutations).
fn mutation_log(seed: u64, specs: usize, kinds: &[(u8, u64)]) -> (Vec<Mutation>, Vec<Repository>) {
    let mut repo = random_repo(seed, specs);
    let mut states = vec![repo.clone()];
    let log = kinds
        .iter()
        .map(|&(kind, wseed)| {
            let m = mutation_of(kind, wseed, &repo);
            repo.apply(m.clone()).expect("generated mutation valid");
            states.push(repo.clone());
            m
        })
        .collect();
    (log, states)
}

fn epoch_of(cluster: &EngineCluster) -> u64 {
    cluster.version_vector().iter().sum()
}

/// A starved cluster, asked every read in three orders
/// (forward: pure eviction; backward: the two survivors hit; doubled: every
/// insert is hit at once) at every prefix of the mutation log.
fn sequential_run(
    seed: u64,
    specs: usize,
    shards: usize,
    kinds: &[(u8, u64)],
) -> Result<(), String> {
    let (log, states) = mutation_log(seed, specs, kinds);
    let mut cluster =
        starved_cluster(states[0].clone(), specs, shards, Arc::new(WorkerPool::new(1)));
    let forward = all_reads();
    let backward: Vec<Read> = forward.iter().rev().copied().collect();
    let doubled: Vec<Read> = forward.iter().flat_map(|&r| [r, r]).collect();
    for (k, state) in states.iter().enumerate() {
        let reference = Reference::of(state, specs);
        for order in [&forward, &backward, &doubled] {
            for &read in order {
                reference.check(read, &read.ask_cluster(&cluster), "starved cluster")?;
            }
        }
        if let Some(m) = log.get(k) {
            cluster.mutate(m.clone()).map_err(|e| e.to_string())?;
        }
    }
    let cluster_stats = cluster.stats();
    // The front cache is starved by the 135 keys whatever the corpus; the
    // view memos by the fixture, whose answers span three prefixes.
    for (what, evictions) in [
        ("shard view", cluster_stats.aggregate.views.evictions),
        ("cluster front", cluster_stats.front.evictions),
    ] {
        if evictions == 0 {
            return Err(format!("{what} cache never evicted: no pressure was applied"));
        }
    }
    // The front is the cluster's one result tier: a shard has no result
    // cache, so the shards' result counters read zero under any pressure.
    let shard = &cluster_stats.aggregate;
    if [shard.keyword, shard.private, shard.ranked] != [CacheSnapshot::default(); 3] {
        return Err("a shard result cache was consulted: answers are cached twice".to_string());
    }
    Ok(())
}

/// The `async_serve_equivalence` driver over a starved cluster: `clients`
/// threads fire their share of the reads before waiting on any, client 0
/// interleaves the mutation log, and every response must equal the
/// uncached reference at the sequential cut its epoch names.
fn concurrent_run(
    seed: u64,
    specs: usize,
    shards: usize,
    threads: usize,
    clients: usize,
    kinds: &[(u8, u64)],
) -> Result<usize, String> {
    let (log, states) = mutation_log(seed, specs, kinds);
    let pool = Arc::new(WorkerPool::new(threads));
    let cluster = starved_cluster(states[0].clone(), specs, shards, Arc::clone(&pool));
    let front = ServeFront::with_pool(cluster, pool);

    let mut lanes: Vec<Vec<Read>> = vec![Vec::new(); clients];
    for (i, read) in all_reads().into_iter().enumerate() {
        lanes[i % clients].push(read);
    }
    let mut responses = Vec::new();
    std::thread::scope(|scope| {
        let (front, log) = (&front, &log);
        let handles: Vec<_> = lanes
            .iter()
            .enumerate()
            .map(|(c, lane)| {
                scope.spawn(move || {
                    let every = lane.len() / (log.len() + 1) + 1;
                    let mut writes = log.iter();
                    let mut tickets = Vec::new();
                    for (i, &read) in lane.iter().enumerate() {
                        tickets.push((Some(read), front.submit(read.request())));
                        if c == 0 && i % every == every - 1 {
                            if let Some(m) = writes.next() {
                                tickets.push((None, front.submit(ServeRequest::mutate(m.clone()))));
                            }
                        }
                    }
                    if c == 0 {
                        for m in writes {
                            tickets.push((None, front.submit(ServeRequest::mutate(m.clone()))));
                        }
                    }
                    tickets.into_iter().map(|(read, t)| (read, t.wait())).collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            responses.extend(handle.join().expect("client thread"));
        }
    });
    front.quiesce();
    let stats = front.stats();
    if stats.completed != stats.submitted {
        return Err(format!("front lost requests: {stats:?}"));
    }

    // Sequential replay on a default-capacity cluster names the epoch of
    // every cut; appends leave the epoch (and every answer) unchanged, so
    // the first state at an epoch stands for all of them.
    let mut replay = EngineCluster::with_config(
        states[0].clone(),
        registry(specs),
        shards,
        ShardStrategy::RoundRobin,
        Arc::new(WorkerPool::new(1)),
    );
    let mut cuts: HashMap<u64, Reference> = HashMap::new();
    for (k, state) in states.iter().enumerate() {
        cuts.entry(epoch_of(&replay)).or_insert_with(|| Reference::of(state, specs));
        if let Some(m) = log.get(k) {
            replay.mutate(m.clone()).map_err(|e| e.to_string())?;
        }
    }
    let mut checked = 0;
    for (read, response) in &responses {
        match (read, &response.answer) {
            (Some(read), answer) => {
                let cut = cuts.get(&response.epoch).ok_or_else(|| {
                    format!("{read:?} answered at epoch {} — no sequential cut", response.epoch)
                })?;
                cut.check(*read, &Answer::of_response(answer), "starved front")?;
                checked += 1;
            }
            (None, QueryAnswer::Mutated(Ok(_))) => {}
            (None, other) => return Err(format!("mutation failed: {other:?}")),
        }
    }
    let stats = front.with_cluster(|c| c.stats());
    if stats.front.evictions == 0 || stats.aggregate.views.evictions == 0 {
        return Err(format!("front cache or shard views never evicted: {stats:?}"));
    }
    Ok(checked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn starved_stacks_match_the_uncached_reference(
        seed in any::<u64>(),
        specs in 2usize..5,
        shards in 1usize..4,
        kinds in proptest::collection::vec((0u8..3, any::<u64>()), 1..4),
    ) {
        sequential_run(seed, specs, shards, &kinds).map_err(TestCaseError::Fail)?;
    }

    #[test]
    fn starved_front_matches_a_sequential_cut_under_concurrency(
        seed in any::<u64>(),
        specs in 2usize..5,
        shards in 1usize..4,
        threads in 1usize..4,
        clients in 1usize..4,
        kinds in proptest::collection::vec((0u8..3, any::<u64>()), 1..5),
    ) {
        let checked = concurrent_run(seed, specs, shards, threads, clients, &kinds)
            .map_err(TestCaseError::Fail)?;
        prop_assert_eq!(checked, all_reads().len());
    }
}
