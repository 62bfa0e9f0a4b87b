//! Correctness of the async serving front under concurrency: every
//! response from a multiplexed [`ServeFront`] run is bit-identical to
//! *some sequential cut* of the same request log.
//!
//! The driver submits a randomized request log — keyword, private (both
//! plans) and ranked queries plus typed mutations — from several client
//! threads at once, over randomized corpus sizes, shard counts and pool
//! sizes. Every response carries the cluster epoch it was computed
//! at; the checker then replays the mutation sub-log *sequentially* on a
//! reference cluster, snapshots the epoch after every mutation, and
//! requires each concurrent response to be bit-identical (hits, prefixes,
//! match sets, private cost counters, ranked `f64` score bits) to the
//! reference cluster's answer at exactly the epoch the fence admitted:
//!
//! * a response whose epoch matches no sequential prefix of the mutation
//!   log would prove the fence let a read straddle a mutation;
//! * a response that differs from the reference at its own epoch would
//!   prove the multiplexed scatter mixed repository versions (or shard
//!   states) inside one answer.
//!
//! Mutations are submitted from one designated client so their total
//! order is the FIFO admission order and the sequential replay is
//! deterministic; reads race against them from every client.

use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_model::exec::{Executor, HashOracle};
use ppwf_query::cluster::{EngineCluster, RankedHits};
use ppwf_query::engine::Plan;
use ppwf_query::keyword::KeywordHit;
use ppwf_query::privacy_exec::PrivateSearchOutcome;
use ppwf_query::ranking::RankingMode;
use ppwf_query::route::ShardStrategy;
use ppwf_query::serve::{QueryAnswer, ServeFront, ServeRequest, ServeResponse};
use ppwf_repo::mutation::Mutation;
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use proptest::prelude::*;
use std::sync::Arc;

/// The last two match nothing on any shard — alone, and beside a term that
/// does match — so the front answers them without fanning out.
const QUERIES: [&str; 8] =
    ["kw0", "kw0, kw1", "kw2", "kw1, kw3", "kw5", "kw0, kw2", "zzz-none", "kw0, zzz-none"];
/// `nobody` is registered nowhere: every read shape must answer it `None`.
const GROUPS: [&str; 4] = ["public", "analysts", "researchers", "nobody"];

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
    repo
}

fn hits_identical(a: &[KeywordHit], b: &[KeywordHit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.spec == y.spec && x.prefix == y.prefix && x.matched == y.matched)
}

/// Both sides refuse (an unknown group), or both answer and the answers are
/// `same`.
fn agree<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>, same: impl Fn(&T, &T) -> bool) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => same(a, b),
        (None, None) => true,
        _ => false,
    }
}

/// One read request shape: `(group, query, kind)` where kind selects the
/// query class (and, for ranked, the mode).
#[derive(Clone, Copy, Debug)]
struct ReadDesc {
    group: &'static str,
    query: &'static str,
    kind: u8,
}

impl ReadDesc {
    fn to_request(self) -> ServeRequest {
        let (group, query) = (self.group.to_string(), self.query.to_string());
        match self.kind % 5 {
            0 => ServeRequest::Keyword { group, query },
            1 => ServeRequest::Private { group, query, plan: Plan::FilterThenSearch },
            2 => ServeRequest::Private { group, query, plan: Plan::SearchThenZoomOut },
            3 => ServeRequest::Ranked { group, query, mode: RankingMode::ExactFull },
            _ => ServeRequest::Ranked {
                group,
                query,
                mode: RankingMode::NoisyFull { epsilon: 1.0, seed: 11 },
            },
        }
    }

    /// Serve the same request on the blocking reference cluster and check
    /// the concurrent `response` bit-identical against it.
    fn check_against(
        &self,
        reference: &EngineCluster,
        response: &ServeResponse,
    ) -> Result<(), String> {
        let (group, query) = (self.group, self.query);
        match (self.kind % 5, &response.answer) {
            (0, QueryAnswer::Keyword(hits)) => {
                let expect = reference.search_as(group, query);
                if !agree(hits, &expect, |a, b| hits_identical(a, b)) {
                    return Err(format!("keyword diverged for {group}/{query:?}"));
                }
            }
            (1 | 2, QueryAnswer::Private(outcome)) => {
                let plan = if self.kind % 5 == 1 {
                    Plan::FilterThenSearch
                } else {
                    Plan::SearchThenZoomOut
                };
                let expect = reference.private_search_as(group, query, plan);
                let same = |a: &PrivateSearchOutcome, b: &PrivateSearchOutcome| {
                    hits_identical(&a.hits, &b.hits)
                        && a.views_built == b.views_built
                        && a.zoom_steps == b.zoom_steps
                        && a.discarded == b.discarded
                };
                if !agree(outcome, &expect, same) {
                    return Err(format!("private({plan:?}) diverged for {group}/{query:?}"));
                }
            }
            (3 | 4, QueryAnswer::Ranked(answer)) => {
                let mode = if self.kind % 5 == 3 {
                    RankingMode::ExactFull
                } else {
                    RankingMode::NoisyFull { epsilon: 1.0, seed: 11 }
                };
                let expect = reference.ranked_search_as(group, query, mode);
                let same = |a: &RankedHits, b: &RankedHits| {
                    hits_identical(&a.hits, &b.hits) && a.ranked.bitwise_eq(&b.ranked)
                };
                if !agree(answer, &expect, same) {
                    return Err(format!(
                        "ranked({mode:?}) diverged for {group}/{query:?} (f64 bits)"
                    ));
                }
            }
            (kind, other) => {
                return Err(format!("wrong answer variant {other:?} for kind {kind}"));
            }
        }
        Ok(())
    }
}

/// Materialize the `i`-th random mutation against the evolving corpus
/// state (`len` = current spec count): 0 → insert, 1 → execution append,
/// 2 → policy swap. Mirrors `incremental_write_equivalence`.
fn mutation_of(kind: u8, seed: u64, repo: &Repository) -> Mutation {
    match kind % 3 {
        0 => Mutation::InsertSpec {
            spec: generate_spec(&SpecParams { seed: seed ^ 0xFACE, ..SpecParams::default() }),
            policy: Policy::public(),
        },
        1 => {
            let target = SpecId((seed % repo.len() as u64) as u32);
            let exec = Executor::new(&repo.entry(target).unwrap().spec)
                .run(&mut HashOracle)
                .expect("stored specs execute");
            Mutation::AddExecution { spec: target, exec }
        }
        _ => Mutation::SetPolicy {
            spec: SpecId((seed % repo.len() as u64) as u32),
            policy: Policy::public(),
        },
    }
}

/// Pre-generate the mutation log by applying each mutation to a scratch
/// replica as it is generated, so targets always exist at apply time —
/// in the front, and in the sequential reference replay, both of which
/// apply the log in this exact order.
fn mutation_log(seed: u64, specs: usize, kinds: &[(u8, u64)]) -> Vec<Mutation> {
    let mut scratch = random_repo(seed, specs);
    kinds
        .iter()
        .map(|&(kind, wseed)| {
            let m = mutation_of(kind, wseed, &scratch);
            scratch.apply(m.clone()).expect("generated mutation valid");
            m
        })
        .collect()
}

/// The cluster epoch (the version vector's sum) — the same
/// scalar the front stamps on every response.
fn epoch_of(cluster: &EngineCluster) -> u64 {
    cluster.version_vector().iter().sum()
}

/// Drive one concurrent run and check every response against the
/// sequential replay. Returns the number of responses checked.
#[allow(clippy::too_many_arguments)]
fn run_and_check(
    seed: u64,
    specs: usize,
    shards: usize,
    threads: usize,
    clients: usize,
    reads: &[ReadDesc],
    mutation_kinds: &[(u8, u64)],
) -> Result<usize, String> {
    let mutations = mutation_log(seed, specs, mutation_kinds);
    let pool = Arc::new(WorkerPool::new(threads));
    let cluster = EngineCluster::with_config(
        random_repo(seed, specs),
        registry(specs),
        shards,
        ShardStrategy::RoundRobin,
        Arc::clone(&pool),
    );
    let front = ServeFront::with_pool(cluster, pool);

    // Client 0 interleaves the whole mutation log between its reads (so
    // the mutation order is its submission order); every other client
    // submits reads only. All clients fire their full slice before
    // waiting, maximizing in-flight overlap.
    let lanes = clients.max(1);
    let mut read_slices: Vec<Vec<ReadDesc>> = vec![Vec::new(); lanes];
    for (i, r) in reads.iter().enumerate() {
        read_slices[i % lanes].push(*r);
    }
    let mut mutation_responses: Vec<(usize, ServeResponse)> = Vec::new();
    let mut read_responses: Vec<(ReadDesc, ServeResponse)> = Vec::new();
    std::thread::scope(|scope| {
        let front = &front;
        let mutations = &mutations;
        let mut handles = Vec::new();
        for (c, slice) in read_slices.iter().enumerate() {
            handles.push(scope.spawn(move || {
                let mut tickets = Vec::new();
                if c == 0 {
                    // Interleave: one mutation after every couple reads,
                    // remainder at the end.
                    let mut m = 0usize;
                    for (i, r) in slice.iter().enumerate() {
                        tickets.push((None, front.submit(r.to_request())));
                        if i % 2 == 1 && m < mutations.len() {
                            tickets.push((
                                Some(m),
                                front.submit(ServeRequest::mutate(mutations[m].clone())),
                            ));
                            m += 1;
                        }
                    }
                    while m < mutations.len() {
                        tickets.push((
                            Some(m),
                            front.submit(ServeRequest::mutate(mutations[m].clone())),
                        ));
                        m += 1;
                    }
                } else {
                    for r in slice {
                        tickets.push((None, front.submit(r.to_request())));
                    }
                }
                let mut reads_out = Vec::new();
                let mut writes_out = Vec::new();
                let mut read_idx = 0usize;
                for (tag, ticket) in tickets {
                    let response = ticket.wait();
                    match tag {
                        Some(m) => writes_out.push((m, response)),
                        None => {
                            reads_out.push((slice[read_idx], response));
                            read_idx += 1;
                        }
                    }
                }
                (reads_out, writes_out)
            }));
        }
        for h in handles {
            let (reads_out, writes_out) = h.join().expect("client thread");
            read_responses.extend(reads_out);
            mutation_responses.extend(writes_out);
        }
    });
    // Only client 0 mutates, so after an index sort the responses line up
    // with the mutation log's submission (= application) order.
    mutation_responses.sort_by_key(|(m, _)| *m);
    front.quiesce();
    let stats = front.stats();
    if stats.completed != stats.submitted {
        return Err(format!(
            "front lost requests: {} submitted, {} completed",
            stats.submitted, stats.completed
        ));
    }

    // Sequential replay: reference answers at every mutation prefix.
    let mut reference = EngineCluster::with_config(
        random_repo(seed, specs),
        registry(specs),
        shards,
        ShardStrategy::RoundRobin,
        Arc::new(WorkerPool::new(1)),
    );
    let mut checked = 0usize;
    let mut remaining: Vec<(ReadDesc, ServeResponse)> = read_responses;
    for k in 0..=mutations.len() {
        let epoch = epoch_of(&reference);
        let mut unserved = Vec::new();
        for (desc, response) in remaining {
            if response.epoch == epoch {
                desc.check_against(&reference, &response)
                    .map_err(|e| format!("at mutation prefix {k}: {e}"))?;
                checked += 1;
            } else {
                unserved.push((desc, response));
            }
        }
        remaining = unserved;
        if k < mutations.len() {
            let expect = reference.mutate(mutations[k].clone());
            // The concurrent mutation response must agree with the
            // sequential application: same effect, same post-apply epoch.
            let response = &mutation_responses[k].1;
            match (&response.answer, &expect) {
                (QueryAnswer::Mutated(Ok(effect)), Ok(reference_effect)) => {
                    if effect != reference_effect {
                        return Err(format!(
                            "mutation {k} effect diverged: {effect:?} vs {reference_effect:?}"
                        ));
                    }
                }
                (answer, expect) => {
                    return Err(format!("mutation {k}: {answer:?} vs reference {expect:?}"));
                }
            }
            if response.epoch != epoch_of(&reference) {
                return Err(format!(
                    "mutation {k} reported epoch {} but the sequential replay sits at {}",
                    response.epoch,
                    epoch_of(&reference)
                ));
            }
            checked += 1;
        }
    }
    if !remaining.is_empty() {
        let stray: Vec<u64> = remaining.iter().map(|(_, r)| r.epoch).collect();
        return Err(format!(
            "{} responses carry epochs matching no sequential cut (fence violated): {stray:?}",
            remaining.len()
        ));
    }
    Ok(checked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: randomized concurrent interleavings of
    /// queries and typed mutations, across shard counts and pool sizes,
    /// are bit-identical to a sequential cut of the same request log.
    #[test]
    fn concurrent_responses_match_a_sequential_cut(
        seed in any::<u64>(),
        specs in 2usize..5,
        shards in 1usize..4,
        threads in 1usize..4,
        clients in 1usize..4,
        read_picks in proptest::collection::vec((0usize..GROUPS.len(), 0usize..QUERIES.len(), 0u8..5), 6..24),
        mutation_kinds in proptest::collection::vec((0u8..3, any::<u64>()), 1..6),
    ) {
        let reads: Vec<ReadDesc> = read_picks
            .iter()
            .map(|&(g, q, kind)| ReadDesc { group: GROUPS[g], query: QUERIES[q], kind })
            .collect();
        let checked = run_and_check(seed, specs, shards, threads, clients, &reads, &mutation_kinds)
            .map_err(TestCaseError::Fail)?;
        prop_assert_eq!(checked, reads.len() + mutation_kinds.len());
    }

    /// Reads-only runs never observe more than one epoch, and every warm
    /// repetition shares the cold answer bit-for-bit — the degenerate cut
    /// where the fence has nothing to do.
    #[test]
    fn read_only_runs_are_single_epoch(
        seed in any::<u64>(),
        specs in 2usize..5,
        shards in 1usize..4,
        threads in 1usize..3,
    ) {
        let reads: Vec<ReadDesc> = (0..18)
            .map(|i| ReadDesc {
                group: GROUPS[i % GROUPS.len()],
                query: QUERIES[i % QUERIES.len()],
                kind: (i % 5) as u8,
            })
            .collect();
        let checked = run_and_check(seed, specs, shards, threads, 3, &reads, &[])
            .map_err(TestCaseError::Fail)?;
        prop_assert_eq!(checked, reads.len());
    }
}

#[test]
fn deterministic_smoke_with_heavy_interleaving() {
    // One fixed, larger run for CI logs: 3 clients over a 2-thread pool,
    // mutations of every kind racing reads of every class.
    let reads: Vec<ReadDesc> = (0..48)
        .map(|i| ReadDesc {
            group: GROUPS[i % GROUPS.len()],
            query: QUERIES[(i * 7) % QUERIES.len()],
            kind: (i % 5) as u8,
        })
        .collect();
    let kinds: Vec<(u8, u64)> = (0..9).map(|i| ((i % 3) as u8, 1000 + i as u64)).collect();
    let checked = run_and_check(4242, 4, 3, 2, 3, &reads, &kinds).expect("equivalence holds");
    assert_eq!(checked, reads.len() + kinds.len());
}
