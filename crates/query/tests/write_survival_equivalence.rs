//! Cached answers that survive unrelated writes — and never a related one.
//!
//! An answer-changing write no longer strands every `(group, query)` entry:
//! it stamps the written spec's vocabulary, and an entry with an older tag
//! is re-admitted when the stamps show no write since can have changed it
//! (`ppwf_repo::touch`). That makes "which entries survive" a privacy
//! question: a retraction, an edit or a policy swap must never be outlived
//! by a cached disclosure. These tests hold every stack that caches — the
//! blocking cluster at 1/2/4 shards, and a multiplexed [`ServeFront`] with
//! reads racing writes — to the *uncached* reference ([`QueryEngine`],
//! which caches no answer) at exactly the epoch each answer was served at,
//! bit for bit: hits, views, private cost counters, ranked order and `f64`
//! score bits, all inside the requester's access prefix.
//!
//! The corpus is built from vocabulary *families* — red, blue, green, and
//! one that posts red and blue together — so that most writes share no full
//! term set with most queries. (Over the single-fixture corpora of the
//! other suites every write touches every token, every older entry is
//! rejected, and the whole suite would pass with re-admission broken.) Each
//! run must see both outcomes: `revalidations > 0` and `invalidations > 0`.

use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_model::exec::{Executor, HashOracle};
use ppwf_model::hierarchy::Prefix;
use ppwf_model::ids::ModuleId;
use ppwf_model::spec::Specification;
use ppwf_query::cluster::{EngineCluster, RankedHits};
use ppwf_query::engine::{CacheSnapshot, Plan, QueryEngine, RankedAnswer};
use ppwf_query::keyword::KeywordHit;
use ppwf_query::privacy_exec::PrivateSearchOutcome;
use ppwf_query::ranking::RankingMode;
use ppwf_query::route::ShardStrategy;
use ppwf_query::serve::{QueryAnswer, ServeFront, ServeRequest};
use ppwf_repo::mutation::{ModuleTextEdit, Mutation, SpecText};
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const GROUPS: [&str; 3] = ["public", "analysts", "researchers"];

/// Words, whole-tag phrases (`crimson label`), consecutive-name-token
/// phrases (`red reader`, `red blue`), one- and two-family conjunctions, a
/// term nothing posts and a query without a token.
const QUERIES: [&str; 12] = [
    "r0",
    "r1, r2",
    "b0",
    "b1, b2",
    "r0, b1",
    "g0",
    "crimson label",
    "red reader",
    "red blue, shared",
    "red",
    "unobtainium",
    " , ",
];

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

/// A vocabulary family. `Red`, `Blue` and `Green` are pairwise disjoint;
/// `Both` posts red and blue tokens together, so it is the only family a
/// red-and-blue conjunction can match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    Red,
    Blue,
    Both,
    Green,
}

const FAMILIES: [Family; 4] = [Family::Red, Family::Blue, Family::Both, Family::Green];

impl Family {
    /// Name and keyword tags of the `j`-th proper module of a spec.
    fn text(self, j: usize) -> (String, Vec<String>) {
        let tags = |tags: &[String]| tags.to_vec();
        match self {
            Family::Red => {
                ("red reader".into(), tags(&[format!("r{}", j % 3), "crimson label".into()]))
            }
            Family::Blue => {
                ("blue writer".into(), tags(&[format!("b{}", j % 3), "azure mark".into()]))
            }
            Family::Both => (
                "red blue mixer".into(),
                tags(&[format!("r{}", j % 3), format!("b{}", (j + 1) % 3), "shared".into()]),
            ),
            Family::Green => ("green grower".into(), tags(&[format!("g{}", j % 3)])),
        }
    }

    /// The text revision that rewrites *every* proper module of `spec` into
    /// this family — nothing of the old vocabulary is left behind.
    fn retheme(self, spec: &Specification) -> SpecText {
        let edits = spec
            .modules()
            .filter(|m| !m.kind.is_distinguished())
            .enumerate()
            .map(|(j, m)| {
                let (name, keywords) = self.text(j);
                ModuleTextEdit { module: m.id, name, keywords }
            })
            .collect();
        SpecText { edits }
    }

    /// A generated spec (random structure and hierarchy) speaking this
    /// family's vocabulary only.
    fn spec(self, seed: u64) -> Specification {
        let mut spec = generate_spec(&SpecParams { seed, ..SpecParams::default() });
        for edit in self.retheme(&spec).edits {
            spec.set_module_text(edit.module, &edit.name, &edit.keywords).expect("proper module");
        }
        spec
    }
}

/// `specs` specs cycling through the families (so 4 or more hold them all).
fn themed_repo(seed: u64, specs: usize) -> Repository {
    let mut repo = Repository::new();
    for i in 0..specs {
        let spec = FAMILIES[i % FAMILIES.len()].spec(seed.wrapping_add(i as u64));
        repo.insert_spec(spec, Policy::public()).unwrap();
    }
    repo
}

/// One read: `kind` selects the query class, plan and ranking mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Read {
    group: &'static str,
    query: &'static str,
    kind: u8,
}

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

    fn is_ranked(self) -> bool {
        self.kind >= 3
    }

    fn request(self) -> ServeRequest {
        let (group, query) = (self.group.to_string(), self.query.to_string());
        match self.kind {
            0 => ServeRequest::Keyword { group, query },
            1 | 2 => ServeRequest::Private { group, query, plan: self.plan() },
            _ => ServeRequest::Ranked { group, query, mode: self.mode() },
        }
    }
}

/// What a stack handed out: the shared allocations themselves, so a test
/// can tell a re-admitted answer (the same `Arc`) from a recomputed one.
#[derive(Debug)]
enum Served {
    Keyword(Arc<Vec<KeywordHit>>),
    Private(Arc<PrivateSearchOutcome>),
    RankedParts(Arc<Vec<KeywordHit>>, Arc<RankedAnswer>),
    Ranked(Arc<RankedHits>),
}

impl Served {
    fn of_response(answer: QueryAnswer) -> Served {
        match answer {
            QueryAnswer::Keyword(Some(hits)) => Served::Keyword(hits),
            QueryAnswer::Private(Some(outcome)) => Served::Private(outcome),
            QueryAnswer::Ranked(Some(answer)) => Served::Ranked(answer),
            other => panic!("not a served read: {other:?}"),
        }
    }

    /// Whether both are the very same cached allocation.
    fn same_arc(&self, other: &Served) -> bool {
        match (self, other) {
            (Served::Keyword(a), Served::Keyword(b)) => Arc::ptr_eq(a, b),
            (Served::Private(a), Served::Private(b)) => Arc::ptr_eq(a, b),
            (Served::Ranked(a), Served::Ranked(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    fn bits(&self) -> Answer {
        match self {
            Served::Keyword(hits) => Answer::Keyword(hit_bits(hits)),
            Served::Private(outcome) => {
                let costs = [outcome.views_built, outcome.zoom_steps, outcome.discarded];
                Answer::Private(hit_bits(&outcome.hits), costs)
            }
            Served::RankedParts(hits, ranked) => Answer::ranked(hits, ranked),
            Served::Ranked(answer) => Answer::ranked(&answer.hits, &answer.ranked),
        }
    }
}

/// Every bit of a hit the equivalence suites compare, the flattened view's
/// nodes and edges included.
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

/// A served answer reduced to owned, comparable bits.
#[derive(Debug, PartialEq)]
enum Answer {
    Keyword(Vec<HitBits>),
    Private(Vec<HitBits>, [usize; 3]),
    Ranked(Vec<HitBits>, Vec<usize>, Vec<u64>),
}

impl Answer {
    fn ranked(hits: &[KeywordHit], ranked: &RankedAnswer) -> Answer {
        let scores = ranked.scores.iter().map(|s| s.to_bits()).collect();
        Answer::Ranked(hit_bits(hits), ranked.order.clone(), scores)
    }

    fn hits(&self) -> &[HitBits] {
        match self {
            Answer::Keyword(hits) | Answer::Private(hits, _) | Answer::Ranked(hits, _, _) => hits,
        }
    }
}

fn ask_engine(engine: &QueryEngine, read: Read) -> Served {
    let known = "registered group";
    match read.kind {
        0 => Served::Keyword(engine.search_as(read.group, read.query).expect(known)),
        1 | 2 => Served::Private(
            engine.private_search_as(read.group, read.query, read.plan()).expect(known),
        ),
        _ => {
            let (hits, ranked) =
                engine.ranked_search_as(read.group, read.query, read.mode()).expect(known);
            Served::RankedParts(hits, ranked)
        }
    }
}

fn ask_cluster(cluster: &EngineCluster, read: Read) -> Served {
    let known = "registered group";
    match read.kind {
        0 => Served::Keyword(cluster.search_as(read.group, read.query).expect(known)),
        1 | 2 => Served::Private(
            cluster.private_search_as(read.group, read.query, read.plan()).expect(known),
        ),
        _ => Served::Ranked(
            cluster.ranked_search_as(read.group, read.query, read.mode()).expect(known),
        ),
    }
}

/// The uncached reference over one corpus state: an engine over exactly
/// that state, which computes every answer and caches none.
struct Reference {
    answers: HashMap<Read, Answer>,
    access: HashMap<&'static str, HashMap<SpecId, Prefix>>,
}

impl Reference {
    fn of(repo: &Repository, specs: usize) -> Reference {
        let registry = registry(specs);
        let engine = QueryEngine::new(repo.clone(), registry.clone());
        let answers =
            all_reads().into_iter().map(|read| (read, ask_engine(&engine, read).bits())).collect();
        let access = GROUPS
            .iter()
            .map(|&g| (g, registry.access_map(repo, g).expect("registered group")))
            .collect();
        Reference { answers, access }
    }

    /// `served` must be the uncached answer bit for bit, and must expose
    /// nothing outside the requesting group's access prefix.
    fn check(&self, read: Read, served: &Served, stack: &str) -> Result<(), String> {
        let served = served.bits();
        if served != self.answers[&read] {
            return Err(format!("{stack}: {read:?} diverged from the uncached reference"));
        }
        for hit in served.hits() {
            let allowed = self.access[read.group].get(&hit.spec).ok_or_else(|| {
                format!("{stack}: {read:?} names spec {:?}, which is not live", hit.spec)
            })?;
            if hit.view_prefix != hit.prefix || !hit.prefix.workflows().all(|w| allowed.contains(w))
            {
                return Err(format!("{stack}: {read:?} exposes spec {:?} above access", hit.spec));
            }
        }
        Ok(())
    }
}

/// The `i`-th random mutation against the evolving corpus — all five kinds.
/// Destructive kinds spare the last live spec, and fall back to an insert
/// when their pick is already a tombstone.
fn mutation_of(kind: u8, seed: u64, repo: &Repository) -> Mutation {
    let family = FAMILIES[(seed >> 8) as usize % FAMILIES.len()];
    let live: Vec<SpecId> = repo.entries().map(|(id, _)| id).collect();
    let target = live[seed as usize % live.len()];
    match kind % 5 {
        1 => {
            let exec = Executor::new(&repo.entry(target).unwrap().spec)
                .run(&mut HashOracle)
                .expect("stored specs execute");
            Mutation::AddExecution { spec: target, exec }
        }
        2 => Mutation::SetPolicy { spec: target, policy: Policy::public() },
        3 if live.len() > 1 => Mutation::DeleteSpec { spec: target },
        4 => Mutation::EditSpec {
            spec: target,
            text: family.retheme(&repo.entry(target).unwrap().spec),
        },
        _ => Mutation::InsertSpec { spec: family.spec(seed ^ 0xFACE), policy: Policy::public() },
    }
}

/// The mutation log plus the corpus state after each prefix of it
/// (`states[k]` = after `k` mutations).
fn mutation_log(seed: u64, specs: usize, kinds: &[(u8, u64)]) -> (Vec<Mutation>, Vec<Repository>) {
    let mut repo = themed_repo(seed, specs);
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

fn answer_changing(log: &[Mutation]) -> bool {
    log.iter().any(|m| !matches!(m, Mutation::AddExecution { .. }))
}

/// Both outcomes of an older-tag probe must have been seen, or the run
/// proved nothing about one of them.
fn both_outcomes(what: &str, caches: &[CacheSnapshot]) -> Result<(), String> {
    let total = caches.iter().fold(CacheSnapshot::default(), |acc, c| acc.merge(*c));
    if total.revalidations == 0 || total.invalidations == 0 {
        return Err(format!(
            "{what}: {} revalidations, {} invalidations — the run is vacuous",
            total.revalidations, total.invalidations
        ));
    }
    Ok(())
}

/// Blocking clusters of 1, 2 and 4 shards, asked every read twice (the
/// second probe of a re-admitted entry takes the exact-tag path) at every
/// prefix of the mutation log. Entries warmed at one prefix are the
/// older-tag entries of the next.
fn sequential_run(seed: u64, specs: usize, kinds: &[(u8, u64)]) -> Result<(), String> {
    let (log, states) = mutation_log(seed, specs, kinds);
    let mut clusters: Vec<EngineCluster> = [1, 2, 4]
        .into_iter()
        .map(|shards| {
            EngineCluster::with_config(
                states[0].clone(),
                registry(specs),
                shards,
                ShardStrategy::RoundRobin,
                Arc::new(WorkerPool::new(1)),
            )
        })
        .collect();
    let reads = all_reads();
    for (k, state) in states.iter().enumerate() {
        let reference = Reference::of(state, specs);
        for &read in reads.iter().chain(&reads) {
            for cluster in &clusters {
                let stack = format!("cluster of {}", cluster.shard_count());
                reference.check(read, &ask_cluster(cluster, read), &stack)?;
            }
        }
        if let Some(m) = log.get(k) {
            for cluster in &mut clusters {
                cluster.mutate(m.clone()).map_err(|e| e.to_string())?;
            }
        }
    }
    if answer_changing(&log[..log.len().saturating_sub(1)]) {
        for cluster in &clusters {
            let stats = cluster.stats();
            both_outcomes(&format!("front of {}", cluster.shard_count()), &[stats.front])?;
        }
    }
    Ok(())
}

/// The `async_serve_equivalence` driver: after a warming pass, `clients`
/// threads fire their share of the reads before waiting on any, client 0
/// interleaves the mutation log, and every response must equal the uncached
/// reference at the sequential cut its epoch names. A closing pass at rest
/// then meets every entry the racing reads left at an older tag.
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
    let cluster = EngineCluster::with_config(
        states[0].clone(),
        registry(specs),
        shards,
        ShardStrategy::RoundRobin,
        Arc::clone(&pool),
    );
    let front = ServeFront::with_pool(cluster, pool);
    let reads = all_reads();
    let pass = |responses: &mut Vec<_>| {
        let tickets: Vec<_> =
            reads.iter().map(|&read| (Some(read), front.submit(read.request()))).collect();
        responses.extend(tickets.into_iter().map(|(read, t)| (read, t.wait())));
    };

    let mut responses = Vec::new();
    pass(&mut responses);
    let mut lanes: Vec<Vec<Read>> = vec![Vec::new(); clients];
    for (i, &read) in reads.iter().enumerate() {
        lanes[i % clients].push(read);
    }
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
    pass(&mut responses);
    let stats = front.stats();
    if stats.completed != stats.submitted {
        return Err(format!("front lost requests: {stats:?}"));
    }

    // A sequential replay names the epoch of every cut; appends leave the
    // epoch (and every answer) unchanged, so the first state at an epoch
    // stands for all of them.
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
    for (read, response) in responses {
        match (read, response.answer) {
            (Some(read), answer) => {
                let cut = cuts.get(&response.epoch).ok_or_else(|| {
                    format!("{read:?} answered at epoch {} — no sequential cut", response.epoch)
                })?;
                cut.check(read, &Served::of_response(answer), "front")?;
                checked += 1;
            }
            (None, QueryAnswer::Mutated(Ok(_))) => {}
            (None, other) => return Err(format!("mutation failed: {other:?}")),
        }
    }
    if answer_changing(&log) {
        both_outcomes("serve front", &[front.with_cluster(|c| c.stats().front)])?;
    }
    Ok(checked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn engine_and_clusters_match_the_uncached_reference_across_writes(
        seed in any::<u64>(),
        specs in 4usize..7,
        kinds in proptest::collection::vec((0u8..5, any::<u64>()), 2..7),
    ) {
        sequential_run(seed, specs, &kinds).map_err(TestCaseError::Fail)?;
    }

    #[test]
    fn racing_front_reads_match_a_sequential_cut_across_writes(
        seed in any::<u64>(),
        specs in 4usize..7,
        shards in 1usize..4,
        threads in 1usize..4,
        clients in 1usize..4,
        kinds in proptest::collection::vec((0u8..5, any::<u64>()), 1..6),
    ) {
        let checked = concurrent_run(seed, specs, shards, threads, clients, &kinds)
            .map_err(TestCaseError::Fail)?;
        prop_assert_eq!(checked, 3 * all_reads().len());
    }
}

#[test]
fn deterministic_smoke_with_every_write_kind() {
    // One fixed run with every kind twice, for CI logs and as the
    // non-vacuity anchor: both older-tag outcomes must occur on every stack.
    let kinds: Vec<(u8, u64)> = (0..10).map(|i| (i as u8, 0x9E37_79B9 * (i as u64 + 1))).collect();
    sequential_run(4242, 6, &kinds).expect("sequential equivalence holds");
    let checked = concurrent_run(4242, 6, 2, 2, 3, &kinds).expect("concurrent equivalence holds");
    assert_eq!(checked, 3 * all_reads().len());
}

// ---- The privacy regression: each write kind, each stack, each mode ------

/// The caching stacks behind one face, so each regression below runs on all.
enum Stack {
    Cluster(Box<EngineCluster>),
    Front(ServeFront),
}

impl Stack {
    fn all(repo: &Repository, specs: usize) -> Vec<(&'static str, Stack)> {
        let cluster = |shards, pool: &Arc<WorkerPool>| {
            EngineCluster::with_config(
                repo.clone(),
                registry(specs),
                shards,
                ShardStrategy::RoundRobin,
                Arc::clone(pool),
            )
        };
        let pool = Arc::new(WorkerPool::new(2));
        vec![
            ("cluster of 1", Stack::Cluster(Box::new(cluster(1, &pool)))),
            ("cluster", Stack::Cluster(Box::new(cluster(2, &pool)))),
            ("front", Stack::Front(ServeFront::with_pool(cluster(2, &pool), pool))),
        ]
    }

    fn ask(&self, read: Read) -> Served {
        match self {
            Stack::Cluster(cluster) => ask_cluster(cluster, read),
            Stack::Front(front) => Served::of_response(front.submit(read.request()).wait().answer),
        }
    }

    fn mutate(&mut self, mutation: Mutation) {
        match self {
            Stack::Cluster(cluster) => drop(cluster.mutate(mutation).expect("valid mutation")),
            Stack::Front(front) => match front.submit(ServeRequest::mutate(mutation)).wait().answer
            {
                QueryAnswer::Mutated(Ok(_)) => {}
                other => panic!("mutation failed: {other:?}"),
            },
        }
    }

    /// Reads the front has answered from its caches without shard work.
    fn warm_inline(&self) -> Option<u64> {
        match self {
            Stack::Front(front) => Some(front.stats().warm_inline),
            _ => None,
        }
    }
}

/// A corpus of red, blue, both, green, red, blue: spec 0 is red.
const REGRESSION_SPECS: usize = 6;
const RED_SPEC: SpecId = SpecId(0);

/// The four answer-changing writes, each aimed at the red spec 0 (the
/// insert adds another red spec). The edit moves it to green.
fn writes_on_red(repo: &Repository) -> Vec<(&'static str, Mutation)> {
    let red = &repo.entry(RED_SPEC).unwrap().spec;
    vec![
        ("set_policy", Mutation::SetPolicy { spec: RED_SPEC, policy: Policy::public() }),
        ("edit", Mutation::EditSpec { spec: RED_SPEC, text: Family::Green.retheme(red) }),
        ("delete", Mutation::DeleteSpec { spec: RED_SPEC }),
        ("insert", Mutation::InsertSpec { spec: Family::Red.spec(77), policy: Policy::public() }),
    ]
}

fn reads_of(query: &'static str) -> Vec<Read> {
    all_reads().into_iter().filter(|r| r.query == query).collect()
}

#[test]
fn a_write_is_never_outlived_by_an_answer_that_could_name_its_spec() {
    let repo = themed_repo(9, REGRESSION_SPECS);
    for (what, mutation) in writes_on_red(&repo) {
        let mut after = repo.clone();
        after.apply(mutation.clone()).unwrap();
        let reference = Reference::of(&after, REGRESSION_SPECS);
        // Every token of "r0" and of "red reader" is in the red spec's
        // vocabulary before the write; "g0" is in it after the edit.
        let mut queries = vec!["r0", "red reader"];
        if what == "edit" {
            queries.push("g0");
        }
        let related: Vec<Read> = queries.into_iter().flat_map(reads_of).collect();
        for (name, mut stack) in Stack::all(&repo, REGRESSION_SPECS) {
            let warm: Vec<Served> = related.iter().map(|&read| stack.ask(read)).collect();
            stack.mutate(mutation.clone());
            let inline_before = stack.warm_inline();
            for (&read, old) in related.iter().zip(&warm) {
                let served = stack.ask(read);
                let context = format!("{name} after {what}");
                assert!(
                    !served.same_arc(old),
                    "{context}: {read:?} was served the pre-write allocation"
                );
                reference.check(read, &served, &context).unwrap();
            }
            if let Some(before) = inline_before {
                let inline = stack.warm_inline().unwrap() - before;
                assert_eq!(inline, 0, "{name} after {what}: a related read completed inline");
            }
        }
    }
}

#[test]
fn an_unrelated_write_leaves_the_cached_allocation_in_place() {
    let repo = themed_repo(9, REGRESSION_SPECS);
    // No red spec holds a blue token, so a write to one cannot change which
    // specs match these — not even "r0, b1", of which it holds one term.
    let unrelated: Vec<Read> = ["b0", "b1, b2", "r0, b1"].into_iter().flat_map(reads_of).collect();
    for (what, mutation) in writes_on_red(&repo) {
        let mut after = repo.clone();
        after.apply(mutation.clone()).unwrap();
        let reference = Reference::of(&after, REGRESSION_SPECS);
        let moves_doc_count = what == "delete" || what == "insert";
        for (name, mut stack) in Stack::all(&repo, REGRESSION_SPECS) {
            let warm: Vec<Served> = unrelated.iter().map(|&read| stack.ask(read)).collect();
            stack.mutate(mutation.clone());
            let inline_before = stack.warm_inline();
            let mut survivors = 0;
            for (&read, old) in unrelated.iter().zip(&warm) {
                let served = stack.ask(read);
                let context = format!("{name} after {what}");
                reference.check(read, &served, &context).unwrap();
                // A ranked answer also reads the document count, which a
                // delete or an insert moves, and df(r0), which every write
                // to a red spec may move.
                let survives = !read.is_ranked() || (read.query != "r0, b1" && !moves_doc_count);
                if survives {
                    assert!(served.same_arc(old), "{context}: {read:?} was recomputed needlessly");
                    survivors += 1;
                } else {
                    assert!(!served.same_arc(old), "{context}: {read:?} kept stale statistics");
                }
            }
            assert!(survivors > 0);
            if let Some(before) = inline_before {
                let inline = stack.warm_inline().unwrap() - before;
                assert_eq!(inline, survivors, "{name} after {what}: survivors complete inline");
            }
        }
    }
}
