//! Sharded query serving: scatter/gather over one corpus.
//!
//! The [`EngineCluster`] is the one object that serves answers, and the
//! one that caches them; a cluster of one shard is what serves when there
//! is one index, and the uncached [`QueryEngine`](crate::engine::QueryEngine)
//! is the reference it answers like. It owns **one** [`Repository`] and one
//! registry, as Sec. 4 serves every privilege level from one store, and
//! partitions the keyword index over N [`Shard`]s — spec `s` is posted on
//! shard `s % N`, under its own id, beside that shard's view and access
//! memos ([`crate::route`]). A read scatters across the shards and gathers
//! their hits into one merged answer in spec order.
//!
//! **The partitions are built side by side.** Construction — fresh, or
//! over a recovered corpus — builds shard 0's index on the calling thread
//! while shards 1..N build as jobs on the cluster's own [`WorkerPool`],
//! each reading the corpus through a shared handle. The caller then waits
//! on them in shard order, helping drain the pool as it waits, so a
//! 1-thread or busy pool still finishes the build on the caller. The
//! parallelism is the pool the cluster is handed; nothing else spawns a
//! thread.
//!
//! **The read path is written once.** The query mode — keyword, private
//! under a plan, ranked under a ranking mode — is a value (the
//! crate-private `modes` module); everything here is generic over it, in
//! four stages: `probe` the front cache, `plan` (epoch, group check, one
//! parse, one lookup of every term on every shard, target shards, corpus
//! statistics only if the mode needs them and a target survives),
//! `run_shard` per target over the plan's lookup, and `gather` (merge,
//! then publish to the front cache at the plan's epoch). The three public
//! entry points (`search_as`, `private_search_as`, `ranked_search_as`) are
//! instantiations of one blocking `read` that runs the target shards in
//! sequence on the calling thread; the async front ([`crate::serve`]) calls
//! the same four stages, in the same order, from one job on the persistent
//! [`WorkerPool`] that nobody waits for. Plan, shard run and gather are one
//! implementation; only scheduling differs.
//!
//! Three invariants make the cluster *transparent* — answers are
//! bit-identical to a single engine over the same corpus:
//!
//! * **Per-spec independence.** Keyword, private-search and ranked answers
//!   are unions of per-spec results, and every spec is posted on exactly
//!   one shard, so a gather in spec order reproduces the single-engine
//!   hit list exactly. Module privacy is enforced *inside* each shard run —
//!   its hits are sanitized against the group's access views before
//!   anything reaches the gather stage, exactly as in the unsharded model.
//! * **Corpus-global ranking statistics.** TF-IDF scores depend on corpus
//!   document counts; shard-local IDFs would drift. So a shard scores
//!   nothing: its part is hits and their TF profiles. The plan sums
//!   per-shard `(doc_count, df)` into global IDFs, and the gather scores
//!   the gathered profiles once with
//!   [`scores_for_profiles`](crate::ranking::scores_for_profiles) — bitwise
//!   the single engine's math.
//! * **Index-gated scatter.** A shard whose index lacks some query term
//!   cannot contribute a hit (AND semantics), so the plan skips it before
//!   any access-map resolution. This is pure pruning: it never changes an
//!   answer, and it is where sharding beats the single engine even on one
//!   core — selective queries touch one shard's worth of state, not the
//!   whole corpus. A query that no shard can match is answered from the
//!   plan alone, touching no shard's memos at all — not even a df memo.
//!
//! **A term is looked up once per shard.** Stage 2 resolves every query
//! term on every shard's index once ([`KeywordIndex::term_lists`]), and
//! that one resolution is read by everything after it: it picks the
//! target shards (a term with no list rules its shard out), it gives every
//! already-normal single token its per-shard df as its list's length (a
//! phrase's df keeps the index's memo), and each target's shard run
//! intersects, gathers and — for a ranked read of single tokens — reads its
//! TF profiles from the same lists. Ranked reads need every shard resolved
//! anyway, because the corpus dfs count pruned shards too. The plan
//! borrows the cluster for the read guard it runs under, so the lists are
//! plain references into the shards' indexes.
//!
//! An answer is cached once, where it is served: in the **cluster-front
//! result cache**. A shard caches nothing — `run_shard` resolves the
//! group's access on the shard and computes the part — and only the merged
//! answer is kept, in one cache keyed by `(group, query, class)` — the
//! class being the query mode — and tagged with the cluster's **epoch**,
//! one counter that moves by one on every write that can change answers.
//! A warm cluster request is then a single probe plus an `Arc` clone,
//! skipping the scatter and the merge entirely — the per-request work
//! E11's warm column measured against the single engine.
//! A cold one pays one insert, and a retraction has one cache to reach.
//! Execution appends — the dominant provenance write — leave the epoch,
//! and so every front entry, as it is. Every other write moves the epoch
//! but strands only the front entries it can have changed: the shard the
//! written spec is placed on absorbs the write (`Shard::absorb`), the
//! cluster stamps what its index touched into the front's [`TouchStamps`]
//! at the new epoch — the one table a write stamps — and a front probe
//! that finds an entry merged at an older epoch re-admits it exactly when
//! the stamps show nothing it depends on was written since
//! ([`ppwf_repo::touch`] has the rules). A retraction, an edit or a policy
//! swap is therefore never outlived by a merged answer that could name the
//! spec, while reads of everything else stay one probe.

use crate::engine::{CacheSnapshot, EngineStats, Plan, RankedAnswer, Shard, DEFAULT_VIEW_CAPACITY};
use crate::keyword::{KeywordHit, KeywordQuery, Lookup};
use crate::modes::{FrontCache, Keyword, Private, Ranked, ReadMode};
use crate::privacy_exec::PrivateSearchOutcome;
use crate::ranking::RankingMode;
use crate::route::{place, ShardStrategy};
use ppwf_core::policy::Policy;
use ppwf_model::exec::Execution;
use ppwf_model::spec::Specification;
use ppwf_model::{ModelError, Result};
use ppwf_repo::cache::GroupCache;
use ppwf_repo::keyword_index::{KeywordIndex, TermLists};
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::principals::PrincipalRegistry;
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_repo::storage::StorageBackend;
use ppwf_repo::ticket::Ticket;
use ppwf_repo::touch::TouchStamps;
use ppwf_repo::wal::{
    DurabilityPolicy, DurabilityStats, DurableCallback, DurableLog, RecoveryStats, WalResult,
};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

pub use ppwf_repo::mutation::{Mutation, MutationEffect};

/// Default capacity of the front result cache: answers held in total, over
/// every group, query class and ranking mode.
pub(crate) const DEFAULT_RESULT_CAPACITY: usize = 4096;

/// The existing spec a mutation validates against, if any — the key the
/// batch paths use to detect a pending-destructive conflict inside a run.
fn referenced_spec(mutation: &Mutation) -> Option<SpecId> {
    match mutation {
        Mutation::InsertSpec { .. } => None,
        Mutation::AddExecution { spec, .. }
        | Mutation::SetPolicy { spec, .. }
        | Mutation::DeleteSpec { spec }
        | Mutation::EditSpec { spec, .. } => Some(*spec),
    }
}

/// Whether `mutation` references a spec the pending run already touched
/// destructively — the case where pre-run validation is unsound (a
/// deleted target would validate as live) and the run must flush first.
fn referenced_conflicts(mutation: &Mutation, run_destructive: &HashSet<SpecId>) -> bool {
    !run_destructive.is_empty()
        && referenced_spec(mutation).is_some_and(|spec| run_destructive.contains(&spec))
}

/// Record a validated mutation's destructive target, if any, in the
/// pending run's overlay.
fn note_destructive(mutation: &Mutation, run_destructive: &mut HashSet<SpecId>) {
    if let Mutation::DeleteSpec { spec } | Mutation::EditSpec { spec, .. } = mutation {
        run_destructive.insert(*spec);
    }
}

/// A fully merged ranked answer the cluster front caches as one unit: hit
/// list plus ranking, the two halves already aligned by the gather stage.
#[derive(Debug)]
pub struct RankedHits {
    /// Merged hits in spec order.
    pub hits: Vec<KeywordHit>,
    /// Order, scores and profiles aligned with `hits`.
    pub ranked: RankedAnswer,
}

/// A read past the front cache, planned: what [`EngineCluster::plan`] fixes
/// and [`EngineCluster::run_shard`] / [`EngineCluster::gather`] consume. It
/// borrows the cluster it was planned on (`'c`), for as long as the read
/// guard the read runs under.
pub(crate) struct ReadPlan<'c, M> {
    pub(crate) mode: M,
    group: String,
    query_text: String,
    /// `query_text`, parsed once for every target shard.
    query: KeywordQuery,
    /// The front epoch the answer is computed and published at.
    pub(crate) epoch: u64,
    /// `query` looked up on every shard once, shard-major: shard `s`'s
    /// lists are `lists[s * n..(s + 1) * n]` for `n` terms.
    lists: Vec<TermLists<'c>>,
    /// The shards that can contribute, in shard order; empty when index
    /// gating pruned them all (the answer is then empty, and gathered
    /// from no parts).
    pub(crate) targets: Vec<usize>,
    /// Corpus-global IDFs, when the mode merges with them.
    pub(crate) idfs: Vec<f64>,
}

/// Per-shard and rolled-up cache counters for operators and E11/E13.
///
/// The cluster's one result cache is its front. A shard has no result
/// cache, so the `keyword`, `private` and `ranked` snapshots of `per_shard`
/// and `aggregate` read zero by construction; their `views` and `access`
/// snapshots count the memos the shards do keep.
#[derive(Clone, Debug)]
pub struct ClusterStats {
    /// One [`EngineStats`] per shard, in shard order.
    pub per_shard: Vec<EngineStats>,
    /// Field-wise sum across shards (rates derive from summed counters, so
    /// idle shards cannot produce NaN or dilute a rate).
    pub aggregate: EngineStats,
    /// The cluster-front result cache, over every query class: hits here
    /// skipped the scatter and the merge entirely.
    pub front: CacheSnapshot,
}

/// The sharded serving stack. See the module docs.
pub struct EngineCluster {
    /// The one corpus; every shard indexes a partition of it.
    repo: Repository,
    registry: PrincipalRegistry,
    /// Shard `i` indexes the specs `place` puts on it.
    shards: Vec<Shard>,
    pool: Arc<WorkerPool>,
    /// The cluster-front merged-answer cache, tagged with
    /// [`Self::front_epoch`]: the one cached tier.
    front: FrontCache,
    /// What each move of the epoch touched: decides which front entries
    /// merged at an older epoch are re-admitted. Written only by writes
    /// (`&mut self` — behind the serving front's write lock), read by
    /// probes (`&self`), so it needs no synchronisation of its own.
    front_stamps: TouchStamps,
    /// The front epoch ([`Self::front_epoch`]).
    epoch: u64,
    /// When present, every mutation is appended here before it is
    /// applied. See [`Self::attach_durability`].
    durability: Option<DurableLog>,
}

impl EngineCluster {
    /// Partition `repo`'s index across `shards` shards (round-robin
    /// placement, the process-global pool, default cache capacities); the
    /// partitions are built on that pool (see [`Self::with_config`]).
    pub fn new(repo: Repository, registry: PrincipalRegistry, shards: usize) -> Self {
        Self::with_config(
            repo,
            registry,
            shards,
            ShardStrategy::RoundRobin,
            Arc::clone(WorkerPool::global()),
        )
    }

    /// Full-control construction: placement strategy and serving pool —
    /// the pool an attached log runs its sync and snapshot jobs on, and
    /// the one a [`ServeFront`](crate::serve::ServeFront) built with
    /// [`ServeFront::new`](crate::serve::ServeFront::new) runs read jobs
    /// on. The blocking reads never touch it.
    ///
    /// The index partitions are built on `pool` too: shards 1..N as its
    /// jobs, shard 0 on the calling thread, which then waits on the rest in
    /// shard order and helps the pool meanwhile. A panicking build
    /// re-throws here.
    pub fn with_config(
        repo: Repository,
        registry: PrincipalRegistry,
        shards: usize,
        strategy: ShardStrategy,
        pool: Arc<WorkerPool>,
    ) -> Self {
        let ShardStrategy::RoundRobin = strategy;
        Self::with_capacities(
            repo,
            registry,
            shards,
            pool,
            DEFAULT_VIEW_CAPACITY,
            DEFAULT_RESULT_CAPACITY,
        )
    }

    /// [`Self::with_config`] with explicit cache capacities: `views` per
    /// spec in each shard's view memo, `results` in the cluster-front cache
    /// (the shards have no result caches). Crate-private — production
    /// always runs the defaults; the eviction-pressure tests starve the
    /// caches through it. The one constructor under [`Self::new`],
    /// [`Self::with_config`] and [`Self::open_durable`]: it builds the
    /// partitions on `pool` as [`Self::with_config`] describes.
    pub(crate) fn with_capacities(
        repo: Repository,
        registry: PrincipalRegistry,
        shards: usize,
        pool: Arc<WorkerPool>,
        views: usize,
        results: usize,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        let partition = move |repo: &Repository, s| {
            KeywordIndex::build_partition(repo, |spec| place(spec, shards) == s)
        };
        let repo = Arc::new(repo);
        let jobs: Vec<Ticket<KeywordIndex>> = (1..shards)
            .map(|s| {
                let repo = Arc::clone(&repo);
                pool.submit(move || partition(&repo, s))
            })
            .collect();
        let first = partition(&repo, 0);
        let shards = std::iter::once(first)
            .chain(jobs.into_iter().map(Ticket::wait))
            .map(|index| Shard::new(index, views))
            .collect();
        // Every job dropped its handle when its closure returned, before
        // its ticket completed.
        let repo = Arc::try_unwrap(repo).expect("partition jobs hold no repository handle");
        EngineCluster {
            repo,
            registry,
            shards,
            pool,
            front: GroupCache::new(results),
            front_stamps: TouchStamps::new(),
            epoch: 0,
            durability: None,
        }
    }

    /// Recover `(snapshot, WAL suffix)` from `backend`, partition the
    /// recovered corpus's index across `shards` shards — built on `pool`,
    /// as [`Self::with_config`] does — and attach the log: the cluster
    /// restart path. Placement is a function of the id, so the
    /// recovered cluster answers bit-identically to the pre-crash one.
    pub fn open_durable(
        backend: Arc<dyn StorageBackend>,
        policy: DurabilityPolicy,
        registry: PrincipalRegistry,
        shards: usize,
        strategy: ShardStrategy,
        pool: Arc<WorkerPool>,
    ) -> WalResult<(Self, RecoveryStats)> {
        let opened = DurableLog::open(backend, policy)?;
        let mut cluster =
            EngineCluster::with_config(opened.repository, registry, shards, strategy, pool);
        let mut log = opened.log;
        log.set_pool(Arc::clone(&cluster.pool));
        cluster.durability = Some(log);
        Ok((cluster, opened.recovery))
    }

    /// Attach a durable log: from here on, every write validates, appends
    /// and only then applies, and the cluster snapshots its corpus on the
    /// log's cadence; the log's sync and snapshot jobs run on the cluster's
    /// pool. If the log is empty while the cluster already holds specs, the
    /// corpus's version is re-stamped to the log's sequence
    /// ([`Repository::set_version`]) and a baseline checkpoint
    /// ([`DurableLog::snapshot_now`]: every slot as one run, one chunk file
    /// plus its manifest) is written first, on this thread, so recovery
    /// always has a base covering the pre-log history.
    /// From then on the repository's version is the log's last appended
    /// sequence number, which is what its cadence snapshots are stamped
    /// with.
    pub fn attach_durability(&mut self, mut log: DurableLog) -> WalResult<()> {
        if log.is_empty() && !self.repo.is_empty() {
            self.repo.set_version(log.stats().last_seq);
            log.snapshot_now(&self.repo)?;
        }
        log.set_pool(Arc::clone(&self.pool));
        self.durability = Some(log);
        Ok(())
    }

    /// `(max_batch, max_delay_us)` of the attached log's policy — how the
    /// serving front sizes and holds its fenced write batches; one write
    /// per batch and no delay without a log (there is no fsync to share).
    pub(crate) fn write_batching(&self) -> (usize, u64) {
        self.durability.as_ref().map_or((1, 0), |log| {
            let policy = log.policy();
            (policy.max_batch.max(1), policy.max_delay_us)
        })
    }

    /// Block until every appended frame's covering fsync has fired its
    /// acknowledgement (test/bench quiescing; the write path never waits).
    pub fn wait_for_pipeline(&self) {
        if let Some(log) = self.durability.as_ref() {
            log.wait_for_pipeline();
        }
    }

    /// Whether the attached log has a snapshot job in flight
    /// (test/bench quiescing; the write path never waits on this).
    pub fn background_snapshot_in_flight(&self) -> bool {
        self.durability.as_ref().is_some_and(|log| log.background_snapshot_in_flight())
    }

    /// Durability counters, when a log is attached.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.durability.as_ref().map(|log| log.stats())
    }

    /// The one corpus (read-only; writes go through [`Self::mutate`]).
    pub fn repo(&self) -> &Repository {
        &self.repo
    }

    /// The epoch as a version vector of one component, kept for callers
    /// that sum it: the shards share one corpus and one clock.
    pub fn version_vector(&self) -> Vec<u64> {
        vec![self.epoch]
    }

    /// The epoch front entries are tagged with: it moves by one on every
    /// write that can change answers and holds still across execution
    /// appends. It is the cluster's own counter, not the repository's
    /// version, which also counts execution appends and is re-stamped by
    /// [`Self::attach_durability`]. The async serving front's fence leans
    /// on it too: an admitted read's epoch cannot move while the read is
    /// in flight, because mutations drain in-flight reads first.
    pub(crate) fn front_epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in shard order (read-only; writes go through
    /// [`Self::mutate`]). A shard has no result cache and no read entry
    /// point of its own.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The group registry.
    pub fn registry(&self) -> &PrincipalRegistry {
        &self.registry
    }

    /// How many shards a query would scatter to after index gating — the
    /// pruning diagnostic E11 reports (and operators watch: a mix that
    /// always touches every shard gets no routing benefit).
    pub fn probe_target_count(&self, query_text: &str) -> usize {
        self.resolve(&KeywordQuery::parse(query_text)).1.len()
    }

    /// Look `query`'s terms up on every shard, once (shard-major, as
    /// [`ReadPlan`] keeps them), and keep as targets the shards where every
    /// term has a list: AND semantics make the others unreachable, so the
    /// pruning never changes an answer. A tokenless query targets no shard.
    fn resolve(&self, query: &KeywordQuery) -> (Vec<TermLists<'_>>, Vec<usize>) {
        let terms = query.terms.len();
        let mut lists = Vec::with_capacity(terms * self.shards.len());
        for shard in &self.shards {
            shard.index().term_lists(&query.terms, &mut lists);
        }
        let targets = match terms {
            0 => Vec::new(),
            _ => lists
                .chunks_exact(terms)
                .enumerate()
                .filter(|(_, row)| row.iter().all(TermLists::may_match))
                .map(|(s, _)| s)
                .collect(),
        };
        (lists, targets)
    }

    /// The serving pool: the async front's default, so its read and write
    /// jobs and the log's sync and snapshot jobs drain one queue.
    pub(crate) fn pool_handle(&self) -> Arc<WorkerPool> {
        Arc::clone(&self.pool)
    }

    /// Privilege-filtered keyword search, scattered and gathered in spec
    /// order. Returns `None` for unknown groups. Warm requests are served
    /// from the cluster-front cache — one probe, no scatter, no merge; a
    /// miss computes every target shard's part and caches only the merged
    /// answer.
    pub fn search_as(&self, group: &str, query_text: &str) -> Option<Arc<Vec<KeywordHit>>> {
        self.read(Keyword, group, query_text)
    }

    /// Privacy-preserving search under an explicit plan; per-shard hits are
    /// gathered in spec order and the plans' cost counters (views built,
    /// zoom steps, discards) are summed — each is a count of per-spec work,
    /// so the sum equals the single-engine figure.
    pub fn private_search_as(
        &self,
        group: &str,
        query_text: &str,
        plan: Plan,
    ) -> Option<Arc<PrivateSearchOutcome>> {
        self.read(Private(plan), group, query_text)
    }

    /// Ranked keyword search. Shards contribute hits and TF profiles; the
    /// gather stage scores every profile once with corpus-global IDFs summed
    /// over *all* shards — including pruned ones, whose document counts
    /// still shape the statistics — so scores and order are bit-identical
    /// to a single engine over the same corpus.
    pub fn ranked_search_as(
        &self,
        group: &str,
        query_text: &str,
        mode: RankingMode,
    ) -> Option<Arc<RankedHits>> {
        self.read(Ranked(mode), group, query_text)
    }

    /// The blocking read: the four stages below, every target shard run
    /// in sequence on the calling thread. [`crate::serve`] runs the same
    /// four in one pool job and waits for nothing.
    fn read<M: ReadMode>(&self, mode: M, group: &str, query_text: &str) -> Option<Arc<M::Answer>> {
        if let Some(hit) = self.probe(mode, group, query_text, false) {
            return Some(hit);
        }
        let plan = &self.plan(mode, group.to_owned(), query_text.to_owned())?;
        let parts = (0..plan.targets.len()).map(|slot| self.run_shard(plan, slot)).collect();
        Some(self.gather(plan, parts))
    }

    /// Stage 1 — probe the cluster-front cache under `mode`'s class at the
    /// current [`Self::front_epoch`]: the one place the front's validity
    /// rule is written. An entry merged at this epoch is served as it is. One
    /// merged at an older epoch is served, and re-tagged, iff the stamps
    /// show that no write since can have changed it; so whatever this
    /// returns is the current epoch's answer. Comes before the registry
    /// walk — a warm hit does no access work at all — and only registered
    /// groups ever get entries inserted, so a hit implies a known group.
    ///
    /// `early` marks a probe whose failure is not the read's last word —
    /// the serving front probes when a read is submitted and again when it
    /// is admitted — so it counts only a hit (`get_validated_early`) and
    /// each read appears in [`ClusterStats::front`] once, with its final
    /// outcome.
    pub(crate) fn probe<M: ReadMode>(
        &self,
        mode: M,
        group: &str,
        query_text: &str,
        early: bool,
    ) -> Option<Arc<M::Answer>> {
        let (class, epoch) = (mode.class(), self.front_epoch());
        let vouched = |tag| self.front_stamps.survives(query_text, tag, M::DEPENDS);
        let cached = if early {
            self.front.get_validated_early(group, query_text, class, epoch, vouched)
        } else {
            self.front.get_validated(group, query_text, class, epoch, vouched)
        };
        cached.map(|answer| answer.downcast().expect("a class holds its mode's answer"))
    }

    /// Stage 2 — plan a read the front cache could not answer: fix its
    /// epoch, refuse unknown groups (`None`), parse the query once, look
    /// every term up on every shard once and keep the shards that can
    /// contribute, and — only if some shard survived the pruning, so a
    /// query nothing can match leaves no trace in any shard's df memo —
    /// collect what `mode` merges with beyond the parts, from the same
    /// lists.
    pub(crate) fn plan<M: ReadMode>(
        &self,
        mode: M,
        group: String,
        query_text: String,
    ) -> Option<ReadPlan<'_, M>> {
        let epoch = self.front_epoch();
        self.registry.group(&group)?;
        let query = KeywordQuery::parse(&query_text);
        let (lists, targets) = self.resolve(&query);
        let idfs = if targets.is_empty() {
            Vec::new()
        } else {
            mode.corpus_idfs(&self.shards, &query, &lists)
        };
        Some(ReadPlan { mode, group, query_text, query, epoch, lists, targets, idfs })
    }

    /// Stage 3 — target `slot`'s part of the answer, computed on the shard
    /// under the group's access there, over the lists the plan looked up,
    /// and cached nowhere: the front caches the merged answer, and a shard
    /// has no result cache.
    /// Module privacy is enforced here, inside the shard run: its hits are
    /// sanitized against the group's access views before anything reaches
    /// the gather.
    pub(crate) fn run_shard<M: ReadMode>(&self, plan: &ReadPlan<'_, M>, slot: usize) -> M::Part {
        let s = plan.targets[slot];
        let shard = &self.shards[s];
        let terms = plan.query.terms.len();
        let lists = &plan.lists[s * terms..(s + 1) * terms];
        let lookup = Lookup { index: shard.index(), lists };
        let access = shard.access_cache().resolver(&self.registry, &self.repo, &plan.group);
        let access = access.expect("the plan admitted a registered group");
        plan.mode.part(&self.repo, shard, lookup, &access, &plan.query)
    }

    /// Stage 4 — gather: hand the target shards' parts (in target order)
    /// to the mode's merge, which moves them into one answer in spec order
    /// (a single part is the answer), and publish the answer to the front
    /// cache at the plan's epoch.
    pub(crate) fn gather<M: ReadMode>(
        &self,
        plan: &ReadPlan<'_, M>,
        parts: Vec<M::Part>,
    ) -> Arc<M::Answer> {
        let merged = Arc::new(M::merge(plan, parts));
        let (group, query, class) = (&plan.group, &plan.query_text, plan.mode.class());
        self.front.insert(group, query, class, plan.epoch, Arc::clone(&merged) as _);
        merged
    }

    /// Apply a typed mutation — the same [`Mutation`] vocabulary and
    /// [`MutationEffect`] contract as
    /// [`QueryEngine::mutate`](crate::engine::QueryEngine::mutate). The
    /// repository applies it, and the one shard the written spec is placed
    /// on absorbs the effect (`Shard::absorb`): only that shard's index
    /// is maintained. The front cache is never swept: an answer-changing
    /// write moves the epoch and stamps the written spec's vocabulary at
    /// the new epoch, and each front entry is judged against the stamps at
    /// its next probe; an execution append moves neither.
    ///
    /// With durability attached this is a one-element
    /// [`Self::mutate_batch`]: the mutation is validated first
    /// ([`Repository::check`], so the log never holds a record that fails
    /// on replay), appended and fsynced, and only then applied. An `Err`
    /// from the append means nothing was acknowledged and nothing changed.
    pub fn mutate(&mut self, mutation: Mutation) -> Result<MutationEffect> {
        self.mutate_batch(vec![mutation]).pop().expect("one outcome per mutation").0
    }

    /// Apply a run of mutations durably: each mutation validates
    /// individually against the current state (the check stays
    /// per-record, so the log never holds an unreplayable record), maximal
    /// valid runs append as **one** WAL record each — one inline fsync
    /// acknowledges the whole run before its outcomes are returned —
    /// applies follow in sequence order, and the returned outcomes (effect
    /// plus the front epoch after that mutation) are bit-identical to
    /// calling [`Self::mutate`] once per element, in order.
    ///
    /// Validating against the *pre-run* state is sound for the
    /// non-destructive vocabulary: an `InsertSpec` check is
    /// state-independent, and `AddExecution` / `SetPolicy` need only
    /// entry existence and the immutable spec structure, neither of which
    /// a non-destructive predecessor can revoke. `DeleteSpec` (and, kept
    /// conservative, `EditSpec`) break that monotonicity — a record
    /// validated while its target was still live would be unreplayable —
    /// so the run carries a destructive overlay: a mutation referencing a
    /// spec the pending run already deleted or edited flushes the run
    /// first and validates against the applied state, exactly the state
    /// the sequential reference would have shown it. A mutation that
    /// *fails* the pre-run check likewise flushes the pending run first
    /// and re-validates against the updated state.
    ///
    /// Without an attached log every mutation simply applies in order
    /// (there is nothing to validate ahead of, and no fsync to share).
    pub fn mutate_batch(&mut self, mutations: Vec<Mutation>) -> Vec<(Result<MutationEffect>, u64)> {
        self.mutate_runs(mutations, None)
    }

    /// [`Self::mutate_batch`] with the covering fsyncs left to the log's
    /// sync job ([`DurableLog::commit`]), so this returns
    /// — and the caller may admit the next batch — while the fsync
    /// covering the runs is still in flight.
    ///
    /// For every run that reaches the log, `on_run_durable(range)` is
    /// called once to mint the run's durability callback; `range` indexes
    /// the *input* `mutations` (equivalently the returned outcomes) the
    /// run covers. The callback fires with the run's durability verdict —
    /// `Ok` only after the covering fsync. **Nothing in the returned
    /// outcomes is acknowledgeable until its run's callback reports
    /// `Ok`**: an in-memory `Ok(effect)` whose callback later reports
    /// `Err` must surface to the client as a durability failure.
    /// Mutations that fail validation never join a run and mint no
    /// callback — their `Err` outcome is final; a run whose append errs
    /// synchronously still fires its callback (with an error), so counting
    /// fired callbacks against minted ones is a sound completion barrier.
    /// A cluster without a log mints none: every outcome is final at
    /// return.
    ///
    /// Cadence snapshots still fire here and may cover appended-but-
    /// unacked records: the snapshot itself is durable, so recovery keeps
    /// (never loses) those records — acknowledgement order is unchanged.
    pub fn mutate_batch_pipelined(
        &mut self,
        mutations: Vec<Mutation>,
        mut on_run_durable: impl FnMut(Range<usize>) -> DurableCallback,
    ) -> Vec<(Result<MutationEffect>, u64)> {
        self.mutate_runs(mutations, Some(&mut on_run_durable))
    }

    /// The run-forming loop under every write entry point. `on_run_durable`
    /// says how a run commits: `None` — append with the covering fsync
    /// inline; `Some(mint)` — append pipelined, acknowledging through the
    /// callback `mint` makes for the run's range of `mutations`.
    fn mutate_runs(
        &mut self,
        mutations: Vec<Mutation>,
        mut on_run_durable: Option<&mut dyn FnMut(Range<usize>) -> DurableCallback>,
    ) -> Vec<(Result<MutationEffect>, u64)> {
        let mut out = Vec::with_capacity(mutations.len());
        if self.durability.is_none() {
            for mutation in mutations {
                let effect = self.apply(mutation);
                out.push((effect, self.front_epoch()));
            }
            return out;
        }
        let mut run: Vec<Mutation> = Vec::new();
        let mut run_destructive: HashSet<SpecId> = HashSet::new();
        for mutation in mutations {
            // Ask the pre-run state — unless the pending run already touched
            // the target destructively, which makes it the wrong state to ask.
            let mut checked = (!referenced_conflicts(&mutation, &run_destructive))
                .then(|| self.repo.check(&mutation));
            if !matches!(checked, Some(Ok(()))) && !run.is_empty() {
                // Flush, then judge the mutation against the state the
                // sequential order would have shown it.
                self.flush_run(&mut run, &mut out, &mut on_run_durable);
                run_destructive.clear();
                checked = None;
            }
            match checked.unwrap_or_else(|| self.repo.check(&mutation)) {
                Ok(()) => {
                    note_destructive(&mutation, &mut run_destructive);
                    run.push(mutation);
                }
                Err(e) => out.push((Err(e), self.front_epoch())),
            }
        }
        self.flush_run(&mut run, &mut out, &mut on_run_durable);
        // Cadence snapshots capture copy-on-write out of the repository,
        // whose version is the last appended sequence number.
        if let Some(log) = self.durability.as_mut() {
            log.snapshot_if_due(&self.repo);
        }
        out
    }

    /// Append `run` as one record, apply it in order, and push each
    /// mutation's outcome. A failed append acknowledges nothing: every
    /// member reports the durability error and nothing changes — the
    /// all-or-nothing contract of a single append. A pipelined run's
    /// callback fires exactly once on every path: a synchronous append
    /// failure fires it with an error before the `Err` outcomes are
    /// pushed, an `Ok` append hands it the covering fsync's verdict.
    fn flush_run(
        &mut self,
        run: &mut Vec<Mutation>,
        out: &mut Vec<(Result<MutationEffect>, u64)>,
        on_run_durable: &mut Option<&mut dyn FnMut(Range<usize>) -> DurableCallback>,
    ) {
        if run.is_empty() {
            return;
        }
        let batch = std::mem::take(run);
        let log = self.durability.as_mut().expect("runs form only on the durable path");
        let appended = match on_run_durable {
            Some(mint) => log.commit(&batch, mint(out.len()..out.len() + batch.len())),
            None => log.append_batch(&batch),
        };
        if let Err(e) = appended {
            let detail = e.to_string();
            for _ in &batch {
                out.push((
                    Err(ModelError::invalid(format!("durability: {detail}"))),
                    self.front_epoch(),
                ));
            }
            return;
        }
        for mutation in batch {
            let effect = self.apply(mutation);
            debug_assert!(effect.is_ok(), "a checked, appended mutation must apply");
            out.push((effect, self.front_epoch()));
        }
    }

    /// Apply one validated (and, when durable, already-appended) mutation —
    /// the one write step under every entry point, and the one place a
    /// write is stamped. The repository applies it, an answer-changing
    /// effect moves the epoch, and the shard the written spec is placed on
    /// absorbs the effect and reports what its index touched: the
    /// vocabulary the spec leaves behind (a front entry that named it then
    /// must not survive a delete, an edit or a policy swap), the vocabulary
    /// it arrives with (an answer it belongs in now was merged without
    /// it), and whether the document count moved. All of it is stamped
    /// into the front's table at the epoch. A shard that absorbed another
    /// shard's spec, or a write that bypassed this, would leave front
    /// entries naming the written spec re-admitted.
    fn apply(&mut self, mutation: Mutation) -> Result<MutationEffect> {
        let effect = self.repo.apply(mutation)?;
        self.epoch += u64::from(effect.changes_visible_state());
        let shard = place(effect.spec(), self.shards.len());
        let touched = self.shards[shard].absorb(&self.repo, &effect);
        let (stamps, epoch) = (&mut self.front_stamps, self.epoch);
        stamps.touch(&touched.left, epoch);
        stamps.touch(touched.arrived, epoch);
        if touched.docs_moved {
            stamps.touch_docs(epoch);
        }
        let live_terms = self.shards.iter().map(|s| s.index().term_count()).sum();
        self.front_stamps.trim(live_terms, self.epoch);
        Ok(effect)
    }

    /// Insert a specification; returns its id. Goes through
    /// [`Self::mutate`], so with durability attached the insert is logged
    /// like any other write.
    pub fn insert_spec(&mut self, spec: Specification, policy: Policy) -> Result<SpecId> {
        let effect = self.mutate(Mutation::InsertSpec { spec, policy })?;
        Ok(effect.inserted_id().expect("insert effect carries the new id"))
    }

    /// Record an execution of the spec with id `spec`. Goes through
    /// [`Self::mutate`] (durable when a log is attached).
    pub fn add_execution(&mut self, spec: SpecId, exec: Execution) -> Result<()> {
        self.mutate(Mutation::AddExecution { spec, exec }).map(|_| ())
    }

    /// Replace the policy of the spec with id `spec`. Goes through
    /// [`Self::mutate`] (durable when a log is attached).
    pub fn set_policy(&mut self, spec: SpecId, policy: Policy) -> Result<()> {
        self.mutate(Mutation::SetPolicy { spec, policy }).map(|_| ())
    }

    /// Replace the registry: every shard drops its access memo, and the
    /// front cache — the cluster's only result cache — drops too (group
    /// names may now mean different privileges — epochs cannot see
    /// registry changes).
    pub fn set_registry(&mut self, registry: PrincipalRegistry) {
        self.registry = registry;
        for shard in &self.shards {
            shard.access_cache().clear();
        }
        self.front.clear();
    }

    /// Per-shard snapshots plus the cluster rollup and front-cache
    /// counters.
    pub fn stats(&self) -> ClusterStats {
        let per_shard: Vec<EngineStats> = self.shards.iter().map(Shard::stats).collect();
        let aggregate = EngineStats::merged(&per_shard);
        ClusterStats { per_shard, aggregate, front: CacheSnapshot::of(self.front.stats()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::spec_speaking;
    use crate::engine::QueryEngine;
    use ppwf_core::policy::AccessLevel;
    use ppwf_model::fixtures;
    use ppwf_repo::principals::ViewRule;
    use ppwf_repo::repository::deleted_spec_error;

    fn registry() -> PrincipalRegistry {
        let mut registry = PrincipalRegistry::new();
        registry.add_group("public", AccessLevel(0), ViewRule::RootOnly);
        registry.add_group("researchers", AccessLevel(3), ViewRule::Full);
        registry
    }

    fn corpus(n: usize) -> Repository {
        let mut repo = Repository::new();
        for _ in 0..n {
            let (spec, _) = fixtures::disease_susceptibility();
            repo.insert_spec(spec, Policy::public()).unwrap();
        }
        repo
    }

    fn cluster(specs: usize, shards: usize) -> EngineCluster {
        EngineCluster::new(corpus(specs), registry(), shards)
    }

    #[test]
    fn partitions_built_on_the_pool_equal_sequential_builds() {
        for threads in [1, 2] {
            let pool = Arc::new(WorkerPool::new(threads));
            for shards in 1..=4 {
                let mut repo = corpus(3);
                for word in ["zebra", "yak", "xerus", "wombat"] {
                    repo.insert_spec(spec_speaking(word), Policy::public()).unwrap();
                }
                let strategy = ShardStrategy::RoundRobin;
                let pool = Arc::clone(&pool);
                let c = EngineCluster::with_config(repo, registry(), shards, strategy, pool);
                for (s, shard) in c.shards().iter().enumerate() {
                    let sequential =
                        KeywordIndex::build_partition(c.repo(), |spec| place(spec, shards) == s);
                    assert!(
                        *shard.index() == sequential,
                        "{threads} threads, {shards} shards: {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn construction_completes_while_the_pools_only_worker_is_parked() {
        let pool = Arc::new(WorkerPool::new(1));
        let (started, running) = std::sync::mpsc::channel();
        let (release, parked) = std::sync::mpsc::channel::<()>();
        pool.exec(move || {
            started.send(()).expect("test waiting");
            parked.recv().expect("released");
        });
        running.recv().expect("the worker runs the parked job");
        let strategy = ShardStrategy::RoundRobin;
        let c = EngineCluster::with_config(corpus(6), registry(), 3, strategy, Arc::clone(&pool));
        release.send(()).expect("job parked");
        assert_eq!(c.search_as("researchers", "risk").unwrap().len(), 6);
    }

    #[test]
    fn gathers_all_shards_in_global_order() {
        let c = cluster(5, 2);
        let hits = c.search_as("researchers", "risk").unwrap();
        assert_eq!(hits.len(), 5, "every shard contributes its specs");
        let ids: Vec<u32> = hits.iter().map(|h| h.spec.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "global spec order");
    }

    #[test]
    fn agrees_with_single_engine() {
        let c = cluster(4, 3);
        let single = QueryEngine::new(corpus(4), registry());
        for group in ["public", "researchers"] {
            for q in ["risk", "database", "Database, Disorder Risks", "nonexistent"] {
                let clustered = c.search_as(group, q).unwrap();
                let reference = single.search_as(group, q).unwrap();
                assert_eq!(clustered.len(), reference.len(), "{group}/{q}");
                for (a, b) in clustered.iter().zip(reference.iter()) {
                    assert_eq!(a.spec, b.spec);
                    assert_eq!(a.prefix, b.prefix);
                    assert_eq!(a.matched, b.matched);
                }
            }
        }
    }

    #[test]
    fn groups_never_share_answers() {
        let c = cluster(2, 2);
        assert_eq!(c.search_as("researchers", "database").unwrap().len(), 2);
        assert_eq!(c.search_as("public", "database").unwrap().len(), 0);
        assert_eq!(c.stats().front.hits, 0, "distinct groups cannot hit");
    }

    #[test]
    fn unknown_group_is_refused() {
        let c = cluster(2, 2);
        assert!(c.search_as("nobody", "risk").is_none());
        assert!(c.private_search_as("nobody", "risk", Plan::FilterThenSearch).is_none());
        assert!(c.ranked_search_as("nobody", "risk", RankingMode::ExactFull).is_none());
    }

    #[test]
    fn mutation_routes_and_invalidates() {
        let mut c = cluster(3, 2);
        assert_eq!(c.search_as("researchers", "risk").unwrap().len(), 3);
        let (spec, _) = fixtures::disease_susceptibility();
        let id = c
            .mutate(Mutation::InsertSpec { spec, policy: Policy::public() })
            .unwrap()
            .inserted_id()
            .expect("insert returns id");
        assert_eq!(id, SpecId(3), "global ids are dense");
        assert_eq!(
            c.search_as("researchers", "risk").unwrap().len(),
            4,
            "stale answer served after insert"
        );
    }

    #[test]
    fn execution_and_policy_route_by_global_id() {
        let mut c = cluster(4, 3);
        let spec_entry = c.repo().entry(SpecId(2)).unwrap();
        let exec = fixtures::disease_susceptibility_execution(&spec_entry.spec);
        c.mutate(Mutation::AddExecution { spec: SpecId(2), exec }).unwrap();
        assert_eq!(c.repo().entry(SpecId(2)).unwrap().executions.len(), 1);
        c.mutate(Mutation::SetPolicy { spec: SpecId(2), policy: Policy::public() }).unwrap();
        // Unknown global ids report the cluster-wide spec count.
        let err = c.set_policy(SpecId(99), Policy::public()).unwrap_err();
        match err {
            ModelError::BadId { len, .. } => assert_eq!(len, 4),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn overrides_remap_to_owning_shard() {
        let mut registry = registry();
        // Tighten researchers on global spec 1 only.
        registry.set_override(1, SpecId(1), ViewRule::RootOnly);
        let c = EngineCluster::new(corpus(3), registry, 2);
        let hits = c.search_as("researchers", "database").unwrap();
        // "database" matches M5 (deep in W4): visible on specs 0 and 2,
        // overridden away on spec 1.
        let ids: Vec<u32> = hits.iter().map(|h| h.spec.0).collect();
        assert_eq!(ids, vec![0, 2], "override applied to the right global spec");
    }

    #[test]
    fn registry_swap_reaches_every_shard() {
        let mut c = cluster(2, 2);
        assert_eq!(c.search_as("public", "database").unwrap().len(), 0);
        let mut open = PrincipalRegistry::new();
        open.add_group("public", AccessLevel(3), ViewRule::Full);
        c.set_registry(open);
        assert_eq!(
            c.search_as("public", "database").unwrap().len(),
            2,
            "stale coarse answer served after privilege change"
        );
    }

    /// The three result-cache snapshots of one engine's stats.
    fn result_caches(stats: &EngineStats) -> [CacheSnapshot; 3] {
        [stats.keyword, stats.private, stats.ranked]
    }

    #[test]
    fn stats_roll_up_across_shards() {
        let c = cluster(4, 2);
        c.search_as("researchers", "risk").unwrap();
        c.search_as("researchers", "risk").unwrap();
        let stats = c.stats();
        assert_eq!(stats.per_shard.len(), 2);
        // The memos the shards keep roll up field by field...
        let views = stats.per_shard.iter().fold(CacheSnapshot::default(), |a, s| a.merge(s.views));
        assert_eq!(stats.aggregate.views, views);
        let summed: u64 = stats.per_shard.iter().map(|s| s.access.misses).sum();
        assert_eq!(stats.aggregate.access.misses, summed);
        assert!(summed > 0, "the cold scatter resolved access on the shards");
        // ...while both requests are counted at the front, the one result
        // cache a cluster has: the warm one is absorbed there.
        assert_eq!(stats.front.hits, 1);
        assert_eq!(stats.front.misses, 1);
    }

    #[test]
    fn eviction_counters_roll_up_across_shards_and_front() {
        let c = EngineCluster::with_capacities(
            corpus(4),
            registry(),
            2,
            Arc::clone(WorkerPool::global()),
            2,
            2,
        );
        for q in ["risk", "database", "query", "pubmed"] {
            c.search_as("researchers", q).unwrap();
            c.private_search_as("researchers", q, Plan::FilterThenSearch).unwrap();
            c.ranked_search_as("researchers", q, RankingMode::ExactFull).unwrap();
        }
        let stats = c.stats();
        // Keyword, private and ranked answers: twelve through one front
        // cache of two slots.
        assert_eq!(stats.front.evictions, 12 - 2);
        assert!(stats.front.sweep_steps >= stats.front.evictions);
        // The shards' view memos roll up their eviction work.
        let summed: u64 = stats.per_shard.iter().map(|s| s.views.evictions).sum();
        assert_eq!(stats.aggregate.views.evictions, summed);
        let steps: u64 = stats.per_shard.iter().map(|s| s.views.sweep_steps).sum();
        assert_eq!(stats.aggregate.views.sweep_steps, steps);
    }

    #[test]
    fn front_holds_at_most_capacity_answers() {
        const CAPACITY: usize = 4;
        let pool = Arc::clone(WorkerPool::global());
        let c = EngineCluster::with_capacities(corpus(2), registry(), 2, pool, 2, CAPACITY);
        // Keyword, both plans and 17 ranking modes: twenty classes per pair.
        let modes = [RankingMode::ExactFull, RankingMode::VisibleOnly]
            .into_iter()
            .chain([RankingMode::BucketizedFull { base: 2.0 }])
            .chain((0..14).map(|seed| RankingMode::NoisyFull { epsilon: 1.0, seed }));
        let modes: Vec<RankingMode> = modes.collect();
        let mut answers = 0;
        for group in ["public", "researchers"] {
            for q in ["risk", "database"] {
                c.search_as(group, q).unwrap();
                for plan in [Plan::FilterThenSearch, Plan::SearchThenZoomOut] {
                    c.private_search_as(group, q, plan).unwrap();
                }
                for &mode in &modes {
                    c.ranked_search_as(group, q, mode).unwrap();
                }
                answers += 3 + modes.len() as u64;
                assert!(c.front.len() <= CAPACITY, "{} answers resident", c.front.len());
            }
        }
        let front = c.stats().front;
        assert_eq!((front.hits, front.misses), (0, answers), "every answer is distinct");
        assert_eq!(front.evictions, answers - CAPACITY as u64, "one capacity over every class");
        c.front.assert_consistent();
    }

    #[test]
    fn one_groups_mode_churn_does_not_evict_anothers_ranked_answers() {
        let c = cluster(2, 2);
        let exact = c.ranked_search_as("researchers", "risk", RankingMode::ExactFull).unwrap();
        for seed in 0..3 * 16 {
            let mode = RankingMode::NoisyFull { epsilon: 1.0, seed };
            c.ranked_search_as("public", "risk", mode).unwrap();
        }
        assert!(c.front.len() < DEFAULT_RESULT_CAPACITY, "the churn stays below capacity");
        let again = c.ranked_search_as("researchers", "risk", RankingMode::ExactFull).unwrap();
        assert!(Arc::ptr_eq(&exact, &again), "another group's mode churn evicted the answer");
        assert_eq!(c.stats().front.evictions, 0);
    }

    #[test]
    fn revalidations_survive_ranked_mode_churn() {
        let mut c = cluster(1, 1);
        let modes: Vec<RankingMode> =
            (0..32).map(|seed| RankingMode::NoisyFull { epsilon: 1.0, seed }).collect();
        // Warm one mode, re-admit its entry after a policy swap on a spec the
        // query cannot match, then churn through other modes: the
        // re-admission stays on record.
        c.mutate(Mutation::InsertSpec { spec: spec_speaking("zebra"), policy: Policy::public() })
            .unwrap();
        c.ranked_search_as("researchers", "risk", modes[0]).unwrap();
        c.mutate(Mutation::SetPolicy { spec: SpecId(1), policy: Policy::public() }).unwrap();
        c.ranked_search_as("researchers", "risk", modes[0]).unwrap();
        assert_eq!(c.stats().front.revalidations, 1);
        for &mode in &modes[1..] {
            c.ranked_search_as("researchers", "risk", mode).unwrap();
        }
        assert_eq!(c.stats().front.revalidations, 1, "mode churn must not erase history");
    }

    #[test]
    fn revalidations_roll_up_across_shards_and_front() {
        let mut c = cluster(4, 2);
        let mode = RankingMode::ExactFull;
        let keyword = c.search_as("researchers", "risk").unwrap();
        let private = c.private_search_as("researchers", "risk", Plan::FilterThenSearch).unwrap();
        let ranked = c.ranked_search_as("researchers", "risk", mode).unwrap();
        // Global spec 4 lands on shard 0 and shares no token with the query.
        c.mutate(Mutation::InsertSpec { spec: spec_speaking("zebra"), policy: Policy::public() })
            .unwrap();
        assert!(Arc::ptr_eq(&keyword, &c.search_as("researchers", "risk").unwrap()));
        let again = c.private_search_as("researchers", "risk", Plan::FilterThenSearch).unwrap();
        assert!(Arc::ptr_eq(&private, &again));
        // The corpus document count moved: the merged ranked answer is
        // rejected at the front and recomputed from every target's part.
        let again = c.ranked_search_as("researchers", "risk", mode).unwrap();
        assert!(!Arc::ptr_eq(&ranked, &again));
        let stats = c.stats();
        assert_eq!((stats.front.revalidations, stats.front.invalidations), (2, 1));
        assert_eq!((stats.front.hits, stats.front.misses), (2, 4));
        assert!(!c.front_stamps.is_empty(), "the write stamped the front's table");
    }

    #[test]
    fn a_cluster_caches_each_answer_once() {
        use crate::serve::{QueryAnswer, ServeFront, ServeRequest};
        let (fixture, _) = fixtures::disease_susceptibility();
        let writes = [
            Mutation::InsertSpec { spec: spec_speaking("zebra"), policy: Policy::public() },
            Mutation::AddExecution {
                spec: SpecId(0),
                exec: fixtures::disease_susceptibility_execution(&fixture),
            },
            Mutation::SetPolicy { spec: SpecId(1), policy: Policy::public() },
            edit_of(SpecId(2)),
            Mutation::DeleteSpec { spec: SpecId(3) },
        ];
        let queries = ["risk", "database", "zebra", "redacted", "database, risk"];
        let (plan, mode) = (Plan::FilterThenSearch, RankingMode::ExactFull);
        let mut blocking = cluster(4, 2);
        let front = ServeFront::new(cluster(4, 2));
        let mut reads = 0;
        for round in 0..=writes.len() {
            for (group, query) in ["public", "researchers"].into_iter().flat_map(|g| {
                queries.into_iter().chain(queries).map(move |q| (g.to_owned(), q.to_owned()))
            }) {
                blocking.search_as(&group, &query).unwrap();
                blocking.private_search_as(&group, &query, plan).unwrap();
                blocking.ranked_search_as(&group, &query, mode).unwrap();
                for request in [
                    ServeRequest::Keyword { group: group.clone(), query: query.clone() },
                    ServeRequest::Private { group: group.clone(), query: query.clone(), plan },
                    ServeRequest::Ranked { group: group.clone(), query: query.clone(), mode },
                ] {
                    front.submit(request).wait();
                }
                reads += 3;
            }
            if let Some(write) = writes.get(round) {
                blocking.mutate(write.clone()).unwrap();
                let response = front.submit(ServeRequest::mutate(write.clone())).wait();
                assert!(matches!(response.answer, QueryAnswer::Mutated(Ok(_))));
            }
        }
        let one_tier = |c: &EngineCluster| {
            let stats = c.stats();
            for s in &stats.per_shard {
                assert_eq!(result_caches(s), [CacheSnapshot::default(); 3]);
            }
            assert_eq!(stats.front.hits + stats.front.misses, reads, "one front lookup per read");
            assert!(stats.front.revalidations > 0 && stats.front.invalidations > 0);
        };
        one_tier(&blocking);
        front.quiesce();
        front.with_cluster(one_tier);
    }

    #[test]
    fn front_stamp_table_stays_bounded_under_fresh_vocabulary_churn() {
        let mut c = cluster(2, 2);
        let single = QueryEngine::new(corpus(2), registry());
        let reference = single.search_as("researchers", "risk").unwrap();
        c.search_as("researchers", "risk").unwrap();
        let (mut previous, mut resets) = (0, 0);
        for i in 0..300 {
            let spec = spec_speaking(&format!("fresh{i}"));
            let id = c
                .mutate(Mutation::InsertSpec { spec, policy: Policy::public() })
                .unwrap()
                .inserted_id()
                .unwrap();
            c.mutate(Mutation::DeleteSpec { spec: id }).unwrap();
            let live: usize = c.shards().iter().map(|s| s.index().term_count()).sum();
            let stamps = c.front_stamps.len();
            assert!(stamps <= 2 * live + 64, "{stamps} front stamps for {live} live terms");
            resets += usize::from(stamps < previous);
            previous = stamps;
            let served = c.search_as("researchers", "risk").unwrap();
            assert_eq!(served.len(), reference.len());
            for (a, b) in served.iter().zip(reference.iter()) {
                assert_eq!((a.spec, &a.prefix, &a.matched), (b.spec, &b.prefix, &b.matched));
            }
        }
        assert!(resets >= 1, "300 fresh tokens must cross the front table's bound");
        let front = c.stats().front;
        assert_eq!(front.invalidations, resets as u64, "a reset costs the entry one miss");
        assert_eq!(front.revalidations, 300 - resets as u64, "and every other write none");
    }

    #[test]
    fn reopened_cluster_starts_with_empty_stamps_and_caches() {
        use ppwf_repo::storage::{FaultPlan, MemStorage};
        let policy = DurabilityPolicy::default();
        let open = |storage: &Arc<MemStorage>| {
            EngineCluster::open_durable(
                Arc::clone(storage) as Arc<dyn StorageBackend>,
                policy,
                registry(),
                2,
                ShardStrategy::RoundRobin,
                Arc::new(WorkerPool::new(1)),
            )
            .expect("open durable cluster")
            .0
        };
        let storage = Arc::new(MemStorage::new());
        let mut c = open(&storage);
        let mut mirror = Repository::new();
        let (fixture, _) = fixtures::disease_susceptibility();
        let mut acked = vec![
            Mutation::InsertSpec { spec: fixture.clone(), policy: Policy::public() },
            Mutation::InsertSpec { spec: spec_speaking("zebra"), policy: Policy::public() },
            Mutation::InsertSpec { spec: fixture, policy: Policy::public() },
        ];
        for m in &acked {
            c.mutate(m.clone()).unwrap();
        }
        let queries = ["risk", "zebra", "database, risk"];
        let ask = |c: &EngineCluster| {
            for q in queries {
                c.search_as("researchers", q).unwrap();
                c.ranked_search_as("public", q, RankingMode::ExactFull).unwrap();
            }
        };
        ask(&c);
        // Writes that leave older-tag entries and stamps behind.
        let more = [
            Mutation::SetPolicy { spec: SpecId(1), policy: Policy::public() },
            edit_of(SpecId(2)),
            Mutation::DeleteSpec { spec: SpecId(1) },
        ];
        for m in more {
            c.mutate(m.clone()).unwrap();
            acked.push(m);
            ask(&c);
        }
        assert!(!c.front_stamps.is_empty() && c.stats().front.revalidations > 0);
        // Power loss in the middle of the next record.
        storage.set_plan(FaultPlan {
            crash_after_bytes: Some(storage.bytes_appended() + 9),
            ..FaultPlan::default()
        });
        assert!(c.mutate(Mutation::DeleteSpec { spec: SpecId(0) }).is_err());
        assert!(storage.crashed());
        drop(c);

        // Stamps and caches are derived state: nothing of them is logged or
        // snapshotted, so the reopened cluster has none.
        let c = open(&Arc::new(storage.reopen()));
        assert!(c.front_stamps.is_empty());
        let stats = c.stats();
        assert_eq!(stats.front, CacheSnapshot::default());
        assert_eq!(stats.aggregate.views, CacheSnapshot::default());
        assert_eq!(stats.aggregate.access, CacheSnapshot::default());
        for m in acked {
            mirror.apply(m).unwrap();
        }
        let single = QueryEngine::new(mirror, registry());
        for group in ["public", "researchers"] {
            for q in queries {
                let served = c.ranked_search_as(group, q, RankingMode::ExactFull).unwrap();
                let (hits, ranked) =
                    single.ranked_search_as(group, q, RankingMode::ExactFull).unwrap();
                assert_eq!(served.hits.len(), hits.len(), "{group}/{q}");
                for (a, b) in served.hits.iter().zip(hits.iter()) {
                    assert_eq!((a.spec, &a.prefix, &a.matched), (b.spec, &b.prefix, &b.matched));
                }
                assert!(served.ranked.bitwise_eq(&ranked), "{group}/{q}");
            }
        }
    }

    /// Cadence snapshots are stamped with the repository's version, so it
    /// must be the log's last appended sequence number at every point a
    /// snapshot can be taken.
    #[test]
    fn the_repository_version_is_the_last_appended_sequence() {
        use ppwf_repo::storage::MemStorage;
        // A snapshot is due every other write, so cadence snapshots fire
        // after each batch.
        let policy = DurabilityPolicy { snapshot_every: 2, ..DurabilityPolicy::pipelined(4, 0) };
        let storage: Arc<dyn StorageBackend> = Arc::new(MemStorage::new());
        let pool = Arc::new(WorkerPool::new(1));
        let in_step = |c: &EngineCluster| {
            c.wait_for_pipeline();
            while c.background_snapshot_in_flight() {
                std::thread::yield_now();
            }
            let last = c.durability_stats().expect("a log is attached").last_seq;
            assert_eq!(c.repo().version(), last, "the corpus version is the log's sequence");
            last
        };
        let strategy = ShardStrategy::RoundRobin;
        let mut c =
            EngineCluster::with_config(corpus(4), registry(), 2, strategy, Arc::clone(&pool));
        let opened = DurableLog::open(Arc::clone(&storage), policy).unwrap();
        c.attach_durability(opened.log).unwrap();
        assert_eq!(in_step(&c), 0, "the preloaded corpus is the baseline at sequence 0");

        let exec =
            fixtures::disease_susceptibility_execution(&c.repo().entry(SpecId(0)).unwrap().spec);
        let outcomes = c.mutate_batch(vec![
            Mutation::AddExecution { spec: SpecId(0), exec: exec.clone() },
            Mutation::DeleteSpec { spec: SpecId(1) },
            // Refused: appends nothing and applies nothing.
            Mutation::DeleteSpec { spec: SpecId(1) },
            edit_of(SpecId(2)),
        ]);
        assert_eq!(outcomes.iter().filter(|(outcome, _)| outcome.is_err()).count(), 1);
        assert_eq!(in_step(&c), 3);
        c.mutate_batch_pipelined(
            vec![
                Mutation::SetPolicy { spec: SpecId(3), policy: Policy::public() },
                Mutation::AddExecution { spec: SpecId(1), exec: exec.clone() },
                Mutation::InsertSpec { spec: spec_speaking("zebra"), policy: Policy::public() },
                Mutation::AddExecution { spec: SpecId(0), exec },
            ],
            |_| Box::new(|_| ()),
        );
        assert_eq!(in_step(&c), 6);
        assert!(c.durability_stats().unwrap().background_snapshots > 0, "cadence snapshots ran");
        let image = c.repo().save();
        drop(c);

        let (c, _) =
            EngineCluster::open_durable(storage, policy, registry(), 3, strategy, pool).unwrap();
        assert_eq!(in_step(&c), 6);
        assert_eq!(c.repo().save(), image, "snapshot plus suffix recover the corpus");
    }

    #[test]
    fn access_resolution_is_lazy_per_shard() {
        let c = cluster(6, 3);
        // No candidate postings anywhere: no shard resolves a single rule.
        c.search_as("researchers", "unobtainium").unwrap();
        assert_eq!(c.stats().aggregate.access.misses, 0, "empty scatter must resolve nothing");
        // A real query: each targeted shard resolves only its local
        // candidates, so the cluster-wide total is bounded by the corpus.
        c.search_as("researchers", "database").unwrap();
        let stats = c.stats();
        assert!(stats.aggregate.access.misses > 0);
        assert!(stats.aggregate.access.misses <= 6);
    }

    #[test]
    fn zero_lookup_rates_are_zero_not_nan() {
        let c = cluster(2, 2);
        let stats = c.stats();
        assert_eq!(stats.front.hit_rate(), 0.0);
        assert_eq!(stats.aggregate.access.hit_rate(), 0.0);
        assert!(stats.per_shard.iter().all(|s| s.views.hit_rate() == 0.0));
        // A shard has no result cache: its result rates are a defined 0
        // however much the cluster serves.
        c.search_as("researchers", "risk").unwrap();
        c.search_as("researchers", "risk").unwrap();
        let stats = c.stats();
        assert_eq!(stats.front.hit_rate(), 0.5);
        assert_eq!(stats.aggregate.keyword.hit_rate(), 0.0);
    }

    #[test]
    fn pruned_shards_still_shape_ranking_statistics() {
        let c = cluster(4, 4);
        let single = QueryEngine::new(corpus(4), registry());
        let answer = c.ranked_search_as("researchers", "database", RankingMode::ExactFull).unwrap();
        let (shits, sranked) =
            single.ranked_search_as("researchers", "database", RankingMode::ExactFull).unwrap();
        assert_eq!(answer.hits.len(), shits.len());
        assert_eq!(answer.ranked.order, sranked.order);
        assert_eq!(answer.ranked.scores, sranked.scores, "IDF must be corpus-global");
    }

    /// The query `İ` parses to the term `i` + U+0307, which the index keys
    /// as its own token but which would re-tokenize to `i`. Its df is its
    /// own list's — one module here, where `i` has two — and the engine and
    /// the cluster score it with that IDF, also after a write posts the
    /// term again (its memoized df is filed under the key it reads).
    #[test]
    fn a_normalized_non_ascii_term_is_scored_with_its_own_df() {
        let speaking = |name: &str| {
            let mut spec = spec_speaking("filler");
            let first = spec.modules().find(|m| !m.kind.is_distinguished()).map(|m| m.id);
            spec.set_module_text(first.unwrap(), name, &[]).unwrap();
            spec
        };
        let mut repo = Repository::new();
        for name in ["İ", "i", "i"] {
            repo.insert_spec(speaking(name), Policy::public()).unwrap();
        }
        let index = KeywordIndex::build(&repo);
        let term = KeywordQuery::parse("İ").terms.remove(0);
        assert_eq!(term, "i\u{307}");
        let lists = index.term_list(&term);
        let own = lists.primary.map_or(0, |list| list.len());
        assert_eq!((own, index.term_list("i").primary.map_or(0, |list| list.len())), (1, 2));
        assert_eq!(index.df_resolved(&term, &lists), own);
        assert_eq!((index.df("İ"), index.df_cached("İ")), (own, own), "raw text tokenizes");

        let mode = RankingMode::ExactFull;
        let mut single = QueryEngine::new(Repository::load(&repo.save()).unwrap(), registry());
        let mut cluster = EngineCluster::new(repo, registry(), 2);
        for df in [1, 2] {
            let (hits, ranked) = single.ranked_search_as("researchers", "İ", mode).unwrap();
            assert_eq!(hits.len(), df);
            let idf = KeywordIndex::idf_from_counts(single.index().doc_count(), df);
            for (score, profile) in ranked.scores.iter().zip(&ranked.profiles) {
                let want = crate::ranking::score_with_idfs(&[idf], profile, mode);
                assert_eq!(score.to_bits(), want.to_bits(), "scored with another term's df");
            }
            let answer = cluster.ranked_search_as("researchers", "İ", mode).unwrap();
            assert_eq!(answer.ranked.order, ranked.order);
            assert_eq!(answer.ranked.scores, ranked.scores);
            let insert = Mutation::InsertSpec { spec: speaking("İ"), policy: Policy::public() };
            single.mutate(insert.clone()).unwrap();
            cluster.mutate(insert).unwrap();
        }
    }

    #[test]
    fn front_cache_serves_warm_requests_without_scatter() {
        let c = cluster(4, 2);
        let cold = c.search_as("researchers", "risk").unwrap();
        let before = c.stats();
        let warm = c.search_as("researchers", "risk").unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "warm request must share the merged answer");
        let after = c.stats();
        assert_eq!(after.front.hits, before.front.hits + 1);
        // What a shard run consults: the access and view memos.
        let shard_lookups = |s: &ClusterStats| {
            let (access, views) = (s.aggregate.access, s.aggregate.views);
            access.hits + access.misses + views.hits + views.misses
        };
        assert!(shard_lookups(&before) > 0, "the cold request ran on the shards");
        assert_eq!(shard_lookups(&after), shard_lookups(&before), "a front hit touched a shard");
    }

    #[test]
    fn execution_appends_keep_the_front_cache_warm() {
        let mut c = cluster(3, 2);
        let cold = c.search_as("researchers", "risk").unwrap();
        let vector = c.version_vector();
        let exec = {
            let entry = c.repo().entry(SpecId(1)).unwrap();
            fixtures::disease_susceptibility_execution(&entry.spec)
        };
        let effect = c.mutate(Mutation::AddExecution { spec: SpecId(1), exec }).unwrap();
        assert!(!effect.changes_visible_state());
        assert_eq!(c.version_vector(), vector, "provenance appends must not move the vector");
        let warm = c.search_as("researchers", "risk").unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "the merged answer must survive the append");
    }

    #[test]
    fn answer_changing_writes_move_only_the_owning_component() {
        let mut c = cluster(4, 2);
        c.search_as("researchers", "risk").unwrap();
        let before = c.version_vector();
        // Policy swap on spec 1: the shards share one corpus, so the vector
        // has one component, the epoch, and the write moves it by one.
        c.mutate(Mutation::SetPolicy { spec: SpecId(1), policy: Policy::public() }).unwrap();
        assert_eq!(c.version_vector(), vec![before[0] + 1]);
        // The stale front entry is unreachable at the new epoch: the next
        // request re-merges.
        let stats_before = c.stats();
        c.search_as("researchers", "risk").unwrap();
        let stats_after = c.stats();
        assert_eq!(stats_after.front.hits, stats_before.front.hits, "no stale front hit");
        assert!(stats_after.front.misses > stats_before.front.misses);
    }

    fn edit_of(spec: SpecId) -> Mutation {
        use ppwf_repo::mutation::{ModuleTextEdit, SpecText};
        let (_, m) = fixtures::disease_susceptibility();
        Mutation::EditSpec {
            spec,
            text: SpecText {
                edits: vec![ModuleTextEdit {
                    module: m.m5,
                    name: "Sanitized".into(),
                    keywords: vec!["redacted".into()],
                }],
            },
        }
    }

    #[test]
    fn destructive_mutations_agree_with_single_engine() {
        let mut c = cluster(4, 3);
        let mut single = QueryEngine::new(corpus(4), registry());
        for m in [Mutation::DeleteSpec { spec: SpecId(1) }, edit_of(SpecId(2))] {
            assert_eq!(c.mutate(m.clone()).unwrap(), single.mutate(m).unwrap());
        }
        for q in ["database", "redacted", "risk"] {
            let clustered = c.search_as("researchers", q).unwrap();
            let reference = single.search_as("researchers", q).unwrap();
            assert_eq!(clustered.len(), reference.len(), "{q}");
            for (a, b) in clustered.iter().zip(reference.iter()) {
                assert_eq!((a.spec, &a.prefix, &a.matched), (b.spec, &b.prefix, &b.matched), "{q}");
            }
            let answer = c.ranked_search_as("researchers", q, RankingMode::ExactFull).unwrap();
            let (_, ranked) =
                single.ranked_search_as("researchers", q, RankingMode::ExactFull).unwrap();
            assert_eq!(answer.ranked.order, ranked.order, "{q}");
            assert_eq!(
                answer.ranked.scores, ranked.scores,
                "post-delete IDF must stay corpus-global: {q}"
            );
        }
    }

    #[test]
    fn retired_ids_refuse_every_routed_write_with_the_single_engine_error() {
        let mut c = cluster(3, 2);
        c.mutate(Mutation::DeleteSpec { spec: SpecId(0) }).unwrap();
        let expected = deleted_spec_error(SpecId(0)).to_string();
        let exec = {
            let entry = c.repo().entry(SpecId(1)).unwrap();
            fixtures::disease_susceptibility_execution(&entry.spec)
        };
        let writes = [
            Mutation::DeleteSpec { spec: SpecId(0) },
            Mutation::AddExecution { spec: SpecId(0), exec },
            Mutation::SetPolicy { spec: SpecId(0), policy: Policy::public() },
            edit_of(SpecId(0)),
        ];
        for m in writes {
            assert_eq!(c.mutate(m).unwrap_err().to_string(), expected);
        }
        // Out-of-range ids still report the full id space, tombstones
        // included — the same `len` a single engine's repository shows.
        match c.mutate(Mutation::DeleteSpec { spec: SpecId(99) }).unwrap_err() {
            ModelError::BadId { len, .. } => assert_eq!(len, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn a_delete_leaves_overrides_on_surviving_specs_in_force() {
        let mut registry = registry();
        registry.set_override(1, SpecId(1), ViewRule::RootOnly);
        let mut c = EngineCluster::new(corpus(3), registry, 2);
        assert_eq!(
            c.search_as("researchers", "database")
                .unwrap()
                .iter()
                .map(|h| h.spec.0)
                .collect::<Vec<_>>(),
            vec![0, 2],
            "override hides spec 1's deep modules"
        );
        c.mutate(Mutation::DeleteSpec { spec: SpecId(1) }).unwrap();
        assert_eq!(
            c.search_as("researchers", "database")
                .unwrap()
                .iter()
                .map(|h| h.spec.0)
                .collect::<Vec<_>>(),
            vec![0, 2],
            "survivors answer unchanged"
        );
        // The dead id's override stays in the registry and changes nothing:
        // a deleted spec has no postings to admit.
        c.mutate(Mutation::DeleteSpec { spec: SpecId(2) }).unwrap();
        let hits = c.search_as("researchers", "database").unwrap();
        assert_eq!(hits.iter().map(|h| h.spec.0).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn snapshot_pause_is_charged_the_image_capture() {
        use ppwf_repo::snapshot::CowImage;
        use ppwf_repo::storage::MemStorage;
        use std::time::Instant;
        const SPECS: usize = 32;
        const EXECS: usize = 64;
        // One cadence snapshot, due exactly at the last write: by then
        // every spec carries its accrued executions and every chunk is
        // dirty, so the image capture is the bulk of the pause.
        let policy = DurabilityPolicy {
            snapshot_every: (SPECS + SPECS * EXECS) as u64,
            ..DurabilityPolicy::default()
        };
        let pool = Arc::new(WorkerPool::new(1));
        let (mut c, _) = EngineCluster::open_durable(
            Arc::new(MemStorage::new()) as Arc<dyn StorageBackend>,
            policy,
            registry(),
            2,
            ShardStrategy::RoundRobin,
            pool,
        )
        .expect("open durable cluster");
        let (fixture, _) = fixtures::disease_susceptibility();
        let exec = fixtures::disease_susceptibility_execution(&fixture);
        for _ in 0..SPECS {
            let (spec, _) = fixtures::disease_susceptibility();
            c.mutate(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
        }
        let mut writes = (0..SPECS * EXECS).map(|i| Mutation::AddExecution {
            spec: SpecId((i % SPECS) as u32),
            exec: exec.clone(),
        });
        let last = writes.next_back().expect("at least one execution");
        for write in writes {
            c.mutate(write).unwrap();
        }
        assert_eq!(c.durability_stats().unwrap().snapshots, 0, "not due yet");

        // What capturing this image takes, observed directly: the fastest
        // of several all-dirty captures.
        let plan = vec![None; SPECS.div_ceil(ppwf_repo::snapshot::CHUNK_SPECS)];
        let observed = (0..5)
            .map(|_| {
                let t = Instant::now();
                let image = CowImage::capture(0, SPECS, &plan, |id| c.repo.entry(id).cloned());
                let took = t.elapsed();
                assert_eq!(image.chunks.len(), plan.len());
                took
            })
            .min()
            .expect("five samples");

        c.mutate(last).unwrap();
        while c.background_snapshot_in_flight() {
            std::thread::yield_now();
        }
        let stats = c.durability_stats().unwrap();
        assert_eq!(stats.background_snapshots, 1, "the last write's cadence snapshot ran");
        assert!(
            u128::from(stats.snapshot_pause_us + 1) >= observed.as_micros(),
            "pause {} us reported for a snapshot whose image capture alone takes {observed:?}",
            stats.snapshot_pause_us
        );
    }

    #[test]
    fn durable_batches_flush_on_destructive_conflicts_to_match_sequential_order() {
        use ppwf_repo::storage::MemStorage;
        let policy = DurabilityPolicy::pipelined(16, 0);
        let durable = |pool: &Arc<WorkerPool>| {
            let storage = Arc::new(MemStorage::new());
            EngineCluster::open_durable(
                storage as Arc<dyn StorageBackend>,
                policy,
                registry(),
                2,
                ShardStrategy::RoundRobin,
                Arc::clone(pool),
            )
            .expect("open durable cluster")
            .0
        };
        let pool = Arc::new(WorkerPool::new(2));
        let mut batched = durable(&pool);
        let mut sequential = durable(&pool);
        for c in [&mut batched, &mut sequential] {
            for _ in 0..2 {
                let (spec, _) = fixtures::disease_susceptibility();
                c.mutate(Mutation::InsertSpec { spec, policy: Policy::public() }).unwrap();
            }
        }
        let exec = {
            let entry = batched.repo().entry(SpecId(0)).unwrap();
            fixtures::disease_susceptibility_execution(&entry.spec)
        };
        let (spec, _) = fixtures::disease_susceptibility();
        let stream = vec![
            Mutation::InsertSpec { spec, policy: Policy::public() },
            Mutation::DeleteSpec { spec: SpecId(0) },
            // Conflicts with the pending delete: the run must flush and
            // this must refuse against the *applied* state.
            Mutation::AddExecution { spec: SpecId(0), exec },
            Mutation::DeleteSpec { spec: SpecId(0) },
            edit_of(SpecId(1)),
            // Conflicts with the pending edit, then succeeds post-flush.
            Mutation::SetPolicy { spec: SpecId(1), policy: Policy::public() },
            Mutation::DeleteSpec { spec: SpecId(1) },
            edit_of(SpecId(1)),
        ];
        let outcomes = batched.mutate_batch(stream.clone());
        let reference: Vec<(Result<MutationEffect>, u64)> = stream
            .into_iter()
            .map(|m| {
                let result = sequential.mutate(m);
                (result, sequential.front_epoch())
            })
            .collect();
        assert_eq!(outcomes.len(), reference.len());
        for (i, ((got, got_epoch), (want, want_epoch))) in
            outcomes.iter().zip(reference.iter()).enumerate()
        {
            match (got, want) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "effect diverges at {i}"),
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "error diverges at {i}")
                }
                other => panic!("outcome diverges at {i}: {other:?}"),
            }
            assert_eq!(got_epoch, want_epoch, "epoch diverges at {i}");
        }
        assert_eq!(batched.repo().save(), sequential.repo().save());
    }
}
