//! The asynchronous serving front: many in-flight cluster queries
//! multiplexed on a small fixed worker pool.
//!
//! [`EngineCluster`]'s entry points are *blocking*: one OS thread submits
//! one query and cannot do anything else until the scatter/gather
//! finishes, so a serving tier holds at most one query in flight per
//! thread. The [`ServeFront`] inverts that: [`ServeFront::submit`] accepts
//! a typed [`ServeRequest`], returns a [`Ticket`] immediately, and an
//! admitted read executes as **one pool job** that completes the ticket —
//! no thread waits on it. A single submitting thread can therefore keep
//! dozens of queries in flight over a 2-thread pool, and the pool's queue,
//! not a thread-per-request stack, is the concurrency ceiling.
//!
//! **One read path.** `submit` decodes the request once, into its query
//! mode (the crate-private `modes` module) — and nothing past that point
//! matches on the mode again. A read is served by the cluster's own four stages — front
//! probe, plan, shard run, gather and publish — the very functions the
//! blocking entry points call: plan, shard run and gather are one
//! implementation; only scheduling differs. The submitting thread probes
//! the front and, on a miss, enqueues — nothing else. Once the read is
//! admitted, its pool job takes the cluster read lock once and, under that
//! one guard, re-probes, plans, runs every target shard in order and
//! gathers (which publishes). A read that needs no shard — warm by the
//! time it is admitted, from an unknown group, or pruned off every shard
//! by the index gate — is answered by the same job.
//!
//! **Write/read ordering (the version fence).** Interleaving mutations
//! with multiplexed reads is where privacy bugs live: a response assembled
//! from shard answers at two different repository versions could stitch a
//! pre-policy-swap shard view onto a post-swap one — a leak, not just a
//! wrong answer. Every request that does not complete inline waits in one
//! FIFO admission queue behind a read/write fence: reads run concurrently,
//! and a write batch runs only once every admitted read has drained and
//! alone. The rules — admission, write batching and the acknowledgement
//! order — are stated once, in the crate-private `fence.rs`, as a state
//! machine with no lock, thread or clock, checked against a sequential
//! model. This module is its executor: it holds the fence under one mutex,
//! feeds it each submit, read completion, batch outcome and durability
//! verdict, and runs the actions it hands back (a read job or a write batch
//! on the pool, or write tickets to complete) outside that lock.
//!
//! Consequently an admitted read's epoch cannot move while
//! the read is in flight — every response is computed entirely at one
//! epoch the fence admitted, and is bit-identical to the blocking cluster
//! serving the same request at that version. Warm requests sidestep
//! all of it: a front-cache hit completes inline on the submitting thread
//! ([`Ticket::ready`]) without touching the queue. What it serves is the
//! current epoch's merged answer — either merged at this epoch, or merged
//! at an older one and re-admitted because every write applied since
//! stamped its spec's vocabulary and those stamps show none of them could
//! name a spec in this answer or move a statistic it reads (the dependency
//! argument of [`ppwf_repo::touch`]; the stamps are written under the same
//! cluster write lock that applies the write, so a probe under the read
//! lock sees all of them). That corresponds to ordering the read before any
//! still-queued mutation (an admissible sequential cut, since those
//! mutations have not been applied yet).
//!
//! [`ServeStats`] surfaces the serving health an operator watches: the
//! in-flight high-water mark (how much multiplexing actually happened),
//! admission-queue depth, fence waits, and completion-latency buckets.
//!
//! **The write path.** There is one. The fence hands out a batch of queued
//! mutations, sized by the attached log's
//! [`max_batch`](ppwf_repo::wal::DurabilityPolicy::max_batch), and its pool
//! job runs it behind the cluster's write lock:
//! [`EngineCluster::mutate_batch_pipelined`] validates each mutation,
//! appends every maximal valid run to the
//! [`DurableLog`](ppwf_repo::wal::DurableLog) as one checksummed record
//! *before* applying it, and applies the runs in sequence order. The job
//! then reports the batch applied, which **lifts the fence without waiting
//! for the covering fsync**: that runs on the log's sync job, and batch
//! *k+1* is admitted, validated and applied while batch *k*'s fsync is in
//! flight. The fence releases the tickets only once every run of the batch
//! has reported durable — each with its own per-record epoch, in
//! submission order — so a [`QueryAnswer::Mutated`] carrying `Ok` always
//! acknowledges a *durable* write, the acknowledged set after a crash is
//! always a prefix of the submitted mutation order (exactly what
//! [`ppwf_repo::Repository::recover`] rebuilds), and the outcomes are
//! bit-identical to dispatching the mutations one at a time. An `Err`
//! answer (validation, log or fsync failure) acknowledges nothing. A
//! cluster without a log runs the same job: no run reaches a log, so there
//! is no verdict to wait for and the tickets complete as soon as the batch
//! has applied.
//!
//! The honest boundary is the **read-uncommitted window**: reads admitted
//! between a batch's apply and its covering fsync observe
//! applied-but-not-yet-acknowledged state — *losable* suffix data, never
//! anything a client was told succeeded — and a crash in the window loses
//! only unacknowledged frames, which recovery truncates at the tear like
//! any unsynced suffix.
//!
//! A warm inline completion is a [`Ticket::ready`] value, so a front-cache
//! hit allocates no ticket state and takes no ticket lock. Nor does it read
//! the clock: it bumps one counter, and [`ServeFront::stats`] folds that
//! count into `submitted`, `completed`, `warm_inline` and the first latency
//! bucket — a hit completes inside `submit`, so it is within the first
//! bucket's bound by construction. A queued request takes its one
//! [`Instant`] and its `submitted` count in the enqueue, after the probe has
//! missed, and reads the clock once more when it completes.

use crate::cluster::{EngineCluster, RankedHits};
use crate::engine::Plan;
use crate::fence::{Action, Fence, Request, WriteBatch};
use crate::keyword::KeywordHit;
use crate::modes::{Keyword, Private, Ranked, ReadMode};
use crate::privacy_exec::PrivateSearchOutcome;
use crate::ranking::RankingMode;
use parking_lot::{Mutex, RwLock};
use ppwf_model::{ModelError, Result};
use ppwf_repo::mutation::{Mutation, MutationEffect};
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::ticket::{Ticket, TicketCompleter};
use ppwf_repo::wal::{DurableCallback, WalResult};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A typed serving request — the front's whole vocabulary. Queries carry
/// the user group (privacy is per-group, never per-connection), mutations
/// the same typed [`Mutation`]s the blocking write path consumes.
#[derive(Clone, Debug)]
pub enum ServeRequest {
    /// Privilege-filtered keyword search.
    Keyword {
        /// Requesting user group.
        group: String,
        /// Query text (comma-separated terms).
        query: String,
    },
    /// Privacy-preserving search under an explicit plan.
    Private {
        /// Requesting user group.
        group: String,
        /// Query text.
        query: String,
        /// Evaluation plan.
        plan: Plan,
    },
    /// Ranked keyword search.
    Ranked {
        /// Requesting user group.
        group: String,
        /// Query text.
        query: String,
        /// Ranking mode.
        mode: RankingMode,
    },
    /// A typed repository mutation, fenced against in-flight reads.
    /// Boxed: mutations carry whole specifications, and the request enum
    /// travels through queues by value.
    Mutate(Box<Mutation>),
}

impl ServeRequest {
    /// Convenience constructor for a fenced mutation request.
    pub fn mutate(mutation: Mutation) -> ServeRequest {
        ServeRequest::Mutate(Box::new(mutation))
    }
}

/// A completed answer. Query variants are `None` for unknown groups,
/// mirroring the blocking entry points.
#[derive(Debug)]
pub enum QueryAnswer {
    /// Answer to [`ServeRequest::Keyword`].
    Keyword(Option<Arc<Vec<KeywordHit>>>),
    /// Answer to [`ServeRequest::Private`].
    Private(Option<Arc<PrivateSearchOutcome>>),
    /// Answer to [`ServeRequest::Ranked`].
    Ranked(Option<Arc<RankedHits>>),
    /// Outcome of [`ServeRequest::Mutate`].
    Mutated(Result<MutationEffect>),
}

/// A response: the answer plus the cluster epoch it was computed
/// at — single-valued for the whole response, by the fence. Tests replay
/// the request log sequentially and check each response bit-identical to
/// the reference state at exactly this epoch.
#[derive(Debug)]
pub struct ServeResponse {
    /// The cluster's front epoch the answer was computed at — the counter
    /// its front-cache entries are tagged with, which moves on every
    /// answer-changing write and holds still across execution appends; for
    /// mutations, the epoch after application.
    pub epoch: u64,
    /// The typed answer.
    pub answer: QueryAnswer,
}

/// Upper bounds (µs, inclusive) of the completion-latency buckets in
/// [`ServeStats::latency_counts`]; the last bucket is unbounded.
pub const LATENCY_BOUNDS_US: [u64; 7] = [4, 16, 64, 256, 1024, 4096, 16384];

/// Point-in-time serving counters. Monotone except `queue_depth` (a
/// gauge).
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Requests accepted by [`ServeFront::submit`]: those queued, counted
    /// at their enqueue, plus those answered inline.
    pub submitted: u64,
    /// Responses completed: queued ones, counted as they complete, plus
    /// inline ones, which complete inside `submit`.
    pub completed: u64,
    /// Reads answered from the cluster-front cache without any shard
    /// work: probes that hit on the submitting thread (never queued, no
    /// pool job, no clock read — the one count also stands for their
    /// `submitted`, `completed` and first latency bucket), plus reads that
    /// queued — behind a write, or behind an identical read — and found
    /// the answer warm when their pool job re-probed.
    pub warm_inline: u64,
    /// Mutations applied.
    pub mutations: u64,
    /// Fenced write dispatches (each runs one batch of ≥ 1 mutations);
    /// `mutations / write_batches` is the realized amortization factor.
    pub write_batches: u64,
    /// Largest mutation batch one dispatch ran.
    pub max_write_batch: u64,
    /// Admission passes (one per submit, read completion or batch
    /// outcome) that found a mutation at the head of the queue still
    /// fenced behind in-flight reads.
    pub fence_waits: u64,
    /// High-water mark of admitted work in flight: the most reads in
    /// flight at once, or the most mutations one write batch held when the
    /// fence dispatched it (before its job topped it up), whichever is
    /// larger — never a sum, since the fence never lets reads and a batch
    /// run together. The multiplexing instrument: blocking per-thread
    /// serving pins it at the thread count, the async front takes it to
    /// the admission window.
    pub in_flight_high_water: u64,
    /// Current admission-queue depth (requests accepted, not yet
    /// admitted past the fence).
    pub queue_depth: u64,
    /// High-water mark of the admission queue.
    pub queue_high_water: u64,
    /// Completion-latency histogram; bucket `i` counts responses with
    /// submit→complete latency ≤ [`LATENCY_BOUNDS_US`]`[i]` µs (last
    /// bucket: everything slower). A queued request is timed from its
    /// enqueue to its completion; an inline hit is not timed and is filed
    /// under bucket 0, since it completes within `submit`.
    pub latency_counts: [u64; LATENCY_BOUNDS_US.len() + 1],
}

/// The queued requests' counts, plus `inline`: reads answered inside
/// `submit`, counted once and folded into the rest by [`ServeFront::stats`].
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    warm_inline: AtomicU64,
    inline: AtomicU64,
    mutations: AtomicU64,
    write_batches: AtomicU64,
    max_write_batch: AtomicU64,
    latency: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
}

impl Counters {
    fn record_latency(&self, started: Instant) {
        let us = now().duration_since(started).as_micros() as u64;
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// The clock, read only here. Under `cfg(test)` each call is tallied on
/// the calling thread (see `tests::clock_reads`).
fn now() -> Instant {
    #[cfg(test)]
    tests::CLOCK_READS.with(|reads| reads.set(reads.get() + 1));
    Instant::now()
}

/// A queued request's way back to its client.
struct Pending {
    completer: TicketCompleter<ServeResponse>,
    submitted: Instant,
}

/// A queued read's pool job: [`serve_read`], already instantiated for the
/// request's mode where [`ServeFront::submit`] decoded it.
type ReadJob = Box<dyn FnOnce(&Arc<Shared>, Pending) + Send>;

/// A write's ticket with what its batch made of it (or the batch's panic),
/// parked in the fence until the batch's covering fsyncs report.
type Staged = (Pending, std::thread::Result<(Result<MutationEffect>, u64)>);

type Queued = Request<(ReadJob, Pending), (Box<Mutation>, Pending)>;

type ServeFence = Fence<(ReadJob, Pending), (Box<Mutation>, Pending), Staged>;

struct Shared {
    cluster: RwLock<EngineCluster>,
    pool: Arc<WorkerPool>,
    /// Held only while the fence takes an event or hands out an action —
    /// never across query work or a pool submission.
    fence: Mutex<ServeFence>,
    counters: Counters,
}

/// The asynchronous serving front. See the module docs.
pub struct ServeFront {
    shared: Arc<Shared>,
}

impl ServeFront {
    /// Serve `cluster` on its own worker pool.
    pub fn new(cluster: EngineCluster) -> Self {
        let pool = cluster.pool_handle();
        Self::with_pool(cluster, pool)
    }

    /// Serve `cluster`, running read jobs and mutations on `pool`
    /// (normally the cluster's own pool, which its log's sync and snapshot
    /// jobs use, so all work drains one queue).
    pub fn with_pool(cluster: EngineCluster, pool: Arc<WorkerPool>) -> Self {
        // The attached log's batching policy (immutable for the log's
        // lifetime); 1 and 0 without a log.
        let (max_batch, max_delay_us) = cluster.write_batching();
        ServeFront {
            shared: Arc::new(Shared {
                cluster: RwLock::new(cluster),
                pool,
                fence: Mutex::new(Fence::new(max_batch, max_delay_us)),
                counters: Counters::default(),
            }),
        }
    }

    /// Accept a request. Never blocks on query work: warm front-cache
    /// hits complete inline (no queue, no pool), everything else is
    /// admission-queued and executed as pool jobs. The ticket resolves
    /// whenever the response is ready; dropping it un-awaited is fine.
    pub fn submit(&self, req: ServeRequest) -> Ticket<ServeResponse> {
        match req {
            ServeRequest::Keyword { group, query } => {
                self.submit_read(Keyword, group, query, QueryAnswer::Keyword)
            }
            ServeRequest::Private { group, query, plan } => {
                self.submit_read(Private(plan), group, query, QueryAnswer::Private)
            }
            ServeRequest::Ranked { group, query, mode } => {
                self.submit_read(Ranked(mode), group, query, QueryAnswer::Ranked)
            }
            ServeRequest::Mutate(mutation) => {
                self.enqueue(|pending| Request::Write((mutation, pending)))
            }
        }
    }

    fn submit_read<M: ReadMode>(
        &self,
        mode: M,
        group: String,
        query_text: String,
        wrap: Wrap<M>,
    ) -> Ticket<ServeResponse> {
        let shared = &self.shared;
        // Warm path: probe the cluster front without blocking — one hash
        // probe plus an `Arc` clone, and on the first probe after an
        // answer-changing write a walk of the query's tokens through the
        // front's touch stamps. If a writer holds (or waits on) the cluster
        // lock, `try_read` fails and the request queues behind the mutation
        // instead — exactly the FIFO ordering the fence wants. An early
        // probe: a read that queues is counted when it is admitted. A hit
        // is one counter bump and no clock read (see `stats`).
        if let Some(cluster) = shared.cluster.try_read() {
            if let Some(hit) = cluster.probe(mode, &group, &query_text, true) {
                let epoch = cluster.front_epoch();
                drop(cluster);
                shared.counters.inline.fetch_add(1, Ordering::Relaxed);
                return Ticket::ready(ServeResponse { epoch, answer: wrap(Some(hit)) });
            }
        }
        let job: ReadJob = Box::new(move |shared: &Arc<Shared>, pending| {
            serve_read(shared, mode, group, query_text, wrap, pending)
        });
        self.enqueue(|pending| Request::Read((job, pending)))
    }

    /// Queue a request behind the fence: it is counted submitted and its
    /// latency clock starts here.
    fn enqueue(&self, request: impl FnOnce(Pending) -> Queued) -> Ticket<ServeResponse> {
        self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let submitted = now();
        let (ticket, completer) = Ticket::pending(Some(Arc::clone(&self.shared.pool)));
        let request = request(Pending { completer, submitted });
        step(&self.shared, |fence| fence.submit(request));
        ticket
    }

    /// Current serving counters. An inline hit was counted once; it is
    /// folded here into `submitted`, `completed`, `warm_inline` and latency
    /// bucket 0.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        let inline = c.inline.load(Ordering::Relaxed);
        let mut latency_counts = c.latency.each_ref().map(|bucket| bucket.load(Ordering::Relaxed));
        latency_counts[0] += inline;
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed) + inline,
            completed: c.completed.load(Ordering::Relaxed) + inline,
            warm_inline: c.warm_inline.load(Ordering::Relaxed) + inline,
            mutations: c.mutations.load(Ordering::Relaxed),
            write_batches: c.write_batches.load(Ordering::Relaxed),
            max_write_batch: c.max_write_batch.load(Ordering::Relaxed),
            latency_counts,
            // The fence's counters and queue depth, read under its lock.
            ..self.shared.fence.lock().stats()
        }
    }

    /// Run `f` against the cluster under the read lock — the inspection
    /// hatch tests and stats use (e.g. [`EngineCluster::stats`],
    /// [`EngineCluster::version_vector`]). Do not call from inside a pool
    /// job while a mutation might be queued: the read lock can then wait
    /// on the writer.
    pub fn with_cluster<R>(&self, f: impl FnOnce(&EngineCluster) -> R) -> R {
        f(&self.shared.cluster.read())
    }

    /// Durability counters of the underlying cluster, when a log is
    /// attached (`None` otherwise). Takes the cluster read lock — same
    /// caveat as [`Self::with_cluster`].
    pub fn durability_stats(&self) -> Option<ppwf_repo::wal::DurabilityStats> {
        self.shared.cluster.read().durability_stats()
    }

    /// Block until every accepted request has completed, helping the pool
    /// while waiting. Intended for test/bench teardown; normal operation
    /// never needs a barrier.
    pub fn quiesce(&self) {
        let c = &self.shared.counters;
        // The fence goes idle when it hands out the last tickets, just
        // before they complete; the counters catch up as they do. Inline
        // hits complete inside `submit`, so only queued counts compare.
        while !(self.shared.fence.lock().idle()
            && c.completed.load(Ordering::Relaxed) == c.submitted.load(Ordering::Relaxed))
        {
            if !self.shared.pool.help_one() {
                std::thread::yield_now();
            }
        }
    }
}

/// Feed the fence one event, then run every action it hands out, each
/// outside the lock: a read or a write batch becomes one pool job, released
/// write tickets complete here. Runs on whichever thread raised the event.
fn step(shared: &Arc<Shared>, event: impl FnOnce(&mut ServeFence)) {
    let mut fence = shared.fence.lock();
    event(&mut fence);
    while let Some(action) = fence.next_action() {
        drop(fence);
        let job_shared = Arc::clone(shared);
        match action {
            Action::Read((job, pending)) => shared.pool.exec(move || job(&job_shared, pending)),
            Action::Write(batch) => shared.pool.exec(move || run_batch(&job_shared, batch)),
            Action::Complete(tickets) => complete_writes(&shared.counters, tickets),
        }
        fence = shared.fence.lock();
    }
}

/// Run a write batch as one exclusive pool job: every admitted read has
/// drained, so the write lock is uncontended (modulo inline warm probes,
/// which never block — `try_read` yields to a waiting writer). A short
/// batch is topped up first, after its hold-open window if the fence set
/// one. Behind the write lock, [`EngineCluster::mutate_batch_pipelined`]
/// appends and applies the batch, minting one durability callback per log
/// run; each callback reports its verdict to the fence. Then the job
/// reports the batch applied, which lifts the fence before the covering
/// fsync has reported.
fn run_batch(shared: &Arc<Shared>, mut batch: WriteBatch<(Box<Mutation>, Pending)>) {
    if batch.short {
        if batch.hold_us > 0 {
            // The documented latency cost of batching: the first record
            // waits for peers to share its fsync.
            std::thread::sleep(std::time::Duration::from_micros(batch.hold_us));
        }
        shared.fence.lock().top_up(&mut batch);
    }
    let id = batch.id;
    let (mutations, handles): (Vec<Mutation>, Vec<Pending>) =
        batch.writes.into_iter().map(|(mutation, pending)| (*mutation, pending)).unzip();
    let count = handles.len() as u64;
    let mut minted = 0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        shared.cluster.write().mutate_batch_pipelined(mutations, |range| {
            // The log fires every minted callback exactly once (even on a
            // synchronous append error), so counting mints here tells the
            // fence how many verdicts to wait for.
            minted += 1;
            let shared = Arc::clone(shared);
            Box::new(move |verdict: WalResult<()>| {
                let verdict = verdict.map_err(|e| e.to_string());
                step(&shared, |fence| fence.durable(id, range, verdict))
            }) as DurableCallback
        })
    }));
    let staged: Vec<Staged> = match outcome {
        Ok(outcomes) => {
            debug_assert_eq!(outcomes.len() as u64, count);
            shared.counters.mutations.fetch_add(count, Ordering::Relaxed);
            shared.counters.write_batches.fetch_add(1, Ordering::Relaxed);
            shared.counters.max_write_batch.fetch_max(count, Ordering::Relaxed);
            handles.into_iter().zip(outcomes.into_iter().map(Ok)).collect()
        }
        Err(payload) => {
            // The payload is not clonable: the first ticket re-throws the
            // real payload, peers a marker naming the shared cause.
            const PEER: &str = "a mutation batched with this one panicked the write job";
            let peers = std::iter::repeat_with(|| Box::new(PEER) as Box<dyn Any + Send>);
            handles.into_iter().zip(std::iter::once(payload).chain(peers).map(Err)).collect()
        }
    };
    step(shared, |fence| fence.applied(id, staged, minted));
}

/// Complete the write tickets the fence released, in submission order.
fn complete_writes(counters: &Counters, tickets: Vec<(Staged, Option<String>)>) {
    for ((Pending { completer, submitted }, outcome), durability) in tickets {
        // Count before completing: once a ticket resolves, its owner may
        // read stats, and quiesce() keys on completed == submitted.
        counters.record_latency(submitted);
        match outcome {
            Ok((result, epoch)) => {
                // An applied effect whose covering fsync failed must not
                // acknowledge as durable (recovery will replay only what
                // the log actually holds).
                let durability =
                    durability.map(|e| ModelError::invalid(format!("durability: {e}")));
                let result = durability.map_or(result, Err);
                completer.complete(ServeResponse { epoch, answer: QueryAnswer::Mutated(result) })
            }
            Err(payload) => completer.complete_with_panic(payload),
        }
    }
}

/// The [`QueryAnswer`] variant carrying mode `M`'s merged answer (`None`:
/// an unknown group), picked where [`ServeFront::submit`] decodes the
/// request.
type Wrap<M> = fn(Option<Arc<<M as ReadMode>::Answer>>) -> QueryAnswer;

/// Serve an admitted read as one pool job. Under one cluster read guard it
/// runs the cluster's four read stages: [`EngineCluster::probe`] again (the
/// read may have warmed while queued, behind an identical read), then
/// [`plan`](EngineCluster::plan), [`run_shard`](EngineCluster::run_shard)
/// for every target in order, and [`gather`](EngineCluster::gather), which
/// publishes. An unknown group plans to `None`, and a plan pruned off every
/// shard gathers the empty answer. The one guard holds the epoch still from
/// re-probe to publish. Then the job completes the ticket (with the panic,
/// if a stage panicked), releases the read's fence slot and re-pumps: a
/// drained fence may admit a waiting mutation.
fn serve_read<M: ReadMode>(
    shared: &Arc<Shared>,
    mode: M,
    group: String,
    query_text: String,
    wrap: Wrap<M>,
    pending: Pending,
) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let cluster = shared.cluster.read();
        let epoch = cluster.front_epoch();
        if let Some(hit) = cluster.probe(mode, &group, &query_text, false) {
            shared.counters.warm_inline.fetch_add(1, Ordering::Relaxed);
            return (epoch, Some(hit));
        }
        let answer = cluster.plan(mode, group, query_text).map(|plan| {
            let parts = (0..plan.targets.len()).map(|slot| cluster.run_shard(&plan, slot));
            cluster.gather(&plan, parts.collect())
        });
        (epoch, answer)
    }));
    // A panicked read still completes (counter parity for quiesce); its
    // latency buckets like any response.
    shared.counters.record_latency(pending.submitted);
    match outcome {
        Ok((epoch, answer)) => {
            pending.completer.complete(ServeResponse { epoch, answer: wrap(answer) })
        }
        Err(payload) => pending.completer.complete_with_panic(payload),
    }
    step(shared, Fence::read_done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::open_durable;
    use ppwf_core::policy::{AccessLevel, Policy};
    use ppwf_model::fixtures;
    use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
    use ppwf_repo::repository::{Repository, SpecId};
    use std::cell::Cell;
    use std::sync::Mutex;

    thread_local! {
        /// Calls of [`now`] made on this thread.
        pub(super) static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
    }

    fn clock_reads() -> u64 {
        CLOCK_READS.with(Cell::get)
    }

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

    fn front(specs: usize, shards: usize, threads: usize) -> ServeFront {
        let pool = Arc::new(WorkerPool::new(threads));
        let cluster = EngineCluster::with_config(
            corpus(specs),
            registry(),
            shards,
            crate::route::ShardStrategy::RoundRobin,
            Arc::clone(&pool),
        );
        ServeFront::with_pool(cluster, pool)
    }

    fn keyword(group: &str, query: &str) -> ServeRequest {
        ServeRequest::Keyword { group: group.into(), query: query.into() }
    }

    #[test]
    fn answers_match_the_blocking_cluster() {
        let front = front(5, 2, 2);
        let blocking = EngineCluster::new(corpus(5), registry(), 2);
        for (group, query) in
            [("researchers", "risk"), ("public", "risk"), ("researchers", "database")]
        {
            let response = front.submit(keyword(group, query)).wait();
            let QueryAnswer::Keyword(Some(hits)) = response.answer else {
                panic!("expected a keyword answer")
            };
            let reference = blocking.search_as(group, query).unwrap();
            assert_eq!(hits.len(), reference.len(), "{group}/{query}");
            for (a, b) in hits.iter().zip(reference.iter()) {
                assert_eq!(a.spec, b.spec);
                assert_eq!(a.prefix, b.prefix);
            }
        }
    }

    #[test]
    fn warm_requests_complete_inline() {
        let front = front(4, 2, 2);
        let cold = front.submit(keyword("researchers", "risk")).wait();
        let stats = front.stats();
        assert_eq!(stats.warm_inline, 0);
        let warm_ticket = front.submit(keyword("researchers", "risk"));
        assert!(warm_ticket.is_complete(), "warm hit must complete at submit time");
        let warm = warm_ticket.wait();
        assert_eq!(warm.epoch, cold.epoch);
        let (QueryAnswer::Keyword(Some(a)), QueryAnswer::Keyword(Some(b))) =
            (&cold.answer, &warm.answer)
        else {
            panic!("expected keyword answers")
        };
        assert!(Arc::ptr_eq(a, b), "warm answer must share the merged Arc");
        assert_eq!(front.stats().warm_inline, 1);
    }

    /// Every read is one lookup in the front-cache counters, with its
    /// final outcome: the probe at submit time and the re-probe when a
    /// queued read is admitted do not both count.
    #[test]
    fn each_read_counts_one_front_lookup() {
        let pool = Arc::new(WorkerPool::new(2));
        let cluster = EngineCluster::with_config(
            corpus(4),
            registry(),
            2,
            crate::route::ShardStrategy::RoundRobin,
            Arc::clone(&pool),
        );
        let front = ServeFront::with_pool(cluster, Arc::clone(&pool));
        let lookups = || {
            let stats = front.with_cluster(|c| c.stats().front);
            (stats.hits, stats.misses)
        };
        // Four distinct cold reads — one of them pruned on every shard —
        // are four misses; a repeat is one hit.
        for (group, query) in [
            ("researchers", "risk"),
            ("public", "risk"),
            ("researchers", "database"),
            ("public", "zzz-none"),
        ] {
            front.submit(keyword(group, query)).wait();
        }
        assert_eq!(lookups(), (0, 4));
        front.submit(keyword("researchers", "risk")).wait();
        assert_eq!(lookups(), (1, 4));

        // An identical read queued behind its twin. Both workers are
        // plugged, so the first read stays in flight; an execution append
        // (which leaves the epoch alone) waits on the fence behind it, and
        // the twin — still cold at submit time — queues behind the write.
        // Unplugged, the twin is admitted after the first has published:
        // one miss and one hit for the pair, where both probes counting
        // made it three misses and a hit.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        for _ in 0..2 {
            let release_rx = Arc::clone(&release_rx);
            pool.exec(move || {
                let _ = release_rx.lock().unwrap().recv();
            });
        }
        let (spec, _) = fixtures::disease_susceptibility();
        let exec = fixtures::disease_susceptibility_execution(&spec);
        let first = front.submit(keyword("researchers", "pubmed"));
        let write =
            front.submit(ServeRequest::mutate(Mutation::AddExecution { spec: SpecId(0), exec }));
        let twin = front.submit(keyword("researchers", "pubmed"));
        assert!(!twin.is_complete(), "the twin must queue, not hit inline");
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        let (first, write, twin) = (first.wait(), write.wait(), twin.wait());
        assert!(matches!(write.answer, QueryAnswer::Mutated(Ok(_))));
        let (QueryAnswer::Keyword(Some(a)), QueryAnswer::Keyword(Some(b))) =
            (&first.answer, &twin.answer)
        else {
            panic!("expected keyword answers")
        };
        assert!(Arc::ptr_eq(a, b), "the twin is served its sibling's published answer");
        assert_eq!(lookups(), (2, 5));
        let stats = front.stats();
        assert_eq!(stats.submitted - stats.mutations, 7, "hits + misses = reads submitted");
    }

    /// Every read shape, in a fixed order: keyword, private under each
    /// plan, ranked under two modes.
    fn read_shapes(group: &str, query: &str) -> [ServeRequest; 5] {
        let (group, query) = (group.to_string(), query.to_string());
        let private =
            |plan| ServeRequest::Private { group: group.clone(), query: query.clone(), plan };
        let ranked =
            |mode| ServeRequest::Ranked { group: group.clone(), query: query.clone(), mode };
        [
            keyword(&group, &query),
            private(Plan::FilterThenSearch),
            private(Plan::SearchThenZoomOut),
            ranked(RankingMode::ExactFull),
            ranked(RankingMode::NoisyFull { epsilon: 1.0, seed: 11 }),
        ]
    }

    #[test]
    fn unknown_group_answers_none() {
        let front = front(2, 2, 1);
        for request in read_shapes("nobody", "risk") {
            let shape = format!("{request:?}");
            let response = front.submit(request).wait();
            assert!(
                matches!(
                    response.answer,
                    QueryAnswer::Keyword(None)
                        | QueryAnswer::Private(None)
                        | QueryAnswer::Ranked(None)
                ),
                "{shape} answered {:?}",
                response.answer
            );
        }
        assert_eq!(front.stats().warm_inline, 0, "a refusal is never cached");
    }

    /// A ranked read whose every shard is pruned collects no corpus
    /// statistics: user-chosen strings that match nothing must not fill
    /// the shards' bounded df memos and crowd real terms out.
    #[test]
    fn no_hit_ranked_reads_leave_the_df_memos_alone() {
        let front = front(4, 2, 2);
        let ranked = |query: String| ServeRequest::Ranked {
            group: "researchers".into(),
            query,
            mode: RankingMode::ExactFull,
        };
        let memoized = |term: &str| {
            front
                .with_cluster(|c| c.shards().iter().filter(|s| s.index().df_memoized(term)).count())
        };
        let tickets: Vec<_> =
            (0..5000).map(|i| front.submit(ranked(format!("zzz-none-{i}")))).collect();
        for ticket in tickets {
            let QueryAnswer::Ranked(Some(answer)) = ticket.wait().answer else {
                panic!("expected a ranked answer")
            };
            assert!(answer.hits.is_empty());
        }
        for i in 0..5000 {
            let query = crate::keyword::KeywordQuery::parse(&format!("zzz-none-{i}"));
            assert_eq!(memoized(&query.terms[0]), 0, "{:?} was memoized", query.terms[0]);
        }
        // A term the corpus does hold is memoized on every shard the
        // moment a ranked read needs its df.
        assert_eq!(memoized("disorder risks"), 0);
        let response = front.submit(ranked("Disorder Risks".into())).wait();
        let QueryAnswer::Ranked(Some(answer)) = response.answer else { panic!() };
        assert_eq!(answer.hits.len(), 4);
        assert_eq!(memoized("disorder risks"), 2);
    }

    /// The submitting thread only probes and enqueues: a cold read's
    /// re-probe (the miss it counts), its plan (the corpus statistics a
    /// ranked read memoizes), its shard runs and its gather all happen in
    /// the read's pool job.
    #[test]
    fn a_cold_read_does_its_admission_work_in_its_pool_job() {
        let pool = Arc::new(WorkerPool::new(2));
        let cluster = EngineCluster::with_config(
            corpus(4),
            registry(),
            2,
            crate::route::ShardStrategy::RoundRobin,
            Arc::clone(&pool),
        );
        let front = ServeFront::with_pool(cluster, Arc::clone(&pool));
        let misses = || front.with_cluster(|c| c.stats().front.misses);
        let memoized = |term: &str| {
            front
                .with_cluster(|c| c.shards().iter().filter(|s| s.index().df_memoized(term)).count())
        };
        // Plug both workers so the read's job cannot run before the checks.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        for _ in 0..2 {
            let release_rx = Arc::clone(&release_rx);
            pool.exec(move || {
                let _ = release_rx.lock().unwrap().recv();
            });
        }
        let ticket = front.submit(ServeRequest::Ranked {
            group: "researchers".into(),
            query: "Disorder Risks".into(),
            mode: RankingMode::ExactFull,
        });
        assert!(!ticket.is_complete(), "a cold read must not complete at submit time");
        assert_eq!(misses(), 0, "the admission re-probe must not run on the submitting thread");
        assert_eq!(memoized("disorder risks"), 0, "the plan must not run on the submitting thread");
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        let QueryAnswer::Ranked(Some(answer)) = ticket.wait().answer else {
            panic!("expected a ranked answer")
        };
        let blocking = EngineCluster::new(corpus(4), registry(), 2);
        let reference = blocking
            .ranked_search_as("researchers", "Disorder Risks", RankingMode::ExactFull)
            .unwrap();
        assert_eq!(answer.hits.len(), 4);
        assert_eq!(answer.hits.len(), reference.hits.len());
        for (a, b) in answer.hits.iter().zip(&reference.hits) {
            assert_eq!((a.spec, &a.prefix), (b.spec, &b.prefix));
        }
        assert!(answer.ranked.bitwise_eq(&reference.ranked), "f64 bits must agree");
        assert_eq!(misses(), 1);
        assert_eq!(memoized("disorder risks"), 2);
    }

    #[test]
    fn mutations_fence_and_apply_in_order() {
        let front = front(3, 2, 2);
        let before = front.submit(keyword("researchers", "risk")).wait();
        let QueryAnswer::Keyword(Some(hits)) = &before.answer else { panic!() };
        assert_eq!(hits.len(), 3);
        let (spec, _) = fixtures::disease_susceptibility();
        let effect = front
            .submit(ServeRequest::mutate(Mutation::InsertSpec { spec, policy: Policy::public() }))
            .wait();
        let QueryAnswer::Mutated(Ok(MutationEffect::SpecInserted { spec })) = effect.answer else {
            panic!("expected a successful insert")
        };
        assert_eq!(spec, SpecId(3));
        assert!(effect.epoch > before.epoch, "answer-changing write must move the epoch");
        let after = front.submit(keyword("researchers", "risk")).wait();
        let QueryAnswer::Keyword(Some(hits)) = &after.answer else { panic!() };
        assert_eq!(hits.len(), 4, "stale answer served after a fenced insert");
        assert_eq!(front.stats().mutations, 1);
    }

    #[test]
    fn multiplexes_many_in_flight_requests() {
        let pool = Arc::new(WorkerPool::new(2));
        let cluster = EngineCluster::with_config(
            corpus(6),
            registry(),
            3,
            crate::route::ShardStrategy::RoundRobin,
            Arc::clone(&pool),
        );
        let front = ServeFront::with_pool(cluster, Arc::clone(&pool));
        // Plug both workers so no read job can complete while the burst
        // is being submitted: every cold read must then be concurrently
        // in flight, which is the multiplexing claim itself — one
        // submitting thread, many admitted queries, zero extra threads.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let rx = std::sync::Mutex::new(release_rx);
        let barrier = Arc::new(rx);
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            pool.exec(move || {
                let _ = barrier.lock().unwrap().recv();
            });
        }
        let queries =
            ["risk", "database", "Database, Disorder Risks", "pubmed", "database, pubmed"];
        let tickets: Vec<_> = (0..10)
            .map(|i| {
                let group = if i % 2 == 0 { "researchers" } else { "public" };
                front.submit(keyword(group, queries[i % queries.len()]))
            })
            .collect();
        let stats = front.stats();
        assert_eq!(
            stats.in_flight_high_water, 10,
            "all cold requests must be admitted and in flight at once"
        );
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        for t in tickets {
            let response = t.wait();
            assert!(matches!(response.answer, QueryAnswer::Keyword(Some(_))));
        }
        let stats = front.stats();
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.latency_counts.iter().sum::<u64>(), 10);
        front.quiesce();
    }

    /// A durable front over `MemStorage` batching up to `max_batch` queued
    /// writes per record.
    fn durable_front(threads: usize, max_batch: usize) -> (ServeFront, Arc<WorkerPool>) {
        use ppwf_repo::storage::{MemStorage, StorageBackend};
        use ppwf_repo::wal::DurabilityPolicy;
        let pool = Arc::new(WorkerPool::new(threads));
        let policy =
            DurabilityPolicy { snapshot_every: 0, ..DurabilityPolicy::pipelined(max_batch, 0) };
        let backend: Arc<dyn StorageBackend> = Arc::new(MemStorage::new());
        let (cluster, _) = open_durable(
            backend,
            policy,
            registry(),
            2,
            crate::route::ShardStrategy::RoundRobin,
            Arc::clone(&pool),
        )
        .expect("open durable cluster on fresh storage");
        (ServeFront::with_pool(cluster, Arc::clone(&pool)), pool)
    }

    /// Queued writes behind the fence drain as ONE WAL batch under one
    /// fsync, apply in submission order, and hand out per-record epochs
    /// bit-identical to a sequential unbatched reference.
    #[test]
    fn queued_writes_batch_into_one_fsync() {
        let (front, pool) = durable_front(2, 8);
        // Plug both workers so the write job cannot run until every
        // mutation is queued: the batch drain must then cover all five.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let barrier = Arc::new(std::sync::Mutex::new(release_rx));
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            pool.exec(move || {
                let _ = barrier.lock().unwrap().recv();
            });
        }
        let tickets: Vec<_> = (0..5)
            .map(|_| {
                let (spec, _) = fixtures::disease_susceptibility();
                front.submit(ServeRequest::mutate(Mutation::InsertSpec {
                    spec,
                    policy: Policy::public(),
                }))
            })
            .collect();
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        let epochs: Vec<u64> = tickets
            .into_iter()
            .map(|t| {
                let response = t.wait();
                assert!(matches!(response.answer, QueryAnswer::Mutated(Ok(_))));
                response.epoch
            })
            .collect();
        front.quiesce();
        let stats = front.stats();
        assert_eq!(stats.mutations, 5);
        assert_eq!(stats.write_batches, 1, "all queued writes must drain as one batch");
        assert_eq!(stats.max_write_batch, 5);
        let wal = front.durability_stats().expect("durable front reports wal stats");
        assert_eq!(wal.appends, 5, "appends keep counting durable mutations");
        assert_eq!(wal.records, 1, "one physical record covers the batch");
        assert_eq!(wal.syncs, 1, "one fsync acknowledges the whole batch");
        assert_eq!(wal.fsyncs_saved, 4);

        // Sequential unbatched reference: same stream, same epochs, same
        // final image.
        let (reference, _ref_pool) = durable_front(2, 1);
        let reference_epochs: Vec<u64> = (0..5)
            .map(|_| {
                let (spec, _) = fixtures::disease_susceptibility();
                let response = reference
                    .submit(ServeRequest::mutate(Mutation::InsertSpec {
                        spec,
                        policy: Policy::public(),
                    }))
                    .wait();
                assert!(matches!(response.answer, QueryAnswer::Mutated(Ok(_))));
                response.epoch
            })
            .collect();
        assert_eq!(epochs, reference_epochs, "batched epochs must match sequential");
        let batched = front.with_cluster(|c| c.repo().save());
        let sequential = reference.with_cluster(|c| c.repo().save());
        assert_eq!(batched, sequential, "batched apply must be bit-identical");
    }

    /// The covering fsync is the sync job's: queued writes drain as one
    /// batch, every ticket acknowledges only after its covering fsync (so
    /// all acks mean durable), the sync queue registers the frame,
    /// and reopening the same storage recovers the acked image
    /// bit-identically.
    #[test]
    fn pipelined_writes_ack_durable_and_recover() {
        use ppwf_repo::storage::{MemStorage, StorageBackend};
        use ppwf_repo::wal::DurabilityPolicy;
        let pool = Arc::new(WorkerPool::new(2));
        let policy = DurabilityPolicy { snapshot_every: 0, ..DurabilityPolicy::pipelined(8, 0) };
        let backend: Arc<dyn StorageBackend> = Arc::new(MemStorage::new());
        let (cluster, _) = open_durable(
            Arc::clone(&backend),
            policy,
            registry(),
            2,
            crate::route::ShardStrategy::RoundRobin,
            Arc::clone(&pool),
        )
        .expect("open durable cluster on fresh storage");
        let front = ServeFront::with_pool(cluster, Arc::clone(&pool));
        // Plug both workers so the five writes queue behind the fence
        // and drain as one pipelined batch.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let barrier = Arc::new(std::sync::Mutex::new(release_rx));
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            pool.exec(move || {
                let _ = barrier.lock().unwrap().recv();
            });
        }
        let tickets: Vec<_> = (0..5)
            .map(|_| {
                let (spec, _) = fixtures::disease_susceptibility();
                front.submit(ServeRequest::mutate(Mutation::InsertSpec {
                    spec,
                    policy: Policy::public(),
                }))
            })
            .collect();
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        for t in tickets {
            let response = t.wait();
            assert!(
                matches!(response.answer, QueryAnswer::Mutated(Ok(_))),
                "a pipelined ack means the covering fsync returned Ok"
            );
        }
        front.quiesce();
        let stats = front.stats();
        assert_eq!(stats.mutations, 5);
        assert_eq!(stats.write_batches, 1, "queued writes still drain as one batch");
        let wal = front.durability_stats().expect("durable front reports wal stats");
        assert_eq!(wal.appends, 5);
        assert_eq!(wal.records, 1, "the pipelined batch still appends as one record");
        assert!(wal.syncs >= 1, "at least one covering fsync acknowledged the batch");
        assert!(
            wal.pipeline_depth_high_water >= 1,
            "the frame must have passed through the sync queue, got {}",
            wal.pipeline_depth_high_water
        );
        let served = front.with_cluster(|c| c.repo().save());
        drop(front);
        // Reopen the same storage: the acked image must recover whole.
        let pool2 = Arc::new(WorkerPool::new(1));
        let (recovered, _) = open_durable(
            backend,
            policy,
            registry(),
            2,
            crate::route::ShardStrategy::RoundRobin,
            pool2,
        )
        .expect("reopen the pipelined log");
        assert_eq!(
            recovered.repo().save(),
            served,
            "recovery must be bit-identical to the acknowledged image"
        );
    }

    /// A warm ticket dropped unawaited takes its answer with it: nothing
    /// but the front cache and the client ever holds a served answer.
    #[test]
    fn a_dropped_warm_ticket_releases_its_answer() {
        let front = front(4, 2, 2);
        let QueryAnswer::Keyword(Some(hits)) =
            front.submit(keyword("researchers", "risk")).wait().answer
        else {
            panic!("expected a keyword answer")
        };
        let warm = front.submit(keyword("researchers", "risk"));
        assert!(warm.is_complete(), "the second read is a warm hit");
        drop(warm);
        assert_eq!(front.stats().warm_inline, 1);
        assert_eq!(Arc::strong_count(&hits), 2, "only the front and this test hold the answer");
    }

    #[test]
    fn private_and_ranked_serve_through_the_front() {
        let front = front(4, 2, 2);
        let response = front
            .submit(ServeRequest::Private {
                group: "public".into(),
                query: "risk".into(),
                plan: Plan::FilterThenSearch,
            })
            .wait();
        assert!(matches!(response.answer, QueryAnswer::Private(Some(_))));
        let response = front
            .submit(ServeRequest::Ranked {
                group: "researchers".into(),
                query: "database".into(),
                mode: RankingMode::ExactFull,
            })
            .wait();
        let QueryAnswer::Ranked(Some(answer)) = response.answer else { panic!() };
        let blocking = EngineCluster::new(corpus(4), registry(), 2);
        let reference =
            blocking.ranked_search_as("researchers", "database", RankingMode::ExactFull).unwrap();
        assert_eq!(answer.ranked.scores, reference.ranked.scores, "f64 bits must agree");
        assert_eq!(answer.ranked.order, reference.ranked.order);
    }

    /// A warm submit reads the clock 0 times; a queued read reads it twice,
    /// once at its enqueue and once at its completion. The pool's one
    /// worker is plugged, so the read's job runs on this thread when `wait`
    /// helps the pool, and the per-thread tally sees both reads.
    #[test]
    fn a_warm_submit_reads_no_clock_and_a_queued_read_reads_it_twice() {
        let pool = Arc::new(WorkerPool::new(1));
        let cluster = EngineCluster::with_config(
            corpus(4),
            registry(),
            2,
            crate::route::ShardStrategy::RoundRobin,
            Arc::clone(&pool),
        );
        let front = ServeFront::with_pool(cluster, Arc::clone(&pool));
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.exec(move || {
            started_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        started_rx.recv().unwrap();

        let before = clock_reads();
        let cold = front.submit(keyword("researchers", "risk"));
        assert!(!cold.is_complete(), "the first read must queue");
        assert_eq!(clock_reads() - before, 1, "a queued read starts its clock at enqueue");
        assert!(matches!(cold.wait().answer, QueryAnswer::Keyword(Some(_))));
        assert_eq!(clock_reads() - before, 2, "and reads it once more when it completes");

        let before = clock_reads();
        let warm = front.submit(keyword("researchers", "risk"));
        assert!(warm.is_complete(), "the repeat is a warm hit");
        assert_eq!(clock_reads() - before, 0, "a warm submit reads no clock");
        release_tx.send(()).unwrap();
    }

    /// Three threads submit warm hits, cold reads and mutations to one
    /// front on a 2-thread pool. Once quiesced, every request is submitted,
    /// completed and bucketed exactly once, and a single inline hit moves
    /// `submitted`, `completed`, `warm_inline` and bucket 0 by one each.
    #[test]
    fn stats_stay_exact_across_threads() {
        const ROUNDS: usize = 20;
        let front = front(6, 2, 2);
        assert!(matches!(
            front.submit(keyword("researchers", "risk")).wait().answer,
            QueryAnswer::Keyword(Some(_))
        ));
        std::thread::scope(|scope| {
            for thread in 0..3 {
                let front = &front;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        let warm = front.submit(keyword("researchers", "risk"));
                        let cold =
                            front.submit(keyword("public", &format!("risk, zzz{thread}-{round}")));
                        let (spec, _) = fixtures::disease_susceptibility();
                        let exec = fixtures::disease_susceptibility_execution(&spec);
                        let write = front.submit(ServeRequest::mutate(Mutation::AddExecution {
                            spec: SpecId(thread as u32),
                            exec,
                        }));
                        assert!(matches!(warm.wait().answer, QueryAnswer::Keyword(Some(_))));
                        assert!(matches!(cold.wait().answer, QueryAnswer::Keyword(Some(_))));
                        assert!(matches!(write.wait().answer, QueryAnswer::Mutated(Ok(_))));
                    }
                });
            }
        });
        front.quiesce();
        let requests = 1 + 3 * 3 * ROUNDS as u64;
        let stats = front.stats();
        assert_eq!(stats.submitted, requests);
        assert_eq!(stats.completed, requests);
        assert_eq!(stats.latency_counts.iter().sum::<u64>(), requests);
        assert_eq!(stats.mutations, 3 * ROUNDS as u64);
        assert!(stats.warm_inline > 0);

        let warm = front.submit(keyword("researchers", "risk"));
        assert!(warm.is_complete(), "an inline hit");
        let after = front.stats();
        assert_eq!(after.submitted, stats.submitted + 1);
        assert_eq!(after.completed, stats.completed + 1);
        assert_eq!(after.warm_inline, stats.warm_inline + 1);
        assert_eq!(after.latency_counts[0], stats.latency_counts[0] + 1);
    }

    #[test]
    fn one_thread_pool_cannot_deadlock() {
        let front = front(4, 3, 1);
        let tickets: Vec<_> =
            (0..8).map(|_| front.submit(keyword("researchers", "risk"))).collect();
        let (spec, _) = fixtures::disease_susceptibility();
        let mutation = front
            .submit(ServeRequest::mutate(Mutation::InsertSpec { spec, policy: Policy::public() }));
        for t in tickets {
            t.wait();
        }
        assert!(matches!(mutation.wait().answer, QueryAnswer::Mutated(Ok(_))));
        front.quiesce();
    }
}
