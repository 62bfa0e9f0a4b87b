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
//! mode ([`crate::modes`]) — and nothing past that point matches on the
//! mode again. A read is served by the cluster's own four stages — front
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
//! wrong answer. The front therefore runs a FIFO admission queue with a
//! read/write fence:
//!
//! * reads admit **concurrently** (each bumps the in-flight reader count
//!   before its pool job is queued);
//! * a mutation at the head of the queue **drains**: it waits until every
//!   admitted read has completed, then runs exclusively (behind the
//!   cluster's write lock), then reopens admission.
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
//! **The write path.** There is one. The pump pops the consecutive run of
//! mutations at the head of the queue — up to the attached log's
//! [`max_batch`](ppwf_repo::wal::DurabilityPolicy::max_batch), never past a
//! queued read, so FIFO holds — and hands it to one exclusive write job.
//! The job may hold the batch open up to `max_delay_us` and top it up with
//! late arrivals, then, behind the cluster's write lock,
//! [`EngineCluster::mutate_batch_pipelined`] validates each mutation,
//! appends every maximal valid run to the
//! [`DurableLog`](ppwf_repo::wal::DurableLog) as one checksummed record
//! *before* applying it, and applies the runs in sequence order. The job
//! then **lifts the fence without waiting for the covering fsync**: that
//! runs on the log's sync job, and batch *k+1* is admitted, validated and
//! applied while batch *k*'s fsync is in flight. The tickets wait in a
//! [`CommitGate`] until every run of the batch has reported durable, and
//! only then complete — each with its own per-record epoch, in submission
//! order — so a [`QueryAnswer::Mutated`] carrying `Ok` always acknowledges
//! a *durable* write, the acknowledged set after a crash is always a prefix
//! of the submitted mutation order (exactly what
//! [`ppwf_repo::Repository::recover`] rebuilds), and the outcomes are
//! bit-identical to dispatching the mutations one at a time. An `Err`
//! answer (validation, log or fsync failure) acknowledges nothing. A
//! cluster without a log runs the same job: no run reaches a log, so the
//! gate has nothing to wait for and the tickets complete as soon as the
//! batch has applied.
//!
//! The honest boundary is the **read-uncommitted window**: reads admitted
//! between a batch's apply and its covering fsync observe
//! applied-but-not-yet-acknowledged state — *losable* suffix data, never
//! anything a client was told succeeded — and a crash in the window loses
//! only unacknowledged frames, which recovery truncates at the tear like
//! any unsynced suffix.
//!
//! A warm inline completion is a [`Ticket::ready`] value, so a front-cache
//! hit allocates no ticket state and takes no ticket lock.

use crate::cluster::{EngineCluster, RankedHits};
use crate::engine::Plan;
use crate::keyword::KeywordHit;
use crate::modes::{Keyword, Private, Ranked, ReadMode};
use crate::privacy_exec::PrivateSearchOutcome;
use crate::ranking::RankingMode;
use parking_lot::RwLock;
use ppwf_model::{ModelError, Result};
use ppwf_repo::mutation::{Mutation, MutationEffect};
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::ticket::{Ticket, TicketCompleter};
use ppwf_repo::wal::{DurableCallback, WalResult};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    /// Requests accepted by [`ServeFront::submit`].
    pub submitted: u64,
    /// Responses completed (inline or via the queue).
    pub completed: u64,
    /// Reads answered from the cluster-front cache without any shard
    /// work: probes that hit on the submitting thread (never queued, no
    /// pool job), plus reads that queued — behind a write, or behind an
    /// identical read — and found the answer warm when their pool job
    /// re-probed.
    pub warm_inline: u64,
    /// Mutations applied.
    pub mutations: u64,
    /// Fenced write dispatches (each runs one batch of ≥ 1 mutations);
    /// `mutations / write_batches` is the realized amortization factor.
    pub write_batches: u64,
    /// Largest mutation batch one dispatch ran.
    pub max_write_batch: u64,
    /// Pump passes that found a mutation at the head of the queue still
    /// fenced behind in-flight reads.
    pub fence_waits: u64,
    /// High-water mark of concurrently in-flight admitted requests
    /// (reads in flight plus an active writer) — the multiplexing
    /// instrument: blocking per-thread serving pins this at the thread
    /// count, the async front takes it to the admission window.
    pub in_flight_high_water: u64,
    /// Current admission-queue depth (requests accepted, not yet
    /// admitted past the fence).
    pub queue_depth: u64,
    /// High-water mark of the admission queue.
    pub queue_high_water: u64,
    /// Completion-latency histogram; bucket `i` counts responses with
    /// submit→complete latency ≤ [`LATENCY_BOUNDS_US`]`[i]` µs (last
    /// bucket: everything slower).
    pub latency_counts: [u64; LATENCY_BOUNDS_US.len() + 1],
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    warm_inline: AtomicU64,
    mutations: AtomicU64,
    /// Mutations submitted but not yet completed — the batching sibling
    /// test: a batch is held open for `max_delay_us` only while
    /// more writes than it already holds are in flight somewhere (queued
    /// or about to queue), so a lone writer never pays the delay.
    writes_in_flight: AtomicU64,
    write_batches: AtomicU64,
    max_write_batch: AtomicU64,
    fence_waits: AtomicU64,
    in_flight_high_water: AtomicU64,
    queue_high_water: AtomicU64,
    latency: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
}

impl Counters {
    fn record_latency(&self, started: Instant) {
        let us = started.elapsed().as_micros() as u64;
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// An accepted request's way back to its client.
struct Pending {
    completer: TicketCompleter<ServeResponse>,
    submitted: Instant,
}

/// What an accepted request waiting behind the fence does once admitted.
/// [`ServeFront::submit`] is the one place a [`ServeRequest`] is decoded:
/// past it a read is its pool job, [`serve_read`] already instantiated
/// for the request's mode, and a write is its mutation.
enum Work {
    Read(ReadJob),
    Write(Box<Mutation>),
}

type ReadJob = Box<dyn FnOnce(&Arc<Shared>, Pending) + Send>;

/// Move the run of writes at the head of `queue` into `batch`, up to
/// `max_batch` — never past a queued read, so FIFO order and the fence
/// semantics are untouched.
fn take_writes(
    queue: &mut VecDeque<(Work, Pending)>,
    batch: &mut Vec<(Box<Mutation>, Pending)>,
    max_batch: usize,
) {
    while batch.len() < max_batch {
        match queue.pop_front() {
            Some((Work::Write(mutation), pending)) => batch.push((mutation, pending)),
            Some(read) => return queue.push_front(read),
            None => return,
        }
    }
}

/// Admission state, guarded by one mutex: the FIFO queue plus the fence's
/// two counters. Held only for queue surgery — never across query work.
struct Admission {
    queue: VecDeque<(Work, Pending)>,
    readers_in_flight: usize,
    writer_active: bool,
}

struct Shared {
    cluster: RwLock<EngineCluster>,
    pool: Arc<WorkerPool>,
    admission: Mutex<Admission>,
    counters: Counters,
    /// Most consecutive queued mutations one write job takes, and how long
    /// (µs) it may hold a short batch open for late arrivals — the attached
    /// log's policy, cached at construction (it is immutable for a log's
    /// lifetime); 1 and 0 without a log.
    max_batch: usize,
    max_delay_us: u64,
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
        let (max_batch, max_delay_us) = cluster.write_batching();
        ServeFront {
            shared: Arc::new(Shared {
                cluster: RwLock::new(cluster),
                pool,
                admission: Mutex::new(Admission {
                    queue: VecDeque::new(),
                    readers_in_flight: 0,
                    writer_active: false,
                }),
                counters: Counters::default(),
                max_batch,
                max_delay_us,
            }),
        }
    }

    /// Accept a request. Never blocks on query work: warm front-cache
    /// hits complete inline (no queue, no pool), everything else is
    /// admission-queued and executed as pool jobs. The ticket resolves
    /// whenever the response is ready; dropping it un-awaited is fine.
    pub fn submit(&self, req: ServeRequest) -> Ticket<ServeResponse> {
        let counters = &self.shared.counters;
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        let submitted = Instant::now();
        match req {
            ServeRequest::Keyword { group, query } => {
                self.submit_read(Keyword, group, query, QueryAnswer::Keyword, submitted)
            }
            ServeRequest::Private { group, query, plan } => {
                self.submit_read(Private(plan), group, query, QueryAnswer::Private, submitted)
            }
            ServeRequest::Ranked { group, query, mode } => {
                self.submit_read(Ranked(mode), group, query, QueryAnswer::Ranked, submitted)
            }
            ServeRequest::Mutate(mutation) => {
                counters.writes_in_flight.fetch_add(1, Ordering::Relaxed);
                self.enqueue(Work::Write(mutation), submitted)
            }
        }
    }

    fn submit_read<M: ReadMode>(
        &self,
        mode: M,
        group: String,
        query_text: String,
        wrap: Wrap<M>,
        submitted: Instant,
    ) -> Ticket<ServeResponse> {
        let shared = &self.shared;
        // Warm path: probe the cluster front without blocking — one hash
        // probe plus an `Arc` clone, and on the first probe after an
        // answer-changing write a walk of the query's tokens through the
        // front's touch stamps. If a writer holds (or waits on) the cluster
        // lock, `try_read` fails and the request queues behind the mutation
        // instead — exactly the FIFO ordering the fence wants. An early
        // probe: a read that queues is counted when it is admitted.
        if let Some(cluster) = shared.cluster.try_read() {
            if let Some(hit) = cluster.probe(mode, &group, &query_text, true) {
                let epoch = cluster.front_epoch();
                drop(cluster);
                shared.counters.warm_inline.fetch_add(1, Ordering::Relaxed);
                shared.counters.record_latency(submitted);
                return Ticket::ready(ServeResponse { epoch, answer: wrap(Some(hit)) });
            }
        }
        let job = move |shared: &Arc<Shared>, pending| {
            serve_read(shared, mode, group, query_text, wrap, pending)
        };
        self.enqueue(Work::Read(Box::new(job)), submitted)
    }

    fn enqueue(&self, work: Work, submitted: Instant) -> Ticket<ServeResponse> {
        let shared = &self.shared;
        let (ticket, completer) = Ticket::pending(Some(Arc::clone(&shared.pool)));
        {
            let mut admission = shared.admission.lock().expect("admission");
            admission.queue.push_back((work, Pending { completer, submitted }));
            let depth = admission.queue.len() as u64;
            shared.counters.queue_high_water.fetch_max(depth, Ordering::Relaxed);
        }
        pump(shared);
        ticket
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        let queue_depth = self.shared.admission.lock().expect("admission").queue.len() as u64;
        let mut latency_counts = [0u64; LATENCY_BOUNDS_US.len() + 1];
        for (out, counter) in latency_counts.iter_mut().zip(&c.latency) {
            *out = counter.load(Ordering::Relaxed);
        }
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            warm_inline: c.warm_inline.load(Ordering::Relaxed),
            mutations: c.mutations.load(Ordering::Relaxed),
            write_batches: c.write_batches.load(Ordering::Relaxed),
            max_write_batch: c.max_write_batch.load(Ordering::Relaxed),
            fence_waits: c.fence_waits.load(Ordering::Relaxed),
            in_flight_high_water: c.in_flight_high_water.load(Ordering::Relaxed),
            queue_depth,
            queue_high_water: c.queue_high_water.load(Ordering::Relaxed),
            latency_counts,
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
        loop {
            {
                let c = &self.shared.counters;
                let admission = self.shared.admission.lock().expect("admission");
                if admission.queue.is_empty()
                    && admission.readers_in_flight == 0
                    && !admission.writer_active
                    && c.completed.load(Ordering::Relaxed) == c.submitted.load(Ordering::Relaxed)
                {
                    return;
                }
            }
            if !self.shared.pool.help_one() {
                std::thread::yield_now();
            }
        }
    }
}

/// Admit as much of the queue as the fence allows. Runs after every
/// submit and every completion, on whichever thread got there — the
/// admission lock makes pumps mutually exclusive per decision, and the
/// loop re-checks after each dispatch so no admissible request is left
/// waiting for the next event. It only queues jobs, never runs one.
fn pump(shared: &Arc<Shared>) {
    loop {
        let (job, pending) = {
            let mut admission = shared.admission.lock().expect("admission");
            if admission.writer_active {
                return;
            }
            let Some((work, pending)) = admission.queue.pop_front() else { return };
            match work {
                Work::Write(mutation) if admission.readers_in_flight > 0 => {
                    // The fence: the mutation waits at the head for
                    // in-flight reads to drain; the last completion re-pumps.
                    admission.queue.push_front((Work::Write(mutation), pending));
                    shared.counters.fence_waits.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Work::Write(mutation) => {
                    admission.writer_active = true;
                    // Batched admission draining: the whole consecutive run
                    // of mutations at the head goes to one dispatch, capped
                    // by the policy's max_batch.
                    let mut batch = vec![(mutation, pending)];
                    take_writes(&mut admission.queue, &mut batch, shared.max_batch);
                    let in_flight = batch.len() as u64;
                    shared.counters.in_flight_high_water.fetch_max(in_flight, Ordering::Relaxed);
                    drop(admission);
                    // Nothing admits past an active writer; its completion
                    // job clears the flag and re-pumps.
                    dispatch_write(shared, batch);
                    return;
                }
                Work::Read(job) => {
                    admission.readers_in_flight += 1;
                    let in_flight = admission.readers_in_flight as u64;
                    shared.counters.in_flight_high_water.fetch_max(in_flight, Ordering::Relaxed);
                    (job, pending)
                }
            }
        };
        let job_shared = Arc::clone(shared);
        shared.pool.exec(move || job(&job_shared, pending));
    }
}

/// Run a batch of fenced mutations as one exclusive pool job: every
/// admitted read has drained, so the write lock is uncontended (modulo
/// inline warm probes, which never block — `try_read` yields to a
/// waiting writer). The job may hold a short batch open for
/// `max_delay_us` and then top it up with mutations that queued behind
/// the fence meanwhile (safe: `writer_active` keeps the pump off the
/// queue, and the top-up stops at the first queued read, so FIFO order
/// holds). It appends + applies the batch under the write lock, then
/// releases the fence and re-pumps **before** the covering fsync reports —
/// batch *k+1* admits and applies while batch *k*'s fsync runs on the
/// log's sync job. Tickets stay parked in a [`CommitGate`] until every
/// durability callback minted for the batch has fired, so `Mutated(Ok)`
/// means durable and acknowledgements keep submission order.
fn dispatch_write(shared: &Arc<Shared>, batch: Vec<(Box<Mutation>, Pending)>) {
    let pool = Arc::clone(&shared.pool);
    let shared = Arc::clone(shared);
    pool.exec(move || {
        let mut batch = batch;
        if batch.len() < shared.max_batch {
            if shared.max_delay_us > 0
                && shared.counters.writes_in_flight.load(Ordering::Relaxed) > batch.len() as u64
            {
                // The documented latency cost of batching: the first
                // record waits up to max_delay for peers to share its
                // fsync — but only when such peers exist (more writes in
                // flight than the batch holds); a lone writer's batch
                // goes straight to the log.
                std::thread::sleep(std::time::Duration::from_micros(shared.max_delay_us));
            }
            let mut admission = shared.admission.lock().expect("admission");
            take_writes(&mut admission.queue, &mut batch, shared.max_batch);
        }
        let (mutations, handles): (Vec<Mutation>, Vec<Pending>) =
            batch.into_iter().map(|(mutation, pending)| (*mutation, pending)).unzip();
        let count = handles.len() as u64;
        let gate = Arc::new(CommitGate {
            shared: Arc::clone(&shared),
            state: Mutex::new(GateState::default()),
        });
        let factory_gate = Arc::clone(&gate);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut cluster = shared.cluster.write();
            let outcomes = cluster.mutate_batch_pipelined(mutations, move |range| {
                // Mint-side accounting: the log fires every minted callback
                // exactly once (even on a synchronous append error), so
                // done == expected is a sound completion barrier.
                factory_gate.state.lock().expect("commit gate").expected += 1;
                let fired = Arc::clone(&factory_gate);
                Box::new(move |verdict| fired.on_durable(range, verdict)) as DurableCallback
            });
            drop(cluster);
            outcomes
        }));
        // The pipelining: the batch is applied (or panicked), so the fence
        // can lift now — the covering fsync is still in flight, and the next
        // batch validates and applies against it. Tickets complete later,
        // from maybe_finish, once the callbacks report in.
        shared.admission.lock().expect("admission").writer_active = false;
        pump(&shared);
        match outcome {
            Ok(outcomes) => {
                debug_assert_eq!(outcomes.len() as u64, count);
                shared.counters.mutations.fetch_add(count, Ordering::Relaxed);
                shared.counters.write_batches.fetch_add(1, Ordering::Relaxed);
                shared.counters.max_write_batch.fetch_max(count, Ordering::Relaxed);
                gate.stage(StagedCompletion { outcomes, handles, panic: None });
            }
            Err(payload) => {
                // Runs appended before the panic still own minted callbacks;
                // the gate waits for them so no callback outlives its batch's
                // accounting, then completes every ticket with the panic.
                gate.stage(StagedCompletion {
                    outcomes: Vec::new(),
                    handles,
                    panic: Some(payload),
                });
            }
        }
    });
}

/// Parks a write batch's tickets until the fsyncs covering its WAL runs
/// have all reported. Two halves race benignly: the write job stages
/// outcomes + completers after releasing the fence, and the sync job's
/// durability callbacks tick `done` toward `expected`; whichever side
/// observes both conditions takes the staged completion (the
/// `Option::take` makes the finisher unique) and resolves the tickets. A
/// batch that minted no callback (no log, or nothing valid to append)
/// finishes at `stage`.
struct CommitGate {
    shared: Arc<Shared>,
    state: Mutex<GateState>,
}

#[derive(Default)]
struct GateState {
    /// Durability callbacks minted by the batch's run flushes.
    expected: usize,
    /// Callbacks that have fired (Ok or Err).
    done: usize,
    /// Batch-index ranges whose covering fsync failed, with the error.
    failed: Vec<(Range<usize>, String)>,
    /// Set once by the write job; taken exactly once by the finisher.
    staged: Option<StagedCompletion>,
}

struct StagedCompletion {
    outcomes: Vec<(Result<MutationEffect>, u64)>,
    handles: Vec<Pending>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl CommitGate {
    fn on_durable(self: &Arc<Self>, range: Range<usize>, verdict: WalResult<()>) {
        {
            let mut state = self.state.lock().expect("commit gate");
            state.done += 1;
            if let Err(e) = verdict {
                state.failed.push((range, e.to_string()));
            }
        }
        self.maybe_finish();
    }

    fn stage(self: &Arc<Self>, staged: StagedCompletion) {
        self.state.lock().expect("commit gate").staged = Some(staged);
        self.maybe_finish();
    }

    fn maybe_finish(self: &Arc<Self>) {
        let (staged, failed) = {
            let mut state = self.state.lock().expect("commit gate");
            if state.done < state.expected || state.staged.is_none() {
                return;
            }
            let staged = state.staged.take().expect("checked above");
            (staged, std::mem::take(&mut state.failed))
        };
        let shared = &self.shared;
        match staged.panic {
            None => {
                for (i, ((result, epoch), Pending { completer, submitted })) in
                    staged.outcomes.into_iter().zip(staged.handles).enumerate()
                {
                    // An applied effect whose covering fsync failed must
                    // not acknowledge as durable: the durability error
                    // overrides the in-memory Ok (recovery will replay
                    // only what the log actually holds).
                    let result = match failed.iter().find(|(range, _)| range.contains(&i)) {
                        Some((_, detail)) => {
                            Err(ModelError::invalid(format!("durability: {detail}")))
                        }
                        None => result,
                    };
                    // Count before completing: once a ticket resolves,
                    // its owner may read stats, and quiesce() keys on
                    // completed == submitted.
                    shared.counters.writes_in_flight.fetch_sub(1, Ordering::Relaxed);
                    shared.counters.record_latency(submitted);
                    completer
                        .complete(ServeResponse { epoch, answer: QueryAnswer::Mutated(result) });
                }
            }
            Some(payload) => {
                // A panicked batch still completes every ticket — the
                // counter parity (and so quiesce()) must not wedge on it.
                // The payload is not clonable: the first ticket re-throws
                // the real payload, peers a marker naming the shared
                // cause.
                let mut payload = Some(payload);
                for Pending { completer, submitted } in staged.handles {
                    shared.counters.writes_in_flight.fetch_sub(1, Ordering::Relaxed);
                    shared.counters.record_latency(submitted);
                    match payload.take() {
                        Some(p) => completer.complete_with_panic(p),
                        None => completer.complete_with_panic(Box::new(
                            "a mutation batched with this one panicked the write job",
                        )),
                    }
                }
            }
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
    shared.admission.lock().expect("admission").readers_in_flight -= 1;
    pump(shared);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_core::policy::{AccessLevel, Policy};
    use ppwf_model::fixtures;
    use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
    use ppwf_repo::repository::{Repository, SpecId};

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
        let (cluster, _) = EngineCluster::open_durable(
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
        let (cluster, _) = EngineCluster::open_durable(
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
        let (recovered, _) = EngineCluster::open_durable(
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
