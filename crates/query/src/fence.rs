#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
//! The admission fence: every admission and acknowledgement decision of
//! the serving front, as one state machine with no lock, thread, clock or
//! pool. [`ServeFront`](crate::serve::ServeFront) holds one [`Fence`]
//! under one mutex, feeds it events (the methods below that return
//! nothing) and runs each [`Action`] that [`Fence::next_action`] hands
//! back, outside the lock. This module is the one statement of the rules;
//! the executor only carries them out.
//!
//! **Admission (the version fence).** Accepted requests wait in one FIFO
//! queue. Nothing is admitted while a write batch is active, and
//! otherwise the head of the queue decides:
//!
//! * a read at the head is admitted at once, however many reads are
//!   already in flight — reads run **concurrently**;
//! * a write at the head **waits** while any admitted read is still in
//!   flight (a *fence wait*), so nothing behind it passes it either;
//! * once the reads have drained, the write and the consecutive run of
//!   writes behind it, up to `max_batch`, are dispatched as one exclusive
//!   batch. A batch never takes a write from behind a queued read, so
//!   every request leaves the queue in submission order.
//!
//! So no read is in flight while a batch applies, and no batch applies
//! while a read is in flight: every read computes its whole response at
//! one epoch, and a response cannot stitch a pre-write view onto a
//! post-write one.
//!
//! **Write batches.** A batch shorter than `max_batch` at dispatch is
//! *short*: before it runs, its job tops it up ([`Fence::top_up`]) with
//! writes that queued behind the active writer meanwhile, again never
//! past a queued read. A short batch is first held open for
//! `max_delay_us` only while more writes are in flight (submitted and not
//! yet completed) than it holds, so a lone writer never waits.
//!
//! **Acknowledgement (the commit gate).** A batch's outcome reaches the
//! fence in [`Fence::applied`], which also **lifts the fence**: the next
//! batch may be admitted, validated and applied while this one's covering
//! fsync is still in flight. Its tickets stay in the fence until every
//! durability callback its log runs minted has reported
//! ([`Fence::durable`]), in whatever order the verdicts and the outcome
//! arrive, and until every earlier batch has completed. Then they are
//! released together ([`Action::Complete`]), in submission order, and a
//! ticket that a failed fsync covers completes with that error instead of
//! its in-memory outcome. So an `Ok` acknowledgement always means durable,
//! and the acknowledged writes are always a prefix of the submitted
//! ones. A batch that panicked still reports `applied`, so its tickets
//! complete too.
//!
//! The queued items are type parameters: `R` a read, `W` a write, `S` a
//! write's ticket once its batch has applied. The executor queues its
//! read jobs and mutations; the model tests below drive the same code
//! with plain integers.

use crate::serve::ServeStats;
use std::collections::VecDeque;
use std::ops::Range;

/// Names a dispatched write batch, so its job's outcome and each
/// durability verdict for one of its runs find its commit state.
pub(crate) type BatchId = u64;

/// An accepted request, as the executor submits it.
pub(crate) enum Request<R, W> {
    Read(R),
    Write(W),
}

/// A write batch to run exclusively: the consecutive run of writes that
/// was at the head of the queue.
pub(crate) struct WriteBatch<W> {
    pub(crate) id: BatchId,
    /// The writes, in submission order.
    pub(crate) writes: Vec<W>,
    /// Shorter than `max_batch` at dispatch: the job sends
    /// [`Fence::top_up`] once before it runs the batch.
    pub(crate) short: bool,
    /// How long (µs) the job holds a short batch open before that top-up:
    /// `max_delay_us` while more writes are in flight than the batch
    /// holds, else 0.
    pub(crate) hold_us: u64,
}

/// What the executor does next.
pub(crate) enum Action<R, W, S> {
    /// Run this admitted read; report [`Fence::read_done`] when it is.
    Read(R),
    /// Run this write batch; report [`Fence::applied`] when it is.
    Write(WriteBatch<W>),
    /// Complete these write tickets, in this order. A ticket paired with
    /// the error of the failed fsync that covers it completes with that
    /// error instead of its in-memory outcome.
    Complete(Vec<(S, Option<String>)>),
}

/// A dispatched batch's commit state.
struct Commit<S> {
    id: BatchId,
    /// The tickets with their outcomes, once the batch has applied.
    staged: Vec<S>,
    /// Durability callbacks the batch's runs minted: `None` until it has
    /// applied, and the batch is the active writer until then.
    minted: Option<usize>,
    /// Verdicts received so far, `Ok` or not.
    verdicts: usize,
    /// Batch-index ranges whose covering fsync failed, with the error.
    failed: Vec<(Range<usize>, String)>,
}

/// The admission and acknowledgement state machine. See the module docs.
pub(crate) struct Fence<R, W, S> {
    queue: VecDeque<Request<R, W>>,
    readers_in_flight: usize,
    /// Set by every event that may let the head of the queue through, and
    /// cleared by the pass that finds nothing to admit, so a write waiting
    /// at the head counts one fence wait per such event.
    admissible: bool,
    /// Dispatched batches whose tickets are not yet released, oldest first.
    commits: VecDeque<Commit<S>>,
    next_batch: BatchId,
    /// Writes submitted and not yet released.
    writes_in_flight: usize,
    max_batch: usize,
    max_delay_us: u64,
    /// The counters that describe the fence: `fence_waits`,
    /// `in_flight_high_water` and `queue_high_water`.
    stats: ServeStats,
}

impl<R, W, S> Fence<R, W, S> {
    /// A fence that batches up to `max_batch` (≥ 1) writes and holds a
    /// short batch open up to `max_delay_us`.
    pub(crate) fn new(max_batch: usize, max_delay_us: u64) -> Self {
        Fence {
            queue: VecDeque::new(),
            readers_in_flight: 0,
            admissible: false,
            commits: VecDeque::new(),
            next_batch: 0,
            writes_in_flight: 0,
            max_batch,
            max_delay_us,
            stats: ServeStats::default(),
        }
    }

    /// Event: a request was submitted.
    pub(crate) fn submit(&mut self, request: Request<R, W>) {
        self.writes_in_flight += matches!(request, Request::Write(_)) as usize;
        self.queue.push_back(request);
        self.stats.queue_high_water = self.stats.queue_high_water.max(self.queue.len() as u64);
        self.admissible = true;
    }

    /// Event: an admitted read completed its ticket.
    pub(crate) fn read_done(&mut self) {
        self.readers_in_flight -= 1;
        self.admissible = true;
    }

    /// Event: the hold-open window of the short batch `batch` elapsed (at
    /// once when it was not held). Moves the writes now at the head of the
    /// queue into it, up to `max_batch` and never past a queued read.
    pub(crate) fn top_up(&mut self, batch: &mut WriteBatch<W>) {
        while batch.writes.len() < self.max_batch {
            match self.queue.pop_front() {
                Some(Request::Write(write)) => batch.writes.push(write),
                Some(read) => return self.queue.push_front(read),
                None => return,
            }
        }
    }

    /// Event: batch `id` applied (or panicked), `staged` holding its
    /// tickets in submission order with what became of each, after its
    /// log runs minted `minted` durability callbacks. Lifts the fence.
    pub(crate) fn applied(&mut self, id: BatchId, staged: Vec<S>, minted: usize) {
        if let Some(commit) = self.commits.iter_mut().find(|commit| commit.id == id) {
            commit.staged = staged;
            commit.minted = Some(minted);
        }
        self.admissible = true;
    }

    /// Event: the durability verdict for the run `run` (indices into the
    /// batch) of batch `id`.
    pub(crate) fn durable(&mut self, id: BatchId, run: Range<usize>, verdict: Result<(), String>) {
        if let Some(commit) = self.commits.iter_mut().find(|commit| commit.id == id) {
            commit.verdicts += 1;
            if let Err(detail) = verdict {
                commit.failed.push((run, detail));
            }
        }
    }

    /// The next thing to do, if any: released tickets first, then the next
    /// admission the fence allows. Call until `None` after every event.
    pub(crate) fn next_action(&mut self) -> Option<Action<R, W, S>> {
        if let Some(tickets) = self.release() {
            return Some(Action::Complete(tickets));
        }
        let action = if self.admissible { self.admit() } else { None };
        self.admissible = action.is_some();
        action
    }

    /// The oldest batch's tickets, once it has applied and every verdict
    /// it minted is in.
    fn release(&mut self) -> Option<Vec<(S, Option<String>)>> {
        let ready =
            |head: &mut Commit<S>| head.minted.is_some_and(|minted| head.verdicts >= minted);
        let Commit { staged, failed, .. } = self.commits.pop_front_if(ready)?;
        self.writes_in_flight -= staged.len();
        let covering = |i| failed.iter().find(|(run, _)| run.contains(&i)).map(|(_, e)| e.clone());
        Some(staged.into_iter().enumerate().map(|(i, ticket)| (ticket, covering(i))).collect())
    }

    fn admit(&mut self) -> Option<Action<R, W, S>> {
        if self.commits.back().is_some_and(|active| active.minted.is_none()) {
            return None; // a writer is active
        }
        match self.queue.pop_front()? {
            Request::Read(read) => {
                self.readers_in_flight += 1;
                let high_water = &mut self.stats.in_flight_high_water;
                *high_water = (*high_water).max(self.readers_in_flight as u64);
                Some(Action::Read(read))
            }
            Request::Write(write) if self.readers_in_flight > 0 => {
                // The fence: the write waits at the head until the reads
                // in flight drain; the last one's `read_done` re-admits.
                self.queue.push_front(Request::Write(write));
                self.stats.fence_waits += 1;
                None
            }
            Request::Write(write) => {
                let id = self.next_batch;
                self.next_batch += 1;
                let mut batch = WriteBatch { id, writes: vec![write], short: false, hold_us: 0 };
                self.top_up(&mut batch);
                let len = batch.writes.len();
                self.stats.in_flight_high_water = self.stats.in_flight_high_water.max(len as u64);
                batch.short = len < self.max_batch;
                if batch.short && self.writes_in_flight > len {
                    batch.hold_us = self.max_delay_us;
                }
                let commit =
                    Commit { id, staged: vec![], minted: None, verdicts: 0, failed: vec![] };
                self.commits.push_back(commit);
                Some(Action::Write(batch))
            }
        }
    }

    /// Nothing queued, admitted, applying or awaiting its verdicts.
    pub(crate) fn idle(&self) -> bool {
        self.queue.is_empty() && self.readers_in_flight == 0 && self.commits.is_empty()
    }

    /// The fence's counters and its current queue depth; every other
    /// field is zero.
    pub(crate) fn stats(&self) -> ServeStats {
        ServeStats { queue_depth: self.queue.len() as u64, ..self.stats.clone() }
    }
}

#[cfg(test)]
mod tests {
    //! The fence against a sequential model. A case draws `max_batch`,
    //! whether batches may be held open, and a random schedule of every
    //! event the executor can raise — submits, read completions, a batch's
    //! top-up, its log runs minting callbacks, its outcome, durability
    //! verdicts for any minted run in any order (before or after the
    //! outcome) — interleaved with pulls of the next action. Each action is
    //! checked against the model as it is handed out:
    //!
    //! * requests leave the queue in submission order (FIFO), and a batch
    //!   or its top-up takes every write at the head up to `max_batch`,
    //!   stopping only at a queued read;
    //! * no read is admitted while a batch is active or waits at the head,
    //!   and no batch is dispatched while reads are in flight;
    //! * each ticket is released exactly once, in submission order, only
    //!   after its batch applied and every verdict it minted (and every
    //!   earlier batch) is in, and carries a durability error exactly when
    //!   a failed verdict's range covers it;
    //! * a short batch is held open exactly when more writes are in flight
    //!   than it holds.
    //!
    //! After the last event `idle()` holds exactly when every request has
    //! completed; then the model drains the fence and checks that all did.

    use super::*;
    use proptest::prelude::*;

    const MAX_DELAY_US: u64 = 50;

    /// A log run of a batch (indices into it) and its verdict once delivered.
    type Run = (Range<usize>, Option<Result<(), String>>);

    /// A dispatched batch as the model sees it.
    struct Batch {
        id: BatchId,
        writes: Vec<u32>,
        /// The log runs its apply minted (`None` until it starts).
        runs: Option<Vec<Run>>,
        applied: bool,
    }

    /// The fence under test beside the model of what it may do.
    struct Model {
        fence: Fence<u32, u32, u32>,
        max_batch: usize,
        max_delay_us: u64,
        /// Every request in submission order (its id is its index):
        /// `true` for a write.
        is_write: Vec<bool>,
        /// Requests the fence has taken off its queue: FIFO means exactly
        /// the ids `0..taken`.
        taken: usize,
        reads_in_flight: Vec<u32>,
        reads_done: usize,
        /// The dispatched batch whose job has not started applying yet, and
        /// whether the job has topped it up.
        dispatched: Option<(WriteBatch<u32>, bool)>,
        /// Batches whose tickets are not yet released, oldest first.
        batches: VecDeque<Batch>,
        /// Write tickets released, in release order.
        acked: Vec<u32>,
        failures: u32,
    }

    impl Model {
        fn new(max_batch: usize, hold_open: bool) -> Self {
            let max_delay_us = if hold_open { MAX_DELAY_US } else { 0 };
            Model {
                fence: Fence::new(max_batch, max_delay_us),
                max_batch,
                max_delay_us,
                is_write: Vec::new(),
                taken: 0,
                reads_in_flight: Vec::new(),
                reads_done: 0,
                dispatched: None,
                batches: VecDeque::new(),
                acked: Vec::new(),
                failures: 0,
            }
        }

        fn writes_submitted(&self) -> usize {
            self.is_write.iter().filter(|&&write| write).count()
        }

        fn writer_active(&self) -> bool {
            self.batches.back().is_some_and(|batch| !batch.applied)
        }

        fn submit(&mut self, write: bool) {
            let id = self.is_write.len() as u32;
            self.is_write.push(write);
            self.fence.submit(if write { Request::Write(id) } else { Request::Read(id) });
        }

        /// `id` leaves the queue: it must be the oldest request still in it.
        fn take(&mut self, id: u32, write: bool) -> Result<(), TestCaseError> {
            prop_assert_eq!(id as usize, self.taken, "requests must leave the queue in FIFO order");
            prop_assert_eq!(
                self.is_write[self.taken],
                write,
                "request {} taken as the wrong kind",
                id
            );
            self.taken += 1;
            Ok(())
        }

        /// A short batch stops only at a queued read (or an empty queue).
        fn check_stopped_at_a_read(&self, batch: &WriteBatch<u32>) -> Result<(), TestCaseError> {
            if batch.writes.len() < self.max_batch && self.taken < self.is_write.len() {
                prop_assert!(
                    !self.is_write[self.taken],
                    "batch {} left write {} at the head of the queue",
                    batch.id,
                    self.taken
                );
            }
            Ok(())
        }

        fn pull(&mut self) -> Result<bool, TestCaseError> {
            match self.fence.next_action() {
                None => return Ok(false),
                Some(Action::Read(id)) => {
                    prop_assert!(
                        !self.writer_active(),
                        "read {} admitted past an active batch",
                        id
                    );
                    self.take(id, false)?;
                    self.reads_in_flight.push(id);
                }
                Some(Action::Write(batch)) => {
                    prop_assert!(
                        !self.writer_active(),
                        "batch {} dispatched past another",
                        batch.id
                    );
                    prop_assert!(
                        self.reads_in_flight.is_empty(),
                        "batch {} dispatched with reads {:?} in flight",
                        batch.id,
                        self.reads_in_flight
                    );
                    prop_assert!(!batch.writes.is_empty() && batch.writes.len() <= self.max_batch);
                    for &id in &batch.writes {
                        self.take(id, true)?;
                    }
                    self.check_stopped_at_a_read(&batch)?;
                    prop_assert_eq!(batch.short, batch.writes.len() < self.max_batch);
                    let in_flight = self.writes_submitted() - self.acked.len();
                    let hold = batch.short && in_flight > batch.writes.len();
                    prop_assert_eq!(batch.hold_us, if hold { self.max_delay_us } else { 0 });
                    self.batches.push_back(Batch {
                        id: batch.id,
                        writes: Vec::new(),
                        runs: None,
                        applied: false,
                    });
                    self.dispatched = Some((batch, false));
                }
                Some(Action::Complete(tickets)) => {
                    let Some(batch) = self.batches.pop_front() else {
                        return Err(TestCaseError::Fail("tickets released with no batch".into()));
                    };
                    prop_assert!(batch.applied, "batch {} released before it applied", batch.id);
                    let runs = batch.runs.unwrap_or_default();
                    prop_assert!(
                        runs.iter().all(|(_, verdict)| verdict.is_some()),
                        "batch {} released before every covering verdict: {:?}",
                        batch.id,
                        runs
                    );
                    let ids: Vec<u32> = tickets.iter().map(|(id, _)| *id).collect();
                    prop_assert_eq!(
                        &ids,
                        &batch.writes,
                        "batch {} released other tickets",
                        batch.id
                    );
                    for (i, (id, error)) in tickets.into_iter().enumerate() {
                        let expected = runs.iter().find_map(|(range, verdict)| match verdict {
                            Some(Err(detail)) if range.contains(&i) => Some(detail.clone()),
                            _ => None,
                        });
                        prop_assert_eq!(error, expected, "ticket {} of batch {}", id, batch.id);
                        if let Some(&last) = self.acked.last() {
                            prop_assert!(id > last, "ticket {} released after {}", id, last);
                        }
                        self.acked.push(id);
                    }
                }
            }
            Ok(true)
        }

        fn read_done(&mut self, pick: u32) {
            if !self.reads_in_flight.is_empty() {
                self.reads_in_flight.swap_remove(pick as usize % self.reads_in_flight.len());
                self.reads_done += 1;
                self.fence.read_done();
            }
        }

        /// The executor tops a short batch up once, before it applies it.
        fn top_up(&mut self) -> Result<(), TestCaseError> {
            let Some((mut batch, topped_up)) = self.dispatched.take() else { return Ok(()) };
            if batch.short && !topped_up {
                let before = batch.writes.len();
                self.fence.top_up(&mut batch);
                prop_assert!(batch.writes.len() <= self.max_batch);
                for &id in &batch.writes[before..] {
                    self.take(id, true)?;
                }
                self.check_stopped_at_a_read(&batch)?;
            }
            self.dispatched = Some((batch, true));
            Ok(())
        }

        /// The dispatched batch's job applies it, its log runs minting
        /// callbacks: `pick` cuts the batch into runs and leaves some runs
        /// unlogged (validation failures, or no log at all).
        fn apply(&mut self, pick: u32) -> Result<(), TestCaseError> {
            self.top_up()?;
            let Some((batch, _)) = self.dispatched.take() else { return Ok(()) };
            let mut runs = Vec::new();
            let mut start = 0;
            for end in 1..=batch.writes.len() {
                if end == batch.writes.len() || pick >> end & 1 == 1 {
                    if pick >> (16 + runs.len() % 16) & 3 != 0 {
                        runs.push((start..end, None));
                    }
                    start = end;
                }
            }
            let Some(model) = self.batches.back_mut().filter(|model| model.id == batch.id) else {
                return Err(TestCaseError::Fail(format!("batch {} was not dispatched", batch.id)));
            };
            model.writes = batch.writes;
            model.runs = Some(runs);
            Ok(())
        }

        /// The applying batch's outcome arrives.
        fn applied(&mut self) {
            let Some(batch) = self.batches.back_mut() else { return };
            if let (Some(runs), false) = (&batch.runs, batch.applied) {
                self.fence.applied(batch.id, batch.writes.clone(), runs.len());
                batch.applied = true;
            }
        }

        /// A verdict for any minted run still owed one, in any order.
        fn verdict(&mut self, pick: u32) {
            let owed: Vec<(usize, usize)> = (self.batches.iter().enumerate())
                .flat_map(|(b, batch)| {
                    let runs = batch.runs.iter().flatten().enumerate();
                    runs.filter(|(_, (_, verdict))| verdict.is_none()).map(move |(r, _)| (b, r))
                })
                .collect();
            if owed.is_empty() {
                return;
            }
            let (b, r) = owed[pick as usize % owed.len()];
            let verdict = if pick >> 30 == 0 {
                self.failures += 1;
                Err(format!("fsync {} failed", self.failures))
            } else {
                Ok(())
            };
            let batch = &mut self.batches[b];
            let Some(run) = batch.runs.as_mut().and_then(|runs| runs.get_mut(r)) else { return };
            self.fence.durable(batch.id, run.0.clone(), verdict.clone());
            run.1 = Some(verdict);
        }

        fn everything_completed(&self) -> bool {
            self.reads_done + self.acked.len() == self.is_write.len()
        }

        /// Run the schedule out: pull, finish reads, apply, deliver
        /// verdicts, until nothing is left to do.
        fn drain(&mut self) -> Result<(), TestCaseError> {
            loop {
                while self.pull()? {}
                if !self.reads_in_flight.is_empty() {
                    self.read_done(0);
                } else if self.dispatched.is_some() {
                    self.apply(0)?;
                    self.applied();
                } else if self
                    .batches
                    .iter()
                    .any(|b| b.runs.iter().flatten().any(|r| r.1.is_none()))
                {
                    self.verdict(1 << 30);
                } else if self.writer_active() {
                    self.applied();
                } else {
                    return Ok(());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn fence_matches_its_sequential_model(
            max_batch in 1usize..=4,
            hold_open in any::<bool>(),
            schedule in proptest::collection::vec((0u8..12, any::<u32>()), 1..240),
        ) {
            let mut model = Model::new(max_batch, hold_open);
            for (step, pick) in schedule {
                match step {
                    0 => model.submit(false),
                    1 => model.submit(true),
                    2 | 3 => model.read_done(pick),
                    4..=6 => {
                        model.pull()?;
                    }
                    7 => model.top_up()?,
                    8 => model.apply(pick)?,
                    9 => model.applied(),
                    _ => model.verdict(pick),
                }
                let queued = (model.is_write.len() - model.taken) as u64;
                prop_assert_eq!(model.fence.stats().queue_depth, queued);
            }
            prop_assert_eq!(model.fence.idle(), model.everything_completed());
            model.drain()?;
            prop_assert!(model.everything_completed(), "the drained fence left requests incomplete");
            prop_assert!(model.fence.idle());
        }
    }
}
