//! The load generator: set-up, warm-up, the measured phase (closed or
//! open loop), and the checks that follow it. One driver thread, never
//! more generator threads than cores.

use super::oracle::{digest_answer, replay_and_check_samples, Sample, Verifier};
use super::report::median;
use super::{build_stack, DataDir, Inputs, Op, Options, Stack, Workload, SAMPLE_EVERY};
use crate::hist::Histogram;
use crate::stream::{drain_durable, kind_of, sequential_replay};
use ppwf_query::serve::{QueryAnswer, ServeResponse};
use ppwf_query::{ClusterStats, ServeStats};
use ppwf_repo::repository::Repository;
use ppwf_repo::storage::{FsStorage, StorageBackend};
use ppwf_repo::ticket::Ticket;
use ppwf_repo::wal::{DurabilityStats, RecoveryStats};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One recorded call: which request, when it started and ended (ns since
/// the rung's origin), and for a front request when `submit` returned.
#[derive(Clone, Copy, Debug)]
pub struct CallSpan {
    pub request: u32,
    pub write: bool,
    pub start_ns: u64,
    pub submitted_ns: u64,
    pub end_ns: u64,
}

/// When the measured phase stops issuing requests.
#[derive(Clone, Copy, Debug)]
pub struct Limit {
    pub seconds: f64,
    pub ops: Option<u64>,
}

impl Limit {
    fn reached(&self, elapsed: Duration, issued: u64) -> bool {
        match self.ops {
            Some(ops) => issued >= ops,
            None => elapsed.as_secs_f64() >= self.seconds,
        }
    }
}

/// Windows a time-boxed measured phase is cut into. Each end-to-end
/// metric is the median of its per-window readings, so the stalls of a
/// shared host (tens of ms, several a run when the hypervisor throttles
/// the guest) spoil the windows they fall in, not the run.
pub const WINDOWS: usize = 20;

/// The samples that completed in one window of the measured phase.
#[derive(Default)]
pub struct Window {
    pub reads: Histogram,
    pub writes: Histogram,
    /// Open loop: how late each request was issued after its due time.
    pub gen_lag: Histogram,
}

impl Window {
    pub fn completed(&self) -> u64 {
        self.reads.count() + self.writes.count()
    }

    /// The workload's gated latencies: reads, except on `write_durable`.
    pub fn gated(&self, workload: Workload) -> &Histogram {
        workload.gated(&self.reads, &self.writes)
    }
}

/// What the measured phase observed.
#[derive(Default)]
pub struct Measured {
    /// Equal slices of the time box, by completion time (one slice when
    /// the phase is bounded by an operation count instead). Completions
    /// that drain after the box closes count in the last.
    pub windows: Vec<Window>,
    pub window_s: f64,
    /// Read latency over the whole phase: submit (closed loop) or due
    /// time (open loop) → completion observed.
    pub reads: Histogram,
    pub writes: Histogram,
    pub attempted: u64,
    pub failed: u64,
    /// First submit → last completion.
    pub elapsed_s: f64,
    pub writes_by_kind: [u64; 5],
    /// Epoch of each acknowledged write, in stream order.
    pub ack_epochs: Vec<u64>,
    pub samples: Vec<Sample>,
    /// Open loop: requests still pending when the schedule ended.
    pub backlog: u64,
}

impl Measured {
    pub fn completed(&self) -> u64 {
        self.reads.count() + self.writes.count()
    }

    /// The workload's gated latencies: reads, except on `write_durable`.
    pub fn gated(&self, workload: Workload) -> &Histogram {
        workload.gated(&self.reads, &self.writes)
    }

    /// The phase's first `n` completions, as closely as the windows tell:
    /// the seconds they took (the last window counted in proportion) and
    /// the gated latencies of the windows that hold them (the last one
    /// whole). The ladder replays a prefix of the run, and on a workload
    /// whose state grows — executions accrue, snapshots get bigger — only
    /// the same prefix of the untraced run is comparable to it.
    pub fn prefix(&self, workload: Workload, n: u64) -> (f64, Histogram) {
        let mut gated = Histogram::default();
        if self.windows.len() < 2 {
            gated.merge(self.gated(workload));
            return (self.elapsed_s, gated);
        }
        let (mut seen, mut seconds) = (0u64, 0.0);
        for window in &self.windows {
            let here = window.completed();
            gated.merge(window.gated(workload));
            if seen + here >= n {
                seconds += self.window_s * (n - seen) as f64 / here.max(1) as f64;
                break;
            }
            seen += here;
            seconds += self.window_s;
        }
        (seconds, gated)
    }

    /// Median over the windows of the `q`-quantile (µs) of the histogram
    /// `pick` selects; windows in which it holds no sample are skipped.
    pub fn window_median_us(&self, pick: impl Fn(&Window) -> &Histogram, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(pick)
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile_us(q))
            .collect();
        median(&per_window)
    }

    /// Median over the windows of completions per second.
    pub fn windowed_throughput(&self) -> f64 {
        if self.windows.len() < 2 {
            return self.completed() as f64 / self.elapsed_s.max(1e-9);
        }
        let per_window: Vec<f64> =
            self.windows.iter().map(|w| w.completed() as f64 / self.window_s).collect();
        median(&per_window)
    }
}

/// Judges completed responses and keeps the tallies.
struct Judge<'a> {
    inputs: &'a Inputs,
    verifier: Option<&'a mut Verifier>,
    out: Measured,
    reads_seen: u64,
    /// Acknowledged epoch per stream index; the open loop can observe two
    /// completions in either order, so order is checked at the end.
    acks: Vec<Option<u64>>,
    window: usize,
    window_ns: u64,
    /// Completion time at which the current window ends.
    boundary_ns: u64,
}

impl<'a> Judge<'a> {
    fn new(inputs: &'a Inputs, verifier: Option<&'a mut Verifier>, limit: Limit) -> Judge<'a> {
        let windows = if limit.ops.is_some() { 1 } else { WINDOWS };
        let window_s = limit.seconds / windows as f64;
        let out = Measured {
            windows: (0..windows).map(|_| Window::default()).collect(),
            window_s,
            ..Measured::default()
        };
        let window_ns = if windows == 1 { u64::MAX } else { (window_s * 1e9) as u64 };
        Judge {
            inputs,
            verifier,
            out,
            reads_seen: 0,
            acks: Vec::new(),
            window: 0,
            window_ns,
            boundary_ns: window_ns,
        }
    }

    /// Judge one completed response: `latency` is what the client waited,
    /// `at` when the completion was observed, since the phase began.
    /// Completions arrive in observation order, so the window only ever
    /// advances.
    fn complete(&mut self, op: Op, response: ServeResponse, latency: Duration, at: Duration) {
        let at_ns = at.as_nanos() as u64;
        while at_ns >= self.boundary_ns && self.window + 1 < self.out.windows.len() {
            self.window += 1;
            self.boundary_ns += self.window_ns;
        }
        let window = &mut self.out.windows[self.window];
        let latency_ns = latency.as_nanos() as u64;
        let ok = match (op, &response.answer) {
            (Op::Write(index), QueryAnswer::Mutated(Ok(_))) => {
                if self.acks.len() <= index {
                    self.acks.resize(index + 1, None);
                }
                self.acks[index] = Some(response.epoch);
                self.out.writes_by_kind[kind_of(&self.inputs.stream[index])] += 1;
                window.writes.record(latency_ns);
                true
            }
            (Op::Read(pair), answer) => {
                window.reads.record(latency_ns);
                self.reads_seen += 1;
                match &mut self.verifier {
                    Some(verifier) => verifier.check(pair, answer),
                    None => match digest_answer(answer) {
                        Some(digest) => {
                            if self.reads_seen.is_multiple_of(SAMPLE_EVERY) {
                                self.out.samples.push(Sample {
                                    pair,
                                    epoch: response.epoch,
                                    digest,
                                });
                            }
                            true
                        }
                        None => false,
                    },
                }
            }
            (Op::Write(_), _) => false,
        };
        if !ok {
            self.out.failed += 1;
        }
    }

    /// Open loop: a request was issued `late` after its due time.
    fn late(&mut self, late: Duration) {
        self.out.windows[self.window].gen_lag.record(late.as_nanos() as u64);
    }

    /// Close the phase: fold the windows into the whole-phase histograms
    /// and hold the acknowledgements to their contract — a FIFO prefix of
    /// the stream (no holes) with epochs that never step back.
    fn finish(mut self, attempted: usize, elapsed: Duration) -> Measured {
        for window in &self.out.windows {
            self.out.reads.merge(&window.reads);
            self.out.writes.merge(&window.writes);
        }
        let mut last = 0;
        for ack in &self.acks {
            match ack {
                Some(epoch) if *epoch >= last => last = *epoch,
                _ => self.out.failed += 1,
            }
        }
        self.out.ack_epochs = self.acks.iter().map_while(|ack| *ack).collect();
        self.out.attempted = attempted as u64;
        self.out.elapsed_s = elapsed.as_secs_f64();
        self.out
    }
}

/// A request the generator has issued and not yet seen complete.
struct Pending {
    ticket: Ticket<ServeResponse>,
    issue: Issue,
}

#[derive(Clone, Copy)]
struct Issue {
    /// Open loop: when the schedule wanted it sent. Closed loop: `issued`.
    due: Instant,
    issued: Instant,
    submitted: Instant,
    op: Op,
    index: usize,
}

impl Issue {
    fn span(&self, origin: Instant, end: Instant) -> CallSpan {
        CallSpan {
            request: self.index as u32,
            write: matches!(self.op, Op::Write(_)),
            start_ns: (self.issued - origin).as_nanos() as u64,
            submitted_ns: (self.submitted - origin).as_nanos() as u64,
            end_ns: (end - origin).as_nanos() as u64,
        }
    }
}

/// Closed loop: keep `window` requests in flight, wait for the oldest
/// (parking or helping the pool inside `Ticket::wait`), issue the next.
fn closed_loop(
    stack: &Stack,
    inputs: &Inputs,
    verifier: Option<&mut Verifier>,
    window: usize,
    limit: Limit,
    mut spans: Option<&mut Vec<CallSpan>>,
) -> Measured {
    let mut judge = Judge::new(inputs, verifier, limit);
    let mut in_flight: VecDeque<Pending> = VecDeque::with_capacity(window);
    let origin = Instant::now();
    let mut now = origin;
    let mut issued = 0usize;
    loop {
        let may_issue = in_flight.len() < window && !limit.reached(now - origin, issued as u64);
        if let Some(op) = may_issue.then(|| inputs.op(issued)).flatten() {
            let request = inputs.request(op);
            let start = Instant::now();
            let ticket = stack.front.submit(request);
            // The second clock read exists only on the traced path.
            let submitted = if spans.is_some() { Instant::now() } else { start };
            let issue = Issue { due: start, issued: start, submitted, op, index: issued };
            in_flight.push_back(Pending { ticket, issue });
            issued += 1;
            continue;
        }
        let Some(Pending { ticket, issue }) = in_flight.pop_front() else { break };
        let response = ticket.wait();
        now = Instant::now();
        if let Some(spans) = spans.as_deref_mut() {
            spans.push(issue.span(origin, now));
        }
        judge.complete(issue.op, response, now - issue.issued, now - origin);
    }
    judge.finish(issued, now - origin)
}

/// How long the open loop waits for stragglers after its schedule ends
/// before counting them as never completed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

struct OpenLoop<'a> {
    judge: Judge<'a>,
    pending: Vec<Pending>,
    origin: Instant,
    last_completion: Instant,
    spans: Option<&'a mut Vec<CallSpan>>,
}

impl OpenLoop<'_> {
    /// Collect every pending ticket that has completed, stamping each
    /// with the time it was seen complete.
    fn poll(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            if !self.pending[i].ticket.is_complete() {
                i += 1;
                continue;
            }
            let seen = Instant::now();
            let Pending { ticket, issue } = self.pending.swap_remove(i);
            if let Some(spans) = self.spans.as_deref_mut() {
                spans.push(issue.span(self.origin, seen));
            }
            self.last_completion = seen;
            self.judge.complete(issue.op, ticket.wait(), seen - issue.due, seen - self.origin);
        }
    }
}

/// Open loop: request `i` is due at `origin + i / rate` whatever the
/// system is doing, and is timed from that due time. The driver never
/// sleeps past a due time: between due times it polls every pending
/// ticket, so a completion is stamped when it happens, not when an older
/// ticket drains — and, like every ticket owner in this system (that is
/// what `Ticket::wait` does in the closed loops), it runs one queued pool
/// job if there is one, and yields if there is none. Without that help
/// every dispatched read waits for a parked worker to wake, and on a
/// shared VM that wake-up (1–20 µs, see [`probe_thread_wakeup_us`]) is
/// what the read median would measure.
fn open_loop<'a>(
    stack: &Stack,
    inputs: &'a Inputs,
    rate: u64,
    limit: Limit,
    spans: Option<&'a mut Vec<CallSpan>>,
) -> Measured {
    let origin = Instant::now();
    let mut state = OpenLoop {
        judge: Judge::new(inputs, None, limit),
        pending: Vec::new(),
        origin,
        last_completion: origin,
        spans,
    };
    let mut issued = 0usize;
    loop {
        let offset = Duration::from_nanos((issued as u128 * 1_000_000_000 / rate as u128) as u64);
        if limit.reached(offset, issued as u64) {
            break;
        }
        let Some(op) = inputs.op(issued) else { break };
        let due = origin + offset;
        let late = loop {
            state.poll();
            let now = Instant::now();
            if now >= due {
                break now - due;
            }
            if !stack.pool.help_one() {
                std::thread::yield_now();
            }
        };
        state.judge.late(late);
        let request = inputs.request(op);
        let start = Instant::now();
        let ticket = stack.front.submit(request);
        let submitted = Instant::now();
        let issue = Issue { due, issued: start, submitted, op, index: issued };
        state.pending.push(Pending { ticket, issue });
        issued += 1;
    }
    state.poll();
    state.judge.out.backlog = state.pending.len() as u64;
    let drain_from = Instant::now();
    while !state.pending.is_empty() && drain_from.elapsed() < DRAIN_TIMEOUT {
        if !stack.pool.help_one() {
            std::thread::yield_now();
        }
        state.poll();
    }
    // Whatever is still pending never completed: a failure, not a sample.
    state.judge.out.failed += state.pending.len() as u64;
    state.judge.finish(issued, state.last_completion - origin)
}

/// The workload's measured phase on a warmed stack: the open loop for
/// `mixed_live`, a closed loop at the workload's depth otherwise.
pub fn measured_phase<'a>(
    stack: &Stack,
    inputs: &'a Inputs,
    options: &Options,
    verifier: Option<&'a mut Verifier>,
    limit: Limit,
    spans: Option<&'a mut Vec<CallSpan>>,
) -> Measured {
    match inputs.workload {
        Workload::MixedLive => open_loop(stack, inputs, options.sizes.live_rate, limit, spans),
        closed => closed_loop(stack, inputs, verifier, closed.in_flight(), limit, spans),
    }
}

/// One warm-up pass: every distinct read once, through the front, at the
/// workload's depth — so the measured phase starts on full caches (and,
/// for the scan, on caches already evicting).
pub fn warm_up(stack: &Stack, inputs: &Inputs) {
    let window = inputs.workload.in_flight();
    let mut in_flight = VecDeque::with_capacity(window);
    for pair in inputs.warm_up_pairs() {
        if in_flight.len() == window {
            let ticket: Ticket<ServeResponse> = in_flight.pop_front().expect("full window");
            ticket.wait();
        }
        in_flight.push_back(stack.front.submit(inputs.request(Op::Read(pair))));
    }
    for ticket in in_flight {
        ticket.wait();
    }
}

/// Counter snapshots around the measured phase.
pub struct StatsCut {
    pub serve: ServeStats,
    pub cluster: ClusterStats,
    pub durability: Option<DurabilityStats>,
    pub docs_retracted: u64,
}

/// Read every public counter. The front must be at rest ([`drain_durable`]).
pub fn cut_stats(stack: &Stack) -> StatsCut {
    let (cluster, durability, docs_retracted) = stack.front.with_cluster(|c| {
        let retracted: usize = c.shards().iter().map(|s| s.index().docs_retracted()).sum();
        (c.stats(), c.durability_stats(), retracted as u64)
    });
    StatsCut { serve: stack.front.stats(), cluster, durability, docs_retracted }
}

/// Median of 200 raw append+sync calls on the benchmark's disk, in µs —
/// the floor under every durable write, and the tmpfs detector.
pub fn probe_fsync_us(dir: &std::path::Path) -> f64 {
    let storage = FsStorage::open(dir).expect("probe storage root");
    let mut hist = Histogram::default();
    let payload = [0xA5u8; 256];
    for _ in 0..200 {
        let start = Instant::now();
        storage.append("probe.log", &payload).expect("probe append");
        storage.sync("probe.log").expect("probe sync");
        hist.record(start.elapsed().as_nanos() as u64);
    }
    let _ = std::fs::remove_dir_all(dir);
    hist.quantile_us(0.5)
}

/// Median µs from `unpark` to the woken thread running, over 400 wakes of
/// a thread that had been parked for ~50 µs — the gap a pool worker idles
/// for between `mixed_live` requests. On a shared VM this moves severalfold
/// with what the hypervisor is doing, and every latency that crosses the
/// pool moves with it; recorded so a reader can tell the host's regime
/// from the product's.
pub fn probe_thread_wakeup_us() -> f64 {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let origin = Instant::now();
    // ns since `origin` at which the sleeper last woke; 0 while parked.
    let woke_ns = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut hist = Histogram::default();
    std::thread::scope(|scope| {
        let sleeper = scope.spawn(|| loop {
            std::thread::park();
            if stop.load(Ordering::Acquire) {
                return;
            }
            // Release pairs with the prober's Acquire load below.
            woke_ns.store(origin.elapsed().as_nanos() as u64, Ordering::Release);
        });
        for _ in 0..400 {
            let idle_until = Instant::now() + Duration::from_micros(50);
            while Instant::now() < idle_until {
                std::hint::spin_loop();
            }
            woke_ns.store(0, Ordering::Release);
            let sent_ns = origin.elapsed().as_nanos() as u64;
            sleeper.thread().unpark();
            let woke = loop {
                match woke_ns.load(Ordering::Acquire) {
                    0 => std::hint::spin_loop(),
                    ns => break ns,
                }
            };
            hist.record(woke.saturating_sub(sent_ns));
        }
        stop.store(true, Ordering::Release);
        sleeper.thread().unpark();
    });
    hist.quantile_us(0.5)
}

/// Everything one untraced run produced.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub measured: Measured,
    pub before: StatsCut,
    pub after: StatsCut,
    /// Durable workloads: what recovery found, and the ms it took.
    pub recovery: Option<(RecoveryStats, f64)>,
    /// Σ `encode_mutation` bytes of the acknowledged writes.
    pub user_bytes: u64,
    pub checks: Vec<Check>,
    pub hit_checksum: u64,
    pub nonempty_share: f64,
}

/// One named pass/fail with its evidence.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
    /// The gate judges how the host kept time under the load generator,
    /// not the product's answers or the workload's regime: it is printed
    /// and recorded, and never fails the run. A neighbour's writes on a
    /// shared disk are enough to trip one (the generator helps the pool,
    /// and an fsync job it picks up keeps it for milliseconds).
    pub host: bool,
}

impl Check {
    /// Whether the run stands despite this gate.
    pub fn holds(&self) -> bool {
        self.pass || self.host
    }
}

fn cluster_epoch(stack: &Stack) -> u64 {
    stack.front.with_cluster(|c| c.version_vector().iter().sum())
}

/// Build a stack and warm it, timed: corpus ingest and partition, index
/// build, log open over a baseline snapshot, front, warm-up pass.
pub fn timed_setup(inputs: &Inputs, data: &mut DataDir) -> (Stack, f64) {
    let root = inputs.workload.durable().then(|| data.fresh(inputs.workload.name()));
    let start = Instant::now();
    let stack = build_stack(&inputs.corpus, root.as_deref());
    warm_up(&stack, inputs);
    (stack, start.elapsed().as_secs_f64())
}

/// Tear a stack down: rest, then drop front, cluster, log and pool.
pub fn tear_down(stack: Stack) {
    drain_durable(&stack.front);
    drop(stack);
}

/// Set-ups repeat (between the bounds in `sizes.setups`) until they have
/// taken this long in total: a 30 ms set-up needs more repeats for a
/// steady median than a 5 s one can afford.
const SETUP_BUDGET_S: f64 = 1.0;

/// The untraced run of one workload: repeated timed set-ups (the last
/// one is measured on), the measured phase, and every check.
pub fn run_untraced(
    inputs: &Inputs,
    options: &Options,
    data: &mut DataDir,
    mut verifier: Option<&mut Verifier>,
) -> Run {
    let workload = inputs.workload;
    let mut setup_s = Vec::new();
    let mut stack = None;
    let (fewest, most) = options.sizes.setups;
    while setup_s.len() < most.max(1)
        && (setup_s.len() < fewest || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(previous) = stack.take() {
            tear_down(previous);
        }
        let (built, seconds) = timed_setup(inputs, data);
        setup_s.push(seconds);
        stack = Some(built);
    }
    let stack = stack.expect("at least one set-up");
    drain_durable(&stack.front);
    let before = cut_stats(&stack);
    let initial_epoch = cluster_epoch(&stack);
    let limit = Limit { seconds: options.seconds, ops: options.ops };
    let mut measured =
        measured_phase(&stack, inputs, options, verifier.as_deref_mut(), limit, None);
    drain_durable(&stack.front);
    let after = cut_stats(&stack);

    let mut checks = Vec::new();
    let mut recovery = None;
    let mut user_bytes = 0;
    if let Some(backend) = &stack.backend {
        let acked = measured.ack_epochs.len();
        let mut encoded = Vec::new();
        for mutation in &inputs.stream[..acked] {
            encoded.clear();
            ppwf_repo::wal::encode_mutation(&mut encoded, mutation);
            user_bytes += encoded.len() as u64;
        }
        let start = Instant::now();
        let recovered = Repository::recover(backend.as_ref());
        let recover_ms = start.elapsed().as_secs_f64() * 1e3;
        let (wrong_samples, reference) = if workload == Workload::MixedLive {
            let samples = std::mem::take(&mut measured.samples);
            let sampled = samples.len();
            let (wrong, image) =
                replay_and_check_samples(inputs, initial_epoch, &measured.ack_epochs, samples);
            checks.push(Check {
                name: "sampled_reads_match_reference_at_epoch",
                pass: wrong == 0 && sampled > 0,
                detail: format!("{sampled} reads re-evaluated, {wrong} wrong"),
                host: false,
            });
            (wrong, image)
        } else {
            (0, sequential_replay(&inputs.corpus, &inputs.stream, acked).save().to_vec())
        };
        measured.failed += wrong_samples;
        match recovered {
            Ok((repo, stats)) => {
                let identical = repo.save()[..] == reference[..];
                checks.push(Check {
                    name: "recovery_equals_sequential_replay",
                    pass: identical && stats.last_seq == acked as u64,
                    detail: format!(
                        "{acked} acknowledged, recovered through seq {}, {} replayed, images {}",
                        stats.last_seq,
                        stats.replayed,
                        if identical { "byte-identical" } else { "DIFFER" }
                    ),
                    host: false,
                });
                recovery = Some((stats, recover_ms));
            }
            Err(error) => checks.push(Check {
                name: "recovery_equals_sequential_replay",
                pass: false,
                detail: format!("recovery failed: {error}"),
                host: false,
            }),
        }
    }
    let (hit_checksum, nonempty_share) =
        verifier.as_deref().map_or((0, 0.0), |v| (v.folded, v.nonempty_share()));
    checks.push(Check {
        name: "every_answer_checked",
        pass: measured.failed == 0 && measured.completed() == measured.attempted,
        detail: format!(
            "{} attempted, {} completed, {} failed",
            measured.attempted,
            measured.completed(),
            measured.failed
        ),
        host: false,
    });
    tear_down(stack);
    Run {
        setup_s,
        measured,
        before,
        after,
        recovery,
        user_bytes,
        checks,
        hit_checksum,
        nonempty_share,
    }
}
