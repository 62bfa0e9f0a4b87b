//! E20: one end-to-end benchmark through the real front door.
//!
//! Four seeded workloads are played through [`ServeFront::submit`] →
//! `EngineCluster` → (for the durable ones) the pipelined WAL on
//! `FsStorage`; every answer is checked ([`oracle`]); end-to-end numbers
//! come from the untraced run ([`drive`]) and per-layer numbers from
//! counters plus the traced ladder ([`ladder`]). [`report`] names every
//! metric, assembles the one-schema JSON and implements `compare`.
//! `perfbench/BENCHMARKS.md` explains why each workload and metric exists.

pub mod drive;
pub mod ladder;
pub mod oracle;
pub mod report;

use ppwf_bench::{e11_corpus, e11_query_log, e11_repo, standard_registry, E10_GROUPS};
use ppwf_model::spec::Specification;
use ppwf_query::ranking::RankingMode;
use ppwf_query::{EngineCluster, Plan, ServeFront, ServeRequest, ShardStrategy};
use ppwf_repo::mutation::Mutation;
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::storage::{FsStorage, StorageBackend};
use ppwf_repo::wal::{DurabilityPolicy, DurableLog};
use ppwf_workloads::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::hist::Histogram;
use crate::json::Json;
use crate::stream::steady_write_stream;

/// Shards of the cluster under test (round-robin placement).
pub const SHARDS: usize = 2;
/// Threads of the one pool shared by cluster, front, snapshot and sync jobs.
pub const POOL_THREADS: usize = 2;
/// Every `WRITE_EVERY`-th `mixed_live` request is a mutation.
pub const WRITE_EVERY: usize = 20;
/// One `mixed_live` read in `SAMPLE_EVERY` is re-evaluated after the run.
pub const SAMPLE_EVERY: u64 = 64;

/// The policy the durable workloads open. Built only from `pipelined` and
/// `snapshot_every` so a later "one write path" change needs no edit here.
/// The default cadence of 256 is deliberately not used: it turns the run
/// into a race between overlapping background snapshots.
pub fn durable_policy() -> DurabilityPolicy {
    DurabilityPolicy { snapshot_every: 8192, ..DurabilityPolicy::pipelined(16, 0) }
}

/// The four workloads. Names are permanent: later changes are judged by
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadHot,
    ReadThrash,
    WriteDurable,
    MixedLive,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ReadHot, Workload::ReadThrash, Workload::WriteDurable, Workload::MixedLive];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::ReadThrash => "read_thrash",
            Workload::WriteDurable => "write_durable",
            Workload::MixedLive => "mixed_live",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the front runs over a durable log on `FsStorage`.
    pub fn durable(self) -> bool {
        matches!(self, Workload::WriteDurable | Workload::MixedLive)
    }

    /// The latencies the workload is gated on: reads, except on
    /// `write_durable`.
    pub fn gated<'a>(self, reads: &'a Histogram, writes: &'a Histogram) -> &'a Histogram {
        if self == Workload::WriteDurable {
            writes
        } else {
            reads
        }
    }

    /// Requests the load generator keeps in flight (closed loops); the
    /// open loop has no window, this is only its warm-up depth.
    pub fn in_flight(self) -> usize {
        match self {
            Workload::ReadHot => 1,
            Workload::ReadThrash | Workload::MixedLive => 4,
            Workload::WriteDurable => 16,
        }
    }
}

/// Working-set sizes. `full` is the benchmark; `tiny` exists so the smoke
/// test can run all four workloads in a debug build in seconds — its
/// working sets do not overflow the 4096-entry caches, so the regime
/// gates are reported but not enforced there.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub specs: usize,
    pub hot_queries: usize,
    pub thrash_queries: usize,
    pub live_queries: usize,
    /// Offered `mixed_live` rate, requests/s.
    pub live_rate: u64,
    /// Fewest and most set-ups per run; `setup_s` is their median.
    pub setups: (usize, usize),
    /// Requests each ladder rung replays at most.
    pub ladder_cap: usize,
    pub enforce_regimes: bool,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            specs: 1024,
            hot_queries: 96,
            thrash_queries: 16384,
            live_queries: 1024,
            live_rate: 10_000,
            setups: (3, 15),
            ladder_cap: 50_000,
            enforce_regimes: true,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            specs: 64,
            hot_queries: 12,
            thrash_queries: 96,
            live_queries: 48,
            live_rate: 2_000,
            setups: (1, 1),
            ladder_cap: 400,
            enforce_regimes: false,
        }
    }
}

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Stop the measured phase after exactly this many operations instead
    /// of after `seconds` — for tests that compare exact counts.
    pub ops: Option<u64>,
    pub trace: bool,
    pub sizes: Sizes,
    /// Root under which this process creates (and removes) its own
    /// storage directory.
    pub data_dir: PathBuf,
    /// Where result JSON and trace files go.
    pub out_dir: PathBuf,
}

/// How a read is evaluated; fixed by the query's index in its pool so the
/// three result-cache families never share a `(group, query)` key:
/// 60 % keyword, 20 % private, 20 % ranked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    Keyword,
    Private,
    Ranked,
}

pub const PRIVATE_PLAN: Plan = Plan::FilterThenSearch;
pub const RANKING_MODE: RankingMode = RankingMode::VisibleOnly;

/// One distinct read: a query for a group, evaluated one way.
#[derive(Clone, Copy, Debug)]
pub struct Pair {
    pub query: usize,
    pub group: usize,
    pub kind: ReadKind,
}

/// One operation of a workload's sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Index into [`Inputs::pairs`].
    Read(usize),
    /// Index into [`Inputs::stream`].
    Write(usize),
}

/// Seed of the corpus and the query pools. They are the *working set*,
/// and they do not vary with `--seed`: a run's level would otherwise
/// depend on which queries a seed happens to make hot (under Zipf(1.0)
/// the top pair alone is 12 % of `mixed_live`'s reads), and two sets of
/// runs could not be told apart from two sets of seeds. `--seed` drives
/// what a client varies: the order of requests, the Zipf draws and the
/// write stream.
pub const WORKING_SET_SEED: u64 = 17;

/// Everything generated before the product sees a request.
pub struct Inputs {
    pub workload: Workload,
    pub corpus: Vec<Specification>,
    pub queries: Vec<String>,
    pub pairs: Vec<Pair>,
    requests: Vec<ServeRequest>,
    pub stream: Vec<Mutation>,
    /// The read loops' cycle: every pair once, in seeded order. Warm-up
    /// and measured phase walk the same cycle, so a scan larger than the
    /// caches never meets a key LRU still holds.
    cycle: Vec<u32>,
    /// `mixed_live` only: the Zipf-drawn pair of each read, in order.
    live_draws: Vec<u32>,
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

impl Inputs {
    /// Generate the workload's inputs. `horizon_ops` bounds how many
    /// operations the measured phase can consume (the write stream and
    /// the open-loop schedule are materialised up front).
    pub fn generate(workload: Workload, sizes: &Sizes, seed: u64, horizon_ops: usize) -> Inputs {
        let corpus = e11_corpus(sizes.specs, WORKING_SET_SEED);
        let pool = match workload {
            Workload::ReadHot => sizes.hot_queries,
            Workload::ReadThrash => sizes.thrash_queries,
            Workload::MixedLive => sizes.live_queries,
            Workload::WriteDurable => 0,
        };
        let queries = if pool == 0 {
            Vec::new()
        } else {
            e11_query_log(&corpus, pool, WORKING_SET_SEED ^ 0x5EED)
        };
        assert_eq!(queries.len(), pool, "corpus too small for {pool} distinct queries");
        let pairs: Vec<Pair> = (0..queries.len())
            .flat_map(|query| {
                let kind = match query % 5 {
                    0..=2 => ReadKind::Keyword,
                    3 => ReadKind::Private,
                    _ => ReadKind::Ranked,
                };
                (0..E10_GROUPS.len()).map(move |group| Pair { query, group, kind })
            })
            .collect();
        let requests = pairs
            .iter()
            .map(|pair| {
                let group = E10_GROUPS[pair.group].to_string();
                let query = queries[pair.query].clone();
                match pair.kind {
                    ReadKind::Keyword => ServeRequest::Keyword { group, query },
                    ReadKind::Private => ServeRequest::Private { group, query, plan: PRIVATE_PLAN },
                    ReadKind::Ranked => ServeRequest::Ranked { group, query, mode: RANKING_MODE },
                }
            })
            .collect();
        let (writes, reads) = match workload {
            Workload::WriteDurable => (horizon_ops, 0),
            Workload::MixedLive => {
                let writes = horizon_ops / WRITE_EVERY;
                (writes, horizon_ops - writes)
            }
            _ => (0, 0),
        };
        let stream = steady_write_stream(&corpus, writes, seed);
        let cycle = permutation(pairs.len(), seed ^ 0xC1C1E);
        let live_draws = if reads == 0 {
            Vec::new()
        } else {
            // Popularity rank → pair is part of the working set (a fixed
            // shuffle, so the hot head mixes queries, groups and kinds);
            // the draws are the client's.
            let by_rank = permutation(pairs.len(), WORKING_SET_SEED ^ 0x21BF);
            let zipf = Zipf::new(pairs.len(), 1.0);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x21BF);
            (0..reads).map(|_| by_rank[zipf.sample(&mut rng)]).collect()
        };
        Inputs { workload, corpus, queries, pairs, requests, stream, cycle, live_draws }
    }

    /// The `i`-th operation of the sequence, or `None` past its end (the
    /// read loops cycle forever; streams and schedules are finite).
    pub fn op(&self, i: usize) -> Option<Op> {
        match self.workload {
            Workload::ReadHot | Workload::ReadThrash => {
                Some(Op::Read(self.cycle[i % self.cycle.len()] as usize))
            }
            Workload::WriteDurable => (i < self.stream.len()).then_some(Op::Write(i)),
            Workload::MixedLive => {
                let write = i / WRITE_EVERY;
                if i % WRITE_EVERY == WRITE_EVERY - 1 {
                    (write < self.stream.len()).then_some(Op::Write(write))
                } else {
                    self.live_draws.get(i - write).map(|&pair| Op::Read(pair as usize))
                }
            }
        }
    }

    /// A fresh request for `op` (the front takes requests by value, as a
    /// client would hand them over).
    pub fn request(&self, op: Op) -> ServeRequest {
        match op {
            Op::Read(pair) => self.requests[pair].clone(),
            Op::Write(index) => ServeRequest::mutate(self.stream[index].clone()),
        }
    }

    /// The warm-up pass: every pair once, in the cycle's order.
    pub fn warm_up_pairs(&self) -> impl Iterator<Item = usize> + '_ {
        self.cycle.iter().map(|&pair| pair as usize)
    }

    /// Group name and query text of a pair.
    pub fn pair_text(&self, pair: &Pair) -> (&'static str, &str) {
        (E10_GROUPS[pair.group], &self.queries[pair.query])
    }
}

/// A built serving stack: what `setup_s` times the construction of.
pub struct Stack {
    pub front: ServeFront,
    pub pool: Arc<WorkerPool>,
    /// The storage root of a durable stack.
    pub backend: Option<Arc<dyn StorageBackend>>,
}

/// Build the cluster the front serves: corpus ingest, partition over
/// [`SHARDS`] engines (index build), and — given a storage root — a
/// durable log attached over a baseline snapshot of the loaded corpus.
pub fn build_cluster(
    corpus: &[Specification],
    pool: &Arc<WorkerPool>,
    storage_root: Option<&Path>,
) -> (EngineCluster, Option<Arc<dyn StorageBackend>>) {
    let mut cluster = EngineCluster::with_config(
        e11_repo(corpus),
        standard_registry(),
        SHARDS,
        ShardStrategy::RoundRobin,
        Arc::clone(pool),
    );
    let backend = storage_root.map(|root| {
        let backend: Arc<dyn StorageBackend> =
            Arc::new(FsStorage::open(root).expect("benchmark storage root"));
        let opened = DurableLog::open(Arc::clone(&backend), durable_policy())
            .expect("open log on fresh storage");
        cluster.attach_durability(opened.log).expect("attach log over baseline snapshot");
        backend
    });
    (cluster, backend)
}

/// [`build_cluster`] behind a [`ServeFront`] on a fresh [`POOL_THREADS`]
/// pool.
pub fn build_stack(corpus: &[Specification], storage_root: Option<&Path>) -> Stack {
    let pool = Arc::new(WorkerPool::new(POOL_THREADS));
    let (cluster, backend) = build_cluster(corpus, &pool, storage_root);
    Stack { front: ServeFront::with_pool(cluster, Arc::clone(&pool)), pool, backend }
}

/// Removes the process's storage directory when dropped — on the normal
/// path and while unwinding from a failed check alike — and the data-dir
/// root after it if that leaves it empty.
pub struct DataDir {
    root: PathBuf,
    own: PathBuf,
    next: usize,
}

impl DataDir {
    pub fn create(root: &Path) -> std::io::Result<DataDir> {
        let own = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&own)?;
        Ok(DataDir { root: root.to_path_buf(), own, next: 0 })
    }

    /// A fresh, not yet existing storage root inside the directory.
    pub fn fresh(&mut self, label: &str) -> PathBuf {
        self.next += 1;
        self.own.join(format!("{label}-{}", self.next))
    }

    pub fn path(&self) -> &Path {
        &self.own
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.own);
        let _ = std::fs::remove_dir(&self.root);
    }
}

/// Mutations generated per second of measured phase for `write_durable`:
/// above what the front commits on this class of host even in its first,
/// fastest second, so the stream outlasts the time box (a run that
/// exhausts it just ends early and says so).
const WRITE_HORIZON_PER_S: f64 = 18_000.0;

/// What one workload run produced, ready to print and serialise.
pub struct WorkloadResult {
    pub workload: Workload,
    pub end_to_end: report::Table,
    pub layers: report::Table,
    pub checks: Vec<drive::Check>,
    pub counts: Json,
    pub findings: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl WorkloadResult {
    /// Every answer check and regime gate passed; a host gate
    /// ([`drive::Check::host`]) is reported and does not count.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(drive::Check::holds)
    }
}

/// What the untraced phase showed beyond its metrics, worded as findings.
fn phase_findings(run: &drive::Run, inputs: &Inputs, options: &Options) -> Vec<String> {
    let mut findings = Vec::new();
    let measured = &run.measured;
    match inputs.workload {
        Workload::MixedLive => {
            let deciles: Vec<String> = (1..10)
                .map(|d| format!("{:.1}", measured.reads.quantile_us(d as f64 / 10.0)))
                .collect();
            findings.push(format!("read latency deciles p10..p90 (us): {}", deciles.join(" ")));
        }
        Workload::WriteDurable => {
            if let [first, second, .., before_last, last] = measured.windows.as_slice() {
                let rate = |w: &drive::Window| w.writes.count() as f64 / measured.window_s;
                findings.push(format!(
                    "writes/s by window, first to last: {:.0} {:.0} ... {:.0} {:.0} (executions \
                     accrue, so every snapshot and every chunk it rewrites is larger than the \
                     last)",
                    rate(first),
                    rate(second),
                    rate(before_last),
                    rate(last),
                ));
            }
            if options.ops.is_none() && measured.attempted as usize >= inputs.stream.len() {
                findings.push(format!(
                    "the write stream ({} mutations) ran out before the time box: the run is \
                     shorter than asked, raise WRITE_HORIZON_PER_S",
                    inputs.stream.len()
                ));
            }
        }
        Workload::ReadHot | Workload::ReadThrash => {}
    }
    findings
}

/// Run one workload end to end: inputs, reference table, set-ups, the
/// untraced measured phase with its checks, and — with `options.trace` —
/// the ladder, whose spans go to `trace-<workload>.jsonl` in the out
/// directory.
pub fn run_workload(workload: Workload, options: &Options) -> std::io::Result<WorkloadResult> {
    let sizes = &options.sizes;
    let horizon = options.ops.map(|ops| ops as usize).unwrap_or_else(|| match workload {
        Workload::WriteDurable => (options.seconds * WRITE_HORIZON_PER_S).ceil() as usize,
        Workload::MixedLive => (options.seconds * sizes.live_rate as f64).ceil() as usize,
        _ => 0,
    });
    let inputs = Inputs::generate(workload, sizes, options.seed, horizon);
    let mut verifier = matches!(workload, Workload::ReadHot | Workload::ReadThrash)
        .then(|| oracle::Verifier::build(&inputs, workload == Workload::ReadHot));
    let mut data = DataDir::create(&options.data_dir)?;
    let run = drive::run_untraced(&inputs, options, &mut data, verifier.as_mut());

    let end_to_end = report::end_to_end(&run, workload);
    let mut layers = report::Table::of(&report::PER_LAYER);
    report::layer_counters(&run, &mut layers);
    let mut findings = phase_findings(&run, &inputs, options);
    if options.trace {
        let n = (run.measured.attempted as usize / 4).clamp(1, sizes.ladder_cap);
        let ladder = ladder::run_ladder(&inputs, options, &mut data, n, &run, &mut layers);
        std::fs::create_dir_all(&options.out_dir)?;
        let path = options.out_dir.join(format!("trace-{}.jsonl", workload.name()));
        ladder::write_trace(&ladder, &path)?;
        findings.push(format!("{} spans written to {}", ladder.spans.len(), path.display()));
        findings.extend(ladder.findings);
    }
    let mut checks = run.checks.clone();
    let regimes = report::regime_checks(&run, workload, options, &layers);
    if sizes.enforce_regimes {
        checks.extend(regimes);
    } else {
        findings.extend(regimes.iter().filter(|c| !c.pass).map(|c| {
            format!("regime not held (not enforced at this size): {} — {}", c.name, c.detail)
        }));
    }
    Ok(WorkloadResult {
        workload,
        end_to_end,
        layers,
        checks,
        counts: report::exact_counts(&run),
        findings,
        attempted: run.measured.attempted.max(1),
        failed: run.measured.failed,
    })
}
