//! E14 baseline emitter: the async serving front (`ServeFront`) vs
//! blocking per-thread serving, at fixed concurrency on a small fixed
//! worker pool.
//!
//! ```bash
//! cargo run --release -p ppwf-bench --bin e14_async_serving -- \
//!     [--out BENCH_e14_async_serving.json] [--specs 512] [--shards 4] \
//!     [--pool-threads 2] [--concurrency 8] [--requests 4000] \
//!     [--distinct 96] [--write-every 25] [--seed 17] [--min-speedup 2.0]
//! ```
//!
//! One E11-shaped corpus, one warm-heavy request stream (`--distinct`
//! distinct queries cycled over `--requests` slots — production serving
//! repeats itself; the distinct pool sizes the cold fraction). Three
//! serving modes run the identical stream at the same concurrency, each
//! over a freshly built cluster on its own `--pool-threads` worker pool:
//!
//! * **`thread_per_request`** — the blocking model the motivation names:
//!   every request occupies one OS thread for its full duration (spawned
//!   per request, at most `--concurrency` alive). The per-request spawn,
//!   stack and context-switch cost is the price of holding N queries in
//!   flight with blocking calls.
//! * **`blocking_pool`** — the *well-tuned* blocking alternative:
//!   `--concurrency` pre-spawned serving threads in a closed loop over a
//!   shared cluster. No spawn cost, but N in flight still needs N OS
//!   threads. Reported for honesty, not gated: on warm CPU-bound traffic
//!   it approaches the async front (see the boundary note below).
//! * **`async_front`** — one submitting thread, a sliding window of
//!   `--concurrency` in-flight tickets over `ServeFront`: warm hits
//!   complete inline, each cold query runs as one pool job.
//!
//! A fourth section drives a mixed read/write stream (`--write-every`)
//! through the front to price the write fence, and the cold burst is
//! re-run un-windowed to read the in-flight high-water mark (the
//! multiplexing instrument: N in flight on one submitting thread).
//!
//! **Honest boundary.** The async win is a *dispatch-overhead* win: it
//! exists because per-request cost (warm probes, selective cold queries)
//! is small next to a thread spawn. As query cost grows — large corpora,
//! cold-dominated mixes — every mode converges to the pool's CPU
//! throughput and the gap narrows toward 1× (the `blocking_pool` column
//! shows that limit today). The ≥2× gate is against `thread_per_request`
//! at `--concurrency ≥ 8`; the binary exits non-zero when it fails, or
//! when any answer diverges from the blocking reference.

use ppwf_bench::{
    e11_corpus, e11_repo, e13_write_stream, e14_schedule, standard_registry, E10_GROUPS,
};
use ppwf_query::cluster::EngineCluster;
use ppwf_query::route::ShardStrategy;
use ppwf_query::serve::{QueryAnswer, ServeFront, ServeRequest};
use ppwf_repo::pool::WorkerPool;
use ppwf_workloads::ScheduledRequest;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Config {
    out: String,
    specs: usize,
    shards: usize,
    pool_threads: usize,
    concurrency: usize,
    requests: usize,
    distinct: usize,
    write_every: usize,
    seed: u64,
    min_speedup: f64,
}

fn parse_args() -> Config {
    let mut config = Config {
        out: "BENCH_e14_async_serving.json".to_string(),
        specs: 512,
        shards: 4,
        pool_threads: 2,
        concurrency: 8,
        requests: 4000,
        distinct: 96,
        write_every: 25,
        seed: 17,
        min_speedup: 2.0,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need =
            |n: usize| args.get(n).unwrap_or_else(|| panic!("{} needs a value", args[n - 1]));
        match args[i].as_str() {
            "--out" => config.out = need(i + 1).clone(),
            "--specs" => config.specs = need(i + 1).parse().expect("bad spec count"),
            "--shards" => config.shards = need(i + 1).parse().expect("bad shard count"),
            "--pool-threads" => config.pool_threads = need(i + 1).parse().expect("bad pool size"),
            "--concurrency" => config.concurrency = need(i + 1).parse().expect("bad concurrency"),
            "--requests" => config.requests = need(i + 1).parse().expect("bad request count"),
            "--distinct" => config.distinct = need(i + 1).parse().expect("bad distinct count"),
            "--write-every" => config.write_every = need(i + 1).parse().expect("bad write spacing"),
            "--seed" => config.seed = need(i + 1).parse().expect("bad seed"),
            "--min-speedup" => config.min_speedup = need(i + 1).parse().expect("bad threshold"),
            other => panic!("unknown argument {other:?}"),
        }
        i += 2;
    }
    config
}

fn build_cluster(corpus: &[ppwf_model::spec::Specification], config: &Config) -> EngineCluster {
    EngineCluster::with_config(
        e11_repo(corpus),
        standard_registry(),
        config.shards,
        ShardStrategy::RoundRobin,
        Arc::new(WorkerPool::new(config.pool_threads)),
    )
}

fn group_of(r: &ScheduledRequest) -> &'static str {
    E10_GROUPS[r.group % E10_GROUPS.len()]
}

/// Blocking model 1: one OS thread per request, at most `concurrency`
/// alive (sliding window — join the oldest before spawning past the
/// window). Returns (elapsed seconds, total hits).
fn serve_thread_per_request(
    cluster: &Arc<EngineCluster>,
    stream: &[ScheduledRequest],
    concurrency: usize,
) -> (f64, usize) {
    let t = Instant::now();
    let mut window: VecDeque<std::thread::JoinHandle<usize>> = VecDeque::new();
    let mut hits = 0usize;
    for r in stream {
        if window.len() >= concurrency {
            hits += window.pop_front().expect("window nonempty").join().expect("serving thread");
        }
        let cluster = Arc::clone(cluster);
        let group = group_of(r);
        let query = r.query.clone().expect("read-only stream");
        window.push_back(std::thread::spawn(move || {
            cluster.search_as(group, &query).map(|h| h.len()).unwrap_or(0)
        }));
    }
    for h in window {
        hits += h.join().expect("serving thread");
    }
    (t.elapsed().as_secs_f64(), hits)
}

/// Blocking model 2: `concurrency` pre-spawned serving threads in a
/// closed loop over a shared request cursor.
fn serve_blocking_pool(
    cluster: &Arc<EngineCluster>,
    stream: &[ScheduledRequest],
    concurrency: usize,
) -> (f64, usize) {
    let t = Instant::now();
    let cursor = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..concurrency {
            let cluster = Arc::clone(cluster);
            let (cursor, hits, stream) = (&cursor, &hits, stream);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(r) = stream.get(i) else { break };
                let query = r.query.as_deref().expect("read-only stream");
                let served = cluster.search_as(group_of(r), query).map(|h| h.len()).unwrap_or(0);
                hits.fetch_add(served, Ordering::Relaxed);
            });
        }
    });
    (t.elapsed().as_secs_f64(), hits.into_inner())
}

/// The async front: one submitting thread, a sliding window of
/// `concurrency` in-flight tickets.
fn serve_async_front(
    front: &ServeFront,
    stream: &[ScheduledRequest],
    concurrency: usize,
) -> (f64, usize) {
    let t = Instant::now();
    let mut window = VecDeque::new();
    let mut hits = 0usize;
    let take = |response: ppwf_query::serve::ServeResponse| match response.answer {
        QueryAnswer::Keyword(Some(h)) => h.len(),
        QueryAnswer::Keyword(None) => 0,
        other => panic!("unexpected answer {other:?}"),
    };
    for r in stream {
        if window.len() >= concurrency {
            let ticket: ppwf_repo::ticket::Ticket<_> = window.pop_front().expect("window");
            hits += take(ticket.wait());
        }
        let query = r.query.clone().expect("read-only stream");
        window.push_back(front.submit(ServeRequest::Keyword { group: group_of(r).into(), query }));
    }
    for ticket in window {
        hits += take(ticket.wait());
    }
    (t.elapsed().as_secs_f64(), hits)
}

/// Best-of-`reps` wall time for one serving mode, hits checked constant.
fn best_of(reps: usize, mut run: impl FnMut() -> (f64, usize)) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut hits = 0usize;
    for rep in 0..reps.max(1) {
        let (secs, h) = run();
        if rep > 0 {
            assert_eq!(h, hits, "serving mode changed its answers between reps");
        }
        hits = h;
        best = best.min(secs);
    }
    (best, hits)
}

fn main() {
    let config = parse_args();
    println!("== E14: async serving front vs blocking per-thread serving ==");
    println!(
        "corpus: {} specs · {} shards · pool {} threads · concurrency {} · {} requests over {} distinct queries · seed {}",
        config.specs,
        config.shards,
        config.pool_threads,
        config.concurrency,
        config.requests,
        config.distinct,
        config.seed
    );

    let corpus = e11_corpus(config.specs, config.seed);
    let reads =
        e14_schedule(&corpus, config.requests, config.distinct, config.concurrency, 0, config.seed);
    assert!(reads.iter().all(|r| r.query.is_some()));

    const REPS: usize = 3;
    // -- mode 1: thread per request ------------------------------------------
    let cluster_tpr = Arc::new(build_cluster(&corpus, &config));
    let (tpr_secs, tpr_hits) =
        best_of(REPS, || serve_thread_per_request(&cluster_tpr, &reads, config.concurrency));

    // -- mode 2: pre-spawned blocking serving pool ---------------------------
    let cluster_pool = Arc::new(build_cluster(&corpus, &config));
    let (pool_secs, pool_hits) =
        best_of(REPS, || serve_blocking_pool(&cluster_pool, &reads, config.concurrency));

    // -- mode 3: async front -------------------------------------------------
    let front = ServeFront::new(build_cluster(&corpus, &config));
    let (async_secs, async_hits) =
        best_of(REPS, || serve_async_front(&front, &reads, config.concurrency));
    front.quiesce();

    assert_eq!(async_hits, tpr_hits, "async front diverged from blocking serving");
    assert_eq!(pool_hits, tpr_hits, "blocking modes diverged from each other");
    // Bitwise spot check against a fresh blocking reference.
    {
        let reference = build_cluster(&corpus, &config);
        front.with_cluster(|served| {
            for r in reads.iter().take(64) {
                let q = r.query.as_deref().unwrap();
                let a = served.search_as(group_of(r), q).unwrap();
                let b = reference.search_as(group_of(r), q).unwrap();
                assert_eq!(a.len(), b.len(), "hit count diverged on {q:?}");
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.spec, y.spec, "spec ids diverged on {q:?}");
                    assert_eq!(x.prefix, y.prefix, "prefixes diverged on {q:?}");
                }
            }
        });
    }

    let throughput = |secs: f64| config.requests as f64 / secs;
    let speedup_vs_tpr = tpr_secs / async_secs;
    let speedup_vs_pool = pool_secs / async_secs;
    println!(
        "\n-- read throughput ({} requests, concurrency {}) --",
        config.requests, config.concurrency
    );
    println!("{:>24} {:>12} {:>12} {:>10}", "mode", "total s", "req/s", "speedup");
    println!(
        "{:>24} {:>12.4} {:>12.0} {:>10}",
        "thread_per_request",
        tpr_secs,
        throughput(tpr_secs),
        "1.0x"
    );
    println!(
        "{:>24} {:>12.4} {:>12.0} {:>9.2}x",
        "blocking_pool",
        pool_secs,
        throughput(pool_secs),
        tpr_secs / pool_secs
    );
    println!(
        "{:>24} {:>12.4} {:>12.0} {:>9.2}x",
        "async_front",
        async_secs,
        throughput(async_secs),
        speedup_vs_tpr
    );

    // -- multiplexing instrument: un-windowed cold burst ---------------------
    // A fresh front, every distinct query submitted before any wait. The
    // pool's workers are plugged during submission (released after), so
    // the measurement is deterministic: the in-flight high-water mark is
    // how many queries one submitting thread held open at once — the
    // capacity blocking per-thread serving buys only with OS threads.
    let burst_pool = Arc::new(WorkerPool::new(config.pool_threads));
    let burst_front = ServeFront::with_pool(
        EngineCluster::with_config(
            e11_repo(&corpus),
            standard_registry(),
            config.shards,
            ShardStrategy::RoundRobin,
            Arc::clone(&burst_pool),
        ),
        Arc::clone(&burst_pool),
    );
    let burst: Vec<&ScheduledRequest> = {
        let mut seen = std::collections::HashSet::new();
        reads.iter().filter(|r| seen.insert((r.group, r.query.clone()))).collect()
    };
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let gate = Arc::new(std::sync::Mutex::new(release_rx));
    for _ in 0..config.pool_threads {
        let gate = Arc::clone(&gate);
        burst_pool.exec(move || {
            let _ = gate.lock().unwrap().recv();
        });
    }
    let tickets: Vec<_> = burst
        .iter()
        .map(|r| {
            burst_front.submit(ServeRequest::Keyword {
                group: group_of(r).into(),
                query: r.query.clone().unwrap(),
            })
        })
        .collect();
    let burst_stats = burst_front.stats();
    for _ in 0..config.pool_threads {
        release_tx.send(()).expect("release plugged worker");
    }
    for t in tickets {
        t.wait();
    }
    burst_front.quiesce();
    println!(
        "cold burst: {} distinct requests, in-flight high water {} (blocking per-thread serving would need {} OS threads)",
        burst.len(),
        burst_stats.in_flight_high_water,
        burst_stats.in_flight_high_water
    );

    // -- fenced mixed read/write stream --------------------------------------
    let mixed = e14_schedule(
        &corpus,
        config.requests / 4,
        config.distinct,
        config.concurrency,
        config.write_every,
        config.seed,
    );
    let writes_needed = mixed.iter().filter(|r| r.query.is_none()).count();
    let mutations = e13_write_stream(&corpus, writes_needed, 70, 20, config.seed ^ 0xE14);
    let mixed_front = ServeFront::new(build_cluster(&corpus, &config));
    let t = Instant::now();
    {
        let mut window = VecDeque::new();
        let mut next_write = 0usize;
        for r in &mixed {
            if window.len() >= config.concurrency {
                let _ = window.pop_front().map(|t: ppwf_repo::ticket::Ticket<_>| t.wait());
            }
            let request = match &r.query {
                Some(q) => ServeRequest::Keyword { group: group_of(r).into(), query: q.clone() },
                None => {
                    let m = mutations[next_write % mutations.len()].clone();
                    next_write += 1;
                    ServeRequest::mutate(m)
                }
            };
            window.push_back(mixed_front.submit(request));
        }
        for t in window {
            t.wait();
        }
    }
    let mixed_secs = t.elapsed().as_secs_f64();
    mixed_front.quiesce();
    let mixed_stats = mixed_front.stats();
    assert_eq!(mixed_stats.completed, mixed_stats.submitted, "front lost requests");
    assert_eq!(mixed_stats.mutations as usize, writes_needed, "every mutation must apply");
    println!(
        "mixed stream: {} requests ({} writes) in {:.4}s — {:.0} req/s, {} fence waits, warm inline {}",
        mixed.len(),
        writes_needed,
        mixed_secs,
        mixed.len() as f64 / mixed_secs,
        mixed_stats.fence_waits,
        mixed_stats.warm_inline
    );

    let stats = front.stats();
    let latency_buckets: Vec<String> = stats.latency_counts.iter().map(|c| c.to_string()).collect();
    let json = format!(
        r#"{{
  "experiment": "E14",
  "title": "Async serving front: multiplexed in-flight cluster queries on the worker pool",
  "seed": {seed},
  "corpus_specs": {specs},
  "shards": {shards},
  "pool_threads": {pool_threads},
  "concurrency": {concurrency},
  "requests": {requests},
  "distinct_queries": {distinct},
  "read_throughput": {{
    "thread_per_request_req_per_s": {tpr:.0},
    "blocking_pool_req_per_s": {bp:.0},
    "async_front_req_per_s": {af:.0},
    "speedup_async_vs_thread_per_request": {sp:.3},
    "speedup_async_vs_blocking_pool": {spp:.3}
  }},
  "multiplexing": {{
    "cold_burst_requests": {burst_n},
    "in_flight_high_water": {hw},
    "submitting_threads": 1,
    "warm_inline_completions": {warm},
    "latency_bucket_bounds_us": [4, 16, 64, 256, 1024, 4096, 16384],
    "latency_bucket_counts": [{latency}]
  }},
  "mixed_stream": {{
    "requests": {mixed_n},
    "writes": {mixed_w},
    "req_per_s": {mixed_rps:.0},
    "fence_waits": {fences},
    "mutations_applied": {muts}
  }},
  "acceptance": {{
    "threshold_speedup_vs_thread_per_request": {thr:.1},
    "answers_bit_identical_to_blocking_cluster": true,
    "no_requests_lost": true
  }},
  "note": "the async win is a dispatch-overhead win (warm probes and selective cold queries are small next to a per-request thread spawn); as query cost grows every mode converges to the pool's CPU throughput — the blocking_pool column shows that limit. Single-core host: multiplexing buys capacity (N in flight per submitting thread), not extra parallelism"
}}
"#,
        seed = config.seed,
        specs = config.specs,
        shards = config.shards,
        pool_threads = config.pool_threads,
        concurrency = config.concurrency,
        requests = config.requests,
        distinct = config.distinct,
        tpr = throughput(tpr_secs),
        bp = throughput(pool_secs),
        af = throughput(async_secs),
        sp = speedup_vs_tpr,
        spp = speedup_vs_pool,
        burst_n = burst.len(),
        hw = burst_stats.in_flight_high_water,
        warm = stats.warm_inline,
        latency = latency_buckets.join(", "),
        mixed_n = mixed.len(),
        mixed_w = writes_needed,
        mixed_rps = mixed.len() as f64 / mixed_secs,
        fences = mixed_stats.fence_waits,
        muts = mixed_stats.mutations,
        thr = config.min_speedup,
    );
    std::fs::write(&config.out, &json).expect("write baseline JSON");
    println!("\nbaseline written to {}", config.out);

    println!(
        "async vs thread-per-request speedup: {speedup_vs_tpr:.2}x (threshold {:.1}x)",
        config.min_speedup
    );
    assert!(
        speedup_vs_tpr >= config.min_speedup,
        "E14 acceptance: async front must be ≥{:.1}x blocking thread-per-request serving at concurrency {} (got {speedup_vs_tpr:.2}x)",
        config.min_speedup,
        config.concurrency
    );
    assert!(
        burst_stats.in_flight_high_water as usize >= config.concurrency.min(burst.len()) / 2,
        "E14 acceptance: the front must actually multiplex (high water {}, concurrency {})",
        burst_stats.in_flight_high_water,
        config.concurrency
    );
}
