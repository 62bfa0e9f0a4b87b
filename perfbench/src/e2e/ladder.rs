//! The traced run: the same request sequence replayed at successively
//! deeper public entry points, one span per call.
//!
//! The product has no spans of its own yet, so every layer is measured
//! from outside: each rung builds the state the rung above it ran on
//! (same corpus, same warm-up pass), replays the first `n` operations of
//! the workload's sequence against its entry point, and records one span
//! per call. A layer's self time is its rung's mean span minus the next
//! rung's. Two limits follow and are stated wherever the numbers are:
//! rungs are replays of the same request *index*, not nested spans of one
//! request, and the blocking rungs see no queueing. A deeper rung that is
//! slower than the one above it (a cache hit above, the recompute below)
//! is printed as a finding, never clamped.

use super::drive::{measured_phase, tear_down, timed_setup, CallSpan, Limit, Measured, Run};
use super::oracle::reference_engine;
use super::report::Table;
use super::{
    build_cluster, DataDir, Inputs, Op, Options, Pair, ReadKind, Workload, POOL_THREADS,
    PRIVATE_PLAN, RANKING_MODE,
};
use crate::json::Json;
use crate::stream::rest_cluster;
use ppwf_bench::e11_repo;
use ppwf_query::keyword::search_filtered_with_cache;
use ppwf_query::privacy_exec::filter_then_search_cached;
use ppwf_query::ranking::{idfs_for_terms, profiles_for_hits, rank_by_scores, scores_for_profiles};
use ppwf_query::{EngineCluster, KeywordQuery, QueryEngine};
use ppwf_repo::keyword_index::KeywordIndex;
use ppwf_repo::mutation::{Mutation, MutationEffect};
use ppwf_repo::pool::WorkerPool;
use ppwf_repo::principals::AccessResolver;
use ppwf_repo::repository::{Repository, SpecId};
use ppwf_repo::storage::{FsStorage, StorageBackend};
use ppwf_repo::wal::DurableLog;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Mutations one `mutate_batch` / `append_batch` call carries at most —
/// the front's group-commit cap.
const BATCH: usize = 16;

/// One traced call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// Index of the request in the workload's sequence (for a batch, of
    /// its first mutation).
    pub request: u32,
    /// ns since the origin of the span's own rung.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Items the call covered (mutations of a batch, specs resolved,
    /// views fetched); 1 for a plain call.
    pub count: u32,
}

/// A span kind: `(layer, name)`.
type Kind = (&'static str, &'static str);

/// `(child, parent)`: the rung one level up whose span of the same
/// request is the parent.
const PARENTS: [(Kind, Kind); 16] = [
    (("serve", "submit_read"), ("serve", "read")),
    (("serve", "submit_write"), ("serve", "write")),
    (("cluster", "read"), ("serve", "read")),
    (("engine", "read"), ("cluster", "read")),
    (("keyword", "search"), ("engine", "read")),
    (("privacy_exec", "filter_then_search"), ("keyword", "search")),
    (("ranking", "rank"), ("keyword", "search")),
    (("keyword_index", "candidate_specs"), ("keyword", "search")),
    (("keyword_index", "lookup_filtered"), ("keyword", "search")),
    (("principals", "resolve"), ("keyword_index", "lookup_filtered")),
    (("view_cache", "view"), ("keyword", "search")),
    (("cluster", "mutate_batch"), ("serve", "write")),
    (("wal", "append_batch"), ("cluster", "mutate_batch")),
    (("storage", "append_sync"), ("wal", "append_batch")),
    (("repository", "apply"), ("serve", "write")),
    (("keyword_index", "maintain"), ("repository", "apply")),
];

/// Everything the traced run recorded.
#[derive(Default)]
pub struct Ladder {
    pub spans: Vec<Span>,
    /// Inversions, dominant self times and the leaf accounting, worded
    /// as findings.
    pub findings: Vec<String>,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: usize,
        count: usize,
        call: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = black_box(call());
        let end = Instant::now();
        self.spans.push(Span {
            layer,
            name,
            request: request as u32,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            count: count as u32,
        });
        out
    }
}

/// `(Σ duration µs, Σ count, spans)` of a layer/name.
fn total(spans: &[Span], layer: &str, name: &str) -> (f64, u64, u64) {
    spans.iter().filter(|s| s.layer == layer && s.name == name).fold(
        (0.0, 0, 0),
        |(us, count, n), s| {
            (us + (s.end_ns - s.start_ns) as f64 / 1e3, count + s.count as u64, n + 1)
        },
    )
}

/// Mean µs per span of a layer/name (0 when it recorded nothing).
fn mean_us(spans: &[Span], layer: &str, name: &str) -> f64 {
    let (us, _, n) = total(spans, layer, name);
    if n == 0 {
        0.0
    } else {
        us / n as f64
    }
}

/// Mean µs per covered item of a layer/name.
fn per_item_us(spans: &[Span], layer: &str, name: &str) -> f64 {
    let (us, count, _) = total(spans, layer, name);
    if count == 0 {
        0.0
    } else {
        us / count as f64
    }
}

fn cluster_read(cluster: &EngineCluster, inputs: &Inputs, pair: &Pair) {
    let (group, query) = inputs.pair_text(pair);
    match pair.kind {
        ReadKind::Keyword => drop(black_box(cluster.search_as(group, query))),
        ReadKind::Private => drop(black_box(cluster.private_search_as(group, query, PRIVATE_PLAN))),
        ReadKind::Ranked => drop(black_box(cluster.ranked_search_as(group, query, RANKING_MODE))),
    }
}

fn engine_read(engine: &QueryEngine, inputs: &Inputs, pair: &Pair) {
    let (group, query) = inputs.pair_text(pair);
    match pair.kind {
        ReadKind::Keyword => drop(black_box(engine.search_as(group, query))),
        ReadKind::Private => drop(black_box(engine.private_search_as(group, query, PRIVATE_PLAN))),
        ReadKind::Ranked => drop(black_box(engine.ranked_search_as(group, query, RANKING_MODE))),
    }
}

/// The engine state the three engine-level rungs each start from: the
/// whole corpus on one engine, warmed by the workload's warm-up pass.
fn warmed_engine(inputs: &Inputs) -> QueryEngine {
    let engine = reference_engine(e11_repo(&inputs.corpus));
    for pair in inputs.warm_up_pairs() {
        engine_read(&engine, inputs, &inputs.pairs[pair]);
    }
    engine
}

/// Runs of consecutive writes in the first `n` operations, each at most
/// [`BATCH`] long: `(request index of the first, stream range)`.
fn write_batches(inputs: &Inputs, n: usize) -> Vec<(usize, std::ops::Range<usize>)> {
    let mut batches: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    let mut previous = None;
    for i in 0..n {
        let Some(Op::Write(w)) = inputs.op(i) else { continue };
        match batches.last_mut() {
            Some((_, range)) if previous == Some(i - 1) && range.len() < BATCH => range.end = w + 1,
            _ => batches.push((i, w..w + 1)),
        }
        previous = Some(i);
    }
    batches
}

fn from_call_spans(calls: &[CallSpan], out: &mut Vec<Span>) {
    for call in calls {
        let (name, submit) =
            if call.write { ("write", "submit_write") } else { ("read", "submit_read") };
        out.push(Span {
            layer: "serve",
            name,
            request: call.request,
            start_ns: call.start_ns,
            end_ns: call.end_ns,
            count: 1,
        });
        out.push(Span {
            layer: "serve",
            name: submit,
            request: call.request,
            start_ns: call.start_ns,
            end_ns: call.submitted_ns,
            count: 1,
        });
    }
}

/// Rung 1: the front, driven exactly as the untraced run drives it, with
/// a span per request. Returns what the traced phase measured.
fn serve_rung(
    inputs: &Inputs,
    options: &Options,
    data: &mut DataDir,
    n: usize,
    out: &mut Vec<Span>,
) -> Measured {
    let (stack, _) = timed_setup(inputs, data);
    let limit = Limit { seconds: f64::INFINITY, ops: Some(n as u64) };
    let mut calls = Vec::with_capacity(n);
    let measured = measured_phase(&stack, inputs, options, None, limit, Some(&mut calls));
    tear_down(stack);
    from_call_spans(&calls, out);
    measured
}

/// Rung 2: the cluster's blocking entry points; writes go through
/// `mutate_batch` in the runs the front would form. Returns the mean
/// number of shards a query scatters to.
fn cluster_rung(inputs: &Inputs, data: &mut DataDir, n: usize, out: &mut Vec<Span>) -> f64 {
    let pool = Arc::new(WorkerPool::new(POOL_THREADS));
    let root = inputs.workload.durable().then(|| data.fresh("ladder-cluster"));
    let (mut cluster, _backend) = build_cluster(&inputs.corpus, &pool, root.as_deref());
    for pair in inputs.warm_up_pairs() {
        cluster_read(&cluster, inputs, &inputs.pairs[pair]);
    }
    let targets: usize = inputs.queries.iter().map(|q| cluster.probe_target_count(q)).sum();
    let batches = write_batches(inputs, n);
    let mut next_batch = 0;
    let mut rec = Recorder::new();
    for i in 0..n {
        match inputs.op(i) {
            Some(Op::Read(pair)) => {
                let pair = &inputs.pairs[pair];
                rec.time("cluster", "read", i, 1, || cluster_read(&cluster, inputs, pair));
            }
            Some(Op::Write(_)) => {
                if let Some((first, range)) =
                    batches.get(next_batch).filter(|(first, _)| *first == i)
                {
                    let batch: Vec<Mutation> = inputs.stream[range.clone()].to_vec();
                    let outcomes = rec.time("cluster", "mutate_batch", *first, batch.len(), || {
                        cluster.mutate_batch(batch)
                    });
                    assert!(outcomes.iter().all(|(r, _)| r.is_ok()), "ladder write refused");
                    next_batch += 1;
                }
            }
            None => break,
        }
    }
    rest_cluster(&cluster);
    out.append(&mut rec.spans);
    targets as f64 / inputs.queries.len().max(1) as f64
}

/// Rungs 3–5 share a shape: an engine-level state, reads timed by
/// `read`, writes applied untimed so the state evolves as it did above.
fn engine_level_rung(
    inputs: &Inputs,
    n: usize,
    out: &mut Vec<Span>,
    mut read: impl FnMut(&mut Recorder, &QueryEngine, usize, &Pair),
) {
    if inputs.pairs.is_empty() {
        return;
    }
    let mut engine = warmed_engine(inputs);
    let mut rec = Recorder::new();
    for i in 0..n {
        match inputs.op(i) {
            Some(Op::Read(pair)) => read(&mut rec, &engine, i, &inputs.pairs[pair]),
            Some(Op::Write(w)) => {
                engine.mutate(inputs.stream[w].clone()).expect("ladder write applies");
            }
            None => break,
        }
    }
    out.append(&mut rec.spans);
}

/// Time one uncached kernel the way the engine's miss path reaches it:
/// parse, resolver, then the kernel itself.
fn uncached<R>(
    rec: &mut Recorder,
    kind: Kind,
    engine: &QueryEngine,
    (group, text): (&str, &str),
    i: usize,
    kernel: impl FnOnce(&KeywordQuery, &AccessResolver<'_>) -> R,
) -> R {
    rec.time(kind.0, kind.1, i, 1, || {
        let query = KeywordQuery::parse(text);
        let access = engine.access_resolver(group).expect("registered group");
        kernel(&query, &access)
    })
}

/// Rung 4: the uncached query work under the engine's result caches —
/// parse, resolver, `search_filtered_with_cache` — plus, for a private or
/// ranked request, what that kind costs over the keyword search.
fn keyword_rung(rec: &mut Recorder, engine: &QueryEngine, inputs: &Inputs, i: usize, pair: &Pair) {
    let request = inputs.pair_text(pair);
    let (repo, index, views) = (engine.repo(), engine.index(), engine.views());
    let keyword = |rec: &mut Recorder| {
        uncached(rec, ("keyword", "search"), engine, request, i, |query, access| {
            search_filtered_with_cache(repo, index, query, access, views)
        })
    };
    match pair.kind {
        ReadKind::Keyword => drop(keyword(rec)),
        ReadKind::Private => {
            let private = |rec: &mut Recorder| {
                let kind = ("privacy_exec", "filter_then_search");
                uncached(rec, kind, engine, request, i, |query, access| {
                    filter_then_search_cached(repo, index, query, access, views)
                })
            };
            // Whichever runs second finds the caches the first one
            // touched; alternate so neither kernel always pays for both.
            if i.is_multiple_of(2) {
                drop(keyword(rec));
                drop(private(rec));
            } else {
                drop(private(rec));
                drop(keyword(rec));
            }
        }
        ReadKind::Ranked => {
            let hits = keyword(rec);
            rec.time("ranking", "rank", i, 1, || {
                let query = KeywordQuery::parse(request.1);
                let profiles = profiles_for_hits(repo, &hits, &query.terms);
                let idfs = idfs_for_terms(index, &query.terms);
                let scores = scores_for_profiles(&idfs, &profiles, RANKING_MODE);
                rank_by_scores(&scores)
            });
        }
    }
}

/// Rung 5: the leaves under the keyword search — candidate discovery,
/// access resolution of the candidates, filtered posting lookups, and
/// the view fetch of every hit. Loops are timed whole (one span per
/// request with its item count): the items are ~100 ns each, the clock
/// is not free.
fn leaves_rung(rec: &mut Recorder, engine: &QueryEngine, inputs: &Inputs, i: usize, pair: &Pair) {
    let (group, text) = inputs.pair_text(pair);
    let query = KeywordQuery::parse(text);
    let access = engine.access_resolver(group).expect("registered group");
    let (mut scratch, mut candidates) = (Vec::new(), Vec::new());
    rec.time("keyword_index", "candidate_specs", i, 0, || {
        engine.index().candidate_specs_into(&query.terms, &mut scratch, &mut candidates)
    });
    rec.spans.last_mut().expect("span just pushed").count = candidates.len() as u32;
    // Resolution first: the filtered lookup below would memoise every
    // candidate and hide the rule resolutions a visible write forces.
    rec.time("principals", "resolve", i, candidates.len(), || {
        for &spec in &candidates {
            black_box(access.resolve(SpecId(spec)));
        }
    });
    rec.time("keyword_index", "lookup_filtered", i, query.terms.len(), || {
        for term in &query.terms {
            black_box(engine.index().lookup_filtered(term, &access));
        }
    });
    let hits =
        search_filtered_with_cache(engine.repo(), engine.index(), &query, &access, engine.views());
    rec.time("view_cache", "view", i, hits.len(), || {
        for hit in &hits {
            black_box(engine.views().view(engine.repo(), hit.spec, &hit.prefix));
        }
    });
}

/// The write rungs under the cluster: the log alone, the raw backend
/// under the log, and beside them the in-memory apply and the index
/// maintenance each effect triggers.
fn write_rungs(inputs: &Inputs, data: &mut DataDir, n: usize, out: &mut Vec<Span>) {
    let batches = write_batches(inputs, n);
    if batches.is_empty() {
        return;
    }
    let mut rec = Recorder::new();

    let wal_root = data.fresh("ladder-wal");
    let backend: Arc<dyn StorageBackend> =
        Arc::new(FsStorage::open(&wal_root).expect("ladder log root"));
    let mut log = DurableLog::open(Arc::clone(&backend), super::durable_policy())
        .expect("open log on fresh storage")
        .log;
    let mut frame_bytes = Vec::with_capacity(batches.len());
    for (first, range) in &batches {
        let before = log.stats().bytes_appended;
        let batch = &inputs.stream[range.clone()];
        rec.time("wal", "append_batch", *first, batch.len(), || log.append_batch(batch))
            .expect("ladder append on healthy storage");
        frame_bytes.push((log.stats().bytes_appended - before) as usize);
    }

    let raw = FsStorage::open(data.fresh("ladder-raw")).expect("ladder raw root");
    let payload = vec![0x5Au8; frame_bytes.iter().copied().max().unwrap_or(0)];
    for ((first, _), &bytes) in batches.iter().zip(&frame_bytes) {
        rec.time("storage", "append_sync", *first, 1, || {
            raw.append("raw.log", &payload[..bytes]).expect("raw append");
            raw.sync("raw.log").expect("raw sync");
        });
    }

    let mut repo = e11_repo(&inputs.corpus);
    repo.set_version(0);
    let mut index = KeywordIndex::build(&repo);
    for (first, range) in &batches {
        for (offset, mutation) in inputs.stream[range.clone()].iter().enumerate() {
            let request = first + offset;
            let mutation = mutation.clone();
            let effect = rec
                .time("repository", "apply", request, 1, || repo.apply(mutation))
                .expect("ladder write applies");
            rec.time("keyword_index", "maintain", request, 1, || match effect {
                MutationEffect::SpecDeleted { spec } => index.delete_spec(&repo, spec),
                MutationEffect::SpecEdited { spec } => index.edit_spec(&repo, spec),
                _ => index.refresh_trusted(&repo),
            });
        }
    }

    let last = batches.last().map_or(0, |(first, _)| *first);
    rec.time("wal", "snapshot_now", last, 1, || log.snapshot_now(&repo))
        .expect("ladder snapshot on healthy storage");
    drop(log);
    rec.time("wal", "recover", last, 1, || Repository::recover(backend.as_ref()))
        .expect("ladder recovery over healthy log");
    out.append(&mut rec.spans);
}

/// µs per no-op job through the pool: `WorkerPool::submit` → `wait`.
fn pool_dispatch(out: &mut Vec<Span>) {
    let pool = Arc::new(WorkerPool::new(POOL_THREADS));
    let mut rec = Recorder::new();
    for i in 0..2_000 {
        rec.time("pool", "dispatch", i, 1, || pool.submit(|| ()).wait());
    }
    out.append(&mut rec.spans);
}

/// Run every rung over the first `n` operations, derive the per-layer
/// time metrics into `layers`, and word the findings.
pub fn run_ladder(
    inputs: &Inputs,
    options: &Options,
    data: &mut DataDir,
    n: usize,
    untraced: &Run,
    layers: &mut Table,
) -> Ladder {
    let mut spans = Vec::new();
    let traced = serve_rung(inputs, options, data, n, &mut spans);
    let shards_per_query = cluster_rung(inputs, data, n, &mut spans);
    engine_level_rung(inputs, n, &mut spans, |rec, engine, i, pair| {
        rec.time("engine", "read", i, 1, || engine_read(engine, inputs, pair))
    });
    engine_level_rung(inputs, n, &mut spans, |rec, engine, i, pair| {
        keyword_rung(rec, engine, inputs, i, pair)
    });
    engine_level_rung(inputs, n, &mut spans, |rec, engine, i, pair| {
        leaves_rung(rec, engine, inputs, i, pair)
    });
    write_rungs(inputs, data, n, &mut spans);
    pool_dispatch(&mut spans);

    let serve = mean_us(&spans, "serve", "read");
    let cluster = mean_us(&spans, "cluster", "read");
    let engine = mean_us(&spans, "engine", "read");
    let keyword = mean_us(&spans, "keyword", "search");
    let has_reads = !inputs.pairs.is_empty();
    let submit = if has_reads {
        mean_us(&spans, "serve", "submit_read")
    } else {
        mean_us(&spans, "serve", "submit_write")
    };
    let serve_write = mean_us(&spans, "serve", "write");
    let mutate = per_item_us(&spans, "cluster", "mutate_batch");
    layers.set("serve.submit_us", submit);
    layers.set("serve.self_us", if has_reads { serve - cluster } else { serve_write - mutate });
    layers.set("cluster.self_us", if has_reads { cluster - engine } else { 0.0 });
    layers.set("cluster.shards_per_query", shards_per_query);
    layers.set("cluster.mutate_us", mutate);
    layers.set("engine.self_us", if has_reads { engine - keyword } else { 0.0 });
    layers.set("keyword.search_us", keyword);
    let on = |kind: ReadKind| {
        let requests: std::collections::HashSet<u32> = (0..n)
            .filter(|&i| matches!(inputs.op(i), Some(Op::Read(p)) if inputs.pairs[p].kind == kind))
            .map(|i| i as u32)
            .collect();
        let of = |layer: &str, name: &str| {
            let picked: Vec<Span> = spans
                .iter()
                .filter(|s| s.layer == layer && s.name == name && requests.contains(&s.request))
                .copied()
                .collect();
            mean_us(&picked, layer, name)
        };
        (of("keyword", "search"), of("privacy_exec", "filter_then_search"), of("ranking", "rank"))
    };
    let (keyword_on_private, private, _) = on(ReadKind::Private);
    layers.set("privacy_exec.private_extra_us", private - keyword_on_private);
    layers.set("ranking.ranked_extra_us", on(ReadKind::Ranked).2);
    let candidates_us = mean_us(&spans, "keyword_index", "candidate_specs");
    let (_, candidate_count, candidate_spans) = total(&spans, "keyword_index", "candidate_specs");
    let candidates_per_query = candidate_count as f64 / candidate_spans.max(1) as f64;
    let resolve_us = per_item_us(&spans, "principals", "resolve");
    let view_us = per_item_us(&spans, "view_cache", "view");
    let (_, view_count, view_spans) = total(&spans, "view_cache", "view");
    let hits_per_query = view_count as f64 / view_spans.max(1) as f64;
    layers.set("keyword_index.candidates_us", candidates_us);
    layers.set("keyword_index.candidates_per_query", candidates_per_query);
    layers.set("principals.resolve_us", resolve_us);
    layers.set("view_cache.view_us", view_us);
    layers.set("keyword_index.maintain_us", mean_us(&spans, "keyword_index", "maintain"));
    layers.set("repository.apply_us", mean_us(&spans, "repository", "apply"));
    layers.set("wal.append_us", per_item_us(&spans, "wal", "append_batch"));
    layers.set("storage.fsync_us", mean_us(&spans, "storage", "append_sync"));
    layers.set("pool.dispatch_us", mean_us(&spans, "pool", "dispatch"));
    let workload = inputs.workload;
    let traced_rps = traced.completed() as f64 / traced.elapsed_s.max(1e-9);
    let (prefix_s, prefix) = untraced.measured.prefix(workload, n as u64);
    let untraced_rps = n as f64 / prefix_s.max(1e-9);
    let overhead = 1.0 - traced_rps / untraced_rps;
    layers.set("trace.overhead_share", overhead);

    let mut findings = Vec::new();
    let traced_gated = traced.gated(workload);
    let shape = match workload {
        Workload::MixedLive => "open loop, timed from due time".to_string(),
        closed => match closed.in_flight() {
            1 => "1 in flight".to_string(),
            k => format!(
                "{k} in flight, so a span is a latency of about {k} x the time a request \
                 occupies the system"
            ),
        },
    };
    findings.push(format!(
        "serve rung ({shape}): traced mean {:.3} us, p50 {:.3} us over {n} requests vs the \
         untraced run's first {} — mean {:.3} us, p50 {:.3} us; traced throughput \
         {traced_rps:.0}/s vs {untraced_rps:.0}/s, trace.overhead_share {overhead:.4}",
        traced_gated.mean_us(),
        traced_gated.quantile_us(0.5),
        prefix.count(),
        prefix.mean_us(),
        prefix.quantile_us(0.5),
    ));
    if has_reads {
        let rungs =
            [("serve", serve), ("cluster", cluster), ("engine", engine), ("keyword", keyword)];
        for pair in rungs.windows(2) {
            let ((upper, upper_us), (lower, lower_us)) = (pair[0], pair[1]);
            if lower_us > upper_us {
                findings.push(format!(
                    "inversion: the {lower} rung ({lower_us:.3} us) is slower than the {upper} \
                     rung above it ({upper_us:.3} us), so {upper}.self_us is negative — the \
                     upper rung answers from a cache the lower rung's entry point bypasses, or \
                     pays less dispatch than a blocking call"
                ));
            } else if upper_us - lower_us > 0.5 * serve {
                findings.push(format!(
                    "dominant: {upper}.self_us = {:.3} us is {:.0}% of the serve rung's {serve:.3} us",
                    upper_us - lower_us,
                    (upper_us - lower_us) / serve * 100.0
                ));
            }
        }
        let leaves = candidates_us + resolve_us * candidates_per_query + view_us * hits_per_query;
        findings.push(format!(
            "leaves: candidates {candidates_us:.3} us + resolve {resolve_us:.3} us x \
             {candidates_per_query:.2} candidates + view {view_us:.3} us x {hits_per_query:.2} \
             hits = {leaves:.3} us of keyword.search_us {keyword:.3} us; residual {:.3} us \
             ({:.0}%) is posting gather, cover and assembly (lookup_filtered alone: {:.3} us)",
            keyword - leaves,
            (keyword - leaves) / keyword.max(1e-9) * 100.0,
            mean_us(&spans, "keyword_index", "lookup_filtered"),
        ));
    }
    let append = per_item_us(&spans, "wal", "append_batch");
    if append > 0.0 {
        let fsync = mean_us(&spans, "storage", "append_sync");
        let (_, writes, frames) = total(&spans, "wal", "append_batch");
        findings.push(format!(
            "write rungs: serve {serve_write:.1} us/write (a latency, with the window's \
             queueing) > cluster {mutate:.1} us/write > wal {append:.1} us/write ({:.1} \
             writes/frame) over a raw append+sync of {fsync:.1} us/frame; apply {:.2} us + index \
             {:.2} us per write",
            writes as f64 / frames.max(1) as f64,
            mean_us(&spans, "repository", "apply"),
            mean_us(&spans, "keyword_index", "maintain"),
        ));
    }
    Ladder { spans, findings }
}

/// Write the spans as JSON lines: one object per span with its id, its
/// layer, name, request index, times, item count and parent id.
pub fn write_trace(ladder: &Ladder, path: &Path) -> std::io::Result<()> {
    let ids: HashMap<(&str, &str, u32), usize> = ladder
        .spans
        .iter()
        .enumerate()
        .rev()
        .map(|(id, s)| ((s.layer, s.name, s.request), id))
        .collect();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in ladder.spans.iter().enumerate() {
        let parent = PARENTS
            .iter()
            .find(|(child, _)| *child == (span.layer, span.name))
            .and_then(|(_, (layer, name))| ids.get(&(*layer, *name, span.request)));
        let mut line = Json::obj();
        line.push("id", id);
        line.push("layer", span.layer);
        line.push("name", span.name);
        line.push("request", span.request as u64);
        line.push("start_ns", span.start_ns);
        line.push("end_ns", span.end_ns);
        line.push("count", span.count as u64);
        line.push("parent", parent.map_or(Json::Null, |&p| Json::from(p)));
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}
