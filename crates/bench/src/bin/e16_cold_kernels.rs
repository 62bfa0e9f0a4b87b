//! E16 baseline emitter: cold-path query kernels — candidate-spec
//! intersection and restricted gather over sorted posting lists — versus
//! a faithful replica of the PR-6 flat-`Vec` dataflow.
//!
//! ```bash
//! cargo run --release -p ppwf-bench --bin e16_cold_kernels -- \
//!     [--out BENCH_e16_cold_kernels.json] [--specs 2048] [--queries 400] \
//!     [--writes 96] [--seed 17] [--min-cold-speedup 3.0] \
//!     [--max-warm-ratio 1.1] [--max-write-ratio 1.2] [--pool-widths 1,2,4]
//! ```
//!
//! One E11-shaped corpus, one distinct multi-term-only query log (every
//! query is an AND of two terms — the selective shape whose answer is the
//! *intersection* of the terms' candidate specs). Four sections:
//!
//! * **Cold selective search.** The in-repo [`BaselineIndex`] replicates
//!   the PR-6 index byte for byte — `HashMap<String, Vec<Posting>>`
//!   lists, clone-on-lookup, per-posting `HashMap<SpecId, _>` assembly —
//!   and `baseline_search` replays the PR-6 `search_with_index` dataflow
//!   against it, reusing the *same* public [`filter_postings`] and
//!   [`ViewCache`] so privilege filtering and view materialization cost
//!   identically on both sides. Before any number is reported every
//!   `(group, query)` answer is checked equal — spec, prefix and matched
//!   modules — between the replica and the kernel path. Gate:
//!   kernel ≥ `--min-cold-speedup` × baseline.
//! * **Warm no-regression.** The warm path is a `(group, query)` result
//!   probe that E16 does not touch; both sides' answers are loaded into
//!   structurally identical probe maps and served best-of-9. Gate:
//!   kernel-side probe ≤ `--max-warm-ratio` × baseline-side probe. A
//!   real warm pass of a one-shard [`EngineCluster`] — what serves one
//!   index — is measured too, with its front-cache counters asserted
//!   hit-only (the warm path never re-enters the kernel pipeline).
//! * **Write no-regression.** A typed write stream drives per-write
//!   maintenance of the kernel-side index (`apply_effect` on each
//!   write's effect) versus the PR-6 refresh replica (fingerprint
//!   verification scan, `Vec` append tail). Gate: kernel maintenance ≤
//!   `--max-write-ratio` × baseline refresh; the maintained index must
//!   answer the log identically to a fresh build.
//! * **Pool-width sweep.** Cold scatter over a 4-shard cluster at worker
//!   pool widths `--pool-widths`. On a single-core host this measures
//!   dispatch overhead, not parallelism — reported, not gated.
//!
//! The binary exits non-zero when any acceptance gate fails.

use ppwf_bench::harness::{best_pass, fixed, hits, serve_pass, write_record, Json};
use ppwf_bench::E10_GROUPS;
use ppwf_bench::{e11_corpus, e11_repo, e13_write_stream, e16_query_log, standard_registry};
use ppwf_model::expand::SpecView;
use ppwf_model::hierarchy::Prefix;
use ppwf_model::ids::{ModuleId, WorkflowId};
use ppwf_query::cluster::EngineCluster;
use ppwf_query::keyword::{search_filtered_with_cache, KeywordHit, KeywordQuery};
use ppwf_query::ShardStrategy;
use ppwf_repo::keyword_index::{filter_postings, tokenize, KeywordIndex, Posting};
use ppwf_repo::repository::{Repository, SpecEntry, SpecId};
use ppwf_repo::view_cache::ViewCache;
use ppwf_repo::WorkerPool;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

ppwf_bench::flags! {
    struct Config {
        out: String = "BENCH_e16_cold_kernels.json",
        specs: usize = "2048",
        queries: usize = "400",
        writes: usize = "96",
        seed: u64 = "17",
        min_cold_speedup: f64 = "3.0",
        max_warm_ratio: f64 = "1.1",
        max_write_ratio: f64 = "1.2",
        pool_widths: Vec<usize> = "1,2,4",
    }
}

// ---------------------------------------------------------------------------
// The PR-6 replica: flat-Vec postings, clone-on-lookup, HashMap assembly.
// Kept deliberately faithful to the pre-E16 `KeywordIndex` — including the
// FNV-1a text fingerprints its refresh scan verified — so the measured
// delta is the kernel work E16 changed, nothing else.
// ---------------------------------------------------------------------------

/// FNV-1a, as the pre-E16 fingerprint hashed indexed text.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
    fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        // Length separator, so concatenated fields cannot alias.
        self.mix_u64_raw(bytes.len() as u64);
    }
    fn mix_u64(&mut self, v: u64) {
        self.mix_u64_raw(v);
    }
    fn mix_u64_raw(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
struct BaseFingerprint {
    modules: usize,
    text: u64,
}

impl BaseFingerprint {
    fn of(entry: &SpecEntry) -> Self {
        let mut h = Fnv1a::new();
        let mut modules = 0usize;
        for module in entry.spec.modules() {
            if module.kind.is_distinguished() {
                continue;
            }
            modules += 1;
            h.mix_u64(module.id.0 as u64);
            h.mix_u64(module.workflow.index() as u64);
            h.mix_bytes(module.name.as_bytes());
            for tag in &module.keywords {
                h.mix_bytes(tag.as_bytes());
            }
        }
        BaseFingerprint { modules, text: h.finish() }
    }
}

/// The PR-6 index shape: one sorted `Vec<Posting>` per term / phrase tag.
#[derive(Default)]
struct BaselineIndex {
    terms: HashMap<String, Vec<Posting>>,
    phrases: HashMap<String, Vec<Posting>>,
    module_tokens: HashMap<(SpecId, ModuleId), Vec<String>>,
    fingerprints: Vec<BaseFingerprint>,
    doc_count: usize,
}

fn base_index_entry(
    sid: SpecId,
    entry: &SpecEntry,
    terms: &mut HashMap<String, Vec<Posting>>,
    phrases: &mut HashMap<String, Vec<Posting>>,
    module_tokens: &mut HashMap<(SpecId, ModuleId), Vec<String>>,
) -> usize {
    let mut docs = 0usize;
    for module in entry.spec.modules() {
        if module.kind.is_distinguished() {
            continue;
        }
        docs += 1;
        let name_tokens = tokenize(&module.name);
        let mut tf: HashMap<String, u32> = HashMap::new();
        for t in &name_tokens {
            *tf.entry(t.clone()).or_insert(0) += 1;
        }
        for tag in &module.keywords {
            let tag_tokens = tokenize(tag);
            let norm = tag_tokens.join(" ");
            for t in tag_tokens {
                *tf.entry(t).or_insert(0) += 1;
            }
            if !norm.is_empty() {
                phrases.entry(norm).or_default().push(Posting {
                    spec: sid,
                    module: module.id,
                    workflow: module.workflow,
                    tf: 1,
                });
            }
        }
        for (term, count) in tf {
            terms.entry(term).or_default().push(Posting {
                spec: sid,
                module: module.id,
                workflow: module.workflow,
                tf: count,
            });
        }
        module_tokens.insert((sid, module.id), name_tokens);
    }
    docs
}

impl BaselineIndex {
    fn build(repo: &Repository) -> Self {
        let mut idx = BaselineIndex::default();
        for (sid, entry) in repo.entries() {
            idx.doc_count += base_index_entry(
                sid,
                entry,
                &mut idx.terms,
                &mut idx.phrases,
                &mut idx.module_tokens,
            );
            idx.fingerprints.push(BaseFingerprint::of(entry));
        }
        for list in idx.terms.values_mut() {
            list.sort_by_key(|p| (p.spec, p.workflow, p.module));
        }
        for list in idx.phrases.values_mut() {
            list.sort_by_key(|p| (p.spec, p.workflow, p.module));
        }
        idx
    }

    /// The PR-6 refresh: verify the fingerprinted prefix, then append the
    /// new specs' postings onto each term's `Vec`.
    fn refresh(&mut self, repo: &Repository) {
        let changed = repo.len() < self.fingerprints.len()
            || repo
                .entries()
                .take(self.fingerprints.len())
                .zip(&self.fingerprints)
                .any(|((_, e), fp)| BaseFingerprint::of(e) != *fp);
        if changed {
            *self = BaselineIndex::build(repo);
            return;
        }
        let mut new_terms: HashMap<String, Vec<Posting>> = HashMap::new();
        let mut new_phrases: HashMap<String, Vec<Posting>> = HashMap::new();
        for (sid, entry) in repo.entries().skip(self.fingerprints.len()) {
            self.doc_count += base_index_entry(
                sid,
                entry,
                &mut new_terms,
                &mut new_phrases,
                &mut self.module_tokens,
            );
            self.fingerprints.push(BaseFingerprint::of(entry));
        }
        for (term, mut postings) in new_terms {
            postings.sort_by_key(|p| (p.spec, p.workflow, p.module));
            self.terms.entry(term).or_default().extend(postings);
        }
        for (phrase, mut postings) in new_phrases {
            postings.sort_by_key(|p| (p.spec, p.workflow, p.module));
            self.phrases.entry(phrase).or_default().extend(postings);
        }
    }

    fn lookup(&self, token: &str) -> &[Posting] {
        self.terms.get(token).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The PR-6 query-term lookup: clone the whole list per call, phrase
    /// tags unioned with adjacency-verified name-token runs.
    fn lookup_query_term(&self, term: &str) -> Vec<Posting> {
        let tokens = tokenize(term);
        match tokens.len() {
            0 => Vec::new(),
            1 => self.lookup(&tokens[0]).to_vec(),
            _ => {
                let mut out: Vec<Posting> =
                    self.phrases.get(&tokens.join(" ")).cloned().unwrap_or_default();
                for p in self.lookup(&tokens[0]) {
                    if out.iter().any(|q| q.spec == p.spec && q.module == p.module) {
                        continue;
                    }
                    if let Some(seq) = self.module_tokens.get(&(p.spec, p.module)) {
                        if seq.windows(tokens.len()).any(|w| w == tokens.as_slice()) {
                            out.push(*p);
                        }
                    }
                }
                out.sort_by_key(|p| (p.spec, p.workflow, p.module));
                out
            }
        }
    }
}

/// A baseline hit — same payload as [`KeywordHit`], locally owned.
struct BaseHit {
    spec: SpecId,
    prefix: Prefix,
    #[allow(dead_code)]
    view: Arc<SpecView>,
    matched: Vec<(String, ModuleId)>,
}

/// Replica of the pre-E16 `required_path` (private in `ppwf_query`).
fn base_required_path(entry: &SpecEntry, m: ModuleId) -> Vec<WorkflowId> {
    let mut path = Vec::new();
    let mut cur = Some(entry.spec.module(m).workflow);
    while let Some(w) = cur {
        path.push(w);
        cur = entry.hierarchy.parent(w);
    }
    path
}

/// Replica of the pre-E16 `minimal_cover` (private in `ppwf_query`).
#[allow(clippy::type_complexity)]
fn base_minimal_cover(
    entry: &SpecEntry,
    candidates: &[(String, Vec<ModuleId>)],
) -> Option<(Prefix, Vec<(String, ModuleId)>)> {
    if candidates.iter().any(|(_, c)| c.is_empty()) {
        return None;
    }
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&i| candidates[i].1.len());
    let mut required: Vec<WorkflowId> = vec![entry.spec.root()];
    let mut chosen: Vec<Option<(String, ModuleId)>> = vec![None; candidates.len()];
    for &i in &order {
        let (term, mods) = &candidates[i];
        let best = mods
            .iter()
            .map(|&m| {
                let path = base_required_path(entry, m);
                let added = path.iter().filter(|w| !required.contains(w)).count();
                (added, m, path)
            })
            .min_by_key(|(added, m, _)| (*added, *m))
            .expect("nonempty candidate list");
        for w in best.2 {
            if !required.contains(&w) {
                required.push(w);
            }
        }
        chosen[i] = Some((term.clone(), best.1));
    }
    let prefix =
        Prefix::from_workflows(&entry.hierarchy, required).expect("root paths are parent-closed");
    Some((prefix, chosen.into_iter().map(|c| c.expect("all terms chosen")).collect()))
}

/// The PR-6 `search_with_index` dataflow, verbatim: full per-term posting
/// materialization, per-posting `HashMap<SpecId, _>` assembly, sorted spec
/// walk, minimal cover, cached view build. Filtering goes through the same
/// public [`filter_postings`] the kernel path uses.
fn baseline_search(
    repo: &Repository,
    index: &BaselineIndex,
    query: &KeywordQuery,
    access: &HashMap<SpecId, Prefix>,
    views: &ViewCache,
) -> Vec<BaseHit> {
    if query.terms.is_empty() {
        return Vec::new();
    }
    let mut per_spec: HashMap<SpecId, Vec<Vec<ModuleId>>> = HashMap::new();
    for (ti, term) in query.terms.iter().enumerate() {
        let mut postings = index.lookup_query_term(term);
        filter_postings(&mut postings, access);
        for p in postings {
            let slot =
                per_spec.entry(p.spec).or_insert_with(|| vec![Vec::new(); query.terms.len()]);
            slot[ti].push(p.module);
        }
    }
    let mut hits = Vec::new();
    let mut spec_ids: Vec<SpecId> = per_spec.keys().copied().collect();
    spec_ids.sort();
    for sid in spec_ids {
        let cands = &per_spec[&sid];
        if cands.iter().any(|c| c.is_empty()) {
            continue;
        }
        let entry = repo.entry(sid).expect("posting references live spec");
        let named: Vec<(String, Vec<ModuleId>)> =
            query.terms.iter().cloned().zip(cands.iter().cloned()).collect();
        if let Some((prefix, matched)) = base_minimal_cover(entry, &named) {
            let view = views.view(repo, sid, &prefix).expect("minimal cover prefix is valid");
            hits.push(BaseHit { spec: sid, prefix, view, matched });
        }
    }
    hits
}

// ---------------------------------------------------------------------------

fn main() {
    let config = Config::parse();
    assert!(!config.pool_widths.is_empty(), "need at least one pool width");
    println!("== E16: cold-path kernels vs the PR-6 flat-Vec dataflow ==");
    println!(
        "corpus: {} specs · {} multi-term queries · {} writes · seed {}",
        config.specs, config.queries, config.writes, config.seed
    );

    let corpus = e11_corpus(config.specs, config.seed);
    let repo = e11_repo(&corpus);
    let log = e16_query_log(&corpus, config.queries, config.seed ^ 0x5EED);
    assert!(log.len() >= config.queries * 9 / 10, "query log came up short");
    let registry = standard_registry();
    let access_maps: Vec<HashMap<SpecId, Prefix>> = E10_GROUPS
        .iter()
        .map(|g| registry.access_map(&repo, g).expect("standard group exists"))
        .collect();
    // Request `i` is group `E10_GROUPS[i % 3]`, as every serve pass runs it.
    let access = |g: &str| &access_maps[E10_GROUPS.iter().position(|s| *s == g).unwrap()];
    let queries: Vec<KeywordQuery> = log.iter().map(|q| KeywordQuery::parse(q)).collect();
    let multi = queries.iter().filter(|q| q.terms.len() > 1).count();
    assert_eq!(multi, queries.len(), "E16 log must be multi-term only");

    // -- section A: cold selective search -----------------------------------
    let base_index = BaselineIndex::build(&repo);
    let kernel_index = KeywordIndex::build(&repo);
    let base_views = ViewCache::new(16);
    let kernel_views = ViewCache::new(16);
    let base_search =
        |g: &str, q: &KeywordQuery| baseline_search(&repo, &base_index, q, access(g), &base_views);
    let kernel_search = |g: &str, q: &KeywordQuery| {
        search_filtered_with_cache(&repo, &kernel_index, q, access(g), &kernel_views)
    };

    // Verification before any number: identical answers per (group, query),
    // and warm both view caches so neither timed side pays view builds.
    let (_, answer_hits) = serve_pass(
        |g, q| {
            let query = KeywordQuery::parse(q);
            let (base, kernel) = (base_search(g, &query), kernel_search(g, &query));
            assert_eq!(base.len(), kernel.len(), "hit count diverged on {q:?}");
            for (b, k) in base.iter().zip(kernel.iter()) {
                assert_eq!(b.spec, k.spec, "spec diverged on {q:?}");
                assert_eq!(b.prefix, k.prefix, "prefix diverged on {q:?}");
                assert_eq!(b.matched, k.matched, "matched modules diverged on {q:?}");
            }
            kernel.len()
        },
        &log,
    );
    println!(
        "verified: {} (group, query) answers identical across both paths ({answer_hits} hits)",
        log.len()
    );

    const COLD_REPS: usize = 3;
    let (base_cold_us, base_hits) =
        best_pass(COLD_REPS, |g, q| base_search(g, &KeywordQuery::parse(q)).len(), &log);
    let (kernel_cold_us, kernel_hits) =
        best_pass(COLD_REPS, |g, q| kernel_search(g, &KeywordQuery::parse(q)).len(), &log);
    assert_eq!(base_hits, kernel_hits, "timed passes diverged");
    let cold_speedup = base_cold_us / kernel_cold_us;
    let per_q = |us: f64| us / log.len() as f64;
    println!("\n-- cold selective search ({} queries, {} hits) --", log.len(), kernel_hits);
    println!(
        "  baseline (PR-6 replica): {:>10.0} µs  ({:.1} µs/q)",
        base_cold_us,
        per_q(base_cold_us)
    );
    println!(
        "  kernel   (E16)         : {:>10.0} µs  ({:.1} µs/q)",
        kernel_cold_us,
        per_q(kernel_cold_us)
    );
    println!("  speedup: {cold_speedup:.2}× (gate ≥ {:.1}×)", config.min_cold_speedup);

    // -- section B: warm no-regression --------------------------------------
    // The warm path is a (group, query) result probe E16 never touched;
    // load both sides' answers into structurally identical maps.
    let mut base_warm: HashMap<(&str, &str), Arc<Vec<BaseHit>>> = HashMap::new();
    let mut kernel_warm: HashMap<(&str, &str), Arc<Vec<KeywordHit>>> = HashMap::new();
    for (i, (q, query)) in log.iter().zip(&queries).enumerate() {
        let g = E10_GROUPS[i % E10_GROUPS.len()];
        base_warm.insert((g, q), Arc::new(base_search(g, query)));
        kernel_warm.insert((g, q), Arc::new(kernel_search(g, query)));
    }
    const WARM_REPS: usize = 9;
    let probe = |g: &str, q: &str| base_warm.get(&(g, q)).map_or(0, |h| Arc::clone(h).len());
    let (base_warm_us, _) = best_pass(WARM_REPS, probe, &log);
    let probe = |g: &str, q: &str| kernel_warm.get(&(g, q)).map_or(0, |h| Arc::clone(h).len());
    let (kernel_warm_us, _) = best_pass(WARM_REPS, probe, &log);
    let warm_ratio = kernel_warm_us / base_warm_us;

    // And the real serving object: a warm pass must be pure front-cache
    // hits — the kernel pipeline is never re-entered for a repeated query.
    let cluster = EngineCluster::new(e11_repo(&corpus), registry.clone(), 1);
    serve_pass(hits(&cluster), &log);
    let before = cluster.stats().front;
    let (engine_warm_us, _) = best_pass(WARM_REPS, hits(&cluster), &log);
    let after = cluster.stats().front;
    assert_eq!(
        after.hits - before.hits,
        (WARM_REPS * log.len()) as u64,
        "warm pass must be served entirely from the front cache"
    );
    assert_eq!(after.misses, before.misses, "warm pass must not miss");
    println!("\n-- warm probe (best of {WARM_REPS}) --");
    println!("  baseline probe: {base_warm_us:>8.0} µs   kernel probe: {kernel_warm_us:>8.0} µs   ratio {warm_ratio:.3} (gate ≤ {:.2})", config.max_warm_ratio);
    println!("  one-shard warm pass: {engine_warm_us:.0} µs (all front-cache hits)");

    // -- section C: write no-regression -------------------------------------
    let stream = e13_write_stream(&corpus, config.writes, 60, 20, config.seed ^ 0xE16);

    let mut repo_base = e11_repo(&corpus);
    let mut idx_base = BaselineIndex::build(&repo_base);
    let mut base_write_us = 0.0f64;
    for m in stream.iter().cloned() {
        repo_base.apply(m).expect("write stream valid");
        let t = Instant::now();
        idx_base.refresh(&repo_base);
        base_write_us += t.elapsed().as_secs_f64() * 1e6;
    }

    let mut repo_kernel = e11_repo(&corpus);
    let mut idx_kernel = KeywordIndex::build(&repo_kernel);
    let mut kernel_write_us = 0.0f64;
    for m in stream.iter().cloned() {
        let effect = repo_kernel.apply(m).expect("write stream valid");
        let t = Instant::now();
        idx_kernel.apply_effect(&repo_kernel, &effect);
        kernel_write_us += t.elapsed().as_secs_f64() * 1e6;
    }
    let write_ratio = kernel_write_us / base_write_us;

    // The maintained kernel-side index answers like a fresh build,
    // and like the baseline replica, on every log term.
    let fresh = KeywordIndex::build(&repo_kernel);
    assert_eq!(idx_kernel.doc_count(), fresh.doc_count(), "doc_count diverged after writes");
    assert_eq!(idx_kernel.doc_count(), idx_base.doc_count, "replica doc_count diverged");
    for query in &queries {
        for term in &query.terms {
            assert_eq!(
                idx_kernel.lookup_query_term(term),
                fresh.lookup_query_term(term),
                "postings diverged on {term:?}"
            );
            assert_eq!(
                idx_kernel.lookup_query_term(term),
                idx_base.lookup_query_term(term),
                "kernel vs replica postings diverged on {term:?}"
            );
        }
    }
    println!("\n-- per-write maintenance ({} writes) --", stream.len());
    println!("  baseline refresh: {base_write_us:>8.0} µs   kernel refresh: {kernel_write_us:>8.0} µs   ratio {write_ratio:.3} (gate ≤ {:.2})", config.max_write_ratio);

    // -- section D: pool-width sweep (cold scatter) -------------------------
    println!("\n-- pool-width sweep (4-shard cold scatter, {} queries) --", log.len());
    let mut sweep = Vec::new();
    for &w in &config.pool_widths {
        let cluster = EngineCluster::with_config(
            e11_repo(&corpus),
            registry.clone(),
            4,
            ShardStrategy::RoundRobin,
            Arc::new(WorkerPool::new(w)),
        );
        let (us, hits) = serve_pass(hits(&cluster), &log);
        assert_eq!(hits, kernel_hits, "cluster answers diverged at width {w}");
        println!("  width {w}: {us:>10.0} µs  ({:.1} µs/q)", per_q(us));
        sweep.push(
            Json::obj()
                .with("pool_width", w)
                .with("cold_scatter_us", fixed(us, 0))
                .with("per_query_us", fixed(per_q(us), 2))
                .with("hits", hits),
        );
    }

    // -- record + gates ------------------------------------------------------
    let cold_pass = cold_speedup >= config.min_cold_speedup;
    let warm_pass = warm_ratio <= config.max_warm_ratio;
    let write_pass = write_ratio <= config.max_write_ratio;
    let gate = |value: Json, bound: &str, limit: f64, pass: bool| {
        Json::obj().with("value", value).with(bound, limit).with("pass", pass)
    };
    let settings = Json::obj()
        .with("specs", config.specs)
        .with("queries", config.queries)
        .with("writes", config.writes)
        .with("seed", config.seed)
        .with("min_cold_speedup", config.min_cold_speedup)
        .with("max_warm_ratio", config.max_warm_ratio)
        .with("max_write_ratio", config.max_write_ratio);
    let cold = Json::obj()
        .with("queries", log.len())
        .with("hits", kernel_hits)
        .with("baseline_us", fixed(base_cold_us, 0))
        .with("kernel_us", fixed(kernel_cold_us, 0))
        .with("baseline_per_query_us", fixed(per_q(base_cold_us), 2))
        .with("kernel_per_query_us", fixed(per_q(kernel_cold_us), 2))
        .with("speedup", fixed(cold_speedup, 3));
    let warm = Json::obj()
        .with("baseline_probe_us", fixed(base_warm_us, 0))
        .with("kernel_probe_us", fixed(kernel_warm_us, 0))
        .with("ratio", fixed(warm_ratio, 4))
        .with("engine_warm_us", fixed(engine_warm_us, 0))
        .with("engine_warm_all_cache_hits", true);
    let writes = Json::obj()
        .with("count", stream.len())
        .with("baseline_refresh_us", fixed(base_write_us, 0))
        .with("kernel_refresh_us", fixed(kernel_write_us, 0))
        .with("ratio", fixed(write_ratio, 4));
    let gates = Json::obj()
        .with(
            "cold_speedup",
            gate(fixed(cold_speedup, 3), "min", config.min_cold_speedup, cold_pass),
        )
        .with("warm_ratio", gate(fixed(warm_ratio, 4), "max", config.max_warm_ratio, warm_pass))
        .with(
            "write_ratio",
            gate(fixed(write_ratio, 4), "max", config.max_write_ratio, write_pass),
        );
    let record = Json::obj()
        .with("experiment", "e16_cold_kernels")
        .with("config", settings)
        .with("cold", cold)
        .with("warm", warm)
        .with("writes", writes)
        .with("pool_sweep", sweep)
        .with(
            "note",
            "single-core host: the pool sweep measures dispatch overhead, not parallelism",
        )
        .with("gates", gates);
    write_record(&config.out, &record);

    assert!(cold_pass, "cold gate failed: {cold_speedup:.2}× < {:.1}×", config.min_cold_speedup);
    assert!(warm_pass, "warm gate failed: ratio {warm_ratio:.3} > {:.2}", config.max_warm_ratio);
    assert!(
        write_pass,
        "write gate failed: ratio {write_ratio:.3} > {:.2}",
        config.max_write_ratio
    );
    println!("all gates passed");
}
