//! E16 baseline emitter: cold-path query kernels — block-compressed
//! postings with galloping/bitmap intersection and restricted gather —
//! versus a faithful replica of the PR-6 flat-`Vec` dataflow.
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
//! *intersection* of the terms' candidate specs). Five sections:
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
//!   maintenance of the block-compressed index (`apply_effect` on each
//!   write's effect) versus the PR-6 refresh replica (fingerprint
//!   verification scan, `Vec` append tail). Gate: kernel maintenance ≤
//!   `--max-write-ratio` × baseline refresh; the maintained index must
//!   answer the log identically to a fresh build.
//! * **Seal boundary (honest cost).** Lists compress on *first* lookup;
//!   a freshly built index pays that once per touched term. Reported as
//!   first-pass vs sealed-pass lookup time — not gated, but committed.
//! * **Pool-width sweep.** Cold scatter over a 4-shard cluster at worker
//!   pool widths `--pool-widths`. On a single-core host this measures
//!   dispatch overhead, not parallelism — reported, not gated.
//!
//! The binary exits non-zero when any acceptance gate fails.

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

struct Config {
    out: String,
    specs: usize,
    queries: usize,
    writes: usize,
    seed: u64,
    min_cold_speedup: f64,
    max_warm_ratio: f64,
    max_write_ratio: f64,
    pool_widths: Vec<usize>,
}

fn parse_args() -> Config {
    let mut config = Config {
        out: "BENCH_e16_cold_kernels.json".to_string(),
        specs: 2048,
        queries: 400,
        writes: 96,
        seed: 17,
        min_cold_speedup: 3.0,
        max_warm_ratio: 1.1,
        max_write_ratio: 1.2,
        pool_widths: vec![1, 2, 4],
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need =
            |n: usize| args.get(n).unwrap_or_else(|| panic!("{} needs a value", args[n - 1]));
        match args[i].as_str() {
            "--out" => config.out = need(i + 1).clone(),
            "--specs" => config.specs = need(i + 1).parse().expect("bad spec count"),
            "--queries" => config.queries = need(i + 1).parse().expect("bad query count"),
            "--writes" => config.writes = need(i + 1).parse().expect("bad write count"),
            "--seed" => config.seed = need(i + 1).parse().expect("bad seed"),
            "--min-cold-speedup" => {
                config.min_cold_speedup = need(i + 1).parse().expect("bad threshold")
            }
            "--max-warm-ratio" => config.max_warm_ratio = need(i + 1).parse().expect("bad ratio"),
            "--max-write-ratio" => config.max_write_ratio = need(i + 1).parse().expect("bad ratio"),
            "--pool-widths" => {
                config.pool_widths = need(i + 1)
                    .split(',')
                    .map(|w| w.trim().parse().expect("bad pool width"))
                    .collect()
            }
            other => panic!("unknown argument {other:?}"),
        }
        i += 2;
    }
    assert!(!config.pool_widths.is_empty(), "need at least one pool width");
    config
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

/// Serve one pass of `(group, query)` pairs; returns (elapsed µs, hits).
fn timed_pass(
    mut serve: impl FnMut(usize, &str) -> usize,
    pairs: &[(usize, String)],
) -> (f64, usize) {
    let t = Instant::now();
    let mut hits = 0usize;
    for (g, q) in pairs {
        hits += serve(*g, q);
    }
    (t.elapsed().as_secs_f64() * 1e6, hits)
}

/// Best of `reps` passes — the standard noise-floor estimate.
fn best_pass(
    reps: usize,
    mut serve: impl FnMut(usize, &str) -> usize,
    pairs: &[(usize, String)],
) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut hits = 0usize;
    for _ in 0..reps.max(1) {
        let (us, h) = timed_pass(&mut serve, pairs);
        best = best.min(us);
        hits = h;
    }
    (best, hits)
}

fn main() {
    let config = parse_args();
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
    let groups = ["public", "analysts", "researchers"];
    let access_maps: Vec<HashMap<SpecId, Prefix>> = groups
        .iter()
        .map(|g| registry.access_map(&repo, g).expect("standard group exists"))
        .collect();
    let queries: Vec<KeywordQuery> = log.iter().map(|q| KeywordQuery::parse(q)).collect();
    let pairs: Vec<(usize, String)> =
        log.iter().enumerate().map(|(i, q)| (i % groups.len(), q.clone())).collect();
    let multi = queries.iter().filter(|q| q.terms.len() > 1).count();
    assert_eq!(multi, queries.len(), "E16 log must be multi-term only");

    // -- section A: cold selective search -----------------------------------
    let base_index = BaselineIndex::build(&repo);
    let kernel_index = KeywordIndex::build(&repo);
    let base_views = ViewCache::new(16);
    let kernel_views = ViewCache::new(16);

    // Verification before any number: identical answers per (group, query),
    // and warm both view caches so neither timed side pays view builds.
    let mut answer_hits = 0usize;
    for (g, q) in pairs.iter() {
        let query = KeywordQuery::parse(q);
        let base = baseline_search(&repo, &base_index, &query, &access_maps[*g], &base_views);
        let kernel = search_filtered_with_cache(
            &repo,
            &kernel_index,
            &query,
            &access_maps[*g],
            &kernel_views,
        );
        assert_eq!(base.len(), kernel.len(), "hit count diverged on {q:?}");
        for (b, k) in base.iter().zip(kernel.iter()) {
            assert_eq!(b.spec, k.spec, "spec diverged on {q:?}");
            assert_eq!(b.prefix, k.prefix, "prefix diverged on {q:?}");
            assert_eq!(b.matched, k.matched, "matched modules diverged on {q:?}");
        }
        answer_hits += kernel.len();
    }
    println!(
        "verified: {} (group, query) answers identical across both paths ({answer_hits} hits)",
        pairs.len()
    );

    const COLD_REPS: usize = 3;
    let (base_cold_us, base_hits) = best_pass(
        COLD_REPS,
        |g, q| {
            baseline_search(
                &repo,
                &base_index,
                &KeywordQuery::parse(q),
                &access_maps[g],
                &base_views,
            )
            .len()
        },
        &pairs,
    );
    let (kernel_cold_us, kernel_hits) = best_pass(
        COLD_REPS,
        |g, q| {
            search_filtered_with_cache(
                &repo,
                &kernel_index,
                &KeywordQuery::parse(q),
                &access_maps[g],
                &kernel_views,
            )
            .len()
        },
        &pairs,
    );
    assert_eq!(base_hits, kernel_hits, "timed passes diverged");
    let cold_speedup = base_cold_us / kernel_cold_us;
    println!("\n-- cold selective search ({} queries, {} hits) --", pairs.len(), kernel_hits);
    println!(
        "  baseline (PR-6 replica): {:>10.0} µs  ({:.1} µs/q)",
        base_cold_us,
        base_cold_us / pairs.len() as f64
    );
    println!(
        "  kernel   (E16)         : {:>10.0} µs  ({:.1} µs/q)",
        kernel_cold_us,
        kernel_cold_us / pairs.len() as f64
    );
    println!("  speedup: {cold_speedup:.2}× (gate ≥ {:.1}×)", config.min_cold_speedup);

    // -- section B: warm no-regression --------------------------------------
    // The warm path is a (group, query) result probe E16 never touched;
    // load both sides' answers into structurally identical maps.
    let mut base_warm: HashMap<(usize, &str), Arc<Vec<BaseHit>>> = HashMap::new();
    let mut kernel_warm: HashMap<(usize, &str), Arc<Vec<KeywordHit>>> = HashMap::new();
    for (g, q) in pairs.iter() {
        let query = KeywordQuery::parse(q);
        base_warm.insert(
            (*g, q.as_str()),
            Arc::new(baseline_search(&repo, &base_index, &query, &access_maps[*g], &base_views)),
        );
        kernel_warm.insert(
            (*g, q.as_str()),
            Arc::new(search_filtered_with_cache(
                &repo,
                &kernel_index,
                &query,
                &access_maps[*g],
                &kernel_views,
            )),
        );
    }
    const WARM_REPS: usize = 9;
    let (base_warm_us, _) = best_pass(
        WARM_REPS,
        |g, q| base_warm.get(&(g, q)).map(|h| Arc::clone(h).len()).unwrap_or(0),
        &pairs,
    );
    let (kernel_warm_us, _) = best_pass(
        WARM_REPS,
        |g, q| kernel_warm.get(&(g, q)).map(|h| Arc::clone(h).len()).unwrap_or(0),
        &pairs,
    );
    let warm_ratio = kernel_warm_us / base_warm_us;

    // And the real serving object: a warm pass must be pure front-cache
    // hits — the kernel pipeline is never re-entered for a repeated query.
    let cluster = EngineCluster::new(e11_repo(&corpus), registry.clone(), 1);
    for (g, q) in pairs.iter() {
        cluster.search_as(groups[*g], q);
    }
    let before = cluster.stats().front;
    let (engine_warm_us, _) = best_pass(
        WARM_REPS,
        |g, q| cluster.search_as(groups[g], q).map(|h| h.len()).unwrap_or(0),
        &pairs,
    );
    let after = cluster.stats().front;
    assert_eq!(
        after.hits - before.hits,
        (WARM_REPS * pairs.len()) as u64,
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

    // The maintained block-compressed index answers like a fresh build,
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

    // -- section D: seal boundary (honest cost) -----------------------------
    let mut seal_tokens: Vec<String> = queries
        .iter()
        .flat_map(|q| q.terms.iter())
        .flat_map(|t| t.split(' '))
        .map(|t| t.to_string())
        .collect();
    seal_tokens.sort();
    seal_tokens.dedup();
    let seal_index = KeywordIndex::build(&repo);
    let t = Instant::now();
    let mut seal_postings = 0usize;
    for tok in &seal_tokens {
        seal_postings += seal_index.lookup(tok).len();
    }
    let seal_first_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let mut sealed_postings = 0usize;
    for tok in &seal_tokens {
        sealed_postings += seal_index.lookup(tok).len();
    }
    let sealed_us = t.elapsed().as_secs_f64() * 1e6;
    assert_eq!(seal_postings, sealed_postings, "sealing changed answers");
    println!(
        "\n-- seal boundary ({} distinct tokens, {} postings) --",
        seal_tokens.len(),
        seal_postings
    );
    println!("  first lookup (seals): {seal_first_us:.0} µs   sealed lookup: {sealed_us:.0} µs");

    // -- section E: pool-width sweep (cold scatter) -------------------------
    println!("\n-- pool-width sweep (4-shard cold scatter, {} queries) --", pairs.len());
    let mut sweep: Vec<(usize, f64, usize)> = Vec::new();
    for &w in &config.pool_widths {
        let cluster = EngineCluster::with_config(
            e11_repo(&corpus),
            registry.clone(),
            4,
            ShardStrategy::RoundRobin,
            Arc::new(WorkerPool::new(w)),
        );
        let (us, hits) = timed_pass(
            |g, q| cluster.search_as(groups[g], q).map(|h| h.len()).unwrap_or(0),
            &pairs,
        );
        assert_eq!(hits, kernel_hits, "cluster answers diverged at width {w}");
        println!("  width {w}: {us:>10.0} µs  ({:.1} µs/q)", us / pairs.len() as f64);
        sweep.push((w, us, hits));
    }

    // -- JSON + gates --------------------------------------------------------
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(w, us, hits)| {
            format!(
                r#"{{ "pool_width": {w}, "cold_scatter_us": {us:.0}, "per_query_us": {pq:.2}, "hits": {hits} }}"#,
                pq = us / pairs.len() as f64,
            )
        })
        .collect();
    let cold_pass = cold_speedup >= config.min_cold_speedup;
    let warm_pass = warm_ratio <= config.max_warm_ratio;
    let write_pass = write_ratio <= config.max_write_ratio;
    let json = format!(
        r#"{{
  "experiment": "e16_cold_kernels",
  "config": {{
    "specs": {specs}, "queries": {queries}, "writes": {writes}, "seed": {seed},
    "min_cold_speedup": {min_cold_speedup}, "max_warm_ratio": {max_warm_ratio},
    "max_write_ratio": {max_write_ratio}
  }},
  "cold": {{
    "queries": {nq}, "hits": {hits},
    "baseline_us": {base_cold_us:.0}, "kernel_us": {kernel_cold_us:.0},
    "baseline_per_query_us": {bpq:.2}, "kernel_per_query_us": {kpq:.2},
    "speedup": {cold_speedup:.3}
  }},
  "warm": {{
    "baseline_probe_us": {base_warm_us:.0}, "kernel_probe_us": {kernel_warm_us:.0},
    "ratio": {warm_ratio:.4}, "engine_warm_us": {engine_warm_us:.0},
    "engine_warm_all_cache_hits": true
  }},
  "writes": {{
    "count": {nw}, "baseline_refresh_us": {base_write_us:.0},
    "kernel_refresh_us": {kernel_write_us:.0}, "ratio": {write_ratio:.4}
  }},
  "seal_boundary": {{
    "distinct_tokens": {ntok}, "postings": {seal_postings},
    "first_lookup_us": {seal_first_us:.0}, "sealed_lookup_us": {sealed_us:.0}
  }},
  "pool_sweep": [
    {sweep_json}
  ],
  "note": "single-core host: the pool sweep measures dispatch overhead, not parallelism",
  "gates": {{
    "cold_speedup": {{ "value": {cold_speedup:.3}, "min": {min_cold_speedup}, "pass": {cold_pass} }},
    "warm_ratio": {{ "value": {warm_ratio:.4}, "max": {max_warm_ratio}, "pass": {warm_pass} }},
    "write_ratio": {{ "value": {write_ratio:.4}, "max": {max_write_ratio}, "pass": {write_pass} }}
  }}
}}
"#,
        specs = config.specs,
        queries = config.queries,
        writes = config.writes,
        seed = config.seed,
        min_cold_speedup = config.min_cold_speedup,
        max_warm_ratio = config.max_warm_ratio,
        max_write_ratio = config.max_write_ratio,
        nq = pairs.len(),
        hits = kernel_hits,
        bpq = base_cold_us / pairs.len() as f64,
        kpq = kernel_cold_us / pairs.len() as f64,
        nw = stream.len(),
        ntok = seal_tokens.len(),
        sweep_json = sweep_json.join(",\n    "),
    );
    std::fs::write(&config.out, json).expect("write benchmark json");
    println!("\nwrote {}", config.out);

    assert!(cold_pass, "cold gate failed: {cold_speedup:.2}× < {:.1}×", config.min_cold_speedup);
    assert!(warm_pass, "warm gate failed: ratio {warm_ratio:.3} > {:.2}", config.max_warm_ratio);
    assert!(
        write_pass,
        "write gate failed: ratio {write_ratio:.3} > {:.2}",
        config.max_write_ratio
    );
    println!("all gates passed");
}
