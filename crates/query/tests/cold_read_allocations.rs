//! Allocation budgets of the read path, counted by a global allocator that
//! keeps one counter per thread.
//!
//! * A warm `ServeFront::submit` — a front hit answered inline on the
//!   submitting thread — allocates nothing.
//! * A cold blocking read (`EngineCluster::{search_as, private_search_as,
//!   ranked_search_as}` past the front cache, every shard run on the
//!   calling thread) over a fixed `ppwf_workloads` corpus and query log
//!   allocates at most [`COLD_READ_ALLOCATIONS`] times per read on
//!   average. The count is deterministic: the same corpus, queries and
//!   read order allocate alike on every run.
//!
//! The counters are thread-local, so reads another test runs on another
//! thread meanwhile do not show up here.

use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_query::engine::Plan;
use ppwf_query::ranking::RankingMode;
use ppwf_query::serve::{QueryAnswer, ServeFront, ServeRequest};
use ppwf_query::EngineCluster;
use ppwf_repo::principals::{PrincipalRegistry, ViewRule};
use ppwf_repo::repository::Repository;
use ppwf_workloads::genquery::{generate_query_log, QueryLogParams};
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations (and reallocations) and their bytes per thread, then
/// hands the request to the system allocator.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the `(allocations, bytes)` it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    (out, (after.0 - before.0, after.1 - before.1))
}

/// The ceiling on allocations per cold blocking read over [`corpus`] and
/// [`queries`]: what the read path allocated when this test was written
/// (65.36 per read, about 12 hits each; the read path it replaced made
/// 207.49). A change that allocates more per read on the cold path fails
/// here.
const COLD_READ_ALLOCATIONS: f64 = 65.4;

fn corpus() -> Repository {
    let mut repo = Repository::new();
    for seed in 0..96 {
        // A wide vocabulary keeps queries selective, as in the E20 streams:
        // a few hits per read, so the count is the read path's, not the
        // answer's size.
        let params = SpecParams { vocabulary: 4096, ..SpecParams::sized(seed, 40) };
        repo.insert_spec(generate_spec(&params), Policy::public()).unwrap();
    }
    repo
}

fn queries(repo: &Repository) -> Vec<String> {
    let specs: Vec<_> = repo.entries().map(|(_, entry)| (*entry.spec).clone()).collect();
    generate_query_log(&specs, &QueryLogParams { seed: 7, count: 120, ..Default::default() })
}

fn registry() -> PrincipalRegistry {
    let mut registry = PrincipalRegistry::new();
    registry.add_group("analysts", AccessLevel(2), ViewRule::MaxDepth(1));
    registry.add_group("researchers", AccessLevel(4), ViewRule::Full);
    registry
}

/// Every read kind for every group over `queries`, each query text
/// prefixed with `pad` — padding the parse drops, so each pad is a fresh
/// front key for the same question.
/// Returns the number of reads and of hits they answered.
fn read_all(cluster: &EngineCluster, queries: &[String], pad: &str) -> (usize, usize) {
    let (mut reads, mut hits) = (0, 0);
    for query in queries {
        let text = format!("{pad}{query}");
        for group in ["analysts", "researchers"] {
            hits += cluster.search_as(group, &text).unwrap().len();
            hits +=
                cluster.private_search_as(group, &text, Plan::FilterThenSearch).unwrap().hits.len();
            hits +=
                cluster.ranked_search_as(group, &text, RankingMode::ExactFull).unwrap().hits.len();
            reads += 3;
        }
    }
    (reads, hits)
}

#[test]
fn a_cold_blocking_read_stays_within_its_allocation_budget() {
    let repo = corpus();
    let queries = queries(&repo);
    assert!(queries.len() >= 100, "the log is the fixed workload");
    let cluster = EngineCluster::new(repo, registry(), 2);
    // Fill the memos a steady stream of cold reads finds warm: views,
    // access prefixes, df entries and this thread's query scratch.
    read_all(&cluster, &queries, " ");
    let misses = cluster.stats().front.misses;
    let ((reads, hits), (allocations, bytes)) = counted(|| read_all(&cluster, &queries, "  "));
    assert_eq!(cluster.stats().front.misses - misses, reads as u64, "every measured read is cold");
    let per_read = allocations as f64 / reads as f64;
    eprintln!(
        "cold blocking read: {per_read:.2} allocations, {:.0} B, {:.2} hits per read over {reads} reads",
        bytes as f64 / reads as f64,
        hits as f64 / reads as f64,
    );
    assert!(
        per_read <= COLD_READ_ALLOCATIONS,
        "{per_read:.2} allocations per cold read, budget {COLD_READ_ALLOCATIONS}"
    );
}

#[test]
fn a_warm_submit_allocates_nothing() {
    let repo = corpus();
    let queries = queries(&repo);
    let front = ServeFront::new(EngineCluster::new(repo, registry(), 2));
    let requests = |query: &String| {
        let (group, query) = ("researchers".to_string(), query.clone());
        [
            ServeRequest::Keyword { group: group.clone(), query: query.clone() },
            ServeRequest::Private {
                group: group.clone(),
                query: query.clone(),
                plan: Plan::FilterThenSearch,
            },
            ServeRequest::Ranked { group, query, mode: RankingMode::ExactFull },
        ]
    };
    for query in &queries[..32] {
        for request in requests(query) {
            front.submit(request).wait();
        }
    }
    let mut hits = 0;
    for query in &queries[..32] {
        for request in requests(query) {
            let (response, (allocations, _)) = counted(|| front.submit(request).wait());
            let warm = match &response.answer {
                QueryAnswer::Keyword(a) => a.is_some(),
                QueryAnswer::Private(a) => a.is_some(),
                QueryAnswer::Ranked(a) => a.is_some(),
                QueryAnswer::Mutated(_) => false,
            };
            assert!(warm, "a registered group is answered");
            assert_eq!(allocations, 0, "a warm submit of {query:?} allocated");
            hits += 1;
        }
    }
    assert_eq!(front.stats().warm_inline as usize, hits, "every measured submit was a front hit");
}
