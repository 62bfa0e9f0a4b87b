//! Parallel repository scans.
//!
//! The non-indexed baseline for every search experiment: visit each stored
//! execution (or specification), apply a caller-supplied matcher, and
//! collect the results. Scans parallelize across executions on the
//! process-wide [`WorkerPool`] — no per-call thread spawns — and stay a
//! realistic baseline for the index-vs-scan comparison of experiment E5.

use crate::pool::WorkerPool;
use crate::repository::{Repository, SpecId};
use ppwf_model::exec::Execution;

/// Visit every execution and collect matcher outputs. The matcher sees
/// `(spec id, execution index, execution)` and returns `Some(T)` to emit.
/// Results are returned in deterministic (spec, execution) order regardless
/// of thread interleaving. Runs on the shared global pool; `threads` caps
/// how many chunks the work list is split into.
pub fn scan_executions<T, F>(repo: &Repository, threads: usize, matcher: F) -> Vec<T>
where
    T: Send,
    F: Fn(SpecId, usize, &Execution) -> Option<T> + Sync,
{
    scan_executions_on(WorkerPool::global(), repo, threads, matcher)
}

/// [`scan_executions`] on an explicit pool (e.g. a cluster's serving pool).
pub fn scan_executions_on<T, F>(
    pool: &WorkerPool,
    repo: &Repository,
    threads: usize,
    matcher: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(SpecId, usize, &Execution) -> Option<T> + Sync,
{
    assert!(threads > 0, "need at least one scan chunk");
    // Flatten the work list.
    let work: Vec<(SpecId, usize, &Execution)> = repo
        .entries()
        .flat_map(|(sid, e)| e.executions.iter().enumerate().map(move |(i, x)| (sid, i, &**x)))
        .collect();
    if work.is_empty() {
        return Vec::new();
    }
    let threads = threads.min(work.len());
    let chunk = work.len().div_ceil(threads);

    let matcher = &matcher;
    let tasks: Vec<_> = work
        .chunks(chunk)
        .enumerate()
        .map(|(t, part)| {
            let base = t * chunk;
            move || {
                let mut out = Vec::new();
                for (off, (sid, i, exec)) in part.iter().enumerate() {
                    if let Some(v) = matcher(*sid, *i, exec) {
                        out.push((base + off, v));
                    }
                }
                out
            }
        })
        .collect();
    let slots = pool.run(tasks);

    let mut flat: Vec<(usize, T)> = slots.into_iter().flatten().collect();
    flat.sort_by_key(|(i, _)| *i);
    flat.into_iter().map(|(_, v)| v).collect()
}

/// Sequential specification scan (specs are few; executions are many).
pub fn scan_specs<T, F>(repo: &Repository, mut matcher: F) -> Vec<T>
where
    F: FnMut(SpecId, &crate::repository::SpecEntry) -> Option<T>,
{
    repo.entries().filter_map(|(sid, e)| matcher(sid, e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;

    fn repo_with_runs(n: usize) -> Repository {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        let exec = fixtures::disease_susceptibility_execution(&spec);
        let id = repo.insert_spec(spec, Policy::public()).unwrap();
        for _ in 0..n {
            repo.add_execution(id, exec.clone()).unwrap();
        }
        repo
    }

    #[test]
    fn scan_visits_everything_in_order() {
        let repo = repo_with_runs(10);
        for threads in [1, 2, 4, 16] {
            let hits = scan_executions(&repo, threads, |sid, i, _| Some((sid, i)));
            assert_eq!(hits.len(), 10, "threads={threads}");
            let idxs: Vec<usize> = hits.iter().map(|(_, i)| *i).collect();
            assert_eq!(idxs, (0..10).collect::<Vec<_>>(), "deterministic order");
        }
    }

    #[test]
    fn scan_filters() {
        let repo = repo_with_runs(7);
        let evens = scan_executions(&repo, 3, |_, i, _| (i % 2 == 0).then_some(i));
        assert_eq!(evens, vec![0, 2, 4, 6]);
    }

    #[test]
    fn scan_reads_execution_content() {
        let repo = repo_with_runs(3);
        let counts = scan_executions(&repo, 2, |_, _, e| Some(e.data_count()));
        assert_eq!(counts, vec![20, 20, 20]);
    }

    #[test]
    fn empty_repo_scan() {
        let repo = Repository::new();
        let out: Vec<()> = scan_executions(&repo, 4, |_, _, _| Some(()));
        assert!(out.is_empty());
    }

    #[test]
    fn spec_scan() {
        let repo = repo_with_runs(1);
        let names = scan_specs(&repo, |_, e| Some(e.spec.name().to_string()));
        assert_eq!(names, vec!["Disease Susceptibility Workflow"]);
    }
}
