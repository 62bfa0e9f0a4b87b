//! Repository scans.
//!
//! The non-indexed baseline for every search experiment: visit each stored
//! specification, apply a caller-supplied matcher, and collect the results
//! — the scan side of experiment E5's index-vs-scan comparison.

use crate::repository::{Repository, SpecId};

/// Sequential specification scan: the matcher sees `(spec id, entry)` and
/// returns `Some(T)` to emit. Results come back in spec order.
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

    /// `specs` copies of the paper's fixture, spec `i` holding `i` runs.
    fn repo_with_specs(specs: usize) -> Repository {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        let exec = fixtures::disease_susceptibility_execution(&spec);
        for runs in 0..specs {
            let id = repo.insert_spec(spec.clone(), Policy::public()).unwrap();
            for _ in 0..runs {
                repo.add_execution(id, exec.clone()).unwrap();
            }
        }
        repo
    }

    #[test]
    fn scan_visits_everything_in_order() {
        let repo = repo_with_specs(10);
        let ids = scan_specs(&repo, |sid, _| Some(sid));
        let expected: Vec<SpecId> = repo.entries().map(|(sid, _)| sid).collect();
        assert_eq!(ids.len(), 10);
        assert_eq!(ids, expected, "deterministic spec order");
    }

    #[test]
    fn scan_filters() {
        let repo = repo_with_specs(7);
        let even_runs = scan_specs(&repo, |_, e| {
            let runs = e.executions.len();
            (runs % 2 == 0).then_some(runs)
        });
        assert_eq!(even_runs, vec![0, 2, 4, 6]);
    }

    #[test]
    fn scan_reads_execution_content() {
        let repo = repo_with_specs(3);
        let counts = scan_specs(&repo, |_, e| {
            Some(e.executions.iter().map(|x| x.data_count()).sum::<usize>())
        });
        assert_eq!(counts, vec![0, 20, 40]);
    }

    #[test]
    fn empty_repo_scan() {
        let repo = Repository::new();
        let out: Vec<()> = scan_specs(&repo, |_, _| Some(()));
        assert!(out.is_empty());
    }

    #[test]
    fn spec_scan() {
        let repo = repo_with_specs(1);
        let names = scan_specs(&repo, |_, e| Some(e.spec.name().to_string()));
        assert_eq!(names, vec!["Disease Susceptibility Workflow"]);
    }
}
