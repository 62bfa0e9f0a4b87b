//! Repository statistics: the numbers an operator (or the CLI) wants
//! before deciding on indexing, caching and privacy-policy strategies.

use crate::repository::Repository;
use std::collections::HashMap;

/// Summary statistics of a repository.
#[derive(Clone, Debug, PartialEq)]
pub struct RepoStats {
    /// Number of specifications.
    pub specs: usize,
    /// Number of stored executions.
    pub executions: usize,
    /// Total modules (proper, across all specs).
    pub modules: usize,
    /// Total dataflow edges (spec level).
    pub edges: usize,
    /// Total workflows (hierarchy nodes).
    pub workflows: usize,
    /// Maximum hierarchy depth across specs.
    pub max_depth: u32,
    /// Total data items across executions.
    pub data_items: usize,
    /// Specs with a non-trivial privacy policy.
    pub specs_with_policies: usize,
    /// Total sensitive channels, private modules and hide-pairs declared.
    pub policy_entries: usize,
}

/// Compute summary statistics.
pub fn repo_stats(repo: &Repository) -> RepoStats {
    let mut s = RepoStats {
        specs: repo.len(),
        executions: repo.execution_count(),
        modules: 0,
        edges: 0,
        workflows: 0,
        max_depth: 0,
        data_items: 0,
        specs_with_policies: 0,
        policy_entries: 0,
    };
    for (_, e) in repo.entries() {
        s.modules += e.spec.modules().filter(|m| !m.kind.is_distinguished()).count();
        s.edges += e.spec.edge_count();
        s.workflows += e.spec.workflow_count();
        s.max_depth = s.max_depth.max(e.hierarchy.max_depth());
        s.data_items += e.executions.iter().map(|x| x.data_count()).sum::<usize>();
        let entries = e.policy.channel_levels.len()
            + e.policy.private_modules.len()
            + e.policy.hide_pairs.len();
        if entries > 0 {
            s.specs_with_policies += 1;
        }
        s.policy_entries += entries;
    }
    s
}

/// The `k` most frequent tokens of the repository's module names and
/// keyword tags (distinguished modules skipped), each with how often it
/// occurs there, most frequent first and ties by token. The tokens are the
/// keyword index's terms, but the counts are occurrences, not postings.
pub fn top_terms(repo: &Repository, k: usize) -> Vec<(String, usize)> {
    let mut freq: HashMap<String, usize> = HashMap::new();
    for (_, entry) in repo.entries() {
        for m in entry.spec.modules() {
            if m.kind.is_distinguished() {
                continue;
            }
            for t in crate::keyword_index::tokenize(&m.name) {
                *freq.entry(t).or_insert(0) += 1;
            }
            for tag in &m.keywords {
                for t in crate::keyword_index::tokenize(tag) {
                    *freq.entry(t).or_insert(0) += 1;
                }
            }
        }
    }
    let mut v: Vec<(String, usize)> = freq.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_core::policy::{AccessLevel, Policy};
    use ppwf_model::fixtures;

    fn sample() -> Repository {
        let mut repo = Repository::new();
        let (spec, m) = fixtures::disease_susceptibility();
        let mut policy = Policy::public();
        policy.protect_channel("disorders", AccessLevel(2));
        policy.hide_pair(m.m13, m.m11, AccessLevel(3));
        let exec = fixtures::disease_susceptibility_execution(&spec);
        let id = repo.insert_spec(spec, policy).unwrap();
        repo.add_execution(id, exec).unwrap();
        repo
    }

    #[test]
    fn stats_count_the_fixture() {
        let repo = sample();
        let s = repo_stats(&repo);
        assert_eq!(s.specs, 1);
        assert_eq!(s.executions, 1);
        assert_eq!(s.modules, 15);
        assert_eq!(s.workflows, 4);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.data_items, 20);
        assert_eq!(s.specs_with_policies, 1);
        assert_eq!(s.policy_entries, 2);
    }

    #[test]
    fn empty_repo_stats() {
        let s = repo_stats(&Repository::new());
        assert_eq!(s.specs, 0);
        assert_eq!(s.policy_entries, 0);
    }

    #[test]
    fn top_terms_ranked() {
        let repo = sample();
        let top = top_terms(&repo, 5);
        assert_eq!(top.len(), 5);
        assert!(top[0].1 >= top[4].1);
        // "query" is among the most frequent tokens of the fixture.
        assert!(top.iter().any(|(t, _)| t == "query"));
    }
}
