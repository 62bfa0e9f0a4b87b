//! Materialized reachability over full expansions, with visibility-filtered
//! lookups.
//!
//! Structural queries ("was Expand SNP Set executed before Query OMIM?")
//! reduce to reachability between modules in the fully expanded workflow.
//! The index materializes the transitive closure once per specification —
//! one structure for all privilege levels — and filters per lookup: a pair
//! is *visible* to a principal only when both endpoints lie inside their
//! access-view prefix (invisible modules are absorbed into composites and
//! cannot be referenced by the query in the first place).

use crate::repository::{Repository, SpecId};
use ppwf_model::bitset::BitSet;
use ppwf_model::expand::SpecView;
use ppwf_model::hierarchy::Prefix;
use ppwf_model::ids::ModuleId;
use std::collections::HashMap;

/// Reachability index for one specification's full expansion.
#[derive(Debug)]
pub struct SpecReachability {
    node_of_module: HashMap<ModuleId, u32>,
    closure: Vec<BitSet>,
    input_node: u32,
    output_node: u32,
}

impl SpecReachability {
    /// Build from a repository entry.
    pub fn build(entry: &crate::repository::SpecEntry) -> Self {
        let full = Prefix::full(&entry.hierarchy);
        let view = SpecView::build(&entry.spec, &entry.hierarchy, &full)
            .expect("full prefix is always valid");
        let closure = view.graph().transitive_closure();
        let node_of_module = view
            .visible_modules()
            .map(|m| (m, view.node_of(m).expect("visible module has a node")))
            .collect();
        SpecReachability {
            node_of_module,
            closure,
            input_node: view.input(),
            output_node: view.output(),
        }
    }

    /// Whether `a` (atomic module) can reach `b` through dataflow in the
    /// full expansion. Modules not part of the full expansion (composites)
    /// yield `false`.
    pub fn reaches(&self, a: ModuleId, b: ModuleId) -> bool {
        match (self.node_of_module.get(&a), self.node_of_module.get(&b)) {
            (Some(&na), Some(&nb)) => self.closure[na as usize].contains(nb as usize),
            _ => false,
        }
    }

    /// Reachability restricted to a principal's access view: both endpoints
    /// must be visible under `prefix` (their workflows inside it).
    pub fn reaches_visible(
        &self,
        entry: &crate::repository::SpecEntry,
        prefix: &Prefix,
        a: ModuleId,
        b: ModuleId,
    ) -> bool {
        let visible = |m: ModuleId| prefix.contains(entry.spec.module(m).workflow);
        visible(a) && visible(b) && self.reaches(a, b)
    }

    /// Modules on some input-to-output path (the "live" modules).
    pub fn live_modules(&self) -> Vec<ModuleId> {
        self.node_of_module
            .iter()
            .filter(|(_, &n)| {
                self.closure[self.input_node as usize].contains(n as usize)
                    && self.closure[n as usize].contains(self.output_node as usize)
            })
            .map(|(&m, _)| m)
            .collect()
    }

    /// Number of indexed (atomic) modules.
    pub fn module_count(&self) -> usize {
        self.node_of_module.len()
    }
}

/// Repository-wide reachability index. Rows are slot-aligned to the
/// repository's id space: a tombstoned (or retracted) spec keeps its
/// position as `None`, so later ids never shift.
#[derive(Debug)]
pub struct ReachIndex {
    specs: Vec<Option<SpecReachability>>,
}

impl ReachIndex {
    /// Build for every live specification.
    pub fn build(repo: &Repository) -> Self {
        ReachIndex { specs: repo.slots().map(|(_, s)| s.map(SpecReachability::build)).collect() }
    }

    /// Per-spec index (`None` for tombstoned or never-indexed ids).
    pub fn spec(&self, id: SpecId) -> Option<&SpecReachability> {
        self.specs.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Number of indexed (live) specifications.
    pub fn spec_count(&self) -> usize {
        self.specs.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::Repository;
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;
    use ppwf_model::ids::WorkflowId;

    fn setup() -> (Repository, SpecId) {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        let id = repo.insert_spec(spec, Policy::public()).unwrap();
        (repo, id)
    }

    #[test]
    fn paper_reachability_facts() {
        let (repo, id) = setup();
        let idx = ReachIndex::build(&repo);
        let entry = repo.entry(id).unwrap();
        let m = fixtures::handles(&entry.spec);
        let sr = idx.spec(id).unwrap();
        // The paper's structural query: Expand SNP Set (M3) before
        // Query OMIM (M6).
        assert!(sr.reaches(m.m3, m.m6));
        assert!(!sr.reaches(m.m6, m.m3));
        // Full-expansion edges the paper calls out.
        assert!(sr.reaches(m.m3, m.m5));
        assert!(sr.reaches(m.m8, m.m9));
        // The Sec. 3 non-fact: M10 does not reach M14.
        assert!(!sr.reaches(m.m10, m.m14));
        // Composites are not part of the full expansion.
        assert!(!sr.reaches(m.m1, m.m2));
        assert_eq!(sr.module_count(), 12, "M3, M5..M15");
    }

    #[test]
    fn visibility_filtering() {
        let (repo, id) = setup();
        let idx = ReachIndex::build(&repo);
        let entry = repo.entry(id).unwrap();
        let m = fixtures::handles(&entry.spec);
        let sr = idx.spec(id).unwrap();
        let full = Prefix::full(&entry.hierarchy);
        assert!(sr.reaches_visible(entry, &full, m.m3, m.m6));
        // Without W4 in the prefix, M6 is invisible.
        let no_w4 = Prefix::from_workflows(
            &entry.hierarchy,
            [WorkflowId::new(0), WorkflowId::new(1), WorkflowId::new(2)],
        )
        .unwrap();
        assert!(!sr.reaches_visible(entry, &no_w4, m.m3, m.m6));
        // M3 (in W2) to M8 (in W2) stays visible.
        assert!(sr.reaches_visible(entry, &no_w4, m.m3, m.m8));
    }

    #[test]
    fn live_modules_excludes_pure_sinks() {
        let (repo, id) = setup();
        let idx = ReachIndex::build(&repo);
        let entry = repo.entry(id).unwrap();
        let m = fixtures::handles(&entry.spec);
        let live = idx.spec(id).unwrap().live_modules();
        // M11 (Update Private Datasets) never reaches O.
        assert!(!live.contains(&m.m11));
        assert!(live.contains(&m.m15));
        assert_eq!(live.len(), 11);
    }

    #[test]
    fn matches_online_bfs() {
        // Index answers must equal direct graph reachability for all pairs.
        let (repo, id) = setup();
        let idx = ReachIndex::build(&repo);
        let entry = repo.entry(id).unwrap();
        let sr = idx.spec(id).unwrap();
        let full = Prefix::full(&entry.hierarchy);
        let view = SpecView::build(&entry.spec, &entry.hierarchy, &full).unwrap();
        let mods: Vec<ModuleId> = view.visible_modules().collect();
        for &a in &mods {
            for &b in &mods {
                let direct =
                    view.graph().reaches(view.node_of(a).unwrap(), view.node_of(b).unwrap());
                assert_eq!(sr.reaches(a, b), direct, "mismatch {a} → {b}");
            }
        }
    }
}
