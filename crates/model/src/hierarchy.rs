//! The expansion hierarchy (Fig. 3) and its prefixes.
//!
//! The τ-expansion relation of a specification induces a rooted tree over
//! its workflows: `W2` and `W4` are children of `W1`, `W3` is a child of
//! `W2`. *Prefixes* of this tree (subtrees containing the root, closed under
//! parents) define **views** of the specification: a prefix says which
//! composite modules are expanded and which stay opaque. Prefixes form a
//! lattice under intersection/union, which the privacy layer uses as its
//! zoom-out structure, and a user's *access view* is simply the finest
//! prefix they may see.

use crate::error::{ModelError, Result};
use crate::ids::{ModuleId, WorkflowId};
use crate::spec::Specification;

/// The expansion hierarchy of a specification: a rooted tree of workflows.
#[derive(Clone, Debug)]
pub struct ExpansionHierarchy {
    root: WorkflowId,
    parent: Vec<Option<WorkflowId>>,
    children: Vec<Vec<WorkflowId>>,
    /// For each workflow, the composite module it defines (None for root).
    defining: Vec<Option<ModuleId>>,
    depth: Vec<u32>,
}

impl ExpansionHierarchy {
    /// Derive the hierarchy from a validated specification.
    pub fn of(spec: &Specification) -> Self {
        let n = spec.workflow_count();
        let mut parent = vec![None; n];
        let mut children = vec![Vec::new(); n];
        let mut defining = vec![None; n];
        for wf in spec.workflows() {
            if let Some(pm) = wf.parent {
                let pw = spec.module(pm).workflow;
                parent[wf.id.index()] = Some(pw);
                children[pw.index()].push(wf.id);
                defining[wf.id.index()] = Some(pm);
            }
        }
        let mut depth = vec![0u32; n];
        // Parents precede children by construction (builder order), so a
        // forward pass computes depths.
        for i in 0..n {
            if let Some(p) = parent[i] {
                depth[i] = depth[p.index()] + 1;
            }
        }
        ExpansionHierarchy { root: spec.root(), parent, children, defining, depth }
    }

    /// The root workflow.
    pub fn root(&self) -> WorkflowId {
        self.root
    }

    /// Number of workflows in the hierarchy.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the hierarchy is trivial (single workflow).
    pub fn is_empty(&self) -> bool {
        self.parent.len() <= 1
    }

    /// Parent workflow, or `None` for the root.
    pub fn parent(&self, w: WorkflowId) -> Option<WorkflowId> {
        self.parent[w.index()]
    }

    /// Child workflows (expansions of composites inside `w`).
    pub fn children(&self, w: WorkflowId) -> &[WorkflowId] {
        &self.children[w.index()]
    }

    /// The composite module `w` defines, or `None` for the root.
    pub fn defining_module(&self, w: WorkflowId) -> Option<ModuleId> {
        self.defining[w.index()]
    }

    /// Tree depth (root = 0).
    pub fn depth(&self, w: WorkflowId) -> u32 {
        self.depth[w.index()]
    }

    /// Maximum depth over all workflows.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Workflows in preorder (root first, children in insertion order).
    pub fn preorder(&self) -> Vec<WorkflowId> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![self.root];
        while let Some(w) = stack.pop() {
            out.push(w);
            for &c in self.children(w).iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

/// A prefix of the expansion hierarchy: a set of workflows containing the
/// root and closed under parents. Determines a view of the specification
/// (see [`crate::expand`]): composite modules whose expansion lies in the
/// prefix are shown expanded.
///
/// The paper (Sec. 2, footnote 2): *"a prefix of a rooted tree T is a tree
/// obtained from T by deleting some of its subtrees."*
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Prefix {
    member: Vec<bool>,
}

impl Prefix {
    /// The coarsest prefix: only the root workflow. Under this view every
    /// top-level composite module is opaque (Fig. 2's view of Fig. 4).
    pub fn root_only(h: &ExpansionHierarchy) -> Self {
        let mut member = vec![false; h.len()];
        member[h.root().index()] = true;
        Prefix { member }
    }

    /// The finest prefix: all workflows (the full expansion).
    pub fn full(h: &ExpansionHierarchy) -> Self {
        Prefix { member: vec![true; h.len()] }
    }

    /// Build a prefix from an explicit workflow set, validating closure
    /// under parents and membership of the root.
    pub fn from_workflows(
        h: &ExpansionHierarchy,
        ws: impl IntoIterator<Item = WorkflowId>,
    ) -> Result<Self> {
        let mut member = vec![false; h.len()];
        for w in ws {
            if w.index() >= member.len() {
                return Err(ModelError::BadId {
                    kind: "workflow",
                    index: w.index(),
                    len: member.len(),
                });
            }
            member[w.index()] = true;
        }
        let p = Prefix { member };
        p.validate(h)?;
        Ok(p)
    }

    /// Check the prefix invariants against a hierarchy.
    pub fn validate(&self, h: &ExpansionHierarchy) -> Result<()> {
        if self.member.len() != h.len() {
            return Err(ModelError::BadPrefix {
                detail: format!("size mismatch: {} vs {}", self.member.len(), h.len()),
            });
        }
        if !self.member[h.root().index()] {
            return Err(ModelError::BadPrefix { detail: "root not in prefix".into() });
        }
        for i in 0..self.member.len() {
            if self.member[i] {
                if let Some(p) = h.parent(WorkflowId::new(i)) {
                    if !self.member[p.index()] {
                        return Err(ModelError::BadPrefix {
                            detail: format!("workflow w{i} present without its parent"),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether workflow `w` is in the prefix (i.e. expanded in the view).
    pub fn contains(&self, w: WorkflowId) -> bool {
        self.member.get(w.index()).copied().unwrap_or(false)
    }

    /// How many workflows [`Self::add_path`] would add for `w`: `w` and
    /// those of its ancestors outside the prefix. The prefix is closed
    /// under parents, so they are the bottom of the root path, and the walk
    /// stops at the first member.
    pub fn path_cost(&self, h: &ExpansionHierarchy, w: WorkflowId) -> usize {
        let mut cost = 0;
        let mut cur = Some(w);
        while let Some(x) = cur.filter(|&x| !self.contains(x)) {
            cost += 1;
            cur = h.parent(x);
        }
        cost
    }

    /// Add `w` and its root path, keeping the prefix closed under parents:
    /// the smallest growth that makes `w` expanded. `w` must be a workflow
    /// of `h`.
    pub fn add_path(&mut self, h: &ExpansionHierarchy, w: WorkflowId) {
        let mut cur = Some(w);
        while let Some(x) = cur.filter(|&x| !self.contains(x)) {
            self.member[x.index()] = true;
            cur = h.parent(x);
        }
    }

    /// Number of workflows in the prefix.
    pub fn len(&self) -> usize {
        self.member.iter().filter(|&&b| b).count()
    }

    /// A prefix always contains the root, so it is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate over member workflows in id order.
    pub fn workflows(&self) -> impl Iterator<Item = WorkflowId> + '_ {
        self.member.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| WorkflowId::new(i))
    }

    /// Lattice join (union). The union of two parent-closed sets containing
    /// the root is again parent-closed, so this needs no re-validation.
    pub fn join(&self, other: &Prefix) -> Prefix {
        Prefix { member: self.member.iter().zip(&other.member).map(|(&a, &b)| a || b).collect() }
    }

    /// Whether `self` is at least as coarse as `other` (`self ⊆ other`).
    pub fn coarser_or_equal(&self, other: &Prefix) -> bool {
        self.member.iter().zip(&other.member).all(|(&a, &b)| !a || b)
    }

    /// Remove workflow `w` *and its whole subtree* from the prefix,
    /// returning the number of workflows removed. Removing the root is
    /// rejected. This is the elementary "zoom out" step.
    pub fn remove_subtree(&mut self, h: &ExpansionHierarchy, w: WorkflowId) -> Result<usize> {
        if w == h.root() {
            return Err(ModelError::BadPrefix { detail: "cannot remove the root".into() });
        }
        let mut removed = 0;
        let mut stack = vec![w];
        while let Some(x) = stack.pop() {
            if std::mem::replace(&mut self.member[x.index()], false) {
                removed += 1;
            }
            stack.extend_from_slice(h.children(x));
        }
        Ok(removed)
    }

    /// The *frontier* of the prefix: member workflows none of whose children
    /// are members — the candidates for the next zoom-out step.
    pub fn frontier(&self, h: &ExpansionHierarchy) -> Vec<WorkflowId> {
        self.workflows().filter(|&w| h.children(w).iter().all(|c| !self.contains(*c))).collect()
    }
}

impl std::fmt::Debug for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.workflows()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    /// The paper's hierarchy: W1 → {W2, W4'}, W2 → {W3} — here modeled as
    /// W1 → {W2}, W2 → {W3}, W1 → {W4} with ids in creation order
    /// (W1=w0, W2=w1, W3=w2, W4=w3).
    fn paper_shape() -> (Specification, ExpansionHierarchy) {
        let mut b = SpecBuilder::new("h");
        let w1 = b.root_workflow("W1");
        let (m1, w2) = b.composite(w1, "M1", "W2", &[]);
        let (m2, _w3) = b.composite(w2, "M2'", "W3", &[]);
        let (m4, w4) = b.composite(w1, "M4'", "W4", &[]);
        // Wire minimal dataflow so validation passes.
        for (w, m) in [(w1, m1), (w1, m4)] {
            b.edge(w, b.input(w), m, &["x"]);
            b.edge(w, m, b.output(w), &["y"]);
        }
        b.edge(w2, b.input(w2), m2, &["x"]);
        b.edge(w2, m2, b.output(w2), &["y"]);
        let w3 = WorkflowId::new(2);
        let a = b.atomic(w3, "A", &[]);
        b.edge(w3, b.input(w3), a, &["x"]);
        b.edge(w3, a, b.output(w3), &["y"]);
        let a4 = b.atomic(w4, "B", &[]);
        b.edge(w4, b.input(w4), a4, &["x"]);
        b.edge(w4, a4, b.output(w4), &["y"]);
        let s = b.build().unwrap();
        let h = ExpansionHierarchy::of(&s);
        (s, h)
    }

    use crate::spec::Specification;

    #[test]
    fn tree_structure() {
        let (_s, h) = paper_shape();
        let (w1, w2, w3, w4) =
            (WorkflowId::new(0), WorkflowId::new(1), WorkflowId::new(2), WorkflowId::new(3));
        assert_eq!(h.root(), w1);
        assert_eq!(h.parent(w2), Some(w1));
        assert_eq!(h.parent(w3), Some(w2));
        assert_eq!(h.parent(w4), Some(w1));
        assert_eq!(h.children(w1), &[w2, w4]);
        assert_eq!(h.depth(w1), 0);
        assert_eq!(h.depth(w3), 2);
        assert_eq!(h.max_depth(), 2);
        assert_eq!(h.preorder(), vec![w1, w2, w3, w4]);
    }

    #[test]
    fn prefix_construction_and_validation() {
        let (_s, h) = paper_shape();
        let (w1, w2, w3) = (WorkflowId::new(0), WorkflowId::new(1), WorkflowId::new(2));
        let p = Prefix::from_workflows(&h, [w1, w2]).unwrap();
        assert!(p.contains(w1) && p.contains(w2) && !p.contains(w3));
        assert_eq!(p.len(), 2);
        // Not parent-closed: W3 without W2.
        assert!(Prefix::from_workflows(&h, [w1, w3]).is_err());
        // Missing root.
        assert!(Prefix::from_workflows(&h, [w2]).is_err());
    }

    #[test]
    fn lattice_ops() {
        let (_s, h) = paper_shape();
        let (w1, w2, w3, w4) =
            (WorkflowId::new(0), WorkflowId::new(1), WorkflowId::new(2), WorkflowId::new(3));
        let a = Prefix::from_workflows(&h, [w1, w2, w3]).unwrap();
        let b = Prefix::from_workflows(&h, [w1, w2, w4]).unwrap();
        let j = a.join(&b);
        assert_eq!(j.len(), 4);
        assert!(a.coarser_or_equal(&j) && b.coarser_or_equal(&j));
        assert!(!a.coarser_or_equal(&b));
        j.validate(&h).unwrap();
    }

    #[test]
    fn zoom_out_and_frontier() {
        let (_s, h) = paper_shape();
        let (w1, w2, w3, w4) =
            (WorkflowId::new(0), WorkflowId::new(1), WorkflowId::new(2), WorkflowId::new(3));
        let mut p = Prefix::full(&h);
        assert_eq!(p.frontier(&h), vec![w3, w4]);
        assert_eq!(p.remove_subtree(&h, w2).unwrap(), 2, "removes W2 and W3");
        assert!(p.contains(w1) && !p.contains(w2) && !p.contains(w3) && p.contains(w4));
        p.validate(&h).unwrap();
        assert!(p.remove_subtree(&h, w1).is_err(), "root removal rejected");
        // Removing an already absent subtree removes nothing.
        assert_eq!(p.remove_subtree(&h, w3).unwrap(), 0);
    }

    #[test]
    fn root_only_and_full() {
        let (_s, h) = paper_shape();
        let r = Prefix::root_only(&h);
        assert_eq!(r.len(), 1);
        r.validate(&h).unwrap();
        let f = Prefix::full(&h);
        assert_eq!(f.len(), 4);
        assert!(r.coarser_or_equal(&f));
        assert_eq!(r.frontier(&h), vec![h.root()]);
        assert!(!r.is_empty());
    }
}
