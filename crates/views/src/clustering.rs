//! Clustering views over flat dataflow graphs.
//!
//! Structural privacy (Sec. 3 of the paper) can hide reachability by
//! grouping modules into opaque composite modules. A [`Clustering`] is a
//! partition of the nodes of a flat DAG; its *quotient* graph is what the
//! user sees. Whether the quotient tells the truth about reachability is the
//! **soundness** question of [`crate::soundness`] (paper ref \[9\]).

use ppwf_model::bitset::BitSet;
use ppwf_model::graph::DiGraph;

/// A partition of the nodes `0..n` of a flat graph into groups `0..k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clustering {
    group_of: Vec<u32>,
    k: u32,
}

impl Clustering {
    /// The discrete clustering: every node is its own group.
    pub fn identity(n: usize) -> Self {
        Clustering { group_of: (0..n as u32).collect(), k: n as u32 }
    }

    /// Build from an explicit group assignment (`group_of[v] = g`). Group
    /// ids are renumbered densely in first-appearance order.
    pub fn from_assignment(group_of: &[u32]) -> Self {
        let mut remap: Vec<Option<u32>> =
            vec![
                None;
                group_of.len().max(group_of.iter().map(|&g| g as usize + 1).max().unwrap_or(0),)
            ];
        let mut next = 0u32;
        let mut dense = Vec::with_capacity(group_of.len());
        for &g in group_of {
            let id = *remap[g as usize].get_or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            dense.push(id);
        }
        Clustering { group_of: dense, k: next }
    }

    /// Build from explicit groups; nodes not mentioned become singletons.
    pub fn from_groups(n: usize, groups: &[Vec<u32>]) -> Self {
        let mut assign: Vec<Option<u32>> = vec![None; n];
        for (gi, group) in groups.iter().enumerate() {
            for &v in group {
                assert!(
                    assign[v as usize].replace(gi as u32).is_none(),
                    "node {v} assigned to two groups"
                );
            }
        }
        let mut next = groups.len() as u32;
        let group_of: Vec<u32> = assign
            .into_iter()
            .map(|a| {
                a.unwrap_or_else(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
            .collect();
        Clustering::from_assignment(&group_of)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.group_of.len()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.k as usize
    }

    /// Group of node `v`.
    #[inline]
    pub fn group_of(&self, v: u32) -> u32 {
        self.group_of[v as usize]
    }

    /// The members of each group, indexed by group id.
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut m = vec![Vec::new(); self.k as usize];
        for (v, &g) in self.group_of.iter().enumerate() {
            m[g as usize].push(v as u32);
        }
        m
    }

    /// Merge the groups of nodes `a` and `b` (no-op if already together).
    /// Returns the new clustering (clusterings are cheap to copy at
    /// workflow scale and immutability simplifies the search algorithms).
    pub fn merged(&self, a: u32, b: u32) -> Clustering {
        let (ga, gb) = (self.group_of(a), self.group_of(b));
        if ga == gb {
            return self.clone();
        }
        let assign: Vec<u32> =
            self.group_of.iter().map(|&g| if g == gb { ga } else { g }).collect();
        Clustering::from_assignment(&assign)
    }

    /// Split one group into two by an explicit member subset. `part` lists
    /// the members that leave; the rest stay. Panics if `part` is empty,
    /// covers the whole group, or contains outsiders.
    pub fn split(&self, group: u32, part: &[u32]) -> Clustering {
        let members: Vec<u32> = self
            .group_of
            .iter()
            .enumerate()
            .filter(|(_, &g)| g == group)
            .map(|(v, _)| v as u32)
            .collect();
        assert!(!part.is_empty(), "empty split part");
        assert!(part.len() < members.len(), "split must leave both halves nonempty");
        for &v in part {
            assert_eq!(self.group_of(v), group, "split member {v} not in group {group}");
        }
        let in_part: BitSet =
            BitSet::from_iter(self.group_of.len(), part.iter().map(|&v| v as usize));
        let fresh = self.k;
        let assign: Vec<u32> = self
            .group_of
            .iter()
            .enumerate()
            .map(|(v, &g)| if g == group && in_part.contains(v) { fresh } else { g })
            .collect();
        Clustering::from_assignment(&assign)
    }

    /// Whether every group is a singleton.
    pub fn is_discrete(&self) -> bool {
        self.k as usize == self.group_of.len()
    }

    /// Build the quotient graph: one node per group carrying its member
    /// list; one edge per ordered group pair that has at least one base
    /// edge, carrying the number of base edges it represents. Self-loops
    /// (intra-group edges) are dropped — they are hidden inside the
    /// composite.
    pub fn quotient<N, E>(&self, g: &DiGraph<N, E>) -> DiGraph<Vec<u32>, usize> {
        assert_eq!(g.node_count(), self.group_of.len(), "clustering size mismatch");
        let mut q: DiGraph<Vec<u32>, usize> = DiGraph::with_capacity(self.k as usize, 0);
        for members in self.members() {
            q.add_node(members);
        }
        let mut edge_idx: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::new();
        for (_, e) in g.edges() {
            let (a, b) = (self.group_of(e.from), self.group_of(e.to));
            if a == b {
                continue;
            }
            match edge_idx.entry((a, b)) {
                std::collections::hash_map::Entry::Occupied(o) => {
                    *q.edge_payload_mut(*o.get()) += 1;
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(q.add_edge(a, b, 1));
                }
            }
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        for _ in 0..n {
            g.add_node(());
        }
        for i in 0..n - 1 {
            g.add_edge(i as u32, i as u32 + 1, ());
        }
        g
    }

    #[test]
    fn identity_is_discrete() {
        let c = Clustering::identity(5);
        assert!(c.is_discrete());
        assert_eq!(c.group_count(), 5);
        assert_eq!(c.group_of(3), 3);
    }

    #[test]
    fn from_groups_with_singletons() {
        let c = Clustering::from_groups(5, &[vec![1, 3]]);
        assert_eq!(c.group_count(), 4);
        assert_eq!(c.group_of(1), c.group_of(3));
        assert_ne!(c.group_of(0), c.group_of(1));
        let members = c.members();
        assert!(members.iter().any(|m| m == &vec![1, 3]));
    }

    #[test]
    #[should_panic(expected = "assigned to two groups")]
    fn overlapping_groups_rejected() {
        Clustering::from_groups(4, &[vec![0, 1], vec![1, 2]]);
    }

    #[test]
    fn merge_and_split_inverse() {
        let c = Clustering::identity(4);
        let merged = c.merged(1, 2);
        assert_eq!(merged.group_count(), 3);
        assert_eq!(merged.group_of(1), merged.group_of(2));
        let split = merged.split(merged.group_of(1), &[2]);
        assert_eq!(split.group_count(), 4);
        assert_ne!(split.group_of(1), split.group_of(2));
        // Merging already-merged is a no-op.
        assert_eq!(merged.merged(1, 2), merged);
    }

    #[test]
    fn quotient_of_chain() {
        let g = chain(4);
        let c = Clustering::from_groups(4, &[vec![1, 2]]);
        let q = c.quotient(&g);
        assert_eq!(q.node_count(), 3);
        // 0 → {1,2} → 3; the edge 1 → 2 vanished as a self-loop.
        assert_eq!(q.edge_count(), 2);
        assert!(q.is_dag());
    }

    #[test]
    fn quotient_counts_multiplicity() {
        // Two nodes both feeding two merged nodes: multiplicity 2.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        for _ in 0..4 {
            g.add_node(());
        }
        g.add_edge(0, 2, ());
        g.add_edge(0, 3, ());
        g.add_edge(1, 2, ());
        let c = Clustering::from_groups(4, &[vec![0, 1], vec![2, 3]]);
        let q = c.quotient(&g);
        assert_eq!(q.node_count(), 2);
        assert_eq!(q.edge_count(), 1);
        assert_eq!(q.edge(0).payload, 3);
    }

    #[test]
    fn quotient_can_create_cycles() {
        // a → b, c → a with {b, c} merged: quotient has a 2-cycle — the
        // "unsound view" smell the soundness checker must flag.
        let mut g: DiGraph<(), ()> = DiGraph::new();
        for _ in 0..3 {
            g.add_node(());
        }
        g.add_edge(0, 1, ());
        g.add_edge(2, 0, ());
        let c = Clustering::from_groups(3, &[vec![1, 2]]);
        let q = c.quotient(&g);
        assert!(!q.is_dag());
    }
}
