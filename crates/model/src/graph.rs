//! A small, from-scratch directed-graph toolkit.
//!
//! Workflow specifications, specification views, executions and execution
//! views are all directed acyclic graphs with domain-specific payloads. This
//! module provides the one generic structure they share — [`DiGraph`] — plus
//! the algorithms the privacy layer needs: Kahn topological ordering, cycle
//! detection, BFS reachability, bitset transitive closure, and induced
//! subgraphs. Max-flow/min-cut lives in [`crate::flow`].
//!
//! We deliberately do not use a general-purpose graph crate: the soundness
//! and structural-privacy algorithms need direct access to closure rows and
//! stable dense indices, and the whole workspace must build offline.
//!
//! ## Storage layout
//!
//! Nodes and edges append into dense vectors through the builder API
//! ([`DiGraph::add_node`] / [`DiGraph::add_edge`]); adjacency is *not* kept
//! as per-node `Vec<Vec<u32>>` but as a compact CSR (compressed sparse row)
//! index — one offsets array plus one flat edge-id array per direction —
//! built lazily on first traversal and invalidated by structural mutation.
//! Model graphs are built once and queried many times (every privacy check
//! and query touches reachability), so the CSR build cost is paid once and
//! every traversal after it walks two contiguous arrays instead of chasing
//! per-node heap allocations.
//!
//! Two query-side caches ride on the same build-once pattern:
//!
//! * the transitive closure ([`DiGraph::closure_rows`]) is computed once and
//!   reused by [`DiGraph::reaches`], [`DiGraph::reachability_pair_count`]
//!   and every caller that previously recomputed it;
//! * [`DiGraph::reaches`] without a materialized closure runs an early-exit
//!   DFS over the CSR with a thread-local, epoch-marked scratch frontier, so
//!   repeated point queries allocate nothing.

use crate::bitset::BitSet;
use std::cell::RefCell;
use std::sync::OnceLock;

/// A directed multigraph with dense `u32` node indices and arbitrary node and
/// edge payloads. Parallel edges and self-loops are representable (validation
/// layers reject them where the model forbids them).
#[derive(Clone, Debug)]
pub struct DiGraph<N, E> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
    /// Lazily built CSR adjacency; reset by structural mutation.
    csr: OnceLock<Csr>,
    /// Lazily built transitive closure; reset by structural mutation.
    closure: OnceLock<Vec<BitSet>>,
}

/// One edge of a [`DiGraph`]: endpoints plus payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge<E> {
    /// Source node index.
    pub from: u32,
    /// Target node index.
    pub to: u32,
    /// Edge payload.
    pub payload: E,
}

/// Compressed-sparse-row adjacency: `out_edges[out_offsets[n]..out_offsets[n+1]]`
/// are the dense edge ids leaving `n`, in insertion order (and symmetrically
/// for the in-direction). Rebuilt from the edge list in O(V + E).
#[derive(Clone, Debug)]
struct Csr {
    out_offsets: Vec<u32>,
    out_edges: Vec<u32>,
    in_offsets: Vec<u32>,
    in_edges: Vec<u32>,
}

impl Csr {
    fn build<E>(node_count: usize, edges: &[Edge<E>]) -> Csr {
        let n = node_count;
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for e in edges {
            out_offsets[e.from as usize + 1] += 1;
            in_offsets[e.to as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut out_edges = vec![0u32; edges.len()];
        let mut in_edges = vec![0u32; edges.len()];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        // Scanning edges in id order makes each per-node run come out in
        // insertion order — the same order the old per-node vectors kept,
        // which the deterministic algorithms above rely on.
        for (id, e) in edges.iter().enumerate() {
            let oc = &mut out_cursor[e.from as usize];
            out_edges[*oc as usize] = id as u32;
            *oc += 1;
            let ic = &mut in_cursor[e.to as usize];
            in_edges[*ic as usize] = id as u32;
            *ic += 1;
        }
        Csr { out_offsets, out_edges, in_offsets, in_edges }
    }

    #[inline]
    fn out(&self, n: u32) -> &[u32] {
        &self.out_edges
            [self.out_offsets[n as usize] as usize..self.out_offsets[n as usize + 1] as usize]
    }

    #[inline]
    fn inn(&self, n: u32) -> &[u32] {
        &self.in_edges
            [self.in_offsets[n as usize] as usize..self.in_offsets[n as usize + 1] as usize]
    }
}

/// Reusable DFS scratch: an epoch-marked visited array plus a stack, kept
/// per thread so point reachability queries allocate nothing after warm-up.
#[derive(Default)]
struct ReachScratch {
    mark: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

thread_local! {
    static REACH_SCRATCH: RefCell<ReachScratch> = RefCell::new(ReachScratch::default());
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Create an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            csr: OnceLock::new(),
            closure: OnceLock::new(),
        }
    }

    /// Create an empty graph with preallocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            csr: OnceLock::new(),
            closure: OnceLock::new(),
        }
    }

    /// The CSR adjacency, building it on first use after a mutation.
    #[inline]
    fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| Csr::build(self.nodes.len(), &self.edges))
    }

    /// Drop derived indexes; called by every structural mutation.
    #[inline]
    fn invalidate(&mut self) {
        self.csr.take();
        self.closure.take();
    }

    /// Add a node, returning its dense index.
    pub fn add_node(&mut self, payload: N) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(payload);
        self.invalidate();
        id
    }

    /// Add an edge, returning its dense index. Panics if either endpoint is
    /// out of range.
    pub fn add_edge(&mut self, from: u32, to: u32, payload: E) -> u32 {
        assert!((from as usize) < self.nodes.len(), "edge source out of range");
        assert!((to as usize) < self.nodes.len(), "edge target out of range");
        let id = self.edges.len() as u32;
        self.edges.push(Edge { from, to, payload });
        self.invalidate();
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Payload of node `n`.
    #[inline]
    pub fn node(&self, n: u32) -> &N {
        &self.nodes[n as usize]
    }

    /// Mutable payload of node `n`. Payload edits leave the derived indexes
    /// intact — only structural mutation invalidates them.
    #[inline]
    pub fn node_mut(&mut self, n: u32) -> &mut N {
        &mut self.nodes[n as usize]
    }

    /// The edge with dense index `e`.
    #[inline]
    pub fn edge(&self, e: u32) -> &Edge<E> {
        &self.edges[e as usize]
    }

    /// Mutable access to edge `e`'s payload only. Payload edits cannot
    /// change the graph's shape, so the derived indexes survive. The
    /// executor interleaves adjacency reads with per-edge payload writes for
    /// every node; dropping the indexes there would rebuild the CSR once per
    /// node (quadratic overall).
    #[inline]
    pub fn edge_payload_mut(&mut self, e: u32) -> &mut E {
        &mut self.edges[e as usize].payload
    }

    /// Iterate over all node indices.
    pub fn node_ids(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.nodes.len() as u32
    }

    /// Iterate over `(index, payload)` for all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (u32, &N)> {
        self.nodes.iter().enumerate().map(|(i, n)| (i as u32, n))
    }

    /// Iterate over `(index, edge)` for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (u32, &Edge<E>)> {
        self.edges.iter().enumerate().map(|(i, e)| (i as u32, e))
    }

    /// Dense indices of edges leaving `n`, in insertion order.
    #[inline]
    pub fn out_edges(&self, n: u32) -> &[u32] {
        self.csr().out(n)
    }

    /// Dense indices of edges entering `n`, in insertion order.
    #[inline]
    pub fn in_edges(&self, n: u32) -> &[u32] {
        self.csr().inn(n)
    }

    /// Successor nodes of `n` (with multiplicity for parallel edges).
    pub fn successors(&self, n: u32) -> impl Iterator<Item = u32> + '_ {
        self.csr().out(n).iter().map(move |&e| self.edges[e as usize].to)
    }

    /// Out-degree of `n`.
    #[inline]
    pub fn out_degree(&self, n: u32) -> usize {
        let csr = self.csr();
        (csr.out_offsets[n as usize + 1] - csr.out_offsets[n as usize]) as usize
    }

    /// In-degree of `n`.
    #[inline]
    pub fn in_degree(&self, n: u32) -> usize {
        let csr = self.csr();
        (csr.in_offsets[n as usize + 1] - csr.in_offsets[n as usize]) as usize
    }

    /// Whether an edge `from → to` exists.
    pub fn has_edge(&self, from: u32, to: u32) -> bool {
        let csr = self.csr();
        csr.out(from).iter().any(|&e| self.edges[e as usize].to == to)
    }

    /// A topological order of the nodes (Kahn's algorithm). Ties are broken
    /// by ascending node index, making the order deterministic — the paper's
    /// `S1..S15` labeling relies on this. Returns `None` if the graph has a
    /// cycle.
    pub fn topo_order(&self) -> Option<Vec<u32>> {
        let n = self.nodes.len();
        let csr = self.csr();
        let mut indeg: Vec<usize> = (0..n as u32).map(|i| csr.inn(i).len()).collect();
        // A sorted ready list; for workflow-scale graphs a linear scan of a
        // binary heap substitute keeps determinism without extra deps.
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> =
            (0..n as u32).filter(|&i| indeg[i as usize] == 0).map(std::cmp::Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(u)) = ready.pop() {
            order.push(u);
            for &e in csr.out(u) {
                let v = self.edges[e as usize].to;
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    ready.push(std::cmp::Reverse(v));
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether the graph is acyclic.
    pub fn is_dag(&self) -> bool {
        self.topo_order().is_some()
    }

    /// The set of nodes reachable from `start` (including `start` itself).
    pub fn reachable_from(&self, start: u32) -> BitSet {
        let csr = self.csr();
        let mut seen = BitSet::new(self.nodes.len());
        let mut stack = vec![start];
        seen.insert(start as usize);
        while let Some(u) = stack.pop() {
            for &e in csr.out(u) {
                let v = self.edges[e as usize].to;
                if seen.insert(v as usize) {
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// The set of nodes that can reach `target` (including `target` itself).
    pub fn reaching_to(&self, target: u32) -> BitSet {
        let csr = self.csr();
        let mut seen = BitSet::new(self.nodes.len());
        let mut stack = vec![target];
        seen.insert(target as usize);
        while let Some(u) = stack.pop() {
            for &e in csr.inn(u) {
                let v = self.edges[e as usize].from;
                if seen.insert(v as usize) {
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// Whether `v` is reachable from `u` (reflexive: `reaches(u, u)` holds).
    ///
    /// If the transitive closure is already materialized this is one bit
    /// probe. Otherwise it runs a depth-first search over the CSR that stops
    /// the moment `v` is seen, using a thread-local epoch-marked scratch
    /// frontier — no allocation, no full-reachability sweep.
    pub fn reaches(&self, u: u32, v: u32) -> bool {
        assert!((u as usize) < self.nodes.len(), "source node out of range");
        if u == v {
            return true;
        }
        if let Some(rows) = self.closure.get() {
            return rows[u as usize].contains(v as usize);
        }
        let csr = self.csr();
        REACH_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            if scratch.mark.len() < self.nodes.len() {
                scratch.mark.resize(self.nodes.len(), 0);
            }
            scratch.epoch = scratch.epoch.wrapping_add(1);
            if scratch.epoch == 0 {
                // Epoch counter wrapped: clear stale marks once per 2^32 calls.
                scratch.mark.iter_mut().for_each(|m| *m = 0);
                scratch.epoch = 1;
            }
            let epoch = scratch.epoch;
            scratch.stack.clear();
            scratch.stack.push(u);
            scratch.mark[u as usize] = epoch;
            while let Some(x) = scratch.stack.pop() {
                for &e in csr.out(x) {
                    let y = self.edges[e as usize].to;
                    if y == v {
                        return true;
                    }
                    if scratch.mark[y as usize] != epoch {
                        scratch.mark[y as usize] = epoch;
                        scratch.stack.push(y);
                    }
                }
            }
            false
        })
    }

    /// The transitive closure as cached reachability rows, one [`BitSet`]
    /// per node: row `u` contains `v` iff `u` can reach `v` (reflexive).
    /// Computed once per graph version in reverse topological order with
    /// word-parallel row unions and reused by [`DiGraph::reaches`] and
    /// [`DiGraph::reachability_pair_count`]; structural mutation rebuilds.
    /// Requires a DAG and panics on cyclic input (all model graphs are
    /// validated DAGs).
    pub fn closure_rows(&self) -> &[BitSet] {
        self.closure.get_or_init(|| {
            let order = self.topo_order().expect("transitive_closure requires a DAG");
            let csr = self.csr();
            let n = self.nodes.len();
            let mut rows: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
            for &u in order.iter().rev() {
                // Take the row out, union successors in, put it back: no
                // per-row clone, and the borrow checker stays satisfied.
                let mut row = std::mem::replace(&mut rows[u as usize], BitSet::new(0));
                row.insert(u as usize);
                for &e in csr.out(u) {
                    let v = self.edges[e as usize].to;
                    let vrow = std::mem::replace(&mut rows[v as usize], BitSet::new(0));
                    row.union_with(&vrow);
                    rows[v as usize] = vrow;
                }
                rows[u as usize] = row;
            }
            rows
        })
    }

    /// Transitive closure as one reachability [`BitSet`] row per node
    /// (owned). Prefer [`DiGraph::closure_rows`] where a borrow suffices —
    /// this clones the cached rows for API compatibility.
    pub fn transitive_closure(&self) -> Vec<BitSet> {
        self.closure_rows().to_vec()
    }

    /// Number of ordered reachability pairs `(u, v)`, `u ≠ v` — the
    /// "connectivity information" unit used by the structural-privacy
    /// utility measure of Sec. 4. Reuses the cached closure rows, so
    /// repeated calls (the structural-privacy search loops call this per
    /// candidate) cost one pass over the rows instead of a closure rebuild.
    pub fn reachability_pair_count(&self) -> usize {
        Self::pair_count_of(self.closure_rows())
    }

    /// Pair count of an externally held closure (e.g. a snapshot taken
    /// before candidate edits, or rows owned by an index).
    pub fn pair_count_of(rows: &[BitSet]) -> usize {
        rows.iter().map(|row| row.len() - 1).sum()
    }

    /// Clone the graph while dropping the edges whose dense index is in
    /// `drop` — used by the edge-deletion structural-privacy mechanism.
    pub fn without_edges(&self, drop: &BitSet) -> DiGraph<N, E>
    where
        N: Clone,
        E: Clone,
    {
        let mut g = DiGraph::with_capacity(self.nodes.len(), self.edges.len());
        for n in &self.nodes {
            g.add_node(n.clone());
        }
        for (i, e) in self.edges.iter().enumerate() {
            if !drop.contains(i) {
                g.add_edge(e.from, e.to, e.payload.clone());
            }
        }
        g
    }

    /// Map node and edge payloads into a new graph with identical shape.
    pub fn map<N2, E2>(
        &self,
        mut fnode: impl FnMut(u32, &N) -> N2,
        mut fedge: impl FnMut(u32, &Edge<E>) -> E2,
    ) -> DiGraph<N2, E2> {
        let mut g = DiGraph::with_capacity(self.nodes.len(), self.edges.len());
        for (i, n) in self.nodes.iter().enumerate() {
            g.add_node(fnode(i as u32, n));
        }
        for (i, e) in self.edges.iter().enumerate() {
            g.add_edge(e.from, e.to, fedge(i as u32, e));
        }
        g
    }

    /// Source nodes (in-degree 0).
    pub fn sources(&self) -> Vec<u32> {
        self.node_ids().filter(|&n| self.in_degree(n) == 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A diamond: 0 → 1, 0 → 2, 1 → 3, 2 → 3.
    fn diamond() -> DiGraph<&'static str, u32> {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 0);
        g.add_edge(a, c, 1);
        g.add_edge(b, d, 2);
        g.add_edge(c, d, 3);
        g
    }

    #[test]
    fn construction_and_degrees() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.successors(0).collect::<Vec<_>>(), vec![1, 2]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.sources(), vec![0]);
    }

    #[test]
    fn topo_order_deterministic() {
        let g = diamond();
        assert_eq!(g.topo_order().unwrap(), vec![0, 1, 2, 3]);
        assert!(g.is_dag());
    }

    #[test]
    fn cycle_detected() {
        let mut g = diamond();
        g.add_edge(3, 0, 9);
        assert!(g.topo_order().is_none());
        assert!(!g.is_dag());
    }

    #[test]
    fn reachability() {
        let g = diamond();
        let r = g.reachable_from(1);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![1, 3]);
        let t = g.reaching_to(2);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert!(g.reaches(0, 3));
        assert!(g.reaches(2, 2), "reachability is reflexive");
        assert!(!g.reaches(1, 2));
    }

    #[test]
    fn closure_matches_pairwise_bfs() {
        let g = diamond();
        let tc = g.transitive_closure();
        for u in 0..4u32 {
            for v in 0..4u32 {
                assert_eq!(
                    tc[u as usize].contains(v as usize),
                    g.reaches(u, v),
                    "closure mismatch at ({u},{v})"
                );
            }
        }
        // pairs: 0→{1,2,3}, 1→{3}, 2→{3}, 3→{} = 5 ordered pairs.
        assert_eq!(g.reachability_pair_count(), 5);
    }

    #[test]
    #[should_panic(expected = "requires a DAG")]
    fn closure_panics_on_cycle() {
        let mut g = diamond();
        g.add_edge(3, 0, 9);
        g.transitive_closure();
    }

    #[test]
    fn without_edges_disconnects() {
        let g = diamond();
        let g2 = g.without_edges(&BitSet::from_iter(4, [2, 3]));
        assert_eq!(g2.edge_count(), 2);
        assert!(!g2.reaches(0, 3));
    }

    #[test]
    fn map_preserves_shape() {
        let g = diamond();
        let g2 = g.map(|i, n| format!("{i}:{n}"), |_, e| e.payload * 10);
        assert_eq!(g2.node(3), "3:d");
        assert_eq!(g2.edge(3).payload, 30);
        assert_eq!(g2.edge_count(), g.edge_count());
    }

    #[test]
    fn parallel_edges_supported() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b, b]);
        assert_eq!(g.reachability_pair_count(), 1);
    }

    #[test]
    fn empty_graph() {
        let g: DiGraph<(), ()> = DiGraph::new();
        assert_eq!(g.topo_order().unwrap(), Vec::<u32>::new());
        assert_eq!(g.reachability_pair_count(), 0);
    }

    #[test]
    fn csr_rebuilds_after_mutation() {
        let mut g = diamond();
        // Force the CSR to materialize, then mutate.
        assert_eq!(g.out_edges(0), &[0, 1]);
        let e = g.add_edge(1, 2, 7);
        assert_eq!(g.out_edges(1), &[2, e], "new edge visible after rebuild");
        assert!(g.has_edge(1, 2));
        assert_eq!(g.in_degree(2), 2);
        // Adding a node keeps adjacency consistent too.
        let n = g.add_node("e");
        assert_eq!(g.out_degree(n), 0);
        assert_eq!(g.in_degree(n), 0);
    }

    #[test]
    fn closure_cache_invalidates_on_mutation() {
        let mut g = diamond();
        assert!(!g.reaches(1, 2));
        assert_eq!(g.reachability_pair_count(), 5); // closure now cached
        g.add_edge(1, 2, 9);
        assert!(g.reaches(1, 2), "stale closure would deny the new edge");
        assert_eq!(g.reachability_pair_count(), 6);
    }

    #[test]
    fn cached_closure_serves_point_queries() {
        let g = diamond();
        let rows = g.closure_rows();
        assert!(rows[0].contains(3));
        // `reaches` must agree with the cached rows bit-for-bit.
        for u in 0..4u32 {
            for v in 0..4u32 {
                assert_eq!(g.reaches(u, v), rows[u as usize].contains(v as usize));
            }
        }
        assert_eq!(DiGraph::<&str, u32>::pair_count_of(rows), 5);
    }

    #[test]
    fn payload_edits_keep_derived_indexes() {
        let mut g = diamond();
        let rows_before = g.closure_rows().as_ptr();
        let adj_before = g.out_edges(0).as_ptr();
        *g.edge_payload_mut(0) = 99;
        assert_eq!(g.edge(0).payload, 99);
        // Neither cache rebuilt: same backing allocations.
        assert_eq!(g.closure_rows().as_ptr(), rows_before, "closure must survive payload edit");
        assert_eq!(g.out_edges(0).as_ptr(), adj_before, "CSR must survive payload edit");
    }

    #[test]
    fn reaches_early_exit_on_deep_chain() {
        // A long chain with the target adjacent to the source: the early
        // exit must answer without walking the whole chain (observable only
        // as speed, but at least correctness holds at both extremes).
        let mut g: DiGraph<u32, ()> = DiGraph::new();
        for i in 0..10_000 {
            g.add_node(i);
        }
        for i in 0..9_999 {
            g.add_edge(i, i + 1, ());
        }
        assert!(g.reaches(0, 1));
        assert!(g.reaches(0, 9_999));
        assert!(!g.reaches(9_999, 0));
    }

    #[test]
    fn graph_is_sync_for_parallel_scans() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<DiGraph<String, u64>>();
    }
}
