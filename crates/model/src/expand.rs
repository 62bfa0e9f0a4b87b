//! Views of a specification defined by prefixes of the expansion hierarchy.
//!
//! Given a prefix (Sec. 2 of the paper), the view it defines is obtained by
//! expanding the root workflow so that composite modules whose expansion
//! lies in the prefix are replaced by their subworkflows. Replacement
//! *splices* dataflow through the subworkflow's input/output pseudo-modules:
//! in the full expansion of Fig. 1 this produces the paper's edges
//! `M3 → M5` and `M8 → M9`.
//!
//! Channel routing follows name selection — an edge leaving a pass-through
//! point picks up the incoming channels whose names it declares. This is the
//! same rule the executor uses to route data items (and is what makes the
//! `{d2,d3,d4,d10}` edge of Fig. 4 come out right).

use crate::error::Result;
use crate::graph::DiGraph;
use crate::hierarchy::{ExpansionHierarchy, Prefix};
use crate::ids::{ModuleId, WorkflowId};
use crate::spec::{ModuleKind, Specification};

/// A node of a flattened specification view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViewNode {
    /// The root workflow's input pseudo-module.
    Input,
    /// The root workflow's output pseudo-module.
    Output,
    /// A visible module: atomic, or a composite left unexpanded (opaque).
    Module(ModuleId),
}

impl ViewNode {
    /// The module id, if this is a module node.
    pub fn module(self) -> Option<ModuleId> {
        match self {
            ViewNode::Module(m) => Some(m),
            _ => None,
        }
    }
}

/// An edge of a flattened view, carrying the channel names that survive the
/// splicing along its path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewEdge {
    /// Channel names carried by this edge.
    pub channels: Vec<String>,
}

/// A flattened view of a specification under a hierarchy prefix.
#[derive(Clone, Debug)]
pub struct SpecView {
    prefix: Prefix,
    graph: DiGraph<ViewNode, ViewEdge>,
    /// View node per module id, [`ABSENT`] for modules the view does not show.
    node_of_module: Vec<u32>,
    input: u32,
    output: u32,
}

/// "No node" in the dense id tables.
const ABSENT: u32 = u32::MAX;

/// Internal working node used during construction; pass-through points are
/// contracted away before the view is returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WorkNode {
    Keep(ViewNode),
    /// Inner input pseudo-module of an expanded subworkflow.
    PassIn(WorkflowId),
    /// Inner output pseudo-module of an expanded subworkflow.
    PassOut(WorkflowId),
}

/// An edge of the work graph. Channels borrow the specification's strings:
/// splicing filters names, and only the edges that survive contraction are
/// ever copied out.
struct WorkEdge<'a> {
    from: u32,
    to: u32,
    channels: Vec<&'a str>,
    /// Cleared when a contracted endpoint takes the edge with it.
    live: bool,
}

/// Work nodes numbered in order of first appearance, through one dense
/// table per node kind instead of a hash map.
struct WorkNodes {
    nodes: Vec<WorkNode>,
    of_module: Vec<u32>,
    pass_in: Vec<u32>,
    pass_out: Vec<u32>,
}

impl WorkNodes {
    fn id(&mut self, n: WorkNode) -> u32 {
        let slot = match n {
            WorkNode::Keep(ViewNode::Input) => return 0,
            WorkNode::Keep(ViewNode::Output) => return 1,
            WorkNode::Keep(ViewNode::Module(m)) => &mut self.of_module[m.index()],
            WorkNode::PassIn(w) => &mut self.pass_in[w.index()],
            WorkNode::PassOut(w) => &mut self.pass_out[w.index()],
        };
        if *slot == ABSENT {
            *slot = self.nodes.len() as u32;
            self.nodes.push(n);
        }
        *slot
    }
}

impl SpecView {
    /// Build the view of `spec` defined by `prefix`.
    pub fn build(spec: &Specification, h: &ExpansionHierarchy, prefix: &Prefix) -> Result<Self> {
        prefix.validate(h)?;
        let root = spec.root();
        // Map a spec module occurring as an edge *source* to a work node.
        let src_node = |m: ModuleId, w: WorkflowId| -> WorkNode {
            if m == spec.workflow(w).input {
                if w == root {
                    WorkNode::Keep(ViewNode::Input)
                } else {
                    WorkNode::PassIn(w)
                }
            } else {
                match spec.module(m).kind {
                    // Expanded: its output speaks for it.
                    ModuleKind::Composite(sub) if prefix.contains(sub) => WorkNode::PassOut(sub),
                    _ => WorkNode::Keep(ViewNode::Module(m)),
                }
            }
        };
        // Map a spec module occurring as an edge *target* to a work node.
        let dst_node = |m: ModuleId, w: WorkflowId| -> WorkNode {
            if m == spec.workflow(w).output {
                if w == root {
                    WorkNode::Keep(ViewNode::Output)
                } else {
                    WorkNode::PassOut(w)
                }
            } else {
                match spec.module(m).kind {
                    ModuleKind::Composite(sub) if prefix.contains(sub) => WorkNode::PassIn(sub),
                    _ => WorkNode::Keep(ViewNode::Module(m)),
                }
            }
        };

        let mut work = WorkNodes {
            nodes: vec![WorkNode::Keep(ViewNode::Input), WorkNode::Keep(ViewNode::Output)],
            of_module: vec![ABSENT; spec.module_count()],
            pass_in: vec![ABSENT; spec.workflow_count()],
            pass_out: vec![ABSENT; spec.workflow_count()],
        };
        let mut edges: Vec<WorkEdge<'_>> = Vec::new();
        for w in prefix.workflows() {
            for &eid in &spec.workflow(w).edges {
                let e = spec.edge(eid);
                let from = work.id(src_node(e.from, w));
                let to = work.id(dst_node(e.to, w));
                let channels = e.channels.iter().map(String::as_str).collect();
                edges.push(WorkEdge { from, to, channels, live: true });
            }
        }

        // Contract pass-through nodes, splicing channels by name selection.
        contract_pass_through(&work.nodes, &mut edges);

        // Kept nodes close ranks in order; surviving edges follow in theirs.
        let mut graph: DiGraph<ViewNode, ViewEdge> =
            DiGraph::with_capacity(work.nodes.len(), edges.len());
        let renumbered: Vec<u32> = work
            .nodes
            .iter()
            .map(|n| match n {
                WorkNode::Keep(v) => graph.add_node(*v),
                _ => ABSENT,
            })
            .collect();
        for e in edges.iter().filter(|e| e.live) {
            let channels = e.channels.iter().map(|c| c.to_string()).collect();
            let (from, to) = (renumbered[e.from as usize], renumbered[e.to as usize]);
            graph.add_edge(from, to, ViewEdge { channels });
        }
        let mut node_of_module = work.of_module;
        for node in node_of_module.iter_mut().filter(|n| **n != ABSENT) {
            *node = renumbered[*node as usize];
        }
        Ok(SpecView {
            prefix: prefix.clone(),
            graph,
            node_of_module,
            input: renumbered[0],
            output: renumbered[1],
        })
    }

    /// The prefix that defines this view.
    pub fn prefix(&self) -> &Prefix {
        &self.prefix
    }

    /// The flattened dataflow graph.
    pub fn graph(&self) -> &DiGraph<ViewNode, ViewEdge> {
        &self.graph
    }

    /// The node for the root input.
    pub fn input(&self) -> u32 {
        self.input
    }

    /// The node for the root output.
    pub fn output(&self) -> u32 {
        self.output
    }

    /// The view node showing module `m`, if `m` is visible in this view.
    pub fn node_of(&self, m: ModuleId) -> Option<u32> {
        self.node_of_module.get(m.index()).copied().filter(|&n| n != ABSENT)
    }

    /// Iterate over the visible modules (excluding the root input/output).
    pub fn visible_modules(&self) -> impl Iterator<Item = ModuleId> + '_ {
        self.graph.nodes().filter_map(|(_, n)| n.module())
    }

    /// Whether module `m` appears in this view as an opaque composite
    /// (present but not expanded).
    pub fn is_opaque_composite(&self, spec: &Specification, m: ModuleId) -> bool {
        self.node_of(m).is_some() && spec.module(m).kind.expansion().is_some()
    }

    /// Whether there is a dataflow edge between two visible modules.
    pub fn has_module_edge(&self, from: ModuleId, to: ModuleId) -> bool {
        match (self.node_of(from), self.node_of(to)) {
            (Some(f), Some(t)) => self.graph.has_edge(f, t),
            _ => false,
        }
    }
}

/// Contract every pass-through node, lowest id first: each pair of a live
/// in-edge and a live out-edge of the node becomes a direct edge — appended
/// to the arena — whose channels are the out-edge's names filtered to those
/// the in-edge provides (no name in common, no edge), and the node's own
/// edges die with it. A spliced edge that touches a later pass-through node
/// joins that node's lists, so chains of pass-throughs resolve in the one
/// sweep; none touches an earlier one, which has no live edge left to pair.
/// Live edges in arena order are exactly what contracting the nodes one at a
/// time, each time rebuilding the graph as survivors-then-splices, would
/// leave.
fn contract_pass_through(nodes: &[WorkNode], edges: &mut Vec<WorkEdge<'_>>) {
    let pass = |n: u32| !matches!(nodes[n as usize], WorkNode::Keep(_));
    // In- and out-edge lists, in arena order, of pass-through nodes only.
    let mut ins: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut outs = ins.clone();
    for (id, e) in edges.iter().enumerate() {
        if pass(e.to) {
            ins[e.to as usize].push(id);
        }
        if pass(e.from) {
            outs[e.from as usize].push(id);
        }
    }
    for v in (0..nodes.len()).filter(|&v| pass(v as u32)) {
        let (mut vin, mut vout) = (std::mem::take(&mut ins[v]), std::mem::take(&mut outs[v]));
        vin.retain(|&e| edges[e].live);
        vout.retain(|&e| edges[e].live);
        for &ie in &vin {
            for &oe in &vout {
                let (ein, eout) = (&edges[ie], &edges[oe]);
                let channels: Vec<&str> =
                    eout.channels.iter().copied().filter(|c| ein.channels.contains(c)).collect();
                if channels.is_empty() {
                    continue;
                }
                let (from, to) = (ein.from, eout.to);
                if pass(to) {
                    ins[to as usize].push(edges.len());
                }
                if pass(from) {
                    outs[from as usize].push(edges.len());
                }
                edges.push(WorkEdge { from, to, channels, live: true });
            }
        }
        for &e in vin.iter().chain(&vout) {
            edges[e].live = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    /// W1: I → M(→W2) → O;  W2: I → A → B → O.
    fn nested() -> (Specification, ExpansionHierarchy, ModuleId, ModuleId, ModuleId) {
        let mut b = SpecBuilder::new("nested");
        let w1 = b.root_workflow("W1");
        let (m, w2) = b.composite(w1, "M", "W2", &[]);
        b.edge(w1, b.input(w1), m, &["x"]);
        b.edge(w1, m, b.output(w1), &["y"]);
        let a = b.atomic(w2, "A", &[]);
        let bb = b.atomic(w2, "B", &[]);
        b.edge(w2, b.input(w2), a, &["x"]);
        b.edge(w2, a, bb, &["mid"]);
        b.edge(w2, bb, b.output(w2), &["y"]);
        let s = b.build().unwrap();
        let h = ExpansionHierarchy::of(&s);
        (s, h, m, a, bb)
    }

    #[test]
    fn root_only_view_keeps_composite_opaque() {
        let (s, h, m, a, _) = nested();
        let v = SpecView::build(&s, &h, &Prefix::root_only(&h)).unwrap();
        assert_eq!(v.visible_modules().collect::<Vec<_>>(), vec![m]);
        assert!(v.is_opaque_composite(&s, m));
        assert!(v.node_of(a).is_none());
        // I → M → O
        assert_eq!(v.graph().node_count(), 3);
        assert_eq!(v.graph().edge_count(), 2);
        assert!(v.graph().reaches(v.input(), v.output()));
    }

    #[test]
    fn full_view_splices_through_pseudo_modules() {
        let (s, h, m, a, bb) = nested();
        let v = SpecView::build(&s, &h, &Prefix::full(&h)).unwrap();
        let mut mods: Vec<ModuleId> = v.visible_modules().collect();
        mods.sort();
        assert_eq!(mods, vec![a, bb]);
        assert!(v.node_of(m).is_none(), "expanded composite disappears");
        // I → A → B → O with channels x, mid, y.
        assert!(v.has_module_edge(a, bb));
        let ia = v.graph().out_edges(v.input());
        assert_eq!(ia.len(), 1);
        assert_eq!(v.graph().edge(ia[0]).payload.channels, vec!["x"]);
        let bo = v.graph().in_edges(v.output());
        assert_eq!(bo.len(), 1);
        assert_eq!(v.graph().edge(bo[0]).payload.channels, vec!["y"]);
        assert!(v.graph().is_dag());
    }

    #[test]
    fn channel_name_selection_filters() {
        // Composite receives channels p, q; inner A consumes only q.
        let mut b = SpecBuilder::new("sel");
        let w1 = b.root_workflow("W1");
        let (m, w2) = b.composite(w1, "M", "W2", &[]);
        b.edge(w1, b.input(w1), m, &["p", "q"]);
        b.edge(w1, m, b.output(w1), &["r"]);
        let a = b.atomic(w2, "A", &[]);
        b.edge(w2, b.input(w2), a, &["q"]);
        b.edge(w2, a, b.output(w2), &["r"]);
        let s = b.build().unwrap();
        let h = ExpansionHierarchy::of(&s);
        let v = SpecView::build(&s, &h, &Prefix::full(&h)).unwrap();
        let _ = m;
        let na = v.node_of(s.find_module("A").unwrap().id).unwrap();
        let ie = v.graph().in_edges(na);
        assert_eq!(ie.len(), 1);
        assert_eq!(v.graph().edge(ie[0]).payload.channels, vec!["q"]);
    }

    #[test]
    fn fan_in_fan_out_splicing() {
        // Two producers feed a composite; two inner consumers select
        // different channels; verifies the cross-product splice.
        let mut b = SpecBuilder::new("fan");
        let w1 = b.root_workflow("W1");
        let p1 = b.atomic(w1, "P1", &[]);
        let p2 = b.atomic(w1, "P2", &[]);
        let (m, w2) = b.composite(w1, "M", "W2", &[]);
        b.edge(w1, b.input(w1), p1, &["s"]);
        b.edge(w1, b.input(w1), p2, &["t"]);
        b.edge(w1, p1, m, &["u"]);
        b.edge(w1, p2, m, &["v"]);
        b.edge(w1, m, b.output(w1), &["z"]);
        let c1 = b.atomic(w2, "C1", &[]);
        let c2 = b.atomic(w2, "C2", &[]);
        b.edge(w2, b.input(w2), c1, &["u"]);
        b.edge(w2, b.input(w2), c2, &["v"]);
        b.edge(w2, c1, b.output(w2), &["z"]);
        b.edge(w2, c2, b.output(w2), &["z"]);
        let s = b.build().unwrap();
        let h = ExpansionHierarchy::of(&s);
        let v = SpecView::build(&s, &h, &Prefix::full(&h)).unwrap();
        let _ = m;
        let (p1, p2) = (s.find_module("P1").unwrap().id, s.find_module("P2").unwrap().id);
        let (c1, c2) = (s.find_module("C1").unwrap().id, s.find_module("C2").unwrap().id);
        assert!(v.has_module_edge(p1, c1));
        assert!(v.has_module_edge(p2, c2));
        assert!(!v.has_module_edge(p1, c2), "channel names keep flows apart");
        assert!(!v.has_module_edge(p2, c1));
    }

    #[test]
    fn intermediate_prefix() {
        // Three levels: W1 → W2 → W3; prefix {W1, W2} expands the first
        // composite only.
        let mut b = SpecBuilder::new("deep");
        let w1 = b.root_workflow("W1");
        let (m1, w2) = b.composite(w1, "M1", "W2", &[]);
        b.edge(w1, b.input(w1), m1, &["x"]);
        b.edge(w1, m1, b.output(w1), &["y"]);
        let (m2, w3) = b.composite(w2, "M2", "W3", &[]);
        b.edge(w2, b.input(w2), m2, &["x"]);
        b.edge(w2, m2, b.output(w2), &["y"]);
        let a = b.atomic(w3, "A", &[]);
        b.edge(w3, b.input(w3), a, &["x"]);
        b.edge(w3, a, b.output(w3), &["y"]);
        let s = b.build().unwrap();
        let h = ExpansionHierarchy::of(&s);
        let p = Prefix::from_workflows(&h, [w1, w2]).unwrap();
        let v = SpecView::build(&s, &h, &p).unwrap();
        assert_eq!(v.visible_modules().collect::<Vec<_>>(), vec![m2]);
        assert!(v.is_opaque_composite(&s, m2));
        let _ = w3;
    }
}
