//! Applying a prefix view to an execution — the paper's Fig. 4 → Fig. 2
//! simplification ("*Using the view defined by prefix {W1}, the execution of
//! Fig. 4 would be simplified to that in Fig. 2*").
//!
//! Every composite module execution whose expansion lies outside the prefix
//! collapses — begin node, end node and the entire subexecution between them
//! — into a single node labeled with the composite's process id (`S1:M1`).
//! Edges crossing the collapse boundary survive with their data items;
//! everything strictly inside disappears, and with it the intermediate data
//! (this is what makes access views a data-hiding mechanism).

use ppwf_model::exec::{ExecNodeKind, Execution};
use ppwf_model::graph::DiGraph;
use ppwf_model::hierarchy::{ExpansionHierarchy, Prefix};
use ppwf_model::ids::{DataId, ModuleId, NodeId, ProcId};
use ppwf_model::spec::Specification;
use ppwf_model::{ModelError, Result};
use std::collections::HashMap;

/// A node of a collapsed execution view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecViewNode {
    /// The execution's start node.
    Input,
    /// The execution's end node.
    Output,
    /// A visible original node (atomic execution, or begin/end of a
    /// composite that *is* expanded in the view).
    Kept(NodeId),
    /// A collapsed composite module execution (process id retained).
    Collapsed(ProcId, ModuleId),
}

/// Edge payload of an execution view: the union of the data items on the
/// original edges it represents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecViewEdge {
    /// Visible data items, ascending.
    pub data: Vec<DataId>,
}

/// An execution collapsed under a hierarchy prefix.
#[derive(Clone, Debug)]
pub struct ExecView {
    prefix: Prefix,
    graph: DiGraph<ExecViewNode, ExecViewEdge>,
    input: u32,
    output: u32,
    /// Data items that remain visible on view edges.
    visible_data: Vec<DataId>,
    /// Data items hidden inside collapsed composites.
    hidden_data: Vec<DataId>,
    node_of_proc: HashMap<ProcId, u32>,
}

impl ExecView {
    /// Collapse `exec` under `prefix`.
    pub fn build(
        spec: &Specification,
        h: &ExpansionHierarchy,
        exec: &Execution,
        prefix: &Prefix,
    ) -> Result<Self> {
        prefix.validate(h)?;
        let g = exec.graph();

        // Representative of a module under the prefix: `None` → the module
        // is fully visible (atomic, or composite whose expansion is in the
        // prefix); `Some(c)` → everything belonging to it collapses into
        // composite `c`.
        let repr = |m: ModuleId| -> Option<ModuleId> {
            // Walk the composite ancestry from m's own workflow upward to
            // find the outermost ancestor whose *own* workflow is visible
            // but whose expansion is not.
            let mut candidate: Option<ModuleId> = None;
            let mut cur = m;
            loop {
                let w = spec.module(cur).workflow;
                if !prefix.contains(w) {
                    // cur is invisible: its enclosing composite must absorb
                    // it; keep walking up.
                    match spec.defining_module(w) {
                        Some(parent) => {
                            candidate = Some(parent);
                            cur = parent;
                        }
                        None => {
                            unreachable!("root workflow is always in a prefix")
                        }
                    }
                } else {
                    break;
                }
            }
            // `cur` is visible. If we never walked, m itself may still be a
            // collapsed composite (visible but unexpanded).
            if candidate.is_none() {
                if let Some(sub) = spec.module(m).kind.expansion() {
                    if !prefix.contains(sub) {
                        return Some(m);
                    }
                }
                return None;
            }
            candidate
        };

        let mut out: DiGraph<ExecViewNode, ExecViewEdge> = DiGraph::new();
        let mut node_map: Vec<u32> = vec![u32::MAX; g.node_count()];
        let mut collapsed_node: HashMap<ModuleId, u32> = HashMap::new();
        let mut node_of_proc: HashMap<ProcId, u32> = HashMap::new();
        let (mut vin, mut vout) = (0u32, 0u32);

        for (i, n) in g.nodes() {
            let vn = match n.kind {
                ExecNodeKind::Input => {
                    let id = out.add_node(ExecViewNode::Input);
                    vin = id;
                    id
                }
                ExecNodeKind::Output => {
                    let id = out.add_node(ExecViewNode::Output);
                    vout = id;
                    id
                }
                ExecNodeKind::Atomic(m) | ExecNodeKind::Begin(m) | ExecNodeKind::End(m) => {
                    match repr(m) {
                        None => {
                            let id = out.add_node(ExecViewNode::Kept(NodeId::new(i as usize)));
                            if let Some(p) = n.proc {
                                node_of_proc.entry(p).or_insert(id);
                            }
                            id
                        }
                        Some(c) => *collapsed_node.entry(c).or_insert_with(|| {
                            let p = exec.proc_of(c).ok_or(()).unwrap_or_else(|_| {
                                // Composite must have executed; defensive.
                                panic!("composite {c} has no process in execution")
                            });
                            let id = out.add_node(ExecViewNode::Collapsed(p, c));
                            node_of_proc.insert(p, id);
                            id
                        }),
                    }
                }
            };
            node_map[i as usize] = vn;
        }

        // Edges: merge parallel survivors, drop internal ones.
        let mut edge_index: HashMap<(u32, u32), u32> = HashMap::new();
        for (_, e) in g.edges() {
            let f = node_map[e.from as usize];
            let t = node_map[e.to as usize];
            if f == t {
                continue; // internal to a collapsed composite
            }
            let ei = *edge_index
                .entry((f, t))
                .or_insert_with(|| out.add_edge(f, t, ExecViewEdge::default()));
            out.edge_payload_mut(ei).data.extend(e.payload.data.iter().copied());
        }
        let mut visible = ppwf_model::bitset::BitSet::new(exec.data_count());
        for (_, e) in out.edges() {
            for &d in &e.payload.data {
                visible.insert(d.index());
            }
        }
        for ei in 0..out.edge_count() as u32 {
            let data = &mut out.edge_payload_mut(ei).data;
            data.sort();
            data.dedup();
        }

        let visible_data: Vec<DataId> = visible.iter().map(DataId::new).collect();
        let hidden_data: Vec<DataId> =
            (0..exec.data_count()).filter(|&i| !visible.contains(i)).map(DataId::new).collect();

        if !out.is_dag() {
            return Err(ModelError::invalid(
                "collapsed execution is cyclic — prefix does not respect nesting",
            ));
        }
        Ok(ExecView {
            prefix: prefix.clone(),
            graph: out,
            input: vin,
            output: vout,
            visible_data,
            hidden_data,
            node_of_proc,
        })
    }

    /// The prefix that defines this view.
    pub fn prefix(&self) -> &Prefix {
        &self.prefix
    }

    /// The collapsed graph.
    pub fn graph(&self) -> &DiGraph<ExecViewNode, ExecViewEdge> {
        &self.graph
    }

    /// The view's input node index.
    pub fn input(&self) -> u32 {
        self.input
    }

    /// The view's output node index.
    pub fn output(&self) -> u32 {
        self.output
    }

    /// Data items visible on view edges (ascending).
    pub fn visible_data(&self) -> &[DataId] {
        &self.visible_data
    }

    /// Data items hidden inside collapsed composites (ascending).
    pub fn hidden_data(&self) -> &[DataId] {
        &self.hidden_data
    }

    /// The view node representing process `p`, if `p` is visible (either
    /// kept or as a collapsed composite).
    pub fn node_of_proc(&self, p: ProcId) -> Option<u32> {
        self.node_of_proc.get(&p).copied()
    }

    /// Data on the view edge `from → to` (node indices of the view graph).
    pub fn data_between(&self, from: u32, to: u32) -> Option<&[DataId]> {
        self.graph
            .out_edges(from)
            .iter()
            .find(|&&e| self.graph.edge(e).to == to)
            .map(|&e| self.graph.edge(e).payload.data.as_slice())
    }

    /// Paper-style node label (`"I"`, `"S1:M1"`, `"S2:M3"`).
    pub fn node_label(&self, spec: &Specification, exec: &Execution, n: u32) -> String {
        match self.graph.node(n) {
            ExecViewNode::Input => "I".into(),
            ExecViewNode::Output => "O".into(),
            ExecViewNode::Kept(orig) => exec.node_label(spec, *orig),
            ExecViewNode::Collapsed(p, m) => {
                format!("S{}:{}", p.index() + 1, spec.module(*m).code)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_model::exec::Execution;
    use ppwf_model::fixtures;
    use ppwf_model::hierarchy::{ExpansionHierarchy, Prefix};
    use ppwf_model::ids::WorkflowId;

    fn paper() -> (Specification, ExpansionHierarchy, Execution) {
        let (spec, _m) = fixtures::disease_susceptibility();
        let h = ExpansionHierarchy::of(&spec);
        let exec = fixtures::disease_susceptibility_execution(&spec);
        (spec, h, exec)
    }

    /// Fig. 2 — the view of the Fig. 4 execution under prefix {W1}.
    #[test]
    fn fig2_root_prefix_view() {
        let (spec, h, exec) = paper();
        let v = ExecView::build(&spec, &h, &exec, &Prefix::root_only(&h)).unwrap();
        // Exactly I, S1:M1, S8:M2, O.
        assert_eq!(v.graph().node_count(), 4);
        assert_eq!(v.graph().edge_count(), 4);
        let labels: Vec<String> =
            v.graph().node_ids().map(|n| v.node_label(&spec, &exec, n)).collect();
        assert!(labels.contains(&"I".to_string()));
        assert!(labels.contains(&"S1:M1".to_string()));
        assert!(labels.contains(&"S8:M2".to_string()));
        assert!(labels.contains(&"O".to_string()));

        let m = fixtures::handles(&spec);
        let n_m1 = v.node_of_proc(exec.proc_of(m.m1).unwrap()).unwrap();
        let n_m2 = v.node_of_proc(exec.proc_of(m.m2).unwrap()).unwrap();
        let d = |i: usize| DataId::new(i);
        assert_eq!(v.data_between(v.input(), n_m1).unwrap(), &[d(0), d(1)]);
        assert_eq!(v.data_between(v.input(), n_m2).unwrap(), &[d(2), d(3), d(4)]);
        assert_eq!(v.data_between(n_m1, n_m2).unwrap(), &[d(10)]);
        assert_eq!(v.data_between(n_m2, v.output()).unwrap(), &[d(19)]);

        // Visible: d0–d4, d10, d19; hidden: the other 13 items.
        assert_eq!(v.visible_data(), &[d(0), d(1), d(2), d(3), d(4), d(10), d(19)]);
        assert_eq!(v.hidden_data().len(), 13);
    }

    #[test]
    fn full_prefix_view_is_lossless() {
        let (spec, h, exec) = paper();
        let v = ExecView::build(&spec, &h, &exec, &Prefix::full(&h)).unwrap();
        assert_eq!(v.graph().node_count(), exec.graph().node_count());
        assert_eq!(v.graph().edge_count(), exec.graph().edge_count());
        assert_eq!(v.hidden_data().len(), 0);
        assert_eq!(v.visible_data().len(), exec.data_count());
    }

    #[test]
    fn intermediate_prefix_w1_w2() {
        // Prefix {W1, W2}: M1 expands (so M3, M4, M8 are visible; M4 stays a
        // collapsed composite since W4 ∉ prefix), M2 stays collapsed.
        let (spec, h, exec) = paper();
        let m = fixtures::handles(&spec);
        let p = Prefix::from_workflows(&h, [WorkflowId::new(0), WorkflowId::new(1)]).unwrap();
        let v = ExecView::build(&spec, &h, &exec, &p).unwrap();
        // Nodes: I, O, M1 begin, M1 end, M3, M4 (collapsed), M8, M2 (collapsed) = 8.
        assert_eq!(v.graph().node_count(), 8);
        let n_m4 = v.node_of_proc(exec.proc_of(m.m4).unwrap()).unwrap();
        assert!(matches!(v.graph().node(n_m4), ExecViewNode::Collapsed(_, mm) if *mm == m.m4));
        let label = v.node_label(&spec, &exec, n_m4);
        assert_eq!(label, "S3:M4");
        // d6, d7 (strictly inside W4) and d11..d18 (inside W3) are hidden;
        // d5 is visible on M3 → M4, and d8, d9 stay visible because they
        // ride the boundary edge S3:M4 → S7:M8.
        let hidden: Vec<usize> = v.hidden_data().iter().map(|d| d.index()).collect();
        assert_eq!(hidden, vec![6, 7, 11, 12, 13, 14, 15, 16, 17, 18]);
        let n_m8 = v.node_of_proc(exec.proc_of(m.m8).unwrap()).unwrap();
        assert_eq!(v.data_between(n_m4, n_m8).unwrap(), &[DataId::new(8), DataId::new(9)]);
    }

    #[test]
    fn kept_nodes_reference_original_execution() {
        let (spec, h, exec) = paper();
        let m = fixtures::handles(&spec);
        let p = Prefix::from_workflows(&h, [WorkflowId::new(0), WorkflowId::new(1)]).unwrap();
        let v = ExecView::build(&spec, &h, &exec, &p).unwrap();
        let n_m3 = v.node_of_proc(exec.proc_of(m.m3).unwrap()).unwrap();
        match v.graph().node(n_m3) {
            ExecViewNode::Kept(orig) => {
                assert_eq!(exec.node_label(&spec, *orig), "S2:M3");
            }
            other => panic!("expected kept node, got {other:?}"),
        }
    }

    #[test]
    fn view_preserves_boundary_reachability() {
        // Collapsing never disconnects input from output.
        let (spec, h, exec) = paper();
        for p in [
            Prefix::root_only(&h),
            Prefix::full(&h),
            Prefix::from_workflows(&h, [WorkflowId::new(0), WorkflowId::new(2)]).unwrap(),
        ] {
            let v = ExecView::build(&spec, &h, &exec, &p).unwrap();
            assert!(v.graph().reaches(v.input(), v.output()));
        }
    }
}
