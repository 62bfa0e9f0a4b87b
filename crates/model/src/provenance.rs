//! Provenance of data items (Sec. 2 of the paper).
//!
//! *"The provenance of a data item `d` in an execution `E` is the subgraph
//! induced by the set of paths from the start node to the end node of `E`
//! that produced `d` as output."*
//!
//! Operationally we compute, for a data item `d`, the backward dependency
//! closure from `d`'s producer: every node and edge that lies on a dataflow
//! path from the execution's input node to the producer, together with the
//! data items carried on those edges. The module also provides downstream
//! impact analysis (the paper's "what downstream data might have been
//! affected" debugging query) as the forward closure.

use crate::bitset::BitSet;
use crate::exec::Execution;
use crate::ids::{DataId, NodeId};

/// A provenance (or impact) subgraph of an execution: node, edge and data
/// subsets of the owning [`Execution`].
#[derive(Clone, Debug)]
pub struct ProvenanceGraph {
    /// The data item whose provenance/impact this is.
    pub focus: DataId,
    /// Nodes of the subgraph (indices into the execution graph).
    pub nodes: Vec<NodeId>,
    /// Edges of the subgraph (dense edge indices into the execution graph).
    pub edges: Vec<u32>,
    /// Data items visible in the subgraph.
    pub data: Vec<DataId>,
}

impl ProvenanceGraph {
    /// Whether the subgraph contains a data item.
    pub fn contains_data(&self, d: DataId) -> bool {
        self.data.binary_search(&d).is_ok()
    }
}

/// Compute the provenance of `d`: the induced subgraph of all
/// input-to-producer paths, plus the data flowing on them.
///
/// The dependency model is the conservative dataflow one used throughout the
/// paper: a produced item depends on every item in its producer's input
/// pool, and forwarding nodes preserve dependencies.
pub fn provenance_of(exec: &Execution, d: DataId) -> ProvenanceGraph {
    let g = exec.graph();
    let producer = exec.data(d).producer;
    // Nodes on a path I → producer = reachable-from-input ∩ reaching-producer.
    let mut on_path = g.reaching_to(producer.index() as u32);
    on_path.intersect_with(&g.reachable_from(exec.input().index() as u32));

    collect(exec, on_path, d)
}

/// Compute the downstream impact of `d` — the paper's *"what downstream
/// data might have been affected"* debugging query.
///
/// Unlike [`provenance_of`], which follows the paper's node-path definition,
/// impact is computed at *item* granularity: a module execution is affected
/// iff an affected item actually arrives on one of its in-edges, and only
/// the outputs of affected producers become affected in turn. Sibling
/// outputs of `d`'s own producer are **not** affected (they do not depend on
/// `d`), and branches fed by different items of a shared upstream producer
/// stay clean.
pub fn impact_of(exec: &Execution, d: DataId) -> ProvenanceGraph {
    let g = exec.graph();
    let producer = exec.data(d).producer;
    let order = g.topo_order().expect("execution graphs are DAGs");

    let mut affected_items = BitSet::new(exec.data_count());
    affected_items.insert(d.index());
    let mut affected_nodes = BitSet::new(g.node_count());
    affected_nodes.insert(producer.index());

    for &u in &order {
        let incoming = g
            .in_edges(u)
            .iter()
            .any(|&e| g.edge(e).payload.data.iter().any(|x| affected_items.contains(x.index())));
        if incoming {
            affected_nodes.insert(u as usize);
            // Affected producers taint every item they create (all items on
            // their out-edges are theirs); forwarders forward identities, so
            // their out-edges need no new marking.
            if g.node(u).kind.is_producer() {
                for &e in g.out_edges(u) {
                    for &x in &g.edge(e).payload.data {
                        affected_items.insert(x.index());
                    }
                }
            }
        }
    }

    let mut nodes: Vec<NodeId> = affected_nodes.iter().map(NodeId::new).collect();
    nodes.sort();
    let mut edges = Vec::new();
    let mut data: Vec<DataId> = affected_items.iter().map(DataId::new).collect();
    for (i, e) in g.edges() {
        if e.payload.data.iter().any(|x| affected_items.contains(x.index())) {
            edges.push(i);
        }
    }
    data.sort();
    ProvenanceGraph { focus: d, nodes, edges, data }
}

fn collect(exec: &Execution, on_path: BitSet, focus: DataId) -> ProvenanceGraph {
    let g = exec.graph();
    let mut nodes: Vec<NodeId> = on_path.iter().map(NodeId::new).collect();
    nodes.sort();
    let mut edges = Vec::new();
    let mut data = Vec::new();
    // The focus item is the subgraph's output: it flows on edges *leaving*
    // the producer, so it would not be picked up by the edge scan below.
    data.push(focus);
    for (i, e) in g.edges() {
        if on_path.contains(e.from as usize) && on_path.contains(e.to as usize) {
            edges.push(i);
            data.extend(e.payload.data.iter().copied());
        }
    }
    data.sort();
    data.dedup();
    ProvenanceGraph { focus, nodes, edges, data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, HashOracle};
    use crate::spec::SpecBuilder;
    use crate::Specification;

    /// I → A → C → O and I → B → C (diamond-ish with a side feed), plus a
    /// sink D fed by A.
    fn spec() -> Specification {
        let mut b = SpecBuilder::new("prov");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        let bb = b.atomic(w, "B", &[]);
        let c = b.atomic(w, "C", &[]);
        let dd = b.atomic(w, "D", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, b.input(w), bb, &["y"]);
        b.edge(w, a, c, &["u"]);
        b.edge(w, bb, c, &["v"]);
        b.edge(w, a, dd, &["s"]);
        b.edge(w, c, b.output(w), &["z"]);
        b.build().unwrap()
    }

    fn find_data(exec: &Execution, channel: &str) -> DataId {
        exec.data_items().find(|d| d.channel == channel).unwrap().id
    }

    #[test]
    fn provenance_of_final_output_spans_contributors() {
        let s = spec();
        let exec = Executor::new(&s).run(&mut HashOracle).unwrap();
        let z = find_data(&exec, "z");
        let prov = provenance_of(&exec, z);
        // z depends on u, v, x, y but not on s (the sink feed) —
        // wait: s is produced by A which is on the path I→A→C, but the edge
        // A→D is not on any path to C's node, so s must be absent.
        for ch in ["x", "y", "u", "v", "z"] {
            assert!(prov.contains_data(find_data(&exec, ch)), "missing {ch}");
        }
        assert!(!prov.contains_data(find_data(&exec, "s")), "sink feed leaked in");
        // D's node is off-path.
        let d_node = exec.proc(exec.proc_of(s.find_module("D").unwrap().id).unwrap()).begin;
        assert!(!prov.nodes.contains(&d_node));
    }

    #[test]
    fn provenance_of_intermediate_item() {
        let s = spec();
        let exec = Executor::new(&s).run(&mut HashOracle).unwrap();
        let u = find_data(&exec, "u");
        let prov = provenance_of(&exec, u);
        assert!(prov.contains_data(find_data(&exec, "x")));
        assert!(!prov.contains_data(find_data(&exec, "y")), "other branch excluded");
        assert!(!prov.contains_data(find_data(&exec, "z")), "downstream excluded");
    }

    #[test]
    fn impact_is_forward_closure() {
        let s = spec();
        let exec = Executor::new(&s).run(&mut HashOracle).unwrap();
        let x = find_data(&exec, "x");
        let imp = impact_of(&exec, x);
        // x (via A) affects u, s, z — but not y or v's producer B.
        for ch in ["x", "u", "s", "z"] {
            assert!(imp.contains_data(find_data(&exec, ch)), "missing {ch}");
        }
        let b_node = exec.proc(exec.proc_of(s.find_module("B").unwrap().id).unwrap()).begin;
        assert!(!imp.nodes.contains(&b_node));
    }

    #[test]
    fn provenance_through_composite_includes_begin_end() {
        let mut b = SpecBuilder::new("nested");
        let w1 = b.root_workflow("W1");
        let (m, w2) = b.composite(w1, "M", "W2", &[]);
        b.edge(w1, b.input(w1), m, &["x"]);
        b.edge(w1, m, b.output(w1), &["y"]);
        let a = b.atomic(w2, "A", &[]);
        b.edge(w2, b.input(w2), a, &["x"]);
        b.edge(w2, a, b.output(w2), &["y"]);
        let s = b.build().unwrap();
        let exec = Executor::new(&s).run(&mut HashOracle).unwrap();
        let y = exec.data_items().find(|d| d.channel == "y").unwrap().id;
        let prov = provenance_of(&exec, y);
        let mp = exec.proc(exec.proc_of(m).unwrap()).clone();
        assert!(prov.nodes.contains(&mp.begin), "begin lies on the path I → A");
        assert!(
            !prov.nodes.contains(&mp.end),
            "end is downstream of y's producer under lineage semantics"
        );
        let _ = w2;
    }

    #[test]
    fn focus_item_always_included() {
        let s = spec();
        let exec = Executor::new(&s).run(&mut HashOracle).unwrap();
        for item in exec.data_items() {
            let prov = provenance_of(&exec, item.id);
            assert!(prov.contains_data(item.id), "{} missing from own provenance", item.id);
            assert!(prov.nodes.contains(&exec.input()));
        }
    }
}
