//! `SpecView::build` against the construction it replaced.
//!
//! The build used to index work nodes through a `HashMap<WorkNode, u32>` and
//! contract pass-through points one at a time, rebuilding the whole work
//! graph (and cloning every edge's channel strings) per contracted node. It
//! now numbers work nodes through dense per-module / per-workflow tables and
//! contracts every pass-through point in one pass over an edge arena. The
//! old construction is kept here, verbatim over the public API, as the
//! oracle: for `genspec` specifications of every shape the benchmarks use
//! (default, `sized`, and E1's `deep_spec` at depths 1–4) and every
//! parent-closed prefix of each, the two must agree on the prefix, the node
//! numbering, the input / output / per-module node lookups, and the edge
//! list with its channel lists — in the oracle's own edge order, which is
//! stronger than the multiset the view's consumers rely on.
//!
//! The oracle lives in this file rather than behind `#[cfg(test)]` in
//! `expand.rs` because `ppwf-workloads` depends on `ppwf-model`: a unit test
//! inside the crate would see `genspec`'s `Specification` as a foreign type.

use ppwf_model::expand::{SpecView, ViewEdge, ViewNode};
use ppwf_model::graph::DiGraph;
use ppwf_model::hierarchy::{ExpansionHierarchy, Prefix};
use ppwf_model::ids::{ModuleId, WorkflowId};
use ppwf_model::spec::{ModuleKind, Specification};
use ppwf_workloads::genspec::{generate_spec, SpecParams};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum WorkNode {
    Keep(ViewNode),
    PassIn(WorkflowId),
    PassOut(WorkflowId),
}

/// The view graph as the replaced `SpecView::build` produced it.
fn oracle_view(spec: &Specification, prefix: &Prefix) -> DiGraph<ViewNode, ViewEdge> {
    let mut g: DiGraph<WorkNode, ViewEdge> = DiGraph::new();
    let mut idx: HashMap<WorkNode, u32> = HashMap::new();
    let add = |g: &mut DiGraph<WorkNode, ViewEdge>,
               idx: &mut HashMap<WorkNode, u32>,
               n: WorkNode| { *idx.entry(n).or_insert_with(|| g.add_node(n)) };
    let root = spec.root();
    add(&mut g, &mut idx, WorkNode::Keep(ViewNode::Input));
    add(&mut g, &mut idx, WorkNode::Keep(ViewNode::Output));
    let src_node = |m: ModuleId, w: WorkflowId| -> WorkNode {
        if m == spec.workflow(w).input {
            if w == root {
                WorkNode::Keep(ViewNode::Input)
            } else {
                WorkNode::PassIn(w)
            }
        } else if let ModuleKind::Composite(sub) = spec.module(m).kind {
            if prefix.contains(sub) {
                WorkNode::PassOut(sub)
            } else {
                WorkNode::Keep(ViewNode::Module(m))
            }
        } else {
            WorkNode::Keep(ViewNode::Module(m))
        }
    };
    let dst_node = |m: ModuleId, w: WorkflowId| -> WorkNode {
        if m == spec.workflow(w).output {
            if w == root {
                WorkNode::Keep(ViewNode::Output)
            } else {
                WorkNode::PassOut(w)
            }
        } else if let ModuleKind::Composite(sub) = spec.module(m).kind {
            if prefix.contains(sub) {
                WorkNode::PassIn(sub)
            } else {
                WorkNode::Keep(ViewNode::Module(m))
            }
        } else {
            WorkNode::Keep(ViewNode::Module(m))
        }
    };
    for w in prefix.workflows() {
        for &eid in &spec.workflow(w).edges {
            let e = spec.edge(eid);
            let fi = add(&mut g, &mut idx, src_node(e.from, w));
            let ti = add(&mut g, &mut idx, dst_node(e.to, w));
            g.add_edge(fi, ti, ViewEdge { channels: e.channels.clone() });
        }
    }
    let g = oracle_contract_pass_through(g);
    g.map(
        |_, n| match n {
            WorkNode::Keep(v) => *v,
            _ => unreachable!("pass-through nodes were contracted"),
        },
        |_, e| e.payload.clone(),
    )
}

/// The replaced contraction: remove the first pass-through node, rebuild
/// the graph around it, repeat until none is left.
fn oracle_contract_pass_through(g: DiGraph<WorkNode, ViewEdge>) -> DiGraph<WorkNode, ViewEdge> {
    let mut g = g;
    loop {
        let Some(victim) = g
            .nodes()
            .find(|(_, n)| matches!(n, WorkNode::PassIn(_) | WorkNode::PassOut(_)))
            .map(|(i, _)| i)
        else {
            return g;
        };
        let mut ng: DiGraph<WorkNode, ViewEdge> = DiGraph::new();
        let mut map: Vec<Option<u32>> = vec![None; g.node_count()];
        for (i, n) in g.nodes() {
            if i != victim {
                map[i as usize] = Some(ng.add_node(*n));
            }
        }
        for (_, e) in g.edges() {
            if e.from != victim && e.to != victim {
                ng.add_edge(
                    map[e.from as usize].unwrap(),
                    map[e.to as usize].unwrap(),
                    e.payload.clone(),
                );
            }
        }
        for &ie in g.in_edges(victim) {
            let ein = g.edge(ie);
            for &oe in g.out_edges(victim) {
                let eout = g.edge(oe);
                let channels: Vec<String> = eout
                    .payload
                    .channels
                    .iter()
                    .filter(|c| ein.payload.channels.iter().any(|d| d == *c))
                    .cloned()
                    .collect();
                if !channels.is_empty() {
                    ng.add_edge(
                        map[ein.from as usize].unwrap(),
                        map[eout.to as usize].unwrap(),
                        ViewEdge { channels },
                    );
                }
            }
        }
        g = ng;
    }
}

/// Every parent-closed workflow set containing the root, coarsest first,
/// capped at `cap` (wide hierarchies have exponentially many); the full
/// prefix is always among them.
fn parent_closed_prefixes(h: &ExpansionHierarchy, cap: usize) -> Vec<Prefix> {
    let mut sets: Vec<Vec<WorkflowId>> = vec![vec![h.root()]];
    for w in h.preorder().into_iter().skip(1) {
        let parent = h.parent(w).expect("non-root workflow has a parent");
        let grown: Vec<_> = sets
            .iter()
            .filter(|set| set.contains(&parent))
            .take(cap.saturating_sub(sets.len()))
            .map(|set| set.iter().copied().chain([w]).collect())
            .collect();
        sets.extend(grown);
    }
    let mut prefixes: Vec<Prefix> =
        sets.into_iter().map(|set| Prefix::from_workflows(h, set).unwrap()).collect();
    let full = Prefix::full(h);
    if !prefixes.contains(&full) {
        prefixes.push(full);
    }
    prefixes
}

/// The shapes the benchmarks generate: `populated_repo`'s default,
/// `sized_spec`, and `ppwf_bench::deep_spec` (E1's depth sweep).
fn shaped_spec(seed: u64, shape: u8) -> Specification {
    let params = match shape {
        0 => SpecParams { seed, ..SpecParams::default() },
        1 => SpecParams::sized(seed, 10 + (seed % 90) as usize),
        depth => SpecParams {
            seed,
            modules_per_workflow: (3, 5),
            composite_fraction: 0.5,
            max_depth: u32::from(depth) - 1,
            max_workflows: usize::from(depth) * 4,
            ..SpecParams::default()
        },
    };
    generate_spec(&params)
}

type EdgeBits = Vec<(u32, u32, Vec<String>)>;

fn edges_of(g: &DiGraph<ViewNode, ViewEdge>) -> EdgeBits {
    g.edges().map(|(_, e)| (e.from, e.to, e.payload.channels.clone())).collect()
}

fn check(spec: &Specification, cap: usize) -> Result<usize, TestCaseError> {
    let h = ExpansionHierarchy::of(spec);
    let prefixes = parent_closed_prefixes(&h, cap);
    for prefix in &prefixes {
        let view = SpecView::build(spec, &h, prefix).unwrap();
        let oracle = oracle_view(spec, prefix);
        prop_assert_eq!(view.prefix(), prefix);
        let nodes: Vec<ViewNode> = view.graph().nodes().map(|(_, n)| *n).collect();
        let expect: Vec<ViewNode> = oracle.nodes().map(|(_, n)| *n).collect();
        prop_assert_eq!(&nodes, &expect, "node numbering under {:?}", prefix);
        prop_assert_eq!(edges_of(view.graph()), edges_of(&oracle), "edges under {:?}", prefix);
        prop_assert_eq!(nodes[view.input() as usize], ViewNode::Input);
        prop_assert_eq!(nodes[view.output() as usize], ViewNode::Output);
        for m in spec.modules() {
            let expect = nodes.iter().position(|n| *n == ViewNode::Module(m.id));
            prop_assert_eq!(view.node_of(m.id).map(|n| n as usize), expect, "node_of {:?}", m.id);
        }
    }
    Ok(prefixes.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shapes 2–5 are `deep_spec` at depths 1–4.
    #[test]
    fn one_pass_build_equals_the_repeated_contraction(seed in any::<u64>(), shape in 0u8..6) {
        let spec = shaped_spec(seed, shape);
        let checked = check(&spec, 96)?;
        prop_assert!(checked >= 1);
    }
}

/// The property is not vacuous: the default shape yields nested expansions
/// (chains of pass-through points) and many prefixes per spec.
#[test]
fn generated_hierarchies_are_deep_and_wide_enough() {
    let (mut deepest, mut most) = (0, 0);
    for seed in 0..32 {
        let spec = shaped_spec(seed, 5);
        let h = ExpansionHierarchy::of(&spec);
        deepest = deepest.max(h.max_depth());
        most = most.max(parent_closed_prefixes(&h, 96).len());
    }
    assert!(deepest >= 3, "deepest hierarchy: {deepest}");
    assert!(most >= 32, "most prefixes: {most}");
}
