//! Rendering of specifications and views as Graphviz DOT, and of
//! executions as compact ASCII listings.
//!
//! The figure-reproduction examples print these renderings so that the
//! regenerated Figures 1–5 can be compared with the paper by eye; the
//! listings are also handy in test failure output.

use crate::exec::Execution;
use crate::expand::SpecView;
use crate::hierarchy::ExpansionHierarchy;
use crate::ids::{paper_data_label, paper_proc_label};
use crate::spec::{ModuleKind, Specification};
use std::fmt::Write as _;

/// Render one workflow of a specification as DOT (subworkflows referenced by
/// name on composite modules, matching the τ-edge presentation of Fig. 1).
pub fn spec_workflow_dot(spec: &Specification, w: crate::ids::WorkflowId) -> String {
    let wf = spec.workflow(w);
    let mut s = String::new();
    let _ = writeln!(s, "digraph \"{}\" {{", wf.name);
    let _ = writeln!(s, "  rankdir=TB;");
    for &m in &wf.modules {
        let module = spec.module(m);
        let (shape, label) = match module.kind {
            ModuleKind::Input => ("circle", "I".to_string()),
            ModuleKind::Output => ("circle", "O".to_string()),
            ModuleKind::Atomic => ("box", format!("{}\\n{}", module.code, module.name)),
            ModuleKind::Composite(sub) => (
                "box3d",
                format!("{}\\n{} [τ→ {}]", module.code, module.name, spec.workflow(sub).name),
            ),
        };
        let _ = writeln!(s, "  m{} [shape={shape}, label=\"{label}\"];", m.index());
    }
    for &e in &wf.edges {
        let edge = spec.edge(e);
        let _ = writeln!(
            s,
            "  m{} -> m{} [label=\"{}\"];",
            edge.from.index(),
            edge.to.index(),
            edge.channels.join(", ")
        );
    }
    let _ = writeln!(s, "}}");
    s
}

/// Render the whole specification: one DOT digraph per workflow, in
/// hierarchy preorder.
pub fn spec_dot(spec: &Specification) -> String {
    let h = ExpansionHierarchy::of(spec);
    h.preorder().into_iter().map(|w| spec_workflow_dot(spec, w)).collect::<Vec<_>>().join("\n")
}

/// Render the expansion hierarchy (Fig. 3) as an ASCII tree.
pub fn hierarchy_ascii(spec: &Specification, h: &ExpansionHierarchy) -> String {
    let mut out = String::new();
    fn rec(
        spec: &Specification,
        h: &ExpansionHierarchy,
        w: crate::ids::WorkflowId,
        depth: usize,
        out: &mut String,
    ) {
        let _ = writeln!(out, "{}{}", "  ".repeat(depth), spec.workflow(w).name);
        for &c in h.children(w) {
            rec(spec, h, c, depth + 1, out);
        }
    }
    rec(spec, h, h.root(), 0, &mut out);
    out
}

/// Render a flattened specification view as DOT (used for Figures 1 and 5).
pub fn view_dot(spec: &Specification, view: &SpecView) -> String {
    let g = view.graph();
    let mut s = String::new();
    let _ = writeln!(s, "digraph view {{");
    let _ = writeln!(s, "  rankdir=TB;");
    for (i, n) in g.nodes() {
        let label = match n {
            crate::expand::ViewNode::Input => "I".to_string(),
            crate::expand::ViewNode::Output => "O".to_string(),
            crate::expand::ViewNode::Module(m) => {
                let module = spec.module(*m);
                format!("{}\\n{}", module.code, module.name)
            }
        };
        let _ = writeln!(s, "  n{i} [shape=box, label=\"{label}\"];");
    }
    for (_, e) in g.edges() {
        let _ = writeln!(
            s,
            "  n{} -> n{} [label=\"{}\"];",
            e.from,
            e.to,
            e.payload.channels.join(", ")
        );
    }
    let _ = writeln!(s, "}}");
    s
}

/// A compact, sorted text listing of an execution's edges
/// (`"I -> S1:M1 begin  {d0,d1}"`), convenient for figure tests and diffs.
pub fn execution_listing(spec: &Specification, exec: &Execution) -> String {
    let mut lines: Vec<String> = exec
        .edge_triples()
        .map(|(f, t, data)| {
            let d = data.iter().map(|&x| paper_data_label(x)).collect::<Vec<_>>().join(",");
            format!("{} -> {}  {{{d}}}", exec.node_label(spec, f), exec.node_label(spec, t))
        })
        .collect();
    lines.sort();
    lines.join("\n")
}

/// A listing of all processes with their paper labels (`S1 = M1`, ...).
pub fn proc_listing(spec: &Specification, exec: &Execution) -> String {
    exec.procs()
        .map(|p| format!("{} = {}", paper_proc_label(p.id), spec.module(p.module).code))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, HashOracle};
    use crate::hierarchy::Prefix;
    use crate::spec::SpecBuilder;

    fn nested() -> Specification {
        let mut b = SpecBuilder::new("nested");
        let w1 = b.root_workflow("W1");
        let (m, w2) = b.composite(w1, "Outer", "W2", &[]);
        b.edge(w1, b.input(w1), m, &["x"]);
        b.edge(w1, m, b.output(w1), &["y"]);
        let a = b.atomic(w2, "Inner", &[]);
        b.edge(w2, b.input(w2), a, &["x"]);
        b.edge(w2, a, b.output(w2), &["y"]);
        b.build().unwrap()
    }

    #[test]
    fn spec_dot_mentions_tau_expansion() {
        let s = nested();
        let dot = spec_dot(&s);
        assert!(dot.contains("τ→ W2"));
        assert!(dot.contains("digraph \"W1\""));
        assert!(dot.contains("digraph \"W2\""));
        assert!(dot.contains("label=\"x\""));
    }

    #[test]
    fn hierarchy_tree_indented() {
        let s = nested();
        let h = ExpansionHierarchy::of(&s);
        let tree = hierarchy_ascii(&s, &h);
        assert_eq!(tree, "W1\n  W2\n");
    }

    #[test]
    fn view_dot_renders_both_granularities() {
        let s = nested();
        let h = ExpansionHierarchy::of(&s);
        let coarse = SpecView::build(&s, &h, &Prefix::root_only(&h)).unwrap();
        let fine = SpecView::build(&s, &h, &Prefix::full(&h)).unwrap();
        assert!(view_dot(&s, &coarse).contains("Outer"));
        assert!(!view_dot(&s, &fine).contains("Outer"), "expanded composite hidden");
        assert!(view_dot(&s, &fine).contains("Inner"));
    }

    #[test]
    fn execution_outputs_paper_labels() {
        let s = nested();
        let exec = Executor::new(&s).run(&mut HashOracle).unwrap();
        let listing = execution_listing(&s, &exec);
        assert!(listing.contains("I -> S1:M1 begin  {d0}"));
        let procs = proc_listing(&s, &exec);
        assert!(procs.contains("S1 = M1"));
        assert!(procs.contains("S2 = M2"));
    }
}
