//! Structural pattern matching over **executions** (via execution views).
//!
//! [`crate::structural`] matches patterns against specification views; this
//! module evaluates the same patterns against *execution* views, binding
//! pattern nodes to process ids — the literal reading of the paper's
//! *"find executions where Expand SNP Set was executed before Query OMIM"*.
//! Because matching runs on an [`ExecView`], the caller's access view
//! shapes what is matchable: processes collapsed into a composite can only
//! be bound through the composite's identity, exactly like Fig. 2.

use crate::structural::{Pattern, PatternEdge};
use ppwf_model::exec::Execution;
use ppwf_model::ids::ProcId;
use ppwf_model::spec::Specification;
use ppwf_views::exec_view::{ExecView, ExecViewNode};

/// A match over an execution view: pattern-node index → bound process.
pub type ProcBinding = Vec<ProcId>;

/// The module a view node identifiably executes, if any.
fn node_module(
    spec: &Specification,
    exec: &Execution,
    view: &ExecView,
    n: u32,
) -> Option<(ProcId, ppwf_model::ids::ModuleId)> {
    match view.graph().node(n) {
        ExecViewNode::Kept(orig) => {
            let node = exec.graph().node(orig.index() as u32);
            let m = node.kind.module()?;
            let p = node.proc?;
            // A composite's begin/end pair maps to one process; bind at the
            // begin node only to avoid duplicate bindings.
            if let ppwf_model::exec::ExecNodeKind::End(_) = node.kind {
                if exec.proc(p).begin != *orig {
                    return None;
                }
            }
            let _ = spec;
            Some((p, m))
        }
        ExecViewNode::Collapsed(p, m) => Some((*p, *m)),
        _ => None,
    }
}

/// Evaluate `pattern` against an execution view. Edge semantics: a
/// *transitive* pattern edge requires a dataflow path from the source
/// process's (end) node to the target's (begin) node; a *direct* edge
/// requires a single view edge between them.
pub fn match_exec_view(
    spec: &Specification,
    exec: &Execution,
    view: &ExecView,
    pattern: &Pattern,
) -> Vec<ProcBinding> {
    // Collect bindable (view node, proc, module) triples.
    let mut entities: Vec<(u32, ProcId, ppwf_model::ids::ModuleId)> = view
        .graph()
        .node_ids()
        .filter_map(|n| node_module(spec, exec, view, n).map(|(p, m)| (n, p, m)))
        .collect();
    entities.sort_by_key(|&(_, p, _)| p);
    entities.dedup_by_key(|e| e.1);

    let cands: Vec<Vec<(u32, ProcId)>> = pattern
        .nodes
        .iter()
        .map(|nm| {
            entities
                .iter()
                .filter(|&&(_, _, m)| nm.matches(spec, m))
                .map(|&(n, p, _)| (n, p))
                .collect()
        })
        .collect();
    if cands.iter().any(|c| c.is_empty()) {
        return Vec::new();
    }
    let closure = view.graph().transitive_closure();

    // For a kept composite, paths leave from its *end* node; recover it.
    let end_node_of = |p: ProcId, begin_view_node: u32| -> u32 {
        match view.graph().node(begin_view_node) {
            ExecViewNode::Collapsed(..) => begin_view_node,
            ExecViewNode::Kept(_) => {
                let end = exec.proc(p).end;
                view.node_of_proc(p)
                    .filter(|_| exec.proc(p).begin == exec.proc(p).end)
                    .unwrap_or_else(|| {
                        // Distinct begin/end: find the end's view node by
                        // scanning (executions are small relative to query
                        // rate; a map would be premature).
                        view.graph()
                            .node_ids()
                            .find(|&n| {
                                matches!(view.graph().node(n), ExecViewNode::Kept(orig) if *orig == end)
                            })
                            .unwrap_or(begin_view_node)
                    })
            }
            _ => begin_view_node,
        }
    };

    let mut results: Vec<ProcBinding> = Vec::new();
    let mut binding: Vec<Option<(u32, ProcId)>> = vec![None; pattern.nodes.len()];
    /// A partial assignment of pattern slots to `(view node, process)`.
    type Slots = [Option<(u32, ProcId)>];
    fn backtrack(
        i: usize,
        cands: &[Vec<(u32, ProcId)>],
        binding: &mut Vec<Option<(u32, ProcId)>>,
        results: &mut Vec<ProcBinding>,
        check: &dyn Fn(&Slots) -> bool,
    ) {
        if i == cands.len() {
            results.push(binding.iter().map(|b| b.unwrap().1).collect());
            return;
        }
        for &(n, p) in &cands[i] {
            if binding[..i].iter().any(|b| matches!(b, Some((_, q)) if *q == p)) {
                continue;
            }
            binding[i] = Some((n, p));
            if check(binding) {
                backtrack(i + 1, cands, binding, results, check);
            }
            binding[i] = None;
        }
    }
    let check = |binding: &[Option<(u32, ProcId)>]| -> bool {
        pattern.edges.iter().all(|e: &PatternEdge| {
            match (binding.get(e.from).copied().flatten(), binding.get(e.to).copied().flatten()) {
                (Some((na, pa)), Some((nb, _pb))) => {
                    let from = end_node_of(pa, na);
                    if e.transitive {
                        from != nb && closure[from as usize].contains(nb as usize)
                    } else {
                        view.graph().has_edge(from, nb)
                    }
                }
                _ => true,
            }
        })
    };
    backtrack(0, &cands, &mut binding, &mut results, &check);
    results.sort();
    results.dedup();
    results
}

/// Count the executions in which `pattern` matches, each checked on its own
/// view, so executions that differ (e.g. after privacy masking or with
/// failed runs) are counted one by one.
pub fn count_matching(
    spec: &Specification,
    views: &[(Execution, ExecView)],
    pattern: &Pattern,
) -> u64 {
    views
        .iter()
        .filter(|(exec, view)| !match_exec_view(spec, exec, view, pattern).is_empty())
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structural::NodeMatcher;
    use ppwf_model::fixtures;
    use ppwf_model::hierarchy::{ExpansionHierarchy, Prefix};
    use ppwf_model::ids::WorkflowId;

    fn setup() -> (Specification, ExpansionHierarchy, Execution) {
        let (spec, _) = fixtures::disease_susceptibility();
        let h = ExpansionHierarchy::of(&spec);
        let exec = fixtures::disease_susceptibility_execution(&spec);
        (spec, h, exec)
    }

    #[test]
    fn paper_query_binds_processes() {
        let (spec, h, exec) = setup();
        let m = fixtures::handles(&spec);
        let view = ExecView::build(&spec, &h, &exec, &Prefix::full(&h)).unwrap();
        let pattern = Pattern::before(
            NodeMatcher::Phrase("expand snp set".into()),
            NodeMatcher::Phrase("query omim".into()),
        );
        let matches = match_exec_view(&spec, &exec, &view, &pattern);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0], vec![exec.proc_of(m.m3).unwrap(), exec.proc_of(m.m6).unwrap()]);
    }

    #[test]
    fn collapsed_composites_bind_by_identity() {
        // Under {W1}: only S1:M1 and S8:M2 are bindable; the top-level
        // "before" relation between them holds.
        let (spec, h, exec) = setup();
        let m = fixtures::handles(&spec);
        let view = ExecView::build(&spec, &h, &exec, &Prefix::root_only(&h)).unwrap();
        let pattern =
            Pattern::before(NodeMatcher::Code("M1".into()), NodeMatcher::Code("M2".into()));
        let matches = match_exec_view(&spec, &exec, &view, &pattern);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0], vec![exec.proc_of(m.m1).unwrap(), exec.proc_of(m.m2).unwrap()]);
        // Inner modules are not bindable at this view.
        let deep = Pattern::before(NodeMatcher::Code("M3".into()), NodeMatcher::Code("M6".into()));
        assert!(match_exec_view(&spec, &exec, &view, &deep).is_empty());
    }

    #[test]
    fn composite_paths_leave_from_end() {
        // Under {W1, W2}: M4 is a kept... collapsed composite; M8 follows
        // it. "M4 before M8" must hold (path from M4's node to M8).
        let (spec, h, exec) = setup();
        let m = fixtures::handles(&spec);
        let p = Prefix::from_workflows(&h, [WorkflowId::new(0), WorkflowId::new(1)]).unwrap();
        let view = ExecView::build(&spec, &h, &exec, &p).unwrap();
        let pattern =
            Pattern::before(NodeMatcher::Code("M4".into()), NodeMatcher::Code("M8".into()));
        assert_eq!(match_exec_view(&spec, &exec, &view, &pattern).len(), 1);
        // And the expanded composite M1 (begin/end kept) still reaches M2.
        let pattern =
            Pattern::before(NodeMatcher::Code("M1".into()), NodeMatcher::Code("M2".into()));
        let matches = match_exec_view(&spec, &exec, &view, &pattern);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0][0], exec.proc_of(m.m1).unwrap());
    }

    #[test]
    fn non_facts_do_not_match() {
        let (spec, h, exec) = setup();
        let view = ExecView::build(&spec, &h, &exec, &Prefix::full(&h)).unwrap();
        let pattern =
            Pattern::before(NodeMatcher::Code("M10".into()), NodeMatcher::Code("M14".into()));
        assert!(match_exec_view(&spec, &exec, &view, &pattern).is_empty());
    }

    #[test]
    fn counting_over_views() {
        let (spec, h, exec) = setup();
        let full = Prefix::full(&h);
        let views: Vec<(Execution, ExecView)> = (0..3)
            .map(|_| {
                let v = ExecView::build(&spec, &h, &exec, &full).unwrap();
                (exec.clone(), v)
            })
            .collect();
        let hit = Pattern::before(NodeMatcher::Code("M3".into()), NodeMatcher::Code("M6".into()));
        assert_eq!(count_matching(&spec, &views, &hit), 3);
        let miss =
            Pattern::before(NodeMatcher::Code("M10".into()), NodeMatcher::Code("M14".into()));
        assert_eq!(count_matching(&spec, &views, &miss), 0);
    }
}
