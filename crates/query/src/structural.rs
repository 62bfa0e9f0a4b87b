//! Structural pattern queries over specification views and executions.
//!
//! Sec. 4: *"structural queries ... allow users to select sub-workflows
//! based on structural properties (e.g., 'find executions where Expand SNP
//! Set was executed before Query OMIM and return the provenance information
//! for the latter')"*. Following BP-QL (ref \[1\]), a [`Pattern`] is a small
//! graph whose nodes carry predicates and whose edges are either **direct**
//! (one dataflow edge) or **transitive** (a dataflow path); τ-expansion
//! structure is respected by evaluating against a *view* — matches can only
//! bind modules visible at the caller's granularity, which is how access
//! views shape query semantics.

use ppwf_model::exec::Execution;
use ppwf_model::expand::SpecView;
use ppwf_model::ids::{DataId, ModuleId};
use ppwf_model::provenance::{provenance_of, ProvenanceGraph};
use ppwf_model::spec::Specification;
use ppwf_repo::keyword_index::tokenize;

/// Node predicate of a pattern.
#[derive(Clone, Debug)]
pub enum NodeMatcher {
    /// Matches any module.
    Any,
    /// Module name contains this token (case-insensitive).
    NameToken(String),
    /// Module name or keyword tags contain this phrase.
    Phrase(String),
    /// Exact module code (`"M6"`).
    Code(String),
}

impl NodeMatcher {
    /// Evaluate against a module.
    pub fn matches(&self, spec: &Specification, m: ModuleId) -> bool {
        let module = spec.module(m);
        match self {
            NodeMatcher::Any => true,
            NodeMatcher::NameToken(t) => tokenize(&module.name).contains(&t.to_lowercase()),
            NodeMatcher::Phrase(p) => {
                let norm = tokenize(p).join(" ");
                let name = tokenize(&module.name).join(" ");
                name.contains(&norm)
                    || module.keywords.iter().any(|k| tokenize(k).join(" ").contains(&norm))
            }
            NodeMatcher::Code(c) => module.code.eq_ignore_ascii_case(c),
        }
    }
}

/// Edge of a pattern.
#[derive(Clone, Copy, Debug)]
pub struct PatternEdge {
    /// Source pattern-node index.
    pub from: usize,
    /// Target pattern-node index.
    pub to: usize,
    /// Direct edge (`false`) or dataflow path (`true`).
    pub transitive: bool,
}

/// A structural pattern.
#[derive(Clone, Debug, Default)]
pub struct Pattern {
    /// Node predicates.
    pub nodes: Vec<NodeMatcher>,
    /// Edges between pattern nodes.
    pub edges: Vec<PatternEdge>,
}

impl Pattern {
    /// Two-node "A before B" pattern with a transitive edge — the shape of
    /// the paper's example query.
    pub fn before(a: NodeMatcher, b: NodeMatcher) -> Self {
        Pattern { nodes: vec![a, b], edges: vec![PatternEdge { from: 0, to: 1, transitive: true }] }
    }
}

/// A match: pattern-node index → bound module.
pub type Binding = Vec<ModuleId>;

/// Evaluate `pattern` against a specification view. Returns every binding
/// of pattern nodes to distinct visible modules satisfying all predicates
/// and edges. Deterministic order (bindings sorted).
pub fn match_view(spec: &Specification, view: &SpecView, pattern: &Pattern) -> Vec<Binding> {
    let modules: Vec<ModuleId> = {
        let mut v: Vec<ModuleId> = view.visible_modules().collect();
        v.sort();
        v
    };
    // Candidates per pattern node.
    let cands: Vec<Vec<ModuleId>> = pattern
        .nodes
        .iter()
        .map(|nm| modules.iter().copied().filter(|&m| nm.matches(spec, m)).collect())
        .collect();
    if cands.iter().any(|c| c.is_empty()) {
        return Vec::new();
    }
    // Precompute closure for transitive edges.
    let closure = view.graph().transitive_closure();
    let node_of = |m: ModuleId| view.node_of(m).expect("visible module");

    let mut results = Vec::new();
    let mut binding: Vec<Option<ModuleId>> = vec![None; pattern.nodes.len()];
    fn backtrack(
        i: usize,
        cands: &[Vec<ModuleId>],
        binding: &mut Vec<Option<ModuleId>>,
        results: &mut Vec<Binding>,
        check: &dyn Fn(&[Option<ModuleId>]) -> bool,
    ) {
        if i == cands.len() {
            results.push(binding.iter().map(|b| b.unwrap()).collect());
            return;
        }
        for &m in &cands[i] {
            if binding[..i].contains(&Some(m)) {
                continue; // injective bindings
            }
            binding[i] = Some(m);
            if check(binding) {
                backtrack(i + 1, cands, binding, results, check);
            }
            binding[i] = None;
        }
    }
    let check = |binding: &[Option<ModuleId>]| -> bool {
        pattern.edges.iter().all(|e| {
            match (binding.get(e.from).copied().flatten(), binding.get(e.to).copied().flatten()) {
                (Some(a), Some(b)) => {
                    let (na, nb) = (node_of(a), node_of(b));
                    if e.transitive {
                        na != nb && closure[na as usize].contains(nb as usize)
                    } else {
                        view.graph().has_edge(na, nb)
                    }
                }
                _ => true, // not yet bound
            }
        })
    };
    backtrack(0, &cands, &mut binding, &mut results, &check);
    results.sort();
    results
}

/// The paper's full example: match the pattern against an execution (via a
/// view) and, for each match, return the provenance of the data produced by
/// the module bound to `provenance_of_node`.
pub fn match_and_provenance(
    spec: &Specification,
    view: &SpecView,
    exec: &Execution,
    pattern: &Pattern,
    provenance_of_node: usize,
) -> Vec<(Binding, Vec<ProvenanceGraph>)> {
    let bindings = match_view(spec, view, pattern);
    bindings
        .into_iter()
        .map(|b| {
            let target = b[provenance_of_node];
            let outputs: Vec<DataId> = exec
                .data_items()
                .filter(|d| {
                    exec.graph()
                        .node(d.producer.index() as u32)
                        .kind
                        .module()
                        .map(|m| m == target)
                        .unwrap_or(false)
                })
                .map(|d| d.id)
                .collect();
            let provs = outputs.iter().map(|&d| provenance_of(exec, d)).collect();
            (b, provs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_model::fixtures;
    use ppwf_model::hierarchy::{ExpansionHierarchy, Prefix};

    fn setup() -> (Specification, ExpansionHierarchy, SpecView) {
        let (spec, _) = fixtures::disease_susceptibility();
        let h = ExpansionHierarchy::of(&spec);
        let view = SpecView::build(&spec, &h, &Prefix::full(&h)).unwrap();
        (spec, h, view)
    }

    /// The paper's example: "Expand SNP Set executed before Query OMIM".
    #[test]
    fn paper_structural_query() {
        let (spec, _h, view) = setup();
        let m = fixtures::handles(&spec);
        let pattern = Pattern::before(
            NodeMatcher::Phrase("expand snp set".into()),
            NodeMatcher::Phrase("query omim".into()),
        );
        let matches = match_view(&spec, &view, &pattern);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0], vec![m.m3, m.m6]);
    }

    #[test]
    fn provenance_of_the_latter() {
        let (spec, h, view) = setup();
        let m = fixtures::handles(&spec);
        let exec = fixtures::disease_susceptibility_execution(&spec);
        let pattern = Pattern::before(
            NodeMatcher::Phrase("expand snp set".into()),
            NodeMatcher::Phrase("query omim".into()),
        );
        let results = match_and_provenance(&spec, &view, &exec, &pattern, 1);
        assert_eq!(results.len(), 1);
        let (binding, provs) = &results[0];
        assert_eq!(binding[1], m.m6);
        // M6 produces exactly d8; its provenance includes d5, d6 and the
        // inputs, but not M7's branch.
        assert_eq!(provs.len(), 1);
        let p = &provs[0];
        assert!(p.contains_data(DataId::new(8)));
        assert!(p.contains_data(DataId::new(6)));
        assert!(p.contains_data(DataId::new(5)));
        assert!(!p.contains_data(DataId::new(7)), "M7's query is not upstream of M6");
        let _ = h;
    }

    #[test]
    fn direct_vs_transitive_edges() {
        let (spec, _h, view) = setup();
        let m = fixtures::handles(&spec);
        // Direct: M5 → M6 is an edge; M3 → M6 is not.
        let direct = Pattern {
            nodes: vec![NodeMatcher::Code("M5".into()), NodeMatcher::Code("M6".into())],
            edges: vec![PatternEdge { from: 0, to: 1, transitive: false }],
        };
        assert_eq!(match_view(&spec, &view, &direct).len(), 1);
        let not_direct = Pattern {
            nodes: vec![NodeMatcher::Code("M3".into()), NodeMatcher::Code("M6".into())],
            edges: vec![PatternEdge { from: 0, to: 1, transitive: false }],
        };
        assert!(match_view(&spec, &view, &not_direct).is_empty());
        let transitive =
            Pattern::before(NodeMatcher::Code("M3".into()), NodeMatcher::Code("M6".into()));
        assert_eq!(match_view(&spec, &view, &transitive).len(), 1);
        let _ = m;
    }

    #[test]
    fn view_granularity_shapes_answers() {
        // At the root-only view, M3/M6 are invisible: the paper's query has
        // no match — privacy-controlled semantics in action.
        let (spec, h, _full) = setup();
        let coarse = SpecView::build(&spec, &h, &Prefix::root_only(&h)).unwrap();
        let pattern = Pattern::before(
            NodeMatcher::Phrase("expand snp set".into()),
            NodeMatcher::Phrase("query omim".into()),
        );
        assert!(match_view(&spec, &coarse, &pattern).is_empty());
        // But a top-level pattern still matches.
        let top = Pattern::before(
            NodeMatcher::Phrase("genetic susceptibility".into()),
            NodeMatcher::Phrase("disorder risk".into()),
        );
        assert_eq!(match_view(&spec, &coarse, &top).len(), 1);
    }

    #[test]
    fn wildcard_and_injectivity() {
        let (spec, _h, view) = setup();
        // Any → Any with a transitive edge: counts ordered reachable pairs
        // of distinct visible modules.
        let pattern = Pattern::before(NodeMatcher::Any, NodeMatcher::Any);
        let matches = match_view(&spec, &view, &pattern);
        assert!(!matches.is_empty());
        assert!(matches.iter().all(|b| b[0] != b[1]), "bindings are injective");
        // Count equals the reachability among visible modules:
        let m = fixtures::handles(&spec);
        assert!(matches.contains(&vec![m.m3, m.m6]));
        assert!(!matches.contains(&vec![m.m10, m.m14]), "Sec. 3's non-fact");
    }

    #[test]
    fn multi_edge_patterns() {
        let (spec, _h, view) = setup();
        let m = fixtures::handles(&spec);
        // Fan: M5 → M6 and M5 → M7 (both direct).
        let fan = Pattern {
            nodes: vec![
                NodeMatcher::Code("M5".into()),
                NodeMatcher::Code("M6".into()),
                NodeMatcher::Code("M7".into()),
            ],
            edges: vec![
                PatternEdge { from: 0, to: 1, transitive: false },
                PatternEdge { from: 0, to: 2, transitive: false },
            ],
        };
        let matches = match_view(&spec, &view, &fan);
        assert_eq!(matches, vec![vec![m.m5, m.m6, m.m7]]);
    }
}
