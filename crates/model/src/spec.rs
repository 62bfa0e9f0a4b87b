//! Workflow specifications (Sec. 2 of the paper, Fig. 1).
//!
//! A [`Specification`] is a set of workflows. Each [`Workflow`] is a DAG of
//! [`Module`]s connected by dataflow [`SpecEdge`]s; every workflow has
//! distinguished input (`I`) and output (`O`) pseudo-modules. A module may be
//! *composite*, in which case a τ-expansion edge associates it with the
//! subworkflow that defines it — giving rise to the expansion hierarchy
//! (Fig. 3, [`crate::hierarchy`]) whose prefixes define views
//! ([`crate::expand`]).
//!
//! Specifications are constructed through [`SpecBuilder`], which validates
//! the whole structure at [`SpecBuilder::build`]: acyclicity of every
//! workflow, edge locality, well-formed distinguished modules, the expansion
//! relation forming a tree, and connectivity.

use crate::error::{ModelError, Result};
use crate::graph::DiGraph;
use crate::ids::{EdgeId, ModuleId, WorkflowId};
use std::collections::HashMap;

/// What kind of node a module is within its workflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// The distinguished input pseudo-module `I` of a workflow.
    Input,
    /// The distinguished output pseudo-module `O` of a workflow.
    Output,
    /// An ordinary executable module.
    Atomic,
    /// A composite module, defined by the subworkflow it τ-expands to.
    Composite(WorkflowId),
}

impl ModuleKind {
    /// The subworkflow a composite module expands to, if any.
    pub fn expansion(self) -> Option<WorkflowId> {
        match self {
            ModuleKind::Composite(w) => Some(w),
            _ => None,
        }
    }

    /// Whether this is the input or output pseudo-module.
    pub fn is_distinguished(self) -> bool {
        matches!(self, ModuleKind::Input | ModuleKind::Output)
    }
}

/// One module of a specification (the paper's `M1..M15`, `I`, `O`).
#[derive(Clone, Debug)]
pub struct Module {
    /// Global id within the specification.
    pub id: ModuleId,
    /// Short display code used in figures (`"M1"`, `"I"`, `"O"`).
    /// Auto-generated at construction; override with [`SpecBuilder::set_code`].
    pub code: String,
    /// Display name, e.g. `"Determine Genetic Susceptibility"`.
    pub name: String,
    /// The workflow this module belongs to.
    pub workflow: WorkflowId,
    /// Atomic / composite / input / output.
    pub kind: ModuleKind,
    /// Keyword annotations used by keyword search (Sec. 4). Module names are
    /// additionally tokenized by the search layer; these are extra tags.
    pub keywords: Vec<String>,
}

/// A dataflow edge between two modules of the same workflow. An edge carries
/// one or more named channels; at run time each channel produces one data
/// item per execution (Fig. 1's `"SNPs, ethnicity"` edge carries two
/// channels and hence `d0, d1` in Fig. 4).
#[derive(Clone, Debug)]
pub struct SpecEdge {
    /// Global id within the specification.
    pub id: EdgeId,
    /// The workflow both endpoints belong to.
    pub workflow: WorkflowId,
    /// Source module.
    pub from: ModuleId,
    /// Target module.
    pub to: ModuleId,
    /// Named data channels carried by this edge (≥ 1).
    pub channels: Vec<String>,
}

/// One workflow of a specification (the paper's `W1..W4`).
#[derive(Clone, Debug)]
pub struct Workflow {
    /// Id within the specification.
    pub id: WorkflowId,
    /// Display name, e.g. `"W1"`.
    pub name: String,
    /// All modules, in insertion order (determines deterministic scheduling
    /// tie-breaks). Includes the input and output pseudo-modules.
    pub modules: Vec<ModuleId>,
    /// The distinguished input pseudo-module.
    pub input: ModuleId,
    /// The distinguished output pseudo-module.
    pub output: ModuleId,
    /// Edges between this workflow's modules, in insertion order (determines
    /// deterministic data-item numbering).
    pub edges: Vec<EdgeId>,
    /// The composite module (in the parent workflow) this workflow defines,
    /// or `None` for the root workflow.
    pub parent: Option<ModuleId>,
}

/// A validated workflow specification: workflows, modules, edges and the
/// τ-expansion relation.
#[derive(Clone, Debug)]
pub struct Specification {
    pub(crate) name: String,
    pub(crate) workflows: Vec<Workflow>,
    pub(crate) modules: Vec<Module>,
    pub(crate) edges: Vec<SpecEdge>,
    pub(crate) root: WorkflowId,
}

impl Specification {
    /// The specification's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root workflow (the paper's `W1`).
    pub fn root(&self) -> WorkflowId {
        self.root
    }

    /// Number of workflows.
    pub fn workflow_count(&self) -> usize {
        self.workflows.len()
    }

    /// Number of modules across all workflows (including pseudo-modules).
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Number of dataflow edges across all workflows.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Look up a workflow.
    pub fn workflow(&self, w: WorkflowId) -> &Workflow {
        &self.workflows[w.index()]
    }

    /// Look up a module.
    pub fn module(&self, m: ModuleId) -> &Module {
        &self.modules[m.index()]
    }

    /// Look up a module, returning `None` when the id is out of range.
    pub fn get_module(&self, m: ModuleId) -> Option<&Module> {
        self.modules.get(m.index())
    }

    /// Would [`Self::set_module_text`] accept this module? Checks without
    /// mutating: the id must resolve and the module must not be a
    /// distinguished pseudo-module (their text is structural — workflows
    /// key their input/output on it in figures and fixtures).
    pub fn check_module_text(&self, m: ModuleId) -> Result<()> {
        let module = self.modules.get(m.index()).ok_or(ModelError::BadId {
            kind: "module",
            index: m.index(),
            len: self.modules.len(),
        })?;
        if module.kind.is_distinguished() {
            return Err(ModelError::invalid(format!(
                "cannot edit text of distinguished module `{}`",
                module.code
            )));
        }
        Ok(())
    }

    /// Replace the display name and keyword tags of module `m` — a
    /// text-only edit. Ids, kinds, workflow membership and edges are
    /// untouched, so every structural invariant [`SpecBuilder::build`]
    /// validated (DAG-ness, expansion tree, connectivity) still holds and
    /// derived hierarchies stay valid; only keyword-search text changes.
    /// Rejects distinguished pseudo-modules.
    pub fn set_module_text(&mut self, m: ModuleId, name: &str, keywords: &[String]) -> Result<()> {
        self.check_module_text(m)?;
        let module = &mut self.modules[m.index()];
        module.name = name.to_string();
        module.keywords = keywords.to_vec();
        Ok(())
    }

    /// Look up an edge.
    pub fn edge(&self, e: EdgeId) -> &SpecEdge {
        &self.edges[e.index()]
    }

    /// Iterate over all workflows.
    pub fn workflows(&self) -> impl Iterator<Item = &Workflow> {
        self.workflows.iter()
    }

    /// Iterate over all modules.
    pub fn modules(&self) -> impl Iterator<Item = &Module> {
        self.modules.iter()
    }

    /// Iterate over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &SpecEdge> {
        self.edges.iter()
    }

    /// The modules of workflow `w`, excluding the input/output pseudo-modules.
    pub fn proper_modules(&self, w: WorkflowId) -> impl Iterator<Item = &Module> {
        self.workflows[w.index()]
            .modules
            .iter()
            .map(|&m| &self.modules[m.index()])
            .filter(|m| !m.kind.is_distinguished())
    }

    /// The subworkflow a module expands to (τ edge), if composite.
    pub fn expansion_of(&self, m: ModuleId) -> Option<WorkflowId> {
        self.modules[m.index()].kind.expansion()
    }

    /// The composite module a workflow defines, or `None` for the root.
    pub fn defining_module(&self, w: WorkflowId) -> Option<ModuleId> {
        self.workflows[w.index()].parent
    }

    /// Find a module by exact name anywhere in the specification.
    pub fn find_module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// Find a workflow by exact name.
    pub fn find_workflow(&self, name: &str) -> Option<&Workflow> {
        self.workflows.iter().find(|w| w.name == name)
    }

    /// Build the (intra-workflow) dataflow graph of one workflow: nodes carry
    /// [`ModuleId`]s, edges carry [`EdgeId`]s. Node indices follow the
    /// workflow's module insertion order.
    pub fn workflow_graph(
        &self,
        w: WorkflowId,
    ) -> (DiGraph<ModuleId, EdgeId>, HashMap<ModuleId, u32>) {
        let wf = &self.workflows[w.index()];
        let mut g = DiGraph::with_capacity(wf.modules.len(), wf.edges.len());
        let mut idx = HashMap::with_capacity(wf.modules.len());
        for &m in &wf.modules {
            let n = g.add_node(m);
            idx.insert(m, n);
        }
        for &e in &wf.edges {
            let edge = &self.edges[e.index()];
            g.add_edge(idx[&edge.from], idx[&edge.to], e);
        }
        (g, idx)
    }

    /// Total number of data channels declared in workflow `w` (one data item
    /// per channel per execution of that workflow).
    pub fn channel_count(&self, w: WorkflowId) -> usize {
        self.workflows[w.index()].edges.iter().map(|&e| self.edges[e.index()].channels.len()).sum()
    }
}

/// Incrementally constructs a [`Specification`]; all structural invariants
/// are checked in [`SpecBuilder::build`].
#[derive(Clone, Debug)]
pub struct SpecBuilder {
    name: String,
    workflows: Vec<Workflow>,
    modules: Vec<Module>,
    edges: Vec<SpecEdge>,
}

impl SpecBuilder {
    /// Start a new specification. The first workflow added becomes the root.
    pub fn new(name: impl Into<String>) -> Self {
        SpecBuilder {
            name: name.into(),
            workflows: Vec::new(),
            modules: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add a workflow (with fresh `I`/`O` pseudo-modules). The first call
    /// creates the root; later calls are reached through
    /// [`SpecBuilder::composite`], which wires the τ-expansion.
    fn add_workflow(&mut self, name: impl Into<String>, parent: Option<ModuleId>) -> WorkflowId {
        let w = WorkflowId::new(self.workflows.len());
        let input = self.push_module(w, "I", ModuleKind::Input, &[]);
        let output = self.push_module(w, "O", ModuleKind::Output, &[]);
        self.workflows.push(Workflow {
            id: w,
            name: name.into(),
            modules: vec![input, output],
            input,
            output,
            edges: Vec::new(),
            parent,
        });
        w
    }

    /// Create the root workflow. Must be called exactly once, first.
    pub fn root_workflow(&mut self, name: impl Into<String>) -> WorkflowId {
        assert!(self.workflows.is_empty(), "root workflow must be created first and once");
        self.add_workflow(name, None)
    }

    fn push_module(
        &mut self,
        w: WorkflowId,
        name: &str,
        kind: ModuleKind,
        keywords: &[&str],
    ) -> ModuleId {
        let id = ModuleId::new(self.modules.len());
        let code = match kind {
            ModuleKind::Input => "I".to_string(),
            ModuleKind::Output => "O".to_string(),
            _ => {
                let n = self.modules.iter().filter(|m| !m.kind.is_distinguished()).count();
                format!("M{}", n + 1)
            }
        };
        self.modules.push(Module {
            id,
            code,
            name: name.to_string(),
            workflow: w,
            kind,
            keywords: keywords.iter().map(|s| s.to_string()).collect(),
        });
        id
    }

    /// Override the auto-generated short display code of a module (used to
    /// match the paper's numbering in the fixtures).
    pub fn set_code(&mut self, m: ModuleId, code: &str) {
        self.modules[m.index()].code = code.to_string();
    }

    /// Add an atomic module to workflow `w`.
    pub fn atomic(&mut self, w: WorkflowId, name: &str, keywords: &[&str]) -> ModuleId {
        assert!(w.index() < self.workflows.len(), "unknown workflow");
        let m = self.push_module(w, name, ModuleKind::Atomic, keywords);
        self.workflows[w.index()].modules.push(m);
        m
    }

    /// Add a composite module to workflow `w`, together with the subworkflow
    /// that defines it (the τ-expansion). Returns `(module, subworkflow)`.
    pub fn composite(
        &mut self,
        w: WorkflowId,
        name: &str,
        sub_name: &str,
        keywords: &[&str],
    ) -> (ModuleId, WorkflowId) {
        assert!(w.index() < self.workflows.len(), "unknown workflow");
        // Reserve the module slot first so ids read in creation order.
        let m = self.push_module(w, name, ModuleKind::Atomic, keywords);
        self.workflows[w.index()].modules.push(m);
        let sub = self.add_workflow(sub_name, Some(m));
        self.modules[m.index()].kind = ModuleKind::Composite(sub);
        (m, sub)
    }

    /// The input pseudo-module of `w`.
    pub fn input(&self, w: WorkflowId) -> ModuleId {
        self.workflows[w.index()].input
    }

    /// The output pseudo-module of `w`.
    pub fn output(&self, w: WorkflowId) -> ModuleId {
        self.workflows[w.index()].output
    }

    /// Add a dataflow edge between two modules of workflow `w` carrying the
    /// given channels (at least one required at `build` time).
    pub fn edge(
        &mut self,
        w: WorkflowId,
        from: ModuleId,
        to: ModuleId,
        channels: &[&str],
    ) -> EdgeId {
        let id = EdgeId::new(self.edges.len());
        self.edges.push(SpecEdge {
            id,
            workflow: w,
            from,
            to,
            channels: channels.iter().map(|s| s.to_string()).collect(),
        });
        self.workflows[w.index()].edges.push(id);
        id
    }

    /// Read-only snapshot of the edges added so far — lets workload
    /// generators inspect a partially built specification (e.g. to route
    /// channels through composite boundaries).
    pub fn edges_snapshot(&self) -> &[SpecEdge] {
        &self.edges
    }

    /// Validate and produce the specification.
    pub fn build(self) -> Result<Specification> {
        let spec = Specification {
            name: self.name,
            workflows: self.workflows,
            modules: self.modules,
            edges: self.edges,
            root: WorkflowId::new(0),
        };
        if spec.workflows.is_empty() {
            return Err(ModelError::invalid("specification has no workflows"));
        }
        validate(&spec)?;
        Ok(spec)
    }
}

pub(crate) fn validate(spec: &Specification) -> Result<()> {
    // Per-workflow structural checks.
    for wf in &spec.workflows {
        let wname = wf.name.clone();
        for &m in &wf.modules {
            if spec.module(m).workflow != wf.id {
                return Err(ModelError::ForeignModule {
                    workflow: wname,
                    module: spec.module(m).name.clone(),
                });
            }
        }
        let member: std::collections::HashSet<ModuleId> = wf.modules.iter().copied().collect();
        if member.len() != wf.modules.len() {
            return Err(ModelError::invalid(format!("duplicate module in workflow `{wname}`")));
        }
        // The distinguished pseudo-modules must be members with the right
        // kinds (guards decoded/hand-built specifications).
        if !member.contains(&wf.input) || spec.module(wf.input).kind != ModuleKind::Input {
            return Err(ModelError::DuplicateDistinguished { workflow: wname, which: "input" });
        }
        if !member.contains(&wf.output) || spec.module(wf.output).kind != ModuleKind::Output {
            return Err(ModelError::DuplicateDistinguished { workflow: wname, which: "output" });
        }
        for &m in &wf.modules {
            let k = spec.module(m).kind;
            if k == ModuleKind::Input && m != wf.input {
                return Err(ModelError::DuplicateDistinguished { workflow: wname, which: "input" });
            }
            if k == ModuleKind::Output && m != wf.output {
                return Err(ModelError::DuplicateDistinguished {
                    workflow: wname,
                    which: "output",
                });
            }
        }
        for &e in &wf.edges {
            let edge = spec.edge(e);
            for end in [edge.from, edge.to] {
                if !member.contains(&end) {
                    return Err(ModelError::ForeignModule {
                        workflow: wname,
                        module: spec.module(end).name.clone(),
                    });
                }
            }
            if edge.from == edge.to {
                return Err(ModelError::invalid(format!(
                    "self-loop on `{}` in workflow `{wname}`",
                    spec.module(edge.from).name
                )));
            }
            if edge.channels.is_empty() {
                return Err(ModelError::invalid(format!(
                    "edge `{}` → `{}` in `{wname}` declares no channels",
                    spec.module(edge.from).name,
                    spec.module(edge.to).name
                )));
            }
            if edge.to == wf.input {
                return Err(ModelError::BadDistinguishedEdge {
                    workflow: wname,
                    detail: "edge into the input pseudo-module".into(),
                });
            }
            if edge.from == wf.output {
                return Err(ModelError::BadDistinguishedEdge {
                    workflow: wname,
                    detail: "edge out of the output pseudo-module".into(),
                });
            }
        }
        let (g, idx) = spec.workflow_graph(wf.id);
        if !g.is_dag() {
            return Err(ModelError::Cycle { workflow: wname });
        }
        // Every proper module must be fed (transitively) from the input;
        // sink modules (e.g. database updaters) need not reach the output.
        let from_input = g.reachable_from(idx[&wf.input]);
        for &m in &wf.modules {
            if m == wf.input || m == wf.output {
                continue;
            }
            if !from_input.contains(idx[&m] as usize) {
                return Err(ModelError::Disconnected {
                    workflow: wname,
                    module: spec.module(m).name.clone(),
                });
            }
        }
    }

    // Expansion relation must form a tree rooted at workflow 0.
    let mut seen_child = vec![false; spec.workflows.len()];
    for m in &spec.modules {
        if let ModuleKind::Composite(sub) = m.kind {
            if sub.index() >= spec.workflows.len() {
                return Err(ModelError::BadId {
                    kind: "workflow",
                    index: sub.index(),
                    len: spec.workflows.len(),
                });
            }
            if sub == spec.root {
                return Err(ModelError::HierarchyNotTree {
                    detail: "root workflow used as an expansion".into(),
                });
            }
            if seen_child[sub.index()] {
                return Err(ModelError::HierarchyNotTree {
                    detail: format!("workflow `{}` expands two modules", spec.workflow(sub).name),
                });
            }
            seen_child[sub.index()] = true;
            if spec.workflow(sub).parent != Some(m.id) {
                return Err(ModelError::BadExpansion {
                    module: m.name.clone(),
                    detail: "expansion back-pointer mismatch".into(),
                });
            }
        }
    }
    for wf in &spec.workflows {
        if wf.id != spec.root && !seen_child[wf.id.index()] {
            return Err(ModelError::HierarchyNotTree {
                detail: format!("workflow `{}` is not reachable from the root", wf.name),
            });
        }
        if let Some(p) = wf.parent {
            if spec.module(p).kind.expansion() != Some(wf.id) {
                return Err(ModelError::BadExpansion {
                    module: spec.module(p).name.clone(),
                    detail: "parent module does not expand to this workflow".into(),
                });
            }
        }
    }
    // Expansion tree must be acyclic (guard against hand-rolled corruption:
    // with builder construction parents always precede children).
    let mut depth_guard = 0usize;
    for wf in &spec.workflows {
        let mut cur = wf.parent.map(|m| spec.module(m).workflow);
        while let Some(w) = cur {
            depth_guard += 1;
            if depth_guard > spec.workflows.len() * spec.workflows.len() + 1 {
                return Err(ModelError::HierarchyNotTree { detail: "expansion cycle".into() });
            }
            cur = spec.workflow(w).parent.map(|m| spec.module(m).workflow);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Specification {
        let mut b = SpecBuilder::new("tiny");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &["alpha"]);
        let c = b.atomic(w, "C", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, a, c, &["y"]);
        b.edge(w, c, b.output(w), &["z"]);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_counts() {
        let s = tiny();
        assert_eq!(s.workflow_count(), 1);
        assert_eq!(s.module_count(), 4); // I, O, A, C
        assert_eq!(s.edge_count(), 3);
        assert_eq!(s.channel_count(s.root()), 3);
        assert_eq!(s.find_module("A").unwrap().keywords, vec!["alpha"]);
        assert!(s.find_module("missing").is_none());
        assert_eq!(s.find_workflow("W1").unwrap().id, s.root());
    }

    #[test]
    fn proper_modules_excludes_pseudo() {
        let s = tiny();
        let names: Vec<_> = s.proper_modules(s.root()).map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["A", "C"]);
    }

    #[test]
    fn composite_expansion_round_trip() {
        let mut b = SpecBuilder::new("nested");
        let w1 = b.root_workflow("W1");
        let (m, w2) = b.composite(w1, "M", "W2", &[]);
        let inner = b.atomic(w2, "X", &[]);
        b.edge(w1, b.input(w1), m, &["a"]);
        b.edge(w1, m, b.output(w1), &["b"]);
        b.edge(w2, b.input(w2), inner, &["a"]);
        b.edge(w2, inner, b.output(w2), &["b"]);
        let s = b.build().unwrap();
        assert_eq!(s.expansion_of(m), Some(w2));
        assert_eq!(s.defining_module(w2), Some(m));
        assert_eq!(s.defining_module(s.root()), None);
        assert_eq!(s.module(m).kind, ModuleKind::Composite(w2));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = SpecBuilder::new("cyc");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        let c = b.atomic(w, "C", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, a, c, &["y"]);
        b.edge(w, c, a, &["z"]);
        b.edge(w, c, b.output(w), &["o"]);
        assert!(matches!(b.build(), Err(ModelError::Cycle { .. })));
    }

    #[test]
    fn rejects_edge_into_input() {
        let mut b = SpecBuilder::new("bad");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, a, b.input(w), &["y"]);
        assert!(matches!(b.build(), Err(ModelError::BadDistinguishedEdge { .. })));
    }

    #[test]
    fn rejects_edge_out_of_output() {
        let mut b = SpecBuilder::new("bad");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, b.output(w), a, &["y"]);
        assert!(matches!(b.build(), Err(ModelError::BadDistinguishedEdge { .. })));
    }

    #[test]
    fn rejects_isolated_module() {
        let mut b = SpecBuilder::new("iso");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        b.atomic(w, "Lonely", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, a, b.output(w), &["y"]);
        let err = b.build().unwrap_err();
        assert!(matches!(err, ModelError::Disconnected { ref module, .. } if module == "Lonely"));
    }

    #[test]
    fn sink_module_allowed() {
        // A module that never reaches the output (e.g. "Update Private
        // Datasets") is legal as long as it is fed from the input.
        let mut b = SpecBuilder::new("sink");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        let upd = b.atomic(w, "Update DB", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, a, upd, &["notes"]);
        b.edge(w, a, b.output(w), &["y"]);
        assert!(b.build().is_ok());
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = SpecBuilder::new("self");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, a, a, &["y"]);
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_empty_channels() {
        let mut b = SpecBuilder::new("nochan");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        b.edge(w, b.input(w), a, &[]);
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_cross_workflow_edge() {
        let mut b = SpecBuilder::new("cross");
        let w1 = b.root_workflow("W1");
        let (m, w2) = b.composite(w1, "M", "W2", &[]);
        let inner = b.atomic(w2, "X", &[]);
        b.edge(w1, b.input(w1), m, &["a"]);
        b.edge(w1, m, b.output(w1), &["b"]);
        b.edge(w2, b.input(w2), inner, &["a"]);
        b.edge(w2, inner, b.output(w2), &["b"]);
        // Illegal: connects a W2 module inside W1.
        b.edge(w1, inner, m, &["evil"]);
        assert!(matches!(b.build(), Err(ModelError::ForeignModule { .. })));
    }

    #[test]
    fn workflow_graph_shape() {
        let s = tiny();
        let (g, idx) = s.workflow_graph(s.root());
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        let wf = s.workflow(s.root());
        assert!(g.reaches(idx[&wf.input], idx[&wf.output]));
    }

    #[test]
    fn empty_spec_rejected() {
        assert!(SpecBuilder::new("empty").build().is_err());
    }
}
