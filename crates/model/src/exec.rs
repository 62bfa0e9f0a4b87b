//! Executions of workflow specifications (Sec. 2 of the paper, Fig. 4).
//!
//! An [`Execution`] is a DAG derived from a specification by fully expanding
//! every composite module. Following the common model (\[1\] in the paper),
//! each composite module execution is represented by **two** nodes — its
//! activation (`S1:M1 begin`) and completion (`S1:M1 end`) — while atomic
//! module executions are single nodes. Every module execution carries a
//! unique process id (`S1..S15` in Fig. 4); every edge carries the set of
//! data items flowing along it (`d0..d19`); and **each data item is the
//! output of exactly one module execution**.
//!
//! ## Labeling discipline
//!
//! The paper numbers processes in *activation* order and data items in
//! *production* order, and the two orders are not the same linear extension
//! (in Fig. 4, `M14` activates before `M10` — `S12` vs `S13` — yet `M10`'s
//! outputs `d16, d17` precede `M14`'s `d18`). The executor therefore runs
//! two independent Kahn traversals of the same execution DAG: one
//! tie-breaking by creation order assigns [`ProcId`]s, one with
//! completion-priority tie-breaking assigns [`DataId`]s. Both are valid
//! topological linear extensions; [`Schedule`] lets fixtures choose the
//! paper's exact production order while defaults stay deterministic.
//!
//! ## Data routing
//!
//! Producer nodes (the workflow input and atomic modules) emit one fresh
//! data item per declared channel of each outgoing edge. Pass-through nodes
//! (begin/end of composites) forward items from their incoming pool,
//! selecting by channel *name* — exactly the rule that makes the
//! `{d2,d3,d4,d10}` edge of Fig. 4 come out right.

use crate::error::{ModelError, Result};
use crate::graph::DiGraph;
use crate::ids::{DataId, EdgeId, ModuleId, NodeId, ProcId};
use crate::spec::{Module, ModuleKind, Specification};
use crate::value::Value;
use std::collections::HashMap;

/// The kind of a node in an execution graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecNodeKind {
    /// The unique start node `I` of the execution.
    Input,
    /// The unique end node `O` of the execution.
    Output,
    /// Execution of an atomic module.
    Atomic(ModuleId),
    /// Activation of a composite module execution (`S:M begin`).
    Begin(ModuleId),
    /// Completion of a composite module execution (`S:M end`).
    End(ModuleId),
}

impl ExecNodeKind {
    /// The executed module, if this node belongs to one.
    pub fn module(self) -> Option<ModuleId> {
        match self {
            ExecNodeKind::Atomic(m) | ExecNodeKind::Begin(m) | ExecNodeKind::End(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this node *produces* fresh data items (input or atomic);
    /// begin/end nodes only forward.
    pub fn is_producer(self) -> bool {
        matches!(self, ExecNodeKind::Input | ExecNodeKind::Atomic(_))
    }
}

/// Payload of an execution node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecNode {
    /// Process id of the owning module execution (None for `I`/`O`).
    pub proc: Option<ProcId>,
    /// Node kind.
    pub kind: ExecNodeKind,
}

/// Payload of an execution edge: the data items flowing along it, plus the
/// specification edge it instantiates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecEdge {
    /// Data items on this edge, in production order.
    pub data: Vec<DataId>,
    /// The specification edge this execution edge instantiates.
    pub spec_edge: EdgeId,
}

/// One data item of an execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataItem {
    /// Dense id (`d0..`).
    pub id: DataId,
    /// The node (input or atomic module execution) that produced it.
    pub producer: NodeId,
    /// Channel name it was produced under.
    pub channel: String,
    /// Its value (possibly [`Value::Masked`] after privacy enforcement).
    pub value: Value,
}

/// One module execution (process): `S1..S15` in Fig. 4.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcInfo {
    /// Dense process id.
    pub id: ProcId,
    /// The executed module.
    pub module: ModuleId,
    /// Activation node (equals `end` for atomic modules).
    pub begin: NodeId,
    /// Completion node (equals `begin` for atomic modules).
    pub end: NodeId,
}

/// A complete execution of a specification.
#[derive(Clone, Debug)]
pub struct Execution {
    pub(crate) spec_name: String,
    pub(crate) graph: DiGraph<ExecNode, ExecEdge>,
    pub(crate) data: Vec<DataItem>,
    pub(crate) procs: Vec<ProcInfo>,
    pub(crate) proc_of_module: HashMap<ModuleId, ProcId>,
    pub(crate) input: NodeId,
    pub(crate) output: NodeId,
}

impl Execution {
    /// Name of the executed specification.
    pub fn spec_name(&self) -> &str {
        &self.spec_name
    }

    /// The execution DAG.
    pub fn graph(&self) -> &DiGraph<ExecNode, ExecEdge> {
        &self.graph
    }

    /// The unique start node.
    pub fn input(&self) -> NodeId {
        self.input
    }

    /// The unique end node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Number of data items (`d0..`).
    pub fn data_count(&self) -> usize {
        self.data.len()
    }

    /// Number of module executions (`S1..`).
    pub fn proc_count(&self) -> usize {
        self.procs.len()
    }

    /// Look up a data item.
    pub fn data(&self, d: DataId) -> &DataItem {
        &self.data[d.index()]
    }

    /// Mutable access to a data item (privacy masking).
    pub fn data_mut(&mut self, d: DataId) -> &mut DataItem {
        &mut self.data[d.index()]
    }

    /// Iterate over all data items.
    pub fn data_items(&self) -> impl Iterator<Item = &DataItem> {
        self.data.iter()
    }

    /// Look up a process.
    pub fn proc(&self, p: ProcId) -> &ProcInfo {
        &self.procs[p.index()]
    }

    /// Iterate over all processes in id order.
    pub fn procs(&self) -> impl Iterator<Item = &ProcInfo> {
        self.procs.iter()
    }

    /// The process executing module `m` (every module executes exactly once
    /// per execution in this model).
    pub fn proc_of(&self, m: ModuleId) -> Option<ProcId> {
        self.proc_of_module.get(&m).copied()
    }

    /// Human-readable node label in the paper's style
    /// (`"I"`, `"O"`, `"S1:M1 begin"`, `"S2:M3"`).
    pub fn node_label(&self, spec: &Specification, n: NodeId) -> String {
        let node = self.graph.node(n.index() as u32);
        match node.kind {
            ExecNodeKind::Input => "I".into(),
            ExecNodeKind::Output => "O".into(),
            ExecNodeKind::Atomic(m) => {
                format!("S{}:{}", node.proc.unwrap().index() + 1, spec.module(m).code)
            }
            ExecNodeKind::Begin(m) => {
                format!("S{}:{} begin", node.proc.unwrap().index() + 1, spec.module(m).code)
            }
            ExecNodeKind::End(m) => {
                format!("S{}:{} end", node.proc.unwrap().index() + 1, spec.module(m).code)
            }
        }
    }

    /// The data items flowing on the edge `from → to`, if such an edge
    /// exists (used heavily by figure tests).
    pub fn data_between(&self, from: NodeId, to: NodeId) -> Option<&[DataId]> {
        let f = from.index() as u32;
        for &e in self.graph.out_edges(f) {
            let edge = self.graph.edge(e);
            if edge.to == to.index() as u32 {
                return Some(&edge.payload.data);
            }
        }
        None
    }

    /// All (from, to, data) triples — convenience for rendering and tests.
    pub fn edge_triples(&self) -> impl Iterator<Item = (NodeId, NodeId, &[DataId])> {
        self.graph.edges().map(|(_, e)| {
            (NodeId::new(e.from as usize), NodeId::new(e.to as usize), e.payload.data.as_slice())
        })
    }

    /// Check internal invariants (used by property tests and after privacy
    /// transformations): unique producers, edge data well-formed, begin/end
    /// pairing, DAG shape.
    pub fn check_invariants(&self) -> Result<()> {
        if !self.graph.is_dag() {
            return Err(ModelError::invalid("execution graph has a cycle"));
        }
        // Every data item's producer exists and is a producer node.
        for item in &self.data {
            let n = self.graph.node(item.producer.index() as u32);
            if !n.kind.is_producer() {
                return Err(ModelError::invalid(format!(
                    "data {} produced by non-producer node",
                    item.id
                )));
            }
        }
        // Data on edges must originate at the edge source (for producers) or
        // be present in the source's incoming pool (for forwarders).
        for (_, e) in self.graph.edges() {
            let src = self.graph.node(e.from);
            for &d in &e.payload.data {
                if d.index() >= self.data.len() {
                    return Err(ModelError::BadId {
                        kind: "data",
                        index: d.index(),
                        len: self.data.len(),
                    });
                }
                match src.kind {
                    ExecNodeKind::Input | ExecNodeKind::Atomic(_) => {
                        if self.data[d.index()].producer.index() != e.from as usize {
                            return Err(ModelError::invalid(format!(
                                "data {d} flows out of a producer that did not create it"
                            )));
                        }
                    }
                    _ => {
                        let pooled = self
                            .graph
                            .in_edges(e.from)
                            .iter()
                            .any(|&ie| self.graph.edge(ie).payload.data.contains(&d));
                        if !pooled {
                            return Err(ModelError::invalid(format!(
                                "data {d} forwarded without arriving first"
                            )));
                        }
                    }
                }
            }
        }
        // Begin/end pairing.
        for p in &self.procs {
            let b = self.graph.node(p.begin.index() as u32);
            let e = self.graph.node(p.end.index() as u32);
            if b.proc != Some(p.id) || e.proc != Some(p.id) {
                return Err(ModelError::invalid("proc table inconsistent with node procs"));
            }
        }
        Ok(())
    }
}

/// Module semantics: computes the values of produced data items.
///
/// `inputs` is the (channel, value) pool available to the producing module
/// execution, in data-id order. The executor calls [`Oracle::initial`] for
/// items produced by the workflow input node and [`Oracle::eval`] for items
/// produced by atomic module executions.
pub trait Oracle {
    /// Value of an item produced by the workflow input under `channel`.
    fn initial(&mut self, channel: &str) -> Value;

    /// Value of an item produced by atomic module `module` under `channel`,
    /// given the module's input pool.
    fn eval(&mut self, module: &Module, inputs: &[(&str, &Value)], channel: &str) -> Value;
}

/// Deterministic default oracle: every produced value is an integer derived
/// by fingerprint-mixing the module code, the channel name and all input
/// values. Executions are thus reproducible — the property the paper says
/// provenance must protect.
#[derive(Clone, Debug, Default)]
pub struct HashOracle;

impl Oracle for HashOracle {
    fn initial(&mut self, channel: &str) -> Value {
        Value::Int(Value::str(channel).fingerprint() as i64)
    }

    fn eval(&mut self, module: &Module, inputs: &[(&str, &Value)], channel: &str) -> Value {
        let mut acc = Value::str(format!("{}/{}", module.code, channel)).fingerprint();
        for (ch, v) in inputs {
            acc = acc
                .rotate_left(13)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(Value::str(*ch).fingerprint())
                .wrapping_add(v.fingerprint());
        }
        Value::Int(acc as i64)
    }
}

/// Oracle producing a fixed value everywhere (useful in tests).
#[derive(Clone, Debug)]
pub struct ConstOracle(pub Value);

impl Oracle for ConstOracle {
    fn initial(&mut self, _channel: &str) -> Value {
        self.0.clone()
    }
    fn eval(&mut self, _m: &Module, _i: &[(&str, &Value)], _c: &str) -> Value {
        self.0.clone()
    }
}

/// Tie-breaking priorities for the completion traversal, which numbers data
/// items. Lower priority numbers pop first among simultaneously-ready nodes;
/// modules absent from the map fall back to node creation order (offset past
/// all explicit entries). Process ids tie-break by creation order alone.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    completion: HashMap<ModuleId, u32>,
}

impl Schedule {
    /// The default schedule: both traversals tie-break by creation order.
    pub fn canonical() -> Self {
        Schedule::default()
    }

    /// Set the completion (data production) tie-break order: earlier in
    /// `order` pops first. Errors on duplicate modules.
    pub fn with_completion_order(mut self, order: &[ModuleId]) -> Result<Self> {
        self.completion = index_map(order)?;
        Ok(self)
    }
}

fn index_map(order: &[ModuleId]) -> Result<HashMap<ModuleId, u32>> {
    let mut m = HashMap::with_capacity(order.len());
    for (i, &x) in order.iter().enumerate() {
        if m.insert(x, i as u32).is_some() {
            return Err(ModelError::BadSchedule {
                detail: format!("module {x} appears twice in schedule"),
            });
        }
    }
    Ok(m)
}

/// Runs a specification, producing an [`Execution`].
pub struct Executor<'s> {
    spec: &'s Specification,
    schedule: Schedule,
}

impl<'s> Executor<'s> {
    /// Executor with the canonical schedule.
    pub fn new(spec: &'s Specification) -> Self {
        Executor { spec, schedule: Schedule::canonical() }
    }

    /// Executor with an explicit labeling schedule.
    pub fn with_schedule(spec: &'s Specification, schedule: Schedule) -> Self {
        Executor { spec, schedule }
    }

    /// Execute, computing values through `oracle`.
    pub fn run(&self, oracle: &mut dyn Oracle) -> Result<Execution> {
        let spec = self.spec;

        // ---- Phase A: build the execution DAG structurally. --------------
        let mut graph: DiGraph<ExecNode, ExecEdge> = DiGraph::new();
        // Per module: its execution node(s).
        let mut begin_of: HashMap<ModuleId, u32> = HashMap::new();
        let mut end_of: HashMap<ModuleId, u32> = HashMap::new();

        let input = graph.add_node(ExecNode { proc: None, kind: ExecNodeKind::Input });
        // Instantiate modules recursively in insertion order so that node
        // creation order is the canonical tie-break order.
        fn instantiate(
            spec: &Specification,
            w: crate::ids::WorkflowId,
            graph: &mut DiGraph<ExecNode, ExecEdge>,
            begin_of: &mut HashMap<ModuleId, u32>,
            end_of: &mut HashMap<ModuleId, u32>,
        ) {
            let wf = spec.workflow(w);
            for &m in &wf.modules {
                let module = spec.module(m);
                match module.kind {
                    ModuleKind::Input | ModuleKind::Output => {}
                    ModuleKind::Atomic => {
                        let n =
                            graph.add_node(ExecNode { proc: None, kind: ExecNodeKind::Atomic(m) });
                        begin_of.insert(m, n);
                        end_of.insert(m, n);
                    }
                    ModuleKind::Composite(sub) => {
                        let b =
                            graph.add_node(ExecNode { proc: None, kind: ExecNodeKind::Begin(m) });
                        begin_of.insert(m, b);
                        instantiate(spec, sub, graph, begin_of, end_of);
                        let e = graph.add_node(ExecNode { proc: None, kind: ExecNodeKind::End(m) });
                        end_of.insert(m, e);
                    }
                }
            }
        }
        instantiate(spec, spec.root(), &mut graph, &mut begin_of, &mut end_of);
        let output = graph.add_node(ExecNode { proc: None, kind: ExecNodeKind::Output });

        // Edges mirror spec edges 1:1.
        for w in spec.workflows() {
            for &eid in &w.edges {
                let e = spec.edge(eid);
                let from = if e.from == w.input {
                    match w.parent {
                        None => input,
                        Some(pm) => begin_of[&pm],
                    }
                } else {
                    end_of[&e.from]
                };
                let to = if e.to == w.output {
                    match w.parent {
                        None => output,
                        Some(pm) => end_of[&pm],
                    }
                } else {
                    begin_of[&e.to]
                };
                graph.add_edge(from, to, ExecEdge { data: Vec::new(), spec_edge: eid });
            }
        }

        // ---- Phase B: proc ids in start order. ----------------------------
        let start_seq = kahn_with_priority(&graph, |n| (n, n));
        let mut procs: Vec<ProcInfo> = Vec::new();
        let mut proc_of_module: HashMap<ModuleId, ProcId> = HashMap::new();
        for &n in &start_seq {
            let kind = graph.node(n).kind;
            match kind {
                ExecNodeKind::Atomic(m) | ExecNodeKind::Begin(m) => {
                    let id = ProcId::new(procs.len());
                    procs.push(ProcInfo {
                        id,
                        module: m,
                        begin: NodeId::new(begin_of[&m] as usize),
                        end: NodeId::new(end_of[&m] as usize),
                    });
                    proc_of_module.insert(m, id);
                }
                _ => {}
            }
        }
        for p in &procs {
            graph.node_mut(p.begin.index() as u32).proc = Some(p.id);
            graph.node_mut(p.end.index() as u32).proc = Some(p.id);
        }

        // ---- Phase C: data items in completion order; routing + values. ---
        let completion_seq =
            kahn_with_priority(&graph, |n| node_priority(&graph, &self.schedule.completion, n));
        let mut data: Vec<DataItem> = Vec::new();
        for &n in &completion_seq {
            let kind = graph.node(n).kind;
            if kind.is_producer() {
                // Gather the input pool (in data-id order across in-edges).
                let mut pool: Vec<DataId> = graph
                    .in_edges(n)
                    .iter()
                    .flat_map(|&e| graph.edge(e).payload.data.iter().copied())
                    .collect();
                pool.sort();
                pool.dedup();
                // Clone the pool out of `data` so fresh items can be pushed
                // while the oracle still sees the inputs.
                let inputs_owned: Vec<(String, Value)> = pool
                    .iter()
                    .map(|&d| {
                        let item = &data[d.index()];
                        (item.channel.clone(), item.value.clone())
                    })
                    .collect();
                let inputs: Vec<(&str, &Value)> =
                    inputs_owned.iter().map(|(c, v)| (c.as_str(), v)).collect();
                // Produce one item per channel of each out-edge, in edge
                // insertion order (the spec's edge order).
                let out: Vec<u32> = graph.out_edges(n).to_vec();
                let mut produced: Vec<(u32, Vec<DataId>)> = Vec::with_capacity(out.len());
                for e in out {
                    let se = spec.edge(graph.edge(e).payload.spec_edge);
                    let mut items = Vec::with_capacity(se.channels.len());
                    for ch in &se.channels {
                        let id = DataId::new(data.len());
                        let value = match kind {
                            ExecNodeKind::Input => oracle.initial(ch),
                            ExecNodeKind::Atomic(m) => oracle.eval(spec.module(m), &inputs, ch),
                            _ => unreachable!(),
                        };
                        data.push(DataItem {
                            id,
                            producer: NodeId::new(n as usize),
                            channel: ch.clone(),
                            value,
                        });
                        items.push(id);
                    }
                    produced.push((e, items));
                }
                for (e, items) in produced {
                    graph.edge_payload_mut(e).data = items;
                }
            } else if !matches!(kind, ExecNodeKind::Output) {
                // Forwarder: route pool items to out-edges by channel name.
                let mut pool: Vec<DataId> = graph
                    .in_edges(n)
                    .iter()
                    .flat_map(|&e| graph.edge(e).payload.data.iter().copied())
                    .collect();
                pool.sort();
                pool.dedup();
                let out: Vec<u32> = graph.out_edges(n).to_vec();
                for e in out {
                    let se = spec.edge(graph.edge(e).payload.spec_edge);
                    let selected: Vec<DataId> = pool
                        .iter()
                        .copied()
                        .filter(|&d| se.channels.iter().any(|c| *c == data[d.index()].channel))
                        .collect();
                    graph.edge_payload_mut(e).data = selected;
                }
            }
        }

        let exec = Execution {
            spec_name: spec.name().to_string(),
            graph,
            data,
            procs,
            proc_of_module,
            input: NodeId::new(input as usize),
            output: NodeId::new(output as usize),
        };
        debug_assert!(exec.check_invariants().is_ok());
        Ok(exec)
    }
}

/// Priority key of node `n` under a schedule map: explicitly scheduled
/// modules rank by their schedule position; everything else falls back to
/// node creation order, offset past all explicit entries. The node index is
/// the final tie break (so a composite's begin precedes its end even when
/// both are ready).
fn node_priority(
    graph: &DiGraph<ExecNode, ExecEdge>,
    map: &HashMap<ModuleId, u32>,
    n: u32,
) -> (u32, u32) {
    let explicit = graph.node(n).kind.module().and_then(|m| map.get(&m)).copied();
    match explicit {
        Some(p) => (p, n),
        None => (map.len() as u32 + n, n),
    }
}

/// Kahn traversal with a custom priority; among simultaneously-ready nodes
/// the one with the smallest priority pops first. Returns the visit order.
fn kahn_with_priority<N, E>(
    graph: &DiGraph<N, E>,
    mut prio: impl FnMut(u32) -> (u32, u32),
) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = graph.node_count();
    let mut indeg: Vec<usize> = (0..n as u32).map(|i| graph.in_degree(i)).collect();
    let mut heap: BinaryHeap<Reverse<((u32, u32), u32)>> =
        (0..n as u32).filter(|&i| indeg[i as usize] == 0).map(|i| Reverse((prio(i), i))).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((_, u))) = heap.pop() {
        order.push(u);
        for &e in graph.out_edges(u) {
            let v = graph.edge(e).to;
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                heap.push(Reverse((prio(v), v)));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "execution graph must be a DAG");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecBuilder;

    fn linear_spec() -> Specification {
        let mut b = SpecBuilder::new("linear");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        let c = b.atomic(w, "C", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, a, c, &["y"]);
        b.edge(w, c, b.output(w), &["z"]);
        b.build().unwrap()
    }

    #[test]
    fn linear_execution() {
        let s = linear_spec();
        let exec = Executor::new(&s).run(&mut HashOracle).unwrap();
        assert_eq!(exec.proc_count(), 2);
        assert_eq!(exec.data_count(), 3); // x, y, z
        exec.check_invariants().unwrap();
        let a = s.find_module("A").unwrap().id;
        let c = s.find_module("C").unwrap().id;
        assert_eq!(exec.proc_of(a), Some(ProcId::new(0)));
        assert_eq!(exec.proc_of(c), Some(ProcId::new(1)));
        // d0 produced by input; d1 by A; d2 by C.
        assert_eq!(exec.data(DataId::new(0)).channel, "x");
        assert_eq!(exec.data(DataId::new(1)).channel, "y");
        assert_eq!(exec.data(DataId::new(2)).channel, "z");
    }

    #[test]
    fn composite_begin_end_nodes() {
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
        exec.check_invariants().unwrap();
        // Nodes: I, M begin, A, M end, O.
        assert_eq!(exec.graph().node_count(), 5);
        assert_eq!(exec.proc_count(), 2); // M and A
        let mid = s.find_module("M").unwrap().id;
        let p = exec.proc_of(mid).unwrap();
        let pi = exec.proc(p);
        assert_ne!(pi.begin, pi.end, "composite has distinct begin/end");
        assert_eq!(exec.graph().node(pi.begin.index() as u32).kind, ExecNodeKind::Begin(mid));
        // Data: x produced by I, forwarded via begin; y produced by A,
        // forwarded via end.
        assert_eq!(exec.data_count(), 2);
        let labels: Vec<String> = (0..5).map(|i| exec.node_label(&s, NodeId::new(i))).collect();
        assert!(labels.contains(&"S1:M1 begin".to_string()));
        assert!(labels.contains(&"S1:M1 end".to_string()));
    }

    #[test]
    fn forwarding_selects_by_channel_name() {
        // I sends p,q to composite; inner A consumes q only; inner B
        // consumes p only.
        let mut b = SpecBuilder::new("route");
        let w1 = b.root_workflow("W1");
        let (m, w2) = b.composite(w1, "M", "W2", &[]);
        b.edge(w1, b.input(w1), m, &["p", "q"]);
        b.edge(w1, m, b.output(w1), &["r"]);
        let a = b.atomic(w2, "A", &[]);
        let bb = b.atomic(w2, "B", &[]);
        b.edge(w2, b.input(w2), a, &["q"]);
        b.edge(w2, b.input(w2), bb, &["p"]);
        b.edge(w2, a, b.output(w2), &["r"]);
        b.edge(w2, bb, b.output(w2), &["r"]);
        let s = b.build().unwrap();
        let exec = Executor::new(&s).run(&mut HashOracle).unwrap();
        exec.check_invariants().unwrap();
        let _ = m;
        let na = exec.proc_of(s.find_module("A").unwrap().id).unwrap();
        let begin_a = exec.proc(na).begin;
        let incoming: Vec<DataId> = exec
            .graph()
            .in_edges(begin_a.index() as u32)
            .iter()
            .flat_map(|&e| exec.graph().edge(e).payload.data.clone())
            .collect();
        assert_eq!(incoming.len(), 1);
        assert_eq!(exec.data(incoming[0]).channel, "q");
    }

    #[test]
    fn completion_order_controls_data_ids() {
        // Same diamond; flip completion order of A and B and observe data
        // numbering change while proc ids stay canonical.
        let mut b = SpecBuilder::new("diamond2");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        let bb = b.atomic(w, "B", &[]);
        let c = b.atomic(w, "C", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, b.input(w), bb, &["y"]);
        b.edge(w, a, c, &["u"]);
        b.edge(w, bb, c, &["v"]);
        b.edge(w, c, b.output(w), &["z"]);
        let s = b.build().unwrap();

        let sched = Schedule::canonical().with_completion_order(&[bb, a]).unwrap();
        let exec = Executor::with_schedule(&s, sched).run(&mut HashOracle).unwrap();
        // d0=x, d1=y (input), then B completes first: d2=v, then A: d3=u.
        assert_eq!(exec.data(DataId::new(2)).channel, "v");
        assert_eq!(exec.data(DataId::new(3)).channel, "u");
        // Proc ids unaffected.
        assert_eq!(exec.proc_of(a), Some(ProcId::new(0)));
        assert_eq!(exec.proc_of(bb), Some(ProcId::new(1)));
        exec.check_invariants().unwrap();
        let _ = c;
    }

    #[test]
    fn duplicate_schedule_rejected() {
        let s = linear_spec();
        let a = s.find_module("A").unwrap().id;
        assert!(matches!(
            Schedule::canonical().with_completion_order(&[a, a]),
            Err(ModelError::BadSchedule { .. })
        ));
    }

    #[test]
    fn oracle_values_deterministic() {
        let s = linear_spec();
        let e1 = Executor::new(&s).run(&mut HashOracle).unwrap();
        let e2 = Executor::new(&s).run(&mut HashOracle).unwrap();
        for (a, b) in e1.data_items().zip(e2.data_items()) {
            assert_eq!(a.value, b.value);
        }
        let mut c = ConstOracle(Value::Int(7));
        let e3 = Executor::new(&s).run(&mut c).unwrap();
        assert!(e3.data_items().all(|d| d.value == Value::Int(7)));
    }

    #[test]
    fn sink_module_gets_data_but_produces_none() {
        let mut b = SpecBuilder::new("sink");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        let upd = b.atomic(w, "Update", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, a, upd, &["notes"]);
        b.edge(w, a, b.output(w), &["y"]);
        let s = b.build().unwrap();
        let exec = Executor::new(&s).run(&mut HashOracle).unwrap();
        exec.check_invariants().unwrap();
        assert_eq!(exec.data_count(), 3); // x, notes, y
        let upd_p = exec.proc_of(s.find_module("Update").unwrap().id).unwrap();
        let n = exec.proc(upd_p).begin;
        assert_eq!(exec.graph().out_degree(n.index() as u32), 0);
    }
}
