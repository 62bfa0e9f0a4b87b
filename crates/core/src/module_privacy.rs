//! Module privacy — Γ-privacy of module functionality (paper ref \[4\]:
//! Davidson, Khanna, Panigrahi, Roy, *Preserving Module Privacy in Workflow
//! Provenance*, arXiv:1005.5543).
//!
//! A module is modeled as a **relation**: a total function from a product of
//! small discrete input domains to a product of output domains. Provenance
//! normally publishes every input/output value of every execution, which —
//! repeated over many runs — reconstructs the function. The mechanism of
//! \[4\] hides a carefully chosen subset of the module's input/output
//! *attributes* in **all** executions so that for every input `x` the
//! adversary's candidate set of possible outputs keeps size at least Γ:
//!
//! > `OUT_x = { y : y is consistent with the visible attributes of some
//! > execution whose visible input projection matches x }`, and the module
//! > is Γ-private under visible set `V` iff `|OUT_x| ≥ Γ` for **every** `x`.
//!
//! Since attributes have different utility to provenance consumers, hiding
//! is weighted, and the optimization problem is: *find a minimum-cost hidden
//! subset achieving Γ-privacy* (NP-hard in general — it generalizes
//! set-cover-style problems). This module provides the exact exponential
//! search ([`exhaustive_min_hiding`]) for small modules and the greedy
//! marginal-gain heuristic ([`greedy_min_hiding`]) the benchmarks compare
//! against it (experiment E2).
//!
//! For privacy **in workflows**, hidden attributes propagate along shared
//! data: an item hidden as one module's output must also be hidden as its
//! consumers' input. [`Network`] wires relations into a DAG, maps a hidden
//! item set onto each module's attributes, and [`Network::empirical_gamma`]
//! measures the privacy level actually achieved against a full-visible-row
//! adversary (which captures downstream-correlation leakage that per-module
//! analysis misses).

use ppwf_model::bitset::BitSet;
use std::collections::HashMap;

/// A module as a total function over discrete attribute domains.
///
/// Attributes are indexed `0..in_arity` (inputs) then
/// `in_arity..in_arity+out_arity` (outputs).
#[derive(Clone, Debug)]
pub struct Relation {
    name: String,
    in_domains: Vec<u16>,
    out_domains: Vec<u16>,
    /// Output tuple per input index (mixed-radix encoding of input tuples).
    rows: Vec<Vec<u16>>,
}

impl Relation {
    /// Build from an explicit function. `f` receives each input tuple and
    /// must return `out_domains.len()` values, each within its domain.
    pub fn from_fn(
        name: impl Into<String>,
        in_domains: &[u16],
        out_domains: &[u16],
        mut f: impl FnMut(&[u16]) -> Vec<u16>,
    ) -> Self {
        assert!(!in_domains.is_empty(), "relation needs at least one input");
        assert!(!out_domains.is_empty(), "relation needs at least one output");
        assert!(in_domains.iter().all(|&d| d >= 1));
        assert!(out_domains.iter().all(|&d| d >= 1));
        let n: usize = in_domains.iter().map(|&d| d as usize).product();
        assert!(n <= 1 << 22, "input space too large to tabulate");
        let mut rows = Vec::with_capacity(n);
        let mut x = vec![0u16; in_domains.len()];
        for idx in 0..n {
            decode_mixed(idx, in_domains, &mut x);
            let y = f(&x);
            assert_eq!(y.len(), out_domains.len(), "wrong output arity from f");
            for (v, &d) in y.iter().zip(out_domains) {
                assert!(*v < d, "output value {v} outside domain {d}");
            }
            rows.push(y);
        }
        Relation {
            name: name.into(),
            in_domains: in_domains.to_vec(),
            out_domains: out_domains.to_vec(),
            rows,
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input attributes.
    pub fn in_arity(&self) -> usize {
        self.in_domains.len()
    }

    /// Number of output attributes.
    pub fn out_arity(&self) -> usize {
        self.out_domains.len()
    }

    /// Total number of attributes (inputs then outputs).
    pub fn attr_count(&self) -> usize {
        self.in_arity() + self.out_arity()
    }

    /// Domain size of attribute `a`.
    pub fn domain(&self, a: usize) -> u16 {
        if a < self.in_arity() {
            self.in_domains[a]
        } else {
            self.out_domains[a - self.in_arity()]
        }
    }

    /// Number of distinct input tuples.
    pub fn input_count(&self) -> usize {
        self.rows.len()
    }

    /// Evaluate on the input tuple with mixed-radix index `idx`.
    pub fn eval_index(&self, idx: usize) -> &[u16] {
        &self.rows[idx]
    }

    /// Evaluate on an explicit input tuple.
    pub fn eval(&self, x: &[u16]) -> &[u16] {
        &self.rows[encode_mixed(x, &self.in_domains)]
    }

    /// Product of the domains of **hidden output** attributes under
    /// `visible` — the free-completion factor of `|OUT_x|`.
    fn hidden_out_product(&self, visible: &BitSet) -> u64 {
        let mut p: u64 = 1;
        for o in 0..self.out_arity() {
            if !visible.contains(self.in_arity() + o) {
                p = p.saturating_mul(self.out_domains[o] as u64);
            }
        }
        p
    }

    /// For every input `x`, `|OUT_x|` under the visible attribute set;
    /// returns the minimum over all inputs (the module's privacy level).
    ///
    /// `|OUT_x|` = (number of distinct visible-output projections among
    /// inputs agreeing with `x` on visible inputs) × (product of hidden
    /// output domains).
    pub fn min_possible_outputs(&self, visible: &BitSet) -> u64 {
        assert_eq!(visible.capacity(), self.attr_count(), "visible set arity mismatch");
        let vis_in: Vec<usize> = (0..self.in_arity()).filter(|&a| visible.contains(a)).collect();
        let vis_out: Vec<usize> =
            (0..self.out_arity()).filter(|&o| visible.contains(self.in_arity() + o)).collect();
        let free = self.hidden_out_product(visible);

        // Group inputs by visible input projection; per group, count
        // distinct visible output projections.
        let mut groups: HashMap<Vec<u16>, std::collections::HashSet<Vec<u16>>> = HashMap::new();
        let mut x = vec![0u16; self.in_arity()];
        for idx in 0..self.rows.len() {
            decode_mixed(idx, &self.in_domains, &mut x);
            let key: Vec<u16> = vis_in.iter().map(|&a| x[a]).collect();
            let proj: Vec<u16> = vis_out.iter().map(|&o| self.rows[idx][o]).collect();
            groups.entry(key).or_default().insert(proj);
        }
        groups.values().map(|outs| (outs.len() as u64).saturating_mul(free)).min().unwrap_or(free)
    }

    /// Γ-privacy test under `visible`.
    pub fn is_gamma_private(&self, visible: &BitSet, gamma: u64) -> bool {
        self.min_possible_outputs(visible) >= gamma
    }

    /// The total output space size — an upper bound on any achievable Γ.
    pub fn output_space(&self) -> u64 {
        self.out_domains.iter().map(|&d| d as u64).product()
    }
}

fn decode_mixed(mut idx: usize, domains: &[u16], out: &mut [u16]) {
    for (i, &d) in domains.iter().enumerate() {
        out[i] = (idx % d as usize) as u16;
        idx /= d as usize;
    }
}

fn encode_mixed(x: &[u16], domains: &[u16]) -> usize {
    let mut idx = 0usize;
    for i in (0..domains.len()).rev() {
        debug_assert!(x[i] < domains[i]);
        idx = idx * domains[i] as usize + x[i] as usize;
    }
    idx
}

/// A hiding solution: which attributes to hide, at what cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HidingSolution {
    /// Hidden attribute set (complement of the visible set).
    pub hidden: BitSet,
    /// Total weight of hidden attributes.
    pub cost: u64,
    /// Number of candidate subsets / privacy evaluations performed.
    pub evaluations: usize,
}

fn visible_from_hidden(hidden: &BitSet) -> BitSet {
    let mut v = BitSet::full(hidden.capacity());
    v.difference_with(hidden);
    v
}

fn cost_of(hidden: &BitSet, weights: &[u64]) -> u64 {
    hidden.iter().map(|a| weights[a]).sum()
}

/// Exact minimum-cost Γ-private hiding by subset enumeration (2^attrs).
/// Returns `None` when even hiding everything cannot reach Γ (Γ exceeds the
/// output space). Intended for modules with ≤ ~20 attributes.
pub fn exhaustive_min_hiding(
    rel: &Relation,
    weights: &[u64],
    gamma: u64,
) -> Option<HidingSolution> {
    let k = rel.attr_count();
    assert_eq!(weights.len(), k, "one weight per attribute");
    assert!(k <= 24, "exhaustive search limited to 24 attributes");
    if rel.output_space() < gamma {
        return None; // Γ exceeds the output space: unattainable
    }
    let mut best: Option<(u64, BitSet)> = None;
    let mut evaluations = 0usize;
    for mask in 0u32..(1u32 << k) {
        let hidden = BitSet::from_iter(k, (0..k).filter(|&a| mask & (1 << a) != 0));
        let cost = cost_of(&hidden, weights);
        if let Some((bc, _)) = &best {
            if cost >= *bc {
                continue;
            }
        }
        evaluations += 1;
        if rel.is_gamma_private(&visible_from_hidden(&hidden), gamma) {
            best = Some((cost, hidden));
        }
    }
    best.map(|(cost, hidden)| HidingSolution { hidden, cost, evaluations })
}

/// Greedy minimum-cost Γ-private hiding: repeatedly hide the attribute with
/// the best marginal privacy gain per unit weight, then shrink the solution
/// by un-hiding attributes that turn out unnecessary. Polynomial, and in
/// practice close to optimal (experiment E2 quantifies the gap).
pub fn greedy_min_hiding(rel: &Relation, weights: &[u64], gamma: u64) -> Option<HidingSolution> {
    let k = rel.attr_count();
    assert_eq!(weights.len(), k, "one weight per attribute");
    if rel.output_space() < gamma {
        return None;
    }
    let mut hidden = BitSet::new(k);
    let mut evaluations = 0usize;
    let mut current = rel.min_possible_outputs(&visible_from_hidden(&hidden));
    evaluations += 1;
    while current < gamma {
        let mut pick: Option<(f64, u64, usize, u64)> = None; // (score, weight, attr, new)
        for (a, &weight) in weights.iter().enumerate().take(k) {
            if hidden.contains(a) {
                continue;
            }
            let mut trial = hidden.clone();
            trial.insert(a);
            let v = rel.min_possible_outputs(&visible_from_hidden(&trial));
            evaluations += 1;
            let gain = (v.max(1) as f64).ln() - (current.max(1) as f64).ln();
            let w = weight.max(1);
            let score = gain / w as f64;
            let better = match &pick {
                None => true,
                Some((s, bw, _, _)) => {
                    score > *s + 1e-12 || ((score - *s).abs() <= 1e-12 && w < *bw)
                }
            };
            if better {
                pick = Some((score, w, a, v));
            }
        }
        let (_, _, attr, v) = pick.expect("some attribute is always available to hide");
        hidden.insert(attr);
        current = v;
        if hidden.len() == k && current < gamma {
            return None; // defensive; output_space check should prevent this
        }
    }
    // Reverse pass: drop attributes whose hiding is no longer needed,
    // costliest first.
    let mut order: Vec<usize> = hidden.iter().collect();
    order.sort_by_key(|&a| std::cmp::Reverse(weights[a]));
    for a in order {
        let mut trial = hidden.clone();
        trial.remove(a);
        evaluations += 1;
        if rel.is_gamma_private(&visible_from_hidden(&trial), gamma) {
            hidden = trial;
        }
    }
    let cost = cost_of(&hidden, weights);
    Some(HidingSolution { hidden, cost, evaluations })
}

// ---------------------------------------------------------------------------
// Module networks (workflow-level privacy)
// ---------------------------------------------------------------------------

/// Where a module input comes from in a [`Network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// External workflow input with the given index.
    External(usize),
    /// Output attribute `out_attr` of an upstream module.
    Wire {
        /// Producing module index.
        module: usize,
        /// Output attribute index within the producer.
        out_attr: usize,
    },
}

/// A DAG of relations wired output-to-input — the workflow of \[4\]'s
/// composition theorems, with every intermediate value a *data item*.
///
/// Item numbering: external inputs first (`0..n_ext`), then each module's
/// outputs in module order.
#[derive(Clone, Debug)]
pub struct Network {
    relations: Vec<Relation>,
    sources: Vec<Vec<Source>>,
    n_external: usize,
    external_domains: Vec<u16>,
}

impl Network {
    /// Assemble a network. `sources[i]` must list one [`Source`] per input
    /// attribute of `relations[i]`, referencing only earlier modules
    /// (topological construction order).
    pub fn new(
        relations: Vec<Relation>,
        sources: Vec<Vec<Source>>,
        external_domains: Vec<u16>,
    ) -> Self {
        assert_eq!(relations.len(), sources.len());
        for (i, (rel, src)) in relations.iter().zip(&sources).enumerate() {
            assert_eq!(rel.in_arity(), src.len(), "module {i} wiring arity mismatch");
            for s in src {
                match *s {
                    Source::External(e) => {
                        assert!(e < external_domains.len(), "module {i}: bad external index")
                    }
                    Source::Wire { module, out_attr } => {
                        assert!(module < i, "module {i}: wire from non-earlier module");
                        assert!(
                            out_attr < relations[module].out_arity(),
                            "module {i}: bad out_attr"
                        );
                    }
                }
            }
        }
        let n_external = external_domains.len();
        Network { relations, sources, n_external, external_domains }
    }

    /// Number of modules.
    pub fn module_count(&self) -> usize {
        self.relations.len()
    }

    /// The relation of module `i`.
    pub fn relation(&self, i: usize) -> &Relation {
        &self.relations[i]
    }

    /// Total number of data items (externals + every module output).
    pub fn item_count(&self) -> usize {
        self.n_external + self.relations.iter().map(|r| r.out_arity()).sum::<usize>()
    }

    /// Item index of output `out_attr` of module `i`.
    pub fn output_item(&self, i: usize, out_attr: usize) -> usize {
        let mut base = self.n_external;
        for r in &self.relations[..i] {
            base += r.out_arity();
        }
        base + out_attr
    }

    /// Item index feeding input `in_attr` of module `i`.
    pub fn input_item(&self, i: usize, in_attr: usize) -> usize {
        match self.sources[i][in_attr] {
            Source::External(e) => e,
            Source::Wire { module, out_attr } => self.output_item(module, out_attr),
        }
    }

    /// Number of distinct external input tuples.
    pub fn external_count(&self) -> usize {
        self.external_domains.iter().map(|&d| d as usize).product()
    }

    /// Run the network on external tuple index `idx`, returning all item
    /// values (externals then module outputs).
    pub fn run(&self, idx: usize) -> Vec<u16> {
        let mut items = vec![0u16; self.item_count()];
        decode_mixed(idx, &self.external_domains, &mut items[..self.n_external]);
        for i in 0..self.relations.len() {
            let x: Vec<u16> =
                (0..self.relations[i].in_arity()).map(|a| items[self.input_item(i, a)]).collect();
            let y = self.relations[i].eval(&x).to_vec();
            for (o, v) in y.into_iter().enumerate() {
                items[self.output_item(i, o)] = v;
            }
        }
        items
    }

    /// Empirical workflow privacy of module `i` under a hidden item set,
    /// using the **operational definition of \[4\]** lifted to the workflow's
    /// visible execution table: executions are grouped by the visible
    /// projection of module `i`'s *input* items; within a group the
    /// candidate outputs are the distinct visible projections of module
    /// `i`'s *output* items, times free completions of its hidden outputs.
    /// The reported value is the minimum over all executions.
    ///
    /// This ignores side information carried by other columns — which is
    /// exactly the assumption \[4\]'s composition theorems justify for
    /// all-private workflows; [`Network::empirical_gamma_strict`] measures
    /// what a stronger adversary extracts when that assumption fails.
    pub fn empirical_gamma(&self, i: usize, hidden_items: &BitSet) -> u64 {
        assert_eq!(hidden_items.capacity(), self.item_count());
        let rel = &self.relations[i];
        let vis_in_items: Vec<usize> = (0..rel.in_arity())
            .map(|a| self.input_item(i, a))
            .filter(|&it| !hidden_items.contains(it))
            .collect();
        let vis_out_items: Vec<usize> = (0..rel.out_arity())
            .map(|o| self.output_item(i, o))
            .filter(|&it| !hidden_items.contains(it))
            .collect();
        let mut free: u64 = 1;
        for o in 0..rel.out_arity() {
            if hidden_items.contains(self.output_item(i, o)) {
                free = free.saturating_mul(rel.out_domains[o] as u64);
            }
        }
        let n = self.external_count();
        let mut groups: HashMap<Vec<u16>, std::collections::HashSet<Vec<u16>>> =
            HashMap::with_capacity(n);
        for idx in 0..n {
            let items = self.run(idx);
            let key: Vec<u16> = vis_in_items.iter().map(|&it| items[it]).collect();
            let proj: Vec<u16> = vis_out_items.iter().map(|&it| items[it]).collect();
            groups.entry(key).or_default().insert(proj);
        }
        groups.values().map(|outs| (outs.len() as u64).saturating_mul(free)).min().unwrap_or(free)
    }

    /// Strict empirical privacy of module `i`: the ambiguity a worst-case
    /// adversary retains, one who knows **every module function** and the
    /// network wiring, and observes the visible projection of every item of
    /// every execution. Executions are grouped by their full visible row;
    /// the candidate set for a run is the set of *actual* output tuples of
    /// module `i` across indistinguishable runs (no free completions — a
    /// known-function adversary derives hidden values when they are
    /// determined).
    ///
    /// Always ≤ [`Network::empirical_gamma`]; the gap quantifies how much
    /// the standalone assumption over-promises (the ablation in E2).
    pub fn empirical_gamma_strict(&self, i: usize, hidden_items: &BitSet) -> u64 {
        assert_eq!(hidden_items.capacity(), self.item_count());
        let rel = &self.relations[i];
        let out_items: Vec<usize> = (0..rel.out_arity()).map(|o| self.output_item(i, o)).collect();
        let n = self.external_count();
        let mut groups: HashMap<Vec<u16>, std::collections::HashSet<Vec<u16>>> =
            HashMap::with_capacity(n);
        for idx in 0..n {
            let items = self.run(idx);
            let visible_row: Vec<u16> = (0..self.item_count())
                .map(|it| if hidden_items.contains(it) { u16::MAX } else { items[it] })
                .collect();
            let outs: Vec<u16> = out_items.iter().map(|&it| items[it]).collect();
            groups.entry(visible_row).or_default().insert(outs);
        }
        groups.values().map(|outs| outs.len() as u64).min().unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hidden-attribute view module `i` of `n` experiences under a
    /// hidden item set (its input/output attributes mapped through the
    /// wiring): what the standalone analysis of that module is given.
    fn module_hidden_attrs(n: &Network, i: usize, hidden_items: &BitSet) -> BitSet {
        let rel = n.relation(i);
        let mut h = BitSet::new(rel.attr_count());
        for a in 0..rel.in_arity() {
            if hidden_items.contains(n.input_item(i, a)) {
                h.insert(a);
            }
        }
        for o in 0..rel.out_arity() {
            if hidden_items.contains(n.output_item(i, o)) {
                h.insert(rel.in_arity() + o);
            }
        }
        h
    }

    /// Boolean XOR with a copy output: (a, b) → (a ⊕ b, a).
    fn xor_copy() -> Relation {
        Relation::from_fn("xor_copy", &[2, 2], &[2, 2], |x| vec![x[0] ^ x[1], x[0]])
    }

    /// Constant module: everything maps to 0.
    fn constant() -> Relation {
        Relation::from_fn("const", &[2, 2], &[2], |_| vec![0])
    }

    #[test]
    fn tabulation_and_eval() {
        let r = xor_copy();
        assert_eq!(r.input_count(), 4);
        assert_eq!(r.attr_count(), 4);
        assert_eq!(r.eval(&[1, 1]), &[0, 1]);
        assert_eq!(r.eval(&[0, 1]), &[1, 0]);
        assert_eq!(r.output_space(), 4);
        assert_eq!(r.domain(0), 2);
    }

    #[test]
    fn fully_visible_has_no_privacy() {
        let r = xor_copy();
        let all = BitSet::full(4);
        assert_eq!(r.min_possible_outputs(&all), 1);
        assert!(r.is_gamma_private(&all, 1));
        assert!(!r.is_gamma_private(&all, 2));
    }

    #[test]
    fn hiding_outputs_multiplies_candidates() {
        let r = xor_copy();
        // Hide both outputs: every input has 4 possible outputs.
        let visible = BitSet::from_iter(4, [0usize, 1]);
        assert_eq!(r.min_possible_outputs(&visible), 4);
    }

    #[test]
    fn hiding_one_input_merges_groups() {
        let r = xor_copy();
        // Hide input b (attr 1): inputs (a,0) and (a,1) are indistinguishable;
        // visible outputs (a⊕b, a) differ in the first coordinate → 2
        // candidate outputs per input.
        let mut visible = BitSet::full(4);
        visible.remove(1);
        assert_eq!(r.min_possible_outputs(&visible), 2);
    }

    #[test]
    fn constant_module_cannot_reach_gamma_2() {
        // A constant function has output space 1: no hiding reaches Γ = 2
        // by visible-group counting, but hiding the output attribute frees
        // 2 completions.
        let r = constant();
        let mut visible = BitSet::full(3);
        assert_eq!(r.min_possible_outputs(&visible), 1);
        visible.remove(2); // hide the output
        assert_eq!(r.min_possible_outputs(&visible), 2);
        // Γ = 4 is beyond the output space: both solvers must refuse.
        assert!(exhaustive_min_hiding(&r, &[1, 1, 1], 4).is_none());
        assert!(greedy_min_hiding(&r, &[1, 1, 1], 4).is_none());
    }

    #[test]
    fn exhaustive_finds_minimum_cost() {
        let r = xor_copy();
        // Γ = 2. Candidates: hide output a-copy (attr 3, weight 1)? Check:
        // visible = {0,1,2}: groups are singletons, 1 visible-output value
        // each, free = 2 → OUT = 2 ✓. So optimal cost = weight of attr 3.
        let weights = [10, 10, 10, 1];
        let sol = exhaustive_min_hiding(&r, &weights, 2).unwrap();
        assert_eq!(sol.cost, 1);
        assert_eq!(sol.hidden.iter().collect::<Vec<_>>(), vec![3]);
        // Greedy matches the optimum here.
        let g = greedy_min_hiding(&r, &weights, 2).unwrap();
        assert_eq!(g.cost, 1);
    }

    #[test]
    fn greedy_is_gamma_private_and_bounded() {
        let r = xor_copy();
        for gamma in [1u64, 2, 4] {
            for weights in [[1u64, 1, 1, 1], [5, 4, 3, 2], [1, 9, 9, 1]] {
                let ex = exhaustive_min_hiding(&r, &weights, gamma).unwrap();
                let gr = greedy_min_hiding(&r, &weights, gamma).unwrap();
                let vis = visible_from_hidden(&gr.hidden);
                assert!(r.is_gamma_private(&vis, gamma), "greedy must satisfy Γ");
                assert!(gr.cost >= ex.cost, "exhaustive is optimal");
                assert!(gr.evaluations <= ex.evaluations * 4 + 64);
            }
        }
    }

    #[test]
    fn gamma_one_needs_no_hiding() {
        let r = xor_copy();
        let sol = exhaustive_min_hiding(&r, &[1; 4], 1).unwrap();
        assert_eq!(sol.cost, 0);
        assert!(sol.hidden.is_empty());
        let g = greedy_min_hiding(&r, &[1; 4], 1).unwrap();
        assert_eq!(g.cost, 0);
    }

    // -- networks ----------------------------------------------------------

    /// Two xor_copy modules chained: m0(e0, e1); m1(m0.out0, e2).
    fn chain_network() -> Network {
        Network::new(
            vec![xor_copy(), xor_copy()],
            vec![
                vec![Source::External(0), Source::External(1)],
                vec![Source::Wire { module: 0, out_attr: 0 }, Source::External(2)],
            ],
            vec![2, 2, 2],
        )
    }

    #[test]
    fn network_runs_and_items() {
        let n = chain_network();
        assert_eq!(n.module_count(), 2);
        assert_eq!(n.item_count(), 3 + 2 + 2);
        assert_eq!(n.external_count(), 8);
        // e=(1,0,1): m0 → (1,1); m1(xor(1,1)=0 wait: m1 inputs (1, 1) →
        // (0, 1).
        let items = n.run(0b101); // e0=1, e1=0, e2=1
        assert_eq!(&items[..3], &[1, 0, 1]);
        assert_eq!(&items[3..5], &[1, 1]); // m0: (1⊕0, 1)
        assert_eq!(&items[5..7], &[0, 1]); // m1: (1⊕1, 1)
        assert_eq!(n.input_item(1, 0), n.output_item(0, 0), "wire identity");
    }

    #[test]
    fn empirical_gamma_fully_visible_is_one() {
        let n = chain_network();
        let hidden = BitSet::new(n.item_count());
        assert_eq!(n.empirical_gamma(0, &hidden), 1);
        assert_eq!(n.empirical_gamma(1, &hidden), 1);
    }

    #[test]
    fn empirical_gamma_with_hidden_outputs() {
        let n = chain_network();
        // Hide both outputs of m1: free factor 4 regardless of grouping.
        let mut hidden = BitSet::new(n.item_count());
        hidden.insert(n.output_item(1, 0));
        hidden.insert(n.output_item(1, 1));
        assert_eq!(n.empirical_gamma(1, &hidden), 4);
    }

    #[test]
    fn surrogate_matches_standalone_on_module_columns() {
        // Hide m0's outputs: the [4]-style surrogate sees Γ = 4 for m0,
        // exactly like its standalone analysis.
        let n = chain_network();
        let mut hidden = BitSet::new(n.item_count());
        hidden.insert(n.output_item(0, 0));
        hidden.insert(n.output_item(0, 1));
        assert_eq!(n.empirical_gamma(0, &hidden), 4);
        let h0 = module_hidden_attrs(&n, 0, &hidden);
        let vis0 = visible_from_hidden(&h0);
        assert_eq!(n.relation(0).min_possible_outputs(&vis0), 4);
    }

    #[test]
    fn strict_adversary_exploits_downstream_copies() {
        // Hide e0, e1 and m0's outputs. m1 copies its first input into its
        // visible output y1, so a known-function adversary recovers
        // m0.out0 = y1 exactly; only m0.out1 stays ambiguous (2 choices).
        let n = chain_network();
        let mut hidden = BitSet::new(n.item_count());
        hidden.insert(0); // e0
        hidden.insert(1); // e1
        hidden.insert(n.output_item(0, 0));
        hidden.insert(n.output_item(0, 1));
        assert_eq!(n.empirical_gamma_strict(0, &hidden), 2);
        // The surrogate still reports the standalone promise of 4.
        assert_eq!(n.empirical_gamma(0, &hidden), 4);
    }

    #[test]
    fn strict_adversary_defeated_by_wider_hiding() {
        // Additionally hiding m1's outputs (which derive from m0's) removes
        // every derivation path: all four m0 outputs stay possible.
        let n = chain_network();
        let mut hidden = BitSet::new(n.item_count());
        hidden.insert(0); // e0
        hidden.insert(1); // e1
        hidden.insert(n.output_item(0, 0));
        hidden.insert(n.output_item(0, 1));
        hidden.insert(n.output_item(1, 0)); // y0 = x0 ⊕ e2 with e2 visible
        hidden.insert(n.output_item(1, 1)); // y1 = x0
        assert_eq!(n.empirical_gamma_strict(0, &hidden), 4);
    }

    #[test]
    fn strict_never_exceeds_surrogate() {
        let n = chain_network();
        // Sweep a few hiding patterns and check the dominance invariant.
        for mask in 0u32..(1 << 7) {
            let hidden =
                BitSet::from_iter(n.item_count(), (0..7).filter(|&b| mask & (1 << b) != 0));
            for i in 0..n.module_count() {
                assert!(
                    n.empirical_gamma_strict(i, &hidden) <= n.empirical_gamma(i, &hidden),
                    "dominance violated for mask {mask:#b}, module {i}"
                );
            }
        }
    }
}
