//! Random hierarchical workflow specifications.
//!
//! The generator produces specifications with the same structural features
//! as the paper's Fig. 1: layered DAG workflows, composite modules with
//! τ-expansions forming a hierarchy, named channels routed through
//! composite boundaries, and Zipf-skewed keyword annotations. Every knob
//! the experiments sweep (size, depth, density, skew) is a field of
//! [`SpecParams`]; generation is deterministic in the seed.

use crate::zipf::Zipf;
use ppwf_model::ids::{ModuleId, WorkflowId};
use ppwf_model::spec::{SpecBuilder, Specification};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for [`generate_spec`].
#[derive(Clone, Debug)]
pub struct SpecParams {
    /// RNG seed — equal params and seed ⇒ identical specification.
    pub seed: u64,
    /// Proper modules per workflow (inclusive range).
    pub modules_per_workflow: (usize, usize),
    /// Probability that a module is composite (until budgets run out).
    pub composite_fraction: f64,
    /// Maximum expansion-hierarchy depth (root = 0).
    pub max_depth: u32,
    /// Hard cap on the number of workflows.
    pub max_workflows: usize,
    /// Expected extra forward edges per module beyond the connectivity
    /// spine (density knob).
    pub extra_edges_per_module: f64,
    /// Keyword vocabulary size.
    pub vocabulary: usize,
    /// Keywords annotated on each module.
    pub keywords_per_module: usize,
    /// Zipf exponent of keyword selection.
    pub zipf_skew: f64,
}

impl Default for SpecParams {
    fn default() -> Self {
        SpecParams {
            seed: 1,
            modules_per_workflow: (4, 8),
            composite_fraction: 0.25,
            max_depth: 3,
            max_workflows: 16,
            extra_edges_per_module: 0.5,
            vocabulary: 64,
            keywords_per_module: 2,
            zipf_skew: 1.1,
        }
    }
}

impl SpecParams {
    /// Convenience: scale the default shape to roughly `n` modules total.
    pub fn sized(seed: u64, n: usize) -> Self {
        let per = ((n as f64).sqrt().ceil() as usize).clamp(3, 24);
        SpecParams {
            seed,
            modules_per_workflow: (per.max(3), per + 2),
            max_workflows: (n / per).max(1),
            ..SpecParams::default()
        }
    }
}

/// The vocabulary term with rank `r`.
pub fn keyword(rank: usize) -> String {
    format!("kw{rank}")
}

/// Generate a random hierarchical specification.
pub fn generate_spec(params: &SpecParams) -> Specification {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let zipf = Zipf::new(params.vocabulary.max(1), params.zipf_skew);
    let mut b = SpecBuilder::new(format!("synthetic-{}", params.seed));
    let root = b.root_workflow("W1");

    // Root external channels.
    let root_inputs: Vec<String> = (0..rng.gen_range(1..=3)).map(|i| format!("in{i}")).collect();
    let root_outputs = vec!["out".to_string()];

    let mut workflow_budget = params.max_workflows.saturating_sub(1);
    // Queue of workflows to populate: (workflow, depth, input channel names,
    // output channel names).
    let mut queue: Vec<(WorkflowId, u32, Vec<String>, Vec<String>)> =
        vec![(root, 0, root_inputs, root_outputs)];
    let mut wf_counter = 1usize;

    while let Some((w, depth, in_channels, out_channels)) = queue.pop() {
        let k = rng.gen_range(params.modules_per_workflow.0..=params.modules_per_workflow.1);
        let mut modules: Vec<ModuleId> = Vec::with_capacity(k);
        // Outgoing channel names produced by each module (unique per edge).
        let mut chan_counter = 0usize;
        let fresh = |chan_counter: &mut usize| {
            let c = format!("w{}c{}", w.index(), *chan_counter);
            *chan_counter += 1;
            c
        };

        // Create modules (composites decided up front).
        let mut subworkflows: Vec<(usize, WorkflowId)> = Vec::new();
        for i in 0..k {
            let kws: Vec<String> =
                (0..params.keywords_per_module).map(|_| keyword(zipf.sample(&mut rng))).collect();
            let kw_refs: Vec<&str> = kws.iter().map(|s| s.as_str()).collect();
            let make_composite = workflow_budget > 0
                && depth < params.max_depth
                && rng.gen_bool(params.composite_fraction);
            let name = format!("module w{}m{i}", w.index());
            if make_composite {
                wf_counter += 1;
                let (m, sub) = b.composite(w, &name, &format!("W{wf_counter}"), &kw_refs);
                workflow_budget -= 1;
                modules.push(m);
                subworkflows.push((i, sub));
            } else {
                modules.push(b.atomic(w, &name, &kw_refs));
            }
        }

        // Connectivity spine: module i fed either from the workflow input
        // (selecting a random subset of its channels) or from an earlier
        // module via a fresh channel.
        let input = b.input(w);
        let output = b.output(w);
        // Track in/out channel names per module for composite wiring.
        let mut inbound: Vec<Vec<String>> = vec![Vec::new(); k];
        for i in 0..k {
            if i == 0 || rng.gen_bool(0.3) {
                let take = rng.gen_range(1..=in_channels.len());
                let chans: Vec<&str> = in_channels.iter().take(take).map(|s| s.as_str()).collect();
                b.edge(w, input, modules[i], &chans);
                inbound[i].extend(chans.iter().map(|s| s.to_string()));
            } else {
                let j = rng.gen_range(0..i);
                let c = fresh(&mut chan_counter);
                b.edge(w, modules[j], modules[i], &[c.as_str()]);
                inbound[i].push(c);
            }
        }
        // Extra forward edges.
        let extra = (params.extra_edges_per_module * k as f64).round() as usize;
        for _ in 0..extra {
            if k < 2 {
                break;
            }
            let j = rng.gen_range(0..k - 1);
            let i = rng.gen_range(j + 1..k);
            let c = fresh(&mut chan_counter);
            b.edge(w, modules[j], modules[i], &[c.as_str()]);
            inbound[i].push(c);
        }
        // The last module produces the workflow outputs.
        let out_refs: Vec<&str> = out_channels.iter().map(|s| s.as_str()).collect();
        b.edge(w, modules[k - 1], output, &out_refs);

        // Queue subworkflows: they receive their composite's inbound
        // channels and must produce the channels on its outbound edges.
        for (i, sub) in subworkflows {
            // Outbound channels of module i: scan edges later — instead we
            // record what we know: composite i's outbound edges are the
            // fresh channels created above where it was the source, plus
            // possibly the workflow output. Collect from the builder state
            // via the recorded names.
            let outs = outgoing_channels(&b, modules[i]);
            queue.push((sub, depth + 1, inbound[i].clone(), outs));
        }
    }

    b.build().expect("generated specification must validate")
}

/// Channels on the outgoing edges of `m`, according to the builder's
/// current state.
fn outgoing_channels(b: &SpecBuilder, m: ModuleId) -> Vec<String> {
    let mut outs = Vec::new();
    for e in b.edges_snapshot() {
        if e.from == m {
            outs.extend(e.channels.iter().cloned());
        }
    }
    if outs.is_empty() {
        outs.push("unused".to_string());
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_model::exec::{Executor, HashOracle};
    use ppwf_model::hierarchy::ExpansionHierarchy;

    #[test]
    fn deterministic_generation() {
        let p = SpecParams::default();
        let a = generate_spec(&p);
        let b = generate_spec(&p);
        assert_eq!(a.module_count(), b.module_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.workflow_count(), b.workflow_count());
        let c = generate_spec(&SpecParams { seed: 2, ..p });
        // Overwhelmingly likely to differ in some dimension.
        assert!(
            a.module_count() != c.module_count()
                || a.edge_count() != c.edge_count()
                || a.workflow_count() != c.workflow_count()
        );
    }

    #[test]
    fn respects_budgets() {
        let p = SpecParams {
            max_workflows: 5,
            max_depth: 2,
            composite_fraction: 0.9,
            ..SpecParams::default()
        };
        let s = generate_spec(&p);
        assert!(s.workflow_count() <= 5);
        let h = ExpansionHierarchy::of(&s);
        assert!(h.max_depth() <= 2);
    }

    #[test]
    fn generated_specs_execute() {
        for seed in 0..8 {
            let p = SpecParams { seed, ..SpecParams::default() };
            let s = generate_spec(&p);
            let exec = Executor::new(&s).run(&mut HashOracle).unwrap();
            exec.check_invariants().unwrap();
            assert!(exec.data_count() > 0);
            assert!(exec.proc_count() > 0);
        }
    }

    #[test]
    fn keywords_are_skewed() {
        let p = SpecParams {
            vocabulary: 32,
            keywords_per_module: 3,
            zipf_skew: 1.4,
            max_workflows: 30,
            modules_per_workflow: (8, 12),
            ..SpecParams::default()
        };
        let s = generate_spec(&p);
        let mut freq = std::collections::HashMap::new();
        for m in s.modules() {
            for kw in &m.keywords {
                *freq.entry(kw.clone()).or_insert(0usize) += 1;
            }
        }
        let top = freq.get("kw0").copied().unwrap_or(0);
        let tail = freq.get("kw31").copied().unwrap_or(0);
        assert!(top > tail, "skew must favor low ranks (top {top}, tail {tail})");
    }

    #[test]
    fn sized_scales_module_count() {
        let small = generate_spec(&SpecParams::sized(5, 20));
        let large = generate_spec(&SpecParams::sized(5, 400));
        assert!(large.module_count() > small.module_count());
    }
}
