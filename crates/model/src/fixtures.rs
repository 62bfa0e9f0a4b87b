//! The paper's running example, constructed programmatically: the
//! personalized **disease-susceptibility workflow** of Fig. 1 and its
//! execution of Fig. 4.
//!
//! ## Faithfulness notes
//!
//! * Workflows: `W1` (root) contains `M1` (τ→ `W2`) and `M2` (τ→ `W3`);
//!   `W2` contains `M3`, `M4` (τ→ `W4`) and `M8`; `W4` contains `M5`–`M7`;
//!   `W3` contains `M9`–`M15`. The paper's prose sentence *"W2 and W4 are
//!   subworkflows of W1, and W3 is a subworkflow of W2"* contradicts its own
//!   Fig. 1 (where `M2 ∈ W1` expands to `W3` and `M4 ∈ W2` expands to `W4`);
//!   we follow the figure, under which the full expansion contains exactly
//!   `I, O, M3, M5–M15` — matching the paper's own description of the full
//!   expansion.
//! * The execution reproduces Fig. 4 exactly: process ids `S1..S15` in
//!   activation order, data items `d0..d19` in production order, including
//!   the `{d2,d3,d4,d10}` edge into `S9:M9` and the activation/production
//!   inversion between `M10` and `M14`.
//! * Edge labels inside `W3` are reconstructed from Fig. 1's label set
//!   (`query`, `result`, `notes`, `summary`); the reconstruction is the
//!   unique one consistent with Fig. 4's twenty data items and with the
//!   structural-privacy discussion in Sec. 3 (the hidden `M13 → M11` edge,
//!   and the false `M10 → M14` path introduced by clustering `{M11, M13}`).

use crate::exec::{Execution, Executor, HashOracle, Schedule};
use crate::ids::ModuleId;
use crate::spec::{SpecBuilder, Specification};

/// Handles to the interesting modules of the fixture, by paper code.
#[derive(Clone, Debug)]
pub struct PaperModules {
    /// `M1` Determine Genetic Susceptibility (composite → W2).
    pub m1: ModuleId,
    /// `M2` Evaluate Disorder Risk (composite → W3).
    pub m2: ModuleId,
    /// `M3` Expand SNP Set.
    pub m3: ModuleId,
    /// `M4` Consult External Databases (composite → W4).
    pub m4: ModuleId,
    /// `M5` Generate Database Queries.
    pub m5: ModuleId,
    /// `M6` Query OMIM.
    pub m6: ModuleId,
    /// `M7` Query PubMed.
    pub m7: ModuleId,
    /// `M8` Combine Disorder Sets.
    pub m8: ModuleId,
    /// `M9` Generate Queries.
    pub m9: ModuleId,
    /// `M10` Search Private Datasets.
    pub m10: ModuleId,
    /// `M11` Update Private Datasets.
    pub m11: ModuleId,
    /// `M12` Search PubMed Central.
    pub m12: ModuleId,
    /// `M13` Reformat.
    pub m13: ModuleId,
    /// `M14` Summarize Articles.
    pub m14: ModuleId,
    /// `M15` Combine notes and summary.
    pub m15: ModuleId,
}

/// Build the Fig. 1 disease-susceptibility specification.
pub fn disease_susceptibility_spec() -> Specification {
    build().0
}

/// Build the specification together with the module handles.
pub fn disease_susceptibility() -> (Specification, PaperModules) {
    build()
}

fn build() -> (Specification, PaperModules) {
    let mut b = SpecBuilder::new("Disease Susceptibility Workflow");
    let w1 = b.root_workflow("W1");

    // --- W1: top level -----------------------------------------------------
    let (m1, w2) = b.composite(
        w1,
        "Determine Genetic Susceptibility",
        "W2",
        &["genetic", "susceptibility", "SNP"],
    );
    let (m2, w3) =
        b.composite(w1, "Evaluate Disorder Risk", "W3", &["disorder risks", "risk", "prognosis"]);
    b.edge(w1, b.input(w1), m1, &["SNPs", "ethnicity"]);
    b.edge(w1, b.input(w1), m2, &["lifestyle", "family history", "physical symptoms"]);
    b.edge(w1, m1, m2, &["disorders"]);
    b.edge(w1, m2, b.output(w1), &["prognosis"]);

    // --- W2: expansion of M1 ----------------------------------------------
    let m3 = b.atomic(w2, "Expand SNP Set", &["SNP"]);
    let (m4, w4) = b.composite(w2, "Consult External Databases", "W4", &["external", "databases"]);
    let m8 = b.atomic(w2, "Combine Disorder Sets", &["disorders"]);
    b.edge(w2, b.input(w2), m3, &["SNPs", "ethnicity"]);
    b.edge(w2, m3, m4, &["SNPs"]);
    b.edge(w2, m4, m8, &["disorders"]);
    b.edge(w2, m8, b.output(w2), &["disorders"]);

    // --- W4: expansion of M4 ----------------------------------------------
    let m5 = b.atomic(w4, "Generate Database Queries", &["database", "query"]);
    let m6 = b.atomic(w4, "Query OMIM", &["OMIM"]);
    let m7 = b.atomic(w4, "Query PubMed", &["PubMed"]);
    b.edge(w4, b.input(w4), m5, &["SNPs"]);
    b.edge(w4, m5, m6, &["query"]);
    b.edge(w4, m5, m7, &["query"]);
    b.edge(w4, m6, b.output(w4), &["disorders"]);
    b.edge(w4, m7, b.output(w4), &["disorders"]);

    // --- W3: expansion of M2 ----------------------------------------------
    // Module insertion order is the paper's activation order within W3
    // (S9:M9, S10:M12, S11:M13, S12:M14, S13:M10, S14:M11, S15:M15).
    let m9 = b.atomic(w3, "Generate Queries", &["query"]);
    let m12 = b.atomic(w3, "Search PubMed Central", &["PubMed", "articles"]);
    let m13 = b.atomic(w3, "Reformat", &["reformat"]);
    let m14 = b.atomic(w3, "Summarize Articles", &["summary", "articles"]);
    let m10 = b.atomic(w3, "Search Private Datasets", &["private", "datasets"]);
    let m11 = b.atomic(w3, "Update Private Datasets", &["private", "datasets", "update"]);
    let m15 = b.atomic(w3, "Combine notes and summary", &["combine"]);
    b.edge(w3, b.input(w3), m9, &["lifestyle", "family history", "physical symptoms", "disorders"]);
    b.edge(w3, m9, m10, &["query"]);
    b.edge(w3, m9, m12, &["query"]);
    b.edge(w3, m12, m13, &["result"]);
    b.edge(w3, m13, m11, &["notes"]); // the edge Sec. 3 wants hidden
    b.edge(w3, m13, m14, &["notes"]);
    b.edge(w3, m10, m11, &["result"]);
    b.edge(w3, m10, m15, &["notes"]);
    b.edge(w3, m14, m15, &["summary"]);
    b.edge(w3, m15, b.output(w3), &["prognosis"]);

    // Paper module codes (creation order differs from paper numbering for
    // W2/W3/W4 members).
    for (m, code) in [
        (m1, "M1"),
        (m2, "M2"),
        (m3, "M3"),
        (m4, "M4"),
        (m5, "M5"),
        (m6, "M6"),
        (m7, "M7"),
        (m8, "M8"),
        (m9, "M9"),
        (m10, "M10"),
        (m11, "M11"),
        (m12, "M12"),
        (m13, "M13"),
        (m14, "M14"),
        (m15, "M15"),
    ] {
        b.set_code(m, code);
    }

    let spec = b.build().expect("paper fixture must validate");
    let modules = PaperModules { m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15 };
    (spec, modules)
}

/// The Fig. 4 labeling schedule: canonical activation order (which already
/// matches `S1..S15` given the fixture's insertion order) plus the
/// completion order that yields `d0..d19` — in Fig. 4, `M10` produces
/// `d16, d17` *before* `M14` produces `d18` even though `M14` activates
/// first.
pub fn paper_schedule(m: &PaperModules) -> Schedule {
    Schedule::canonical()
        .with_completion_order(&[m.m12, m.m13, m.m10, m.m14])
        .expect("static schedule is duplicate-free")
}

/// Execute the Fig. 1 specification with the Fig. 4 labeling schedule and
/// the deterministic default oracle.
pub fn disease_susceptibility_execution(spec: &Specification) -> Execution {
    let m = handles(spec);
    Executor::with_schedule(spec, paper_schedule(&m))
        .run(&mut HashOracle)
        .expect("paper fixture executes")
}

/// Recover the module handles from a (possibly decoded) fixture spec by code.
pub fn handles(spec: &Specification) -> PaperModules {
    let by_code = |c: &str| -> ModuleId {
        spec.modules()
            .find(|m| m.code == c)
            .unwrap_or_else(|| panic!("fixture module {c} missing"))
            .id
    };
    PaperModules {
        m1: by_code("M1"),
        m2: by_code("M2"),
        m3: by_code("M3"),
        m4: by_code("M4"),
        m5: by_code("M5"),
        m6: by_code("M6"),
        m7: by_code("M7"),
        m8: by_code("M8"),
        m9: by_code("M9"),
        m10: by_code("M10"),
        m11: by_code("M11"),
        m12: by_code("M12"),
        m13: by_code("M13"),
        m14: by_code("M14"),
        m15: by_code("M15"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::ExpansionHierarchy;
    use crate::ids::{DataId, NodeId, ProcId, WorkflowId};

    #[test]
    fn fig1_structure() {
        let (spec, m) = disease_susceptibility();
        assert_eq!(spec.workflow_count(), 4);
        // 15 proper modules + 4 × (I, O).
        assert_eq!(spec.module_count(), 15 + 8);
        assert_eq!(spec.find_workflow("W1").unwrap().id, spec.root());
        assert_eq!(spec.expansion_of(m.m1), Some(WorkflowId::new(1)));
        assert_eq!(spec.expansion_of(m.m2), Some(WorkflowId::new(2)));
        assert_eq!(spec.expansion_of(m.m4), Some(WorkflowId::new(3)));
        assert_eq!(spec.module(m.m5).name, "Generate Database Queries");
        assert_eq!(spec.module(m.m13).name, "Reformat");
        // Channel counts drive Fig. 4's twenty data items:
        // W1: 2+3+1+1, W2: 2+1+1+1, W4: 1+1+1+1+1, W3: 4+1*9.
        assert_eq!(spec.channel_count(spec.root()), 7);
    }

    #[test]
    fn fig3_expansion_hierarchy() {
        let (spec, _m) = disease_susceptibility();
        let h = ExpansionHierarchy::of(&spec);
        let (w1, w2, w3, w4) =
            (WorkflowId::new(0), WorkflowId::new(1), WorkflowId::new(2), WorkflowId::new(3));
        assert_eq!(h.root(), w1);
        assert_eq!(h.children(w1), &[w2, w3]);
        assert_eq!(h.children(w2), &[w4]);
        assert!(h.children(w3).is_empty());
        assert!(h.children(w4).is_empty());
        assert_eq!(h.max_depth(), 2);
        let tree = crate::render::hierarchy_ascii(&spec, &h);
        assert_eq!(tree, "W1\n  W2\n    W4\n  W3\n");
    }

    #[test]
    fn fig4_process_ids() {
        let (spec, m) = disease_susceptibility();
        let exec = disease_susceptibility_execution(&spec);
        assert_eq!(exec.proc_count(), 15);
        let expect = [
            (m.m1, 1),
            (m.m3, 2),
            (m.m4, 3),
            (m.m5, 4),
            (m.m6, 5),
            (m.m7, 6),
            (m.m8, 7),
            (m.m2, 8),
            (m.m9, 9),
            (m.m12, 10),
            (m.m13, 11),
            (m.m14, 12),
            (m.m10, 13),
            (m.m11, 14),
            (m.m15, 15),
        ];
        for (module, s) in expect {
            assert_eq!(
                exec.proc_of(module),
                Some(ProcId::new(s - 1)),
                "wrong process id for {}",
                spec.module(module).code
            );
        }
    }

    #[test]
    fn fig4_data_ids() {
        let (spec, _m) = disease_susceptibility();
        let exec = disease_susceptibility_execution(&spec);
        assert_eq!(exec.data_count(), 20);
        let expect = [
            "SNPs",              // d0
            "ethnicity",         // d1
            "lifestyle",         // d2
            "family history",    // d3
            "physical symptoms", // d4
            "SNPs",              // d5  M3's expanded SNP set
            "query",             // d6  M5 → M6
            "query",             // d7  M5 → M7
            "disorders",         // d8  M6
            "disorders",         // d9  M7
            "disorders",         // d10 M8
            "query",             // d11 M9 → M10
            "query",             // d12 M9 → M12
            "result",            // d13 M12
            "notes",             // d14 M13 → M11
            "notes",             // d15 M13 → M14
            "result",            // d16 M10 → M11
            "notes",             // d17 M10 → M15
            "summary",           // d18 M14
            "prognosis",         // d19 M15
        ];
        for (i, ch) in expect.iter().enumerate() {
            assert_eq!(exec.data(DataId::new(i)).channel, *ch, "wrong channel for d{i}");
        }
    }

    #[test]
    fn fig4_edge_data() {
        let (spec, m) = disease_susceptibility();
        let exec = disease_susceptibility_execution(&spec);
        let d = |i: usize| DataId::new(i);
        let node_begin = |mm| exec.proc(exec.proc_of(mm).unwrap()).begin;
        let node_end = |mm| exec.proc(exec.proc_of(mm).unwrap()).end;

        // I → S1:M1 begin {d0,d1}; I → S8:M2 begin {d2,d3,d4}.
        assert_eq!(exec.data_between(exec.input(), node_begin(m.m1)).unwrap(), &[d(0), d(1)]);
        assert_eq!(exec.data_between(exec.input(), node_begin(m.m2)).unwrap(), &[d(2), d(3), d(4)]);
        // S1:M1 begin → S2:M3 {d0,d1}.
        assert_eq!(exec.data_between(node_begin(m.m1), node_begin(m.m3)).unwrap(), &[d(0), d(1)]);
        // S2:M3 → S3:M4 begin {d5}; S3:M4 begin → S4:M5 {d5}.
        assert_eq!(exec.data_between(node_end(m.m3), node_begin(m.m4)).unwrap(), &[d(5)]);
        assert_eq!(exec.data_between(node_begin(m.m4), node_begin(m.m5)).unwrap(), &[d(5)]);
        // S4:M5 → S5:M6 {d6}; S4:M5 → S6:M7 {d7}.
        assert_eq!(exec.data_between(node_end(m.m5), node_begin(m.m6)).unwrap(), &[d(6)]);
        assert_eq!(exec.data_between(node_end(m.m5), node_begin(m.m7)).unwrap(), &[d(7)]);
        // M6/M7 → S3:M4 end {d8}/{d9}; S3:M4 end → S7:M8 {d8,d9}.
        assert_eq!(exec.data_between(node_end(m.m6), node_end(m.m4)).unwrap(), &[d(8)]);
        assert_eq!(exec.data_between(node_end(m.m7), node_end(m.m4)).unwrap(), &[d(9)]);
        assert_eq!(exec.data_between(node_end(m.m4), node_begin(m.m8)).unwrap(), &[d(8), d(9)]);
        // S7:M8 → S1:M1 end {d10} → S8:M2 begin {d10}.
        assert_eq!(exec.data_between(node_end(m.m8), node_end(m.m1)).unwrap(), &[d(10)]);
        assert_eq!(exec.data_between(node_end(m.m1), node_begin(m.m2)).unwrap(), &[d(10)]);
        // S8:M2 begin → S9:M9 {d2,d3,d4,d10} — the paper's signature edge.
        assert_eq!(
            exec.data_between(node_begin(m.m2), node_begin(m.m9)).unwrap(),
            &[d(2), d(3), d(4), d(10)]
        );
        // W3 internals.
        assert_eq!(exec.data_between(node_end(m.m9), node_begin(m.m10)).unwrap(), &[d(11)]);
        assert_eq!(exec.data_between(node_end(m.m9), node_begin(m.m12)).unwrap(), &[d(12)]);
        assert_eq!(exec.data_between(node_end(m.m12), node_begin(m.m13)).unwrap(), &[d(13)]);
        assert_eq!(exec.data_between(node_end(m.m13), node_begin(m.m11)).unwrap(), &[d(14)]);
        assert_eq!(exec.data_between(node_end(m.m13), node_begin(m.m14)).unwrap(), &[d(15)]);
        assert_eq!(exec.data_between(node_end(m.m10), node_begin(m.m11)).unwrap(), &[d(16)]);
        assert_eq!(exec.data_between(node_end(m.m10), node_begin(m.m15)).unwrap(), &[d(17)]);
        assert_eq!(exec.data_between(node_end(m.m14), node_begin(m.m15)).unwrap(), &[d(18)]);
        // S15:M15 → S8:M2 end {d19} → O {d19}.
        assert_eq!(exec.data_between(node_end(m.m15), node_end(m.m2)).unwrap(), &[d(19)]);
        assert_eq!(exec.data_between(node_end(m.m2), exec.output()).unwrap(), &[d(19)]);
    }

    #[test]
    fn fig4_invariants_and_labels() {
        let (spec, m) = disease_susceptibility();
        let exec = disease_susceptibility_execution(&spec);
        exec.check_invariants().unwrap();
        let begin = exec.proc(exec.proc_of(m.m1).unwrap()).begin;
        assert_eq!(exec.node_label(&spec, begin), "S1:M1 begin");
        let m3n = exec.proc(exec.proc_of(m.m3).unwrap()).begin;
        assert_eq!(exec.node_label(&spec, m3n), "S2:M3");
        // 15 procs → M1, M2, M4 composite (2 nodes each), 12 atomic,
        // plus I and O: 3*2 + 12 + 2 = 20 nodes.
        assert_eq!(exec.graph().node_count(), 20);
    }

    #[test]
    fn structural_privacy_paths_from_section3() {
        // The Sec. 3 discussion requires: a real path M13 → M11 (to hide),
        // a real edge M10 → M11, a real edge M13 → M14, and NO real path
        // M10 → M14 (the false path clustering would introduce).
        let (spec, m) = disease_susceptibility();
        let (g, idx) = spec.workflow_graph(WorkflowId::new(2));
        assert!(g.reaches(idx[&m.m13], idx[&m.m11]));
        assert!(g.has_edge(idx[&m.m10], idx[&m.m11]));
        assert!(g.has_edge(idx[&m.m13], idx[&m.m14]));
        assert!(!g.reaches(idx[&m.m10], idx[&m.m14]), "M10 must not reach M14");
        assert!(!g.reaches(idx[&m.m12], idx[&m.m10]));
    }

    #[test]
    fn fixture_round_trips_through_codec() {
        let (spec, _) = disease_susceptibility();
        let bytes = crate::codec::encode_spec(&spec);
        let spec2 = crate::codec::decode_spec(&bytes).unwrap();
        let exec = disease_susceptibility_execution(&spec2);
        assert_eq!(exec.data_count(), 20);
        let ebytes = crate::codec::encode_execution(&exec);
        let exec2 = crate::codec::decode_execution(&ebytes).unwrap();
        assert_eq!(exec2.proc_count(), 15);
    }

    #[test]
    fn handles_by_code() {
        let (spec, m) = disease_susceptibility();
        let h = handles(&spec);
        assert_eq!(h.m10, m.m10);
        assert_eq!(h.m15, m.m15);
    }

    #[test]
    fn full_expansion_matches_paper_description() {
        // "the full expansion ... yields a workflow with module names
        //  I, O, M3, and M5−M15 and whose edges include one from M3 to M5
        //  and another from M8 to M9."
        let (spec, m) = disease_susceptibility();
        let h = ExpansionHierarchy::of(&spec);
        let v =
            crate::expand::SpecView::build(&spec, &h, &crate::hierarchy::Prefix::full(&h)).unwrap();
        let mut codes: Vec<String> =
            v.visible_modules().map(|mm| spec.module(mm).code.clone()).collect();
        codes.sort();
        let mut expect: Vec<String> =
            [3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15].iter().map(|i| format!("M{i}")).collect();
        expect.sort();
        assert_eq!(codes, expect);
        assert!(v.has_module_edge(m.m3, m.m5), "edge M3 → M5 required by the paper");
        assert!(v.has_module_edge(m.m8, m.m9), "edge M8 → M9 required by the paper");
        let _ = NodeId::new(0);
    }
}
