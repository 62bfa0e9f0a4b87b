//! Quickstart: build a workflow, run it, ask provenance questions, and
//! disclose it under a privacy policy.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use ppwf::model::exec::{Executor, HashOracle};
use ppwf::model::hierarchy::{ExpansionHierarchy, Prefix};
use ppwf::model::provenance::{impact_of, provenance_of};
use ppwf::model::spec::SpecBuilder;
use ppwf::privacy::disclose;
use ppwf::privacy::policy::{AccessLevel, Policy, Principal};
use ppwf::query::private_provenance::private_provenance;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Specify a small pipeline: ingest → (clean → annotate) → report,
    //    where the middle stage is a composite module with its own
    //    subworkflow.
    let mut b = SpecBuilder::new("quickstart pipeline");
    let w1 = b.root_workflow("Main");
    let ingest = b.atomic(w1, "Ingest Samples", &["ingest"]);
    let (process, w2) = b.composite(w1, "Process", "Processing", &["process"]);
    let report = b.atomic(w1, "Generate Report", &["report"]);
    b.edge(w1, b.input(w1), ingest, &["samples"]);
    b.edge(w1, ingest, process, &["records"]);
    b.edge(w1, process, report, &["annotated"]);
    b.edge(w1, report, b.output(w1), &["report"]);

    let clean = b.atomic(w2, "Clean Records", &["clean"]);
    let annotate = b.atomic(w2, "Annotate", &["annotate"]);
    b.edge(w2, b.input(w2), clean, &["records"]);
    b.edge(w2, clean, annotate, &["cleaned"]);
    b.edge(w2, annotate, b.output(w2), &["annotated"]);

    let spec = b.build()?;
    println!("spec: {} workflows, {} modules", spec.workflow_count(), spec.module_count());

    // 2. Execute it. Process ids and data ids follow the paper's labeling.
    let exec = Executor::new(&spec).run(&mut HashOracle)?;
    println!("execution: {} processes, {} data items", exec.proc_count(), exec.data_count());
    for p in exec.procs() {
        println!("  S{} = {}", p.id.index() + 1, spec.module(p.module).name);
    }

    // 3. Provenance: where did the report come from; what does a cleaned
    //    record affect downstream?
    let report_item = exec.data_items().find(|d| d.channel == "report").unwrap().id;
    let prov = provenance_of(&exec, report_item);
    println!(
        "provenance of {}: {} nodes, {} data items",
        report_item,
        prov.nodes.len(),
        prov.data.len()
    );
    let cleaned = exec.data_items().find(|d| d.channel == "cleaned").unwrap().id;
    let impact = impact_of(&exec, cleaned);
    println!("impact of {}: {} downstream items", cleaned, impact.data.len() - 1);

    // 4. Privacy: cleaned records are sensitive; the public must not see
    //    inside the Processing composite.
    let h = ExpansionHierarchy::of(&spec);
    let mut policy = Policy::public();
    policy.protect_channel("cleaned", AccessLevel(2));
    policy.hide_pair(clean, report, AccessLevel(2));

    let public = Principal::new("public", AccessLevel::PUBLIC, Prefix::full(&h));
    let d1 = disclose(&spec, &h, &exec, &policy, &public)?;
    println!(
        "disclosed to public: {} visible nodes, {} masked items, {} zoom-out steps",
        d1.view.graph().node_count(),
        d1.mask.masked.len(),
        d1.zoom_steps
    );
    // Provenance questions asked through a disclosure answer over its view:
    // the public's lineage of the report names the collapsed Process step,
    // never the modules inside it.
    let lineage = private_provenance(&d1, report_item)?;
    println!(
        "provenance of {} as the public sees it: {} view nodes, {} data items",
        report_item,
        lineage.nodes.len(),
        lineage.data.len()
    );

    let analyst = Principal::new("analyst", AccessLevel(2), Prefix::full(&h));
    let d2 = disclose(&spec, &h, &exec, &policy, &analyst)?;
    println!(
        "disclosed to analyst: {} visible nodes, {} masked items",
        d2.view.graph().node_count(),
        d2.mask.masked.len()
    );
    Ok(())
}
