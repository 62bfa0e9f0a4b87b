//! # ppwf-model — the common model for provenance-aware workflow systems
//!
//! This crate implements Section 2 ("Model") of *Davidson et al., "Enabling
//! Privacy in Provenance-Aware Workflow Systems", CIDR 2011*: hierarchical
//! workflow **specifications** with dataflow and τ-expansion edges,
//! **executions** with process ids, begin/end nodes for composite modules and
//! data items on edges, the **expansion hierarchy** whose prefixes define
//! views, and **provenance** of data items as induced path subgraphs.
//!
//! It is the substrate everything else in the workspace builds on:
//!
//! * [`spec`] — workflow specifications and their builder/validator,
//! * [`hierarchy`] — the expansion hierarchy (Fig. 3) and its prefix lattice,
//! * [`expand`] — views of a specification defined by hierarchy prefixes,
//! * [`exec`] — executions (Fig. 4) and the deterministic executor,
//! * [`provenance`] — provenance subgraphs of data items,
//! * [`graph`], [`bitset`], [`flow`] — the from-scratch DAG toolkit
//!   (topological orders, reachability, transitive closure, min-cut),
//! * [`value`] — runtime data values flowing over edges,
//! * [`codec`] — a compact binary serialization for repository persistence,
//! * [`render`] — DOT / ASCII rendering of specs, views and executions,
//! * [`fixtures`] — the paper's running example (Figures 1 and 4) built
//!   programmatically.
//!
//! ## Quickstart
//!
//! ```
//! use ppwf_model::fixtures;
//! use ppwf_model::exec::{Executor, Oracle};
//!
//! // Fig. 1: the disease-susceptibility specification.
//! let spec = fixtures::disease_susceptibility_spec();
//! assert_eq!(spec.workflow_count(), 4); // W1..W4
//!
//! // Fig. 4: one execution of it.
//! let exec = fixtures::disease_susceptibility_execution(&spec);
//! assert_eq!(exec.data_count(), 20);    // d0..d19
//! ```

#![forbid(unsafe_code)]

pub mod bitset;
pub mod codec;
pub mod error;
pub mod exec;
pub mod expand;
pub mod fixtures;
pub mod flow;
pub mod graph;
pub mod hierarchy;
pub mod ids;
pub mod provenance;
pub mod render;
pub mod spec;
pub mod value;

pub use error::{ModelError, Result};
pub use ids::{DataId, EdgeId, ModuleId, NodeId, ProcId, WorkflowId};
pub use spec::{Module, ModuleKind, SpecBuilder, SpecEdge, Specification, Workflow};
pub use value::Value;
