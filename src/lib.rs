//! # ppwf — privacy-enabled provenance-aware workflow systems
//!
//! Facade crate for the reproduction of *Davidson et al., "Enabling Privacy
//! in Provenance-Aware Workflow Systems", CIDR 2011*. Re-exports the
//! workspace crates under stable module names:
//!
//! * [`model`] — workflow specifications, executions, provenance (Sec. 2).
//! * [`views`] — prefix/access views, clustering, soundness, user views.
//! * [`privacy`] — data, module and structural privacy (Sec. 3), plus the
//!   differential-privacy ablation (Sec. 5).
//! * [`repo`] — the workflow repository: storage, privacy-partitioned
//!   indexes, per-group caches (Sec. 4).
//! * [`query`] — keyword and structural query evaluation with privacy
//!   guarantees and privacy-aware ranking (Sec. 4).
//! * [`workloads`] — synthetic workload generators for the experiments.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the figure/experiment reproduction log.

#![forbid(unsafe_code)]

pub use ppwf_core as privacy;
pub use ppwf_model as model;
pub use ppwf_query as query;
pub use ppwf_repo as repo;
pub use ppwf_views as views;
pub use ppwf_workloads as workloads;
