//! # ppwf-views — views of workflow specifications and executions
//!
//! The paper (Sec. 2–3) uses *views* as its access-control and privacy
//! primitive: a user sees a workflow and its executions only at the
//! granularity of a **prefix of the expansion hierarchy** (their *access
//! view*), and structural privacy may additionally **cluster** modules into
//! opaque composites. This crate implements the complete view machinery the
//! paper builds on, drawn from its references \[2\] (ICDE'08 user views),
//! \[3\] (ICDT'09 view optimization) and \[9\] (SIGMOD'09 unsound views):
//!
//! * [`exec_view`] — applying a prefix view to an execution (Fig. 4 → Fig. 2),
//! * [`clustering`] — arbitrary clustering views over flat dataflow graphs,
//! * [`soundness`] — detecting unsound views and enumerating false paths,
//! * [`repair`] — resolving unsound views by splitting clusters,
//! * [`user_view`] — building minimal sound views that keep a set of
//!   relevant modules distinguishable,
//! * [`zoom`] — the zoom-out walk over the prefix lattice used by
//!   privacy-controlled query answering (Sec. 4).

#![forbid(unsafe_code)]

pub mod clustering;
pub mod exec_view;
pub mod repair;
pub mod series_parallel;
pub mod soundness;
pub mod user_view;
pub mod zoom;

pub use clustering::Clustering;
pub use exec_view::{ExecView, ExecViewNode};
pub use soundness::{check_soundness, SoundnessReport};
