//! # ppwf-core — the privacy layer for provenance-aware workflow systems
//!
//! This crate implements the contribution of *Davidson et al., CIDR 2011*:
//! the three privacy notions of Sec. 3 with provable-guarantee mechanisms,
//! and the privacy-controlled disclosure semantics of Sec. 4.
//!
//! * [`policy`] — privacy policies (sensitive data channels, private
//!   modules with a privacy parameter Γ, structural hide-pairs) and
//!   principals with ordered access levels and *access views* (hierarchy
//!   prefixes).
//! * [`data_privacy`] — value masking across all executions, with audit
//!   checks that masked values can never be recovered from any visible
//!   artifact.
//! * [`module_privacy`] — Γ-privacy of module functionality (paper ref \[4\],
//!   Davidson et al., *Preserving Module Privacy in Workflow Provenance*):
//!   modules as relations, possible-output analysis under partial hiding,
//!   the min-cost safe-hiding optimization (exact and greedy), and module
//!   networks with the privacy a hidden item set achieves in each module.
//!   The workflow half of \[4\] — composing per-module hiding into one
//!   workflow-wide plan — is not reproduced.
//! * [`structural`] — structural privacy: hiding reachability facts by
//!   minimum-cut **edge deletion** or by **clustering** into composites,
//!   with the soundness/false-path accounting of Sec. 3 and the utility
//!   measures of Sec. 4.
//! * [`dp`] — the Sec. 5 discussion made concrete: a Laplace mechanism for
//!   provenance counting queries and the reproducibility-failure metric
//!   showing why output perturbation clashes with provenance's purpose.
//! * [`enforce`] — privacy-controlled disclosure: given a principal, a
//!   policy and an execution, produce the coarsest-necessary view with
//!   masked data ("zoom out until privacy is achieved").

#![forbid(unsafe_code)]

pub mod data_privacy;
pub mod dp;
pub mod enforce;
pub mod module_privacy;
pub mod policy;
pub mod structural;

pub use enforce::{disclose, disclose_exact, Disclosure};
pub use policy::{AccessLevel, Policy, Principal};
