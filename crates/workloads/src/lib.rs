//! # ppwf-workloads — synthetic workloads for the ppwf experiments
//!
//! The paper has no public benchmark corpus (its motivating repositories
//! were myExperiment-era scientific-workflow collections), so the
//! experiments run on synthetic inputs whose knobs match what the paper's
//! mechanisms are sensitive to: graph shape, hierarchy depth, fan-in/out,
//! annotation skew, and module-function structure. See DESIGN.md §1 for the
//! substitution rationale.
//!
//! * [`zipf`] — a self-contained Zipf sampler (keyword skew),
//! * [`genspec`] — random hierarchical workflow specifications,
//! * [`genexec`] — batch execution generation with seeded oracles,
//! * [`genmodule`] — random and structured relations/networks for the
//!   module-privacy experiments,
//! * [`genquery`] — corpus-driven query logs for the serving experiments
//!   (arity mix, co-occurring vs cross term pairs, corpus-Zipf popularity —
//!   the knob that makes shard selectivity measurable in E11), plus
//!   open- vs closed-loop request schedules for the async-serving
//!   experiment (E14),
//! * [`gencrash`] — deterministic crash schedules (every record boundary
//!   plus sampled interior offsets) for the durability crash-matrix and
//!   E15 recovery experiments,
//! * [`gentext`] — adversarial module text (case variants, context-sensitive
//!   lowercase, punctuation runs, repeats) for the tokenization oracles,
//! * [`genmutation`] — applicable typed-mutation streams over an evolving
//!   corpus, covering the full vocabulary including `DeleteSpec` /
//!   `EditSpec` (live-slot targeting keeps destructive histories
//!   replayable), for the write-path and crash experiments.
//!
//! Everything is deterministic under a caller-provided seed.

#![forbid(unsafe_code)]

pub mod gencrash;
pub mod genexec;
pub mod genmodule;
pub mod genmutation;
pub mod genquery;
pub mod genspec;
pub mod gentext;
pub mod zipf;

pub use gencrash::{crash_schedule, CrashScheduleParams};
pub use genmutation::{mutation_of, mutation_stream, mutation_stream_n};
pub use genquery::{
    generate_query_log, schedule_requests, ArrivalSchedule, QueryLogParams, ScheduleParams,
    ScheduledRequest,
};
pub use genspec::{generate_spec, SpecParams};
