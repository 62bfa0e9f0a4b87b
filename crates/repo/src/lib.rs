//! # ppwf-repo — the provenance-aware workflow repository
//!
//! Sec. 1 of the paper envisions *"repositories of workflow specifications
//! and of provenance graphs that represent their executions ... made
//! available as part of scientific information sharing"*, and Sec. 4 lays
//! out what serving them with privacy requires: indexes that serve many
//! privilege levels from one structure, caching aware of user groups, and
//! on-the-fly hiding instead of per-privilege repository copies. This crate
//! is that storage layer:
//!
//! * [`repository`] — multi-spec, multi-execution store with binary
//!   persistence (one repository for all privilege levels, per the paper's
//!   argument against per-level copies),
//! * [`mutation`] — the typed write vocabulary ([`Mutation`]) and its
//!   invalidation contract ([`MutationEffect`]): every serving layer keys
//!   its index maintenance and cache invalidation on what a write
//!   *actually* changed, so the dominant write — provenance accruing over
//!   repeated executions — costs no index or cache work at all,
//! * [`keyword_index`] — an inverted index whose postings carry their
//!   privacy classification (the owning workflow), so privilege filtering
//!   is a per-posting O(1) check instead of a per-level index; kept
//!   current by folding every write's effect into it
//!   ([`keyword_index::KeywordIndex::apply_effect`]),
//! * [`postings`] — the posting lists under that index (one sorted vector
//!   per key; spec-level edits, candidate intersection and restricted
//!   gathers by binary search) plus the thread-local per-query scratch
//!   arena the cold path runs on,
//! * [`reach_index`] — materialized reachability over full expansions,
//!   with visibility-filtered lookups per access view,
//! * [`cache`] — a user-group-keyed, version-tagged result cache,
//! * [`touch`] — per-token touch stamps: which older-tagged cache entries
//!   an answer-changing write can have changed, and which survive it,
//! * [`view_cache`] — a `(spec, prefix)`-keyed memo of flattened
//!   [`SpecView`](ppwf_model::expand::SpecView)s (with their transitive
//!   closures riding along), the query layer's view fast path,
//! * [`pool`] — the persistent worker pool the serving front's shard
//!   jobs, the WAL's fsyncs and background snapshots run on (no per-call
//!   thread spawns); every job is owned, queued by `submit` or `exec`,
//! * [`ticket`] — [`ticket::Ticket`]/[`ticket::TicketCompleter`]
//!   completion handles the async serving front multiplexes in-flight
//!   queries with (park/notify wakeups, caller helping, per-ticket panic
//!   propagation),
//! * [`stats`] — repository statistics for operators,
//! * [`storage`] — the injectable [`StorageBackend`]
//!   the durability subsystem runs on: real files ([`storage::FsStorage`])
//!   or the fault-injecting in-memory backend ([`storage::MemStorage`])
//!   that can crash at byte N, tear tails, flip bytes and fail fsyncs,
//! * [`wal`] — the segmented, checksummed write-ahead log of typed
//!   mutations ([`wal::DurableLog`]) and crash recovery
//!   ([`Repository::recover`]): torn final records are truncated, interior
//!   corruption is a typed error, and the recovered state is bit-identical
//!   to the never-crashed run,
//! * [`snapshot`] — atomic (temp file + rename) repository checkpoints
//!   that bound log length and recovery time,
//! * [`principals`] — the user-group directory resolving per-spec access
//!   views (the paper's "user groups" made concrete), lazily through the
//!   memoized [`AccessCache`]/[`AccessResolver`] on the query path, with
//!   the eager whole-corpus map kept as the benchmark baseline.

#![forbid(unsafe_code)]

pub mod cache;
pub(crate) mod fnv;
pub mod keyword_index;
pub(crate) mod log_core;
pub mod mutation;
pub mod pool;
pub mod postings;
pub mod principals;
pub mod reach_index;
pub mod repository;
pub mod snapshot;
pub mod stats;
pub mod storage;
pub mod ticket;
pub mod touch;
pub mod view_cache;
pub mod wal;

pub use mutation::{Mutation, MutationEffect};
pub use pool::WorkerPool;
pub use principals::{AccessCache, AccessPrefix, AccessResolver, SpecAccess};
pub use repository::{Repository, SpecEntry, SpecId};
pub use storage::{FaultPlan, FsStorage, MemStorage, StorageBackend};
pub use view_cache::ViewCache;
pub use wal::{
    DurabilityPolicy, DurabilityStats, DurableLog, Opened, RecoveryStats, WalError, WalResult,
};
