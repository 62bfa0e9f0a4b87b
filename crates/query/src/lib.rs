//! # ppwf-query — privacy-preserving search and query evaluation
//!
//! Implements Sec. 4 of the paper: the two query classes provenance-aware
//! workflow repositories must support, evaluated under privacy.
//!
//! * [`keyword`] — keyword search returning the **minimal view** of the
//!   hierarchy that exposes a match for every query term (refs \[1\], \[7\]);
//!   reproduces Fig. 5 exactly. Index-backed and scan-backed plans.
//! * [`structural`] — structural pattern queries with direct and
//!   transitive edges (BP-QL-flavored, ref \[1\]) over specification views
//!   and executions, including the paper's *"Expand SNP Set executed before
//!   Query OMIM → return the provenance information for the latter"*
//!   (experiment E9).
//! * [`exec_match`] — the same patterns evaluated on execution views, so a
//!   principal's access view shapes which processes a match can bind.
//! * [`private_provenance`] — lineage of a data item computed through a
//!   disclosure, naming only what the principal may see.
//! * [`privacy_exec`] — the two evaluation strategies Sec. 4 contrasts:
//!   **filter-then-search** (privacy pushed into the index) versus
//!   **search-then-zoom-out** (full answer first, then coarsen until
//!   privacy is achieved), with cost accounting for experiment E6.
//! * [`ranking`] — TF-IDF ranking and its privacy problem: exact scores
//!   leak hidden term counts (Sec. 4's "Impact of Ranking on Privacy
//!   Preservation"); bucketized and visible-only rankers trade utility for
//!   leakage, measured with Kendall-τ (experiment E7).
//! * [`engine`] — the uncached single-index reference: keyword index +
//!   [`ViewCache`](ppwf_repo::view_cache::ViewCache) + lazy access memo
//!   over one repository, computing every answer and caching none; the
//!   oracle every cached path is checked against.
//! * [`route`] / [`cluster`] — serving over one repository, and the one
//!   cached tier: the keyword index partitioned across N shards by spec id
//!   (one shard when there is one index), scattered on a persistent worker
//!   pool and gathered into answers bit-identical to the reference, with
//!   per-user-group result caches at the front (Sec. 4's caching design;
//!   experiments E10, E11).
//! * [`serve`] — the asynchronous serving front: typed requests admitted
//!   through a read/write fence, each read served by one pool job that
//!   completes its [`Ticket`](ppwf_repo::ticket::Ticket), so a small
//!   fixed pool multiplexes many in-flight queries (experiment E14).

#![forbid(unsafe_code)]

pub mod cluster;
pub mod engine;
#[cfg(test)]
mod eviction_pressure;
pub mod exec_match;
mod fence;
pub mod keyword;
pub(crate) mod modes;
pub mod privacy_exec;
pub mod private_provenance;
pub mod ranking;
pub mod route;
pub mod serve;
pub mod structural;

pub use cluster::{ClusterStats, EngineCluster, Mutation, MutationEffect, RankedHits};
pub use engine::{EngineStats, Plan, QueryEngine, RankedAnswer};
pub use keyword::{KeywordHit, KeywordQuery};
pub use route::ShardStrategy;
pub use serve::{QueryAnswer, ServeFront, ServeRequest, ServeResponse, ServeStats};
