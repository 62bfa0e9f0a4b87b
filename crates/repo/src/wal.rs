#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
//! A segmented, checksummed write-ahead log of typed [`Mutation`]s.
//!
//! The serving stack is in-memory; this module is what lets it survive a
//! restart or a torn write. There is **one commit path**,
//! [`DurableLog::commit`], and every write goes down it — the cluster's
//! run flush, the serving front's fenced batches, and
//! [`DurableLog::append_batch`], which is `commit` plus waiting for the
//! frame's verdict:
//!
//! 1. **Frame.** A FIFO run of mutations, each already validated against
//!    current state, is appended *before it is applied* as **one**
//!    checksummed record:
//!
//!    ```text
//!    [u32 body_len (LE)] [u64 FNV-1a checksum of body (LE)] [body]
//!      one mutation:  body = uvarint seq ++ mutation payload (tag + codec bytes)
//!      a longer run:  body = uvarint first_seq ++ TAG_BATCH ++ uvarint count
//!                            ++ count × mutation payloads
//!    ```
//!
//!    Headers, varints and nested artifacts are written and read with the
//!    workspace's one byte codec ([`Writer`] / [`Reader`]), the same one
//!    the snapshot and the repository image use.
//!
//!    How long runs may get is the caller's [`DurabilityPolicy::max_batch`];
//!    at 1 (the default) every record is the plain one-mutation form, so
//!    such a log is byte-identical to one written before batch records
//!    existed. Because a run is a single record, it is never partially
//!    acknowledged and never partially replayed: a crash inside it tears
//!    the final record, recovery truncates it, and exactly the
//!    previously-acknowledged prefix survives. Records are packed into
//!    segment files named `wal-<first_seq:016x>.log`, rotated at
//!    [`DurabilityPolicy::segment_bytes`]; sequence numbers start at 1 and
//!    are contiguous across segments.
//! 2. **Covering fsync.** Every frame is owed one fsync of its segment
//!    before anyone is told it happened; one fsync covers every frame
//!    appended to that segment before it started. `commit` returns as soon
//!    as the record is in the segment — the caller applies the run, and
//!    frames and applies the next one, meanwhile — and the *sync runner*
//!    fsyncs once per run of queued frames sharing a segment and only then
//!    fires each frame's [`DurableCallback`]. With a pool attached
//!    ([`DurableLog::set_pool`]) the runner is a pool job; without one it
//!    runs on the caller before `commit` returns.
//! 3. **Acknowledge strictly behind durability.** A mutation may be
//!    acknowledged when its frame's callback fires `Ok` — never earlier,
//!    and verdicts are released in append order. There is no policy that
//!    acknowledges without the fsync. What the pool adds is only that the
//!    *mutating thread* does not idle through fsync latency; in that
//!    window the in-memory state (and a reader of it) is ahead of the
//!    durable prefix by frames nobody has been told about — a
//!    read-uncommitted window over losable suffix data, never over
//!    anything acknowledged.
//! 4. **Failure poisons.** A failed append or covering fsync poisons the
//!    log: the failed frames and every later one fail with a typed error
//!    (nothing acknowledged), and cadence snapshots are refused, because
//!    the tail is in an unknown state. Re-open (recover) to resume. A crash
//!    while frames are in flight leaves 0..n appended-but-unsynced records
//!    on disk; recovery's truncate-at-tear rule extends across them
//!    (below), so the recovered prefix is record-aligned, holds every
//!    acknowledged record, and never resurrects a torn one.
//!
//! Every one of these decisions — sequence numbers, rotation, which fsync
//! covers which frames, verdict order, the poison cell, snapshot cadence,
//! dirty chunks and the prune set — is made by the crate-private
//! `LogCore` (`log_core.rs`), a state machine with no backend, lock,
//! thread, clock or pool, checked against a sequential model. This module
//! encodes records, replays them, and runs the actions the core hands out
//! over a [`StorageBackend`] and the pool.
//!
//! **Snapshots** bound log size and recovery time. Every
//! [`DurabilityPolicy::snapshot_every`] mutations the write path captures
//! a copy-on-write image (pointer copies of the chunks dirtied since the
//! last snapshot), rotates to a fresh segment, and hands the image to the
//! *snapshot job*, which writes the dirty chunks and a manifest
//! ([`crate::snapshot`], format v3); once it succeeded, every segment whose
//! first sequence number the snapshot covers is pruned — on the pool when
//! one is attached, on the caller otherwise. A checkpoint
//! ([`DurableLog::snapshot_now`]: the baseline of a pre-loaded corpus, and
//! manual checkpoints) is the same job over an image of every slot as one
//! run, one chunk file plus its manifest, run on the caller; it waits out
//! a snapshot job in flight, because one snapshot runs at a time.
//!
//! **Recovery** ([`Repository::recover`] / [`DurableLog::open`]) replays
//! `(latest snapshot, log suffix)` with a strict corruption posture:
//!
//! * an *incomplete* final record is a torn tail: expected after a
//!   crash, tolerated, and physically truncated so later appends start
//!   from a clean boundary;
//! * a checksum mismatch in the last segment with **no checksum-valid
//!   record after it** (walking the record length chain) is likewise a
//!   torn tail — several unsynced frames may be in flight at power loss,
//!   and blocks can hit disk out of order, so the tear can start before
//!   the final record; everything from the first damaged frame on is
//!   truncated. A valid record *after* the mismatch proves the damage is
//!   interior (the later record was appended — and possibly acknowledged
//!   — after the damaged one), so it is refused instead;
//! * any other checksum mismatch, framing violation, or sequence gap is
//!   interior corruption of data that was once acknowledged — that is
//!   data loss, surfaced as a typed [`WalError::Corrupt`], never a panic
//!   and never a silent skip.
//!
//! The log's checksums are also what makes the recovered history a
//! sequence of typed writes: every record was verified at replay, so a
//! [`KeywordIndex`](crate::keyword_index::KeywordIndex) built over the
//! recovered repository and then handed each later write's effect
//! ([`KeywordIndex::apply_effect`](crate::keyword_index::KeywordIndex::apply_effect))
//! is maintained exactly as a never-crashed engine's is — nothing in the
//! index is checked against the repository, before or after a crash.
//!
//! Write ordering: callers must validate a mutation against current state
//! *before* appending (see [`Repository::check`]), so the log never holds
//! a record that fails on replay — a replay-time apply error is therefore
//! reported as corruption ([`WalError::Replay`]), not tolerated.

use crate::fnv::Fnv1a;
use crate::log_core::{self, parse_segment_name, segment_name, Action, LogCore, Recovered};
use crate::mutation::{ModuleTextEdit, Mutation, SpecText};
use crate::pool::WorkerPool;
use crate::repository::{decode_policy, encode_policy, Repository, SpecId};
use crate::snapshot::{self, ChunkRef, CowImage};
use crate::storage::{StorageBackend, StorageError};
use crate::ticket::Ticket;
use parking_lot::Mutex;
use ppwf_model::codec::{self, Reader, Writer};
use ppwf_model::ids::ModuleId;
use ppwf_model::ModelError;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A typed durability failure.
#[derive(Debug)]
pub enum WalError {
    /// The storage backend failed (I/O error or injected crash).
    Storage(StorageError),
    /// A log record that was once acknowledged is damaged: checksum
    /// mismatch, framing violation, truncation *inside* the log, or a
    /// sequence gap. Recovery refuses to guess past it.
    Corrupt {
        /// Segment file holding the damaged record.
        segment: String,
        /// Byte offset of the record within the segment.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A snapshot file is damaged or unreadable.
    Snapshot {
        /// The snapshot file.
        name: String,
        /// What was wrong.
        detail: String,
    },
    /// A checksum-valid record failed to re-apply during replay. Appends
    /// are validated before they reach the log, so this is corruption
    /// that happened to preserve the checksum — vanishingly unlikely, and
    /// never ignorable.
    Replay {
        /// Sequence number of the failing record.
        seq: u64,
        /// The apply error.
        detail: String,
    },
    /// The log refused an append because an earlier append or fsync
    /// failed: in-memory state and the log may disagree, so the log
    /// poisons itself rather than interleave acknowledged writes with
    /// holes. Re-open (recover) to resume.
    Poisoned {
        /// The failure that poisoned the log.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Storage(e) => write!(f, "{e}"),
            WalError::Corrupt { segment, offset, detail } => {
                write!(f, "corrupt WAL record in `{segment}` at byte {offset}: {detail}")
            }
            WalError::Snapshot { name, detail } => {
                write!(f, "corrupt snapshot `{name}`: {detail}")
            }
            WalError::Replay { seq, detail } => {
                write!(f, "WAL record {seq} failed to re-apply: {detail}")
            }
            WalError::Poisoned { detail } => {
                write!(f, "durable log poisoned by earlier failure: {detail}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<StorageError> for WalError {
    fn from(e: StorageError) -> Self {
        WalError::Storage(e)
    }
}

impl From<WalError> for ModelError {
    fn from(e: WalError) -> Self {
        ModelError::invalid(format!("durability: {e}"))
    }
}

/// Result alias for durability operations.
pub type WalResult<T> = std::result::Result<T, WalError>;

// ---------------------------------------------------------------------------
// Record framing and the mutation payload codec.
// ---------------------------------------------------------------------------

/// Bytes of `[u32 len][u64 checksum]` before each record body.
const RECORD_HEADER: usize = 4 + 8;

/// A spec insert: varint-prefixed spec bytes, then varint-prefixed policy
/// bytes.
const TAG_INSERT_SPEC: u8 = 1;
/// An execution: `uvarint spec`, then varint-prefixed execution bytes.
const TAG_ADD_EXECUTION: u8 = 2;
/// A policy swap: `uvarint spec`, then varint-prefixed policy bytes.
const TAG_SET_POLICY: u8 = 3;
/// A group-commit record: `uvarint count` then `count` mutation payloads,
/// covering sequence numbers `first_seq .. first_seq + count`.
const TAG_BATCH: u8 = 4;
/// A spec deletion: `uvarint spec`.
const TAG_DELETE_SPEC: u8 = 5;
/// A spec text revision: `uvarint spec`, `uvarint edit count`, then per
/// edit `uvarint module`, varint-prefixed UTF-8 name, `uvarint keyword
/// count`, and varint-prefixed UTF-8 keywords.
const TAG_EDIT_SPEC: u8 = 6;

fn checksum_of(body: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.mix_bytes(body);
    h.finish()
}

/// Encode `mutation` into `buf` (tag + payload, no framing). The nested
/// artifact bytes reuse the model codec and the repository's policy
/// codec, so the WAL inherits their validation on decode.
pub fn encode_mutation(buf: &mut Vec<u8>, mutation: &Mutation) {
    let mut w = Writer::new(buf);
    match mutation {
        Mutation::InsertSpec { spec, policy } => {
            w.u8(TAG_INSERT_SPEC);
            w.varint_prefixed(&codec::encode_spec(spec));
            w.varint_prefixed(&encode_policy(policy));
        }
        Mutation::AddExecution { spec, exec } => {
            w.u8(TAG_ADD_EXECUTION);
            w.uvarint(spec.0 as u64);
            w.varint_prefixed(&codec::encode_execution(exec));
        }
        Mutation::SetPolicy { spec, policy } => {
            w.u8(TAG_SET_POLICY);
            w.uvarint(spec.0 as u64);
            w.varint_prefixed(&encode_policy(policy));
        }
        Mutation::DeleteSpec { spec } => {
            w.u8(TAG_DELETE_SPEC);
            w.uvarint(spec.0 as u64);
        }
        Mutation::EditSpec { spec, text } => {
            w.u8(TAG_EDIT_SPEC);
            w.uvarint(spec.0 as u64);
            w.uvarint(text.edits.len() as u64);
            for edit in &text.edits {
                w.uvarint(edit.module.0 as u64);
                w.varint_prefixed(edit.name.as_bytes());
                w.uvarint(edit.keywords.len() as u64);
                for kw in &edit.keywords {
                    w.varint_prefixed(kw.as_bytes());
                }
            }
        }
    }
}

/// Decode one mutation from `r`, advancing past it. `None` on any framing
/// or nested-codec failure (the caller owns the offset context for a
/// typed error).
pub fn decode_mutation(r: &mut Reader) -> Option<Mutation> {
    fn id(r: &mut Reader) -> ppwf_model::Result<u32> {
        u32::try_from(r.uvarint()?).map_err(|_| ModelError::codec("id past u32"))
    }
    fn text(r: &mut Reader) -> ppwf_model::Result<String> {
        codec::utf8(r.varint_prefixed()?)
    }
    fn mutation(r: &mut Reader) -> ppwf_model::Result<Mutation> {
        Ok(match r.u8()? {
            TAG_INSERT_SPEC => {
                let spec = codec::decode_spec(r.varint_prefixed()?)?;
                Mutation::InsertSpec { spec, policy: decode_policy(r.varint_prefixed()?)? }
            }
            TAG_ADD_EXECUTION => {
                let spec = SpecId(id(r)?);
                let exec = codec::decode_execution(r.varint_prefixed()?)?;
                Mutation::AddExecution { spec, exec }
            }
            TAG_SET_POLICY => {
                let spec = SpecId(id(r)?);
                Mutation::SetPolicy { spec, policy: decode_policy(r.varint_prefixed()?)? }
            }
            TAG_DELETE_SPEC => Mutation::DeleteSpec { spec: SpecId(id(r)?) },
            TAG_EDIT_SPEC => {
                let spec = SpecId(id(r)?);
                let edits = (0..r.uvarint()?)
                    .map(|_| {
                        let (module, name) = (ModuleId(id(r)?), text(r)?);
                        let keywords = (0..r.uvarint()?)
                            .map(|_| text(r))
                            .collect::<ppwf_model::Result<_>>()?;
                        Ok(ModuleTextEdit { module, name, keywords })
                    })
                    .collect::<ppwf_model::Result<_>>()?;
                Mutation::EditSpec { spec, text: SpecText { edits } }
            }
            tag => return Err(ModelError::codec(format!("unknown mutation tag {tag}"))),
        })
    }
    mutation(r).ok()
}

/// Frame a FIFO run of mutations as **one** checksummed record: the
/// plain form for one mutation, a group-commit record covering
/// `first_seq .. first_seq + mutations.len()` for more. The mutation
/// payloads are self-delimiting, so no per-mutation framing is needed —
/// and a torn batch tears as a single record. The body is written once,
/// behind a header whose length and checksum are filled in after it.
fn encode_frame(first_seq: u64, mutations: &[Mutation]) -> Vec<u8> {
    let mut record = Vec::with_capacity(RECORD_HEADER + 64 * mutations.len());
    record.resize(RECORD_HEADER, 0);
    let mut w = Writer::new(&mut record);
    w.uvarint(first_seq);
    if mutations.len() != 1 {
        w.u8(TAG_BATCH);
        w.uvarint(mutations.len() as u64);
    }
    for mutation in mutations {
        encode_mutation(&mut record, mutation);
    }
    let (header, body) = record.split_at_mut(RECORD_HEADER);
    let (len, sum) = header.split_at_mut(4);
    len.copy_from_slice(&(body.len() as u32).to_le_bytes());
    sum.copy_from_slice(&checksum_of(body).to_le_bytes());
    record
}

/// The checksum and body of the record at `at`, when all of it is there.
fn record_at(bytes: &[u8], at: usize) -> Option<(u64, &[u8])> {
    let mut r = Reader::new(bytes.get(at..)?);
    let len = r.u32().ok()?;
    let sum = r.u64().ok()?;
    Some((sum, r.take(len as usize).ok()?))
}

// ---------------------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------------------

/// What one recovery pass found and rebuilt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Sequence number the loaded snapshot covered through (0: none).
    pub snapshot_seq: u64,
    /// Records re-applied from the log suffix.
    pub replayed: u64,
    /// Bytes of torn final record truncated (0: clean shutdown).
    pub truncated_bytes: u64,
    /// Highest sequence number recovered (snapshot or log).
    pub last_seq: u64,
    /// Log segments scanned.
    pub segments: usize,
}

struct Replayed {
    repo: Repository,
    stats: RecoveryStats,
    /// Where a re-opened log continues.
    seed: Recovered,
}

/// The chunk a mutation dirties, given the repository state it applies
/// to.
fn dirtied_chunk(repo: &Repository, mutation: &Mutation) -> u32 {
    snapshot::chunk_of(log_core::entry_of(mutation, repo.len() as u64))
}

/// Whether any checksum-valid record exists at or after `at`, walking the
/// record length chain. Called on a checksum mismatch in the last
/// segment: a valid successor proves the mismatch is interior damage of
/// once-acknowledged data; no valid successor means everything from the
/// mismatch on is an unsynced in-flight tail a crash may legitimately
/// tear (a garbled length field desyncs the walk onto garbage checksums,
/// which is the same answer — truncate).
fn tail_has_valid_successor(bytes: &[u8], mut at: usize) -> bool {
    while let Some((stored, body)) = record_at(bytes, at) {
        if checksum_of(body) == stored {
            return true;
        }
        at += RECORD_HEADER + body.len();
    }
    false
}

/// Replay `(snapshot, log suffix)` from `backend`, truncating a torn
/// final record in place. The shared engine under both
/// [`Repository::recover`] and [`DurableLog::open`].
fn replay(backend: &dyn StorageBackend) -> WalResult<Replayed> {
    let names = backend.list()?;
    let mut segments: Vec<(u64, String)> =
        names.iter().filter_map(|n| parse_segment_name(n).map(|s| (s, n.clone()))).collect();
    segments.sort();
    let loaded = snapshot::load_latest(backend, &names)?;
    let (mut repo, snapshot_seq, manifest) = (loaded.repo, loaded.through_seq, loaded.manifest);
    let mut stats = RecoveryStats {
        snapshot_seq,
        last_seq: snapshot_seq,
        segments: segments.len(),
        ..RecoveryStats::default()
    };
    let mut dirty_chunks = BTreeSet::new();
    let mut expected_next: Option<u64> = None;
    let mut active_segment: Option<(u64, u64)> = None;
    let last_index = segments.len().wrapping_sub(1);
    for (i, (first, name)) in segments.iter().enumerate() {
        let bytes = backend
            .read(name)?
            .ok_or_else(|| StorageError::io("read", name, "segment vanished during recovery"))?;
        let is_last_segment = i == last_index;
        let mut offset = 0usize;
        let mut torn_at: Option<(usize, String)> = None;
        while offset < bytes.len() {
            let remaining = bytes.len() - offset;
            let corrupt = |detail: String| WalError::Corrupt {
                segment: name.clone(),
                offset: offset as u64,
                detail,
            };
            let Some((stored_sum, body)) = record_at(&bytes, offset) else {
                torn_at =
                    Some((offset, format!("incomplete record in the last {remaining} bytes")));
                break;
            };
            let next = offset + RECORD_HEADER + body.len();
            if checksum_of(body) != stored_sum {
                // A bad checksum in the last segment with no valid record
                // after it is a torn (unacknowledged) tail — e.g. blocks
                // flushed out of order at power loss; with pipelined
                // commit the tear can start frames before the end, so the
                // rule walks the length chain instead of demanding the
                // mismatch be the final record. A valid successor — or
                // any mismatch in a non-final segment — is interior
                // corruption of acknowledged data.
                if is_last_segment && !tail_has_valid_successor(&bytes, next) {
                    let detail = "checksum mismatch with no valid successor (torn tail)";
                    torn_at = Some((offset, detail.to_string()));
                    break;
                }
                return Err(corrupt("checksum mismatch on interior record".to_string()));
            }
            let mut r = Reader::new(body);
            let seq = r.uvarint().map_err(|_| corrupt("unreadable sequence number".to_string()))?;
            match expected_next {
                None if seq > snapshot_seq + 1 => {
                    return Err(corrupt(format!(
                        "log starts at seq {seq} but snapshot covers only through \
                         {snapshot_seq}: missing records"
                    )));
                }
                Some(expected) if seq != expected => {
                    return Err(corrupt(format!("sequence gap: expected {expected}, found {seq}")));
                }
                _ => {}
            }
            // A group-commit record: `seq` is the first of a contiguous run.
            // The whole run was acknowledged by one fsync, and the record's
            // checksum already verified, so every member decodes (the
            // payloads are self-delimiting) or the record is corrupt. Every
            // member takes at least one byte, which bounds the count.
            let count = if r.rest().first() == Some(&TAG_BATCH) {
                r.take(1)
                    .and_then(|_| r.uvarint())
                    .ok()
                    .filter(|&count| count > 0 && count <= r.rest().len() as u64)
                    .ok_or_else(|| {
                        corrupt("unreadable, empty or oversized batch count".to_string())
                    })?
            } else {
                1
            };
            for seq in seq..seq + count {
                let mutation = decode_mutation(&mut r)
                    .ok_or_else(|| corrupt(format!("undecodable mutation payload at seq {seq}")))?;
                // Apply only past the snapshot point.
                if seq > snapshot_seq {
                    dirty_chunks.insert(dirtied_chunk(&repo, &mutation));
                    let replayed = repo.apply(mutation);
                    replayed.map_err(|e| WalError::Replay { seq, detail: e.to_string() })?;
                    stats.replayed += 1;
                    stats.last_seq = seq;
                }
            }
            if !r.rest().is_empty() {
                return Err(corrupt(format!("{} trailing bytes after the record", r.rest().len())));
            }
            // Records the snapshot covers constrain nothing: a segment a
            // prune failed to remove may sit before a gap it left.
            expected_next = (seq + count > snapshot_seq + 1).then_some(seq + count);
            offset = next;
        }
        if let Some((clean, detail)) = torn_at {
            if !is_last_segment {
                // A truncated record with more segments after it cannot
                // be a crash tail: the next segment's records were
                // acknowledged after it.
                return Err(WalError::Corrupt {
                    segment: name.clone(),
                    offset: clean as u64,
                    detail: format!("truncated record inside the log ({detail})"),
                });
            }
            stats.truncated_bytes = (bytes.len() - clean) as u64;
            backend.write_atomic(name, &bytes[..clean])?;
            active_segment = Some((*first, clean as u64));
        } else if is_last_segment {
            active_segment = Some((*first, bytes.len() as u64));
        }
    }
    let seed = Recovered {
        last_seq: stats.last_seq,
        snapshot_seq,
        active: active_segment.unwrap_or((stats.last_seq + 1, 0)),
        entry_count: repo.len() as u64,
        dirty: dirty_chunks,
        manifest: manifest.unwrap_or_default(),
        based: names.iter().any(|n| snapshot::parse_name(n).is_some()),
    };
    Ok(Replayed { repo, stats, seed })
}

impl Repository {
    /// Rebuild a repository from a [`StorageBackend`]'s
    /// `(snapshot, log suffix)` pair, tolerating (and truncating) a torn
    /// final record and rejecting interior corruption with a typed
    /// [`WalError`]. The result is bit-identical — [`Repository::save`]
    /// bytes and all — to sequentially applying the durable mutation
    /// prefix to the snapshot's base.
    pub fn recover(backend: &dyn StorageBackend) -> WalResult<(Repository, RecoveryStats)> {
        let replayed = replay(backend)?;
        Ok((replayed.repo, replayed.stats))
    }
}

// ---------------------------------------------------------------------------
// The durable log.
// ---------------------------------------------------------------------------

/// Durability knobs: how runs batch, how often the log checkpoints, how
/// large a segment grows. Nothing here can turn the covering fsync off.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityPolicy {
    /// Most mutations one record may carry: the serving front drains up to
    /// this many consecutive queued mutations into one run, framed as one
    /// record under one covering fsync. 1 (the default) is per-record
    /// commit, and keeps such logs byte-identical to pre-batch ones.
    pub max_batch: usize,
    /// Longest the serving front may hold a run open waiting for more
    /// mutations to arrive (µs). 0 never delays: runs form only from
    /// requests already queued behind the write fence. This bounds the
    /// latency batching adds to the *first* record of a run.
    pub max_delay_us: u64,
    /// Snapshot (and prune covered segments) every N appended records;
    /// 0 disables cadence snapshots.
    pub snapshot_every: u64,
    /// Rotate to a new segment once the active one exceeds this size.
    pub segment_bytes: u64,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            max_batch: 1,
            max_delay_us: 0,
            snapshot_every: 256,
            segment_bytes: 64 * 1024,
        }
    }
}

impl DurabilityPolicy {
    /// The serving profile: runs of up to `max_batch` mutations per record,
    /// held open at most `max_delay_us`, default cadence otherwise. With a
    /// pool attached to the log each run's apply overlaps the previous
    /// run's covering fsync.
    pub fn pipelined(max_batch: usize, max_delay_us: u64) -> Self {
        DurabilityPolicy { max_batch, max_delay_us, ..DurabilityPolicy::default() }
    }
}

/// Bucket upper bounds (inclusive, in mutations per record) of
/// [`DurabilityStats::batch_size_counts`]; the final bucket is unbounded.
pub const BATCH_SIZE_BOUNDS: [u64; 5] = [1, 2, 4, 8, 16];

/// Lifetime counters of one [`DurableLog`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DurabilityStats {
    /// Mutations appended; a batch record adds its full length.
    pub appends: u64,
    /// Physical records appended (a batch record counts once).
    pub records: u64,
    /// Bytes appended (framing included).
    pub bytes_appended: u64,
    /// Successful fsyncs.
    pub syncs: u64,
    /// fsyncs avoided by batching and by covering several frames at once:
    /// what the same mutations would have cost per-record, minus what they
    /// did cost.
    pub fsyncs_saved: u64,
    /// Histogram of appended record batch lengths: bucket `i` counts
    /// records carrying ≤ [`BATCH_SIZE_BOUNDS`]`[i]` mutations, the last
    /// bucket anything larger.
    pub batch_size_counts: [u64; BATCH_SIZE_BOUNDS.len() + 1],
    /// Segment rotations.
    pub rotations: u64,
    /// Snapshots written: cadence snapshots and checkpoints
    /// ([`DurableLog::snapshot_now`]).
    pub snapshots: u64,
    /// Cadence snapshots the snapshot job completed — on the pool when one
    /// is attached, on the mutating thread otherwise.
    pub background_snapshots: u64,
    /// Fully covered segments pruned after snapshots.
    pub segments_pruned: u64,
    /// Snapshots that failed, and cadence snapshots refused (see
    /// [`DurableLog::snapshot_if_due`]); the log keeps its longer suffix
    /// and retries at the next cadence point.
    pub snapshot_failures: u64,
    /// µs the *mutating thread* spent paused inside cadence snapshots:
    /// chunk planning, capturing the copy-on-write image (pointer copies of
    /// the dirty chunks — by the log or by the caller of
    /// [`DurableLog::snapshot_if_due_with`]) and the rotation hand-off;
    /// without a pool, the snapshot job itself as well.
    pub snapshot_pause_us: u64,
    /// µs cadence snapshot jobs spent serializing and writing.
    pub snapshot_background_us: u64,
    /// Highest appended sequence number.
    pub last_seq: u64,
    /// Sequence number the latest snapshot covers through.
    pub snapshot_seq: u64,
    /// Deepest the sync queue has been: frames written and not yet taken
    /// by a covering fsync.
    pub pipeline_depth_high_water: u64,
    /// Frames written while the sync runner was already out — each one is
    /// an append/apply that overlapped an in-flight fsync.
    pub overlapped_fsyncs: u64,
    /// Chunks serialized and written by copy-on-write snapshots.
    pub snapshot_chunks_written: u64,
    /// Chunks reused by reference (clean since the last snapshot, or
    /// deduplicated by content address) across copy-on-write snapshots.
    pub snapshot_chunks_reused: u64,
    /// Bytes snapshots actually wrote: chunk payloads and manifests, a
    /// checkpoint's one chunk of every slot included.
    pub snapshot_bytes_written: u64,
}

/// Fired exactly once per [`DurableLog::commit`] frame, in append order,
/// after the fsync covering it succeeds (`Ok`) or the frame fails
/// (`Err`). With a pool it may run on the sync job's thread — keep it
/// cheap and lock-light.
pub type DurableCallback = Box<dyn FnOnce(WalResult<()>) + Send + 'static>;

type Core = LogCore<DurableCallback, CowImage>;

/// What the log, its sync runner and its snapshot job share: the backend
/// and the one lock, around the core.
struct Shared {
    backend: Arc<dyn StorageBackend>,
    core: Mutex<Core>,
}

impl Shared {
    /// Raise `event` on the core, then run every action it produced:
    /// `Sync` and `Snapshot` on `pool` when one is given, the rest here.
    /// Returns what the event returned, and the first failure of an action
    /// the caller waits on (its `Write`, an inline snapshot).
    fn step<R>(
        self: &Arc<Self>,
        pool: Option<&Arc<WorkerPool>>,
        event: impl FnOnce(&mut Core) -> R,
    ) -> (R, WalResult<()>) {
        let (returned, actions) = {
            let mut core = self.core.lock();
            let returned = event(&mut core);
            (returned, std::iter::from_fn(|| core.next_action()).collect::<Vec<_>>())
        };
        let mut ran = Ok(());
        for action in actions {
            let now = self.run(pool, action);
            ran = ran.and(now);
        }
        (returned, ran)
    }

    /// Run `job` on `pool`, or here without one.
    fn spawn(
        self: &Arc<Self>,
        pool: Option<&Arc<WorkerPool>>,
        job: impl FnOnce(&Arc<Self>) -> WalResult<()> + Send + 'static,
    ) -> WalResult<()> {
        let Some(pool) = pool else { return job(self) };
        let shared = Arc::clone(self);
        pool.exec(move || drop(job(&shared)));
        Ok(())
    }

    fn run(
        self: &Arc<Self>,
        pool: Option<&Arc<WorkerPool>>,
        action: Action<DurableCallback, CowImage>,
    ) -> WalResult<()> {
        match action {
            Action::Write { segment, record } => {
                let wrote = self.backend.append(&segment_name(segment), &record);
                let (written, ran) = self.step(pool, |core| core.written(wrote));
                written.and(ran)
            }
            Action::Sync => self.spawn(pool, Self::run_sync_job),
            Action::Ack(verdicts) => {
                for (on_durable, verdict) in verdicts {
                    on_durable(verdict);
                }
                Ok(())
            }
            Action::Snapshot { through, image } => {
                self.spawn(pool, move |shared| shared.run_snapshot_job(through, &image))
            }
            Action::Prune { through, referenced } => {
                // Removal failures leak files, never correctness — replay
                // skips covered records and ignores unreferenced chunks —
                // and the next snapshot's prune retries them.
                let names = self.backend.list().unwrap_or_default();
                let superseded =
                    names.iter().filter(|n| log_core::superseded(n, through, &referenced));
                let removed = superseded.filter(|name| self.backend.remove(name).is_ok());
                let segments =
                    removed.filter(|name| parse_segment_name(name).is_some()).count() as u64;
                self.step(None, |core| core.pruned(segments)).1
            }
        }
    }

    /// The sync runner: fsync what the core hands out until it hands out
    /// nothing.
    fn run_sync_job(self: &Arc<Self>) -> WalResult<()> {
        loop {
            let next = self.core.lock().sync_start();
            let Some(segment) = next else { return Ok(()) };
            let synced = self.backend.sync(&segment_name(segment));
            // Sync verdicts reach the appenders through their callbacks.
            let _ = self.step(None, |core| core.synced(segment, synced));
        }
    }

    /// The snapshot job: write `image`'s dirty chunks and manifest as the
    /// snapshot covering `through`, then report to the core (which prunes
    /// on success). A failure is counted, not surfaced: by the time a
    /// cadence fires its records are durable in the log, which simply
    /// keeps its longer suffix until a later snapshot succeeds.
    fn run_snapshot_job(self: &Arc<Self>, through: u64, image: &CowImage) -> WalResult<()> {
        let t = Instant::now();
        let written = snapshot::write_chunked(&*self.backend, through, image);
        let busy_us = t.elapsed().as_micros() as u64;
        let (wrote, verdict) = match written {
            Ok(wrote) => (Some(wrote), Ok(())),
            Err(e) => (None, Err(e)),
        };
        let _ = self.step(None, |core| core.snapshot_done(through, wrote, busy_us));
        verdict
    }
}

/// The append side of the WAL: the executor of the core's actions over
/// the backend and the pool. Obtain one (plus the recovered repository)
/// via [`DurableLog::open`].
pub struct DurableLog {
    shared: Arc<Shared>,
    policy: DurabilityPolicy,
    /// Where the sync runner and the snapshot job run; without one both
    /// run on the mutating thread. See [`Self::set_pool`].
    pool: Option<Arc<WorkerPool>>,
}

impl fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableLog").field("policy", &self.policy).finish_non_exhaustive()
    }
}

/// A recovered log: the append handle, the rebuilt repository, and what
/// recovery found.
pub struct Opened {
    /// The log, positioned after the last durable record.
    pub log: DurableLog,
    /// The recovered repository.
    pub repository: Repository,
    /// Recovery accounting.
    pub recovery: RecoveryStats,
}

impl DurableLog {
    /// Recover `(snapshot, log suffix)` from `backend` and position the
    /// log for appending. On an empty backend this yields an empty
    /// repository and a log starting at sequence 1.
    pub fn open(backend: Arc<dyn StorageBackend>, policy: DurabilityPolicy) -> WalResult<Opened> {
        let Replayed { repo, stats, seed } = replay(&*backend)?;
        let core = LogCore::new(policy.segment_bytes, policy.snapshot_every, seed);
        let shared = Arc::new(Shared { backend, core: Mutex::new(core) });
        let log = DurableLog { shared, policy, pool: None };
        Ok(Opened { log, repository: repo, recovery: stats })
    }

    /// Run the sync runner and the snapshot job on `pool`: [`Self::commit`]
    /// then returns before its covering fsync and acknowledges from the
    /// pool, and a cadence snapshot costs the mutating thread one shallow
    /// image capture plus a segment rotation. Without a pool both run,
    /// unchanged, on the mutating thread.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// Append a FIFO run of mutations as **one** record and return its
    /// first sequence number; the run covers `first .. first +
    /// mutations.len()`. `on_durable` fires exactly once on every path, in
    /// append order: `Ok` only after the fsync covering this frame
    /// succeeded — acknowledge on the callback, never on return.
    ///
    /// `Ok` here means the record is in its segment (and the in-memory
    /// apply may proceed); a later fsync failure reaches the caller only
    /// through `on_durable(Err(_))`, poisoning the log for later appends.
    /// `Err` means the frame is not in the log's acknowledgeable history —
    /// fail the run inline — and its callback fails too. Without a pool the
    /// fsync runs here, and the callback fires before this returns.
    pub fn commit(
        &mut self,
        mutations: &[Mutation],
        on_durable: DurableCallback,
    ) -> WalResult<u64> {
        self.commit_on(self.pool.as_ref(), mutations, on_durable)
    }

    fn commit_on(
        &self,
        pool: Option<&Arc<WorkerPool>>,
        mutations: &[Mutation],
        on_durable: DurableCallback,
    ) -> WalResult<u64> {
        let first = self.shared.core.lock().next_seq();
        let record = encode_frame(first, mutations);
        let (appended, ran) =
            self.shared.step(pool, |core| core.append(record, mutations, on_durable));
        appended.and(ran).map(|()| first)
    }

    /// [`Self::commit`], then wait for the frame's verdict: returns the
    /// run's first sequence number once the run is durable and may be
    /// acknowledged, and `Err` when it is not (nothing of the run was
    /// appended and acknowledged). The fsync runs on this thread unless
    /// the pool's sync runner already has frames in flight.
    pub fn append_batch(&mut self, mutations: &[Mutation]) -> WalResult<u64> {
        let (verdict, done) = Ticket::pending(self.pool.clone());
        let on_durable = Box::new(move |v: WalResult<()>| done.complete(v));
        let first = self.commit_on(None, mutations, on_durable)?;
        verdict.wait()?;
        Ok(first)
    }

    /// Help the pool with one job, or yield.
    fn help_pool(&self) {
        if !self.pool.as_ref().is_some_and(|pool| pool.help_one()) {
            std::thread::yield_now();
        }
    }

    /// Block until no frame awaits its covering fsync, helping the pool
    /// while waiting. Test/bench teardown and pre-snapshot barriers — the
    /// append path never waits.
    pub fn wait_for_pipeline(&self) {
        while !self.shared.core.lock().pipeline_idle() {
            self.help_pool();
        }
    }

    /// Whether the snapshot cadence says it is time to snapshot.
    pub fn snapshot_due(&self) -> bool {
        self.shared.core.lock().snapshot_due()
    }

    /// The cadence snapshot of the post-acknowledge write path:
    /// [`Self::snapshot_if_due_with`], capturing the copy-on-write image
    /// out of `repo` — which must be the state produced by exactly the
    /// appended history.
    pub fn snapshot_if_due(&mut self, repo: &Repository) -> bool {
        self.snapshot_if_due_with(repo.len(), |plan| {
            let slot = |id| repo.entry(id).cloned();
            Some(CowImage::capture(repo.version(), repo.len(), plan, slot))
        })
    }

    /// Start a copy-on-write snapshot if the cadence is due and no
    /// snapshot is in flight (a busy job skips the cadence without
    /// resetting it). `capture` receives the chunk plan over `entry_count`
    /// id slots (entry `c` is `Some(chunk_ref)` when chunk `c` is clean
    /// since the last snapshot and rides along by reference, `None` when
    /// it must be captured) and returns the image, or `None` to give this
    /// cadence up; [`Self::snapshot_if_due`] captures it out of one
    /// repository, the cluster's included. The image then goes to the
    /// snapshot job — a pool job when a pool is attached, run here
    /// otherwise. Returns whether a snapshot was started (no pool:
    /// written).
    ///
    /// By the time a cadence fires its records are durable and
    /// acknowledged, so a snapshot failure must not surface as a write
    /// error: failures — and cadences refused because the log is poisoned
    /// — are counted ([`DurabilityStats::snapshot_failures`]) and the log
    /// keeps its longer suffix; recovery is unaffected, just slower.
    ///
    /// [`DurabilityStats::snapshot_pause_us`] is charged everything the
    /// mutating thread spends in here, so the pause an operator reads is
    /// the pause the write path took, whoever assembled the image.
    pub fn snapshot_if_due_with(
        &mut self,
        entry_count: usize,
        capture: impl FnOnce(&[Option<ChunkRef>]) -> Option<CowImage>,
    ) -> bool {
        let t = Instant::now();
        let Some(plan) = self.shared.core.lock().snapshot_plan(entry_count) else { return false };
        let started = capture(&plan).is_some_and(|image| {
            let pool = self.pool.as_ref();
            let (started, ran) = self.shared.step(pool, |core| core.start_snapshot(image, None));
            started.unwrap_or(false) && ran.is_ok()
        });
        self.shared.core.lock().snapshot_paused(t.elapsed().as_micros() as u64);
        started
    }

    /// Whether a snapshot job is currently running.
    pub fn background_snapshot_in_flight(&self) -> bool {
        self.shared.core.lock().snapshot_in_flight()
    }

    /// Block until no snapshot job is in flight, helping the pool while
    /// waiting. Test/bench teardown — the write path never waits.
    pub fn wait_for_background_snapshot(&self) {
        while self.background_snapshot_in_flight() {
            self.help_pool();
        }
    }

    /// The checkpoint: capture `repo` as one run of every slot and write it
    /// here, on the snapshot job, as the snapshot covering every record
    /// appended so far — one chunk file plus its manifest — then prune:
    /// older snapshots, every chunk file the manifest does not reference and
    /// every covered segment go, and appends continue into a fresh segment.
    /// This is the *baseline* (a pre-loaded corpus the log has no records
    /// of) and the manual checkpoint; cadence snapshots
    /// ([`Self::snapshot_if_due`]) write only the dirty chunks. A snapshot
    /// job in flight is waited out first, and the log's entry count is
    /// re-seeded from `repo`, which must be the state produced by exactly
    /// the appended history (the caller owns that invariant;
    /// [`DurableLog::open`]'s repository plus every `Ok` append maintains
    /// it) or, for a baseline, the pre-loaded corpus.
    pub fn snapshot_now(&mut self, repo: &Repository) -> WalResult<()> {
        let entries = Some(repo.len() as u64);
        loop {
            self.wait_for_background_snapshot();
            let image = CowImage::one_run(repo);
            let (started, ran) = self.shared.step(None, |core| core.start_snapshot(image, entries));
            if started? {
                return ran;
            }
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DurabilityStats {
        self.shared.core.lock().stats()
    }

    /// The durability knobs this log runs under.
    pub fn policy(&self) -> DurabilityPolicy {
        self.policy
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.shared.core.lock().next_seq()
    }

    /// Whether the store has no durable history: no snapshot (recovered
    /// or written, a checkpoint at sequence 0 included) and no record.
    pub fn is_empty(&self) -> bool {
        self.shared.core.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::CHUNK_SPECS;
    use crate::storage::{FaultPlan, MemStorage};
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;
    use std::sync::mpsc;

    /// Whether an earlier failure — on the committing thread or on the sync
    /// runner — poisoned the log (appends fail fast, snapshots are refused).
    fn is_poisoned(log: &DurableLog) -> bool {
        log.shared.core.lock().refusal().is_err()
    }

    fn insert() -> Mutation {
        let (spec, _) = fixtures::disease_susceptibility();
        Mutation::InsertSpec { spec, policy: Policy::public() }
    }

    fn exec_for(repo: &Repository, id: SpecId) -> Mutation {
        let entry = repo.entry(id).unwrap();
        Mutation::AddExecution {
            spec: id,
            exec: fixtures::disease_susceptibility_execution(&entry.spec),
        }
    }

    fn drive(log: &mut DurableLog, repo: &mut Repository, mutations: Vec<Mutation>) {
        for m in mutations {
            repo.check(&m).unwrap();
            log.append_batch(std::slice::from_ref(&m)).unwrap();
            repo.apply(m).unwrap();
            log.snapshot_if_due(repo);
        }
    }

    #[test]
    fn mutation_codec_round_trips() {
        let mut repo = Repository::new();
        repo.apply(insert()).unwrap();
        repo.apply(insert()).unwrap();
        let (_, m) = fixtures::disease_susceptibility();
        let mutations = vec![
            insert(),
            exec_for(&repo, SpecId(0)),
            Mutation::SetPolicy { spec: SpecId(0), policy: Policy::public() },
            Mutation::EditSpec {
                spec: SpecId(0),
                text: SpecText {
                    edits: vec![
                        ModuleTextEdit {
                            module: m.m2,
                            name: "Sanitized step".into(),
                            keywords: vec!["redacted".into(), "revised".into()],
                        },
                        ModuleTextEdit { module: m.m3, name: "Bare".into(), keywords: vec![] },
                    ],
                },
            },
            Mutation::EditSpec { spec: SpecId(1), text: SpecText { edits: vec![] } },
            Mutation::DeleteSpec { spec: SpecId(1) },
        ];
        for m in &mutations {
            let mut buf = Vec::new();
            encode_mutation(&mut buf, m);
            let mut r = Reader::new(&buf);
            let decoded = decode_mutation(&mut r).expect("decodes");
            assert!(r.rest().is_empty(), "residue after decode");
            // Structural check: applying original vs decoded to clones of
            // the same repository yields identical bytes.
            let mut a = Repository::load(&repo.save()).unwrap();
            let mut b = Repository::load(&repo.save()).unwrap();
            a.apply(m.clone()).unwrap();
            b.apply(decoded).unwrap();
            assert_eq!(a.save(), b.save());
        }
    }

    #[test]
    fn open_append_recover_round_trip() {
        let storage = Arc::new(MemStorage::new());
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy::default(),
        )
        .unwrap();
        assert!(opened.log.is_empty());
        let mut log = opened.log;
        let mut repo = opened.repository;
        drive(&mut log, &mut repo, vec![insert(), insert()]);
        let exec = exec_for(&repo, SpecId(0));
        drive(&mut log, &mut repo, vec![exec]);
        assert_eq!(log.stats().appends, 3);

        let (recovered, stats) = Repository::recover(&*storage).unwrap();
        assert_eq!(stats.replayed, 3);
        assert_eq!(stats.last_seq, 3);
        assert_eq!(stats.truncated_bytes, 0);
        assert_eq!(recovered.save(), repo.save(), "recovery must be bit-identical");
    }

    #[test]
    fn a_checkpoint_is_history_before_and_after_a_reopen() {
        let storage = Arc::new(MemStorage::new());
        let open = || {
            let backend = Arc::clone(&storage) as Arc<dyn StorageBackend>;
            DurableLog::open(backend, DurabilityPolicy::default()).unwrap()
        };
        let mut log = open().log;
        assert!(log.is_empty(), "a fresh store has no history");
        let mut repo = Repository::new();
        repo.apply(insert()).unwrap();
        log.snapshot_now(&repo).unwrap();
        assert_eq!(log.stats().snapshot_seq, 0, "a checkpoint before any record");
        assert!(!log.is_empty(), "a checkpoint is history");
        drop(log);
        let reopened = open();
        assert_eq!(reopened.repository.save(), repo.save());
        assert!(!reopened.log.is_empty(), "a reopened checkpoint is history");
    }

    #[test]
    fn snapshot_prunes_segments_and_recovery_uses_the_suffix() {
        let storage = Arc::new(MemStorage::new());
        let policy =
            DurabilityPolicy { snapshot_every: 2, segment_bytes: 256, ..Default::default() };
        let opened =
            DurableLog::open(Arc::clone(&storage) as Arc<dyn StorageBackend>, policy).unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        drive(&mut log, &mut repo, vec![insert(), insert(), insert()]);
        assert!(log.stats().snapshots >= 1, "cadence must have fired");
        assert!(log.stats().segments_pruned >= 1, "covered segments must be pruned");
        let (recovered, stats) = Repository::recover(&*storage).unwrap();
        assert!(stats.snapshot_seq >= 2);
        assert_eq!(recovered.save(), repo.save());
        assert_eq!(recovered.version(), repo.version(), "version survives snapshot+suffix");
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_recovered() {
        let storage = Arc::new(MemStorage::new());
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 0, ..Default::default() },
        )
        .unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        drive(&mut log, &mut repo, vec![insert(), insert()]);
        let reference = repo.save();
        // Tear 5 bytes off the live segment's tail.
        let name = segment_name(1);
        storage.tear(&name, 5);
        let (recovered, stats) = Repository::recover(&*storage).unwrap();
        assert_eq!(stats.replayed, 1, "only the intact prefix replays");
        assert!(stats.truncated_bytes > 0);
        assert_ne!(recovered.save(), reference, "torn record must not resurrect");
        // And the truncation is physical: a second recovery is clean.
        let (again, stats2) = Repository::recover(&*storage).unwrap();
        assert_eq!(stats2.truncated_bytes, 0);
        assert_eq!(again.save(), recovered.save());
        // Appending after recovery continues the sequence.
        let reopened = DurableLog::open(
            Arc::new(storage.reopen()) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 0, ..Default::default() },
        )
        .unwrap();
        assert_eq!(reopened.log.next_seq(), 2);
    }

    #[test]
    fn interior_corruption_is_a_typed_error() {
        let storage = Arc::new(MemStorage::new());
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 0, ..Default::default() },
        )
        .unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        drive(&mut log, &mut repo, vec![insert(), insert(), insert()]);
        // Flip a byte inside the FIRST record's body: interior corruption.
        storage.flip_byte(&segment_name(1), RECORD_HEADER + 2);
        match Repository::recover(&*storage) {
            Err(WalError::Corrupt { segment, .. }) => assert_eq!(segment, segment_name(1)),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn failed_fsync_poisons_the_log() {
        let storage =
            Arc::new(MemStorage::with_faults(FaultPlan { fail_syncs: 1, ..FaultPlan::default() }));
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy::default(),
        )
        .unwrap();
        let mut log = opened.log;
        assert!(log.append_batch(&[insert()]).is_err(), "fsync failure must not acknowledge");
        assert!(is_poisoned(&log));
        match log.append_batch(&[insert()]) {
            Err(WalError::Poisoned { .. }) => {}
            other => panic!("expected Poisoned, got {other:?}"),
        }
        // The first frame reached its segment; no fsync ever covered it,
        // and the refused second one was never appended.
        let stats = log.stats();
        assert_eq!((stats.appends, stats.syncs, stats.last_seq), (1, 0, 1));
    }

    #[test]
    fn failed_snapshot_rename_keeps_old_snapshot_and_log_usable_state() {
        let storage = Arc::new(MemStorage::new());
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 0, ..Default::default() },
        )
        .unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        drive(&mut log, &mut repo, vec![insert()]);
        log.snapshot_now(&repo).unwrap();
        drive(&mut log, &mut repo, vec![insert()]);
        storage.set_plan(FaultPlan { fail_renames: 1, ..FaultPlan::default() });
        assert!(log.snapshot_now(&repo).is_err(), "injected rename failure surfaces");
        // The old snapshot + full suffix still recover the exact state.
        let (recovered, _) = Repository::recover(&*storage).unwrap();
        assert_eq!(recovered.save(), repo.save());
    }

    #[test]
    fn batched_append_recovers_bit_identically_with_one_fsync() {
        let storage = Arc::new(MemStorage::new());
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 0, ..DurabilityPolicy::pipelined(8, 0) },
        )
        .unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        // One singleton append first: the batch must continue its sequence.
        repo.check(&insert()).unwrap();
        log.append_batch(&[insert()]).unwrap();
        repo.apply(insert()).unwrap();
        let batch = vec![insert(), exec_for(&repo, SpecId(0)), insert()];
        for m in &batch {
            repo.check(m).unwrap();
        }
        let syncs_before = log.stats().syncs;
        let first = log.append_batch(&batch).unwrap();
        assert_eq!(first, 2);
        for m in batch {
            repo.apply(m).unwrap();
        }
        let stats = log.stats();
        assert_eq!(stats.syncs, syncs_before + 1, "one fsync covers the whole batch");
        assert_eq!(stats.fsyncs_saved, 2);
        assert_eq!(stats.appends, 4, "appends count mutations, not records");
        assert_eq!(stats.records, 2, "records count physical records");
        assert_eq!(stats.batch_size_counts.iter().sum::<u64>(), 2);
        assert_eq!(stats.batch_size_counts[0], 1, "the singleton lands in the ≤1 bucket");
        assert_eq!(stats.batch_size_counts[2], 1, "the 3-batch lands in the ≤4 bucket");
        assert_eq!(stats.last_seq, 4);
        assert_eq!(log.next_seq(), 5);

        let (recovered, rstats) = Repository::recover(&*storage).unwrap();
        assert_eq!(rstats.replayed, 4);
        assert_eq!(rstats.last_seq, 4);
        assert_eq!(recovered.save(), repo.save(), "batched replay must be bit-identical");
    }

    #[test]
    fn a_torn_batch_tail_truncates_wholly() {
        let storage = Arc::new(MemStorage::new());
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 0, ..Default::default() },
        )
        .unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        drive(&mut log, &mut repo, vec![insert()]);
        let reference = repo.save();
        let batch = vec![insert(), insert()];
        log.append_batch(&batch).unwrap();
        // Tear one byte: the 2-mutation batch is one record, so BOTH
        // members must vanish — never a partially-recovered batch.
        storage.tear(&segment_name(1), 1);
        let (recovered, stats) = Repository::recover(&*storage).unwrap();
        assert_eq!(stats.replayed, 1, "only the pre-batch prefix survives");
        assert_eq!(stats.last_seq, 1);
        assert_eq!(recovered.save(), reference);
    }

    #[test]
    fn background_snapshot_prunes_off_thread_and_recovers() {
        let storage = Arc::new(MemStorage::new());
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 2, ..Default::default() },
        )
        .unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        log.set_pool(Arc::new(WorkerPool::new(1)));
        for m in [insert(), insert(), insert(), insert(), insert()] {
            repo.check(&m).unwrap();
            log.append_batch(std::slice::from_ref(&m)).unwrap();
            repo.apply(m).unwrap();
            log.snapshot_if_due(&repo);
            // Serialize with the job so every cadence point fires (the
            // in-flight guard would otherwise skip some — also allowed).
            log.wait_for_background_snapshot();
        }
        let stats = log.stats();
        assert!(stats.background_snapshots >= 2, "cadence fired in the background");
        assert_eq!(stats.snapshots, stats.background_snapshots, "no checkpoints");
        assert!(stats.segments_pruned >= 1, "background jobs prune covered segments");
        assert!(stats.snapshot_seq >= 4);
        let (recovered, rstats) = Repository::recover(&*storage).unwrap();
        assert!(rstats.snapshot_seq >= 4);
        assert_eq!(recovered.save(), repo.save(), "snapshot + suffix replay bit-identical");
        assert_eq!(recovered.version(), repo.version());
    }

    /// Callback sink for pipelined appends: records each frame's
    /// durability outcome in completion order.
    fn acked_sink() -> (Arc<Mutex<Vec<WalResult<()>>>>, impl Fn() -> DurableCallback) {
        let acked: Arc<Mutex<Vec<WalResult<()>>>> = Arc::default();
        let sink = Arc::clone(&acked);
        let make = move || {
            let sink = Arc::clone(&sink);
            Box::new(move |r: WalResult<()>| sink.lock().push(r)) as DurableCallback
        };
        (acked, make)
    }

    #[test]
    fn pipelined_appends_overlap_one_covering_fsync() {
        let storage = Arc::new(MemStorage::new());
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 0, ..DurabilityPolicy::pipelined(8, 0) },
        )
        .unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        let pool = Arc::new(WorkerPool::new(1));
        log.set_pool(Arc::clone(&pool));
        // Plug the single pool thread so every frame queues behind one
        // in-flight "fsync": the appends below all overlap it.
        let (open_gate, gate) = mpsc::channel::<()>();
        pool.exec(move || gate.recv().unwrap());
        let (acked, make) = acked_sink();
        for _ in 0..4 {
            let m = insert();
            repo.check(&m).unwrap();
            log.commit(std::slice::from_ref(&m), make()).unwrap();
            repo.apply(m).unwrap();
        }
        assert!(acked.lock().is_empty(), "nothing acknowledged before the fsync");
        open_gate.send(()).unwrap();
        log.wait_for_pipeline();
        let outcomes = acked.lock();
        assert_eq!(outcomes.len(), 4, "every frame acknowledged exactly once");
        assert!(outcomes.iter().all(|r| r.is_ok()));
        drop(outcomes);
        let stats = log.stats();
        assert_eq!(stats.pipeline_depth_high_water, 4, "all four frames queued at once");
        assert_eq!(stats.overlapped_fsyncs, 3, "frames 2..4 overlapped the in-flight job");
        assert_eq!(stats.syncs, 1, "one covering fsync drains the whole queue");
        assert_eq!(stats.fsyncs_saved, 3, "per-record would have cost four");
        let (recovered, rstats) = Repository::recover(&*storage).unwrap();
        assert_eq!(rstats.replayed, 4);
        assert_eq!(recovered.save(), repo.save(), "pipelined replay bit-identical");
    }

    #[test]
    fn pipelined_fsync_failure_fails_every_queued_frame_and_poisons() {
        let storage =
            Arc::new(MemStorage::with_faults(FaultPlan { fail_syncs: 1, ..FaultPlan::default() }));
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 0, ..DurabilityPolicy::pipelined(8, 0) },
        )
        .unwrap();
        let mut log = opened.log;
        let pool = Arc::new(WorkerPool::new(1));
        log.set_pool(Arc::clone(&pool));
        let (open_gate, gate) = mpsc::channel::<()>();
        pool.exec(move || gate.recv().unwrap());
        let (acked, make) = acked_sink();
        for _ in 0..3 {
            log.commit(&[insert()], make()).unwrap();
        }
        open_gate.send(()).unwrap();
        log.wait_for_pipeline();
        let outcomes = acked.lock();
        assert_eq!(outcomes.len(), 3, "failed frames still complete their callbacks");
        assert!(outcomes.iter().all(|r| r.is_err()), "no frame may acknowledge");
        assert!(matches!(outcomes[0], Err(WalError::Storage(_))));
        assert!(matches!(outcomes[1], Err(WalError::Poisoned { .. })));
        drop(outcomes);
        match log.commit(&[insert()], Box::new(|_| {})) {
            Err(WalError::Poisoned { .. }) => {}
            other => panic!("expected Poisoned, got {other:?}"),
        }
        assert!(is_poisoned(&log));
        assert_eq!(log.stats().syncs, 0);
    }

    /// A covering fsync that fails on the sync job poisons the log *then*,
    /// not at the next append: `is_poisoned` says so as soon as the pipeline
    /// drains, and the cadence snapshot due on the same frame's heels is
    /// refused and counted — no snapshot, rotation or prune runs over a
    /// tail in an unknown state.
    #[test]
    fn pipelined_fsync_failure_is_visible_at_once_and_refuses_the_due_snapshot() {
        let storage =
            Arc::new(MemStorage::with_faults(FaultPlan { fail_syncs: 1, ..FaultPlan::default() }));
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 1, ..DurabilityPolicy::pipelined(8, 0) },
        )
        .unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        log.set_pool(Arc::new(WorkerPool::new(1)));
        let (acked, make) = acked_sink();
        let m = insert();
        repo.check(&m).unwrap();
        log.commit(std::slice::from_ref(&m), make()).unwrap();
        repo.apply(m).unwrap();
        log.wait_for_pipeline();
        assert!(acked.lock()[0].is_err(), "the failed fsync must not acknowledge");
        assert!(is_poisoned(&log), "poison is visible without a further append");
        assert!(log.snapshot_due());
        assert!(!log.snapshot_if_due(&repo), "a poisoned log refuses its cadence snapshot");
        let stats = log.stats();
        assert_eq!((stats.snapshots, stats.snapshot_failures), (0, 1), "refused and counted");
        assert_eq!(stats.rotations, 0, "the refused snapshot did not rotate");
        assert_eq!(storage.list().unwrap(), vec![segment_name(1)], "nothing written or pruned");
        assert!(matches!(log.snapshot_now(&repo), Err(WalError::Poisoned { .. })));
    }

    #[test]
    fn pipelined_without_sync_pool_degrades_to_inline_fsync() {
        let storage = Arc::new(MemStorage::new());
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 0, ..DurabilityPolicy::pipelined(8, 0) },
        )
        .unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        let (acked, make) = acked_sink();
        let batch = vec![insert(), insert()];
        for m in &batch {
            repo.check(m).unwrap();
        }
        log.commit(&batch, make()).unwrap();
        for m in batch {
            repo.apply(m).unwrap();
        }
        assert_eq!(acked.lock().len(), 1, "callback fired before return");
        assert!(acked.lock()[0].is_ok());
        let stats = log.stats();
        assert_eq!(stats.syncs, 1, "the covering fsync ran inline");
        assert_eq!(stats.fsyncs_saved, 1);
        assert_eq!(stats.overlapped_fsyncs, 0, "nothing to overlap without a pool");
        let (recovered, _) = Repository::recover(&*storage).unwrap();
        assert_eq!(recovered.save(), repo.save());
    }

    #[test]
    fn a_final_record_checksum_tear_truncates_but_valid_successors_mean_corruption() {
        let storage = Arc::new(MemStorage::new());
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 0, ..Default::default() },
        )
        .unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        drive(&mut log, &mut repo, vec![insert(), insert(), insert()]);
        let reference = repo.save();
        // Compute where the LAST record begins so we can flip inside it.
        let name = segment_name(1);
        let bytes = storage.read(&name).unwrap().unwrap();
        let mut offsets = Vec::new();
        let mut at = 0usize;
        while at + RECORD_HEADER <= bytes.len() {
            offsets.push(at);
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            at += RECORD_HEADER + len;
        }
        assert_eq!(offsets.len(), 3);
        // A checksum mismatch on the final record has no valid successor:
        // it is a torn tail and truncates (the chain-walk rule).
        storage.flip_byte(&name, offsets[2] + RECORD_HEADER + 1);
        let (recovered, stats) = Repository::recover(&*storage).unwrap();
        assert_eq!(stats.replayed, 2, "the intact prefix replays");
        assert!(stats.truncated_bytes > 0);
        assert_ne!(recovered.save(), reference);
        // The same flip on an interior record has valid successors after
        // it: real corruption, typed error (pinned by
        // interior_corruption_is_a_typed_error).
    }

    #[test]
    fn cow_snapshots_reuse_clean_chunks_and_recover_bit_identically() {
        let storage = Arc::new(MemStorage::new());
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 1, ..Default::default() },
        )
        .unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        log.set_pool(Arc::new(WorkerPool::new(1)));
        // Fill past one chunk (CHUNK_SPECS entries): once chunk 0 is full
        // and untouched, later snapshots must reuse it by reference.
        for _ in 0..(CHUNK_SPECS + 4) {
            let m = insert();
            repo.check(&m).unwrap();
            log.append_batch(std::slice::from_ref(&m)).unwrap();
            repo.apply(m).unwrap();
            log.snapshot_if_due(&repo);
            log.wait_for_background_snapshot();
        }
        let stats = log.stats();
        assert!(
            stats.background_snapshots >= CHUNK_SPECS as u64,
            "cadence-1 snapshots each append"
        );
        assert!(stats.snapshot_chunks_written >= 1);
        assert!(
            stats.snapshot_chunks_reused >= 3,
            "full, untouched chunk 0 reused by reference: {stats:?}"
        );
        // Only live chunks survive pruning: at most one per chunk range.
        let chunks = storage
            .list()
            .unwrap()
            .iter()
            .filter(|n| snapshot::parse_chunk_name(n).is_some())
            .count();
        assert_eq!(chunks, 2, "stale chunk generations pruned");
        let (recovered, rstats) = Repository::recover(&*storage).unwrap();
        assert_eq!(rstats.snapshot_seq, (CHUNK_SPECS + 4) as u64);
        assert_eq!(recovered.save(), repo.save(), "chunked snapshot replay bit-identical");
        assert_eq!(recovered.version(), repo.version());
    }

    #[test]
    fn a_covered_segment_a_prune_left_behind_does_not_break_recovery() {
        let storage = Arc::new(MemStorage::new());
        let policy =
            DurabilityPolicy { snapshot_every: 6, segment_bytes: 1500, ..Default::default() };
        let opened =
            DurableLog::open(Arc::clone(&storage) as Arc<dyn StorageBackend>, policy).unwrap();
        let (mut log, mut repo) = (opened.log, opened.repository);
        drive(&mut log, &mut repo, vec![insert()]);
        let first = storage.read(&segment_name(1)).unwrap().unwrap();
        drive(&mut log, &mut repo, (0..7).map(|_| insert()).collect());
        assert!(log.stats().segments_pruned >= 2, "the snapshot at 6 pruned wal-1 and more");
        // The removal of the first segment failed: it survives the prune,
        // and the segments after it up to the snapshot are gone.
        storage.append(&segment_name(1), &first).unwrap();
        let (recovered, stats) = Repository::recover(&*storage).unwrap();
        assert_eq!((stats.snapshot_seq, stats.last_seq), (6, 8));
        assert_eq!(recovered.save(), repo.save());
    }

    #[test]
    fn segment_rotation_splits_the_log() {
        let storage = Arc::new(MemStorage::new());
        let opened = DurableLog::open(
            Arc::clone(&storage) as Arc<dyn StorageBackend>,
            DurabilityPolicy { snapshot_every: 0, segment_bytes: 600, ..Default::default() },
        )
        .unwrap();
        let mut log = opened.log;
        let mut repo = opened.repository;
        drive(&mut log, &mut repo, vec![insert(), insert(), insert(), insert()]);
        assert!(log.stats().rotations >= 1, "600-byte segments must rotate");
        let (recovered, stats) = Repository::recover(&*storage).unwrap();
        assert!(stats.segments >= 2);
        assert_eq!(stats.replayed, 4);
        assert_eq!(recovered.save(), repo.save());
    }
}
