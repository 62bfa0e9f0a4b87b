//! A segmented, checksummed write-ahead log of typed [`Mutation`]s.
//!
//! The serving stack is in-memory; this module is what lets it survive a
//! restart or a torn write. There is **one write path**, and every caller
//! — a lone [`DurableLog::append`], the cluster's run flush, the serving
//! front's fenced batches — goes down it:
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
//!    appended to that segment before it. [`DurableLog::append_batch`]
//!    runs it on the calling thread and returns after it.
//!    [`DurableLog::append_batch_pipelined`] returns as soon as the record
//!    is in the segment — the caller applies the run, and frames and
//!    applies the next one, meanwhile — and leaves the fsync to the *sync
//!    job*: a [`WorkerPool`] job that drains the queue of pending frames in
//!    FIFO order, fsyncs once per drained run of frames sharing a segment,
//!    and only then fires each frame's [`DurableCallback`]. Which thread
//!    the job runs on is the one thing the log reads off its surroundings
//!    rather than its policy: with a pool attached ([`DurableLog::set_pool`])
//!    it is a pool job; without one the same fsync runs on the caller
//!    before the pipelined append returns.
//! 3. **Acknowledge strictly behind durability.** A mutation may be
//!    acknowledged when `append_batch` returns `Ok`, or when its frame's
//!    callback fires `Ok` — never earlier, and callbacks fire in append
//!    order. There is no policy that acknowledges without the fsync. What
//!    the pipelined end adds is only that the *mutating thread* does not
//!    idle through fsync latency; in that window the in-memory state (and
//!    a reader of it) is ahead of the durable prefix by frames nobody has
//!    been told about — a read-uncommitted window over losable suffix
//!    data, never over anything acknowledged.
//! 4. **Failure poisons.** A failed append or covering fsync — on the
//!    caller or on the sync job — poisons the log: every queued and later
//!    frame fails with a typed error (nothing acknowledged), and cadence
//!    snapshots are refused, because the tail is in an unknown state.
//!    Re-open (recover) to resume. A crash while frames are in flight
//!    leaves 0..n appended-but-unsynced records on disk; recovery's
//!    truncate-at-tear rule extends across them (below), so the recovered
//!    prefix is record-aligned, holds every acknowledged record, and never
//!    resurrects a torn one.
//!
//! **Snapshots** bound log size and recovery time. Every
//! [`DurabilityPolicy::snapshot_every`] records the write path captures a
//! copy-on-write image (pointer copies of the chunks dirtied since the last
//! snapshot), rotates to a fresh segment, and hands the image to the
//! *snapshot job*, which writes the dirty chunks and a manifest
//! ([`crate::snapshot`], format v3) and prunes every segment whose first
//! sequence number the snapshot covers — on the pool when one is attached,
//! on the caller otherwise; the same job body either way. The
//! whole-image v1 writer ([`DurableLog::snapshot_now`]) remains for the
//! baseline checkpoint of a pre-loaded corpus and for manual checkpoints.
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
use crate::mutation::{ModuleTextEdit, Mutation, SpecText};
use crate::pool::WorkerPool;
use crate::repository::{policy_codec, Repository, SpecId};
use crate::snapshot::{self, ChunkRef, CowImage, CHUNK_SPECS};
use crate::storage::{StorageBackend, StorageError};
use ppwf_model::codec;
use ppwf_model::ids::ModuleId;
use serde::wire;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

impl From<WalError> for ppwf_model::ModelError {
    fn from(e: WalError) -> Self {
        ppwf_model::ModelError::invalid(format!("durability: {e}"))
    }
}

/// Result alias for durability operations.
pub type WalResult<T> = std::result::Result<T, WalError>;

// ---------------------------------------------------------------------------
// Record framing and the mutation payload codec.
// ---------------------------------------------------------------------------

/// Bytes of `[u32 len][u64 checksum]` before each record body.
const RECORD_HEADER: usize = 4 + 8;

const TAG_INSERT_SPEC: u8 = 1;
const TAG_ADD_EXECUTION: u8 = 2;
const TAG_SET_POLICY: u8 = 3;
/// A group-commit record: `uvarint count` then `count` mutation payloads,
/// covering sequence numbers `first_seq .. first_seq + count`.
const TAG_BATCH: u8 = 4;
/// A spec deletion: `uvarint spec`.
const TAG_DELETE_SPEC: u8 = 5;
/// A spec text revision: `uvarint spec`, `uvarint edit count`, then per
/// edit `uvarint module`, len-prefixed UTF-8 name, `uvarint keyword
/// count`, and len-prefixed UTF-8 keywords.
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
    match mutation {
        Mutation::InsertSpec { spec, policy } => {
            buf.push(TAG_INSERT_SPEC);
            wire::put_len_prefixed(buf, &codec::encode_spec(spec));
            wire::put_len_prefixed(buf, &policy_codec::encode_policy(policy));
        }
        Mutation::AddExecution { spec, exec } => {
            buf.push(TAG_ADD_EXECUTION);
            wire::put_uvarint(buf, spec.0 as u64);
            wire::put_len_prefixed(buf, &codec::encode_execution(exec));
        }
        Mutation::SetPolicy { spec, policy } => {
            buf.push(TAG_SET_POLICY);
            wire::put_uvarint(buf, spec.0 as u64);
            wire::put_len_prefixed(buf, &policy_codec::encode_policy(policy));
        }
        Mutation::DeleteSpec { spec } => {
            buf.push(TAG_DELETE_SPEC);
            wire::put_uvarint(buf, spec.0 as u64);
        }
        Mutation::EditSpec { spec, text } => {
            buf.push(TAG_EDIT_SPEC);
            wire::put_uvarint(buf, spec.0 as u64);
            wire::put_uvarint(buf, text.edits.len() as u64);
            for edit in &text.edits {
                wire::put_uvarint(buf, edit.module.0 as u64);
                wire::put_len_prefixed(buf, edit.name.as_bytes());
                wire::put_uvarint(buf, edit.keywords.len() as u64);
                for kw in &edit.keywords {
                    wire::put_len_prefixed(buf, kw.as_bytes());
                }
            }
        }
    }
}

/// Decode one mutation from the front of `bytes`, advancing past it.
/// `None` on any framing or nested-codec failure (the caller owns the
/// offset context for a typed error).
pub fn decode_mutation(bytes: &mut &[u8]) -> Option<Mutation> {
    let tag = *bytes.first()?;
    *bytes = &bytes[1..];
    match tag {
        TAG_INSERT_SPEC => {
            let spec = codec::decode_spec(wire::get_len_prefixed(bytes)?).ok()?;
            let policy = policy_codec::decode_policy(wire::get_len_prefixed(bytes)?).ok()?;
            Some(Mutation::InsertSpec { spec, policy })
        }
        TAG_ADD_EXECUTION => {
            let id = wire::get_uvarint(bytes)?;
            let exec = codec::decode_execution(wire::get_len_prefixed(bytes)?).ok()?;
            Some(Mutation::AddExecution { spec: SpecId(u32::try_from(id).ok()?), exec })
        }
        TAG_SET_POLICY => {
            let id = wire::get_uvarint(bytes)?;
            let policy = policy_codec::decode_policy(wire::get_len_prefixed(bytes)?).ok()?;
            Some(Mutation::SetPolicy { spec: SpecId(u32::try_from(id).ok()?), policy })
        }
        TAG_DELETE_SPEC => {
            let id = wire::get_uvarint(bytes)?;
            Some(Mutation::DeleteSpec { spec: SpecId(u32::try_from(id).ok()?) })
        }
        TAG_EDIT_SPEC => {
            let id = wire::get_uvarint(bytes)?;
            let count = wire::get_uvarint(bytes)?;
            let mut edits = Vec::with_capacity(usize::try_from(count).ok()?.min(64));
            for _ in 0..count {
                let module = wire::get_uvarint(bytes)?;
                let name = String::from_utf8(wire::get_len_prefixed(bytes)?.to_vec()).ok()?;
                let kw_count = wire::get_uvarint(bytes)?;
                let mut keywords = Vec::with_capacity(usize::try_from(kw_count).ok()?.min(64));
                for _ in 0..kw_count {
                    let kw = String::from_utf8(wire::get_len_prefixed(bytes)?.to_vec()).ok()?;
                    keywords.push(kw);
                }
                edits.push(ModuleTextEdit {
                    module: ModuleId(u32::try_from(module).ok()?),
                    name,
                    keywords,
                });
            }
            Some(Mutation::EditSpec {
                spec: SpecId(u32::try_from(id).ok()?),
                text: SpecText { edits },
            })
        }
        _ => None,
    }
}

/// Wrap a record body in the `[len][checksum]` framing.
fn frame(body: Vec<u8>) -> Vec<u8> {
    let mut record = Vec::with_capacity(RECORD_HEADER + body.len());
    record.extend_from_slice(&(body.len() as u32).to_le_bytes());
    record.extend_from_slice(&checksum_of(&body).to_le_bytes());
    record.extend_from_slice(&body);
    record
}

/// Frame `(seq, mutation)` as one checksummed record.
pub(crate) fn encode_record(seq: u64, mutation: &Mutation) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    wire::put_uvarint(&mut body, seq);
    encode_mutation(&mut body, mutation);
    frame(body)
}

/// Frame a FIFO run of mutations as **one** checksummed group-commit
/// record covering `first_seq .. first_seq + mutations.len()`. The
/// mutation payloads are self-delimiting, so no per-mutation framing is
/// needed — and a torn batch tears as a single record.
pub(crate) fn encode_batch_record(first_seq: u64, mutations: &[Mutation]) -> Vec<u8> {
    debug_assert!(mutations.len() > 1, "singleton appends use the plain record framing");
    let mut body = Vec::with_capacity(64 * mutations.len());
    wire::put_uvarint(&mut body, first_seq);
    body.push(TAG_BATCH);
    wire::put_uvarint(&mut body, mutations.len() as u64);
    for mutation in mutations {
        encode_mutation(&mut body, mutation);
    }
    frame(body)
}

fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:016x}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    u64::from_str_radix(hex, 16).ok()
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
    /// `(name, surviving bytes)` of the segment appends continue into.
    active_segment: Option<(String, u64)>,
    /// Chunk manifest of the loaded snapshot, when it was chunked (v3):
    /// what a re-opened log seeds its copy-on-write reuse from.
    manifest: Option<Vec<ChunkRef>>,
    /// Chunks touched by the replayed log suffix — dirty relative to the
    /// loaded manifest.
    dirty_chunks: BTreeSet<u32>,
}

/// The chunk a mutation dirties, given the repository state it applies
/// to: an insert lands at the next dense id, the others name their spec.
fn dirtied_chunk(repo: &Repository, mutation: &Mutation) -> u32 {
    let id = match mutation {
        Mutation::InsertSpec { .. } => repo.len() as u32,
        Mutation::AddExecution { spec, .. }
        | Mutation::SetPolicy { spec, .. }
        | Mutation::DeleteSpec { spec }
        | Mutation::EditSpec { spec, .. } => spec.0,
    };
    snapshot::chunk_of(id)
}

/// Whether any checksum-valid record exists at or after `at`, walking the
/// record length chain. Called on a checksum mismatch in the last
/// segment: a valid successor proves the mismatch is interior damage of
/// once-acknowledged data; no valid successor means everything from the
/// mismatch on is an unsynced in-flight tail a crash may legitimately
/// tear (a garbled length field desyncs the walk onto garbage checksums,
/// which is the same answer — truncate).
fn tail_has_valid_successor(bytes: &[u8], mut at: usize) -> bool {
    while at + RECORD_HEADER <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let stored = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
        let Some(end) = (at + RECORD_HEADER).checked_add(len) else { return false };
        if end > bytes.len() {
            return false;
        }
        if checksum_of(&bytes[at + RECORD_HEADER..end]) == stored {
            return true;
        }
        at = end;
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
    let mut active_segment: Option<(String, u64)> = None;
    let last_index = segments.len().wrapping_sub(1);
    for (i, (_, name)) in segments.iter().enumerate() {
        let bytes = backend
            .read(name)?
            .ok_or_else(|| StorageError::io("read", name, "segment vanished during recovery"))?;
        let is_last_segment = i == last_index;
        let mut offset = 0usize;
        let mut torn_at: Option<(usize, String)> = None;
        while offset < bytes.len() {
            let remaining = bytes.len() - offset;
            if remaining < RECORD_HEADER {
                torn_at = Some((offset, format!("{remaining}-byte header fragment")));
                break;
            }
            let len =
                u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
            let stored_sum =
                u64::from_le_bytes(bytes[offset + 4..offset + 12].try_into().expect("8 bytes"));
            if remaining < RECORD_HEADER + len {
                torn_at = Some((
                    offset,
                    format!("record wants {len} body bytes, {} present", remaining - RECORD_HEADER),
                ));
                break;
            }
            let body = &bytes[offset + RECORD_HEADER..offset + RECORD_HEADER + len];
            if checksum_of(body) != stored_sum {
                // A bad checksum in the last segment with no valid record
                // after it is a torn (unacknowledged) tail — e.g. blocks
                // flushed out of order at power loss; with pipelined
                // commit the tear can start frames before the end, so the
                // rule walks the length chain instead of demanding the
                // mismatch be the final record. A valid successor — or
                // any mismatch in a non-final segment — is interior
                // corruption of acknowledged data.
                if is_last_segment
                    && !tail_has_valid_successor(&bytes, offset + RECORD_HEADER + len)
                {
                    torn_at = Some((
                        offset,
                        "checksum mismatch with no valid successor (torn tail)".to_string(),
                    ));
                    break;
                }
                return Err(WalError::Corrupt {
                    segment: name.clone(),
                    offset: offset as u64,
                    detail: "checksum mismatch on interior record".to_string(),
                });
            }
            let mut cursor = body;
            let seq = wire::get_uvarint(&mut cursor).ok_or_else(|| WalError::Corrupt {
                segment: name.clone(),
                offset: offset as u64,
                detail: "unreadable sequence number".to_string(),
            })?;
            match expected_next {
                None if seq > snapshot_seq + 1 => {
                    return Err(WalError::Corrupt {
                        segment: name.clone(),
                        offset: offset as u64,
                        detail: format!(
                            "log starts at seq {seq} but snapshot covers only through \
                             {snapshot_seq}: missing records"
                        ),
                    });
                }
                Some(expected) if seq != expected => {
                    return Err(WalError::Corrupt {
                        segment: name.clone(),
                        offset: offset as u64,
                        detail: format!("sequence gap: expected {expected}, found {seq}"),
                    });
                }
                _ => {}
            }
            if cursor.first() == Some(&TAG_BATCH) {
                // A group-commit record: `seq` is the first of a
                // contiguous run. The whole run was acknowledged by one
                // fsync, and the record's checksum already verified, so
                // every member decodes or the record is corrupt.
                cursor = &cursor[1..];
                let count = wire::get_uvarint(&mut cursor).ok_or_else(|| WalError::Corrupt {
                    segment: name.clone(),
                    offset: offset as u64,
                    detail: "unreadable batch count".to_string(),
                })?;
                if count == 0 {
                    return Err(WalError::Corrupt {
                        segment: name.clone(),
                        offset: offset as u64,
                        detail: "empty batch record".to_string(),
                    });
                }
                for k in 0..count {
                    let record_seq = seq + k;
                    let mutation =
                        decode_mutation(&mut cursor).ok_or_else(|| WalError::Corrupt {
                            segment: name.clone(),
                            offset: offset as u64,
                            detail: format!("undecodable mutation payload at seq {record_seq}"),
                        })?;
                    // Decode unconditionally (the payloads are
                    // self-delimiting, the cursor must advance); apply
                    // only past the snapshot point.
                    if record_seq > snapshot_seq {
                        dirty_chunks.insert(dirtied_chunk(&repo, &mutation));
                        repo.apply(mutation).map_err(|e| WalError::Replay {
                            seq: record_seq,
                            detail: e.to_string(),
                        })?;
                        stats.replayed += 1;
                        stats.last_seq = record_seq;
                    }
                }
                if !cursor.is_empty() {
                    return Err(WalError::Corrupt {
                        segment: name.clone(),
                        offset: offset as u64,
                        detail: format!("{} trailing bytes after batch", cursor.len()),
                    });
                }
                expected_next = Some(seq + count);
            } else {
                expected_next = Some(seq + 1);
                if seq > snapshot_seq {
                    let mutation =
                        decode_mutation(&mut cursor).ok_or_else(|| WalError::Corrupt {
                            segment: name.clone(),
                            offset: offset as u64,
                            detail: format!("undecodable mutation payload at seq {seq}"),
                        })?;
                    if !cursor.is_empty() {
                        return Err(WalError::Corrupt {
                            segment: name.clone(),
                            offset: offset as u64,
                            detail: format!("{} trailing bytes after mutation", cursor.len()),
                        });
                    }
                    dirty_chunks.insert(dirtied_chunk(&repo, &mutation));
                    repo.apply(mutation)
                        .map_err(|e| WalError::Replay { seq, detail: e.to_string() })?;
                    stats.replayed += 1;
                    stats.last_seq = seq;
                }
            }
            offset += RECORD_HEADER + len;
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
            active_segment = Some((name.clone(), clean as u64));
        } else if is_last_segment {
            active_segment = Some((name.clone(), bytes.len() as u64));
        }
    }
    Ok(Replayed { repo, stats, active_segment, manifest, dirty_chunks })
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

    /// [`Self::recover`] over real files rooted at `dir`.
    pub fn recover_dir(
        dir: impl Into<std::path::PathBuf>,
    ) -> WalResult<(Repository, RecoveryStats)> {
        let storage = crate::storage::FsStorage::open(dir)?;
        Repository::recover(&storage)
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
    /// Snapshots written (cadence and [`DurableLog::snapshot_now`]).
    pub snapshots: u64,
    /// Cadence snapshots the snapshot job completed — on the pool when one
    /// is attached, on the mutating thread otherwise.
    pub background_snapshots: u64,
    /// Fully covered segments pruned after snapshots.
    pub segments_pruned: u64,
    /// Cadence snapshots that failed or were refused (see
    /// [`DurableLog::snapshot_if_due`]); the log keeps its longer suffix
    /// and retries at the next cadence point.
    pub snapshot_failures: u64,
    /// µs the *mutating thread* spent paused inside cadence snapshots:
    /// chunk planning, capturing the copy-on-write image (pointer copies of
    /// the dirty chunks — by the log or by the caller of
    /// [`DurableLog::snapshot_if_due_with`]) and the rotation hand-off;
    /// without a pool, the snapshot job itself as well.
    pub snapshot_pause_us: u64,
    /// µs snapshot jobs spent serializing, writing, and pruning.
    pub snapshot_background_us: u64,
    /// Highest appended sequence number.
    pub last_seq: u64,
    /// Sequence number the latest snapshot covers through.
    pub snapshot_seq: u64,
    /// Deepest the sync queue has been (frames awaiting their covering
    /// fsync, including the one being synced).
    pub pipeline_depth_high_water: u64,
    /// Frames enqueued while a sync job was already running — each one is
    /// an append/apply that overlapped an in-flight fsync.
    pub overlapped_fsyncs: u64,
    /// Chunks serialized and written by copy-on-write snapshots.
    pub snapshot_chunks_written: u64,
    /// Chunks reused by reference (clean since the last snapshot, or
    /// deduplicated by content address) across copy-on-write snapshots.
    pub snapshot_chunks_reused: u64,
    /// Bytes snapshots actually wrote (chunk payloads + manifests for
    /// copy-on-write snapshots, the full image for whole-image ones).
    pub snapshot_bytes_written: u64,
}

/// Counters the snapshot job updates; shared between the log and an
/// in-flight pool job, merged into [`DurabilityStats`] on read.
#[derive(Default)]
struct BgSnapshot {
    /// One snapshot job at a time: set before it starts, cleared by the
    /// job. While set, due cadences are skipped (and retried later).
    in_flight: AtomicBool,
    completed: AtomicU64,
    failed: AtomicU64,
    busy_us: AtomicU64,
    pruned: AtomicU64,
    snapshot_seq: AtomicU64,
    chunks_written: AtomicU64,
    chunks_reused: AtomicU64,
    bytes_written: AtomicU64,
    /// The finished job's verdict, harvested by the mutating thread at
    /// the next snapshot decision ([`DurableLog::refresh_manifest`]):
    /// `Some(Some(manifest))` — success, the new baseline; `Some(None)` —
    /// failure, the chunks the job was flushing are still dirty.
    outcome: Mutex<Option<Option<Vec<ChunkRef>>>>,
}

/// What each pipelined append hands the sync job: which segment's fsync
/// covers it, how many mutations it carries (for `fsyncs_saved`), and the
/// acknowledgement to fire once that fsync lands.
struct PendingFrame {
    segment: String,
    count: u64,
    on_durable: DurableCallback,
}

/// Fired exactly once per [`DurableLog::append_batch_pipelined`] frame,
/// after the fsync covering it succeeds (`Ok`) or the log poisons
/// (`Err`). With a pool it runs on the sync job's thread — keep it cheap
/// and lock-light.
pub type DurableCallback = Box<dyn FnOnce(WalResult<()>) + Send + 'static>;

#[derive(Default)]
struct SyncQueue {
    pending: VecDeque<PendingFrame>,
    /// A sync job is draining the queue; new frames just enqueue.
    job_active: bool,
    /// The failure that poisoned the log — an append or covering fsync, on
    /// the mutating thread or on the sync job: every queued and future
    /// frame fails, every snapshot is refused. The log's one poison cell.
    poisoned: Option<String>,
}

/// State shared between the mutating thread and its sync jobs.
#[derive(Default)]
struct SyncShared {
    queue: Mutex<SyncQueue>,
    syncs: AtomicU64,
    fsyncs_saved: AtomicU64,
    overlapped: AtomicU64,
    depth_high_water: AtomicU64,
}

/// The sync job: drain queued frames, fsync once per run of consecutive
/// frames sharing a segment, then fire their acknowledgements in FIFO
/// order. Loops until the queue is empty so one job covers every frame
/// enqueued while it ran. Callbacks always run with the queue lock
/// released.
fn run_sync_job(backend: Arc<dyn StorageBackend>, shared: Arc<SyncShared>) {
    loop {
        let drained: Vec<PendingFrame> = {
            let mut q = shared.queue.lock().expect("sync queue lock");
            if q.pending.is_empty() {
                q.job_active = false;
                return;
            }
            q.pending.drain(..).collect()
        };
        let mut frames = drained.into_iter().peekable();
        while let Some(frame) = frames.next() {
            let mut run = vec![frame];
            while frames.peek().is_some_and(|f| f.segment == run[0].segment) {
                run.push(frames.next().expect("peeked"));
            }
            let segment = run[0].segment.clone();
            match backend.sync(&segment) {
                Ok(()) => {
                    shared.syncs.fetch_add(1, Ordering::Relaxed);
                    let saved: u64 = run.iter().map(|f| f.count.saturating_sub(1)).sum::<u64>()
                        + (run.len() as u64 - 1);
                    shared.fsyncs_saved.fetch_add(saved, Ordering::Relaxed);
                    for f in run {
                        (f.on_durable)(Ok(()));
                    }
                }
                Err(e) => {
                    // A snapshot job may have pruned the segment after its
                    // records became durable via the snapshot itself; a
                    // vanished file is covered, not lost.
                    if matches!(backend.exists(&segment), Ok(false)) {
                        for f in run {
                            (f.on_durable)(Ok(()));
                        }
                        continue;
                    }
                    let detail = e.to_string();
                    let stragglers: Vec<PendingFrame> = {
                        let mut q = shared.queue.lock().expect("sync queue lock");
                        q.poisoned = Some(detail.clone());
                        q.job_active = false;
                        q.pending.drain(..).collect()
                    };
                    let mut first = Some(WalError::Storage(e));
                    for f in run.into_iter().chain(frames).chain(stragglers) {
                        let err = first
                            .take()
                            .unwrap_or_else(|| WalError::Poisoned { detail: detail.clone() });
                        (f.on_durable)(Err(err));
                    }
                    return;
                }
            }
        }
    }
}

/// Remove what a snapshot covering `through` supersedes: every segment
/// whose *first sequence* is ≤ `through` (never "everything but the
/// active name": a snapshot job races appends, and segments the size
/// cadence rotated in meanwhile start past `through` and must survive),
/// older snapshot files, and chunk files outside `referenced`. Returns
/// the segments removed. Removal failures leak files, never correctness —
/// replay skips covered records and ignores unreferenced chunks — and the
/// next snapshot's prune retries them, so they are not surfaced.
fn prune_covered(backend: &dyn StorageBackend, through: u64, referenced: &HashSet<u64>) -> u64 {
    let mut segments = 0;
    for name in backend.list().unwrap_or_default() {
        let segment = parse_segment_name(&name);
        let superseded = match (segment, snapshot::parse_name(&name)) {
            (Some(first), _) => first <= through,
            (None, Some(older)) => older < through,
            (None, None) => {
                snapshot::parse_chunk_name(&name).is_some_and(|hash| !referenced.contains(&hash))
            }
        };
        if superseded && backend.remove(&name).is_ok() && segment.is_some() {
            segments += 1;
        }
    }
    segments
}

/// The snapshot job: write `image`'s dirty chunks and manifest as the
/// snapshot covering `through`, prune what it supersedes, and leave the
/// verdict where the mutating thread's next snapshot decision harvests it.
/// Runs on the pool when the log has one, on the mutating thread
/// otherwise. Failures are counted, never surfaced: by the time a cadence
/// fires its records are durable in the log, which simply keeps its longer
/// suffix until a later snapshot succeeds. Returns whether it did.
fn run_snapshot_job(
    backend: &dyn StorageBackend,
    bg: &BgSnapshot,
    through: u64,
    image: &CowImage,
) -> bool {
    let t = Instant::now();
    let ok = match snapshot::write_chunked(backend, through, image) {
        Ok(wrote) => {
            bg.snapshot_seq.store(through, Ordering::Release);
            let referenced: HashSet<u64> = wrote.manifest.iter().map(|r| r.hash).collect();
            bg.pruned.fetch_add(prune_covered(backend, through, &referenced), Ordering::Relaxed);
            bg.chunks_written.fetch_add(wrote.chunks_written, Ordering::Relaxed);
            bg.chunks_reused.fetch_add(wrote.chunks_reused, Ordering::Relaxed);
            bg.bytes_written.fetch_add(wrote.bytes_written, Ordering::Relaxed);
            *bg.outcome.lock().expect("bg outcome lock") = Some(Some(wrote.manifest));
            bg.completed.fetch_add(1, Ordering::Relaxed);
            true
        }
        Err(_) => {
            *bg.outcome.lock().expect("bg outcome lock") = Some(None);
            bg.failed.fetch_add(1, Ordering::Relaxed);
            false
        }
    };
    bg.busy_us.fetch_add(t.elapsed().as_micros() as u64, Ordering::Relaxed);
    bg.in_flight.store(false, Ordering::Release);
    ok
}

/// The append side of the WAL: owns the backend, the active segment, the
/// sequence counter and the snapshot cadence. Obtain one (plus the
/// recovered repository) via [`DurableLog::open`].
pub struct DurableLog {
    backend: Arc<dyn StorageBackend>,
    policy: DurabilityPolicy,
    active: String,
    active_bytes: u64,
    next_seq: u64,
    since_snapshot: u64,
    stats: DurabilityStats,
    /// Where the sync job and the snapshot job run; without one both run
    /// on the mutating thread. See [`Self::set_pool`].
    pool: Option<Arc<WorkerPool>>,
    bg: Arc<BgSnapshot>,
    pipeline: Arc<SyncShared>,
    /// Entries the appended history has produced — the id the next
    /// `InsertSpec` lands on, which fixes the chunk it dirties.
    entry_count: u64,
    /// Chunks dirtied since the last successful snapshot.
    dirty_chunks: BTreeSet<u32>,
    /// Chunk manifest of the last successful copy-on-write snapshot;
    /// empty after whole-image snapshots (every chunk then rewrites).
    last_manifest: Vec<ChunkRef>,
    /// Chunks handed to the in-flight snapshot job: re-dirtied if it
    /// fails, retired with it if it succeeds.
    in_flight_dirty: Vec<u32>,
}

impl fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableLog")
            .field("active", &self.active)
            .field("next_seq", &self.next_seq)
            .field("poisoned", &self.poison())
            .finish()
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
        let replayed = replay(&*backend)?;
        let next_seq = replayed.stats.last_seq + 1;
        let (active, active_bytes) =
            replayed.active_segment.unwrap_or_else(|| (segment_name(next_seq), 0));
        let entry_count = replayed.repo.len() as u64;
        let log = DurableLog {
            backend,
            policy,
            active,
            active_bytes,
            next_seq,
            since_snapshot: replayed.stats.last_seq - replayed.stats.snapshot_seq,
            stats: DurabilityStats {
                last_seq: replayed.stats.last_seq,
                snapshot_seq: replayed.stats.snapshot_seq,
                ..DurabilityStats::default()
            },
            pool: None,
            bg: Arc::default(),
            pipeline: Arc::default(),
            entry_count,
            dirty_chunks: replayed.dirty_chunks,
            last_manifest: replayed.manifest.unwrap_or_default(),
            in_flight_dirty: Vec::new(),
        };
        Ok(Opened { log, repository: replayed.repo, recovery: replayed.stats })
    }

    /// Run the sync job and the snapshot job on `pool`:
    /// [`Self::append_batch_pipelined`] then returns before its covering
    /// fsync and acknowledges from the pool, and a cadence snapshot costs
    /// the mutating thread one shallow image capture plus a segment
    /// rotation. Without a pool both jobs run, unchanged, on the mutating
    /// thread. Do not mix manual [`Self::snapshot_now`] calls with an
    /// in-flight snapshot job — both walk and prune the same file set.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// The failure that poisoned the log, if any — whichever thread hit it.
    fn poison(&self) -> Option<String> {
        self.pipeline.queue.lock().expect("sync queue lock").poisoned.clone()
    }

    /// Poison the log with `e` and hand it back for the caller to return.
    fn poisoned_by(&self, e: StorageError) -> WalError {
        self.pipeline.queue.lock().expect("sync queue lock").poisoned = Some(e.to_string());
        e.into()
    }

    /// Append (and fsync) one mutation; returns its sequence number. The
    /// record is durable — and the mutation may be acknowledged — only
    /// when this returns `Ok`. Any backend failure poisons the log: later
    /// appends fail fast until the log is re-opened, so acknowledged
    /// history can never have holes.
    pub fn append(&mut self, mutation: &Mutation) -> WalResult<u64> {
        self.append_batch(std::slice::from_ref(mutation))
    }

    /// The frame kernel under both append ends: refuse a poisoned log,
    /// encode the FIFO run as **one** record (a one-element run keeps the
    /// plain framing), rotate if it would overflow the active segment,
    /// append it, and account for it. With `sync_now` the covering fsync
    /// runs here, between the append and the accounting, so a frame whose
    /// fsync failed never counts as appended; otherwise the caller owes
    /// the frame its covering fsync. All-or-nothing: any backend failure
    /// poisons the log and nothing of the run may be acknowledged.
    fn append_frame(&mut self, mutations: &[Mutation], sync_now: bool) -> WalResult<u64> {
        assert!(!mutations.is_empty(), "a frame needs at least one mutation");
        if let Some(detail) = self.poison() {
            return Err(WalError::Poisoned { detail });
        }
        let first = self.next_seq;
        let count = mutations.len() as u64;
        let record = if count == 1 {
            encode_record(first, &mutations[0])
        } else {
            encode_batch_record(first, mutations)
        };
        if self.active_bytes > 0
            && self.active_bytes + record.len() as u64 > self.policy.segment_bytes
        {
            self.active = segment_name(first);
            self.active_bytes = 0;
            self.stats.rotations += 1;
        }
        if let Err(e) = self.backend.append(&self.active, &record) {
            return Err(self.poisoned_by(e));
        }
        self.active_bytes += record.len() as u64;
        if sync_now {
            if let Err(e) = self.backend.sync(&self.active) {
                // The bytes may or may not be durable; nothing was
                // acknowledged. Poison so the in-memory state cannot run
                // ahead of an uncertain log.
                return Err(self.poisoned_by(e));
            }
            self.stats.syncs += 1;
            self.stats.fsyncs_saved += count - 1;
        }
        self.next_seq = first + count;
        self.since_snapshot += count;
        self.stats.appends += count;
        self.stats.records += 1;
        let bucket = BATCH_SIZE_BOUNDS
            .iter()
            .position(|&bound| count <= bound)
            .unwrap_or(BATCH_SIZE_BOUNDS.len());
        self.stats.batch_size_counts[bucket] += 1;
        self.stats.bytes_appended += record.len() as u64;
        self.stats.last_seq = first + count - 1;
        self.note_applied(mutations);
        Ok(first)
    }

    /// Track which copy-on-write chunks the appended mutations dirty,
    /// mirroring the id assignment the repository will make when they
    /// apply.
    fn note_applied(&mut self, mutations: &[Mutation]) {
        for m in mutations {
            let id = match m {
                Mutation::InsertSpec { .. } => {
                    let id = self.entry_count as u32;
                    self.entry_count += 1;
                    id
                }
                Mutation::AddExecution { spec, .. }
                | Mutation::SetPolicy { spec, .. }
                | Mutation::DeleteSpec { spec }
                | Mutation::EditSpec { spec, .. } => spec.0,
            };
            self.dirty_chunks.insert(snapshot::chunk_of(id));
        }
    }

    /// Append a FIFO run of mutations as **one** record and make it
    /// durable with **one** fsync on this thread, whether or not a pool is
    /// attached. Returns the run's first sequence number; the run covers
    /// `first .. first + mutations.len()` and may be acknowledged once
    /// this returns `Ok`.
    pub fn append_batch(&mut self, mutations: &[Mutation]) -> WalResult<u64> {
        self.append_frame(mutations, true)
    }

    /// [`Self::append_batch`] with the covering fsync left to the sync
    /// job: the record is appended (and the in-memory apply may proceed)
    /// immediately, while `on_durable` fires — exactly once — only after
    /// the fsync covering this frame succeeds. Acknowledge on the
    /// callback, never on return.
    ///
    /// The callback fires **exactly once on every path**, so callers can
    /// count completions: `Err` here means the frame is not in the log's
    /// acknowledgeable history — fail the run inline, as with
    /// `append_batch` — and the callback fires with a matching error
    /// before this returns. `Ok` means the frame awaits its fsync; a later
    /// fsync failure reaches the caller only through `on_durable(Err(_))`,
    /// poisoning the log for subsequent appends.
    ///
    /// Without a pool the same fsync runs here, on the caller, and the
    /// callback fires before this returns.
    pub fn append_batch_pipelined(
        &mut self,
        mutations: &[Mutation],
        on_durable: DurableCallback,
    ) -> WalResult<u64> {
        let pool = self.pool.clone();
        let first = match self.append_frame(mutations, pool.is_none()) {
            Ok(first) => first,
            Err(e) => {
                let detail = match &e {
                    WalError::Poisoned { detail } => detail.clone(),
                    other => other.to_string(),
                };
                on_durable(Err(WalError::Poisoned { detail }));
                return Err(e);
            }
        };
        let Some(pool) = pool else {
            on_durable(Ok(()));
            return Ok(first);
        };
        let spawn = {
            let mut q = self.pipeline.queue.lock().expect("sync queue lock");
            if let Some(detail) = q.poisoned.clone() {
                // The sync job failed while this frame was being appended:
                // it is in the segment but will never be covered.
                drop(q);
                on_durable(Err(WalError::Poisoned { detail }));
                return Ok(first);
            }
            if q.job_active {
                self.pipeline.overlapped.fetch_add(1, Ordering::Relaxed);
            }
            let count = mutations.len() as u64;
            q.pending.push_back(PendingFrame { segment: self.active.clone(), count, on_durable });
            self.pipeline.depth_high_water.fetch_max(q.pending.len() as u64, Ordering::Relaxed);
            !std::mem::replace(&mut q.job_active, true)
        };
        if spawn {
            let backend = Arc::clone(&self.backend);
            let shared = Arc::clone(&self.pipeline);
            pool.exec(move || run_sync_job(backend, shared));
        }
        Ok(first)
    }

    /// Block until no frame awaits its covering fsync, helping the pool
    /// while waiting. Test/bench teardown and pre-snapshot barriers — the
    /// append path never waits.
    pub fn wait_for_pipeline(&self) {
        loop {
            {
                let q = self.pipeline.queue.lock().expect("sync queue lock");
                if q.pending.is_empty() && !q.job_active {
                    return;
                }
            }
            let helped = self.pool.as_ref().is_some_and(|pool| pool.help_one());
            if !helped {
                std::thread::yield_now();
            }
        }
    }

    /// Whether the snapshot cadence says it is time to snapshot.
    pub fn snapshot_due(&self) -> bool {
        self.policy.snapshot_every > 0 && self.since_snapshot >= self.policy.snapshot_every
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
    /// snapshot job is still running (a busy job skips the cadence without
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
        if !self.snapshot_due() || self.bg.in_flight.load(Ordering::Acquire) {
            return false;
        }
        if self.is_poisoned() {
            self.stats.snapshot_failures += 1;
            return false;
        }
        let t = Instant::now();
        let plan = self.snapshot_chunk_plan(entry_count);
        let started = capture(&plan).is_some_and(|image| self.start_snapshot(image));
        self.stats.snapshot_pause_us += t.elapsed().as_micros() as u64;
        started
    }

    /// Harvest the outcome of a finished snapshot job: on success its
    /// manifest becomes the clean baseline and the chunks it flushed stay
    /// retired; on failure those chunks return to the dirty set so the
    /// next snapshot re-flushes them. Call only while no job is in flight.
    fn refresh_manifest(&mut self) {
        let taken = self.bg.outcome.lock().expect("bg outcome lock").take();
        match taken {
            Some(Some(manifest)) => {
                self.last_manifest = manifest;
                self.in_flight_dirty.clear();
            }
            Some(None) => {
                let failed = std::mem::take(&mut self.in_flight_dirty);
                self.dirty_chunks.extend(failed);
            }
            None => {}
        }
    }

    /// Which chunks the next snapshot may reuse: entry `c` is
    /// `Some(chunk_ref)` when chunk `c` is clean since the last snapshot
    /// (same entry population, no dirtying mutation), `None` when it must
    /// be re-serialized. `entry_count` is the acknowledged entry total
    /// the image will carry.
    fn snapshot_chunk_plan(&mut self, entry_count: usize) -> Vec<Option<ChunkRef>> {
        self.refresh_manifest();
        let chunks = entry_count.div_ceil(CHUNK_SPECS);
        (0..chunks)
            .map(|c| {
                let lo = c * CHUNK_SPECS;
                let hi = entry_count.min(lo + CHUNK_SPECS);
                match self.last_manifest.get(c) {
                    Some(r)
                        if !self.dirty_chunks.contains(&(c as u32))
                            && r.entries == (hi - lo) as u32 =>
                    {
                        Some(*r)
                    }
                    _ => None,
                }
            })
            .collect()
    }

    /// Hand the frozen `image` to the snapshot job ([`run_snapshot_job`]).
    /// The active segment is rotated *first*, so every segment that exists
    /// when the job starts holds only records ≤ the snapshot's covering
    /// sequence; with a pool the WAL keeps accepting appends meanwhile —
    /// into the rotation-fresh segment and, when the size cadence rotates
    /// again mid-flight, later ones — all of which start past the covering
    /// sequence and survive the job's prune. One job at a time.
    fn start_snapshot(&mut self, image: CowImage) -> bool {
        if self.bg.in_flight.swap(true, Ordering::AcqRel) {
            return false;
        }
        let through = self.next_seq - 1;
        self.rotate_past(through);
        self.since_snapshot = 0;
        // Hand the dirty set to the job: retired on success, returned to
        // the dirty set on failure (see `refresh_manifest`).
        self.in_flight_dirty = std::mem::take(&mut self.dirty_chunks).into_iter().collect();
        let Some(pool) = &self.pool else {
            return run_snapshot_job(&*self.backend, &self.bg, through, &image);
        };
        let (backend, bg) = (Arc::clone(&self.backend), Arc::clone(&self.bg));
        pool.exec(move || {
            run_snapshot_job(&*backend, &bg, through, &image);
        });
        true
    }

    /// Continue appending in the segment that starts right after
    /// `through` (lazily — the file appears on the next append), leaving
    /// every existing segment wholly ≤ `through`.
    fn rotate_past(&mut self, through: u64) {
        let fresh = segment_name(through + 1);
        if self.active != fresh {
            self.active = fresh;
            self.active_bytes = 0;
            self.stats.rotations += 1;
        }
    }

    /// Whether a snapshot job is currently running.
    pub fn background_snapshot_in_flight(&self) -> bool {
        self.bg.in_flight.load(Ordering::Acquire)
    }

    /// Block until no snapshot job is in flight, helping the pool while
    /// waiting. Test/bench teardown — the write path never waits.
    pub fn wait_for_background_snapshot(&self) {
        while self.background_snapshot_in_flight() {
            let helped = self.pool.as_ref().is_some_and(|pool| pool.help_one());
            if !helped {
                std::thread::yield_now();
            }
        }
    }

    /// The whole-image checkpoint: atomically write `repo` as one v1
    /// snapshot covering every record appended so far, then prune — older
    /// snapshots, every chunk file and every covered segment go, and
    /// appends continue into a fresh segment. This is the *baseline*
    /// writer (one atomic write for a pre-loaded corpus the log has no
    /// records of) and the manual checkpoint; cadence snapshots are
    /// copy-on-write ([`Self::snapshot_if_due`]). `repo` must be the state
    /// produced by exactly the appended history (the caller owns that
    /// invariant; [`DurableLog::open`]'s repository plus every `Ok` append
    /// maintains it).
    pub fn snapshot_now(&mut self, repo: &Repository) -> WalResult<()> {
        if let Some(detail) = self.poison() {
            return Err(WalError::Poisoned { detail });
        }
        let through = self.next_seq - 1;
        let bytes = snapshot::write(&*self.backend, through, repo)?;
        self.stats.snapshots += 1;
        self.stats.snapshot_seq = through;
        self.stats.snapshot_bytes_written += bytes;
        self.since_snapshot = 0;
        // A whole-image snapshot resets the copy-on-write baseline: every
        // chunk is now clean relative to *no* manifest, so the next
        // chunked snapshot rewrites them all.
        self.entry_count = repo.len() as u64;
        self.dirty_chunks.clear();
        self.last_manifest.clear();
        // No manifest references any chunk now: every chunk file goes too.
        self.stats.segments_pruned += prune_covered(&*self.backend, through, &HashSet::new());
        self.rotate_past(through);
        Ok(())
    }

    /// Lifetime counters, with the sync and snapshot jobs' merged in.
    pub fn stats(&self) -> DurabilityStats {
        let mut stats = self.stats;
        let bg_done = self.bg.completed.load(Ordering::Relaxed);
        stats.snapshots += bg_done;
        stats.background_snapshots = bg_done;
        stats.snapshot_failures += self.bg.failed.load(Ordering::Relaxed);
        stats.segments_pruned += self.bg.pruned.load(Ordering::Relaxed);
        stats.snapshot_background_us = self.bg.busy_us.load(Ordering::Relaxed);
        stats.snapshot_seq = stats.snapshot_seq.max(self.bg.snapshot_seq.load(Ordering::Relaxed));
        stats.snapshot_chunks_written += self.bg.chunks_written.load(Ordering::Relaxed);
        stats.snapshot_chunks_reused += self.bg.chunks_reused.load(Ordering::Relaxed);
        stats.snapshot_bytes_written += self.bg.bytes_written.load(Ordering::Relaxed);
        stats.syncs += self.pipeline.syncs.load(Ordering::Relaxed);
        stats.fsyncs_saved += self.pipeline.fsyncs_saved.load(Ordering::Relaxed);
        stats.overlapped_fsyncs = self.pipeline.overlapped.load(Ordering::Relaxed);
        stats.pipeline_depth_high_water = self.pipeline.depth_high_water.load(Ordering::Relaxed);
        stats
    }

    /// The durability knobs this log runs under.
    pub fn policy(&self) -> DurabilityPolicy {
        self.policy
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether the log has any durable history (snapshot or records).
    pub fn is_empty(&self) -> bool {
        self.next_seq == 1 && self.stats.snapshot_seq == 0 && self.active_bytes == 0
    }

    /// Whether an earlier failure — on this thread or on the sync job —
    /// poisoned the log (appends fail fast, snapshots are refused).
    pub fn is_poisoned(&self) -> bool {
        self.poison().is_some()
    }

    /// The backend this log appends to.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultPlan, MemStorage};
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;

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
            log.append(&m).unwrap();
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
            let mut r: &[u8] = &buf;
            let decoded = decode_mutation(&mut r).expect("decodes");
            assert!(r.is_empty(), "residue after decode");
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
        assert!(log.append(&insert()).is_err(), "fsync failure must not acknowledge");
        assert!(log.is_poisoned());
        match log.append(&insert()) {
            Err(WalError::Poisoned { .. }) => {}
            other => panic!("expected Poisoned, got {other:?}"),
        }
        assert_eq!(log.stats().appends, 0);
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
        log.append(&insert()).unwrap();
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
            log.append(&m).unwrap();
            repo.apply(m).unwrap();
            log.snapshot_if_due(&repo);
            // Serialize with the job so every cadence point fires (the
            // in-flight guard would otherwise skip some — also allowed).
            log.wait_for_background_snapshot();
        }
        let stats = log.stats();
        assert!(stats.background_snapshots >= 2, "cadence fired in the background");
        assert_eq!(stats.snapshots, stats.background_snapshots, "no whole-image snapshots");
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
            Box::new(move |r: WalResult<()>| sink.lock().unwrap().push(r)) as DurableCallback
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
        let gate = Arc::new(AtomicBool::new(false));
        let plug = Arc::clone(&gate);
        pool.exec(move || {
            while !plug.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        let (acked, make) = acked_sink();
        for _ in 0..4 {
            let m = insert();
            repo.check(&m).unwrap();
            log.append_batch_pipelined(std::slice::from_ref(&m), make()).unwrap();
            repo.apply(m).unwrap();
        }
        assert!(acked.lock().unwrap().is_empty(), "nothing acknowledged before the fsync");
        gate.store(true, Ordering::Release);
        log.wait_for_pipeline();
        let outcomes = acked.lock().unwrap();
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
        let gate = Arc::new(AtomicBool::new(false));
        let plug = Arc::clone(&gate);
        pool.exec(move || {
            while !plug.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        let (acked, make) = acked_sink();
        for _ in 0..3 {
            log.append_batch_pipelined(&[insert()], make()).unwrap();
        }
        gate.store(true, Ordering::Release);
        log.wait_for_pipeline();
        let outcomes = acked.lock().unwrap();
        assert_eq!(outcomes.len(), 3, "failed frames still complete their callbacks");
        assert!(outcomes.iter().all(|r| r.is_err()), "no frame may acknowledge");
        assert!(matches!(outcomes[0], Err(WalError::Storage(_))));
        assert!(matches!(outcomes[1], Err(WalError::Poisoned { .. })));
        drop(outcomes);
        match log.append_batch_pipelined(&[insert()], Box::new(|_| {})) {
            Err(WalError::Poisoned { .. }) => {}
            other => panic!("expected Poisoned, got {other:?}"),
        }
        assert!(log.is_poisoned());
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
        log.append_batch_pipelined(std::slice::from_ref(&m), make()).unwrap();
        repo.apply(m).unwrap();
        log.wait_for_pipeline();
        assert!(acked.lock().unwrap()[0].is_err(), "the failed fsync must not acknowledge");
        assert!(log.is_poisoned(), "poison is visible without a further append");
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
        log.append_batch_pipelined(&batch, make()).unwrap();
        for m in batch {
            repo.apply(m).unwrap();
        }
        assert_eq!(acked.lock().unwrap().len(), 1, "callback fired before return");
        assert!(acked.lock().unwrap()[0].is_ok());
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
            log.append(&m).unwrap();
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
