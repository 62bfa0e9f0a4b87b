//! Atomic repository snapshots: the checkpoint half of the durability
//! pair (`crate::wal` is the log half).
//!
//! A **v1** snapshot file `snap-<through_seq:016x>.snap` holds the full
//! [`Repository::save`] image of the state produced by applying every
//! mutation with sequence number ≤ `through_seq`:
//!
//! ```text
//! [b"PPWFSNAP"] [u8 version=1] [u64 through_seq (LE)]
//! [u32 payload_len (LE)] [payload = Repository::save bytes]
//! [u64 FNV-1a checksum of everything above (LE)]
//! ```
//!
//! A **v3** snapshot is copy-on-write chunked: repository id slots are
//! partitioned into fixed runs of [`CHUNK_SPECS`] consecutive spec ids,
//! each run serialized as `run × ([u8 live flag] ++ entry bytes if live)`
//! (entry wire format identical to the v1 image's per-entry section; a
//! tombstoned slot is the single flag byte `0`) into a content-addressed
//! chunk file `chk-<fnv1a(payload):016x>.blob`. The snapshot file itself
//! is then only a manifest:
//!
//! ```text
//! [b"PPWFSNAP"] [u8 version=3] [u64 through_seq (LE)] [u32 payload_len (LE)]
//! [payload = u64 repo_version (LE) ++ u32 chunk_count (LE)
//!            ++ chunk_count × (u64 hash, u32 entry_count, u32 byte_len)]
//! [u64 FNV-1a checksum of everything above (LE)]
//! ```
//!
//! A chunk untouched since the previous snapshot is carried as a
//! manifest reference — never re-serialized, never re-written — so a
//! cadence snapshot costs O(dirty chunks), not O(corpus). Chunk files
//! are written *before* the manifest commits: a crash mid-snapshot
//! leaves the previous manifest (whose chunks are never overwritten —
//! content addressing makes identical payloads idempotent) fully
//! loadable, and orphaned new chunks are garbage-collected by the next
//! successful prune.
//!
//! Snapshots are written via [`StorageBackend::write_atomic`] (temp file
//! plus rename), so a crash mid-snapshot leaves either the old file set
//! or the new one — never a half-written image. Recovery picks the
//! snapshot with the highest `through_seq`; older snapshots and fully
//! covered log segments are pruned after a successful write, but leftover
//! files from a crash-during-prune are harmless (the newest snapshot
//! wins, and replay skips records it covers).

use crate::fnv::Fnv1a;
use crate::repository::{self, Repository, SpecEntry, SpecId};
use crate::storage::StorageBackend;
use crate::wal::{WalError, WalResult};
use bytes::{BufMut, BytesMut};

const MAGIC: &[u8; 8] = b"PPWFSNAP";
const VERSION: u8 = 1;
/// Chunked manifest format. v2 chunks held bare entries and could not
/// represent a tombstoned slot; v3 prefixes every slot with a live flag.
/// A v2 manifest written before destructive mutations existed describes
/// an all-live repository, but its chunk payloads parse differently, so
/// v2 is refused rather than guessed at (recovery falls back to the WAL
/// via the surrounding snapshot-selection logic only across *files*, not
/// formats — in practice v2 snapshots only exist in pre-upgrade stores).
const VERSION_CHUNKED: u8 = 3;
/// Magic + version + through_seq + payload length.
const HEADER: usize = 8 + 1 + 8 + 4;
/// Bytes of one manifest chunk record: hash + entry_count + byte_len.
const CHUNK_REF_BYTES: usize = 8 + 4 + 4;

/// Spec entries per copy-on-write chunk: chunk `i` covers spec ids
/// `[i * CHUNK_SPECS, (i + 1) * CHUNK_SPECS)`. Small enough that one
/// dirtied spec re-serializes a bounded neighborhood, large enough that
/// manifests stay tiny.
pub const CHUNK_SPECS: usize = 16;

/// The chunk index covering spec id `id`.
pub fn chunk_of(id: u32) -> u32 {
    id / CHUNK_SPECS as u32
}

/// A manifest reference to one content-addressed chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkRef {
    /// FNV-1a of the chunk payload — also its file name.
    pub hash: u64,
    /// Spec id slots the chunk carries (live entries and tombstones).
    pub entries: u32,
    /// Payload length in bytes.
    pub bytes: u32,
}

/// One chunk of a copy-on-write snapshot image: either the entries of a
/// chunk dirtied since the last snapshot — shallow clones sharing their
/// specifications and executions with the live repository (see
/// [`SpecEntry`]), serialized and written by the snapshot job — or a
/// reference to the previous manifest's chunk (reused without touching
/// storage).
#[derive(Clone, Debug)]
pub enum CowChunk {
    /// Slots to serialize (`None` = tombstone); covers one chunk-aligned
    /// id range.
    Dirty(Vec<Option<SpecEntry>>),
    /// Untouched since the previous snapshot — reuse by reference.
    Clean(ChunkRef),
}

/// A frozen copy-on-write snapshot image: per-chunk shallow clones of only
/// the dirtied entry ranges, everything else carried by reference.
/// Capturing one copies pointers — O(specs + executions) of the dirty
/// chunks — and what it serializes to is fixed at capture: nothing a later
/// mutation does to the live repository reaches the shared data.
#[derive(Clone, Debug)]
pub struct CowImage {
    /// Repository version counter the image was frozen at.
    pub version: u64,
    /// Chunks in id order; only the last may be partial.
    pub chunks: Vec<CowChunk>,
}

impl CowImage {
    /// Capture the image a chunk `plan` asks for over an id space of
    /// `entry_count` slots: chunk `c` rides along by reference when
    /// `plan[c]` names its clean predecessor, and is otherwise cloned slot
    /// by slot through `slot` (`None` = tombstone).
    pub fn capture(
        version: u64,
        entry_count: usize,
        plan: &[Option<ChunkRef>],
        mut slot: impl FnMut(SpecId) -> Option<SpecEntry>,
    ) -> CowImage {
        let chunks = plan
            .iter()
            .enumerate()
            .map(|(c, reuse)| match reuse {
                Some(r) => CowChunk::Clean(*r),
                None => {
                    let lo = c * CHUNK_SPECS;
                    let hi = entry_count.min(lo + CHUNK_SPECS);
                    CowChunk::Dirty((lo..hi).map(|id| slot(SpecId(id as u32))).collect())
                }
            })
            .collect();
        CowImage { version, chunks }
    }
}

/// What one chunked snapshot write did.
#[derive(Clone, Debug, Default)]
pub struct ChunkedWrite {
    /// The manifest just committed, in chunk order.
    pub manifest: Vec<ChunkRef>,
    /// Chunk files newly serialized and written.
    pub chunks_written: u64,
    /// Chunks reused from the previous manifest (or deduplicated by
    /// content address) without a write.
    pub chunks_reused: u64,
    /// Bytes actually written to storage (chunk payloads + manifest).
    pub bytes_written: u64,
}

/// The file name of the content-addressed chunk with payload hash `hash`.
pub fn chunk_file_name(hash: u64) -> String {
    format!("chk-{hash:016x}.blob")
}

/// Parse a chunk file name back to its payload hash.
pub fn parse_chunk_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("chk-")?.strip_suffix(".blob")?;
    u64::from_str_radix(hex, 16).ok()
}

/// The file name of the snapshot covering mutations through `through_seq`.
pub fn file_name(through_seq: u64) -> String {
    format!("snap-{through_seq:016x}.snap")
}

/// Parse a snapshot file name back to its `through_seq`.
pub fn parse_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Atomically write a snapshot of `repo` covering mutations through
/// `through_seq`; returns the bytes written.
pub(crate) fn write(
    backend: &dyn StorageBackend,
    through_seq: u64,
    repo: &Repository,
) -> WalResult<u64> {
    let payload = repo.save();
    let mut buf = Vec::with_capacity(HEADER + payload.len() + 8);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&through_seq.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&payload);
    let mut h = Fnv1a::new();
    h.mix_bytes(&buf);
    let sum = h.finish();
    buf.extend_from_slice(&sum.to_le_bytes());
    backend.write_atomic(&file_name(through_seq), &buf)?;
    Ok(buf.len() as u64)
}

fn hash_of(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.mix_bytes(payload);
    h.finish()
}

/// Atomically write a copy-on-write chunked (v3) snapshot covering
/// mutations through `through_seq`. Dirty chunks are serialized and
/// written first (content-addressed, so identical payloads are written
/// once ever); the manifest commits last, so a crash anywhere in between
/// leaves the previous snapshot generation fully loadable.
pub(crate) fn write_chunked(
    backend: &dyn StorageBackend,
    through_seq: u64,
    image: &CowImage,
) -> WalResult<ChunkedWrite> {
    let existing: std::collections::HashSet<u64> =
        backend.list()?.iter().filter_map(|n| parse_chunk_name(n)).collect();
    let mut out = ChunkedWrite::default();
    for chunk in &image.chunks {
        let chunk_ref = match chunk {
            CowChunk::Clean(r) => {
                out.chunks_reused += 1;
                *r
            }
            CowChunk::Dirty(entries) => {
                let mut payload = BytesMut::new();
                for slot in entries {
                    match slot {
                        Some(e) => {
                            payload.put_u8(1);
                            repository::encode_entry(&mut payload, e);
                        }
                        None => payload.put_u8(0),
                    }
                }
                let payload = payload.freeze();
                let hash = hash_of(&payload);
                let r =
                    ChunkRef { hash, entries: entries.len() as u32, bytes: payload.len() as u32 };
                if existing.contains(&hash) {
                    // Content-addressed dedup: the bytes are already
                    // durable under this name.
                    out.chunks_reused += 1;
                } else {
                    backend.write_atomic(&chunk_file_name(hash), &payload)?;
                    out.chunks_written += 1;
                    out.bytes_written += payload.len() as u64;
                }
                r
            }
        };
        out.manifest.push(chunk_ref);
    }
    let mut body = Vec::with_capacity(12 + out.manifest.len() * CHUNK_REF_BYTES);
    body.extend_from_slice(&image.version.to_le_bytes());
    body.extend_from_slice(&(out.manifest.len() as u32).to_le_bytes());
    for r in &out.manifest {
        body.extend_from_slice(&r.hash.to_le_bytes());
        body.extend_from_slice(&r.entries.to_le_bytes());
        body.extend_from_slice(&r.bytes.to_le_bytes());
    }
    let mut buf = Vec::with_capacity(HEADER + body.len() + 8);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION_CHUNKED);
    buf.extend_from_slice(&through_seq.to_le_bytes());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&body);
    let sum = hash_of(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    backend.write_atomic(&file_name(through_seq), &buf)?;
    out.bytes_written += buf.len() as u64;
    Ok(out)
}

/// Parse a v3 manifest payload into its chunk references.
fn decode_manifest(name: &str, payload: &[u8]) -> WalResult<(u64, Vec<ChunkRef>)> {
    if payload.len() < 12 {
        return Err(corrupt(name, "manifest shorter than its fixed header"));
    }
    let version = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")) as usize;
    let rest = &payload[12..];
    if rest.len() != count * CHUNK_REF_BYTES {
        return Err(corrupt(
            name,
            format!("manifest claims {count} chunks but carries {} bytes of refs", rest.len()),
        ));
    }
    let mut refs = Vec::with_capacity(count);
    for i in 0..count {
        let at = i * CHUNK_REF_BYTES;
        refs.push(ChunkRef {
            hash: u64::from_le_bytes(rest[at..at + 8].try_into().expect("8 bytes")),
            entries: u32::from_le_bytes(rest[at + 8..at + 12].try_into().expect("4 bytes")),
            bytes: u32::from_le_bytes(rest[at + 12..at + 16].try_into().expect("4 bytes")),
        });
    }
    Ok((version, refs))
}

/// Load and re-validate every chunk of a v3 manifest into a repository.
fn load_chunked(
    backend: &dyn StorageBackend,
    name: &str,
    version: u64,
    refs: &[ChunkRef],
) -> WalResult<Repository> {
    let mut repo = Repository::new();
    for (i, r) in refs.iter().enumerate() {
        let chunk_name = chunk_file_name(r.hash);
        let payload = backend.read(&chunk_name)?.ok_or_else(|| {
            corrupt(name, format!("manifest chunk {i} (`{chunk_name}`) is missing"))
        })?;
        if payload.len() != r.bytes as usize {
            return Err(corrupt(
                name,
                format!(
                    "chunk {i} (`{chunk_name}`) is {} bytes, manifest says {}",
                    payload.len(),
                    r.bytes
                ),
            ));
        }
        if hash_of(&payload) != r.hash {
            return Err(corrupt(name, format!("chunk {i} (`{chunk_name}`) checksum mismatch")));
        }
        let mut cursor: &[u8] = &payload;
        for k in 0..r.entries {
            let Some((&flag, rest)) = cursor.split_first() else {
                return Err(corrupt(name, format!("chunk {i} slot {k} missing its live flag")));
            };
            cursor = rest;
            match flag {
                0 => {
                    repo.insert_tombstone();
                }
                1 => {
                    let (spec, policy, executions) = repository::decode_entry(&mut cursor)
                        .map_err(|e| {
                            corrupt(name, format!("chunk {i} entry {k} undecodable: {e}"))
                        })?;
                    let id = repo
                        .insert_spec(spec, policy)
                        .map_err(|e| corrupt(name, format!("chunk {i} entry {k} invalid: {e}")))?;
                    for exec in executions {
                        repo.add_execution(id, exec).map_err(|e| {
                            corrupt(name, format!("chunk {i} entry {k} invalid: {e}"))
                        })?;
                    }
                }
                other => {
                    return Err(corrupt(
                        name,
                        format!("chunk {i} slot {k} has unknown live flag {other}"),
                    ));
                }
            }
        }
        if !cursor.is_empty() {
            return Err(corrupt(
                name,
                format!("chunk {i} (`{chunk_name}`) has {} trailing bytes", cursor.len()),
            ));
        }
    }
    repo.set_version(version);
    Ok(repo)
}

fn corrupt(name: &str, detail: impl Into<String>) -> WalError {
    WalError::Snapshot { name: name.to_string(), detail: detail.into() }
}

/// What loading one snapshot file yields: the rebuilt repository, the
/// sequence it covers through, and — for a chunked (v3) snapshot — the
/// verified manifest, which a re-opened log seeds its chunk reuse from.
#[derive(Debug)]
pub(crate) struct Loaded {
    pub(crate) repo: Repository,
    pub(crate) through_seq: u64,
    pub(crate) manifest: Option<Vec<ChunkRef>>,
}

/// Decode and re-validate one snapshot file (either format version).
pub(crate) fn load(backend: &dyn StorageBackend, name: &str) -> WalResult<Loaded> {
    let bytes =
        backend.read(name)?.ok_or_else(|| corrupt(name, "snapshot vanished during recovery"))?;
    if bytes.len() < HEADER + 8 {
        return Err(corrupt(
            name,
            format!("{} bytes is shorter than a snapshot header", bytes.len()),
        ));
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored_sum = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if hash_of(body) != stored_sum {
        return Err(corrupt(name, "checksum mismatch"));
    }
    if &body[..8] != MAGIC {
        return Err(corrupt(name, "bad magic"));
    }
    let version = body[8];
    if version != VERSION && version != VERSION_CHUNKED {
        return Err(corrupt(name, format!("unsupported snapshot version {version}")));
    }
    let through_seq = u64::from_le_bytes(body[9..17].try_into().expect("8 bytes"));
    if parse_name(name) != Some(through_seq) {
        return Err(corrupt(
            name,
            format!("file name disagrees with embedded through_seq {through_seq}"),
        ));
    }
    let len = u32::from_le_bytes(body[17..HEADER].try_into().expect("4 bytes")) as usize;
    let payload = &body[HEADER..];
    if payload.len() != len {
        return Err(corrupt(
            name,
            format!("payload is {} bytes, header says {len}", payload.len()),
        ));
    }
    if version == VERSION_CHUNKED {
        let (repo_version, refs) = decode_manifest(name, payload)?;
        let repo = load_chunked(backend, name, repo_version, &refs)?;
        Ok(Loaded { repo, through_seq, manifest: Some(refs) })
    } else {
        let repo = Repository::load(payload).map_err(|e| corrupt(name, e.to_string()))?;
        Ok(Loaded { repo, through_seq, manifest: None })
    }
}

/// Load the snapshot with the highest `through_seq` among `names`, or an
/// empty repository (covering through sequence 0) when none exists.
pub(crate) fn load_latest(backend: &dyn StorageBackend, names: &[String]) -> WalResult<Loaded> {
    let latest =
        names.iter().filter_map(|n| parse_name(n).map(|s| (s, n.as_str()))).max_by_key(|(s, _)| *s);
    match latest {
        None => Ok(Loaded { repo: Repository::new(), through_seq: 0, manifest: None }),
        Some((_, name)) => load(backend, name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;

    fn sample() -> Repository {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        let exec = fixtures::disease_susceptibility_execution(&spec);
        let id = repo.insert_spec(spec, Policy::public()).unwrap();
        repo.add_execution(id, exec).unwrap();
        repo
    }

    #[test]
    fn name_round_trips() {
        assert_eq!(parse_name(&file_name(0)), Some(0));
        assert_eq!(parse_name(&file_name(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_name("wal-0000000000000001.log"), None);
        assert_eq!(parse_name("snap-xyz.snap"), None);
    }

    #[test]
    fn write_load_round_trip_is_bit_identical() {
        let storage = MemStorage::new();
        let repo = sample();
        write(&storage, 7, &repo).unwrap();
        let loaded = load_latest(&storage, &storage.list().unwrap()).unwrap();
        assert_eq!(loaded.through_seq, 7);
        assert!(loaded.manifest.is_none(), "v1 snapshots carry no manifest");
        assert_eq!(loaded.repo.save(), repo.save());
    }

    #[test]
    fn latest_snapshot_wins() {
        let storage = MemStorage::new();
        write(&storage, 3, &Repository::new()).unwrap();
        let repo = sample();
        write(&storage, 9, &repo).unwrap();
        let loaded = load_latest(&storage, &storage.list().unwrap()).unwrap();
        assert_eq!(loaded.through_seq, 9);
        assert_eq!(loaded.repo.save(), repo.save());
    }

    #[test]
    fn empty_backend_yields_empty_repository() {
        let storage = MemStorage::new();
        let loaded = load_latest(&storage, &storage.list().unwrap()).unwrap();
        assert_eq!(loaded.through_seq, 0);
        assert!(loaded.repo.is_empty());
    }

    /// Freeze `repo` into an all-dirty [`CowImage`] (what a first chunked
    /// snapshot — no prior manifest — serializes).
    fn all_dirty_image(repo: &Repository) -> CowImage {
        let plan = vec![None; repo.len().div_ceil(CHUNK_SPECS)];
        CowImage::capture(repo.version(), repo.len(), &plan, |id| repo.entry(id).cloned())
    }

    #[test]
    fn chunked_write_load_round_trip_is_bit_identical() {
        let storage = MemStorage::new();
        let mut repo = sample();
        let (spec, _) = fixtures::disease_susceptibility();
        repo.insert_spec(spec, Policy::public()).unwrap();
        let wrote = write_chunked(&storage, 5, &all_dirty_image(&repo)).unwrap();
        assert_eq!(wrote.chunks_written, 1, "two entries fit one chunk");
        assert_eq!(wrote.chunks_reused, 0);
        assert!(wrote.bytes_written > 0);
        let loaded = load_latest(&storage, &storage.list().unwrap()).unwrap();
        assert_eq!(loaded.through_seq, 5);
        assert_eq!(loaded.manifest.as_deref(), Some(&wrote.manifest[..]));
        assert_eq!(loaded.repo.save(), repo.save(), "chunked load must be bit-identical");
    }

    #[test]
    fn chunked_round_trip_preserves_tombstones() {
        let storage = MemStorage::new();
        let mut repo = sample();
        let (spec, _) = fixtures::disease_susceptibility();
        repo.insert_spec(spec.clone(), Policy::public()).unwrap();
        let (spec2, _) = fixtures::disease_susceptibility();
        repo.insert_spec(spec2, Policy::public()).unwrap();
        repo.delete_spec(crate::repository::SpecId(1)).unwrap();
        assert_eq!(repo.len(), 3);
        assert_eq!(repo.live_count(), 2);
        let wrote = write_chunked(&storage, 11, &all_dirty_image(&repo)).unwrap();
        assert_eq!(wrote.manifest[0].entries, 3, "slot count includes the tombstone");
        let loaded = load_latest(&storage, &storage.list().unwrap()).unwrap();
        assert_eq!(loaded.repo.len(), 3);
        assert_eq!(loaded.repo.live_count(), 2);
        assert!(loaded.repo.entry(crate::repository::SpecId(1)).is_none());
        assert_eq!(loaded.repo.save(), repo.save(), "tombstoned load must be bit-identical");
    }

    #[test]
    fn clean_chunks_are_reused_without_rewriting() {
        let storage = MemStorage::new();
        let repo = sample();
        let first = write_chunked(&storage, 3, &all_dirty_image(&repo)).unwrap();
        // Second snapshot: same content, carried purely by reference.
        let image = CowImage {
            version: repo.version(),
            chunks: first.manifest.iter().map(|r| CowChunk::Clean(*r)).collect(),
        };
        let second = write_chunked(&storage, 8, &image).unwrap();
        assert_eq!(second.chunks_written, 0);
        assert_eq!(second.chunks_reused, 1);
        assert_eq!(second.manifest, first.manifest);
        let loaded = load_latest(&storage, &storage.list().unwrap()).unwrap();
        assert_eq!(loaded.through_seq, 8);
        assert_eq!(loaded.repo.save(), repo.save());
    }

    #[test]
    fn identical_dirty_payloads_deduplicate_by_content_address() {
        let storage = MemStorage::new();
        let repo = sample();
        write_chunked(&storage, 3, &all_dirty_image(&repo)).unwrap();
        // Re-serializing the same entries hits the existing chunk file.
        let wrote = write_chunked(&storage, 6, &all_dirty_image(&repo)).unwrap();
        assert_eq!(wrote.chunks_written, 0, "identical payload must not rewrite");
        assert_eq!(wrote.chunks_reused, 1);
    }

    #[test]
    fn a_damaged_chunk_is_a_typed_error() {
        let storage = MemStorage::new();
        let repo = sample();
        let wrote = write_chunked(&storage, 4, &all_dirty_image(&repo)).unwrap();
        let chunk = chunk_file_name(wrote.manifest[0].hash);
        storage.flip_byte(&chunk, 10);
        match load(&storage, &file_name(4)) {
            Err(WalError::Snapshot { detail, .. }) => {
                assert!(detail.contains("checksum"), "unexpected detail: {detail}");
            }
            other => panic!("expected Snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn a_missing_chunk_is_a_typed_error() {
        let storage = MemStorage::new();
        let repo = sample();
        let wrote = write_chunked(&storage, 4, &all_dirty_image(&repo)).unwrap();
        storage.remove(&chunk_file_name(wrote.manifest[0].hash)).unwrap();
        assert!(matches!(load(&storage, &file_name(4)), Err(WalError::Snapshot { .. })));
    }

    #[test]
    fn chunk_name_round_trips() {
        assert_eq!(parse_chunk_name(&chunk_file_name(0xdead_beef)), Some(0xdead_beef));
        assert_eq!(parse_chunk_name("snap-0000000000000001.snap"), None);
        assert_eq!(parse_name(&chunk_file_name(7)), None, "replay must ignore chunk files");
        assert_eq!(chunk_of(0), 0);
        assert_eq!(chunk_of(CHUNK_SPECS as u32 - 1), 0);
        assert_eq!(chunk_of(CHUNK_SPECS as u32), 1);
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let storage = MemStorage::new();
        let repo = sample();
        write(&storage, 4, &repo).unwrap();
        let name = file_name(4);
        storage.flip_byte(&name, 40);
        match load(&storage, &name) {
            Err(WalError::Snapshot { name: n, detail }) => {
                assert_eq!(n, name);
                assert!(detail.contains("checksum"), "unexpected detail: {detail}");
            }
            other => panic!("expected Snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let storage = MemStorage::new();
        write(&storage, 2, &sample()).unwrap();
        let name = file_name(2);
        let len = storage.len_of(&name).unwrap();
        storage.tear(&name, len / 2);
        assert!(matches!(load(&storage, &name), Err(WalError::Snapshot { .. })));
    }
}
