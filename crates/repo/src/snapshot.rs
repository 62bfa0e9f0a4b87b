#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
//! Atomic repository snapshots: the checkpoint half of the durability
//! pair (`crate::wal` is the log half).
//!
//! There is one writer, `write_chunked`, and it writes the **v3**
//! format: a snapshot file `snap-<through_seq:016x>.snap` covering every
//! mutation with sequence number ≤ `through_seq` is a manifest of
//! content-addressed chunk files `chk-<fnv1a(payload):016x>.blob`:
//!
//! ```text
//! [b"PPWFSNAP"] [u8 version=3] [u64 through_seq (LE)] [u32 payload_len (LE)]
//! [payload = u64 repo_version (LE) ++ u32 chunk_count (LE)
//!            ++ chunk_count × (u64 hash, u32 entry_count, u32 byte_len)]
//! [u64 FNV-1a checksum of everything above (LE)]
//! ```
//!
//! A manifest reference is a **run**: `entry_count` consecutive id slots,
//! following the previous reference's, serialized as `entry_count` slots
//! of the repository image (`[u8 live flag] ++ entry bytes if live`; a
//! tombstoned slot is the single flag byte `0`). The loader takes any run
//! length. A cadence snapshot cuts the id space into chunks of
//! [`CHUNK_SPECS`] slots, chunk `c` covering ids `[c * CHUNK_SPECS, (c +
//! 1) * CHUNK_SPECS)`; a checkpoint (`CowImage::one_run`) writes every
//! slot as one run, one chunk file plus the manifest. Headers, manifests
//! and slots are all written and read with the workspace's one byte
//! codec, `ppwf_model::codec`'s `Writer` / `Reader`.
//!
//! A chunk untouched since the previous snapshot is carried as a
//! manifest reference — never re-serialized, never re-written — so a
//! cadence snapshot costs O(dirty chunks), not O(corpus). A reference is
//! reused as chunk `c` only when its run holds exactly chunk `c`'s slots
//! (`LogCore::snapshot_plan`), which is what keeps a checkpoint's one run
//! from standing in for chunk 0. Chunk files are written *before* the
//! manifest commits: a crash mid-snapshot leaves the previous manifest
//! (whose chunks are never overwritten — content addressing makes
//! identical payloads idempotent) fully loadable, and orphaned new chunks
//! are garbage-collected by the next successful prune.
//!
//! Snapshots are written via [`StorageBackend::write_atomic`] (temp file
//! plus rename), so a crash mid-snapshot leaves either the old file set
//! or the new one — never a half-written image. Recovery picks the
//! snapshot with the highest `through_seq`; older snapshots and fully
//! covered log segments are pruned after a successful write, but leftover
//! files from a crash-during-prune are harmless (the newest snapshot
//! wins, and replay skips records it covers).
//!
//! The **v1** format — one file holding the whole [`Repository::save`]
//! image, `[b"PPWFSNAP"] [u8 version=1] [u64 through_seq (LE)] [u32
//! payload_len (LE)] [payload] [u64 FNV-1a checksum (LE)]` — is read-only:
//! nothing writes it any more, and the loader still recovers the stores
//! that hold one. The next snapshot over such a store prunes it.

use crate::fnv::Fnv1a;
use crate::repository::{self, Repository, SpecEntry, SpecId};
use crate::storage::StorageBackend;
use crate::wal::{WalError, WalResult};
use ppwf_model::codec::{Reader, Writer};

const MAGIC: &[u8; 8] = b"PPWFSNAP";
/// The whole-image format: read, never written.
const VERSION_WHOLE: u8 = 1;
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

/// Spec entries per copy-on-write chunk of a cadence snapshot: chunk `i`
/// covers spec ids `[i * CHUNK_SPECS, (i + 1) * CHUNK_SPECS)`. Small enough
/// that one dirtied spec re-serializes a bounded neighborhood, large enough
/// that manifests stay tiny.
pub const CHUNK_SPECS: usize = 16;

/// The chunk index covering spec id `id`.
pub fn chunk_of(id: u32) -> u32 {
    id / CHUNK_SPECS as u32
}

/// A manifest reference to one content-addressed chunk: a run of
/// consecutive id slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkRef {
    /// FNV-1a of the chunk payload — also its file name.
    pub hash: u64,
    /// Spec id slots the run carries (live entries and tombstones):
    /// [`CHUNK_SPECS`] or fewer for a cadence chunk, every slot for a
    /// checkpoint's one run.
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
    /// Slots to serialize (`None` = tombstone): the run of ids following
    /// the previous chunk's.
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

    /// Capture a checkpoint of `repo`: every slot as one run (no chunk at
    /// all for an empty repository), written as one chunk file.
    pub(crate) fn one_run(repo: &Repository) -> CowImage {
        let slots: Vec<_> = repo.slots().map(|(_, entry)| entry.cloned()).collect();
        let chunks = if slots.is_empty() { Vec::new() } else { vec![CowChunk::Dirty(slots)] };
        CowImage { version: repo.version(), chunks }
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
                let mut payload = Vec::new();
                let mut w = Writer::new(&mut payload);
                for slot in entries {
                    repository::encode_slot(&mut w, slot.as_ref());
                }
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
    let mut payload = Vec::with_capacity(12 + out.manifest.len() * CHUNK_REF_BYTES);
    let mut w = Writer::new(&mut payload);
    w.u64(image.version);
    w.count(out.manifest.len());
    for r in &out.manifest {
        w.u64(r.hash);
        w.u32(r.entries);
        w.u32(r.bytes);
    }
    let buf = envelope(VERSION_CHUNKED, through_seq, &payload);
    backend.write_atomic(&file_name(through_seq), &buf)?;
    out.bytes_written += buf.len() as u64;
    Ok(out)
}

/// A snapshot file: `payload` behind the header, sealed by the checksum
/// of everything before it.
fn envelope(version: u8, through_seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER + payload.len() + 8);
    let mut w = Writer::new(&mut buf);
    w.bytes(MAGIC);
    w.u8(version);
    w.u64(through_seq);
    w.prefixed(payload);
    let sum = hash_of(&buf);
    Writer::new(&mut buf).u64(sum);
    buf
}

/// Parse a v3 manifest payload into its chunk references.
fn decode_manifest(name: &str, payload: &[u8]) -> WalResult<(u64, Vec<ChunkRef>)> {
    let mut r = Reader::new(payload);
    let (Ok(version), Ok(count)) = (r.u64(), r.u32()) else {
        return Err(corrupt(name, "manifest shorter than its fixed header"));
    };
    let (count, refs) = (count as usize, r.rest().len());
    if refs != count * CHUNK_REF_BYTES {
        return Err(corrupt(
            name,
            format!("manifest claims {count} chunks but carries {refs} bytes of refs"),
        ));
    }
    let refs = (0..count)
        .map(|_| Ok(ChunkRef { hash: r.u64()?, entries: r.u32()?, bytes: r.u32()? }))
        .collect::<ppwf_model::Result<_>>()
        .map_err(|_| corrupt(name, "short chunk ref"))?;
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
        let mut slots = Reader::new(&payload);
        for k in 0..r.entries {
            repository::load_slot(&mut repo, &mut slots)
                .map_err(|e| corrupt(name, format!("chunk {i} slot {k}: {e}")))?;
        }
        if !slots.rest().is_empty() {
            return Err(corrupt(
                name,
                format!("chunk {i} (`{chunk_name}`) has {} trailing bytes", slots.rest().len()),
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
    let short =
        || corrupt(name, format!("{} bytes is shorter than a snapshot header", bytes.len()));
    let (body, stored_sum) = bytes.split_at(bytes.len().saturating_sub(8));
    let mut r = Reader::new(body);
    let (Ok(magic), Ok(version), Ok(through_seq), Ok(len), Ok(stored_sum)) =
        (r.take(MAGIC.len()), r.u8(), r.u64(), r.u32(), Reader::new(stored_sum).u64())
    else {
        return Err(short());
    };
    if hash_of(body) != stored_sum {
        return Err(corrupt(name, "checksum mismatch"));
    }
    if magic != MAGIC {
        return Err(corrupt(name, "bad magic"));
    }
    if version != VERSION_WHOLE && version != VERSION_CHUNKED {
        return Err(corrupt(name, format!("unsupported snapshot version {version}")));
    }
    if parse_name(name) != Some(through_seq) {
        return Err(corrupt(
            name,
            format!("file name disagrees with embedded through_seq {through_seq}"),
        ));
    }
    let payload = r.rest();
    if payload.len() != len as usize {
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

/// The whole-image (v1) encoder, which nothing outside the tests writes
/// with any more: it makes the stores older builds left behind.
#[cfg(test)]
pub(crate) fn write_v1(backend: &dyn StorageBackend, through_seq: u64, repo: &Repository) {
    let file = envelope(VERSION_WHOLE, through_seq, &repo.save());
    backend.write_atomic(&file_name(through_seq), &file).unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::wal::{DurabilityPolicy, DurableLog};
    use crate::Mutation;
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;
    use std::sync::Arc;

    fn sample() -> Repository {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        let exec = fixtures::disease_susceptibility_execution(&spec);
        let id = repo.insert_spec(spec, Policy::public()).unwrap();
        repo.add_execution(id, exec).unwrap();
        repo
    }

    fn paper_insert() -> Mutation {
        let spec = fixtures::disease_susceptibility_spec();
        Mutation::InsertSpec { spec, policy: Policy::public() }
    }

    /// Plain FNV-1a of a whole file, as `recovery_equivalence`'s golden
    /// tables hash them.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }

    /// The v1 reader stays for the stores that hold a v1 file. The encoder
    /// reproduces, byte for byte, the baseline that `recovery_equivalence`'s
    /// golden trace stored while `snapshot_now` still wrote v1 (two paper
    /// specs, through sequence 0); those bytes recover bit-identically, a
    /// re-opened log appends after them, and its next snapshot prunes the
    /// v1 file.
    #[test]
    fn a_v1_baseline_recovers_is_extended_and_is_pruned() {
        let storage = Arc::new(MemStorage::new());
        let mut repo = Repository::new();
        repo.apply(paper_insert()).unwrap();
        repo.apply(paper_insert()).unwrap();
        write_v1(&*storage, 0, &repo);
        let v1 = storage.read(&file_name(0)).unwrap().unwrap();
        assert_eq!(fnv1a(&v1), 0x4463519b666e4a38, "the v1 encoder moved");
        let (recovered, stats) = Repository::recover(&*storage).unwrap();
        assert_eq!((stats.snapshot_seq, stats.replayed), (0, 0));
        assert_eq!(recovered.save(), repo.save());
        assert_eq!(recovered.version(), repo.version());

        let policy = DurabilityPolicy { snapshot_every: 2, ..DurabilityPolicy::default() };
        let backend = Arc::clone(&storage) as Arc<dyn StorageBackend>;
        let opened = DurableLog::open(backend, policy).unwrap();
        assert_eq!(opened.repository.save(), repo.save());
        assert!(!opened.log.is_empty(), "a v1 baseline is history, with no manifest");
        let mut log = opened.log;
        for mutation in [paper_insert(), paper_insert()] {
            repo.check(&mutation).unwrap();
            log.append_batch(std::slice::from_ref(&mutation)).unwrap();
            repo.apply(mutation).unwrap();
            log.snapshot_if_due(&repo);
        }
        assert_eq!(log.stats().snapshot_seq, 2, "the cadence snapshot ran");
        let names = storage.list().unwrap();
        assert!(!names.contains(&file_name(0)), "the v1 file survived the prune: {names:?}");
        let loaded = load(&*storage, &file_name(2)).unwrap();
        assert!(loaded.manifest.is_some(), "the new snapshot is v3");
        let (recovered, stats) = Repository::recover(&*storage).unwrap();
        assert_eq!((stats.snapshot_seq, stats.replayed), (2, 0));
        assert_eq!(recovered.save(), repo.save());
    }

    #[test]
    fn name_round_trips() {
        assert_eq!(parse_name(&file_name(0)), Some(0));
        assert_eq!(parse_name(&file_name(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_name("wal-0000000000000001.log"), None);
        assert_eq!(parse_name("snap-xyz.snap"), None);
    }

    /// A v1 file loads bit-identically, with no manifest.
    #[test]
    fn write_load_round_trip_is_bit_identical() {
        let storage = MemStorage::new();
        let repo = sample();
        write_v1(&storage, 7, &repo);
        let loaded = load_latest(&storage, &storage.list().unwrap()).unwrap();
        assert_eq!(loaded.through_seq, 7);
        assert!(loaded.manifest.is_none(), "v1 snapshots carry no manifest");
        assert_eq!(loaded.repo.save(), repo.save());
    }

    /// The highest `through_seq` wins, whichever format each file is in.
    #[test]
    fn latest_snapshot_wins() {
        let storage = MemStorage::new();
        write_v1(&storage, 3, &Repository::new());
        let repo = sample();
        write_chunked(&storage, 9, &CowImage::one_run(&repo)).unwrap();
        let loaded = load_latest(&storage, &storage.list().unwrap()).unwrap();
        assert_eq!(loaded.through_seq, 9);
        assert_eq!(loaded.repo.save(), repo.save());
        write_v1(&storage, 12, &Repository::new());
        let loaded = load_latest(&storage, &storage.list().unwrap()).unwrap();
        assert_eq!(loaded.through_seq, 12);
        assert!(loaded.repo.is_empty());
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

    /// A checkpoint is one run of every slot, however many chunks of
    /// [`CHUNK_SPECS`] that would be: one chunk file, one manifest ref.
    #[test]
    fn a_one_run_checkpoint_round_trips_past_a_chunk() {
        let storage = MemStorage::new();
        let mut repo = sample();
        for _ in 0..CHUNK_SPECS + 3 {
            repo.apply(paper_insert()).unwrap();
        }
        repo.delete_spec(SpecId(CHUNK_SPECS as u32)).unwrap();
        let wrote = write_chunked(&storage, 4, &CowImage::one_run(&repo)).unwrap();
        assert_eq!(wrote.chunks_written, 1);
        assert_eq!(wrote.manifest.len(), 1);
        assert_eq!(wrote.manifest[0].entries as usize, repo.len(), "one run of every slot");
        let loaded = load_latest(&storage, &storage.list().unwrap()).unwrap();
        assert_eq!(loaded.manifest.as_deref(), Some(&wrote.manifest[..]));
        assert_eq!(loaded.repo.save(), repo.save(), "one-run load must be bit-identical");
        // An empty repository checkpoints as a manifest with no chunk.
        let wrote = write_chunked(&storage, 5, &CowImage::one_run(&Repository::new())).unwrap();
        assert_eq!((wrote.chunks_written, wrote.manifest.len()), (0, 0));
        assert!(load(&storage, &file_name(5)).unwrap().repo.is_empty());
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
        write_v1(&storage, 4, &repo);
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
        write_v1(&storage, 2, &sample());
        let name = file_name(2);
        let len = storage.len_of(&name).unwrap();
        storage.tear(&name, len / 2);
        assert!(matches!(load(&storage, &name), Err(WalError::Snapshot { .. })));
    }

    /// A manifest too short for its own fixed header, behind a valid
    /// checksum, is a typed error, not a panic.
    #[test]
    fn a_short_manifest_is_a_typed_error() {
        let storage = MemStorage::new();
        let mut buf = MAGIC.to_vec();
        buf.push(VERSION_CHUNKED);
        buf.extend_from_slice(&6u64.to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&[0; 4]);
        let sum = hash_of(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        storage.write_atomic(&file_name(6), &buf).unwrap();
        match load(&storage, &file_name(6)) {
            Err(WalError::Snapshot { detail, .. }) => {
                assert!(detail.contains("fixed header"), "unexpected detail: {detail}");
            }
            other => panic!("expected Snapshot error, got {other:?}"),
        }
    }
}
