//! Every stored format, pinned byte for byte and fed damaged input.
//!
//! One sample artifact per format — a specification, an execution
//! carrying every `Value` tag, a policy with channel levels, private
//! modules and hide pairs, a repository image with a tombstone, one WAL
//! payload per mutation kind, a log segment holding a one-mutation record
//! and a batch record, and a v3 manifest with its chunk — covers every
//! branch of its encoder. The FNV-1a of each encoding is pinned to what
//! the encoders wrote before they shared one byte cursor: an acknowledged
//! record is history, and its bytes never move.
//!
//! Every decoder then takes every prefix and every single-byte flip of
//! its sample and must return — an error or a value, never a panic.

#![cfg(test)]

use crate::fnv::Fnv1a;
use crate::mutation::{ModuleTextEdit, Mutation, SpecText};
use crate::repository::{decode_policy, encode_policy, Repository, SpecId};
use crate::snapshot::{self, file_name, CowChunk, CowImage};
use crate::storage::{MemStorage, StorageBackend};
use crate::wal::{decode_mutation, encode_mutation, DurabilityPolicy, DurableLog};
use ppwf_core::policy::{AccessLevel, Policy};
use ppwf_model::codec::{self, Reader, Writer};
use ppwf_model::exec::{Execution, Executor, HashOracle};
use ppwf_model::ids::DataId;
use ppwf_model::spec::{SpecBuilder, Specification};
use ppwf_model::value::Value;
use std::sync::Arc;

/// Plain FNV-1a of a whole encoding.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Every module kind, a root workflow without a parent and a nested one
/// with one, multi-keyword modules and multi-channel edges.
fn sample_spec() -> Specification {
    let mut b = SpecBuilder::new("stored formats");
    let w1 = b.root_workflow("W1");
    let (m, w2) = b.composite(w1, "M", "W2", &["outer", "tag"]);
    let z = b.atomic(w1, "Z", &["last"]);
    b.edge(w1, b.input(w1), m, &["x", "q"]);
    b.edge(w1, m, z, &["y", "w"]);
    b.edge(w1, z, b.output(w1), &["r", "s"]);
    let a = b.atomic(w2, "A", &["inner", "deep", "x"]);
    b.edge(w2, b.input(w2), a, &["x"]);
    b.edge(w2, a, b.output(w2), &["y"]);
    b.build().unwrap()
}

/// A run of [`sample_spec`] whose data items carry each `Value` tag.
fn sample_execution(spec: &Specification) -> Execution {
    let mut exec = Executor::new(spec).run(&mut HashOracle).unwrap();
    let values = [
        Value::Unit,
        Value::Int(-42),
        Value::str("hello"),
        Value::Tuple(vec![0, 65535, 7]),
        Value::Masked,
    ];
    assert!(exec.data_count() >= values.len(), "the sample must hold every value tag");
    for (i, value) in values.into_iter().enumerate() {
        exec.data_mut(DataId::new(i)).value = value;
    }
    exec
}

/// Two channel levels, two private modules and two hide pairs.
fn sample_policy(spec: &Specification) -> Policy {
    let module = |name| spec.find_module(name).unwrap().id;
    let mut policy = Policy::public();
    policy.protect_channel("x", AccessLevel(2));
    policy.protect_channel("y", AccessLevel(1));
    policy.protect_module(module("M"), 2, AccessLevel(1));
    policy.protect_module(module("A"), 3, AccessLevel(2));
    policy.hide_pair(module("M"), module("Z"), AccessLevel(3));
    policy.hide_pair(module("A"), module("Z"), AccessLevel(1));
    policy
}

/// Slot 0 live with the sample policy and execution, slot 1 a tombstone,
/// slot 2 live and public.
fn sample_repo() -> Repository {
    let spec = sample_spec();
    let mut repo = Repository::new();
    let id = repo.insert_spec(spec.clone(), sample_policy(&spec)).unwrap();
    repo.add_execution(id, sample_execution(&spec)).unwrap();
    let doomed = repo.insert_spec(spec.clone(), Policy::public()).unwrap();
    repo.delete_spec(doomed).unwrap();
    repo.insert_spec(spec, Policy::public()).unwrap();
    repo
}

/// One mutation of each kind, in an order that replays on an empty
/// repository.
fn sample_mutations() -> Vec<Mutation> {
    let spec = sample_spec();
    let edit = ModuleTextEdit {
        module: spec.find_module("A").unwrap().id,
        name: "Renamed".to_string(),
        keywords: vec!["one".to_string(), "two".to_string()],
    };
    vec![
        Mutation::InsertSpec { spec: spec.clone(), policy: sample_policy(&spec) },
        Mutation::AddExecution { spec: SpecId(0), exec: sample_execution(&spec) },
        Mutation::SetPolicy { spec: SpecId(0), policy: Policy::public() },
        Mutation::EditSpec { spec: SpecId(0), text: SpecText { edits: vec![edit] } },
        Mutation::DeleteSpec { spec: SpecId(0) },
    ]
}

/// The one log segment [`sample_mutations`] is stored as: the insert as
/// a one-mutation record, the other four as one batch record.
fn sample_segment() -> (String, Vec<u8>) {
    let storage = Arc::new(MemStorage::new());
    let backend = Arc::clone(&storage) as Arc<dyn StorageBackend>;
    let policy = DurabilityPolicy { snapshot_every: 0, ..DurabilityPolicy::pipelined(4, 0) };
    let mut log = DurableLog::open(backend, policy).unwrap().log;
    let mutations = sample_mutations();
    log.append_batch(&mutations[..1]).unwrap();
    log.append_batch(&mutations[1..]).unwrap();
    let names = storage.list().unwrap();
    assert_eq!(names.len(), 1, "one segment");
    let bytes = storage.read(&names[0]).unwrap().unwrap();
    (names[0].clone(), bytes)
}

/// A storage holding two v3 generations of [`sample_repo`] at sequences
/// 3 and 4: the second manifest carries the first's chunk of slots 0–1
/// by reference and writes slot 2 afresh.
fn sample_snapshots() -> MemStorage {
    let repo = sample_repo();
    let slots: Vec<_> = repo.slots().map(|(_, e)| e.cloned()).collect();
    let storage = MemStorage::new();
    let dirty = |range: std::ops::Range<usize>| CowChunk::Dirty(slots[range].to_vec());
    let first = CowImage { version: repo.version(), chunks: vec![dirty(0..2), dirty(2..3)] };
    let written = snapshot::write_chunked(&storage, 3, &first).unwrap();
    let second = CowImage {
        version: repo.version(),
        chunks: vec![CowChunk::Clean(written.manifest[0]), dirty(2..3)],
    };
    snapshot::write_chunked(&storage, 4, &second).unwrap();
    storage
}

/// `(what, FNV-1a of its encoding)` for every sample, in a fixed order.
fn encodings() -> Vec<(String, u64)> {
    let spec = sample_spec();
    let mut out = vec![
        ("spec".to_string(), fnv1a(&codec::encode_spec(&spec))),
        ("execution".to_string(), fnv1a(&codec::encode_execution(&sample_execution(&spec)))),
        ("policy".to_string(), fnv1a(&encode_policy(&sample_policy(&spec)))),
        ("repository".to_string(), fnv1a(&sample_repo().save())),
    ];
    for (i, mutation) in sample_mutations().iter().enumerate() {
        let mut payload = Vec::new();
        encode_mutation(&mut payload, mutation);
        out.push((format!("mutation {i}"), fnv1a(&payload)));
    }
    out.push(("segment".to_string(), fnv1a(&sample_segment().1)));
    let storage = sample_snapshots();
    for name in storage.list().unwrap() {
        out.push((name.clone(), fnv1a(&storage.read(&name).unwrap().unwrap())));
    }
    out
}

/// Computed on the encoders that predate the shared byte cursor. Never
/// change these: a stored byte that moves is a store that no longer
/// recovers.
const GOLDEN: &[(&str, u64)] = &[
    ("spec", 0x8650d30867f60997),
    ("execution", 0xdca401f34028ba37),
    ("policy", 0x9033634d4cd7e251),
    ("repository", 0x76166cbcf104398b),
    ("mutation 0", 0x7002955db302cf19),
    ("mutation 1", 0x66ac5efcee9e38b2),
    ("mutation 2", 0x905b40fb2591d4ce),
    ("mutation 3", 0x885619e04f4c9abb),
    ("mutation 4", 0x08218a07b4dd0020),
    ("segment", 0xddb5c9de851bab43),
    ("chk-72b6a38475d976a7.blob", 0x029b13115f053674),
    ("chk-b648a4c103e3d138.blob", 0x4a8b92f8cb0b1c3d),
    ("snap-0000000000000003.snap", 0xf6b5f39bf05fcd50),
    ("snap-0000000000000004.snap", 0xc5e1ebb7e2d176bf),
];

#[test]
fn every_stored_format_keeps_its_bytes() {
    let got = encodings();
    let got: Vec<(&str, u64)> = got.iter().map(|(n, h)| (n.as_str(), *h)).collect();
    assert_eq!(got, GOLDEN, "a stored format moved");
}

// ---------------------------------------------------------------------------
// Damaged input.
// ---------------------------------------------------------------------------

/// The masks each byte is flipped with, one byte at a time: the low bit
/// (a tag or a length off by one), the high bit (a varint that runs on)
/// and every bit.
const FLIPS: [u8; 3] = [0x01, 0x80, 0xff];

/// Every single-byte flip of `bytes`, with the byte's offset.
fn flips(bytes: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    (0..bytes.len()).flat_map(move |i| {
        FLIPS.iter().map(move |&mask| {
            let mut b = bytes.to_vec();
            b[i] ^= mask;
            (i, b)
        })
    })
}

/// A self-delimiting encoding: every proper prefix is refused, and every
/// flip returns.
fn never_panics<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> Option<T>) {
    for cut in 0..bytes.len() {
        assert!(decode(&bytes[..cut]).is_none(), "prefix {cut} of {} accepted", bytes.len());
    }
    assert!(decode(bytes).is_some(), "the sample itself must decode");
    for (_, b) in flips(bytes) {
        let _ = decode(&b);
    }
}

#[test]
fn artifact_decoders_never_panic() {
    let spec = sample_spec();
    never_panics(&codec::encode_spec(&spec), |b| codec::decode_spec(b).ok());
    let exec = codec::encode_execution(&sample_execution(&spec));
    never_panics(&exec, |b| codec::decode_execution(b).ok());
    never_panics(&encode_policy(&sample_policy(&spec)), |b| decode_policy(b).ok());
    never_panics(&sample_repo().save(), |b| Repository::load(b).ok());
}

#[test]
fn mutation_decoder_never_panics() {
    for mutation in sample_mutations() {
        let mut payload = Vec::new();
        encode_mutation(&mut payload, &mutation);
        never_panics(&payload, |b| {
            let mut r = Reader::new(b);
            decode_mutation(&mut r).filter(|_| r.rest().is_empty())
        });
    }
}

/// Re-seal the FNV-1a checksum (`[u64]` at `sum_at`, over `body`) so a
/// flip reaches the decoder behind the checksum.
fn reseal(bytes: &mut [u8], sum_at: usize, body: std::ops::Range<usize>) {
    let mut h = Fnv1a::new();
    h.mix_bytes(&bytes[body]);
    bytes[sum_at..sum_at + 8].copy_from_slice(&h.finish().to_le_bytes());
}

#[test]
fn record_walk_never_panics() {
    let (name, segment) = sample_segment();
    let recover = |bytes: &[u8]| {
        let storage = MemStorage::new();
        storage.write_atomic(&name, bytes).unwrap();
        Repository::recover(&storage)
    };
    let (_, stats) = recover(&segment).unwrap();
    assert_eq!(stats.last_seq, 5);
    for cut in 0..segment.len() {
        let (_, stats) = recover(&segment[..cut]).unwrap();
        assert!(stats.last_seq < 5, "prefix {cut} replayed every record");
    }
    // `[u32 len][u64 checksum][body]` records, in order.
    let mut records = Vec::new();
    let mut at = 0;
    while at < segment.len() {
        let len = u32::from_le_bytes(segment[at..at + 4].try_into().unwrap()) as usize;
        records.push(at..at + 12 + len);
        at += 12 + len;
    }
    for (i, mut b) in flips(&segment) {
        let _ = recover(&b);
        let record = records.iter().find(|r| r.contains(&i)).unwrap();
        if i >= record.start + 12 {
            reseal(&mut b, record.start + 4, record.start + 12..record.end);
            let _ = recover(&b);
        }
    }
    // A checksum-valid batch record that claims more members than it has
    // bytes is corrupt, however large the claim.
    for count in [2, u64::MAX] {
        let mut record = vec![0; 12];
        let mut w = Writer::new(&mut record);
        w.uvarint(1); // first sequence number
        w.u8(4); // batch tag
        w.uvarint(count);
        encode_mutation(&mut record, &sample_mutations()[0]);
        let end = record.len();
        record[..4].copy_from_slice(&((end - 12) as u32).to_le_bytes());
        reseal(&mut record, 4, 12..end);
        assert!(recover(&record).is_err(), "a batch of {count} with one member replayed");
    }
}

/// Every prefix and flip of the file `name` in `storage`, the flips also
/// with the file's trailing checksum re-sealed, through `snapshot::load`.
fn snapshot_load_never_panics(storage: &MemStorage, name: &str) {
    let bytes = storage.read(name).unwrap().unwrap();
    let load = |b: &[u8]| {
        storage.write_atomic(name, b).unwrap();
        snapshot::load(storage, name)
    };
    assert!(load(&bytes).is_ok(), "the sample itself must load");
    for cut in 0..bytes.len() {
        assert!(load(&bytes[..cut]).is_err(), "prefix {cut} of `{name}` accepted");
    }
    let sum_at = bytes.len() - 8;
    for (_, mut b) in flips(&bytes) {
        let _ = load(&b);
        reseal(&mut b, sum_at, 0..sum_at);
        let _ = load(&b);
    }
    storage.write_atomic(name, &bytes).unwrap();
}

#[test]
fn snapshot_loads_never_panic() {
    let storage = sample_snapshots();
    snapshot_load_never_panics(&storage, &file_name(4));
    let names = storage.list().unwrap();
    for chunk in names.iter().filter(|n| snapshot::parse_chunk_name(n).is_some()) {
        let bytes = storage.read(chunk).unwrap().unwrap();
        for b in (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).chain(flips(&bytes).map(|f| f.1))
        {
            storage.write_atomic(chunk, &b).unwrap();
            assert!(snapshot::load(&storage, &file_name(4)).is_err(), "damaged `{chunk}` loaded");
        }
        storage.write_atomic(chunk, &bytes).unwrap();
    }
    let v1 = MemStorage::new();
    snapshot::write_v1(&v1, 7, &sample_repo());
    snapshot_load_never_panics(&v1, &file_name(7));
}
