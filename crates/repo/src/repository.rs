//! The workflow repository: specifications, their executions, and their
//! privacy policies, in one store serving every privilege level.
//!
//! The paper (Sec. 1) argues *against* materializing one repository per
//! access level — "inconsistencies, inefficiency, and a lack of
//! flexibility" — so the repository stores full-fidelity artifacts plus
//! policies, and the query layer hides on the fly. Persistence reuses the
//! model crate's binary codec with a small framing layer (and its own
//! encoding for policies).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ppwf_core::policy::{AccessLevel, HidePair, ModuleRequirement, Policy};
use ppwf_model::codec;
use ppwf_model::exec::Execution;
use ppwf_model::hierarchy::ExpansionHierarchy;
use ppwf_model::ids::ModuleId;
use ppwf_model::spec::Specification;
use ppwf_model::{ModelError, Result};
use std::sync::Arc;

/// Identifies a specification within a repository.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpecId(pub u32);

impl SpecId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One specification with its derived hierarchy, policy and executions.
///
/// `Clone` is **shallow**: an execution is immutable once recorded and a
/// specification's structure changes only through
/// [`Repository::edit_spec`], so both sit behind [`Arc`]s and a clone
/// copies pointers — O(1 + executions), never the provenance itself. That
/// is what lets a snapshot capture a frozen image under the write lock and
/// serialize it later from the shared data: a later edit copies the
/// specification out from under the image ([`Arc::make_mut`]) instead of
/// changing it, and a later append, policy swap or delete only touches the
/// live entry's own vector, policy or slot.
#[derive(Clone, Debug)]
pub struct SpecEntry {
    /// The specification.
    pub spec: Arc<Specification>,
    /// Its expansion hierarchy (derived once at insert).
    pub hierarchy: Arc<ExpansionHierarchy>,
    /// The privacy policy governing it.
    pub policy: Policy,
    /// Recorded executions, oldest first.
    pub executions: Vec<Arc<Execution>>,
}

/// The repository. `Clone` is what snapshots freeze — a shallow copy (see
/// [`SpecEntry`]), so the frozen image shares specifications and
/// executions with the live repository.
///
/// Storage is a slot vector: deleting a spec leaves a **tombstone** (a
/// `None` slot) rather than compacting, so ids are never reassigned —
/// shard placement, snapshot chunk ranges and later WAL records all key on
/// the id and survive removal unchanged. [`Self::len`] stays the slot
/// count (the id space); [`Self::live_count`] is the population.
#[derive(Clone, Debug, Default)]
pub struct Repository {
    /// Slots in id order; `None` is a tombstone. Derived read structures
    /// (the keyword index, the access and view memos) follow this vector
    /// through the [`MutationEffect`](crate::mutation::MutationEffect)
    /// each write returns, never through a counter kept here.
    entries: Vec<Option<SpecEntry>>,
    /// Bumps on every mutation: the sequence number logs and snapshots are
    /// stamped with (see [`Self::version`]).
    version: u64,
    /// Live (non-tombstone) slots.
    live: usize,
}

/// The error every layer returns for operating on a tombstoned spec.
/// Shared (rather than inlined per call site) so every check and apply
/// path rejects the same doomed mutation with bit-identical text — the
/// equivalence property tests compare errors too.
pub fn deleted_spec_error(spec: SpecId) -> ModelError {
    ModelError::invalid(format!("spec {} deleted", spec.0))
}

impl Repository {
    /// An empty repository.
    pub fn new() -> Self {
        Repository::default()
    }

    /// Number of slots — the id space, including tombstones. The next
    /// insert gets id `len()`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the repository has no slots at all (a fully deleted
    /// repository still has tombstones and is *not* empty: its id space
    /// and version history survive).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of live (non-deleted) specifications.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Whether `id` names a live entry (false for tombstones and
    /// out-of-range ids alike).
    pub fn is_live(&self, id: SpecId) -> bool {
        matches!(self.entries.get(id.index()), Some(Some(_)))
    }

    /// Total number of stored executions.
    pub fn execution_count(&self) -> usize {
        self.entries.iter().flatten().map(|e| e.executions.len()).sum()
    }

    /// Monotone version counter; bumps on every mutation. Caches key their
    /// entries by it (Sec. 4's cache-invalidation concern).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Overwrite the version counter. For durable checkpoints only: a
    /// snapshot must carry the sequence number it covers — recovery
    /// replays the log suffix on top, each record bumping the version by
    /// one, and ends bit-identical to a sequential replay of the whole
    /// history only then. A snapshot load restores it, and a corpus built
    /// before a log was attached (which counted its own mutations) is
    /// re-stamped with the log's sequence before its baseline snapshot.
    pub fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Resolve a live entry or the typed error for why it isn't one:
    /// out-of-range ids report `BadId`, tombstones the shared
    /// [`deleted_spec_error`].
    fn live_entry(&self, spec: SpecId) -> Result<&SpecEntry> {
        match self.entries.get(spec.index()) {
            None => Err(ModelError::BadId {
                kind: "spec",
                index: spec.index(),
                len: self.entries.len(),
            }),
            Some(None) => Err(deleted_spec_error(spec)),
            Some(Some(e)) => Ok(e),
        }
    }

    /// Mutable twin of [`Self::live_entry`].
    fn live_entry_mut(&mut self, spec: SpecId) -> Result<&mut SpecEntry> {
        let len = self.entries.len();
        match self.entries.get_mut(spec.index()) {
            None => Err(ModelError::BadId { kind: "spec", index: spec.index(), len }),
            Some(None) => Err(deleted_spec_error(spec)),
            Some(Some(e)) => Ok(e),
        }
    }

    /// Insert a specification with its policy; validates the policy.
    pub fn insert_spec(&mut self, spec: Specification, policy: Policy) -> Result<SpecId> {
        policy.validate(&spec)?;
        let hierarchy = Arc::new(ExpansionHierarchy::of(&spec));
        let id = SpecId(self.entries.len() as u32);
        self.entries.push(Some(SpecEntry {
            spec: Arc::new(spec),
            hierarchy,
            policy,
            executions: Vec::new(),
        }));
        self.live += 1;
        self.version += 1;
        Ok(id)
    }

    /// Record an execution of `spec`.
    pub fn add_execution(&mut self, spec: SpecId, exec: Execution) -> Result<()> {
        exec.check_invariants()?;
        let entry = self.live_entry_mut(spec)?;
        if exec.spec_name() != entry.spec.name() {
            return Err(ModelError::invalid(format!(
                "execution of `{}` added under spec `{}`",
                exec.spec_name(),
                entry.spec.name()
            )));
        }
        entry.executions.push(Arc::new(exec));
        self.version += 1;
        Ok(())
    }

    /// Replace the policy of a specification (bumps the version so caches
    /// and privacy-filtered answers invalidate).
    pub fn set_policy(&mut self, spec: SpecId, policy: Policy) -> Result<()> {
        let entry = self.live_entry_mut(spec)?;
        policy.validate(&entry.spec)?;
        entry.policy = policy;
        self.version += 1;
        Ok(())
    }

    /// Remove a specification, its policy and its executions. The slot
    /// becomes a tombstone: [`Self::len`] (and therefore id assignment)
    /// is unchanged, lookups return `None`, and every further mutation
    /// naming the id fails with [`deleted_spec_error`].
    pub fn delete_spec(&mut self, spec: SpecId) -> Result<()> {
        self.check_delete(spec)?;
        self.entries[spec.index()] = None;
        self.live -= 1;
        self.version += 1;
        Ok(())
    }

    /// Revise the searchable text of a specification in place (see
    /// [`crate::mutation::SpecText`]). Structure, hierarchy, policy and
    /// executions are untouched by construction — only module names and
    /// keyword tags change — so no re-validation of any of them is
    /// needed. A specification some snapshot image still shares is copied
    /// before it is changed ([`Arc::make_mut`]); the executions are never
    /// copied.
    pub fn edit_spec(&mut self, spec: SpecId, text: &crate::mutation::SpecText) -> Result<()> {
        self.check_edit(spec, text)?;
        let entry =
            self.entries[spec.index()].as_mut().expect("check_edit verified the slot is live");
        let spec = Arc::make_mut(&mut entry.spec);
        for edit in &text.edits {
            spec.set_module_text(edit.module, &edit.name, &edit.keywords)
                .expect("check_edit verified every module edit");
        }
        self.version += 1;
        Ok(())
    }

    // -- validate-before-append ---------------------------------------------
    //
    // The WAL appends a mutation *before* applying it, so callers need to
    // know it will succeed without mutating anything: a record that fails
    // on replay would make a valid log unrecoverable. These mirror the
    // checks of `insert_spec` / `add_execution` / `set_policy` exactly,
    // minus the state change.

    /// Would [`Self::insert_spec`] accept this pair? Checks without
    /// mutating.
    pub fn check_insert(&self, spec: &Specification, policy: &Policy) -> Result<()> {
        policy.validate(spec)
    }

    /// Would [`Self::add_execution`] accept this pair? Checks without
    /// mutating.
    pub fn check_execution(&self, spec: SpecId, exec: &Execution) -> Result<()> {
        exec.check_invariants()?;
        let entry = self.live_entry(spec)?;
        if exec.spec_name() != entry.spec.name() {
            return Err(ModelError::invalid(format!(
                "execution of `{}` added under spec `{}`",
                exec.spec_name(),
                entry.spec.name()
            )));
        }
        Ok(())
    }

    /// Would [`Self::set_policy`] accept this pair? Checks without
    /// mutating.
    pub fn check_policy(&self, spec: SpecId, policy: &Policy) -> Result<()> {
        let entry = self.live_entry(spec)?;
        policy.validate(&entry.spec)
    }

    /// Would [`Self::delete_spec`] accept this id? Checks without
    /// mutating.
    pub fn check_delete(&self, spec: SpecId) -> Result<()> {
        self.live_entry(spec).map(|_| ())
    }

    /// Would [`Self::edit_spec`] accept this pair? Checks without
    /// mutating: the slot must be live and every listed module must
    /// resolve to a non-distinguished module of the spec.
    pub fn check_edit(&self, spec: SpecId, text: &crate::mutation::SpecText) -> Result<()> {
        let entry = self.live_entry(spec)?;
        for edit in &text.edits {
            entry.spec.check_module_text(edit.module)?;
        }
        Ok(())
    }

    /// Would applying this mutation (`Repository::apply`) succeed against
    /// the current state? Composed from the per-variant checks; the
    /// durable write path runs this before appending to the WAL.
    pub fn check(&self, mutation: &crate::mutation::Mutation) -> Result<()> {
        use crate::mutation::Mutation;
        match mutation {
            Mutation::InsertSpec { spec, policy } => self.check_insert(spec, policy),
            Mutation::AddExecution { spec, exec } => self.check_execution(*spec, exec),
            Mutation::SetPolicy { spec, policy } => self.check_policy(*spec, policy),
            Mutation::DeleteSpec { spec } => self.check_delete(*spec),
            Mutation::EditSpec { spec, text } => self.check_edit(*spec, text),
        }
    }

    /// Append a tombstone slot — reconstruction of a deleted id during a
    /// snapshot load. The id is consumed (the next insert lands after it)
    /// but nothing is stored under it.
    pub fn insert_tombstone(&mut self) -> SpecId {
        let id = SpecId(self.entries.len() as u32);
        self.entries.push(None);
        self.version += 1;
        id
    }

    /// Look up an entry (`None` for tombstones and out-of-range ids).
    pub fn entry(&self, id: SpecId) -> Option<&SpecEntry> {
        self.entries.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Iterate over live `(id, entry)` pairs. Positional consumers that
    /// must stay aligned with the id space (chunk serialization) use
    /// [`Self::slots`] instead — this iterator
    /// *skips* tombstones.
    pub fn entries(&self) -> impl Iterator<Item = (SpecId, &SpecEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (SpecId(i as u32), e)))
    }

    /// Iterate over every slot in id order, tombstones as `None`.
    pub fn slots(&self) -> impl Iterator<Item = (SpecId, Option<&SpecEntry>)> {
        self.entries.iter().enumerate().map(|(i, e)| (SpecId(i as u32), e.as_ref()))
    }

    // -- persistence --------------------------------------------------------

    /// Serialize the whole repository. Format **2**: each slot is
    /// prefixed by a live-flag byte, so tombstones round-trip
    /// bit-identically (id space and all).
    pub fn save(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(b"PPWFREPO");
        buf.put_u8(2); // format version
        buf.put_u64_le(self.version);
        buf.put_u32_le(self.entries.len() as u32);
        for slot in &self.entries {
            match slot {
                Some(e) => {
                    buf.put_u8(1);
                    encode_entry(&mut buf, e);
                }
                None => buf.put_u8(0),
            }
        }
        buf.freeze()
    }

    /// Deserialize a repository, re-validating every artifact. Reads both
    /// format 2 (slot flags) and the pre-tombstone format 1 (every entry
    /// live, no flag bytes).
    pub fn load(mut bytes: &[u8]) -> Result<Repository> {
        fn need(bytes: &[u8], n: usize) -> Result<()> {
            if bytes.len() < n {
                Err(ModelError::codec("truncated repository"))
            } else {
                Ok(())
            }
        }
        need(bytes, 9)?;
        if &bytes[..8] != b"PPWFREPO" {
            return Err(ModelError::codec("bad repository magic"));
        }
        bytes.advance(8);
        let v = bytes.get_u8();
        if v != 1 && v != 2 {
            return Err(ModelError::codec(format!("unsupported repository version {v}")));
        }
        need(bytes, 12)?;
        let version = bytes.get_u64_le();
        let n = bytes.get_u32_le() as usize;
        let mut repo = Repository::new();
        for _ in 0..n {
            if v >= 2 {
                need(bytes, 1)?;
                let live = bytes.get_u8();
                match live {
                    0 => {
                        repo.insert_tombstone();
                        continue;
                    }
                    1 => {}
                    other => {
                        return Err(ModelError::codec(format!("bad slot flag {other}")));
                    }
                }
            }
            let (spec, policy, executions) = decode_entry(&mut bytes)?;
            let id = repo.insert_spec(spec, policy)?;
            for exec in executions {
                repo.add_execution(id, exec)?;
            }
        }
        if !bytes.is_empty() {
            return Err(ModelError::codec("trailing bytes after repository"));
        }
        repo.version = version;
        Ok(repo)
    }
}

/// Append one entry's wire encoding to `buf` — the per-entry section of
/// [`Repository::save`]'s layout, factored out so chunked snapshots
/// (`crate::snapshot`) serialize entry ranges byte-identically to the
/// whole-image format:
///
/// ```text
/// [u32 spec_len][spec bytes][u32 policy_len][policy bytes]
/// [u32 exec_count] exec_count × ([u32 exec_len][exec bytes])
/// ```
pub(crate) fn encode_entry(buf: &mut BytesMut, e: &SpecEntry) {
    let spec = codec::encode_spec(&e.spec);
    buf.put_u32_le(spec.len() as u32);
    buf.put_slice(&spec);
    let pol = encode_policy(&e.policy);
    buf.put_u32_le(pol.len() as u32);
    buf.put_slice(&pol);
    buf.put_u32_le(e.executions.len() as u32);
    for x in &e.executions {
        let xb = codec::encode_execution(x);
        buf.put_u32_le(xb.len() as u32);
        buf.put_slice(&xb);
    }
}

/// Decode one entry's wire encoding from the front of `bytes`, advancing
/// past it. Artifacts are decoded (and so re-validated by their codecs);
/// the caller re-runs the repository-level checks by inserting through
/// [`Repository::insert_spec`] / [`Repository::add_execution`].
pub(crate) fn decode_entry(bytes: &mut &[u8]) -> Result<(Specification, Policy, Vec<Execution>)> {
    fn need(bytes: &[u8], n: usize) -> Result<()> {
        if bytes.len() < n {
            Err(ModelError::codec("truncated repository entry"))
        } else {
            Ok(())
        }
    }
    need(bytes, 4)?;
    let sl = bytes.get_u32_le() as usize;
    need(bytes, sl)?;
    let spec = codec::decode_spec(&bytes[..sl])?;
    bytes.advance(sl);
    need(bytes, 4)?;
    let pl = bytes.get_u32_le() as usize;
    need(bytes, pl)?;
    let policy = decode_policy(&bytes[..pl])?;
    bytes.advance(pl);
    need(bytes, 4)?;
    let xs = bytes.get_u32_le() as usize;
    let mut executions = Vec::with_capacity(xs.min(1024));
    for _ in 0..xs {
        need(bytes, 4)?;
        let xl = bytes.get_u32_le() as usize;
        need(bytes, xl)?;
        executions.push(codec::decode_execution(&bytes[..xl])?);
        bytes.advance(xl);
    }
    Ok((spec, policy, executions))
}

/// Policy wire codec, shared by [`Repository::save`]/[`Repository::load`]
/// and the WAL's mutation records (`crate::wal`), so a policy serializes
/// identically whether it travels in a snapshot or in a log record.
pub(crate) mod policy_codec {
    pub(crate) use super::{decode_policy, encode_policy};
}

pub(crate) fn encode_policy(p: &Policy) -> Bytes {
    let mut b = BytesMut::new();
    let mut channels: Vec<(&String, &AccessLevel)> = p.channel_levels.iter().collect();
    channels.sort();
    b.put_u32_le(channels.len() as u32);
    for (ch, lvl) in channels {
        b.put_u32_le(ch.len() as u32);
        b.put_slice(ch.as_bytes());
        b.put_u8(lvl.0);
    }
    let mut mods: Vec<(&ModuleId, &ModuleRequirement)> = p.private_modules.iter().collect();
    mods.sort_by_key(|(m, _)| **m);
    b.put_u32_le(mods.len() as u32);
    for (m, req) in mods {
        b.put_u32_le(m.0);
        b.put_u32_le(req.gamma);
        b.put_u8(req.level.0);
    }
    b.put_u32_le(p.hide_pairs.len() as u32);
    for hp in &p.hide_pairs {
        b.put_u32_le(hp.from.0);
        b.put_u32_le(hp.to.0);
        b.put_u8(hp.level.0);
    }
    b.freeze()
}

pub(crate) fn decode_policy(mut bytes: &[u8]) -> Result<Policy> {
    fn need(bytes: &[u8], n: usize) -> Result<()> {
        if bytes.len() < n {
            Err(ModelError::codec("truncated policy"))
        } else {
            Ok(())
        }
    }
    let mut p = Policy::public();
    need(bytes, 4)?;
    let nch = bytes.get_u32_le() as usize;
    for _ in 0..nch {
        need(bytes, 4)?;
        let l = bytes.get_u32_le() as usize;
        need(bytes, l + 1)?;
        let ch = String::from_utf8(bytes[..l].to_vec())
            .map_err(|_| ModelError::codec("policy channel not UTF-8"))?;
        bytes.advance(l);
        let lvl = AccessLevel(bytes.get_u8());
        p.channel_levels.insert(ch, lvl);
    }
    need(bytes, 4)?;
    let nm = bytes.get_u32_le() as usize;
    for _ in 0..nm {
        need(bytes, 9)?;
        let m = ModuleId(bytes.get_u32_le());
        let gamma = bytes.get_u32_le();
        let level = AccessLevel(bytes.get_u8());
        p.private_modules.insert(m, ModuleRequirement { gamma, level });
    }
    need(bytes, 4)?;
    let nh = bytes.get_u32_le() as usize;
    for _ in 0..nh {
        need(bytes, 9)?;
        let from = ModuleId(bytes.get_u32_le());
        let to = ModuleId(bytes.get_u32_le());
        let level = AccessLevel(bytes.get_u8());
        p.hide_pairs.push(HidePair { from, to, level });
    }
    if !bytes.is_empty() {
        return Err(ModelError::codec("trailing bytes after policy"));
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppwf_model::fixtures;

    fn sample_repo() -> Repository {
        let mut repo = Repository::new();
        let (spec, m) = fixtures::disease_susceptibility();
        let mut policy = Policy::public();
        policy.protect_channel("disorders", AccessLevel(2));
        policy.hide_pair(m.m13, m.m11, AccessLevel(3));
        policy.protect_module(m.m1, 4, AccessLevel(2));
        let exec = fixtures::disease_susceptibility_execution(&spec);
        let id = repo.insert_spec(spec, policy).unwrap();
        repo.add_execution(id, exec).unwrap();
        repo
    }

    #[test]
    fn insert_and_lookup() {
        let repo = sample_repo();
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.execution_count(), 1);
        let entry = repo.entry(SpecId(0)).unwrap();
        assert_eq!(entry.spec.workflow_count(), 4);
        assert_eq!(entry.executions[0].data_count(), 20);
        assert!(repo.entry(SpecId(5)).is_none());
    }

    #[test]
    fn version_bumps_on_mutation() {
        let mut repo = Repository::new();
        let v0 = repo.version();
        let (spec, _) = fixtures::disease_susceptibility();
        let id = repo.insert_spec(spec.clone(), Policy::public()).unwrap();
        assert!(repo.version() > v0);
        let v1 = repo.version();
        let exec = fixtures::disease_susceptibility_execution(&spec);
        repo.add_execution(id, exec).unwrap();
        assert!(repo.version() > v1);
        let v2 = repo.version();
        repo.set_policy(id, Policy::public()).unwrap();
        assert!(repo.version() > v2);
    }

    #[test]
    fn rejects_mismatched_execution() {
        let mut repo = Repository::new();
        let (spec, _) = fixtures::disease_susceptibility();
        let exec = fixtures::disease_susceptibility_execution(&spec);
        let id = repo.insert_spec(spec, Policy::public()).unwrap();

        let mut b = ppwf_model::spec::SpecBuilder::new("other");
        let w = b.root_workflow("W1");
        let a = b.atomic(w, "A", &[]);
        b.edge(w, b.input(w), a, &["x"]);
        b.edge(w, a, b.output(w), &["y"]);
        let other = b.build().unwrap();
        let other_exec =
            ppwf_model::exec::Executor::new(&other).run(&mut ppwf_model::exec::HashOracle).unwrap();
        assert!(repo.add_execution(id, other_exec).is_err());
        repo.add_execution(id, exec).unwrap();
    }

    #[test]
    fn bad_spec_id_reports_true_len() {
        let mut repo = sample_repo();
        let exec = Execution::clone(&repo.entry(SpecId(0)).unwrap().executions[0]);
        let err = repo.add_execution(SpecId(7), exec).unwrap_err();
        match err {
            ModelError::BadId { kind, index, len } => {
                assert_eq!(kind, "spec");
                assert_eq!(index, 7);
                assert_eq!(len, 1, "error must report the live entry count");
            }
            other => panic!("unexpected error {other:?}"),
        }
        let err = repo.set_policy(SpecId(3), Policy::public()).unwrap_err();
        match err {
            ModelError::BadId { len, .. } => assert_eq!(len, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_invalid_policy() {
        let mut repo = Repository::new();
        let (spec, m) = fixtures::disease_susceptibility();
        let mut bad = Policy::public();
        bad.protect_module(m.m1, 0, AccessLevel(1)); // Γ = 0 invalid
        assert!(repo.insert_spec(spec, bad).is_err());
    }

    #[test]
    fn save_load_round_trip() {
        let repo = sample_repo();
        let bytes = repo.save();
        let loaded = Repository::load(&bytes).unwrap();
        assert_eq!(loaded.len(), repo.len());
        assert_eq!(loaded.version(), repo.version());
        assert_eq!(loaded.execution_count(), 1);
        let e = loaded.entry(SpecId(0)).unwrap();
        assert_eq!(e.policy.channel_level("disorders"), AccessLevel(2));
        assert_eq!(e.policy.hide_pairs.len(), 1);
        assert_eq!(e.policy.private_modules.len(), 1);
        assert_eq!(e.executions[0].proc_count(), 15);
        // Stable bytes.
        assert_eq!(loaded.save(), bytes);
    }

    #[test]
    fn delete_leaves_a_tombstone_and_preserves_id_space() {
        let mut repo = sample_repo();
        let (spec, _) = fixtures::disease_susceptibility();
        let id1 = repo.insert_spec(spec, Policy::public()).unwrap();
        assert_eq!((repo.len(), repo.live_count()), (2, 2));

        repo.delete_spec(SpecId(0)).unwrap();
        assert_eq!(repo.len(), 2, "slot count is the id space and must not shrink");
        assert_eq!(repo.live_count(), 1);
        assert!(repo.entry(SpecId(0)).is_none());
        assert!(!repo.is_live(SpecId(0)));
        assert!(repo.is_live(id1));
        assert_eq!(repo.execution_count(), 0, "the deleted spec's executions are gone");

        // Further mutations on the tombstone fail with the shared error.
        let err = repo.delete_spec(SpecId(0)).unwrap_err();
        assert_eq!(err.to_string(), deleted_spec_error(SpecId(0)).to_string());
        assert!(repo.set_policy(SpecId(0), Policy::public()).is_err());
        assert!(repo.check_delete(SpecId(0)).is_err());

        // The id is never reassigned: the next insert lands after it.
        let (spec, _) = fixtures::disease_susceptibility();
        let id2 = repo.insert_spec(spec, Policy::public()).unwrap();
        assert_eq!(id2, SpecId(2));
        assert_eq!(repo.entries().count(), 2, "live iteration skips the tombstone");
        assert_eq!(repo.slots().count(), 3, "slot iteration includes it");
    }

    #[test]
    fn edit_replaces_module_text_only() {
        use crate::mutation::{ModuleTextEdit, SpecText};
        let mut repo = sample_repo();
        let entry = repo.entry(SpecId(0)).unwrap();
        let m = fixtures::handles(&entry.spec);
        let before_hierarchy = entry.hierarchy.clone();
        let before_edges = entry.spec.edge_count();

        let text = SpecText {
            edits: vec![ModuleTextEdit {
                module: m.m3,
                name: "Sanitized Step".into(),
                keywords: vec!["redacted".into()],
            }],
        };
        repo.check_edit(SpecId(0), &text).unwrap();
        repo.edit_spec(SpecId(0), &text).unwrap();
        let entry = repo.entry(SpecId(0)).unwrap();
        let module = entry.spec.get_module(m.m3).unwrap();
        assert_eq!(module.name, "Sanitized Step");
        assert_eq!(module.keywords, vec!["redacted".to_string()]);
        assert_eq!(entry.spec.edge_count(), before_edges, "edits never touch structure");
        assert_eq!(entry.hierarchy.len(), before_hierarchy.len());
        assert_eq!(entry.executions.len(), 1, "provenance survives the edit");

        // Distinguished modules and bad ids are rejected before any change.
        let input = entry.spec.workflow(entry.spec.root()).input;
        let bad = SpecText {
            edits: vec![ModuleTextEdit { module: input, name: "x".into(), keywords: vec![] }],
        };
        let version = repo.version();
        assert!(repo.edit_spec(SpecId(0), &bad).is_err());
        assert_eq!(repo.version(), version, "rejected edits must not bump the version");
        assert!(repo.check_edit(SpecId(5), &text).is_err(), "bad spec id rejected");
    }

    #[test]
    fn tombstones_round_trip_through_save_load() {
        let mut repo = sample_repo();
        for _ in 0..2 {
            let (spec, _) = fixtures::disease_susceptibility();
            repo.insert_spec(spec, Policy::public()).unwrap();
        }
        repo.delete_spec(SpecId(1)).unwrap();
        let bytes = repo.save();
        let loaded = Repository::load(&bytes).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.live_count(), 2);
        assert!(loaded.entry(SpecId(1)).is_none());
        assert!(loaded.entry(SpecId(2)).is_some());
        assert_eq!(loaded.version(), repo.version());
        assert_eq!(loaded.save(), bytes, "tombstoned repositories keep stable bytes");
    }

    #[test]
    fn load_rejects_corruption() {
        let repo = sample_repo();
        let bytes = repo.save().to_vec();
        assert!(Repository::load(b"JUNK").is_err());
        for cut in (0..bytes.len()).step_by(997) {
            assert!(Repository::load(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Repository::load(&trailing).is_err());
    }
}
