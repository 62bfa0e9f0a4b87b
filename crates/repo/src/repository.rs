#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
//! The workflow repository: specifications, their executions, and their
//! privacy policies, in one store serving every privilege level.
//!
//! The paper (Sec. 1) argues *against* materializing one repository per
//! access level — "inconsistencies, inefficiency, and a lack of
//! flexibility" — so the repository stores full-fidelity artifacts plus
//! policies, and the query layer hides on the fly. Persistence writes the
//! image, its entries and its policies with the model crate's one byte
//! codec ([`Writer`] / [`Reader`]), and nests the specification and
//! execution encodings inside.

use ppwf_core::policy::{AccessLevel, HidePair, ModuleRequirement, Policy};
use ppwf_model::codec::{self, Reader, Writer};
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
        // Checked first, so no edit of the run fails after another landed.
        self.check_edit(spec, text)?;
        let spec = Arc::make_mut(&mut self.live_entry_mut(spec)?.spec);
        for edit in &text.edits {
            spec.set_module_text(edit.module, &edit.name, &edit.keywords)?;
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
    /// bit-identically (id space and all):
    ///
    /// ```text
    /// [b"PPWFREPO"] [u8 format=2] [u64 version] [u32 slot_count]
    /// slot_count × slot (see `encode_slot`)
    /// ```
    pub fn save(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.bytes(MAGIC);
        w.u8(2); // format version
        w.u64(self.version);
        w.count(self.entries.len());
        for slot in &self.entries {
            encode_slot(&mut w, slot.as_ref());
        }
        buf
    }

    /// Deserialize a repository, re-validating every artifact. Reads both
    /// format 2 (slot flags) and the pre-tombstone format 1 (every entry
    /// live, no flag bytes).
    pub fn load(bytes: &[u8]) -> Result<Repository> {
        let mut r = Reader::new(bytes);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(ModelError::codec("bad repository magic"));
        }
        let v = r.u8()?;
        if v != 1 && v != 2 {
            return Err(ModelError::codec(format!("unsupported repository version {v}")));
        }
        let version = r.u64()?;
        let mut repo = Repository::new();
        for _ in 0..r.count()? {
            if v == 1 {
                load_entry(&mut repo, &mut r)?;
            } else {
                load_slot(&mut repo, &mut r)?;
            }
        }
        r.finish()?;
        repo.version = version;
        Ok(repo)
    }
}

const MAGIC: &[u8; 8] = b"PPWFREPO";

/// Append one id slot — the unit of [`Repository::save`]'s image and of a
/// snapshot chunk (`crate::snapshot`), which so serialize slot ranges
/// byte-identically:
///
/// ```text
/// [u8 live flag = 0]                              a tombstone
/// [u8 live flag = 1] [u32 spec_len][spec bytes] [u32 policy_len][policy bytes]
///     [u32 exec_count] exec_count × ([u32 exec_len][exec bytes])
/// ```
pub(crate) fn encode_slot(w: &mut Writer, slot: Option<&SpecEntry>) {
    let Some(e) = slot else {
        w.u8(0);
        return;
    };
    w.u8(1);
    w.prefixed(&codec::encode_spec(&e.spec));
    w.prefixed(&encode_policy(&e.policy));
    w.count(e.executions.len());
    for x in &e.executions {
        w.prefixed(&codec::encode_execution(x));
    }
}

/// Read one [`encode_slot`] slot into `repo`'s next id. Artifacts are
/// decoded (and so re-validated by their codecs) and go in through
/// [`Repository::insert_spec`] / [`Repository::add_execution`], which
/// re-run the repository-level checks.
pub(crate) fn load_slot(repo: &mut Repository, r: &mut Reader) -> Result<()> {
    match r.u8()? {
        0 => {
            repo.insert_tombstone();
            Ok(())
        }
        1 => load_entry(repo, r),
        other => Err(ModelError::codec(format!("bad slot flag {other}"))),
    }
}

/// A live slot's entry, after its flag.
fn load_entry(repo: &mut Repository, r: &mut Reader) -> Result<()> {
    let spec = codec::decode_spec(r.prefixed()?)?;
    let id = repo.insert_spec(spec, decode_policy(r.prefixed()?)?)?;
    for _ in 0..r.count()? {
        repo.add_execution(id, codec::decode_execution(r.prefixed()?)?)?;
    }
    Ok(())
}

/// Policy wire codec, shared by [`Repository::save`]/[`Repository::load`]
/// and the WAL's mutation records (`crate::wal`), so a policy serializes
/// identically whether it travels in a snapshot or in a log record:
///
/// ```text
/// [u32 n] n × ([u32 len][channel UTF-8][u8 level])        sorted by channel
/// [u32 n] n × ([u32 module][u32 gamma][u8 level])          sorted by module
/// [u32 n] n × ([u32 from][u32 to][u8 level])               hide pairs, in order
/// ```
pub(crate) fn encode_policy(p: &Policy) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = Writer::new(&mut buf);
    let mut channels: Vec<(&String, &AccessLevel)> = p.channel_levels.iter().collect();
    channels.sort();
    w.count(channels.len());
    for (ch, lvl) in channels {
        w.string(ch);
        w.u8(lvl.0);
    }
    let mut mods: Vec<(&ModuleId, &ModuleRequirement)> = p.private_modules.iter().collect();
    mods.sort_by_key(|(m, _)| **m);
    w.count(mods.len());
    for (m, req) in mods {
        w.u32(m.0);
        w.u32(req.gamma);
        w.u8(req.level.0);
    }
    w.count(p.hide_pairs.len());
    for hp in &p.hide_pairs {
        w.u32(hp.from.0);
        w.u32(hp.to.0);
        w.u8(hp.level.0);
    }
    buf
}

/// Decode an [`encode_policy`] encoding, all of it.
pub(crate) fn decode_policy(bytes: &[u8]) -> Result<Policy> {
    let mut r = Reader::new(bytes);
    let mut p = Policy::public();
    for _ in 0..r.count()? {
        let channel = r.string()?;
        p.channel_levels.insert(channel, AccessLevel(r.u8()?));
    }
    for _ in 0..r.count()? {
        let m = ModuleId(r.u32()?);
        let gamma = r.u32()?;
        p.private_modules.insert(m, ModuleRequirement { gamma, level: AccessLevel(r.u8()?) });
    }
    for _ in 0..r.count()? {
        let (from, to) = (ModuleId(r.u32()?), ModuleId(r.u32()?));
        p.hide_pairs.push(HidePair { from, to, level: AccessLevel(r.u8()?) });
    }
    r.finish()?;
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
        for cut in 0..bytes.len() {
            assert!(Repository::load(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Repository::load(&trailing).is_err());
    }
}
