#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
//! The durable log's decisions, as one state machine with no backend,
//! lock, thread, clock or pool. [`DurableLog`](crate::wal::DurableLog)
//! holds one [`LogCore`] under one mutex, feeds it events (the methods
//! below that take what the executor did) and runs every [`Action`] that
//! [`LogCore::next_action`] hands back, outside the lock. The thread that
//! raised an event drains the actions it produced before it lets the lock
//! go, so a frame's [`Action::Write`] always reaches the thread that
//! appended it. This module is the one statement of the rules; the
//! executor only carries them out.
//!
//! **Frames.** [`LogCore::append`] gives a run its sequence numbers (from
//! 1, contiguous across segments), rotates to a new segment — named by the
//! first sequence number it holds — when the record would overflow a
//! non-empty active one, and hands out the record's `Write`. A frame is
//! then *writing*, *written* once [`LogCore::written`] reports its bytes in
//! the segment, *syncing* while a covering sync runs, and *done* once its
//! verdict is decided. Verdicts are released in sequence order
//! ([`Action::Ack`]), so the acknowledged frames are always a prefix of the
//! appended ones. An empty run appends nothing and is durable at once.
//!
//! **Covering syncs.** One sync runner at a time: the first frame written
//! while none runs hands out [`Action::Sync`], and the runner asks
//! [`LogCore::sync_start`] for work until there is none. Each call takes
//! the maximal run of written frames at the front of the queue that share
//! a segment — a sync covers exactly the frames of its own segment that
//! were written before it started — and [`LogCore::synced`] reports its
//! verdict. A frame is acknowledged `Ok` only by a successful sync of its
//! segment, or when that sync failed on a segment a snapshot already
//! covers (a prune may have removed the file: the records are durable in
//! the snapshot).
//!
//! **Poison.** The first failed write or sync is the log's one poison
//! cell. A failed sync fails its run and every frame queued behind it (the
//! first with the storage error, the rest [`WalError::Poisoned`]); a failed
//! write fails its own frame. From then on every append is refused and
//! cadence snapshots are refused (and counted), because the tail is in an
//! unknown state. Re-open (recover) to resume.
//!
//! **Snapshots.** A cadence snapshot is due every `snapshot_every` written
//! mutations; a checkpoint is asked for by the executor. Both start with
//! [`LogCore::start_snapshot`], run as the same snapshot job and finish
//! with [`LogCore::snapshot_done`], and one snapshot runs at a time. A
//! cadence snapshot writes the chunks its plan asks for and carries the
//! clean ones by reference; a checkpoint writes every slot as one run and
//! re-seeds the entry count. Starting one rotates appends past its
//! covering sequence `through` — so every segment that exists then holds
//! only records ≤ `through` — and hands the chunks dirtied since the last
//! snapshot to it: a success retires them and makes its manifest the clean
//! baseline, a failure returns them to the dirty set.
//!
//! **Prune.** A successful snapshot hands out [`Action::Prune`]; what it
//! removes is [`superseded`]: segments whose first sequence is ≤ `through`,
//! snapshots older than `through`, and chunks its manifest does not
//! reference.
//!
//! `C` is a frame's acknowledgement and `I` a captured snapshot image; the
//! executor queues its callbacks and images, the model tests below drive
//! the same code with plain integers.

use crate::mutation::Mutation;
use crate::snapshot::{self, ChunkRef, ChunkedWrite, CHUNK_SPECS};
use crate::storage::StorageError;
use crate::wal::{DurabilityStats, WalError, WalResult, BATCH_SIZE_BOUNDS};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// The file name of the segment whose first record is `first_seq`.
pub(crate) fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:016x}.log")
}

/// Parse a segment file name back to its first sequence number.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Whether a snapshot covering `through`, whose manifest references
/// `referenced`, supersedes the stored file `name`. Never "everything but
/// the active segment": segments rotated in while the snapshot ran start
/// past `through` and must survive.
pub(crate) fn superseded(name: &str, through: u64, referenced: &HashSet<u64>) -> bool {
    match (parse_segment_name(name), snapshot::parse_name(name)) {
        (Some(first), _) => first <= through,
        (None, Some(older)) => older < through,
        (None, None) => {
            snapshot::parse_chunk_name(name).is_some_and(|hash| !referenced.contains(&hash))
        }
    }
}

/// The entry id `mutation` writes, given the entry count before it: an
/// insert lands at the next dense id, the others name their spec.
pub(crate) fn entry_of(mutation: &Mutation, entries: u64) -> u32 {
    match mutation {
        Mutation::InsertSpec { .. } => entries as u32,
        Mutation::AddExecution { spec, .. }
        | Mutation::SetPolicy { spec, .. }
        | Mutation::DeleteSpec { spec }
        | Mutation::EditSpec { spec, .. } => spec.0,
    }
}

/// What the executor does next.
pub(crate) enum Action<C, I> {
    /// Append `record` to `segment` (by first sequence number); report
    /// [`LogCore::written`].
    Write { segment: u64, record: Vec<u8> },
    /// Start the sync runner — a pool job, or here without a pool — which
    /// calls [`LogCore::sync_start`] until it returns `None`.
    Sync,
    /// Fire these acknowledgements, in this order.
    Ack(Vec<(C, WalResult<()>)>),
    /// Write `image` as the snapshot covering `through`; report
    /// [`LogCore::snapshot_done`].
    Snapshot { through: u64, image: I },
    /// Remove every stored file [`superseded`] by the snapshot covering
    /// `through`; report [`LogCore::pruned`].
    Prune { through: u64, referenced: HashSet<u64> },
}

enum Stage {
    Writing,
    Written,
    Syncing,
    Done(WalResult<()>),
}

struct Frame<C> {
    /// Last sequence number the frame carries.
    last: u64,
    /// Mutations and record bytes, accounted once written.
    count: u64,
    bytes: u64,
    segment: u64,
    stage: Stage,
    ack: C,
}

enum SyncSlot {
    /// No runner: the next written frame hands out a `Sync`.
    Idle,
    /// A runner is out and will ask for work.
    Runner,
    /// The runner's sync of this segment is in flight.
    Syncing(u64),
}

/// The snapshot in flight.
struct InFlight {
    through: u64,
    /// The dirty chunks handed to it.
    chunks: BTreeSet<u32>,
    /// A cadence snapshot (counted as a background one), not a checkpoint.
    cadence: bool,
}

/// Where recovery left the log.
pub(crate) struct Recovered {
    pub(crate) last_seq: u64,
    pub(crate) snapshot_seq: u64,
    /// First sequence number and surviving bytes of the segment appends
    /// continue into.
    pub(crate) active: (u64, u64),
    pub(crate) entry_count: u64,
    /// Chunks the replayed suffix dirtied, relative to `manifest`.
    pub(crate) dirty: BTreeSet<u32>,
    /// The loaded snapshot's chunk manifest (empty: none, or a v1 file).
    pub(crate) manifest: Vec<ChunkRef>,
    /// Whether recovery loaded a snapshot, of any version.
    pub(crate) based: bool,
}

/// The log's state machine. See the module docs.
pub(crate) struct LogCore<C, I> {
    segment_bytes: u64,
    snapshot_every: u64,
    next_seq: u64,
    active: u64,
    active_bytes: u64,
    /// Frames whose verdict is not yet released, in sequence order.
    frames: VecDeque<Frame<C>>,
    sync: SyncSlot,
    /// The failure that poisoned the log.
    poison: Option<String>,
    since_snapshot: u64,
    /// Entries the appended history has produced: the id the next insert
    /// lands on, which fixes the chunk it dirties.
    entry_count: u64,
    dirty: BTreeSet<u32>,
    /// Chunk manifest of the last successful snapshot.
    manifest: Vec<ChunkRef>,
    /// Whether the store holds a snapshot: recovery loaded one, or one
    /// finished here. A checkpoint of a pre-loaded corpus is stamped at
    /// sequence 0, so no sequence number tells this.
    based: bool,
    in_flight: Option<InFlight>,
    actions: VecDeque<Action<C, I>>,
    stats: DurabilityStats,
}

impl<C, I> LogCore<C, I> {
    pub(crate) fn new(segment_bytes: u64, snapshot_every: u64, recovered: Recovered) -> Self {
        let Recovered { last_seq, snapshot_seq, active, entry_count, dirty, manifest, based } =
            recovered;
        LogCore {
            segment_bytes,
            snapshot_every,
            next_seq: last_seq + 1,
            active: active.0,
            active_bytes: active.1,
            frames: VecDeque::new(),
            sync: SyncSlot::Idle,
            poison: None,
            since_snapshot: last_seq - snapshot_seq,
            entry_count,
            dirty,
            manifest,
            based,
            in_flight: None,
            actions: VecDeque::new(),
            stats: DurabilityStats { last_seq, snapshot_seq, ..DurabilityStats::default() },
        }
    }

    /// Sequence number the next append gets.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Event: `run`, framed as `record` at [`Self::next_seq`], is to be
    /// appended; `ack` receives its verdict. Refused (`Err`, and `ack`
    /// fails in order) once the log is poisoned.
    pub(crate) fn append(&mut self, record: Vec<u8>, run: &[Mutation], ack: C) -> WalResult<()> {
        let (count, bytes) = (run.len() as u64, record.len() as u64);
        let (last, segment) = (self.next_seq + count - 1, self.active);
        if count == 0 || self.poison.is_some() {
            let stage = Stage::Done(self.refusal());
            self.frames.push_back(Frame { last, count, bytes, segment, stage, ack });
            return self.refusal();
        }
        if self.active_bytes > 0 && self.active_bytes + bytes > self.segment_bytes {
            self.rotate_to(self.next_seq);
        }
        self.active_bytes += bytes;
        self.next_seq += count;
        for mutation in run {
            let id = entry_of(mutation, self.entry_count);
            self.entry_count += matches!(mutation, Mutation::InsertSpec { .. }) as u64;
            self.dirty.insert(snapshot::chunk_of(id));
        }
        let (segment, stage) = (self.active, Stage::Writing);
        self.frames.push_back(Frame { last, count, bytes, segment, stage, ack });
        self.actions.push_back(Action::Write { segment, record });
        Ok(())
    }

    /// Event: the writing frame's `Write` ran. A failed write poisons the
    /// log and fails the frame; its error is returned to the appender.
    pub(crate) fn written(&mut self, verdict: Result<(), StorageError>) -> WalResult<()> {
        let refused = self.refusal();
        let writing = |f: &&mut Frame<C>| matches!(f.stage, Stage::Writing);
        let Some(frame) = self.frames.back_mut().filter(writing) else { return Ok(()) };
        if let Err(e) = verdict {
            let detail = self.poison.get_or_insert(e.to_string()).clone();
            frame.stage = Stage::Done(Err(WalError::Poisoned { detail }));
            return Err(WalError::Storage(e));
        }
        let stats = &mut self.stats;
        stats.appends += frame.count;
        stats.records += 1;
        stats.bytes_appended += frame.bytes;
        stats.last_seq = frame.last;
        let bucket = BATCH_SIZE_BOUNDS.iter().take_while(|&&bound| frame.count > bound).count();
        stats.batch_size_counts[bucket] += 1;
        self.since_snapshot += frame.count;
        if refused.is_err() {
            // A sync failed while this frame was being written: it is in
            // the segment, but nothing will ever cover it.
            frame.stage = Stage::Done(refused);
            return Ok(());
        }
        frame.stage = Stage::Written;
        let queued = self.frames.iter().filter(|f| matches!(f.stage, Stage::Written)).count();
        stats.pipeline_depth_high_water = stats.pipeline_depth_high_water.max(queued as u64);
        match self.sync {
            SyncSlot::Idle => {
                self.sync = SyncSlot::Runner;
                self.actions.push_back(Action::Sync);
            }
            SyncSlot::Runner | SyncSlot::Syncing(_) => stats.overlapped_fsyncs += 1,
        }
        Ok(())
    }

    /// Event: the sync runner asks for work. Returns the segment to sync,
    /// having taken the maximal run of written frames at the front of the
    /// queue in that segment, or `None` — the runner is done — when no
    /// frame awaits a sync.
    pub(crate) fn sync_start(&mut self) -> Option<u64> {
        if !matches!(self.sync, SyncSlot::Runner) {
            return None;
        }
        let written = |f: &Frame<C>| matches!(f.stage, Stage::Written);
        let Some(segment) = self.frames.iter().find(|f| written(f)).map(|f| f.segment) else {
            self.sync = SyncSlot::Idle;
            return None;
        };
        let run = self.frames.iter_mut().skip_while(|f| !written(f));
        for frame in run.take_while(|f| written(f) && f.segment == segment) {
            frame.stage = Stage::Syncing;
        }
        self.sync = SyncSlot::Syncing(segment);
        Some(segment)
    }

    /// Event: the runner's sync of `segment` finished with `verdict`.
    pub(crate) fn synced(&mut self, segment: u64, verdict: Result<(), StorageError>) {
        if !matches!(self.sync, SyncSlot::Syncing(s) if s == segment) {
            return;
        }
        self.sync = SyncSlot::Runner;
        let syncing = |f: &&mut Frame<C>| matches!(f.stage, Stage::Syncing);
        let synced = verdict.is_ok() as u64;
        // A failed sync of a segment a snapshot covers lost nothing: a prune
        // may have removed the file, and the snapshot holds every record.
        let covered = self.stats.snapshot_seq;
        let covered = self.frames.iter_mut().filter(syncing).all(|f| f.last <= covered);
        let Some(e) = verdict.err().filter(|_| !covered) else {
            for (i, frame) in self.frames.iter_mut().filter(syncing).enumerate() {
                self.stats.fsyncs_saved += synced * (frame.count - 1 + (i > 0) as u64);
                frame.stage = Stage::Done(Ok(()));
            }
            self.stats.syncs += synced;
            return;
        };
        let detail = self.poison.get_or_insert(e.to_string()).clone();
        let poisoned = || WalError::Poisoned { detail: detail.clone() };
        let mut cause = Some(WalError::Storage(e));
        for frame in self.frames.iter_mut() {
            if matches!(frame.stage, Stage::Syncing | Stage::Written) {
                frame.stage = Stage::Done(Err(cause.take().unwrap_or_else(poisoned)));
            }
        }
    }

    /// Whether the cadence says it is time to snapshot.
    pub(crate) fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every
    }

    /// The chunk plan for a cadence snapshot of `entry_count` entries, when
    /// one is due and none is in flight: entry `c` is `Some(chunk_ref)` when
    /// chunk `c` is clean since the last snapshot and rides along by
    /// reference, `None` when it must be captured. A poisoned log refuses
    /// the cadence and counts it failed.
    ///
    /// Clean is not enough: the last manifest's ref `c` is reused only when
    /// its run holds exactly chunk `c`'s slot count. A checkpoint's manifest
    /// is one run of every slot, and a store re-opened over one seeds the
    /// same manifest; past [`CHUNK_SPECS`] slots that run is not chunk 0,
    /// and reusing it as chunk 0 would load every slot twice over.
    pub(crate) fn snapshot_plan(&mut self, entry_count: usize) -> Option<Vec<Option<ChunkRef>>> {
        if !self.snapshot_due() || self.in_flight.is_some() {
            return None;
        }
        if self.poison.is_some() {
            self.stats.snapshot_failures += 1;
            return None;
        }
        let plan = (0..entry_count.div_ceil(CHUNK_SPECS)).map(|c| {
            let entries = (entry_count - c * CHUNK_SPECS).min(CHUNK_SPECS) as u32;
            let clean = !self.dirty.contains(&(c as u32));
            self.manifest.get(c).copied().filter(|r| clean && r.entries == entries)
        });
        Some(plan.collect())
    }

    /// Event: a snapshot was captured as `image` — the cadence snapshot
    /// whose plan was just handed out (`checkpoint` is `None`), or a
    /// checkpoint holding every one of `Some(entry_count)` slots as one
    /// run, which re-seeds the entry count. Hands out its `Snapshot` and
    /// returns `Ok(true)`; `Ok(false)` starts nothing while another
    /// snapshot is in flight, and a poisoned log refuses.
    pub(crate) fn start_snapshot(&mut self, image: I, checkpoint: Option<u64>) -> WalResult<bool> {
        self.refusal()?;
        if self.in_flight.is_some() {
            return Ok(false);
        }
        let through = self.next_seq - 1;
        self.rotate_to(through + 1);
        self.since_snapshot = 0;
        self.entry_count = checkpoint.unwrap_or(self.entry_count);
        let chunks = std::mem::take(&mut self.dirty);
        self.in_flight = Some(InFlight { through, chunks, cadence: checkpoint.is_none() });
        self.actions.push_back(Action::Snapshot { through, image });
        Ok(true)
    }

    /// Continue appending in the segment that starts at `first`.
    fn rotate_to(&mut self, first: u64) {
        if self.active != first {
            self.active = first;
            self.active_bytes = 0;
            self.stats.rotations += 1;
        }
    }

    /// Event: the snapshot covering `through` finished: `Some` with what it
    /// wrote, `None` on failure; its job was busy `us` (counted for a
    /// cadence snapshot). A successful snapshot stays in flight until its
    /// prune is reported, so nothing waits, snapshots or recovers past a
    /// prune still removing files.
    pub(crate) fn snapshot_done(&mut self, through: u64, wrote: Option<ChunkedWrite>, us: u64) {
        let Some(job) = self.in_flight.take_if(|job| job.through == through) else { return };
        let stats = &mut self.stats;
        stats.snapshot_background_us += job.cadence as u64 * us;
        let Some(wrote) = wrote else {
            self.dirty.extend(job.chunks);
            stats.snapshot_failures += 1;
            return;
        };
        stats.snapshots += 1;
        stats.snapshot_seq = through;
        stats.snapshot_chunks_written += wrote.chunks_written;
        stats.snapshot_chunks_reused += wrote.chunks_reused;
        stats.snapshot_bytes_written += wrote.bytes_written;
        stats.background_snapshots += job.cadence as u64;
        self.based = true;
        let referenced = wrote.manifest.iter().map(|r| r.hash).collect();
        self.manifest = wrote.manifest;
        self.actions.push_back(Action::Prune { through, referenced });
        self.in_flight = Some(InFlight { chunks: BTreeSet::new(), ..job });
    }

    /// Event: the prune of the snapshot in flight removed `segments`
    /// segment files; the snapshot is done.
    pub(crate) fn pruned(&mut self, segments: u64) {
        self.stats.segments_pruned += segments;
        self.in_flight = None;
    }

    /// Event: the appender spent `us` capturing a cadence snapshot.
    pub(crate) fn snapshot_paused(&mut self, us: u64) {
        self.stats.snapshot_pause_us += us;
    }

    /// The next thing to do, if any: released acknowledgements first. The
    /// thread that raised an event calls this until `None` before it lets
    /// the lock go.
    pub(crate) fn next_action(&mut self) -> Option<Action<C, I>> {
        let mut acks = Vec::new();
        while let Some(frame) = self.frames.pop_front_if(|f| matches!(f.stage, Stage::Done(_))) {
            if let Stage::Done(verdict) = frame.stage {
                acks.push((frame.ack, verdict));
            }
        }
        if acks.is_empty() {
            self.actions.pop_front()
        } else {
            Some(Action::Ack(acks))
        }
    }

    /// `Err(Poisoned)` once the log is poisoned.
    pub(crate) fn refusal(&self) -> WalResult<()> {
        match &self.poison {
            Some(detail) => Err(WalError::Poisoned { detail: detail.clone() }),
            None => Ok(()),
        }
    }

    /// No frame awaits its verdict and no sync runner is out.
    pub(crate) fn pipeline_idle(&self) -> bool {
        self.frames.is_empty() && matches!(self.sync, SyncSlot::Idle)
    }

    pub(crate) fn snapshot_in_flight(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Whether the store has no durable history: no snapshot and no
    /// record — so a corpus it is attached to needs a baseline.
    pub(crate) fn is_empty(&self) -> bool {
        !self.based && self.next_seq == 1
    }

    pub(crate) fn stats(&self) -> DurabilityStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    //! The core against a sequential model. A case draws a random schedule
    //! of every event the executor raises — appends of one to three
    //! mutations (inserts and writes to existing specs) with random record
    //! sizes, write verdicts, the sync runner's `sync_start` and its
    //! verdicts, cadence snapshots and checkpoints and their verdicts — and
    //! drains the actions after each event, as the executor does. Writes
    //! and syncs may fail. A checkpoint is one run of more than
    //! [`CHUNK_SPECS`] slots (the corpus starts at 40), sometimes of slots
    //! the log has no record of, as a baseline is. The model keeps its own
    //! sequence numbers, segments, dirty chunks, manifest, the slot run each
    //! chunk hash holds and directory listing, and checks:
    //!
    //! * each `Write` goes to the segment the model rotated to, and a sync
    //!   takes exactly the written frames of one segment at the front of
    //!   the queue;
    //! * verdicts are released in sequence order, and a frame is
    //!   acknowledged `Ok` only after a successful sync of the segment
    //!   holding it (or a failed one that a snapshot already covers) —
    //!   never earlier, and never for another segment's sync;
    //! * a failed sync fails its run with the storage error and every other
    //!   queued frame as `Poisoned`, and every later append is refused
    //!   `Poisoned`;
    //! * a prune never removes a segment holding a record past the
    //!   snapshot's `through`;
    //! * every chunk plan equals the model's: a chunk rides along by
    //!   reference only when it is clean, so a failed snapshot must have
    //!   re-dirtied its chunks;
    //! * a ref a plan reuses as chunk `c` holds exactly chunk `c`'s slots,
    //!   so a checkpoint's one run never stands in for chunk 0.
    //!
    //! A case starts on a store with no history or on one recovered from a
    //! snapshot, and may close and reopen a healthy log at any step: the
    //! model drains the core, rebuilds it from the `Recovered` its own
    //! stored files imply (newest snapshot, manifest, surviving segments,
    //! entry count) and checks that the sequence continues, that the store
    //! needs a baseline only with no snapshot file and no record, and —
    //! through the checks above — that later chunk plans reuse exactly what
    //! the reopened manifest holds.
    //!
    //! At the end the model drains the core and checks that every frame
    //! got exactly one verdict, and that the snapshot counters split
    //! cadence snapshots from checkpoints.

    use super::*;
    use crate::repository::SpecId;
    use ppwf_core::policy::Policy;
    use ppwf_model::fixtures;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const SEGMENT_BYTES: u64 = 600;
    const SNAPSHOT_EVERY: u64 = 4;
    /// Entries of the recovered corpus: chunks of 16, 16 and 8 entries.
    const ENTRIES: u64 = 40;

    type Core = LogCore<usize, u32>;
    type Acts = Vec<Action<usize, u32>>;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fate {
        Ok,
        Storage,
        Poisoned,
    }

    fn fate_of(verdict: &WalResult<()>) -> Option<Fate> {
        match verdict {
            Ok(()) => Some(Fate::Ok),
            Err(WalError::Storage(_)) => Some(Fate::Storage),
            Err(WalError::Poisoned { .. }) => Some(Fate::Poisoned),
            Err(_) => None,
        }
    }

    fn failure() -> StorageError {
        StorageError::io("sync", "wal", "injected failure")
    }

    /// An appended frame as the model sees it.
    struct Frame {
        last: u64,
        count: u64,
        bytes: u64,
        segment: u64,
        written: bool,
        fate: Option<Fate>,
    }

    struct Model {
        core: Core,
        insert: Mutation,
        frames: Vec<Frame>,
        /// Frames whose verdict the core released, in order.
        released: usize,
        writing: Option<usize>,
        next_seq: u64,
        active: u64,
        active_bytes: u64,
        poisoned: bool,
        runner: bool,
        /// The sync in flight: its segment and the frames it covers.
        syncing: Option<(u64, Vec<usize>)>,
        since_snapshot: u64,
        entry_count: u64,
        dirty: BTreeSet<u32>,
        manifest: Vec<ChunkRef>,
        /// The slots each chunk hash holds: first id and count.
        runs: BTreeMap<u64, (u64, u32)>,
        next_hash: u64,
        /// The snapshot in flight: through, its chunks, the manifest it
        /// writes, and whether it is a cadence snapshot.
        job: Option<(u64, BTreeSet<u32>, Vec<ChunkRef>, bool)>,
        /// Successful snapshots since the last (re)open, and the cadence
        /// ones among them.
        snapshots: (u64, u64),
        /// What the latest successful snapshot covers.
        covered: u64,
        /// The stored files; a segment with the frames written into it.
        files: BTreeMap<String, Vec<usize>>,
        syncs: u64,
    }

    impl Model {
        /// A store with no history (`fresh`), or one recovered from a
        /// snapshot of [`ENTRIES`] entries at sequence 0 and no records.
        fn new(fresh: bool) -> Self {
            let (spec, _) = fixtures::disease_susceptibility();
            let manifest: Vec<ChunkRef> = (0..3)
                .filter(|_| !fresh)
                .map(|c| ChunkRef { hash: c, entries: if c < 2 { 16 } else { 8 }, bytes: 1 })
                .collect();
            let runs = manifest.iter().map(|r| (r.hash, (r.hash * 16, r.entries))).collect();
            let entry_count = if fresh { 0 } else { ENTRIES };
            let mut files = BTreeMap::new();
            if !fresh {
                files.insert(snapshot::file_name(0), Vec::new());
                for r in &manifest {
                    files.insert(snapshot::chunk_file_name(r.hash), Vec::new());
                }
            }
            let recovered = Recovered {
                last_seq: 0,
                snapshot_seq: 0,
                active: (1, 0),
                entry_count,
                dirty: BTreeSet::new(),
                manifest: manifest.clone(),
                based: !fresh,
            };
            Model {
                core: LogCore::new(SEGMENT_BYTES, SNAPSHOT_EVERY, recovered),
                insert: Mutation::InsertSpec { spec, policy: Policy::public() },
                frames: Vec::new(),
                released: 0,
                writing: None,
                next_seq: 1,
                active: 1,
                active_bytes: 0,
                poisoned: false,
                runner: false,
                syncing: None,
                since_snapshot: 0,
                entry_count,
                dirty: BTreeSet::new(),
                manifest,
                runs,
                next_hash: 3,
                job: None,
                snapshots: (0, 0),
                covered: 0,
                files,
                syncs: 0,
            }
        }

        /// Drain the core's actions, checking every released verdict;
        /// returns the others for the caller to match.
        fn actions(&mut self) -> Result<Acts, TestCaseError> {
            let mut others = Vec::new();
            while let Some(action) = self.core.next_action() {
                match action {
                    Action::Ack(verdicts) => {
                        prop_assert!(!verdicts.is_empty());
                        for (id, verdict) in verdicts {
                            prop_assert_eq!(id, self.released, "verdicts out of sequence order");
                            let expected = self.frames[id].fate;
                            prop_assert!(
                                expected.is_some(),
                                "frame {} released {:?} before anything decided it",
                                id,
                                verdict
                            );
                            prop_assert_eq!(fate_of(&verdict), expected, "frame {}", id);
                            self.released += 1;
                        }
                    }
                    other => others.push(other),
                }
            }
            let next = self.frames.get(self.released);
            prop_assert!(next.is_none_or(|f| f.fate.is_none()), "a decided verdict was held back");
            Ok(others)
        }

        fn rotate_to(&mut self, first: u64) {
            if self.active != first {
                self.active = first;
                self.active_bytes = 0;
            }
        }

        fn append(&mut self, pick: u32) -> Result<(), TestCaseError> {
            if self.writing.is_some() {
                return Ok(());
            }
            let count = 1 + pick as u64 % 3;
            let mutations: Vec<Mutation> = (0..count)
                .map(|i| match pick >> (2 + i) & 1 {
                    1 => self.insert.clone(),
                    _ => Mutation::DeleteSpec { spec: SpecId((pick >> 8) % ENTRIES as u32) },
                })
                .collect();
            let bytes = 50 + (pick >> 16) as u64 % 300;
            let id = self.frames.len();
            let appended = self.core.append(vec![0; bytes as usize], &mutations, id);
            if self.poisoned {
                prop_assert!(
                    matches!(appended, Err(WalError::Poisoned { .. })),
                    "a poisoned log appended"
                );
                let fate = Some(Fate::Poisoned);
                let frame = Frame { last: 0, count: 0, bytes: 0, segment: 0, written: false, fate };
                self.frames.push(frame);
                let acts = self.actions()?;
                prop_assert!(acts.is_empty(), "a refused append was handed actions");
                return Ok(());
            }
            prop_assert!(appended.is_ok());
            if self.active_bytes > 0 && self.active_bytes + bytes > SEGMENT_BYTES {
                self.rotate_to(self.next_seq);
            }
            self.active_bytes += bytes;
            for mutation in &mutations {
                self.dirty.insert(snapshot::chunk_of(entry_of(mutation, self.entry_count)));
                self.entry_count += matches!(mutation, Mutation::InsertSpec { .. }) as u64;
            }
            let last = self.next_seq + count - 1;
            self.next_seq += count;
            let segment = self.active;
            self.frames.push(Frame { last, count, bytes, segment, written: false, fate: None });
            self.writing = Some(id);
            let acts = self.actions()?;
            match acts.as_slice() {
                [Action::Write { segment, record }] => {
                    prop_assert_eq!(
                        *segment,
                        self.active,
                        "frame {} written to the wrong segment",
                        id
                    );
                    prop_assert_eq!(record.len() as u64, bytes);
                    self.files.entry(segment_name(*segment)).or_default().push(id);
                }
                _ => return Err(TestCaseError::Fail("an append must hand out its Write".into())),
            }
            Ok(())
        }

        fn written(&mut self, pick: u32) -> Result<(), TestCaseError> {
            let Some(id) = self.writing.take() else { return Ok(()) };
            if pick.is_multiple_of(32) {
                let verdict = self.core.written(Err(failure()));
                prop_assert!(matches!(verdict, Err(WalError::Storage(_))));
                self.frames[id].fate = Some(Fate::Poisoned);
                self.poisoned = true;
                prop_assert!(self.actions()?.is_empty());
                return Ok(());
            }
            prop_assert!(self.core.written(Ok(())).is_ok());
            let frame = &mut self.frames[id];
            self.since_snapshot += frame.count;
            if self.poisoned {
                frame.fate = Some(Fate::Poisoned);
                prop_assert!(self.actions()?.is_empty());
                return Ok(());
            }
            frame.written = true;
            let acts = self.actions()?;
            if self.runner {
                prop_assert!(acts.is_empty(), "a second sync runner was started");
            } else {
                prop_assert!(matches!(acts.as_slice(), [Action::Sync]), "no sync runner started");
                self.runner = true;
            }
            Ok(())
        }

        fn sync_start(&mut self) -> Result<(), TestCaseError> {
            if !self.runner || self.syncing.is_some() {
                return Ok(());
            }
            let queued = |f: &Frame| f.written && f.fate.is_none();
            let started = self.core.sync_start();
            let Some(head) = self.frames.iter().position(queued) else {
                prop_assert_eq!(started, None, "a sync with nothing written");
                self.runner = false;
                return Ok(());
            };
            let segment = self.frames[head].segment;
            prop_assert_eq!(
                started,
                Some(segment),
                "the sync must start at the oldest written frame"
            );
            let run: Vec<usize> = (head..self.frames.len())
                .take_while(|&i| queued(&self.frames[i]) && self.frames[i].segment == segment)
                .collect();
            self.syncing = Some((segment, run));
            prop_assert!(self.actions()?.is_empty());
            Ok(())
        }

        fn synced(&mut self, pick: u32) -> Result<(), TestCaseError> {
            let Some((segment, run)) = self.syncing.take() else { return Ok(()) };
            if !pick.is_multiple_of(16) {
                self.core.synced(segment, Ok(()));
                self.syncs += 1;
                for &i in &run {
                    self.frames[i].fate = Some(Fate::Ok);
                }
            } else if run.iter().all(|&i| self.frames[i].last <= self.covered) {
                self.core.synced(segment, Err(failure()));
                for &i in &run {
                    self.frames[i].fate = Some(Fate::Ok);
                }
            } else {
                self.core.synced(segment, Err(failure()));
                self.poisoned = true;
                self.frames[run[0]].fate = Some(Fate::Storage);
                for frame in &mut self.frames {
                    if frame.written && frame.fate.is_none() {
                        frame.fate = Some(Fate::Poisoned);
                    }
                }
            }
            prop_assert!(self.actions()?.is_empty());
            Ok(())
        }

        /// Slots of chunk `c` over the current entry count.
        fn chunk_len(&self, c: usize) -> u32 {
            (self.entry_count as usize - c * CHUNK_SPECS).min(CHUNK_SPECS) as u32
        }

        fn plan(&self) -> Vec<Option<ChunkRef>> {
            let chunks = (self.entry_count as usize).div_ceil(CHUNK_SPECS);
            (0..chunks)
                .map(|c| {
                    let reuse = self.manifest.get(c).copied();
                    reuse.filter(|r| {
                        !self.dirty.contains(&(c as u32)) && r.entries == self.chunk_len(c)
                    })
                })
                .collect()
        }

        /// A new chunk holding `entries` slots from id `first`.
        fn fresh(&mut self, first: u64, entries: u32) -> ChunkRef {
            self.next_hash += 1;
            self.runs.insert(self.next_hash, (first, entries));
            ChunkRef { hash: self.next_hash, entries, bytes: 1 }
        }

        /// Take the core's hand-out of the snapshot just started, which
        /// writes `manifest` on success.
        fn begin(
            &mut self,
            image: u32,
            manifest: Vec<ChunkRef>,
            cadence: bool,
        ) -> Result<(), TestCaseError> {
            let through = self.next_seq - 1;
            self.rotate_to(through + 1);
            self.since_snapshot = 0;
            let chunks = std::mem::take(&mut self.dirty);
            let acts = self.actions()?;
            prop_assert!(
                matches!(acts.as_slice(), [Action::Snapshot { through: t, image: i }] if *t == through && *i == image),
                "the started snapshot must be handed out"
            );
            self.job = Some((through, chunks, manifest, cadence));
            Ok(())
        }

        fn cadence(&mut self, pick: u32) -> Result<(), TestCaseError> {
            if self.writing.is_some() {
                return Ok(());
            }
            let plan = self.core.snapshot_plan(self.entry_count as usize);
            let due = self.since_snapshot >= SNAPSHOT_EVERY;
            if !due || self.job.is_some() || self.poisoned {
                prop_assert_eq!(plan, None, "a snapshot planned when none may start");
                return Ok(());
            }
            prop_assert_eq!(plan.as_ref(), Some(&self.plan()), "chunk plan");
            if pick.is_multiple_of(8) {
                return Ok(()); // the capture gave the cadence up
            }
            let mut manifest = Vec::new();
            for (c, reuse) in plan.unwrap_or_default().into_iter().enumerate() {
                let (first, entries) = ((c * CHUNK_SPECS) as u64, self.chunk_len(c));
                manifest.push(match reuse {
                    Some(r) => {
                        let run = self.runs.get(&r.hash).copied();
                        prop_assert_eq!(
                            run,
                            Some((first, entries)),
                            "chunk {} reuses another run",
                            c
                        );
                        r
                    }
                    None => self.fresh(first, entries),
                });
            }
            prop_assert_eq!(self.core.start_snapshot(pick, None).ok(), Some(true));
            self.begin(pick, manifest, true)
        }

        /// A checkpoint of one run: of the log's entries, or of a corpus
        /// with slots the log has no record of, which re-seeds its count.
        fn checkpoint(&mut self, pick: u32) -> Result<(), TestCaseError> {
            if self.writing.is_some() {
                return Ok(());
            }
            let extra = if pick.is_multiple_of(3) { (pick >> 8) as u64 % 24 } else { 0 };
            let entries = self.entry_count + extra;
            let started = self.core.start_snapshot(pick, Some(entries));
            if self.poisoned {
                prop_assert!(
                    matches!(started, Err(WalError::Poisoned { .. })),
                    "a poisoned log snapshotted"
                );
                return Ok(());
            }
            if self.job.is_some() {
                prop_assert!(matches!(started, Ok(false)), "two snapshots in flight");
                return Ok(());
            }
            prop_assert!(matches!(started, Ok(true)));
            self.entry_count = entries;
            let run = self.fresh(0, entries as u32);
            self.begin(pick, vec![run], false)
        }

        fn snapshot_done(&mut self, pick: u32) -> Result<(), TestCaseError> {
            let Some((through, chunks, manifest, cadence)) = self.job.take() else {
                return Ok(());
            };
            if pick.is_multiple_of(4) {
                self.core.snapshot_done(through, None, 0);
                self.dirty.extend(chunks);
                prop_assert!(self.actions()?.is_empty(), "a failed snapshot must prune nothing");
                return Ok(());
            }
            let wrote = ChunkedWrite { manifest: manifest.clone(), ..ChunkedWrite::default() };
            self.core.snapshot_done(through, Some(wrote), 0);
            self.snapshots.0 += 1;
            self.snapshots.1 += cadence as u64;
            self.succeeded(through, manifest)
        }

        /// A snapshot covering `through` with `manifest` is durable: store
        /// its files, take its prune and check it.
        fn succeeded(
            &mut self,
            through: u64,
            manifest: Vec<ChunkRef>,
        ) -> Result<(), TestCaseError> {
            self.covered = through;
            self.files.insert(snapshot::file_name(through), Vec::new());
            for r in &manifest {
                self.files.insert(snapshot::chunk_file_name(r.hash), Vec::new());
            }
            let hashes: HashSet<u64> = manifest.iter().map(|r| r.hash).collect();
            self.manifest = manifest;
            let acts = self.actions()?;
            let [Action::Prune { through: t, referenced }] = acts.as_slice() else {
                return Err(TestCaseError::Fail("a successful snapshot must prune".into()));
            };
            prop_assert_eq!(*t, through);
            prop_assert_eq!(referenced, &hashes);
            let mut segments = 0;
            for name in self.files.keys().cloned().collect::<Vec<_>>() {
                if !superseded(&name, through, referenced) {
                    continue;
                }
                let held = self.files.remove(&name).unwrap_or_default();
                if let Some(last) = held.iter().map(|&i| self.frames[i].last).max() {
                    prop_assert!(
                        last <= through,
                        "pruned {} holding seq {} past {}",
                        name,
                        last,
                        through
                    );
                }
                segments += parse_segment_name(&name).is_some() as u64;
            }
            prop_assert!(self.files.contains_key(&snapshot::file_name(through)));
            prop_assert!(self.core.snapshot_in_flight(), "a snapshot left flight before its prune");
            self.core.pruned(segments);
            prop_assert!(self.actions()?.is_empty());
            Ok(())
        }

        /// Run everything out: the write, the sync runner, the snapshot.
        fn drain(&mut self) -> Result<(), TestCaseError> {
            self.written(1)?;
            self.snapshot_done(1)?;
            while self.runner {
                self.sync_start()?;
                self.synced(1)?;
            }
            prop_assert_eq!(self.released, self.frames.len(), "every frame gets one verdict");
            prop_assert!(self.core.pipeline_idle());
            prop_assert!(!self.core.snapshot_in_flight());
            let stats = self.core.stats();
            prop_assert_eq!(stats.syncs, self.syncs);
            prop_assert_eq!((stats.snapshots, stats.background_snapshots), self.snapshots);
            prop_assert_eq!(self.core.next_seq(), self.next_seq);
            self.check_empty()
        }

        /// The baseline decision: a corpus needs a baseline only on a store
        /// with no snapshot file and no record.
        fn check_empty(&self) -> Result<(), TestCaseError> {
            let based = self.files.keys().any(|n| snapshot::parse_name(n).is_some());
            let empty = !based && self.next_seq == 1;
            prop_assert_eq!(self.core.is_empty(), empty, "is_empty with based {}", based);
            Ok(())
        }

        /// Close a healthy log and open it again: drain it, then rebuild the
        /// core from the `Recovered` the stored files imply — the newest
        /// snapshot and its manifest, the surviving segments and the entry
        /// count — as `replay` does. A poisoned store's reopen is the crash
        /// matrix's subject (`recovery_equivalence`), not this model's.
        fn reopen(&mut self) -> Result<(), TestCaseError> {
            if self.poisoned {
                return Ok(());
            }
            self.drain()?;
            let newest = self.files.keys().filter_map(|n| snapshot::parse_name(n)).max();
            let snapshot_seq = newest.unwrap_or(0);
            let segments: Vec<(u64, &Vec<usize>)> = self
                .files
                .iter()
                .filter_map(|(name, held)| parse_segment_name(name).map(|first| (first, held)))
                .collect();
            let frames = &self.frames;
            let last_seq = segments
                .iter()
                .flat_map(|(_, held)| held.iter().map(|&i| frames[i].last))
                .fold(snapshot_seq, u64::max);
            prop_assert_eq!(last_seq + 1, self.next_seq, "the stored files lost a record");
            let active = segments
                .iter()
                .max_by_key(|(first, _)| *first)
                .map(|(first, held)| (*first, held.iter().map(|&i| frames[i].bytes).sum()))
                .unwrap_or((last_seq + 1, 0));
            let recovered = Recovered {
                last_seq,
                snapshot_seq,
                active,
                entry_count: self.entry_count,
                dirty: self.dirty.clone(),
                manifest: self.manifest.clone(),
                based: newest.is_some(),
            };
            self.core = LogCore::new(SEGMENT_BYTES, SNAPSHOT_EVERY, recovered);
            (self.active, self.active_bytes) = active;
            self.since_snapshot = last_seq - snapshot_seq;
            (self.syncs, self.snapshots) = (0, (0, 0));
            prop_assert_eq!(
                self.core.next_seq(),
                self.next_seq,
                "a reopen must continue the sequence"
            );
            self.check_empty()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn log_core_matches_its_sequential_model(
            fresh in any::<bool>(),
            schedule in proptest::collection::vec((0u8..17, any::<u32>()), 1..240),
        ) {
            let mut model = Model::new(fresh);
            model.check_empty()?;
            for (step, pick) in schedule {
                match step {
                    0..=3 => model.append(pick)?,
                    4 | 5 | 15 => model.written(pick)?,
                    6 | 7 => model.sync_start()?,
                    8 | 9 => model.synced(pick)?,
                    10 | 11 => model.cadence(pick)?,
                    12 | 13 => model.snapshot_done(pick)?,
                    14 => model.checkpoint(pick)?,
                    _ => model.reopen()?,
                }
            }
            model.drain()?;
        }
    }
}
