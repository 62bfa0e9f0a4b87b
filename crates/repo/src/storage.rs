//! Injectable storage backends for the durability subsystem.
//!
//! The write-ahead log ([`crate::wal`]) and snapshots ([`crate::snapshot`])
//! never touch the filesystem directly: they speak [`StorageBackend`], a
//! flat namespace of named byte files with exactly the operations a
//! recoverable log needs — append, fsync, atomic replace (temp file +
//! rename), remove, list. Two implementations ship:
//!
//! * [`FsStorage`] — real `std::fs` files rooted at a directory; atomic
//!   replace is a temp-file write followed by `rename(2)`, and the file
//!   being appended to keeps its handle open between calls.
//! * [`MemStorage`] — an in-memory map with **fault injection**: a byte
//!   budget after which every write "loses power" mid-record (tearing the
//!   tail exactly like a real crash), counters that fail the next N
//!   `fsync`s or atomic renames, and corruption helpers that flip a byte
//!   or tear a stored file's tail. The crash-matrix recovery tests drive
//!   the whole durability stack through this backend at every byte
//!   boundary.
//!
//! # Fault-injection API
//!
//! A [`FaultPlan`] arms the faults; [`MemStorage::reopen`] models the
//! machine coming back up (the surviving bytes, a clean plan):
//!
//! ```
//! use ppwf_repo::storage::{FaultPlan, MemStorage, StorageBackend};
//!
//! let storage = MemStorage::with_faults(FaultPlan {
//!     crash_after_bytes: Some(10), // power fails 10 appended bytes in
//!     ..FaultPlan::default()
//! });
//! storage.append("wal", b"eightbyt").unwrap();      // 8 bytes fit
//! assert!(storage.append("wal", b"record").is_err()); // torn after 2
//! assert!(storage.crashed());
//! let after_reboot = storage.reopen();
//! assert_eq!(after_reboot.read("wal").unwrap().unwrap().len(), 10);
//! ```
//!
//! Crash semantics: the append that exhausts the budget persists its
//! prefix (the torn tail recovery must truncate), marks the backend
//! crashed, and fails. Every later operation fails too — a crashed
//! machine serves nothing — until `reopen`. A failed `fsync` or rename is
//! transient (the caller sees the error and must not acknowledge the
//! write); a failed atomic replace leaves the *old* file intact, which is
//! the atomicity snapshots rely on.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A storage-layer failure: the operation, the file it targeted, and
/// what went wrong. `crash` distinguishes an injected power-loss (state
/// may be torn; nothing later succeeds) from an ordinary I/O error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageError {
    /// The failed operation (`"append"`, `"sync"`, ...).
    pub op: &'static str,
    /// The file the operation targeted.
    pub name: String,
    /// Human-readable failure detail.
    pub detail: String,
    /// Whether this failure models a crash (power loss) rather than a
    /// recoverable I/O error.
    pub crash: bool,
}

impl StorageError {
    pub(crate) fn io(op: &'static str, name: &str, detail: impl fmt::Display) -> Self {
        StorageError { op, name: name.to_string(), detail: detail.to_string(), crash: false }
    }

    pub(crate) fn crash(op: &'static str, name: &str, detail: impl fmt::Display) -> Self {
        StorageError { op, name: name.to_string(), detail: detail.to_string(), crash: true }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "storage {} of `{}` failed: {}", self.op, self.name, self.detail)
    }
}

impl std::error::Error for StorageError {}

/// Result alias for storage operations.
pub type StorageResult<T> = std::result::Result<T, StorageError>;

/// The flat-file storage abstraction the durability subsystem runs on.
///
/// Names are flat (no directories); contents are opaque bytes. The
/// contract the log and snapshot layers rely on:
///
/// * [`append`](Self::append) may tear on power loss — a *prefix* of the
///   appended bytes can survive — and is durable only after a successful
///   [`sync`](Self::sync);
/// * [`write_atomic`](Self::write_atomic) is all-or-nothing: after a
///   crash or a failed call, readers see either the old content or the
///   full new content, never a mix;
/// * [`list`](Self::list) returns every stored name in unspecified order.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// All stored file names.
    fn list(&self) -> StorageResult<Vec<String>>;

    /// Full content of `name`, or `None` if absent.
    fn read(&self, name: &str) -> StorageResult<Option<Vec<u8>>>;

    /// Append `bytes` to `name`, creating it if absent. Not durable until
    /// [`sync`](Self::sync) succeeds; a crash may persist any prefix.
    fn append(&self, name: &str, bytes: &[u8]) -> StorageResult<()>;

    /// Flush `name` to stable storage.
    fn sync(&self, name: &str) -> StorageResult<()>;

    /// Replace `name` with `bytes` atomically (temp file + rename).
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> StorageResult<()>;

    /// Remove `name`; removing an absent file is not an error.
    fn remove(&self, name: &str) -> StorageResult<()>;
}

// ---------------------------------------------------------------------------
// Real files.
// ---------------------------------------------------------------------------

/// [`StorageBackend`] over real files in one directory.
#[derive(Debug)]
pub struct FsStorage {
    root: PathBuf,
    /// The open handle of the file appended to last — the log's active
    /// segment — so a WAL frame costs one `write` and one `fsync`, not an
    /// open and a close around each. One handle, not one per name: a
    /// rotation replaces it, and `remove` / `write_atomic` of its name
    /// drop it, so it never outlives the path it was opened at. It is
    /// cloned out of the lock before any I/O, so the sync job's fsync never
    /// holds up the next append.
    active: Mutex<Option<(String, Arc<fs::File>)>>,
}

/// Prefix of in-flight atomic-replace temp files; crash leftovers with
/// this prefix are ignored by [`FsStorage::list`] and cleaned lazily.
const TMP_PREFIX: &str = ".tmp-";

impl FsStorage {
    /// Open (creating if needed) the directory `root` as a storage root.
    pub fn open(root: impl Into<PathBuf>) -> StorageResult<FsStorage> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| StorageError::io("create_dir", &root.display().to_string(), e))?;
        Ok(FsStorage { root, active: Mutex::new(None) })
    }

    /// The storage root directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn active(&self) -> std::sync::MutexGuard<'_, Option<(String, Arc<fs::File>)>> {
        self.active.lock().expect("no I/O or panic happens under the handle lock")
    }

    /// The cached append handle, if it is `name`'s.
    fn cached(&self, name: &str) -> Option<Arc<fs::File>> {
        self.active().as_ref().filter(|(cached, _)| cached == name).map(|(_, f)| Arc::clone(f))
    }

    /// Drop the cached handle if it is `name`'s: the path is about to stop
    /// naming the file the handle writes to.
    fn forget(&self, name: &str) {
        let mut active = self.active();
        if active.as_ref().is_some_and(|(cached, _)| cached == name) {
            *active = None;
        }
    }
}

impl StorageBackend for FsStorage {
    fn list(&self) -> StorageResult<Vec<String>> {
        let entries =
            fs::read_dir(&self.root).map_err(|e| StorageError::io("list", "<root>", e))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::io("list", "<root>", e))?;
            if let Some(name) = entry.file_name().to_str() {
                if !name.starts_with(TMP_PREFIX) {
                    names.push(name.to_string());
                }
            }
        }
        Ok(names)
    }

    fn read(&self, name: &str) -> StorageResult<Option<Vec<u8>>> {
        match fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StorageError::io("read", name, e)),
        }
    }

    fn append(&self, name: &str, bytes: &[u8]) -> StorageResult<()> {
        let file = match self.cached(name) {
            Some(file) => file,
            None => {
                let file = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.path(name))
                    .map_err(|e| StorageError::io("append", name, e))?;
                let file = Arc::new(file);
                *self.active() = Some((name.to_string(), Arc::clone(&file)));
                file
            }
        };
        (&*file).write_all(bytes).map_err(|e| StorageError::io("append", name, e))
    }

    fn sync(&self, name: &str) -> StorageResult<()> {
        // Any handle of the file flushes it; a segment rotated away from
        // (or never appended through this instance) is opened for the call.
        let synced = match self.cached(name) {
            Some(file) => file.sync_all(),
            None => fs::File::open(self.path(name)).and_then(|file| file.sync_all()),
        };
        synced.map_err(|e| StorageError::io("sync", name, e))
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> StorageResult<()> {
        self.forget(name);
        let tmp = self.path(&format!("{TMP_PREFIX}{name}"));
        let write = || -> std::io::Result<()> {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
            Ok(())
        };
        write().map_err(|e| StorageError::io("write_atomic", name, e))?;
        fs::rename(&tmp, self.path(name)).map_err(|e| StorageError::io("rename", name, e))?;
        // Durability of the rename itself: a replace whose directory entry
        // is not synced is not durable, so its failure is the caller's.
        let dir = fs::File::open(&self.root).and_then(|dir| dir.sync_all());
        dir.map_err(|e| StorageError::io("sync_dir", name, e))
    }

    fn remove(&self, name: &str) -> StorageResult<()> {
        self.forget(name);
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StorageError::io("remove", name, e)),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-injecting memory backend.
// ---------------------------------------------------------------------------

/// Which faults a [`MemStorage`] injects. The default plan injects none.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// Total append budget in bytes: the append (or atomic write) that
    /// would exceed it persists only the prefix that fits, marks the
    /// backend crashed, and fails — a power loss at byte N.
    pub crash_after_bytes: Option<u64>,
    /// Fail the next N [`StorageBackend::sync`] calls (transient: the
    /// bytes stay written but the caller must not acknowledge them).
    pub fail_syncs: u32,
    /// Fail the next N atomic replaces at the rename step, leaving the
    /// old content intact (the atomicity contract under fault).
    pub fail_renames: u32,
}

#[derive(Debug, Default)]
struct MemInner {
    files: BTreeMap<String, Vec<u8>>,
    plan: FaultPlan,
    appended: u64,
    crashed: bool,
}

/// In-memory [`StorageBackend`] with fault injection — see the
/// [module docs](self) for the API walkthrough.
#[derive(Debug, Default)]
pub struct MemStorage {
    inner: Mutex<MemInner>,
}

impl MemStorage {
    /// A fault-free in-memory backend.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// A backend armed with `plan`.
    pub fn with_faults(plan: FaultPlan) -> MemStorage {
        MemStorage { inner: Mutex::new(MemInner { plan, ..MemInner::default() }) }
    }

    /// Whether an injected crash has fired (every later op fails).
    pub fn crashed(&self) -> bool {
        self.inner.lock().expect("storage").crashed
    }

    /// Total bytes appended so far (the crash budget's clock).
    pub fn bytes_appended(&self) -> u64 {
        self.inner.lock().expect("storage").appended
    }

    /// The machine reboots: surviving bytes, clean fault plan.
    pub fn reopen(&self) -> MemStorage {
        let inner = self.inner.lock().expect("storage");
        MemStorage {
            inner: Mutex::new(MemInner { files: inner.files.clone(), ..MemInner::default() }),
        }
    }

    /// Re-arm the fault plan (does not clear a fired crash).
    pub fn set_plan(&self, plan: FaultPlan) {
        self.inner.lock().expect("storage").plan = plan;
    }

    /// Corruption helper: XOR-flip the byte of `name` at `offset`.
    /// Panics if the file or offset does not exist — corrupting nothing
    /// would silently weaken a test.
    pub fn flip_byte(&self, name: &str, offset: usize) {
        let mut inner = self.inner.lock().expect("storage");
        let file = inner.files.get_mut(name).expect("flip_byte: no such file");
        file[offset] ^= 0xff;
    }

    /// Corruption helper: tear `drop_bytes` off the tail of `name`
    /// (models a torn final write discovered after reboot).
    pub fn tear(&self, name: &str, drop_bytes: usize) {
        let mut inner = self.inner.lock().expect("storage");
        let file = inner.files.get_mut(name).expect("tear: no such file");
        let keep = file.len().saturating_sub(drop_bytes);
        file.truncate(keep);
    }

    /// Current length of `name`, if stored (test instrumentation for
    /// computing record byte boundaries).
    pub fn len_of(&self, name: &str) -> Option<usize> {
        self.inner.lock().expect("storage").files.get(name).map(|f| f.len())
    }
}

impl MemInner {
    fn check_alive(&self, op: &'static str, name: &str) -> StorageResult<()> {
        if self.crashed {
            Err(StorageError::crash(op, name, "backend crashed (power loss injected)"))
        } else {
            Ok(())
        }
    }
}

impl StorageBackend for MemStorage {
    fn list(&self) -> StorageResult<Vec<String>> {
        let inner = self.inner.lock().expect("storage");
        inner.check_alive("list", "<root>")?;
        Ok(inner.files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> StorageResult<Option<Vec<u8>>> {
        let inner = self.inner.lock().expect("storage");
        inner.check_alive("read", name)?;
        Ok(inner.files.get(name).cloned())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> StorageResult<()> {
        let mut inner = self.inner.lock().expect("storage");
        inner.check_alive("append", name)?;
        if let Some(budget) = inner.plan.crash_after_bytes {
            if inner.appended + bytes.len() as u64 > budget {
                // Power loss mid-append: the prefix that fits persists —
                // the torn tail recovery must truncate.
                let survives = (budget - inner.appended) as usize;
                inner.appended = budget;
                inner.crashed = true;
                inner
                    .files
                    .entry(name.to_string())
                    .or_default()
                    .extend_from_slice(&bytes[..survives]);
                return Err(StorageError::crash(
                    "append",
                    name,
                    format!("power loss after {survives} of {} bytes", bytes.len()),
                ));
            }
        }
        inner.appended += bytes.len() as u64;
        inner.files.entry(name.to_string()).or_default().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self, name: &str) -> StorageResult<()> {
        let mut inner = self.inner.lock().expect("storage");
        inner.check_alive("sync", name)?;
        if inner.plan.fail_syncs > 0 {
            inner.plan.fail_syncs -= 1;
            return Err(StorageError::io("sync", name, "injected fsync failure"));
        }
        Ok(())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> StorageResult<()> {
        let mut inner = self.inner.lock().expect("storage");
        inner.check_alive("write_atomic", name)?;
        if let Some(budget) = inner.plan.crash_after_bytes {
            if inner.appended + bytes.len() as u64 > budget {
                // Power loss during the temp-file write: the rename never
                // happened, so the old content survives untouched.
                inner.appended = budget;
                inner.crashed = true;
                return Err(StorageError::crash(
                    "write_atomic",
                    name,
                    "power loss before rename; old content intact",
                ));
            }
        }
        if inner.plan.fail_renames > 0 {
            inner.plan.fail_renames -= 1;
            return Err(StorageError::io("write_atomic", name, "injected rename failure"));
        }
        inner.appended += bytes.len() as u64;
        inner.files.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn remove(&self, name: &str) -> StorageResult<()> {
        let mut inner = self.inner.lock().expect("storage");
        inner.check_alive("remove", name)?;
        inner.files.remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_append_read_round_trip() {
        let s = MemStorage::new();
        s.append("a", b"hello ").unwrap();
        s.append("a", b"world").unwrap();
        assert_eq!(s.read("a").unwrap().unwrap(), b"hello world");
        assert_eq!(s.read("missing").unwrap(), None);
        assert_eq!(s.list().unwrap(), vec!["a".to_string()]);
        s.remove("a").unwrap();
        assert_eq!(s.read("a").unwrap(), None);
        s.remove("a").unwrap(); // absent remove is fine
    }

    #[test]
    fn crash_budget_tears_the_tail_and_poisons_the_backend() {
        let s = MemStorage::with_faults(FaultPlan {
            crash_after_bytes: Some(8),
            ..FaultPlan::default()
        });
        s.append("wal", b"abcde").unwrap();
        let err = s.append("wal", b"fghij").unwrap_err();
        assert!(err.crash);
        assert!(s.crashed());
        // The prefix that fit persisted (torn tail).
        assert!(s.read("wal").is_err(), "crashed backend must refuse reads");
        let rebooted = s.reopen();
        assert_eq!(rebooted.read("wal").unwrap().unwrap(), b"abcdefgh");
        assert!(!rebooted.crashed());
    }

    #[test]
    fn atomic_write_survives_crash_and_rename_failure() {
        let s = MemStorage::new();
        s.write_atomic("snap", b"old").unwrap();
        s.set_plan(FaultPlan { fail_renames: 1, ..FaultPlan::default() });
        let err = s.write_atomic("snap", b"new").unwrap_err();
        assert!(!err.crash, "rename failure is transient");
        assert_eq!(s.read("snap").unwrap().unwrap(), b"old", "old content intact");
        // Now with a crash budget that cannot fit the replacement.
        s.set_plan(FaultPlan {
            crash_after_bytes: Some(s.bytes_appended() + 1),
            ..FaultPlan::default()
        });
        assert!(s.write_atomic("snap", b"newer").unwrap_err().crash);
        assert_eq!(s.reopen().read("snap").unwrap().unwrap(), b"old");
    }

    #[test]
    fn sync_failures_are_transient_and_counted_down() {
        let s = MemStorage::with_faults(FaultPlan { fail_syncs: 2, ..FaultPlan::default() });
        s.append("wal", b"x").unwrap();
        assert!(s.sync("wal").is_err());
        assert!(s.sync("wal").is_err());
        s.sync("wal").unwrap();
        assert!(!s.crashed());
    }

    #[test]
    fn corruption_helpers_flip_and_tear() {
        let s = MemStorage::new();
        s.append("wal", b"abcd").unwrap();
        s.flip_byte("wal", 1);
        assert_eq!(s.read("wal").unwrap().unwrap(), [b'a', b'b' ^ 0xff, b'c', b'd']);
        s.tear("wal", 2);
        assert_eq!(s.len_of("wal"), Some(2));
    }

    #[test]
    fn fs_storage_round_trip_and_atomic_replace() {
        let root = std::env::temp_dir().join(format!("ppwf-storage-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let s = FsStorage::open(&root).unwrap();
        s.append("wal-0", b"one").unwrap();
        s.append("wal-0", b"two").unwrap();
        s.sync("wal-0").unwrap();
        assert_eq!(s.read("wal-0").unwrap().unwrap(), b"onetwo");
        s.write_atomic("snap", b"v1").unwrap();
        s.write_atomic("snap", b"v2").unwrap();
        assert_eq!(s.read("snap").unwrap().unwrap(), b"v2");
        let mut names = s.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["snap".to_string(), "wal-0".to_string()]);
        s.remove("wal-0").unwrap();
        assert_eq!(s.read("wal-0").unwrap(), None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fs_append_handle_never_outlives_the_path_it_was_opened_at() {
        let root = std::env::temp_dir().join(format!("ppwf-storage-handle-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let s = FsStorage::open(&root).unwrap();
        // Removal: the next append must create a new file, not write on
        // into the unlinked one.
        s.append("wal-0", b"old").unwrap();
        s.remove("wal-0").unwrap();
        s.append("wal-0", b"new").unwrap();
        s.sync("wal-0").unwrap();
        assert_eq!(s.read("wal-0").unwrap().unwrap(), b"new");
        // Atomic replace (recovery truncating a torn tail): appends go to
        // the replacement.
        s.write_atomic("wal-0", b"kept").unwrap();
        s.append("wal-0", b"+tail").unwrap();
        assert_eq!(s.read("wal-0").unwrap().unwrap(), b"kept+tail");
        // Rotation and back: each name keeps its own bytes, and a segment
        // that is no longer the active one still syncs.
        s.append("wal-1", b"next").unwrap();
        s.sync("wal-0").unwrap();
        s.append("wal-0", b"!").unwrap();
        assert_eq!(s.read("wal-0").unwrap().unwrap(), b"kept+tail!");
        assert_eq!(s.read("wal-1").unwrap().unwrap(), b"next");
        assert!(s.sync("never-written").is_err());
        let _ = fs::remove_dir_all(&root);
    }
}
