//! Offline shim for `parking_lot`: `Mutex` and `RwLock` with
//! parking_lot's guard-returning API, implemented over `std::sync`. Unlike
//! parking_lot, the locks do poison: a panic while a `Mutex` guard or an
//! `RwLock` write guard is held poisons the lock, and every later
//! acquisition of it panics.

/// Guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;
/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// A reader-writer lock; a panic under its write guard poisons it (see
/// the crate docs).
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquire shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().expect("rwlock poisoned")
    }

    /// Acquire shared access without blocking; `None` if a writer holds
    /// or is waiting for the lock (matching parking_lot's `try_read`).
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::WouldBlock) => None,
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("rwlock poisoned"),
        }
    }

    /// Acquire exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().expect("rwlock poisoned")
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().expect("rwlock poisoned")
    }

    /// Exclusive access through `&mut self` without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().expect("rwlock poisoned")
    }
}

/// A mutual-exclusion lock; a panic under its guard poisons it (see the
/// crate docs).
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().expect("mutex poisoned")
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().expect("mutex poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(1);
        assert_eq!(*l.read(), 1);
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn try_read_shares_but_never_blocks() {
        let l = RwLock::new(3);
        let r = l.read();
        assert_eq!(l.try_read().map(|g| *g), Some(3), "readers share");
        drop(r);
        let w = l.write();
        assert!(l.try_read().is_none(), "writer excludes try_read");
        drop(w);
        assert!(l.try_read().is_some());
    }

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(Vec::new());
        m.lock().push(3);
        assert_eq!(m.into_inner(), vec![3]);
    }
}
