//! Offline stand-in for `parking_lot`, backed by `std::sync`.
//!
//! Exposes the `parking_lot` API shape this workspace uses — `Mutex` whose
//! `lock()` returns the guard directly (no poison `Result`) and a `Condvar`
//! that waits on `&mut MutexGuard` — so the sources compile unchanged in
//! the offline build container.  Poisoned locks propagate the panic, which
//! matches parking_lot's behavior of not poisoning at all for our purposes
//! (a poisoned lock here means a test already failed).

use std::ops::{Deref, DerefMut};
use std::sync;

/// Mutual exclusion primitive; `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

/// RAII guard for [`Mutex`].
#[derive(Debug)]
pub struct MutexGuard<'a, T>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Wraps `value` in a mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// The inner value, through `&mut` (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present")
    }
}

/// Reader-writer lock; `read()`/`write()` return the guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

/// Shared-read RAII guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T>(sync::RwLockReadGuard<'a, T>);

/// Exclusive-write RAII guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T>(sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Wraps `value` in a reader-writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }

    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(sync::PoisonError::into_inner))
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(sync::PoisonError::into_inner))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Whether a [`Condvar::wait_for`] returned because the timeout elapsed.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait ended by timing out rather than a notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable compatible with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Condvar {
        Condvar(sync::Condvar::new())
    }

    /// Atomically releases the guard's lock and waits for a notification;
    /// the lock is re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(sync::PoisonError::into_inner));
    }

    /// Like [`Condvar::wait`], but gives up after `timeout`; the lock is
    /// re-acquired before returning either way.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard present");
        let (inner, result) =
            self.0.wait_timeout(inner, timeout).unwrap_or_else(sync::PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guard_derefs() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }
}
