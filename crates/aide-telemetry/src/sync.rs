//! The workspace's one lock type: `std::sync`'s, without poisoning.
//!
//! A panic while a lock is held leaves the data reachable: the next
//! [`Mutex::lock`] returns the guard as if nothing had happened. The serving
//! path relies on it — a dispatcher that panics is caught by the responder
//! while it may hold a VM lock, and the session's next request must still
//! take that lock. The guards are std's, so a [`Condvar`] waits on them; its
//! waits recover from poisoning the same way. This is the only file that
//! names `PoisonError`.

use std::sync::{PoisonError, RwLockReadGuard, RwLockWriteGuard, TryLockError, WaitTimeoutResult};
use std::time::Duration;

pub use std::sync::MutexGuard;

/// `std::sync::Mutex` that cannot be poisoned.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// The value, whether or not a holder panicked.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is free, then takes it.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the lock if it is free now.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// `std::sync::RwLock` that cannot be poisoned.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new unlocked lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Shared access.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `std::sync::Condvar` whose waits hand back the guard even if another
/// holder panicked.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A condition variable nobody waits on yet.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Releases `guard` until notified (or woken spuriously), then retakes it.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// [`wait`](Condvar::wait), for at most `timeout`.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        self.0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits while `condition` holds, for at most `timeout` in all.
    pub fn wait_timeout_while<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
        condition: impl FnMut(&mut T) -> bool,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        self.0
            .wait_timeout_while(guard, timeout, condition)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panic_under_the_lock_does_not_poison() {
        let m = Arc::new(Mutex::new(1));
        let held = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = held.lock();
            panic!("poison attempt");
        })
        .join();
        assert!(m.0.is_poisoned(), "the std mutex underneath is poisoned");
        assert_eq!(*m.lock(), 1);
        assert!(m.try_lock().is_some());

        let l = Arc::new(RwLock::new(vec![1]));
        let held = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = held.write();
            panic!("poison attempt");
        })
        .join();
        assert!(l.0.is_poisoned());
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
    }

    #[test]
    fn a_wait_on_a_poisoned_lock_returns_the_guard() {
        let m = Arc::new(Mutex::new(0));
        let held = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = held.lock();
            panic!("poison attempt");
        })
        .join();
        let (g, wait) = Condvar::new().wait_timeout(m.lock(), Duration::from_millis(1));
        assert_eq!((*g, wait.timed_out()), (0, true));
    }
}
