//! A minimal, API-compatible stand-in for the `parking_lot` crate.
//!
//! The build environment cannot reach a crate registry, so the workspace
//! vendors the small slice of `parking_lot` it uses: `Mutex`, `RwLock` and
//! `Condvar` with non-poisoning guards. Everything is implemented over
//! `std::sync`; a poisoned std lock is treated as still-usable (the data is
//! handed back), matching parking_lot's no-poisoning semantics.
//!
//! A notify with no waiter is free, as in the crate this stands in for:
//! [`Condvar`] counts the threads inside its waits and `notify_one` /
//! `notify_all` return after one atomic load when there are none (a bare
//! `std::sync::Condvar` makes a `futex_wake` system call either way).

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutual-exclusion lock whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard of a [`Mutex`].
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait_for` can temporarily take the std guard by
    // value; it is `None` only during that call.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Consume the mutex and return the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)) }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard taken during condvar wait")
    }
}

/// A reader-writer lock whose `read`/`write` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared-access guard of an [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);
/// Exclusive-access guard of an [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Create a reader-writer lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Consume the lock and return the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Acquire exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Outcome of a [`Condvar::wait_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable operating on [`MutexGuard`]s.
///
/// `waiters` is incremented by a waiter while it still holds its mutex and
/// decremented once it holds it again. A notifier that changed the waited-for
/// state under that mutex therefore either ran before the waiter's check
/// (the waiter sees the new state and never waits) or acquired the mutex
/// after the waiter released it inside the wait — and then reads a count
/// that already includes it. So skipping the wake-up at zero cannot lose
/// one, whether the notify is issued under the lock or after unlocking.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    waiters: AtomicUsize,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Self { inner: std::sync::Condvar::new(), waiters: AtomicUsize::new(0) }
    }

    /// Wake one waiter; free when nobody waits.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        self.inner.notify_one();
    }

    /// Wake all waiters; free when nobody waits.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        self.inner.notify_all();
    }

    /// Block on the condition variable until notified or `timeout` elapses,
    /// releasing `guard` while waiting and re-acquiring it before returning.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard already taken");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, result) =
            self.inner.wait_timeout(inner, timeout).unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Block on the condition variable until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard already taken");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = self.inner.wait(inner).unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
        assert!(!*g);
    }

    #[test]
    fn condvar_wakes_on_notify() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = Arc::clone(&shared);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*s2;
            let mut done = m.lock();
            while !*done {
                cv.wait_for(&mut done, Duration::from_millis(50));
            }
        });
        {
            let (m, cv) = &*shared;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    /// A wait that a lost wake-up would hang fails after this long instead.
    const WATCHDOG: Duration = Duration::from_secs(60);

    fn spin_until_waiting(cv: &Condvar, n: usize) {
        while cv.waiters.load(Ordering::SeqCst) != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_notify_before_the_wait_is_not_remembered() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn hand_offs_notified_after_unlocking_are_never_lost() {
        // Two threads pass a turn flag back and forth 10^5 times, each
        // notify issued after the mutex is released — the window in which
        // an uncounted waiter would be missed.
        const ROUNDS: u32 = 100_000;
        let shared = Arc::new((Mutex::new(0u32), Condvar::new()));
        let player = |me: u32| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (turn, cv) = &*shared;
                for round in 0..ROUNDS {
                    let mut t = turn.lock();
                    while *t % 2 != me {
                        let r = cv.wait_for(&mut t, WATCHDOG);
                        assert!(!r.timed_out(), "lost wake-up in round {round}");
                    }
                    *t += 1;
                    drop(t);
                    cv.notify_one();
                }
            })
        };
        let (a, b) = (player(0), player(1));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(*shared.0.lock(), 2 * ROUNDS);
        assert_eq!(shared.1.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn notify_all_releases_every_counted_waiter_and_the_count_returns_to_zero() {
        const N: usize = 4;
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let waiters: Vec<_> = (0..N)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let (m, cv) = &*shared;
                    let mut go = m.lock();
                    while !*go {
                        assert!(!cv.wait_for(&mut go, WATCHDOG).timed_out(), "lost wake-up");
                    }
                })
            })
            .collect();
        let (m, cv) = &*shared;
        spin_until_waiting(cv, N);
        *m.lock() = true;
        cv.notify_all();
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
        // A wait that ends by time-out is uncounted again too, and the
        // untimed wait is counted like the timed one.
        assert!(cv.wait_for(&mut m.lock(), Duration::from_millis(1)).timed_out());
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
        *m.lock() = false;
        let s2 = Arc::clone(&shared);
        let t = std::thread::spawn(move || {
            let mut go = s2.0.lock();
            while !*go {
                s2.1.wait(&mut go);
            }
        });
        spin_until_waiting(cv, 1);
        *m.lock() = true;
        cv.notify_one();
        t.join().unwrap();
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }
}
