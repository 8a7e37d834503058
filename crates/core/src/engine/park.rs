//! A token-based parker for idle workers.
//!
//! Each worker owns one [`Parker`]; doorbell publishes,
//! cross-worker ring pushes and `stop` all call [`unpark`](Parker::unpark)
//! on the owning worker. The token makes the protocol lost-wakeup-safe:
//! an unpark that races a worker *about to* park leaves the token set, so
//! the park returns immediately. Spurious wakeups are benign — the worker
//! loop re-derives what to do from protocol state every iteration.
//!
//! [`unpark`](Parker::unpark) sits on hot paths (every doorbell publish,
//! every ring push), so it is a single atomic swap unless the target is
//! actually parked — only then does it take the lock to notify.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// No token banked, nobody waiting.
const EMPTY: u32 = 0;
/// A token is banked; the next park consumes it without blocking.
const TOKEN: u32 = 1;
/// The worker is parked (or committing to park) on the condvar.
const PARKED: u32 = 2;

/// A one-token park/unpark primitive (atomic state + condvar; the
/// vendored `parking_lot` shim has no `Parker` of its own).
pub(crate) struct Parker {
    state: AtomicU32,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Parker {
    pub(crate) fn new() -> Self {
        Parker {
            state: AtomicU32::new(EMPTY),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Consumes a banked token without blocking, if one is present.
    fn try_take_token(&self) -> bool {
        self.state
            .compare_exchange(TOKEN, EMPTY, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Blocks until a token is available (possibly already), consuming it.
    #[cfg(test)]
    pub(crate) fn park(&self) {
        loop {
            if self.try_take_token() {
                return;
            }
            if self
                .state
                .compare_exchange(EMPTY, PARKED, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue; // an unpark landed in between; take its token
            }
            let mut g = self.lock.lock();
            while self.state.load(Ordering::Acquire) == PARKED {
                self.cv.wait(&mut g);
            }
            drop(g);
            // Only an unpark moves PARKED → TOKEN, so the token is ours.
            if self.state.swap(EMPTY, Ordering::AcqRel) == TOKEN {
                return;
            }
        }
    }

    /// Blocks until a token is available or `timeout` elapses, consuming
    /// any token present on exit. May return early on a spurious wakeup.
    pub(crate) fn park_timeout(&self, timeout: Duration) {
        if self.try_take_token() {
            return;
        }
        if self
            .state
            .compare_exchange(EMPTY, PARKED, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // An unpark landed between the two exchanges: consume it.
            self.state.swap(EMPTY, Ordering::Acquire);
            return;
        }
        // An unpark that raced ahead of this lock has already swapped the
        // state to TOKEN, and its notify (taken under the same lock)
        // cannot fire before our wait starts — so the re-check under the
        // lock makes the wakeup un-losable.
        let mut g = self.lock.lock();
        if self.state.load(Ordering::Acquire) == PARKED {
            let _ = self.cv.wait_for(&mut g, timeout);
        }
        drop(g);
        self.state.swap(EMPTY, Ordering::AcqRel);
    }

    /// Deposits a token and wakes the parked worker, if any. Tokens do not
    /// accumulate — many unparks before a park still cost one wakeup. One
    /// atomic swap unless the target is actually parked.
    pub(crate) fn unpark(&self) {
        if self.state.swap(TOKEN, Ordering::AcqRel) == PARKED {
            // Taking the lock orders this notify after the parker either
            // started waiting or observed the TOKEN state.
            drop(self.lock.lock());
            self.cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn unpark_before_park_returns_immediately() {
        let p = Parker::new();
        p.unpark();
        let start = Instant::now();
        p.park();
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn park_timeout_expires_without_a_token() {
        let p = Parker::new();
        let start = Instant::now();
        p.park_timeout(Duration::from_millis(10));
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn unpark_wakes_a_parked_thread() {
        let p = Arc::new(Parker::new());
        let waiter = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.park())
        };
        // Give the waiter a moment to actually park, then wake it; the
        // token protocol makes the race benign either way.
        std::thread::sleep(Duration::from_millis(5));
        p.unpark();
        waiter.join().unwrap();
    }

    #[test]
    fn tokens_do_not_accumulate() {
        let p = Parker::new();
        p.unpark();
        p.unpark();
        p.park(); // consumes the single token
        let start = Instant::now();
        p.park_timeout(Duration::from_millis(10));
        assert!(
            start.elapsed() >= Duration::from_millis(5),
            "second park must block: only one token may be banked"
        );
    }

    #[test]
    fn unpark_storm_against_a_parking_thread_never_hangs() {
        // Hammers the racy window (try_take_token / commit-to-park /
        // wait) from another thread; every park_timeout must return
        // promptly because a token is always in flight.
        let p = Arc::new(Parker::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let storm = {
            let p = Arc::clone(&p);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    p.unpark();
                }
            })
        };
        let start = Instant::now();
        for _ in 0..10_000 {
            p.park_timeout(Duration::from_secs(5));
        }
        stop.store(true, Ordering::Relaxed);
        storm.join().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "parks stalled under an unpark storm"
        );
    }
}
