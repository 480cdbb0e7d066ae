//! Fault-detection support: the pool freeze protocol and vulnerability
//! accounting.
//!
//! **Freeze** (paper §3.6): before online recovery may touch parity, all
//! outstanding commits must drain and new ones must be blocked, because
//! parity is transiently inconsistent while a commit is mid-write-back.
//! Every transaction checks the freeze flag — the synchronization overhead
//! the paper measures on 64 B transactions (§4.4).
//!
//! **Vulnerability accounting** (paper Table 4): Pangolin counts object
//! bytes handed out *without* checksum verification (the pool table's
//! byte buckets, [`crate::counters`]), quantifying the exposure window of
//! each verification policy; [`Vuln`] keeps the between-scrub window.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::counters::PglCounters;

/// Commit/recovery mutual exclusion: many committers XOR one freezer.
#[derive(Debug, Default)]
pub struct Freeze {
    frozen: AtomicBool,
    committers: AtomicU64,
}

impl Freeze {
    /// Creates an unfrozen gate.
    pub fn new() -> Self {
        Freeze::default()
    }

    /// Returns `true` while recovery holds the pool frozen.
    #[inline]
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// Enters the commit critical section, waiting out any active freeze.
    /// This is the per-transaction freeze-flag check (paper §4.4).
    pub fn begin_commit(&self) {
        loop {
            while self.frozen.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            self.committers.fetch_add(1, Ordering::AcqRel);
            if !self.frozen.load(Ordering::Acquire) {
                return;
            }
            // A freeze raced in between the check and the increment: back
            // out and wait again.
            self.committers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Leaves the commit critical section.
    pub fn end_commit(&self) {
        self.committers.fetch_sub(1, Ordering::AcqRel);
    }

    /// Freezes the pool for recovery: blocks new commits and waits for
    /// outstanding ones to drain. Concurrent freeze requests serialize.
    pub fn freeze(&self) {
        while self.frozen.swap(true, Ordering::AcqRel) {
            // Another recovery is in progress; wait for it to finish and
            // then take our turn.
            while self.frozen.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
        while self.committers.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
    }

    /// Unfreezes the pool.
    pub fn unfreeze(&self) {
        self.frozen.store(false, Ordering::Release);
    }
}

/// The Table 4 view of the pool's byte buckets ([`crate::PglPool::vuln`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VulnSnapshot {
    /// Object bytes handed out without checksum verification.
    pub unverified: u64,
    /// Object bytes handed out by a load that checked them.
    pub verified: u64,
    /// Object bytes handed out on the word of the verification cache
    /// (see [`crate::vcache`]), kept apart from both other buckets so the
    /// Table 4 exposure stays derivable under the cache.
    pub verified_cached: u64,
    /// Unverified bytes handed out since the last scrub.
    pub window_unverified: u64,
    /// Largest between-scrub unverified window observed (the Table 4
    /// number for scrub policies).
    pub max_window: u64,
}

/// The scrub window over the pool table's `unverified` row: the window is
/// `unverified` minus its value at the last scrub, so an unverified read
/// costs the row's one bump, and the maximum is folded when a window
/// closes or a snapshot looks at the open one.
#[derive(Debug, Default)]
pub struct Vuln {
    /// `unverified` as of the last [`Vuln::end_scrub_window`].
    window_base: AtomicU64,
    /// Largest *closed* window.
    max_window: AtomicU64,
}

impl Vuln {
    /// Creates a window opened at zero.
    pub fn new() -> Self {
        Vuln::default()
    }

    /// Closes a scrub window at `unverified` bytes: everything in the
    /// pool was just verified.
    pub fn end_scrub_window(&self, unverified: u64) {
        let base = self.window_base.swap(unverified, Ordering::Relaxed);
        self.max_window.fetch_max(unverified.saturating_sub(base), Ordering::Relaxed);
    }

    /// The buckets of `c` with the window they leave open.
    pub fn snapshot(&self, c: &PglCounters) -> VulnSnapshot {
        let window = c.unverified.saturating_sub(self.window_base.load(Ordering::Relaxed));
        VulnSnapshot {
            unverified: c.unverified,
            verified: c.verified,
            verified_cached: c.verified_cached,
            window_unverified: window,
            max_window: self.max_window.load(Ordering::Relaxed).max(window),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn freeze_waits_for_committers() {
        let f = Arc::new(Freeze::new());
        f.begin_commit();
        let f2 = f.clone();
        let done = Arc::new(AtomicBool::new(false));
        let done2 = done.clone();
        let h = std::thread::spawn(move || {
            f2.freeze();
            done2.store(true, Ordering::SeqCst);
            f2.unfreeze();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!done.load(Ordering::SeqCst), "freeze must wait for the committer");
        f.end_commit();
        h.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn commits_wait_while_frozen() {
        let f = Arc::new(Freeze::new());
        f.freeze();
        let f2 = f.clone();
        let h = std::thread::spawn(move || {
            f2.begin_commit(); // blocks until unfreeze
            f2.end_commit();
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        f.unfreeze();
        assert!(h.join().unwrap());
    }

    #[test]
    fn vuln_window_tracks_maximum() {
        let v = Vuln::new();
        let mut c = PglCounters {
            unverified: 100,
            verified: 40,
            verified_cached: 8,
            ..PglCounters::default()
        };
        v.end_scrub_window(c.unverified);
        c.unverified += 30;
        let s = v.snapshot(&c);
        assert_eq!(s.unverified, 130);
        assert_eq!(s.verified, 40);
        assert_eq!(s.verified_cached, 8, "cached bucket stays distinct");
        assert_eq!(s.window_unverified, 30);
        assert_eq!(s.max_window, 100);
    }
}
