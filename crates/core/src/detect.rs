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
//! bytes accessed *without* checksum verification, quantifying the exposure
//! window of each verification policy.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

/// Point-in-time vulnerability counters (bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VulnSnapshot {
    /// Object bytes read without checksum verification.
    pub unverified: u64,
    /// Object bytes covered by a verification.
    pub verified: u64,
    /// Object bytes served from the DRAM verified-generation cache: no
    /// checksum pass ran at access time, but the object was verified
    /// since its last library mutation (see [`crate::vcache`]). Kept
    /// distinct from both buckets so the Table 4 exposure numbers remain
    /// derivable under the cache.
    pub verified_cached: u64,
    /// Unverified bytes accumulated since the last scrub.
    pub window_unverified: u64,
    /// Largest between-scrub unverified window observed (the Table 4
    /// number for scrub policies).
    pub max_window: u64,
}

/// Vulnerability accounting, updated with relaxed atomics on hot paths.
///
/// An unverified read costs one shared read-modify-write: the scrub
/// window is not counted, it is `unverified` minus its value at the last
/// scrub, and the maximum is folded when a window closes or a snapshot
/// looks at the open one.
#[derive(Debug, Default)]
pub struct Vuln {
    unverified: AtomicU64,
    verified: AtomicU64,
    verified_cached: AtomicU64,
    /// `unverified` as of the last [`Vuln::end_scrub_window`].
    window_base: AtomicU64,
    /// Largest *closed* window.
    max_window: AtomicU64,
}

impl Vuln {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Vuln::default()
    }

    /// Records `n` object bytes accessed without verification.
    #[inline]
    pub fn note_unverified(&self, n: u64) {
        self.unverified.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` object bytes covered by checksum verification.
    #[inline]
    pub fn note_verified(&self, n: u64) {
        self.verified.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` object bytes served from the verified-generation
    /// cache: no checksum pass at access time, exposure bounded by the
    /// object's last verification (distinct from both other buckets).
    #[inline]
    pub fn note_verified_cached(&self, n: u64) {
        self.verified_cached.fetch_add(n, Ordering::Relaxed);
    }

    /// Closes a scrub window: everything in the pool was just verified.
    pub fn end_scrub_window(&self) {
        let unverified = self.unverified.load(Ordering::Relaxed);
        let base = self.window_base.swap(unverified, Ordering::Relaxed);
        self.max_window.fetch_max(unverified.saturating_sub(base), Ordering::Relaxed);
    }

    /// Snapshots the counters.
    pub fn snapshot(&self) -> VulnSnapshot {
        let unverified = self.unverified.load(Ordering::Relaxed);
        let window = unverified.saturating_sub(self.window_base.load(Ordering::Relaxed));
        VulnSnapshot {
            unverified,
            verified: self.verified.load(Ordering::Relaxed),
            verified_cached: self.verified_cached.load(Ordering::Relaxed),
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
        v.note_unverified(100);
        v.note_verified(40);
        v.note_verified_cached(8);
        v.end_scrub_window();
        v.note_unverified(30);
        let s = v.snapshot();
        assert_eq!(s.unverified, 130);
        assert_eq!(s.verified, 40);
        assert_eq!(s.verified_cached, 8, "cached bucket stays distinct");
        assert_eq!(s.window_unverified, 30);
        assert_eq!(s.max_window, 100);
    }
}
