//! The pool's counter table: what the library did for fault tolerance,
//! read through [`crate::PglPool::counters`].
//!
//! Each event is counted once, by the layer that produces it. The
//! device's table ([`pgl_nvm::StatsSnapshot`]) keeps device operations,
//! and the library rows the benchmark reads from it (checksum passes,
//! cache hits, group commits, CAS parity patches).

use pgl_nvm::{bump, NvmDevice};

/// Parity-shard slots of the per-shard rows of [`PglCounters`]; shard ids
/// at or above this fold into the last slot (the library's own shard cap
/// is well below it).
pub const STAT_SHARDS: usize = 16;

pgl_nvm::counter_table! {
    /// A point-in-time copy of the pool's counters.
    pub struct PglCounters;
    /// The pool's counter cells, bumped with [`pgl_nvm::bump`].
    pub struct PglCounterCells;
    {
        /// Committed transactions (a group commit counts one).
        commits,
        /// Aborted transactions.
        aborts,
        /// Pages rebuilt from parity online (media errors).
        page_recoveries,
        /// Objects repaired from parity online (checksum mismatches).
        object_recoveries,
        /// Repairs that failed for good: parity and checksums could not
        /// rebuild the data (a double fault). Each one quarantines a zone.
        repairs_failed,
        /// Zones moved to the persistent quarantine set.
        zones_quarantined,
        /// Poisoned pages injected by [`crate::inject`].
        poison_injected,
        /// Scribbles injected by [`crate::inject`].
        scribbles_injected,
        /// Synchronous full-pool scrub passes ([`crate::PglPool::scrub_now`],
        /// or a due scrub with no background workers). Background
        /// per-shard passes are `PglPool::scrub_totals().shard_passes`.
        full_scrubs,
        /// Sweeps of each parity shard's objects, by a full pass's
        /// per-shard worker or by the shard's background worker.
        scrub_passes[STAT_SHARDS],
        /// Repairs those sweeps made, per parity shard.
        scrub_repairs[STAT_SHARDS],
        /// Object bytes handed out without checksum verification
        /// (Table 4's exposure).
        unverified,
        /// Object bytes handed out by a load that checked their segments.
        verified,
        /// Object bytes handed out on the word of the verification cache
        /// (checked since their last mutation, not at access time).
        verified_cached,
    }
}

impl PglCounters {
    /// Online repairs by scrub sweeps, summed across shards.
    pub fn total_scrub_repairs(&self) -> u64 {
        self.scrub_repairs.iter().sum()
    }
}

/// Counts one checksum pass over `bytes` object bytes (a device-table
/// row: the benchmark reads it through [`NvmDevice::stats`]).
#[inline]
pub(crate) fn csum_pass(dev: &NvmDevice, bytes: u64) {
    bump(&dev.cells().csum_passes, 1);
    bump(&dev.cells().csum_bytes, bytes);
}
