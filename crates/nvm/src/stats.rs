//! Device operation counters.
//!
//! The benchmark harness uses these to report write amplification and flush
//! traffic (e.g. replication writes 2x the bytes of parity mode), and the
//! vulnerability study (Table 4) builds on library-level counters that
//! mirror this pattern. Read counters make read amplification visible too:
//! the commit pipeline's no-old-data-read invariant is asserted by
//! regression tests over [`StatsSnapshot::bytes_read`] and
//! [`StatsSnapshot::commit_old_reads`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::LatencyModel;

/// Number of per-shard counter slots in [`DeviceStats`]. Shard indices at
/// or above this are folded into the last slot, so any shard count is
/// countable (the library's own shard cap is well below this).
pub const STAT_SHARDS: usize = 16;

/// Monotonic operation counters, updated with relaxed atomics.
#[derive(Debug, Default)]
pub struct DeviceStats {
    pub(crate) bytes_read: AtomicU64,
    pub(crate) read_ops: AtomicU64,
    pub(crate) bytes_written: AtomicU64,
    pub(crate) bytes_written_nt: AtomicU64,
    pub(crate) lines_flushed: AtomicU64,
    pub(crate) fences: AtomicU64,
    pub(crate) atomic_stores: AtomicU64,
    pub(crate) atomic_xors: AtomicU64,
    pub(crate) xor_bytes: AtomicU64,
    pub(crate) poison_hits: AtomicU64,
    pub(crate) commit_old_reads: AtomicU64,
    pub(crate) commit_old_bytes: AtomicU64,
    pub(crate) csum_passes: AtomicU64,
    pub(crate) csum_bytes: AtomicU64,
    pub(crate) vcache_hits: AtomicU64,
    pub(crate) vcache_hit_bytes: AtomicU64,
    pub(crate) group_commits: AtomicU64,
    pub(crate) group_txns: AtomicU64,
    pub(crate) atomic_cas_ops: AtomicU64,
    pub(crate) atomic_parity_patches: AtomicU64,
    pub(crate) scrub_passes: [AtomicU64; STAT_SHARDS],
    pub(crate) poison_injected: AtomicU64,
    pub(crate) scribbles_injected: AtomicU64,
    pub(crate) repairs_ok: AtomicU64,
    pub(crate) repairs_failed: AtomicU64,
    pub(crate) scrub_repairs: [AtomicU64; STAT_SHARDS],
    pub(crate) zones_quarantined: AtomicU64,
}

impl DeviceStats {
    #[inline]
    pub(crate) fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a per-shard counter slot, clamping the shard index into
    /// the [`STAT_SHARDS`] range.
    #[inline]
    pub(crate) fn add_shard(field: &[AtomicU64; STAT_SHARDS], shard: usize, n: u64) {
        field[shard.min(STAT_SHARDS - 1)].fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a point-in-time snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            read_ops: self.read_ops.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_written_nt: self.bytes_written_nt.load(Ordering::Relaxed),
            lines_flushed: self.lines_flushed.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            atomic_stores: self.atomic_stores.load(Ordering::Relaxed),
            atomic_xors: self.atomic_xors.load(Ordering::Relaxed),
            xor_bytes: self.xor_bytes.load(Ordering::Relaxed),
            poison_hits: self.poison_hits.load(Ordering::Relaxed),
            commit_old_reads: self.commit_old_reads.load(Ordering::Relaxed),
            commit_old_bytes: self.commit_old_bytes.load(Ordering::Relaxed),
            csum_passes: self.csum_passes.load(Ordering::Relaxed),
            csum_bytes: self.csum_bytes.load(Ordering::Relaxed),
            vcache_hits: self.vcache_hits.load(Ordering::Relaxed),
            vcache_hit_bytes: self.vcache_hit_bytes.load(Ordering::Relaxed),
            group_commits: self.group_commits.load(Ordering::Relaxed),
            group_txns: self.group_txns.load(Ordering::Relaxed),
            atomic_cas_ops: self.atomic_cas_ops.load(Ordering::Relaxed),
            atomic_parity_patches: self.atomic_parity_patches.load(Ordering::Relaxed),
            scrub_passes: std::array::from_fn(|i| self.scrub_passes[i].load(Ordering::Relaxed)),
            poison_injected: self.poison_injected.load(Ordering::Relaxed),
            scribbles_injected: self.scribbles_injected.load(Ordering::Relaxed),
            repairs_ok: self.repairs_ok.load(Ordering::Relaxed),
            repairs_failed: self.repairs_failed.load(Ordering::Relaxed),
            scrub_repairs: std::array::from_fn(|i| self.scrub_repairs[i].load(Ordering::Relaxed)),
            zones_quarantined: self.zones_quarantined.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`DeviceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Bytes read through `read`/`read_slice` (loads from media).
    pub bytes_read: u64,
    /// Read operations issued (`read` and `read_slice` calls).
    pub read_ops: u64,
    /// Bytes written through the regular (cached) store path.
    pub bytes_written: u64,
    /// Bytes written through the non-temporal path.
    pub bytes_written_nt: u64,
    /// Cache lines pushed toward the persistence domain by `flush`.
    pub lines_flushed: u64,
    /// Store fences issued.
    pub fences: u64,
    /// 8-byte atomic stores.
    pub atomic_stores: u64,
    /// 8-byte atomic XOR operations (`atomic_xor_u64`,
    /// `atomic_xor_patch_span`; no library parity patch issues one).
    pub atomic_xors: u64,
    /// Bytes processed by plain diff XOR (every parity patch).
    pub xor_bytes: u64,
    /// Reads that faulted on poisoned pages.
    pub poison_hits: u64,
    /// Commit-time old-data reads (see
    /// [`crate::NvmDevice::note_commit_old_read`]; the commit pipeline
    /// issues none).
    pub commit_old_reads: u64,
    /// Bytes covered by commit-time old-data reads.
    pub commit_old_bytes: u64,
    /// Checksum verification passes the library performed over object
    /// bytes (see [`crate::NvmDevice::note_csum_pass`]); a cache-hit
    /// verified read performs none — the regression tests pin that.
    pub csum_passes: u64,
    /// Object bytes covered by checksum verification passes.
    pub csum_bytes: u64,
    /// Verified reads served from the DRAM verified-generation cache
    /// (see [`crate::NvmDevice::note_vcache_hit`]).
    pub vcache_hits: u64,
    /// Bytes served by cache-hit verified reads.
    pub vcache_hit_bytes: u64,
    /// Group (batched) commits performed: one redo-log persist, one
    /// commit fence and one parity-patch window amortized across a whole
    /// batch of logical transactions (see
    /// [`crate::NvmDevice::note_group_commit`]).
    pub group_commits: u64,
    /// Logical transactions carried by group commits. `group_txns /
    /// group_commits` is the achieved batching factor.
    pub group_txns: u64,
    /// 8-byte compare-and-swap operations (the detectable-CAS publication
    /// primitive; see [`crate::NvmDevice::atomic_cas_u64`]).
    pub atomic_cas_ops: u64,
    /// Distinct parity cache lines XOR-patched by word-granular CAS
    /// commits (see [`crate::NvmDevice::note_atomic_parity_patch`]); a
    /// single-word CAS whose data and header words share a cache line
    /// patches exactly one — the regression tests pin that.
    pub atomic_parity_patches: u64,
    /// Scrub passes completed, indexed by parity shard (see
    /// [`crate::NvmDevice::note_scrub_pass`]); shard ids at or above
    /// [`STAT_SHARDS`] fold into the last slot.
    pub scrub_passes: [u64; STAT_SHARDS],
    /// Media faults (uncorrectable/poisoned pages) injected by test and
    /// storm harnesses (see [`crate::NvmDevice::note_poison_injected`]).
    /// Exact fault accounting: soak tests compare this against repair and
    /// quarantine counters.
    pub poison_injected: u64,
    /// Scribbles (silent corruptions, detectable only by checksum)
    /// injected by test and storm harnesses (see
    /// [`crate::NvmDevice::note_scribble_injected`]).
    pub scribbles_injected: u64,
    /// Page/object repairs that completed successfully (parity
    /// reconstruction verified; see [`crate::NvmDevice::note_repair_ok`]).
    pub repairs_ok: u64,
    /// Repair attempts that failed permanently — parity + checksum could
    /// not reconstruct the data (double faults; see
    /// [`crate::NvmDevice::note_repair_failed`]). Each failure is expected
    /// to quarantine a zone.
    pub repairs_failed: u64,
    /// Online repairs performed by background scrub workers, indexed by
    /// parity shard (see [`crate::NvmDevice::note_scrub_repair`]).
    pub scrub_repairs: [u64; STAT_SHARDS],
    /// Zones moved to the persistent quarantine set after an unrecoverable
    /// double fault (see [`crate::NvmDevice::note_zone_quarantined`]).
    pub zones_quarantined: u64,
}

impl StatsSnapshot {
    /// Total bytes written by any store flavour.
    pub fn total_bytes_written(&self) -> u64 {
        self.bytes_written + self.bytes_written_nt
    }

    /// Component-wise difference (`self - earlier`), saturating at zero.
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            read_ops: self.read_ops.saturating_sub(earlier.read_ops),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            bytes_written_nt: self.bytes_written_nt.saturating_sub(earlier.bytes_written_nt),
            lines_flushed: self.lines_flushed.saturating_sub(earlier.lines_flushed),
            fences: self.fences.saturating_sub(earlier.fences),
            atomic_stores: self.atomic_stores.saturating_sub(earlier.atomic_stores),
            atomic_xors: self.atomic_xors.saturating_sub(earlier.atomic_xors),
            xor_bytes: self.xor_bytes.saturating_sub(earlier.xor_bytes),
            poison_hits: self.poison_hits.saturating_sub(earlier.poison_hits),
            commit_old_reads: self.commit_old_reads.saturating_sub(earlier.commit_old_reads),
            commit_old_bytes: self.commit_old_bytes.saturating_sub(earlier.commit_old_bytes),
            csum_passes: self.csum_passes.saturating_sub(earlier.csum_passes),
            csum_bytes: self.csum_bytes.saturating_sub(earlier.csum_bytes),
            vcache_hits: self.vcache_hits.saturating_sub(earlier.vcache_hits),
            vcache_hit_bytes: self.vcache_hit_bytes.saturating_sub(earlier.vcache_hit_bytes),
            group_commits: self.group_commits.saturating_sub(earlier.group_commits),
            group_txns: self.group_txns.saturating_sub(earlier.group_txns),
            atomic_cas_ops: self.atomic_cas_ops.saturating_sub(earlier.atomic_cas_ops),
            atomic_parity_patches: self
                .atomic_parity_patches
                .saturating_sub(earlier.atomic_parity_patches),
            scrub_passes: std::array::from_fn(|i| {
                self.scrub_passes[i].saturating_sub(earlier.scrub_passes[i])
            }),
            poison_injected: self.poison_injected.saturating_sub(earlier.poison_injected),
            scribbles_injected: self.scribbles_injected.saturating_sub(earlier.scribbles_injected),
            repairs_ok: self.repairs_ok.saturating_sub(earlier.repairs_ok),
            repairs_failed: self.repairs_failed.saturating_sub(earlier.repairs_failed),
            scrub_repairs: std::array::from_fn(|i| {
                self.scrub_repairs[i].saturating_sub(earlier.scrub_repairs[i])
            }),
            zones_quarantined: self.zones_quarantined.saturating_sub(earlier.zones_quarantined),
        }
    }

    /// Total online repairs performed by background scrub workers, summed
    /// across shards.
    pub fn total_scrub_repairs(&self) -> u64 {
        self.scrub_repairs.iter().sum()
    }

    /// Modelled device time of these operations in nanoseconds, priced by
    /// `m`'s charges: flushed lines, fences, non-temporal and read lines
    /// (bytes rounded up to whole lines) and 8-byte atomics. Cached stores
    /// are not priced (the device charges them per line touched, which
    /// these counters do not keep; `optane` charges them nothing). This is
    /// simulated time, not host time, so it repeats wherever the counts do.
    pub fn modelled_ns(&self, m: &LatencyModel) -> u64 {
        self.lines_flushed * m.flush_ns_per_line
            + self.fences * m.fence_ns
            + self.bytes_written_nt.div_ceil(64) * m.nt_ns_per_line
            + self.bytes_read.div_ceil(64) * m.read_ns_per_line
            + (self.atomic_xors + self.atomic_cas_ops + self.atomic_stores) * m.atomic_rmw_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let stats = DeviceStats::default();
        DeviceStats::add(&stats.bytes_written, 100);
        DeviceStats::add(&stats.fences, 2);
        let a = stats.snapshot();
        DeviceStats::add(&stats.bytes_written, 50);
        DeviceStats::add(&stats.bytes_read, 10);
        DeviceStats::add(&stats.commit_old_reads, 1);
        DeviceStats::add(&stats.group_commits, 1);
        DeviceStats::add(&stats.group_txns, 8);
        let b = stats.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.bytes_written, 50);
        assert_eq!(d.fences, 0);
        assert_eq!(d.bytes_read, 10);
        assert_eq!(d.commit_old_reads, 1);
        assert_eq!(d.group_commits, 1);
        assert_eq!(d.group_txns, 8);
        assert_eq!(b.total_bytes_written(), 150);
    }

    #[test]
    fn modelled_time_prices_each_counter_once() {
        let d = StatsSnapshot {
            lines_flushed: 3,
            fences: 2,
            bytes_written_nt: 65, // two lines
            bytes_read: 64,       // one line
            atomic_xors: 1,
            atomic_cas_ops: 1,
            atomic_stores: 1,
            bytes_written: 1 << 20, // cached stores are free until flushed
            ..StatsSnapshot::default()
        };
        // 3 flushes · 90 + 2 fences · 30 + 2 NT lines · 60 + 1 read line · 50 + 3 atomics · 20
        assert_eq!(d.modelled_ns(&LatencyModel::optane()), 560);
        assert_eq!(d.modelled_ns(&LatencyModel::disabled()), 0);
    }

    #[test]
    fn per_shard_counters_clamp_and_delta() {
        let stats = DeviceStats::default();
        DeviceStats::add_shard(&stats.scrub_passes, 0, 1);
        DeviceStats::add_shard(&stats.scrub_passes, 3, 2);
        // Out-of-range shard ids fold into the last slot instead of panicking.
        DeviceStats::add_shard(&stats.scrub_repairs, STAT_SHARDS + 5, 1);
        let a = stats.snapshot();
        assert_eq!(a.scrub_passes[0], 1);
        assert_eq!(a.scrub_passes[3], 2);
        assert_eq!(a.scrub_repairs[STAT_SHARDS - 1], 1);
        DeviceStats::add_shard(&stats.scrub_passes, 3, 1);
        let d = stats.snapshot().delta_since(&a);
        assert_eq!(d.scrub_passes[3], 1);
        assert_eq!(d.scrub_passes[0], 0);
        assert_eq!(d.total_scrub_repairs(), 0);
    }
}
