//! Counter tables: each counter declared once, as a row of the table of
//! the layer that produces it ([`counter_table!`](crate::counter_table)).
//!
//! This module holds the device's table, [`DeviceStats`]: the operations
//! the simulated device performs, which price its modelled time
//! ([`StatsSnapshot::modelled_ns`]), and the library rows the benchmark
//! reads through [`crate::NvmDevice::stats`] (`csum_*`, `vcache_hits`,
//! `group_*`, `atomic_parity_patches`, `commit_old_*`), which the library
//! bumps through [`crate::NvmDevice::cells`]. The library's
//! fault-tolerance events live in its own pool table.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::LatencyModel;

/// Declares a table of `u64` counters once, from documented rows; a
/// `name[N]` row is a per-shard array. The first struct is the snapshot
/// (`Copy + Default + Eq`, a saturating `delta_since`, an `absorb` that
/// adds); an optional second struct holds one relaxed [`AtomicU64`] per
/// row, bumped with [`bump`], and reads the first with `snapshot()`.
#[macro_export]
macro_rules! counter_table {
    (@ty) => { u64 };
    (@ty [$n:expr]) => { [u64; $n] };
    (@cell) => { ::std::sync::atomic::AtomicU64 };
    (@cell [$n:expr]) => { [::std::sync::atomic::AtomicU64; $n] };
    (@read $c:expr) => { $c.load(::std::sync::atomic::Ordering::Relaxed) };
    (@read $c:expr, [$n:expr]) => { ::std::array::from_fn(|i| $crate::counter_table!(@read $c[i])) };
    (@minus $a:expr, $b:expr) => { $a.saturating_sub($b) };
    (@minus $a:expr, $b:expr, [$n:expr]) => { ::std::array::from_fn(|i| $a[i].saturating_sub($b[i])) };
    (@plus $a:expr, $b:expr) => { $a += $b };
    (@plus $a:expr, $b:expr, [$n:expr]) => { for i in 0..$n { $a[i] += $b[i] } };
    (@cells $(#[$cm:meta])* $cvis:vis struct $cells:ident => $snap:ident;
        $( $(#[$rm:meta])* $row:ident $([$n:expr])? ),* $(,)?) => {
        $(#[$cm])*
        #[derive(Debug, Default)]
        $cvis struct $cells { $( $(#[$rm])* pub $row: $crate::counter_table!(@cell $([$n])?), )* }
        impl $cells {
            /// Reads every row (relaxed).
            pub fn snapshot(&self) -> $snap {
                $snap { $( $row: $crate::counter_table!(@read self.$row $(, [$n])?), )* }
            }
        }
    };
    ($(#[$sm:meta])* $svis:vis struct $snap:ident;
        { $( $(#[$rm:meta])* $row:ident $([$n:expr])? ),* $(,)? }) => {
        $(#[$sm])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $svis struct $snap { $( $(#[$rm])* pub $row: $crate::counter_table!(@ty $([$n])?), )* }
        impl $snap {
            /// Row by row `self − earlier`, saturating at zero.
            pub fn delta_since(&self, earlier: &Self) -> Self {
                Self { $( $row: $crate::counter_table!(@minus self.$row, earlier.$row $(, [$n])?), )* }
            }
            /// Adds `other` row by row.
            pub fn absorb(&mut self, other: &Self) {
                $( $crate::counter_table!(@plus self.$row, other.$row $(, [$n])?); )*
            }
        }
    };
    ($(#[$sm:meta])* $svis:vis struct $snap:ident;
        $(#[$cm:meta])* $cvis:vis struct $cells:ident; { $($rows:tt)* }) => {
        $crate::counter_table! { $(#[$sm])* $svis struct $snap; { $($rows)* } }
        $crate::counter_table! { @cells $(#[$cm])* $cvis struct $cells => $snap; $($rows)* }
    };
}

/// Adds `n` to a counter cell. Relaxed: a count publishes nothing.
#[inline]
pub fn bump(cell: &AtomicU64, n: u64) {
    cell.fetch_add(n, Ordering::Relaxed);
}

/// Slot `i` of a per-shard row; ids at or above `N` fold into the last.
#[inline]
pub fn slot<const N: usize>(row: &[AtomicU64; N], i: usize) -> &AtomicU64 {
    &row[i.min(N - 1)]
}

crate::counter_table! {
    /// A point-in-time copy of [`DeviceStats`] ([`crate::NvmDevice::stats`]).
    pub struct StatsSnapshot;
    /// The device's counter cells: monotonic, relaxed.
    pub struct DeviceStats;
    {
        /// Bytes read through `read`/`read_slice` (loads from media).
        bytes_read,
        /// Read operations issued (`read` and `read_slice` calls).
        read_ops,
        /// Bytes written through the regular (cached) store path.
        bytes_written,
        /// Bytes written through the non-temporal path.
        bytes_written_nt,
        /// Cache lines pushed toward the persistence domain by `flush`.
        lines_flushed,
        /// Store fences issued.
        fences,
        /// 8-byte atomic stores.
        atomic_stores,
        /// 8-byte atomic XORs (no library parity patch issues one).
        atomic_xors,
        /// Bytes processed by plain diff XOR (every parity patch).
        xor_bytes,
        /// Reads that faulted on poisoned pages.
        poison_hits,
        /// Commit-time re-reads of old data (the library's commit issues none).
        commit_old_reads,
        /// Bytes covered by commit-time old-data reads.
        commit_old_bytes,
        /// Checksum passes over object bytes (a cache-hit read runs none).
        csum_passes,
        /// Object bytes those passes checked.
        csum_bytes,
        /// Verified reads the verification cache served.
        vcache_hits,
        /// Group commits: one log persist and commit fence for a batch.
        group_commits,
        /// Transactions those group commits carried.
        group_txns,
        /// 8-byte compare-and-swaps (the detectable-CAS primitive).
        atomic_cas_ops,
        /// Distinct parity lines patched by word-granular CAS commits.
        atomic_parity_patches,
    }
}

impl StatsSnapshot {
    /// Total bytes written by any store flavour.
    pub fn total_bytes_written(&self) -> u64 {
        self.bytes_written + self.bytes_written_nt
    }

    /// Modelled device time of these operations in nanoseconds, priced by
    /// `m`'s charges: flushed lines, fences, non-temporal and read lines
    /// (bytes rounded up to whole lines) and 8-byte atomics. Cached stores
    /// are not priced (`optane` charges them nothing). Simulated time, not
    /// host time, so it repeats wherever the counts do.
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

    crate::counter_table! {
        /// A table of one scalar and one per-shard row.
        struct Small;
        /// Its cells.
        struct SmallCells;
        {
            /// A scalar row.
            ops,
            /// A per-shard row.
            per_shard[3],
        }
    }

    #[test]
    fn a_declared_table_snapshots_deltas_and_absorbs() {
        let cells = SmallCells::default();
        bump(&cells.ops, 7);
        for (i, n) in [11, 13, 17].into_iter().enumerate() {
            bump(&cells.per_shard[i], n);
        }
        let a = cells.snapshot();
        assert_eq!(a, Small { ops: 7, per_shard: [11, 13, 17] });
        bump(&cells.ops, 2);
        bump(&cells.per_shard[1], 5);
        let b = cells.snapshot();
        assert_eq!(b.delta_since(&a), Small { ops: 2, per_shard: [0, 5, 0] });
        // Saturating: an earlier snapshot that is larger reads as zero.
        assert_eq!(a.delta_since(&b), Small::default());
        let mut sum = a;
        sum.absorb(&b);
        assert_eq!(sum, Small { ops: 16, per_shard: [22, 31, 34] });
    }

    #[test]
    fn snapshot_and_delta() {
        let stats = DeviceStats::default();
        bump(&stats.bytes_written, 100);
        bump(&stats.fences, 2);
        let a = stats.snapshot();
        bump(&stats.bytes_written, 50);
        bump(&stats.bytes_read, 10);
        bump(&stats.commit_old_reads, 1);
        bump(&stats.group_commits, 1);
        bump(&stats.group_txns, 8);
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
        let cells = SmallCells::default();
        bump(slot(&cells.per_shard, 0), 1);
        bump(slot(&cells.per_shard, 1), 2);
        // Out-of-range shard ids fold into the last slot instead of panicking.
        bump(slot(&cells.per_shard, 3 + 5), 1);
        let a = cells.snapshot();
        assert_eq!(a.per_shard, [1, 2, 1]);
        bump(slot(&cells.per_shard, 1), 1);
        let d = cells.snapshot().delta_since(&a);
        assert_eq!(d.per_shard, [0, 1, 0]);
    }
}
