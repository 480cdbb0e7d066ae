//! Optional latency model for benchmark realism.
//!
//! The reproduction has no Optane hardware, so relative costs between DRAM
//! and NVMM operations would otherwise vanish. When enabled, the device
//! busy-waits a configurable number of nanoseconds per operation, with
//! defaults loosely derived from published Optane DC characterization
//! (Izraelevitz et al., arXiv:1903.05714): media writes are the expensive
//! part, flushes push lines to the persistence domain, fences are cheap, and
//! atomic read-modify-writes on NVMM pay a round trip.
//!
//! The model is intentionally coarse — EXPERIMENTS.md discusses which shapes
//! transfer. All costs default to zero (model disabled) for unit tests.
//!
//! # Concurrency: stalls must not burn the host CPU
//!
//! On real hardware an NVM stall occupies only the issuing core; the other
//! cores keep retiring instructions. The simulator often runs *more
//! simulated cores (threads) than the host has physical cores*, so a
//! busy-wait would serialize everything and hide the concurrency the
//! library is designed to deliver. Charges therefore accumulate in a
//! per-thread debt counter and are paid in batches through a
//! yield-friendly deadline wait: the stalling thread donates its timeslice
//! to runnable siblings (`yield_now`) until just before the deadline, then
//! spins for precision. Single-threaded timing is unchanged (yielding with
//! no other runnable thread returns immediately); multi-threaded runs
//! overlap their stalls exactly like independent memory controllers would.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// Debt below this many nanoseconds accumulates instead of stalling; one
/// batched stall then pays it in full. Batching keeps the bookkeeping off
/// the per-store fast path and makes each stall long enough for
/// `yield_now` to actually hand the CPU to another thread.
const PAY_QUANTUM_NS: u64 = 4_000;

thread_local! {
    /// Latency charges owed by this thread but not yet waited out.
    static DEBT_NS: Cell<u64> = const { Cell::new(0) };
}

/// Per-operation latency charges in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Charged per cache line written (store path).
    pub write_ns_per_line: u64,
    /// Charged per cache line flushed (`CLWB`).
    pub flush_ns_per_line: u64,
    /// Charged per store fence (`SFENCE`).
    pub fence_ns: u64,
    /// Charged per 8-byte atomic read-modify-write (e.g. lock xor or a
    /// CAS). The span-batched atomic XOR
    /// (`NvmDevice::atomic_xor_patch_span`, a priced reference: library
    /// parity patches use plain stores) charges this per touched *cache
    /// line* instead: adjacent lock-prefixed RMWs keep their line cached
    /// and pipeline on real hardware, paying the media round trip once per
    /// line.
    pub atomic_rmw_ns: u64,
    /// Charged per cache line of non-temporal store.
    pub nt_ns_per_line: u64,
    /// Charged per cache line loaded from media (NVM random reads are
    /// several times slower than DRAM; this models the delta).
    pub read_ns_per_line: u64,
}

impl LatencyModel {
    /// No charges at all: the default for unit tests and functional runs.
    pub const fn disabled() -> Self {
        LatencyModel {
            write_ns_per_line: 0,
            flush_ns_per_line: 0,
            fence_ns: 0,
            atomic_rmw_ns: 0,
            nt_ns_per_line: 0,
            read_ns_per_line: 0,
        }
    }

    /// Rough Optane DC AppDirect-mode figures used by the benchmark harness.
    pub const fn optane() -> Self {
        LatencyModel {
            write_ns_per_line: 0, // stores hit the cache; cost is paid at flush
            flush_ns_per_line: 90,
            fence_ns: 30,
            atomic_rmw_ns: 20,
            nt_ns_per_line: 60,
            // ~300 ns random-read vs ~80 ns DRAM in the Izraelevitz
            // characterization; charge the per-line delta.
            read_ns_per_line: 50,
        }
    }

    /// Returns a copy with every charge multiplied by `k` — e.g. a
    /// "slower NVM" scenario, or a scaling study that needs the
    /// device-bound regime emphasized (see `fig9_scaling`).
    pub const fn scaled(self, k: u64) -> Self {
        LatencyModel {
            write_ns_per_line: self.write_ns_per_line * k,
            flush_ns_per_line: self.flush_ns_per_line * k,
            fence_ns: self.fence_ns * k,
            atomic_rmw_ns: self.atomic_rmw_ns * k,
            nt_ns_per_line: self.nt_ns_per_line * k,
            read_ns_per_line: self.read_ns_per_line * k,
        }
    }

    /// Returns `true` if every charge is zero.
    #[inline]
    pub fn is_disabled(&self) -> bool {
        self.write_ns_per_line == 0
            && self.flush_ns_per_line == 0
            && self.fence_ns == 0
            && self.atomic_rmw_ns == 0
            && self.nt_ns_per_line == 0
            && self.read_ns_per_line == 0
    }

    /// Records `ns` nanoseconds of NVM latency for the calling thread
    /// (no-op for zero). Small charges accumulate; once the debt reaches
    /// [`PAY_QUANTUM_NS`] it is paid with one yield-friendly stall (see the
    /// module docs for why stalls must not busy-wait the host CPU).
    #[inline]
    pub(crate) fn charge(ns: u64) {
        if ns == 0 {
            return;
        }
        let due = DEBT_NS.with(|d| {
            let total = d.get() + ns;
            if total < PAY_QUANTUM_NS {
                d.set(total);
                0
            } else {
                d.set(0);
                total
            }
        });
        if due > 0 {
            Self::stall(due);
        }
    }

    /// Waits out `ns` nanoseconds, yielding the CPU to runnable siblings
    /// for the bulk of the wait and spinning only the final microsecond
    /// for precision.
    fn stall(ns: u64) {
        let deadline = Instant::now() + Duration::from_nanos(ns);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            // Yield almost to the deadline: a sub-microsecond overshoot
            // is noise next to the batching quantum, while a long spin
            // tail would burn host CPU that a sibling thread (simulated
            // core) could be using.
            if deadline - now > Duration::from_nanos(200) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_charges_nothing() {
        assert!(LatencyModel::disabled().is_disabled());
        let t = Instant::now();
        LatencyModel::charge(0);
        assert!(t.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn charge_waits_roughly_right() {
        let t = Instant::now();
        LatencyModel::charge(200_000); // 200 µs
        assert!(t.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn optane_model_is_enabled() {
        assert!(!LatencyModel::optane().is_disabled());
    }
}
