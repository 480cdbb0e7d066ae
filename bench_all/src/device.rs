//! The device cost axis: devices and pools in the benchmark's standard
//! configuration, and `NvmDevice::stats()` deltas turned into per-op counts
//! and *modelled* device time.
//!
//! Three cost axes are kept apart (after the Parallel Persistent Memory
//! model): wall clock under the `optane` latency model, host time (the same
//! passes with the model disabled) and modelled device time computed here
//! from counters, which repeats exactly at one thread.

use std::sync::Arc;

use pangolin::{CsumPolicy, PglConfig, PglMode, PglPool};
use pgl_nvm::{DeviceConfig, LatencyModel, NvmDevice, PersistenceMode, StatsSnapshot};
use pgl_pmemobj::{PmemPool, PoolConfig};

/// Pool size of every workload.
pub const POOL_BYTES: usize = 256 << 20;

/// The Table 2 library configurations, in ladder order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Pmemobj,
    PmemobjR,
    Pgl(PglMode),
}

impl Mode {
    pub const MLPC: Mode = Mode::Pgl(PglMode::Mlpc);
}

pub fn new_device(bytes: usize, latency: LatencyModel) -> Arc<NvmDevice> {
    let cfg = DeviceConfig { mode: PersistenceMode::Fast, latency };
    Arc::new(NvmDevice::new(bytes, cfg).expect("device size is a page multiple"))
}

/// `PglConfig::bench(256 MiB, mode)`, parity row dropped for the modes
/// that have none (as `pgl_bench::make_store` does).
pub fn pgl_config(mode: PglMode, policy: CsumPolicy) -> PglConfig {
    let mut cfg = PglConfig::bench(POOL_BYTES, mode).with_policy(policy);
    cfg.pool.parity = mode.has_parity();
    cfg
}

pub fn create_pgl(latency: LatencyModel, cfg: PglConfig) -> (Arc<NvmDevice>, PglPool) {
    let dev = new_device(cfg.pool.size, latency);
    let pool = PglPool::create(dev.clone(), cfg).expect("create pangolin pool");
    (dev, pool)
}

/// A plain (`replicated = false`) or replicated `libpmemobj`-style pool.
/// Only the primary device is returned: its counters are the ones compared
/// with Pangolin's.
pub fn create_pmem(latency: LatencyModel, replicated: bool) -> (Arc<NvmDevice>, Arc<PmemPool>) {
    let cfg = PoolConfig::bench(POOL_BYTES).without_parity();
    let dev = new_device(POOL_BYTES, latency);
    let pool = if replicated {
        let replica = new_device(POOL_BYTES, latency);
        PmemPool::create_replicated(dev.clone(), replica, cfg)
    } else {
        PmemPool::create(dev.clone(), cfg)
    };
    (dev, Arc::new(pool.expect("create pmemobj pool")))
}

/// Modelled NVMM time, in nanoseconds, of the device operations in `d`,
/// priced by the public fields of the device's latency model. Simulated
/// time, not host time.
pub fn modelled_ns(d: &StatsSnapshot, m: &LatencyModel) -> u64 {
    d.lines_flushed * m.flush_ns_per_line
        + d.fences * m.fence_ns
        + d.bytes_written_nt.div_ceil(64) * m.nt_ns_per_line
        + d.bytes_read.div_ceil(64) * m.read_ns_per_line
        + (d.atomic_xors + d.atomic_cas_ops + d.atomic_stores) * m.atomic_rmw_ns
}

/// Device operations and workload ops of the counted passes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub ops: u64,
    pub user_bytes: u64,
    pub delta: StatsSnapshot,
}

impl Counts {
    pub fn per_op(&self, n: u64) -> f64 {
        n as f64 / self.ops.max(1) as f64
    }

    pub fn device_us_per_op(&self) -> f64 {
        self.per_op(modelled_ns(&self.delta, &LatencyModel::optane())) / 1e3
    }

    pub fn atomic_rmw(&self) -> u64 {
        self.delta.atomic_xors + self.delta.atomic_cas_ops + self.delta.atomic_stores
    }

    /// Device bytes stored (cached, non-temporal, XORed and 8-byte atomics)
    /// per user byte the workload asked to modify.
    pub fn write_amp(&self) -> f64 {
        let d = &self.delta;
        // `bytes_written` already includes the bulk-XOR bytes.
        let stored = d.bytes_written + d.bytes_written_nt + 8 * self.atomic_rmw();
        stored as f64 / self.user_bytes.max(1) as f64
    }

    pub fn vcache_hit_ratio(&self) -> f64 {
        let d = &self.delta;
        d.vcache_hits as f64 / (d.vcache_hits + d.csum_passes).max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let m = LatencyModel::optane();
        assert_eq!(modelled_ns(&d, &m), 3 * 90 + 2 * 30 + 2 * 60 + 50 + 3 * 20);
        assert_eq!(modelled_ns(&d, &LatencyModel::disabled()), 0);
        let c = Counts { ops: 2, user_bytes: 64, delta: d };
        assert_eq!(c.device_us_per_op(), 560.0 / 2.0 / 1e3);
        assert_eq!(c.write_amp(), ((1 << 20) + 65 + 24) as f64 / 64.0);
    }
}
