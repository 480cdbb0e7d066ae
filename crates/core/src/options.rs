//! Builder-style pool construction ([`PglPool::options`]): one builder
//! for both creating and opening a pool. The parity range-lock size is not
//! an option but a constant ([`crate::parity::LOCK_GRANULE`]), and there
//! is one parity patch path, so no patch-size crossover to set.
//!
//! ```
//! use std::sync::Arc;
//! use pangolin::{CsumPolicy, PglMode, PglPool};
//! use pgl_nvm::{DeviceConfig, NvmDevice};
//!
//! let opts = PglPool::options()
//!     .mode(PglMode::Mlpc)
//!     .csum_policy(CsumPolicy::ScrubEvery(500))
//!     .background_scrub(true);
//! let dev = Arc::new(NvmDevice::new(opts.config().pool.size, DeviceConfig::fast()).unwrap());
//!
//! // Create a fresh pool…
//! let pool = opts.clone().create(dev.clone()).unwrap();
//! drop(pool);
//!
//! // …and reopen it later: geometry and mode come from the pool header,
//! // run-time knobs (policy, scrubbing) from the builder.
//! let pool = opts.open(dev).unwrap();
//! assert_eq!(pool.mode(), PglMode::Mlpc);
//! ```

use std::sync::Arc;

use pgl_nvm::NvmDevice;
use pgl_pmemobj::PoolConfig;

use crate::config::{CsumPolicy, PglConfig, PglMode};
use crate::error::Result;
use crate::pool::PglPool;

/// Builder for creating or opening a [`PglPool`] (see the module docs).
///
/// Defaults match [`PglConfig::small`]: full `Mlpc` mode, the paper's
/// default checksum policy, synchronous scrubbing and one parity shard.
#[derive(Debug, Clone)]
pub struct OpenOptions {
    cfg: PglConfig,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions { cfg: PglConfig::small() }
    }
}

impl OpenOptions {
    /// Starts from the default (small, `Mlpc`) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the fault-tolerance mode (create only; open reads the mode
    /// from the pool header).
    pub fn mode(mut self, mode: PglMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Sets the checksum verification policy.
    pub fn csum_policy(mut self, policy: CsumPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Runs scrub passes on a background thread instead of synchronously
    /// inside the triggering commit.
    pub fn background_scrub(mut self, on: bool) -> Self {
        self.cfg.background_scrub = on;
        self
    }

    /// Replaces the pool geometry wholesale (create only; open reads the
    /// geometry from the pool header).
    pub fn geometry(mut self, pool: PoolConfig) -> Self {
        self.cfg.pool = pool;
        self
    }

    /// Sets the pool size in bytes (create only).
    pub fn size(mut self, bytes: usize) -> Self {
        self.cfg.pool.size = bytes;
        self
    }

    /// Sets the zone size in bytes (create only).
    pub fn zone_size(mut self, bytes: usize) -> Self {
        self.cfg.pool.zone_size = bytes;
        self
    }

    /// Total entry capacity of the DRAM verified-generation cache, usable
    /// whole by objects of any parity shard; a full lock stripe evicts
    /// one entry by second chance (`0` disables it; every verified read
    /// then re-checksums).
    pub fn vcache_capacity(mut self, entries: usize) -> Self {
        self.cfg.vcache_capacity = entries;
        self
    }

    /// Parity shard (domain) count: `0` = automatic (`min(n_zones, 8)`),
    /// explicit values are clamped to the zone count. Runtime-only — any
    /// pool can be reopened with any shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Periodic background-scrub wake-up interval (milliseconds); `0`
    /// disables periodic passes (workers then only run on
    /// [`CsumPolicy::ScrubEvery`] commit ticks).
    pub fn scrub_interval_ms(mut self, ms: u64) -> Self {
        self.cfg.scrub_interval_ms = ms;
        self
    }

    /// The [`PglConfig`] the builder currently describes (what
    /// [`OpenOptions::create`] would use).
    pub fn config(&self) -> PglConfig {
        self.cfg
    }

    /// Creates a fresh pool on `dev` with the configured geometry and
    /// mode, zeroing the device.
    pub fn create(self, dev: Arc<NvmDevice>) -> Result<PglPool> {
        PglPool::create(dev, self.cfg)
    }

    /// Opens an existing pool on `dev`, running crash recovery. Geometry
    /// and mode come from the pool header; the builder contributes the
    /// run-time knobs (checksum policy, background scrubbing, the
    /// verification cache, the shard count).
    pub fn open(self, dev: Arc<NvmDevice>) -> Result<PglPool> {
        PglPool::open_with(dev, &self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgl_nvm::DeviceConfig;

    fn dev(opts: &OpenOptions) -> Arc<NvmDevice> {
        Arc::new(NvmDevice::new(opts.config().pool.size, DeviceConfig::fast()).unwrap())
    }

    #[test]
    fn builder_roundtrips_mode_and_policy() {
        let opts =
            OpenOptions::new().mode(PglMode::Mlp).csum_policy(CsumPolicy::Conservative).shards(2);
        let cfg = opts.config();
        assert_eq!(cfg.mode, PglMode::Mlp);
        assert_eq!(cfg.policy, CsumPolicy::Conservative);
        assert_eq!(cfg.shards, 2);

        let dev = dev(&opts);
        let pool = opts.clone().create(dev.clone()).unwrap();
        assert_eq!(pool.mode(), PglMode::Mlp);
        drop(pool);
        // Mode survives reopen via the header even though the builder
        // default differs.
        let pool = OpenOptions::new().open(dev).unwrap();
        assert_eq!(pool.mode(), PglMode::Mlp);
    }

    #[test]
    fn size_overrides_compose_with_geometry() {
        let opts = OpenOptions::new().size(32 << 20).zone_size(16 << 20);
        assert_eq!(opts.config().pool.size, 32 << 20);
        let dev = dev(&opts);
        let pool = opts.create(dev).unwrap();
        assert_eq!(pool.layout().cfg.size, 32 << 20);
    }
}
