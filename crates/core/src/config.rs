//! Pangolin operation modes and tuning knobs (paper Table 2 and §3.3).
//!
//! The parity range-lock size is a design constant, not a knob:
//! [`crate::parity::LOCK_GRANULE`] (8 KiB). Every parity patch takes its
//! range-locks exclusively, so there is no patch-size crossover to tune.

use pgl_pmemobj::PoolConfig;

/// Which fault-tolerance mechanisms are active — the incremental modes the
/// paper evaluates (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PglMode {
    /// Micro-buffering only: no replication, parity or checksums.
    Baseline,
    /// `+ML`: metadata and redo-log replication.
    Ml,
    /// `+MLP`: ML plus object parity.
    Mlp,
    /// `+MLPC`: MLP plus object checksums (the full system, the default).
    Mlpc,
}

impl PglMode {
    /// Log/metadata replication active?
    pub fn replicates_logs(&self) -> bool {
        !matches!(self, PglMode::Baseline)
    }

    /// Zone parity active?
    pub fn has_parity(&self) -> bool {
        matches!(self, PglMode::Mlp | PglMode::Mlpc)
    }

    /// Object checksums active?
    pub fn has_checksums(&self) -> bool {
        matches!(self, PglMode::Mlpc)
    }

    /// Short label used by the benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            PglMode::Baseline => "pgl",
            PglMode::Ml => "pgl-ML",
            PglMode::Mlp => "pgl-MLP",
            PglMode::Mlpc => "pgl-MLPC",
        }
    }
}

/// When object checksums are verified (paper §3.3 and Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsumPolicy {
    /// Verify only when an object is micro-buffered for modification
    /// (the paper's default mode).
    Default,
    /// Default verification plus a scrub pass every `n` committed
    /// transactions ("Scrub 100K" / "Scrub 50K" in Figure 6).
    ScrubEvery(u64),
    /// Verify on every access, including reads (`pgl_get`).
    Conservative,
}

/// Full Pangolin pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PglConfig {
    /// Underlying pool geometry (zones, chunks, rows, lanes).
    pub pool: PoolConfig,
    /// Fault-tolerance mode.
    pub mode: PglMode,
    /// Checksum verification policy.
    pub policy: CsumPolicy,
    /// Run the scrubber on a background thread (otherwise scrubs happen
    /// synchronously inside the triggering commit).
    pub background_scrub: bool,
    /// Total entry capacity of the DRAM verification cache, which lets
    /// repeated loads and verified reads of a segment skip its read and
    /// checksum pass (see `vcache` module docs). `0` disables the cache — every
    /// verified read then re-verifies, the pre-cache behaviour. Modes
    /// without checksums never consult it. Each entry is ~24 bytes of
    /// DRAM; the default covers 64 Ki hot objects.
    pub vcache_capacity: usize,
    /// Parity shard (domain) count. Each shard owns the zones with
    /// `zone % shards == shard`, with its own parity stripe-lock table
    /// and scrub partition. `0` picks an automatic count
    /// (`min(n_zones, 8)`); any explicit value is clamped to the zone
    /// count. Runtime-only — not persisted in the pool header, so a pool
    /// can be reopened with any shard count and `shards = 1` is
    /// byte-compatible with pre-sharding pools.
    pub shards: usize,
    /// Periodic wake-up interval (milliseconds) for background scrub
    /// workers: each worker re-scrubs its shard this often even without a
    /// commit-tick trigger, so faults on cold data are still found and
    /// healed online. `0` disables periodic wake-ups (workers then run
    /// only when [`CsumPolicy::ScrubEvery`] ticks fire).
    pub scrub_interval_ms: u64,
}

impl PglConfig {
    /// Small test configuration in the full `Mlpc` mode.
    pub fn small() -> Self {
        PglConfig {
            pool: PoolConfig::small(),
            mode: PglMode::Mlpc,
            policy: CsumPolicy::Default,
            background_scrub: false,
            vcache_capacity: 64 << 10,
            shards: 1,
            scrub_interval_ms: 0,
        }
    }

    /// Benchmark configuration scaled from the paper.
    pub fn bench(pool_size: usize, mode: PglMode) -> Self {
        PglConfig {
            pool: PoolConfig::bench(pool_size),
            mode,
            policy: CsumPolicy::Default,
            background_scrub: false,
            vcache_capacity: 64 << 10,
            shards: 0,
            scrub_interval_ms: 0,
        }
    }

    /// Sets the fault-tolerance mode.
    pub fn with_mode(mut self, mode: PglMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the checksum verification policy.
    pub fn with_policy(mut self, policy: CsumPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Validates internal consistency (e.g. parity modes need a parity row).
    pub fn validate(&self) -> Result<(), String> {
        if self.mode.has_parity() && !self.pool.parity {
            return Err("parity mode requires PoolConfig::parity".into());
        }
        if matches!(self.policy, CsumPolicy::ScrubEvery(0)) {
            return Err("scrub interval must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_flags_are_incremental() {
        assert!(!PglMode::Baseline.replicates_logs());
        assert!(PglMode::Ml.replicates_logs() && !PglMode::Ml.has_parity());
        assert!(PglMode::Mlp.has_parity() && !PglMode::Mlp.has_checksums());
        assert!(PglMode::Mlpc.has_checksums() && PglMode::Mlpc.has_parity());
    }

    #[test]
    fn validation_catches_inconsistencies() {
        assert!(PglConfig::small().validate().is_ok());
        let mut c = PglConfig::small();
        c.pool.parity = false;
        assert!(c.validate().is_err(), "Mlpc without a parity row");
        c.mode = PglMode::Ml;
        assert!(c.validate().is_ok(), "Ml needs no parity row");
        let mut c = PglConfig::small();
        c.policy = CsumPolicy::ScrubEvery(0);
        assert!(c.validate().is_err());
    }
}
