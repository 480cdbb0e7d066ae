//! Shared benchmark harness: the Table 2 mode matrix, store construction,
//! argument parsing and table formatting used by every figure/table binary.

use std::sync::Arc;

use pangolin::{CsumPolicy, PglConfig, PglMode, PglPool};
use pgl_kv::store::{KvResult, PglStore, PmemStore, Store, TxOps};
use pgl_nvm::{DeviceConfig, LatencyModel, NvmDevice, PersistenceMode};
use pgl_pmemobj::{PMEMoid, PmemPool, PoolConfig, TxStats};

/// The six library configurations of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `libpmemobj` baseline.
    Pmemobj,
    /// Pangolin with micro-buffering only.
    Pgl,
    /// Pangolin + metadata/log replication.
    PglMl,
    /// Pangolin-ML + object parity.
    PglMlp,
    /// Pangolin-MLP + object checksums (full system).
    PglMlpc,
    /// `libpmemobj` with a full replica pool.
    PmemobjR,
}

impl Mode {
    /// All modes in the paper's presentation order.
    pub fn all() -> [Mode; 6] {
        [Mode::Pmemobj, Mode::Pgl, Mode::PglMl, Mode::PglMlp, Mode::PglMlpc, Mode::PmemobjR]
    }

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Pmemobj => "pmemobj",
            Mode::Pgl => "pgl",
            Mode::PglMl => "pgl-ML",
            Mode::PglMlp => "pgl-MLP",
            Mode::PglMlpc => "pgl-MLPC",
            Mode::PmemobjR => "pmemobj-R",
        }
    }
}

/// A store of either backend, so harness code can hold them uniformly.
/// Clones share the underlying pool (both backends are `Arc`-backed
/// shared handles), so one `AnyStore` can fan out across threads.
#[derive(Clone)]
pub enum AnyStore {
    /// Baseline (plain or replicated).
    Pmem(PmemStore),
    /// Pangolin (any mode).
    Pgl(PglStore),
}

impl Store for AnyStore {
    fn uuid(&self) -> u64 {
        match self {
            AnyStore::Pmem(s) => s.uuid(),
            AnyStore::Pgl(s) => s.uuid(),
        }
    }

    fn txn_with_stats<R>(
        &self,
        f: &mut dyn FnMut(&mut dyn TxOps) -> KvResult<R>,
    ) -> KvResult<(R, TxStats)> {
        match self {
            AnyStore::Pmem(s) => s.txn_with_stats(f),
            AnyStore::Pgl(s) => s.txn_with_stats(f),
        }
    }

    fn read_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        match self {
            AnyStore::Pmem(s) => s.read_direct(oid, off, dst),
            AnyStore::Pgl(s) => s.read_direct(oid, off, dst),
        }
    }

    fn read_verified_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        match self {
            AnyStore::Pmem(s) => s.read_verified_direct(oid, off, dst),
            AnyStore::Pgl(s) => s.read_verified_direct(oid, off, dst),
        }
    }

    fn last_tx_stats(&self) -> TxStats {
        match self {
            AnyStore::Pmem(s) => s.last_tx_stats(),
            AnyStore::Pgl(s) => s.last_tx_stats(),
        }
    }

    fn root(&self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        match self {
            AnyStore::Pmem(s) => s.root(size, type_num),
            AnyStore::Pgl(s) => s.root(size, type_num),
        }
    }

    fn bind_shard(&self, shard: usize) {
        match self {
            AnyStore::Pmem(s) => s.bind_shard(shard),
            AnyStore::Pgl(s) => s.bind_shard(shard),
        }
    }
}

impl AnyStore {
    /// The Pangolin pool behind this store, if it is one.
    pub fn pgl_pool(&self) -> Option<&PglPool> {
        match self {
            AnyStore::Pgl(s) => Some(s.pool()),
            AnyStore::Pmem(_) => None,
        }
    }
}

/// Builds a pool of `pool_bytes` in the given mode on a fresh device.
pub fn make_store(mode: Mode, pool_bytes: usize, latency: LatencyModel) -> AnyStore {
    make_store_with_policy(mode, pool_bytes, latency, CsumPolicy::Default)
}

/// Like [`make_store`] with an explicit checksum policy (Figure 6).
pub fn make_store_with_policy(
    mode: Mode,
    pool_bytes: usize,
    latency: LatencyModel,
    policy: CsumPolicy,
) -> AnyStore {
    let dev_cfg = DeviceConfig { mode: PersistenceMode::Fast, latency };
    // Round up to a whole number of pages (device requirement).
    let pool_bytes = (pool_bytes + 0xFFF) & !0xFFF;
    let dev = Arc::new(NvmDevice::new(pool_bytes, dev_cfg).expect("device"));
    match mode {
        Mode::Pmemobj => {
            let cfg = PoolConfig::bench(pool_bytes).without_parity();
            AnyStore::Pmem(PmemStore::new(Arc::new(PmemPool::create(dev, cfg).expect("pool"))))
        }
        Mode::PmemobjR => {
            let cfg = PoolConfig::bench(pool_bytes).without_parity();
            let replica = Arc::new(NvmDevice::new(pool_bytes, dev_cfg).expect("replica"));
            AnyStore::Pmem(PmemStore::new(Arc::new(
                PmemPool::create_replicated(dev, replica, cfg).expect("pool"),
            )))
        }
        Mode::Pgl | Mode::PglMl | Mode::PglMlp | Mode::PglMlpc => {
            let pgl_mode = match mode {
                Mode::Pgl => PglMode::Baseline,
                Mode::PglMl => PglMode::Ml,
                Mode::PglMlp => PglMode::Mlp,
                _ => PglMode::Mlpc,
            };
            let mut cfg = PglConfig::bench(pool_bytes, pgl_mode).with_policy(policy);
            if !pgl_mode.has_parity() {
                cfg.pool.parity = false;
            }
            AnyStore::Pgl(PglStore::new(PglPool::create(dev, cfg).expect("pool")))
        }
    }
}

/// Common command-line options for the harness binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Operations per phase (`--ops N`; the paper uses 1M, default 50k).
    pub ops: usize,
    /// `true` when `--ops` was given explicitly (binaries that trim the
    /// default for runtime reasons must honor an explicit request).
    pub ops_explicit: bool,
    /// Pool size in bytes (`--pool-mb N`).
    pub pool_bytes: usize,
    /// Latency model on/off (`--no-latency` disables).
    pub latency: LatencyModel,
    /// Thread counts for scalability runs (`--threads a,b,c`).
    pub threads: Vec<usize>,
    /// `true` when `--threads` was given explicitly.
    pub threads_explicit: bool,
    /// RNG seed (`--seed N`).
    pub seed: u64,
    /// Machine-readable results path (`--json PATH`); binaries that
    /// support it write a one-line JSON summary there.
    pub json: Option<String>,
}

impl Args {
    /// Parses `std::env::args`, with benchmark-appropriate defaults.
    pub fn parse() -> Args {
        let mut args = Args {
            ops: 50_000,
            ops_explicit: false,
            pool_bytes: 1 << 30,
            latency: LatencyModel::optane(),
            threads: vec![1, 2, 4],
            threads_explicit: false,
            seed: 0xC0FFEE,
            json: None,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--ops" => {
                    i += 1;
                    args.ops = argv[i].parse().expect("--ops N");
                    args.ops_explicit = true;
                }
                "--pool-mb" => {
                    i += 1;
                    args.pool_bytes = argv[i].parse::<usize>().expect("--pool-mb N") << 20;
                }
                "--no-latency" => args.latency = LatencyModel::disabled(),
                "--threads" => {
                    i += 1;
                    args.threads =
                        argv[i].split(',').map(|t| t.parse().expect("--threads a,b,c")).collect();
                    args.threads_explicit = true;
                }
                "--seed" => {
                    i += 1;
                    args.seed = argv[i].parse().expect("--seed N");
                }
                "--json" => {
                    i += 1;
                    args.json = Some(argv[i].clone());
                }
                other => {
                    eprintln!(
                        "unknown option {other}; supported: --ops N --pool-mb N \
                         --no-latency --threads a,b,c --seed N --json PATH"
                    );
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        args
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> =
        headers.iter().enumerate().map(|(i, h)| format!("{h:>w$}", w = widths[i])).collect();
    println!("{}", header_line.join("  "));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for row in rows {
        let line: Vec<String> =
            row.iter().enumerate().map(|(i, c)| format!("{c:>w$}", w = widths[i])).collect();
        println!("{}", line.join("  "));
    }
}

/// Formats nanoseconds-per-op human-readably.
pub fn fmt_latency(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else if ns >= 1000.0 {
        format!("{:.2}us", ns / 1000.0)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Formats an ops/sec rate.
pub fn fmt_rate(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e6 {
        format!("{:.2}M/s", ops_per_sec / 1e6)
    } else if ops_per_sec >= 1e3 {
        format!("{:.1}K/s", ops_per_sec / 1e3)
    } else {
        format!("{ops_per_sec:.0}/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgl_kv::maps::PersistentMap;

    #[test]
    fn every_mode_builds_and_runs_a_tx() {
        for mode in Mode::all() {
            let store = make_store(mode, 256 << 20, LatencyModel::disabled());
            let map = pgl_kv::CTree::create(&store).unwrap();
            map.insert(&store, 1, 2).unwrap();
            assert_eq!(map.get(&store, 1).unwrap(), Some(2), "{}", mode.label());
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_latency(500.0), "500ns");
        assert_eq!(fmt_latency(2500.0), "2.50us");
        assert_eq!(fmt_rate(1_500_000.0), "1.50M/s");
        assert_eq!(fmt_rate(2_500.0), "2.5K/s");
    }
}
