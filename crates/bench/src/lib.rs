//! Shared benchmark harness: the Table 2 mode matrix, the cell runner
//! (one pool per cell, device counters around each timed phase), the list
//! of key-value structures, argument parsing and table formatting used by
//! every figure/table binary.

use std::sync::Arc;
use std::time::Instant;

use pangolin::{CsumPolicy, PglConfig, PglMode, PglPool};
use pgl_kv::maps::PersistentMap;
use pgl_kv::store::{PglStore, PmemStore, Store};
use pgl_kv::{BTree, CTree, HashMap, RTree, RbTree, SkipList};
use pgl_nvm::{DeviceConfig, LatencyModel, NvmDevice, PersistenceMode, StatsSnapshot};
use pgl_pmemobj::{PmemPool, PoolConfig};

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

/// A measurement that reports a `T`, written once for both backends:
/// [`run_cell`] builds the pool and calls `run` monomorphised for
/// [`PmemStore`] or [`PglStore`].
pub trait Cell<T> {
    /// Measures on `store`, whose pool lives on `devs`: its own device,
    /// and for `pmemobj-R` the replica's after it.
    fn run<S: Store>(self, store: &S, devs: &[Arc<NvmDevice>]) -> T;
}

/// A fresh fast-mode device of `bytes` rounded up to whole pages.
pub fn device(bytes: usize, latency: LatencyModel) -> Arc<NvmDevice> {
    let cfg = DeviceConfig { mode: PersistenceMode::Fast, latency };
    Arc::new(NvmDevice::new((bytes + 0xFFF) & !0xFFF, cfg).expect("device"))
}

/// Runs `cell` on a fresh pool of `pool_bytes` in `mode` under the default
/// checksum policy. A Pangolin pool's parity is checked afterwards, as
/// [`run_pgl`] does.
pub fn run_cell<T>(mode: Mode, pool_bytes: usize, latency: LatencyModel, cell: impl Cell<T>) -> T {
    let pgl_mode = match mode {
        Mode::Pmemobj | Mode::PmemobjR => {
            let dev = device(pool_bytes, latency);
            let cfg = PoolConfig::bench(dev.len()).without_parity();
            let (pool, devs) = if mode == Mode::PmemobjR {
                let replica = device(dev.len(), latency);
                (PmemPool::create_replicated(dev.clone(), replica.clone(), cfg), vec![dev, replica])
            } else {
                (PmemPool::create(dev.clone(), cfg), vec![dev])
            };
            return cell.run(&PmemStore::new(Arc::new(pool.expect("pool"))), &devs);
        }
        Mode::Pgl => PglMode::Baseline,
        Mode::PglMl => PglMode::Ml,
        Mode::PglMlp => PglMode::Mlp,
        Mode::PglMlpc => PglMode::Mlpc,
    };
    run_pgl(pgl_mode, CsumPolicy::Default, pool_bytes, latency, |store, devs| cell.run(store, devs))
}

/// Runs `f` on a fresh Pangolin pool of `pool_bytes` in `mode` under
/// `policy`, then panics unless the pool's parity verifies: a figure is
/// only worth printing if the protection it prices held.
pub fn run_pgl<R>(
    mode: PglMode,
    policy: CsumPolicy,
    pool_bytes: usize,
    latency: LatencyModel,
    f: impl FnOnce(&PglStore, &[Arc<NvmDevice>]) -> R,
) -> R {
    let dev = device(pool_bytes, latency);
    let mut cfg = PglConfig::bench(dev.len(), mode).with_policy(policy);
    cfg.pool.parity = mode.has_parity();
    let store = PglStore::new(PglPool::create(dev.clone(), cfg).expect("pool"));
    let out = f(&store, &[dev]);
    assert!(store.pool().verify_parity().expect("verify parity"), "parity does not verify");
    out
}

/// A measurement over one key-value structure, written once for all six.
pub trait Structures {
    /// Measures structure `M` on a pool of `pool_bytes`.
    fn visit<M: PersistentMap>(&mut self, pool_bytes: usize);
}

/// Visits the six PMDK-toolkit structures of Figures 5 and 6 and Tables 3
/// and 4 in the paper's order, each on a pool of `pool_bytes`; the rtree,
/// which allocates ~4.2 KB per key, gets twice that.
pub fn each_structure(pool_bytes: usize, v: &mut impl Structures) {
    v.visit::<CTree>(pool_bytes);
    v.visit::<RbTree>(pool_bytes);
    v.visit::<BTree>(pool_bytes);
    v.visit::<SkipList>(pool_bytes);
    v.visit::<RTree>(2 * pool_bytes);
    v.visit::<HashMap>(pool_bytes);
}

/// One timed phase of a cell: its operations, wall clock and the device
/// operations it issued.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Operations in the phase.
    pub ops: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Counters the phase moved, one per device of the cell.
    pub deltas: Vec<StatsSnapshot>,
}

impl Phase {
    /// Times `f`, a phase of `ops` operations, and takes the counters of
    /// `devs` around it.
    pub fn measure<R>(devs: &[Arc<NvmDevice>], ops: usize, f: impl FnOnce() -> R) -> (R, Phase) {
        let before: Vec<StatsSnapshot> = devs.iter().map(|d| d.stats()).collect();
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        let deltas = devs.iter().zip(&before).map(|(d, b)| d.stats().delta_since(b)).collect();
        (out, Phase { ops: ops as u64, secs, deltas })
    }

    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs.max(f64::MIN_POSITIVE)
    }

    /// Modelled device time per operation in µs, always priced with
    /// [`LatencyModel::optane`]: it depends on the counts alone, so a
    /// `--no-latency` run prints the same value and two runs of one cell
    /// print it bit for bit.
    pub fn device_us_per_op(&self) -> f64 {
        let ns: u64 = self.deltas.iter().map(|d| d.modelled_ns(&LatencyModel::optane())).sum();
        ns as f64 / self.ops.max(1) as f64 / 1e3
    }
}

/// Common command-line options for the harness binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Operations per phase (`--ops N`).
    pub ops: usize,
    /// Pool size in bytes (`--pool-mb N`).
    pub pool_bytes: usize,
    /// Latency model on/off (`--no-latency` disables).
    pub latency: LatencyModel,
    /// Thread counts for scalability runs (`--threads a,b,c`).
    pub threads: Vec<usize>,
    /// RNG seed (`--seed N`).
    pub seed: u64,
    /// Machine-readable results path (`--json PATH`); binaries that
    /// support it write a one-line JSON summary there.
    pub json: Option<String>,
}

const USAGE: &str =
    "supported: --ops N --pool-mb N --no-latency --threads a,b,c --seed N --json PATH";

impl Args {
    /// Parses the process's arguments over this binary's defaults: `ops`
    /// operations per phase and the `threads` sweep. A malformed command
    /// line prints the usage line and exits with status 2.
    pub fn parse_with(ops: usize, threads: &[usize]) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse_from(&argv, ops, threads).unwrap_or_else(|e| {
            eprintln!("{e}; {USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses `argv` (without the program name) over the given defaults.
    pub fn parse_from(argv: &[String], ops: usize, threads: &[usize]) -> Result<Args, String> {
        fn value<T: std::str::FromStr>(
            it: &mut std::slice::Iter<'_, String>,
            flag: &str,
        ) -> Result<T, String> {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        let mut args = Args {
            ops,
            pool_bytes: 1 << 30,
            latency: LatencyModel::optane(),
            threads: threads.to_vec(),
            seed: 0xC0FFEE,
            json: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--ops" => args.ops = value(&mut it, flag)?,
                "--pool-mb" => args.pool_bytes = value::<usize>(&mut it, flag)? << 20,
                "--no-latency" => args.latency = LatencyModel::disabled(),
                "--threads" => {
                    let list: String = value(&mut it, flag)?;
                    args.threads = list
                        .split(',')
                        .map(|t| t.parse().map_err(|_| format!("--threads: cannot parse {t:?}")))
                        .collect::<Result<_, _>>()?;
                }
                "--seed" => args.seed = value(&mut it, flag)?,
                "--json" => args.json = Some(value(&mut it, flag)?),
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(args)
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

/// Formats a phase's modelled device time per operation, in µs.
pub fn fmt_device(p: &Phase) -> String {
    format!("{:.3}", p.device_us_per_op())
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
    use pgl_kv::workload::{insert_phase, random_keys, remove_phase};

    /// Inserts and removes `keys` on a fresh `CTree`, checking one lookup
    /// between the two, as one phase.
    struct InsertRemove<'a>(&'a [u64]);

    impl Cell<Phase> for InsertRemove<'_> {
        fn run<S: Store>(self, store: &S, devs: &[Arc<NvmDevice>]) -> Phase {
            let (map, keys) = (CTree::create(store).unwrap(), self.0);
            let ((), phase) = Phase::measure(devs, 2 * keys.len(), || {
                insert_phase(&map, store, keys).unwrap();
                assert_eq!(map.get(store, keys[0]).unwrap(), Some(keys[0] ^ 0xDEAD_BEEF));
                remove_phase(&map, store, keys).unwrap();
            });
            phase
        }
    }

    #[test]
    fn every_mode_builds_and_runs_a_tx() {
        for mode in Mode::all() {
            run_cell(mode, 256 << 20, LatencyModel::disabled(), InsertRemove(&[1]));
        }
    }

    /// Two runs of one single-thread cell at one seed issue the same device
    /// operations, so their modelled device time is equal to the bit.
    /// `bytes_written` and `xor_bytes` are left out: every pool draws a
    /// fresh UUID, stored OIDs carry it, and which bytes of a partial-word
    /// parity diff are zero moves with it.
    #[test]
    fn a_single_thread_cell_repeats_its_device_counts() {
        let counts = |p: &Phase| -> Vec<_> {
            let count = |d: &StatsSnapshot| {
                let atomics = (d.atomic_xors, d.atomic_cas_ops, d.atomic_stores);
                (d.fences, d.lines_flushed, d.bytes_written_nt, d.bytes_read, atomics)
            };
            p.deltas.iter().map(count).collect()
        };
        let keys = random_keys(200, 7);
        for mode in Mode::all() {
            let [a, b] = [(); 2]
                .map(|_| run_cell(mode, 256 << 20, LatencyModel::disabled(), InsertRemove(&keys)));
            assert_eq!(counts(&a), counts(&b), "{}", mode.label());
            assert_eq!(a.device_us_per_op(), b.device_us_per_op(), "{}", mode.label());
            assert!(a.device_us_per_op() > 0.0, "{}", mode.label());
        }
    }

    #[test]
    #[should_panic(expected = "parity does not verify")]
    fn a_pangolin_cell_fails_loudly_when_parity_does_not_verify() {
        let latency = LatencyModel::disabled();
        run_pgl(PglMode::Mlpc, CsumPolicy::Default, 256 << 20, latency, |store, devs| {
            let oid = store.txn(&mut |tx| tx.alloc(64, 1)).unwrap();
            devs[0].scribble(oid.off, &[0xFF; 8]).unwrap(); // behind the parity's back
        });
    }

    #[test]
    fn an_explicit_value_wins_over_the_bins_default() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = Args::parse_from(&argv("--ops 50000 --threads 3,5"), 20_000, &[1, 2]).unwrap();
        assert_eq!((a.ops, a.threads), (50_000, vec![3, 5]));
        let a = Args::parse_from(&[], 20_000, &[1, 2]).unwrap();
        assert_eq!((a.ops, a.threads), (20_000, vec![1, 2]));
        assert_eq!(Args::parse_from(&argv("--ops"), 1, &[1]).unwrap_err(), "--ops needs a value");
        assert!(Args::parse_from(&argv("--threads 1,x"), 1, &[1]).is_err());
        assert!(Args::parse_from(&argv("--bogus"), 1, &[1]).is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_latency(500.0), "500ns");
        assert_eq!(fmt_latency(2500.0), "2.50us");
        assert_eq!(fmt_rate(1_500_000.0), "1.50M/s");
        assert_eq!(fmt_rate(2_500.0), "2.5K/s");
    }
}
