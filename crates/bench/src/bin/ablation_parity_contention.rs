//! Ablation: parity patch throughput under contention (paper §3.5).
//!
//! The paper patches parity below 8 KB with lock-prefixed word XOR under a
//! *shared* range-lock, so that two writers of one lock granule overlap,
//! and above it with vectorized XOR under an *exclusive* one. This library
//! keeps only the second: every patch takes its stripes exclusively and
//! XORs with plain stores (`pangolin::parity` module docs). This bin
//! prices what that gives up. Each cell runs `--ops` patches per thread
//! and reports patches per second, for
//!
//! * the library path — `ParityEngine::lock_span` + `patch` (plain diff
//!   XOR), then one fence inside the guard;
//! * the two kernels bare, under this bin's own lock per granule and with
//!   none of the engine's span bookkeeping: an exclusive lock around
//!   `NvmDevice::xor_diff_range`, and a shared one around
//!   `NvmDevice::atomic_xor_patch_span` (the retired path), one fence
//!   each;
//!
//! at 16, 64 and 256 B, on 1 and 2 threads, with the threads' patches in
//! the same 8 KiB granule (different rows, the same parity columns) or in
//! different granules, with the latency model off and on.
//!
//! Run: `cargo run --release -p pgl-bench --bin ablation_parity_contention`
//! (`--no-latency` skips the latency-model half, `--threads a,b` and
//! `--ops N` resize it).

use std::sync::{Arc, Barrier, RwLock};
use std::time::Instant;

use pangolin::parity::{ParityEngine, LOCK_GRANULE};
use pgl_bench::{fmt_rate, print_table, Args};
use pgl_nvm::{DeviceConfig, LatencyModel, NvmDevice};
use pgl_pmemobj::{Layout, PoolConfig, PoolIo};

const SIZES: &[usize] = &[16, 64, 256];

/// Untimed patches each thread runs first: every line the timed pass
/// touches is then resident (the device's pages are faulted in lazily).
const WARMUP: usize = 2_000;

/// One patch strategy, run by every thread of a cell.
#[derive(Clone, Copy)]
enum Path {
    /// The engine: exclusive stripe guard, plain diff XOR.
    Library,
    /// Exclusive granule lock, plain diff XOR.
    BarePlain,
    /// Shared granule lock, lock-prefixed word XOR (the retired path).
    BareAtomic,
}

struct Rig {
    io: PoolIo,
    layout: Layout,
    engine: ParityEngine,
    /// The bare kernels' locks, one per granule of zone 0.
    granules: Vec<RwLock<()>>,
}

impl Rig {
    fn new(latency: LatencyModel) -> Rig {
        let cfg = PoolConfig::bench(512 << 20);
        let layout = Layout::new(cfg).expect("layout");
        let dev = NvmDevice::new(cfg.size, DeviceConfig { latency, ..DeviceConfig::fast() });
        let granules = layout.zone.row_size.div_ceil(LOCK_GRANULE) as usize;
        Rig {
            io: PoolIo::new(Arc::new(dev.expect("device"))),
            layout,
            engine: ParityEngine::new(layout),
            granules: (0..granules).map(|_| RwLock::new(())).collect(),
        }
    }

    /// Data offset of thread `t`'s patches: row `t` at the same columns
    /// (one granule, the same parity lines), or row 0 one granule apart.
    fn base(&self, t: usize, same_granule: bool) -> u64 {
        let base = self.layout.chunk_base(0, self.layout.zone.cm_chunks);
        if same_granule {
            base + t as u64 * self.layout.zone.row_size
        } else {
            base + t as u64 * LOCK_GRANULE
        }
    }

    /// `n` patches of `size` bytes by one thread; every one changes every
    /// byte it covers, so none is skipped as a zero diff.
    fn patch_loop(&self, path: Path, base: u64, size: usize, n: usize) {
        let a = vec![0x55u8; size];
        let b = vec![0xAAu8; size];
        let diff = vec![0xFFu8; size];
        for i in 0..n {
            let off = base + ((i * 64) % 4096) as u64;
            let (old, new) = if i % 2 == 0 { (&a, &b) } else { (&b, &a) };
            if let Path::Library = path {
                let guard = self.engine.lock_span(off, size as u64).expect("lock");
                if self.engine.patch(&guard, &self.io, off, old, new).expect("patch") {
                    self.io.drain();
                }
                drop(guard);
                continue;
            }
            let (zone, _, col) = self.layout.row_col_of(off).expect("data offset");
            let lock = &self.granules[(col / LOCK_GRANULE) as usize];
            let parity = self.layout.parity_off(zone, col);
            if let Path::BarePlain = path {
                let _held = lock.write().unwrap();
                self.io.dev().xor_diff_range(parity, old, new).expect("patch");
                self.io.drain();
            } else {
                let _held = lock.read().unwrap();
                self.io.dev().atomic_xor_patch_span(parity, &diff).expect("patch");
                self.io.drain();
            }
        }
    }

    /// Patches per second of `threads` threads running `path` together,
    /// each after an untimed warm-up pass over the same lines.
    fn rate(&self, path: Path, threads: usize, same_granule: bool, size: usize, n: usize) -> f64 {
        let start = Barrier::new(threads + 1);
        let elapsed = std::thread::scope(|s| {
            for t in 0..threads {
                let start = &start;
                s.spawn(move || {
                    let base = self.base(t, same_granule);
                    self.patch_loop(path, base, size, n.min(WARMUP));
                    start.wait();
                    self.patch_loop(path, base, size, n);
                });
            }
            start.wait();
            Instant::now() // the scope joins every thread before it returns
        });
        (threads * n) as f64 / elapsed.elapsed().as_secs_f64()
    }
}

fn main() {
    let args = Args::parse();
    let n = if args.ops_explicit { args.ops } else { 200_000 };
    let threads = if args.threads_explicit { args.threads.clone() } else { vec![1, 2] };
    let mut models = vec![("off", LatencyModel::disabled())];
    if args.latency != LatencyModel::disabled() {
        models.push(("on", args.latency));
    }
    println!("Ablation: parity patch throughput, exclusive plain XOR vs shared atomic XOR");
    println!("(library = the engine's path; the other two are the bare kernels)");
    let mut rows = Vec::new();
    for (label, latency) in models {
        let rig = Rig::new(latency);
        for &t in &threads {
            for same in [true, false] {
                for &size in SIZES {
                    let [lib, plain, atomic] = [Path::Library, Path::BarePlain, Path::BareAtomic]
                        .map(|path| rig.rate(path, t, same, size, n));
                    rows.push(vec![
                        label.to_string(),
                        t.to_string(),
                        if same { "same" } else { "different" }.to_string(),
                        format!("{size}B"),
                        fmt_rate(lib),
                        fmt_rate(plain),
                        fmt_rate(atomic),
                        format!("{:.2}x", plain / atomic),
                    ]);
                }
            }
        }
    }
    print_table(
        "parity patches per second",
        &[
            "latency",
            "threads",
            "granule",
            "patch",
            "library",
            "plain (excl)",
            "atomic (shared)",
            "plain/atomic",
        ],
        &rows,
    );
}
