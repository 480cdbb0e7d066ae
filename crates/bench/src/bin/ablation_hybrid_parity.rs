//! Ablation: the hybrid parity-update crossover (paper §3.5 / §4.1).
//!
//! The paper switches from atomic-XOR (lock-free, shared range-lock) to
//! vectorized XOR (exclusive range-lock) at 8 KB, where the per-word atomic
//! cost overtakes the locking cost. This sweep forces each strategy per
//! patch size — the guard mode picks it — and reports the measured
//! crossover on this machine, the measurement behind
//! `pangolin::parity::HYBRID_THRESHOLD`.
//!
//! Run: `cargo run --release -p pgl-bench --bin ablation_hybrid_parity`

use std::sync::Arc;
use std::time::Instant;

use pangolin::parity::ParityEngine;
use pgl_bench::{fmt_latency, print_table, Args};
use pgl_nvm::{DeviceConfig, NvmDevice};
use pgl_pmemobj::{Layout, PoolConfig, PoolIo};

const SIZES: &[usize] = &[64, 256, 1024, 4096, 8192, 16384, 65536];

/// Mean ns per patch of `size` bytes: vectorized XOR under an exclusive
/// guard, word-atomic XOR under a shared one.
fn bench_engine(io: &PoolIo, layout: &Layout, exclusive: bool, size: usize, iters: usize) -> f64 {
    let engine = ParityEngine::new(*layout);
    let base = layout.chunk_base(0, layout.zone.cm_chunks);
    let old = vec![0x55u8; size];
    let new = vec![0xAAu8; size];
    let t = Instant::now();
    for i in 0..iters {
        let off = base + ((i * 64) % 4096) as u64;
        let guard = engine.lock_span(off, size as u64, exclusive).expect("lock");
        engine.update_under(&guard, io, off, &old, &new).expect("patch");
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let args = Args::parse();
    println!("Ablation: atomic-XOR vs vectorized-XOR parity updates");
    let cfg = PoolConfig::bench(512 << 20);
    let layout = Layout::new(cfg).expect("layout");
    let dev = Arc::new(
        NvmDevice::new(cfg.size, DeviceConfig { latency: args.latency, ..DeviceConfig::fast() })
            .expect("device"),
    );
    let io = PoolIo::new(dev);

    let iters = 2000;
    let mut rows = Vec::new();
    let mut crossover: Option<usize> = None;
    for &size in SIZES {
        let atomic_ns = bench_engine(&io, &layout, false, size, iters);
        let vector_ns = bench_engine(&io, &layout, true, size, iters);
        if crossover.is_none() && vector_ns < atomic_ns {
            crossover = Some(size);
        }
        rows.push(vec![
            format!("{size}B"),
            fmt_latency(atomic_ns),
            fmt_latency(vector_ns),
            format!("{:.2}x", atomic_ns / vector_ns),
        ]);
    }
    print_table(
        "parity patch latency by strategy",
        &["patch", "atomic XOR", "vectorized XOR", "atomic/vector"],
        &rows,
    );
    match crossover {
        Some(s) => println!(
            "\nvectorized wins from ~{s} B on this machine; the paper measured \
             8 KB on Optane. Pangolin's HYBRID_THRESHOLD is {} B.",
            pangolin::parity::HYBRID_THRESHOLD
        ),
        None => println!("\natomic XOR won at every size on this machine (no crossover seen)."),
    }
}
