//! Figure 4: concurrent random overwrites — throughput versus thread count
//! and object size, comparing all six modes.
//!
//! Run: `cargo run --release -p pgl-bench --bin fig4_scalability`
//! (`--threads 1,2,4` selects thread counts.)

use std::sync::Arc;
use std::time::Instant;

use pgl_bench::{fmt_rate, print_table, run_cell, Args, Cell, Mode};
use pgl_kv::store::Store;
use pgl_nvm::NvmDevice;
use pgl_pmemobj::PMEMoid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: &[u64] = &[64, 256, 1024, 4096];

/// Aggregate overwrites per second of `threads` threads, each doing
/// `ops_per_thread` random overwrites of `size`-byte objects of its own.
struct Overwrites {
    size: u64,
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
}

impl Cell<f64> for Overwrites {
    fn run<S: Store>(self, store: &S, _: &[Arc<NvmDevice>]) -> f64 {
        let Overwrites { size, threads, ops_per_thread, seed } = self;
        // Pre-allocate a pool of objects per thread (threads never share an
        // object: the paper's concurrency rule, §3.4).
        let per_thread = 256usize;
        let mut all: Vec<Vec<PMEMoid>> = Vec::new();
        for _ in 0..threads {
            let mut oids = Vec::with_capacity(per_thread);
            for _ in 0..per_thread {
                let oid = store
                    .txn(&mut |tx| {
                        let oid = tx.alloc(size, 1)?;
                        tx.write_bytes(oid, 0, &vec![0u8; size as usize])?;
                        Ok(oid)
                    })
                    .expect("prealloc");
                oids.push(oid);
            }
            all.push(oids);
        }

        let t = Instant::now();
        std::thread::scope(|s| {
            for (tid, oids) in all.iter().enumerate() {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ tid as u64);
                    let payload = vec![tid as u8; size as usize];
                    for _ in 0..ops_per_thread {
                        let oid = oids[rng.gen_range(0..oids.len())];
                        store.txn(&mut |tx| tx.write_bytes(oid, 0, &payload)).expect("overwrite");
                    }
                });
            }
        });
        let secs = t.elapsed().as_secs_f64();
        (threads * ops_per_thread) as f64 / secs
    }
}

fn main() {
    let args = Args::parse_with(20_000, &[1, 2, 4]);
    println!(
        "Figure 4 reproduction: concurrent overwrites, {} ops/thread, threads {:?}",
        args.ops, args.threads
    );

    let headers: Vec<String> = std::iter::once("threads".to_string())
        .chain(Mode::all().iter().map(|m| m.label().to_string()))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    for &size in SIZES {
        let mut rows = Vec::new();
        for &threads in &args.threads {
            let mut row = vec![threads.to_string()];
            for mode in Mode::all() {
                let cell = Overwrites { size, threads, ops_per_thread: args.ops, seed: args.seed };
                let rate = run_cell(mode, 512 << 20, args.latency, cell);
                row.push(fmt_rate(rate));
            }
            rows.push(row);
        }
        print_table(&format!("Figure 4: {size}B overwrites (throughput)"), &header_refs, &rows);
    }
    println!(
        "\nExpected shape (paper): pgl-MLP scales like pmemobj-R or better for \
         objects >64B (atomic-XOR parity, no lock contention); at 64B the \
         freeze-flag check costs pgl-MLP 6-25% versus pmemobj-R."
    );
}
