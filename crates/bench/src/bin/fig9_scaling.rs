//! Figure 9: multi-threaded transaction scaling — transactions/sec for a
//! mixed alloc/overwrite/free workload at 1–8 threads, on one shared pool.
//!
//! This is the end-to-end test of the concurrent transaction engine: every
//! thread holds a cheap shared pool handle, claims its own lane from the
//! lock-free registry, and commits under striped parity range-locks, so
//! transactions on disjoint objects never serialize. The `speedup` column
//! is throughput relative to the same mode at 1 thread (>1 means the
//! engine actually scales; flat means a global bottleneck crept back in).
//!
//! Run: `cargo run --release -p pgl-bench --bin fig9_scaling`
//! (`--threads 1,2,4,8 --ops N` to adjust; ops are per thread.)
//!
//! Objects are 4 KiB (page-sized). Every commit patches parity with plain
//! diff XOR under exclusive range-locks over its spans; concurrency comes
//! from the striped lock table (disjoint objects rarely share a stripe;
//! `ablation_parity_contention` prices two writers of one granule). The
//! second table drives the same thread counts through the `ctree`
//! key-value structure (one map per thread, shared pool) — node-sized
//! objects, whose small patches take the same path.

use std::sync::Arc;
use std::time::Instant;

use pangolin::{CsumPolicy, PglMode};
use pgl_bench::{fmt_rate, print_table, run_cell, run_pgl, Args, Cell, Mode};
use pgl_kv::ctree::CTree;
use pgl_kv::store::Store;
use pgl_kv::workload::{concurrent_mixed_phase, random_keys, raw_mix_op, RawOp};
use pgl_nvm::NvmDevice;
use pgl_pmemobj::PMEMoid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OBJ_SIZE: u64 = 4096;
const PER_THREAD_OBJECTS: usize = 128;

/// One thread's slice of the mixed workload: mostly overwrites of its own
/// objects, with an alloc+write and a free every eighth transaction.
fn worker<S: Store>(store: &S, oids: &mut Vec<PMEMoid>, ops: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let payload = vec![seed as u8; OBJ_SIZE as usize];
    for i in 0..ops {
        match raw_mix_op(i) {
            RawOp::Alloc => {
                let oid = store
                    .txn(&mut |tx| {
                        let oid = tx.alloc(OBJ_SIZE, 7)?;
                        tx.write_bytes(oid, 0, &payload)?;
                        Ok(oid)
                    })
                    .expect("alloc txn");
                oids.push(oid);
            }
            RawOp::Free => {
                if oids.len() > PER_THREAD_OBJECTS {
                    let victim = oids.swap_remove(rng.gen_range(0..oids.len()));
                    store.txn(&mut |tx| tx.free(victim)).expect("free txn");
                }
            }
            RawOp::Overwrite => {
                let oid = oids[rng.gen_range(0..oids.len())];
                store.txn(&mut |tx| tx.write_bytes(oid, 0, &payload)).expect("overwrite txn");
            }
        }
    }
}

/// Aggregate transactions/sec of `threads` workers on one pool.
struct Mixed {
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
}

impl Cell<f64> for Mixed {
    fn run<S: Store>(self, store: &S, _: &[Arc<NvmDevice>]) -> f64 {
        let Mixed { threads, ops_per_thread, seed } = self;
        // Pre-populate each thread's private object set (outside the timing).
        // Each thread is pinned to a parity shard (round-robin), so its
        // objects — and later its commits — stay inside one parity domain:
        // no stripe-lock sharing across threads and no cross-shard commits.
        let mut sets: Vec<Vec<PMEMoid>> = Vec::new();
        for t in 0..threads {
            store.bind_shard(t);
            let mut oids = Vec::with_capacity(PER_THREAD_OBJECTS * 2);
            for _ in 0..PER_THREAD_OBJECTS {
                let oid = store
                    .txn(&mut |tx| {
                        let oid = tx.alloc(OBJ_SIZE, 7)?;
                        tx.write_bytes(oid, 0, &vec![t as u8; OBJ_SIZE as usize])?;
                        Ok(oid)
                    })
                    .expect("prealloc");
                oids.push(oid);
            }
            sets.push(oids);
        }

        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (tid, oids) in sets.iter_mut().enumerate() {
                s.spawn(move || {
                    store.bind_shard(tid);
                    worker(store, oids, ops_per_thread, seed ^ tid as u64)
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        (threads * ops_per_thread) as f64 / secs
    }
}

fn main() {
    let mut args = Args::parse_with(8_000, &[1, 2, 4, 8]);
    // Scaling is about the *device-bound* regime (the paper's machine has
    // 8 real cores; the simulator host may have 1, and only simulated NVM
    // stalls overlap across threads there). Double the charges so the
    // engine, not the host CPU, is what the sweep measures.
    if !args.latency.is_disabled() {
        args.latency = args.latency.scaled(2);
    }
    println!(
        "Figure 9 reproduction: mixed alloc/overwrite/free transactions \
         ({OBJ_SIZE} B objects), {} ops/thread, threads {:?}, 2x-scaled \
         latency model",
        args.ops, args.threads
    );

    // ---- raw transaction engine ----------------------------------------
    let modes = [Mode::Pmemobj, Mode::Pgl, Mode::PglMlpc];
    let mut rows = Vec::new();
    let mut base: Vec<f64> = vec![0.0; modes.len()];
    for &threads in &args.threads {
        let mut row = vec![threads.to_string()];
        for (m, &mode) in modes.iter().enumerate() {
            let cell = Mixed { threads, ops_per_thread: args.ops, seed: args.seed };
            let rate = run_cell(mode, 512 << 20, args.latency, cell);
            if threads == args.threads[0] {
                base[m] = rate;
            }
            row.push(fmt_rate(rate));
            if mode == Mode::PglMlpc {
                row.push(format!("{:.2}x", rate / base[m].max(f64::MIN_POSITIVE)));
            }
        }
        rows.push(row);
    }
    let base_label = format!("speedup = pgl-MLPC vs {} thread(s)", args.threads[0]);
    print_table(
        &format!("Figure 9: transaction throughput vs threads ({base_label})"),
        &["threads", "pmemobj", "pgl", "pgl-MLPC", "speedup"],
        &rows,
    );

    // ---- key-value structures over the shared pool ---------------------
    let keys = random_keys(
        args.ops.min(4_000) * args.threads.iter().max().copied().unwrap_or(1),
        args.seed,
    );
    let mut rows = Vec::new();
    let mut kv_base = 0.0f64;
    for &threads in &args.threads {
        let slice = &keys[..args.ops.min(4_000) * threads];
        let stats = run_pgl(PglMode::Mlpc, CsumPolicy::Default, 512 << 20, args.latency, |s, _| {
            concurrent_mixed_phase::<CTree, _>(s, slice, threads, 0.25, args.seed)
        })
        .expect("kv phase");
        let rate = stats.ops_per_sec();
        if threads == args.threads[0] {
            kv_base = rate;
        }
        rows.push(vec![
            threads.to_string(),
            fmt_rate(rate),
            format!("{:.2}x", rate / kv_base.max(f64::MIN_POSITIVE)),
        ]);
    }
    print_table(
        &format!(
            "Figure 9 (kv): ctree mixed insert/remove on pgl-MLPC, one map per \
             thread (speedup vs {} thread(s))",
            args.threads[0]
        ),
        &["threads", "ops/s", "speedup"],
        &rows,
    );

    println!(
        "\nExpected shape: throughput grows with threads until the simulated \
         device (or the host's cores) saturates; per-thread lanes and striped \
         parity locks keep disjoint-object transactions off each other's \
         critical paths. The paper's §3.5/§4.4 discussion predicts near-linear \
         scaling for >64 B objects."
    );
}
