//! Figure 3: single-object transaction latency — allocate, overwrite, free
//! — across object sizes and all six library modes.
//!
//! Run: `cargo run --release -p pgl-bench --bin fig3_tx_latency`
//! (`--ops N` sets transactions per cell, `--no-latency` disables the
//! Optane latency model.) Each latency table is followed by the cells'
//! modelled device time per transaction.

use std::sync::Arc;

use pgl_bench::{fmt_device, fmt_latency, print_table, run_cell, Args, Cell, Mode, Phase};
use pgl_kv::store::Store;
use pgl_nvm::NvmDevice;
use pgl_pmemobj::PMEMoid;

const SIZES: &[u64] = &[64, 256, 1024, 4096, 16384, 65536];

/// `ops` transactions of each kind on objects of `size` bytes.
struct AllocOverwriteFree {
    size: u64,
    ops: usize,
}

impl Cell<[Phase; 3]> for AllocOverwriteFree {
    fn run<S: Store>(self, store: &S, devs: &[Arc<NvmDevice>]) -> [Phase; 3] {
        let payload = vec![0xABu8; self.size as usize];
        let (oids, alloc) = Phase::measure(devs, self.ops, || {
            (0..self.ops)
                .map(|_| {
                    store
                        .txn(&mut |tx| {
                            let oid = tx.alloc(self.size, 1)?;
                            tx.write_bytes(oid, 0, &payload)?;
                            Ok(oid)
                        })
                        .expect("alloc tx")
                })
                .collect::<Vec<PMEMoid>>()
        });
        // Whole-object update, like the paper.
        let (_, overwrite) = Phase::measure(devs, self.ops, || {
            for oid in &oids {
                store.txn(&mut |tx| tx.write_bytes(*oid, 0, &payload)).expect("overwrite tx");
            }
        });
        let (_, free) = Phase::measure(devs, self.ops, || {
            for oid in &oids {
                store.txn(&mut |tx| tx.free(*oid)).expect("free tx");
            }
        });
        [alloc, overwrite, free]
    }
}

fn main() {
    let args = Args::parse_with(20_000, &[1]);
    println!(
        "Figure 3 reproduction: tx latency, {} ops/cell, latency model {}",
        args.ops,
        if args.latency.is_disabled() { "off" } else { "on" }
    );

    // Per operation kind: latency rows and device-time rows.
    let mut latency: [Vec<Vec<String>>; 3] = Default::default();
    let mut device: [Vec<Vec<String>>; 3] = Default::default();
    for &size in SIZES {
        for rows in latency.iter_mut().chain(&mut device) {
            rows.push(vec![format!("{size}B")]);
        }
        for mode in Mode::all() {
            // Size the pool for the alloc phase: large objects consume
            // whole 64 KiB chunks, small ones a size class (~1.5x slack).
            let chunk = 64u64 << 10;
            let footprint = if size + 16 > 16384 {
                (size + 16).div_ceil(chunk) * chunk
            } else {
                (size + 64) * 3 / 2
            };
            let need = (args.ops as u64 * footprint * 3 / 2 + (256 << 20)) as usize;
            let cell = AllocOverwriteFree { size, ops: args.ops };
            let phases = run_cell(mode, need.min(6 << 30), args.latency, cell);
            for (i, p) in phases.iter().enumerate() {
                latency[i].last_mut().expect("row").push(fmt_latency(1e9 / p.ops_per_sec()));
                device[i].last_mut().expect("row").push(fmt_device(p));
            }
        }
    }

    let headers: Vec<&str> =
        std::iter::once("size").chain(Mode::all().iter().map(|m| m.label())).collect();
    for (i, name) in ["3a: allocate", "3b: overwrite", "3c: free"].iter().enumerate() {
        print_table(&format!("Figure {name} (latency/tx)"), &headers, &latency[i]);
        print_table(&format!("Figure {name} (device_us/op)"), &headers, &device[i]);
    }
    println!(
        "\nExpected shape (paper): pgl within ~10% of pmemobj; pgl-MLP beats \
         pmemobj-R for alloc (1.2-1.9x) and for overwrites >64B (1.1-1.5x); \
         free is size-insensitive (metadata only)."
    );
}
