//! Criterion bench of the commit data path: whole-object overwrite
//! commits across 64 B – 4 KiB objects and all six Table 2 modes, under
//! the Optane-like latency model (so NVM *read* traffic — the open-time
//! load; the commit itself reads nothing — shows up in wall time, not
//! just in counters).
//!
//! Each iteration rewrites the object with fresh bytes, so the parity
//! diff is never all-zero and the bench exercises the full pipeline:
//! open+verify, incremental checksum, redo log, write-back, parity patch.
//!
//! Set `CRITERION_JSON=path` to append one JSON line per benchmark
//! (machine-readable medians; see `BENCH_commit_path.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pgl_bench::{make_store, Mode};
use pgl_kv::store::Store;
use pgl_nvm::LatencyModel;

fn commit_overwrite(c: &mut Criterion) {
    let mut g = c.benchmark_group("commit_path");
    for mode in Mode::all() {
        let store = make_store(mode, 256 << 20, LatencyModel::optane());
        for &size in &[64usize, 256, 1024, 4096] {
            let oid = store
                .txn(&mut |tx| {
                    let oid = tx.alloc(size as u64, 1)?;
                    tx.write_bytes(oid, 0, &vec![0xEE; size])?;
                    Ok(oid)
                })
                .unwrap();
            let mut payload = vec![0u8; size];
            let mut round: u8 = 0;
            g.throughput(Throughput::Bytes(size as u64));
            g.bench_with_input(BenchmarkId::new(mode.label(), size), &oid, |b, oid| {
                b.iter(|| {
                    round = round.wrapping_add(1);
                    payload.fill(round | 1);
                    store.txn(&mut |tx| tx.write_bytes(*oid, 0, &payload)).unwrap()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, commit_overwrite);
criterion_main!(benches);
