//! Regression tests for the fused commit pipeline's read traffic: each
//! modified range's old NVMM bytes are read **exactly once** per commit
//! (feeding both the incremental checksum and the parity patch), and the
//! commit path performs no hidden extra reads. The double-read pipeline
//! this replaced read every range's pre-image twice — once for the
//! Adler32 delta, once inside the parity write-back — so total read
//! traffic here also pins the ~`commit_old_bytes`-per-workload saving.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pangolin::{PglConfig, PglPool};
use pgl_nvm::{DeviceConfig, NvmDevice};
use pgl_pmemobj::ulog;

/// Counting allocator: lets the steady-state test assert the commit path
/// stopped allocating. The count is per thread — the tests of this binary
/// run on parallel threads, and a process-wide counter would charge the
/// measuring test for its siblings' allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by the calling thread so far.
fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count_alloc() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const OBJ: u64 = 1024;
/// The three disjoint ranges each transaction overwrites.
const RANGES: [(u64, u64); 3] = [(0, 32), (128, 64), (512, 48)];

fn total_range_bytes() -> u64 {
    RANGES.iter().map(|(_, l)| l).sum()
}

#[test]
fn one_old_read_per_modified_range() {
    let cfg = PglConfig::small(); // pgl-MLPC: checksums + parity
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(OBJ, 1)?;
            tx.write(oid, 0, &[0x5A; OBJ as usize])?;
            Ok(oid)
        })
        .unwrap();

    const TXNS: u64 = 100;
    let s0 = dev.stats();
    for round in 0..TXNS {
        pool.tx(|tx| {
            for (i, (off, len)) in RANGES.iter().enumerate() {
                let fill = (round as u8).wrapping_mul(31).wrapping_add(i as u8);
                tx.write(oid, *off, &vec![fill; *len as usize])?;
            }
            Ok(())
        })
        .unwrap();
    }
    let d = dev.stats().delta_since(&s0);

    // The invariant itself: exactly one commit-time old-data read per
    // modified range, covering exactly the modified bytes.
    assert_eq!(d.commit_old_reads, TXNS * RANGES.len() as u64, "one old read per range");
    assert_eq!(d.commit_old_bytes, TXNS * total_range_bytes(), "old reads cover the ranges only");

    // Total read traffic per transaction is fully accounted for:
    //   16 B   object header read at open (`obj_header_checked`)
    // + 1024 B whole-object load + verify at open (`load_ubuf`)
    // +  144 B the three ranges' pre-images, read ONCE (stage 2)
    // +   16 B header pre-image for the header's own parity patch
    // The double-read pipeline added another 144 B (a second pre-image
    // read inside the parity write-back) — asserting equality here proves
    // it is gone, cutting commit-time old-data traffic in half.
    let per_txn = 16 + OBJ + total_range_bytes() + 16;
    assert_eq!(d.bytes_read, TXNS * per_txn, "no hidden reads on the commit path");
    let double_read_total = TXNS * (per_txn + total_range_bytes());
    assert!(d.bytes_read < double_read_total, "strictly below the double-read pipeline");

    // And the data actually committed correctly.
    let data = pool.read_verified(oid).unwrap();
    for (i, (off, len)) in RANGES.iter().enumerate() {
        let fill = ((TXNS - 1) as u8).wrapping_mul(31).wrapping_add(i as u8);
        assert!(data[*off as usize..(*off + *len) as usize].iter().all(|&b| b == fill));
    }
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn whole_object_overwrite_reads_one_fused_preimage() {
    // The whole-object fast path fuses header+data into ONE pre-image
    // read of exactly 16+size bytes per commit.
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(OBJ, 1)?;
            tx.write(oid, 0, &[0x11; OBJ as usize])?;
            Ok(oid)
        })
        .unwrap();
    const TXNS: u64 = 20;
    let s0 = dev.stats();
    for round in 0..TXNS {
        pool.tx(|tx| tx.write(oid, 0, &[round as u8 | 1; OBJ as usize])).unwrap();
    }
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.commit_old_reads, TXNS, "one fused pre-image read per commit");
    assert_eq!(d.commit_old_bytes, TXNS * (16 + OBJ), "header+data read together");
    // Whole overwrites also skip open-time verification soundly; total
    // reads per txn: 16 (header check) + OBJ (open load) + 16+OBJ (fused
    // pre-image) — nothing else.
    assert_eq!(d.bytes_read, TXNS * (16 + OBJ + 16 + OBJ), "no hidden reads");
    assert!(pool.verify_parity().unwrap());
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

#[test]
fn redo_log_reaches_media_by_nt_stores_only() {
    // A warm 4 KiB whole-object overwrite in MLPC: the redo entry and the
    // commit record are staged in DRAM and go out as one NT span per log
    // copy at the commit fence, so no log line is ever flushed. What is
    // flushed is the object's parity span and the two generation words of
    // the lazy log invalidation — and the fence count (commit point +
    // write-back) is what it was when the log used cached stores.
    const BIG: u64 = 4096;
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(BIG, 1)?;
            tx.write(oid, 0, &[0x11; BIG as usize])?;
            Ok(oid)
        })
        .unwrap();
    for round in 0..3u8 {
        pool.tx(|tx| tx.write(oid, 0, &[round | 0x20; BIG as usize])).unwrap();
    }
    let s0 = dev.stats();
    pool.tx(|tx| tx.write(oid, 0, &[0xAA; BIG as usize])).unwrap();
    let d = dev.stats().delta_since(&s0);

    let (start, end) = (oid.off - 16, oid.off + BIG);
    let object_lines = (end - 1) / 64 - start / 64 + 1;
    assert_eq!(d.lines_flushed, object_lines + 2, "parity span + two generation words");
    let log_bytes = ulog::entry_space(16 + BIG as usize) + ulog::entry_space(0);
    assert_eq!(d.bytes_written_nt, (16 + BIG) + 2 * log_bytes, "write-back + two log copies");
    assert_eq!(d.fences, 2, "commit point + write-back, as before");
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn scribbled_whole_object_overwrite_keeps_parity_consistent() {
    // A scribble bypasses parity, so the parity row reflects the
    // pre-scribble content. The overwrite path must verify (and repair)
    // at open so the pre-image it patches parity with matches what the
    // parity row actually holds. (Regression guard: a short-lived
    // "skip open verification for full overwrites" optimization left a
    // permanent pre-scribble⊕scribble residue in the whole stripe.)
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(256, 1)?;
            tx.write(oid, 0, &[0x11; 256])?;
            Ok(oid)
        })
        .unwrap();
    dev.scribble(oid.off + 64, &[0xAB; 32]).unwrap();
    pool.tx(|tx| tx.write(oid, 0, &[0x22; 256])).unwrap(); // whole-object overwrite
    assert!(pool.verify_parity().unwrap(), "scribble residue leaked into parity");
    assert_eq!(pool.read_verified(oid).unwrap(), vec![0x22; 256]);
    assert!(
        pool.counters().object_recoveries.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "the scribble was detected and repaired at open"
    );
}

#[test]
fn steady_state_commits_do_not_allocate() {
    // After a few warm-up transactions (which grow the recycled scratch,
    // maps, frames and lane buffers to their steady-state capacity), a
    // small-object overwrite commit must perform ZERO heap allocations —
    // per-range and per-object alike. The parity span guard is the one
    // permitted exception (its lock-guard vectors are sized per span), so
    // the bound below is a small constant, not proportional to ranges.
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev, cfg).unwrap();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(OBJ, 1)?;
            tx.write(oid, 0, &[1u8; OBJ as usize])?;
            Ok(oid)
        })
        .unwrap();
    let payload = [7u8; 96];
    for _ in 0..10 {
        pool.tx(|tx| {
            tx.write(oid, 0, &payload)?;
            tx.write(oid, 256, &payload)?;
            tx.write(oid, 700, &payload)
        })
        .unwrap();
    }
    const TXNS: u64 = 50;
    let a0 = thread_allocs();
    for _ in 0..TXNS {
        pool.tx(|tx| {
            tx.write(oid, 0, &payload)?;
            tx.write(oid, 256, &payload)?;
            tx.write(oid, 700, &payload)
        })
        .unwrap();
    }
    let per_txn = (thread_allocs() - a0) as f64 / TXNS as f64;
    assert!(
        per_txn <= 2.0,
        "steady-state commit allocates {per_txn} times per txn (want ≤ 2: span-guard vectors only)"
    );
}

#[test]
fn unchanged_overwrite_skips_parity_persist() {
    // Writing back bytes identical to the pre-image produces an all-zero
    // parity diff: the fused pipeline must not issue a single atomic XOR
    // (nor the trailing flush+fence) for it.
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(256, 1)?;
            tx.write(oid, 0, &[0x77; 256])?;
            Ok(oid)
        })
        .unwrap();
    let s0 = dev.stats();
    pool.tx(|tx| tx.write(oid, 64, &[0x77; 64])).unwrap(); // identical bytes
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.atomic_xors, 0, "all-zero diff words never reach the device");
    assert_eq!(d.commit_old_reads, 1, "the pre-image is still read once");
    assert!(pool.verify_parity().unwrap());
}
