//! Regression tests for the commit pipeline's read traffic and for where
//! its pre-images come from. A transaction keeps the bytes it loaded
//! (micro-buffers save them before a range is first handed out for
//! mutation), and the commit assembles every modified range's pre-image
//! — for the incremental checksum and for the parity patch — from
//! those, in DRAM. So a commit
//! reads the device **zero times** for old data, and what lands on the
//! media between open and commit (a scribble, a poisoned page) never
//! enters the parity row. Counter-pinned through `NvmDevice::stats()`
//! deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pangolin::ploc::WordCas;
use pangolin::{PMEMoid, PglConfig, PglPool};
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

/// A fresh MLPC pool (checksums + parity) on a fast device.
fn new_pool() -> (Arc<NvmDevice>, PglPool) {
    new_pool_with(PglConfig::small())
}

fn new_pool_with(cfg: PglConfig) -> (Arc<NvmDevice>, PglPool) {
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    (dev, pool)
}

/// Allocates a `size`-byte object filled with `fill`.
fn make_obj(pool: &PglPool, size: u64, fill: u8) -> PMEMoid {
    pool.tx(|tx| {
        let oid = tx.alloc(size, 1)?;
        tx.write(oid, 0, &vec![fill; size as usize])?;
        Ok(oid)
    })
    .unwrap()
}

/// Parity and every live object's checksum are consistent.
fn assert_sound(pool: &PglPool) {
    assert!(pool.verify_parity().unwrap(), "parity row inconsistent");
    assert!(pool.find_corrupt_objects().unwrap().is_empty(), "object checksum mismatch");
}

#[test]
fn partial_overwrite_commit_reads_the_device_zero_times() {
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, OBJ, 0x5A);

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

    // The invariant itself: no commit-time old-data read at all.
    assert_eq!((d.commit_old_reads, d.commit_old_bytes), (0, 0), "pre-images come from DRAM");

    // Total read traffic per transaction is the loads and nothing else:
    //   16 B   object header read at open (`obj_header_checked`)
    // + 256 B  segment 0, loaded and checked for the writes at 0 and 128
    //          (its sum is the header's)
    // + 256 B  segment 2, loaded and checked for the write at 512
    // +   4 B  segment 2's sum-table entry
    // Segments 1 and 3 are never read. The commit clears the segments it
    // dirtied from the verification cache, so every transaction loads
    // afresh. The fused-read pipeline this replaced added the three
    // ranges' pre-images (144 B) and the header's (16 B) at commit.
    assert_eq!(d.bytes_read, TXNS * (16 + 256 + 256 + 4), "the commit path reads nothing");
    assert_eq!(d.read_ops, TXNS * 4, "header check + two segment loads + one entry");
    assert_eq!(d.csum_passes, TXNS * 2, "one check per load");
    assert!(d.bytes_read < TXNS * (16 + OBJ + total_range_bytes() + 16));

    // And the data actually committed correctly.
    let data = pool.read_verified(oid).unwrap();
    for (i, (off, len)) in RANGES.iter().enumerate() {
        let fill = ((TXNS - 1) as u8).wrapping_mul(31).wrapping_add(i as u8);
        assert!(data[*off as usize..(*off + *len) as usize].iter().all(|&b| b == fill));
    }
    assert_sound(&pool);
}

#[test]
fn whole_object_overwrite_commit_reads_the_device_zero_times() {
    // The whole-object fast path fuses header+data into ONE pre-image —
    // the loaded header and the loaded bytes, both already in DRAM.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, OBJ, 0x11);
    const TXNS: u64 = 20;
    let s0 = dev.stats();
    for round in 0..TXNS {
        pool.tx(|tx| tx.write(oid, 0, &[round as u8 | 1; OBJ as usize])).unwrap();
    }
    let d = dev.stats().delta_since(&s0);
    assert_eq!((d.commit_old_reads, d.commit_old_bytes), (0, 0), "pre-image comes from DRAM");
    // Reads per txn: 16 (header check) + OBJ (the four segments) + 12
    // (their three table entries) — about half of the 2·(16 + OBJ) the
    // commit-time pre-image read used to make it.
    assert_eq!(d.bytes_read, TXNS * (16 + OBJ + 12), "no hidden reads");
    assert_sound(&pool);
}

#[test]
fn redo_log_reaches_media_by_nt_stores_only() {
    // A warm 4 KiB whole-object overwrite in MLPC: the redo entry, which
    // carries the commit flag, is staged in DRAM and goes out as one NT
    // span per log copy at the commit fence, so no log line is ever
    // flushed. What is flushed is the object's parity span — the log
    // stays valid, so no header word is written — and the fence count
    // (commit point + write-back) is what it was when the log used cached
    // stores.
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

    // One span: header, user bytes and the 15 sum-table entries behind
    // them (60 bytes).
    const TABLE: u64 = 60;
    let (start, end) = (oid.off - 16, oid.off + BIG + TABLE);
    let object_lines = (end - 1) / 64 - start / 64 + 1;
    assert_eq!(d.lines_flushed, object_lines, "the parity span; the log stays valid");
    let log_bytes = ulog::entry_space((16 + BIG + TABLE) as usize);
    assert_eq!(
        d.bytes_written_nt,
        (16 + BIG + TABLE) + 2 * log_bytes,
        "write-back + two log copies"
    );
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
        pool.counters().object_recoveries >= 1,
        "the scribble was detected and repaired at open"
    );
}

#[test]
fn steady_state_commits_do_not_allocate() {
    // After a few warm-up transactions (which grow the recycled scratch,
    // maps, frames, pre-image stores and lane buffers to their
    // steady-state capacity), a small-object overwrite transaction —
    // open, three writes, commit — must perform ZERO heap allocations:
    // the span guard holds its stripes inline and the shard list lives in
    // the commit scratch.
    let (_dev, pool) = new_pool();
    let oid = make_obj(&pool, OBJ, 1);
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
    assert_eq!(thread_allocs() - a0, 0, "allocations over {TXNS} steady-state transactions");

    // The same for range writes into a 256 KiB object: the segments they
    // make resident live in the recycled frame, and the parity guard
    // covers the commit's dirty spans only (two ranges, their two entries:
    // four stripes, held inline) — not the whole object, whose 32 stripes
    // at the 8 KiB lock granule would spill to a list.
    let big = make_obj(&pool, 256 << 10, 1);
    let write_two = |round: u64| {
        pool.tx(|tx| {
            tx.write(big, 1000 + 64 * (round % 7), &payload[..64])?;
            tx.write(big, 200_000 - 64 * (round % 5), &payload[..64])
        })
        .unwrap();
    };
    (0..10).for_each(write_two);
    let a0 = thread_allocs();
    (10..10 + TXNS).for_each(write_two);
    assert_eq!(thread_allocs() - a0, 0, "big-object transactions allocate nothing either");
}

#[test]
fn steady_state_detectable_cas_does_not_allocate() {
    // A detectable CAS takes one stripe guard over its word and the word
    // holding its segment's sum; the guard collects its stripe ids inline,
    // so a warm CAS allocates nothing.
    let (_dev, pool) = new_pool();
    let oid = make_obj(&pool, 512, 0);
    let cas = |round: u64| {
        let at = 8 * (round % 40);
        let res = pool.atomic_update(oid, at, round / 40, round / 40 + 1, round).unwrap();
        assert_eq!(res, WordCas::Applied);
    };
    (0..40).for_each(cas);
    const OPS: u64 = 50;
    let a0 = thread_allocs();
    (40..40 + OPS).for_each(cas);
    assert_eq!(thread_allocs() - a0, 0, "allocations over {OPS} steady-state CASes");
}

#[test]
fn range_write_into_a_big_object_reads_its_segment_its_entry_and_the_header() {
    // Nothing is loaded at open, and a write loads the segment it covers
    // and that segment's sum, not the object: 16 (header) + 256 + 4, one
    // check of 256 bytes. Warm, the transaction allocates nothing.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, 256 << 10, 0x11);
    let write = |round: u8| pool.tx(|tx| tx.write(oid, 100_000, &[round; 64])).unwrap();
    (0..10).for_each(write);
    let (s0, a0) = (dev.stats(), thread_allocs());
    write(0x22);
    assert_eq!(thread_allocs() - a0, 0, "a warm transaction allocates nothing");
    let d = dev.stats().delta_since(&s0);
    assert_eq!((d.bytes_read, d.read_ops), (16 + 256 + 4, 3), "header + segment 390 + entry");
    assert_eq!((d.commit_old_reads, d.csum_passes), (0, 1));
    assert_sound(&pool);
}

#[test]
fn write_at_offset_zero_takes_the_header_along() {
    // The header sits in front of offset 0 on NVMM and in the
    // micro-buffer, so a range that starts there is one span with it: one
    // redo entry, one store, one parity patch. The same write at offset 8
    // logs and stores range and header separately — under the object's
    // one guard and one write-back fence, so it fences as often.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, 4096, 0x11);
    let cost = |off: u64, fill: u8| {
        let s0 = dev.stats();
        pool.tx(|tx| tx.write(oid, off, &[fill; 8])).unwrap();
        dev.stats().delta_since(&s0)
    };
    cost(8, 0x01); // warm the lane and the object
    let (at0, at8) = (cost(0, 0x22), cost(8, 0x33));
    assert_eq!(
        at0.bytes_written_nt,
        (16 + 8) + 2 * ulog::entry_space(16 + 8),
        "one flagged Data entry per log copy, one object store"
    );
    assert_eq!(
        at8.bytes_written_nt,
        (8 + 16) + 2 * (ulog::entry_space(8) + ulog::entry_space(16)),
        "range and header logged and stored apart"
    );
    assert_eq!((at0.fences, at8.fences), (2, 2), "commit point + one fence per stored object");
    assert_eq!(at0.bytes_read, at8.bytes_read);
    let mut want = vec![0x11; 4096];
    want[..8].fill(0x22);
    want[8..16].fill(0x33);
    assert_eq!(pool.read_verified(oid).unwrap(), want);
    assert_sound(&pool);
}

#[test]
fn one_log_copy_is_16_byte_headers_and_no_commit_record() {
    // The exact bytes of one log copy (`TxStats::log_bytes`, and the NT
    // bytes behind it: the object stores plus two copies). A warm whole
    // overwrite of a 64-byte object logs one entry, header and data, that
    // carries the commit flag: 16 + 80 (144 with 32-byte headers and a
    // commit record). An 8-byte write at offset 8 logs range and header
    // apart: (16 + 8) + (16 + 16) = 56 (120 before).
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, 64, 0x11);
    let cost = |off: u64, len: usize, fill: u8| {
        let s0 = dev.stats();
        let ((), st) = pool.tx_with_stats(|tx| tx.write(oid, off, &vec![fill; len])).unwrap();
        (st.log_bytes, dev.stats().delta_since(&s0).bytes_written_nt)
    };
    cost(8, 8, 0x01); // warm the lane
    let (whole, whole_nt) = cost(0, 64, 0x22);
    assert_eq!(whole, 16 + 80, "one flagged entry: header + object header + data");
    assert_eq!(whole_nt, 80 + 2 * whole, "the object store and two log copies");
    let (small, small_nt) = cost(8, 8, 0x33);
    assert_eq!(small, (16 + 8) + (16 + 16), "range entry + flagged header entry");
    assert_eq!(small_nt, (8 + 16) + 2 * small);
    let mut want = vec![0x22; 64];
    want[8..16].fill(0x33);
    assert_eq!(pool.read_verified(oid).unwrap(), want);
    assert_sound(&pool);
}

#[test]
fn alloc_and_free_in_one_transaction_fence_four_times() {
    // Allocation intents, construction write-back, the commit point, and
    // ONE fence for the allocator's two bitmap words, stored under one
    // guard: 4 (5 when each word was fenced on its own).
    let (dev, pool) = new_pool();
    let mut victims: Vec<_> = (0..3u8).map(|i| make_obj(&pool, 64, i)).collect();
    let mut swap = || {
        let victim = victims.pop().unwrap();
        let s0 = dev.stats();
        pool.tx(|tx| {
            let oid = tx.alloc(64, 1)?;
            tx.write(oid, 0, &[0x5A; 64])?;
            tx.free(victim)
        })
        .unwrap();
        dev.stats().delta_since(&s0)
    };
    swap(); // warm: the run exists, the watermark covers it
    let d = swap();
    assert_eq!(d.fences, 4, "intents, construction, commit, one for both bitmap words");
    assert_sound(&pool);
}

#[test]
fn unchanged_overwrite_skips_parity_persist() {
    // Writing back bytes identical to the pre-image produces an all-zero
    // parity diff: the pipeline must not issue a single atomic XOR, flush
    // a parity line or add a fence for it.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, 256, 0x77);
    let s0 = dev.stats();
    pool.tx(|tx| tx.write(oid, 64, &[0x77; 64])).unwrap(); // identical bytes
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.atomic_xors, 0, "all-zero diff words never reach the device");
    assert_eq!(d.xor_bytes, 0);
    assert_eq!(d.commit_old_reads, 0, "and the pre-image was not read for it");
    assert_eq!(d.lines_flushed, 0, "the log stays valid: no generation word is written");
    assert_eq!(d.fences, 2, "commit point, one for range and header — none for parity");
    assert_sound(&pool);
}

#[test]
fn add_range_without_a_store_commits_a_zero_diff() {
    // A marked range nobody stored to: its frame bytes are its pre-image,
    // so old == new — no XOR, no parity flush.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, 256, 0x42);
    let s0 = dev.stats();
    pool.tx(|tx| tx.add_range(oid, 32, 96)).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!((d.atomic_xors, d.xor_bytes), (0, 0), "zero diff");
    assert_eq!(d.lines_flushed, 0, "nothing: the log stays valid");
    assert_eq!(d.commit_old_reads, 0);
    assert_eq!(pool.read_verified(oid).unwrap(), vec![0x42; 256]);
    assert_sound(&pool);
}

#[test]
fn the_commit_that_wraps_the_generation_window_rewrites_the_header_once() {
    // A commit leaves its log valid and writes no header word, until the
    // lane's next generation would leave the header's window: that one
    // commit rewrites both header copies (2 atomic stores, 2 lines).
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, 64, 0);
    let mut costs = Vec::new();
    for i in 0..ulog::GEN_LIVE + 16 {
        let s0 = dev.stats();
        pool.tx(|tx| tx.write(oid, 0, &[(i % 255) as u8 + 1; 64])).unwrap();
        let d = dev.stats().delta_since(&s0);
        costs.push((d.atomic_stores, d.lines_flushed));
    }
    let plain = costs[0];
    assert_eq!(plain.0, 0, "a commit stores no header word");
    let wraps: Vec<_> = costs.iter().enumerate().filter(|(_, &c)| c != plain).collect();
    assert_eq!(wraps.len(), 1, "one commit in the window differs: {wraps:?}");
    assert_eq!(*wraps[0].1, (2, plain.1 + 2), "both header copies, once");
    assert_sound(&pool);
}

#[test]
fn scribble_between_open_and_commit_stays_out_of_parity() {
    // The scribble lands after the verified open, inside the range about
    // to be written. The pre-image is what was loaded, not what the media
    // holds now, so the parity patch is `loaded ⊕ new` and the scribbled
    // bytes are simply overwritten. (Reading the pre-image at commit
    // leaked `loaded ⊕ scribbled` into the whole stripe.)
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, OBJ, 0x11);
    pool.tx(|tx| {
        tx.open(oid)?; // verified load
        dev.scribble(oid.off + 64, &[0xAB; 32]).unwrap();
        tx.write(oid, 32, &[0x22; 128])
    })
    .unwrap();
    assert!(pool.verify_parity().unwrap(), "scribble residue leaked into parity");
    let mut want = vec![0x11; OBJ as usize];
    want[32..160].fill(0x22);
    assert_eq!(pool.read_verified(oid).unwrap(), want);
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

#[test]
fn commit_object_reads_the_object_once() {
    // `pgl_commit` diffs the handle against its transaction's own load:
    // the deferred header read of the lazy open and one read of the object
    // with its sum table, which the open just verified — no second read
    // to diff against, and none at commit.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, OBJ, 0x11);
    let mut obj = pool.open_object(oid).unwrap();
    obj.user_mut()[700] = 0x22; // unmarked
    let s0 = dev.stats();
    pool.commit_object(obj).unwrap();
    let d = dev.stats().delta_since(&s0);
    let footprint = OBJ + 12; // user bytes and the sums of segments 1..=3
    assert_eq!((d.read_ops, d.bytes_read), (2, 16 + footprint));
    assert_eq!((d.commit_old_reads, d.csum_passes), (0, 0));
    let mut want = vec![0x11; OBJ as usize];
    want[700] = 0x22;
    assert_eq!(pool.read_verified(oid).unwrap(), want);
    assert_sound(&pool);
}

#[test]
fn scribble_between_open_object_and_commit_object_is_repaired_not_committed() {
    // The commit's checked load finds the scribble and repairs it from
    // parity before the diff: the handle holds the object as opened, so
    // nothing differs, nothing is logged and nothing is written back.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, OBJ, 0x11);
    let obj = pool.open_object(oid).unwrap();
    pangolin::inject::scribble_object(&pool, oid, 300, 40, 0xAB).unwrap();
    let s0 = dev.stats();
    pool.commit_object(obj).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.bytes_written_nt, 0, "no redo log and no write-back");
    assert_eq!(pool.counters().object_recoveries, 1);
    assert_eq!(pool.read_verified(oid).unwrap(), vec![0x11; OBJ as usize]);
    assert_sound(&pool);
}

#[test]
fn scribble_between_open_and_commit_stays_out_of_parity_sparse() {
    // Same, for a 128 KiB object: the segments the marked range made
    // resident keep their loaded bytes.
    const BIG: u64 = 128 << 10;
    let mut cfg = PglConfig::small();
    cfg.pool.size = 32 << 20;
    cfg.pool.zone_size = 16 << 20;
    let (dev, pool) = new_pool_with(cfg);
    let oid = make_obj(&pool, BIG, 0x11);
    pool.tx(|tx| {
        tx.add_range(oid, 70_000, 300)?; // loads the range
        dev.scribble(oid.off + 70_100, &[0xAB; 40]).unwrap();
        tx.write(oid, 70_000, &[0x22; 300])
    })
    .unwrap();
    assert!(pool.verify_parity().unwrap(), "scribble residue leaked into parity");
    let mut want = vec![0x11; BIG as usize];
    want[70_000..70_300].fill(0x22);
    assert_eq!(pool.read_verified(oid).unwrap(), want);
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

#[test]
fn scribble_outside_the_written_range_is_repaired_by_the_next_verified_read() {
    // The commit touches neither the scribbled bytes nor their parity
    // columns, and its checksum delta starts from the loaded (verified)
    // state: parity and checksum stay consistent with the unscribbled
    // content, so the next verified read detects and repairs the damage.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, OBJ, 0x11);
    pool.tx(|tx| {
        tx.open(oid)?;
        dev.scribble(oid.off + 512, &[0xAB; 32]).unwrap();
        tx.write(oid, 0, &[0x22; 64])
    })
    .unwrap();
    let mut want = vec![0x11; OBJ as usize];
    want[..64].fill(0x22);
    assert_eq!(pool.read_verified(oid).unwrap(), want, "repaired from parity");
    assert_sound(&pool);
}

#[test]
fn page_poisoned_between_open_and_commit_does_not_fail_the_commit() {
    // The commit no longer reads the object's pages, so a media error
    // that appears after the open cannot turn it into an unrecoverable
    // "media error during commit": the new bytes and their parity patch
    // go out, and the next read rebuilds the page from parity.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, OBJ, 0x11);
    pool.tx(|tx| {
        tx.open(oid)?;
        dev.poison_page(oid.off / 4096).unwrap();
        tx.write(oid, 100, &[0x22; 200])
    })
    .unwrap();
    let mut want = vec![0x11; OBJ as usize];
    want[100..300].fill(0x22);
    assert_eq!(pool.read_verified(oid).unwrap(), want, "page rebuilt from parity");
    assert_sound(&pool);
}

#[test]
fn raw_user_mut_then_add_range_commits_consistently() {
    // Paper-style usage in the "wrong" order: modify through the raw
    // mutable view first, mark afterwards. `user_mut` saved the whole
    // loaded object before handing it out, so the pre-image is intact.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, 512, 0x11);
    let s0 = dev.stats();
    pool.tx(|tx| {
        tx.ubuf_mut(oid)?.user_mut()[100..140].fill(0x22);
        tx.add_range(oid, 100, 40)
    })
    .unwrap();
    assert_eq!(dev.stats().delta_since(&s0).commit_old_reads, 0);
    let mut want = vec![0x11; 512];
    want[100..140].fill(0x22);
    assert_eq!(pool.read_verified(oid).unwrap(), want);
    assert_sound(&pool);
}

#[test]
fn unmarked_change_behind_a_range_in_the_last_segment_keeps_its_sum() {
    // A range in the last segment of a 4 136-byte object (17 segments)
    // is written back through the segment's end, to reach the sum entry
    // behind it. A change made through the raw view further on in that
    // segment, and never marked, rides along: it must go with the
    // segment's sum and parity, not leave a segment that fails its check.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, 4136, 0x11);
    let s0 = dev.stats();
    pool.tx(|tx| {
        let user = tx.ubuf_mut(oid)?.user_mut();
        user[4130] = 0x33;
        user[4100] = 0x22;
        tx.add_range(oid, 4100, 1)
    })
    .unwrap();
    assert_eq!(dev.stats().delta_since(&s0).commit_old_reads, 0);
    let got = pool.read_verified(oid).unwrap();
    assert_eq!((got[4100], got[4099], got[4101]), (0x22, 0x11, 0x11));
    assert_eq!(pool.counters().object_recoveries, 0, "no repair needed");
    assert_sound(&pool);
}

#[test]
fn repeated_writes_keep_the_first_loaded_bytes_as_pre_image() {
    // Overlapping and adjacent writes to one object, in one transaction
    // and across the bodies of one `tx_batch`: a range's pre-image is what
    // was loaded, never an earlier write's bytes.
    let (_dev, pool) = new_pool();
    let a = make_obj(&pool, 512, 0x11);
    let b = make_obj(&pool, 512, 0x33);
    pool.tx(|tx| {
        tx.write(a, 100, &[0x22; 50])?;
        tx.write(a, 120, &[0x44; 60])?; // overlaps the first
        tx.write(a, 180, &[0x55; 20])?; // adjacent to the second
        tx.write(a, 90, &[0x66; 20]) // overlaps the first from below
    })
    .unwrap();
    let mut want = vec![0x11; 512];
    want[100..150].fill(0x22);
    want[120..180].fill(0x44);
    want[180..200].fill(0x55);
    want[90..110].fill(0x66);
    assert_eq!(pool.read_verified(a).unwrap(), want);
    assert_sound(&pool);

    pool.tx_batch(3, |i, tx| tx.write(b, 40 + 8 * i as u64, &[0x70 + i as u8; 24])).unwrap();
    let mut want = vec![0x33; 512];
    for i in 0..3 {
        want[40 + 8 * i..64 + 8 * i].fill(0x70 + i as u8);
    }
    assert_eq!(pool.read_verified(b).unwrap(), want);
    assert_sound(&pool);
}

#[test]
fn lazy_open_materializes_at_first_write_and_commits_without_reads() {
    // A verified-fresh object opens lazily (no device read); the first
    // write pays the header read and loads just its own bytes — the cache
    // vouches for their segment, so no checksum pass — and the commit
    // still reads nothing.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, OBJ, 0x11);
    pool.read_verified(oid).unwrap(); // populate the verification cache
    let s0 = dev.stats();
    pool.tx(|tx| {
        tx.open(oid)?;
        assert_eq!(dev.stats().delta_since(&s0).bytes_read, 0, "lazy open reads nothing");
        tx.write(oid, 8, &[0x22; 8])
    })
    .unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.bytes_read, 16 + 8, "header check + the vouched range");
    assert_eq!((d.commit_old_reads, d.csum_passes), (0, 0));
    let mut want = vec![0x11; OBJ as usize];
    want[8..16].fill(0x22);
    assert_eq!(pool.read_verified(oid).unwrap(), want);
    assert_sound(&pool);
}

#[test]
fn parity_patch_flushes_the_lines_it_dirtied_not_its_span() {
    // A whole-object overwrite that changes one word: the diff-XOR knows
    // which parity line it dirtied and flushes that one, at 4 KiB and at
    // 512 B alike — one plain-store patch path, no atomic XOR at any size.
    // (Flushing the patched 4 KiB span cost 64-65 lines.)
    for size in [4096, 512] {
        let (dev, pool) = new_pool();
        let oid = make_obj(&pool, size as u64, 0x77);
        let mut new = vec![0x77u8; size];
        new[size / 2..size / 2 + 8].fill(0x78);
        let s0 = dev.stats();
        pool.tx(|tx| tx.write(oid, 0, &new)).unwrap();
        let d = dev.stats().delta_since(&s0);
        assert!(d.xor_bytes > 0, "the plain diff XOR patched parity ({size} B)");
        assert_eq!(d.atomic_xors, 0, "no word-atomic patch ({size} B)");
        assert_eq!(d.lines_flushed, 1 + 1, "the data's one parity line, the header's ({size} B)");
        assert_eq!(pool.read_verified(oid).unwrap(), new);

        // A zero-diff overwrite still flushes no parity line at all.
        let s0 = dev.stats();
        pool.tx(|tx| tx.write(oid, 0, &new)).unwrap();
        assert_eq!(dev.stats().delta_since(&s0).lines_flushed, 0, "no line at all");
        assert_sound(&pool);
    }
}

#[test]
fn parity_patch_flushes_the_same_lines_on_the_replica() {
    use pangolin::parity::ParityEngine;
    use pgl_pmemobj::{Layout, PoolConfig, PoolIo};

    let cfg = PoolConfig::small();
    let layout = Layout::new(cfg).unwrap();
    let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
    let rep = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
    let io = PoolIo::replicated(dev.clone(), rep.clone());
    let eng = ParityEngine::new(layout);
    let off = layout.chunk_base(0, layout.zone.cm_chunks);
    let old = vec![0u8; 4096];
    let mut new = old.clone();
    new[100..108].fill(0xEE); // one line
    new[3000..3008].fill(0xEE); // and another, far away
    let guard = eng.lock_span(off, 4096).unwrap();
    let (p0, r0) = (dev.stats(), rep.stats());
    // Patch in, then out again: a diff XORed twice restores the row.
    assert!(eng.patch(&guard, &io, off, &old, &new).unwrap());
    assert!(eng.patch(&guard, &io, off, &new, &old).unwrap());
    assert!(!eng.patch(&guard, &io, off, &old, &old).unwrap());
    for d in [dev.stats().delta_since(&p0), rep.stats().delta_since(&r0)] {
        assert_eq!(d.lines_flushed, 2 * 2, "two dirtied lines per patch");
        assert_eq!(d.fences, 0, "the caller owns the fence");
    }
}

#[test]
fn no_write_path_patches_parity_with_atomic_xor() {
    // Every parity patch is a plain diff XOR under an exclusive stripe
    // guard: a small-object overwrite (the `tx_small` shape), a
    // transaction that allocates one object and frees another (allocator
    // meta ops and a construction write-back) and a detectable CAS each
    // leave the device's atomic-XOR counter untouched.
    let (dev, pool) = new_pool();
    let oid = make_obj(&pool, 256, 0x11);
    let victim = make_obj(&pool, 64, 0x22);
    let s0 = dev.stats();
    pool.tx(|tx| {
        tx.write(oid, 8, &[0x33; 16])?;
        tx.write(oid, 100, &[0x44; 120])
    })
    .unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.atomic_xors, 0, "small-object overwrite");
    assert!(d.xor_bytes > 0, "it patched parity");

    let s0 = dev.stats();
    let fresh = pool
        .tx(|tx| {
            tx.free(victim)?;
            let fresh = tx.alloc(64, 1)?;
            tx.write(fresh, 0, &[0x55; 64])?;
            Ok(fresh)
        })
        .unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.atomic_xors, 0, "alloc + free");
    assert!(d.xor_bytes > 0, "it patched parity");

    let s0 = dev.stats();
    let old = u64::from_le_bytes([0x55; 8]);
    assert_eq!(pool.atomic_update(fresh, 8, old, 7, 1).unwrap(), WordCas::Applied);
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.atomic_xors, 0, "detectable CAS");
    assert!(d.xor_bytes > 0, "it patched parity");
    assert_sound(&pool);
}
