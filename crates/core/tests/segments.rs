//! The per-segment sum table as an on-media word class (`pangolin::segment`
//! module docs): a hostile-image battery in the shape of `watermark.rs`.
//!
//! A table entry that is bit-flipped, zeroed, all-ones or plausible but
//! wrong is a scribble like any other: the next load of its segment — a
//! scrub, a verified read or a transaction's write — fails the check and
//! repairs the object from parity, and the pool keeps matching its shadow
//! model through a transaction, a close and a reopen. Corruption parity
//! agrees with (an entry and its segment changed together, or a header size
//! whose table would end past its block) cannot be repaired: it ends in a
//! typed error or a quarantine, never in a panic or a wrong byte returned as
//! verified. An image in the one-sum-per-object format is refused at open.

use std::sync::Arc;

use pangolin::segment::{self, SEG};
use pangolin::{PMEMoid, PglConfig, PglError, PglPool};
use pgl_nvm::{DeviceConfig, NvmDevice};
use pgl_pmemobj::pool::{read_header, write_header};

/// A radix-tree-sized object: 17 segments, 16 table entries.
const SIZE: u64 = 4136;

fn create() -> (Arc<NvmDevice>, PglPool) {
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    (dev, pool)
}

fn reopen(dev: &Arc<NvmDevice>) -> PglPool {
    PglPool::options().open(dev.clone()).unwrap()
}

fn model() -> Vec<u8> {
    (0..SIZE as usize).map(|i| (i * 7 % 251) as u8).collect()
}

fn make(pool: &PglPool) -> PMEMoid {
    pool.tx(|tx| {
        let oid = tx.alloc(SIZE, 1)?;
        tx.write(oid, 0, &model())?;
        Ok(oid)
    })
    .unwrap()
}

/// Commits a write to `spare`, so that the lane's newest redo log no
/// longer names the object under test: a committed log stays valid until
/// the lane's next commit, and a reopen replays it, which rewrites a
/// scribble in the bytes it logged before any check could find it.
fn supersede(pool: &PglPool, spare: PMEMoid) {
    pool.tx(|tx| tx.write(spare, 0, &[0x5A])).unwrap();
}

/// Absolute offset of segment `k`'s table entry.
fn entry(oid: PMEMoid, k: u64) -> u64 {
    oid.off + segment::entry_off(SIZE, k)
}

fn read4(dev: &NvmDevice, off: u64) -> [u8; 4] {
    dev.read_slice(off, 4).unwrap().try_into().unwrap()
}

/// Overwrites `bytes` at `off` *and* patches the parity row with the same
/// delta: corruption the parity row agrees with, which no repair can undo.
fn corrupt_with_parity(pool: &PglPool, off: u64, bytes: &[u8]) {
    let dev = pool.io().dev();
    let layout = pool.layout();
    let old = dev.read_slice(off, bytes.len()).unwrap().to_vec();
    for (i, (o, n)) in old.iter().zip(bytes).enumerate() {
        let at = off + i as u64;
        let (zone, _, col) = layout.row_col_of(at).unwrap();
        let p = layout.parity_off(zone, col);
        let cur = dev.read_slice(p, 1).unwrap()[0];
        dev.scribble(p, &[cur ^ o ^ n]).unwrap();
    }
    dev.scribble(off, bytes).unwrap();
}

/// The hostile values of one entry: each differs from `good`.
fn hostile(good: [u8; 4], other: [u8; 4]) -> Vec<(&'static str, [u8; 4])> {
    let flip = u32::from_le_bytes(good) ^ (1 << 13);
    vec![
        ("bit flip", flip.to_le_bytes()),
        ("zero", [0; 4]),
        ("all-ones", [0xFF; 4]),
        // Another segment's sum: a valid Adler32, just not this one's.
        ("plausible", other),
    ]
}

/// Shadow-model check after a close and reopen: content, parity, sums.
fn assert_model(dev: &Arc<NvmDevice>, oid: PMEMoid, want: &[u8], what: &str) {
    let pool = reopen(dev);
    assert_eq!(pool.read_verified(oid).unwrap(), want, "{what}: content after reopen");
    assert!(pool.verify_parity().unwrap(), "{what}: parity after reopen");
    assert!(pool.find_corrupt_objects().unwrap().is_empty(), "{what}: every segment checks");
}

#[test]
fn a_hostile_entry_is_repaired_from_parity_by_scrub_read_or_write() {
    for k in [1, 9, 16] {
        let (dev, pool) = create();
        let oid = make(&pool);
        let spare = pool.tx(|tx| tx.alloc(8, 1)).unwrap();
        supersede(&pool, spare);
        drop(pool);
        let good = read4(&dev, entry(oid, k));
        let other = read4(&dev, entry(oid, if k == 1 { 2 } else { k - 1 }));
        for (what, bad) in hostile(good, other) {
            for path in ["scrub", "read", "write"] {
                let what = format!("segment {k}, {what}, found by {path}");
                dev.scribble(entry(oid, k), &bad).unwrap();
                let pool = reopen(&dev); // a cold verification cache
                let mut want = model();
                match path {
                    "scrub" => {
                        let r = pool.scrub_now().unwrap();
                        assert_eq!(r.objects_repaired, 1, "{what}");
                    }
                    "read" => {
                        let mut got = [0u8; 8];
                        pool.read_verified_at(oid, k * SEG + 3, &mut got).unwrap();
                        assert_eq!(got[..], model()[(k * SEG + 3) as usize..][..8], "{what}");
                    }
                    _ => {
                        // The write's load of segment k fails the check
                        // and repairs before anything is handed out.
                        pool.tx(|tx| tx.write(oid, k * SEG + 5, &[0xEE; 3])).unwrap();
                        want[(k * SEG + 5) as usize..][..3].fill(0xEE);
                    }
                }
                assert_eq!(read4(&dev, entry(oid, k)) == good, path != "write", "{what}");
                assert_eq!(pool.read_verified(oid).unwrap(), want, "{what}");
                // A transaction over the repaired segment, then the round
                // trip through close and reopen.
                pool.tx(|tx| tx.write(oid, k * SEG, &want[(k * SEG) as usize..][..2])).unwrap();
                drop(pool);
                assert_model(&dev, oid, &want, &what);
                // Back to the model for the next case.
                let pool = reopen(&dev);
                pool.tx(|tx| tx.write(oid, 0, &model())).unwrap();
                supersede(&pool, spare);
            }
        }
    }
}

#[test]
fn an_entry_and_its_segment_corrupt_together_end_in_a_typed_error() {
    let (dev, pool) = create();
    let oid = make(&pool);
    let other = pool
        .tx(|tx| {
            let o = tx.alloc(64, 2)?;
            tx.write(o, 0, &[0x77; 64])?;
            Ok(o)
        })
        .unwrap();
    drop(pool);
    // Segment 9's bytes and entry change together, and the parity row
    // follows: the sum no longer matches, and parity has nothing better.
    let k = 9;
    corrupt_with_parity(&reopen(&dev), oid.off + k * SEG + 10, &[0xAB; 6]);
    corrupt_with_parity(&reopen(&dev), entry(oid, k), &[1, 2, 3, 4]);
    let pool = reopen(&dev);
    let mut buf = [0u8; 16];
    match pool.read_verified_at(oid, k * SEG, &mut buf) {
        Err(PglError::Unrecoverable { .. }) | Err(PglError::ChecksumMismatch { .. }) => {}
        r => panic!("a corrupt segment parity agrees with must not verify: {r:?}"),
    }
    let write = pool.tx(|tx| tx.write(oid, k * SEG + 100, &[1; 4]));
    assert!(write.is_err(), "nor may a transaction load it: {write:?}");
    // Segments the corruption did not reach still verify, unless the
    // zone went into quarantine; the rest of the pool keeps serving.
    if pool.quarantined_zones().is_empty() {
        let mut head = [0u8; 8];
        pool.read_verified_at(oid, 0, &mut head).unwrap();
        assert_eq!(head[..], model()[..8]);
        assert_eq!(pool.read_verified(other).unwrap(), vec![0x77; 64]);
    }
}

#[test]
fn a_size_whose_table_ends_past_its_block_is_a_typed_error() {
    // 4 136 bytes fill a 4 224-byte block with their table. A header
    // claiming 4 200 would put the table 48 bytes into the next block.
    let (dev, pool) = create();
    let oid = make(&pool);
    drop(pool);
    let hdr = dev.read_slice(oid.header_off(), 16).unwrap().to_vec();
    let mut bad = hdr.clone();
    bad[..8].copy_from_slice(&4200u64.to_le_bytes());
    // Scribbled past parity: repaired like any other header scribble.
    dev.scribble(oid.header_off(), &bad).unwrap();
    let pool = reopen(&dev);
    assert_eq!(pool.read_verified(oid).unwrap(), model(), "repaired from parity");
    // Written with parity: nothing to repair from, so a typed error.
    corrupt_with_parity(&pool, oid.header_off(), &bad);
    drop(pool);
    let pool = reopen(&dev);
    // Segment 0 holds no table entry: its bytes still check against the
    // header's sum and read right, or the zone is already quarantined.
    let mut head = [0u8; 8];
    match pool.read_verified_at(oid, 0, &mut head) {
        Ok(()) => assert_eq!(head[..], model()[..8]),
        Err(e) => assert!(e.is_unrecoverable(), "{e}"),
    }
    // Everything that reads the misplaced table fails typed.
    for (off, len) in [(4100, 36), (0, SIZE as usize)] {
        let mut buf = vec![0u8; len];
        match pool.read_verified_at(oid, off, &mut buf) {
            Err(PglError::Unrecoverable { .. } | PglError::ChecksumMismatch { .. }) => {}
            r => panic!("a size past the block must not verify at {off}: {r:?}"),
        }
    }
    assert!(pool.tx(|tx| tx.write(oid, 4190, &[1; 8])).is_err());
    // A size whose table would run off the zone is refused before any
    // read of the table.
    let mut far = hdr;
    far[..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    corrupt_with_parity(&pool, oid.header_off(), &far);
    drop(pool);
    let pool = reopen(&dev);
    assert!(pool.read_verified(oid).is_err());
    assert!(pool.scrub_now().is_ok(), "the scrub absorbs it as a skip or a quarantine");
}

#[test]
fn a_one_sum_per_object_image_is_refused_at_open() {
    let (dev, pool) = create();
    make(&pool);
    let layout = *pool.layout();
    let mut hdr = read_header(pool.io()).unwrap();
    assert_eq!(hdr.version, pangolin::pool::FORMAT_VERSION);
    hdr.version = 1;
    write_header(pool.io(), &layout, hdr).unwrap();
    drop(pool);
    match PglPool::options().open(dev.clone()) {
        Err(PglError::FormatVersion { found: 1, supported: 3 }) => {}
        r => panic!("a version-1 image must be refused: {:?}", r.err()),
    }
    // Nor does the libpmemobj-style pool take a Pangolin image.
    hdr.version = pangolin::pool::FORMAT_VERSION;
    write_header(&pgl_pmemobj::PoolIo::new(dev.clone()), &layout, hdr).unwrap();
    assert!(pgl_pmemobj::PmemPool::open(dev.clone()).is_err());
    assert!(PglPool::options().open(dev).is_ok());
}

#[test]
fn an_image_with_the_32_byte_log_format_is_refused_without_a_write() {
    // Version 2 lanes logged 32-byte entries and a standalone commit
    // record: today's decoder cannot read them, so the open refuses the
    // image before recovery can touch it.
    let (dev, pool) = create();
    make(&pool);
    let layout = *pool.layout();
    let mut hdr = read_header(pool.io()).unwrap();
    hdr.version = 2;
    write_header(pool.io(), &layout, hdr).unwrap();
    drop(pool);
    let s0 = dev.stats();
    match PglPool::options().open(dev.clone()) {
        Err(PglError::FormatVersion { found: 2, supported: 3 }) => {}
        r => panic!("a version-2 image must be refused: {:?}", r.err()),
    }
    let d = dev.stats().delta_since(&s0);
    let stores = (d.bytes_written, d.bytes_written_nt, d.atomic_stores);
    let rmws = (d.atomic_xors, d.atomic_cas_ops, d.lines_flushed, d.fences);
    assert_eq!((stores, rmws), ((0, 0, 0), (0, 0, 0, 0)), "the refused open wrote the device");
}
