//! Tests for partly resident micro-buffers: a large object is never
//! loaded whole — a transaction loads and checks just the 256-byte
//! segments its ranges cover — yet keeps every guarantee: isolation,
//! checksum correctness, parity consistency, and recovery. (Crash
//! atomicity of the same shape is swept in `crash_atomicity.rs`.)

use std::sync::Arc;

use pangolin::{inject, PMEMoid, PglConfig, PglPool};
use pgl_nvm::{DeviceConfig, NvmDevice};

const BIG: u64 = 256 << 10; // 256 KiB: 1 024 segments

fn big_cfg() -> PglConfig {
    let mut cfg = PglConfig::small();
    cfg.pool.size = 32 << 20;
    cfg.pool.zone_size = 16 << 20;
    cfg
}

/// The byte `make_big` stored at offset `i`.
fn pattern(i: usize) -> u8 {
    (i % 249) as u8
}

fn make_big(pool: &PglPool) -> PMEMoid {
    pool.tx(|tx| {
        let oid = tx.alloc(BIG, 1)?;
        let content: Vec<u8> = (0..BIG as usize).map(pattern).collect();
        tx.write(oid, 0, &content)?;
        Ok(oid)
    })
    .unwrap()
}

#[test]
fn small_write_to_big_object_stays_cheap_and_correct() {
    let cfg = big_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = make_big(&pool);

    let before = dev.stats();
    pool.tx(|tx| tx.write_pod(oid, 100_000, &0xFEED_FACEu64)).unwrap();
    let delta = dev.stats().delta_since(&before);
    // The whole point: the transaction must not touch ~BIG bytes. Redo
    // entry + write-back + parity + header are all range-sized.
    assert!(
        delta.total_bytes_written() < 16 << 10,
        "sparse tx wrote {} bytes for an 8-byte update",
        delta.total_bytes_written()
    );

    // And the object is still fully intact and verifiable end to end.
    let data = pool.read_verified(oid).unwrap();
    assert_eq!(u64::from_le_bytes(data[100_000..100_008].try_into().unwrap()), 0xFEED_FACE);
    assert_eq!(data[0], 0);
    assert_eq!(data[50_000], (50_000 % 249) as u8);
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn many_scattered_writes_keep_checksum_exact() {
    let cfg = big_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev, cfg).unwrap();
    let oid = make_big(&pool);
    let mut model: Vec<u8> = (0..BIG).map(|i| (i % 249) as u8).collect();

    for round in 0..50u64 {
        let off = (round * 5003) % (BIG - 64);
        let len = 1 + (round % 64) as usize;
        let fill = round as u8;
        pool.tx(|tx| tx.write(oid, off, &vec![fill; len])).unwrap();
        model[off as usize..off as usize + len].fill(fill);
    }
    let data = pool.read_verified(oid).unwrap();
    assert_eq!(data, model, "incremental checksum tracked every range");
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

#[test]
fn sparse_tx_reads_its_own_writes() {
    let cfg = big_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev, cfg).unwrap();
    let oid = make_big(&pool);
    pool.tx(|tx| {
        tx.write_pod(oid, 4096, &111u64)?;
        assert_eq!(tx.read_pod::<u64>(oid, 4096)?, 111, "isolation within tx");
        // An untouched range reads through to NVMM.
        let mut b = [0u8; 1];
        tx.read(oid, 9000, &mut b)?;
        assert_eq!(b[0], (9000 % 249) as u8);
        Ok(())
    })
    .unwrap();
}

#[test]
fn sparse_aborts_leave_nvmm_untouched() {
    let cfg = big_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev, cfg).unwrap();
    let oid = make_big(&pool);
    let err = pool.tx(|tx| -> pangolin::Result<()> {
        tx.write(oid, 0, &[0xFF; 1024])?;
        Err(pangolin::PglError::unrecoverable("abort"))
    });
    assert!(err.is_err());
    let data = pool.read_verified(oid).unwrap();
    assert_eq!(data[0], 0);
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn read_of_a_partly_resident_range_overlays_the_transactions_own_writes() {
    let cfg = big_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = make_big(&pool);
    pool.tx(|tx| {
        tx.write(oid, 250, &[9; 20])?;
        let s0 = dev.stats();
        let mut got = [0u8; 600];
        tx.read(oid, 0, &mut got)?;
        let d = dev.stats().delta_since(&s0);
        // Segments 0 and 1 are resident; the missing [512, 600) is read
        // with the rest of its segment and that segment's entry, checked,
        // then overlaid.
        assert_eq!((d.read_ops, d.bytes_read), (2, 256 + 4), "segment 2 and its sum");
        assert_eq!(d.csum_passes, 1);
        let mut want: Vec<u8> = (0..600).map(pattern).collect();
        want[250..270].fill(9);
        assert_eq!(got[..], want[..], "read-your-writes inside a larger range");
        Ok(())
    })
    .unwrap();
}

#[test]
fn ubuf_mut_makes_a_big_object_fully_resident_like_any_other() {
    let cfg = big_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev, cfg).unwrap();
    let oid = make_big(&pool);
    let v0 = pool.vuln();
    pool.tx(|tx| {
        tx.write(oid, 1000, &[7; 10])?; // an earlier run is merged, not re-read
        let b = tx.ubuf_mut(oid)?;
        assert_eq!(b.user().len() as u64, BIG);
        assert_eq!((b.user()[1000], b.user()[5000]), (7, pattern(5000)));
        b.user_mut()[5000..5008].fill(0x33); // paper style: modify, then mark
        tx.add_range(oid, 5000, 8)
    })
    .unwrap();
    let v = pool.vuln();
    assert_eq!(v.unverified - v0.unverified, 0, "nothing loaded unverified");
    assert_eq!(v.verified - v0.verified, BIG, "every segment checked once");
    let data = pool.read_verified(oid).unwrap();
    let mut want: Vec<u8> = (0..BIG as usize).map(pattern).collect();
    want[1000..1010].fill(7);
    want[5000..5008].fill(0x33);
    assert_eq!(data, want);
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn add_range_on_a_big_object_marks_it_and_a_never_stored_mark_commits_a_zero_diff() {
    let cfg = big_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = make_big(&pool);
    let s0 = dev.stats();
    let ((), stats) = pool.tx_with_stats(|tx| tx.add_range(oid, 1000, 64)).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!((stats.modified_objects, stats.modified_bytes), (1, 64), "the range is marked");
    // [1000, 1064) straddles segments 3 and 4: both are loaded and
    // checked, with their two sums.
    assert_eq!(d.bytes_read, 16 + 2 * 256 + 2 * 4, "header + the two covering segments");
    assert_eq!((d.atomic_xors, d.xor_bytes), (0, 0), "zero diff");
    assert_eq!(d.lines_flushed, 2, "generation words only");
    assert_eq!(
        pool.read_verified(oid).unwrap(),
        (0..BIG as usize).map(pattern).collect::<Vec<_>>()
    );
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn scribble_on_sparse_object_detected_and_repaired() {
    let cfg = big_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev, cfg).unwrap();
    let oid = make_big(&pool);
    inject::scribble_object(&pool, oid, 12345, 500, 0xEE).unwrap();
    // A verified read (like a transaction's load, or the scrub) checks
    // the segments it covers, detects the scribble and repairs it.
    let data = pool.read_verified(oid).unwrap();
    assert_eq!(data[12345], (12345 % 249) as u8);
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn media_error_under_sparse_write_recovers() {
    let cfg = big_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = make_big(&pool);
    // Poison a page inside the object, then write a range on that page:
    // the range load must recover online first.
    let page = (oid.off + 131072) / pgl_nvm::PAGE_SIZE as u64;
    dev.poison_page(page).unwrap();
    pool.tx(|tx| tx.write_pod(oid, 131100, &7u64)).unwrap();
    let data = pool.read_verified(oid).unwrap();
    assert_eq!(u64::from_le_bytes(data[131100..131108].try_into().unwrap()), 7);
    assert!(pool.counters().page_recoveries.load(std::sync::atomic::Ordering::Relaxed) >= 1);
}
