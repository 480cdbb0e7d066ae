//! Log-overflow tests: transactions larger than a lane spill their redo
//! logs into heap chunks (paper §2.3), which parity treats as zeros
//! (paper §3.1). These are the conditions the PMDK hashmap's rehash — a
//! single transaction relinking every entry — creates.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use pangolin::{PMEMoid, PglConfig, PglMode, PglPool};
use pgl_nvm::stats::StatsSnapshot;
use pgl_nvm::{CrashPoint, DeviceConfig, NvmDevice, RandomPlan};

/// A transaction whose redo payload far exceeds the 128 KiB test lane.
fn huge_tx(pool: &PglPool, oids: &[PMEMoid], fill: u8) {
    pool.tx(|tx| {
        for oid in oids {
            tx.write(*oid, 0, &[fill; 512])?;
        }
        Ok(())
    })
    .unwrap();
}

fn make_objects(pool: &PglPool, n: usize) -> Vec<PMEMoid> {
    (0..n)
        .map(|i| {
            pool.tx(|tx| {
                let oid = tx.alloc(512, 1)?;
                tx.write(oid, 0, &[i as u8; 512])?;
                Ok(oid)
            })
            .unwrap()
        })
        .collect()
}

#[test]
fn oversized_tx_commits_through_overflow() {
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev, cfg).unwrap();
    // 600 objects x 512 B redo payload ~= 330 KiB > 128 KiB lane.
    let oids = make_objects(&pool, 600);
    huge_tx(&pool, &oids, 0xEE);
    for oid in &oids {
        let data = pool.read_verified(*oid).unwrap();
        assert_eq!(data, vec![0xEE; 512]);
    }
    assert!(pool.verify_parity().unwrap(), "log chunks count as zeros in parity");
    // Overflow chunks were returned: the heap can still allocate freely.
    let stats_before = pool.live_objects().unwrap().len();
    pool.tx(|tx| tx.alloc(1024, 2)).unwrap();
    assert_eq!(pool.live_objects().unwrap().len(), stats_before + 1);
}

#[test]
fn overflow_tx_is_atomic_across_crashes() {
    // Crash at sampled points inside the oversized transaction; after
    // recovery all objects are either old or new, never mixed, and parity
    // holds.
    let cfg = PglConfig::small();
    let make = || {
        let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::precise()).unwrap());
        let pool = PglPool::create(dev.clone(), cfg).unwrap();
        let oids = make_objects(&pool, 400);
        (dev, pool, oids)
    };

    // Count ops of the un-crashed run.
    let (dev, pool, oids) = make();
    const BIG: u64 = 1 << 40;
    dev.arm_crash_after(BIG);
    huge_tx(&pool, &oids, 0xEE);
    let total = BIG - dev.crash_countdown() as u64;
    dev.disarm_crash();
    drop(pool);

    let step = (total / 24).max(1);
    for k in (0..total).step_by(step as usize) {
        let (dev, pool, oids) = make();
        dev.arm_crash_after(k);
        let result = panic::catch_unwind(AssertUnwindSafe(|| huge_tx(&pool, &oids, 0xEE)));
        dev.disarm_crash();
        if let Err(p) = result {
            assert!(p.downcast_ref::<CrashPoint>().is_some());
        }
        drop(pool);
        dev.simulate_crash(&mut RandomPlan::seeded(k)).unwrap();
        let pool = PglPool::options().open(dev).unwrap();
        assert!(pool.verify_parity().unwrap(), "parity broken after crash at {k}");
        let first = pool.read_verified(PMEMoid::new(pool.uuid(), oids[0].off)).unwrap();
        let committed = first == vec![0xEE; 512];
        for (i, oid) in oids.iter().enumerate() {
            let data = pool.read_verified(PMEMoid::new(pool.uuid(), oid.off)).unwrap();
            let want = if committed { vec![0xEE; 512] } else { vec![i as u8; 512] };
            assert_eq!(data, want, "object {i} inconsistent after crash at {k}");
        }
        // Overflow chunks must have been swept; allocation still works.
        pool.tx(|tx| tx.alloc(64, 9)).unwrap();
    }
}

#[test]
fn overflow_chunks_lost_pages_recover_from_replica() {
    // Mlpc replicates logs; losing a page of a primary overflow chunk
    // mid-commit must not lose the transaction. We emulate by crashing
    // right after the commit record, poisoning an overflow page, and
    // recovering.
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::precise()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oids = make_objects(&pool, 600);

    // Find the commit point: run once to count, the commit record is the
    // last persist before write-back; crash shortly after the full log is
    // durable (~60% through is safely past it for this workload shape).
    const BIG: u64 = 1 << 40;
    dev.arm_crash_after(BIG);
    huge_tx(&pool, &oids, 0xCC);
    let total = BIG - dev.crash_countdown() as u64;
    dev.disarm_crash();

    let dev2 = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::precise()).unwrap());
    let pool2 = PglPool::create(dev2.clone(), cfg).unwrap();
    let oids2 = make_objects(&pool2, 600);
    dev2.arm_crash_after(total * 70 / 100);
    let _ = panic::catch_unwind(AssertUnwindSafe(|| huge_tx(&pool2, &oids2, 0xCC)));
    dev2.disarm_crash();
    drop(pool2);
    dev2.simulate_crash(&mut RandomPlan::seeded(1234)).unwrap();
    let pool2 = PglPool::options().open(dev2).unwrap();
    assert!(pool2.verify_parity().unwrap());
    for (i, oid) in oids2.iter().enumerate() {
        let data = pool2.read_verified(PMEMoid::new(pool2.uuid(), oid.off)).unwrap();
        assert!(data == vec![0xCC; 512] || data == vec![i as u8; 512], "object {i} torn");
    }
}

/// A warm single-thread transaction that overflows its lane into exactly
/// one log chunk (a primary and a replica chunk where logs replicate).
/// Returns the device-stat delta of the transaction.
fn one_chunk_overflow(mode: PglMode, n: usize) -> StatsSnapshot {
    let cfg = PglConfig::small().with_mode(mode);
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oids = make_objects(&pool, n);
    huge_tx(&pool, &oids, 0x5E); // warm-up: the same overflow once
    let s0 = dev.stats();
    huge_tx(&pool, &oids, 0xEE);
    let d = dev.stats().delta_since(&s0);
    for oid in &oids {
        assert_eq!(pool.read_verified(*oid).unwrap(), vec![0xEE; 512]);
    }
    assert!(pool.verify_parity().unwrap());
    d
}

/// Objects whose 512-byte overwrite in one transaction overflows the
/// 128 KiB test lane into exactly one log chunk: a chunk is 16 KiB, and
/// 240 objects already overflow, 280 need a second chunk.
const ONE_CHUNK: usize = 250;

/// The log-overflow write-back, pinned: claiming the chunk zeroes it and
/// flips its chunk-metadata entry through the protected write (pre-image
/// read, non-temporal store, parity patch, one fence each), and the
/// release flips it back parity-first. With log replication a replica
/// chunk doubles that.
#[test]
fn one_chunk_overflow_costs_pinned_fences_reads_and_nt_bytes() {
    let d = one_chunk_overflow(PglMode::Mlpc, ONE_CHUNK);
    assert_eq!((d.fences, d.bytes_read, d.bytes_written_nt), (263, 165_832, 442_008));
    // Without parity the chunk is claimed with plain stores: one chunk,
    // no pre-image.
    let d = one_chunk_overflow(PglMode::Baseline, ONE_CHUNK);
    assert_eq!((d.fences, d.bytes_read, d.bytes_written_nt), (254, 132_000, 268_040));
}
